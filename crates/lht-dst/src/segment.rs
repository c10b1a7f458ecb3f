//! Segment-tree geometry: segments and canonical covers.

use lht_core::KeyInterval;
use lht_dht::DhtKey;
use lht_id::KeyFraction;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A segment-tree node address: level `l` (0 = root) and index `i`
/// within the level, covering `[i/2^l, (i+1)/2^l)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Segment {
    /// Tree level; 0 is the root.
    pub level: u8,
    /// Index within the level, `0 <= index < 2^level`.
    pub index: u64,
}

impl Segment {
    /// The root segment `[0, 1)`.
    pub(crate) const ROOT: Segment = Segment { level: 0, index: 0 };

    /// Creates a segment address.
    ///
    /// # Panics
    ///
    /// Panics if `level > 63` or `index >= 2^level`.
    pub(crate) fn new(level: u8, index: u64) -> Segment {
        assert!(level <= 63, "level {level} too deep");
        assert!(
            level == 63 || index < (1u64 << level),
            "index {index} out of range for level {level}"
        );
        Segment { level, index }
    }

    /// The segment containing `key` at `level`.
    pub(crate) fn containing(key: KeyFraction, level: u8) -> Segment {
        assert!(level <= 63);
        let index = if level == 0 {
            0
        } else {
            key.bits() >> (64 - level as u32)
        };
        Segment { level, index }
    }

    /// The key interval this segment covers.
    pub(crate) fn interval(&self) -> KeyInterval {
        let width = 1u128 << (64 - self.level as u32);
        let lo = self.index as u128 * width;
        KeyInterval::from_raw(lo, lo + width)
    }

    /// Left child (one level deeper, lower half).
    pub(crate) fn left(&self) -> Segment {
        Segment::new(self.level + 1, self.index * 2)
    }

    /// Right child.
    pub(crate) fn right(&self) -> Segment {
        Segment::new(self.level + 1, self.index * 2 + 1)
    }

    /// Parent segment, or `None` at the root.
    pub(crate) fn parent(&self) -> Option<Segment> {
        if self.level == 0 {
            None
        } else {
            Some(Segment {
                level: self.level - 1,
                index: self.index / 2,
            })
        }
    }

    /// The DHT key of this tree node (a `!level:index` rendering;
    /// never collides with LHT's `#` or PHT's `^` keys).
    pub(crate) fn dht_key(&self) -> DhtKey {
        DhtKey::from(self.to_string())
    }
}

impl fmt::Display for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "!{}:{}", self.level, self.index)
    }
}

/// The minimal canonical segment cover of `range` at tree height
/// `height`: the unique smallest set of disjoint tree segments, none
/// deeper than `height`, whose union contains `range` clipped to leaf
/// granularity. Ranges not aligned to leaf boundaries are covered by
/// the enclosing leaves (callers filter records exactly). At most
/// `2·height` segments are returned.
///
/// # Examples
///
/// ```
/// use lht_core::KeyInterval;
/// use lht_dst::canonical_cover;
/// use lht_id::KeyFraction;
///
/// // [0.25, 0.75) at height 2 is the two level-2 segments
/// // [0.25, 0.5) and [0.5, 0.75): indices 1 and 2.
/// let cover = canonical_cover(
///     &KeyInterval::half_open(KeyFraction::from_f64(0.25), KeyFraction::from_f64(0.75)),
///     2,
/// );
/// assert_eq!(cover.len(), 2);
/// ```
pub fn canonical_cover(range: &KeyInterval, height: u8) -> Vec<Segment> {
    let mut out = Vec::new();
    if range.is_empty() {
        return out;
    }
    descend(Segment::ROOT, range, height, &mut out);
    out
}

fn descend(seg: Segment, range: &KeyInterval, height: u8, out: &mut Vec<Segment>) {
    let iv = seg.interval();
    if !iv.overlaps(range) {
        return;
    }
    if iv.is_subset_of(range) || seg.level == height {
        out.push(seg);
        return;
    }
    descend(seg.left(), range, height, out);
    descend(seg.right(), range, height, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ki(lo: f64, hi: f64) -> KeyInterval {
        KeyInterval::half_open(KeyFraction::from_f64(lo), KeyFraction::from_f64(hi))
    }

    #[test]
    fn segment_intervals() {
        assert_eq!(Segment::ROOT.interval(), KeyInterval::FULL);
        let s = Segment::new(2, 1); // [0.25, 0.5)
        assert!(s.interval().contains(KeyFraction::from_f64(0.3)));
        assert!(!s.interval().contains(KeyFraction::from_f64(0.5)));
        assert_eq!(s.parent(), Some(Segment::new(1, 0)));
        assert_eq!(s.left(), Segment::new(3, 2));
        assert_eq!(s.right(), Segment::new(3, 3));
        assert_eq!(Segment::ROOT.parent(), None);
    }

    #[test]
    fn containing_walks_the_path() {
        let k = KeyFraction::from_f64(0.7);
        let leaf = Segment::containing(k, 10);
        assert!(leaf.interval().contains(k));
        let mut cur = leaf;
        while let Some(p) = cur.parent() {
            assert!(p.interval().contains(k));
            cur = p;
        }
        assert_eq!(cur, Segment::ROOT);
    }

    #[test]
    fn dht_keys_use_bang_sigil() {
        assert_eq!(Segment::new(3, 5).dht_key(), DhtKey::from("!3:5"));
    }

    #[test]
    fn cover_of_aligned_range_is_minimal() {
        // [0.25, 0.75) = two level-2 segments.
        let cover = canonical_cover(&ki(0.25, 0.75), 6);
        assert_eq!(cover, vec![Segment::new(2, 1), Segment::new(2, 2)]);
        // The whole space is the root alone.
        assert_eq!(canonical_cover(&KeyInterval::FULL, 6), vec![Segment::ROOT]);
        assert!(canonical_cover(&KeyInterval::EMPTY, 6).is_empty());
    }

    #[test]
    fn cover_size_is_at_most_2h() {
        for (lo, hi) in [(0.1, 0.9), (0.123, 0.877), (0.001, 0.002)] {
            for h in [4u8, 8, 12] {
                let cover = canonical_cover(&ki(lo, hi), h);
                assert!(
                    cover.len() <= 2 * h as usize,
                    "cover of [{lo},{hi}) at h={h} has {} segments",
                    cover.len()
                );
            }
        }
    }

    proptest! {
        /// The cover is disjoint, covers the range, and every segment
        /// overlaps it.
        #[test]
        fn cover_is_sound(a in any::<u64>(), b in any::<u64>(), h in 1u8..14) {
            let range = KeyInterval::half_open(
                KeyFraction::from_bits(a.min(b)),
                KeyFraction::from_bits(a.max(b)),
            );
            let cover = canonical_cover(&range, h);
            // Disjoint and sorted by construction (DFS order).
            for w in cover.windows(2) {
                prop_assert!(w[0].interval().hi_raw() <= w[1].interval().lo_raw());
            }
            for s in &cover {
                prop_assert!(s.interval().overlaps(&range));
            }
            // Union covers the range: probe a few interior points.
            if !range.is_empty() {
                for probe in [range.lo_key(), range.max_key()] {
                    prop_assert!(
                        cover.iter().any(|s| s.interval().contains(probe)),
                        "point {probe:?} uncovered"
                    );
                }
            }
        }
    }
}
