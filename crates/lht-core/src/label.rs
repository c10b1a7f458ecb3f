//! Space partition tree labels.

use lht_dht::DhtKey;
use lht_id::{BitStr, KeyFraction};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

use crate::interval::KeyInterval;

/// A node label in the space partition tree (paper §3.2).
///
/// The tree is *double-rooted*: a **virtual root** `#` sits above the
/// regular root, and the edge between them is labelled `0`, so the
/// regular root is `#0` and every non-virtual label starts with bit 0.
/// A label is the bit path from the virtual root, rendered as e.g.
/// `#0110`.
///
/// Internally a label is a [`BitStr`] (the part after `#`); the
/// virtual root is the empty bit string. Label *length* in this crate
/// is the **bit count** — one less than the paper's character count,
/// which includes the `#`.
///
/// # Examples
///
/// ```
/// use lht_core::Label;
///
/// let leaf: Label = "#0100".parse()?;
/// assert_eq!(leaf.len(), 4);
/// assert_eq!(leaf.parent().unwrap().to_string(), "#010");
/// assert_eq!(leaf.child(true).to_string(), "#01001");
/// assert!(Label::root().is_prefix_of(&leaf));
/// # Ok::<(), lht_core::LhtError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Label {
    bits: BitStr,
}

impl Label {
    /// The virtual root `#`.
    pub(crate) const VIRTUAL_ROOT: Label = Label {
        bits: BitStr::EMPTY,
    };

    /// The virtual root `#` (paper notation; the node above the
    /// regular root).
    pub fn virtual_root() -> Label {
        Label::VIRTUAL_ROOT
    }

    /// The regular root `#0`, covering the whole key space.
    pub fn root() -> Label {
        Label {
            bits: BitStr::from_bit(false),
        }
    }

    /// Builds a label from its bit path (the part after `#`).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is non-empty and does not start with 0 — every
    /// non-virtual node lies under the regular root `#0`.
    pub fn from_bits(bits: BitStr) -> Label {
        assert!(
            bits.is_empty() || !bits.bit(0),
            "non-virtual labels start with bit 0 (the virtual-root edge)"
        );
        Label { bits }
    }

    /// The search string `μ(δ, D)` (paper §5): the `D`-bit label path
    /// whose prefixes are all the possible leaf labels covering `δ` in
    /// a tree of maximum depth `D`.
    ///
    /// Its first bit is the virtual-root edge `0`; the remaining
    /// `D - 1` bits are the leading bits of `δ`'s binary expansion.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is 0 or exceeds 65.
    pub fn search_string(key: KeyFraction, depth: usize) -> Label {
        assert!((1..=65).contains(&depth), "depth {depth} out of range");
        let mut bits = BitStr::from_bit(false);
        for i in 0..depth - 1 {
            bits.push(key.bit(i as u32));
        }
        Label { bits }
    }

    /// The bit path below the virtual root.
    pub fn bits(&self) -> &BitStr {
        &self.bits
    }

    /// Number of bits in the label (the paper's label length minus
    /// one for the `#`).
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the label has no bits — true only for the virtual
    /// root `#` (same as [`is_virtual_root`](Self::is_virtual_root)).
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Whether this is the virtual root `#`.
    pub fn is_virtual_root(&self) -> bool {
        self.bits.is_empty()
    }

    /// The final bit, or `None` for the virtual root.
    pub(crate) fn last_bit(&self) -> Option<bool> {
        self.bits.last()
    }

    /// The child label extending this one by `bit` (false = left).
    #[must_use]
    pub fn child(&self, bit: bool) -> Label {
        Label {
            bits: self.bits.child(bit),
        }
    }

    /// The parent label, or `None` for the virtual root.
    pub fn parent(&self) -> Option<Label> {
        self.bits.parent().map(|bits| Label { bits })
    }

    /// The sibling label (final bit flipped). `None` for the virtual
    /// root and for the regular root (whose sibling would lie outside
    /// the tree).
    pub fn sibling(&self) -> Option<Label> {
        if self.len() <= 1 {
            return None;
        }
        self.bits.sibling().map(|bits| Label { bits })
    }

    /// The prefix label holding the first `n` bits.
    ///
    /// # Panics
    ///
    /// Panics if `n > self.len()`.
    pub fn prefix(&self, n: usize) -> Label {
        Label {
            bits: self.bits.prefix(n),
        }
    }

    /// Whether `self` labels an ancestor-or-self of `other`.
    pub fn is_prefix_of(&self, other: &Label) -> bool {
        self.bits.is_prefix_of(&other.bits)
    }

    /// The lowest common ancestor of two labels.
    pub(crate) fn lowest_common_ancestor(&self, other: &Label) -> Label {
        let n = self.bits.common_prefix_len(&other.bits);
        self.prefix(n)
    }

    /// The half-open key interval this node covers (paper §3.2: the
    /// space partition strategy makes every node's interval globally
    /// known from its label alone).
    ///
    /// The virtual root and the regular root both cover `[0, 1)`; each
    /// further bit halves the interval (0 = lower half).
    pub fn interval(&self) -> KeyInterval {
        if self.len() <= 1 {
            return KeyInterval::FULL;
        }
        let depth = self.len() - 1; // bits below the regular root
        let mut lo: u128 = 0;
        for i in 1..self.len() {
            if self.bits.bit(i) {
                lo |= 1u128 << (64 - (i as u32));
            }
        }
        let width = 1u128 << (64 - depth as u32);
        KeyInterval::from_raw(lo, lo + width)
    }

    /// Whether this node's interval contains `key` — equivalently,
    /// whether this label is a prefix of `key`'s search string.
    pub fn covers(&self, key: KeyFraction) -> bool {
        self.interval().contains(key)
    }

    /// The DHT key for this label (its textual rendering, e.g.
    /// `"#0110"`), used to place buckets on the ring.
    ///
    /// Rendered into a stack buffer — labels are at most 128 bits, so
    /// `'#'` plus one byte per bit always fits and building the key
    /// performs no heap allocation.
    pub fn dht_key(&self) -> DhtKey {
        let mut buf = [0u8; 129];
        buf[0] = b'#';
        for (slot, bit) in buf[1..].iter_mut().zip(self.bits.iter()) {
            *slot = if bit { b'1' } else { b'0' };
        }
        DhtKey::from_bytes(&buf[..1 + self.bits.len()])
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("#")?;
        for b in self.bits.iter() {
            f.write_str(if b { "1" } else { "0" })?;
        }
        Ok(())
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Label({self})")
    }
}

impl FromStr for Label {
    type Err = crate::LhtError;

    /// Parses the paper's notation, e.g. `"#0100"`. The leading `#`
    /// is required.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let rest = s
            .strip_prefix('#')
            .ok_or_else(|| crate::LhtError::BadLabel(s.to_string()))?;
        let bits: BitStr = rest
            .parse()
            .map_err(|_| crate::LhtError::BadLabel(s.to_string()))?;
        if !bits.is_empty() && bits.bit(0) {
            return Err(crate::LhtError::BadLabel(s.to_string()));
        }
        Ok(Label { bits })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(s: &str) -> Label {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display_round_trip() {
        for s in ["#", "#0", "#01", "#0110", "#00000"] {
            assert_eq!(l(s).to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_bad_labels() {
        assert!("0110".parse::<Label>().is_err(), "missing #");
        assert!("#1".parse::<Label>().is_err(), "first bit must be 0");
        assert!("#01x".parse::<Label>().is_err(), "bad character");
    }

    #[test]
    fn virtual_root_and_root() {
        assert!(Label::virtual_root().is_virtual_root());
        assert_eq!(Label::virtual_root().to_string(), "#");
        assert_eq!(Label::root().to_string(), "#0");
        assert_eq!(Label::root().parent(), Some(Label::virtual_root()));
        assert_eq!(Label::virtual_root().parent(), None);
    }

    #[test]
    fn family_relations() {
        let n = l("#010");
        assert_eq!(n.child(false), l("#0100"));
        assert_eq!(n.child(true), l("#0101"));
        assert_eq!(n.parent(), Some(l("#01")));
        assert_eq!(n.sibling(), Some(l("#011")));
        assert_eq!(Label::root().sibling(), None);
        assert_eq!(Label::virtual_root().sibling(), None);
    }

    #[test]
    #[should_panic(expected = "start with bit 0")]
    fn from_bits_rejects_leading_one() {
        Label::from_bits("10".parse().unwrap());
    }

    #[test]
    fn lowest_common_ancestor() {
        assert_eq!(l("#0100").lowest_common_ancestor(&l("#0111")), l("#01"));
        assert_eq!(l("#0100").lowest_common_ancestor(&l("#0100")), l("#0100"));
        assert_eq!(l("#0100").lowest_common_ancestor(&l("#01")), l("#01"));
        assert_eq!(l("#00").lowest_common_ancestor(&l("#01")), Label::root());
    }

    #[test]
    fn intervals_match_paper_figure2() {
        // In Fig. 2 the root's partition point is 1/2; #00 covers
        // [0, 1/2), #01 covers [1/2, 1), #010 covers [1/2, 3/4), etc.
        let half = KeyFraction::from_f64(0.5);
        assert!(Label::root().covers(half));
        assert!(!l("#00").covers(half));
        assert!(l("#01").covers(half));
        assert!(l("#010").covers(half));
        assert!(!l("#011").covers(half));
        assert!(l("#011").covers(KeyFraction::from_f64(0.8)));

        let i = l("#010").interval();
        assert_eq!(i.lo_key(), KeyFraction::from_f64(0.5));
        assert_eq!(i.hi_raw(), (3u128 << 62));
    }

    #[test]
    fn virtual_root_and_root_cover_everything() {
        for label in [Label::virtual_root(), Label::root()] {
            assert!(label.covers(KeyFraction::ZERO));
            assert!(label.covers(KeyFraction::MAX));
            assert_eq!(label.interval(), KeyInterval::FULL);
        }
    }

    #[test]
    fn search_string_matches_paper_examples() {
        // §5: μ(0.4, 6) = #00110 — root prefix #0 plus 0110 (binary 0.4).
        let mu = Label::search_string(KeyFraction::from_f64(0.4), 5);
        assert_eq!(mu.to_string(), "#00110");
        // §5 lookup example: μ(0.9, 14) = #01110011001100.
        let mu9 = Label::search_string(KeyFraction::from_f64(0.9), 14);
        assert_eq!(mu9.to_string(), "#01110011001100");
        // In Fig. 2, λ(0.4) = #001 — a prefix of μ(0.4, ·).
        assert!(l("#001").is_prefix_of(&mu));
    }

    #[test]
    fn covers_agrees_with_search_string_prefix() {
        for f in [0.0, 0.1, 0.25, 0.4, 0.5, 0.77, 0.9999] {
            let key = KeyFraction::from_f64(f);
            let mu = Label::search_string(key, 20);
            for n in 1..=10 {
                let node = mu.prefix(n);
                assert!(node.covers(key), "{node} should cover {f}");
                assert!(!node.sibling().map(|s| s.covers(key)).unwrap_or(false));
            }
        }
    }

    #[test]
    fn children_partition_parent_interval() {
        let n = l("#0101");
        let i = n.interval();
        let left = n.child(false).interval();
        let right = n.child(true).interval();
        assert_eq!(left.lo_raw(), i.lo_raw());
        assert_eq!(left.hi_raw(), right.lo_raw());
        assert_eq!(right.hi_raw(), i.hi_raw());
    }

    #[test]
    fn dht_keys_are_textual_labels() {
        assert_eq!(l("#01").dht_key(), DhtKey::from("#01"));
        assert_eq!(Label::virtual_root().dht_key(), DhtKey::from("#"));
    }
}
