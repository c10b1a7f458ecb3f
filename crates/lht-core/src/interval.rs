//! Half-open key intervals.

use lht_id::KeyFraction;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A half-open interval `[lo, hi)` of data keys.
///
/// Bounds are held as `u128` numerators over `2^64`, so the full space
/// `[0, 1)` — whose exclusive upper bound `1.0` is not representable
/// as a [`KeyFraction`] — is representable exactly, and all interval
/// algebra (the partition-tree medians are dyadic rationals) is exact.
///
/// # Examples
///
/// ```
/// use lht_core::KeyInterval;
/// use lht_id::KeyFraction;
///
/// let r = KeyInterval::half_open(
///     KeyFraction::from_f64(0.25),
///     KeyFraction::from_f64(0.5),
/// );
/// assert!(r.contains(KeyFraction::from_f64(0.3)));
/// assert!(!r.contains(KeyFraction::from_f64(0.5)), "half-open");
/// assert!(r.is_subset_of(&KeyInterval::FULL));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct KeyInterval {
    lo: u128,
    hi: u128,
}

/// The exclusive upper bound representing `1.0`.
const ONE: u128 = 1u128 << 64;

impl KeyInterval {
    /// The whole key space `[0, 1)`.
    pub const FULL: KeyInterval = KeyInterval { lo: 0, hi: ONE };

    /// An empty interval.
    pub const EMPTY: KeyInterval = KeyInterval { lo: 0, hi: 0 };

    /// Creates `[lo, hi)` from two keys. If `hi <= lo` the interval is
    /// empty.
    pub fn half_open(lo: KeyFraction, hi: KeyFraction) -> KeyInterval {
        KeyInterval {
            lo: lo.bits() as u128,
            hi: hi.bits() as u128,
        }
        .normalized()
    }

    /// Creates `[lo, 1)` — everything from `lo` to the top of the key
    /// space.
    pub fn from_key_to_end(lo: KeyFraction) -> KeyInterval {
        KeyInterval {
            lo: lo.bits() as u128,
            hi: ONE,
        }
    }

    /// Creates `[lo, hi)` from raw key bits, or `[lo, 1)` when `hi` is
    /// `None` — the bounds a [`HistoryCall::Range`](crate::HistoryCall::Range)
    /// carries.
    pub fn from_bits(lo: u64, hi: Option<u64>) -> KeyInterval {
        let lo = KeyFraction::from_bits(lo);
        match hi {
            Some(hi) => KeyInterval::half_open(lo, KeyFraction::from_bits(hi)),
            None => KeyInterval::from_key_to_end(lo),
        }
    }

    /// Creates an interval from raw `u128` numerators over `2^64`.
    ///
    /// # Panics
    ///
    /// Panics if `hi > 2^64` or `lo > hi`.
    pub fn from_raw(lo: u128, hi: u128) -> KeyInterval {
        assert!(hi <= ONE, "upper bound beyond key space");
        assert!(lo <= hi, "inverted interval");
        KeyInterval { lo, hi }
    }

    fn normalized(self) -> KeyInterval {
        if self.lo >= self.hi {
            KeyInterval::EMPTY
        } else {
            self
        }
    }

    /// The inclusive lower bound as a key.
    pub fn lo_key(&self) -> KeyFraction {
        KeyFraction::from_bits(self.lo as u64)
    }

    /// The largest key inside the interval.
    ///
    /// # Panics
    ///
    /// Panics if the interval is empty.
    pub fn max_key(&self) -> KeyFraction {
        assert!(!self.is_empty(), "empty interval has no max key");
        KeyFraction::from_bits((self.hi - 1) as u64)
    }

    /// Raw lower bound (numerator over `2^64`).
    pub fn lo_raw(&self) -> u128 {
        self.lo
    }

    /// Raw exclusive upper bound (numerator over `2^64`).
    pub fn hi_raw(&self) -> u128 {
        self.hi
    }

    /// Whether the interval contains no keys.
    pub fn is_empty(&self) -> bool {
        self.lo >= self.hi
    }

    /// Whether `key` lies inside.
    pub fn contains(&self, key: KeyFraction) -> bool {
        let k = key.bits() as u128;
        self.lo <= k && k < self.hi
    }

    /// Whether the two intervals share any key.
    pub fn overlaps(&self, other: &KeyInterval) -> bool {
        !self.is_empty() && !other.is_empty() && self.lo < other.hi && other.lo < self.hi
    }

    /// Whether every key of `self` lies in `other`. The empty interval
    /// is a subset of everything.
    pub fn is_subset_of(&self, other: &KeyInterval) -> bool {
        self.is_empty() || (other.lo <= self.lo && self.hi <= other.hi)
    }

    /// The intersection of the two intervals (possibly empty).
    #[must_use]
    pub(crate) fn intersect(&self, other: &KeyInterval) -> KeyInterval {
        KeyInterval {
            lo: self.lo.max(other.lo),
            hi: self.hi.min(other.hi),
        }
        .normalized()
    }
}

impl fmt::Debug for KeyInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "KeyInterval[{}, {})", self.lo_f64(), self.hi_f64())
    }
}

impl fmt::Display for KeyInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:.6}, {:.6})", self.lo_f64(), self.hi_f64())
    }
}

impl KeyInterval {
    fn lo_f64(&self) -> f64 {
        self.lo as f64 / ONE as f64
    }

    fn hi_f64(&self) -> f64 {
        self.hi as f64 / ONE as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ki(lo: f64, hi: f64) -> KeyInterval {
        KeyInterval::half_open(KeyFraction::from_f64(lo), KeyFraction::from_f64(hi))
    }

    #[test]
    fn full_interval_contains_all_keys() {
        assert!(KeyInterval::FULL.contains(KeyFraction::ZERO));
        assert!(KeyInterval::FULL.contains(KeyFraction::MAX));
    }

    #[test]
    fn empty_interval_behaviour() {
        assert!(KeyInterval::EMPTY.is_empty());
        assert!(!KeyInterval::EMPTY.contains(KeyFraction::ZERO));
        assert!(ki(0.5, 0.5).is_empty());
        assert!(
            ki(0.6, 0.5).is_empty(),
            "inverted bounds normalize to empty"
        );
        assert!(KeyInterval::EMPTY.is_subset_of(&KeyInterval::EMPTY));
    }

    #[test]
    fn half_open_boundaries() {
        let r = ki(0.25, 0.5);
        assert!(r.contains(KeyFraction::from_f64(0.25)));
        assert!(!r.contains(KeyFraction::from_f64(0.5)));
        assert!(!r.contains(KeyFraction::from_f64(0.2)));
        assert_eq!(r.max_key(), KeyFraction::from_f64(0.5).pred());
    }

    #[test]
    fn from_key_to_end_reaches_one() {
        let r = KeyInterval::from_key_to_end(KeyFraction::from_f64(0.9));
        assert!(r.contains(KeyFraction::MAX));
        assert!(!r.contains(KeyFraction::from_f64(0.89)));
        assert_eq!(r.hi_raw(), ONE);
    }

    #[test]
    fn overlap_cases() {
        assert!(ki(0.0, 0.5).overlaps(&ki(0.4, 0.8)));
        assert!(
            !ki(0.0, 0.5).overlaps(&ki(0.5, 0.8)),
            "touching is disjoint"
        );
        assert!(!ki(0.0, 0.5).overlaps(&KeyInterval::EMPTY));
        assert!(ki(0.2, 0.3).overlaps(&ki(0.0, 1.0)));
    }

    #[test]
    fn subset_cases() {
        assert!(ki(0.2, 0.3).is_subset_of(&ki(0.2, 0.3)));
        assert!(ki(0.2, 0.3).is_subset_of(&ki(0.1, 0.4)));
        assert!(!ki(0.1, 0.4).is_subset_of(&ki(0.2, 0.3)));
        assert!(KeyInterval::EMPTY.is_subset_of(&ki(0.2, 0.3)));
    }

    #[test]
    fn intersection() {
        assert_eq!(ki(0.0, 0.5).intersect(&ki(0.3, 0.8)), ki(0.3, 0.5));
        assert!(ki(0.0, 0.3).intersect(&ki(0.5, 0.8)).is_empty());
        assert_eq!(KeyInterval::FULL.intersect(&ki(0.1, 0.2)), ki(0.1, 0.2));
    }

    #[test]
    #[should_panic(expected = "beyond key space")]
    fn from_raw_rejects_overflow() {
        KeyInterval::from_raw(0, ONE + 1);
    }

    #[test]
    #[should_panic(expected = "no max key")]
    fn max_key_of_empty_panics() {
        KeyInterval::EMPTY.max_key();
    }

    proptest! {
        #[test]
        fn intersect_is_commutative_and_subset(
            a in 0u64..u64::MAX, b in 0u64..u64::MAX,
            c in 0u64..u64::MAX, d in 0u64..u64::MAX,
        ) {
            let r1 = KeyInterval::half_open(
                KeyFraction::from_bits(a.min(b)), KeyFraction::from_bits(a.max(b)));
            let r2 = KeyInterval::half_open(
                KeyFraction::from_bits(c.min(d)), KeyFraction::from_bits(c.max(d)));
            let i = r1.intersect(&r2);
            prop_assert_eq!(i, r2.intersect(&r1));
            prop_assert!(i.is_subset_of(&r1));
            prop_assert!(i.is_subset_of(&r2));
            prop_assert_eq!(i.is_empty(), !r1.overlaps(&r2));
        }

        #[test]
        fn contains_respects_intersection(
            k in any::<u64>(), a in any::<u64>(), b in any::<u64>(),
        ) {
            let key = KeyFraction::from_bits(k);
            let r1 = KeyInterval::half_open(
                KeyFraction::from_bits(a.min(b)), KeyFraction::from_bits(a.max(b)));
            let both = KeyInterval::FULL.intersect(&r1);
            prop_assert_eq!(both.contains(key), r1.contains(key));
        }
    }
}
