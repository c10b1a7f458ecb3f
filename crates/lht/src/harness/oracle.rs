//! The shadow oracle: a local, trivially-correct reference index.
//!
//! Every mutation a differential run applies to the distributed
//! index is mirrored here; every query answer is diffed against the
//! oracle's. The oracle is a plain [`BTreeMap`] over raw key bits, so
//! its semantics — upsert on insert, half-open ranges, first/last for
//! min/max — are beyond suspicion and cheap to audit by eye.

use std::collections::BTreeMap;

use lht_id::KeyFraction;

/// A reference index over `(u64 key bits, u32 value)` records with
/// the exact operation semantics of [`LhtIndex`](crate::LhtIndex).
#[derive(Clone, Debug, Default)]
pub struct ShadowOracle {
    map: BTreeMap<u64, u32>,
}

impl ShadowOracle {
    /// An empty oracle.
    pub fn new() -> ShadowOracle {
        ShadowOracle::default()
    }

    /// Upserts a record (the index's insert semantics).
    pub fn insert(&mut self, key: u64, value: u32) {
        self.map.insert(key, value);
    }

    /// Removes a record, returning the stored value if present.
    pub fn remove(&mut self, key: u64) -> Option<u32> {
        self.map.remove(&key)
    }

    /// Exact-match lookup.
    pub fn get(&self, key: u64) -> Option<u32> {
        self.map.get(&key).copied()
    }

    /// All records with key in the half-open range `[lo, hi)`, in key
    /// order.
    pub fn range(&self, lo: u64, hi: u64) -> Vec<(u64, u32)> {
        self.map.range(lo..hi).map(|(k, v)| (*k, *v)).collect()
    }

    /// All records with key in `[lo, 2^64)` — the closed-at-the-top
    /// range [`KeyInterval::from_key_to_end`](crate::KeyInterval::from_key_to_end)
    /// queries.
    pub fn range_to_end(&self, lo: u64) -> Vec<(u64, u32)> {
        self.map.range(lo..).map(|(k, v)| (*k, *v)).collect()
    }

    /// The smallest-keyed record.
    pub fn min(&self) -> Option<(u64, u32)> {
        self.map.iter().next().map(|(k, v)| (*k, *v))
    }

    /// The largest-keyed record.
    pub fn max(&self) -> Option<(u64, u32)> {
        self.map.iter().next_back().map(|(k, v)| (*k, *v))
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the oracle holds no records.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The full contents as `(KeyFraction, value)` pairs in key order
    /// — directly comparable with a materialized index snapshot.
    pub fn snapshot(&self) -> Vec<(KeyFraction, u32)> {
        self.map
            .iter()
            .map(|(k, v)| (KeyFraction::from_bits(*k), *v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn semantics_match_the_contract() {
        let mut o = ShadowOracle::new();
        assert!(o.is_empty());
        o.insert(10, 1);
        o.insert(10, 2); // upsert
        o.insert(20, 3);
        o.insert(u64::MAX, 4);
        assert_eq!(o.len(), 3);
        assert_eq!(o.get(10), Some(2));
        assert_eq!(o.range(10, 20), vec![(10, 2)]);
        assert_eq!(o.range(10, 10), vec![]);
        assert_eq!(o.range_to_end(20), vec![(20, 3), (u64::MAX, 4)]);
        assert_eq!(o.min(), Some((10, 2)));
        assert_eq!(o.max(), Some((u64::MAX, 4)));
        assert_eq!(o.remove(10), Some(2));
        assert_eq!(o.remove(10), None);
    }
}
