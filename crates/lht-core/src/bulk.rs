//! Bulk loading — an ablation against incremental insertion.
//!
//! The paper grows the tree one insertion at a time (§4); when a whole
//! dataset is known up front, a client can instead build the space
//! partition tree *locally* and ship each leaf bucket with a single
//! DHT-put. This module implements that bulk path so the experiment
//! harness can quantify exactly how much of the incremental
//! maintenance cost (Fig. 7) is attributable to distributed growth —
//! an ablation of the design choice, not a replacement for it (bulk
//! loading requires a fresh index and a complete dataset).

use lht_dht::{Dht, DhtKey};
use lht_id::KeyFraction;

use crate::naming::name;
use crate::range::sort_keep_last;
use crate::{Label, LeafBucket, LhtError, LhtIndex, OpCost};

/// The result of a bulk load.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BulkLoadOutcome {
    /// Number of leaf buckets created (= DHT-puts issued beyond the
    /// one emptiness check).
    pub leaves: u64,
    /// Records loaded.
    pub records: u64,
    /// Total cost: one emptiness check plus one DHT-put per leaf. The
    /// puts are independent and ship as a single batched round, so
    /// `cost.steps` is 2 regardless of leaf count.
    pub cost: OpCost,
}

impl<D, V> LhtIndex<D, V>
where
    D: Dht<Value = LeafBucket<V>>,
    V: Clone,
{
    /// Bulk-loads a dataset into a **fresh, empty** index: the space
    /// partition tree is computed locally (same split rule as
    /// Algorithm 1: median partition until a leaf holds at most
    /// `θ_split − 1` records or the depth limit is reached) and every
    /// leaf bucket is shipped with one DHT-put to its name.
    ///
    /// Compared with inserting the same records one by one this skips
    /// all per-insert lookups *and* all split movement — the
    /// `lht-exp bulk-load` experiment measures the gap.
    ///
    /// Records with duplicate keys keep the last value.
    ///
    /// # Errors
    ///
    /// [`LhtError::MissingBucket`] if the index is missing its root
    /// bucket, [`LhtError::BadLabel`] never, and a
    /// [`LhtError::Dht`] on substrate failure. Returns an error if
    /// the index already contains records (bulk loading cannot merge
    /// into a populated tree).
    pub fn bulk_load(
        &self,
        records: impl IntoIterator<Item = (KeyFraction, V)>,
    ) -> Result<BulkLoadOutcome, LhtError> {
        // Fresh-index check: the root bucket must be the sole, empty
        // leaf (1 DHT-get).
        let root_key = Label::virtual_root().dht_key();
        match self.dht().get(&root_key)? {
            Some(b) if b.label() == Label::root() && b.is_empty() => {}
            Some(_) | None => {
                return Err(LhtError::MissingBucket {
                    key: "# (bulk_load requires a fresh empty index)".to_string(),
                })
            }
        }

        let mut pairs: Vec<(KeyFraction, V)> = records.into_iter().collect();
        sort_keep_last(&mut pairs);
        let n = pairs.len() as u64;

        // Plan the tree over the sorted slice, then cut the vector into
        // the planned leaves front to back: each record moves once.
        let mut plan: Vec<(Label, usize)> = Vec::new();
        build_tree(
            Label::root(),
            &pairs,
            self.config().bucket_capacity(),
            self.config().max_depth,
            &mut plan,
        );
        // Ship every leaf in one batched round: the puts target
        // distinct names (Theorem 1), so no ordering between them is
        // needed.
        let mut sorted = pairs.into_iter();
        let entries: Vec<(DhtKey, LeafBucket<V>)> = plan
            .into_iter()
            .map(|(label, len)| {
                let records = sorted.by_ref().take(len).collect();
                let bucket = LeafBucket::from_sorted(label, records);
                (name(&label).dht_key(), bucket)
            })
            .collect();
        let leaves = entries.len() as u64;
        for shipped in self.dht().multi_put(entries) {
            shipped?;
        }
        Ok(BulkLoadOutcome {
            leaves,
            records: n,
            cost: OpCost {
                dht_lookups: leaves + 1,
                steps: 2,
            },
        })
    }
}

/// Recursively partitions `records` (sorted by key, all inside
/// `label`'s interval) into leaves, keeping the partition tree's
/// fullness: an overfull node always produces *both* children. Emits
/// each leaf's label and record count in key order; the leaf's records
/// are the next `count` of the sorted input.
fn build_tree<V>(
    label: Label,
    records: &[(KeyFraction, V)],
    capacity: usize,
    max_depth: usize,
    out: &mut Vec<(Label, usize)>,
) {
    if records.len() <= capacity || label.len() >= max_depth {
        out.push((label, records.len()));
        return;
    }
    let mid = label.child(true).interval().lo_key();
    let (lower, upper) = records.split_at(records.partition_point(|(k, _)| *k < mid));
    build_tree(label.child(false), lower, capacity, max_depth, out);
    build_tree(label.child(true), upper, capacity, max_depth, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{audit, KeyInterval, LhtConfig};
    use lht_dht::DirectDht;

    fn kf(x: f64) -> KeyFraction {
        KeyFraction::from_f64(x)
    }

    #[test]
    fn bulk_load_equals_incremental_answers() {
        let cfg = LhtConfig::new(8, 20);
        let keys: Vec<KeyFraction> = (0..500).map(|i| kf((i as f64 + 0.5) / 500.0)).collect();

        let bulk_dht = DirectDht::new();
        let bulk = LhtIndex::new(&bulk_dht, cfg).unwrap();
        let outcome = bulk
            .bulk_load(keys.iter().enumerate().map(|(i, k)| (*k, i as u32)))
            .unwrap();
        assert_eq!(outcome.records, 500);

        let inc_dht = DirectDht::new();
        let inc = LhtIndex::new(&inc_dht, cfg).unwrap();
        for (i, k) in keys.iter().enumerate() {
            inc.insert(*k, i as u32).unwrap();
        }

        // Identical answers on every query type.
        for (i, k) in keys.iter().enumerate().step_by(37) {
            assert_eq!(bulk.exact_match(*k).unwrap().value, Some(i as u32));
        }
        let q = KeyInterval::half_open(kf(0.2), kf(0.7));
        let a: Vec<u32> = bulk
            .range(q)
            .unwrap()
            .records
            .iter()
            .map(|(_, v)| *v)
            .collect();
        let b: Vec<u32> = inc
            .range(q)
            .unwrap()
            .records
            .iter()
            .map(|(_, v)| *v)
            .collect();
        assert_eq!(a, b);
        assert_eq!(bulk.min().unwrap().value, inc.min().unwrap().value);
        assert_eq!(bulk.max().unwrap().value, inc.max().unwrap().value);
    }

    #[test]
    fn bulk_tree_is_structurally_consistent() {
        let cfg = LhtConfig::new(8, 20);
        let dht = DirectDht::new();
        let ix = LhtIndex::new(&dht, cfg).unwrap();
        ix.bulk_load((0..1000u32).map(|i| (kf((i as f64 + 0.5) / 1000.0), i)))
            .unwrap();
        assert!(audit::check_tree(&dht, cfg).is_empty());
        assert_eq!(audit::total_records(&dht), 1000);
    }

    #[test]
    fn bulk_load_is_much_cheaper_than_incremental() {
        let cfg = LhtConfig::new(8, 20);
        let keys: Vec<KeyFraction> = (0..2000).map(|i| kf((i as f64 + 0.5) / 2000.0)).collect();

        let bulk_dht = DirectDht::new();
        let bulk = LhtIndex::new(&bulk_dht, cfg).unwrap();
        let outcome = bulk.bulk_load(keys.iter().map(|k| (*k, ()))).unwrap();

        let inc_dht = DirectDht::new();
        let inc = LhtIndex::new(&inc_dht, cfg).unwrap();
        inc.dht().reset_stats();
        for k in &keys {
            inc.insert(*k, ()).unwrap();
        }
        let incremental_lookups = lht_dht::Dht::stats(inc.dht()).lookups();
        assert!(
            outcome.cost.dht_lookups * 5 < incremental_lookups,
            "bulk {} vs incremental {}",
            outcome.cost.dht_lookups,
            incremental_lookups
        );
    }

    #[test]
    fn bulk_load_rejects_populated_index() {
        let cfg = LhtConfig::new(8, 20);
        let dht = DirectDht::new();
        let ix = LhtIndex::new(&dht, cfg).unwrap();
        ix.insert(kf(0.5), ()).unwrap();
        let err = ix.bulk_load([(kf(0.1), ())]).unwrap_err();
        assert!(matches!(err, LhtError::MissingBucket { .. }));
    }

    #[test]
    fn bulk_load_of_empty_dataset_keeps_root() {
        let cfg = LhtConfig::new(8, 20);
        let dht = DirectDht::new();
        let ix: LhtIndex<_, ()> = LhtIndex::new(&dht, cfg).unwrap();
        let outcome = ix.bulk_load(std::iter::empty()).unwrap();
        assert_eq!(outcome.leaves, 1);
        assert!(audit::check_tree(&dht, cfg).is_empty());
    }

    #[test]
    fn skewed_data_respects_depth_cap() {
        let cfg = LhtConfig::new(4, 6);
        let dht = DirectDht::new();
        let ix = LhtIndex::new(&dht, cfg).unwrap();
        // All keys in a sliver: depth would explode without the cap.
        ix.bulk_load((0..100u64).map(|i| (KeyFraction::from_bits(i), i)))
            .unwrap();
        assert!(audit::check_tree(&dht, cfg).is_empty());
        for l in audit::leaf_labels(&dht) {
            assert!(l.len() <= 6);
        }
        assert_eq!(
            ix.exact_match(KeyFraction::from_bits(42)).unwrap().value,
            Some(42)
        );
    }

    #[test]
    fn shuffled_input_with_duplicate_keys_keeps_the_last_value() {
        use rand::{rngs::StdRng, seq::SliceRandom, Rng, SeedableRng};
        use std::collections::BTreeMap;

        let cfg = LhtConfig::new(8, 20);
        let mut rng = StdRng::seed_from_u64(15);
        // 600 records over 400 distinct keys, in random order.
        let mut input: Vec<(KeyFraction, u32)> = (0..600u32)
            .map(|i| (KeyFraction::from_bits(rng.gen_range(0..400u64) << 54), i))
            .collect();
        input.shuffle(&mut rng);
        let oracle: BTreeMap<_, _> = input.iter().copied().collect();
        let expect: Vec<(KeyFraction, u32)> = oracle.into_iter().collect();
        assert!(expect.len() < input.len(), "the input has duplicate keys");

        let bulk_dht = DirectDht::new();
        let bulk = LhtIndex::new(&bulk_dht, cfg).unwrap();
        let outcome = bulk.bulk_load(input.iter().copied()).unwrap();
        assert_eq!(outcome.records, expect.len() as u64);

        let inc_dht = DirectDht::new();
        let inc = LhtIndex::new(&inc_dht, cfg).unwrap();
        for (k, v) in &input {
            inc.insert(*k, *v).unwrap();
        }

        let bulk_entries = audit::tree_entries(&bulk_dht);
        let inc_entries = audit::tree_entries(&inc_dht);
        assert!(audit::check_entries(bulk_entries.clone(), cfg).is_empty());
        assert!(audit::check_entries(inc_entries.clone(), cfg).is_empty());
        assert_eq!(audit::entry_records(&bulk_entries), expect);
        assert_eq!(audit::entry_records(&inc_entries), expect);
        assert_eq!(bulk.range(KeyInterval::FULL).unwrap().records, expect);
    }
}
