//! The PHT index: lookup, insertion with splits, removal with merges.

use parking_lot::Mutex;

use lht_core::{
    retry_transient, Executor, HistoryCall, HistoryReturn, IndexStats, KeyInterval, LhtConfig,
    LhtError, MinMaxHit, OpCost,
};
use lht_dht::Dht;
use lht_id::KeyFraction;

use crate::{PhtLabel, PhtLeaf, PhtNode};

/// The result of a PHT lookup: the covering leaf and its cost.
#[derive(Clone, Debug)]
pub struct PhtLookupHit<V> {
    /// A copy of the covering leaf.
    pub leaf: PhtLeaf<V>,
    /// DHT-lookups consumed (sequential).
    pub cost: OpCost,
}

/// The result of a PHT insertion.
#[derive(Clone, Copy, Debug)]
pub struct PhtInsertOutcome {
    /// Whether the insertion triggered a leaf split.
    pub did_split: bool,
    /// Query-side cost (lookup + record put).
    pub cost: OpCost,
    /// Maintenance-side cost: for a split, 2 DHT-puts pushing *both*
    /// renamed children to other peers plus up to 2 leaf-link updates
    /// — the paper's `Ψ_PHT = θ·ı + 4·ȷ` (§8.2).
    pub maintenance: OpCost,
}

/// A Prefix Hash Tree index over a DHT substrate.
///
/// Shares [`LhtConfig`] with LHT so experiments drive both schemes
/// with identical `θ_split` and `D`. See the
/// [crate documentation](crate) for the structural differences.
///
/// Single-client: the repository drives a trie from one handle at a
/// time (the differential soak, the figure drivers), and concurrent
/// handles over one trie are unsupported. A thread-free sweep that ran
/// one whole op of a second handle inside every DHT call of a first
/// found acknowledged pairs whose final trie matches no linearization —
/// some left the trie unreadable, one brought back a removed record.
#[derive(Debug)]
pub struct PhtIndex<D, V>
where
    D: Dht<Value = PhtNode<V>>,
{
    dht: D,
    cfg: LhtConfig,
    stats: Mutex<IndexStats>,
}

impl<D, V> PhtIndex<D, V>
where
    D: Dht<Value = PhtNode<V>>,
    V: Clone,
{
    /// Creates a PHT handle over `dht`, bootstrapping the single-leaf
    /// trie (a leaf at the empty prefix) if absent.
    ///
    /// # Errors
    ///
    /// Returns an error if the substrate fails.
    pub fn new(dht: D, cfg: LhtConfig) -> Result<Self, LhtError> {
        let index = PhtIndex {
            dht,
            cfg,
            stats: Mutex::new(IndexStats::default()),
        };
        let root = PhtLabel::root();
        index.dht.update(&root.dht_key(), &mut |slot| {
            if slot.is_none() {
                *slot = Some(PhtNode::Leaf(PhtLeaf::new(root)));
            }
        })?;
        Ok(index)
    }

    /// The index configuration.
    pub fn config(&self) -> LhtConfig {
        self.cfg
    }

    /// The underlying DHT substrate.
    pub fn dht(&self) -> &D {
        &self.dht
    }

    /// Cumulative statistics (splits, merges, maintenance cost).
    pub fn stats(&self) -> IndexStats {
        *self.stats.lock()
    }

    /// Resets the cumulative statistics.
    pub fn reset_stats(&self) {
        *self.stats.lock() = IndexStats::default();
    }

    /// PHT lookup: binary search over the `D + 1` candidate prefix
    /// lengths of `key`'s bit string (`log D` DHT-gets — the paper's
    /// comparison point for LHT's `log(D/2)`, §5).
    ///
    /// # Errors
    ///
    /// [`LhtError::LookupExhausted`] if no covering leaf exists
    /// (index corruption / data loss); substrate errors propagate.
    pub fn lookup(&self, key: KeyFraction) -> Result<PhtLookupHit<V>, LhtError> {
        let mut lo = 0usize;
        let mut hi = self.cfg.max_depth;
        let mut gets = 0u64;
        while lo <= hi {
            let mid = (lo + hi) / 2;
            let label = PhtLabel::key_prefix(key, mid);
            gets += 1;
            match self.dht.get(&label.dht_key())? {
                Some(PhtNode::Leaf(leaf)) => {
                    return Ok(PhtLookupHit {
                        leaf,
                        cost: OpCost::sequential(gets),
                    });
                }
                Some(PhtNode::Internal) => lo = mid + 1,
                None => {
                    if mid == 0 {
                        break; // not even a root: unbootstrapped/corrupt
                    }
                    hi = mid - 1;
                }
            }
        }
        Err(LhtError::LookupExhausted {
            key_bits: key.bits(),
        })
    }

    /// Exact-match query: lookup plus record extraction.
    ///
    /// # Errors
    ///
    /// Propagates [`lookup`](Self::lookup) errors.
    pub fn exact_match(&self, key: KeyFraction) -> Result<(Option<V>, OpCost), LhtError> {
        self.lookup(key)
            .map(|hit| (hit.leaf.records.get(&key).cloned(), hit.cost))
    }

    /// Inserts a record: a PHT lookup plus a DHT-put towards the
    /// covering leaf. A full leaf splits first: it is re-marked
    /// internal (free, owner-local) and **both** children — with new
    /// labels, hence new peers — are pushed out, then the two
    /// neighboring leaf links are rewired. At most one split per
    /// insertion, mirroring LHT for a fair comparison.
    ///
    /// # Errors
    ///
    /// Propagates lookup errors and substrate failures.
    pub fn insert(&self, key: KeyFraction, value: V) -> Result<PhtInsertOutcome, LhtError> {
        let hit = self.lookup(key)?;
        let label = hit.leaf.label;
        let theta = self.cfg.theta_split;
        let max_depth = self.cfg.max_depth;

        let mut holder = Some(value);
        let mut split_children: Option<(PhtLeaf<V>, PhtLeaf<V>)> = None;
        let mut missing = false;
        self.dht.update(&label.dht_key(), &mut |slot| {
            let Some(node) = slot.as_mut() else {
                missing = true;
                return;
            };
            let Some(leaf) = node.as_leaf_mut() else {
                missing = true;
                return;
            };
            let Some(v) = holder.take() else { return };
            if leaf.is_full(theta) && label.len() < max_depth {
                // Split: partition records at the interval median.
                let mid = label.child(true).interval().lo_key();
                let upper = leaf.records.split_off(&mid);
                let mut left = PhtLeaf::new(label.child(false));
                left.records = std::mem::take(&mut leaf.records);
                let mut right = PhtLeaf::new(label.child(true));
                right.records = upper;
                // B+ links: children chain between the old neighbors.
                left.prev = leaf.prev;
                left.next = Some(right.label);
                right.prev = Some(left.label);
                right.next = leaf.next;
                // The new record rides along with whichever child
                // covers it.
                if right.label.covers(key) {
                    right.records.insert(key, v);
                } else {
                    left.records.insert(key, v);
                }
                // The old node becomes an internal marker, locally.
                *node = PhtNode::Internal;
                split_children = Some((left, right));
            } else {
                leaf.records.insert(key, v);
            }
        })?;
        if missing {
            return Err(LhtError::MissingBucket {
                key: label.to_string(),
            });
        }

        let cost = hit.cost + OpCost::sequential(1);
        let mut maintenance = OpCost::ZERO;
        let mut did_split = false;
        if let Some((left, right)) = split_children {
            did_split = true;
            let moved_units = (left.records.len() + 1 + right.records.len() + 1) as u64;
            let prev = left.prev;
            let next = right.next;
            let (left_label, right_label) = (left.label, right.label);
            // 2 DHT-puts: both renamed children move to other peers.
            // The old leaf is already re-marked internal, so each step
            // of this multi-write sequence rides out transient
            // delivery failures rather than strand the trie half-split
            // (delivery failures are request-path only; re-sending is
            // safe).
            let left = PhtNode::Leaf(left);
            let right = PhtNode::Leaf(right);
            retry_transient(|| self.dht.put(&left_label.dht_key(), left.clone()))?;
            retry_transient(|| self.dht.put(&right_label.dht_key(), right.clone()))?;
            let mut lookups = 2u64;
            // 2 link updates on the neighboring leaves.
            if let Some(p) = prev {
                retry_transient(|| {
                    self.dht.update(&p.dht_key(), &mut |slot| {
                        if let Some(leaf) = slot.as_mut().and_then(|n| n.as_leaf_mut()) {
                            leaf.next = Some(left_label);
                        }
                    })
                })?;
                lookups += 1;
            }
            if let Some(n) = next {
                retry_transient(|| {
                    self.dht.update(&n.dht_key(), &mut |slot| {
                        if let Some(leaf) = slot.as_mut().and_then(|n| n.as_leaf_mut()) {
                            leaf.prev = Some(right_label);
                        }
                    })
                })?;
                lookups += 1;
            }
            maintenance = OpCost::sequential(lookups);
            let mut stats = self.stats.lock();
            stats.splits += 1;
            stats.maintenance_lookups += lookups;
            stats.records_moved += moved_units;
        }
        self.stats.lock().inserts += 1;
        Ok(PhtInsertOutcome {
            did_split,
            cost,
            maintenance,
        })
    }

    /// Removes the record with key `key`, merging sibling leaves back
    /// into their parent when their combined records fit in one leaf
    /// (the dual of the split, with the dual link rewiring).
    ///
    /// Returns the removed value, whether a merge happened, and the
    /// query / maintenance costs.
    ///
    /// # Errors
    ///
    /// Propagates lookup errors and substrate failures.
    #[allow(clippy::type_complexity)]
    pub fn remove(&self, key: KeyFraction) -> Result<(Option<V>, bool, OpCost, OpCost), LhtError> {
        let hit = self.lookup(key)?;
        let label = hit.leaf.label;
        let mut removed = None;
        let mut post: Option<PhtLeaf<V>> = None;
        self.dht.update(&label.dht_key(), &mut |slot| {
            if let Some(leaf) = slot.as_mut().and_then(|n| n.as_leaf_mut()) {
                removed = leaf.records.remove(&key);
                post = Some(leaf.clone());
            }
        })?;
        let cost = hit.cost + OpCost::sequential(1);
        self.stats.lock().removes += 1;
        let Some(leaf) = post else {
            return Err(LhtError::MissingBucket {
                key: label.to_string(),
            });
        };
        if removed.is_none() {
            return Ok((None, false, cost, OpCost::ZERO));
        }

        let capacity = self.cfg.bucket_capacity();
        let mut maintenance = OpCost::ZERO;
        let mut did_merge = false;
        if !label.is_empty() && leaf.records.len() <= capacity / 2 {
            let (merged, mcost) = self.try_merge(&leaf)?;
            did_merge = merged;
            maintenance = mcost;
        }
        Ok((removed, did_merge, cost, maintenance))
    }

    /// Min query: a PHT lookup of key `0` reaches the leftmost leaf,
    /// whose smallest record is the minimum. Empty leaves (possible
    /// after deletions) are skipped by walking the B+ `next` links —
    /// one more DHT-get per hop. PHT has no constant-lookup extreme
    /// queries; this costs a full `log D` lookup — LHT's Theorem 3
    /// comparison point.
    ///
    /// # Errors
    ///
    /// Propagates [`lookup`](Self::lookup) errors and substrate
    /// failures; [`LhtError::MissingBucket`] if a leaf link dangles.
    pub fn min(&self) -> Result<MinMaxHit<V>, LhtError> {
        self.extreme(true)
    }

    /// Max query: the mirror of [`min`](Self::min) — a lookup of the
    /// largest key reaches the rightmost leaf and empty leaves are
    /// skipped through `prev` links.
    ///
    /// # Errors
    ///
    /// Same contract as [`min`](Self::min).
    pub fn max(&self) -> Result<MinMaxHit<V>, LhtError> {
        self.extreme(false)
    }

    fn extreme(&self, smallest: bool) -> Result<MinMaxHit<V>, LhtError> {
        let edge_key = if smallest {
            KeyFraction::ZERO
        } else {
            KeyFraction::MAX
        };
        let hit = self.lookup(edge_key)?;
        let mut lookups = hit.cost.dht_lookups;
        let mut leaf = hit.leaf;
        loop {
            let record = if smallest {
                leaf.records.iter().next()
            } else {
                leaf.records.iter().next_back()
            };
            if let Some((k, v)) = record {
                return Ok(MinMaxHit {
                    value: Some((*k, v.clone())),
                    cost: OpCost::sequential(lookups),
                });
            }
            // Empty leaf: continue along the chain towards the middle
            // of the key space.
            let step = if smallest { leaf.next } else { leaf.prev };
            let Some(next_label) = step else {
                // Ran off the far end: the index holds no records.
                return Ok(MinMaxHit {
                    value: None,
                    cost: OpCost::sequential(lookups),
                });
            };
            lookups += 1;
            leaf = match self.dht.get(&next_label.dht_key())? {
                Some(PhtNode::Leaf(l)) => l,
                _ => {
                    return Err(LhtError::MissingBucket {
                        key: next_label.to_string(),
                    })
                }
            };
        }
    }

    fn try_merge(&self, leaf: &PhtLeaf<V>) -> Result<(bool, OpCost), LhtError> {
        let label = leaf.label;
        let Some(sibling_label) = label.sibling() else {
            return Ok((false, OpCost::ZERO));
        };
        let parent = label.parent().expect("sibling implies parent");
        // Probe the sibling: it must be a leaf and the union must fit.
        let mut lookups = 1u64;
        let sibling = match self.dht.get(&sibling_label.dht_key())? {
            Some(PhtNode::Leaf(s)) => s,
            _ => return Ok((false, OpCost::sequential(lookups))),
        };
        if leaf.records.len() + sibling.records.len() > self.cfg.bucket_capacity() {
            return Ok((false, OpCost::sequential(lookups)));
        }

        let (left, right) = if label.bits().last() == Some(false) {
            (leaf.clone(), sibling)
        } else {
            (sibling, leaf.clone())
        };
        let mut merged = PhtLeaf::new(parent);
        merged.records = left.records;
        merged.records.extend(right.records);
        merged.prev = left.prev;
        merged.next = right.next;
        let moved_units = merged.records.len() as u64 + 1;

        // Parent becomes the merged leaf (1), children removed (2),
        // neighbor links rewired (≤2). Once the parent flips to a
        // leaf the multi-write sequence must complete, so every step
        // rides out transient delivery failures (request-path only;
        // re-sending is safe).
        let merged_clone_src = merged.clone();
        retry_transient(|| {
            self.dht.update(&parent.dht_key(), &mut |slot| {
                *slot = Some(PhtNode::Leaf(merged_clone_src.clone()));
            })
        })?;
        retry_transient(|| self.dht.remove(&label.dht_key()))?;
        retry_transient(|| self.dht.remove(&sibling_label.dht_key()))?;
        lookups += 3;
        if let Some(p) = merged.prev {
            retry_transient(|| {
                self.dht.update(&p.dht_key(), &mut |slot| {
                    if let Some(l) = slot.as_mut().and_then(|n| n.as_leaf_mut()) {
                        l.next = Some(parent);
                    }
                })
            })?;
            lookups += 1;
        }
        if let Some(n) = merged.next {
            retry_transient(|| {
                self.dht.update(&n.dht_key(), &mut |slot| {
                    if let Some(l) = slot.as_mut().and_then(|n| n.as_leaf_mut()) {
                        l.prev = Some(parent);
                    }
                })
            })?;
            lookups += 1;
        }
        let mut stats = self.stats.lock();
        stats.merges += 1;
        stats.maintenance_lookups += lookups;
        stats.records_moved += moved_units;
        Ok((true, OpCost::sequential(lookups)))
    }
}

/// PHT answers every call; a range is
/// [`range_sequential`](PhtIndex::range_sequential), the leaf-chain
/// walk the paper's comparison prices.
impl<D, V> Executor<V> for PhtIndex<D, V>
where
    D: Dht<Value = PhtNode<V>>,
    V: Clone,
{
    fn execute(&self, call: &HistoryCall<V>) -> Result<(HistoryReturn<V>, OpCost), LhtError> {
        Ok(match call {
            HistoryCall::Insert { key, value } => {
                let out = self.insert(KeyFraction::from_bits(*key), value.clone())?;
                (HistoryReturn::Inserted, out.cost + out.maintenance)
            }
            HistoryCall::Remove { key } => {
                let (prior, _, cost, maintenance) = self.remove(KeyFraction::from_bits(*key))?;
                (HistoryReturn::Removed { prior }, cost + maintenance)
            }
            HistoryCall::Get { key } => {
                let (value, cost) = self.exact_match(KeyFraction::from_bits(*key))?;
                (HistoryReturn::Value { value }, cost)
            }
            HistoryCall::Range { lo, hi } => {
                let out = self.range_sequential(KeyInterval::from_bits(*lo, *hi))?;
                (HistoryReturn::records(out.records), out.cost.into())
            }
            HistoryCall::Min => {
                let hit = self.min()?;
                (HistoryReturn::extreme(hit.value), hit.cost)
            }
            HistoryCall::Max => {
                let hit = self.max()?;
                (HistoryReturn::extreme(hit.value), hit.cost)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lht_dht::{DhtKey, DirectDht};

    impl<D, V> PhtIndex<D, V>
    where
        D: Dht<Value = PhtNode<V>>,
        V: Clone,
    {
        /// PHT's *linear* lookup variant (the original PHT announcement's
        /// simpler algorithm): walk down from the root one prefix bit at a
        /// time until the leaf is reached. Costs `depth + 1` sequential
        /// DHT-gets — worse than the binary search on average, but
        /// latency-proportional to the *actual* leaf depth rather than to
        /// `log D`, so it wins on very shallow trees. Kept as the
        /// reference the binary search is checked against.
        ///
        /// # Errors
        ///
        /// Same contract as [`lookup`](Self::lookup).
        fn lookup_linear(&self, key: KeyFraction) -> Result<PhtLookupHit<V>, LhtError> {
            let mut gets = 0u64;
            for depth in 0..=self.cfg.max_depth {
                let label = PhtLabel::key_prefix(key, depth);
                gets += 1;
                match self.dht.get(&label.dht_key())? {
                    Some(PhtNode::Leaf(leaf)) => {
                        return Ok(PhtLookupHit {
                            leaf,
                            cost: OpCost::sequential(gets),
                        });
                    }
                    Some(PhtNode::Internal) => continue,
                    None => break, // hole in the trie: corrupt
                }
            }
            Err(LhtError::LookupExhausted {
                key_bits: key.bits(),
            })
        }
    }

    fn kf(x: f64) -> KeyFraction {
        KeyFraction::from_f64(x)
    }

    fn new_index(
        dht: &DirectDht<PhtNode<u32>>,
        theta: usize,
    ) -> PhtIndex<&DirectDht<PhtNode<u32>>, u32> {
        PhtIndex::new(dht, LhtConfig::new(theta, 20)).unwrap()
    }

    #[test]
    fn bootstrap_creates_root_leaf() {
        let dht = DirectDht::new();
        let _ix = new_index(&dht, 10);
        dht.peek(&DhtKey::from("^"), |n| {
            assert!(matches!(n, Some(PhtNode::Leaf(_))));
        });
    }

    #[test]
    fn insert_then_exact_match() {
        let dht = DirectDht::new();
        let ix = new_index(&dht, 4);
        for i in 0..100 {
            ix.insert(kf((i as f64 + 0.5) / 100.0), i).unwrap();
        }
        for i in 0..100 {
            let (v, _) = ix.exact_match(kf((i as f64 + 0.5) / 100.0)).unwrap();
            assert_eq!(v, Some(i));
        }
        assert_eq!(ix.exact_match(kf(0.99999)).unwrap().0, None);
    }

    #[test]
    fn split_costs_match_psi_pht() {
        let dht = DirectDht::new();
        let ix = new_index(&dht, 4);
        let mut interior_split_seen = false;
        for i in 0..64 {
            let out = ix.insert(kf((i as f64 + 0.5) / 64.0), i).unwrap();
            if out.did_split && out.maintenance.dht_lookups == 4 {
                interior_split_seen = true;
            }
            if out.did_split {
                // 2 child puts + up to 2 link updates.
                assert!(
                    (2..=4).contains(&out.maintenance.dht_lookups),
                    "split cost {}",
                    out.maintenance.dht_lookups
                );
            }
        }
        assert!(
            interior_split_seen,
            "interior splits must pay the full 4 lookups of Ψ_PHT"
        );
        let stats = ix.stats();
        assert!(stats.splits > 4);
        // Moved units per split ≈ θ + 1 (both children move).
        let per_split = stats.records_moved as f64 / stats.splits as f64;
        assert!(
            per_split >= 4.0,
            "PHT moves the whole bucket per split, got {per_split}"
        );
    }

    #[test]
    fn leaf_links_form_a_chain_after_growth() {
        let dht = DirectDht::new();
        let ix = new_index(&dht, 4);
        for i in 0..128 {
            ix.insert(kf((i as f64 + 0.5) / 128.0), i).unwrap();
        }
        // Walk the chain from the leftmost leaf; it must visit every
        // leaf exactly once, in interval order, ending at the right.
        let mut cur = ix.lookup(KeyFraction::ZERO).unwrap().leaf;
        assert_eq!(cur.prev, None, "leftmost leaf has no prev");
        let mut seen = 1usize;
        let mut cursor_hi = cur.label.interval().hi_raw();
        while let Some(next) = cur.next {
            let node = dht.peek(&next.dht_key(), |n| n.cloned()).unwrap();
            let leaf = node.as_leaf().expect("links point at leaves").clone();
            assert_eq!(
                leaf.label.interval().lo_raw(),
                cursor_hi,
                "chain must be gap-free"
            );
            cursor_hi = leaf.label.interval().hi_raw();
            cur = leaf;
            seen += 1;
        }
        assert_eq!(cursor_hi, 1u128 << 64, "chain reaches the top of key space");
        assert!(seen > 16, "expected many leaves, saw {seen}");
    }

    #[test]
    fn lookup_cost_is_log_d() {
        let dht = DirectDht::new();
        let ix = new_index(&dht, 4);
        for i in 0..512 {
            ix.insert(kf((i as f64 + 0.5) / 512.0), i).unwrap();
        }
        // D = 20: binary search over 21 lengths → ≤ 5 probes.
        for i in (0..512).step_by(41) {
            let hit = ix.lookup(kf((i as f64 + 0.5) / 512.0)).unwrap();
            assert!(hit.cost.dht_lookups <= 5);
        }
    }

    #[test]
    fn linear_lookup_agrees_with_binary_search() {
        let dht = DirectDht::new();
        let ix = new_index(&dht, 4);
        for i in 0..256 {
            ix.insert(kf((i as f64 + 0.5) / 256.0), i).unwrap();
        }
        for i in (0..256).step_by(19) {
            let k = kf((i as f64 + 0.5) / 256.0);
            let bin = ix.lookup(k).unwrap();
            let lin = ix.lookup_linear(k).unwrap();
            assert_eq!(bin.leaf.label, lin.leaf.label);
            // Linear pays depth + 1 gets.
            assert_eq!(lin.cost.dht_lookups, lin.leaf.label.len() as u64 + 1);
        }
    }

    #[test]
    fn linear_lookup_wins_on_shallow_trees() {
        let dht = DirectDht::new();
        let ix = new_index(&dht, 100);
        for i in 0..20 {
            ix.insert(kf((i as f64 + 0.5) / 20.0), i).unwrap();
        }
        // Single-leaf trie: linear finds the root leaf in 1 get;
        // binary search needs its full log D probes.
        let k = kf(0.3);
        assert_eq!(ix.lookup_linear(k).unwrap().cost.dht_lookups, 1);
        assert!(ix.lookup(k).unwrap().cost.dht_lookups > 1);
    }

    #[test]
    fn remove_and_merge_preserve_data() {
        let dht = DirectDht::new();
        let ix = new_index(&dht, 4);
        let n = 64;
        for i in 0..n {
            ix.insert(kf((i as f64 + 0.5) / n as f64), i).unwrap();
        }
        for i in 0..n {
            if i % 4 != 0 {
                let (v, ..) = ix.remove(kf((i as f64 + 0.5) / n as f64)).unwrap();
                assert_eq!(v, Some(i));
            }
        }
        assert!(ix.stats().merges > 0);
        for i in (0..n).step_by(4) {
            assert_eq!(
                ix.exact_match(kf((i as f64 + 0.5) / n as f64)).unwrap().0,
                Some(i)
            );
        }
    }

    #[test]
    fn min_max_find_the_extremes() {
        let dht = DirectDht::new();
        let ix = new_index(&dht, 4);
        assert_eq!(ix.min().unwrap().value, None, "empty index has no min");
        assert_eq!(ix.max().unwrap().value, None, "empty index has no max");
        for i in 0..128 {
            ix.insert(kf((i as f64 + 0.5) / 128.0), i).unwrap();
        }
        let (min_k, min_v) = ix.min().unwrap().value.unwrap();
        assert_eq!((min_k, min_v), (kf(0.5 / 128.0), 0));
        let (max_k, max_v) = ix.max().unwrap().value.unwrap();
        assert_eq!((max_k, max_v), (kf(127.5 / 128.0), 127));
    }

    #[test]
    fn min_max_skip_emptied_leaves() {
        let dht = DirectDht::new();
        let ix = new_index(&dht, 4);
        for i in 0..64 {
            ix.insert(kf((i as f64 + 0.5) / 64.0), i).unwrap();
        }
        // Hollow out both edges of the key space; the walks must skip
        // any leaves deletion emptied (merges may or may not have
        // collapsed them) and land on the surviving middle records.
        for i in (0..20).chain(44..64) {
            ix.remove(kf((i as f64 + 0.5) / 64.0)).unwrap();
        }
        assert_eq!(ix.min().unwrap().value.unwrap().1, 20);
        assert_eq!(ix.max().unwrap().value.unwrap().1, 43);
    }

    #[test]
    fn remove_missing_key_is_cheap_noop() {
        let dht = DirectDht::new();
        let ix = new_index(&dht, 4);
        ix.insert(kf(0.5), 1).unwrap();
        let (v, merged, _, m) = ix.remove(kf(0.25)).unwrap();
        assert_eq!(v, None);
        assert!(!merged);
        assert_eq!(m, OpCost::ZERO);
    }
}
