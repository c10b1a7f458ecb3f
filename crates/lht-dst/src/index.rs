//! The DST index: ancestor-replicated insertion, canonical-cover
//! range queries, load stripping.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use lht_core::{
    Executor, HistoryCall, HistoryReturn, IndexStats, KeyInterval, LhtError, OpCost, RangeCost,
};
use lht_dht::Dht;
use lht_id::KeyFraction;

use crate::{canonical_cover, Segment};

/// Configuration of a [`DstIndex`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DstConfig {
    /// Tree height: leaves live at this level. Range resolution is
    /// `2^-height`.
    pub height: u8,
    /// Load-stripping capacity: an interior node saturates once it
    /// holds this many keys and permanently delegates to its
    /// children. Leaves are unbounded so answers stay exact.
    pub node_capacity: usize,
}

impl Default for DstConfig {
    /// Height 12 (resolution 1/4096) with capacity 100, matching the
    /// θ_split the LHT experiments use.
    fn default() -> Self {
        DstConfig {
            height: 12,
            node_capacity: 100,
        }
    }
}

impl DstConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `height` is 0 or exceeds 32, or `node_capacity` is 0.
    pub fn new(height: u8, node_capacity: usize) -> DstConfig {
        assert!((1..=32).contains(&height), "height must be in 1..=32");
        assert!(node_capacity > 0, "node capacity must be positive");
        DstConfig {
            height,
            node_capacity,
        }
    }
}

/// One segment-tree node as stored in the DHT.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DstNode<V> {
    records: BTreeMap<KeyFraction, V>,
    /// Once saturated, the node's record set is frozen-incomplete and
    /// queries must descend to the children.
    saturated: bool,
}

impl<V> Default for DstNode<V> {
    fn default() -> Self {
        DstNode {
            records: BTreeMap::new(),
            saturated: false,
        }
    }
}

impl<V> DstNode<V> {
    /// The records stored at this node. A leaf's set is exact; an
    /// ancestor holds a capacity-bounded replica that may be stale
    /// once saturated (queries descend past it, so staleness is
    /// invisible — external auditors are the only readers that care).
    pub fn records(&self) -> &BTreeMap<KeyFraction, V> {
        &self.records
    }
}

/// The result of a DST range query.
#[derive(Clone, Debug)]
pub struct DstRangeResult<V> {
    /// Matching records in key order.
    pub records: Vec<(KeyFraction, V)>,
    /// Query cost. With no saturated nodes the latency is a single
    /// parallel step — DST's selling point — and bandwidth equals the
    /// canonical cover size (≤ 2·height).
    pub cost: RangeCost,
}

/// A Distributed Segment Tree index over a DHT substrate.
///
/// See the [crate documentation](crate) for the scheme and its role
/// as a baseline.
#[derive(Debug)]
pub struct DstIndex<D, V>
where
    D: Dht<Value = DstNode<V>>,
{
    dht: D,
    cfg: DstConfig,
    stats: Mutex<IndexStats>,
}

impl<D, V> DstIndex<D, V>
where
    D: Dht<Value = DstNode<V>>,
    V: Clone,
{
    /// Creates a DST handle over `dht`. DST needs no bootstrap
    /// entry: nodes materialize on first insertion along a path.
    ///
    /// # Errors
    ///
    /// Currently infallible; `Result` is kept for interface symmetry
    /// with the other indexes.
    pub fn new(dht: D, cfg: DstConfig) -> Result<Self, LhtError> {
        Ok(DstIndex {
            dht,
            cfg,
            stats: Mutex::new(IndexStats::default()),
        })
    }

    /// The index configuration.
    pub fn config(&self) -> DstConfig {
        self.cfg
    }

    /// The underlying substrate.
    pub fn dht(&self) -> &D {
        &self.dht
    }

    /// Cumulative statistics. For DST, `records_moved` counts the
    /// ancestor replicas written (the §2 "replication" cost) and
    /// `maintenance_lookups` the per-insert ancestor puts beyond the
    /// leaf's own.
    pub fn stats(&self) -> IndexStats {
        *self.stats.lock()
    }

    /// Inserts a record: **one DHT-put per tree level**, leaf to
    /// root, each applied at the owner (saturated interior nodes
    /// decline the copy; the leaf always accepts). This is the
    /// insertion inefficiency the LHT paper attributes to DST (§2).
    ///
    /// # Errors
    ///
    /// Propagates substrate failures.
    pub fn insert(&self, key: KeyFraction, value: V) -> Result<OpCost, LhtError> {
        let capacity = self.cfg.node_capacity;
        let mut lookups = 0u64;
        let mut replicas_written = 0u64;
        let mut seg = Segment::containing(key, self.cfg.height);
        loop {
            let is_leaf = seg.level == self.cfg.height;
            let mut holder = Some(value.clone());
            self.dht.update(&seg.dht_key(), &mut |slot| {
                let node = slot.get_or_insert_with(DstNode::default);
                let Some(v) = holder.take() else { return };
                if is_leaf || (!node.saturated && node.records.len() < capacity) {
                    node.records.insert(key, v);
                } else {
                    node.saturated = true;
                }
            })?;
            lookups += 1;
            if !is_leaf {
                replicas_written += 1;
            }
            match seg.parent() {
                Some(p) => seg = p,
                None => break,
            }
        }
        let mut stats = self.stats.lock();
        stats.inserts += 1;
        stats.maintenance_lookups += lookups - 1; // ancestor puts
        stats.records_moved += replicas_written;
        Ok(OpCost::sequential(lookups))
    }

    /// Removes the record under `key` from every node on its path.
    ///
    /// # Errors
    ///
    /// Propagates substrate failures.
    pub fn remove(&self, key: KeyFraction) -> Result<(Option<V>, OpCost), LhtError> {
        let mut lookups = 0u64;
        let mut removed: Option<V> = None;
        let mut seg = Segment::containing(key, self.cfg.height);
        loop {
            self.dht.update(&seg.dht_key(), &mut |slot| {
                if let Some(node) = slot.as_mut() {
                    if let Some(v) = node.records.remove(&key) {
                        removed.get_or_insert(v);
                    }
                }
            })?;
            lookups += 1;
            match seg.parent() {
                Some(p) => seg = p,
                None => break,
            }
        }
        self.stats.lock().removes += 1;
        Ok((removed, OpCost::sequential(lookups)))
    }

    /// Exact-match query: one DHT-get of the leaf segment.
    ///
    /// # Errors
    ///
    /// Propagates substrate failures.
    pub fn exact_match(&self, key: KeyFraction) -> Result<(Option<V>, OpCost), LhtError> {
        let leaf = Segment::containing(key, self.cfg.height);
        let node = self.dht.get(&leaf.dht_key())?;
        Ok((
            node.and_then(|n| n.records.get(&key).cloned()),
            OpCost::sequential(1),
        ))
    }

    /// Range query: fetch the canonical segment cover **in parallel**
    /// (one step), descending past saturated nodes (one extra step
    /// per stripped level).
    ///
    /// # Errors
    ///
    /// Propagates substrate failures.
    pub fn range(&self, range: KeyInterval) -> Result<DstRangeResult<V>, LhtError> {
        let mut records: BTreeMap<KeyFraction, V> = BTreeMap::new();
        let mut cost = RangeCost::default();
        let mut frontier: Vec<(Segment, u64)> = canonical_cover(&range, self.cfg.height)
            .into_iter()
            .map(|s| (s, 1))
            .collect();
        while let Some((seg, step)) = frontier.pop() {
            cost.dht_lookups += 1;
            cost.steps = cost.steps.max(step);
            match self.dht.get(&seg.dht_key())? {
                None => {} // no data anywhere under this segment
                Some(node) if node.saturated => {
                    // Frozen-incomplete: descend.
                    frontier.push((seg.left(), step + 1));
                    frontier.push((seg.right(), step + 1));
                }
                Some(node) => {
                    cost.buckets_visited += 1;
                    for (k, v) in node.records {
                        if range.contains(k) {
                            records.insert(k, v);
                        }
                    }
                }
            }
        }
        Ok(DstRangeResult {
            records: records.into_iter().collect(),
            cost,
        })
    }
}

/// The segment tree has no cheap leftmost/rightmost descent, so DST
/// answers no min/max.
impl<D, V> Executor<V> for DstIndex<D, V>
where
    D: Dht<Value = DstNode<V>>,
    V: Clone,
{
    fn supports(&self, call: &HistoryCall<V>) -> bool {
        !matches!(call, HistoryCall::Min | HistoryCall::Max)
    }

    fn execute(&self, call: &HistoryCall<V>) -> Result<(HistoryReturn<V>, OpCost), LhtError> {
        Ok(match call {
            HistoryCall::Insert { key, value } => {
                let cost = self.insert(KeyFraction::from_bits(*key), value.clone())?;
                (HistoryReturn::Inserted, cost)
            }
            HistoryCall::Remove { key } => {
                let (prior, cost) = self.remove(KeyFraction::from_bits(*key))?;
                (HistoryReturn::Removed { prior }, cost)
            }
            HistoryCall::Get { key } => {
                let (value, cost) = self.exact_match(KeyFraction::from_bits(*key))?;
                (HistoryReturn::Value { value }, cost)
            }
            HistoryCall::Range { lo, hi } => {
                let out = self.range(KeyInterval::from_bits(*lo, *hi))?;
                (HistoryReturn::records(out.records), out.cost.into())
            }
            HistoryCall::Min | HistoryCall::Max => panic!("DST has no min/max"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lht_dht::DirectDht;

    type TestDht = DirectDht<DstNode<u32>>;

    fn kf(x: f64) -> KeyFraction {
        KeyFraction::from_f64(x)
    }

    fn ki(lo: f64, hi: f64) -> KeyInterval {
        KeyInterval::half_open(kf(lo), kf(hi))
    }

    fn build(cfg: DstConfig, n: u32) -> TestDht {
        let dht = DirectDht::new();
        let dst = DstIndex::new(&dht, cfg).unwrap();
        for i in 0..n {
            dst.insert(kf((i as f64 + 0.5) / n as f64), i).unwrap();
        }
        dht
    }

    #[test]
    fn insert_costs_height_plus_one_lookups() {
        let dht = DirectDht::new();
        let dst: DstIndex<_, u32> = DstIndex::new(&dht, DstConfig::new(8, 100)).unwrap();
        let cost = dst.insert(kf(0.3), 1).unwrap();
        assert_eq!(cost.dht_lookups, 9, "height 8 ⇒ 9 path nodes");
        assert_eq!(dst.stats().maintenance_lookups, 8);
    }

    #[test]
    fn exact_match_round_trip() {
        let dht = build(DstConfig::new(10, 50), 200);
        let dst: DstIndex<_, u32> = DstIndex::new(&dht, DstConfig::new(10, 50)).unwrap();
        for i in (0..200).step_by(17) {
            let (v, c) = dst.exact_match(kf((i as f64 + 0.5) / 200.0)).unwrap();
            assert_eq!(v, Some(i));
            assert_eq!(c.dht_lookups, 1);
        }
        assert_eq!(dst.exact_match(kf(0.9999)).unwrap().0, None);
    }

    #[test]
    fn range_is_exact_and_single_step_when_unsaturated() {
        let cfg = DstConfig::new(8, 10_000); // capacity never reached
        let dht = build(cfg, 500);
        let dst: DstIndex<_, u32> = DstIndex::new(&dht, cfg).unwrap();
        let r = dst.range(ki(0.2, 0.6)).unwrap();
        let expect: Vec<u32> = (0..500)
            .filter(|i| ki(0.2, 0.6).contains(kf((*i as f64 + 0.5) / 500.0)))
            .collect();
        let got: Vec<u32> = r.records.iter().map(|(_, v)| *v).collect();
        assert_eq!(got, expect);
        assert_eq!(r.cost.steps, 1, "parallel canonical cover = 1 step");
        assert!(r.cost.dht_lookups <= 2 * cfg.height as u64);
    }

    #[test]
    fn saturation_forces_descent_but_keeps_answers_exact() {
        let cfg = DstConfig::new(10, 8); // tiny capacity: root saturates fast
        let dht = build(cfg, 400);
        let dst: DstIndex<_, u32> = DstIndex::new(&dht, cfg).unwrap();
        let r = dst.range(KeyInterval::FULL).unwrap();
        assert_eq!(r.records.len(), 400, "saturated answers stay complete");
        assert!(r.cost.steps > 1, "load stripping costs extra rounds");
    }

    #[test]
    fn remove_erases_all_replicas() {
        let cfg = DstConfig::new(6, 100);
        let dht = build(cfg, 50);
        let dst: DstIndex<_, u32> = DstIndex::new(&dht, cfg).unwrap();
        let key = kf((10.0 + 0.5) / 50.0);
        let (v, cost) = dst.remove(key).unwrap();
        assert_eq!(v, Some(10));
        assert_eq!(cost.dht_lookups, 7);
        assert_eq!(dst.exact_match(key).unwrap().0, None);
        // No replica lingers anywhere.
        for dkey in dht.keys() {
            dht.peek(&dkey, |n| {
                if let Some(n) = n {
                    assert!(!n.records.contains_key(&key));
                }
            });
        }
        assert_eq!(dst.remove(key).unwrap().0, None, "double remove is a no-op");
    }

    #[test]
    fn replication_cost_dwarfs_lht_shape() {
        // The §2 claim: DST insertion is inefficient due to
        // replication — ≈ height ancestor copies per record.
        let cfg = DstConfig::new(12, 100);
        let dht = DirectDht::new();
        let dst: DstIndex<_, u32> = DstIndex::new(&dht, cfg).unwrap();
        for i in 0..100 {
            dst.insert(kf((i as f64 + 0.5) / 100.0), i).unwrap();
        }
        let s = dst.stats();
        assert_eq!(s.maintenance_lookups, 100 * 12);
        assert!(s.records_moved >= 100 * 11, "ancestor replicas written");
    }

    #[test]
    fn empty_range_is_free() {
        let cfg = DstConfig::default();
        let dht = build(cfg, 10);
        let dst: DstIndex<_, u32> = DstIndex::new(&dht, cfg).unwrap();
        let r = dst.range(KeyInterval::EMPTY).unwrap();
        assert!(r.records.is_empty());
        assert_eq!(r.cost.dht_lookups, 0);
    }
}
