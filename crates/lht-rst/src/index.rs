//! The RST index: one-hop queries, broadcast maintenance.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

use lht_core::{
    Executor, HistoryCall, HistoryReturn, IndexStats, KeyInterval, Label, LhtConfig, LhtError,
    OpCost, RangeCost,
};
use lht_dht::Dht;
use lht_id::KeyFraction;

/// One RST leaf as stored in the DHT: its records **plus a full copy
/// of the global tree structure** (the set of live leaf labels) — the
/// §2 characterization "gives each tree node the entire knowledge of
/// global index tree".
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RstNode<V> {
    /// The leaf's records.
    pub records: BTreeMap<KeyFraction, V>,
    /// The replicated global structure.
    pub structure: BTreeSet<Label>,
}

/// The result of an RST range query.
#[derive(Clone, Debug)]
pub struct RstRangeResult<V> {
    /// Matching records in key order.
    pub records: Vec<(KeyFraction, V)>,
    /// Query cost: exactly one DHT-lookup per covered leaf, all in
    /// one parallel round (`steps == 1`) — bandwidth-optimal `B`.
    pub cost: RangeCost,
}

/// A Range Search Tree index over a DHT substrate.
///
/// The handle is itself a "peer": it holds a structure replica and
/// answers placement questions locally, which is what makes queries
/// one-hop. The replica refreshes itself from any live leaf when a
/// miss reveals staleness (another client split meanwhile).
///
/// See the [crate documentation](crate) for the scheme.
#[derive(Debug)]
pub struct RstIndex<D, V>
where
    D: Dht<Value = RstNode<V>>,
{
    dht: D,
    cfg: LhtConfig,
    /// Local structure replica: interval lower bound → leaf label.
    structure: Mutex<BTreeMap<u128, Label>>,
    stats: Mutex<IndexStats>,
}

impl<D, V> RstIndex<D, V>
where
    D: Dht<Value = RstNode<V>>,
    V: Clone,
{
    /// Creates an RST handle and pulls the structure replica.
    ///
    /// Bootstrap uses only `put`/`get`: the **leftmost** leaf of any
    /// RST has a label of the form `#00…0`, so probing those labels
    /// by increasing depth finds a live replica in at most `D` gets;
    /// if none exists the tree is empty and the single-leaf root is
    /// created.
    ///
    /// # Errors
    ///
    /// Propagates substrate failures.
    pub fn new(dht: D, cfg: LhtConfig) -> Result<Self, LhtError> {
        let index = RstIndex {
            dht,
            cfg,
            structure: Mutex::new(BTreeMap::new()),
            stats: Mutex::new(IndexStats::default()),
        };
        let mut probe = Label::root();
        for _ in 0..cfg.max_depth {
            if let Some(node) = index.dht.get(&probe.dht_key())? {
                index.adopt(node.structure);
                return Ok(index);
            }
            probe = probe.child(false);
        }
        // Empty DHT: create the single-leaf tree.
        let root = Label::root();
        index.dht.put(
            &root.dht_key(),
            RstNode {
                records: BTreeMap::new(),
                structure: BTreeSet::from([root]),
            },
        )?;
        index.adopt(BTreeSet::from([root]));
        Ok(index)
    }

    /// The index configuration.
    pub fn config(&self) -> LhtConfig {
        self.cfg
    }

    /// The underlying substrate.
    pub fn dht(&self) -> &D {
        &self.dht
    }

    /// Cumulative statistics: for RST, `maintenance_lookups` counts
    /// split puts **plus the structure broadcast** (one update per
    /// other live leaf).
    pub fn stats(&self) -> IndexStats {
        *self.stats.lock()
    }

    fn adopt(&self, labels: BTreeSet<Label>) {
        let mut map = self.structure.lock();
        map.clear();
        for l in labels {
            map.insert(l.interval().lo_raw(), l);
        }
    }

    /// The cached leaf covering `key` (no DHT traffic — the point of
    /// RST).
    fn covering_leaf(&self, key: KeyFraction) -> Label {
        let map = self.structure.lock();
        let (_, label) = map
            .range(..=key.bits() as u128)
            .next_back()
            .expect("structure covers [0,1)");
        *label
    }

    /// Refreshes the structure replica from any live leaf. Returns
    /// lookups spent.
    fn refresh(&self) -> Result<u64, LhtError> {
        let candidates: Vec<Label> = self.structure.lock().values().copied().collect();
        let mut lookups = 0u64;
        for label in candidates {
            lookups += 1;
            if let Some(node) = self.dht.get(&label.dht_key())? {
                self.adopt(node.structure);
                return Ok(lookups);
            }
        }
        Err(LhtError::MissingBucket {
            key: "rst structure replica unrecoverable".to_string(),
        })
    }

    /// One-hop exact-match query: the covering leaf is computed
    /// locally; a single DHT-get fetches the record.
    ///
    /// # Errors
    ///
    /// Propagates substrate failures; [`LhtError::Contention`] if the
    /// replica cannot be refreshed into agreement.
    pub fn exact_match(&self, key: KeyFraction) -> Result<(Option<V>, OpCost), LhtError> {
        let mut lookups = 0u64;
        for _ in 0..4 {
            let leaf = self.covering_leaf(key);
            lookups += 1;
            match self.dht.get(&leaf.dht_key())? {
                Some(node) => {
                    return Ok((node.records.get(&key).cloned(), OpCost::sequential(lookups)))
                }
                None => lookups += self.refresh()?, // stale replica
            }
        }
        Err(LhtError::Contention { attempts: 4 })
    }

    /// Inserts a record: one DHT-update to the locally-computed leaf.
    /// A full leaf splits — and *every other live leaf* must be told
    /// about the new structure (§2: "a broadcasting to all tree
    /// nodes").
    ///
    /// # Errors
    ///
    /// Propagates substrate failures; [`LhtError::Contention`] on
    /// unresolvable replica staleness.
    pub fn insert(&self, key: KeyFraction, value: V) -> Result<OpCost, LhtError> {
        let theta = self.cfg.theta_split;
        let max_depth = self.cfg.max_depth;
        let mut holder = Some(value);
        let mut lookups = 0u64;

        for _ in 0..4 {
            let leaf = self.covering_leaf(key);
            let mut outcome: Option<Option<(RstNode<V>, RstNode<V>)>> = None;
            lookups += 1;
            self.dht.update(&leaf.dht_key(), &mut |slot| {
                let Some(node) = slot.as_mut() else { return };
                let Some(v) = holder.take() else { return };
                if node.records.len() + 1 >= theta && leaf.len() < max_depth {
                    // Split locally: both children are new entries.
                    let mid = leaf.child(true).interval().lo_key();
                    let upper = node.records.split_off(&mid);
                    let mut left = RstNode {
                        records: std::mem::take(&mut node.records),
                        structure: BTreeSet::new(),
                    };
                    let mut right = RstNode {
                        records: upper,
                        structure: BTreeSet::new(),
                    };
                    if key >= mid {
                        right.records.insert(key, v);
                    } else {
                        left.records.insert(key, v);
                    }
                    *slot = None; // the old entry disappears
                    outcome = Some(Some((left, right)));
                } else {
                    node.records.insert(key, v);
                    outcome = Some(None);
                }
            })?;

            match outcome {
                None => {
                    // Stale replica: the leaf entry vanished under us.
                    lookups += self.refresh()?;
                    continue;
                }
                Some(None) => {
                    self.stats.lock().inserts += 1;
                    return Ok(OpCost::sequential(lookups));
                }
                Some(Some((left, right))) => {
                    // New structure: replace `leaf` by its children.
                    let new_structure: BTreeSet<Label> = {
                        let mut map = self.structure.lock();
                        map.remove(&leaf.interval().lo_raw());
                        let l0 = leaf.child(false);
                        let l1 = leaf.child(true);
                        map.insert(l0.interval().lo_raw(), l0);
                        map.insert(l1.interval().lo_raw(), l1);
                        map.values().copied().collect()
                    };
                    let moved = (left.records.len() + right.records.len() + 2) as u64;
                    let mut maintenance = 0u64;
                    // Both children move to new peers (2 puts)…
                    for (child, mut node) in [(leaf.child(false), left), (leaf.child(true), right)]
                    {
                        node.structure = new_structure.clone();
                        self.dht.put(&child.dht_key(), node)?;
                        maintenance += 1;
                    }
                    // …and the broadcast: every *other* leaf entry
                    // learns the new structure.
                    for label in new_structure.iter() {
                        if *label == leaf.child(false) || *label == leaf.child(true) {
                            continue;
                        }
                        let s = new_structure.clone();
                        self.dht.update(&label.dht_key(), &mut |slot| {
                            if let Some(n) = slot.as_mut() {
                                n.structure = s.clone();
                            }
                        })?;
                        maintenance += 1;
                    }
                    let mut stats = self.stats.lock();
                    stats.inserts += 1;
                    stats.splits += 1;
                    stats.maintenance_lookups += maintenance;
                    stats.records_moved += moved;
                    return Ok(OpCost::sequential(lookups) + OpCost::sequential(maintenance));
                }
            }
        }
        Err(LhtError::Contention { attempts: 4 })
    }

    /// Range query: the covered leaf set is computed locally and all
    /// leaves are fetched in **one parallel round** — `B` lookups,
    /// 1 step, both optimal.
    ///
    /// # Errors
    ///
    /// Propagates substrate failures; [`LhtError::Contention`] on
    /// unresolvable replica staleness.
    pub fn range(&self, range: KeyInterval) -> Result<RstRangeResult<V>, LhtError> {
        let mut cost = RangeCost::default();
        if range.is_empty() {
            return Ok(RstRangeResult {
                records: Vec::new(),
                cost,
            });
        }
        'retry: for _ in 0..4 {
            let targets: Vec<Label> = {
                let map = self.structure.lock();
                map.values()
                    .filter(|l| l.interval().overlaps(&range))
                    .copied()
                    .collect()
            };
            let mut records: BTreeMap<KeyFraction, V> = BTreeMap::new();
            for label in &targets {
                cost.dht_lookups += 1;
                match self.dht.get(&label.dht_key())? {
                    Some(node) => {
                        cost.buckets_visited += 1;
                        for (k, v) in node.records {
                            if range.contains(k) {
                                records.insert(k, v);
                            }
                        }
                    }
                    None => {
                        cost.dht_lookups += self.refresh()?;
                        continue 'retry;
                    }
                }
            }
            cost.steps = cost.steps.max(1);
            return Ok(RstRangeResult {
                records: records.into_iter().collect(),
                cost,
            });
        }
        Err(LhtError::Contention { attempts: 4 })
    }
}

/// RST is append-only — its range-search tree only ever splits — and
/// has no min/max, so it answers inserts, lookups and ranges.
impl<D, V> Executor<V> for RstIndex<D, V>
where
    D: Dht<Value = RstNode<V>>,
    V: Clone,
{
    fn supports(&self, call: &HistoryCall<V>) -> bool {
        !matches!(
            call,
            HistoryCall::Remove { .. } | HistoryCall::Min | HistoryCall::Max
        )
    }

    fn execute(&self, call: &HistoryCall<V>) -> Result<(HistoryReturn<V>, OpCost), LhtError> {
        Ok(match call {
            HistoryCall::Insert { key, value } => {
                let cost = self.insert(KeyFraction::from_bits(*key), value.clone())?;
                (HistoryReturn::Inserted, cost)
            }
            HistoryCall::Get { key } => {
                let (value, cost) = self.exact_match(KeyFraction::from_bits(*key))?;
                (HistoryReturn::Value { value }, cost)
            }
            HistoryCall::Range { lo, hi } => {
                let out = self.range(KeyInterval::from_bits(*lo, *hi))?;
                (HistoryReturn::records(out.records), out.cost.into())
            }
            HistoryCall::Remove { .. } | HistoryCall::Min | HistoryCall::Max => {
                panic!("RST has no remove or min/max")
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lht_dht::DirectDht;

    impl<D, V> RstIndex<D, V>
    where
        D: Dht<Value = RstNode<V>>,
    {
        /// Number of leaves in the local structure replica.
        fn leaf_count(&self) -> usize {
            self.structure.lock().len()
        }
    }

    fn kf(x: f64) -> KeyFraction {
        KeyFraction::from_f64(x)
    }

    fn build(theta: usize, n: u32) -> DirectDht<RstNode<u32>> {
        let dht = DirectDht::new();
        let rst = RstIndex::new(&dht, LhtConfig::new(theta, 20)).unwrap();
        for i in 0..n {
            rst.insert(kf((i as f64 + 0.5) / n as f64), i).unwrap();
        }
        dht
    }

    #[test]
    fn exact_match_is_one_hop() {
        let dht = build(8, 200);
        let rst: RstIndex<_, u32> = RstIndex::new(&dht, LhtConfig::new(8, 20)).unwrap();
        for i in (0..200).step_by(23) {
            let (v, cost) = rst.exact_match(kf((i as f64 + 0.5) / 200.0)).unwrap();
            assert_eq!(v, Some(i));
            assert_eq!(cost.dht_lookups, 1, "RST exact match is one-hop");
        }
        assert_eq!(rst.exact_match(kf(0.99999)).unwrap().0, None);
    }

    #[test]
    fn range_is_optimal_bandwidth_single_step() {
        let dht = build(8, 400);
        let rst: RstIndex<_, u32> = RstIndex::new(&dht, LhtConfig::new(8, 20)).unwrap();
        let q = KeyInterval::half_open(kf(0.2), kf(0.6));
        let r = rst.range(q).unwrap();
        let expect: Vec<u32> = (0..400)
            .filter(|i| q.contains(kf((*i as f64 + 0.5) / 400.0)))
            .collect();
        let got: Vec<u32> = r.records.iter().map(|(_, v)| *v).collect();
        assert_eq!(got, expect);
        assert_eq!(r.cost.steps, 1, "one parallel round");
        assert_eq!(
            r.cost.dht_lookups, r.cost.buckets_visited,
            "exactly B lookups — optimal"
        );
    }

    #[test]
    fn splits_broadcast_to_every_leaf() {
        let dht = DirectDht::new();
        let rst: RstIndex<_, u32> = RstIndex::new(&dht, LhtConfig::new(4, 20)).unwrap();
        for i in 0..64 {
            rst.insert(kf((i as f64 + 0.5) / 64.0), i).unwrap();
        }
        let s = rst.stats();
        let leaves = rst.leaf_count() as u64;
        assert!(leaves > 8);
        // Maintenance grows superlinearly: each split paid ≈ current
        // leaf count in lookups. A loose lower bound: strictly more
        // than 3 lookups per split on average once the tree is big.
        assert!(
            s.maintenance_lookups > 3 * s.splits,
            "broadcast cost {} for {} splits",
            s.maintenance_lookups,
            s.splits
        );
        // All replicas agree with the live structure.
        for key in dht.keys() {
            dht.peek(&key, |n| {
                let n = n.expect("entry exists");
                assert_eq!(n.structure.len() as u64, leaves);
            });
        }
    }

    #[test]
    fn stale_replica_refreshes_on_miss() {
        let dht = build(4, 64);
        // A *second* client with its own (initially rootless) replica:
        // its cache comes from the bootstrap update, which sees the
        // current structure — so force staleness by splitting through
        // the first client afterwards.
        let rst1: RstIndex<_, u32> = RstIndex::new(&dht, LhtConfig::new(4, 20)).unwrap();
        let rst2: RstIndex<_, u32> = RstIndex::new(&dht, LhtConfig::new(4, 20)).unwrap();
        let before = rst2.leaf_count();
        // Client 1 splits a region by dense insertion.
        for i in 0..32 {
            rst1.insert(KeyFraction::from_bits(1000 + i), i as u32)
                .unwrap();
        }
        // Client 2's replica is stale now; queries must still answer.
        let (v, _) = rst2.exact_match(KeyFraction::from_bits(1005)).unwrap();
        assert_eq!(v, Some(5));
        assert!(rst2.leaf_count() >= before);
    }

    #[test]
    fn empty_range_is_free() {
        let dht = build(4, 16);
        let rst: RstIndex<_, u32> = RstIndex::new(&dht, LhtConfig::new(4, 20)).unwrap();
        let r = rst.range(KeyInterval::EMPTY).unwrap();
        assert!(r.records.is_empty());
        assert_eq!(r.cost.dht_lookups, 0);
    }
}
