//! The Kademlia network simulation.

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashSet};

use lht_dht::{Dht, DhtError, DhtKey, DhtOp, DhtStats, NodeStore, Probe};
use lht_id::{sha1, U160};

/// Bucket size and replication factor (Kademlia's `k`).
const K: usize = 8;
/// Lookup parallelism (Kademlia's `α`). In this step-simulation α
/// affects which contacts are probed, not wall-clock, but is kept for
/// fidelity of the probe pattern.
const ALPHA: usize = 3;
/// Hop budget per lookup.
const MAX_HOPS: u64 = 512;

#[derive(Debug)]
struct Node<V> {
    /// `buckets[i]` holds the contacts whose XOR distance to this node
    /// has `i` leading zero bits, so bucket 0 is the farthest half of
    /// the id space and bucket 159 the closest. Most-recently-seen
    /// first, capped at `K`.
    buckets: Vec<Vec<U160>>,
    store: NodeStore<V>,
}

struct Net<V> {
    nodes: BTreeMap<U160, Node<V>>,
    stats: DhtStats,
    rng: StdRng,
}

/// A simulated Kademlia DHT: XOR-metric routing tables of 160
/// k-buckets per node, iterative lookups with per-probe hop
/// accounting and k-closest replication over a static membership
/// that is converged at construction (membership churn is modelled
/// by [`ChordDht`](lht_dht::ChordDht)).
///
/// Implements the same [`Dht`] trait as the other substrates, so any
/// over-DHT index runs on it unchanged.
///
/// # Examples
///
/// ```
/// use lht_dht::{Dht, DhtKey};
/// use lht_kad::KademliaDht;
///
/// let dht: KademliaDht<u32> = KademliaDht::with_nodes(64, 3);
/// dht.put(&DhtKey::from("answer"), 42)?;
/// assert_eq!(dht.get(&DhtKey::from("answer"))?, Some(42));
/// assert!(dht.stats().hops_per_lookup() <= 16.0);
/// # Ok::<(), lht_dht::DhtError>(())
/// ```
pub struct KademliaDht<V> {
    inner: Mutex<Net<V>>,
}

impl<V> std::fmt::Debug for KademliaDht<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("KademliaDht")
            .field("nodes", &inner.nodes.len())
            .finish()
    }
}

impl<V> KademliaDht<V> {
    /// Creates a converged network of `n` nodes (ids `sha1("kad:i")`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn with_nodes(n: usize, seed: u64) -> KademliaDht<V> {
        assert!(n > 0, "a network needs at least one node");
        let ids: Vec<U160> = (0..n)
            .map(|i| sha1(format!("kad:{i}").as_bytes()))
            .collect();
        let nodes = ids
            .iter()
            .map(|id| {
                let mut buckets = vec![Vec::new(); U160::BITS as usize];
                for other in &ids {
                    let d = *id ^ *other;
                    if d != U160::ZERO {
                        buckets[d.leading_zeros() as usize].push(*other);
                    }
                }
                for bucket in &mut buckets {
                    // Keep the k XOR-closest contacts per bucket.
                    bucket.sort_by_key(|c| *c ^ *id);
                    bucket.truncate(K);
                }
                let store = NodeStore::default();
                (*id, Node { buckets, store })
            })
            .collect();
        KademliaDht {
            inner: Mutex::new(Net {
                nodes,
                stats: DhtStats::default(),
                rng: StdRng::seed_from_u64(seed),
            }),
        }
    }

    /// Node identifiers (oracle view; free).
    pub fn node_ids(&self) -> Vec<U160> {
        self.inner.lock().nodes.keys().copied().collect()
    }
}

impl<V> Net<V> {
    /// The true `k` closest nodes to `h` (placement oracle).
    fn k_closest_oracle(&self, h: &U160) -> Vec<U160> {
        let mut ids: Vec<U160> = self.nodes.keys().copied().collect();
        ids.sort_by_key(|id| *id ^ *h);
        ids.truncate(K);
        ids
    }

    /// A node's view: its `k` closest known contacts to `target`.
    fn node_closest(&self, node: &U160, target: &U160) -> Vec<U160> {
        let mut out: Vec<U160> = self.nodes[node].buckets.iter().flatten().copied().collect();
        out.push(*node);
        out.sort_by_key(|c| *c ^ *target);
        out.dedup();
        out.truncate(K);
        out
    }

    /// Draws a random node to act as the querying client. A round
    /// draws once and shares the initiator across its lookups — one
    /// client issues the whole round — while each lookup still probes
    /// (and is charged hops) independently.
    fn draw_initiator(&mut self) -> U160 {
        let ids: Vec<U160> = self.nodes.keys().copied().collect();
        ids[self.rng.gen_range(0..ids.len())]
    }

    /// Iterative FIND_NODE from `start`: returns the queried nodes
    /// sorted by distance to `h`, and the hop count (one per probe),
    /// or [`DhtError::RoutingFailed`] past the hop budget.
    fn route_from(&self, start: &U160, h: &U160) -> Result<(Vec<U160>, u64), DhtError> {
        let start = *start;
        let mut shortlist: Vec<U160> = self.node_closest(&start, h);
        if !shortlist.contains(&start) {
            shortlist.push(start);
        }
        let mut queried: HashSet<U160> = HashSet::new();
        let mut hops = 0u64;
        loop {
            shortlist.sort_by_key(|c| *c ^ *h);
            shortlist.dedup();
            // Probe the α closest unqueried candidates.
            let batch: Vec<U160> = shortlist
                .iter()
                .filter(|c| !queried.contains(*c))
                .take(ALPHA)
                .copied()
                .collect();
            if batch.is_empty() {
                break;
            }
            for probe in batch {
                hops += 1;
                if hops > MAX_HOPS {
                    return Err(DhtError::RoutingFailed { hops });
                }
                queried.insert(probe);
                shortlist.extend(self.node_closest(&probe, h));
            }
            // Termination: the k closest candidates have all been
            // queried.
            shortlist.sort_by_key(|c| *c ^ *h);
            shortlist.dedup();
            if shortlist.iter().take(K).all(|c| queried.contains(c)) {
                break;
            }
        }
        let mut found: Vec<U160> = queried.into_iter().collect();
        found.sort_by_key(|c| *c ^ *h);
        Ok((found, hops))
    }

    /// [`route_from`](Self::route_from) a freshly drawn initiator.
    fn route(&mut self, h: &U160) -> Result<(Vec<U160>, u64), DhtError> {
        let start = self.draw_initiator();
        self.route_from(&start, h)
    }

    /// Whether a location-cache probe at `hint` may serve `h`: the
    /// node must exist and be the XOR-closest node to `h` — the
    /// stand-in for "owner" under the Kademlia metric, and the node a
    /// routed lookup is guaranteed to query.
    fn probe_verifies(&self, hint: &U160, h: &U160) -> bool {
        self.nodes.contains_key(hint) && self.k_closest_oracle(h).first() == Some(hint)
    }
}

impl<V: Clone> Net<V> {
    /// Serves a verified read probe for `key` at `hint`, or reports
    /// it stale. Kademlia replicates on the k closest nodes, and a
    /// routed write lands on the k closest nodes its lookup *found*,
    /// so a store miss at the hint while a replica-set neighbour
    /// still holds the key is answered `Stale` — the full route will
    /// find the copy. A probe can therefore never turn a live key
    /// into a false miss.
    fn probe_read(&mut self, key: &DhtKey, hint: &U160) -> Probe<Option<V>> {
        let h = key.hash();
        if !self.probe_verifies(hint, &h) {
            self.stats.hops += 1;
            return Probe::Stale;
        }
        if let Some(value) = self.nodes[hint].store.get(key).cloned() {
            return Probe::Served(Some(value));
        }
        let held_elsewhere = self
            .k_closest_oracle(&h)
            .iter()
            .any(|n| self.nodes[n].store.contains_key(key));
        if held_elsewhere {
            self.stats.hops += 1;
            Probe::Stale
        } else {
            Probe::Served(None)
        }
    }

    /// Executes a verified write probe: the hint (the closest node)
    /// fans the value out to the current k-closest replica set, as
    /// the routed `put` would. Returns the charged hops, or `None`
    /// (one wasted hop) when the hint does not verify.
    fn probe_write(&mut self, key: &DhtKey, value: V, hint: &U160) -> Option<u64> {
        let h = key.hash();
        if !self.probe_verifies(hint, &h) {
            self.stats.hops += 1;
            return None;
        }
        let targets = self.k_closest_oracle(&h);
        let hops = targets.len() as u64; // 1 probe + (k-1) fan-out
        self.store_on(&targets, key, value);
        Some(hops)
    }

    /// Writes `value` under `key` on every node of `targets`.
    fn store_on(&mut self, targets: &[U160], key: &DhtKey, value: V) {
        for t in targets {
            let node = self.nodes.get_mut(t).expect("targets are nodes");
            node.store.insert(key.clone(), value.clone());
        }
    }
}

impl<V: Clone> Dht for KademliaDht<V> {
    type Value = V;

    fn get(&self, key: &DhtKey) -> Result<Option<V>, DhtError> {
        let mut round = self.multi_get(std::slice::from_ref(key));
        round.pop().expect("a round answers once per op")
    }

    fn put(&self, key: &DhtKey, value: V) -> Result<(), DhtError> {
        let mut round = self.multi_put(vec![(key.clone(), value)]);
        round.pop().expect("a round answers once per op")
    }

    fn remove(&self, key: &DhtKey) -> Result<Option<V>, DhtError> {
        let mut inner = self.inner.lock();
        let (found, hops) = inner.route(&key.hash())?;
        let targets: Vec<U160> = found.into_iter().take(K).collect();
        inner
            .stats
            .record_op(DhtOp::Remove, hops + targets.len().saturating_sub(1) as u64);
        let mut out: Option<V> = None;
        for t in targets {
            let removed = inner
                .nodes
                .get_mut(&t)
                .expect("found nodes are alive")
                .store
                .remove(key);
            if out.is_none() {
                out = removed;
            }
        }
        Ok(out)
    }

    fn update(&self, key: &DhtKey, f: &mut dyn FnMut(&mut Option<V>)) -> Result<(), DhtError> {
        let mut inner = self.inner.lock();
        let (found, hops) = inner.route(&key.hash())?;
        let targets: Vec<U160> = found.into_iter().take(K).collect();
        inner
            .stats
            .record_op(DhtOp::Update, hops + targets.len().saturating_sub(1) as u64);
        // The closest replica holding the key is canonical; fall back
        // to the closest node for fresh inserts.
        let canonical = targets
            .iter()
            .find(|t| inner.nodes[t].store.contains_key(key))
            .or(targets.first())
            .copied();
        let Some(canonical) = canonical else {
            return Err(DhtError::EmptyRing);
        };
        let mut slot = inner
            .nodes
            .get_mut(&canonical)
            .expect("alive")
            .store
            .remove(key);
        f(&mut slot);
        for t in targets {
            let store = &mut inner.nodes.get_mut(&t).expect("alive").store;
            match &slot {
                Some(v) => {
                    store.insert(key.clone(), v.clone());
                }
                None => {
                    store.remove(key);
                }
            }
        }
        Ok(())
    }

    fn multi_get(&self, keys: &[DhtKey]) -> Vec<Result<Option<V>, DhtError>> {
        let mut inner = self.inner.lock();
        let start = inner.draw_initiator();
        let mut ops = Vec::with_capacity(keys.len());
        let out = keys
            .iter()
            .map(|key| {
                let (found, hops) = inner.route_from(&start, &key.hash())?;
                let hit = found
                    .iter()
                    .take(K)
                    .find_map(|n| inner.nodes[n].store.get(key).cloned());
                let found = hit.is_some();
                ops.push((DhtOp::Get { found }, hops));
                Ok(hit)
            })
            .collect();
        inner.stats.record_batch(ops);
        out
    }

    fn multi_put(&self, entries: Vec<(DhtKey, V)>) -> Vec<Result<(), DhtError>> {
        let mut inner = self.inner.lock();
        let start = inner.draw_initiator();
        let mut ops = Vec::with_capacity(entries.len());
        let out = entries
            .into_iter()
            .map(|(key, value)| {
                let (found, hops) = inner.route_from(&start, &key.hash())?;
                let targets: Vec<U160> = found.into_iter().take(K).collect();
                ops.push((DhtOp::Put, hops + targets.len().saturating_sub(1) as u64));
                inner.store_on(&targets, &key, value);
                Ok(())
            })
            .collect();
        inner.stats.record_batch(ops);
        out
    }

    fn probe_multi_get(
        &self,
        probes: &[(DhtKey, U160)],
    ) -> Vec<Result<Probe<Option<V>>, DhtError>> {
        let mut inner = self.inner.lock();
        let mut ops = Vec::new();
        let out = probes
            .iter()
            .map(|(key, owner)| {
                let probe = inner.probe_read(key, owner);
                if let Probe::Served(hit) = &probe {
                    ops.push((
                        DhtOp::Get {
                            found: hit.is_some(),
                        },
                        1,
                    ));
                }
                Ok(probe)
            })
            .collect();
        inner.stats.record_batch(ops);
        out
    }

    fn probe_multi_put(&self, entries: Vec<(DhtKey, V, U160)>) -> Vec<Result<Probe<()>, DhtError>> {
        let mut inner = self.inner.lock();
        let mut ops = Vec::new();
        let out = entries
            .into_iter()
            .map(
                |(key, value, owner)| match inner.probe_write(&key, value, &owner) {
                    Some(hops) => {
                        ops.push((DhtOp::Put, hops));
                        Ok(Probe::Served(()))
                    }
                    None => Ok(Probe::Stale),
                },
            )
            .collect();
        inner.stats.record_batch(ops);
        out
    }

    fn owner_hint(&self, key: &DhtKey) -> Option<U160> {
        let inner = self.inner.lock();
        inner.k_closest_oracle(&key.hash()).first().copied()
    }

    fn stats(&self) -> DhtStats {
        self.inner.lock().stats
    }

    fn hops(&self) -> u64 {
        self.inner.lock().stats.hops
    }

    fn reset_stats(&self) {
        self.inner.lock().stats = DhtStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> DhtKey {
        DhtKey::from(s)
    }

    #[test]
    fn put_get_remove_round_trip() {
        let dht: KademliaDht<u32> = KademliaDht::with_nodes(32, 1);
        for i in 0..100u32 {
            dht.put(&k(&format!("key:{i}")), i).unwrap();
        }
        for i in 0..100u32 {
            assert_eq!(dht.get(&k(&format!("key:{i}"))).unwrap(), Some(i));
        }
        assert_eq!(dht.remove(&k("key:7")).unwrap(), Some(7));
        assert_eq!(dht.get(&k("key:7")).unwrap(), None);
        assert_eq!(dht.get(&k("missing")).unwrap(), None);
    }

    #[test]
    fn single_node_network_works() {
        let dht: KademliaDht<u32> = KademliaDht::with_nodes(1, 1);
        dht.put(&k("a"), 1).unwrap();
        assert_eq!(dht.get(&k("a")).unwrap(), Some(1));
    }

    #[test]
    fn values_land_on_the_k_closest_nodes() {
        let dht: KademliaDht<u32> = KademliaDht::with_nodes(64, 3);
        dht.put(&k("target"), 9).unwrap();
        let inner = dht.inner.lock();
        let closest = inner.k_closest_oracle(&k("target").hash());
        for id in &closest {
            assert!(
                inner.nodes[id].store.contains_key(&k("target")),
                "replica missing on a k-closest node"
            );
        }
        let holders = inner
            .nodes
            .values()
            .filter(|n| n.store.contains_key(&k("target")))
            .count();
        assert_eq!(holders, K, "exactly k replicas");
    }

    #[test]
    fn lookup_hops_are_logarithmic() {
        for &(n, bound) in &[(32usize, 10.0f64), (128, 14.0), (512, 18.0)] {
            let dht: KademliaDht<u32> = KademliaDht::with_nodes(n, 5);
            for i in 0..100u32 {
                dht.get(&k(&format!("probe:{i}"))).unwrap();
            }
            let per = dht.stats().hops_per_lookup();
            assert!(
                per <= bound,
                "{n}-node network took {per} hops/lookup (bound {bound})"
            );
        }
    }

    #[test]
    fn update_inserts_mutates_and_deletes() {
        let dht: KademliaDht<Vec<u32>> = KademliaDht::with_nodes(16, 7);
        dht.update(&k("b"), &mut |slot| {
            slot.get_or_insert_with(Vec::new).push(1);
        })
        .unwrap();
        dht.update(&k("b"), &mut |slot| {
            slot.as_mut().unwrap().push(2);
        })
        .unwrap();
        assert_eq!(dht.get(&k("b")).unwrap(), Some(vec![1, 2]));
        dht.update(&k("b"), &mut |slot| *slot = None).unwrap();
        assert_eq!(dht.get(&k("b")).unwrap(), None);
    }

    #[test]
    fn every_operation_counts_one_lookup() {
        let dht: KademliaDht<u32> = KademliaDht::with_nodes(8, 13);
        dht.put(&k("a"), 1).unwrap();
        dht.get(&k("a")).unwrap();
        dht.get(&k("nope")).unwrap();
        dht.update(&k("a"), &mut |_| {}).unwrap();
        dht.remove(&k("a")).unwrap();
        let s = dht.stats();
        assert_eq!(s.lookups(), 5);
        assert_eq!(s.failed_gets, 1);
        assert!(s.hops >= s.lookups());
    }

    #[test]
    fn verified_probe_matches_routed_get_at_one_hop() {
        let dht: KademliaDht<u32> = KademliaDht::with_nodes(64, 17);
        for i in 0..50u32 {
            dht.put(&k(&format!("key:{i}")), i).unwrap();
        }
        dht.reset_stats();
        for i in 0..50u32 {
            let key = k(&format!("key:{i}"));
            let hint = dht.owner_hint(&key).unwrap();
            match dht.probe_get(&key, hint).unwrap() {
                Probe::Served(v) => assert_eq!(v, Some(i)),
                other => panic!("fresh hint must serve, got {other:?}"),
            }
        }
        let s = dht.stats();
        assert_eq!(s.gets, 50);
        assert_eq!(s.hops, 50, "each served probe costs exactly one hop");
    }

    #[test]
    fn probe_at_a_non_closest_node_is_stale() {
        let dht: KademliaDht<u32> = KademliaDht::with_nodes(32, 19);
        let key = k("somewhere");
        dht.put(&key, 5).unwrap();
        let closest = dht.owner_hint(&key).unwrap();
        let other = dht
            .node_ids()
            .into_iter()
            .find(|id| *id != closest)
            .unwrap();
        dht.reset_stats();
        assert_eq!(dht.probe_get(&key, other).unwrap(), Probe::Stale);
        let s = dht.stats();
        assert_eq!(s.hops, 1, "one wasted hop");
        assert_eq!(s.lookups(), 0);
        // A hint that names no node is stale too, at one more hop.
        let nowhere = sha1(b"kad:no-such-node");
        assert_eq!(dht.probe_get(&key, nowhere).unwrap(), Probe::Stale);
        assert_eq!(dht.stats().hops, 2);
    }

    #[test]
    fn emptied_closest_node_answers_stale_not_false_miss() {
        let dht: KademliaDht<u32> = KademliaDht::with_nodes(16, 23);
        let key = k("replicated");
        dht.put(&key, 11).unwrap();
        let hint = dht.owner_hint(&key).unwrap();
        // The closest node loses its copy; its replica-set neighbours
        // keep theirs.
        dht.inner
            .lock()
            .nodes
            .get_mut(&hint)
            .unwrap()
            .store
            .remove(&key);
        dht.reset_stats();
        // The verified probe must not serve the closest node's empty
        // store as a miss while replicas still hold the key.
        assert_eq!(dht.probe_get(&key, hint).unwrap(), Probe::Stale);
        let s = dht.stats();
        assert_eq!((s.hops, s.lookups()), (1, 0), "one wasted hop");
        assert_eq!(dht.get(&key).unwrap(), Some(11), "the route finds a copy");
        // A truly absent key is a served miss, not stale.
        let absent = k("never-written");
        assert_eq!(
            dht.probe_get(&absent, dht.owner_hint(&absent).unwrap())
                .unwrap(),
            Probe::Served(None)
        );
    }

    #[test]
    fn probe_put_replicates_to_the_k_closest() {
        let dht: KademliaDht<u32> = KademliaDht::with_nodes(64, 29);
        let key = k("fanout");
        let hint = dht.owner_hint(&key).unwrap();
        dht.reset_stats();
        assert_eq!(dht.probe_put(&key, 3, hint).unwrap(), Probe::Served(()));
        {
            let inner = dht.inner.lock();
            for id in inner.k_closest_oracle(&key.hash()) {
                assert!(inner.nodes[&id].store.contains_key(&key));
            }
            assert_eq!(inner.stats.hops, K as u64, "probe + fan-out");
        }
        assert_eq!(dht.get(&key).unwrap(), Some(3));
    }

    #[test]
    fn cached_stack_over_kademlia_cuts_hops() {
        use lht_dht::CachedDht;

        let dht = CachedDht::with_capacity(KademliaDht::<u32>::with_nodes(64, 31), 256);
        for i in 0..64u32 {
            dht.put(&k(&format!("key:{i}")), i).unwrap();
        }
        dht.reset_stats();
        for i in 0..64u32 {
            assert_eq!(dht.get(&k(&format!("key:{i}"))).unwrap(), Some(i));
        }
        let warm = dht.stats();
        assert_eq!(warm.cache_hits, 64);
        assert_eq!(warm.hops, 64, "all warm lookups are single-hop");
        assert!(warm.rounds <= warm.lookups());
        assert!(warm.round_hops <= warm.hops);
    }

    #[test]
    fn kad_is_send_sync() {
        fn assert_bounds<T: Send + Sync>() {}
        assert_bounds::<KademliaDht<u64>>();
    }
}
