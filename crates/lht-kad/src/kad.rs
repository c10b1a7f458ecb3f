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

impl<V> Node<V> {
    fn new() -> Node<V> {
        Node {
            buckets: vec![Vec::new(); U160::BITS as usize],
            store: NodeStore::default(),
        }
    }
}

struct Net<V> {
    nodes: BTreeMap<U160, Node<V>>,
    stats: DhtStats,
    rng: StdRng,
}

/// A simulated Kademlia DHT: XOR-metric routing tables of 160
/// k-buckets per node, iterative lookups with per-probe hop
/// accounting, k-closest replication and periodic republish.
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
        let mut nodes = BTreeMap::new();
        for i in 0..n {
            nodes.insert(sha1(format!("kad:{i}").as_bytes()), Node::new());
        }
        let mut net = Net {
            nodes,
            stats: DhtStats::default(),
            rng: StdRng::seed_from_u64(seed),
        };
        net.rebuild_all_tables();
        KademliaDht {
            inner: Mutex::new(net),
        }
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.inner.lock().nodes.len()
    }

    /// Live node identifiers (oracle view; free).
    pub fn node_ids(&self) -> Vec<U160> {
        self.inner.lock().nodes.keys().copied().collect()
    }

    /// Adds a node named `name`: it bootstraps its routing table by
    /// looking itself up through an existing node, and the contacted
    /// nodes learn about it. Stored data is **not** rebalanced until
    /// [`republish`](Self::republish) runs (as in real Kademlia,
    /// where republication is periodic).
    ///
    /// Returns the new identifier, or `None` if it already exists.
    pub fn join(&self, name: &str) -> Option<U160> {
        let mut inner = self.inner.lock();
        let id = sha1(name.as_bytes());
        if inner.nodes.contains_key(&id) {
            return None;
        }
        inner.nodes.insert(id, Node::new());
        // Self-lookup populates the joiner's table and advertises it
        // to the nodes it probes (maintenance traffic: not counted in
        // operation stats).
        let (_, _) = inner.iterative_find(&id, Some(id));
        Some(id)
    }

    /// Crashes the node `id`, losing its stored replicas. Returns
    /// `false` for unknown ids or the last node.
    pub fn crash(&self, id: &U160) -> bool {
        let mut inner = self.inner.lock();
        if !inner.nodes.contains_key(id) || inner.nodes.len() == 1 {
            return false;
        }
        inner.nodes.remove(id);
        true
    }
}

impl<V: Clone> KademliaDht<V> {
    /// Re-replicates every stored key onto its current `k` closest
    /// nodes and prunes replicas that no longer belong — Kademlia's
    /// periodic republish, modeled as one pass. Transferred keys are
    /// counted in [`DhtStats::keys_transferred`].
    pub fn republish(&self) {
        let mut inner = self.inner.lock();
        let keys: HashSet<DhtKey> = inner
            .nodes
            .values()
            .flat_map(|n| n.store.keys().cloned())
            .collect();
        let mut moved = 0u64;
        for key in keys {
            let h = key.hash();
            let closest = inner.k_closest_oracle(&h);
            // Fetch the value from any current holder.
            let value = inner
                .nodes
                .values()
                .find_map(|n| n.store.get(&key))
                .cloned();
            let Some(value) = value else { continue };
            let target: HashSet<U160> = closest.iter().copied().collect();
            for (nid, node) in inner.nodes.iter_mut() {
                let has = node.store.contains_key(&key);
                let should = target.contains(nid);
                if should && !has {
                    node.store.insert(key.clone(), value.clone());
                    moved += 1;
                } else if !should && has {
                    node.store.remove(&key);
                }
            }
        }
        inner.stats.keys_transferred += moved;
        inner.rebuild_all_tables();
    }
}

impl<V> Net<V> {
    fn bucket_index(a: &U160, b: &U160) -> Option<usize> {
        let d = *a ^ *b;
        if d == U160::ZERO {
            None
        } else {
            Some(d.leading_zeros() as usize)
        }
    }

    /// Rebuilds every node's k-buckets from global membership (the
    /// converged state a long-running network reaches).
    fn rebuild_all_tables(&mut self) {
        let ids: Vec<U160> = self.nodes.keys().copied().collect();
        for id in &ids {
            let mut buckets = vec![Vec::new(); U160::BITS as usize];
            for other in &ids {
                if let Some(i) = Self::bucket_index(id, other) {
                    buckets[i].push(*other);
                }
            }
            for bucket in &mut buckets {
                // Keep the k XOR-closest contacts per bucket.
                bucket.sort_by_key(|c| *c ^ *id);
                bucket.truncate(K);
            }
            self.nodes.get_mut(id).expect("node exists").buckets = buckets;
        }
    }

    /// The true `k` closest live nodes to `h` (placement oracle).
    fn k_closest_oracle(&self, h: &U160) -> Vec<U160> {
        let mut ids: Vec<U160> = self.nodes.keys().copied().collect();
        ids.sort_by_key(|id| *id ^ *h);
        ids.truncate(K);
        ids
    }

    /// A node's view: its `k` closest known contacts to `target`.
    fn node_closest(&self, node: &U160, target: &U160) -> Vec<U160> {
        let mut out: Vec<U160> = self.nodes[node]
            .buckets
            .iter()
            .flatten()
            .copied()
            .filter(|c| self.nodes.contains_key(c))
            .collect();
        out.push(*node);
        out.sort_by_key(|c| *c ^ *target);
        out.dedup();
        out.truncate(K);
        out
    }

    /// Iterative FIND_NODE: returns the queried-and-alive nodes
    /// sorted by distance to `target`, and the hop count (one per
    /// probe). When `advertise` is set, probed nodes insert that id
    /// into their buckets (used by joins).
    fn iterative_find(&mut self, target: &U160, advertise: Option<U160>) -> (Vec<U160>, u64) {
        let start = self.draw_initiator();
        self.iterative_find_from(&start, target, advertise)
    }

    /// Draws a random live node to act as the querying client.
    fn draw_initiator(&mut self) -> U160 {
        let ids: Vec<U160> = self.nodes.keys().copied().collect();
        debug_assert!(!ids.is_empty());
        ids[self.rng.gen_range(0..ids.len())]
    }

    /// [`iterative_find`](Self::iterative_find) from a fixed starting
    /// node. Batched rounds share one initiator across their lookups
    /// — one client issues the whole round — while each lookup still
    /// probes (and is charged hops) independently.
    fn iterative_find_from(
        &mut self,
        start: &U160,
        target: &U160,
        advertise: Option<U160>,
    ) -> (Vec<U160>, u64) {
        let start = *start;
        let mut shortlist: Vec<U160> = self.node_closest(&start, target);
        if !shortlist.contains(&start) {
            shortlist.push(start);
        }
        let mut queried: HashSet<U160> = HashSet::new();
        let mut hops = 0u64;
        loop {
            shortlist.sort_by_key(|c| *c ^ *target);
            shortlist.dedup();
            // Probe the α closest unqueried candidates.
            let batch: Vec<U160> = shortlist
                .iter()
                .filter(|c| !queried.contains(*c) && self.nodes.contains_key(*c))
                .take(ALPHA)
                .copied()
                .collect();
            if batch.is_empty() {
                break;
            }
            for probe in batch {
                hops += 1;
                if hops > MAX_HOPS {
                    break;
                }
                queried.insert(probe);
                let learned = self.node_closest(&probe, target);
                shortlist.extend(learned);
                if let Some(adv) = advertise {
                    if adv != probe {
                        if let Some(i) = Self::bucket_index(&probe, &adv) {
                            let bucket =
                                &mut self.nodes.get_mut(&probe).expect("probed alive").buckets[i];
                            if !bucket.contains(&adv) {
                                bucket.insert(0, adv);
                                bucket.truncate(K);
                            }
                        }
                    }
                }
            }
            if hops > MAX_HOPS {
                break;
            }
            // Termination: the k closest candidates have all been
            // queried.
            shortlist.sort_by_key(|c| *c ^ *target);
            shortlist.dedup();
            let done = shortlist
                .iter()
                .filter(|c| self.nodes.contains_key(*c))
                .take(K)
                .all(|c| queried.contains(c));
            if done {
                break;
            }
        }
        let mut found: Vec<U160> = queried.into_iter().collect();
        found.sort_by_key(|c| *c ^ *target);
        (found, hops)
    }

    fn route(&mut self, h: &U160) -> Result<(Vec<U160>, u64), DhtError> {
        if self.nodes.is_empty() {
            return Err(DhtError::EmptyRing);
        }
        let (found, hops) = self.iterative_find(h, None);
        if hops > MAX_HOPS {
            return Err(DhtError::RoutingFailed { hops });
        }
        Ok((found, hops))
    }

    /// [`route`](Self::route) from a fixed initiator, for batched
    /// rounds.
    fn route_from(&mut self, start: &U160, h: &U160) -> Result<(Vec<U160>, u64), DhtError> {
        if self.nodes.is_empty() {
            return Err(DhtError::EmptyRing);
        }
        let (found, hops) = self.iterative_find_from(start, h, None);
        if hops > MAX_HOPS {
            return Err(DhtError::RoutingFailed { hops });
        }
        Ok((found, hops))
    }

    /// Whether a location-cache probe at `hint` may serve `h`: the
    /// node must be live and still be the XOR-closest node to `h` —
    /// the stand-in for "owner" under the Kademlia metric, and the
    /// node a routed lookup is guaranteed to query.
    fn probe_verifies(&self, hint: &U160, h: &U160) -> bool {
        self.nodes.contains_key(hint) && self.k_closest_oracle(h).first() == Some(hint)
    }
}

impl<V: Clone> Net<V> {
    /// Serves a verified read probe for `key` at `hint`, or reports
    /// it stale. Kademlia replicates on the k closest nodes and a key
    /// may legitimately be missing from the *current* closest (a
    /// joiner that republish has not yet backfilled), so a store miss
    /// at the hint while a replica-set neighbour still holds the key
    /// is answered `Stale` — the full route will find the copy. A
    /// probe can therefore never turn a live key into a false miss.
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
    /// the routed `put` would. Returns the charged hops.
    fn probe_write(&mut self, key: &DhtKey, value: V, hint: &U160) -> Probe<u64> {
        let h = key.hash();
        if !self.probe_verifies(hint, &h) {
            self.stats.hops += 1;
            return Probe::Stale;
        }
        let targets = self.k_closest_oracle(&h);
        let hops = targets.len() as u64; // 1 probe + (k-1) fan-out
        for t in targets {
            self.nodes
                .get_mut(&t)
                .expect("oracle nodes are alive")
                .store
                .insert(key.clone(), value.clone());
        }
        Probe::Served(hops)
    }
}

impl<V: Clone> Dht for KademliaDht<V> {
    type Value = V;

    fn get(&self, key: &DhtKey) -> Result<Option<V>, DhtError> {
        let mut inner = self.inner.lock();
        let (found, hops) = inner.route(&key.hash())?;
        let hit = found
            .iter()
            .take(K)
            .find_map(|n| inner.nodes[n].store.get(key).cloned());
        inner.stats.record_op(
            DhtOp::Get {
                found: hit.is_some(),
            },
            hops,
        );
        Ok(hit)
    }

    fn put(&self, key: &DhtKey, value: V) -> Result<(), DhtError> {
        let mut inner = self.inner.lock();
        let (found, hops) = inner.route(&key.hash())?;
        let targets: Vec<U160> = found.into_iter().take(K).collect();
        inner
            .stats
            .record_op(DhtOp::Put, hops + targets.len().saturating_sub(1) as u64);
        for t in targets {
            inner
                .nodes
                .get_mut(&t)
                .expect("found nodes are alive")
                .store
                .insert(key.clone(), value.clone());
        }
        Ok(())
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
        if inner.nodes.is_empty() {
            return keys.iter().map(|_| Err(DhtError::EmptyRing)).collect();
        }
        let start = inner.draw_initiator();
        let mut out = Vec::with_capacity(keys.len());
        let mut ops = Vec::with_capacity(keys.len());
        for key in keys {
            match inner.route_from(&start, &key.hash()) {
                Ok((found, hops)) => {
                    let hit = found
                        .iter()
                        .take(K)
                        .find_map(|n| inner.nodes[n].store.get(key).cloned());
                    ops.push((
                        DhtOp::Get {
                            found: hit.is_some(),
                        },
                        hops,
                    ));
                    out.push(Ok(hit));
                }
                Err(e) => out.push(Err(e)),
            }
        }
        inner.stats.record_batch(ops);
        out
    }

    fn multi_put(&self, entries: Vec<(DhtKey, V)>) -> Vec<Result<(), DhtError>> {
        let mut inner = self.inner.lock();
        if inner.nodes.is_empty() {
            return entries.iter().map(|_| Err(DhtError::EmptyRing)).collect();
        }
        let start = inner.draw_initiator();
        let mut out = Vec::with_capacity(entries.len());
        let mut ops = Vec::with_capacity(entries.len());
        for (key, value) in entries {
            match inner.route_from(&start, &key.hash()) {
                Ok((found, hops)) => {
                    let targets: Vec<U160> = found.into_iter().take(K).collect();
                    ops.push((DhtOp::Put, hops + targets.len().saturating_sub(1) as u64));
                    for t in targets {
                        inner
                            .nodes
                            .get_mut(&t)
                            .expect("found nodes are alive")
                            .store
                            .insert(key.clone(), value.clone());
                    }
                    out.push(Ok(()));
                }
                Err(e) => out.push(Err(e)),
            }
        }
        inner.stats.record_batch(ops);
        out
    }

    fn probe_get(&self, key: &DhtKey, owner: U160) -> Result<Probe<Option<V>>, DhtError> {
        let mut inner = self.inner.lock();
        if inner.nodes.is_empty() {
            return Err(DhtError::EmptyRing);
        }
        match inner.probe_read(key, &owner) {
            Probe::Served(hit) => {
                inner.stats.record_op(
                    DhtOp::Get {
                        found: hit.is_some(),
                    },
                    1,
                );
                Ok(Probe::Served(hit))
            }
            Probe::Stale => Ok(Probe::Stale),
            Probe::Unsupported => Ok(Probe::Unsupported),
        }
    }

    fn probe_put(&self, key: &DhtKey, value: V, owner: U160) -> Result<Probe<()>, DhtError> {
        let mut inner = self.inner.lock();
        if inner.nodes.is_empty() {
            return Err(DhtError::EmptyRing);
        }
        match inner.probe_write(key, value, &owner) {
            Probe::Served(hops) => {
                inner.stats.record_op(DhtOp::Put, hops);
                Ok(Probe::Served(()))
            }
            Probe::Stale => Ok(Probe::Stale),
            Probe::Unsupported => Ok(Probe::Unsupported),
        }
    }

    fn probe_multi_get(
        &self,
        probes: &[(DhtKey, U160)],
    ) -> Vec<Result<Probe<Option<V>>, DhtError>> {
        let mut inner = self.inner.lock();
        if inner.nodes.is_empty() {
            return probes.iter().map(|_| Err(DhtError::EmptyRing)).collect();
        }
        let mut out = Vec::with_capacity(probes.len());
        let mut ops = Vec::new();
        for (key, owner) in probes {
            match inner.probe_read(key, owner) {
                Probe::Served(hit) => {
                    ops.push((
                        DhtOp::Get {
                            found: hit.is_some(),
                        },
                        1,
                    ));
                    out.push(Ok(Probe::Served(hit)));
                }
                Probe::Stale => out.push(Ok(Probe::Stale)),
                Probe::Unsupported => out.push(Ok(Probe::Unsupported)),
            }
        }
        inner.stats.record_batch(ops);
        out
    }

    fn probe_multi_put(&self, entries: Vec<(DhtKey, V, U160)>) -> Vec<Result<Probe<()>, DhtError>> {
        let mut inner = self.inner.lock();
        if inner.nodes.is_empty() {
            return entries.iter().map(|_| Err(DhtError::EmptyRing)).collect();
        }
        let mut out = Vec::with_capacity(entries.len());
        let mut ops = Vec::new();
        for (key, value, owner) in entries {
            match inner.probe_write(&key, value, &owner) {
                Probe::Served(hops) => {
                    ops.push((DhtOp::Put, hops));
                    out.push(Ok(Probe::Served(())));
                }
                Probe::Stale => out.push(Ok(Probe::Stale)),
                Probe::Unsupported => out.push(Ok(Probe::Unsupported)),
            }
        }
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
    fn crash_is_masked_by_replication() {
        let dht: KademliaDht<u32> = KademliaDht::with_nodes(32, 9);
        for i in 0..200u32 {
            dht.put(&k(&format!("key:{i}")), i).unwrap();
        }
        // Crash a quarter of the network (fewer than k per key).
        let ids = dht.node_ids();
        for id in ids.iter().take(6) {
            assert!(dht.crash(id));
        }
        dht.republish();
        for i in 0..200u32 {
            assert_eq!(
                dht.get(&k(&format!("key:{i}"))).unwrap(),
                Some(i),
                "key {i} lost despite k = 8 replication"
            );
        }
    }

    #[test]
    fn join_then_republish_rebalances() {
        let dht: KademliaDht<u32> = KademliaDht::with_nodes(16, 11);
        for i in 0..100u32 {
            dht.put(&k(&format!("key:{i}")), i).unwrap();
        }
        for j in 0..8 {
            assert!(dht.join(&format!("late:{j}")).is_some());
        }
        assert!(dht.join("late:0").is_none(), "duplicate join rejected");
        dht.republish();
        assert_eq!(dht.node_count(), 24);
        for i in 0..100u32 {
            assert_eq!(dht.get(&k(&format!("key:{i}"))).unwrap(), Some(i));
        }
        // After republish, replicas sit on the *current* k closest.
        {
            let inner = dht.inner.lock();
            let key = k("key:42");
            for id in inner.k_closest_oracle(&key.hash()) {
                assert!(inner.nodes[&id].store.contains_key(&key));
            }
            // The guard must drop before calling back into the DHT —
            // Dht::stats() takes the same (non-reentrant) lock.
        }
        assert!(dht.stats().keys_transferred > 0);
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
        // A dead hint is stale too.
        assert!(dht.crash(&closest));
        assert_eq!(dht.probe_get(&key, closest).unwrap(), Probe::Stale);
    }

    #[test]
    fn unbackfilled_joiner_answers_stale_not_false_miss() {
        let dht: KademliaDht<u32> = KademliaDht::with_nodes(16, 23);
        let key = k("replicated");
        dht.put(&key, 11).unwrap();
        let old_closest = dht.owner_hint(&key).unwrap();
        // Join nodes until one is XOR-closer to the key than every
        // existing node; before republish it holds no copy.
        let h = key.hash();
        let joiner = (0..100_000u64)
            .map(|i| format!("kad:squatter:{i}"))
            .find(|name| sha1(name.as_bytes()) ^ h < old_closest ^ h)
            .expect("some candidate is closer");
        dht.join(&joiner).expect("fresh id");
        let hint = dht.owner_hint(&key).unwrap();
        assert_ne!(hint, old_closest);
        // The verified probe must not serve the joiner's empty store
        // as a miss while replicas still hold the key.
        assert_eq!(dht.probe_get(&key, hint).unwrap(), Probe::Stale);
        assert_eq!(dht.get(&key).unwrap(), Some(11), "the route finds a copy");
        // After republish backfills the joiner, the probe serves.
        dht.republish();
        assert_eq!(
            dht.probe_get(&key, dht.owner_hint(&key).unwrap()).unwrap(),
            Probe::Served(Some(11))
        );
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
    fn cached_stack_over_kademlia_cuts_hops_and_survives_churn() {
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
        // Churn: crash a node and join another, no republish yet.
        let victim = dht.inner().node_ids()[0];
        assert!(dht.inner().crash(&victim));
        dht.inner().join("kad:late");
        for i in 0..64u32 {
            assert_eq!(
                dht.get(&k(&format!("key:{i}"))).unwrap(),
                Some(i),
                "stale hints fall back to full routes, never wrong answers"
            );
        }
        let s = dht.stats();
        assert!(s.rounds <= s.lookups());
        assert!(s.round_hops <= s.hops);
    }

    #[test]
    fn kad_is_send_sync() {
        fn assert_bounds<T: Send + Sync>() {}
        assert_bounds::<KademliaDht<u64>>();
    }
}
