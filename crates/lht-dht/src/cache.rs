//! A churn-safe client-side location cache over any [`Dht`].
//!
//! Iterative DHT routing pays `O(log n)` hops per lookup, but the
//! access patterns an over-DHT index produces are heavily skewed:
//! range scans and min/max walks revisit the same leaf names over and
//! over. D1HT and ReCord (PAPERS.md) observe that a client which
//! simply *remembers* where a key lived last time can resolve most
//! lookups in a single hop — provided staleness under churn degrades
//! to extra hops, never to wrong answers.
//!
//! [`CachedDht`] implements that idea as a composable layer: a
//! bounded, strictly-LRU map from [`DhtKey`] to the owner node
//! learned from previous routed lookups. On a cached key the layer
//! issues a 1-hop *verified* probe ([`Dht::probe_get`] /
//! [`Dht::probe_put`]); the substrate checks that the hinted node is
//! live **and still responsible for the key** before serving, so a
//! hint invalidated by churn comes back [`Probe::Stale`] and the
//! layer falls back to a full route (one wasted hop — the D1HT lazy
//! repair path). Negative feedback evicts the stale entry and every
//! other entry pointing at the same node, since a departed or
//! displaced owner is stale for its whole neighborhood at once.
//!
//! The cache adds **zero maintenance traffic**: it learns only from
//! lookups the client was issuing anyway (via [`Dht::owner_hint`]),
//! matching the paper's low-maintenance thesis.
//!
//! # Composition order
//!
//! `CachedDht` belongs **outermost** in the production stack:
//!
//! ```text
//! CachedDht<RetriedDht<FaultyDht<ChordDht>>>
//! ```
//!
//! Probes issued by the cache then traverse the retry and fault
//! layers like any other RPC — a dropped probe is retried, an
//! exhausted probe falls back to the (equally retried) full route.
//! Nesting the cache *inside* `RetriedDht` would instead re-consult
//! the cache on every retry attempt and double-count hits; nesting it
//! inside `FaultyDht` would let probes bypass the lossy network
//! entirely. Both orders are tested in `tests/route_cache.rs`.
//!
//! # Determinism
//!
//! The cache is a pure function of its capacity and the operation
//! sequence: recency is the order of one linked list, eviction picks
//! the strictly least-recently-used entry, and nothing ever draws
//! from an RNG or iterates a hash table — so deterministic-simulation
//! schedules stay replay-exact with the cache in the stack.
//!
//! # Representation
//!
//! Entries are keyed by the key's ring digest ([`DhtKey::hash`],
//! memoized in the key), not by its bytes. Every substrate that
//! answers [`Dht::owner_hint`] places a key by that digest alone, so
//! two keys with one digest have one owner and a digest-keyed hint is
//! exactly as right as a bytes-keyed one — and the entry becomes a
//! small `Copy` record. Recency is [`Lru`]'s linked slab (`lru.rs`),
//! the list `lht-core`'s standalone `NamingCache` keeps its labels in
//! too.

use parking_lot::Mutex;

use lht_id::U160;

use crate::{Dht, DhtError, DhtKey, DhtStats, Lru, Probe};

/// Which cost slot of a [`CacheHint`] a routed operation prices.
///
/// Reads (`get`) and writes (`put`/`remove`/`update`) can route very
/// differently: Kademlia stores at every k-closest replica, so a
/// write pays a fan-out a read never does. Pricing a read hit at a
/// write-learned cost would overstate [`DhtStats::hops_saved`] beyond
/// what an uncached twin actually pays, so each entry remembers the
/// two costs separately and a hit is credited only at its own kind's
/// learned cost (nothing when that kind never routed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RouteKind {
    /// A routed `get`.
    Read,
    /// A routed `put`, `remove` or `update`.
    Write,
}

/// What a cache lookup hands back to the probing fast path: the
/// remembered owner plus the per-kind learned route costs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct CacheHint {
    owner: U160,
    /// Hops the last *routed read* for this key paid, if any read
    /// ever routed — the savings estimate credited to a read hit.
    read_hops: Option<u64>,
    /// Hops the last *routed write* for this key paid, if any write
    /// ever routed — the savings estimate credited to a write hit.
    write_hops: Option<u64>,
}

impl CacheHint {
    /// The learned full-route cost for `kind`, or `None` when no op
    /// of that kind ever routed for this key (the hit then credits
    /// nothing — better to under-claim than to price a cheap read at
    /// an expensive write's cost).
    fn cost(&self, kind: RouteKind) -> Option<u64> {
        match kind {
            RouteKind::Read => self.read_hops,
            RouteKind::Write => self.write_hops,
        }
    }

    fn set_cost(&mut self, kind: RouteKind, route_hops: u64) {
        match kind {
            RouteKind::Read => self.read_hops = Some(route_hops),
            RouteKind::Write => self.write_hops = Some(route_hops),
        }
    }
}

/// The remembered locations in strict-LRU order, keyed by ring digest,
/// and the layer's own counters.
#[derive(Default)]
struct CacheState {
    lru: Lru<U160, CacheHint>,
    extra: DhtStats,
}

impl CacheState {
    /// Looks up `key`, refreshing its recency on a hit. An empty cache
    /// answers before asking for the digest, so a stack that never
    /// learns a location never hashes a key on the cache's account.
    fn lookup(&mut self, key: &DhtKey) -> Option<CacheHint> {
        if self.lru.is_empty() {
            return None;
        }
        self.lru.get(&key.hash()).copied()
    }

    /// Inserts or refreshes `key → owner`, pricing the `kind` cost
    /// slot at `route_hops` (the other kind's learned cost is kept)
    /// and evicting the LRU entry when full.
    fn learn(
        &mut self,
        key: &DhtKey,
        owner: U160,
        kind: RouteKind,
        route_hops: u64,
        capacity: usize,
    ) {
        if capacity == 0 {
            return;
        }
        let digest = key.hash();
        if let Some(hint) = self.lru.get(&digest) {
            hint.owner = owner;
            hint.set_cost(kind, route_hops);
            return;
        }
        while self.lru.len() >= capacity {
            self.lru.pop_lru();
        }
        let mut hint = CacheHint {
            owner,
            read_hops: None,
            write_hops: None,
        };
        hint.set_cost(kind, route_hops);
        self.lru.insert(digest, hint);
    }

    /// Removes `key`'s entry, if any.
    fn evict(&mut self, key: &DhtKey) {
        self.lru.remove(&key.hash());
    }

    /// Negative feedback after a stale probe: drop every entry that
    /// points at `owner` — a node found departed (or displaced by a
    /// joiner) is stale for all the keys it was remembered for.
    fn invalidate_owner(&mut self, owner: &U160) {
        self.lru.retain(|_, hint| hint.owner != *owner);
    }
}

/// A routing-cache layer over any [`Dht`] — see the comment at the
/// top of `cache.rs` for the design.
///
/// # Examples
///
/// ```
/// use lht_dht::{CachedDht, ChordDht, Dht, DhtKey};
///
/// let ring: ChordDht<u64> = ChordDht::with_nodes(32, 7);
/// let dht = CachedDht::with_capacity(ring, 256);
/// let key = DhtKey::from("leaf#42");
/// dht.put(&key, 1)?; // full route; owner learned
/// dht.get(&key)?; // verified 1-hop probe
/// let stats = dht.stats();
/// assert_eq!(stats.cache_hits, 1);
/// assert!(stats.hit_rate() > 0.0);
/// # Ok::<(), lht_dht::DhtError>(())
/// ```
pub struct CachedDht<D> {
    inner: D,
    /// Maximum number of key → owner entries held; beyond it the
    /// strictly least-recently-used entry is evicted. `0` disables
    /// the cache (every lookup takes the full route).
    capacity: usize,
    state: Mutex<CacheState>,
}

impl<D> CachedDht<D> {
    /// Wraps `inner` with a cache of `capacity` entries.
    pub fn with_capacity(inner: D, capacity: usize) -> CachedDht<D> {
        CachedDht {
            inner,
            capacity,
            state: Mutex::new(CacheState::default()),
        }
    }

    /// The wrapped substrate.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Number of locations currently remembered.
    pub fn len(&self) -> usize {
        self.state.lock().lru.len()
    }

    /// Whether the cache currently remembers nothing.
    pub fn is_empty(&self) -> bool {
        self.state.lock().lru.is_empty()
    }
}

/// One entry of a cached round: its key, and the probe and routed
/// requests it becomes — a bare key for reads, a key and value for
/// writes.
trait Entry {
    /// The entry as an owner probe.
    type Probe;
    /// The entry as a routed request.
    type Route;
    fn key(&self) -> &DhtKey;
    fn probe(&self, owner: U160) -> Self::Probe;
    fn route(self) -> Self::Route;
}

impl Entry for &DhtKey {
    type Probe = (DhtKey, U160);
    type Route = DhtKey;
    fn key(&self) -> &DhtKey {
        self
    }
    fn probe(&self, owner: U160) -> (DhtKey, U160) {
        ((*self).clone(), owner)
    }
    fn route(self) -> DhtKey {
        self.clone()
    }
}

impl<V: Clone> Entry for (DhtKey, V) {
    type Probe = (DhtKey, V, U160);
    type Route = (DhtKey, V);
    fn key(&self) -> &DhtKey {
        &self.0
    }
    fn probe(&self, owner: U160) -> (DhtKey, V, U160) {
        (self.0.clone(), self.1.clone(), owner)
    }
    fn route(self) -> (DhtKey, V) {
        self
    }
}

impl<D: Dht> CachedDht<D> {
    /// Handles the aftermath of a probe at `owner` that did not serve
    /// `key`, before the caller falls back to the full route.
    fn on_unserved<T>(
        st: &mut CacheState,
        key: &DhtKey,
        owner: &U160,
        outcome: &Result<Probe<T>, DhtError>,
    ) {
        match outcome {
            // Negative feedback: the hint is wrong, and so is every
            // other hint at the same owner.
            Ok(Probe::Stale) => {
                st.extra.cache_stale += 1;
                st.evict(key);
                st.invalidate_owner(owner);
            }
            // The substrate cannot probe, so remembering locations is
            // pointless.
            Ok(Probe::Unsupported) => st.evict(key),
            // The probe RPC itself failed (dropped/timed out through a
            // fault layer, retries exhausted). The hint may still be
            // good — keep it; the full route refreshes it on success
            // anyway.
            Ok(Probe::Served(_)) | Err(_) => {}
        }
    }

    /// Learns `key`'s owner after a routed operation of `kind` that
    /// cost `route_hops`, optionally counting a cache miss (misses
    /// are counted only on the genuinely-uncached path, not on the
    /// stale-fallback re-route, which was already counted as stale).
    fn learn_after_route(
        &self,
        st: &mut CacheState,
        key: &DhtKey,
        kind: RouteKind,
        route_hops: u64,
        count_miss: bool,
    ) {
        let Some(owner) = self.inner.owner_hint(key) else {
            return;
        };
        if count_miss {
            st.extra.cache_misses += 1;
        }
        st.learn(key, owner, kind, route_hops.max(1), self.capacity);
    }

    /// Credits served probes: the routed operations would have paid
    /// about `route_hops` between them (only routes of the same kind
    /// ever observed count — an unknown cost credits nothing); the
    /// probes actually charged `charged`, wasted stale hops included.
    fn credit_hits(st: &mut CacheState, hits: u64, route_hops: u64, charged: u64) {
        st.extra.cache_hits += hits;
        st.extra.hops_saved += route_hops.saturating_sub(charged);
    }

    /// Runs the routed operation `op` and learns the owner from it
    /// when it succeeds.
    fn routed<T>(
        &self,
        key: &DhtKey,
        kind: RouteKind,
        count_miss: bool,
        op: impl FnOnce() -> Result<T, DhtError>,
    ) -> Result<T, DhtError> {
        let before = self.inner.hops();
        let out = op();
        if out.is_ok() {
            let route_hops = self.inner.hops() - before;
            self.learn_after_route(&mut self.state.lock(), key, kind, route_hops, count_miss);
        }
        out
    }

    /// One single op of `kind`: a verified probe at the remembered
    /// owner when there is one, else — or when the probe was not
    /// served — the full route. `arg` is what the op carries (the value
    /// of a write); the probe borrows it, the route takes it.
    fn single<A, T>(
        &self,
        key: &DhtKey,
        kind: RouteKind,
        arg: A,
        probe: impl FnOnce(&A, U160) -> Result<Probe<T>, DhtError>,
        route: impl FnOnce(A) -> Result<T, DhtError>,
    ) -> Result<T, DhtError> {
        let hint = self.state.lock().lookup(key);
        let Some(hint) = hint else {
            return self.routed(key, kind, true, || route(arg));
        };
        let before = self.inner.hops();
        match probe(&arg, hint.owner) {
            Ok(Probe::Served(value)) => {
                let charged = self.inner.hops() - before;
                let learned = hint.cost(kind).unwrap_or(0);
                Self::credit_hits(&mut self.state.lock(), 1, learned, charged);
                return Ok(value);
            }
            unserved => Self::on_unserved(&mut self.state.lock(), key, &hint.owner, &unserved),
        }
        self.routed(key, kind, false, || route(arg))
    }

    /// One batch of `kind` as at most two rounds: entries with a
    /// remembered owner go to one probe round, the rest — and every
    /// probe that was not served — to one full-route round.
    fn round<E: Entry, T>(
        &self,
        entries: Vec<E>,
        kind: RouteKind,
        probe: impl FnOnce(Vec<E::Probe>) -> Vec<Result<Probe<T>, DhtError>>,
        route: impl FnOnce(Vec<E::Route>) -> Vec<Result<T, DhtError>>,
    ) -> Vec<Result<T, DhtError>> {
        let mut slots: Vec<Option<Result<T, DhtError>>> = entries.iter().map(|_| None).collect();
        // Split under one lock. Routed entries carry whether they count
        // as a miss (a stale fallback was already counted as stale).
        let mut hinted: Vec<(usize, CacheHint)> = Vec::new();
        let mut routed: Vec<(usize, bool)> = Vec::new();
        {
            let mut st = self.state.lock();
            for (i, entry) in entries.iter().enumerate() {
                match st.lookup(entry.key()) {
                    Some(hint) => hinted.push((i, hint)),
                    None => routed.push((i, true)),
                }
            }
        }
        if !hinted.is_empty() {
            let before = self.inner.hops();
            let request = hinted.iter().map(|(i, hint)| entries[*i].probe(hint.owner));
            let outcomes = probe(request.collect());
            let charged = self.inner.hops() - before;
            let (mut hits, mut learned) = (0, 0);
            let mut st = self.state.lock();
            for ((i, hint), outcome) in hinted.into_iter().zip(outcomes) {
                match outcome {
                    Ok(Probe::Served(value)) => {
                        hits += 1;
                        learned += hint.cost(kind).unwrap_or(0);
                        slots[i] = Some(Ok(value));
                    }
                    unserved => {
                        Self::on_unserved(&mut st, entries[i].key(), &hint.owner, &unserved);
                        routed.push((i, false));
                    }
                }
            }
            // Stale probes' wasted hops come out of the savings — a
            // stale hit costs one extra hop over the uncached run.
            Self::credit_hits(&mut st, hits, learned, charged);
        }
        if !routed.is_empty() {
            routed.sort_unstable_by_key(|(i, _)| *i);
            let mut next = routed.iter().map(|(i, _)| *i).peekable();
            let mut keys = Vec::with_capacity(routed.len());
            let mut request = Vec::with_capacity(routed.len());
            for (i, entry) in entries.into_iter().enumerate() {
                if next.next_if_eq(&i).is_some() {
                    keys.push(entry.key().clone());
                    request.push(entry.route());
                }
            }
            let before = self.inner.hops();
            let results = route(request);
            let per_key = ((self.inner.hops() - before) / keys.len() as u64).max(1);
            let mut st = self.state.lock();
            for (((i, count_miss), key), result) in routed.into_iter().zip(&keys).zip(results) {
                if result.is_ok() {
                    self.learn_after_route(&mut st, key, kind, per_key, count_miss);
                }
                slots[i] = Some(result);
            }
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every entry settled by probe or route"))
            .collect()
    }
}

impl<D: Dht> Dht for CachedDht<D>
where
    D::Value: Clone,
{
    type Value = D::Value;

    fn get(&self, key: &DhtKey) -> Result<Option<D::Value>, DhtError> {
        let probe = |_: &(), owner| self.inner.probe_get(key, owner);
        self.single(key, RouteKind::Read, (), probe, |()| self.inner.get(key))
    }

    fn put(&self, key: &DhtKey, value: D::Value) -> Result<(), DhtError> {
        let probe = |value: &D::Value, owner| self.inner.probe_put(key, value.clone(), owner);
        self.single(key, RouteKind::Write, value, probe, |value| {
            self.inner.put(key, value)
        })
    }

    fn remove(&self, key: &DhtKey) -> Result<Option<D::Value>, DhtError> {
        // A remove routes like anything else — learn from it, but it
        // never consulted the cache, so no miss is counted.
        self.routed(key, RouteKind::Write, false, || self.inner.remove(key))
    }

    fn update(
        &self,
        key: &DhtKey,
        f: &mut dyn FnMut(&mut Option<D::Value>),
    ) -> Result<(), DhtError> {
        self.routed(key, RouteKind::Write, false, || self.inner.update(key, f))
    }

    fn multi_get(&self, keys: &[DhtKey]) -> Vec<Result<Option<D::Value>, DhtError>> {
        self.round(
            keys.iter().collect(),
            RouteKind::Read,
            |probes| self.inner.probe_multi_get(&probes),
            |keys| self.inner.multi_get(&keys),
        )
    }

    fn multi_put(&self, entries: Vec<(DhtKey, D::Value)>) -> Vec<Result<(), DhtError>> {
        self.round(
            entries,
            RouteKind::Write,
            |probes| self.inner.probe_multi_put(probes),
            |entries| self.inner.multi_put(entries),
        )
    }

    // Stacked caches compose: probes and hints pass straight through.
    fn probe_multi_get(
        &self,
        probes: &[(DhtKey, U160)],
    ) -> Vec<Result<Probe<Option<D::Value>>, DhtError>> {
        self.inner.probe_multi_get(probes)
    }

    fn probe_multi_put(
        &self,
        entries: Vec<(DhtKey, D::Value, U160)>,
    ) -> Vec<Result<Probe<()>, DhtError>> {
        self.inner.probe_multi_put(entries)
    }

    fn owner_hint(&self, key: &DhtKey) -> Option<U160> {
        self.inner.owner_hint(key)
    }

    /// Warms per-key state without routing: the key's ring digest is
    /// computed (and memoized) and a cached location's recency is
    /// refreshed so an imminent batch finds it resident.
    fn prewarm(&self, keys: &[DhtKey]) {
        {
            let mut st = self.state.lock();
            for key in keys {
                let _ = key.hash();
                let _ = st.lookup(key);
            }
        }
        self.inner.prewarm(keys);
    }

    fn hops(&self) -> u64 {
        // The cache's own ledger counts hits and savings, never hops.
        self.inner.hops()
    }

    fn stats(&self) -> DhtStats {
        self.inner.stats() + self.state.lock().extra
    }

    fn reset_stats(&self) {
        self.inner.reset_stats();
        self.state.lock().extra = DhtStats::default();
    }
}

#[cfg(test)]
mod model;

#[cfg(test)]
mod tests {
    use super::model::ModelState;
    use super::*;
    use crate::{ChordConfig, ChordDht, DirectDht};
    use proptest::prelude::*;

    fn k(s: &str) -> DhtKey {
        DhtKey::from(s)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The slab list against the stamp-ordered maps it replaced:
        /// every lookup hands back the same hint and every step leaves
        /// the same entries in the same recency order.
        #[test]
        fn slab_lru_matches_the_stamp_ordered_model(
            capacity in 0usize..9,
            script in proptest::collection::vec((0u8..6, 0u8..12, 0u8..4, 1u64..9), 0..200),
        ) {
            let keys: Vec<DhtKey> = (0..12).map(|i| k(&format!("#{i:04b}"))).collect();
            let mut state = CacheState::default();
            let mut model = ModelState::default();
            for (step, &(op, key, owner, hops)) in script.iter().enumerate() {
                let key = &keys[key as usize];
                let owner = U160::from_u64(owner as u64);
                match op {
                    0 | 1 => prop_assert_eq!(state.lookup(key), model.lookup(key), "step {}", step),
                    2 | 3 => {
                        let kind = if op == 2 { RouteKind::Read } else { RouteKind::Write };
                        state.learn(key, owner, kind, hops, capacity);
                        model.learn(key, owner, kind, hops, capacity);
                    }
                    4 => {
                        state.evict(key);
                        model.evict(key);
                    }
                    _ => {
                        state.invalidate_owner(&owner);
                        model.invalidate_owner(&owner);
                    }
                }
                prop_assert_eq!(state.lru.audit(), model.recency_order(), "step {}", step);
                prop_assert!(state.lru.slab().0 <= capacity, "slab outgrew the capacity");
            }
        }
    }

    #[test]
    fn vacated_slots_are_reused() {
        let keys: Vec<DhtKey> = (0..10).map(|i| k(&format!("key:{i}"))).collect();
        let (a, b) = (U160::from_u64(1), U160::from_u64(2));
        let mut st = CacheState::default();
        // Eviction hands the victim's slot to the newcomer.
        for key in &keys {
            st.learn(key, a, RouteKind::Read, 3, 4);
        }
        assert_eq!(st.lru.slab(), (4, 0));
        // Invalidation frees slots; the next learns take them back.
        st.learn(&keys[8], b, RouteKind::Write, 2, 4);
        st.invalidate_owner(&a);
        assert_eq!((st.lru.len(), st.lru.slab().1), (1, 3));
        for key in &keys[..3] {
            st.learn(key, b, RouteKind::Read, 3, 4);
        }
        assert_eq!(st.lru.slab(), (4, 0));
        let order: Vec<U160> = [2, 1, 0, 8].iter().map(|&i| keys[i].hash()).collect();
        assert_eq!(st.lru.audit(), order);
        // `clear` drops the slab with the entries.
        st.lru.clear();
        assert!(st.lru.audit().is_empty());
        assert_eq!(st.lru.slab(), (0, 0));
        assert_eq!(st.lookup(&keys[0]), None);
        for key in &keys[..6] {
            st.learn(key, a, RouteKind::Write, 1, 4);
        }
        assert_eq!((st.lru.slab().0, st.lru.len()), (4, 4));
        assert_eq!(st.lookup(&keys[5]).map(|h| h.write_hops), Some(Some(1)));
    }

    #[test]
    fn direct_substrate_is_transparent_and_never_caches() {
        let dht = CachedDht::with_capacity(DirectDht::<u64>::new(), 64);
        dht.put(&k("a"), 1).unwrap();
        assert_eq!(dht.get(&k("a")).unwrap(), Some(1));
        assert_eq!(dht.get(&k("b")).unwrap(), None);
        // DirectDht exposes no owner hints, so nothing is learned and
        // nothing is ever probed.
        assert!(dht.is_empty());
        let s = dht.stats();
        assert_eq!(s.cache_hits, 0);
        assert_eq!(s.cache_stale, 0);
        assert_eq!(s.hops_saved, 0);
        assert_eq!(s.hit_rate(), 0.0);
    }

    #[test]
    fn second_lookup_is_a_one_hop_hit() {
        let ring: ChordDht<u64> = ChordDht::with_nodes(32, 11);
        let dht = CachedDht::with_capacity(ring, 64);
        let key = k("hot");
        dht.put(&key, 7).unwrap(); // full route, learns the owner
        dht.reset_stats();
        assert_eq!(dht.get(&key).unwrap(), Some(7));
        let s = dht.stats();
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 0);
        assert_eq!(s.hops, 1, "a verified probe is one hop");
        assert_eq!(s.hit_rate(), 1.0);
    }

    #[test]
    fn stale_hint_degrades_to_full_route_never_wrong_answer() {
        let ring: ChordDht<u64> = ChordDht::with_nodes(16, 13);
        let dht = CachedDht::with_capacity(ring, 64);
        let key = k("moves");
        dht.put(&key, 1).unwrap();
        // The owner departs; the cached hint is now stale.
        let owner = dht.inner().owner_of_key(&key).unwrap();
        assert!(dht.inner().leave(&owner));
        dht.inner().stabilize(2);
        dht.reset_stats();
        assert_eq!(dht.get(&key).unwrap(), Some(1), "the answer is still right");
        let s = dht.stats();
        assert_eq!(s.cache_stale, 1);
        assert_eq!(s.cache_hits, 0);
        assert!(s.hops >= 2, "one wasted hop + the full route");
        // The fallback re-learned the new owner: next get is a hit.
        dht.reset_stats();
        assert_eq!(dht.get(&key).unwrap(), Some(1));
        assert_eq!(dht.stats().cache_hits, 1);
    }

    #[test]
    fn stale_probe_invalidates_the_whole_owner_neighborhood() {
        let cfg = ChordConfig::default();
        let ring: ChordDht<u64> = ChordDht::with_config(8, 17, cfg);
        let dht = CachedDht::with_capacity(ring, 256);
        // Find two keys owned by the same node.
        let mut by_owner: std::collections::HashMap<U160, Vec<DhtKey>> =
            std::collections::HashMap::new();
        for i in 0..64u64 {
            let key = k(&format!("key:{i}"));
            dht.put(&key, i).unwrap();
            let owner = dht.inner().owner_of_key(&key).unwrap();
            by_owner.entry(owner).or_default().push(key);
        }
        let (owner, keys) = by_owner
            .into_iter()
            .find(|(_, ks)| ks.len() >= 2)
            .expect("some node owns two keys");
        assert!(dht.inner().leave(&owner));
        dht.inner().stabilize(2);
        // One stale probe on the first key must evict the second
        // key's entry too: its next lookup is a *miss*, not stale.
        dht.reset_stats();
        dht.get(&keys[0]).unwrap();
        dht.get(&keys[1]).unwrap();
        let s = dht.stats();
        assert_eq!(s.cache_stale, 1);
        assert_eq!(s.cache_misses, 1);
    }

    #[test]
    fn capacity_is_bounded_and_eviction_is_strict_lru() {
        let ring: ChordDht<u64> = ChordDht::with_nodes(32, 19);
        let dht = CachedDht::with_capacity(ring, 4);
        for i in 0..8u64 {
            dht.put(&k(&format!("key:{i}")), i).unwrap();
        }
        assert_eq!(dht.len(), 4);
        // keys 4..8 are resident; key 4 is now the LRU. Touch it,
        // then insert a fresh key: key 5 (the new LRU) must go.
        dht.get(&k("key:4")).unwrap();
        dht.put(&k("key:8"), 8).unwrap();
        dht.reset_stats();
        dht.get(&k("key:4")).unwrap();
        assert_eq!(dht.stats().cache_hits, 1, "touched entry survived");
        dht.get(&k("key:5")).unwrap();
        assert_eq!(dht.stats().cache_misses, 1, "LRU entry was evicted");
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let ring: ChordDht<u64> = ChordDht::with_nodes(16, 23);
        let dht = CachedDht::with_capacity(ring, 0);
        let key = k("a");
        dht.put(&key, 1).unwrap();
        assert_eq!(dht.get(&key).unwrap(), Some(1));
        assert!(dht.is_empty());
        assert_eq!(dht.stats().cache_hits, 0);
    }

    #[test]
    fn batch_splits_into_probe_and_route_rounds() {
        let ring: ChordDht<u64> = ChordDht::with_nodes(32, 29);
        let dht = CachedDht::with_capacity(ring, 64);
        let keys: Vec<DhtKey> = (0..8u64).map(|i| k(&format!("key:{i}"))).collect();
        for (i, key) in keys.iter().enumerate() {
            dht.put(key, i as u64).unwrap();
        }
        // Forget half the entries so the batch genuinely splits.
        for key in &keys[4..] {
            dht.state.lock().evict(key);
        }
        dht.reset_stats();
        let out = dht.multi_get(&keys);
        for (i, result) in out.iter().enumerate() {
            assert_eq!(result.as_ref().unwrap(), &Some(i as u64));
        }
        let s = dht.stats();
        assert_eq!(s.cache_hits, 4);
        assert_eq!(s.cache_misses, 4);
        assert_eq!(s.gets, 8);
        assert!(s.rounds <= 2, "one probe round + one routed round");
        assert!(s.rounds <= s.lookups());
        assert!(s.round_hops <= s.hops);
        // A warm repeat is a single all-probe round.
        dht.reset_stats();
        let out = dht.multi_get(&keys);
        assert!(out.iter().all(|r| r.is_ok()));
        let s = dht.stats();
        assert_eq!(s.cache_hits, 8);
        assert_eq!(s.rounds, 1);
        assert_eq!(s.hops, 8);
        assert_eq!(s.round_hops, 1);
    }

    #[test]
    fn batched_and_unbatched_answers_agree_under_churn() {
        let ring: ChordDht<u64> = ChordDht::with_nodes(16, 31);
        let dht = CachedDht::with_capacity(ring, 64);
        let keys: Vec<DhtKey> = (0..12u64).map(|i| k(&format!("key:{i}"))).collect();
        let entries: Vec<(DhtKey, u64)> = keys
            .iter()
            .enumerate()
            .map(|(i, key)| (key.clone(), i as u64))
            .collect();
        for r in dht.multi_put(entries) {
            r.unwrap();
        }
        // Churn a node out so some cached locations go stale.
        let victim = dht.inner().owner_of_key(&keys[0]).unwrap();
        assert!(dht.inner().leave(&victim));
        dht.inner().stabilize(2);
        let out = dht.multi_get(&keys);
        for (i, result) in out.iter().enumerate() {
            assert_eq!(
                result.as_ref().unwrap(),
                &Some(i as u64),
                "stale entries must fall back, never serve old replicas"
            );
        }
        let s = dht.stats();
        assert!(s.cache_stale >= 1, "the departed owner was probed");
        assert!(s.rounds <= s.lookups());
        assert!(s.round_hops <= s.hops);
    }

    #[test]
    fn hops_saved_estimates_the_uncached_cost() {
        let ring: ChordDht<u64> = ChordDht::with_nodes(64, 37);
        let dht = CachedDht::with_capacity(ring, 256);
        let keys: Vec<DhtKey> = (0..32u64).map(|i| k(&format!("key:{i}"))).collect();
        // Cold routed gets first, so each key learns its *read* route
        // cost — hits are priced per op kind, and a read hit whose
        // read cost was never observed credits nothing.
        for key in &keys {
            assert_eq!(dht.get(key).unwrap(), None);
        }
        for (i, key) in keys.iter().enumerate() {
            dht.put(key, i as u64).unwrap();
        }
        dht.reset_stats();
        for _ in 0..4 {
            for key in &keys {
                dht.get(key).unwrap();
            }
        }
        let s = dht.stats();
        assert_eq!(s.cache_hits, 128);
        assert!(s.hops_saved > 0, "a 64-node ring routes in > 1 hop");
        // hops + hops_saved reconstructs roughly what the uncached
        // run would have paid; it must stay within the routed-cost
        // estimate (max_hops bound per lookup is absurdly loose, use
        // learned-route sanity instead: saved < 64 hops per lookup).
        assert!(s.hops_saved < 64 * 128);
    }

    #[test]
    fn hits_with_no_same_kind_route_credit_nothing() {
        // Writes learn only the write cost: a read hit on a key whose
        // reads never routed must not be priced at the write cost
        // (on Kademlia a routed put pays a replica fan-out a get
        // never would — crediting it would overstate the savings).
        let ring: ChordDht<u64> = ChordDht::with_nodes(64, 43);
        let dht = CachedDht::with_capacity(ring, 256);
        let key = k("write-only");
        dht.put(&key, 1).unwrap(); // routed write, learns write cost
        dht.reset_stats();
        assert_eq!(dht.get(&key).unwrap(), Some(1)); // served read probe
        let s = dht.stats();
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.hops_saved, 0, "read cost unknown: credit nothing");
        // A routed put probe on the same key IS priced: its kind cost
        // is known from the original routed put.
        dht.put(&key, 2).unwrap();
        let s = dht.stats();
        assert!(s.hops_saved > 0, "write hit priced at write cost");
    }

    #[test]
    fn identical_runs_are_deterministic() {
        let run = || {
            let ring: ChordDht<u64> = ChordDht::with_nodes(32, 41);
            let dht = CachedDht::with_capacity(ring, 8);
            for i in 0..64u64 {
                dht.put(&k(&format!("key:{}", i % 16)), i).unwrap();
            }
            for i in 0..64u64 {
                dht.get(&k(&format!("key:{}", (i * 7) % 16))).unwrap();
            }
            dht.stats()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.cache_hits, b.cache_hits);
        assert_eq!(a.cache_misses, b.cache_misses);
        assert_eq!(a.cache_stale, b.cache_stale);
        assert_eq!(a.hops, b.hops);
        assert_eq!(a.hops_saved, b.hops_saved);
    }

    #[test]
    fn cached_dht_is_send_sync() {
        fn assert_bounds<T: Send + Sync>() {}
        assert_bounds::<CachedDht<ChordDht<u64>>>();
    }
}
