//! The generic over-DHT interface.

use lht_id::U160;

use crate::{DhtError, DhtKey, DhtStats};

/// The outcome of a direct owner probe (the routing-cache fast path).
///
/// A probe carries a *hint* — the node identifier a
/// [`CachedDht`](crate::CachedDht) remembers as the key's owner — and
/// asks the substrate to serve the operation at that node **only
/// after verifying the hint is still correct** (the node is live and
/// currently responsible for the key). The verification is what makes
/// the cache churn-safe: a stale hint can cost a wasted hop, never a
/// wrong answer read off a moved key's old replica.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Probe<T> {
    /// The hint was verified and the operation executed at the owner.
    Served(T),
    /// The hint is stale — the node departed or no longer owns the
    /// key. Nothing was read or written; one hop was wasted. The
    /// caller must evict the entry and fall back to a full route.
    Stale,
    /// This substrate has no native probe support; the caller must
    /// fall back to the ordinary routed operation.
    Unsupported,
}

/// The `put`/`get` interface of a generic DHT, as assumed by the
/// over-DHT indexing paradigm (paper §2).
///
/// Index layers (`lht-core`, `lht-pht`, `lht-dst`, `lht-rst`) are
/// written against this trait only, which is exactly the paper's
/// adaptability claim: *"LHT requires no modification of the underlying
/// DHTs and can be easily adapted to any DHT substrate"* (§1).
///
/// # Cost accounting contract
///
/// Implementations must count **each** of `get`, `put`, `remove` and
/// `update` as one DHT-lookup in [`Dht::stats`], regardless of outcome,
/// and must add however many physical routing hops the operation took.
///
/// # Failed gets
///
/// A `get` for an absent key returns `Ok(None)` — the LHT lookup
/// algorithm (Alg. 2) depends on observing such *failed gets* as
/// negative information about the tree's depth. `Err` is reserved for
/// substrate failures (empty ring, routing breakdown).
///
/// # The `update` operation
///
/// `update(key, f)` routes to the owner of `key` and runs `f` on the
/// (possibly absent) stored value *at the owner*, the way a deployed
/// over-DHT index runs its bucket logic inside the DHT node's
/// application layer (Bamboo/OpenDHT deliver application upcalls the
/// same way; Algorithm 1 line 10 "write b back to the local disk" is
/// free precisely because it happens at the owner). It costs one
/// DHT-lookup — the routing — just like a `put`.
///
/// # Probes
///
/// A layer over another `Dht` that probes on its behalf, or changes
/// how a probe travels, implements the batch probes
/// ([`probe_multi_get`](Dht::probe_multi_get) /
/// [`probe_multi_put`](Dht::probe_multi_put)) and leaves the single
/// ones alone: [`probe_get`](Dht::probe_get) /
/// [`probe_put`](Dht::probe_put) default to a one-element round. A
/// substrate may also override the single probes as its
/// allocation-free hot path, provided each charges exactly what its
/// one-element round charges (`tests/batch_equivalence.rs` pins that
/// for Chord and Kademlia).
pub trait Dht {
    /// The value type stored under each key.
    type Value;

    /// Fetches the value stored under `key`.
    ///
    /// Returns `Ok(None)` on a *failed get* (no value under the key).
    ///
    /// # Errors
    ///
    /// Returns an error only for substrate failures such as an empty
    /// ring.
    fn get(&self, key: &DhtKey) -> Result<Option<Self::Value>, DhtError>;

    /// Stores `value` under `key`, replacing any previous value.
    ///
    /// # Errors
    ///
    /// Returns an error only for substrate failures.
    fn put(&self, key: &DhtKey, value: Self::Value) -> Result<(), DhtError>;

    /// Removes and returns the value stored under `key`.
    ///
    /// # Errors
    ///
    /// Returns an error only for substrate failures.
    fn remove(&self, key: &DhtKey) -> Result<Option<Self::Value>, DhtError>;

    /// Routes to the owner of `key` and applies `f` to the slot for
    /// `key` (setting the slot to `None` deletes the entry; populating
    /// it inserts one).
    ///
    /// # Errors
    ///
    /// Returns an error only for substrate failures.
    fn update(
        &self,
        key: &DhtKey,
        f: &mut dyn FnMut(&mut Option<Self::Value>),
    ) -> Result<(), DhtError>;

    /// Fetches every key in `keys` as one concurrent batch (a
    /// *round*), returning one result per key in order.
    ///
    /// The default implementation is a sequential loop over
    /// [`get`](Dht::get), so third-party substrates keep working
    /// unchanged — they simply execute the round one op at a time
    /// (each op its own round in the stats). Native implementations
    /// execute the whole batch against a single routing state and
    /// record it via [`DhtStats::record_batch`], charging `k` lookups
    /// and summed hops (bandwidth) but only one round at max hops
    /// (parallel wall-clock).
    ///
    /// Errors are per-op: one key failing (e.g. dropped by a fault
    /// layer) must not poison its round-mates.
    fn multi_get(&self, keys: &[DhtKey]) -> Vec<Result<Option<Self::Value>, DhtError>> {
        keys.iter().map(|key| self.get(key)).collect()
    }

    /// Stores every `(key, value)` pair in `entries` as one
    /// concurrent batch, returning one result per entry in order.
    ///
    /// Default implementation: sequential loop over
    /// [`put`](Dht::put). Same round semantics as
    /// [`multi_get`](Dht::multi_get).
    ///
    /// Ops within a batch are *concurrent*: if the same key appears
    /// twice, the settled order is unspecified (a retry layer may
    /// re-send a dropped earlier entry after a later one landed).
    /// Callers that care — bulk loaders, frontier expansions — batch
    /// distinct keys only.
    fn multi_put(&self, entries: Vec<(DhtKey, Self::Value)>) -> Vec<Result<(), DhtError>> {
        entries
            .into_iter()
            .map(|(key, value)| self.put(&key, value))
            .collect()
    }

    /// Attempts a `get` directly at the node `owner` is believed to
    /// identify, verifying ownership first (the routing-cache fast
    /// path). Costs 1 hop when served, 1 *wasted* hop when
    /// [`Probe::Stale`].
    ///
    /// The default is a one-element
    /// [`probe_multi_get`](Dht::probe_multi_get) round (see the trait
    /// docs on which probes a layer implements).
    ///
    /// # Errors
    ///
    /// Returns an error only for substrate failures (e.g. the probe
    /// RPC dropped by a fault layer) — the caller may retry or fall
    /// back to a full route.
    fn probe_get(&self, key: &DhtKey, owner: U160) -> Result<Probe<Option<Self::Value>>, DhtError> {
        only(self.probe_multi_get(&[(key.clone(), owner)]))
    }

    /// Attempts a `put` directly at the hinted owner, verifying
    /// ownership first. Same contract as [`probe_get`](Dht::probe_get)
    /// (a one-element [`probe_multi_put`](Dht::probe_multi_put) round
    /// by default); a served probe must preserve the substrate's write
    /// semantics (replication, sequence numbers, tombstones) exactly as
    /// the routed `put` would.
    ///
    /// # Errors
    ///
    /// Returns an error only for substrate failures.
    fn probe_put(
        &self,
        key: &DhtKey,
        value: Self::Value,
        owner: U160,
    ) -> Result<Probe<()>, DhtError> {
        only(self.probe_multi_put(vec![(key.clone(), value, owner)]))
    }

    /// Probes every `(key, hinted owner)` pair as one concurrent
    /// round, returning one probe outcome per pair in order; native
    /// implementations charge one round at the max hops, like
    /// [`multi_get`](Dht::multi_get). Substrates without native
    /// support answer [`Probe::Unsupported`] (the default) and charge
    /// nothing.
    fn probe_multi_get(
        &self,
        probes: &[(DhtKey, U160)],
    ) -> Vec<Result<Probe<Option<Self::Value>>, DhtError>> {
        probes.iter().map(|_| Ok(Probe::Unsupported)).collect()
    }

    /// Probes every `(key, value, hinted owner)` write as one
    /// concurrent round. Same contract as
    /// [`probe_multi_get`](Dht::probe_multi_get).
    fn probe_multi_put(
        &self,
        entries: Vec<(DhtKey, Self::Value, U160)>,
    ) -> Vec<Result<Probe<()>, DhtError>> {
        entries.iter().map(|_| Ok(Probe::Unsupported)).collect()
    }

    /// The identifier of the node currently owning `key`, if this
    /// substrate can tell for free (an iterative lookup terminates at
    /// the owner, so the client learns its identity as a side effect
    /// of routing — that is what a location cache remembers). `None`
    /// (the default) disables owner learning. Must not draw from the
    /// substrate's RNG or touch its stats.
    fn owner_hint(&self, _key: &DhtKey) -> Option<U160> {
        None
    }

    /// Hints that `keys` are about to be looked up, letting cache
    /// layers warm per-key state (ring-digest memoization, LRU
    /// recency) **without routing anything**. The default is a no-op;
    /// implementations must not issue RPCs or touch stats here.
    fn prewarm(&self, _keys: &[DhtKey]) {}

    /// A snapshot of the cumulative operation counters.
    fn stats(&self) -> DhtStats;

    /// Cumulative routing hops: [`stats`](Dht::stats)`().hops`. Layers
    /// that price an operation by the hop delta around it read this
    /// twice per call, so substrates override it to hand back the one
    /// counter instead of copying the whole ledger.
    fn hops(&self) -> u64 {
        self.stats().hops
    }

    /// Resets the cumulative counters to zero.
    fn reset_stats(&self);
}

/// The result of a one-element round.
fn only<T>(round: Vec<T>) -> T {
    debug_assert_eq!(round.len(), 1, "a round answers once per op");
    round
        .into_iter()
        .next()
        .expect("a round answers once per op")
}

/// Implements [`Dht`] for a pointer type over `D` by forwarding every
/// method — the defaulted ones too, so a wrapped substrate's native
/// batching, probing and owner hints stay visible through the pointer.
macro_rules! forward_dht {
    ($pointer:ty) => {
        impl<D: Dht + ?Sized> Dht for $pointer {
            type Value = D::Value;

            fn get(&self, key: &DhtKey) -> Result<Option<Self::Value>, DhtError> {
                (**self).get(key)
            }

            fn put(&self, key: &DhtKey, value: Self::Value) -> Result<(), DhtError> {
                (**self).put(key, value)
            }

            fn remove(&self, key: &DhtKey) -> Result<Option<Self::Value>, DhtError> {
                (**self).remove(key)
            }

            fn update(
                &self,
                key: &DhtKey,
                f: &mut dyn FnMut(&mut Option<Self::Value>),
            ) -> Result<(), DhtError> {
                (**self).update(key, f)
            }

            fn multi_get(&self, keys: &[DhtKey]) -> Vec<Result<Option<Self::Value>, DhtError>> {
                (**self).multi_get(keys)
            }

            fn multi_put(&self, entries: Vec<(DhtKey, Self::Value)>) -> Vec<Result<(), DhtError>> {
                (**self).multi_put(entries)
            }

            fn probe_get(
                &self,
                key: &DhtKey,
                owner: U160,
            ) -> Result<Probe<Option<Self::Value>>, DhtError> {
                (**self).probe_get(key, owner)
            }

            fn probe_put(
                &self,
                key: &DhtKey,
                value: Self::Value,
                owner: U160,
            ) -> Result<Probe<()>, DhtError> {
                (**self).probe_put(key, value, owner)
            }

            fn probe_multi_get(
                &self,
                probes: &[(DhtKey, U160)],
            ) -> Vec<Result<Probe<Option<Self::Value>>, DhtError>> {
                (**self).probe_multi_get(probes)
            }

            fn probe_multi_put(
                &self,
                entries: Vec<(DhtKey, Self::Value, U160)>,
            ) -> Vec<Result<Probe<()>, DhtError>> {
                (**self).probe_multi_put(entries)
            }

            fn owner_hint(&self, key: &DhtKey) -> Option<U160> {
                (**self).owner_hint(key)
            }

            fn prewarm(&self, keys: &[DhtKey]) {
                (**self).prewarm(keys)
            }

            fn stats(&self) -> DhtStats {
                (**self).stats()
            }

            fn hops(&self) -> u64 {
                (**self).hops()
            }

            fn reset_stats(&self) {
                (**self).reset_stats()
            }
        }
    };
}

forward_dht!(&D);
forward_dht!(std::sync::Arc<D>);
forward_dht!(Box<D>);
