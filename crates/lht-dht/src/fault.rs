//! Message-level fault injection: a seeded lossy-network model
//! wrapped around any [`Dht`] substrate.
//!
//! The paper evaluates LHT over Bamboo on a real LAN (§9) where RPCs
//! drop, stall and time out; the simulators in this crate are
//! perfect-delivery by default. [`FaultyDht`] closes that gap: it
//! intercepts every operation, consults a deterministic [`NetProfile`]
//! (drop probability, latency distribution, timeout threshold) and
//! either charges the drawn latency and delegates to the wrapped
//! substrate, or fails the attempt with
//! [`DhtError::Dropped`] / [`DhtError::Timeout`] after charging the
//! full timeout wait.
//!
//! Faults happen strictly on the *request path*: a dropped or
//! timed-out operation never reaches the inner substrate, so no state
//! changes and retrying is always safe. (Response-path loss — the
//! operation applied but the acknowledgement lost — is deliberately
//! not modelled; it would make non-idempotent operations ambiguous
//! and the differential oracle unsound.)
//!
//! Everything is deterministic from [`NetProfile::seed`]: the same
//! profile over the same operation sequence produces the same faults,
//! so a failing chaos run replays exactly.
//!
//! # Examples
//!
//! ```
//! use lht_dht::{Dht, DhtKey, DirectDht, FaultyDht, NetProfile};
//!
//! let inner: DirectDht<u32> = DirectDht::new();
//! let lossy = FaultyDht::new(&inner, NetProfile::lossy(42, 0.5));
//! let mut delivered = 0;
//! for i in 0..20u32 {
//!     if lossy.put(&DhtKey::from(format!("k{i}")), i).is_ok() {
//!         delivered += 1;
//!     }
//! }
//! let s = lossy.stats();
//! assert_eq!(delivered, s.puts);
//! assert!(s.drops > 0, "half the attempts drop");
//! ```

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use lht_id::U160;

use crate::{Dht, DhtError, DhtKey, DhtStats, Probe};

/// Simulated per-RPC latency distribution, in milliseconds.
///
/// Latency is `base_ms` + uniform jitter in `[0, jitter_ms]`, plus —
/// with probability `tail_prob` — a tail spike of `tail_ms` (the
/// long-tail stragglers that dominate DHT latency in deployment
/// studies). A drawn latency above the profile's timeout threshold
/// surfaces as [`DhtError::Timeout`].
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LatencyProfile {
    /// Fixed floor every RPC pays.
    pub base_ms: u64,
    /// Uniform jitter added on top, drawn from `[0, jitter_ms]`.
    pub jitter_ms: u64,
    /// Probability of a tail-latency spike.
    pub tail_prob: f64,
    /// Extra delay a tail spike adds.
    pub tail_ms: u64,
}

impl LatencyProfile {
    /// A zero-latency profile: every RPC is instantaneous and draws
    /// nothing from the RNG (so wrapping with this profile and
    /// `drop_prob = 0` is byte-identical to the bare substrate).
    pub const ZERO: LatencyProfile = LatencyProfile {
        base_ms: 0,
        jitter_ms: 0,
        tail_prob: 0.0,
        tail_ms: 0,
    };

    fn sample(&self, rng: &mut StdRng) -> u64 {
        let mut ms = self.base_ms;
        if self.jitter_ms > 0 {
            ms += rng.gen_range(0..self.jitter_ms + 1);
        }
        if self.tail_prob > 0.0 && rng.gen_bool(self.tail_prob) {
            ms += self.tail_ms;
        }
        ms
    }
}

impl Default for LatencyProfile {
    /// LAN-flavoured defaults: 10 ms floor, up to 20 ms jitter, and a
    /// 1% chance of a 300 ms straggler (which exceeds the default
    /// 250 ms timeout, so tails surface as timeouts).
    fn default() -> Self {
        LatencyProfile {
            base_ms: 10,
            jitter_ms: 20,
            tail_prob: 0.01,
            tail_ms: 300,
        }
    }
}

/// A deterministic lossy-network model: what fraction of RPCs drop,
/// how long delivery takes, and when the sender gives up.
///
/// All randomness derives from `seed`, independently of the wrapped
/// substrate's own RNG, so fault sequences replay exactly.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct NetProfile {
    /// Seed for all fault draws (drop decisions, latency, jitter).
    pub seed: u64,
    /// Baseline probability each RPC attempt is dropped in flight.
    pub drop_prob: f64,
    /// Per-RPC latency distribution.
    pub latency: LatencyProfile,
    /// Timeout threshold: an attempt whose drawn latency exceeds
    /// this, or which was dropped, costs exactly this much simulated
    /// wait before the error surfaces.
    pub timeout_ms: u64,
}

impl NetProfile {
    /// A perfect network: no drops, zero latency, nothing drawn from
    /// the RNG. Wrapping any substrate with this profile is
    /// byte-identical to using the substrate bare (the transparency
    /// property the retry test-suite pins).
    pub fn reliable(seed: u64) -> NetProfile {
        NetProfile {
            seed,
            drop_prob: 0.0,
            latency: LatencyProfile::ZERO,
            timeout_ms: 250,
        }
    }

    /// A lossy LAN: the given drop probability with the default
    /// latency distribution and a 250 ms timeout.
    pub fn lossy(seed: u64, drop_prob: f64) -> NetProfile {
        NetProfile {
            seed,
            drop_prob,
            latency: LatencyProfile::default(),
            timeout_ms: 250,
        }
    }
}

impl Default for NetProfile {
    /// [`NetProfile::lossy`] with seed 1 and a 10% drop rate — the
    /// chaos suite's standard adversary.
    fn default() -> Self {
        NetProfile::lossy(1, 0.10)
    }
}

struct FaultState {
    rng: StdRng,
    /// Fault-layer counters merged into the inner substrate's stats:
    /// only `drops`, `timeouts` and `latency_ms` are ever non-zero.
    faults: DhtStats,
}

/// A fault-injecting adapter wrapping any [`Dht`] substrate with the
/// lossy-network model of a [`NetProfile`].
///
/// Every operation first passes the network: it may be dropped
/// ([`DhtError::Dropped`]) or time out ([`DhtError::Timeout`]) —
/// charging the full timeout wait into [`DhtStats::latency_ms`] and
/// bumping `drops`/`timeouts` — or it is delivered, charging its
/// drawn latency and delegating to the inner substrate. Failed
/// attempts never reach the inner substrate and never count as
/// DHT-lookups (the choke-point invariant of [`DhtStats`]).
///
/// Layer [`RetriedDht`](crate::RetriedDht) on top to mask these
/// transient failures with seeded-backoff retries.
pub struct FaultyDht<D> {
    inner: D,
    profile: NetProfile,
    state: Mutex<FaultState>,
}

impl<D> std::fmt::Debug for FaultyDht<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyDht")
            .field("profile", &self.profile)
            .finish()
    }
}

impl<D> FaultyDht<D> {
    /// Wraps `inner` with the fault model of `profile`.
    pub fn new(inner: D, profile: NetProfile) -> FaultyDht<D> {
        FaultyDht {
            inner,
            profile,
            state: Mutex::new(FaultState {
                rng: StdRng::seed_from_u64(profile.seed),
                faults: DhtStats::default(),
            }),
        }
    }

    /// The wrapped substrate (for oracle inspection in tests and
    /// harnesses; using it directly bypasses the fault layer).
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Decides the fate of one RPC attempt and charges the
    /// per-attempt sum counters: `Err` if the network ate it, `Ok(())`
    /// if delivered. Returns the attempt's wait too —
    /// delivery latency or the full timeout — which the caller charges
    /// once per round as the max over its attempts (all attempts of a
    /// round are in flight concurrently). A zero drawn latency charges
    /// nothing, keeping a reliable zero-latency profile
    /// byte-transparent.
    fn admit_one(&self, st: &mut FaultState) -> (u64, Result<(), DhtError>) {
        let profile = &self.profile;
        let p = profile.drop_prob;
        let waited_ms = profile.timeout_ms;
        if p > 0.0 && st.rng.gen_bool(p) {
            st.faults.record_failed_attempt(waited_ms, false);
            return (waited_ms, Err(DhtError::Dropped { waited_ms }));
        }
        let latency = profile.latency.sample(&mut st.rng);
        if latency > waited_ms {
            st.faults.record_failed_attempt(waited_ms, true);
            return (waited_ms, Err(DhtError::Timeout { waited_ms }));
        }
        if latency > 0 {
            st.faults.record_delivery(latency);
        }
        (latency, Ok(()))
    }

    /// Single-op admission: a one-attempt round.
    fn admit(&self) -> Result<(), DhtError> {
        let mut st = self.state.lock();
        let (wait, fate) = self.admit_one(&mut st);
        st.faults.record_round_latency(wait);
        fate
    }

    /// One round through the network: every entry draws its fate in
    /// order (so fault sequences stay replayable) and the round is
    /// charged its max wait; the admitted subset goes to the inner
    /// substrate as one smaller round through `deliver`, and its
    /// results are spliced back between the failed round-mates, which
    /// fail independently.
    fn round<E, T>(
        &self,
        entries: impl IntoIterator<Item = E>,
        deliver: impl FnOnce(Vec<E>) -> Vec<Result<T, DhtError>>,
    ) -> Vec<Result<T, DhtError>> {
        let mut admitted = Vec::new();
        let fates: Vec<Result<(), DhtError>> = {
            let mut st = self.state.lock();
            let mut max_wait = 0;
            let fates = entries
                .into_iter()
                .map(|entry| {
                    let (wait, fate) = self.admit_one(&mut st);
                    max_wait = max_wait.max(wait);
                    if fate.is_ok() {
                        admitted.push(entry);
                    }
                    fate
                })
                .collect();
            st.faults.record_round_latency(max_wait);
            fates
        };
        let mut delivered = deliver(admitted).into_iter();
        fates
            .into_iter()
            .map(|fate| {
                fate.and_then(|()| delivered.next().expect("one result per admitted entry"))
            })
            .collect()
    }
}

impl<D: Dht> Dht for FaultyDht<D> {
    type Value = D::Value;

    fn get(&self, key: &DhtKey) -> Result<Option<Self::Value>, DhtError> {
        self.admit()?;
        self.inner.get(key)
    }

    fn put(&self, key: &DhtKey, value: Self::Value) -> Result<(), DhtError> {
        self.admit()?;
        self.inner.put(key, value)
    }

    fn remove(&self, key: &DhtKey) -> Result<Option<Self::Value>, DhtError> {
        self.admit()?;
        self.inner.remove(key)
    }

    fn update(
        &self,
        key: &DhtKey,
        f: &mut dyn FnMut(&mut Option<Self::Value>),
    ) -> Result<(), DhtError> {
        self.admit()?;
        self.inner.update(key, f)
    }

    fn multi_get(&self, keys: &[DhtKey]) -> Vec<Result<Option<Self::Value>, DhtError>> {
        self.round(keys.iter().cloned(), |keys| self.inner.multi_get(&keys))
    }

    fn multi_put(&self, entries: Vec<(DhtKey, Self::Value)>) -> Vec<Result<(), DhtError>> {
        self.round(entries, |entries| self.inner.multi_put(entries))
    }

    // Owner probes are RPCs like any other: they pass the lossy
    // network first, and a dropped probe never reaches the substrate
    // (the cache layer then falls back to the — equally lossy —
    // routed path).
    fn probe_multi_get(
        &self,
        probes: &[(DhtKey, U160)],
    ) -> Vec<Result<Probe<Option<Self::Value>>, DhtError>> {
        self.round(probes.iter().cloned(), |probes| {
            self.inner.probe_multi_get(&probes)
        })
    }

    fn probe_multi_put(
        &self,
        entries: Vec<(DhtKey, Self::Value, U160)>,
    ) -> Vec<Result<Probe<()>, DhtError>> {
        self.round(entries, |entries| self.inner.probe_multi_put(entries))
    }

    // Owner hints and prewarming are client-local (no RPC), so the
    // network cannot fault them.
    fn owner_hint(&self, key: &DhtKey) -> Option<U160> {
        self.inner.owner_hint(key)
    }

    fn prewarm(&self, keys: &[DhtKey]) {
        self.inner.prewarm(keys)
    }

    fn stats(&self) -> DhtStats {
        self.inner.stats() + self.state.lock().faults
    }

    fn reset_stats(&self) {
        self.inner.reset_stats();
        self.state.lock().faults = DhtStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DirectDht;

    fn k(s: &str) -> DhtKey {
        DhtKey::from(s)
    }

    #[test]
    fn reliable_profile_is_transparent() {
        let bare: DirectDht<u32> = DirectDht::new();
        let wrapped = FaultyDht::new(DirectDht::<u32>::new(), NetProfile::reliable(7));
        for i in 0..50u32 {
            let key = k(&format!("k{i}"));
            bare.put(&key, i).unwrap();
            wrapped.put(&key, i).unwrap();
            assert_eq!(bare.get(&key).unwrap(), wrapped.get(&key).unwrap());
        }
        assert_eq!(bare.stats(), wrapped.stats(), "stats byte-identical at p=0");
    }

    #[test]
    fn drops_are_request_path_only() {
        // With p = 1 nothing ever reaches the inner substrate.
        let dht = FaultyDht::new(DirectDht::<u32>::new(), NetProfile::lossy(3, 1.0));
        for i in 0..10u32 {
            match dht.put(&k("x"), i) {
                Err(DhtError::Dropped { waited_ms }) => assert_eq!(waited_ms, 250),
                other => panic!("expected Dropped, got {other:?}"),
            }
        }
        assert!(dht.inner().is_empty(), "no state change on drop");
        let s = dht.stats();
        assert_eq!(s.drops, 10);
        assert_eq!(s.lookups(), 0, "failed attempts are not lookups");
        assert_eq!(s.latency_ms, 10 * 250, "each drop charges the timeout");
    }

    #[test]
    fn fault_sequence_is_deterministic() {
        let run = || {
            let dht = FaultyDht::new(DirectDht::<u32>::new(), NetProfile::lossy(99, 0.4));
            (0..200u32)
                .map(|i| dht.put(&k(&format!("k{i}")), i).is_ok())
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn latency_tail_surfaces_as_timeout() {
        let profile = NetProfile {
            seed: 5,
            drop_prob: 0.0,
            latency: LatencyProfile {
                base_ms: 10,
                jitter_ms: 0,
                tail_prob: 1.0,
                tail_ms: 400,
            },
            timeout_ms: 250,
        };
        let dht = FaultyDht::new(DirectDht::<u32>::new(), profile);
        match dht.get(&k("a")) {
            Err(DhtError::Timeout { waited_ms }) => assert_eq!(waited_ms, 250),
            other => panic!("expected Timeout, got {other:?}"),
        }
        let s = dht.stats();
        assert_eq!(s.timeouts, 1);
        assert_eq!(s.gets, 0);
    }

    #[test]
    fn stats_merge_inner_and_fault_counters() {
        let dht = FaultyDht::new(DirectDht::<u32>::new(), NetProfile::lossy(21, 0.3));
        let mut ok = 0;
        for i in 0..100u32 {
            if dht.put(&k(&format!("k{i}")), i).is_ok() {
                ok += 1;
            }
        }
        let s = dht.stats();
        assert_eq!(s.puts, ok);
        assert_eq!(s.puts + s.drops + s.timeouts, 100);
        assert!(s.latency_ms > 0);
        dht.reset_stats();
        assert_eq!(dht.stats(), DhtStats::default());
    }

    #[test]
    fn reliable_profile_is_transparent_for_batches() {
        let bare: DirectDht<u32> = DirectDht::new();
        let wrapped = FaultyDht::new(DirectDht::<u32>::new(), NetProfile::reliable(7));
        let entries: Vec<_> = (0..20u32).map(|i| (k(&format!("k{i}")), i)).collect();
        for r in bare.multi_put(entries.clone()) {
            r.unwrap();
        }
        for r in wrapped.multi_put(entries) {
            r.unwrap();
        }
        let keys: Vec<_> = (0..25u32).map(|i| k(&format!("k{i}"))).collect();
        let a: Vec<_> = bare.multi_get(&keys).into_iter().collect();
        let b: Vec<_> = wrapped.multi_get(&keys).into_iter().collect();
        assert_eq!(a, b);
        assert_eq!(bare.stats(), wrapped.stats(), "stats byte-identical at p=0");
    }

    #[test]
    fn batch_drops_are_per_op_and_round_latency_is_max() {
        let profile = NetProfile::lossy(21, 0.3);
        let dht = FaultyDht::new(DirectDht::<u32>::new(), profile);
        let entries: Vec<_> = (0..50u32).map(|i| (k(&format!("k{i}")), i)).collect();
        let fates = dht.multi_put(entries);
        let ok = fates.iter().filter(|r| r.is_ok()).count();
        assert!(ok > 0 && ok < 50, "mixed fates within one batch: {ok}");
        // Drops are per-op: exactly the admitted subset landed.
        assert_eq!(dht.inner().len(), ok);
        let s = dht.stats();
        assert_eq!(s.puts as usize, ok);
        assert_eq!(s.lookups() as usize, ok, "dropped ops are not lookups");
        // The admitted subset is one round on the inner substrate, and
        // the round's critical-path wait is the max attempt wait —
        // bounded by the timeout, far below the 50 summed waits.
        assert_eq!(s.rounds, 1);
        assert!(s.round_latency_ms <= profile.timeout_ms);
        assert!(s.round_latency_ms < s.latency_ms);
    }

    #[test]
    fn faulty_is_send_sync() {
        fn assert_bounds<T: Send + Sync>() {}
        assert_bounds::<FaultyDht<DirectDht<u64>>>();
    }
}
