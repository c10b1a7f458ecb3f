//! The retry layer: seeded-backoff masking of transient delivery
//! failures, wired through the [`Dht`] trait surface.
//!
//! [`RetriedDht`] wraps any substrate — in practice a
//! [`FaultyDht`](crate::FaultyDht) — and re-sends each operation on
//! [transient](DhtError::is_transient) failures
//! ([`DhtError::Dropped`]/[`DhtError::Timeout`]) under a
//! [`RetryPolicy`]: bounded attempts, exponential backoff with
//! deterministic seeded jitter, and a per-operation deadline budget
//! in simulated milliseconds. Structural errors (empty ring, routing
//! breakdown) and successes pass straight through, so with a perfect
//! network the wrapper is byte-identical to the bare substrate.
//!
//! Because the fault layer fails attempts on the request path only,
//! every retried operation is safe to re-send — including `put` and
//! `update` — and the [`DhtStats`] choke-point invariant keeps the
//! accounting honest: a retried `get` is **one** logical lookup whose
//! extra attempts surface in `retries`/`drops`/`timeouts` and in the
//! hop/latency numerators, never in the lookup denominator.
//!
//! # Examples
//!
//! ```
//! use lht_dht::{Dht, DhtKey, DirectDht, FaultyDht, NetProfile, RetriedDht, RetryPolicy};
//!
//! let inner: DirectDht<u32> = DirectDht::new();
//! let lossy = FaultyDht::new(&inner, NetProfile::lossy(7, 0.3));
//! let dht = RetriedDht::new(lossy, RetryPolicy::default());
//! for i in 0..50u32 {
//!     dht.put(&DhtKey::from(format!("k{i}")), i)?;     // retries mask the 30% loss
//! }
//! let s = dht.stats();
//! assert_eq!(s.puts, 50, "each put is one logical lookup");
//! assert!(s.retries > 0, "loss was really there");
//! # Ok::<(), lht_dht::DhtError>(())
//! ```

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use lht_id::U160;

use crate::{Dht, DhtError, DhtKey, DhtStats, Probe};

/// Retry discipline for transient delivery failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Maximum delivery attempts per operation (≥ 1; the first send
    /// counts as attempt one).
    pub max_attempts: u32,
    /// Backoff before the first re-send; doubles each retry.
    pub base_backoff_ms: u64,
    /// Cap on the exponential backoff (before jitter).
    pub max_backoff_ms: u64,
    /// Per-operation budget of simulated milliseconds (timeout waits
    /// plus backoff delays); once exhausted the operation fails with
    /// its last transient error even if attempts remain. Use
    /// `u64::MAX` for no deadline.
    pub deadline_ms: u64,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
}

impl Default for RetryPolicy {
    /// Eight attempts, 25 ms → 400 ms backoff, 5 s deadline. Against
    /// the chaos suite's 10% drop rate this leaves a per-operation
    /// failure probability of 10⁻⁸ — soaks of 5k operations complete,
    /// while a fully-partitioned key still fails within the deadline.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            base_backoff_ms: 25,
            max_backoff_ms: 400,
            deadline_ms: 5_000,
            seed: 0x600d_cafe,
        }
    }
}

impl RetryPolicy {
    /// The deterministic backoff schedule for one operation:
    /// `delays.next()` yields the wait before the second attempt,
    /// then the third, and so on. Delays are non-decreasing and each
    /// is at most `1.5 × max_backoff_ms` (cap plus up to half jitter)
    /// — invariants the property suite pins.
    pub fn backoffs(&self, op_index: u64) -> Backoffs {
        // Per-operation stream: mix the op index into the policy seed
        // (splitmix-style odd multiplier) so concurrent operations
        // don't retry in lockstep, yet every run replays identically.
        let seed = self.seed ^ op_index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Backoffs {
            rng: StdRng::seed_from_u64(seed),
            raw: self.base_backoff_ms,
            cap: self.max_backoff_ms,
            prev: 0,
        }
    }
}

/// Iterator over one operation's backoff delays (see
/// [`RetryPolicy::backoffs`]). Infinite; the retry loop takes at most
/// `max_attempts - 1` values.
#[derive(Debug)]
pub struct Backoffs {
    rng: StdRng,
    raw: u64,
    cap: u64,
    prev: u64,
}

impl Iterator for Backoffs {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        let jitter = if self.raw > 1 {
            self.rng.gen_range(0..self.raw / 2 + 1)
        } else {
            0
        };
        // Forced monotone: jitter may not reorder the schedule.
        let delay = (self.raw + jitter).max(self.prev);
        self.prev = delay;
        self.raw = (self.raw.saturating_mul(2)).min(self.cap);
        Some(delay)
    }
}

struct RetryState {
    /// Logical operations issued (derives per-op jitter streams).
    ops: u64,
    /// Retry-layer extras merged into the inner stats: only
    /// `retries` and backoff `latency_ms` are ever non-zero.
    extra: DhtStats,
}

/// A retrying adapter masking transient failures of the wrapped
/// substrate under a [`RetryPolicy`].
///
/// See the top of `retry.rs` for semantics. The inner substrate's
/// stats already count logical operations correctly (failed attempts
/// never reach its operation counters), so [`stats`](Dht::stats)
/// reports the inner counters plus this layer's `retries` and
/// backoff waits.
pub struct RetriedDht<D> {
    inner: D,
    policy: RetryPolicy,
    state: Mutex<RetryState>,
}

impl<D> std::fmt::Debug for RetriedDht<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RetriedDht")
            .field("policy", &self.policy)
            .field("ops", &self.state.lock().ops)
            .finish()
    }
}

impl<D> RetriedDht<D> {
    /// Wraps `inner` with retry discipline `policy`.
    pub fn new(inner: D, policy: RetryPolicy) -> RetriedDht<D> {
        RetriedDht {
            inner,
            policy,
            state: Mutex::new(RetryState {
                ops: 0,
                extra: DhtStats::default(),
            }),
        }
    }

    /// The wrapped substrate.
    pub fn inner(&self) -> &D {
        &self.inner
    }
}

/// One logical operation's retry allowance: its backoff stream, the
/// attempts it has made and the simulated wait it has spent against
/// the deadline.
struct Budget {
    backoffs: Backoffs,
    attempts: u32,
    waited_ms: u64,
}

impl Budget {
    /// Charges a failed attempt's wait ([`DhtError::waited_ms`]: the
    /// timeout the fault layer charged) and says whether the op may be
    /// re-sent: only a transient failure with attempts and deadline
    /// left.
    fn charge(&mut self, err: &DhtError, policy: &RetryPolicy) -> bool {
        self.attempts += 1;
        self.waited_ms = self.waited_ms.saturating_add(err.waited_ms());
        err.is_transient()
            && self.attempts < policy.max_attempts.max(1)
            && self.waited_ms < policy.deadline_ms
    }
}

impl<D> RetriedDht<D> {
    /// Budgets for `n` new logical operations, each with its own
    /// jitter stream.
    fn budgets(&self, n: usize) -> impl Iterator<Item = Budget> + '_ {
        let first_op = {
            let mut st = self.state.lock();
            let first_op = st.ops;
            st.ops += n as u64;
            first_op
        };
        (first_op..first_op + n as u64).map(|op| Budget {
            backoffs: self.policy.backoffs(op),
            attempts: 0,
            waited_ms: 0,
        })
    }

    /// Backs off the ops at `retrying` concurrently before their next
    /// attempt: each delay is a retry and counts against its op's
    /// deadline, and the round waits out only the longest.
    fn back_off(&self, budgets: &mut [Budget], retrying: &[usize]) {
        let mut st = self.state.lock();
        let mut max_delay = 0;
        for &i in retrying {
            let budget = &mut budgets[i];
            let delay = budget.backoffs.next().unwrap_or(0);
            budget.waited_ms = budget.waited_ms.saturating_add(delay);
            st.extra.record_retry(delay);
            max_delay = max_delay.max(delay);
        }
        st.extra.record_round_latency(max_delay);
    }
}

impl<D: Dht> RetriedDht<D> {
    /// Runs one logical operation: re-sends on transient errors until
    /// success, a non-transient error, attempt exhaustion, or the
    /// deadline budget runs dry. The single-op twin of
    /// [`run_batch`](Self::run_batch), kept apart so a single op
    /// allocates nothing.
    fn run<T>(&self, mut attempt: impl FnMut(&D) -> Result<T, DhtError>) -> Result<T, DhtError> {
        let mut budget = self.budgets(1).next().expect("one budget");
        loop {
            match attempt(&self.inner) {
                Err(e) if budget.charge(&e, &self.policy) => {
                    self.back_off(std::slice::from_mut(&mut budget), &[0]);
                }
                settled => return settled,
            }
        }
    }

    /// Runs one logical *batch*: issues the whole batch, then
    /// re-sends only the transiently-failed subset each retry round
    /// (successes and structural errors are final). Each op keeps its
    /// own budget, exactly as if retried alone; what batching changes
    /// is the wall clock — pending ops back off concurrently, so each
    /// retry round's critical path is the *max* backoff rather than
    /// the sum.
    ///
    /// `issue` executes one round over the still-pending entries and
    /// returns one result per entry.
    fn run_batch<E: Clone, T>(
        &self,
        entries: &[E],
        mut issue: impl FnMut(&D, Vec<E>) -> Vec<Result<T, DhtError>>,
    ) -> Vec<Result<T, DhtError>> {
        let mut budgets: Vec<Budget> = self.budgets(entries.len()).collect();
        let mut results: Vec<Option<Result<T, DhtError>>> = entries.iter().map(|_| None).collect();
        let mut pending: Vec<usize> = (0..entries.len()).collect();
        while !pending.is_empty() {
            // Re-sends clone only the still-pending subset; faults are
            // request-path only, so re-sending a write is safe.
            let round = issue(
                &self.inner,
                pending.iter().map(|&i| entries[i].clone()).collect(),
            );
            debug_assert_eq!(round.len(), pending.len());
            let mut retrying = Vec::new();
            for (i, result) in pending.into_iter().zip(round) {
                match result {
                    Err(e) if budgets[i].charge(&e, &self.policy) => retrying.push(i),
                    settled => results[i] = Some(settled),
                }
            }
            if !retrying.is_empty() {
                self.back_off(&mut budgets, &retrying);
            }
            pending = retrying;
        }
        results
            .into_iter()
            .map(|r| r.expect("every op settled within max_attempts"))
            .collect()
    }
}

impl<D: Dht> Dht for RetriedDht<D>
where
    D::Value: Clone,
{
    type Value = D::Value;

    fn get(&self, key: &DhtKey) -> Result<Option<Self::Value>, DhtError> {
        self.run(|d| d.get(key))
    }

    fn put(&self, key: &DhtKey, value: Self::Value) -> Result<(), DhtError> {
        self.run(|d| d.put(key, value.clone()))
    }

    fn remove(&self, key: &DhtKey) -> Result<Option<Self::Value>, DhtError> {
        self.run(|d| d.remove(key))
    }

    fn update(
        &self,
        key: &DhtKey,
        f: &mut dyn FnMut(&mut Option<Self::Value>),
    ) -> Result<(), DhtError> {
        // Safe to re-send: a dropped attempt never ran `f` (faults
        // are request-path only), so `f` executes at most once.
        self.run(|d| d.update(key, f))
    }

    fn multi_get(&self, keys: &[DhtKey]) -> Vec<Result<Option<Self::Value>, DhtError>> {
        self.run_batch(keys, |d, keys| d.multi_get(&keys))
    }

    fn multi_put(&self, entries: Vec<(DhtKey, Self::Value)>) -> Vec<Result<(), DhtError>> {
        self.run_batch(&entries, |d, entries| d.multi_put(entries))
    }

    // Owner probes retry like any other RPC: a dropped probe is
    // re-sent (verification is read-only and a served probe write is
    // as idempotent as the routed put), while Stale/Unsupported are
    // successful responses and pass straight through.
    fn probe_multi_get(
        &self,
        probes: &[(DhtKey, U160)],
    ) -> Vec<Result<Probe<Option<Self::Value>>, DhtError>> {
        self.run_batch(probes, |d, probes| d.probe_multi_get(&probes))
    }

    fn probe_multi_put(
        &self,
        entries: Vec<(DhtKey, Self::Value, U160)>,
    ) -> Vec<Result<Probe<()>, DhtError>> {
        self.run_batch(&entries, |d, entries| d.probe_multi_put(entries))
    }

    fn owner_hint(&self, key: &DhtKey) -> Option<U160> {
        self.inner.owner_hint(key)
    }

    fn prewarm(&self, keys: &[DhtKey]) {
        self.inner.prewarm(keys)
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
mod tests {
    use super::*;
    use crate::{DirectDht, FaultyDht, NetProfile};

    fn k(s: &str) -> DhtKey {
        DhtKey::from(s)
    }

    fn lossy_stack(
        seed: u64,
        drop: f64,
        policy: RetryPolicy,
    ) -> RetriedDht<FaultyDht<DirectDht<u32>>> {
        RetriedDht::new(
            FaultyDht::new(DirectDht::new(), NetProfile::lossy(seed, drop)),
            policy,
        )
    }

    #[test]
    fn retries_mask_heavy_loss() {
        let dht = lossy_stack(17, 0.3, RetryPolicy::default());
        for i in 0..200u32 {
            dht.put(&k(&format!("k{i}")), i).unwrap();
        }
        for i in 0..200u32 {
            assert_eq!(dht.get(&k(&format!("k{i}"))).unwrap(), Some(i));
        }
        let s = dht.stats();
        assert_eq!(s.puts, 200);
        assert_eq!(s.gets, 200);
        assert!(s.retries >= s.drops, "every drop was retried");
        assert!(s.drops > 50, "the loss was really injected");
    }

    /// A network that drops the first `n` attempts, charging each the
    /// 250 ms timeout wait, and delivers every attempt after them.
    struct DropFirst<D> {
        inner: D,
        left: Mutex<u32>,
        faults: Mutex<DhtStats>,
    }

    impl<D> DropFirst<D> {
        fn new(inner: D, n: u32) -> Self {
            DropFirst {
                inner,
                left: Mutex::new(n),
                faults: Mutex::new(DhtStats::default()),
            }
        }

        fn admit(&self) -> Result<(), DhtError> {
            let mut left = self.left.lock();
            if *left == 0 {
                return Ok(());
            }
            *left -= 1;
            self.faults.lock().record_failed_attempt(250, false);
            Err(DhtError::Dropped { waited_ms: 250 })
        }
    }

    impl<D: Dht> Dht for DropFirst<D> {
        type Value = D::Value;

        fn get(&self, key: &DhtKey) -> Result<Option<D::Value>, DhtError> {
            self.admit()?;
            self.inner.get(key)
        }

        fn put(&self, key: &DhtKey, value: D::Value) -> Result<(), DhtError> {
            self.admit()?;
            self.inner.put(key, value)
        }

        fn remove(&self, key: &DhtKey) -> Result<Option<D::Value>, DhtError> {
            self.admit()?;
            self.inner.remove(key)
        }

        fn update(
            &self,
            key: &DhtKey,
            f: &mut dyn FnMut(&mut Option<D::Value>),
        ) -> Result<(), DhtError> {
            self.admit()?;
            self.inner.update(key, f)
        }

        fn stats(&self) -> DhtStats {
            self.inner.stats() + *self.faults.lock()
        }

        fn reset_stats(&self) {
            self.inner.reset_stats();
            *self.faults.lock() = DhtStats::default();
        }
    }

    /// One retried get is ONE logical lookup; its failed attempts
    /// surface in drops/retries and latency, never in the lookup
    /// denominator.
    #[test]
    fn stats_pin_across_a_retried_get() {
        // Deterministic "fail twice, then succeed".
        let inner: DirectDht<u32> = DirectDht::new();
        inner.put(&k("a"), 42).unwrap();
        inner.reset_stats();
        let dht = RetriedDht::new(DropFirst::new(&inner, 2), RetryPolicy::default());

        assert_eq!(dht.get(&k("a")).unwrap(), Some(42));
        let s = dht.stats();
        assert_eq!(s.gets, 1, "one logical lookup");
        assert_eq!(s.lookups(), 1);
        assert_eq!(s.failed_gets, 0);
        assert_eq!(s.drops, 2, "two attempts dropped");
        assert_eq!(s.retries, 2, "both were retried");
        assert_eq!(s.hops, 1, "only the delivered attempt hopped");
        assert_eq!(s.hops_per_lookup(), 1.0, "no silent inflation");
        // Latency: two timeout waits plus two backoff delays.
        assert!(s.latency_ms >= 2 * 250, "timeout waits charged");
    }

    #[test]
    fn batch_retries_only_the_failed_subset() {
        let dht = lossy_stack(17, 0.3, RetryPolicy::default());
        let entries: Vec<_> = (0..100u32).map(|i| (k(&format!("k{i}")), i)).collect();
        for r in dht.multi_put(entries) {
            r.unwrap();
        }
        let keys: Vec<_> = (0..100u32).map(|i| k(&format!("k{i}"))).collect();
        for (i, r) in dht.multi_get(&keys).into_iter().enumerate() {
            assert_eq!(r.unwrap(), Some(i as u32), "all values masked through loss");
        }
        let s = dht.stats();
        assert_eq!(s.puts, 100, "each put is one logical lookup");
        assert_eq!(s.gets, 100);
        assert!(s.drops > 0, "the loss was really there");
        assert!(s.retries >= s.drops, "every drop was retried");
        // Only the failed subset re-issues: each retry round is one
        // (shrinking) batch, so the round count stays far below the
        // 200 one-op rounds sequential execution would charge.
        assert!(
            s.rounds >= 2 && s.rounds <= 20,
            "expected a handful of shrinking rounds, got {}",
            s.rounds
        );
        assert!(s.round_latency_ms < s.latency_ms, "parallel beats serial");
    }

    #[test]
    fn attempts_stop_at_max_and_surface_last_error() {
        let policy = RetryPolicy {
            max_attempts: 5,
            ..RetryPolicy::default()
        };
        let dht = lossy_stack(3, 1.0, policy);
        match dht.get(&k("a")) {
            Err(e) if e.is_transient() => {}
            other => panic!("expected transient error, got {other:?}"),
        }
        let s = dht.stats();
        assert_eq!(s.drops + s.timeouts, 5, "exactly max_attempts attempts");
        assert_eq!(s.retries, 4);
        assert_eq!(s.lookups(), 0);
    }

    #[test]
    fn deadline_budget_cuts_retries_short() {
        let policy = RetryPolicy {
            max_attempts: 100,
            base_backoff_ms: 10,
            max_backoff_ms: 10,
            deadline_ms: 1_000, // 4 timeouts (250 ms) exhaust it
            seed: 9,
        };
        let dht = lossy_stack(5, 1.0, policy);
        assert!(dht.get(&k("a")).is_err());
        let s = dht.stats();
        assert!(
            s.drops + s.timeouts <= 5,
            "deadline must cut the 100 attempts to ~4, got {}",
            s.drops + s.timeouts
        );
    }

    /// A substrate whose routing has broken down: every operation
    /// fails with the structural [`DhtError::RoutingFailed`].
    struct Unroutable;

    impl Dht for Unroutable {
        type Value = u32;

        fn get(&self, _: &DhtKey) -> Result<Option<u32>, DhtError> {
            Err(DhtError::RoutingFailed { hops: 1 })
        }

        fn put(&self, _: &DhtKey, _: u32) -> Result<(), DhtError> {
            Err(DhtError::RoutingFailed { hops: 1 })
        }

        fn remove(&self, _: &DhtKey) -> Result<Option<u32>, DhtError> {
            Err(DhtError::RoutingFailed { hops: 1 })
        }

        fn update(&self, _: &DhtKey, _: &mut dyn FnMut(&mut Option<u32>)) -> Result<(), DhtError> {
            Err(DhtError::RoutingFailed { hops: 1 })
        }

        fn stats(&self) -> DhtStats {
            DhtStats::default()
        }

        fn reset_stats(&self) {}
    }

    #[test]
    fn non_transient_errors_pass_straight_through() {
        // A routing breakdown is structural: no retry can fix it.
        let dht = RetriedDht::new(
            FaultyDht::new(Unroutable, NetProfile::reliable(4)),
            RetryPolicy::default(),
        );
        let broken = Err(DhtError::RoutingFailed { hops: 1 });
        assert_eq!(dht.get(&k("a")), broken);
        assert_eq!(dht.put(&k("a"), 1), broken.clone().map(drop));
        assert_eq!(dht.multi_get(&[k("a"), k("b")]), vec![broken.clone(); 2]);
        assert_eq!(dht.multi_put(vec![(k("a"), 1)]), vec![broken.map(drop)]);
        let s = dht.stats();
        assert_eq!(s.retries, 0, "structural errors are not retried");
        assert_eq!(s.drops + s.timeouts, 0);
        assert_eq!(s.lookups(), 0);
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_monotone() {
        let policy = RetryPolicy::default();
        let a: Vec<u64> = policy.backoffs(4).take(12).collect();
        let b: Vec<u64> = policy.backoffs(4).take(12).collect();
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "non-decreasing: {a:?}");
        assert!(a.iter().all(|&d| d <= policy.max_backoff_ms * 3 / 2));
        // Different ops get different jitter streams.
        let c: Vec<u64> = policy.backoffs(5).take(12).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn update_closure_runs_at_most_once_per_logical_op() {
        let dht = RetriedDht::new(
            DropFirst::new(DirectDht::<u32>::new(), 3),
            RetryPolicy::default(),
        );
        let mut calls = 0;
        dht.update(&k("a"), &mut |slot| {
            calls += 1;
            *slot = Some(7);
        })
        .unwrap();
        assert_eq!(calls, 1, "dropped attempts must not run the closure");
        assert_eq!(dht.get(&k("a")).unwrap(), Some(7));
    }

    #[test]
    fn retried_is_send_sync() {
        fn assert_bounds<T: Send + Sync>() {}
        assert_bounds::<RetriedDht<DirectDht<u64>>>();
    }
}
