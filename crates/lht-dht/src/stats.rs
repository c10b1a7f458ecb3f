//! Cost accounting for DHT operations.

use serde::{Deserialize, Serialize};
use std::ops::{Add, Sub};

/// The kind of a completed DHT operation, for [`DhtStats::record_op`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DhtOp {
    /// A `get`; `found` records whether a value was present.
    Get {
        /// Whether the lookup found a value (a *failed get* counts
        /// the operation but also bumps `failed_gets`).
        found: bool,
    },
    /// A `put`.
    Put,
    /// A `remove`.
    Remove,
    /// An `update` (execute-at-owner).
    Update,
}

/// Cumulative operation counters for a DHT instance.
///
/// The paper's cost model (§8.1) charges `ȷ` units per DHT-lookup and
/// `ı` units per moved record; `DhtStats` supplies the lookup side
/// (the index layers account for moved records themselves, since only
/// they know what a "record" is).
///
/// Every `get`/`put`/`remove`/`update` counts as exactly one
/// DHT-lookup, matching how the paper counts (a `DHT-put` "consumes
/// one DHT-lookup", §4). `hops` additionally records the physical
/// routing hops a substrate took, which is 1 per operation on the
/// one-hop oracle and `O(log N)` on Chord.
///
/// # The accounting choke point
///
/// All operation/hop accounting funnels through [`record_op`] /
/// [`record_batch`] (completed logical operations),
/// `record_failed_attempt` (RPC attempts lost to the simulated
/// network) and `record_retry` (re-sent attempts and their backoff
/// waits). The invariant this enforces: **a failed or retried
/// delivery attempt never counts as a DHT-lookup** — it shows up in
/// `drops`/`timeouts`/`retries` and in `hops`/`latency_ms`, but not
/// in the [`lookups`] denominator. A retried `get` therefore
/// *honestly inflates* [`hops_per_lookup`] (extra hops over one
/// logical lookup) instead of silently hiding the inflation behind a
/// double-counted denominator.
///
/// # Rounds: the parallelism model
///
/// Alongside the *sum* counters (bandwidth), `DhtStats` keeps *round*
/// counters (parallel wall-clock). A round is one synchronized batch
/// of concurrently issued operations: a batch of `k` ops recorded via
/// [`record_batch`] counts `k` lookups and `sum(hops)` bandwidth but
/// only **one round** charging **max(hops)** to `round_hops` — the
/// critical path a client waiting on the whole round experiences.
/// Single operations are one-op rounds, so for a purely sequential
/// workload `rounds == lookups()` and `round_hops == hops`; batching
/// strictly shrinks the round side while leaving the sums intact.
/// `round_latency_ms` is maintained by the fault/retry layers the
/// same way (max wait per round vs. summed waits in `latency_ms`).
///
/// [`record_op`]: DhtStats::record_op
/// [`record_batch`]: DhtStats::record_batch
/// [`lookups`]: DhtStats::lookups
/// [`hops_per_lookup`]: DhtStats::hops_per_lookup
///
/// Snapshots are cheap [`Copy`] values; subtract two snapshots to get
/// the cost of the operations in between:
///
/// ```
/// use lht_dht::{Dht, DhtKey, DirectDht};
///
/// let dht: DirectDht<u32> = DirectDht::new();
/// let before = dht.stats();
/// dht.put(&DhtKey::from("a"), 1)?;
/// dht.get(&DhtKey::from("a"))?;
/// let cost = dht.stats() - before;
/// assert_eq!(cost.lookups(), 2);
/// assert_eq!(cost.rounds, 2); // sequential ops are one-op rounds
/// # Ok::<(), lht_dht::DhtError>(())
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DhtStats {
    /// Number of `get` operations (successful or not).
    pub gets: u64,
    /// Number of `get` operations that found no value (failed gets).
    pub failed_gets: u64,
    /// Number of `put` operations.
    pub puts: u64,
    /// Number of `remove` operations.
    pub removes: u64,
    /// Number of `update` (execute-at-owner) operations.
    pub updates: u64,
    /// Physical routing hops across all operations (bandwidth view:
    /// every op's hops are summed, batched or not).
    pub hops: u64,
    /// Keys transferred between nodes by churn (join/leave handoff).
    pub keys_transferred: u64,
    /// RPC attempts dropped in flight by an injected network fault.
    pub drops: u64,
    /// RPC attempts whose simulated latency exceeded the timeout.
    pub timeouts: u64,
    /// Attempts re-sent by a retry layer (first attempts not counted).
    pub retries: u64,
    /// Simulated wall-clock milliseconds spent waiting: successful
    /// RPC latency, full timeout waits for dropped/timed-out
    /// attempts, and retry backoff delays. This is the *sequential*
    /// (sum) view; see `round_latency_ms` for the parallel one.
    pub latency_ms: u64,
    /// Number of execution rounds: batches count once, single ops are
    /// one-op rounds. Always `<= lookups()`.
    pub rounds: u64,
    /// Critical-path hops: each round contributes the max hops of its
    /// ops. Always `<= hops`.
    pub round_hops: u64,
    /// Critical-path simulated latency: each round contributes the
    /// max wait of its attempts (fault delivery latency, timeout
    /// waits, retry backoffs). Always `<= latency_ms`; equal for
    /// purely sequential execution.
    pub round_latency_ms: u64,
    /// Routing-cache probes that were served directly by the
    /// remembered owner (a [`CachedDht`](crate::CachedDht) fast path:
    /// 1 hop instead of a full iterative route).
    pub cache_hits: u64,
    /// Operations issued while the routing cache held no entry for
    /// their key — they paid the full route and (re)learned the owner.
    pub cache_misses: u64,
    /// Cached probes refused by the substrate because the remembered
    /// owner departed or is no longer responsible: one wasted hop,
    /// entry evicted, full route taken.
    pub cache_stale: u64,
    /// Routing hops the cache avoided: for each hit, the remembered
    /// *same-kind* full-route cost (reads priced at the learned read
    /// cost, writes at the learned write cost) minus the probe hops
    /// charged; a hit whose kind never routed credits nothing. Stale
    /// probes' wasted hops are charged to `hops` as usual, so
    /// `hops + hops_saved` estimates the uncached cost without ever
    /// exceeding what an uncached twin pays — even on substrates like
    /// Kademlia where writes route far more expensively than reads.
    pub hops_saved: u64,
    /// Replica-slot writes performed by a replication layer's repair
    /// machinery — read-repair of a stale slot, a deferred-handoff
    /// flush, or an anti-entropy sync — as opposed to the synchronous
    /// write-quorum writes charged to the logical op itself.
    pub repair_transfers: u64,
    /// Routing hops spent on those repair writes. Kept out of `hops`
    /// so `hops_per_lookup` prices the request path alone and the
    /// maintenance cost of a replication policy is separately
    /// chartable (E20's bandwidth axis).
    pub repair_bandwidth: u64,
}

impl DhtStats {
    fn tally_op(&mut self, op: DhtOp, hops: u64) {
        match op {
            DhtOp::Get { found } => {
                self.gets += 1;
                if !found {
                    self.failed_gets += 1;
                }
            }
            DhtOp::Put => self.puts += 1,
            DhtOp::Remove => self.removes += 1,
            DhtOp::Update => self.updates += 1,
        }
        self.hops += hops;
    }

    /// Records one completed logical operation and the physical hops
    /// it took, as a one-op round. This is the only single-op path
    /// that increments the operation counters entering
    /// [`lookups`](DhtStats::lookups).
    pub fn record_op(&mut self, op: DhtOp, hops: u64) {
        self.tally_op(op, hops);
        self.rounds += 1;
        self.round_hops += hops;
    }

    /// Records a batch of concurrently executed operations as a
    /// single round: every op enters the sum counters (`lookups`,
    /// `hops`) individually, while the round side charges one round
    /// at the *max* hops — the batch's critical path. An empty batch
    /// records nothing.
    pub fn record_batch<I>(&mut self, ops: I)
    where
        I: IntoIterator<Item = (DhtOp, u64)>,
    {
        let mut max_hops = 0u64;
        let mut any = false;
        for (op, hops) in ops {
            any = true;
            max_hops = max_hops.max(hops);
            self.tally_op(op, hops);
        }
        if any {
            self.rounds += 1;
            self.round_hops += max_hops;
        }
    }

    /// Records the simulated delivery latency of one successful RPC
    /// attempt into the sum counter.
    /// Round latency is charged separately (per round, at the max)
    /// via [`record_round_latency`](DhtStats::record_round_latency).
    pub(crate) fn record_delivery(&mut self, latency_ms: u64) {
        self.latency_ms += latency_ms;
    }

    /// Charges `ms` to the critical-path latency. Fault/retry layers
    /// call this once per round with the max wait of the round (which
    /// for a single op is just that op's wait).
    pub(crate) fn record_round_latency(&mut self, ms: u64) {
        self.round_latency_ms += ms;
    }

    /// Records an RPC attempt lost to the simulated network after
    /// waiting `waited_ms` (the timeout threshold): a timeout if
    /// `timed_out`, otherwise a drop. The wait enters the sum latency.
    /// Never counts a DHT-lookup.
    pub(crate) fn record_failed_attempt(&mut self, waited_ms: u64, timed_out: bool) {
        if timed_out {
            self.timeouts += 1;
        } else {
            self.drops += 1;
        }
        self.latency_ms += waited_ms;
    }

    /// Records one re-sent attempt and the backoff delay that
    /// preceded it. Never counts a DHT-lookup.
    pub(crate) fn record_retry(&mut self, backoff_ms: u64) {
        self.retries += 1;
        self.latency_ms += backoff_ms;
    }

    /// Records one replica-slot repair write (read-repair, handoff
    /// flush or anti-entropy sync) that cost `hops` routing hops.
    /// Repair traffic never counts a DHT-lookup and its hops go to
    /// `repair_bandwidth`, not `hops` — maintenance cost must not
    /// dilute the request-path `hops_per_lookup` metric.
    pub(crate) fn record_repair(&mut self, hops: u64) {
        self.repair_transfers += 1;
        self.repair_bandwidth += hops;
    }

    /// Total DHT-lookups: every *logical* operation routes once.
    /// Failed/retried delivery attempts are excluded by construction
    /// (see the choke-point invariant above).
    pub fn lookups(&self) -> u64 {
        self.gets + self.puts + self.removes + self.updates
    }

    /// Mean hops per lookup, or 0.0 when no lookups happened.
    pub fn hops_per_lookup(&self) -> f64 {
        let l = self.lookups();
        if l == 0 {
            0.0
        } else {
            self.hops as f64 / l as f64
        }
    }

    /// Mean simulated latency per lookup (ms), or 0.0 when no
    /// lookups happened. Includes timeout waits and backoff delays,
    /// so retries inflate it the way a client would experience.
    pub fn latency_per_lookup(&self) -> f64 {
        let l = self.lookups();
        if l == 0 {
            0.0
        } else {
            self.latency_ms as f64 / l as f64
        }
    }

    /// Routing-cache hit rate: hits over all cache-consulted lookups
    /// (`hits + misses + stale`), or 0.0 when no cache was in play.
    /// A stale probe counts against the rate — it wasted a hop.
    pub fn hit_rate(&self) -> f64 {
        let consulted = self.cache_hits + self.cache_misses + self.cache_stale;
        if consulted == 0 {
            0.0
        } else {
            self.cache_hits as f64 / consulted as f64
        }
    }

    /// Cross-checks the counters against the accounting contract every
    /// record path must preserve, returning the first violated rule.
    ///
    /// The invariants pinned here are exactly the ones the layered
    /// stacks (`FaultyDht` → `RetriedDht` → `CachedDht`, and the ring
    /// under real client threads) are supposed to keep in concert,
    /// and the ones that have historically drifted when a counter was
    /// bumped on one record path but missed on its sibling:
    ///
    /// - `rounds <= lookups()` — batches shrink rounds, never grow
    ///   them; a failed attempt or a retry must not mint a round.
    /// - `round_hops <= hops` — the critical-path view is a max over
    ///   each round, the sum view a total; the max can never win.
    /// - `round_latency_ms <= latency_ms` — same, for waits.
    /// - `failed_gets <= gets` — a miss is still a get.
    /// - `cache_hits + cache_misses + cache_stale <= lookups()` — the
    ///   cache is outermost and consults at most once per logical op.
    /// - `repair_transfers == 0 ⇒ repair_bandwidth == 0` — repair
    ///   hops can only be charged by a recorded repair transfer. (A
    ///   transfer *may* cost zero hops — the one-hop substrates route
    ///   for free once the owner is known — so the converse bound
    ///   would be wrong.)
    ///
    /// Harnesses assert this after every soak; layered stats (which
    /// add an inner snapshot to an outer delta) satisfy it whenever
    /// both sides do, because every rule is closed under `+`.
    pub fn check_invariants(&self) -> Result<(), String> {
        let lookups = self.lookups();
        if self.rounds > lookups {
            return Err(format!(
                "rounds ({}) exceed lookups ({lookups}): some path minted a round without a logical op",
                self.rounds
            ));
        }
        if self.round_hops > self.hops {
            return Err(format!(
                "round_hops ({}) exceed hops ({}): critical-path hops outran the bandwidth sum",
                self.round_hops, self.hops
            ));
        }
        if self.round_latency_ms > self.latency_ms {
            return Err(format!(
                "round_latency_ms ({}) exceeds latency_ms ({}): per-round max outran the summed waits",
                self.round_latency_ms, self.latency_ms
            ));
        }
        if self.failed_gets > self.gets {
            return Err(format!(
                "failed_gets ({}) exceed gets ({}): a miss was counted without its get",
                self.failed_gets, self.gets
            ));
        }
        let consults = self.cache_hits + self.cache_misses + self.cache_stale;
        if consults > lookups {
            return Err(format!(
                "cache consults ({consults} = {} hits + {} misses + {} stale) exceed lookups ({lookups}): \
                 the cache was consulted more than once per logical op",
                self.cache_hits, self.cache_misses, self.cache_stale
            ));
        }
        if self.repair_transfers == 0 && self.repair_bandwidth > 0 {
            return Err(format!(
                "repair_bandwidth ({}) charged with zero repair_transfers: \
                 repair hops minted outside a recorded repair",
                self.repair_bandwidth
            ));
        }
        Ok(())
    }
}

impl Sub for DhtStats {
    type Output = DhtStats;

    fn sub(self, rhs: DhtStats) -> DhtStats {
        DhtStats {
            gets: self.gets - rhs.gets,
            failed_gets: self.failed_gets - rhs.failed_gets,
            puts: self.puts - rhs.puts,
            removes: self.removes - rhs.removes,
            updates: self.updates - rhs.updates,
            hops: self.hops - rhs.hops,
            keys_transferred: self.keys_transferred - rhs.keys_transferred,
            drops: self.drops - rhs.drops,
            timeouts: self.timeouts - rhs.timeouts,
            retries: self.retries - rhs.retries,
            latency_ms: self.latency_ms - rhs.latency_ms,
            rounds: self.rounds - rhs.rounds,
            round_hops: self.round_hops - rhs.round_hops,
            round_latency_ms: self.round_latency_ms - rhs.round_latency_ms,
            cache_hits: self.cache_hits - rhs.cache_hits,
            cache_misses: self.cache_misses - rhs.cache_misses,
            cache_stale: self.cache_stale - rhs.cache_stale,
            hops_saved: self.hops_saved - rhs.hops_saved,
            repair_transfers: self.repair_transfers - rhs.repair_transfers,
            repair_bandwidth: self.repair_bandwidth - rhs.repair_bandwidth,
        }
    }
}

impl Add for DhtStats {
    type Output = DhtStats;

    fn add(self, rhs: DhtStats) -> DhtStats {
        DhtStats {
            gets: self.gets + rhs.gets,
            failed_gets: self.failed_gets + rhs.failed_gets,
            puts: self.puts + rhs.puts,
            removes: self.removes + rhs.removes,
            updates: self.updates + rhs.updates,
            hops: self.hops + rhs.hops,
            keys_transferred: self.keys_transferred + rhs.keys_transferred,
            drops: self.drops + rhs.drops,
            timeouts: self.timeouts + rhs.timeouts,
            retries: self.retries + rhs.retries,
            latency_ms: self.latency_ms + rhs.latency_ms,
            rounds: self.rounds + rhs.rounds,
            round_hops: self.round_hops + rhs.round_hops,
            round_latency_ms: self.round_latency_ms + rhs.round_latency_ms,
            cache_hits: self.cache_hits + rhs.cache_hits,
            cache_misses: self.cache_misses + rhs.cache_misses,
            cache_stale: self.cache_stale + rhs.cache_stale,
            hops_saved: self.hops_saved + rhs.hops_saved,
            repair_transfers: self.repair_transfers + rhs.repair_transfers,
            repair_bandwidth: self.repair_bandwidth + rhs.repair_bandwidth,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookups_sum_all_operation_kinds() {
        let s = DhtStats {
            gets: 3,
            failed_gets: 1,
            puts: 2,
            removes: 1,
            updates: 4,
            hops: 30,
            ..DhtStats::default()
        };
        assert_eq!(s.lookups(), 10);
        assert_eq!(s.hops_per_lookup(), 3.0);
    }

    #[test]
    fn zero_lookups_zero_rate() {
        assert_eq!(DhtStats::default().hops_per_lookup(), 0.0);
        assert_eq!(DhtStats::default().latency_per_lookup(), 0.0);
    }

    #[test]
    fn record_op_routes_to_matching_counter() {
        let mut s = DhtStats::default();
        s.record_op(DhtOp::Get { found: true }, 3);
        s.record_op(DhtOp::Get { found: false }, 2);
        s.record_op(DhtOp::Put, 4);
        s.record_op(DhtOp::Remove, 1);
        s.record_op(DhtOp::Update, 5);
        assert_eq!(s.gets, 2);
        assert_eq!(s.failed_gets, 1);
        assert_eq!(s.puts, 1);
        assert_eq!(s.removes, 1);
        assert_eq!(s.updates, 1);
        assert_eq!(s.hops, 15);
        assert_eq!(s.lookups(), 5);
        // Sequential ops are one-op rounds: the round view collapses
        // to the sum view.
        assert_eq!(s.rounds, 5);
        assert_eq!(s.round_hops, 15);
    }

    #[test]
    fn batch_charges_one_round_at_max_hops() {
        let mut s = DhtStats::default();
        s.record_batch([
            (DhtOp::Get { found: true }, 3),
            (DhtOp::Get { found: false }, 7),
            (DhtOp::Put, 2),
        ]);
        // Bandwidth view: every op counted, hops summed.
        assert_eq!(s.lookups(), 3);
        assert_eq!(s.gets, 2);
        assert_eq!(s.failed_gets, 1);
        assert_eq!(s.puts, 1);
        assert_eq!(s.hops, 12);
        // Parallel view: one round at the critical path.
        assert_eq!(s.rounds, 1);
        assert_eq!(s.round_hops, 7);
    }

    #[test]
    fn empty_batch_records_nothing() {
        let mut s = DhtStats::default();
        s.record_batch(std::iter::empty());
        assert_eq!(s, DhtStats::default());
    }

    #[test]
    fn rounds_never_exceed_lookups() {
        let mut s = DhtStats::default();
        s.record_op(DhtOp::Put, 4);
        s.record_batch((0..8).map(|i| (DhtOp::Get { found: true }, i)));
        s.record_batch([(DhtOp::Remove, 9)]);
        assert_eq!(s.lookups(), 10);
        assert_eq!(s.rounds, 3);
        assert!(s.rounds <= s.lookups());
        assert!(s.round_hops <= s.hops);
        assert_eq!(s.round_hops, 4 + 7 + 9);
    }

    #[test]
    fn failed_attempts_and_retries_never_count_lookups() {
        let mut s = DhtStats::default();
        s.record_failed_attempt(250, false);
        s.record_failed_attempt(250, true);
        s.record_retry(40);
        assert_eq!(s.lookups(), 0, "attempts must not enter the denominator");
        assert_eq!(s.drops, 1);
        assert_eq!(s.timeouts, 1);
        assert_eq!(s.retries, 1);
        assert_eq!(s.latency_ms, 540);
        // One logical op on top: the rate divides by 1, not by 4.
        s.record_op(DhtOp::Get { found: true }, 6);
        assert_eq!(s.hops_per_lookup(), 6.0);
        assert_eq!(s.latency_per_lookup(), 540.0);
    }

    #[test]
    fn subtraction_diffs_fieldwise() {
        let a = DhtStats {
            gets: 5,
            failed_gets: 2,
            puts: 4,
            removes: 3,
            updates: 2,
            hops: 50,
            keys_transferred: 7,
            drops: 4,
            timeouts: 3,
            retries: 5,
            latency_ms: 900,
            rounds: 9,
            round_hops: 30,
            round_latency_ms: 500,
            cache_hits: 12,
            cache_misses: 6,
            cache_stale: 4,
            hops_saved: 28,
            repair_transfers: 9,
            repair_bandwidth: 21,
        };
        let b = DhtStats {
            gets: 1,
            failed_gets: 1,
            puts: 1,
            removes: 1,
            updates: 1,
            hops: 10,
            keys_transferred: 2,
            drops: 1,
            timeouts: 1,
            retries: 2,
            latency_ms: 300,
            rounds: 4,
            round_hops: 8,
            round_latency_ms: 200,
            cache_hits: 5,
            cache_misses: 2,
            cache_stale: 1,
            hops_saved: 10,
            repair_transfers: 3,
            repair_bandwidth: 6,
        };
        let d = a - b;
        assert_eq!(d.gets, 4);
        assert_eq!(d.failed_gets, 1);
        assert_eq!(d.puts, 3);
        assert_eq!(d.removes, 2);
        assert_eq!(d.updates, 1);
        assert_eq!(d.hops, 40);
        assert_eq!(d.keys_transferred, 5);
        assert_eq!(d.drops, 3);
        assert_eq!(d.timeouts, 2);
        assert_eq!(d.retries, 3);
        assert_eq!(d.latency_ms, 600);
        assert_eq!(d.rounds, 5);
        assert_eq!(d.round_hops, 22);
        assert_eq!(d.round_latency_ms, 300);
        assert_eq!(d.cache_hits, 7);
        assert_eq!(d.cache_misses, 4);
        assert_eq!(d.cache_stale, 3);
        assert_eq!(d.hops_saved, 18);
        assert_eq!(d.repair_transfers, 6);
        assert_eq!(d.repair_bandwidth, 15);
        assert_eq!(a, b + d, "addition inverts subtraction");
    }

    #[test]
    fn hit_rate_counts_stale_probes_against_the_cache() {
        assert_eq!(DhtStats::default().hit_rate(), 0.0);
        let s = DhtStats {
            cache_hits: 6,
            cache_misses: 2,
            cache_stale: 2,
            ..DhtStats::default()
        };
        assert_eq!(s.hit_rate(), 0.6);
    }

    #[test]
    fn invariants_hold_on_default_and_healthy_stats() {
        DhtStats::default().check_invariants().unwrap();
        let mut s = DhtStats::default();
        s.record_op(DhtOp::Get { found: true }, 3);
        s.record_op(DhtOp::Put, 5);
        s.record_batch([(DhtOp::Get { found: false }, 2), (DhtOp::Put, 4)]);
        s.record_delivery(7);
        s.record_round_latency(7);
        s.record_failed_attempt(10, false);
        s.record_retry(5);
        s.check_invariants().unwrap();
    }

    #[test]
    fn invariants_catch_each_drifted_counter() {
        let healthy = DhtStats {
            gets: 10,
            failed_gets: 2,
            puts: 5,
            hops: 40,
            rounds: 12,
            round_hops: 30,
            latency_ms: 100,
            round_latency_ms: 80,
            cache_hits: 4,
            cache_misses: 3,
            ..DhtStats::default()
        };
        healthy.check_invariants().unwrap();

        let mut rounds_over = healthy;
        rounds_over.rounds = 16;
        assert!(rounds_over
            .check_invariants()
            .unwrap_err()
            .contains("rounds"));

        let mut hops_over = healthy;
        hops_over.round_hops = 41;
        assert!(hops_over
            .check_invariants()
            .unwrap_err()
            .contains("round_hops"));

        let mut lat_over = healthy;
        lat_over.round_latency_ms = 101;
        assert!(lat_over
            .check_invariants()
            .unwrap_err()
            .contains("round_latency_ms"));

        let mut miss_over = healthy;
        miss_over.failed_gets = 11;
        assert!(miss_over
            .check_invariants()
            .unwrap_err()
            .contains("failed_gets"));

        let mut consult_over = healthy;
        consult_over.cache_misses = 12;
        assert!(consult_over
            .check_invariants()
            .unwrap_err()
            .contains("cache consults"));

        let mut phantom_repair = healthy;
        phantom_repair.repair_bandwidth = 5;
        assert!(phantom_repair
            .check_invariants()
            .unwrap_err()
            .contains("repair_bandwidth"));
    }

    #[test]
    fn record_repair_never_counts_lookups_or_request_hops() {
        let mut s = DhtStats::default();
        s.record_repair(3);
        s.record_repair(0); // one-hop substrates can repair for free
        assert_eq!(s.lookups(), 0, "repair must not enter the denominator");
        assert_eq!(s.hops, 0, "repair hops must not dilute request hops");
        assert_eq!(s.repair_transfers, 2);
        assert_eq!(s.repair_bandwidth, 3);
        s.check_invariants().unwrap();
    }
}
