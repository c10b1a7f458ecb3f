//! The virtual-clock scheduler: one seeded, single-threaded
//! interleaving of clients, Chord maintenance, key-sync, churn and
//! the fault/retry stack.
//!
//! Every schedulable unit is an *actor step*. The scheduler keeps a
//! virtual clock in milliseconds; each actor has a `next_ready` time
//! and the scheduler repeatedly picks — via the seeded RNG, or from
//! an explicit schedule on replay — among the actors whose
//! `next_ready` has arrived, advancing the clock to the earliest
//! ready time when nobody is. A client step executes one planned
//! index operation *atomically at its invocation* and charges it a
//! duration derived from the [`DhtStats`](lht_dht::DhtStats) delta it
//! caused (routing hops plus every virtual wait the fault and retry
//! adapters recorded), so the operation's response lands later and
//! histories genuinely overlap.
//!
//! The executed pick sequence *is* the schedule: replaying it (with
//! the same [`SimConfig`]) reproduces the run byte-for-byte, and any
//! subsequence is itself a valid (shorter) run — the property the
//! [shrinker](crate::shrink) relies on.

use std::fmt::Write as _;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use lht_core::{HistoryLog, KeyInterval, LeafBucket, LhtConfig, LhtIndex};
use lht_dht::{
    CachedDht, ChordConfig, ChordDht, Dht, ErasureConfig, ErasureDht, FaultyDht, Fragment,
    NetProfile, QuorumConfig, QuorumDht, RetriedDht, RetryPolicy, Versioned,
};
use lht_id::{KeyFraction, U160};

use crate::checker::{self, Outcome};
use crate::config::SimConfig;
use crate::plan::{client_plans, ClientPlan, PlannedOp};
use crate::shrink;

type Ring = ChordDht<LeafBucket<u32>>;
type Stack = CachedDht<RetriedDht<FaultyDht<Arc<Ring>>>>;
type QRing = ChordDht<Versioned<LeafBucket<u32>>>;
type QuorumLayer = QuorumDht<Arc<QRing>>;
type QStack = CachedDht<RetriedDht<FaultyDht<Arc<QuorumLayer>>>>;
type ERing = ChordDht<Fragment>;
type ErasureLayer = ErasureDht<Arc<ERing>, LeafBucket<u32>>;
type EStack = CachedDht<RetriedDht<FaultyDht<Arc<ErasureLayer>>>>;

/// The maintenance half of a built world: the ring the stabilize and
/// churn actors drive, plus — in quorum mode — the replication layer
/// whose anti-entropy rounds replace the ring's ad-hoc key-sync.
enum Maint {
    /// Historical primary-owner stack: the ring replicates keys
    /// itself and a key-sync actor reconciles the copies.
    Plain {
        /// The shared Chord ring.
        ring: Arc<Ring>,
    },
    /// Quorum stack: the ring stores single-copy versioned slots and
    /// the quorum layer owns redundancy; the key-sync slot in the
    /// actor table runs anti-entropy instead, so the actor count (and
    /// therefore every plain-mode schedule trace) is unchanged.
    Quorum {
        /// The shared single-copy Chord ring under the quorum layer.
        ring: Arc<QRing>,
        /// The replication layer driven by the anti-entropy actor.
        quorum: Arc<QuorumLayer>,
    },
    /// Erasure stack: the ring stores single-copy coded fragments and
    /// the erasure layer owns redundancy; the key-sync slot runs the
    /// layer's anti-entropy (handoff flush + fragment regeneration),
    /// and churn departures **crash** nodes — fragments on the victim
    /// are lost, which is what makes regeneration observable by the
    /// checker.
    Erasure {
        /// The shared single-copy Chord ring under the erasure layer.
        ring: Arc<ERing>,
        /// The coding layer driven by the anti-entropy actor.
        erasure: Arc<ErasureLayer>,
    },
}

impl Maint {
    fn stabilize_step(&self) {
        match self {
            Maint::Plain { ring } => ring.stabilize_step(),
            Maint::Quorum { ring, .. } => ring.stabilize_step(),
            Maint::Erasure { ring, .. } => ring.stabilize_step(),
        }
    }

    /// One replica-reconciliation round: Chord key-sync in plain
    /// mode, a durability-layer anti-entropy step in quorum or
    /// erasure mode. Returns the trace description (deterministic for
    /// equal configurations).
    fn sync_step(&self) -> String {
        match self {
            Maint::Plain { ring } => {
                ring.key_sync_step();
                "round".to_string()
            }
            Maint::Quorum { quorum, .. } => {
                let writes = quorum.anti_entropy_step();
                format!("round writes={writes}")
            }
            Maint::Erasure { erasure, .. } => {
                let writes = erasure.anti_entropy_step();
                format!("round writes={writes}")
            }
        }
    }

    fn sync_name(&self) -> &'static str {
        match self {
            Maint::Plain { .. } => "key-sync",
            Maint::Quorum { .. } | Maint::Erasure { .. } => "anti-entropy",
        }
    }

    fn node_count(&self) -> usize {
        match self {
            Maint::Plain { ring } => ring.node_count(),
            Maint::Quorum { ring, .. } => ring.node_count(),
            Maint::Erasure { ring, .. } => ring.node_count(),
        }
    }

    fn node_ids(&self) -> Vec<U160> {
        match self {
            Maint::Plain { ring } => ring.snapshot().node_ids,
            Maint::Quorum { ring, .. } => ring.snapshot().node_ids,
            Maint::Erasure { ring, .. } => ring.snapshot().node_ids,
        }
    }

    /// A churn departure: graceful (the node hands its keys to its
    /// successor) in plain and quorum mode, a **crash** (its
    /// fragments are lost) in erasure mode — surviving exactly that
    /// loss is the coded tier's contract, and it is what gives a
    /// broken regeneration path schedules where it destroys data.
    fn leave(&self, id: &U160) -> bool {
        match self {
            Maint::Plain { ring } => ring.leave(id),
            Maint::Quorum { ring, .. } => ring.leave(id),
            Maint::Erasure { ring, .. } => ring.crash(id),
        }
    }

    /// The churn trace verb for a departure (see [`leave`](Self::leave)).
    fn leave_verb(&self) -> &'static str {
        match self {
            Maint::Plain { .. } | Maint::Quorum { .. } => "leave",
            Maint::Erasure { .. } => "crash",
        }
    }

    fn join(&self, name: &str) -> Option<U160> {
        match self {
            Maint::Plain { ring } => ring.join(name),
            Maint::Quorum { ring, .. } => ring.join(name),
            Maint::Erasure { ring, .. } => ring.join(name),
        }
    }
}

/// A stack type the scheduler can build a world over: the plain
/// primary-owner [`Stack`] or the quorum-replicated [`QStack`].
trait StackBuild: Dht<Value = LeafBucket<u32>> + Sized {
    /// Builds the index substrate plus the maintenance handles for
    /// `cfg`, arming whichever mutants the configuration requests.
    fn build(cfg: &SimConfig) -> (Self, Maint);
}

impl StackBuild for Stack {
    fn build(cfg: &SimConfig) -> (Stack, Maint) {
        let ring = Arc::new(Ring::with_config(
            cfg.nodes,
            cfg.seed ^ 0x5EED_0001,
            ChordConfig {
                replicas: cfg.replicas,
                ..ChordConfig::default()
            },
        ));
        if cfg.stale_replica {
            ring.arm_stale_replica_mutant();
        }
        if cfg.stale_cache_read {
            ring.arm_stale_cache_mutant();
        }
        let stack = CachedDht::with_capacity(
            RetriedDht::new(
                FaultyDht::new(Arc::clone(&ring), net_profile(cfg)),
                retry_policy(cfg),
            ),
            CACHE_CAPACITY,
        );
        (stack, Maint::Plain { ring })
    }
}

impl StackBuild for QStack {
    fn build(cfg: &SimConfig) -> (QStack, Maint) {
        let (n, r, w) = cfg
            .quorum_params()
            .expect("quorum stack requires quorum parameters");
        // The quorum layer owns redundancy, so the ring runs
        // single-copy; its key-sync would have nothing to reconcile.
        let ring = Arc::new(QRing::with_config(
            cfg.nodes,
            cfg.seed ^ 0x5EED_0001,
            ChordConfig {
                replicas: 1,
                ..ChordConfig::default()
            },
        ));
        if cfg.stale_replica {
            ring.arm_stale_replica_mutant();
        }
        if cfg.stale_cache_read {
            ring.arm_stale_cache_mutant();
        }
        let quorum = Arc::new(QuorumDht::new(
            Arc::clone(&ring),
            QuorumConfig::new(n, r, w),
        ));
        if cfg.sloppy_quorum_read {
            quorum.arm_sloppy_read_mutant();
        }
        if cfg.lost_write_ack {
            quorum.arm_lost_write_ack_mutant();
        }
        let stack = CachedDht::with_capacity(
            RetriedDht::new(
                FaultyDht::new(Arc::clone(&quorum), net_profile(cfg)),
                retry_policy(cfg),
            ),
            CACHE_CAPACITY,
        );
        (stack, Maint::Quorum { ring, quorum })
    }
}

impl StackBuild for EStack {
    fn build(cfg: &SimConfig) -> (EStack, Maint) {
        let (k, m) = cfg
            .erasure_params()
            .expect("erasure stack requires erasure parameters");
        // The coded group owns redundancy, so the ring runs
        // single-copy; churn departures crash nodes (see
        // [`Maint::leave`]) and the anti-entropy actor regenerates
        // what the crashes destroy.
        let ring = Arc::new(ERing::with_config(
            cfg.nodes,
            cfg.seed ^ 0x5EED_0001,
            ChordConfig {
                replicas: 1,
                ..ChordConfig::default()
            },
        ));
        if cfg.stale_replica {
            ring.arm_stale_replica_mutant();
        }
        if cfg.stale_cache_read {
            ring.arm_stale_cache_mutant();
        }
        let erasure = Arc::new(ErasureDht::new(Arc::clone(&ring), ErasureConfig::new(k, m)));
        if cfg.corrupt_fragment {
            erasure.arm_corrupt_fragment_mutant();
        }
        if cfg.lazy_regen {
            erasure.arm_lazy_regen_mutant();
        }
        let stack = CachedDht::with_capacity(
            RetriedDht::new(
                FaultyDht::new(Arc::clone(&erasure), net_profile(cfg)),
                retry_policy(cfg),
            ),
            CACHE_CAPACITY,
        );
        (stack, Maint::Erasure { ring, erasure })
    }
}

fn net_profile(cfg: &SimConfig) -> NetProfile {
    if cfg.drop_prob > 0.0 {
        NetProfile::lossy(cfg.seed ^ 0x5EED_0002, cfg.drop_prob)
    } else {
        NetProfile::reliable(cfg.seed ^ 0x5EED_0002)
    }
}

fn retry_policy(cfg: &SimConfig) -> RetryPolicy {
    RetryPolicy {
        seed: cfg.seed ^ 0x5EED_0003,
        ..RetryPolicy::default()
    }
}

/// Location-cache capacity for the simulated index stack. Small
/// enough that eviction actually happens inside a run, large enough
/// that repeat lookups hit.
const CACHE_CAPACITY: usize = 256;

/// Virtual milliseconds between Chord stabilization steps.
const STABILIZE_INTERVAL: u64 = 25;
/// Virtual milliseconds between replica key-sync steps.
const KEY_SYNC_INTERVAL: u64 = 45;
/// Virtual milliseconds between churn events.
const CHURN_INTERVAL: u64 = 60;
/// Keep at least this fraction of the initial ring through churn.
const MIN_RING_FRACTION: usize = 2;

/// How one simulation ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimVerdict {
    /// The recorded history is linearizable.
    Pass {
        /// Operations checked.
        ops: usize,
        /// States the search visited (0 = fast path).
        states: u64,
    },
    /// The history is **not** linearizable.
    Fail {
        /// First inexplicable operation, in execution order.
        witness: String,
        /// The minimized failing schedule (actor pick sequence).
        minimized: Vec<u32>,
        /// One-line command reproducing the minimized schedule.
        replay: String,
    },
    /// The linearizability search exceeded its state budget.
    Undecided {
        /// States visited before giving up.
        states: u64,
    },
}

/// The full product of one simulation: the schedule trace (identical
/// across runs of the same configuration), the executed pick
/// sequence, and the checker's verdict.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// The configuration that produced this run.
    pub config: SimConfig,
    /// Human-readable per-step schedule trace; byte-identical for
    /// equal configurations.
    pub trace: String,
    /// The executed actor pick sequence.
    pub schedule: Vec<u32>,
    /// Index operations recorded in the history.
    pub history_len: usize,
    /// The verdict.
    pub verdict: SimVerdict,
}

enum Chooser {
    Random(StdRng),
    Scripted { picks: Vec<u32>, at: usize },
}

struct World<S: StackBuild> {
    maint: Maint,
    index: LhtIndex<S, u32>,
    log: Arc<HistoryLog<u32>>,
    plans: Vec<ClientPlan>,
    churn_rng: StdRng,
    joined: u32,
    now: u64,
    next_ready: Vec<u64>,
    done_ops: Vec<u32>,
    trace: String,
    schedule: Vec<u32>,
}

impl<S: StackBuild> World<S> {
    fn build(cfg: &SimConfig) -> World<S> {
        let (stack, maint) = S::build(cfg);
        let index = LhtIndex::new(stack, LhtConfig::new(cfg.theta_split, cfg.max_depth))
            .expect("bootstrap on a fresh ring");
        let log = HistoryLog::new();
        index.attach_history(Arc::clone(&log));
        if let Some(n) = cfg.torn_split {
            index.arm_torn_split(n);
        }
        let actor_count = cfg.clients as usize + 3;
        let mut next_ready = vec![0u64; actor_count];
        next_ready[cfg.clients as usize] = STABILIZE_INTERVAL;
        next_ready[cfg.clients as usize + 1] = KEY_SYNC_INTERVAL;
        next_ready[cfg.clients as usize + 2] = CHURN_INTERVAL;
        World {
            maint,
            index,
            log,
            plans: client_plans(cfg),
            churn_rng: StdRng::seed_from_u64(cfg.seed ^ 0x5EED_0004),
            joined: 0,
            now: 0,
            next_ready,
            done_ops: vec![0; actor_count],
            trace: String::new(),
            schedule: Vec::new(),
        }
    }

    /// Remaining steps for an actor (`usize::MAX` = unbounded).
    fn remaining(&self, cfg: &SimConfig, actor: usize) -> usize {
        let c = cfg.clients as usize;
        if actor < c {
            (cfg.ops_per_client - self.done_ops[actor]) as usize
        } else if actor == c + 2 {
            (cfg.churn_events - self.done_ops[actor]) as usize
        } else {
            usize::MAX // maintenance actors never run out
        }
    }

    fn clients_done(&self, cfg: &SimConfig) -> bool {
        (0..cfg.clients as usize).all(|a| self.remaining(cfg, a) == 0)
    }

    fn actor_name(&self, cfg: &SimConfig, actor: usize) -> String {
        let c = cfg.clients as usize;
        if actor < c {
            format!("client:{actor}")
        } else if actor == c {
            "stabilize".to_string()
        } else if actor == c + 1 {
            self.maint.sync_name().to_string()
        } else {
            "churn".to_string()
        }
    }

    fn execute(&mut self, cfg: &SimConfig, actor: usize) {
        let c = cfg.clients as usize;
        self.schedule.push(actor as u32);
        let t = self.now;
        let desc = if actor < c {
            self.client_step(cfg, actor)
        } else if actor == c {
            self.maint.stabilize_step();
            self.next_ready[actor] = t + STABILIZE_INTERVAL;
            "round".to_string()
        } else if actor == c + 1 {
            let desc = self.maint.sync_step();
            self.next_ready[actor] = t + KEY_SYNC_INTERVAL;
            desc
        } else {
            self.churn_step(cfg, actor)
        };
        let name = self.actor_name(cfg, actor);
        let _ = writeln!(self.trace, "[{t:>6}] {name}: {desc}");
    }

    fn client_step(&mut self, _cfg: &SimConfig, actor: usize) -> String {
        let (op, think) = self.plans[actor].ops[self.done_ops[actor] as usize];
        self.done_ops[actor] += 1;
        self.log.set_context(actor as u32, self.now);
        let before = self.index.dht().stats();
        let desc = match op {
            PlannedOp::Insert { key, value } => {
                let r = self.index.insert(KeyFraction::from_bits(key), value);
                match r {
                    Ok(o) => format!("insert k={key:016x} v={value} -> ok split={}", o.did_split),
                    Err(e) => format!("insert k={key:016x} v={value} -> err {e}"),
                }
            }
            PlannedOp::Remove { key } => match self.index.remove(KeyFraction::from_bits(key)) {
                Ok(o) => format!("remove k={key:016x} -> prior={:?}", o.value),
                Err(e) => format!("remove k={key:016x} -> err {e}"),
            },
            PlannedOp::Get { key } => match self.index.exact_match(KeyFraction::from_bits(key)) {
                Ok(h) => format!("get k={key:016x} -> {:?}", h.value),
                Err(e) => format!("get k={key:016x} -> err {e}"),
            },
            PlannedOp::Range { lo, hi } => {
                let interval = match hi {
                    Some(hi) => KeyInterval::half_open(
                        KeyFraction::from_bits(lo),
                        KeyFraction::from_bits(hi),
                    ),
                    None => KeyInterval::from_key_to_end(KeyFraction::from_bits(lo)),
                };
                match self.index.range(interval) {
                    Ok(r) => format!(
                        "range lo={lo:016x} hi={hi:?} -> {} records",
                        r.records.len()
                    ),
                    Err(e) => format!("range lo={lo:016x} hi={hi:?} -> err {e}"),
                }
            }
            PlannedOp::Min => match self.index.min() {
                Ok(h) => format!("min -> {:?}", h.value.map(|(k, v)| (k.bits(), v))),
                Err(e) => format!("min -> err {e}"),
            },
            PlannedOp::Max => match self.index.max() {
                Ok(h) => format!("max -> {:?}", h.value.map(|(k, v)| (k.bits(), v))),
                Err(e) => format!("max -> err {e}"),
            },
        };
        let after = self.index.dht().stats();
        // The operation's virtual duration: one base millisecond,
        // plus its routing hops, plus every wait the fault/retry
        // adapters charged (delivery latency, timeout waits, retry
        // backoffs). This is what makes operation intervals overlap.
        let duration = 1 + (after.hops - before.hops) / 2 + (after.latency_ms - before.latency_ms);
        self.log.close_last(self.now + duration);
        self.next_ready[actor] = self.now + duration + think;
        format!("{desc} dur={duration}")
    }

    fn churn_step(&mut self, cfg: &SimConfig, actor: usize) -> String {
        self.done_ops[actor] += 1;
        self.next_ready[actor] = self.now + CHURN_INTERVAL;
        let shrunk = self.maint.node_count() <= cfg.nodes / MIN_RING_FRACTION;
        let leave = !shrunk && self.churn_rng.gen_bool(0.5);
        if leave {
            let ids: Vec<U160> = self.maint.node_ids();
            let victim = ids[self.churn_rng.gen_range(0..ids.len())];
            let ok = self.maint.leave(&victim);
            format!("{} {victim} -> {ok}", self.maint.leave_verb())
        } else {
            self.joined += 1;
            let name = format!("sim:{}", self.joined);
            let id = self.maint.join(&name);
            format!("join {name} -> {:?}", id.map(|i| i.to_string()))
        }
    }
}

/// Runs the scheduler loop to completion (all client operations
/// executed for a random chooser; schedule exhausted for a scripted
/// one).
fn run<S: StackBuild>(cfg: &SimConfig, mut chooser: Chooser) -> World<S> {
    let mut world = World::<S>::build(cfg);
    loop {
        match &mut chooser {
            Chooser::Random(rng) => {
                if world.clients_done(cfg) {
                    break;
                }
                let ready: Vec<usize> = (0..world.next_ready.len())
                    .filter(|&a| world.remaining(cfg, a) > 0 && world.next_ready[a] <= world.now)
                    .collect();
                if ready.is_empty() {
                    // Advance the clock to the earliest pending actor.
                    let next = (0..world.next_ready.len())
                        .filter(|&a| world.remaining(cfg, a) > 0)
                        .map(|a| world.next_ready[a])
                        .min()
                        .expect("maintenance actors are always pending");
                    world.now = next;
                    continue;
                }
                let pick = ready[rng.gen_range(0..ready.len())];
                world.execute(cfg, pick);
            }
            Chooser::Scripted { picks, at } => {
                let Some(&actor) = picks.get(*at) else { break };
                *at += 1;
                let actor = actor as usize;
                if actor >= world.next_ready.len() || world.remaining(cfg, actor) == 0 {
                    continue; // stale entry (shrunk schedule): skip
                }
                world.now = world.now.max(world.next_ready[actor]);
                world.execute(cfg, actor);
            }
        }
    }
    world
}

fn verdict_of<S: StackBuild>(cfg: &SimConfig, world: &World<S>) -> (SimVerdict, usize) {
    let history = world.log.snapshot();
    let result = checker::check(&history, cfg.strict(), cfg.check_budget);
    let verdict = match result.outcome {
        Outcome::Linearizable => SimVerdict::Pass {
            ops: result.ops,
            states: result.states,
        },
        Outcome::Undecided => SimVerdict::Undecided {
            states: result.states,
        },
        Outcome::NotLinearizable { witness } => {
            let minimized = shrink::shrink(&world.schedule, |candidate| {
                let replayed = run::<S>(
                    cfg,
                    Chooser::Scripted {
                        picks: candidate.to_vec(),
                        at: 0,
                    },
                );
                let history = replayed.log.snapshot();
                matches!(
                    checker::check(&history, cfg.strict(), cfg.check_budget).outcome,
                    Outcome::NotLinearizable { .. }
                )
            });
            let replay = cfg.replay_line(&minimized);
            SimVerdict::Fail {
                witness,
                minimized,
                replay,
            }
        }
    };
    (verdict, history.len())
}

/// Runs one seed-determined simulation end to end: schedule, record,
/// check, and — on a violation — shrink the schedule and build the
/// replay line.
///
/// The stack is picked by the configuration: any erasure setting (or
/// armed erasure mutant) selects the erasure-coded stack, any quorum
/// setting (or armed quorum mutant) the quorum-replicated stack —
/// both replace the key-sync actor slot with anti-entropy — and
/// otherwise the historical plain stack runs with byte-identical
/// traces. Quorum and erasure are mutually exclusive.
pub fn simulate(cfg: &SimConfig) -> SimReport {
    if cfg.erasure_params().is_some() {
        assert!(
            cfg.quorum_params().is_none(),
            "quorum and erasure stacks are mutually exclusive"
        );
        simulate_on::<EStack>(cfg)
    } else if cfg.quorum_params().is_some() {
        simulate_on::<QStack>(cfg)
    } else {
        simulate_on::<Stack>(cfg)
    }
}

fn simulate_on<S: StackBuild>(cfg: &SimConfig) -> SimReport {
    let world = run::<S>(cfg, Chooser::Random(StdRng::seed_from_u64(cfg.seed)));
    // Accounting soundness rides along with every simulation: the
    // layered stack's counters must satisfy the DhtStats contract
    // regardless of which schedule the chooser explored.
    if let Err(violation) = world.index.dht().stats().check_invariants() {
        panic!(
            "simulation seed {} broke the stats contract: {violation}",
            cfg.seed
        );
    }
    let (verdict, history_len) = verdict_of(cfg, &world);
    SimReport {
        config: cfg.clone(),
        trace: world.trace,
        schedule: world.schedule,
        history_len,
        verdict,
    }
}

/// Replays an explicit schedule (e.g. a minimized one from a
/// [`SimVerdict::Fail`]) under the same configuration and re-checks
/// the resulting history. The verdict's `minimized` schedule is the
/// replayed schedule itself — replay does not re-shrink.
pub fn replay_schedule(cfg: &SimConfig, schedule: &[u32]) -> SimReport {
    if cfg.erasure_params().is_some() {
        assert!(
            cfg.quorum_params().is_none(),
            "quorum and erasure stacks are mutually exclusive"
        );
        replay_on::<EStack>(cfg, schedule)
    } else if cfg.quorum_params().is_some() {
        replay_on::<QStack>(cfg, schedule)
    } else {
        replay_on::<Stack>(cfg, schedule)
    }
}

fn replay_on<S: StackBuild>(cfg: &SimConfig, schedule: &[u32]) -> SimReport {
    let world = run::<S>(
        cfg,
        Chooser::Scripted {
            picks: schedule.to_vec(),
            at: 0,
        },
    );
    let history = world.log.snapshot();
    let result = checker::check(&history, cfg.strict(), cfg.check_budget);
    let verdict = match result.outcome {
        Outcome::Linearizable => SimVerdict::Pass {
            ops: result.ops,
            states: result.states,
        },
        Outcome::Undecided => SimVerdict::Undecided {
            states: result.states,
        },
        Outcome::NotLinearizable { witness } => SimVerdict::Fail {
            witness,
            minimized: schedule.to_vec(),
            replay: cfg.replay_line(schedule),
        },
    };
    SimReport {
        config: cfg.clone(),
        trace: world.trace,
        schedule: world.schedule,
        history_len: history.len(),
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_trace_and_verdict() {
        let cfg = SimConfig::small(11);
        let a = simulate(&cfg);
        let b = simulate(&cfg);
        assert_eq!(a.trace, b.trace, "schedule trace must be byte-identical");
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.verdict, b.verdict);
    }

    #[test]
    fn replaying_the_recorded_schedule_reproduces_the_trace() {
        let cfg = SimConfig::small(5);
        let a = simulate(&cfg);
        let b = replay_schedule(&cfg, &a.schedule);
        assert_eq!(a.trace, b.trace, "full-schedule replay is exact");
    }

    #[test]
    fn correct_code_passes_under_churn() {
        let report = simulate(&SimConfig::small(3));
        assert!(
            matches!(report.verdict, SimVerdict::Pass { .. }),
            "{:?}\n{}",
            report.verdict,
            report.trace
        );
        assert!(report.history_len > 0);
    }

    #[test]
    fn lossy_mode_still_passes() {
        let cfg = SimConfig {
            drop_prob: 0.10,
            ..SimConfig::small(17)
        };
        let report = simulate(&cfg);
        assert!(
            matches!(report.verdict, SimVerdict::Pass { .. }),
            "{:?}",
            report.verdict
        );
    }

    #[test]
    fn quorum_mode_is_deterministic_and_runs_anti_entropy() {
        let cfg = SimConfig {
            quorum: Some((3, 2, 2)),
            ..SimConfig::small(11)
        };
        let a = simulate(&cfg);
        let b = simulate(&cfg);
        assert_eq!(a.trace, b.trace, "quorum trace must be byte-identical");
        assert_eq!(a.verdict, b.verdict);
        assert!(
            a.trace.contains("anti-entropy"),
            "the key-sync actor slot must run anti-entropy in quorum mode:\n{}",
            a.trace
        );
        assert!(!a.trace.contains("key-sync"));
    }

    #[test]
    fn correct_quorum_stack_passes_under_churn() {
        let cfg = SimConfig {
            quorum: Some((3, 2, 2)),
            ..SimConfig::small(3)
        };
        let report = simulate(&cfg);
        assert!(
            matches!(report.verdict, SimVerdict::Pass { .. }),
            "{:?}\n{}",
            report.verdict,
            report.trace
        );
        assert!(report.history_len > 0);
    }

    #[test]
    fn erasure_mode_is_deterministic_runs_anti_entropy_and_crashes() {
        let cfg = SimConfig {
            erasure: Some((2, 5)),
            ..SimConfig::small(11)
        };
        let a = simulate(&cfg);
        let b = simulate(&cfg);
        assert_eq!(a.trace, b.trace, "erasure trace must be byte-identical");
        assert_eq!(a.verdict, b.verdict);
        assert!(
            a.trace.contains("anti-entropy"),
            "the key-sync actor slot must run anti-entropy in erasure mode:\n{}",
            a.trace
        );
        assert!(!a.trace.contains("key-sync"));
        assert!(
            !a.trace.contains("] churn: leave"),
            "erasure-mode departures must crash, not leave gracefully:\n{}",
            a.trace
        );
    }

    #[test]
    fn correct_erasure_stack_passes_under_crash_churn() {
        for seed in [3u64, 11] {
            let cfg = SimConfig {
                erasure: Some((2, 5)),
                ..SimConfig::small(seed)
            };
            let report = simulate(&cfg);
            assert!(
                matches!(report.verdict, SimVerdict::Pass { .. }),
                "seed {seed}: {:?}\n{}",
                report.verdict,
                report.trace
            );
            assert!(report.history_len > 0);
        }
    }

    #[test]
    fn erasure_mutants_imply_the_erasure_stack_in_replays() {
        let cfg = SimConfig {
            corrupt_fragment: true,
            ..SimConfig::small(1)
        };
        assert_eq!(cfg.erasure_params(), Some((2, 5)));
        assert!(cfg.replay_args().contains("--corrupt-fragment"));
        let explicit = SimConfig {
            erasure: Some((4, 6)),
            lazy_regen: true,
            ..SimConfig::small(1)
        };
        assert_eq!(explicit.erasure_params(), Some((4, 6)));
        assert!(explicit.replay_args().contains("--erasure 4,6"));
        assert!(explicit.replay_args().contains("--lazy-regen"));
    }

    #[test]
    fn quorum_mutants_imply_the_quorum_stack_in_replays() {
        let cfg = SimConfig {
            sloppy_quorum_read: true,
            ..SimConfig::small(1)
        };
        assert_eq!(cfg.quorum_params(), Some((3, 2, 2)));
        assert!(cfg.replay_args().contains("--sloppy-quorum-read"));
        let explicit = SimConfig {
            quorum: Some((3, 1, 3)),
            lost_write_ack: true,
            ..SimConfig::small(1)
        };
        assert_eq!(explicit.quorum_params(), Some((3, 1, 3)));
        assert!(explicit.replay_args().contains("--quorum 3,1,3"));
        assert!(explicit.replay_args().contains("--lost-write-ack"));
    }
}
