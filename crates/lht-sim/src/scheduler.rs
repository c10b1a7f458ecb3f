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

use lht::harness::{self, Mutant, SubstrateKind, Tier, WorldSpec};
use lht_core::{
    Executor, HistoryCall, HistoryReturn, LeafBucket, LhtConfig, LhtError, LhtIndex, OpRecord,
};
use lht_dht::{BoxDht, NetProfile, RetryPolicy, RingControl, TierMaintenance};
use lht_id::U160;

use crate::checker::{self, Outcome};
use crate::config::SimConfig;
use crate::plan::{client_plans, ClientPlan};
use crate::shrink;

type Index = LhtIndex<BoxDht<'static, LeafBucket<u32>>, u32>;

/// State budget for the linearizability search; exceeding it yields
/// [`SimVerdict::Undecided`].
const CHECK_BUDGET: u64 = 2_000_000;

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

struct World {
    /// The ring the stabilize and churn actors drive.
    ring: Arc<dyn RingControl>,
    /// The durability tier, when one owns redundancy. Its anti-entropy
    /// rounds take the ring key-sync's slot in the actor table, so the
    /// actor count (and with it every plain-mode schedule trace) is
    /// the same in every mode.
    tier: Option<Arc<dyn TierMaintenance>>,
    /// Whether a churn departure crashes the node (what it stored is
    /// lost) instead of leaving gracefully (its keys move to its
    /// successor).
    crash_on_leave: bool,
    index: Index,
    /// Every client operation, stamped in virtual milliseconds, in
    /// execution order.
    history: Vec<OpRecord<u32>>,
    plans: Vec<ClientPlan>,
    churn_rng: StdRng,
    joined: u32,
    now: u64,
    next_ready: Vec<u64>,
    done_ops: Vec<u32>,
    trace: String,
    schedule: Vec<u32>,
}

impl World {
    /// Builds the world `cfg` describes (see [`simulate`] for which
    /// stack a configuration selects).
    fn build(cfg: &SimConfig) -> World {
        let seed = cfg.seed;
        let net = if cfg.drop_prob > 0.0 {
            NetProfile::lossy(seed ^ 0x5EED_0002, cfg.drop_prob)
        } else {
            NetProfile::reliable(seed ^ 0x5EED_0002)
        };
        let retry = RetryPolicy {
            seed: seed ^ 0x5EED_0003,
            ..RetryPolicy::default()
        };
        let world = harness::World::build(&WorldSpec {
            substrate: SubstrateKind::Chord {
                nodes: cfg.nodes,
                replicas: cfg.replicas,
            },
            ring_seed: seed ^ 0x5EED_0001,
            maintenance_loss: 0.0,
            tier: cfg.stack_tier(),
            net: Some((net, retry)),
            cache: Some(CACHE_CAPACITY),
            mutant: cfg.mutant,
        });
        let index = LhtIndex::new(world.dht, LhtConfig::new(cfg.theta_split, cfg.max_depth))
            .expect("bootstrap on a fresh ring");
        if let Some(Mutant::TornSplit(n)) = cfg.mutant {
            index.arm_torn_split(n);
        }
        let actor_count = cfg.clients as usize + 3;
        let mut next_ready = vec![0u64; actor_count];
        next_ready[cfg.clients as usize] = STABILIZE_INTERVAL;
        next_ready[cfg.clients as usize + 1] = KEY_SYNC_INTERVAL;
        next_ready[cfg.clients as usize + 2] = CHURN_INTERVAL;
        World {
            ring: world.ring.expect("the simulator runs over a ring"),
            tier: world.tier,
            // Surviving the outright loss of a departed node's
            // fragments is the coded tier's contract, and it is what
            // gives a broken regeneration path schedules where it
            // destroys data.
            crash_on_leave: matches!(cfg.stack_tier(), Some(Tier::Erasure(_))),
            index,
            history: Vec::new(),
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
            let sync = match self.tier {
                Some(_) => "anti-entropy",
                None => "key-sync",
            };
            sync.to_string()
        } else {
            "churn".to_string()
        }
    }

    fn execute(&mut self, cfg: &SimConfig, actor: usize) {
        let c = cfg.clients as usize;
        self.schedule.push(actor as u32);
        let t = self.now;
        let desc = if actor < c {
            self.client_step(actor)
        } else if actor == c {
            self.ring.stabilize_step();
            self.next_ready[actor] = t + STABILIZE_INTERVAL;
            "round".to_string()
        } else if actor == c + 1 {
            self.next_ready[actor] = t + KEY_SYNC_INTERVAL;
            match &self.tier {
                Some(tier) => format!("round writes={}", tier.anti_entropy_step()),
                None => {
                    self.ring.key_sync_step();
                    "round".to_string()
                }
            }
        } else {
            self.churn_step(cfg, actor)
        };
        let name = self.actor_name(cfg, actor);
        let _ = writeln!(self.trace, "[{t:>6}] {name}: {desc}");
    }

    fn client_step(&mut self, actor: usize) -> String {
        let (call, think) = self.plans[actor].ops[self.done_ops[actor] as usize].clone();
        self.done_ops[actor] += 1;
        let splits = self.index.stats().splits;
        let before = self.index.dht().stats();
        let out = self.index.execute(&call).map(|(ret, _)| ret);
        let after = self.index.dht().stats();
        let desc = describe(&call, &out, self.index.stats().splits > splits);
        // The operation's virtual duration: one base millisecond,
        // plus its routing hops, plus every wait the fault/retry
        // adapters charged (delivery latency, timeout waits, retry
        // backoffs). This is what makes operation intervals overlap.
        let duration = 1 + (after.hops - before.hops) / 2 + (after.latency_ms - before.latency_ms);
        self.history.push(OpRecord {
            client: actor as u32,
            inv: self.now,
            resp: self.now + duration,
            call,
            ret: out.unwrap_or_else(|e| HistoryReturn::failure(&e)),
        });
        self.next_ready[actor] = self.now + duration + think;
        format!("{desc} dur={duration}")
    }

    fn churn_step(&mut self, cfg: &SimConfig, actor: usize) -> String {
        self.done_ops[actor] += 1;
        self.next_ready[actor] = self.now + CHURN_INTERVAL;
        let shrunk = self.ring.node_count() <= cfg.nodes / MIN_RING_FRACTION;
        let leave = !shrunk && self.churn_rng.gen_bool(0.5);
        if leave {
            let ids: Vec<U160> = self.ring.snapshot().node_ids;
            let victim = ids[self.churn_rng.gen_range(0..ids.len())];
            if self.crash_on_leave {
                format!("crash {victim} -> {}", self.ring.crash(&victim))
            } else {
                format!("leave {victim} -> {}", self.ring.leave(&victim))
            }
        } else {
            self.joined += 1;
            let name = format!("sim:{}", self.joined);
            let id = self.ring.join(&name);
            format!("join {name} -> {:?}", id.map(|i| i.to_string()))
        }
    }
}

/// One client step's trace text: the call, then what it returned.
fn describe(
    call: &HistoryCall<u32>,
    out: &Result<HistoryReturn<u32>, LhtError>,
    split: bool,
) -> String {
    let call = match call {
        HistoryCall::Insert { key, value } => format!("insert k={key:016x} v={value}"),
        HistoryCall::Remove { key } => format!("remove k={key:016x}"),
        HistoryCall::Get { key } => format!("get k={key:016x}"),
        HistoryCall::Range { lo, hi } => format!("range lo={lo:016x} hi={hi:?}"),
        HistoryCall::Min => "min".to_string(),
        HistoryCall::Max => "max".to_string(),
    };
    let ret = match out {
        Err(e) => format!("err {e}"),
        Ok(HistoryReturn::Inserted) => format!("ok split={split}"),
        Ok(HistoryReturn::Removed { prior }) => format!("prior={prior:?}"),
        Ok(HistoryReturn::Value { value }) => format!("{value:?}"),
        Ok(HistoryReturn::Records { records }) => format!("{} records", records.len()),
        Ok(HistoryReturn::Extreme { record }) => format!("{record:?}"),
        Ok(HistoryReturn::Failed { .. }) => unreachable!("the executor reports failures as Err"),
    };
    format!("{call} -> {ret}")
}

/// Runs the scheduler loop to completion (all client operations
/// executed for a random chooser; schedule exhausted for a scripted
/// one).
fn run(cfg: &SimConfig, mut chooser: Chooser) -> World {
    let mut world = World::build(cfg);
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

/// The checker's verdict on `world`'s history. A failure carries the
/// schedule `failing` makes of the world's own.
fn verdict_of(
    cfg: &SimConfig,
    world: &World,
    failing: impl FnOnce(&[u32]) -> Vec<u32>,
) -> SimVerdict {
    let result = checker::check(&world.history, cfg.strict(), CHECK_BUDGET);
    match result.outcome {
        Outcome::Linearizable => SimVerdict::Pass {
            ops: result.ops,
            states: result.states,
        },
        Outcome::Undecided => SimVerdict::Undecided {
            states: result.states,
        },
        Outcome::NotLinearizable { witness } => {
            let minimized = failing(&world.schedule);
            let replay = cfg.replay_line(&minimized);
            SimVerdict::Fail {
                witness,
                minimized,
                replay,
            }
        }
    }
}

fn report(cfg: &SimConfig, world: World, verdict: SimVerdict) -> SimReport {
    SimReport {
        config: cfg.clone(),
        history_len: world.history.len(),
        trace: world.trace,
        schedule: world.schedule,
        verdict,
    }
}

/// Runs one seed-determined simulation end to end: schedule, record,
/// check, and — on a violation — shrink the schedule and build the
/// replay line.
///
/// The stack is picked by the configuration: an erasure tier (named,
/// or implied by an armed erasure mutant) selects the erasure-coded
/// stack, a quorum tier the quorum-replicated stack — both replace
/// the key-sync actor slot with anti-entropy — and otherwise the
/// plain replicated ring runs.
pub fn simulate(cfg: &SimConfig) -> SimReport {
    let world = run(cfg, Chooser::Random(StdRng::seed_from_u64(cfg.seed)));
    // Accounting soundness rides along with every simulation: the
    // layered stack's counters must satisfy the DhtStats contract
    // regardless of which schedule the chooser explored.
    if let Err(violation) = world.index.dht().stats().check_invariants() {
        panic!(
            "simulation seed {} broke the stats contract: {violation}",
            cfg.seed
        );
    }
    let verdict = verdict_of(cfg, &world, |schedule| {
        shrink::shrink(schedule, |candidate| {
            let replayed = run(
                cfg,
                Chooser::Scripted {
                    picks: candidate.to_vec(),
                    at: 0,
                },
            );
            matches!(
                checker::check(&replayed.history, cfg.strict(), CHECK_BUDGET).outcome,
                Outcome::NotLinearizable { .. }
            )
        })
    });
    report(cfg, world, verdict)
}

/// Replays an explicit schedule (e.g. a minimized one from a
/// [`SimVerdict::Fail`]) under the same configuration and re-checks
/// the resulting history. The verdict's `minimized` schedule is the
/// replayed schedule itself — replay does not re-shrink.
pub fn replay_schedule(cfg: &SimConfig, schedule: &[u32]) -> SimReport {
    let world = run(
        cfg,
        Chooser::Scripted {
            picks: schedule.to_vec(),
            at: 0,
        },
    );
    let verdict = verdict_of(cfg, &world, <[u32]>::to_vec);
    report(cfg, world, verdict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lht_dht::{ErasureConfig, QuorumConfig};

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
            tier: Some(Tier::Quorum(QuorumConfig::new(3, 2, 2))),
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
            tier: Some(Tier::Quorum(QuorumConfig::new(3, 2, 2))),
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
            tier: Some(Tier::Erasure(ErasureConfig::new(2, 5))),
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
                tier: Some(Tier::Erasure(ErasureConfig::new(2, 5))),
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
            mutant: Some(Mutant::CorruptFragment),
            ..SimConfig::small(1)
        };
        assert_eq!(
            cfg.stack_tier(),
            Some(Tier::Erasure(ErasureConfig::new(2, 5)))
        );
        assert!(cfg.replay_args().contains("--corrupt-fragment"));
        let explicit = SimConfig {
            tier: Some(Tier::Erasure(ErasureConfig::new(4, 6))),
            mutant: Some(Mutant::LazyRegen),
            ..SimConfig::small(1)
        };
        assert_eq!(
            explicit.stack_tier(),
            Some(Tier::Erasure(ErasureConfig::new(4, 6)))
        );
        assert!(explicit.replay_args().contains("--erasure 4,6"));
        assert!(explicit.replay_args().contains("--lazy-regen"));
    }

    #[test]
    fn quorum_mutants_imply_the_quorum_stack_in_replays() {
        let cfg = SimConfig {
            mutant: Some(Mutant::SloppyQuorumRead),
            ..SimConfig::small(1)
        };
        assert_eq!(
            cfg.stack_tier(),
            Some(Tier::Quorum(QuorumConfig::new(3, 2, 2)))
        );
        assert!(cfg.replay_args().contains("--sloppy-quorum-read"));
        let explicit = SimConfig {
            tier: Some(Tier::Quorum(QuorumConfig::new(3, 1, 3))),
            mutant: Some(Mutant::LostWriteAck),
            ..SimConfig::small(1)
        };
        assert_eq!(
            explicit.stack_tier(),
            Some(Tier::Quorum(QuorumConfig::new(3, 1, 3)))
        );
        assert!(explicit.replay_args().contains("--quorum 3,1,3"));
        assert!(explicit.replay_args().contains("--lost-write-ack"));
    }
}
