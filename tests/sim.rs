//! Integration tests for the deterministic simulator (`lht-sim`):
//! reproducibility, clean-code linearizability across modes, and the
//! mutant-detection proof for the two seeded bug re-introductions.
//!
//! Any failing run below prints a one-line replay command; run it
//! (optionally with `--trace`) to step through the exact minimized
//! interleaving.

use lht::harness::args::parse_replay;
use lht::harness::Tier;
use lht::{ErasureConfig, QuorumConfig};
use lht_sim::{replay_schedule, simulate, Mutant, SimConfig, SimVerdict};
use proptest::prelude::*;

/// The configuration and schedule a replay line asks `lht-exp
/// sim-explore` for.
fn parse_line(replay: &str) -> (SimConfig, Option<Vec<u32>>) {
    let parsed = parse_replay(replay, SimConfig::COMMAND, &[SimConfig::FLAGS])
        .unwrap_or_else(|why| panic!("{why}"));
    let cfg = SimConfig::from_args(&parsed).unwrap_or_else(|why| panic!("{why}: {replay}"));
    (cfg, SimConfig::schedule_from_args(&parsed))
}

proptest! {
    /// `from_args(replay_line(cfg, schedule)) == (cfg, schedule)` over
    /// every field a flag can set.
    #[test]
    fn replay_line_parses_back_to_the_configuration(
        scale in (any::<u64>(), 1u32..1_000, any::<u32>(), 1usize..4_096, any::<u32>(), 1usize..8),
        tree in (2usize..500, 2usize..65, any::<bool>(), 0.001f64..1.0),
        mutants in (any::<bool>(), any::<bool>(), 1u64..50, any::<bool>(), any::<bool>(), any::<bool>()),
        tier in (0usize..3, any::<bool>(), 1usize..6, 1usize..6),
        schedule in proptest::collection::vec(any::<u32>(), 1..40),
    ) {
        let (seed, clients, ops_per_client, nodes, churn_events, replicas) = scale;
        let (theta_split, max_depth, lossy, drop_prob) = tree;
        let (stale_replica, torn, nth, stale_cache_read, first, second) = mutants;
        let (family, explicit, a, b) = tier;
        let cfg = SimConfig {
            seed,
            clients,
            ops_per_client,
            nodes,
            churn_events,
            replicas,
            drop_prob: if lossy { drop_prob } else { 0.0 },
            theta_split,
            max_depth,
            tier: match family {
                1 if explicit => Some(Tier::Quorum(QuorumConfig::new(a + b, a.max(b), a.max(b) + 1))),
                2 if explicit => Some(Tier::Erasure(ErasureConfig::new(a + 1, a + b + 1))),
                _ => None,
            },
            // At most one mutant: the first the draw arms.
            mutant: [
                (stale_replica, Mutant::StaleReplica),
                (torn, Mutant::TornSplit(nth)),
                (stale_cache_read, Mutant::StaleCacheRead),
                (family == 1 && first, Mutant::SloppyQuorumRead),
                (family == 1 && second, Mutant::LostWriteAck),
                (family == 2 && first, Mutant::CorruptFragment),
                (family == 2 && second, Mutant::LazyRegen),
            ]
            .into_iter()
            .find_map(|(armed, mutant)| armed.then_some(mutant)),
        };
        prop_assert_eq!(parse_line(&cfg.replay_line(&schedule)), (cfg, Some(schedule)));
    }
}

/// The pinned seed proving stale-replica detection (CI replays it
/// too; see `sim-smoke` in the workflow).
const STALE_REPLICA_SEED: u64 = 1;
/// The pinned seed proving torn-split detection.
const TORN_SPLIT_SEED: u64 = 1;
/// Which split the torn-split mutant sabotages.
const TORN_SPLIT_NTH: u64 = 3;
/// The pinned seed proving stale-cache-read detection.
const STALE_CACHE_READ_SEED: u64 = 0;
/// The pinned seed proving sloppy-quorum-read detection.
const SLOPPY_QUORUM_READ_SEED: u64 = 2;
/// The pinned seed proving lost-write-ack detection.
const LOST_WRITE_ACK_SEED: u64 = 3;
/// The pinned seed proving corrupt-fragment detection.
const CORRUPT_FRAGMENT_SEED: u64 = 2;
/// The pinned seed proving lazy-regen detection (under the heavier
/// churn that makes fragment erosion reachable).
const LAZY_REGEN_SEED: u64 = 1;
/// Churn events for the lazy-regen proof: each departure under the
/// erasure stack *crashes* a node, and erosion below `k` needs
/// several crashes between writes to the same group.
const LAZY_REGEN_CHURN: u32 = 8;

fn assert_pass(report: &lht_sim::SimReport) {
    assert!(
        matches!(report.verdict, SimVerdict::Pass { .. }),
        "seed {} should linearize, got {:?}\n{}",
        report.config.seed,
        report.verdict,
        report.trace
    );
}

#[test]
fn same_seed_is_byte_identical_across_runs() {
    for seed in [2, 9, 23] {
        let cfg = SimConfig::small(seed);
        let a = simulate(&cfg);
        let b = simulate(&cfg);
        assert_eq!(
            a.trace, b.trace,
            "seed {seed}: trace must be byte-identical"
        );
        assert_eq!(a.schedule, b.schedule, "seed {seed}");
        assert_eq!(a.verdict, b.verdict, "seed {seed}");
    }
}

#[test]
fn full_schedule_replay_is_exact() {
    let cfg = SimConfig::small(4);
    let original = simulate(&cfg);
    let replayed = replay_schedule(&cfg, &original.schedule);
    assert_eq!(original.trace, replayed.trace);
    assert_eq!(original.verdict, replayed.verdict);
}

#[test]
fn unmutated_histories_linearize_across_seeds() {
    for seed in 0..24 {
        assert_pass(&simulate(&SimConfig::small(seed)));
    }
}

#[test]
fn unmutated_histories_linearize_under_loss() {
    for seed in 0..10 {
        let cfg = SimConfig {
            drop_prob: 0.10,
            ..SimConfig::small(seed)
        };
        assert_pass(&simulate(&cfg));
    }
}

#[test]
fn unmutated_histories_linearize_with_more_clients_and_contention() {
    for seed in 0..5 {
        let cfg = SimConfig {
            clients: 6,
            ops_per_client: 40,
            theta_split: 3,
            churn_events: 6,
            ..SimConfig::small(seed)
        };
        assert_pass(&simulate(&cfg));
    }
}

#[test]
fn stale_replica_mutant_is_caught_and_minimized_schedule_reproduces() {
    let cfg = SimConfig {
        mutant: Some(Mutant::StaleReplica),
        ..SimConfig::small(STALE_REPLICA_SEED)
    };
    let report = simulate(&cfg);
    let SimVerdict::Fail {
        minimized, replay, ..
    } = &report.verdict
    else {
        panic!(
            "stale-replica mutant must be non-linearizable at the pinned seed, got {:?}",
            report.verdict
        );
    };
    assert!(
        minimized.len() <= report.schedule.len(),
        "shrinking never grows the schedule"
    );
    assert_eq!(parse_line(replay), (cfg.clone(), Some(minimized.clone())));

    // The replay line's schedule reproduces the violation exactly.
    let replayed = replay_schedule(&cfg, minimized);
    assert!(
        matches!(replayed.verdict, SimVerdict::Fail { .. }),
        "minimized schedule must still violate, got {:?}\n{}",
        replayed.verdict,
        replayed.trace
    );
}

#[test]
fn torn_split_mutant_is_caught_and_minimized_schedule_reproduces() {
    let cfg = SimConfig {
        mutant: Some(Mutant::TornSplit(TORN_SPLIT_NTH)),
        ..SimConfig::small(TORN_SPLIT_SEED)
    };
    let report = simulate(&cfg);
    let SimVerdict::Fail {
        minimized, replay, ..
    } = &report.verdict
    else {
        panic!(
            "torn-split mutant must be non-linearizable at the pinned seed, got {:?}",
            report.verdict
        );
    };
    assert_eq!(parse_line(replay), (cfg.clone(), Some(minimized.clone())));

    let replayed = replay_schedule(&cfg, minimized);
    assert!(
        matches!(replayed.verdict, SimVerdict::Fail { .. }),
        "minimized schedule must still violate, got {:?}",
        replayed.verdict
    );
}

#[test]
fn stale_cache_read_mutant_is_caught_and_minimized_schedule_reproduces() {
    // The index stack routes through a churn-safe location cache
    // (`CachedDht`); its safety rests on the substrate *verifying*
    // ownership before a probe serves. This mutant removes that
    // verification — any live holder of a copy answers — so a cached
    // owner hint invalidated by churn reads stale data. The checker
    // must see that as a linearizability violation.
    let cfg = SimConfig {
        mutant: Some(Mutant::StaleCacheRead),
        ..SimConfig::small(STALE_CACHE_READ_SEED)
    };
    let report = simulate(&cfg);
    let SimVerdict::Fail {
        minimized, replay, ..
    } = &report.verdict
    else {
        panic!(
            "stale-cache-read mutant must be non-linearizable at the pinned seed, got {:?}",
            report.verdict
        );
    };
    assert_eq!(parse_line(replay), (cfg.clone(), Some(minimized.clone())));

    let replayed = replay_schedule(&cfg, minimized);
    assert!(
        matches!(replayed.verdict, SimVerdict::Fail { .. }),
        "minimized schedule must still violate, got {:?}",
        replayed.verdict
    );
}

#[test]
fn unmutated_quorum_stack_linearizes_across_seeds() {
    // ≥3 pinned clean seeds over the quorum stack: the replication
    // layer's deferred handoffs, read-repair and anti-entropy rounds
    // must never surface a non-linearizable history on their own.
    for seed in 0..8 {
        let cfg = SimConfig {
            tier: Some(Tier::Quorum(QuorumConfig::new(3, 2, 2))),
            ..SimConfig::small(seed)
        };
        assert_pass(&simulate(&cfg));
    }
    // A write-heavy quorum ({n=3, r=1, w=3}) defers nothing, and the
    // lossy mode exercises retries over quorum ops.
    for seed in 0..3 {
        let cfg = SimConfig {
            tier: Some(Tier::Quorum(QuorumConfig::new(3, 1, 3))),
            ..SimConfig::small(seed)
        };
        assert_pass(&simulate(&cfg));
        let lossy = SimConfig {
            tier: Some(Tier::Quorum(QuorumConfig::new(3, 2, 2))),
            drop_prob: 0.10,
            ..SimConfig::small(seed)
        };
        assert_pass(&simulate(&lossy));
    }
}

#[test]
fn sloppy_quorum_read_mutant_is_caught_and_minimized_schedule_reproduces() {
    // Quorum reads must reconcile the R replies by sequence number;
    // this mutant returns the first reply instead. Healthy writes
    // defer n−w slots to anti-entropy, so a rotated read quorum that
    // lands on a deferred slot serves a stale version — the checker
    // must flag it.
    let cfg = SimConfig {
        mutant: Some(Mutant::SloppyQuorumRead),
        ..SimConfig::small(SLOPPY_QUORUM_READ_SEED)
    };
    let report = simulate(&cfg);
    let SimVerdict::Fail {
        minimized, replay, ..
    } = &report.verdict
    else {
        panic!(
            "sloppy-quorum-read mutant must be non-linearizable at the pinned seed, got {:?}",
            report.verdict
        );
    };
    assert_eq!(parse_line(replay), (cfg.clone(), Some(minimized.clone())));

    let replayed = replay_schedule(&cfg, minimized);
    assert!(
        matches!(replayed.verdict, SimVerdict::Fail { .. }),
        "minimized schedule must still violate, got {:?}",
        replayed.verdict
    );
}

#[test]
fn lost_write_ack_mutant_is_caught_and_minimized_schedule_reproduces() {
    // A write acked after only w−1 installs (with the handoffs
    // forgotten) breaks the R+W>N intersection argument: some read
    // quorum misses the completed write entirely.
    let cfg = SimConfig {
        mutant: Some(Mutant::LostWriteAck),
        ..SimConfig::small(LOST_WRITE_ACK_SEED)
    };
    let report = simulate(&cfg);
    let SimVerdict::Fail {
        minimized, replay, ..
    } = &report.verdict
    else {
        panic!(
            "lost-write-ack mutant must be non-linearizable at the pinned seed, got {:?}",
            report.verdict
        );
    };
    assert_eq!(parse_line(replay), (cfg.clone(), Some(minimized.clone())));

    let replayed = replay_schedule(&cfg, minimized);
    assert!(
        matches!(replayed.verdict, SimVerdict::Fail { .. }),
        "minimized schedule must still violate, got {:?}",
        replayed.verdict
    );
}

#[test]
fn quorum_mutants_are_caught_across_a_seed_band() {
    let caught = |mk: &dyn Fn(u64) -> SimConfig| -> usize {
        (0..8u64)
            .filter(|&s| matches!(simulate(&mk(s)).verdict, SimVerdict::Fail { .. }))
            .count()
    };
    let sloppy = caught(&|s| SimConfig {
        mutant: Some(Mutant::SloppyQuorumRead),
        ..SimConfig::small(s)
    });
    assert!(sloppy >= 1, "sloppy-quorum-read caught in {sloppy}/8");
    let lost = caught(&|s| SimConfig {
        mutant: Some(Mutant::LostWriteAck),
        ..SimConfig::small(s)
    });
    assert!(lost >= 3, "lost-write-ack caught in {lost}/8");
}

#[test]
fn unmutated_erasure_stack_linearizes_across_seeds() {
    // ≥3 pinned clean coded seeds: fragment scatter/gather, deferred
    // fragment handoffs, read-repair and anti-entropy regeneration
    // must never surface a non-linearizable history on their own —
    // even though churn departures crash nodes under this stack.
    for seed in 0..8 {
        let cfg = SimConfig {
            tier: Some(Tier::Erasure(ErasureConfig::new(2, 5))),
            ..SimConfig::small(seed)
        };
        assert_pass(&simulate(&cfg));
    }
    // A wider group ({k=4, m=6}, the bytes-efficient E20 cell) and a
    // lossy run exercising retries over coded reads and writes.
    for seed in 0..3 {
        let cfg = SimConfig {
            tier: Some(Tier::Erasure(ErasureConfig::new(4, 6))),
            ..SimConfig::small(seed)
        };
        assert_pass(&simulate(&cfg));
        let lossy = SimConfig {
            tier: Some(Tier::Erasure(ErasureConfig::new(2, 5))),
            drop_prob: 0.10,
            ..SimConfig::small(seed)
        };
        assert_pass(&simulate(&lossy));
    }
}

#[test]
fn corrupt_fragment_mutant_is_caught_and_minimized_schedule_reproduces() {
    // A decoded read must reconcile gathered fragments to the newest
    // generation; this mutant adopts the first fragment's generation
    // instead. Healthy writes install k+1 of m=5 fragments and defer
    // the rest, so a rotated read starting on deferred slots decodes
    // a complete stale generation — the checker must flag it.
    let cfg = SimConfig {
        mutant: Some(Mutant::CorruptFragment),
        ..SimConfig::small(CORRUPT_FRAGMENT_SEED)
    };
    let report = simulate(&cfg);
    let SimVerdict::Fail {
        minimized, replay, ..
    } = &report.verdict
    else {
        panic!(
            "corrupt-fragment mutant must be non-linearizable at the pinned seed, got {:?}",
            report.verdict
        );
    };
    assert_eq!(parse_line(replay), (cfg.clone(), Some(minimized.clone())));

    let replayed = replay_schedule(&cfg, minimized);
    assert!(
        matches!(replayed.verdict, SimVerdict::Fail { .. }),
        "minimized schedule must still violate, got {:?}",
        replayed.verdict
    );
}

#[test]
fn lazy_regen_mutant_is_caught_and_minimized_schedule_reproduces() {
    // Anti-entropy must actually rewrite missing fragments; this
    // mutant only counts the repair. Crashes then erode coded groups
    // below k and a durable key reads back as absent — in strict mode
    // that data loss is a linearizability violation.
    let cfg = SimConfig {
        mutant: Some(Mutant::LazyRegen),
        churn_events: LAZY_REGEN_CHURN,
        ..SimConfig::small(LAZY_REGEN_SEED)
    };
    let report = simulate(&cfg);
    let SimVerdict::Fail {
        minimized, replay, ..
    } = &report.verdict
    else {
        panic!(
            "lazy-regen mutant must be non-linearizable at the pinned seed, got {:?}",
            report.verdict
        );
    };
    assert_eq!(parse_line(replay), (cfg.clone(), Some(minimized.clone())));

    let replayed = replay_schedule(&cfg, minimized);
    assert!(
        matches!(replayed.verdict, SimVerdict::Fail { .. }),
        "minimized schedule must still violate, got {:?}",
        replayed.verdict
    );
}

#[test]
fn erasure_mutants_are_caught_across_a_seed_band() {
    let caught = |mk: &dyn Fn(u64) -> SimConfig| -> usize {
        (0..8u64)
            .filter(|&s| matches!(simulate(&mk(s)).verdict, SimVerdict::Fail { .. }))
            .count()
    };
    let corrupt = caught(&|s| SimConfig {
        mutant: Some(Mutant::CorruptFragment),
        ..SimConfig::small(s)
    });
    assert!(corrupt >= 2, "corrupt-fragment caught in {corrupt}/8");
    let lazy = caught(&|s| SimConfig {
        mutant: Some(Mutant::LazyRegen),
        churn_events: LAZY_REGEN_CHURN,
        ..SimConfig::small(s)
    });
    assert!(lazy >= 1, "lazy-regen caught in {lazy}/8");
}

#[test]
fn mutants_are_caught_across_a_seed_band_not_just_the_pinned_seed() {
    // Detection must not hinge on one lucky interleaving: within a
    // small budget of schedules, both mutants are flagged.
    let caught = |mk: &dyn Fn(u64) -> SimConfig| -> usize {
        (0..8u64)
            .filter(|&s| matches!(simulate(&mk(s)).verdict, SimVerdict::Fail { .. }))
            .count()
    };
    let stale = caught(&|s| SimConfig {
        mutant: Some(Mutant::StaleReplica),
        ..SimConfig::small(s)
    });
    assert!(stale >= 1, "stale-replica caught in {stale}/8 schedules");
    let torn = caught(&|s| SimConfig {
        mutant: Some(Mutant::TornSplit(TORN_SPLIT_NTH)),
        ..SimConfig::small(s)
    });
    assert!(torn >= 2, "torn-split caught in {torn}/8 schedules");
    let cache = caught(&|s| SimConfig {
        mutant: Some(Mutant::StaleCacheRead),
        ..SimConfig::small(s)
    });
    assert!(cache >= 2, "stale-cache-read caught in {cache}/8 schedules");
}
