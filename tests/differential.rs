//! End-to-end exercise of the differential-testing harness: long
//! soaks over both substrates, replay lines, and — crucially — proof
//! that the harness detects injected faults instead of vacuously
//! passing.

use lht::harness::args::parse_replay;
use lht::harness::{run_soak, IndexKind, SoakOptions, SubstrateKind, Tier};
use lht::{ErasureConfig, NetProfile, QuorumConfig};
use proptest::prelude::*;

/// The soaks a replay line asks `lht-exp audit-soak` for.
fn parse_line(replay: &str) -> Vec<SoakOptions> {
    let parsed = parse_replay(replay, SoakOptions::COMMAND, &[SoakOptions::FLAGS])
        .unwrap_or_else(|why| panic!("{why}"));
    SoakOptions::from_args(&parsed).unwrap_or_else(|why| panic!("{why}: {replay}"))
}

proptest! {
    /// `from_args(replay_line(soak)) == soak` over every field a flag
    /// can set (the others at what `from_args` gives them). Before
    /// the line carried `--nodes` / `--replicas` this failed for any
    /// Chord ring but the default 16 x 2.
    #[test]
    fn replay_line_parses_back_to_the_soak(
        scale in (any::<u64>(), 0usize..1_000_000, 2usize..200, 1usize..64, 1usize..8),
        picks in (any::<bool>(), 0usize..4, any::<bool>(), 0usize..3),
        net in (any::<bool>(), 0.001f64..1.0, any::<u64>(), any::<bool>(), 0.001f64..1.0),
        cache in (any::<bool>(), 0usize..5_000),
    ) {
        let (seed, ops, theta, nodes, replicas) = scale;
        let (chord, index, churn, tier) = picks;
        let (lossy, drop_prob, net_seed, lossy_maintenance, maintenance_loss) = net;
        let index = [IndexKind::Lht, IndexKind::Pht, IndexKind::Dst, IndexKind::Rst][index];
        let soak = SoakOptions {
            seed,
            ops,
            theta,
            substrate: if chord {
                SubstrateKind::Chord { nodes, replicas }
            } else {
                SubstrateKind::Direct
            },
            index,
            audit_every: (ops / 10).max(1),
            churn,
            net: lossy.then(|| NetProfile::lossy(net_seed, drop_prob)),
            // `from_args` refuses a cache or maintenance loss under
            // Direct, a cache under DST or RST and a tier under any
            // index but LHT.
            maintenance_loss: if lossy_maintenance && chord { maintenance_loss } else { 0.0 },
            route_cache: (cache.0 && chord && matches!(index, IndexKind::Lht | IndexKind::Pht)).then_some(cache.1),
            tier: match tier {
                1 if index == IndexKind::Lht => Some(Tier::Quorum(QuorumConfig::new(nodes.min(5), nodes.min(5) / 2 + 1, nodes.min(5) / 2 + 1))),
                2 if index == IndexKind::Lht => Some(Tier::Erasure(ErasureConfig::new(replicas + 1, replicas + 2 + nodes % 16))),
                _ => None,
            },
            ..SoakOptions::default()
        };
        prop_assert_eq!(parse_line(&soak.replay_line()), vec![soak]);
    }
}

/// 10k ops over the one-hop DHT, run by LHT and then by the PHT
/// baseline: every query diffed against the oracle, audits every 500
/// ops, LHT's range costs held to the paper's B + 3 bound.
#[test]
fn soak_direct_lht_and_pht() {
    for index in [IndexKind::Lht, IndexKind::Pht] {
        let opts = SoakOptions {
            seed: 2008,
            ops: 10_000,
            theta: 4,
            substrate: SubstrateKind::Direct,
            index,
            audit_every: 500,
            ..SoakOptions::default()
        };
        let report = run_soak(&opts).unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(report.applied, 10_000);
        assert!(report.mutations > 3_000, "trace should be mutation-heavy");
        assert!(report.queries > 2_000, "trace should be query-heavy");
        assert!(report.audits >= 20);
    }
}

/// A tighter θ forces much deeper trees and far more split/merge
/// traffic for the same record count.
#[test]
fn soak_direct_minimum_theta() {
    let opts = SoakOptions {
        seed: 77,
        ops: 10_000,
        theta: 2,
        substrate: SubstrateKind::Direct,
        audit_every: 1_000,
        ..SoakOptions::default()
    };
    let report = run_soak(&opts).unwrap_or_else(|f| panic!("{f}"));
    assert_eq!(report.applied, 10_000);
}

/// 10k ops over a 16-node Chord ring with live membership churn:
/// nodes join and leave mid-soak, keys migrate, and converged-state
/// audits additionally verify ring well-formedness (successors,
/// predecessors, fingers, key placement).
#[test]
fn soak_chord_with_churn() {
    let opts = SoakOptions {
        seed: 2008,
        ops: 10_000,
        theta: 4,
        substrate: SubstrateKind::Chord {
            nodes: 16,
            replicas: 2,
        },
        audit_every: 1_000,
        churn: true,
        ..SoakOptions::default()
    };
    let report = run_soak(&opts).unwrap_or_else(|f| panic!("{f}"));
    assert!(report.applied >= 10_000);
    assert!(report.churn_events > 0, "churn trace must move nodes");
}

/// The DST baseline (§2) through the same differential contract:
/// ancestor-replicated inserts, path-wide removes, canonical-cover
/// ranges — every answer diffed against the oracle, audits checking
/// key conservation across all replicas. Min/max are skipped (the
/// segment tree has no extreme descent); everything else must agree.
#[test]
fn soak_direct_dst_baseline() {
    let opts = SoakOptions {
        seed: 2008,
        ops: 8_000,
        substrate: SubstrateKind::Direct,
        index: IndexKind::Dst,
        audit_every: 1_000,
        ..SoakOptions::default()
    };
    let report = run_soak(&opts).unwrap_or_else(|f| panic!("{f}"));
    assert_eq!(report.applied, 8_000);
    assert!(report.mutations > 3_000, "removes run on DST");
}

/// The RST baseline (§2): one-hop queries against a locally cached
/// structure replica, split broadcasts to every leaf. The scheme has
/// no delete, so remove ops are skipped on index and oracle alike —
/// the run degenerates to an insert/query soak, still fully diffed.
#[test]
fn soak_direct_rst_baseline() {
    let opts = SoakOptions {
        seed: 2008,
        ops: 6_000,
        theta: 8,
        substrate: SubstrateKind::Direct,
        index: IndexKind::Rst,
        audit_every: 1_000,
        ..SoakOptions::default()
    };
    let report = run_soak(&opts).unwrap_or_else(|f| panic!("{f}"));
    assert_eq!(report.applied, 6_000);
    assert!(report.queries > 1_500);
}

/// Destroying one leaf bucket mid-soak MUST make the harness fail,
/// and the failure must carry the replay line. A harness that stays
/// green here would be worthless.
#[test]
fn harness_detects_injected_bucket_loss() {
    let opts = SoakOptions {
        seed: 9,
        ops: 3_000,
        theta: 4,
        substrate: SubstrateKind::Direct,
        audit_every: 100,
        inject_loss_at: Some(1_500),
        ..SoakOptions::default()
    };
    let failure = run_soak(&opts).expect_err("sabotaged soak must fail");
    assert!(
        failure.op_index >= 1_500 || failure.op_index == usize::MAX,
        "failure at op {} predates the sabotage at 1500",
        failure.op_index
    );
    // The replay line is an `lht-exp audit-soak` command for this
    // soak, minus what no flag carries.
    assert_eq!(
        parse_line(&failure.replay),
        vec![SoakOptions {
            audit_every: 300,
            inject_loss_at: None,
            ..opts
        }]
    );
}

/// The exact same sabotage is caught quickly even when audits are
/// rare: the per-op differential checks (lookups, ranges, min/max vs
/// the oracle) catch the loss on their own.
#[test]
fn per_op_diffs_detect_loss_without_audits() {
    let opts = SoakOptions {
        seed: 9,
        ops: 3_000,
        theta: 4,
        substrate: SubstrateKind::Direct,
        audit_every: 0, // end-of-run audit only
        inject_loss_at: Some(1_500),
        ..SoakOptions::default()
    };
    let failure = run_soak(&opts).expect_err("sabotaged soak must fail");
    assert!(failure.op_index >= 1_500 || failure.op_index == usize::MAX);
}
