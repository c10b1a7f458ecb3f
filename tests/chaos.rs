//! Chaos matrix: every {substrate} × {fault mode} × {index scheme}
//! cell runs a seeded 5k-op soak through the differential harness
//! with the fault layer live — 10% per-RPC loss, ring churn, or both
//! at once — and must come out with zero oracle divergences and zero
//! panics. Faults may slow the system down (retries, timeout waits,
//! delayed repair); they must never change an answer.
//!
//! Every cell is reproducible from its seed alone; a failure's
//! replay line is an `lht-exp audit-soak` invocation carrying the
//! `--drop/--net-seed/--mloss` flags that rebuild the same lossy
//! network.

use lht::harness::{run_soak, IndexKind, SoakOptions, SoakReport, SubstrateKind, Tier};
use lht::{ErasureConfig, NetProfile, QuorumConfig};

const OPS: usize = 5_000;
/// The DST/RST baseline cells run shorter soaks: DST pays a full
/// root-leaf path of puts per insert and RST broadcasts every split
/// to all leaves, so 2k ops already exercise thousands of extra RPCs.
const BASELINE_OPS: usize = 2_000;
const DROP: f64 = 0.10;
const MAINTENANCE_LOSS: f64 = 0.15;

const CHORD: SubstrateKind = SubstrateKind::Chord {
    nodes: 16,
    replicas: 2,
};

/// Which faults a cell injects.
#[derive(Clone, Copy)]
enum Faults {
    LossOnly,
    ChurnOnly,
    LossAndChurn,
}

/// The sizes and layers of a cell unless it overrides them: `OPS`
/// operations at θ = 4, audited every 500 ops, no cache, no tier.
/// [`soak_cell`] sets the rest.
const CELL: SoakOptions = SoakOptions {
    seed: 0,
    ops: OPS,
    theta: 4,
    substrate: SubstrateKind::Direct,
    index: IndexKind::Lht,
    audit_every: 500,
    churn: false,
    net: None,
    maintenance_loss: 0.0,
    route_cache: None,
    inject_loss_at: None,
    tier: None,
};

/// Runs one cell of the matrix — `index` over `substrate` under
/// `faults`, seeded by `seed`, with `cell`'s sizes and layers — and
/// applies the assertions every cell shares: the soak completes,
/// answers never diverge from the oracle (`run_soak` returning `Ok`
/// is exactly that claim), and when loss is injected the fault layer
/// really fired — a cell that saw zero drops would be vacuous.
fn soak_cell(
    substrate: SubstrateKind,
    index: IndexKind,
    faults: Faults,
    seed: u64,
    cell: SoakOptions,
) -> SoakReport {
    let (net, churn) = match faults {
        Faults::LossOnly => (Some(NetProfile::lossy(seed ^ 0xbad, DROP)), false),
        Faults::ChurnOnly => (None, true),
        Faults::LossAndChurn => (Some(NetProfile::lossy(seed ^ 0xbad, DROP)), true),
    };
    let maintenance_loss = match (substrate, faults) {
        (SubstrateKind::Chord { .. }, Faults::ChurnOnly | Faults::LossAndChurn) => MAINTENANCE_LOSS,
        _ => 0.0,
    };
    let opts = SoakOptions {
        seed,
        substrate,
        index,
        churn,
        net,
        maintenance_loss,
        ..cell
    };
    let report = run_soak(&opts).unwrap_or_else(|f| panic!("{f}"));
    let ops = opts.ops;
    assert!(
        report.applied >= ops,
        "soak stopped early: {} of {ops} ops",
        report.applied
    );
    if net.is_some() {
        assert!(
            report.drops + report.timeouts > 0,
            "10% loss injected but no attempt was ever dropped — fault layer inert"
        );
        assert!(
            report.retries > 0,
            "attempts were lost but nothing was retried — retry layer inert"
        );
    }
    if churn && matches!(substrate, SubstrateKind::Chord { .. }) {
        assert!(report.churn_events > 0, "churn trace must move nodes");
    }
    report
}

/// A chaos cell with the location cache live: the production stack
/// `CachedDht<RetriedDht<FaultyDht<ChordDht>>>` under the same
/// faults, still required to never diverge — and required to have
/// actually exercised the cache (a cell with zero probe hits would
/// prove nothing).
fn cached_cell(index: IndexKind, faults: Faults, seed: u64) -> SoakReport {
    let cached = SoakOptions {
        route_cache: Some(256),
        ..CELL
    };
    let report = soak_cell(CHORD, index, faults, seed, cached);
    assert!(
        report.cache_hits > 0,
        "cached cell never hit the location cache — cache inert"
    );
    report
}

// ---- DirectDht (churn ops are no-ops on the one-hop oracle, so its
// ---- churn cells degrade to clean soaks — kept for matrix symmetry).

#[test]
fn direct_loss_lht() {
    soak_cell(
        SubstrateKind::Direct,
        IndexKind::Lht,
        Faults::LossOnly,
        0xc0,
        CELL,
    );
}

#[test]
fn direct_loss_pht() {
    soak_cell(
        SubstrateKind::Direct,
        IndexKind::Pht,
        Faults::LossOnly,
        0xc1,
        CELL,
    );
}

#[test]
fn direct_churn_lht() {
    soak_cell(
        SubstrateKind::Direct,
        IndexKind::Lht,
        Faults::ChurnOnly,
        0xc2,
        CELL,
    );
}

#[test]
fn direct_churn_pht() {
    soak_cell(
        SubstrateKind::Direct,
        IndexKind::Pht,
        Faults::ChurnOnly,
        0xc3,
        CELL,
    );
}

#[test]
fn direct_loss_and_churn_lht() {
    soak_cell(
        SubstrateKind::Direct,
        IndexKind::Lht,
        Faults::LossAndChurn,
        0xc4,
        CELL,
    );
}

#[test]
fn direct_loss_and_churn_pht() {
    soak_cell(
        SubstrateKind::Direct,
        IndexKind::Pht,
        Faults::LossAndChurn,
        0xc5,
        CELL,
    );
}

// ---- ChordDht: the headline cells. Loss hits every index-issued
// ---- RPC; churn moves nodes while maintenance RPCs are themselves
// ---- being lost at 15%.

#[test]
fn chord_loss_lht() {
    soak_cell(CHORD, IndexKind::Lht, Faults::LossOnly, 0xd0, CELL);
}

#[test]
fn chord_loss_pht() {
    soak_cell(CHORD, IndexKind::Pht, Faults::LossOnly, 0xd1, CELL);
}

#[test]
fn chord_churn_lht() {
    soak_cell(CHORD, IndexKind::Lht, Faults::ChurnOnly, 0xd2, CELL);
}

#[test]
fn chord_churn_pht() {
    soak_cell(CHORD, IndexKind::Pht, Faults::ChurnOnly, 0xd3, CELL);
}

#[test]
fn chord_loss_and_churn_lht() {
    soak_cell(CHORD, IndexKind::Lht, Faults::LossAndChurn, 0xd4, CELL);
}

#[test]
fn chord_loss_and_churn_pht() {
    soak_cell(CHORD, IndexKind::Pht, Faults::LossAndChurn, 0xd5, CELL);
}

// ---- Cached-stack cells: the location cache rides on top of the
// ---- retry/fault layers while churn moves keys under its hints.
// ---- Stale hints must degrade to full routes, never wrong answers.

#[test]
fn chord_cached_loss_lht() {
    cached_cell(IndexKind::Lht, Faults::LossOnly, 0xe0);
}

#[test]
fn chord_cached_churn_lht() {
    let report = cached_cell(IndexKind::Lht, Faults::ChurnOnly, 0xe1);
    assert!(
        report.cache_stale > 0,
        "churn moved keys but no cached hint ever went stale — \
         the stale-degradation path was never exercised"
    );
}

#[test]
fn chord_cached_loss_and_churn_lht() {
    cached_cell(IndexKind::Lht, Faults::LossAndChurn, 0xe2);
}

#[test]
fn chord_cached_loss_and_churn_pht() {
    cached_cell(IndexKind::Pht, Faults::LossAndChurn, 0xe3);
}

// ---- DST/RST baseline cells: the §2 competitors go through the
// ---- same differential contract (ops their scheme lacks — RST
// ---- removes, DST/RST min-max — are skipped on index and oracle
// ---- alike). RST cells use θ = 8 to keep the split broadcast,
// ---- which touches every leaf, from going quadratic in the soak.

fn baseline_cell(substrate: SubstrateKind, index: IndexKind, faults: Faults, seed: u64) {
    let theta = if index == IndexKind::Rst { 8 } else { 4 };
    let sized = SoakOptions {
        ops: BASELINE_OPS,
        theta,
        ..CELL
    };
    soak_cell(substrate, index, faults, seed, sized);
}

#[test]
fn direct_loss_dst() {
    baseline_cell(
        SubstrateKind::Direct,
        IndexKind::Dst,
        Faults::LossOnly,
        0xc6,
    );
}

#[test]
fn direct_loss_rst() {
    baseline_cell(
        SubstrateKind::Direct,
        IndexKind::Rst,
        Faults::LossOnly,
        0xc7,
    );
}

#[test]
fn chord_loss_dst() {
    baseline_cell(CHORD, IndexKind::Dst, Faults::LossOnly, 0xd6);
}

#[test]
fn chord_loss_rst() {
    baseline_cell(CHORD, IndexKind::Rst, Faults::LossOnly, 0xd7);
}

#[test]
fn chord_churn_dst() {
    baseline_cell(CHORD, IndexKind::Dst, Faults::ChurnOnly, 0xd8);
}

#[test]
fn chord_churn_rst() {
    baseline_cell(CHORD, IndexKind::Rst, Faults::ChurnOnly, 0xd9);
}

#[test]
fn chord_loss_and_churn_dst() {
    baseline_cell(CHORD, IndexKind::Dst, Faults::LossAndChurn, 0xda);
}

#[test]
fn chord_loss_and_churn_rst() {
    baseline_cell(CHORD, IndexKind::Rst, Faults::LossAndChurn, 0xdb);
}

// ---- Quorum-replicated cells: the same faults over
// ---- `RetriedDht<FaultyDht<QuorumDht<ChordDht>>>` with strict
// ---- R+W>N quorums. Two claims per cell: answers still never
// ---- diverge, and availability (first-attempt success) is at least
// ---- the primary-owner baseline's under the identical trace and
// ---- fault schedule.

/// Runs one quorum cell next to its primary-owner twin (same seed,
/// same trace, same fault profile) and holds the quorum stack to
/// availability ≥ baseline. Under churn the quorum layer must also
/// prove its repair machinery ran (`repair_transfers > 0`).
fn quorum_cell(n: usize, r: usize, w: usize, faults: Faults, seed: u64) -> SoakReport {
    let baseline = soak_cell(CHORD, IndexKind::Lht, faults, seed, CELL);
    let tier = Some(Tier::Quorum(QuorumConfig::new(n, r, w)));
    let report = soak_cell(
        CHORD,
        IndexKind::Lht,
        faults,
        seed,
        SoakOptions { tier, ..CELL },
    );
    assert!(
        report.first_attempt_failures <= baseline.first_attempt_failures,
        "{{n={n},r={r},w={w}}} availability regressed below the primary-owner \
         baseline: {} first-attempt failures vs {}",
        report.first_attempt_failures,
        baseline.first_attempt_failures
    );
    if matches!(faults, Faults::ChurnOnly | Faults::LossAndChurn) {
        assert!(
            report.repair_transfers > 0,
            "churn ran but the quorum layer never spent a repair RPC — \
             read-repair/anti-entropy inert"
        );
        assert!(
            report.repair_bandwidth >= report.repair_transfers || report.repair_bandwidth == 0,
            "repair accounting drifted: {} transfers, {} hops",
            report.repair_transfers,
            report.repair_bandwidth
        );
    }
    report
}

#[test]
fn chord_quorum_n3r1w3_loss() {
    quorum_cell(3, 1, 3, Faults::LossOnly, 0xf0);
}

#[test]
fn chord_quorum_n3r1w3_churn() {
    quorum_cell(3, 1, 3, Faults::ChurnOnly, 0xf1);
}

#[test]
fn chord_quorum_n3r1w3_loss_and_churn() {
    quorum_cell(3, 1, 3, Faults::LossAndChurn, 0xf2);
}

#[test]
fn chord_quorum_n3r2w2_loss() {
    quorum_cell(3, 2, 2, Faults::LossOnly, 0xf3);
}

#[test]
fn chord_quorum_n3r2w2_churn() {
    quorum_cell(3, 2, 2, Faults::ChurnOnly, 0xf4);
}

#[test]
fn chord_quorum_n3r2w2_loss_and_churn() {
    quorum_cell(3, 2, 2, Faults::LossAndChurn, 0xf5);
}

// ---- Erasure-coded cells: the same faults over
// ---- `RetriedDht<FaultyDht<ErasureDht<ChordDht>>>` with k-of-m
// ---- Reed–Solomon fragment groups. Three claims per cell: the
// ---- fragment-reassembly audit finds zero reconstruction
// ---- mismatches (a single undecodable or stale group fails the
// ---- soak), availability is at least the primary-owner baseline's
// ---- under the identical trace and fault schedule, and under churn
// ---- the regeneration machinery provably ran. `run_soak` ends every
// ---- cell with `DhtStats::check_invariants`, so the accounting
// ---- contract is re-audited per cell too.

/// Runs one erasure cell next to its primary-owner twin (same seed,
/// same trace, same fault profile) and holds the coded stack to
/// availability ≥ baseline plus live repair accounting under churn.
fn erasure_cell(k: usize, m: usize, faults: Faults, seed: u64) -> SoakReport {
    let baseline = soak_cell(CHORD, IndexKind::Lht, faults, seed, CELL);
    let tier = Some(Tier::Erasure(ErasureConfig::new(k, m)));
    let report = soak_cell(
        CHORD,
        IndexKind::Lht,
        faults,
        seed,
        SoakOptions { tier, ..CELL },
    );
    assert!(
        report.first_attempt_failures <= baseline.first_attempt_failures,
        "{{k={k},m={m}}} availability regressed below the primary-owner \
         baseline: {} first-attempt failures vs {}",
        report.first_attempt_failures,
        baseline.first_attempt_failures
    );
    if matches!(faults, Faults::ChurnOnly | Faults::LossAndChurn) {
        assert!(
            report.repair_transfers > 0,
            "churn ran but the erasure layer never spent a repair RPC — \
             fragment regeneration inert"
        );
        assert!(
            report.repair_bandwidth >= report.repair_transfers || report.repair_bandwidth == 0,
            "repair accounting drifted: {} transfers, {} hops",
            report.repair_transfers,
            report.repair_bandwidth
        );
    }
    report
}

#[test]
fn chord_erasure_k2m3_loss() {
    erasure_cell(2, 3, Faults::LossOnly, 0xe6);
}

#[test]
fn chord_erasure_k2m3_churn() {
    erasure_cell(2, 3, Faults::ChurnOnly, 0xe7);
}

#[test]
fn chord_erasure_k2m3_loss_and_churn() {
    erasure_cell(2, 3, Faults::LossAndChurn, 0xe8);
}

#[test]
fn chord_erasure_k4m6_loss() {
    erasure_cell(4, 6, Faults::LossOnly, 0xe9);
}

#[test]
fn chord_erasure_k4m6_churn() {
    erasure_cell(4, 6, Faults::ChurnOnly, 0xea);
}

#[test]
fn chord_erasure_k4m6_loss_and_churn() {
    erasure_cell(4, 6, Faults::LossAndChurn, 0xeb);
}

/// The acceptance-criteria soak, pinned exactly: 5k ops on
/// `FaultyDht<ChordDht>` at 10% drop, zero divergences, and the
/// report's fault counters prove the loss was real and absorbed.
#[test]
fn chord_ten_percent_drop_soak_is_clean() {
    let report = soak_cell(CHORD, IndexKind::Lht, Faults::LossOnly, 2008, CELL);
    assert!(
        report.drops + report.timeouts > 100,
        "a 5k-op soak at 10% loss should lose hundreds of attempts, saw {}",
        report.drops + report.timeouts
    );
}
