//! Golden pins for the two harnesses that assemble the wrapper tower
//! `cache → retry → fault → tier → ring` from run-time options: the
//! differential soak (`lht::harness`) and the deterministic simulator
//! (`lht-sim`).
//!
//! Every other test of those harnesses proves run-to-run determinism
//! *within one build*. The literals below were recorded before the
//! tower became a run-time value, so they prove the same inputs give
//! the same reports *across* a change to how the tower is built. A
//! mismatch prints the whole actual table; paste it back only for a
//! change that means to move a counter, and say which in CHANGES.md.

use lht::harness::{self, run_soak, IndexKind, SoakOptions, SoakReport, SubstrateKind};
use lht::id::sha1;
use lht::{ErasureConfig, NetProfile, QuorumConfig};
use lht_sim::{simulate, SimConfig};

const CHORD: SubstrateKind = SubstrateKind::Chord {
    nodes: 16,
    replicas: 2,
};

#[derive(Clone, Copy, Debug, PartialEq)]
enum Tier {
    Plain,
    Quorum,
    Erasure,
}

/// One soak cell: `(index, substrate, tier, lossy net, route cache,
/// lossy maintenance)`.
type Cell = (IndexKind, SubstrateKind, Tier, bool, bool, bool);

/// `lht-exp audit-soak --seed 1 --ops 2000 --churn` over the cell.
fn soak(cell: Cell) -> SoakReport {
    let (index, substrate, tier, lossy, cached, mloss) = cell;
    let opts = SoakOptions {
        seed: 1,
        ops: 2_000,
        substrate,
        index,
        churn: true,
        net: lossy.then(|| NetProfile::lossy(7, 0.1)),
        maintenance_loss: if mloss { 0.15 } else { 0.0 },
        route_cache: cached.then_some(256),
        tier: match tier {
            Tier::Plain => None,
            Tier::Quorum => Some(harness::Tier::Quorum(QuorumConfig::new(3, 2, 2))),
            Tier::Erasure => Some(harness::Tier::Erasure(ErasureConfig::new(2, 4))),
        },
        audit_every: 200,
        ..SoakOptions::default()
    };
    run_soak(&opts).unwrap_or_else(|failure| panic!("{}: {failure}", label(cell)))
}

fn label((index, substrate, tier, lossy, cached, mloss): Cell) -> String {
    let tier = format!("{tier:?}").to_lowercase();
    let net = if lossy { " +net" } else { "" };
    let cache = if cached { " +cache" } else { "" };
    let mloss = if mloss { " +mloss" } else { "" };
    format!("{index} {substrate} {tier}{net}{cache}{mloss}")
}

/// Names every field, so a field added to [`SoakReport`] fails to
/// compile here instead of slipping past the pin.
fn report(f: [u64; 14]) -> SoakReport {
    SoakReport {
        applied: f[0] as usize,
        mutations: f[1] as usize,
        queries: f[2] as usize,
        churn_events: f[3] as usize,
        audits: f[4] as usize,
        final_records: f[5] as usize,
        drops: f[6],
        timeouts: f[7],
        retries: f[8],
        cache_hits: f[9],
        cache_stale: f[10],
        first_attempt_failures: f[11],
        repair_transfers: f[12],
        repair_bandwidth: f[13],
    }
}

fn fields(r: &SoakReport) -> [u64; 14] {
    [
        r.applied as u64,
        r.mutations as u64,
        r.queries as u64,
        r.churn_events as u64,
        r.audits as u64,
        r.final_records as u64,
        r.drops,
        r.timeouts,
        r.retries,
        r.cache_hits,
        r.cache_stale,
        r.first_attempt_failures,
        r.repair_transfers,
        r.repair_bandwidth,
    ]
}

/// LHT over every tier × net × cache, PHT plain over net × cache, the
/// DST/RST baselines over net on both substrates, and each tier's full
/// tower once more with 15 % of maintenance RPCs lost (the cells whose
/// audits and repair passes lean on the tier's own maintenance), and
/// each tier over Direct with and without the net.
fn soak_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for tier in [Tier::Plain, Tier::Quorum, Tier::Erasure] {
        for lossy in [false, true] {
            for cached in [false, true] {
                cells.push((IndexKind::Lht, CHORD, tier, lossy, cached, false));
            }
        }
    }
    for lossy in [false, true] {
        for cached in [false, true] {
            cells.push((IndexKind::Pht, CHORD, Tier::Plain, lossy, cached, false));
        }
    }
    for index in [IndexKind::Dst, IndexKind::Rst] {
        for substrate in [SubstrateKind::Direct, CHORD] {
            for lossy in [false, true] {
                cells.push((index, substrate, Tier::Plain, lossy, false, false));
            }
        }
    }
    for tier in [Tier::Plain, Tier::Quorum, Tier::Erasure] {
        cells.push((IndexKind::Lht, CHORD, tier, true, true, true));
    }
    for tier in [Tier::Quorum, Tier::Erasure] {
        for lossy in [false, true] {
            cells.push((
                IndexKind::Lht,
                SubstrateKind::Direct,
                tier,
                lossy,
                false,
                false,
            ));
        }
    }
    cells
}

/// One row per [`soak_cells`] cell, in [`fields`] order.
#[rustfmt::skip]
const SOAK_GOLDEN: &[[u64; 14]] = &[
    [2001, 1199, 727, 54, 11, 312, 0, 0, 0, 0, 0, 0, 0, 0], // lht chord plain
    [2001, 1199, 727, 54, 11, 312, 0, 0, 0, 8504, 57, 0, 0, 0], // lht chord plain +cache
    [2001, 1199, 727, 54, 11, 312, 1247, 117, 1364, 0, 0, 0, 0, 0], // lht chord plain +net
    [2001, 1199, 727, 54, 11, 312, 1257, 117, 1374, 8504, 57, 0, 0, 0], // lht chord plain +net +cache
    [2001, 1199, 727, 54, 11, 312, 0, 0, 0, 0, 0, 0, 1284, 2805], // lht chord quorum
    [2001, 1199, 727, 54, 11, 312, 0, 0, 0, 0, 0, 0, 1284, 2805], // lht chord quorum +cache
    [2001, 1199, 727, 54, 11, 312, 1247, 117, 1364, 0, 0, 0, 1286, 2799], // lht chord quorum +net
    [2001, 1199, 727, 54, 11, 312, 1247, 117, 1364, 0, 0, 0, 1286, 2799], // lht chord quorum +net +cache
    [2001, 1199, 727, 54, 11, 312, 0, 0, 0, 0, 0, 0, 1421, 3102], // lht chord erasure
    [2001, 1199, 727, 54, 11, 312, 0, 0, 0, 0, 0, 0, 1421, 3102], // lht chord erasure +cache
    [2001, 1199, 727, 54, 11, 312, 1247, 117, 1364, 0, 0, 0, 1424, 3113], // lht chord erasure +net
    [2001, 1199, 727, 54, 11, 312, 1247, 117, 1364, 0, 0, 0, 1424, 3113], // lht chord erasure +net +cache
    [2001, 1199, 727, 54, 11, 312, 0, 0, 0, 0, 0, 0, 0, 0], // pht chord plain
    [2001, 1199, 727, 54, 11, 312, 0, 0, 0, 11550, 46, 0, 0, 0], // pht chord plain +cache
    [2001, 1199, 727, 54, 11, 312, 1695, 148, 1843, 0, 0, 0, 0, 0], // pht chord plain +net
    [2001, 1199, 727, 54, 11, 312, 1697, 149, 1846, 11550, 46, 0, 0, 0], // pht chord plain +net +cache
    [2001, 1199, 609, 0, 11, 312, 0, 0, 0, 0, 0, 0, 0, 0], // dst direct plain
    [2001, 1199, 609, 0, 11, 312, 2041, 174, 2215, 0, 0, 0, 0, 0], // dst direct plain +net
    [2001, 1199, 609, 54, 11, 312, 0, 0, 0, 0, 0, 0, 0, 0], // dst chord plain
    [2001, 1199, 609, 54, 11, 312, 2041, 174, 2215, 0, 0, 0, 0, 0], // dst chord plain +net
    [2001, 819, 609, 0, 11, 370, 0, 0, 0, 0, 0, 0, 0, 0], // rst direct plain
    [2001, 819, 609, 0, 11, 370, 1936, 169, 2105, 0, 0, 0, 0, 0], // rst direct plain +net
    [2001, 819, 609, 54, 11, 370, 0, 0, 0, 0, 0, 0, 0, 0], // rst chord plain
    [2001, 819, 609, 54, 11, 370, 1936, 169, 2105, 0, 0, 0, 0, 0], // rst chord plain +net
    [2001, 1199, 727, 54, 11, 312, 1257, 117, 1374, 8504, 57, 0, 0, 0], // lht chord plain +net +cache +mloss
    [2001, 1199, 727, 54, 11, 312, 1247, 117, 1364, 0, 0, 0, 1286, 2876], // lht chord quorum +net +cache +mloss
    [2001, 1199, 727, 54, 11, 312, 1247, 117, 1364, 0, 0, 0, 2372, 4968], // lht chord erasure +net +cache +mloss
    // Appended once tiers were built over Direct too; before, a Direct
    // soak ignored its tier and these read no repair transfers.
    [2001, 1199, 727, 0, 11, 312, 0, 0, 0, 0, 0, 0, 1284, 1284], // lht direct quorum
    [2001, 1199, 727, 0, 11, 312, 1247, 117, 1364, 0, 0, 0, 1286, 1286], // lht direct quorum +net
    [2001, 1199, 727, 0, 11, 312, 0, 0, 0, 0, 0, 0, 1421, 1421], // lht direct erasure
    [2001, 1199, 727, 0, 11, 312, 1247, 117, 1364, 0, 0, 0, 1424, 1424], // lht direct erasure +net
];

#[test]
fn soak_reports_are_frozen_across_the_layer_grid() {
    let cells = soak_cells();
    let actual: Vec<SoakReport> = cells.iter().map(|cell| soak(*cell)).collect();
    let table: String = actual
        .iter()
        .zip(&cells)
        .map(|(r, cell)| format!("    {:?}, // {}\n", fields(r), label(*cell)))
        .collect();
    let want: Vec<SoakReport> = SOAK_GOLDEN.iter().map(|f| report(*f)).collect();
    assert!(
        actual == want,
        "a soak report moved; actual table:\n{table}"
    );
}

/// The simulator configurations CI pins (`lht-exp sim-explore --seed N
/// [--quorum …] [--erasure …] [--drop …]` over its default small
/// world).
fn sim_cells() -> Vec<SimConfig> {
    let small = SimConfig::small;
    vec![
        small(1),
        small(42),
        small(2008),
        SimConfig {
            tier: Some(harness::Tier::Quorum(QuorumConfig::new(3, 2, 2))),
            ..small(0)
        },
        SimConfig {
            tier: Some(harness::Tier::Quorum(QuorumConfig::new(3, 2, 2))),
            drop_prob: 0.1,
            ..small(2)
        },
        SimConfig {
            tier: Some(harness::Tier::Erasure(ErasureConfig::new(4, 6))),
            ..small(1)
        },
        SimConfig {
            tier: Some(harness::Tier::Erasure(ErasureConfig::new(2, 5))),
            drop_prob: 0.1,
            ..small(2)
        },
    ]
}

/// SHA-1 over the schedule trace and the executed pick sequence.
fn sim_digest(cfg: &SimConfig) -> String {
    let run = simulate(cfg);
    let mut bytes = run.trace.into_bytes();
    bytes.extend(run.schedule.iter().flat_map(|pick| pick.to_le_bytes()));
    sha1(&bytes).to_string()
}

/// One digest per [`sim_cells`] configuration.
const SIM_GOLDEN: [&str; 7] = [
    "d988fe2f38a32fbec756449676be5da3fa3edfe5",
    "5c7cefbf45f1ffce583ad5c4027c99cd9357404e",
    "3811c7134e1a6e95fab54b22132aca06b5dc2e2b",
    "b122b2e4c4319e262be37f0a88ecbe58e439d314",
    "c9743fb15eb9954bcfe321bce734b8b93428054d",
    "cac4c214fa9a8c8c808fb9ba3ce55892a9805b3d",
    "f4962ed19b319307d4579c3601a9ab19a591b64f",
];

#[test]
fn sim_traces_and_schedules_are_frozen_for_the_ci_seeds() {
    let actual: Vec<String> = sim_cells().iter().map(sim_digest).collect();
    let table: String = actual.iter().map(|d| format!("    {d:?},\n")).collect();
    assert_eq!(actual, SIM_GOLDEN, "actual table:\n{table}");
}
