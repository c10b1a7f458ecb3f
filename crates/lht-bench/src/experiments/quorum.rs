//! E20 — quorum replication tier: availability and staleness vs
//! maintenance bandwidth over a lossy, churning Chord ring.
//!
//! One cell drives a mixed put/get/remove workload through
//! `QuorumDht<FaultyDht<ChordDht>>`: the fault layer sits *below* the
//! quorum, so a drop costs one replica contact rather than the whole
//! logical op — the masking the tier exists to buy. The
//! `{n=1, r=1, w=1}` configuration is the primary-owner baseline (one
//! copy, same code path, zero replication bandwidth).

use std::collections::HashMap;
use std::io::{self, Write};

use lht::harness::args::{Flag, Parsed};
use lht::{ChordDht, Dht, FaultyDht, NetProfile, QuorumConfig, QuorumDht, Versioned};

use super::erasure;
use crate::Table;

/// Runs one E20 cell: `ops` logical operations against a fresh
/// `nodes`-node ring under `drop_rate` loss, with one leave+rejoin per
/// batch when `churn` is set.
pub(crate) fn run_cell(
    (n, r, w): (usize, usize, usize),
    drop_rate: f64,
    churn: bool,
    ops: usize,
    nodes: usize,
    seed: u64,
) -> erasure::E20Cell {
    let ring: ChordDht<Versioned<u32>> = erasure::single_copy_ring(nodes, seed);
    let net_seed = seed ^ (drop_rate * 1000.0) as u64 ^ ((n * 100 + r * 10 + w) as u64) << 8;
    let lossy = FaultyDht::new(&ring, NetProfile::lossy(net_seed, drop_rate));
    let quorum = QuorumDht::new(&lossy, QuorumConfig::new(n, r, w));

    let anti_entropy = || {
        quorum.anti_entropy_step();
    };
    let mut cell = erasure::drive_workload(&quorum, &ring, ops, seed, churn, &anti_entropy, |v| v);
    cell.stats = quorum.stats();
    cell
}

/// The snapshot headline: availability of the `{n=3, r=2, w=2}` tier
/// vs the primary-owner baseline at the harshest sweep cell — 20%
/// drop rate with churn. Returns `(quorum, primary)`.
pub(crate) fn headline(ops: usize, nodes: usize, seed: u64) -> (f64, f64) {
    let quorum = run_cell((3, 2, 2), 0.20, true, ops, nodes, seed).availability();
    let primary = run_cell((1, 1, 1), 0.20, true, ops, nodes, seed).availability();
    (quorum, primary)
}

/// The flags of `lht-exp quorum`.
pub(crate) const FLAGS: &[Flag] = &[Flag::switch(
    "--smoke",
    "CI shape: 800 ops/cell, 12 nodes, no CSV",
)];

/// `lht-exp quorum`: prints the E20 quorum grid and the coded rows
/// with both headlines; exits 1 if a tier misses its bar, and the
/// full grid rewrites both tracked CSVs.
pub(crate) fn cmd(p: &Parsed, out: &mut dyn Write) -> io::Result<i32> {
    let smoke = p.on("--smoke");
    let (ops, nodes, seed) = if smoke { (800, 12, 7) } else { (4_000, 16, 7) };
    let configs: &[(usize, usize, usize)] = if smoke {
        &[(1, 1, 1), (3, 2, 2)]
    } else {
        &[(1, 1, 1), (3, 1, 3), (3, 2, 2), (5, 3, 3)]
    };
    let drop_rates: &[f64] = if smoke {
        &[0.0, 0.20]
    } else {
        &[0.0, 0.10, 0.20]
    };

    let mut t = Table::new(
        format!(
            "E20 quorum tier — {} ops/cell, {} nodes, seed {} (baseline = primary owner n1r1w1)",
            ops, nodes, seed
        ),
        &[
            "n",
            "r",
            "w",
            "drop%",
            "churn",
            "ops",
            "ok",
            "avail%",
            "stale%",
            "hops/op",
            "repair_xfers",
            "repair_bw",
            "drops",
        ],
    );

    // The acceptance headline: quorum vs primary availability at the
    // harshest cell (20% drop + churn).
    let mut headline: HashMap<(usize, usize, usize), f64> = HashMap::new();

    for &(n, r, w) in configs {
        for &rate in drop_rates {
            for churn in [false, true] {
                eprintln!("cell n={n} r={r} w={w} drop={rate} churn={churn}…");
                let cell = run_cell((n, r, w), rate, churn, ops, nodes, seed);
                if (rate - 0.20).abs() < f64::EPSILON && churn {
                    headline.insert((n, r, w), cell.availability());
                }
                t.push_row(vec![
                    n.to_string(),
                    r.to_string(),
                    w.to_string(),
                    format!("{:.0}", rate * 100.0),
                    if churn { "yes" } else { "no" }.to_string(),
                    cell.attempted.to_string(),
                    cell.ok.to_string(),
                    format!("{:.2}", cell.availability() * 100.0),
                    format!("{:.2}", cell.staleness() * 100.0),
                    format!("{:.2}", cell.stats.hops_per_lookup()),
                    cell.stats.repair_transfers.to_string(),
                    cell.stats.repair_bandwidth.to_string(),
                    cell.stats.drops.to_string(),
                ]);
            }
        }
    }

    write!(out, "{}", t.render())?;
    let primary = headline.get(&(1, 1, 1)).copied().unwrap_or(0.0);
    let quorum322 = headline.get(&(3, 2, 2)).copied().unwrap_or(0.0);
    writeln!(
        out,
        "headline: availability at 20% drop + churn — quorum(3,2,2) {:.2}% vs primary {:.2}%",
        quorum322 * 100.0,
        primary * 100.0
    )?;
    if quorum322 <= primary {
        eprintln!("FAIL: quorum(3,2,2) availability must be strictly above the primary baseline");
        return Ok(1);
    }

    // ---- Coded rows: erasure tier over the same ring and workload,
    // 512-byte payloads, vs full-copy replication of the same blobs.
    let coded_configs: &[(usize, usize)] = if smoke { &[(4, 6)] } else { &[(2, 3), (4, 6)] };
    let mut t2 = Table::new(
        format!(
            "E20 coded durability — {}-byte payloads, {} ops/cell, {} nodes, seed {} (repl rows = full copies via quorum)",
            erasure::PAYLOAD_LEN,
            ops,
            nodes,
            seed
        ),
        &[
            "tier",
            "drop%",
            "churn",
            "ops",
            "ok",
            "avail%",
            "stale%",
            "B/key",
            "durable",
            "repair_xfers",
            "repair_bw",
            "drops",
        ],
    );
    let push_coded_row =
        |t2: &mut Table, tier: String, rate: f64, churn: bool, cell: &erasure::E20Cell| {
            t2.push_row(vec![
                tier,
                format!("{:.0}", rate * 100.0),
                if churn { "yes" } else { "no" }.to_string(),
                cell.attempted.to_string(),
                cell.ok.to_string(),
                format!("{:.2}", cell.availability() * 100.0),
                format!("{:.2}", cell.staleness() * 100.0),
                format!("{:.0}", cell.bytes_per_durable_key()),
                cell.durable_keys.to_string(),
                cell.stats.repair_transfers.to_string(),
                cell.stats.repair_bandwidth.to_string(),
                cell.stats.drops.to_string(),
            ]);
        };
    for &(k, m) in coded_configs {
        for &rate in drop_rates {
            for churn in [false, true] {
                eprintln!("cell erasure k={k} m={m} drop={rate} churn={churn}…");
                let cell = erasure::run_cell((k, m), rate, churn, ops, nodes, seed);
                push_coded_row(&mut t2, format!("ec{{{k},{m}}}"), rate, churn, &cell);
            }
        }
    }
    for &(n, r, w) in &[(1usize, 1usize, 1usize), (3, 2, 2)] {
        for churn in [false, true] {
            eprintln!("cell repl n={n} r={r} w={w} drop=0.2 churn={churn}…");
            let cell = erasure::replication_cell((n, r, w), 0.20, churn, ops, nodes, seed);
            push_coded_row(&mut t2, format!("repl{{{n},{r},{w}}}"), 0.20, churn, &cell);
        }
    }
    write!(out, "{}", t2.render())?;

    let h = erasure::headline(ops, nodes, seed);
    writeln!(
        out,
        "headline: coded {{4,6}} at 20% drop + churn — availability {:.2}% vs primary {:.2}%, {:.0} B/durable key vs {:.0} for repl{{n=3}} (ratio {:.2}, bar ≤ 0.60)",
        h.coded_availability * 100.0,
        h.primary_availability * 100.0,
        h.coded_bytes_per_key,
        h.replicated_bytes_per_key,
        h.coded_bytes_per_key / h.replicated_bytes_per_key.max(1.0)
    )?;
    if h.coded_availability < h.primary_availability {
        eprintln!("FAIL: coded {{4,6}} availability must not fall below the primary baseline");
        return Ok(1);
    }
    if h.replicated_bytes_per_key <= 0.0 || h.coded_bytes_per_key > 0.6 * h.replicated_bytes_per_key
    {
        eprintln!("FAIL: coded {{4,6}} must store at most 0.6x the bytes of {{n=3}} replication");
        return Ok(1);
    }

    // Only a run that met both bars rewrites the tracked artifacts.
    if !smoke {
        t.save("e20_quorum")?;
        t2.save("e20_erasure")?;
    }
    Ok(0)
}
