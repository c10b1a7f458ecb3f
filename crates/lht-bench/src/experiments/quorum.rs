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
use lht::{
    ChordConfig, ChordDht, Dht, DhtKey, DhtStats, FaultyDht, NetProfile, QuorumConfig, QuorumDht,
    Versioned,
};

use super::erasure;
use crate::Table;

/// Ops per maintenance batch: between batches churn strikes (if the
/// cell has it) and one anti-entropy round runs.
const BATCH: usize = 64;

/// One cell's outcome.
pub(crate) struct QuorumCell {
    /// Logical client operations attempted.
    pub attempted: u64,
    /// Operations that completed despite the injected faults.
    pub ok: u64,
    /// Successful reads of keys whose writes all acked (the only reads
    /// the staleness measure may judge).
    pub clean_reads: u64,
    /// Clean reads that returned something older than the newest
    /// acked write.
    pub stale_reads: u64,
    /// The quorum layer's own stats: request hops on the client path,
    /// every maintenance byte in `repair_transfers`/`repair_bandwidth`.
    pub stats: DhtStats,
}

impl QuorumCell {
    /// Fraction of logical ops that completed.
    pub(crate) fn availability(&self) -> f64 {
        if self.attempted == 0 {
            return 1.0;
        }
        self.ok as f64 / self.attempted as f64
    }

    /// Fraction of judgeable reads that returned a stale value.
    pub(crate) fn staleness(&self) -> f64 {
        if self.clean_reads == 0 {
            return 0.0;
        }
        self.stale_reads as f64 / self.clean_reads as f64
    }
}

/// Tiny deterministic generator for workload/churn choices, so every
/// cell replays the same op sequence regardless of config.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }
}

/// Per-key client model for the staleness measure: the newest acked
/// value, invalidated (`dirty`) when a write to the key fails — after
/// that, reads of the key are no longer judged (the failed write may
/// or may not have partially landed).
#[derive(Default)]
struct KeyModel {
    acked: Option<u32>,
    dirty: bool,
}

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
) -> QuorumCell {
    let ring: ChordDht<Versioned<u32>> = ChordDht::with_config(
        nodes,
        seed ^ 0x5eed,
        ChordConfig {
            replicas: 1,
            ..ChordConfig::default()
        },
    );
    let net_seed = seed ^ (drop_rate * 1000.0) as u64 ^ ((n * 100 + r * 10 + w) as u64) << 8;
    let lossy = FaultyDht::new(&ring, NetProfile::lossy(net_seed, drop_rate));
    let quorum = QuorumDht::new(&lossy, QuorumConfig::new(n, r, w));

    let key_space = 64usize;
    let key = |i: usize| DhtKey::from(format!("e20:{i}"));
    let mut gen = Lcg(seed ^ 0xE20);
    let mut model: HashMap<usize, KeyModel> = HashMap::new();
    let mut cell = QuorumCell {
        attempted: 0,
        ok: 0,
        clean_reads: 0,
        stale_reads: 0,
        stats: DhtStats::default(),
    };
    let mut joined = 0u64;

    for i in 0..ops {
        // Batch boundary: churn (one leave + one rejoin) then one
        // anti-entropy round — the maintenance cadence whose traffic
        // the repair_* counters price.
        if i > 0 && i % BATCH == 0 {
            if churn {
                let ids = ring.snapshot().node_ids;
                if ids.len() > 2 {
                    let victim = ids[(gen.next() as usize) % ids.len()];
                    ring.leave(&victim);
                }
                joined += 1;
                ring.join(&format!("e20-join-{joined}"));
                ring.stabilize(2);
            }
            quorum.anti_entropy_step();
        }

        let k = (gen.next() as usize) % key_space;
        let m = model.entry(k).or_default();
        cell.attempted += 1;
        match gen.next() % 8 {
            // 5/8 reads, 2/8 puts, 1/8 removes — read-heavy, like the
            // index hot path the tier sits under.
            0..=4 => {
                if let Ok(got) = quorum.get(&key(k)) {
                    cell.ok += 1;
                    if !m.dirty {
                        cell.clean_reads += 1;
                        if got != m.acked {
                            cell.stale_reads += 1;
                        }
                    }
                }
            }
            5 | 6 => {
                let v = i as u32;
                match quorum.put(&key(k), v) {
                    Ok(()) => {
                        cell.ok += 1;
                        m.acked = Some(v);
                    }
                    Err(_) => m.dirty = true,
                }
            }
            _ => match quorum.remove(&key(k)) {
                Ok(_) => {
                    cell.ok += 1;
                    m.acked = None;
                }
                Err(_) => m.dirty = true,
            },
        }
    }

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
        |t2: &mut Table, tier: String, rate: f64, churn: bool, cell: &erasure::ErasureCell| {
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
