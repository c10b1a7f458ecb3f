//! Extension experiment E16 — fault sweep: availability and cost
//! inflation vs network drop rate, LHT vs PHT, over a lossy Chord substrate.
//!
//! Each cell wraps a Chord ring in a seeded
//! [`FaultyDht`] at one drop rate, layers a bounded
//! [`RetriedDht`] on top, and drives a mixed
//! insert/lookup/range/extreme/remove workload through the index.
//! The table reports *achieved availability* (logical operations that
//! completed despite the loss) and how far hops-per-lookup and
//! simulated latency inflate over the loss-free baseline — the price
//! the retry stack pays to mask the faults.
//!
//! `--smoke` shrinks the sweep for CI; the full run persists
//! `results/e16_fault_sweep.csv`.

use std::io::{self, Write};

use lht::harness::args::{Flag, Parsed};
use lht::pht::PhtNode;
use lht::{
    ChordConfig, ChordDht, Dht, DhtStats, FaultyDht, KeyFraction, KeyInterval, LeafBucket,
    LhtConfig, LhtIndex, NetProfile, PhtIndex, RetriedDht, RetryPolicy,
};

use crate::Table;

/// Bounded retry budget: enough to mask most loss, small enough that
/// heavy loss shows up as unavailability rather than unbounded delay.
const SWEEP_ATTEMPTS: u32 = 4;

/// Base seed for ring, workload and fault layer.
const SEED: u64 = 7;

/// The flags of `lht-exp fault-sweep`.
pub(crate) const FLAGS: &[Flag] = &[Flag::switch(
    "--smoke",
    "CI shape: 300 keys, 12 nodes, no CSV",
)];

/// One cell's outcome: logical operations attempted/completed plus
/// the substrate stats as seen through the fault and retry layers.
struct Cell {
    attempted: u64,
    ok: u64,
    stats: DhtStats,
}

impl Cell {
    fn availability(&self) -> f64 {
        if self.attempted == 0 {
            return 1.0;
        }
        self.ok as f64 / self.attempted as f64
    }
}

/// The shared workload: insert `n` keys, look each up, run `n/8`
/// small ranges, a handful of extremes, then remove a quarter.
/// Failures are counted, never fatal — that is the availability being
/// measured.
struct Workload {
    n: usize,
    attempted: u64,
    ok: u64,
}

impl Workload {
    fn new(n: usize) -> Workload {
        Workload {
            n,
            attempted: 0,
            ok: 0,
        }
    }

    fn tally(&mut self, ok: bool) {
        self.attempted += 1;
        self.ok += ok as u64;
    }

    fn key(&self, i: usize) -> KeyFraction {
        KeyFraction::from_f64((i as f64 + 0.5) / self.n as f64)
    }
}

fn run_lht<D: Dht<Value = LeafBucket<u32>>>(ix: &LhtIndex<D, u32>, n: usize) -> (u64, u64) {
    let mut w = Workload::new(n);
    for i in 0..n {
        let ok = ix.insert(w.key(i), i as u32).is_ok();
        w.tally(ok);
    }
    for i in 0..n {
        w.tally(ix.exact_match(w.key(i)).is_ok());
    }
    for i in 0..n / 8 {
        let lo = (i % 16) as f64 / 16.0;
        let iv = KeyInterval::half_open(
            KeyFraction::from_f64(lo),
            KeyFraction::from_f64(lo + 1.0 / 16.0),
        );
        w.tally(ix.range(iv).is_ok());
    }
    for _ in 0..8 {
        w.tally(ix.min().is_ok());
        w.tally(ix.max().is_ok());
    }
    for i in (0..n).step_by(4) {
        w.tally(ix.remove(w.key(i)).is_ok());
    }
    (w.attempted, w.ok)
}

fn run_pht<D: Dht<Value = PhtNode<u32>>>(ix: &PhtIndex<D, u32>, n: usize) -> (u64, u64) {
    let mut w = Workload::new(n);
    for i in 0..n {
        let ok = ix.insert(w.key(i), i as u32).is_ok();
        w.tally(ok);
    }
    for i in 0..n {
        w.tally(ix.exact_match(w.key(i)).is_ok());
    }
    for i in 0..n / 8 {
        let lo = (i % 16) as f64 / 16.0;
        let iv = KeyInterval::half_open(
            KeyFraction::from_f64(lo),
            KeyFraction::from_f64(lo + 1.0 / 16.0),
        );
        w.tally(ix.range_sequential(iv).is_ok());
    }
    for _ in 0..8 {
        w.tally(ix.min().is_ok());
        w.tally(ix.max().is_ok());
    }
    for i in (0..n).step_by(4) {
        w.tally(ix.remove(w.key(i)).is_ok());
    }
    (w.attempted, w.ok)
}

fn sweep_cell(index: &str, drop_rate: f64, ops: usize, nodes: usize) -> Cell {
    let cfg = LhtConfig::new(4, 20);
    let chord_cfg = ChordConfig {
        replicas: 2,
        ..ChordConfig::default()
    };
    let policy = RetryPolicy {
        max_attempts: SWEEP_ATTEMPTS,
        ..RetryPolicy::default()
    };
    // Mix the drop rate into the fault seed so each cell draws an
    // independent loss sequence; bump the seed on the (rare) bootstrap
    // failure so the retry is not doomed to replay the same drops.
    let net_seed = SEED ^ (drop_rate * 1000.0) as u64;
    match index {
        "lht" => {
            let dht: ChordDht<LeafBucket<u32>> =
                ChordDht::with_config(nodes, SEED ^ 0x5eed, chord_cfg);
            let mut attempt = 0u64;
            let ix = loop {
                let profile = NetProfile::lossy(net_seed.wrapping_add(attempt), drop_rate);
                let lossy = RetriedDht::new(FaultyDht::new(&dht, profile), policy);
                match LhtIndex::new(lossy, cfg) {
                    Ok(ix) => break ix,
                    Err(_) => attempt += 1,
                }
            };
            let (attempted, ok) = run_lht(&ix, ops);
            Cell {
                attempted,
                ok,
                stats: ix.dht().stats(),
            }
        }
        "pht" => {
            let dht: ChordDht<PhtNode<u32>> =
                ChordDht::with_config(nodes, SEED ^ 0x5eed, chord_cfg);
            let mut attempt = 0u64;
            let ix = loop {
                let profile = NetProfile::lossy(net_seed.wrapping_add(attempt), drop_rate);
                let lossy = RetriedDht::new(FaultyDht::new(&dht, profile), policy);
                match PhtIndex::new(lossy, cfg) {
                    Ok(ix) => break ix,
                    Err(_) => attempt += 1,
                }
            };
            let (attempted, ok) = run_pht(&ix, ops);
            Cell {
                attempted,
                ok,
                stats: ix.dht().stats(),
            }
        }
        other => unreachable!("unknown index {other}"),
    }
}

/// `lht-exp fault-sweep`: prints the E16 availability/inflation
/// table; the full sweep also writes its CSV.
pub(crate) fn cmd(p: &Parsed, out: &mut dyn Write) -> io::Result<i32> {
    let smoke = p.on("--smoke");
    let (ops, nodes) = if smoke { (300, 12) } else { (2_000, 16) };
    let drop_rates: &[f64] = if smoke {
        &[0.0, 0.10]
    } else {
        &[0.0, 0.02, 0.05, 0.10, 0.20]
    };

    let mut t = Table::new(
        format!(
            "fault sweep — {ops} keys, {nodes} nodes, {SWEEP_ATTEMPTS} retry attempts, seed {SEED}"
        ),
        &[
            "drop%",
            "index",
            "ops",
            "ok",
            "avail%",
            "hops/op",
            "hops_x",
            "lat_ms/op",
            "lat_x",
            "drops",
            "timeouts",
            "retries",
        ],
    );

    for index in ["lht", "pht"] {
        let mut base_hops = 0.0f64;
        let mut base_lat = 0.0f64;
        for &rate in drop_rates {
            eprintln!("sweeping {index} at drop {rate}…");
            let cell = sweep_cell(index, rate, ops, nodes);
            let hops = cell.stats.hops_per_lookup();
            let lat = cell.stats.latency_per_lookup();
            if rate == 0.0 {
                base_hops = hops;
                base_lat = lat;
            }
            let ratio = |v: f64, base: f64| {
                if base > 0.0 {
                    format!("{:.2}", v / base)
                } else {
                    "-".to_string()
                }
            };
            t.push_row(vec![
                format!("{:.0}", rate * 100.0),
                index.to_string(),
                cell.attempted.to_string(),
                cell.ok.to_string(),
                format!("{:.2}", cell.availability() * 100.0),
                format!("{hops:.2}"),
                ratio(hops, base_hops),
                format!("{lat:.1}"),
                ratio(lat, base_lat),
                cell.stats.drops.to_string(),
                cell.stats.timeouts.to_string(),
                cell.stats.retries.to_string(),
            ]);
        }
    }

    if smoke {
        write!(out, "{}", t.render())?;
    } else {
        t.emit(out, "e16_fault_sweep")?;
    }
    Ok(0)
}
