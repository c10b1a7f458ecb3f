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
    ChordConfig, ChordDht, Dht, DhtStats, Executor, FaultyDht, HistoryCall, KeyFraction,
    LeafBucket, LhtConfig, LhtError, LhtIndex, NetProfile, PhtIndex, RetriedDht, RetryPolicy,
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
/// measured. Returns `(attempted, ok)`.
fn run_workload(ix: &impl Executor<u32>, n: usize) -> (u64, u64) {
    let bits = |x: f64| KeyFraction::from_f64(x).bits();
    let key = |i: usize| bits((i as f64 + 0.5) / n as f64);
    let range = |i: usize| {
        let lo = (i % 16) as f64 / 16.0;
        HistoryCall::Range {
            lo: bits(lo),
            hi: Some(bits(lo + 1.0 / 16.0)),
        }
    };
    let calls = (0..n)
        .map(|i| HistoryCall::Insert {
            key: key(i),
            value: i as u32,
        })
        .chain((0..n).map(|i| HistoryCall::Get { key: key(i) }))
        .chain((0..n / 8).map(range))
        .chain((0..8).flat_map(|_| [HistoryCall::Min, HistoryCall::Max]))
        .chain(
            (0..n)
                .step_by(4)
                .map(|i| HistoryCall::Remove { key: key(i) }),
        );
    let (mut attempted, mut ok) = (0, 0);
    for call in calls {
        attempted += 1;
        ok += ix.execute(&call).is_ok() as u64;
    }
    (attempted, ok)
}

/// The lossy stack one cell's index runs over.
type Lossy<'a, V> = RetriedDht<FaultyDht<&'a ChordDht<V>>>;

/// Stands an index up over `ring` behind a lossy stack at `drop_rate`
/// (`open` builds it; `stats` reads the stack back out of it), drives
/// the shared workload through it and returns the cell.
fn sweep_cell<'a, V, I: Executor<u32>>(
    ring: &'a ChordDht<V>,
    drop_rate: f64,
    ops: usize,
    open: impl Fn(Lossy<'a, V>) -> Result<I, LhtError>,
    stats: impl Fn(&I) -> DhtStats,
) -> Cell {
    let policy = RetryPolicy {
        max_attempts: SWEEP_ATTEMPTS,
        ..RetryPolicy::default()
    };
    // Mix the drop rate into the fault seed so each cell draws an
    // independent loss sequence; bump the seed on the (rare) bootstrap
    // failure so the retry is not doomed to replay the same drops.
    let net_seed = SEED ^ (drop_rate * 1000.0) as u64;
    let mut attempt = 0u64;
    let ix = loop {
        let profile = NetProfile::lossy(net_seed.wrapping_add(attempt), drop_rate);
        match open(RetriedDht::new(FaultyDht::new(ring, profile), policy)) {
            Ok(ix) => break ix,
            Err(_) => attempt += 1,
        }
    };
    let (attempted, ok) = run_workload(&ix, ops);
    Cell {
        attempted,
        ok,
        stats: stats(&ix),
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
            let cfg = LhtConfig::new(4, 20);
            let chord_cfg = ChordConfig {
                replicas: 2,
                ..ChordConfig::default()
            };
            let cell = if index == "lht" {
                let ring: ChordDht<LeafBucket<u32>> =
                    ChordDht::with_config(nodes, SEED ^ 0x5eed, chord_cfg);
                let open = |dht| LhtIndex::new(dht, cfg);
                sweep_cell(&ring, rate, ops, open, |ix| ix.dht().stats())
            } else {
                let ring: ChordDht<PhtNode<u32>> =
                    ChordDht::with_config(nodes, SEED ^ 0x5eed, chord_cfg);
                let open = |dht| PhtIndex::new(dht, cfg);
                sweep_cell(&ring, rate, ops, open, |ix| ix.dht().stats())
            };
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
