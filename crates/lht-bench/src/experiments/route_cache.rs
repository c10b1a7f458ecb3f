//! Extension experiment E18 — the churn-safe location cache on the
//! index hot path.
//!
//! The figure experiments count index-level DHT-lookups; E14 priced
//! each one at the ring's `O(log N)` hop multiplier. This experiment
//! attacks that multiplier directly: wrapping the Chord substrate in
//! [`CachedDht`] turns a repeat visit to a known
//! bucket into a *verified one-hop probe*, so a skewed ("zipfian-ish"
//! 80/20) range workload pays the full route only on cold keys and
//! after churn invalidates a hint. Measured here, per cache capacity
//! and churn intensity, for LHT and PHT over the same rings:
//!
//! * mean physical hops per DHT-lookup,
//! * route-cache hit rate,
//! * wall-clock query latency p50/p99,
//! * divergences against an uncached reference handle (must be 0 —
//!   the cache may only change cost, never answers).

use std::io::{self, Write};
use std::time::Instant;

use lht::harness::args::Parsed;
use lht_core::{Executor, HistoryCall, LeafBucket, LhtConfig, LhtIndex};
use lht_dht::{CachedDht, ChordDht, Dht};
use lht_id::KeyFraction;
use lht_pht::{PhtIndex, PhtNode};
use lht_workload::{summary, Dataset, KeyDist};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Table;

/// Ring size for every cell (matches the snapshot's Chord baseline).
const PEERS: usize = 32;
/// Records each range query spans (`16 / n` of the key space).
const SPAN_KEYS: usize = 16;
/// Hot-set size for the skewed query mix.
const HOT_SET: usize = 64;
/// Probability a query starts inside the hot set.
const HOT_PROB: f64 = 0.8;

/// One measured cell of the sweep.
#[derive(Clone, Debug)]
pub(crate) struct RouteCacheRow {
    /// Which index ran: `"lht"` or `"pht"`.
    pub index: &'static str,
    /// Location-cache capacity (0 = disabled; the uncached baseline).
    pub capacity: usize,
    /// Join/leave churn events injected between warm-up and
    /// measurement.
    pub churn_events: usize,
    /// Mean physical hops per DHT-lookup during measurement.
    pub hops_per_lookup: f64,
    /// Route-cache hit rate during measurement.
    pub hit_rate: f64,
    /// Median wall-clock query latency, microseconds.
    pub latency_p50_us: f64,
    /// 99th-percentile wall-clock query latency, microseconds.
    pub latency_p99_us: f64,
    /// Queries whose records differed from the uncached reference
    /// handle (the safety property: must be 0).
    pub divergences: usize,
}

/// The skewed query-start generator: 80% of queries begin at one of
/// [`HOT_SET`] pinned positions, the rest anywhere.
struct SkewedStarts {
    rng: StdRng,
    hot: Vec<usize>,
    n: usize,
}

impl SkewedStarts {
    fn new(n: usize, seed: u64) -> SkewedStarts {
        let mut rng = StdRng::seed_from_u64(seed);
        let hot = (0..HOT_SET).map(|_| rng.gen_range(0..n)).collect();
        SkewedStarts { rng, hot, n }
    }

    fn next_range(&mut self) -> HistoryCall<u32> {
        let idx = if self.rng.gen_bool(HOT_PROB) {
            self.hot[self.rng.gen_range(0..self.hot.len())]
        } else {
            self.rng.gen_range(0..self.n)
        };
        let lo = idx as f64 / self.n as f64;
        let hi = (lo + SPAN_KEYS as f64 / self.n as f64).min(1.0);
        HistoryCall::Range {
            lo: KeyFraction::from_f64(lo).bits(),
            hi: Some(KeyFraction::from_f64(hi).bits()),
        }
    }
}

/// Runs `events` graceful leave/join pairs with a stabilization round
/// after each, invalidating every cached hint whose owner moved.
fn churn_ring<V: Clone>(ring: &ChordDht<V>, events: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4E1);
    for e in 0..events {
        let ids = ring.snapshot().node_ids;
        if ids.len() > PEERS / 2 {
            let victim = ids[rng.gen_range(0..ids.len())];
            ring.leave(&victim);
        }
        ring.join(&format!("e18:joiner:{seed}:{e}"));
        ring.stabilize(1);
    }
}

struct CellOutcome {
    hops_per_lookup: f64,
    hit_rate: f64,
    p50_us: f64,
    p99_us: f64,
    divergences: usize,
}

/// One step a cell's closure executes.
enum CellStep {
    /// Run this range query through the cached stack, compare the
    /// answer to the uncached reference handle, and return the
    /// measured cached-stack stats delta plus whether answers agreed.
    Query(HistoryCall<u32>),
    /// Inject one leave/join churn event and stabilize the ring.
    Churn,
}

struct StepOutcome {
    delta: lht_dht::DhtStats,
    agreed: bool,
}

/// Runs one cell: warm the cache on the same skew, then measure a
/// query batch with churn events spread through it so hints go stale
/// *mid-workload*, not only at a single cliff.
fn run_cell<Q>(n: usize, churn_events: usize, queries: usize, seed: u64, mut step: Q) -> CellOutcome
where
    Q: FnMut(CellStep) -> StepOutcome,
{
    let mut warm = SkewedStarts::new(n, seed ^ 0x11A7);
    for _ in 0..queries / 2 {
        step(CellStep::Query(warm.next_range()));
    }

    let mut gen = SkewedStarts::new(n, seed ^ 0x22B8);
    let mut latencies = Vec::with_capacity(queries);
    let mut divergences = 0usize;
    let (mut hops, mut lookups) = (0u64, 0u64);
    let (mut hits, mut misses, mut stale) = (0u64, 0u64, 0u64);
    let churn_every = queries
        .checked_div(churn_events)
        .map_or(usize::MAX, |n| n.max(1));
    for q in 0..queries {
        if q > 0 && q % churn_every == 0 {
            step(CellStep::Churn);
        }
        let start = Instant::now();
        let out = step(CellStep::Query(gen.next_range()));
        latencies.push(start.elapsed().as_secs_f64() * 1e6);
        hops += out.delta.hops;
        lookups += out.delta.lookups();
        hits += out.delta.cache_hits;
        misses += out.delta.cache_misses;
        stale += out.delta.cache_stale;
        if !out.agreed {
            divergences += 1;
        }
    }
    let total = hits + misses + stale;
    CellOutcome {
        hops_per_lookup: hops as f64 / lookups.max(1) as f64,
        hit_rate: if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        },
        p50_us: summary::percentile(&latencies, 50.0),
        p99_us: summary::percentile(&latencies, 99.0),
        divergences,
    }
}

/// Runs the full sweep: every (index, capacity, churn) cell.
pub(crate) fn route_cache_sweep(
    n: usize,
    capacities: &[usize],
    churn_levels: &[usize],
    queries: usize,
    seed: u64,
) -> Vec<RouteCacheRow> {
    let data = Dataset::generate(KeyDist::Uniform, n, seed ^ 0xE18);
    let mut rows = Vec::new();
    for &capacity in capacities {
        for &churn_events in churn_levels {
            let lht = run_lht_cell(&data, capacity, churn_events, queries, seed);
            let pht = run_pht_cell(&data, capacity, churn_events, queries, seed);
            for (index, cell) in [("lht", lht), ("pht", pht)] {
                rows.push(RouteCacheRow {
                    index,
                    capacity,
                    churn_events,
                    hops_per_lookup: cell.hops_per_lookup,
                    hit_rate: cell.hit_rate,
                    latency_p50_us: cell.p50_us,
                    latency_p99_us: cell.p99_us,
                    divergences: cell.divergences,
                });
            }
        }
    }
    rows
}

fn run_lht_cell(
    data: &Dataset,
    capacity: usize,
    churn_events: usize,
    queries: usize,
    seed: u64,
) -> CellOutcome {
    let ring: ChordDht<LeafBucket<u32>> = ChordDht::with_nodes(PEERS, seed);
    let cached = CachedDht::with_capacity(&ring, capacity);
    run_index_cell(data, &ring, &cached, churn_events, queries, seed, |dht| {
        LhtIndex::new(dht, LhtConfig::new(8, 20)).expect("loss-free ring")
    })
}

fn run_pht_cell(
    data: &Dataset,
    capacity: usize,
    churn_events: usize,
    queries: usize,
    seed: u64,
) -> CellOutcome {
    let ring: ChordDht<PhtNode<u32>> = ChordDht::with_nodes(PEERS, seed);
    let cached = CachedDht::with_capacity(&ring, capacity);
    run_index_cell(data, &ring, &cached, churn_events, queries, seed, |dht| {
        PhtIndex::new(dht, LhtConfig::new(8, 20)).expect("loss-free ring")
    })
}

/// Loads `data` through an index `open`ed over the cached stack, then
/// measures it against a reference handle `open`ed over the bare ring
/// — it shares the ring, so both always see the same post-churn state.
fn run_index_cell<'a, V: Clone, I: Executor<u32>>(
    data: &Dataset,
    ring: &'a ChordDht<V>,
    cached: &'a CachedDht<&'a ChordDht<V>>,
    churn_events: usize,
    queries: usize,
    seed: u64,
    open: impl Fn(&'a dyn Dht<Value = V>) -> I,
) -> CellOutcome {
    let ix = open(cached);
    for (i, k) in data.iter().enumerate() {
        let insert = HistoryCall::Insert {
            key: k.bits(),
            value: i as u32,
        };
        ix.execute(&insert).expect("loss-free ring");
    }
    let truth = open(ring);
    let mut churned = 0u64;
    run_cell(data.len(), churn_events, queries, seed, |s| match s {
        CellStep::Churn => {
            churned += 1;
            churn_ring(ring, 1, seed ^ churned);
            StepOutcome {
                delta: lht_dht::DhtStats::default(),
                agreed: true,
            }
        }
        CellStep::Query(range) => {
            let before = Dht::stats(cached);
            let (got, _) = ix.execute(&range).expect("loss-free ring");
            let delta = Dht::stats(cached) - before;
            let (want, _) = truth.execute(&range).expect("loss-free ring");
            StepOutcome {
                delta,
                agreed: got == want,
            }
        }
    })
}

/// The headline cell for the benchmark snapshot: LHT over a
/// full-capacity cache, no churn. Returns `(hops per DHT-lookup,
/// route-cache hit rate)`.
pub(crate) fn headline(n: usize, queries: usize, seed: u64) -> (f64, f64) {
    let data = Dataset::generate(KeyDist::Uniform, n, seed ^ 0xE18);
    let cell = run_lht_cell(&data, n, 0, queries, seed);
    assert_eq!(cell.divergences, 0, "cache must never change answers");
    (cell.hops_per_lookup, cell.hit_rate)
}

/// `lht-exp route-cache`: prints the E18 sweep and writes its CSV.
///
/// Self-asserting: at full capacity with no churn the LHT workload
/// must route in ≤ 1.8 hops per DHT-lookup with a hit rate ≥ 0.6
/// (the uncached Chord baseline is ~3.1), and no cell may ever
/// diverge from its uncached reference handle.
pub(crate) fn cmd(p: &Parsed, out: &mut dyn Write) -> io::Result<i32> {
    let full = p.on("--full");
    let (n, queries) = if full { (4_096, 512) } else { (4_096, 256) };
    let caps = [0usize, 64, 256, 1024, 4096];
    let churn = [0usize, 8, 32];

    eprintln!("route cache: {n} records, {queries} queries per cell…");
    let rows = route_cache_sweep(n, &caps, &churn, queries, 23);

    let t = Table::of(
        format!(
            "E18 — location cache vs churn ({n} records, {SPAN}-key ranges, 80/20 skew)",
            SPAN = 16
        ),
        &rows,
        &[
            ("index", &|r| r.index.to_string()),
            ("cache", &|r| r.capacity.to_string()),
            ("churn", &|r| r.churn_events.to_string()),
            ("hops/DHT-lookup", &|r| format!("{:.3}", r.hops_per_lookup)),
            ("hit rate", &|r| format!("{:.3}", r.hit_rate)),
            ("p50 us", &|r| format!("{:.1}", r.latency_p50_us)),
            ("p99 us", &|r| format!("{:.1}", r.latency_p99_us)),
            ("divergences", &|r| r.divergences.to_string()),
        ],
    );
    t.emit(out, "e18_route_cache")?;

    // Safety: the cache may change cost, never answers.
    for r in &rows {
        assert_eq!(
            r.divergences, 0,
            "{} cache={} churn={}: cached answers diverged",
            r.index, r.capacity, r.churn_events
        );
    }
    let cell = |cap: usize, churn: usize| {
        rows.iter()
            .find(|r| r.index == "lht" && r.capacity == cap && r.churn_events == churn)
            .expect("cell present")
    };
    let best = cell(4096, 0);
    let base = cell(0, 0);
    assert!(
        best.hops_per_lookup <= 1.8,
        "full-capacity churn-free LHT must route in <= 1.8 hops/lookup, got {:.3} \
         (uncached baseline {:.3})",
        best.hops_per_lookup,
        base.hops_per_lookup
    );
    assert!(
        best.hit_rate >= 0.6,
        "full-capacity churn-free LHT hit rate must be >= 0.6, got {:.3}",
        best.hit_rate
    );
    writeln!(
        out,
        "\n(cache 4096, churn 0: {:.3} hops/DHT-lookup at hit rate {:.3}, vs {:.3} uncached —\n \
         a verified 1-hop probe replaces the O(log N) route on every hit, and churned cells\n \
         degrade to the full route instead of answering stale.)",
        best.hops_per_lookup, best.hit_rate, base.hops_per_lookup
    )?;
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_cuts_hops_and_never_changes_answers() {
        let rows = route_cache_sweep(512, &[0, 512], &[0, 4], 48, 7);
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert_eq!(r.divergences, 0, "{}/{}: diverged", r.index, r.capacity);
            if r.capacity == 0 {
                assert_eq!(r.hit_rate, 0.0, "disabled cache cannot hit");
            }
        }
        // Full-capacity, churn-free LHT beats its own uncached baseline.
        let at = |cap: usize, churn: usize| {
            rows.iter()
                .find(|r| r.index == "lht" && r.capacity == cap && r.churn_events == churn)
                .unwrap()
        };
        assert!(
            at(512, 0).hops_per_lookup < at(0, 0).hops_per_lookup,
            "cached {} vs uncached {}",
            at(512, 0).hops_per_lookup,
            at(0, 0).hops_per_lookup
        );
        assert!(at(512, 0).hit_rate > 0.3, "{}", at(512, 0).hit_rate);
        // Churn costs hits but never correctness.
        assert!(at(512, 4).hit_rate <= at(512, 0).hit_rate + 0.05);
    }
}
