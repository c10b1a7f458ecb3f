//! Extension experiment E21 — the paper-scale hot path.
//!
//! The paper's evaluation runs to 2^20 keys (§9, Figs. 6–10); most of
//! this crate's experiments stay well below that because they average
//! hundreds of trials. E21 goes the other way: **one** full-size run
//! per scale, driven through the real index hot path — SHA-1 naming,
//! inline [`DhtKey`](lht_dht::DhtKey) construction, sorted leaf
//! buckets, the compact node stores — and timed with a wall clock, so
//! the throughput and memory numbers reflect what the implementation
//! actually does at the paper's data sizes.
//!
//! The load is scattered over real threads sharing one Chord ring
//! ([`scatter`]): each worker owns one
//! contiguous slice of the key grid and drives its own
//! [`LhtIndex`] client handle, the way distinct
//! DHT clients would. Per-thread stats are merged with `DhtStats`
//! addition and cross-checked against the substrate's global delta —
//! the run only reports numbers whose operation accounting survived
//! the concurrency it was measured under.
//!
//! Every phase also *verifies* what it measures: point lookups check
//! the stored value, every range query checks its exact expected
//! cardinality against the key grid, and min/max must return the
//! grid's first and last keys.

use std::time::Instant;

use lht_core::{KeyInterval, LeafBucket, LhtConfig, LhtIndex};
use lht_dht::ChordDht;
use lht_id::KeyFraction;

use crate::rss::{peak_rss_mb, reset_peak_rss};
use crate::scatter::{partition_ranges, scatter};

/// θ_split for the paper-scale tree — the paper's default block
/// capacity (§9 uses θ = 100 unless a figure sweeps it).
const THETA_SPLIT: usize = 100;

/// Depth cap; a uniform 2^20-key grid splits to depth ≈ 15, so 48
/// leaves generous headroom without approaching the 128-bit label
/// rendering limit.
const MAX_DEPTH: usize = 48;

/// Keys bulk-loaded single-threaded before scattering, spread
/// uniformly over the whole grid. They pre-split the tree into enough
/// leaves that concurrent workers land on disjoint subtrees instead
/// of all racing the root bucket through its first splits.
const SEED_INSERTS: usize = 4096;

/// One measured paper-scale run.
#[derive(Clone, Debug)]
pub struct PaperScaleRun {
    /// Records inserted (the scale; 2^18–2^20 in the full sweep).
    pub keys: usize,
    /// Simulated peers on the Chord ring.
    pub peers: usize,
    /// Real worker threads sharing the substrate.
    pub threads: usize,
    /// Wall-clock seconds of the single-threaded pre-split phase.
    pub seed_secs: f64,
    /// Wall-clock seconds of the scattered insert phase.
    pub insert_secs: f64,
    /// End-to-end insert throughput: all `keys` over both phases.
    pub inserts_per_sec: f64,
    /// DHT-lookups the inserts consumed (merged thread-local view).
    pub insert_dht_lookups: u64,
    /// Routing hops the inserts cost (substrate view).
    pub insert_hops: u64,
    /// Point lookups issued (each verified against the stored value).
    pub point_lookups: u64,
    /// Verified point-lookup throughput.
    pub lookups_per_sec: f64,
    /// Range queries issued (each verified for exact cardinality).
    pub range_queries: u64,
    /// Verified range-query throughput.
    pub range_qps: f64,
    /// Records returned across all range queries.
    pub range_records: u64,
    /// Peak resident set over this run in MB — the high-water mark is
    /// reset when the run starts where the kernel allows it, so grid
    /// cells report their own peaks. `None` where the platform has no
    /// probe (render with [`crate::rss::format_mb`]).
    pub peak_rss_mb: Option<f64>,
}

/// The `i`-th key of the uniform grid over `(0, 1)`: midpoints of
/// `keys` equal cells, so neighbouring keys are distinct at every
/// scale this experiment reaches.
fn grid_key(i: usize, keys: usize) -> KeyFraction {
    KeyFraction::from_f64((i as f64 + 0.5) / keys as f64)
}

/// Whether grid index `i` is inserted by the single-threaded seed
/// phase (a uniform stride sample of [`SEED_INSERTS`] keys).
fn is_seed(i: usize, stride: usize) -> bool {
    i.is_multiple_of(stride)
}

/// Exact number of grid keys inside `[lo, hi)`, counted with the same
/// f64 midpoint arithmetic the keys are built from (so the expectation
/// matches what the index stores bit-for-bit).
fn grid_count_in(lo: f64, hi: f64, keys: usize) -> u64 {
    let in_range = |i: usize| {
        let k = (i as f64 + 0.5) / keys as f64;
        lo <= k && k < hi
    };
    // Approximate endpoints, then nudge across f64 rounding.
    let first = (lo * keys as f64 - 0.5).ceil().max(0.0) as usize;
    let mut start = first.saturating_sub(2);
    while start < keys && !in_range(start) {
        start += 1;
    }
    let mut end = start;
    while end < keys && in_range(end) {
        end += 1;
    }
    (end - start) as u64
}

/// Runs the full E21 pipeline at one scale: pre-split seed inserts,
/// scattered bulk inserts, scattered verified point lookups,
/// scattered verified range queries, then min/max.
///
/// # Panics
///
/// Panics on any correctness violation — a wrong lookup value, a
/// range query of the wrong cardinality, a wrong min/max, or
/// scatter-gather accounting drift.
pub fn run(keys: usize, peers: usize, threads: usize, seed: u64) -> PaperScaleRun {
    assert!(keys >= SEED_INSERTS, "scale must cover the seed phase");
    // Attribute the peak RSS to this run where the kernel lets us
    // reset the high-water mark (best-effort; see `rss`).
    reset_peak_rss();
    let cfg = LhtConfig::new(THETA_SPLIT, MAX_DEPTH);
    let dht: ChordDht<LeafBucket<u32>> = ChordDht::with_nodes(peers, seed);
    let stride = keys / SEED_INSERTS;

    // Phase 1: single-threaded pre-split via the bulk loader — the
    // partition tree over a uniform sample of the grid is computed
    // locally and each leaf ships with one put. The scattered phase
    // then lands on disjoint subtrees instead of racing the root
    // bucket through its first splits.
    let seed_start = Instant::now();
    {
        let ix: LhtIndex<_, u32> = LhtIndex::new(&dht, cfg).expect("bootstrap index");
        ix.bulk_load(
            (0..keys)
                .step_by(stride)
                .map(|i| (grid_key(i, keys), i as u32)),
        )
        .expect("bulk seed");
    }
    let seed_secs = seed_start.elapsed().as_secs_f64();

    // Phase 2: scattered inserts over partitioned contiguous ranges.
    let ranges = partition_ranges(keys, threads);
    let insert_run = scatter(&dht, threads, |t, d| {
        let ix: LhtIndex<_, u32> = LhtIndex::new(d, cfg).expect("worker index");
        let mut inserted = 0u64;
        for i in ranges[t].clone() {
            if is_seed(i, stride) {
                continue;
            }
            ix.insert(grid_key(i, keys), i as u32)
                .expect("scatter insert");
            inserted += 1;
        }
        inserted
    });
    let scattered: u64 = insert_run.outputs.iter().sum();
    let seeded = (0..keys).step_by(stride).len() as u64;
    assert_eq!(
        scattered + seeded,
        keys as u64,
        "every grid key must be inserted exactly once"
    );
    let insert_secs = insert_run.elapsed_secs;
    let inserts_per_sec = keys as f64 / (seed_secs + insert_secs);

    // Phase 3: scattered verified point lookups — every 4th key of
    // each worker's own range, value checked.
    let lookup_run = scatter(&dht, threads, |t, d| {
        let ix: LhtIndex<_, u32> = LhtIndex::new(d, cfg).expect("worker index");
        let mut checked = 0u64;
        for i in ranges[t].clone().step_by(4) {
            let hit = ix.exact_match(grid_key(i, keys)).expect("point lookup");
            assert_eq!(hit.value, Some(i as u32), "lookup returned a wrong value");
            checked += 1;
        }
        checked
    });
    let point_lookups: u64 = lookup_run.outputs.iter().sum();
    let lookups_per_sec = point_lookups as f64 / lookup_run.elapsed_secs;

    // Phase 4: scattered range queries, each spanning 1/256 of the
    // keyspace at an offset that walks the whole ring, each verified
    // for exact cardinality against the grid.
    let total_queries = 256usize;
    let span = 1.0 / 256.0;
    let queries = partition_ranges(total_queries, threads);
    let range_run = scatter(&dht, threads, |t, d| {
        let ix: LhtIndex<_, u32> = LhtIndex::new(d, cfg).expect("worker index");
        let mut records = 0u64;
        for q in queries[t].clone() {
            // Offsets stride the unit interval co-prime-ishly so
            // successive queries from one worker touch far-apart
            // subtrees (no accidental cache-warm adjacency).
            let lo = (q as f64 * 0.6180339887498949) % (1.0 - span);
            let hi = lo + span;
            let r = ix
                .range(KeyInterval::half_open(
                    KeyFraction::from_f64(lo),
                    KeyFraction::from_f64(hi),
                ))
                .expect("range query");
            let expected = grid_count_in(lo, hi, keys);
            assert_eq!(
                r.records.len() as u64,
                expected,
                "range [{lo}, {hi}) returned the wrong cardinality"
            );
            records += expected;
        }
        records
    });
    let range_records: u64 = range_run.outputs.iter().sum();
    let range_qps = total_queries as f64 / range_run.elapsed_secs;

    // Phase 5: min/max (§7, Theorem 3 — one lookup each) must return
    // the grid's endpoints.
    let ix: LhtIndex<_, u32> = LhtIndex::new(&dht, cfg).expect("gather index");
    let min = ix.min().expect("min query");
    assert_eq!(
        min.value,
        Some((grid_key(0, keys), 0)),
        "min must be the first grid key"
    );
    let max = ix.max().expect("max query");
    assert_eq!(
        max.value,
        Some((grid_key(keys - 1, keys), (keys - 1) as u32)),
        "max must be the last grid key"
    );

    PaperScaleRun {
        keys,
        peers,
        threads,
        seed_secs,
        insert_secs,
        inserts_per_sec,
        insert_dht_lookups: insert_run.merged.lookups(),
        insert_hops: insert_run.substrate_delta.hops,
        point_lookups,
        lookups_per_sec,
        range_queries: total_queries as u64,
        range_qps,
        range_records,
        peak_rss_mb: peak_rss_mb(),
    }
}

/// The bench-snapshot headline: one modest-scale run (2^16 keys by
/// default is the caller's choice) returning `(inserts_per_sec,
/// range_qps, peak_rss_mb)`.
pub fn headline(keys: usize, peers: usize, threads: usize, seed: u64) -> (f64, f64, Option<f64>) {
    let run = run(keys, peers, threads, seed);
    (run.inserts_per_sec, run.range_qps, run.peak_rss_mb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_count_matches_brute_force() {
        let keys = 4096;
        for q in 0..32 {
            let lo = (q as f64 * 0.6180339887498949) % (1.0 - 1.0 / 256.0);
            let hi = lo + 1.0 / 256.0;
            let brute = (0..keys)
                .filter(|&i| {
                    let k = (i as f64 + 0.5) / keys as f64;
                    lo <= k && k < hi
                })
                .count() as u64;
            assert_eq!(grid_count_in(lo, hi, keys), brute, "query {q}");
        }
    }

    #[test]
    fn small_scale_run_is_fully_verified() {
        // 2^12 keys over 32 peers, 2 threads: every assertion in the
        // pipeline (value checks, cardinality checks, min/max,
        // accounting cross-checks) fires on this path.
        let r = run(4096, 32, 2, 11);
        assert_eq!(r.keys, 4096);
        assert_eq!(r.point_lookups, 1024);
        assert_eq!(r.range_queries, 256);
        assert!(r.inserts_per_sec > 0.0);
        assert!(r.range_records > 0);
    }
}
