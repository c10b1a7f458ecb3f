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
//! One client thread drives one [`LhtIndex`] handle over the Chord
//! ring, so the DHT-lookups and hops it reports — read from the
//! ring's own [`Dht::stats`] delta — are a pure function of
//! `(keys, peers, seed)`. Extra client threads would buy nothing
//! here: the ring sits behind one mutex, so they serialise.
//!
//! Every phase also *verifies* what it measures: point lookups check
//! the stored value, every range query checks its exact expected
//! cardinality against the key grid, and min/max must return the
//! grid's first and last keys.

use std::io::{self, Write};
use std::time::Instant;

use lht::harness::args::{Flag, Parsed};
use lht_core::{KeyInterval, LeafBucket, LhtConfig, LhtIndex};
use lht_dht::{ChordDht, Dht};
use lht_id::KeyFraction;

use crate::rss::{format_mb, peak_rss_mb, reset_peak_rss};
use crate::Table;

/// θ_split for the paper-scale tree — the paper's default block
/// capacity (§9 uses θ = 100 unless a figure sweeps it).
const THETA_SPLIT: usize = 100;

/// Depth cap; a uniform 2^20-key grid splits to depth ≈ 15, so 48
/// leaves generous headroom without approaching the 128-bit label
/// rendering limit.
const MAX_DEPTH: usize = 48;

/// Keys bulk-loaded before the incremental inserts, spread uniformly
/// over the whole grid: the bulk loader builds the top of the tree
/// with one put per leaf, and the client's inserts grow it from there.
const SEED_INSERTS: usize = 4096;

/// One measured paper-scale run.
#[derive(Clone, Debug)]
pub struct PaperScaleRun {
    /// Records inserted (the scale; 2^18–2^20 in the full sweep).
    pub keys: usize,
    /// Simulated peers on the Chord ring.
    pub peers: usize,
    /// Wall-clock seconds of the bulk-loaded seed phase.
    pub seed_secs: f64,
    /// Wall-clock seconds of the incremental insert phase.
    pub insert_secs: f64,
    /// End-to-end insert throughput: all `keys` over both phases.
    pub inserts_per_sec: f64,
    /// DHT-lookups the incremental inserts consumed.
    pub insert_dht_lookups: u64,
    /// Routing hops the incremental inserts cost.
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

/// Whether grid index `i` is inserted by the bulk-loaded seed phase
/// (a uniform stride sample of [`SEED_INSERTS`] keys).
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

/// Runs the full E21 pipeline at one scale: bulk-loaded seed keys,
/// incremental inserts, verified point lookups, verified range
/// queries, then min/max.
///
/// # Panics
///
/// Panics on any correctness violation — a wrong lookup value, a
/// range query of the wrong cardinality or a wrong min/max.
pub fn run(keys: usize, peers: usize, seed: u64) -> PaperScaleRun {
    assert!(keys >= SEED_INSERTS, "scale must cover the seed phase");
    // Attribute the peak RSS to this run where the kernel lets us
    // reset the high-water mark (best-effort; see `rss`).
    reset_peak_rss();
    let cfg = LhtConfig::new(THETA_SPLIT, MAX_DEPTH);
    let dht: ChordDht<LeafBucket<u32>> = ChordDht::with_nodes(peers, seed);
    let stride = keys / SEED_INSERTS;

    // Phase 1: the bulk loader computes the partition tree over a
    // uniform sample of the grid locally and ships each leaf with one
    // put.
    let seed_start = Instant::now();
    LhtIndex::<_, u32>::new(&dht, cfg)
        .expect("bootstrap index")
        .bulk_load(
            (0..keys)
                .step_by(stride)
                .map(|i| (grid_key(i, keys), i as u32)),
        )
        .expect("bulk seed");
    let seed_secs = seed_start.elapsed().as_secs_f64();

    // Phase 2: the client inserts the rest of the grid in order. Its
    // handle is opened inside the measured window, so the one
    // bootstrap `update` it issues counts with the inserts (moving it
    // out would shift every initiator the ring draws after it, and
    // with them the hop column).
    let before = dht.stats();
    let insert_start = Instant::now();
    let ix: LhtIndex<_, u32> = LhtIndex::new(&dht, cfg).expect("client index");
    for i in (0..keys).filter(|&i| !is_seed(i, stride)) {
        ix.insert(grid_key(i, keys), i as u32).expect("insert");
    }
    let insert_secs = insert_start.elapsed().as_secs_f64();
    let inserted = dht.stats() - before;
    let inserts_per_sec = keys as f64 / (seed_secs + insert_secs);

    // Phase 3: verified point lookups — every 4th key, value checked.
    let lookup_start = Instant::now();
    let mut point_lookups = 0u64;
    for i in (0..keys).step_by(4) {
        let hit = ix.exact_match(grid_key(i, keys)).expect("point lookup");
        assert_eq!(hit.value, Some(i as u32), "lookup returned a wrong value");
        point_lookups += 1;
    }
    let lookups_per_sec = point_lookups as f64 / lookup_start.elapsed().as_secs_f64();

    // Phase 4: range queries, each spanning 1/256 of the keyspace at an
    // offset that walks the whole ring, each verified for exact
    // cardinality against the grid.
    let total_queries = 256usize;
    let span = 1.0 / 256.0;
    let range_start = Instant::now();
    let mut range_records = 0u64;
    for q in 0..total_queries {
        // Offsets stride the unit interval co-prime-ishly so
        // successive queries touch far-apart subtrees (no accidental
        // cache-warm adjacency).
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
        range_records += expected;
    }
    let range_qps = total_queries as f64 / range_start.elapsed().as_secs_f64();

    // Phase 5: min/max (§7, Theorem 3 — one lookup each) must return
    // the grid's endpoints.
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
        seed_secs,
        insert_secs,
        inserts_per_sec,
        insert_dht_lookups: inserted.lookups(),
        insert_hops: inserted.hops,
        point_lookups,
        lookups_per_sec,
        range_queries: total_queries as u64,
        range_qps,
        range_records,
        peak_rss_mb: peak_rss_mb(),
    }
}

/// The flags of `lht-exp paper-scale`.
pub const FLAGS: &[Flag] = &[
    Flag::switch(
        "--smoke",
        "2^14 keys at 256 and 1024 peers, floors asserted",
    ),
    Flag::switch("--full", "add the corners up to 2^24 keys x 4096 peers"),
    Flag::opt_uint("--keys", "pin a single cell: this many keys").at_least(8192),
    Flag::opt_uint("--peers", "pin a single cell (default 256 peers)").at_least(1),
    Flag::uint("--seed", 21, "ring and workload seed"),
    Flag::uint("--budget", 1800, "seconds the sweep must finish within"),
];

/// The `(keys, peers)` cells a run covers. An explicit `--keys` or
/// `--peers` pins a single cell; otherwise smoke mode runs the two CI
/// cells and the sweep runs the grid (plus the `--full` corners).
fn cells(p: &Parsed) -> Vec<(usize, usize)> {
    let smoke = p.on("--smoke");
    let (keys, peers) = (p.opt_uint("--keys"), p.opt_uint("--peers"));
    if keys.is_some() || peers.is_some() {
        return vec![(
            keys.unwrap_or(if smoke { 1 << 14 } else { 1 << 20 }) as usize,
            peers.unwrap_or(256) as usize,
        )];
    }
    if smoke {
        return vec![(1 << 14, 256), (1 << 14, 1024)];
    }
    let mut cells = vec![
        (1 << 20, 256),
        (1 << 20, 1024),
        (1 << 20, 4096),
        (1 << 22, 256),
        (1 << 22, 1024),
    ];
    if p.on("--full") {
        cells.extend([
            (1 << 22, 4096),
            (1 << 24, 256),
            (1 << 24, 1024),
            (1 << 24, 4096),
        ]);
    }
    cells
}

/// Smoke-mode throughput floors: an order of magnitude below what a
/// single shared CPU core sustains, so they only trip on a real
/// regression (an accidental per-op allocation storm, a hashing
/// slowdown, or super-logarithmic routing), not on scheduler noise.
/// The same floors apply at 256 and 1024 peers — O(log n) routing
/// costs the bigger ring only a fraction more hops.
const SMOKE_MIN_INSERTS_PER_SEC: f64 = 10_000.0;
const SMOKE_MIN_RANGE_QPS: f64 = 40.0;

/// A 1024-peer ring must hold at least half the 256-peer insert
/// throughput at equal keys: hops grow like log2(n), so a 4× ring
/// costs ~10/8 hops — far from 2×. A miss means routing degraded
/// super-logarithmically.
const MAX_PEER_SCALING_SLOWDOWN: f64 = 2.0;

/// `lht-exp paper-scale`: runs the selected `(keys, peers)` cells,
/// prints the E21 table and writes its CSV.
pub fn cmd(p: &Parsed, out: &mut dyn Write) -> io::Result<i32> {
    let cells = cells(p);
    let seed = p.uint("--seed");
    let budget_secs = p.uint("--budget") as f64;

    let sweep_start = std::time::Instant::now();
    let mut runs = Vec::new();
    for &(keys, peers) in &cells {
        eprintln!("E21: {keys} keys over {peers} peers…");
        let r = run(keys, peers, seed);
        eprintln!(
            "  inserts {:.0}/s ({:.1}s seed + {:.1}s incremental), lookups {:.0}/s, \
             ranges {:.1}/s, peak RSS {} MB",
            r.inserts_per_sec,
            r.seed_secs,
            r.insert_secs,
            r.lookups_per_sec,
            r.range_qps,
            format_mb(r.peak_rss_mb)
        );
        runs.push(r);
    }
    let elapsed = sweep_start.elapsed().as_secs_f64();

    let per_key = |total: u64, r: &PaperScaleRun| format!("{:.2}", total as f64 / r.keys as f64);
    let table = Table::of(
        "E21 — paper-scale hot path (verified throughput, peak RSS)",
        &runs,
        &[
            ("keys", &|r| r.keys.to_string()),
            ("peers", &|r| r.peers.to_string()),
            ("inserts/s", &|r| format!("{:.0}", r.inserts_per_sec)),
            ("lookups/s", &|r| format!("{:.0}", r.lookups_per_sec)),
            ("range q/s", &|r| format!("{:.1}", r.range_qps)),
            ("range recs", &|r| r.range_records.to_string()),
            ("dht lookups/insert", &|r| per_key(r.insert_dht_lookups, r)),
            ("hops/insert", &|r| per_key(r.insert_hops, r)),
            ("peak RSS MB", &|r| format_mb(r.peak_rss_mb)),
        ],
    );
    table.emit(out, "e21_paper_scale")?;

    // Peer-scaling guard: wherever a keys scale ran at both 256 and
    // 1024 peers, the bigger ring must stay within the logarithmic
    // slowdown envelope.
    for r in &runs {
        if r.peers != 1024 {
            continue;
        }
        let Some(base) = runs.iter().find(|b| b.keys == r.keys && b.peers == 256) else {
            continue;
        };
        assert!(
            r.inserts_per_sec * MAX_PEER_SCALING_SLOWDOWN >= base.inserts_per_sec,
            "{} keys: 1024-peer inserts/s {:.0} fell below half the \
             256-peer figure {:.0}",
            r.keys,
            r.inserts_per_sec,
            base.inserts_per_sec
        );
    }

    if p.on("--smoke") {
        for r in &runs {
            assert!(
                r.inserts_per_sec >= SMOKE_MIN_INSERTS_PER_SEC,
                "smoke floor ({} peers): inserts/s {:.0} fell below \
                 {SMOKE_MIN_INSERTS_PER_SEC}",
                r.peers,
                r.inserts_per_sec
            );
            assert!(
                r.range_qps >= SMOKE_MIN_RANGE_QPS,
                "smoke floor ({} peers): range q/s {:.1} fell below \
                 {SMOKE_MIN_RANGE_QPS}",
                r.peers,
                r.range_qps
            );
        }
        eprintln!("smoke floors passed ({elapsed:.1}s)");
    } else {
        // The budget is the run's own claim that paper scale is
        // *reachable*, not merely that partial progress was made.
        assert!(
            elapsed <= budget_secs,
            "paper-scale sweep took {elapsed:.1}s, over the {:.0}s budget",
            budget_secs
        );
        eprintln!(
            "sweep completed in {elapsed:.1}s (budget {:.0}s)",
            budget_secs
        );
    }
    Ok(0)
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
        // 2^12 keys over 32 peers: every assertion in the pipeline
        // (value checks, cardinality checks, min/max) fires on this
        // path.
        let r = run(4096, 32, 11);
        assert_eq!(r.keys, 4096);
        assert_eq!(r.point_lookups, 1024);
        assert_eq!(r.range_queries, 256);
        assert!(r.inserts_per_sec > 0.0);
        assert!(r.range_records > 0);
    }
}
