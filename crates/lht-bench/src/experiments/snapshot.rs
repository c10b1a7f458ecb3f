//! Benchmark snapshot — a single JSON artifact (`BENCH_lht.json`)
//! capturing the repo's headline performance numbers so regressions
//! are visible in review diffs:
//!
//! * average DHT-lookups and routing hops per LHT lookup over a Chord
//!   ring (paper Fig. 8 territory),
//! * range-query bandwidth (lookups) vs wall-clock rounds with batched
//!   execution,
//! * raw SHA-1 throughput of the vendored implementation,
//! * naming-cache hit rate and SHA-1 compression saving on a repeated
//!   lookup workload (asserted >= 5x — the cache's contract),
//! * route-cache hops per DHT-lookup and hit rate on the E18 skewed
//!   range workload (the location cache's headline numbers),
//! * real checked throughput of one 8-peer Chord ring shared by
//!   4 concurrent client threads (E19 — the run only counts if its
//!   merged wall-clock history passes the linearizability checker),
//! * availability of the `{n=3, r=2, w=2}` quorum tier at 20% drop +
//!   churn (E20 — asserted strictly above the primary-owner baseline
//!   measured in the same run),
//! * availability and bytes-per-durable-key of the `{k=4, m=6}`
//!   erasure tier at the same sweep cell (E20 coded rows — asserted
//!   at least the primary baseline's availability while storing at
//!   most 0.6× the bytes of `{n=3}` replication of identical
//!   payloads),
//! * the E21 paper-scale headline: verified insert throughput and
//!   range-query rate of a one-client 2^16-key run over 256 Chord
//!   peers — and the same scale again over **1024** peers — plus each
//!   cell's own peak resident set (`VmHWM`, reset per cell; rendered
//!   as `"unsupported"` where the platform has no probe, never a fake
//!   zero a check could pass vacuously).
//!
//! A measuring run rewrites `BENCH_lht.json` (the one point `--check`
//! compares against) and appends the same fields, with the commit,
//! the CPU model and the SHA-1 backend (`"sha-ni"` / `"scalar"`) they
//! were measured on, as one line to `BENCH_history.jsonl` — the kept
//! trajectory: wall-clock numbers only compare between lines from one
//! machine, and hashing rates only between lines from one backend.
//!
//! `--check` re-measures and compares against the committed
//! `BENCH_lht.json`: the run fails if `chord_hops_per_lookup`,
//! `cached_hops_per_lookup`, `erasure_bytes_per_durable_key` or
//! `peak_rss_mb_1024_peers` regressed by more than their band (15%
//! for the hop/storage figures, 30% for the RSS high-water mark), or
//! if a throughput metric — where *lower* is worse, so the comparison
//! is inverted — fell below its committed floor: `ring_checked_ops_per_sec`,
//! `quorum_availability_at_20pct_drop` and
//! `erasure_availability_at_20pct_drop` by more than 15%,
//! `sha1_throughput_mb_s` by more than 25% (the hardware SHA path
//! shares a noisy core; a real regression to the scalar path is a
//! ~3x cliff, far past the band), and `paper_scale_inserts_per_sec` /
//! `paper_scale_peers_1024_inserts_per_sec` /
//! `paper_scale_range_qps` by more than 33%. A
//! platform without an RSS probe fails `--check` outright instead of
//! passing on a fake figure.

use std::io::{self, Write};
use std::path::Path;
use std::process::Command;
use std::time::Instant;

use lht::harness::args::{Flag, Parsed};
use lht::{
    ChordDht, Dht, DirectDht, KeyFraction, KeyInterval, Label, LeafBucket, LhtConfig, LhtIndex,
    NamingCache,
};

use super::{erasure, paper_scale, quorum, route_cache, threaded};
use crate::table::named;
use lht_id::{sha1, sha1_backend, sha1_compressions};
use lht_sim::checker::Outcome;

/// The flags of `lht-exp bench-snapshot`.
pub const FLAGS: &[Flag] = &[Flag::switch(
    "--check",
    "compare with BENCH_lht.json, write nothing",
)];

/// Indexed keys of the lookup, range and route-cache headlines.
const KEYS: usize = 4096;
/// Ring and workload seed of every headline.
const SEED: u64 = 23;

/// Lookup cost over a 32-node Chord ring: average DHT-lookups (gets)
/// and routing hops per exact-match query.
fn chord_lookup() -> (f64, f64) {
    let dht: ChordDht<LeafBucket<u32>> = ChordDht::with_nodes(32, SEED);
    let ix = LhtIndex::new(&dht, LhtConfig::new(8, 20)).expect("fresh index");
    let key = |i: usize| KeyFraction::from_f64((i as f64 + 0.5) / KEYS as f64);
    for i in 0..KEYS {
        ix.insert(key(i), i as u32).expect("chord insert");
    }
    dht.reset_stats();
    let mut gets = 0u64;
    let mut probes = 0u64;
    for i in (0..KEYS).step_by((KEYS / 256).max(1)) {
        gets += ix.lookup(key(i)).expect("lookup").cost.dht_lookups;
        probes += 1;
    }
    (gets as f64 / probes as f64, dht.stats().hops_per_lookup())
}

/// Range bandwidth vs batched rounds on a direct substrate.
fn range_rounds() -> (u64, u64, u64) {
    let dht: DirectDht<LeafBucket<u32>> = DirectDht::new();
    let ix = LhtIndex::new(&dht, LhtConfig::new(8, 20)).expect("fresh index");
    let key = |i: usize| KeyFraction::from_f64((i as f64 + 0.5) / KEYS as f64);
    for i in 0..KEYS {
        ix.insert(key(i), i as u32).expect("insert");
    }
    dht.reset_stats();
    let mut lookups = 0u64;
    let mut steps = 0u64;
    for i in 0..8 {
        let lo = i as f64 / 16.0;
        let q = KeyInterval::half_open(KeyFraction::from_f64(lo), KeyFraction::from_f64(lo + 0.25));
        let r = ix.range(q).expect("range");
        lookups += r.cost.dht_lookups;
        steps += r.cost.steps;
    }
    (lookups, steps, dht.stats().rounds)
}

/// Raw SHA-1 throughput in MB/s over a 64 KiB buffer: best of five
/// timing windows. On a shared core a single window is hostage to
/// scheduler noise; the max over repeats estimates what the digest
/// path can actually sustain, which is the number a regression check
/// can hold steady.
fn sha1_throughput() -> f64 {
    let buf = vec![0xabu8; 64 * 1024];
    let reps = 256u32;
    // Warm up, then time.
    let _ = sha1(&buf);
    let mut best = 0.0f64;
    for _ in 0..5 {
        let start = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(sha1(std::hint::black_box(&buf)));
        }
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        best = best.max((buf.len() as f64 * reps as f64) / secs / 1e6);
    }
    best
}

/// The E21 snapshot figures across both peer-count cells.
struct PaperHeadline {
    keys: usize,
    inserts_per_sec: f64,
    range_qps: f64,
    rss_mb: Option<f64>,
    inserts_per_sec_1024: f64,
    rss_mb_1024: Option<f64>,
}

/// E21 headline at snapshot scale: verified insert throughput and
/// range-query rate of a one-client run over 256 Chord peers — then
/// the same scale over 1024 peers — plus each cell's peak RSS (the
/// high-water mark is reset per cell inside the run). 2^16 keys is
/// enough tree depth to exercise the paper hot path while keeping the
/// snapshot fast.
fn paper_scale_headline() -> PaperHeadline {
    let keys = 1 << 16;
    let (inserts_per_sec, range_qps, rss_mb) = paper_scale::headline(keys, 256, SEED);
    eprintln!("measuring paper-scale headline over 1024 peers…");
    let r1024 = paper_scale::run(keys, 1024, SEED);
    PaperHeadline {
        keys,
        inserts_per_sec,
        range_qps,
        rss_mb,
        inserts_per_sec_1024: r1024.inserts_per_sec,
        rss_mb_1024: r1024.peak_rss_mb,
    }
}

/// Naming-cache behaviour on a repeated-lookup workload: hit rate and
/// the SHA-1 compression saving factor (asserted >= 5x).
fn naming_cache_saving() -> (f64, f64) {
    let labels: Vec<Label> = (0..64)
        .map(|i| format!("#0{:010b}", i).parse().unwrap())
        .collect();
    let reps = 100u64;

    let before = sha1_compressions();
    for _ in 0..reps {
        for l in &labels {
            std::hint::black_box(l.dht_key().hash());
        }
    }
    let uncached = sha1_compressions() - before;

    let cache = NamingCache::new(1024);
    let before = sha1_compressions();
    for _ in 0..reps {
        for l in &labels {
            std::hint::black_box(cache.resolve(l).hash());
        }
    }
    let cached = sha1_compressions() - before;

    let saving = uncached as f64 / cached.max(1) as f64;
    assert!(
        cached * 5 <= uncached,
        "naming cache must save >= 5x SHA-1 compressions \
         (cached {cached} vs uncached {uncached})"
    );
    (cache.stats().hit_rate(), saving)
}

/// Real checked throughput of 4 client threads over one 8-peer ring:
/// best of three short runs (wall-clock numbers are noisy; the max
/// over repeats is the stable estimate of what the machine can do).
/// Every counted run must produce a linearizable point-op history.
fn ring_checked_throughput() -> f64 {
    let mut best = 0.0f64;
    for rep in 0..3u64 {
        let run = threaded::run(4, 500, 8, SEED.wrapping_add(rep));
        assert_eq!(
            run.outcome,
            Outcome::Linearizable,
            "throughput run {rep} produced a non-linearizable history: {:?}",
            run.outcome
        );
        best = best.max(run.ops_per_sec);
    }
    best
}

/// E20 headline: availability of the `{n=3, r=2, w=2}` quorum tier at
/// the harshest sweep cell (20% drop + churn), asserted strictly above
/// the primary-owner baseline measured under the identical fault and
/// workload schedule — the replication tier must actually buy
/// availability, not just bandwidth.
fn quorum_availability() -> f64 {
    let (quorum, primary) = quorum::headline(2_000, 16, SEED);
    assert!(
        quorum > primary,
        "quorum(3,2,2) availability {quorum:.4} must be strictly above \
         the primary-owner baseline {primary:.4} at 20% drop + churn"
    );
    quorum
}

/// E20 coded headline: availability and bytes-per-durable-key of the
/// `{k=4, m=6}` erasure tier at the same harshest sweep cell, asserted
/// against both baselines measured under the identical fault and
/// workload schedule: no worse than the primary owner on
/// availability, and at most 0.6× the resident bytes of `{n=3}`
/// replication of the same 512-byte payloads — durability priced
/// below replication on the storage axis without giving the masking
/// back.
fn erasure_headline() -> (f64, f64) {
    let h = erasure::headline(2_000, 16, SEED);
    assert!(
        h.coded_availability >= h.primary_availability,
        "erasure(4,6) availability {:.4} must not fall below the \
         primary-owner baseline {:.4} at 20% drop + churn",
        h.coded_availability,
        h.primary_availability
    );
    assert!(
        h.replicated_bytes_per_key > 0.0
            && h.coded_bytes_per_key <= 0.6 * h.replicated_bytes_per_key,
        "erasure(4,6) must store at most 0.6x the bytes of n=3 \
         replication ({:.0} coded vs {:.0} replicated per durable key)",
        h.coded_bytes_per_key,
        h.replicated_bytes_per_key
    );
    (h.coded_availability, h.coded_bytes_per_key)
}

/// Renders an optional peak-RSS figure as a JSON value: a number
/// where measured, the string `"unsupported"` where the platform has
/// no probe — never a fake `0.0` a `--check` floor could pass on.
fn json_mb(mb: Option<f64>) -> String {
    match mb {
        Some(mb) => format!("{mb:.1}"),
        None => "\"unsupported\"".to_string(),
    }
}

/// Reads one numeric field out of the committed `BENCH_lht.json`.
/// The file is written by this command line-by-line, so a plain string
/// scan is exact (the vendored serde shim has no JSON parser).
fn committed_field(json: &str, field: &str) -> Option<f64> {
    let tag = format!("\"{field}\":");
    json.lines().find_map(|line| {
        let rest = line.trim().strip_prefix(&tag)?;
        rest.trim().trim_end_matches(',').parse().ok()
    })
}

/// `--check`: compare freshly measured hop costs against the
/// committed snapshot; more than 15% worse is a regression. Hop
/// metrics regress *upward*; throughput metrics regress *downward*,
/// so their comparisons are inverted, with per-metric tolerance bands
/// sized to each measurement's noise on a shared core.
fn check_regressions(
    fresh_chord: f64,
    fresh_cached: f64,
    fresh_ring_checked: f64,
    fresh_quorum: f64,
    fresh_erasure: (f64, f64),
    fresh_sha1: f64,
    paper: &PaperHeadline,
) -> Result<(), String> {
    let json = std::fs::read_to_string("BENCH_lht.json")
        .map_err(|e| format!("cannot read committed BENCH_lht.json: {e}"))?;
    // The RSS ceiling is only meaningful where the probe works; a
    // platform without one must fail the check loudly rather than
    // sail under a ceiling it never measured.
    let fresh_rss_1024 = paper.rss_mb_1024.ok_or_else(|| {
        "peak-RSS probe unsupported on this platform; \
         peak_rss_mb_1024_peers cannot be checked"
            .to_string()
    })?;
    for (field, fresh, band) in [
        ("chord_hops_per_lookup", fresh_chord, 1.15),
        ("cached_hops_per_lookup", fresh_cached, 1.15),
        ("erasure_bytes_per_durable_key", fresh_erasure.1, 1.15),
        ("peak_rss_mb_1024_peers", fresh_rss_1024, 1.3),
    ] {
        let committed = committed_field(&json, field)
            .ok_or_else(|| format!("committed BENCH_lht.json lacks {field:?}"))?;
        if fresh > committed * band {
            return Err(format!(
                "{field} regressed: {fresh:.3} measured vs {committed:.3} \
                 committed (over the {band:.2}x ceiling)"
            ));
        }
        eprintln!("check {field}: {fresh:.3} vs committed {committed:.3} — ok");
    }
    // Inverted (lower-is-worse) floors. The wall-clock metrics get
    // wider bands than the hop counts: sha1 is a tight loop but runs
    // on a contended core (25%), and the paper-scale insert rate
    // spans seconds of mixed index work (33%). Real failure modes —
    // the hardware digest path silently disabled (~3x), an
    // accidental per-op allocation storm — blow far past either band.
    for (field, fresh, band, digits) in [
        ("ring_checked_ops_per_sec", fresh_ring_checked, 1.15, 0usize),
        ("quorum_availability_at_20pct_drop", fresh_quorum, 1.15, 4),
        (
            "erasure_availability_at_20pct_drop",
            fresh_erasure.0,
            1.15,
            4,
        ),
        ("sha1_throughput_mb_s", fresh_sha1, 1.25, 1),
        ("paper_scale_inserts_per_sec", paper.inserts_per_sec, 1.5, 0),
        (
            "paper_scale_peers_1024_inserts_per_sec",
            paper.inserts_per_sec_1024,
            1.5,
            0,
        ),
        ("paper_scale_range_qps", paper.range_qps, 1.5, 1),
    ] {
        let committed = committed_field(&json, field)
            .ok_or_else(|| format!("committed BENCH_lht.json lacks {field:?}"))?;
        if fresh < committed / band {
            return Err(format!(
                "{field} regressed: {fresh:.digits$} measured vs {committed:.digits$} \
                 committed (below the 1/{band:.2} floor)"
            ));
        }
        eprintln!("check {field}: {fresh:.digits$} vs committed {committed:.digits$} — ok");
    }
    Ok(())
}

/// Where a history line was measured: the checked-out commit (with
/// `-dirty` when tracked files differ from it, as they do while the
/// change that will become the next commit is being measured) and the
/// CPU model. `"unknown"` where git or `/proc/cpuinfo` is missing.
fn provenance() -> (String, String) {
    let commit = Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=40"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string());
    let cpu = std::fs::read_to_string("/proc/cpuinfo").ok().and_then(|s| {
        let model = s.lines().find_map(|l| l.strip_prefix("model name"))?;
        Some(model.trim_start_matches([' ', '\t', ':']).to_string())
    });
    let or_unknown = |s: Option<String>| s.unwrap_or_else(|| "unknown".into());
    (or_unknown(commit), or_unknown(cpu))
}

/// `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// `lht-exp bench-snapshot`: measures every headline; `--check`
/// compares them against the committed `BENCH_lht.json` (exit 1 on a
/// regression), otherwise the run rewrites the snapshot and appends
/// to the history.
pub fn cmd(p: &Parsed, out: &mut dyn Write) -> io::Result<i32> {
    eprintln!("measuring chord lookup cost ({} keys)…", KEYS);
    let (gets_per_lookup, hops_per_lookup) = chord_lookup();
    eprintln!("measuring range rounds…");
    let (range_lookups, range_steps, range_rounds) = range_rounds();
    eprintln!("measuring sha1 throughput ({})…", sha1_backend());
    let throughput = sha1_throughput();
    eprintln!("measuring naming cache…");
    let (hit_rate, saving) = naming_cache_saving();
    eprintln!("measuring route cache…");
    let (cached_hops, route_hit_rate) = route_cache::headline(KEYS, 256, SEED);
    eprintln!("measuring ring throughput under 4 client threads (checked)…");
    let ring_checked_ops = ring_checked_throughput();
    eprintln!("measuring quorum availability at 20% drop + churn…");
    let quorum_avail = quorum_availability();
    eprintln!("measuring erasure availability and storage at 20% drop + churn…");
    let (erasure_avail, erasure_bytes) = erasure_headline();
    eprintln!("measuring paper-scale headline (one-client verified run)…");
    let paper = paper_scale_headline();

    if p.on("--check") {
        if let Err(e) = check_regressions(
            hops_per_lookup,
            cached_hops,
            ring_checked_ops,
            quorum_avail,
            (erasure_avail, erasure_bytes),
            throughput,
            &paper,
        ) {
            eprintln!("regression check failed: {e}");
            return Ok(1);
        }
        eprintln!("regression check passed");
        return Ok(0);
    }

    // The index-level step accounting and the substrate's round
    // accounting must agree on a loss-free direct substrate.
    assert!(
        range_rounds <= range_steps,
        "substrate rounds {range_rounds} exceed index steps {range_steps}"
    );

    // Every field once, rendered as it is printed: `BENCH_lht.json`
    // gets them one to a line (`committed_field` scans lines), the
    // history gets them on one line behind their provenance.
    let fields: Vec<(&str, String)> = vec![
        ("keys", KEYS.to_string()),
        // Kept so the snapshot and history lines keep one shape; the
        // shrunk mode that set it is gone.
        ("smoke", "false".to_string()),
        ("lookup_gets_avg", format!("{gets_per_lookup:.3}")),
        ("chord_hops_per_lookup", format!("{hops_per_lookup:.3}")),
        ("range_dht_lookups", range_lookups.to_string()),
        ("range_steps", range_steps.to_string()),
        ("range_rounds", range_rounds.to_string()),
        ("sha1_throughput_mb_s", format!("{throughput:.1}")),
        ("naming_cache_hit_rate", format!("{hit_rate:.4}")),
        ("naming_cache_sha1_saving_x", format!("{saving:.1}")),
        ("cached_hops_per_lookup", format!("{cached_hops:.3}")),
        ("route_cache_hit_rate", format!("{route_hit_rate:.4}")),
        ("ring_checked_ops_per_sec", format!("{ring_checked_ops:.0}")),
        (
            "quorum_availability_at_20pct_drop",
            format!("{quorum_avail:.4}"),
        ),
        (
            "erasure_availability_at_20pct_drop",
            format!("{erasure_avail:.4}"),
        ),
        (
            "erasure_bytes_per_durable_key",
            format!("{erasure_bytes:.1}"),
        ),
        ("paper_scale_keys", paper.keys.to_string()),
        (
            "paper_scale_inserts_per_sec",
            format!("{:.0}", paper.inserts_per_sec),
        ),
        (
            "paper_scale_peers_1024_inserts_per_sec",
            format!("{:.0}", paper.inserts_per_sec_1024),
        ),
        ("paper_scale_range_qps", format!("{:.1}", paper.range_qps)),
        ("peak_rss_mb", json_mb(paper.rss_mb)),
        ("peak_rss_mb_1024_peers", json_mb(paper.rss_mb_1024)),
    ];
    let render = |sep: &str, indent: &str| {
        let lines: Vec<String> = fields
            .iter()
            .map(|(name, value)| format!("{indent}\"{name}\": {value}"))
            .collect();
        lines.join(sep)
    };

    // Described before this run's own write can make the tree dirty.
    let (commit, cpu) = provenance();

    let json = format!("{{\n{}\n}}\n", render(",\n", "  "));
    write!(out, "{json}")?;
    let snapshot = Path::new("BENCH_lht.json");
    std::fs::write(snapshot, &json).map_err(named(snapshot))?;
    eprintln!("wrote BENCH_lht.json");

    let line = format!(
        "{{\"commit\": {}, \"cpu\": {}, \"sha1_backend\": {}, {}}}\n",
        json_str(&commit),
        json_str(&cpu),
        json_str(sha1_backend()),
        render(", ", "")
    );
    let history = Path::new("BENCH_history.jsonl");
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(history)
        .and_then(|mut f| f.write_all(line.as_bytes()))
        .map_err(named(history))?;
    eprintln!("appended to BENCH_history.jsonl");
    Ok(0)
}
