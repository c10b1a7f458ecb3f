//! The repo's benchmark: four long-run workloads over the LHT stack,
//! each measured end to end (untraced passes) and layer by layer (one
//! traced pass plus microbenchmarks). See `benchmark/README.md`.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <grow|query|lossy_quorum|lossy_erasure> --seed <n> \
//!     [--seconds <s>] [--trace <0|1>]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --all --seed <n>
//! ```
//!
//! All load is a closed loop from this one process: one client, and in
//! the traced run of `grow` and `query` also two; `_c1` / `_c2` in a
//! metric name is the client count.

mod drive;
mod grow;
mod hist;
mod inputs;
mod lossy;
mod micro;
mod query;
mod report;
mod span;

use std::io::Write;
use std::process::Command;

use drive::{median, Counts, PassOut, Phase, Tally};
use report::{result_line, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use span::{Kind, Layer, Plain, Tracer, Wrap, LAYERS};

/// One benchmark workload: seeded inputs, the 1-client pass a run
/// repeats (and can trace), and a 2-client pass for the traced run.
pub trait Workload {
    type Inputs;
    const NAME: &'static str;
    /// Identical 1-client passes an untraced run of `RUN_SECONDS`
    /// makes: sized so that it takes about that long at the seed
    /// commit, and fixed, so that the statistic a run reports never
    /// depends on how fast the code under test is.
    const PASSES: usize;
    /// The layers below the index, top to bottom.
    const STACK: &'static [Layer];
    /// Everything a pass needs, from the seed alone, before any timing.
    fn inputs(seed: u64) -> Self::Inputs;
    /// Set-up, the timed main phase with one client, verification and
    /// the timed range phase; when `half`, half of the main phase's ops
    /// and no range phase.
    fn pass<W: Wrap>(w: W, inp: &Self::Inputs, half: bool) -> PassOut;
    /// The same main phase and range phase dealt out to two clients on
    /// one ring; `None` where a client's stack cannot be shared.
    fn pass_c2(inp: &Self::Inputs) -> Option<PassOut>;
}

struct Args {
    workload: Option<String>,
    all: bool,
    print_manifest: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: lht-benchmark --workload <{}> --seed <n> [--seconds <s>] [--trace <0|1>]\n\
         \x20      lht-benchmark --all --seed <n> [--seconds <s>]\n\
         \x20      lht-benchmark --print-manifest",
        WORKLOADS.map(|(n, _)| n).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        all: false,
        print_manifest: false,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs {what}")))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")),
            "--seed" => {
                args.seed = value("an unsigned integer")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed needs an unsigned integer"))
            }
            "--seconds" => {
                args.seconds = value("a number of seconds")
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage("--seconds needs a positive number"))
            }
            "--trace" => {
                args.trace = match value("0 or 1").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace needs 0 or 1"),
                }
            }
            "--all" => args.all = true,
            "--print-manifest" => args.print_manifest = true,
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    args
}

/// `VmHWM` of this process in megabytes.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status (Linux)");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("a VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Where traces go: `benchmark/out/`, next to this package's manifest.
fn out_dir() -> std::path::PathBuf {
    let manifest_dir =
        std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").into());
    std::path::Path::new(&manifest_dir).join("out")
}

/// The passes a run of `seconds` makes: `L::PASSES` at `RUN_SECONDS`,
/// in proportion otherwise, at least one.
fn passes_for<L: Workload>(seconds: f64) -> usize {
    let scaled = L::PASSES as f64 * seconds / RUN_SECONDS as f64;
    (scaled.round() as usize).max(1)
}

/// Twin half passes (untraced, then traced) of a traced run.
const TWINS: usize = 3;

/// 2-client passes of a traced run.
const C2_PASSES: usize = 3;

/// The outcome of the untraced 1-client passes of one run.
struct Measured {
    passes: Vec<PassOut>,
    rss_mb: f64,
    counts: Counts,
    /// The counters came out identical in every pass.
    exact: bool,
    tally: Tally,
}

/// Ops per second of a 1-client phase that every pass ran identically:
/// in its fastest pass, the time of one whole execution.
///
/// With one client the passes do the same work to the instruction, so
/// what separates their times is what else the shared host was doing,
/// and that only ever adds time: the fastest pass is the least
/// disturbed one. A median needs most passes of a run undisturbed, the
/// best needs one. The number of passes is fixed, so the best of them
/// does not get better when the code under test gets faster.
fn best_per_s<'a>(runs: impl IntoIterator<Item = &'a Phase>) -> f64 {
    let fastest = runs
        .into_iter()
        .min_by_key(|p| p.ns)
        .expect("a run makes at least one pass");
    fastest.ops as f64 / fastest.secs()
}

/// Ops per second of a 2-client phase, at the median of its passes; 0
/// where the workload has none.
///
/// Two clients on one ring wait for each other at its lock, and a
/// client the host holds up lets the other run uncontended: a disturbed
/// pass can end *sooner* than a quiet one, so the fastest pass is not
/// the least disturbed one.
fn median_per_s<'a>(runs: impl IntoIterator<Item = &'a Phase>) -> f64 {
    let runs: Vec<&Phase> = runs.into_iter().collect();
    match runs.first() {
        Some(first) => first.ops as f64 / median(runs.iter().map(|p| p.secs()).collect()),
        None => 0.0,
    }
}

fn measure<L: Workload>(inp: &L::Inputs, passes: usize) -> Measured {
    let mut rss_mb = 0.0;
    let passes: Vec<PassOut> = (0..passes)
        .map(|n| {
            let pass = L::pass(Plain, inp, false);
            if n == 0 {
                // Later passes re-run the same work in recycled memory;
                // the first one's high-water mark is the workload's.
                rss_mb = peak_rss_mb();
            }
            pass
        })
        .collect();
    let counts = passes[0].counts.expect("a 1-client pass counts exactly");
    let exact = passes.iter().all(|p| p.counts == Some(counts));
    let mut tally = Tally::new();
    for p in &passes {
        tally.merge(&p.tally);
    }
    Measured {
        passes,
        rss_mb,
        counts,
        exact,
        tally,
    }
}

impl Measured {
    fn c1_per_s(&self) -> f64 {
        best_per_s(self.passes.iter().map(|p| &p.main))
    }

    fn end_to_end(&self) -> Vec<(&'static str, f64)> {
        let c = &self.counts;
        let per_op = |n: u64| n as f64 / c.ops as f64;
        vec![
            // The fastest set-up of the run, for the reason the rates
            // are read off the fastest pass.
            (
                "setup_s",
                self.passes
                    .iter()
                    .map(|p| p.setup_s)
                    .fold(f64::INFINITY, f64::min),
            ),
            ("ops_per_s_c1", self.c1_per_s()),
            (
                "ranges_per_s_c1",
                best_per_s(self.passes.iter().map(|p| &p.ranges)),
            ),
            ("dht_lookups_per_op", per_op(c.dht_lookups)),
            ("hops_per_op", per_op(c.hops)),
            (
                "stored_bytes_per_user_byte",
                c.stored_bytes as f64 / (c.live_records * drive::RECORD_BYTES) as f64,
            ),
            ("peak_rss_mb", self.rss_mb),
        ]
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The traced pass's three cross-checks; returns what failed.
fn cross_checks<L: Workload>(t: &Tracer, traced: &PassOut) -> Vec<String> {
    let mut failed = Vec::new();
    let mut upper = Layer::Index;
    for lower in L::STACK {
        let (out, into) = (t.calls_out(upper), t.calls_in(*lower));
        if out != into {
            failed.push(format!(
                "calls_out({}) = {out} but calls_in({}) = {into}",
                upper.name(),
                lower.name()
            ));
        }
        upper = *lower;
    }
    let (served, counted) = (t.served_in(Layer::Chord), traced.layers.ring.lookups());
    if served != counted {
        failed.push(format!(
            "chord served {served} calls at its boundary but its own stats count {counted} lookups"
        ));
    }
    let self_sum: u64 = LAYERS.iter().map(|l| t.self_ns(*l)).sum();
    if self_sum != t.root_ns() {
        failed.push(format!(
            "self times sum to {self_sum} ns, root spans to {} ns",
            t.root_ns()
        ));
    }
    let outside = (traced.layers.op_ns + traced.layers.maintenance_ns) as f64;
    if (outside - self_sum as f64).abs() > 0.02 * outside {
        failed.push(format!(
            "self times sum to {self_sum} ns, ops timed from outside to {outside} ns (> 2 % apart)"
        ));
    }
    failed
}

/// Every per-layer metric, from the traced pass `traced` (tracer `t`),
/// the tracing overhead, the untraced 1-client passes `m`, the
/// 2-client passes `c2` and the microbenchmarks.
fn per_layer(
    t: &Tracer,
    traced: &PassOut,
    overhead_share: f64,
    m: &Measured,
    c2: &[PassOut],
    micro: &micro::Micro,
) -> Vec<(&'static str, f64)> {
    let l = &traced.layers;
    let counts = traced.counts.expect("a 1-client pass counts exactly");
    let ops = l.ops as f64;
    let per_op = |n: u64| n as f64 / ops;
    let us_per_op = |ns: u64| ns as f64 / 1e3 / ops;
    let us = |ns: u64| ns as f64 / 1e3;
    let span_us = |layer: Layer, kind: Kind, per_span: u64| {
        let a = t.agg(layer, kind);
        if a.spans == 0 {
            0.0
        } else {
            us(a.total_ns) / (a.spans * per_span) as f64
        }
    };
    let tl = &m.tally;
    let c2_per_s = median_per_s(c2.iter().map(|p| &p.main));
    let cache_lookups = l.top.cache_hits + l.top.cache_misses + l.top.cache_stale;
    let tier_metrics = |layer: Layer| {
        // A workload has at most one durability tier; the other one's
        // metrics read 0.
        let here = t.calls_in(layer) > 0;
        let pick = |v: f64| if here { v } else { 0.0 };
        [
            per_op(t.calls_in(layer)),
            per_op(t.calls_out(layer)),
            us_per_op(t.self_ns(layer)),
            pick(per_op(l.tier.repair_transfers)),
            span_us(layer, Kind::AntiEntropy, 1),
            pick(l.pending_handoffs as f64),
        ]
    };
    let [q_in, q_out, q_self, q_repair, q_ae, q_pending] = tier_metrics(Layer::Quorum);
    let [e_in, e_out, e_self, e_repair, e_ae, e_pending] = tier_metrics(Layer::Erasure);
    vec![
        ("index.self_us_per_op", us_per_op(t.self_ns(Layer::Index))),
        (
            "index.splits_per_insert",
            ratio(l.index.splits, l.index.inserts),
        ),
        (
            "index.records_moved_per_insert",
            ratio(l.index.records_moved, l.index.inserts),
        ),
        (
            "index.merges_per_remove",
            ratio(l.index.merges, l.index.removes),
        ),
        (
            "index.buckets_per_range",
            ratio(tl.buckets_visited, tl.ranges),
        ),
        ("index.insert_p50_us", us(tl.insert.quantile(0.50))),
        ("index.insert_p99_us", us(tl.insert.quantile(0.99))),
        ("index.lookup_p50_us", us(tl.lookup.quantile(0.50))),
        ("index.lookup_p99_us", us(tl.lookup.quantile(0.99))),
        ("index.range_p50_us", us(tl.range.quantile(0.50))),
        ("index.range_p99_us", us(tl.range.quantile(0.99))),
        ("index.insert_samples", tl.insert.samples() as f64),
        ("index.lookup_samples", tl.lookup.samples() as f64),
        ("index.range_samples", tl.range.samples() as f64),
        ("index.failed_ops_share", ratio(tl.failed, tl.attempted)),
        (
            "bucket.closure_us_per_op",
            us_per_op(t.self_ns(Layer::Bucket)),
        ),
        (
            "bucket.records_per_leaf",
            ratio(counts.live_records, counts.leaves),
        ),
        ("naming.hit_rate", l.naming.hit_rate()),
        ("naming.misses_per_op", per_op(l.naming.misses)),
        ("naming.evictions_per_op", per_op(l.naming.evictions)),
        ("naming.resolve_hit_ns", micro.resolve_hit_ns),
        ("naming.resolve_miss_ns", micro.resolve_miss_ns),
        ("id.sha1_compressions_per_op", per_op(l.sha1_compressions)),
        ("id.sha1_ns_per_label", micro.sha1_ns_per_label),
        ("id.sha1_mb_s", micro.sha1_mb_s),
        ("cache.calls_in_per_op", per_op(t.calls_in(Layer::Cache))),
        ("cache.calls_out_per_op", per_op(t.calls_out(Layer::Cache))),
        ("cache.self_us_per_op", us_per_op(t.self_ns(Layer::Cache))),
        ("cache.hit_rate", ratio(l.top.cache_hits, cache_lookups)),
        ("cache.stale_per_op", per_op(l.top.cache_stale)),
        ("cache.hops_saved_per_op", per_op(l.top.hops_saved)),
        ("retry.calls_in_per_op", per_op(t.calls_in(Layer::Retry))),
        ("retry.calls_out_per_op", per_op(t.calls_out(Layer::Retry))),
        ("retry.self_us_per_op", us_per_op(t.self_ns(Layer::Retry))),
        ("retry.retries_per_op", per_op(l.top.retries)),
        ("fault.calls_in_per_op", per_op(t.calls_in(Layer::Fault))),
        ("fault.calls_out_per_op", per_op(t.calls_out(Layer::Fault))),
        ("fault.self_us_per_op", us_per_op(t.self_ns(Layer::Fault))),
        ("fault.drops_per_op", per_op(l.top.drops)),
        ("fault.timeouts_per_op", per_op(l.top.timeouts)),
        (
            "fault.sim_latency_ms_per_op",
            per_op(l.top.round_latency_ms),
        ),
        ("quorum.calls_in_per_op", q_in),
        ("quorum.calls_out_per_op", q_out),
        ("quorum.self_us_per_op", q_self),
        ("quorum.repair_transfers_per_op", q_repair),
        ("quorum.anti_entropy_us_per_step", q_ae),
        ("quorum.pending_handoffs_end", q_pending),
        ("erasure.calls_in_per_op", e_in),
        ("erasure.calls_out_per_op", e_out),
        ("erasure.self_us_per_op", e_self),
        ("erasure.repair_transfers_per_op", e_repair),
        ("erasure.anti_entropy_us_per_step", e_ae),
        ("erasure.pending_handoffs_end", e_pending),
        ("gf256.encode_mb_s", micro.gf256_encode_mb_s),
        ("gf256.reconstruct_mb_s", micro.gf256_reconstruct_mb_s),
        ("chord.calls_in_per_op", per_op(t.calls_in(Layer::Chord))),
        ("chord.self_us_per_op", us_per_op(t.self_ns(Layer::Chord))),
        ("chord.hops_per_call", ratio(l.ring.hops, l.ring.lookups())),
        // One stabilize span is the two rounds of `stabilize(2)`.
        (
            "chord.stabilize_us_per_round",
            span_us(Layer::Chord, Kind::Stabilize, 2),
        ),
        (
            "chord.churn_us_per_event",
            span_us(Layer::Chord, Kind::Churn, 1),
        ),
        (
            "chord.keys_transferred_per_churn",
            ratio(l.ring.keys_transferred, l.churn_events),
        ),
        ("chord.ops_per_s_c2", c2_per_s),
        (
            "chord.ranges_per_s_c2",
            median_per_s(c2.iter().map(|p| &p.ranges)),
        ),
        (
            "chord.scaling_efficiency_c2",
            c2_per_s / (2.0 * m.c1_per_s()),
        ),
        ("store.get_ns", micro.store_get_ns),
        ("store.put_ns", micro.store_put_ns),
        ("store.load_max_over_mean", l.load_max_over_mean),
        ("trace.overhead_share", overhead_share),
    ]
}

/// Prints the result line; a run that is not correct exits with 1.
fn finish(correct: bool, tally: &Tally, table: &[report::Metric], values: &[(&'static str, f64)]) {
    let (line, correct) = result_line(correct, tally.attempted, tally.failed, table, values);
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}

/// Runs one workload and prints the result line.
fn run<L: Workload>(args: &Args) {
    let inp = L::inputs(args.seed);
    let passes = passes_for::<L>(args.seconds);

    if !args.trace {
        let m = measure::<L>(&inp, passes);
        if !m.exact {
            eprintln!("{}: the 1-client counters did not repeat exactly", L::NAME);
        }
        finish(
            m.tally.failed == 0 && m.exact,
            &m.tally,
            &END_TO_END,
            &m.end_to_end(),
        );
        return;
    }

    // Half the passes untraced (latency histograms), the 2-client
    // passes (client scaling), then twin half passes — untraced, then
    // traced, on the same inputs — and the microbenchmarks.
    let m = measure::<L>(&inp, passes.div_ceil(2));
    let c2: Vec<PassOut> = (0..C2_PASSES).map_while(|_| L::pass_c2(&inp)).collect();
    let mut twins: Vec<(PassOut, PassOut, Tracer)> = (0..TWINS)
        .map(|_| {
            let base = L::pass(Plain, &inp, true);
            let tracer = Tracer::new();
            let traced = L::pass(&tracer, &inp, true);
            (base, traced, tracer)
        })
        .collect();
    let overhead_share = 1.0
        - best_per_s(twins.iter().map(|(_, traced, _)| &traced.main))
            / best_per_s(twins.iter().map(|(base, _, _)| &base.main));
    let twins_exact = twins
        .iter()
        .all(|(base, traced, _)| base.counts == twins[0].0.counts && traced.counts == base.counts);
    let mut tally = Tally::new();
    tally.merge(&m.tally);
    for pass in &c2 {
        tally.merge(&pass.tally);
    }
    for (base, traced, _) in &twins {
        tally.merge(&base.tally);
        tally.merge(&traced.tally);
    }
    // The layer profile is read off the fastest traced pass, as the
    // rates are.
    let fastest = (0..TWINS)
        .min_by_key(|i| twins[*i].1.main.ns)
        .expect("TWINS > 0");
    let (_, traced, tracer) = twins.swap_remove(fastest);
    let failed_checks = cross_checks::<L>(&tracer, &traced);
    for f in &failed_checks {
        eprintln!("{}: cross-check failed: {f}", L::NAME);
    }
    let leaves = traced.counts.map_or(2, |c| c.leaves.max(2));
    let depth = (leaves as f64).log2().ceil() as usize + 1;
    let micro = micro::run(depth);

    let dir = out_dir();
    let path = dir.join(format!("trace_{}.jsonl", L::NAME));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            tracer.write_jsonl(&mut w)?;
            w.flush()
        });
    if let Err(e) = &written {
        eprintln!("{}: could not write {}: {e}", L::NAME, path.display());
    }

    finish(
        tally.failed == 0 && m.exact && twins_exact && failed_checks.is_empty() && written.is_ok(),
        &tally,
        &PER_LAYER,
        &per_layer(&tracer, &traced, overhead_share, &m, &c2, &micro),
    );
}

fn dispatch(name: &str, args: &Args) {
    match name {
        "grow" => run::<grow::Grow>(args),
        "query" => run::<query::Query>(args),
        "lossy_quorum" => run::<lossy::Lossy<lossy::Quorum>>(args),
        "lossy_erasure" => run::<lossy::Lossy<lossy::Erasure>>(args),
        other => usage(&format!("unknown workload {other:?}")),
    }
}

fn first_line_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    Some(
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()?
            .trim()
            .to_string(),
    )
}

/// Runs every workload, untraced and traced, each in its own process,
/// and prints one JSON object: a header that makes two result files
/// comparable, then the result lines.
fn run_all(args: &Args) {
    let exe = std::env::current_exe().expect("path of this executable");
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|m| m.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let commit = first_line_of(Command::new("git").args(["rev-parse", "HEAD"]))
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut results = Vec::new();
    for (name, _) in WORKLOADS {
        let mut lines = Vec::new();
        for trace in ["0", "1"] {
            let out = Command::new(&exe)
                .args(["--workload", name, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .stderr(std::process::Stdio::inherit())
                .output()
                .expect("spawn a workload process");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let line = stdout.lines().last().unwrap_or("").to_string();
            // A run that was not correct exits with 1 too.
            if !out.status.success() || !line.starts_with('{') {
                eprintln!("{name} --trace {trace} failed ({}): {line}", out.status);
                std::process::exit(1);
            }
            lines.push(line);
        }
        results.push(format!(
            "    \"{name}\": {{\n      \"end_to_end\": {},\n      \"per_layer\": {}\n    }}",
            lines[0], lines[1]
        ));
    }
    println!(
        "{{\n  \"commit\": \"{commit}\",\n  \"nproc\": {nproc},\n  \"cpu\": \"{cpu}\",\n  \
         \"seed\": {},\n  \"seconds\": {},\n  \"sizes\": {},\n  \"results\": {{\n{}\n  }}\n}}",
        args.seed,
        args.seconds,
        sizes_json(),
        results.join(",\n")
    );
}

/// The fixed workload sizes, recorded with every `--all` result.
fn sizes_json() -> String {
    format!(
        "{{\"passes_at_{RUN_SECONDS}_s\": {{\"grow\": {}, \"query\": {}, \"lossy_quorum\": {}, \
         \"lossy_erasure\": {}}}, \
         \"grow\": {{\"peers\": {}, \"presplit\": {}, \"inserts\": {}, \"ranges\": {}}}, \
         \"query\": {{\"peers\": {}, \"keys\": {}, \"warm_up\": {}, \"lookups\": {}, \
         \"drifts\": {}, \"ranges\": {}}}, \
         \"lossy\": {{\"peers\": {}, \"preload\": {}, \"ops\": {}, \"ranges\": {}, \
         \"churn_every\": {}}}}}",
        grow::Grow::PASSES,
        query::Query::PASSES,
        lossy::Lossy::<lossy::Quorum>::PASSES,
        lossy::Lossy::<lossy::Erasure>::PASSES,
        grow::PEERS,
        grow::PRESPLIT,
        grow::KEYS,
        grow::RANGES,
        query::PEERS,
        query::KEYS,
        query::WARM_UP,
        query::LOOKUPS,
        query::DRIFTS,
        query::RANGES,
        lossy::PEERS,
        lossy::PRELOAD,
        lossy::OPS,
        lossy::RANGES,
        inputs::CHURN_EVERY,
    )
}

fn main() {
    let args = parse_args();
    if args.print_manifest {
        print!("{}", report::manifest());
        return;
    }
    // Closed-loop load from 2 client threads: refuse a box that cannot
    // run them side by side.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 2 {
        eprintln!(
            "error: the benchmark drives 2 client threads and this machine offers {cores} core"
        );
        std::process::exit(3);
    }
    match (&args.workload, args.all) {
        (Some(name), false) => {
            if !drive::pin_to_cpu(0) {
                eprintln!("error: could not pin client 0 to the first CPU");
                std::process::exit(3);
            }
            dispatch(name, &args)
        }
        (None, true) => run_all(&args),
        _ => usage("give exactly one of --workload <name> and --all"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_rate_is_read_off_the_fastest_pass() {
        let pass = |ns| Phase { ops: 1_000, ns };
        let passes = [pass(5_000_000), pass(2_000_000), pass(4_000_000)];
        assert_eq!(best_per_s(&passes), 500_000.0);
        assert_eq!(best_per_s(&passes[..1]), 200_000.0);
    }

    #[test]
    fn the_pass_count_follows_the_seconds_asked_for_and_nothing_else() {
        assert_eq!(
            passes_for::<grow::Grow>(RUN_SECONDS as f64),
            grow::Grow::PASSES
        );
        assert_eq!(
            passes_for::<grow::Grow>(2.0 * RUN_SECONDS as f64),
            2 * grow::Grow::PASSES
        );
        assert_eq!(passes_for::<lossy::Lossy<lossy::Quorum>>(0.01), 1);
    }

    /// The traced pass's cross-checks hold on every workload: each
    /// boundary's calls out equal the next one's calls in, the ring's
    /// own lookup count equals the calls its boundary served, and the
    /// self times add up to the op time measured from outside.
    fn traced_pass_is_consistent<L: Workload>() {
        let inp = L::inputs(3);
        let tracer = Tracer::new();
        let traced = L::pass(&tracer, &inp, true);
        assert_eq!(traced.tally.failed, 0);
        assert_eq!(cross_checks::<L>(&tracer, &traced), Vec::<String>::new());
        let base = L::pass(Plain, &inp, true);
        assert_eq!(base.counts, traced.counts, "tracing changed a counter");
        assert!(!tracer.kept().is_empty());
    }

    #[test]
    fn cross_checks_hold_on_grow() {
        traced_pass_is_consistent::<grow::Grow>();
    }

    #[test]
    fn cross_checks_hold_on_query() {
        traced_pass_is_consistent::<query::Query>();
    }

    #[test]
    fn cross_checks_hold_on_lossy_quorum() {
        traced_pass_is_consistent::<lossy::Lossy<lossy::Quorum>>();
    }

    #[test]
    fn cross_checks_hold_on_lossy_erasure() {
        traced_pass_is_consistent::<lossy::Lossy<lossy::Erasure>>();
    }
}
