//! The benchmark's metric tables — the single source `BENCHMARK.json`
//! is generated from — and the JSON a run prints.

/// A metric's name, unit, direction and, for end-to-end metrics, the
/// share of the parent's median by which it may worsen.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    e2e(name, unit, better, 0.0)
}

/// Bound of the exact count metrics: they repeat bit for bit on one
/// seed, and this covers their spread across seeds (≤ 1.2 %).
const COUNT: f64 = 0.05;

/// Bound of everything timed with a clock: the largest the contract
/// allows. ISSUE 11 asked for 10 %; on this shared 2-core guest ten
/// seeds spread 2-5 % while the host is quiet and up to 12 % while
/// another guest is busy (README), so at 10 % these metrics would be
/// unresolved.
const WALL: f64 = 0.25;

pub const END_TO_END: [Metric; 7] = [
    e2e("setup_s", "s", "lower", WALL),
    e2e("ops_per_s_c1", "1/s", "higher", WALL),
    e2e("ranges_per_s_c1", "1/s", "higher", WALL),
    e2e("dht_lookups_per_op", "1/op", "lower", COUNT),
    e2e("hops_per_op", "1/op", "lower", COUNT),
    e2e("stored_bytes_per_user_byte", "B/B", "lower", COUNT),
    e2e("peak_rss_mb", "MB", "lower", 0.10),
];

pub const PER_LAYER: [Metric; 68] = [
    layer("index.self_us_per_op", "us", "lower"),
    layer("index.splits_per_insert", "1/insert", "lower"),
    layer("index.records_moved_per_insert", "1/insert", "lower"),
    layer("index.merges_per_remove", "1/remove", "lower"),
    layer("index.buckets_per_range", "1/range", "lower"),
    layer("index.insert_p50_us", "us", "lower"),
    layer("index.insert_p99_us", "us", "lower"),
    layer("index.lookup_p50_us", "us", "lower"),
    layer("index.lookup_p99_us", "us", "lower"),
    layer("index.range_p50_us", "us", "lower"),
    layer("index.range_p99_us", "us", "lower"),
    layer("index.insert_samples", "count", "higher"),
    layer("index.lookup_samples", "count", "higher"),
    layer("index.range_samples", "count", "higher"),
    layer("index.failed_ops_share", "ratio", "lower"),
    layer("bucket.closure_us_per_op", "us", "lower"),
    layer("bucket.records_per_leaf", "count", "higher"),
    layer("naming.hit_rate", "ratio", "higher"),
    layer("naming.misses_per_op", "1/op", "lower"),
    layer("naming.evictions_per_op", "1/op", "lower"),
    layer("naming.resolve_hit_ns", "ns", "lower"),
    layer("naming.resolve_miss_ns", "ns", "lower"),
    layer("id.sha1_compressions_per_op", "1/op", "lower"),
    layer("id.sha1_ns_per_label", "ns", "lower"),
    layer("id.sha1_mb_s", "MB/s", "higher"),
    layer("cache.calls_in_per_op", "1/op", "lower"),
    layer("cache.calls_out_per_op", "1/op", "lower"),
    layer("cache.self_us_per_op", "us", "lower"),
    layer("cache.hit_rate", "ratio", "higher"),
    layer("cache.stale_per_op", "1/op", "lower"),
    layer("cache.hops_saved_per_op", "1/op", "higher"),
    layer("retry.calls_in_per_op", "1/op", "lower"),
    layer("retry.calls_out_per_op", "1/op", "lower"),
    layer("retry.self_us_per_op", "us", "lower"),
    layer("retry.retries_per_op", "1/op", "lower"),
    layer("fault.calls_in_per_op", "1/op", "lower"),
    layer("fault.calls_out_per_op", "1/op", "lower"),
    layer("fault.self_us_per_op", "us", "lower"),
    layer("fault.drops_per_op", "1/op", "lower"),
    layer("fault.timeouts_per_op", "1/op", "lower"),
    layer("fault.sim_latency_ms_per_op", "ms", "lower"),
    layer("quorum.calls_in_per_op", "1/op", "lower"),
    layer("quorum.calls_out_per_op", "1/op", "lower"),
    layer("quorum.self_us_per_op", "us", "lower"),
    layer("quorum.repair_transfers_per_op", "1/op", "lower"),
    layer("quorum.anti_entropy_us_per_step", "us", "lower"),
    layer("quorum.pending_handoffs_end", "count", "lower"),
    layer("erasure.calls_in_per_op", "1/op", "lower"),
    layer("erasure.calls_out_per_op", "1/op", "lower"),
    layer("erasure.self_us_per_op", "us", "lower"),
    layer("erasure.repair_transfers_per_op", "1/op", "lower"),
    layer("erasure.anti_entropy_us_per_step", "us", "lower"),
    layer("erasure.pending_handoffs_end", "count", "lower"),
    layer("gf256.encode_mb_s", "MB/s", "higher"),
    layer("gf256.reconstruct_mb_s", "MB/s", "higher"),
    layer("chord.calls_in_per_op", "1/op", "lower"),
    layer("chord.self_us_per_op", "us", "lower"),
    layer("chord.hops_per_call", "1/call", "lower"),
    layer("chord.stabilize_us_per_round", "us", "lower"),
    layer("chord.churn_us_per_event", "us", "lower"),
    layer("chord.keys_transferred_per_churn", "count", "lower"),
    layer("chord.ops_per_s_c2", "1/s", "higher"),
    layer("chord.ranges_per_s_c2", "1/s", "higher"),
    layer("chord.scaling_efficiency_c2", "ratio", "higher"),
    layer("store.get_ns", "ns", "lower"),
    layer("store.put_ns", "ns", "lower"),
    layer("store.load_max_over_mean", "ratio", "lower"),
    layer("trace.overhead_share", "ratio", "lower"),
];

/// The workloads and why each exists, as `BENCHMARK.json` records them.
/// The driver wants every end-to-end metric from every workload, so
/// all four end a pass with a range phase — also `grow` and `lossy_*`,
/// which ISSUE 11 specified without one.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "grow",
        "2^16 random-order inserts, then ranges, on a bare 1024-peer ring: new labels every split, full routes, the update+put split protocol; no cache, no wrapper: the bypass workload for wrapper changes",
    ),
    (
        "query",
        "read-only Zipf(0.99) exact-matches, then ranges, over 2^20 bulk-loaded keys through per-client route caches: hashing and routing vanish; index search, bucket decode and the ring lock remain",
    ),
    (
        "lossy_quorum",
        "mixed insert/lookup/range/remove through cache+retry+10%-loss+3-way quorum, churn and anti-entropy every 256 ops, then ranges: the whole tower, writes beside reads, maintenance stalling the foreground",
    ),
    (
        "lossy_erasure",
        "the identical schedule over a {4,6} Reed-Solomon tier: same layers, other durability engine, 1.2 KB payloads in 6 fragments - isolates erasure/gf256 cost; the twin to hold still when the tiers merge",
    ),
];

pub const RUN_SECONDS: u32 = 30;

/// The one JSON object a run prints as its last line, and whether the
/// run is correct: `correct` as given, unless a metric is not a finite
/// number (JSON has no way to write one, and no measurement yields
/// one), which is named on stderr and printed as 0.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[Metric],
    values: &[(&str, f64)],
) -> (String, bool) {
    assert_eq!(
        values.len(),
        table.len(),
        "a computed metric is not in the table"
    );
    let mut finite = true;
    let metrics: Vec<String> = table
        .iter()
        .map(|m| {
            let mut v = values
                .iter()
                .find(|(name, _)| *name == m.name)
                .unwrap_or_else(|| panic!("metric {} was not computed", m.name))
                .1;
            if !v.is_finite() {
                eprintln!("error: metric {} is {v}, not a finite number", m.name);
                finite = false;
                v = 0.0;
            }
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    let correct = correct && finite;
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    (line, correct)
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let quote_list = |items: &[&str]| {
        items
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quote_list(&command),
        RUN_SECONDS,
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_metric_that_is_not_a_number_makes_the_run_incorrect() {
        let table = [layer("a", "us", "lower"), layer("b", "us", "lower")];
        let (line, correct) = result_line(true, 7, 0, &table, &[("b", 2.5), ("a", 1.0)]);
        assert!(correct);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.0, \"unit\": \"us\"}, \"b\": {\"value\": 2.5, \"unit\": \"us\"}}}"
        );
        for bad in [f64::NAN, f64::INFINITY] {
            let (line, correct) = result_line(true, 7, 0, &table, &[("a", bad), ("b", 2.5)]);
            assert!(!correct);
            assert!(line.starts_with("{\"correct\": false,"));
        }
    }

    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `cargo run --manifest-path benchmark/Cargo.toml -- --print-manifest \
             > BENCHMARK.json`"
        );
    }

    #[test]
    fn manifest_stays_inside_the_contract_limits() {
        let names: Vec<&str> = WORKLOADS
            .iter()
            .map(|(n, _)| *n)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for (i, n) in names.iter().enumerate() {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(!names[..i].contains(n), "{n} is used twice");
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(m.unit.len() <= 16);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{}", why.len());
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound <= setup.bound && m.bound <= 0.25));
        assert!(manifest().len() <= 64 * 1024);
    }
}
