//! Benchmark snapshot — `BENCH_lht.json`, the repo's headline counters
//! in one file, so a change that moves one shows in the review diff:
//!
//! * average DHT-lookups and routing hops per LHT lookup over a Chord
//!   ring (paper Fig. 8 territory),
//! * range-query bandwidth (lookups) vs wall-clock rounds with batched
//!   execution,
//! * naming-cache hit rate and SHA-1 compression saving on a repeated
//!   lookup workload (asserted >= 5x — the cache's contract),
//! * route-cache hops per DHT-lookup and hit rate on the E18 skewed
//!   range workload (the location cache's headline numbers),
//! * availability of the `{n=3, r=2, w=2}` quorum tier at 20% drop +
//!   churn (E20 — asserted strictly above the primary-owner baseline
//!   measured in the same run),
//! * availability and bytes-per-durable-key of the `{k=4, m=6}`
//!   erasure tier at the same sweep cell (E20 coded rows — asserted
//!   at least the primary baseline's availability while storing at
//!   most 0.6× the bytes of `{n=3}` replication of identical
//!   payloads).
//!
//! Every field is a seeded, single-threaded count or ratio, so it is
//! exact: `tests/bench_snapshot.rs` re-measures the file and compares
//! it byte for byte, and `lht-exp bench-snapshot` run from the repo
//! root is the one way to rewrite it. Wall-clock numbers are measured
//! elsewhere: `BENCHMARK.json`'s workloads, `lht-exp threaded` (E19)
//! and `lht-exp paper-scale` (E21).

use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, Write};
use std::path::Path;

use lht::harness::args::Parsed;
use lht::{
    ChordDht, Dht, DirectDht, KeyFraction, KeyInterval, Label, LeafBucket, LhtConfig, LhtIndex,
    NamingCache,
};

use super::{erasure, quorum, route_cache};
use crate::table::named;
use lht_id::sha1_compressions;

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
    let rounds = dht.stats().rounds;
    // The index-level step accounting and the substrate's round
    // accounting must agree on a loss-free direct substrate.
    assert!(
        rounds <= steps,
        "substrate rounds {rounds} exceed index steps {steps}"
    );
    (lookups, steps, rounds)
}

/// Naming-cache behaviour on a repeated-lookup workload: hit rate and
/// the SHA-1 compression saving factor (asserted >= 5x). The
/// compression counter is process-wide, so the figure is exact only
/// when no other thread hashes meanwhile.
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

/// Measures every headline and renders `BENCH_lht.json`: one
/// `"field": value` to a line, in a fixed order.
fn measure() -> String {
    eprintln!("measuring chord lookup cost ({KEYS} keys)…");
    let (gets_per_lookup, hops_per_lookup) = chord_lookup();
    eprintln!("measuring range rounds…");
    let (range_lookups, range_steps, range_rounds) = range_rounds();
    eprintln!("measuring naming cache…");
    let (hit_rate, saving) = naming_cache_saving();
    eprintln!("measuring route cache…");
    let (cached_hops, route_hit_rate) = route_cache::headline(KEYS, 256, SEED);
    eprintln!("measuring quorum availability at 20% drop + churn…");
    let quorum_avail = quorum_availability();
    eprintln!("measuring erasure availability and storage at 20% drop + churn…");
    let (erasure_avail, erasure_bytes) = erasure_headline();

    let fields = [
        ("keys", KEYS.to_string()),
        ("lookup_gets_avg", format!("{gets_per_lookup:.3}")),
        ("chord_hops_per_lookup", format!("{hops_per_lookup:.3}")),
        ("range_dht_lookups", range_lookups.to_string()),
        ("range_steps", range_steps.to_string()),
        ("range_rounds", range_rounds.to_string()),
        ("naming_cache_hit_rate", format!("{hit_rate:.4}")),
        ("naming_cache_sha1_saving_x", format!("{saving:.1}")),
        ("cached_hops_per_lookup", format!("{cached_hops:.3}")),
        ("route_cache_hit_rate", format!("{route_hit_rate:.4}")),
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
    ];
    let lines: Vec<String> = fields
        .iter()
        .map(|(name, value)| format!("  \"{name}\": {value}"))
        .collect();
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}

/// The `field → value` pairs of a rendered snapshot.
fn fields(json: &str) -> BTreeMap<&str, &str> {
    json.lines()
        .filter_map(|line| {
            let (name, value) = line.trim().split_once(": ")?;
            Some((name.trim_matches('"'), value.trim_end_matches(',')))
        })
        .collect()
}

/// Every field on which two renderings disagree, by name: a changed
/// value, or a field only one of them has.
fn moved(old: &str, new: &str) -> Vec<String> {
    let (old, new) = (fields(old), fields(new));
    let names: BTreeSet<&str> = old.keys().chain(new.keys()).copied().collect();
    let missing = &"missing";
    names
        .into_iter()
        .filter(|name| old.get(name) != new.get(name))
        .map(|name| {
            let (was, is) = (old.get(name), new.get(name));
            format!(
                "{name}: {} -> {}",
                was.unwrap_or(missing),
                is.unwrap_or(missing)
            )
        })
        .collect()
}

/// `lht-exp bench-snapshot`: measures every headline, prints the
/// snapshot and rewrites `BENCH_lht.json` in the working directory,
/// naming on stderr each field that moved against the file it
/// replaces.
pub(crate) fn cmd(_: &Parsed, out: &mut dyn Write) -> io::Result<i32> {
    let json = measure();
    write!(out, "{json}")?;
    let snapshot = Path::new("BENCH_lht.json");
    if let Ok(old) = std::fs::read_to_string(snapshot) {
        for field in moved(&old, &json) {
            eprintln!("moved {field}");
        }
    }
    std::fs::write(snapshot, &json).map_err(named(snapshot))?;
    eprintln!("wrote BENCH_lht.json");
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const COMMITTED: &str =
        include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_lht.json"));

    #[test]
    fn the_comparison_names_what_moved() {
        assert_eq!(moved(COMMITTED, COMMITTED), Vec::<String>::new());
        let changed = COMMITTED.replace("\"range_steps\": 71", "\"range_steps\": 72");
        assert_eq!(moved(COMMITTED, &changed), ["range_steps: 71 -> 72"]);
        let dropped: String = COMMITTED
            .lines()
            .filter(|line| !line.contains("\"route_cache_hit_rate\""))
            .map(|line| format!("{line}\n"))
            .collect();
        assert_eq!(
            moved(COMMITTED, &dropped),
            ["route_cache_hit_rate: 0.9612 -> missing"]
        );
        assert_eq!(
            moved(&dropped, COMMITTED),
            ["route_cache_hit_rate: missing -> 0.9612"]
        );
    }
}
