//! Extension experiment E17 — batched vs sequential round
//! execution: the payoff of
//! [`Dht::multi_get`] batching for range queries, LHT vs PHT.
//!
//! Two clients run the *same* queries against the *same* store:
//!
//! * **seq** — a wrapper that forwards single ops but keeps the
//!   trait's default `multi_get`/`multi_put` (a sequential loop), so
//!   every DHT-lookup is its own round: rounds == lookups.
//! * **batched** — the native substrate batching, where each frontier
//!   level of a range query ships as one concurrent round.
//!
//! The substrate is a latency-only [`FaultyDht`] (no drops), so the
//! round-latency column shows the simulated wall-clock win: a batch of
//! `k` lookups costs the *max* of its drawn latencies, a sequential
//! client the *sum*. The run asserts that both clients return
//! identical records and that the batched client strictly beats the
//! sequential step count, then writes `results/e17_batch_speedup.csv`
//! (in smoke mode too — CI checks the artifact).

use std::io::{self, Write};

use lht::harness::args::{Flag, Parsed};
use lht::pht::PhtNode;
use lht::{
    Dht, DhtError, DhtKey, DhtStats, DirectDht, FaultyDht, KeyFraction, KeyInterval,
    LatencyProfile, LeafBucket, LhtConfig, LhtIndex, NetProfile, PhtIndex,
};

use crate::Table;

/// The flags of `lht-exp batch-speedup`.
pub(crate) const FLAGS: &[Flag] = &[Flag::switch("--smoke", "CI shape: 2048 keys, not 16384")];

/// The "unbatched client": forwards every single op but inherits the
/// trait's default sequential `multi_get`/`multi_put`, so each lookup
/// of a batch is charged as its own round.
struct Seq<D>(D);

impl<D: Dht> Dht for Seq<D> {
    type Value = D::Value;

    fn get(&self, key: &DhtKey) -> Result<Option<Self::Value>, DhtError> {
        self.0.get(key)
    }

    fn put(&self, key: &DhtKey, value: Self::Value) -> Result<(), DhtError> {
        self.0.put(key, value)
    }

    fn remove(&self, key: &DhtKey) -> Result<Option<Self::Value>, DhtError> {
        self.0.remove(key)
    }

    fn update(
        &self,
        key: &DhtKey,
        f: &mut dyn FnMut(&mut Option<Self::Value>),
    ) -> Result<(), DhtError> {
        self.0.update(key, f)
    }

    fn stats(&self) -> DhtStats {
        self.0.stats()
    }

    fn reset_stats(&self) {
        self.0.reset_stats()
    }
}

/// A latency-only network: every op is delivered, each delivery draws
/// 10–30 ms. Batches pay the round max, sequential clients the sum.
fn profile(seed: u64) -> NetProfile {
    NetProfile {
        latency: LatencyProfile {
            base_ms: 10,
            jitter_ms: 20,
            tail_prob: 0.0,
            tail_ms: 0,
        },
        timeout_ms: 1_000,
        ..NetProfile::reliable(seed)
    }
}

fn queries(smoke: bool) -> Vec<KeyInterval> {
    let spans: &[f64] = if smoke {
        &[1.0 / 16.0, 0.25]
    } else {
        &[1.0 / 64.0, 1.0 / 16.0, 0.25, 0.5]
    };
    let mut qs = Vec::new();
    for &span in spans {
        for i in 0..4 {
            let lo = i as f64 * (1.0 - span) / 3.0;
            qs.push(KeyInterval::half_open(
                KeyFraction::from_f64(lo),
                KeyFraction::from_f64(lo + span),
            ));
        }
    }
    qs
}

/// One client run: all queried records (for the equality check), the
/// index-level cost totals and the substrate stats delta.
struct Run {
    records: Vec<(KeyFraction, u32)>,
    lookups: u64,
    steps: u64,
    stats: DhtStats,
}

impl Run {
    fn row(&self, index: &str, mode: &str, keys: usize) -> Vec<String> {
        vec![
            index.to_string(),
            mode.to_string(),
            keys.to_string(),
            self.records.len().to_string(),
            self.lookups.to_string(),
            self.steps.to_string(),
            self.stats.rounds.to_string(),
            self.stats.latency_ms.to_string(),
            self.stats.round_latency_ms.to_string(),
            if self.stats.round_latency_ms > 0 {
                format!(
                    "{:.2}",
                    self.stats.latency_ms as f64 / self.stats.round_latency_ms as f64
                )
            } else {
                "-".to_string()
            },
        ]
    }
}

fn run_lht<D: Dht<Value = LeafBucket<u32>>>(ix: &LhtIndex<D, u32>, qs: &[KeyInterval]) -> Run {
    ix.dht().reset_stats();
    let mut records = Vec::new();
    let mut lookups = 0u64;
    let mut steps = 0u64;
    for q in qs {
        let r = ix.range(*q).expect("no drops: range cannot fail");
        records.extend(r.records);
        lookups += r.cost.dht_lookups;
        steps += r.cost.steps;
    }
    Run {
        records,
        lookups,
        steps,
        stats: ix.dht().stats(),
    }
}

enum PhtMode {
    Sequential,
    Parallel,
}

fn run_pht<D: Dht<Value = PhtNode<u32>>>(
    ix: &PhtIndex<D, u32>,
    qs: &[KeyInterval],
    mode: PhtMode,
) -> Run {
    ix.dht().reset_stats();
    let mut records = Vec::new();
    let mut lookups = 0u64;
    let mut steps = 0u64;
    for q in qs {
        let r = match mode {
            PhtMode::Sequential => ix.range_sequential(*q),
            PhtMode::Parallel => ix.range_parallel(*q),
        }
        .expect("no drops: range cannot fail");
        records.extend(r.records);
        lookups += r.cost.dht_lookups;
        steps += r.cost.steps;
    }
    Run {
        records,
        lookups,
        steps,
        stats: ix.dht().stats(),
    }
}

/// Fails the run (exit 1) at the first batching invariant that does
/// not hold.
macro_rules! check {
    ($cond:expr, $what:expr $(,)?) => {
        if !$cond {
            eprintln!("FAILED: {}", $what);
            return Ok(1);
        }
    };
}

/// `lht-exp batch-speedup`: runs both clients of each index over one
/// store, asserts the batching invariants (exit 1 at the first that
/// fails) and writes the E17 CSV — in smoke mode too, CI checks the
/// artifact.
pub(crate) fn cmd(p: &Parsed, out: &mut dyn Write) -> io::Result<i32> {
    let smoke = p.on("--smoke");
    let (keys, seed): (usize, u64) = if smoke { (1 << 11, 17) } else { (1 << 14, 17) };
    let qs = queries(smoke);
    let cfg = LhtConfig::new(8, 20);
    let key = |i: usize| KeyFraction::from_f64((i as f64 + 0.5) / keys as f64);

    let mut t = Table::new(
        format!(
            "batched vs sequential rounds — {} keys, {} range queries, seed {}",
            keys,
            qs.len(),
            seed
        ),
        &[
            "index",
            "client",
            "keys",
            "records",
            "lookups",
            "steps",
            "rounds",
            "lat_ms",
            "round_lat_ms",
            "lat_x",
        ],
    );

    // --- LHT: one store, two clients -------------------------------
    let lht_dht: FaultyDht<DirectDht<LeafBucket<u32>>> =
        FaultyDht::new(DirectDht::new(), profile(seed));
    let lht_batched = LhtIndex::new(&lht_dht, cfg).expect("fresh index");
    let lht_seq = LhtIndex::new(Seq(&lht_dht), cfg).expect("same store");
    for i in 0..keys {
        lht_batched.insert(key(i), i as u32).expect("no drops");
    }

    let seq = run_lht(&lht_seq, &qs);
    let batched = run_lht(&lht_batched, &qs);
    check!(
        seq.records == batched.records,
        "LHT batched records must equal sequential records",
    );
    check!(
        seq.stats.rounds == seq.stats.lookups(),
        "sequential client must execute one op per round",
    );
    check!(
        batched.stats.rounds < seq.stats.rounds,
        "LHT batched rounds must be strictly below sequential rounds",
    );
    check!(
        batched.stats.rounds <= batched.steps,
        "substrate rounds cannot exceed the index's step accounting",
    );
    check!(
        batched.stats.round_latency_ms < seq.stats.round_latency_ms,
        "LHT batched round latency must beat the sequential client",
    );
    t.push_row(seq.row("lht", "seq", keys));
    t.push_row(batched.row("lht", "batched", keys));

    // --- PHT: one store, sequential chain + two parallel clients ---
    let pht_dht: FaultyDht<DirectDht<PhtNode<u32>>> =
        FaultyDht::new(DirectDht::new(), profile(seed ^ 0xbeef));
    let pht_batched = PhtIndex::new(&pht_dht, cfg).expect("fresh index");
    let pht_seq = PhtIndex::new(Seq(&pht_dht), cfg).expect("same store");
    for i in 0..keys {
        pht_batched.insert(key(i), i as u32).expect("no drops");
    }

    let chain = run_pht(&pht_seq, &qs, PhtMode::Sequential);
    let par_seq = run_pht(&pht_seq, &qs, PhtMode::Parallel);
    let par_batched = run_pht(&pht_batched, &qs, PhtMode::Parallel);
    check!(
        chain.records == par_batched.records && par_seq.records == par_batched.records,
        "all PHT clients must return identical records",
    );
    check!(
        par_batched.stats.rounds < par_seq.stats.rounds,
        "PHT(par) batched rounds must be strictly below the sequential client",
    );
    check!(
        par_batched.stats.rounds < chain.steps,
        "PHT(par) batched rounds must be strictly below PHT(seq) steps",
    );
    check!(
        par_batched.stats.round_latency_ms < par_seq.stats.round_latency_ms,
        "PHT(par) batched round latency must beat the sequential client",
    );
    t.push_row(chain.row("pht-seq", "seq", keys));
    t.push_row(par_seq.row("pht-par", "seq", keys));
    t.push_row(par_batched.row("pht-par", "batched", keys));

    // LHT's frontier also beats PHT(seq)'s chain on wall-clock rounds.
    check!(
        batched.stats.rounds < chain.steps,
        "LHT batched rounds must be strictly below PHT(seq) steps",
    );

    t.emit(out, "e17_batch_speedup")?;
    eprintln!("all batching invariants held");
    Ok(0)
}
