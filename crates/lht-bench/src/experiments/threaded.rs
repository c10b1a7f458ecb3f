//! Extension experiment E19 — real OS-thread concurrency over the
//! Chord ring.
//!
//! Every other experiment in this crate drives a substrate from one
//! thread and *counts* costs; this one runs N real client threads
//! against one shared [`ChordDht`] — the substrate the benchmark and
//! E21 run on — and *times* them. Each client builds every operation
//! as a [`HistoryCall`] and runs it through its own
//! [`HistoryRecorder`], which stamps the wall-clock invocation and
//! response around it; the merged history is handed to the Wing–Gong
//! linearizability checker, so the reported throughput is only
//! accepted when the run it measures was provably correct.
//!
//! The ring is one mutex (ROADMAP `[ring-lock]`): client threads overlap in
//! everything *above* a DHT operation — naming, binary search, bucket
//! decode — and take turns below it. Its `DhtStats` (lookups, hops)
//! stay exact under contention; the wall-clock figure is the only
//! number here that depends on the host.
//!
//! One caveat is inherent to LHT, not to the substrate: a range query
//! traverses several buckets with several DHT reads, so a scan racing
//! another client's bucket split can return a torn snapshot. The
//! deterministic simulator never sees this because it executes each
//! index operation atomically and only overlaps *virtual* intervals;
//! real threads overlap the reads themselves. Range operations are
//! therefore driven (they are part of the load and the throughput)
//! but excluded from the checked history; point operations — insert,
//! remove, exact-match — are checked in full.
//!
//! The armed torn-split mutant ([`LhtIndex::arm_torn_split`]: a split
//! that never puts its remote half) reuses the same recording path
//! ([`checker::torn_split_outcomes`]) and must be rejected — proof
//! that the checker, not luck, is what accepts the clean runs.

use std::io::{self, Write};
use std::time::Instant;

use lht::harness::args::{Flag, Parsed};
use lht::{
    ChordDht, Dht, HistoryCall, HistoryRecorder, HistoryReturn, LeafBucket, LhtConfig, LhtIndex,
};
use lht_core::merge_histories;
use lht_sim::checker::{self, Outcome};

/// One measured run of the concurrent workload.
#[derive(Clone, Debug)]
pub(crate) struct ThreadedRun {
    /// Real client threads driven.
    pub clients: u32,
    /// Index operations issued by each client.
    pub ops_per_client: u64,
    /// Peers on the ring.
    pub nodes: usize,
    /// Wall-clock seconds spent in the client phase.
    pub elapsed_secs: f64,
    /// Operations that returned an error (`Contention` /
    /// `LookupExhausted` from the split window, ROADMAP
    /// `[split-window]`).
    /// Reported, not gated on.
    pub failed_ops: u64,
    /// *Succeeded* index operations per wall-clock second across all
    /// clients.
    pub ops_per_sec: f64,
    /// Operations in the merged, checked history (point operations;
    /// ranges are driven but not checked — see the module docs).
    pub checked_ops: usize,
    /// Range scans driven and excluded from the checked history.
    pub unchecked_ranges: usize,
    /// States the checker explored before concluding.
    pub states: u64,
    /// The checker's verdict on the merged history.
    pub outcome: Outcome,
}

/// Drives `clients` real threads of mixed insert / remove / lookup /
/// range traffic over one `nodes`-peer Chord ring, times the client
/// phase, and checks the merged wall-clock history.
///
/// Panics if the ring's [`DhtStats`](lht_dht::DhtStats) break
/// their invariants — throughput from a run with broken accounting is
/// not a number worth reporting.
pub(crate) fn run(clients: u32, ops_per_client: u64, nodes: usize, seed: u64) -> ThreadedRun {
    let cfg = LhtConfig::new(4, 20);
    let dht: ChordDht<LeafBucket<u32>> = ChordDht::with_nodes(nodes, seed);
    // Bootstrap the root bucket once, before clients race.
    let _boot: LhtIndex<_, u32> = LhtIndex::new(&dht, cfg).expect("bootstrap index");

    let epoch = Instant::now();
    let start = Instant::now();
    let histories: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|t| {
                let dht = &dht;
                s.spawn(move || {
                    let mut rec: HistoryRecorder<u32> = HistoryRecorder::new(t, epoch);
                    let ix: LhtIndex<_, u32> = LhtIndex::new(dht, cfg).expect("client index");
                    for i in 0..ops_per_client {
                        // Mostly per-client stripes with a shared band
                        // of 8 hot keys, so clients genuinely contend
                        // without blowing up the checker's search.
                        let key = if i % 5 == 0 {
                            (i % 8).wrapping_mul(0x0101_0101_0101_0101) | 1
                        } else {
                            ((u64::from(t) << 32 | i).wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1
                        };
                        let call = match i % 8 {
                            0..=3 => HistoryCall::Insert {
                                key,
                                value: (u64::from(t) * 1_000_000 + i) as u32,
                            },
                            4 | 5 => HistoryCall::Get { key },
                            6 => HistoryCall::Remove { key },
                            _ => HistoryCall::Range { lo: key, hi: None },
                        };
                        // Results are read back from the recorded
                        // history below, failures included.
                        rec.run(&ix, call);
                    }
                    rec.into_records()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);

    dht.stats()
        .check_invariants()
        .expect("the ring broke the stats contract under client threads");

    let mut history = merge_histories(histories);
    let total_ops = u64::from(clients) * ops_per_client;
    assert_eq!(history.len() as u64, total_ops, "every op is recorded");
    let failed_ops = history
        .iter()
        .filter(|r| matches!(r.ret, HistoryReturn::Failed { .. }))
        .count() as u64;
    // Range scans are not atomic under concurrent splits (module
    // docs); drop them from the checked history. Removing operations
    // only removes constraints, so the remaining point-op history
    // must still linearize.
    let before = history.len();
    history.retain(|r| !matches!(r.call, HistoryCall::Range { .. }));
    let unchecked_ranges = before - history.len();
    // Lossy (non-strict) mode: a read racing another client's split
    // may transiently fail; such a failure constrains nothing. The
    // budget scales with history size but a near-sequential history
    // settles in roughly one state per operation.
    let budget = (total_ops * 25_000).max(5_000_000);
    let result = checker::check(&history, false, budget);

    ThreadedRun {
        clients,
        ops_per_client,
        nodes,
        elapsed_secs: elapsed,
        failed_ops,
        ops_per_sec: (total_ops - failed_ops) as f64 / elapsed,
        checked_ops: history.len(),
        unchecked_ranges,
        states: result.states,
        outcome: result.outcome,
    }
}

/// The flags of `lht-exp threaded`.
pub(crate) const FLAGS: &[Flag] = &[
    Flag::opt_uint("--clients", "client threads (default 4)").at_least(1),
    Flag::opt_uint("--ops", "operations per client (default 1000)").at_least(1),
    Flag::uint("--nodes", 8, "peers on the ring").at_least(1),
    Flag::uint("--seed", 7, "workload seed"),
    Flag::switch("--smoke", "the CI shape: 2 clients x 500 ops"),
    Flag::switch("--mutant-proof", "arm the torn-split mutant instead"),
];

/// `lht-exp threaded`: drives the client threads and prints the
/// checked throughput, or with `--mutant-proof` arms the torn-split
/// mutant instead; exits 1 unless the history is linearizable (the
/// mutant: unless it is caught while the clean trace passes).
pub(crate) fn cmd(p: &Parsed, out: &mut dyn Write) -> io::Result<i32> {
    if p.on("--mutant-proof") {
        eprintln!("arming the torn-split mutant…");
        let (clean, armed) = checker::torn_split_outcomes();
        if clean != Outcome::Linearizable {
            eprintln!("control trace rejected ({clean:?}) — the harness is unsound");
            return Ok(1);
        }
        return match armed {
            Outcome::NotLinearizable { witness } => {
                writeln!(out, "mutant caught: {witness}")?;
                Ok(0)
            }
            other => {
                eprintln!("mutant escaped the checker: {other:?}");
                Ok(1)
            }
        };
    }

    let smoke = p.on("--smoke");
    let clients = p.opt_uint("--clients").unwrap_or(if smoke { 2 } else { 4 }) as u32;
    let ops = p
        .opt_uint("--ops")
        .unwrap_or(if smoke { 500 } else { 1_000 });
    let (nodes, seed) = (p.size("--nodes"), p.uint("--seed"));
    eprintln!(
        "driving {clients} client threads x {ops} ops over a {nodes}-peer ring (seed {seed})…"
    );
    let run = run(clients, ops, nodes, seed);

    writeln!(
        out,
        "clients={} ops_per_client={} nodes={} elapsed={:.3}s",
        run.clients, run.ops_per_client, run.nodes, run.elapsed_secs
    )?;
    writeln!(
        out,
        "checked_ops={} unchecked_ranges={} checker_states={} outcome={:?}",
        run.checked_ops, run.unchecked_ranges, run.states, run.outcome
    )?;
    writeln!(
        out,
        "failed_ops={} ring_checked_ops_per_sec={:.0}",
        run.failed_ops, run.ops_per_sec
    )?;

    Ok(match run.outcome {
        Outcome::Linearizable => 0,
        Outcome::NotLinearizable { ref witness } => {
            eprintln!("history rejected: {witness}");
            1
        }
        Outcome::Undecided => {
            eprintln!("checker budget exhausted after {} states", run.states);
            1
        }
    })
}
