//! Extension experiment E19 — checked throughput of the Chord ring
//! under real OS-thread concurrency.
//!
//! Drives N client threads of mixed insert / remove / lookup / range
//! traffic over one shared [`ChordDht`](lht_dht::ChordDht) of
//! `--nodes` peers, records every operation's wall-clock
//! invocation/response interval, hands the merged history to the
//! Wing–Gong linearizability checker, and reports succeeded
//! operations per second — a number that only prints after the run it
//! measures was proven correct — beside the count of operations that
//! failed in the split window.
//!
//! ```sh
//! cargo run --release -p lht-bench --bin exp_threaded -- \
//!     [--clients N] [--ops N] [--nodes N] [--seed N] \
//!     [--smoke] [--mutant-proof]
//! ```
//!
//! `--smoke` is the CI shape (2 clients x 500 ops). `--mutant-proof`
//! skips the workload and instead arms `LhtIndex`'s torn-split mutant
//! on a recorded single-client trace, failing unless the checker
//! rejects the armed trace while accepting the identical clean one.

use lht_bench::experiments::threaded;
use lht_sim::checker::Outcome;

struct Args {
    clients: u32,
    ops: u64,
    nodes: usize,
    seed: u64,
    mutant_proof: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            clients: 4,
            ops: 1_000,
            nodes: 8,
            seed: 7,
            mutant_proof: false,
        }
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: exp_threaded [--clients N] [--ops N] [--nodes N] [--seed N] \
         [--smoke] [--mutant-proof]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    let num = |it: &mut dyn Iterator<Item = String>, what: &str| -> u64 {
        it.next()
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| usage(&format!("{what} needs an unsigned integer")))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--clients" => args.clients = (num(&mut it, "--clients") as u32).max(1),
            "--ops" => args.ops = num(&mut it, "--ops").max(1),
            "--nodes" => args.nodes = (num(&mut it, "--nodes") as usize).max(1),
            "--seed" => args.seed = num(&mut it, "--seed"),
            "--smoke" => {
                args.clients = 2;
                args.ops = 500;
            }
            "--mutant-proof" => args.mutant_proof = true,
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    args
}

fn main() {
    let args = parse_args();

    if args.mutant_proof {
        eprintln!("arming the torn-split mutant…");
        let (clean, armed) = threaded::mutant_outcomes();
        if clean != Outcome::Linearizable {
            eprintln!("control trace rejected ({clean:?}) — the harness is unsound");
            std::process::exit(1);
        }
        match armed {
            Outcome::NotLinearizable { witness } => {
                println!("mutant caught: {witness}");
            }
            other => {
                eprintln!("mutant escaped the checker: {other:?}");
                std::process::exit(1);
            }
        }
        return;
    }

    eprintln!(
        "driving {} client threads x {} ops over a {}-peer ring (seed {})…",
        args.clients, args.ops, args.nodes, args.seed
    );
    let run = threaded::run(args.clients, args.ops, args.nodes, args.seed);

    println!(
        "clients={} ops_per_client={} nodes={} elapsed={:.3}s",
        run.clients, run.ops_per_client, run.nodes, run.elapsed_secs
    );
    println!(
        "checked_ops={} unchecked_ranges={} checker_states={} outcome={:?}",
        run.checked_ops, run.unchecked_ranges, run.states, run.outcome
    );
    println!(
        "failed_ops={} ring_checked_ops_per_sec={:.0}",
        run.failed_ops, run.ops_per_sec
    );

    match run.outcome {
        Outcome::Linearizable => {}
        Outcome::NotLinearizable { ref witness } => {
            eprintln!("history rejected: {witness}");
            std::process::exit(1);
        }
        Outcome::Undecided => {
            eprintln!("checker budget exhausted after {} states", run.states);
            std::process::exit(1);
        }
    }
}
