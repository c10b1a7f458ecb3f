//! Deterministic-simulation explorer — runs seeded virtual-clock
//! interleavings of concurrent index clients (`lht-sim`) and checks
//! every recorded history for linearizability.
//!
//! ```sh
//! # One seed, full report:
//! cargo run --release -p lht-bench --bin exp_sim_explore -- --seed 42
//!
//! # Sweep 1000 seeds:
//! cargo run --release -p lht-bench --bin exp_sim_explore -- --explore 1000
//!
//! # Time-bounded random exploration (CI):
//! cargo run --release -p lht-bench --bin exp_sim_explore -- \
//!     --explore 1000000 --budget-secs 120
//!
//! # Replay a minimized schedule printed by a failing run:
//! cargo run --release -p lht-bench --bin exp_sim_explore -- \
//!     --seed 42 --schedule 0,2,1,...
//!
//! # Mutant-detection proof (exits 0 iff the violation IS found):
//! cargo run --release -p lht-bench --bin exp_sim_explore -- \
//!     --seed 7 --stale-replica --expect-violation
//! ```
//!
//! Exit status: 0 = all runs matched expectation, 1 = a violation was
//! found (or, with `--expect-violation`, none was), 2 = bad usage.

use std::io::{self, Write};
use std::time::Instant;

use lht_sim::{replay_schedule, simulate, SimConfig, SimReport, SimVerdict};

struct Args {
    cfg: SimConfig,
    explore: u64,
    budget_secs: Option<u64>,
    schedule: Option<Vec<u32>>,
    expect_violation: bool,
    verbose: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            cfg: SimConfig {
                seed: 1,
                ..SimConfig::small(1)
            },
            explore: 1,
            budget_secs: None,
            schedule: None,
            expect_violation: false,
            verbose: false,
        }
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: exp_sim_explore [--seed N] [--explore N] [--budget-secs S] \
         [--clients N] [--ops N] [--nodes N] [--churn N] [--replicas N] \
         [--drop P] [--theta N] [--depth N] [--quorum N,R,W] \
         [--erasure K,M] [--stale-replica] [--torn-split N] \
         [--stale-cache-read] [--sloppy-quorum-read] [--lost-write-ack] \
         [--corrupt-fragment] [--lazy-regen] [--schedule a,b,c] \
         [--expect-violation] [--trace]"
    );
    eprintln!("  --seed N           first (or only) simulation seed (default 1)");
    eprintln!("  --explore N        number of consecutive seeds to run (default 1)");
    eprintln!("  --budget-secs S    stop exploring after S wall-clock seconds");
    eprintln!("  --clients N        logical clients (default 3)");
    eprintln!("  --ops N            operations per client (default 30)");
    eprintln!("  --nodes N          initial chord ring size (default 8)");
    eprintln!("  --churn N          join/leave events (default 3)");
    eprintln!("  --replicas N       replicas per key (default 2)");
    eprintln!("  --drop P           per-RPC drop probability (default 0 = strict mode)");
    eprintln!("  --theta N          leaf-split threshold (default 4)");
    eprintln!("  --depth N          max tree depth (default 24)");
    eprintln!("  --quorum N,R,W     run the quorum-replicated stack with these parameters");
    eprintln!("  --erasure K,M      run the erasure-coded stack (k-of-m fragment groups)");
    eprintln!("  --stale-replica    arm the stale-replica mutant");
    eprintln!("  --torn-split N     arm the torn-split mutant at the N-th split");
    eprintln!("  --stale-cache-read arm the stale-cache-read mutant (unverified probes)");
    eprintln!("  --sloppy-quorum-read arm the sloppy-quorum-read mutant (implies --quorum 3,2,2)");
    eprintln!("  --lost-write-ack   arm the lost-write-ack mutant (implies --quorum 3,2,2)");
    eprintln!("  --corrupt-fragment arm the corrupt-fragment mutant (implies --erasure 2,5)");
    eprintln!("  --lazy-regen       arm the lazy-regen mutant (implies --erasure 2,5)");
    eprintln!("  --schedule a,b,c   replay this exact actor schedule (single seed)");
    eprintln!("  --expect-violation exit 0 iff a violation is found (mutant proof)");
    eprintln!("  --trace            print the full schedule trace of each run");
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args::default();
    let mut it = argv.iter().cloned();
    let num = |it: &mut dyn Iterator<Item = String>, what: &str| -> u64 {
        it.next()
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| usage(&format!("{what} needs an unsigned integer")))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => args.cfg.seed = num(&mut it, "--seed"),
            "--explore" => args.explore = num(&mut it, "--explore").max(1),
            "--budget-secs" => args.budget_secs = Some(num(&mut it, "--budget-secs")),
            "--clients" => args.cfg.clients = num(&mut it, "--clients").max(1) as u32,
            "--ops" => args.cfg.ops_per_client = num(&mut it, "--ops") as u32,
            "--nodes" => args.cfg.nodes = (num(&mut it, "--nodes") as usize).max(1),
            "--churn" => args.cfg.churn_events = num(&mut it, "--churn") as u32,
            "--replicas" => args.cfg.replicas = (num(&mut it, "--replicas") as usize).max(1),
            "--drop" => {
                args.cfg.drop_prob = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|p| (0.0..=1.0).contains(p))
                    .unwrap_or_else(|| usage("--drop needs a probability in [0, 1]"));
            }
            "--theta" => args.cfg.theta_split = (num(&mut it, "--theta") as usize).max(2),
            "--depth" => args.cfg.max_depth = (num(&mut it, "--depth") as usize).clamp(2, 64),
            "--quorum" => {
                let spec = it.next().unwrap_or_else(|| usage("--quorum needs N,R,W"));
                let parts: Option<Vec<usize>> =
                    spec.split(',').map(|s| s.trim().parse().ok()).collect();
                match parts.as_deref() {
                    Some([n, r, w]) if r + w > *n && *r >= 1 && *w >= 1 && r.max(w) <= n => {
                        args.cfg.quorum = Some((*n, *r, *w));
                    }
                    _ => usage("--quorum needs N,R,W with 1 <= R,W <= N and R+W > N"),
                }
            }
            "--erasure" => {
                let spec = it.next().unwrap_or_else(|| usage("--erasure needs K,M"));
                let parts: Option<Vec<usize>> =
                    spec.split(',').map(|s| s.trim().parse().ok()).collect();
                match parts.as_deref() {
                    Some([k, m]) if *k >= 2 && k < m && *m <= 32 => {
                        args.cfg.erasure = Some((*k, *m));
                    }
                    _ => usage("--erasure needs K,M with 2 <= K < M <= 32"),
                }
            }
            "--stale-replica" => args.cfg.stale_replica = true,
            "--torn-split" => args.cfg.torn_split = Some(num(&mut it, "--torn-split").max(1)),
            "--stale-cache-read" => args.cfg.stale_cache_read = true,
            "--sloppy-quorum-read" => args.cfg.sloppy_quorum_read = true,
            "--lost-write-ack" => args.cfg.lost_write_ack = true,
            "--corrupt-fragment" => args.cfg.corrupt_fragment = true,
            "--lazy-regen" => args.cfg.lazy_regen = true,
            "--schedule" => {
                let csv = it
                    .next()
                    .unwrap_or_else(|| usage("--schedule needs a list"));
                let picks: Option<Vec<u32>> =
                    csv.split(',').map(|s| s.trim().parse().ok()).collect();
                args.schedule =
                    Some(picks.unwrap_or_else(|| usage("--schedule needs comma-separated ints")));
            }
            "--expect-violation" => args.expect_violation = true,
            "--trace" => args.verbose = true,
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    if args.cfg.quorum_params().is_some() && args.cfg.erasure_params().is_some() {
        usage("the quorum and erasure stacks are mutually exclusive");
    }
    args
}

fn describe(report: &SimReport) -> String {
    match &report.verdict {
        SimVerdict::Pass { ops, states } => format!(
            "pass  ops={ops} search-states={states} history={}",
            report.history_len
        ),
        SimVerdict::Undecided { states } => format!("UNDECIDED after {states} search states"),
        SimVerdict::Fail {
            witness,
            minimized,
            replay,
        } => format!(
            "VIOLATION ({} steps in schedule, {} after shrinking)\n  witness: {}\n  replay:  {}",
            report.schedule.len(),
            minimized.len(),
            witness,
            replay
        ),
    }
}

/// `lht-exp sim-explore`: replays one schedule or sweeps seeds.
/// Exit status: 0 = all runs matched expectation, 1 = a violation was
/// found (or, with `--expect-violation`, none was).
///
/// # Errors
///
/// Propagates write errors from `out`.
pub fn cmd(argv: &[String], out: &mut dyn Write) -> io::Result<i32> {
    let args = parse_args(argv);
    let start = Instant::now();

    if let Some(schedule) = &args.schedule {
        let report = replay_schedule(&args.cfg, schedule);
        if args.verbose {
            write!(out, "{}", report.trace)?;
        }
        writeln!(
            out,
            "seed {:>6}  [replay] {}",
            args.cfg.seed,
            describe(&report)
        )?;
        let failed = matches!(report.verdict, SimVerdict::Fail { .. });
        return Ok((failed != args.expect_violation) as i32);
    }

    let mut explored = 0u64;
    let mut violations = 0u64;
    let mut undecided = 0u64;
    for seed in args.cfg.seed..args.cfg.seed.saturating_add(args.explore) {
        if let Some(budget) = args.budget_secs {
            if start.elapsed().as_secs() >= budget {
                break;
            }
        }
        let cfg = SimConfig {
            seed,
            ..args.cfg.clone()
        };
        let report = simulate(&cfg);
        explored += 1;
        match &report.verdict {
            SimVerdict::Pass { .. } => {
                if args.verbose || args.explore == 1 {
                    if args.verbose {
                        write!(out, "{}", report.trace)?;
                    }
                    writeln!(out, "seed {seed:>6}  {}", describe(&report))?;
                }
            }
            SimVerdict::Undecided { .. } => {
                undecided += 1;
                writeln!(out, "seed {seed:>6}  {}", describe(&report))?;
            }
            SimVerdict::Fail { .. } => {
                violations += 1;
                if args.verbose {
                    write!(out, "{}", report.trace)?;
                }
                writeln!(out, "seed {seed:>6}  {}", describe(&report))?;
                if args.expect_violation {
                    break; // the proof is done
                }
            }
        }
    }

    writeln!(
        out,
        "explored {explored} schedule(s) in {:.1}s: {} violation(s), {undecided} undecided",
        start.elapsed().as_secs_f64(),
        violations
    )?;
    let ok = if args.expect_violation {
        violations > 0
    } else {
        violations == 0
    };
    Ok(!ok as i32)
}
