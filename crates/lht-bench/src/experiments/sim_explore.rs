//! Deterministic-simulation explorer — runs seeded virtual-clock
//! interleavings of concurrent index clients (`lht-sim`) and checks
//! every recorded history for linearizability.
//!
//! ```sh
//! lht-exp sim-explore --seed 42                               # one seed, full report
//! lht-exp sim-explore --explore 1000                          # sweep 1000 seeds
//! lht-exp sim-explore --explore 1000000 --budget-secs 120     # time-bounded (CI)
//! lht-exp sim-explore --seed 42 --schedule 0,2,1,...          # replay a minimized schedule
//! lht-exp sim-explore --seed 7 --stale-replica --expect-violation   # exits 0 iff the mutant IS caught
//! ```
//!
//! Exit status: 0 = all runs matched expectation, 1 = a violation was
//! found (or, with `--expect-violation`, none was), 2 = bad usage.

use std::io::{self, Write};
use std::time::Instant;

use lht::harness::args::{Flag, Parsed};
use lht_sim::{replay_schedule, simulate, SimConfig, SimReport, SimVerdict};

use crate::cli::bad_usage;

/// The explorer's own flags; the simulated configuration's are
/// [`SimConfig::FLAGS`].
pub(crate) const FLAGS: &[Flag] = &[
    Flag::uint("--explore", 1, "number of consecutive seeds to run").at_least(1),
    Flag::opt_uint("--budget-secs", "stop exploring after N wall-clock s"),
    Flag::switch("--expect-violation", "exit 0 iff a violation is found"),
    Flag::switch("--trace", "print the full schedule trace of each run"),
];

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
pub(crate) fn cmd(p: &Parsed, out: &mut dyn Write) -> io::Result<i32> {
    let base = SimConfig::from_args(p).map_err(bad_usage)?;
    let (explore, budget_secs) = (p.uint("--explore"), p.opt_uint("--budget-secs"));
    let (expect_violation, verbose) = (p.on("--expect-violation"), p.on("--trace"));
    let start = Instant::now();

    if let Some(schedule) = SimConfig::schedule_from_args(p) {
        let report = replay_schedule(&base, &schedule);
        if verbose {
            write!(out, "{}", report.trace)?;
        }
        writeln!(out, "seed {:>6}  [replay] {}", base.seed, describe(&report))?;
        let failed = matches!(report.verdict, SimVerdict::Fail { .. });
        return Ok((failed != expect_violation) as i32);
    }

    let mut explored = 0u64;
    let mut violations = 0u64;
    let mut undecided = 0u64;
    for seed in base.seed..base.seed.saturating_add(explore) {
        if let Some(budget) = budget_secs {
            if start.elapsed().as_secs() >= budget {
                break;
            }
        }
        let cfg = SimConfig {
            seed,
            ..base.clone()
        };
        let report = simulate(&cfg);
        explored += 1;
        match &report.verdict {
            SimVerdict::Pass { .. } => {
                if verbose || explore == 1 {
                    if verbose {
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
                if verbose {
                    write!(out, "{}", report.trace)?;
                }
                writeln!(out, "seed {seed:>6}  {}", describe(&report))?;
                if expect_violation {
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
    let ok = if expect_violation {
        violations > 0
    } else {
        violations == 0
    };
    Ok(!ok as i32)
}
