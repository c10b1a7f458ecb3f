//! The `lht-exp` command line: one dispatcher over every experiment.

use std::io::{self, Write};

use crate::experiments::*;

/// Runs `argv[0]` (an experiment name) over the remaining arguments,
/// printing its tables to `out`; returns the process exit status.
pub fn run(argv: &[String], out: &mut dyn Write) -> i32 {
    let Some((name, args)) = argv.split_first() else {
        eprintln!("usage: lht-exp <experiment> [flags]");
        return 2;
    };
    let cmd: fn(&[String], &mut dyn Write) -> io::Result<i32> = match name.as_str() {
        "fig6" => fig6::cmd,
        "fig7" => fig7::cmd,
        "fig8" => fig8::cmd,
        "fig9" => fig9_10::cmd_bandwidth,
        "fig10" => fig9_10::cmd_latency,
        "saving-ratio" => saving::cmd,
        "baselines" => baselines::cmd,
        "churn" => churn::cmd,
        "load-balance" => balance::cmd,
        "bulk-load" => bulk::cmd,
        "hops" => hops::cmd,
        "deletion" => deletion::cmd,
        "fault-sweep" => fault_sweep::cmd,
        "batch-speedup" => batch_speedup::cmd,
        "route-cache" => route_cache::cmd,
        "threaded" => threaded::cmd,
        "quorum" => quorum::cmd,
        "paper-scale" => paper_scale::cmd,
        "audit-soak" => audit_soak::cmd,
        "sim-explore" => sim_explore::cmd,
        "bench-snapshot" => snapshot::cmd,
        other => {
            eprintln!("error: unknown experiment {other:?}");
            return 2;
        }
    };
    match cmd(args, out) {
        Ok(status) => status,
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

/// `main` of the binary that runs one fixed experiment: forwards the
/// process arguments to [`run`] and exits with its status.
pub fn main_of(experiment: &str) -> ! {
    let argv: Vec<String> = std::iter::once(experiment.to_string())
        .chain(std::env::args().skip(1))
        .collect();
    std::process::exit(run(&argv, &mut io::stdout()))
}
