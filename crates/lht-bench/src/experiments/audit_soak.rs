//! Differential-testing soak — drives the index under test (LHT, or
//! the PHT, DST or RST baseline) and a shadow oracle through one
//! deterministic trace, diffing every answer and auditing every
//! structural invariant (Theorem 1 bijectivity, partition coverage,
//! record conservation, θ-occupancy, PHT trie/chain consistency,
//! Chord ring well-formedness). `--index pht` holds the paper's
//! baseline to the very trace an LHT soak of the same seed runs.
//!
//! Exits non-zero on the first divergence or invariant violation,
//! printing the failing op and the one-line replay command. The
//! `--drop/--net-seed/--mloss` flags replay chaos-test failures: they
//! wrap the substrate in the seeded lossy network the failing soak
//! ran under.

use std::io::{self, Write};

use lht::harness::args::Parsed;
use lht::harness::{run_soak, SoakOptions, SoakReport, SubstrateKind};

use crate::cli::bad_usage;
use crate::Table;

const COLUMNS: &[&str] = &[
    "substrate",
    "ops",
    "mutations",
    "queries",
    "churn",
    "audits",
    "records",
    "drops",
    "retries",
    "first_fails",
    "repairs",
    "verdict",
];

/// `lht-exp audit-soak`: soaks each selected substrate and prints one
/// verdict row per soak; exits 1 if any soak diverged, printing the
/// failing op and its one-line replay command.
pub(crate) fn cmd(p: &Parsed, out: &mut dyn Write) -> io::Result<i32> {
    let soaks = SoakOptions::from_args(p).map_err(bad_usage)?;
    let first = soaks[0];
    let mut t = Table::new(
        format!(
            "audit soak — {}, seed {}, {} ops, theta {}, drop {}",
            first.index,
            first.seed,
            first.ops,
            first.theta,
            p.prob("--drop")
        ),
        COLUMNS,
    );
    let mut failed = false;
    for opts in soaks {
        let substrate = opts.substrate;
        eprintln!(
            "soaking {} over {substrate} ({} ops)…",
            opts.index, opts.ops
        );
        match run_soak(&opts) {
            Ok(report) => push_report(&mut t, substrate, &report),
            Err(failure) => {
                failed = true;
                eprintln!("{failure}");
                // The failing op's index in the ops column, dashes in
                // every counter, the verdict last.
                let mut row = vec![substrate.to_string(), failure.op_index.to_string()];
                row.resize(COLUMNS.len() - 1, "-".into());
                row.push("FAILED".into());
                t.push_row(row);
            }
        }
    }
    write!(out, "{}", t.render())?;
    Ok(failed as i32)
}

fn push_report(t: &mut Table, substrate: SubstrateKind, r: &SoakReport) {
    t.push_row(vec![
        substrate.to_string(),
        r.applied.to_string(),
        r.mutations.to_string(),
        r.queries.to_string(),
        r.churn_events.to_string(),
        r.audits.to_string(),
        r.final_records.to_string(),
        (r.drops + r.timeouts).to_string(),
        r.retries.to_string(),
        r.first_attempt_failures.to_string(),
        r.repair_transfers.to_string(),
        "ok".into(),
    ]);
}
