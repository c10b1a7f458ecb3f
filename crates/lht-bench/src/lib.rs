//! Experiment harness for the LHT paper's evaluation (§9) and the
//! extension experiments E10–E21.
//!
//! One binary, `lht-exp <experiment> [flags]`: every experiment is a
//! row of `cli::EXPERIMENTS` naming its subcommand, EXPERIMENTS.md
//! id, flags, CSVs and the entry point in `experiments` that prints
//! the series the paper plots (an aligned table on stdout, a CSV
//! under `results/`). EXPERIMENTS.md opens with that table rendered;
//! `lht-exp <experiment> --help` prints one row's flags with their
//! defaults and ranges, and `lht-exp ci-smoke [group]` runs the
//! invocations CI runs ([`cli::CI_SMOKE`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod cli;
mod experiments;
mod rss;
mod table;

use table::Table;
