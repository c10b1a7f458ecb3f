//! Experiment harness for the LHT paper's evaluation (§9).
//!
//! Each module under [`experiments`] regenerates one figure or table
//! of the paper; the binaries in `src/bin/` are thin wrappers that
//! parse options, run the experiment and print the same series the
//! paper plots (as an aligned table on stdout and a CSV file under
//! `results/`).
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig6_alpha` | Fig. 6a/6b — average α vs data size and vs θ_split |
//! | `fig7_maintenance` | Fig. 7a/7b — cumulative moved records / maintenance DHT-lookups, LHT vs PHT |
//! | `fig8_lookup` | Fig. 8a/8b — average DHT-lookups per lookup vs data size |
//! | `fig9_range_bandwidth` | Fig. 9a/9b — range-query DHT-lookups vs data size / span |
//! | `fig10_range_latency` | Fig. 10a/10b — range-query parallel steps vs data size / span |
//! | `table_saving_ratio` | §8 Eq. 3 — maintenance saving ratio vs γ, model vs measured |
//!
//! Every binary accepts `--trials N` (datasets averaged per point;
//! the paper used 100) and `--full` (paper-scale data sizes up to
//! 2^20; the default is a faster subset).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod experiments;
mod options;
pub mod rss;
pub mod scatter;
mod table;

pub use options::BenchOpts;
pub use table::{write_csv, Table};
