//! Workload generators for the LHT experiments (paper §9.1).
//!
//! The paper evaluates on synthetic one-dimensional datasets:
//! *uniform* keys in `[0, 1]` and *gaussian* keys with mean `1/2` and
//! standard deviation `1/6` ("which guarantees that about 97% key
//! values fall in `[0, 1]`"); range queries pick a lower bound
//! uniformly in `[0, 1 − span]` for a given span. This crate
//! regenerates those workloads deterministically from seeds, plus a
//! Zipf-skewed distribution used by the extension experiments.
//!
//! # Examples
//!
//! ```
//! use lht_workload::{Dataset, KeyDist, RangeQueryGen};
//!
//! let data = Dataset::generate(KeyDist::Uniform, 1000, 42);
//! assert_eq!(data.len(), 1000);
//!
//! let gauss = Dataset::generate(KeyDist::gaussian_paper(), 1000, 42);
//! // Gaussian mass concentrates around 1/2.
//! let mid = gauss.keys().iter().filter(|k| {
//!     let x = k.to_f64();
//!     (0.25..0.75).contains(&x)
//! }).count();
//! assert!(mid > 800);
//!
//! let mut queries = RangeQueryGen::new(0.1, 7);
//! let q = queries.next_range();
//! assert!((q.lo_key().to_f64()) <= 0.9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod dataset;
mod dist;
mod query;
pub mod summary;

pub use dataset::Dataset;
pub use dist::KeyDist;
pub use query::{LookupGen, RangeQueryGen};
