//! Deterministic simulation of concurrent LHT clients with a
//! linearizability checker over the recorded operation histories.
//!
//! `tests/concurrency.rs` exercises real threads, so any failure it
//! finds is an unreproducible one-off. This crate replaces wall-clock
//! nondeterminism with a **virtual-clock, single-threaded scheduler**
//! ([`simulate`]): N logical clients issuing
//! insert/remove/lookup/range/min-max against one
//! [`LhtIndex`](lht_core::LhtIndex) over a Chord ring, interleaved with Chord
//! stabilization rounds, replica key-sync rounds, and node
//! join/leave churn — every interleaving decision drawn from one
//! `u64` seed, so a run is a pure function of its [`SimConfig`].
//!
//! The index stack is the production one: the ring is wrapped in
//! [`FaultyDht`](lht_dht::FaultyDht) (seeded drops and latency) and
//! [`RetriedDht`](lht_dht::RetriedDht) (seeded backoff), whose
//! virtual waits — delivery latency, timeout waits, retry backoffs —
//! are charged to the issuing step's duration via
//! [`DhtStats`](lht_dht::DhtStats) deltas. An operation is *atomic at
//! invocation* but its response lands `duration` virtual
//! milliseconds later, so operation intervals genuinely overlap and
//! the recorded history is a real concurrent history. Each client's
//! plan is a list of [`HistoryCall`](lht_core::HistoryCall)s; the
//! scheduler runs them through the index's
//! [`Executor`](lht_core::Executor) and keeps the stamped
//! [`OpRecord`](lht_core::OpRecord)s itself — the index records
//! nothing.
//!
//! The [`checker`] then decides whether that history is
//! **linearizable** against
//! [`ShadowOracle::apply`](lht::harness::ShadowOracle::apply), the
//! sequential spec the differential soak also diffs against — a
//! Wing–Gong search with memoization. On a
//! violation, the schedule is greedily [shrunk](shrink) and the
//! report carries a one-line replay command reproducing the minimized
//! interleaving exactly.
//!
//! # Seed replay
//!
//! ```text
//! cargo run --release -p lht-bench -- sim-explore \
//!     --seed 42 --clients 4 --ops 50 --nodes 12 --churn 4
//! ```
//!
//! appending `--schedule 0,2,1,...` replays an explicit (possibly
//! minimized) interleaving instead of the seed-derived one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod checker;
mod config;
mod plan;
mod scheduler;
mod shrink;

pub use config::SimConfig;
pub use lht::harness::Mutant;
pub use scheduler::{replay_schedule, simulate, SimReport, SimVerdict};
pub use shrink::shrink;
