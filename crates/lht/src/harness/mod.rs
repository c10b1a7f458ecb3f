//! Cross-crate differential-testing and invariant-audit harness.
//!
//! The harness holds the whole workspace to one standard of
//! correctness by driving one deterministic operation trace
//! through:
//!
//! 1. the **index** under test — LHT, or the PHT, DST or RST
//!    baseline ([`IndexKind`]) — over the [`World`] its options name:
//!    the one-hop [`DirectDht`](crate::DirectDht) or a churning
//!    [`ChordDht`](crate::ChordDht) ring, an optional durability
//!    [`Tier`] on either, and the client tower on top, all built by
//!    [`World::build`] (the simulator, `lht-sim`, builds its world by
//!    the same call);
//! 2. a local [`ShadowOracle`] — a plain `BTreeMap` whose semantics
//!    are beyond suspicion.
//!
//! The baselines are held to the paper's §9 standard the same way: a
//! PHT soak (`--index pht`) runs the very trace an LHT soak of the same
//! seed runs, against the same spec and its own trie audit.
//!
//! A trace's index ops are [`HistoryCall`](crate::HistoryCall)s. Every
//! scheme runs them through its one [`Executor`](crate::Executor), and
//! [`ShadowOracle::apply`] is the one sequential spec each answer is
//! diffed against the moment it is produced (the simulator's
//! linearizability checker uses the same spec). A call a scheme has no
//! operation for is skipped on the index and the oracle alike. LHT's
//! range costs are checked against the paper's §6.3 `B + 3` bound,
//! and at a fixed cadence the whole system is audited: Theorem 1
//! bijectivity, interval-partition coverage of `[0, 1)`, record
//! conservation against the oracle, θ-occupancy, PHT trie and chain
//! consistency, and (between churn windows) Chord ring
//! well-formedness.
//!
//! Failures abort with a [`DiffFailure`] carrying the op, the op's
//! index in the trace, and a one-line CLI replay command — any soak
//! is reproducible from its seed alone:
//!
//! ```text
//! cargo run --release -p lht-bench -- audit-soak \
//!     --substrate chord --index lht --seed 42 --ops 10000 --theta 4 \
//!     --nodes 16 --replicas 2 --churn
//! ```
//!
//! # Example
//!
//! ```
//! use lht::harness::{run_soak, SoakOptions, SubstrateKind};
//!
//! let report = run_soak(&SoakOptions {
//!     seed: 7,
//!     ops: 500,
//!     substrate: SubstrateKind::Direct,
//!     ..SoakOptions::default()
//! })
//! .expect("clean soak");
//! assert_eq!(report.applied, 500);
//! ```

pub mod args;
mod differ;
mod oracle;
mod trace;
mod world;

pub use differ::{run_soak, DiffFailure, IndexKind, SoakOptions, SoakReport};
pub use oracle::ShadowOracle;
pub use world::{Mutant, Stored, SubstrateKind, Tier, World, WorldSpec, ERASURE_FLAG, QUORUM_FLAG};
