//! One module per reproduced figure/table of the paper's §9.

pub mod audit_soak;
pub mod balance;
pub mod baselines;
pub mod batch_speedup;
pub mod bulk;
pub mod churn;
pub(crate) mod common;
pub mod deletion;
pub mod erasure;
pub mod fault_sweep;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9_10;
pub mod hops;
pub mod paper_scale;
pub mod quorum;
pub mod route_cache;
pub mod saving;
pub mod sim_explore;
pub mod snapshot;
pub mod threaded;

pub use common::{GrowthCheckpoint, GrowthRun};
