//! One module per reproduced figure/table of the paper's §9.

pub(crate) mod audit_soak;
pub(crate) mod balance;
pub(crate) mod baselines;
pub(crate) mod batch_speedup;
pub(crate) mod bulk;
pub(crate) mod churn;
pub(crate) mod common;
pub(crate) mod deletion;
pub(crate) mod erasure;
pub(crate) mod fault_sweep;
pub(crate) mod fig6;
pub(crate) mod fig7;
pub(crate) mod fig8;
pub(crate) mod fig9_10;
pub(crate) mod hops;
pub(crate) mod paper_scale;
pub(crate) mod quorum;
pub(crate) mod route_cache;
pub(crate) mod saving;
pub(crate) mod sim_explore;
pub(crate) mod snapshot;
pub(crate) mod threaded;

pub(crate) use common::GrowthRun;
