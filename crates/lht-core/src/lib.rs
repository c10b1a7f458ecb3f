//! LHT — a Low-maintenance Hash Tree for data indexing over DHTs.
//!
//! This crate implements the primary contribution of *"LHT: A
//! Low-Maintenance Indexing Scheme over DHTs"* (Tang & Zhou, ICDCS
//! 2008): an index structure layered purely on a DHT's `put`/`get`
//! interface that supports exact-match, range and min/max queries
//! while paying far less maintenance cost than prior over-DHT indexes
//! (PHT, DST, RST).
//!
//! # How it works
//!
//! 1. A conceptual **space partition tree** (§3.2) splits the key
//!    space `[0, 1)` at interval medians. Only leaves store records;
//!    a leaf holding `θ_split` records splits.
//! 2. Each leaf is a **leaf bucket** ([`LeafBucket`]) carrying its
//!    [`Label`], from which a *local tree* — every ancestor and branch
//!    sibling — is inferable with no extra state (§3.3).
//! 3. The **naming function** [`naming::name`] (§3.4, Theorem 1) maps
//!    leaf labels bijectively onto *internal node* labels, which serve
//!    as DHT keys. The payoff (Theorem 2): when a leaf splits, one
//!    half keeps its DHT key — so a split costs **one** DHT-put,
//!    versus four DHT-lookups plus a full bucket move in PHT (§8.2).
//! 4. Lookups binary-search the candidate prefix lengths of the key's
//!    bit string, skipping prefixes that share a name (§5,
//!    Algorithm 2), in ≈ `log(D/2)` DHT-gets.
//! 5. Range queries forward recursively through branch nodes inferred
//!    from local trees (§6, Algorithms 3–4), taking at most `B + 3`
//!    DHT-lookups for a `B`-bucket range. Min/max queries take one
//!    DHT-lookup (§7, Theorem 3).
//!
//! # Examples
//!
//! ```
//! use lht_core::{KeyInterval, LhtConfig, LhtIndex};
//! use lht_dht::DirectDht;
//! use lht_id::KeyFraction;
//!
//! let dht = DirectDht::new();
//! let index = LhtIndex::new(&dht, LhtConfig::default())?;
//! for i in 0..1000u32 {
//!     let key = KeyFraction::from_f64(i as f64 / 1000.0);
//!     index.insert(key, format!("record {i}"))?;
//! }
//! // Exact-match query.
//! let hit = index.exact_match(KeyFraction::from_f64(0.5))?;
//! assert_eq!(hit.value, Some("record 500".to_string()));
//! // Range query [0.25, 0.26).
//! let range = index.range(KeyInterval::half_open(
//!     KeyFraction::from_f64(0.25),
//!     KeyFraction::from_f64(0.26),
//! ))?;
//! assert_eq!(range.records.len(), 10);
//! // Min / max in one DHT-lookup each (Theorem 3).
//! assert_eq!(index.min()?.value.unwrap().0, KeyFraction::from_f64(0.0));
//! # Ok::<(), lht_core::LhtError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod audit;
mod bucket;
mod bulk;
mod config;
mod cost;
mod error;
mod history;
mod index;
mod interval;
mod label;
pub mod naming;
mod range;

pub use bucket::LeafBucket;
pub use bulk::BulkLoadOutcome;
pub use config::LhtConfig;
pub use cost::{IndexStats, OpCost, RangeCost};
pub use error::LhtError;
pub use history::{
    merge_histories, Executor, HistoryCall, HistoryRecorder, HistoryReturn, OpRecord,
};
pub use index::{
    retry_transient, InsertOutcome, LhtIndex, LookupHit, MatchHit, MinMaxHit, RemoveOutcome,
};
pub use interval::KeyInterval;
pub use label::Label;
pub use naming::{NamingCache, NamingCacheStats};
pub use range::{assemble_runs, RangeResult};
