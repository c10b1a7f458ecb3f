//! DST — the Distributed Segment Tree baseline.
//!
//! DST (Zheng, Shen, Li & Shenker, IPTPS 2006) is the second over-DHT
//! index the LHT paper discusses (§2): a segment tree of fixed height
//! whose **every node is a DHT entry**, with each key *replicated
//! across all ancestors of its leaf*. Range queries decompose the
//! interval into its minimal canonical segment cover and fetch all
//! cover nodes **in parallel** — one round of DHT-lookups, the best
//! latency of any scheme here — but, as the LHT paper puts it, *"due
//! to replication, data insertion in DST is inefficient"*: every
//! insertion pays one DHT-put per tree level.
//!
//! This implementation includes DST's *downward load stripping*: an
//! interior node stores at most `node_capacity` keys; once it
//! saturates it permanently delegates to its children, and queries
//! that meet a saturated node descend (paying extra rounds). Leaves
//! never refuse keys, so answers stay exact.
//!
//! The experiment binary `lht-exp baselines` uses this crate to extend
//! the paper's Fig. 7–10 comparison with the DST column its §2
//! qualitatively describes.
//!
//! # Examples
//!
//! ```
//! use lht_core::{KeyInterval, LhtError};
//! use lht_dht::DirectDht;
//! use lht_dst::{DstConfig, DstIndex};
//! use lht_id::KeyFraction;
//!
//! let dht = DirectDht::new();
//! let dst = DstIndex::new(&dht, DstConfig::default())?;
//! for i in 0..100u32 {
//!     dst.insert(KeyFraction::from_f64(i as f64 / 100.0), i)?;
//! }
//! let hits = dst.range(KeyInterval::half_open(
//!     KeyFraction::from_f64(0.25),
//!     KeyFraction::from_f64(0.75),
//! ))?;
//! assert_eq!(hits.records.len(), 50);
//! # Ok::<(), LhtError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod index;
mod segment;

pub use index::{DstConfig, DstIndex, DstNode, DstRangeResult};
pub use segment::{canonical_cover, Segment};
