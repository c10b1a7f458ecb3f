//! RST — the Range Search Tree baseline.
//!
//! RST (Gao & Steenkiste, ICNP 2004) is the LHT paper's example of
//! the query-efficiency extreme (§1–§2): it "gives each tree node the
//! entire knowledge of global index tree", buying **one-hop
//! exact-match queries** and bandwidth-optimal, single-round range
//! queries — at the price that "a node splitting can cause a
//! broadcasting to all tree nodes, incurring extremely high bandwidth
//! cost".
//!
//! This implementation models that trade faithfully over the same
//! [`Dht`](lht_dht::Dht) interface as the other indexes:
//!
//! * every leaf bucket's DHT entry carries a copy of the **global
//!   structure** (the set of live leaf labels);
//! * query clients are peers, so they answer "which leaf covers δ?"
//!   locally from their structure copy and pay exactly one DHT-lookup
//!   per target leaf (range queries fetch all covered leaves in one
//!   parallel round);
//! * a split must **broadcast** the structure change: one DHT-update
//!   per live leaf, so maintenance cost grows linearly with index
//!   size — the §2 claim the experiment E10 quantifies.
//!
//! # Examples
//!
//! ```
//! use lht_core::{KeyInterval, LhtConfig, LhtError};
//! use lht_dht::DirectDht;
//! use lht_id::KeyFraction;
//! use lht_rst::RstIndex;
//!
//! let dht = DirectDht::new();
//! let rst = RstIndex::new(&dht, LhtConfig::new(8, 20))?;
//! for i in 0..100u32 {
//!     rst.insert(KeyFraction::from_f64(i as f64 / 100.0), i)?;
//! }
//! // One-hop exact match.
//! let (value, cost) = rst.exact_match(KeyFraction::from_f64(0.25))?;
//! assert_eq!(value, Some(25));
//! assert_eq!(cost.dht_lookups, 1);
//! # Ok::<(), LhtError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod index;

pub use index::{RstIndex, RstNode, RstRangeResult};
