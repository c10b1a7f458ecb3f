//! LHT — a Low-maintenance Hash Tree for data indexing over DHTs.
//!
//! This umbrella crate re-exports the whole workspace reproducing
//! *"LHT: A Low-Maintenance Indexing Scheme over DHTs"* (Tang & Zhou,
//! ICDCS 2008):
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `lht-core` | The LHT index: naming function, buckets, lookup, range, min/max, bulk loading |
//! | [`pht`] | `lht-pht` | The PHT baseline with sequential + parallel range queries |
//! | [`dst`] | `lht-dst` | The DST baseline: ancestor-replicated segment tree (§2) |
//! | [`rst`] | `lht-rst` | The RST baseline: globally-replicated structure, one-hop queries, broadcast maintenance (§2) |
//! | [`dht`] | `lht-dht` | DHT substrates: one-hop oracle and a Chord ring simulator |
//! | [`kad`] | `lht-kad` | A Kademlia (XOR-metric) substrate — the portability proof |
//! | [`id`] | `lht-id` | U160 ring arithmetic, SHA-1, key fractions, bit strings |
//! | [`workload`] | `lht-workload` | Uniform / gaussian / zipf datasets, query generators |
//! | [`cost`] | `lht-cost` | The §8 cost model and Eq. 3 saving ratio |
//! | [`sfc`] | `lht-sfc` | Z-order curve 2-D extension (paper footnote 1) |
//!
//! The most common types are re-exported at the top level.
//!
//! # Quickstart
//!
//! ```
//! use lht::{DirectDht, KeyFraction, KeyInterval, LhtConfig, LhtIndex};
//!
//! let dht = DirectDht::new();
//! let index = LhtIndex::new(&dht, LhtConfig::default())?;
//! index.insert(KeyFraction::from_f64(0.42), "answer")?;
//! let hits = index.range(KeyInterval::half_open(
//!     KeyFraction::from_f64(0.4),
//!     KeyFraction::from_f64(0.5),
//! ))?;
//! assert_eq!(hits.records.len(), 1);
//! # Ok::<(), lht::LhtError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod harness;

pub use lht_core as core;
pub use lht_cost as cost;
pub use lht_dht as dht;
pub use lht_dst as dst;
pub use lht_id as id;
pub use lht_kad as kad;
pub use lht_pht as pht;
pub use lht_rst as rst;
pub use lht_sfc as sfc;
pub use lht_workload as workload;

pub use lht_core::{
    audit, Executor, HistoryCall, HistoryRecorder, HistoryReturn, IndexStats, KeyInterval, Label,
    LeafBucket, LhtConfig, LhtError, LhtIndex, NamingCache, NamingCacheStats,
};
pub use lht_cost::CostModel;
pub use lht_dht::{
    fragment_key, slot_key, split_fragment_key, split_slot_key, CachedDht, ChordConfig, ChordDht,
    Dht, DhtError, DhtKey, DhtStats, DirectDht, ErasureConfig, ErasureDht, ErasurePayload,
    FaultyDht, Fragment, LatencyProfile, NetProfile, Probe, QuorumConfig, QuorumDht, RetriedDht,
    RetryPolicy, Versioned,
};
pub use lht_dst::{DstConfig, DstIndex};
pub use lht_id::{KeyFraction, U160};
pub use lht_kad::KademliaDht;
pub use lht_pht::PhtIndex;
pub use lht_sfc::{Lht2d, Point, Rect};
pub use lht_workload::KeyDist;
