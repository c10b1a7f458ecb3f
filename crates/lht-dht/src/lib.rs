//! Simulated DHT substrates for over-DHT indexing schemes.
//!
//! The LHT paper (§2) defines the *over-DHT paradigm*: index structures
//! built purely on the `put`/`get` interface of a generic DHT, adaptable
//! to any substrate. This crate provides that interface — the [`Dht`]
//! trait — together with two substrates:
//!
//! * [`DirectDht`] — a one-hop oracle (a single consistent-hash ring
//!   partition backed by a map). All index-level metrics in the paper
//!   (DHT-lookup counts, moved records, parallel steps) are counted
//!   *above* this interface and are therefore identical on any
//!   substrate; the paper itself notes (footnote 5) that its
//!   measurements are independent of the underlying network scale.
//! * [`ChordDht`] — a faithful in-process Chord ring: 160-bit
//!   identifier space, finger tables, successor lists, iterative
//!   lookups with per-hop accounting, node join/leave/crash and
//!   stabilization. Use it when hop-level behaviour or churn matters.
//!   The handle is `Sync`: real client threads share one `&ChordDht`
//!   (experiment E19).
//!
//! Every operation reports its cost through [`DhtStats`], which the
//! index layers diff around operations to attribute costs the way the
//! paper's cost model (§8) does.
//!
//! Delivery is perfect by default. To study behaviour on a lossy
//! network — the conditions of the paper's LAN deployment (§9) —
//! wrap any substrate in [`FaultyDht`] (seeded drops, latency and
//! timeouts per a [`NetProfile`]) and layer
//! [`RetriedDht`] (bounded attempts, seeded exponential backoff per a
//! [`RetryPolicy`]) on top to mask the transient failures. On the
//! outside, [`CachedDht`] adds a churn-safe key → owner location cache
//! that shortcuts full iterative routing to a verified 1-hop probe
//! (D1HT-style single-hop lookups without proactive maintenance
//! traffic).
//!
//! # Examples
//!
//! ```
//! use lht_dht::{Dht, DhtKey, DirectDht};
//!
//! let dht: DirectDht<String> = DirectDht::new();
//! dht.put(&DhtKey::from("#0"), "root bucket".to_string())?;
//! assert_eq!(dht.get(&DhtKey::from("#0"))?, Some("root bucket".to_string()));
//! assert_eq!(dht.stats().lookups(), 2); // one put + one get
//! # Ok::<(), lht_dht::DhtError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod cache;
mod chord;
mod direct;
mod erasure;
mod error;
mod fault;
pub mod gf256;
mod key;
mod lru;
mod quorum;
mod retry;
mod slots;
mod stats;
mod store;
mod tower;
mod traits;

pub use cache::CachedDht;
pub use chord::{ChordConfig, ChordDht, RingSnapshot, RingViolation};
pub use direct::DirectDht;
pub use erasure::{
    fragment_key, split_fragment_key, ErasureConfig, ErasureDht, ErasurePayload, Fragment,
};
pub use error::DhtError;
pub use fault::{FaultyDht, LatencyProfile, NetProfile};
pub use key::DhtKey;
pub use lru::Lru;
pub use quorum::{slot_key, split_slot_key, QuorumConfig, QuorumDht, Versioned};
pub use retry::{Backoffs, RetriedDht, RetryPolicy};
pub use stats::{DhtOp, DhtStats};
pub use store::{node_store, KeyHasher, KeyHasherBuilder, NodeStore};
pub use tower::{client_tower, BoxDht, RingControl, TierMaintenance};
pub use traits::{Dht, Probe};
