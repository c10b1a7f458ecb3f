//! A Kademlia DHT substrate.
//!
//! The LHT paper's central portability claim (§1, §2) is that an
//! over-DHT index "relies only on the put/get interface of generic
//! DHTs, and can be easily adapted to various DHT substrates". The
//! workspace already provides a ring-structured substrate
//! ([`ChordDht`](lht_dht::ChordDht)); this crate adds a *structurally
//! different* one — Kademlia (Maymounkov & Mazières, IPTPS 2002), the
//! XOR-metric DHT behind BitTorrent's Mainline — implementing the same
//! [`Dht`](lht_dht::Dht) trait, so `LhtIndex<KademliaDht<_>, V>`
//! compiles and runs unchanged.
//!
//! The simulation is message-step faithful: per-node routing tables of
//! 160 k-buckets, iterative `FIND_NODE` lookups with α-parallel
//! probing (each probed contact costs one hop) and k-closest
//! replication. The network is static, converged at construction;
//! membership churn is Chord's.
//!
//! # Examples
//!
//! ```
//! use lht_dht::{Dht, DhtKey};
//! use lht_kad::KademliaDht;
//!
//! let dht: KademliaDht<String> = KademliaDht::with_nodes(32, 7);
//! dht.put(&DhtKey::from("#0"), "bucket".into())?;
//! assert_eq!(dht.get(&DhtKey::from("#0"))?, Some("bucket".into()));
//! # Ok::<(), lht_dht::DhtError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod kad;

pub use kad::KademliaDht;
