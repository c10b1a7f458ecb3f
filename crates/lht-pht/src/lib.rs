//! PHT — the Prefix Hash Tree baseline.
//!
//! PHT (Ramabhadran, Ratnasamy, Hellerstein & Shenker, PODC 2004;
//! Chawathe et al., SIGCOMM 2005) is the over-DHT index the LHT paper
//! compares against, being *"the state-of-the-art indexing scheme with
//! respect to maintenance efficiency"* (§9). This crate implements it
//! from scratch over the same [`Dht`](lht_dht::Dht) interface so the
//! two schemes can be compared measurement-for-measurement.
//!
//! # Structure
//!
//! PHT is a binary trie over the key's leading bits. **Every** trie
//! node — internal or leaf — has a DHT entry under its prefix string;
//! leaves hold records plus B+-tree-style `prev`/`next` links to
//! neighboring leaves.
//!
//! The contrast with LHT is exactly the paper's §8.2 analysis:
//!
//! * **Split** — a PHT leaf split changes *both* children's labels,
//!   so both buckets move to other peers (2 DHT-puts, ≈ `θ_split`
//!   records), the old label is re-marked internal, and the two leaf
//!   links on either side must be rewired (2 more DHT-lookups):
//!   `Ψ_PHT = θ·ı + 4·ȷ`, versus LHT's `½θ·ı + 1·ȷ`.
//! * **Lookup** — binary search over all `D + 1` candidate prefix
//!   lengths (`log D` probes), versus LHT's `log(D/2)` thanks to
//!   name-sharing.
//! * **Range** — [`PhtIndex::range_sequential`] walks the leaf links
//!   (near-optimal bandwidth, latency linear in the number of
//!   buckets); [`PhtIndex::range_parallel`] fans out through the trie
//!   (low latency, roughly double the bandwidth since internal nodes
//!   are visited too).
//!
//! # Examples
//!
//! ```
//! use lht_core::{KeyInterval, LhtConfig};
//! use lht_dht::DirectDht;
//! use lht_id::KeyFraction;
//! use lht_pht::PhtIndex;
//!
//! let dht = DirectDht::new();
//! let pht = PhtIndex::new(&dht, LhtConfig::new(4, 20))?;
//! for i in 0..100u32 {
//!     pht.insert(KeyFraction::from_f64(i as f64 / 100.0), i)?;
//! }
//! let r = pht.range_sequential(KeyInterval::half_open(
//!     KeyFraction::from_f64(0.25),
//!     KeyFraction::from_f64(0.75),
//! ))?;
//! assert_eq!(r.records.len(), 50);
//! # Ok::<(), lht_core::LhtError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod audit;
mod index;
mod node;
mod range;

pub use index::{PhtIndex, PhtInsertOutcome, PhtLookupHit};
pub use node::{PhtLabel, PhtLeaf, PhtNode};
pub use range::PhtRangeResult;
