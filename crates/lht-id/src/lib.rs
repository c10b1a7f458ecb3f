//! Identifier machinery for the LHT reproduction.
//!
//! This crate provides the low-level value types shared by every other
//! crate in the workspace:
//!
//! * [`U160`] — a 160-bit unsigned integer used as the DHT identifier
//!   space (the same width as SHA-1 digests, as in Chord and Bamboo).
//! * [`Sha1`] / [`sha1`] — a from-scratch FIPS 180-1 SHA-1
//!   implementation used for consistent hashing of DHT keys and node
//!   names.
//! * [`KeyFraction`] — an exact binary fixed-point representation of a
//!   data key `δ ∈ [0, 1)`, the data model of the LHT paper (§3.1).
//! * [`BitStr`] — a compact bit string of up to 128 bits used for tree
//!   node labels and trie paths.
//!
//! # Examples
//!
//! ```
//! use lht_id::{sha1, BitStr, KeyFraction};
//!
//! let id = sha1(b"#0110");
//! assert_eq!(id.to_hex().len(), 40);
//!
//! let delta = KeyFraction::from_f64(0.4);
//! assert!((delta.to_f64() - 0.4).abs() < 1e-12);
//!
//! let label: BitStr = "0110".parse().unwrap();
//! assert_eq!(label.len(), 4);
//! ```

// `deny` rather than `forbid`: the SHA-NI module carries the crate's
// single, runtime-feature-gated `unsafe` behind a scoped allow.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod bitstr;
mod fraction;
mod sha1;
#[cfg(target_arch = "x86_64")]
mod sha1_shani;
mod u160;

pub use bitstr::{BitStr, ParseBitStrError};
pub use fraction::KeyFraction;
pub use sha1::{sha1, sha1_backend, sha1_compressions, sha1_digest_into, Sha1};
pub use u160::U160;
