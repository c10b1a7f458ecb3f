//! Multi-dimensional indexing over LHT via a space-filling curve.
//!
//! The LHT paper indexes one-dimensional keys and notes (footnote 1)
//! that a 1-D index "can serve as an infrastructure for multi
//! dimensional indexing (e.g., by using SFC)", citing the same
//! technique PHT's authors used. This crate implements that
//! extension: two-dimensional points are mapped onto the unit
//! interval by the **Z-order (Morton) curve**, 2-D box queries are
//! decomposed into a small set of curve intervals, and each interval
//! is answered by an ordinary LHT range query.
//!
//! # Examples
//!
//! ```
//! use lht_core::LhtConfig;
//! use lht_dht::DirectDht;
//! use lht_sfc::{Lht2d, Point, Rect};
//!
//! let dht = DirectDht::new();
//! let ix = Lht2d::new(&dht, LhtConfig::new(8, 30))?;
//! for x in 0..20u32 {
//!     for y in 0..20u32 {
//!         ix.insert(Point::new(x, y), (x, y))?;
//!     }
//! }
//! let hits = ix.box_query(&Rect::new(5, 10, 5, 10))?;
//! assert_eq!(hits.records.len(), 25);
//! # Ok::<(), lht_core::LhtError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod decompose;
mod lht2d;
mod morton;

pub use decompose::{decompose, ZRange};
pub use lht2d::{BoxQueryResult, Lht2d};
pub use morton::{deinterleave, interleave, Point, Rect};
