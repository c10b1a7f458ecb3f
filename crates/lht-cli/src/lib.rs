//! REPL engine for driving an LHT index interactively.
//!
//! The binary (`lht-repl`) wires this engine to stdin/stdout; the
//! engine itself is a pure `command in → text out` function so the
//! whole surface is unit-testable and scriptable:
//!
//! ```
//! use lht_cli::{Repl, Substrate};
//!
//! let mut repl = Repl::new(Substrate::Direct, 42);
//! assert!(repl.eval("load 100 uniform").contains("inserted 100"));
//! assert!(repl.eval("range 0.0 0.5").contains("records"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod any_dht;
mod repl;

pub use repl::{Repl, Substrate};
