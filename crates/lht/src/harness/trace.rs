//! Deterministic operation traces.
//!
//! A [`Trace`] is the unit of replay: a seed plus the operation list
//! generated from it. The generator is fully deterministic — the same
//! [`TraceConfig`] always yields the same trace — so a failing soak is
//! reproduced by a single seed.

use lht_core::HistoryCall;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One operation of a differential run: an index call, or a ring
/// membership event.
///
/// Index calls carry raw key bits, which the index interprets via
/// [`KeyFraction::from_bits`](crate::KeyFraction::from_bits). Churn
/// ops apply only on substrates with membership (the Chord ring) and
/// are skipped elsewhere.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Op {
    /// One index operation. A range with `hi: None` is `[lo, 2^64)`,
    /// the top-of-space boundary a half-open range cannot express.
    Index(HistoryCall<u32>),
    /// A new node joins the ring (the number makes its name unique).
    Join(u32),
    /// The `n mod live-nodes`-th node leaves gracefully.
    Leave(u32),
    /// Run stabilization until routing state converges.
    Stabilize,
}

impl std::fmt::Display for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Op::Index(HistoryCall::Insert { key, value }) => write!(f, "i:{key}:{value}"),
            Op::Index(HistoryCall::Remove { key }) => write!(f, "r:{key}"),
            Op::Index(HistoryCall::Get { key }) => write!(f, "l:{key}"),
            Op::Index(HistoryCall::Range { lo, hi: Some(hi) }) => write!(f, "q:{lo}:{hi}"),
            Op::Index(HistoryCall::Range { lo, hi: None }) => write!(f, "qe:{lo}"),
            Op::Index(HistoryCall::Min) => write!(f, "min"),
            Op::Index(HistoryCall::Max) => write!(f, "max"),
            Op::Join(n) => write!(f, "join:{n}"),
            Op::Leave(n) => write!(f, "leave:{n}"),
            Op::Stabilize => write!(f, "stab"),
        }
    }
}

fn range(lo: u64, hi: Option<u64>) -> Op {
    Op::Index(HistoryCall::Range { lo, hi })
}

/// Parameters of the deterministic trace generator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct TraceConfig {
    /// The seed everything derives from.
    pub(crate) seed: u64,
    /// Number of operations to generate.
    pub(crate) len: usize,
    /// Whether to interleave ring churn (join/leave/stabilize).
    pub(crate) churn: bool,
}

/// A generated operation stream plus the seed it came from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Trace {
    /// The generator seed.
    pub(crate) seed: u64,
    /// The operations, in application order.
    pub(crate) ops: Vec<Op>,
}

/// Keys the generator gravitates towards: the partition-tree
/// boundaries where off-by-one bugs live.
const BOUNDARY_KEYS: [u64; 6] = [0, 1, 1 << 63, (1 << 63) - 1, u64::MAX - 1, u64::MAX];

/// Generates the deterministic trace for `cfg`.
///
/// The stream interleaves mutations (inserts biased over removes so
/// the tree both grows and shrinks through split/merge cycles),
/// queries (lookups of known and unknown keys; ranges that are empty,
/// narrow, leaf-straddling, deep-LCA and full-space; min/max), and —
/// with `churn` — ring membership events followed eventually by
/// stabilization. Key choice mixes fresh random keys, re-use of
/// previously-touched keys (so removes and lookups hit), clustered
/// keys sharing long prefixes (driving deep splits), and exact
/// partition boundaries.
pub(crate) fn generate(cfg: &TraceConfig) -> Trace {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut ops = Vec::with_capacity(cfg.len);
    let mut touched: Vec<u64> = Vec::new();
    let mut join_counter: u32 = 0;
    // A per-trace cluster prefix: keys agreeing on their top 40 bits.
    let cluster_base: u64 = rng.gen::<u64>() & !0xFF_FFFF;

    let pick_key = |rng: &mut StdRng, touched: &Vec<u64>| -> u64 {
        match rng.gen_range(0u32..100) {
            // Re-touch a known key.
            0..=44 if !touched.is_empty() => touched[rng.gen_range(0..touched.len())],
            // Partition boundaries.
            45..=54 => BOUNDARY_KEYS[rng.gen_range(0..BOUNDARY_KEYS.len())],
            // Clustered: long shared prefix, forcing deep splits.
            55..=74 => cluster_base | (rng.gen::<u64>() & 0xFF_FFFF),
            // Fresh uniform.
            _ => rng.gen(),
        }
    };

    let mut dirty_ring = false;
    for _ in 0..cfg.len {
        let roll = rng.gen_range(0u32..100);
        let op = match roll {
            0..=39 => {
                let key = pick_key(&mut rng, &touched);
                touched.push(key);
                Op::Index(HistoryCall::Insert {
                    key,
                    value: rng.gen(),
                })
            }
            40..=59 => Op::Index(HistoryCall::Remove {
                key: pick_key(&mut rng, &touched),
            }),
            60..=71 => Op::Index(HistoryCall::Get {
                key: pick_key(&mut rng, &touched),
            }),
            72..=89 => {
                let a = pick_key(&mut rng, &touched);
                match rng.gen_range(0u32..6) {
                    // Empty range.
                    0 => range(a, Some(a)),
                    // Narrow window around a known key.
                    1 => range(a.saturating_sub(8), Some(a.saturating_add(8))),
                    // Deep-LCA: both bounds in one tiny cell.
                    2 => {
                        let b = a ^ (rng.gen::<u64>() & 0xFF);
                        range(a.min(b), Some(a.max(b)))
                    }
                    // Closed at the top of the key space.
                    3 => range(a, None),
                    // Arbitrary span.
                    _ => {
                        let b = pick_key(&mut rng, &touched);
                        range(a.min(b), Some(a.max(b)))
                    }
                }
            }
            90..=92 => Op::Index(HistoryCall::Min),
            93..=95 => Op::Index(HistoryCall::Max),
            _ if cfg.churn => {
                // Membership events; stabilize with the same odds so
                // the ring repeatedly re-converges mid-trace.
                match rng.gen_range(0u32..3) {
                    0 => {
                        join_counter += 1;
                        dirty_ring = true;
                        Op::Join(join_counter)
                    }
                    1 => {
                        dirty_ring = true;
                        Op::Leave(rng.gen::<u32>())
                    }
                    _ => {
                        dirty_ring = false;
                        Op::Stabilize
                    }
                }
            }
            _ => Op::Index(HistoryCall::Get {
                key: pick_key(&mut rng, &touched),
            }),
        };
        ops.push(op);
    }
    // Leave the ring converged so end-of-run audits check the strict
    // converged-state invariants.
    if dirty_ring {
        ops.push(Op::Stabilize);
    }
    Trace {
        seed: cfg.seed,
        ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = TraceConfig {
            seed: 99,
            len: 500,
            churn: true,
        };
        assert_eq!(generate(&cfg), generate(&cfg));
        let other = TraceConfig { seed: 100, ..cfg };
        assert_ne!(generate(&cfg), generate(&other));
    }

    #[test]
    fn generated_mix_covers_all_op_kinds() {
        let cfg = TraceConfig {
            seed: 3,
            len: 4000,
            churn: true,
        };
        let trace = generate(&cfg);
        let has = |f: &dyn Fn(&Op) -> bool| trace.ops.iter().any(f);
        let call =
            |f: &dyn Fn(&HistoryCall<u32>) -> bool| has(&|o| matches!(o, Op::Index(c) if f(c)));
        assert!(call(&|c| matches!(c, HistoryCall::Insert { .. })));
        assert!(call(&|c| matches!(c, HistoryCall::Remove { .. })));
        assert!(call(&|c| matches!(c, HistoryCall::Get { .. })));
        assert!(call(&|c| matches!(
            c,
            HistoryCall::Range { hi: Some(_), .. }
        )));
        assert!(call(&|c| matches!(c, HistoryCall::Range { hi: None, .. })));
        assert!(call(&|c| matches!(c, HistoryCall::Min)));
        assert!(call(&|c| matches!(c, HistoryCall::Max)));
        assert!(has(&|o| matches!(o, Op::Join(..))));
        assert!(has(&|o| matches!(o, Op::Leave(..))));
        assert!(has(&|o| matches!(o, Op::Stabilize)));
    }

    #[test]
    fn churnless_traces_have_no_membership_ops() {
        let cfg = TraceConfig {
            seed: 5,
            len: 2000,
            churn: false,
        };
        let trace = generate(&cfg);
        assert!(!trace
            .ops
            .iter()
            .any(|o| matches!(o, Op::Join(..) | Op::Leave(..) | Op::Stabilize)));
    }
}
