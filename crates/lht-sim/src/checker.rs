//! Wing–Gong linearizability checking of recorded index histories
//! against the [`ShadowOracle::apply`] sequential specification — the
//! same spec the differential soak diffs every answer against.
//!
//! A history (a list of [`OpRecord`]s with virtual invocation and
//! response times) is **linearizable** iff there is a total order of
//! its operations that (a) respects real time — if `a.resp <
//! b.inv`, `a` precedes `b` — and (b) is a legal sequential
//! execution of the spec, i.e. every operation's recorded return
//! matches what a `BTreeMap` would have answered at its point in the
//! order.
//!
//! The search is the classic Wing & Gong (1993) algorithm with
//! Lowe-style memoization: depth-first over the *minimal-response
//! frontier* (an operation may be linearized next iff no other
//! pending operation responded strictly before it was invoked),
//! caching visited `(linearized-set, oracle-state)` pairs so
//! equivalent prefixes are explored once. A fast path first tries the
//! execution order itself — in a virtual-clock simulation effects
//! land at invocation, so correct code always passes in `O(n)` and
//! the exponential search only runs on real anomalies.
//!
//! # Failed operations
//!
//! * **Strict mode** (perfect network): a failed *read* whose error
//!   indicates the index observed missing data
//!   ([`LookupExhausted`](lht_core::LhtError::LookupExhausted) /
//!   [`MissingBucket`](lht_core::LhtError::MissingBucket)) is mapped
//!   to the concrete claim "observed absent" (`Get → None`,
//!   `Range → []`, `Min/Max → None`). On a fault-free substrate this
//!   is sound — correct code never fails a read — and it is exactly
//!   how torn-split data loss surfaces.
//! * **Lossy mode**: failed reads are dropped (faults are
//!   request-path-only, so a failed read constrains nothing).
//! * **Failed mutations** (either mode) become *optional*
//!   operations: the search may linearize them at any point after
//!   their invocation (the mutation actually landed) or never (it
//!   did not) — the standard treatment of operations without a
//!   response.

use std::collections::HashSet;
use std::time::Instant;

use lht::harness::ShadowOracle;
use lht_core::{
    HistoryCall, HistoryRecorder, HistoryReturn, LeafBucket, LhtConfig, LhtIndex, OpRecord,
};
use lht_dht::ChordDht;

/// The checker's decision about one history.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// A legal linearization exists.
    Linearizable,
    /// The search space was exhausted without finding one.
    NotLinearizable {
        /// Human-readable description of the first inexplicable
        /// operation in execution order (from the fast path).
        witness: String,
    },
    /// The state budget ran out before the search concluded.
    Undecided,
}

/// The result of a [`check`] run.
#[derive(Clone, Debug)]
pub struct CheckResult {
    /// The verdict.
    pub outcome: Outcome,
    /// Operations actually checked (after mode preprocessing).
    pub ops: usize,
    /// States visited by the search (0 when the fast path decided).
    pub states: u64,
}

#[derive(Clone, Debug)]
struct CheckOp {
    inv: u64,
    resp: u64,
    call: HistoryCall<u32>,
    ret: HistoryReturn<u32>,
    /// A failed mutation: may be linearized anywhere after `inv`, or
    /// omitted entirely; its return is not checked.
    optional: bool,
}

/// The "observed absent" claim a data-loss read failure maps to in
/// strict mode.
fn absent_claim(call: &HistoryCall<u32>) -> HistoryReturn<u32> {
    match call {
        HistoryCall::Get { .. } => HistoryReturn::Value { value: None },
        HistoryCall::Range { .. } => HistoryReturn::Records {
            records: Vec::new(),
        },
        HistoryCall::Min | HistoryCall::Max => HistoryReturn::Extreme { record: None },
        _ => unreachable!("mutations never map to absent claims"),
    }
}

fn preprocess(history: &[OpRecord<u32>], strict: bool) -> Vec<CheckOp> {
    let mut ops = Vec::with_capacity(history.len());
    for rec in history {
        match &rec.ret {
            HistoryReturn::Failed { data_loss } => {
                if rec.call.is_mutation() {
                    ops.push(CheckOp {
                        inv: rec.inv,
                        resp: u64::MAX,
                        call: rec.call.clone(),
                        ret: rec.ret.clone(),
                        optional: true,
                    });
                } else if strict && *data_loss {
                    ops.push(CheckOp {
                        inv: rec.inv,
                        resp: rec.resp,
                        ret: absent_claim(&rec.call),
                        call: rec.call.clone(),
                        optional: false,
                    });
                }
                // Other failed reads constrain nothing: drop them.
            }
            _ => ops.push(CheckOp {
                inv: rec.inv,
                resp: rec.resp,
                call: rec.call.clone(),
                ret: rec.ret.clone(),
                optional: false,
            }),
        }
    }
    ops
}

fn describe(op: &CheckOp, expected: &HistoryReturn<u32>) -> String {
    format!(
        "op {:?} invoked at t={} returned {:?}, but every linearization \
         consistent with real time expects {:?} at that point",
        op.call, op.inv, op.ret, expected
    )
}

/// FNV-1a over the oracle contents, the state half of the memo key.
fn state_hash(state: &ShadowOracle) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (k, v) in state.records() {
        for word in [k, v as u64] {
            h ^= word;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

struct Search<'a> {
    ops: &'a [CheckOp],
    memo: HashSet<(Vec<u64>, u64)>,
    states: u64,
    budget: u64,
    exhausted: bool,
}

impl Search<'_> {
    fn dfs(&mut self, done: &mut Vec<u64>, state: &ShadowOracle) -> bool {
        if self
            .ops
            .iter()
            .enumerate()
            .all(|(i, op)| op.optional || done[i / 64] >> (i % 64) & 1 == 1)
        {
            return true;
        }
        if self.states >= self.budget {
            self.exhausted = true;
            return false;
        }
        let key = (done.clone(), state_hash(state));
        if !self.memo.insert(key) {
            return false;
        }
        self.states += 1;

        // The minimal-response frontier: `o` may go next iff no other
        // pending operation responded strictly before `o`'s
        // invocation. (min over all pending responses is equivalent:
        // `o`'s own response never undercuts its own invocation.)
        let min_resp = self
            .ops
            .iter()
            .enumerate()
            .filter(|(i, _)| done[i / 64] >> (i % 64) & 1 == 0)
            .map(|(_, op)| op.resp)
            .min()
            .unwrap_or(u64::MAX);
        for (i, op) in self.ops.iter().enumerate() {
            if done[i / 64] >> (i % 64) & 1 == 1 || op.inv > min_resp {
                continue;
            }
            let mut next = state.clone();
            let expected = next.apply(&op.call);
            if !op.optional && expected != op.ret {
                continue;
            }
            done[i / 64] |= 1 << (i % 64);
            let found = self.dfs(done, &next);
            done[i / 64] &= !(1 << (i % 64));
            if found {
                return true;
            }
        }
        false
    }
}

/// Checks one recorded history for linearizability. `strict` selects
/// the fault-free interpretation of failed reads (see the
/// [module docs](self)); `budget` bounds the number of search states.
pub fn check(history: &[OpRecord<u32>], strict: bool, budget: u64) -> CheckResult {
    let ops = preprocess(history, strict);

    // Fast path: the execution order itself (records are appended in
    // invocation order under a monotone virtual clock, and an
    // invocation-ordered linearization always respects real time).
    // Optional operations are taken as never having happened.
    let mut state = ShadowOracle::new();
    let mut first_mismatch = None;
    for op in &ops {
        if op.optional {
            continue;
        }
        let expected = state.apply(&op.call);
        if expected != op.ret {
            first_mismatch = Some(describe(op, &expected));
            break;
        }
    }
    let Some(witness) = first_mismatch else {
        return CheckResult {
            outcome: Outcome::Linearizable,
            ops: ops.len(),
            states: 0,
        };
    };

    // Full Wing–Gong search.
    let mut search = Search {
        ops: &ops,
        memo: HashSet::new(),
        states: 0,
        budget,
        exhausted: false,
    };
    let mut done = vec![0u64; ops.len().div_ceil(64)];
    let found = search.dfs(&mut done, &ShadowOracle::new());
    CheckResult {
        outcome: if found {
            Outcome::Linearizable
        } else if search.exhausted {
            Outcome::Undecided
        } else {
            Outcome::NotLinearizable { witness }
        },
        ops: ops.len(),
        states: search.states,
    }
}

/// Runs the same single-client insert-then-read-back trace twice over
/// an 8-peer Chord ring, recorded through a [`HistoryRecorder`] — once
/// clean, once with the index's torn-split mutant
/// ([`LhtIndex::arm_torn_split`]) armed on the first split — and
/// returns both strict-mode verdicts. A sound harness yields
/// `(Linearizable, NotLinearizable { .. })`: the armed split strands
/// its remote half, so keys whose inserts were acknowledged read back
/// absent.
pub fn torn_split_outcomes() -> (Outcome, Outcome) {
    let run = |armed: bool| -> Outcome {
        let dht: ChordDht<LeafBucket<u32>> = ChordDht::with_nodes(8, 1);
        let ix = LhtIndex::new(&dht, LhtConfig::new(4, 20)).expect("bootstrap index");
        if armed {
            ix.arm_torn_split(1);
        }
        let mut rec = HistoryRecorder::new(0, Instant::now());
        // Eight keys spread over the key space: theta = 4 splits on
        // the fifth insert, and both halves hold records.
        let keys: Vec<u64> = (1..=8u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
            .collect();
        for (i, &key) in keys.iter().enumerate() {
            let value = i as u32;
            rec.run(&ix, HistoryCall::Insert { key, value });
        }
        // Each read is invoked strictly after every insert's
        // response, so every linearization must order it after them.
        for &key in &keys {
            rec.run(&ix, HistoryCall::Get { key });
        }
        check(&rec.into_records(), true, 100_000).outcome
    };
    (run(false), run(true))
}

#[cfg(test)]
mod tests {
    use lht::dst::DstNode;
    use lht::pht::PhtNode;
    use lht::rst::{RstIndex, RstNode};
    use lht::{DstConfig, DstIndex, PhtIndex};
    use lht_core::Executor;
    use lht_dht::DirectDht;

    use super::*;

    fn rec(
        client: u32,
        inv: u64,
        resp: u64,
        call: HistoryCall<u32>,
        ret: HistoryReturn<u32>,
    ) -> OpRecord<u32> {
        OpRecord {
            client,
            inv,
            resp,
            call,
            ret,
        }
    }

    fn ins(key: u64, value: u32) -> HistoryCall<u32> {
        HistoryCall::Insert { key, value }
    }

    fn get(key: u64) -> HistoryCall<u32> {
        HistoryCall::Get { key }
    }

    fn val(value: Option<u32>) -> HistoryReturn<u32> {
        HistoryReturn::Value { value }
    }

    #[test]
    fn sequential_history_linearizes_on_the_fast_path() {
        let h = vec![
            rec(0, 0, 5, ins(1, 10), HistoryReturn::Inserted),
            rec(1, 10, 12, get(1), val(Some(10))),
            rec(
                0,
                20,
                25,
                HistoryCall::Remove { key: 1 },
                HistoryReturn::Removed { prior: Some(10) },
            ),
            rec(1, 30, 31, get(1), val(None)),
        ];
        let r = check(&h, true, 10_000);
        assert_eq!(r.outcome, Outcome::Linearizable);
        assert_eq!(r.states, 0, "fast path must decide");
    }

    #[test]
    fn overlapping_reorder_is_found_by_the_search() {
        // Recorded in execution order, but the get overlaps the
        // insert and observed the pre-insert state: only the
        // reordering get-before-insert explains it.
        let h = vec![
            rec(0, 0, 10, ins(7, 1), HistoryReturn::Inserted),
            rec(1, 5, 8, get(7), val(None)),
        ];
        let r = check(&h, true, 10_000);
        assert_eq!(r.outcome, Outcome::Linearizable);
        assert!(r.states > 0, "needs the full search");
    }

    #[test]
    fn stale_read_after_response_is_a_violation() {
        // The insert responded at t=10; the get started at t=20 and
        // still saw nothing — no real-time-respecting order exists.
        let h = vec![
            rec(0, 0, 10, ins(7, 1), HistoryReturn::Inserted),
            rec(1, 20, 22, get(7), val(None)),
        ];
        let r = check(&h, true, 10_000);
        assert!(
            matches!(r.outcome, Outcome::NotLinearizable { .. }),
            "{r:?}"
        );
    }

    #[test]
    fn lost_update_between_disjoint_writers_is_a_violation() {
        // w1 then w2 strictly after; a later read returns w1's value.
        let h = vec![
            rec(0, 0, 5, ins(3, 100), HistoryReturn::Inserted),
            rec(1, 10, 15, ins(3, 200), HistoryReturn::Inserted),
            rec(2, 20, 25, get(3), val(Some(100))),
        ];
        let r = check(&h, true, 100_000);
        assert!(
            matches!(r.outcome, Outcome::NotLinearizable { .. }),
            "{r:?}"
        );
    }

    #[test]
    fn failed_mutation_may_explain_a_later_read() {
        // The insert "failed" (e.g. retries exhausted) but actually
        // landed: the read of its value must still be explicable.
        let h = vec![
            rec(
                0,
                0,
                4,
                ins(9, 42),
                HistoryReturn::Failed { data_loss: false },
            ),
            rec(1, 10, 12, get(9), val(Some(42))),
        ];
        let r = check(&h, true, 10_000);
        assert_eq!(r.outcome, Outcome::Linearizable);
    }

    #[test]
    fn failed_mutation_may_equally_never_happen() {
        let h = vec![
            rec(
                0,
                0,
                4,
                ins(9, 42),
                HistoryReturn::Failed { data_loss: false },
            ),
            rec(1, 10, 12, get(9), val(None)),
        ];
        let r = check(&h, true, 10_000);
        assert_eq!(r.outcome, Outcome::Linearizable);
    }

    #[test]
    fn strict_mode_maps_data_loss_reads_to_absent_claims() {
        // Insert committed, then on a perfect network a later get
        // fails with LookupExhausted: strict mode reads that as
        // "observed absent" — a violation. Lossy mode drops it.
        let h = vec![
            rec(0, 0, 5, ins(4, 7), HistoryReturn::Inserted),
            rec(1, 10, 15, get(4), HistoryReturn::Failed { data_loss: true }),
        ];
        let strict = check(&h, true, 10_000);
        assert!(matches!(strict.outcome, Outcome::NotLinearizable { .. }));
        let lossy = check(&h, false, 10_000);
        assert_eq!(lossy.outcome, Outcome::Linearizable);
        assert_eq!(lossy.ops, 1, "the failed read is dropped");
    }

    #[test]
    fn range_and_extremes_are_checked_against_the_oracle() {
        let h = vec![
            rec(0, 0, 1, ins(10, 1), HistoryReturn::Inserted),
            rec(0, 2, 3, ins(20, 2), HistoryReturn::Inserted),
            rec(
                1,
                10,
                11,
                HistoryCall::Range {
                    lo: 0,
                    hi: Some(15),
                },
                HistoryReturn::Records {
                    records: vec![(10, 1)],
                },
            ),
            rec(
                1,
                12,
                13,
                HistoryCall::Min,
                HistoryReturn::Extreme {
                    record: Some((10, 1)),
                },
            ),
            rec(
                1,
                14,
                15,
                HistoryCall::Max,
                HistoryReturn::Extreme {
                    record: Some((20, 2)),
                },
            ),
        ];
        assert_eq!(check(&h, true, 10_000).outcome, Outcome::Linearizable);

        let bad = vec![
            rec(0, 0, 1, ins(10, 1), HistoryReturn::Inserted),
            rec(
                1,
                10,
                11,
                HistoryCall::Min,
                HistoryReturn::Extreme { record: None },
            ),
        ];
        assert!(matches!(
            check(&bad, true, 10_000).outcome,
            Outcome::NotLinearizable { .. }
        ));
    }

    #[test]
    fn tiny_budget_yields_undecided_not_a_false_verdict() {
        let h = vec![
            rec(0, 0, 10, ins(7, 1), HistoryReturn::Inserted),
            rec(1, 20, 22, get(7), val(None)),
        ];
        let r = check(&h, true, 0);
        assert_eq!(r.outcome, Outcome::Undecided);
    }

    /// Runs every call `index` supports through its executor on a
    /// fault-free substrate and holds each answer to the spec, which
    /// sees the same calls. Returns how many calls ran.
    fn replay_against_the_spec(index: &impl Executor<u32>, calls: &[HistoryCall<u32>]) -> usize {
        let mut spec = ShadowOracle::new();
        let mut ran = 0;
        for call in calls.iter().filter(|call| index.supports(call)) {
            let (got, _) = index
                .execute(call)
                .unwrap_or_else(|e| panic!("{call:?} failed on a fault-free substrate: {e}"));
            assert_eq!(got, spec.apply(call), "{call:?}");
            ran += 1;
        }
        ran
    }

    /// The executors and the spec agree call by call: one client's
    /// seeded plan, run sequentially on a fault-free substrate through
    /// each of the four schemes, must return exactly what
    /// [`ShadowOracle::apply`] answers. A scheme skips only the calls
    /// it has no operation for.
    #[test]
    fn executor_matches_the_sequential_spec_on_a_seeded_plan() {
        let cfg = crate::SimConfig {
            ops_per_client: 400,
            ..crate::SimConfig::default()
        };
        let plan = &crate::plan::client_plans(&cfg)[0];
        // On the still-empty index: min, max, a remove of an absent key
        // and a range to the top of the key space.
        let calls: Vec<HistoryCall<u32>> = [
            HistoryCall::Min,
            HistoryCall::Max,
            HistoryCall::Remove { key: 1 << 63 },
            HistoryCall::Range { lo: 0, hi: None },
        ]
        .into_iter()
        .chain(plan.ops.iter().map(|(call, _)| call.clone()))
        .chain([HistoryCall::Range { lo: 0, hi: None }])
        .collect();
        assert!(
            calls
                .iter()
                .any(|c| matches!(c, HistoryCall::Range { hi: Some(_), .. })),
            "the plan must hold a bounded range"
        );
        let variants: HashSet<_> = calls.iter().map(std::mem::discriminant).collect();
        assert_eq!(variants.len(), 6, "every call variant is exercised");
        let count = |f: fn(&HistoryCall<u32>) -> bool| calls.iter().filter(|c| f(c)).count();
        let extremes = count(|c| matches!(c, HistoryCall::Min | HistoryCall::Max));
        let removes = count(|c| matches!(c, HistoryCall::Remove { .. }));
        let ix_cfg = LhtConfig::new(cfg.theta_split, cfg.max_depth);

        let dht: DirectDht<LeafBucket<u32>> = DirectDht::new();
        let lht = LhtIndex::new(&dht, ix_cfg).unwrap();
        assert_eq!(replay_against_the_spec(&lht, &calls), calls.len());
        assert!(lht.stats().splits > 0 && lht.stats().merges > 0);

        let dht: DirectDht<PhtNode<u32>> = DirectDht::new();
        let pht = PhtIndex::new(&dht, ix_cfg).unwrap();
        assert_eq!(replay_against_the_spec(&pht, &calls), calls.len());
        assert!(pht.stats().splits > 0 && pht.stats().merges > 0);

        let dht: DirectDht<DstNode<u32>> = DirectDht::new();
        let dst = DstIndex::new(&dht, DstConfig::default()).unwrap();
        assert_eq!(
            replay_against_the_spec(&dst, &calls),
            calls.len() - extremes
        );

        let dht: DirectDht<RstNode<u32>> = DirectDht::new();
        let rst = RstIndex::new(&dht, ix_cfg).unwrap();
        assert_eq!(
            replay_against_the_spec(&rst, &calls),
            calls.len() - extremes - removes
        );
    }
}
