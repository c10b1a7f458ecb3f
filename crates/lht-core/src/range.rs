//! Range queries (paper §6, Algorithms 3 and 4).
//!
//! The engine materializes the paper's recursive forwarding as a
//! **level-synchronous frontier** so that both §9.4 measurements fall
//! out naturally: **bandwidth** is the number of DHT-lookups issued,
//! and **latency** is the number of *parallel steps* — the depth of
//! the forwarding DAG. All tasks sharing a step are issued to the
//! substrate as one [`Dht::multi_get`] batch, so on a round-capable
//! substrate the query's wall-clock rounds equal its step count
//! instead of its lookup count.
//!
//! The answer is assembled from **sorted runs**: the partition tree's
//! leaves cover disjoint key intervals (§3) and every bucket holds its
//! records in key order, so each fetched bucket contributes one
//! contiguous, already-sorted slice of the result and
//! [`assemble_runs`] only has to put the slices in interval order.

use std::collections::BTreeMap;

use lht_dht::{Dht, DhtKey};
use lht_id::KeyFraction;

use crate::naming::{left_neighbor, name, right_neighbor};
use crate::{KeyInterval, Label, LeafBucket, LhtError, LhtIndex, RangeCost};

/// The result of a range query.
#[derive(Clone, Debug)]
pub struct RangeResult<V> {
    /// All records whose keys fall in the queried interval, in key
    /// order.
    pub records: Vec<(KeyFraction, V)>,
    /// The query's cost (bandwidth, latency and bucket count).
    pub cost: RangeCost,
}

/// One pending forwarding hop: fetch the bucket stored under `target`
/// and process the `subrange` it is responsible for.
#[derive(Debug)]
struct Task {
    target: Label,
    /// On a failed get, retry once at this name (Alg. 3 line 17 /
    /// Alg. 4's implicit leaf case: a leaf β is stored under f_n(β)).
    fallback: Option<Label>,
    /// If both names miss (possible only when the tree lost entries
    /// or the LCA overshot the actual leaves), recover with a full
    /// binary-search lookup of this bound.
    recover_bound: Option<KeyFraction>,
    subrange: KeyInterval,
    step: u64,
}

/// Pending tasks grouped by forwarding step. `pop_first` always yields
/// the lowest unprocessed step, and expansion only ever enqueues at
/// *later* steps, so each step's tasks can be issued as one batch.
type Frontier = BTreeMap<u64, Vec<Task>>;

fn enqueue(frontier: &mut Frontier, task: Task) {
    frontier.entry(task.step).or_default().push(task);
}

impl<D, V> LhtIndex<D, V>
where
    D: Dht<Value = LeafBucket<V>>,
    V: Clone,
{
    /// Range query (Algorithm 4 → Algorithm 3): returns every record
    /// with key in `range`.
    ///
    /// The initiator locally computes the queried range's lowest
    /// common ancestor and forwards through at most one non-overlapping
    /// hop into the *simple case*, where each reached bucket infers
    /// its neighboring subtrees from its local tree and forwards
    /// disjoint subranges to them in parallel. Total cost is at most
    /// `B + 3` DHT-lookups for a query spanning `B` leaf buckets
    /// (§6.3) — near-optimal, and verified by property tests.
    ///
    /// # Errors
    ///
    /// Propagates substrate failures; [`LhtError::LookupExhausted`] /
    /// [`LhtError::MissingBucket`] if index entries were lost.
    pub fn range(&self, range: KeyInterval) -> Result<RangeResult<V>, LhtError> {
        let mut runs: Vec<Vec<(KeyFraction, V)>> = Vec::new();
        let mut cost = RangeCost::default();
        if range.is_empty() {
            return Ok(RangeResult {
                records: Vec::new(),
                cost,
            });
        }

        let d = self.config().max_depth;
        // LCA of the paths to the two range ends (Alg. 4 line 1);
        // the upper end is u's predecessor since the range is
        // half-open.
        let lo_path = Label::search_string(range.lo_key(), d);
        let hi_path = Label::search_string(range.max_key(), d);
        let lca = lo_path.lowest_common_ancestor(&hi_path);

        let mut frontier = Frontier::new();

        // Alg. 4 line 2: DHT-lookup(f_n(LCA)).
        cost.dht_lookups += 1;
        cost.steps = 1;
        match self.dht().get(&name(&lca).dht_key())? {
            None => {
                // Case 1: the whole range lies in one leaf; fall back
                // to an exact-match-style lookup of the lower bound
                // (Alg. 4 line 5), sequential after this step.
                let hit = self.lookup(range.lo_key())?;
                cost.dht_lookups += hit.cost.dht_lookups;
                cost.steps += hit.cost.steps;
                collect(hit.bucket, &range, &mut runs, &mut cost);
            }
            Some(bucket) if bucket.interval().overlaps(&range) => {
                // Case 2: simple case from this bucket.
                self.expand(bucket, range, 1, &mut frontier, &mut runs, &mut cost);
            }
            Some(_) => {
                // Case 3: forward to both children of the LCA
                // (Alg. 4 lines 11/13); each child-side subquery is a
                // simple case containing one bound.
                for child_bit in [false, true] {
                    let child = lca.child(child_bit);
                    let sub = range.intersect(&child.interval());
                    debug_assert!(!sub.is_empty(), "LCA children both straddle the range");
                    let recover = if child_bit {
                        sub.lo_key()
                    } else {
                        sub.max_key()
                    };
                    enqueue(
                        &mut frontier,
                        Task {
                            target: child,
                            fallback: Some(name(&child)),
                            recover_bound: Some(recover),
                            subrange: sub,
                            step: 2,
                        },
                    );
                }
            }
        }

        // Level-synchronous drain: every task at the current step is
        // issued as one multi_get round; their expansions land at
        // step + 1 (or later, on the recovery path) and form the next
        // round's batch.
        while let Some((step, tasks)) = frontier.pop_first() {
            cost.dht_lookups += tasks.len() as u64;
            cost.steps = cost.steps.max(step);
            let keys: Vec<DhtKey> = tasks.iter().map(|task| task.target.dht_key()).collect();
            // Prime per-key state (ring digests, location-cache
            // recency) below before the round fires — the prewarm
            // hook never routes.
            self.dht().prewarm(&keys);
            let round = self.dht().multi_get(&keys);
            for (task, fetched) in tasks.into_iter().zip(round) {
                match fetched? {
                    Some(bucket) if bucket.interval().overlaps(&task.subrange) => {
                        self.expand(
                            bucket,
                            task.subrange,
                            task.step,
                            &mut frontier,
                            &mut runs,
                            &mut cost,
                        );
                    }
                    _ if task.fallback.is_some() => {
                        // Failed get — the target label is itself a leaf,
                        // stored under its name (Alg. 3 lines 15–17).
                        enqueue(
                            &mut frontier,
                            Task {
                                target: task.fallback.expect("checked above"),
                                fallback: None,
                                recover_bound: task.recover_bound,
                                subrange: task.subrange,
                                step: task.step + 1,
                            },
                        );
                    }
                    _ => {
                        if let Some(bound) = task.recover_bound {
                            // Defensive recovery: binary-search the bound.
                            let hit = self.lookup(bound)?;
                            cost.dht_lookups += hit.cost.dht_lookups;
                            cost.steps = cost.steps.max(task.step + hit.cost.steps);
                            self.expand(
                                hit.bucket,
                                task.subrange,
                                task.step + hit.cost.steps,
                                &mut frontier,
                                &mut runs,
                                &mut cost,
                            );
                        } else {
                            return Err(LhtError::MissingBucket {
                                key: task.target.to_string(),
                            });
                        }
                    }
                }
            }
        }

        Ok(RangeResult {
            records: assemble_runs(runs),
            cost,
        })
    }

    /// The simple case (Algorithm 3): `bucket` covers an edge of
    /// `subrange`; collect its records and forward the remainder to
    /// the neighboring subtrees inferred from the local tree. All
    /// forwards issued here happen in parallel at `step + 1`.
    fn expand(
        &self,
        bucket: LeafBucket<V>,
        subrange: KeyInterval,
        step: u64,
        frontier: &mut Frontier,
        runs: &mut Vec<Vec<(KeyFraction, V)>>,
        cost: &mut RangeCost,
    ) {
        let label = bucket.label();
        let own = bucket.interval();
        collect(bucket, &subrange, runs, cost);

        // Rightwards: keys of `subrange` above this bucket's interval.
        if subrange.hi_raw() > own.hi_raw() {
            let mut beta = label;
            loop {
                let next = right_neighbor(&beta);
                if next == beta {
                    break; // rightmost spine: key space exhausted
                }
                beta = next;
                let inv = beta.interval();
                if inv.lo_raw() >= subrange.hi_raw() {
                    break;
                }
                if inv.hi_raw() <= subrange.hi_raw() {
                    // τ_β fully inside: enter at its far (right) edge —
                    // the leaf named f_n(β) (Alg. 3 line 11) — which
                    // walks back leftwards over inv.
                    enqueue(
                        frontier,
                        Task {
                            target: name(&beta),
                            fallback: None,
                            recover_bound: Some(inv.max_key()),
                            subrange: inv,
                            step: step + 1,
                        },
                    );
                } else {
                    // Last, partially-covered subtree: enter at the
                    // near (left) edge — the leaf named β (Alg. 3
                    // line 14), falling back to f_n(β) if β is itself
                    // a leaf (line 17).
                    let sub = inv.intersect(&subrange);
                    enqueue(
                        frontier,
                        Task {
                            target: beta,
                            fallback: Some(name(&beta)),
                            recover_bound: Some(sub.lo_key()),
                            subrange: sub,
                            step: step + 1,
                        },
                    );
                    break;
                }
            }
        }

        // Leftwards: mirror image via f_ln.
        if subrange.lo_raw() < own.lo_raw() {
            let mut beta = label;
            loop {
                let next = left_neighbor(&beta);
                if next == beta {
                    break; // leftmost spine
                }
                beta = next;
                let inv = beta.interval();
                if inv.hi_raw() <= subrange.lo_raw() {
                    break;
                }
                if inv.lo_raw() >= subrange.lo_raw() {
                    // Fully inside: enter at the far (left) edge leaf,
                    // named f_n(β); it walks back rightwards.
                    enqueue(
                        frontier,
                        Task {
                            target: name(&beta),
                            fallback: None,
                            recover_bound: Some(inv.lo_key()),
                            subrange: inv,
                            step: step + 1,
                        },
                    );
                } else {
                    // Partially covered: enter at the near (right)
                    // edge leaf, named β.
                    let sub = inv.intersect(&subrange);
                    enqueue(
                        frontier,
                        Task {
                            target: beta,
                            fallback: Some(name(&beta)),
                            recover_bound: Some(sub.max_key()),
                            subrange: sub,
                            step: step + 1,
                        },
                    );
                    break;
                }
            }
        }
    }
}

/// Counts `bucket` and moves its records inside `range` out as one
/// sorted run.
fn collect<V>(
    bucket: LeafBucket<V>,
    range: &KeyInterval,
    runs: &mut Vec<Vec<(KeyFraction, V)>>,
    cost: &mut RangeCost,
) {
    cost.buckets_visited += 1;
    runs.push(bucket.into_records_in(range));
}

/// Assembles per-leaf sorted runs, given in visit order, into one
/// key-ordered record list.
///
/// Each run must be sorted by strictly ascending key (a leaf's record
/// store is). Leaves of one tree cover disjoint intervals, so on a
/// quiescent index the runs are pairwise disjoint and the answer is
/// their concatenation in order of first key, moved into a single
/// pre-sized `Vec`. Only a scan torn by a concurrent split or merge
/// can see one key in two runs; then the runs are flattened in visit
/// order, stable-sorted by key, and the **last** visited record of
/// each key is kept — what inserting every record into an ordered map
/// in visit order would leave.
pub fn assemble_runs<V>(mut runs: Vec<Vec<(KeyFraction, V)>>) -> Vec<(KeyFraction, V)> {
    let mut out = Vec::with_capacity(runs.iter().map(Vec::len).sum());
    match concatenation_order(&runs) {
        Some(order) => {
            for i in order {
                out.append(&mut runs[i]);
            }
        }
        None => {
            out.extend(runs.into_iter().flatten());
            sort_keep_last(&mut out);
        }
    }
    out
}

/// The order in which the non-empty `runs` concatenate into one
/// strictly ascending list, or `None` if two of them overlap.
fn concatenation_order<V>(runs: &[Vec<(KeyFraction, V)>]) -> Option<Vec<usize>> {
    debug_assert!(
        runs.iter().all(|r| r.windows(2).all(|w| w[0].0 < w[1].0)),
        "every run is strictly ascending"
    );
    let mut order: Vec<usize> = (0..runs.len()).filter(|&i| !runs[i].is_empty()).collect();
    order.sort_by_key(|&i| runs[i][0].0);
    order
        .windows(2)
        .all(|w| runs[w[0]][runs[w[0]].len() - 1].0 < runs[w[1]][0].0)
        .then_some(order)
}

/// Stable-sorts `records` by key and keeps, of each group of equal
/// keys, the one that came last in the input — the outcome of
/// inserting them in order into a map.
pub(crate) fn sort_keep_last<V>(records: &mut Vec<(KeyFraction, V)>) {
    records.sort_by_key(|(k, _)| *k);
    // `dedup_by` drops the later of two equal neighbours; swapping
    // first makes the later one the survivor.
    records.dedup_by(|later, kept| {
        let same = later.0 == kept.0;
        if same {
            std::mem::swap(later, kept);
        }
        same
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LhtConfig;
    use lht_dht::DirectDht;

    fn kf(x: f64) -> KeyFraction {
        KeyFraction::from_f64(x)
    }

    fn ki(lo: f64, hi: f64) -> KeyInterval {
        KeyInterval::half_open(kf(lo), kf(hi))
    }

    fn build(theta: usize, n: u32) -> (DirectDht<LeafBucket<u32>>, Vec<KeyFraction>) {
        let dht = DirectDht::new();
        let ix = LhtIndex::new(&dht, LhtConfig::new(theta, 20)).unwrap();
        let mut keys = Vec::new();
        for i in 0..n {
            let k = kf((i as f64 + 0.5) / n as f64);
            ix.insert(k, i).unwrap();
            keys.push(k);
        }
        (dht, keys)
    }

    fn index(
        dht: &DirectDht<LeafBucket<u32>>,
        theta: usize,
    ) -> LhtIndex<&DirectDht<LeafBucket<u32>>, u32> {
        LhtIndex::new(dht, LhtConfig::new(theta, 20)).unwrap()
    }

    #[test]
    fn empty_range_is_free() {
        let (dht, _) = build(4, 32);
        let ix = index(&dht, 4);
        let r = ix.range(KeyInterval::EMPTY).unwrap();
        assert!(r.records.is_empty());
        assert_eq!(r.cost.dht_lookups, 0);
        assert_eq!(r.cost.steps, 0);
    }

    #[test]
    fn full_range_returns_everything_in_order() {
        let (dht, keys) = build(4, 64);
        let ix = index(&dht, 4);
        let r = ix.range(KeyInterval::FULL).unwrap();
        assert_eq!(r.records.len(), 64);
        let got: Vec<KeyFraction> = r.records.iter().map(|(k, _)| *k).collect();
        assert_eq!(got, keys, "records come back in key order");
    }

    #[test]
    fn sub_ranges_return_exact_answers() {
        let (dht, keys) = build(4, 128);
        let ix = index(&dht, 4);
        for (lo, hi) in [(0.0, 0.1), (0.2, 0.6), (0.45, 0.55), (0.9, 1.0), (0.5, 0.5)] {
            let range = if hi >= 1.0 {
                KeyInterval::from_key_to_end(kf(lo))
            } else {
                ki(lo, hi)
            };
            let r = ix.range(range).unwrap();
            let expect: Vec<u32> = keys
                .iter()
                .enumerate()
                .filter(|(_, k)| range.contains(**k))
                .map(|(i, _)| i as u32)
                .collect();
            let got: Vec<u32> = r.records.iter().map(|(_, v)| *v).collect();
            assert_eq!(got, expect, "range [{lo}, {hi})");
        }
    }

    #[test]
    fn range_inside_single_leaf_uses_case1() {
        // Few records: the whole tree is shallow; a tiny range lies
        // in one leaf and the LCA path overshoots -> Case 1 fallback.
        let (dht, _) = build(100, 20);
        let ix = index(&dht, 100);
        let r = ix.range(ki(0.4, 0.41)).unwrap();
        let expect = (0..20)
            .filter(|i| {
                let k = (*i as f64 + 0.5) / 20.0;
                (0.4..0.41).contains(&k)
            })
            .count();
        assert_eq!(r.records.len(), expect);
        assert_eq!(r.cost.buckets_visited, 1);
    }

    #[test]
    fn cost_is_near_optimal_b_plus_3() {
        let (dht, _) = build(4, 256);
        let ix = index(&dht, 4);
        for (lo, hi) in [(0.1, 0.3), (0.0, 0.5), (0.25, 0.9), (0.5, 0.75)] {
            let r = ix.range(ki(lo, hi)).unwrap();
            assert!(
                r.cost.dht_lookups <= r.cost.buckets_visited + 3,
                "range [{lo},{hi}): {} lookups for {} buckets",
                r.cost.dht_lookups,
                r.cost.buckets_visited
            );
        }
    }

    #[test]
    fn latency_beats_bandwidth_through_parallelism() {
        let (dht, _) = build(4, 512);
        let ix = index(&dht, 4);
        let r = ix.range(ki(0.05, 0.95)).unwrap();
        assert!(
            r.cost.steps < r.cost.dht_lookups / 2,
            "wide range should fan out: steps {} vs lookups {}",
            r.cost.steps,
            r.cost.dht_lookups
        );
    }

    #[test]
    fn paper_example_range_02_06() {
        // §6.2's example: [0.2, 0.6) on Fig. 5b's tree shape. We
        // rebuild an equivalent shape by inserting suitable keys, then
        // check the answer is exact.
        let (dht, keys) = build(4, 64);
        let ix = index(&dht, 4);
        let r = ix.range(ki(0.2, 0.6)).unwrap();
        let expect = keys.iter().filter(|k| ki(0.2, 0.6).contains(**k)).count();
        assert_eq!(r.records.len(), expect);
    }

    #[test]
    fn range_with_bounds_on_key_space_edges() {
        let (dht, _) = build(4, 64);
        let ix = index(&dht, 4);
        let all = ix
            .range(KeyInterval::from_key_to_end(KeyFraction::ZERO))
            .unwrap();
        assert_eq!(all.records.len(), 64);
        let top = ix.range(KeyInterval::from_key_to_end(kf(0.99))).unwrap();
        assert_eq!(top.records.len(), 1);
    }

    #[test]
    fn range_after_deletions_and_merges() {
        let dht = DirectDht::new();
        let ix = index(&dht, 4);
        let n = 128u32;
        for i in 0..n {
            ix.insert(kf((i as f64 + 0.5) / n as f64), i).unwrap();
        }
        for i in 0..n {
            if i % 3 != 0 {
                ix.remove(kf((i as f64 + 0.5) / n as f64)).unwrap();
            }
        }
        let r = ix.range(ki(0.1, 0.9)).unwrap();
        let expect: Vec<u32> = (0..n)
            .filter(|i| i % 3 == 0)
            .filter(|i| {
                let k = (*i as f64 + 0.5) / n as f64;
                (0.1..0.9).contains(&k)
            })
            .collect();
        let got: Vec<u32> = r.records.iter().map(|(_, v)| *v).collect();
        assert_eq!(got, expect);
    }

    fn run(keys: &[u64], tag: u32) -> Vec<(KeyFraction, u32)> {
        keys.iter()
            .map(|&k| (KeyFraction::from_bits(k), tag))
            .collect()
    }

    /// What the replaced assembly did: every record through an ordered
    /// map, in visit order.
    fn map_oracle(runs: &[Vec<(KeyFraction, u32)>]) -> Vec<(KeyFraction, u32)> {
        let mut map = BTreeMap::new();
        for (k, v) in runs.iter().flatten() {
            map.insert(*k, *v);
        }
        map.into_iter().collect()
    }

    #[test]
    fn disjoint_runs_out_of_order_concatenate_without_sorting() {
        let runs = vec![
            run(&[40, 50, 60], 0),
            vec![],
            run(&[1, 2, 3], 1),
            run(&[100], 2),
            vec![],
            run(&[10, 20], 3),
        ];
        assert_eq!(
            concatenation_order(&runs),
            Some(vec![2, 5, 0, 3]),
            "disjoint runs never take the sort fallback; empty runs are ignored"
        );
        let out = assemble_runs(runs.clone());
        assert_eq!(out, map_oracle(&runs));
        assert_eq!(out.len(), 9);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn no_runs_and_only_empty_runs_give_nothing() {
        assert!(assemble_runs::<u32>(Vec::new()).is_empty());
        assert!(assemble_runs::<u32>(vec![vec![], vec![]]).is_empty());
    }

    #[test]
    fn overlapping_runs_keep_the_last_visited_record_like_a_map() {
        // A scan torn by a split: the pre-split bucket was read, then
        // both halves; and a later run starting *below* an earlier one.
        let cases = [
            vec![
                run(&[10, 20, 30, 40], 0),
                run(&[10, 20], 1),
                run(&[30, 40], 2),
            ],
            vec![run(&[30, 40], 0), run(&[10, 20, 30], 1), run(&[5, 40], 2)],
            vec![run(&[7], 0), run(&[7], 1), vec![], run(&[7], 2)],
            vec![run(&[1, 5], 0), run(&[3], 1)], // interleaved, no equal key
        ];
        for runs in cases {
            assert_eq!(concatenation_order(&runs), None, "{runs:?}");
            assert_eq!(assemble_runs(runs.clone()), map_oracle(&runs), "{runs:?}");
        }
    }

    proptest::proptest! {
        /// Arbitrary (strictly ascending) runs in arbitrary visit
        /// order: always exactly what the ordered map produced.
        #[test]
        fn assemble_runs_equals_the_map_it_replaced(
            raw in proptest::collection::vec(
                proptest::collection::vec(0u64..64, 0..8), 0..8),
        ) {
            let runs: Vec<Vec<(KeyFraction, u32)>> = raw
                .into_iter()
                .enumerate()
                .map(|(tag, mut keys)| {
                    keys.sort_unstable();
                    keys.dedup();
                    run(&keys, tag as u32)
                })
                .collect();
            proptest::prop_assert_eq!(assemble_runs(runs.clone()), map_oracle(&runs));
        }
    }

    /// A value that counts its clones (per thread: tests run on
    /// parallel threads).
    #[derive(Debug, PartialEq)]
    struct Counted(u32);

    thread_local! {
        static CLONES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    impl Clone for Counted {
        fn clone(&self) -> Counted {
            CLONES.with(|c| c.set(c.get() + 1));
            Counted(self.0)
        }
    }

    #[test]
    fn assembling_owned_buckets_clones_no_value() {
        // Four leaves of depth 3, visited out of order; the queried
        // range cuts the first and last and swallows the middle two.
        let mut buckets = Vec::new();
        for (label, base) in [("#010", 0.5), ("#000", 0.0), ("#011", 0.75), ("#001", 0.25)] {
            let mut b: LeafBucket<Counted> = LeafBucket::new(label.parse().unwrap());
            for i in 0..8u32 {
                b.insert(kf(base + i as f64 / 32.0), Counted(i));
            }
            buckets.push(b);
        }
        let range = ki(0.1, 0.9);
        let (mut runs, mut cost) = (Vec::new(), RangeCost::default());
        CLONES.with(|c| c.set(0));
        for b in buckets {
            collect(b, &range, &mut runs, &mut cost);
        }
        let out = assemble_runs(runs);
        assert_eq!(
            CLONES.with(|c| c.get()),
            0,
            "records are moved, never cloned"
        );
        assert_eq!(cost.buckets_visited, 4);
        assert_eq!(out.len(), 4 + 8 + 8 + 5); // 0.125.., two whole leaves, ..0.875
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(out.iter().all(|(k, _)| range.contains(*k)));
    }
}
