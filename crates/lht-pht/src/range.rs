//! PHT range queries: the sequential and parallel algorithms
//! (the paper's refs. \[16\] and \[4\]).

use lht_core::{assemble_runs, KeyInterval, LhtError, RangeCost};
use lht_dht::{Dht, DhtKey};
use lht_id::{BitStr, KeyFraction};

use crate::{PhtIndex, PhtLabel, PhtNode};

/// The result of a PHT range query.
#[derive(Clone, Debug)]
pub struct PhtRangeResult<V> {
    /// All records with keys inside the queried interval, in key
    /// order.
    pub records: Vec<(KeyFraction, V)>,
    /// The query's cost.
    pub cost: RangeCost,
}

impl<D, V> PhtIndex<D, V>
where
    D: Dht<Value = PhtNode<V>>,
    V: Clone,
{
    /// PHT(sequential) (Ramabhadran et al., the paper's ref. \[16\]):
    /// locate the leaf
    /// containing the lower bound, then follow the B+ leaf links
    /// rightward until the upper bound.
    ///
    /// Bandwidth is near-optimal (one DHT-lookup per leaf after the
    /// initial lookup) but every hop is **sequential**, so latency is
    /// linear in the number of leaves — the order-of-magnitude gap
    /// Fig. 10 shows.
    ///
    /// # Errors
    ///
    /// Propagates lookup errors and substrate failures;
    /// [`LhtError::MissingBucket`] on a broken leaf chain.
    pub fn range_sequential(&self, range: KeyInterval) -> Result<PhtRangeResult<V>, LhtError> {
        let mut runs: Vec<Vec<(KeyFraction, V)>> = Vec::new();
        let mut cost = RangeCost::default();
        if range.is_empty() {
            return Ok(PhtRangeResult {
                records: Vec::new(),
                cost,
            });
        }
        let hit = self.lookup(range.lo_key())?;
        cost.dht_lookups = hit.cost.dht_lookups;
        cost.steps = hit.cost.steps;
        let mut leaf = hit.leaf;
        loop {
            cost.buckets_visited += 1;
            let (covered_to, next) = (leaf.label.interval().hi_raw(), leaf.next);
            runs.push(leaf.into_records_in(&range));
            if covered_to >= range.hi_raw() {
                break;
            }
            let Some(next) = next else { break };
            cost.dht_lookups += 1;
            cost.steps += 1; // strictly sequential chain
            leaf = match self.dht().get(&next.dht_key())? {
                Some(PhtNode::Leaf(l)) => l,
                _ => {
                    return Err(LhtError::MissingBucket {
                        key: next.to_string(),
                    })
                }
            };
        }
        Ok(PhtRangeResult {
            records: assemble_runs(runs),
            cost,
        })
    }

    /// PHT(parallel) (Chawathe et al., the paper's ref. \[4\]): forward
    /// the query to the
    /// smallest trie prefix covering the whole range, then fan out to
    /// both children recursively — all children of a node in
    /// parallel — until leaves are reached.
    ///
    /// Latency is the subtrie height, but bandwidth pays for every
    /// *internal* node visited on the way down (roughly doubling the
    /// leaf count) — the "highest bandwidth" line of Fig. 9.
    ///
    /// The fan-out is issued level by level: all nodes at one trie
    /// depth form a single [`Dht::multi_get`] batch, so on a
    /// round-capable substrate the query takes one round per level
    /// instead of one per node.
    ///
    /// # Errors
    ///
    /// Propagates lookup errors and substrate failures.
    pub fn range_parallel(&self, range: KeyInterval) -> Result<PhtRangeResult<V>, LhtError> {
        let mut runs: Vec<Vec<(KeyFraction, V)>> = Vec::new();
        let mut cost = RangeCost::default();
        if range.is_empty() {
            return Ok(PhtRangeResult {
                records: Vec::new(),
                cost,
            });
        }
        let d = self.config().max_depth;
        let lo_bits = BitStr::from_key_prefix(range.lo_key(), d);
        let hi_bits = BitStr::from_key_prefix(range.max_key(), d);
        let lca = PhtLabel::from_bits(lo_bits.prefix(lo_bits.common_prefix_len(&hi_bits)));

        let mut wave: Vec<PhtLabel> = vec![lca];
        let mut step = 1u64;
        while !wave.is_empty() {
            cost.dht_lookups += wave.len() as u64;
            cost.steps = cost.steps.max(step);
            let keys: Vec<DhtKey> = wave.iter().map(|label| label.dht_key()).collect();
            let round = self.dht().multi_get(&keys);
            let mut next: Vec<PhtLabel> = Vec::new();
            for (label, fetched) in wave.into_iter().zip(round) {
                match fetched? {
                    Some(PhtNode::Leaf(leaf)) => {
                        cost.buckets_visited += 1;
                        runs.push(leaf.into_records_in(&range));
                    }
                    Some(PhtNode::Internal) => {
                        for bit in [false, true] {
                            let child = label.child(bit);
                            if child.interval().overlaps(&range) {
                                next.push(child);
                            }
                        }
                    }
                    None => {
                        // The covering node lies *above* the LCA depth
                        // (the trie is shallower here): the leaf found by
                        // a regular lookup covers the whole range.
                        let hit = self.lookup(range.lo_key())?;
                        cost.dht_lookups += hit.cost.dht_lookups;
                        cost.steps = cost.steps.max(step + hit.cost.steps);
                        cost.buckets_visited += 1;
                        runs.push(hit.leaf.into_records_in(&range));
                    }
                }
            }
            wave = next;
            step += 1;
        }
        Ok(PhtRangeResult {
            records: assemble_runs(runs),
            cost,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lht_core::LhtConfig;
    use lht_dht::DirectDht;

    fn kf(x: f64) -> KeyFraction {
        KeyFraction::from_f64(x)
    }

    fn ki(lo: f64, hi: f64) -> KeyInterval {
        KeyInterval::half_open(kf(lo), kf(hi))
    }

    fn build(theta: usize, n: u32) -> DirectDht<PhtNode<u32>> {
        let dht = DirectDht::new();
        let ix = PhtIndex::new(&dht, LhtConfig::new(theta, 20)).unwrap();
        for i in 0..n {
            ix.insert(kf((i as f64 + 0.5) / n as f64), i).unwrap();
        }
        dht
    }

    fn index(
        dht: &DirectDht<PhtNode<u32>>,
        theta: usize,
    ) -> PhtIndex<&DirectDht<PhtNode<u32>>, u32> {
        PhtIndex::new(dht, LhtConfig::new(theta, 20)).unwrap()
    }

    #[test]
    fn both_algorithms_agree_and_are_exact() {
        let dht = build(4, 128);
        let ix = index(&dht, 4);
        for (lo, hi) in [(0.0, 1.0), (0.1, 0.4), (0.45, 0.55), (0.7, 0.95)] {
            let range = if hi >= 1.0 {
                KeyInterval::from_key_to_end(kf(lo))
            } else {
                ki(lo, hi)
            };
            let seq = ix.range_sequential(range).unwrap();
            let par = ix.range_parallel(range).unwrap();
            let expect: Vec<u32> = (0..128)
                .filter(|i| range.contains(kf((*i as f64 + 0.5) / 128.0)))
                .collect();
            let got_seq: Vec<u32> = seq.records.iter().map(|(_, v)| *v).collect();
            let got_par: Vec<u32> = par.records.iter().map(|(_, v)| *v).collect();
            assert_eq!(got_seq, expect, "sequential [{lo},{hi})");
            assert_eq!(got_par, expect, "parallel [{lo},{hi})");
        }
    }

    #[test]
    fn sequential_latency_is_linear_parallel_is_logarithmic() {
        let dht = build(4, 512);
        let ix = index(&dht, 4);
        let r = ki(0.1, 0.9);
        let seq = ix.range_sequential(r).unwrap();
        let par = ix.range_parallel(r).unwrap();
        assert!(
            seq.cost.steps > 4 * par.cost.steps,
            "sequential steps {} should dwarf parallel steps {}",
            seq.cost.steps,
            par.cost.steps
        );
    }

    #[test]
    fn parallel_bandwidth_exceeds_sequential() {
        let dht = build(4, 512);
        let ix = index(&dht, 4);
        let r = ki(0.1, 0.9);
        let seq = ix.range_sequential(r).unwrap();
        let par = ix.range_parallel(r).unwrap();
        assert!(
            par.cost.dht_lookups > seq.cost.dht_lookups,
            "parallel {} lookups should exceed sequential {}",
            par.cost.dht_lookups,
            seq.cost.dht_lookups
        );
        // Sequential is near-optimal: lookup + one get per further leaf.
        assert!(seq.cost.dht_lookups <= seq.cost.buckets_visited + 5);
    }

    #[test]
    fn range_in_single_leaf_handles_missing_lca() {
        // Shallow tree: a narrow range's LCA prefix is deeper than
        // any trie node → the None fallback path.
        let dht = build(100, 20);
        let ix = index(&dht, 100);
        let r = ix.range_parallel(ki(0.4, 0.41)).unwrap();
        let expect = (0..20)
            .filter(|i| ki(0.4, 0.41).contains(kf((*i as f64 + 0.5) / 20.0)))
            .count();
        assert_eq!(r.records.len(), expect);
    }

    #[test]
    fn empty_range_is_free() {
        let dht = build(4, 32);
        let ix = index(&dht, 4);
        assert_eq!(
            ix.range_sequential(KeyInterval::EMPTY)
                .unwrap()
                .cost
                .dht_lookups,
            0
        );
        assert_eq!(
            ix.range_parallel(KeyInterval::EMPTY)
                .unwrap()
                .cost
                .dht_lookups,
            0
        );
    }
}
