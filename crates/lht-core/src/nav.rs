//! Ordered navigation queries: successor and predecessor.
//!
//! The paper's §7 shows min/max queries falling out of the naming
//! function for free; the same local-tree machinery answers the
//! general ordered-navigation queries a database layer wants
//! (`SELECT … WHERE k >= ? ORDER BY k LIMIT 1`): locate the covering
//! leaf, then — only if it has no qualifying record — walk through
//! the neighboring subtrees exactly as a range query would, one
//! DHT-lookup per (typically non-empty) bucket.

use lht_dht::Dht;
use lht_id::KeyFraction;

use crate::naming::{left_neighbor, name, right_neighbor};
use crate::{LeafBucket, LhtError, LhtIndex, MinMaxHit, OpCost};

impl<D, V> LhtIndex<D, V>
where
    D: Dht<Value = LeafBucket<V>>,
    V: Clone,
{
    /// The smallest stored record with key `>= key`, or `None` if no
    /// such record exists.
    ///
    /// Costs one LHT lookup plus, if the covering leaf holds nothing
    /// at or above `key`, one DHT-lookup per neighboring subtree
    /// walked (at most two per *empty* bucket crossed).
    ///
    /// # Errors
    ///
    /// Propagates lookup errors and substrate failures.
    pub fn successor(&self, key: KeyFraction) -> Result<MinMaxHit<V>, LhtError> {
        self.navigate(key, true)
    }

    /// The largest stored record with key `<= key`, or `None`.
    ///
    /// Mirror image of [`successor`](Self::successor).
    ///
    /// # Errors
    ///
    /// Propagates lookup errors and substrate failures.
    pub fn predecessor(&self, key: KeyFraction) -> Result<MinMaxHit<V>, LhtError> {
        self.navigate(key, false)
    }

    fn navigate(&self, key: KeyFraction, upward: bool) -> Result<MinMaxHit<V>, LhtError> {
        let hit = self.lookup(key)?;
        let mut lookups = hit.cost.dht_lookups;
        let mut bucket = hit.bucket;

        // The covering leaf may already hold the answer.
        let local = if upward {
            bucket.iter().find(|(k, _)| *k >= key)
        } else {
            bucket.iter().filter(|(k, _)| *k <= key).last()
        };
        if let Some((k, v)) = local {
            return Ok(MinMaxHit {
                value: Some((k, v.clone())),
                cost: OpCost::sequential(lookups),
            });
        }

        // Walk neighboring subtrees toward the target direction,
        // entering each at its near edge (the leaf named β; f_n(β)
        // when β is itself a leaf), as in Algorithm 3.
        loop {
            let beta = if upward {
                right_neighbor(&bucket.label())
            } else {
                left_neighbor(&bucket.label())
            };
            if beta == bucket.label() {
                return Ok(MinMaxHit {
                    value: None,
                    cost: OpCost::sequential(lookups),
                });
            }
            // Both candidate names (β; f_n(β) if β is itself a leaf)
            // are prewarmed so a location-cache layer below has both
            // resident before the lookups fire.
            let beta_key = beta.dht_key();
            let fallback_key = name(&beta).dht_key();
            self.dht()
                .prewarm(&[beta_key.clone(), fallback_key.clone()]);
            lookups += 1;
            bucket = match self.dht().get(&beta_key)? {
                Some(b) => b,
                None => {
                    lookups += 1;
                    self.dht()
                        .get(&fallback_key)?
                        .ok_or_else(|| LhtError::MissingBucket {
                            key: name(&beta).to_string(),
                        })?
                }
            };
            let found = if upward {
                bucket.min_record()
            } else {
                bucket.max_record()
            };
            if let Some((k, v)) = found {
                return Ok(MinMaxHit {
                    value: Some((k, v.clone())),
                    cost: OpCost::sequential(lookups),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LhtConfig;
    use lht_dht::DirectDht;

    fn kf(x: f64) -> KeyFraction {
        KeyFraction::from_f64(x)
    }

    fn build(n: u32, theta: usize) -> DirectDht<LeafBucket<u32>> {
        let dht = DirectDht::new();
        let ix = LhtIndex::new(&dht, LhtConfig::new(theta, 20)).unwrap();
        for i in 0..n {
            ix.insert(kf((i as f64 + 0.5) / n as f64), i).unwrap();
        }
        dht
    }

    fn index(
        dht: &DirectDht<LeafBucket<u32>>,
        theta: usize,
    ) -> LhtIndex<&DirectDht<LeafBucket<u32>>, u32> {
        LhtIndex::new(dht, LhtConfig::new(theta, 20)).unwrap()
    }

    #[test]
    fn successor_of_present_key_is_itself() {
        let dht = build(64, 4);
        let ix = index(&dht, 4);
        let k = kf((10.0 + 0.5) / 64.0);
        assert_eq!(ix.successor(k).unwrap().value, Some((k, 10)));
        assert_eq!(ix.predecessor(k).unwrap().value, Some((k, 10)));
    }

    #[test]
    fn successor_and_predecessor_between_keys() {
        let dht = build(64, 4);
        let ix = index(&dht, 4);
        // Probe just above record 10: successor is record 11,
        // predecessor is record 10.
        let probe = kf((10.0 + 0.6) / 64.0);
        assert_eq!(ix.successor(probe).unwrap().value.unwrap().1, 11);
        assert_eq!(ix.predecessor(probe).unwrap().value.unwrap().1, 10);
    }

    #[test]
    fn navigation_at_the_edges() {
        let dht = build(64, 4);
        let ix = index(&dht, 4);
        // Below everything: successor = min, predecessor = none.
        assert_eq!(ix.successor(KeyFraction::ZERO).unwrap().value.unwrap().1, 0);
        assert_eq!(ix.predecessor(KeyFraction::ZERO).unwrap().value, None);
        // Above everything: mirror.
        assert_eq!(ix.successor(KeyFraction::MAX).unwrap().value, None);
        assert_eq!(
            ix.predecessor(KeyFraction::MAX).unwrap().value.unwrap().1,
            63
        );
    }

    #[test]
    fn navigation_agrees_with_oracle_everywhere() {
        let n = 100u32;
        let dht = build(n, 8);
        let ix = index(&dht, 8);
        let keys: Vec<KeyFraction> = (0..n).map(|i| kf((i as f64 + 0.5) / n as f64)).collect();
        for probe_i in 0..50 {
            let probe =
                KeyFraction::from_bits((probe_i as u64).wrapping_mul(0x3777_1234_9abc_def1));
            let succ = ix.successor(probe).unwrap().value.map(|(k, _)| k);
            let pred = ix.predecessor(probe).unwrap().value.map(|(k, _)| k);
            assert_eq!(
                succ,
                keys.iter().copied().find(|k| *k >= probe),
                "succ {probe}"
            );
            assert_eq!(
                pred,
                keys.iter().copied().rev().find(|k| *k <= probe),
                "pred {probe}"
            );
        }
    }

    #[test]
    fn navigation_walks_across_empty_buckets() {
        let dht = build(64, 4);
        let ix = index(&dht, 4);
        // Empty out a stretch in the middle, leaving empty buckets
        // (no merges for keys still above the merge threshold probe).
        for i in 20..30u32 {
            ix.remove(kf((i as f64 + 0.5) / 64.0)).unwrap();
        }
        let probe = kf((20.0 + 0.2) / 64.0);
        let succ = ix.successor(probe).unwrap();
        assert_eq!(succ.value.unwrap().1, 30, "walks past the removed stretch");
    }

    #[test]
    fn empty_index_navigation() {
        let dht = DirectDht::new();
        let ix: LhtIndex<_, u32> = LhtIndex::new(&dht, LhtConfig::new(4, 20)).unwrap();
        assert_eq!(ix.successor(kf(0.5)).unwrap().value, None);
        assert_eq!(ix.predecessor(kf(0.5)).unwrap().value, None);
    }
}
