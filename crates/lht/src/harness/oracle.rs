//! The shadow oracle: a local, trivially-correct reference index.
//!
//! [`ShadowOracle::apply`] is the one sequential spec of the index
//! operations: the differential soak diffs every scheme's answer
//! against it, and the simulator's linearizability checker searches
//! for an order of a concurrent history that it explains. The oracle
//! is a plain [`BTreeMap`] over raw key bits, so its semantics —
//! upsert on insert, half-open ranges, first/last for min/max — are
//! beyond suspicion and cheap to audit by eye.

use std::collections::BTreeMap;

use lht_core::{HistoryCall, HistoryReturn};

/// A reference index over `(u64 key bits, u32 value)` records with
/// the exact operation semantics of [`LhtIndex`](crate::LhtIndex).
#[derive(Clone, Debug, Default)]
pub struct ShadowOracle {
    map: BTreeMap<u64, u32>,
}

impl ShadowOracle {
    /// An empty oracle.
    pub fn new() -> ShadowOracle {
        ShadowOracle::default()
    }

    /// Applies `call` and returns what a correct sequential execution
    /// answers.
    pub fn apply(&mut self, call: &HistoryCall<u32>) -> HistoryReturn<u32> {
        let pair = |(k, v): (&u64, &u32)| (*k, *v);
        match call {
            HistoryCall::Insert { key, value } => {
                self.map.insert(*key, *value);
                HistoryReturn::Inserted
            }
            HistoryCall::Remove { key } => HistoryReturn::Removed {
                prior: self.map.remove(key),
            },
            HistoryCall::Get { key } => HistoryReturn::Value {
                value: self.map.get(key).copied(),
            },
            HistoryCall::Range { lo, hi } => HistoryReturn::Records {
                records: match hi {
                    Some(hi) => self.map.range(lo..hi).map(pair).collect(),
                    None => self.map.range(lo..).map(pair).collect(),
                },
            },
            HistoryCall::Min => HistoryReturn::Extreme {
                record: self.map.iter().next().map(pair),
            },
            HistoryCall::Max => HistoryReturn::Extreme {
                record: self.map.iter().next_back().map(pair),
            },
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the oracle holds no records.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The full contents as `(key bits, value)` pairs in key order —
    /// directly comparable with a materialized index's records.
    pub fn records(&self) -> Vec<(u64, u32)> {
        self.map.iter().map(|(k, v)| (*k, *v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn semantics_match_the_contract() {
        let mut o = ShadowOracle::new();
        assert!(o.is_empty());
        for (key, value) in [(10, 1), (10, 2), (20, 3), (u64::MAX, 4)] {
            assert_eq!(
                o.apply(&HistoryCall::Insert { key, value }),
                HistoryReturn::Inserted
            );
        }
        assert_eq!(o.len(), 3, "the second insert of key 10 upserts");
        let mut ask = |call| o.apply(&call);
        assert_eq!(
            ask(HistoryCall::Get { key: 10 }),
            HistoryReturn::Value { value: Some(2) }
        );
        let records = |records: Vec<(u64, u32)>| HistoryReturn::Records { records };
        let range = |lo, hi| HistoryCall::Range { lo, hi };
        assert_eq!(ask(range(10, Some(20))), records(vec![(10, 2)]));
        assert_eq!(ask(range(10, Some(10))), records(vec![]));
        assert_eq!(ask(range(20, None)), records(vec![(20, 3), (u64::MAX, 4)]));
        assert_eq!(
            ask(HistoryCall::Min),
            HistoryReturn::Extreme {
                record: Some((10, 2))
            }
        );
        assert_eq!(
            ask(HistoryCall::Max),
            HistoryReturn::Extreme {
                record: Some((u64::MAX, 4))
            }
        );
        let removed = |prior| HistoryReturn::Removed { prior };
        assert_eq!(ask(HistoryCall::Remove { key: 10 }), removed(Some(2)));
        assert_eq!(ask(HistoryCall::Remove { key: 10 }), removed(None));
        assert_eq!(o.records(), vec![(20, 3), (u64::MAX, 4)]);
    }
}
