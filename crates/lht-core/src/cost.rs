//! Cost accounting for index operations (the paper's cost model, §8).

use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign};

/// The cost of a single index operation, in the paper's currency:
/// DHT-lookups (each `get`/`put`/`update`/`remove` routes once).
///
/// `steps` additionally captures *time latency* the way §9.4 measures
/// it: the number of **sequential rounds** of DHT-lookups on the
/// operation's critical path — parallel lookups issued in the same
/// round count as one step.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpCost {
    /// Total DHT-lookups consumed (bandwidth measure).
    pub dht_lookups: u64,
    /// Sequential DHT-lookup rounds on the critical path (latency
    /// measure). For strictly sequential operations this equals
    /// `dht_lookups`.
    pub steps: u64,
}

impl OpCost {
    /// A zero cost.
    pub const ZERO: OpCost = OpCost {
        dht_lookups: 0,
        steps: 0,
    };

    /// A fully sequential cost of `n` lookups (`steps == n`).
    pub fn sequential(n: u64) -> OpCost {
        OpCost {
            dht_lookups: n,
            steps: n,
        }
    }
}

impl Add for OpCost {
    type Output = OpCost;

    fn add(self, rhs: OpCost) -> OpCost {
        OpCost {
            dht_lookups: self.dht_lookups + rhs.dht_lookups,
            steps: self.steps + rhs.steps,
        }
    }
}

impl AddAssign for OpCost {
    fn add_assign(&mut self, rhs: OpCost) {
        *self = *self + rhs;
    }
}

/// The cost of a range query, separating the paper's two §9.4
/// measurements.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RangeCost {
    /// Bandwidth: total DHT-lookups consumed by the query.
    pub dht_lookups: u64,
    /// Latency: parallel steps — the depth of the forwarding DAG,
    /// counting simultaneous lookups as one step.
    pub steps: u64,
    /// Number of distinct leaf buckets that contributed records
    /// (the `B` of the §6.3 complexity bound `B + 3`).
    pub buckets_visited: u64,
}

impl From<RangeCost> for OpCost {
    /// A range query's lookups and steps, without the bucket count.
    fn from(cost: RangeCost) -> OpCost {
        OpCost {
            dht_lookups: cost.dht_lookups,
            steps: cost.steps,
        }
    }
}

/// Cumulative statistics of an index instance, separating *query*
/// traffic from *maintenance* traffic the way the paper's cost model
/// does (§8.2: maintenance cost is paid only for structural
/// adjustment — leaf splits and merges).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct IndexStats {
    /// Records inserted.
    pub inserts: u64,
    /// Records removed.
    pub removes: u64,
    /// Leaf splits performed.
    pub splits: u64,
    /// Leaf merges performed.
    pub merges: u64,
    /// DHT-lookups attributable to maintenance (splits and merges)
    /// only. For LHT each split costs exactly 1 (Theorem 2); for PHT
    /// each split costs 4 (§8.2).
    pub maintenance_lookups: u64,
    /// Record-storage units moved between peers by maintenance. Per
    /// the paper's accounting (§9.2) a moved bucket's leaf label
    /// counts as one unit alongside its data records.
    pub records_moved: u64,
    /// Sum over all splits of `α` — the moved (remote) fraction of
    /// `θ_split` (§8.2). `alpha_sum / splits` is the paper's
    /// *average α* (Fig. 6), which approaches `1/2 + 1/(2·θ_split)`.
    pub alpha_sum: f64,
}

impl IndexStats {
    /// The average `α` over all splits so far (Fig. 6), or `None`
    /// before the first split.
    pub fn average_alpha(&self) -> Option<f64> {
        if self.splits == 0 {
            None
        } else {
            Some(self.alpha_sum / self.splits as f64)
        }
    }
}

/// Every column is a cumulative sum, so merging the stats of several
/// index handles over one shared substrate — concurrent clients, one
/// handle each — is plain columnwise addition; `average_alpha` of the
/// sum is the split-weighted mean across the handles.
impl Add for IndexStats {
    type Output = IndexStats;

    fn add(self, rhs: IndexStats) -> IndexStats {
        IndexStats {
            inserts: self.inserts + rhs.inserts,
            removes: self.removes + rhs.removes,
            splits: self.splits + rhs.splits,
            merges: self.merges + rhs.merges,
            maintenance_lookups: self.maintenance_lookups + rhs.maintenance_lookups,
            records_moved: self.records_moved + rhs.records_moved,
            alpha_sum: self.alpha_sum + rhs.alpha_sum,
        }
    }
}

impl AddAssign for IndexStats {
    fn add_assign(&mut self, rhs: IndexStats) {
        *self = *self + rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_cost_addition() {
        let a = OpCost {
            dht_lookups: 3,
            steps: 2,
        };
        let b = OpCost::sequential(4);
        let c = a + b;
        assert_eq!(c.dht_lookups, 7);
        assert_eq!(c.steps, 6);
        let mut d = OpCost::ZERO;
        d += c;
        assert_eq!(d, c);
    }

    #[test]
    fn sequential_cost_equates_steps() {
        let c = OpCost::sequential(5);
        assert_eq!(c.dht_lookups, c.steps);
    }

    #[test]
    fn index_stats_sum_is_columnwise() {
        let a = IndexStats {
            inserts: 10,
            removes: 1,
            splits: 2,
            merges: 0,
            maintenance_lookups: 2,
            records_moved: 40,
            alpha_sum: 1.0,
        };
        let b = IndexStats {
            inserts: 5,
            removes: 0,
            splits: 2,
            merges: 1,
            maintenance_lookups: 6,
            records_moved: 30,
            alpha_sum: 1.2,
        };
        let mut c = a;
        c += b;
        assert_eq!(c.inserts, 15);
        assert_eq!(c.splits, 4);
        assert_eq!(c.maintenance_lookups, 8);
        assert_eq!(c.records_moved, 70);
        // Split-weighted mean of the two handles' alphas.
        assert!((c.average_alpha().unwrap() - 2.2 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn average_alpha_handles_no_splits() {
        let mut s = IndexStats::default();
        assert_eq!(s.average_alpha(), None);
        s.splits = 4;
        s.alpha_sum = 2.2;
        assert!((s.average_alpha().unwrap() - 0.55).abs() < 1e-12);
    }
}
