//! The LHT paper's linear bandwidth cost model (§8).
//!
//! The model charges `ı` units per data record moved between peers and
//! `ȷ` units per DHT-lookup: `ı` grows with record size, `ȷ` with
//! network scale (a DHT-lookup is `O(log N)` physical hops). On this
//! model the paper derives per-split costs
//!
//! * `Ψ_LHT = ½·θ·ı + 1·ȷ` — half the bucket moves, one DHT-put;
//! * `Ψ_PHT = θ·ı + 4·ȷ` — the whole bucket moves as two renamed
//!   children, plus two leaf-link updates;
//!
//! and the **saving ratio** (Eq. 3)
//!
//! ```text
//! 1 − Ψ_LHT/Ψ_PHT = (½·γ + 3) / (γ + 4),   γ = θ·ı / ȷ
//! ```
//!
//! which ranges from 75% (lookup-dominated, γ → 0) down to 50%
//! (data-dominated, γ → ∞) — the abstract's "saves up to 75% (at
//! least 50%) maintenance cost".
//!
//! # Examples
//!
//! ```
//! use lht_cost::CostModel;
//!
//! let m = CostModel::new(1.0, 50.0); // small records, mid-size net
//! let theta = 100;
//! assert!(m.psi_lht(theta) < m.psi_pht(theta));
//! let ratio = m.saving_ratio(theta);
//! assert!((0.5..=0.75).contains(&ratio));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

use serde::{Deserialize, Serialize};

/// The linear cost model: `ı` units per moved record, `ȷ` units per
/// DHT-lookup.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Bandwidth units to move one data record (`ı`).
    pub record_unit: f64,
    /// Bandwidth units per DHT-lookup (`ȷ`).
    pub lookup_unit: f64,
}

impl CostModel {
    /// Creates a model.
    ///
    /// # Panics
    ///
    /// Panics unless both units are positive and finite.
    pub fn new(record_unit: f64, lookup_unit: f64) -> CostModel {
        assert!(
            record_unit > 0.0 && record_unit.is_finite(),
            "record unit must be positive"
        );
        assert!(
            lookup_unit > 0.0 && lookup_unit.is_finite(),
            "lookup unit must be positive"
        );
        CostModel {
            record_unit,
            lookup_unit,
        }
    }

    /// The dimensionless ratio `γ = θ·ı / ȷ` governing Eq. 3.
    pub fn gamma(&self, theta_split: usize) -> f64 {
        theta_split as f64 * self.record_unit / self.lookup_unit
    }

    /// Average bandwidth of one LHT leaf split (Eq. 1):
    /// `Ψ_LHT = ½·θ·ı + 1·ȷ`.
    pub fn psi_lht(&self, theta_split: usize) -> f64 {
        0.5 * theta_split as f64 * self.record_unit + self.lookup_unit
    }

    /// Bandwidth of one PHT leaf split (Eq. 2):
    /// `Ψ_PHT = θ·ı + 4·ȷ`.
    pub fn psi_pht(&self, theta_split: usize) -> f64 {
        theta_split as f64 * self.record_unit + 4.0 * self.lookup_unit
    }

    /// LHT's maintenance saving over PHT (Eq. 3) for this model and
    /// threshold: `1 − Ψ_LHT/Ψ_PHT`.
    pub fn saving_ratio(&self, theta_split: usize) -> f64 {
        saving_ratio_from_gamma(self.gamma(theta_split))
    }

    /// Bandwidth of an arbitrary measured workload: `records_moved`
    /// record-units plus `lookups` lookup-units. Lets experiment
    /// harnesses convert raw counters into model units.
    pub fn cost(&self, records_moved: u64, lookups: u64) -> f64 {
        records_moved as f64 * self.record_unit + lookups as f64 * self.lookup_unit
    }
}

/// Eq. 3 as a function of `γ` directly:
/// `(½·γ + 3) / (γ + 4)`.
///
/// ```
/// // γ → 0: saving → 3/4. γ → ∞: saving → 1/2.
/// assert!((lht_cost::saving_ratio_from_gamma(0.0) - 0.75).abs() < 1e-12);
/// assert!(lht_cost::saving_ratio_from_gamma(1e12) - 0.5 < 1e-6);
/// ```
pub fn saving_ratio_from_gamma(gamma: f64) -> f64 {
    assert!(gamma >= 0.0, "gamma is a ratio of positive quantities");
    (0.5 * gamma + 3.0) / (gamma + 4.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn psi_formulas_match_paper() {
        let m = CostModel::new(2.0, 10.0);
        // Ψ_LHT = 0.5·100·2 + 10 = 110; Ψ_PHT = 100·2 + 40 = 240.
        assert_eq!(m.psi_lht(100), 110.0);
        assert_eq!(m.psi_pht(100), 240.0);
        assert!((m.saving_ratio(100) - (1.0 - 110.0 / 240.0)).abs() < 1e-12);
    }

    #[test]
    fn gamma_definition() {
        let m = CostModel::new(2.0, 10.0);
        assert_eq!(m.gamma(100), 20.0);
    }

    #[test]
    fn eq3_limits() {
        assert!((saving_ratio_from_gamma(0.0) - 0.75).abs() < 1e-12);
        assert!((saving_ratio_from_gamma(1e9) - 0.5).abs() < 1e-6);
        // Monotone decreasing in γ.
        let mut prev = saving_ratio_from_gamma(0.0);
        for g in [0.1, 1.0, 4.0, 10.0, 100.0, 1e4] {
            let s = saving_ratio_from_gamma(g);
            assert!(s < prev);
            prev = s;
        }
    }

    #[test]
    fn measured_cost_combines_units() {
        let m = CostModel::new(1.5, 8.0);
        assert_eq!(m.cost(10, 3), 15.0 + 24.0);
        assert_eq!(m.cost(0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_units() {
        CostModel::new(0.0, 1.0);
    }

    proptest! {
        /// Eq. 3 equals 1 − Ψ_LHT/Ψ_PHT for every model and θ —
        /// i.e. the closed form is consistent with the Ψ formulas.
        #[test]
        fn eq3_consistent_with_psis(
            i in 0.001f64..1e3, j in 0.001f64..1e3, theta in 2usize..100_000
        ) {
            let m = CostModel::new(i, j);
            let direct = 1.0 - m.psi_lht(theta) / m.psi_pht(theta);
            prop_assert!((m.saving_ratio(theta) - direct).abs() < 1e-9);
            prop_assert!((0.5..=0.75).contains(&m.saving_ratio(theta)));
        }
    }
}
