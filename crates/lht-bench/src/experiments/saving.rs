//! §8 / Eq. 3 — the maintenance saving ratio, analytic vs measured.
//!
//! The paper's claim — "LHT saves up to 75% (at least 50%)
//! maintenance cost" — is Eq. 3 evaluated over γ. This experiment
//! sweeps γ analytically and cross-checks against *measured* split
//! costs from a growth run, converting raw counters (records moved,
//! maintenance lookups) into model units.

use std::io::{self, Write};

use lht::harness::args::Parsed;
use lht_core::LhtConfig;
use lht_cost::{saving_ratio_from_gamma, CostModel};
use lht_workload::KeyDist;

use super::common::growth_args;
use super::GrowthRun;
use crate::Table;

/// One γ point of the saving-ratio table.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SavingPoint {
    /// The cost-model ratio `γ = θ·ı/ȷ`.
    pub gamma: f64,
    /// Eq. 3's analytic saving ratio.
    pub analytic: f64,
    /// The saving ratio computed from measured LHT/PHT maintenance
    /// counters under the same model.
    pub measured: f64,
}

/// Sweeps γ over `gammas`, measuring one growth run of `n` records
/// and pricing its counters under each model.
pub(crate) fn saving_table(
    dist: KeyDist,
    n: usize,
    gammas: &[f64],
    trials: u64,
) -> Vec<SavingPoint> {
    let theta = 100usize;
    let cfg = LhtConfig::new(theta, 24);
    // Accumulate counters over trials.
    let (mut lm, mut ll, mut pm, mut pl) = (0u64, 0u64, 0u64, 0u64);
    for trial in 0..trials {
        let run = GrowthRun::run(dist, &[n], cfg, 0xE9_6000 + trial, |_, _, _| {});
        let cp = run.checkpoints[0];
        lm += cp.lht.records_moved;
        ll += cp.lht.maintenance_lookups;
        pm += cp.pht.records_moved;
        pl += cp.pht.maintenance_lookups;
    }
    gammas
        .iter()
        .map(|&gamma| {
            // Fix ȷ = 1 and solve ı from γ = θ·ı/ȷ.
            let model = CostModel::new(gamma / theta as f64, 1.0);
            let measured = 1.0 - model.cost(lm, ll) / model.cost(pm, pl);
            SavingPoint {
                gamma,
                analytic: saving_ratio_from_gamma(gamma),
                measured,
            }
        })
        .collect()
}

/// `lht-exp saving-ratio`: prints the Eq. 3 table per distribution
/// and writes both CSVs.
pub(crate) fn cmd(p: &Parsed, out: &mut dyn Write) -> io::Result<i32> {
    let (trials, full) = growth_args(p);
    let n = if full { 1 << 18 } else { 1 << 14 };
    let gammas = [0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0, 1000.0];

    for dist in [KeyDist::Uniform, KeyDist::gaussian_paper()] {
        eprintln!("saving table: {} data…", dist.tag());
        let rows = saving_table(dist, n, &gammas, trials);
        let t = Table::of(
            format!(
                "Eq. 3 — maintenance saving ratio vs γ = θı/ȷ, {} data (θ=100, n={n})",
                dist.tag()
            ),
            &rows,
            &[
                ("gamma", &|r| format!("{:.2}", r.gamma)),
                ("analytic", &|r| format!("{:.1}%", 100.0 * r.analytic)),
                ("measured", &|r| format!("{:.1}%", 100.0 * r.measured)),
            ],
        );
        t.emit(out, &format!("eq3_saving_{}", dist.tag()))?;
        writeln!(out)?;
    }
    writeln!(
        out,
        "(paper: the saving ratio can be up to 75% and is at least 50%)"
    )?;
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_tracks_analytic_within_the_band() {
        let rows = saving_table(KeyDist::Uniform, 8192, &[0.1, 1.0, 10.0, 100.0], 1);
        for r in &rows {
            assert!(
                (r.analytic - r.measured).abs() < 0.04,
                "γ = {}: analytic {} vs measured {}",
                r.gamma,
                r.analytic,
                r.measured
            );
            assert!((0.45..=0.80).contains(&r.measured));
        }
        // Saving decreases as data movement dominates.
        assert!(rows[0].measured > rows[3].measured);
    }
}
