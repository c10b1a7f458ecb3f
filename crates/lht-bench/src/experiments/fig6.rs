//! Figure 6 — average α.
//!
//! §9.2: data is continuously inserted into LHT and the average α
//! (moved fraction of `θ_split` per split, averaged over all splits
//! of the tree's growth) is recorded, (a) against data size for
//! `θ_split ∈ {40, 160}` and (b) against `θ_split`. The paper's
//! closed form for uniform data is `ᾱ = ½ + 1/(2·θ_split)`.

use std::io::{self, Write};

use lht::harness::args::Parsed;
use lht_core::LhtConfig;
use lht_workload::{summary, KeyDist};

use super::common::{data_sizes, growth_args};
use super::GrowthRun;
use crate::Table;

/// One point of Fig. 6a: data size → average α (mean over trials).
#[derive(Clone, Copy, Debug)]
pub(crate) struct AlphaPoint {
    /// Mean over trials of the run's average α.
    pub avg_alpha: f64,
}

/// Fig. 6a: average α as a function of data size.
pub(crate) fn alpha_vs_size(
    dist: KeyDist,
    theta_split: usize,
    sizes: &[usize],
    trials: u64,
) -> Vec<AlphaPoint> {
    let cfg = LhtConfig::new(theta_split, 24);
    let mut per_size: Vec<Vec<f64>> = vec![Vec::new(); sizes.len()];
    for trial in 0..trials {
        let run = GrowthRun::run(dist, sizes, cfg, seed(dist, trial), |_, _, _| {});
        for (i, cp) in run.checkpoints.iter().enumerate() {
            if let Some(a) = cp.lht.average_alpha() {
                per_size[i].push(a);
            }
        }
    }
    per_size
        .iter()
        .map(|alphas| AlphaPoint {
            avg_alpha: summary::mean(alphas),
        })
        .collect()
}

/// One point of Fig. 6b: `θ_split` → average α, with the paper's
/// predicted value for uniform data.
#[derive(Clone, Copy, Debug)]
pub(crate) struct AlphaThetaPoint {
    /// Measured mean average α.
    pub avg_alpha: f64,
    /// The closed form `½ + 1/(2θ)`.
    pub predicted: f64,
}

/// Fig. 6b: average α as a function of `θ_split` at a fixed data
/// size.
pub(crate) fn alpha_vs_theta(
    dist: KeyDist,
    n: usize,
    thetas: &[usize],
    trials: u64,
) -> Vec<AlphaThetaPoint> {
    thetas
        .iter()
        .map(|&theta| {
            let points = alpha_vs_size(dist, theta, &[n], trials);
            AlphaThetaPoint {
                avg_alpha: points[0].avg_alpha,
                predicted: 0.5 + 1.0 / (2.0 * theta as f64),
            }
        })
        .collect()
}

fn seed(dist: KeyDist, trial: u64) -> u64 {
    let tag = match dist {
        KeyDist::Uniform => 1,
        KeyDist::Gaussian { .. } => 2,
        KeyDist::Zipf { .. } => 3,
    };
    0x6_1000 + tag * 1_000 + trial
}

/// `lht-exp fig6`: prints Fig. 6a/6b and writes both CSVs.
pub(crate) fn cmd(p: &Parsed, out: &mut dyn Write) -> io::Result<i32> {
    let (trials, full) = growth_args(p);
    let dists = [KeyDist::Uniform, KeyDist::gaussian_paper()];

    // Fig. 6a: average α vs data size, θ_split ∈ {40, 160}.
    let sizes = data_sizes(full);
    let mut t6a = Table::new(
        "Fig. 6a — average α vs data size (mean over trials)",
        &[
            "n",
            "uniform θ=40",
            "uniform θ=160",
            "gaussian θ=40",
            "gaussian θ=160",
        ],
    );
    let mut cols: Vec<Vec<AlphaPoint>> = Vec::new();
    for dist in dists {
        for theta in [40usize, 160] {
            eprintln!("fig6a: {} θ={theta}…", dist.tag());
            cols.push(alpha_vs_size(dist, theta, &sizes, trials));
        }
    }
    for (i, n) in sizes.iter().enumerate() {
        t6a.push_row(vec![
            n.to_string(),
            format!("{:.4}", cols[0][i].avg_alpha),
            format!("{:.4}", cols[1][i].avg_alpha),
            format!("{:.4}", cols[2][i].avg_alpha),
            format!("{:.4}", cols[3][i].avg_alpha),
        ]);
    }
    t6a.emit(out, "fig6a_alpha_vs_size")?;
    writeln!(
        out,
        "(paper: ᾱ approaches ½ + 1/(2θ): {:.4} for θ=40, {:.4} for θ=160)\n",
        0.5 + 1.0 / 80.0,
        0.5 + 1.0 / 320.0
    )?;

    // Fig. 6b: average α vs θ_split at a fixed data size.
    let n = if full { 1 << 18 } else { 1 << 14 };
    let thetas = [20usize, 40, 80, 160, 320];
    let mut t6b = Table::new(
        format!("Fig. 6b — average α vs θ_split (n = {n})"),
        &["theta", "uniform", "gaussian", "predicted ½+1/2θ"],
    );
    eprintln!("fig6b…");
    let uni = alpha_vs_theta(KeyDist::Uniform, n, &thetas, trials);
    let gau = alpha_vs_theta(KeyDist::gaussian_paper(), n, &thetas, trials);
    for i in 0..thetas.len() {
        t6b.push_row(vec![
            thetas[i].to_string(),
            format!("{:.4}", uni[i].avg_alpha),
            format!("{:.4}", gau[i].avg_alpha),
            format!("{:.4}", uni[i].predicted),
        ]);
    }
    t6b.emit(out, "fig6b_alpha_vs_theta")?;
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_alpha_tracks_closed_form() {
        let pts = alpha_vs_size(KeyDist::Uniform, 40, &[4096], 2);
        let predicted = 0.5 + 1.0 / 80.0;
        assert!(
            (pts[0].avg_alpha - predicted).abs() < 0.03,
            "α = {} vs predicted {predicted}",
            pts[0].avg_alpha
        );
    }

    #[test]
    fn theta_sweep_shape() {
        let rows = alpha_vs_theta(KeyDist::Uniform, 2048, &[8, 32], 1);
        assert_eq!(rows.len(), 2);
        assert!(rows[0].predicted > rows[1].predicted, "ᾱ decreases with θ");
        for r in rows {
            assert!(r.avg_alpha > 0.45 && r.avg_alpha < 0.65);
        }
    }
}
