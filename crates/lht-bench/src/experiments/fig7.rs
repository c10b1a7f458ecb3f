//! Figure 7 — cumulative maintenance cost, LHT vs PHT.
//!
//! §9.2: progressively larger datasets are inserted into both
//! schemes with `θ_split = 100`; the cumulative number of moved
//! records (Fig. 7a) and of maintenance DHT-lookups (Fig. 7b) are
//! recorded. Expected shape: LHT moves ≈ half the records PHT does
//! and issues ≈ a quarter of the DHT-lookups.

use std::io::{self, Write};

use lht::harness::args::Parsed;
use lht_core::LhtConfig;
use lht_workload::{summary, KeyDist};

use super::common::{data_sizes, growth_args};
use super::GrowthRun;
use crate::Table;

/// One data-size point of Fig. 7 (means over trials).
#[derive(Clone, Copy, Debug)]
pub(crate) struct MaintenancePoint {
    /// Records inserted.
    pub n: usize,
    /// Fig. 7a: cumulative record-storage units moved by LHT splits.
    pub lht_moved: f64,
    /// Fig. 7a: the same for PHT.
    pub pht_moved: f64,
    /// Fig. 7b: cumulative maintenance DHT-lookups spent by LHT.
    pub lht_lookups: f64,
    /// Fig. 7b: the same for PHT.
    pub pht_lookups: f64,
}

impl MaintenancePoint {
    /// LHT/PHT ratio of moved records (≈ 0.5 expected).
    pub(crate) fn moved_ratio(&self) -> f64 {
        self.lht_moved / self.pht_moved.max(1.0)
    }

    /// LHT/PHT ratio of maintenance lookups (≈ 0.25 expected).
    pub(crate) fn lookup_ratio(&self) -> f64 {
        self.lht_lookups / self.pht_lookups.max(1.0)
    }
}

/// Runs the Fig. 7 experiment: one growth pass per trial, cumulative
/// stats at each size.
pub(crate) fn maintenance_vs_size(
    dist: KeyDist,
    sizes: &[usize],
    trials: u64,
) -> Vec<MaintenancePoint> {
    let cfg = LhtConfig::new(100, 24);
    let mut acc: Vec<[Vec<f64>; 4]> = (0..sizes.len()).map(|_| Default::default()).collect();
    for trial in 0..trials {
        let seed = 0x7_2000 + trial * 31 + dist.tag().len() as u64;
        let run = GrowthRun::run(dist, sizes, cfg, seed, |_, _, _| {});
        for (i, cp) in run.checkpoints.iter().enumerate() {
            acc[i][0].push(cp.lht.records_moved as f64);
            acc[i][1].push(cp.pht.records_moved as f64);
            acc[i][2].push(cp.lht.maintenance_lookups as f64);
            acc[i][3].push(cp.pht.maintenance_lookups as f64);
        }
    }
    sizes
        .iter()
        .zip(acc)
        .map(|(n, cols)| MaintenancePoint {
            n: *n,
            lht_moved: summary::mean(&cols[0]),
            pht_moved: summary::mean(&cols[1]),
            lht_lookups: summary::mean(&cols[2]),
            pht_lookups: summary::mean(&cols[3]),
        })
        .collect()
}

/// `lht-exp fig7`: prints Fig. 7a/7b per distribution and writes the
/// four CSVs.
pub(crate) fn cmd(p: &Parsed, out: &mut dyn Write) -> io::Result<i32> {
    let (trials, full) = growth_args(p);
    let sizes = data_sizes(full);

    for dist in [KeyDist::Uniform, KeyDist::gaussian_paper()] {
        eprintln!("fig7: {} data…", dist.tag());
        let pts = maintenance_vs_size(dist, &sizes, trials);

        let t7a = Table::of(
            format!(
                "Fig. 7a — cumulative moved records, {} data (θ=100)",
                dist.tag()
            ),
            &pts,
            &[
                ("n", &|p| p.n.to_string()),
                ("LHT", &|p| format!("{:.0}", p.lht_moved)),
                ("PHT", &|p| format!("{:.0}", p.pht_moved)),
                ("LHT/PHT", &|p| format!("{:.3}", p.moved_ratio())),
            ],
        );
        let t7b = Table::of(
            format!(
                "Fig. 7b — cumulative maintenance DHT-lookups, {} data (θ=100)",
                dist.tag()
            ),
            &pts,
            &[
                ("n", &|p| p.n.to_string()),
                ("LHT", &|p| format!("{:.0}", p.lht_lookups)),
                ("PHT", &|p| format!("{:.0}", p.pht_lookups)),
                ("LHT/PHT", &|p| format!("{:.3}", p.lookup_ratio())),
            ],
        );
        t7a.emit(out, &format!("fig7a_moved_{}", dist.tag()))?;
        writeln!(out, "(paper: LHT's movement cost remains half of PHT's)\n")?;
        t7b.emit(out, &format!("fig7b_lookups_{}", dist.tag()))?;
        writeln!(
            out,
            "(paper: LHT's DHT-lookup cost is about 25% of PHT's)\n"
        )?;
    }
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_match_section8_shape() {
        let pts = maintenance_vs_size(KeyDist::Uniform, &[2048, 8192], 1);
        let last = pts.last().unwrap();
        assert!(
            (0.4..=0.6).contains(&last.moved_ratio()),
            "moved ratio {}",
            last.moved_ratio()
        );
        assert!(
            (0.2..=0.35).contains(&last.lookup_ratio()),
            "lookup ratio {}",
            last.lookup_ratio()
        );
        // Cost grows with data size.
        assert!(pts[1].lht_moved > pts[0].lht_moved);
    }
}
