//! Figure 8 — lookup performance.
//!
//! §9.3: with `D = 20`, for each data size 1000 uniformly-distributed
//! keys are looked up and the average number of DHT-lookups per
//! operation is reported, for LHT and PHT. Expected shape: both
//! curves fluctuate with valley points where the tree depth meets the
//! binary search's early probes (data sizes 2^12, 2^16, 2^20 in the
//! paper); LHT averages ≈ 20–30% below PHT.

use std::io::{self, Write};

use lht::harness::args::Parsed;
use lht_core::LhtConfig;
use lht_workload::{summary, KeyDist, LookupGen};

use super::common::growth_args;
use super::GrowthRun;
use crate::Table;

/// Number of lookup probes per data point (the paper's 1000).
pub(crate) const PROBES: usize = 1000;

/// One data-size point of Fig. 8 (means over trials).
#[derive(Clone, Copy, Debug)]
pub(crate) struct LookupPoint {
    /// Records inserted.
    pub n: usize,
    /// Average DHT-lookups per LHT lookup.
    pub lht: f64,
    /// Average DHT-lookups per PHT lookup.
    pub pht: f64,
}

impl LookupPoint {
    /// LHT's saving over PHT at this point (can be negative at PHT's
    /// valley points).
    pub(crate) fn saving(&self) -> f64 {
        1.0 - self.lht / self.pht
    }
}

/// Runs the Fig. 8 experiment for one distribution.
pub(crate) fn lookup_vs_size(dist: KeyDist, sizes: &[usize], trials: u64) -> Vec<LookupPoint> {
    let cfg = LhtConfig::new(100, 20); // the paper's D = 20
    let mut lht_acc: Vec<Vec<f64>> = vec![Vec::new(); sizes.len()];
    let mut pht_acc: Vec<Vec<f64>> = vec![Vec::new(); sizes.len()];
    for trial in 0..trials {
        let seed = 0x8_3000 + trial * 17 + dist.tag().len() as u64;
        let mut idx = 0usize;
        GrowthRun::run(dist, sizes, cfg, seed, |_n, lht, pht| {
            let mut probes = LookupGen::new(seed ^ 0xbeef);
            let (mut l, mut p) = (0u64, 0u64);
            for _ in 0..PROBES {
                let k = probes.next_key();
                l += lht.lookup(k).expect("consistent tree").cost.dht_lookups;
                p += pht.lookup(k).expect("consistent tree").cost.dht_lookups;
            }
            lht_acc[idx].push(l as f64 / PROBES as f64);
            pht_acc[idx].push(p as f64 / PROBES as f64);
            idx += 1;
        });
    }
    sizes
        .iter()
        .enumerate()
        .map(|(i, n)| LookupPoint {
            n: *n,
            lht: summary::mean(&lht_acc[i]),
            pht: summary::mean(&pht_acc[i]),
        })
        .collect()
}

/// `lht-exp fig8`: prints Fig. 8a/8b and writes both CSVs.
pub(crate) fn cmd(p: &Parsed, out: &mut dyn Write) -> io::Result<i32> {
    let (trials, full) = growth_args(p);
    // The paper sweeps data sizes up to 2^20; include the power-of-two
    // "valley points" it highlights (2^12, 2^16, 2^20).
    let top = if full { 20 } else { 16 };
    let sizes: Vec<usize> = (8..=top).map(|e| 1usize << e).collect();

    for (fig, dist) in [("8a", KeyDist::Uniform), ("8b", KeyDist::gaussian_paper())] {
        eprintln!("fig{fig}: {} data…", dist.tag());
        let pts = lookup_vs_size(dist, &sizes, trials);
        let t = Table::of(
            format!(
                "Fig. {fig} — avg DHT-lookups per lookup, {} data (D=20, {} probes)",
                dist.tag(),
                PROBES
            ),
            &pts,
            &[
                ("n", &|p| p.n.to_string()),
                ("LHT", &|p| format!("{:.3}", p.lht)),
                ("PHT", &|p| format!("{:.3}", p.pht)),
                ("saving", &|p| format!("{:+.1}%", 100.0 * p.saving())),
            ],
        );
        t.emit(out, &format!("fig{fig}_lookup_{}", dist.tag()))?;
        let savings: Vec<f64> = pts.iter().map(LookupPoint::saving).collect();
        writeln!(
            out,
            "(average saving across sizes: {:+.1}% — paper reports ≈20% uniform / ≈30% gaussian;\n curves fluctuate and PHT touches valley points at sizes 2^12, 2^16, 2^20)\n",
            100.0 * summary::mean(&savings)
        )?;
    }
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_costs_are_logarithmic_and_lht_saves_on_average() {
        let sizes = [1 << 10, 1 << 11, 1 << 13, 1 << 14];
        let pts = lookup_vs_size(KeyDist::Uniform, &sizes, 1);
        for p in &pts {
            assert!(p.lht >= 1.0 && p.lht <= 6.0, "LHT avg {}", p.lht);
            assert!(p.pht >= 1.0 && p.pht <= 6.0, "PHT avg {}", p.pht);
        }
        let avg_saving: f64 = pts.iter().map(LookupPoint::saving).sum::<f64>() / pts.len() as f64;
        assert!(
            avg_saving > 0.0,
            "LHT should save on average across sizes, got {avg_saving}"
        );
    }
}
