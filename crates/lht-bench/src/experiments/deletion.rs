//! Extension experiment E15 — deletion-phase maintenance (the dual
//! of Fig. 7).
//!
//! §8.2 analyzes split cost and notes merges "are dual to each other,
//! and for brevity, only leaf split is discussed". This experiment
//! measures the dual directly: a fully-built index is drained by
//! random deletions and the cumulative merge maintenance is recorded
//! for LHT and PHT, checking that LHT's advantage carries over to
//! shrinkage. (Our distributed merges pay explicit probe/tombstone
//! lookups on top of the one data-carrying transfer — see
//! EXPERIMENTS.md's deviations — so the measured ratio is reported
//! both in total and per-merge.)

use std::io::{self, Write};

use lht::harness::args::Parsed;
use lht_core::{LeafBucket, LhtConfig, LhtIndex};
use lht_dht::DirectDht;
use lht_pht::{PhtIndex, PhtNode};
use lht_workload::{Dataset, KeyDist};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::Table;

/// Checkpointed deletion statistics.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DeletionPoint {
    /// Records remaining in the index.
    pub remaining: usize,
    /// LHT merges so far.
    pub lht_merges: u64,
    /// PHT merges so far.
    pub pht_merges: u64,
    /// Cumulative LHT maintenance DHT-lookups (merge traffic).
    pub lht_lookups: u64,
    /// Cumulative PHT maintenance DHT-lookups.
    pub pht_lookups: u64,
    /// Cumulative LHT record-units moved by merges.
    pub lht_moved: u64,
    /// Cumulative PHT record-units moved by merges.
    pub pht_moved: u64,
}

/// Builds an index of `n` records, then deletes all of them in a
/// seeded random order, checkpointing every `n/checkpoints` removals.
pub(crate) fn drain(dist: KeyDist, n: usize, checkpoints: usize, seed: u64) -> Vec<DeletionPoint> {
    let cfg = LhtConfig::new(100, 24);
    let data = Dataset::generate(dist, n, seed);

    let lht_dht: DirectDht<LeafBucket<u32>> = DirectDht::new();
    let lht = LhtIndex::new(&lht_dht, cfg).expect("fresh");
    let pht_dht: DirectDht<PhtNode<u32>> = DirectDht::new();
    let pht = PhtIndex::new(&pht_dht, cfg).expect("fresh");
    for (i, k) in data.iter().enumerate() {
        lht.insert(k, i as u32).expect("oracle substrate");
        pht.insert(k, i as u32).expect("oracle substrate");
    }
    // Separate growth from shrinkage accounting.
    let lht_base = lht.stats();
    let pht_base = pht.stats();

    let mut order: Vec<_> = data.iter().collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed ^ 0xdead));

    let every = (n / checkpoints).max(1);
    let mut out = Vec::new();
    for (i, key) in order.into_iter().enumerate() {
        let r = lht.remove(key).expect("oracle substrate");
        assert!(r.value.is_some(), "every key deleted exactly once");
        let (v, ..) = pht.remove(key).expect("oracle substrate");
        assert!(v.is_some());
        if (i + 1) % every == 0 || i + 1 == n {
            let ls = lht.stats();
            let ps = pht.stats();
            out.push(DeletionPoint {
                remaining: n - (i + 1),
                lht_merges: ls.merges,
                pht_merges: ps.merges,
                lht_lookups: ls.maintenance_lookups - lht_base.maintenance_lookups,
                pht_lookups: ps.maintenance_lookups - pht_base.maintenance_lookups,
                lht_moved: ls.records_moved - lht_base.records_moved,
                pht_moved: ps.records_moved - pht_base.records_moved,
            });
        }
    }
    out
}

/// `lht-exp deletion`: prints the E15 drain table per distribution
/// and writes both CSVs.
pub(crate) fn cmd(p: &Parsed, out: &mut dyn Write) -> io::Result<i32> {
    let full = p.on("--full");
    let n = if full { 1 << 17 } else { 1 << 14 };

    for dist in [KeyDist::Uniform, KeyDist::gaussian_paper()] {
        eprintln!("deletion drain: {} data, n = {n}…", dist.tag());
        let pts = drain(dist, n, 8, 99);
        let moved_ratio = |p: &DeletionPoint| p.lht_moved as f64 / p.pht_moved.max(1) as f64;
        let t = Table::of(
            format!(
                "E15 — cumulative merge maintenance while draining, {} data (θ=100)",
                dist.tag()
            ),
            &pts,
            &[
                ("remaining", &|p| p.remaining.to_string()),
                ("LHT merges", &|p| p.lht_merges.to_string()),
                ("PHT merges", &|p| p.pht_merges.to_string()),
                ("LHT lookups", &|p| p.lht_lookups.to_string()),
                ("PHT lookups", &|p| p.pht_lookups.to_string()),
                ("LHT moved", &|p| p.lht_moved.to_string()),
                ("PHT moved", &|p| p.pht_moved.to_string()),
                ("moved ratio", &|p| format!("{:.3}", moved_ratio(p))),
            ],
        );
        t.emit(out, &format!("e15_deletion_{}", dist.tag()))?;
        writeln!(out)?;
    }
    writeln!(
        out,
        "(§8.2 calls merge the dual of split; LHT's movement advantage carries over\n to shrinkage. Our merges additionally pay an explicit sibling probe and\n tombstone removal — see EXPERIMENTS.md deviations — yet stay cheaper.)"
    )?;
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draining_merges_back_and_lht_stays_cheaper() {
        let pts = drain(KeyDist::Uniform, 8192, 4, 7);
        let last = pts.last().unwrap();
        assert_eq!(last.remaining, 0);
        assert!(last.lht_merges > 10, "LHT merged: {}", last.lht_merges);
        assert!(last.pht_merges > 10, "PHT merged: {}", last.pht_merges);
        // The dual of Fig. 7a: LHT moves roughly half per merge.
        let lht_per = last.lht_moved as f64 / last.lht_merges as f64;
        let pht_per = last.pht_moved as f64 / last.pht_merges as f64;
        assert!(
            lht_per < 0.75 * pht_per,
            "per-merge movement {lht_per} vs {pht_per}"
        );
        // Total merge traffic stays below PHT's.
        assert!(last.lht_lookups < last.pht_lookups);
        assert!(last.lht_moved < last.pht_moved);
    }
}
