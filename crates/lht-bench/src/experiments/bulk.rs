//! Extension experiment E13 — bulk loading ablation.
//!
//! How much of the incremental maintenance cost of Fig. 7 is the
//! price of *distributed* growth? [`LhtIndex::bulk_load`] builds the
//! same tree locally and ships each leaf once; comparing total
//! DHT-lookups and moved records quantifies the gap (and the value of
//! incremental growth: bulk loading only works for a complete,
//! up-front dataset on a fresh index).

use std::io::{self, Write};

use lht::harness::args::Parsed;
use lht_core::{LeafBucket, LhtConfig, LhtIndex};
use lht_dht::{Dht, DirectDht};
use lht_workload::{Dataset, KeyDist};

use super::common::data_sizes;
use crate::Table;

/// One data-size row of the ablation.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BulkRow {
    /// Records loaded.
    pub n: usize,
    /// Total DHT-lookups for one-by-one insertion (queries +
    /// maintenance).
    pub incremental_lookups: u64,
    /// Record-storage units moved by incremental splits.
    pub incremental_moved: u64,
    /// Total DHT-lookups for the bulk load (1 check + 1 put/leaf).
    pub bulk_lookups: u64,
    /// Leaves the bulk build produced.
    pub bulk_leaves: u64,
}

impl BulkRow {
    /// Incremental-to-bulk lookup ratio (how many times more
    /// expensive incremental growth is).
    pub(crate) fn ratio(&self) -> f64 {
        self.incremental_lookups as f64 / self.bulk_lookups.max(1) as f64
    }
}

/// Runs the ablation at each size.
pub(crate) fn bulk_vs_incremental(dist: KeyDist, sizes: &[usize], seed: u64) -> Vec<BulkRow> {
    let cfg = LhtConfig::new(100, 20);
    sizes
        .iter()
        .map(|&n| {
            let data = Dataset::generate(dist, n, seed + n as u64);

            let inc_dht: DirectDht<LeafBucket<u32>> = DirectDht::new();
            let inc = LhtIndex::new(&inc_dht, cfg).expect("fresh");
            inc_dht.reset_stats();
            for (i, k) in data.iter().enumerate() {
                inc.insert(k, i as u32).expect("oracle substrate");
            }

            let bulk_dht: DirectDht<LeafBucket<u32>> = DirectDht::new();
            let bulk = LhtIndex::new(&bulk_dht, cfg).expect("fresh");
            let outcome = bulk
                .bulk_load(data.iter().enumerate().map(|(i, k)| (k, i as u32)))
                .expect("fresh index");

            BulkRow {
                n,
                incremental_lookups: inc_dht.stats().lookups(),
                incremental_moved: inc.stats().records_moved,
                bulk_lookups: outcome.cost.dht_lookups,
                bulk_leaves: outcome.leaves,
            }
        })
        .collect()
}

/// `lht-exp bulk-load`: prints the E13 table per distribution and
/// writes both CSVs.
pub(crate) fn cmd(p: &Parsed, out: &mut dyn Write) -> io::Result<i32> {
    let full = p.on("--full");
    let sizes = data_sizes(full);

    for dist in [KeyDist::Uniform, KeyDist::gaussian_paper()] {
        eprintln!("bulk load: {} data…", dist.tag());
        let rows = bulk_vs_incremental(dist, &sizes, 99);
        let t = Table::of(
            format!(
                "E13 — incremental vs bulk loading, {} data (θ=100)",
                dist.tag()
            ),
            &rows,
            &[
                ("n", &|r| r.n.to_string()),
                ("incremental lookups", &|r| {
                    r.incremental_lookups.to_string()
                }),
                ("moved records", &|r| r.incremental_moved.to_string()),
                ("bulk lookups", &|r| r.bulk_lookups.to_string()),
                ("leaves", &|r| r.bulk_leaves.to_string()),
                ("ratio", &|r| format!("{:.1}x", r.ratio())),
            ],
        );
        t.emit(out, &format!("e13_bulk_{}", dist.tag()))?;
        writeln!(out)?;
    }
    writeln!(
        out,
        "(ablation: the per-insert lookup + split movement is the price of *online*\n distributed growth; with a complete dataset up front, one put per leaf\n suffices. LHT's low per-split cost is what keeps the online path viable.)"
    )?;
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bulk_is_an_order_of_magnitude_cheaper() {
        let rows = bulk_vs_incremental(KeyDist::Uniform, &[4096], 3);
        let r = &rows[0];
        assert!(
            r.ratio() > 10.0,
            "incremental {} vs bulk {} lookups",
            r.incremental_lookups,
            r.bulk_lookups
        );
        // Bulk puts exactly one lookup per leaf plus the check.
        assert_eq!(r.bulk_lookups, r.bulk_leaves + 1);
    }
}
