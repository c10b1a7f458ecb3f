//! Extension experiment E14 — physical-hop costs over a routed ring.
//!
//! The paper's cost model prices a DHT-lookup at `ȷ` units because
//! each one costs `O(log N)` physical hops (§8.1). The figure
//! experiments count lookups; this experiment closes the loop by
//! running the same query workloads over the *routed* Chord substrate
//! and reporting measured **hops**, confirming that the index-level
//! comparisons survive multiplication by real routing costs.

use std::io::{self, Write};

use lht::harness::args::Parsed;
use lht_core::{KeyInterval, LeafBucket, LhtConfig, LhtIndex};
use lht_dht::{ChordDht, Dht};
use lht_pht::{PhtIndex, PhtNode};
use lht_workload::{summary, Dataset, KeyDist, LookupGen, RangeQueryGen};

use crate::Table;

/// Hop-cost measurements for one workload.
#[derive(Clone, Copy, Debug)]
pub(crate) struct HopsRow {
    /// Ring size (peers).
    pub peers: usize,
    /// Mean physical hops per LHT lookup operation.
    pub lht_lookup_hops: f64,
    /// Mean physical hops per PHT lookup operation.
    pub pht_lookup_hops: f64,
    /// Mean physical hops per LHT range query (span 0.1).
    pub lht_range_hops: f64,
    /// Mean physical hops per PHT(sequential) range query.
    pub pht_seq_range_hops: f64,
    /// Mean physical hops per PHT(parallel) range query.
    pub pht_par_range_hops: f64,
    /// Mean hops per DHT-lookup observed on this ring (the `ȷ`
    /// multiplier itself).
    pub hops_per_dht_lookup: f64,
}

/// Runs the hop-cost experiment on rings of the given sizes.
pub(crate) fn hops_over_chord(n: usize, ring_sizes: &[usize], probes: usize) -> Vec<HopsRow> {
    ring_sizes
        .iter()
        .map(|&peers| {
            let data = Dataset::generate(KeyDist::Uniform, n, 0xE14);
            let cfg = LhtConfig::new(100, 20);

            let lht_dht: ChordDht<LeafBucket<u32>> = ChordDht::with_nodes(peers, 7);
            let lht = LhtIndex::new(&lht_dht, cfg).expect("live ring");
            let pht_dht: ChordDht<PhtNode<u32>> = ChordDht::with_nodes(peers, 7);
            let pht = PhtIndex::new(&pht_dht, cfg).expect("live ring");
            for (i, k) in data.iter().enumerate() {
                lht.insert(k, i as u32).expect("live ring");
                pht.insert(k, i as u32).expect("live ring");
            }

            // Exact-match probes.
            let mut gen = LookupGen::new(3);
            let keys: Vec<_> = (0..probes).map(|_| gen.next_key()).collect();
            let before = Dht::stats(&lht_dht);
            for k in &keys {
                lht.lookup(*k).expect("consistent");
            }
            let lht_lookup_hops = (Dht::stats(&lht_dht) - before).hops as f64 / probes as f64;
            let before = Dht::stats(&pht_dht);
            for k in &keys {
                pht.lookup(*k).expect("consistent");
            }
            let pht_lookup_hops = (Dht::stats(&pht_dht) - before).hops as f64 / probes as f64;

            // Range queries, measured one at a time so hop deltas are
            // attributable.
            let mut rq = RangeQueryGen::new(0.1, 5);
            let queries: Vec<KeyInterval> = (0..probes / 10).map(|_| rq.next_range()).collect();
            let mut lht_r = Vec::new();
            let mut seq_r = Vec::new();
            let mut par_r = Vec::new();
            for q in &queries {
                let b = Dht::stats(&lht_dht);
                lht.range(*q).expect("consistent");
                lht_r.push((Dht::stats(&lht_dht) - b).hops as f64);
                let b = Dht::stats(&pht_dht);
                pht.range_sequential(*q).expect("consistent");
                seq_r.push((Dht::stats(&pht_dht) - b).hops as f64);
                let b = Dht::stats(&pht_dht);
                pht.range_parallel(*q).expect("consistent");
                par_r.push((Dht::stats(&pht_dht) - b).hops as f64);
            }

            HopsRow {
                peers,
                lht_lookup_hops,
                pht_lookup_hops,
                lht_range_hops: summary::mean(&lht_r),
                pht_seq_range_hops: summary::mean(&seq_r),
                pht_par_range_hops: summary::mean(&par_r),
                hops_per_dht_lookup: Dht::stats(&lht_dht).hops_per_lookup(),
            }
        })
        .collect()
}

/// `lht-exp hops`: prints the E14 hop-cost table and writes its CSV.
pub(crate) fn cmd(p: &Parsed, out: &mut dyn Write) -> io::Result<i32> {
    let full = p.on("--full");
    let n = if full { 16_384 } else { 4_096 };
    let rings = [8usize, 16, 32, 64, 128];

    eprintln!("hop costs: {n} records over Chord rings…");
    let rows = hops_over_chord(n, &rings, 200);
    let t = Table::of(
        format!("E14 — mean physical hops per operation ({n} records, span 0.1)"),
        &rows,
        &[
            ("peers", &|r| r.peers.to_string()),
            ("hops/DHT-lookup", &|r| {
                format!("{:.2}", r.hops_per_dht_lookup)
            }),
            ("LHT lookup", &|r| format!("{:.1}", r.lht_lookup_hops)),
            ("PHT lookup", &|r| format!("{:.1}", r.pht_lookup_hops)),
            ("LHT range", &|r| format!("{:.1}", r.lht_range_hops)),
            ("PHT(seq) range", &|r| {
                format!("{:.1}", r.pht_seq_range_hops)
            }),
            ("PHT(par) range", &|r| {
                format!("{:.1}", r.pht_par_range_hops)
            }),
        ],
    );
    t.emit(out, "e14_hops")?;
    writeln!(
        out,
        "\n(§8.1: a DHT-lookup costs O(log N) hops; every index-level ordering from\n Figs. 8–9 survives multiplication by the measured per-ring hop factor.)"
    )?;
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hop_costs_scale_with_ring_size_and_preserve_ordering() {
        let rows = hops_over_chord(2000, &[8, 64], 100);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            // LHT's lookup advantage survives hop-weighting.
            assert!(
                r.lht_lookup_hops < r.pht_lookup_hops,
                "{} vs {}",
                r.lht_lookup_hops,
                r.pht_lookup_hops
            );
            // PHT(parallel) still burns the most range bandwidth.
            assert!(r.pht_par_range_hops > r.lht_range_hops);
        }
        // More peers ⇒ more hops per operation (the ȷ multiplier).
        assert!(rows[1].hops_per_dht_lookup > rows[0].hops_per_dht_lookup);
        assert!(rows[1].lht_lookup_hops > rows[0].lht_lookup_hops);
    }
}
