//! Extension experiment E10 — the three-way baseline comparison.
//!
//! The paper's evaluation compares LHT against PHT only, describing
//! DST and RST qualitatively in §2 ("due to replication, data
//! insertion in DST is inefficient"; RST achieves "one-hop
//! exact-match query and efficient range query, but at the expense of
//! high maintenance cost" — a split broadcasts to all tree nodes).
//! This experiment adds both columns, measuring per-insert cost and
//! range-query cost for all engines on identical datasets.

use std::io::{self, Write};

use lht::harness::args::Parsed;
use lht_core::{IndexStats, LeafBucket, LhtConfig, LhtIndex};
use lht_dht::{Dht, DirectDht};
use lht_dst::{DstConfig, DstIndex, DstNode};
use lht_pht::{PhtIndex, PhtNode};
use lht_rst::{RstIndex, RstNode};
use lht_workload::{summary, Dataset, KeyDist, RangeQueryGen};

use crate::Table;

/// Per-scheme results of the baseline comparison at one data size.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BaselineRow {
    /// Records inserted.
    pub n: usize,
    /// Mean DHT-lookups per insertion, including maintenance.
    pub insert_cost: SchemeQuad,
    /// Index-level maintenance statistics (splits/replication).
    pub lht_stats: IndexStats,
    /// PHT maintenance statistics.
    pub pht_stats: IndexStats,
    /// DST maintenance statistics (ancestor puts / replicas).
    pub dst_stats: IndexStats,
    /// RST maintenance statistics (split broadcasts).
    pub rst_stats: IndexStats,
    /// Mean range-query DHT-lookups (span 0.1).
    pub range_bandwidth: SchemeQuad,
    /// Mean range-query parallel steps (span 0.1).
    pub range_latency: SchemeQuad,
}

/// A `(LHT, PHT-seq, PHT-par, DST, RST)` measurement tuple.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SchemeQuad {
    /// LHT's value.
    pub lht: f64,
    /// PHT using sequential range traversal.
    pub pht_seq: f64,
    /// PHT using parallel range traversal (same insert path as seq).
    pub pht_par: f64,
    /// DST's value.
    pub dst: f64,
    /// RST's value.
    pub rst: f64,
}

/// Runs the three-way comparison at each size. DST's height is chosen
/// as `log2(n/θ) + 4` so its leaf resolution matches the other trees.
pub(crate) fn compare(
    dist: KeyDist,
    sizes: &[usize],
    span: f64,
    queries: usize,
) -> Vec<BaselineRow> {
    let cfg = LhtConfig::new(100, 20);
    sizes
        .iter()
        .map(|&n| {
            let data = Dataset::generate(dist, n, 0xBA5E + n as u64);
            let height = ((n as f64 / 100.0).log2().ceil() as u8 + 4).clamp(6, 16);
            let dst_cfg = DstConfig::new(height, 100);

            let lht_dht: DirectDht<LeafBucket<u32>> = DirectDht::new();
            let lht = LhtIndex::new(&lht_dht, cfg).expect("fresh");
            let pht_dht: DirectDht<PhtNode<u32>> = DirectDht::new();
            let pht = PhtIndex::new(&pht_dht, cfg).expect("fresh");
            let dst_dht: DirectDht<DstNode<u32>> = DirectDht::new();
            let dst = DstIndex::new(&dst_dht, dst_cfg).expect("fresh");
            let rst_dht: DirectDht<RstNode<u32>> = DirectDht::new();
            let rst = RstIndex::new(&rst_dht, cfg).expect("fresh");

            lht_dht.reset_stats();
            pht_dht.reset_stats();
            dst_dht.reset_stats();
            rst_dht.reset_stats();
            for (i, k) in data.iter().enumerate() {
                lht.insert(k, i as u32).expect("oracle substrate");
                pht.insert(k, i as u32).expect("oracle substrate");
                dst.insert(k, i as u32).expect("oracle substrate");
                rst.insert(k, i as u32).expect("oracle substrate");
            }
            let insert_cost = SchemeQuad {
                lht: lht_dht.stats().lookups() as f64 / n as f64,
                pht_seq: pht_dht.stats().lookups() as f64 / n as f64,
                pht_par: pht_dht.stats().lookups() as f64 / n as f64,
                dst: dst_dht.stats().lookups() as f64 / n as f64,
                rst: rst_dht.stats().lookups() as f64 / n as f64,
            };

            let mut bw: [Vec<f64>; 5] = Default::default();
            let mut lat: [Vec<f64>; 5] = Default::default();
            let mut gen = RangeQueryGen::new(span, 0xE10 + n as u64);
            for _ in 0..queries {
                let q = gen.next_range();
                let a = lht.range(q).expect("consistent").cost;
                let b = pht.range_sequential(q).expect("consistent").cost;
                let c = pht.range_parallel(q).expect("consistent").cost;
                let d = dst.range(q).expect("consistent").cost;
                let e = rst.range(q).expect("consistent").cost;
                bw[0].push(a.dht_lookups as f64);
                bw[1].push(b.dht_lookups as f64);
                bw[2].push(c.dht_lookups as f64);
                bw[3].push(d.dht_lookups as f64);
                bw[4].push(e.dht_lookups as f64);
                lat[0].push(a.steps as f64);
                lat[1].push(b.steps as f64);
                lat[2].push(c.steps as f64);
                lat[3].push(d.steps as f64);
                lat[4].push(e.steps as f64);

                // Cross-validate: every engine returns identical answers.
                let la = lht.range(q).expect("consistent").records.len();
                let ld = dst.range(q).expect("consistent").records.len();
                let le = rst.range(q).expect("consistent").records.len();
                assert_eq!(la, ld, "LHT and DST disagree on {q}");
                assert_eq!(la, le, "LHT and RST disagree on {q}");
            }

            BaselineRow {
                n,
                insert_cost,
                lht_stats: lht.stats(),
                pht_stats: pht.stats(),
                dst_stats: dst.stats(),
                rst_stats: rst.stats(),
                range_bandwidth: SchemeQuad {
                    lht: summary::mean(&bw[0]),
                    pht_seq: summary::mean(&bw[1]),
                    pht_par: summary::mean(&bw[2]),
                    dst: summary::mean(&bw[3]),
                    rst: summary::mean(&bw[4]),
                },
                range_latency: SchemeQuad {
                    lht: summary::mean(&lat[0]),
                    pht_seq: summary::mean(&lat[1]),
                    pht_par: summary::mean(&lat[2]),
                    dst: summary::mean(&lat[3]),
                    rst: summary::mean(&lat[4]),
                },
            }
        })
        .collect()
}

/// Sanity: the §2 qualitative ordering, used by the command's footer
/// and asserted by the unit test.
pub(crate) fn section2_claims_hold(row: &BaselineRow) -> bool {
    // DST insertion pays ≈ height lookups per record — several times
    // the binary-search-based schemes.
    row.insert_cost.dst > 2.0 * row.insert_cost.lht
        // DST's replication dwarfs LHT's split movement per record.
        && row.dst_stats.records_moved > row.lht_stats.records_moved
        // DST's range latency is the lowest (parallel canonical cover).
        && row.range_latency.dst <= row.range_latency.lht
        // PHT(sequential) has the worst range latency.
        && row.range_latency.pht_seq >= row.range_latency.lht
        // RST queries are optimal: 1-step ranges with exactly-B
        // bandwidth, below every other engine.
        && row.range_latency.rst <= row.range_latency.dst
        && row.range_bandwidth.rst <= row.range_bandwidth.lht
        // …paid for by broadcast maintenance that dwarfs even DST's
        // per-record lookups at scale.
        && row.rst_stats.maintenance_lookups > row.lht_stats.maintenance_lookups * 4
}

/// `lht-exp baselines`: prints the three E10 tables per distribution
/// with the §2 ordering verdict and writes the six CSVs.
pub(crate) fn cmd(p: &Parsed, out: &mut dyn Write) -> io::Result<i32> {
    let full = p.on("--full");
    let top = if full { 16 } else { 14 };
    let sizes: Vec<usize> = (10..=top).step_by(2).map(|e| 1usize << e).collect();

    for dist in [KeyDist::Uniform, KeyDist::gaussian_paper()] {
        eprintln!("baselines: {} data…", dist.tag());
        let rows = compare(dist, &sizes, 0.1, 20);

        let per_record = |moved: u64, r: &BaselineRow| format!("{:.3}", moved as f64 / r.n as f64);
        let pair = |lookups: f64, steps: f64| format!("{lookups:.1} | {steps:.1}");
        let ti = Table::of(
            format!("E10 — per-insert DHT-lookups, {} data", dist.tag()),
            &rows,
            &[
                ("n", &|r| r.n.to_string()),
                ("LHT", &|r| format!("{:.2}", r.insert_cost.lht)),
                ("PHT", &|r| format!("{:.2}", r.insert_cost.pht_seq)),
                ("DST", &|r| format!("{:.2}", r.insert_cost.dst)),
                ("RST", &|r| format!("{:.2}", r.insert_cost.rst)),
            ],
        );
        let tm = Table::of(
            format!("E10 — replication/movement per record, {} data", dist.tag()),
            &rows,
            &[
                ("n", &|r| r.n.to_string()),
                ("LHT moved/rec", &|r| {
                    per_record(r.lht_stats.records_moved, r)
                }),
                ("PHT moved/rec", &|r| {
                    per_record(r.pht_stats.records_moved, r)
                }),
                ("DST replicas/rec", &|r| {
                    per_record(r.dst_stats.records_moved, r)
                }),
                ("RST bcast/rec", &|r| {
                    per_record(r.rst_stats.maintenance_lookups, r)
                }),
            ],
        );
        let tq = Table::of(
            format!(
                "E10 — range query (span 0.1): lookups | steps, {} data",
                dist.tag()
            ),
            &rows,
            &[
                ("n", &|r| r.n.to_string()),
                ("LHT", &|r| pair(r.range_bandwidth.lht, r.range_latency.lht)),
                ("PHT(seq)", &|r| {
                    pair(r.range_bandwidth.pht_seq, r.range_latency.pht_seq)
                }),
                ("PHT(par)", &|r| {
                    pair(r.range_bandwidth.pht_par, r.range_latency.pht_par)
                }),
                ("DST", &|r| pair(r.range_bandwidth.dst, r.range_latency.dst)),
                ("RST", &|r| pair(r.range_bandwidth.rst, r.range_latency.rst)),
            ],
        );
        for (t, csv) in [(&ti, "insert"), (&tm, "moved"), (&tq, "range")] {
            t.emit(out, &format!("e10_{csv}_{}", dist.tag()))?;
            writeln!(out)?;
        }
        let ok = rows.iter().all(section2_claims_hold);
        writeln!(
            out,
            "§2 qualitative ordering (DST insert ≫ LHT; RST queries optimal but broadcast maintenance; PHT-seq latency worst): {}\n",
            if ok { "HOLDS" } else { "VIOLATED" }
        )?;
    }
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_way_comparison_matches_section2() {
        let rows = compare(KeyDist::Uniform, &[4096], 0.1, 10);
        let row = &rows[0];
        assert!(section2_claims_hold(row), "§2 ordering violated: {row:?}");
        // DST per-insert ≈ height + 1 lookups.
        assert!(row.insert_cost.dst >= 8.0);
        // LHT insert ≈ lookup (log D/2) + put + amortized split.
        assert!(row.insert_cost.lht < 6.0);
    }
}
