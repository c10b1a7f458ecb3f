//! Shared experiment plumbing: progressive-growth runs, single- and
//! multi-threaded.

use lht::harness::args::{Flag, Parsed};
use lht_core::{IndexStats, LeafBucket, LhtConfig, LhtIndex};
use lht_dht::DirectDht;
use lht_id::KeyFraction;
use lht_pht::{PhtIndex, PhtNode};
use lht_workload::{Dataset, KeyDist};

use crate::scatter::{partition_ranges, scatter};

/// `--trials N` (0 refused).
pub const TRIALS: Flag =
    Flag::uint("--trials", 3, "datasets averaged per point (paper: 100)").positive();

/// `--full`.
pub const FULL: Flag = Flag::switch("--full", "paper-scale sizes instead of the faster subset");

/// The flags of the progressive-growth figures.
pub const GROWTH: &[Flag] = &[
    TRIALS,
    FULL,
    Flag::uint("--threads", 4, "scatter workers (1 = sequential order)")
        .positive()
        .clamped(0, 64),
];

/// `(--trials, --full, --threads)` of a [`GROWTH`] command.
pub(crate) fn growth_args(p: &Parsed) -> (u64, bool, usize) {
    (p.uint("--trials"), p.on("--full"), p.size("--threads"))
}

/// The data-size sweep of the growth experiments: powers of two from
/// `2^10`, up to `2^20` with `--full` and `2^16` otherwise.
pub(crate) fn data_sizes(full: bool) -> Vec<usize> {
    let top = if full { 20 } else { 16 };
    (10..=top).map(|e| 1usize << e).collect()
}

/// Index statistics captured after the first `n` insertions of a
/// growth run, for both schemes.
#[derive(Clone, Copy, Debug)]
pub struct GrowthCheckpoint {
    /// Number of records inserted so far.
    pub n: usize,
    /// LHT's cumulative statistics at this point.
    pub lht: IndexStats,
    /// PHT's cumulative statistics at this point.
    pub pht: IndexStats,
}

/// A progressive insertion run, as in §9.2: "progressively larger
/// dataset is inserted into LHT (as well as PHT), and the cumulative
/// maintenance cost is recorded".
///
/// The run keeps both populated substrates so follow-on measurements
/// (lookups, range queries) can be taken at the final size.
pub struct GrowthRun {
    /// Checkpoints at each requested size.
    pub checkpoints: Vec<GrowthCheckpoint>,
    /// The populated LHT substrate.
    pub lht_dht: DirectDht<LeafBucket<u32>>,
    /// The populated PHT substrate.
    pub pht_dht: DirectDht<PhtNode<u32>>,
    cfg: LhtConfig,
}

impl GrowthRun {
    /// Inserts a `dist`-distributed dataset of `sizes.last()` records
    /// into fresh LHT and PHT indexes, checkpointing the cumulative
    /// stats at each size in `sizes` (which must be increasing).
    ///
    /// `with_queries` is invoked at each checkpoint with the two live
    /// index handles, letting per-size query experiments piggyback on
    /// one growth pass.
    pub fn run(
        dist: KeyDist,
        sizes: &[usize],
        cfg: LhtConfig,
        seed: u64,
        mut with_queries: impl FnMut(
            usize,
            &LhtIndex<&DirectDht<LeafBucket<u32>>, u32>,
            &PhtIndex<&DirectDht<PhtNode<u32>>, u32>,
        ),
    ) -> GrowthRun {
        assert!(!sizes.is_empty(), "need at least one checkpoint size");
        assert!(
            sizes.windows(2).all(|w| w[0] < w[1]),
            "checkpoint sizes must increase"
        );
        let n_max = *sizes.last().expect("non-empty");
        let data = Dataset::generate(dist, n_max, seed);

        let lht_dht = DirectDht::new();
        let pht_dht = DirectDht::new();
        let mut checkpoints = Vec::with_capacity(sizes.len());
        {
            let lht = LhtIndex::new(&lht_dht, cfg).expect("fresh substrate");
            let pht = PhtIndex::new(&pht_dht, cfg).expect("fresh substrate");
            let mut next = 0usize;
            for (i, key) in data.iter().enumerate() {
                lht.insert(key, i as u32).expect("insert over oracle DHT");
                pht.insert(key, i as u32).expect("insert over oracle DHT");
                if i + 1 == sizes[next] {
                    checkpoints.push(GrowthCheckpoint {
                        n: i + 1,
                        lht: lht.stats(),
                        pht: pht.stats(),
                    });
                    with_queries(i + 1, &lht, &pht);
                    next += 1;
                    if next == sizes.len() {
                        break;
                    }
                }
            }
        }
        GrowthRun {
            checkpoints,
            lht_dht,
            pht_dht,
            cfg,
        }
    }

    /// A fresh LHT handle over the populated substrate.
    pub fn lht(&self) -> LhtIndex<&DirectDht<LeafBucket<u32>>, u32> {
        LhtIndex::new(&self.lht_dht, self.cfg).expect("populated substrate")
    }

    /// A fresh PHT handle over the populated substrate.
    pub fn pht(&self) -> PhtIndex<&DirectDht<PhtNode<u32>>, u32> {
        PhtIndex::new(&self.pht_dht, self.cfg).expect("populated substrate")
    }
}

/// A progressive insertion run driven through the scatter-gather
/// layer: the same measurement as [`GrowthRun`], at paper scale.
///
/// Each growth phase (the records between two checkpoints) is loaded
/// by [`scatter`]: LHT scatters its contiguous key slices across real
/// worker threads sharing one substrate — the index's bucket
/// operations are retried CAS-style under contention, the same
/// concurrency the E21 paper-scale runs exercise — while PHT runs on
/// a **single** scatter worker, because `PhtIndex`'s split path has
/// no contention-retry loop (concurrent splits of adjacent leaves can
/// race its B-link pointers). Both go through the same driver, so
/// both get the scatter layer's merged-vs-substrate accounting
/// cross-check on every phase.
///
/// Cumulative [`IndexStats`] are the columnwise sum of every worker
/// handle's stats across all phases (`IndexStats` addition) — the
/// multi-handle view of the same totals `GrowthRun` reads from its
/// one handle.
pub struct ScatterGrowthRun {
    /// Checkpoints at each requested size.
    pub checkpoints: Vec<GrowthCheckpoint>,
    /// The populated LHT substrate.
    pub lht_dht: DirectDht<LeafBucket<u32>>,
    /// The populated PHT substrate.
    pub pht_dht: DirectDht<PhtNode<u32>>,
    cfg: LhtConfig,
}

impl ScatterGrowthRun {
    /// Inserts a `dist`-distributed dataset of `sizes.last()` records
    /// into fresh LHT and PHT indexes — LHT over `threads` scatter
    /// workers, PHT over one — checkpointing the cumulative stats at
    /// each size in `sizes` (which must be increasing).
    ///
    /// `with_queries` is invoked at each checkpoint with fresh handles
    /// over the two populated substrates, letting per-size query
    /// experiments piggyback on one growth pass.
    pub fn run(
        dist: KeyDist,
        sizes: &[usize],
        cfg: LhtConfig,
        seed: u64,
        threads: usize,
        mut with_queries: impl FnMut(
            usize,
            &LhtIndex<&DirectDht<LeafBucket<u32>>, u32>,
            &PhtIndex<&DirectDht<PhtNode<u32>>, u32>,
        ),
    ) -> ScatterGrowthRun {
        assert!(!sizes.is_empty(), "need at least one checkpoint size");
        assert!(
            sizes.windows(2).all(|w| w[0] < w[1]),
            "checkpoint sizes must increase"
        );
        let n_max = *sizes.last().expect("non-empty");
        let data = Dataset::generate(dist, n_max, seed);
        let keys: Vec<KeyFraction> = data.iter().collect();

        let lht_dht = DirectDht::new();
        let pht_dht = DirectDht::new();
        // Bootstrap the roots once, single-threaded, so scatter
        // workers never race the empty-index initialisation.
        LhtIndex::<_, u32>::new(&lht_dht, cfg).expect("fresh substrate");
        PhtIndex::<_, u32>::new(&pht_dht, cfg).expect("fresh substrate");

        let mut checkpoints = Vec::with_capacity(sizes.len());
        let mut lht_cum = IndexStats::default();
        let mut pht_cum = IndexStats::default();
        let mut prev = 0usize;
        for &size in sizes {
            let phase = &keys[prev..size];
            let ranges = partition_ranges(phase.len(), threads.max(1));
            let lht_run = scatter(&lht_dht, threads.max(1), |t, d| {
                let ix: LhtIndex<_, u32> = LhtIndex::new(d, cfg).expect("worker handle");
                for i in ranges[t].clone() {
                    ix.insert(phase[i], (prev + i) as u32).expect("lht insert");
                }
                ix.stats()
            });
            for stats in &lht_run.outputs {
                lht_cum += *stats;
            }
            let pht_run = scatter(&pht_dht, 1, |_t, d| {
                let ix: PhtIndex<_, u32> = PhtIndex::new(d, cfg).expect("worker handle");
                for (i, key) in phase.iter().enumerate() {
                    ix.insert(*key, (prev + i) as u32).expect("pht insert");
                }
                ix.stats()
            });
            for stats in &pht_run.outputs {
                pht_cum += *stats;
            }
            checkpoints.push(GrowthCheckpoint {
                n: size,
                lht: lht_cum,
                pht: pht_cum,
            });
            let lht = LhtIndex::new(&lht_dht, cfg).expect("populated substrate");
            let pht = PhtIndex::new(&pht_dht, cfg).expect("populated substrate");
            with_queries(size, &lht, &pht);
            prev = size;
        }
        ScatterGrowthRun {
            checkpoints,
            lht_dht,
            pht_dht,
            cfg,
        }
    }

    /// A fresh LHT handle over the populated substrate.
    pub fn lht(&self) -> LhtIndex<&DirectDht<LeafBucket<u32>>, u32> {
        LhtIndex::new(&self.lht_dht, self.cfg).expect("populated substrate")
    }

    /// A fresh PHT handle over the populated substrate.
    pub fn pht(&self) -> PhtIndex<&DirectDht<PhtNode<u32>>, u32> {
        PhtIndex::new(&self.pht_dht, self.cfg).expect("populated substrate")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_sizes_scale_with_full() {
        assert_eq!(*data_sizes(false).last().unwrap(), 1 << 16);
        assert_eq!(*data_sizes(true).last().unwrap(), 1 << 20);
        assert_eq!(data_sizes(false)[0], 1 << 10);
    }

    #[test]
    fn checkpoints_land_on_requested_sizes() {
        let run = GrowthRun::run(
            KeyDist::Uniform,
            &[100, 200, 400],
            LhtConfig::new(8, 20),
            1,
            |_, _, _| {},
        );
        let ns: Vec<usize> = run.checkpoints.iter().map(|c| c.n).collect();
        assert_eq!(ns, vec![100, 200, 400]);
        // Stats are cumulative and monotone.
        for w in run.checkpoints.windows(2) {
            assert!(w[0].lht.splits <= w[1].lht.splits);
            assert!(w[0].pht.records_moved <= w[1].pht.records_moved);
        }
    }

    #[test]
    fn query_hook_runs_at_each_checkpoint() {
        let mut seen = Vec::new();
        GrowthRun::run(
            KeyDist::Uniform,
            &[50, 150],
            LhtConfig::new(8, 20),
            2,
            |n, lht, pht| {
                // The handles really are live and populated.
                assert!(lht.min().unwrap().value.is_some());
                assert!(pht
                    .exact_match(lht.min().unwrap().value.unwrap().0)
                    .unwrap()
                    .0
                    .is_some());
                seen.push(n);
            },
        );
        assert_eq!(seen, vec![50, 150]);
    }

    #[test]
    #[should_panic(expected = "increase")]
    fn rejects_unsorted_sizes() {
        GrowthRun::run(
            KeyDist::Uniform,
            &[200, 100],
            LhtConfig::new(8, 20),
            1,
            |_, _, _| {},
        );
    }

    #[test]
    fn scatter_growth_single_worker_matches_sequential_totals() {
        // With one worker the scatter driver inserts each index's keys
        // in exactly the sequential order, so every cumulative stats
        // column must agree with GrowthRun checkpoint-for-checkpoint.
        let sizes = [100, 250, 500];
        let cfg = LhtConfig::new(8, 20);
        let base = GrowthRun::run(KeyDist::Uniform, &sizes, cfg, 7, |_, _, _| {});
        let scat = ScatterGrowthRun::run(KeyDist::Uniform, &sizes, cfg, 7, 1, |_, _, _| {});
        assert_eq!(base.checkpoints.len(), scat.checkpoints.len());
        for (b, s) in base.checkpoints.iter().zip(&scat.checkpoints) {
            assert_eq!(b.n, s.n);
            assert_eq!(b.lht, s.lht, "LHT stats diverged at n={}", b.n);
            assert_eq!(b.pht, s.pht, "PHT stats diverged at n={}", b.n);
        }
    }

    #[test]
    fn scatter_growth_multi_worker_accounts_every_insert() {
        let sizes = [200, 600];
        let mut seen = Vec::new();
        let run = ScatterGrowthRun::run(
            KeyDist::Zipf { s: 1.1, bins: 64 },
            &sizes,
            LhtConfig::new(8, 20),
            3,
            4,
            |n, lht, pht| {
                assert!(lht.min().unwrap().value.is_some());
                assert!(pht
                    .exact_match(lht.min().unwrap().value.unwrap().0)
                    .unwrap()
                    .0
                    .is_some());
                seen.push(n);
            },
        );
        assert_eq!(seen, vec![200, 600]);
        // Each checkpoint's cumulative insert count covers every record
        // inserted so far across all workers and phases.
        for (c, &n) in run.checkpoints.iter().zip(&sizes) {
            assert_eq!(c.lht.inserts, n as u64);
            assert_eq!(c.pht.inserts, n as u64);
        }
        for w in run.checkpoints.windows(2) {
            assert!(w[0].lht.splits <= w[1].lht.splits);
            assert!(w[0].pht.records_moved <= w[1].pht.records_moved);
        }
        // The populated substrate answers queries through fresh handles.
        assert!(run.lht().min().unwrap().value.is_some());
        assert!(run.pht().stats().inserts == 0);
    }
}
