//! Shared experiment plumbing: progressive-growth runs.

use lht::harness::args::{Flag, Parsed};
use lht_core::{IndexStats, LeafBucket, LhtConfig, LhtIndex};
use lht_dht::DirectDht;
use lht_pht::{PhtIndex, PhtNode};
use lht_workload::{Dataset, KeyDist};

/// `--full`.
pub(crate) const FULL: Flag =
    Flag::switch("--full", "paper-scale sizes instead of the faster subset");

/// The flags of the progressive-growth figures and the saving ratio:
/// `--trials N` (0 refused) and `--full`.
pub(crate) const GROWTH: &[Flag] = &[
    Flag::uint("--trials", 3, "datasets averaged per point (paper: 100)").positive(),
    FULL,
];

/// `(--trials, --full)` of a [`GROWTH`] command.
pub(crate) fn growth_args(p: &Parsed) -> (u64, bool) {
    (p.uint("--trials"), p.on("--full"))
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
pub(crate) struct GrowthCheckpoint {
    /// LHT's cumulative statistics at this point.
    pub lht: IndexStats,
    /// PHT's cumulative statistics at this point.
    pub pht: IndexStats,
}

/// A progressive insertion run, as in §9.2: "progressively larger
/// dataset is inserted into LHT (as well as PHT), and the cumulative
/// maintenance cost is recorded".
///
/// One client thread inserts the records in dataset order, so every
/// checkpoint is a pure function of the arguments. The run keeps both
/// populated substrates so follow-on measurements (lookups, range
/// queries) can be taken at the final size.
pub(crate) struct GrowthRun {
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
    pub(crate) fn run(
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
    pub(crate) fn lht(&self) -> LhtIndex<&DirectDht<LeafBucket<u32>>, u32> {
        LhtIndex::new(&self.lht_dht, self.cfg).expect("populated substrate")
    }

    /// A fresh PHT handle over the populated substrate.
    pub(crate) fn pht(&self) -> PhtIndex<&DirectDht<PhtNode<u32>>, u32> {
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
        // Each checkpoint accounts every record inserted so far.
        for (c, n) in run.checkpoints.iter().zip([100, 200, 400]) {
            assert_eq!(c.lht.inserts, n);
            assert_eq!(c.pht.inserts, n);
        }
        assert_eq!(run.checkpoints.len(), 3);
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
    fn growth_accounts_every_insert() {
        let sizes = [200, 600];
        let mut seen = Vec::new();
        let run = GrowthRun::run(
            KeyDist::Zipf { s: 1.1, bins: 64 },
            &sizes,
            LhtConfig::new(8, 20),
            3,
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
        // On skewed keys too, each checkpoint's cumulative insert count
        // covers every record inserted so far.
        for (c, &n) in run.checkpoints.iter().zip(&sizes) {
            assert_eq!(c.lht.inserts, n as u64);
            assert_eq!(c.pht.inserts, n as u64);
        }
        for w in run.checkpoints.windows(2) {
            assert!(w[0].lht.splits <= w[1].lht.splits);
            assert!(w[0].pht.records_moved <= w[1].pht.records_moved);
        }
        // The populated substrate answers queries through fresh handles,
        // which start with zeroed stats.
        assert!(run.lht().min().unwrap().value.is_some());
        assert!(run.pht().stats().inserts == 0);
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
}
