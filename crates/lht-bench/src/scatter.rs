//! Scatter-gather driving of one shared substrate from real threads.
//!
//! The paper-scale experiment (E21) loads 2^20 keys through the index
//! hot path. One client thread cannot saturate even the in-process
//! substrates — every operation alternates between index logic and
//! substrate routing — so the driver *scatters* a partitioned key
//! range across `std::thread` workers that share one substrate (the
//! blanket `impl Dht for &D` makes a shared reference a first-class
//! substrate) and *gathers* per-thread statistics afterwards.
//!
//! Attribution works without touching the shared substrate's global
//! counters: each worker wraps its reference in a [`MeteredDht`] that
//! mirrors the substrate's operation accounting into a thread-local
//! [`DhtStats`]. The gather step merges the locals with `DhtStats`
//! addition and cross-checks the merged operation counters against
//! the substrate's own before/after delta — the two views are
//! maintained by completely different code paths, so agreement is
//! real evidence that neither side dropped or double-counted an
//! operation under concurrency.

use std::cell::RefCell;
use std::time::Instant;

use lht_dht::{Dht, DhtError, DhtKey, DhtOp, DhtStats, Probe};
use lht_id::U160;

/// A per-thread metering shim over a shared substrate reference.
///
/// Forwards every [`Dht`] method to the wrapped substrate and mirrors
/// the *operation* accounting (gets/puts/removes/updates, failed
/// gets, rounds) into a thread-local [`DhtStats`]. Hops and latency
/// are substrate-internal knowledge and stay at zero in the local
/// view; the scatter driver therefore cross-checks only the
/// operation-count columns.
///
/// [`Dht::stats`] returns the **local** per-thread counters — that is
/// the point of the wrapper — so layers that want the shared global
/// view must query the underlying substrate directly.
pub struct MeteredDht<'a, D> {
    inner: &'a D,
    // One wrapper per worker thread; never shared, so a RefCell is
    // enough and keeps the hot path free of atomics.
    stats: RefCell<DhtStats>,
}

impl<'a, D: Dht> MeteredDht<'a, D> {
    /// Wraps a shared substrate reference with thread-local metering.
    pub fn new(inner: &'a D) -> MeteredDht<'a, D> {
        MeteredDht {
            inner,
            stats: RefCell::new(DhtStats::default()),
        }
    }

    /// The operations this wrapper has metered so far.
    pub fn local_stats(&self) -> DhtStats {
        *self.stats.borrow()
    }
}

impl<D: Dht> Dht for MeteredDht<'_, D> {
    type Value = D::Value;

    fn get(&self, key: &DhtKey) -> Result<Option<Self::Value>, DhtError> {
        let out = self.inner.get(key);
        // The stats contract counts every routed op regardless of
        // outcome; an Err carries no absence information, so only an
        // observed Ok(None) is a failed get.
        let found = !matches!(out, Ok(None));
        self.stats.borrow_mut().record_op(DhtOp::Get { found }, 0);
        out
    }

    fn put(&self, key: &DhtKey, value: Self::Value) -> Result<(), DhtError> {
        let out = self.inner.put(key, value);
        self.stats.borrow_mut().record_op(DhtOp::Put, 0);
        out
    }

    fn remove(&self, key: &DhtKey) -> Result<Option<Self::Value>, DhtError> {
        let out = self.inner.remove(key);
        self.stats.borrow_mut().record_op(DhtOp::Remove, 0);
        out
    }

    fn update(
        &self,
        key: &DhtKey,
        f: &mut dyn FnMut(&mut Option<Self::Value>),
    ) -> Result<(), DhtError> {
        let out = self.inner.update(key, f);
        self.stats.borrow_mut().record_op(DhtOp::Update, 0);
        out
    }

    fn multi_get(&self, keys: &[DhtKey]) -> Vec<Result<Option<Self::Value>, DhtError>> {
        let out = self.inner.multi_get(keys);
        self.stats.borrow_mut().record_batch(out.iter().map(|r| {
            let found = !matches!(r, Ok(None));
            (DhtOp::Get { found }, 0)
        }));
        out
    }

    fn multi_put(&self, entries: Vec<(DhtKey, Self::Value)>) -> Vec<Result<(), DhtError>> {
        let n = entries.len();
        let out = self.inner.multi_put(entries);
        self.stats
            .borrow_mut()
            .record_batch((0..n).map(|_| (DhtOp::Put, 0)));
        out
    }

    fn probe_multi_get(
        &self,
        probes: &[(DhtKey, U160)],
    ) -> Vec<Result<Probe<Option<Self::Value>>, DhtError>> {
        let out = self.inner.probe_multi_get(probes);
        // Substrates count only *served* probes as lookups; a stale
        // or unsupported probe routes nothing.
        self.stats
            .borrow_mut()
            .record_batch(out.iter().filter_map(|r| match r {
                Ok(Probe::Served(v)) => Some((DhtOp::Get { found: v.is_some() }, 0)),
                _ => None,
            }));
        out
    }

    fn probe_multi_put(
        &self,
        entries: Vec<(DhtKey, Self::Value, U160)>,
    ) -> Vec<Result<Probe<()>, DhtError>> {
        let out = self.inner.probe_multi_put(entries);
        self.stats
            .borrow_mut()
            .record_batch(out.iter().filter_map(|r| match r {
                Ok(Probe::Served(())) => Some((DhtOp::Put, 0)),
                _ => None,
            }));
        out
    }

    fn owner_hint(&self, key: &DhtKey) -> Option<U160> {
        self.inner.owner_hint(key)
    }

    fn prewarm(&self, keys: &[DhtKey]) {
        self.inner.prewarm(keys);
    }

    fn stats(&self) -> DhtStats {
        self.local_stats()
    }

    fn reset_stats(&self) {
        *self.stats.borrow_mut() = DhtStats::default();
    }
}

/// The gathered outcome of one scattered phase.
#[derive(Clone, Debug)]
pub struct ScatterRun<R> {
    /// Each worker's return value, in thread order.
    pub outputs: Vec<R>,
    /// Per-thread metered stats summed with `DhtStats` addition.
    pub merged: DhtStats,
    /// The shared substrate's own `after - before` delta over the
    /// phase (this is where hops and latency live).
    pub substrate_delta: DhtStats,
    /// Wall-clock seconds from first spawn to last join.
    pub elapsed_secs: f64,
}

/// Runs `work(thread_index, metered_substrate)` on `threads` real
/// threads sharing `dht`, then gathers per-thread stats and
/// cross-checks them against the substrate's global delta.
///
/// The caller must be the substrate's only client for the duration of
/// the phase — the cross-check compares the merged thread-local
/// operation counters against the substrate delta and any outside
/// traffic would (correctly) be reported as drift.
///
/// # Panics
///
/// Panics if a worker thread panics, if the merged per-thread
/// operation counters disagree with the substrate's delta, or if
/// either view breaks the [`DhtStats`] invariants.
pub fn scatter<D, R, F>(dht: &D, threads: usize, work: F) -> ScatterRun<R>
where
    D: Dht + Sync,
    D::Value: Send,
    R: Send,
    F: Fn(usize, &MeteredDht<'_, D>) -> R + Sync,
{
    let threads = threads.max(1);
    let before = dht.stats();
    let start = Instant::now();
    let gathered: Vec<(R, DhtStats)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let work = &work;
                s.spawn(move || {
                    let metered = MeteredDht::new(dht);
                    let out = work(t, &metered);
                    (out, metered.local_stats())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("scatter worker panicked"))
            .collect()
    });
    let elapsed_secs = start.elapsed().as_secs_f64().max(1e-9);
    let substrate_delta = dht.stats() - before;

    let mut outputs = Vec::with_capacity(threads);
    let mut merged = DhtStats::default();
    for (out, local) in gathered {
        outputs.push(out);
        merged = merged + local;
    }

    for (column, mine, theirs) in [
        ("gets", merged.gets, substrate_delta.gets),
        (
            "failed_gets",
            merged.failed_gets,
            substrate_delta.failed_gets,
        ),
        ("puts", merged.puts, substrate_delta.puts),
        ("removes", merged.removes, substrate_delta.removes),
        ("updates", merged.updates, substrate_delta.updates),
        ("rounds", merged.rounds, substrate_delta.rounds),
    ] {
        assert_eq!(
            mine, theirs,
            "scatter accounting drift on {column}: merged thread-local \
             stats say {mine}, the substrate delta says {theirs}"
        );
    }
    merged
        .check_invariants()
        .expect("merged thread-local stats broke the accounting contract");
    substrate_delta
        .check_invariants()
        .expect("substrate delta broke the accounting contract");

    ScatterRun {
        outputs,
        merged,
        substrate_delta,
        elapsed_secs,
    }
}

/// Splits `0..total` into `threads` contiguous ranges whose lengths
/// differ by at most one (leading ranges take the remainder). Empty
/// ranges appear only when `threads > total`.
///
/// The balance guarantee is load-bearing for the scattered phases —
/// the slowest worker sets the wall clock — so the function asserts
/// it on every call: exact coverage of `0..total` and a max−min
/// spread of at most one key.
pub fn partition_ranges(total: usize, threads: usize) -> Vec<std::ops::Range<usize>> {
    let threads = threads.max(1);
    let base = total / threads;
    let extra = total % threads;
    let mut ranges = Vec::with_capacity(threads);
    let mut lo = 0usize;
    for t in 0..threads {
        let len = base + usize::from(t < extra);
        ranges.push(lo..lo + len);
        lo += len;
    }
    assert_eq!(lo, total, "partitions must cover 0..{total} exactly");
    let spread = ranges.last().map_or(0, |shortest| {
        // Leading ranges take the remainder, so first is longest and
        // last is shortest.
        ranges[0].len() - shortest.len()
    });
    assert!(
        spread <= 1,
        "partitions of {total} over {threads} workers differ by {spread} > 1 keys"
    );
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use lht_dht::{ChordDht, DirectDht};

    #[test]
    fn partitions_cover_exactly_once() {
        for (total, threads) in [(0, 4), (10, 4), (16, 4), (3, 8), (1024, 7)] {
            let ranges = partition_ranges(total, threads);
            assert_eq!(ranges.len(), threads);
            let mut covered = 0usize;
            let mut next = 0usize;
            for r in &ranges {
                assert_eq!(r.start, next, "ranges must be contiguous");
                next = r.end;
                covered += r.len();
            }
            assert_eq!(covered, total);
            assert_eq!(next, total);
            let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
            let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
            assert!(max - min <= 1, "lengths must be balanced: {lens:?}");
        }
    }

    /// Regression guard for non-power-of-two totals and worker
    /// counts: every remainder distribution stays within one key and
    /// still covers the range exactly.
    #[test]
    fn partitions_balance_on_awkward_sizes() {
        for (total, threads) in [
            (1_000_003, 7),
            ((1 << 20) + 3, 12),
            (5, 3),
            ((1 << 22) - 1, 24),
            (97, 96),
            (96, 97),
        ] {
            let ranges = partition_ranges(total, threads);
            assert_eq!(ranges.len(), threads);
            assert_eq!(ranges.iter().map(|r| r.len()).sum::<usize>(), total);
            assert_eq!(ranges.last().unwrap().end, total);
            let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
            let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
            assert!(
                max - min <= 1,
                "({total}, {threads}) produced spread {} > 1",
                max - min
            );
        }
    }

    #[test]
    fn metered_mirrors_direct_substrate_ops() {
        let dht: DirectDht<u32> = DirectDht::new();
        let m = MeteredDht::new(&dht);
        let k = DhtKey::from("a");
        m.put(&k, 1).unwrap();
        assert_eq!(m.get(&k).unwrap(), Some(1));
        assert_eq!(m.get(&DhtKey::from("absent")).unwrap(), None);
        m.update(&k, &mut |slot| *slot = Some(2)).unwrap();
        assert_eq!(m.remove(&k).unwrap(), Some(2));
        let local = m.local_stats();
        let global = dht.stats();
        assert_eq!(local.puts, global.puts);
        assert_eq!(local.gets, global.gets);
        assert_eq!(local.failed_gets, 1);
        assert_eq!(local.failed_gets, global.failed_gets);
        assert_eq!(local.updates, global.updates);
        assert_eq!(local.removes, global.removes);
        assert_eq!(local.rounds, global.rounds);
    }

    #[test]
    fn metered_mirrors_batches_and_probes() {
        let dht: ChordDht<u32> = ChordDht::with_nodes(8, 7);
        let m = MeteredDht::new(&dht);
        let keys: Vec<DhtKey> = (0..10).map(|i| DhtKey::from(format!("k{i}"))).collect();
        m.multi_put(keys.iter().map(|k| (k.clone(), 5u32)).collect());
        m.multi_get(&keys);
        // A served probe counts, a stale one must not.
        let owner = dht.owner_hint(&keys[0]).expect("chord learns owners");
        assert!(matches!(m.probe_get(&keys[0], owner), Ok(Probe::Served(_))));
        let local = m.local_stats();
        let global = dht.stats();
        assert_eq!(local.gets, global.gets);
        assert_eq!(local.puts, global.puts);
        assert_eq!(local.rounds, global.rounds);
        assert_eq!(local.gets, 11);
        assert_eq!(local.rounds, 3);
    }

    #[test]
    fn scatter_merges_and_cross_checks() {
        let dht: ChordDht<u64> = ChordDht::with_nodes(16, 3);
        let per_thread = 50usize;
        let run = scatter(&dht, 4, |t, d| {
            for i in 0..per_thread {
                let k = DhtKey::from(format!("t{t}-{i}"));
                d.put(&k, (t * 1000 + i) as u64).unwrap();
                assert_eq!(d.get(&k).unwrap(), Some((t * 1000 + i) as u64));
            }
            t
        });
        assert_eq!(run.outputs, vec![0, 1, 2, 3]);
        assert_eq!(run.merged.puts, 4 * per_thread as u64);
        assert_eq!(run.merged.gets, 4 * per_thread as u64);
        assert_eq!(run.merged.failed_gets, 0);
        // Hops live only in the substrate's view.
        assert_eq!(run.merged.hops, 0);
        assert!(run.substrate_delta.hops > 0, "chord routing charges hops");
        assert!(run.elapsed_secs > 0.0);
    }
}
