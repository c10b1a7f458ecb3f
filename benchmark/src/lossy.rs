//! `lossy_quorum` and `lossy_erasure` — the full wrapper tower
//! `CachedDht<RetriedDht<FaultyDht<&Tier<&ChordDht>>>>` (the
//! composition `lht::harness::differ` proves) on a 256-peer ring with
//! 10 % RPC loss, under one identical schedule: writes beside reads,
//! retries, fan-out, and every 256 ops a `leave` + `join` +
//! `stabilize(2)` + `anti_entropy_step()` that stalls the foreground.
//! The two workloads differ only in the durability tier — 3-way
//! quorum replication or a {4, 6} Reed–Solomon fragment group — so
//! their difference isolates the `erasure`/`gf256` cost.
//!
//! One client, as ISSUE 11 specifies, so every counter of the tower
//! is exact run to run; there is no 2-client pass (a second client on
//! a ring of its own would share nothing with the first and measure
//! the host's second core, not the stack).

use std::time::Instant;

use lht::{
    CachedDht, ChordConfig, ChordDht, Dht, ErasureConfig, ErasureDht, FaultyDht, Fragment,
    LhtIndex, NetProfile, QuorumConfig, QuorumDht, RetriedDht, RetryPolicy, Versioned,
};

use crate::drive::{
    index_config, insert, load_max_over_mean, lookup, maintenance, range, remove, resident, solo,
    verify_contents, Bucket, Counts, PassOut, PhaseSync, Snapshot, Stored, Tally, Window,
};
use crate::inputs::{lossy_schedule, sub_seed, Contents, Op, Schedule, CHURN_EVERY};
use crate::span::{Kind, Layer, Plain, Wrap};
use crate::Workload;

pub const PEERS: usize = 256;
pub const DROP_PROB: f64 = 0.10;
pub const CACHE: usize = 4096;
/// Set-up inserts of one pass.
pub const PRELOAD: usize = 1 << 13;
/// Timed mixed ops of one pass.
pub const OPS: usize = 1 << 13;
/// Timed read-only range queries of one pass.
pub const RANGES: usize = 1 << 12;
/// ≈ 21 and ≈ 210 records of the ≈ 10,600 live after the mixed phase.
pub const RANGE_SPANS: [f64; 2] = [0.002, 0.02];

/// Background maintenance the benchmark drives on a durability tier.
pub trait Maintain {
    fn anti_entropy_step(&self) -> u64;
    fn sync_all(&self) -> u64;
    fn pending_handoffs(&self) -> usize;
}

impl<D: Dht<Value = Versioned<Bucket>>> Maintain for QuorumDht<D> {
    fn anti_entropy_step(&self) -> u64 {
        QuorumDht::anti_entropy_step(self)
    }
    fn sync_all(&self) -> u64 {
        QuorumDht::sync_all(self)
    }
    fn pending_handoffs(&self) -> usize {
        QuorumDht::pending_handoffs(self)
    }
}

impl<D: Dht<Value = Fragment>> Maintain for ErasureDht<D, Bucket> {
    fn anti_entropy_step(&self) -> u64 {
        ErasureDht::anti_entropy_step(self)
    }
    fn sync_all(&self) -> u64 {
        ErasureDht::sync_all(self)
    }
    fn pending_handoffs(&self) -> usize {
        ErasureDht::pending_handoffs(self)
    }
}

/// The durability tier between the fault layer and the ring.
pub trait Tier {
    const NAME: &'static str;
    const PASSES: usize;
    const LAYER: Layer;
    const STACK: &'static [Layer];
    /// What the ring stores under this tier.
    type Slot: Clone + Stored;
    type Over<D: Dht<Value = Self::Slot>>: Dht<Value = Bucket> + Maintain;
    fn over<D: Dht<Value = Self::Slot>>(ring: D) -> Self::Over<D>;
}

pub struct Quorum;

impl Tier for Quorum {
    const NAME: &'static str = "lossy_quorum";
    const PASSES: usize = 32;
    const LAYER: Layer = Layer::Quorum;
    const STACK: &'static [Layer] = &[
        Layer::Cache,
        Layer::Retry,
        Layer::Fault,
        Layer::Quorum,
        Layer::Chord,
    ];
    type Slot = Versioned<Bucket>;
    type Over<D: Dht<Value = Versioned<Bucket>>> = QuorumDht<D>;
    fn over<D: Dht<Value = Versioned<Bucket>>>(ring: D) -> QuorumDht<D> {
        QuorumDht::new(ring, QuorumConfig::new(3, 2, 2))
    }
}

pub struct Erasure;

impl Tier for Erasure {
    const NAME: &'static str = "lossy_erasure";
    // A pass costs 2.3 times what it does over the quorum tier.
    const PASSES: usize = 14;
    const LAYER: Layer = Layer::Erasure;
    const STACK: &'static [Layer] = &[
        Layer::Cache,
        Layer::Retry,
        Layer::Fault,
        Layer::Erasure,
        Layer::Chord,
    ];
    type Slot = Fragment;
    type Over<D: Dht<Value = Fragment>> = ErasureDht<D, Bucket>;
    fn over<D: Dht<Value = Fragment>>(ring: D) -> ErasureDht<D, Bucket> {
        ErasureDht::new(ring, ErasureConfig::new(4, 6))
    }
}

pub struct Inputs {
    seed: u64,
    full: Schedule,
    /// The same inputs cut to half of the ops, without range queries.
    half: Schedule,
}

/// One closed-loop client on a fresh ring and tower: preload, the
/// mixed schedule with its churn cadence, verification, then the
/// schedule's read-only range queries.
fn client<W: Wrap, T: Tier>(w: W, seed: u64, sched: &Schedule, sync: &PhaseSync) -> PassOut {
    let t0 = Instant::now();
    let ring: ChordDht<T::Slot> = ChordDht::with_config(
        PEERS,
        sub_seed(seed, 10),
        ChordConfig {
            // The tier owns redundancy; the ring keeps one copy.
            replicas: 1,
            ..ChordConfig::default()
        },
    );
    let tier = T::over(w.wrap(&ring, Layer::Chord, false));
    let net = NetProfile::lossy(sub_seed(seed, 20), DROP_PROB);
    let faulty = FaultyDht::new(w.wrap(&tier, T::LAYER, true), net);
    let retried = RetriedDht::new(w.wrap(faulty, Layer::Fault, false), RetryPolicy::default());
    let cached = CachedDht::with_capacity(w.wrap(retried, Layer::Retry, false), CACHE);
    let ix = LhtIndex::new(w.wrap(cached, Layer::Cache, false), index_config())
        .expect("fresh ring behind a retried network");
    let mut loading = Tally::new();
    for (k, v) in &sched.preload {
        insert(&ix, w, &mut loading, *k, *v);
    }
    let setup_s = t0.elapsed().as_secs_f64();

    let mut tally = Tally::new();
    tally.attempted = loading.attempted;
    tally.failed = loading.failed;
    ix.reset_stats();
    let probe = || Snapshot {
        top: ix.dht().stats(),
        ring: ring.stats(),
        tier: tier.stats(),
        naming: ix.naming_cache_stats(),
    };
    let mut maintenance_ns = 0;
    let window = Window::open(w, &probe);
    let main = sync.timed(&sched.ops, |i, op| {
        match *op {
            Op::Insert { key, value } => insert(&ix, w, &mut tally, key, value),
            Op::Lookup { key, expect } => lookup(&ix, w, &mut tally, key, expect),
            Op::Range(q) => range(&ix, w, &mut tally, &q),
            Op::Remove { key, expect } => remove(&ix, w, &mut tally, key, expect),
        }
        if (i + 1) % CHURN_EVERY == 0 {
            let event = i / CHURN_EVERY;
            maintenance_ns += maintenance(w, Layer::Chord, Kind::Churn, || {
                let ids = ring.snapshot().node_ids;
                let victim = ids[(sched.churn[event] % ids.len() as u64) as usize];
                assert!(ring.leave(&victim), "a live node of a 256-ring leaves");
                ring.join(&format!("churn:{event}"));
            });
            maintenance_ns += maintenance(w, Layer::Chord, Kind::Stabilize, || {
                ring.stabilize(2);
            });
            maintenance_ns += maintenance(w, T::LAYER, Kind::AntiEntropy, || {
                tier.anti_entropy_step();
            });
        }
    });
    let mut layers = window.close(w, &probe);
    layers.ops = sched.ops.len() as u64;
    layers.op_ns = tally.op_ns;
    layers.maintenance_ns = maintenance_ns;
    layers.index = ix.stats();
    layers.churn_events = sched.churn.len() as u64;
    layers.pending_handoffs = tier.pending_handoffs() as u64;
    layers.load_max_over_mean = load_max_over_mean(&ring);

    // Untimed: converge the tier, then hold the index to the oracle.
    tier.sync_all();
    let expect = Contents::of(sched.live.iter().map(|(k, v)| (*k, *v)));
    verify_contents(&ix, &mut tally, &expect);
    let (stored_bytes, leaves) = resident(&ring);
    let counts = Counts {
        ops: layers.ops,
        dht_lookups: layers.top.lookups(),
        hops: layers.ring.hops,
        stored_bytes,
        live_records: sched.live.len() as u64,
        leaves,
    };

    let ranges = sync.timed(&sched.ranges, |_, q| range(&ix, Plain, &mut tally, q));
    PassOut {
        setup_s,
        main,
        ranges,
        tally,
        counts: Some(counts),
        layers,
    }
}

/// The `lossy_*` workload over tier `T`.
pub struct Lossy<T>(std::marker::PhantomData<T>);

impl<T: Tier> Workload for Lossy<T> {
    type Inputs = Inputs;
    const NAME: &'static str = T::NAME;
    const PASSES: usize = T::PASSES;
    const STACK: &'static [Layer] = T::STACK;

    fn inputs(seed: u64) -> Inputs {
        let schedule =
            |ops, ranges| lossy_schedule(sub_seed(seed, 0), PRELOAD, ops, ranges, &RANGE_SPANS);
        Inputs {
            seed,
            full: schedule(OPS, RANGES),
            half: schedule(OPS / 2, 0),
        }
    }

    fn pass<W: Wrap>(w: W, inp: &Inputs, half: bool) -> PassOut {
        let sched = if half { &inp.half } else { &inp.full };
        solo(|_, sync| client::<W, T>(w, inp.seed, sched, sync))
    }

    fn pass_c2(_: &Inputs) -> Option<PassOut> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Tracer;

    /// `SpanDht` at every boundary changes nothing: the tower with
    /// spans and the tower without give the same answers (every op of
    /// both runs matched the one oracle), the same `DhtStats` at the
    /// top, the tier and the ring, and leave the same bytes behind.
    fn spans_are_transparent<T: Tier>() {
        let sched = lossy_schedule(11, 600, 2 * CHURN_EVERY + 100, 24, &RANGE_SPANS);
        let plain = solo(|_, sync| client::<Plain, T>(Plain, 11, &sched, sync));
        let tracer = Tracer::new();
        let spanned = solo(|_, sync| client::<&Tracer, T>(&tracer, 11, &sched, sync));

        assert!(plain.tally.attempted > 1200);
        assert_eq!((plain.tally.failed, spanned.tally.failed), (0, 0));
        assert_eq!(plain.tally.attempted, spanned.tally.attempted);
        assert_eq!(plain.counts, spanned.counts);
        assert_eq!(plain.layers.top, spanned.layers.top);
        assert_eq!(plain.layers.tier, spanned.layers.tier);
        assert_eq!(plain.layers.ring, spanned.layers.ring);
        assert_eq!(plain.layers.index, spanned.layers.index);
        assert_eq!(plain.layers.naming, spanned.layers.naming);
        assert_eq!(
            plain.layers.pending_handoffs,
            spanned.layers.pending_handoffs
        );

        // And the spans did see the traffic they were transparent to.
        assert_eq!(
            tracer.calls_in(Layer::Cache),
            tracer.calls_out(Layer::Index)
        );
        assert_eq!(
            tracer.served_in(Layer::Chord),
            spanned.layers.ring.lookups()
        );
        assert!(tracer.agg(T::LAYER, Kind::AntiEntropy).spans == 2);
        assert!(tracer.self_ns(Layer::Bucket) > 0);
    }

    #[test]
    fn span_dht_is_transparent_on_the_lossy_quorum_tower() {
        spans_are_transparent::<Quorum>();
    }

    #[test]
    fn span_dht_is_transparent_on_the_lossy_erasure_tower() {
        spans_are_transparent::<Erasure>();
    }
}
