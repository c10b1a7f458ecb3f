//! `grow` — the write/split path on a bare ring: no cache, no
//! wrappers. A 4096-key `bulk_load` pre-splits a fresh 1024-peer ring,
//! then `KEYS` random-order inserts run against it and `RANGES` range
//! queries over what grew. Every split mints new labels, every DHT
//! call pays a full route, and the `update` + `put` split protocol
//! and the ring mutex dominate.
//!
//! The traced run also makes 2-client passes (fresh ring, the clients
//! taking half of the inserts and of the queries each), for the client
//! scaling the ring mutex allows. The two clients take the two halves
//! of the key *space*, not of the key array: they share the ring and
//! its lock but never a bucket. Two writers splitting one bucket can
//! exhaust `LhtIndex::insert`'s retry budget (ROADMAP item 0; about
//! one run in ten lost a dozen inserts that way), and a benchmark
//! workload must not fail ops.

use std::time::Instant;

use lht::{ChordDht, Dht, LhtIndex};

use crate::drive::{
    index_config, insert, lookup, pair, range, resident, solo, verify_contents, Bucket, Counts,
    PassOut, PhaseSync, Snapshot, Tally, Window,
};
use crate::inputs::{static_ranges, sub_seed, uniform_keys, value_of, Contents, RangeQ};
use crate::span::{Layer, Plain, Wrap};
use crate::Workload;

pub const PEERS: usize = 1024;
pub const PRESPLIT: usize = 4096;
/// Timed inserts of one pass.
pub const KEYS: usize = 1 << 16;
/// Timed range queries of one pass, over the grown index.
pub const RANGES: usize = 4096;
/// ≈ 136 and ≈ 544 records of the 69,632 loaded.
pub const RANGE_SPANS: [f64; 2] = [1.0 / 512.0, 1.0 / 128.0];
/// Every this-many-th key is read back after a pass.
const READ_BACK_EVERY: usize = 8;

type Ring = ChordDht<Bucket>;

pub struct Inputs {
    seed: u64,
    /// `PRESPLIT` bulk-loaded keys, then `KEYS` in insertion order.
    keys: Vec<u64>,
    full: Contents,
    half: Contents,
    ranges: Vec<RangeQ>,
}

fn sorted(keys: &[u64]) -> Vec<u64> {
    let mut s = keys.to_vec();
    s.sort_unstable();
    s
}

fn contents(sorted: &[u64]) -> Contents {
    Contents::of(sorted.iter().map(|k| (*k, value_of(*k))))
}

/// Builds the ring and pre-splits it; returns the set-up seconds.
fn set_up(inp: &Inputs) -> (Ring, f64) {
    let t0 = Instant::now();
    let ring = Ring::with_nodes(PEERS, sub_seed(inp.seed, 1));
    let ix = LhtIndex::new(&ring, index_config()).expect("fresh ring");
    ix.bulk_load(
        inp.keys[..PRESPLIT]
            .iter()
            .map(|k| (lht::KeyFraction::from_bits(*k), value_of(*k))),
    )
    .expect("bulk load into a fresh index");
    (ring, t0.elapsed().as_secs_f64())
}

/// One closed-loop client: its own index handle on the shared ring,
/// `share` to insert, then `queries` to answer. The pass fills in the
/// set-up time and the counts.
fn client<W: Wrap>(
    w: W,
    ring: &Ring,
    share: &[u64],
    queries: &[RangeQ],
    sync: &PhaseSync,
) -> PassOut {
    let ix = LhtIndex::new(w.wrap(ring, Layer::Chord, true), index_config())
        .expect("handle on a live ring");
    let mut tally = Tally::new();
    let probe = || Snapshot {
        top: ring.stats(),
        ring: ring.stats(),
        naming: ix.naming_cache_stats(),
        ..Snapshot::default()
    };
    let window = Window::open(w, &probe);
    let main = sync.timed(share, |_, k| insert(&ix, w, &mut tally, *k, value_of(*k)));
    let mut layers = window.close(w, &probe);
    layers.index = ix.stats();
    layers.ops = share.len() as u64;
    layers.op_ns = tally.op_ns;
    let ranges = sync.timed(queries, |_, q| range(&ix, Plain, &mut tally, q));
    PassOut {
        setup_s: 0.0,
        main,
        ranges,
        tally,
        counts: None,
        layers,
    }
}

/// Untimed: every 8th key read back, `min`/`max`, one full scan.
fn verify(ring: &Ring, tally: &mut Tally, loaded: &[u64], expect: &Contents) {
    let ix = LhtIndex::new(ring, index_config()).expect("handle on a live ring");
    for k in loaded.iter().step_by(READ_BACK_EVERY) {
        lookup(&ix, Plain, tally, *k, value_of(*k));
    }
    verify_contents(&ix, tally, expect);
}

pub struct Grow;

impl Workload for Grow {
    type Inputs = Inputs;
    const NAME: &'static str = "grow";
    const PASSES: usize = 15;
    const STACK: &'static [Layer] = &[Layer::Chord];

    fn inputs(seed: u64) -> Inputs {
        let keys = uniform_keys(sub_seed(seed, 0), PRESPLIT + KEYS);
        let all = sorted(&keys);
        Inputs {
            seed,
            full: contents(&all),
            half: contents(&sorted(&keys[..PRESPLIT + KEYS / 2])),
            ranges: static_ranges(sub_seed(seed, 2), RANGES, &RANGE_SPANS, &all),
            keys,
        }
    }

    fn pass<W: Wrap>(w: W, inp: &Inputs, half: bool) -> PassOut {
        let n = if half { KEYS / 2 } else { KEYS };
        let expect = if half { &inp.half } else { &inp.full };
        let (ring, setup_s) = set_up(inp);
        let loaded = &inp.keys[..PRESPLIT + n];
        // The queries' answers are those of the fully grown index.
        let queries: &[RangeQ] = if half { &[] } else { &inp.ranges };
        let mut out = solo(|_, sync| client(w, &ring, &loaded[PRESPLIT..], queries, sync));
        let (stored_bytes, leaves) = resident(&ring);
        let counts = Counts {
            ops: n as u64,
            dht_lookups: out.layers.top.lookups(),
            hops: out.layers.ring.hops,
            stored_bytes,
            live_records: loaded.len() as u64,
            leaves,
        };
        out.layers.load_max_over_mean = crate::drive::load_max_over_mean(&ring);
        verify(&ring, &mut out.tally, loaded, expect);
        PassOut {
            setup_s,
            counts: Some(counts),
            ..out
        }
    }

    fn pass_c2(inp: &Inputs) -> Option<PassOut> {
        let (ring, setup_s) = set_up(inp);
        let (low, high): (Vec<u64>, Vec<u64>) =
            inp.keys[PRESPLIT..].iter().partition(|k| **k >> 63 == 0);
        let [a, b] = pair(|c, sync| {
            let share = if c == 0 { &low } else { &high };
            let queries = &inp.ranges[c * RANGES / 2..(c + 1) * RANGES / 2];
            client(Plain, &ring, share, queries, sync)
        });
        let mut out = PassOut::joined(a, b);
        out.setup_s = setup_s;
        verify(&ring, &mut out.tally, &inp.keys, &inp.full);
        Some(out)
    }
}
