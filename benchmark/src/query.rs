//! `query` — read-only use of a large index. One 1024-peer ring is
//! bulk-loaded with `KEYS` keys, and each client reads it through its
//! own `CachedDht<&ChordDht>` after a warm-up: Zipf(0.99)
//! exact-matches, then range queries — with one client, and in the
//! traced run with two as well. The hot set fits both the naming cache
//! and the route cache, so hashing and routing nearly vanish; index
//! search, bucket decode, probe verification and the ring lock are
//! what is left.
//!
//! Popularity drifts: every `LOOKUPS / DRIFTS` draws the rank → key
//! mapping rotates, so a pass averages over `DRIFTS` hot sets. With
//! one fixed hot set a third of all lookups go to 64 keys, and which
//! leaf depths those 64 happen to have moves DHT-lookups per op by
//! ±4 % from seed to seed.
//!
//! The two clients deal the 1-client pass's stream out between them
//! (even draws, odd draws), so both passes read exactly the same keys
//! through the same hot sets and their rates differ by the client
//! count alone.

use std::time::Instant;

use lht::{CachedDht, ChordDht, Dht, KeyFraction, LhtIndex};

use crate::drive::{
    index_config, load_max_over_mean, lookup, pair, range, resident, solo, verify_contents, Bucket,
    Counts, PassOut, PhaseSync, Snapshot, Tally, Window,
};
use crate::inputs::{
    permutation, static_ranges, sub_seed, uniform_keys, value_of, Contents, RangeQ, Zipf,
};
use crate::span::{Layer, Plain, Wrap};
use crate::Workload;

pub const PEERS: usize = 1024;
pub const KEYS: usize = 1 << 20;
pub const CACHE: usize = 4096;
pub const ZIPF_S: f64 = 0.99;
/// Untimed lookups that fill a client's naming and route caches.
pub const WARM_UP: usize = 1 << 14;
/// Timed exact-matches of one pass.
pub const LOOKUPS: usize = 1 << 16;
/// Hot sets a client's `LOOKUPS` draws pass through.
pub const DRIFTS: usize = 16;
/// Timed range queries of one pass.
pub const RANGES: usize = 1024;
/// ≈ 256 and ≈ 4096 records.
pub const RANGE_SPANS: [f64; 2] = [1.0 / 4096.0, 1.0 / 256.0];

type Ring = ChordDht<Bucket>;

pub struct Inputs {
    seed: u64,
    keys: Vec<u64>,
    contents: Contents,
    /// `WARM_UP` then `LOOKUPS` keys, Zipf rank through a seeded,
    /// drifting permutation of `keys`.
    stream: Vec<u64>,
    /// The timed part of `stream` dealt out to the two clients of the
    /// 2-client pass: even draws, odd draws.
    dealt: [Vec<u64>; 2],
    ranges: Vec<RangeQ>,
}

/// Builds the ring and bulk-loads it; returns the set-up seconds.
fn set_up(inp: &Inputs) -> (Ring, f64) {
    let t0 = Instant::now();
    let ring = Ring::with_nodes(PEERS, sub_seed(inp.seed, 1));
    let ix = LhtIndex::new(&ring, index_config()).expect("fresh ring");
    ix.bulk_load(
        inp.keys
            .iter()
            .map(|k| (KeyFraction::from_bits(*k), value_of(*k))),
    )
    .expect("bulk load into a fresh index");
    (ring, t0.elapsed().as_secs_f64())
}

/// One closed-loop client: a private route cache and index handle on
/// the shared ring; warm-up (its share of the set-up time), `reads`,
/// then `queries`. The pass adds the ring's set-up and the counts.
fn client<W: Wrap>(
    w: W,
    ring: &Ring,
    warm: &[u64],
    reads: &[u64],
    queries: &[RangeQ],
    sync: &PhaseSync,
) -> PassOut {
    let t0 = Instant::now();
    let cached = CachedDht::with_capacity(w.wrap(ring, Layer::Chord, true), CACHE);
    let ix = LhtIndex::new(w.wrap(cached, Layer::Cache, false), index_config())
        .expect("handle on a live ring");
    let mut warming = Tally::new();
    for k in warm {
        lookup(&ix, w, &mut warming, *k, value_of(*k));
    }
    let warm_s = t0.elapsed().as_secs_f64();

    let mut tally = Tally::new();
    tally.attempted = warming.attempted;
    tally.failed = warming.failed;
    let probe = || Snapshot {
        top: ix.dht().stats(),
        ring: ring.stats(),
        naming: ix.naming_cache_stats(),
        ..Snapshot::default()
    };
    let window = Window::open(w, &probe);
    let main = sync.timed(reads, |_, k| lookup(&ix, w, &mut tally, *k, value_of(*k)));
    let mut layers = window.close(w, &probe);
    layers.index = ix.stats();
    layers.ops = reads.len() as u64;
    layers.op_ns = tally.op_ns;
    let ranges = sync.timed(queries, |_, q| range(&ix, Plain, &mut tally, q));
    PassOut {
        setup_s: warm_s,
        main,
        ranges,
        tally,
        counts: None,
        layers,
    }
}

/// Untimed: `min`/`max` and one full scan through a bare handle.
fn verify(ring: &Ring, tally: &mut Tally, inp: &Inputs) {
    let ix = LhtIndex::new(ring, index_config()).expect("handle on a live ring");
    verify_contents(&ix, tally, &inp.contents);
}

pub struct Query;

impl Workload for Query {
    type Inputs = Inputs;
    const NAME: &'static str = "query";
    const PASSES: usize = 11;
    const STACK: &'static [Layer] = &[Layer::Cache, Layer::Chord];

    fn inputs(seed: u64) -> Inputs {
        let keys = uniform_keys(sub_seed(seed, 0), KEYS);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let perm = permutation(sub_seed(seed, 3), KEYS);
        let zipf = Zipf::new(KEYS, ZIPF_S);
        let stream = zipf
            .stream(sub_seed(seed, 4), WARM_UP + LOOKUPS)
            .into_iter()
            .enumerate()
            .map(|(i, rank)| {
                // The warm-up shares the first hot set.
                let drift = i.saturating_sub(WARM_UP) / (LOOKUPS / DRIFTS);
                let at = perm[rank as usize] as usize + drift * (KEYS / DRIFTS);
                keys[at % KEYS]
            })
            .collect::<Vec<u64>>();
        let timed = &stream[WARM_UP..];
        let dealt = [0, 1].map(|c| timed.iter().skip(c).step_by(2).copied().collect());
        Inputs {
            seed,
            contents: Contents::of(sorted.iter().map(|k| (*k, value_of(*k)))),
            stream,
            dealt,
            ranges: static_ranges(sub_seed(seed, 2), RANGES, &RANGE_SPANS, &sorted),
            keys,
        }
    }

    fn pass<W: Wrap>(w: W, inp: &Inputs, half: bool) -> PassOut {
        let n = if half { LOOKUPS / 2 } else { LOOKUPS };
        let queries: &[RangeQ] = if half { &[] } else { &inp.ranges };
        let (ring, setup_s) = set_up(inp);
        let (warm, reads) = inp.stream.split_at(WARM_UP);
        let mut out = solo(|_, sync| client(w, &ring, warm, &reads[..n], queries, sync));
        let (stored_bytes, leaves) = resident(&ring);
        let counts = Counts {
            ops: n as u64,
            dht_lookups: out.layers.top.lookups(),
            hops: out.layers.ring.hops,
            stored_bytes,
            live_records: KEYS as u64,
            leaves,
        };
        out.layers.load_max_over_mean = load_max_over_mean(&ring);
        verify(&ring, &mut out.tally, inp);
        PassOut {
            setup_s: setup_s + out.setup_s,
            counts: Some(counts),
            ..out
        }
    }

    fn pass_c2(inp: &Inputs) -> Option<PassOut> {
        let (ring, setup_s) = set_up(inp);
        let warm = &inp.stream[..WARM_UP];
        let [a, b] = pair(|c, sync| {
            let queries = &inp.ranges[c * RANGES / 2..(c + 1) * RANGES / 2];
            client(Plain, &ring, warm, &inp.dealt[c], queries, sync)
        });
        let mut out = PassOut::joined(a, b);
        out.setup_s += setup_s;
        verify(&ring, &mut out.tally, inp);
        Some(out)
    }
}
