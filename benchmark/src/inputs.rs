//! Input generators. Every function here is a pure function of its
//! arguments (`seed` first), runs before any timing, and also
//! produces the *expected answer* of each read it schedules, so the
//! timed loops only compare.

use std::collections::BTreeMap;

use lht::KeyFraction;
use lht_workload::{Dataset, KeyDist};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An independent sub-seed for `stream` of `seed` (SplitMix64 finalizer).
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The value the static workloads store under `key`: derived from the
/// key, so a lookup is checked without a map.
pub fn value_of(key: u64) -> u32 {
    (key >> 32) as u32 ^ key as u32 ^ 0x5bd1_e995
}

/// `n` distinct uniform keys in generation (random) order.
pub fn uniform_keys(seed: u64, n: usize) -> Vec<u64> {
    Dataset::generate(KeyDist::Uniform, n, seed)
        .iter()
        .map(KeyFraction::bits)
        .collect()
}

/// Order-independent digest of a record set: what a range answer is
/// compared by (cardinality and key/value set).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    pub count: u64,
    pub sum: u64,
}

impl Digest {
    pub fn add(&mut self, key: u64, value: u32) {
        self.count += 1;
        self.sum = self
            .sum
            .wrapping_add((key ^ ((value as u64) << 17)).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    }

    pub fn of(records: impl IntoIterator<Item = (u64, u32)>) -> Digest {
        let mut d = Digest::default();
        for (k, v) in records {
            d.add(k, v);
        }
        d
    }
}

/// What a correct index holds at the end of a pass: its extreme
/// records and the digest of all of them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Contents {
    pub min: (u64, u32),
    pub max: (u64, u32),
    pub all: Digest,
}

impl Contents {
    /// Of a non-empty record set given in ascending key order.
    pub fn of(records: impl IntoIterator<Item = (u64, u32)>) -> Contents {
        let mut records = records.into_iter();
        let min = records.next().expect("a pass leaves records behind");
        let mut out = Contents {
            min,
            max: min,
            all: Digest::of([min]),
        };
        for (k, v) in records {
            out.max = (k, v);
            out.all.add(k, v);
        }
        out
    }
}

/// A range query `[lo, hi)` and the digest of its correct answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RangeQ {
    pub lo: u64,
    pub hi: u64,
    pub expect: Digest,
}

/// `count` range queries at uniform offsets whose spans (fractions of
/// the key space) cycle through `spans`, answered against `sorted`
/// keys holding [`value_of`] values.
pub fn static_ranges(seed: u64, count: usize, spans: &[f64], sorted: &[u64]) -> Vec<RangeQ> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            let (lo, hi) = draw_range(&mut rng, spans[i % spans.len()]);
            let from = sorted.partition_point(|k| *k < lo);
            let to = sorted.partition_point(|k| *k < hi);
            let expect = Digest::of(sorted[from..to].iter().map(|k| (*k, value_of(*k))));
            RangeQ { lo, hi, expect }
        })
        .collect()
}

fn draw_range(rng: &mut StdRng, span: f64) -> (u64, u64) {
    let width = (span * 2f64.powi(64)) as u64;
    let lo = rng.gen_range(0..u64::MAX - width);
    (lo, lo + width)
}

/// Inverse-CDF sampler of Zipf(s) over ranks `0..n`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += (rank as f64).powf(-s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// The rank whose CDF interval holds `u ∈ [0, 1)`.
    pub fn rank(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|c| *c <= u)
            .min(self.cdf.len() - 1)
    }

    /// `count` seeded draws.
    pub fn stream(&self, seed: u64, count: usize) -> Vec<u32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| self.rank(rng.gen::<f64>()) as u32)
            .collect()
    }
}

/// A seeded permutation of `0..n` (rank → position in the key array).
pub fn permutation(seed: u64, n: usize) -> Vec<u32> {
    use rand::seq::SliceRandom;
    let mut perm: Vec<u32> = (0..n as u32).collect();
    perm.shuffle(&mut StdRng::seed_from_u64(seed));
    perm
}

/// One step of the mixed read/write schedule of the `lossy_*`
/// workloads, with the answer a correct index gives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Insert { key: u64, value: u32 },
    Lookup { key: u64, expect: u32 },
    Range(RangeQ),
    Remove { key: u64, expect: u32 },
}

/// The whole input of one `lossy_*` client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schedule {
    /// Inserted during set-up.
    pub preload: Vec<(u64, u32)>,
    /// The timed ops.
    pub ops: Vec<Op>,
    /// One draw per churn event (every `CHURN_EVERY` ops): which ring
    /// position leaves.
    pub churn: Vec<u64>,
    /// Range queries run after the mixed phase, answered against
    /// `live`.
    pub ranges: Vec<RangeQ>,
    /// The records a correct index holds after `ops`.
    pub live: BTreeMap<u64, u32>,
}

/// Ops between two churn events of a `lossy_*` schedule.
pub const CHURN_EVERY: usize = 256;
/// Key-space fraction a mixed-phase range query spans.
pub const MIXED_RANGE_SPAN: f64 = 0.002;

fn range_over(rng: &mut StdRng, span: f64, live: &BTreeMap<u64, u32>) -> RangeQ {
    let (lo, hi) = draw_range(rng, span);
    let expect = Digest::of(live.range(lo..hi).map(|(k, v)| (*k, *v)));
    RangeQ { lo, hi, expect }
}

/// `preload` set-up inserts, then `ops` steps: 40 % insert of a fresh
/// key, 40 % lookup of a live key, 10 % range of
/// [`MIXED_RANGE_SPAN`], 10 % remove of a live key; then `ranges`
/// read-only range queries with spans cycling through `range_spans`.
pub fn lossy_schedule(
    seed: u64,
    preload: usize,
    ops: usize,
    ranges: usize,
    range_spans: &[f64],
) -> Schedule {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live: BTreeMap<u64, u32> = BTreeMap::new();
    // `keys` mirrors `live` as a vector so a live key is drawn in O(1).
    let mut keys: Vec<u64> = Vec::with_capacity(preload + ops);
    let fresh = |rng: &mut StdRng, live: &BTreeMap<u64, u32>| loop {
        let k: u64 = rng.gen();
        if !live.contains_key(&k) {
            return k;
        }
    };
    let mut pre = Vec::with_capacity(preload);
    for i in 0..preload {
        let key = fresh(&mut rng, &live);
        live.insert(key, i as u32);
        keys.push(key);
        pre.push((key, i as u32));
    }
    let mut steps = Vec::with_capacity(ops);
    for i in 0..ops {
        let value = (preload + i) as u32;
        let step = match rng.gen_range(0u32..10) {
            0..=3 => {
                let key = fresh(&mut rng, &live);
                live.insert(key, value);
                keys.push(key);
                Op::Insert { key, value }
            }
            4..=7 => {
                let key = keys[rng.gen_range(0..keys.len())];
                Op::Lookup {
                    key,
                    expect: live[&key],
                }
            }
            8 => Op::Range(range_over(&mut rng, MIXED_RANGE_SPAN, &live)),
            _ => {
                let key = keys.swap_remove(rng.gen_range(0..keys.len()));
                let expect = live.remove(&key).expect("keys mirrors live");
                Op::Remove { key, expect }
            }
        };
        steps.push(step);
    }
    let churn = (0..ops / CHURN_EVERY).map(|_| rng.gen()).collect();
    let ranges = (0..ranges)
        .map(|i| range_over(&mut rng, range_spans[i % range_spans.len()], &live))
        .collect();
    Schedule {
        preload: pre,
        ops: steps,
        churn,
        ranges,
        live,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_pure_functions_of_the_seed() {
        assert_eq!(uniform_keys(5, 1000), uniform_keys(5, 1000));
        assert_ne!(uniform_keys(5, 1000), uniform_keys(6, 1000));
        assert_eq!(permutation(5, 1000), permutation(5, 1000));
        assert_ne!(permutation(5, 1000), permutation(6, 1000));
        let z = Zipf::new(1 << 12, 0.99);
        assert_eq!(z.stream(5, 1000), z.stream(5, 1000));
        assert_ne!(z.stream(5, 1000), z.stream(6, 1000));
        let spans = [0.002, 0.02];
        let a = lossy_schedule(5, 500, 2000, 50, &spans);
        assert_eq!(a, lossy_schedule(5, 500, 2000, 50, &spans));
        assert_ne!(a.ops, lossy_schedule(6, 500, 2000, 50, &spans).ops);
        assert_ne!(sub_seed(5, 0), sub_seed(5, 1));
        assert_ne!(sub_seed(5, 0), sub_seed(6, 0));
    }

    #[test]
    fn permutation_is_a_bijection() {
        let mut p = permutation(9, 4096);
        p.sort_unstable();
        assert!(p.iter().enumerate().all(|(i, v)| i as u32 == *v));
    }

    #[test]
    fn zipf_is_head_heavy_and_in_range() {
        let n = 1 << 14;
        let z = Zipf::new(n, 0.99);
        assert_eq!(z.rank(0.0), 0);
        assert!(z.rank(0.999_999_999) < n);
        let draws = z.stream(3, 50_000);
        let head = draws.iter().filter(|r| **r < 64).count();
        let tail = draws.iter().filter(|r| **r >= (n as u32) / 2).count();
        // Zipf(0.99) over 2^14 ranks puts ~46 % of the mass on the
        // first 64 ranks and ~7 % on the upper half.
        assert!(head > 20_000 && head < 26_000, "head {head}");
        assert!(tail > 2_000 && tail < 5_000, "tail {tail}");
    }

    #[test]
    fn schedule_mix_and_expectations_are_consistent() {
        let s = lossy_schedule(7, 1000, 10_000, 20, &[0.002, 0.02]);
        let count = |f: fn(&Op) -> bool| s.ops.iter().filter(|o| f(o)).count();
        let inserts = count(|o| matches!(o, Op::Insert { .. }));
        let lookups = count(|o| matches!(o, Op::Lookup { .. }));
        let ranges = count(|o| matches!(o, Op::Range(_)));
        let removes = count(|o| matches!(o, Op::Remove { .. }));
        assert!((3800..4200).contains(&inserts), "inserts {inserts}");
        assert!((3800..4200).contains(&lookups), "lookups {lookups}");
        assert!((850..1150).contains(&ranges), "ranges {ranges}");
        assert!((850..1150).contains(&removes), "removes {removes}");
        assert_eq!(s.churn.len(), 10_000 / CHURN_EVERY);
        assert_eq!(s.live.len(), 1000 + inserts - removes);

        // Replaying the schedule against a map reproduces every
        // expectation — the oracle the workloads are held to.
        let mut map: BTreeMap<u64, u32> = s.preload.iter().copied().collect();
        for op in &s.ops {
            match *op {
                Op::Insert { key, value } => assert!(map.insert(key, value).is_none()),
                Op::Lookup { key, expect } => assert_eq!(map.get(&key), Some(&expect)),
                Op::Range(q) => assert_eq!(
                    Digest::of(map.range(q.lo..q.hi).map(|(k, v)| (*k, *v))),
                    q.expect
                ),
                Op::Remove { key, expect } => assert_eq!(map.remove(&key), Some(expect)),
            }
        }
        assert_eq!(map, s.live);
    }

    #[test]
    fn static_range_expectations_match_a_scan() {
        let mut keys = uniform_keys(4, 5000);
        keys.sort_unstable();
        let qs = static_ranges(8, 40, &[0.01, 0.1], &keys);
        for q in qs {
            let scan = Digest::of(
                keys.iter()
                    .filter(|k| (q.lo..q.hi).contains(k))
                    .map(|k| (*k, value_of(*k))),
            );
            assert_eq!(q.expect, scan);
            assert!(q.expect.count > 0);
        }
    }
}
