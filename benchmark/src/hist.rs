//! A log-bucket latency histogram: 8 sub-buckets per power of two, so
//! a reported percentile is at most 12.5 % above the true sample.

const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

#[derive(Clone)]
pub struct Hist {
    counts: Box<[u64; BUCKETS]>,
    samples: u64,
}

fn bucket_of(ns: u64) -> usize {
    if ns < SUB as u64 {
        return ns as usize;
    }
    let exp = 63 - ns.leading_zeros(); // ≥ SUB_BITS
    let sub = (ns >> (exp - SUB_BITS)) as usize & (SUB - 1);
    ((exp - SUB_BITS + 1) as usize) * SUB + sub
}

/// The largest value that lands in `bucket`.
fn upper_bound(bucket: usize) -> u64 {
    if bucket < SUB {
        return bucket as u64;
    }
    let exp = (bucket / SUB) as u32 + SUB_BITS - 1;
    let sub = (bucket % SUB) as u64;
    let lo = (1u64 << exp) | (sub << (exp - SUB_BITS));
    lo + ((1u64 << (exp - SUB_BITS)) - 1)
}

impl Hist {
    pub fn new() -> Hist {
        Hist {
            counts: Box::new([0; BUCKETS]),
            samples: 0,
        }
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.samples += 1;
    }

    pub fn samples(&self) -> u64 {
        self.samples
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.samples += other.samples;
    }

    /// The upper bound of the bucket holding the `q`-quantile sample
    /// (nearest-rank), or 0 with no samples.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.samples == 0 {
            return 0;
        }
        let rank = ((q * self.samples as f64).ceil() as u64).clamp(1, self.samples);
        let mut seen = 0;
        for (bucket, count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return upper_bound(bucket);
            }
        }
        unreachable!("rank ≤ samples")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn buckets_tile_the_u64_range() {
        for ns in [0, 1, 7, 8, 9, 15, 16, 1000, 123_456_789, u64::MAX] {
            let b = bucket_of(ns);
            assert!(ns <= upper_bound(b), "{ns} above its bucket's bound");
            if b > 0 {
                assert!(ns > upper_bound(b - 1), "{ns} fits the bucket below");
            }
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn percentiles_track_a_sorted_vector() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut h = Hist::new();
        // A latency-shaped sample: a tight body and a long tail.
        let mut xs: Vec<u64> = (0..20_000)
            .map(|i| {
                let body = rng.gen_range(9_000u64..15_000);
                if i % 50 == 0 {
                    body * rng.gen_range(5u64..40)
                } else {
                    body
                }
            })
            .collect();
        for x in &xs {
            h.record(*x);
        }
        xs.sort_unstable();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let exact = xs[((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len()) - 1];
            let got = h.quantile(q);
            assert!(got >= exact, "q={q}: {got} below the true sample {exact}");
            assert!(
                got as f64 <= exact as f64 * 1.125 + 1.0,
                "q={q}: {got} more than one sub-bucket above {exact}"
            );
        }
        assert_eq!(h.samples(), 20_000);
    }

    #[test]
    fn merge_adds_counts() {
        let (mut a, mut b) = (Hist::new(), Hist::new());
        a.record(100);
        b.record(10_000);
        b.record(10_000);
        a.merge(&b);
        assert_eq!(a.samples(), 3);
        assert_eq!(a.quantile(0.5), upper_bound(bucket_of(10_000)));
    }
}
