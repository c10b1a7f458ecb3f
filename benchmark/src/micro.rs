//! Layer microbenchmarks timed from outside, through public
//! functions only: naming resolution, SHA-1, the node store and the
//! Reed–Solomon codec. They feed per-layer metrics, never end-to-end
//! ones, and each repeats its work until `MIN_SECS` have passed.

use std::hint::black_box;
use std::time::Instant;

use lht::dht::gf256::ReedSolomon;
use lht::dht::node_store;
use lht::id::sha1;
use lht::{DhtKey, KeyFraction, Label, NamingCache};

const MIN_SECS: f64 = 0.05;

/// Nanoseconds per item of `work` (which processes `items` items),
/// repeated until `MIN_SECS` have passed.
fn ns_per_item(items: usize, mut work: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut rounds = 0u64;
    while rounds == 0 || t0.elapsed().as_secs_f64() < MIN_SECS {
        work();
        rounds += 1;
    }
    t0.elapsed().as_nanos() as f64 / (rounds * items as u64) as f64
}

pub struct Micro {
    pub resolve_hit_ns: f64,
    pub resolve_miss_ns: f64,
    pub sha1_ns_per_label: f64,
    pub sha1_mb_s: f64,
    pub store_get_ns: f64,
    pub store_put_ns: f64,
    pub gf256_encode_mb_s: f64,
    pub gf256_reconstruct_mb_s: f64,
}

/// `n ≤ 2^14` distinct labels of `depth ≥ 16` bits in scrambled order,
/// shaped as the index names its leaves.
fn labels(n: usize, depth: usize) -> Vec<Label> {
    (0..n as u64)
        .map(|i| {
            // An odd multiplier permutes the 14-bit prefixes.
            let prefix = i.wrapping_mul(0x2545) & 0x3fff;
            Label::search_string(KeyFraction::from_bits(prefix << 50), depth)
        })
        .collect()
}

/// Runs every microbenchmark on labels of the workload's leaf depth.
pub fn run(depth: usize) -> Micro {
    let depth = depth.clamp(16, 48);
    const CAPACITY: usize = 4096;

    // Misses: a stream of distinct labels four times the capacity, so
    // every resolution hashes and (past the first 4096) evicts.
    let cold = labels(4 * CAPACITY, depth);
    let resolve_miss_ns = ns_per_item(cold.len(), || {
        let cache = NamingCache::new(CAPACITY);
        for l in &cold {
            black_box(cache.resolve(l));
        }
    });
    // Hits: a resident set a quarter of the capacity, resolved again.
    let hot = &cold[..CAPACITY / 4];
    let cache = NamingCache::new(CAPACITY);
    for l in hot {
        cache.resolve(l);
    }
    let resolve_hit_ns = ns_per_item(hot.len(), || {
        for l in hot {
            black_box(cache.resolve(l));
        }
    });

    let names: Vec<String> = cold.iter().map(Label::to_string).collect();
    let sha1_ns_per_label = ns_per_item(names.len(), || {
        for n in &names {
            black_box(sha1(black_box(n.as_bytes())));
        }
    });
    let block = vec![0xa5u8; 64 * 1024];
    let sha1_ns_per_byte = ns_per_item(block.len(), || {
        black_box(sha1(black_box(&block)));
    });

    let keys: Vec<DhtKey> = names.iter().map(|n| DhtKey::from(n.as_str())).collect();
    let store_put_ns = ns_per_item(keys.len(), || {
        let mut store = node_store::<u32>();
        for (i, k) in keys.iter().enumerate() {
            store.insert(k.clone(), i as u32);
        }
        black_box(store.len());
    });
    let mut store = node_store::<u32>();
    for (i, k) in keys.iter().enumerate() {
        store.insert(k.clone(), i as u32);
    }
    let store_get_ns = ns_per_item(keys.len(), || {
        for k in &keys {
            black_box(store.get(k));
        }
    });

    // A full bucket's payload: ~100 records of 12 bytes.
    let payload: Vec<u8> = (0..1200u32).map(|i| (i * 31 + 7) as u8).collect();
    let rs = ReedSolomon::new(4, 6);
    let encode_ns_per_byte = ns_per_item(payload.len(), || {
        black_box(rs.encode(black_box(&payload)));
    });
    // Two data shards erased: decode from shards 2..6.
    let survivors: Vec<(usize, Vec<u8>)> = rs
        .encode(&payload)
        .into_iter()
        .enumerate()
        .skip(2)
        .collect();
    assert_eq!(
        rs.reconstruct(&survivors, payload.len()).as_deref(),
        Some(payload.as_slice()),
        "gf256: reconstruction from shards 2..6 must round-trip"
    );
    let reconstruct_ns_per_byte = ns_per_item(payload.len(), || {
        black_box(rs.reconstruct(black_box(&survivors), payload.len()));
    });

    // bytes/ns × 1000 = MB/s (decimal megabytes).
    let mb_s = |ns_per_byte: f64| 1000.0 / ns_per_byte;
    Micro {
        resolve_hit_ns,
        resolve_miss_ns,
        sha1_ns_per_label,
        sha1_mb_s: mb_s(sha1_ns_per_byte),
        store_get_ns,
        store_put_ns,
        gf256_encode_mb_s: mb_s(encode_ns_per_byte),
        gf256_reconstruct_mb_s: mb_s(reconstruct_ns_per_byte),
    }
}
