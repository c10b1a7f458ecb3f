//! Compression-counter exactness for the bulk-load path.
//!
//! `lht_id::sha1_compressions` is a process-wide counter, and `cargo
//! test` gives each integration-test file its own process — so this
//! file holds exactly the tests that assert *exact* counter deltas,
//! run single-threaded (`--test-threads=1` is not needed: the tests
//! below serialize themselves through a mutex).

use std::sync::Mutex;

use lht_core::naming::name;
use lht_core::{audit, LhtConfig, LhtIndex};
use lht_dht::DirectDht;
use lht_id::{sha1_compressions, KeyFraction};

/// Serializes the tests in this file: the compression counter is
/// process-global, so concurrent hashing would smear the deltas.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

/// SHA-1 compressions a message of `len` bytes must cost: one per
/// 64-byte block after the 1-byte `0x80` marker and 8-byte length
/// field are padded in.
fn expected_blocks(len: usize) -> u64 {
    ((len + 8) / 64 + 1) as u64
}

#[test]
fn bulk_load_compression_delta_is_one_pass_per_distinct_leaf_name() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    let cfg = LhtConfig::new(8, 20);
    let dht = DirectDht::new();
    let ix = LhtIndex::new(&dht, cfg).unwrap();

    let records = (0..2000u32).map(|i| (KeyFraction::from_f64((i as f64 + 0.5) / 2000.0), i));
    let before = sha1_compressions();
    let outcome = ix.bulk_load(records).unwrap();
    let delta = sha1_compressions() - before;

    // Every compression the load spent belongs to a distinct leaf
    // name; the virtual-root name `#` (the leftmost leaf's) was
    // already cached when the index was created — as was the root
    // emptiness probe's key — and the DHT puts ride memoized keys.
    let expected: u64 = audit::leaf_labels(&dht)
        .iter()
        .map(name)
        .filter(|n| !n.is_virtual_root())
        .map(|n| expected_blocks(n.to_string().len()))
        .sum();
    assert_eq!(outcome.leaves, audit::leaf_labels(&dht).len() as u64);
    assert_eq!(
        delta, expected,
        "bulk load must hash each distinct leaf name exactly once"
    );
}

/// Pin: what a bulk load and a fixed lookup script after it leave in
/// the naming cache, and the SHA-1 compressions each spent. The
/// 60,000-record load mints more leaf names than the cache holds, so
/// it overflows *during* the load and the script's hits and misses
/// then depend on which names survived, in which recency order. The
/// literals were recorded before `bulk_load` resolved its leaf names
/// one by one and before the cache changed representation.
#[test]
fn bulk_load_then_lookup_script_leaves_the_pinned_cache_stats() {
    use rand::{rngs::StdRng, Rng, SeedableRng};

    let _guard = COUNTER_LOCK.lock().unwrap();
    // ((hits, misses, evictions, len), compressions) after the load,
    // then after the script (compressions are each phase's own).
    type Pin = ((u64, u64, u64, u64), u64);
    let run = |records: usize| -> (u64, Pin, Pin) {
        let mut rng = StdRng::seed_from_u64(20);
        let keys: Vec<KeyFraction> = (0..records)
            .map(|_| KeyFraction::from_bits(rng.gen()))
            .collect();
        let dht = DirectDht::new();
        let ix = LhtIndex::new(&dht, LhtConfig::new(8, 20)).unwrap();
        let snapshot = |since: u64| {
            let st = ix.naming_cache_stats();
            (
                (st.hits, st.misses, st.evictions, st.len),
                sha1_compressions() - since,
            )
        };

        let before = sha1_compressions();
        let outcome = ix
            .bulk_load(keys.iter().enumerate().map(|(i, k)| (*k, i as u32)))
            .unwrap();
        let loaded = snapshot(before);

        let before = sha1_compressions();
        for _ in 0..500 {
            let i = rng.gen_range(0..records);
            assert_eq!(ix.exact_match(keys[i]).unwrap().value, Some(i as u32));
        }
        (outcome.leaves, loaded, snapshot(before))
    };
    assert_eq!(
        run(2_000),
        (401, ((2, 401, 0, 401), 400), ((709, 491, 0, 491), 90))
    );
    assert_eq!(
        run(60_000),
        (
            12313,
            ((2, 12313, 8217, 4096), 12312),
            ((472, 13148, 9052, 4096), 835)
        )
    );
}
