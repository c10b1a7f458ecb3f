//! Compression-counter exactness for the index's label resolution.
//!
//! `lht_id::sha1_compressions` is a process-wide counter, and `cargo
//! test` gives each integration-test file its own process — so this
//! file holds exactly the tests that assert *exact* counter deltas,
//! run single-threaded (`--test-threads=1` is not needed: the tests
//! below serialize themselves through a mutex).
//!
//! The index keeps no naming cache: every probe renders its label with
//! `Label::dht_key`, and the key's ring digest is computed lazily, once,
//! by whichever layer routes it. A substrate that never routes never
//! hashes; a routed one hashes each key it serves exactly once.

use std::sync::Mutex;

use rand::{rngs::StdRng, Rng, SeedableRng};

use lht_core::{KeyInterval, LhtConfig, LhtIndex, NamingCacheStats};
use lht_dht::{ChordDht, Dht, DirectDht};
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

/// Pin: over `DirectDht`, which places keys by their bytes and never
/// asks for a ring digest, a 60,000-record bulk load and a 500-lookup
/// script after it run no SHA-1 compression at all.
#[test]
fn bulk_load_and_lookups_over_direct_run_no_compression() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    let mut rng = StdRng::seed_from_u64(20);
    let keys: Vec<KeyFraction> = (0..60_000)
        .map(|_| KeyFraction::from_bits(rng.gen()))
        .collect();

    let before = sha1_compressions();
    let dht = DirectDht::new();
    let ix = LhtIndex::new(&dht, LhtConfig::new(8, 20)).unwrap();
    let outcome = ix
        .bulk_load(keys.iter().enumerate().map(|(i, k)| (*k, i as u32)))
        .unwrap();
    for _ in 0..500 {
        let i = rng.gen_range(0..keys.len());
        assert_eq!(ix.exact_match(keys[i]).unwrap().value, Some(i as u32));
    }
    assert_eq!(outcome.leaves, 12_313);
    assert_eq!(sha1_compressions() - before, 0);
    assert_eq!(ix.naming_cache_stats(), NamingCacheStats::default());
}

/// Pin: over a bare `ChordDht`, a seeded script of inserts, removes,
/// exact matches, ranges and min/max spends exactly one compression per
/// DHT call the ring served. Each probe mints a fresh key, the ring
/// hashes it once to route it, and every name of a depth-20 tree fits
/// one SHA-1 block.
#[test]
fn chord_script_spends_one_compression_per_call_the_ring_served() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    let cfg = LhtConfig::new(8, 20);
    assert_eq!(expected_blocks(1 + cfg.max_depth), 1);

    let ring = ChordDht::with_nodes(64, 7);
    let ix = LhtIndex::new(&ring, cfg).unwrap();
    let mut rng = StdRng::seed_from_u64(2008);
    let mut held: Vec<KeyFraction> = Vec::new();

    let calls_before = ring.stats().lookups();
    let before = sha1_compressions();
    for step in 0..4_000u32 {
        match rng.gen_range(0..10) {
            0..=4 => {
                let key = KeyFraction::from_bits(rng.gen());
                ix.insert(key, step).unwrap();
                held.push(key);
            }
            5 if !held.is_empty() => {
                let key = held.swap_remove(rng.gen_range(0..held.len()));
                assert!(ix.remove(key).unwrap().value.is_some());
            }
            6 | 7 if !held.is_empty() => {
                let key = held[rng.gen_range(0..held.len())];
                assert!(ix.exact_match(key).unwrap().value.is_some());
            }
            8 => {
                let (a, b) = (rng.gen::<u64>(), rng.gen::<u64>());
                let (lo, hi) = (a.min(b), a.max(b));
                ix.range(KeyInterval::half_open(
                    KeyFraction::from_bits(lo),
                    KeyFraction::from_bits(hi),
                ))
                .unwrap();
            }
            _ => {
                ix.min().unwrap();
                ix.max().unwrap();
            }
        }
    }
    let calls = ring.stats().lookups() - calls_before;
    let spent = sha1_compressions() - before;
    assert!(calls > 10_000, "the script must drive the ring: {calls}");
    assert_eq!(spent, calls, "one compression per served call");
}
