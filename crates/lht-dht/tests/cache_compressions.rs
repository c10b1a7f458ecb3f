//! A route cache that has nothing to remember must not hash on its
//! own account: the slab LRU is keyed by the key's ring digest, and a
//! stack whose substrate needs no digest (the one-hop oracle) or whose
//! cache can hold nothing (capacity 0) would otherwise pay a SHA-1
//! compression per consulted key that the uncached stack never pays.
//!
//! `lht_id::sha1_compressions` is process-wide and `cargo test` gives
//! each integration-test file its own process, so this file holds one
//! test and nothing else hashes beside it.

use lht_dht::{CachedDht, ChordDht, Dht, DhtKey, DirectDht};
use lht_id::sha1_compressions;

/// Compressions one pass of a mixed script costs on `dht`. Keys are
/// minted fresh — a digest memoized by an earlier pass would hide the
/// very compressions being counted. `prewarm`'s contract is to
/// memoize digests for the round that follows, so it is driven only
/// where the substrate hashes those same key objects anyway.
fn script_cost<D: Dht<Value = u64>>(dht: &D, substrate_hashes: bool) -> u64 {
    let keys: Vec<DhtKey> = (0..24).map(|i| DhtKey::from(format!("#{i:07b}"))).collect();
    let before = sha1_compressions();
    for (i, key) in keys.iter().enumerate() {
        dht.put(key, i as u64).expect("put");
    }
    for key in keys.iter().chain(&keys[..8]) {
        assert!(dht.get(key).expect("get").is_some());
    }
    if substrate_hashes {
        dht.prewarm(&keys[8..16]);
    }
    assert!(dht.multi_get(&keys[8..16]).iter().all(|r| r.is_ok()));
    let batch = keys[16..].iter().map(|k| (k.clone(), 7)).collect();
    assert!(dht.multi_put(batch).iter().all(|r| r.is_ok()));
    dht.update(&keys[0], &mut |slot| *slot = Some(1))
        .expect("update");
    dht.remove(&keys[1]).expect("remove");
    sha1_compressions() - before
}

#[test]
fn an_empty_cache_never_hashes_a_key() {
    // No owner hints below: nothing is ever learned.
    let bare = script_cost(&DirectDht::<u64>::new(), false);
    let cached = CachedDht::with_capacity(DirectDht::<u64>::new(), 64);
    assert_eq!(script_cost(&cached, false), bare);
    assert_eq!(bare, 0, "the one-hop oracle places keys without SHA-1");
    assert!(cached.is_empty());

    // Capacity 0 over a ring that does hint: nothing can be kept.
    let bare = script_cost(&ChordDht::<u64>::with_nodes(16, 5), true);
    let off = CachedDht::with_capacity(ChordDht::<u64>::with_nodes(16, 5), 0);
    assert_eq!(script_cost(&off, true), bare);
    assert!(bare > 0, "routing hashes each key once");

    // A cache that does remember rides the digests routing memoized.
    let on = CachedDht::with_capacity(ChordDht::<u64>::with_nodes(16, 5), 64);
    assert_eq!(script_cost(&on, true), bare);
    assert!(on.stats().cache_hits > 0);
}
