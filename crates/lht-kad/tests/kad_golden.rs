//! Frozen witness for the Kademlia substrate: one seeded workload
//! driven through a bare `KademliaDht` and one through a
//! `CachedDht` over it, with the whole `DhtStats` and a digest of
//! every answer pinned to literals. The workload touches every
//! operation body — routed put/get/update/remove, `multi_get` and
//! `multi_put` rounds, and single probes at the hinted owner, at a
//! live node that does not own the key, and at an id that names no
//! node — so a change to how any of them routes, draws its
//! initiator or charges its hops moves a literal below.

use lht_dht::{CachedDht, Dht, DhtKey};
use lht_id::sha1;
use lht_kad::KademliaDht;

const NODES: usize = 64;
const SEED: u64 = 0x6b61_6421;
const KEYS: u32 = 160;

/// FNV-1a, 64-bit, over the `Debug` text of every answer.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
    fn answer(&mut self, answer: impl std::fmt::Debug) {
        for b in format!("{answer:?};").bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn key(i: u32) -> DhtKey {
    DhtKey::from(format!("pin:{i}").as_str())
}

/// Routed single ops and rounds: the part of the workload both
/// stacks run.
fn routed_workload<D: Dht<Value = u32>>(dht: &D, digest: &mut Digest) {
    for i in 0..KEYS {
        digest.answer(dht.put(&key(i), i));
    }
    for i in 0..KEYS + 40 {
        digest.answer(dht.get(&key(i)));
    }
    for i in (0..KEYS + 20).step_by(3) {
        digest.answer(dht.update(&key(i), &mut |slot| {
            *slot = match *slot {
                Some(v) if v % 2 == 0 => None,
                Some(v) => Some(v + 1_000),
                None => Some(7),
            }
        }));
    }
    for i in (0..KEYS + 20).step_by(7) {
        digest.answer(dht.remove(&key(i)));
    }
    let keys: Vec<DhtKey> = (0..KEYS + 40).map(key).collect();
    for round in keys.chunks(16) {
        digest.answer(dht.multi_get(round));
    }
    let entries: Vec<(DhtKey, u32)> = (KEYS..KEYS + 24).map(|i| (key(i), i)).collect();
    digest.answer(dht.multi_put(entries));
    for i in 0..KEYS + 40 {
        digest.answer(dht.get(&key(i)));
    }
}

#[test]
fn bare_kademlia_stats_are_frozen() {
    let dht: KademliaDht<u32> = KademliaDht::with_nodes(NODES, SEED);
    let mut digest = Digest::new();
    routed_workload(&dht, &mut digest);
    let ids = dht.node_ids();
    let nowhere = sha1(b"pin:no-such-node");
    for i in 0..KEYS + 40 {
        let k = key(i);
        let owner = dht.owner_hint(&k).expect("Kademlia names an owner");
        let wrong = ids[i as usize % ids.len()];
        let wrong = if wrong == owner {
            ids[(i as usize + 1) % ids.len()]
        } else {
            wrong
        };
        digest.answer(dht.probe_get(&k, owner));
        digest.answer(dht.probe_get(&k, wrong));
        digest.answer(dht.probe_get(&k, nowhere));
        if i % 4 == 0 {
            digest.answer(dht.probe_put(&k, i + 5_000, owner));
            digest.answer(dht.probe_put(&k, i + 6_000, wrong));
            digest.answer(dht.probe_put(&k, i + 7_000, nowhere));
        }
    }
    for i in 0..KEYS + 40 {
        digest.answer(dht.get(&key(i)));
    }
    assert_eq!(
        (format!("{:?}", dht.stats()), digest.0),
        (
            "DhtStats { gets: 1000, failed_gets: 285, puts: 234, removes: 26, updates: 60, hops: 13844, keys_transferred: 0, drops: 0, timeouts: 0, retries: 0, latency_ms: 0, rounds: 1110, round_hops: 11094, round_latency_ms: 0, cache_hits: 0, cache_misses: 0, cache_stale: 0, hops_saved: 0, repair_transfers: 0, repair_bandwidth: 0 }".to_string(),
            15_029_444_690_056_048_310,
        ),
        "bare Kademlia drifted"
    );
}

#[test]
fn cached_kademlia_stats_are_frozen() {
    let dht = CachedDht::with_capacity(KademliaDht::<u32>::with_nodes(NODES, SEED), 256);
    let mut digest = Digest::new();
    routed_workload(&dht, &mut digest);
    routed_workload(&dht, &mut digest);
    assert_eq!(
        (format!("{:?}", dht.stats()), digest.0),
        (
            "DhtStats { gets: 1200, failed_gets: 328, puts: 368, removes: 52, updates: 120, hops: 8881, keys_transferred: 0, drops: 0, timeouts: 0, retries: 0, latency_ms: 0, rounds: 1320, round_hops: 8139, round_latency_ms: 0, cache_hits: 1368, cache_misses: 200, cache_stale: 0, hops_saved: 3250, repair_transfers: 0, repair_bandwidth: 0 }".to_string(),
            10_956_253_077_482_467_251,
        ),
        "cached Kademlia drifted"
    );
}
