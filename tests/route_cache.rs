//! Property suite for the location cache: `CachedDht` must be
//! *answer-invisible* on every substrate — a cached stack returns
//! exactly what the uncached substrate returns, whether ops go through
//! the single-op or the batch interface — while its stats obey the
//! accounting contract (rounds ≤ lookups, round hops ≤ hops, one cache
//! consult per logical op, and `hops_saved` never exceeding what an
//! uncached twin actually paid).
//!
//! Composition order is part of the contract: the cache is the
//! *outermost* layer of the production stack
//! `CachedDht<RetriedDht<FaultyDht<ChordDht>>>`. Outermost means the
//! cache is consulted once per logical operation and sees only settled
//! outcomes — retries multiply RPC *attempts* underneath it, never
//! cache consults, and a probe RPC lost to the network is itself
//! retried before the cache ever concludes anything. Were the cache
//! nested inside the retry layer, every retry attempt would re-consult
//! (and re-pollute) it with per-attempt noise.

use proptest::prelude::*;

use lht::{
    CachedDht, ChordDht, Dht, DhtKey, DirectDht, FaultyDht, KademliaDht, NetProfile, QuorumConfig,
    QuorumDht, RetriedDht, RetryPolicy,
};

/// Keys collide on purpose (16 slots) so workloads revisit keys and
/// the cache actually gets hit.
fn key(slot: u8) -> DhtKey {
    DhtKey::from(format!("k{}", slot % 16))
}

fn put_entries(puts: &[(u8, u32)]) -> Vec<(DhtKey, u32)> {
    puts.iter().map(|&(s, v)| (key(s), v)).collect()
}

fn get_keys(gets: &[u8]) -> Vec<DhtKey> {
    gets.iter().map(|&s| key(s)).collect()
}

/// Drives a cached substrate and an identically-seeded uncached twin
/// through the same single-op trace and proves the transcripts match.
/// Returns the number of logical keyed operations issued.
fn assert_cached_matches_uncached<C, U>(
    cached: &C,
    uncached: &U,
    puts: &[(u8, u32)],
    gets: &[u8],
) -> u64
where
    C: Dht<Value = u32>,
    U: Dht<Value = u32>,
{
    let mut ops = 0u64;
    for (k, v) in put_entries(puts) {
        let c = cached.put(&k, v);
        let u = uncached.put(&k, v);
        assert_eq!(format!("{c:?}"), format!("{u:?}"), "put transcript");
        ops += 2;
    }
    // Two passes so the second pass runs against a warm cache: pass 1
    // is all misses (full routes that learn owners), pass 2 is probes.
    for _ in 0..2 {
        for k in get_keys(gets) {
            let c = cached.get(&k);
            let u = uncached.get(&k);
            assert_eq!(format!("{c:?}"), format!("{u:?}"), "get transcript");
            ops += 2;
        }
    }
    ops
}

/// Drives a mixed single-op and batch script through `dht`, holding
/// the hop counter the cache diffs around every call to the ledger it
/// abbreviates: `hops()` is `stats().hops`, on every layer.
fn assert_hops_is_the_ledgers_hop_count<D: Dht<Value = u32>>(dht: &D, what: &str) {
    let check = |step: &str| assert_eq!(dht.hops(), dht.stats().hops, "{what}: after {step}");
    check("nothing");
    for slot in 0u8..12 {
        let _ = dht.put(&key(slot), slot as u32);
        check("put");
    }
    for slot in 0u8..16 {
        let _ = dht.get(&key(slot));
        check("get");
    }
    let _ = dht.multi_put(put_entries(&[(1, 10), (2, 20), (13, 30)]));
    check("multi_put");
    let _ = dht.multi_get(&get_keys(&[0, 1, 2, 3, 14, 15]));
    check("multi_get");
    let _ = dht.update(&key(3), &mut |slot| *slot = slot.map(|v| v + 1));
    check("update");
    let _ = dht.remove(&key(4));
    check("remove");
    dht.reset_stats();
    check("reset_stats");
    let _ = dht.get(&key(5));
    check("get after reset");
}

#[test]
fn hops_reads_the_same_counter_as_stats_on_every_layer() {
    let chord: ChordDht<u32> = ChordDht::with_nodes(32, 0x40b5);
    assert_hops_is_the_ledgers_hop_count(&chord, "ChordDht");
    assert!(chord.hops() > 0, "the script routes");
    assert_hops_is_the_ledgers_hop_count(&DirectDht::<u32>::new(), "DirectDht");
    let kad: KademliaDht<u32> = KademliaDht::with_nodes(16, 0x40b5);
    assert_hops_is_the_ledgers_hop_count(&kad, "KademliaDht");
    assert_hops_is_the_ledgers_hop_count(&&chord, "&ChordDht");
    let shared = std::sync::Arc::new(ChordDht::<u32>::with_nodes(32, 0x40b6));
    assert_hops_is_the_ledgers_hop_count(&shared, "Arc<ChordDht>");
    assert_hops_is_the_ledgers_hop_count(
        &CachedDht::with_capacity(&chord, 8),
        "CachedDht<&ChordDht>",
    );

    let ring = ChordDht::with_nodes(32, 0x40b7);
    let tower = CachedDht::with_capacity(
        RetriedDht::new(
            FaultyDht::new(
                QuorumDht::new(&ring, QuorumConfig::new(3, 2, 2)),
                NetProfile::lossy(0x40b8, 0.10),
            ),
            RetryPolicy::default(),
        ),
        8,
    );
    assert_hops_is_the_ledgers_hop_count(&tower, "Cached<Retried<Faulty<Quorum<&Chord>>>>");
    assert!(
        tower.hops() > 0,
        "the tower's hops are the replicas' routes"
    );
}

/// The production stack from DESIGN §3.9, end to end: cache above
/// retry above a 10%-lossy network above a real Chord ring. Answers
/// must match a reference map exactly, the cache must actually serve
/// probes, and the fault/retry layers must actually fire underneath.
#[test]
fn production_stack_serves_correct_answers_through_loss() {
    let stack = CachedDht::with_capacity(
        RetriedDht::new(
            FaultyDht::new(
                ChordDht::<u32>::with_nodes(16, 0xcafe),
                NetProfile::lossy(0xbad5eed, 0.10),
            ),
            RetryPolicy::default(),
        ),
        64,
    );

    // Cold get pre-pass: routes every key once so the cache learns
    // per-key *read* costs. Saved hops are priced per op kind, so a
    // later read hit only credits hops if a read actually routed.
    for slot in 0u8..16 {
        assert_eq!(stack.get(&key(slot)).expect("get settles"), None);
    }

    let mut reference = std::collections::HashMap::new();
    for slot in 0u8..16 {
        stack
            .put(&key(slot), slot as u32 * 10)
            .expect("put settles");
        reference.insert(slot, slot as u32 * 10);
    }
    for round in 0..4 {
        for slot in 0u8..16 {
            let got = stack.get(&key(slot)).expect("get settles");
            assert_eq!(
                got,
                reference.get(&slot).copied(),
                "round {round} slot {slot}: cached stack answered wrong"
            );
        }
    }

    let st = stack.stats();
    assert!(st.cache_hits > 0, "warm passes must probe, not route");
    assert!(st.hops_saved > 0, "served probes must credit saved hops");
    assert!(
        st.drops + st.timeouts > 0,
        "10% loss injected but nothing was dropped — fault layer inert"
    );
    assert!(st.retries > 0, "drops happened but nothing retried");
    assert!(st.rounds <= st.lookups(), "rounds bounded by lookups");
    assert!(st.round_hops <= st.hops, "round hops bounded by hops");
}

/// Composition order, observable in the counters: with the cache
/// outermost, retries multiply RPC attempts but never cache consults —
/// each logical keyed op consults the cache at most once, so the
/// consult total is bounded by the op count even when the network is
/// dropping every tenth attempt.
#[test]
fn cache_outermost_consults_once_per_logical_op() {
    let stack = CachedDht::with_capacity(
        RetriedDht::new(
            FaultyDht::new(
                ChordDht::<u32>::with_nodes(16, 7),
                NetProfile::lossy(0x10551, 0.10),
            ),
            RetryPolicy::default(),
        ),
        64,
    );

    let mut ops = 0u64;
    for slot in 0u8..16 {
        stack.put(&key(slot), slot as u32).expect("put settles");
        ops += 1;
    }
    for _ in 0..8 {
        for slot in 0u8..16 {
            stack.get(&key(slot)).expect("get settles");
            ops += 1;
        }
    }

    let st = stack.stats();
    assert!(st.retries > 0, "loss must force retries beneath the cache");
    assert!(
        st.cache_hits + st.cache_misses + st.cache_stale <= ops,
        "cache consulted more than once per logical op ({} + {} + {} > {ops}) — \
         the cache must sit above the retry layer, not below it",
        st.cache_hits,
        st.cache_misses,
        st.cache_stale
    );
    assert!(st.cache_hits > 0, "repeat gets must hit the warm cache");
}

/// On the one-hop `DirectDht` there are no owners to remember
/// (`owner_hint` is `None`), so the cache layer must be fully
/// transparent: identical transcripts, nothing cached, every counter
/// zero.
#[test]
fn cache_is_transparent_over_direct() {
    let cached = CachedDht::with_capacity(DirectDht::<u32>::new(), 64);
    let plain = DirectDht::<u32>::new();

    let puts: Vec<(u8, u32)> = (0u8..24).map(|s| (s, s as u32 * 3)).collect();
    let gets: Vec<u8> = (0u8..48).collect();
    assert_cached_matches_uncached(&cached, &plain, &puts, &gets);

    let st = cached.stats();
    assert_eq!(st.cache_hits, 0, "nothing to probe on a one-hop DHT");
    assert_eq!(st.cache_misses, 0, "misses count only where owners exist");
    assert_eq!(st.cache_stale, 0);
    assert_eq!(st.hops_saved, 0);
    assert!(cached.is_empty(), "no owner hints means nothing to learn");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Chord: a cached ring answers byte-for-byte like an identically
    /// seeded uncached ring, cold and warm, and its stats obey the
    /// accounting contract. `hops_saved` is the cache's estimate of
    /// avoided routing work — it must never exceed the hops the
    /// uncached twin *actually* paid for the same trace.
    #[test]
    fn chord_cached_matches_uncached(
        puts in proptest::collection::vec((any::<u8>(), any::<u32>()), 1..32),
        gets in proptest::collection::vec(any::<u8>(), 8..48),
        ring_seed in any::<u64>(),
        nodes in 4usize..12,
    ) {
        let cached = CachedDht::with_capacity(
            ChordDht::<u32>::with_nodes(nodes, ring_seed), 64);
        let plain: ChordDht<u32> = ChordDht::with_nodes(nodes, ring_seed);

        let ops = assert_cached_matches_uncached(&cached, &plain, &puts, &gets) / 2;

        let st = cached.stats();
        prop_assert!(st.rounds <= st.lookups());
        prop_assert!(st.round_hops <= st.hops);
        prop_assert!(st.cache_hits + st.cache_misses + st.cache_stale <= ops);
        prop_assert!(st.cache_hits > 0, "warm pass over a stable ring must hit");
        prop_assert_eq!(st.cache_stale, 0, "no churn, no staleness");
        let uncached_estimate = plain.stats().hops;
        prop_assert!(
            st.hops_saved <= uncached_estimate,
            "claimed to save {} hops but the uncached twin only paid {}",
            st.hops_saved, uncached_estimate
        );
        let rate = st.hit_rate();
        prop_assert!((0.0..=1.0).contains(&rate), "hit rate {} out of range", rate);
    }

    /// Chord batches: `multi_get`/`multi_put` through the cache split
    /// into probe and route sub-batches, but the merged results must
    /// equal the uncached sequential loop, and the split must keep the
    /// round invariants.
    #[test]
    fn chord_cached_batches_match_uncached_sequential(
        puts in proptest::collection::vec((any::<u8>(), any::<u32>()), 1..32),
        gets in proptest::collection::vec(any::<u8>(), 1..48),
        ring_seed in any::<u64>(),
        nodes in 4usize..12,
    ) {
        let cached = CachedDht::with_capacity(
            ChordDht::<u32>::with_nodes(nodes, ring_seed), 64);
        let plain: ChordDht<u32> = ChordDht::with_nodes(nodes, ring_seed);

        let c_puts = cached.multi_put(put_entries(&puts));
        let mut p_puts = Vec::new();
        for (k, v) in put_entries(&puts) {
            p_puts.push(plain.put(&k, v));
        }
        prop_assert_eq!(format!("{:?}", c_puts), format!("{:?}", p_puts));

        // Twice: the first batch warms the cache, the second splits
        // into a probe sub-batch plus a route sub-batch.
        for _ in 0..2 {
            let c_gets = cached.multi_get(&get_keys(&gets));
            let p_gets: Vec<_> = get_keys(&gets).iter().map(|k| plain.get(k)).collect();
            prop_assert_eq!(format!("{:?}", c_gets), format!("{:?}", p_gets));
        }

        let st = cached.stats();
        prop_assert!(st.rounds <= st.lookups(), "rounds bounded by lookups");
        prop_assert!(st.round_hops <= st.hops, "round hops bounded by hops");
        prop_assert!(st.hops_saved <= plain.stats().hops);
    }

    /// Kademlia: same answer contract over the XOR-metric substrate —
    /// cached answers equal uncached answers on both interfaces. The
    /// twin bound on `hops_saved` holds here too: hits are priced at
    /// the *same-kind* learned route cost (reads at read cost, writes
    /// at write cost), so Kademlia's expensive replica-fan-out puts can
    /// no longer inflate the credit for avoided cheap gets.
    #[test]
    fn kad_cached_matches_uncached(
        puts in proptest::collection::vec((any::<u8>(), any::<u32>()), 1..32),
        gets in proptest::collection::vec(any::<u8>(), 1..48),
        net_seed in any::<u64>(),
    ) {
        let cached = CachedDht::with_capacity(
            KademliaDht::<u32>::with_nodes(16, net_seed), 64);
        let plain: KademliaDht<u32> = KademliaDht::with_nodes(16, net_seed);

        let c_puts = cached.multi_put(put_entries(&puts));
        let mut p_puts = Vec::new();
        for (k, v) in put_entries(&puts) {
            p_puts.push(plain.put(&k, v));
        }
        prop_assert_eq!(format!("{:?}", c_puts), format!("{:?}", p_puts));

        for _ in 0..2 {
            let c_gets = cached.multi_get(&get_keys(&gets));
            let p_gets: Vec<_> = get_keys(&gets).iter().map(|k| plain.get(k)).collect();
            prop_assert_eq!(format!("{:?}", c_gets), format!("{:?}", p_gets));
            for k in get_keys(&gets) {
                let c = cached.get(&k);
                let p = plain.get(&k);
                prop_assert_eq!(format!("{:?}", c), format!("{:?}", p));
            }
        }

        let st = cached.stats();
        prop_assert!(st.rounds <= st.lookups());
        prop_assert!(st.round_hops <= st.hops);
        let uncached_estimate = plain.stats().hops;
        prop_assert!(
            st.hops_saved <= uncached_estimate,
            "claimed to save {} hops but the uncached twin only paid {}",
            st.hops_saved, uncached_estimate
        );
        let rate = st.hit_rate();
        prop_assert!((0.0..=1.0).contains(&rate), "hit rate {} out of range", rate);
    }
}
