//! Multi-thread hammer regressions for the shared-state fast paths
//! real client threads lean on: the `DhtKey` ring-digest memo, the
//! global SHA-1 compression counter, and the `NamingCache` strict-LRU.
//!
//! These are the pieces a handle shared across OS threads exercises on
//! every operation; a lost update or a double-counted hash here would
//! silently skew every cost measurement taken under real concurrency.
//! Every test of this binary takes [`SHA1_COUNTER_GATE`], so the
//! global `sha1_compressions()` deltas are not polluted by siblings
//! running in parallel — which is also what lets the single-threaded
//! digest-free bounds at the end of the naming section assert an
//! exact zero.

use std::collections::HashMap;
use std::sync::Mutex;
use std::thread;

use lht::dht::gf256::ReedSolomon;
use lht::id::sha1_compressions;
use lht::{
    fragment_key, slot_key, ChordDht, Dht, DhtKey, DirectDht, ErasureConfig, ErasureDht, Fragment,
    KeyFraction, Label, LeafBucket, LhtConfig, LhtIndex, NamingCache, QuorumConfig, QuorumDht,
    Versioned, U160,
};

/// Headroom for SHA-1 work done concurrently by anything outside the
/// gate — tiny next to the phase sizes below, huge next to zero. The
/// other hammers hash more than this margin (the eviction hammer
/// alone re-hashes ~8,000 evicted labels), so they serialize with the
/// counter-measuring test via [`SHA1_COUNTER_GATE`] instead of
/// inflating the margin.
const POLLUTION_MARGIN: u64 = 5_000;

/// Serializes the tests that would otherwise pollute each other's
/// global `sha1_compressions()` windows (the quorum hammer mints a
/// fresh slot key — and a fresh digest — per replica contact; the
/// naming-cache hammers hash a label on every miss).
static SHA1_COUNTER_GATE: Mutex<()> = Mutex::new(());

#[test]
fn digest_memo_and_compression_counter_under_contention() {
    let _gate = SHA1_COUNTER_GATE.lock().unwrap_or_else(|e| e.into_inner());
    // Phase A: 4 threads race .hash() on the same 20k fresh keys.
    // The OnceLock memo must run SHA-1 once per key no matter how the
    // threads interleave — a broken memo would pay ~4x.
    let n = 20_000usize;
    let keys: Vec<DhtKey> = (0..n).map(|i| DhtKey::from(format!("memo:{i}"))).collect();
    let before = sha1_compressions();
    let digests: Vec<Vec<U160>> = thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let keys = &keys;
                s.spawn(move || keys.iter().map(|k| k.hash()).collect::<Vec<U160>>())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let delta_a = sha1_compressions() - before;
    assert!(
        delta_a >= n as u64,
        "each of {n} keys must be hashed at least once (saw {delta_a})"
    );
    assert!(
        delta_a < n as u64 + POLLUTION_MARGIN,
        "racing threads re-ran SHA-1 {delta_a} times for {n} keys — the digest memo lost updates"
    );
    // Every thread observed the same digest for every key (no torn or
    // divergent memo state).
    for other in &digests[1..] {
        assert_eq!(&digests[0], other, "threads disagree on memoized digests");
    }

    // Phase B: hammering the *same* keys again must be free — the
    // digests are memoized, so the counter barely moves.
    let before = sha1_compressions();
    thread::scope(|s| {
        for _ in 0..4 {
            let keys = &keys;
            s.spawn(move || {
                for k in keys {
                    let _ = k.hash();
                }
            });
        }
    });
    let delta_b = sha1_compressions() - before;
    assert!(
        delta_b < POLLUTION_MARGIN,
        "re-hashing memoized keys cost {delta_b} compressions — memo not consulted"
    );

    // Phase C: 4 threads hash disjoint fresh key sets. The counter
    // must observe every single compression exactly once — a lost
    // increment shows as < 4m, double counting as ~8m.
    let m = 5_000usize;
    let before = sha1_compressions();
    thread::scope(|s| {
        for t in 0..4 {
            s.spawn(move || {
                for i in 0..m {
                    let _ = DhtKey::from(format!("atomic:{t}:{i}")).hash();
                }
            });
        }
    });
    let delta_c = sha1_compressions() - before;
    assert!(
        delta_c >= (4 * m) as u64,
        "counter lost increments under contention: {delta_c} < {}",
        4 * m
    );
    assert!(
        delta_c < (4 * m) as u64 + POLLUTION_MARGIN,
        "counter double-counted under contention: {delta_c} for {} hashes",
        4 * m
    );
}

#[test]
fn naming_cache_stays_consistent_under_thread_hammer() {
    let _gate = SHA1_COUNTER_GATE.lock().unwrap_or_else(|e| e.into_inner());
    // 64 distinct labels, capacity ample: the only misses allowed are
    // the 64 first-touches, however 4 threads interleave. Resolution
    // correctness is checked against from-scratch rendering on every
    // single call.
    let labels: Vec<Label> = (0..64u32)
        .map(|i| format!("#0{i:06b}").parse().unwrap())
        .collect();
    let expected: Vec<DhtKey> = labels.iter().map(|l| l.dht_key()).collect();
    let cache = NamingCache::new(1024);
    let rounds = 2_000usize;
    thread::scope(|s| {
        for t in 0..4usize {
            let (cache, labels, expected) = (&cache, &labels, &expected);
            s.spawn(move || {
                for r in 0..rounds {
                    // Different traversal order per thread, so the LRU
                    // recency updates genuinely contend.
                    let i = (r * (t + 1) + t) % labels.len();
                    assert_eq!(
                        cache.resolve(&labels[i]),
                        expected[i],
                        "thread {t} got a wrong resolution for {}",
                        labels[i]
                    );
                }
            });
        }
    });
    let st = cache.stats();
    assert_eq!(
        st.hits + st.misses,
        (4 * rounds) as u64,
        "resolutions lost or double-counted under contention"
    );
    assert_eq!(
        st.misses,
        labels.len() as u64,
        "a label was re-hashed after first touch — the cache lost an update"
    );
    assert_eq!(st.len, labels.len() as u64);
    assert_eq!(st.evictions, 0, "nothing may be evicted below capacity");
}

#[test]
fn naming_cache_eviction_accounting_survives_contention() {
    let _gate = SHA1_COUNTER_GATE.lock().unwrap_or_else(|e| e.into_inner());
    // Over-capacity hammer: evictions must balance the books exactly
    // (misses - evictions = live entries) and the LRU structures must
    // never desynchronize, whatever order 4 threads interleave in.
    let labels: Vec<Label> = (0..256u32)
        .map(|i| format!("#0{i:08b}").parse().unwrap())
        .collect();
    let cache = NamingCache::new(32);
    thread::scope(|s| {
        for t in 0..4usize {
            let (cache, labels) = (&cache, &labels);
            s.spawn(move || {
                for r in 0..2_000usize {
                    let i = (r * 7 + t * 61) % labels.len();
                    let got = cache.resolve(&labels[i]);
                    assert_eq!(got, labels[i].dht_key());
                }
            });
        }
    });
    let st = cache.stats();
    assert_eq!(st.hits + st.misses, 8_000);
    assert_eq!(st.len, 32, "cache must sit exactly at capacity");
    assert_eq!(
        st.misses - st.evictions,
        st.len,
        "eviction accounting drifted under contention"
    );
}

/// The mid-point of the `i`-th of 64 equal cells of the key space.
fn cell_key(i: u32) -> KeyFraction {
    KeyFraction::from_f64((f64::from(i) + 0.5) / 64.0)
}

#[test]
fn steady_state_lookups_are_digest_free() {
    let _gate = SHA1_COUNTER_GATE.lock().unwrap_or_else(|e| e.into_inner());
    // Over a substrate that never routes, point lookups run **zero**
    // SHA-1 compressions. The index renders each probed label with
    // `Label::dht_key` and keeps no memo; a key's ring digest is
    // computed lazily by whichever layer routes it, and `DirectDht`
    // places keys by their bytes — so the process-global counter must
    // not move at all.
    let dht: DirectDht<LeafBucket<u32>> = DirectDht::new();
    let ix = LhtIndex::new(&dht, LhtConfig::new(4, 20)).unwrap();
    for i in 0..64 {
        ix.insert(cell_key(i), i).unwrap();
    }
    // A first pass over every key: there is no memo to warm, so the
    // passes after it hash exactly as much as this one — nothing.
    for i in 0..64 {
        assert_eq!(ix.exact_match(cell_key(i)).unwrap().value, Some(i));
    }
    let before = sha1_compressions();
    for _ in 0..10 {
        for i in 0..64 {
            assert_eq!(ix.exact_match(cell_key(i)).unwrap().value, Some(i));
        }
    }
    assert_eq!(
        sha1_compressions() - before,
        0,
        "640 lookups over Direct must run no SHA-1 compression"
    );
}

#[test]
fn dht_key_ordering_is_digest_free() {
    let _gate = SHA1_COUNTER_GATE.lock().unwrap_or_else(|e| e.into_inner());
    // Ordering `DhtKey`s is byte-only: sorting a batch (the location
    // cache orders its probes by key) never faults in ring digests.
    let mut keys: Vec<DhtKey> = (0..512)
        .map(|i| DhtKey::from(format!("#0{:09b}", i % 400)))
        .collect();
    let before = sha1_compressions();
    keys.sort();
    keys.dedup();
    assert!(keys.windows(2).all(|w| w[0] < w[1]));
    assert_eq!(
        sha1_compressions() - before,
        0,
        "sorting 512 keys must run no SHA-1 compression"
    );
}

#[test]
fn quorum_over_shared_ring_never_loses_newest_under_contention() {
    // 4 OS threads hammer one QuorumDht{n=3,r=2,w=2} over one shared
    // 8-peer Chord ring. Three contracts must survive any
    // interleaving:
    //   1. the value a key converges to is some thread's *last* write
    //      to it (the globally newest sequence number — read-repair
    //      and handoff flushes may only propagate it, never regress it);
    //   2. the layer's logical-op accounting is exact: one lookup per
    //      client op, none for maintenance;
    //   3. sync_all() drains every deferred handoff and a second pass
    //      over the quiescent store issues 0 writes.
    let _gate = SHA1_COUNTER_GATE.lock().unwrap_or_else(|e| e.into_inner());
    const THREADS: usize = 4;
    const ROUNDS: u32 = 600;
    const KEYS: u32 = 16;
    let key = |i: u32| DhtKey::from(format!("qh:{i}"));
    let encode = |t: u32, r: u32| t * 1_000_000 + r;

    let inner: ChordDht<Versioned<u32>> = ChordDht::with_nodes(8, 7);
    let quorum = QuorumDht::new(&inner, QuorumConfig::new(3, 2, 2));

    // Each thread returns its last-written value per key; the
    // per-layer seq clock orders every thread's writes, so the global
    // winner for a key is one of these THREADS candidates.
    let last_writes: Vec<HashMap<u32, u32>> = thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS as u32)
            .map(|t| {
                let quorum = &quorum;
                s.spawn(move || {
                    let mut last = HashMap::new();
                    for r in 0..ROUNDS {
                        let k = (r.wrapping_mul(7) + t) % KEYS;
                        let v = encode(t, r);
                        quorum.put(&key(k), v).expect("perfect network put");
                        last.insert(k, v);
                        let probe = (r + t + 1) % KEYS;
                        if let Some(got) = quorum.get(&key(probe)).expect("perfect network get") {
                            // No torn value may ever surface: whatever
                            // interleaving served this read, the bytes
                            // decode back to a (thread, round) stamp.
                            assert!(
                                got / 1_000_000 < THREADS as u32 && got % 1_000_000 < ROUNDS,
                                "garbage value {got} read under contention"
                            );
                        }
                    }
                    last
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Contract 2: exactly one logical lookup per client op — the
    // hammer issued THREADS × ROUNDS puts and as many gets, and none
    // may be lost or double-minted however the threads contended.
    let hammer_ops = (THREADS as u64) * (ROUNDS as u64) * 2;
    let st = quorum.stats();
    assert_eq!(
        st.lookups(),
        hammer_ops,
        "quorum layer lost or double-counted logical ops under contention"
    );
    st.check_invariants().expect("stats contract after hammer");

    // Contract 3: with w < n every put deferred a slot, so the sweep
    // has real work; afterwards the store is quiescent and a second
    // full pass must be a no-op. Maintenance mints no lookups.
    quorum.sync_all();
    assert_eq!(
        quorum.pending_handoffs(),
        0,
        "sync_all left handoffs behind"
    );
    assert_eq!(
        quorum.sync_all(),
        0,
        "second sync_all pass over a quiescent store must issue 0 writes"
    );
    let st = quorum.stats();
    assert_eq!(
        st.lookups(),
        hammer_ops,
        "maintenance must never mint logical lookups"
    );
    assert!(
        st.repair_transfers > 0,
        "deferred handoffs must be charged as repair traffic"
    );
    st.check_invariants()
        .expect("stats contract after sync_all");

    // Contract 1: every key converged to some thread's last write,
    // every rotated read quorum agrees, and all 3 raw replica slots
    // hold the identical newest envelope.
    for k in 0..KEYS {
        let reads: Vec<Option<u32>> = (0..3)
            .map(|_| quorum.get(&key(k)).expect("perfect network get"))
            .collect();
        assert!(
            reads.windows(2).all(|w| w[0] == w[1]),
            "rotated read quorums disagree on key {k}: {reads:?}"
        );
        let winner = reads[0].expect("every key was written");
        assert!(
            last_writes.iter().any(|m| m.get(&k) == Some(&winner)),
            "key {k} converged to {winner}, which is no thread's last write — \
             read-repair lost the seq-newest value"
        );
        let slots: Vec<Option<Versioned<u32>>> = (0..3)
            .map(|s| inner.get(&slot_key(&key(k), s)).expect("raw slot read"))
            .collect();
        assert!(
            slots.windows(2).all(|w| w[0] == w[1]),
            "replica slots diverge for key {k} after sync_all: {slots:?}"
        );
    }
    let st = quorum.stats();
    assert_eq!(
        st.lookups(),
        hammer_ops + (KEYS as u64) * 3,
        "final verification reads must mint exactly one lookup each"
    );
}

#[test]
fn erasure_over_shared_ring_never_loses_newest_under_contention() {
    // The coded sibling of the quorum hammer: 4 OS threads hammer one
    // ErasureDht{k=2,m=4} over one shared 8-peer Chord ring.
    // The same three contracts, restated for fragment groups:
    //   1. the value a key converges to is some thread's *last* write
    //      (the newest generation — read-repair and regeneration may
    //      only complete it, never resurrect an older one);
    //   2. logical-op accounting is exact: one lookup per client op,
    //      none for maintenance;
    //   3. after sync_all() the raw fragment store is consistent —
    //      all m slots of every key hold the SAME newest generation
    //      and any k of them decode back to the converged value.
    let _gate = SHA1_COUNTER_GATE.lock().unwrap_or_else(|e| e.into_inner());
    const THREADS: usize = 4;
    const ROUNDS: u32 = 600;
    const KEYS: u32 = 16;
    const K: usize = 2;
    const M: usize = 4;
    let key = |i: u32| DhtKey::from(format!("eh:{i}"));
    let encode = |t: u32, r: u32| t * 1_000_000 + r;

    let inner: ChordDht<Fragment> = ChordDht::with_nodes(8, 7);
    let coded: ErasureDht<_, u32> = ErasureDht::new(&inner, ErasureConfig::new(K, M));

    let last_writes: Vec<HashMap<u32, u32>> = thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS as u32)
            .map(|t| {
                let coded = &coded;
                s.spawn(move || {
                    let mut last = HashMap::new();
                    for r in 0..ROUNDS {
                        let k = (r.wrapping_mul(7) + t) % KEYS;
                        let v = encode(t, r);
                        coded.put(&key(k), v).expect("perfect network put");
                        last.insert(k, v);
                        let probe = (r + t + 1) % KEYS;
                        if let Some(got) = coded.get(&key(probe)).expect("perfect network get") {
                            // Whatever fragments this read gathered,
                            // they decoded to a coherent (thread,
                            // round) stamp — never a cross-generation
                            // splice.
                            assert!(
                                got / 1_000_000 < THREADS as u32 && got % 1_000_000 < ROUNDS,
                                "garbage value {got} decoded under contention"
                            );
                        }
                    }
                    last
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Contract 2: exactly one logical lookup per client op.
    let hammer_ops = (THREADS as u64) * (ROUNDS as u64) * 2;
    let st = coded.stats();
    assert_eq!(
        st.lookups(),
        hammer_ops,
        "erasure layer lost or double-counted logical ops under contention"
    );
    st.check_invariants().expect("stats contract after hammer");

    // Contract 3 setup: writes ack at k+1 of m installs, so deferred
    // fragment handoffs are guaranteed work for the sweep; afterwards
    // the store is quiescent and a second pass must write nothing.
    coded.sync_all();
    assert_eq!(
        coded.pending_handoffs(),
        0,
        "sync_all left fragment handoffs behind"
    );
    assert_eq!(
        coded.sync_all(),
        0,
        "second sync_all pass over a quiescent store must issue 0 writes"
    );
    let st = coded.stats();
    assert_eq!(
        st.lookups(),
        hammer_ops,
        "maintenance must never mint logical lookups"
    );
    assert!(
        st.repair_transfers > 0,
        "deferred fragment handoffs must be charged as repair traffic"
    );
    st.check_invariants()
        .expect("stats contract after sync_all");

    // Contracts 1 + 3: every key converged to some thread's last
    // write, every rotated gather agrees, and the raw fragment slots
    // all carry the identical newest generation — any k of which
    // decode back to the winner.
    let rs = ReedSolomon::new(K, M);
    for k in 0..KEYS {
        let reads: Vec<Option<u32>> = (0..M)
            .map(|_| coded.get(&key(k)).expect("perfect network get"))
            .collect();
        assert!(
            reads.windows(2).all(|w| w[0] == w[1]),
            "rotated gathers disagree on key {k}: {reads:?}"
        );
        let winner = reads[0].expect("every key was written");
        assert!(
            last_writes.iter().any(|m| m.get(&k) == Some(&winner)),
            "key {k} converged to {winner}, which is no thread's last write — \
             repair resurrected a stale generation"
        );
        let fragments: Vec<Fragment> = (0..M)
            .map(|s| {
                inner
                    .get(&fragment_key(&key(k), s))
                    .expect("raw fragment read")
                    .unwrap_or_else(|| panic!("fragment slot {s} of key {k} empty after sync_all"))
            })
            .collect();
        assert!(
            fragments.windows(2).all(|w| w[0].seq == w[1].seq),
            "fragment slots hold mixed generations for key {k} after sync_all: {:?}",
            fragments.iter().map(|f| f.seq).collect::<Vec<_>>()
        );
        assert!(
            fragments.iter().all(|f| !f.tomb),
            "a live key's group carries a tombstone fragment"
        );
        // Decode from the LAST k slots — exactly the fragments a
        // degraded read would lean on — and require the winner back.
        let shards: Vec<(usize, Vec<u8>)> = fragments
            .iter()
            .enumerate()
            .skip(M - K)
            .map(|(i, f)| (i, f.data.clone()))
            .collect();
        let len = fragments[0].len as usize;
        let bytes = rs
            .reconstruct(&shards, len)
            .expect("k surviving fragments must reconstruct");
        assert_eq!(
            bytes,
            winner.to_le_bytes().to_vec(),
            "raw fragments of key {k} decode to a different value than the converged read"
        );
    }
    let st = coded.stats();
    assert_eq!(
        st.lookups(),
        hammer_ops + (KEYS as u64) * (M as u64),
        "final verification reads must mint exactly one lookup each"
    );
}
