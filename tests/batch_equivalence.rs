//! Property suite for batched round execution: `multi_get` /
//! `multi_put` must be *result-identical* to their sequential loops on
//! every substrate — including through the fault/retry stack — while
//! never charging more rounds than lookups. Batching is a wall-clock
//! optimization; it must never be observable in the data.

use proptest::prelude::*;

use lht::{
    CachedDht, ChordDht, Dht, DhtKey, DirectDht, FaultyDht, KademliaDht, NetProfile, RetriedDht,
    RetryPolicy,
};

/// Keys collide on purpose (32 slots) so batches contain duplicates,
/// overwrites and absent keys.
fn key(slot: u8) -> DhtKey {
    DhtKey::from(format!("k{}", slot % 32))
}

fn put_entries(puts: &[(u8, u32)]) -> Vec<(DhtKey, u32)> {
    puts.iter().map(|&(s, v)| (key(s), v)).collect()
}

fn get_keys(gets: &[u8]) -> Vec<DhtKey> {
    gets.iter().map(|&s| key(s)).collect()
}

/// Drives one substrate twice — once through the batch interface and
/// once op by op — and proves the transcripts match.
fn assert_batch_matches_sequential<B, S>(batched: B, sequential: S, puts: &[(u8, u32)], gets: &[u8])
where
    B: Dht<Value = u32>,
    S: Dht<Value = u32>,
{
    let b_puts = batched.multi_put(put_entries(puts));
    let mut s_puts = Vec::new();
    for (k, v) in put_entries(puts) {
        s_puts.push(sequential.put(&k, v));
    }
    assert_eq!(format!("{b_puts:?}"), format!("{s_puts:?}"), "put results");

    let b_gets = batched.multi_get(&get_keys(gets));
    let s_gets: Vec<_> = get_keys(gets).iter().map(|k| sequential.get(k)).collect();
    assert_eq!(format!("{b_gets:?}"), format!("{s_gets:?}"), "get results");

    let b = batched.stats();
    let s = sequential.stats();
    assert_eq!(b.lookups(), s.lookups(), "batching must not add lookups");
    assert!(b.rounds <= b.lookups(), "rounds bounded by lookups");
    assert!(b.round_hops <= b.hops, "round hops bounded by total hops");
    assert_eq!(s.rounds, s.lookups(), "sequential ops are one round apiece");
}

/// `base` under the first `depth` client-side layers of the production
/// tower, innermost first: bare, `FaultyDht`, `RetriedDht<FaultyDht>`,
/// `CachedDht<RetriedDht<FaultyDht>>`, over a 20%-lossy network.
fn client_stack<'a>(
    base: impl Dht<Value = u32> + 'a,
    depth: u8,
    net_seed: u64,
) -> Box<dyn Dht<Value = u32> + 'a> {
    let faulty = |base| FaultyDht::new(base, NetProfile::lossy(net_seed, 0.20));
    match depth {
        0 => Box::new(base),
        1 => Box::new(faulty(base)),
        2 => Box::new(RetriedDht::new(faulty(base), RetryPolicy::default())),
        _ => Box::new(CachedDht::with_capacity(
            RetriedDht::new(faulty(base), RetryPolicy::default()),
            8,
        )),
    }
}

/// The only result of a one-element round.
fn only<T>(mut round: Vec<T>) -> T {
    assert_eq!(round.len(), 1, "one result per op");
    round.pop().expect("one result")
}

/// Drives twin stacks through `script` — `single` through `get` / `put`
/// / `probe_get` / `probe_put`, `round` through the one-element batch
/// form of each — and holds answers and whole ledgers equal after every
/// step. Probes aim at the owner `owner_hint` names for the hint slot's
/// key, so they are served when the two slots share an owner and stale
/// otherwise.
///
/// With `routed_rounds` false, `round` issues `get` / `put` as single
/// ops too. Over a fault layer a one-element *routed* round is not the
/// single op: a dropped round still delivers its empty admitted subset,
/// and an empty Chord or Kademlia round draws an initiator, so the
/// twins' initiator streams part. An empty probe round draws nothing.
fn assert_one_element_round_is_the_single_op(
    single: &dyn Dht<Value = u32>,
    round: &dyn Dht<Value = u32>,
    script: &[(u8, u8, u8, u32)],
    routed_rounds: bool,
) -> Result<(), String> {
    for (step, &(op, slot, hint, value)) in script.iter().enumerate() {
        let k = DhtKey::from(format!("k{}", slot % 16));
        let hint_key = DhtKey::from(format!("k{}", hint % 16));
        let owner = single.owner_hint(&hint_key).expect("rings name owners");
        prop_assert_eq!(Some(owner), round.owner_hint(&hint_key), "step {}", step);
        let (a, b) = match op {
            0 if !routed_rounds => (
                format!("{:?}", single.get(&k)),
                format!("{:?}", round.get(&k)),
            ),
            1 if !routed_rounds => (
                format!("{:?}", single.put(&k, value)),
                format!("{:?}", round.put(&k, value)),
            ),
            0 => (
                format!("{:?}", single.get(&k)),
                format!("{:?}", only(round.multi_get(std::slice::from_ref(&k)))),
            ),
            1 => (
                format!("{:?}", single.put(&k, value)),
                format!("{:?}", only(round.multi_put(vec![(k.clone(), value)]))),
            ),
            2 => (
                format!("{:?}", single.probe_get(&k, owner)),
                format!("{:?}", only(round.probe_multi_get(&[(k.clone(), owner)]))),
            ),
            _ => (
                format!("{:?}", single.probe_put(&k, value, owner)),
                format!(
                    "{:?}",
                    only(round.probe_multi_put(vec![(k.clone(), value, owner)]))
                ),
            ),
        };
        prop_assert_eq!(a, b, "step {}: answers", step);
        prop_assert_eq!(single.stats(), round.stats(), "step {}: ledgers", step);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// DirectDht: the native batch is byte-identical to the loop.
    #[test]
    fn direct_batches_match_sequential(
        puts in proptest::collection::vec((any::<u8>(), any::<u32>()), 1..64),
        gets in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        assert_batch_matches_sequential(
            DirectDht::<u32>::new(),
            DirectDht::<u32>::new(),
            &puts,
            &gets,
        );
    }

    /// ChordDht: identical rings, identical answers. The shared
    /// initiator draw may change *which* node starts each route, so
    /// only results (not hop counts) are compared.
    #[test]
    fn chord_batches_match_sequential(
        puts in proptest::collection::vec((any::<u8>(), any::<u32>()), 1..48),
        gets in proptest::collection::vec(any::<u8>(), 1..48),
        ring_seed in any::<u64>(),
        nodes in 1usize..12,
    ) {
        let batched: ChordDht<u32> = ChordDht::with_nodes(nodes, ring_seed);
        let sequential: ChordDht<u32> = ChordDht::with_nodes(nodes, ring_seed);

        let b_puts = batched.multi_put(put_entries(&puts));
        let mut s_puts = Vec::new();
        for (k, v) in put_entries(&puts) {
            s_puts.push(sequential.put(&k, v));
        }
        prop_assert_eq!(format!("{:?}", b_puts), format!("{:?}", s_puts));

        let b_gets = batched.multi_get(&get_keys(&gets));
        let s_gets: Vec<_> = get_keys(&gets).iter().map(|k| sequential.get(k)).collect();
        prop_assert_eq!(format!("{:?}", b_gets), format!("{:?}", s_gets));

        let st = batched.stats();
        prop_assert!(st.rounds <= st.lookups());
        prop_assert!(st.round_hops <= st.hops);
        prop_assert!(st.round_latency_ms <= st.latency_ms);
    }

    /// Kademlia: same store, batched reads equal sequential reads.
    #[test]
    fn kad_batches_match_sequential(
        puts in proptest::collection::vec((any::<u8>(), any::<u32>()), 1..48),
        gets in proptest::collection::vec(any::<u8>(), 1..48),
        net_seed in any::<u64>(),
    ) {
        let batched: KademliaDht<u32> = KademliaDht::with_nodes(16, net_seed);
        let sequential: KademliaDht<u32> = KademliaDht::with_nodes(16, net_seed);

        let b_puts = batched.multi_put(put_entries(&puts));
        let mut s_puts = Vec::new();
        for (k, v) in put_entries(&puts) {
            s_puts.push(sequential.put(&k, v));
        }
        prop_assert_eq!(format!("{:?}", b_puts), format!("{:?}", s_puts));

        let b_gets = batched.multi_get(&get_keys(&gets));
        let s_gets: Vec<_> = get_keys(&gets).iter().map(|k| sequential.get(k)).collect();
        prop_assert_eq!(format!("{:?}", b_gets), format!("{:?}", s_gets));

        let st = batched.stats();
        prop_assert!(st.rounds <= st.lookups());
        prop_assert!(st.round_hops <= st.hops);
    }

    /// Through the full lossy stack (`RetriedDht<FaultyDht<_>>`) a
    /// batch must still settle every op successfully (the default
    /// policy's failure odds are ~1e-8 per op at this drop rate) and
    /// read back exactly what a reference map predicts.
    ///
    /// Each key appears at most once per batch: ops *within* a batch
    /// are concurrent, so two puts to the same key may settle in
    /// either order once retries reorder the rounds — by design.
    #[test]
    fn lossy_stack_batches_settle_correctly(
        raw_puts in proptest::collection::vec((any::<u8>(), any::<u32>()), 1..48),
        gets in proptest::collection::vec(any::<u8>(), 1..48),
        net_seed in any::<u64>(),
    ) {
        let mut last_per_key = std::collections::BTreeMap::new();
        for &(s, v) in &raw_puts {
            last_per_key.insert(s % 32, v);
        }
        let puts: Vec<(u8, u32)> = last_per_key.into_iter().collect();

        let stack = RetriedDht::new(
            FaultyDht::new(DirectDht::<u32>::new(), NetProfile::lossy(net_seed, 0.10)),
            RetryPolicy::default(),
        );

        let mut reference = std::collections::HashMap::new();
        for &(s, v) in &puts {
            reference.insert(format!("{:?}", key(s)), v);
        }

        for outcome in stack.multi_put(put_entries(&puts)) {
            prop_assert!(outcome.is_ok(), "retry stack must settle every put");
        }
        let got = stack.multi_get(&get_keys(&gets));
        for (slot, outcome) in gets.iter().zip(got) {
            let value = outcome.expect("retry stack must settle every get");
            prop_assert_eq!(
                value,
                reference.get(&format!("{:?}", key(*slot))).copied(),
                "read-back mismatch on slot {}", slot
            );
        }

        let st = stack.stats();
        prop_assert!(st.rounds <= st.lookups());
        prop_assert!(st.round_latency_ms <= st.latency_ms);
    }

    /// A one-element round is the single op, on both rings under every
    /// client-side stack: same answer, same ledger, step by step. Probe
    /// rounds are checked on every stack, routed rounds on the bare
    /// rings (see `assert_one_element_round_is_the_single_op`).
    #[test]
    fn one_element_round_is_the_single_op(
        script in proptest::collection::vec((0u8..4, any::<u8>(), any::<u8>(), any::<u32>()), 1..64),
        ring_seed in any::<u64>(),
        net_seed in any::<u64>(),
    ) {
        for depth in 0..4 {
            assert_one_element_round_is_the_single_op(
                &*client_stack(ChordDht::with_nodes(8, ring_seed), depth, net_seed),
                &*client_stack(ChordDht::with_nodes(8, ring_seed), depth, net_seed),
                &script,
                depth == 0,
            )?;
            assert_one_element_round_is_the_single_op(
                &*client_stack(KademliaDht::with_nodes(16, ring_seed), depth, net_seed),
                &*client_stack(KademliaDht::with_nodes(16, ring_seed), depth, net_seed),
                &script,
                depth == 0,
            )?;
        }
    }
}
