//! The pointer forwarders reach every [`Dht`] method, and a tower
//! assembled at run time by [`client_tower`] is the tower a static
//! type spells out by hand — same answers, same counters, layer for
//! layer.

use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use lht_dht::{
    client_tower, BoxDht, CachedDht, ChordConfig, ChordDht, Dht, DhtError, DhtKey, DhtStats,
    ErasureConfig, ErasureDht, FaultyDht, Fragment, NetProfile, Probe, QuorumConfig, QuorumDht,
    RetriedDht, RetryPolicy, Versioned,
};
use lht_id::U160;

/// Notes the name of every method entered; answers are inert.
#[derive(Default)]
struct Recorder(Mutex<Vec<&'static str>>);

impl Recorder {
    fn entered(&self) -> Vec<&'static str> {
        self.0.lock().unwrap().clone()
    }

    fn enter(&self, method: &'static str) {
        self.0.lock().unwrap().push(method);
    }
}

impl Dht for Recorder {
    type Value = u8;

    fn get(&self, _: &DhtKey) -> Result<Option<u8>, DhtError> {
        self.enter("get");
        Ok(None)
    }
    fn put(&self, _: &DhtKey, _: u8) -> Result<(), DhtError> {
        self.enter("put");
        Ok(())
    }
    fn remove(&self, _: &DhtKey) -> Result<Option<u8>, DhtError> {
        self.enter("remove");
        Ok(None)
    }
    fn update(&self, _: &DhtKey, _: &mut dyn FnMut(&mut Option<u8>)) -> Result<(), DhtError> {
        self.enter("update");
        Ok(())
    }
    fn multi_get(&self, _: &[DhtKey]) -> Vec<Result<Option<u8>, DhtError>> {
        self.enter("multi_get");
        Vec::new()
    }
    fn multi_put(&self, _: Vec<(DhtKey, u8)>) -> Vec<Result<(), DhtError>> {
        self.enter("multi_put");
        Vec::new()
    }
    fn probe_get(&self, _: &DhtKey, _: U160) -> Result<Probe<Option<u8>>, DhtError> {
        self.enter("probe_get");
        Ok(Probe::Stale)
    }
    fn probe_put(&self, _: &DhtKey, _: u8, _: U160) -> Result<Probe<()>, DhtError> {
        self.enter("probe_put");
        Ok(Probe::Stale)
    }
    fn probe_multi_get(&self, _: &[(DhtKey, U160)]) -> Vec<Result<Probe<Option<u8>>, DhtError>> {
        self.enter("probe_multi_get");
        Vec::new()
    }
    fn probe_multi_put(&self, _: Vec<(DhtKey, u8, U160)>) -> Vec<Result<Probe<()>, DhtError>> {
        self.enter("probe_multi_put");
        Vec::new()
    }
    fn owner_hint(&self, _: &DhtKey) -> Option<U160> {
        self.enter("owner_hint");
        None
    }
    fn prewarm(&self, _: &[DhtKey]) {
        self.enter("prewarm");
    }
    fn stats(&self) -> DhtStats {
        self.enter("stats");
        DhtStats::default()
    }
    fn hops(&self) -> u64 {
        self.enter("hops");
        0
    }
    fn reset_stats(&self) {
        self.enter("reset_stats");
    }
}

/// Every method of the trait, in declaration order. A method added to
/// [`Dht`] belongs here, in [`Recorder`] and in `forward_dht!`: a
/// pointer that misses it answers from the trait's default instead of
/// the wrapped substrate.
const METHODS: [&str; 15] = [
    "get",
    "put",
    "remove",
    "update",
    "multi_get",
    "multi_put",
    "probe_get",
    "probe_put",
    "probe_multi_get",
    "probe_multi_put",
    "owner_hint",
    "prewarm",
    "stats",
    "hops",
    "reset_stats",
];

fn call_every_method<D: Dht<Value = u8> + ?Sized>(dht: &D) {
    let key = DhtKey::from("#0");
    let owner = U160::ZERO;
    let _ = dht.get(&key);
    let _ = dht.put(&key, 1);
    let _ = dht.remove(&key);
    let _ = dht.update(&key, &mut |_| {});
    dht.multi_get(&[]);
    dht.multi_put(Vec::new());
    let _ = dht.probe_get(&key, owner);
    let _ = dht.probe_put(&key, 1, owner);
    dht.probe_multi_get(&[]);
    dht.probe_multi_put(Vec::new());
    dht.owner_hint(&key);
    dht.prewarm(&[]);
    dht.stats();
    dht.hops();
    dht.reset_stats();
}

#[test]
fn every_pointer_forwards_every_method_to_its_namesake() {
    let by_ref = Recorder::default();
    call_every_method(&&by_ref);
    assert_eq!(by_ref.entered(), METHODS, "&D");

    let shared = Arc::new(Recorder::default());
    call_every_method(&shared);
    assert_eq!(shared.entered(), METHODS, "Arc<D>");

    let boxed = Box::new(Recorder::default());
    call_every_method(&boxed);
    assert_eq!(boxed.entered(), METHODS, "Box<D>");

    let inner = Recorder::default();
    let erased: BoxDht<'_, u8> = Box::new(&inner);
    call_every_method(&erased);
    assert_eq!(inner.entered(), METHODS, "Box<dyn Dht>");
}

/// One seeded 1,000-op script over 48 keys; returns every answer.
fn script<D: Dht<Value = u64> + ?Sized>(dht: &D) -> Vec<String> {
    let keys: Vec<DhtKey> = (0..48).map(|i| DhtKey::from(format!("#{i:06b}"))).collect();
    let mut rng = StdRng::seed_from_u64(17);
    let mut answers = Vec::with_capacity(1_000);
    for op in 0..1_000u64 {
        let key = &keys[rng.gen_range(0..keys.len())];
        // A batch of distinct keys: a window of the key list.
        let at = rng.gen_range(0..keys.len() - 8);
        let window = &keys[at..at + rng.gen_range(1..8)];
        answers.push(match rng.gen_range(0..6) {
            0 => format!("{:?}", dht.put(key, op)),
            1 => format!("{:?}", dht.get(key)),
            2 => format!(
                "{:?}",
                dht.update(key, &mut |slot| *slot = Some(slot.unwrap_or(0) + 1))
            ),
            3 => format!("{:?}", dht.remove(key)),
            4 => format!("{:?}", dht.multi_get(window)),
            _ => {
                let batch = window.iter().map(|k| (k.clone(), op)).collect();
                format!("{:?}", dht.multi_put(batch))
            }
        });
    }
    answers
}

/// Runs the script through `tier(ring)` wrapped by hand as a static
/// type and through [`client_tower`], for every net × cache cell.
fn assert_towers_agree<S: Clone, B: Dht<Value = u64>>(
    label: &str,
    replicas: usize,
    tier: impl Fn(Arc<ChordDht<S>>) -> B,
) {
    let lossy = (NetProfile::lossy(7, 0.1), RetryPolicy::default());
    for net in [None, Some(lossy)] {
        for cache in [None, Some(64)] {
            let ring = || {
                let cfg = ChordConfig {
                    replicas,
                    ..ChordConfig::default()
                };
                Arc::new(ChordDht::<S>::with_config(32, 5, cfg))
            };
            let (hand_ring, built_ring) = (ring(), ring());
            let base = tier(Arc::clone(&hand_ring));
            let run = |top: &dyn Dht<Value = u64>| (script(top), top.stats());
            let hand = match (net, cache) {
                (None, None) => run(&base),
                (None, Some(cap)) => run(&CachedDht::with_capacity(base, cap)),
                (Some((profile, policy)), None) => {
                    run(&RetriedDht::new(FaultyDht::new(base, profile), policy))
                }
                (Some((profile, policy)), Some(cap)) => run(&CachedDht::with_capacity(
                    RetriedDht::new(FaultyDht::new(base, profile), policy),
                    cap,
                )),
            };
            let built = run(&client_tower(tier(Arc::clone(&built_ring)), net, cache));

            let cell = format!("{label} net={} cache={}", net.is_some(), cache.is_some());
            assert_eq!(hand.0, built.0, "{cell}: answers");
            assert_eq!(hand.1, built.1, "{cell}: top-of-stack stats");
            assert_eq!(hand_ring.stats(), built_ring.stats(), "{cell}: ring stats");
            assert!(hand.1.lookups() >= 1_000, "{cell}: the script ran");
            assert_eq!(net.is_some(), hand.1.drops > 0, "{cell}: fault layer");
        }
    }
}

#[test]
fn client_tower_is_the_hand_built_static_tower() {
    assert_towers_agree::<u64, _>("plain", 2, |ring| ring);
    assert_towers_agree::<Versioned<u64>, _>("quorum 3,2,2", 1, |ring| {
        QuorumDht::new(ring, QuorumConfig::new(3, 2, 2))
    });
    assert_towers_agree::<Fragment, _>("erasure 4,6", 1, |ring| {
        ErasureDht::<_, u64>::new(ring, ErasureConfig::new(4, 6))
    });
}
