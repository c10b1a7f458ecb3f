//! Frozen witness for the durability tier: one seeded schedule driven
//! through both tiers at two geometries each, with every counter and
//! the raw ring contents pinned to literals recorded at the commit
//! *before* `QuorumDht` and `ErasureDht` were folded onto one
//! slot-group engine. Any drift in which RPC is issued when, what it
//! is charged to, what is queued for handoff or what lands in a slot
//! changes at least one literal below.
//!
//! The fault layer sits *below* the tier (E20's arrangement), so a
//! drop costs one slot contact and the tier's own failure paths —
//! read extension past a lost reply, hinted handoff of a lost
//! install, failed-op charging, fault absorption — all run.

use lht_dht::{
    ChordConfig, ChordDht, Dht, DhtKey, ErasureConfig, ErasureDht, FaultyDht, Fragment, NetProfile,
    QuorumConfig, QuorumDht, Versioned,
};
use lht_id::sha1;

const PEERS: usize = 32;
const OPS: usize = 2_000;
const KEYS: u64 = 48;
const ANTI_ENTROPY_EVERY: usize = 64;
const CHURN_EVERY: usize = 256;
const SEED: u64 = 0x1e57_2008;

/// What the schedule needs from a tier beyond [`Dht`].
trait Tier: Dht<Value = Vec<u8>> {
    fn anti_entropy_step(&self) -> u64;
    fn sync_all(&self) -> u64;
    fn pending_handoffs(&self) -> usize;
    fn tracked_keys(&self) -> usize;
}

impl<D: Dht<Value = Versioned<Vec<u8>>>> Tier for QuorumDht<D> {
    fn anti_entropy_step(&self) -> u64 {
        QuorumDht::anti_entropy_step(self)
    }
    fn sync_all(&self) -> u64 {
        QuorumDht::sync_all(self)
    }
    fn pending_handoffs(&self) -> usize {
        QuorumDht::pending_handoffs(self)
    }
    fn tracked_keys(&self) -> usize {
        QuorumDht::tracked_keys(self)
    }
}

impl<D: Dht<Value = Fragment>> Tier for ErasureDht<D, Vec<u8>> {
    fn anti_entropy_step(&self) -> u64 {
        ErasureDht::anti_entropy_step(self)
    }
    fn sync_all(&self) -> u64 {
        ErasureDht::sync_all(self)
    }
    fn pending_handoffs(&self) -> usize {
        ErasureDht::pending_handoffs(self)
    }
    fn tracked_keys(&self) -> usize {
        ErasureDht::tracked_keys(self)
    }
}

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    /// Length-prefixed, so adjacent fields cannot run together.
    fn blob(&mut self, bytes: &[u8]) {
        self.u64(bytes.len() as u64);
        self.bytes(bytes);
    }
}

/// A stored envelope, folded into a digest field by field.
trait Envelope {
    fn digest(&self, h: &mut Fnv);
}

impl Envelope for Versioned<Vec<u8>> {
    fn digest(&self, h: &mut Fnv) {
        h.u64(self.seq);
        match &self.value {
            Some(v) => {
                h.u64(1);
                h.blob(v);
            }
            None => h.u64(0),
        }
    }
}

impl Envelope for Fragment {
    fn digest(&self, h: &mut Fnv) {
        h.u64(self.seq);
        h.u64(u64::from(self.index));
        h.u64(u64::from(self.len));
        h.u64(u64::from(self.tomb));
        h.blob(&self.data);
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn ring<E>() -> ChordDht<E> {
    ChordDht::with_config(
        PEERS,
        SEED,
        ChordConfig {
            replicas: 1,
            ..ChordConfig::default()
        },
    )
}

fn lossy<E>(ring: &ChordDht<E>) -> FaultyDht<&ChordDht<E>> {
    FaultyDht::new(ring, NetProfile::lossy(SEED, 0.10))
}

/// Everything one run pins.
#[derive(Debug, PartialEq)]
struct Witness {
    /// The tier's and the ring's full `DhtStats`, `Debug`-rendered.
    tier_stats: String,
    ring_stats: String,
    /// Handoffs queued when the schedule ends, and what one
    /// `sync_all` over the still-lossy network leaves of them.
    pending_handoffs: usize,
    pending_after_sync: usize,
    tracked_keys: usize,
    sync_all_writes: u64,
    /// Digest of every op's outcome, in order.
    transcript: u64,
    /// Digest of the ring's sorted raw `(key, envelope)` contents.
    contents: u64,
    ring_entries: usize,
}

fn run<E: Clone + Envelope>(tier: &impl Tier, ring: &ChordDht<E>) -> Witness {
    let mut rng = SEED;
    let mut transcript = Fnv::new();
    let mut joined = 0usize;
    for i in 1..=OPS {
        let key = DhtKey::from(format!("#{:06b}", splitmix(&mut rng) % KEYS));
        let len = (splitmix(&mut rng) % 41) as usize;
        let fill = splitmix(&mut rng) as u8;
        let value: Vec<u8> = (0..len).map(|j| fill.wrapping_add(j as u8)).collect();
        let outcome = match splitmix(&mut rng) % 10 {
            0..=2 => tier.put(&key, value).map(|()| None),
            3..=6 => tier.get(&key),
            7 | 8 => tier
                .update(&key, &mut |slot| match slot {
                    Some(v) if v.len() > 32 => *slot = None,
                    Some(v) => v.push(fill),
                    None => *slot = Some(value.clone()),
                })
                .map(|()| None),
            _ => tier.remove(&key),
        };
        match outcome {
            Ok(Some(v)) => {
                transcript.u64(2);
                transcript.blob(&v);
            }
            Ok(None) => transcript.u64(1),
            Err(e) => {
                transcript.u64(0);
                transcript.blob(e.to_string().as_bytes());
            }
        }
        if i % ANTI_ENTROPY_EVERY == 0 {
            transcript.u64(tier.anti_entropy_step());
        }
        if i % CHURN_EVERY == 0 {
            // One of the original peers leaves, a fresh one joins, and
            // stabilization outpaces churn (the repo-wide contract).
            let leaver = sha1(format!("node:{}", i / CHURN_EVERY).as_bytes());
            assert!(ring.leave(&leaver), "peer {leaver:?} must still be live");
            ring.stabilize(2);
            joined += 1;
            assert!(ring.join(&format!("golden:{joined}")).is_some());
            ring.stabilize(2);
        }
    }
    let pending_handoffs = tier.pending_handoffs();
    let sync_all_writes = tier.sync_all();
    let mut contents = Fnv::new();
    let entries = ring.all_entries();
    for (key, envelope) in &entries {
        contents.blob(key.as_bytes());
        envelope.digest(&mut contents);
    }
    Witness {
        tier_stats: format!("{:?}", tier.stats()),
        ring_stats: format!("{:?}", ring.stats()),
        pending_handoffs,
        pending_after_sync: tier.pending_handoffs(),
        tracked_keys: tier.tracked_keys(),
        sync_all_writes,
        transcript: transcript.0,
        contents: contents.0,
        ring_entries: entries.len(),
    }
}

fn quorum(n: usize, r: usize, w: usize) -> Witness {
    let ring = ring::<Versioned<Vec<u8>>>();
    let tier = QuorumDht::new(lossy(&ring), QuorumConfig::new(n, r, w));
    run(&tier, &ring)
}

fn erasure(k: usize, m: usize) -> Witness {
    let ring = ring::<Fragment>();
    let tier: ErasureDht<_, Vec<u8>> = ErasureDht::new(lossy(&ring), ErasureConfig::new(k, m));
    run(&tier, &ring)
}

#[test]
fn quorum_1_1_1_is_frozen() {
    assert_eq!(
        quorum(1, 1, 1),
        Witness {
            tier_stats: "DhtStats { gets: 745, failed_gets: 150, puts: 521, removes: 155, updates: 314, hops: 7085, keys_transferred: 0, drops: 252, timeouts: 19, retries: 0, latency_ms: 114736, rounds: 1735, round_hops: 6913, round_latency_ms: 114736, cache_hits: 0, cache_misses: 0, cache_stale: 0, hops_saved: 0, repair_transfers: 79, repair_bandwidth: 222 }".into(),
            ring_stats: "DhtStats { gets: 1343, failed_gets: 60, puts: 0, removes: 0, updates: 990, hops: 7307, keys_transferred: 14, drops: 0, timeouts: 0, retries: 0, latency_ms: 0, rounds: 2333, round_hops: 7307, round_latency_ms: 0, cache_hits: 0, cache_misses: 0, cache_stale: 0, hops_saved: 0, repair_transfers: 0, repair_bandwidth: 0 }".into(),
            pending_handoffs: 0,
            pending_after_sync: 0,
            tracked_keys: 48,
            sync_all_writes: 0,
            transcript: 11104537066260331259,
            contents: 3484438198755383156,
            ring_entries: 48,
        }
    );
}

#[test]
fn quorum_3_2_2_is_frozen() {
    assert_eq!(
        quorum(3, 2, 2),
        Witness {
            tier_stats: "DhtStats { gets: 805, failed_gets: 173, puts: 569, removes: 174, updates: 373, hops: 15866, keys_transferred: 0, drops: 616, timeouts: 58, retries: 0, latency_ms: 285274, rounds: 1921, round_hops: 15499, round_latency_ms: 285274, cache_hits: 0, cache_misses: 0, cache_stale: 0, hops_saved: 0, repair_transfers: 841, repair_bandwidth: 2372 }".into(),
            ring_stats: "DhtStats { gets: 2999, failed_gets: 172, puts: 0, removes: 0, updates: 2816, hops: 18238, keys_transferred: 38, drops: 0, timeouts: 0, retries: 0, latency_ms: 0, rounds: 5815, round_hops: 18238, round_latency_ms: 0, cache_hits: 0, cache_misses: 0, cache_stale: 0, hops_saved: 0, repair_transfers: 0, repair_bandwidth: 0 }".into(),
            pending_handoffs: 61,
            pending_after_sync: 38,
            tracked_keys: 48,
            sync_all_writes: 25,
            transcript: 3071285678164352310,
            contents: 14739636947709679050,
            ring_entries: 144,
        }
    );
}

#[test]
fn erasure_2_4_is_frozen() {
    assert_eq!(
        erasure(2, 4),
        Witness {
            tier_stats: "DhtStats { gets: 767, failed_gets: 166, puts: 582, removes: 174, updates: 374, hops: 23791, keys_transferred: 0, drops: 969, timeouts: 88, retries: 0, latency_ms: 435203, rounds: 1897, round_hops: 23098, round_latency_ms: 435203, cache_hits: 0, cache_misses: 0, cache_stale: 0, hops_saved: 0, repair_transfers: 1078, repair_bandwidth: 2897 }".into(),
            ring_stats: "DhtStats { gets: 4604, failed_gets: 283, puts: 0, removes: 0, updates: 3887, hops: 26688, keys_transferred: 52, drops: 0, timeouts: 0, retries: 0, latency_ms: 0, rounds: 8491, round_hops: 26688, round_latency_ms: 0, cache_hits: 0, cache_misses: 0, cache_stale: 0, hops_saved: 0, repair_transfers: 0, repair_bandwidth: 0 }".into(),
            pending_handoffs: 97,
            pending_after_sync: 69,
            tracked_keys: 48,
            sync_all_writes: 33,
            transcript: 1516841506568535861,
            contents: 17302172694578510437,
            ring_entries: 192,
        }
    );
}

#[test]
fn erasure_4_6_is_frozen() {
    assert_eq!(
        erasure(4, 6),
        Witness {
            tier_stats: "DhtStats { gets: 767, failed_gets: 155, puts: 579, removes: 165, updates: 367, hops: 36247, keys_transferred: 0, drops: 1394, timeouts: 137, retries: 0, latency_ms: 635942, rounds: 1878, round_hops: 34609, round_latency_ms: 635942, cache_hits: 0, cache_misses: 0, cache_stale: 0, hops_saved: 0, repair_transfers: 1283, repair_bandwidth: 3575 }".into(),
            ring_stats: "DhtStats { gets: 6593, failed_gets: 352, puts: 0, removes: 0, updates: 6026, hops: 39822, keys_transferred: 79, drops: 0, timeouts: 0, retries: 0, latency_ms: 0, rounds: 12619, round_hops: 39822, round_latency_ms: 0, cache_hits: 0, cache_misses: 0, cache_stale: 0, hops_saved: 0, repair_transfers: 0, repair_bandwidth: 0 }".into(),
            pending_handoffs: 163,
            pending_after_sync: 144,
            tracked_keys: 48,
            sync_all_writes: 26,
            transcript: 15421244761510163199,
            contents: 9249751260770919263,
            ring_entries: 288,
        }
    );
}
