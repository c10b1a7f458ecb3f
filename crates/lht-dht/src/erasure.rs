//! Erasure-coded durability over any [`Dht`] substrate.
//!
//! [`ErasureDht`] is the storage-efficiency half of the durability
//! tier: where [`QuorumDht`](crate::QuorumDht)
//! stores `N` full copies, this layer Reed-Solomon-encodes every
//! logical value into `m` fragments of which any `k` reconstruct it
//! ([`gf256::ReedSolomon`](crate::gf256::ReedSolomon), systematic
//! Vandermonde over GF(256)). The group survives the loss of any
//! `m − k` fragments while storing only `m/k` times the payload —
//! against `n`-way replication's factor `n` — which is the
//! replica-vs-erasure maintenance trade from Leslie's *Reliable Data
//! Storage in Distributed Hash Tables* that E20's coded rows measure.
//!
//! # Fragment placement
//!
//! Fragment `i` of a logical key lives at a derived slot key —
//! slot 0 *is* the base key, slot `i > 0` appends `/~e{i}` — exactly
//! the [`QuorumDht`](crate::QuorumDht) scheme with a distinct tag, so
//! the substrate's own consistent hashing scatters the group across
//! independent owners with no per-substrate code, and
//! [`split_fragment_key`] inverts the derivation for audits.
//!
//! # Writes, reads, and the freshness argument
//!
//! Each logical write stamps a fresh sequence number (the seq /
//! tombstone machinery of PR 7's `Versioned` envelope, carried here
//! by [`Fragment`]) and installs fragments slot by slot as a
//! newest-wins merge until `k + 1` acked (one fragment of margin
//! above decodability); the remaining slots become newest-wins
//! deferred handoffs. A write that exhausts every slot still
//! succeeds with `k ≤ acked ≤ k + 1` — the payload is durable the
//! moment any `k` fragments exist.
//!
//! A read contacts slots from a rotating start until it has both
//! `m − k + 1` replies and a decodable newest generation. The
//! arithmetic that replaces `R + W > N`: any `m − k + 1` replies
//! intersect any completed write's `≥ k` installed fragments
//! (`(m − k + 1) + k > m`), so the newest completed generation is
//! always *observed*. The read then either decodes that generation
//! (`≥ k` of its fragments gathered) or **fails** — it never falls
//! back to an older generation, so a stale read is structurally
//! impossible rather than merely quorum-unlikely. Two of the
//! engine's mutant switches each break one side of this argument:
//! [`arm_first_seen_read`] decodes the first-seen generation without
//! reconciling to the newest, and [`arm_lazy_repair`] makes repair
//! count fragments as healed without writing them, so fragment loss
//! erodes groups below `k` and reads start lying about absence.
//!
//! # One engine, this codec
//!
//! The mechanics above — slot derivation, the seq clock, the rotating
//! read start, handoff queue, read-repair, [`anti_entropy_step`] and
//! all accounting (one logical lookup per client op, maintenance
//! charged to `repair_transfers` / `repair_bandwidth`, never to
//! `hops`, so E20 compares
//! coded and replicated repair traffic on the same axes) — are the
//! slot-group engine in `slots.rs`, shared with
//! [`QuorumDht`](crate::QuorumDht). This module supplies what is
//! coding's own: [`ErasureConfig`], the [`Fragment`] envelope and
//! [`ErasurePayload`], and the codec that cuts one shard per slot,
//! keeps a read gathering until the newest generation is decodable,
//! refuses a generation it cannot reconstruct, and regenerates a lost
//! slot by re-encoding that slot's shard from any `k` survivors.
//!
//! [`anti_entropy_step`]: ErasureDht::anti_entropy_step
//! [`arm_first_seen_read`]: SlotDht::arm_first_seen_read
//! [`arm_lazy_repair`]: SlotDht::arm_lazy_repair
//!
//! # Examples
//!
//! ```
//! use lht_dht::{ChordDht, Dht, DhtKey, ErasureConfig, ErasureDht, Fragment};
//!
//! let ring: ChordDht<Fragment> = ChordDht::with_nodes(8, 7);
//! let ec: ErasureDht<_, u32> = ErasureDht::new(&ring, ErasureConfig::new(2, 4));
//! ec.put(&DhtKey::from("a"), 41)?;
//! assert_eq!(ec.get(&DhtKey::from("a"))?, Some(41));
//! // One logical lookup per op, not m:
//! assert_eq!(ec.stats().lookups(), 2);
//! # Ok::<(), lht_dht::DhtError>(())
//! ```

use std::borrow::Cow;
use std::marker::PhantomData;

use crate::gf256::ReedSolomon;
use crate::slots::{self, Codec, Replies, Shape, SlotDht};
use crate::{Dht, DhtKey};

/// Byte tag separating a base key from its fragment-slot suffix
/// (distinct from the quorum layer's `/~q` so the two layers could
/// in principle stack).
const SLOT_TAG: &[u8] = b"/~e";

/// Fragments of margin a write installs above the `k` needed to
/// decode (the Δ in "ack once k + Δ install").
const WRITE_SLACK: usize = 1;

/// Coding parameters: `m` fragment slots per logical key of which any
/// `k` reconstruct the value (`k` data + `m − k` parity).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ErasureConfig {
    /// Data fragments — the decode threshold.
    pub k: usize,
    /// Total fragments per logical key.
    pub m: usize,
}

impl ErasureConfig {
    /// Builds a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= k < m <= 32`.
    pub fn new(k: usize, m: usize) -> ErasureConfig {
        let cfg = ErasureConfig { k, m };
        if let Err(e) = cfg.validate() {
            panic!("invalid erasure config: {e}");
        }
        cfg
    }

    /// Checks the coding constraints, returning the violated rule.
    /// `k >= 2` is load-bearing, not taste: the read-freshness
    /// argument needs every completed write to leave at least two
    /// fragments a reply set can intersect, and `k = 1` is plain
    /// replication — use [`QuorumDht`](crate::QuorumDht) for that.
    pub fn validate(&self) -> Result<(), String> {
        if self.k < 2 {
            return Err(format!(
                "k ({}) must be at least 2 (k = 1 is replication; use QuorumDht)",
                self.k
            ));
        }
        if self.m <= self.k {
            return Err(format!(
                "m ({}) must exceed k ({}): the code needs parity fragments",
                self.m, self.k
            ));
        }
        if self.m > 32 {
            return Err(format!("m ({}) must be at most 32", self.m));
        }
        Ok(())
    }
}

/// One Reed-Solomon fragment of a logical value: what the substrate
/// under an [`ErasureDht`] actually stores.
///
/// This is the coded analogue of the quorum layer's
/// [`Versioned`](crate::Versioned) envelope — the same monotonic
/// `seq` (newest generation wins) and the same tombstone discipline
/// (`tomb: true` marks a remove that must outlive older writes
/// instead of physically deleting, which a slow fragment could
/// resurrect).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fragment {
    /// Monotonic per-layer sequence number; higher wins.
    pub seq: u64,
    /// Which shard of the group this is (`0..m`).
    pub index: u8,
    /// Byte length of the *whole* payload (shards are padded; the
    /// decoder truncates back to this).
    pub len: u32,
    /// Tombstone marker: a deletion at `seq`, carrying no shard data.
    pub tomb: bool,
    /// The shard bytes (`ceil(len / k)` of them, empty for
    /// tombstones).
    pub data: Vec<u8>,
}

impl Fragment {
    /// A data shard of generation `seq`.
    pub fn new(seq: u64, index: usize, len: usize, data: Vec<u8>) -> Fragment {
        Fragment {
            seq,
            index: index as u8,
            len: len as u32,
            tomb: false,
            data,
        }
    }

    /// A deletion marker at `seq` for slot `index`.
    pub(crate) fn tombstone(seq: u64, index: usize) -> Fragment {
        Fragment {
            seq,
            index: index as u8,
            len: 0,
            tomb: true,
            data: Vec::new(),
        }
    }

    /// On-wire bytes of this fragment: a 14-byte header (8 seq,
    /// 1 index, 4 len, 1 tomb) plus the shard data. E20's
    /// bytes-per-durable-key metric sums this.
    pub fn wire_size(&self) -> usize {
        8 + 1 + 4 + 1 + self.data.len()
    }
}

/// Byte codec for values stored under an [`ErasureDht`] — the layer
/// needs real bytes to shard, and the vendored serde shim is
/// deliberately a no-op, so the codec is explicit. Implementations
/// must round-trip: `decode_payload(&v.encode_payload()) == Some(v)`.
pub trait ErasurePayload: Clone {
    /// Serializes the value to bytes.
    fn encode_payload(&self) -> Vec<u8>;
    /// Deserializes a value; `None` on malformed bytes (surfaces as a
    /// reconstruction failure, never a panic).
    fn decode_payload(bytes: &[u8]) -> Option<Self>;
}

impl ErasurePayload for u32 {
    fn encode_payload(&self) -> Vec<u8> {
        self.to_le_bytes().to_vec()
    }
    fn decode_payload(bytes: &[u8]) -> Option<Self> {
        Some(u32::from_le_bytes(bytes.try_into().ok()?))
    }
}

impl ErasurePayload for u64 {
    fn encode_payload(&self) -> Vec<u8> {
        self.to_le_bytes().to_vec()
    }
    fn decode_payload(bytes: &[u8]) -> Option<Self> {
        Some(u64::from_le_bytes(bytes.try_into().ok()?))
    }
}

impl ErasurePayload for String {
    fn encode_payload(&self) -> Vec<u8> {
        self.as_bytes().to_vec()
    }
    fn decode_payload(bytes: &[u8]) -> Option<Self> {
        String::from_utf8(bytes.to_vec()).ok()
    }
}

impl ErasurePayload for Vec<u8> {
    fn encode_payload(&self) -> Vec<u8> {
        self.clone()
    }
    fn decode_payload(bytes: &[u8]) -> Option<Self> {
        Some(bytes.to_vec())
    }
}

/// The derived key of fragment slot `slot` for `base`. Slot 0 is the
/// base key itself, so the first data shard lands where the bare
/// substrate would put the whole value.
pub fn fragment_key(base: &DhtKey, slot: usize) -> DhtKey {
    slots::derive_key(SLOT_TAG, base, slot)
}

/// Inverts [`fragment_key`]: splits a (possibly) derived key back
/// into `(base, slot)`. A key without a well-formed `/~e{digits}`
/// suffix is its own base at slot 0. Used by harness audits to fold
/// raw fragment storage back into logical entries.
pub fn split_fragment_key(key: &DhtKey) -> (DhtKey, usize) {
    slots::split_key(SLOT_TAG, key)
}

/// The erasure codec: slot `i` of a group holds shard `i` of the
/// Reed-Solomon-coded payload, as a [`Fragment`].
pub struct Coding<V> {
    cfg: ErasureConfig,
    rs: ReedSolomon,
    _value: PhantomData<fn() -> V>,
}

/// One generation of a logical value under [`Coding`]: the value
/// beside the payload bytes its shards are cut from, or `None` for a
/// tombstone.
pub struct Coded<V> {
    seq: u64,
    live: Option<(V, Vec<u8>)>,
}

impl<V> Coding<V> {
    /// # Panics
    ///
    /// Panics if `cfg` violates the coding constraints.
    pub(crate) fn new(cfg: ErasureConfig) -> Coding<V> {
        if let Err(e) = cfg.validate() {
            panic!("invalid erasure config: {e}");
        }
        Coding {
            cfg,
            rs: ReedSolomon::new(cfg.k, cfg.m),
            _value: PhantomData,
        }
    }
}

impl<V: ErasurePayload> Codec for Coding<V> {
    type Value = V;
    type Envelope = Fragment;
    type Generation = Coded<V>;

    const TAG: &'static [u8] = SLOT_TAG;
    /// Two (vs replication's one): a coded group is *destroyed*, not
    /// degraded, once it drops below `k` fragments, so regeneration
    /// must outpace loss — healing throughput is this tier's reason
    /// to exist.
    const SWEEP_BUDGET: usize = 2;

    /// A read needs `m − k + 1` replies — that many cannot miss a
    /// completed write's `≥ k` fragments. A write aims for `k + 1`
    /// installs (one fragment of margin) and is durable, hence acked,
    /// the moment any `k` exist.
    fn shape(&self) -> Shape {
        let ErasureConfig { k, m } = self.cfg;
        Shape {
            slots: m,
            reads: m - k + 1,
            write_goal: (k + WRITE_SLACK).min(m),
            write_min: k,
        }
    }

    fn seq(fragment: &Fragment) -> u64 {
        fragment.seq
    }

    fn encode(&self, seq: u64, value: Option<V>) -> Coded<V> {
        let live = value.map(|v| {
            let payload = v.encode_payload();
            (v, payload)
        });
        Coded { seq, live }
    }

    /// Cuts (or, for repair, re-encodes) the one shard `slot` holds.
    fn envelope<'g>(&self, generation: &'g Coded<V>, slot: usize) -> Cow<'g, Fragment> {
        Cow::Owned(match &generation.live {
            None => Fragment::tombstone(generation.seq, slot),
            Some((_, payload)) => Fragment::new(
                generation.seq,
                slot,
                payload.len(),
                self.rs.shard(payload, slot),
            ),
        })
    }

    /// Whether the newest generation among `replies` is decodable:
    /// `≥ k` of its fragments, or any tombstone fragment.
    fn settled(&self, replies: &Replies<Fragment>) -> bool {
        let fragments = || replies.iter().filter_map(|(_, f)| f.as_ref());
        let Some(newest) = fragments().map(|f| f.seq).max() else {
            return false;
        };
        let mut n = 0usize;
        for f in fragments().filter(|f| f.seq == newest) {
            if f.tomb {
                return true;
            }
            n += 1;
        }
        n >= self.cfg.k
    }

    /// Reports the generation's tombstone or reconstructs its payload
    /// from any `k` fragments; refuses when fewer were gathered.
    fn decode(&self, replies: &Replies<Fragment>, seq: u64) -> Option<Coded<V>> {
        let frags: Vec<&Fragment> = replies
            .iter()
            .filter_map(|(_, f)| f.as_ref())
            .filter(|f| f.seq == seq)
            .collect();
        if frags.iter().any(|f| f.tomb) {
            return Some(Coded { seq, live: None });
        }
        let len = frags.first()?.len as usize;
        let shards: Vec<(usize, &[u8])> = frags
            .iter()
            .map(|f| (f.index as usize, f.data.as_slice()))
            .collect();
        let payload = self.rs.reconstruct(&shards, len)?;
        let value = V::decode_payload(&payload)?;
        Some(Coded {
            seq,
            live: Some((value, payload)),
        })
    }

    fn into_value(generation: Coded<V>) -> Option<V> {
        generation.live.map(|(value, _)| value)
    }
}

/// A composable erasure-coding layer (see module docs): the
/// slot-group engine storing one [`Fragment`] per slot. `V` is the
/// logical value type.
pub type ErasureDht<D, V> = SlotDht<D, Coding<V>>;

impl<V: ErasurePayload, D: Dht<Value = Fragment>> SlotDht<D, Coding<V>> {
    /// Wraps `inner`, coding every logical value into `cfg.m`
    /// fragments across derived slots.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` violates the coding constraints
    /// (see [`ErasureConfig::validate`]).
    pub fn new(inner: D, cfg: ErasureConfig) -> Self {
        SlotDht::with_codec(inner, Coding::new(cfg))
    }

    /// The coding parameters this layer runs with.
    pub fn config(&self) -> ErasureConfig {
        self.codec().cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DirectDht;

    fn key(s: &str) -> DhtKey {
        DhtKey::from(s)
    }

    #[test]
    fn config_validation_enforces_coding_constraints() {
        ErasureConfig::new(2, 3).validate().unwrap();
        ErasureConfig::new(4, 6).validate().unwrap();
        assert!(ErasureConfig { k: 1, m: 3 }.validate().is_err());
        assert!(ErasureConfig { k: 0, m: 3 }.validate().is_err());
        assert!(ErasureConfig { k: 3, m: 3 }.validate().is_err());
        assert!(ErasureConfig { k: 4, m: 2 }.validate().is_err());
        assert!(ErasureConfig { k: 2, m: 33 }.validate().is_err());
        let repl = ErasureConfig { k: 1, m: 4 }.validate().unwrap_err();
        assert!(repl.contains("replication"), "{repl}");
    }

    #[test]
    #[should_panic(expected = "invalid erasure config")]
    fn replication_disguised_as_coding_is_rejected() {
        let ring: DirectDht<Fragment> = DirectDht::new();
        let _: ErasureDht<_, u32> = ErasureDht::new(&ring, ErasureConfig { k: 1, m: 3 });
    }

    /// The erasure twin of quorum's
    /// `second_coordinator_loses_an_acknowledged_put`: one clock per
    /// handle loses B's acknowledged write. ROADMAP `[one-clock]`
    /// flips both reads to 100.
    #[test]
    fn second_coordinator_loses_an_acknowledged_put() {
        let ring: DirectDht<Fragment> = DirectDht::new();
        let a: ErasureDht<_, u32> = ErasureDht::new(&ring, ErasureConfig::new(2, 3));
        let b: ErasureDht<_, u32> = ErasureDht::new(&ring, ErasureConfig::new(2, 3));
        for v in 0..=4 {
            a.put(&key("k"), v).unwrap();
        }
        b.put(&key("k"), 100).unwrap();
        assert_eq!(a.get(&key("k")).unwrap(), Some(4));
        assert_eq!(b.get(&key("k")).unwrap(), Some(4));
    }

    #[test]
    fn payload_codecs_round_trip() {
        assert_eq!(u32::decode_payload(&7u32.encode_payload()), Some(7));
        assert_eq!(
            u64::decode_payload(&u64::MAX.encode_payload()),
            Some(u64::MAX)
        );
        let s = String::from("coded");
        assert_eq!(String::decode_payload(&s.encode_payload()), Some(s));
        assert_eq!(String::decode_payload(&[]), Some(String::new()));
        let v = vec![1u8, 2, 3];
        assert_eq!(Vec::<u8>::decode_payload(&v.encode_payload()), Some(v));
        assert_eq!(
            u32::decode_payload(&[1, 2, 3]),
            None,
            "wrong width fails closed"
        );
    }

    #[test]
    fn reads_survive_loss_of_any_m_minus_k_fragments() {
        let payload = 0xdead_beefu32;
        for lost in [[0usize, 1], [0, 3], [1, 2], [2, 3], [1, 3], [0, 2]] {
            let ring: DirectDht<Fragment> = DirectDht::new();
            let ec: ErasureDht<_, u32> = ErasureDht::new(&ring, ErasureConfig::new(2, 4));
            ec.put(&key("a"), payload).unwrap();
            ec.sync_all(); // install all 4 fragments
            for slot in lost {
                ring.remove(&fragment_key(&key("a"), slot)).unwrap();
            }
            for _ in 0..4 {
                assert_eq!(
                    ec.get(&key("a")).unwrap(),
                    Some(payload),
                    "lost fragments {lost:?}"
                );
            }
        }
    }

    #[test]
    fn anti_entropy_regenerates_a_crashed_fragment() {
        let ring: DirectDht<Fragment> = DirectDht::new();
        let ec: ErasureDht<_, u32> = ErasureDht::new(&ring, ErasureConfig::new(2, 4));
        ec.put(&key("a"), 9).unwrap();
        ec.sync_all();
        // Lose a parity fragment outright (a crash, not a miss).
        ring.remove(&fragment_key(&key("a"), 3)).unwrap();
        assert_eq!(ring.get(&fragment_key(&key("a"), 3)).unwrap(), None);
        let before = ec.stats();
        assert!(ec.sync_all() >= 1, "the lost shard must be re-encoded");
        let healed = ring.get(&fragment_key(&key("a"), 3)).unwrap().unwrap();
        assert_eq!(healed.index, 3);
        assert!(!healed.tomb);
        let s = ec.stats();
        assert!(
            s.repair_transfers > before.repair_transfers,
            "regeneration must be charged as repair traffic"
        );
        assert_eq!(ec.sync_all(), 0, "store must be converged after healing");
    }

    #[test]
    fn corrupt_fragment_mutant_serves_a_stale_generation() {
        let ring: DirectDht<Fragment> = DirectDht::new();
        let ec: ErasureDht<_, u32> = ErasureDht::new(&ring, ErasureConfig::new(2, 5));
        ec.arm_first_seen_read();
        ec.put(&key("a"), 1).unwrap();
        // Converge generation 1 into all 5 slots, then write
        // generation 2: slots {0, 1, 2} move on while the deferred
        // slots {3, 4} still hold k = 2 fragments of generation 1 —
        // a decodable stale group.
        ec.sync_all();
        ec.put(&key("a"), 2).unwrap();
        let mut saw_stale = false;
        for _ in 0..10 {
            if ec.get(&key("a")).unwrap() == Some(1) {
                saw_stale = true;
            }
        }
        assert!(
            saw_stale,
            "a read whose rotor lands on the deferred slots must decode the stale generation"
        );
    }

    #[test]
    fn lazy_regen_mutant_counts_repairs_it_never_wrote() {
        let honest_ring: DirectDht<Fragment> = DirectDht::new();
        let honest: ErasureDht<_, u32> = ErasureDht::new(&honest_ring, ErasureConfig::new(2, 5));
        let lazy_ring: DirectDht<Fragment> = DirectDht::new();
        let lazy: ErasureDht<_, u32> = ErasureDht::new(&lazy_ring, ErasureConfig::new(2, 5));
        lazy.arm_lazy_repair();
        for ec in [&honest, &lazy] {
            ec.put(&key("a"), 7).unwrap();
            assert_eq!(ec.pending_handoffs(), 2);
            assert!(ec.anti_entropy_step() >= 2, "both claim to flush");
            assert_eq!(ec.pending_handoffs(), 0);
            assert!(ec.stats().repair_transfers > 0, "both claim repair traffic");
        }
        // The honest layer wrote slots 3 and 4; the lazy one lied.
        assert!(lazy_ring
            .get(&fragment_key(&key("a"), 3))
            .unwrap()
            .is_none());
        assert!(honest_ring
            .get(&fragment_key(&key("a"), 3))
            .unwrap()
            .is_some());
        // Now the written slots crash. Honest survives from the
        // flushed fragments; lazy has lost the value and lies about
        // its absence.
        for slot in 0..3 {
            honest_ring.remove(&fragment_key(&key("a"), slot)).unwrap();
            lazy_ring.remove(&fragment_key(&key("a"), slot)).unwrap();
        }
        assert_eq!(honest.get(&key("a")).unwrap(), Some(7));
        assert_eq!(
            lazy.get(&key("a")).unwrap(),
            None,
            "the eroded group reads as absent"
        );
    }

    #[test]
    fn coded_groups_store_fewer_bytes_than_triple_replication() {
        // The storage-efficiency claim at the unit level: a 512-byte
        // payload under {k=4, m=6} vs three full copies.
        let cfg = ErasureConfig::new(4, 6);
        let rs = ReedSolomon::new(cfg.k, cfg.m);
        let payload = vec![7u8; 512];
        let coded: usize = rs
            .encode(&payload)
            .into_iter()
            .enumerate()
            .map(|(i, shard)| Fragment::new(1, i, payload.len(), shard).wire_size())
            .sum();
        let replicated = 3 * (512 + 8); // three Versioned envelopes
        assert!(
            (coded as f64) <= 0.6 * replicated as f64,
            "coded {coded} vs replicated {replicated}"
        );
    }
}
