//! Tunable quorum replication over any [`Dht`] substrate.
//!
//! [`QuorumDht`] turns a single-copy substrate into an `N`-way
//! replicated store with classic strict-quorum semantics: every
//! logical key owns `N` *replica slots* (derived keys, see below), a
//! write must be acknowledged by `W` slots before it is acked to the
//! caller, and a read consults `R` slots and reconciles the replies
//! newest-wins by sequence number. With `R + W > N`
//! ([`QuorumConfig`] enforces it) every read set intersects every
//! completed write set in at least one slot, so a completed write is
//! visible to every subsequent read — the availability knob the LHT
//! paper's low-maintenance argument needs underneath it (Leslie's
//! replica-maintenance cost model maps onto the `repair_*` counters
//! this layer feeds).
//!
//! # Replica placement
//!
//! Slot 0 *is* the logical key, so the primary copy lands exactly
//! where the bare substrate would put it; slot `i > 0` appends a
//! `/~q{i}` suffix to the key bytes, which the substrate's own
//! consistent hashing scatters to an independent owner. This derived
//! placement is what makes the layer composable: on Chord the slots
//! spread around the ring like a successor list would, on Kademlia
//! each slot lands at its own k-closest set, and on the one-hop
//! substrates they fall in distinct partitions — with no
//! per-substrate code. Index labels never contain `/~q`, so
//! [`split_slot_key`] can invert the derivation for audits.
//!
//! # Writes, deferred handoff, and the staleness window
//!
//! A write stamps the value with a fresh sequence number and installs
//! it slot by slot **as a newest-wins merge** (via [`Dht::update`],
//! never a blind put) until `W` slots acked; the remaining `N − W`
//! slots — plus any slot whose write the network lost (hinted
//! handoff) — are queued and flushed by [`anti_entropy_step`]. The
//! deferred slots are the layer's deliberate staleness window: reads
//! close it through the `R + W > N` intersection plus read-repair,
//! and two of the engine's mutant switches
//! ([`arm_first_seen_read`], [`arm_lost_write_ack`]) each break one
//! side of that argument in a way the linearizability checker
//! catches.
//!
//! # One engine, this codec
//!
//! Everything above except the numbers — slot derivation, the seq
//! clock, the rotating read start, handoff queue, read-repair,
//! anti-entropy and all accounting (one logical lookup per client op,
//! maintenance charged to `repair_*`, never to `hops`) — is the
//! slot-group engine in `slots.rs`, shared with
//! [`ErasureDht`](crate::ErasureDht). This module supplies what is
//! replication's own: [`QuorumConfig`], the [`Versioned`] envelope,
//! and the codec that says every slot holds the same
//! envelope, any `R` replies settle a read, and the highest sequence
//! number among them wins.
//!
//! [`anti_entropy_step`]: QuorumDht::anti_entropy_step
//! [`arm_first_seen_read`]: SlotDht::arm_first_seen_read
//! [`arm_lost_write_ack`]: SlotDht::arm_lost_write_ack
//!
//! # Examples
//!
//! ```
//! use lht_dht::{ChordDht, Dht, DhtKey, QuorumConfig, QuorumDht, Versioned};
//!
//! let ring: ChordDht<Versioned<u32>> = ChordDht::with_nodes(8, 7);
//! let q = QuorumDht::new(&ring, QuorumConfig::new(3, 2, 2));
//! q.put(&DhtKey::from("a"), 41)?;
//! assert_eq!(q.get(&DhtKey::from("a"))?, Some(41));
//! // One logical lookup per op, not N:
//! assert_eq!(q.stats().lookups(), 2);
//! # Ok::<(), lht_dht::DhtError>(())
//! ```

use std::borrow::Cow;
use std::marker::PhantomData;

use crate::slots::{self, Codec, Replies, Shape, SlotDht};
use crate::{Dht, DhtKey};

/// Byte tag separating a base key from its replica-slot suffix.
const SLOT_TAG: &[u8] = b"/~q";

/// Replication parameters: `n` replica slots, read quorum `r`, write
/// quorum `w`, with `1 <= r, w <= n` and `r + w > n` (strict quorum
/// intersection). `{1, 1, 1}` degenerates to the bare substrate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuorumConfig {
    /// Replica slots per logical key.
    pub n: usize,
    /// Slots a read must hear from before reconciling.
    pub r: usize,
    /// Slots a write must install before acking.
    pub w: usize,
}

impl QuorumConfig {
    /// Builds a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= r <= n`, `1 <= w <= n` and `r + w > n`.
    pub fn new(n: usize, r: usize, w: usize) -> QuorumConfig {
        let cfg = QuorumConfig { n, r, w };
        if let Err(e) = cfg.validate() {
            panic!("invalid quorum config: {e}");
        }
        cfg
    }

    /// Checks the strict-quorum constraints, returning the violated
    /// rule.
    pub fn validate(&self) -> Result<(), String> {
        if self.n == 0 {
            return Err("n must be at least 1".into());
        }
        if self.r == 0 || self.r > self.n {
            return Err(format!(
                "r ({}) must satisfy 1 <= r <= n ({})",
                self.r, self.n
            ));
        }
        if self.w == 0 || self.w > self.n {
            return Err(format!(
                "w ({}) must satisfy 1 <= w <= n ({})",
                self.w, self.n
            ));
        }
        if self.r + self.w <= self.n {
            return Err(format!(
                "r + w ({} + {}) must exceed n ({}): otherwise a read quorum can \
                 miss a completed write entirely",
                self.r, self.w, self.n
            ));
        }
        Ok(())
    }
}

impl Default for QuorumConfig {
    fn default() -> Self {
        QuorumConfig { n: 1, r: 1, w: 1 }
    }
}

/// A sequence-stamped replica-slot envelope: what the substrate under
/// a [`QuorumDht`] actually stores.
///
/// `value: None` is a **tombstone** — a remove that must win over
/// older writes by sequence number rather than by physically deleting
/// the slot (a deletion could be resurrected by a slower replica;
/// a tombstone cannot).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Versioned<V> {
    /// Monotonic per-layer sequence number; higher wins.
    pub seq: u64,
    /// The stored value, or `None` for a tombstone.
    pub value: Option<V>,
}

impl<V> Versioned<V> {
    /// An envelope carrying a live value.
    pub fn new(seq: u64, value: V) -> Versioned<V> {
        Versioned {
            seq,
            value: Some(value),
        }
    }
}

/// The derived key of replica slot `slot` for `base`. Slot 0 is the
/// base key itself (the primary copy lands where the bare substrate
/// would put it).
pub fn slot_key(base: &DhtKey, slot: usize) -> DhtKey {
    slots::derive_key(SLOT_TAG, base, slot)
}

/// Inverts [`slot_key`]: splits a (possibly) derived key back into
/// `(base, slot)`. A key without a well-formed `/~q{digits}` suffix is
/// its own base at slot 0. Used by harness audits to fold the
/// substrate's slot-replicated storage back into logical entries.
pub fn split_slot_key(key: &DhtKey) -> (DhtKey, usize) {
    slots::split_key(SLOT_TAG, key)
}

/// The replication codec: every slot of a group holds the same
/// [`Versioned`] envelope `E`, so a generation *is* its envelope.
pub struct Replication<E> {
    cfg: QuorumConfig,
    _envelope: PhantomData<fn() -> E>,
}

impl<E> Replication<E> {
    /// # Panics
    ///
    /// Panics if `cfg` violates the strict-quorum constraints.
    pub(crate) fn new(cfg: QuorumConfig) -> Replication<E> {
        if let Err(e) = cfg.validate() {
            panic!("invalid quorum config: {e}");
        }
        Replication {
            cfg,
            _envelope: PhantomData,
        }
    }
}

impl<V: Clone> Codec for Replication<Versioned<V>> {
    type Value = V;
    type Envelope = Versioned<V>;
    type Generation = Versioned<V>;

    const TAG: &'static [u8] = SLOT_TAG;
    const SWEEP_BUDGET: usize = 1;

    fn shape(&self) -> Shape {
        Shape {
            slots: self.cfg.n,
            reads: self.cfg.r,
            write_goal: self.cfg.w,
            write_min: self.cfg.w,
        }
    }

    fn seq(envelope: &Versioned<V>) -> u64 {
        envelope.seq
    }

    fn encode(&self, seq: u64, value: Option<V>) -> Versioned<V> {
        Versioned { seq, value }
    }

    fn envelope<'g>(&self, generation: &'g Versioned<V>, _slot: usize) -> Cow<'g, Versioned<V>> {
        Cow::Borrowed(generation)
    }

    /// Any `r` replies will do: `r + w > n` already guarantees they
    /// intersect every completed write.
    fn settled(&self, _replies: &Replies<Versioned<V>>) -> bool {
        true
    }

    /// Never refuses: any one copy of a generation is the whole of it.
    fn decode(&self, replies: &Replies<Versioned<V>>, seq: u64) -> Option<Versioned<V>> {
        // The last such copy, as `max_by_key` over the replies picks.
        let mut copies = replies.iter().rev().filter_map(|(_, e)| e.as_ref());
        copies.find(|e| e.seq == seq).cloned()
    }

    fn into_value(generation: Versioned<V>) -> Option<V> {
        generation.value
    }
}

/// A composable strict-quorum replication layer (see module docs):
/// the slot-group engine storing a full [`Versioned`] copy per slot.
pub type QuorumDht<D> = SlotDht<D, Replication<<D as Dht>::Value>>;

impl<V: Clone, D: Dht<Value = Versioned<V>>> SlotDht<D, Replication<Versioned<V>>> {
    /// Wraps `inner`, replicating every logical key across
    /// `cfg.n` derived slots.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` violates the strict-quorum constraints
    /// (see [`QuorumConfig::validate`]).
    pub fn new(inner: D, cfg: QuorumConfig) -> Self {
        SlotDht::with_codec(inner, Replication::new(cfg))
    }

    /// The replication parameters this layer runs with.
    pub fn config(&self) -> QuorumConfig {
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
    fn config_validation_enforces_strict_quorum() {
        QuorumConfig::new(1, 1, 1).validate().unwrap();
        QuorumConfig::new(3, 2, 2).validate().unwrap();
        QuorumConfig::new(3, 1, 3).validate().unwrap();
        assert!(QuorumConfig { n: 0, r: 1, w: 1 }.validate().is_err());
        assert!(QuorumConfig { n: 3, r: 0, w: 3 }.validate().is_err());
        assert!(QuorumConfig { n: 3, r: 1, w: 4 }.validate().is_err());
        let weak = QuorumConfig { n: 3, r: 1, w: 2 }.validate().unwrap_err();
        assert!(weak.contains("r + w"), "{weak}");
    }

    #[test]
    #[should_panic(expected = "invalid quorum config")]
    fn sloppy_config_is_rejected_at_construction() {
        let ring: DirectDht<Versioned<u32>> = DirectDht::new();
        let _ = QuorumDht::new(&ring, QuorumConfig { n: 3, r: 1, w: 1 });
    }

    #[test]
    fn n1_r1_w1_matches_the_bare_substrate_results() {
        let plain: DirectDht<u32> = DirectDht::new();
        let ring: DirectDht<Versioned<u32>> = DirectDht::new();
        let q = QuorumDht::new(&ring, QuorumConfig::default());
        for i in 0..16u32 {
            let k = key(&format!("k{i}"));
            assert_eq!(q.put(&k, i).is_ok(), plain.put(&k, i).is_ok());
        }
        for i in 0..16u32 {
            let k = key(&format!("k{i}"));
            assert_eq!(q.get(&k).unwrap(), plain.get(&k).unwrap());
        }
        assert_eq!(
            q.remove(&key("k3")).unwrap(),
            plain.remove(&key("k3")).unwrap()
        );
        assert_eq!(q.get(&key("k3")).unwrap(), plain.get(&key("k3")).unwrap());
        assert_eq!(q.pending_handoffs(), 0, "n = w leaves nothing deferred");
    }

    /// Pins a known defect: two coordinators over one substrate each
    /// stamp from their own clock, so B's acknowledged write sorts
    /// below A's older ones and is lost. ROADMAP `[one-clock]` flips
    /// both reads to 100.
    #[test]
    fn second_coordinator_loses_an_acknowledged_put() {
        let ring: DirectDht<Versioned<u32>> = DirectDht::new();
        let a = QuorumDht::new(&ring, QuorumConfig::new(3, 2, 2));
        let b = QuorumDht::new(&ring, QuorumConfig::new(3, 2, 2));
        for v in 0..=4 {
            a.put(&key("k"), v).unwrap();
        }
        b.put(&key("k"), 100).unwrap();
        assert_eq!(a.get(&key("k")).unwrap(), Some(4));
        assert_eq!(b.get(&key("k")).unwrap(), Some(4));
    }

    #[test]
    fn sloppy_read_mutant_surfaces_a_stale_deferred_slot() {
        let ring: DirectDht<Versioned<u32>> = DirectDht::new();
        let q = QuorumDht::new(&ring, QuorumConfig::new(3, 2, 2));
        q.arm_first_seen_read();
        q.put(&key("a"), 1).unwrap();
        q.put(&key("a"), 2).unwrap();
        // Converge everything to value 2, then write value 3: slots
        // {0, 1} move to 3 while the deferred slot 2 stays at the
        // genuinely stale 2 until the next anti-entropy round.
        q.sync_all();
        q.put(&key("a"), 3).unwrap(); // slots {0,1}=3, slot 2 stays 2
        let mut saw_stale = false;
        for _ in 0..6 {
            if q.get(&key("a")).unwrap() == Some(2) {
                saw_stale = true;
            }
        }
        assert!(
            saw_stale,
            "a sloppy read rotated onto the deferred slot must return the stale value"
        );
    }

    #[test]
    fn lost_write_ack_mutant_leaves_a_read_quorum_blind() {
        let ring: DirectDht<Versioned<u32>> = DirectDht::new();
        let q = QuorumDht::new(&ring, QuorumConfig::new(3, 2, 2));
        q.arm_lost_write_ack();
        q.put(&key("a"), 7).unwrap(); // only slot 0 written, no handoffs
        assert_eq!(q.pending_handoffs(), 0, "the mutant forgets its handoffs");
        // Advance the rotor past offset 0 so the next read's quorum is
        // slots {1, 2} — which excludes the only written slot. (At
        // offset 0 the read would touch slot 0 and read-repair would
        // start healing the damage before a blind quorum comes up.)
        let _ = q.get(&key("z")).unwrap();
        assert_eq!(
            q.get(&key("a")).unwrap(),
            None,
            "a read quorum excluding slot 0 must miss the acked write"
        );
    }
}
