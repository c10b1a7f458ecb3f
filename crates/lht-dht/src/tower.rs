//! The wrapper tower as a run-time value.
//!
//! The product composes `cache → retry → fault → tier → ring` as one
//! static type, and stays that way. A harness that picks its layers
//! from options needs the same tower without one hand-written arm per
//! combination: [`client_tower`] owns the client-side order, and
//! [`RingControl`] / [`TierMaintenance`] are what remains of a ring
//! and a durability tier once the stored value type is erased.

use lht_id::U160;

use crate::slots::{Codec, SlotDht};
use crate::{
    CachedDht, ChordDht, Dht, DhtStats, FaultyDht, NetProfile, RetriedDht, RetryPolicy,
    RingSnapshot, RingViolation,
};

/// An owned [`Dht`] of unknown concrete type storing `V`.
pub type BoxDht<'a, V> = Box<dyn Dht<Value = V> + 'a>;

/// Wraps `base` in the client-side layers, innermost first: a
/// [`FaultyDht`] under a [`RetriedDht`] when `net` is set (a lost RPC
/// fails one whole logical op, which the retry layer re-sends), then a
/// [`CachedDht`] of `cache` entries outermost (one cache consult per
/// logical lookup; probes travel the lossy network like any RPC).
pub fn client_tower<'a, V: Clone + 'a>(
    base: impl Dht<Value = V> + 'a,
    net: Option<(NetProfile, RetryPolicy)>,
    cache: Option<usize>,
) -> BoxDht<'a, V> {
    let mut tower: BoxDht<'a, V> = Box::new(base);
    if let Some((profile, policy)) = net {
        tower = Box::new(RetriedDht::new(FaultyDht::new(tower, profile), policy));
    }
    if let Some(capacity) = cache {
        tower = Box::new(CachedDht::with_capacity(tower, capacity));
    }
    tower
}

/// Membership and maintenance of a ring, whatever it stores: the
/// inherent [`ChordDht`] methods of the same names, behind an
/// object-safe trait.
pub trait RingControl {
    /// [`ChordDht::join`].
    fn join(&self, name: &str) -> Option<U160>;
    /// [`ChordDht::leave`].
    fn leave(&self, id: &U160) -> bool;
    /// [`ChordDht::crash`].
    fn crash(&self, id: &U160) -> bool;
    /// [`ChordDht::stabilize`].
    fn stabilize(&self, rounds: usize);
    /// [`ChordDht::stabilize_step`].
    fn stabilize_step(&self);
    /// [`ChordDht::key_sync_step`].
    fn key_sync_step(&self);
    /// [`ChordDht::node_count`].
    fn node_count(&self) -> usize;
    /// [`ChordDht::snapshot`].
    fn snapshot(&self) -> RingSnapshot;
    /// [`ChordDht::audit_ring`].
    fn audit_ring(&self) -> Vec<RingViolation>;
}

impl<V: Clone> RingControl for ChordDht<V> {
    fn join(&self, name: &str) -> Option<U160> {
        ChordDht::join(self, name)
    }
    fn leave(&self, id: &U160) -> bool {
        ChordDht::leave(self, id)
    }
    fn crash(&self, id: &U160) -> bool {
        ChordDht::crash(self, id)
    }
    fn stabilize(&self, rounds: usize) {
        ChordDht::stabilize(self, rounds)
    }
    fn stabilize_step(&self) {
        ChordDht::stabilize_step(self)
    }
    fn key_sync_step(&self) {
        ChordDht::key_sync_step(self)
    }
    fn node_count(&self) -> usize {
        ChordDht::node_count(self)
    }
    fn snapshot(&self) -> RingSnapshot {
        ChordDht::snapshot(self)
    }
    fn audit_ring(&self) -> Vec<RingViolation> {
        ChordDht::audit_ring(self)
    }
}

/// Background maintenance of a durability tier, whichever codec it
/// runs: the inherent [`QuorumDht`](crate::QuorumDht) /
/// [`ErasureDht`](crate::ErasureDht) methods of the same names, behind
/// an object-safe trait.
pub trait TierMaintenance {
    /// One maintenance round: a bounded handoff flush, then a full sync
    /// of the next tracked keys. Returns the slot installs issued.
    fn anti_entropy_step(&self) -> u64;
    /// Flushes every pending handoff and syncs every tracked key once.
    /// Returns the slot installs issued.
    fn sync_all(&self) -> u64;
    /// Slot installs awaiting an anti-entropy flush.
    fn pending_handoffs(&self) -> usize;
    /// Distinct logical keys the anti-entropy sweep tracks.
    fn tracked_keys(&self) -> usize;
    /// The tier's own [`Dht::stats`] — where the `repair_*` counters
    /// live, below whatever client-side layers wrap it.
    fn stats(&self) -> DhtStats;
}

impl<C: Codec, D: Dht<Value = C::Envelope>> TierMaintenance for SlotDht<D, C> {
    fn anti_entropy_step(&self) -> u64 {
        SlotDht::anti_entropy_step(self)
    }
    fn sync_all(&self) -> u64 {
        SlotDht::sync_all(self)
    }
    fn pending_handoffs(&self) -> usize {
        SlotDht::pending_handoffs(self)
    }
    fn tracked_keys(&self) -> usize {
        SlotDht::tracked_keys(self)
    }
    fn stats(&self) -> DhtStats {
        Dht::stats(self)
    }
}
