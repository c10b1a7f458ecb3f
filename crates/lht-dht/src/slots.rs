//! The slot-group durability engine behind [`QuorumDht`] and
//! [`ErasureDht`].
//!
//! Both tiers keep a logical key alive the same way: the key owns a
//! *group* of derived slot keys on the substrate, every logical write
//! stamps a fresh sequence number and installs that generation slot by
//! slot as a newest-wins merge, a read gathers slots from a rotating
//! start and reconciles to the newest generation it saw, and whatever
//! a write skipped or the network lost is queued for hinted handoff
//! and healed by read-repair and anti-entropy. `n`-way replication is
//! the `k = 1` member of the `k`-of-`m` family (Leslie, *Reliable Data
//! Storage in Distributed Hash Tables*), so all of that is written
//! once here, generic over a [`Codec`] that answers the few questions
//! on which the tiers genuinely differ: what one slot of a generation
//! holds, when a reply set is enough, and how replies reconcile.
//!
//! # Slot placement
//!
//! Slot 0 *is* the logical key, so the first copy (or shard) lands
//! exactly where the bare substrate would put the value; slot `i > 0`
//! appends the codec's tag and `i` to the key bytes, which the
//! substrate's own consistent hashing scatters to an independent
//! owner — no per-substrate code.
//!
//! # Accounting
//!
//! The engine keeps its **own** [`DhtStats`]: one logical lookup per
//! client op (never one per slot), with the request path's routing
//! hops charged from inner-stats deltas. All maintenance traffic —
//! read-repair, handoff flushes, anti-entropy probes and installs — is
//! charged to [`DhtStats::repair_transfers`] (one per maintenance RPC)
//! and [`DhtStats::repair_bandwidth`] (their hops), never to `hops`.
//! Fault-layer counters observed below are absorbed into the logical
//! op. A failed logical op charges its hops and faults but mints no
//! lookup.
//!
//! All client operations serialize on one internal lock: the engine is
//! a measurement substrate, and exact inner-stats delta windows under
//! real threads require it.
//!
//! [`QuorumDht`]: crate::QuorumDht
//! [`ErasureDht`]: crate::ErasureDht

use std::borrow::Cow;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

use parking_lot::Mutex;

use crate::{Dht, DhtError, DhtKey, DhtOp, DhtStats};

/// Pending handoffs flushed per [`SlotDht::anti_entropy_step`].
const HANDOFF_BUDGET: usize = 8;

/// Slot replies collected by a read: `(slot, envelope)` pairs.
pub(crate) type Replies<E> = Vec<(usize, Option<E>)>;

/// How many of a group's slots each phase of an operation needs.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Slots per logical key.
    pub slots: usize,
    /// Replies a read must gather before it may reconcile.
    pub reads: usize,
    /// Installs a write attempts synchronously; the rest are deferred.
    pub write_goal: usize,
    /// Installs that make a write durable, hence acked.
    pub write_min: usize,
}

/// What differs between the durability tiers.
pub trait Codec {
    /// The logical value clients read and write.
    type Value;
    /// What one slot stores on the substrate.
    type Envelope: Clone;
    /// One generation of a logical value (or its tombstone), from
    /// which any slot's envelope can be produced.
    type Generation;

    /// Byte tag separating a base key from its slot number.
    const TAG: &'static [u8];
    /// Tracked keys fully synced per anti-entropy round.
    const SWEEP_BUDGET: usize;

    /// The group geometry this codec was configured with.
    fn shape(&self) -> Shape;

    /// The sequence number an envelope was written at; higher wins.
    fn seq(envelope: &Self::Envelope) -> u64;

    /// Stamps `value` (`None` for a tombstone) as generation `seq`.
    fn encode(&self, seq: u64, value: Option<Self::Value>) -> Self::Generation;

    /// The envelope slot `slot` holds for `generation`.
    fn envelope<'g>(
        &self,
        generation: &'g Self::Generation,
        slot: usize,
    ) -> Cow<'g, Self::Envelope>;

    /// Whether a reply set that already counts [`Shape::reads`] pins
    /// down an answer, or the read must keep gathering.
    fn settled(&self, replies: &Replies<Self::Envelope>) -> bool;

    /// Rebuilds generation `seq` from the replies that carry it;
    /// `None` refuses — the generation was seen but cannot be served.
    fn decode(&self, replies: &Replies<Self::Envelope>, seq: u64) -> Option<Self::Generation>;

    /// The logical value a generation carries (`None`: tombstone).
    fn into_value(generation: Self::Generation) -> Option<Self::Value>;
}

/// The derived key of slot `slot` for `base` under `tag`. Slot 0 is
/// the base key itself.
pub(crate) fn derive_key(tag: &[u8], base: &DhtKey, slot: usize) -> DhtKey {
    if slot == 0 {
        return base.clone();
    }
    // Decimal digits of `slot`, rendered into a stack buffer.
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    let mut s = slot;
    loop {
        i -= 1;
        digits[i] = b'0' + (s % 10) as u8;
        s /= 10;
        if s == 0 {
            break;
        }
    }
    let digits = &digits[i..];
    let bytes = base.as_bytes();
    let total = bytes.len() + tag.len() + digits.len();
    let mut buf = [0u8; 128];
    if total <= buf.len() {
        // Common case: assemble the derived key without heap traffic.
        buf[..bytes.len()].copy_from_slice(bytes);
        buf[bytes.len()..bytes.len() + tag.len()].copy_from_slice(tag);
        buf[bytes.len() + tag.len()..total].copy_from_slice(digits);
        DhtKey::from_bytes(&buf[..total])
    } else {
        let mut v = bytes.to_vec();
        v.extend_from_slice(tag);
        v.extend_from_slice(digits);
        DhtKey::from_bytes(&v)
    }
}

/// Inverts [`derive_key`]: splits a (possibly) derived key back into
/// `(base, slot)`. A key without a well-formed `{tag}{digits}` suffix
/// is its own base at slot 0.
pub(crate) fn split_key(tag: &[u8], key: &DhtKey) -> (DhtKey, usize) {
    let bytes = key.as_bytes();
    if let Some(pos) = bytes.windows(tag.len()).rposition(|window| window == tag) {
        let digits = &bytes[pos + tag.len()..];
        if !digits.is_empty() && digits.iter().all(u8::is_ascii_digit) {
            if let Ok(slot) = std::str::from_utf8(digits).unwrap_or("").parse::<usize>() {
                return (DhtKey::new(&bytes[..pos]), slot);
            }
        }
    }
    (key.clone(), 0)
}

/// Mutable engine state, all behind one lock (see the module docs for
/// why client ops serialize).
struct State<E> {
    /// Sequence-number generator; one engine per substrate.
    clock: u64,
    /// Rotates which slot a read contacts first, so deferred slots
    /// actually get exercised (and a first-seen read actually observes
    /// them — the mutant must be catchable, not theoretical).
    rotor: u64,
    /// Deferred/failed slot installs awaiting an anti-entropy flush,
    /// newest-wins per `(base, slot)`.
    pending: BTreeMap<(DhtKey, usize), E>,
    /// Every base key this engine has written, for anti-entropy sweeps.
    known: BTreeSet<DhtKey>,
    /// Last base key synced by the round-robin sweep.
    sweep: Option<DhtKey>,
    /// The engine's own logical-op counters (never the inner's raw
    /// per-slot traffic).
    stats: DhtStats,
    /// Armed mutant: reads serve the first generation they saw, without
    /// reconciling to the newest and without read-repair.
    first_seen_read: bool,
    /// Armed mutant: writes believe one ack fewer completes them and
    /// forget their handoffs.
    lost_write_ack: bool,
    /// Armed mutant: repair installs are counted but never written.
    lazy_repair: bool,
}

impl<E> Default for State<E> {
    fn default() -> Self {
        State {
            clock: 0,
            rotor: 0,
            pending: BTreeMap::new(),
            known: BTreeSet::new(),
            sweep: None,
            stats: DhtStats::default(),
            first_seen_read: false,
            lost_write_ack: false,
            lazy_repair: false,
        }
    }
}

/// What a reply set reconciles to: the generation to serve and its
/// sequence number, or `None` when no slot held anything.
type Newest<C> = Option<(u64, <C as Codec>::Generation)>;

/// A reply set whose newest generation was observed but cannot be
/// served; the op fails rather than fall back to an older one.
struct Refused;

/// A composable durability layer keeping every logical key in a group
/// of derived slots on `inner` (see the module docs); `C` decides what
/// the slots hold.
pub struct SlotDht<D, C: Codec> {
    inner: D,
    codec: C,
    state: Mutex<State<C::Envelope>>,
}

impl<D, C: Codec> std::fmt::Debug for SlotDht<D, C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlotDht")
            .field("shape", &self.codec.shape())
            .finish()
    }
}

impl<D, C: Codec> SlotDht<D, C> {
    pub(crate) fn with_codec(inner: D, codec: C) -> SlotDht<D, C> {
        SlotDht {
            inner,
            codec,
            state: Mutex::new(State::default()),
        }
    }

    pub(crate) fn codec(&self) -> &C {
        &self.codec
    }

    /// The wrapped substrate (for harness audits of raw slot storage).
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Number of `(key, slot)` installs currently awaiting an
    /// anti-entropy flush.
    pub fn pending_handoffs(&self) -> usize {
        self.state.lock().pending.len()
    }

    /// Number of distinct logical keys the anti-entropy sweep tracks.
    pub fn tracked_keys(&self) -> usize {
        self.state.lock().known.len()
    }

    /// Mutant switch: reads serve the generation of the first reply
    /// they gather, without reconciling to the newest and without
    /// read-repair. A rotated read that starts on a deferred slot then
    /// serves a stale value — a linearizability violation.
    pub fn arm_first_seen_read(&self) {
        self.state.lock().first_seen_read = true;
    }

    /// Mutant switch: a write acks one slot install early and forgets
    /// its handoffs, so some read sets miss a completed write.
    pub fn arm_lost_write_ack(&self) {
        self.state.lock().lost_write_ack = true;
    }

    /// Mutant switch: every repair write — handoff flush, read-repair,
    /// anti-entropy — is counted in `repair_transfers` as if issued
    /// but never written, so lost slots never heal.
    pub fn arm_lazy_repair(&self) {
        self.state.lock().lazy_repair = true;
    }
}

impl<C: Codec, D: Dht<Value = C::Envelope>> SlotDht<D, C> {
    /// Folds the fault-side counters of an inner-stats delta into the
    /// engine's own stats. Operation/round/hop counters are *not*
    /// folded — the engine mints exactly one logical op per client
    /// call — and cache counters cannot appear below a durability
    /// layer (the cache composes outermost).
    fn absorb_faults(stats: &mut DhtStats, d: &DhtStats) {
        stats.drops += d.drops;
        stats.timeouts += d.timeouts;
        stats.retries += d.retries;
        stats.latency_ms += d.latency_ms;
        stats.round_latency_ms += d.round_latency_ms;
        stats.keys_transferred += d.keys_transferred;
        stats.repair_transfers += d.repair_transfers;
        stats.repair_bandwidth += d.repair_bandwidth;
    }

    /// Newest-wins install of `envelope` into one slot, via the
    /// substrate's `update` so a repair or handoff can never regress a
    /// newer generation already present.
    fn merge_write(
        &self,
        base: &DhtKey,
        slot: usize,
        envelope: &C::Envelope,
    ) -> Result<(), DhtError> {
        let key = derive_key(C::TAG, base, slot);
        let seq = C::seq(envelope);
        let mut install = |cur: &mut Option<C::Envelope>| {
            if cur.as_ref().is_none_or(|c| C::seq(c) < seq) {
                *cur = Some(envelope.clone());
            }
        };
        self.inner.update(&key, &mut install)
    }

    /// One maintenance RPC: runs `op` against the inner substrate and
    /// charges its hops to `repair_transfers`/`repair_bandwidth`
    /// (plus absorbed fault counters) — never to the request path.
    fn repair_rpc<T>(
        &self,
        stats: &mut DhtStats,
        op: impl FnOnce() -> Result<T, DhtError>,
    ) -> Result<T, DhtError> {
        let before = self.inner.stats();
        let out = op();
        let d = self.inner.stats() - before;
        stats.record_repair(d.hops);
        Self::absorb_faults(stats, &d);
        out
    }

    /// The single gate every repair-path install goes through.
    /// Honest: a charged [`merge_write`](Self::merge_write).
    /// Lazy-repair mutant: the repair is *counted* (a zero-hop
    /// `record_repair`) but nothing is written.
    fn repair_write(
        &self,
        st: &mut State<C::Envelope>,
        base: &DhtKey,
        slot: usize,
        envelope: &C::Envelope,
    ) -> Result<(), DhtError> {
        if st.lazy_repair {
            st.stats.record_repair(0);
            return Ok(());
        }
        self.repair_rpc(&mut st.stats, || self.merge_write(base, slot, envelope))
    }

    /// Enqueues `envelope` for a deferred slot install, newest-wins.
    fn enqueue_handoff(
        st: &mut State<C::Envelope>,
        base: &DhtKey,
        slot: usize,
        envelope: C::Envelope,
    ) {
        match st.pending.entry((base.clone(), slot)) {
            Entry::Occupied(mut o) => {
                if C::seq(o.get()) < C::seq(&envelope) {
                    o.insert(envelope);
                }
            }
            Entry::Vacant(v) => {
                v.insert(envelope);
            }
        }
    }

    /// Contacts slots starting at the read rotor until [`Shape::reads`]
    /// replied and the codec calls the set settled, extending past
    /// transient failures to further slots (that extension is the
    /// availability win: any sufficient subset of the group will do).
    ///
    /// On failure — too few replies, or a structural error — this
    /// charges the routed hops and absorbed faults against `before`
    /// itself and returns `Err` without minting a logical lookup. On
    /// success it charges nothing; the caller owns the delta window.
    fn contact_read(
        &self,
        st: &mut State<C::Envelope>,
        base: &DhtKey,
        before: DhtStats,
    ) -> Result<Replies<C::Envelope>, DhtError> {
        let Shape { slots, reads, .. } = self.codec.shape();
        let offset = (st.rotor as usize) % slots;
        st.rotor += 1;
        let mut replies = Vec::with_capacity(slots);
        let mut last_err = None;
        for i in 0..slots {
            if replies.len() >= reads && self.codec.settled(&replies) {
                break;
            }
            let slot = (offset + i) % slots;
            match self.inner.get(&derive_key(C::TAG, base, slot)) {
                Ok(v) => replies.push((slot, v)),
                Err(e) if e.is_transient() => last_err = Some(e),
                Err(e) => {
                    self.charge_failure(st, before);
                    return Err(e);
                }
            }
        }
        if replies.len() < reads {
            self.charge_failure(st, before);
            return Err(last_err.unwrap_or(DhtError::RoutingFailed { hops: 0 }));
        }
        Ok(replies)
    }

    /// Reconciles a reply set to the newest generation it observed —
    /// decoded, or refused, never an older one. `Ok(None)` means no
    /// slot held anything. `first_seen` is the first-seen-read
    /// mutant's variant: adopt the *first* gathered envelope's
    /// generation if it decodes, else fall back to the honest path.
    fn reconcile(
        &self,
        replies: &Replies<C::Envelope>,
        first_seen: bool,
    ) -> Result<Newest<C>, Refused> {
        let seq_of = |(_, e): &(usize, Option<C::Envelope>)| e.as_ref().map(C::seq);
        if first_seen {
            if let Some(first) = replies.iter().find_map(seq_of) {
                if let Some(g) = self.codec.decode(replies, first) {
                    return Ok(Some((first, g)));
                }
            }
        }
        let Some(newest) = replies.iter().filter_map(seq_of).max() else {
            return Ok(None);
        };
        match self.codec.decode(replies, newest) {
            Some(g) => Ok(Some((newest, g))),
            None => Err(Refused),
        }
    }

    /// Shared read half of `get`/`remove`/`update`: gather, then
    /// reconcile. A refused reconciliation charges the failed op and
    /// surfaces as a zero-hop routing failure.
    fn gather(
        &self,
        st: &mut State<C::Envelope>,
        key: &DhtKey,
        before: DhtStats,
        first_seen: bool,
    ) -> Result<(Replies<C::Envelope>, Newest<C>), DhtError> {
        let replies = self.contact_read(st, key, before)?;
        match self.reconcile(&replies, first_seen) {
            Ok(newest) => Ok((replies, newest)),
            Err(Refused) => {
                self.charge_failure(st, before);
                Err(DhtError::RoutingFailed { hops: 0 })
            }
        }
    }

    /// Installs `generation` into slots `0..slots` in order until
    /// [`Shape::write_goal`] acked, returning the slots left for
    /// deferred handoff (both the skipped ones and any whose install
    /// the network lost). Succeeds once [`Shape::write_min`] acked.
    /// Does no accounting; the caller owns the delta window and the
    /// error path.
    fn write_slots(
        &self,
        st: &State<C::Envelope>,
        base: &DhtKey,
        generation: &C::Generation,
    ) -> Result<Vec<usize>, DhtError> {
        let Shape {
            slots,
            mut write_goal,
            mut write_min,
            ..
        } = self.codec.shape();
        if st.lost_write_ack {
            write_goal -= 1;
            write_min = write_min.min(write_goal);
        }
        let mut acked = 0usize;
        let mut handoff = Vec::new();
        let mut last_err = None;
        for slot in 0..slots {
            if acked >= write_goal {
                handoff.push(slot);
                continue;
            }
            match self.merge_write(base, slot, &self.codec.envelope(generation, slot)) {
                Ok(()) => acked += 1,
                Err(e) if e.is_transient() => {
                    last_err = Some(e);
                    handoff.push(slot);
                }
                Err(e) => return Err(e),
            }
        }
        if acked >= write_min {
            Ok(handoff)
        } else {
            Err(last_err.unwrap_or(DhtError::RoutingFailed { hops: 0 }))
        }
    }

    /// Shared tail of every logical write: stamps the op, queues the
    /// handoffs (unless the lost-write-ack mutant forgot them) and
    /// registers the base key for anti-entropy sweeps.
    fn finish_write(
        &self,
        st: &mut State<C::Envelope>,
        base: &DhtKey,
        generation: &C::Generation,
        handoff: Vec<usize>,
        op: DhtOp,
        before: DhtStats,
    ) {
        let d = self.inner.stats() - before;
        st.stats.record_op(op, d.hops);
        Self::absorb_faults(&mut st.stats, &d);
        if !st.lost_write_ack {
            for slot in handoff {
                let envelope = self.codec.envelope(generation, slot).into_owned();
                Self::enqueue_handoff(st, base, slot, envelope);
            }
        }
        st.known.insert(base.clone());
    }

    /// Charges a failed logical op's routed hops without minting a
    /// lookup — the same honesty rule the retry layer follows.
    fn charge_failure(&self, st: &mut State<C::Envelope>, before: DhtStats) {
        let d = self.inner.stats() - before;
        st.stats.hops += d.hops;
        Self::absorb_faults(&mut st.stats, &d);
    }

    /// Shared write half of every mutating op: stamp a fresh
    /// generation, install it to the write goal, defer the rest.
    fn write(
        &self,
        st: &mut State<C::Envelope>,
        key: &DhtKey,
        value: Option<C::Value>,
        op: DhtOp,
        before: DhtStats,
    ) -> Result<(), DhtError> {
        st.clock += 1;
        let generation = self.codec.encode(st.clock, value);
        match self.write_slots(st, key, &generation) {
            Ok(handoff) => {
                self.finish_write(st, key, &generation, handoff, op, before);
                Ok(())
            }
            Err(e) => {
                self.charge_failure(st, before);
                Err(e)
            }
        }
    }

    /// Repairs every replied slot that is missing generation `seq` or
    /// behind it, and drops now-superseded pending handoffs for slots
    /// a repair just covered. Returns the installs issued.
    fn read_repair(
        &self,
        st: &mut State<C::Envelope>,
        base: &DhtKey,
        replies: &Replies<C::Envelope>,
        seq: u64,
        newest: &C::Generation,
    ) -> u64 {
        let mut writes = 0u64;
        for (slot, e) in replies {
            if e.as_ref().is_some_and(|c| C::seq(c) >= seq) {
                continue;
            }
            let envelope = self.codec.envelope(newest, *slot);
            let ok = self.repair_write(st, base, *slot, &envelope).is_ok();
            writes += 1;
            if ok {
                if let Entry::Occupied(p) = st.pending.entry((base.clone(), *slot)) {
                    if C::seq(p.get()) <= seq {
                        p.remove();
                    }
                }
            }
        }
        writes
    }

    /// One background maintenance round: flushes up to
    /// [`HANDOFF_BUDGET`] pending handoffs, then fully syncs the next
    /// tracked keys round-robin (one for replication, two for coding —
    /// a coded group is *destroyed*, not degraded, once it drops below
    /// `k` fragments, so regeneration must outpace loss): reads all of
    /// a key's slots, rebuilds the newest generation and installs it
    /// wherever it is missing or stale. Every RPC issued is charged to
    /// the `repair_*` counters. Returns the number of slot *installs*
    /// issued — 0 means the store was already converged on the portion
    /// visited.
    pub fn anti_entropy_step(&self) -> u64 {
        let mut st = self.state.lock();
        let mut writes = 0u64;

        // Phase 1: hinted/deferred handoff flush.
        let batch: Vec<((DhtKey, usize), C::Envelope)> = {
            let keys: Vec<(DhtKey, usize)> =
                st.pending.keys().take(HANDOFF_BUDGET).cloned().collect();
            keys.into_iter()
                .filter_map(|k| st.pending.remove(&k).map(|v| (k, v)))
                .collect()
        };
        for ((base, slot), envelope) in batch {
            let res = self.repair_write(&mut st, &base, slot, &envelope);
            writes += 1;
            if res.is_err() {
                // Keep trying next round; newest-wins keeps this safe.
                Self::enqueue_handoff(&mut st, &base, slot, envelope);
            }
        }

        // Phase 2: round-robin full sync of the next keys.
        for _ in 0..C::SWEEP_BUDGET {
            let next = match &st.sweep {
                Some(cur) => st
                    .known
                    .range((Bound::Excluded(cur.clone()), Bound::Unbounded))
                    .next()
                    .cloned()
                    .or_else(|| st.known.iter().next().cloned()),
                None => st.known.iter().next().cloned(),
            };
            let Some(base) = next else { break };
            st.sweep = Some(base.clone());
            writes += self.sync_key(&mut st, &base);
        }
        writes
    }

    /// Flushes **all** pending handoffs and fully syncs **every**
    /// tracked key once, returning the slot installs issued. After a
    /// pass over a quiescent store, a second pass issues 0 installs —
    /// the convergence contract the hammer pins.
    pub fn sync_all(&self) -> u64 {
        let mut st = self.state.lock();
        let mut writes = 0u64;
        while let Some(((base, slot), envelope)) = st.pending.pop_first() {
            let res = self.repair_write(&mut st, &base, slot, &envelope);
            writes += 1;
            if res.is_err() {
                Self::enqueue_handoff(&mut st, &base, slot, envelope);
                break; // a persistently failing slot must not spin forever
            }
        }
        let keys: Vec<DhtKey> = st.known.iter().cloned().collect();
        for base in keys {
            writes += self.sync_key(&mut st, &base);
        }
        writes
    }

    /// Reads all slots of `base`, rebuilds the newest generation if
    /// the codec can, and installs it wherever a slot is missing or
    /// stale, all charged as repair traffic. A generation the codec
    /// refuses (a coded group eroded below `k`) cannot be healed and
    /// is left as-is. Returns the installs issued.
    fn sync_key(&self, st: &mut State<C::Envelope>, base: &DhtKey) -> u64 {
        let slots = self.codec.shape().slots;
        let mut replies = Vec::with_capacity(slots);
        for slot in 0..slots {
            let key = derive_key(C::TAG, base, slot);
            if let Ok(v) = self.repair_rpc(&mut st.stats, || self.inner.get(&key)) {
                replies.push((slot, v));
            }
        }
        match self.reconcile(&replies, false) {
            Ok(Some((seq, newest))) => self.read_repair(st, base, &replies, seq, &newest),
            Ok(None) | Err(Refused) => 0,
        }
    }
}

impl<C: Codec, D: Dht<Value = C::Envelope>> Dht for SlotDht<D, C> {
    type Value = C::Value;

    fn get(&self, key: &DhtKey) -> Result<Option<C::Value>, DhtError> {
        let mut st = self.state.lock();
        let before = self.inner.stats();
        let first_seen = st.first_seen_read;
        let (replies, newest) = self.gather(&mut st, key, before, first_seen)?;
        let d = self.inner.stats() - before;
        let mut value = None;
        if let Some((seq, newest)) = newest {
            if !first_seen {
                self.read_repair(&mut st, key, &replies, seq, &newest);
            }
            value = C::into_value(newest);
        }
        let found = value.is_some();
        st.stats.record_op(DhtOp::Get { found }, d.hops);
        Self::absorb_faults(&mut st.stats, &d);
        Ok(value)
    }

    fn put(&self, key: &DhtKey, value: C::Value) -> Result<(), DhtError> {
        let mut st = self.state.lock();
        let before = self.inner.stats();
        self.write(&mut st, key, Some(value), DhtOp::Put, before)
    }

    fn remove(&self, key: &DhtKey) -> Result<Option<C::Value>, DhtError> {
        let mut st = self.state.lock();
        let before = self.inner.stats();
        // Gather first: the caller gets the newest prior value, then a
        // tombstone generation (never a physical delete — a slow slot
        // could resurrect one) takes the write path.
        let (_, newest) = self.gather(&mut st, key, before, false)?;
        let prior = newest.and_then(|(_, g)| C::into_value(g));
        self.write(&mut st, key, None, DhtOp::Remove, before)?;
        Ok(prior)
    }

    fn update(
        &self,
        key: &DhtKey,
        f: &mut dyn FnMut(&mut Option<C::Value>),
    ) -> Result<(), DhtError> {
        let mut st = self.state.lock();
        let before = self.inner.stats();
        // Gather the newest, apply the closure exactly once locally,
        // write the result under a fresh generation. Atomic under the
        // simulator's atomic-at-invocation model; real-thread users
        // wanting atomic read-modify-write across clients need
        // external coordination (the engine serializes its *own*
        // clients, which is what the hammer exercises).
        let (_, newest) = self.gather(&mut st, key, before, false)?;
        let mut slot_value = newest.and_then(|(_, g)| C::into_value(g));
        f(&mut slot_value);
        self.write(&mut st, key, slot_value, DhtOp::Update, before)
    }

    fn prewarm(&self, keys: &[DhtKey]) {
        // Slot 0 is the base key, so warming the inner layer's per-key
        // state with the logical keys is exact for the first slots.
        self.inner.prewarm(keys);
    }

    fn stats(&self) -> DhtStats {
        self.state.lock().stats
    }

    fn reset_stats(&self) {
        self.state.lock().stats = DhtStats::default();
        self.inner.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::erasure::Coding;
    use crate::quorum::Replication;
    use crate::{ChordDht, DirectDht, ErasureConfig, FaultyDht, NetProfile, QuorumConfig};

    const TAGS: [&[u8]; 2] = [b"/~q", b"/~e"];

    fn key(s: &str) -> DhtKey {
        DhtKey::from(s)
    }

    /// Replication `{n, r, w}` over `u32`s.
    fn replication(n: usize, r: usize, w: usize) -> impl Codec<Value = u32> {
        Replication::<crate::Versioned<u32>>::new(QuorumConfig::new(n, r, w))
    }

    /// Coding `{k, m}` over `u32`s.
    fn coding(k: usize, m: usize) -> impl Codec<Value = u32> {
        Coding::<u32>::new(ErasureConfig::new(k, m))
    }

    proptest! {
        /// `split_key` inverts `derive_key` for both tags, across the
        /// 46-byte inline `DhtKey` boundary and the 128-byte stack
        /// buffer, even when the base already carries the *other*
        /// tier's tag; the derived bytes are `base ‖ tag ‖ decimal`.
        #[test]
        fn derived_keys_round_trip(
            raw in proptest::collection::vec(any::<u8>(), 1..201),
            slot in 0usize..41,
            other_tag_at in 0usize..400,
        ) {
            for (tag, other) in [(TAGS[0], TAGS[1]), (TAGS[1], TAGS[0])] {
                // No stray '~' so only the spliced tag can look like one.
                let mut bytes: Vec<u8> =
                    raw.iter().map(|&b| if b == b'~' { b'-' } else { b }).collect();
                // Half the cases splice the other tier's tag (and a
                // digit, as if the base were its derived key) in.
                if other_tag_at < 200 {
                    let at = other_tag_at % (bytes.len() + 1);
                    bytes.splice(at..at, other.iter().copied());
                    bytes.extend_from_slice(b"7");
                }
                let base = DhtKey::new(&bytes);
                let derived = derive_key(tag, &base, slot);
                if slot == 0 {
                    prop_assert_eq!(&derived, &base, "slot 0 is the base key");
                } else {
                    let mut expect = bytes.clone();
                    expect.extend_from_slice(tag);
                    expect.extend_from_slice(slot.to_string().as_bytes());
                    prop_assert_eq!(derived.as_bytes(), &expect[..]);
                    prop_assert_ne!(&derived, &derive_key(other, &base, slot), "distinct namespaces");
                }
                prop_assert_eq!(split_key(tag, &derived), (base, slot));
            }
        }
    }

    fn put_get_remove_roundtrip_with_tombstones(codec: impl Codec<Value = u32>) {
        let rotations = 2 * codec.shape().slots;
        let ring = DirectDht::new();
        let tier = SlotDht::with_codec(&ring, codec);
        assert_eq!(tier.get(&key("a")).unwrap(), None);
        tier.put(&key("a"), 1).unwrap();
        assert_eq!(tier.get(&key("a")).unwrap(), Some(1));
        tier.put(&key("a"), 2).unwrap();
        assert_eq!(tier.get(&key("a")).unwrap(), Some(2));
        assert_eq!(tier.remove(&key("a")).unwrap(), Some(2));
        // The tombstone generation wins over every older slot, however
        // the read rotation lands.
        for _ in 0..rotations {
            assert_eq!(tier.get(&key("a")).unwrap(), None);
        }
        assert_eq!(tier.remove(&key("a")).unwrap(), None);
    }

    #[test]
    fn put_get_remove_roundtrip_with_tombstones_per_codec() {
        put_get_remove_roundtrip_with_tombstones(replication(3, 2, 2));
        put_get_remove_roundtrip_with_tombstones(coding(2, 4));
    }

    fn update_applies_closure_exactly_once_over_newest(codec: impl Codec<Value = u32>) {
        let ring = DirectDht::new();
        let tier = SlotDht::with_codec(&ring, codec);
        tier.put(&key("a"), 10).unwrap();
        let mut calls = 0;
        tier.update(&key("a"), &mut |slot| {
            calls += 1;
            *slot = slot.map(|v| v + 1);
        })
        .unwrap();
        assert_eq!(calls, 1);
        assert_eq!(tier.get(&key("a")).unwrap(), Some(11));
        // An update that clears the slot deletes the entry.
        tier.update(&key("a"), &mut |slot| *slot = None).unwrap();
        assert_eq!(tier.get(&key("a")).unwrap(), None);
    }

    #[test]
    fn update_applies_closure_exactly_once_per_codec() {
        update_applies_closure_exactly_once_over_newest(replication(3, 2, 2));
        update_applies_closure_exactly_once_over_newest(coding(2, 4));
    }

    fn one_logical_lookup_per_op_never_per_slot(codec: impl Codec<Value = u32>) {
        let ring = DirectDht::new();
        let tier = SlotDht::with_codec(&ring, codec);
        tier.put(&key("a"), 1).unwrap();
        tier.get(&key("a")).unwrap();
        tier.update(&key("a"), &mut |_| {}).unwrap();
        tier.remove(&key("a")).unwrap();
        let s = tier.stats();
        assert_eq!(s.lookups(), 4);
        assert_eq!((s.puts, s.gets, s.updates, s.removes), (1, 1, 1, 1));
        assert_eq!(s.rounds, 4);
        s.check_invariants().unwrap();
    }

    #[test]
    fn one_logical_lookup_per_op_per_codec() {
        one_logical_lookup_per_op_never_per_slot(replication(3, 2, 2));
        one_logical_lookup_per_op_never_per_slot(coding(2, 4));
    }

    fn deferred_handoffs_queue_and_anti_entropy_flushes_them(codec: impl Codec<Value = u32>) {
        let Shape {
            slots, write_goal, ..
        } = codec.shape();
        let deferred = slots - write_goal;
        assert!(deferred > 0, "the geometry under test must defer something");
        let ring = DirectDht::new();
        let tier = SlotDht::with_codec(&ring, codec);
        tier.put(&key("a"), 1).unwrap();
        assert_eq!(tier.pending_handoffs(), deferred);
        assert_eq!(tier.tracked_keys(), 1);
        let before = tier.stats();
        assert_eq!(before.repair_transfers, 0, "no repair before maintenance");
        let writes = tier.anti_entropy_step();
        assert_eq!(writes, deferred as u64, "every deferred slot is flushed");
        assert_eq!(tier.pending_handoffs(), 0);
        let s = tier.stats();
        assert!(s.repair_transfers > 0, "maintenance RPCs must be charged");
        assert_eq!(s.hops, before.hops, "repair must not touch request hops");
        s.check_invariants().unwrap();
        // A second full pass over a converged store writes nothing.
        assert_eq!(tier.sync_all(), 0);
    }

    #[test]
    fn deferred_handoffs_queue_and_flush_per_codec() {
        deferred_handoffs_queue_and_anti_entropy_flushes_them(replication(3, 2, 2));
        deferred_handoffs_queue_and_anti_entropy_flushes_them(coding(2, 5));
    }

    fn read_repair_heals_a_stale_slot_it_contacted(codec: impl Codec<Value = u32>) {
        let rotations = 2 * codec.shape().slots;
        let ring = DirectDht::new();
        let tier = SlotDht::with_codec(&ring, codec);
        tier.put(&key("a"), 1).unwrap();
        tier.put(&key("a"), 2).unwrap();
        // Rotate reads until every slot has been contacted; each read
        // must return the newest value and repair what it touched.
        for _ in 0..rotations {
            assert_eq!(tier.get(&key("a")).unwrap(), Some(2));
        }
        // After the reads, a full sync finds nothing left to fix
        // beyond what the handoff queue still holds.
        tier.sync_all();
        assert_eq!(tier.sync_all(), 0, "store must be converged");
        assert!(tier.stats().repair_transfers > 0);
    }

    #[test]
    fn read_repair_heals_a_stale_slot_per_codec() {
        read_repair_heals_a_stale_slot_it_contacted(replication(3, 2, 2));
        read_repair_heals_a_stale_slot_it_contacted(coding(2, 4));
    }

    fn composes_over_chord_and_charges_routed_hops(codec: impl Codec<Value = u32>) {
        let ring = ChordDht::with_nodes(16, 9);
        let tier = SlotDht::with_codec(&ring, codec);
        for i in 0..32u32 {
            tier.put(&key(&format!("k{i}")), i).unwrap();
        }
        for i in 0..32u32 {
            assert_eq!(tier.get(&key(&format!("k{i}"))).unwrap(), Some(i));
        }
        let s = tier.stats();
        assert_eq!(s.lookups(), 64);
        assert!(s.hops > 0, "chord routing must be charged");
        s.check_invariants().unwrap();
        tier.sync_all();
        tier.stats().check_invariants().unwrap();
    }

    #[test]
    fn composes_over_chord_per_codec() {
        composes_over_chord_and_charges_routed_hops(replication(3, 2, 2));
        composes_over_chord_and_charges_routed_hops(coding(2, 4));
    }

    fn failed_logical_ops_mint_no_lookups(codec: impl Codec<Value = u32>) {
        // A network dropping every RPC starves reads and writes alike;
        // the failed logical ops must charge their faults but no
        // lookups.
        let ring = DirectDht::new();
        let lossy = FaultyDht::new(&ring, NetProfile::lossy(5, 1.0));
        let tier = SlotDht::with_codec(&lossy, codec);
        assert!(tier.put(&key("a"), 1).is_err());
        assert!(tier.get(&key("a")).is_err());
        let s = tier.stats();
        assert_eq!(s.lookups(), 0, "failed ops must not mint lookups");
        assert!(
            s.drops + s.timeouts > 0,
            "the lost attempts must be absorbed into the engine's stats"
        );
        s.check_invariants().unwrap();
    }

    #[test]
    fn failed_logical_ops_mint_no_lookups_per_codec() {
        failed_logical_ops_mint_no_lookups(replication(2, 1, 2));
        failed_logical_ops_mint_no_lookups(coding(2, 3));
    }
}
