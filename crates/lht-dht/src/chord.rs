//! An in-process Chord ring.
//!
//! This module simulates the classic Chord protocol (Stoica et al.,
//! SIGCOMM 2001) — the archetype of the DHT substrates the LHT paper
//! targets — at the message-step level: every node-to-node step of an
//! iterative lookup counts as one hop, routing state (finger tables,
//! successor lists, predecessors) is per-node and may go stale under
//! churn, and explicit [`ChordDht::stabilize`] rounds repair it, as
//! in a deployed ring.
//!
//! Nodes live in a slot arena: [`Routing`] holds every node's
//! identifier, liveness bit and pointers in one `Vec` indexed by a
//! `u32` [`Slot`], and all pointers between nodes are slots, so a hop
//! walks array indices and never searches a map. Stores sit beside
//! the routing state, one per slot, and share nothing with it but the
//! slot number.

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

use lht_id::{sha1, U160};

use crate::{Dht, DhtError, DhtKey, DhtOp, DhtStats, NodeStore, Probe};

/// Length of each node's successor list (Chord's `r`); larger lists
/// survive more simultaneous failures.
const SUCCESSOR_LIST_LEN: usize = 4;
/// Hop budget per lookup before routing is declared failed.
const MAX_HOPS: u64 = 512;

/// Configuration for a [`ChordDht`] ring.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChordConfig {
    /// Number of nodes storing each key (1 = no replication). Replicas
    /// are placed on the owner's immediate successors, so a crashed
    /// owner's keys survive on the node that inherits its range.
    pub replicas: usize,
    /// Probability each *maintenance* RPC is lost: a node's whole
    /// stabilize round, or one key-synchronization transfer. Lost
    /// maintenance is retried by the next round — repair is delayed,
    /// never wrong — modelling stabilization under the same lossy
    /// network [`FaultyDht`](crate::FaultyDht) applies to operations.
    /// Draws come from the ring's seeded RNG only when the
    /// probability is positive, so existing seeds replay unchanged.
    pub maintenance_loss: f64,
}

impl Default for ChordConfig {
    fn default() -> Self {
        ChordConfig {
            replicas: 1,
            maintenance_loss: 0.0,
        }
    }
}

/// A stored copy of a key: the value (or a tombstone recording its
/// deletion) stamped with a ring-global write sequence number.
///
/// Replica copies drift out of date under churn — a node that drops
/// out of a key's replica set keeps its old copy, and a graceful
/// leaver hands its whole store to its successor. Sequence numbers
/// let every transfer and synchronization pass reconcile copies
/// newest-wins (as DHash-style replica maintenance does with version
/// numbers), so a stale copy can never clobber newer data and a
/// deleted key cannot be resurrected by an old surviving replica.
#[derive(Clone, Debug)]
struct Stored<V> {
    seq: u64,
    /// `None` is a tombstone: the key was deleted at this version.
    value: Option<V>,
}

/// Merges `incoming` into `store` under newest-wins reconciliation.
fn merge_copy<V>(store: &mut NodeStore<Stored<V>>, key: DhtKey, incoming: Stored<V>) {
    match store.get(&key) {
        Some(existing) if existing.seq >= incoming.seq => {}
        _ => {
            store.insert(key, incoming);
        }
    }
}

/// Position of a node in the arena. An identifier gets its slot the
/// first time it joins and keeps it for good: a node that leaves or
/// crashes stays in the arena, dead and emptied, and the same
/// identifier joining again is handed the same slot. A stale pointer
/// to a departed node therefore stays representable — it reads dead,
/// and live again after a rejoin, exactly as a membership test by
/// identifier would answer.
type Slot = u32;

/// One entry of a node's compact finger table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Finger {
    /// Clockwise distance from the table's node to the finger. A slot
    /// never changes identifier, so the distance computed when the
    /// table was built stays exact however stale the entry gets, and
    /// routing can rule a finger in or out without loading its node.
    dist: U160,
    slot: Slot,
}

#[derive(Debug)]
struct Node {
    id: U160,
    alive: bool,
    predecessor: Option<Slot>,
    /// `successors[0]` is the immediate successor. Entries may be
    /// stale (pointing at departed nodes) until stabilization runs.
    successors: Vec<Slot>,
    /// Compact finger table: the distinct owners of `id + 2^i`
    /// (`i = 0..160`, `id` itself excluded), in increasing clockwise
    /// distance from `id` — O(log n) entries instead of a 160-entry
    /// array, the same candidate set as the classic table. May be
    /// stale.
    fingers: Box<[Finger]>,
}

impl Node {
    /// A node that is not (or not yet) a member: dead, with no
    /// routing state.
    fn new(id: U160) -> Node {
        Node {
            id,
            alive: false,
            predecessor: None,
            successors: Vec::new(),
            fingers: Box::default(),
        }
    }
}

/// A diagnostic snapshot of ring membership and storage load.
///
/// Obtained from [`ChordDht::snapshot`]; used by load-balance
/// experiments and invariant checks.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RingSnapshot {
    /// Live node identifiers in ring order.
    pub node_ids: Vec<U160>,
    /// Number of stored keys per node, in the same order as
    /// `node_ids` (including replicas).
    pub keys_per_node: Vec<usize>,
}

impl RingSnapshot {
    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.node_ids.len()
    }

    /// Whether the ring has no nodes.
    pub fn is_empty(&self) -> bool {
        self.node_ids.is_empty()
    }

    /// Total stored keys across all nodes (including replicas).
    pub fn total_keys(&self) -> usize {
        self.keys_per_node.iter().sum()
    }
}

/// The ring's routing state: who is a member, and every node's
/// pointers. It holds no stored data and no counters, so a lookup
/// needs it only for reading.
struct Routing {
    /// The slot arena. Only grows: see [`Slot`].
    nodes: Vec<Node>,
    /// Live nodes sorted by identifier. Owner resolution and
    /// initiator draws binary-search or index this flat array; ring
    /// order anywhere in this module means the order of this index.
    index: Vec<(U160, Slot)>,
    /// Every identifier that was ever a member, so a rejoin finds its
    /// old slot. Consulted by `join` only.
    slot_of: HashMap<U160, Slot>,
}

struct Ring<V> {
    cfg: ChordConfig,
    routing: Routing,
    /// `stores[slot]` is the store of `routing.nodes[slot]`; a dead
    /// slot's store is empty.
    stores: Vec<NodeStore<Stored<V>>>,
    stats: DhtStats,
    rng: StdRng,
    /// Ring-global write clock stamping every put/remove/update.
    clock: u64,
    /// Fault injection: when set, replica reconciliation *ignores*
    /// sequence numbers — a graceful leaver's handoff and the key-sync
    /// pass blindly overwrite the receiver's copy. This re-introduces
    /// the pre-tombstone replication bug (a stale replica clobbering
    /// newer data / resurrecting deleted keys) for the deterministic
    /// simulation's mutant-detection proof. Never set in normal use.
    stale_replica_mutant: bool,
    /// Fault injection: when set, a cached owner probe skips the
    /// ownership check — any live node serves reads for keys it holds
    /// a copy of, even after churn moved the key elsewhere. This is
    /// exactly the bug an unverified location cache would have; armed
    /// only for the simulation's mutant-detection proof.
    stale_cache_mutant: bool,
}

/// A simulated Chord DHT.
///
/// The ring starts converged (perfect routing state); after
/// [`join`](ChordDht::join), [`leave`](ChordDht::leave) or
/// [`crash`](ChordDht::crash), routing state is stale until
/// [`stabilize`](ChordDht::stabilize) rounds repair it — lookups still
/// succeed through successor traversal, just with more hops, exactly
/// the degradation mode of a real ring under churn.
///
/// # Examples
///
/// ```
/// use lht_dht::{ChordDht, Dht, DhtKey};
///
/// let dht: ChordDht<String> = ChordDht::with_nodes(32, 42);
/// dht.put(&DhtKey::from("#0"), "bucket".into())?;
/// assert_eq!(dht.get(&DhtKey::from("#0"))?, Some("bucket".into()));
/// // Routing on a 32-node ring takes O(log N) hops per operation.
/// assert!(dht.stats().hops_per_lookup() <= 8.0);
/// # Ok::<(), lht_dht::DhtError>(())
/// ```
pub struct ChordDht<V> {
    inner: Mutex<Ring<V>>,
}

impl<V> std::fmt::Debug for ChordDht<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("ChordDht")
            .field("nodes", &inner.routing.index.len())
            .field("cfg", &inner.cfg)
            .finish()
    }
}

impl<V> ChordDht<V> {
    /// Creates a converged ring of `n` nodes with default
    /// configuration. Node identifiers are `sha1("node:<i>")`;
    /// `seed` drives initiator selection for subsequent operations.
    pub fn with_nodes(n: usize, seed: u64) -> ChordDht<V> {
        Self::with_config(n, seed, ChordConfig::default())
    }

    /// Creates a converged ring of `n` nodes with the given
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `cfg.replicas == 0`.
    pub fn with_config(n: usize, seed: u64, cfg: ChordConfig) -> ChordDht<V> {
        assert!(n > 0, "a ring needs at least one node");
        assert!(cfg.replicas >= 1, "replicas must be at least 1");
        let ids = (0..n).map(|i| sha1(format!("node:{i}").as_bytes()));
        let routing = Routing::converged(ids.collect());
        let stores = routing.nodes.iter().map(|_| NodeStore::default()).collect();
        ChordDht {
            inner: Mutex::new(Ring {
                cfg,
                routing,
                stores,
                stats: DhtStats::default(),
                rng: StdRng::seed_from_u64(seed),
                clock: 0,
                stale_replica_mutant: false,
                stale_cache_mutant: false,
            }),
        }
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.inner.lock().routing.index.len()
    }

    /// Adds a node with identifier `sha1(name)` to the ring: the new
    /// node looks up its successor, takes over the keys it now owns,
    /// and links itself in. Other nodes' routing state stays stale
    /// until [`stabilize`](ChordDht::stabilize).
    ///
    /// Returns the new node's identifier, or `None` if a node with
    /// that identifier already exists.
    pub fn join(&self, name: &str) -> Option<U160> {
        let mut guard = self.inner.lock();
        let Ring {
            routing,
            stores,
            stats,
            ..
        } = &mut *guard;
        let id = sha1(name.as_bytes());
        if routing.live_slot(&id).is_some() {
            return None;
        }
        // The successor inherits nothing; the joiner takes over the
        // keys in (predecessor(successor_before_join), id].
        let succ = routing.owner_of(&id);
        let pred = routing.node(succ).predecessor;
        // Single-node ring before the join (no predecessor): the
        // joiner owns everything hashing into (succ, id].
        let from = routing.node(pred.unwrap_or(succ)).id;

        // The joiner's slot stays dead until it is linked in below, so
        // a predecessor pointer that names the joiner's own earlier
        // life still reads dead here.
        let slot = routing.slot_for(id);
        stores.resize_with(routing.nodes.len(), NodeStore::default);

        // Transfer the keys the joiner now owns from its successor.
        let succ_store = &mut stores[succ as usize];
        let moved_keys: Vec<DhtKey> = succ_store
            .keys()
            .filter(|k| k.hash().in_range(&from, &id))
            .cloned()
            .collect();
        let mut store = NodeStore::default();
        for k in moved_keys {
            let v = succ_store.remove(&k).expect("key present");
            store.insert(k, v);
        }
        stats.keys_transferred += store.len() as u64;
        stores[slot as usize] = store;

        // Link in: successor learns its new predecessor, the old
        // predecessor learns its new successor.
        routing.node_mut(succ).predecessor = Some(slot);
        if let Some(p) = pred.filter(|&p| routing.node(p).alive) {
            let pred = routing.node_mut(p);
            pred.successors.insert(0, slot);
            pred.successors.truncate(SUCCESSOR_LIST_LEN);
        }
        // Fingers stay empty until stabilization builds them.
        let node = routing.node_mut(slot);
        node.predecessor = pred;
        node.successors = vec![succ];
        routing.go_live(slot);
        Some(id)
    }

    /// Gracefully removes the node owning `id`: its keys move to its
    /// successor and its neighbours re-link. Returns `false` if no
    /// such node exists or it is the last node.
    pub fn leave(&self, id: &U160) -> bool {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let Some((slot, predecessor, store)) = inner.retire(id) else {
            return false;
        };
        let routing = &mut inner.routing;
        let succ = routing.owner_of(id); // next live node clockwise
        inner.stats.keys_transferred += store.len() as u64;
        let succ_store = &mut inner.stores[succ as usize];
        // Newest-wins merge: the leaver may hold stale replica copies
        // of keys the successor owns at a newer version. (The armed
        // mutant overwrites blindly instead — the injected bug.)
        for (key, stored) in store {
            if inner.stale_replica_mutant {
                succ_store.insert(key, stored);
            } else {
                merge_copy(succ_store, key, stored);
            }
        }
        routing.node_mut(succ).predecessor = predecessor;
        if let Some(p) = predecessor.filter(|&p| routing.node(p).alive) {
            let pred = routing.node_mut(p);
            pred.successors.retain(|&s| s != slot);
            if pred.successors.is_empty() {
                pred.successors.push(succ);
            }
        }
        true
    }

    /// Crashes the node owning `id`: the node and its stored keys
    /// vanish without handoff. With `replicas > 1` the keys survive on
    /// successor replicas. Returns `false` if no such node exists or
    /// it is the last node.
    pub fn crash(&self, id: &U160) -> bool {
        self.inner.lock().retire(id).is_some()
    }

    /// A diagnostic snapshot of membership and per-node storage load.
    pub fn snapshot(&self) -> RingSnapshot {
        let inner = self.inner.lock();
        let live_keys = |&(_, slot): &(U160, Slot)| {
            let store = &inner.stores[slot as usize];
            store.values().filter(|s| s.value.is_some()).count()
        };
        RingSnapshot {
            node_ids: inner.routing.index.iter().map(|&(id, _)| id).collect(),
            keys_per_node: inner.routing.index.iter().map(live_keys).collect(),
        }
    }

    /// The identifier of the node currently owning `key`
    /// (oracle view; free).
    pub fn owner_of_key(&self, key: &DhtKey) -> Option<U160> {
        self.inner.lock().routing.owner_id(&key.hash())
    }
}

/// A violated Chord-ring invariant found by
/// [`ChordDht::audit_ring`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RingViolation {
    /// A node's successor list contains a departed node.
    DeadSuccessorEntry {
        /// The node holding the stale entry.
        node: U160,
        /// The dead entry.
        entry: U160,
    },
    /// A node's first successor is not the next live node clockwise.
    WrongSuccessor {
        /// The misrouted node.
        node: U160,
        /// What its successor list says.
        got: U160,
        /// The actual next live node.
        expected: U160,
    },
    /// A node's predecessor pointer is dead or not the previous live
    /// node counter-clockwise.
    WrongPredecessor {
        /// The node with the bad pointer.
        node: U160,
    },
    /// A finger entry disagrees with the freshly computed compact
    /// finger table (the distinct owners of `node + 2^i`).
    StaleFinger {
        /// The node holding the finger.
        node: U160,
        /// Position of the stale entry in the node's compact,
        /// distance-sorted finger table.
        index: usize,
    },
    /// A stored key's oracle owner holds no copy of it, so lookups
    /// for it fail even though a replica survives elsewhere.
    UnservableKey {
        /// The key missing from its owner.
        key: DhtKey,
        /// The owner that should hold it.
        owner: U160,
    },
}

impl<V> ChordDht<V> {
    /// Checks ring well-formedness: successor lists hold only live
    /// nodes and start with the true clockwise successor, predecessor
    /// pointers match the true counter-clockwise neighbor, fingers
    /// point at the owners of their targets, and every stored key has
    /// a copy at its current oracle owner.
    ///
    /// These are *converged-state* invariants: they are expected to
    /// hold after [`stabilize`](ChordDht::stabilize) has run (≥ 2
    /// rounds) following any churn, not in the transient window
    /// between a join/leave/crash and repair. Returns all violations
    /// found (empty = converged and consistent).
    pub fn audit_ring(&self) -> Vec<RingViolation> {
        let inner = self.inner.lock();
        let routing = &inner.routing;
        let mut violations = Vec::new();
        let n = routing.index.len();

        for (pos, &(id, slot)) in routing.index.iter().enumerate() {
            let node = routing.node(slot);

            for &entry in &node.successors {
                if !routing.node(entry).alive {
                    violations.push(RingViolation::DeadSuccessorEntry {
                        node: id,
                        entry: routing.node(entry).id,
                    });
                }
            }

            if n > 1 {
                let (expected, expected_slot) = routing.index[(pos + 1) % n];
                let got = node.successors.first().copied().unwrap_or(slot);
                if got != expected_slot {
                    violations.push(RingViolation::WrongSuccessor {
                        node: id,
                        got: routing.node(got).id,
                        expected,
                    });
                }

                let expected_pred = routing.index[(pos + n - 1) % n].1;
                if node.predecessor != Some(expected_pred) {
                    violations.push(RingViolation::WrongPredecessor { node: id });
                }
            }

            // An empty table (a joiner before stabilization) is
            // vacuously clean, as the classic per-entry audit was;
            // otherwise the compact table must match a fresh rebuild
            // entry for entry.
            if !node.fingers.is_empty() {
                let perfect = routing.perfect_fingers(pos);
                for i in 0..node.fingers.len().max(perfect.len()) {
                    if node.fingers.get(i) != perfect.get(i) {
                        violations.push(RingViolation::StaleFinger { node: id, index: i });
                    }
                }
            }
        }

        // Servability: for every key whose newest surviving version is
        // live (not a tombstone), the oracle owner — the node a routed
        // lookup lands on — must hold that newest version. One scan
        // over every copy finds each key's newest sequence number and
        // whether any copy at that number carries a value.
        let mut newest: HashMap<&DhtKey, (u64, bool), crate::KeyHasherBuilder> = HashMap::default();
        for &(_, slot) in &routing.index {
            for (key, stored) in &inner.stores[slot as usize] {
                let live = stored.value.is_some();
                let e = newest.entry(key).or_insert((stored.seq, live));
                if stored.seq > e.0 {
                    *e = (stored.seq, live);
                } else if stored.seq == e.0 {
                    e.1 |= live;
                }
            }
        }
        for (key, (seq, live)) in newest {
            if !live {
                continue;
            }
            let (owner, owner_slot) = routing.index[routing.owner_pos(&key.hash())];
            let served = inner.stores[owner_slot as usize]
                .get(key)
                .is_some_and(|s| s.seq >= seq && s.value.is_some());
            if !served {
                violations.push(RingViolation::UnservableKey {
                    key: key.clone(),
                    owner,
                });
            }
        }

        violations
    }
}

impl<V: Clone> ChordDht<V> {
    /// Enumerates every stored `(key, value)` pair as served by each
    /// key's current oracle owner, one entry per distinct key
    /// (replica copies are not repeated). Free oracle view for
    /// whole-system audits of structures stored on the ring.
    pub fn all_entries(&self) -> Vec<(DhtKey, V)> {
        let inner = self.inner.lock();
        // Newest surviving version of each key wins; keys whose newest
        // version is a tombstone are deleted and do not appear.
        let mut out: BTreeMap<DhtKey, &Stored<V>> = BTreeMap::new();
        for &(_, slot) in &inner.routing.index {
            for (key, stored) in &inner.stores[slot as usize] {
                match out.get(key) {
                    Some(best) if best.seq >= stored.seq => {}
                    _ => {
                        out.insert(key.clone(), stored);
                    }
                }
            }
        }
        out.into_iter()
            .filter_map(|(key, stored)| stored.value.clone().map(|v| (key, v)))
            .collect()
    }
}

impl Routing {
    /// A converged ring over `ids`: every node live, with perfect
    /// successor lists, predecessors and fingers.
    fn converged(mut ids: Vec<U160>) -> Routing {
        ids.sort_unstable();
        ids.dedup();
        // Slots are handed out in ring order, so slot = position here.
        let mut routing = Routing {
            nodes: Vec::new(),
            index: ids.iter().copied().zip(0..).collect(),
            slot_of: ids.iter().copied().zip(0..).collect(),
        };
        let n = ids.len();
        let listed = SUCCESSOR_LIST_LEN.min(n.saturating_sub(1)).max(1);
        let at = |pos: usize| routing.index[pos % n].1;
        routing.nodes = (0..n)
            .map(|pos| Node {
                id: ids[pos],
                alive: true,
                predecessor: Some(at(pos + n - 1)),
                successors: (1..=listed).map(|k| at(pos + k)).collect(),
                fingers: routing.perfect_fingers(pos),
            })
            .collect();
        routing
    }

    fn node(&self, slot: Slot) -> &Node {
        &self.nodes[slot as usize]
    }

    fn node_mut(&mut self, slot: Slot) -> &mut Node {
        &mut self.nodes[slot as usize]
    }

    /// The slot that belongs to `id`: the one it held before if it
    /// was ever a member, else a fresh dead one at the arena's end.
    fn slot_for(&mut self, id: U160) -> Slot {
        *self.slot_of.entry(id).or_insert_with(|| {
            let slot = Slot::try_from(self.nodes.len()).expect("arena outgrew u32 slots");
            self.nodes.push(Node::new(id));
            slot
        })
    }

    /// Makes the node in `slot` a member.
    fn go_live(&mut self, slot: Slot) {
        let node = self.node_mut(slot);
        node.alive = true;
        let id = node.id;
        let pos = self.index.partition_point(|(x, _)| *x < id);
        self.index.insert(pos, (id, slot));
    }

    /// Position in the ring index of the live node `id`, if there is
    /// one.
    fn live_pos(&self, id: &U160) -> Option<usize> {
        self.index.binary_search_by(|(x, _)| x.cmp(id)).ok()
    }

    /// The slot of the live node `id`, if there is one.
    fn live_slot(&self, id: &U160) -> Option<Slot> {
        self.live_pos(id).map(|pos| self.index[pos].1)
    }

    /// Position in the ring index of the live node owning identifier
    /// `h`: the first node clockwise at or after `h`. O(log n) binary
    /// search.
    fn owner_pos(&self, h: &U160) -> usize {
        debug_assert!(!self.index.is_empty());
        let pos = self.index.partition_point(|(id, _)| id < h);
        if pos == self.index.len() {
            0
        } else {
            pos
        }
    }

    /// The live node owning identifier `h`.
    fn owner_of(&self, h: &U160) -> Slot {
        self.index[self.owner_pos(h)].1
    }

    /// The identifier of the live node owning `h`; `None` on an empty
    /// ring.
    fn owner_id(&self, h: &U160) -> Option<U160> {
        if self.index.is_empty() {
            None
        } else {
            Some(self.index[self.owner_pos(h)].0)
        }
    }

    /// The first live node strictly after `id` clockwise.
    fn live_successor(&self, id: &U160) -> Slot {
        let pos = self.index.partition_point(|(x, _)| x <= id);
        self.index[if pos == self.index.len() { 0 } else { pos }].1
    }

    /// The compact perfect finger table for the node at ring position
    /// `pos`: the distinct owners of `id + 2^i` for `i = 0..160`,
    /// excluding `id` itself, in increasing clockwise distance.
    ///
    /// The owner of `id + 2^i` is the first node at clockwise distance
    /// ≥ 2^i from `id` (`id` itself when the target wraps past every
    /// other node, which counts as the full circle), so the owner's
    /// distance is non-decreasing in `i`. Two things follow. Dropping
    /// consecutive repeats leaves a strictly distance-sorted table
    /// with the classic table's candidate set; self-entries carry no
    /// routing information and are dropped too. And walking `i`
    /// *down* from 159, the first target owned by the immediate
    /// successor ends the walk: every smaller target also lies in
    /// `(id, successor]`. The halving targets reach the successor's
    /// arc after ≈ log2 n + 2 owner searches instead of 160.
    fn perfect_fingers(&self, pos: usize) -> Box<[Finger]> {
        let (id, slot) = self.index[pos];
        let successor = self.index[(pos + 1) % self.index.len()].1;
        let mut fingers: Vec<Finger> = Vec::new();
        for i in (0..U160::BITS).rev() {
            let target = id.wrapping_add(&U160::pow2(i));
            let (owner_id, owner) = self.index[self.owner_pos(&target)];
            if owner != slot && fingers.last().map(|f| f.slot) != Some(owner) {
                fingers.push(Finger {
                    dist: id.distance_cw(&owner_id),
                    slot: owner,
                });
            }
            if owner == successor {
                break;
            }
        }
        fingers.reverse();
        fingers.into_boxed_slice()
    }

    /// The first entry of `slot`'s successor list that is still
    /// alive, falling back to the oracle's next-clockwise node
    /// (modelling the timeout-and-probe a real node performs when its
    /// whole list is dead).
    fn first_live_successor_entry(&self, slot: Slot) -> Slot {
        let node = self.node(slot);
        node.successors
            .iter()
            .copied()
            .find(|&s| self.node(s).alive)
            .unwrap_or_else(|| self.live_successor(&node.id))
    }

    /// Iterative Chord lookup of the owner of `h` from a fixed
    /// initiator. Batched rounds share one initiator across all their
    /// finger walks — the round is issued by one client — while each
    /// walk still routes (and is charged hops) independently.
    fn route_from(&self, start: Slot, h: &U160) -> Result<(Slot, u64), DhtError> {
        let single = self.index.len() == 1;
        let mut cur = start;
        let mut hops: u64 = 0;
        loop {
            if hops > MAX_HOPS {
                return Err(DhtError::RoutingFailed { hops });
            }
            let succ = self.first_live_successor_entry(cur);
            // Owner found: h ∈ (cur, succ].
            if single || h.in_range(&self.node(cur).id, &self.node(succ).id) {
                let owner = if single { cur } else { succ };
                // Final hop to deliver the operation at the owner.
                hops += 1;
                return Ok((owner, hops));
            }
            // Otherwise forward to the closest preceding live node.
            let next = self.closest_preceding(cur, h).unwrap_or(succ);
            debug_assert_ne!(next, cur, "routing must make progress");
            cur = next;
            hops += 1;
        }
    }

    /// The closest live routing-table entry of `cur` that strictly
    /// precedes `h` (classic `closest_preceding_node`).
    ///
    /// Candidates with equal clockwise distance from `cur` are the
    /// same node, so the farthest eligible candidate is unique and
    /// this returns exactly what a full max-scan over fingers plus
    /// successors would.
    fn closest_preceding(&self, cur: Slot, h: &U160) -> Option<Slot> {
        let node = self.node(cur);
        let d_h = node.id.distance_cw(h);
        // Fingers are sorted by increasing distance from `cur` and
        // never contain `cur`, so the last live entry among those that
        // strictly precede `h` is the farthest eligible finger.
        let preceding = node.fingers.partition_point(|f| f.dist < d_h);
        let mut best: Option<(U160, Slot)> = node.fingers[..preceding]
            .iter()
            .rev()
            .find(|f| self.node(f.slot).alive)
            .map(|f| (f.dist, f.slot));
        // A successor can still beat every live finger (e.g. while
        // fingers are stale or empty right after a join).
        for &c in &node.successors {
            if c == cur || !self.node(c).alive {
                continue;
            }
            // c must lie strictly between cur and h.
            let d_c = node.id.distance_cw(&self.node(c).id);
            if d_c >= d_h {
                continue;
            }
            match best {
                Some((d_best, _)) if d_c <= d_best => {}
                _ => best = Some((d_c, c)),
            }
        }
        best.map(|(_, slot)| slot)
    }

    /// The owner's replica set: the owner plus its next
    /// `replicas - 1` live successors.
    fn replica_set(&self, owner: Slot, replicas: usize) -> Vec<Slot> {
        let n = self.index.len();
        let pos = self.owner_pos(&self.node(owner).id);
        (0..replicas.min(n))
            .map(|k| self.index[(pos + k) % n].1)
            .collect()
    }
}

impl<V> Ring<V> {
    /// Takes the live node `id` out of the ring, unless it is the
    /// last one: the slot stays in the arena, dead and emptied.
    /// Returns the slot with the predecessor pointer and store the
    /// node had.
    fn retire(&mut self, id: &U160) -> Option<(Slot, Option<Slot>, NodeStore<Stored<V>>)> {
        let routing = &mut self.routing;
        if routing.index.len() == 1 {
            return None;
        }
        let (_, slot) = routing.index.remove(routing.live_pos(id)?);
        let node = std::mem::replace(routing.node_mut(slot), Node::new(*id));
        let store = std::mem::take(&mut self.stores[slot as usize]);
        Some((slot, node.predecessor, store))
    }

    /// Whether one maintenance RPC is lost to the simulated network
    /// (drawing from the ring RNG only under a lossy configuration,
    /// so loss-free seeds replay unchanged).
    fn maintenance_lost(&mut self) -> bool {
        self.cfg.maintenance_loss > 0.0 && self.rng.gen_bool(self.cfg.maintenance_loss)
    }

    fn stabilize_round(&mut self) {
        // Swapped with each node's old list in turn, so a round
        // allocates no successor lists once the first node is done.
        let mut list: Vec<Slot> = Vec::with_capacity(SUCCESSOR_LIST_LEN);
        for pos in 0..self.routing.index.len() {
            // This node's stabilize/notify exchange is lost this
            // round; its routing state stays stale until a later
            // round gets through.
            if self.maintenance_lost() {
                continue;
            }
            let routing = &mut self.routing;
            let (id, me) = routing.index[pos];
            // stabilize(): confirm the successor, adopting its
            // predecessor if that node sits strictly between us and
            // it.
            let succ = routing.first_live_successor_entry(me);
            let d_succ = id.distance_cw(&routing.node(succ).id);
            let new_succ = match routing.node(succ).predecessor {
                Some(x)
                    if x != me
                        && routing.node(x).alive
                        && id.distance_cw(&routing.node(x).id) < d_succ =>
                {
                    x
                }
                _ => succ,
            };
            // notify(): the successor adopts us as predecessor if we
            // are closer than its current one.
            let new_succ_id = routing.node(new_succ).id;
            let adopt = match routing.node(new_succ).predecessor {
                None => true,
                Some(p) if !routing.node(p).alive => true,
                Some(p) => {
                    let p_id = routing.node(p).id;
                    let d_me = p_id.distance_cw(&id);
                    d_me != U160::ZERO && d_me < p_id.distance_cw(&new_succ_id)
                }
            };
            if adopt {
                routing.node_mut(new_succ).predecessor = Some(me);
            }
            // Reconcile the successor list from the (live) successor's.
            list.clear();
            list.push(new_succ);
            for &s in &routing.node(new_succ).successors {
                if list.len() >= SUCCESSOR_LIST_LEN {
                    break;
                }
                if routing.node(s).alive && s != me && !list.contains(&s) {
                    list.push(s);
                }
            }
            let fingers = routing.perfect_fingers(pos);
            let node = routing.node_mut(me);
            std::mem::swap(&mut node.successors, &mut list);
            node.fingers = fingers;
        }
        // Drop dead predecessors.
        let routing = &mut self.routing;
        for pos in 0..routing.index.len() {
            let slot = routing.index[pos].1;
            if let Some(p) = routing.node(slot).predecessor {
                if !routing.node(p).alive {
                    routing.node_mut(slot).predecessor = None;
                }
            }
        }
    }

    /// Draws a random live initiator, as a client joining the overlay
    /// at an arbitrary node would.
    fn draw_initiator(&mut self) -> Result<Slot, DhtError> {
        if self.routing.index.is_empty() {
            return Err(DhtError::EmptyRing);
        }
        // Same draw against the same sorted order as the historical
        // collect-then-index, without materializing the id list.
        let i = self.rng.gen_range(0..self.routing.index.len());
        Ok(self.routing.index[i].1)
    }

    /// Iterative Chord lookup of the owner of identifier `h`, started
    /// from a random initiator. Returns `(owner, hops)`.
    fn route(&mut self, h: &U160) -> Result<(Slot, u64), DhtError> {
        let start = self.draw_initiator()?;
        self.routing.route_from(start, h)
    }

    /// The slot a cached read probe hinted at `owner` may be served
    /// from: the node must be live **and** still the ring's owner of
    /// `h`. The armed stale-cache mutant skips the ownership half —
    /// any live node with a copy answers — which is the injected bug
    /// the simulation checker must catch.
    fn probe_read_slot(&self, owner: &U160, h: &U160) -> Option<Slot> {
        if self.stale_cache_mutant {
            self.routing.live_slot(owner)
        } else {
            self.probe_write_slot(owner, h)
        }
    }

    /// The slot a cached write probe hinted at `owner` may be served
    /// from. Writes are always strictly verified — even under the
    /// armed read mutant — so the mutant's damage is confined to
    /// reads.
    fn probe_write_slot(&self, owner: &U160, h: &U160) -> Option<Slot> {
        // The owner of `h` comes out of the live index, so matching
        // it proves `owner` live as well.
        let (id, slot) = self.routing.index[self.routing.owner_pos(h)];
        (id == *owner).then_some(slot)
    }
}

impl<V: Clone> Ring<V> {
    /// The value `owner` serves for `key`.
    fn read(&self, owner: Slot, key: &DhtKey) -> Option<V> {
        self.stores[owner as usize]
            .get(key)
            .and_then(|s| s.value.clone())
    }

    /// Stamps a fresh version of `key` (`None` deletes: a tombstone,
    /// so stale replica copies cannot resurrect the key through later
    /// synchronization) and writes it at `owner` and the rest of its
    /// replica set, newest-wins. Returns the number of copies written:
    /// each one beyond the owner's costs the write one more hop.
    fn write(&mut self, owner: Slot, key: DhtKey, value: Option<V>) -> u64 {
        self.clock += 1;
        let stored = Stored {
            seq: self.clock,
            value,
        };
        if self.cfg.replicas == 1 {
            // Single-copy fast path (the default): no replica-set
            // walk, no extra replica hops, one store write.
            merge_copy(&mut self.stores[owner as usize], key, stored);
            return 1;
        }
        let replicas = self.routing.replica_set(owner, self.cfg.replicas);
        for &r in &replicas {
            merge_copy(&mut self.stores[r as usize], key.clone(), stored.clone());
        }
        replicas.len() as u64
    }

    /// Copies every stored key to its current oracle owner when the
    /// owner lacks it (replica holders keep their copies). Models the
    /// periodic key synchronization a real deployment (e.g. DHash)
    /// runs alongside stabilization; counted as transferred keys.
    fn sync_keys_to_owners(&mut self) {
        let mut to_copy: Vec<(Slot, DhtKey)> = Vec::new();
        for &(_, holder) in &self.routing.index {
            for (key, stored) in &self.stores[holder as usize] {
                let owner = self.routing.owner_of(&key.hash());
                // The armed mutant offers every copy regardless of
                // version — the injected bug.
                let owner_stale = self.stale_replica_mutant
                    || self.stores[owner as usize]
                        .get(key)
                        .is_none_or(|s| s.seq < stored.seq);
                if owner != holder && owner_stale {
                    to_copy.push((holder, key.clone()));
                }
            }
        }
        for (holder, key) in to_copy {
            // The transfer RPC is lost; the copy stays where it is and
            // is offered again on the next synchronization pass.
            if self.maintenance_lost() {
                continue;
            }
            let Some(stored) = self.stores[holder as usize].get(&key).cloned() else {
                continue;
            };
            let owner = self.routing.owner_of(&key.hash());
            let owner_store = &mut self.stores[owner as usize];
            if self.stale_replica_mutant {
                owner_store.insert(key, stored);
            } else {
                merge_copy(owner_store, key, stored);
            }
            self.stats.keys_transferred += 1;
        }
    }
}

impl<V: Clone> ChordDht<V> {
    /// Runs `rounds` of stabilization on every node: successor/
    /// predecessor repair, successor-list reconciliation and finger
    /// repair, as in Chord's periodic `stabilize` + `fix_fingers`,
    /// followed by one key-synchronization pass (as in DHash's
    /// periodic repair): every stored copy of a key is offered to the
    /// key's current owner, so ownership changes from churn become
    /// servable again wherever a live copy survives.
    pub fn stabilize(&self, rounds: usize) {
        let mut inner = self.inner.lock();
        for _ in 0..rounds {
            inner.stabilize_round();
        }
        inner.sync_keys_to_owners();
    }

    /// Runs exactly *one* stabilization round and nothing else — the
    /// schedulable maintenance quantum a deterministic scheduler
    /// interleaves between client operations. Unlike
    /// [`stabilize`](Self::stabilize) it performs no key
    /// synchronization; pair it with
    /// [`key_sync_step`](Self::key_sync_step).
    pub fn stabilize_step(&self) {
        self.inner.lock().stabilize_round();
    }

    /// Runs exactly one key-synchronization pass (every stored copy
    /// offered to its current owner) and no stabilization — the other
    /// schedulable maintenance quantum. The partial-repair windows
    /// between interleaved [`stabilize_step`](Self::stabilize_step)
    /// and `key_sync_step` calls are exactly where replica-
    /// reconciliation bugs live.
    pub fn key_sync_step(&self) {
        self.inner.lock().sync_keys_to_owners();
    }

    /// Arms the stale-replica fault injection: replica reconciliation
    /// (a graceful leaver's handoff, the key-sync pass) stops
    /// honouring sequence numbers and overwrites blindly, so a stale
    /// surviving copy can clobber newer data or resurrect a deleted
    /// key — the historical replication bug this codebase once had,
    /// re-introduced on demand so the deterministic-simulation
    /// checker can prove it would have caught it.
    pub fn arm_stale_replica_mutant(&self) {
        self.inner.lock().stale_replica_mutant = true;
    }

    /// Arms the stale-cache-read fault injection: cached owner probes
    /// ([`Dht::probe_get`]) stop verifying that the hinted node still
    /// owns the key — any live node holding a copy serves the read.
    /// After churn moves a key, a stale cache entry then reads the old
    /// replica instead of degrading to a full route: the bug a
    /// location cache without ownership verification would ship, re-
    /// introduced on demand so the deterministic-simulation checker
    /// can prove it would be caught.
    pub fn arm_stale_cache_mutant(&self) {
        self.inner.lock().stale_cache_mutant = true;
    }
}

impl<V: Clone> Dht for ChordDht<V> {
    type Value = V;

    fn get(&self, key: &DhtKey) -> Result<Option<V>, DhtError> {
        let mut inner = self.inner.lock();
        let (owner, hops) = inner.route(&key.hash())?;
        let found = inner.read(owner, key);
        inner.stats.record_op(
            DhtOp::Get {
                found: found.is_some(),
            },
            hops,
        );
        Ok(found)
    }

    fn put(&self, key: &DhtKey, value: V) -> Result<(), DhtError> {
        let mut inner = self.inner.lock();
        let (owner, hops) = inner.route(&key.hash())?;
        let copies = inner.write(owner, key.clone(), Some(value));
        inner.stats.record_op(DhtOp::Put, hops + copies - 1);
        Ok(())
    }

    fn remove(&self, key: &DhtKey) -> Result<Option<V>, DhtError> {
        let mut inner = self.inner.lock();
        let (owner, hops) = inner.route(&key.hash())?;
        let out = inner.read(owner, key);
        let copies = inner.write(owner, key.clone(), None);
        inner.stats.record_op(DhtOp::Remove, hops + copies - 1);
        Ok(out)
    }

    fn update(&self, key: &DhtKey, f: &mut dyn FnMut(&mut Option<V>)) -> Result<(), DhtError> {
        let mut inner = self.inner.lock();
        let (owner, hops) = inner.route(&key.hash())?;
        if inner.cfg.replicas == 1 {
            // In-place read-modify-write at the owner: the fresh seq
            // always wins the newest-wins comparison, so mutating the
            // slot directly is equivalent to clone + merge while
            // never copying the stored value (a whole leaf bucket on
            // the index insert path).
            inner.clock += 1;
            let seq = inner.clock;
            inner.stats.record_op(DhtOp::Update, hops);
            let store = &mut inner.stores[owner as usize];
            match store.get_mut(key) {
                Some(entry) => {
                    f(&mut entry.value);
                    entry.seq = seq;
                }
                None => {
                    let mut slot = None;
                    f(&mut slot);
                    store.insert(key.clone(), Stored { seq, value: slot });
                }
            }
            return Ok(());
        }
        let mut slot = inner.read(owner, key);
        f(&mut slot);
        let copies = inner.write(owner, key.clone(), slot);
        inner.stats.record_op(DhtOp::Update, hops + copies - 1);
        Ok(())
    }

    fn multi_get(&self, keys: &[DhtKey]) -> Vec<Result<Option<V>, DhtError>> {
        let mut inner = self.inner.lock();
        let start = match inner.draw_initiator() {
            Ok(s) => s,
            Err(e) => return keys.iter().map(|_| Err(e.clone())).collect(),
        };
        let mut out = Vec::with_capacity(keys.len());
        let mut ops = Vec::with_capacity(keys.len());
        for key in keys {
            match inner.routing.route_from(start, &key.hash()) {
                Ok((owner, hops)) => {
                    let found = inner.read(owner, key);
                    ops.push((
                        DhtOp::Get {
                            found: found.is_some(),
                        },
                        hops,
                    ));
                    out.push(Ok(found));
                }
                Err(e) => out.push(Err(e)),
            }
        }
        inner.stats.record_batch(ops);
        out
    }

    fn multi_put(&self, entries: Vec<(DhtKey, V)>) -> Vec<Result<(), DhtError>> {
        let mut inner = self.inner.lock();
        let start = match inner.draw_initiator() {
            Ok(s) => s,
            Err(e) => return entries.iter().map(|_| Err(e.clone())).collect(),
        };
        let mut out = Vec::with_capacity(entries.len());
        let mut ops = Vec::with_capacity(entries.len());
        for (key, value) in entries {
            match inner.routing.route_from(start, &key.hash()) {
                Ok((owner, hops)) => {
                    // One extra hop per replica write beyond the owner.
                    let copies = inner.write(owner, key, Some(value));
                    ops.push((DhtOp::Put, hops + copies - 1));
                    out.push(Ok(()));
                }
                Err(e) => out.push(Err(e)),
            }
        }
        inner.stats.record_batch(ops);
        out
    }

    fn probe_get(&self, key: &DhtKey, owner: U160) -> Result<Probe<Option<V>>, DhtError> {
        let mut inner = self.inner.lock();
        if inner.routing.index.is_empty() {
            return Err(DhtError::EmptyRing);
        }
        let Some(owner) = inner.probe_read_slot(&owner, &key.hash()) else {
            // One wasted hop to discover the hint is stale; no
            // logical operation completed, so no lookup and no round.
            inner.stats.hops += 1;
            return Ok(Probe::Stale);
        };
        let found = inner.read(owner, key);
        inner.stats.record_op(
            DhtOp::Get {
                found: found.is_some(),
            },
            1,
        );
        Ok(Probe::Served(found))
    }

    fn probe_put(&self, key: &DhtKey, value: V, owner: U160) -> Result<Probe<()>, DhtError> {
        let mut inner = self.inner.lock();
        if inner.routing.index.is_empty() {
            return Err(DhtError::EmptyRing);
        }
        let Some(owner) = inner.probe_write_slot(&owner, &key.hash()) else {
            inner.stats.hops += 1;
            return Ok(Probe::Stale);
        };
        // One probe hop plus one hop per replica write beyond the
        // owner — same write fan-out as the routed put.
        let copies = inner.write(owner, key.clone(), Some(value));
        inner.stats.record_op(DhtOp::Put, copies);
        Ok(Probe::Served(()))
    }

    fn probe_multi_get(
        &self,
        probes: &[(DhtKey, U160)],
    ) -> Vec<Result<Probe<Option<V>>, DhtError>> {
        let mut inner = self.inner.lock();
        if inner.routing.index.is_empty() {
            return probes.iter().map(|_| Err(DhtError::EmptyRing)).collect();
        }
        let mut out = Vec::with_capacity(probes.len());
        let mut ops = Vec::with_capacity(probes.len());
        for (key, owner) in probes {
            let Some(owner) = inner.probe_read_slot(owner, &key.hash()) else {
                inner.stats.hops += 1;
                out.push(Ok(Probe::Stale));
                continue;
            };
            let found = inner.read(owner, key);
            ops.push((
                DhtOp::Get {
                    found: found.is_some(),
                },
                1,
            ));
            out.push(Ok(Probe::Served(found)));
        }
        // Only the served probes form a round; an all-stale batch
        // records nothing (the fallback route is the round).
        inner.stats.record_batch(ops);
        out
    }

    fn probe_multi_put(&self, entries: Vec<(DhtKey, V, U160)>) -> Vec<Result<Probe<()>, DhtError>> {
        let mut inner = self.inner.lock();
        if inner.routing.index.is_empty() {
            return entries.iter().map(|_| Err(DhtError::EmptyRing)).collect();
        }
        let mut out = Vec::with_capacity(entries.len());
        let mut ops = Vec::with_capacity(entries.len());
        for (key, value, owner) in entries {
            let Some(owner) = inner.probe_write_slot(&owner, &key.hash()) else {
                inner.stats.hops += 1;
                out.push(Ok(Probe::Stale));
                continue;
            };
            let copies = inner.write(owner, key, Some(value));
            ops.push((DhtOp::Put, copies));
            out.push(Ok(Probe::Served(())));
        }
        inner.stats.record_batch(ops);
        out
    }

    fn owner_hint(&self, key: &DhtKey) -> Option<U160> {
        self.inner.lock().routing.owner_id(&key.hash())
    }

    fn stats(&self) -> DhtStats {
        self.inner.lock().stats
    }

    fn hops(&self) -> u64 {
        self.inner.lock().stats.hops
    }

    fn reset_stats(&self) {
        self.inner.lock().stats = DhtStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> DhtKey {
        DhtKey::from(s)
    }

    /// Whether the live node `id` holds a copy of `key`.
    fn holds(dht: &ChordDht<u64>, id: &U160, key: &DhtKey) -> bool {
        let inner = dht.inner.lock();
        let slot = inner.routing.live_slot(id).expect("a live node");
        inner.stores[slot as usize].contains_key(key)
    }

    #[test]
    fn put_get_round_trip_small_ring() {
        let dht: ChordDht<u32> = ChordDht::with_nodes(8, 1);
        for i in 0..50u32 {
            dht.put(&k(&format!("key:{i}")), i).unwrap();
        }
        for i in 0..50u32 {
            assert_eq!(dht.get(&k(&format!("key:{i}"))).unwrap(), Some(i));
        }
        assert_eq!(dht.get(&k("missing")).unwrap(), None);
    }

    #[test]
    fn single_node_ring_works() {
        let dht: ChordDht<u32> = ChordDht::with_nodes(1, 1);
        dht.put(&k("a"), 1).unwrap();
        assert_eq!(dht.get(&k("a")).unwrap(), Some(1));
        assert_eq!(dht.remove(&k("a")).unwrap(), Some(1));
    }

    #[test]
    fn hops_scale_logarithmically() {
        for &(n, bound) in &[(16usize, 6.0f64), (64, 8.0), (256, 10.0)] {
            let dht: ChordDht<u32> = ChordDht::with_nodes(n, 7);
            for i in 0..200u32 {
                dht.get(&k(&format!("probe:{i}"))).unwrap();
            }
            let per = dht.stats().hops_per_lookup();
            assert!(
                per <= bound,
                "{n}-node ring took {per} hops/lookup, expected <= {bound}"
            );
            assert!(per >= 1.0);
        }
    }

    #[test]
    fn routing_matches_ownership_oracle() {
        let dht: ChordDht<u64> = ChordDht::with_nodes(32, 3);
        // Every key routed through fingers must land on the oracle
        // owner: put then verify placement via the snapshot.
        for i in 0..100u64 {
            let key = k(&format!("oracle:{i}"));
            dht.put(&key, i).unwrap();
            let owner = dht.owner_of_key(&key).unwrap();
            assert!(
                holds(&dht, &owner, &key),
                "key {key} not stored at oracle owner"
            );
        }
    }

    #[test]
    fn update_executes_at_owner() {
        let dht: ChordDht<Vec<u32>> = ChordDht::with_nodes(16, 5);
        dht.update(&k("bucket"), &mut |slot| {
            slot.get_or_insert_with(Vec::new).push(9);
        })
        .unwrap();
        assert_eq!(dht.get(&k("bucket")).unwrap(), Some(vec![9]));
        dht.update(&k("bucket"), &mut |slot| *slot = None).unwrap();
        assert_eq!(dht.get(&k("bucket")).unwrap(), None);
    }

    #[test]
    fn join_transfers_exactly_the_inherited_keys() {
        let dht: ChordDht<u64> = ChordDht::with_nodes(8, 11);
        for i in 0..200u64 {
            dht.put(&k(&format!("key:{i}")), i).unwrap();
        }
        let before_total = dht.snapshot().total_keys();
        let id = dht.join("node:extra").expect("fresh id");
        dht.stabilize(2);
        assert_eq!(dht.node_count(), 9);
        assert_eq!(
            dht.snapshot().total_keys(),
            before_total,
            "join must not lose or duplicate keys"
        );
        // All data still reachable, and keys owned by the joiner are
        // served by it.
        for i in 0..200u64 {
            let key = k(&format!("key:{i}"));
            assert_eq!(dht.get(&key).unwrap(), Some(i));
            if dht.owner_of_key(&key) == Some(id) {
                assert!(holds(&dht, &id, &key));
            }
        }
    }

    #[test]
    fn graceful_leave_preserves_all_data() {
        let dht: ChordDht<u64> = ChordDht::with_nodes(10, 13);
        for i in 0..300u64 {
            dht.put(&k(&format!("key:{i}")), i).unwrap();
        }
        let victim = dht.snapshot().node_ids[3];
        assert!(dht.leave(&victim));
        dht.stabilize(2);
        assert_eq!(dht.node_count(), 9);
        for i in 0..300u64 {
            assert_eq!(
                dht.get(&k(&format!("key:{i}"))).unwrap(),
                Some(i),
                "key {i} lost after graceful leave"
            );
        }
        assert!(dht.stats().keys_transferred > 0);
    }

    #[test]
    fn crash_without_replication_loses_only_victim_keys() {
        let dht: ChordDht<u64> = ChordDht::with_nodes(10, 17);
        for i in 0..300u64 {
            dht.put(&k(&format!("key:{i}")), i).unwrap();
        }
        let snapshot = dht.snapshot();
        let victim = snapshot.node_ids[5];
        let victim_keys = snapshot.keys_per_node[5];
        assert!(dht.crash(&victim));
        dht.stabilize(3);
        let mut lost = 0;
        for i in 0..300u64 {
            if dht.get(&k(&format!("key:{i}"))).unwrap().is_none() {
                lost += 1;
            }
        }
        assert_eq!(lost, victim_keys, "exactly the victim's keys are lost");
    }

    #[test]
    fn crash_with_replication_loses_nothing() {
        let cfg = ChordConfig {
            replicas: 2,
            ..ChordConfig::default()
        };
        let dht: ChordDht<u64> = ChordDht::with_config(10, 19, cfg);
        for i in 0..300u64 {
            dht.put(&k(&format!("key:{i}")), i).unwrap();
        }
        let victim = dht.snapshot().node_ids[4];
        assert!(dht.crash(&victim));
        dht.stabilize(3);
        for i in 0..300u64 {
            assert_eq!(
                dht.get(&k(&format!("key:{i}"))).unwrap(),
                Some(i),
                "replicated key {i} lost after crash"
            );
        }
    }

    #[test]
    fn lookups_survive_churn_before_stabilization() {
        let dht: ChordDht<u64> = ChordDht::with_nodes(32, 23);
        for i in 0..100u64 {
            dht.put(&k(&format!("key:{i}")), i).unwrap();
        }
        // Several leaves without any stabilization: successor-list
        // fallback must keep routing alive.
        let ids = dht.snapshot().node_ids;
        for victim in ids.iter().step_by(11).take(2) {
            dht.leave(victim);
        }
        for i in 0..100u64 {
            assert_eq!(dht.get(&k(&format!("key:{i}"))).unwrap(), Some(i));
        }
    }

    #[test]
    fn join_then_leave_is_idempotent_on_membership() {
        let dht: ChordDht<u64> = ChordDht::with_nodes(5, 29);
        assert!(dht.join("node:x").is_some());
        assert!(dht.join("node:x").is_none(), "duplicate join rejected");
        let id = sha1(b"node:x");
        assert!(dht.leave(&id));
        assert!(!dht.leave(&id));
        assert_eq!(dht.node_count(), 5);
    }

    #[test]
    fn last_node_cannot_leave_or_crash() {
        let dht: ChordDht<u64> = ChordDht::with_nodes(1, 31);
        let id = dht.snapshot().node_ids[0];
        assert!(!dht.leave(&id));
        assert!(!dht.crash(&id));
    }

    #[test]
    fn storage_load_is_roughly_balanced() {
        let dht: ChordDht<u64> = ChordDht::with_nodes(64, 37);
        let n_keys = 6400u64;
        for i in 0..n_keys {
            dht.put(&k(&format!("key:{i}")), i).unwrap();
        }
        let snap = dht.snapshot();
        assert_eq!(snap.total_keys() as u64, n_keys);
        let max = *snap.keys_per_node.iter().max().unwrap();
        // Without virtual nodes, consistent hashing gives the largest
        // arc an O(log N / N) share — about Θ(log N) times the mean of
        // 100 here — so allow a generous but finite skew.
        assert!(
            max < 1200,
            "max load {max} too skewed for consistent hashing"
        );
    }

    #[test]
    fn maintenance_loss_delays_repair_but_never_corrupts() {
        let cfg = ChordConfig {
            replicas: 3,
            maintenance_loss: 0.5,
        };
        let dht: ChordDht<u64> = ChordDht::with_config(24, 41, cfg);
        for i in 0..200u64 {
            dht.put(&k(&format!("key:{i}")), i).unwrap();
        }
        // Churn with half of all maintenance RPCs lost: repeated
        // stabilization must still converge — lost rounds are retried,
        // and a lost transfer leaves the copy where it was, so no pass
        // can install stale data.
        let ids = dht.snapshot().node_ids;
        for victim in ids.iter().step_by(7).take(3) {
            dht.crash(victim);
        }
        assert!(dht.join("node:fresh").is_some());
        for _ in 0..12 {
            dht.stabilize(2);
        }
        for i in 0..200u64 {
            assert_eq!(
                dht.get(&k(&format!("key:{i}"))).unwrap(),
                Some(i),
                "key {i} wrong after lossy maintenance converged"
            );
        }
        assert!(dht.audit_ring().is_empty(), "ring invariants violated");
    }

    #[test]
    fn zero_maintenance_loss_leaves_seed_stream_unchanged() {
        // The lossy path must not draw from the ring RNG when the
        // probability is zero: two rings with the same seed, one
        // configured before and one after the field existed, route
        // identically.
        let a: ChordDht<u64> = ChordDht::with_nodes(16, 77);
        let b: ChordDht<u64> = ChordDht::with_config(16, 77, ChordConfig::default());
        for i in 0..50u64 {
            a.put(&k(&format!("key:{i}")), i).unwrap();
            b.put(&k(&format!("key:{i}")), i).unwrap();
        }
        a.stabilize(2);
        b.stabilize(2);
        for i in 0..50u64 {
            assert_eq!(a.get(&k(&format!("key:{i}"))).unwrap(), Some(i));
            assert_eq!(b.get(&k(&format!("key:{i}"))).unwrap(), Some(i));
        }
        assert_eq!(
            a.stats(),
            b.stats(),
            "identical seeds must replay identically"
        );
    }

    #[test]
    fn verified_probe_matches_routed_get_at_one_hop() {
        let dht: ChordDht<u64> = ChordDht::with_nodes(32, 43);
        for i in 0..50u64 {
            dht.put(&k(&format!("key:{i}")), i).unwrap();
        }
        dht.reset_stats();
        for i in 0..50u64 {
            let key = k(&format!("key:{i}"));
            let owner = dht.owner_hint(&key).unwrap();
            match dht.probe_get(&key, owner).unwrap() {
                Probe::Served(v) => assert_eq!(v, Some(i)),
                other => panic!("fresh hint must serve, got {other:?}"),
            }
        }
        let s = dht.stats();
        assert_eq!(s.gets, 50);
        assert_eq!(s.hops, 50, "each served probe costs exactly one hop");
        assert_eq!(s.rounds, 50);
    }

    #[test]
    fn stale_probe_wastes_one_hop_but_never_answers() {
        let dht: ChordDht<u64> = ChordDht::with_nodes(16, 47);
        let key = k("probe-me");
        dht.put(&key, 7).unwrap();
        let old_owner = dht.owner_hint(&key).unwrap();
        // The owner leaves: its keys hand off to the successor, so the
        // hint is now stale (a dead node).
        assert!(dht.leave(&old_owner));
        dht.stabilize(2);
        dht.reset_stats();
        assert_eq!(dht.probe_get(&key, old_owner).unwrap(), Probe::Stale);
        let s = dht.stats();
        assert_eq!(s.hops, 1, "one wasted hop");
        assert_eq!(s.lookups(), 0, "a stale probe is not a lookup");
        assert_eq!(s.rounds, 0, "…and not a round");
        // A live node that does not own the key is equally stale.
        let not_owner = dht
            .snapshot()
            .node_ids
            .into_iter()
            .find(|id| *id != dht.owner_hint(&key).unwrap())
            .unwrap();
        assert_eq!(dht.probe_get(&key, not_owner).unwrap(), Probe::Stale);
    }

    #[test]
    fn probe_put_preserves_seq_and_tombstone_semantics() {
        let cfg = ChordConfig {
            replicas: 2,
            ..ChordConfig::default()
        };
        let dht: ChordDht<u64> = ChordDht::with_config(16, 53, cfg);
        let key = k("versioned");
        let owner = dht.owner_hint(&key).unwrap();
        assert_eq!(dht.probe_put(&key, 1, owner).unwrap(), Probe::Served(()));
        // The probe write is replicated and newest-wins like a routed
        // put: a later routed remove's tombstone beats it.
        dht.remove(&key).unwrap();
        dht.stabilize(2);
        assert_eq!(dht.get(&key).unwrap(), None, "tombstone wins");
        // Write fan-out charges the same hops as a 1-hop routed put.
        dht.reset_stats();
        dht.probe_put(&key, 2, dht.owner_hint(&key).unwrap())
            .unwrap();
        assert_eq!(dht.stats().hops, 2, "probe hop + one replica hop");
        assert_eq!(dht.get(&key).unwrap(), Some(2));
    }

    #[test]
    fn armed_stale_cache_mutant_serves_moved_keys_from_old_replicas() {
        let cfg = ChordConfig {
            replicas: 2,
            ..ChordConfig::default()
        };
        let dht: ChordDht<u64> = ChordDht::with_config(8, 59, cfg);
        let key = k("moves");
        dht.put(&key, 1).unwrap();
        let old_owner = dht.owner_hint(&key).unwrap();
        // With replicas = 2 the second copy lives at the owner's ring
        // successor.
        let ids = dht.snapshot().node_ids;
        let pos = ids.iter().position(|id| *id == old_owner).unwrap();
        let replica_holder = ids[(pos + 1) % ids.len()];
        // Find a joiner whose hash lands strictly between the key and
        // its owner — it takes over the key — then join it.
        let h = key.hash();
        let squatter = (0..100_000u64)
            .map(|i| format!("node:squatter:{i}"))
            .find(|name| sha1(name.as_bytes()).in_range(&h, &old_owner))
            .expect("some candidate hashes into (key, owner)");
        dht.join(&squatter).expect("fresh node id");
        assert_ne!(dht.owner_hint(&key), Some(old_owner), "ownership moved");
        dht.stabilize(1);
        // The new owner's replica set is {joiner, old owner}: the old
        // replica holder never hears about this write and keeps its
        // seq-1 copy.
        dht.put(&key, 2).unwrap();
        let new_owner = dht.owner_hint(&key).unwrap();
        assert_ne!(new_owner, old_owner);
        assert_ne!(replica_holder, new_owner);
        assert_eq!(dht.get(&key).unwrap(), Some(2));
        // Honest probe at the stale replica holder: Stale, never an
        // answer.
        assert_eq!(dht.probe_get(&key, replica_holder).unwrap(), Probe::Stale);
        // Armed mutant: any live holder serves, so the probe reads the
        // moved key's old replica.
        dht.arm_stale_cache_mutant();
        assert_eq!(
            dht.probe_get(&key, replica_holder).unwrap(),
            Probe::Served(Some(1)),
            "mutant must read the moved key's old replica"
        );
        // Writes stay verified even under the armed read mutant.
        assert_eq!(
            dht.probe_put(&key, 9, replica_holder).unwrap(),
            Probe::Stale
        );
    }

    #[test]
    fn probe_batches_split_round_accounting_like_multi_get() {
        let dht: ChordDht<u64> = ChordDht::with_nodes(16, 61);
        for i in 0..8u64 {
            dht.put(&k(&format!("key:{i}")), i).unwrap();
        }
        let dead = dht.owner_hint(&k("key:0")).unwrap();
        let probes: Vec<(DhtKey, U160)> = (0..8u64)
            .map(|i| {
                let key = k(&format!("key:{i}"));
                let owner = dht.owner_hint(&key).unwrap();
                (key, owner)
            })
            .collect();
        assert!(dht.leave(&dead));
        dht.stabilize(2);
        dht.reset_stats();
        let out = dht.probe_multi_get(&probes);
        let served = out
            .iter()
            .filter(|r| matches!(r, Ok(Probe::Served(_))))
            .count();
        let stale = out.iter().filter(|r| matches!(r, Ok(Probe::Stale))).count();
        assert!(stale >= 1, "the departed owner's probes must be stale");
        assert_eq!(served + stale, 8);
        let s = dht.stats();
        assert_eq!(s.gets as usize, served);
        assert_eq!(s.hops as usize, served + stale);
        assert_eq!(s.rounds, 1, "served probes form one round");
        assert_eq!(s.round_hops, 1);
        assert!(s.rounds <= s.lookups());
    }

    /// Slots of the live nodes that still name `target` in their
    /// successor list, and in their finger table.
    fn namers(dht: &ChordDht<u64>, target: Slot) -> (Vec<Slot>, Vec<Slot>) {
        let inner = dht.inner.lock();
        let routing = &inner.routing;
        let live = || routing.index.iter().map(|&(_, slot)| slot);
        (
            live()
                .filter(|&s| routing.node(s).successors.contains(&target))
                .collect(),
            live()
                .filter(|&s| routing.node(s).fingers.iter().any(|f| f.slot == target))
                .collect(),
        )
    }

    #[test]
    fn departed_node_keeps_its_slot_and_reads_live_again_after_rejoin() {
        // Hop totals of the three read sweeps, as the id-keyed node
        // map routed them before the arena (same seeds): a stale entry
        // naming the departed node must be skipped at the same places,
        // and followed again at the same places once the name is back.
        const HOPS: [u64; 3] = [330, 311, 323];
        for graceful in [true, false] {
            let cfg = ChordConfig {
                replicas: 2, // the crash must lose nothing
                ..ChordConfig::default()
            };
            let dht: ChordDht<u64> = ChordDht::with_config(32, 67, cfg);
            for i in 0..100u64 {
                dht.put(&k(&format!("key:{i}")), i).unwrap();
            }
            // (hops, keys read back) of one read of every key.
            let sweep = || {
                dht.reset_stats();
                let hits = (0..100u64)
                    .filter(|i| dht.get(&k(&format!("key:{i}"))).unwrap() == Some(*i))
                    .count();
                (dht.stats().hops, hits)
            };
            assert_eq!(sweep(), (HOPS[0], 100));

            let victim = sha1(b"node:5");
            let (arena, slot) = {
                let inner = dht.inner.lock();
                let slot = inner.routing.live_slot(&victim).expect("a member");
                (inner.routing.nodes.len(), slot)
            };
            let (in_lists, in_fingers) = namers(&dht, slot);
            assert!(in_lists.len() >= 2 && !in_fingers.is_empty());

            assert!(if graceful {
                dht.leave(&victim)
            } else {
                dht.crash(&victim)
            });
            {
                let inner = dht.inner.lock();
                let node = inner.routing.node(slot);
                assert_eq!((node.id, node.alive), (victim, false));
                assert!(node.successors.is_empty() && node.fingers.is_empty());
                assert!(inner.stores[slot as usize].is_empty());
                assert_eq!(inner.routing.live_slot(&victim), None);
            }
            // No stabilization: the others still name the dead slot
            // (a graceful leaver unlinks itself from its predecessor
            // only), and routing skips it.
            let (stale_lists, stale_fingers) = namers(&dht, slot);
            assert_eq!(stale_lists.len(), in_lists.len() - graceful as usize);
            assert_eq!(stale_fingers, in_fingers);
            assert_eq!(sweep(), (HOPS[1], 100));

            // The same name is handed the same slot back, and every
            // stale entry naming it reads live again.
            assert_eq!(dht.join("node:5"), Some(victim));
            {
                let inner = dht.inner.lock();
                assert_eq!(inner.routing.nodes.len(), arena, "a rejoin grew the arena");
                assert_eq!(inner.stores.len(), arena);
                assert_eq!(inner.routing.live_slot(&victim), Some(slot));
                assert!(inner.routing.node(slot).alive);
            }
            assert_eq!(namers(&dht, slot).1, in_fingers);
            let (hops, hits) = sweep();
            assert_eq!(hops, HOPS[2]);
            // (A crashed node that rejoins before its successor has
            // dropped the dead predecessor pointer is handed that
            // successor's whole store — ROADMAP `[zave]` — so only the
            // graceful leaver is certain to read everything back.)
            assert!(!graceful || hits == 100);

            // A name never seen before does grow the arena, by one.
            assert!(dht.join("node:never-seen").is_some());
            assert_eq!(dht.inner.lock().routing.nodes.len(), arena + 1);
            dht.stabilize(3);
            assert_eq!(sweep().1, 100);
            assert_eq!(namers(&dht, slot).0.len(), in_lists.len());
        }
    }

    /// The 160-target ascending scan that `perfect_fingers` replaced,
    /// kept as its reference: every target's owner is searched, and
    /// self-entries and consecutive repeats are dropped on the way up.
    fn fingers_by_full_scan(routing: &Routing, pos: usize) -> Vec<Finger> {
        let (id, slot) = routing.index[pos];
        let mut fingers: Vec<Finger> = Vec::new();
        for i in 0..U160::BITS {
            let target = id.wrapping_add(&U160::pow2(i));
            let (owner_id, owner) = routing.index[routing.owner_pos(&target)];
            if owner == slot || fingers.last().map(|f| f.slot) == Some(owner) {
                continue;
            }
            fingers.push(Finger {
                dist: id.distance_cw(&owner_id),
                slot: owner,
            });
        }
        fingers
    }

    fn assert_fingers_match_full_scan(ids: Vec<U160>) {
        let routing = Routing::converged(ids);
        for (pos, &(id, slot)) in routing.index.iter().enumerate() {
            let built = routing.perfect_fingers(pos);
            assert_eq!(
                built.to_vec(),
                fingers_by_full_scan(&routing, pos),
                "node {id} of {:?}",
                routing.index
            );
            assert_eq!(routing.node(slot).fingers, built);
            assert!(built.windows(2).all(|w| w[0].dist < w[1].dist));
        }
    }

    #[test]
    fn descending_finger_build_matches_full_scan_on_tiny_rings() {
        let n = U160::from_u64;
        let half = U160::pow2(159);
        for ids in [
            vec![n(0)],
            vec![U160::MAX],
            vec![n(7), n(8)],      // adjacent
            vec![n(0), half],      // antipodal
            vec![U160::MAX, n(0)], // adjacent across the wrap
            vec![n(5), half.wrapping_add(&n(5)), half.wrapping_add(&n(6))],
            vec![n(1), n(2), n(3)],
            vec![n(0), U160::pow2(80), U160::MAX],
        ] {
            assert_fingers_match_full_scan(ids);
        }
    }

    /// An identifier from two random words: uniform over the ring, or
    /// packed near zero, near a power of two, or just under the wrap —
    /// the places where a target lands exactly on, one short of, or
    /// one past a node.
    fn shaped_id((a, b, shape): (u64, u64, u32)) -> U160 {
        match shape {
            0 => sha1(&[a.to_be_bytes(), b.to_be_bytes()].concat()),
            1 => U160::from_u64(a % 64),
            2 => U160::pow2((a % 160) as u32)
                .wrapping_add(&U160::from_u64(b % 3))
                .wrapping_sub(&U160::from_u64(1)),
            _ => U160::MAX.wrapping_sub(&U160::from_u64(a % 64)),
        }
    }

    proptest::proptest! {
        /// The descending early-exit build equals the full ascending
        /// scan on rings of 1–64 nodes, clustered identifiers included.
        #[test]
        fn descending_finger_build_matches_full_scan(
            seeds in proptest::collection::vec(
                (proptest::prelude::any::<u64>(), proptest::prelude::any::<u64>(), 0u32..4),
                1..65,
            ),
        ) {
            assert_fingers_match_full_scan(seeds.into_iter().map(shaped_id).collect());
        }
    }

    #[test]
    fn chord_is_send_sync() {
        fn assert_bounds<T: Send + Sync>() {}
        assert_bounds::<ChordDht<u64>>();
    }
}
