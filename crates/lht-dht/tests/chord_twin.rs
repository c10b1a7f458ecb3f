//! Differential twin for the Chord routing overhaul.
//!
//! `RefRing` below is a line-for-line reference implementation of the
//! *historical* routing algorithm this PR replaced: owner resolution
//! by walking the node map (`BTreeMap::range`), full 160-entry
//! perfect finger tables, and a linear max-scan
//! `closest_preceding_node` over fingers chained with successors.
//! The overhauled `ChordDht` (shared sorted ring index, binary-search
//! `owner_of`, compact distance-sorted fingers) must be
//! *observationally identical*: same per-op results, same final
//! stored entries, same owner for every key, and — the accounting
//! contract — the exact same `DhtStats`, hop totals included, over
//! identical operation traces with identical RNG seeds, through
//! joins, graceful leaves, crashes and stabilization.
//!
//! Traces run at `maintenance_loss = 0` (the default, and the only
//! configuration where the historical store-iteration order provably
//! cannot influence RNG draws), so a single diverging hop anywhere
//! in a trace fails the final stats equality.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use lht_dht::{ChordConfig, ChordDht, Dht, DhtError, DhtKey, DhtOp, DhtStats};
use lht_id::{sha1, U160};

type Stored = (u64, Option<u64>); // (seq, value-or-tombstone)

/// The ring's successor-list length (Chord's `r`).
const SUCCESSOR_LIST_LEN: usize = 4;
/// The ring's hop budget per lookup.
const MAX_HOPS: u64 = 512;

fn merge_copy(store: &mut BTreeMap<DhtKey, Stored>, key: DhtKey, incoming: Stored) {
    match store.get(&key) {
        Some(existing) if existing.0 >= incoming.0 => {}
        _ => {
            store.insert(key, incoming);
        }
    }
}

struct RefNode {
    predecessor: Option<U160>,
    successors: Vec<U160>,
    /// Classic table: `fingers[i]` targets the owner of `id + 2^i`.
    fingers: Vec<U160>,
    store: BTreeMap<DhtKey, Stored>,
}

impl RefNode {
    fn new() -> RefNode {
        RefNode {
            predecessor: None,
            successors: Vec::new(),
            fingers: Vec::new(),
            store: BTreeMap::new(),
        }
    }
}

/// The pre-overhaul Chord ring, preserved as a reference model.
struct RefRing {
    cfg: ChordConfig,
    nodes: BTreeMap<U160, RefNode>,
    stats: DhtStats,
    rng: StdRng,
    clock: u64,
}

impl RefRing {
    fn with_config(n: usize, seed: u64, cfg: ChordConfig) -> RefRing {
        let mut nodes = BTreeMap::new();
        for i in 0..n {
            nodes.insert(sha1(format!("node:{i}").as_bytes()), RefNode::new());
        }
        let mut ring = RefRing {
            cfg,
            nodes,
            stats: DhtStats::default(),
            rng: StdRng::seed_from_u64(seed),
            clock: 0,
        };
        ring.rebuild_all_routing_state();
        ring
    }

    fn ids(&self) -> Vec<U160> {
        self.nodes.keys().copied().collect()
    }

    fn owner_of(&self, h: &U160) -> U160 {
        self.nodes
            .range(h..)
            .next()
            .map(|(id, _)| *id)
            .unwrap_or_else(|| *self.nodes.keys().next().expect("non-empty"))
    }

    fn live_successor(&self, id: &U160) -> U160 {
        self.nodes
            .range((std::ops::Bound::Excluded(*id), std::ops::Bound::Unbounded))
            .next()
            .map(|(i, _)| *i)
            .unwrap_or_else(|| *self.nodes.keys().next().expect("non-empty"))
    }

    fn perfect_fingers(&self, id: &U160) -> Vec<U160> {
        (0..U160::BITS)
            .map(|i| self.owner_of(&id.wrapping_add(&U160::pow2(i))))
            .collect()
    }

    fn rebuild_all_routing_state(&mut self) {
        let ids = self.ids();
        let n = ids.len();
        for (pos, id) in ids.iter().enumerate() {
            let mut successors = Vec::new();
            for k in 1..=SUCCESSOR_LIST_LEN.min(n.saturating_sub(1)).max(1) {
                successors.push(ids[(pos + k) % n]);
            }
            let predecessor = Some(ids[(pos + n - 1) % n]);
            let fingers = self.perfect_fingers(id);
            let node = self.nodes.get_mut(id).expect("node exists");
            node.successors = successors;
            node.predecessor = predecessor;
            node.fingers = fingers;
        }
    }

    fn stabilize_round(&mut self) {
        let ids = self.ids();
        for id in &ids {
            if !self.nodes.contains_key(id) {
                continue;
            }
            let succ = self.first_live_successor_entry(id);
            let succ_pred = self.nodes[&succ].predecessor;
            let new_succ = match succ_pred {
                Some(x)
                    if self.nodes.contains_key(&x) && x != *id && {
                        let d_x = id.distance_cw(&x);
                        let d_s = id.distance_cw(&succ);
                        d_x != U160::ZERO && d_x < d_s
                    } =>
                {
                    x
                }
                _ => succ,
            };
            {
                let adopt = match self.nodes[&new_succ].predecessor {
                    None => true,
                    Some(p) if !self.nodes.contains_key(&p) => true,
                    Some(p) => {
                        let d_me = p.distance_cw(id);
                        let d_succ = p.distance_cw(&new_succ);
                        d_me != U160::ZERO && d_me < d_succ
                    }
                };
                if adopt {
                    self.nodes
                        .get_mut(&new_succ)
                        .expect("live successor")
                        .predecessor = Some(*id);
                }
            }
            let mut list = vec![new_succ];
            let succ_list = self.nodes[&new_succ].successors.clone();
            for s in succ_list {
                if list.len() >= SUCCESSOR_LIST_LEN {
                    break;
                }
                if self.nodes.contains_key(&s) && s != *id && !list.contains(&s) {
                    list.push(s);
                }
            }
            let fingers = self.perfect_fingers(id);
            let node = self.nodes.get_mut(id).expect("node exists");
            node.successors = list;
            node.fingers = fingers;
        }
        let live = self.ids();
        for id in live {
            let dead_pred = match self.nodes[&id].predecessor {
                Some(p) => !self.nodes.contains_key(&p),
                None => false,
            };
            if dead_pred {
                self.nodes.get_mut(&id).expect("node exists").predecessor = None;
            }
        }
    }

    fn sync_keys_to_owners(&mut self) {
        let ids = self.ids();
        let mut to_copy: Vec<(U160, DhtKey)> = Vec::new();
        for id in &ids {
            for (key, stored) in &self.nodes[id].store {
                let owner = self.owner_of(&key.hash());
                let owner_stale = self.nodes[&owner]
                    .store
                    .get(key)
                    .is_none_or(|s| s.0 < stored.0);
                if owner != *id && owner_stale {
                    to_copy.push((*id, key.clone()));
                }
            }
        }
        for (holder, key) in to_copy {
            let Some(stored) = self.nodes[&holder].store.get(&key).copied() else {
                continue;
            };
            let owner = self.owner_of(&key.hash());
            merge_copy(
                &mut self.nodes.get_mut(&owner).expect("owner is live").store,
                key,
                stored,
            );
            self.stats.keys_transferred += 1;
        }
    }

    fn stabilize(&mut self, rounds: usize) {
        for _ in 0..rounds {
            self.stabilize_round();
        }
        self.sync_keys_to_owners();
    }

    fn first_live_successor_entry(&self, id: &U160) -> U160 {
        for s in &self.nodes[id].successors {
            if self.nodes.contains_key(s) {
                return *s;
            }
        }
        self.live_successor(id)
    }

    fn draw_initiator(&mut self) -> Result<U160, DhtError> {
        if self.nodes.is_empty() {
            return Err(DhtError::EmptyRing);
        }
        let ids = self.ids();
        Ok(ids[self.rng.gen_range(0..ids.len())])
    }

    fn route(&mut self, h: &U160) -> Result<(U160, u64), DhtError> {
        let start = self.draw_initiator()?;
        self.route_from(&start, h)
    }

    fn route_from(&self, start: &U160, h: &U160) -> Result<(U160, u64), DhtError> {
        let mut cur = *start;
        let mut hops: u64 = 0;
        loop {
            if hops > MAX_HOPS {
                return Err(DhtError::RoutingFailed { hops });
            }
            let succ = self.first_live_successor_entry(&cur);
            if h.in_range(&cur, &succ) || self.nodes.len() == 1 {
                let owner = if self.nodes.len() == 1 { cur } else { succ };
                hops += 1;
                return Ok((owner, hops));
            }
            let next = self.closest_preceding(&cur, h).unwrap_or(succ);
            cur = next;
            hops += 1;
        }
    }

    /// The historical linear scan: max clockwise distance over the
    /// full finger table chained with the successor list.
    fn closest_preceding(&self, cur: &U160, h: &U160) -> Option<U160> {
        let node = &self.nodes[cur];
        let mut best: Option<(U160, U160)> = None;
        let candidates = node.fingers.iter().chain(node.successors.iter());
        for c in candidates {
            if c == cur || !self.nodes.contains_key(c) {
                continue;
            }
            let d_c = cur.distance_cw(c);
            let d_h = cur.distance_cw(h);
            if d_c == U160::ZERO || d_c >= d_h {
                continue;
            }
            match best {
                Some((d_best, _)) if d_c <= d_best => {}
                _ => best = Some((d_c, *c)),
            }
        }
        best.map(|(_, id)| id)
    }

    fn replica_set(&self, owner: &U160) -> Vec<U160> {
        let mut set = vec![*owner];
        let mut cur = *owner;
        while set.len() < self.cfg.replicas && set.len() < self.nodes.len() {
            cur = self.live_successor(&cur);
            if set.contains(&cur) {
                break;
            }
            set.push(cur);
        }
        set
    }

    fn get(&mut self, key: &DhtKey) -> Result<Option<u64>, DhtError> {
        let (owner, hops) = self.route(&key.hash())?;
        let found = self.nodes[&owner].store.get(key).and_then(|s| s.1);
        self.stats.record_op(
            DhtOp::Get {
                found: found.is_some(),
            },
            hops,
        );
        Ok(found)
    }

    fn put(&mut self, key: &DhtKey, value: u64) -> Result<(), DhtError> {
        let (owner, hops) = self.route(&key.hash())?;
        self.clock += 1;
        let stored = (self.clock, Some(value));
        let replicas = self.replica_set(&owner);
        self.stats
            .record_op(DhtOp::Put, hops + replicas.len() as u64 - 1);
        for r in replicas {
            merge_copy(
                &mut self.nodes.get_mut(&r).expect("replica is live").store,
                key.clone(),
                stored,
            );
        }
        Ok(())
    }

    fn remove(&mut self, key: &DhtKey) -> Result<Option<u64>, DhtError> {
        let (owner, hops) = self.route(&key.hash())?;
        self.clock += 1;
        let stored = (self.clock, None);
        let replicas = self.replica_set(&owner);
        self.stats
            .record_op(DhtOp::Remove, hops + replicas.len() as u64 - 1);
        let out = self.nodes[&owner].store.get(key).and_then(|s| s.1);
        for r in replicas {
            merge_copy(
                &mut self.nodes.get_mut(&r).expect("replica is live").store,
                key.clone(),
                stored,
            );
        }
        Ok(out)
    }

    fn update(
        &mut self,
        key: &DhtKey,
        f: &mut dyn FnMut(&mut Option<u64>),
    ) -> Result<(), DhtError> {
        let (owner, hops) = self.route(&key.hash())?;
        let mut slot = self.nodes[&owner].store.get(key).and_then(|s| s.1);
        f(&mut slot);
        self.clock += 1;
        let stored = (self.clock, slot);
        let replicas = self.replica_set(&owner);
        self.stats
            .record_op(DhtOp::Update, hops + replicas.len() as u64 - 1);
        for r in replicas {
            merge_copy(
                &mut self.nodes.get_mut(&r).expect("replica is live").store,
                key.clone(),
                stored,
            );
        }
        Ok(())
    }

    fn multi_get(&mut self, keys: &[DhtKey]) -> Vec<Result<Option<u64>, DhtError>> {
        let start = match self.draw_initiator() {
            Ok(s) => s,
            Err(e) => return keys.iter().map(|_| Err(e.clone())).collect(),
        };
        let mut out = Vec::with_capacity(keys.len());
        let mut ops = Vec::with_capacity(keys.len());
        for key in keys {
            match self.route_from(&start, &key.hash()) {
                Ok((owner, hops)) => {
                    let found = self.nodes[&owner].store.get(key).and_then(|s| s.1);
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
        self.stats.record_batch(ops);
        out
    }

    fn multi_put(&mut self, entries: Vec<(DhtKey, u64)>) -> Vec<Result<(), DhtError>> {
        let start = match self.draw_initiator() {
            Ok(s) => s,
            Err(e) => return entries.iter().map(|_| Err(e.clone())).collect(),
        };
        let mut out = Vec::with_capacity(entries.len());
        let mut ops = Vec::with_capacity(entries.len());
        for (key, value) in entries {
            match self.route_from(&start, &key.hash()) {
                Ok((owner, hops)) => {
                    self.clock += 1;
                    let stored = (self.clock, Some(value));
                    let replicas = self.replica_set(&owner);
                    ops.push((DhtOp::Put, hops + replicas.len() as u64 - 1));
                    for r in replicas {
                        merge_copy(
                            &mut self.nodes.get_mut(&r).expect("replica is live").store,
                            key.clone(),
                            stored,
                        );
                    }
                    out.push(Ok(()));
                }
                Err(e) => out.push(Err(e)),
            }
        }
        self.stats.record_batch(ops);
        out
    }

    fn join(&mut self, name: &str) -> Option<U160> {
        let id = sha1(name.as_bytes());
        if self.nodes.contains_key(&id) {
            return None;
        }
        let succ_id = self.owner_of(&id);
        let pred_id = self.nodes[&succ_id].predecessor;
        let mut node = RefNode::new();
        node.predecessor = pred_id;
        node.successors = vec![succ_id];
        let succ = self.nodes.get_mut(&succ_id).expect("successor exists");
        let moved_keys: Vec<DhtKey> = succ
            .store
            .keys()
            .filter(|k| {
                let h = k.hash();
                match pred_id {
                    Some(p) => h.in_range(&p, &id),
                    None => h.in_range(&succ_id, &id),
                }
            })
            .cloned()
            .collect();
        for k in &moved_keys {
            let v = succ.store.remove(k).expect("key present");
            node.store.insert(k.clone(), v);
        }
        self.stats.keys_transferred += moved_keys.len() as u64;
        self.nodes
            .get_mut(&succ_id)
            .expect("successor exists")
            .predecessor = Some(id);
        let keep = SUCCESSOR_LIST_LEN;
        if let Some(p) = pred_id {
            if let Some(pred) = self.nodes.get_mut(&p) {
                pred.successors.insert(0, id);
                pred.successors.truncate(keep);
            }
        }
        self.nodes.insert(id, node);
        Some(id)
    }

    fn leave(&mut self, id: &U160) -> bool {
        if !self.nodes.contains_key(id) || self.nodes.len() == 1 {
            return false;
        }
        let node = self.nodes.remove(id).expect("checked present");
        let succ_id = self.owner_of(id);
        let moved = node.store.len() as u64;
        let succ = self.nodes.get_mut(&succ_id).expect("successor exists");
        for (key, stored) in node.store {
            merge_copy(&mut succ.store, key, stored);
        }
        succ.predecessor = node.predecessor;
        self.stats.keys_transferred += moved;
        if let Some(p) = node.predecessor {
            if let Some(pred) = self.nodes.get_mut(&p) {
                pred.successors.retain(|s| s != id);
                if pred.successors.is_empty() {
                    pred.successors.push(succ_id);
                }
            }
        }
        true
    }

    fn crash(&mut self, id: &U160) -> bool {
        if !self.nodes.contains_key(id) || self.nodes.len() == 1 {
            return false;
        }
        self.nodes.remove(id);
        true
    }

    fn all_entries(&self) -> Vec<(DhtKey, u64)> {
        let mut out: BTreeMap<DhtKey, Stored> = BTreeMap::new();
        for node in self.nodes.values() {
            for (key, stored) in &node.store {
                match out.get(key) {
                    Some(best) if best.0 >= stored.0 => {}
                    _ => {
                        out.insert(key.clone(), *stored);
                    }
                }
            }
        }
        out.into_iter()
            .filter_map(|(key, (_, v))| v.map(|v| (key, v)))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Trace machinery
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Op {
    Put(u32, u64),
    Get(u32),
    Remove(u32),
    Update(u32, u64),
    MultiGet(Vec<u32>),
    MultiPut(Vec<(u32, u64)>),
    Join(u32),
    Leave(usize),
    Crash(usize),
    Stabilize(usize),
}

fn key(slot: u32) -> DhtKey {
    DhtKey::from(format!("twin:{slot}"))
}

fn gen_trace(seed: u64, len: usize, churn: bool) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let r = rng.gen_range(0..100u32);
            match r {
                0..=29 => Op::Put(rng.gen_range(0..64), rng.gen()),
                30..=52 => Op::Get(rng.gen_range(0..64)),
                53..=62 => Op::Remove(rng.gen_range(0..64)),
                63..=72 => Op::Update(rng.gen_range(0..64), rng.gen_range(1..1000)),
                73..=79 => {
                    let n = rng.gen_range(1..8);
                    Op::MultiGet((0..n).map(|_| rng.gen_range(0..64)).collect())
                }
                80..=86 => {
                    let n = rng.gen_range(1..8);
                    Op::MultiPut((0..n).map(|_| (rng.gen_range(0..64), rng.gen())).collect())
                }
                87..=89 if churn => Op::Join(rng.gen()),
                90..=92 if churn => Op::Leave(rng.gen_range(0..4096)),
                93..=94 if churn => Op::Crash(rng.gen_range(0..4096)),
                95..=97 => Op::Stabilize(rng.gen_range(1..3)),
                _ => Op::Get(rng.gen_range(0..64)),
            }
        })
        .collect()
}

/// Applies one op to both rings and asserts the visible results match.
fn apply_both(dht: &ChordDht<u64>, rf: &mut RefRing, op: &Op) {
    match op {
        Op::Put(s, v) => {
            assert_eq!(
                format!("{:?}", dht.put(&key(*s), *v)),
                format!("{:?}", rf.put(&key(*s), *v)),
                "put({s}) diverged"
            );
        }
        Op::Get(s) => {
            assert_eq!(
                format!("{:?}", dht.get(&key(*s))),
                format!("{:?}", rf.get(&key(*s))),
                "get({s}) diverged"
            );
        }
        Op::Remove(s) => {
            assert_eq!(
                format!("{:?}", dht.remove(&key(*s))),
                format!("{:?}", rf.remove(&key(*s))),
                "remove({s}) diverged"
            );
        }
        Op::Update(s, add) => {
            let mut f_new = |slot: &mut Option<u64>| {
                *slot = Some(slot.unwrap_or(0).wrapping_add(*add));
            };
            let mut f_ref = |slot: &mut Option<u64>| {
                *slot = Some(slot.unwrap_or(0).wrapping_add(*add));
            };
            assert_eq!(
                format!("{:?}", dht.update(&key(*s), &mut f_new)),
                format!("{:?}", rf.update(&key(*s), &mut f_ref)),
                "update({s}) diverged"
            );
        }
        Op::MultiGet(slots) => {
            let keys: Vec<DhtKey> = slots.iter().map(|s| key(*s)).collect();
            assert_eq!(
                format!("{:?}", dht.multi_get(&keys)),
                format!("{:?}", rf.multi_get(&keys)),
                "multi_get diverged"
            );
        }
        Op::MultiPut(entries) => {
            let e_new: Vec<(DhtKey, u64)> = entries.iter().map(|(s, v)| (key(*s), *v)).collect();
            let e_ref = e_new.clone();
            assert_eq!(
                format!("{:?}", dht.multi_put(e_new)),
                format!("{:?}", rf.multi_put(e_ref)),
                "multi_put diverged"
            );
        }
        Op::Join(i) => {
            let name = format!("twin-join:{i}");
            assert_eq!(dht.join(&name), rf.join(&name), "join diverged");
        }
        Op::Leave(pos) => {
            let ids = rf.ids();
            let victim = ids[pos % ids.len()];
            assert_eq!(dht.leave(&victim), rf.leave(&victim), "leave diverged");
        }
        Op::Crash(pos) => {
            let ids = rf.ids();
            let victim = ids[pos % ids.len()];
            assert_eq!(dht.crash(&victim), rf.crash(&victim), "crash diverged");
        }
        Op::Stabilize(rounds) => {
            dht.stabilize(*rounds);
            rf.stabilize(*rounds);
        }
    }
}

/// Runs a full trace and asserts end-state equivalence: membership,
/// per-key owners, stored entries and the complete stats block
/// (hop totals included).
fn run_twin(n: usize, ring_seed: u64, trace: &[Op], cfg: ChordConfig) {
    let dht: ChordDht<u64> = ChordDht::with_config(n, ring_seed, cfg);
    let mut rf = RefRing::with_config(n, ring_seed, cfg);
    for op in trace {
        apply_both(&dht, &mut rf, op);
        assert_eq!(
            dht.snapshot().node_ids,
            rf.ids(),
            "memberships diverged after {op:?}"
        );
    }
    assert_same_end_state(&dht, &rf);
}

fn assert_same_end_state(dht: &ChordDht<u64>, rf: &RefRing) {
    for s in 0..64u32 {
        let k = key(s);
        assert_eq!(
            dht.owner_of_key(&k),
            Some(rf.owner_of(&k.hash())),
            "owner_of diverged for slot {s}"
        );
    }
    assert_eq!(
        dht.all_entries(),
        rf.all_entries(),
        "stored entries diverged"
    );
    let (new_stats, ref_stats) = (dht.stats(), rf.stats);
    assert_eq!(
        new_stats.hops, ref_stats.hops,
        "hop totals diverged: new {} vs reference {}",
        new_stats.hops, ref_stats.hops
    );
    assert_eq!(new_stats, ref_stats, "stats diverged");
}

// ---------------------------------------------------------------------------
// Pinned twins
// ---------------------------------------------------------------------------

/// Converged rings at the seed-suite scales: identical traces must
/// produce identical hop totals (the acceptance criterion for the
/// routing overhaul).
#[test]
fn twin_matches_on_converged_rings_at_seed_scale() {
    for &(n, ring_seed, trace_seed) in &[(16usize, 7u64, 100u64), (64, 7, 101), (256, 7, 102)] {
        let trace = gen_trace(trace_seed, 300, false);
        run_twin(n, ring_seed, &trace, ChordConfig::default());
    }
}

/// Churning rings: joins, graceful leaves, crashes and stabilization
/// interleave with operations; routing state goes stale and is
/// repaired, and both implementations must degrade identically.
#[test]
fn twin_matches_under_churn() {
    for &(n, ring_seed, trace_seed) in &[(8usize, 11u64, 200u64), (24, 13, 201), (48, 17, 202)] {
        let trace = gen_trace(trace_seed, 400, true);
        run_twin(n, ring_seed, &trace, ChordConfig::default());
    }
}

/// The replicated write path (replica-set walks, extra replica hops)
/// through churn: exercises the non-fast-path branches.
#[test]
fn twin_matches_with_replication() {
    let cfg = ChordConfig {
        replicas: 3,
        ..ChordConfig::default()
    };
    let trace = gen_trace(300, 350, true);
    run_twin(20, 19, &trace, cfg);
}

/// The size the benchmark runs: 1024 peers, a converged trace, then
/// the same ring churning. The reference rebuilds 160-entry tables by
/// map walks, so this also pins the descending finger build against
/// it at a size where the two do very different amounts of work.
#[test]
fn twin_matches_at_1024_peers_converged_then_churning() {
    let mut trace = gen_trace(500, 300, false);
    trace.extend(gen_trace(501, 300, true));
    run_twin(1024, 7, &trace, ChordConfig::default());
}

/// Departed names come back. The reference forgets a node when it
/// goes and meets a fresh one when the name rejoins; the arena keeps
/// the dead slot and hands it back. Stale successor and finger
/// entries naming it must be skipped, and followed again, at the
/// same hops — with and without a stabilization in between.
#[test]
fn twin_matches_when_departed_names_rejoin() {
    let cfg = ChordConfig {
        replicas: 2,
        ..ChordConfig::default()
    };
    let dht: ChordDht<u64> = ChordDht::with_config(24, 29, cfg);
    let mut rf = RefRing::with_config(24, 29, cfg);
    let ops = |dht: &ChordDht<u64>, rf: &mut RefRing, seed: u64| {
        for op in gen_trace(seed, 25, false) {
            apply_both(dht, rf, &op);
        }
    };
    for round in 0..8u64 {
        let name = format!("node:{}", 2 + round % 4);
        let id = sha1(name.as_bytes());
        ops(&dht, &mut rf, 600 + 3 * round);
        if round % 2 == 0 {
            assert_eq!(dht.crash(&id), rf.crash(&id), "crash diverged");
        } else {
            assert_eq!(dht.leave(&id), rf.leave(&id), "leave diverged");
        }
        ops(&dht, &mut rf, 601 + 3 * round);
        assert_eq!(dht.join(&name), rf.join(&name), "rejoin diverged");
        assert_eq!(dht.snapshot().node_ids, rf.ids());
        ops(&dht, &mut rf, 602 + 3 * round);
    }
    assert_same_end_state(&dht, &rf);
}

/// A single-node ring is the degenerate routing case (`len == 1`
/// short-circuit); grow it by joins, shrink it back down.
#[test]
fn twin_matches_from_single_node() {
    let trace = gen_trace(400, 250, true);
    run_twin(1, 23, &trace, ChordConfig::default());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random ring sizes, seeds and churning traces: the twin
    /// equivalence is not an artifact of the pinned seeds.
    #[test]
    fn twin_matches_on_random_churning_traces(
        n in 1usize..32,
        ring_seed in any::<u64>(),
        trace_seed in any::<u64>(),
        len in 20usize..120,
    ) {
        let trace = gen_trace(trace_seed, len, true);
        run_twin(n, ring_seed, &trace, ChordConfig::default());
    }
}
