//! The route cache's previous representation, kept as the reference
//! the slab list is checked against: entries in a `HashMap` keyed by
//! the key's *bytes*, recency as a `BTreeMap` from a monotone stamp to
//! the key, eviction by `pop_first`. Same policy, independent
//! mechanism — the property test in `cache.rs` replays random scripts
//! through both and compares every hint and the whole recency order.

use std::collections::{BTreeMap, HashMap};

use lht_id::U160;

use super::{CacheHint, RouteKind};
use crate::DhtKey;

struct Entry {
    hint: CacheHint,
    stamp: u64,
}

#[derive(Default)]
pub(super) struct ModelState {
    entries: HashMap<DhtKey, Entry>,
    recency: BTreeMap<u64, DhtKey>,
    tick: u64,
}

impl ModelState {
    fn next_stamp(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    pub(super) fn lookup(&mut self, key: &DhtKey) -> Option<CacheHint> {
        let stamp = self.next_stamp();
        let entry = self.entries.get_mut(key)?;
        self.recency.remove(&entry.stamp);
        entry.stamp = stamp;
        self.recency.insert(stamp, key.clone());
        Some(entry.hint)
    }

    pub(super) fn learn(
        &mut self,
        key: &DhtKey,
        owner: U160,
        kind: RouteKind,
        route_hops: u64,
        capacity: usize,
    ) {
        if capacity == 0 {
            return;
        }
        let stamp = self.next_stamp();
        if let Some(entry) = self.entries.get_mut(key) {
            self.recency.remove(&entry.stamp);
            entry.hint.owner = owner;
            entry.hint.set_cost(kind, route_hops);
            entry.stamp = stamp;
            self.recency.insert(stamp, key.clone());
            return;
        }
        while self.entries.len() >= capacity {
            let (_, victim) = self.recency.pop_first().expect("recency mirrors entries");
            self.entries.remove(&victim);
        }
        let mut hint = CacheHint {
            owner,
            read_hops: None,
            write_hops: None,
        };
        hint.set_cost(kind, route_hops);
        self.entries.insert(key.clone(), Entry { hint, stamp });
        self.recency.insert(stamp, key.clone());
    }

    pub(super) fn evict(&mut self, key: &DhtKey) {
        if let Some(entry) = self.entries.remove(key) {
            self.recency.remove(&entry.stamp);
        }
    }

    pub(super) fn invalidate_owner(&mut self, owner: &U160) {
        let stale: Vec<u64> = self
            .entries
            .values()
            .filter(|e| e.hint.owner == *owner)
            .map(|e| e.stamp)
            .collect();
        for stamp in stale {
            if let Some(key) = self.recency.remove(&stamp) {
                self.entries.remove(&key);
            }
        }
    }

    /// Resident keys' digests, most recently used first.
    pub(super) fn recency_order(&self) -> Vec<U160> {
        self.recency.values().rev().map(DhtKey::hash).collect()
    }
}
