//! Strict-LRU recency over a map — the one list both caches keep: the
//! route cache ([`CachedDht`](crate::CachedDht)) and `lht-core`'s
//! standalone `NamingCache`, which no index uses.

use std::collections::HashMap;
use std::hash::Hash;

use crate::KeyHasherBuilder;

/// A slab index; [`NIL`], which no slab reaches, ends the recency list
/// at either side.
type Slot = u32;
const NIL: Slot = Slot::MAX;

/// One entry and its place in the recency list.
struct Node<K, V> {
    key: K,
    value: V,
    /// Towards the most recently used entry.
    prev: Slot,
    /// Towards the least recently used entry.
    next: Slot,
}

/// A map that remembers the order its entries were last used in.
///
/// Entries live in a slab threaded into a doubly linked list by index,
/// from `head` (most recently used) to `tail` (the eviction victim);
/// `index` finds a key's slot and `free` holds vacated slots for
/// reuse, so a touch, an insert and an eviction are each one table
/// probe and a handful of word writes. [`retain`](Lru::retain) and
/// [`keys`](Lru::keys) walk the list, never the table: behaviour is a
/// pure function of the call sequence, identical across processes.
/// The table hashes with [`KeyHasher`](crate::KeyHasher) — the keys
/// are ring digests and tree labels the program minted itself, so, as
/// `store.rs` argues for the node stores, there is no flooding to
/// defend against and SipHash would be the dearest step of a hit.
///
/// There is no capacity and no policy knob: a caller that bounds the
/// list calls [`pop_lru`](Lru::pop_lru) before [`insert`](Lru::insert).
/// A removed or replaced value is dropped when its slot is next reused
/// or the list cleared, not at the removal.
///
/// # Examples
///
/// ```
/// use lht_dht::Lru;
///
/// let mut lru: Lru<u32, &str> = Lru::new();
/// lru.insert(1, "one");
/// lru.insert(2, "two");
/// assert_eq!(lru.get(&1), Some(&mut "one")); // 1 is now the most recent
/// assert_eq!(lru.keys().collect::<Vec<_>>(), [1, 2]);
/// assert_eq!(lru.pop_lru(), Some(2));
/// assert_eq!(lru.len(), 1);
/// ```
pub struct Lru<K, V> {
    index: HashMap<K, Slot, KeyHasherBuilder>,
    nodes: Vec<Node<K, V>>,
    free: Vec<Slot>,
    head: Slot,
    tail: Slot,
}

impl<K: Copy + Eq + Hash, V> Default for Lru<K, V> {
    fn default() -> Lru<K, V> {
        Lru {
            index: HashMap::default(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }
}

impl<K: Copy + Eq + Hash, V> Lru<K, V> {
    /// An empty list.
    pub fn new() -> Lru<K, V> {
        Lru::default()
    }

    /// Number of entries held.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no entry is held.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Drops every entry and the slab with them.
    pub fn clear(&mut self) {
        *self = Lru::default();
    }

    /// Takes `slot` out of the recency list (its own links go stale).
    fn unlink(&mut self, slot: Slot) {
        let node = &self.nodes[slot as usize];
        let (prev, next) = (node.prev, node.next);
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    /// Links `slot` in as the most recently used entry.
    fn push_front(&mut self, slot: Slot) {
        let old = self.head;
        let node = &mut self.nodes[slot as usize];
        node.prev = NIL;
        node.next = old;
        match old {
            NIL => self.tail = slot,
            h => self.nodes[h as usize].prev = slot,
        }
        self.head = slot;
    }

    /// Unlinks `slot`, whose `index` entry the caller has removed, and
    /// keeps it for reuse.
    fn vacate(&mut self, slot: Slot) {
        self.unlink(slot);
        self.free.push(slot);
    }

    /// The value under `key`, which becomes the most recently used
    /// entry.
    pub fn get(&mut self, key: &K) -> Option<&mut V> {
        let slot = *self.index.get(key)?;
        if self.head != slot {
            self.unlink(slot);
            self.push_front(slot);
        }
        Some(&mut self.nodes[slot as usize].value)
    }

    /// Puts `key → value` in as the most recently used entry, in a
    /// vacated slot when there is one. A value already held under
    /// `key` is replaced.
    pub fn insert(&mut self, key: K, value: V) {
        let node = Node {
            key,
            value,
            prev: NIL,
            next: NIL,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot as usize] = node;
                slot
            }
            None => {
                let slot = Slot::try_from(self.nodes.len()).ok().filter(|s| *s != NIL);
                self.nodes.push(node);
                slot.expect("lru slab within u32 slots")
            }
        };
        if let Some(replaced) = self.index.insert(key, slot) {
            self.vacate(replaced);
        }
        self.push_front(slot);
    }

    /// Removes the least recently used entry and returns its key.
    pub fn pop_lru(&mut self) -> Option<K> {
        let key = self.nodes.get(self.tail as usize)?.key;
        self.remove(&key);
        Some(key)
    }

    /// Removes `key`'s entry; whether there was one.
    pub fn remove(&mut self, key: &K) -> bool {
        let slot = self.index.remove(key);
        if let Some(slot) = slot {
            self.vacate(slot);
        }
        slot.is_some()
    }

    /// Keeps the entries `keep` approves; survivors keep their order.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &V) -> bool) {
        let mut at = self.head;
        while let Some(node) = self.nodes.get(at as usize) {
            let (key, next) = (node.key, node.next);
            if !keep(&node.key, &node.value) {
                self.remove(&key);
            }
            at = next;
        }
    }

    /// The keys held, most recently used first.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        let mut at = self.head;
        std::iter::from_fn(move || {
            let node = self.nodes.get(at as usize)?;
            at = node.next;
            Some(node.key)
        })
    }
}

#[cfg(test)]
impl<K: Copy + Eq + Hash + std::fmt::Debug, V> Lru<K, V> {
    /// The keys, most recently used first, after checking every back
    /// link, that the table points each key at its slot, and that
    /// resident plus vacant slots are the whole slab.
    pub(crate) fn audit(&self) -> Vec<K> {
        let mut order = Vec::new();
        let (mut at, mut prev) = (self.head, NIL);
        while at != NIL {
            let node = &self.nodes[at as usize];
            assert_eq!(node.prev, prev, "back link of slot {at}");
            assert_eq!(self.index.get(&node.key), Some(&at));
            order.push(node.key);
            (prev, at) = (at, node.next);
        }
        assert_eq!(self.tail, prev);
        assert_eq!(order.len(), self.len());
        assert_eq!(order.len() + self.free.len(), self.nodes.len());
        assert_eq!(self.keys().collect::<Vec<_>>(), order);
        order
    }

    /// Slots in the slab, and how many of them are vacant.
    pub(crate) fn slab(&self) -> (usize, usize) {
        (self.nodes.len(), self.free.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::rc::Rc;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every call answers as a plain most-recent-first `Vec` does,
        /// and every step leaves the same keys in the same order.
        #[test]
        fn matches_a_most_recent_first_vec(
            script in proptest::collection::vec((0u8..10, 0u8..12, any::<u16>()), 0..200),
        ) {
            let mut lru: Lru<u8, u16> = Lru::new();
            let mut model: Vec<(u8, u16)> = Vec::new();
            for (step, &(op, key, value)) in script.iter().enumerate() {
                let at = model.iter().position(|(k, _)| *k == key);
                match op {
                    0..=2 => {
                        let held = at.map(|i| model.remove(i));
                        prop_assert_eq!(lru.get(&key).copied(), held.map(|e| e.1), "step {}", step);
                        model.splice(0..0, held);
                    }
                    3..=5 => {
                        lru.insert(key, value);
                        if let Some(i) = at {
                            model.remove(i);
                        }
                        model.insert(0, (key, value));
                    }
                    6 => prop_assert_eq!(lru.remove(&key), at.map(|i| model.remove(i)).is_some()),
                    7 => prop_assert_eq!(lru.pop_lru(), model.pop().map(|e| e.0), "step {}", step),
                    8 => {
                        lru.retain(|k, v| (k ^ key) & 1 == 0 && *v != value);
                        model.retain(|(k, v)| (k ^ key) & 1 == 0 && *v != value);
                    }
                    // Rare, so scripts still grow long lists.
                    _ if value % 8 == 0 => {
                        lru.clear();
                        model.clear();
                    }
                    _ => {}
                }
                let keys: Vec<u8> = model.iter().map(|e| e.0).collect();
                prop_assert_eq!(lru.audit(), keys, "step {}", step);
                prop_assert_eq!((lru.len(), lru.is_empty()), (model.len(), model.is_empty()));
            }
        }
    }

    /// `Rc` strong counts see every copy a list holds: a value leaves
    /// with its slot — at reuse, `clear` or drop — and none is ever
    /// held twice.
    #[test]
    fn values_leave_with_their_slots_and_none_is_held_twice() {
        let values: Vec<Rc<()>> = (0..8).map(|_| Rc::new(())).collect();
        let held = || -> Vec<usize> { values.iter().map(|v| Rc::strong_count(v) - 1).collect() };
        let mut lru: Lru<usize, Rc<()>> = Lru::new();
        for (key, value) in values.iter().enumerate().take(4) {
            lru.insert(key, value.clone());
        }
        // Evicted and removed values wait in their vacated slots ...
        assert_eq!(lru.pop_lru(), Some(0));
        assert!(lru.remove(&2));
        assert_eq!(held(), [1, 1, 1, 1, 0, 0, 0, 0]);
        // ... and go when the slot is overwritten, last vacated first.
        lru.insert(4, values[4].clone());
        assert_eq!(held(), [1, 1, 0, 1, 1, 0, 0, 0]);
        lru.insert(5, values[5].clone());
        assert_eq!(held(), [0, 1, 0, 1, 1, 1, 0, 0]);
        // Replacing under a resident key vacates the old slot.
        lru.insert(1, values[6].clone());
        assert_eq!(held(), [0, 1, 0, 1, 1, 1, 1, 0]);
        lru.insert(7, values[7].clone());
        assert_eq!(held(), [0, 0, 0, 1, 1, 1, 1, 1]);
        assert_eq!(lru.audit(), [7, 1, 5, 4, 3]);
        // `retain` vacates like `remove`; `clear` and drop take
        // residents and waiting values alike.
        lru.retain(|key, _| key % 2 == 1);
        assert_eq!(held(), [0, 0, 0, 1, 1, 1, 1, 1]);
        lru.clear();
        assert_eq!(held(), [0; 8]);
        lru.insert(0, values[0].clone());
        lru.insert(1, values[1].clone());
        lru.pop_lru();
        assert_eq!(held(), [1, 1, 0, 0, 0, 0, 0, 0]);
        drop(lru);
        assert_eq!(held(), [0; 8]);
    }
}
