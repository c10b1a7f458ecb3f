//! The one-hop oracle substrate.

use parking_lot::Mutex;

use crate::{Dht, DhtError, DhtKey, DhtOp, DhtStats, NodeStore};

/// A one-hop DHT oracle: a single consistent-hash partition backed by
/// a hash map, with every operation costing exactly one lookup and one
/// hop.
///
/// This is the substrate used by the figure experiments. The paper's
/// evaluation metrics (numbers of DHT-lookups, moved records, and
/// parallel lookup steps) are all counted at the index layer, above
/// the `put/get` interface, and the paper notes they are *"independent
/// of underlying network scale"* (footnote 5) — so a one-hop oracle
/// reproduces them exactly while keeping experiments fast and
/// deterministic. Use [`ChordDht`](crate::ChordDht) when hop-level
/// routing or churn behaviour is itself under study.
///
/// # Examples
///
/// ```
/// use lht_dht::{Dht, DhtKey, DirectDht};
///
/// let dht: DirectDht<Vec<u32>> = DirectDht::new();
/// dht.put(&DhtKey::from("#"), vec![1, 2])?;
/// dht.update(&DhtKey::from("#"), &mut |slot| {
///     slot.get_or_insert_with(Vec::new).push(3);
/// })?;
/// assert_eq!(dht.get(&DhtKey::from("#"))?, Some(vec![1, 2, 3]));
/// # Ok::<(), lht_dht::DhtError>(())
/// ```
#[derive(Debug, Default)]
pub struct DirectDht<V> {
    inner: Mutex<Inner<V>>,
}

#[derive(Debug)]
struct Inner<V> {
    store: NodeStore<V>,
    stats: DhtStats,
}

impl<V> Default for Inner<V> {
    fn default() -> Self {
        Inner {
            store: NodeStore::default(),
            stats: DhtStats::default(),
        }
    }
}

impl<V> DirectDht<V> {
    /// Creates an empty oracle DHT.
    pub fn new() -> DirectDht<V> {
        DirectDht {
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Number of stored entries (not a DHT operation; free).
    pub fn len(&self) -> usize {
        self.inner.lock().store.len()
    }

    /// Whether the DHT stores no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inspects the value under `key` without counting a DHT
    /// operation. Intended for tests and invariant checks.
    pub fn peek<R>(&self, key: &DhtKey, f: impl FnOnce(Option<&V>) -> R) -> R {
        f(self.inner.lock().store.get(key))
    }

    /// Lists all stored keys without counting a DHT operation.
    /// Intended for tests and invariant checks.
    pub fn keys(&self) -> Vec<DhtKey> {
        self.inner.lock().store.keys().cloned().collect()
    }

    /// Silently deletes the entry under `key` without any cost
    /// accounting — a *fault injection*: the entry vanishes the way
    /// data on a crashed, unreplicated node would.
    ///
    /// Returns whether an entry was present.
    pub fn inject_loss(&self, key: &DhtKey) -> bool {
        self.inner.lock().store.remove(key).is_some()
    }
}

impl<V: Clone> Dht for DirectDht<V> {
    type Value = V;

    fn get(&self, key: &DhtKey) -> Result<Option<V>, DhtError> {
        let mut inner = self.inner.lock();
        let found = inner.store.get(key).cloned();
        inner.stats.record_op(
            DhtOp::Get {
                found: found.is_some(),
            },
            1,
        );
        Ok(found)
    }

    fn put(&self, key: &DhtKey, value: V) -> Result<(), DhtError> {
        let mut inner = self.inner.lock();
        inner.stats.record_op(DhtOp::Put, 1);
        inner.store.insert(key.clone(), value);
        Ok(())
    }

    fn remove(&self, key: &DhtKey) -> Result<Option<V>, DhtError> {
        let mut inner = self.inner.lock();
        inner.stats.record_op(DhtOp::Remove, 1);
        Ok(inner.store.remove(key))
    }

    fn update(&self, key: &DhtKey, f: &mut dyn FnMut(&mut Option<V>)) -> Result<(), DhtError> {
        let mut inner = self.inner.lock();
        inner.stats.record_op(DhtOp::Update, 1);
        // Take the slot out, let the owner-side closure mutate it, and
        // restore it if still occupied.
        let mut slot = inner.store.remove(key);
        f(&mut slot);
        if let Some(v) = slot {
            inner.store.insert(key.clone(), v);
        }
        Ok(())
    }

    fn multi_get(&self, keys: &[DhtKey]) -> Vec<Result<Option<V>, DhtError>> {
        let mut inner = self.inner.lock();
        let mut out = Vec::with_capacity(keys.len());
        let mut ops = Vec::with_capacity(keys.len());
        for key in keys {
            let found = inner.store.get(key).cloned();
            ops.push((
                DhtOp::Get {
                    found: found.is_some(),
                },
                1,
            ));
            out.push(Ok(found));
        }
        inner.stats.record_batch(ops);
        out
    }

    fn multi_put(&self, entries: Vec<(DhtKey, V)>) -> Vec<Result<(), DhtError>> {
        let mut inner = self.inner.lock();
        let n = entries.len();
        let mut ops = Vec::with_capacity(n);
        for (key, value) in entries {
            inner.store.insert(key, value);
            ops.push((DhtOp::Put, 1));
        }
        inner.stats.record_batch(ops);
        vec![Ok(()); n]
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

    #[test]
    fn put_get_round_trip() {
        let dht: DirectDht<u32> = DirectDht::new();
        dht.put(&k("a"), 7).unwrap();
        assert_eq!(dht.get(&k("a")).unwrap(), Some(7));
        assert_eq!(dht.get(&k("b")).unwrap(), None);
    }

    #[test]
    fn put_overwrites() {
        let dht: DirectDht<u32> = DirectDht::new();
        dht.put(&k("a"), 1).unwrap();
        dht.put(&k("a"), 2).unwrap();
        assert_eq!(dht.get(&k("a")).unwrap(), Some(2));
        assert_eq!(dht.len(), 1);
    }

    #[test]
    fn remove_returns_old_value() {
        let dht: DirectDht<u32> = DirectDht::new();
        dht.put(&k("a"), 1).unwrap();
        assert_eq!(dht.remove(&k("a")).unwrap(), Some(1));
        assert_eq!(dht.remove(&k("a")).unwrap(), None);
        assert!(dht.is_empty());
    }

    #[test]
    fn update_can_insert_mutate_and_delete() {
        let dht: DirectDht<Vec<u32>> = DirectDht::new();
        // Insert through update.
        dht.update(&k("a"), &mut |slot| {
            slot.get_or_insert_with(Vec::new).push(1);
        })
        .unwrap();
        assert_eq!(dht.get(&k("a")).unwrap(), Some(vec![1]));
        // Mutate in place.
        dht.update(&k("a"), &mut |slot| {
            slot.as_mut().unwrap().push(2);
        })
        .unwrap();
        assert_eq!(dht.get(&k("a")).unwrap(), Some(vec![1, 2]));
        // Delete by clearing the slot.
        dht.update(&k("a"), &mut |slot| {
            *slot = None;
        })
        .unwrap();
        assert_eq!(dht.get(&k("a")).unwrap(), None);
    }

    #[test]
    fn every_operation_costs_one_lookup_one_hop() {
        let dht: DirectDht<u32> = DirectDht::new();
        dht.put(&k("a"), 1).unwrap();
        dht.get(&k("a")).unwrap();
        dht.get(&k("missing")).unwrap();
        dht.update(&k("a"), &mut |_| {}).unwrap();
        dht.remove(&k("a")).unwrap();
        let s = dht.stats();
        assert_eq!(s.puts, 1);
        assert_eq!(s.gets, 2);
        assert_eq!(s.failed_gets, 1);
        assert_eq!(s.updates, 1);
        assert_eq!(s.removes, 1);
        assert_eq!(s.lookups(), 5);
        assert_eq!(s.hops, 5);
        assert_eq!(s.hops_per_lookup(), 1.0);
    }

    #[test]
    fn batches_charge_one_round() {
        let dht: DirectDht<u32> = DirectDht::new();
        for r in dht.multi_put(vec![(k("a"), 1), (k("b"), 2)]) {
            r.unwrap();
        }
        let got: Vec<_> = dht
            .multi_get(&[k("a"), k("b"), k("c")])
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(got, vec![Some(1), Some(2), None]);
        let s = dht.stats();
        // Bandwidth view: all five ops counted individually.
        assert_eq!(s.lookups(), 5);
        assert_eq!(s.hops, 5);
        assert_eq!(s.failed_gets, 1);
        // Parallel view: two rounds, one hop of critical path each.
        assert_eq!(s.rounds, 2);
        assert_eq!(s.round_hops, 2);
    }

    #[test]
    fn reset_stats_zeroes_counters() {
        let dht: DirectDht<u32> = DirectDht::new();
        dht.put(&k("a"), 1).unwrap();
        dht.reset_stats();
        assert_eq!(dht.stats(), DhtStats::default());
        // Data survives a stats reset.
        assert_eq!(dht.get(&k("a")).unwrap(), Some(1));
    }

    #[test]
    fn peek_and_keys_are_free() {
        let dht: DirectDht<u32> = DirectDht::new();
        dht.put(&k("a"), 1).unwrap();
        let before = dht.stats();
        assert_eq!(dht.peek(&k("a"), |v| v.copied()), Some(1));
        assert_eq!(dht.keys(), vec![k("a")]);
        assert_eq!(dht.stats(), before);
    }

    #[test]
    fn inject_loss_removes_silently() {
        let dht: DirectDht<u32> = DirectDht::new();
        dht.put(&k("a"), 1).unwrap();
        let before = dht.stats();
        assert!(dht.inject_loss(&k("a")));
        assert!(!dht.inject_loss(&k("a")));
        assert_eq!(dht.stats(), before, "fault injection is not an operation");
        assert_eq!(dht.get(&k("a")).unwrap(), None);
    }

    #[test]
    fn dht_is_send_sync() {
        fn assert_bounds<T: Send + Sync>() {}
        assert_bounds::<DirectDht<u64>>();
    }
}
