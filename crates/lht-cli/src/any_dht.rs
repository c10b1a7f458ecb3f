//! Runtime-selectable substrate.

use lht_core::LeafBucket;
use lht_dht::BoxDht;

/// The record value type the REPL stores.
pub(crate) type Value = String;
type Bucket = LeafBucket<Value>;

/// A substrate chosen at runtime — one-hop oracle, Chord ring or
/// Kademlia network behind the [`Dht`](lht_dht::Dht) trait object, so
/// the index code is substrate-agnostic even without generics and
/// every trait method (batched rounds, owner probes, hints) reaches
/// the substrate's own implementation.
pub(crate) type AnyDht = BoxDht<'static, Bucket>;

/// A Chord ring whose next few gets transiently answer "not found" —
/// a test double for the window where index entries are mid-migration
/// (churn, delayed key sync) and lookups exhaust.
#[cfg(test)]
pub(crate) mod flaky {
    use std::cell::Cell;

    use lht_dht::{ChordDht, Dht, DhtError, DhtKey, DhtStats};

    use super::{AnyDht, Bucket};

    thread_local! {
        /// How many further gets on this thread's [`Flaky`] rings still
        /// answer `Ok(None)`. Per thread — so per test — because the
        /// boxed substrate gives the test no handle to reach into.
        static FAIL_GETS: Cell<u32> = const { Cell::new(0) };
    }

    /// The healthy ring that answers once the fault window drains.
    pub(crate) struct Flaky(pub(crate) ChordDht<Bucket>);

    impl Dht for Flaky {
        type Value = Bucket;

        fn get(&self, key: &DhtKey) -> Result<Option<Bucket>, DhtError> {
            let left = FAIL_GETS.get();
            if left > 0 {
                FAIL_GETS.set(left - 1);
                return Ok(None);
            }
            self.0.get(key)
        }
        fn put(&self, key: &DhtKey, value: Bucket) -> Result<(), DhtError> {
            self.0.put(key, value)
        }
        fn remove(&self, key: &DhtKey) -> Result<Option<Bucket>, DhtError> {
            self.0.remove(key)
        }
        fn update(
            &self,
            key: &DhtKey,
            f: &mut dyn FnMut(&mut Option<Bucket>),
        ) -> Result<(), DhtError> {
            self.0.update(key, f)
        }
        fn stats(&self) -> DhtStats {
            Dht::stats(&self.0)
        }
        fn reset_stats(&self) {
            self.0.reset_stats()
        }
    }

    /// Arms the fault window from a session's substrate handle.
    pub(crate) trait FailGets {
        /// The next `n` gets answer `Ok(None)`; returns the previously
        /// remaining count.
        fn fail_next_gets(&self, n: u32) -> u32;
    }

    impl FailGets for AnyDht {
        fn fail_next_gets(&self, n: u32) -> u32 {
            FAIL_GETS.replace(n)
        }
    }
}

#[cfg(test)]
mod tests {
    use lht_dht::{ChordDht, Dht, DhtKey, DirectDht};
    use lht_kad::KademliaDht;

    use super::*;

    #[test]
    fn dispatch_works_for_all_variants() {
        let variants: [AnyDht; 3] = [
            Box::new(DirectDht::new()),
            Box::new(ChordDht::with_nodes(4, 1)),
            Box::new(KademliaDht::with_nodes(4, 1)),
        ];
        for dht in variants {
            let key = DhtKey::from("#");
            let bucket = LeafBucket::new(lht_core::Label::root());
            dht.put(&key, bucket.clone()).unwrap();
            assert_eq!(dht.get(&key).unwrap(), Some(bucket));
            assert!(dht.stats().lookups() >= 2);
            dht.reset_stats();
            assert_eq!(dht.stats().lookups(), 0);
        }
    }
}
