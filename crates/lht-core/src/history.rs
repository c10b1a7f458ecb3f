//! Operation histories: index calls as data, one executor trait that
//! every index scheme implements, and the records a linearizability
//! checker reads.
//!
//! A [`HistoryCall`] names one public index operation and its
//! arguments; an [`Executor`] runs it and reports what came back as a
//! [`HistoryReturn`] plus what it cost. [`LhtIndex`] implements the
//! trait here, the PHT, DST and RST baselines in their own crates, so
//! one driver holds any of the four to one sequential spec.
//! The index itself records nothing: whoever drives the operations
//! owns the clock, stamps each call's invocation and response, and
//! keeps the resulting [`OpRecord`]s — the raw material for
//! linearizability checking (Herlihy & Wing's correctness condition
//! for concurrent objects). The deterministic simulator stamps
//! virtual milliseconds; real client threads use a
//! [`HistoryRecorder`] each.

use std::time::Instant;

use lht_dht::Dht;
use lht_id::KeyFraction;

use crate::{KeyInterval, LeafBucket, LhtError, LhtIndex, OpCost};

/// The invocation side of a recorded operation: which index API was
/// called and with what arguments. Keys are raw 64-bit fractions
/// ([`KeyFraction::bits`](lht_id::KeyFraction::bits)).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HistoryCall<V> {
    /// `insert(key, value)` — an upsert.
    Insert {
        /// The record's key bits.
        key: u64,
        /// The stored value.
        value: V,
    },
    /// `remove(key)`.
    Remove {
        /// The removed key's bits.
        key: u64,
    },
    /// `exact_match(key)`.
    Get {
        /// The queried key's bits.
        key: u64,
    },
    /// `range([lo, hi))`, or `[lo, 2^64)` when `hi` is `None`.
    Range {
        /// Lower bound (inclusive).
        lo: u64,
        /// Upper bound (exclusive), or `None` for top-of-space.
        hi: Option<u64>,
    },
    /// `min()`.
    Min,
    /// `max()`.
    Max,
}

/// The response side of a recorded operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HistoryReturn<V> {
    /// The insert succeeded (upsert semantics: prior value discarded).
    Inserted,
    /// The remove succeeded, returning the prior value if any.
    Removed {
        /// The value removed, `None` if the key was absent.
        prior: Option<V>,
    },
    /// The exact-match succeeded.
    Value {
        /// The stored value, `None` if the key was absent.
        value: Option<V>,
    },
    /// The range query succeeded.
    Records {
        /// All matching records in key order.
        records: Vec<(u64, V)>,
    },
    /// The min/max query succeeded.
    Extreme {
        /// The extreme record, `None` on an empty index.
        record: Option<(u64, V)>,
    },
    /// The operation returned an error.
    Failed {
        /// Whether the error indicates the index *observed missing
        /// data* ([`LhtError::LookupExhausted`] /
        /// [`LhtError::MissingBucket`]) rather than a delivery or
        /// contention failure. On a fault-free substrate such an
        /// observation is itself evidence: a history checker may
        /// treat the failed read as having observed an absent key.
        data_loss: bool,
    },
}

impl<V> HistoryReturn<V> {
    /// The `Records` answer for a range query's records.
    pub fn records(records: Vec<(KeyFraction, V)>) -> HistoryReturn<V> {
        HistoryReturn::Records {
            records: records.into_iter().map(|(k, v)| (k.bits(), v)).collect(),
        }
    }

    /// The `Extreme` answer for a min/max query's record.
    pub fn extreme(record: Option<(KeyFraction, V)>) -> HistoryReturn<V> {
        HistoryReturn::Extreme {
            record: record.map(|(k, v)| (k.bits(), v)),
        }
    }

    /// The `Failed` record for an index error.
    pub fn failure(e: &LhtError) -> HistoryReturn<V> {
        HistoryReturn::Failed {
            data_loss: matches!(
                e,
                LhtError::LookupExhausted { .. } | LhtError::MissingBucket { .. }
            ),
        }
    }
}

/// One completed operation: who called it, when it was invoked and
/// when its response landed, and the call/return pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpRecord<V> {
    /// The logical client that issued the operation.
    pub client: u32,
    /// Invocation time (the driver's clock).
    pub inv: u64,
    /// Response time (the driver's clock, ≥ `inv`).
    pub resp: u64,
    /// What was called.
    pub call: HistoryCall<V>,
    /// What came back.
    pub ret: HistoryReturn<V>,
}

impl<V> HistoryCall<V> {
    /// Whether the call writes (insert or remove) rather than reads.
    pub fn is_mutation(&self) -> bool {
        matches!(
            self,
            HistoryCall::Insert { .. } | HistoryCall::Remove { .. }
        )
    }
}

/// An index scheme that runs [`HistoryCall`]s: the one entry point a
/// driver needs to hold any scheme to the same sequential spec.
pub trait Executor<V> {
    /// Whether the scheme answers `call` at all. Every scheme inserts,
    /// looks up and ranges; the RST baseline has no remove, and
    /// neither DST nor RST has min/max.
    fn supports(&self, _call: &HistoryCall<V>) -> bool {
        true
    }

    /// Runs `call` and returns what came back plus everything it
    /// cost, split/merge maintenance included. Callers that record the
    /// outcome map an error through [`HistoryReturn::failure`]; the
    /// error itself is returned so its text stays available.
    ///
    /// # Errors
    ///
    /// Whatever the index operation returns.
    ///
    /// # Panics
    ///
    /// On a call the scheme does not [support](Self::supports).
    fn execute(&self, call: &HistoryCall<V>) -> Result<(HistoryReturn<V>, OpCost), LhtError>;
}

impl<D, V> Executor<V> for LhtIndex<D, V>
where
    D: Dht<Value = LeafBucket<V>>,
    V: Clone,
{
    fn execute(&self, call: &HistoryCall<V>) -> Result<(HistoryReturn<V>, OpCost), LhtError> {
        Ok(match call {
            HistoryCall::Insert { key, value } => {
                let out = self.insert(KeyFraction::from_bits(*key), value.clone())?;
                (HistoryReturn::Inserted, out.cost + out.maintenance)
            }
            HistoryCall::Remove { key } => {
                let out = self.remove(KeyFraction::from_bits(*key))?;
                let prior = out.value;
                (HistoryReturn::Removed { prior }, out.cost + out.maintenance)
            }
            HistoryCall::Get { key } => {
                let hit = self.exact_match(KeyFraction::from_bits(*key))?;
                (HistoryReturn::Value { value: hit.value }, hit.cost)
            }
            HistoryCall::Range { lo, hi } => {
                let out = self.range(KeyInterval::from_bits(*lo, *hi))?;
                (HistoryReturn::records(out.records), out.cost.into())
            }
            HistoryCall::Min => {
                let hit = self.min()?;
                (HistoryReturn::extreme(hit.value), hit.cost)
            }
            HistoryCall::Max => {
                let hit = self.max()?;
                (HistoryReturn::extreme(hit.value), hit.cost)
            }
        })
    }
}

/// Client-side wall-clock recorder for *real* concurrency: one per
/// client thread.
///
/// Each recorder stamps its operations with real nanoseconds elapsed
/// since an epoch ([`Instant`]) shared by every client of a run, so
/// intervals recorded by different threads are mutually comparable
/// and the merged history reflects true wall-clock overlap. The
/// linearizability checker only consumes the interval *order*, so the
/// unit (virtual milliseconds in the simulator, real nanoseconds here)
/// is invisible to it.
///
/// Stamps from one recorder are **strictly increasing** even when the
/// monotonic clock fails to tick between two calls on a fast machine:
/// operations issued by one thread really are sequential, and letting
/// a response share a stamp with the next invocation would make the
/// checker treat provably ordered operations as concurrent — exactly
/// the slack a runtime reordering bug needs to slip past it.
///
/// Drive every operation through [`run`](HistoryRecorder::run), then
/// merge the clients' [`into_records`](HistoryRecorder::into_records)
/// with [`merge_histories`] before checking.
#[derive(Debug)]
pub struct HistoryRecorder<V> {
    client: u32,
    epoch: Instant,
    last_stamp: u64,
    records: Vec<OpRecord<V>>,
}

impl<V: Clone> HistoryRecorder<V> {
    /// An empty recorder for `client`, stamping against `epoch`
    /// (share one `Instant` across all clients of a run).
    pub fn new(client: u32, epoch: Instant) -> HistoryRecorder<V> {
        HistoryRecorder {
            client,
            epoch,
            last_stamp: 0,
            records: Vec::new(),
        }
    }

    /// Nanoseconds elapsed since the shared epoch, bumped to stay
    /// strictly above every stamp this recorder handed out before.
    fn now(&mut self) -> u64 {
        let elapsed = u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.last_stamp = elapsed.max(self.last_stamp.saturating_add(1));
        self.last_stamp
    }

    /// Stamps the invocation, [executes](Executor::execute) `call`
    /// against `index`, stamps the response and records the pair.
    pub fn run(&mut self, index: &impl Executor<V>, call: HistoryCall<V>) {
        let inv = self.now();
        let ret = index
            .execute(&call)
            .map_or_else(|e| HistoryReturn::failure(&e), |(ret, _)| ret);
        let resp = self.now();
        self.records.push(OpRecord {
            client: self.client,
            inv,
            resp,
            call,
            ret,
        });
    }

    /// The recorded operations, in issue order.
    pub fn into_records(self) -> Vec<OpRecord<V>> {
        self.records
    }
}

/// Merges per-client histories into one sorted by invocation time
/// (ties broken by response time, then client), the order a
/// linearizability checker expects.
pub fn merge_histories<V>(per_client: Vec<Vec<OpRecord<V>>>) -> Vec<OpRecord<V>> {
    let mut all: Vec<OpRecord<V>> = per_client.into_iter().flatten().collect();
    all.sort_by_key(|r| (r.inv, r.resp, r.client));
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_stamps_real_intervals_and_merge_sorts_by_invocation() {
        let epoch = Instant::now();
        let dht: lht_dht::DirectDht<LeafBucket<u32>> = lht_dht::DirectDht::new();
        let index = LhtIndex::new(&dht, crate::LhtConfig::new(4, 20)).unwrap();
        let index = &index;
        // Two threads record into their own recorders concurrently
        // (each thread owns its recorder — the monotonic stamp is
        // single-writer state); the merged history must be
        // invocation-sorted with resp > inv everywhere.
        let per_client: Vec<Vec<OpRecord<u32>>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2u32)
                .map(|client| {
                    s.spawn(move || {
                        let mut rec: HistoryRecorder<u32> = HistoryRecorder::new(client, epoch);
                        for i in 0..20u64 {
                            rec.run(index, HistoryCall::Get { key: i });
                        }
                        rec.into_records()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Per client, successive intervals never share a stamp even if
        // the clock failed to tick between them.
        for recs in &per_client {
            for w in recs.windows(2) {
                assert!(w[0].resp < w[1].inv, "sequential ops must stay ordered");
            }
        }
        let merged = merge_histories(per_client);
        assert_eq!(merged.len(), 40);
        for w in merged.windows(2) {
            assert!(w[0].inv <= w[1].inv, "merge must sort by invocation");
        }
        for r in &merged {
            assert!(r.resp > r.inv, "stamps must be strictly increasing");
        }
    }

    #[test]
    fn recorder_keeps_an_index_error_as_a_failure() {
        let dht: lht_dht::DirectDht<LeafBucket<u32>> = lht_dht::DirectDht::new();
        let index = LhtIndex::new(&dht, crate::LhtConfig::new(4, 20)).unwrap();
        // A vanished root bucket: the executor hands back the index's
        // own error...
        for key in dht.keys() {
            dht.inject_loss(&key);
        }
        assert!(matches!(
            index.execute(&HistoryCall::Max),
            Err(LhtError::MissingBucket { .. })
        ));
        // ...and the recorder keeps it as a data-loss failure.
        let mut rec = HistoryRecorder::new(0, Instant::now());
        rec.run(&index, HistoryCall::Max);
        assert_eq!(
            rec.into_records()[0].ret,
            HistoryReturn::Failed { data_loss: true }
        );
    }

    #[test]
    fn failure_classifies_data_loss() {
        let lost = HistoryReturn::<u32>::failure(&LhtError::LookupExhausted { key_bits: 1 });
        assert_eq!(lost, HistoryReturn::Failed { data_loss: true });
        let transient = HistoryReturn::<u32>::failure(&LhtError::Contention { attempts: 4 });
        assert_eq!(transient, HistoryReturn::Failed { data_loss: false });
    }
}
