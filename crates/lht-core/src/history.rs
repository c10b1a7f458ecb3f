//! Operation-history recording at the index API boundary.
//!
//! A [`HistoryLog`] captures every public index operation as an
//! `(invocation, response)` pair stamped with the virtual times a
//! driving harness supplies — the raw material for linearizability
//! checking (Herlihy & Wing's correctness condition for concurrent
//! objects). The log itself is passive: the index records *what* was
//! called and *what* came back; the harness owns the clock and decides
//! when each operation's invocation and response happen by calling
//! [`HistoryLog::set_context`] before an operation and
//! [`HistoryLog::close_last`] after it.
//!
//! Recording is opt-in per index handle
//! ([`LhtIndex::attach_history`](crate::LhtIndex::attach_history));
//! with no log attached each hook costs one uncontended mutex
//! acquisition on the handle and zero clones.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::LhtError;

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
/// when its response landed (virtual time), and the call/return pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpRecord<V> {
    /// The logical client that issued the operation.
    pub client: u32,
    /// Invocation time (virtual milliseconds).
    pub inv: u64,
    /// Response time (virtual milliseconds, ≥ `inv`).
    pub resp: u64,
    /// What was called.
    pub call: HistoryCall<V>,
    /// What came back.
    pub ret: HistoryReturn<V>,
}

#[derive(Debug)]
struct Inner<V> {
    client: u32,
    now: u64,
    records: Vec<OpRecord<V>>,
    /// Index of the record opened by the current context, so the
    /// harness can stamp its response time after measuring the
    /// operation's simulated duration.
    open: Option<usize>,
}

/// A shared, append-only log of index operations: passive records
/// stamped with the times the driving harness supplies.
#[derive(Debug)]
pub struct HistoryLog<V> {
    inner: Mutex<Inner<V>>,
}

impl<V> Default for HistoryLog<V> {
    fn default() -> Self {
        HistoryLog {
            inner: Mutex::new(Inner {
                client: 0,
                now: 0,
                records: Vec::new(),
                open: None,
            }),
        }
    }
}

impl<V> HistoryLog<V> {
    /// An empty log wrapped for sharing between a harness and any
    /// number of index handles.
    pub fn new() -> Arc<HistoryLog<V>> {
        Arc::new(HistoryLog::default())
    }

    /// Declares that the next recorded operation is issued by
    /// `client` and invoked at virtual time `at`.
    pub fn set_context(&self, client: u32, at: u64) {
        let mut inner = self.inner.lock();
        inner.client = client;
        inner.now = at;
        inner.open = None;
    }

    /// Appends one operation under the current context. The response
    /// time is provisionally the invocation time until
    /// [`close_last`](Self::close_last) stamps it. Called by the index
    /// hooks, not by harness code.
    pub fn record(&self, call: HistoryCall<V>, ret: HistoryReturn<V>) {
        let mut inner = self.inner.lock();
        let rec = OpRecord {
            client: inner.client,
            inv: inner.now,
            resp: inner.now,
            call,
            ret,
        };
        inner.records.push(rec);
        inner.open = Some(inner.records.len() - 1);
    }

    /// Stamps the response time of the operation recorded since the
    /// last [`set_context`](Self::set_context). No-op if nothing was
    /// recorded (e.g. the harness drove a non-recorded API).
    pub fn close_last(&self, resp: u64) {
        let mut inner = self.inner.lock();
        if let Some(i) = inner.open.take() {
            let rec = &mut inner.records[i];
            rec.resp = resp.max(rec.inv);
        }
    }

    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.inner.lock().records.len()
    }

    /// Whether the log holds no operations.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of all recorded operations, in recording order (which
    /// is also invocation-time order under a monotone harness clock).
    pub fn snapshot(&self) -> Vec<OpRecord<V>>
    where
        V: Clone,
    {
        self.inner.lock().records.clone()
    }
}

/// Client-side wall-clock recorder for *real* concurrency.
///
/// [`HistoryLog`] keeps a single open-record slot, which is exactly
/// right for a harness interleaving logical clients on one thread and
/// exactly wrong for OS threads racing each other: two clients sharing
/// one log would stamp each other's context. A `HistoryRecorder` gives
/// each client thread its **own** log plus a shared epoch
/// ([`Instant`](std::time::Instant)), stamping every operation with
/// real nanoseconds elapsed since that epoch — so intervals recorded
/// by different threads are mutually comparable and the merged history
/// reflects true wall-clock overlap. The linearizability checker only
/// consumes the interval *order*, so the unit change (virtual
/// milliseconds → real nanoseconds) is invisible to it.
///
/// Stamps from one recorder are **strictly increasing** even when the
/// monotonic clock fails to tick between two calls on a fast machine:
/// operations issued by one thread really are sequential, and letting
/// a response share a stamp with the next invocation would make the
/// checker treat provably ordered operations as concurrent — exactly
/// the slack a runtime reordering bug needs to slip past it.
///
/// Use [`log`](HistoryRecorder::log) to attach the per-client log to
/// an index handle (`LhtIndex::attach_history`) and bracket each call
/// with [`invoke`](HistoryRecorder::invoke) /
/// [`complete`](HistoryRecorder::complete). Merge the per-client logs
/// with [`merge_histories`] before checking.
#[derive(Debug)]
pub struct HistoryRecorder<V> {
    log: Arc<HistoryLog<V>>,
    client: u32,
    epoch: std::time::Instant,
    last_stamp: std::cell::Cell<u64>,
}

impl<V> HistoryRecorder<V> {
    /// A recorder for `client` with a fresh private log, stamping
    /// against `epoch` (share one `Instant` across all clients of a
    /// run).
    pub fn new(client: u32, epoch: std::time::Instant) -> HistoryRecorder<V> {
        HistoryRecorder {
            log: HistoryLog::new(),
            client,
            epoch,
            last_stamp: std::cell::Cell::new(0),
        }
    }

    /// The per-client log, for attaching to an index handle.
    pub fn log(&self) -> Arc<HistoryLog<V>> {
        Arc::clone(&self.log)
    }

    /// Nanoseconds elapsed since the shared epoch, bumped to stay
    /// strictly above every stamp this recorder handed out before.
    pub fn now(&self) -> u64 {
        let elapsed = u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let stamp = elapsed.max(self.last_stamp.get().saturating_add(1));
        self.last_stamp.set(stamp);
        stamp
    }

    /// Stamps the invocation context: the next recorded operation is
    /// issued by this client, now.
    pub fn invoke(&self) {
        self.log.set_context(self.client, self.now());
    }

    /// Stamps the response time of the operation recorded since
    /// [`invoke`](Self::invoke).
    pub fn complete(&self) {
        self.log.close_last(self.now());
    }
}

/// Merges per-client logs into one history sorted by invocation time
/// (ties broken by response time, then client), the order a
/// linearizability checker expects.
pub fn merge_histories<V: Clone>(logs: &[Arc<HistoryLog<V>>]) -> Vec<OpRecord<V>> {
    let mut all: Vec<OpRecord<V>> = logs.iter().flat_map(|log| log.snapshot()).collect();
    all.sort_by_key(|r| (r.inv, r.resp, r.client));
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_carry_context_and_close_stamps_response() {
        let log: Arc<HistoryLog<u32>> = HistoryLog::new();
        log.set_context(3, 100);
        log.record(
            HistoryCall::Get { key: 7 },
            HistoryReturn::Value { value: None },
        );
        log.close_last(140);
        let recs = log.snapshot();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].client, 3);
        assert_eq!(recs[0].inv, 100);
        assert_eq!(recs[0].resp, 140);
    }

    #[test]
    fn close_never_moves_response_before_invocation() {
        let log: Arc<HistoryLog<u32>> = HistoryLog::new();
        log.set_context(0, 50);
        log.record(HistoryCall::Min, HistoryReturn::Extreme { record: None });
        log.close_last(10);
        assert_eq!(log.snapshot()[0].resp, 50);
    }

    #[test]
    fn recorder_stamps_real_intervals_and_merge_sorts_by_invocation() {
        let epoch = std::time::Instant::now();
        // Two threads record into their own logs concurrently (each
        // thread owns its recorder — the per-recorder monotonic stamp
        // is single-writer state); the merged history must be
        // invocation-sorted with resp > inv everywhere.
        let logs: Vec<Arc<HistoryLog<u32>>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2u32)
                .map(|client| {
                    s.spawn(move || {
                        let rec: HistoryRecorder<u32> = HistoryRecorder::new(client, epoch);
                        for i in 0..20u64 {
                            rec.invoke();
                            rec.log().record(
                                HistoryCall::Get { key: i },
                                HistoryReturn::Value { value: None },
                            );
                            rec.complete();
                        }
                        rec.log()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let merged = merge_histories(&logs);
        assert_eq!(merged.len(), 40);
        for w in merged.windows(2) {
            assert!(w[0].inv <= w[1].inv, "merge must sort by invocation");
        }
        for r in &merged {
            assert!(r.resp > r.inv, "stamps must be strictly increasing");
        }
        // Per client, successive intervals never share a stamp even if
        // the clock failed to tick between them.
        for log in &logs {
            let recs = log.snapshot();
            for w in recs.windows(2) {
                assert!(w[0].resp < w[1].inv, "sequential ops must stay ordered");
            }
        }
    }

    #[test]
    fn recorder_brackets_index_driven_records() {
        let epoch = std::time::Instant::now();
        let rec: HistoryRecorder<u32> = HistoryRecorder::new(7, epoch);
        rec.invoke();
        // Between invoke and complete the index hooks call
        // `log.record` themselves; emulate one here.
        rec.log().record(
            HistoryCall::Insert { key: 1, value: 2 },
            HistoryReturn::Inserted,
        );
        rec.complete();
        let recs = rec.log().snapshot();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].client, 7);
        assert!(recs[0].resp >= recs[0].inv);
    }

    #[test]
    fn failure_classifies_data_loss() {
        let lost = HistoryReturn::<u32>::failure(&LhtError::LookupExhausted { key_bits: 1 });
        assert_eq!(lost, HistoryReturn::Failed { data_loss: true });
        let transient = HistoryReturn::<u32>::failure(&LhtError::Contention { attempts: 4 });
        assert_eq!(transient, HistoryReturn::Failed { data_loss: false });
    }
}
