//! The distributed LHT index (paper §4, §5, §7).

use parking_lot::Mutex;

use lht_dht::{Dht, DhtError};
use lht_id::KeyFraction;

use crate::naming::{left_neighbor, name, next_name, right_neighbor, NamingCacheStats};
use crate::{IndexStats, Label, LeafBucket, LhtConfig, LhtError, OpCost};

/// The result of an LHT lookup (Algorithm 2): the covering leaf
/// bucket, the DHT name it was found under, and the lookup's cost.
#[derive(Clone, Debug)]
pub struct LookupHit<V> {
    /// The DHT key (an internal-node label) the bucket is stored
    /// under: `f_n(bucket.label())`.
    pub name: Label,
    /// A copy of the covering leaf bucket.
    pub bucket: LeafBucket<V>,
    /// DHT-lookups consumed (sequential: `steps == dht_lookups`).
    pub cost: OpCost,
}

/// The result of an exact-match query.
#[derive(Clone, Debug)]
pub struct MatchHit<V> {
    /// The record stored under the queried key, if any.
    pub value: Option<V>,
    /// DHT-lookups consumed.
    pub cost: OpCost,
}

/// The result of an insertion.
#[derive(Clone, Copy, Debug)]
pub struct InsertOutcome {
    /// Whether the insertion triggered a leaf split (at most one per
    /// insertion, §5: "to avoid the cascading split").
    pub did_split: bool,
    /// Query-side cost: the LHT lookup plus the record's DHT-put.
    pub cost: OpCost,
    /// Maintenance-side cost (§8.2): one DHT-lookup per split — the
    /// push of the remote leaf bucket. Zero when no split happened.
    pub maintenance: OpCost,
}

/// The result of a removal.
#[derive(Clone, Debug)]
pub struct RemoveOutcome<V> {
    /// The removed record, if the key was present.
    pub value: Option<V>,
    /// Whether the removal triggered a leaf merge.
    pub did_merge: bool,
    /// Query-side cost: the LHT lookup plus the removal update.
    pub cost: OpCost,
    /// Maintenance-side cost of the merge, if one happened. One of
    /// these lookups is the data-carrying transfer (the dual of the
    /// split's single DHT-put, §8.2); the other two are the sibling
    /// size probe and the old entry's tombstone removal, which our
    /// distributed implementation performs explicitly.
    pub maintenance: OpCost,
}

/// The result of a min/max query (§7, Theorem 3).
#[derive(Clone, Debug)]
pub struct MinMaxHit<V> {
    /// The extreme record `(key, value)`, or `None` if the index
    /// holds no records.
    pub value: Option<(KeyFraction, V)>,
    /// DHT-lookups consumed: exactly 1 in the common case.
    pub cost: OpCost,
}

/// A Low-maintenance Hash Tree index over a DHT substrate.
///
/// `LhtIndex` is generic over any [`Dht`] whose values are
/// [`LeafBucket`]s — the paper's adaptability claim (§1). All methods
/// take `&self`: the index object is a *client handle*; the state
/// lives in the DHT.
///
/// See the [crate-level documentation](crate) for an overview and a
/// complete example.
#[derive(Debug)]
pub struct LhtIndex<D, V>
where
    D: Dht<Value = LeafBucket<V>>,
{
    dht: D,
    cfg: LhtConfig,
    stats: Mutex<IndexStats>,
    /// Torn-split fault injection: when `Some(n)`, the `n`-th
    /// subsequent split "forgets" the DHT-put of its remote half —
    /// the seeded bug re-introduction the simulation checker must
    /// catch. `None` in normal operation.
    torn_split: Mutex<Option<u64>>,
}

impl<D, V> LhtIndex<D, V>
where
    D: Dht<Value = LeafBucket<V>>,
    V: Clone,
{
    /// Creates an index handle over `dht`, bootstrapping the initial
    /// single-leaf tree (the regular root `#0`, stored under its name
    /// `#`) if no root bucket exists yet.
    ///
    /// # Errors
    ///
    /// Returns an error if the substrate fails.
    pub fn new(dht: D, cfg: LhtConfig) -> Result<Self, LhtError> {
        let index = LhtIndex {
            dht,
            cfg,
            stats: Mutex::new(IndexStats::default()),
            torn_split: Mutex::new(None),
        };
        // Bootstrap: a brand-new LHT is the single leaf #0, named #.
        let root_key = Label::virtual_root().dht_key();
        index.dht.update(&root_key, &mut |slot| {
            if slot.is_none() {
                *slot = Some(LeafBucket::new(Label::root()));
            }
        })?;
        Ok(index)
    }

    /// The index configuration.
    pub fn config(&self) -> LhtConfig {
        self.cfg
    }

    /// The underlying DHT substrate.
    pub fn dht(&self) -> &D {
        &self.dht
    }

    /// Cumulative index statistics (splits, merges, maintenance cost,
    /// average α).
    pub fn stats(&self) -> IndexStats {
        *self.stats.lock()
    }

    /// Resets the cumulative index statistics.
    pub fn reset_stats(&self) {
        *self.stats.lock() = IndexStats::default();
    }

    /// Naming-cache statistics: always [`NamingCacheStats::default()`].
    /// The index resolves every label with [`Label::dht_key`] and
    /// keeps no naming cache (a key's ring digest is memoized by the
    /// [`DhtKey`](lht_dht::DhtKey) itself, on whichever layer routes
    /// it), so there is nothing to count; the method stays for callers
    /// that report the counters, whose `hit_rate()` reads 0.0.
    pub fn naming_cache_stats(&self) -> NamingCacheStats {
        NamingCacheStats::default()
    }

    /// Arms the torn-split fault injection: the `nth` split (1-based,
    /// counted from this call) performed by *this handle* commits its
    /// local half but skips the DHT-put of the remote half — silently
    /// dropping the records that moved there. This re-introduces a
    /// realistic one-line bug (a lost maintenance write) so the
    /// deterministic-simulation checker can prove it detects the
    /// resulting non-linearizable histories.
    pub fn arm_torn_split(&self, nth: u64) {
        *self.torn_split.lock() = Some(nth.max(1));
    }

    /// Decrements the armed torn-split countdown; `true` exactly when
    /// the current split is the one that must lose its remote put.
    fn torn_split_fires(&self) -> bool {
        let mut slot = self.torn_split.lock();
        match slot.as_mut() {
            Some(1) => {
                *slot = None;
                true
            }
            Some(n) => {
                *n -= 1;
                false
            }
            None => false,
        }
    }

    /// LHT lookup (Algorithm 2): finds the leaf bucket covering `key`
    /// by binary search over the candidate prefix lengths of the
    /// search string `μ(key, D)`, probing each candidate's *name* and
    /// using `f_n`/`f_nn` to skip same-named prefixes. Costs
    /// ≈ `log(D/2)` DHT-gets.
    ///
    /// # Errors
    ///
    /// [`LhtError::LookupExhausted`] if no covering bucket exists.
    /// In a quiescent consistent tree that indicates substrate data
    /// loss; while *another client is mid-split* (its remote half not
    /// yet put) or mid-merge (its mover taken but not yet merged) the
    /// same error can surface transiently, and readers that share an
    /// index with writers should retry it — the test
    /// `split_and_merge_windows_hide_the_moving_half` pins both
    /// windows. Substrate failures are propagated.
    pub fn lookup(&self, key: KeyFraction) -> Result<LookupHit<V>, LhtError> {
        let d = self.cfg.max_depth;
        let mu = Label::search_string(key, d);
        // Candidate leaf-label bit-lengths (the paper's character
        // lengths 2..=D+1 are bit lengths 1..=D).
        let mut shorter = 1usize;
        let mut longer = d;
        let mut gets = 0u64;
        while shorter <= longer {
            let mid = (shorter + longer) / 2;
            let x = mu.prefix(mid);
            let nm = name(&x);
            gets += 1;
            match self.dht.get(&nm.dht_key())? {
                None => {
                    // Failed get: the tree is shallower here. Every
                    // prefix strictly between f_n(x) and x shares the
                    // name f_n(x), so lengths down to |f_n(x)| stay
                    // candidates (Alg. 2 line 9).
                    if nm.len() < shorter {
                        break;
                    }
                    longer = nm.len();
                }
                Some(bucket) if bucket.covers(key) => {
                    return Ok(LookupHit {
                        name: nm,
                        bucket,
                        cost: OpCost::sequential(gets),
                    });
                }
                Some(_) => {
                    // The name exists but belongs to another leaf: x
                    // denotes an internal node; descend to the next
                    // differently-named prefix (Alg. 2 line 15).
                    if x.len() >= mu.len() {
                        break; // no deeper candidate; tree inconsistent
                    }
                    match next_name(&x, &mu) {
                        Some(nn) => shorter = nn.len(),
                        None => break, // rest of μ shares f_n(x): inconsistent
                    }
                }
            }
        }
        Err(LhtError::LookupExhausted {
            key_bits: key.bits(),
        })
    }

    /// Exact-match query (§5): an LHT lookup returning the record
    /// associated with `key` rather than the bucket.
    ///
    /// # Errors
    ///
    /// Propagates [`lookup`](Self::lookup) errors.
    pub fn exact_match(&self, key: KeyFraction) -> Result<MatchHit<V>, LhtError> {
        self.lookup(key).map(|hit| MatchHit {
            value: hit.bucket.get(key).cloned(),
            cost: hit.cost,
        })
    }

    /// Inserts a record (§5): an LHT lookup of `key` followed by a
    /// DHT-put of the record towards the located bucket. If the bucket
    /// is full it splits first (Algorithm 1) — at most one split per
    /// insertion — pushing the remote half to another peer with a
    /// single extra DHT-put, LHT's headline maintenance saving
    /// (Theorem 2).
    ///
    /// Replaces and discards any previous record with the same key
    /// (data keys are distinct identifiers, §3.1).
    ///
    /// # Concurrency
    ///
    /// Insertion is lookup-then-put, so a *concurrent* client's split
    /// can relabel the target bucket in between (and a split's remote
    /// put leaves a brief window in which one name is not yet
    /// retrievable). Like any over-DHT client, this method retries
    /// the lookup-put pair — bounded by a small budget — when it
    /// detects a stale target; single-client workloads never retry.
    ///
    /// # Errors
    ///
    /// Propagates lookup errors and substrate failures;
    /// [`LhtError::Contention`] if the retry budget is exhausted.
    pub fn insert(&self, key: KeyFraction, value: V) -> Result<InsertOutcome, LhtError> {
        let theta = self.cfg.theta_split;
        let max_depth = self.cfg.max_depth;
        let mut holder = Some(value);
        let mut cost = OpCost::ZERO;

        for attempt in 1..=CONTENTION_RETRIES {
            let hit = match self.lookup(key) {
                Ok(hit) => hit,
                // Transient during another client's split window: the
                // remote half's name is not yet retrievable.
                Err(LhtError::LookupExhausted { .. }) if attempt < CONTENTION_RETRIES => {
                    std::thread::yield_now();
                    continue;
                }
                Err(e) => return Err(e),
            };
            cost += hit.cost;

            let mut split_put: Option<(Label, LeafBucket<V>, u64)> = None;
            let mut stale = false;
            self.dht.update(&hit.name.dht_key(), &mut |slot| {
                // The bucket may have been split (relabeled) or merged
                // away by another client since our lookup.
                let Some(bucket) = slot.as_mut() else {
                    stale = true;
                    return;
                };
                if !bucket.covers(key) {
                    stale = true;
                    return;
                }
                let Some(v) = holder.take() else { return };
                // A leaf at the depth limit D can no longer split; it
                // absorbs the record (the a-priori D is chosen so
                // this is rare, §5 footnote 4).
                if bucket.is_full(theta) && bucket.label().len() < max_depth {
                    let old_label = bucket.label();
                    let out = bucket.split();
                    let mut remote = out.remote;
                    if remote.covers(key) {
                        // The new record rides along with the remote
                        // bucket's DHT-put — no extra cost.
                        remote.insert(key, v);
                    } else {
                        bucket.insert(key, v);
                    }
                    split_put = Some((old_label, remote, out.moved_units));
                } else {
                    bucket.insert(key, v);
                }
            })?;
            cost += OpCost::sequential(1); // the put towards the bucket
            if stale {
                std::thread::yield_now();
                continue;
            }

            let mut maintenance = OpCost::ZERO;
            let mut did_split = false;
            if let Some((remote_label, remote, moved_units)) = split_put {
                // Algorithm 1 line 11: DHT-put(λ, rb) — the split's
                // one and only DHT-lookup. The local half already
                // committed, so ride out transient delivery failures
                // rather than strand the remote half's records.
                // An armed torn-split mutant skips exactly this put,
                // stranding the remote half (fault injection only).
                let remote_key = remote_label.dht_key();
                if !self.torn_split_fires() {
                    retry_transient(|| self.dht.put(&remote_key, remote.clone()))?;
                }
                maintenance = OpCost::sequential(1);
                did_split = true;
                let mut stats = self.stats.lock();
                stats.splits += 1;
                stats.maintenance_lookups += 1;
                stats.records_moved += moved_units;
                stats.alpha_sum += moved_units as f64 / theta as f64;
            }
            self.stats.lock().inserts += 1;
            return Ok(InsertOutcome {
                did_split,
                cost,
                maintenance,
            });
        }
        Err(LhtError::Contention {
            attempts: CONTENTION_RETRIES,
        })
    }

    /// Removes the record with data key `key`, if present. If the
    /// removal leaves the bucket small enough that its subtree might
    /// hold fewer than `θ_split` records, the sibling leaf is probed
    /// and the two are merged into their parent (§3.2) — the dual of
    /// a split, restricted to one merge per removal.
    ///
    /// Retries like [`insert`](Self::insert) when a concurrent
    /// structural change invalidates the located bucket.
    ///
    /// # Errors
    ///
    /// Propagates lookup errors and substrate failures;
    /// [`LhtError::Contention`] if the retry budget is exhausted.
    pub fn remove(&self, key: KeyFraction) -> Result<RemoveOutcome<V>, LhtError> {
        let mut cost = OpCost::ZERO;
        for attempt in 1..=CONTENTION_RETRIES {
            let hit = match self.lookup(key) {
                Ok(hit) => hit,
                Err(LhtError::LookupExhausted { .. }) if attempt < CONTENTION_RETRIES => {
                    std::thread::yield_now();
                    continue;
                }
                Err(e) => return Err(e),
            };
            cost += hit.cost;

            let mut removed: Option<V> = None;
            let mut post: Option<LeafBucket<V>> = None;
            let mut stale = false;
            self.dht
                .update(&hit.name.dht_key(), &mut |slot| match slot.as_mut() {
                    Some(bucket) if bucket.covers(key) => {
                        removed = bucket.remove(key);
                        post = Some(bucket.clone());
                    }
                    Some(_) | None => stale = true,
                })?;
            cost += OpCost::sequential(1);
            if stale {
                std::thread::yield_now();
                continue;
            }
            self.stats.lock().removes += 1;

            let bucket = post.expect("not stale implies bucket observed");
            if removed.is_none() {
                return Ok(RemoveOutcome {
                    value: None,
                    did_merge: false,
                    cost,
                    maintenance: OpCost::ZERO,
                });
            }

            // Merge check. Only probe the sibling when this bucket
            // got small enough that a merge is at all plausible (half
            // the capacity), bounding probe traffic.
            let capacity = self.cfg.bucket_capacity();
            let mut maintenance = OpCost::ZERO;
            let mut did_merge = false;
            if bucket.label().len() > 1 && bucket.len() <= capacity / 2 {
                let (merged, mcost) = self.try_merge(&bucket)?;
                did_merge = merged;
                maintenance = mcost;
            }
            return Ok(RemoveOutcome {
                value: removed,
                did_merge,
                cost,
                maintenance,
            });
        }
        Err(LhtError::Contention {
            attempts: CONTENTION_RETRIES,
        })
    }

    /// Attempts to merge `bucket` with its sibling leaf. Returns
    /// whether a merge happened and its maintenance cost.
    fn try_merge(&self, bucket: &LeafBucket<V>) -> Result<(bool, OpCost), LhtError> {
        let label = bucket.label();
        let Some(sibling_label) = label.sibling() else {
            return Ok((false, OpCost::ZERO));
        };
        let parent = label.parent().expect("sibling implies parent");

        // Probe: if the sibling subtree were a single leaf, that leaf
        // would be stored under f_n(sibling). 1 DHT-get.
        let probe_name = name(&sibling_label);
        let mut lookups = 1u64;
        let Some(sibling) = self.dht.get(&probe_name.dht_key())? else {
            return Ok((false, OpCost::sequential(lookups)));
        };
        if sibling.label() != sibling_label {
            // The name belongs to some other leaf: the sibling is an
            // internal node (its subtree has >= 2 leaves); no merge.
            return Ok((false, OpCost::sequential(lookups)));
        }
        if bucket.len() + sibling.len() > capacity_for_merge(self.cfg) {
            return Ok((false, OpCost::sequential(lookups)));
        }

        // Merge: of the two children, one is named f_n(parent) — it
        // stays put and becomes the parent leaf — and the other is
        // named `parent` (Theorem 2 read backwards); its entry moves.
        let keep_name = name(&parent);
        let keep_label = if name(&label) == keep_name {
            label
        } else {
            debug_assert_eq!(name(&sibling_label), keep_name);
            sibling_label
        };
        let mover_label = if keep_label == label {
            sibling_label
        } else {
            label
        };

        // Phase 1: atomically take the mover's *live* entry (the
        // probe above was only a size heuristic — merging a stale
        // snapshot would drop records concurrently inserted into the
        // mover). A concurrent structural change means the entry is
        // gone or relabeled: abort (and restore if relabeled).
        let parent_key = parent.dht_key();
        let taken = self.dht.remove(&parent_key)?;
        lookups += 1;
        let moving = match taken {
            Some(b) if b.label() == mover_label => b,
            Some(other) => {
                // Restore what we took; the entry is already out of
                // the DHT, so a transient failure must not strand it.
                retry_transient(|| self.dht.put(&parent_key, other.clone()))?;
                return Ok((false, OpCost::sequential(lookups + 1)));
            }
            None => return Ok((false, OpCost::sequential(lookups))),
        };
        let moved_units = moving.len() as u64 + 1;

        // Phase 2: the data-carrying transfer into the keeper — the
        // dual of the split's DHT-put. If the keeper changed shape
        // meanwhile, restore the mover and abort.
        let mut merged_ok = false;
        let moving_for_restore = moving.clone();
        // Phase 1 already removed the mover, so phase 2 (and any
        // restore) must ride out transient delivery failures — giving
        // up here would lose the mover's records.
        let keep_key = keep_name.dht_key();
        retry_transient(|| {
            self.dht.update(&keep_key, &mut |slot| {
                if let Some(kept) = slot.as_mut() {
                    if kept.label() == keep_label {
                        kept.merge_sibling(moving.clone());
                        merged_ok = true;
                    }
                }
            })
        })?;
        lookups += 1;
        if !merged_ok {
            retry_transient(|| self.dht.put(&parent_key, moving_for_restore.clone()))?;
            return Ok((false, OpCost::sequential(lookups + 1)));
        }

        let mut stats = self.stats.lock();
        stats.merges += 1;
        stats.maintenance_lookups += lookups;
        stats.records_moved += moved_units;
        Ok((true, OpCost::sequential(lookups)))
    }

    /// Min query (§7, Theorem 3): one DHT-lookup of `#` returns the
    /// leftmost leaf, whose smallest record is the minimum.
    ///
    /// If that leaf happens to be empty (possible after deletions),
    /// the walk continues through right neighbors until a record is
    /// found — each step one batched round of two speculative
    /// DHT-lookups (the neighbor's two candidate names).
    ///
    /// # Errors
    ///
    /// Propagates substrate failures; [`LhtError::MissingBucket`] if
    /// the root bucket vanished.
    pub fn min(&self) -> Result<MinMaxHit<V>, LhtError> {
        self.extreme(true)
    }

    /// Max query (§7, Theorem 3): one DHT-lookup of `#0` returns the
    /// rightmost leaf, whose largest record is the maximum. (When the
    /// tree is a single leaf there is no bucket named `#0`; the root
    /// bucket at `#` is consulted with one extra lookup.)
    ///
    /// # Errors
    ///
    /// Propagates substrate failures; [`LhtError::MissingBucket`] if
    /// the root bucket vanished.
    pub fn max(&self) -> Result<MinMaxHit<V>, LhtError> {
        self.extreme(false)
    }

    fn extreme(&self, smallest: bool) -> Result<MinMaxHit<V>, LhtError> {
        let first_name = if smallest {
            Label::virtual_root() // leftmost leaf #00* is named #
        } else {
            Label::root() // rightmost leaf #01* is named #0
        };
        let mut lookups = 1u64;
        let mut steps = 1u64;
        let mut bucket = match self.dht.get(&first_name.dht_key())? {
            Some(b) => b,
            None if !smallest => {
                // Single-leaf tree: the only bucket lives at #.
                lookups += 1;
                steps += 1;
                self.dht
                    .get(&Label::virtual_root().dht_key())?
                    .ok_or_else(|| LhtError::MissingBucket {
                        key: "#".to_string(),
                    })?
            }
            None => {
                return Err(LhtError::MissingBucket {
                    key: "#".to_string(),
                })
            }
        };
        loop {
            let record = if smallest {
                bucket.min_record()
            } else {
                bucket.max_record()
            };
            if let Some((k, v)) = record {
                return Ok(MinMaxHit {
                    value: Some((k, v.clone())),
                    cost: OpCost {
                        dht_lookups: lookups,
                        steps,
                    },
                });
            }
            // Empty bucket: continue towards the middle of the key
            // space through the neighbor functions.
            let beta = if smallest {
                right_neighbor(&bucket.label())
            } else {
                left_neighbor(&bucket.label())
            };
            if beta == bucket.label() {
                // Reached the far spine: the index is empty.
                return Ok(MinMaxHit {
                    value: None,
                    cost: OpCost {
                        dht_lookups: lookups,
                        steps,
                    },
                });
            }
            // The near-edge leaf of τ_β is named β itself (leftmost
            // leaf for a right neighbor, rightmost for a left one);
            // if β is a leaf the name is f_n(β) instead. Probe both
            // candidates speculatively in one batched round.
            lookups += 2;
            steps += 1;
            let keys = [beta.dht_key(), name(&beta).dht_key()];
            self.dht.prewarm(&keys);
            let mut got = self.dht.multi_get(&keys);
            let at_fallback = got.pop().expect("two results for two keys")?;
            let at_beta = got.pop().expect("two results for two keys")?;
            bucket = match at_beta {
                Some(b) => b,
                None => at_fallback.ok_or_else(|| LhtError::MissingBucket {
                    key: name(&beta).to_string(),
                })?,
            };
        }
    }
}

/// Retry budget for mutating operations racing concurrent structural
/// changes (see [`LhtIndex::insert`]'s concurrency note). Generous:
/// retries are free in the common case and each one yields the
/// thread, standing in for the network round-trip delay that paces a
/// real client.
const CONTENTION_RETRIES: u32 = 64;

/// Maximum combined record count for two siblings to merge: the
/// merged bucket must fit (§3.2: merge when the subtree holds fewer
/// than `θ_split` records; with the label occupying one slot that is
/// `θ_split − 1` data records).
fn capacity_for_merge(cfg: LhtConfig) -> usize {
    cfg.bucket_capacity()
}

/// Attempt budget for [`retry_transient`].
const TRANSIENT_RETRIES: u32 = 8;

/// Retries `f` through transient delivery failures
/// ([`DhtError::is_transient`]: drops and timeouts on a lossy
/// substrate). Delivery failures are request-path only — the rejected
/// operation never reached the store — so re-sending is always safe.
///
/// Used at the multi-write maintenance steps (the split's remote put,
/// the merge's transfer and restore puts) where giving up after an
/// earlier write has landed would strand records. Single-write
/// operations instead lean on the caller wrapping the substrate in
/// [`RetriedDht`](lht_dht::RetriedDht).
pub fn retry_transient<T>(mut f: impl FnMut() -> Result<T, DhtError>) -> Result<T, DhtError> {
    let mut last = None;
    for _ in 0..TRANSIENT_RETRIES {
        match f() {
            Err(e) if e.is_transient() => last = Some(e),
            other => return other,
        }
    }
    Err(last.expect("at least one attempt ran"))
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;

    use super::*;
    use lht_dht::{DhtKey, DhtStats, DirectDht};

    type Ix<'a> = LhtIndex<&'a DirectDht<LeafBucket<u32>>, u32>;

    fn kf(x: f64) -> KeyFraction {
        KeyFraction::from_f64(x)
    }

    fn new_index(dht: &DirectDht<LeafBucket<u32>>, theta: usize) -> Ix<'_> {
        LhtIndex::new(dht, LhtConfig::new(theta, 20)).unwrap()
    }

    #[test]
    fn bootstrap_creates_single_leaf_at_virtual_root() {
        let dht = DirectDht::new();
        let _ix = new_index(&dht, 10);
        dht.peek(&DhtKey::from("#"), |b| {
            let b = b.expect("root bucket exists");
            assert_eq!(b.label(), Label::root());
            assert!(b.is_empty());
        });
    }

    #[test]
    fn bootstrap_is_idempotent() {
        let dht = DirectDht::new();
        let ix = new_index(&dht, 10);
        ix.insert(kf(0.5), 1).unwrap();
        // A second handle over the same DHT must not clobber data.
        let ix2 = new_index(&dht, 10);
        assert_eq!(ix2.exact_match(kf(0.5)).unwrap().value, Some(1));
    }

    #[test]
    fn insert_then_exact_match() {
        let dht = DirectDht::new();
        let ix = new_index(&dht, 10);
        for i in 0..50 {
            ix.insert(kf(i as f64 / 50.0), i).unwrap();
        }
        for i in 0..50 {
            assert_eq!(
                ix.exact_match(kf(i as f64 / 50.0)).unwrap().value,
                Some(i),
                "key {i}/50"
            );
        }
        assert_eq!(ix.exact_match(kf(0.999)).unwrap().value, None);
    }

    #[test]
    fn insert_replaces_same_key() {
        let dht = DirectDht::new();
        let ix = new_index(&dht, 10);
        ix.insert(kf(0.5), 1).unwrap();
        ix.insert(kf(0.5), 2).unwrap();
        assert_eq!(ix.exact_match(kf(0.5)).unwrap().value, Some(2));
        assert_eq!(ix.stats().inserts, 2);
    }

    #[test]
    fn splits_happen_and_cost_one_lookup_each() {
        let dht = DirectDht::new();
        let ix = new_index(&dht, 4); // capacity 3 records
        let mut split_seen = false;
        for i in 0..32 {
            let out = ix.insert(kf((i as f64 + 0.5) / 32.0), i).unwrap();
            if out.did_split {
                split_seen = true;
                assert_eq!(out.maintenance.dht_lookups, 1);
            } else {
                assert_eq!(out.maintenance.dht_lookups, 0);
            }
        }
        assert!(split_seen);
        let stats = ix.stats();
        assert!(
            stats.splits >= 8,
            "expected many splits, got {}",
            stats.splits
        );
        assert_eq!(stats.maintenance_lookups, stats.splits);
        // Everything still findable after all the splits.
        for i in 0..32 {
            assert_eq!(
                ix.exact_match(kf((i as f64 + 0.5) / 32.0)).unwrap().value,
                Some(i)
            );
        }
    }

    #[test]
    fn lookup_cost_is_logarithmic_in_depth() {
        let dht = DirectDht::new();
        let ix = new_index(&dht, 4);
        for i in 0..512 {
            ix.insert(kf((i as f64 + 0.5) / 512.0), i).unwrap();
        }
        // D = 20: binary search over ~D/2 candidate names needs at
        // most ~ceil(log2(10)) + 1 = 5 gets.
        for i in (0..512).step_by(37) {
            let hit = ix.lookup(kf((i as f64 + 0.5) / 512.0)).unwrap();
            assert!(
                hit.cost.dht_lookups <= 5,
                "lookup took {} gets",
                hit.cost.dht_lookups
            );
        }
    }

    #[test]
    fn min_and_max_are_single_lookup() {
        let dht = DirectDht::new();
        let ix = new_index(&dht, 4);
        for i in 1..100 {
            ix.insert(kf(i as f64 / 100.0), i).unwrap();
        }
        let min = ix.min().unwrap();
        assert_eq!(min.value.as_ref().unwrap().1, 1);
        assert_eq!(min.cost.dht_lookups, 1, "Theorem 3: min is one lookup");
        let max = ix.max().unwrap();
        assert_eq!(max.value.as_ref().unwrap().1, 99);
        assert_eq!(max.cost.dht_lookups, 1, "Theorem 3: max is one lookup");
    }

    #[test]
    fn min_max_on_empty_index() {
        let dht = DirectDht::new();
        let ix = new_index(&dht, 4);
        assert_eq!(ix.min().unwrap().value, None);
        // Single-leaf tree: max needs the +1 fallback lookup of #.
        let max = ix.max().unwrap();
        assert_eq!(max.value, None);
        assert_eq!(max.cost.dht_lookups, 2);
    }

    #[test]
    fn min_max_single_record() {
        let dht = DirectDht::new();
        let ix = new_index(&dht, 10);
        ix.insert(kf(0.42), 7).unwrap();
        assert_eq!(ix.min().unwrap().value, Some((kf(0.42), 7)));
        assert_eq!(ix.max().unwrap().value, Some((kf(0.42), 7)));
    }

    /// The key that sits where `k` does with the key space flipped end
    /// for end: every leaf interval maps onto its mirror image.
    fn mirror(k: KeyFraction) -> KeyFraction {
        KeyFraction::from_bits(!k.bits())
    }

    /// A θ = 4 tree whose lower half combs in towards 1/2 (one record
    /// at 0.1, then 0.25, 0.375, 0.4375, … each alone in its leaf) and
    /// whose upper half is its mirror image; then the three lowest
    /// records and their mirrors are removed. Each emptied leaf's
    /// sibling is an internal node, so no removal can merge it away.
    fn index_with_empty_outer_leaves(dht: &DirectDht<LeafBucket<u32>>) -> Ix<'_> {
        let ix = new_index(dht, 4);
        let lower: Vec<KeyFraction> = std::iter::once(kf(0.1))
            .chain((2..12).map(|j| kf(0.5 - 0.5f64.powi(j))))
            .collect();
        for (i, &k) in lower.iter().enumerate() {
            ix.insert(k, i as u32).unwrap();
            ix.insert(mirror(k), 100 + i as u32).unwrap();
        }
        for &k in &lower[..3] {
            assert!(ix.remove(k).unwrap().value.is_some());
            assert!(ix.remove(mirror(k)).unwrap().value.is_some());
        }
        assert_eq!(ix.stats().merges, 0, "the emptied leaves stay leaves");
        ix
    }

    /// Every leaf's record count, left to right, read off the
    /// substrate without a DHT operation.
    fn leaf_sizes(dht: &DirectDht<LeafBucket<u32>>) -> Vec<usize> {
        let mut leaves: Vec<(u128, usize)> = dht
            .keys()
            .iter()
            .map(|key| {
                dht.peek(key, |b| {
                    let b = b.expect("listed key holds a bucket");
                    (b.interval().lo_raw(), b.len())
                })
            })
            .collect();
        leaves.sort_unstable();
        leaves.into_iter().map(|(_, len)| len).collect()
    }

    #[test]
    fn min_walks_empty_leaves_at_one_two_name_round_each() {
        let dht = DirectDht::new();
        let ix = index_with_empty_outer_leaves(&dht);
        let c = leaf_sizes(&dht).iter().take_while(|&&n| n == 0).count() as u64;
        assert_eq!(c, 3);
        let min = ix.min().unwrap();
        assert_eq!(min.value.map(|(k, _)| k), Some(kf(0.4375)));
        let expected = OpCost {
            dht_lookups: 1 + 2 * c,
            steps: 1 + c,
        };
        assert_eq!(min.cost, expected);
    }

    #[test]
    fn max_walks_empty_leaves_at_one_two_name_round_each() {
        let dht = DirectDht::new();
        let ix = index_with_empty_outer_leaves(&dht);
        let c = leaf_sizes(&dht)
            .iter()
            .rev()
            .take_while(|&&n| n == 0)
            .count() as u64;
        assert_eq!(c, 3);
        let max = ix.max().unwrap();
        assert_eq!(max.value.map(|(k, _)| k), Some(mirror(kf(0.4375))));
        let expected = OpCost {
            dht_lookups: 1 + 2 * c,
            steps: 1 + c,
        };
        assert_eq!(max.cost, expected);
    }

    #[test]
    fn remove_returns_value_and_absence() {
        let dht = DirectDht::new();
        let ix = new_index(&dht, 10);
        ix.insert(kf(0.3), 3).unwrap();
        let out = ix.remove(kf(0.3)).unwrap();
        assert_eq!(out.value, Some(3));
        assert_eq!(ix.remove(kf(0.3)).unwrap().value, None);
        assert_eq!(ix.exact_match(kf(0.3)).unwrap().value, None);
    }

    #[test]
    fn removals_trigger_merges_and_data_survives() {
        let dht = DirectDht::new();
        let ix = new_index(&dht, 4);
        let n = 64;
        for i in 0..n {
            ix.insert(kf((i as f64 + 0.5) / n as f64), i).unwrap();
        }
        assert!(ix.stats().splits > 0);
        // Remove three quarters of the records; merges must fire.
        for i in 0..n {
            if i % 4 != 0 {
                let out = ix.remove(kf((i as f64 + 0.5) / n as f64)).unwrap();
                assert_eq!(out.value, Some(i));
            }
        }
        assert!(ix.stats().merges > 0, "expected merges under deletion");
        // Remaining records all still reachable.
        for i in (0..n).step_by(4) {
            assert_eq!(
                ix.exact_match(kf((i as f64 + 0.5) / n as f64))
                    .unwrap()
                    .value,
                Some(i),
                "record {i} lost by merging"
            );
        }
    }

    #[test]
    fn alpha_accounting_matches_formula_for_uniform_data() {
        let dht = DirectDht::new();
        let theta = 40;
        let ix = new_index(&dht, theta);
        // Dense uniform keys.
        let n = 8192;
        for i in 0..n {
            ix.insert(kf((i as f64 + 0.5) / n as f64), i).unwrap();
        }
        let alpha = ix.stats().average_alpha().expect("splits happened");
        let predicted = 0.5 + 1.0 / (2.0 * theta as f64);
        assert!(
            (alpha - predicted).abs() < 0.02,
            "average alpha {alpha} should approach {predicted}"
        );
    }

    #[test]
    fn lookup_error_after_data_loss() {
        let dht = DirectDht::new();
        let ix = new_index(&dht, 4);
        for i in 0..64 {
            ix.insert(kf((i as f64 + 0.5) / 64.0), i).unwrap();
        }
        // Destroy every bucket: lookups must fail loudly, not loop.
        for key in dht.keys() {
            dht.inject_loss(&key);
        }
        match ix.lookup(kf(0.5)) {
            Err(LhtError::LookupExhausted { .. }) => {}
            other => panic!("expected LookupExhausted, got {other:?}"),
        }
    }

    #[test]
    fn depth_limit_stops_splitting() {
        let dht = DirectDht::new();
        let ix: LhtIndex<_, u32> = LhtIndex::new(&dht, LhtConfig::new(2, 3)).unwrap();
        // All keys in a tiny interval: depth would explode, but D = 3
        // caps it; buckets at depth 3 absorb overflow.
        for i in 0..20 {
            ix.insert(KeyFraction::from_bits(i), i as u32).unwrap();
        }
        for i in 0..20 {
            assert_eq!(
                ix.exact_match(KeyFraction::from_bits(i)).unwrap().value,
                Some(i as u32)
            );
        }
        assert!(ix.stats().splits <= 3);
    }

    /// The kinds of substrate call an [`Interleave`] tells apart.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Call {
        Get,
        Put,
        Remove,
        Update,
    }

    /// Which calls, seen since [`Interleave::arm`] and the current one
    /// last, fire the hook.
    type Trigger = fn(&[Call]) -> bool;

    /// The reads another handle makes inside the window.
    type Hook<'a> = Box<dyn FnOnce() + 'a>;

    /// A substrate double over a [`DirectDht`]: forwards every call,
    /// and once armed runs its hook just before forwarding the first
    /// call its trigger picks. Another handle's reads then land at one
    /// exact point of a protocol, with no threads and no timing.
    struct Interleave<'a> {
        inner: &'a DirectDht<LeafBucket<u32>>,
        seen: RefCell<Vec<Call>>,
        armed: RefCell<Option<(Trigger, Hook<'a>)>>,
    }

    impl<'a> Interleave<'a> {
        fn new(inner: &'a DirectDht<LeafBucket<u32>>) -> Self {
            Interleave {
                inner,
                seen: RefCell::new(Vec::new()),
                armed: RefCell::new(None),
            }
        }

        fn arm(&self, when: Trigger, hook: impl FnOnce() + 'a) {
            self.seen.borrow_mut().clear();
            *self.armed.borrow_mut() = Some((when, Box::new(hook)));
        }

        fn before(&self, call: Call) {
            let mut seen = self.seen.borrow_mut();
            seen.push(call);
            let fire = matches!(&*self.armed.borrow(), Some((when, _)) if when(&seen));
            drop(seen);
            if fire {
                let (_, hook) = self.armed.borrow_mut().take().expect("armed");
                hook();
            }
        }
    }

    impl Dht for Interleave<'_> {
        type Value = LeafBucket<u32>;

        fn get(&self, key: &DhtKey) -> Result<Option<LeafBucket<u32>>, DhtError> {
            self.before(Call::Get);
            self.inner.get(key)
        }

        fn put(&self, key: &DhtKey, value: LeafBucket<u32>) -> Result<(), DhtError> {
            self.before(Call::Put);
            self.inner.put(key, value)
        }

        fn remove(&self, key: &DhtKey) -> Result<Option<LeafBucket<u32>>, DhtError> {
            self.before(Call::Remove);
            self.inner.remove(key)
        }

        fn update(
            &self,
            key: &DhtKey,
            f: &mut dyn FnMut(&mut Option<LeafBucket<u32>>),
        ) -> Result<(), DhtError> {
            self.before(Call::Update);
            self.inner.update(key, f)
        }

        fn stats(&self) -> DhtStats {
            self.inner.stats()
        }

        fn reset_stats(&self) {
            self.inner.reset_stats()
        }
    }

    fn read(ix: &Ix<'_>, x: f64) -> Result<Option<u32>, LhtError> {
        ix.exact_match(kf(x)).map(|hit| hit.value)
    }

    /// Pins the `[split-window]` defect (ROADMAP) on both of its
    /// protocols, deterministically: a second handle reads from inside
    /// the window, between the two DHT operations that move half a
    /// bucket.
    ///
    /// - *Split.* With θ = 4 the leaf `#0` (named `#`) holds 0.1, 0.2
    ///   and 0.6; inserting 0.7 splits it into a local `#00`, still
    ///   named `#`, and a remote `#01`, named `#0`. The local relabel
    ///   commits first, so just before the remote half's `put` the
    ///   keys of `#01` are covered by no stored bucket.
    /// - *Merge.* Removing 0.7 merges `#01` back: the mover `#01` is
    ///   `remove`d, then `update`d into the keeper `#00`. In between,
    ///   0.6 is again covered by nothing.
    ///
    /// In both windows a read of a moving key fails with
    /// `LookupExhausted` while a key of the staying half still
    /// resolves, and once the operation returns every key resolves.
    /// The `[split-window]` product fix closes the window by
    /// construction; it flips the two in-window `LookupExhausted`
    /// assertions to `Ok(Some(2))` and must leave the rest unchanged.
    #[test]
    fn split_and_merge_windows_hide_the_moving_half() {
        let dht = DirectDht::new();
        let reader = new_index(&dht, 4);
        let in_window = RefCell::new(Vec::new());
        let double = Interleave::new(&dht);
        let ix = LhtIndex::new(&double, LhtConfig::new(4, 20)).unwrap();
        for (i, x) in [0.1, 0.2, 0.6].into_iter().enumerate() {
            ix.insert(kf(x), i as u32).unwrap();
        }
        let exhausted = Err(LhtError::LookupExhausted {
            key_bits: kf(0.6).bits(),
        });

        // Split: hook the remote half's put.
        double.arm(
            |calls| calls.last() == Some(&Call::Put),
            || {
                in_window
                    .borrow_mut()
                    .extend([read(&reader, 0.6), read(&reader, 0.1)])
            },
        );
        assert!(ix.insert(kf(0.7), 3).unwrap().did_split);
        assert_eq!(in_window.take(), vec![exhausted.clone(), Ok(Some(0))]);
        assert_eq!(read(&reader, 0.6), Ok(Some(2)));

        // Merge: hook the first update after the mover's remove.
        double.arm(
            |calls| {
                calls.last() == Some(&Call::Update)
                    && calls[..calls.len() - 1].contains(&Call::Remove)
            },
            || in_window.borrow_mut().push(read(&reader, 0.6)),
        );
        assert!(ix.remove(kf(0.7)).unwrap().did_merge);
        assert_eq!(in_window.take(), vec![exhausted]);
        assert_eq!(read(&reader, 0.6), Ok(Some(2)));
    }
}
