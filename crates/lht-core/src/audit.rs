//! Whole-tree invariant checking against an inspectable substrate.
//!
//! These checks are meant for tests, property tests and experiment
//! harnesses: they enumerate every bucket through
//! [`DirectDht`]'s free inspection interface and verify that the
//! stored state forms a consistent LHT — the global guarantees that
//! §3's structure and Theorems 1–2 promise are maintained by every
//! sequence of distributed operations.

use std::collections::BTreeMap;

use lht_dht::DirectDht;
use lht_id::KeyFraction;

use crate::naming::name;
use crate::{Label, LeafBucket, LhtConfig};

/// A violated invariant discovered by [`check_tree`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AuditViolation {
    /// A bucket is stored under a DHT key different from the name of
    /// its label.
    MisplacedBucket {
        /// The key the bucket was found under.
        stored_at: String,
        /// The key it should be under: `f_n(label)`.
        expected: String,
    },
    /// Two leaves' intervals overlap (labels not prefix-free).
    OverlappingLeaves {
        /// First leaf label.
        a: String,
        /// Second leaf label.
        b: String,
    },
    /// The leaves do not tile the whole key space `[0, 1)`.
    CoverageGap {
        /// Raw lower end of the first uncovered point.
        at: u128,
    },
    /// A record's key lies outside its bucket's interval.
    StrayRecord {
        /// The bucket's label.
        label: String,
        /// The stray record's key.
        key: KeyFraction,
    },
    /// A bucket holds more records than the split discipline can
    /// explain. Because each insertion causes at most one split
    /// (§5: "to avoid the cascading split"), a fully-skewed split can
    /// leave the insert-target bucket above `θ_split − 1` records
    /// transiently — but every record beyond capacity was added by an
    /// insertion that also deepened the bucket one level. A leaf at
    /// depth `d` can therefore sit at most `d` records past capacity
    /// (keys sharing a prefix longer than `d`); anything beyond that
    /// bound cannot have been produced by the algorithm and is a bug.
    OverfullBucket {
        /// The bucket's label.
        label: String,
        /// Its record count.
        len: usize,
    },
    /// Two buckets carry the same leaf label — Theorem 1's bijection
    /// between leaf labels and names is violated, so one of them is
    /// unreachable by lookup.
    DuplicateLabel {
        /// The duplicated leaf label.
        label: String,
    },
    /// A leaf label deeper than the configured depth cap.
    DepthExceeded {
        /// The offending leaf label.
        label: String,
        /// The configured maximum depth.
        max_depth: usize,
    },
}

/// Checks every global LHT invariant over the buckets stored in
/// `dht`, returning all violations found (empty = consistent).
///
/// Invariants checked:
///
/// 1. **Placement** — every bucket is stored under `f_n(label)`
///    (Theorem 1's bijection, maintained by Theorem 2 across splits).
/// 2. **Partition** — leaf intervals are pairwise disjoint and tile
///    `[0, 1)` exactly (the space partition tree's fullness).
/// 3. **Containment** — every record lies in its leaf's interval.
/// 4. **Capacity** — no bucket below the depth limit exceeds
///    `θ_split − 1` records by more than one per level of depth it
///    has gained — the transient overflow the one-split-per-insertion
///    discipline permits (see [`AuditViolation::OverfullBucket`]).
///
/// # Examples
///
/// ```
/// use lht_core::{audit, LhtConfig, LhtIndex};
/// use lht_dht::DirectDht;
/// use lht_id::KeyFraction;
///
/// let dht = DirectDht::new();
/// let ix = LhtIndex::new(&dht, LhtConfig::new(4, 20))?;
/// for i in 0..100u32 {
///     ix.insert(KeyFraction::from_f64(i as f64 / 100.0), i)?;
/// }
/// assert!(audit::check_tree(&dht, LhtConfig::new(4, 20)).is_empty());
/// # Ok::<(), lht_core::LhtError>(())
/// ```
pub fn check_tree<V: Clone>(dht: &DirectDht<LeafBucket<V>>, cfg: LhtConfig) -> Vec<AuditViolation> {
    check_entries(tree_entries(dht), cfg)
}

/// Checks the same invariants as [`check_tree`] over an explicit list
/// of `(stored-at key, bucket)` pairs, so trees living on substrates
/// without a free inspection interface (e.g. enumerated out of a
/// simulated Chord ring's node stores) are held to the same standard.
///
/// In addition to the [`check_tree`] invariants, duplicate leaf
/// labels in the entry list are reported as
/// [`AuditViolation::DuplicateLabel`] (Theorem 1's bijectivity: on a
/// keyed store duplicates are impossible, but an enumerated snapshot
/// of a distributed system can contain them), and labels deeper than
/// `cfg.max_depth` as [`AuditViolation::DepthExceeded`].
pub fn check_entries<V: Clone>(
    entries: impl IntoIterator<Item = (lht_dht::DhtKey, LeafBucket<V>)>,
    cfg: LhtConfig,
) -> Vec<AuditViolation> {
    let mut violations = Vec::new();
    let mut leaves: BTreeMap<u128, (Label, u128)> = BTreeMap::new(); // lo -> (label, hi)
    let mut seen_labels: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();

    for (key, bucket) in entries {
        let label = bucket.label();

        // 1. Placement.
        let expected = name(&label).dht_key();
        if key != expected {
            violations.push(AuditViolation::MisplacedBucket {
                stored_at: key.to_string(),
                expected: expected.to_string(),
            });
        }

        // 1b. Bijectivity: a leaf label may appear at most once.
        if !seen_labels.insert(label.to_string()) {
            violations.push(AuditViolation::DuplicateLabel {
                label: label.to_string(),
            });
            continue;
        }

        // 1c. Depth cap.
        if label.len() > cfg.max_depth {
            violations.push(AuditViolation::DepthExceeded {
                label: label.to_string(),
                max_depth: cfg.max_depth,
            });
        }

        // 3. Containment.
        for (k, _) in bucket.iter() {
            if !bucket.covers(k) {
                violations.push(AuditViolation::StrayRecord {
                    label: label.to_string(),
                    key: k,
                });
            }
        }

        // 4. Capacity (buckets at the depth limit may overflow
        // freely; below it, only the bounded transient overflow of
        // skewed one-split-per-insert growth is allowed — one excess
        // record per level of depth the bucket has gained).
        if label.len() < cfg.max_depth && bucket.len() > cfg.bucket_capacity() + label.len() {
            violations.push(AuditViolation::OverfullBucket {
                label: label.to_string(),
                len: bucket.len(),
            });
        }

        let iv = label.interval();
        leaves.insert(iv.lo_raw(), (label, iv.hi_raw()));
    }

    // 2. Partition: walk intervals in order; they must chain exactly
    // from 0 to 2^64.
    let mut cursor: u128 = 0;
    for (lo, (label, hi)) in &leaves {
        if *lo < cursor {
            // Overlap with the previous leaf.
            let prev = leaves
                .range(..lo)
                .next_back()
                .map(|(_, (l, _))| l.to_string())
                .unwrap_or_default();
            violations.push(AuditViolation::OverlappingLeaves {
                a: prev,
                b: label.to_string(),
            });
        } else if *lo > cursor {
            violations.push(AuditViolation::CoverageGap { at: cursor });
        }
        cursor = cursor.max(*hi);
    }
    if cursor != 1u128 << 64 {
        violations.push(AuditViolation::CoverageGap { at: cursor });
    }

    violations
}

/// Enumerates `(stored-at key, bucket)` pairs out of a [`DirectDht`]
/// (free oracle view).
pub(crate) fn tree_entries<V: Clone>(
    dht: &DirectDht<LeafBucket<V>>,
) -> Vec<(lht_dht::DhtKey, LeafBucket<V>)> {
    dht.keys()
        .into_iter()
        .filter_map(|k| dht.peek(&k, |b| b.cloned()).map(|b| (k, b)))
        .collect()
}

/// Total number of records stored across all buckets (free oracle
/// count, for conservation checks in tests).
pub fn total_records<V: Clone>(dht: &DirectDht<LeafBucket<V>>) -> usize {
    dht.keys()
        .into_iter()
        .map(|k| dht.peek(&k, |b| b.map(|b| b.len()).unwrap_or(0)))
        .sum()
}

/// Every record in an enumerated tree snapshot, sorted by key —
/// the materialized index contents, for differential comparison
/// against a reference model.
pub fn entry_records<V: Clone>(
    entries: &[(lht_dht::DhtKey, LeafBucket<V>)],
) -> Vec<(KeyFraction, V)> {
    let mut records: Vec<(KeyFraction, V)> = entries
        .iter()
        .flat_map(|(_, b)| b.iter().map(|(k, v)| (k, v.clone())))
        .collect();
    records.sort_by_key(|(k, _)| *k);
    records
}

/// All bucket labels currently stored, in interval order (free oracle
/// view, for computing the optimal `B` of a range query in tests).
pub fn leaf_labels<V: Clone>(dht: &DirectDht<LeafBucket<V>>) -> Vec<Label> {
    let mut labels: Vec<Label> = dht
        .keys()
        .into_iter()
        .filter_map(|k| dht.peek(&k, |b| b.map(|b| b.label())))
        .collect();
    labels.sort_by_key(|l| l.interval().lo_raw());
    labels
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LhtIndex;

    fn kf(x: f64) -> KeyFraction {
        KeyFraction::from_f64(x)
    }

    #[test]
    fn fresh_index_is_consistent() {
        let dht = DirectDht::new();
        let cfg = LhtConfig::new(4, 20);
        let _ix: LhtIndex<_, u32> = LhtIndex::new(&dht, cfg).unwrap();
        assert!(check_tree(&dht, cfg).is_empty());
        assert_eq!(total_records(&dht), 0);
        assert_eq!(leaf_labels(&dht), vec![Label::root()]);
    }

    #[test]
    fn consistency_survives_growth() {
        let dht = DirectDht::new();
        let cfg = LhtConfig::new(4, 20);
        let ix = LhtIndex::new(&dht, cfg).unwrap();
        for i in 0..300u32 {
            ix.insert(kf((i as f64 + 0.5) / 300.0), i).unwrap();
            if i % 50 == 0 {
                assert!(
                    check_tree(&dht, cfg).is_empty(),
                    "tree inconsistent after {i} inserts: {:?}",
                    check_tree(&dht, cfg)
                );
            }
        }
        assert!(check_tree(&dht, cfg).is_empty());
        assert_eq!(total_records(&dht), 300);
        assert!(leaf_labels(&dht).len() > 50);
    }

    #[test]
    fn consistency_survives_shrinkage() {
        let dht = DirectDht::new();
        let cfg = LhtConfig::new(4, 20);
        let ix = LhtIndex::new(&dht, cfg).unwrap();
        for i in 0..200u32 {
            ix.insert(kf((i as f64 + 0.5) / 200.0), i).unwrap();
        }
        for i in 0..200u32 {
            ix.remove(kf((i as f64 + 0.5) / 200.0)).unwrap();
            if i % 40 == 0 {
                assert!(check_tree(&dht, cfg).is_empty());
            }
        }
        assert!(check_tree(&dht, cfg).is_empty());
        assert_eq!(total_records(&dht), 0);
    }

    /// Regression (found by the differential soak, seed 3): keys
    /// sharing a prefix deeper than `max_depth` grow one bucket by
    /// one record per insert while it deepens one level per insert —
    /// legitimate one-split-per-insert behaviour the capacity audit
    /// must accept, at every intermediate depth and at the cap.
    #[test]
    fn clustered_overflow_below_depth_cap_is_legal() {
        let dht = DirectDht::new();
        let cfg = LhtConfig::new(2, 24);
        let ix = LhtIndex::new(&dht, cfg).unwrap();
        // 40-bit shared prefix: indistinguishable within 24 levels.
        let base: u64 = 0x5866_D800_0000_0000;
        for i in 0..32u32 {
            let key = KeyFraction::from_bits(base | u64::from(i));
            ix.insert(key, i).unwrap();
            let violations = check_tree(&dht, cfg);
            assert!(
                violations.is_empty(),
                "audit rejected legal clustered growth after {i} inserts: {violations:?}"
            );
        }
        assert_eq!(total_records(&dht), 32);
    }

    #[test]
    fn audit_detects_data_loss() {
        let dht = DirectDht::new();
        let cfg = LhtConfig::new(4, 20);
        let ix = LhtIndex::new(&dht, cfg).unwrap();
        for i in 0..100u32 {
            ix.insert(kf((i as f64 + 0.5) / 100.0), i).unwrap();
        }
        // Vaporize one bucket: coverage must now have a gap.
        let victim = dht.keys().into_iter().next().unwrap();
        dht.inject_loss(&victim);
        let violations = check_tree(&dht, cfg);
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, AuditViolation::CoverageGap { .. })),
            "expected a coverage gap, got {violations:?}"
        );
    }
}
