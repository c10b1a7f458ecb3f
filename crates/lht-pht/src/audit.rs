//! Whole-trie invariant checking for PHT, mirroring
//! [`lht_core::audit`] so both schemes are held to the same standard
//! in tests and experiments.

use std::collections::BTreeMap;

use lht_core::LhtConfig;
use lht_dht::{DhtKey, DirectDht};

use crate::{PhtLabel, PhtNode};

/// A violated PHT invariant found by [`check_trie_entries`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PhtViolation {
    /// The root entry is missing.
    MissingRoot,
    /// An internal node lacks one of its children (the trie must be
    /// full: internal nodes have exactly two child entries).
    MissingChild {
        /// The internal node's label.
        parent: String,
        /// The missing child's label.
        child: String,
    },
    /// A node's parent entry is missing or is not internal.
    OrphanNode {
        /// The orphaned node's label.
        label: String,
    },
    /// The leaves do not tile the key space exactly.
    CoverageGap {
        /// Raw position of the first uncovered point.
        at: u128,
    },
    /// A leaf's `prev`/`next` links do not match its interval
    /// neighbors.
    BrokenChain {
        /// The leaf whose link is wrong.
        label: String,
    },
    /// A record's key lies outside its leaf's interval.
    StrayRecord {
        /// The offending leaf.
        label: String,
    },
    /// A leaf holds more records than the split discipline can
    /// explain (same transient-overflow slack as LHT's audit: one
    /// excess record per level of depth the leaf has gained).
    OverfullLeaf {
        /// The leaf's label.
        label: String,
        /// Its record count.
        len: usize,
    },
}

/// Checks every PHT structural invariant over a materialized
/// `(key, node)` dump — the form any substrate can supply (e.g.
/// [`ChordDht::all_entries`](lht_dht::ChordDht::all_entries)), so
/// Chord-backed tries are held to the same invariants as the oracle.
/// Returns all violations (empty = consistent).
pub fn check_trie_entries<V: Clone>(
    entries: Vec<(DhtKey, PhtNode<V>)>,
    cfg: LhtConfig,
) -> Vec<PhtViolation> {
    let mut violations = Vec::new();
    let mut nodes: BTreeMap<String, PhtNode<V>> = BTreeMap::new();
    let mut labels: BTreeMap<String, PhtLabel> = BTreeMap::new();

    for (key, node) in entries {
        let text = key.to_string();
        let bits = text.trim_start_matches('^');
        let label = PhtLabel::from_bits(bits.parse().expect("trie keys are bit strings"));
        labels.insert(text.clone(), label);
        nodes.insert(text, node);
    }

    if !nodes.contains_key("^") {
        violations.push(PhtViolation::MissingRoot);
        return violations;
    }

    // Structure: fullness and parent links.
    let mut leaves: BTreeMap<u128, (PhtLabel, u128)> = BTreeMap::new();
    for (text, node) in &nodes {
        let label = labels[text];
        if let Some(parent) = label.parent() {
            match nodes.get(&parent.to_string()) {
                Some(PhtNode::Internal) => {}
                _ => violations.push(PhtViolation::OrphanNode {
                    label: text.clone(),
                }),
            }
        }
        match node {
            PhtNode::Internal => {
                for bit in [false, true] {
                    let child = label.child(bit);
                    if !nodes.contains_key(&child.to_string()) {
                        violations.push(PhtViolation::MissingChild {
                            parent: text.clone(),
                            child: child.to_string(),
                        });
                    }
                }
            }
            PhtNode::Leaf(leaf) => {
                for k in leaf.records.keys() {
                    if !label.covers(*k) {
                        violations.push(PhtViolation::StrayRecord {
                            label: text.clone(),
                        });
                        break;
                    }
                }
                if label.len() < cfg.max_depth
                    && leaf.records.len() > cfg.bucket_capacity() + label.len()
                {
                    violations.push(PhtViolation::OverfullLeaf {
                        label: text.clone(),
                        len: leaf.records.len(),
                    });
                }
                let iv = label.interval();
                leaves.insert(iv.lo_raw(), (label, iv.hi_raw()));
            }
        }
    }

    // Coverage: leaves tile [0, 1).
    let mut cursor = 0u128;
    for (lo, (_, hi)) in &leaves {
        if *lo != cursor {
            violations.push(PhtViolation::CoverageGap { at: cursor });
        }
        cursor = cursor.max(*hi);
    }
    if cursor != 1u128 << 64 {
        violations.push(PhtViolation::CoverageGap { at: cursor });
    }

    // Leaf chain: prev/next match interval adjacency exactly.
    let ordered: Vec<&(PhtLabel, u128)> = leaves.values().collect();
    for (i, (label, _)) in ordered.iter().enumerate() {
        let node = &nodes[&label.to_string()];
        let leaf = node.as_leaf().expect("collected from leaves");
        let expect_prev = if i == 0 { None } else { Some(ordered[i - 1].0) };
        let expect_next = if i + 1 == ordered.len() {
            None
        } else {
            Some(ordered[i + 1].0)
        };
        if leaf.prev != expect_prev || leaf.next != expect_next {
            violations.push(PhtViolation::BrokenChain {
                label: label.to_string(),
            });
        }
    }

    violations
}

/// Every record stored across the leaves of a materialized
/// `(key, node)` dump, sorted by key — the trie contents, for
/// differential comparison against a reference model or against the
/// LHT built from the same workload.
pub fn records_from_entries<V: Clone>(
    entries: Vec<(DhtKey, PhtNode<V>)>,
) -> Vec<(lht_id::KeyFraction, V)> {
    let mut records: Vec<(lht_id::KeyFraction, V)> = entries
        .into_iter()
        .flat_map(|(_, n)| match n {
            PhtNode::Leaf(l) => l.records.into_iter().collect(),
            PhtNode::Internal => Vec::new(),
        })
        .collect();
    records.sort_by_key(|(k, _)| *k);
    records
}

/// Total records stored across all leaves (free oracle count).
pub fn total_records<V: Clone>(dht: &DirectDht<PhtNode<V>>) -> usize {
    dht.keys()
        .into_iter()
        .map(|k| {
            dht.peek(&k, |n| match n {
                Some(PhtNode::Leaf(l)) => l.records.len(),
                _ => 0,
            })
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PhtIndex;
    use lht_id::KeyFraction;
    use proptest::prelude::*;

    /// Checks every PHT structural invariant over the nodes stored in
    /// `dht`. Returns all violations (empty = consistent).
    fn check_trie<V: Clone>(dht: &DirectDht<PhtNode<V>>, cfg: LhtConfig) -> Vec<PhtViolation> {
        check_trie_entries(
            dht.keys()
                .into_iter()
                .map(|key| {
                    let node = dht.peek(&key, |n| n.cloned()).expect("just enumerated");
                    (key, node)
                })
                .collect(),
            cfg,
        )
    }

    fn kf(x: f64) -> KeyFraction {
        KeyFraction::from_f64(x)
    }

    #[test]
    fn fresh_trie_is_consistent() {
        let dht = DirectDht::new();
        let cfg = LhtConfig::new(4, 20);
        let _ix: PhtIndex<_, u32> = PhtIndex::new(&dht, cfg).unwrap();
        assert!(check_trie(&dht, cfg).is_empty());
        assert_eq!(total_records(&dht), 0);
    }

    #[test]
    fn consistency_survives_growth_and_shrinkage() {
        let dht = DirectDht::new();
        let cfg = LhtConfig::new(4, 20);
        let ix = PhtIndex::new(&dht, cfg).unwrap();
        for i in 0..200u32 {
            ix.insert(kf((i as f64 + 0.5) / 200.0), i).unwrap();
            if i % 40 == 0 {
                assert!(check_trie(&dht, cfg).is_empty(), "after insert {i}");
            }
        }
        assert_eq!(total_records(&dht), 200);
        for i in 0..200u32 {
            ix.remove(kf((i as f64 + 0.5) / 200.0)).unwrap();
            if i % 40 == 0 {
                assert!(check_trie(&dht, cfg).is_empty(), "after remove {i}");
            }
        }
        assert!(check_trie(&dht, cfg).is_empty());
        assert_eq!(total_records(&dht), 0);
    }

    #[test]
    fn audit_detects_injected_loss() {
        let dht = DirectDht::new();
        let cfg = LhtConfig::new(4, 20);
        let ix = PhtIndex::new(&dht, cfg).unwrap();
        for i in 0..100u32 {
            ix.insert(kf((i as f64 + 0.5) / 100.0), i).unwrap();
        }
        let victim = dht.keys().into_iter().next().unwrap();
        dht.inject_loss(&victim);
        assert!(!check_trie(&dht, cfg).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Arbitrary interleavings of inserts and removes keep the
        /// trie consistent and agree with a model map.
        #[test]
        fn trie_invariants_under_mixed_workloads(
            ops in proptest::collection::vec((any::<u64>(), any::<bool>()), 1..250),
            theta in 2usize..10,
        ) {
            let dht = DirectDht::new();
            let cfg = LhtConfig::new(theta, 24);
            let ix: PhtIndex<_, u32> = PhtIndex::new(&dht, cfg).unwrap();
            let mut model = std::collections::BTreeMap::new();
            for (i, (bits, is_insert)) in ops.iter().enumerate() {
                let bits = if i % 3 == 0 { ops[i / 2].0 } else { *bits };
                let k = KeyFraction::from_bits(bits);
                if *is_insert {
                    ix.insert(k, i as u32).unwrap();
                    model.insert(bits, i as u32);
                } else {
                    let (v, ..) = ix.remove(k).unwrap();
                    prop_assert_eq!(v, model.remove(&bits));
                }
            }
            prop_assert!(check_trie(&dht, cfg).is_empty());
            prop_assert_eq!(total_records(&dht), model.len());
            for (bits, v) in &model {
                prop_assert_eq!(
                    ix.exact_match(KeyFraction::from_bits(*bits)).unwrap().0,
                    Some(*v)
                );
            }
        }
    }
}
