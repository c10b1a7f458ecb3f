//! PHT trie nodes.

use lht_core::KeyInterval;
use lht_dht::DhtKey;
use lht_id::{BitStr, KeyFraction};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A PHT trie node label: the key-bit prefix identifying the node.
///
/// Unlike LHT's [`Label`](lht_core::Label) there is no virtual-root
/// convention: the root is the empty prefix and covers `[0, 1)`, and
/// each bit halves the interval. The label maps *directly* to a DHT
/// key — the trait the LHT paper singles out as the source of PHT's
/// maintenance cost (§8.2: "All the tree nodes (including the internal
/// nodes) are mapped directly by its label").
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct PhtLabel {
    bits: BitStr,
}

impl PhtLabel {
    /// The trie root (empty prefix).
    pub fn root() -> PhtLabel {
        PhtLabel {
            bits: BitStr::EMPTY,
        }
    }

    /// A label from raw bits.
    pub fn from_bits(bits: BitStr) -> PhtLabel {
        PhtLabel { bits }
    }

    /// The leading `n` bits of `key` as a label.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    pub(crate) fn key_prefix(key: KeyFraction, n: usize) -> PhtLabel {
        PhtLabel {
            bits: BitStr::from_key_prefix(key, n),
        }
    }

    /// The label's bits.
    pub fn bits(&self) -> &BitStr {
        &self.bits
    }

    /// Number of bits (trie depth).
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether this is the root (empty prefix).
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// The child label extending by `bit`.
    #[must_use]
    pub fn child(&self, bit: bool) -> PhtLabel {
        PhtLabel {
            bits: self.bits.child(bit),
        }
    }

    /// The parent label, or `None` at the root.
    pub fn parent(&self) -> Option<PhtLabel> {
        self.bits.parent().map(|bits| PhtLabel { bits })
    }

    /// The sibling label, or `None` at the root.
    pub fn sibling(&self) -> Option<PhtLabel> {
        self.bits.sibling().map(|bits| PhtLabel { bits })
    }

    /// The key interval this prefix covers.
    pub fn interval(&self) -> KeyInterval {
        if self.bits.is_empty() {
            return KeyInterval::FULL;
        }
        let mut lo: u128 = 0;
        for i in 0..self.bits.len() {
            if self.bits.bit(i) {
                lo |= 1u128 << (63 - i as u32);
            }
        }
        let width = 1u128 << (64 - self.bits.len() as u32);
        KeyInterval::from_raw(lo, lo + width)
    }

    /// Whether the prefix covers `key`.
    pub fn covers(&self, key: KeyFraction) -> bool {
        self.interval().contains(key)
    }

    /// The DHT key for this trie node. Rendered with a `^` sigil
    /// (e.g. `"^0110"`) so PHT entries can never collide with LHT's
    /// `#`-keys when both indexes share one DHT.
    pub fn dht_key(&self) -> DhtKey {
        DhtKey::from(self.to_string())
    }
}

impl fmt::Display for PhtLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("^")?;
        for b in self.bits.iter() {
            f.write_str(if b { "1" } else { "0" })?;
        }
        Ok(())
    }
}

impl fmt::Debug for PhtLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PhtLabel({self})")
    }
}

/// A PHT leaf: records plus the B+-tree-style doubly-linked leaf list
/// that sequential range queries traverse.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PhtLeaf<V> {
    /// This leaf's own label.
    pub label: PhtLabel,
    /// Stored records, keyed by data key.
    pub records: BTreeMap<KeyFraction, V>,
    /// The next leaf to the left (smaller keys), if any.
    pub prev: Option<PhtLabel>,
    /// The next leaf to the right (larger keys), if any.
    pub next: Option<PhtLabel>,
}

impl<V> PhtLeaf<V> {
    /// An empty unlinked leaf.
    pub fn new(label: PhtLabel) -> PhtLeaf<V> {
        PhtLeaf {
            label,
            records: BTreeMap::new(),
            prev: None,
            next: None,
        }
    }

    /// Whether the leaf is at capacity for threshold `theta` (as in
    /// LHT, the label occupies one storage slot).
    pub fn is_full(&self, theta: usize) -> bool {
        self.records.len() + 1 >= theta
    }

    /// Consumes the leaf and moves out the records with keys inside
    /// `range`, in key order — one sorted run of a range answer.
    pub fn into_records_in(self, range: &KeyInterval) -> Vec<(KeyFraction, V)> {
        self.records
            .into_iter()
            .filter(|(k, _)| range.contains(*k))
            .collect()
    }
}

/// A PHT trie node as stored in the DHT: every prefix present in the
/// trie has an entry, either an internal marker or a leaf.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum PhtNode<V> {
    /// An internal trie node (no data; its presence steers the
    /// prefix-length binary search downward).
    Internal,
    /// A leaf bucket.
    Leaf(PhtLeaf<V>),
}

impl<V> PhtNode<V> {
    /// The leaf inside, if this is a leaf node.
    pub(crate) fn as_leaf(&self) -> Option<&PhtLeaf<V>> {
        match self {
            PhtNode::Internal => None,
            PhtNode::Leaf(l) => Some(l),
        }
    }

    /// The leaf inside, mutably.
    pub(crate) fn as_leaf_mut(&mut self) -> Option<&mut PhtLeaf<V>> {
        match self {
            PhtNode::Internal => None,
            PhtNode::Leaf(l) => Some(l),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pl(s: &str) -> PhtLabel {
        PhtLabel::from_bits(s.parse().unwrap())
    }

    fn kf(x: f64) -> KeyFraction {
        KeyFraction::from_f64(x)
    }

    #[test]
    fn root_covers_everything() {
        assert!(PhtLabel::root().covers(KeyFraction::ZERO));
        assert!(PhtLabel::root().covers(KeyFraction::MAX));
        assert_eq!(PhtLabel::root().interval(), KeyInterval::FULL);
        assert_eq!(PhtLabel::root().to_string(), "^");
    }

    #[test]
    fn intervals_halve_per_bit() {
        // "1" covers [0.5, 1), "10" covers [0.5, 0.75).
        assert!(pl("1").covers(kf(0.6)));
        assert!(!pl("1").covers(kf(0.4)));
        assert!(pl("10").covers(kf(0.6)));
        assert!(!pl("10").covers(kf(0.8)));
        assert!(pl("11").covers(kf(0.8)));
    }

    #[test]
    fn key_prefix_matches_binary_expansion() {
        // 0.4 = 0.0110…
        assert_eq!(PhtLabel::key_prefix(kf(0.4), 4), pl("0110"));
        assert!(PhtLabel::key_prefix(kf(0.4), 4).covers(kf(0.4)));
    }

    #[test]
    fn family_relations() {
        assert_eq!(pl("01").child(true), pl("011"));
        assert_eq!(pl("011").parent(), Some(pl("01")));
        assert_eq!(pl("011").sibling(), Some(pl("010")));
        assert_eq!(PhtLabel::root().parent(), None);
        assert_eq!(PhtLabel::root().sibling(), None);
    }

    #[test]
    fn children_partition_parent() {
        let p = pl("0101");
        let l = p.child(false).interval();
        let r = p.child(true).interval();
        assert_eq!(l.lo_raw(), p.interval().lo_raw());
        assert_eq!(l.hi_raw(), r.lo_raw());
        assert_eq!(r.hi_raw(), p.interval().hi_raw());
    }

    #[test]
    fn dht_keys_use_caret_sigil() {
        assert_eq!(pl("0110").dht_key(), DhtKey::from("^0110"));
        assert_ne!(
            pl("0110").dht_key(),
            DhtKey::from("#0110"),
            "PHT and LHT keys never collide"
        );
    }

    #[test]
    fn leaf_fullness_counts_label_slot() {
        let mut leaf: PhtLeaf<u32> = PhtLeaf::new(pl("0"));
        assert!(!leaf.is_full(3));
        leaf.records.insert(kf(0.1), 1);
        leaf.records.insert(kf(0.2), 2);
        assert!(leaf.is_full(3));
    }

    #[test]
    fn node_leaf_accessors() {
        let mut node: PhtNode<u32> = PhtNode::Leaf(PhtLeaf::new(pl("0")));
        assert!(node.as_leaf().is_some());
        assert!(node.as_leaf_mut().is_some());
        let internal: PhtNode<u32> = PhtNode::Internal;
        assert!(internal.as_leaf().is_none());
    }
}
