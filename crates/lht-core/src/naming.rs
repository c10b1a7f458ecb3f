//! The naming function and its relatives (paper §3.4, §5, §6.1).
//!
//! These four pure functions on [`Label`]s carry the entire paper:
//!
//! * [`name`] — `f_n` (Definition 1): maps each *leaf* label
//!   bijectively onto an *internal node* label, which becomes the
//!   leaf bucket's DHT key. Theorem 1 (bijectivity) and Theorem 2
//!   (split locality) are verified by property tests in this module.
//! * [`next_name`] — `f_nn` (Definition 2): during a lookup's binary
//!   search, the next prefix of the search string whose name differs
//!   from the current one (all prefixes in between share a name and
//!   need not be probed).
//! * [`right_neighbor`] / [`left_neighbor`] — `f_rn` / `f_ln`
//!   (Definition 3): from a node label, the label of its nearest
//!   right/left *branch node*, letting a leaf bucket walk its local
//!   tree during range queries with zero extra state.
//!
//! The index resolves a label to its DHT key with [`Label::dht_key`]
//! on every probe: rendering is pure local work, and the key's ring
//! digest is computed lazily, once, by whichever layer routes it. The
//! module also hosts the [`NamingCache`], a standalone LRU memo of
//! `Label → DhtKey` resolutions that no index uses.

use crate::Label;
use lht_dht::{DhtKey, Lru};
use parking_lot::Mutex;

/// The naming function `f_n` (Definition 1): strips the label's entire
/// trailing run of equal bits.
///
/// If `λ` ends in 0, all trailing 0s are removed; otherwise all
/// trailing 1s. `f_n(#00…0) = #` (the virtual root).
///
/// By Theorem 1 this is a bijection from the leaf labels `Λ` of any
/// partition tree onto its internal node labels `Ω`: the leaf `ω11…`
/// (rightmost under `ω`) is named `ω` when `ω` ends in 0, and the leaf
/// `ω00…` (leftmost under `ω`) is named `ω` when `ω` ends in 1 or is
/// the virtual root.
///
/// # Examples
///
/// ```
/// use lht_core::naming::name;
///
/// // The paper's §3.4 examples:
/// assert_eq!(name(&"#01100".parse()?), "#011".parse()?);
/// assert_eq!(name(&"#01011".parse()?), "#010".parse()?);
/// // fn(#01111) = #0 (Fig. 4).
/// assert_eq!(name(&"#01111".parse()?), "#0".parse()?);
/// # Ok::<(), lht_core::LhtError>(())
/// ```
///
/// # Panics
///
/// Panics if `label` is the virtual root, which is never a leaf.
pub fn name(label: &Label) -> Label {
    assert!(
        !label.is_virtual_root(),
        "the virtual root is not a leaf and has no name"
    );
    Label::from_bits(label.bits().strip_trailing_run())
}

/// The next-naming function `f_nn` (Definition 2): the shortest prefix
/// of `mu` longer than `x` whose final bit differs from `x`'s final
/// bit — the first prefix past `x` that is *not* named `f_n(x)`.
///
/// Returns `None` when every remaining bit of `mu` equals `x`'s final
/// bit (no such prefix exists). During a lookup this cannot occur at
/// the point `f_nn` is consulted — see Algorithm 2 — but the total
/// function makes that reasoning checkable.
///
/// # Examples
///
/// ```
/// use lht_core::naming::next_name;
///
/// // The paper's §5 example: f_nn(#0011, #0011100) = #001110.
/// let x = "#0011".parse()?;
/// let mu = "#0011100".parse()?;
/// assert_eq!(next_name(&x, &mu), Some("#001110".parse()?));
/// # Ok::<(), lht_core::LhtError>(())
/// ```
///
/// # Panics
///
/// Panics if `x` is the virtual root or is not a proper prefix of
/// `mu`.
pub fn next_name(x: &Label, mu: &Label) -> Option<Label> {
    assert!(!x.is_virtual_root(), "x must contain at least one bit");
    assert!(
        x.is_prefix_of(mu) && x.len() < mu.len(),
        "x must be a proper prefix of mu"
    );
    let last = x.last_bit().expect("x is not the virtual root");
    (x.len()..mu.len())
        .find(|&i| mu.bits().bit(i) != last)
        .map(|i| mu.prefix(i + 1))
}

/// The right neighbor function `f_rn` (Definition 3): the label of the
/// nearest branch node to the right of `x` in `x`'s local tree — i.e.
/// the root of the neighboring subtree covering the keys immediately
/// above `x`'s interval.
///
/// A node on the tree's rightmost spine (`#01…1`, including the
/// regular root `#0`) has no right neighbor and maps to itself.
///
/// # Examples
///
/// ```
/// use lht_core::naming::right_neighbor;
/// use lht_core::Label;
///
/// let x: Label = "#0100".parse()?;
/// assert_eq!(right_neighbor(&x), "#0101".parse()?);
/// // Rightmost spine maps to itself.
/// let edge: Label = "#011".parse()?;
/// assert_eq!(right_neighbor(&edge), edge);
/// # Ok::<(), lht_core::LhtError>(())
/// ```
///
/// # Panics
///
/// Panics if `x` is the virtual root.
pub fn right_neighbor(x: &Label) -> Label {
    assert!(!x.is_virtual_root(), "the virtual root has no neighbors");
    // x = p 0 1…1  →  p 1 ; if stripping the 1s leaves only the
    // root bit (p would be the virtual root), x is rightmost.
    let mut bits = *x.bits();
    while bits.last() == Some(true) {
        bits.pop();
    }
    debug_assert_eq!(bits.last(), Some(false), "labels start with 0");
    if bits.len() == 1 {
        return *x; // #01…1 — the rightmost spine
    }
    bits.pop();
    Label::from_bits(bits.child(true))
}

/// The left neighbor function `f_ln` (Definition 3): mirror image of
/// [`right_neighbor`]. A node on the leftmost spine (`#00…0`) maps to
/// itself.
///
/// # Examples
///
/// ```
/// use lht_core::naming::left_neighbor;
/// use lht_core::Label;
///
/// let x: Label = "#0110".parse()?;
/// // x = p10* with p = #01 → #010.
/// assert_eq!(left_neighbor(&x), "#010".parse()?);
/// let edge: Label = "#000".parse()?;
/// assert_eq!(left_neighbor(&edge), edge);
/// # Ok::<(), lht_core::LhtError>(())
/// ```
///
/// # Panics
///
/// Panics if `x` is the virtual root.
pub fn left_neighbor(x: &Label) -> Label {
    assert!(!x.is_virtual_root(), "the virtual root has no neighbors");
    // x = p 1 0…0  →  p 0 ; if x is all 0s it is leftmost.
    let mut bits = *x.bits();
    while bits.last() == Some(false) {
        bits.pop();
    }
    if bits.is_empty() {
        return *x; // #00…0 — the leftmost spine
    }
    debug_assert_eq!(bits.last(), Some(true));
    bits.pop();
    Label::from_bits(bits.child(false))
}

/// Hit/miss counters of a [`NamingCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NamingCacheStats {
    /// Resolutions answered from the cache (no SHA-1 run).
    pub hits: u64,
    /// Resolutions that rendered the label and hashed it.
    pub misses: u64,
    /// Entries evicted to stay within capacity.
    pub evictions: u64,
    /// Labels currently cached.
    pub len: u64,
}

impl NamingCacheStats {
    /// Fraction of resolutions served from the cache, or 0.0 when
    /// nothing was resolved yet.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Default)]
struct CacheInner {
    /// Rendered, digest-carrying keys by label, in recency order.
    lru: Lru<Label, DhtKey>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// An LRU-memoized `Label → DhtKey` resolver — a standalone type that
/// no index uses.
///
/// It memoizes the rendered key *with its ring digest already
/// computed* (an eagerly warmed [`DhtKey`] clone carries the digest
/// along), so SHA-1 runs once per distinct label held. `LhtIndex`
/// resolves with [`Label::dht_key`] instead: on the `sha-ni` SHA-1
/// backend a hit here costs about half of hashing a label and a miss
/// two to three times as much, so at the index's hit rates the memo
/// cost more than it saved (DESIGN.md §3.7).
///
/// Resolution is O(1) — one table probe and a relink in the [`Lru`]
/// list the route cache uses too; eviction is strict LRU. The cache
/// is shared behind `&self` (a mutex guards the few-word state), and
/// determinism is untouched — caching changes *when* hashes are
/// computed, never their values.
///
/// # Examples
///
/// ```
/// use lht_core::naming::NamingCache;
/// use lht_core::Label;
///
/// let cache = NamingCache::new(1024);
/// let label: Label = "#0110".parse()?;
/// let a = cache.resolve(&label);
/// let b = cache.resolve(&label); // served from the cache
/// assert_eq!(a, b);
/// assert_eq!(a, label.dht_key());
/// let s = cache.stats();
/// assert_eq!((s.hits, s.misses), (1, 1));
/// # Ok::<(), lht_core::LhtError>(())
/// ```
pub struct NamingCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
}

impl std::fmt::Debug for NamingCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NamingCache")
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

impl NamingCache {
    /// Creates a cache holding at most `capacity` labels (min 1).
    pub fn new(capacity: usize) -> NamingCache {
        NamingCache {
            capacity: capacity.max(1),
            inner: Mutex::default(),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Resolves `label` to its DHT key, hashing it onto the ring only
    /// on a cache miss. The returned key always carries its ring
    /// digest, so downstream layers never re-run SHA-1 for it either.
    pub fn resolve(&self, label: &Label) -> DhtKey {
        let mut guard = self.inner.lock();
        let st = &mut *guard;
        if let Some(key) = st.lru.get(label) {
            st.hits += 1;
            return key.clone();
        }
        st.misses += 1;
        let key = label.dht_key();
        // Warm the digest before cloning: a clone taken *after*
        // hashing carries the digest, one taken before would re-hash.
        key.hash();
        if st.lru.len() >= self.capacity {
            st.lru.pop_lru();
            st.evictions += 1;
        }
        st.lru.insert(*label, key.clone());
        key
    }

    /// A snapshot of the hit/miss counters.
    pub fn stats(&self) -> NamingCacheStats {
        let st = self.inner.lock();
        NamingCacheStats {
            hits: st.hits,
            misses: st.misses,
            evictions: st.evictions,
            len: st.lru.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn l(s: &str) -> Label {
        s.parse().unwrap()
    }

    // ---------- f_n unit tests ----------

    #[test]
    fn name_matches_paper_examples() {
        assert_eq!(name(&l("#01100")), l("#011"));
        assert_eq!(name(&l("#01011")), l("#010"));
        assert_eq!(name(&l("#01111")), l("#0"));
        // Fig. 4 arrows: every leaf of the example tree.
        assert_eq!(name(&l("#000")), Label::virtual_root());
        assert_eq!(name(&l("#0010")), l("#001"));
        assert_eq!(name(&l("#0011")), l("#00"));
        assert_eq!(name(&l("#0100")), l("#01"));
        assert_eq!(name(&l("#0101")), l("#010"));
    }

    #[test]
    fn name_of_root_leaf_is_virtual_root() {
        // A brand-new tree has the single leaf #0, named #.
        assert_eq!(name(&Label::root()), Label::virtual_root());
    }

    #[test]
    #[should_panic(expected = "virtual root")]
    fn name_of_virtual_root_panics() {
        name(&Label::virtual_root());
    }

    // ---------- f_nn unit tests ----------

    #[test]
    fn next_name_matches_paper_example() {
        assert_eq!(next_name(&l("#0011"), &l("#0011100")), Some(l("#001110")));
        // §5 lookup walk-through: f_nn(#011, #01110011001100) = #01110.
        assert_eq!(
            next_name(&l("#011"), &l("#01110011001100")),
            Some(l("#01110"))
        );
    }

    #[test]
    fn next_name_none_when_run_reaches_end() {
        assert_eq!(next_name(&l("#01"), &l("#0111")), None);
        assert_eq!(next_name(&l("#00"), &l("#0000")), None);
    }

    #[test]
    fn prefixes_between_x_and_next_name_share_a_name() {
        // The justification for the binary-search skip (§5): every
        // prefix y with |x| <= |y| < |f_nn(x, mu)| has f_n(y) = f_n(x).
        let mu = l("#0011100110");
        for xl in 1..mu.len() {
            let x = mu.prefix(xl);
            if let Some(nn) = next_name(&x, &mu) {
                for yl in xl..nn.len() {
                    let y = mu.prefix(yl);
                    assert_eq!(
                        name(&y),
                        name(&x),
                        "prefix {y} of {mu} should share the name of {x}"
                    );
                }
                assert_ne!(name(&nn), name(&x));
            }
        }
    }

    // ---------- f_rn / f_ln unit tests ----------

    #[test]
    fn neighbors_match_definition_patterns() {
        // f_rn(p01*) = p1
        assert_eq!(right_neighbor(&l("#00")), l("#01"));
        assert_eq!(right_neighbor(&l("#0011")), l("#01"));
        assert_eq!(right_neighbor(&l("#0100")), l("#0101"));
        // rightmost spine
        for s in ["#0", "#01", "#011", "#0111"] {
            assert_eq!(right_neighbor(&l(s)), l(s));
        }
        // f_ln(p10*) = p0
        assert_eq!(left_neighbor(&l("#01")), l("#00"));
        assert_eq!(left_neighbor(&l("#0100")), l("#00"));
        assert_eq!(left_neighbor(&l("#0110")), l("#010"));
        // leftmost spine
        for s in ["#0", "#00", "#000"] {
            assert_eq!(left_neighbor(&l(s)), l(s));
        }
    }

    #[test]
    fn fig5b_walkthrough() {
        // §6.2 example: the query [0.2, 0.6) on Fig. 5b's tree.
        // f_rn(#000) = #001, f_n(#001) = #00.
        assert_eq!(right_neighbor(&l("#000")), l("#001"));
        assert_eq!(name(&l("#001")), l("#00"));
        // f_rn(#001) = #01.
        assert_eq!(right_neighbor(&l("#001")), l("#01"));
        // f_n(f_ln(#0011)) = #001 — the name of bucket #0010.
        assert_eq!(left_neighbor(&l("#0011")), l("#0010"));
        assert_eq!(name(&l("#0010")), l("#001"));
    }

    #[test]
    fn right_neighbor_interval_is_adjacent() {
        for s in ["#00", "#0010", "#01010", "#00111"] {
            let x = l(s);
            let r = right_neighbor(&x);
            assert_eq!(
                x.interval().hi_raw(),
                r.interval().lo_raw(),
                "f_rn({x}) = {r} must cover the keys just above {x}"
            );
        }
    }

    #[test]
    fn left_neighbor_interval_is_adjacent() {
        for s in ["#01", "#0110", "#01010", "#01100"] {
            let x = l(s);
            let left = left_neighbor(&x);
            assert_eq!(
                left.interval().hi_raw(),
                x.interval().lo_raw(),
                "f_ln({x}) = {left} must cover the keys just below {x}"
            );
        }
    }

    // ---------- Theorem property tests ----------

    /// Builds a random full-binary partition tree: returns its leaf
    /// set. `choices[i]` selects which current leaf to split next.
    fn random_tree(choices: &[u16]) -> Vec<Label> {
        let mut leaves = vec![Label::root()];
        for &c in choices {
            let i = c as usize % leaves.len();
            let leaf = leaves.swap_remove(i);
            if leaf.len() >= 60 {
                leaves.push(leaf);
                continue;
            }
            leaves.push(leaf.child(false));
            leaves.push(leaf.child(true));
        }
        leaves
    }

    /// The internal-node set Ω of a tree given by its leaf set: all
    /// proper ancestors of leaves, plus the virtual root.
    fn internal_nodes(leaves: &[Label]) -> BTreeSet<Label> {
        let mut omega = BTreeSet::new();
        omega.insert(Label::virtual_root());
        for leaf in leaves {
            let mut cur = *leaf;
            while let Some(p) = cur.parent() {
                if !p.is_virtual_root() {
                    omega.insert(p);
                }
                cur = p;
            }
        }
        // A single-leaf tree has only the virtual root as "internal"
        // (the double-root property makes |Λ| = |Ω| hold even there).
        if leaves.len() == 1 {
            return omega;
        }
        omega
    }

    proptest! {
        /// Theorem 1: f_n is a bijection from the leaf labels Λ onto
        /// the internal labels Ω of any partition tree.
        #[test]
        fn theorem1_name_is_bijective(choices in proptest::collection::vec(any::<u16>(), 0..200)) {
            let leaves = random_tree(&choices);
            let omega = internal_nodes(&leaves);
            prop_assert_eq!(leaves.len(), omega.len(), "double-root fullness: |Λ| = |Ω|");
            let image: BTreeSet<Label> = leaves.iter().map(name).collect();
            prop_assert_eq!(image.len(), leaves.len(), "f_n is injective on Λ");
            prop_assert_eq!(image, omega, "f_n maps Λ onto Ω");
        }

        /// Theorem 2: when leaf λ splits into λ0 and λ1, one child is
        /// named f_n(λ) (stays on its peer) and the other is named λ.
        #[test]
        fn theorem2_split_keeps_one_name(s in "0[01]{0,40}") {
            let leaf = Label::from_bits(s.parse().unwrap());
            let old_name = name(&leaf);
            let n0 = name(&leaf.child(false));
            let n1 = name(&leaf.child(true));
            if leaf.last_bit() == Some(true) {
                prop_assert_eq!(n0, leaf, "λ ends in 1: λ0 is the remote leaf named λ");
                prop_assert_eq!(n1, old_name, "λ1 is the local leaf named f_n(λ)");
            } else {
                prop_assert_eq!(n0, old_name, "λ ends in 0: λ0 is the local leaf");
                prop_assert_eq!(n1, leaf, "λ1 is the remote leaf named λ");
            }
        }

        /// f_n(λ) is always a proper ancestor of λ.
        #[test]
        fn name_is_proper_prefix(s in "0[01]{0,40}") {
            let leaf = Label::from_bits(s.parse().unwrap());
            let n = name(&leaf);
            prop_assert!(n.is_prefix_of(&leaf));
            prop_assert!(n.len() < leaf.len() || leaf.len() == 1);
        }

        /// In any tree, the leaf named f_n reachable via the theorem's
        /// construction covers keys adjacent to the name's interval
        /// edge: ω ending in 0 is claimed by the *rightmost* leaf of
        /// its subtree, ω ending in 1 (or #) by the *leftmost*.
        #[test]
        fn theorem1_edge_leaf_structure(choices in proptest::collection::vec(any::<u16>(), 1..150)) {
            let leaves = random_tree(&choices);
            for leaf in &leaves {
                let n = name(leaf);
                if n.is_virtual_root() {
                    // Named leaf is the leftmost leaf of the whole tree.
                    prop_assert_eq!(leaf.interval().lo_raw(), 0);
                } else if n.last_bit() == Some(false) {
                    // Rightmost leaf under n.
                    prop_assert_eq!(leaf.interval().hi_raw(), n.interval().hi_raw());
                } else {
                    // Leftmost leaf under n.
                    prop_assert_eq!(leaf.interval().lo_raw(), n.interval().lo_raw());
                }
            }
        }

        /// f_rn/f_ln return interval-adjacent nodes (or fixpoints at
        /// the spines).
        #[test]
        fn neighbors_are_interval_adjacent(s in "0[01]{0,40}") {
            let x = Label::from_bits(s.parse().unwrap());
            let r = right_neighbor(&x);
            if r == x {
                // Rightmost: interval reaches the top of key space.
                prop_assert_eq!(x.interval().hi_raw(), KeyIntervalTop::TOP);
            } else {
                prop_assert_eq!(x.interval().hi_raw(), r.interval().lo_raw());
            }
            let lft = left_neighbor(&x);
            if lft == x {
                prop_assert_eq!(x.interval().lo_raw(), 0);
            } else {
                prop_assert_eq!(lft.interval().hi_raw(), x.interval().lo_raw());
            }
        }
    }

    struct KeyIntervalTop;
    impl KeyIntervalTop {
        const TOP: u128 = 1u128 << 64;
    }

    #[test]
    fn cache_resolves_to_the_same_key_as_direct_rendering() {
        let cache = NamingCache::new(64);
        for s in ["#0", "#01", "#0110", "#00000", "#01111"] {
            let label: Label = s.parse().unwrap();
            assert_eq!(cache.resolve(&label), label.dht_key());
            // Second resolution is a hit and identical.
            assert_eq!(cache.resolve(&label), label.dht_key());
        }
        let st = cache.stats();
        assert_eq!(st.misses, 5);
        assert_eq!(st.hits, 5);
        assert_eq!(st.len, 5);
        assert_eq!(st.evictions, 0);
        assert_eq!(st.hit_rate(), 0.5);
    }

    #[test]
    fn cache_evicts_least_recently_used_first() {
        let cache = NamingCache::new(2);
        let a: Label = "#00".parse().unwrap();
        let b: Label = "#01".parse().unwrap();
        let c: Label = "#010".parse().unwrap();
        cache.resolve(&a); // miss
        cache.resolve(&b); // miss
        cache.resolve(&a); // hit: a is now more recent than b
        cache.resolve(&c); // miss: evicts b, not a
        assert_eq!(cache.stats().evictions, 1);
        cache.resolve(&a); // still cached
        let st = cache.stats();
        assert_eq!(st.hits, 2);
        assert_eq!(st.misses, 3);
        cache.resolve(&b); // was evicted: a fresh miss
        assert_eq!(cache.stats().misses, 4);
    }

    #[test]
    fn cached_keys_carry_their_ring_digest() {
        // The resolver hashes eagerly, so clones handed out later
        // must agree with a from-scratch digest.
        let cache = NamingCache::new(8);
        let label: Label = "#0110".parse().unwrap();
        let warm = cache.resolve(&label);
        let cold = label.dht_key();
        assert_eq!(warm.hash(), cold.hash());
    }

    /// Cached labels, most recently used first.
    fn lru_order(cache: &NamingCache) -> Vec<Label> {
        cache.inner.lock().lru.keys().collect()
    }

    /// Pin: a seeded 5,000-resolve script over 64 labels (skewed
    /// towards the low indices so every capacity sees hits) leaves
    /// exactly these counters and this recency order. The literals
    /// were recorded before the cache changed representation.
    #[test]
    fn seeded_resolve_script_leaves_the_pinned_counters_and_recency_order() {
        use rand::{rngs::StdRng, Rng, SeedableRng};

        let alphabet: Vec<Label> = (0..64u32).map(|i| l(&format!("#0{i:06b}"))).collect();
        let run = |capacity: usize| {
            let cache = NamingCache::new(capacity);
            let mut rng = StdRng::seed_from_u64(2008);
            for _ in 0..5_000 {
                let i = rng.gen_range(0..64usize).min(rng.gen_range(0..64usize));
                assert_eq!(cache.resolve(&alphabet[i]), alphabet[i].dht_key());
            }
            let st = cache.stats();
            let order: Vec<usize> = lru_order(&cache)
                .iter()
                .map(|label| alphabet.iter().position(|a| a == label).unwrap())
                .collect();
            ((st.hits, st.misses, st.evictions, st.len), order)
        };
        assert_eq!(run(1), ((104, 4896, 4895, 1), vec![25]));
        assert_eq!(run(3), ((338, 4662, 4659, 3), vec![25, 38, 23]));
        assert_eq!(
            run(16),
            (
                (1638, 3362, 3346, 16),
                vec![25, 38, 23, 30, 6, 24, 35, 19, 7, 33, 16, 13, 41, 21, 10, 11]
            )
        );
    }

    proptest! {
        /// `resolve` against a plain most-recent-first `Vec` bounded
        /// the same way: the same hit-or-miss verdict from every call,
        /// the same counters and the same recency order after it.
        #[test]
        fn resolve_matches_a_bounded_most_recent_first_vec(
            capacity in 1usize..8,
            script in proptest::collection::vec(0usize..12, 0..120),
        ) {
            let alphabet: Vec<Label> = (0..12u32).map(|i| l(&format!("#0{i:04b}"))).collect();
            let cache = NamingCache::new(capacity);
            let mut model: Vec<Label> = Vec::new();
            let mut expect = NamingCacheStats::default();
            for (step, &i) in script.iter().enumerate() {
                let label = alphabet[i];
                match model.iter().position(|held| *held == label) {
                    Some(at) => {
                        model.remove(at);
                        expect.hits += 1;
                    }
                    None => {
                        expect.misses += 1;
                        if model.len() == capacity {
                            model.pop();
                            expect.evictions += 1;
                        }
                    }
                }
                model.insert(0, label);
                expect.len = model.len() as u64;

                prop_assert_eq!(cache.resolve(&label), label.dht_key(), "step {}", step);
                prop_assert_eq!(cache.stats(), expect, "step {}", step);
                prop_assert_eq!(lru_order(&cache), &model[..], "step {}", step);
            }
        }
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let cache = NamingCache::new(0);
        let a: Label = "#00".parse().unwrap();
        let b: Label = "#01".parse().unwrap();
        assert_eq!(cache.resolve(&a), a.dht_key());
        assert_eq!(cache.resolve(&b), b.dht_key());
        assert_eq!(cache.capacity(), 1);
        assert_eq!(cache.stats().len, 1);
    }
}
