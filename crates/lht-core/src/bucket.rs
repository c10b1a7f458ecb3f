//! Leaf buckets (paper §3.3, Algorithm 1).

use lht_id::KeyFraction;
use serde::{Deserialize, Serialize};

use crate::naming::name;
use crate::{KeyInterval, Label};

/// A leaf bucket: the distributed unit LHT stores in the DHT.
///
/// Per §3.3 a bucket has exactly two fields — the **leaf label** `λ`
/// (from which the whole *local tree* is inferable) and the **record
/// store**. The bucket is stored in the DHT under the key
/// `f_n(λ)` produced by the naming function.
///
/// Records are keyed by their distinct data key `δ` (§3.1: "each
/// record is identified by a distinct value") and held in a sorted
/// compact vector: buckets are bounded by `θ_split`, so binary search
/// plus shift-on-insert beats a pointer-heavy tree in both footprint
/// and locality at paper scale (2^20 keys ⇒ hundreds of thousands of
/// buckets resident).
///
/// # Examples
///
/// ```
/// use lht_core::LeafBucket;
/// use lht_id::KeyFraction;
///
/// let mut b: LeafBucket<&str> = LeafBucket::new("#00".parse()?);
/// b.insert(KeyFraction::from_f64(0.2), "song.mp3");
/// assert_eq!(b.len(), 1);
/// assert!(b.covers(KeyFraction::from_f64(0.2)));
/// assert!(!b.covers(KeyFraction::from_f64(0.7)));
/// # Ok::<(), lht_core::LhtError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LeafBucket<V> {
    label: Label,
    /// Sorted by data key; deduplicated (one record per `δ`).
    records: Vec<(KeyFraction, V)>,
}

/// The outcome of [`LeafBucket::split`]: the remote half to push to
/// another peer, plus the split's `α` accounting.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct SplitOutcome<V> {
    /// The remote leaf bucket `rb`. Its DHT key is the *old* label
    /// `λ` (Theorem 2: `f_n(rb.label) = λ`).
    pub remote: LeafBucket<V>,
    /// Moved storage units: the remote bucket's records plus one unit
    /// for its leaf label (§9.2 accounting).
    pub moved_units: u64,
}

impl<V> LeafBucket<V> {
    /// Creates an empty bucket for the given leaf label.
    pub fn new(label: Label) -> LeafBucket<V> {
        assert!(
            !label.is_virtual_root(),
            "the virtual root cannot be a leaf"
        );
        LeafBucket {
            label,
            records: Vec::new(),
        }
    }

    /// The leaf label `λ`.
    pub fn label(&self) -> Label {
        self.label
    }

    /// The DHT key this bucket lives under: `f_n(λ)`.
    pub(crate) fn dht_name(&self) -> Label {
        name(&self.label)
    }

    /// The key interval this leaf covers.
    pub fn interval(&self) -> KeyInterval {
        self.label.interval()
    }

    /// Whether `key` falls in this leaf's interval.
    pub fn covers(&self, key: KeyFraction) -> bool {
        self.label.covers(key)
    }

    /// Number of data records stored.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the bucket stores no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Whether the bucket is at capacity for the given `θ_split`: the
    /// label occupies one of the `θ_split` storage slots (§9.2), so a
    /// bucket is full at `θ_split − 1` records; the next insertion
    /// must split first.
    pub fn is_full(&self, theta_split: usize) -> bool {
        self.records.len() + 1 >= theta_split
    }

    /// Inserts a record, returning any previous record with the same
    /// data key.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `key` is outside this leaf's
    /// interval.
    pub fn insert(&mut self, key: KeyFraction, value: V) -> Option<V> {
        debug_assert!(
            self.covers(key),
            "record {key:?} outside leaf {}",
            self.label
        );
        match self.records.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => Some(std::mem::replace(&mut self.records[i].1, value)),
            Err(i) => {
                self.records.insert(i, (key, value));
                None
            }
        }
    }

    /// Removes the record with data key `key`.
    pub fn remove(&mut self, key: KeyFraction) -> Option<V> {
        match self.records.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => Some(self.records.remove(i).1),
            Err(_) => None,
        }
    }

    /// The record with data key `key`.
    pub fn get(&self, key: KeyFraction) -> Option<&V> {
        match self.records.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => Some(&self.records[i].1),
            Err(_) => None,
        }
    }

    /// The smallest data key stored, with its value.
    pub(crate) fn min_record(&self) -> Option<(KeyFraction, &V)> {
        self.records.first().map(|(k, v)| (*k, v))
    }

    /// The largest data key stored, with its value.
    pub(crate) fn max_record(&self) -> Option<(KeyFraction, &V)> {
        self.records.last().map(|(k, v)| (*k, v))
    }

    /// Iterates over records in key order.
    pub fn iter(&self) -> impl Iterator<Item = (KeyFraction, &V)> {
        self.records.iter().map(|(k, v)| (*k, v))
    }

    /// Consumes the bucket and moves out the records inside `range`,
    /// in key order. A bucket wholly inside `range` hands over its
    /// store untouched; no value is cloned either way.
    pub fn into_records_in(self, range: &KeyInterval) -> Vec<(KeyFraction, V)> {
        let (from, to) = self.cut(range);
        let mut records = self.records;
        records.truncate(to);
        records.drain(..from);
        records
    }

    /// Index bounds `from..to` of the records inside `range`. Keys are
    /// compared as `u128` because `hi_raw` may be `2^64`.
    fn cut(&self, range: &KeyInterval) -> (usize, usize) {
        let from = self
            .records
            .partition_point(|(k, _)| (k.bits() as u128) < range.lo_raw());
        let to = self
            .records
            .partition_point(|(k, _)| (k.bits() as u128) < range.hi_raw());
        (from, to)
    }

    /// Builds a leaf from records already sorted by strictly ascending
    /// key and all inside `label`'s interval, without a per-record
    /// search.
    pub(crate) fn from_sorted(label: Label, records: Vec<(KeyFraction, V)>) -> LeafBucket<V> {
        debug_assert!(
            records.windows(2).all(|w| w[0].0 < w[1].0),
            "records for leaf {label} not strictly ascending"
        );
        debug_assert!(
            records.iter().all(|(k, _)| label.covers(*k)),
            "record outside leaf {label}"
        );
        LeafBucket {
            records,
            ..LeafBucket::new(label)
        }
    }

    /// Splits this bucket per Algorithm 1.
    ///
    /// `self` becomes the **local leaf** — the child whose name under
    /// `f_n` is unchanged (Theorem 2), so it stays on its peer — and
    /// the returned [`SplitOutcome`] carries the **remote leaf** to be
    /// `DHT-put` under the old label `λ`. Records are partitioned at
    /// the interval median, which is "unrelated to data distribution"
    /// (§3.2).
    pub(crate) fn split(&mut self) -> SplitOutcome<V> {
        let lambda = self.label;
        // Algorithm 1 lines 2–8: λ = p011* → remote is λ0, local λ1;
        // otherwise (λ ends in 0) remote is λ1, local λ0.
        let remote_bit = self.label.last_bit() != Some(true);
        let local_bit = !remote_bit;
        let mid = lambda.child(true).interval().lo_key();

        // Line 9: assign the corresponding records to rb. The store is
        // sorted, so the interval median is a partition point.
        let at = self.records.partition_point(|(k, _)| *k < mid);
        let upper = self.records.split_off(at);
        let (local_records, remote_records) = if remote_bit {
            // remote = λ1 covers the upper half
            (std::mem::take(&mut self.records), upper)
        } else {
            // remote = λ0 covers the lower half
            (upper, std::mem::take(&mut self.records))
        };

        self.label = lambda.child(local_bit);
        self.records = local_records;

        let remote = LeafBucket {
            label: lambda.child(remote_bit),
            records: remote_records,
        };
        debug_assert_eq!(
            remote.dht_name(),
            lambda,
            "Theorem 2: the remote leaf is named by the old label"
        );
        debug_assert_eq!(
            self.dht_name(),
            name(&lambda),
            "Theorem 2: the local leaf keeps its old name"
        );
        let moved_units = remote.records.len() as u64 + 1;
        SplitOutcome {
            remote,
            moved_units,
        }
    }

    /// Absorbs `other`'s records into `self` and relabels `self` to
    /// the common parent — the merge dual of [`split`](Self::split)
    /// (§3.2: when an internal node's subtree holds fewer than
    /// `θ_split` records, its leaves merge).
    ///
    /// # Panics
    ///
    /// Panics if the two buckets are not siblings.
    pub(crate) fn merge_sibling(&mut self, other: LeafBucket<V>) {
        assert_eq!(
            self.label.sibling(),
            Some(other.label),
            "merge requires sibling leaves"
        );
        let parent = self.label.parent().expect("sibling implies parent");
        // Sibling intervals are disjoint halves of the parent's, so the
        // merged store is a straight concatenation: the `1`-labelled
        // sibling holds the upper half.
        let mut upper_half = other.records;
        if other.label.last_bit() == Some(true) {
            self.records.append(&mut upper_half);
        } else {
            upper_half.append(&mut self.records);
            self.records = upper_half;
        }
        self.label = parent;
    }
}

/// Byte codec for storing buckets under an
/// [`ErasureDht`](lht_dht::ErasureDht): the erasure layer shards real
/// bytes, and the vendored serde shim is a no-op, so the wire format
/// is explicit — `u16` label length, the label's `#bits` rendering,
/// `u32` record count, then `(u64 key bits, u32 value)` pairs in key
/// order. Exact: labels round-trip through their string form and keys
/// through their raw 64-bit numerators.
impl lht_dht::ErasurePayload for LeafBucket<u32> {
    fn encode_payload(&self) -> Vec<u8> {
        let rendered = self.label.dht_key(); // the `#bits` text, built on the stack
        let label = rendered.as_bytes();
        let mut out = Vec::with_capacity(2 + label.len() + 4 + 12 * self.records.len());
        out.extend_from_slice(&(label.len() as u16).to_le_bytes());
        out.extend_from_slice(label);
        out.extend_from_slice(&(self.records.len() as u32).to_le_bytes());
        for (k, v) in &self.records {
            out.extend_from_slice(&k.bits().to_le_bytes());
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    fn decode_payload(bytes: &[u8]) -> Option<Self> {
        let (label_len, rest) = bytes.split_first_chunk::<2>()?;
        let label_len = u16::from_le_bytes(*label_len) as usize;
        let (label, rest) = rest.split_at_checked(label_len)?;
        let label: Label = std::str::from_utf8(label).ok()?.parse().ok()?;
        if label.is_virtual_root() {
            return None;
        }
        let (count, rest) = rest.split_first_chunk::<4>()?;
        let count = u32::from_le_bytes(*count) as usize;
        // Truncated and trailing bytes both fail here, before anything
        // is allocated for `count`.
        if count.checked_mul(12)? != rest.len() {
            return None;
        }
        let interval = label.interval();
        let mut records = Vec::with_capacity(count);
        for record in rest.chunks_exact(12) {
            let (key, value) = record.split_at(8);
            let key = KeyFraction::from_bits(u64::from_le_bytes(key.try_into().ok()?));
            let value = u32::from_le_bytes(value.try_into().ok()?);
            // Malformed bytes fail closed — no assert, no re-sort: an
            // encoder only ever writes covered, strictly ascending keys.
            if !interval.contains(key) || records.last().is_some_and(|(prev, _)| *prev >= key) {
                return None;
            }
            records.push((key, value));
        }
        Some(LeafBucket::from_sorted(label, records))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn l(s: &str) -> Label {
        s.parse().unwrap()
    }

    fn kf(x: f64) -> KeyFraction {
        KeyFraction::from_f64(x)
    }

    fn bucket_with(label: &str, keys: &[f64]) -> LeafBucket<u32> {
        let mut b = LeafBucket::new(l(label));
        for (i, &k) in keys.iter().enumerate() {
            b.insert(kf(k), i as u32);
        }
        b
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let mut b: LeafBucket<&str> = LeafBucket::new(l("#0"));
        assert_eq!(b.insert(kf(0.3), "a"), None);
        assert_eq!(b.insert(kf(0.3), "b"), Some("a"), "distinct keys: replace");
        assert_eq!(b.get(kf(0.3)), Some(&"b"));
        assert_eq!(b.remove(kf(0.3)), Some("b"));
        assert!(b.is_empty());
    }

    #[test]
    fn fullness_counts_the_label_slot() {
        let mut b: LeafBucket<u32> = LeafBucket::new(l("#0"));
        // θ = 4: capacity is 3 records (label takes the 4th slot).
        for (i, k) in [0.1, 0.2, 0.3].iter().enumerate() {
            assert!(!b.is_full(4));
            b.insert(kf(*k), i as u32);
        }
        assert!(b.is_full(4));
    }

    #[test]
    fn min_max_records() {
        let b = bucket_with("#0", &[0.5, 0.2, 0.8]);
        assert_eq!(b.min_record().unwrap().0, kf(0.2));
        assert_eq!(b.max_record().unwrap().0, kf(0.8));
        let empty: LeafBucket<u32> = LeafBucket::new(l("#0"));
        assert_eq!(empty.min_record(), None);
    }

    #[test]
    fn records_in_filters_by_interval() {
        let b = bucket_with("#0", &[0.1, 0.2, 0.3, 0.4]);
        let hits: Vec<_> = b
            .into_records_in(&KeyInterval::half_open(kf(0.15), kf(0.35)))
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(hits, vec![kf(0.2), kf(0.3)]);
    }

    #[test]
    fn split_of_zero_ending_label() {
        // λ = #00 ends in 0: local leaf is #000 (lower half), remote
        // is #001 (upper half), and the remote's name is λ.
        let mut b = bucket_with("#00", &[0.1, 0.3, 0.4]);
        let out = b.split();
        assert_eq!(b.label(), l("#000"));
        assert_eq!(out.remote.label(), l("#001"));
        assert_eq!(out.remote.dht_name(), l("#00"));
        // Interval median of #00 = 0.25: 0.1 stays, 0.3/0.4 move.
        assert_eq!(b.len(), 1);
        assert_eq!(out.remote.len(), 2);
        assert_eq!(out.moved_units, 3, "2 records + 1 label unit");
    }

    #[test]
    fn split_of_one_ending_label() {
        // λ = #011 ends in 1: remote leaf is #0110 (lower half),
        // local is #0111 (upper half). Interval of #011 = [0.75, 1).
        let mut b = bucket_with("#011", &[0.8, 0.9, 0.95]);
        let out = b.split();
        assert_eq!(b.label(), l("#0111"));
        assert_eq!(out.remote.label(), l("#0110"));
        assert_eq!(out.remote.dht_name(), l("#011"));
        // Median 0.875: remote (lower half) gets 0.8.
        assert_eq!(out.remote.len(), 1);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn split_respects_interval_partition() {
        let mut b = bucket_with("#0", &[0.1, 0.2, 0.6, 0.7, 0.49999, 0.5]);
        let out = b.split();
        for (k, _) in b.iter() {
            assert!(b.covers(k));
        }
        for (k, _) in out.remote.iter() {
            assert!(out.remote.covers(k));
        }
        assert_eq!(b.len() + out.remote.len(), 6);
    }

    #[test]
    fn skewed_split_can_move_everything_or_nothing() {
        // All records below the median: remote (upper half for a
        // 0-ending label) is empty but still costs its label unit.
        let mut b = bucket_with("#00", &[0.01, 0.02, 0.03]);
        let out = b.split();
        assert_eq!(out.remote.len(), 0);
        assert_eq!(out.moved_units, 1);
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn merge_is_dual_of_split() {
        let mut b = bucket_with("#00", &[0.1, 0.3, 0.4]);
        let out = b.split();
        let mut local = b;
        local.merge_sibling(out.remote);
        assert_eq!(local.label(), l("#00"));
        assert_eq!(local.len(), 3);
        let keys: Vec<_> = local.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![kf(0.1), kf(0.3), kf(0.4)]);
    }

    #[test]
    #[should_panic(expected = "sibling")]
    fn merge_rejects_non_siblings() {
        let mut a = bucket_with("#00", &[]);
        let b = bucket_with("#010", &[]);
        a.merge_sibling(b);
    }

    #[test]
    #[should_panic(expected = "virtual root")]
    fn bucket_for_virtual_root_rejected() {
        let _: LeafBucket<u32> = LeafBucket::new(Label::virtual_root());
    }

    #[test]
    fn erasure_payload_round_trips_and_fails_closed() {
        use lht_dht::ErasurePayload;
        let b = bucket_with("#011", &[0.8, 0.9, 0.95]);
        let bytes = b.encode_payload();
        assert_eq!(LeafBucket::<u32>::decode_payload(&bytes), Some(b));
        let empty = bucket_with("#0", &[]);
        assert_eq!(
            LeafBucket::<u32>::decode_payload(&empty.encode_payload()),
            Some(empty)
        );
        // Truncated, trailing-garbage, and out-of-interval bytes all
        // fail closed instead of asserting.
        assert_eq!(
            LeafBucket::<u32>::decode_payload(&bytes[..bytes.len() - 1]),
            None
        );
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(LeafBucket::<u32>::decode_payload(&long), None);
        let mut bad = bytes;
        let key_at = 2 + "#011".len() + 4;
        for b in &mut bad[key_at..key_at + 8] {
            *b = 0; // key 0.0 is outside #011's interval [0.75, 1)
        }
        assert_eq!(LeafBucket::<u32>::decode_payload(&bad), None);
        assert_eq!(LeafBucket::<u32>::decode_payload(&[]), None);
    }

    /// A bucket under `#0` (`[0, 1)`) or `#01` (`[0.5, 1)`) holding
    /// `keys`, each mapped into the label's interval.
    fn random_bucket(upper_half: bool, keys: &[u64]) -> LeafBucket<u32> {
        let mut b = LeafBucket::new(l(if upper_half { "#01" } else { "#0" }));
        for (i, &k) in keys.iter().enumerate() {
            let k = if upper_half { k | 1 << 63 } else { k };
            b.insert(KeyFraction::from_bits(k), i as u32);
        }
        b
    }

    proptest! {
        /// The binary-searched cut returns exactly what testing every
        /// record against the interval returned.
        #[test]
        fn records_in_equals_filtering_every_record(
            upper_half in any::<bool>(),
            keys in proptest::collection::vec(any::<u64>(), 0..48),
            a in any::<u64>(),
            b in any::<u64>(),
            shape in 0u8..7,
        ) {
            let bucket = random_bucket(upper_half, &keys);
            let (ka, kb) = (KeyFraction::from_bits(a), KeyFraction::from_bits(b));
            let range = match shape {
                0 => KeyInterval::half_open(ka, kb), // inverted half the time: empty
                1 => KeyInterval::half_open(ka.min(kb), ka.max(kb)),
                2 => KeyInterval::from_key_to_end(ka), // hi = 2^64
                3 => match bucket.iter().nth(a as usize % (bucket.len() + 1)) {
                    // a point interval on a stored key
                    Some((k, _)) => KeyInterval::from_raw(k.bits() as u128, k.bits() as u128 + 1),
                    None => KeyInterval::from_raw(a as u128, a as u128 + 1),
                },
                4 => bucket.interval(), // the whole leaf
                5 => KeyInterval::FULL,
                _ => KeyInterval::EMPTY,
            };
            let oracle: Vec<(KeyFraction, u32)> = bucket
                .iter()
                .filter(|(k, _)| range.contains(*k))
                .map(|(k, v)| (k, *v))
                .collect();
            if matches!(shape, 4 | 5) {
                prop_assert_eq!(oracle.len(), bucket.len());
            }
            prop_assert_eq!(bucket.into_records_in(&range), oracle);
        }

        #[test]
        fn erasure_payload_round_trips_random_buckets(
            upper_half in any::<bool>(),
            keys in proptest::collection::vec(any::<u64>(), 0..48),
        ) {
            use lht_dht::ErasurePayload;
            let bucket = random_bucket(upper_half, &keys);
            let bytes = bucket.encode_payload();
            prop_assert_eq!(LeafBucket::<u32>::decode_payload(&bytes), Some(bucket));
        }
    }

    /// Hand-built payload bytes, so malformed shapes an encoder never
    /// writes can be fed to the decoder.
    fn payload(label: &str, count: u32, records: &[(u64, u32)]) -> Vec<u8> {
        let mut out = (label.len() as u16).to_le_bytes().to_vec();
        out.extend_from_slice(label.as_bytes());
        out.extend_from_slice(&count.to_le_bytes());
        for (k, v) in records {
            out.extend_from_slice(&k.to_le_bytes());
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    #[test]
    fn decode_payload_rejects_every_malformed_shape() {
        use lht_dht::ErasurePayload;
        let decode = LeafBucket::<u32>::decode_payload;
        let (lo, mid, hi) = (3u64 << 62, 7 << 61, 15 << 60); // all inside #011 = [0.75, 1)
        let good = payload("#011", 3, &[(lo, 1), (mid, 2), (hi, 3)]);
        let bucket = decode(&good).expect("well-formed");
        assert_eq!(bucket.label(), l("#011"));
        assert_eq!(bucket.len(), 3);
        assert_eq!(bucket.encode_payload(), good);

        let unsorted = payload("#011", 3, &[(lo, 1), (hi, 3), (mid, 2)]);
        assert_eq!(decode(&unsorted), None, "unsorted keys are not re-sorted");
        let duplicate = payload("#011", 3, &[(lo, 1), (mid, 2), (mid, 3)]);
        assert_eq!(decode(&duplicate), None, "duplicate keys");
        let outside = payload("#011", 3, &[(1 << 62, 1), (mid, 2), (hi, 3)]);
        assert_eq!(decode(&outside), None, "0.25 is outside [0.75, 1)");
        let short = payload("#011", 4, &[(lo, 1), (mid, 2), (hi, 3)]);
        assert_eq!(decode(&short), None, "count larger than the bytes present");
        let huge = payload("#011", u32::MAX, &[(lo, 1)]);
        assert_eq!(
            decode(&huge),
            None,
            "count × 12 overflows a 32-bit usize and exceeds any input"
        );
        let trailing = payload("#011", 2, &[(lo, 1), (mid, 2), (hi, 3)]);
        assert_eq!(decode(&trailing), None, "trailing bytes");
        assert_eq!(decode(&payload("#", 0, &[])), None, "virtual root");
        assert_eq!(decode(&payload("011", 0, &[])), None, "bad label");
        assert_eq!(decode(&good[..1]), None);
        assert_eq!(decode(&good[..5]), None, "label cut short");
        assert_eq!(decode(&good[..8]), None, "count cut short");
    }
}
