//! Compact bit strings for tree labels and trie paths.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

use crate::KeyFraction;

/// A bit string of up to 128 bits.
///
/// `BitStr` is the workhorse of both index structures in this
/// workspace: LHT node labels (the part after the `#` virtual root)
/// and PHT trie paths are bit strings, and the naming / neighbour
/// functions of the LHT paper are pure functions on them.
///
/// Bits are stored left-aligned in a `u128` so that the derived
/// ordering (`bits`, then `len`) coincides with lexicographic order of
/// the bit sequences, with a proper prefix ordering before its
/// extensions.
///
/// # Examples
///
/// ```
/// use lht_id::BitStr;
///
/// let a: BitStr = "0110".parse().unwrap();
/// assert_eq!(a.len(), 4);
/// assert_eq!(a.to_string(), "0110");
/// assert!(a.prefix(2).is_prefix_of(&a));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct BitStr {
    /// Bit `i` of the string is stored at u128 bit position `127 - i`.
    /// Invariant: all positions at or past `len` are zero.
    bits: u128,
    len: u8,
}

/// Error returned when parsing a [`BitStr`] from text fails.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseBitStrError {
    /// The input contained a character other than `0` or `1`.
    InvalidCharacter(char),
    /// The input was longer than [`BitStr::MAX_LEN`] bits.
    TooLong(usize),
}

impl fmt::Display for ParseBitStrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseBitStrError::InvalidCharacter(c) => {
                write!(f, "invalid bit character {c:?}, expected '0' or '1'")
            }
            ParseBitStrError::TooLong(n) => {
                write!(f, "bit string of {n} bits exceeds the maximum of 128")
            }
        }
    }
}

impl std::error::Error for ParseBitStrError {}

impl BitStr {
    /// Maximum number of bits a `BitStr` can hold.
    pub const MAX_LEN: usize = 128;

    /// The empty bit string.
    pub const EMPTY: BitStr = BitStr { bits: 0, len: 0 };

    /// Creates an empty bit string.
    pub const fn new() -> BitStr {
        BitStr::EMPTY
    }

    /// Creates a single-bit string.
    pub fn from_bit(bit: bool) -> BitStr {
        let mut s = BitStr::new();
        s.push(bit);
        s
    }

    /// Builds a bit string from the first `n` bits of a data key's
    /// binary expansion (`0.b0 b1 b2 …`).
    ///
    /// This is how the paper forms the search string `μ(δ, D)` for
    /// lookups (§5): the key is "converted into a binary string, long
    /// enough that any possible λ(δ) must be a prefix of it".
    ///
    /// # Panics
    ///
    /// Panics if `n > 64` (a [`KeyFraction`] has 64 bits).
    pub fn from_key_prefix(key: KeyFraction, n: usize) -> BitStr {
        assert!(n <= 64, "a KeyFraction has only 64 bits, asked for {n}");
        let mut s = BitStr::new();
        for i in 0..n {
            s.push(key.bit(i as u32));
        }
        s
    }

    /// Number of bits.
    pub const fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the string holds no bits.
    pub const fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a bit.
    ///
    /// # Panics
    ///
    /// Panics if the string is already [`BitStr::MAX_LEN`] bits long.
    pub fn push(&mut self, bit: bool) {
        assert!(
            (self.len as usize) < Self::MAX_LEN,
            "bit string at maximum length"
        );
        if bit {
            self.bits |= 1u128 << (127 - self.len as u32);
        }
        self.len += 1;
    }

    /// Removes and returns the last bit, or `None` if empty.
    pub fn pop(&mut self) -> Option<bool> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        let mask = 1u128 << (127 - self.len as u32);
        let bit = self.bits & mask != 0;
        self.bits &= !mask;
        Some(bit)
    }

    /// Returns bit `i` (0-indexed from the start).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn bit(&self, i: usize) -> bool {
        assert!(
            i < self.len(),
            "bit index {i} out of bounds (len {})",
            self.len
        );
        self.bits & (1u128 << (127 - i as u32)) != 0
    }

    /// The last bit, or `None` if empty.
    pub fn last(&self) -> Option<bool> {
        if self.len == 0 {
            None
        } else {
            Some(self.bit(self.len() - 1))
        }
    }

    /// The first bit, or `None` if empty.
    pub fn first(&self) -> Option<bool> {
        if self.len == 0 {
            None
        } else {
            Some(self.bit(0))
        }
    }

    /// Returns the prefix holding the first `n` bits.
    ///
    /// # Panics
    ///
    /// Panics if `n > self.len()`.
    pub fn prefix(&self, n: usize) -> BitStr {
        assert!(
            n <= self.len(),
            "prefix of {n} bits from a {}-bit string",
            self.len
        );
        if n == 0 {
            return BitStr::EMPTY;
        }
        let mask = u128::MAX << (128 - n as u32);
        BitStr {
            bits: self.bits & mask,
            len: n as u8,
        }
    }

    /// Returns a copy with `bit` appended.
    #[must_use]
    pub fn child(&self, bit: bool) -> BitStr {
        let mut s = *self;
        s.push(bit);
        s
    }

    /// Returns the string without its last bit, or `None` if empty.
    pub fn parent(&self) -> Option<BitStr> {
        if self.len == 0 {
            None
        } else {
            Some(self.prefix(self.len() - 1))
        }
    }

    /// Returns a copy with the final bit flipped (the *sibling* path in
    /// a binary tree), or `None` if empty.
    pub fn sibling(&self) -> Option<BitStr> {
        let mut s = *self;
        let last = s.pop()?;
        s.push(!last);
        Some(s)
    }

    /// Whether `self` is a (not necessarily proper) prefix of `other`.
    pub fn is_prefix_of(&self, other: &BitStr) -> bool {
        self.len() <= other.len() && other.prefix(self.len()) == *self
    }

    /// Length of the longest common prefix of `self` and `other`.
    pub fn common_prefix_len(&self, other: &BitStr) -> usize {
        let max = self.len().min(other.len());
        let diff = self.bits ^ other.bits;
        let agree = diff.leading_zeros() as usize;
        agree.min(max)
    }

    /// Length of the trailing run of equal bits (e.g. `0110̲0̲0̲` has a
    /// trailing run of 3). Zero for the empty string.
    pub(crate) fn trailing_run(&self) -> usize {
        let Some(last) = self.last() else { return 0 };
        let mut run = 1;
        while run < self.len() && self.bit(self.len() - 1 - run) == last {
            run += 1;
        }
        run
    }

    /// Returns the string with its entire trailing run of equal bits
    /// removed (`011̲1̲ → 0`, `0110̲0̲ → 011`, `0̲0̲0̲ → ε`).
    ///
    /// This is the heart of the paper's naming function `f_n` (Def. 1).
    #[must_use]
    pub fn strip_trailing_run(&self) -> BitStr {
        self.prefix(self.len() - self.trailing_run())
    }

    /// Concatenates `other` onto the end of `self`.
    ///
    /// # Panics
    ///
    /// Panics if the combined length exceeds [`BitStr::MAX_LEN`].
    #[must_use]
    pub fn concat(&self, other: &BitStr) -> BitStr {
        assert!(
            self.len() + other.len() <= Self::MAX_LEN,
            "concatenation overflows 128 bits"
        );
        BitStr {
            bits: self.bits | (other.bits >> self.len as u32),
            len: self.len + other.len,
        }
    }

    /// Iterates over the bits from first to last.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len()).map(move |i| self.bit(i))
    }
}

impl fmt::Display for BitStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("ε");
        }
        for b in self.iter() {
            f.write_str(if b { "1" } else { "0" })?;
        }
        Ok(())
    }
}

impl fmt::Debug for BitStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitStr({self})")
    }
}

impl FromStr for BitStr {
    type Err = ParseBitStrError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.chars().count() > Self::MAX_LEN {
            return Err(ParseBitStrError::TooLong(s.chars().count()));
        }
        let mut out = BitStr::new();
        for c in s.chars() {
            match c {
                '0' => out.push(false),
                '1' => out.push(true),
                other => return Err(ParseBitStrError::InvalidCharacter(other)),
            }
        }
        Ok(out)
    }
}

impl FromIterator<bool> for BitStr {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut s = BitStr::new();
        for b in iter {
            s.push(b);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The ASCII rendering, one `b'0'`/`b'1'` per bit.
    fn ascii(b: &BitStr) -> Vec<u8> {
        b.iter().map(|b| if b { b'1' } else { b'0' }).collect()
    }

    fn bs(s: &str) -> BitStr {
        s.parse().unwrap()
    }

    #[test]
    fn parse_display_round_trip() {
        for s in ["", "0", "1", "0110", "0101010101", "0000", "1111"] {
            let b = bs(s);
            let rendered = if s.is_empty() {
                "ε".to_string()
            } else {
                s.to_string()
            };
            assert_eq!(b.to_string(), rendered);
            assert_eq!(b.len(), s.len());
        }
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert_eq!(
            "01a".parse::<BitStr>(),
            Err(ParseBitStrError::InvalidCharacter('a'))
        );
        let long = "0".repeat(129);
        assert_eq!(long.parse::<BitStr>(), Err(ParseBitStrError::TooLong(129)));
    }

    #[test]
    fn push_pop_are_inverse() {
        let mut b = bs("0110");
        b.push(true);
        assert_eq!(b, bs("01101"));
        assert_eq!(b.pop(), Some(true));
        assert_eq!(b, bs("0110"));
        assert_eq!(bs("").pop(), None);
    }

    #[test]
    fn pop_clears_storage_bit() {
        let mut b = bs("1");
        b.pop();
        assert_eq!(b, BitStr::EMPTY, "popped bit must not linger in storage");
        b.push(false);
        assert_eq!(b, bs("0"));
    }

    #[test]
    fn prefix_and_is_prefix_of() {
        let b = bs("011010");
        assert_eq!(b.prefix(0), BitStr::EMPTY);
        assert_eq!(b.prefix(3), bs("011"));
        assert_eq!(b.prefix(6), b);
        assert!(bs("011").is_prefix_of(&b));
        assert!(b.is_prefix_of(&b));
        assert!(BitStr::EMPTY.is_prefix_of(&b));
        assert!(!bs("010").is_prefix_of(&b));
        assert!(!bs("0110101").is_prefix_of(&b));
    }

    #[test]
    fn common_prefix_len_cases() {
        assert_eq!(bs("0110").common_prefix_len(&bs("0111")), 3);
        assert_eq!(bs("0110").common_prefix_len(&bs("0110")), 4);
        assert_eq!(bs("0110").common_prefix_len(&bs("01")), 2);
        assert_eq!(bs("1").common_prefix_len(&bs("0")), 0);
        assert_eq!(BitStr::EMPTY.common_prefix_len(&bs("0")), 0);
    }

    #[test]
    fn trailing_run_and_strip() {
        assert_eq!(bs("01100").trailing_run(), 2);
        assert_eq!(bs("01100").strip_trailing_run(), bs("011"));
        assert_eq!(bs("01011").trailing_run(), 2);
        assert_eq!(bs("01011").strip_trailing_run(), bs("010"));
        assert_eq!(bs("000").trailing_run(), 3);
        assert_eq!(bs("000").strip_trailing_run(), BitStr::EMPTY);
        assert_eq!(bs("0111").strip_trailing_run(), bs("0"));
        assert_eq!(BitStr::EMPTY.trailing_run(), 0);
        assert_eq!(bs("0").trailing_run(), 1);
    }

    #[test]
    fn sibling_flips_last() {
        assert_eq!(bs("0110").sibling(), Some(bs("0111")));
        assert_eq!(bs("0").sibling(), Some(bs("1")));
        assert_eq!(BitStr::EMPTY.sibling(), None);
    }

    #[test]
    fn parent_child() {
        assert_eq!(bs("01").child(true), bs("011"));
        assert_eq!(bs("011").parent(), Some(bs("01")));
        assert_eq!(BitStr::EMPTY.parent(), None);
    }

    #[test]
    fn ordering_is_lexicographic_with_prefix_first() {
        // A proper prefix sorts before its extensions.
        assert!(bs("01") < bs("010"));
        assert!(bs("01") < bs("011"));
        // Ordinary lexicographic comparisons.
        assert!(bs("0100") < bs("011"));
        assert!(bs("011") > bs("0100"));
        assert!(bs("0") < bs("1"));
        assert!(BitStr::EMPTY < bs("0"));
    }

    #[test]
    fn concat_and_extend() {
        assert_eq!(bs("01").concat(&bs("10")), bs("0110"));
        assert_eq!(bs("01").concat(&BitStr::EMPTY), bs("01"));
        assert_eq!(BitStr::EMPTY.concat(&bs("01")), bs("01"));
    }

    #[test]
    fn from_key_prefix_matches_binary_expansion() {
        // 0.4 = 0.0110 0110 …
        let k = KeyFraction::from_f64(0.4);
        assert_eq!(BitStr::from_key_prefix(k, 4), bs("0110"));
        assert_eq!(BitStr::from_key_prefix(k, 8), bs("01100110"));
        // 0.9 = 0.1110 0110 0110 …
        let k9 = KeyFraction::from_f64(0.9);
        assert_eq!(BitStr::from_key_prefix(k9, 13), bs("1110011001100"));
        assert_eq!(BitStr::from_key_prefix(KeyFraction::ZERO, 3), bs("000"));
    }

    #[test]
    fn max_length_boundary() {
        let mut b = BitStr::new();
        for i in 0..128 {
            b.push(i % 2 == 0);
        }
        assert_eq!(b.len(), 128);
        assert!(b.bit(0));
        assert!(!b.bit(127));
    }

    #[test]
    #[should_panic(expected = "maximum length")]
    fn push_past_max_panics() {
        let mut b = BitStr::new();
        for _ in 0..129 {
            b.push(true);
        }
    }

    #[test]
    fn ascii_encoding() {
        assert_eq!(ascii(&bs("0110")), b"0110".to_vec());
        assert_eq!(ascii(&BitStr::EMPTY), Vec::<u8>::new());
    }

    proptest! {
        #[test]
        fn round_trip_any_string(s in "[01]{0,128}") {
            let b: BitStr = s.parse().unwrap();
            prop_assert_eq!(ascii(&b), s.as_bytes().to_vec());
        }

        #[test]
        fn strip_trailing_run_removes_exactly_the_run(s in "[01]{1,64}") {
            let b: BitStr = s.parse().unwrap();
            let stripped = b.strip_trailing_run();
            prop_assert!(stripped.is_prefix_of(&b));
            // Every removed bit equals the original last bit.
            let last = b.last().unwrap();
            for i in stripped.len()..b.len() {
                prop_assert_eq!(b.bit(i), last);
            }
            // The remaining last bit (if any) differs.
            if let Some(l) = stripped.last() {
                prop_assert_ne!(l, last);
            }
        }

        #[test]
        fn ordering_agrees_with_string_order(a in "[01]{0,32}", b in "[01]{0,32}") {
            let (ba, bb): (BitStr, BitStr) = (a.parse().unwrap(), b.parse().unwrap());
            prop_assert_eq!(ba.cmp(&bb), a.cmp(&b));
        }

        #[test]
        fn common_prefix_is_symmetric_and_tight(a in "[01]{0,64}", b in "[01]{0,64}") {
            let (ba, bb): (BitStr, BitStr) = (a.parse().unwrap(), b.parse().unwrap());
            let n = ba.common_prefix_len(&bb);
            prop_assert_eq!(n, bb.common_prefix_len(&ba));
            prop_assert!(ba.prefix(n).is_prefix_of(&bb));
            if n < ba.len() && n < bb.len() {
                prop_assert_ne!(ba.bit(n), bb.bit(n));
            }
        }

        #[test]
        fn concat_respects_parts(a in "[01]{0,60}", b in "[01]{0,60}") {
            let (ba, bb): (BitStr, BitStr) = (a.parse().unwrap(), b.parse().unwrap());
            let joined = ba.concat(&bb);
            prop_assert_eq!(ascii(&joined), format!("{a}{b}").into_bytes());
        }
    }
}
