//! Exact binary fixed-point data keys.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A data key `δ ∈ [0, 1)` represented exactly as a 64-bit binary
/// fraction: the stored integer `k` denotes the value `k / 2^64`.
///
/// The LHT paper's data model (§3.1) assumes data keys are real values
/// in `[0, 1]`; the space partition tree repeatedly halves intervals at
/// their medians, so every partition point is a dyadic rational. A
/// fixed-point representation therefore performs all interval tests
/// *exactly*, which is essential for the correctness proofs behind the
/// naming function to carry over to code (no float rounding at interval
/// boundaries).
///
/// # Examples
///
/// ```
/// use lht_id::KeyFraction;
///
/// let half = KeyFraction::from_f64(0.5);
/// assert!(half.bit(0)); // binary 0.1000…
/// assert!(!half.bit(1));
/// assert_eq!(half.to_f64(), 0.5);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct KeyFraction(u64);

impl KeyFraction {
    /// The smallest key, `0.0`.
    pub const ZERO: KeyFraction = KeyFraction(0);
    /// The largest representable key, `1 - 2^-64`.
    pub const MAX: KeyFraction = KeyFraction(u64::MAX);

    /// Creates a key from its raw 64-bit numerator (the value is
    /// `bits / 2^64`).
    pub const fn from_bits(bits: u64) -> KeyFraction {
        KeyFraction(bits)
    }

    /// Raw 64-bit numerator.
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// Converts from an `f64`, clamping into `[0, 1)`.
    ///
    /// Values `>= 1.0` map to [`KeyFraction::MAX`]; values `<= 0.0`
    /// (including NaN) map to [`KeyFraction::ZERO`].
    pub fn from_f64(x: f64) -> KeyFraction {
        // NaN and non-positive values clamp to zero.
        if x.is_nan() || x <= 0.0 {
            return KeyFraction::ZERO;
        }
        if x >= 1.0 {
            return KeyFraction::MAX;
        }
        // 2^64 as f64; the product is < 2^64 so the cast is lossless
        // modulo f64 precision (53 significant bits).
        KeyFraction((x * 18446744073709551616.0) as u64)
    }

    /// Converts to the nearest `f64`.
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / 18446744073709551616.0
    }

    /// Returns bit `i` of the binary expansion `0.b0 b1 b2 …`
    /// (bit 0 is the most significant, worth `1/2`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 64`.
    pub fn bit(self, i: u32) -> bool {
        assert!(i < 64, "bit index {i} out of range");
        (self.0 >> (63 - i)) & 1 == 1
    }

    /// The key immediately below `self`, saturating at zero.
    ///
    /// Useful for converting a half-open upper bound `u` into the
    /// largest key a range `[l, u)` can contain.
    pub fn pred(self) -> KeyFraction {
        KeyFraction(self.0.saturating_sub(1))
    }

    /// The key immediately above `self`, saturating at
    /// [`KeyFraction::MAX`].
    pub fn succ(self) -> KeyFraction {
        KeyFraction(self.0.saturating_add(1))
    }
}

impl From<f64> for KeyFraction {
    fn from(x: f64) -> Self {
        KeyFraction::from_f64(x)
    }
}

impl fmt::Debug for KeyFraction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "KeyFraction({:.6} = {:#018x}/2^64)",
            self.to_f64(),
            self.0
        )
    }
}

impl fmt::Display for KeyFraction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.to_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn f64_round_trip_of_dyadics() {
        for (x, bits) in [
            (0.0, 0u64),
            (0.5, 1 << 63),
            (0.25, 1 << 62),
            (0.75, 3 << 62),
            (0.375, 3 << 61),
        ] {
            assert_eq!(KeyFraction::from_f64(x).bits(), bits, "x = {x}");
            assert_eq!(KeyFraction::from_bits(bits).to_f64(), x);
        }
    }

    #[test]
    fn clamping_at_bounds() {
        assert_eq!(KeyFraction::from_f64(-1.0), KeyFraction::ZERO);
        assert_eq!(KeyFraction::from_f64(f64::NAN), KeyFraction::ZERO);
        assert_eq!(KeyFraction::from_f64(1.0), KeyFraction::MAX);
        assert_eq!(KeyFraction::from_f64(7.5), KeyFraction::MAX);
    }

    #[test]
    fn bits_of_0_4() {
        // 0.4 in binary is 0.0110 0110 0110 …
        let k = KeyFraction::from_f64(0.4);
        let expect = [false, true, true, false, false, true, true, false];
        for (i, &b) in expect.iter().enumerate() {
            assert_eq!(k.bit(i as u32), b, "bit {i}");
        }
    }

    #[test]
    fn ordering_matches_f64() {
        let a = KeyFraction::from_f64(0.2);
        let b = KeyFraction::from_f64(0.6);
        assert!(a < b);
        assert!(KeyFraction::ZERO < a);
        assert!(b < KeyFraction::MAX);
    }

    #[test]
    fn pred_succ_saturate() {
        assert_eq!(KeyFraction::ZERO.pred(), KeyFraction::ZERO);
        assert_eq!(KeyFraction::MAX.succ(), KeyFraction::MAX);
        let k = KeyFraction::from_bits(10);
        assert_eq!(k.pred().succ(), k);
    }

    proptest! {
        #[test]
        fn from_to_f64_error_below_ulp53(x in 0.0f64..1.0) {
            let k = KeyFraction::from_f64(x);
            prop_assert!((k.to_f64() - x).abs() < 1e-15);
        }

        #[test]
        fn order_preserved(a in any::<u64>(), b in any::<u64>()) {
            let (ka, kb) = (KeyFraction::from_bits(a), KeyFraction::from_bits(b));
            prop_assert_eq!(a.cmp(&b), ka.cmp(&kb));
        }

        #[test]
        fn msb_bit_is_half_test(bits in any::<u64>()) {
            let k = KeyFraction::from_bits(bits);
            prop_assert_eq!(k.bit(0), k >= KeyFraction::from_f64(0.5));
        }
    }
}
