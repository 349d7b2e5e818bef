//! Fixed-width canonical signed digit words.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::block::{DyadicBlock, DyadicBlocks};
use crate::digit::CsdDigit;
use crate::error::CsdError;
use crate::width::OperandWidth;

/// A canonical signed digit (CSD) word of fixed width.
///
/// Digits are stored least-significant first (`digits()[0]` weighs `2^0`).
/// The word is always canonical: no two adjacent digits are both non-zero and
/// the non-zero digit count is minimal for the represented value.
///
/// # Examples
///
/// ```
/// use dbpim_csd::{CsdWord, OperandWidth};
///
/// let w = CsdWord::encode(125, OperandWidth::Int8)?;
/// assert_eq!(w.to_i32(), 125);
/// // 125 = 128 - 4 + 1 -> three non-zero digits instead of six binary ones.
/// assert_eq!(w.nonzero_digits(), 3);
/// assert_eq!(w.to_string(), "1000_0-01");
/// # Ok::<(), dbpim_csd::CsdError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CsdWord {
    digits: Vec<CsdDigit>,
}

impl CsdWord {
    /// Encodes `value` into a canonical signed digit word of exactly `width`
    /// digit positions using non-adjacent-form recoding.
    ///
    /// # Errors
    ///
    /// * [`CsdError::ZeroWidth`] when `width == 0`.
    /// * [`CsdError::WidthTooSmall`] when the canonical form of `value` needs
    ///   more than `width` digit positions.
    ///
    /// # Examples
    ///
    /// ```
    /// use dbpim_csd::CsdWord;
    ///
    /// let w = CsdWord::from_i32(7, 8)?;
    /// assert_eq!(w.to_i32(), 7);
    /// assert_eq!(w.nonzero_digits(), 2); // 8 - 1
    /// # Ok::<(), dbpim_csd::CsdError>(())
    /// ```
    pub fn from_i32(value: i32, width: usize) -> Result<Self, CsdError> {
        if width == 0 {
            return Err(CsdError::ZeroWidth);
        }
        let naf = non_adjacent_form(i64::from(value));
        if naf.len() > width {
            return Err(CsdError::WidthTooSmall { value, width, required: naf.len() });
        }
        let mut digits = naf;
        digits.resize(width, CsdDigit::Zero);
        Ok(Self { digits })
    }

    /// Encodes a value into the canonical word of an operand width.
    ///
    /// # Errors
    ///
    /// Returns [`CsdError::ValueOutOfRange`] when `value` does not fit the
    /// width's two's-complement range. In-range values always encode: a
    /// `w`-bit value needs at most `w` CSD digit positions.
    ///
    /// # Examples
    ///
    /// ```
    /// use dbpim_csd::{CsdWord, OperandWidth};
    ///
    /// let w = CsdWord::encode(-2048, OperandWidth::Int12)?;
    /// assert_eq!(w.width(), 12);
    /// assert_eq!(w.to_i32(), -2048);
    /// assert!(CsdWord::encode(2048, OperandWidth::Int12).is_err());
    /// # Ok::<(), dbpim_csd::CsdError>(())
    /// ```
    pub fn encode(value: i32, width: OperandWidth) -> Result<Self, CsdError> {
        if !width.contains(value) {
            return Err(CsdError::ValueOutOfRange { value, bits: width.bits() });
        }
        Self::from_i32(value, width.digits())
    }

    /// Builds a word from raw digits (least-significant first), validating the
    /// canonical non-adjacency property.
    ///
    /// # Errors
    ///
    /// * [`CsdError::ZeroWidth`] for an empty digit slice.
    /// * [`CsdError::NotCanonical`] when two adjacent digits are both non-zero.
    pub fn from_digits(digits: Vec<CsdDigit>) -> Result<Self, CsdError> {
        if digits.is_empty() {
            return Err(CsdError::ZeroWidth);
        }
        for (i, pair) in digits.windows(2).enumerate() {
            if pair[0].is_nonzero() && pair[1].is_nonzero() {
                return Err(CsdError::NotCanonical { position: i });
            }
        }
        Ok(Self { digits })
    }

    /// The zero word of the given width.
    ///
    /// # Errors
    ///
    /// Returns [`CsdError::ZeroWidth`] when `width == 0`.
    pub fn zero(width: usize) -> Result<Self, CsdError> {
        if width == 0 {
            return Err(CsdError::ZeroWidth);
        }
        Ok(Self { digits: vec![CsdDigit::Zero; width] })
    }

    /// Number of digit positions in the word.
    #[must_use]
    pub fn width(&self) -> usize {
        self.digits.len()
    }

    /// The digits of the word, least-significant first.
    #[must_use]
    pub fn digits(&self) -> &[CsdDigit] {
        &self.digits
    }

    /// Digit at position `pos` (weight `2^pos`), or `None` past the width.
    #[must_use]
    pub fn digit(&self, pos: usize) -> Option<CsdDigit> {
        self.digits.get(pos).copied()
    }

    /// Decodes the word back into an integer.
    #[must_use]
    pub fn to_i32(&self) -> i32 {
        self.digits.iter().enumerate().map(|(i, d)| d.value() << i).sum()
    }

    /// Number of non-zero digits (the paper's `φ`).
    #[must_use]
    pub fn nonzero_digits(&self) -> u32 {
        self.digits.iter().filter(|d| d.is_nonzero()).count() as u32
    }

    /// Returns `true` when every digit is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.digits.iter().all(|d| d.is_zero())
    }

    /// Iterator over `(position, digit)` pairs of the non-zero digits, from
    /// least to most significant.
    pub fn nonzero_positions(&self) -> impl Iterator<Item = (usize, CsdDigit)> + '_ {
        self.digits.iter().copied().enumerate().filter(|(_, d)| d.is_nonzero())
    }

    /// Arithmetic negation (flips every digit); the result is still canonical.
    #[must_use]
    pub fn negated(&self) -> Self {
        Self { digits: self.digits.iter().map(|d| d.negate()).collect() }
    }

    /// Splits the word into dyadic blocks of two digit positions each.
    ///
    /// Block `k` covers positions `2k` (low) and `2k + 1` (high). For the
    /// 8-digit INT8 encoding this yields the paper's four blocks
    /// `DB#3 | DB#2 | DB#1 | DB#0`. Odd-width words are conceptually
    /// zero-padded with one extra most-significant digit.
    #[must_use]
    pub fn dyadic_blocks(&self) -> DyadicBlocks {
        let block_count = self.digits.len().div_ceil(2);
        let blocks = (0..block_count)
            .map(|k| {
                let lo = self.digits[2 * k];
                let hi = self.digits.get(2 * k + 1).copied().unwrap_or(CsdDigit::Zero);
                DyadicBlock::from_digits(k as u8, lo, hi)
                    .expect("canonical words never have two non-zero digits in one block")
            })
            .collect();
        DyadicBlocks::new(blocks)
    }
}

impl fmt::Display for CsdWord {
    /// Formats most-significant digit first, with `_` every four digits,
    /// mirroring the `1000_0-01` notation used in the paper (with `-` for
    /// `1̄`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.digits.len();
        for (printed, pos) in (0..n).rev().enumerate() {
            if printed > 0 && (n - printed).is_multiple_of(4) {
                write!(f, "_")?;
            }
            write!(f, "{}", self.digits[pos])?;
        }
        Ok(())
    }
}

/// Number of non-zero digits in the canonical signed-digit form of `value`
/// (the paper's `φ`), independent of any word width.
///
/// Unlike [`CsdWord::encode`], this never fails: the non-adjacent form of any
/// `i32` is well defined, and padding a word with zero digits does not change
/// its non-zero digit count.
///
/// Closed form, no digit loop: for `n = |value|`, the bits where `3n` and
/// `n` differ above position 0 — `(n + n/2) ^ n/2` — are exactly the
/// non-zero digit positions of the non-adjacent form of `n`, and negation
/// only flips digit signs. Computed on `u64` so `|i32::MIN|` cannot
/// overflow.
///
/// # Examples
///
/// ```
/// assert_eq!(dbpim_csd::phi(0), 0);
/// assert_eq!(dbpim_csd::phi(125), 3); // 128 - 4 + 1
/// assert_eq!(dbpim_csd::phi(-1), 1);
/// ```
#[must_use]
pub fn phi(value: i32) -> u32 {
    let n = u64::from(value.unsigned_abs());
    let half = n >> 1;
    ((n + half) ^ half).count_ones()
}

/// Canonical non-adjacent-form recoding (least-significant digit first).
///
/// The returned vector has no trailing zero digits.
fn non_adjacent_form(mut n: i64) -> Vec<CsdDigit> {
    let mut digits = Vec::new();
    while n != 0 {
        if n & 1 != 0 {
            // Choose +1 or -1 so that the remaining value is divisible by 4,
            // which guarantees the next digit is zero (non-adjacency).
            let rem = n.rem_euclid(4);
            let d = if rem == 1 { 1 } else { -1 };
            digits.push(CsdDigit::from_value(d as i32).expect("d is +/-1"));
            n -= d;
        } else {
            digits.push(CsdDigit::Zero);
        }
        n /= 2;
    }
    digits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_i8_round_trips_in_eight_digits() {
        for v in i8::MIN..=i8::MAX {
            let w = CsdWord::encode(i32::from(v), OperandWidth::Int8).unwrap();
            assert_eq!(w.width(), OperandWidth::Int8.digits());
            assert_eq!(w.to_i32(), i32::from(v), "round trip failed for {v}");
        }
    }

    #[test]
    fn every_i8_word_is_canonical() {
        for v in i8::MIN..=i8::MAX {
            let w = CsdWord::encode(i32::from(v), OperandWidth::Int8).unwrap();
            for pair in w.digits().windows(2) {
                assert!(
                    !(pair[0].is_nonzero() && pair[1].is_nonzero()),
                    "adjacent non-zero digits for value {v}"
                );
            }
        }
    }

    #[test]
    fn csd_uses_no_more_nonzero_digits_than_binary() {
        for v in 0..=i8::MAX {
            let w = CsdWord::encode(i32::from(v), OperandWidth::Int8).unwrap();
            let binary = (v as u8).count_ones();
            assert!(w.nonzero_digits() <= binary, "value {v}");
        }
    }

    #[test]
    fn paper_example_125_has_three_nonzero_digits() {
        // The paper recodes 0b0111_1101 into 1000_0(-1)01.
        let w = CsdWord::encode(125, OperandWidth::Int8).unwrap();
        assert_eq!(w.nonzero_digits(), 3);
        assert_eq!(w.to_string(), "1000_0-01");
    }

    #[test]
    fn width_too_small_is_reported() {
        let err = CsdWord::from_i32(300, 4).unwrap_err();
        assert!(matches!(err, CsdError::WidthTooSmall { value: 300, width: 4, .. }));
    }

    #[test]
    fn zero_width_is_rejected() {
        assert_eq!(CsdWord::from_i32(0, 0).unwrap_err(), CsdError::ZeroWidth);
        assert_eq!(CsdWord::zero(0).unwrap_err(), CsdError::ZeroWidth);
    }

    #[test]
    fn from_digits_rejects_adjacent_nonzero() {
        let err = CsdWord::from_digits(vec![CsdDigit::PlusOne, CsdDigit::MinusOne]).unwrap_err();
        assert_eq!(err, CsdError::NotCanonical { position: 0 });
    }

    #[test]
    fn negation_decodes_to_negated_value() {
        for v in -128i32..=127 {
            let w = CsdWord::from_i32(v, 9).expect("9 digits fit all i8 and -(-128)");
            assert_eq!(w.negated().to_i32(), -v);
        }
    }

    #[test]
    fn nonzero_positions_matches_count() {
        let w = CsdWord::encode(42, OperandWidth::Int8).unwrap();
        assert_eq!(w.nonzero_positions().count() as u32, w.nonzero_digits());
        assert_eq!(w.nonzero_positions().map(|(p, d)| d.value() << p).sum::<i32>(), 42);
    }

    #[test]
    fn zero_word_is_zero() {
        let w = CsdWord::zero(8).unwrap();
        assert!(w.is_zero());
        assert_eq!(w.to_i32(), 0);
        assert_eq!(w.nonzero_digits(), 0);
    }

    #[test]
    fn wider_words_accept_i16_range() {
        for v in [-32768, -12345, -1, 0, 1, 9999, 32767] {
            let w = CsdWord::from_i32(v, 17).unwrap();
            assert_eq!(w.to_i32(), v);
        }
    }

    #[test]
    fn from_i32_width_overflow_errors_at_every_width_boundary() {
        // For every supported width, the extreme in-range magnitudes encode
        // and the first out-of-range NAF lengths are reported as errors
        // rather than panicking (in-range values of every width always
        // encode).
        for width in OperandWidth::all() {
            let digits = width.digits();
            let max = width.max_value();
            let min = width.min_value();
            assert_eq!(CsdWord::from_i32(max, digits).unwrap().to_i32(), max);
            assert_eq!(CsdWord::from_i32(min, digits).unwrap().to_i32(), min);
            // One digit fewer cannot hold the extreme magnitudes.
            assert!(matches!(
                CsdWord::from_i32(min, digits - 1),
                Err(CsdError::WidthTooSmall { required, .. }) if required == digits
            ));
            // Slightly out-of-range values like `max + 1 = 2^(w-1)` or
            // `min - 1` still fit `w` digit positions (CSD reaches past the
            // two's-complement range); only `encode`'s range check rejects
            // them. `±2^w` genuinely overflows the digit count.
            assert_eq!(CsdWord::from_i32(max + 1, digits).unwrap().to_i32(), max + 1);
            assert_eq!(CsdWord::from_i32(min - 1, digits).unwrap().to_i32(), min - 1);
            for value in [1 << digits, -(1 << digits)] {
                assert_eq!(
                    CsdWord::from_i32(value, digits),
                    Err(CsdError::WidthTooSmall { value, width: digits, required: digits + 1 })
                );
            }
        }
        // Spot-check a reported minimum width away from a power of two: the
        // canonical form of 300 = 256 + 64 - 16 - 4 needs digit position 8.
        let err = CsdWord::from_i32(300, 8).unwrap_err();
        assert_eq!(err, CsdError::WidthTooSmall { value: 300, width: 8, required: 9 });
    }

    #[test]
    fn encode_enforces_the_twos_complement_range() {
        for width in OperandWidth::all() {
            for value in [width.min_value(), -1, 0, 1, width.max_value()] {
                let word = CsdWord::encode(value, width).unwrap();
                assert_eq!(word.width(), width.digits());
                assert_eq!(word.to_i32(), value);
            }
            for value in [width.min_value() - 1, width.max_value() + 1] {
                assert_eq!(
                    CsdWord::encode(value, width),
                    Err(CsdError::ValueOutOfRange { value, bits: width.bits() })
                );
            }
        }
        // 2^(w-1) is representable in w digits but not in the w-bit range:
        // the range check must reject it even though the NAF would fit.
        assert!(CsdWord::from_i32(128, 8).is_ok());
        assert!(CsdWord::encode(128, OperandWidth::Int8).is_err());
    }

    #[test]
    fn phi_matches_word_nonzero_digits() {
        // Every value of every supported width: the closed form against the
        // digit-by-digit canonical word.
        for width in OperandWidth::all() {
            for v in width.min_value()..=width.max_value() {
                let word = CsdWord::encode(v, width).unwrap();
                assert_eq!(phi(v), word.nonzero_digits(), "{width} value {v}");
            }
        }
    }

    #[test]
    fn phi_matches_the_naf_digit_loop_at_the_i32_extremes() {
        let naf_phi =
            |v: i32| non_adjacent_form(i64::from(v)).iter().filter(|d| d.is_nonzero()).count();
        // ±(2^k - 1), ±2^k and ±(2^k + 1) for every k, where they fit:
        // the carry-chain extremes of the closed form.
        let powers = (0..=31).map(|k| 1i64 << k);
        let near_powers = powers.flat_map(|p| [p - 1, p, p + 1, 1 - p, -p, -p - 1]);
        let values = near_powers.filter_map(|v| i32::try_from(v).ok());
        for v in values.chain([i32::MIN, i32::MIN + 1, i32::MAX]) {
            assert_eq!(phi(v) as usize, naf_phi(v), "value {v}");
        }
    }

    #[test]
    fn dyadic_blocks_cover_all_positions() {
        let w = CsdWord::encode(-77, OperandWidth::Int8).unwrap();
        let blocks = w.dyadic_blocks();
        assert_eq!(blocks.len(), 4);
        assert_eq!(blocks.value(), -77);
    }
}
