//! Dyadic blocks: the DB-PIM bit-level sparsity pattern.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::digit::CsdDigit;
use crate::error::CsdError;

/// Sign of the single non-zero digit carried by a Complementary Pattern block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Sign {
    /// The digit is `+1`.
    Positive,
    /// The digit is `-1` (`1̄` in the paper).
    Negative,
}

impl Sign {
    /// `+1` or `-1`.
    #[must_use]
    pub const fn factor(self) -> i32 {
        match self {
            Sign::Positive => 1,
            Sign::Negative => -1,
        }
    }

    /// The hardware encoding used in the metadata register files: `0` for
    /// positive, `1` for negative (one sign bit per stored block).
    #[must_use]
    pub const fn to_bit(self) -> u8 {
        match self {
            Sign::Positive => 0,
            Sign::Negative => 1,
        }
    }

    /// Decodes the one-bit hardware encoding.
    #[must_use]
    pub const fn from_bit(bit: u8) -> Self {
        if bit == 0 {
            Sign::Positive
        } else {
            Sign::Negative
        }
    }
}

impl fmt::Display for Sign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sign::Positive => write!(f, "+"),
            Sign::Negative => write!(f, "-"),
        }
    }
}

/// Classification of a dyadic block.
///
/// In CSD form a 2-digit block never holds two non-zero digits, so a block is
/// either entirely zero or carries exactly one signed digit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BlockPattern {
    /// The Zero Pattern block `00`; it is discarded by the FTA compression and
    /// never stored in the PIM array.
    Zero,
    /// A Complementary Pattern block (`01`, `10`, `0-1` or `-10`): one signed
    /// non-zero digit that maps onto the `Q`/`Q̄` pair of a 6T SRAM cell.
    Comp {
        /// `true` when the non-zero digit occupies the high (odd) position of
        /// the block, `false` for the low (even) position.
        high: bool,
        /// Sign of the non-zero digit.
        sign: Sign,
    },
}

impl BlockPattern {
    /// Returns `true` for the Zero Pattern.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        matches!(self, BlockPattern::Zero)
    }

    /// Returns `true` for a Complementary Pattern.
    #[must_use]
    pub const fn is_comp(self) -> bool {
        !self.is_zero()
    }
}

/// One dyadic block: a 2-digit slice of a CSD word together with its index.
///
/// Block `k` of a word covers digit positions `2k` and `2k + 1`, so its
/// non-zero digit (if any) weighs `± 2^(2k)` or `± 2^(2k + 1)`.
///
/// # Examples
///
/// ```
/// use dbpim_csd::{CsdWord, BlockPattern, Sign};
///
/// // 0100_0010 (CSD) = 64 + 2: DB#0 = 10 (value +2), DB#3 = 01 (value +64).
/// let w = CsdWord::from_i32(66, 8)?;
/// let blocks = w.dyadic_blocks();
/// assert_eq!(blocks[0].value(), 2);
/// assert_eq!(blocks[3].value(), 64);
/// assert_eq!(blocks[1].pattern(), BlockPattern::Zero);
/// assert_eq!(blocks.comp_blocks().count(), 2);
/// # Ok::<(), dbpim_csd::CsdError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DyadicBlock {
    index: u8,
    pattern: BlockPattern,
}

impl DyadicBlock {
    /// Builds a block from its two digits (low position first).
    ///
    /// # Errors
    ///
    /// Returns [`CsdError::NotCanonical`] when both digits are non-zero, which
    /// cannot happen inside a canonical word.
    pub fn from_digits(index: u8, lo: CsdDigit, hi: CsdDigit) -> Result<Self, CsdError> {
        let pattern = match (lo, hi) {
            (CsdDigit::Zero, CsdDigit::Zero) => BlockPattern::Zero,
            (d, CsdDigit::Zero) => BlockPattern::Comp {
                high: false,
                sign: if d == CsdDigit::PlusOne { Sign::Positive } else { Sign::Negative },
            },
            (CsdDigit::Zero, d) => BlockPattern::Comp {
                high: true,
                sign: if d == CsdDigit::PlusOne { Sign::Positive } else { Sign::Negative },
            },
            _ => return Err(CsdError::NotCanonical { position: usize::from(index) * 2 }),
        };
        Ok(Self { index, pattern })
    }

    /// Builds a Complementary Pattern block directly from metadata fields.
    #[must_use]
    pub fn comp(index: u8, high: bool, sign: Sign) -> Self {
        Self { index, pattern: BlockPattern::Comp { high, sign } }
    }

    /// Builds a Zero Pattern block at the given index.
    #[must_use]
    pub fn zero(index: u8) -> Self {
        Self { index, pattern: BlockPattern::Zero }
    }

    /// Block index (`DB#index`); weighs `2^(2 * index)` at its low position.
    #[must_use]
    pub fn index(&self) -> u8 {
        self.index
    }

    /// The block's pattern classification.
    #[must_use]
    pub fn pattern(&self) -> BlockPattern {
        self.pattern
    }

    /// Returns `true` for the Zero Pattern.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.pattern.is_zero()
    }

    /// Arithmetic value contributed by this block.
    #[must_use]
    pub fn value(&self) -> i32 {
        match self.pattern {
            BlockPattern::Zero => 0,
            BlockPattern::Comp { high, sign } => {
                let shift = 2 * u32::from(self.index) + u32::from(high);
                sign.factor() << shift
            }
        }
    }

    /// Bit position (`0..width`) of the non-zero digit, or `None` for a Zero
    /// Pattern block. This is the shift amount used by the CSD adder tree.
    #[must_use]
    pub fn digit_position(&self) -> Option<u32> {
        match self.pattern {
            BlockPattern::Zero => None,
            BlockPattern::Comp { high, .. } => Some(2 * u32::from(self.index) + u32::from(high)),
        }
    }

    /// Sign of the non-zero digit, or `None` for a Zero Pattern block.
    #[must_use]
    pub fn sign(&self) -> Option<Sign> {
        match self.pattern {
            BlockPattern::Zero => None,
            BlockPattern::Comp { sign, .. } => Some(sign),
        }
    }

    /// The `(Q, Q̄)` pair stored in the 6T SRAM cell for this block.
    ///
    /// The cross-coupled inverters of a 6T cell always hold complementary
    /// levels; the Comp. Pattern convention stores the *low* digit of the block
    /// on `Q` and the *high* digit on `Q̄`, so `(1, 0)` encodes a non-zero digit
    /// in the low position and `(0, 1)` one in the high position. Zero Pattern
    /// blocks are never stored.
    #[must_use]
    pub fn cell_state(&self) -> Option<(bool, bool)> {
        match self.pattern {
            BlockPattern::Zero => None,
            BlockPattern::Comp { high, .. } => Some((!high, high)),
        }
    }
}

impl fmt::Display for DyadicBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.pattern {
            BlockPattern::Zero => write!(f, "DB#{}:00", self.index),
            BlockPattern::Comp { high, sign } => {
                let (hi, lo) = if high {
                    (sign.to_string(), "0".to_string())
                } else {
                    ("0".to_string(), sign.to_string())
                };
                write!(f, "DB#{}:{}{}", self.index, hi, lo)
            }
        }
    }
}

/// The ordered dyadic-block decomposition of a CSD word (`DB#0` first).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DyadicBlocks {
    blocks: Vec<DyadicBlock>,
}

impl DyadicBlocks {
    pub(crate) fn new(blocks: Vec<DyadicBlock>) -> Self {
        Self { blocks }
    }

    /// Number of blocks (4 for INT8 words).
    #[must_use]
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Returns `true` when the decomposition is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Iterator over all blocks, `DB#0` first.
    pub fn iter(&self) -> std::slice::Iter<'_, DyadicBlock> {
        self.blocks.iter()
    }

    /// Iterator over the Complementary Pattern (non-zero) blocks only.
    ///
    /// These are the blocks the FTA compression keeps; Zero Pattern blocks are
    /// discarded.
    pub fn comp_blocks(&self) -> impl Iterator<Item = &DyadicBlock> {
        self.blocks.iter().filter(|b| !b.is_zero())
    }

    /// Number of Complementary Pattern blocks (equals `φ` of the word).
    #[must_use]
    pub fn comp_count(&self) -> usize {
        self.comp_blocks().count()
    }

    /// Reconstructs the value represented by the blocks.
    #[must_use]
    pub fn value(&self) -> i32 {
        self.blocks.iter().map(DyadicBlock::value).sum()
    }

    /// The blocks as a slice.
    #[must_use]
    pub fn as_slice(&self) -> &[DyadicBlock] {
        &self.blocks
    }
}

impl std::ops::Index<usize> for DyadicBlocks {
    type Output = DyadicBlock;

    fn index(&self, index: usize) -> &Self::Output {
        &self.blocks[index]
    }
}

impl<'a> IntoIterator for &'a DyadicBlocks {
    type Item = &'a DyadicBlock;
    type IntoIter = std::slice::Iter<'a, DyadicBlock>;

    fn into_iter(self) -> Self::IntoIter {
        self.blocks.iter()
    }
}

impl IntoIterator for DyadicBlocks {
    type Item = DyadicBlock;
    type IntoIter = std::vec::IntoIter<DyadicBlock>;

    fn into_iter(self) -> Self::IntoIter {
        self.blocks.into_iter()
    }
}

impl FromIterator<DyadicBlock> for DyadicBlocks {
    fn from_iter<T: IntoIterator<Item = DyadicBlock>>(iter: T) -> Self {
        Self { blocks: iter.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::width::OperandWidth;
    use crate::word::CsdWord;

    #[test]
    fn block_values_reconstruct_every_i8() {
        for v in i8::MIN..=i8::MAX {
            let w = CsdWord::encode(i32::from(v), OperandWidth::Int8).unwrap();
            assert_eq!(w.dyadic_blocks().value(), i32::from(v), "value {v}");
        }
    }

    #[test]
    fn comp_count_equals_phi() {
        for v in i8::MIN..=i8::MAX {
            let w = CsdWord::encode(i32::from(v), OperandWidth::Int8).unwrap();
            assert_eq!(w.dyadic_blocks().comp_count() as u32, w.nonzero_digits());
        }
    }

    #[test]
    fn paper_figure4_example() {
        // f1_th(0) = 0100_0010 (CSD) decomposes into DB#3 = 01 and DB#0 = 10,
        // phi = 2, i.e. 75 % block sparsity on this value is NOT the claim --
        // the claim is two Comp. Pattern blocks out of four.
        let w = CsdWord::from_digits(vec![
            CsdDigit::Zero,
            CsdDigit::PlusOne,
            CsdDigit::Zero,
            CsdDigit::Zero,
            CsdDigit::Zero,
            CsdDigit::Zero,
            CsdDigit::PlusOne,
            CsdDigit::Zero,
        ])
        .unwrap();
        assert_eq!(w.to_i32(), 64 + 2);
        let blocks = w.dyadic_blocks();
        assert_eq!(blocks.comp_count(), 2);
        assert_eq!(blocks[0].pattern(), BlockPattern::Comp { high: true, sign: Sign::Positive });
        assert_eq!(blocks[3].pattern(), BlockPattern::Comp { high: false, sign: Sign::Positive });
        assert_eq!(blocks[1].pattern(), BlockPattern::Zero);
        assert_eq!(blocks[2].pattern(), BlockPattern::Zero);
    }

    #[test]
    fn digit_position_matches_value_shift() {
        let b = DyadicBlock::comp(2, true, Sign::Negative);
        assert_eq!(b.digit_position(), Some(5));
        assert_eq!(b.value(), -32);
        assert_eq!(b.sign(), Some(Sign::Negative));
    }

    #[test]
    fn zero_block_has_no_metadata() {
        let b = DyadicBlock::zero(1);
        assert!(b.is_zero());
        assert_eq!(b.value(), 0);
        assert_eq!(b.digit_position(), None);
        assert_eq!(b.sign(), None);
        assert_eq!(b.cell_state(), None);
    }

    #[test]
    fn cell_state_is_complementary() {
        for (high, _sign) in [(false, Sign::Positive), (true, Sign::Negative)] {
            let b = DyadicBlock::comp(0, high, Sign::Positive);
            let (q, qbar) = b.cell_state().unwrap();
            assert_ne!(q, qbar);
            assert_eq!(qbar, high);
        }
    }

    #[test]
    fn from_digits_rejects_double_nonzero() {
        let err = DyadicBlock::from_digits(1, CsdDigit::PlusOne, CsdDigit::MinusOne).unwrap_err();
        assert_eq!(err, CsdError::NotCanonical { position: 2 });
    }

    #[test]
    fn sign_bit_round_trips() {
        assert_eq!(Sign::from_bit(Sign::Positive.to_bit()), Sign::Positive);
        assert_eq!(Sign::from_bit(Sign::Negative.to_bit()), Sign::Negative);
        assert_eq!(Sign::Positive.factor(), 1);
        assert_eq!(Sign::Negative.factor(), -1);
    }

    #[test]
    fn blocks_collect_from_iterator() {
        let blocks: DyadicBlocks =
            vec![DyadicBlock::zero(0), DyadicBlock::comp(1, false, Sign::Positive)]
                .into_iter()
                .collect();
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks.value(), 4);
    }

    #[test]
    fn display_shows_index_and_digits() {
        assert_eq!(DyadicBlock::zero(2).to_string(), "DB#2:00");
        assert_eq!(DyadicBlock::comp(3, false, Sign::Negative).to_string(), "DB#3:0-");
        assert_eq!(DyadicBlock::comp(1, true, Sign::Positive).to_string(), "DB#1:+0");
    }
}
