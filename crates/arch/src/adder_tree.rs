//! The CSD-based adder tree.
//!
//! A conventional digital-PIM adder tree sums same-weighted bit products. In
//! DB-PIM the products arriving from the compartments carry *randomly
//! distributed* significances: each occupied cell's contribution must first
//! be shifted by its dyadic-block index (from the metadata RF), selected
//! between the block's high/low position (from the `O_Q`/`O_Q̄` pair) and
//! negated when the stored digit is `1̄`. Only then can the tree accumulate
//! across compartments. This module models that reduction bit-accurately.

use dbpim_csd::Sign;
use serde::{Deserialize, Serialize};

use crate::lpu::LpuOutput;

/// Metadata attached to one occupied cell, as held in the metadata register
/// file: the dyadic-block index (two bits for the paper's INT8 layout,
/// `OperandWidth::index_bits` in general) and the digit sign (one bit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CellMeta {
    /// Dyadic-block index (`0..=3` at INT8, up to `0..=7` at INT16). The
    /// reduction shifts by `2 * db_index (+ 1)`, so the tree's precision
    /// follows the operand width automatically.
    pub db_index: u8,
    /// Sign of the stored non-zero digit.
    pub sign: Sign,
}

impl CellMeta {
    /// Creates cell metadata.
    #[must_use]
    pub fn new(db_index: u8, sign: Sign) -> Self {
        Self { db_index, sign }
    }
}

/// Per-cycle statistics of one adder-tree reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct AdderTreeStats {
    /// Number of (cell, input-bit) products examined.
    pub operands: usize,
    /// Number of operands that actually contributed a non-zero value.
    pub effective_operands: usize,
}

/// The CSD-based adder tree of one filter column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CsdAdderTree;

impl CsdAdderTree {
    /// Reduces one cycle's LPU outputs into a signed partial sum.
    ///
    /// `operands` carries, per contributing cell, the LPU output pair, the
    /// cell's metadata and whether the cell is occupied (padded slots pass
    /// `None` metadata and are ignored).
    #[must_use]
    pub fn reduce(self, operands: &[(LpuOutput, Option<CellMeta>)]) -> (i32, AdderTreeStats) {
        let mut sum = 0i32;
        let mut stats = AdderTreeStats { operands: operands.len(), effective_operands: 0 };
        for (out, meta) in operands {
            let Some(meta) = meta else { continue };
            let magnitude = i32::from(out.o_q) << (2 * u32::from(meta.db_index) + 1)
                | i32::from(out.o_q_bar) << (2 * u32::from(meta.db_index));
            if magnitude != 0 {
                stats.effective_operands += 1;
            }
            sum += meta.sign.factor() * magnitude;
        }
        (sum, stats)
    }

    /// Reduces a dense (baseline) cycle: every operand is an unsigned weight
    /// bit of significance `bit_position`, except the most significant bit of
    /// a two's-complement weight which carries negative weight.
    #[must_use]
    pub fn reduce_dense(
        self,
        products: &[bool],
        bit_position: u32,
        signed_msb: bool,
    ) -> (i32, AdderTreeStats) {
        let ones = products.iter().filter(|&&p| p).count() as i32;
        let magnitude = ones << bit_position;
        let stats = AdderTreeStats { operands: products.len(), effective_operands: ones as usize };
        (if signed_msb { -magnitude } else { magnitude }, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn out(o_q: bool, o_q_bar: bool) -> LpuOutput {
        LpuOutput { o_q, o_q_bar }
    }

    #[test]
    fn paper_example_sums_correctly() {
        // Section 3.3's example: f0(0) = 0001_0000 (CSD, +16, DB#2 low) and
        // f0(1) = 1000_0000 (CSD, +128 as -? no: +2^7, DB#3 high). With both
        // inputs equal to 1 the sum must be 16 + 128 = 144, not the naive 11b.
        let tree = CsdAdderTree;
        let operands = [
            (out(false, true), Some(CellMeta::new(2, Sign::Positive))), // low digit of DB#2 -> 2^4
            (out(true, false), Some(CellMeta::new(3, Sign::Positive))), // high digit of DB#3 -> 2^7
        ];
        let (sum, stats) = tree.reduce(&operands);
        assert_eq!(sum, 16 + 128);
        assert_eq!(stats.effective_operands, 2);
        assert_eq!(stats.operands, 2);
    }

    #[test]
    fn negative_digits_subtract() {
        let tree = CsdAdderTree;
        let operands = [
            (out(true, false), Some(CellMeta::new(0, Sign::Negative))), // -2
            (out(false, true), Some(CellMeta::new(1, Sign::Positive))), // +4
        ];
        let (sum, _) = tree.reduce(&operands);
        assert_eq!(sum, 2);
    }

    #[test]
    fn padded_and_idle_operands_are_ignored() {
        let tree = CsdAdderTree;
        let operands = [
            (out(false, false), Some(CellMeta::new(3, Sign::Positive))), // input bit was 0
            (out(true, false), None),                                    // padded slot
        ];
        let (sum, stats) = tree.reduce(&operands);
        assert_eq!(sum, 0);
        assert_eq!(stats.effective_operands, 0);
    }

    #[test]
    fn dense_reduction_counts_ones_with_shift_and_sign() {
        let tree = CsdAdderTree;
        let (sum, stats) = tree.reduce_dense(&[true, false, true, true], 3, false);
        assert_eq!(sum, 3 << 3);
        assert_eq!(stats.effective_operands, 3);
        let (sum, _) = tree.reduce_dense(&[true, true], 7, true);
        assert_eq!(sum, -(2 << 7));
    }

    #[test]
    fn empty_reduction_is_zero() {
        let tree = CsdAdderTree;
        let (sum, stats) = tree.reduce(&[]);
        assert_eq!(sum, 0);
        assert_eq!(stats.operands, 0);
    }
}
