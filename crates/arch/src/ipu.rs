//! Input pre-processing unit (IPU).
//!
//! The IPU converts a group of input features into bit-serial form, detects
//! bit columns that are zero across the *whole* group (zero-detection
//! module), and uses leading-one detection to emit only the non-zero columns
//! together with their bit-position indices (Fig. 6). The macro then spends
//! one compute cycle per emitted column instead of one per bit position,
//! which is where the input-sparsity speedup of Fig. 7 comes from.

use serde::{Deserialize, Serialize};

use crate::config::OPERAND_BITS;

/// One non-zero bit column selected by the IPU.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InputColumn {
    /// Bit position (0 = least significant) of this column.
    pub position: u32,
    /// One bit per input feature in the group.
    pub bits: Vec<bool>,
}

impl InputColumn {
    /// Number of set bits in the column.
    #[must_use]
    pub fn ones(&self) -> usize {
        self.bits.iter().filter(|&&b| b).count()
    }
}

/// Result of pre-processing one group of input features.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IpuResult {
    /// Number of input features in the group.
    pub group_size: usize,
    /// The non-zero columns, most-significant first (the order the
    /// leading-one detector emits them).
    pub columns: Vec<InputColumn>,
    /// Number of all-zero columns that were skipped.
    pub skipped_columns: usize,
}

impl IpuResult {
    /// Fraction of bit columns skipped for this group.
    #[must_use]
    pub fn skip_ratio(&self) -> f64 {
        self.skipped_columns as f64 / OPERAND_BITS as f64
    }

    /// Number of compute cycles the macro spends on this group (one per
    /// emitted column).
    #[must_use]
    pub fn compute_cycles(&self) -> usize {
        self.columns.len()
    }
}

/// The input pre-processing unit.
///
/// `detect_sparsity == false` models the dense baseline's front end, which
/// still serializes inputs into bit columns but never skips any of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InputPreprocessor {
    detect_sparsity: bool,
}

impl InputPreprocessor {
    /// Creates an IPU with block-wise zero-column skipping enabled.
    #[must_use]
    pub fn new() -> Self {
        Self { detect_sparsity: true }
    }

    /// Creates the dense front end (no skipping).
    #[must_use]
    pub fn without_sparsity() -> Self {
        Self { detect_sparsity: false }
    }

    /// Returns `true` when zero-column skipping is enabled.
    #[must_use]
    pub fn detects_sparsity(&self) -> bool {
        self.detect_sparsity
    }

    /// Pre-processes one group of input features.
    ///
    /// Inputs are interpreted through their two's-complement bit pattern;
    /// the PPU is responsible for the signed most-significant-bit weighting.
    #[must_use]
    pub fn process(&self, group: &[i8]) -> IpuResult {
        let mut columns = Vec::with_capacity(OPERAND_BITS);
        let mut skipped = 0usize;
        for bit in (0..OPERAND_BITS as u32).rev() {
            let bits: Vec<bool> = group.iter().map(|&v| (v as u8 >> bit) & 1 == 1).collect();
            let all_zero = bits.iter().all(|&b| !b);
            if self.detect_sparsity && all_zero {
                skipped += 1;
            } else {
                columns.push(InputColumn { position: bit, bits });
            }
        }
        IpuResult { group_size: group.len(), columns, skipped_columns: skipped }
    }
}

impl Default for InputPreprocessor {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_6_style_group() {
        // Features occupying only bits {0, 2, 3, 6}: the other four columns
        // are skipped and the emitted indices are 6, 3, 2, 0 (MSB first).
        let ipu = InputPreprocessor::new();
        let group =
            [0b0100_1001u8 as i8, 0b0000_1101u8 as i8, 0b0100_0100u8 as i8, 0b0000_0001u8 as i8];
        let result = ipu.process(&group);
        assert_eq!(result.skipped_columns, 4);
        let positions: Vec<u32> = result.columns.iter().map(|c| c.position).collect();
        assert_eq!(positions, vec![6, 3, 2, 0]);
        assert_eq!(result.compute_cycles(), 4);
        assert!((result.skip_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn all_zero_group_skips_everything() {
        let ipu = InputPreprocessor::new();
        let result = ipu.process(&[0i8; 16]);
        assert_eq!(result.skipped_columns, 8);
        assert!(result.columns.is_empty());
        assert_eq!(result.compute_cycles(), 0);
    }

    #[test]
    fn dense_front_end_never_skips() {
        let ipu = InputPreprocessor::without_sparsity();
        assert!(!ipu.detects_sparsity());
        let result = ipu.process(&[0i8; 8]);
        assert_eq!(result.skipped_columns, 0);
        assert_eq!(result.columns.len(), 8);
        assert_eq!(result.skip_ratio(), 0.0);
    }

    #[test]
    fn column_bits_follow_the_inputs() {
        let ipu = InputPreprocessor::new();
        let result = ipu.process(&[1i8, 3, 0]);
        // Bit 1 column: only the value 3 has it set.
        let col1 = result.columns.iter().find(|c| c.position == 1).unwrap();
        assert_eq!(col1.bits, vec![false, true, false]);
        assert_eq!(col1.ones(), 1);
        // Bit 0 column: values 1 and 3.
        let col0 = result.columns.iter().find(|c| c.position == 0).unwrap();
        assert_eq!(col0.ones(), 2);
    }
}
