//! Canonical Signed Digit (CSD) encoding and dyadic-block decomposition.
//!
//! This crate implements the algorithmic foundation of the DB-PIM co-design
//! framework (Duan et al., DAC 2024):
//!
//! * [`CsdDigit`] — a single signed digit in `{-1, 0, +1}`.
//! * [`CsdWord`] — a fixed-width canonical signed digit word obtained by
//!   non-adjacent-form recoding of a two's-complement integer. CSD guarantees
//!   that no two adjacent digits are both non-zero and that the number of
//!   non-zero digits is minimal, which raises bit-level sparsity by roughly a
//!   third compared to plain binary.
//! * [`DyadicBlock`] / [`BlockPattern`] — the paper's *dyadic block* sparsity
//!   pattern: an 8-digit CSD word is split into four 2-digit blocks, each of
//!   which is either a *Zero Pattern* (`00`) or a *Complementary Pattern*
//!   (exactly one non-zero digit). A Complementary Pattern block maps onto the
//!   cross-coupled `Q`/`Q̄` pair of a single 6T SRAM cell.
//!
//! # Example
//!
//! ```
//! use dbpim_csd::{CsdWord, BlockPattern};
//!
//! // 0b0111_1101 = 125 recodes to CSD 1000_0(-1)01 (128 - 4 + 1).
//! let w = CsdWord::from_i32(125, 8)?;
//! assert_eq!(w.to_i32(), 125);
//! assert_eq!(w.nonzero_digits(), 3);
//!
//! let blocks = w.dyadic_blocks();
//! assert_eq!(blocks.len(), 4);
//! assert!(matches!(blocks[3].pattern(), BlockPattern::Comp { .. }));
//! # Ok::<(), dbpim_csd::CsdError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod digit;
mod error;
mod width;
mod word;

pub use block::{BlockPattern, DyadicBlock, DyadicBlocks, Sign};
pub use digit::CsdDigit;
pub use error::CsdError;
pub use width::OperandWidth;
pub use word::{phi, CsdWord};

/// Counts the non-zero bits of the plain two's-complement representation of
/// `value` over `width` bits.
///
/// This is the "Ori_Zero" reference statistic in Fig. 2(a) of the paper:
/// bit-level sparsity *before* CSD recoding.
///
/// # Examples
///
/// ```
/// assert_eq!(dbpim_csd::binary_nonzero_bits(0b0101, 8), 2);
/// assert_eq!(dbpim_csd::binary_nonzero_bits(-1, 8), 8);
/// ```
pub fn binary_nonzero_bits(value: i32, width: u32) -> u32 {
    let mask: u32 = if width >= 32 { u32::MAX } else { (1u32 << width) - 1 };
    ((value as u32) & mask).count_ones()
}

/// Counts the non-zero digits of the canonical CSD recoding of `value` when
/// encoded over `width` digit positions.
///
/// This is the "CSD_Zero" statistic in Fig. 2(a): bit-level sparsity after CSD
/// recoding but before the FTA approximation.
///
/// # Errors
///
/// Returns [`CsdError::WidthTooSmall`] when the value cannot be represented in
/// `width` CSD digits.
pub fn csd_nonzero_bits(value: i32, width: u32) -> Result<u32, CsdError> {
    Ok(CsdWord::from_i32(value, width as usize)?.nonzero_digits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_nonzero_counts_masked_width() {
        assert_eq!(binary_nonzero_bits(0, 8), 0);
        assert_eq!(binary_nonzero_bits(127, 8), 7);
        assert_eq!(binary_nonzero_bits(-128, 8), 1);
        assert_eq!(binary_nonzero_bits(-1, 4), 4);
    }

    #[test]
    fn csd_nonzero_never_exceeds_binary_nonzero_plus_one() {
        // CSD is minimal: for all i8 values it uses no more non-zero digits
        // than the plain binary form of |value| does.
        for v in i8::MIN..=i8::MAX {
            let csd = csd_nonzero_bits(v as i32, 8).expect("i8 fits in 8 CSD digits");
            let bin = binary_nonzero_bits(v as i32, 8);
            assert!(csd <= bin + 1, "value {v}: csd {csd} vs binary {bin}");
        }
    }
}
