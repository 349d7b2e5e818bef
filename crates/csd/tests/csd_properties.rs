//! Property tests for the CSD encoding and dyadic-block decomposition.
//!
//! The original suite used `proptest`; the offline build environment cannot
//! fetch it, so the i8/i16 properties are checked exhaustively (stronger
//! than sampling) and the bounded-i32 round trip walks a fixed stride-61
//! lattice over the former proptest domain (deterministic, same order of
//! case count as the random suite).

use dbpim_csd::{binary_nonzero_bits, BlockPattern, CsdWord, OperandWidth};

/// Encoding then decoding any i8 value is the identity.
#[test]
fn i8_round_trip() {
    for v in i8::MIN..=i8::MAX {
        let w = CsdWord::encode(i32::from(v), OperandWidth::Int8).unwrap();
        assert_eq!(w.to_i32(), i32::from(v));
        assert_eq!(w.width(), OperandWidth::Int8.digits());
    }
}

/// Any i32 that fits in the requested width round-trips.
#[test]
fn i32_round_trip() {
    for v in (-100_000i32..100_000).step_by(61) {
        for extra in 0usize..8 {
            let width = 20 + extra;
            let w = CsdWord::from_i32(v, width).unwrap();
            assert_eq!(w.to_i32(), v, "value {v} at width {width}");
        }
    }
}

/// The canonical property holds for arbitrary values: no adjacent non-zero
/// digits.
#[test]
fn non_adjacent_form() {
    for v in i16::MIN..=i16::MAX {
        let w = CsdWord::from_i32(i32::from(v), 18).unwrap();
        for pair in w.digits().windows(2) {
            assert!(
                !(pair[0].is_nonzero() && pair[1].is_nonzero()),
                "adjacent non-zero digits for {v}"
            );
        }
    }
}

/// CSD never uses more non-zero digits than the plain binary form of the
/// magnitude (minimality; the "33 % fewer non-zero bits on average" claim is
/// a consequence).
#[test]
fn csd_is_minimal_vs_binary_magnitude() {
    for v in 0i32..=127 {
        let w = CsdWord::from_i32(v, 8).unwrap();
        assert!(w.nonzero_digits() <= binary_nonzero_bits(v, 8), "value {v}");
    }
}

/// The dyadic block decomposition always reconstructs the original value and
/// its Comp.-block count equals the word's non-zero digit count.
#[test]
fn dyadic_blocks_reconstruct() {
    for v in i8::MIN..=i8::MAX {
        let w = CsdWord::encode(i32::from(v), OperandWidth::Int8).unwrap();
        let blocks = w.dyadic_blocks();
        assert_eq!(blocks.value(), i32::from(v));
        assert_eq!(blocks.comp_count() as u32, w.nonzero_digits());
        assert_eq!(blocks.len(), 4);
    }
}

/// Every Comp. Pattern block stores a complementary (Q, Q̄) pair.
#[test]
fn comp_blocks_store_complementary_state() {
    for v in i8::MIN..=i8::MAX {
        let w = CsdWord::encode(i32::from(v), OperandWidth::Int8).unwrap();
        for block in w.dyadic_blocks().comp_blocks() {
            let (q, qbar) = block.cell_state().unwrap();
            assert_ne!(q, qbar, "value {v}");
            assert!(matches!(block.pattern(), BlockPattern::Comp { .. }));
        }
    }
}

/// Negation flips the decoded value and keeps the digit count.
#[test]
fn negation_mirrors_value() {
    for v in -127i8..=127 {
        let w = CsdWord::encode(i32::from(v), OperandWidth::Int8).unwrap();
        let n = w.negated();
        assert_eq!(n.to_i32(), -i32::from(v));
        assert_eq!(n.nonzero_digits(), w.nonzero_digits());
    }
}

/// φ of an INT8 value never exceeds 4 (one non-zero digit per dyadic block at
/// most).
#[test]
fn phi_at_most_four() {
    for v in i8::MIN..=i8::MAX {
        assert!(CsdWord::encode(i32::from(v), OperandWidth::Int8).unwrap().nonzero_digits() <= 4);
    }
}
