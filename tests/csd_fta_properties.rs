//! Property-based cross-crate invariants: CSD encoding, FTA approximation,
//! metadata extraction and the bit-accurate macro all agree with plain
//! integer arithmetic for arbitrary inputs.
//!
//! The original suite used `proptest`; the offline build environment cannot
//! fetch it, so each property runs over a deterministic ChaCha8-seeded case
//! set (same case counts as before) plus the exhaustive i8 domain where it
//! applies.

use dbpim_arch::{ArchConfig, InputPreprocessor, PimMacro};
use dbpim_csd::{CsdWord, DyadicBlock, OperandWidth};
use dbpim_fta::metadata::FilterMetadata;
use dbpim_fta::{select_threshold, FilterApprox, QueryTables};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const CASES: usize = 96;

/// Deterministic random weight vectors with lengths in `1..max_len`.
fn weight_cases(seed: u64, max_len: usize) -> Vec<Vec<i8>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..CASES)
        .map(|_| {
            let len = rng.gen_range(1..max_len);
            (0..len).map(|_| rng.gen()).collect()
        })
        .collect()
}

/// CSD recoding is lossless and canonical for every INT8 value.
#[test]
fn csd_round_trips_and_is_canonical() {
    for value in i8::MIN..=i8::MAX {
        let word = CsdWord::encode(i32::from(value), OperandWidth::Int8).unwrap();
        assert_eq!(word.to_i32(), i32::from(value));
        assert!(word.nonzero_digits() <= 4);
        for pair in word.digits().windows(2) {
            assert!(!(pair[0].is_nonzero() && pair[1].is_nonzero()), "value {value}");
        }
        // Dyadic blocks reconstruct the value.
        let reconstructed: i32 = word.dyadic_blocks().iter().map(DyadicBlock::value).sum();
        assert_eq!(reconstructed, i32::from(value));
    }
}

/// The FTA approximation never exceeds its threshold and its metadata is
/// lossless.
#[test]
fn fta_respects_threshold_and_metadata_reconstructs() {
    let tables = QueryTables::for_width(OperandWidth::Int8);
    for weights in weight_cases(0xF7A1, 80) {
        let filter = FilterApprox::approximate(&weights, &tables).unwrap();
        let threshold = filter.threshold();
        assert!(threshold <= 2);
        assert_eq!(threshold, select_threshold(&weights));
        for &v in filter.values() {
            assert!(dbpim_csd::phi(v) <= threshold);
        }
        let metadata = FilterMetadata::from_filter(0, &filter);
        for (slots, &approx) in metadata.weights.iter().zip(filter.values()) {
            assert_eq!(slots.reconstruct(), approx);
        }
        assert!(metadata.stored_cells() <= metadata.allocated_cells());
    }
}

/// The approximation error is bounded by the worst-case gap of the query
/// table that was used.
#[test]
fn fta_error_is_bounded() {
    let tables = QueryTables::for_width(OperandWidth::Int8);
    for weights in weight_cases(0xF7A2, 64) {
        let filter = FilterApprox::approximate(&weights, &tables).unwrap();
        let bound = match filter.threshold() {
            0 => 128,
            1 => 63,
            _ => 8,
        };
        for (&w, &a) in weights.iter().zip(filter.values()) {
            assert!((i32::from(w) - a).abs() <= bound);
        }
    }
}

/// The bit-accurate macro reproduces the software dot product of the
/// approximated weights for arbitrary filters and inputs, with and without
/// input-column skipping.
#[test]
fn macro_matches_software_dot_product() {
    let tables = QueryTables::for_width(OperandWidth::Int8);
    for (case, weights) in weight_cases(0xF7A3, 48).into_iter().enumerate() {
        let len = weights.len();
        let seed = (case % 16) as i64;
        let inputs: Vec<i8> =
            (0..len).map(|i| ((i as i64 * 37 + seed * 11) % 256 - 128) as i8).collect();
        let filter = FilterApprox::approximate(&weights, &tables).unwrap();
        let meta = FilterMetadata::from_filter(0, &filter);
        let expected: i64 =
            filter.values().iter().zip(&inputs).map(|(&w, &x)| i64::from(w) * i64::from(x)).sum();

        let mut pim = PimMacro::new(ArchConfig::paper()).unwrap();
        let plain = pim
            .execute_sparse_tile(
                std::slice::from_ref(&meta),
                &inputs,
                &InputPreprocessor::without_sparsity(),
            )
            .unwrap();
        assert_eq!(plain.outputs[0], expected);

        let mut pim = PimMacro::new(ArchConfig::paper()).unwrap();
        let skipping =
            pim.execute_sparse_tile(&[meta], &inputs, &InputPreprocessor::new()).unwrap();
        assert_eq!(skipping.outputs[0], expected);
        assert!(skipping.stats.compute_cycles <= plain.stats.compute_cycles);
    }
}

/// The dense-baseline mapping also reproduces plain INT8 dot products.
#[test]
fn dense_macro_matches_software_dot_product() {
    for (case, weights) in weight_cases(0xF7A4, 48).into_iter().enumerate() {
        let len = weights.len();
        let seed = (case % 8) as i64;
        let inputs: Vec<i8> =
            (0..len).map(|i| ((i as i64 * 53 + seed * 7) % 256 - 128) as i8).collect();
        let expected: i64 =
            weights.iter().zip(&inputs).map(|(&w, &x)| i64::from(w) * i64::from(x)).sum();
        let weights = weights.into_iter().map(i32::from).collect();
        let mut pim = PimMacro::new(ArchConfig::paper()).unwrap();
        let exec = pim
            .execute_dense_tile_for_width(
                &[weights],
                &inputs,
                &InputPreprocessor::without_sparsity(),
                OperandWidth::Int8,
            )
            .unwrap();
        assert_eq!(exec.outputs[0], expected);
    }
}
