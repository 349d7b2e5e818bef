//! The PIM macro's behaviour pinned across versions.
//!
//! Runs the macro over a grid of tiles: three geometries (the paper's, a
//! ragged 5×7×9 array whose tiles rarely divide evenly and an
//! 80-compartment array), every operand width and threshold, four input
//! regimes, mixed-threshold and mixed-width tiles, value-pruned and empty
//! tiles, and dense tiles at one filter and at the maximum filter count.
//! Every tile goes through the one-call entry point and through the
//! load/execute split, under the sparse and the dense IPU front end. Each
//! output is checked against the `i64` dot product of the stored weight
//! values (the FTA values for sparse tiles, the weights for dense ones),
//! and every `TileExecution` — outputs and all seven `MacroComputeStats`
//! counters — and every load's write count is folded into an FNV-1a-64
//! digest, one per family of tiles.
//!
//! The digests were recorded from the word-packed bit-plane engine that
//! once sat beside the cell-level model, and the cell-level model gave the
//! same values, so they pin what the macro computes and counts. A digest
//! that changes means the macro's results or event counts changed: find
//! out why before updating it.

use dbpim_arch::{
    ArchConfig, ArchError, InputPreprocessor, MacroComputeStats, PimMacro, TileExecution,
};
use dbpim_csd::OperandWidth;
use dbpim_fta::metadata::FilterMetadata;
use dbpim_fta::{FilterApprox, QueryTables};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// FNV-1a-64 over little-endian words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn execution(&mut self, exec: &TileExecution) {
        self.word(exec.outputs.len() as u64);
        for &out in &exec.outputs {
            self.word(out as u64);
        }
        let s = exec.stats;
        for counter in [
            s.compute_cycles,
            s.skipped_columns,
            s.cell_reads,
            s.effective_cell_ops,
            s.adder_reductions,
            s.ppu_operations,
            s.cell_writes,
        ] {
            self.word(counter);
        }
    }

    /// Checks one tile's two executions against the expected dot products
    /// and against each other, then folds them and the load's write count.
    fn tile(
        &mut self,
        expected: &[i64],
        one_call: &TileExecution,
        writes: u64,
        split: &TileExecution,
    ) {
        assert_eq!(one_call.outputs, expected, "one-call outputs");
        assert_eq!(split.outputs, expected, "load/execute outputs");
        assert_eq!(writes, one_call.stats.cell_writes, "load writes");
        // The split execution pays no write cost; every other counter
        // matches the one-call execution.
        assert_eq!(split.stats.cell_writes, 0);
        assert_eq!(MacroComputeStats { cell_writes: writes, ..split.stats }, one_call.stats);
        self.execution(one_call);
        self.word(writes);
        self.execution(split);
    }
}

fn dot(weights: impl Iterator<Item = i32>, inputs: &[i8]) -> i64 {
    weights.zip(inputs).map(|(w, &x)| i64::from(w) * i64::from(x)).sum()
}

fn geometries() -> Vec<ArchConfig> {
    let paper = ArchConfig::paper();
    let mut ragged = ArchConfig::paper();
    ragged.compartments_per_macro = 5;
    ragged.dbmus_per_compartment = 7;
    ragged.rows_per_dbmu = 9;
    let mut wide = ArchConfig::paper();
    wide.compartments_per_macro = 80;
    wide.rows_per_dbmu = 8;
    vec![paper, ragged, wide]
}

/// Input vectors of the given length under four sparsity regimes: random,
/// small non-negative, mostly zero and all zero.
fn input_cases(rng: &mut ChaCha8Rng, len: usize) -> Vec<Vec<i8>> {
    vec![
        (0..len).map(|_| rng.gen()).collect(),
        (0..len).map(|_| rng.gen_range(0i8..=7)).collect(),
        (0..len).map(|i| if i % 3 == 0 { rng.gen() } else { 0 }).collect(),
        vec![0i8; len],
    ]
}

fn sparse_filters(
    rng: &mut ChaCha8Rng,
    width: OperandWidth,
    threshold: u32,
    count: usize,
    len: usize,
) -> Vec<FilterMetadata> {
    let tables = QueryTables::for_width(width);
    (0..count)
        .map(|i| {
            let raw: Vec<i32> =
                (0..len).map(|_| rng.gen_range(width.min_value()..=width.max_value())).collect();
            let approx = FilterApprox::approximate_with_threshold(&raw, threshold, &tables)
                .expect("in-range weights approximate");
            FilterMetadata::from_filter(i, &approx)
        })
        .collect()
}

fn dense_filters(
    rng: &mut ChaCha8Rng,
    width: OperandWidth,
    count: usize,
    len: usize,
) -> Vec<Vec<i32>> {
    (0..count)
        .map(|_| (0..len).map(|_| rng.gen_range(width.min_value()..=width.max_value())).collect())
        .collect()
}

/// One sparse tile through both entry points under both IPU front ends.
fn sparse_tile(
    digest: &mut Digest,
    config: &ArchConfig,
    filters: &[FilterMetadata],
    inputs: &[i8],
) {
    let expected: Vec<i64> =
        filters.iter().map(|f| dot(f.weights.iter().map(|w| w.value), inputs)).collect();
    for ipu in [InputPreprocessor::new(), InputPreprocessor::without_sparsity()] {
        let mut pim = PimMacro::new(*config).unwrap();
        let one_call = pim.execute_sparse_tile(filters, inputs, &ipu).unwrap();
        let writes = pim.load_sparse_tile(filters).unwrap();
        let split = pim.execute_loaded(inputs, &ipu).unwrap();
        digest.tile(&expected, &one_call, writes, &split);
    }
}

/// One dense tile through both entry points under both IPU front ends.
fn dense_tile(
    digest: &mut Digest,
    config: &ArchConfig,
    filters: &[Vec<i32>],
    inputs: &[i8],
    width: OperandWidth,
) {
    let expected: Vec<i64> = filters.iter().map(|f| dot(f.iter().copied(), inputs)).collect();
    for ipu in [InputPreprocessor::new(), InputPreprocessor::without_sparsity()] {
        let mut pim = PimMacro::new(*config).unwrap();
        let one_call = pim.execute_dense_tile_for_width(filters, inputs, &ipu, width).unwrap();
        let writes = pim.load_dense_tile_for_width(filters, width).unwrap();
        let split = pim.execute_loaded(inputs, &ipu).unwrap();
        digest.tile(&expected, &one_call, writes, &split);
    }
}

/// Runs one family of tiles into a fresh digest and checks it against the
/// recorded value.
fn assert_digest(recorded: u64, family: impl FnOnce(&mut Digest, &mut ChaCha8Rng)) {
    let mut digest = Digest::new();
    let mut rng = ChaCha8Rng::seed_from_u64(0x5EED);
    family(&mut digest, &mut rng);
    assert_eq!(digest.0, recorded, "macro digest moved to {:#018x}", digest.0);
}

#[test]
fn sparse_tiles_match_the_recorded_digest_across_widths_and_geometries() {
    // Every geometry, width and threshold, with lengths straddling the
    // compartment count.
    assert_digest(0x9ee2_b630_3354_c3d9, |digest, rng| {
        for config in geometries() {
            let compartments = config.compartments_per_macro;
            for width in OperandWidth::all() {
                for threshold in [0u32, 1, 2] {
                    let capacity = config.filters_per_macro(threshold).unwrap();
                    for count in [1usize, capacity.min(3), capacity] {
                        for len in [1usize, compartments - 1, compartments, 2 * compartments + 3] {
                            let len = len.max(1).min(config.weights_per_filter_capacity());
                            let filters = sparse_filters(rng, width, threshold, count, len);
                            for inputs in input_cases(rng, len) {
                                sparse_tile(digest, &config, &filters, &inputs);
                            }
                        }
                    }
                }
            }
        }
    });
}

#[test]
fn full_capacity_paper_tile_matches_the_recorded_digest() {
    // Every row of every filter's columns in use.
    assert_digest(0x0879_908d_da63_1ad1, |digest, rng| {
        let paper = ArchConfig::paper();
        let len = paper.weights_per_filter_capacity();
        let filters = sparse_filters(rng, OperandWidth::Int8, 2, 8, len);
        for inputs in input_cases(rng, len) {
            sparse_tile(digest, &paper, &filters, &inputs);
        }
    });
}

#[test]
fn mixed_threshold_and_width_tiles_match_the_recorded_digest() {
    // Filters disagreeing on threshold share one tile (the column stride is
    // the maximum), and so do filters of different widths.
    assert_digest(0xc553_2934_c77b_41d5, |digest, rng| {
        let paper = ArchConfig::paper();
        let len = 37;
        let mut mixed = sparse_filters(rng, OperandWidth::Int8, 2, 2, len);
        mixed.extend(sparse_filters(rng, OperandWidth::Int8, 1, 2, len));
        for inputs in input_cases(rng, len) {
            sparse_tile(digest, &paper, &mixed, &inputs);
        }
        let mut mixed = sparse_filters(rng, OperandWidth::Int4, 2, 2, len);
        mixed.extend(sparse_filters(rng, OperandWidth::Int16, 2, 2, len));
        for inputs in input_cases(rng, len) {
            sparse_tile(digest, &paper, &mixed, &inputs);
        }
    });
}

#[test]
fn value_pruned_tiles_match_the_recorded_digest() {
    // The trailing two thirds of every filter are exactly zero, so the
    // tile's last two rows store no bits at all.
    assert_digest(0x44f6_cfc2_c2fa_7185, |digest, rng| {
        let paper = ArchConfig::paper();
        let compartments = paper.compartments_per_macro;
        let len = 3 * compartments;
        let tables = QueryTables::for_width(OperandWidth::Int8);
        let pruned: Vec<FilterMetadata> = (0..4)
            .map(|i| {
                let raw: Vec<i32> = (0..len)
                    .map(|j| if j < compartments { rng.gen_range(-128..=127) } else { 0 })
                    .collect();
                let approx = FilterApprox::approximate_with_threshold(&raw, 2, &tables)
                    .expect("INT8 weights approximate at phi=2");
                FilterMetadata::from_filter(i, &approx)
            })
            .collect();
        for inputs in input_cases(rng, len) {
            sparse_tile(digest, &paper, &pruned, &inputs);
        }
    });
}

#[test]
fn empty_tiles_match_the_recorded_digest() {
    // No filters, no inputs, or zero-length filters.
    assert_digest(0x7352_800e_9c7b_4fe5, |digest, rng| {
        let paper = ArchConfig::paper();
        sparse_tile(digest, &paper, &[], &[]);
        sparse_tile(digest, &paper, &[], &[3, -7, 0, 1]);
        let zero_length = sparse_filters(rng, OperandWidth::Int8, 2, 2, 0);
        sparse_tile(digest, &paper, &zero_length, &[]);
    });
}

#[test]
fn dense_tiles_match_the_recorded_digest_across_widths_and_geometries() {
    // Every geometry and width, at one filter and at the maximum filter
    // count.
    assert_digest(0x1606_eed5_f6aa_4129, |digest, rng| {
        for config in geometries() {
            let compartments = config.compartments_per_macro;
            for width in OperandWidth::all() {
                let Ok(max_filters) = config.dense_filters_per_macro_for(width) else { continue };
                for count in [1usize, max_filters] {
                    for len in [1usize, compartments, 2 * compartments + 3] {
                        let len = len.min(config.weights_per_filter_capacity());
                        let filters = dense_filters(rng, width, count, len);
                        for inputs in input_cases(rng, len) {
                            dense_tile(digest, &config, &filters, &inputs, width);
                        }
                    }
                }
            }
        }
    });
}

#[test]
fn error_paths_return_the_expected_errors() {
    let config = ArchConfig::paper();
    let mut rng = ChaCha8Rng::seed_from_u64(0xE44);
    let meta = sparse_filters(&mut rng, OperandWidth::Int8, 2, 1, 16).remove(0);
    let one = std::slice::from_ref(&meta);
    let ipu = InputPreprocessor::new();
    let mut pim = PimMacro::new(config).unwrap();

    // Nine filters where eight fit at φ_th = 2.
    assert_eq!(
        pim.execute_sparse_tile(&vec![meta.clone(); 9], &[1i8; 16], &ipu),
        Err(ArchError::CapacityExceeded { resource: "filters", requested: 9, available: 8 })
    );
    // Fewer inputs than the filter has weights.
    assert_eq!(
        pim.execute_sparse_tile(one, &[1i8; 3], &ipu),
        Err(ArchError::LengthMismatch {
            left: "filter weights",
            left_len: 16,
            right: "inputs",
            right_len: 3,
        })
    );
    // More inputs than a filter's column holds.
    let long = vec![1i8; config.weights_per_filter_capacity() + 1];
    assert_eq!(
        pim.execute_sparse_tile(one, &long, &ipu),
        Err(ArchError::CapacityExceeded {
            resource: "weights per filter",
            requested: 1025,
            available: 1024,
        })
    );
    // A dense weight outside the INT4 range.
    assert_eq!(
        pim.execute_dense_tile_for_width(&[vec![9]], &[1i8], &ipu, OperandWidth::Int4),
        Err(ArchError::OperandOutOfRange { value: 9, bits: 4 })
    );
    // Execute before any load.
    assert_eq!(
        PimMacro::new(config).unwrap().execute_loaded(&[1i8], &ipu),
        Err(ArchError::NoTileLoaded)
    );
    // Inputs that do not match the loaded tile.
    pim.load_sparse_tile(one).unwrap();
    assert_eq!(
        pim.execute_loaded(&[1i8; 3], &ipu),
        Err(ArchError::LengthMismatch {
            left: "loaded tile weights",
            left_len: 16,
            right: "inputs",
            right_len: 3,
        })
    );
}
