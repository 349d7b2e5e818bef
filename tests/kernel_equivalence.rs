//! Differential suite: the word-packed bit-plane macro kernels must be
//! bit-identical — outputs *and* every `MacroComputeStats` counter — to the
//! cell-at-a-time `ScalarPimMacro` reference, over randomized filters ×
//! operand widths × sparsity configurations × ragged tail geometries.

use dbpim_arch::{ArchConfig, ArchError, InputPreprocessor, PimMacro, ScalarPimMacro};
use dbpim_csd::OperandWidth;
use dbpim_fta::metadata::FilterMetadata;
use dbpim_fta::{FilterApprox, QueryTables};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Geometries covering the paper layout, a ragged small array whose tiles
/// rarely divide evenly, and a wide array whose compartment masks span more
/// than one `u64` word.
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

/// Input vectors of the given length under different sparsity regimes.
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

/// Asserts both implementations produce the same `TileExecution` (including
/// every stats field) for a sparse tile, via the monolithic entry point and
/// via the load/execute split.
fn assert_sparse_equivalent(
    config: &ArchConfig,
    filters: &[FilterMetadata],
    inputs: &[i8],
    label: &str,
) {
    for ipu in [InputPreprocessor::new(), InputPreprocessor::without_sparsity()] {
        let mut planes = PimMacro::new(*config).unwrap();
        let mut scalar = ScalarPimMacro::new(*config).unwrap();
        let fast = planes.execute_sparse_tile(filters, inputs, &ipu).unwrap();
        let slow = scalar.execute_sparse_tile(filters, inputs, &ipu).unwrap();
        assert_eq!(fast, slow, "monolithic sparse mismatch: {label}");

        let fast_writes = planes.load_sparse_tile(filters).unwrap();
        let slow_writes = scalar.load_sparse_tile(filters).unwrap();
        assert_eq!(fast_writes, slow_writes, "sparse load writes mismatch: {label}");
        assert_eq!(fast_writes, slow.stats.cell_writes, "split vs monolithic writes: {label}");
        let fast_split = planes.execute_loaded(inputs, &ipu).unwrap();
        let slow_split = scalar.execute_loaded(inputs, &ipu).unwrap();
        assert_eq!(fast_split, slow_split, "split sparse mismatch: {label}");
        assert_eq!(fast_split.stats.cell_writes, 0, "split pays no write cost: {label}");
        let mut patched = fast_split.stats;
        patched.cell_writes = slow.stats.cell_writes;
        assert_eq!(patched, slow.stats, "split stats drift from monolithic: {label}");
    }
}

#[test]
fn sparse_tiles_are_bit_identical_across_widths_and_geometries() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5EED);
    for config in geometries() {
        let compartments = config.compartments_per_macro;
        for width in OperandWidth::all() {
            for threshold in [1u32, 2] {
                let capacity = config.filters_per_macro(threshold).unwrap();
                for count in [1usize, capacity.min(3), capacity] {
                    // Ragged tails: lengths straddling the compartment count.
                    for len in [1usize, compartments - 1, compartments, 2 * compartments + 3] {
                        let len = len.max(1).min(config.weights_per_filter_capacity());
                        let filters = sparse_filters(&mut rng, width, threshold, count, len);
                        for inputs in input_cases(&mut rng, len) {
                            let label = format!(
                                "C={compartments} {width} phi={threshold} f={count} len={len}"
                            );
                            assert_sparse_equivalent(&config, &filters, &inputs, &label);
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn full_capacity_paper_tile_is_bit_identical() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xCAFE);
    let config = ArchConfig::paper();
    let len = config.weights_per_filter_capacity(); // 1024: every row used
    let filters = sparse_filters(&mut rng, OperandWidth::Int8, 2, 8, len);
    for inputs in input_cases(&mut rng, len) {
        assert_sparse_equivalent(&config, &filters, &inputs, "paper full tile");
    }
}

#[test]
fn mixed_threshold_and_width_tiles_are_bit_identical() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB17);
    let config = ArchConfig::paper();
    let len = 37usize;
    // Filters disagreeing on threshold share one tile: the column stride is
    // the maximum, the narrow filter's spare slots stay idle.
    let mut filters = sparse_filters(&mut rng, OperandWidth::Int8, 2, 2, len);
    filters.extend(sparse_filters(&mut rng, OperandWidth::Int8, 1, 2, len));
    for inputs in input_cases(&mut rng, len) {
        assert_sparse_equivalent(&config, &filters, &inputs, "mixed thresholds");
    }
    // Filters of different operand widths: the shift-plane count follows the
    // widest filter.
    let mut filters = sparse_filters(&mut rng, OperandWidth::Int4, 2, 2, len);
    filters.extend(sparse_filters(&mut rng, OperandWidth::Int16, 2, 2, len));
    for inputs in input_cases(&mut rng, len) {
        assert_sparse_equivalent(&config, &filters, &inputs, "mixed widths");
    }
}

#[test]
fn value_pruned_tiles_are_bit_identical_and_account_skips() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x9A1);
    let config = ArchConfig::paper();
    let tables = QueryTables::for_width(OperandWidth::Int8);
    let compartments = config.compartments_per_macro;
    // Filters whose trailing two thirds are magnitude-pruned to zero: the
    // tile's last two rows carry no stored bits, so the packed kernel elides
    // their reductions while every charged counter stays identical to the
    // scalar reference.
    let len = 3 * compartments;
    let filters: Vec<FilterMetadata> = (0..4)
        .map(|i| {
            let raw: Vec<i32> = (0..len)
                .map(|j| {
                    if j < compartments {
                        // Surviving weights are kept non-zero so the pruned
                        // cell count below is exact.
                        let v: i32 = rng.gen_range(-128..=127);
                        if v == 0 {
                            1
                        } else {
                            v
                        }
                    } else {
                        0
                    }
                })
                .collect();
            let approx = FilterApprox::approximate_with_threshold(&raw, 2, &tables)
                .expect("INT8 weights approximate at phi=2");
            FilterMetadata::from_filter(i, &approx)
        })
        .collect();
    for inputs in input_cases(&mut rng, len) {
        assert_sparse_equivalent(&config, &filters, &inputs, "value-pruned tile");
    }

    let mut pim = PimMacro::new(config).unwrap();
    pim.load_sparse_tile(&filters).unwrap();
    // 2 pruned rows x `compartments` weights x phi=2 slots per filter.
    assert_eq!(pim.loaded_pruned_cells() as usize, 4 * 2 * compartments * 2);
    assert_eq!(pim.loaded_zero_rows(), 4 * 2);
    pim.reset();
    assert_eq!(pim.loaded_pruned_cells(), 0);
    assert_eq!(pim.loaded_zero_rows(), 0);
}

#[test]
fn empty_tiles_are_bit_identical() {
    let config = ArchConfig::paper();
    // Zero filters, zero-length inputs, and zero filters with inputs.
    assert_sparse_equivalent(&config, &[], &[], "empty tile");
    assert_sparse_equivalent(&config, &[], &[3, -7, 0, 1], "no filters");
    let filters = sparse_filters(&mut ChaCha8Rng::seed_from_u64(1), OperandWidth::Int8, 2, 2, 0);
    assert_sparse_equivalent(&config, &filters, &[], "zero-length filters");
}

#[test]
fn dense_tiles_are_bit_identical_across_widths_and_geometries() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xD0_5E);
    for config in geometries() {
        let compartments = config.compartments_per_macro;
        for width in OperandWidth::all() {
            let Ok(max_filters) = config.dense_filters_per_macro_for(width) else { continue };
            for count in [1usize, max_filters] {
                for len in [1usize, compartments, 2 * compartments + 3] {
                    let len = len.min(config.weights_per_filter_capacity());
                    let filters: Vec<Vec<i32>> = (0..count)
                        .map(|_| {
                            (0..len)
                                .map(|_| rng.gen_range(width.min_value()..=width.max_value()))
                                .collect()
                        })
                        .collect();
                    for inputs in input_cases(&mut rng, len) {
                        for ipu in [InputPreprocessor::new(), InputPreprocessor::without_sparsity()]
                        {
                            let mut planes = PimMacro::new(config).unwrap();
                            let mut scalar = ScalarPimMacro::new(config).unwrap();
                            let fast = planes
                                .execute_dense_tile_for_width(&filters, &inputs, &ipu, width)
                                .unwrap();
                            let slow = scalar
                                .execute_dense_tile_for_width(&filters, &inputs, &ipu, width)
                                .unwrap();
                            assert_eq!(
                                fast, slow,
                                "dense mismatch: C={compartments} {width} f={count} len={len}"
                            );
                            let fast_writes =
                                planes.load_dense_tile_for_width(&filters, width).unwrap();
                            let slow_writes =
                                scalar.load_dense_tile_for_width(&filters, width).unwrap();
                            assert_eq!(fast_writes, slow_writes);
                            assert_eq!(
                                planes.execute_loaded(&inputs, &ipu).unwrap(),
                                scalar.execute_loaded(&inputs, &ipu).unwrap(),
                                "dense split mismatch: C={compartments} {width}"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn error_paths_are_identical() {
    let config = ArchConfig::paper();
    let mut rng = ChaCha8Rng::seed_from_u64(0xE44);
    let meta = sparse_filters(&mut rng, OperandWidth::Int8, 2, 1, 16).remove(0);

    // Too many filters.
    let metas = vec![meta.clone(); 9];
    let mut planes = PimMacro::new(config).unwrap();
    let mut scalar = ScalarPimMacro::new(config).unwrap();
    let ipu = InputPreprocessor::new();
    assert_eq!(
        planes.execute_sparse_tile(&metas, &[1i8; 16], &ipu).unwrap_err(),
        scalar.execute_sparse_tile(&metas, &[1i8; 16], &ipu).unwrap_err(),
    );
    // Length mismatch.
    assert_eq!(
        planes.execute_sparse_tile(std::slice::from_ref(&meta), &[1i8; 3], &ipu).unwrap_err(),
        scalar.execute_sparse_tile(std::slice::from_ref(&meta), &[1i8; 3], &ipu).unwrap_err(),
    );
    // Inputs beyond capacity.
    let long = vec![1i8; config.weights_per_filter_capacity() + 1];
    assert_eq!(
        planes.execute_sparse_tile(std::slice::from_ref(&meta), &long, &ipu).unwrap_err(),
        scalar.execute_sparse_tile(std::slice::from_ref(&meta), &long, &ipu).unwrap_err(),
    );
    // Dense out-of-range weight.
    assert_eq!(
        planes
            .execute_dense_tile_for_width(&[vec![9]], &[1i8], &ipu, OperandWidth::Int4)
            .unwrap_err(),
        scalar
            .execute_dense_tile_for_width(&[vec![9]], &[1i8], &ipu, OperandWidth::Int4)
            .unwrap_err(),
    );
    // Execute before load.
    assert_eq!(
        PimMacro::new(config).unwrap().execute_loaded(&[1i8], &ipu).unwrap_err(),
        ScalarPimMacro::new(config).unwrap().execute_loaded(&[1i8], &ipu).unwrap_err(),
    );
    assert!(matches!(
        PimMacro::new(config).unwrap().execute_loaded(&[1i8], &ipu),
        Err(ArchError::NoTileLoaded)
    ));
    // Mismatched inputs against a loaded tile.
    planes.load_sparse_tile(std::slice::from_ref(&meta)).unwrap();
    scalar.load_sparse_tile(std::slice::from_ref(&meta)).unwrap();
    assert_eq!(
        planes.execute_loaded(&[1i8; 3], &ipu).unwrap_err(),
        scalar.execute_loaded(&[1i8; 3], &ipu).unwrap_err(),
    );
}
