//! Cross-width equivalence suite: the CSD pipeline produces consistent,
//! lossless and bit-identical results at every supported operand width
//! (INT4 / INT8 / INT12 / INT16).
//!
//! Four layers are exercised per width:
//!
//! 1. **CSD round-trip** — exhaustive over the width's whole
//!    two's-complement range: encoding is lossless, canonical
//!    (non-adjacent), and decomposes into exactly `width.blocks()` dyadic
//!    blocks.
//! 2. **FTA fidelity** — Algorithm 1 with the width's query tables respects
//!    its threshold, and the extracted dyadic-block metadata reconstructs
//!    every approximated weight exactly.
//! 3. **Dense vs DB-PIM** — the bit-accurate macro's sparse (dyadic-block)
//!    path and dense (plain binary bit-cell) path agree bit-identically with
//!    each other and with the reference integer dot product.
//! 4. **INT8 goldens** — a width-`Int8` sweep is bit-identical to the
//!    pre-existing `Pipeline` path (no goldens re-recorded).

use db_pim::prelude::*;
use dbpim_csd::CsdError;
use dbpim_fta::metadata::FilterMetadata;
use dbpim_fta::FilterApprox;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Deterministic in-range weight vectors for one width.
fn weight_cases(seed: u64, width: OperandWidth, cases: usize, max_len: usize) -> Vec<Vec<i32>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ u64::from(width.bits()));
    (0..cases)
        .map(|_| {
            let len = rng.gen_range(1..max_len);
            (0..len).map(|_| rng.gen_range(width.min_value()..=width.max_value())).collect()
        })
        .collect()
}

fn reference_dot(weights: &[i32], inputs: &[i8]) -> i64 {
    weights.iter().zip(inputs).map(|(&w, &x)| i64::from(w) * i64::from(x)).sum()
}

// ---------------------------------------------------------------- layer 1

/// Exhaustive CSD round-trip per width: lossless, canonical, block-exact.
#[test]
fn csd_round_trip_is_exhaustive_per_width() {
    for width in OperandWidth::all() {
        for value in width.min_value()..=width.max_value() {
            let word = CsdWord::encode(value, width)
                .unwrap_or_else(|e| panic!("{width} value {value} failed to encode: {e}"));
            assert_eq!(word.width(), width.digits());
            assert_eq!(word.to_i32(), value, "{width} round trip failed for {value}");
            assert!(word.nonzero_digits() <= width.max_phi(), "{width} value {value}");
            for pair in word.digits().windows(2) {
                assert!(
                    !(pair[0].is_nonzero() && pair[1].is_nonzero()),
                    "{width}: adjacent non-zero digits for {value}"
                );
            }
            let blocks = word.dyadic_blocks();
            assert_eq!(blocks.len(), width.blocks(), "{width} value {value}");
            assert_eq!(blocks.value(), value, "{width} value {value}");
            assert_eq!(blocks.comp_count() as u32, word.nonzero_digits(), "{width} value {value}");
        }
        // Both ends just past the range are rejected, never mis-encoded.
        for out_of_range in [width.min_value() - 1, width.max_value() + 1] {
            assert_eq!(
                CsdWord::encode(out_of_range, width),
                Err(CsdError::ValueOutOfRange { value: out_of_range, bits: width.bits() })
            );
        }
    }
}

// ---------------------------------------------------------------- layer 2

/// Query tables per width: members respect the threshold and nearest
/// lookups are truly nearest.
#[test]
fn query_tables_are_consistent_per_width() {
    for width in OperandWidth::all() {
        let tables = QueryTables::for_width(width);
        assert_eq!(tables.width(), width);
        assert_eq!(tables.table(0).unwrap().values(), &[0]);
        for threshold in 0..=2 {
            let table = tables.table(threshold).unwrap();
            for &v in table.values() {
                assert!(width.contains(v));
                assert!(dbpim_csd::phi(v) <= threshold, "{width} T({threshold}) member {v}");
            }
            // Nearest is truly nearest on a deterministic probe grid
            // covering the whole range plus the exact boundaries.
            let span = i64::from(width.max_value()) - i64::from(width.min_value());
            let probes = (0..=64)
                .map(|i| (i64::from(width.min_value()) + span * i / 64) as i32)
                .chain([width.min_value(), -1, 0, 1, width.max_value()]);
            for probe in probes {
                let n = table.nearest(probe);
                let err = (i64::from(probe) - i64::from(n)).abs();
                for &candidate in table.values() {
                    assert!(
                        (i64::from(probe) - i64::from(candidate)).abs() >= err,
                        "{width} T({threshold}): {candidate} closer to {probe} than {n}"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------- layer 3

/// FTA approximation + metadata extraction is lossless at every width and
/// the metadata layout follows the width's bit budget.
#[test]
fn fta_fidelity_is_preserved_per_width() {
    for width in OperandWidth::all() {
        let tables = QueryTables::for_width(width);
        for weights in weight_cases(0x51D7, width, 24, 64) {
            let filter = FilterApprox::approximate(&weights, &tables).unwrap();
            assert_eq!(filter.width(), width);
            assert!(filter.threshold() <= 2);
            let table = tables.table(filter.threshold()).unwrap();
            for &v in filter.values() {
                assert!(table.contains(v), "{width}: {v} not in T({})", filter.threshold());
            }

            let metadata = FilterMetadata::from_filter(0, &filter);
            assert_eq!(metadata.width, width);
            for (slots, &approx) in metadata.weights.iter().zip(filter.values()) {
                assert_eq!(slots.reconstruct(), approx, "{width}: lossy metadata");
                for block in slots.slots.iter().flatten() {
                    assert!((block.db_index as usize) < width.blocks(), "{width}");
                }
            }
            assert_eq!(
                metadata.metadata_bits(),
                width.metadata_bits_per_cell() as usize * metadata.allocated_cells()
            );
            assert!(metadata.stored_cells() <= metadata.allocated_cells());
        }
    }
}

// ---------------------------------------------------------------- layer 4

/// The DB-PIM sparse path and the dense path produce bit-identical dot
/// products (equal to the integer reference) at every width, with and
/// without input-column skipping.
#[test]
fn dense_and_sparse_paths_agree_bit_identically_per_width() {
    let arch = ArchConfig::paper();
    for width in OperandWidth::all() {
        let tables = QueryTables::for_width(width);
        let dense_capacity = arch.dense_filters_per_macro_for(width).unwrap();
        for (case, weights) in weight_cases(0xD07, width, 12, 48).into_iter().enumerate() {
            let len = weights.len();
            let mut rng = ChaCha8Rng::seed_from_u64(0x1417 + case as u64);
            let inputs: Vec<i8> = (0..len).map(|_| rng.gen()).collect();
            let filter = FilterApprox::approximate(&weights, &tables).unwrap();
            let approximated = filter.values().to_vec();
            let expected = reference_dot(&approximated, &inputs);
            let meta = FilterMetadata::from_filter(0, &filter);

            for ipu in [InputPreprocessor::without_sparsity(), InputPreprocessor::new()] {
                // DB-PIM sparse path on the dyadic-block metadata.
                let mut pim = PimMacro::new(arch).unwrap();
                let sparse =
                    pim.execute_sparse_tile(std::slice::from_ref(&meta), &inputs, &ipu).unwrap();
                assert_eq!(
                    sparse.outputs[0], expected,
                    "{width} case {case}: sparse path diverges from the reference"
                );

                // Dense path on the same (approximated) weights: the two
                // hardware mappings must agree bit-for-bit.
                let filters: Vec<Vec<i32>> = vec![approximated.clone(); dense_capacity];
                let mut pim = PimMacro::new(arch).unwrap();
                let dense =
                    pim.execute_dense_tile_for_width(&filters, &inputs, &ipu, width).unwrap();
                for &out in &dense.outputs {
                    assert_eq!(
                        out, expected,
                        "{width} case {case}: dense path diverges from the reference"
                    );
                }
                assert_eq!(sparse.outputs[0], dense.outputs[0]);
            }
        }
    }
}

// ---------------------------------------------------------------- layer 5

/// Compiled programs carry the width: dense mappings use one bit-cell per
/// weight bit, metadata streams follow the width's per-cell bit budget, and
/// the nominal work is width-invariant.
#[test]
fn compiled_programs_follow_the_width_geometry() {
    let model = zoo::tiny_cnn(10, 3).expect("model builds");
    let profile = InputSparsityProfile::new();
    let mut nominal_macs = Vec::new();
    for width in OperandWidth::all() {
        let approx = ModelApprox::from_model_wide(&model, width).expect("approximates");
        let workloads = extract_workloads(&model, Some(&approx), &profile).expect("extracts");
        let compiler = Compiler::with_width(ArchConfig::paper(), width).expect("compiles");
        let dense = compiler.compile(&workloads, MappingMode::Dense).expect("dense compiles");
        let sparse = compiler.compile(&workloads, MappingMode::DbPim).expect("sparse compiles");
        assert_eq!(dense.operand_bits, width.bits());
        assert_eq!(sparse.operand_bits, width.bits());
        assert_eq!(dense.nominal_macs(), sparse.nominal_macs());
        nominal_macs.push(dense.nominal_macs());

        for layer in &dense.layers {
            for inst in &layer.instructions {
                if let dbpim_compiler::Instruction::LoadWeights { cells_per_weight, .. } = inst {
                    assert_eq!(u32::from(*cells_per_weight), width.bits(), "{width}");
                }
            }
        }
        // The simulator accepts the program and reports more dense compute
        // energy at wider operands (more active cells per weight).
        let sim = Simulator::new(SimConfig::dense_baseline()).expect("simulator");
        let report = sim.simulate(&dense).expect("simulates");
        assert!(report.total_cycles() > 0);
    }
    // The functional work does not depend on the operand width.
    assert!(nominal_macs.windows(2).all(|w| w[0] == w[1]), "{nominal_macs:?}");
}

// ---------------------------------------------------------------- layer 6

/// The INT8 results of the width-parameterized session layer are
/// byte-identical to the pre-existing `Pipeline` path (the INT8 goldens are
/// preserved, not re-recorded), and a width sweep produces one entry per
/// requested width with fidelity only on INT8.
#[test]
fn int8_sweep_results_remain_byte_identical_to_the_pipeline() {
    let mut config = PipelineConfig::fast();
    config.width_mult = 0.25;
    config.calibration_images = 1;
    config.evaluation_images = 2;
    assert_eq!(config.operand_width, OperandWidth::Int8);

    // Golden: the historical single-model pipeline result.
    let pipeline = Pipeline::new(config).expect("valid config");
    let golden = pipeline.run_kind(ModelKind::AlexNet).expect("pipeline runs");

    // A sweep with an explicit INT8 width axis must reproduce it exactly.
    let runner = BatchRunner::new(config).expect("valid config");
    let spec = SweepSpec::new(vec![ModelKind::AlexNet]).with_widths(vec![OperandWidth::Int8]);
    let report = runner.run_with_fidelity(&spec, true).expect("sweep runs");
    assert_eq!(report.entries.len(), 1);
    assert_eq!(report.entries[0].width, OperandWidth::Int8);
    assert_eq!(
        report.entries[0].result, golden,
        "INT8 sweep result diverges from the historical pipeline"
    );

    // The full width axis: one entry per width, fidelity only at INT8, and
    // the INT8 entry still byte-identical to the golden.
    let spec = SweepSpec::new(vec![ModelKind::AlexNet])
        .with_sparsity(vec![SparsityConfig::DenseBaseline, SparsityConfig::HybridSparsity])
        .with_widths(OperandWidth::all().to_vec());
    let report = runner.run_with_fidelity(&spec, true).expect("width sweep runs");
    assert_eq!(report.entries.len(), 4);
    assert_eq!(report.prepared_models, 4);
    assert_eq!(report.simulated_runs, 8);
    for (entry, width) in report.entries.iter().zip(OperandWidth::all()) {
        assert_eq!(entry.kind, ModelKind::AlexNet);
        assert_eq!(entry.width, width);
        assert_eq!(entry.result.runs.len(), 2);
        if width == OperandWidth::Int8 {
            assert!(entry.result.fidelity.is_some(), "INT8 keeps fidelity");
        } else {
            assert!(entry.result.fidelity.is_none(), "{width} has no INT8 fidelity");
        }
        let hybrid = entry.result.speedup(SparsityConfig::HybridSparsity);
        assert!(hybrid > 1.0, "{width}: hybrid speedup {hybrid}");
        let u = entry.result.utilization();
        assert!(u > 0.0 && u <= 1.0, "{width}: utilization {u}");
    }
    let int8_entry =
        report.result_at_width(ModelKind::AlexNet, OperandWidth::Int8).expect("INT8 swept");
    assert_eq!(int8_entry.fta_stats, golden.fta_stats);
    for sparsity in [SparsityConfig::DenseBaseline, SparsityConfig::HybridSparsity] {
        assert_eq!(
            int8_entry.run(sparsity),
            golden.run(sparsity),
            "INT8 {sparsity:?} run diverges from the historical pipeline"
        );
    }
}
