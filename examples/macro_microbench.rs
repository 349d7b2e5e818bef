//! Bit-accurate PIM-macro micro-benchmark.
//!
//! ```bash
//! cargo run --release --example macro_microbench
//! ```
//!
//! Loads one tile of FTA-approximated filters into the bit-accurate macro
//! model and executes it in all four sparsity configurations, verifying the
//! results against a software dot product and reporting the cycle, cell-level
//! utilization and zero-column statistics — the microscopic view of where the
//! Fig. 7 gains come from.

use std::error::Error;

use db_pim::prelude::*;
use dbpim_arch::MacroComputeStats;
use dbpim_fta::metadata::FilterMetadata;
use dbpim_fta::FilterApprox;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn dot<T: Into<i64> + Copy>(weights: &[T], inputs: &[i8]) -> i64 {
    weights.iter().zip(inputs).map(|(&w, &x)| w.into() * i64::from(x)).sum()
}

fn describe(label: &str, stats: &MacroComputeStats) {
    println!(
        "{:<28} {:>6} cycles  {:>7} cell-ops  {:>6.1} % effective  {:>4} skipped columns",
        label,
        stats.compute_cycles,
        stats.cell_reads,
        100.0 * stats.dynamic_utilization(),
        stats.skipped_columns
    );
}

fn main() -> Result<(), Box<dyn Error>> {
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    let tables = QueryTables::for_width(OperandWidth::Int8);

    // One tile: 8 filters of 128 weights, post-ReLU style inputs.
    let filter_len = 128usize;
    let filters = 8usize;
    let inputs: Vec<i8> = (0..filter_len).map(|_| rng.gen_range(0i8..=31)).collect();
    let mut raw_filters = Vec::new();
    let mut approx_filters = Vec::new();
    let mut metadata = Vec::new();
    for _ in 0..filters {
        let raw: Vec<i8> = (0..filter_len).map(|_| rng.gen()).collect();
        let approx = FilterApprox::approximate(&raw, &tables)?;
        metadata.push(FilterMetadata::from_filter(0, &approx));
        approx_filters.push(approx);
        raw_filters.push(raw.into_iter().map(i32::from).collect::<Vec<_>>());
    }

    println!("tile: {filters} filters x {filter_len} weights, INT8 inputs in [0, 31]\n");

    // DB-PIM sparse execution, with and without the IPU skipping columns.
    let mut pim = PimMacro::new(ArchConfig::paper())?;
    let weight_only =
        pim.execute_sparse_tile(&metadata, &inputs, &InputPreprocessor::without_sparsity())?;
    let mut pim = PimMacro::new(ArchConfig::paper())?;
    let hybrid = pim.execute_sparse_tile(&metadata, &inputs, &InputPreprocessor::new())?;

    // Dense baseline execution (two filters at a time).
    let mut dense_stats = MacroComputeStats::default();
    let mut dense_outputs = Vec::new();
    for pair in raw_filters.chunks(2) {
        let mut pim = PimMacro::new(ArchConfig::paper())?;
        let no_skip = InputPreprocessor::without_sparsity();
        let exec = pim.execute_dense_tile_for_width(pair, &inputs, &no_skip, OperandWidth::Int8)?;
        dense_outputs.extend(exec.outputs);
        dense_stats.compute_cycles += exec.stats.compute_cycles;
        dense_stats.cell_reads += exec.stats.cell_reads;
        dense_stats.effective_cell_ops += exec.stats.effective_cell_ops;
        dense_stats.skipped_columns += exec.stats.skipped_columns;
    }

    // Verify every output against the software reference.
    for (f, approx) in approx_filters.iter().enumerate() {
        assert_eq!(weight_only.outputs[f], dot(approx.values(), &inputs));
        assert_eq!(hybrid.outputs[f], dot(approx.values(), &inputs));
        assert_eq!(dense_outputs[f], dot(&raw_filters[f], &inputs));
    }
    println!("all macro outputs match the software dot products\n");

    describe("dense baseline", &dense_stats);
    describe("DB-PIM (weight sparsity)", &weight_only.stats);
    describe("DB-PIM (hybrid sparsity)", &hybrid.stats);

    println!(
        "\ncycle reduction vs dense: weight-only {:.2}x, hybrid {:.2}x",
        dense_stats.compute_cycles as f64 / weight_only.stats.compute_cycles as f64,
        dense_stats.compute_cycles as f64 / hybrid.stats.compute_cycles as f64
    );
    Ok(())
}
