//! Sparsity explorer: how much bit-level sparsity do the paper's models have,
//! and what does the FTA algorithm do to it?
//!
//! ```bash
//! cargo run --release --example sparsity_explorer [model]
//! ```
//!
//! `model` is one of `alexnet`, `vgg19`, `resnet18`, `mobilenetv2`,
//! `efficientnetb0` (default `mobilenetv2`; case, `-` and `_` are ignored);
//! any other name exits with status 2. The example reports the
//! Fig. 2(a) style zero-bit ratios, the per-filter threshold distribution, a
//! forced-threshold ablation that shows the accuracy/sparsity trade-off
//! Algorithm 1 navigates, and the four Fig. 7 configurations simulated as
//! one [`BatchRunner`] point.

use std::error::Error;
use std::time::Instant;

use db_pim::prelude::*;
use dbpim_fta::{FilterApprox, LayerApprox};

fn main() -> Result<(), Box<dyn Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "mobilenetv2".to_string());
    let kind: ModelKind = match name.parse() {
        Ok(kind) => kind,
        Err(error) => {
            eprintln!("sparsity_explorer: {error}");
            std::process::exit(2);
        }
    };
    println!("model: {kind} (width 0.5, synthetic weights)");

    // One session backs the exploration: the model is prepared once, and
    // its statistics below and the sweep at the end share it. A prepared
    // model keeps no FTA weights, so the ablation reads the front end's.
    let mut config = PipelineConfig::paper();
    config.seed = 7;
    config.width_mult = 0.5;
    let runner = BatchRunner::new(config.without_fidelity())?;
    let artifacts = runner.session().artifacts(kind)?;
    let (front, _) = ModelArtifacts::front_end(runner.session().config(), artifacts.model())?;
    let approx = &front.approx;
    let stats = artifacts.fta_stats();

    println!("\n== Fig. 2(a): zero-bit ratio of the weights ==");
    println!("plain binary (Ori_Zero): {:.1} %", 100.0 * stats.binary_zero_ratio());
    println!("CSD recoded  (CSD_Zero): {:.1} %", 100.0 * stats.csd_zero_ratio());
    println!("FTA (Ours)             : {:.1} %", 100.0 * stats.fta_zero_ratio());
    println!("actual utilization     : {:.2} %", 100.0 * stats.utilization());
    println!("mean |error| per weight: {:.3} LSB", stats.mean_abs_error());

    println!("\n== per-filter threshold distribution ==");
    let mut histogram = [0usize; 3];
    for layer in &stats.layers {
        for (phi, count) in layer.threshold_histogram.iter().enumerate() {
            histogram[phi] += count;
        }
    }
    let total: usize = histogram.iter().sum();
    for (phi, count) in histogram.iter().enumerate() {
        println!(
            "phi_th = {phi}: {count:>6} filters ({:.1} %)",
            100.0 * *count as f64 / total.max(1) as f64
        );
    }

    println!("\n== forced-threshold ablation on the widest convolution ==");
    let widest = approx
        .layers()
        .iter()
        .max_by_key(|l| l.filter_count() * l.filter_len())
        .expect("the model has PIM layers");
    ablation(widest)?;

    println!("\n== Fig. 7 sweep (batch runner, artifacts reused) ==");
    let start = Instant::now();
    let entry =
        runner.run_point(kind, config.operand_width, None, &SparsityConfig::all(), false)?;
    let wall_time = start.elapsed();
    let result = &entry.result;
    for sparsity in SparsityConfig::all() {
        let run = result.run(sparsity).expect("all four configurations simulated");
        println!(
            "{:<16} {:>10} cycles  speedup {:>5.2}x  energy saving {:>5.1} %",
            sparsity.label(),
            run.total_cycles(),
            result.speedup(sparsity),
            100.0 * result.energy_saving(sparsity)
        );
    }
    println!(
        "sweep: 1 model(s), {} simulation run(s) in {:.1} ms",
        result.runs.len(),
        wall_time.as_secs_f64() * 1e3
    );
    Ok(())
}

/// Re-approximates one layer with every forced threshold and reports the
/// sparsity / error trade-off Algorithm 1 balances automatically.
fn ablation(layer: &LayerApprox) -> Result<(), Box<dyn Error>> {
    let tables = QueryTables::for_width(OperandWidth::Int8);
    println!(
        "layer {} ({} filters x {} weights)",
        layer.name(),
        layer.filter_count(),
        layer.filter_len()
    );
    for forced in 0..=2u32 {
        let mut stored = 0usize;
        let mut error_sum = 0.0f64;
        let mut weights = 0usize;
        for f in 0..layer.filter_count() {
            let original =
                &layer.original_values()[f * layer.filter_len()..(f + 1) * layer.filter_len()];
            let approx = FilterApprox::approximate_with_threshold(original, forced, &tables)?;
            stored += approx.stored_blocks();
            error_sum += approx.mean_abs_error(original) * original.len() as f64;
            weights += original.len();
        }
        println!(
            "forced phi_th = {forced}: {:>7} stored blocks, zero ratio {:.1} %, mean |error| {:.3} LSB",
            stored,
            100.0 * (1.0 - stored as f64 / (weights * 8) as f64),
            error_sum / weights as f64
        );
    }
    println!("(Algorithm 1 picks the threshold per filter from the mode of its digit counts.)");
    Ok(())
}
