//! ResNet-18 co-design walk-through.
//!
//! ```bash
//! cargo run --release --example resnet18_codesign
//! ```
//!
//! Runs the full pipeline on the CIFAR-100 ResNet-18 topology (half width to
//! keep the runtime of the example modest) and prints the per-layer FTA
//! statistics, the measured input sparsity and the four-configuration
//! performance comparison — the same workload the paper's Fig. 7 reports the
//! ResNet-18 bars for.

use std::error::Error;

use db_pim::prelude::*;

fn main() -> Result<(), Box<dyn Error>> {
    let mut config = PipelineConfig::paper();
    config.width_mult = 0.5;
    config.evaluation_images = 4;
    let session = SimSession::new(config)?;

    println!("building ResNet-18 (width 0.5) with synthetic weights...");
    let result = session.codesign(ModelKind::ResNet18, true)?;

    println!("\n== per-layer FTA statistics ==");
    println!(
        "{:<30} {:>8} {:>8} {:>10} {:>10} {:>10}",
        "layer", "filters", "phi-mode", "csd-zero", "fta-zero", "util"
    );
    for layer in result.fta_stats.layers.iter() {
        println!(
            "{:<30} {:>8} {:>8} {:>9.1}% {:>9.1}% {:>9.1}%",
            layer.name,
            layer.filter_count,
            layer.dominant_threshold(),
            100.0 * layer.csd_zero_ratio,
            100.0 * layer.fta_zero_ratio,
            100.0 * layer.utilization
        );
    }
    println!("model utilization U_act = {:.2} %", 100.0 * result.utilization());
    println!("mean input zero-column ratio = {:.1} %", 100.0 * result.input_sparsity.mean_ratio());

    if let Some(fidelity) = &result.fidelity {
        println!(
            "\nfidelity vs INT8 baseline: {:.1} % agreement, accuracy drop {:.2} %",
            100.0 * fidelity.top1_agreement,
            100.0 * fidelity.accuracy_drop()
        );
    }

    println!("\n== Fig. 7 comparison ==");
    let baseline = result.baseline();
    println!(
        "dense baseline: {} cycles, {:.2} uJ",
        baseline.total_cycles(),
        baseline.total_energy_uj()
    );
    for sparsity in [
        SparsityConfig::InputSparsity,
        SparsityConfig::WeightSparsity,
        SparsityConfig::HybridSparsity,
    ] {
        println!(
            "{:<16} speedup {:>5.2}x   energy saving {:>5.1} %",
            sparsity.label(),
            result.speedup(sparsity),
            100.0 * result.energy_saving(sparsity)
        );
    }

    let hybrid = result.run(SparsityConfig::HybridSparsity).expect("hybrid run exists");
    println!(
        "\nhybrid run: {:.3} ms/inference, {:.2} GOPS, {:.2} TOPS/W, {:.2} mW",
        hybrid.latency_ms(),
        hybrid.throughput_gops(),
        hybrid.energy_efficiency_tops_per_w(),
        hybrid.average_power_mw()
    );
    Ok(())
}
