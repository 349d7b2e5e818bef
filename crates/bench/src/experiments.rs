//! The experiment generators: one function per table / figure of the paper.
//!
//! Every function renders the formatted report as a `String`; the binaries in
//! `src/bin/` print it. Each report states which quantity corresponds to
//! which published number so that `EXPERIMENTS.md` can record paper-vs-
//! measured pairs directly from the output.
//!
//! All generators draw from one [`ExperimentContext`]: models are built
//! once, pipeline artifacts are prepared once, and the Fig. 7 / Table 2 /
//! Table 3 sweeps share compiled programs through the context's
//! [`BatchRunner`](db_pim::BatchRunner) instead of re-running the pipeline
//! per table.

use std::fmt::Write as _;

use db_pim::prelude::*;
use db_pim::PipelineError;

use crate::reference;
use crate::{input_column_sparsity, paper_models, pct, weight_sparsity_stats, ExperimentContext};

/// Fig. 2(a): zero-bit ratio of the weights of the five models, under plain
/// binary, CSD recoding and the FTA approximation.
///
/// # Errors
///
/// Propagates model-construction or approximation failures.
pub fn fig2a(context: &ExperimentContext) -> Result<String, PipelineError> {
    let options = context.options();
    let mut out = String::new();
    let _ = writeln!(out, "Fig. 2(a) - zero-bit ratio in weights (width x{})", options.width_mult);
    let _ = writeln!(out, "{:<16} {:>10} {:>10} {:>10}", "model", "Ori_Zero", "CSD_Zero", "Ours");
    for kind in paper_models() {
        let model = context.session().model(kind)?;
        let stats = weight_sparsity_stats(&model)?;
        let _ = writeln!(
            out,
            "{:<16} {:>10} {:>10} {:>10}",
            kind.name(),
            pct(stats.binary_zero_ratio()),
            pct(stats.csd_zero_ratio()),
            pct(stats.fta_zero_ratio())
        );
    }
    let _ = writeln!(out, "paper: 65-85% zero bits, CSD adds ~5%, FTA adds ~5% more.");
    Ok(out)
}

/// Fig. 2(b): ratio of block-wise all-zero bit columns in the input features
/// for group sizes 1, 8 and 16.
///
/// # Errors
///
/// Propagates quantization or inference failures.
pub fn fig2b(context: &ExperimentContext) -> Result<String, PipelineError> {
    let options = context.options();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 2(b) - zero bit-columns in input features (width x{})",
        options.width_mult
    );
    let _ = writeln!(out, "{:<16} {:>10} {:>10} {:>10}", "model", "group 1", "group 8", "group 16");
    for kind in paper_models() {
        let model = context.session().model(kind)?;
        let [g1, g8, g16] = input_column_sparsity(&model, options)?;
        let _ =
            writeln!(out, "{:<16} {:>10} {:>10} {:>10}", kind.name(), pct(g1), pct(g8), pct(g16));
    }
    let _ = writeln!(out, "paper: up to ~80% for groups of 8 and ~70% for groups of 16.");
    Ok(out)
}

/// Table 1: qualitative sparsity-support comparison.
#[must_use]
pub fn table1() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 1 - sparsity exploitation comparison among SRAM-PIMs");
    let _ = writeln!(
        out,
        "{:<22} {:>6} {:>8} {:>8} {:>14} {:<28}",
        "design", "type", "operand", "circuit", "structure", "ineffectual MACs removed"
    );
    for row in reference::table1_rows() {
        let _ = writeln!(
            out,
            "{:<22} {:>6} {:>8} {:>8} {:>14} {:<28}",
            row.label, row.sparsity_type, row.operand, row.circuit, row.structure, row.removed
        );
    }
    out
}

/// Table 2: accuracy of the INT8 baseline vs the FTA model.
///
/// The reproduction replaces CIFAR-100 accuracy with top-1 agreement /
/// synthetic-label accuracy (see `DESIGN.md`); the paper's published drops
/// are printed alongside for reference.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn table2(context: &ExperimentContext) -> Result<String, PipelineError> {
    let options = context.options();
    let paper_drop = [0.98, 0.64, 0.56, 0.16, 0.52];
    let sweep = context.zoo_sweep(true)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 2 - FTA fidelity on synthetic batches (width x{}, {} images)",
        options.width_mult, options.evaluation_images
    );
    let _ = writeln!(
        out,
        "{:<16} {:>12} {:>14} {:>14} {:>12} {:>12}",
        "model", "agreement", "disagreement", "logit SQNR", "label drop", "paper drop"
    );
    for (kind, paper) in paper_models().into_iter().zip(paper_drop) {
        let result = sweep.result(kind).expect("zoo sweep covers every paper model");
        let fidelity = result.fidelity.as_ref().ok_or_else(|| PipelineError::BadConfig {
            reason: if options.operand_width == OperandWidth::Int8 {
                "Table 2 needs at least one evaluation image (pass --images 1 or more)".to_string()
            } else {
                format!(
                    "Table 2 (fidelity) is INT8-only; remove `--operand-width {}`",
                    options.operand_width
                )
            },
        })?;
        let _ = writeln!(
            out,
            "{:<16} {:>12} {:>14} {:>11.1} dB {:>12} {:>11.2}%",
            kind.name(),
            pct(fidelity.top1_agreement),
            pct(1.0 - fidelity.top1_agreement),
            fidelity.mean_logit_sqnr_db,
            pct(fidelity.accuracy_drop()),
            paper
        );
    }
    let _ = writeln!(
        out,
        "paper: CIFAR-100 top-1 accuracy drop below 1% on every model.\n\
         note: with synthetic (untrained) weights, labels carry no signal, so the\n\
         Table-2 substitute is baseline-vs-FTA top-1 agreement and logit SQNR;\n\
         disagreement is an upper bound on the accuracy drop the approximation\n\
         could cause (untrained compact models have nearly flat logits, which\n\
         makes their argmax fragile and overstates the bound)."
    );
    Ok(out)
}

/// Fig. 7: speedup and energy saving of the four sparsity configurations
/// over the dense digital-PIM baseline, per model.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn fig7(context: &ExperimentContext) -> Result<String, PipelineError> {
    let options = context.options();
    let sweep = context.zoo_sweep(false)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 7 - speedup and energy saving over the dense PIM baseline (width x{})",
        options.width_mult
    );
    let _ = writeln!(
        out,
        "{:<16} {:>8} {:>8} {:>8} {:>10} | {:>9} {:>9} {:>11}",
        "model", "input x", "weight x", "hybrid x", "saving", "paper wx", "paper hx", "paper save"
    );
    let paper = reference::paper_fig7_rows();
    for (kind, paper_row) in paper_models().into_iter().zip(paper) {
        let result = sweep.result(kind).expect("zoo sweep covers every paper model");
        let _ = writeln!(
            out,
            "{:<16} {:>7.2}x {:>7.2}x {:>7.2}x {:>10} | {:>8.2}x {:>8.2}x {:>11}",
            kind.name(),
            result.speedup(SparsityConfig::InputSparsity),
            result.speedup(SparsityConfig::WeightSparsity),
            result.speedup(SparsityConfig::HybridSparsity),
            pct(result.energy_saving(SparsityConfig::HybridSparsity)),
            paper_row.weight_speedup,
            paper_row.hybrid_speedup,
            pct(paper_row.energy_saving)
        );
    }
    let _ =
        writeln!(out, "paper: hybrid speedup up to 7.69x (AlexNet), energy saving 63.49-83.43%.");
    Ok(out)
}

/// Table 3: comparison with prior works (prior columns are the published
/// numbers; the "This Work" column is produced by this reproduction).
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn table3(context: &ExperimentContext) -> Result<String, PipelineError> {
    let options = context.options();
    let arch = context.arch();
    let area = AreaModel::calibrated_28nm();
    let headline = reference::paper_headline();

    // Per-model utilization (weights only) and hybrid-run efficiency/power,
    // from the shared zoo sweep (artifacts reused from Fig. 7 / Table 2 when
    // rendered in the same process).
    let sweep = context.zoo_sweep(false)?;
    let mut utilization_rows = Vec::new();
    let mut min_eff = f64::INFINITY;
    let mut max_eff = 0.0f64;
    let mut min_power = f64::INFINITY;
    let mut max_power = 0.0f64;
    for kind in paper_models() {
        let result = sweep.result(kind).expect("zoo sweep covers every paper model");
        let hybrid = result.run(SparsityConfig::HybridSparsity).expect("hybrid simulated");
        let eff = hybrid.energy_efficiency_tops_per_w();
        let power = hybrid.average_power_mw();
        min_eff = min_eff.min(eff);
        max_eff = max_eff.max(eff);
        min_power = min_power.min(power);
        max_power = max_power.max(power);
        utilization_rows.push((kind.name(), result.utilization()));
    }

    let mut out = String::new();
    let _ = writeln!(out, "Table 3 - comparison with prior SRAM-PIM accelerators");
    let _ = writeln!(out, "-- prior works (published numbers) --");
    for work in reference::table3_prior_works() {
        let _ = writeln!(
            out,
            "{:<18} {:>3}nm {:>7.2}mm2 {:>9}MHz {:>15}mW {:>5}KB SRAM {:>5}KB PIM {:>4} macros {:>7.2} TOPS {:>7.2} GOPS/macro {:>13} TOPS/W {:>6.2} TOPS/W/mm2",
            work.label,
            work.technology_nm,
            work.die_area_mm2,
            work.frequency_mhz,
            work.power_mw,
            work.sram_kb,
            work.pim_kb,
            work.macros,
            work.peak_tops,
            work.peak_gops_per_macro,
            work.energy_efficiency,
            work.peak_ee_per_mm2
        );
    }

    let die = area.total_mm2(&arch);
    let peak = peak_throughput_tops(&arch, PEAK_INPUT_SKIP);
    let per_macro = peak_throughput_per_macro_gops(&arch, PEAK_INPUT_SKIP);
    let _ = writeln!(
        out,
        "\n-- this work (measured by this reproduction, width x{}) --",
        options.width_mult
    );
    let _ = writeln!(out, "technology              : 28 nm (cost-model calibration)");
    let _ = writeln!(
        out,
        "die area                : {die:.3} mm2 (paper {:.3})",
        headline.die_area_mm2
    );
    let _ = writeln!(out, "frequency               : {} MHz", arch.frequency_mhz);
    let _ = writeln!(
        out,
        "power                   : {min_power:.2} - {max_power:.2} mW (paper 1.45 - 11.65)"
    );
    let _ = writeln!(out, "SRAM size               : {} KB", arch.sram_bytes() / 1024);
    let _ = writeln!(
        out,
        "PIM size                : {} KB across {} macros",
        arch.pim_bytes() / 1024,
        arch.macros
    );
    let _ = writeln!(out, "dataset                 : synthetic CIFAR-100-shaped batches");
    let _ =
        writeln!(out, "peak throughput         : {peak:.3} TOPS (paper {:.2})", headline.peak_tops);
    let _ = writeln!(
        out,
        "peak throughput / macro : {per_macro:.1} GOPS (paper {:.1})",
        headline.peak_gops_per_macro
    );
    let _ = writeln!(
        out,
        "energy efficiency       : {min_eff:.2} - {max_eff:.2} TOPS/W (paper 18.14 - 45.20)"
    );
    let _ =
        writeln!(out, "peak EE per unit area   : {:.2} TOPS/W/mm2 (paper 39.30)", max_eff / die);
    let _ = writeln!(out, "actual utilization U_act (paper 91.95% - 98.42%):");
    for (name, utilization) in utilization_rows {
        let _ = writeln!(out, "  {name:<16} {}", pct(utilization));
    }
    Ok(out)
}

/// Width sweep: per-model DB-PIM quality across operand widths
/// (INT4/INT8/INT12/INT16) — the precision axis the ROADMAP's "CSD-width
/// scenarios" item asked for.
///
/// For every paper model and every supported width, the sweep reports the
/// actual utilization `U_act`, the FTA zero-digit ratio, and the weight /
/// hybrid speedups plus hybrid energy saving over the dense baseline *at
/// the same width* (wider dense mappings fit fewer filters per macro, so
/// the baseline slows down with width while the DB-PIM cost tracks `φ_th`).
/// Fidelity is INT8-only and therefore omitted here.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn width_sweep(context: &ExperimentContext) -> Result<String, PipelineError> {
    let options = context.options();
    let spec =
        db_pim::SweepSpec::new(paper_models().to_vec()).with_widths(OperandWidth::all().to_vec());
    let report = context.runner().run(&spec)?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Width sweep - DB-PIM across weight operand widths (channel width x{})",
        options.width_mult
    );
    let _ = writeln!(
        out,
        "{:<16} {:>6} {:>8} {:>9} {:>9} {:>9} {:>9}",
        "model", "width", "U_act", "FTA_zero", "weight x", "hybrid x", "saving"
    );
    for kind in paper_models() {
        for width in OperandWidth::all() {
            let result = report
                .result_at_width(kind, width)
                .expect("width sweep covers every (model, width)");
            let _ = writeln!(
                out,
                "{:<16} {:>6} {:>8} {:>9} {:>8.2}x {:>8.2}x {:>9}",
                kind.name(),
                width.to_string(),
                pct(result.utilization()),
                pct(result.fta_stats.fta_zero_ratio()),
                result.speedup(SparsityConfig::WeightSparsity),
                result.speedup(SparsityConfig::HybridSparsity),
                pct(result.energy_saving(SparsityConfig::HybridSparsity)),
            );
        }
    }
    let _ = writeln!(
        out,
        "note: INT8 is the paper's setting; other widths quantize the float\n\
         weights per output channel at that width. Speedups are relative to\n\
         the dense baseline of the same width."
    );
    Ok(out)
}

/// Joint value-level + bit-level sparsity: how magnitude pruning compounds
/// with the CSD bit sparsity across operand widths.
///
/// For each (width, pruning) variant the report counts the compiled DB-PIM
/// macro work — `Compute` tiles and loaded weight cells — and the hybrid
/// simulation cycles, each with its delta against the unpruned variant of
/// the same width. The dense baseline ignores value sparsity by
/// construction, so its cycles are printed once per width as the anchor.
///
/// # Errors
///
/// Propagates preparation, compilation or simulation failures.
pub fn joint_sparsity(context: &ExperimentContext) -> Result<String, PipelineError> {
    let options = context.options();
    let kind = ModelKind::AlexNet;
    let arch = context.arch();
    let widths = [OperandWidth::Int4, OperandWidth::Int8];
    let prunings = [
        PruningSpec::none(),
        PruningSpec::unstructured(0.3),
        PruningSpec::unstructured(0.5),
        PruningSpec::structured(0.5),
    ];

    let macro_work = |program: &ModelProgram| -> (u64, u64) {
        let mut tiles = 0u64;
        let mut cells = 0u64;
        for layer in &program.layers {
            for inst in &layer.instructions {
                match inst {
                    dbpim_compiler::Instruction::Compute { .. } => tiles += 1,
                    dbpim_compiler::Instruction::LoadWeights {
                        filters,
                        weights_per_filter,
                        cells_per_weight,
                        ..
                    } => {
                        cells += u64::from(*filters)
                            * u64::from(*weights_per_filter)
                            * u64::from(*cells_per_weight);
                    }
                    _ => {}
                }
            }
        }
        (tiles, cells)
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Joint sparsity - value pruning x operand width on {} (width x{})",
        kind.name(),
        options.width_mult
    );
    let _ = writeln!(
        out,
        "{:<6} {:>8} {:>7} {:>7} {:>10} {:>7} {:>12} {:>7} {:>9}",
        "width", "pruning", "tiles", "d_tile", "cells", "d_cell", "hybrid cyc", "d_cyc", "speedup"
    );
    for width in widths {
        let mut baseline: Option<(u64, u64, u64)> = None;
        for pruning in prunings {
            let programs = context.session().artifacts_at(kind, width, pruning)?.programs(arch)?;
            let (tiles, cells) = macro_work(&programs.sparse);
            let entry = context.runner().run_point_pruned(
                kind,
                width,
                pruning,
                None,
                &[SparsityConfig::DenseBaseline, SparsityConfig::HybridSparsity],
                false,
            )?;
            let cycles = entry
                .result
                .run(SparsityConfig::HybridSparsity)
                .expect("hybrid was requested")
                .total_cycles();
            let (base_tiles, base_cells, base_cycles) =
                *baseline.get_or_insert((tiles, cells, cycles));
            let delta = |now: u64, base: u64| {
                if base == 0 {
                    "n/a".to_string()
                } else {
                    format!("{:+.1}%", 100.0 * (now as f64 - base as f64) / base as f64)
                }
            };
            let _ = writeln!(
                out,
                "{:<6} {:>8} {:>7} {:>7} {:>10} {:>7} {:>12} {:>7} {:>8.2}x",
                width.to_string(),
                pruning.label(),
                tiles,
                delta(tiles, base_tiles),
                cells,
                delta(cells, base_cells),
                cycles,
                delta(cycles, base_cycles),
                entry.result.speedup(SparsityConfig::HybridSparsity),
            );
        }
    }
    let _ = writeln!(
        out,
        "note: tiles = DB-PIM Compute instructions, cells = loaded weight\n\
         bit-cells. Deltas are against the unpruned row of the same width;\n\
         the dense baseline maps the nominal shape regardless of pruning, so\n\
         speedups compound value and bit sparsity."
    );
    Ok(out)
}

/// Table 4: DB-PIM area breakdown on the context's geometry.
#[must_use]
pub fn table4(context: &ExperimentContext) -> String {
    let area = AreaModel::calibrated_28nm();
    let arch = context.arch();
    let paper = [
        ("PIM Baseline", 1.00809, 87.32),
        ("Meta-RFs", 0.07829, 6.78),
        ("Extra Post-processing Units", 0.06259, 5.42),
        ("DFFs and Routing Resources", 0.00550, 0.48),
        ("Input Sparsity Support", 0.00007, 0.00),
    ];
    let mut out = String::new();
    let _ = writeln!(out, "Table 4 - DB-PIM area breakdown");
    let _ = writeln!(
        out,
        "{:<32} {:>12} {:>9} {:>12} {:>9}",
        "module", "area (mm2)", "share", "paper mm2", "paper"
    );
    for (component, (paper_name, paper_mm2, paper_pct)) in area.breakdown(&arch).iter().zip(paper) {
        debug_assert_eq!(component.name, paper_name);
        let _ = writeln!(
            out,
            "{:<32} {:>12.5} {:>8.2}% {:>12.5} {:>8.2}%",
            component.name,
            component.mm2,
            100.0 * component.share,
            paper_mm2,
            paper_pct
        );
    }
    let _ = writeln!(
        out,
        "{:<32} {:>12.5} {:>8} {:>12.5}",
        "Total",
        area.total_mm2(&arch),
        "100.00%",
        1.15453
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExperimentOptions;

    fn small_context() -> ExperimentContext {
        let options = ExperimentOptions {
            width_mult: 0.25,
            classes: 10,
            calibration_images: 1,
            evaluation_images: 2,
            seed: 5,
            ..ExperimentOptions::default()
        };
        ExperimentContext::new(options).expect("valid options")
    }

    #[test]
    fn static_tables_render() {
        let t1 = table1();
        assert!(t1.contains("This Work"));
        assert!(t1.contains("Unstructured"));
        let t4 = table4(&small_context());
        assert!(t4.contains("Meta-RFs"));
        assert!(t4.contains("Total"));
    }

    #[test]
    fn fig2a_report_renders_for_small_models() {
        let report = fig2a(&small_context()).unwrap();
        assert!(report.contains("AlexNet"));
        assert!(report.contains("EfficientNetB0"));
        assert!(report.contains('%'));
    }

    #[test]
    fn joint_sparsity_report_shows_shrinking_macro_work() {
        let report = joint_sparsity(&small_context()).unwrap();
        assert!(report.contains("int4"));
        assert!(report.contains("int8"));
        assert!(report.contains("u0.50"));
        assert!(report.contains("s0.50"));
        // Pruned rows carry negative deltas against their width's baseline.
        assert!(report.contains('-'), "no reduction recorded:\n{report}");
    }

    #[test]
    fn fig7_report_renders_for_one_small_run() {
        // Restrict to the smallest model by sweeping it directly.
        let context = small_context();
        let report =
            context.runner().run(&db_pim::SweepSpec::new(vec![ModelKind::MobileNetV2])).unwrap();
        let result = report.result(ModelKind::MobileNetV2).unwrap();
        assert!(result.speedup(SparsityConfig::HybridSparsity) > 1.0);
    }
}
