//! `cold_int8` and `cold_int4_pruned`: one caller prepares zoo models from
//! scratch, each op a fresh `Pipeline::run_kind`, every model equally often
//! in seeded order.
//!
//! Cold preparation is the only expensive thing the system does; nn,
//! tensor, csd/fta and metadata extraction do nearly all of it. The two
//! workloads run the same layers through different code paths (INT8 vs the
//! width-generic INT4 path with value pruning), so a change that speeds one
//! at the other's cost shows.

use std::collections::BTreeMap;
use std::time::Instant;

use db_pim::prelude::{
    measure_input_sparsity, ArchConfig, BatchRunner, CodesignResult, Compiler,
    InputSparsityProfile, MappingMode, Model, ModelApprox, ModelKind, ModelProgram, OperandWidth,
    Pipeline, PipelineConfig, QuantizedModel, RunReport, SimConfig, Simulator, SparsityConfig,
    TensorGenerator,
};
use dbpim_compiler::{
    extract_workloads, extract_workloads_with_value_sparsity, CompileError, ModelWorkloads,
};
use dbpim_fta::stats::ModelFtaStats;
use dbpim_nn::ModelSummary;

use crate::serve::reference_entries;
use crate::spans::Recorder;
use crate::{
    err, layer_metric, min_rounds, run_rounds, traced_first, Args, Outcome, Rng, Timed, Traced,
    Workload, SETUP_REPS,
};

/// The layers [`prepare`] records, in call order. `tensor.prune` runs on
/// the pruned workloads only.
pub const PREPARE_LAYERS: [&str; 8] = [
    "nn.build",
    "tensor.prune",
    "tensor.calibration",
    "nn.quantize",
    "fta.approx",
    "fta.stats",
    "core.input_sparsity",
    "compiler.workloads",
];

/// One timed operation: the top-level public entry point, nothing else.
fn real_op(config: PipelineConfig, kind: ModelKind) -> Result<CodesignResult, String> {
    Pipeline::new(config).map_err(err)?.run_kind(kind).map_err(err)
}

/// The model-side artifacts of one model, rebuilt layer by layer.
pub struct Prepared {
    model: Model,
    summary: ModelSummary,
    fta_stats: ModelFtaStats,
    input_sparsity: InputSparsityProfile,
    /// DB-PIM (FTA weights + metadata) workloads.
    pub sparse: ModelWorkloads,
    /// Dense-baseline workloads.
    pub dense: ModelWorkloads,
}

/// Replays `ModelArtifacts::prepare` through each layer's public
/// functions, recording one span per call under `op`.
///
/// # Errors
///
/// Any stage failure, as text.
pub fn prepare(
    rec: &mut Recorder,
    op: usize,
    config: &PipelineConfig,
    kind: ModelKind,
) -> Result<Prepared, String> {
    let model = rec
        .time(op, "nn.build", || {
            kind.build_with_width(config.classes, config.seed, config.width_mult)
        })
        .map_err(err)?;
    let summary = rec.time(op, "nn.build", || model.summary()).map_err(err)?;
    let pruned = config
        .pruning
        .is_active()
        .then(|| rec.time(op, "tensor.prune", || model.pruned(config.pruning)));
    let work = pruned.as_ref().unwrap_or(&model);
    let shape = model.input_shape();
    let calibration = rec
        .time(op, "tensor.calibration", || {
            TensorGenerator::new(config.seed ^ 0x5eed).labelled_batch(
                config.calibration_images,
                shape[0],
                shape[1],
                shape[2],
                config.classes,
            )
        })
        .map_err(err)?
        .0;
    let quantized = rec
        .time(op, "nn.quantize", || QuantizedModel::quantize(work, &calibration))
        .map_err(err)?;
    let approx = rec
        .time(op, "fta.approx", || {
            if config.operand_width == OperandWidth::Int8 {
                ModelApprox::from_quantized(&quantized)
            } else {
                ModelApprox::from_model_wide(work, config.operand_width)
            }
        })
        .map_err(err)?;
    let fta_stats = rec.time(op, "fta.stats", || ModelFtaStats::from_model(&approx));
    let input_sparsity = rec
        .time(op, "core.input_sparsity", || measure_input_sparsity(&quantized, &calibration))
        .map_err(err)?;
    let (sparse, dense) = rec
        .time(op, "compiler.workloads", || {
            let sparse = if config.pruning.is_active() {
                extract_workloads_with_value_sparsity(work, Some(&approx), &input_sparsity)?
            } else {
                extract_workloads(work, Some(&approx), &input_sparsity)?
            };
            Ok::<_, CompileError>((sparse, extract_workloads(work, None, &input_sparsity)?))
        })
        .map_err(err)?;
    Ok(Prepared { model, summary, fta_stats, input_sparsity, sparse, dense })
}

/// Compiles both mappings for `arch` and simulates the four Fig. 7
/// configurations, one span per layer under `op`.
///
/// # Errors
///
/// Any stage failure, as text.
pub fn compile_and_simulate(
    rec: &mut Recorder,
    op: usize,
    prepared: &Prepared,
    arch: ArchConfig,
    width: OperandWidth,
) -> Result<Vec<RunReport>, String> {
    let compiler = Compiler::with_width(arch, width).map_err(err)?;
    let (sparse, dense): (ModelProgram, ModelProgram) = rec
        .time(op, "compiler.compile", || {
            Ok::<_, CompileError>((
                compiler.compile(&prepared.sparse, MappingMode::DbPim)?,
                compiler.compile(&prepared.dense, MappingMode::Dense)?,
            ))
        })
        .map_err(err)?;
    rec.time(op, "sim.simulate", || {
        SparsityConfig::all()
            .into_iter()
            .map(|sparsity| {
                let mut sim = SimConfig::new(sparsity);
                sim.arch = arch;
                let program = if sparsity.weight_sparsity() { &sparse } else { &dense };
                Simulator::new(sim)?.simulate(program)
            })
            .collect::<Result<Vec<_>, _>>()
    })
    .map_err(err)
}

impl Prepared {
    /// The result `Pipeline::run_kind` reports, assembled from the replay.
    #[must_use]
    pub fn codesign_result(&self, runs: Vec<RunReport>) -> CodesignResult {
        CodesignResult {
            model_name: self.model.name().to_string(),
            summary: self.summary.clone(),
            fta_stats: self.fta_stats.clone(),
            fidelity: None,
            input_sparsity: self.input_sparsity.clone(),
            runs,
        }
    }

    /// Weights the FTA approximated.
    #[must_use]
    pub fn weights(&self) -> usize {
        self.fta_stats.total_weights()
    }
}

/// The reference result of every model through the session path: a fresh
/// `BatchRunner`, the one the daemons and the fleet prepare through, rather
/// than the `Pipeline::run_kind` calls the timed phase makes. One worker
/// thread: preparing two models at once would make the memory high-water
/// mark depend on which two overlap.
fn session_reference(
    config: PipelineConfig,
) -> Result<BTreeMap<&'static str, CodesignResult>, String> {
    let runner = BatchRunner::new(config).map_err(err)?.with_threads(1);
    let entries = reference_entries(&runner)?;
    Ok(entries.into_iter().map(|(name, entry)| (name, entry.result)).collect())
}

/// Runs a cold workload.
///
/// # Errors
///
/// Set-up failures, or set-up repetitions that disagree.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let config = args.pipeline();
    // Set-up: the reference result of every model through the session
    // path, SETUP_REPS times on fresh runners; the repetitions must agree
    // bit for bit, and every timed op must equal them.
    let mut setup_s = Vec::new();
    let mut reference: Option<BTreeMap<&'static str, CodesignResult>> = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let results = session_reference(config)?;
        setup_s.push(start.elapsed().as_secs_f64());
        match &reference {
            None => reference = Some(results),
            Some(first) if *first != results => {
                return Err("set-up repetitions produced different results".to_string())
            }
            Some(_) => {}
        }
    }
    let reference = reference.expect("at least one set-up repetition");
    let setup_rss_mb = crate::peak_rss_mb();
    let mut rng = Rng::new(args.seed, 1);
    if args.trace {
        return Ok(traced(args, config, &reference, &mut rng));
    }

    let (mut latencies_ms, mut attempted, mut failed) = (Vec::new(), 0, 0);
    run_rounds(args.seconds, min_rounds(5), || {
        for kind in rng.model_round() {
            let start = Instant::now();
            let out = real_op(config, kind);
            latencies_ms.push((kind.name(), start.elapsed().as_secs_f64() * 1e3));
            attempted += 1;
            if out.as_ref() != Ok(&reference[kind.name()]) {
                failed += 1;
            }
        }
    });
    let busy_s: f64 = latencies_ms.iter().map(|&(_, ms)| ms).sum::<f64>() / 1e3;
    let timed = Timed {
        setup_s,
        setup_rss_mb,
        throughput_per_s: (attempted - failed) as f64 / busy_s,
        latencies_ms,
        attempted,
        failed,
        results: reference.iter().map(|(&name, r)| (name, r)).collect(),
        paper_comparable: args.workload == Workload::ColdInt8,
    };
    Ok(timed.outcome())
}

/// Each op runs untraced through `Pipeline::run_kind` and as a
/// layer-by-layer replay inside spans, in alternating order; both must
/// equal the set-up result. Coverage compares the replay's spans with the
/// untraced call, so work `Pipeline::run_kind` does and the replay skips
/// counts as untraced.
fn traced(
    args: &Args,
    config: PipelineConfig,
    reference: &BTreeMap<&'static str, CodesignResult>,
    rng: &mut Rng,
) -> Outcome {
    let mut rec = Recorder::new();
    let mut out = Traced::default();
    let mut weights = 0usize;
    run_rounds(args.seconds, 1, || {
        for kind in rng.model_round() {
            let expected = &reference[kind.name()];
            let untraced = |out: &mut Traced| {
                let start = Instant::now();
                let real = real_op(config, kind);
                out.untraced_ms.push(start.elapsed().as_secs_f64() * 1e3);
                real
            };
            let first = (!traced_first(out.attempted)).then(|| untraced(&mut out));
            let op = rec.open_op(out.attempted);
            let replay = prepare(&mut rec, op, &config, kind).and_then(|prepared| {
                let runs = compile_and_simulate(
                    &mut rec,
                    op,
                    &prepared,
                    config.arch,
                    config.operand_width,
                )?;
                weights += prepared.weights();
                Ok(prepared.codesign_result(runs))
            });
            rec.close(op);
            let real = first.unwrap_or_else(|| untraced(&mut out));
            out.traced_ms.push(rec.spans()[op].duration_us() / 1e3);
            let untraced_ms = *out.untraced_ms.last().expect("pushed above");
            out.coverage.push((rec.covered_ms(op), untraced_ms));
            out.attempted += 1;
            if real.as_ref() != Ok(expected) || replay.as_ref() != Ok(expected) {
                out.failed += 1;
            }
        }
    });
    let ops = out.attempted;
    for layer in PREPARE_LAYERS.into_iter().chain(["compiler.compile", "sim.simulate"]) {
        out.layers.insert(layer_metric(layer), rec.ms_per_op(layer, ops));
    }
    out.layers.insert("fta.weights", weights as f64 / ops as f64);
    out.outcome(&rec, args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(workload: Workload) -> Args {
        Args { workload, seed: 5, seconds: 1.0, trace: true }
    }

    /// The traced replay is only worth its per-layer numbers if it computes
    /// exactly what the timed entry point computes, on both cold paths.
    #[test]
    fn replay_equals_the_real_pipeline_on_both_cold_paths() {
        for workload in [Workload::ColdInt8, Workload::ColdInt4Pruned] {
            let config = args(workload).pipeline();
            let kind = ModelKind::MobileNetV2;
            let real = real_op(config, kind).expect("pipeline runs");
            let mut rec = Recorder::new();
            let op = rec.open_op(0);
            let prepared = prepare(&mut rec, op, &config, kind).expect("replay prepares");
            let runs =
                compile_and_simulate(&mut rec, op, &prepared, config.arch, config.operand_width)
                    .expect("replay simulates");
            rec.close(op);
            assert_eq!(prepared.codesign_result(runs), real, "{workload:?}");
            let share = rec.covered_ms(op) / (rec.spans()[op].duration_us() / 1e3);
            assert!(share > 0.9, "{workload:?}: {share}");
            let pruned = rec.spans().iter().any(|s| s.layer == "tensor.prune");
            assert_eq!(pruned, workload == Workload::ColdInt4Pruned);
        }
    }

    /// Set-up's session-path reference equals what the timed entry point
    /// computes, so a correct timed op never counts as failed.
    #[test]
    fn session_reference_equals_the_pipeline() {
        for workload in [Workload::ColdInt8, Workload::ColdInt4Pruned] {
            let config = args(workload).pipeline();
            let reference = session_reference(config).expect("session prepares");
            for kind in [ModelKind::MobileNetV2, ModelKind::ResNet18] {
                let real = real_op(config, kind).expect("pipeline runs");
                assert_eq!(reference[kind.name()], real, "{workload:?} {kind:?}");
            }
        }
    }

    /// The check can fail: a replay under another seed differs.
    #[test]
    fn replay_under_another_seed_differs() {
        let config = args(Workload::ColdInt8).pipeline();
        let real = real_op(config, ModelKind::MobileNetV2).expect("pipeline runs");
        let mut other = config;
        other.seed += 1;
        let mut rec = Recorder::new();
        let op = rec.open_op(0);
        let prepared = prepare(&mut rec, op, &other, ModelKind::MobileNetV2).expect("prepares");
        let runs = compile_and_simulate(&mut rec, op, &prepared, other.arch, other.operand_width)
            .expect("simulates");
        assert_ne!(prepared.codesign_result(runs), real);
    }
}
