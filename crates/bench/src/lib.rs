//! Shared infrastructure for the experiment report generators.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper's
//! evaluation section. This library provides the pieces they share: the
//! report binaries' flag table ([`EXPERIMENT_TABLE`]), the
//! [`ExperimentContext`] (a [`BatchRunner`]-backed simulation session every
//! generator draws cached artifacts from), lightweight weight-only sparsity
//! analysis (Fig. 2(a)), activation bit-column analysis (Fig. 2(b)), full
//! sweeps (Table 2, Fig. 7, Table 3) and the published reference numbers of
//! the prior works quoted in Tables 1 and 3.
//!
//! The pipeline and grid flag groups, their readers and the one DSE report
//! renderer live in core ([`db_pim::flags`]), so `dse_sweep`, `dbpim-fleet`
//! and `dbpim-cli explore` read and print a point set the same way.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::{Arc, Mutex};

use db_pim::flags::{self, Flag, PIPELINE_FLAGS, TRACE_FLAGS};
use db_pim::prelude::*;
use db_pim::session::par::lock_unpoisoned;
use db_pim::PipelineError;
use dbpim_fta::stats::{LayerFtaStats, ModelFtaStats};
use dbpim_fta::LayerApprox;
use dbpim_nn::Layer;
use dbpim_tensor::quant::QuantizedTensor;
use dbpim_tensor::stats::centred_zero_bit_column_ratio;
use dbpim_trace::TraceSink;

pub mod dse;
pub mod experiments;
pub mod reference;

/// The flag table of every report binary: the pipeline flags (`--width
/// --seed --images --cal --classes --operand-width`), read by
/// [`PipelineConfig::from_flags`] with [`PipelineConfig::paper`] as the
/// defaults, plus `--trace-out` and `--log-level`.
///
/// Parsing is strict ([`db_pim::flags`]): an unknown flag, a stray word and a
/// known flag with a missing or malformed value are all errors — silently
/// falling back to defaults would mislabel every number in the generated
/// report.
pub const EXPERIMENT_TABLE: &[&[Flag]] = &[PIPELINE_FLAGS, TRACE_FLAGS];

/// The shared state of one experiment invocation: a [`BatchRunner`] whose
/// [`SimSession`] caches per-model artifacts.
///
/// Every table/figure generator takes a context, so a binary that renders
/// several reports (`all_experiments`) quantizes, approximates and compiles
/// each model exactly once, however many tables consume it. The zoo sweep
/// itself is memoized per fidelity flag, so tables sharing the same sweep
/// (Fig. 7, Table 3) do not re-simulate it.
#[derive(Debug)]
pub struct ExperimentContext {
    runner: Arc<BatchRunner>,
    /// Memoized zoo sweeps: `[without fidelity, with fidelity]`.
    zoo_sweeps: Mutex<[Option<Arc<DseReport>>; 2]>,
}

impl ExperimentContext {
    /// Creates the context for the given pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::BadConfig`] for unusable option values.
    pub fn new(config: PipelineConfig) -> Result<Self, PipelineError> {
        let runner = Arc::new(BatchRunner::new(config)?);
        Ok(Self { runner, zoo_sweeps: Mutex::new([None, None]) })
    }

    /// The pipeline every report runs.
    #[must_use]
    pub fn config(&self) -> &PipelineConfig {
        self.session().config()
    }

    /// The batch runner executing every point for this context.
    #[must_use]
    pub fn runner(&self) -> &BatchRunner {
        &self.runner
    }

    /// The underlying simulation session (shared artifact cache).
    #[must_use]
    pub fn session(&self) -> &SimSession {
        self.runner.session()
    }

    /// The architecture geometry the experiments simulate.
    #[must_use]
    pub fn arch(&self) -> ArchConfig {
        self.session().config().arch
    }

    /// Runs `spec` — a grid of one geometry, [`ArchGrid::around`] the
    /// context's [`arch`](Self::arch) — through a [`DseDriver`] on the
    /// shared runner. Entries come back in canonical order: models as
    /// given, then widths narrow to wide.
    ///
    /// # Errors
    ///
    /// Propagates pipeline failures.
    pub fn sweep(&self, spec: &DseSpec) -> Result<DseReport, PipelineError> {
        DseDriver::from_runner(Arc::clone(&self.runner)).run(spec)
    }

    /// Sweeps all five paper models over the four Fig. 7 sparsity
    /// configurations, reusing cached artifacts; entries are in
    /// [`paper_models`] order. The report itself is memoized, so repeated
    /// calls (Fig. 7 then Table 3) return the cached sweep without
    /// re-simulating.
    ///
    /// # Errors
    ///
    /// Propagates pipeline failures.
    pub fn zoo_sweep(&self, with_fidelity: bool) -> Result<Arc<DseReport>, PipelineError> {
        let slot = usize::from(with_fidelity);
        if let Some(report) = &lock_unpoisoned(&self.zoo_sweeps)[slot] {
            return Ok(Arc::clone(report));
        }
        let mut spec = DseSpec::new(ArchGrid::around(self.arch()), paper_models().to_vec());
        spec.fidelity = with_fidelity;
        let report = Arc::new(self.sweep(&spec)?);
        lock_unpoisoned(&self.zoo_sweeps)[slot] = Some(Arc::clone(&report));
        Ok(report)
    }
}

/// Parses a report binary's command line against [`EXPERIMENT_TABLE`],
/// applying the trace flags; see [`flags::from_args`] for `--help` and
/// malformed lines.
#[must_use]
pub fn experiment_args(program: &str) -> (PipelineConfig, Option<TraceSink>) {
    flags::from_args(program, EXPERIMENT_TABLE, |flags| {
        Ok((PipelineConfig::from_flags(flags)?, flags::install_trace(flags)?))
    })
}

/// Shared `main` body of the experiment binaries: parse options, build the
/// context, render one report, print it (exit status 1 on failure).
///
/// Every experiment binary also understands `--trace-out <path>` (write a
/// Chrome trace of the run) and `--log-level <level>` — both handled here,
/// so individual generators stay oblivious to observability plumbing.
pub fn run_report_binary<F>(name: &str, generate: F)
where
    F: FnOnce(&ExperimentContext) -> Result<String, PipelineError>,
{
    let (config, trace) = experiment_args(name);
    let result = ExperimentContext::new(config).and_then(|context| generate(&context));
    flags::finish_trace(name, trace);
    match result {
        Ok(report) => print!("{report}"),
        Err(e) => {
            eprintln!("{name} failed: {e}");
            std::process::exit(1);
        }
    }
}

/// The five paper models in figure order.
#[must_use]
pub fn paper_models() -> [ModelKind; 5] {
    ModelKind::all()
}

/// Weight-only FTA sparsity statistics of a model (Fig. 2(a)).
///
/// This path quantizes each PIM layer's weights per output channel and runs
/// Algorithm 1 directly, without any calibration forward passes — weights
/// are all Fig. 2(a) needs. (Table 3's `U_act` rows read the shared
/// [`ExperimentContext::zoo_sweep`] instead.)
///
/// # Errors
///
/// Propagates FTA approximation errors.
pub fn weight_sparsity_stats(model: &Model) -> Result<ModelFtaStats, PipelineError> {
    let tables = QueryTables::for_width(OperandWidth::Int8);
    let mut layers = Vec::new();
    for node in model.nodes() {
        let weight = match &node.layer {
            Layer::Conv2d { weight, .. } | Layer::Linear { weight, .. } => weight,
            _ => continue,
        };
        let quantized = QuantizedTensor::quantize_per_channel(weight, 0, OperandWidth::Int8);
        let approx = LayerApprox::from_weights(node.id, node.name.clone(), quantized, &tables)?;
        layers.push(LayerFtaStats::from_layer(&approx));
    }
    Ok(ModelFtaStats { model_name: model.name().to_string(), layers: layers.into() })
}

/// Block-wise zero bit-column ratios of the input features of every PIM
/// layer, for the three group sizes Fig. 2(b) reports (1, 8 and 16).
///
/// # Errors
///
/// Propagates quantization or inference errors.
pub fn input_column_sparsity(
    model: &Model,
    config: &PipelineConfig,
) -> Result<[f64; 3], PipelineError> {
    let mut gen = TensorGenerator::new(config.seed ^ 0xf19);
    let (images, _) = gen.labelled_batch(
        config.calibration_images.max(1),
        model.input_shape()[0],
        model.input_shape()[1],
        model.input_shape()[2],
        config.classes,
    )?;
    let quantized = QuantizedModel::quantize(model, &images)?;
    let group_sizes = [1usize, 8, 16];
    let mut sums = [0.0f64; 3];
    let mut samples = 0usize;
    for image in &images {
        let outputs = quantized.forward_all(image)?;
        let q_input = quantized.input_qp().quantize_tensor(image);
        for &node_id in &quantized.pim_node_ids() {
            let node = &quantized.nodes()[node_id];
            let (tensor, zero_point) = if node.inputs.is_empty() {
                (&q_input, quantized.input_qp().zero_point())
            } else {
                let producer = node.inputs[0];
                (&outputs[producer], quantized.nodes()[producer].output_qp.zero_point())
            };
            for (slot, &group) in group_sizes.iter().enumerate() {
                sums[slot] += centred_zero_bit_column_ratio(tensor.data(), zero_point, group);
            }
            samples += 1;
        }
    }
    let mut out = [0.0f64; 3];
    if samples > 0 {
        for (o, s) in out.iter_mut().zip(sums.iter()) {
            *o = s / samples as f64;
        }
    }
    Ok(out)
}

/// Formats a fraction as a percentage with one decimal.
#[must_use]
pub fn pct(fraction: f64) -> String {
    format!("{:.2}%", 100.0 * fraction)
}

#[cfg(test)]
mod tests {
    use db_pim::flags::{Flags, OptionsError};

    use super::*;

    /// Parses `raw` (without the program name) as a report binary does.
    fn parse(raw: &[&str]) -> Result<PipelineConfig, OptionsError> {
        let args: Vec<String> = raw.iter().map(ToString::to_string).collect();
        PipelineConfig::from_flags(&Flags::parse(EXPERIMENT_TABLE, &args)?)
    }

    #[test]
    fn options_parse_known_flags_and_ignore_the_rest() {
        let known =
            ["--width", "0.5", "--seed", "7", "--images", "4", "--cal", "3", "--classes", "10"];
        let config = parse(&known).unwrap();
        assert!((config.width_mult - 0.5).abs() < 1e-6);
        assert_eq!(config.seed, 7);
        assert_eq!(config.evaluation_images, 4);
        assert_eq!(config.calibration_images, 3);
        assert_eq!(config.classes, 10);
        // The flags not given keep the paper's values, and `--cal 0` reads
        // as the one image a pipeline needs.
        assert_eq!(config.arch, ArchConfig::paper());
        assert_eq!(parse(&["--cal", "0"]).unwrap().calibration_images, 1);

        // The rest is no longer ignored: an unknown flag or a stray word
        // fails the whole line.
        let err = parse(&[&known[..], &["--bogus", "x"]].concat()).unwrap_err();
        assert_eq!(err, OptionsError::new("--bogus", "unknown flag"));
        let err = parse(&["--width", "0.5", "prog"]).unwrap_err();
        assert_eq!(err, OptionsError::new("prog", "unexpected argument"));
    }

    #[test]
    fn malformed_values_are_rejected_not_swallowed() {
        let err = parse(&["--width", "abc"]).unwrap_err();
        assert_eq!(err.flag, "--width");
        assert!(err.message.contains("abc"), "{err}");

        let err = parse(&["--seed"]).unwrap_err();
        assert_eq!(err.flag, "--seed");
        assert!(err.to_string().contains("missing"), "{err}");

        assert_eq!(pct(0.5), "50.00%");
    }

    #[test]
    fn operand_width_flag_accepts_supported_widths() {
        for (raw, expected) in [
            ("4", OperandWidth::Int4),
            ("8", OperandWidth::Int8),
            ("12", OperandWidth::Int12),
            ("16", OperandWidth::Int16),
            ("int12", OperandWidth::Int12),
            ("INT16", OperandWidth::Int16),
        ] {
            let config = parse(&["--operand-width", raw]).unwrap();
            assert_eq!(config.operand_width, expected, "raw `{raw}`");
        }
        // The default is the paper's INT8.
        assert_eq!(parse(&[]).unwrap().operand_width, OperandWidth::Int8);
    }

    #[test]
    fn operand_width_flag_rejects_malformed_and_unsupported_values() {
        // Unsupported bit counts.
        for raw in ["0", "2", "10", "32", "-8"] {
            let err = parse(&["--operand-width", raw]).unwrap_err();
            assert_eq!(err.flag, "--operand-width");
            assert!(err.message.contains(raw), "{err}");
        }
        // Non-numeric garbage.
        let err = parse(&["--operand-width", "wide"]).unwrap_err();
        assert_eq!(err.flag, "--operand-width");
        assert!(err.to_string().contains("wide"), "{err}");
        // Missing value.
        let err = parse(&["--operand-width"]).unwrap_err();
        assert_eq!(err.flag, "--operand-width");
        assert!(err.to_string().contains("missing"), "{err}");
        // The channel multiplier flag is unaffected: `--width` still parses
        // floats and never consumes operand widths.
        let config = parse(&["--width", "0.5", "--operand-width", "4"]).unwrap();
        assert!((config.width_mult - 0.5).abs() < 1e-6);
        assert_eq!(config.operand_width, OperandWidth::Int4);
    }

    #[test]
    fn flag_values_are_consumed_not_reparsed_as_flags() {
        // A value that happens to look like a flag must not be re-read as
        // one (the old parser advanced one token at a time).
        let config = parse(&["--seed", "3", "--cal", "2"]).unwrap();
        assert_eq!(config.seed, 3);
        assert_eq!(config.calibration_images, 2);
    }

    /// `fig7 --operand_width 4` and `all_experiments --bogus x` used to run
    /// at INT8 and exit 0.
    #[test]
    fn report_binaries_reject_typos_with_a_hint() {
        let err = parse(&["--operand_width", "4"]).unwrap_err();
        assert_eq!(err.flag, "--operand_width");
        assert!(err.to_string().contains("did you mean `--operand-width`?"), "{err}");
        let err = parse(&["--trace-out", "t.json", "--log-level", "debug", "--bogus", "x"]);
        assert_eq!(err.unwrap_err(), OptionsError::new("--bogus", "unknown flag"));
    }

    #[test]
    fn weight_stats_follow_fig2a_ordering_on_a_small_model() {
        let model = ModelKind::ResNet18.build_with_width(10, 42, 0.25).unwrap();
        let stats = weight_sparsity_stats(&model).unwrap();
        assert!(stats.binary_zero_ratio() > 0.55);
        assert!(stats.csd_zero_ratio() >= stats.binary_zero_ratio());
        assert!(stats.fta_zero_ratio() >= stats.csd_zero_ratio());
        assert!(stats.utilization() > 0.8);
    }

    #[test]
    fn input_column_sparsity_is_monotone_in_group_size() {
        let config = PipelineConfig {
            width_mult: 0.25,
            classes: 10,
            calibration_images: 1,
            ..PipelineConfig::paper()
        };
        let model = dbpim_nn::zoo::tiny_cnn(10, 3).unwrap();
        let [g1, g8, g16] = input_column_sparsity(&model, &config).unwrap();
        assert!(g1 >= g8 && g8 >= g16, "{g1} {g8} {g16}");
        assert!(g8 > 0.05, "group-of-8 ratio {g8}");
    }

    #[test]
    fn context_shares_one_session_across_reports() {
        let config = PipelineConfig {
            width_mult: 0.25,
            classes: 10,
            calibration_images: 1,
            evaluation_images: 2,
            seed: 5,
            ..PipelineConfig::paper()
        };
        let context = ExperimentContext::new(config).unwrap();
        let a = context.session().artifacts(ModelKind::AlexNet).unwrap();
        let b = context.session().artifacts(ModelKind::AlexNet).unwrap();
        assert!(std::sync::Arc::ptr_eq(&a, &b));
        assert_eq!(context.arch(), ArchConfig::paper());
    }
}
