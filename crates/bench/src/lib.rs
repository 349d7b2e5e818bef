//! Shared infrastructure for the experiment report generators.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper's
//! evaluation section. This library provides the pieces they share: strict
//! command-line option parsing, the [`ExperimentContext`] (a
//! [`BatchRunner`]-backed simulation session every generator draws cached
//! artifacts from), lightweight weight-only sparsity analysis (Fig. 2(a)),
//! activation bit-column analysis (Fig. 2(b)), full sweeps (Table 2, Fig. 7,
//! Table 3) and the published reference numbers of the prior works quoted in
//! Tables 1 and 3.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use db_pim::flags::{self, Flag, Flags, OptionsError, PIPELINE_FLAGS, TRACE_FLAGS};
use db_pim::prelude::*;
use db_pim::PipelineError;
use dbpim_fta::stats::{LayerFtaStats, ModelFtaStats};
use dbpim_fta::LayerApprox;
use dbpim_nn::Layer;
use dbpim_tensor::quant::QuantizedTensor;
use dbpim_tensor::stats::zero_bit_column_ratio;
use dbpim_trace::TraceSink;

pub mod dse;
pub mod experiments;
pub mod reference;

/// Command-line options shared by every experiment binary.
///
/// ```text
/// --width <f32>    channel width multiplier (default 1.0 = the paper's models)
/// --seed <u64>     synthetic-weight seed (default 42)
/// --images <usize> evaluation images for fidelity experiments (default 16)
/// --cal <usize>    calibration images (default 2)
/// --classes <usize> output classes (default 100)
/// --operand-width <4|8|12|16>  weight operand width (default 8 = the paper)
/// ```
///
/// Parsing is strict ([`db_pim::flags`]): an unknown flag, a stray word and a
/// known flag with a missing or malformed value are all errors — silently
/// falling back to defaults would mislabel every number in the generated
/// report. `--operand-width` in particular rejects anything that is not one
/// of the supported widths (e.g. `--operand-width 10` or `wide`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentOptions {
    /// Channel width multiplier applied to every zoo model.
    pub width_mult: f32,
    /// Seed for synthetic weights and data.
    pub seed: u64,
    /// Number of labelled evaluation images (Table 2).
    pub evaluation_images: usize,
    /// Number of calibration images (quantization + input sparsity).
    pub calibration_images: usize,
    /// Number of output classes.
    pub classes: usize,
    /// Weight operand width the pipeline runs at (INT8 = the paper).
    pub operand_width: OperandWidth,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        Self {
            width_mult: 1.0,
            seed: 42,
            evaluation_images: 16,
            calibration_images: 2,
            classes: 100,
            operand_width: OperandWidth::Int8,
        }
    }
}

/// The flag table of every report binary: the pipeline flags plus
/// `--trace-out` and `--log-level`.
pub const EXPERIMENT_TABLE: &[&[Flag]] = &[PIPELINE_FLAGS, TRACE_FLAGS];

impl ExperimentOptions {
    /// Reads the [`PIPELINE_FLAGS`]; a flag not given keeps its default.
    ///
    /// # Errors
    ///
    /// Returns [`OptionsError`] naming a flag with a malformed value, or the
    /// first positional word: no binary reading these options takes one.
    pub fn from_flags(flags: &Flags) -> Result<Self, OptionsError> {
        flags.no_positionals()?;
        let defaults = Self::default();
        Ok(Self {
            width_mult: flags.get("--width")?.unwrap_or(defaults.width_mult),
            seed: flags.get("--seed")?.unwrap_or(defaults.seed),
            evaluation_images: flags.get("--images")?.unwrap_or(defaults.evaluation_images),
            calibration_images: flags.get("--cal")?.unwrap_or(defaults.calibration_images),
            classes: flags.get("--classes")?.unwrap_or(defaults.classes),
            operand_width: flags.get("--operand-width")?.unwrap_or(defaults.operand_width),
        })
    }

    /// The pipeline configuration equivalent to these options.
    #[must_use]
    pub fn pipeline_config(&self) -> PipelineConfig {
        let mut config = PipelineConfig::paper();
        config.width_mult = self.width_mult;
        config.seed = self.seed;
        config.calibration_images = self.calibration_images.max(1);
        config.evaluation_images = self.evaluation_images;
        config.classes = self.classes;
        config.operand_width = self.operand_width;
        config
    }
}

/// The shared state of one experiment invocation: parsed options plus a
/// [`BatchRunner`] whose [`SimSession`] caches per-model artifacts.
///
/// Every table/figure generator takes a context, so a binary that renders
/// several reports (`all_experiments`) quantizes, approximates and compiles
/// each model exactly once, however many tables consume it. The zoo sweep
/// itself is memoized per fidelity flag, so tables sharing the same sweep
/// (Fig. 7, Table 3) do not re-simulate it.
#[derive(Debug)]
pub struct ExperimentContext {
    options: ExperimentOptions,
    runner: BatchRunner,
    /// Memoized zoo sweeps: `[without fidelity, with fidelity]`.
    zoo_sweeps: std::sync::Mutex<[Option<SweepReport>; 2]>,
}

impl ExperimentContext {
    /// Creates the context for the given options.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::BadConfig`] for unusable option values.
    pub fn new(options: ExperimentOptions) -> Result<Self, PipelineError> {
        let runner = BatchRunner::new(options.pipeline_config())?;
        Ok(Self { options, runner, zoo_sweeps: std::sync::Mutex::new([None, None]) })
    }

    /// The parsed command-line options.
    #[must_use]
    pub fn options(&self) -> &ExperimentOptions {
        &self.options
    }

    /// The batch runner executing sweeps for this context.
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

    /// Sweeps all five paper models over the four Fig. 7 sparsity
    /// configurations, reusing cached artifacts. The report itself is
    /// memoized, so repeated calls (Fig. 7 then Table 3) return the cached
    /// sweep without re-simulating.
    ///
    /// # Errors
    ///
    /// Propagates pipeline failures.
    pub fn zoo_sweep(&self, with_fidelity: bool) -> Result<SweepReport, PipelineError> {
        let slot = usize::from(with_fidelity);
        if let Some(report) = &self.zoo_sweeps.lock().expect("sweep cache lock")[slot] {
            return Ok(report.clone());
        }
        let report = self.runner.run_with_fidelity(&SweepSpec::zoo(), with_fidelity)?;
        self.zoo_sweeps.lock().expect("sweep cache lock")[slot] = Some(report.clone());
        Ok(report)
    }
}

/// Parses a report binary's command line against [`EXPERIMENT_TABLE`],
/// applying the trace flags; see [`flags::from_args`] for `--help` and
/// malformed lines.
#[must_use]
pub fn experiment_args(program: &str) -> (ExperimentOptions, Option<TraceSink>) {
    flags::from_args(program, EXPERIMENT_TABLE, |flags| {
        Ok((ExperimentOptions::from_flags(flags)?, flags::install_trace(flags)?))
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
    let (options, trace) = experiment_args(name);
    let result = ExperimentContext::new(options).and_then(|context| generate(&context));
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

/// Builds one zoo model under the given options.
///
/// # Errors
///
/// Propagates model-construction errors.
pub fn build_model(kind: ModelKind, options: &ExperimentOptions) -> Result<Model, PipelineError> {
    Ok(kind.build_with_width(options.classes, options.seed, options.width_mult)?)
}

/// Weight-only FTA sparsity statistics of a model (Fig. 2(a), the `U_act`
/// rows of Table 3).
///
/// This path quantizes each PIM layer's weights per output channel and runs
/// Algorithm 1 directly, without any calibration forward passes — weights
/// are all Fig. 2(a) needs.
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
        let quantized = QuantizedTensor::quantize_per_channel(weight, 0);
        let approx =
            LayerApprox::from_weights(node.id, node.name.clone(), quantized.values(), &tables)?;
        layers.push(LayerFtaStats::from_layer(&approx));
    }
    Ok(ModelFtaStats { model_name: model.name().to_string(), layers })
}

/// Block-wise zero bit-column ratios of the input features of every PIM
/// layer, for the three group sizes Fig. 2(b) reports (1, 8 and 16).
///
/// # Errors
///
/// Propagates quantization or inference errors.
pub fn input_column_sparsity(
    model: &Model,
    options: &ExperimentOptions,
) -> Result<[f64; 3], PipelineError> {
    let mut gen = TensorGenerator::new(options.seed ^ 0xf19);
    let (images, _) = gen.labelled_batch(
        options.calibration_images.max(1),
        model.input_shape()[0],
        model.input_shape()[1],
        model.input_shape()[2],
        options.classes,
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
            let operand: Vec<i8> =
                tensor.data().iter().map(|&v| (i32::from(v) - zero_point) as u8 as i8).collect();
            for (slot, &group) in group_sizes.iter().enumerate() {
                sums[slot] += zero_bit_column_ratio(&operand, group);
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

/// Runs the full co-design pipeline for one model through a one-shot
/// session.
///
/// Callers rendering several reports should share an [`ExperimentContext`]
/// instead, so artifacts are cached across reports.
///
/// # Errors
///
/// Propagates any pipeline stage failure.
pub fn run_pipeline(
    kind: ModelKind,
    options: &ExperimentOptions,
    with_fidelity: bool,
) -> Result<CodesignResult, PipelineError> {
    SimSession::new(options.pipeline_config())?.codesign(kind, with_fidelity)
}

/// Formats a fraction as a percentage with one decimal.
#[must_use]
pub fn pct(fraction: f64) -> String {
    format!("{:.2}%", 100.0 * fraction)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `raw` (without the program name) as a report binary does.
    fn parse(raw: &[&str]) -> Result<ExperimentOptions, OptionsError> {
        let args: Vec<String> = raw.iter().map(ToString::to_string).collect();
        ExperimentOptions::from_flags(&Flags::parse(EXPERIMENT_TABLE, &args)?)
    }

    #[test]
    fn options_parse_known_flags_and_ignore_the_rest() {
        let known =
            ["--width", "0.5", "--seed", "7", "--images", "4", "--cal", "3", "--classes", "10"];
        let options = parse(&known).unwrap();
        assert!((options.width_mult - 0.5).abs() < 1e-6);
        assert_eq!(options.seed, 7);
        assert_eq!(options.evaluation_images, 4);
        assert_eq!(options.calibration_images, 3);
        assert_eq!(options.classes, 10);
        let config = options.pipeline_config();
        assert_eq!(config.classes, 10);

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
            let options = parse(&["--operand-width", raw]).unwrap();
            assert_eq!(options.operand_width, expected, "raw `{raw}`");
            assert_eq!(options.pipeline_config().operand_width, expected);
        }
        // The default is the paper's INT8.
        assert_eq!(ExperimentOptions::default().operand_width, OperandWidth::Int8);
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
        let options = parse(&["--width", "0.5", "--operand-width", "4"]).unwrap();
        assert!((options.width_mult - 0.5).abs() < 1e-6);
        assert_eq!(options.operand_width, OperandWidth::Int4);
    }

    #[test]
    fn flag_values_are_consumed_not_reparsed_as_flags() {
        // A value that happens to look like a flag must not be re-read as
        // one (the old parser advanced one token at a time).
        let options = parse(&["--seed", "3", "--cal", "2"]).unwrap();
        assert_eq!(options.seed, 3);
        assert_eq!(options.calibration_images, 2);
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
        let options =
            ExperimentOptions { width_mult: 0.25, classes: 10, ..ExperimentOptions::default() };
        let model = build_model(ModelKind::ResNet18, &options).unwrap();
        let stats = weight_sparsity_stats(&model).unwrap();
        assert!(stats.binary_zero_ratio() > 0.55);
        assert!(stats.csd_zero_ratio() >= stats.binary_zero_ratio());
        assert!(stats.fta_zero_ratio() >= stats.csd_zero_ratio());
        assert!(stats.utilization() > 0.8);
    }

    #[test]
    fn input_column_sparsity_is_monotone_in_group_size() {
        let options = ExperimentOptions {
            width_mult: 0.25,
            classes: 10,
            calibration_images: 1,
            ..ExperimentOptions::default()
        };
        let model = dbpim_nn::zoo::tiny_cnn(10, 3).unwrap();
        let [g1, g8, g16] = input_column_sparsity(&model, &options).unwrap();
        assert!(g1 >= g8 && g8 >= g16, "{g1} {g8} {g16}");
        assert!(g8 > 0.05, "group-of-8 ratio {g8}");
    }

    #[test]
    fn context_shares_one_session_across_reports() {
        let options = ExperimentOptions {
            width_mult: 0.25,
            classes: 10,
            calibration_images: 1,
            evaluation_images: 2,
            seed: 5,
            ..ExperimentOptions::default()
        };
        let context = ExperimentContext::new(options).unwrap();
        let a = context.session().artifacts(ModelKind::AlexNet).unwrap();
        let b = context.session().artifacts(ModelKind::AlexNet).unwrap();
        assert!(std::sync::Arc::ptr_eq(&a, &b));
        assert_eq!(context.arch(), ArchConfig::paper());
    }
}
