//! The end-to-end DB-PIM co-design pipeline.
//!
//! `model → INT8 quantization → FTA approximation → dataflow compilation →
//! cycle-accurate simulation` — the complete flow of Fig. 3, producing every
//! quantity the paper's evaluation section reports for a single model:
//! accuracy fidelity (Table 2), sparsity/utilization statistics (Fig. 2(a),
//! Table 3) and the four-configuration performance/energy comparison
//! (Fig. 7).

use dbpim_arch::ArchConfig;
use dbpim_compiler::InputSparsityProfile;
use dbpim_csd::OperandWidth;
use dbpim_fta::stats::ModelFtaStats;
use dbpim_fta::FidelityReport;
use dbpim_nn::{Model, ModelKind, ModelSummary};
use dbpim_sim::{RunReport, SparsityConfig};
use dbpim_tensor::PruningSpec;
use serde::{Deserialize, Serialize};

use crate::error::PipelineError;
use crate::flags::{Flags, OptionsError};
use crate::session::ModelArtifacts;

/// Configuration of the end-to-end pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Number of output classes (100 for the CIFAR-100 setting).
    pub classes: usize,
    /// Seed for synthetic weights, calibration and evaluation data.
    pub seed: u64,
    /// Width multiplier applied when building zoo models (1.0 = full width).
    pub width_mult: f32,
    /// Calibration images used for quantization and input-sparsity
    /// measurement.
    pub calibration_images: usize,
    /// Labelled images used for the fidelity (Table 2) evaluation; `0` skips
    /// the fidelity step entirely (useful for performance-only experiments).
    pub evaluation_images: usize,
    /// Architecture geometry to compile for and simulate.
    pub arch: ArchConfig,
    /// Weight operand width the FTA/compile/simulate stages run at. The
    /// INT8 default reproduces the paper; other widths quantize the float
    /// weights per channel at that width, and their fidelity compares the
    /// FTA model at that width against the INT8 baseline.
    pub operand_width: OperandWidth,
    /// Value-level magnitude pruning applied to the float weights before
    /// quantization. [`PruningSpec::none`] (the default presets) leaves the
    /// pipeline bit-identical to the unpruned flow; an active spec zeroes
    /// weights so value sparsity compounds with the bit-level sparsity the
    /// FTA/compiler/macro stages exploit.
    pub pruning: PruningSpec,
}

impl PipelineConfig {
    /// The paper's setting: CIFAR-100 classes, full-width models, the
    /// Section 4.1 architecture. Every binary's pipeline flags default to
    /// it ([`from_flags`](Self::from_flags)).
    #[must_use]
    pub fn paper() -> Self {
        Self {
            classes: dbpim_nn::CIFAR100_CLASSES,
            seed: 42,
            width_mult: 1.0,
            calibration_images: 2,
            evaluation_images: 16,
            arch: ArchConfig::paper(),
            operand_width: OperandWidth::Int8,
            pruning: PruningSpec::none(),
        }
    }

    /// A reduced setting for fast tests and examples: width-0.25 models,
    /// fewer images.
    #[must_use]
    pub fn fast() -> Self {
        Self {
            classes: 10,
            seed: 42,
            width_mult: 0.25,
            calibration_images: 2,
            evaluation_images: 6,
            arch: ArchConfig::paper(),
            operand_width: OperandWidth::Int8,
            pruning: PruningSpec::none(),
        }
    }

    /// Reads [`PIPELINE_FLAGS`]; a flag not given keeps its
    /// [`paper`](Self::paper) value, and `--cal 0` is clamped to 1.
    ///
    /// # Errors
    ///
    /// Returns [`OptionsError`] naming a flag with a malformed value, or the
    /// first positional word: no binary reading these flags takes one.
    ///
    /// [`PIPELINE_FLAGS`]: crate::flags::PIPELINE_FLAGS
    pub fn from_flags(flags: &Flags) -> Result<Self, OptionsError> {
        flags.no_positionals()?;
        let paper = Self::paper();
        Ok(Self {
            width_mult: flags.get("--width")?.unwrap_or(paper.width_mult),
            seed: flags.get("--seed")?.unwrap_or(paper.seed),
            evaluation_images: flags.get("--images")?.unwrap_or(paper.evaluation_images),
            calibration_images: flags
                .get::<usize>("--cal")?
                .map_or(paper.calibration_images, |n| n.max(1)),
            classes: flags.get("--classes")?.unwrap_or(paper.classes),
            operand_width: flags.get("--operand-width")?.unwrap_or(paper.operand_width),
            ..paper
        })
    }

    /// Disables the fidelity evaluation (performance-only runs).
    #[must_use]
    pub fn without_fidelity(mut self) -> Self {
        self.evaluation_images = 0;
        self
    }

    /// Sets the weight operand width.
    #[must_use]
    pub fn with_operand_width(mut self, width: OperandWidth) -> Self {
        self.operand_width = width;
        self
    }

    /// Sets the value-level pruning specification (canonicalized, so every
    /// inactive spelling configures the identical pipeline).
    #[must_use]
    pub fn with_pruning(mut self, pruning: PruningSpec) -> Self {
        self.pruning = pruning.canonical();
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::BadConfig`] for unusable settings.
    pub fn validate(&self) -> Result<(), PipelineError> {
        if self.classes == 0 {
            return Err(PipelineError::BadConfig {
                reason: "classes must be non-zero".to_string(),
            });
        }
        if self.calibration_images == 0 {
            return Err(PipelineError::BadConfig {
                reason: "at least one calibration image is required".to_string(),
            });
        }
        if self.width_mult <= 0.0 {
            return Err(PipelineError::BadConfig {
                reason: "width multiplier must be positive".to_string(),
            });
        }
        self.pruning.validate().map_err(|reason| PipelineError::BadConfig { reason })?;
        self.arch.validate()?;
        Ok(())
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Everything the pipeline produces for one model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CodesignResult {
    /// Name of the evaluated model.
    pub model_name: String,
    /// Parameter / MAC summary of the float model.
    pub summary: ModelSummary,
    /// FTA sparsity and utilization statistics (Fig. 2(a), Table 3).
    pub fta_stats: ModelFtaStats,
    /// Accuracy-fidelity report (Table 2 substitute); `None` when the
    /// fidelity evaluation was disabled.
    pub fidelity: Option<FidelityReport>,
    /// Measured block-wise input bit sparsity per PIM layer (Fig. 2(b)).
    pub input_sparsity: InputSparsityProfile,
    /// One simulation run per Fig. 7 configuration, in
    /// [`SparsityConfig::all`] order.
    pub runs: Vec<RunReport>,
}

impl CodesignResult {
    /// The run for a specific sparsity configuration.
    #[must_use]
    pub fn run(&self, sparsity: SparsityConfig) -> Option<&RunReport> {
        self.runs.iter().find(|r| r.sparsity == sparsity)
    }

    /// The dense-baseline run.
    ///
    /// # Panics
    ///
    /// Panics if the result was built without a baseline run (never produced
    /// by [`Pipeline::run_model`]).
    #[must_use]
    pub fn baseline(&self) -> &RunReport {
        self.run(SparsityConfig::DenseBaseline).expect("pipeline always simulates the baseline")
    }

    /// Speedup of a configuration over the dense baseline (Fig. 7(a)).
    #[must_use]
    pub fn speedup(&self, sparsity: SparsityConfig) -> f64 {
        self.run(sparsity).map_or(0.0, |r| r.speedup_over(self.baseline()))
    }

    /// Energy saving of a configuration over the dense baseline (Fig. 7(b)).
    #[must_use]
    pub fn energy_saving(&self, sparsity: SparsityConfig) -> f64 {
        self.run(sparsity).map_or(0.0, |r| r.energy_saving_over(self.baseline()))
    }

    /// Actual utilization `U_act` of the FTA-mapped weights (Table 3).
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.fta_stats.utilization()
    }
}

/// The end-to-end co-design pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Pipeline {
    config: PipelineConfig,
}

impl Pipeline {
    /// Creates a pipeline with the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::BadConfig`] for unusable settings.
    pub fn new(config: PipelineConfig) -> Result<Self, PipelineError> {
        config.validate()?;
        Ok(Self { config })
    }

    /// The pipeline's configuration.
    #[must_use]
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Builds a zoo model (honouring the configured width multiplier) and
    /// runs the full pipeline on it.
    ///
    /// # Errors
    ///
    /// Propagates any stage failure.
    pub fn run_kind(&self, kind: ModelKind) -> Result<CodesignResult, PipelineError> {
        let model =
            kind.build_with_width(self.config.classes, self.config.seed, self.config.width_mult)?;
        self.run_model(&model)
    }

    /// Runs the full pipeline on an already-built model.
    ///
    /// This is a thin wrapper over the [`session`](crate::session) layer:
    /// artifacts are prepared once and all four Fig. 7 configurations are
    /// simulated from the same compiled programs.
    ///
    /// # Errors
    ///
    /// Propagates any stage failure.
    pub fn run_model(&self, model: &Model) -> Result<CodesignResult, PipelineError> {
        let artifacts = ModelArtifacts::prepare(&self.config, model)?;
        artifacts.codesign_result(&SparsityConfig::all(), self.config.evaluation_images > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbpim_nn::zoo;

    #[test]
    fn config_validation() {
        assert!(PipelineConfig::paper().validate().is_ok());
        assert!(PipelineConfig::fast().validate().is_ok());
        let mut bad = PipelineConfig::fast();
        bad.classes = 0;
        assert!(bad.validate().is_err());
        let mut bad = PipelineConfig::fast();
        bad.calibration_images = 0;
        assert!(bad.validate().is_err());
        let mut bad = PipelineConfig::fast();
        bad.width_mult = 0.0;
        assert!(Pipeline::new(bad).is_err());
        // Invalid geometries are caught at configuration time, not deep in
        // the compiler.
        let mut bad = PipelineConfig::fast();
        bad.arch.macros = 0;
        assert!(matches!(bad.validate(), Err(PipelineError::Arch(_))));
        let mut bad = PipelineConfig::fast();
        bad.arch.weight_buffer_bytes = 1;
        assert!(Pipeline::new(bad).is_err());
        assert_eq!(PipelineConfig::default(), PipelineConfig::paper());
        assert_eq!(PipelineConfig::fast().without_fidelity().evaluation_images, 0);
    }

    #[test]
    fn tiny_cnn_end_to_end() {
        let mut config = PipelineConfig::fast();
        config.evaluation_images = 4;
        let pipeline = Pipeline::new(config).unwrap();
        let model = zoo::tiny_cnn(10, 7).unwrap();
        let result = pipeline.run_model(&model).unwrap();

        assert_eq!(result.runs.len(), 4);
        assert_eq!(result.model_name, "tiny_cnn");
        assert!(result.utilization() > 0.5 && result.utilization() <= 1.0);
        let fidelity = result.fidelity.expect("fidelity requested");
        assert!(fidelity.top1_agreement >= 0.5);

        let hybrid = result.speedup(SparsityConfig::HybridSparsity);
        let weight = result.speedup(SparsityConfig::WeightSparsity);
        let input = result.speedup(SparsityConfig::InputSparsity);
        assert!(weight > 1.0, "weight speedup {weight}");
        assert!(input > 1.0, "input speedup {input}");
        assert!(hybrid >= weight, "hybrid {hybrid} vs weight {weight}");
        assert!(result.energy_saving(SparsityConfig::HybridSparsity) > 0.2);
        assert!(result.run(SparsityConfig::DenseBaseline).is_some());
        assert_eq!(result.speedup(SparsityConfig::DenseBaseline), 1.0);
    }

    #[test]
    fn fidelity_can_be_skipped() {
        let config = PipelineConfig::fast().without_fidelity();
        let pipeline = Pipeline::new(config).unwrap();
        let model = zoo::tiny_cnn(10, 9).unwrap();
        let result = pipeline.run_model(&model).unwrap();
        assert!(result.fidelity.is_none());
        assert_eq!(result.runs.len(), 4);
    }
}
