//! Simulation sessions and batched, parallel sweeps.
//!
//! Every experiment in the paper's evaluation section is a sweep: models ×
//! sparsity configurations (× architecture geometries). Before this module
//! existed, each experiment binary re-ran the full `model → quantize → FTA →
//! compile → simulate` pipeline per point, recomputing the expensive
//! model-side stages four times per model (once per Fig. 7 configuration).
//!
//! The session layer splits the pipeline at its natural seam:
//!
//! * [`ModelArtifacts`] — everything that depends only on the model and the
//!   [`PipelineConfig`]: the quantized model, its FTA approximation,
//!   sparsity statistics, the measured input-sparsity profile, and lazily
//!   compiled per-architecture dense/DB-PIM programs. Prepared **once**,
//!   simulated many times.
//! * [`SimSession`] — one cache of artifacts keyed on (model, operand
//!   width, pruning), under one LRU bound, shared by every consumer
//!   (experiment binaries, examples, benches, the serving daemon). Every
//!   variant of a zoo model shares one float model, built once.
//! * [`BatchRunner`] — executes a [`SweepSpec`] (models × sparsity × arch ×
//!   operand width × pruning) as a list of [`DsePoint`]s, in parallel over
//!   scoped std threads (see [`par`]; rayon is unavailable in the offline
//!   build environment), and returns a structured [`SweepReport`].
//!   Persisted, resumable and merged point sets are
//!   [`DseReport`](crate::DseReport)s.
//!
//! Results are bit-identical to independent [`Pipeline`](crate::Pipeline)
//! runs — [`Pipeline::run_model`](crate::Pipeline::run_model) itself is a
//! thin wrapper over [`ModelArtifacts`] — which the workspace test
//! `session_sweep.rs` asserts.

pub mod par;

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use dbpim_arch::ArchConfig;
use dbpim_compiler::{
    extract_workloads, extract_workloads_with_value_sparsity, Compiler, InputSparsityProfile,
    MappingMode, ModelProgram, ModelWorkloads,
};
use dbpim_csd::OperandWidth;
use dbpim_fta::stats::ModelFtaStats;
use dbpim_fta::{evaluate_fidelity, FidelityReport, ModelApprox};
use dbpim_nn::{Model, ModelKind, ModelSummary, QuantizedModel};
use dbpim_sim::{RunReport, SimConfig, Simulator, SparsityConfig};
use dbpim_tensor::random::TensorGenerator;
use dbpim_tensor::PruningSpec;
use serde::value::{get_field, type_error, Value};
use serde::{Deserialize, Error, Serialize};

use crate::dse::{first_seen, DsePoint, PointAxes};
use crate::error::PipelineError;
use crate::measure::measure_input_sparsity;
use crate::pipeline::{CodesignResult, PipelineConfig};

/// A snapshot of a cache's hit/miss counters.
///
/// "Artifacts" count [`ModelArtifacts`] preparations (the expensive
/// quantize → FTA → measure → extract stages); "programs" count per-geometry
/// compilations inside prepared artifacts. A *miss* is an actual build, so
/// `artifact_misses` equals the number of times the pipeline front end ran —
/// the serving layer asserts warm-cache behaviour against exactly these
/// numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionCacheStats {
    /// Artifact requests answered from cache.
    pub artifact_hits: u64,
    /// Artifact requests that had to prepare fresh artifacts.
    pub artifact_misses: u64,
    /// Program requests answered from a compiled-program cache.
    pub program_hits: u64,
    /// Program requests that had to compile.
    pub program_misses: u64,
    /// Prepared artifact sets currently resident in the cache.
    pub resident_artifacts: u64,
    /// Prepared artifact sets evicted by the LRU capacity cap (see
    /// [`SimSession::set_cache_capacity`]); `0` while the cache is
    /// unbounded.
    pub artifact_evictions: u64,
}

impl SessionCacheStats {
    /// Total requests observed (artifact and program layers combined).
    #[must_use]
    pub fn total_requests(&self) -> u64 {
        self.artifact_hits + self.artifact_misses + self.program_hits + self.program_misses
    }
}

/// The dense-baseline and DB-PIM instruction streams of one model compiled
/// for one architecture geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelPrograms {
    /// Geometry both programs were compiled for.
    pub arch: ArchConfig,
    /// The dense-baseline mapping.
    pub dense: ModelProgram,
    /// The DB-PIM (FTA weights + metadata) mapping.
    pub sparse: ModelProgram,
}

/// Everything the pipeline derives from one model under one
/// [`PipelineConfig`], shareable across simulation runs.
///
/// Preparation performs the expensive model-side stages exactly once:
/// synthetic calibration data, INT8 quantization, the FTA approximation,
/// sparsity statistics and input-sparsity measurement, plus workload
/// extraction. Compilation is per-architecture and cached on first use;
/// the fidelity evaluation is cached on first request.
#[derive(Debug)]
pub struct ModelArtifacts {
    config: PipelineConfig,
    model: Arc<Model>,
    summary: ModelSummary,
    quantized: QuantizedModel,
    approx: ModelApprox,
    fta_stats: ModelFtaStats,
    input_sparsity: InputSparsityProfile,
    /// Generator state right after the calibration draw; cloning it replays
    /// the exact evaluation batch [`crate::Pipeline::run_model`] would have
    /// drawn inline, keeping lazy fidelity bit-identical.
    eval_gen: TensorGenerator,
    sparse_workloads: ModelWorkloads,
    dense_workloads: ModelWorkloads,
    programs: Mutex<Vec<Arc<ModelPrograms>>>,
    fidelity: Mutex<Option<FidelityReport>>,
    program_hits: AtomicU64,
    program_misses: AtomicU64,
}

impl ModelArtifacts {
    /// Runs the model-side pipeline stages for `model`.
    ///
    /// # Errors
    ///
    /// Propagates failures from any stage (data generation, quantization,
    /// approximation, measurement, workload extraction).
    pub fn prepare(config: &PipelineConfig, model: &Model) -> Result<Self, PipelineError> {
        Self::prepare_shared(config, Arc::new(model.clone()))
    }

    /// [`prepare`](Self::prepare) without cloning an already-shared model.
    ///
    /// # Errors
    ///
    /// Propagates failures from any stage.
    pub fn prepare_shared(
        config: &PipelineConfig,
        model: Arc<Model>,
    ) -> Result<Self, PipelineError> {
        let _span = dbpim_trace::span!(
            "pipeline.prepare",
            model = model.name(),
            width = config.operand_width.bits(),
        );
        config.validate()?;
        let summary = model.summary()?;

        // Value-level pruning happens here, before quantization, so every
        // downstream stage (quantizer, FTA, metadata, compiler, simulator)
        // sees the masked weights. The stored `model` stays the *unpruned*
        // original — cache identity in [`SimSession`] compares against the
        // model the caller handed in. An inactive spec takes the exact
        // historical path: no clone, no masking, bit-identical artifacts.
        let pruned_model;
        let work_model: &Model = if config.pruning.is_active() {
            pruned_model = model.pruned(config.pruning);
            &pruned_model
        } else {
            &model
        };

        // Synthetic calibration batch (same stream the Pipeline always used).
        let input_shape = model.input_shape();
        let (channels, height, width) = (input_shape[0], input_shape[1], input_shape[2]);
        let mut gen = TensorGenerator::new(config.seed ^ 0x5eed);
        let (calibration, _) =
            gen.labelled_batch(config.calibration_images, channels, height, width, config.classes)?;

        // Quantization and FTA approximation. Activations are always INT8;
        // the weight-side approximation runs at the configured operand
        // width. The INT8 path goes through the quantized model exactly as
        // the paper's pipeline always has, so its results stay bit-identical.
        let quantized = {
            let _span = dbpim_trace::span!("pipeline.quantize");
            QuantizedModel::quantize(work_model, &calibration)?
        };
        let approx = {
            let _span = dbpim_trace::span!("pipeline.fta");
            if config.operand_width == OperandWidth::Int8 {
                ModelApprox::from_quantized(&quantized)?
            } else {
                ModelApprox::from_model_wide(work_model, config.operand_width)?
            }
        };
        let fta_stats = ModelFtaStats::from_model(&approx);

        // The evaluation batch (fidelity) comes later and lazily; snapshot
        // the generator so the draw matches the historical inline one.
        let eval_gen = gen.clone();

        // Input bit sparsity (Fig. 2(b)) measured on the calibration batch,
        // then the hardware-facing workloads (dyadic-block metadata) for
        // both mappings.
        let input_sparsity = {
            let _span = dbpim_trace::span!("pipeline.input_sparsity");
            measure_input_sparsity(&quantized, &calibration)?
        };
        let _workloads_span = dbpim_trace::span!("pipeline.workloads");
        // Only the value-pruned flow records per-filter nonzero counts: the
        // counts let the compiler compact DB-PIM tiles, and the unpruned
        // flow must keep its historical tiling bit-for-bit (see
        // `extract_workloads_with_value_sparsity`). The dense baseline
        // always maps nominal filter lengths, so it never records counts.
        let sparse_workloads = if config.pruning.is_active() {
            extract_workloads_with_value_sparsity(work_model, Some(&approx), &input_sparsity)?
        } else {
            extract_workloads(work_model, Some(&approx), &input_sparsity)?
        };
        let dense_workloads = extract_workloads(work_model, None, &input_sparsity)?;
        drop(_workloads_span);

        Ok(Self {
            config: *config,
            model,
            summary,
            quantized,
            approx,
            fta_stats,
            input_sparsity,
            eval_gen,
            sparse_workloads,
            dense_workloads,
            programs: Mutex::new(Vec::new()),
            fidelity: Mutex::new(None),
            program_hits: AtomicU64::new(0),
            program_misses: AtomicU64::new(0),
        })
    }

    /// The configuration the artifacts were prepared under.
    #[must_use]
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The source model.
    #[must_use]
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Parameter / MAC summary of the float model.
    #[must_use]
    pub fn summary(&self) -> &ModelSummary {
        &self.summary
    }

    /// The INT8-quantized model.
    #[must_use]
    pub fn quantized(&self) -> &QuantizedModel {
        &self.quantized
    }

    /// The FTA approximation of every PIM layer.
    #[must_use]
    pub fn approx(&self) -> &ModelApprox {
        &self.approx
    }

    /// FTA sparsity and utilization statistics (Fig. 2(a), Table 3).
    #[must_use]
    pub fn fta_stats(&self) -> &ModelFtaStats {
        &self.fta_stats
    }

    /// Measured block-wise input bit sparsity per PIM layer (Fig. 2(b)).
    #[must_use]
    pub fn input_sparsity(&self) -> &InputSparsityProfile {
        &self.input_sparsity
    }

    /// The compiled dense + DB-PIM programs for `arch`, compiling (both
    /// mappings, exactly once per geometry) on first use.
    ///
    /// # Errors
    ///
    /// Propagates compilation failures.
    pub fn programs(&self, arch: ArchConfig) -> Result<Arc<ModelPrograms>, PipelineError> {
        let mut cache = self.programs.lock().expect("program cache lock");
        if let Some(found) = cache.iter().find(|p| p.arch == arch) {
            self.program_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(found));
        }
        self.program_misses.fetch_add(1, Ordering::Relaxed);
        let _span = dbpim_trace::span!(
            "pipeline.compile",
            model = self.model.name(),
            macros = arch.macros,
            rows = arch.rows_per_dbmu,
        );
        let compiler = Compiler::with_width(arch, self.config.operand_width)?;
        let sparse = compiler.compile(&self.sparse_workloads, MappingMode::DbPim)?;
        let dense = compiler.compile(&self.dense_workloads, MappingMode::Dense)?;
        let programs = Arc::new(ModelPrograms { arch, dense, sparse });
        cache.push(Arc::clone(&programs));
        Ok(programs)
    }

    /// Simulates one sparsity configuration on one geometry, reusing the
    /// cached compiled programs.
    ///
    /// # Errors
    ///
    /// Propagates compilation or simulation failures.
    pub fn simulate(
        &self,
        arch: ArchConfig,
        sparsity: SparsityConfig,
    ) -> Result<RunReport, PipelineError> {
        let programs = self.programs(arch)?;
        let _span = dbpim_trace::span!(
            "pipeline.simulate",
            model = self.model.name(),
            sparsity = sparsity.label(),
        );
        let mut sim_config = SimConfig::new(sparsity);
        sim_config.arch = arch;
        let simulator = Simulator::new(sim_config)?;
        let program = if sparsity.weight_sparsity() { &programs.sparse } else { &programs.dense };
        Ok(simulator.simulate(program)?)
    }

    /// The fidelity report (Table 2 substitute), evaluated on first request
    /// and cached.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::BadConfig`] when the configuration disables
    /// the fidelity evaluation (`evaluation_images == 0`) or runs at a
    /// non-INT8 operand width (the quantized executor is INT8-only), and
    /// propagates evaluation failures.
    pub fn fidelity(&self) -> Result<FidelityReport, PipelineError> {
        if self.config.evaluation_images == 0 {
            return Err(PipelineError::BadConfig {
                reason: "fidelity requested but evaluation_images is 0".to_string(),
            });
        }
        if self.config.operand_width != OperandWidth::Int8 {
            return Err(PipelineError::BadConfig {
                reason: format!(
                    "fidelity is only defined for the INT8 executor, not {}",
                    self.config.operand_width
                ),
            });
        }
        let mut cache = self.fidelity.lock().expect("fidelity cache lock");
        if let Some(report) = cache.as_ref() {
            return Ok(*report);
        }
        let _span = dbpim_trace::span!("pipeline.fidelity", model = self.model.name());
        let input_shape = self.model.input_shape();
        let mut gen = self.eval_gen.clone();
        let (eval_images, eval_labels) = gen.labelled_batch(
            self.config.evaluation_images,
            input_shape[0],
            input_shape[1],
            input_shape[2],
            self.config.classes,
        )?;
        let fta_model = self.approx.apply(&self.quantized)?;
        let report = evaluate_fidelity(&self.quantized, &fta_model, &eval_images, &eval_labels)?;
        *cache = Some(report);
        Ok(report)
    }

    /// Assembles the classic [`CodesignResult`] from the cached artifacts:
    /// one run per requested sparsity configuration (canonical
    /// [`SparsityConfig::all`] order) on the configured geometry.
    ///
    /// # Errors
    ///
    /// Propagates simulation or fidelity failures.
    pub fn codesign_result(
        &self,
        sparsity: &[SparsityConfig],
        with_fidelity: bool,
    ) -> Result<CodesignResult, PipelineError> {
        self.codesign_result_for_arch(self.config.arch, sparsity, with_fidelity)
    }

    /// [`codesign_result`](Self::codesign_result) on an explicit geometry
    /// instead of the configured one.
    ///
    /// # Errors
    ///
    /// Propagates simulation or fidelity failures.
    pub fn codesign_result_for_arch(
        &self,
        arch: ArchConfig,
        sparsity: &[SparsityConfig],
        with_fidelity: bool,
    ) -> Result<CodesignResult, PipelineError> {
        let fidelity = if with_fidelity
            && self.config.evaluation_images > 0
            && self.config.operand_width == OperandWidth::Int8
        {
            Some(self.fidelity()?)
        } else {
            None
        };
        let mut runs = Vec::with_capacity(sparsity.len());
        for config in SparsityConfig::all() {
            if sparsity.contains(&config) {
                runs.push(self.simulate(arch, config)?);
            }
        }
        Ok(CodesignResult {
            model_name: self.model.name().to_string(),
            summary: self.summary.clone(),
            fta_stats: self.fta_stats.clone(),
            fidelity,
            input_sparsity: self.input_sparsity.clone(),
            runs,
        })
    }
}

/// One float-model slot: built exactly once, concurrent requests for the
/// same kind wait on the slot instead of duplicating the build.
type ModelSlot = Arc<Mutex<Option<Arc<Model>>>>;

/// One artifact-cache slot: filled exactly once, concurrent requests for the
/// same key wait on the slot instead of duplicating the preparation. The
/// recency stamp orders filled slots for LRU eviction when a capacity cap is
/// configured.
#[derive(Debug, Default)]
struct ArtifactSlotEntry {
    cell: Mutex<Option<Arc<ModelArtifacts>>>,
    /// Logical time of the last hit or fill (from [`SimSession::clock`]);
    /// the smallest stamp among filled slots is the eviction victim.
    last_used: AtomicU64,
}

type ArtifactSlot = Arc<ArtifactSlotEntry>;

/// An artifact-cache key: model name, operand width (bits) and the
/// canonical pruning spec's [`key_bits`](PruningSpec::key_bits) — the spec
/// itself holds an `f64` and cannot be hashed.
type ArtifactKey = (String, u32, (u8, u64));

/// The shared cache of prepared pipeline artifacts, keyed on (model,
/// operand width, pruning).
///
/// [`artifacts`](Self::artifacts) reads the configured variant and
/// [`artifacts_at`](Self::artifacts_at) any other; a variant prepares under
/// the session configuration with only its width and pruning replaced.
/// Every variant of a zoo model shares one float [`Model`], built once per
/// kind.
///
/// Sessions are cheap to create and thread-safe to share: artifact
/// preparation happens on first request per key and every later consumer
/// (another experiment table, another sparsity configuration, another
/// thread) reuses the cached value. Preparation is *single-flight*: N
/// concurrent requests for the same key perform exactly one build — the
/// others block on the key's cache slot and receive the shared artifacts —
/// while requests for different keys proceed in parallel (the slot map
/// itself is behind a read-mostly [`RwLock`]). One LRU capacity (see
/// [`Self::set_cache_capacity`]) bounds every slot. [`Self::cache_stats`]
/// snapshots the hit/miss counters, which the serving layer exposes over the
/// wire.
#[derive(Debug)]
pub struct SimSession {
    config: PipelineConfig,
    models: Mutex<HashMap<ModelKind, ModelSlot>>,
    artifacts: RwLock<HashMap<ArtifactKey, ArtifactSlot>>,
    artifact_hits: AtomicU64,
    artifact_misses: AtomicU64,
    /// Maximum number of *filled* artifact slots kept resident;
    /// `usize::MAX` means unbounded (the historical behaviour).
    capacity: AtomicUsize,
    /// Logical clock stamping artifact hits/fills for LRU ordering.
    clock: AtomicU64,
    artifact_evictions: AtomicU64,
    /// Program counters of evicted artifact sets, folded in at eviction
    /// time so [`Self::cache_stats`] totals never decrease when a model
    /// leaves the cache.
    evicted_program_hits: AtomicU64,
    evicted_program_misses: AtomicU64,
}

impl SimSession {
    /// Creates a session.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::BadConfig`] for unusable configurations.
    pub fn new(config: PipelineConfig) -> Result<Self, PipelineError> {
        config.validate()?;
        Ok(Self {
            config,
            models: Mutex::new(HashMap::new()),
            artifacts: RwLock::new(HashMap::new()),
            artifact_hits: AtomicU64::new(0),
            artifact_misses: AtomicU64::new(0),
            capacity: AtomicUsize::new(usize::MAX),
            clock: AtomicU64::new(0),
            artifact_evictions: AtomicU64::new(0),
            evicted_program_hits: AtomicU64::new(0),
            evicted_program_misses: AtomicU64::new(0),
        })
    }

    /// Caps the number of prepared artifact sets kept resident, over every
    /// (model, width, pruning) key: once more than `cap` slots are filled,
    /// the least-recently-used one is evicted (and counted in
    /// [`SessionCacheStats::artifact_evictions`]). `None` removes the cap; a
    /// cap of `0` is clamped to `1` — a session that can cache nothing would
    /// silently degrade every request to a cold build.
    ///
    /// In-flight users of an evicted artifact set keep their `Arc` and are
    /// unaffected; the next request for that key simply rebuilds.
    pub fn set_cache_capacity(&self, cap: Option<usize>) {
        self.capacity.store(cap.map_or(usize::MAX, |c| c.max(1)), Ordering::Relaxed);
    }

    /// The configured artifact-cache capacity (`None` = unbounded).
    #[must_use]
    pub fn cache_capacity(&self) -> Option<usize> {
        match self.capacity.load(Ordering::Relaxed) {
            usize::MAX => None,
            cap => Some(cap),
        }
    }

    /// Stamps a slot as just-used for LRU ordering.
    fn touch(&self, slot: &ArtifactSlotEntry) {
        let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        slot.last_used.store(now, Ordering::Relaxed);
    }

    /// Evicts least-recently-used filled slots until at most the configured
    /// capacity remain. `keep` names the slot that must survive (the one the
    /// caller just filled and still holds locked — its cell `try_lock` fails,
    /// so it is invisible to the candidate scan and exempted by key).
    fn enforce_capacity(&self, keep: &ArtifactKey) {
        let cap = self.capacity.load(Ordering::Relaxed);
        if cap == usize::MAX {
            return;
        }
        let mut cache = self.artifacts.write().expect("artifact cache lock");
        loop {
            // Filled slots other than `keep` that are not mid-preparation
            // (an un-lockable cell is either being filled or being read;
            // both make it a poor eviction victim right now). The victim's
            // artifacts are captured here so its program counters can be
            // folded into the session-level accumulators — evicting a model
            // must never make the cache statistics go backwards.
            let mut victim: Option<(ArtifactKey, u64, Arc<ModelArtifacts>)> = None;
            let mut filled_others = 0usize;
            for (key, slot) in cache.iter() {
                if key == keep {
                    continue;
                }
                let Ok(guard) = slot.cell.try_lock() else { continue };
                if let Some(artifacts) = guard.as_ref() {
                    filled_others += 1;
                    let stamp = slot.last_used.load(Ordering::Relaxed);
                    if victim.as_ref().is_none_or(|(_, best, _)| stamp < *best) {
                        victim = Some((key.clone(), stamp, Arc::clone(artifacts)));
                    }
                }
            }
            // `keep` itself occupies one capacity unit.
            if filled_others < cap {
                return;
            }
            let Some((key, _, artifacts)) = victim else { return };
            cache.remove(&key);
            self.evicted_program_hits
                .fetch_add(artifacts.program_hits.load(Ordering::Relaxed), Ordering::Relaxed);
            self.evicted_program_misses
                .fetch_add(artifacts.program_misses.load(Ordering::Relaxed), Ordering::Relaxed);
            self.artifact_evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The session configuration.
    #[must_use]
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The float zoo model for `kind` (honours the configured width
    /// multiplier, classes and seed), built once and shared by every
    /// (width, pruning) variant. The build is single-flight: concurrent
    /// requests for one kind wait for the first.
    ///
    /// # Errors
    ///
    /// Propagates model-construction failures.
    pub fn model(&self, kind: ModelKind) -> Result<Arc<Model>, PipelineError> {
        let slot =
            Arc::clone(self.models.lock().expect("model cache lock").entry(kind).or_default());
        let mut model = slot.lock().expect("model slot lock");
        if let Some(built) = model.as_ref() {
            return Ok(Arc::clone(built));
        }
        let built = Arc::new(kind.build_with_width(
            self.config.classes,
            self.config.seed,
            self.config.width_mult,
        )?);
        *model = Some(Arc::clone(&built));
        Ok(built)
    }

    /// The prepared artifacts for a zoo model at the configured width and
    /// pruning (cached).
    ///
    /// # Errors
    ///
    /// Propagates preparation failures.
    pub fn artifacts(&self, kind: ModelKind) -> Result<Arc<ModelArtifacts>, PipelineError> {
        self.artifacts_at(kind, self.config.operand_width, self.config.pruning)
    }

    /// The prepared artifacts for a zoo model at an explicit operand width
    /// and pruning spec (cached), prepared under the session configuration
    /// with only those two replaced.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::BadConfig`] for an invalid pruning spec and
    /// propagates preparation failures.
    pub fn artifacts_at(
        &self,
        kind: ModelKind,
        width: OperandWidth,
        pruning: PruningSpec,
    ) -> Result<Arc<ModelArtifacts>, PipelineError> {
        let config = self.config.with_operand_width(width).with_pruning(pruning);
        config.validate()?;
        let model = self.model(kind)?;
        self.lookup(&config, &model, || Arc::clone(&model))
    }

    /// The prepared artifacts for an arbitrary (non-zoo) model at the
    /// configured width and pruning, cached by model name. A cache hit is
    /// validated against the requested model, so two distinct models sharing
    /// a name cannot receive each other's results — the mismatching one is
    /// prepared fresh, uncached.
    ///
    /// # Errors
    ///
    /// Propagates preparation failures.
    pub fn artifacts_for_model(&self, model: &Model) -> Result<Arc<ModelArtifacts>, PipelineError> {
        // A warm hit compares against the borrowed model and never pays
        // the full weight-tensor clone a build needs.
        self.lookup(&self.config, model, || Arc::new(model.clone()))
    }

    /// The cache slot for `key`, inserting an empty one if absent. Readers
    /// share the map lock; only the first request for a new key takes the
    /// write lock.
    fn artifact_slot(&self, key: &ArtifactKey) -> ArtifactSlot {
        if let Some(slot) = self.artifacts.read().expect("artifact cache lock").get(key) {
            return Arc::clone(slot);
        }
        let mut cache = self.artifacts.write().expect("artifact cache lock");
        Arc::clone(cache.entry(key.clone()).or_default())
    }

    /// The one single-flight lookup behind every artifact request: the
    /// artifacts of `model` under `config` (whose width and pruning pick the
    /// slot), prepared from `share()` on a miss.
    fn lookup(
        &self,
        config: &PipelineConfig,
        model: &Model,
        share: impl FnOnce() -> Arc<Model>,
    ) -> Result<Arc<ModelArtifacts>, PipelineError> {
        let key = (
            model.name().to_string(),
            config.operand_width.bits(),
            config.pruning.canonical().key_bits(),
        );
        let slot = self.artifact_slot(&key);
        // Holding the slot lock during preparation makes the build
        // single-flight per key: a concurrent duplicate request waits here
        // and receives the shared artifacts instead of re-preparing.
        // Different keys use different slots, so they still prepare in
        // parallel.
        let mut guard = slot.cell.lock().expect("artifact slot lock");
        let filled_with_other_model = match guard.as_ref() {
            // Variants of a zoo model share one float model, so identity
            // settles most hits without comparing every weight.
            Some(found) if std::ptr::eq(found.model(), model) || found.model() == model => {
                self.artifact_hits.fetch_add(1, Ordering::Relaxed);
                self.touch(&slot);
                return Ok(Arc::clone(found));
            }
            Some(_) => true,
            None => false,
        };
        self.artifact_misses.fetch_add(1, Ordering::Relaxed);
        if filled_with_other_model {
            // Same name, different graph/weights: don't reuse and don't
            // evict the existing entry — prepare a one-off, outside the
            // slot lock so warm hits for the cached model keep flowing.
            drop(guard);
            return Ok(Arc::new(ModelArtifacts::prepare_shared(config, share())?));
        }
        let prepared = Arc::new(ModelArtifacts::prepare_shared(config, share())?);
        *guard = Some(Arc::clone(&prepared));
        self.touch(&slot);
        // The fill may have pushed the cache over its LRU cap; the slot lock
        // is still held, so the freshly filled entry is exempt by key and
        // invisible to the victim scan.
        self.enforce_capacity(&key);
        Ok(prepared)
    }

    /// A snapshot of the session's cache counters.
    ///
    /// Program counters aggregate over every resident artifact set plus the
    /// fold-in of every evicted one, so totals are monotone even under an
    /// LRU cap. A slot whose preparation is still in flight is skipped (its
    /// counters are all zero anyway) so the snapshot never blocks behind a
    /// running build.
    #[must_use]
    pub fn cache_stats(&self) -> SessionCacheStats {
        let mut stats = SessionCacheStats {
            artifact_hits: self.artifact_hits.load(Ordering::Relaxed),
            artifact_misses: self.artifact_misses.load(Ordering::Relaxed),
            artifact_evictions: self.artifact_evictions.load(Ordering::Relaxed),
            program_hits: self.evicted_program_hits.load(Ordering::Relaxed),
            program_misses: self.evicted_program_misses.load(Ordering::Relaxed),
            ..SessionCacheStats::default()
        };
        for slot in self.artifacts.read().expect("artifact cache lock").values() {
            let Ok(guard) = slot.cell.try_lock() else { continue };
            if let Some(artifacts) = guard.as_ref() {
                stats.resident_artifacts += 1;
                stats.program_hits += artifacts.program_hits.load(Ordering::Relaxed);
                stats.program_misses += artifacts.program_misses.load(Ordering::Relaxed);
            }
        }
        stats
    }

    /// Runs the full co-design flow for one zoo model: all four sparsity
    /// configurations, optional fidelity.
    ///
    /// # Errors
    ///
    /// Propagates any stage failure.
    pub fn codesign(
        &self,
        kind: ModelKind,
        with_fidelity: bool,
    ) -> Result<CodesignResult, PipelineError> {
        self.artifacts(kind)?.codesign_result(&SparsityConfig::all(), with_fidelity)
    }

    /// Runs the full co-design flow for an arbitrary model.
    ///
    /// # Errors
    ///
    /// Propagates any stage failure.
    pub fn codesign_model(
        &self,
        model: &Model,
        with_fidelity: bool,
    ) -> Result<CodesignResult, PipelineError> {
        self.artifacts_for_model(model)?.codesign_result(&SparsityConfig::all(), with_fidelity)
    }
}

/// The point set of a sweep: models × sparsity configurations ×
/// architecture geometries × operand widths × pruning specs.
///
/// Specs serialize (vendored serde_json), so a sweep request can travel over
/// the wire to a serving daemon or be persisted next to its report. The
/// serializer is hand-written: the `pruning` axis is omitted when empty and
/// tolerated when absent, so specs produced before the axis existed — and
/// specs that simply don't prune — keep their historical wire bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Zoo models to sweep (duplicates are executed once).
    pub models: Vec<ModelKind>,
    /// Sparsity configurations per model (duplicates are executed once).
    pub sparsity: Vec<SparsityConfig>,
    /// Geometries to compile and simulate for; empty means "the session's
    /// configured architecture".
    pub archs: Vec<ArchConfig>,
    /// Weight operand widths to sweep; empty means "the session's
    /// configured width". Non-INT8 widths skip the fidelity evaluation.
    pub widths: Vec<OperandWidth>,
    /// Value-level pruning specs to sweep (the joint value/bit sparsity
    /// axis); empty means "the session's configured pruning" — by default
    /// the identity spec, i.e. the classic unpruned sweep.
    pub pruning: Vec<PruningSpec>,
}

impl Serialize for SweepSpec {
    fn to_value(&self) -> Value {
        let mut entries = vec![
            ("models".to_string(), self.models.to_value()),
            ("sparsity".to_string(), self.sparsity.to_value()),
            ("archs".to_string(), self.archs.to_value()),
            ("widths".to_string(), self.widths.to_value()),
        ];
        if !self.pruning.is_empty() {
            entries.push(("pruning".to_string(), self.pruning.to_value()));
        }
        Value::Map(entries)
    }
}

impl Deserialize for SweepSpec {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let entries = value.as_map().ok_or_else(|| type_error("sweep spec map", value))?;
        let field = |name: &str| {
            get_field(entries, name).ok_or_else(|| Error::custom(format!("missing field `{name}`")))
        };
        Ok(Self {
            models: Vec::from_value(field("models")?)?,
            sparsity: Vec::from_value(field("sparsity")?)?,
            archs: Vec::from_value(field("archs")?)?,
            widths: Vec::from_value(field("widths")?)?,
            pruning: match get_field(entries, "pruning") {
                Some(found) => Vec::from_value(found)?,
                None => Vec::new(),
            },
        })
    }
}

impl SweepSpec {
    /// A sweep of the given models over all four Fig. 7 sparsity
    /// configurations on the session geometry.
    #[must_use]
    pub fn new(models: Vec<ModelKind>) -> Self {
        Self {
            models,
            sparsity: SparsityConfig::all().to_vec(),
            archs: Vec::new(),
            widths: Vec::new(),
            pruning: Vec::new(),
        }
    }

    /// The paper's evaluation sweep: all five zoo models × all four
    /// sparsity configurations.
    #[must_use]
    pub fn zoo() -> Self {
        Self::new(ModelKind::all().to_vec())
    }

    /// Restricts the sparsity configurations.
    #[must_use]
    pub fn with_sparsity(mut self, sparsity: Vec<SparsityConfig>) -> Self {
        self.sparsity = sparsity;
        self
    }

    /// Adds explicit architecture geometries.
    #[must_use]
    pub fn with_archs(mut self, archs: Vec<ArchConfig>) -> Self {
        self.archs = archs;
        self
    }

    /// Adds explicit operand widths (the precision axis).
    #[must_use]
    pub fn with_widths(mut self, widths: Vec<OperandWidth>) -> Self {
        self.widths = widths;
        self
    }

    /// Adds explicit pruning specs (the value-sparsity axis).
    #[must_use]
    pub fn with_pruning(mut self, pruning: Vec<PruningSpec>) -> Self {
        self.pruning = pruning;
        self
    }

    /// The spec's model, sparsity, width and pruning axes.
    #[must_use]
    pub fn axes(&self) -> PointAxes<'_> {
        PointAxes {
            models: &self.models,
            sparsity: &self.sparsity,
            widths: &self.widths,
            pruning: &self.pruning,
        }
    }

    /// The geometries the sweep actually runs: the explicit list (deduped,
    /// in request order), or `session_arch` when none were given.
    #[must_use]
    pub fn effective_archs(&self, session_arch: ArchConfig) -> Vec<ArchConfig> {
        if self.archs.is_empty() {
            return vec![session_arch];
        }
        first_seen(&self.archs)
    }

    /// Every (model, width, pruning, geometry) point of the sweep in
    /// canonical order (see [`PointAxes::points`]), geometries from
    /// [`effective_archs`](Self::effective_archs); unset axes take the
    /// `session` configuration's value.
    #[must_use]
    pub fn points(&self, session: &PipelineConfig) -> Vec<DsePoint> {
        self.axes().points(
            &self.effective_archs(session.arch),
            session.operand_width,
            session.pruning,
        )
    }
}

/// One (model, width, pruning, geometry) result of a sweep.
///
/// Serialization is hand-written so an identity `pruning` spec is omitted —
/// unpruned sweep reports stay byte-identical to reports written before the
/// pruning axis existed, and old reports load with `pruning` defaulting to
/// [`PruningSpec::none`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepEntry {
    /// The swept model.
    pub kind: ModelKind,
    /// The weight operand width this entry was approximated and compiled at.
    pub width: OperandWidth,
    /// The value-level pruning applied before quantization (the identity
    /// spec for classic unpruned sweeps).
    pub pruning: PruningSpec,
    /// The geometry this entry was compiled and simulated for.
    pub arch: ArchConfig,
    /// The co-design result; `runs` holds the requested sparsity
    /// configurations in canonical [`SparsityConfig::all`] order.
    pub result: CodesignResult,
}

impl Serialize for SweepEntry {
    fn to_value(&self) -> Value {
        let mut entries = vec![
            ("kind".to_string(), self.kind.to_value()),
            ("width".to_string(), self.width.to_value()),
            ("arch".to_string(), self.arch.to_value()),
            ("result".to_string(), self.result.to_value()),
        ];
        if self.pruning.is_active() {
            entries.push(("pruning".to_string(), self.pruning.to_value()));
        }
        Value::Map(entries)
    }
}

impl Deserialize for SweepEntry {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let entries = value.as_map().ok_or_else(|| type_error("sweep entry map", value))?;
        let field = |name: &str| {
            get_field(entries, name).ok_or_else(|| Error::custom(format!("missing field `{name}`")))
        };
        Ok(Self {
            kind: ModelKind::from_value(field("kind")?)?,
            width: OperandWidth::from_value(field("width")?)?,
            pruning: match get_field(entries, "pruning") {
                Some(found) => PruningSpec::from_value(found)?,
                None => PruningSpec::none(),
            },
            arch: ArchConfig::from_value(field("arch")?)?,
            result: CodesignResult::from_value(field("result")?)?,
        })
    }
}

/// The structured outcome of a [`BatchRunner`] sweep.
///
/// Reports serialize through the vendored `serde_json`. Persisted,
/// resumable and merged point sets are [`DseReport`](crate::DseReport)s:
/// run the point set as a [`DseSpec`](crate::DseSpec) through a
/// [`DseDriver`](crate::DseDriver).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// One entry per (model, width, pruning, geometry), in spec order
    /// (models outer, then widths, then pruning specs, then archs).
    pub entries: Vec<SweepEntry>,
    /// Wall-clock duration of the sweep.
    pub wall_time: Duration,
    /// Distinct (model, width, pruning) artifact sets prepared.
    pub prepared_models: usize,
    /// Simulation runs executed.
    pub simulated_runs: usize,
}

impl SweepReport {
    /// `true` when the sweep contained no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The result for `kind` on the first swept width and geometry.
    #[must_use]
    pub fn result(&self, kind: ModelKind) -> Option<&CodesignResult> {
        self.entries.iter().find(|e| e.kind == kind).map(|e| &e.result)
    }

    /// The result for `kind` at a specific operand width (first swept
    /// geometry).
    #[must_use]
    pub fn result_at_width(&self, kind: ModelKind, width: OperandWidth) -> Option<&CodesignResult> {
        self.entries.iter().find(|e| e.kind == kind && e.width == width).map(|e| &e.result)
    }

    /// All results in entry order.
    pub fn results(&self) -> impl Iterator<Item = &CodesignResult> {
        self.entries.iter().map(|e| &e.result)
    }
}

/// Executes [`SweepSpec`]s against a shared [`SimSession`], in parallel.
///
/// A sweep is a list of [`DsePoint`]s, and every point runs through
/// [`run_point_pruned`](Self::run_point_pruned), the path the DSE driver,
/// the fleet and the serving daemon use too. Points fan out over worker
/// threads; the session's single-flight cache prepares each (model, width,
/// pruning) artifact set once, and the dense and DB-PIM programs are each
/// compiled once per (model, width, pruning, geometry) and reused across
/// every sparsity configuration.
#[derive(Debug)]
pub struct BatchRunner {
    session: SimSession,
    threads: usize,
}

impl BatchRunner {
    /// Creates a runner with a fresh session and one worker per hardware
    /// thread.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::BadConfig`] for unusable configurations.
    pub fn new(config: PipelineConfig) -> Result<Self, PipelineError> {
        Ok(Self::from_session(SimSession::new(config)?))
    }

    /// Wraps an existing session.
    #[must_use]
    pub fn from_session(session: SimSession) -> Self {
        Self { session, threads: par::default_parallelism() }
    }

    /// Overrides the worker-thread count (`1` forces sequential execution).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Caps the session's artifact cache at `cap` resident artifact sets,
    /// one bound for the whole process across every (model, width, pruning)
    /// key, LRU-evicting beyond it (see [`SimSession::set_cache_capacity`]);
    /// `None` restores the unbounded default.
    #[must_use]
    pub fn with_cache_cap(self, cap: Option<usize>) -> Self {
        self.session.set_cache_capacity(cap);
        self
    }

    /// The underlying session (the shared artifact cache).
    #[must_use]
    pub fn session(&self) -> &SimSession {
        &self.session
    }

    /// The session's cache counters.
    #[must_use]
    pub fn cache_stats(&self) -> SessionCacheStats {
        self.session.cache_stats()
    }

    /// Runs one (model, width, geometry) sweep point and returns its entry,
    /// reusing every cached artifact. `arch == None` means "the session's
    /// configured geometry". A full [`Self::run_with_fidelity`] sweep runs
    /// each of its points through here too.
    ///
    /// # Errors
    ///
    /// Propagates any stage failure.
    pub fn run_point(
        &self,
        kind: ModelKind,
        width: OperandWidth,
        arch: Option<ArchConfig>,
        sparsity: &[SparsityConfig],
        with_fidelity: bool,
    ) -> Result<SweepEntry, PipelineError> {
        self.run_point_pruned(
            kind,
            width,
            self.session.config().pruning,
            arch,
            sparsity,
            with_fidelity,
        )
    }

    /// [`run_point`](Self::run_point) at an explicit pruning spec instead of
    /// the session's configured one — the joint value/bit sparsity entry
    /// point the DSE driver and serving layer dispatch through.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Arch`] before preparing anything when the
    /// geometry is invalid or cannot hold one `width` weight, and propagates
    /// any stage failure.
    pub fn run_point_pruned(
        &self,
        kind: ModelKind,
        width: OperandWidth,
        pruning: PruningSpec,
        arch: Option<ArchConfig>,
        sparsity: &[SparsityConfig],
        with_fidelity: bool,
    ) -> Result<SweepEntry, PipelineError> {
        let _span = dbpim_trace::span!(
            "batch.point",
            model = kind.name(),
            width = width.bits(),
            fidelity = with_fidelity,
        );
        let config = self.session.config();
        let arch = arch.unwrap_or(config.arch);
        arch.validate_for(width)?;
        let artifacts = self.session.artifacts_at(kind, width, pruning)?;
        let fidelity = with_fidelity && config.evaluation_images > 0;
        // codesign_result_for_arch canonicalizes the sparsity order and
        // collapses duplicates itself.
        let result = artifacts.codesign_result_for_arch(arch, sparsity, fidelity)?;
        Ok(SweepEntry { kind, width, pruning, arch, result })
    }

    /// Runs a sweep without fidelity evaluation.
    ///
    /// # Errors
    ///
    /// Propagates the first point failure.
    pub fn run(&self, spec: &SweepSpec) -> Result<SweepReport, PipelineError> {
        self.run_with_fidelity(spec, false)
    }

    /// Runs a sweep, optionally evaluating fidelity per model (honoured only
    /// when the session configuration has evaluation images).
    ///
    /// # Errors
    ///
    /// Propagates the first point failure.
    pub fn run_with_fidelity(
        &self,
        spec: &SweepSpec,
        with_fidelity: bool,
    ) -> Result<SweepReport, PipelineError> {
        let start = Instant::now();
        let axes = spec.axes();
        let models = axes.unique_models();
        let _span =
            dbpim_trace::span!("batch.sweep", models = models.len(), fidelity = with_fidelity);
        let session = self.session.config();
        let archs = spec.effective_archs(session.arch);
        let widths = axes.effective_widths(session.operand_width);
        let prunings = axes.effective_pruning(session.pruning);
        // Reject infeasible (geometry, width) pairs or pruning overrides
        // before any expensive work.
        for arch in &archs {
            for &width in &widths {
                arch.validate_for(width)?;
            }
        }
        for pruning in &prunings {
            pruning.validate().map_err(|reason| PipelineError::BadConfig { reason })?;
        }
        let sparsity = axes.unique_sparsity();
        let entries = par::par_map(spec.points(session), self.threads, |point| {
            self.run_point_pruned(
                point.kind,
                point.width,
                point.pruning,
                Some(point.arch),
                &sparsity,
                with_fidelity,
            )
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
        Ok(SweepReport {
            simulated_runs: entries.len() * sparsity.len(),
            entries,
            wall_time: start.elapsed(),
            prepared_models: models.len() * widths.len() * prunings.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_dedupes_and_keeps_canonical_order() {
        let spec = SweepSpec::new(vec![ModelKind::Vgg19, ModelKind::AlexNet, ModelKind::Vgg19])
            .with_sparsity(vec![
                SparsityConfig::HybridSparsity,
                SparsityConfig::DenseBaseline,
                SparsityConfig::HybridSparsity,
            ]);
        assert_eq!(spec.axes().unique_models(), vec![ModelKind::Vgg19, ModelKind::AlexNet]);
        assert_eq!(
            spec.axes().unique_sparsity(),
            vec![SparsityConfig::DenseBaseline, SparsityConfig::HybridSparsity]
        );
        let archs = spec.effective_archs(ArchConfig::paper());
        assert_eq!(archs, vec![ArchConfig::paper()]);
    }

    #[test]
    fn width_axis_defaults_to_the_session_width_and_dedupes() {
        let spec = SweepSpec::new(vec![ModelKind::AlexNet]);
        assert!(spec.widths.is_empty());
        assert_eq!(spec.axes().effective_widths(OperandWidth::Int8), vec![OperandWidth::Int8]);
        assert_eq!(spec.axes().effective_widths(OperandWidth::Int4), vec![OperandWidth::Int4]);
        let spec = spec.with_widths(vec![
            OperandWidth::Int16,
            OperandWidth::Int4,
            OperandWidth::Int16,
            OperandWidth::Int8,
        ]);
        // Canonical narrow-to-wide order, duplicates executed once.
        assert_eq!(
            spec.axes().effective_widths(OperandWidth::Int8),
            vec![OperandWidth::Int4, OperandWidth::Int8, OperandWidth::Int16]
        );
    }

    #[test]
    fn zoo_spec_covers_all_models_and_configs() {
        let spec = SweepSpec::zoo();
        assert_eq!(spec.models.len(), 5);
        assert_eq!(spec.sparsity.len(), 4);
        assert!(spec.archs.is_empty());
    }

    #[test]
    fn empty_sweep_returns_empty_report() {
        let runner = BatchRunner::new(PipelineConfig::fast()).unwrap();
        let report = runner.run(&SweepSpec::new(Vec::new())).unwrap();
        assert!(report.is_empty());
        assert_eq!(report.prepared_models, 0);
        assert_eq!(report.simulated_runs, 0);
    }

    #[test]
    fn cache_capacity_is_clamped_and_reported() {
        let session = SimSession::new(PipelineConfig::fast()).unwrap();
        assert_eq!(session.cache_capacity(), None, "unbounded by default");
        session.set_cache_capacity(Some(0));
        assert_eq!(session.cache_capacity(), Some(1), "a zero cap would cache nothing");
        session.set_cache_capacity(Some(3));
        assert_eq!(session.cache_capacity(), Some(3));
        session.set_cache_capacity(None);
        assert_eq!(session.cache_capacity(), None);
        assert_eq!(session.cache_stats().artifact_evictions, 0);
    }

    #[test]
    fn session_rejects_bad_config() {
        let mut config = PipelineConfig::fast();
        config.classes = 0;
        assert!(SimSession::new(config).is_err());
        assert!(BatchRunner::new(config).is_err());
    }
}
