//! Simulation sessions and the one point executor.
//!
//! Every experiment in the paper's evaluation section is a point set:
//! models × sparsity configurations (× architecture geometries). Before this
//! module existed, each experiment binary re-ran the full `model → quantize
//! → FTA → compile → simulate` pipeline per point, recomputing the expensive
//! model-side stages four times per model (once per Fig. 7 configuration).
//!
//! The session layer splits the pipeline at its natural seam:
//!
//! * [`ModelArtifacts`] — everything a point reads that depends only on the
//!   model and the [`PipelineConfig`]: sparsity statistics, the measured
//!   input-sparsity profile, both workload sets and the dense/DB-PIM
//!   programs of the most recently compiled geometry. Prepared **once**,
//!   simulated many times. The INT8 model and its FTA approximation
//!   ([`FrontEnd`]) are kept only until a fidelity report is cached, and
//!   not at all when the configuration evaluates no fidelity.
//! * [`SimSession`] — one cache of artifacts keyed on (model, operand
//!   width, pruning), under one LRU bound, shared by every consumer
//!   (experiment binaries, examples, benches, the serving daemon). Every
//!   variant of a zoo model shares one float model, built once.
//! * [`BatchRunner`] — runs one (model, width, pruning, geometry) point
//!   against a shared session and returns its [`SweepEntry`]. Point sets
//!   are [`DseSpec`](crate::DseSpec)s: a
//!   [`DseDriver`](crate::DseDriver) runs their points through the runner
//!   on scoped std threads, each starting on its own contiguous block of
//!   the points ([`PointQueue`](crate::dse::PointQueue), the plan fleet
//!   workers claim from too), and returns, persists and resumes
//!   [`DseReport`](crate::DseReport)s. The paper's one-geometry sweep is a
//!   spec over [`ArchGrid::around`](dbpim_sim::ArchGrid::around) its
//!   geometry.
//!
//! Results are bit-identical to independent [`Pipeline`](crate::Pipeline)
//! runs — [`Pipeline::run_model`](crate::Pipeline::run_model) itself is a
//! thin wrapper over [`ModelArtifacts`] — which the workspace test
//! `session_sweep.rs` asserts.

pub mod par;

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use dbpim_arch::ArchConfig;
use dbpim_compiler::{
    extract_workloads, extract_workloads_with_value_sparsity, Compiler, InputSparsityProfile,
    MappingMode, ModelProgram, ModelWorkloads,
};
use dbpim_csd::OperandWidth;
use dbpim_fta::stats::ModelFtaStats;
use dbpim_fta::{evaluate_fidelity, FidelityReport, ModelApprox};
use dbpim_nn::{fold_batch_norm, Model, ModelKind, ModelSummary, QuantizedModel};
use dbpim_sim::{RunReport, SimConfig, Simulator, SparsityConfig};
use dbpim_tensor::random::TensorGenerator;
use dbpim_tensor::{PruningSpec, Tensor};
use serde::de::{self, Reader};
use serde::ser::Writer;
use serde::{Deserialize, Error, Serialize};

use self::par::lock_unpoisoned;
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

/// The output of preparation's front end for one model under one
/// [`PipelineConfig`] (see [`ModelArtifacts::front_end`]).
///
/// A prepared model derives its FTA statistics, input-sparsity profile and
/// workloads from it. After that only a fidelity evaluation reads it, so
/// [`ModelArtifacts`] keeps it until its fidelity report is cached, and
/// drops it during preparation when the configuration evaluates none.
#[derive(Debug)]
pub struct FrontEnd {
    /// The INT8-quantized model, pruned when the configuration prunes: the
    /// fidelity baseline.
    pub quantized: QuantizedModel,
    /// The FTA approximation of every PIM layer at the configured operand
    /// width.
    pub approx: ModelApprox,
    /// Generator state right after the calibration draw; cloning it replays
    /// the exact evaluation batch [`crate::Pipeline::run_model`] would have
    /// drawn inline, keeping lazy fidelity bit-identical.
    pub(crate) eval_gen: TensorGenerator,
}

/// A prepared model's fidelity slot.
#[derive(Debug)]
enum FidelitySlot {
    /// The configuration evaluates no fidelity, so nothing is kept for it.
    Disabled,
    /// No report yet: the front end's output waits for the first request.
    /// A request that fails or panics leaves it for the next one.
    Pending(Box<FrontEnd>),
    /// The report, cached; the front end's output is gone.
    Cached(FidelityReport),
}

/// Everything the pipeline derives from one model under one
/// [`PipelineConfig`], shareable across simulation runs.
///
/// Preparation performs the expensive model-side stages exactly once: the
/// [`front_end`](Self::front_end) (synthetic calibration data, INT8
/// quantization and the FTA approximation), then sparsity statistics,
/// input-sparsity measurement and workload extraction. What it keeps is
/// what points read: the statistics, the profile, both workload sets and
/// the float model (shared with every other variant of its kind).
/// Compilation is per-architecture; the most recently compiled geometry
/// stays cached (one slot, so a long exploration holds one program pair per
/// prepared model, not one per geometry ever seen). The fidelity evaluation
/// is cached on first request, and the front end's output is kept only
/// until then.
#[derive(Debug)]
pub struct ModelArtifacts {
    config: PipelineConfig,
    model: Arc<Model>,
    summary: ModelSummary,
    fta_stats: ModelFtaStats,
    input_sparsity: InputSparsityProfile,
    sparse_workloads: ModelWorkloads,
    dense_workloads: ModelWorkloads,
    /// The most recently compiled geometry. Set only after a successful
    /// compile, so a slot recovered from a poisoned lock is still valid.
    programs: Mutex<Option<Arc<ModelPrograms>>>,
    fidelity: Mutex<FidelitySlot>,
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
        let (front, calibration) = Self::front_end(config, &model)?;
        let summary = model.summary()?;
        let fta_stats = ModelFtaStats::from_model(&front.approx);

        // Input bit sparsity (Fig. 2(b)) measured on the calibration batch,
        // then the hardware-facing workloads (dyadic-block metadata) for
        // both mappings.
        let input_sparsity = {
            let _span = dbpim_trace::span!("pipeline.input_sparsity");
            measure_input_sparsity(&front.quantized, &calibration)?
        };
        let _workloads_span = dbpim_trace::span!("pipeline.workloads");
        // Extraction reads the graph's structure, which pruning leaves as it
        // is, and the thresholds and counts from the approximation. Only the
        // value-pruned flow records per-filter nonzero counts: the counts
        // let the compiler compact DB-PIM tiles, and the unpruned flow must
        // keep its historical tiling bit-for-bit (see
        // `extract_workloads_with_value_sparsity`). The dense baseline
        // always maps nominal filter lengths, so it never records counts.
        let sparse_workloads = if config.pruning.is_active() {
            extract_workloads_with_value_sparsity(&model, Some(&front.approx), &input_sparsity)?
        } else {
            extract_workloads(&model, Some(&front.approx), &input_sparsity)?
        };
        let dense_workloads = extract_workloads(&model, None, &input_sparsity)?;
        drop(_workloads_span);

        // Only a fidelity evaluation reads the front end's output again.
        let fidelity = if config.evaluation_images > 0 {
            FidelitySlot::Pending(Box::new(front))
        } else {
            FidelitySlot::Disabled
        };
        Ok(Self {
            config: *config,
            model,
            summary,
            fta_stats,
            input_sparsity,
            sparse_workloads,
            dense_workloads,
            programs: Mutex::new(None),
            fidelity: Mutex::new(fidelity),
            program_hits: AtomicU64::new(0),
            program_misses: AtomicU64::new(0),
        })
    }

    /// Preparation's front end for `model` under `config`: the calibration
    /// draw, the configured value-level pruning, the batch-norm fold, INT8
    /// quantization, then FTA at the configured operand width. Returns the
    /// calibration batch beside it, which preparation measures input
    /// sparsity on.
    ///
    /// [`prepare`](Self::prepare) runs exactly this, so its output is what
    /// a prepared model's statistics and workloads were derived from.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::BadConfig`] for an unusable configuration
    /// and propagates data-generation, quantization and approximation
    /// failures.
    pub fn front_end(
        config: &PipelineConfig,
        model: &Model,
    ) -> Result<(FrontEnd, Vec<Tensor<f32>>), PipelineError> {
        config.validate()?;
        // Synthetic calibration batch (same stream the Pipeline always used).
        let input_shape = model.input_shape();
        let (channels, height, width) = (input_shape[0], input_shape[1], input_shape[2]);
        let mut gen = TensorGenerator::new(config.seed ^ 0x5eed);
        let (calibration, _) =
            gen.labelled_batch(config.calibration_images, channels, height, width, config.classes)?;

        // Quantization and FTA approximation. Activations are always INT8;
        // the weight-side approximation runs at the configured operand
        // width. At INT8 it approximates the weight tensors the quantizer
        // already built; other widths quantize the folded float weights at
        // their width. Value-level pruning comes first, so every later stage
        // sees the masked weights; an inactive spec takes the historical
        // path with no clone, and a prepared model keeps the unpruned
        // original, which cache identity in [`SimSession`] compares
        // against. Batch norms are folded once and the folded model feeds
        // both; it and the pruned copy are whole float models, released
        // before this returns.
        let (folded, quantized) = {
            let _span = dbpim_trace::span!("pipeline.quantize");
            let folded = if config.pruning.is_active() {
                fold_batch_norm(&model.pruned(config.pruning))?
            } else {
                fold_batch_norm(model)?
            };
            let quantized = QuantizedModel::quantize_folded(&folded, &calibration)?;
            (folded, quantized)
        };
        let approx = {
            let _span = dbpim_trace::span!("pipeline.fta");
            if config.operand_width == OperandWidth::Int8 {
                ModelApprox::from_quantized(&quantized)?
            } else {
                ModelApprox::from_folded_wide(&folded, config.operand_width)?
            }
        };
        Ok((FrontEnd { quantized, approx, eval_gen: gen }, calibration))
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

    /// The compiled dense + DB-PIM programs for `arch`: the cached pair when
    /// `arch` is the most recently compiled geometry, else both mappings
    /// compiled now, replacing it. Compilation happens under the slot lock,
    /// so concurrent requests for one geometry compile it once.
    ///
    /// # Errors
    ///
    /// Propagates compilation failures.
    pub fn programs(&self, arch: ArchConfig) -> Result<Arc<ModelPrograms>, PipelineError> {
        let mut slot = lock_unpoisoned(&self.programs);
        if let Some(found) = slot.as_ref().filter(|p| p.arch == arch) {
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
        *slot = Some(Arc::clone(&programs));
        Ok(programs)
    }

    /// Simulates one sparsity configuration on one geometry, fetching its
    /// compiled programs through [`programs`](Self::programs).
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
        self.simulate_programs(&programs, sparsity)
    }

    /// Simulates one sparsity configuration from already-fetched programs.
    fn simulate_programs(
        &self,
        programs: &ModelPrograms,
        sparsity: SparsityConfig,
    ) -> Result<RunReport, PipelineError> {
        let _span = dbpim_trace::span!(
            "pipeline.simulate",
            model = self.model.name(),
            sparsity = sparsity.label(),
        );
        let mut sim_config = SimConfig::new(sparsity);
        sim_config.arch = programs.arch;
        let simulator = Simulator::new(sim_config)?;
        let program = if sparsity.weight_sparsity() { &programs.sparse } else { &programs.dense };
        Ok(simulator.simulate(program)?)
    }

    /// The fidelity report (Table 2 substitute), evaluated on first request
    /// and cached: the FTA model at the configured operand width against
    /// the INT8 baseline, on the same evaluation batch. The first report
    /// cached releases the front end's output it was evaluated from.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::BadConfig`] when the configuration disables
    /// the fidelity evaluation (`evaluation_images == 0`), and propagates
    /// evaluation failures.
    pub fn fidelity(&self) -> Result<FidelityReport, PipelineError> {
        let mut slot = lock_unpoisoned(&self.fidelity);
        let front = match &*slot {
            FidelitySlot::Cached(report) => return Ok(*report),
            FidelitySlot::Pending(front) => front,
            FidelitySlot::Disabled => {
                return Err(PipelineError::BadConfig {
                    reason: "fidelity requested but evaluation_images is 0".to_string(),
                })
            }
        };
        let _span = dbpim_trace::span!("pipeline.fidelity", model = self.model.name());
        let input_shape = self.model.input_shape();
        let mut gen = front.eval_gen.clone();
        let (eval_images, eval_labels) = gen.labelled_batch(
            self.config.evaluation_images,
            input_shape[0],
            input_shape[1],
            input_shape[2],
            self.config.classes,
        )?;
        let fta_model = front.approx.apply(&front.quantized)?;
        let report = evaluate_fidelity(&front.quantized, &fta_model, &eval_images, &eval_labels)?;
        *slot = FidelitySlot::Cached(report);
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
    /// instead of the configured one. The programs are fetched once and
    /// every requested configuration simulates from that one pair, so a
    /// concurrent point on another geometry cannot make this one compile
    /// twice. The result holds pointer copies of the prepared model's
    /// summary, FTA statistics and input-sparsity profile, and its runs
    /// the compiled layers' names: a point allocates its runs and its
    /// model-name strings, nothing of the model's own data.
    ///
    /// # Errors
    ///
    /// Propagates compilation, simulation or fidelity failures.
    pub fn codesign_result_for_arch(
        &self,
        arch: ArchConfig,
        sparsity: &[SparsityConfig],
        with_fidelity: bool,
    ) -> Result<CodesignResult, PipelineError> {
        let fidelity = if with_fidelity && self.config.evaluation_images > 0 {
            Some(self.fidelity()?)
        } else {
            None
        };
        let programs = self.programs(arch)?;
        let mut runs = Vec::with_capacity(sparsity.len());
        for config in SparsityConfig::all() {
            if sparsity.contains(&config) {
                runs.push(self.simulate_programs(&programs, config)?);
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
        let mut cache = self.artifacts.write().unwrap_or_else(PoisonError::into_inner);
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
        let slot = Arc::clone(lock_unpoisoned(&self.models).entry(kind).or_default());
        let mut model = lock_unpoisoned(&slot);
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
        if let Some(slot) = self.artifacts.read().unwrap_or_else(PoisonError::into_inner).get(key) {
            return Arc::clone(slot);
        }
        let mut cache = self.artifacts.write().unwrap_or_else(PoisonError::into_inner);
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
        let mut guard = lock_unpoisoned(&slot.cell);
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
        for slot in self.artifacts.read().unwrap_or_else(PoisonError::into_inner).values() {
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

/// One computed (model, width, pruning, geometry) point: the result of
/// [`BatchRunner::run_point`] and the daemon's answer to `RunModel`.
/// [`DseEntry::from_sweep`](crate::DseEntry::from_sweep) timestamps it into
/// a report entry.
///
/// Serialization is hand-written so an identity `pruning` spec is omitted —
/// unpruned entries stay byte-identical to entries written before the
/// pruning axis existed, and old entries load with `pruning` defaulting to
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
    fn serialize(&self, out: &mut Writer) {
        let mut object = out.object();
        object
            .field("kind", &self.kind)
            .field("width", &self.width)
            .field("arch", &self.arch)
            .field("result", &self.result);
        if self.pruning.is_active() {
            object.field("pruning", &self.pruning);
        }
        object.end();
    }
}

impl Deserialize for SweepEntry {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
        let (mut kind, mut width, mut pruning, mut arch, mut result) =
            (None, None, None, None, None);
        input.object(|input, key| match key {
            "kind" => de::field(input, &mut kind),
            "width" => de::field(input, &mut width),
            "pruning" => de::field(input, &mut pruning),
            "arch" => de::field(input, &mut arch),
            "result" => de::field(input, &mut result),
            _ => input.skip(),
        })?;
        Ok(Self {
            kind: de::required(kind, "kind")?,
            width: de::required(width, "width")?,
            pruning: pruning.unwrap_or_else(PruningSpec::none),
            arch: de::required(arch, "arch")?,
            result: de::required(result, "result")?,
        })
    }
}

/// Runs points against a shared [`SimSession`].
///
/// Every point — of a [`DseDriver`](crate::DseDriver) run, a fleet worker,
/// the serving daemon's `RunModel` and `Explore` — runs through
/// [`run_point_pruned`](Self::run_point_pruned). The session's
/// single-flight cache prepares each (model, width, pruning) artifact set
/// once, and each point fetches its dense and DB-PIM programs once and
/// simulates every sparsity configuration from them. A driver built on the
/// runner ([`DseDriver::from_runner`](crate::DseDriver::from_runner)) runs
/// as many points at once as the runner has threads.
#[derive(Debug)]
pub struct BatchRunner {
    session: SimSession,
    /// Points a driver built on this runner runs at once.
    pub(crate) threads: usize,
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

    /// Overrides how many points run at once (`1` forces sequential
    /// execution).
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

    /// Runs one (model, width, geometry) point at the session's pruning and
    /// returns its entry, reusing every cached artifact. `arch == None`
    /// means "the session's configured geometry".
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
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Panics in a thread while it holds `mutex`, leaving the lock poisoned.
    fn poison<T: Send>(mutex: &Mutex<T>) {
        let joined = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = mutex.lock();
                    panic!("poison the lock while holding it");
                })
                .join()
        });
        assert!(joined.is_err() && mutex.is_poisoned());
    }

    /// A panic mid-preparation poisons the artifact slot, and one
    /// mid-compilation poisons the program slot. Neither slot was set, so
    /// later requests recover the lock, prepare and compile again, and get
    /// what a session that never panicked gets.
    #[test]
    fn a_panic_cannot_poison_a_prepared_models_caches() {
        let mut config = PipelineConfig::fast().without_fidelity();
        config.calibration_images = 1;
        let kind = ModelKind::AlexNet;
        let session = SimSession::new(config).unwrap();
        let model = session.model(kind).unwrap();
        let key = (
            model.name().to_string(),
            config.operand_width.bits(),
            config.pruning.canonical().key_bits(),
        );
        poison(&session.artifact_slot(&key).cell);

        let artifacts = session.artifacts(kind).expect("the poisoned slot prepares again");
        poison(&artifacts.programs);
        let programs = artifacts.programs(config.arch).expect("the poisoned slot compiles");

        let clean = SimSession::new(config).unwrap().artifacts(kind).unwrap();
        let (front, _) = ModelArtifacts::front_end(&config, artifacts.model()).unwrap();
        let (clean_front, _) = ModelArtifacts::front_end(&config, clean.model()).unwrap();
        assert_eq!(front.quantized, clean_front.quantized);
        assert_eq!(front.approx, clean_front.approx);
        assert_eq!(artifacts.input_sparsity(), clean.input_sparsity());
        assert_eq!(*programs, *clean.programs(config.arch).unwrap());
        let all = SparsityConfig::all();
        assert_eq!(
            artifacts.codesign_result(&all, false).unwrap(),
            clean.codesign_result(&all, false).unwrap()
        );
        assert_eq!(session.cache_stats().resident_artifacts, 1);
    }

    /// The front end's output waits in the fidelity slot until a report is
    /// cached: a panic mid-evaluation leaves it for the retry, which gets
    /// what a session that never panicked gets, and caching the report
    /// releases it. Without fidelity nothing is kept for one.
    #[test]
    fn the_front_end_is_kept_only_until_a_fidelity_report_is_cached() {
        let mut config = PipelineConfig::fast();
        config.calibration_images = 1;
        config.evaluation_images = 2;
        let kind = ModelKind::AlexNet;
        let artifacts = SimSession::new(config).unwrap().artifacts(kind).unwrap();
        assert!(matches!(*lock_unpoisoned(&artifacts.fidelity), FidelitySlot::Pending(_)));

        poison(&artifacts.fidelity);
        let report = artifacts.fidelity().expect("the poisoned slot evaluates");
        assert!(matches!(*lock_unpoisoned(&artifacts.fidelity), FidelitySlot::Cached(_)));
        let clean = SimSession::new(config).unwrap().artifacts(kind).unwrap();
        assert_eq!(report, clean.fidelity().unwrap());
        assert_eq!(artifacts.fidelity().unwrap(), report);

        let without = SimSession::new(config.without_fidelity()).unwrap().artifacts(kind).unwrap();
        assert!(matches!(*lock_unpoisoned(&without.fidelity), FidelitySlot::Disabled));
        assert!(matches!(without.fidelity(), Err(PipelineError::BadConfig { .. })));
    }

    #[test]
    fn session_rejects_bad_config() {
        let mut config = PipelineConfig::fast();
        config.classes = 0;
        assert!(SimSession::new(config).is_err());
        assert!(BatchRunner::new(config).is_err());
    }
}
