//! Design-space exploration: persisted, resumable point sets over
//! architecture geometry × models × sparsity × operand width × pruning.
//!
//! The paper's evaluation fixes one geometry (Section 4.1); its *claim* is a
//! methodology that should win across geometries. This module is the one
//! way the workspace runs a point set: the paper's own sweep (models × the
//! four sparsity configurations) is a [`DseSpec`] over
//! [`ArchGrid::around`] the Section 4.1 geometry, a grid of one.
//!
//! * [`DseSpec`] — an [`ArchGrid`] (axis grids over the [`ArchConfig`]
//!   parameters) crossed with models, sparsity configurations, operand
//!   widths and pruning specs. Enumeration is deterministic and infeasible
//!   geometries are rejected with structured errors.
//! * [`DseReport`] — the persisted result set: one [`DseEntry`] per (model,
//!   width, pruning, geometry) point. A run in progress persists it as a
//!   [`DseJournal`] — a header line, then one appended line per finished
//!   point — so a killed run loses at most its in-flight points and a
//!   point's persistence cost does not grow with the report. The file stays
//!   a journal when the run finishes. [`DseReport::save`] writes a whole
//!   report as one line (the journal with every entry in its header), as
//!   snapshots written before journals are; [`DseReport::load`] reads both.
//! * [`DseDriver`] — the one run loop: executes the missing points of a
//!   spec on a list of [`PointExecutor`] workers claiming from one
//!   [`PointQueue`] — its own threads on a warm [`BatchRunner`] cache
//!   (quantize / FTA run once per (model, width, pruning) regardless of
//!   grid size), or `dbpim-fleet`'s mix of those and serve daemons — and
//!   resumes from a snapshot by re-simulating only absent points. A
//!   [`PointError`] says whether a failed attempt was the point's fault
//!   (attempted once) or the worker's (retried).
//! * Pareto-frontier extraction over latency / energy / area / fidelity
//!   via [`DseReport::pareto_frontier`].
//!
//! Entry results are bit-identical to independent per-point
//! [`Pipeline`](crate::Pipeline) runs — the workspace test
//! `dse_exploration.rs` asserts exactly that, plus resume-only-missing and
//! the frontier against a brute-force reference.

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt::Write as _;
use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant, SystemTime};

use dbpim_arch::ArchConfig;
use dbpim_csd::OperandWidth;
use dbpim_nn::ModelKind;
use dbpim_sim::dse::{pareto_frontier, ArchGrid, GridError, ParetoMetrics};
use dbpim_sim::{AreaModel, SparsityConfig};
use dbpim_tensor::PruningSpec;
use serde::de::{self, Reader};
use serde::ser::Writer;
use serde::{Deserialize, Error, Serialize};

use crate::error::PipelineError;
use crate::flags::{Flags, OptionsError};
use crate::pipeline::{CodesignResult, PipelineConfig};
use crate::session::par::lock_unpoisoned;
use crate::session::{BatchRunner, SessionCacheStats, SweepEntry};

/// Milliseconds since the Unix epoch — the timestamp resolution of DSE
/// snapshots. Timestamps record *when* a point was computed; every equality
/// helper ([`DseReport::results_match`]) ignores them.
#[must_use]
pub fn unix_time_ms() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
}

/// The point set of a design-space exploration: an architecture grid
/// crossed with models, sparsity configurations, operand widths and pruning
/// specs.
///
/// Serialization is hand-written so the `pruning` axis is omitted when empty
/// and tolerated when absent — specs (and snapshots embedding them) written
/// before the axis existed keep their historical bytes and still load.
#[derive(Debug, Clone, PartialEq)]
pub struct DseSpec {
    /// Geometry axis grids.
    pub grid: ArchGrid,
    /// Zoo models to explore (duplicates are executed once).
    pub models: Vec<ModelKind>,
    /// Sparsity configurations simulated per point (duplicates are executed
    /// once, canonical Fig. 7 order).
    pub sparsity: Vec<SparsityConfig>,
    /// Weight operand widths; empty means "the session's configured width".
    pub widths: Vec<OperandWidth>,
    /// Value-level pruning specs (the joint value/bit sparsity axis); empty
    /// means "the session's configured pruning" — the identity spec by
    /// default, i.e. the classic unpruned exploration.
    pub pruning: Vec<PruningSpec>,
    /// Evaluate accuracy fidelity (every width, when evaluation images are
    /// configured): each point's FTA model against the INT8 baseline.
    pub fidelity: bool,
}

impl Serialize for DseSpec {
    fn serialize(&self, out: &mut Writer) {
        let mut object = out.object();
        object
            .field("grid", &self.grid)
            .field("models", &self.models)
            .field("sparsity", &self.sparsity)
            .field("widths", &self.widths)
            .field("fidelity", &self.fidelity);
        if !self.pruning.is_empty() {
            object.field("pruning", &self.pruning);
        }
        object.end();
    }
}

impl Deserialize for DseSpec {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
        let (mut grid, mut models, mut sparsity, mut widths, mut pruning, mut fidelity) =
            (None, None, None, None, None, None);
        input.object(|input, key| match key {
            "grid" => de::field(input, &mut grid),
            "models" => de::field(input, &mut models),
            "sparsity" => de::field(input, &mut sparsity),
            "widths" => de::field(input, &mut widths),
            "pruning" => de::field(input, &mut pruning),
            "fidelity" => de::field(input, &mut fidelity),
            _ => input.skip(),
        })?;
        Ok(Self {
            grid: de::required(grid, "grid")?,
            models: de::required(models, "models")?,
            sparsity: de::required(sparsity, "sparsity")?,
            widths: de::required(widths, "widths")?,
            pruning: pruning.unwrap_or_default(),
            fidelity: de::required(fidelity, "fidelity")?,
        })
    }
}

impl DseSpec {
    /// A spec over `grid` and `models` with all four sparsity
    /// configurations, the session width and no fidelity evaluation.
    #[must_use]
    pub fn new(grid: ArchGrid, models: Vec<ModelKind>) -> Self {
        Self {
            grid,
            models,
            sparsity: SparsityConfig::all().to_vec(),
            widths: Vec::new(),
            pruning: Vec::new(),
            fidelity: false,
        }
    }

    /// Restricts the sparsity configurations.
    #[must_use]
    pub fn with_sparsity(mut self, sparsity: Vec<SparsityConfig>) -> Self {
        self.sparsity = sparsity;
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

    /// Requests the fidelity evaluation where defined.
    #[must_use]
    pub fn with_fidelity(mut self) -> Self {
        self.fidelity = true;
        self
    }

    /// Reads [`GRID_FLAGS`]: an axis not given keeps the paper value (the
    /// Section 4.1 geometry, all five models, all four sparsity
    /// configurations, the session's width and pruning). Buffer axes are
    /// given in KB and converted to bytes here.
    ///
    /// # Errors
    ///
    /// Returns [`OptionsError`] naming the flag and the first list element
    /// that does not parse.
    ///
    /// [`GRID_FLAGS`]: crate::flags::GRID_FLAGS
    pub fn from_flags(flags: &Flags) -> Result<Self, OptionsError> {
        let axis = |name| flags.list::<usize>(name).map(Option::unwrap_or_default);
        let kb = |name| -> Result<Vec<usize>, OptionsError> {
            Ok(axis(name)?.iter().map(|v| v * 1024).collect())
        };
        let mut grid = ArchGrid::around(ArchConfig::paper());
        grid.macros = axis("--macros")?;
        grid.compartments_per_macro = axis("--compartments")?;
        grid.dbmus_per_compartment = axis("--dbmus")?;
        grid.rows_per_dbmu = axis("--rows")?;
        grid.frequency_mhz = flags.list("--freqs")?.unwrap_or_default();
        grid.feature_buffer_bytes = kb("--feature-kb")?;
        grid.weight_buffer_bytes = kb("--weight-kb")?;
        grid.meta_buffer_bytes = kb("--meta-kb")?;
        let models: Vec<ModelKind> = flags.list("--models")?.unwrap_or_default();
        let widths = flags.list("--widths")?.unwrap_or_default();
        let pruning = flags.list("--pruning")?.unwrap_or_default();
        let sparsity: Vec<SparsityConfig> = flags.list("--sparsity")?.unwrap_or_default();
        Ok(Self {
            grid,
            // A blank list means the default, as an absent one does.
            models: if models.is_empty() { ModelKind::all().to_vec() } else { models },
            sparsity: if sparsity.is_empty() { SparsityConfig::all().to_vec() } else { sparsity },
            widths,
            pruning,
            fidelity: flags.switch("--fidelity"),
        })
    }

    /// The requested models, duplicates removed, in first-seen order.
    #[must_use]
    pub fn unique_models(&self) -> Vec<ModelKind> {
        first_seen(&self.models)
    }

    /// The requested sparsity configurations in canonical Fig. 7 order,
    /// duplicates removed.
    #[must_use]
    pub fn unique_sparsity(&self) -> Vec<SparsityConfig> {
        SparsityConfig::all().into_iter().filter(|s| self.sparsity.contains(s)).collect()
    }

    /// The operand widths to run at: the requested ones in canonical
    /// narrow-to-wide order, or `session_width` when none were requested.
    #[must_use]
    pub fn effective_widths(&self, session_width: OperandWidth) -> Vec<OperandWidth> {
        if self.widths.is_empty() {
            return vec![session_width];
        }
        OperandWidth::all().into_iter().filter(|w| self.widths.contains(w)).collect()
    }

    /// The pruning specs to run at: the requested ones in request order,
    /// duplicates removed, or `session_pruning` when none were requested.
    /// Request order *is* the canonical order for this axis — fractions
    /// are floats, so there is no finite enumeration to rank by.
    #[must_use]
    pub fn effective_pruning(&self, session_pruning: PruningSpec) -> Vec<PruningSpec> {
        if self.pruning.is_empty() {
            return vec![session_pruning];
        }
        first_seen(&self.pruning)
    }

    /// Every (model, width, pruning, geometry) point of the exploration in
    /// canonical order: models outermost (first-seen), then widths (narrow
    /// to wide), then pruning specs (request order), then geometries in
    /// grid enumeration order.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::BadConfig`] for an oversized or infeasible
    /// grid, including a geometry that cannot hold one weight of a swept
    /// width (the message names the offending point and constraint), and
    /// for a pruning spec out of range (the message names the fraction).
    pub fn points(
        &self,
        session_width: OperandWidth,
        session_pruning: PruningSpec,
    ) -> Result<Vec<DsePoint>, PipelineError> {
        let archs = self.grid.enumerate().map_err(grid_error)?;
        let widths = self.effective_widths(session_width);
        for (index, arch) in archs.iter().enumerate() {
            for &width in &widths {
                arch.dense_filters_per_macro_for(width).map_err(|source| {
                    grid_error(GridError::Infeasible { index, arch: Box::new(*arch), source })
                })?;
            }
        }
        let prunings = self.effective_pruning(session_pruning);
        for pruning in &prunings {
            pruning.validate().map_err(|reason| PipelineError::BadConfig { reason })?;
        }
        let mut points = Vec::new();
        for kind in self.unique_models() {
            for &width in &widths {
                for &pruning in &prunings {
                    for &arch in &archs {
                        points.push(DsePoint { kind, width, pruning, arch });
                    }
                }
            }
        }
        Ok(points)
    }
}

fn grid_error(e: GridError) -> PipelineError {
    PipelineError::BadConfig { reason: e.to_string() }
}

/// `items` with duplicates removed, in first-seen order.
fn first_seen<T: Copy + PartialEq>(items: &[T]) -> Vec<T> {
    let mut seen = Vec::with_capacity(items.len());
    for &item in items {
        if !seen.contains(&item) {
            seen.push(item);
        }
    }
    seen
}

/// One (model, width, pruning, geometry) point of a [`DseSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DsePoint {
    /// The explored model.
    pub kind: ModelKind,
    /// The weight operand width.
    pub width: OperandWidth,
    /// The value-level pruning applied before quantization.
    pub pruning: PruningSpec,
    /// The geometry.
    pub arch: ArchConfig,
}

/// A hashable identity of one point: the model, the width's bit count, the
/// pruning spec's [`key_bits`](PruningSpec::key_bits) and every `ArchConfig`
/// field (the frequency by bit pattern). Lets the driver and the report do
/// point lookups through hash maps instead of linear scans — `ArchConfig`
/// and `PruningSpec` cannot implement `Hash`/`Eq` because of their `f64`
/// fields.
type PointKey = (ModelKind, u32, (u8, u64), [u64; 12]);

fn point_key(
    kind: ModelKind,
    width: OperandWidth,
    pruning: PruningSpec,
    arch: &ArchConfig,
) -> PointKey {
    (kind, width.bits(), pruning.key_bits(), arch_key(arch))
}

/// Every `ArchConfig` field as a hashable array (the frequency by bit
/// pattern).
fn arch_key(arch: &ArchConfig) -> [u64; 12] {
    [
        arch.macros as u64,
        arch.compartments_per_macro as u64,
        arch.dbmus_per_compartment as u64,
        arch.rows_per_dbmu as u64,
        arch.frequency_mhz.to_bits(),
        arch.feature_buffer_bytes as u64,
        arch.weight_buffer_bytes as u64,
        arch.meta_buffer_bytes as u64,
        arch.instruction_buffer_bytes as u64,
        arch.meta_rf_bytes as u64,
        arch.output_rf_bytes as u64,
        arch.dense_filters_per_macro as u64,
    ]
}

impl DsePoint {
    fn key(&self) -> PointKey {
        point_key(self.kind, self.width, self.pruning, &self.arch)
    }

    /// A human-readable identity (`AlexNet/int8@4x64`: model,
    /// [width cell](Self::width_label), macros and rows) for diagnostics and
    /// trace correlation; not a key.
    #[must_use]
    pub fn label(&self) -> String {
        let (kind, width, arch) = (self.kind.name(), self.width_label(), self.arch);
        format!("{kind}/{width}@{}x{}", arch.macros, arch.rows_per_dbmu)
    }

    /// The width cell of the rendered tables: the width, then an active
    /// pruning spec after a slash (`int8/u0.50`). An unpruned point renders
    /// the width alone, as before the pruning axis existed.
    #[must_use]
    pub fn width_label(&self) -> String {
        if self.pruning.is_active() {
            format!("{}/{}", self.width, self.pruning.label())
        } else {
            self.width.to_string()
        }
    }
}

/// One computed point of a [`DseReport`].
///
/// Serialization is hand-written: an identity `pruning` spec is omitted, so
/// unpruned snapshots stay byte-identical to snapshots written before the
/// pruning axis existed, and old snapshots load with the identity default.
#[derive(Debug, Clone, PartialEq)]
pub struct DseEntry {
    /// The explored model.
    pub kind: ModelKind,
    /// The weight operand width of the point.
    pub width: OperandWidth,
    /// The value-level pruning of the point (identity for classic unpruned
    /// explorations).
    pub pruning: PruningSpec,
    /// The geometry of the point.
    pub arch: ArchConfig,
    /// The full co-design result at the point.
    pub result: CodesignResult,
    /// Unix-epoch milliseconds at which the point was computed. Ignored by
    /// [`DseReport::results_match`]; preserved across resumes for entries
    /// the resume did not have to recompute.
    pub computed_at_ms: u64,
}

impl Serialize for DseEntry {
    fn serialize(&self, out: &mut Writer) {
        let mut object = out.object();
        object
            .field("kind", &self.kind)
            .field("width", &self.width)
            .field("arch", &self.arch)
            .field("result", &self.result)
            .field("computed_at_ms", &self.computed_at_ms);
        if self.pruning.is_active() {
            object.field("pruning", &self.pruning);
        }
        object.end();
    }
}

impl Deserialize for DseEntry {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
        let (mut kind, mut width, mut pruning, mut arch, mut result, mut computed_at_ms) =
            (None, None, None, None, None, None);
        input.object(|input, key| match key {
            "kind" => de::field(input, &mut kind),
            "width" => de::field(input, &mut width),
            "pruning" => de::field(input, &mut pruning),
            "arch" => de::field(input, &mut arch),
            "result" => de::field(input, &mut result),
            "computed_at_ms" => de::field(input, &mut computed_at_ms),
            _ => input.skip(),
        })?;
        Ok(Self {
            kind: de::required(kind, "kind")?,
            width: de::required(width, "width")?,
            pruning: pruning.unwrap_or_else(PruningSpec::none),
            arch: de::required(arch, "arch")?,
            result: de::required(result, "result")?,
            computed_at_ms: de::required(computed_at_ms, "computed_at_ms")?,
        })
    }
}

impl DseEntry {
    /// Adopts a freshly computed sweep entry, timestamping it now. This is
    /// *the* conversion every execution path — the local driver, the serve
    /// daemon's `Explore` stream, the fleet's workers — must share, so a
    /// future `DseEntry` field or timestamping change can never make one
    /// path silently diverge from the others.
    #[must_use]
    pub fn from_sweep(entry: SweepEntry) -> Self {
        Self {
            kind: entry.kind,
            width: entry.width,
            pruning: entry.pruning,
            arch: entry.arch,
            result: entry.result,
            computed_at_ms: unix_time_ms(),
        }
    }

    /// The point this entry answers.
    #[must_use]
    pub fn point(&self) -> DsePoint {
        DsePoint { kind: self.kind, width: self.width, pruning: self.pruning, arch: self.arch }
    }

    fn key(&self) -> PointKey {
        point_key(self.kind, self.width, self.pruning, &self.arch)
    }

    /// The entry's position in the DSE objective space for one sparsity
    /// configuration, or `None` when that configuration was not simulated.
    #[must_use]
    pub fn metrics(&self, sparsity: SparsityConfig, area: &AreaModel) -> Option<ParetoMetrics> {
        let run = self.result.run(sparsity)?;
        Some(ParetoMetrics {
            latency_ms: run.latency_ms(),
            energy_uj: run.total_energy_uj(),
            area_mm2: area.total_mm2(&self.arch),
            fidelity_loss: self.result.fidelity.as_ref().map_or(1.0, |f| 1.0 - f.top1_agreement),
        })
    }
}

/// The persisted outcome of a design-space exploration.
///
/// Reports serialize through the vendored `serde_json`; [`DseDriver`]
/// journals every finished point (see [`DseJournal`]), so a killed run
/// resumes from disk by computing only the missing points. Entries are kept
/// in the spec's canonical point order regardless of the order resumes
/// filled them in.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DseReport {
    /// The spec the report answers. Resuming against a different spec is a
    /// structured error, never a silent partial reuse.
    pub spec: DseSpec,
    /// One entry per completed (model, width, pruning, geometry) point, in
    /// canonical
    /// spec order.
    pub entries: Vec<DseEntry>,
    /// Total points the spec enumerates; `entries.len() == total_points`
    /// once the exploration is complete.
    pub total_points: usize,
    /// Points computed (not served from the snapshot) by the most recent
    /// driver run that produced this report.
    pub fresh_points: usize,
    /// Wall-clock time of the run that returned the report plus the time
    /// recorded in the snapshot it resumed from. A loaded journal
    /// contributes only its header's time, written as its run started and
    /// never updated: the runs that appended to it, finished or killed,
    /// are not counted, so after a resume this is about the resuming run's
    /// own time. A report saved whole ([`save`](Self::save)) contributes
    /// the time it holds.
    pub wall_time: Duration,
    /// Unix-epoch milliseconds of the last snapshot save. Ignored by
    /// [`results_match`](Self::results_match).
    pub saved_at_ms: u64,
}

impl DseReport {
    /// An empty report for `spec`.
    #[must_use]
    pub fn empty(spec: DseSpec, total_points: usize) -> Self {
        Self {
            spec,
            entries: Vec::new(),
            total_points,
            fresh_points: 0,
            wall_time: Duration::ZERO,
            saved_at_ms: 0,
        }
    }

    /// `true` when every point of the spec has an entry.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.entries.len() == self.total_points
    }

    /// The entry answering `point`, if computed.
    #[must_use]
    pub fn entry(&self, point: &DsePoint) -> Option<&DseEntry> {
        self.entries.iter().find(|e| {
            e.kind == point.kind
                && e.width == point.width
                && e.pruning == point.pruning
                && e.arch == point.arch
        })
    }

    /// Sorts the entries into canonical spec order: model (first-seen in the
    /// spec), then width (narrow to wide), then pruning (the spec's request
    /// order, then the identity spec, then any other spec by its
    /// [`key_bits`](PruningSpec::key_bits)), then geometry (grid
    /// enumeration order). The key comes from each entry itself, so entries
    /// at a session pruning the spec does not name still sort. A model or
    /// geometry outside the spec sorts last; the sort is stable.
    pub fn sort_canonical(&mut self) {
        let order = CanonicalOrder::new(&self.spec);
        self.entries.sort_by_cached_key(|e| order.key(e));
    }

    /// `true` when both reports answer the same spec with identical results
    /// at every point. Timestamps (`computed_at_ms`, `saved_at_ms`), the
    /// wall time and the fresh-point counter are ignored — a resumed run
    /// must compare equal to a cold one.
    #[must_use]
    pub fn results_match(&self, other: &DseReport) -> bool {
        if self.spec != other.spec || self.entries.len() != other.entries.len() {
            return false;
        }
        let order = CanonicalOrder::new(&self.spec);
        let a = order.permutation(&self.entries);
        let b = order.permutation(&other.entries);
        a.into_iter().zip(b).all(|(i, j)| {
            let (x, y) = (&self.entries[i], &other.entries[j]);
            x.kind == y.kind
                && x.width == y.width
                && x.pruning == y.pruning
                && x.arch == y.arch
                && x.result == y.result
        })
    }

    /// The Pareto frontier over (latency, energy, area, fidelity) across
    /// every entry of `kind` — all widths and geometries — under one
    /// sparsity configuration. Returns `(entry index, metrics)` pairs in
    /// entry order; entries without a run for `sparsity` are excluded.
    ///
    /// All four axes are minimized; fidelity is `1 - top1_agreement` with
    /// unevaluated points at the conservative maximum (see
    /// [`ParetoMetrics`]).
    #[must_use]
    pub fn pareto_frontier(
        &self,
        kind: ModelKind,
        sparsity: SparsityConfig,
    ) -> Vec<(usize, ParetoMetrics)> {
        let area = AreaModel::calibrated_28nm();
        let candidates: Vec<(usize, ParetoMetrics)> = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.kind == kind)
            .filter_map(|(i, e)| e.metrics(sparsity, &area).map(|m| (i, m)))
            .collect();
        let metrics: Vec<ParetoMetrics> = candidates.iter().map(|(_, m)| *m).collect();
        pareto_frontier(&metrics).into_iter().map(|i| candidates[i]).collect()
    }

    /// The objective-space position of every (width, geometry) pair under a
    /// *workload mix*: the report's entries for all mix models at that pair,
    /// aggregated as if the mix ran back-to-back on one chip. Latency and
    /// energy are weight-scaled sums (weight = how often the model appears
    /// in the mix), area is the geometry's (it is shared), and fidelity
    /// loss is the weighted mean. Pairs missing an entry for any mix model
    /// — or any run for `sparsity` — are excluded rather than filled with
    /// guesses; mix members with non-positive or non-finite weights are
    /// ignored, and an effectively empty mix aggregates nothing.
    ///
    /// Candidates are returned in first-seen entry order, which is grid
    /// enumeration order on a canonically sorted report.
    #[must_use]
    pub fn aggregate_metrics(
        &self,
        mix: &[(ModelKind, f64)],
        sparsity: SparsityConfig,
    ) -> Vec<MixCandidate> {
        let area = AreaModel::calibrated_28nm();
        let mix: Vec<(ModelKind, f64)> =
            mix.iter().filter(|(_, weight)| weight.is_finite() && *weight > 0.0).copied().collect();
        if mix.is_empty() {
            return Vec::new();
        }
        // Hashed entry lookup (linear ArchConfig scans per candidate would
        // be quadratic in the grid size).
        let by_key: HashMap<PointKey, &DseEntry> =
            self.entries.iter().map(|e| (e.key(), e)).collect();
        let mut seen: HashSet<(u32, (u8, u64), [u64; 12])> = HashSet::new();
        let mut candidates = Vec::new();
        for entry in &self.entries {
            let (_, width_bits, prune_bits, arch_bits) = entry.key();
            if !seen.insert((width_bits, prune_bits, arch_bits)) {
                continue;
            }
            let mut metrics = ParetoMetrics {
                latency_ms: 0.0,
                energy_uj: 0.0,
                area_mm2: area.total_mm2(&entry.arch),
                fidelity_loss: 0.0,
            };
            let mut total_weight = 0.0;
            let mut complete = true;
            for &(kind, weight) in &mix {
                let Some(member) =
                    by_key.get(&point_key(kind, entry.width, entry.pruning, &entry.arch))
                else {
                    complete = false;
                    break;
                };
                let Some(m) = member.metrics(sparsity, &area) else {
                    complete = false;
                    break;
                };
                metrics.latency_ms += weight * m.latency_ms;
                metrics.energy_uj += weight * m.energy_uj;
                metrics.fidelity_loss += weight * m.fidelity_loss;
                total_weight += weight;
            }
            if complete {
                metrics.fidelity_loss /= total_weight;
                candidates.push(MixCandidate {
                    width: entry.width,
                    pruning: entry.pruning,
                    arch: entry.arch,
                    metrics,
                });
            }
        }
        candidates
    }

    /// The Pareto frontier of [`aggregate_metrics`](Self::aggregate_metrics):
    /// the non-dominated (width, geometry) pairs for a workload mix —
    /// "which chip should serve this traffic blend", rather than the
    /// per-model frontier [`pareto_frontier`](Self::pareto_frontier)
    /// answers. Verified against a brute-force reference in
    /// `tests/dse_exploration.rs`.
    #[must_use]
    pub fn aggregate_pareto_frontier(
        &self,
        mix: &[(ModelKind, f64)],
        sparsity: SparsityConfig,
    ) -> Vec<MixCandidate> {
        let candidates = self.aggregate_metrics(mix, sparsity);
        let metrics: Vec<ParetoMetrics> = candidates.iter().map(|c| c.metrics).collect();
        pareto_frontier(&metrics).into_iter().map(|i| candidates[i]).collect()
    }

    /// Persists the whole report as one line of JSON at `path` (atomically:
    /// written to a sibling temp file, then renamed, so a kill mid-save
    /// never leaves a torn snapshot). The file is a [`DseJournal`] whose
    /// header holds every entry.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Snapshot`] (naming the file) when
    /// serialization or the write fails.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PipelineError> {
        let path = path.as_ref();
        write_atomically(path, &encode(self, path)?)
    }

    /// Loads a snapshot written by [`save`](Self::save) or a
    /// [`DseJournal`], logging a warning when it drops a torn final record
    /// (see [`load_journal`](Self::load_journal)).
    ///
    /// # Errors
    ///
    /// As [`load_journal`](Self::load_journal).
    pub fn load(path: impl AsRef<Path>) -> Result<Self, PipelineError> {
        let path = path.as_ref();
        let (report, torn) = Self::load_journal(path)?;
        if let Some(bytes) = torn {
            dbpim_trace::log_warn!(
                "dse",
                "dropped a torn final record ({bytes} bytes) from {}",
                path.display()
            );
        }
        Ok(report)
    }

    /// Loads a snapshot in either form: a whole report (in any layout:
    /// [`save`](Self::save)'s one line, or a pretty-printed copy a tool such
    /// as `jq` wrote), or a [`DseJournal`] — the report on line 1, then one
    /// [`DseEntry`] per line. Entries are sorted into canonical order, and
    /// of two entries for one point the first in the file is kept.
    ///
    /// A journal's final line that does not parse is the record a kill cut
    /// short: it is dropped, and its length in bytes is returned beside the
    /// report.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Snapshot`] naming the file when it cannot
    /// be read, and naming the file and line when it is not a whole report
    /// and its line 1 does not parse as a DSE report or a line but the last
    /// does not parse as an entry.
    pub fn load_journal(path: impl AsRef<Path>) -> Result<(Self, Option<usize>), PipelineError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| snapshot_error(path, "cannot read", &e))?;
        // On a journal this stops at the end of line 1 (the header), so it
        // costs one header parse.
        let whole =
            std::str::from_utf8(&bytes).ok().and_then(|text| serde_json::from_str(text).ok());
        let (mut report, torn) = match whole {
            Some(report) => (report, None),
            None => Self::parse_journal(&bytes, path)?,
        };
        let mut seen = HashSet::new();
        report.entries.retain(|e| seen.insert(e.key()));
        report.sort_canonical();
        Ok((report, torn))
    }

    /// The report and torn-tail length of a journal's bytes (see
    /// [`load_journal`](Self::load_journal)).
    fn parse_journal(bytes: &[u8], path: &Path) -> Result<(Self, Option<usize>), PipelineError> {
        let malformed = |line: usize, e: &dyn std::fmt::Display| PipelineError::Snapshot {
            path: path.to_path_buf(),
            line: Some(line),
            reason: e.to_string(),
        };
        let mut lines = bytes.split(|&b| b == b'\n');
        let header = lines.next().unwrap_or_default();
        let mut report: DseReport = std::str::from_utf8(header)
            .map_err(|e| malformed(1, &e))
            .and_then(|text| serde_json::from_str(text).map_err(|e| malformed(1, &e)))?;
        let records: Vec<&[u8]> = lines.collect();
        let mut torn = None;
        for (index, record) in records.iter().enumerate() {
            let last = index + 1 == records.len();
            if last && record.is_empty() {
                break;
            }
            let parsed = std::str::from_utf8(record)
                .map_err(|e| e.to_string())
                .and_then(|text| serde_json::from_str(text).map_err(|e| e.to_string()));
            match parsed {
                Ok(entry) => report.entries.push(entry),
                Err(_) if last => torn = Some(record.len()),
                Err(e) => return Err(malformed(index + 2, &e)),
            }
        }
        Ok((report, torn))
    }
}

/// Renders a [`DseReport`] as a deterministic text table: one row per
/// (point, sparsity run) plus a Pareto-frontier section per model. It is
/// the one renderer of a point set, for `dse_sweep`, `dbpim-fleet` and
/// `dbpim-cli explore` alike.
///
/// The output is a pure function of the results — no timestamps, wall
/// times or cache counters — so two runs over the same grid (cold, resumed
/// from a half-deleted snapshot, sharded across a fleet or streamed from a
/// daemon) render byte-identical reports.
#[must_use]
pub fn render_report(report: &DseReport) -> String {
    let area = AreaModel::calibrated_28nm();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "DSE sweep - {} of {} grid points ({} models x {} widths x geometries)",
        report.entries.len(),
        report.total_points,
        report.spec.unique_models().len(),
        report.spec.effective_widths(OperandWidth::Int8).len(),
    );
    let _ = writeln!(
        out,
        "{:<16} {:>6} {:>7} {:>5} {:>6} {:>5} {:>6} | {:<16} {:>12} {:>10} {:>10} {:>8}",
        "model",
        "width",
        "macros",
        "comp",
        "dbmus",
        "rows",
        "MHz",
        "sparsity",
        "cycles",
        "lat (ms)",
        "uJ",
        "speedup"
    );
    for entry in &report.entries {
        let has_baseline = entry.result.run(SparsityConfig::DenseBaseline).is_some();
        for run in &entry.result.runs {
            let speedup = if has_baseline {
                format!("{:.2}x", entry.result.speedup(run.sparsity))
            } else {
                "n/a".to_string()
            };
            let _ = writeln!(
                out,
                "{:<16} {:>6} {:>7} {:>5} {:>6} {:>5} {:>6} | {:<16} {:>12} {:>10.4} {:>10.3} {:>8}",
                entry.kind.name(),
                entry.point().width_label(),
                entry.arch.macros,
                entry.arch.compartments_per_macro,
                entry.arch.dbmus_per_compartment,
                entry.arch.rows_per_dbmu,
                entry.arch.frequency_mhz,
                run.sparsity.to_string(),
                run.total_cycles(),
                run.latency_ms(),
                run.total_energy_uj(),
                speedup,
            );
        }
    }
    for kind in report.spec.unique_models() {
        for sparsity in report.spec.unique_sparsity() {
            let frontier = report.pareto_frontier(kind, sparsity);
            if frontier.is_empty() {
                continue;
            }
            let _ = writeln!(
                out,
                "pareto frontier [{} / {}] (latency, energy, area{}):",
                kind.name(),
                sparsity,
                if report.spec.fidelity { ", fidelity" } else { "" },
            );
            for (index, metrics) in frontier {
                let entry = &report.entries[index];
                let pruning_tag = if entry.pruning.is_active() {
                    format!(" [{}]", entry.pruning.label())
                } else {
                    String::new()
                };
                // An entry without a fidelity report ranks at the maximum
                // loss (see `DseEntry::metrics`), which is no measurement.
                let loss = if entry.result.fidelity.is_some() {
                    format!(", loss {:.2}%", 100.0 * metrics.fidelity_loss)
                } else {
                    String::new()
                };
                let _ = writeln!(
                    out,
                    "  {} @ {}{}: {} macros x {} rows @ {} MHz — {:.4} ms, {:.3} uJ, {:.4} mm2{}",
                    entry.kind.name(),
                    entry.width,
                    pruning_tag,
                    entry.arch.macros,
                    entry.arch.rows_per_dbmu,
                    entry.arch.frequency_mhz,
                    metrics.latency_ms,
                    metrics.energy_uj,
                    area.total_mm2(&entry.arch),
                    loss,
                );
            }
        }
    }
    out
}

/// A snapshot IO failure on `path`: `what` went wrong, because of `error`.
fn snapshot_error(path: &Path, what: &str, error: &dyn std::fmt::Display) -> PipelineError {
    PipelineError::Snapshot {
        path: path.to_path_buf(),
        line: None,
        reason: format!("{what}: {error}"),
    }
}

/// `value` as one line of JSON, bound for the snapshot at `path`.
fn encode(value: &impl Serialize, path: &Path) -> Result<String, PipelineError> {
    serde_json::to_string(value).map_err(|e| snapshot_error(path, "cannot serialize", &e))
}

/// Writes `contents` to a sibling temp file, then renames it onto `path`.
fn write_atomically(path: &Path, contents: &str) -> Result<(), PipelineError> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, contents).map_err(|e| snapshot_error(&tmp, "cannot write", &e))?;
    std::fs::rename(&tmp, path).map_err(|e| snapshot_error(path, "cannot move into place", &e))
}

/// An append-only snapshot of a [`DseReport`].
///
/// Line 1 is the header: the report with no entries (spec, total points,
/// counters). Every later line is one [`DseEntry`], appended with a single
/// write as its point finishes, so persisting a point costs one entry's
/// encoding however large the report has grown. Threads finishing points
/// at once share one journal: each encodes its entry with no lock held and
/// takes the journal's lock only for the write. There is no fsync.
/// [`DseReport::load`] reads the file back, dropping a final line a kill
/// cut short.
#[derive(Debug)]
pub struct DseJournal {
    path: PathBuf,
    /// `None` after a failed write: the file then ends in at most one torn
    /// record, which a later load drops, instead of a malformed line in its
    /// middle.
    file: Mutex<Option<File>>,
}

impl DseJournal {
    /// Creates (or replaces) the journal at `path`: `report`'s header, then
    /// one line per entry it already holds. The file is written to a
    /// sibling temp file and renamed into place, so a kill never leaves a
    /// torn header.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Snapshot`] (naming the file) when encoding,
    /// the write or reopening the file for appends fails.
    pub fn create(path: impl Into<PathBuf>, report: &DseReport) -> Result<Self, PipelineError> {
        let path = path.into();
        let header = DseReport { spec: report.spec.clone(), entries: Vec::new(), ..*report };
        let mut contents = encode(&header, &path)?;
        contents.push('\n');
        for entry in &report.entries {
            contents.push_str(&encode(entry, &path)?);
            contents.push('\n');
        }
        write_atomically(&path, &contents)?;
        let file = File::options()
            .append(true)
            .open(&path)
            .map_err(|e| snapshot_error(&path, "cannot open for appends", &e))?;
        Ok(Self { path, file: Mutex::new(Some(file)) })
    }

    /// Appends `entry` as one line: encoded with no lock held, then written
    /// with a single write under the journal's lock. After a failed write
    /// the journal accepts no further entries.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Snapshot`] (naming the file) when encoding
    /// or the write fails, or an earlier write did.
    pub fn append(&self, entry: &DseEntry) -> Result<(), PipelineError> {
        let mut record = encode(entry, &self.path)?;
        record.push('\n');
        let mut file = lock_unpoisoned(&self.file);
        let written = match file.as_mut() {
            Some(file) => file.write_all(record.as_bytes()).map_err(|e| e.to_string()),
            None => Err("an earlier write failed".to_string()),
        };
        written.map_err(|e| {
            *file = None;
            snapshot_error(&self.path, "cannot append", &e)
        })
    }
}

/// The canonical entry order of one spec (see
/// [`DseReport::sort_canonical`]): the spec's model and pruning positions
/// plus a hashed geometry index, built once per sort so ordering never
/// costs a linear `ArchConfig` scan per entry.
struct CanonicalOrder {
    models: Vec<ModelKind>,
    pruning: Vec<(u8, u64)>,
    archs: HashMap<[u64; 12], usize>,
}

/// A sort key: model position, width bits, (pruning position, pruning
/// bits), geometry index.
type CanonicalKey = (usize, u32, (usize, (u8, u64)), usize);

impl CanonicalOrder {
    fn new(spec: &DseSpec) -> Self {
        let archs = spec.grid.enumerate().unwrap_or_default();
        Self {
            models: spec.unique_models(),
            pruning: first_seen(&spec.pruning).iter().map(PruningSpec::key_bits).collect(),
            // A geometry the grid repeats takes its last index.
            archs: archs.iter().enumerate().map(|(index, arch)| (arch_key(arch), index)).collect(),
        }
    }

    fn key(&self, entry: &DseEntry) -> CanonicalKey {
        let model = self.models.iter().position(|&m| m == entry.kind).unwrap_or(usize::MAX);
        let bits = entry.pruning.key_bits();
        let pruning = match self.pruning.iter().position(|&p| p == bits) {
            Some(index) => (index, (0, 0)),
            None if bits == PruningSpec::none().key_bits() => (self.pruning.len(), (0, 0)),
            None => (self.pruning.len() + 1, bits),
        };
        let arch = self.archs.get(&arch_key(&entry.arch)).copied().unwrap_or(usize::MAX);
        (model, entry.width.bits(), pruning, arch)
    }

    /// The indices of `entries` in the order
    /// [`DseReport::sort_canonical`] would leave them, without moving an
    /// entry.
    fn permutation(&self, entries: &[DseEntry]) -> Vec<usize> {
        let keys: Vec<CanonicalKey> = entries.iter().map(|e| self.key(e)).collect();
        let mut order: Vec<usize> = (0..entries.len()).collect();
        order.sort_by_key(|&i| keys[i]);
        order
    }
}

/// One aggregated (width, pruning, geometry) candidate of a workload mix
/// (see [`DseReport::aggregate_metrics`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixCandidate {
    /// The operand width of every aggregated entry.
    pub width: OperandWidth,
    /// The value-level pruning of every aggregated entry.
    pub pruning: PruningSpec,
    /// The shared geometry.
    pub arch: ArchConfig,
    /// The mix-aggregated objective values (latency/energy weight-summed,
    /// area shared, fidelity loss weight-averaged).
    pub metrics: ParetoMetrics,
}

/// The plan a point set runs by, whatever executes its points: worker `w`
/// starts on the `w`-th contiguous block of the points (earlier blocks take
/// the remainder) and works through it in order; once its block is empty it
/// takes the front point of the largest remaining block, ties going to the
/// lowest. Adjacent points usually share a (model, width), so the workers
/// start on different artifact sets and each prepares few of them.
#[derive(Debug)]
pub struct PointQueue {
    /// Each block's unclaimed point indices, in claim order.
    pending: Vec<VecDeque<usize>>,
}

impl PointQueue {
    /// Splits the point indices `0..points` into one block per worker (at
    /// least one) and queues them all.
    #[must_use]
    pub fn new(points: usize, workers: usize) -> Self {
        let workers = workers.max(1);
        let bound = |w: usize| w * (points / workers) + w.min(points % workers);
        Self { pending: (0..workers).map(|w| (bound(w)..bound(w + 1)).collect()).collect() }
    }

    /// Claims `worker`'s next point: the front of its own block, else the
    /// front of the largest remaining block. Returns the point index and
    /// the block it came from.
    pub fn claim(&mut self, worker: usize) -> Option<(usize, usize)> {
        if let Some(point) = self.pending.get_mut(worker).and_then(VecDeque::pop_front) {
            return Some((point, worker));
        }
        let block = (0..self.pending.len())
            .filter(|&b| !self.pending[b].is_empty())
            .max_by_key(|&b| (self.pending[b].len(), usize::MAX - b))?;
        self.pending[block].pop_front().map(|point| (point, block))
    }

    /// Puts `point` back at the front of `block`: it is that block's next
    /// claim.
    pub fn requeue(&mut self, block: usize, point: usize) {
        self.pending[block].push_front(point);
    }
}

/// Why one attempt at a point failed.
#[derive(Debug)]
pub enum PointError {
    /// The point fails the same way on every attempt and worker (a
    /// configuration, compile or pipeline error, a request a daemon refuses
    /// as bad or unauthorized): it is attempted once.
    Deterministic(PipelineError),
    /// The worker failed, not the point (IO, a closed connection, a
    /// timeout, a passed deadline, an overloaded daemon): it is retried.
    Transient(String),
}

/// One claimed point.
#[derive(Debug, Clone, Copy)]
pub struct PointJob<'a> {
    /// The point.
    pub point: DsePoint,
    /// The spec being explored.
    pub spec: &'a DseSpec,
    /// The open `dse.point` span's id while a trace collector is installed.
    pub span: Option<u64>,
}

/// Where one worker of a run executes its points: in process on a
/// [`BatchRunner`] ([`DseDriver::local_executor`]), or on a serve daemon
/// (`dbpim-fleet`'s remote workers).
pub trait PointExecutor: Send {
    /// A human-readable description (`local`, `remote(host:port)`).
    fn label(&self) -> String;

    /// A liveness probe, made before the worker's first claim and after
    /// consecutive transient failures; an `Err` (why) retires the worker.
    /// The default, for in-process executors, always passes.
    fn heartbeat(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Executes one point; an `Err` says whether the point or the worker
    /// failed.
    fn run(&mut self, job: &PointJob<'_>) -> Result<DseEntry, PointError>;
}

impl PointExecutor for &BatchRunner {
    fn label(&self) -> String {
        "local".to_string()
    }

    fn run(&mut self, job: &PointJob<'_>) -> Result<DseEntry, PointError> {
        let DsePoint { kind, width, pruning, arch } = job.point;
        let sparsity = job.spec.unique_sparsity();
        self.run_point_pruned(kind, width, pruning, Some(arch), &sparsity, job.spec.fidelity)
            .map(DseEntry::from_sweep)
            .map_err(PointError::Deterministic)
    }
}

/// Progress a run reports to its observer, on the named worker's thread.
#[derive(Debug, Clone)]
pub enum DseEvent {
    /// A worker passed its first heartbeat and is claiming points.
    WorkerReady {
        /// The worker's position in the executor list.
        worker: usize,
        /// Human-readable backend description.
        label: String,
    },
    /// A worker failed a heartbeat and stopped claiming points.
    WorkerRetired {
        /// The worker's position in the executor list.
        worker: usize,
        /// Human-readable backend description.
        label: String,
        /// Why it retired.
        reason: String,
    },
    /// A point was computed and journaled.
    PointDone {
        /// The worker that computed it.
        worker: usize,
        /// The block the point belongs to.
        shard: usize,
        /// `true` when the point came from another worker's block.
        stolen: bool,
        /// Points completed so far, resumed ones included.
        completed: usize,
        /// Points the spec enumerates.
        total: usize,
    },
    /// A point attempt failed transiently.
    PointRetried {
        /// The worker that failed it.
        worker: usize,
        /// The block the point belongs to.
        shard: usize,
        /// The attempt that just failed (1-based).
        attempt: usize,
        /// The failure.
        error: String,
    },
}

/// Per-worker outcome counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerStats {
    /// Human-readable backend description (`local` / `remote(addr)`).
    pub label: String,
    /// Points this worker completed.
    pub points: usize,
    /// Why the worker retired, when it did.
    pub retired: Option<String>,
}

/// Outcome counters of one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DseStats {
    /// One entry per executor, in executor-list order.
    pub workers: Vec<WorkerStats>,
    /// Points adopted from the snapshot instead of recomputed.
    pub resumed_points: usize,
    /// Points computed this run.
    pub fresh_points: usize,
    /// Points claimed from another worker's block.
    pub reassigned_points: usize,
    /// Point attempts that failed transiently.
    pub retried_attempts: usize,
    /// Notes on the run, such as a torn snapshot record dropped on resume.
    /// A worker's retirement is in its [`WorkerStats::retired`].
    pub diagnostics: Vec<String>,
    /// Wall-time distribution of the points computed this run.
    pub point_latency: dbpim_trace::LatencyHistogram,
}

/// A run's report, in canonical order, plus its counters.
#[derive(Debug)]
pub struct DseOutcome {
    /// The report.
    pub report: DseReport,
    /// Run statistics.
    pub stats: DseStats,
}

/// A run's progress callback, called on the workers' threads.
pub type DseObserver = dyn Fn(&DseEvent) + Send + Sync;

/// Consecutive transient failures after which a worker must pass a
/// heartbeat to keep claiming points.
const WORKER_FAILURE_LIMIT: usize = 2;

/// Executes [`DseSpec`]s on workers claiming from one [`PointQueue`],
/// persisting a resumable snapshot as it goes.
///
/// With a snapshot path, a run starts a [`DseJournal`] there holding the
/// entries it adopted, and the worker that finishes a point appends it.
/// The file stays a journal whether the run finishes, stops at
/// [`with_point_limit`](Self::with_point_limit), fails or is killed, and
/// the next run resumes from it.
///
/// The driver's contract, asserted by `tests/dse_exploration.rs`:
///
/// * every entry is bit-identical to an independent per-point
///   [`Pipeline`](crate::Pipeline) run at that geometry;
/// * resuming from a snapshot recomputes only the missing points (the
///   expensive model-side artifacts are reused through the session cache,
///   and present entries are adopted verbatim, timestamps included);
/// * execution order (parallelism, completion order in the journal) never
///   changes results — the returned report is in canonical point order.
pub struct DseDriver {
    runner: Arc<BatchRunner>,
    snapshot: Option<PathBuf>,
    threads: usize,
    point_limit: Option<usize>,
    max_point_attempts: usize,
    observer: Option<Arc<DseObserver>>,
}

impl DseDriver {
    /// Creates a driver with a fresh session for `config`.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::BadConfig`] for unusable configurations.
    pub fn new(config: PipelineConfig) -> Result<Self, PipelineError> {
        Ok(Self::from_runner(Arc::new(BatchRunner::new(config)?)))
    }

    /// Wraps an existing (possibly shared, already warm) runner. Points run
    /// on as many threads as the runner was built with (see
    /// [`BatchRunner::with_threads`]) unless [`with_threads`](Self::with_threads)
    /// overrides it.
    #[must_use]
    pub fn from_runner(runner: Arc<BatchRunner>) -> Self {
        Self {
            threads: runner.threads,
            runner,
            snapshot: None,
            point_limit: None,
            max_point_attempts: 3,
            observer: None,
        }
    }

    /// Persists and resumes from a snapshot at `path`.
    #[must_use]
    pub fn with_snapshot(mut self, path: impl Into<PathBuf>) -> Self {
        self.snapshot = Some(path.into());
        self
    }

    /// Overrides how many local workers [`run`](Self::run) starts (`1`
    /// forces sequential execution).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Computes at most `limit` missing points this run, leaving the report
    /// incomplete but resumable — useful for time-boxed shards and the CI
    /// resume smoke test.
    #[must_use]
    pub fn with_point_limit(mut self, limit: usize) -> Self {
        self.point_limit = Some(limit);
        self
    }

    /// Overrides the attempts (3, at least 1) a point failing transiently
    /// gets before it fails the run.
    #[must_use]
    pub fn with_max_point_attempts(mut self, attempts: usize) -> Self {
        self.max_point_attempts = attempts.max(1);
        self
    }

    /// Registers a progress observer, called on the workers' threads.
    #[must_use]
    pub fn with_observer(mut self, observer: impl Fn(&DseEvent) + Send + Sync + 'static) -> Self {
        self.observer = Some(Arc::new(observer));
        self
    }

    /// The underlying session's cache counters.
    #[must_use]
    pub fn cache_stats(&self) -> SessionCacheStats {
        self.runner.cache_stats()
    }

    /// A worker that runs points in process on this driver's runner.
    #[must_use]
    pub fn local_executor(&self) -> Box<dyn PointExecutor + '_> {
        Box::new(&*self.runner)
    }

    /// [`run_on`](Self::run_on) with [`with_threads`](Self::with_threads)
    /// local workers, but no more than there are points to compute, logging
    /// the run's diagnostics as warnings.
    ///
    /// # Errors
    ///
    /// As [`run_on`](Self::run_on).
    pub fn run(&self, spec: &DseSpec) -> Result<DseReport, PipelineError> {
        let outcome = self.run_with(spec, |missing| {
            (0..self.threads.min(missing).max(1)).map(|_| self.local_executor()).collect()
        })?;
        for diagnostic in &outcome.stats.diagnostics {
            dbpim_trace::log_warn!("dse", "{diagnostic}");
        }
        Ok(outcome.report)
    }

    /// Runs (or resumes) `spec` on `executors`, worker `w` being the `w`-th.
    ///
    /// The missing points (the first [`with_point_limit`](Self::with_point_limit)
    /// of them) get one contiguous block per worker, and every worker
    /// starts: one whose block is empty steals, so a live worker finishes
    /// the blocks of workers that retire. A single worker runs on the
    /// calling thread. A worker passes a heartbeat before its first claim,
    /// and journals each point it finishes before the point counts as done.
    /// A [deterministic](PointError::Deterministic) failure, an entry for
    /// another point or a failed append is final: no claim after the point
    /// in canonical order starts, points before it still run, and the first
    /// failure in canonical order is returned. A
    /// [transient](PointError::Transient) failure requeues the point at the
    /// front of its block, until its
    /// [attempts](Self::with_max_point_attempts) are spent; a worker
    /// failing twice in a row must pass a heartbeat or retire.
    ///
    /// # Errors
    ///
    /// [`PipelineError::NoWorkers`], an unusable spec or snapshot,
    /// [`PipelineError::Stalled`] when every worker retired early, or the
    /// first point failure in canonical order.
    pub fn run_on(
        &self,
        spec: &DseSpec,
        executors: Vec<Box<dyn PointExecutor + '_>>,
    ) -> Result<DseOutcome, PipelineError> {
        if executors.is_empty() {
            return Err(PipelineError::NoWorkers);
        }
        self.run_with(spec, |_| executors)
    }

    /// [`run_on`](Self::run_on) on the executors `executors` builds for the
    /// number of points this run computes.
    fn run_with<'e>(
        &self,
        spec: &DseSpec,
        executors: impl FnOnce(usize) -> Vec<Box<dyn PointExecutor + 'e>>,
    ) -> Result<DseOutcome, PipelineError> {
        let config = self.runner.session().config();
        let points = spec.points(config.operand_width, config.pruning)?;
        let _span = dbpim_trace::span!("dse.run", points = points.len());
        let start = Instant::now();
        let mut diagnostics = Vec::new();
        let (mut report, journal) =
            resume(self.snapshot.as_deref(), spec, &points, &mut diagnostics)?;
        // Hashed point bookkeeping: the largest legal spec has tens of
        // thousands of points.
        let have: HashSet<PointKey> = report.entries.iter().map(DseEntry::key).collect();
        let mut missing: Vec<DsePoint> =
            points.iter().filter(|p| !have.contains(&p.key())).copied().collect();
        missing.truncate(self.point_limit.unwrap_or(usize::MAX));

        let executors = executors(missing.len());
        let worker_stats =
            executors.iter().map(|e| WorkerStats { label: e.label(), points: 0, retired: None });
        let stats = DseStats {
            workers: worker_stats.collect(),
            resumed_points: report.entries.len(),
            diagnostics,
            ..DseStats::default()
        };
        let run = Run {
            driver: self,
            spec,
            missing: &missing,
            journal: journal.as_ref(),
            total: points.len(),
            state: Mutex::new(RunState {
                queue: PointQueue::new(missing.len(), executors.len()),
                in_flight: 0,
                failure: None,
                attempts: vec![0; missing.len()],
                finished: Vec::with_capacity(missing.len()),
                stats,
                abandoned: false,
            }),
            changed: Condvar::new(),
        };
        let mut executors: Vec<_> = executors.into_iter().enumerate().collect();
        // A single worker runs on the calling thread, as sequential runs
        // always have: a spawned one read ~5 % slower (EXPERIMENTS.md, "One
        // exploration plan").
        if let [(worker, executor)] = executors.as_mut_slice() {
            run.work(*worker, executor.as_mut());
        } else {
            std::thread::scope(|scope| {
                for (worker, mut executor) in executors {
                    let run = &run;
                    scope.spawn(move || run.work(worker, executor.as_mut()));
                }
            });
        }

        let RunState { failure, finished, mut stats, .. } =
            run.state.into_inner().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, error)) = failure {
            return Err(error);
        }
        let completed = report.entries.len() + finished.len();
        if finished.len() < missing.len() {
            let retirements = stats.workers.iter().enumerate().filter_map(|(worker, w)| {
                let reason = w.retired.as_ref()?;
                Some(format!("worker {worker} ({}) retired: {reason}", w.label))
            });
            let diagnostics = stats.diagnostics.into_iter().chain(retirements).collect();
            return Err(PipelineError::Stalled { completed, total: points.len(), diagnostics });
        }
        stats.fresh_points = finished.len();
        report.fresh_points = finished.len();
        report.entries.extend(finished);
        report.sort_canonical();
        report.wall_time += start.elapsed();
        Ok(DseOutcome { report, stats })
    }
}

/// The report a run over `points` resumes from and the journal it appends
/// to: a snapshot that exists is loaded (a torn final record reported,
/// entries outside `points` dropped), then rewritten with the adopted
/// entries; every refusal comes first, leaving the file as it was.
fn resume(
    path: Option<&Path>,
    spec: &DseSpec,
    points: &[DsePoint],
    diagnostics: &mut Vec<String>,
) -> Result<(DseReport, Option<DseJournal>), PipelineError> {
    let mut report = DseReport::empty(spec.clone(), points.len());
    let Some(path) = path else { return Ok((report, None)) };
    if path.exists() {
        let (loaded, torn) = DseReport::load_journal(path)?;
        if loaded.spec != *spec {
            return Err(PipelineError::SnapshotSpecMismatch { path: path.to_path_buf() });
        }
        if let Some(bytes) = torn {
            let path = path.display();
            diagnostics.push(format!("dropped a torn final record ({bytes} bytes) from {path}"));
        }
        let keys: HashSet<PointKey> = points.iter().map(DsePoint::key).collect();
        report = DseReport { total_points: points.len(), fresh_points: 0, ..loaded };
        report.entries.retain(|e| keys.contains(&e.key()));
    }
    let _span = dbpim_trace::span!("dse.persist", points = report.entries.len());
    report.saved_at_ms = unix_time_ms();
    let journal = DseJournal::create(path, &report)?;
    Ok((report, Some(journal)))
}

/// What the workers of one run share.
struct Run<'a> {
    driver: &'a DseDriver,
    spec: &'a DseSpec,
    missing: &'a [DsePoint],
    journal: Option<&'a DseJournal>,
    total: usize,
    state: Mutex<RunState>,
    /// Signalled whenever a point leaves flight.
    changed: Condvar,
}

struct RunState {
    queue: PointQueue,
    /// Claimed, unsettled points: while any remain, a worker with nothing
    /// to claim waits, as a transient failure may requeue one.
    in_flight: usize,
    /// The failed point with the lowest position in `missing`: no claim at
    /// or after it starts.
    failure: Option<(usize, PipelineError)>,
    /// Transient failures per position in `missing`.
    attempts: Vec<usize>,
    finished: Vec<DseEntry>,
    stats: DseStats,
    /// A worker unwound: no claim starts, and no worker waits.
    abandoned: bool,
}

/// Ends a run whose worker unwinds, so the others do not wait forever for
/// the point it held; the scope then carries the panic to the caller.
struct Abandon<'r, 'a>(&'r Run<'a>);

impl Drop for Abandon<'_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            lock_unpoisoned(&self.0.state).abandoned = true;
            self.0.changed.notify_all();
        }
    }
}

impl Run<'_> {
    /// One worker's life: serve until nothing is left to claim, or retire.
    fn work(&self, worker: usize, executor: &mut dyn PointExecutor) {
        let _abandon = Abandon(self);
        let label = executor.label();
        let Err(reason) = self.serve(worker, &label, executor) else { return };
        lock_unpoisoned(&self.state).stats.workers[worker].retired = Some(reason.clone());
        self.emit(&DseEvent::WorkerRetired { worker, label, reason });
    }

    /// Claims, executes and settles points; `Err` is why the worker must
    /// retire.
    fn serve(
        &self,
        worker: usize,
        label: &str,
        executor: &mut dyn PointExecutor,
    ) -> Result<(), String> {
        executor.heartbeat()?;
        self.emit(&DseEvent::WorkerReady { worker, label: label.to_string() });
        let mut failures = 0;
        while let Some((index, shard)) = self.claim(worker) {
            let point = self.missing[index];
            let stolen = shard != worker;
            let span = dbpim_trace::span!(
                "dse.point",
                worker = worker,
                shard = shard,
                stolen = stolen,
                model = point.kind.name(),
                width = point.width.bits(),
                macros = point.arch.macros,
                rows = point.arch.rows_per_dbmu,
            );
            let job = PointJob { point, spec: self.spec, span: span.id() };
            let started = Instant::now();
            let executed = executor.run(&job);
            let elapsed = started.elapsed();
            drop(span);
            let settled = executed.and_then(|entry| answers(point, entry)).and_then(|entry| {
                match self.journal {
                    Some(journal) => {
                        let _span = dbpim_trace::span!("dse.persist", points = 1);
                        journal.append(&entry).map(|()| entry).map_err(PointError::Deterministic)
                    }
                    None => Ok(entry),
                }
            });
            let mut state = lock_unpoisoned(&self.state);
            state.in_flight -= 1;
            let (event, transient) = match settled {
                Ok(entry) => {
                    state.stats.point_latency.record(elapsed);
                    state.stats.workers[worker].points += 1;
                    state.finished.push(entry);
                    let completed = state.stats.resumed_points + state.finished.len();
                    let total = self.total;
                    (Some(DseEvent::PointDone { worker, shard, stolen, completed, total }), None)
                }
                Err(PointError::Deterministic(error)) => {
                    state.fail(index, error);
                    (None, None)
                }
                Err(PointError::Transient(error)) => {
                    state.stats.retried_attempts += 1;
                    state.attempts[index] += 1;
                    let attempt = state.attempts[index];
                    if attempt < self.driver.max_point_attempts {
                        state.queue.requeue(shard, index);
                    } else {
                        let (point, last_error) = (point.label(), error.clone());
                        state.fail(
                            index,
                            PipelineError::PointFailed { point, attempts: attempt, last_error },
                        );
                    }
                    let retried =
                        DseEvent::PointRetried { worker, shard, attempt, error: error.clone() };
                    (Some(retried), Some(error))
                }
            };
            drop(state);
            self.changed.notify_all();
            if let Some(event) = event {
                self.emit(&event);
            }
            let Some(error) = transient else {
                failures = 0;
                continue;
            };
            failures += 1;
            if failures >= WORKER_FAILURE_LIMIT {
                executor.heartbeat().map_err(|reason| {
                    format!(
                        "heartbeat failed after {failures} consecutive errors (last point \
                         error: {error}): {reason}"
                    )
                })?;
                failures = 0;
            }
        }
        Ok(())
    }

    /// `worker`'s next point: its position in `missing` and its block. Waits
    /// while nothing is left to claim but points are in flight; `None` once
    /// nothing is left at all.
    fn claim(&self, worker: usize) -> Option<(usize, usize)> {
        let mut state = lock_unpoisoned(&self.state);
        loop {
            let first_failure = state.failure.as_ref().map_or(usize::MAX, |&(index, _)| index);
            let open = if state.abandoned { 0 } else { first_failure };
            let claimed =
                std::iter::from_fn(|| state.queue.claim(worker)).find(|&(index, _)| index < open);
            if let Some((index, block)) = claimed {
                state.in_flight += 1;
                state.stats.reassigned_points += usize::from(block != worker);
                return Some((index, block));
            }
            if state.in_flight == 0 || state.abandoned {
                return None;
            }
            state = self.changed.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn emit(&self, event: &DseEvent) {
        if let Some(observer) = &self.driver.observer {
            observer(event);
        }
    }
}

/// `entry` when it is `point`'s: an executor answering another point (a
/// daemon running another pipeline configuration, say) fails it, as it
/// would again.
fn answers(point: DsePoint, entry: DseEntry) -> Result<DseEntry, PointError> {
    let answered = entry.point();
    if answered.key() == point.key() {
        return Ok(entry);
    }
    let last_error = format!("the worker answered {} instead", answered.label());
    let point = point.label();
    Err(PointError::Deterministic(PipelineError::PointFailed { point, attempts: 1, last_error }))
}

impl RunState {
    /// Records the point at position `index` as failed.
    fn fail(&mut self, index: usize, error: PipelineError) {
        if self.failure.as_ref().is_none_or(|&(first, _)| index < first) {
            self.failure = Some((index, error));
        }
    }
}

#[cfg(test)]
mod tests {
    use std::ops::Range;

    use super::*;

    fn grid() -> ArchGrid {
        ArchGrid::around(ArchConfig::paper()).with_macros(vec![2, 4]).with_rows(vec![32, 64])
    }

    #[test]
    fn spec_points_follow_canonical_order() {
        let spec = DseSpec::new(grid(), vec![ModelKind::Vgg19, ModelKind::AlexNet])
            .with_widths(vec![OperandWidth::Int8, OperandWidth::Int4]);
        let points = spec.points(OperandWidth::Int8, PruningSpec::none()).unwrap();
        assert_eq!(points.len(), 2 * 2 * 4);
        // Model outermost, widths canonical narrow-to-wide, archs in grid
        // enumeration order.
        assert_eq!(points[0].kind, ModelKind::Vgg19);
        assert_eq!(points[0].width, OperandWidth::Int4);
        assert_eq!((points[0].arch.macros, points[0].arch.rows_per_dbmu), (2, 32));
        assert_eq!((points[3].arch.macros, points[3].arch.rows_per_dbmu), (4, 64));
        assert_eq!(points[4].width, OperandWidth::Int8);
        assert_eq!(points[8].kind, ModelKind::AlexNet);
    }

    #[test]
    fn spec_dedupes_and_keeps_canonical_order() {
        let spec = DseSpec::new(
            ArchGrid::around(ArchConfig::paper()),
            vec![ModelKind::Vgg19, ModelKind::AlexNet, ModelKind::Vgg19],
        )
        .with_sparsity(vec![
            SparsityConfig::HybridSparsity,
            SparsityConfig::DenseBaseline,
            SparsityConfig::HybridSparsity,
        ]);
        assert_eq!(spec.unique_models(), vec![ModelKind::Vgg19, ModelKind::AlexNet]);
        assert_eq!(
            spec.unique_sparsity(),
            vec![SparsityConfig::DenseBaseline, SparsityConfig::HybridSparsity]
        );
        let points = spec.points(OperandWidth::Int8, PruningSpec::none()).unwrap();
        let archs: Vec<ArchConfig> = points.iter().map(|p| p.arch).collect();
        assert_eq!(archs, vec![ArchConfig::paper(); 2], "a grid of one geometry");
    }

    #[test]
    fn width_axis_defaults_to_the_session_width_and_dedupes() {
        let spec = DseSpec::new(grid(), vec![ModelKind::AlexNet]);
        assert!(spec.widths.is_empty());
        assert_eq!(spec.effective_widths(OperandWidth::Int8), vec![OperandWidth::Int8]);
        assert_eq!(spec.effective_widths(OperandWidth::Int4), vec![OperandWidth::Int4]);
        let spec = spec.with_widths(vec![
            OperandWidth::Int16,
            OperandWidth::Int4,
            OperandWidth::Int16,
            OperandWidth::Int8,
        ]);
        // Canonical narrow-to-wide order, duplicates executed once.
        assert_eq!(
            spec.effective_widths(OperandWidth::Int8),
            vec![OperandWidth::Int4, OperandWidth::Int8, OperandWidth::Int16]
        );
    }

    #[test]
    fn zoo_spec_covers_all_models_and_configs() {
        let spec = DseSpec::new(ArchGrid::around(ArchConfig::paper()), ModelKind::all().to_vec());
        assert_eq!(spec.unique_models().len(), 5);
        assert_eq!(spec.unique_sparsity().len(), 4);
        let points = spec.points(OperandWidth::Int8, PruningSpec::none()).unwrap();
        assert_eq!(points.len(), 5, "one point per model on the one geometry");
    }

    #[test]
    fn empty_sweep_returns_empty_report() {
        let driver = DseDriver::new(PipelineConfig::fast()).unwrap();
        let spec = DseSpec::new(ArchGrid::around(ArchConfig::paper()), Vec::new());
        let report = driver.run(&spec).unwrap();
        assert!(report.entries.is_empty());
        assert!(report.is_complete());
        assert_eq!(driver.cache_stats().artifact_misses, 0);
    }

    #[test]
    fn spec_with_infeasible_grid_is_a_structured_error() {
        let spec = DseSpec::new(
            ArchGrid::around(ArchConfig::paper()).with_macros(vec![0]),
            vec![ModelKind::AlexNet],
        );
        let err = spec.points(OperandWidth::Int8, PruningSpec::none()).unwrap_err();
        assert!(err.to_string().contains("infeasible"), "{err}");
    }

    /// Each block's point indices, before any claim.
    fn blocks(points: usize, workers: usize) -> Vec<Vec<usize>> {
        PointQueue::new(points, workers).pending.into_iter().map(Vec::from).collect()
    }

    /// The plan covers `0..N` exactly once, for worker counts below, at
    /// and above the point count.
    #[test]
    fn contiguous_blocks_cover_every_point_exactly_once() {
        for points in [0, 1, 12, 16] {
            for workers in [1, 2, 3, 7, 16, 21] {
                let mut seen = HashSet::new();
                for point in blocks(points, workers).into_iter().flatten() {
                    assert!(point < points, "{point} out of range over {workers} workers");
                    assert!(seen.insert(point), "{point} in two blocks over {workers} workers");
                }
                assert_eq!(seen.len(), points, "gaps: {points} over {workers} workers");
            }
        }
    }

    /// Every worker gets a block, each block starts where the one before
    /// it ends, sizes differ by at most one point with the larger blocks
    /// first, and workers past the point count get empty blocks.
    #[test]
    fn contiguous_blocks_give_every_worker_a_balanced_share() {
        let points = 12;
        for workers in [1, 2, 3, 5, points, points + 3] {
            let blocks = blocks(points, workers);
            assert_eq!(blocks.len(), workers);
            let order: Vec<usize> = blocks.concat();
            assert_eq!(order, (0..points).collect::<Vec<_>>(), "{workers} workers: {blocks:?}");
            let sizes: Vec<usize> = blocks.iter().map(Vec::len).collect();
            assert!(sizes.windows(2).all(|w| w[0] >= w[1] && w[0] - w[1] <= 1), "{sizes:?}");
            assert_eq!(sizes.iter().filter(|&&s| s == 0).count(), workers.saturating_sub(points));
        }
    }

    /// Blocks are runs of adjacent indices, in worker order, with the
    /// remainder going to the earliest workers.
    #[test]
    fn contiguous_blocks_chunk_the_point_list_in_order() {
        let chunks = |ranges: &[Range<usize>]| -> Vec<Vec<usize>> {
            ranges.iter().map(|r| r.clone().collect()).collect()
        };
        assert_eq!(blocks(12, 3), chunks(&[0..4, 4..8, 8..12]));
        assert_eq!(blocks(7, 3), chunks(&[0..3, 3..5, 5..7]));
        assert_eq!(blocks(2, 4), chunks(&[0..1, 1..2, 2..2, 2..2]));
    }

    /// Worker `w`'s first claim is the first point of block `w`; a worker
    /// whose block is empty takes the front of the largest remaining block,
    /// the lowest on a tie; a requeued point is its block's next claim.
    #[test]
    fn claims_drain_the_own_block_then_the_largest_remaining_one() {
        // Blocks 0..4, 4..7 and 7..10.
        let mut queue = PointQueue::new(10, 3);
        assert_eq!(queue.claim(1), Some((4, 1)));
        assert_eq!(queue.claim(0), Some((0, 0)));
        assert_eq!(queue.claim(2), Some((7, 2)));
        assert_eq!(queue.claim(2), Some((8, 2)));
        assert_eq!(queue.claim(2), Some((9, 2)));
        // Block 2 is empty; block 0 holds 1..4 and block 1 holds 5..7.
        assert_eq!(queue.claim(2), Some((1, 0)), "the largest block");
        assert_eq!(queue.claim(2), Some((2, 0)), "a tie goes to the lowest block");
        assert_eq!(queue.claim(2), Some((5, 1)));
        queue.requeue(1, 5);
        assert_eq!(queue.claim(1), Some((5, 1)), "a requeued point comes first");
        queue.requeue(0, 2);
        assert_eq!(queue.claim(2), Some((2, 0)), "and is stolen first too");
        assert_eq!(queue.claim(0), Some((3, 0)));
        assert_eq!(queue.claim(0), Some((6, 1)));
        assert_eq!(queue.claim(1), None);

        // Workers past the point count start by stealing.
        let mut queue = PointQueue::new(2, 4);
        assert_eq!(queue.claim(3), Some((0, 0)));
        assert_eq!(queue.claim(2), Some((1, 1)));
    }

    #[test]
    fn unix_time_is_monotone_enough_for_snapshots() {
        let a = unix_time_ms();
        let b = unix_time_ms();
        assert!(b >= a);
        assert!(a > 1_600_000_000_000, "clock reads as a plausible current date");
    }

    /// Parses `raw` against the pipeline and grid groups and reads both, as
    /// `dse_sweep` and `dbpim-fleet` do.
    fn parse(raw: &[&str]) -> Result<(PipelineConfig, DseSpec), OptionsError> {
        use crate::flags::{GRID_FLAGS, PIPELINE_FLAGS};
        let args: Vec<String> = raw.iter().map(ToString::to_string).collect();
        let flags = Flags::parse(&[PIPELINE_FLAGS, GRID_FLAGS], &args)?;
        Ok((PipelineConfig::from_flags(&flags)?, DseSpec::from_flags(&flags)?))
    }

    #[test]
    fn malformed_grid_values_are_rejected_not_swallowed() {
        let err = parse(&["--macros", "2,x"]).unwrap_err();
        assert_eq!(err.flag, "--macros");
        assert!(err.message.contains('x'), "{err}");

        let err = parse(&["--freqs"]).unwrap_err();
        assert_eq!(err.flag, "--freqs");
        assert!(err.to_string().contains("missing"), "{err}");

        let err = parse(&["--models", "lenet"]).unwrap_err();
        assert_eq!(err.flag, "--models");

        // Shared pipeline flags stay strict too.
        let err = parse(&["--operand-width", "10"]).unwrap_err();
        assert_eq!(err.flag, "--operand-width");
    }

    #[test]
    fn defaults_cover_the_paper_models_on_the_paper_point() {
        let (config, spec) = parse(&[]).unwrap();
        assert_eq!(config, PipelineConfig::paper());
        assert_eq!(spec.models.len(), 5);
        assert_eq!(spec.grid, ArchGrid::around(ArchConfig::paper()));
        assert_eq!(spec.points(OperandWidth::Int8, PruningSpec::none()).unwrap().len(), 5);
        assert_eq!(spec.sparsity, SparsityConfig::all().to_vec());
        assert!(!spec.fidelity);
        // A blank list is the default, as it always was.
        let (_, blank) = parse(&["--models", ",", "--sparsity", " "]).unwrap();
        assert_eq!(blank, spec);
    }

    #[test]
    fn rendered_report_is_deterministic_for_identical_results() {
        let config = PipelineConfig::fast().without_fidelity();
        let driver = DseDriver::new(config).unwrap();
        let spec = DseSpec::new(
            ArchGrid::around(ArchConfig::paper()).with_macros(vec![2, 4]),
            vec![ModelKind::MobileNetV2],
        )
        .with_sparsity(vec![SparsityConfig::DenseBaseline, SparsityConfig::HybridSparsity]);
        let first = driver.run(&spec).unwrap();
        let second = driver.run(&spec).unwrap();
        assert!(first.results_match(&second));
        let rendered = render_report(&first);
        assert_eq!(rendered, render_report(&second), "rendering leaked non-determinism");
        assert!(rendered.contains("pareto frontier"));
        assert!(rendered.contains("MobileNetV2"));
        // Without fidelity no entry measured a loss, so no line claims one.
        assert!(first.entries.iter().all(|e| e.result.fidelity.is_none()));
        assert!(!rendered.contains("loss"), "{rendered}");
    }
}
