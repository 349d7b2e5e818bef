//! Design-space exploration: persisted, resumable grids over architecture
//! geometry × models × sparsity × operand width.
//!
//! The paper's evaluation fixes one geometry (Section 4.1); its *claim* is a
//! methodology that should win across geometries. This module turns the
//! session layer into a DSE engine:
//!
//! * [`DseSpec`] — an [`ArchGrid`] (axis grids over the [`ArchConfig`]
//!   parameters) crossed with models, sparsity configurations and operand
//!   widths. Enumeration is deterministic and infeasible geometries are
//!   rejected with structured errors.
//! * [`DseReport`] — the persisted result set: one [`DseEntry`] per (model,
//!   width, geometry) point, snapshotted to disk as JSON after every batch,
//!   so a killed run loses at most one batch of work.
//! * [`DseDriver`] — executes the missing points of a spec against a warm
//!   [`BatchRunner`] cache (quantize / FTA / compile run once per (model,
//!   width) regardless of grid size) and resumes from a snapshot by
//!   re-simulating only absent points.
//! * Pareto-frontier extraction over latency / energy / area / fidelity
//!   via [`DseReport::pareto_frontier`].
//!
//! Entry results are bit-identical to independent per-point
//! [`Pipeline`](crate::Pipeline) runs — the workspace test
//! `dse_exploration.rs` asserts exactly that, plus resume-only-missing and
//! the frontier against a brute-force reference.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

use dbpim_arch::ArchConfig;
use dbpim_csd::OperandWidth;
use dbpim_nn::ModelKind;
use dbpim_sim::dse::{pareto_frontier, ArchGrid, GridError, ParetoMetrics};
use dbpim_sim::{AreaModel, SparsityConfig};
use dbpim_tensor::PruningSpec;
use serde::value::{get_field, type_error, Value};
use serde::{Deserialize, Error, Serialize};

use crate::error::PipelineError;
use crate::pipeline::{CodesignResult, PipelineConfig};
use crate::session::{par, BatchRunner, SessionCacheStats, SweepEntry};

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
    /// Evaluate accuracy fidelity where defined (INT8 width, evaluation
    /// images configured).
    pub fidelity: bool,
}

impl Serialize for DseSpec {
    fn to_value(&self) -> Value {
        let mut entries = vec![
            ("grid".to_string(), self.grid.to_value()),
            ("models".to_string(), self.models.to_value()),
            ("sparsity".to_string(), self.sparsity.to_value()),
            ("widths".to_string(), self.widths.to_value()),
            ("fidelity".to_string(), self.fidelity.to_value()),
        ];
        if !self.pruning.is_empty() {
            entries.push(("pruning".to_string(), self.pruning.to_value()));
        }
        Value::Map(entries)
    }
}

impl Deserialize for DseSpec {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let entries = value.as_map().ok_or_else(|| type_error("DSE spec map", value))?;
        let field = |name: &str| {
            get_field(entries, name).ok_or_else(|| Error::custom(format!("missing field `{name}`")))
        };
        Ok(Self {
            grid: ArchGrid::from_value(field("grid")?)?,
            models: Vec::from_value(field("models")?)?,
            sparsity: Vec::from_value(field("sparsity")?)?,
            widths: Vec::from_value(field("widths")?)?,
            pruning: match get_field(entries, "pruning") {
                Some(found) => Vec::from_value(found)?,
                None => Vec::new(),
            },
            fidelity: bool::from_value(field("fidelity")?)?,
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

    /// Every (model, width, pruning, geometry) point of the exploration in
    /// canonical order (see [`PointAxes::points`]), geometries in grid
    /// enumeration order.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::BadConfig`] for an oversized or infeasible
    /// grid, including a geometry that cannot hold one weight of a swept
    /// width (the message names the offending point and constraint).
    pub fn points(
        &self,
        session_width: OperandWidth,
        session_pruning: PruningSpec,
    ) -> Result<Vec<DsePoint>, PipelineError> {
        let archs = self.grid.enumerate().map_err(grid_error)?;
        let axes = self.axes();
        let widths = axes.effective_widths(session_width);
        for (index, arch) in archs.iter().enumerate() {
            for &width in &widths {
                arch.dense_filters_per_macro_for(width).map_err(|source| {
                    grid_error(GridError::Infeasible { index, arch: Box::new(*arch), source })
                })?;
            }
        }
        Ok(axes.points(&archs, session_width, session_pruning))
    }
}

fn grid_error(e: GridError) -> PipelineError {
    PipelineError::BadConfig { reason: e.to_string() }
}

/// The model, sparsity, width and pruning axes of a
/// [`SweepSpec`](crate::SweepSpec) or a [`DseSpec`], borrowed from the
/// spec. This is the one place both specs canonicalize their axes and
/// expand into [`DsePoint`]s, so a sweep and an exploration over the same
/// axes run the same points in the same order.
#[derive(Debug, Clone, Copy)]
pub struct PointAxes<'a> {
    /// Requested models (duplicates are executed once).
    pub(crate) models: &'a [ModelKind],
    /// Requested sparsity configurations (duplicates are executed once).
    pub(crate) sparsity: &'a [SparsityConfig],
    /// Requested operand widths; empty means the session's.
    pub(crate) widths: &'a [OperandWidth],
    /// Requested pruning specs; empty means the session's.
    pub(crate) pruning: &'a [PruningSpec],
}

impl PointAxes<'_> {
    /// The requested models, duplicates removed, in first-seen order.
    #[must_use]
    pub fn unique_models(&self) -> Vec<ModelKind> {
        first_seen(self.models)
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
        first_seen(self.pruning)
    }

    /// Every (model, width, pruning, geometry) point over `archs` in
    /// canonical order: models outermost (first-seen), then widths (narrow
    /// to wide), then pruning specs (request order), then `archs` in the
    /// order given.
    #[must_use]
    pub fn points(
        &self,
        archs: &[ArchConfig],
        session_width: OperandWidth,
        session_pruning: PruningSpec,
    ) -> Vec<DsePoint> {
        let widths = self.effective_widths(session_width);
        let prunings = self.effective_pruning(session_pruning);
        let mut points = Vec::new();
        for kind in self.unique_models() {
            for &width in &widths {
                for &pruning in &prunings {
                    for &arch in archs {
                        points.push(DsePoint { kind, width, pruning, arch });
                    }
                }
            }
        }
        points
    }
}

/// `items` with duplicates removed, in first-seen order.
pub(crate) fn first_seen<T: Copy + PartialEq>(items: &[T]) -> Vec<T> {
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

    /// The point's opaque hashable identity — what deduplication across
    /// shard reports keys on.
    #[must_use]
    pub fn canonical_key(&self) -> DsePointKey {
        DsePointKey(self.key())
    }
}

/// An opaque, hashable identity of one (model, width, pruning, geometry)
/// point.
///
/// `ArchConfig` and `PruningSpec` cannot implement `Hash`/`Eq` (they hold
/// `f64` fields), so consumers that need set/map semantics over points — the
/// fleet orchestrator's exactly-once bookkeeping, shard dedup — go through
/// this key instead. Two points compare equal here iff they compare equal
/// field-for-field (floats by bit pattern).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DsePointKey(PointKey);

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
    fn to_value(&self) -> Value {
        let mut entries = vec![
            ("kind".to_string(), self.kind.to_value()),
            ("width".to_string(), self.width.to_value()),
            ("arch".to_string(), self.arch.to_value()),
            ("result".to_string(), self.result.to_value()),
            ("computed_at_ms".to_string(), self.computed_at_ms.to_value()),
        ];
        if self.pruning.is_active() {
            entries.push(("pruning".to_string(), self.pruning.to_value()));
        }
        Value::Map(entries)
    }
}

impl Deserialize for DseEntry {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let entries = value.as_map().ok_or_else(|| type_error("DSE entry map", value))?;
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
            computed_at_ms: u64::from_value(field("computed_at_ms")?)?,
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

    /// The opaque hashable identity of the entry's point (see
    /// [`DsePointKey`]).
    #[must_use]
    pub fn canonical_key(&self) -> DsePointKey {
        DsePointKey(self.key())
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
/// Reports serialize through the vendored `serde_json`; [`DseDriver`] saves
/// a snapshot after every batch, so a killed run resumes from disk by
/// computing only the missing points. Entries are kept in the spec's
/// canonical point order regardless of the order resumes filled them in.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DseReport {
    /// The spec the report answers. Resuming against a different spec is a
    /// structured error, never a silent partial reuse.
    pub spec: DseSpec,
    /// One entry per completed (model, width, geometry) point, in canonical
    /// spec order.
    pub entries: Vec<DseEntry>,
    /// Total points the spec enumerates; `entries.len() == total_points`
    /// once the exploration is complete.
    pub total_points: usize,
    /// Points computed (not served from the snapshot) by the most recent
    /// driver run that produced this report.
    pub fresh_points: usize,
    /// Cumulative wall-clock time across the run and every resume.
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
        CanonicalOrder::new(&self.spec).sort(&mut self.entries);
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
        let mut a = self.clone();
        let mut b = other.clone();
        a.sort_canonical();
        b.sort_canonical();
        a.entries.iter().zip(b.entries.iter()).all(|(x, y)| {
            x.kind == y.kind
                && x.width == y.width
                && x.pruning == y.pruning
                && x.arch == y.arch
                && x.result == y.result
        })
    }

    /// Merges another report for the *same spec* into this one: entries of
    /// `other` whose point is already present are dropped (first report
    /// wins — deterministic under the bit-identical execution the driver
    /// guarantees), the rest are adopted and the result re-sorted into
    /// canonical order.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::BadConfig`] when the specs differ.
    pub fn merge(mut self, other: DseReport) -> Result<DseReport, PipelineError> {
        if self.spec != other.spec {
            return Err(PipelineError::BadConfig {
                reason: "cannot merge DSE reports answering different specs".to_string(),
            });
        }
        let mut have: HashSet<PointKey> = self.entries.iter().map(DseEntry::key).collect();
        for entry in other.entries {
            if have.insert(entry.key()) {
                self.entries.push(entry);
            }
        }
        self.wall_time = self.wall_time.max(other.wall_time);
        self.saved_at_ms = self.saved_at_ms.max(other.saved_at_ms);
        self.fresh_points = self.fresh_points.min(self.entries.len());
        self.sort_canonical();
        Ok(self)
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

    /// Persists the report as JSON at `path` (atomically: written to a
    /// sibling temp file, then renamed, so a kill mid-save never leaves a
    /// torn snapshot).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::BadConfig`] when serialization or the write
    /// fails (the path is included in the message).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PipelineError> {
        let path = path.as_ref();
        let json = serde_json::to_string(self).map_err(|e| PipelineError::BadConfig {
            reason: format!("cannot serialize DSE report: {e}"),
        })?;
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, json).map_err(|e| PipelineError::BadConfig {
            reason: format!("cannot write DSE snapshot to {}: {e}", tmp.display()),
        })?;
        std::fs::rename(&tmp, path).map_err(|e| PipelineError::BadConfig {
            reason: format!("cannot move DSE snapshot into {}: {e}", path.display()),
        })
    }

    /// Loads a report previously persisted with [`save`](Self::save).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::BadConfig`] when the file cannot be read or
    /// does not parse as a DSE report.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, PipelineError> {
        let path = path.as_ref();
        let json = std::fs::read_to_string(path).map_err(|e| PipelineError::BadConfig {
            reason: format!("cannot read DSE snapshot from {}: {e}", path.display()),
        })?;
        serde_json::from_str(&json).map_err(|e| PipelineError::BadConfig {
            reason: format!("malformed DSE snapshot in {}: {e}", path.display()),
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
            models: spec.axes().unique_models(),
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

    fn sort(&self, entries: &mut [DseEntry]) {
        entries.sort_by_cached_key(|e| self.key(e));
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

/// Executes [`DseSpec`]s against a warm [`BatchRunner`] cache, persisting a
/// resumable [`DseReport`] snapshot after every batch.
///
/// The driver's contract, asserted by `tests/dse_exploration.rs`:
///
/// * every entry is bit-identical to an independent per-point
///   [`Pipeline`](crate::Pipeline) run at that geometry;
/// * resuming from a snapshot recomputes only the missing points (the
///   expensive model-side artifacts are reused through the session cache,
///   and present entries are adopted verbatim, timestamps included);
/// * execution order (batching, parallelism) never changes results — the
///   report is sorted into canonical point order before every save.
#[derive(Debug)]
pub struct DseDriver {
    runner: Arc<BatchRunner>,
    snapshot: Option<PathBuf>,
    threads: usize,
    batch_size: usize,
    point_limit: Option<usize>,
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

    /// Wraps an existing (possibly shared, already warm) runner.
    #[must_use]
    pub fn from_runner(runner: Arc<BatchRunner>) -> Self {
        Self {
            runner,
            snapshot: None,
            threads: par::default_parallelism(),
            batch_size: 8,
            point_limit: None,
        }
    }

    /// Persists and resumes from a snapshot at `path`.
    #[must_use]
    pub fn with_snapshot(mut self, path: impl Into<PathBuf>) -> Self {
        self.snapshot = Some(path.into());
        self
    }

    /// Overrides the worker-thread count (`1` forces sequential execution).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Points computed between snapshot saves (default 8). Smaller batches
    /// lose less work to a kill; larger ones amortize the save.
    #[must_use]
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
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

    /// The underlying runner (shared warm artifact cache).
    #[must_use]
    pub fn runner(&self) -> &BatchRunner {
        &self.runner
    }

    /// The underlying session's cache counters.
    #[must_use]
    pub fn cache_stats(&self) -> SessionCacheStats {
        self.runner.cache_stats()
    }

    /// Runs (or resumes) the exploration described by `spec`.
    ///
    /// Missing points execute in parallel batches; after every batch the
    /// report is snapshotted (when a snapshot path is configured), so a
    /// killed run loses at most one batch. A failing point still persists
    /// the batch's successful siblings before the error propagates.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::BadConfig`] for oversized / infeasible grids
    /// and for a snapshot recorded under a different spec; propagates the
    /// first point failure otherwise.
    pub fn run(&self, spec: &DseSpec) -> Result<DseReport, PipelineError> {
        let session_width = self.runner.session().config().operand_width;
        let session_pruning = self.runner.session().config().pruning;
        let points = spec.points(session_width, session_pruning)?;
        let _span = dbpim_trace::span!("dse.run", points = points.len());
        let sparsity = spec.axes().unique_sparsity();
        let start = Instant::now();

        let mut report = self.load_or_new(spec, points.len())?;
        let prior_wall = report.wall_time;
        report.fresh_points = 0;

        // Hashed point bookkeeping, built once per run: the largest legal
        // spec has tens of thousands of points, and linear `ArchConfig`
        // scans per point (or per sort key) would dwarf the simulations.
        let order = CanonicalOrder::new(spec);
        let have: HashSet<PointKey> = report.entries.iter().map(DseEntry::key).collect();
        let mut missing: Vec<DsePoint> =
            points.iter().filter(|p| !have.contains(&p.key())).copied().collect();
        if let Some(limit) = self.point_limit {
            missing.truncate(limit);
        }

        for batch in missing.chunks(self.batch_size) {
            let _batch_span = dbpim_trace::span!("dse.batch", points = batch.len());
            let computed = par::par_map(batch.to_vec(), self.threads, |point| {
                let _span = dbpim_trace::span!(
                    "dse.point",
                    model = point.kind.name(),
                    width = point.width.bits(),
                    macros = point.arch.macros,
                    rows = point.arch.rows_per_dbmu,
                );
                self.runner
                    .run_point_pruned(
                        point.kind,
                        point.width,
                        point.pruning,
                        Some(point.arch),
                        &sparsity,
                        spec.fidelity,
                    )
                    .map(DseEntry::from_sweep)
            });
            let mut failure = None;
            for result in computed {
                match result {
                    Ok(entry) => {
                        report.entries.push(entry);
                        report.fresh_points += 1;
                    }
                    Err(e) => failure = failure.or(Some(e)),
                }
            }
            order.sort(&mut report.entries);
            report.wall_time = prior_wall + start.elapsed();
            self.persist(&mut report)?;
            if let Some(e) = failure {
                return Err(e);
            }
        }

        report.wall_time = prior_wall + start.elapsed();
        if missing.is_empty() {
            // A fully-cached resume still refreshes the snapshot metadata.
            self.persist(&mut report)?;
        }
        Ok(report)
    }

    fn load_or_new(&self, spec: &DseSpec, total_points: usize) -> Result<DseReport, PipelineError> {
        let Some(path) = &self.snapshot else {
            return Ok(DseReport::empty(spec.clone(), total_points));
        };
        if !path.exists() {
            return Ok(DseReport::empty(spec.clone(), total_points));
        }
        let loaded = DseReport::load(path)?;
        if loaded.spec != *spec {
            return Err(PipelineError::BadConfig {
                reason: format!(
                    "DSE snapshot {} was recorded for a different spec; refusing to resume",
                    path.display()
                ),
            });
        }
        Ok(DseReport { total_points, ..loaded })
    }

    fn persist(&self, report: &mut DseReport) -> Result<(), PipelineError> {
        if let Some(path) = &self.snapshot {
            report.saved_at_ms = unix_time_ms();
            report.save(path)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
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
    fn spec_with_infeasible_grid_is_a_structured_error() {
        let spec = DseSpec::new(
            ArchGrid::around(ArchConfig::paper()).with_macros(vec![0]),
            vec![ModelKind::AlexNet],
        );
        let err = spec.points(OperandWidth::Int8, PruningSpec::none()).unwrap_err();
        assert!(err.to_string().contains("infeasible"), "{err}");
    }

    #[test]
    fn report_merge_requires_matching_specs() {
        let spec_a = DseSpec::new(grid(), vec![ModelKind::AlexNet]);
        let spec_b = DseSpec::new(grid(), vec![ModelKind::Vgg19]);
        let a = DseReport::empty(spec_a.clone(), 4);
        let b = DseReport::empty(spec_b, 4);
        assert!(a.clone().merge(b).is_err());
        let merged = a.clone().merge(DseReport::empty(spec_a, 4)).unwrap();
        assert!(merged.entries.is_empty());
        assert!(!merged.is_complete());
    }

    #[test]
    fn unix_time_is_monotone_enough_for_snapshots() {
        let a = unix_time_ms();
        let b = unix_time_ms();
        assert!(b >= a);
        assert!(a > 1_600_000_000_000, "clock reads as a plausible current date");
    }
}
