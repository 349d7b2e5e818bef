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
//! * [`DseDriver`] — executes the missing points of a spec against a warm
//!   [`BatchRunner`] cache (quantize / FTA run once per (model, width,
//!   pruning) regardless of grid size) and resumes from a snapshot by
//!   re-simulating only absent points.
//! * Pareto-frontier extraction over latency / energy / area / fidelity
//!   via [`DseReport::pareto_frontier`].
//!
//! Entry results are bit-identical to independent per-point
//! [`Pipeline`](crate::Pipeline) runs — the workspace test
//! `dse_exploration.rs` asserts exactly that, plus resume-only-missing and
//! the frontier against a brute-force reference.

use std::collections::{HashMap, HashSet, VecDeque};
use std::fs::File;
use std::io::Write as _;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};
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
    /// width (the message names the offending point and constraint).
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

    /// The point's opaque hashable identity — what deduplication across
    /// reports keys on.
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

    /// The opaque hashable identity of the entry's point (see
    /// [`DsePointKey`]).
    #[must_use]
    pub fn canonical_key(&self) -> DsePointKey {
        DsePointKey(self.key())
    }

    /// The width cell of the rendered tables: the width, then an active
    /// pruning spec after a slash (`int8/u0.50`). An unpruned entry renders
    /// the width alone, as before the pruning axis existed.
    #[must_use]
    pub fn width_label(&self) -> String {
        if self.pruning.is_active() {
            format!("{}/{}", self.width, self.pruning.label())
        } else {
            self.width.to_string()
        }
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

    /// Persists the whole report as one line of JSON at `path` (atomically:
    /// written to a sibling temp file, then renamed, so a kill mid-save
    /// never leaves a torn snapshot). The file is a [`DseJournal`] whose
    /// header holds every entry.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::BadConfig`] when serialization or the write
    /// fails (the path is included in the message).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PipelineError> {
        write_atomically(path.as_ref(), &encode(self)?)
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
    /// Returns [`PipelineError::BadConfig`] (naming the file) when it cannot
    /// be read, or when it is not a whole report and its line 1 does not
    /// parse as a DSE report or a line but the last does not parse as an
    /// entry.
    pub fn load_journal(path: impl AsRef<Path>) -> Result<(Self, Option<usize>), PipelineError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| PipelineError::BadConfig {
            reason: format!("cannot read DSE snapshot from {}: {e}", path.display()),
        })?;
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
        let malformed = |line: usize, e: &dyn std::fmt::Display| PipelineError::BadConfig {
            reason: format!("malformed DSE snapshot in {} (line {line}): {e}", path.display()),
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

/// `value` as one line of JSON.
fn encode(value: &impl Serialize) -> Result<String, PipelineError> {
    serde_json::to_string(value).map_err(|e| PipelineError::BadConfig {
        reason: format!("cannot serialize DSE snapshot: {e}"),
    })
}

/// Writes `contents` to a sibling temp file, then renames it onto `path`.
fn write_atomically(path: &Path, contents: &str) -> Result<(), PipelineError> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, contents).map_err(|e| PipelineError::BadConfig {
        reason: format!("cannot write DSE snapshot to {}: {e}", tmp.display()),
    })?;
    std::fs::rename(&tmp, path).map_err(|e| PipelineError::BadConfig {
        reason: format!("cannot move DSE snapshot into {}: {e}", path.display()),
    })
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
    /// Returns [`PipelineError::BadConfig`] (naming the file) when encoding,
    /// the write or reopening the file for appends fails.
    pub fn create(path: impl Into<PathBuf>, report: &DseReport) -> Result<Self, PipelineError> {
        let path = path.into();
        let header = DseReport { spec: report.spec.clone(), entries: Vec::new(), ..*report };
        let mut contents = encode(&header)?;
        contents.push('\n');
        for entry in &report.entries {
            contents.push_str(&encode(entry)?);
            contents.push('\n');
        }
        write_atomically(&path, &contents)?;
        let file =
            File::options().append(true).open(&path).map_err(|e| PipelineError::BadConfig {
                reason: format!("cannot open DSE snapshot {} for appends: {e}", path.display()),
            })?;
        Ok(Self { path, file: Mutex::new(Some(file)) })
    }

    /// Appends `entry` as one line: encoded with no lock held, then written
    /// with a single write under the journal's lock. After a failed write
    /// the journal accepts no further entries.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::BadConfig`] (naming the file) when encoding
    /// or the write fails, or an earlier write did.
    pub fn append(&self, entry: &DseEntry) -> Result<(), PipelineError> {
        let mut record = encode(entry)?;
        record.push('\n');
        let mut file = lock_unpoisoned(&self.file);
        let written = match file.as_mut() {
            Some(file) => file.write_all(record.as_bytes()).map_err(|e| e.to_string()),
            None => Err("an earlier write failed".to_string()),
        };
        written.map_err(|e| {
            *file = None;
            PipelineError::BadConfig {
                reason: format!("cannot append to DSE snapshot {}: {e}", self.path.display()),
            }
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

/// The plan a point set runs by, on [`DseDriver`] threads and on fleet
/// workers alike: worker `w` starts on the `w`-th contiguous block of the
/// canonical point list (earlier blocks take the remainder) and works
/// through it in order; once its block is empty it takes the front point of
/// the largest remaining block, ties going to the lowest. Adjacent points
/// usually share a (model, width), so the workers start on different
/// artifact sets and each prepares few of them.
#[derive(Debug)]
pub struct PointQueue {
    /// Each block's point indices, claimed or not.
    blocks: Vec<Range<usize>>,
    /// Each block's unclaimed point indices, in claim order.
    pending: Vec<VecDeque<usize>>,
}

impl PointQueue {
    /// Splits the point indices `0..points` into one block per worker (at
    /// least one) and queues the indices `queued` accepts.
    pub fn new(points: usize, workers: usize, queued: impl Fn(usize) -> bool) -> Self {
        let workers = workers.max(1);
        let bound = |w: usize| w * (points / workers) + w.min(points % workers);
        let blocks: Vec<Range<usize>> = (0..workers).map(|w| bound(w)..bound(w + 1)).collect();
        let pending = blocks.iter().map(|b| b.clone().filter(|&i| queued(i)).collect()).collect();
        Self { blocks, pending }
    }

    /// Block `block`'s point indices, claimed or not.
    #[must_use]
    pub fn block(&self, block: usize) -> Range<usize> {
        self.blocks[block].clone()
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

/// Executes [`DseSpec`]s against a warm [`BatchRunner`] cache on threads
/// claiming from one [`PointQueue`], persisting a resumable snapshot as it
/// goes.
///
/// With a snapshot path, a run starts a [`DseJournal`] there holding the
/// entries it adopted, and the thread that finishes a point appends it.
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
#[derive(Debug)]
pub struct DseDriver {
    runner: Arc<BatchRunner>,
    snapshot: Option<PathBuf>,
    threads: usize,
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

    /// Wraps an existing (possibly shared, already warm) runner. Points run
    /// on as many threads as the runner was built with (see
    /// [`BatchRunner::with_threads`]) unless [`with_threads`](Self::with_threads)
    /// overrides it.
    #[must_use]
    pub fn from_runner(runner: Arc<BatchRunner>) -> Self {
        Self { threads: runner.threads, runner, snapshot: None, point_limit: None }
    }

    /// Persists and resumes from a snapshot at `path`.
    #[must_use]
    pub fn with_snapshot(mut self, path: impl Into<PathBuf>) -> Self {
        self.snapshot = Some(path.into());
        self
    }

    /// Overrides how many threads claim points from the run's
    /// [`PointQueue`] (`1` forces sequential execution).
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

    /// The underlying session's cache counters.
    #[must_use]
    pub fn cache_stats(&self) -> SessionCacheStats {
        self.runner.cache_stats()
    }

    /// Runs (or resumes) the exploration described by `spec`.
    ///
    /// The missing points (the first [`with_point_limit`](Self::with_point_limit)
    /// of them, in canonical order) run on at most
    /// [`with_threads`](Self::with_threads) threads claiming from one
    /// [`PointQueue`]. The thread that finishes a point appends it to the
    /// journal (when a snapshot path is configured), so a killed run loses
    /// only its in-flight points. Once a point fails, no claim after it in
    /// canonical order starts; points before it still run, and every
    /// started point finishes and is journaled before the error propagates.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::BadConfig`] for oversized / infeasible grids,
    /// for a snapshot recorded under a different spec and for a failed
    /// journal write; propagates the first point failure in canonical order
    /// otherwise.
    pub fn run(&self, spec: &DseSpec) -> Result<DseReport, PipelineError> {
        let session_width = self.runner.session().config().operand_width;
        let session_pruning = self.runner.session().config().pruning;
        let points = spec.points(session_width, session_pruning)?;
        let _span = dbpim_trace::span!("dse.run", points = points.len());
        let sparsity = spec.unique_sparsity();
        let start = Instant::now();

        let mut report = self.load_or_new(spec, points.len())?;
        report.fresh_points = 0;
        // Rewritten first, so a torn final record is gone before anything
        // is appended after it.
        let journal = match &self.snapshot {
            Some(path) => {
                let _span = dbpim_trace::span!("dse.persist", points = report.entries.len());
                report.saved_at_ms = unix_time_ms();
                Some(DseJournal::create(path, &report)?)
            }
            None => None,
        };

        // Hashed point bookkeeping, built once per run: the largest legal
        // spec has tens of thousands of points, and linear `ArchConfig`
        // scans per point would dwarf the simulations.
        let have: HashSet<PointKey> = report.entries.iter().map(DseEntry::key).collect();
        let mut missing: Vec<DsePoint> =
            points.iter().filter(|p| !have.contains(&p.key())).copied().collect();
        if let Some(limit) = self.point_limit {
            missing.truncate(limit);
        }

        // The plan, and the position in `missing` of the first failed
        // point: no claim after it starts.
        let workers = self.threads.min(missing.len());
        let plan = Mutex::new((PointQueue::new(missing.len(), workers, |_| true), usize::MAX));
        let finished = Mutex::new(Vec::with_capacity(missing.len()));
        let work = |worker: usize| loop {
            let claimed = {
                let mut plan = lock_unpoisoned(&plan);
                let (queue, first_failure) = &mut *plan;
                std::iter::from_fn(|| queue.claim(worker))
                    .find(|&(index, _)| index < *first_failure)
            };
            let Some((index, _)) = claimed else { return };
            let point = missing[index];
            let computed = {
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
            };
            let persisted = computed.and_then(|entry| match &journal {
                Some(journal) => {
                    let _span = dbpim_trace::span!("dse.persist", points = 1);
                    journal.append(&entry).map(|()| entry)
                }
                None => Ok(entry),
            });
            if persisted.is_err() {
                let first_failure = &mut lock_unpoisoned(&plan).1;
                *first_failure = index.min(*first_failure);
            }
            lock_unpoisoned(&finished).push((index, persisted));
        };
        // A single worker runs on the calling thread, as sequential runs
        // always have: a spawned one read ~5 % slower (EXPERIMENTS.md, "One
        // exploration plan").
        if workers == 1 {
            work(0);
        } else {
            std::thread::scope(|scope| {
                for worker in 0..workers {
                    scope.spawn(move || work(worker));
                }
            });
        }
        let mut finished = finished.into_inner().unwrap_or_else(PoisonError::into_inner);
        finished.sort_unstable_by_key(|&(index, _)| index);
        for (_, entry) in finished {
            report.entries.push(entry?);
            report.fresh_points += 1;
        }

        report.sort_canonical();
        report.wall_time += start.elapsed();
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

    fn blocks(points: usize, workers: usize) -> Vec<Range<usize>> {
        let queue = PointQueue::new(points, workers, |_| true);
        (0..workers).map(|w| queue.block(w)).collect()
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
            assert_eq!(blocks[0].start, 0);
            assert_eq!(blocks[workers - 1].end, points, "{workers} workers");
            assert!(blocks.windows(2).all(|w| w[0].end == w[1].start), "{blocks:?}");
            let sizes: Vec<usize> = blocks.iter().map(ExactSizeIterator::len).collect();
            assert!(sizes.windows(2).all(|w| w[0] >= w[1] && w[0] - w[1] <= 1), "{sizes:?}");
            assert_eq!(sizes.iter().filter(|&&s| s == 0).count(), workers.saturating_sub(points));
        }
    }

    /// Blocks are runs of adjacent indices, in worker order, with the
    /// remainder going to the earliest workers.
    #[test]
    fn contiguous_blocks_chunk_the_point_list_in_order() {
        assert_eq!(blocks(12, 3), [0..4, 4..8, 8..12]);
        assert_eq!(blocks(7, 3), [0..3, 3..5, 5..7]);
        assert_eq!(blocks(2, 4), [0..1, 1..2, 2..2, 2..2]);
    }

    /// Worker `w`'s first claim is the first point of block `w`; a worker
    /// whose block is empty takes the front of the largest remaining block,
    /// the lowest on a tie; a requeued point is its block's next claim.
    #[test]
    fn claims_drain_the_own_block_then_the_largest_remaining_one() {
        // Blocks 0..4, 4..7 and 7..10.
        let mut queue = PointQueue::new(10, 3, |_| true);
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

        // Workers past the point count start by stealing; points the
        // predicate leaves out are never claimed but keep their block.
        let mut queue = PointQueue::new(2, 4, |_| true);
        assert_eq!(queue.claim(3), Some((0, 0)));
        assert_eq!(queue.claim(2), Some((1, 1)));
        let mut queue = PointQueue::new(6, 2, |i| i % 3 != 0);
        assert_eq!((queue.block(0), queue.block(1)), (0..3, 3..6));
        assert_eq!(queue.claim(1), Some((4, 1)));
        assert_eq!(queue.claim(0), Some((1, 0)));
    }

    #[test]
    fn unix_time_is_monotone_enough_for_snapshots() {
        let a = unix_time_ms();
        let b = unix_time_ms();
        assert!(b >= a);
        assert!(a > 1_600_000_000_000, "clock reads as a plausible current date");
    }
}
