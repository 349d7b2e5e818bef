//! Design-space-exploration primitives: architecture axis grids and
//! Pareto-frontier extraction.
//!
//! The paper's headline claim is a *methodology*: DB-PIM's digit-serial CSD
//! macros win across geometries, not just at the Section 4.1 point. This
//! module provides the two hardware-side pieces a design-space exploration
//! needs:
//!
//! * [`ArchGrid`] — axis grids over the [`ArchConfig`] parameters (macro
//!   count, compartments, DBMU columns, rows, frequency, buffer sizes)
//!   crossed into concrete geometry points, with infeasible combinations
//!   rejected through structured [`GridError`]s rather than skipped
//!   silently.
//! * [`ParetoMetrics`] / [`pareto_frontier`] — the latency / energy / area /
//!   fidelity objective space and non-dominated-set extraction over it.

use std::fmt;

use dbpim_arch::{ArchConfig, ArchError};
use serde::{Deserialize, Serialize};

/// Hard cap on the number of geometry points one grid may enumerate.
///
/// A grid request travels over the serving protocol, so an accidental (or
/// hostile) cross product of long axes must be rejected up front instead of
/// tying a daemon worker up for hours.
pub const MAX_GRID_POINTS: usize = 4096;

/// A grid of architecture geometries: one value list per swept
/// [`ArchConfig`] axis, crossed into concrete points.
///
/// An empty axis means "keep the base configuration's value", so a grid
/// sweeping only `macros` and `rows_per_dbmu` stays two-dimensional. Axis
/// order in the cross product is fixed (macros outermost, then
/// compartments, DBMU columns, rows, frequency, feature / weight / meta
/// buffer bytes innermost), so the point order — and therefore every
/// downstream report — is deterministic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArchGrid {
    /// The configuration supplying every unswept parameter.
    pub base: ArchConfig,
    /// PIM macro counts to sweep.
    pub macros: Vec<usize>,
    /// Compartments-per-macro values to sweep.
    pub compartments_per_macro: Vec<usize>,
    /// DBMU-columns-per-compartment values to sweep.
    pub dbmus_per_compartment: Vec<usize>,
    /// Rows-per-DBMU values to sweep.
    pub rows_per_dbmu: Vec<usize>,
    /// Clock frequencies (MHz) to sweep.
    pub frequency_mhz: Vec<f64>,
    /// Feature-buffer capacities (bytes) to sweep.
    pub feature_buffer_bytes: Vec<usize>,
    /// Weight-buffer capacities (bytes) to sweep.
    pub weight_buffer_bytes: Vec<usize>,
    /// Meta-buffer capacities (bytes) to sweep.
    pub meta_buffer_bytes: Vec<usize>,
}

impl ArchGrid {
    /// A grid with every axis unswept: it enumerates exactly `base`.
    #[must_use]
    pub fn around(base: ArchConfig) -> Self {
        Self {
            base,
            macros: Vec::new(),
            compartments_per_macro: Vec::new(),
            dbmus_per_compartment: Vec::new(),
            rows_per_dbmu: Vec::new(),
            frequency_mhz: Vec::new(),
            feature_buffer_bytes: Vec::new(),
            weight_buffer_bytes: Vec::new(),
            meta_buffer_bytes: Vec::new(),
        }
    }

    /// Sweeps the macro count.
    #[must_use]
    pub fn with_macros(mut self, macros: Vec<usize>) -> Self {
        self.macros = macros;
        self
    }

    /// Sweeps the compartments per macro.
    #[must_use]
    pub fn with_compartments(mut self, compartments: Vec<usize>) -> Self {
        self.compartments_per_macro = compartments;
        self
    }

    /// Sweeps the DBMU columns per compartment.
    #[must_use]
    pub fn with_dbmus(mut self, dbmus: Vec<usize>) -> Self {
        self.dbmus_per_compartment = dbmus;
        self
    }

    /// Sweeps the rows per DBMU.
    #[must_use]
    pub fn with_rows(mut self, rows: Vec<usize>) -> Self {
        self.rows_per_dbmu = rows;
        self
    }

    /// Sweeps the clock frequency (MHz).
    #[must_use]
    pub fn with_frequencies(mut self, frequency_mhz: Vec<f64>) -> Self {
        self.frequency_mhz = frequency_mhz;
        self
    }

    /// Sweeps the feature-buffer capacity (bytes).
    #[must_use]
    pub fn with_feature_buffers(mut self, bytes: Vec<usize>) -> Self {
        self.feature_buffer_bytes = bytes;
        self
    }

    /// Sweeps the weight-buffer capacity (bytes).
    #[must_use]
    pub fn with_weight_buffers(mut self, bytes: Vec<usize>) -> Self {
        self.weight_buffer_bytes = bytes;
        self
    }

    /// Sweeps the meta-buffer capacity (bytes).
    #[must_use]
    pub fn with_meta_buffers(mut self, bytes: Vec<usize>) -> Self {
        self.meta_buffer_bytes = bytes;
        self
    }

    /// Number of points the cross product contains (before feasibility
    /// checks); an empty axis contributes the base value, i.e. a factor of
    /// one.
    #[must_use]
    pub fn point_count(&self) -> usize {
        let f = |len: usize| len.max(1);
        f(self.macros.len())
            * f(self.compartments_per_macro.len())
            * f(self.dbmus_per_compartment.len())
            * f(self.rows_per_dbmu.len())
            * f(self.frequency_mhz.len())
            * f(self.feature_buffer_bytes.len())
            * f(self.weight_buffer_bytes.len())
            * f(self.meta_buffer_bytes.len())
    }

    /// The raw cross product in deterministic axis order, without
    /// feasibility checks or the size cap.
    fn raw_points(&self) -> Vec<ArchConfig> {
        let or_base = |axis: &[usize], base: usize| {
            if axis.is_empty() {
                vec![base]
            } else {
                axis.to_vec()
            }
        };
        let macros = or_base(&self.macros, self.base.macros);
        let compartments = or_base(&self.compartments_per_macro, self.base.compartments_per_macro);
        let dbmus = or_base(&self.dbmus_per_compartment, self.base.dbmus_per_compartment);
        let rows = or_base(&self.rows_per_dbmu, self.base.rows_per_dbmu);
        let frequencies = if self.frequency_mhz.is_empty() {
            vec![self.base.frequency_mhz]
        } else {
            self.frequency_mhz.clone()
        };
        let features = or_base(&self.feature_buffer_bytes, self.base.feature_buffer_bytes);
        let weights = or_base(&self.weight_buffer_bytes, self.base.weight_buffer_bytes);
        let metas = or_base(&self.meta_buffer_bytes, self.base.meta_buffer_bytes);

        let mut points = Vec::with_capacity(self.point_count());
        for &m in &macros {
            for &c in &compartments {
                for &d in &dbmus {
                    for &r in &rows {
                        for &f in &frequencies {
                            for &fb in &features {
                                for &wb in &weights {
                                    for &mb in &metas {
                                        let mut arch = self.base;
                                        arch.macros = m;
                                        arch.compartments_per_macro = c;
                                        arch.dbmus_per_compartment = d;
                                        arch.rows_per_dbmu = r;
                                        arch.frequency_mhz = f;
                                        arch.feature_buffer_bytes = fb;
                                        arch.weight_buffer_bytes = wb;
                                        arch.meta_buffer_bytes = mb;
                                        points.push(arch);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        points
    }

    /// Enumerates every geometry point, strictly: the first infeasible
    /// combination fails the whole grid with a structured error naming the
    /// point and the violated constraint.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::TooLarge`] when the cross product exceeds
    /// [`MAX_GRID_POINTS`] and [`GridError::Infeasible`] for the first point
    /// [`ArchConfig::validate`] rejects.
    pub fn enumerate(&self) -> Result<Vec<ArchConfig>, GridError> {
        let count = self.point_count();
        if count > MAX_GRID_POINTS {
            return Err(GridError::TooLarge { points: count, max: MAX_GRID_POINTS });
        }
        let points = self.raw_points();
        for (index, arch) in points.iter().enumerate() {
            arch.validate().map_err(|source| GridError::Infeasible {
                index,
                arch: Box::new(*arch),
                source,
            })?;
        }
        Ok(points)
    }
}

/// A structured grid-enumeration failure.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GridError {
    /// The cross product exceeds [`MAX_GRID_POINTS`].
    TooLarge {
        /// Points the grid would enumerate.
        points: usize,
        /// The enforced maximum.
        max: usize,
    },
    /// A point of the grid fails [`ArchConfig::validate`].
    Infeasible {
        /// Position of the point in the deterministic enumeration order.
        index: usize,
        /// The offending geometry.
        arch: Box<ArchConfig>,
        /// The violated constraint.
        source: ArchError,
    },
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridError::TooLarge { points, max } => {
                write!(f, "grid enumerates {points} geometry points, more than the maximum {max}")
            }
            GridError::Infeasible { index, arch, source } => {
                write!(
                    f,
                    "grid point {index} is infeasible ({} macros x {} compartments x {} dbmus x \
                     {} rows @ {} MHz): {source}",
                    arch.macros,
                    arch.compartments_per_macro,
                    arch.dbmus_per_compartment,
                    arch.rows_per_dbmu,
                    arch.frequency_mhz
                )
            }
        }
    }
}

impl std::error::Error for GridError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GridError::TooLarge { .. } => None,
            GridError::Infeasible { source, .. } => Some(source),
        }
    }
}

/// One design point's position in the DSE objective space. Every axis is
/// minimized.
///
/// `fidelity_loss` is `1 - top1_agreement`; points without a fidelity
/// evaluation (fidelity-disabled runs, or runs with no evaluation images)
/// carry the conservative maximum `1.0`, so they can never dominate an
/// evaluated point on the fidelity axis but remain comparable on the other
/// three.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ParetoMetrics {
    /// End-to-end latency in milliseconds.
    pub latency_ms: f64,
    /// Total energy in microjoules.
    pub energy_uj: f64,
    /// Die area in mm².
    pub area_mm2: f64,
    /// `1 - top1_agreement` (`1.0` when no fidelity was evaluated).
    pub fidelity_loss: f64,
}

impl ParetoMetrics {
    /// The objective values as an array, all minimized.
    #[must_use]
    pub fn objectives(&self) -> [f64; 4] {
        [self.latency_ms, self.energy_uj, self.area_mm2, self.fidelity_loss]
    }

    /// `true` when `self` is at least as good on every objective and
    /// strictly better on at least one.
    #[must_use]
    pub fn dominates(&self, other: &ParetoMetrics) -> bool {
        let a = self.objectives();
        let b = other.objectives();
        let mut strictly_better = false;
        for (x, y) in a.iter().zip(b.iter()) {
            if x > y {
                return false;
            }
            if x < y {
                strictly_better = true;
            }
        }
        strictly_better
    }
}

/// Indices of the non-dominated points, in input order.
///
/// Duplicate points (equal on every objective) do not dominate each other,
/// so all copies of a frontier point are kept — deterministic and
/// assertion-friendly.
#[must_use]
pub fn pareto_frontier(points: &[ParetoMetrics]) -> Vec<usize> {
    // Incremental skyline: carry the frontier found so far; a new point is
    // dropped if dominated, and evicts the frontier members it dominates.
    let mut frontier: Vec<usize> = Vec::new();
    for (index, point) in points.iter().enumerate() {
        if frontier.iter().any(|&f| points[f].dominates(point)) {
            continue;
        }
        frontier.retain(|&f| !point.dominates(&points[f]));
        frontier.push(index);
    }
    frontier.sort_unstable();
    frontier
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unswept_grid_enumerates_exactly_the_base() {
        let grid = ArchGrid::around(ArchConfig::paper());
        assert_eq!(grid.point_count(), 1);
        assert_eq!(grid.enumerate().unwrap(), vec![ArchConfig::paper()]);
    }

    #[test]
    fn cross_product_is_deterministic_and_complete() {
        let grid = ArchGrid::around(ArchConfig::paper())
            .with_macros(vec![2, 4])
            .with_rows(vec![32, 64])
            .with_frequencies(vec![250.0, 500.0]);
        assert_eq!(grid.point_count(), 8);
        let points = grid.enumerate().unwrap();
        assert_eq!(points.len(), 8);
        // Macros outermost, frequency innermost of the swept axes.
        assert_eq!(
            (points[0].macros, points[0].rows_per_dbmu, points[0].frequency_mhz),
            (2, 32, 250.0)
        );
        assert_eq!(
            (points[1].macros, points[1].rows_per_dbmu, points[1].frequency_mhz),
            (2, 32, 500.0)
        );
        assert_eq!(
            (points[7].macros, points[7].rows_per_dbmu, points[7].frequency_mhz),
            (4, 64, 500.0)
        );
        // Unswept axes keep the base values.
        assert!(points
            .iter()
            .all(|p| p.meta_buffer_bytes == ArchConfig::paper().meta_buffer_bytes));
        // Enumeration is a pure function of the grid.
        assert_eq!(points, grid.enumerate().unwrap());
    }

    #[test]
    fn infeasible_points_are_structured_errors_not_skips() {
        let grid = ArchGrid::around(ArchConfig::paper()).with_macros(vec![4, 0]);
        let err = grid.enumerate().unwrap_err();
        match &err {
            GridError::Infeasible { index, arch, .. } => {
                assert_eq!(*index, 1);
                assert_eq!(arch.macros, 0);
            }
            other => panic!("expected Infeasible, got {other:?}"),
        }
        assert!(err.to_string().contains("grid point 1"), "{err}");
    }

    #[test]
    fn undersized_buffers_make_points_infeasible() {
        // 128 rows x 16 compartments needs a 2 KB weight buffer; 1 KB fails.
        let grid = ArchGrid::around(ArchConfig::paper())
            .with_rows(vec![64, 128])
            .with_weight_buffers(vec![1024]);
        let err = grid.enumerate().unwrap_err();
        assert!(matches!(err, GridError::Infeasible { index: 1, .. }), "{err:?}");
        assert!(err.to_string().contains("weight buffer"), "{err}");
    }

    #[test]
    fn oversize_grids_are_rejected_up_front() {
        let grid = ArchGrid::around(ArchConfig::paper())
            .with_macros((1..=20).collect())
            .with_rows((1..=20).map(|i| i * 8).collect())
            .with_frequencies((1..=20).map(|i| f64::from(i) * 50.0).collect());
        assert_eq!(grid.point_count(), 8000);
        let err = grid.enumerate().unwrap_err();
        assert!(matches!(err, GridError::TooLarge { points: 8000, max: MAX_GRID_POINTS }), "{err}");
    }

    #[test]
    fn grid_round_trips_through_serde() {
        let grid = ArchGrid::around(ArchConfig::paper())
            .with_macros(vec![2, 8])
            .with_frequencies(vec![250.0]);
        let json = serde_json::to_string(&grid).unwrap();
        let back: ArchGrid = serde_json::from_str(&json).unwrap();
        assert_eq!(grid, back);
    }

    fn m(latency: f64, energy: f64, area: f64, loss: f64) -> ParetoMetrics {
        ParetoMetrics {
            latency_ms: latency,
            energy_uj: energy,
            area_mm2: area,
            fidelity_loss: loss,
        }
    }

    #[test]
    fn domination_requires_strict_improvement_somewhere() {
        let a = m(1.0, 1.0, 1.0, 0.0);
        assert!(!a.dominates(&a), "a point never dominates itself");
        assert!(m(0.5, 1.0, 1.0, 0.0).dominates(&a));
        assert!(!m(0.5, 2.0, 1.0, 0.0).dominates(&a), "trade-offs do not dominate");
        assert!(a.dominates(&m(2.0, 2.0, 2.0, 0.5)));
    }

    #[test]
    fn frontier_matches_brute_force_on_a_known_set() {
        let points = vec![
            m(1.0, 4.0, 1.0, 0.1), // frontier (fastest at its energy)
            m(2.0, 2.0, 1.0, 0.1), // frontier (trade-off)
            m(2.0, 2.0, 1.0, 0.1), // duplicate of a frontier point: kept
            m(3.0, 3.0, 1.0, 0.1), // dominated by the previous two
            m(4.0, 1.0, 1.0, 0.1), // frontier (cheapest energy)
            m(4.0, 1.5, 1.0, 0.0), // frontier (only point with zero loss)
        ];
        let frontier = pareto_frontier(&points);
        let brute: Vec<usize> = (0..points.len())
            .filter(|&i| !points.iter().any(|p| p.dominates(&points[i])))
            .collect();
        assert_eq!(frontier, brute);
        assert_eq!(frontier, vec![0, 1, 2, 4, 5]);
        assert!(pareto_frontier(&[]).is_empty());
    }
}
