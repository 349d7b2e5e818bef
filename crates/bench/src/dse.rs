//! The `dse_sweep` experiment: its flag table, driver wiring and
//! deterministic report rendering for design-space explorations.
//!
//! ```text
//! dse_sweep [pipeline flags: --width --seed --images --cal --classes --operand-width]
//!           [--macros 2,4,8] [--compartments a,b] [--dbmus a,b] [--rows 32,64]
//!           [--freqs 250,500] [--feature-kb a,b] [--weight-kb a,b] [--meta-kb a,b]
//!           [--models alexnet,vgg19] [--widths 4,8] [--pruning 0.3,s0.5]
//!           [--sparsity base,hybrid]
//!           [--fidelity] [--snapshot <path>] [--limit-points <n>]
//!           [--threads <n>] [--trace-out <path>] [--log-level <level>]
//! ```
//!
//! The rendered report (stdout) is a pure function of the computed results —
//! timings and cache counters go to stderr — so the CI resume smoke test can
//! `diff` a cold run against a resumed one.

use std::fmt::Write as _;

use db_pim::flags::{Flag, Flags, OptionsError, PIPELINE_FLAGS, TRACE_FLAGS};
use db_pim::prelude::*;
use db_pim::PipelineError;
use dbpim_fleet::options::FLEET_FLAGS;

use crate::{pct, ExperimentOptions};

/// The grid axes of an exploration, shared by `dse_sweep` and
/// `dbpim-fleet`.
pub const GRID_FLAGS: &[Flag] = &[
    Flag::value("--macros", "a,b"),
    Flag::value("--compartments", "a,b"),
    Flag::value("--dbmus", "a,b"),
    Flag::value("--rows", "a,b"),
    Flag::value("--freqs", "a,b"),
    Flag::value("--feature-kb", "a,b"),
    Flag::value("--weight-kb", "a,b"),
    Flag::value("--meta-kb", "a,b"),
    Flag::value("--models", "a,b"),
    Flag::value("--widths", "4,8,..."),
    Flag::value("--pruning", "0.3,s0.5,..."),
    Flag::value("--sparsity", "base,hybrid,..."),
    Flag::switch("--fidelity"),
];

/// The single-driver controls of `dse_sweep`.
pub const DRIVER_FLAGS: &[Flag] = &[
    Flag::value("--snapshot", "<path>"),
    Flag::value("--limit-points", "<n>"),
    Flag::value("--threads", "<n>"),
];

/// The flag table of `dse_sweep`.
pub const DSE_SWEEP_TABLE: &[&[Flag]] = &[PIPELINE_FLAGS, GRID_FLAGS, DRIVER_FLAGS, TRACE_FLAGS];

/// The flag table of `dbpim-fleet`: the grid it explores and the fleet that
/// runs it, without the driver group (a fleet shards with `--snapshot-dir`
/// and `--workers` instead).
pub const FLEET_TABLE: &[&[Flag]] = &[PIPELINE_FLAGS, GRID_FLAGS, FLEET_FLAGS, TRACE_FLAGS];

/// A parsed `dse_sweep` command line: the shared pipeline flags plus the
/// grid axes and driver controls.
#[derive(Debug, Clone, PartialEq)]
pub struct DseSweepOptions {
    /// The shared pipeline flags (`--width`, `--seed`, ...).
    pub base: ExperimentOptions,
    /// Macro-count axis (empty = the paper value).
    pub macros: Vec<usize>,
    /// Compartments-per-macro axis.
    pub compartments: Vec<usize>,
    /// DBMU-columns axis.
    pub dbmus: Vec<usize>,
    /// Rows-per-DBMU axis.
    pub rows: Vec<usize>,
    /// Frequency axis in MHz.
    pub freqs: Vec<f64>,
    /// Feature-buffer axis in KB.
    pub feature_kb: Vec<usize>,
    /// Weight-buffer axis in KB.
    pub weight_kb: Vec<usize>,
    /// Meta-buffer axis in KB.
    pub meta_kb: Vec<usize>,
    /// Models to explore (empty = all five paper models).
    pub models: Vec<ModelKind>,
    /// Operand-width axis (empty = the `--operand-width` value).
    pub widths: Vec<OperandWidth>,
    /// Value-level pruning axis (empty = no pruning): `0.3` for an
    /// unstructured fraction, `s0.5` for structured per-channel removal.
    pub pruning: Vec<PruningSpec>,
    /// Sparsity configurations (empty = all four).
    pub sparsity: Vec<SparsityConfig>,
    /// Evaluate fidelity where defined.
    pub fidelity: bool,
    /// Snapshot path to persist to and resume from.
    pub snapshot: Option<String>,
    /// Compute at most this many missing points this run.
    pub limit_points: Option<usize>,
    /// Worker threads.
    pub threads: Option<usize>,
}

impl DseSweepOptions {
    /// Reads the pipeline, grid and driver groups; a driver flag outside
    /// the table (as in `dbpim-fleet`'s) reads as not given.
    ///
    /// # Errors
    ///
    /// Returns [`OptionsError`] naming the offending flag.
    pub fn from_flags(flags: &Flags) -> Result<Self, OptionsError> {
        Ok(Self {
            base: ExperimentOptions::from_flags(flags)?,
            macros: flags.list("--macros")?.unwrap_or_default(),
            compartments: flags.list("--compartments")?.unwrap_or_default(),
            dbmus: flags.list("--dbmus")?.unwrap_or_default(),
            rows: flags.list("--rows")?.unwrap_or_default(),
            freqs: flags.list("--freqs")?.unwrap_or_default(),
            feature_kb: flags.list("--feature-kb")?.unwrap_or_default(),
            weight_kb: flags.list("--weight-kb")?.unwrap_or_default(),
            meta_kb: flags.list("--meta-kb")?.unwrap_or_default(),
            models: flags.list("--models")?.unwrap_or_default(),
            widths: flags.list("--widths")?.unwrap_or_default(),
            pruning: flags.list("--pruning")?.unwrap_or_default(),
            sparsity: flags.list("--sparsity")?.unwrap_or_default(),
            fidelity: flags.switch("--fidelity"),
            snapshot: flags.raw("--snapshot").map(String::from),
            limit_points: flags.get("--limit-points")?,
            threads: flags.get("--threads")?,
        })
    }

    /// The exploration spec these options describe. Buffer axes given in KB
    /// are converted to bytes here.
    #[must_use]
    pub fn spec(&self) -> DseSpec {
        let kb = |values: &[usize]| values.iter().map(|v| v * 1024).collect::<Vec<_>>();
        let mut grid = ArchGrid::around(ArchConfig::paper());
        grid.macros = self.macros.clone();
        grid.compartments_per_macro = self.compartments.clone();
        grid.dbmus_per_compartment = self.dbmus.clone();
        grid.rows_per_dbmu = self.rows.clone();
        grid.frequency_mhz = self.freqs.clone();
        grid.feature_buffer_bytes = kb(&self.feature_kb);
        grid.weight_buffer_bytes = kb(&self.weight_kb);
        grid.meta_buffer_bytes = kb(&self.meta_kb);
        let models =
            if self.models.is_empty() { ModelKind::all().to_vec() } else { self.models.clone() };
        let mut spec = DseSpec::new(grid, models)
            .with_widths(self.widths.clone())
            .with_pruning(self.pruning.clone());
        if !self.sparsity.is_empty() {
            spec = spec.with_sparsity(self.sparsity.clone());
        }
        if self.fidelity {
            spec = spec.with_fidelity();
        }
        spec
    }

    /// A driver configured from these options.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::BadConfig`] for an unusable pipeline
    /// configuration.
    pub fn driver(&self) -> Result<DseDriver, PipelineError> {
        let mut driver = DseDriver::new(self.base.pipeline_config())?;
        if let Some(path) = &self.snapshot {
            driver = driver.with_snapshot(path);
        }
        if let Some(limit) = self.limit_points {
            driver = driver.with_point_limit(limit);
        }
        if let Some(threads) = self.threads {
            driver = driver.with_threads(threads);
        }
        Ok(driver)
    }
}

/// Renders a [`DseReport`] as a deterministic text table: one row per
/// (point, sparsity run) plus a Pareto-frontier section per model.
///
/// The output is a pure function of the results — no timestamps, wall
/// times or cache counters — so two runs over the same grid (cold, or
/// resumed from a half-deleted snapshot) render byte-identical reports.
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
                let _ = writeln!(
                    out,
                    "  {} @ {}{}: {} macros x {} rows @ {} MHz — {:.4} ms, {:.3} uJ, {:.4} mm2, loss {}",
                    entry.kind.name(),
                    entry.width,
                    pruning_tag,
                    entry.arch.macros,
                    entry.arch.rows_per_dbmu,
                    entry.arch.frequency_mhz,
                    metrics.latency_ms,
                    metrics.energy_uj,
                    area.total_mm2(&entry.arch),
                    pct(metrics.fidelity_loss),
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_with(table: &[&[Flag]], raw: &[&str]) -> Result<DseSweepOptions, OptionsError> {
        let args: Vec<String> = raw.iter().map(ToString::to_string).collect();
        DseSweepOptions::from_flags(&Flags::parse(table, &args)?)
    }

    fn parse(raw: &[&str]) -> Result<DseSweepOptions, OptionsError> {
        parse_with(DSE_SWEEP_TABLE, raw)
    }

    #[test]
    fn grid_and_driver_flags_parse_strictly() {
        let options = parse(&[
            "--width",
            "0.25",
            "--classes",
            "10",
            "--macros",
            "2,4,8",
            "--rows",
            "32,64",
            "--freqs",
            "250,500",
            "--weight-kb",
            "32,64",
            "--models",
            "alexnet,mobilenet-v2",
            "--widths",
            "4,8",
            "--sparsity",
            "base,hybrid",
            "--snapshot",
            "/tmp/dse.json",
            "--limit-points",
            "24",
            "--threads",
            "2",
            "--fidelity",
        ])
        .unwrap();
        assert!((options.base.width_mult - 0.25).abs() < 1e-6);
        assert_eq!(options.macros, vec![2, 4, 8]);
        assert_eq!(options.rows, vec![32, 64]);
        assert_eq!(options.freqs, vec![250.0, 500.0]);
        assert_eq!(options.weight_kb, vec![32, 64]);
        assert_eq!(options.models, vec![ModelKind::AlexNet, ModelKind::MobileNetV2]);
        assert_eq!(options.widths, vec![OperandWidth::Int4, OperandWidth::Int8]);
        assert_eq!(
            options.sparsity,
            vec![SparsityConfig::DenseBaseline, SparsityConfig::HybridSparsity]
        );
        assert_eq!(options.snapshot.as_deref(), Some("/tmp/dse.json"));
        assert_eq!(options.limit_points, Some(24));
        assert_eq!(options.threads, Some(2));
        assert!(options.fidelity);

        let spec = options.spec();
        assert_eq!(spec.grid.macros, vec![2, 4, 8]);
        assert_eq!(spec.grid.weight_buffer_bytes, vec![32 * 1024, 64 * 1024]);
        assert_eq!(spec.points(OperandWidth::Int8, PruningSpec::none()).unwrap().len(), 2 * 2 * 24);
        assert!(spec.fidelity);
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

    /// `dse_sweep --snapshot-dr s.json` used to run without writing a
    /// snapshot, and `dbpim-fleet --endpoint 127.0.0.1:9` on one local
    /// worker; the driver flags are unknown to the fleet's table.
    #[test]
    fn typos_and_foreign_flags_fail_with_a_hint() {
        let err = parse(&["--snapshot-dr", "s.json"]).unwrap_err();
        assert_eq!(err.flag, "--snapshot-dr");
        assert!(err.message.contains("did you mean `--snapshot`?"), "{err}");

        let err = parse_with(FLEET_TABLE, &["--endpoint", "127.0.0.1:9"]).unwrap_err();
        assert_eq!(err.flag, "--endpoint");
        assert!(err.message.contains("did you mean `--endpoints`?"), "{err}");
        let err = parse_with(FLEET_TABLE, &["--snapshot", "x"]).unwrap_err();
        assert!(err.message.contains("did you mean `--snapshot-dir`?"), "{err}");
        for flag in ["--limit-points", "--threads"] {
            let err = parse_with(FLEET_TABLE, &[flag, "2"]).unwrap_err();
            assert_eq!(err.flag, flag);
            assert!(err.message.starts_with("unknown flag"), "{err}");
        }
        // The fleet's own flags are its table's business, not the sweep's.
        let options = parse_with(FLEET_TABLE, &["--workers", "2", "--macros", "2"]).unwrap();
        assert_eq!((options.macros, options.snapshot), (vec![2], None));
    }

    #[test]
    fn defaults_cover_the_paper_models_on_the_paper_point() {
        let options = parse(&[]).unwrap();
        let spec = options.spec();
        assert_eq!(spec.models.len(), 5);
        assert_eq!(spec.grid, ArchGrid::around(ArchConfig::paper()));
        assert_eq!(spec.points(OperandWidth::Int8, PruningSpec::none()).unwrap().len(), 5);
        assert_eq!(spec.sparsity, SparsityConfig::all().to_vec());
        assert!(!spec.fidelity);
    }

    #[test]
    fn rendered_report_is_deterministic_for_identical_results() {
        let config = db_pim::PipelineConfig::fast().without_fidelity();
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
    }
}
