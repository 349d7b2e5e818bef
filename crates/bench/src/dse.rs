//! The flag tables of `dse_sweep` and `dbpim-fleet`, and `dse_sweep`'s
//! driver controls.
//!
//! Both tables join the pipeline and grid groups of [`db_pim::flags`],
//! read by [`PipelineConfig::from_flags`] and
//! [`DseSpec::from_flags`](db_pim::DseSpec::from_flags), and
//! both binaries print [`db_pim::dse::render_report`]: `dbpim-cli explore`
//! reads and prints a point set the same way. `--help` prints each table.

use db_pim::flags::{Flag, Flags, OptionsError, GRID_FLAGS, PIPELINE_FLAGS, TRACE_FLAGS};
use db_pim::{DseDriver, PipelineConfig, PipelineError};
use dbpim_fleet::options::FLEET_FLAGS;

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

/// `dse_sweep`'s driver controls, the [`DRIVER_FLAGS`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DseSweepOptions {
    /// Snapshot path to persist to and resume from.
    pub snapshot: Option<String>,
    /// Compute at most this many missing points this run.
    pub limit_points: Option<usize>,
    /// Worker threads.
    pub threads: Option<usize>,
}

impl DseSweepOptions {
    /// Reads the [`DRIVER_FLAGS`].
    ///
    /// # Errors
    ///
    /// Returns [`OptionsError`] naming the offending flag.
    pub fn from_flags(flags: &Flags) -> Result<Self, OptionsError> {
        Ok(Self {
            snapshot: flags.raw("--snapshot").map(String::from),
            limit_points: flags.get("--limit-points")?,
            threads: flags.get("--threads")?,
        })
    }

    /// A driver for `config` configured from these options.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::BadConfig`] for an unusable pipeline
    /// configuration.
    pub fn driver(&self, config: PipelineConfig) -> Result<DseDriver, PipelineError> {
        let mut driver = DseDriver::new(config)?;
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

#[cfg(test)]
mod tests {
    use db_pim::prelude::*;
    use dbpim_serve::options::{serve_config, SERVED_TABLE};

    use super::*;

    fn flags(table: &[&[Flag]], raw: &[&str]) -> Result<Flags, OptionsError> {
        let args: Vec<String> = raw.iter().map(ToString::to_string).collect();
        Flags::parse(table, &args)
    }

    /// Reads `raw` against `table` as `dse_sweep` does: the pipeline, the
    /// point set and the driver controls.
    fn parse_with(
        table: &[&[Flag]],
        raw: &[&str],
    ) -> Result<(PipelineConfig, DseSpec, DseSweepOptions), OptionsError> {
        let flags = flags(table, raw)?;
        let config = PipelineConfig::from_flags(&flags)?;
        Ok((config, DseSpec::from_flags(&flags)?, DseSweepOptions::from_flags(&flags)?))
    }

    fn parse(raw: &[&str]) -> Result<(PipelineConfig, DseSpec, DseSweepOptions), OptionsError> {
        parse_with(DSE_SWEEP_TABLE, raw)
    }

    #[test]
    fn grid_and_driver_flags_parse_strictly() {
        let (config, spec, options) = parse(&[
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
        assert!((config.width_mult - 0.25).abs() < 1e-6);
        assert_eq!(spec.grid.macros, vec![2, 4, 8]);
        assert_eq!(spec.grid.rows_per_dbmu, vec![32, 64]);
        assert_eq!(spec.grid.frequency_mhz, vec![250.0, 500.0]);
        assert_eq!(spec.grid.weight_buffer_bytes, vec![32 * 1024, 64 * 1024]);
        assert_eq!(spec.models, vec![ModelKind::AlexNet, ModelKind::MobileNetV2]);
        assert_eq!(spec.widths, vec![OperandWidth::Int4, OperandWidth::Int8]);
        assert_eq!(
            spec.sparsity,
            vec![SparsityConfig::DenseBaseline, SparsityConfig::HybridSparsity]
        );
        assert_eq!(options.snapshot.as_deref(), Some("/tmp/dse.json"));
        assert_eq!(options.limit_points, Some(24));
        assert_eq!(options.threads, Some(2));
        assert!(spec.fidelity);
        assert_eq!(spec.points(OperandWidth::Int8, PruningSpec::none()).unwrap().len(), 2 * 2 * 24);
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
        let (_, spec, options) =
            parse_with(FLEET_TABLE, &["--workers", "2", "--macros", "2"]).unwrap();
        assert_eq!((spec.grid.macros, options), (vec![2], DseSweepOptions::default()));
    }

    /// A daemon and a sweep started without pipeline flags compute the same
    /// point under the same key: `dbpim-served` used to default to 4
    /// calibration images where every other binary took 2.
    #[test]
    fn a_default_daemon_and_a_default_sweep_run_one_pipeline() {
        let daemon = serve_config(&flags(SERVED_TABLE, &[]).unwrap()).unwrap();
        let (sweep, ..) = parse(&[]).unwrap();
        assert_eq!(daemon.pipeline, sweep);
        assert_eq!(sweep.calibration_images, 2);
    }
}
