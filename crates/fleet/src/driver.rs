//! The fleet driver: a roster run as workers of the one run loop.
//!
//! [`FleetDriver::run`] hands a [`DseSpec`]'s points to
//! [`DseDriver::run_on`], the loop `dse_sweep` runs too, with one worker
//! per roster entry in roster order: [`WorkerSpec::Local`] in process on
//! one shared runner, [`WorkerSpec::Remote`] on a serve daemon. That loop
//! plans contiguous blocks with stealing, fails a point at its first
//! deterministic failure, retries transient ones, retires workers that
//! fail their heartbeat, and resumes from and appends to one journal,
//! `merged.json` in the snapshot directory, as `dse_sweep --snapshot` does
//! with its file. A directory holding an earlier release's `shard-*.json`
//! journals is refused here, before anything is written there. The report
//! is bit-identical (timestamps aside) to a single `DseDriver` run —
//! `tests/fleet_sharding.rs` asserts exactly that.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use db_pim::dse::{unix_time_ms, DseObserver};
use db_pim::{DseDriver, DseSpec, PipelineConfig, PipelineError};

use crate::worker::{RemoteExecutor, WorkerSpec};
use crate::{FleetError, FleetEvent, FleetOutcome};

/// The snapshot journal's file name inside the snapshot directory.
pub const JOURNAL_FILE: &str = "merged.json";

/// Configuration of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The pipeline configuration local workers run and remote daemons are
    /// assumed to run (results are only bit-identical when they match).
    pub pipeline: PipelineConfig,
    /// The worker roster; worker `w`'s shard is the `w`-th contiguous block
    /// of the points the run computes, in canonical order.
    pub workers: Vec<WorkerSpec>,
    /// Directory of the snapshot journal, `merged.json` (a header line,
    /// then one line appended per finished point); `None` disables
    /// persistence and resume.
    pub snapshot_dir: Option<PathBuf>,
    /// The run's identifier in the trace context of traced remote
    /// requests, so a daemon's `serve.request` spans name the run.
    pub fleet_id: String,
    /// Shared secret presented to every remote daemon on (re)connect.
    /// Required when the endpoints run `dbpim-served --auth-token`; open
    /// daemons accept any token, so setting it is always safe.
    pub auth_token: Option<String>,
    /// Per-point remote deadline *and* response timeout — the failure
    /// detector for wedged or dead daemons.
    pub point_timeout: Duration,
    /// Attempts a point that fails transiently gets before it fails the
    /// run; a deterministic failure gets one.
    pub max_point_attempts: usize,
}

impl FleetConfig {
    /// A configuration with the given roster and every knob at its default:
    /// no snapshots, a 120 s point timeout, 3 attempts per point.
    #[must_use]
    pub fn new(pipeline: PipelineConfig, workers: Vec<WorkerSpec>) -> Self {
        Self {
            pipeline,
            workers,
            snapshot_dir: None,
            fleet_id: format!("fleet-{}", unix_time_ms()),
            auth_token: None,
            point_timeout: Duration::from_secs(120),
            max_point_attempts: 3,
        }
    }

    /// Enables snapshot persistence and resume under `dir`.
    #[must_use]
    pub fn with_snapshot_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.snapshot_dir = Some(dir.into());
        self
    }

    /// Overrides the fleet identifier.
    #[must_use]
    pub fn with_fleet_id(mut self, fleet_id: impl Into<String>) -> Self {
        self.fleet_id = fleet_id.into();
        self
    }

    /// Sets the shared secret presented to remote daemons.
    #[must_use]
    pub fn with_auth_token(mut self, token: impl Into<String>) -> Self {
        self.auth_token = Some(token.into());
        self
    }

    /// Overrides the per-point timeout / remote deadline.
    #[must_use]
    pub fn with_point_timeout(mut self, timeout: Duration) -> Self {
        self.point_timeout = timeout;
        self
    }

    /// Overrides the per-point attempt budget (clamped to at least one).
    #[must_use]
    pub fn with_max_point_attempts(mut self, attempts: usize) -> Self {
        self.max_point_attempts = attempts.max(1);
        self
    }

    /// The endpoints of the roster's remote workers, in roster order.
    pub fn endpoints(&self) -> impl Iterator<Item = &str> {
        self.workers.iter().filter_map(|worker| match worker {
            WorkerSpec::Remote(addr) => Some(addr.as_str()),
            WorkerSpec::Local => None,
        })
    }
}

/// The orchestrator. See the [module docs](self) for the lifecycle.
pub struct FleetDriver {
    config: FleetConfig,
    observer: Option<Arc<DseObserver>>,
}

impl FleetDriver {
    /// Creates a driver.
    #[must_use]
    pub fn new(config: FleetConfig) -> Self {
        Self { config, observer: None }
    }

    /// Registers a progress observer (called from worker threads).
    #[must_use]
    pub fn with_observer(mut self, observer: impl Fn(&FleetEvent) + Send + Sync + 'static) -> Self {
        self.observer = Some(Arc::new(observer));
        self
    }

    /// Runs (or resumes) the fleet over `spec`.
    ///
    /// # Errors
    ///
    /// As [`DseDriver::run_on`], plus an unusable pipeline configuration or
    /// snapshot directory ([`FleetError::LegacyShardJournals`] among them).
    pub fn run(&self, spec: &DseSpec) -> Result<FleetOutcome, FleetError> {
        let mut driver = DseDriver::new(self.config.pipeline)?
            .with_max_point_attempts(self.config.max_point_attempts);
        if let Some(observer) = &self.observer {
            let observer = Arc::clone(observer);
            driver = driver.with_observer(move |event| observer(event));
        }
        if let Some(dir) = &self.config.snapshot_dir {
            driver = driver.with_snapshot(journal_path(dir)?);
        }
        let executors = self.config.workers.iter().map(|worker| match worker {
            WorkerSpec::Local => driver.local_executor(),
            WorkerSpec::Remote(addr) => Box::new(RemoteExecutor::new(addr.clone(), &self.config)),
        });
        driver.run_on(spec, executors.collect())
    }
}

/// The journal of the snapshot directory `dir`, created when missing; a
/// directory holding an earlier release's shard journals is refused first.
fn journal_path(dir: &Path) -> Result<PathBuf, PipelineError> {
    std::fs::create_dir_all(dir).map_err(|e| PipelineError::BadConfig {
        reason: format!("cannot create snapshot dir {}: {e}", dir.display()),
    })?;
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.file_name().and_then(|n| n.to_str()).is_some_and(is_legacy_shard_file))
        .collect();
    if !files.is_empty() {
        files.sort();
        return Err(PipelineError::LegacyShardJournals { files });
    }
    Ok(dir.join(JOURNAL_FILE))
}

/// `true` for the file name of an earlier release's shard journal.
fn is_legacy_shard_file(name: &str) -> bool {
    name.starts_with("shard-") && name.ends_with(".json")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_rosters_are_rejected() {
        let config = FleetConfig::new(PipelineConfig::fast(), Vec::new());
        let spec = DseSpec::new(
            dbpim_sim::ArchGrid::around(dbpim_arch::ArchConfig::paper()),
            vec![dbpim_nn::ModelKind::AlexNet],
        );
        let err = FleetDriver::new(config).run(&spec).unwrap_err();
        assert!(matches!(err, FleetError::NoWorkers), "{err}");
    }

    #[test]
    fn snapshot_paths_are_stable() {
        assert_eq!(JOURNAL_FILE, "merged.json");
        assert!(!is_legacy_shard_file(JOURNAL_FILE));
        assert!(is_legacy_shard_file("shard-007.json"));
        assert!(!is_legacy_shard_file("shard-007.tmp"), "a temp file is not a journal");
    }

    #[test]
    fn config_defaults_are_sane() {
        let config = FleetConfig::new(PipelineConfig::fast(), vec![WorkerSpec::Local]);
        assert_eq!(config.snapshot_dir, None);
        assert_eq!(config.max_point_attempts, 3);
        assert!(config.fleet_id.starts_with("fleet-"));
        assert_eq!(config.clone().with_max_point_attempts(0).max_point_attempts, 1);
    }
}
