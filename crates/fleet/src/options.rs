//! The fleet-specific flags of `dbpim-fleet` and their reader.
//!
//! ```text
//! --workers <n>           local in-process workers (default: 1 when no
//!                         endpoints are given, else 0)
//! --endpoints a:p,b:p     remote dbpim-served endpoints, one worker each
//! --snapshot-dir <dir>    the journal merged.json; enables resume
//! --fleet-id <name>       the run's identifier in traced remote requests
//! --auth-token <secret>   shared secret presented to every remote daemon
//! --point-timeout-ms <n>  remote per-point deadline / liveness timeout
//! --retries <n>           attempts a transiently failing point gets
//! --status                print how much of the journal in --snapshot-dir
//!                         is done instead of sweeping
//! ```
//!
//! The `dbpim-fleet` binary's table joins this group with the `dse_sweep`
//! grid and pipeline groups; parsing is strict ([`db_pim::flags`]), so an
//! unknown flag, a stray word or a malformed value is an error.

use std::path::PathBuf;
use std::time::Duration;

use db_pim::flags::{Flag, Flags, OptionsError};
use db_pim::PipelineConfig;

use crate::driver::FleetConfig;
use crate::worker::WorkerSpec;

/// The fleet-specific flags.
pub const FLEET_FLAGS: &[Flag] = &[
    Flag::value("--workers", "<n>"),
    Flag::value("--endpoints", "host:port,..."),
    Flag::value("--snapshot-dir", "<dir>"),
    Flag::value("--fleet-id", "<name>"),
    Flag::value("--auth-token", "<secret>"),
    Flag::value("--point-timeout-ms", "<n>"),
    Flag::value("--retries", "<n>"),
    Flag::switch("--status"),
];

/// Parsed fleet flags.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOptions {
    /// Local in-process workers (`None` = default: 1 without endpoints,
    /// 0 with).
    pub workers: Option<usize>,
    /// Remote daemon endpoints, one worker each.
    pub endpoints: Vec<String>,
    /// Snapshot directory (enables persistence and resume).
    pub snapshot_dir: Option<PathBuf>,
    /// Fleet identifier override.
    pub fleet_id: Option<String>,
    /// Shared secret presented to every remote daemon.
    pub auth_token: Option<String>,
    /// Per-point timeout in milliseconds.
    pub point_timeout_ms: u64,
    /// Attempts a transiently failing point gets before the run fails.
    pub retries: usize,
}

impl Default for FleetOptions {
    fn default() -> Self {
        Self {
            workers: None,
            endpoints: Vec::new(),
            snapshot_dir: None,
            fleet_id: None,
            auth_token: None,
            point_timeout_ms: 120_000,
            retries: 3,
        }
    }
}

impl FleetOptions {
    /// Reads [`FLEET_FLAGS`] (but `--status`, which picks the binary's
    /// mode); zero attempts and timeouts are clamped to 1.
    ///
    /// # Errors
    ///
    /// Returns [`OptionsError`] for a malformed value or an `--endpoints`
    /// list that names no endpoint.
    pub fn from_flags(flags: &Flags) -> Result<Self, OptionsError> {
        let defaults = Self::default();
        let endpoints = flags.list::<String>("--endpoints")?;
        if endpoints.as_ref().is_some_and(Vec::is_empty) {
            let raw = flags.raw("--endpoints").unwrap_or_default();
            return Err(OptionsError::new("--endpoints", format!("`{raw}` names no endpoints")));
        }
        Ok(Self {
            workers: flags.get("--workers")?,
            endpoints: endpoints.unwrap_or_default(),
            snapshot_dir: flags.raw("--snapshot-dir").map(PathBuf::from),
            fleet_id: flags.raw("--fleet-id").map(String::from),
            auth_token: flags.raw("--auth-token").map(String::from),
            point_timeout_ms: flags
                .get::<u64>("--point-timeout-ms")?
                .map_or(defaults.point_timeout_ms, |ms| ms.max(1)),
            retries: flags.get::<usize>("--retries")?.map_or(defaults.retries, |n| n.max(1)),
        })
    }

    /// The worker roster: one remote worker per endpoint (in request
    /// order), then the local workers. With neither endpoints nor an
    /// explicit `--workers`, a single local worker keeps the binary useful
    /// out of the box.
    #[must_use]
    pub fn worker_specs(&self) -> Vec<WorkerSpec> {
        let locals = self.workers.unwrap_or(usize::from(self.endpoints.is_empty()));
        let mut specs: Vec<WorkerSpec> =
            self.endpoints.iter().cloned().map(WorkerSpec::Remote).collect();
        specs.extend(std::iter::repeat_n(WorkerSpec::Local, locals));
        specs
    }

    /// The fleet configuration these options describe for `pipeline`.
    #[must_use]
    pub fn fleet_config(&self, pipeline: PipelineConfig) -> FleetConfig {
        let mut config = FleetConfig::new(pipeline, self.worker_specs())
            .with_point_timeout(Duration::from_millis(self.point_timeout_ms))
            .with_max_point_attempts(self.retries);
        if let Some(dir) = &self.snapshot_dir {
            config = config.with_snapshot_dir(dir);
        }
        if let Some(fleet_id) = &self.fleet_id {
            config = config.with_fleet_id(fleet_id.clone());
        }
        if let Some(token) = &self.auth_token {
            config = config.with_auth_token(token.clone());
        }
        config
    }
}

#[cfg(test)]
mod tests {
    use db_pim::flags::PIPELINE_FLAGS;

    use super::*;

    /// Parses `raw` with the pipeline and fleet groups of `dbpim-fleet`'s
    /// table.
    fn parse(raw: &[&str]) -> Result<FleetOptions, OptionsError> {
        let args: Vec<String> = raw.iter().map(ToString::to_string).collect();
        FleetOptions::from_flags(&Flags::parse(&[PIPELINE_FLAGS, FLEET_FLAGS], &args)?)
    }

    #[test]
    fn fleet_flags_parse_strictly_and_ignore_the_rest() {
        let options = parse(&[
            "--width",
            "0.25",
            "--workers",
            "2",
            "--endpoints",
            "127.0.0.1:7641, 127.0.0.1:7642",
            "--snapshot-dir",
            "/tmp/fleet",
            "--fleet-id",
            "ci-run",
            "--auth-token",
            "sesame",
            "--point-timeout-ms",
            "5000",
            "--retries",
            "5",
        ])
        .unwrap();
        assert_eq!(options.workers, Some(2));
        assert_eq!(options.endpoints, vec!["127.0.0.1:7641", "127.0.0.1:7642"]);
        assert_eq!(options.snapshot_dir, Some(PathBuf::from("/tmp/fleet")));
        assert_eq!(options.fleet_id.as_deref(), Some("ci-run"));
        assert_eq!(options.auth_token.as_deref(), Some("sesame"));
        assert_eq!(options.point_timeout_ms, 5000);
        assert_eq!(options.retries, 5);
        // Remotes first, then the locals.
        assert_eq!(
            options.worker_specs(),
            vec![
                WorkerSpec::Remote("127.0.0.1:7641".to_string()),
                WorkerSpec::Remote("127.0.0.1:7642".to_string()),
                WorkerSpec::Local,
                WorkerSpec::Local,
            ]
        );
        let config = options.fleet_config(PipelineConfig::fast());
        assert_eq!(config.fleet_id, "ci-run");
        assert_eq!(config.auth_token.as_deref(), Some("sesame"));
        assert_eq!(config.point_timeout, Duration::from_millis(5000));
        assert_eq!(config.max_point_attempts, 5);
    }

    #[test]
    fn worker_roster_defaults_depend_on_endpoints() {
        let bare = parse(&[]).unwrap();
        assert_eq!(bare.worker_specs(), vec![WorkerSpec::Local], "one local worker by default");

        let remote_only = parse(&["--endpoints", "127.0.0.1:7641"]).unwrap();
        assert_eq!(
            remote_only.worker_specs(),
            vec![WorkerSpec::Remote("127.0.0.1:7641".to_string())],
            "endpoints displace the default local worker"
        );

        let mixed = parse(&["--endpoints", "127.0.0.1:7641", "--workers", "1"]).unwrap();
        assert_eq!(mixed.worker_specs().len(), 2);
    }

    #[test]
    fn malformed_fleet_values_are_rejected_not_swallowed() {
        let err = parse(&["--workers", "two"]).unwrap_err();
        assert_eq!(err.flag, "--workers");

        // The plan is fixed (contiguous blocks), so there is no strategy
        // to choose: the flag is unknown.
        let err = parse(&["--strategy", "contiguous"]).unwrap_err();
        assert_eq!(err.flag, "--strategy");

        let err = parse(&["--endpoints", " , "]).unwrap_err();
        assert_eq!(err.flag, "--endpoints");

        let err = parse(&["--retries"]).unwrap_err();
        assert_eq!(err.flag, "--retries");
        assert!(err.to_string().contains("missing"), "{err}");

        // Zero-valued knobs that would hang or never run are clamped.
        let options = parse(&["--retries", "0", "--point-timeout-ms", "0"]).unwrap();
        assert_eq!(options.retries, 1);
        assert_eq!(options.point_timeout_ms, 1);
    }
}
