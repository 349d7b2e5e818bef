//! The fleet-specific flags of `dbpim-fleet` and their reader,
//! [`FleetConfig::from_flags`].
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

impl FleetConfig {
    /// Reads [`FLEET_FLAGS`] (but `--status`, which picks the binary's
    /// mode) into a configuration for `pipeline`; a flag left out keeps
    /// [`FleetConfig::new`]'s default. The roster is one remote worker per
    /// endpoint, in flag order, then `--workers` local ones: 1 without
    /// endpoints and 0 with them, unless given. Zero attempts and timeouts
    /// are clamped to 1.
    ///
    /// # Errors
    ///
    /// Returns [`OptionsError`] for a malformed value or an `--endpoints`
    /// list that names no endpoint.
    pub fn from_flags(flags: &Flags, pipeline: PipelineConfig) -> Result<Self, OptionsError> {
        let endpoints = flags.list::<String>("--endpoints")?;
        if endpoints.as_ref().is_some_and(Vec::is_empty) {
            let raw = flags.raw("--endpoints").unwrap_or_default();
            return Err(OptionsError::new("--endpoints", format!("`{raw}` names no endpoints")));
        }
        let endpoints = endpoints.unwrap_or_default();
        let locals = flags.get("--workers")?.unwrap_or(usize::from(endpoints.is_empty()));
        let mut workers: Vec<WorkerSpec> = endpoints.into_iter().map(WorkerSpec::Remote).collect();
        workers.extend(std::iter::repeat_n(WorkerSpec::Local, locals));
        let mut config = Self::new(pipeline, workers);
        if let Some(dir) = flags.raw("--snapshot-dir") {
            config = config.with_snapshot_dir(dir);
        }
        if let Some(fleet_id) = flags.raw("--fleet-id") {
            config = config.with_fleet_id(fleet_id);
        }
        if let Some(token) = flags.raw("--auth-token") {
            config = config.with_auth_token(token);
        }
        if let Some(ms) = flags.get::<u64>("--point-timeout-ms")? {
            config = config.with_point_timeout(Duration::from_millis(ms.max(1)));
        }
        if let Some(attempts) = flags.get("--retries")? {
            config = config.with_max_point_attempts(attempts);
        }
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    use db_pim::flags::PIPELINE_FLAGS;

    use super::*;

    /// Parses `raw` with the pipeline and fleet groups of `dbpim-fleet`'s
    /// table.
    fn parse(raw: &[&str]) -> Result<FleetConfig, OptionsError> {
        let args: Vec<String> = raw.iter().map(ToString::to_string).collect();
        let flags = Flags::parse(&[PIPELINE_FLAGS, FLEET_FLAGS], &args)?;
        FleetConfig::from_flags(&flags, PipelineConfig::fast())
    }

    #[test]
    fn fleet_flags_parse_strictly_and_ignore_the_rest() {
        let config = parse(&[
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
        // Remotes first, then the two locals.
        assert_eq!(
            config.workers,
            vec![
                WorkerSpec::Remote("127.0.0.1:7641".to_string()),
                WorkerSpec::Remote("127.0.0.1:7642".to_string()),
                WorkerSpec::Local,
                WorkerSpec::Local,
            ]
        );
        assert_eq!(config.snapshot_dir, Some(PathBuf::from("/tmp/fleet")));
        assert_eq!(config.fleet_id, "ci-run");
        assert_eq!(config.auth_token.as_deref(), Some("sesame"));
        assert_eq!(config.point_timeout, Duration::from_millis(5000));
        assert_eq!(config.max_point_attempts, 5);
        // The pipeline comes from its own reader, not from these flags.
        assert_eq!(config.pipeline, PipelineConfig::fast());
    }

    #[test]
    fn worker_roster_defaults_depend_on_endpoints() {
        let bare = parse(&[]).unwrap();
        assert_eq!(bare.workers, vec![WorkerSpec::Local], "one local worker by default");

        let remote_only = parse(&["--endpoints", "127.0.0.1:7641"]).unwrap();
        assert_eq!(
            remote_only.workers,
            vec![WorkerSpec::Remote("127.0.0.1:7641".to_string())],
            "endpoints displace the default local worker"
        );

        let mixed = parse(&["--endpoints", "127.0.0.1:7641", "--workers", "1"]).unwrap();
        assert_eq!(mixed.workers.len(), 2);
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
        let config = parse(&["--retries", "0", "--point-timeout-ms", "0"]).unwrap();
        assert_eq!(config.max_point_attempts, 1);
        assert_eq!(config.point_timeout, Duration::from_millis(1));
    }
}
