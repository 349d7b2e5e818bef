//! The `dbpim-served` flag table and its reader.
//!
//! Parsing is strict ([`db_pim::flags`]): a known flag with a missing or
//! malformed value is an error — silently falling back to a default would
//! start the daemon with a different model zoo than the operator asked for
//! — and so is any argument the table does not declare: a misspelt
//! `--auth-token` must not start an open daemon.
//!
//! ```text
//! --addr <ip>       bind address (default 127.0.0.1)
//! --port <u16>      bind port (default 7531; 0 picks a free port)
//! --threads <n>     worker threads (default 4)
//! [pipeline flags: --width --seed --images --cal --classes --operand-width,
//!                   read by PipelineConfig::from_flags as in every binary]
//! --cache-cap <n>   LRU cap on resident prepared models, one bound for the
//!                   whole process (default unbounded; 0 is clamped to 1)
//! --auth-token <s>  shared secret clients must present via Auth (default
//!                   none: open daemon)
//! --max-frame-bytes <n>  request-line size limit; longer frames are
//!                   answered FrameTooLarge and disconnected (default 1 MiB)
//! --max-pending <n> admission-control backlog bound once every worker is
//!                   busy (default 64)
//! --max-client-conns <n>  per-client-IP cap on open connections (default
//!                   unlimited)
//! [trace flags: --trace-out <path> --log-level <error|warn|info|debug>,
//!                   read by flags::install_trace as in every binary]
//! ```
//!
//! With `--trace-out`, the daemon records into the sink's collector from
//! start-up on. A `TraceSnapshot` request drains it, and whatever no drain
//! took is written to the path when the daemon shuts down.

use db_pim::flags::{Flag, Flags, OptionsError, PIPELINE_FLAGS, TRACE_FLAGS};
use db_pim::PipelineConfig;

use crate::server::ServeConfig;

/// The daemon's own flags.
pub const SERVED_FLAGS: &[Flag] = &[
    Flag::value("--addr", "<ip>"),
    Flag::value("--port", "<u16>"),
    Flag::value("--threads", "<n>"),
    Flag::value("--cache-cap", "<n>"),
    Flag::value("--auth-token", "<secret>"),
    Flag::value("--max-frame-bytes", "<n>"),
    Flag::value("--max-pending", "<n>"),
    Flag::value("--max-client-conns", "<n>"),
];

/// The flag table of `dbpim-served`: its own flags plus the pipeline and
/// trace flags.
pub const SERVED_TABLE: &[&[Flag]] = &[SERVED_FLAGS, PIPELINE_FLAGS, TRACE_FLAGS];

/// Reads [`SERVED_TABLE`] into the daemon's configuration. The pipeline
/// flags go through [`PipelineConfig::from_flags`], the one reader every
/// binary shares, and the trace flags are left to
/// [`db_pim::flags::install_trace`]; any other flag not given keeps its
/// [`ServeConfig::default`] value. Zero threads, caps and frame sizes are
/// clamped to 1.
///
/// # Errors
///
/// Returns [`OptionsError`] naming a flag with a malformed value or the
/// first positional word (the daemon takes none).
pub fn serve_config(flags: &Flags) -> Result<ServeConfig, OptionsError> {
    let pipeline = PipelineConfig::from_flags(flags)?;
    let defaults = ServeConfig::default();
    let config = ServeConfig {
        addr: format!(
            "{}:{}",
            flags.raw("--addr").unwrap_or("127.0.0.1"),
            flags.get::<u16>("--port")?.unwrap_or(7531)
        ),
        threads: flags.get::<usize>("--threads")?.map_or(defaults.threads, |n| n.max(1)),
        pipeline,
        cache_cap: flags.get::<usize>("--cache-cap")?.map(|n| n.max(1)),
        auth_token: flags.raw("--auth-token").map(String::from),
        max_frame_bytes: flags
            .get::<usize>("--max-frame-bytes")?
            .map_or(defaults.max_frame_bytes, |n| n.max(1)),
        max_pending_connections: flags
            .get("--max-pending")?
            .unwrap_or(defaults.max_pending_connections),
        max_connections_per_client: flags.get::<usize>("--max-client-conns")?.map(|n| n.max(1)),
        ..defaults
    };
    Ok(config)
}

#[cfg(test)]
mod tests {
    use db_pim::PipelineConfig;
    use dbpim_csd::OperandWidth;
    use dbpim_trace::LogLevel;

    use super::*;

    fn parse(raw: &[&str]) -> Result<ServeConfig, OptionsError> {
        let args: Vec<String> = raw.iter().map(ToString::to_string).collect();
        serve_config(&Flags::parse(SERVED_TABLE, &args)?)
    }

    #[test]
    fn parses_serving_and_pipeline_flags_and_ignores_the_rest() {
        let config = parse(&[
            "--addr",
            "0.0.0.0",
            "--port",
            "0",
            "--threads",
            "2",
            "--width",
            "0.25",
            "--seed",
            "7",
            "--images",
            "0",
            "--cal",
            "1",
            "--classes",
            "10",
            "--operand-width",
            "int4",
        ])
        .unwrap();
        assert_eq!(config.threads, 2);
        assert!((config.pipeline.width_mult - 0.25).abs() < 1e-6);
        assert_eq!(config.pipeline.seed, 7);
        assert_eq!(config.pipeline.evaluation_images, 0);
        assert_eq!(config.pipeline.calibration_images, 1);
        assert_eq!(config.pipeline.classes, 10);
        assert_eq!(config.pipeline.operand_width, OperandWidth::Int4);
        assert_eq!(config.addr, "0.0.0.0:0");

        let err = parse(&["--port", "0", "--bogus", "x"]).unwrap_err();
        assert_eq!(err.flag, "--bogus");
        assert!(err.message.contains("unknown"), "{err}");
    }

    /// A misspelt `--auth-token` used to be skipped, starting an open
    /// daemon that any unauthenticated client could shut down.
    #[test]
    fn misspelt_auth_token_is_rejected_not_ignored() {
        let err = parse(&["--auth-tokn", "secret"]).unwrap_err();
        assert_eq!(err.flag, "--auth-tokn");
        assert!(err.to_string().contains("--auth-tokn"), "{err}");
        assert!(err.to_string().contains("did you mean `--auth-token`?"), "{err}");
        // A stray positional argument is rejected too.
        let err = parse(&["secret"]).unwrap_err();
        assert_eq!(err.flag, "secret");
    }

    #[test]
    fn malformed_values_are_rejected_not_swallowed() {
        let err = parse(&["--port", "notaport"]).unwrap_err();
        assert_eq!(err.flag, "--port");
        assert!(err.message.contains("notaport"), "{err}");

        let err = parse(&["--port", "65536"]).unwrap_err();
        assert_eq!(err.flag, "--port");

        let err = parse(&["--threads"]).unwrap_err();
        assert_eq!(err.flag, "--threads");
        assert!(err.to_string().contains("missing"), "{err}");

        let err = parse(&["--operand-width", "10"]).unwrap_err();
        assert_eq!(err.flag, "--operand-width");
    }

    #[test]
    fn cache_cap_parses_strictly_and_clamps_zero() {
        let config = parse(&["--cache-cap", "3"]).unwrap();
        assert_eq!(config.cache_cap, Some(3));
        // A zero cap would cache nothing and silently degrade every request
        // to a cold build; clamp it like `--threads 0`.
        let config = parse(&["--cache-cap", "0"]).unwrap();
        assert_eq!(config.cache_cap, Some(1));
        let err = parse(&["--cache-cap", "lots"]).unwrap_err();
        assert_eq!(err.flag, "--cache-cap");
        assert_eq!(parse(&[]).unwrap().cache_cap, None, "unbounded by default");
    }

    #[test]
    fn hardening_flags_parse_strictly() {
        let config = parse(&[
            "--auth-token",
            "fleet-secret",
            "--max-frame-bytes",
            "4096",
            "--max-pending",
            "8",
            "--max-client-conns",
            "2",
        ])
        .unwrap();
        assert_eq!(config.auth_token.as_deref(), Some("fleet-secret"));
        assert_eq!(config.max_frame_bytes, 4096);
        assert_eq!(config.max_pending_connections, 8);
        assert_eq!(config.max_connections_per_client, Some(2));

        // Defaults: open daemon, 1 MiB frames, 64 pending, no per-client cap.
        let defaults = parse(&[]).unwrap();
        assert_eq!(defaults.auth_token, None);
        assert_eq!(defaults.max_frame_bytes, ServeConfig::DEFAULT_MAX_FRAME_BYTES);
        assert_eq!(defaults.max_pending_connections, ServeConfig::DEFAULT_MAX_PENDING);
        assert_eq!(defaults.max_connections_per_client, None);

        let err = parse(&["--max-frame-bytes", "big"]).unwrap_err();
        assert_eq!(err.flag, "--max-frame-bytes");
        let err = parse(&["--auth-token"]).unwrap_err();
        assert_eq!(err.flag, "--auth-token");
        assert!(err.to_string().contains("missing"), "{err}");
        // Zero would make every frame oversized / cap everyone out.
        let config = parse(&["--max-frame-bytes", "0", "--max-client-conns", "0"]).unwrap();
        assert_eq!(config.max_frame_bytes, 1);
        assert_eq!(config.max_connections_per_client, Some(1));
    }

    /// The daemon traces through the shared trace flags: its own tracing
    /// modes and their flags are gone, and an old command line naming one
    /// fails instead of starting a daemon that traces nothing.
    #[test]
    fn the_daemon_reads_the_shared_trace_flags_and_no_others() {
        for removed in [["--trace-dir", "traces"], ["--trace-every", "2"], ["--trace-buffer", "8"]]
        {
            let err = parse(&removed).unwrap_err();
            assert_eq!(err.flag, removed[0]);
            assert!(err.message.starts_with("unknown flag"), "{err}");
        }
        let args: Vec<String> =
            ["--trace-out", "daemon.json", "--log-level", "debug"].map(String::from).to_vec();
        let flags = Flags::parse(SERVED_TABLE, &args).unwrap();
        assert_eq!(flags.raw("--trace-out"), Some("daemon.json"));
        assert_eq!(flags.get::<LogLevel>("--log-level").unwrap(), Some(LogLevel::Debug));
        assert_eq!(
            format!("{:?}", serve_config(&flags).unwrap()),
            format!("{:?}", parse(&[]).unwrap())
        );
    }

    #[test]
    fn defaults_match_the_paper_pipeline() {
        let args: Vec<String> = Vec::new();
        let config = serve_config(&Flags::parse(SERVED_TABLE, &args).unwrap()).unwrap();
        assert_eq!(format!("{config:?}"), format!("{:?}", ServeConfig::default()));
        assert_eq!(config.pipeline, PipelineConfig::paper());
        assert_eq!(config.addr, "127.0.0.1:7531");
        // Zero threads is clamped: a daemon with no workers would hang.
        let config = parse(&["--threads", "0"]).unwrap();
        assert_eq!(config.threads, 1);
    }
}
