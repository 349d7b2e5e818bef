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
//! --width <f32>     channel width multiplier (default 1.0)
//! --seed <u64>      synthetic-weight seed (default 42)
//! --images <usize>  evaluation images for fidelity queries (default 16)
//! --cal <usize>     calibration images (default 4)
//! --classes <usize> output classes (default 100)
//! --operand-width <4|8|12|16>  default weight operand width (default 8)
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
//! --log-level <error|warn|info|debug>  stderr log verbosity (default info)
//! --trace-dir <dir> install a trace collector and dump a Chrome trace JSON
//!                   into <dir> every N requests (default off)
//! --trace-every <n> requests per --trace-dir dump (default 64)
//! --trace-buffer <spans>  install a trace collector bounded to <spans>
//!                   spans, held for remote collection via TraceSnapshot
//!                   requests instead of file dumps (default off; ignored
//!                   when --trace-dir is set)
//! ```

use std::path::PathBuf;

use db_pim::flags::{Flag, Flags, OptionsError, PIPELINE_FLAGS};
use dbpim_trace::LogLevel;

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
    Flag::value("--log-level", "<error|warn|info|debug>"),
    Flag::value("--trace-dir", "<dir>"),
    Flag::value("--trace-every", "<n>"),
    Flag::value("--trace-buffer", "<spans>"),
];

/// The flag table of `dbpim-served`: its own flags plus the pipeline flags.
pub const SERVED_TABLE: &[&[Flag]] = &[SERVED_FLAGS, PIPELINE_FLAGS];

/// Reads [`SERVED_TABLE`] into the daemon's configuration and its stderr
/// log level. A flag not given keeps its [`ServeConfig::default`] value;
/// zero threads, caps, frame sizes and trace intervals are clamped to 1.
///
/// # Errors
///
/// Returns [`OptionsError`] naming a flag with a malformed value, or the
/// first positional word: the daemon takes none.
pub fn serve_config(flags: &Flags) -> Result<(ServeConfig, LogLevel), OptionsError> {
    flags.no_positionals()?;
    let defaults = ServeConfig::default();
    let mut pipeline = defaults.pipeline;
    pipeline.width_mult = flags.get("--width")?.unwrap_or(pipeline.width_mult);
    pipeline.seed = flags.get("--seed")?.unwrap_or(pipeline.seed);
    pipeline.evaluation_images = flags.get("--images")?.unwrap_or(pipeline.evaluation_images);
    pipeline.calibration_images =
        flags.get::<usize>("--cal")?.map_or(pipeline.calibration_images, |n| n.max(1));
    pipeline.classes = flags.get("--classes")?.unwrap_or(pipeline.classes);
    pipeline.operand_width = flags.get("--operand-width")?.unwrap_or(pipeline.operand_width);
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
        trace_dir: flags.raw("--trace-dir").map(PathBuf::from),
        trace_every: flags.get::<u64>("--trace-every")?.map_or(defaults.trace_every, |n| n.max(1)),
        trace_buffer: flags.get::<usize>("--trace-buffer")?.map(|n| n.max(1)),
        ..defaults
    };
    Ok((config, flags.get("--log-level")?.unwrap_or(LogLevel::Info)))
}

#[cfg(test)]
mod tests {
    use db_pim::PipelineConfig;
    use dbpim_csd::OperandWidth;

    use super::*;

    fn parse(raw: &[&str]) -> Result<ServeConfig, OptionsError> {
        let args: Vec<String> = raw.iter().map(ToString::to_string).collect();
        serve_config(&Flags::parse(SERVED_TABLE, &args)?).map(|(config, _)| config)
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

    #[test]
    fn trace_buffer_parses_strictly_and_clamps_zero() {
        let config = parse(&["--trace-buffer", "4096"]).unwrap();
        assert_eq!(config.trace_buffer, Some(4096));
        // A zero-span buffer would drop everything it exists to keep.
        let config = parse(&["--trace-buffer", "0"]).unwrap();
        assert_eq!(config.trace_buffer, Some(1));
        let err = parse(&["--trace-buffer", "lots"]).unwrap_err();
        assert_eq!(err.flag, "--trace-buffer");
        assert_eq!(parse(&[]).unwrap().trace_buffer, None, "off by default");
    }

    #[test]
    fn defaults_match_the_paper_pipeline() {
        let args: Vec<String> = Vec::new();
        let (config, level) = serve_config(&Flags::parse(SERVED_TABLE, &args).unwrap()).unwrap();
        assert_eq!(format!("{config:?}"), format!("{:?}", ServeConfig::default()));
        assert_eq!(level, LogLevel::Info);
        assert_eq!(config.pipeline, PipelineConfig::paper());
        assert_eq!(config.addr, "127.0.0.1:7531");
        // Zero threads is clamped: a daemon with no workers would hang.
        let config = parse(&["--threads", "0"]).unwrap();
        assert_eq!(config.threads, 1);
    }
}
