//! Strict command-line parsing for the serving binaries.
//!
//! A known flag with a missing or malformed value is an error — silently
//! falling back to a default would start the daemon with a different model
//! zoo than the operator asked for. The daemon also rejects any argument it
//! does not know: a misspelt `--auth-token` must not start an open daemon.

use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Duration;

use db_pim::PipelineConfig;
use dbpim_csd::OperandWidth;
use dbpim_trace::LogLevel;

use crate::server::ServeConfig;

/// A malformed serving command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptionsError {
    /// The flag at fault (e.g. `--port`).
    pub flag: String,
    /// What was wrong with it.
    pub message: String,
}

impl fmt::Display for OptionsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid value for `{}`: {}", self.flag, self.message)
    }
}

impl std::error::Error for OptionsError {}

/// Parses one flag value, attributing failures to the flag (shared by the
/// daemon's and the CLI's parsers).
///
/// # Errors
///
/// Returns [`OptionsError`] naming `flag` when `raw` does not parse as `T`.
pub fn parse_value<T: FromStr>(flag: &str, raw: &str) -> Result<T, OptionsError>
where
    T::Err: fmt::Display,
{
    raw.parse().map_err(|e: T::Err| OptionsError {
        flag: flag.to_string(),
        message: format!("`{raw}` — {e}"),
    })
}

/// Command-line options of the `dbpim-served` daemon.
///
/// ```text
/// --addr <ip>       bind address (default 127.0.0.1)
/// --port <u16>      bind port (default 7531; 0 picks a free port)
/// --threads <n>     worker threads (default 4)
/// --width <f32>     channel width multiplier (default 1.0)
/// --seed <u64>      synthetic-weight seed (default 42)
/// --images <usize>  evaluation images for fidelity queries (default 16)
/// --cal <usize>     calibration images (default 4)
/// --classes <usize> output classes (default 100)
/// --operand-width <4|8|12|16>  default weight operand width (default 8)
/// --cache-cap <n>   LRU cap on resident prepared models per width session
///                   (default unbounded; 0 is clamped to 1)
/// --auth-token <s>  shared secret clients must present via Auth (default
///                   none: open daemon)
/// --max-frame-bytes <n>  request-line size limit; longer frames are
///                   answered FrameTooLarge and disconnected (default 1 MiB)
/// --max-pending <n> admission-control backlog bound once every worker is
///                   busy (default 64)
/// --max-client-conns <n>  per-client-IP cap on open connections (default
///                   unlimited)
/// --log-level <error|warn|info|debug>  stderr log verbosity (default info)
/// --trace-dir <dir> install a trace collector and dump a Chrome trace JSON
///                   into <dir> every N requests (default off)
/// --trace-every <n> requests per --trace-dir dump (default 64)
/// --trace-buffer <spans>  install a trace collector bounded to <spans>
///                   spans, held for remote collection via TraceSnapshot
///                   requests instead of file dumps (default off; ignored
///                   when --trace-dir is set)
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOptions {
    /// Bind address.
    pub addr: String,
    /// Bind port (`0` picks a free one).
    pub port: u16,
    /// Worker threads.
    pub threads: usize,
    /// The pipeline configuration the daemon's sessions derive from.
    pub pipeline: PipelineConfig,
    /// LRU cap on resident prepared models per per-width session cache.
    pub cache_cap: Option<usize>,
    /// Shared secret clients must present; `None` runs an open daemon.
    pub auth_token: Option<String>,
    /// Request-line size limit in bytes.
    pub max_frame_bytes: usize,
    /// Admission-control backlog bound.
    pub max_pending: usize,
    /// Per-client-IP cap on simultaneously open connections.
    pub max_client_conns: Option<usize>,
    /// Stderr log verbosity.
    pub log_level: LogLevel,
    /// Directory periodic Chrome trace dumps are written into.
    pub trace_dir: Option<PathBuf>,
    /// Requests per `trace_dir` dump.
    pub trace_every: u64,
    /// Span capacity of the remote-collection trace buffer.
    pub trace_buffer: Option<usize>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1".to_string(),
            port: 7531,
            threads: 4,
            pipeline: PipelineConfig::paper(),
            cache_cap: None,
            auth_token: None,
            max_frame_bytes: ServeConfig::DEFAULT_MAX_FRAME_BYTES,
            max_pending: ServeConfig::DEFAULT_MAX_PENDING,
            max_client_conns: None,
            log_level: LogLevel::Info,
            trace_dir: None,
            trace_every: ServeConfig::DEFAULT_TRACE_EVERY,
            trace_buffer: None,
        }
    }
}

impl ServeOptions {
    /// The flags this parser understands.
    pub const FLAGS: [&'static str; 18] = [
        "--addr",
        "--port",
        "--threads",
        "--width",
        "--seed",
        "--images",
        "--cal",
        "--classes",
        "--operand-width",
        "--cache-cap",
        "--auth-token",
        "--max-frame-bytes",
        "--max-pending",
        "--max-client-conns",
        "--log-level",
        "--trace-dir",
        "--trace-every",
        "--trace-buffer",
    ];

    /// One-line usage text for the daemon binary.
    pub const USAGE: &'static str = "usage: dbpim-served [--addr <ip>] [--port <u16>] \
         [--threads <n>] [--width <f32>] [--seed <u64>] [--images <n>] [--cal <n>] \
         [--classes <n>] [--operand-width <4|8|12|16>] [--cache-cap <n>] \
         [--auth-token <secret>] [--max-frame-bytes <n>] [--max-pending <n>] \
         [--max-client-conns <n>] [--log-level <error|warn|info|debug>] \
         [--trace-dir <dir>] [--trace-every <n>] [--trace-buffer <spans>]";

    /// Parses options from the process arguments, exiting with status 2 and
    /// usage on stderr for a malformed command line.
    #[must_use]
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        match Self::from_slice(&args) {
            Ok(options) => options,
            Err(e) => {
                eprintln!("{e}");
                eprintln!("{}", Self::USAGE);
                std::process::exit(2);
            }
        }
    }

    /// Parses options from an explicit argument list. A first argument that
    /// is not a flag is the program name and is skipped.
    ///
    /// # Errors
    ///
    /// Returns [`OptionsError`] naming the argument when it is not one of
    /// [`Self::FLAGS`], or when a flag has a missing or malformed value.
    pub fn from_slice(args: &[String]) -> Result<Self, OptionsError> {
        let mut options = Self::default();
        let mut i = usize::from(args.first().is_some_and(|first| !first.starts_with('-')));
        while i < args.len() {
            let flag = args[i].as_str();
            if !Self::FLAGS.contains(&flag) {
                return Err(OptionsError {
                    flag: flag.to_string(),
                    message: "unknown flag".to_string(),
                });
            }
            let raw = args.get(i + 1).ok_or_else(|| OptionsError {
                flag: flag.to_string(),
                message: "missing value".to_string(),
            })?;
            match flag {
                "--addr" => options.addr = raw.clone(),
                "--port" => options.port = parse_value(flag, raw)?,
                "--threads" => options.threads = parse_value::<usize>(flag, raw)?.max(1),
                "--width" => options.pipeline.width_mult = parse_value(flag, raw)?,
                "--seed" => options.pipeline.seed = parse_value(flag, raw)?,
                "--images" => options.pipeline.evaluation_images = parse_value(flag, raw)?,
                "--cal" => {
                    options.pipeline.calibration_images = parse_value::<usize>(flag, raw)?.max(1);
                }
                "--classes" => options.pipeline.classes = parse_value(flag, raw)?,
                "--operand-width" => {
                    options.pipeline.operand_width = parse_value::<OperandWidth>(flag, raw)?;
                }
                "--cache-cap" => options.cache_cap = Some(parse_value::<usize>(flag, raw)?.max(1)),
                "--auth-token" => options.auth_token = Some(raw.clone()),
                "--max-frame-bytes" => {
                    options.max_frame_bytes = parse_value::<usize>(flag, raw)?.max(1);
                }
                "--max-pending" => options.max_pending = parse_value(flag, raw)?,
                "--max-client-conns" => {
                    options.max_client_conns = Some(parse_value::<usize>(flag, raw)?.max(1));
                }
                "--log-level" => options.log_level = parse_value(flag, raw)?,
                "--trace-dir" => options.trace_dir = Some(PathBuf::from(raw)),
                "--trace-every" => options.trace_every = parse_value::<u64>(flag, raw)?.max(1),
                "--trace-buffer" => {
                    options.trace_buffer = Some(parse_value::<usize>(flag, raw)?.max(1));
                }
                _ => unreachable!("flag list and match arms agree"),
            }
            i += 2;
        }
        Ok(options)
    }

    /// The serving configuration equivalent to these options.
    #[must_use]
    pub fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            addr: format!("{}:{}", self.addr, self.port),
            threads: self.threads,
            poll_interval: Duration::from_millis(200),
            pipeline: self.pipeline,
            cache_cap: self.cache_cap,
            auth_token: self.auth_token.clone(),
            max_frame_bytes: self.max_frame_bytes,
            max_pending_connections: self.max_pending,
            max_connections_per_client: self.max_client_conns,
            metrics: None,
            trace_dir: self.trace_dir.clone(),
            trace_every: self.trace_every,
            trace_buffer: self.trace_buffer,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(raw: &[&str]) -> Vec<String> {
        raw.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn parses_serving_and_pipeline_flags_and_ignores_the_rest() {
        let options = ServeOptions::from_slice(&args(&[
            "dbpim-served",
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
        ]))
        .unwrap();
        assert_eq!(options.addr, "0.0.0.0");
        assert_eq!(options.port, 0);
        assert_eq!(options.threads, 2);
        assert!((options.pipeline.width_mult - 0.25).abs() < 1e-6);
        assert_eq!(options.pipeline.seed, 7);
        assert_eq!(options.pipeline.evaluation_images, 0);
        assert_eq!(options.pipeline.calibration_images, 1);
        assert_eq!(options.pipeline.classes, 10);
        assert_eq!(options.pipeline.operand_width, OperandWidth::Int4);
        assert_eq!(options.serve_config().addr, "0.0.0.0:0");
        assert_eq!(options.serve_config().threads, 2);

        let err = ServeOptions::from_slice(&args(&["dbpim-served", "--port", "0", "--bogus", "x"]))
            .unwrap_err();
        assert_eq!(err.flag, "--bogus");
        assert!(err.message.contains("unknown"), "{err}");
    }

    /// A misspelt `--auth-token` used to be skipped, starting an open
    /// daemon that any unauthenticated client could shut down.
    #[test]
    fn misspelt_auth_token_is_rejected_not_ignored() {
        let err = ServeOptions::from_slice(&args(&["dbpim-served", "--auth-tokn", "secret"]))
            .unwrap_err();
        assert_eq!(err.flag, "--auth-tokn");
        assert!(err.to_string().contains("--auth-tokn"), "{err}");
        // A stray positional argument after the program name is unknown too.
        let err = ServeOptions::from_slice(&args(&["dbpim-served", "secret"])).unwrap_err();
        assert_eq!(err.flag, "secret");
    }

    #[test]
    fn malformed_values_are_rejected_not_swallowed() {
        let err = ServeOptions::from_slice(&args(&["--port", "notaport"])).unwrap_err();
        assert_eq!(err.flag, "--port");
        assert!(err.message.contains("notaport"), "{err}");

        let err = ServeOptions::from_slice(&args(&["--port", "65536"])).unwrap_err();
        assert_eq!(err.flag, "--port");

        let err = ServeOptions::from_slice(&args(&["--threads"])).unwrap_err();
        assert_eq!(err.flag, "--threads");
        assert!(err.to_string().contains("missing"), "{err}");

        let err = ServeOptions::from_slice(&args(&["--operand-width", "10"])).unwrap_err();
        assert_eq!(err.flag, "--operand-width");
    }

    #[test]
    fn cache_cap_parses_strictly_and_clamps_zero() {
        let options = ServeOptions::from_slice(&args(&["--cache-cap", "3"])).unwrap();
        assert_eq!(options.cache_cap, Some(3));
        assert_eq!(options.serve_config().cache_cap, Some(3));
        // A zero cap would cache nothing and silently degrade every request
        // to a cold build; clamp it like `--threads 0`.
        let options = ServeOptions::from_slice(&args(&["--cache-cap", "0"])).unwrap();
        assert_eq!(options.cache_cap, Some(1));
        let err = ServeOptions::from_slice(&args(&["--cache-cap", "lots"])).unwrap_err();
        assert_eq!(err.flag, "--cache-cap");
        assert_eq!(ServeOptions::default().cache_cap, None, "unbounded by default");
    }

    #[test]
    fn hardening_flags_parse_strictly() {
        let options = ServeOptions::from_slice(&args(&[
            "--auth-token",
            "fleet-secret",
            "--max-frame-bytes",
            "4096",
            "--max-pending",
            "8",
            "--max-client-conns",
            "2",
        ]))
        .unwrap();
        assert_eq!(options.auth_token.as_deref(), Some("fleet-secret"));
        assert_eq!(options.max_frame_bytes, 4096);
        assert_eq!(options.max_pending, 8);
        assert_eq!(options.max_client_conns, Some(2));
        let config = options.serve_config();
        assert_eq!(config.auth_token.as_deref(), Some("fleet-secret"));
        assert_eq!(config.max_frame_bytes, 4096);
        assert_eq!(config.max_pending_connections, 8);
        assert_eq!(config.max_connections_per_client, Some(2));

        // Defaults: open daemon, 1 MiB frames, 64 pending, no per-client cap.
        let defaults = ServeOptions::default();
        assert_eq!(defaults.auth_token, None);
        assert_eq!(defaults.max_frame_bytes, ServeConfig::DEFAULT_MAX_FRAME_BYTES);
        assert_eq!(defaults.max_pending, ServeConfig::DEFAULT_MAX_PENDING);
        assert_eq!(defaults.max_client_conns, None);

        let err = ServeOptions::from_slice(&args(&["--max-frame-bytes", "big"])).unwrap_err();
        assert_eq!(err.flag, "--max-frame-bytes");
        let err = ServeOptions::from_slice(&args(&["--auth-token"])).unwrap_err();
        assert_eq!(err.flag, "--auth-token");
        assert!(err.to_string().contains("missing"), "{err}");
        // Zero would make every frame oversized / cap everyone out.
        let options =
            ServeOptions::from_slice(&args(&["--max-frame-bytes", "0", "--max-client-conns", "0"]))
                .unwrap();
        assert_eq!(options.max_frame_bytes, 1);
        assert_eq!(options.max_client_conns, Some(1));
    }

    #[test]
    fn trace_buffer_parses_strictly_and_clamps_zero() {
        let options = ServeOptions::from_slice(&args(&["--trace-buffer", "4096"])).unwrap();
        assert_eq!(options.trace_buffer, Some(4096));
        assert_eq!(options.serve_config().trace_buffer, Some(4096));
        // A zero-span buffer would drop everything it exists to keep.
        let options = ServeOptions::from_slice(&args(&["--trace-buffer", "0"])).unwrap();
        assert_eq!(options.trace_buffer, Some(1));
        let err = ServeOptions::from_slice(&args(&["--trace-buffer", "lots"])).unwrap_err();
        assert_eq!(err.flag, "--trace-buffer");
        assert_eq!(ServeOptions::default().trace_buffer, None, "off by default");
    }

    #[test]
    fn defaults_match_the_paper_pipeline() {
        let options = ServeOptions::from_slice(&args(&[])).unwrap();
        assert_eq!(options, ServeOptions::default());
        assert_eq!(options.pipeline, PipelineConfig::paper());
        assert_eq!(options.serve_config().addr, "127.0.0.1:7531");
        // Zero threads is clamped: a daemon with no workers would hang.
        let options = ServeOptions::from_slice(&args(&["--threads", "0"])).unwrap();
        assert_eq!(options.threads, 1);
    }
}
