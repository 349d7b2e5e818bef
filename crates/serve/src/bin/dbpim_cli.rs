//! `dbpim-cli` — command-line client for the `dbpim-served` daemon.
//!
//! ```text
//! dbpim-cli [--addr <ip>] [--port <u16>] [--auth-token <secret>] <command> [flags]
//!
//! commands:
//!   ping                       liveness + protocol-version check
//!   models                     list the servable zoo models
//!   explore [grid flags]       stream a design-space exploration; the grid
//!       [--deadline-ms <n>]    flags are dse_sweep's (default: the paper
//!                              geometry, all five models, all four
//!                              sparsity configurations)
//!   stats                      daemon counters, queue depths, rejection
//!                              counts, per-request latency + cache stats
//!       [--watch <secs>]       re-poll every <secs> seconds and print a
//!                              delta/rate line per interval (req/s,
//!                              rejection rates) until interrupted
//!   metrics                    the counters `stats` prints, in the
//!                              Prometheus text exposition format
//!   shutdown                   stop the daemon
//! ```
//!
//! `explore` reads the grid flags with `dse_sweep`'s reader
//! ([`DseSpec::from_flags`]) and prints the report with its renderer
//! ([`render_report`]), so against a daemon started with the same pipeline
//! flags its stdout is byte-identical to `dse_sweep`'s; point progress and
//! the wall time go to stderr. A point set of one point that a `RunModel`
//! request can name is sent as one (see [`single_point_query`]). With
//! `--deadline-ms` the daemon answers a structured `DeadlineExceeded` error
//! instead of streaming past the deadline. `--auth-token` authenticates the
//! connection before the command runs — required against a daemon started
//! with `--auth-token`, harmless against an open one.
//!
//! The command line is strict ([`db_pim::flags`]): exactly one command
//! word, and an unknown flag, a flag the command does not read (beside
//! `--addr --port --auth-token --trace-out --log-level`), a stray word or a
//! malformed value aborts with usage on stderr (exit status 2).

use std::time::{Duration, Instant};

use db_pim::dse::render_report;
use db_pim::flags::{self, Flag, Flags, OptionsError, GRID_FLAGS, TRACE_FLAGS};
use db_pim::{DseEntry, DseReport, DseSpec};
use dbpim_serve::{Client, ClientError, RunQuery};

/// The program and its command word, as the usage line shows them.
const PROGRAM: &str = "dbpim-cli <ping|models|explore|stats|metrics|shutdown>";

// The flag groups; `COMMANDS` says which command reads which.
const CONNECTION_FLAGS: &[Flag] = &[
    Flag::value("--addr", "<ip>"),
    Flag::value("--port", "<u16>"),
    Flag::value("--auth-token", "<secret>"),
];

const EXPLORE_FLAGS: &[Flag] = &[Flag::value("--deadline-ms", "<n>")];

const STATS_FLAGS: &[Flag] = &[Flag::value("--watch", "<secs>")];

const CLI_TABLE: &[&[Flag]] =
    &[CONNECTION_FLAGS, GRID_FLAGS, EXPLORE_FLAGS, STATS_FLAGS, TRACE_FLAGS];

#[derive(Debug, Clone, Copy, PartialEq)]
enum Command {
    Ping,
    Models,
    Explore,
    Stats,
    Metrics,
    Shutdown,
}

#[derive(Debug, Clone)]
struct CliOptions {
    addr: String,
    port: u16,
    command: Command,
    /// The point set `explore` streams.
    spec: DseSpec,
    deadline_ms: Option<u64>,
    auth_token: Option<String>,
    watch: Option<u64>,
}

impl CliOptions {
    fn from_flags(flags: &Flags) -> Result<Self, OptionsError> {
        Ok(Self {
            command: command(flags)?,
            addr: flags.raw("--addr").unwrap_or("127.0.0.1").to_string(),
            port: flags.get("--port")?.unwrap_or(7531),
            spec: DseSpec::from_flags(flags)?,
            deadline_ms: flags.get("--deadline-ms")?,
            auth_token: flags.raw("--auth-token").map(String::from),
            // Zero would busy-poll the daemon; clamp like `--threads 0`.
            watch: flags.get::<u64>("--watch")?.map(|secs| secs.max(1)),
        })
    }
}

/// Every command word, its command and the flags it reads beside
/// [`CONNECTION_FLAGS`] and [`TRACE_FLAGS`].
const COMMANDS: &[(&str, Command, &[&[Flag]])] = &[
    ("ping", Command::Ping, &[]),
    ("models", Command::Models, &[]),
    ("explore", Command::Explore, &[GRID_FLAGS, EXPLORE_FLAGS]),
    ("stats", Command::Stats, &[STATS_FLAGS]),
    ("metrics", Command::Metrics, &[]),
    ("shutdown", Command::Shutdown, &[]),
];

/// The one command word of the command line, once every flag given is one
/// the command reads.
fn command(flags: &Flags) -> Result<Command, OptionsError> {
    let words: Vec<&str> = COMMANDS.iter().map(|&(word, ..)| word).collect();
    let expected = format!("expected one of: {}", words.join(", "));
    let word = match flags.positionals() {
        [] => return Err(OptionsError::new("<command>", expected)),
        [word] => word,
        [_, extra, ..] => return Err(OptionsError::new(extra.clone(), "unexpected argument")),
    };
    let Some(&(word, command, own)) = COMMANDS.iter().find(|&&(name, ..)| name == word) else {
        return Err(OptionsError::new("<command>", format!("`{word}` — {expected}")));
    };
    let read: Vec<&[Flag]> =
        [CONNECTION_FLAGS, TRACE_FLAGS].into_iter().chain(own.iter().copied()).collect();
    match flags.outside(&read) {
        Some(flag) => Err(OptionsError::new(flag, format!("not a flag of `{word}`"))),
        None => Ok(command),
    }
}

/// The `RunModel` query that answers `spec` when it names one point such a
/// query can: one model, width and geometry, the daemon's pruning, and one
/// or all four sparsity configurations. `RunModel` answers in one frame
/// and `Explore` in three; the daemon writes a frame in two writes without
/// `TCP_NODELAY`, so on a connection's second request (as after
/// `--auth-token`) each extra frame can wait ~40 ms for a delayed ACK.
fn single_point_query(spec: &DseSpec, deadline_ms: Option<u64>) -> Option<RunQuery> {
    let &[model] = spec.unique_models().as_slice() else { return None };
    let &[arch] = spec.grid.enumerate().ok()?.as_slice() else { return None };
    let width = spec.widths.first().copied();
    if !spec.pruning.is_empty() || spec.widths.iter().any(|&w| Some(w) != width) {
        return None;
    }
    let sparsity = match spec.unique_sparsity()[..] {
        [one] => Some(one),
        [_, _, _, _] => None, // all four
        _ => return None,
    };
    let fidelity = spec.fidelity;
    Some(RunQuery { model, sparsity, width, arch: Some(arch), fidelity, deadline_ms })
}

/// Runs `spec` on the daemon, one line per finished point on stderr.
fn explore(
    client: &mut Client,
    spec: &DseSpec,
    deadline: Option<u64>,
) -> Result<DseReport, ClientError> {
    let progress =
        |index, entry: &DseEntry| eprintln!("… point {index}: {} done", entry.point().label());
    let Some(query) = single_point_query(spec, deadline) else {
        return client.explore_streaming(spec, deadline, None, progress);
    };
    let mut report = DseReport::empty(spec.clone(), 1);
    report.entries.push(DseEntry::from_sweep(client.run_model(&query)?));
    report.fresh_points = 1;
    progress(0, &report.entries[0]);
    Ok(report)
}

fn print_stats(stats: &dbpim_serve::ServerStats) {
    println!("requests:             {}", stats.requests);
    println!("errors:               {}", stats.errors);
    println!("connections:          {}", stats.connections);
    println!("active connections:   {}", stats.active_connections);
    println!("queued connections:   {}", stats.queued_connections);
    println!("rejected overloaded:  {}", stats.rejected_overloaded);
    println!("rejected unauthorized: {}", stats.rejected_unauthorized);
    println!("rejected frames:      {}", stats.rejected_frames);
    println!("uptime:               {:?}", stats.uptime);
    println!("artifact hits:        {}", stats.cache.artifact_hits);
    println!("artifact misses:      {}", stats.cache.artifact_misses);
    println!("program hits:         {}", stats.cache.program_hits);
    println!("program misses:       {}", stats.cache.program_misses);
    println!("resident artifacts:   {}", stats.cache.resident_artifacts);
    println!("artifact evictions:   {}", stats.cache.artifact_evictions);
    if !stats.latency.is_empty() {
        println!("| request | count | mean us | p50 us | p99 us | max us |");
        println!("|---|---|---|---|---|---|");
        for entry in &stats.latency {
            let h = &entry.histogram;
            println!(
                "| {} | {} | {:.1} | {} | {} | {} |",
                entry.request,
                h.count,
                h.mean_micros(),
                h.percentile_micros(0.5),
                h.percentile_micros(0.99),
                h.max_micros,
            );
        }
    }
}

/// One `--watch` interval as a delta/rate line: what changed since the
/// previous poll, normalized to per-second rates where throughput is the
/// interesting unit. A pure function of two snapshots so it is testable
/// without a daemon.
fn render_stats_delta(
    prev: &dbpim_serve::ServerStats,
    curr: &dbpim_serve::ServerStats,
    interval_secs: u64,
) -> String {
    let secs = interval_secs.max(1) as f64;
    let delta = |c: u64, p: u64| c.saturating_sub(p);
    let requests = delta(curr.requests, prev.requests);
    let errors = delta(curr.errors, prev.errors);
    let connections = delta(curr.connections, prev.connections);
    let rejected = delta(curr.rejected_overloaded, prev.rejected_overloaded)
        + delta(curr.rejected_unauthorized, prev.rejected_unauthorized)
        + delta(curr.rejected_frames, prev.rejected_frames);
    format!(
        "+{requests} req ({:.1}/s) | +{errors} err | +{connections} conn | \
         +{rejected} rejected ({:.1}/s) | active {} | queued {}\n",
        requests as f64 / secs,
        rejected as f64 / secs,
        curr.active_connections,
        curr.queued_connections,
    )
}

/// `stats --watch <secs>`: print the absolute snapshot once, then one
/// delta/rate line per interval until interrupted (or the daemon goes
/// away, which surfaces as the client error).
fn watch_stats(client: &mut Client, interval_secs: u64) -> Result<(), ClientError> {
    use std::io::Write as _;

    let interval = Duration::from_secs(interval_secs.max(1));
    let mut prev = client.stats()?;
    print_stats(&prev);
    std::io::stdout().flush().ok();
    loop {
        std::thread::sleep(interval);
        let curr = client.stats()?;
        print!("{}", render_stats_delta(&prev, &curr, interval_secs));
        std::io::stdout().flush().ok();
        prev = curr;
    }
}

fn main() {
    // `--trace-out` dumps a Chrome trace of the client-side spans,
    // `--log-level` tunes the stderr logger, whatever the command.
    let (options, trace) = flags::from_args(PROGRAM, CLI_TABLE, |flags| {
        Ok((CliOptions::from_flags(flags)?, flags::install_trace(flags)?))
    });

    let addr = format!("{}:{}", options.addr, options.port);
    let mut client = match Client::connect_timeout(addr.as_str(), Duration::from_secs(5)) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("dbpim-cli: cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };

    if let Some(token) = &options.auth_token {
        if let Err(e) = client.authenticate(token) {
            eprintln!("dbpim-cli: authentication against {addr} failed: {e}");
            std::process::exit(1);
        }
    }

    let command_span =
        dbpim_trace::span!("cli.command", command = format!("{:?}", options.command));
    let outcome = match options.command {
        Command::Ping => client.ping().map(|version| {
            println!("pong (protocol v{version}) from {addr}");
        }),
        Command::Models => client.list_models().map(|models| {
            for kind in models {
                println!("{} (compact: {})", kind.name(), kind.is_compact());
            }
        }),
        Command::Explore => {
            let start = Instant::now();
            explore(&mut client, &options.spec, options.deadline_ms).map(|report| {
                print!("{}", render_report(&report));
                eprintln!(
                    "dbpim-cli: {} of {} points, wall time {:?}",
                    report.entries.len(),
                    report.total_points,
                    start.elapsed(),
                );
            })
        }
        Command::Stats => match options.watch {
            Some(secs) => watch_stats(&mut client, secs),
            None => client.stats().map(|stats| print_stats(&stats)),
        },
        Command::Metrics => client.stats().map(|stats| print!("{}", stats.render_prometheus())),
        Command::Shutdown => client.shutdown().map(|()| {
            println!("daemon at {addr} is shutting down");
        }),
    };

    drop(command_span);
    flags::finish_trace("dbpim-cli", trace);
    if let Err(e) = outcome {
        eprintln!("dbpim-cli: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use db_pim::prelude::{ArchConfig, ModelKind, OperandWidth, PruningSpec, SparsityConfig};

    use super::*;

    fn parse(raw: &[&str]) -> Result<CliOptions, OptionsError> {
        let args: Vec<String> = raw.iter().map(ToString::to_string).collect();
        CliOptions::from_flags(&Flags::parse(CLI_TABLE, &args)?)
    }

    #[test]
    fn commands_and_flags_parse_strictly() {
        let options = parse(&[
            "explore",
            "--models",
            "resnet-18",
            "--sparsity",
            "hybrid",
            "--widths",
            "4",
            "--fidelity",
            "--port",
            "9000",
        ])
        .unwrap();
        assert_eq!(options.command, Command::Explore);
        assert_eq!(options.spec.models, vec![ModelKind::ResNet18]);
        assert_eq!(options.spec.sparsity, vec![SparsityConfig::HybridSparsity]);
        assert_eq!(options.spec.widths, vec![OperandWidth::Int4]);
        assert!(options.spec.fidelity);
        assert_eq!(options.port, 9000);

        // `run` and `sweep` are gone: `explore --models` runs one model and
        // `explore` without grid axes sweeps the paper geometry. So is
        // `shard-status`: a fleet's progress is its journal, which
        // `dbpim-fleet --status` reads.
        for word in ["run", "sweep", "shard-status"] {
            let err = parse(&[word]).unwrap_err();
            assert_eq!(err.flag, "<command>");
            let expected = "expected one of: ping, models, explore, stats, metrics, shutdown";
            assert_eq!(err.message, format!("`{word}` — {expected}"));
        }
    }

    /// What `sweep` did: an exploration of the paper geometry, read by the
    /// grid reader `dse_sweep` uses.
    #[test]
    fn sweep_is_an_exploration_of_the_paper_geometry() {
        let options = parse(&[
            "explore",
            "--models",
            "alexnet",
            "--widths",
            "8,4",
            "--pruning",
            "none,0.5",
            "--fidelity",
        ])
        .unwrap();
        let spec = &options.spec;
        assert!(spec.fidelity);
        let points = spec.points(OperandWidth::Int8, PruningSpec::none()).unwrap();
        assert_eq!(points.len(), 4, "1 model x 2 widths x 2 prunings");
        assert!(points.iter().all(|p| p.arch == ArchConfig::paper()));
        assert_eq!(points[0].width, OperandWidth::Int4, "widths run narrow to wide");
        assert_eq!(
            parse(&["explore"]).unwrap().spec,
            DseSpec::from_flags(&Flags::default()).unwrap()
        );
    }

    #[test]
    fn explore_grid_flags_parse_strictly() {
        let options = parse(&[
            "explore",
            "--macros",
            "2,4,8",
            "--rows",
            "32,64",
            "--freqs",
            "250,500",
            "--weight-kb",
            "32,64",
            "--models",
            "alexnet",
            "--sparsity",
            "base,hybrid",
        ])
        .unwrap();
        assert_eq!(options.command, Command::Explore);
        let grid = &options.spec.grid;
        assert_eq!(grid.macros, vec![2, 4, 8]);
        assert_eq!(grid.rows_per_dbmu, vec![32, 64]);
        assert_eq!(grid.frequency_mhz, vec![250.0, 500.0]);
        assert_eq!(grid.weight_buffer_bytes, vec![32 * 1024, 64 * 1024]);
        assert_eq!(options.spec.models, vec![ModelKind::AlexNet]);
        assert_eq!(
            options.spec.sparsity,
            vec![SparsityConfig::DenseBaseline, SparsityConfig::HybridSparsity]
        );

        let err = parse(&["explore", "--macros", "2,x"]).unwrap_err();
        assert_eq!(err.flag, "--macros");
        assert!(err.message.contains('x'), "{err}");
    }

    #[test]
    fn deadline_flags_parse() {
        let options = parse(&["explore", "--deadline-ms", "2500"]).unwrap();
        assert_eq!(options.command, Command::Explore);
        assert_eq!(options.deadline_ms, Some(2500));

        let err = parse(&["explore", "--deadline-ms", "soon"]).unwrap_err();
        assert_eq!(err.flag, "--deadline-ms");
    }

    #[test]
    fn auth_token_flag_parses_for_every_command() {
        let options = parse(&["stats", "--auth-token", "fleet-secret"]).unwrap();
        assert_eq!(options.command, Command::Stats);
        assert_eq!(options.auth_token.as_deref(), Some("fleet-secret"));

        let options = parse(&["ping"]).unwrap();
        assert_eq!(options.auth_token, None);

        let err = parse(&["stats", "--auth-token"]).unwrap_err();
        assert_eq!(err.flag, "--auth-token");
        assert!(err.to_string().contains("missing"), "{err}");
    }

    #[test]
    fn metrics_and_watch_parse_strictly() {
        let options = parse(&["metrics", "--port", "7641"]).unwrap();
        assert_eq!(options.command, Command::Metrics);
        assert_eq!(options.port, 7641);

        let options = parse(&["stats", "--watch", "5"]).unwrap();
        assert_eq!(options.command, Command::Stats);
        assert_eq!(options.watch, Some(5));
        // Zero would busy-poll; clamped like the other zero-able knobs.
        let options = parse(&["stats", "--watch", "0"]).unwrap();
        assert_eq!(options.watch, Some(1));
        assert_eq!(parse(&["stats"]).unwrap().watch, None);

        let err = parse(&["stats", "--watch", "soon"]).unwrap_err();
        assert_eq!(err.flag, "--watch");
        let err = parse(&["stats", "--watch"]).unwrap_err();
        assert_eq!(err.flag, "--watch");
        assert!(err.to_string().contains("missing"), "{err}");
    }

    #[test]
    fn stats_deltas_render_rates_per_interval() {
        let base = dbpim_serve::ServerStats {
            requests: 100,
            errors: 2,
            connections: 10,
            uptime: Duration::from_secs(60),
            cache: Default::default(),
            active_connections: 1,
            queued_connections: 0,
            rejected_overloaded: 4,
            rejected_unauthorized: 1,
            rejected_frames: 0,
            latency: Vec::new(),
        };
        let mut later = base.clone();
        later.requests = 150;
        later.errors = 3;
        later.connections = 12;
        later.rejected_overloaded = 6;
        later.rejected_frames = 1;
        later.active_connections = 3;
        later.queued_connections = 2;

        let line = render_stats_delta(&base, &later, 10);
        assert_eq!(
            line,
            "+50 req (5.0/s) | +1 err | +2 conn | +3 rejected (0.3/s) | active 3 | queued 2\n"
        );
        // A counter-reset (daemon restart) renders as zero, not underflow.
        let line = render_stats_delta(&later, &base, 10);
        assert!(line.starts_with("+0 req (0.0/s)"), "{line}");
    }

    /// A point set of one point goes as one `RunModel` query; a point set a
    /// `RunModel` query cannot name goes as `Explore`.
    #[test]
    fn one_point_is_sent_as_one_run_model_query() {
        let query = |line: &[&str]| single_point_query(&parse(line).unwrap().spec, Some(9));
        let paper = RunQuery::new(ModelKind::AlexNet).with_arch(ArchConfig::paper());
        assert_eq!(
            query(&["explore", "--models", "alexnet"]),
            Some(RunQuery { deadline_ms: Some(9), ..paper })
        );
        let mut arch = ArchConfig::paper();
        arch.rows_per_dbmu = 32;
        let one = [
            "explore",
            "--models",
            "resnet-18,resnet-18",
            "--widths",
            "4,4",
            "--rows",
            "32",
            "--sparsity",
            "hybrid,hybrid",
            "--fidelity",
        ];
        assert_eq!(
            query(&one),
            Some(RunQuery {
                model: ModelKind::ResNet18,
                sparsity: Some(SparsityConfig::HybridSparsity),
                width: Some(OperandWidth::Int4),
                arch: Some(arch),
                fidelity: true,
                deadline_ms: Some(9),
            })
        );
        for line in [
            &["explore"][..],
            &["explore", "--models", "alexnet", "--widths", "4,8"],
            &["explore", "--models", "alexnet", "--macros", "2,4"],
            &["explore", "--models", "alexnet", "--sparsity", "base,hybrid"],
            &["explore", "--models", "alexnet", "--pruning", "none"],
        ] {
            assert_eq!(query(line), None, "{line:?}");
        }
    }

    /// The `RunModel` answer to one point renders as the `Explore` stream
    /// of the same spec does, so `explore` prints what `dse_sweep` prints
    /// on both paths.
    #[test]
    fn a_one_point_run_model_renders_as_its_exploration() {
        let mut pipeline = db_pim::PipelineConfig::fast().without_fidelity();
        pipeline.width_mult = 0.25;
        pipeline.calibration_images = 1;
        let handle = dbpim_serve::Server::spawn(dbpim_serve::ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 1,
            poll_interval: Duration::from_millis(50),
            pipeline,
            ..dbpim_serve::ServeConfig::default()
        })
        .expect("server spawns");
        let mut client = Client::connect(handle.addr()).expect("connects");
        let spec = parse(&["explore", "--models", "alexnet", "--sparsity", "hybrid"]).unwrap().spec;

        let one = explore(&mut client, &spec, None).expect("one point runs");
        let streamed = client.explore(&spec).expect("explore runs");
        assert!(one.results_match(&streamed));
        assert_eq!(render_report(&one), render_report(&streamed));
        let latency = client.stats().expect("stats").latency;
        let count = |request: &str| {
            latency.iter().find(|l| l.request == request).map_or(0, |l| l.histogram.count)
        };
        assert_eq!((count("RunModel"), count("Explore")), (1, 1));

        client.shutdown().expect("shutdown acknowledged");
        handle.join().expect("daemon exits cleanly");
    }

    /// A flag of another command is not silently ignored: `stats` never
    /// explores, so `stats --macros 2` is an error, not a stats call.
    #[test]
    fn a_flag_the_command_does_not_read_is_rejected() {
        for (line, flag, word) in [
            (&["stats", "--macros", "2"][..], "--macros", "stats"),
            (&["models", "--widths", "4"][..], "--widths", "models"),
            (&["stats", "--deadline-ms", "5"][..], "--deadline-ms", "stats"),
            (&["ping", "--fidelity"][..], "--fidelity", "ping"),
            (&["explore", "--watch", "1"][..], "--watch", "explore"),
        ] {
            let err = parse(line).unwrap_err();
            assert_eq!(err, OptionsError::new(flag, format!("not a flag of `{word}`")));
        }
        // The connection and trace flags belong to every command.
        for word in ["ping", "models", "stats", "metrics", "shutdown"] {
            let options = parse(&[
                word,
                "--addr",
                "127.0.0.2",
                "--port",
                "9000",
                "--auth-token",
                "t",
                "--log-level",
                "warn",
            ])
            .unwrap();
            assert_eq!((options.addr.as_str(), options.port), ("127.0.0.2", 9000));
        }
    }

    #[test]
    fn unknown_flag_values_are_not_mistaken_for_commands() {
        // An unknown flag fails the line instead of guessing whether the
        // next word is its value or the command.
        let err = parse(&["--mytag", "ping", "shutdown"]).unwrap_err();
        assert_eq!(err, OptionsError::new("--mytag", "unknown flag"));
        // `dbpim-cli --verbose ping` used to fail with "expected one of: …"
        // because the skipped `--verbose` swallowed `ping`.
        let err = parse(&["--verbose", "--port", "9000", "ping"]).unwrap_err();
        assert_eq!(err, OptionsError::new("--verbose", "unknown flag"));
        // One command per invocation.
        let err = parse(&["ping", "stats"]).unwrap_err();
        assert_eq!(err, OptionsError::new("stats", "unexpected argument"));
    }

    #[test]
    fn malformed_command_lines_are_rejected() {
        // No command at all, or an unknown one.
        let err = parse(&["--port", "9000"]).unwrap_err();
        assert_eq!(err.flag, "<command>");
        let err = parse(&["pign"]).unwrap_err();
        assert_eq!(err.flag, "<command>");
        assert!(err.message.starts_with("`pign` — expected one of: ping,"), "{err}");
        // A removed command word.
        let err = parse(&["run", "--models", "alexnet"]).unwrap_err();
        assert_eq!(err.flag, "<command>");
        assert!(err.message.starts_with("`run` — expected one of: ping,"), "{err}");
        // Unknown model name.
        let err = parse(&["explore", "--models", "lenet"]).unwrap_err();
        assert_eq!(err.flag, "--models");
        assert!(err.message.contains("lenet"), "{err}");
        // Bad element inside a list.
        let err = parse(&["explore", "--widths", "4,10"]).unwrap_err();
        assert_eq!(err.flag, "--widths");
        // Missing value.
        let err = parse(&["explore", "--models"]).unwrap_err();
        assert_eq!(err.flag, "--models");
        assert!(err.to_string().contains("missing"), "{err}");
    }
}
