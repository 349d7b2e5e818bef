//! `dbpim-cli` — command-line client for the `dbpim-served` daemon.
//!
//! ```text
//! dbpim-cli [--addr <ip>] [--port <u16>] [--auth-token <secret>] <command> [flags]
//!
//! commands:
//!   ping                       liveness + protocol-version check
//!   models                     list the servable zoo models
//!   run --model <name>         run one model (all four sparsity configs)
//!       [--sparsity <name>]    restrict to one configuration
//!       [--operand-width <w>]  override the daemon's default width
//!       [--fidelity]           request the accuracy-fidelity evaluation
//!   sweep [--models a,b,c]     sweep models (default: all five) on the
//!                              paper geometry: an `Explore` over one
//!                              geometry
//!       [--sparsity <name>]    restrict to one configuration
//!       [--widths 4,8,...]     sweep several operand widths
//!       [--pruning none,0.3]   value-level pruning axis (u/s<fraction>)
//!       [--fidelity]           request fidelity where defined
//!   explore                    stream a design-space exploration
//!       [--macros 2,4,8]       macro-count axis (default: paper value)
//!       [--compartments a,b]   compartments-per-macro axis
//!       [--dbmus a,b]          DBMU-columns axis
//!       [--rows 32,64]         rows-per-DBMU axis
//!       [--freqs 250,500]      frequency axis in MHz
//!       [--models a,b,c]       models (default: all five)
//!       [--sparsity <name>]    restrict to one configuration
//!       [--widths 4,8,...]     operand-width axis
//!       [--pruning none,0.3]   value-level pruning axis (u/s<fraction>)
//!       [--fidelity]           request fidelity where defined
//!   stats                      daemon counters, queue depths, rejection
//!                              counts, per-request latency + cache stats
//!       [--watch <secs>]       re-poll every <secs> seconds and print a
//!                              delta/rate line per interval (req/s,
//!                              rejection rates) until interrupted
//!   metrics                    the daemon's full metrics registry in the
//!                              Prometheus text exposition format
//!   shard-status               progress of shard-tagged fleet explorations
//!   shutdown                   stop the daemon
//!
//! `run`, `sweep` and `explore` additionally accept `--deadline-ms <n>`:
//! the daemon answers with a structured `DeadlineExceeded` error instead of
//! streaming past the deadline. `--auth-token` authenticates the connection
//! before the command runs — required against a daemon started with
//! `--auth-token`, harmless against an open one.
//! ```
//!
//! The command line is strict ([`db_pim::flags`]): exactly one command
//! word, and an unknown flag, a flag the command does not read (beside
//! `--addr --port --auth-token --trace-out --log-level`), a stray word or a
//! malformed value aborts with usage on stderr (exit status 2).

use std::time::Duration;

use db_pim::flags::{self, Flag, Flags, OptionsError, TRACE_FLAGS};
use db_pim::{DseEntry, DseReport, DseSpec, PruningSpec};
use dbpim_arch::ArchConfig;
use dbpim_csd::OperandWidth;
use dbpim_nn::ModelKind;
use dbpim_serve::{Client, RunQuery};
use dbpim_sim::{ArchGrid, SparsityConfig};

/// The program and its command word, as the usage line shows them.
const PROGRAM: &str =
    "dbpim-cli <ping|models|run|sweep|explore|stats|metrics|shard-status|shutdown>";

// The flag groups; `COMMANDS` says which command reads which.
const CONNECTION_FLAGS: &[Flag] = &[
    Flag::value("--addr", "<ip>"),
    Flag::value("--port", "<u16>"),
    Flag::value("--auth-token", "<secret>"),
];

const QUERY_FLAGS: &[Flag] = &[
    Flag::value("--sparsity", "<name>"),
    Flag::switch("--fidelity"),
    Flag::value("--deadline-ms", "<n>"),
];

const RUN_FLAGS: &[Flag] =
    &[Flag::value("--model", "<name>"), Flag::value("--operand-width", "<4|8|12|16>")];

const POINT_SET_FLAGS: &[Flag] = &[
    Flag::value("--models", "a,b,c"),
    Flag::value("--widths", "4,8,..."),
    Flag::value("--pruning", "none,0.3,s0.5,..."),
];

const GRID_FLAGS: &[Flag] = &[
    Flag::value("--macros", "a,b"),
    Flag::value("--compartments", "a,b"),
    Flag::value("--dbmus", "a,b"),
    Flag::value("--rows", "a,b"),
    Flag::value("--freqs", "a,b"),
];

const STATS_FLAGS: &[Flag] = &[Flag::value("--watch", "<secs>")];

const CLI_TABLE: &[&[Flag]] = &[
    CONNECTION_FLAGS,
    QUERY_FLAGS,
    RUN_FLAGS,
    POINT_SET_FLAGS,
    GRID_FLAGS,
    STATS_FLAGS,
    TRACE_FLAGS,
];

#[derive(Debug, Clone, Copy, PartialEq)]
enum Command {
    Ping,
    Models,
    Run,
    Sweep,
    Explore,
    Stats,
    Metrics,
    ShardStatus,
    Shutdown,
}

#[derive(Debug, Clone)]
struct CliOptions {
    addr: String,
    port: u16,
    command: Command,
    model: Option<ModelKind>,
    models: Option<Vec<ModelKind>>,
    sparsity: Option<SparsityConfig>,
    width: Option<OperandWidth>,
    widths: Option<Vec<OperandWidth>>,
    pruning: Option<Vec<PruningSpec>>,
    macros: Option<Vec<usize>>,
    compartments: Option<Vec<usize>>,
    dbmus: Option<Vec<usize>>,
    rows: Option<Vec<usize>>,
    freqs: Option<Vec<f64>>,
    deadline_ms: Option<u64>,
    auth_token: Option<String>,
    fidelity: bool,
    watch: Option<u64>,
}

impl CliOptions {
    fn from_flags(flags: &Flags) -> Result<Self, OptionsError> {
        let command = command(flags)?;
        let options = Self {
            addr: flags.raw("--addr").unwrap_or("127.0.0.1").to_string(),
            port: flags.get("--port")?.unwrap_or(7531),
            model: flags.get("--model")?,
            models: flags.list("--models")?,
            sparsity: flags.get("--sparsity")?,
            width: flags.get("--operand-width")?,
            widths: flags.list("--widths")?,
            pruning: flags.list("--pruning")?,
            macros: flags.list("--macros")?,
            compartments: flags.list("--compartments")?,
            dbmus: flags.list("--dbmus")?,
            rows: flags.list("--rows")?,
            freqs: flags.list("--freqs")?,
            deadline_ms: flags.get("--deadline-ms")?,
            auth_token: flags.raw("--auth-token").map(String::from),
            fidelity: flags.switch("--fidelity"),
            // Zero would busy-poll the daemon; clamp like `--threads 0`.
            watch: flags.get::<u64>("--watch")?.map(|secs| secs.max(1)),
            command,
        };
        if options.command == Command::Run && options.model.is_none() {
            return Err(OptionsError::new("--model", "required for `run`"));
        }
        Ok(options)
    }
}

/// Every command word, its command and the flags it reads beside
/// [`CONNECTION_FLAGS`] and [`TRACE_FLAGS`].
const COMMANDS: &[(&str, Command, &[&[Flag]])] = &[
    ("ping", Command::Ping, &[]),
    ("models", Command::Models, &[]),
    ("run", Command::Run, &[QUERY_FLAGS, RUN_FLAGS]),
    ("sweep", Command::Sweep, &[QUERY_FLAGS, POINT_SET_FLAGS]),
    ("explore", Command::Explore, &[QUERY_FLAGS, POINT_SET_FLAGS, GRID_FLAGS]),
    ("stats", Command::Stats, &[STATS_FLAGS]),
    ("metrics", Command::Metrics, &[]),
    ("shard-status", Command::ShardStatus, &[]),
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

/// The point set of `sweep` and `explore`: `grid` crossed with the model,
/// sparsity, width, pruning and fidelity flags.
fn point_set(options: &CliOptions, grid: ArchGrid) -> DseSpec {
    let models = options.models.clone().unwrap_or_else(|| ModelKind::all().to_vec());
    let mut spec = DseSpec::new(grid, models);
    if let Some(sparsity) = options.sparsity {
        spec = spec.with_sparsity(vec![sparsity]);
    }
    if let Some(widths) = &options.widths {
        spec = spec.with_widths(widths.clone());
    }
    if let Some(pruning) = &options.pruning {
        spec = spec.with_pruning(pruning.clone());
    }
    if options.fidelity {
        spec = spec.with_fidelity();
    }
    spec
}

/// Prints one row per simulated run of `entries`, then a summary line
/// naming `prepared_models` artifact sets and the server's `wall_time`.
fn print_table(entries: &[DseEntry], prepared_models: usize, wall_time: Duration) {
    println!("| model | width | arch macros | sparsity | cycles | speedup | energy saving |");
    println!("|---|---|---|---|---|---|---|");
    for entry in entries {
        // Speedups are relative to the dense baseline; a query restricted
        // to a non-baseline sparsity configuration has nothing to compare
        // against.
        let has_baseline = entry.result.run(SparsityConfig::DenseBaseline).is_some();
        for run in &entry.result.runs {
            let (speedup, saving) = if has_baseline {
                (
                    format!("{:.2}x", entry.result.speedup(run.sparsity)),
                    format!("{:.2}%", 100.0 * entry.result.energy_saving(run.sparsity)),
                )
            } else {
                ("n/a".to_string(), "n/a".to_string())
            };
            println!(
                "| {} | {} | {} | {} | {} | {} | {} |",
                entry.kind.name(),
                entry.point().width_label(),
                entry.arch.macros,
                run.sparsity,
                run.total_cycles(),
                speedup,
                saving,
            );
        }
    }
    let simulated_runs: usize = entries.iter().map(|e| e.result.runs.len()).sum();
    println!(
        "({} entries, {} prepared model/width artifact sets, {} simulated runs, server wall time {:?})",
        entries.len(),
        prepared_models,
        simulated_runs,
        wall_time,
    );
}

fn print_explore(report: &DseReport) {
    println!("| model | width | macros | comp | dbmus | rows | MHz | hybrid cycles | speedup |");
    println!("|---|---|---|---|---|---|---|---|---|");
    for entry in &report.entries {
        let hybrid = entry.result.run(SparsityConfig::HybridSparsity);
        let has_baseline = entry.result.run(SparsityConfig::DenseBaseline).is_some();
        let cycles = hybrid.map_or("n/a".to_string(), |run| run.total_cycles().to_string());
        let speedup = if hybrid.is_some() && has_baseline {
            format!("{:.2}x", entry.result.speedup(SparsityConfig::HybridSparsity))
        } else {
            "n/a".to_string()
        };
        println!(
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} |",
            entry.kind.name(),
            entry.point().width_label(),
            entry.arch.macros,
            entry.arch.compartments_per_macro,
            entry.arch.dbmus_per_compartment,
            entry.arch.rows_per_dbmu,
            entry.arch.frequency_mhz,
            cycles,
            speedup,
        );
    }
    println!(
        "({} of {} grid points, server wall time {:?})",
        report.entries.len(),
        report.total_points,
        report.wall_time,
    );
    for kind in report.spec.unique_models() {
        for sparsity in report.spec.unique_sparsity() {
            let frontier = report.pareto_frontier(kind, sparsity);
            if frontier.is_empty() {
                continue;
            }
            let labels: Vec<String> = frontier
                .iter()
                .map(|(i, m)| {
                    let e = &report.entries[*i];
                    format!(
                        "{}m/{}r@{} ({:.3} ms, {:.2} uJ, {:.3} mm2)",
                        e.arch.macros,
                        e.arch.rows_per_dbmu,
                        e.arch.frequency_mhz,
                        m.latency_ms,
                        m.energy_uj,
                        m.area_mm2
                    )
                })
                .collect();
            println!("pareto[{} / {}]: {}", kind.name(), sparsity, labels.join(", "));
        }
    }
}

fn print_stats(stats: &dbpim_serve::ServerStats) {
    println!("requests:             {}", stats.requests);
    println!("errors:               {}", stats.errors);
    println!("connections:          {}", stats.connections);
    println!("active connections:   {}", stats.active_connections);
    println!("queued connections:   {}", stats.queued_connections);
    println!("rejected overloaded:  {}", stats.rejected_overloaded);
    println!("rejected unauthorized:{}", stats.rejected_unauthorized);
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
fn watch_stats(client: &mut Client, interval_secs: u64) -> Result<(), dbpim_serve::ClientError> {
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
        Command::Run => {
            let mut query = RunQuery::new(options.model.expect("validated by the parser"));
            query.sparsity = options.sparsity;
            query.width = options.width;
            query.fidelity = options.fidelity;
            query.deadline_ms = options.deadline_ms;
            client.run_model(&query).map(|entry| {
                if let Some(fidelity) = &entry.result.fidelity {
                    println!("fidelity: top-1 agreement {:.2}%", 100.0 * fidelity.top1_agreement);
                }
                print_table(&[DseEntry::from_sweep(entry)], 1, Duration::ZERO);
            })
        }
        Command::Sweep => {
            // The daemon has no geometry flag, so the paper geometry is the
            // one it runs.
            let spec = point_set(&options, ArchGrid::around(ArchConfig::paper()));
            client
                .explore_streaming(&spec, options.deadline_ms, None, None, |index, entry| {
                    eprintln!("… entry {index}: {} @ {} done", entry.kind.name(), entry.width);
                })
                .map(|report| {
                    let prepared_models = spec.unique_models().len()
                        * spec.effective_widths(OperandWidth::Int8).len()
                        * spec.effective_pruning(PruningSpec::none()).len();
                    print_table(&report.entries, prepared_models, report.wall_time);
                })
        }
        Command::Explore => {
            let mut grid = ArchGrid::around(ArchConfig::paper());
            if let Some(macros) = options.macros.clone() {
                grid = grid.with_macros(macros);
            }
            if let Some(compartments) = options.compartments.clone() {
                grid = grid.with_compartments(compartments);
            }
            if let Some(dbmus) = options.dbmus.clone() {
                grid = grid.with_dbmus(dbmus);
            }
            if let Some(rows) = options.rows.clone() {
                grid = grid.with_rows(rows);
            }
            if let Some(freqs) = options.freqs.clone() {
                grid = grid.with_frequencies(freqs);
            }
            let spec = point_set(&options, grid);
            client
                .explore_streaming(&spec, options.deadline_ms, None, None, |index, entry| {
                    eprintln!(
                        "… point {index}: {} @ {} on {} macros x {} rows @ {} MHz done",
                        entry.kind.name(),
                        entry.width,
                        entry.arch.macros,
                        entry.arch.rows_per_dbmu,
                        entry.arch.frequency_mhz,
                    );
                })
                .map(|report| print_explore(&report))
        }
        Command::Stats => match options.watch {
            Some(secs) => watch_stats(&mut client, secs),
            None => client.stats().map(|stats| print_stats(&stats)),
        },
        Command::Metrics => client.metrics_snapshot().map(|metrics| {
            print!("{}", metrics.render_prometheus());
        }),
        Command::ShardStatus => client.shard_statuses().map(|shards| {
            if shards.is_empty() {
                println!("no shard-tagged explorations served yet");
                return;
            }
            println!("| fleet | shard | points done | state | updated (unix ms) |");
            println!("|---|---|---|---|---|");
            for status in shards {
                println!(
                    "| {} | {}/{} | {}/{} | {:?} | {} |",
                    status.fleet,
                    status.shard,
                    status.of,
                    status.completed_points,
                    status.total_points,
                    status.state,
                    status.updated_at_ms,
                );
            }
        }),
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
    use super::*;

    fn parse(raw: &[&str]) -> Result<CliOptions, OptionsError> {
        let args: Vec<String> = raw.iter().map(ToString::to_string).collect();
        CliOptions::from_flags(&Flags::parse(CLI_TABLE, &args)?)
    }

    #[test]
    fn commands_and_flags_parse_strictly() {
        let options = parse(&[
            "run",
            "--model",
            "resnet-18",
            "--sparsity",
            "hybrid",
            "--operand-width",
            "4",
            "--fidelity",
            "--port",
            "9000",
        ])
        .unwrap();
        assert_eq!(options.command, Command::Run);
        assert_eq!(options.model, Some(ModelKind::ResNet18));
        assert_eq!(options.sparsity, Some(SparsityConfig::HybridSparsity));
        assert_eq!(options.width, Some(OperandWidth::Int4));
        assert!(options.fidelity);
        assert_eq!(options.port, 9000);

        let options = parse(&["sweep", "--models", "alexnet,vgg19", "--widths", "4,16"]).unwrap();
        assert_eq!(options.command, Command::Sweep);
        assert_eq!(options.models, Some(vec![ModelKind::AlexNet, ModelKind::Vgg19]));
        assert_eq!(options.widths, Some(vec![OperandWidth::Int4, OperandWidth::Int16]));
    }

    #[test]
    fn sweep_is_an_exploration_of_the_paper_geometry() {
        let options = parse(&[
            "sweep",
            "--models",
            "alexnet",
            "--widths",
            "8,4",
            "--pruning",
            "none,0.5",
            "--fidelity",
        ])
        .unwrap();
        let spec = point_set(&options, ArchGrid::around(ArchConfig::paper()));
        assert!(spec.fidelity);
        let points = spec.points(OperandWidth::Int8, PruningSpec::none()).unwrap();
        assert_eq!(points.len(), 4, "1 model x 2 widths x 2 prunings");
        assert!(points.iter().all(|p| p.arch == ArchConfig::paper()));
        assert_eq!(points[0].width, OperandWidth::Int4, "widths run narrow to wide");
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
            "--models",
            "alexnet",
            "--sparsity",
            "hybrid",
        ])
        .unwrap();
        assert_eq!(options.command, Command::Explore);
        assert_eq!(options.macros, Some(vec![2, 4, 8]));
        assert_eq!(options.rows, Some(vec![32, 64]));
        assert_eq!(options.freqs, Some(vec![250.0, 500.0]));
        assert_eq!(options.models, Some(vec![ModelKind::AlexNet]));
        assert_eq!(options.sparsity, Some(SparsityConfig::HybridSparsity));

        let err = parse(&["explore", "--macros", "2,x"]).unwrap_err();
        assert_eq!(err.flag, "--macros");
        assert!(err.message.contains('x'), "{err}");
    }

    #[test]
    fn shard_status_and_deadline_flags_parse() {
        let options = parse(&["shard-status", "--port", "7641"]).unwrap();
        assert_eq!(options.command, Command::ShardStatus);
        assert_eq!(options.port, 7641);

        let options = parse(&["sweep", "--deadline-ms", "2500"]).unwrap();
        assert_eq!(options.command, Command::Sweep);
        assert_eq!(options.deadline_ms, Some(2500));

        let err = parse(&["sweep", "--deadline-ms", "soon"]).unwrap_err();
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

    /// `sweep --macros 2` used to run the paper's 4 macros, and `run` and
    /// `stats` parsed the other commands' flags the same way.
    #[test]
    fn a_flag_the_command_does_not_read_is_rejected() {
        for (line, flag, word) in [
            (&["sweep", "--macros", "2"][..], "--macros", "sweep"),
            (&["run", "--model", "alexnet", "--widths", "4"][..], "--widths", "run"),
            (&["stats", "--model", "alexnet"][..], "--model", "stats"),
            (&["ping", "--fidelity"][..], "--fidelity", "ping"),
            (&["explore", "--watch", "1"][..], "--watch", "explore"),
        ] {
            let err = parse(line).unwrap_err();
            assert_eq!(err, OptionsError::new(flag, format!("not a flag of `{word}`")));
        }
        // The connection and trace flags belong to every command.
        for word in ["ping", "models", "stats", "metrics", "shard-status", "shutdown"] {
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
        let err = parse(&["--mytag", "run", "shutdown"]).unwrap_err();
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
        // `run` without a model.
        let err = parse(&["run"]).unwrap_err();
        assert_eq!(err.flag, "--model");
        // Unknown model name.
        let err = parse(&["run", "--model", "lenet"]).unwrap_err();
        assert_eq!(err.flag, "--model");
        assert!(err.message.contains("lenet"), "{err}");
        // Bad element inside a list.
        let err = parse(&["sweep", "--widths", "4,10"]).unwrap_err();
        assert_eq!(err.flag, "--widths");
        // Missing value.
        let err = parse(&["sweep", "--models"]).unwrap_err();
        assert_eq!(err.flag, "--models");
        assert!(err.to_string().contains("missing"), "{err}");
    }
}
