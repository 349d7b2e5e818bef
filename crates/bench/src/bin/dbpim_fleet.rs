//! `dbpim-fleet` — the sharded sweep orchestrator binary.
//!
//! Takes the same grid / pipeline flags as `dse_sweep`, read by the same
//! readers (they describe the *what*), plus the fleet flags (the *who*):
//!
//! ```text
//! dbpim-fleet [dse_sweep grid/pipeline flags]
//!             [--workers <n>] [--endpoints host:port,...]
//!             [--snapshot-dir <dir>] [--fleet-id <name>]
//!             [--auth-token <secret>]
//!             [--point-timeout-ms <n>] [--retries <n>]
//!             [--log-level error|warn|info|debug] [--trace-out <path>]
//! dbpim-fleet --status --snapshot-dir <dir>
//! ```
//!
//! `dse_sweep`'s driver flags (`--snapshot`, `--limit-points`, `--threads`)
//! are not in the table ([`FLEET_TABLE`]), so `--snapshot` fails with a
//! hint at `--snapshot-dir`.
//!
//! `--status` skips the sweep entirely: it reads the run's journal,
//! `<dir>/merged.json` ([`JOURNAL_FILE`]), and prints how many of its
//! points are done, with a note when a kill cut its final record short. It
//! writes nothing, so it can watch a run in progress. The journal is the
//! one record of a fleet's progress; the daemons keep none.
//!
//! The rendered report (stdout) is the same pure-function-of-the-results
//! table `dse_sweep` prints, so CI can `diff` a fleet run byte-for-byte
//! against a cold single-driver run of the same grid. Worker narration,
//! retirement notices and statistics go to stderr.
//!
//! The points run on the loop `dse_sweep` runs, one worker per endpoint,
//! then one per local worker: worker `w` starts on the `w`-th contiguous
//! block of the points the run computes and steals from the largest
//! backlog. A deterministic point failure fails the run at once; a
//! transient one is retried, up to `--retries` attempts. With
//! `--snapshot-dir`, the run keeps one journal there, `merged.json`, as
//! `dse_sweep --snapshot` does, and resumes from whatever it covers,
//! whatever the worker count of the run that wrote it; a record a kill cut
//! short is dropped and recomputed. A journal that cannot be read or
//! answers another grid, or a directory holding an earlier release's
//! `shard-NNN.json` journals, fails the run and is left as it was.
//!
//! Remote points equal local ones when each daemon runs the fleet's
//! pipeline flags; both default to [`PipelineConfig::paper`].

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use db_pim::dse::render_report;
use db_pim::flags::{self, OptionsError};
use db_pim::{DseReport, DseSpec, PipelineConfig};
use dbpim_bench::dse::FLEET_TABLE;
use dbpim_fleet::{FleetConfig, FleetDriver, FleetEvent, JOURNAL_FILE};
use dbpim_trace::{log_debug, log_info, log_warn, TraceSink};

fn main() {
    let (config, spec, status, trace) = flags::from_args("dbpim-fleet", FLEET_TABLE, |flags| {
        let config = FleetConfig::from_flags(flags, PipelineConfig::from_flags(flags)?)?;
        let status = flags.switch("--status");
        if status && config.endpoints().next().is_some() {
            let why = "not read by --status, which reads the journal in --snapshot-dir";
            return Err(OptionsError::new("--endpoints", why));
        }
        if status && config.snapshot_dir.is_none() {
            let why = "missing: --status reads the journal in this dir";
            return Err(OptionsError::new("--snapshot-dir", why));
        }
        let spec = DseSpec::from_flags(flags)?;
        Ok((config, spec, status, flags::install_trace(flags)?))
    });
    if let (true, Some(dir)) = (status, &config.snapshot_dir) {
        print_status(dir);
    }

    eprintln!(
        "dbpim-fleet {}: {} workers ({} remote), snapshots {}",
        config.fleet_id,
        config.workers.len(),
        config.endpoints().count(),
        config.snapshot_dir.as_ref().map_or("off".to_string(), |d| d.display().to_string()),
    );

    // Worker narration goes through the leveled logger: lifecycle and
    // failures at their natural levels, the per-point ticker at debug so
    // `--log-level debug` shows it and the default keeps stderr quiet.
    let driver = FleetDriver::new(config.clone()).with_observer(move |event| match event {
        FleetEvent::WorkerReady { worker, label } => {
            log_info!("fleet", "worker {worker} ({label}) ready");
        }
        FleetEvent::WorkerRetired { worker, label, reason } => {
            log_warn!("fleet", "worker {worker} ({label}) retired: {reason}");
        }
        FleetEvent::PointDone { completed, total, worker, shard, stolen } => {
            let tag = if *stolen { " (stolen)" } else { "" };
            log_debug!("fleet", "{completed}/{total} points (worker {worker}, shard {shard}{tag})");
        }
        FleetEvent::PointRetried { worker, shard, attempt, error } => {
            log_warn!("fleet", "retry: worker {worker}, shard {shard}, attempt {attempt}: {error}");
        }
    });

    let start = Instant::now();
    match driver.run(&spec) {
        Ok(outcome) => {
            print!("{}", render_report(&outcome.report));
            std::io::stdout().flush().ok();
            if let Some(sink) = trace {
                if let Err(e) = finish_trace(sink, &config) {
                    eprintln!("dbpim-fleet: writing the trace failed: {e}");
                }
            }
            let stats = &outcome.stats;
            eprintln!(
                "dbpim-fleet: {} fresh + {} resumed of {} points in {:.2?}; {} reassigned, \
                 {} retried attempts",
                stats.fresh_points,
                stats.resumed_points,
                outcome.report.total_points,
                start.elapsed(),
                stats.reassigned_points,
                stats.retried_attempts,
            );
            let latency = &stats.point_latency;
            if !latency.is_empty() {
                eprintln!(
                    "  point latency: mean {:.1} ms, p95 <= {:.1} ms, max {:.1} ms \
                     over {} fresh points",
                    latency.mean_micros() / 1000.0,
                    latency.percentile_micros(0.95) as f64 / 1000.0,
                    latency.max_micros as f64 / 1000.0,
                    latency.count,
                );
            }
            for (index, w) in stats.workers.iter().enumerate() {
                let retired =
                    w.retired.as_ref().map_or(String::new(), |r| format!(", retired: {r}"));
                eprintln!("  worker {index} ({}): {} points{retired}", w.label, w.points);
            }
            for diagnostic in &stats.diagnostics {
                eprintln!("  note: {diagnostic}");
            }
        }
        Err(e) => {
            eprintln!("dbpim-fleet failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Writes the run's trace: each endpoint's span collector is drained over
/// the wire, aligned onto the driver's clock via the ping-handshake offset
/// estimate, and merged under the driver's spans as its own process lane.
/// An unreachable daemon is warned about and skipped, and one whose drain
/// holds no spans (a daemon started without `--trace-out`) is warned about
/// and adds an empty lane, so the driver's own trace always lands.
fn finish_trace(sink: TraceSink, config: &FleetConfig) -> std::io::Result<()> {
    use std::time::Duration;

    let driver_epoch = sink.collector().epoch_unix_micros();
    let mut lanes = Vec::new();
    for endpoint in config.endpoints() {
        let token = config.auth_token.as_deref();
        match dbpim_fleet::collect_remote_trace(endpoint, token, Duration::from_secs(5)) {
            Ok(remote) => {
                if remote.snapshot.spans.is_empty() {
                    log_warn!(
                        "fleet",
                        "{endpoint} sent no spans: a daemon traces only when started with \
                         --trace-out"
                    );
                }
                if remote.snapshot.dropped > 0 {
                    log_warn!(
                        "fleet",
                        "{endpoint} dropped {} older spans before collection: its trace ring \
                         was full",
                        remote.snapshot.dropped
                    );
                }
                lanes.push(dbpim_fleet::remote_lane(&remote, driver_epoch));
            }
            Err(e) => log_warn!("fleet", "trace collection skipped: {e}"),
        }
    }
    sink.finish(lanes)
}

/// `--status`: how many points the journal in `dir` holds, read without
/// writing to it; exits 1 when it cannot be read.
fn print_status(dir: &Path) -> ! {
    let path = dir.join(JOURNAL_FILE);
    let (report, torn) = DseReport::load_journal(&path).unwrap_or_else(|e| {
        eprintln!("dbpim-fleet: {e}");
        std::process::exit(1);
    });
    println!("{}: {} of {} points", path.display(), report.entries.len(), report.total_points);
    if let Some(bytes) = torn {
        println!("note: a torn final record ({bytes} bytes) is not counted");
    }
    std::process::exit(0);
}
