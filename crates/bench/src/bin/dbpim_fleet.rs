//! `dbpim-fleet` — the sharded sweep orchestrator binary.
//!
//! Takes the same grid / pipeline flags as `dse_sweep` (they describe the
//! *what*) plus the fleet flags (the *who*):
//!
//! ```text
//! dbpim-fleet [dse_sweep grid/pipeline flags]
//!             [--workers <n>] [--endpoints host:port,...]
//!             [--snapshot-dir <dir>] [--fleet-id <name>]
//!             [--auth-token <secret>]
//!             [--point-timeout-ms <n>] [--retries <n>]
//!             [--log-level error|warn|info|debug] [--trace-out <path>]
//! dbpim-fleet --status --endpoints host:port,... [--auth-token <secret>]
//!             [--fleet-id <name>]
//! ```
//!
//! `dse_sweep`'s driver flags (`--snapshot`, `--limit-points`, `--threads`)
//! are not in the table ([`FLEET_TABLE`]), so `--snapshot` fails with a
//! hint at `--snapshot-dir`.
//!
//! `--status` skips the sweep entirely: it asks every endpoint for its
//! shard registry, folds the answers into one deduplicated progress view
//! per fleet ([`FleetProgress`]) and prints it — the monitoring
//! counterpart to a fleet running elsewhere.
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
//! Remote points equal local ones only when each daemon runs the fleet's
//! pipeline flags; `--cal` defaults to 4 for `dbpim-served` and 2 here.

use std::io::Write as _;
use std::time::Instant;

use db_pim::flags::{self, OptionsError};
use dbpim_bench::dse::{render_report, DseSweepOptions, FLEET_TABLE};
use dbpim_fleet::{FleetDriver, FleetEvent, FleetOptions, FleetProgress};
use dbpim_trace::{log_debug, log_info, log_warn, TraceSink};

fn main() {
    let (sweep, fleet, status, trace) = flags::from_args("dbpim-fleet", FLEET_TABLE, |flags| {
        let fleet = FleetOptions::from_flags(flags)?;
        let status = flags.switch("--status");
        if status && fleet.endpoints.is_empty() {
            return Err(OptionsError::new(
                "--status",
                "needs --endpoints to know which daemons to ask",
            ));
        }
        Ok((DseSweepOptions::from_flags(flags)?, fleet, status, flags::install_trace(flags)?))
    });
    if status {
        status_mode(&fleet);
    }

    let spec = sweep.spec();
    let config = fleet.fleet_config(sweep.base.pipeline_config());
    eprintln!(
        "dbpim-fleet {}: {} workers ({} remote), snapshots {}",
        config.fleet_id,
        config.workers.len(),
        fleet.endpoints.len(),
        config.snapshot_dir.as_ref().map_or("off".to_string(), |d| d.display().to_string()),
    );

    // Worker narration goes through the leveled logger: lifecycle and
    // failures at their natural levels, the per-point ticker at debug so
    // `--log-level debug` shows it and the default keeps stderr quiet.
    let driver = FleetDriver::new(config).with_observer(move |event| match event {
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
                if let Err(e) = finish_trace(sink, &fleet) {
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

/// Writes the run's trace: with remote endpoints, each daemon's span
/// buffer is drained over the wire, aligned onto the driver's clock via
/// the ping-handshake offset estimate, and merged under the driver's
/// spans as its own process lane; an unreachable (or buffer-less) daemon
/// is warned about and skipped so the driver's own trace always lands.
fn finish_trace(sink: TraceSink, fleet: &FleetOptions) -> std::io::Result<()> {
    use std::time::Duration;

    if fleet.endpoints.is_empty() {
        return sink.finish();
    }
    let driver_epoch = sink.collector().epoch_unix_micros();
    let mut lanes = Vec::new();
    for endpoint in &fleet.endpoints {
        match dbpim_fleet::collect_remote_trace(
            endpoint,
            fleet.auth_token.as_deref(),
            Duration::from_secs(5),
        ) {
            Ok(remote) => {
                if remote.snapshot.dropped > 0 {
                    log_warn!(
                        "fleet",
                        "{endpoint} dropped {} spans before collection (raise --trace-buffer)",
                        remote.snapshot.dropped
                    );
                }
                lanes.push(dbpim_fleet::remote_lane(&remote, driver_epoch));
            }
            Err(e) => log_warn!("fleet", "trace collection skipped: {e}"),
        }
    }
    sink.finish_merged(lanes)
}

/// `--status`: fetch every endpoint's shard registry, aggregate, print.
fn status_mode(fleet: &FleetOptions) -> ! {
    use std::time::Duration;

    let mut views = Vec::new();
    let mut unreachable = 0usize;
    for endpoint in &fleet.endpoints {
        let statuses =
            dbpim_serve::Client::connect_timeout(endpoint.as_str(), Duration::from_secs(5))
                .map_err(|e| e.to_string())
                .and_then(|mut client| {
                    if let Some(token) = &fleet.auth_token {
                        client.authenticate(token).map_err(|e| e.to_string())?;
                    }
                    client.shard_statuses().map_err(|e| e.to_string())
                });
        match statuses {
            Ok(statuses) => views.push(statuses),
            Err(e) => {
                unreachable += 1;
                eprintln!("dbpim-fleet: {endpoint}: {e}");
            }
        }
    }
    if views.is_empty() {
        eprintln!("dbpim-fleet: no endpoint answered");
        std::process::exit(1);
    }
    let mut fleets = FleetProgress::aggregate(&views);
    if let Some(id) = &fleet.fleet_id {
        fleets.retain(|progress| &progress.fleet == id);
        if fleets.is_empty() {
            eprintln!("dbpim-fleet: no endpoint reports fleet {id}");
            std::process::exit(1);
        }
    }
    if fleets.is_empty() {
        println!("no shard-tagged work reported by {} endpoint(s)", views.len());
    }
    for progress in &fleets {
        print!("{progress}");
    }
    std::io::stdout().flush().ok();
    // Partial coverage is an error exit so scripts don't mistake a view
    // missing daemons for the whole story.
    std::process::exit(i32::from(unreachable > 0));
}
