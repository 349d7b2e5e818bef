//! `serve_rpc`: one connection sends warm `RunModel` requests, in seeded
//! order, to an in-process daemon with two worker threads whose five
//! models were prepared during set-up.
//!
//! This is the path `dbpim-cli` users wait on. Preparation does no work
//! here; serve framing, JSON, socket writes, session-cache hits and
//! simulation do all of it.

use std::collections::BTreeMap;
use std::thread;
use std::time::{Duration, Instant};

use db_pim::prelude::{
    BatchRunner, ModelKind, PipelineConfig, SimConfig, Simulator, SparsityConfig, SweepEntry,
};
use dbpim_serve::protocol::{read_message, write_message};
use dbpim_serve::{
    Client, Request, Response, RunQuery, ServeConfig, Server, ServerHandle, ServerStats,
};

use crate::spans::Recorder;
use crate::{
    err, layer_metric, min_rounds, run_rounds, stats, traced_first, Args, Outcome, Rng, Timed,
    Traced, SETUP_REPS,
};

/// A daemon for this process, bound to a free loopback port.
#[must_use]
pub fn serve_config(pipeline: PipelineConfig, threads: usize) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads,
        poll_interval: Duration::from_millis(50),
        pipeline,
        ..ServeConfig::default()
    }
}

/// Spawns a daemon and connects a client to it.
///
/// # Errors
///
/// Spawn or connection failures, as text.
pub fn spawn(pipeline: PipelineConfig, threads: usize) -> Result<(ServerHandle, Client), String> {
    let handle = Server::spawn(serve_config(pipeline, threads)).map_err(err)?;
    match Client::connect(handle.addr()) {
        Ok(client) => Ok((handle, client)),
        Err(e) => {
            stop(handle);
            Err(err(e))
        }
    }
}

/// Prepares every zoo model on every client's daemon, model by model in
/// lockstep: at any moment each daemon prepares the same model, so the
/// set-up's memory high-water mark is the same on every run. Returns the
/// replies.
///
/// # Errors
///
/// Request failures, as text.
pub fn warm(clients: &mut [Client]) -> Result<Vec<SweepEntry>, String> {
    let mut replies = Vec::new();
    for kind in ModelKind::all() {
        let step: Vec<Result<SweepEntry, String>> = thread::scope(|s| {
            let pending: Vec<_> = clients
                .iter_mut()
                .map(|c| s.spawn(move || c.run_model(&RunQuery::new(kind)).map_err(err)))
                .collect();
            pending
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| Err("warm-up thread panicked".to_string())))
                .collect()
        });
        for reply in step {
            replies.push(reply?);
        }
    }
    Ok(replies)
}

/// Shuts a daemon down and waits for its threads.
pub fn stop(handle: ServerHandle) {
    handle.request_shutdown();
    let _ = handle.join();
}

/// The in-process answers every served entry must equal, by model name;
/// prepares every model on `runner`.
///
/// # Errors
///
/// Pipeline failures, as text.
pub fn reference_entries(
    runner: &BatchRunner,
) -> Result<BTreeMap<&'static str, SweepEntry>, String> {
    let width = runner.session().config().operand_width;
    ModelKind::all()
        .into_iter()
        .map(|k| {
            let entry = runner.run_point(k, width, None, &SparsityConfig::all(), false);
            Ok((k.name(), entry.map_err(err)?))
        })
        .collect()
}

/// Runs `serve_rpc`.
///
/// # Errors
///
/// Set-up failures.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let config = crate::pipeline_config(args.seed);
    let runner = BatchRunner::new(config).map_err(err)?.with_threads(1);
    let reference = reference_entries(&runner)?;
    let mut failed = 0;

    // Set-up: spawn the daemon and warm it over the benchmark's connection,
    // SETUP_REPS times; keep the last.
    let mut setup_s = Vec::new();
    let mut daemon = None;
    for _ in 0..SETUP_REPS {
        if let Some((previous, _)) = daemon.take() {
            stop(previous);
            crate::release_freed_memory();
        }
        let start = Instant::now();
        let (handle, client) = spawn(config, 2)?;
        let mut clients = [client];
        let replies = warm(&mut clients);
        setup_s.push(start.elapsed().as_secs_f64());
        let [client] = clients;
        daemon = Some((handle, client));
        let replies = replies?;
        if replies.iter().any(|e| reference.get(e.kind.name()) != Some(e)) {
            return Err("warm-up replies differ from the in-process run".to_string());
        }
    }
    let (handle, mut client) = daemon.expect("at least one set-up repetition");
    let setup_rss_mb = crate::peak_rss_mb();
    let mut rng = Rng::new(args.seed, 2);
    let outcome = if args.trace {
        traced(args, &mut client, &runner, &reference, &mut rng)
    } else {
        let (mut latencies_ms, mut attempted) = (Vec::new(), 0);
        run_rounds(args.seconds, min_rounds(5), || {
            for kind in rng.model_round() {
                let start = Instant::now();
                let reply = client.run_model(&RunQuery::new(kind));
                latencies_ms.push((kind.name(), start.elapsed().as_secs_f64() * 1e3));
                attempted += 1;
                if reply.ok().as_ref() != reference.get(kind.name()) {
                    failed += 1;
                }
            }
        });
        let busy_s: f64 = latencies_ms.iter().map(|&(_, ms)| ms).sum::<f64>() / 1e3;
        Timed {
            setup_s,
            setup_rss_mb,
            throughput_per_s: (attempted - failed) as f64 / busy_s,
            latencies_ms,
            attempted,
            failed,
            results: reference.iter().map(|(&name, e)| (name, &e.result)).collect(),
            paper_comparable: false,
        }
        .outcome()
    };
    let _ = client.shutdown();
    let _ = handle.join();
    Ok(outcome)
}

/// Each op sends the request once untraced and once inside `serve.send` /
/// `serve.recv` spans, in alternating order, then replays it in process:
/// `run_point` on the reference runner, the four simulations, and the
/// request and reply frames encoded and decoded through a byte buffer.
/// Reply time the replay does not account for is the wait, where socket
/// stalls land.
fn traced(
    args: &Args,
    client: &mut Client,
    runner: &BatchRunner,
    reference: &BTreeMap<&'static str, SweepEntry>,
    rng: &mut Rng,
) -> Outcome {
    let mut rec = Recorder::new();
    let mut out = Traced::default();
    let (mut waits_ms, mut reply_bytes) = (Vec::new(), 0usize);
    let before = client.stats().ok();
    run_rounds(args.seconds, min_rounds(5), || {
        for kind in rng.model_round() {
            let expected = reference.get(kind.name());
            let untraced = |client: &mut Client, out: &mut Traced| {
                let start = Instant::now();
                let reply = client.run_model(&RunQuery::new(kind)).ok();
                out.untraced_ms.push(start.elapsed().as_secs_f64() * 1e3);
                reply
            };
            let first = (!traced_first(out.attempted)).then(|| untraced(client, &mut out));

            let request = Request::RunModel {
                model: kind,
                sparsity: None,
                width: None,
                arch: None,
                fidelity: false,
                deadline_ms: None,
                trace: None,
            };
            let op = rec.open_op(out.attempted);
            let sent = rec.time(op, "serve.send", || client.send(&request));
            let reply = match sent {
                Ok(()) => rec.time(op, "serve.recv", || client.recv()).ok(),
                Err(_) => None,
            };
            rec.close(op);
            let untraced = first.unwrap_or_else(|| untraced(client, &mut out));
            let wall_ms = rec.spans()[op].duration_us() / 1e3;
            out.traced_ms.push(wall_ms);
            let untraced_ms = *out.untraced_ms.last().expect("pushed above");
            out.coverage.push((rec.covered_ms(op), untraced_ms));
            out.attempted += 1;
            let served = match reply {
                Some(Response::RunResult { entry }) => Some(entry),
                _ => None,
            };
            let Some(served) =
                served.filter(|e| Some(e) == expected && untraced.as_ref() == expected)
            else {
                out.failed += 1;
                continue;
            };
            let replica = rec.open(out.attempted - 1, "replica");
            let replayed = replay(&mut rec, replica, runner, &request, served);
            rec.close(replica);
            reply_bytes += replayed.reply_bytes;
            if !replayed.matches {
                out.failed += 1;
            }
            waits_ms.push(wall_ms - replayed.replay_ms);
        }
    });
    let after = client.stats().ok();
    let ops = out.attempted;
    for layer in ["core.run_point", "sim.simulate", "serve.encode", "serve.decode"] {
        out.layers.insert(layer_metric(layer), rec.ms_per_op(layer, ops));
    }
    for layer in ["serve.send", "serve.recv"] {
        out.notes.push(format!("{layer}_ms: {} ms", rec.ms_per_op(layer, ops)));
    }
    if !waits_ms.is_empty() {
        let sorted = stats::sorted(&waits_ms);
        out.layers.insert("serve.wait_p50_ms", stats::percentile(&sorted, 0.5));
        out.layers.insert("serve.wait_tail_ms", stats::tail(&sorted).value);
    }
    out.layers.insert("serve.reply_bytes", reply_bytes as f64 / ops.max(1) as f64);
    if let (Some(before), Some(after)) = (before, after) {
        let hits = after.cache.artifact_hits - before.cache.artifact_hits;
        let misses = after.cache.artifact_misses - before.cache.artifact_misses;
        out.layers.insert("core.artifact_hit_ratio", hits as f64 / (hits + misses).max(1) as f64);
        out.counters = server_counters(&after);
    }
    out.outcome(&rec, args)
}

/// What the in-process replay of one request found.
struct Replayed {
    /// The replayed entry, simulations and decoded frames equal the served
    /// ones.
    matches: bool,
    /// Size of the reply frame on the wire.
    reply_bytes: usize,
    /// Milliseconds of `run_point` + encode + decode: the reply time the
    /// daemon's work accounts for.
    replay_ms: f64,
}

/// Replays one served request in process under the `replica` span.
fn replay(
    rec: &mut Recorder,
    replica: usize,
    runner: &BatchRunner,
    request: &Request,
    served: SweepEntry,
) -> Replayed {
    let session = runner.session();
    let (kind, arch, width) = (served.kind, session.config().arch, session.config().operand_width);
    let entry = rec.time(replica, "core.run_point", || {
        runner.run_point(kind, width, None, &SparsityConfig::all(), false)
    });
    let mut replay_ms = rec.last_ms();
    let programs = session.artifacts(kind).and_then(|a| a.programs(arch));
    let runs = programs.ok().map(|programs| {
        rec.time(replica, "sim.simulate", || {
            SparsityConfig::all()
                .into_iter()
                .map(|sparsity| {
                    let mut config = SimConfig::new(sparsity);
                    config.arch = arch;
                    let program =
                        if sparsity.weight_sparsity() { &programs.sparse } else { &programs.dense };
                    Simulator::new(config).and_then(|sim| sim.simulate(program)).ok()
                })
                .collect::<Option<Vec<_>>>()
        })
    });
    let reply = Response::RunResult { entry: served };
    let mut frames = Vec::new();
    let encoded = rec.time(replica, "serve.encode", || {
        write_message(&mut frames, request)?;
        let request_bytes = frames.len();
        write_message(&mut frames, &reply)?;
        Ok::<_, std::io::Error>(request_bytes)
    });
    replay_ms += rec.last_ms();
    let decoded = rec.time(replica, "serve.decode", || {
        let mut reader = frames.as_slice();
        let request = read_message::<Request>(&mut reader).ok().flatten();
        (request, read_message::<Response>(&mut reader).ok().flatten())
    });
    replay_ms += rec.last_ms();
    let Response::RunResult { entry: served } = &reply else { unreachable!("built above") };
    let matches = entry.as_ref().ok() == Some(served)
        && runs.flatten().as_ref() == Some(&served.result.runs)
        && decoded == (Some(request.clone()), Some(reply.clone()));
    let reply_bytes = encoded.map_or(0, |request_bytes| frames.len() - request_bytes);
    Replayed { matches, reply_bytes, replay_ms }
}

/// The daemon's own counters, as `Client::stats` reports them.
#[must_use]
pub fn server_counters(stats: &ServerStats) -> Vec<(String, f64)> {
    let cache = &stats.cache;
    [
        ("requests", stats.requests),
        ("errors", stats.errors),
        ("connections", stats.connections),
        ("rejected_overloaded", stats.rejected_overloaded),
        ("rejected_unauthorized", stats.rejected_unauthorized),
        ("rejected_frames", stats.rejected_frames),
        ("artifact_hits", cache.artifact_hits),
        ("artifact_misses", cache.artifact_misses),
        ("program_hits", cache.program_hits),
        ("program_misses", cache.program_misses),
    ]
    .into_iter()
    .map(|(name, value)| (format!("serve.{name}"), value as f64))
    .collect()
}
