//! `fleet_grid`: a `FleetDriver` with two remote workers and a snapshot
//! directory, the way CI and the README run `dbpim-fleet`, runs seeded grids
//! of fresh geometries over the five models. The workers are two
//! in-process daemons with one worker thread each, warmed during set-up.
//! One op is one grid point.
//!
//! Fleet dispatch and merge, the serve `Explore` streaming path, per-point
//! shard-snapshot writes, compilation and simulation do the work: many
//! small streamed frames plus file writes, where `serve_rpc` sends one
//! large reply.
//!
//! `fleet_pruned` runs the same grids at INT4 with 50 % unstructured
//! pruning. Its daemons prepare through the pruned path while warming
//! (`Model::pruned`, `ModelApprox::from_model_wide`, value-sparsity
//! workload extraction), and its points compile value-sparse programs.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use db_pim::prelude::{
    ArchConfig, ArchGrid, BatchRunner, DseDriver, DseEntry, DseReport, DseSpec, ModelKind,
    PipelineConfig, SweepEntry,
};
use dbpim_fleet::{FleetConfig, FleetDriver, FleetError, FleetEvent, FleetOutcome, WorkerSpec};
use dbpim_serve::protocol::{read_message, write_message};
use dbpim_serve::{Client, Request, Response, ServerHandle, ShardAnnotation};

use crate::cold::{self, Prepared};
use crate::serve::{reference_entries, server_counters, spawn, stop, warm};
use crate::spans::Recorder;
use crate::{
    err, layer_metric, min_rounds, run_rounds, stats, Args, Outcome, Rng, Timed, Traced, OUT_DIR,
    SETUP_REPS,
};

/// Macro and row counts swept by every grid.
const MACROS: [usize; 2] = [2, 4];
const ROWS: [usize; 2] = [32, 64];

/// Points in one grid: every geometry for each of the five models.
const GRID_POINTS: usize = MACROS.len() * ROWS.len() * 5;

/// Distinct grids a run cycles through. Each pins a weight-buffer size of
/// its own, so the first pass over the pool compiles every point. Later
/// passes reuse the daemons' compiled programs: the daemons cache programs
/// per geometry without bound (about 0.4 MB per fresh point here), so an
/// endless stream of fresh geometries would make `peak_rss_mb` grow with
/// throughput.
const POOL: usize = 8;

/// The seeded grid pool, visited in a fresh seeded order on every pass.
/// On the pruned workload every grid names its width and pruning spec, as
/// `dbpim-fleet --widths 4 --pruning 0.5` does: a report ranks its entries
/// by the spec's axes, so entries at a pruning spec the grid does not name
/// (the session's own) have no canonical order, and `results_match` would
/// compare them in completion order.
struct Grids {
    rng: Rng,
    pool: Vec<DseSpec>,
    order: Vec<usize>,
}

impl Grids {
    fn new(seed: u64, config: PipelineConfig) -> Self {
        let mut rng = Rng::new(seed, 3);
        let mut used = HashSet::new();
        let pool = (0..POOL)
            .map(|_| {
                let weight_buffer = loop {
                    let bytes = 24 * 1024 + 16 * rng.below(1024);
                    if used.insert(bytes) {
                        break bytes;
                    }
                };
                let mut models = ModelKind::all().to_vec();
                rng.shuffle(&mut models);
                let grid = ArchGrid::around(ArchConfig::paper())
                    .with_macros(MACROS.to_vec())
                    .with_rows(ROWS.to_vec())
                    .with_weight_buffers(vec![weight_buffer]);
                let spec = DseSpec::new(grid, models);
                if config.pruning.is_active() {
                    spec.with_widths(vec![config.operand_width]).with_pruning(vec![config.pruning])
                } else {
                    spec
                }
            })
            .collect();
        Self { rng, pool, order: Vec::new() }
    }

    fn next(&mut self) -> DseSpec {
        if self.order.is_empty() {
            self.order = (0..POOL).collect();
            self.rng.shuffle(&mut self.order);
        }
        let index = self.order.pop().expect("refilled above");
        self.pool[index].clone()
    }
}

/// A worker event the driver reported: when, which worker, and whether it
/// was `WorkerReady` (else `PointDone`).
type Event = (Instant, usize, bool);

/// One `FleetDriver::run` call and what the driver reported during it.
struct GridRun {
    start: Instant,
    end: Instant,
    outcome: Result<FleetOutcome, FleetError>,
    events: Vec<Event>,
}

impl GridRun {
    /// Per-worker point intervals: each `PointDone` back to the same
    /// worker's previous event.
    fn point_intervals(&self) -> Vec<(Instant, Instant)> {
        let mut last: HashMap<usize, Instant> = HashMap::new();
        let mut out = Vec::new();
        for &(at, worker, ready) in &self.events {
            if let (false, Some(&previous)) = (ready, last.get(&worker)) {
                out.push((previous, at));
            }
            last.insert(worker, at);
        }
        out
    }
}

fn run_grid(
    addrs: &[SocketAddr],
    config: PipelineConfig,
    spec: &DseSpec,
    dir: &Path,
    fleet_id: String,
) -> GridRun {
    let events: Arc<Mutex<Vec<Event>>> = Arc::default();
    let sink = Arc::clone(&events);
    let workers = addrs.iter().map(|a| WorkerSpec::Remote(a.to_string())).collect();
    let driver = FleetDriver::new(
        FleetConfig::new(config, workers).with_snapshot_dir(dir).with_fleet_id(fleet_id),
    )
    .with_observer(move |event| {
        let (worker, ready) = match event {
            FleetEvent::WorkerReady { worker, .. } => (*worker, true),
            FleetEvent::PointDone { worker, .. } => (*worker, false),
            _ => return,
        };
        sink.lock().expect("event log lock").push((Instant::now(), worker, ready));
    });
    let start = Instant::now();
    let outcome = driver.run(spec);
    let end = Instant::now();
    let events = std::mem::take(&mut *events.lock().expect("event log lock"));
    GridRun { start, end, outcome, events }
}

/// Two daemons with one worker thread each, warmed in lockstep, and their
/// warm-up replies. The warm-up connections close on return, freeing each
/// daemon's only worker for the fleet.
fn start_pair(config: PipelineConfig) -> Result<(Vec<ServerHandle>, Vec<SweepEntry>), String> {
    let (mut handles, mut clients) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        match spawn(config, 1) {
            Ok((handle, client)) => {
                handles.push(handle);
                clients.push(client);
            }
            Err(e) => {
                handles.into_iter().for_each(stop);
                return Err(e);
            }
        }
    }
    match warm(&mut clients) {
        Ok(replies) => Ok((handles, replies)),
        Err(e) => {
            handles.into_iter().for_each(stop);
            Err(e)
        }
    }
}

/// Runs `fleet_grid`.
///
/// # Errors
///
/// Set-up failures.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let config = args.pipeline();
    let runner = Arc::new(BatchRunner::new(config).map_err(err)?.with_threads(1));
    let warm_reference = reference_entries(&runner)?;

    let mut setup_s = Vec::new();
    let mut daemons: Vec<ServerHandle> = Vec::new();
    for _ in 0..SETUP_REPS {
        if !daemons.is_empty() {
            daemons.drain(..).for_each(stop);
            crate::release_freed_memory();
        }
        let start = Instant::now();
        let (handles, replies) = start_pair(config)?;
        setup_s.push(start.elapsed().as_secs_f64());
        daemons = handles;
        if replies.iter().any(|e| warm_reference.get(e.kind.name()) != Some(e)) {
            daemons.drain(..).for_each(stop);
            return Err("warm-up replies differ from the in-process run".to_string());
        }
    }
    let addrs: Vec<SocketAddr> = daemons.iter().map(ServerHandle::addr).collect();
    let root = PathBuf::from(OUT_DIR).join(format!("fleet-{}", std::process::id()));
    let fleet = Fleet { args, config, addrs: &addrs, root: &root, runner: &runner };
    let outcome =
        if args.trace { fleet.traced() } else { Ok(fleet.timed(setup_s, crate::peak_rss_mb())) };
    let _ = std::fs::remove_dir_all(&root);
    daemons.into_iter().for_each(stop);
    outcome
}

/// What every grid of one run shares.
struct Fleet<'a> {
    args: &'a Args,
    config: PipelineConfig,
    addrs: &'a [SocketAddr],
    root: &'a Path,
    runner: &'a Arc<BatchRunner>,
}

/// One checked grid.
struct Checked {
    run: GridRun,
    spec: DseSpec,
    /// Points attempted, retries included.
    attempted: usize,
    /// Retried attempts plus points whose merged result is wrong.
    failed: usize,
}

impl Fleet<'_> {
    /// Runs grid `index` and checks its merged report against an
    /// in-process `DseDriver` run of the same spec.
    fn grid(&self, grids: &mut Grids, index: usize) -> Checked {
        let spec = grids.next();
        let dir = self.root.join(format!("grid-{index}"));
        let fleet_id = format!("bench-{}-{index}", self.args.seed);
        let run = run_grid(self.addrs, self.config, &spec, &dir, fleet_id);
        let _ = std::fs::remove_dir_all(&dir);
        let points =
            spec.points(self.config.operand_width, self.config.pruning).map_or(0, |p| p.len());
        let reference = DseDriver::from_runner(Arc::clone(self.runner)).with_threads(1).run(&spec);
        let (attempted, failed) = match (&run.outcome, &reference) {
            (Ok(out), Ok(reference)) => {
                let retried = out.stats.retried_attempts;
                let wrong = if out.report.is_complete() && out.report.results_match(reference) {
                    0
                } else {
                    points
                };
                (points + retried, retried + wrong)
            }
            _ => (points, points),
        };
        Checked { run, spec, attempted, failed }
    }

    fn timed(&self, setup_s: Vec<f64>, setup_rss_mb: f64) -> Outcome {
        let mut grids = Grids::new(self.args.seed, self.config);
        let mut checked = Vec::new();
        run_rounds(self.args.seconds, min_rounds(GRID_POINTS), || {
            checked.push(self.grid(&mut grids, checked.len()));
        });
        let mut latencies_ms = Vec::new();
        let (mut busy_s, mut completed) = (0.0, 0);
        for grid in &checked {
            busy_s += (grid.run.end - grid.run.start).as_secs_f64();
            completed += grid.run.outcome.as_ref().map_or(0, |o| o.report.entries.len());
            latencies_ms
                .extend(grid.run.point_intervals().iter().map(|&(a, b)| ("point", ms(a, b))));
        }
        // The simulated metrics come from the first grid, which every run
        // of a seed draws identically.
        let first = checked[0].run.outcome.as_ref().ok();
        Timed {
            setup_s,
            setup_rss_mb,
            latencies_ms,
            throughput_per_s: completed as f64 / busy_s,
            attempted: checked.iter().map(|c| c.attempted).sum(),
            failed: checked.iter().map(|c| c.failed).sum(),
            results: first
                .map(|o| o.report.entries.iter().map(|e| (e.kind.name(), &e.result)).collect())
                .unwrap_or_default(),
            paper_comparable: false,
        }
        .outcome()
    }

    /// First replays set-up: every model prepared layer by layer, as each
    /// daemon prepared it while warming, under one `setup` span; those
    /// spans give the set-up layers (nn, tensor, fta, input sparsity,
    /// workload extraction) per model prepared. Then grids alternate: odd
    /// ones run as in the timed run, even ones record a span per point
    /// interval under the grid's op span and then replay every point in
    /// process.
    fn traced(&self) -> Result<Outcome, String> {
        let mut rec = Recorder::new();
        let setup = rec.open(0, "setup");
        let prepared = ModelKind::all()
            .into_iter()
            .map(|k| Ok((k.name(), cold::prepare(&mut rec, setup, &self.config, k)?)))
            .collect::<Result<BTreeMap<_, _>, String>>()?;
        rec.close(setup);
        let stats_before = self.daemon_stats();

        let mut out = Traced::default();
        let mut grids = Grids::new(self.args.seed, self.config);
        let (mut index, mut traced_points) = (0, 0);
        let (mut retried, mut reassigned) = (0, 0);
        let (mut waits_ms, mut reply_bytes, mut snapshot_bytes) = (Vec::new(), 0, 0);
        run_rounds(self.args.seconds, 1, || {
            let grid = self.grid(&mut grids, index);
            index += 1;
            out.attempted += grid.attempted;
            out.failed += grid.failed;
            let points = grid.run.point_intervals();
            let intervals: Vec<f64> = points.iter().map(|&(a, b)| ms(a, b)).collect();
            if index % 2 == 1 {
                out.untraced_ms.extend(intervals);
                return;
            }
            out.traced_ms.extend(&intervals);
            let op = rec.record(index, crate::spans::OP, None, grid.run.start, grid.run.end);
            for (a, b) in points {
                rec.record(index, "fleet.point", Some(op), a, b);
            }
            out.coverage.push((rec.covered_ms(op), ms(grid.run.start, grid.run.end)));
            let Ok(outcome) = &grid.run.outcome else { return };
            traced_points += outcome.report.entries.len();
            retried += outcome.stats.retried_attempts;
            reassigned += outcome.stats.reassigned_points;
            let replica = rec.open(index, "replica");
            let replay = self.replay(&mut rec, replica, &grid.spec, &outcome.report, &prepared);
            rec.close(replica);
            out.failed += replay.mismatches;
            reply_bytes += replay.reply_bytes;
            snapshot_bytes += replay.snapshot_bytes;
            let mean_replay = replay.replay_ms / outcome.report.entries.len().max(1) as f64;
            waits_ms.extend(intervals.iter().map(|ms| ms - mean_replay));
        });
        let models = prepared.len();
        for layer in cold::PREPARE_LAYERS {
            out.layers.insert(layer_metric(layer), rec.ms_per_op(layer, models));
        }
        let weights: usize = prepared.values().map(Prepared::weights).sum();
        out.layers.insert("fta.weights", weights as f64 / models as f64);
        let points = traced_points.max(1);
        for layer in [
            "core.run_point",
            "compiler.compile",
            "sim.simulate",
            "core.snapshot_save",
            "serve.encode",
            "serve.decode",
            "fleet.point",
        ] {
            out.layers.insert(layer_metric(layer), rec.ms_per_op(layer, points));
        }
        // Grid-run time no point interval covers: set-up, merge, final saves.
        let uncovered_ms: f64 = out.coverage.iter().map(|&(covered, wall)| wall - covered).sum();
        out.layers.insert("fleet.run_overhead_ms", uncovered_ms / points as f64);
        out.layers.insert("fleet.retried_frac", retried as f64 / points as f64);
        out.layers.insert("fleet.reassigned_frac", reassigned as f64 / points as f64);
        out.layers.insert("core.snapshot_bytes", snapshot_bytes as f64 / points as f64);
        out.layers.insert("serve.reply_bytes", reply_bytes as f64 / points as f64);
        if !waits_ms.is_empty() {
            let sorted = stats::sorted(&waits_ms);
            out.layers.insert("serve.wait_p50_ms", stats::percentile(&sorted, 0.5));
            out.layers.insert("serve.wait_tail_ms", stats::tail(&sorted).value);
        }
        let stats_after = self.daemon_stats();
        let delta = |f: fn(&dbpim_serve::ServerStats) -> u64| {
            stats_after.iter().map(f).sum::<u64>() - stats_before.iter().map(f).sum::<u64>()
        };
        let hits = delta(|s| s.cache.artifact_hits);
        let misses = delta(|s| s.cache.artifact_misses);
        out.layers.insert("core.artifact_hit_ratio", hits as f64 / (hits + misses).max(1) as f64);
        for stats in &stats_after {
            for (name, value) in server_counters(stats) {
                match out.counters.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, total)) => *total += value,
                    None => out.counters.push((name, value)),
                }
            }
        }
        out.counters.push(("fleet.retried_attempts".to_string(), retried as f64));
        out.counters.push(("fleet.reassigned_points".to_string(), reassigned as f64));
        out.counters.push(("fleet.traced_points".to_string(), traced_points as f64));
        Ok(out.outcome(&rec, self.args))
    }

    /// `Client::stats` of every daemon.
    fn daemon_stats(&self) -> Vec<dbpim_serve::ServerStats> {
        self.addrs.iter().filter_map(|addr| Client::connect(addr).ok()?.stats().ok()).collect()
    }

    /// Replays every point of a merged report in process: `run_point` on
    /// the reference runner, compile + simulate from the replayed
    /// workloads, the single-point `Explore` frames through a byte buffer,
    /// and the per-point shard-snapshot saves of a round-robin split.
    fn replay(
        &self,
        rec: &mut Recorder,
        replica: usize,
        spec: &DseSpec,
        report: &DseReport,
        prepared: &BTreeMap<&'static str, Prepared>,
    ) -> Replayed {
        let mut replayed = Replayed::default();
        let mut shards: Vec<Vec<DseEntry>> = vec![Vec::new(); self.addrs.len()];
        let path = self.root.join("replica-snapshot.json");
        for (i, entry) in report.entries.iter().enumerate() {
            let point = rec.time(replica, "core.run_point", || {
                self.runner.run_point_pruned(
                    entry.kind,
                    entry.width,
                    entry.pruning,
                    Some(entry.arch),
                    &spec.sparsity,
                    false,
                )
            });
            replayed.replay_ms += rec.last_ms();
            let runs = cold::compile_and_simulate(
                rec,
                replica,
                &prepared[entry.kind.name()],
                entry.arch,
                entry.width,
            );
            let (frames, point_bytes) =
                rec.time(replica, "serve.encode", || explore_frames(spec, entry));
            replayed.replay_ms += rec.last_ms();
            let decoded = rec.time(replica, "serve.decode", || decode_frames(&frames));
            replayed.replay_ms += rec.last_ms();
            let count = shards.len();
            let shard = &mut shards[i % count];
            shard.push(entry.clone());
            let mut snapshot = DseReport::empty(spec.clone(), report.total_points);
            snapshot.entries.clone_from(shard);
            snapshot.fresh_points = shard.len();
            snapshot.sort_canonical();
            let saved = rec.time(replica, "core.snapshot_save", || snapshot.save(&path));
            replayed.replay_ms += rec.last_ms();
            replayed.snapshot_bytes += std::fs::metadata(&path).map_or(0, |m| m.len() as usize);
            replayed.reply_bytes += point_bytes;
            let ok = point.is_ok_and(|p| p.result == entry.result)
                && runs.is_ok_and(|r| r == entry.result.runs)
                && decoded == Some(frames.len())
                && saved.is_ok();
            if !ok {
                replayed.mismatches += 1;
            }
        }
        let _ = std::fs::remove_file(&path);
        replayed
    }
}

/// What the in-process replay of one grid found.
#[derive(Debug, Default)]
struct Replayed {
    mismatches: usize,
    reply_bytes: usize,
    snapshot_bytes: usize,
    /// Milliseconds of run_point + encode + decode + snapshot save.
    replay_ms: f64,
}

/// The frames one remote point exchanges, as the fleet's remote worker and
/// the daemon write them: the single-point `Explore` request and its
/// started / point / finished replies. Returns the bytes and the size of
/// the `ExplorePoint` frame.
fn explore_frames(spec: &DseSpec, entry: &DseEntry) -> (Vec<u8>, usize) {
    let request = Request::Explore {
        spec: Box::new(DseSpec {
            grid: ArchGrid::around(entry.arch),
            models: vec![entry.kind],
            sparsity: spec.sparsity.clone(),
            widths: vec![entry.width],
            pruning: Vec::new(),
            fidelity: spec.fidelity,
        }),
        deadline_ms: Some(120_000),
        shard: Some(ShardAnnotation { fleet: "bench".to_string(), shard: 0, of: 2, points: 1 }),
        trace: None,
    };
    let mut frames = Vec::new();
    let _ = write_message(&mut frames, &request);
    let _ = write_message(&mut frames, &Response::ExploreStarted { total_points: 1 });
    let before = frames.len();
    let _ = write_message(&mut frames, &Response::ExplorePoint { index: 0, entry: entry.clone() });
    let point_bytes = frames.len() - before;
    let _ = write_message(
        &mut frames,
        &Response::ExploreFinished { total_points: 1, wall_time: Duration::from_millis(1) },
    );
    (frames, point_bytes)
}

/// Decodes the frames [`explore_frames`] wrote; `Some(bytes read)` when
/// all four parse.
fn decode_frames(frames: &[u8]) -> Option<usize> {
    let mut reader = frames;
    read_message::<Request>(&mut reader).ok()??;
    for _ in 0..3 {
        read_message::<Response>(&mut reader).ok()??;
    }
    Some(frames.len() - reader.len())
}

fn ms(from: Instant, to: Instant) -> f64 {
    (to - from).as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use db_pim::prelude::{OperandWidth, PruningSpec};

    use super::*;
    use crate::Workload;

    fn pool(workload: Workload) -> Vec<DseSpec> {
        let args = Args { workload, seed: 9, seconds: 1.0, trace: false };
        Grids::new(args.seed, args.pipeline()).pool
    }

    /// Pruned grids name their width and pruning spec, so their reports
    /// rank every entry; INT8 grids leave both axes empty, as
    /// `dbpim-fleet` without `--widths`/`--pruning` sends them.
    #[test]
    fn pruned_grids_name_their_axes() {
        for spec in pool(Workload::FleetPruned) {
            assert_eq!(spec.widths, vec![OperandWidth::Int4]);
            assert_eq!(spec.pruning, vec![PruningSpec::unstructured(0.5)]);
        }
        for spec in pool(Workload::FleetGrid) {
            assert!(spec.widths.is_empty() && spec.pruning.is_empty());
        }
    }

    /// Every grid of a run has its own geometry, so the first pass over the
    /// pool compiles every point; the pool is the same for a seed.
    #[test]
    fn grid_pool_is_seeded_and_fresh() {
        let grids = pool(Workload::FleetGrid);
        let buffers: HashSet<usize> = grids.iter().map(|s| s.grid.weight_buffer_bytes[0]).collect();
        assert_eq!((grids.len(), buffers.len()), (POOL, POOL));
        assert_eq!(grids, pool(Workload::FleetGrid));
        let points = grids[0].points(OperandWidth::Int8, PruningSpec::none()).expect("grid");
        assert_eq!(points.len(), GRID_POINTS);
    }
}
