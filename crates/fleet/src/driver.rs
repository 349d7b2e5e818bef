//! The fleet driver: claims, executes, retries and merges.
//!
//! [`FleetDriver::run`] turns a [`DseSpec`] into one merged [`DseReport`]
//! by fanning the spec's points out across N workers:
//!
//! 1. **Plan** — the canonical point list is partitioned into one shard per
//!    worker by the configured [`ShardStrategy`] (a pure function, so every
//!    resume derives the same plan).
//! 2. **Resume** — existing `shard-*.json` snapshots in the snapshot
//!    directory are adopted point-by-point; a torn or unparsable file is
//!    skipped with a diagnostic, a snapshot answering a *different spec* is
//!    a hard error.
//! 3. **Execute** — workers claim points from their own shard first and
//!    *steal* from the largest backlog once their shard drains (straggler
//!    reassignment). A failed attempt requeues the point for anyone else;
//!    repeated failures trigger a heartbeat and retire the worker; a point
//!    failing [`FleetConfig::max_point_attempts`] times aborts the run.
//!    Each shard's partial report is re-snapshotted as it grows, so a
//!    killed fleet resumes with at most the in-flight points lost.
//! 4. **Merge** — the shard reports merge through the spec-checked,
//!    key-deduplicating [`DseReport::merge`]; the result is verified to
//!    cover every point exactly once and is bit-identical (timestamps
//!    aside) to a single [`DseDriver`](db_pim::DseDriver) run —
//!    `tests/fleet_sharding.rs` asserts exactly that.

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use db_pim::dse::unix_time_ms;
use db_pim::{
    BatchRunner, DsePoint, DsePointKey, DseReport, DseSpec, PipelineConfig, PipelineError,
};

use crate::shard::{ShardPlan, ShardStrategy};
use crate::worker::{
    JobContext, LocalExecutor, PointExecutor, PointJob, RemoteExecutor, WorkerSpec,
};

/// A fleet-level failure.
#[derive(Debug)]
pub enum FleetError {
    /// The spec or pipeline configuration is unusable.
    Spec(PipelineError),
    /// The configuration names no workers.
    NoWorkers,
    /// A shard snapshot in the snapshot directory answers a different spec;
    /// resuming would silently mix incompatible results.
    SnapshotSpecMismatch {
        /// The offending snapshot.
        path: PathBuf,
    },
    /// One point kept failing across workers and retries.
    PointFailed {
        /// Human-readable identity of the point.
        point: String,
        /// Attempts made before giving up.
        attempts: usize,
        /// The last failure.
        last_error: String,
    },
    /// Every worker retired before the spec was covered.
    Stalled {
        /// Points completed (and persisted) before the stall.
        completed: usize,
        /// Points the spec enumerates.
        total: usize,
        /// Worker / snapshot diagnostics accumulated during the run.
        diagnostics: Vec<String>,
    },
    /// A final shard or merged snapshot could not be persisted.
    Persist(PipelineError),
    /// The merged report failed its exactly-once coverage check (a bug, not
    /// an operational failure — surfaced loudly instead of returning a
    /// silently short report).
    Incomplete {
        /// Points present in the merged report.
        merged: usize,
        /// Points the spec enumerates.
        total: usize,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Spec(e) => write!(f, "unusable fleet spec: {e}"),
            FleetError::NoWorkers => write!(f, "fleet has no workers (local or remote)"),
            FleetError::SnapshotSpecMismatch { path } => write!(
                f,
                "shard snapshot {} answers a different spec; refusing to resume",
                path.display()
            ),
            FleetError::PointFailed { point, attempts, last_error } => {
                write!(f, "point {point} failed {attempts} attempts; last error: {last_error}")
            }
            FleetError::Stalled { completed, total, diagnostics } => write!(
                f,
                "fleet stalled at {completed}/{total} points with no live workers ({})",
                diagnostics.join("; ")
            ),
            FleetError::Persist(e) => write!(f, "cannot persist fleet snapshot: {e}"),
            FleetError::Incomplete { merged, total } => write!(
                f,
                "merged report covers {merged} of {total} points despite a completed run \
                 (fleet bookkeeping bug)"
            ),
        }
    }
}

impl std::error::Error for FleetError {}

/// Progress events a fleet run emits (stderr narration in `dbpim-fleet`,
/// deterministic triggers in the test suite).
#[derive(Debug, Clone)]
pub enum FleetEvent {
    /// A worker connected / initialized and is claiming points.
    WorkerReady {
        /// Worker index into [`FleetConfig::workers`].
        worker: usize,
        /// Human-readable backend description.
        label: String,
    },
    /// A worker gave up after repeated failures; its claimed work was
    /// requeued for the survivors.
    WorkerRetired {
        /// Worker index.
        worker: usize,
        /// Human-readable backend description.
        label: String,
        /// Why it retired.
        reason: String,
    },
    /// A point completed.
    PointDone {
        /// Worker index that computed it.
        worker: usize,
        /// Shard the point belongs to.
        shard: usize,
        /// `true` when the point was stolen from another worker's shard.
        stolen: bool,
        /// Points completed so far (including resumed ones).
        completed: usize,
        /// Points the spec enumerates.
        total: usize,
    },
    /// A point attempt failed and was requeued.
    PointRetried {
        /// Worker index that failed it.
        worker: usize,
        /// Shard the point belongs to.
        shard: usize,
        /// Attempt number that just failed (1-based).
        attempt: usize,
        /// The failure.
        error: String,
    },
    /// A snapshot file in the shard directory was unreadable and skipped.
    SnapshotSkipped {
        /// The skipped file.
        path: PathBuf,
        /// Why it was skipped.
        reason: String,
    },
}

/// Per-worker outcome counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerStats {
    /// Human-readable backend description (`local` / `remote(addr)`).
    pub label: String,
    /// Points this worker completed.
    pub points: usize,
    /// Why the worker retired, when it did.
    pub retired: Option<String>,
}

/// Aggregate outcome counters of one fleet run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetStats {
    /// One entry per configured worker.
    pub workers: Vec<WorkerStats>,
    /// Points adopted from shard snapshots instead of recomputed.
    pub resumed_points: usize,
    /// Points computed fresh this run.
    pub fresh_points: usize,
    /// Points completed by a worker other than their shard's initial owner
    /// (straggler reassignment).
    pub reassigned_points: usize,
    /// Failed attempts that were requeued.
    pub retried_attempts: usize,
    /// Diagnostics for snapshots that were skipped or failed to save.
    pub diagnostics: Vec<String>,
    /// Wall-time distribution of fresh point executions across every
    /// worker (log₂-bucketed; resumed points are not sampled).
    pub point_latency: dbpim_trace::LatencyHistogram,
}

/// The merged report plus the run's bookkeeping.
#[derive(Debug)]
pub struct FleetOutcome {
    /// The merged, dedup-verified report — `results_match` a single-driver
    /// run of the same spec.
    pub report: DseReport,
    /// Run statistics.
    pub stats: FleetStats,
}

/// Configuration of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The pipeline configuration local workers run and remote daemons are
    /// assumed to run (results are only bit-identical when they match).
    pub pipeline: PipelineConfig,
    /// The worker roster; one shard is planned per worker.
    pub workers: Vec<WorkerSpec>,
    /// How points are partitioned into shards.
    pub strategy: ShardStrategy,
    /// Directory for per-shard snapshots (`shard-NNN.json`) and the merged
    /// report (`merged.json`); `None` disables persistence and resume.
    pub snapshot_dir: Option<PathBuf>,
    /// Identifier shard-tagged remote requests carry (shows up in
    /// `dbpim-cli shard-status`).
    pub fleet_id: String,
    /// Shared secret presented to every remote daemon on (re)connect.
    /// Required when the endpoints run `dbpim-served --auth-token`; open
    /// daemons accept any token, so setting it is always safe.
    pub auth_token: Option<String>,
    /// Per-point remote deadline *and* response timeout — the failure
    /// detector for wedged or dead daemons.
    pub point_timeout: Duration,
    /// Failed attempts per point before the whole run aborts.
    pub max_point_attempts: usize,
    /// Consecutive failures before a worker must pass a heartbeat to keep
    /// claiming points.
    pub worker_failure_limit: usize,
    /// New points per shard between snapshot saves (default 1: maximum
    /// durability). Each save reserializes the shard's whole entry list, so
    /// on grids approaching the 4096-point cap a larger interval trades a
    /// little resume work for O(n²/k) instead of O(n²) snapshot I/O. The
    /// final authoritative save always happens regardless.
    pub save_every: usize,
}

impl FleetConfig {
    /// A configuration with the given roster and every knob at its default:
    /// round-robin sharding, no snapshots, a 120 s point timeout, 3
    /// attempts per point, heartbeat after 2 consecutive worker failures.
    #[must_use]
    pub fn new(pipeline: PipelineConfig, workers: Vec<WorkerSpec>) -> Self {
        Self {
            pipeline,
            workers,
            strategy: ShardStrategy::default(),
            snapshot_dir: None,
            fleet_id: format!("fleet-{}", unix_time_ms()),
            auth_token: None,
            point_timeout: Duration::from_secs(120),
            max_point_attempts: 3,
            worker_failure_limit: 2,
            save_every: 1,
        }
    }

    /// Sets the shard strategy.
    #[must_use]
    pub fn with_strategy(mut self, strategy: ShardStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Enables snapshot persistence and resume under `dir`.
    #[must_use]
    pub fn with_snapshot_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.snapshot_dir = Some(dir.into());
        self
    }

    /// Overrides the fleet identifier.
    #[must_use]
    pub fn with_fleet_id(mut self, fleet_id: impl Into<String>) -> Self {
        self.fleet_id = fleet_id.into();
        self
    }

    /// Sets the shared secret presented to remote daemons.
    #[must_use]
    pub fn with_auth_token(mut self, token: impl Into<String>) -> Self {
        self.auth_token = Some(token.into());
        self
    }

    /// Overrides the per-point timeout / remote deadline.
    #[must_use]
    pub fn with_point_timeout(mut self, timeout: Duration) -> Self {
        self.point_timeout = timeout;
        self
    }

    /// Overrides the per-point attempt budget (clamped to at least one).
    #[must_use]
    pub fn with_max_point_attempts(mut self, attempts: usize) -> Self {
        self.max_point_attempts = attempts.max(1);
        self
    }

    /// Overrides the per-shard snapshot interval (clamped to at least one).
    #[must_use]
    pub fn with_save_every(mut self, points: usize) -> Self {
        self.save_every = points.max(1);
        self
    }
}

/// Shared mutable state of one run (behind a mutex; the condvar wakes
/// waiting workers on requeues, completions and aborts).
struct FleetState {
    /// Per-shard queues of point indices not yet completed or claimed.
    pending: Vec<VecDeque<usize>>,
    /// Claimed-but-unfinished points.
    in_flight: usize,
    /// Completed point keys (exactly-once bookkeeping).
    done: HashSet<DsePointKey>,
    /// Completed entries per owning shard.
    shard_entries: Vec<Vec<db_pim::DseEntry>>,
    /// Failed attempts per point index.
    attempts: HashMap<usize, usize>,
    /// First fatal error; set once, aborts every worker.
    aborted: Option<FleetError>,
    fresh: usize,
    reassigned: usize,
    retried: usize,
    worker_points: Vec<usize>,
    worker_retired: Vec<Option<String>>,
    diagnostics: Vec<String>,
    /// Per-point wall-time distribution across every worker (fresh
    /// executions only; adopted snapshot points cost nothing).
    point_latency: dbpim_trace::LatencyHistogram,
}

impl FleetState {
    /// Claims the next point for `worker`: its own shard first, then the
    /// largest remaining backlog (straggler reassignment). Returns the
    /// point index, its owning shard and whether it was stolen.
    fn claim(&mut self, worker: usize) -> Option<(usize, usize, bool)> {
        if let Some(point) = self.pending.get_mut(worker).and_then(VecDeque::pop_front) {
            return Some((point, worker, false));
        }
        let victim = (0..self.pending.len())
            .filter(|&s| !self.pending[s].is_empty())
            .max_by_key(|&s| (self.pending[s].len(), usize::MAX - s))?;
        let point = self.pending[victim].pop_front().expect("victim shard is non-empty");
        Some((point, victim, true))
    }
}

/// A progress callback (called from worker threads).
type FleetObserver = Box<dyn Fn(&FleetEvent) + Send + Sync>;

/// The orchestrator. See the [module docs](self) for the lifecycle.
pub struct FleetDriver {
    config: FleetConfig,
    observer: Option<FleetObserver>,
}

impl FleetDriver {
    /// Creates a driver.
    #[must_use]
    pub fn new(config: FleetConfig) -> Self {
        Self { config, observer: None }
    }

    /// Registers a progress observer (called from worker threads).
    #[must_use]
    pub fn with_observer(mut self, observer: impl Fn(&FleetEvent) + Send + Sync + 'static) -> Self {
        self.observer = Some(Box::new(observer));
        self
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    fn emit(&self, event: &FleetEvent) {
        if let Some(observer) = &self.observer {
            observer(event);
        }
    }

    /// Runs (or resumes) the fleet over `spec` and returns the merged
    /// report with run statistics.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Spec`] for unusable specs/configurations,
    /// [`FleetError::SnapshotSpecMismatch`] when the snapshot directory
    /// holds a foreign shard, [`FleetError::PointFailed`] when a point
    /// exhausts its attempts, [`FleetError::Stalled`] when every worker
    /// retires early, and [`FleetError::Persist`] when final snapshots
    /// cannot be written.
    #[allow(clippy::too_many_lines)]
    pub fn run(&self, spec: &DseSpec) -> Result<FleetOutcome, FleetError> {
        if self.config.workers.is_empty() {
            return Err(FleetError::NoWorkers);
        }
        self.config.pipeline.validate().map_err(FleetError::Spec)?;
        let points = spec
            .points(self.config.pipeline.operand_width, self.config.pipeline.pruning)
            .map_err(FleetError::Spec)?;
        let _span = dbpim_trace::span!(
            "fleet.run",
            fleet = self.config.fleet_id,
            points = points.len(),
            workers = self.config.workers.len(),
        );
        let plan = ShardPlan::partition(&points, self.config.workers.len(), self.config.strategy);
        let owners = plan.owners();
        let key_to_index: HashMap<DsePointKey, usize> =
            points.iter().enumerate().map(|(i, p)| (p.canonical_key(), i)).collect();

        let context = JobContext {
            sparsity: spec.sparsity.clone(),
            unique_sparsity: spec.axes().unique_sparsity(),
            fidelity: spec.fidelity,
            fleet: self.config.fleet_id.clone(),
            shards: plan.shards.len(),
        };

        let mut state = FleetState {
            pending: vec![VecDeque::new(); plan.shards.len()],
            in_flight: 0,
            done: HashSet::new(),
            shard_entries: vec![Vec::new(); plan.shards.len()],
            attempts: HashMap::new(),
            aborted: None,
            fresh: 0,
            reassigned: 0,
            retried: 0,
            worker_points: vec![0; self.config.workers.len()],
            worker_retired: vec![None; self.config.workers.len()],
            diagnostics: Vec::new(),
            point_latency: dbpim_trace::LatencyHistogram::new(),
        };

        // Adopt whatever previous shard snapshots already computed. Entries
        // are re-homed into the *current* plan's shards, so resuming with a
        // different worker count (or strategy) still reuses every point.
        if let Some(dir) = &self.config.snapshot_dir {
            std::fs::create_dir_all(dir).map_err(|e| {
                FleetError::Persist(PipelineError::BadConfig {
                    reason: format!("cannot create snapshot dir {}: {e}", dir.display()),
                })
            })?;
            for path in shard_snapshot_files(dir) {
                match DseReport::load(&path) {
                    Err(e) => {
                        let reason = e.to_string();
                        state
                            .diagnostics
                            .push(format!("skipped snapshot {}: {reason}", path.display()));
                        self.emit(&FleetEvent::SnapshotSkipped { path, reason });
                    }
                    Ok(report) if report.spec != *spec => {
                        return Err(FleetError::SnapshotSpecMismatch { path });
                    }
                    Ok(report) => {
                        for entry in report.entries {
                            let key = entry.canonical_key();
                            let Some(&index) = key_to_index.get(&key) else { continue };
                            if state.done.insert(key) {
                                state.shard_entries[owners[index]].push(entry);
                            }
                        }
                    }
                }
            }
        }
        let resumed = state.done.len();
        for shard in &plan.shards {
            for &point in &shard.points {
                if !state.done.contains(&points[point].canonical_key()) {
                    state.pending[shard.id].push_back(point);
                }
            }
        }

        // One warm in-process runner shared by every local worker: the
        // session layer's single-flight cache means N local workers build
        // each (model, width) artifact set exactly once between them.
        let local_runner: Option<Arc<BatchRunner>> =
            if self.config.workers.contains(&WorkerSpec::Local) {
                Some(Arc::new(BatchRunner::new(self.config.pipeline).map_err(FleetError::Spec)?))
            } else {
                None
            };

        let shard_sizes: Vec<usize> = plan.shards.iter().map(|s| s.points.len()).collect();
        let sync = (Mutex::new(state), Condvar::new());
        // Per-shard snapshot serialization: each slot holds the entry count
        // of the newest snapshot written for that shard. Saves happen
        // outside the fleet-state lock, so without this two workers
        // completing points of one shard could persist out of order and
        // leave a *stale* snapshot on disk — costing a resumed run
        // already-completed points.
        let save_versions: Vec<Mutex<usize>> = plan.shards.iter().map(|_| Mutex::new(0)).collect();
        let start = Instant::now();

        std::thread::scope(|scope| {
            for (worker, worker_spec) in self.config.workers.iter().enumerate() {
                let sync = &sync;
                let context = &context;
                let points = &points;
                let owners = &owners;
                let shard_sizes = &shard_sizes;
                let save_versions = &save_versions;
                let local_runner = local_runner.clone();
                scope.spawn(move || {
                    self.worker_loop(
                        worker,
                        worker_spec,
                        local_runner,
                        sync,
                        context,
                        points,
                        owners,
                        shard_sizes,
                        save_versions,
                        spec,
                    );
                });
            }
        });

        let state = sync.0.into_inner().expect("no worker panicked with the state lock");
        if let Some(error) = state.aborted {
            return Err(error);
        }
        if state.done.len() < points.len() {
            return Err(FleetError::Stalled {
                completed: state.done.len(),
                total: points.len(),
                diagnostics: state.diagnostics,
            });
        }

        // Final authoritative snapshots, then the spec-checked dedup merge.
        let mut merged = DseReport::empty(spec.clone(), points.len());
        for shard in &plan.shards {
            let report = shard_report(spec, points.len(), &state.shard_entries[shard.id]);
            if let Some(dir) = &self.config.snapshot_dir {
                report.save(shard_snapshot_path(dir, shard.id)).map_err(FleetError::Persist)?;
            }
            merged = merged.merge(report).map_err(FleetError::Spec)?;
        }
        merged.fresh_points = state.fresh;
        merged.wall_time = start.elapsed();
        merged.saved_at_ms = unix_time_ms();
        if let Some(dir) = &self.config.snapshot_dir {
            merged.save(dir.join("merged.json")).map_err(FleetError::Persist)?;
        }

        // Exactly-once verification: the merge must cover every point of
        // the spec, once.
        let merged_keys: HashSet<DsePointKey> =
            merged.entries.iter().map(db_pim::DseEntry::canonical_key).collect();
        if merged.entries.len() != points.len()
            || merged_keys.len() != points.len()
            || !points.iter().all(|p| merged_keys.contains(&p.canonical_key()))
        {
            return Err(FleetError::Incomplete {
                merged: merged.entries.len(),
                total: points.len(),
            });
        }

        let stats = FleetStats {
            workers: self
                .config
                .workers
                .iter()
                .enumerate()
                .map(|(w, spec)| WorkerStats {
                    label: spec.to_string(),
                    points: state.worker_points[w],
                    retired: state.worker_retired[w].clone(),
                })
                .collect(),
            resumed_points: resumed,
            fresh_points: state.fresh,
            reassigned_points: state.reassigned,
            retried_attempts: state.retried,
            diagnostics: state.diagnostics,
            point_latency: state.point_latency,
        };
        Ok(FleetOutcome { report: merged, stats })
    }

    /// One worker's life: initialize a backend, then claim–execute–report
    /// until the run completes, aborts, or the worker retires.
    #[allow(clippy::too_many_arguments)]
    fn worker_loop(
        &self,
        worker: usize,
        worker_spec: &WorkerSpec,
        local_runner: Option<Arc<BatchRunner>>,
        sync: &(Mutex<FleetState>, Condvar),
        context: &JobContext,
        points: &[DsePoint],
        owners: &[usize],
        shard_sizes: &[usize],
        save_versions: &[Mutex<usize>],
        spec: &DseSpec,
    ) {
        let (mutex, cv) = sync;
        let label = worker_spec.to_string();
        let _span = dbpim_trace::span!("fleet.worker", worker = worker, backend = label);
        let retire = |reason: String| {
            let mut state = mutex.lock().expect("fleet state lock");
            state.diagnostics.push(format!("worker {worker} ({label}) retired: {reason}"));
            state.worker_retired[worker] = Some(reason.clone());
            drop(state);
            cv.notify_all();
            self.emit(&FleetEvent::WorkerRetired { worker, label: label.clone(), reason });
        };

        let mut executor: Box<dyn PointExecutor> = match worker_spec {
            WorkerSpec::Local => Box::new(LocalExecutor {
                runner: local_runner.expect("a local worker implies a shared runner"),
            }),
            WorkerSpec::Remote(addr) => {
                let mut remote = RemoteExecutor::new(
                    addr.clone(),
                    self.config.point_timeout,
                    self.config.auth_token.clone(),
                );
                // Fail fast on an endpoint that was never alive: the
                // heartbeat is a connect + version-checked ping.
                if let Err(reason) = remote.heartbeat() {
                    retire(reason);
                    return;
                }
                Box::new(remote)
            }
        };
        self.emit(&FleetEvent::WorkerReady { worker, label: label.clone() });

        let mut consecutive_failures = 0usize;
        loop {
            // Claim the next point (or learn that the run is over).
            let claimed = {
                let mut state = mutex.lock().expect("fleet state lock");
                loop {
                    if state.aborted.is_some() {
                        return;
                    }
                    if let Some((point, shard, stolen)) = state.claim(worker) {
                        state.in_flight += 1;
                        if stolen {
                            state.reassigned += 1;
                        }
                        break Some((point, shard, stolen));
                    }
                    if state.in_flight == 0 {
                        // Nothing pending, nothing running: the run is done
                        // (or stalled — the driver decides after the join).
                        cv.notify_all();
                        break None;
                    }
                    let (next, _timeout) = cv
                        .wait_timeout(state, Duration::from_millis(100))
                        .expect("fleet state lock");
                    state = next;
                }
            };
            let Some((point_index, shard, stolen)) = claimed else { return };

            let job =
                PointJob { point: points[point_index], shard, shard_points: shard_sizes[shard] };
            let point = point_label(&job.point);
            let point_span = dbpim_trace::span!(
                "fleet.point",
                worker = worker,
                shard = shard,
                point = point,
                model = job.point.kind.name(),
                stolen = stolen,
            );
            // With a collector installed the open span's id becomes the
            // parent of whatever the executor does remotely; without one
            // there is no context and wire requests stay byte-identical
            // to their untraced form.
            let trace = point_span.id().map(|id| dbpim_serve::TraceContext {
                fleet: context.fleet.clone(),
                point: point.clone(),
                parent_span: id,
            });
            let point_start = Instant::now();
            let executed = executor.run(&job, context, trace);
            let point_elapsed = point_start.elapsed();
            drop(point_span);
            match executed {
                Ok(entry) => {
                    consecutive_failures = 0;
                    let owner = owners[point_index];
                    let (completed, total, snapshot) = {
                        let mut state = mutex.lock().expect("fleet state lock");
                        state.in_flight -= 1;
                        state.point_latency.record(point_elapsed);
                        if state.done.insert(entry.canonical_key()) {
                            state.shard_entries[owner].push(entry);
                            state.fresh += 1;
                            state.worker_points[worker] += 1;
                        }
                        let snapshot = self
                            .config
                            .snapshot_dir
                            .as_ref()
                            .map(|dir| (dir.clone(), state.shard_entries[owner].clone()));
                        (state.done.len(), points.len(), snapshot)
                    };
                    cv.notify_all();
                    self.emit(&FleetEvent::PointDone { worker, shard, stolen, completed, total });
                    if let Some((dir, entries)) = snapshot {
                        // Serialize saves per shard and skip stale or
                        // too-frequent ones: a concurrent completer may
                        // already have persisted a superset of this clone
                        // (shard entry lists only grow, so the count is a
                        // valid version), and `save_every` bounds how often
                        // the whole shard is reserialized.
                        let mut saved = save_versions[owner].lock().expect("shard save lock");
                        if entries.len() >= *saved + self.config.save_every {
                            let report = shard_report(spec, total, &entries);
                            match report.save(shard_snapshot_path(&dir, owner)) {
                                Ok(()) => *saved = entries.len(),
                                Err(e) => {
                                    let mut state = mutex.lock().expect("fleet state lock");
                                    state
                                        .diagnostics
                                        .push(format!("shard {owner} snapshot save failed: {e}"));
                                }
                            }
                        }
                    }
                }
                Err(error) => {
                    let attempt = {
                        let mut state = mutex.lock().expect("fleet state lock");
                        state.in_flight -= 1;
                        state.retried += 1;
                        let attempts = state.attempts.entry(point_index).or_insert(0);
                        *attempts += 1;
                        let attempt = *attempts;
                        if attempt >= self.config.max_point_attempts {
                            let point = points[point_index];
                            state.aborted = Some(FleetError::PointFailed {
                                point: format!(
                                    "{} @ {} on {} macros x {} rows",
                                    point.kind.name(),
                                    point.width,
                                    point.arch.macros,
                                    point.arch.rows_per_dbmu
                                ),
                                attempts: attempt,
                                last_error: error.clone(),
                            });
                        } else {
                            // Requeue at the front of the owning shard so an
                            // idle worker picks it up before fresh work.
                            state.pending[owners[point_index]].push_front(point_index);
                        }
                        attempt
                    };
                    cv.notify_all();
                    self.emit(&FleetEvent::PointRetried {
                        worker,
                        shard,
                        attempt,
                        error: error.clone(),
                    });
                    consecutive_failures += 1;
                    if consecutive_failures >= self.config.worker_failure_limit {
                        match executor.heartbeat() {
                            Ok(()) => consecutive_failures = 0,
                            Err(reason) => {
                                retire(format!(
                                    "heartbeat failed after {consecutive_failures} consecutive \
                                     errors (last point error: {error}): {reason}"
                                ));
                                return;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Human-readable identity of one DSE point — the `point` field of
/// propagated trace contexts and `fleet.point` spans (a label for
/// correlation, not the exactly-once bookkeeping key).
fn point_label(point: &DsePoint) -> String {
    format!(
        "{}/{}@{}x{}",
        point.kind.name(),
        point.width,
        point.arch.macros,
        point.arch.rows_per_dbmu
    )
}

/// A shard's persisted report: the full spec, the shard's entries (sorted
/// into canonical order), and the spec-wide total so completeness is
/// judged against the whole exploration.
fn shard_report(spec: &DseSpec, total_points: usize, entries: &[db_pim::DseEntry]) -> DseReport {
    let mut report = DseReport::empty(spec.clone(), total_points);
    report.entries = entries.to_vec();
    report.fresh_points = report.entries.len();
    report.saved_at_ms = unix_time_ms();
    report.sort_canonical();
    report
}

/// `dir/shard-NNN.json`.
fn shard_snapshot_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:03}.json"))
}

/// Every `shard-*.json` in `dir`, name-sorted for deterministic adoption
/// and diagnostics order.
fn shard_snapshot_files(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else { return Vec::new() };
    let mut files: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("shard-") && n.ends_with(".json"))
        })
        .collect();
    files.sort();
    files
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_rosters_are_rejected() {
        let config = FleetConfig::new(PipelineConfig::fast(), Vec::new());
        let spec = DseSpec::new(
            dbpim_sim::ArchGrid::around(dbpim_arch::ArchConfig::paper()),
            vec![dbpim_nn::ModelKind::AlexNet],
        );
        let err = FleetDriver::new(config).run(&spec).unwrap_err();
        assert!(matches!(err, FleetError::NoWorkers), "{err}");
    }

    #[test]
    fn snapshot_paths_are_stable() {
        let dir = Path::new("/tmp/fleet");
        assert_eq!(shard_snapshot_path(dir, 7), Path::new("/tmp/fleet/shard-007.json"));
    }

    #[test]
    fn config_defaults_are_sane() {
        let config = FleetConfig::new(PipelineConfig::fast(), vec![WorkerSpec::Local]);
        assert_eq!(config.strategy, ShardStrategy::RoundRobin);
        assert_eq!(config.max_point_attempts, 3);
        assert!(config.fleet_id.starts_with("fleet-"));
        assert_eq!(config.clone().with_max_point_attempts(0).max_point_attempts, 1);
    }
}
