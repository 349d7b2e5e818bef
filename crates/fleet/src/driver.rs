//! The fleet driver: claims, executes, retries and journals.
//!
//! [`FleetDriver::run`] turns a [`DseSpec`] into one [`DseReport`] by
//! fanning the spec's points out across N workers:
//!
//! 1. **Plan** — one [`PointQueue`], the plan
//!    [`DseDriver`](db_pim::DseDriver)'s threads claim from too: worker
//!    `w`'s shard is the `w`-th contiguous block of the canonical point
//!    list, earlier blocks taking the remainder (a pure function of the
//!    point and worker counts, so every resume derives the same plan).
//!    Adjacent points usually share a (model, width), so each worker
//!    prepares few artifact sets.
//! 2. **Resume** — with a snapshot directory, the run resumes from and
//!    appends to one [`DseJournal`], `merged.json`, as
//!    [`DseDriver`](db_pim::DseDriver) does with its snapshot: the file is
//!    loaded by [`DseReport::load_journal`] (a torn final record is dropped
//!    with a diagnostic) and rewritten by [`DseJournal::create`] with the
//!    entries it held. A file that cannot be read, answers a *different
//!    spec* or sits beside `shard-*.json` journals of an earlier release is
//!    a hard error, and the directory is left as it was.
//! 3. **Execute** — workers claim points from their own shard first and
//!    *steal* from the largest backlog once their shard drains (straggler
//!    reassignment). A failed attempt requeues the point at the front of
//!    its shard for anyone else; repeated failures trigger a heartbeat and
//!    retire the worker; a point failing
//!    [`FleetConfig::max_point_attempts`] times aborts the run. The worker
//!    that finishes a point appends it to the journal as one line
//!    ([`DseJournal::append`]), so a killed fleet resumes with at most the
//!    in-flight points lost.
//! 4. **Verify** — the adopted and fresh entries, in canonical order, must
//!    cover every point exactly once; the report is then bit-identical
//!    (timestamps aside) to a single `DseDriver` run —
//!    `tests/fleet_sharding.rs` asserts exactly that.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use db_pim::dse::{unix_time_ms, PointQueue};
use db_pim::session::par::lock_unpoisoned;
use db_pim::{
    BatchRunner, DseEntry, DseJournal, DsePoint, DsePointKey, DseReport, DseSpec, PipelineConfig,
    PipelineError,
};

use crate::worker::{
    JobContext, LocalExecutor, PointExecutor, PointJob, RemoteExecutor, WorkerSpec,
};

/// The snapshot journal's file name inside the snapshot directory.
const JOURNAL_FILE: &str = "merged.json";

/// A fleet-level failure.
#[derive(Debug)]
pub enum FleetError {
    /// The spec or pipeline configuration is unusable.
    Spec(PipelineError),
    /// The configuration names no workers.
    NoWorkers,
    /// The snapshot journal answers a different spec; resuming would
    /// silently mix incompatible results.
    SnapshotSpecMismatch {
        /// The journal.
        path: PathBuf,
    },
    /// The snapshot directory holds the per-shard journals of an earlier
    /// release, which this one does not read; resuming beside them would
    /// recompute their points.
    LegacyShardJournals {
        /// The `shard-*.json` files, name-sorted.
        files: Vec<PathBuf>,
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
    /// The snapshot directory or journal could not be read or created.
    Persist(PipelineError),
    /// The report failed its exactly-once coverage check (a bug, not an
    /// operational failure — surfaced loudly instead of returning a
    /// silently short report).
    Incomplete {
        /// Points present in the report.
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
                "fleet snapshot {} answers a different spec; refusing to resume",
                path.display()
            ),
            FleetError::LegacyShardJournals { files } => {
                let files: Vec<String> = files.iter().map(|p| p.display().to_string()).collect();
                write!(
                    f,
                    "the snapshot dir holds shard journals of an earlier release, which this \
                     one does not resume ({}); finish that run with its release or move them \
                     out of the dir",
                    files.join(", ")
                )
            }
            FleetError::PointFailed { point, attempts, last_error } => {
                write!(f, "point {point} failed {attempts} attempts; last error: {last_error}")
            }
            FleetError::Stalled { completed, total, diagnostics } => write!(
                f,
                "fleet stalled at {completed}/{total} points with no live workers ({})",
                diagnostics.join("; ")
            ),
            FleetError::Persist(e) => write!(f, "fleet snapshot: {e}"),
            FleetError::Incomplete { merged, total } => write!(
                f,
                "report covers {merged} of {total} points despite a completed run \
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
    /// Points adopted from the snapshot journal instead of recomputed.
    pub resumed_points: usize,
    /// Points computed fresh this run.
    pub fresh_points: usize,
    /// Points completed by a worker other than their shard's initial owner
    /// (straggler reassignment).
    pub reassigned_points: usize,
    /// Failed attempts that were requeued.
    pub retried_attempts: usize,
    /// Notes on the run: a torn journal record dropped on resume, journal
    /// appends that failed, workers that retired.
    pub diagnostics: Vec<String>,
    /// Wall-time distribution of fresh point executions across every
    /// worker (log₂-bucketed; resumed points are not sampled).
    pub point_latency: dbpim_trace::LatencyHistogram,
}

/// The report plus the run's bookkeeping.
#[derive(Debug)]
pub struct FleetOutcome {
    /// The exactly-once-verified report, in canonical order —
    /// `results_match` a single-driver run of the same spec.
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
    /// The worker roster; worker `w`'s shard is the `w`-th contiguous block
    /// of the spec's canonical point list.
    pub workers: Vec<WorkerSpec>,
    /// Directory of the snapshot journal, `merged.json` (a header line,
    /// then one line appended per finished point); `None` disables
    /// persistence and resume.
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
}

/// Consecutive failures before a worker must pass a heartbeat to keep
/// claiming points.
const WORKER_FAILURE_LIMIT: usize = 2;

impl FleetConfig {
    /// A configuration with the given roster and every knob at its default:
    /// no snapshots, a 120 s point timeout, 3 attempts per point, heartbeat
    /// after 2 consecutive worker failures.
    #[must_use]
    pub fn new(pipeline: PipelineConfig, workers: Vec<WorkerSpec>) -> Self {
        Self {
            pipeline,
            workers,
            snapshot_dir: None,
            fleet_id: format!("fleet-{}", unix_time_ms()),
            auth_token: None,
            point_timeout: Duration::from_secs(120),
            max_point_attempts: 3,
        }
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
}

/// Shared mutable state of one run (behind a mutex; the condvar wakes
/// waiting workers on requeues, completions and aborts).
struct FleetState {
    /// The plan: each shard's point indices not yet completed or claimed.
    queue: PointQueue,
    /// Claimed-but-unfinished points.
    in_flight: usize,
    /// Completed point keys, adopted ones included (exactly-once
    /// bookkeeping).
    done: HashSet<DsePointKey>,
    /// Entries computed this run.
    fresh: Vec<DseEntry>,
    /// Failed attempts per point index.
    attempts: HashMap<usize, usize>,
    /// First fatal error; set once, aborts every worker.
    aborted: Option<FleetError>,
    reassigned: usize,
    retried: usize,
    worker_points: Vec<usize>,
    worker_retired: Vec<Option<String>>,
    diagnostics: Vec<String>,
    /// Per-point wall-time distribution across every worker (fresh
    /// executions only; adopted snapshot points cost nothing).
    point_latency: dbpim_trace::LatencyHistogram,
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

    /// Runs (or resumes) the fleet over `spec` and returns the report with
    /// run statistics.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Spec`] for unusable specs/configurations,
    /// [`FleetError::SnapshotSpecMismatch`] when the snapshot journal
    /// answers another spec, [`FleetError::LegacyShardJournals`] when the
    /// snapshot directory holds an earlier release's shard journals,
    /// [`FleetError::Persist`] when the journal cannot be read or created,
    /// [`FleetError::PointFailed`] when a point exhausts its attempts and
    /// [`FleetError::Stalled`] when every worker retires early.
    pub fn run(&self, spec: &DseSpec) -> Result<FleetOutcome, FleetError> {
        if self.config.workers.is_empty() {
            return Err(FleetError::NoWorkers);
        }
        self.config.pipeline.validate().map_err(FleetError::Spec)?;
        let points = spec
            .points(self.config.pipeline.operand_width, self.config.pipeline.pruning)
            .map_err(FleetError::Spec)?;
        let workers = self.config.workers.len();
        let _span = dbpim_trace::span!(
            "fleet.run",
            fleet = self.config.fleet_id,
            points = points.len(),
            workers = workers,
        );
        let start = Instant::now();
        let mut diagnostics = Vec::new();
        let (mut report, journal) = match &self.config.snapshot_dir {
            Some(dir) => {
                let (report, journal) = resume(dir, spec, &points, &mut diagnostics)?;
                (report, Some(journal))
            }
            None => (DseReport::empty(spec.clone(), points.len()), None),
        };
        let done: HashSet<DsePointKey> =
            report.entries.iter().map(DseEntry::canonical_key).collect();
        let resumed = done.len();
        let queue =
            PointQueue::new(points.len(), workers, |i| !done.contains(&points[i].canonical_key()));

        let context = JobContext {
            sparsity: spec.sparsity.clone(),
            unique_sparsity: spec.unique_sparsity(),
            fidelity: spec.fidelity,
            fleet: self.config.fleet_id.clone(),
            shards: workers,
        };

        // One warm in-process runner shared by every local worker: the
        // session layer's single-flight cache means N local workers build
        // each (model, width) artifact set exactly once between them.
        let local_runner: Option<Arc<BatchRunner>> =
            if self.config.workers.contains(&WorkerSpec::Local) {
                Some(Arc::new(BatchRunner::new(self.config.pipeline).map_err(FleetError::Spec)?))
            } else {
                None
            };

        let state = FleetState {
            queue,
            in_flight: 0,
            done,
            fresh: Vec::new(),
            attempts: HashMap::new(),
            aborted: None,
            reassigned: 0,
            retried: 0,
            worker_points: vec![0; workers],
            worker_retired: vec![None; workers],
            diagnostics,
            point_latency: dbpim_trace::LatencyHistogram::new(),
        };
        let sync = (Mutex::new(state), Condvar::new());

        std::thread::scope(|scope| {
            for (worker, worker_spec) in self.config.workers.iter().enumerate() {
                let sync = &sync;
                let context = &context;
                let points = &points;
                let journal = journal.as_ref();
                let local_runner = local_runner.clone();
                scope.spawn(move || {
                    self.worker_loop(
                        worker,
                        worker_spec,
                        local_runner,
                        sync,
                        context,
                        points,
                        journal,
                    );
                });
            }
        });

        let state = sync.0.into_inner().unwrap_or_else(PoisonError::into_inner);
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

        // The report adds this run's entries to the adopted ones (a journal
        // already holds them all).
        let fresh_points = state.fresh.len();
        report.entries.extend(state.fresh);
        report.sort_canonical();
        report.fresh_points = fresh_points;
        report.wall_time += start.elapsed();

        // Exactly-once verification: the report must cover every point of
        // the spec, once.
        let keys: HashSet<DsePointKey> =
            report.entries.iter().map(DseEntry::canonical_key).collect();
        if report.entries.len() != points.len()
            || keys.len() != points.len()
            || !points.iter().all(|p| keys.contains(&p.canonical_key()))
        {
            return Err(FleetError::Incomplete {
                merged: report.entries.len(),
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
            fresh_points,
            reassigned_points: state.reassigned,
            retried_attempts: state.retried,
            diagnostics: state.diagnostics,
            point_latency: state.point_latency,
        };
        Ok(FleetOutcome { report, stats })
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
        journal: Option<&DseJournal>,
    ) {
        let (mutex, cv) = sync;
        let label = worker_spec.to_string();
        let _span = dbpim_trace::span!("fleet.worker", worker = worker, backend = label);
        let retire = |reason: String| {
            let mut state = lock_unpoisoned(mutex);
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
                let mut state = lock_unpoisoned(mutex);
                loop {
                    if state.aborted.is_some() {
                        return;
                    }
                    if let Some((point, shard)) = state.queue.claim(worker) {
                        state.in_flight += 1;
                        state.reassigned += usize::from(shard != worker);
                        break Some((point, shard, state.queue.block(shard).len()));
                    }
                    if state.in_flight == 0 {
                        // Nothing pending, nothing running: the run is done
                        // (or stalled — the driver decides after the join).
                        cv.notify_all();
                        break None;
                    }
                    let (next, _timeout) = cv
                        .wait_timeout(state, Duration::from_millis(100))
                        .unwrap_or_else(PoisonError::into_inner);
                    state = next;
                }
            };
            let Some((point_index, shard, shard_points)) = claimed else { return };

            let stolen = shard != worker;
            let job = PointJob { point: points[point_index], shard, shard_points };
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
                    // Persist before the point counts as done. A duplicate
                    // completion appends a second line, which loading drops.
                    let persisted = journal.map(|journal| {
                        let _span = dbpim_trace::span!("fleet.persist", shard = shard);
                        journal.append(&entry)
                    });
                    let (completed, total) = {
                        let mut state = lock_unpoisoned(mutex);
                        state.in_flight -= 1;
                        state.point_latency.record(point_elapsed);
                        if let Some(Err(e)) = persisted {
                            state.diagnostics.push(format!("journal append failed: {e}"));
                        }
                        if state.done.insert(entry.canonical_key()) {
                            state.fresh.push(entry);
                            state.worker_points[worker] += 1;
                        }
                        (state.done.len(), points.len())
                    };
                    cv.notify_all();
                    self.emit(&FleetEvent::PointDone { worker, shard, stolen, completed, total });
                }
                Err(error) => {
                    let attempt = {
                        let mut state = lock_unpoisoned(mutex);
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
                            state.queue.requeue(shard, point_index);
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
                    if consecutive_failures >= WORKER_FAILURE_LIMIT {
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

/// The report a run over `points` resumes from and the journal it appends
/// to: `dir/merged.json` loaded when it exists (a torn final record
/// dropped with a diagnostic, entries the points do not name left out),
/// then rewritten to hold the adopted entries. Every refusal happens before
/// the rewrite, so it leaves the file as it was.
fn resume(
    dir: &Path,
    spec: &DseSpec,
    points: &[DsePoint],
    diagnostics: &mut Vec<String>,
) -> Result<(DseReport, DseJournal), FleetError> {
    std::fs::create_dir_all(dir).map_err(|e| {
        FleetError::Persist(PipelineError::BadConfig {
            reason: format!("cannot create snapshot dir {}: {e}", dir.display()),
        })
    })?;
    let legacy = legacy_shard_files(dir);
    if !legacy.is_empty() {
        return Err(FleetError::LegacyShardJournals { files: legacy });
    }
    let path = dir.join(JOURNAL_FILE);
    let mut report = DseReport::empty(spec.clone(), points.len());
    if path.exists() {
        let (loaded, torn) = DseReport::load_journal(&path).map_err(FleetError::Persist)?;
        if loaded.spec != *spec {
            return Err(FleetError::SnapshotSpecMismatch { path });
        }
        if let Some(bytes) = torn {
            diagnostics.push(format!(
                "dropped a torn final record ({bytes} bytes) from {}",
                path.display()
            ));
        }
        let keys: HashSet<DsePointKey> = points.iter().map(DsePoint::canonical_key).collect();
        report = DseReport { total_points: points.len(), fresh_points: 0, ..loaded };
        report.entries.retain(|e| keys.contains(&e.canonical_key()));
    }
    let _span = dbpim_trace::span!("fleet.persist", points = report.entries.len());
    report.saved_at_ms = unix_time_ms();
    let journal = DseJournal::create(path, &report).map_err(FleetError::Persist)?;
    Ok((report, journal))
}

/// `true` for the file name of an earlier release's shard journal.
fn is_legacy_shard_file(name: &str) -> bool {
    name.starts_with("shard-") && name.ends_with(".json")
}

/// Every earlier-release shard journal in `dir`, name-sorted.
fn legacy_shard_files(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else { return Vec::new() };
    let mut files: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.file_name().and_then(|n| n.to_str()).is_some_and(is_legacy_shard_file))
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
        assert_eq!(JOURNAL_FILE, "merged.json");
        assert!(!is_legacy_shard_file(JOURNAL_FILE));
        assert!(is_legacy_shard_file("shard-007.json"));
        assert!(!is_legacy_shard_file("shard-007.tmp"), "a temp file is not a journal");
    }

    #[test]
    fn config_defaults_are_sane() {
        let config = FleetConfig::new(PipelineConfig::fast(), vec![WorkerSpec::Local]);
        assert_eq!(config.snapshot_dir, None);
        assert_eq!(config.max_point_attempts, 3);
        assert!(config.fleet_id.starts_with("fleet-"));
        assert_eq!(config.clone().with_max_point_attempts(0).max_point_attempts, 1);
    }
}
