//! Fleet workers: where a claimed DSE point actually executes.
//!
//! A worker is either **local** — an in-process session sharing one warm
//! [`BatchRunner`] cache with every other local worker — or **remote** — a
//! blocking [`Client`] connection to a `dbpim-serve` daemon, dispatching
//! each point as a single-point `Explore` stream tagged with its shard so
//! the daemon's `ShardStatus` registry tracks fleet progress.
//!
//! Both backends run the exact same `run_point` pipeline underneath, so a
//! point's result is bit-identical no matter which worker computes it —
//! the property that makes straggler reassignment and retry safe.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use db_pim::{BatchRunner, DseEntry, DsePoint, DseSpec};
use dbpim_serve::{Client, ShardAnnotation, TraceContext};
use dbpim_sim::{ArchGrid, SparsityConfig};

/// Where one fleet worker executes its points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerSpec {
    /// In-process, against a shared warm [`BatchRunner`].
    Local,
    /// Against the `dbpim-serve` daemon at this `host:port` endpoint. The
    /// daemon must run the *same pipeline configuration* as the fleet
    /// (seed, width multiplier, classes, calibration/evaluation images) —
    /// the fleet's bit-identity guarantee is only as good as that match.
    Remote(String),
}

impl fmt::Display for WorkerSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkerSpec::Local => f.write_str("local"),
            WorkerSpec::Remote(addr) => write!(f, "remote({addr})"),
        }
    }
}

/// One claimed unit of work: a point plus its owning shard's identity (the
/// shard tag remote requests carry).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PointJob {
    pub point: DsePoint,
    pub shard: usize,
    pub shard_points: usize,
}

/// The spec-derived context every executor shares.
#[derive(Debug, Clone)]
pub(crate) struct JobContext {
    /// The raw sparsity request of the fleet spec (ordering preserved so a
    /// remote single-point spec equals the local one field-for-field).
    pub sparsity: Vec<SparsityConfig>,
    /// Canonicalized sparsity list local `run_point` calls use.
    pub unique_sparsity: Vec<SparsityConfig>,
    pub fidelity: bool,
    pub fleet: String,
    pub shards: usize,
}

/// A point-execution backend. Errors are strings: the driver's retry /
/// retire logic only needs a diagnostic, and the underlying error types
/// (pipeline vs. client) do not unify.
pub(crate) trait PointExecutor {
    /// Executes one point. An `Err` marks the attempt failed; the driver
    /// requeues the point and decides the worker's fate. The trace context
    /// (present only while a collector is installed) identifies the
    /// driver-side `fleet.point` span; remote backends propagate it on the
    /// wire so the daemon's `serve.request` span nests under it in a
    /// merged fleet trace.
    fn run(
        &mut self,
        job: &PointJob,
        context: &JobContext,
        trace: Option<TraceContext>,
    ) -> Result<DseEntry, String>;

    /// Cheap liveness probe after failures: `Ok` lets the worker keep
    /// claiming points, `Err` retires it.
    fn heartbeat(&mut self) -> Result<(), String>;
}

/// In-process execution on the shared warm runner.
pub(crate) struct LocalExecutor {
    pub runner: Arc<BatchRunner>,
}

impl PointExecutor for LocalExecutor {
    fn run(
        &mut self,
        job: &PointJob,
        context: &JobContext,
        // In-process execution already happens *inside* the driver's
        // fleet.point span; there is nothing to propagate.
        _trace: Option<TraceContext>,
    ) -> Result<DseEntry, String> {
        let point = job.point;
        self.runner
            .run_point_pruned(
                point.kind,
                point.width,
                point.pruning,
                Some(point.arch),
                &context.unique_sparsity,
                context.fidelity,
            )
            .map(DseEntry::from_sweep)
            .map_err(|e| e.to_string())
    }

    fn heartbeat(&mut self) -> Result<(), String> {
        // An in-process session cannot go away.
        Ok(())
    }
}

/// Execution over a serve-daemon connection, one single-point `Explore`
/// stream per job. The connection is rebuilt lazily after failures, and a
/// response timeout bounds how long a wedged daemon can stall the worker —
/// that timeout *is* the fleet's failure detector for remote workers.
pub(crate) struct RemoteExecutor {
    addr: String,
    timeout: Duration,
    auth_token: Option<String>,
    client: Option<Client>,
}

impl RemoteExecutor {
    pub fn new(addr: String, timeout: Duration, auth_token: Option<String>) -> Self {
        Self { addr, timeout, auth_token, client: None }
    }

    /// The live connection, (re)established, version-checked and — when the
    /// fleet carries a token — authenticated on demand. Open daemons accept
    /// any token, so presenting one is always safe; a daemon *requiring*
    /// auth rejects every work request until the handshake lands, which is
    /// why it happens here, inside the reconnect path, and not once at
    /// startup.
    fn client(&mut self) -> Result<&mut Client, String> {
        if self.client.is_none() {
            let mut client = Client::connect_timeout(self.addr.as_str(), self.timeout)
                .map_err(|e| format!("connect to {}: {e}", self.addr))?;
            client
                .set_response_timeout(Some(self.timeout))
                .map_err(|e| format!("configure {}: {e}", self.addr))?;
            client.ping().map_err(|e| format!("ping {}: {e}", self.addr))?;
            if let Some(token) = &self.auth_token {
                client.authenticate(token).map_err(|e| format!("auth {}: {e}", self.addr))?;
            }
            self.client = Some(client);
        }
        Ok(self.client.as_mut().expect("just ensured"))
    }

    /// The degenerate one-point spec for `job`: its geometry as an unswept
    /// grid, its model and width pinned, the fleet's sparsity/fidelity
    /// settings verbatim. The daemon runs it through the same `run_point`
    /// path a local worker uses.
    fn single_point_spec(job: &PointJob, context: &JobContext) -> DseSpec {
        DseSpec {
            grid: ArchGrid::around(job.point.arch),
            models: vec![job.point.kind],
            sparsity: context.sparsity.clone(),
            widths: vec![job.point.width],
            // An identity spec travels as an empty axis, keeping the wire
            // request byte-identical to pre-pruning daemons' expectations.
            pruning: if job.point.pruning.is_active() {
                vec![job.point.pruning]
            } else {
                Vec::new()
            },
            fidelity: context.fidelity,
        }
    }
}

impl PointExecutor for RemoteExecutor {
    fn run(
        &mut self,
        job: &PointJob,
        context: &JobContext,
        trace: Option<TraceContext>,
    ) -> Result<DseEntry, String> {
        let spec = Self::single_point_spec(job, context);
        let annotation = ShardAnnotation {
            fleet: context.fleet.clone(),
            shard: job.shard,
            of: context.shards,
            points: job.shard_points,
        };
        let deadline_ms = u64::try_from(self.timeout.as_millis()).unwrap_or(u64::MAX);
        let addr = self.addr.clone();
        let outcome = self.client()?.explore_streaming(
            &spec,
            Some(deadline_ms),
            Some(annotation),
            trace,
            |_, _| {},
        );
        match outcome {
            Ok(mut report) if report.entries.len() == 1 => {
                Ok(report.entries.pop().expect("length checked"))
            }
            Ok(report) => {
                // A daemon answering a 1-point spec with anything else is
                // not speaking our dialect; drop the connection.
                self.client = None;
                Err(format!(
                    "{addr} answered a single-point exploration with {} entries",
                    report.entries.len()
                ))
            }
            Err(e) => {
                // Any failure invalidates the connection (a timeout leaves
                // the stream in an unknown position); reconnect on the next
                // attempt.
                self.client = None;
                Err(format!("{addr}: {e}"))
            }
        }
    }

    fn heartbeat(&mut self) -> Result<(), String> {
        self.client = None; // force a fresh connect + ping
        self.client().map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use db_pim::PipelineConfig;
    use dbpim_arch::ArchConfig;
    use dbpim_csd::OperandWidth;
    use dbpim_nn::ModelKind;

    #[test]
    fn single_point_specs_pin_exactly_one_point() {
        let point = DsePoint {
            kind: ModelKind::AlexNet,
            width: OperandWidth::Int4,
            pruning: db_pim::PruningSpec::unstructured(0.25),
            arch: ArchConfig::paper(),
        };
        let context = JobContext {
            sparsity: vec![SparsityConfig::HybridSparsity, SparsityConfig::DenseBaseline],
            unique_sparsity: vec![SparsityConfig::DenseBaseline, SparsityConfig::HybridSparsity],
            fidelity: false,
            fleet: "test".to_string(),
            shards: 2,
        };
        let job = PointJob { point, shard: 1, shard_points: 5 };
        let spec = RemoteExecutor::single_point_spec(&job, &context);
        let points = spec
            .points(PipelineConfig::fast().operand_width, db_pim::PruningSpec::none())
            .expect("feasible");
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].kind, point.kind);
        assert_eq!(points[0].width, point.width);
        assert_eq!(points[0].pruning, point.pruning);
        assert_eq!(points[0].arch, point.arch);
        // The raw sparsity request is carried verbatim (the daemon
        // canonicalizes exactly like a local run_point does).
        assert_eq!(spec.sparsity, context.sparsity);
    }

    #[test]
    fn dead_endpoints_fail_with_a_named_address() {
        // A port from the reserved test range nothing listens on.
        let mut executor =
            RemoteExecutor::new("127.0.0.1:9".to_string(), Duration::from_millis(200), None);
        let err = executor.heartbeat().unwrap_err();
        assert!(err.contains("127.0.0.1:9"), "{err}");
    }
}
