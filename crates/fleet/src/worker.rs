//! Fleet workers: where a claimed DSE point actually executes.
//!
//! A worker is either **local** — the [`DseDriver`](db_pim::DseDriver)'s
//! in-process executor on the runner every local worker shares — or
//! **remote** — a blocking [`Client`] connection to a `dbpim-serve` daemon,
//! dispatching each point as a single-point `Explore` stream tagged with
//! its shard so the daemon's `ShardStatus` registry tracks fleet progress.
//! Both run the same `run_point` pipeline, so a point's result is
//! bit-identical whichever worker computes it: retries and reassignment
//! are safe.

use std::time::Duration;

use db_pim::dse::{PointError, PointExecutor, PointJob};
use db_pim::{DseEntry, DsePoint, DseSpec, PipelineError, PruningSpec};
use dbpim_serve::{Client, ClientError, ErrorKind, ShardAnnotation, TraceContext};
use dbpim_sim::ArchGrid;

use crate::FleetConfig;

/// Where one fleet worker executes its points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerSpec {
    /// In-process, against a shared warm [`BatchRunner`](db_pim::BatchRunner).
    Local,
    /// Against the `dbpim-serve` daemon at this `host:port` endpoint. The
    /// daemon must run the *same pipeline configuration* as the fleet
    /// (seed, width multiplier, classes, calibration/evaluation images) —
    /// the fleet's bit-identity guarantee is only as good as that match.
    Remote(String),
}

/// A failed exchange with a daemon: what was attempted, and how it failed.
type Failed = (String, ClientError);

/// Execution over a serve-daemon connection, one single-point `Explore`
/// stream per job. The connection is rebuilt lazily after failures, and a
/// response timeout bounds how long a wedged daemon can stall the worker —
/// that timeout *is* the fleet's failure detector for remote workers.
pub(crate) struct RemoteExecutor {
    addr: String,
    fleet: String,
    timeout: Duration,
    auth_token: Option<String>,
    client: Option<Client>,
}

impl RemoteExecutor {
    pub fn new(addr: String, config: &FleetConfig) -> Self {
        Self {
            addr,
            fleet: config.fleet_id.clone(),
            timeout: config.point_timeout,
            auth_token: config.auth_token.clone(),
            client: None,
        }
    }

    /// The live connection, (re)established, version-checked and — when the
    /// fleet carries a token — authenticated on demand. Open daemons accept
    /// any token, so presenting one is always safe; a daemon *requiring*
    /// auth rejects every work request until the handshake lands, which is
    /// why it happens here, inside the reconnect path, and not once at
    /// startup.
    fn client(&mut self) -> Result<&mut Client, Failed> {
        if self.client.is_none() {
            let addr = &self.addr;
            let at = |stage: &'static str| move |e: ClientError| (format!("{stage} {addr}"), e);
            let mut client =
                Client::connect_timeout(addr.as_str(), self.timeout).map_err(at("connect to"))?;
            client.set_response_timeout(Some(self.timeout)).map_err(at("configure"))?;
            client.ping().map_err(at("ping"))?;
            if let Some(token) = &self.auth_token {
                client.authenticate(token).map_err(at("auth"))?;
            }
            self.client = Some(client);
        }
        Ok(self.client.as_mut().expect("just ensured"))
    }

    /// The degenerate one-point spec for `job`: its geometry as an unswept
    /// grid, its model and width pinned, the fleet's sparsity/fidelity
    /// settings verbatim. The daemon runs it through the same `run_point`
    /// path a local worker uses.
    fn single_point_spec(job: &PointJob<'_>) -> DseSpec {
        DseSpec {
            grid: ArchGrid::around(job.point.arch),
            models: vec![job.point.kind],
            sparsity: job.spec.sparsity.clone(),
            widths: vec![job.point.width],
            // An identity spec travels as an empty axis, keeping the wire
            // request byte-identical to pre-pruning daemons' expectations.
            pruning: Some(job.point.pruning).filter(PruningSpec::is_active).into_iter().collect(),
            fidelity: job.spec.fidelity,
        }
    }
}

/// How a failed exchange about `point` counts: IO and protocol failures (a
/// killed daemon reads as `Protocol("server closed the connection")`) and
/// `DeadlineExceeded` or `Overloaded` answers are transient; any other
/// answer refuses or fails the point itself, as it would again.
fn point_error(point: &DsePoint, (context, error): Failed) -> PointError {
    let transient = match &error {
        ClientError::Io(_) | ClientError::Protocol(_) => true,
        ClientError::Server(e) => {
            matches!(e.kind, ErrorKind::DeadlineExceeded | ErrorKind::Overloaded)
        }
    };
    let last_error = format!("{context}: {error}");
    if transient {
        PointError::Transient(last_error)
    } else {
        let point = point.label();
        PointError::Deterministic(PipelineError::PointFailed { point, attempts: 1, last_error })
    }
}

impl PointExecutor for RemoteExecutor {
    fn label(&self) -> String {
        format!("remote({})", self.addr)
    }

    fn heartbeat(&mut self) -> Result<(), String> {
        self.client = None; // force a fresh connect + ping
        self.client().map(|_| ()).map_err(|(context, e)| format!("{context}: {e}"))
    }

    fn run(&mut self, job: &PointJob<'_>) -> Result<DseEntry, PointError> {
        let spec = Self::single_point_spec(job);
        let annotation = ShardAnnotation {
            fleet: self.fleet.clone(),
            shard: job.block,
            of: job.blocks,
            points: job.block_points,
        };
        // With a collector installed the open `dse.point` span becomes the
        // parent of the daemon's `serve.request` span in a merged fleet
        // trace; without one there is no context and wire requests stay
        // byte-identical to their untraced form.
        let trace = job.span.map(|parent_span| TraceContext {
            fleet: self.fleet.clone(),
            point: job.point.label(),
            parent_span,
        });
        let deadline_ms = u64::try_from(self.timeout.as_millis()).unwrap_or(u64::MAX);
        let addr = self.addr.clone();
        let explored = self.client().and_then(|client| {
            client
                .explore_streaming(&spec, Some(deadline_ms), Some(annotation), trace, |_, _| {})
                .map_err(|e| (addr, e))
        });
        match explored {
            Ok(mut report) if report.entries.len() == 1 => {
                Ok(report.entries.pop().expect("length checked"))
            }
            Ok(report) => {
                // A daemon answering a 1-point spec with anything else is
                // not speaking our dialect; drop the connection.
                self.client = None;
                Err(PointError::Transient(format!(
                    "{} answered a single-point exploration with {} entries",
                    self.addr,
                    report.entries.len()
                )))
            }
            Err((context, e)) => {
                // Any failure invalidates the connection (a timeout leaves
                // the stream in an unknown position); reconnect on the next
                // attempt.
                self.client = None;
                Err(point_error(&job.point, (context, e)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    use db_pim::PipelineConfig;
    use dbpim_arch::ArchConfig;
    use dbpim_csd::OperandWidth;
    use dbpim_nn::ModelKind;
    use dbpim_serve::protocol::{write_message, ErrorResponse, Response, PROTOCOL_VERSION};
    use dbpim_sim::SparsityConfig;

    use super::*;

    fn point() -> DsePoint {
        DsePoint {
            kind: ModelKind::AlexNet,
            width: OperandWidth::Int4,
            pruning: db_pim::PruningSpec::unstructured(0.25),
            arch: ArchConfig::paper(),
        }
    }

    fn job<'a>(spec: &'a DseSpec, span: Option<u64>) -> PointJob<'a> {
        PointJob { point: point(), spec, block: 1, blocks: 2, block_points: 5, span }
    }

    #[test]
    fn single_point_specs_pin_exactly_one_point() {
        let spec = DseSpec::new(ArchGrid::around(ArchConfig::paper()), vec![ModelKind::AlexNet])
            .with_sparsity(vec![SparsityConfig::HybridSparsity, SparsityConfig::DenseBaseline]);
        let single = RemoteExecutor::single_point_spec(&job(&spec, None));
        let points = single
            .points(PipelineConfig::fast().operand_width, db_pim::PruningSpec::none())
            .expect("feasible");
        assert_eq!(points.len(), 1);
        assert_eq!(points[0], point());
        // The raw sparsity request is carried verbatim (the daemon
        // canonicalizes exactly like a local run_point does).
        assert_eq!(single.sparsity, spec.sparsity);
    }

    #[test]
    fn dead_endpoints_fail_with_a_named_address() {
        // A port from the reserved test range nothing listens on.
        let config = FleetConfig::new(PipelineConfig::fast(), Vec::new())
            .with_point_timeout(Duration::from_millis(200));
        let mut executor = RemoteExecutor::new("127.0.0.1:9".to_string(), &config);
        let err = executor.heartbeat().unwrap_err();
        assert!(err.contains("127.0.0.1:9"), "{err}");
    }

    /// IO and protocol failures, and a daemon's deadline and overload
    /// answers, are transient; every other answer fails the point at once.
    #[test]
    fn client_errors_map_to_transient_or_deterministic_point_errors() {
        let failed = |error| point_error(&point(), ("ping 127.0.0.1:7641".to_string(), error));
        let server = |kind| ClientError::Server(ErrorResponse { kind, message: "no".to_string() });
        let transient = [
            ClientError::Io(std::io::ErrorKind::TimedOut.into()),
            ClientError::Protocol("server closed the connection".to_string()),
            server(ErrorKind::DeadlineExceeded),
            server(ErrorKind::Overloaded),
        ];
        for error in transient {
            let shown = error.to_string();
            match failed(error) {
                PointError::Transient(reason) => {
                    assert_eq!(reason, format!("ping 127.0.0.1:7641: {shown}"));
                }
                other => panic!("{shown} is transient, got {other:?}"),
            }
        }
        let deterministic = [
            ErrorKind::BadRequest,
            ErrorKind::Pipeline,
            ErrorKind::Unauthorized,
            ErrorKind::FrameTooLarge,
        ];
        for kind in deterministic {
            match failed(server(kind)) {
                PointError::Deterministic(PipelineError::PointFailed {
                    point,
                    attempts,
                    last_error,
                }) => {
                    assert_eq!((point.as_str(), attempts), ("AlexNet/int4/u0.25@4x64", 1));
                    assert!(last_error.starts_with("ping 127.0.0.1:7641: server error"));
                }
                other => panic!("{kind:?} is deterministic, got {other:?}"),
            }
        }
    }

    /// A daemon that dies mid-request closes the connection, which the
    /// client reports as `Protocol("server closed the connection")`: a
    /// transient failure naming the endpoint.
    #[test]
    fn a_daemon_closing_mid_request_is_a_transient_failure() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("bound").to_string();
        // Answers the connect-time ping, then reads the point's request and
        // hangs up, as a killed daemon would.
        let daemon = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accepts");
            let mut writer = stream.try_clone().expect("clones");
            let mut lines = BufReader::new(stream).lines();
            lines.next().expect("a ping").expect("reads");
            let pong = Response::Pong { version: PROTOCOL_VERSION, server_time_micros: None };
            write_message(&mut writer, &pong).expect("answers");
            lines.next().expect("a request").expect("reads");
        });
        let config = FleetConfig::new(PipelineConfig::fast(), Vec::new())
            .with_point_timeout(Duration::from_secs(30));
        let mut executor = RemoteExecutor::new(addr.clone(), &config);
        let spec = DseSpec::new(ArchGrid::around(ArchConfig::paper()), vec![ModelKind::AlexNet]);
        let err = executor.run(&job(&spec, None)).expect_err("the daemon hung up");
        daemon.join().expect("daemon thread");
        match err {
            PointError::Transient(reason) => {
                assert!(reason.starts_with(&addr), "{reason}");
                assert!(
                    reason.ends_with("protocol error: server closed the connection"),
                    "{reason}"
                );
            }
            other => panic!("a closed connection is transient, got {other:?}"),
        }
    }
}
