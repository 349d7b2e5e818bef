//! Blocking client for the `dbpim-serve` daemon.
//!
//! One [`Client`] wraps one TCP connection; every method sends one request
//! line and reads the response line(s), so a client is cheap to keep around
//! for many queries — the daemon's warm cache does the heavy lifting.

use std::fmt;
use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use db_pim::{DseEntry, DseReport, DseSpec, SweepEntry, SweepReport, SweepSpec};
use dbpim_arch::ArchConfig;
use dbpim_csd::OperandWidth;
use dbpim_nn::ModelKind;
use dbpim_sim::SparsityConfig;

use crate::protocol::{
    read_message, write_message, ErrorResponse, Request, Response, ServerStats, ShardAnnotation,
    ShardStatus, TraceContext, WireError, PROTOCOL_VERSION,
};

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed.
    Io(std::io::Error),
    /// The server sent something the client cannot interpret (malformed
    /// line, unexpected response variant, protocol-version mismatch).
    Protocol(String),
    /// The server answered with a structured error.
    Server(ErrorResponse),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Io(io) => ClientError::Io(io),
            WireError::Malformed(m) => ClientError::Protocol(m),
        }
    }
}

/// The query parameters of a [`Client::run_model`] request; the builders
/// mirror the daemon's defaulting (session width / geometry, all four
/// sparsity configurations).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunQuery {
    /// The zoo model to run.
    pub model: ModelKind,
    /// Restrict to one sparsity configuration (`None` = all four).
    pub sparsity: Option<SparsityConfig>,
    /// Operand-width override.
    pub width: Option<OperandWidth>,
    /// Geometry override.
    pub arch: Option<ArchConfig>,
    /// Request the fidelity evaluation.
    pub fidelity: bool,
    /// Server-side deadline in milliseconds (`None` = no deadline); an
    /// expired request is answered with a structured
    /// [`ErrorKind::DeadlineExceeded`](crate::protocol::ErrorKind) error.
    pub deadline_ms: Option<u64>,
}

impl RunQuery {
    /// A query for `model` with every field at the daemon's default.
    #[must_use]
    pub fn new(model: ModelKind) -> Self {
        Self { model, sparsity: None, width: None, arch: None, fidelity: false, deadline_ms: None }
    }

    /// Restricts the query to one sparsity configuration.
    #[must_use]
    pub fn with_sparsity(mut self, sparsity: SparsityConfig) -> Self {
        self.sparsity = Some(sparsity);
        self
    }

    /// Overrides the operand width.
    #[must_use]
    pub fn with_width(mut self, width: OperandWidth) -> Self {
        self.width = Some(width);
        self
    }

    /// Overrides the geometry.
    #[must_use]
    pub fn with_arch(mut self, arch: ArchConfig) -> Self {
        self.arch = Some(arch);
        self
    }

    /// Requests the fidelity evaluation.
    #[must_use]
    pub fn with_fidelity(mut self) -> Self {
        self.fidelity = true;
        self
    }

    /// Sets a server-side deadline in milliseconds.
    #[must_use]
    pub fn with_deadline_ms(mut self, deadline_ms: u64) -> Self {
        self.deadline_ms = Some(deadline_ms);
        self
    }
}

/// A blocking connection to a `dbpim-serve` daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Estimated daemon-clock minus client-clock offset in microseconds,
    /// captured by the last [`Client::ping`] (NTP-style midpoint estimate).
    clock_offset_micros: Option<i64>,
}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone()?;
        Ok(Self { reader: BufReader::new(stream), writer, clock_offset_micros: None })
    }

    /// [`connect`](Self::connect) with a connection timeout (tries every
    /// resolved address before giving up).
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect_timeout(
        addr: impl ToSocketAddrs,
        timeout: Duration,
    ) -> Result<Self, ClientError> {
        let mut last = None;
        for resolved in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&resolved, timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true).ok();
                    let writer = stream.try_clone()?;
                    return Ok(Self {
                        reader: BufReader::new(stream),
                        writer,
                        clock_offset_micros: None,
                    });
                }
                Err(e) => last = Some(e),
            }
        }
        Err(ClientError::Io(
            last.unwrap_or_else(|| {
                std::io::Error::other("address resolved to no socket addresses")
            }),
        ))
    }

    /// Sends one request line.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        write_message(&mut self.writer, request)?;
        Ok(())
    }

    /// Reads one response line; end-of-stream is a protocol error (the
    /// daemon never half-closes mid-exchange).
    ///
    /// # Errors
    ///
    /// Propagates read failures and malformed responses.
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        read_message::<Response>(&mut self.reader)?
            .ok_or_else(|| ClientError::Protocol("server closed the connection".to_string()))
    }

    /// One request, one response.
    fn round_trip(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.send(request)?;
        match self.recv()? {
            Response::Error { error } => Err(ClientError::Server(error)),
            response => Ok(response),
        }
    }

    /// Pings the daemon; checks the protocol version and returns it.
    ///
    /// As a side effect, estimates the daemon's clock offset from the
    /// server timestamp in the pong (NTP-style: the server clock is read
    /// against the midpoint of the request/response interval) and stores
    /// it for [`clock_offset_micros`](Self::clock_offset_micros).
    ///
    /// # Errors
    ///
    /// Fails on connection problems or a version mismatch.
    pub fn ping(&mut self) -> Result<u32, ClientError> {
        let sent = dbpim_trace::unix_micros_now();
        let response = self.round_trip(&Request::Ping)?;
        let received = dbpim_trace::unix_micros_now();
        match response {
            Response::Pong { version, server_time_micros } if version == PROTOCOL_VERSION => {
                if let Some(server) = server_time_micros {
                    let midpoint = i64::try_from(sent / 2 + received / 2).unwrap_or(i64::MAX);
                    let server = i64::try_from(server).unwrap_or(i64::MAX);
                    self.clock_offset_micros = Some(server - midpoint);
                }
                Ok(version)
            }
            Response::Pong { version, .. } => Err(ClientError::Protocol(format!(
                "server speaks protocol v{version}, this client v{PROTOCOL_VERSION}"
            ))),
            other => Err(unexpected("Pong", &other)),
        }
    }

    /// The daemon-clock minus client-clock offset (microseconds) the last
    /// [`ping`](Self::ping) estimated; `None` before any ping. Accuracy is
    /// bounded by half the ping round-trip time — plenty for aligning
    /// millisecond-scale spans in a merged trace, not for profiling the
    /// wire itself.
    #[must_use]
    pub fn clock_offset_micros(&self) -> Option<i64> {
        self.clock_offset_micros
    }

    /// Presents the daemon's shared secret ([`Request::Auth`]). Required
    /// before anything but [`ping`](Self::ping) on a daemon started with
    /// `--auth-token`; harmless (accepted with any token) on an open
    /// daemon, so callers can authenticate unconditionally.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Server`] with an
    /// [`ErrorKind::Unauthorized`](crate::protocol::ErrorKind) payload on a
    /// wrong token (the daemon closes the connection afterwards), and
    /// propagates connection failures.
    pub fn authenticate(&mut self, token: &str) -> Result<(), ClientError> {
        match self.round_trip(&Request::Auth { token: token.to_string() })? {
            Response::AuthOk => Ok(()),
            other => Err(unexpected("AuthOk", &other)),
        }
    }

    /// The zoo models the daemon serves.
    ///
    /// # Errors
    ///
    /// Propagates connection and server failures.
    pub fn list_models(&mut self) -> Result<Vec<ModelKind>, ClientError> {
        match self.round_trip(&Request::ListModels)? {
            Response::Models { models } => Ok(models),
            other => Err(unexpected("Models", &other)),
        }
    }

    /// Runs one model query and returns its entry.
    ///
    /// # Errors
    ///
    /// Propagates connection failures and server-side pipeline errors.
    pub fn run_model(&mut self, query: &RunQuery) -> Result<SweepEntry, ClientError> {
        let request = Request::RunModel {
            model: query.model,
            sparsity: query.sparsity,
            width: query.width,
            arch: query.arch,
            fidelity: query.fidelity,
            deadline_ms: query.deadline_ms,
            trace: None,
        };
        match self.round_trip(&request)? {
            Response::RunResult { entry } => Ok(entry),
            other => Err(unexpected("RunResult", &other)),
        }
    }

    /// Runs a sweep, discarding the stream granularity and returning the
    /// reassembled report.
    ///
    /// # Errors
    ///
    /// Propagates connection failures and server-side pipeline errors.
    pub fn sweep(&mut self, spec: &SweepSpec, fidelity: bool) -> Result<SweepReport, ClientError> {
        self.sweep_streaming(spec, fidelity, None, None, |_, _| {})
    }

    /// Runs a sweep, invoking `on_entry(index, entry)` as each streamed
    /// entry arrives, then returns the reassembled report — entry-for-entry
    /// identical to a local [`db_pim::BatchRunner`] run of the same spec.
    ///
    /// `deadline_ms` asks the daemon to end the stream with a structured
    /// `DeadlineExceeded` error once it elapses. `trace` is the protocol-v5
    /// distributed-tracing context: when present, the daemon opens its
    /// `serve.request` span as a child of the caller's; `None` leaves the
    /// request byte-identical to a v4 one.
    ///
    /// # Errors
    ///
    /// Propagates connection failures and server-side errors (including
    /// the deadline).
    pub fn sweep_streaming(
        &mut self,
        spec: &SweepSpec,
        fidelity: bool,
        deadline_ms: Option<u64>,
        trace: Option<TraceContext>,
        mut on_entry: impl FnMut(usize, &SweepEntry),
    ) -> Result<SweepReport, ClientError> {
        self.send(&Request::Sweep { spec: spec.clone(), fidelity, deadline_ms, trace })?;
        let expected = match self.recv()? {
            Response::SweepStarted { entries } => entries,
            Response::Error { error } => return Err(ClientError::Server(error)),
            other => return Err(unexpected("SweepStarted", &other)),
        };
        let mut entries = Vec::with_capacity(expected);
        loop {
            match self.recv()? {
                Response::SweepPoint { index, entry } => {
                    if index != entries.len() {
                        return Err(ClientError::Protocol(format!(
                            "sweep entries arrived out of order: got {index}, expected {}",
                            entries.len()
                        )));
                    }
                    on_entry(index, &entry);
                    entries.push(entry);
                }
                Response::SweepFinished { prepared_models, simulated_runs, wall_time } => {
                    if entries.len() != expected {
                        return Err(ClientError::Protocol(format!(
                            "sweep finished after {} of {expected} entries",
                            entries.len()
                        )));
                    }
                    return Ok(SweepReport { entries, wall_time, prepared_models, simulated_runs });
                }
                Response::Error { error } => return Err(ClientError::Server(error)),
                other => return Err(unexpected("SweepPoint or SweepFinished", &other)),
            }
        }
    }

    /// Runs a design-space exploration, discarding the stream granularity
    /// and returning the reassembled [`DseReport`].
    ///
    /// # Errors
    ///
    /// Propagates connection failures and server-side pipeline errors
    /// (oversized / infeasible grids, failing points).
    pub fn explore(&mut self, spec: &DseSpec) -> Result<DseReport, ClientError> {
        self.explore_streaming(spec, None, None, None, |_, _| {})
    }

    /// Runs a design-space exploration, invoking `on_entry(index, entry)`
    /// as each streamed grid point arrives, then returns the reassembled
    /// report — entry-for-entry identical (timestamps aside) to a local
    /// [`db_pim::DseDriver`] run of the same spec, which the protocol test
    /// suite asserts via [`DseReport::results_match`].
    ///
    /// `deadline_ms` and `trace` work as in
    /// [`sweep_streaming`](Self::sweep_streaming); a `shard` tag makes the
    /// daemon record the request's progress for
    /// [`shard_statuses`](Self::shard_statuses).
    ///
    /// # Errors
    ///
    /// Propagates connection failures and server-side errors (including
    /// the deadline).
    pub fn explore_streaming(
        &mut self,
        spec: &DseSpec,
        deadline_ms: Option<u64>,
        shard: Option<ShardAnnotation>,
        trace: Option<TraceContext>,
        mut on_entry: impl FnMut(usize, &DseEntry),
    ) -> Result<DseReport, ClientError> {
        self.send(&Request::Explore { spec: Box::new(spec.clone()), deadline_ms, shard, trace })?;
        let expected = match self.recv()? {
            Response::ExploreStarted { total_points } => total_points,
            Response::Error { error } => return Err(ClientError::Server(error)),
            other => return Err(unexpected("ExploreStarted", &other)),
        };
        let mut report = DseReport::empty(spec.clone(), expected);
        loop {
            match self.recv()? {
                Response::ExplorePoint { index, entry } => {
                    if index != report.entries.len() {
                        return Err(ClientError::Protocol(format!(
                            "exploration points arrived out of order: got {index}, expected {}",
                            report.entries.len()
                        )));
                    }
                    on_entry(index, &entry);
                    report.entries.push(entry);
                }
                Response::ExploreFinished { total_points, wall_time } => {
                    if report.entries.len() != expected || total_points != expected {
                        return Err(ClientError::Protocol(format!(
                            "exploration finished after {} of {expected} points",
                            report.entries.len()
                        )));
                    }
                    report.fresh_points = report.entries.len();
                    report.wall_time = wall_time;
                    return Ok(report);
                }
                Response::Error { error } => return Err(ClientError::Server(error)),
                other => return Err(unexpected("ExplorePoint or ExploreFinished", &other)),
            }
        }
    }

    /// Bounds how long [`recv`](Self::recv) (and with it every streaming
    /// call) blocks waiting for the next response line; a daemon that goes
    /// quiet for longer surfaces as a [`ClientError::Io`] timeout instead
    /// of hanging the caller forever. `None` restores unbounded blocking.
    /// The fleet driver uses this as its liveness detector.
    ///
    /// # Errors
    ///
    /// Propagates socket-option failures.
    pub fn set_response_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.reader.get_ref().set_read_timeout(timeout)?;
        Ok(())
    }

    /// Snapshots the daemon's counters.
    ///
    /// # Errors
    ///
    /// Propagates connection and server failures.
    pub fn cache_stats(&mut self) -> Result<ServerStats, ClientError> {
        match self.round_trip(&Request::CacheStats)? {
            Response::Stats { stats } => Ok(stats),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// Snapshots the daemon's full observability surface ([`Request::Stats`]):
    /// request counters, queue depths, rejection counters and the
    /// per-request-type latency histograms.
    ///
    /// # Errors
    ///
    /// Propagates connection and server failures.
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        match self.round_trip(&Request::Stats)? {
            Response::Stats { stats } => Ok(stats),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// The daemon's shard-progress registry (most recently updated first):
    /// one entry per shard-tagged exploration it has served.
    ///
    /// # Errors
    ///
    /// Propagates connection and server failures.
    pub fn shard_statuses(&mut self) -> Result<Vec<ShardStatus>, ClientError> {
        match self.round_trip(&Request::ShardStatus)? {
            Response::ShardStatuses { shards } => Ok(shards),
            other => Err(unexpected("ShardStatuses", &other)),
        }
    }

    /// Drains the daemon's span collector ([`Request::TraceSnapshot`]):
    /// the spans recorded since the previous drain, the drop count, the
    /// daemon's pid and its collector's wall-clock epoch. Empty when the
    /// daemon traces nothing.
    ///
    /// # Errors
    ///
    /// Propagates connection and server failures.
    pub fn trace_snapshot(&mut self) -> Result<dbpim_trace::CollectorSnapshot, ClientError> {
        match self.round_trip(&Request::TraceSnapshot)? {
            Response::TraceSpans { snapshot } => Ok(snapshot),
            other => Err(unexpected("TraceSpans", &other)),
        }
    }

    /// Snapshots the daemon's full metrics registry
    /// ([`Request::MetricsSnapshot`]): every counter, gauge and histogram
    /// by name — the surface `dbpim-cli metrics` renders as Prometheus
    /// text.
    ///
    /// # Errors
    ///
    /// Propagates connection and server failures.
    pub fn metrics_snapshot(&mut self) -> Result<dbpim_trace::MetricsSnapshot, ClientError> {
        match self.round_trip(&Request::MetricsSnapshot)? {
            Response::Metrics { metrics } => Ok(metrics),
            other => Err(unexpected("Metrics", &other)),
        }
    }

    /// Asks the daemon to exit; returns once the shutdown is acknowledged.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.round_trip(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected("ShuttingDown", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> ClientError {
    ClientError::Protocol(format!("expected {wanted}, got {got:?}"))
}
