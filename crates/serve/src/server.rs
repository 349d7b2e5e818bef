//! The sweep-serving daemon.
//!
//! A [`Server`] owns one [`BatchRunner`] — and through it one warm
//! [`db_pim::SimSession`] artifact cache keyed on (model, width, pruning) —
//! and serves the [`protocol`](crate::protocol) over TCP. Connections are
//! dispatched to a fixed worker pool; every worker answers requests against
//! the *same* shared session cache, so N clients asking for the same
//! (model, width) trigger exactly one artifact preparation (the session
//! layer's single-flight guarantee) and every later request is served warm.
//!
//! Explorations stream: each (model, width, pruning, geometry) point is
//! written to the client as soon as it is computed, so a long exploration
//! delivers its first results while the rest are still simulating. The
//! daemon keeps no record of whose exploration it served: a fleet's
//! progress is the fleet's journal, and an `Explore`'s shard tag is parsed
//! and ignored.
//!
//! The daemon is production-hardened along three axes:
//!
//! * **Admission control** — the acceptor rejects (with a structured
//!   [`ErrorKind::Overloaded`] answer) rather than queues once every worker
//!   is busy and the pending backlog reaches
//!   [`ServeConfig::max_pending_connections`], or when one client IP
//!   exceeds [`ServeConfig::max_connections_per_client`]. Load shedding at
//!   the door keeps tail latency bounded instead of letting the queue grow
//!   without bound.
//! * **Auth** — with [`ServeConfig::auth_token`] set, connections must
//!   present the shared secret ([`Request::Auth`]) before anything but
//!   `Ping`; wrong tokens are answered [`ErrorKind::Unauthorized`] and
//!   disconnected.
//! * **Bounded framing** — request lines are read through a byte-level
//!   frame reader that enforces [`ServeConfig::max_frame_bytes`]
//!   ([`ErrorKind::FrameTooLarge`] + close instead of unbounded
//!   accumulation) and keeps partial frames deterministically attached to
//!   the frame they belong to across read timeouts.
//!
//! Every request type's handling latency is recorded into a log₂
//! [`LatencyHistogram`] and exposed — together with queue depths and
//! rejection counters — through [`Request::Stats`]. Those counters are the
//! daemon's one record of what it served: `dbpim-cli stats` prints the
//! [`ServerStats`] answer and `dbpim-cli metrics` prints its
//! [`ServerStats::render_prometheus`] rendering.
//!
//! The daemon installs no trace collector of its own. Each request is a
//! `serve.request` span in whatever collector the process has installed:
//! `dbpim-served --trace-out` installs one through the shared trace flags,
//! and an embedding process, such as a test, installs its own.
//! [`Request::TraceSnapshot`] drains that collector over the wire.

use std::collections::HashMap;
use std::io::Read;
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use db_pim::session::par::lock_unpoisoned;
use db_pim::{BatchRunner, DseEntry, DseSpec, LatencyHistogram, PipelineConfig, PipelineError};
use dbpim_nn::ModelKind;
use dbpim_sim::SparsityConfig;
use dbpim_trace::{log_debug, log_info, log_warn};

use crate::protocol::{
    encode_message, write_frame, write_message, ErrorKind, ErrorResponse, Request, RequestLatency,
    Response, ServerStats, PROTOCOL_VERSION,
};

/// Request variant names, in the order [`Counters::latency`] indexes them
/// (see [`request_type_index`]).
const REQUEST_TYPES: [&str; 8] =
    ["Ping", "Auth", "ListModels", "RunModel", "Explore", "Stats", "TraceSnapshot", "Shutdown"];

/// The [`Counters::latency`] slot of one request variant.
fn request_type_index(request: &Request) -> usize {
    match request {
        Request::Ping => 0,
        Request::Auth { .. } => 1,
        Request::ListModels => 2,
        Request::RunModel { .. } => 3,
        Request::Explore { .. } => 4,
        Request::Stats => 5,
        Request::TraceSnapshot => 6,
        Request::Shutdown => 7,
    }
}

/// What [`Request::Stats`] reports beside the cache statistics and the
/// uptime, under the [`ServerStats`] field names.
#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    errors: AtomicU64,
    connections: AtomicU64,
    rejected_overloaded: AtomicU64,
    rejected_unauthorized: AtomicU64,
    rejected_frames: AtomicU64,
    active_connections: AtomicU64,
    queued_connections: AtomicU64,
    /// One handling-time histogram per [`REQUEST_TYPES`] entry.
    latency: Mutex<[LatencyHistogram; REQUEST_TYPES.len()]>,
}

/// Adds one to `counter` and returns the new count. A counter publishes no
/// other data, so `Relaxed` suffices here and in every read of one.
fn bump(counter: &AtomicU64) -> u64 {
    counter.fetch_add(1, Ordering::Relaxed) + 1
}

/// A server-side request deadline, armed from a request's `deadline_ms`.
#[derive(Debug, Clone, Copy)]
struct Deadline {
    expires: Option<Instant>,
}

impl Deadline {
    fn new(deadline_ms: Option<u64>) -> Self {
        Self {
            expires: deadline_ms
                .map(|ms| Instant::now() + Duration::from_millis(ms.min(u64::from(u32::MAX)))),
        }
    }

    fn expired(&self) -> bool {
        self.expires.is_some_and(|at| Instant::now() >= at)
    }

    fn error(context: &str) -> Response {
        error_response(ErrorKind::DeadlineExceeded, format!("{context} exceeded its deadline"))
    }
}

/// Builds a structured [`Response::Error`].
fn error_response(kind: ErrorKind, message: String) -> Response {
    Response::Error { error: ErrorResponse { kind, message } }
}

/// Configuration of a serving daemon.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind (e.g. `"127.0.0.1:7531"`; port `0` picks a free one).
    pub addr: String,
    /// Worker threads answering requests (each handles one connection at a
    /// time).
    pub threads: usize,
    /// How often an idle connection wakes up to check for daemon shutdown.
    /// This is *not* an idle-disconnect limit — a quiet client stays
    /// connected indefinitely.
    pub poll_interval: Duration,
    /// The pipeline configuration every session is derived from.
    pub pipeline: PipelineConfig,
    /// LRU cap on resident prepared models, one bound for the whole process
    /// across every (model, width, pruning) variant (`None` = unbounded, the
    /// historical behaviour). Evictions are counted in the `Stats`
    /// response.
    pub cache_cap: Option<usize>,
    /// Shared secret clients must present via [`Request::Auth`] before any
    /// request other than `Ping`; `None` serves everyone (the historical
    /// behaviour).
    pub auth_token: Option<String>,
    /// Maximum request-line size in bytes; longer frames are answered with
    /// [`ErrorKind::FrameTooLarge`] and the connection is closed.
    pub max_frame_bytes: usize,
    /// Admission-control backlog bound: once every worker is busy, at most
    /// this many further connections are queued — beyond it new
    /// connections are rejected with [`ErrorKind::Overloaded`].
    pub max_pending_connections: usize,
    /// Per-client cap on simultaneously open connections (keyed by peer
    /// IP); connections beyond it are rejected with
    /// [`ErrorKind::Overloaded`]. `None` means no per-client cap.
    pub max_connections_per_client: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7531".to_string(),
            threads: 4,
            poll_interval: Duration::from_millis(200),
            pipeline: PipelineConfig::paper(),
            cache_cap: None,
            auth_token: None,
            max_frame_bytes: ServeConfig::DEFAULT_MAX_FRAME_BYTES,
            max_pending_connections: ServeConfig::DEFAULT_MAX_PENDING,
            max_connections_per_client: None,
        }
    }
}

impl ServeConfig {
    /// Default [`Self::max_frame_bytes`]: 1 MiB comfortably fits the
    /// largest legitimate request (a dense exploration grid) with two
    /// orders of magnitude to spare.
    pub const DEFAULT_MAX_FRAME_BYTES: usize = 1 << 20;
    /// Default [`Self::max_pending_connections`].
    pub const DEFAULT_MAX_PENDING: usize = 64;
}

/// A serving failure.
#[derive(Debug)]
pub enum ServeError {
    /// Socket set-up or accept failure.
    Io(std::io::Error),
    /// The pipeline configuration was rejected.
    Pipeline(PipelineError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Pipeline(e) => write!(f, "pipeline error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<PipelineError> for ServeError {
    fn from(e: PipelineError) -> Self {
        ServeError::Pipeline(e)
    }
}

/// State shared by the acceptor and every worker.
struct Shared {
    runner: BatchRunner,
    local_addr: SocketAddr,
    poll_interval: Duration,
    threads: usize,
    auth_token: Option<String>,
    max_frame_bytes: usize,
    max_pending: usize,
    max_per_client: Option<usize>,
    shutdown: AtomicBool,
    counters: Counters,
    started: Instant,
    /// Open-connection counts per peer IP (maintained only when
    /// `max_per_client` is set).
    per_client: Mutex<HashMap<IpAddr, usize>>,
}

impl Shared {
    fn stats(&self) -> ServerStats {
        let c = &self.counters;
        let read = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let latency = lock_unpoisoned(&c.latency)
            .iter()
            .zip(REQUEST_TYPES)
            .filter(|(histogram, _)| !histogram.is_empty())
            .map(|(histogram, request)| RequestLatency {
                request: request.to_string(),
                histogram: histogram.clone(),
            })
            .collect();
        ServerStats {
            requests: read(&c.requests),
            errors: read(&c.errors),
            connections: read(&c.connections),
            uptime: self.started.elapsed(),
            cache: self.runner.cache_stats(),
            active_connections: read(&c.active_connections),
            queued_connections: read(&c.queued_connections),
            rejected_overloaded: read(&c.rejected_overloaded),
            rejected_unauthorized: read(&c.rejected_unauthorized),
            rejected_frames: read(&c.rejected_frames),
            latency,
        }
    }

    /// Admission: `true` when the backlog still has room — every worker
    /// busy *and* a full pending queue means reject, not wait.
    fn queue_admits(&self) -> bool {
        let read = |gauge: &AtomicU64| {
            usize::try_from(gauge.load(Ordering::Relaxed)).unwrap_or(usize::MAX)
        };
        read(&self.counters.active_connections) < self.threads
            || read(&self.counters.queued_connections) < self.max_pending
    }

    /// Admission: registers one connection from `ip` against the
    /// per-client cap; `false` means the client is over its cap and
    /// nothing was registered.
    fn try_admit_client(&self, ip: Option<IpAddr>) -> bool {
        let (Some(cap), Some(ip)) = (self.max_per_client, ip) else {
            return true;
        };
        let mut per_client = lock_unpoisoned(&self.per_client);
        let count = per_client.entry(ip).or_insert(0);
        if *count >= cap {
            return false;
        }
        *count += 1;
        true
    }

    /// Releases one [`Self::try_admit_client`] registration.
    fn release_client(&self, ip: Option<IpAddr>) {
        let (Some(_), Some(ip)) = (self.max_per_client, ip) else {
            return;
        };
        let mut per_client = lock_unpoisoned(&self.per_client);
        if let Some(count) = per_client.get_mut(&ip) {
            *count = count.saturating_sub(1);
            if *count == 0 {
                per_client.remove(&ip);
            }
        }
    }

    /// Flags shutdown and wakes the blocked acceptor with a dummy
    /// connection.
    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.local_addr);
    }
}

/// A bound (not yet running) sweep-serving daemon.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listening socket and builds the warm-cache session state.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Pipeline`] for an unusable pipeline
    /// configuration and [`ServeError::Io`] when the socket cannot be bound.
    pub fn bind(config: ServeConfig) -> Result<Self, ServeError> {
        let runner = BatchRunner::new(config.pipeline)?.with_cache_cap(config.cache_cap);
        let listener =
            TcpListener::bind(config.addr.to_socket_addrs()?.next().ok_or_else(|| {
                std::io::Error::other(format!("unresolvable address {}", config.addr))
            })?)?;
        let local_addr = listener.local_addr()?;
        Ok(Self {
            listener,
            shared: Arc::new(Shared {
                runner,
                local_addr,
                poll_interval: config.poll_interval,
                threads: config.threads.max(1),
                auth_token: config.auth_token,
                max_frame_bytes: config.max_frame_bytes.max(1),
                max_pending: config.max_pending_connections,
                max_per_client: config.max_connections_per_client,
                shutdown: AtomicBool::new(false),
                counters: Counters::default(),
                started: Instant::now(),
                per_client: Mutex::new(HashMap::new()),
            }),
        })
    }

    /// The address the daemon is listening on (useful with port `0`).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Serves connections until a [`Request::Shutdown`] arrives, then joins
    /// the worker pool and returns, so every request's span has closed by
    /// the time a caller writes the process's trace.
    ///
    /// # Errors
    ///
    /// Propagates acceptor I/O failures (individual connection failures are
    /// answered on the connection and never abort the daemon).
    pub fn run(self) -> std::io::Result<()> {
        let (sender, receiver) = mpsc::channel::<(TcpStream, Option<IpAddr>)>();
        let receiver = Arc::new(Mutex::new(receiver));
        let threads = self.shared.threads;
        let mut workers = Vec::with_capacity(threads);
        for worker in 0..threads {
            let receiver = Arc::clone(&receiver);
            let shared = Arc::clone(&self.shared);
            workers.push(
                std::thread::Builder::new().name(format!("dbpim-serve-worker-{worker}")).spawn(
                    move || loop {
                        let next = {
                            let guard = lock_unpoisoned(&receiver);
                            guard.recv()
                        };
                        match next {
                            Ok((stream, ip)) => {
                                let counters = &shared.counters;
                                counters.queued_connections.fetch_sub(1, Ordering::Relaxed);
                                bump(&counters.active_connections);
                                // A panicking handler must not shrink the
                                // worker pool: catch, account, move on.
                                let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
                                    handle_connection(stream, &shared);
                                }));
                                counters.active_connections.fetch_sub(1, Ordering::Relaxed);
                                shared.release_client(ip);
                            }
                            Err(_) => break, // acceptor hung up: drain done
                        }
                    },
                )?,
            );
        }

        for stream in self.listener.incoming() {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break; // the wake-up connection (or any later one) lands here
            }
            match stream {
                Ok(stream) => {
                    let conn = bump(&self.shared.counters.connections);
                    let ip = stream.peer_addr().ok().map(|addr| addr.ip());
                    log_debug!(
                        "serve",
                        "connection {conn} from {}",
                        ip.map_or("<unknown>".to_string(), |ip| ip.to_string())
                    );
                    if !self.shared.try_admit_client(ip) {
                        reject_overloaded(
                            stream,
                            &self.shared,
                            "per-client connection cap reached".to_string(),
                        );
                        continue;
                    }
                    if !self.shared.queue_admits() {
                        self.shared.release_client(ip);
                        reject_overloaded(
                            stream,
                            &self.shared,
                            format!("accept queue full ({} pending)", self.shared.max_pending),
                        );
                        continue;
                    }
                    bump(&self.shared.counters.queued_connections);
                    if sender.send((stream, ip)).is_err() {
                        break;
                    }
                }
                Err(_) => {
                    // Transient accept failure (e.g. EMFILE under fd
                    // exhaustion): keep serving, but back off instead of
                    // spinning hot on an error that fails instantly.
                    std::thread::sleep(Duration::from_millis(50));
                    continue;
                }
            }
        }

        drop(sender);
        for worker in workers {
            let _ = worker.join();
        }
        log_info!("serve", "daemon on {} shut down", self.shared.local_addr);
        Ok(())
    }

    /// Binds and runs the daemon on a background thread, returning a handle
    /// with the bound address — the in-process form tests and benchmarks
    /// use.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::bind`] failures (the spawn itself is infallible).
    pub fn spawn(config: ServeConfig) -> Result<ServerHandle, ServeError> {
        let server = Self::bind(config)?;
        let addr = server.local_addr();
        let shared = Arc::clone(&server.shared);
        let thread = std::thread::Builder::new()
            .name("dbpim-serve-acceptor".to_string())
            .spawn(move || server.run())
            .map_err(ServeError::Io)?;
        Ok(ServerHandle { addr, shared, thread })
    }
}

/// Answers a connection admission control turned away, without ever letting
/// the rejected peer block the acceptor: the write gets a short timeout and
/// the connection is dropped either way.
fn reject_overloaded(stream: TcpStream, shared: &Shared, why: String) {
    bump(&shared.counters.rejected_overloaded);
    log_warn!("serve", "rejected connection: {why}");
    let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
    let mut stream = stream;
    let _ = write_message(&mut stream, &error_response(ErrorKind::Overloaded, why));
}

/// Handle to a daemon running on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl ServerHandle {
    /// The address the daemon is listening on.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown without needing a client connection.
    pub fn request_shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Waits for the daemon to exit (send [`Request::Shutdown`] first, or
    /// call [`Self::request_shutdown`]).
    ///
    /// # Errors
    ///
    /// Propagates the acceptor's exit status.
    pub fn join(self) -> std::io::Result<()> {
        match self.thread.join() {
            Ok(result) => result,
            Err(_) => Err(std::io::Error::other("server thread panicked")),
        }
    }
}

/// What [`FrameReader::next_frame`] produced.
enum FrameOutcome {
    /// One complete line (newline stripped, valid UTF-8).
    Frame(String),
    /// A complete line arrived but was not valid UTF-8 — answerable as a
    /// structured bad request; the connection survives.
    Invalid,
    /// The current frame exceeded the size limit; the connection must
    /// close after the structured answer.
    TooLarge,
    /// The read timed out before a complete frame arrived; any partial
    /// bytes stay buffered with *this* frame. Check for shutdown and poll
    /// again.
    Timeout,
    /// Clean end of stream. Partial trailing bytes (a frame the peer never
    /// terminated) are discarded deterministically — they belong to no
    /// request.
    Eof,
    /// Hard stream failure; close without answering.
    Disconnect,
}

/// Byte-level newline framing with an explicit size bound.
///
/// Unlike `BufRead::read_line`, this reader (a) never accumulates more than
/// `limit` bytes per frame — a giant or never-terminated line is reported
/// as [`FrameOutcome::TooLarge`] instead of growing without bound — and
/// (b) owns its buffer across read timeouts, so bytes of a half-received
/// frame can never be misattributed to a *later* request: a frame is either
/// completed (and consumed exactly up to its newline) or discarded with the
/// connection.
struct FrameReader {
    stream: TcpStream,
    chunk: [u8; 4096],
    /// Bytes received but not yet consumed into frames.
    pending: Vec<u8>,
    /// How far `pending` has been scanned for a newline (avoids rescanning
    /// under byte-at-a-time arrival).
    scanned: usize,
    limit: usize,
}

impl FrameReader {
    fn new(stream: TcpStream, limit: usize) -> Self {
        Self { stream, chunk: [0u8; 4096], pending: Vec::new(), scanned: 0, limit }
    }

    fn next_frame(&mut self) -> FrameOutcome {
        loop {
            // Complete frame already buffered?
            if let Some(offset) =
                self.pending[self.scanned..].iter().position(|&byte| byte == b'\n')
            {
                let end = self.scanned + offset;
                let rest = self.pending.split_off(end + 1);
                let mut frame = std::mem::replace(&mut self.pending, rest);
                frame.pop(); // strip the newline
                self.scanned = 0;
                if frame.len() > self.limit {
                    return FrameOutcome::TooLarge;
                }
                return match String::from_utf8(frame) {
                    Ok(text) => FrameOutcome::Frame(text),
                    Err(_) => FrameOutcome::Invalid,
                };
            }
            self.scanned = self.pending.len();
            // Even an unterminated line must not buffer past the limit.
            if self.pending.len() > self.limit {
                return FrameOutcome::TooLarge;
            }
            match self.stream.read(&mut self.chunk) {
                Ok(0) => return FrameOutcome::Eof,
                Ok(n) => self.pending.extend_from_slice(&self.chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return FrameOutcome::Timeout;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return FrameOutcome::Disconnect,
            }
        }
    }
}

/// Serves one connection until the peer disconnects, violates a hard limit
/// (frame size, wrong auth token) or the daemon shuts down. Malformed lines
/// are answered with [`Response::Error`]; the connection stays open.
fn handle_connection(stream: TcpStream, shared: &Shared) {
    // A finite read timeout turns a blocked read into a periodic shutdown
    // check, so a quiet connection cannot pin a worker past daemon exit.
    let _ = stream.set_read_timeout(Some(shared.poll_interval));
    let mut writer = match stream.try_clone() {
        Ok(writer) => writer,
        Err(_) => return,
    };
    let mut frames = FrameReader::new(stream, shared.max_frame_bytes);
    // An open daemon treats every connection as authenticated.
    let mut authed = shared.auth_token.is_none();
    loop {
        let text = match frames.next_frame() {
            FrameOutcome::Frame(text) => text,
            FrameOutcome::Timeout => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            FrameOutcome::Invalid => {
                bump(&shared.counters.requests);
                bump(&shared.counters.errors);
                let response = error_response(
                    ErrorKind::BadRequest,
                    "request line is not valid UTF-8".to_string(),
                );
                if respond(&mut writer, &response) {
                    break;
                }
                continue;
            }
            FrameOutcome::TooLarge => {
                bump(&shared.counters.requests);
                bump(&shared.counters.errors);
                bump(&shared.counters.rejected_frames);
                let response = error_response(
                    ErrorKind::FrameTooLarge,
                    format!("frame exceeds {} bytes; closing connection", shared.max_frame_bytes),
                );
                let _ = respond(&mut writer, &response);
                break;
            }
            FrameOutcome::Eof | FrameOutcome::Disconnect => break,
        };
        let text = text.trim_end_matches('\r').trim();
        if text.is_empty() {
            continue;
        }
        // A shutdown daemon answers nothing further — even on connections
        // that kept the pipe busy. Dropping the connection (rather than
        // draining queued requests) is what lets a fleet's failure
        // detector notice a dying worker promptly.
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        bump(&shared.counters.requests);
        let disconnect = match serde_json::from_str::<Request>(text) {
            Ok(request) => {
                let type_index = request_type_index(&request);
                // A request carrying a propagated trace context opens its
                // span as a child of the driver's dse.point span, so the
                // merged fleet trace can correlate remote execution with
                // the dispatch that caused it.
                let _span = match request.trace_context() {
                    Some(context) => dbpim_trace::span!(
                        "serve.request",
                        kind = REQUEST_TYPES[type_index],
                        fleet = context.fleet,
                        point = context.point,
                        parent_span = context.parent_span,
                    ),
                    None => dbpim_trace::span!("serve.request", kind = REQUEST_TYPES[type_index]),
                };
                let started = Instant::now();
                let disconnect = dispatch(request, &mut authed, &mut writer, shared);
                lock_unpoisoned(&shared.counters.latency)[type_index].record(started.elapsed());
                log_debug!(
                    "serve",
                    "{} handled in {:?}",
                    REQUEST_TYPES[type_index],
                    started.elapsed()
                );
                disconnect
            }
            Err(e) => {
                bump(&shared.counters.errors);
                respond(
                    &mut writer,
                    &error_response(ErrorKind::BadRequest, format!("unparseable request: {e}")),
                )
            }
        };
        if disconnect {
            break;
        }
    }
}

/// Writes one response frame (see [`write_message`]); returns `true` when
/// the connection should close (write failure — the peer is gone). Traced
/// as `serve.encode` then `serve.write`.
fn respond(writer: &mut TcpStream, response: &Response) -> bool {
    let json = {
        let _span = dbpim_trace::span!("serve.encode");
        encode_message(response)
    };
    let Ok(json) = json else { return true };
    let _span = dbpim_trace::span!("serve.write", bytes = json.len() + 1);
    write_frame(writer, &json).is_err()
}

/// Applies the connection's auth state machine, then hands authorized
/// requests to [`handle_request`]; returns `true` when the connection
/// should close afterwards.
///
/// Unauthenticated connections may `Ping` (liveness probing predates
/// credentials) and `Auth`; everything else is answered
/// [`ErrorKind::Unauthorized`] but keeps the connection open so the client
/// can still authenticate. A *wrong* token closes the connection — a peer
/// guessing secrets gets no second try on the same socket.
fn dispatch(request: Request, authed: &mut bool, writer: &mut TcpStream, shared: &Shared) -> bool {
    match request {
        Request::Auth { token } => match &shared.auth_token {
            Some(expected) if &token == expected => {
                *authed = true;
                respond(writer, &Response::AuthOk)
            }
            Some(_) => {
                bump(&shared.counters.errors);
                bump(&shared.counters.rejected_unauthorized);
                log_warn!("serve", "rejected connection: invalid auth token");
                let _ = respond(
                    writer,
                    &error_response(
                        ErrorKind::Unauthorized,
                        "invalid auth token; closing connection".to_string(),
                    ),
                );
                true
            }
            // An open daemon accepts any credentials, so clients can
            // authenticate unconditionally.
            None => respond(writer, &Response::AuthOk),
        },
        Request::Ping => respond(writer, &pong()),
        _ if !*authed => {
            bump(&shared.counters.errors);
            bump(&shared.counters.rejected_unauthorized);
            respond(
                writer,
                &error_response(
                    ErrorKind::Unauthorized,
                    "this daemon requires authentication; send Auth first".to_string(),
                ),
            )
        }
        request => handle_request(request, writer, shared),
    }
}

/// Builds the `Pong` answer, timestamped so clients can estimate their
/// clock offset against this daemon (NTP-style, from the request's
/// send/receive midpoint).
fn pong() -> Response {
    Response::Pong {
        version: PROTOCOL_VERSION,
        server_time_micros: Some(dbpim_trace::unix_micros_now()),
    }
}

/// Handles one parsed, authorized request; returns `true` when the
/// connection should close afterwards.
fn handle_request(request: Request, writer: &mut TcpStream, shared: &Shared) -> bool {
    match request {
        Request::Ping => respond(writer, &pong()),
        // `dispatch` resolves credentials; reaching here means the
        // connection is already authorized, so re-auth is a cheap yes.
        Request::Auth { .. } => respond(writer, &Response::AuthOk),
        Request::ListModels => {
            respond(writer, &Response::Models { models: ModelKind::all().to_vec() })
        }
        Request::Stats => respond(writer, &Response::Stats { stats: shared.stats() }),
        Request::TraceSnapshot => {
            // Drain whatever collector is installed (`--trace-out`'s or an
            // embedding process's own); a daemon without one answers an
            // empty snapshot that still identifies the process.
            let snapshot = match dbpim_trace::collector() {
                Some(collector) => collector.drain(),
                None => dbpim_trace::CollectorSnapshot {
                    epoch_unix_micros: dbpim_trace::unix_micros_now(),
                    pid: u64::from(std::process::id()),
                    ..Default::default()
                },
            };
            respond(writer, &Response::TraceSpans { snapshot })
        }
        Request::Shutdown => {
            let _ = respond(writer, &Response::ShuttingDown);
            shared.request_shutdown();
            true
        }
        Request::RunModel { model, sparsity, width, arch, fidelity, deadline_ms, trace: _ } => {
            let deadline = Deadline::new(deadline_ms);
            if deadline.expired() {
                bump(&shared.counters.errors);
                return respond(writer, &Deadline::error("RunModel"));
            }
            let width = width.unwrap_or(shared.runner.session().config().operand_width);
            let sparsity = match sparsity {
                Some(one) => vec![one],
                None => SparsityConfig::all().to_vec(),
            };
            match shared.runner.run_point(model, width, arch, &sparsity, fidelity) {
                // A result the client gave up on is withheld: the deadline
                // is a promise about when the answer stops being useful.
                Ok(_) if deadline.expired() => {
                    bump(&shared.counters.errors);
                    respond(writer, &Deadline::error("RunModel"))
                }
                Ok(entry) => respond(writer, &Response::RunResult { entry }),
                Err(e) => {
                    bump(&shared.counters.errors);
                    respond(writer, &error_response(ErrorKind::Pipeline, e.to_string()))
                }
            }
        }
        Request::Explore { spec, deadline_ms, .. } => {
            stream_points(&spec, Deadline::new(deadline_ms), writer, shared)
        }
    }
}

/// Streams one exploration: an `ExploreStarted` frame, one `ExplorePoint`
/// per point as it completes (canonical order, warm-cache artifacts reused
/// across geometries), then `ExploreFinished`. A rejected point list is
/// answered with a structured pipeline error before any point executes; a
/// failing point or an expired deadline ends the stream (but not the
/// connection) the same way, and a point that finishes after its deadline
/// is withheld.
fn stream_points(
    spec: &DseSpec,
    deadline: Deadline,
    writer: &mut TcpStream,
    shared: &Shared,
) -> bool {
    let fail = |writer: &mut TcpStream, response: Response| {
        bump(&shared.counters.errors);
        respond(writer, &response)
    };
    if deadline.expired() {
        return fail(writer, Deadline::error("Explore"));
    }
    let session = shared.runner.session().config();
    let points = match spec.points(session.operand_width, session.pruning) {
        Ok(points) => points,
        Err(e) => return fail(writer, error_response(ErrorKind::Pipeline, e.to_string())),
    };
    let total_points = points.len();
    if respond(writer, &Response::ExploreStarted { total_points }) {
        return true;
    }

    let sparsity = spec.unique_sparsity();
    let start = Instant::now();
    for (index, p) in points.into_iter().enumerate() {
        if deadline.expired() {
            return fail(writer, Deadline::error("Explore"));
        }
        let computed = shared.runner.run_point_pruned(
            p.kind,
            p.width,
            p.pruning,
            Some(p.arch),
            &sparsity,
            spec.fidelity,
        );
        match computed {
            // A point the client gave up on mid-compute is withheld, same
            // policy as RunModel: the deadline promises when answers stop
            // being useful, and a fleet has already requeued the point
            // elsewhere by now.
            Ok(_) if deadline.expired() => return fail(writer, Deadline::error("Explore")),
            Ok(entry) => {
                let entry = DseEntry::from_sweep(entry);
                if respond(writer, &Response::ExplorePoint { index, entry }) {
                    return true;
                }
            }
            Err(e) => {
                let message = format!("exploration point {index} failed: {e}");
                return fail(writer, error_response(ErrorKind::Pipeline, message));
            }
        }
    }

    respond(writer, &Response::ExploreFinished { total_points, wall_time: start.elapsed() })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression for the poison cascade: one panicking holder used to
    /// turn every later `.lock().expect(…)` into a panic of its own.
    /// `lock_unpoisoned` hands back the (consistent) state instead.
    #[test]
    fn poisoned_locks_recover_instead_of_cascading() {
        let shared = Arc::new(Mutex::new(vec![1, 2, 3]));
        let poisoner = Arc::clone(&shared);
        let result = std::thread::spawn(move || {
            let _guard = poisoner.lock().expect("first lock is clean");
            panic!("poison the lock while holding it");
        })
        .join();
        assert!(result.is_err(), "the poisoning thread panicked");
        assert!(shared.is_poisoned(), "the lock is poisoned");
        let mut guard = lock_unpoisoned(&shared);
        assert_eq!(*guard, vec![1, 2, 3], "guarded state is intact");
        guard.push(4);
        drop(guard);
        assert_eq!(*lock_unpoisoned(&shared), vec![1, 2, 3, 4]);
    }

    #[test]
    fn request_type_table_matches_the_index_function() {
        assert_eq!(REQUEST_TYPES[request_type_index(&Request::Ping)], "Ping");
        assert_eq!(
            REQUEST_TYPES[request_type_index(&Request::Auth { token: String::new() })],
            "Auth"
        );
        assert_eq!(REQUEST_TYPES[request_type_index(&Request::Stats)], "Stats");
        assert_eq!(REQUEST_TYPES[request_type_index(&Request::TraceSnapshot)], "TraceSnapshot");
        assert_eq!(REQUEST_TYPES[request_type_index(&Request::Shutdown)], "Shutdown");
    }
}
