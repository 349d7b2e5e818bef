//! The `dbpim-serve` wire protocol.
//!
//! Newline-delimited JSON over a plain TCP stream: every message is one JSON
//! value on one line, terminated by `\n`. Requests and responses use the
//! externally-tagged enum encoding the vendored serde derive produces — a
//! unit variant is its name as a JSON string (`"Ping"`), a data-carrying
//! variant is a single-entry object (`{"RunModel":{...}}`).
//!
//! A connection carries any number of requests, answered in order. Most
//! requests produce exactly one response line; [`Request::Explore`]
//! streams: one [`Response::ExploreStarted`], then one
//! [`Response::ExplorePoint`] per (model, width, pruning, geometry) point
//! *as each completes*, then one [`Response::ExploreFinished`]. Malformed
//! input, including a request name this version does not know, never drops
//! the connection — the server answers with a structured [`Response::Error`]
//! and keeps reading (mirroring the strict-parse behaviour of the
//! experiment binaries' option parsing: bad input is reported, not silently
//! swallowed).

use std::fmt;
use std::io::{BufRead, Write};
use std::time::Duration;

use db_pim::{DseEntry, DseSpec, LatencyHistogram, SessionCacheStats, SweepEntry};
use dbpim_arch::ArchConfig;
use dbpim_csd::OperandWidth;
use dbpim_nn::ModelKind;
use dbpim_sim::SparsityConfig;
use serde::ser::{ObjectWriter, Writer};
use serde::{Deserialize, Serialize};

/// Version of the wire protocol; bumped on incompatible changes. The server
/// reports it in [`Response::Pong`] so clients can refuse to talk to a
/// daemon they do not understand.
///
/// v2 added the design-space-exploration stream ([`Request::Explore`],
/// [`Response::ExploreStarted`] / [`Response::ExplorePoint`] /
/// [`Response::ExploreFinished`]).
///
/// v3 added request deadlines (`deadline_ms` on [`Request::RunModel`] /
/// `Sweep` / [`Request::Explore`], answered with
/// [`ErrorKind::DeadlineExceeded`] when exceeded), the fleet-orchestration
/// shard tag on `Explore` ([`ShardAnnotation`]) and a shard-progress probe
/// answered from it.
///
/// v4 production-hardens the daemon: the shared-secret handshake
/// ([`Request::Auth`] / [`Response::AuthOk`], rejected with
/// [`ErrorKind::Unauthorized`]), admission control ([`ErrorKind::Overloaded`]
/// when the accept queue or a per-client cap is exceeded), bounded request
/// framing ([`ErrorKind::FrameTooLarge`] for frames above the daemon's
/// `--max-frame-bytes`), and the full observability snapshot
/// ([`Request::Stats`]) with per-request-type latency histograms, queue
/// depths and rejection counters.
///
/// v5 added distributed tracing: an optional [`TraceContext`] on
/// [`Request::RunModel`] / `Sweep` / [`Request::Explore`] (omitted from the
/// wire when absent, so context-free requests stay byte-identical to v4),
/// the [`Request::TraceSnapshot`] span pull answered with
/// [`Response::TraceSpans`], a pull of the daemon's metrics registry, and a
/// server wall-clock timestamp on [`Response::Pong`] from which clients
/// estimate the clock offset to the daemon (the fleet driver uses it to
/// align remote spans onto its own timeline).
///
/// v6 removes the `Sweep` request with its three reply frames, and the
/// `CacheStats` request. A sweep is an [`Request::Explore`] over a grid of
/// one geometry, and [`Request::Stats`] answers everything `CacheStats`
/// did. A daemon answers either old name as it answers any unknown
/// request: one [`ErrorKind::BadRequest`] line, with the connection left
/// open. Every other message keeps its v5 encoding.
///
/// v7 removes the shard-progress probe and its reply: a fleet's progress is
/// its journal, which `dbpim-fleet --status` reads. A daemon answers the
/// old request as it answers any unknown one, with one
/// [`ErrorKind::BadRequest`] line, and keeps the connection open. The
/// `shard` tag on [`Request::Explore`] still parses and is ignored. Every
/// other message keeps its v6 encoding.
///
/// v8 removes the metrics-registry pull and its reply: [`Request::Stats`]
/// is the one record of the daemon's counters, and
/// [`ServerStats::render_prometheus`] renders it in the Prometheus text
/// format. A daemon answers the old request as it answers any unknown one,
/// with one [`ErrorKind::BadRequest`] line, and keeps the connection open.
/// Every other message keeps its v7 encoding.
pub const PROTOCOL_VERSION: u32 = 8;

/// The distributed-tracing context a fleet driver (or any tracing client)
/// attaches to work requests, so the daemon's `serve.request` span records
/// *whose* work it executes: the remote span becomes a child of the
/// driver's `dse.point` span in the merged trace.
///
/// Serialized omit-when-absent on the carrying requests: a `None` context
/// contributes no bytes, keeping context-free requests byte-identical to
/// protocol v4.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceContext {
    /// The fleet run id (`FleetConfig::fleet_id`), shared by every span of
    /// one distributed run.
    pub fleet: String,
    /// Canonical identity of the work unit (a DSE point key such as
    /// `alexnet/int8/none/4m...`), identical on both sides of the wire.
    pub point: String,
    /// Span id of the caller's enclosing span (its process-unique
    /// `TraceSpan::id`); 0 when the caller traces without a live span.
    pub parent_span: u64,
}

/// One client request, one JSON line on the wire.
///
/// `Serialize` is hand-written (not derived) for one reason: the optional
/// `trace` field on the work-carrying variants must be *omitted* when
/// absent — the vendored derive would emit `"trace":null`, changing the
/// bytes of every v4-era request. Every other field reproduces the derive
/// encoding exactly (declaration order, externally tagged variants); the
/// round-trip tests below pin that equivalence.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub enum Request {
    /// Liveness / version probe.
    Ping,
    /// Present the daemon's shared secret. On a daemon started with
    /// `--auth-token`, every request except `Ping` and `Auth` is answered
    /// with [`ErrorKind::Unauthorized`] until the connection authenticates;
    /// a *wrong* token additionally closes the connection. On an open
    /// daemon `Auth` is accepted (and answered with [`Response::AuthOk`])
    /// regardless of token, so clients can authenticate unconditionally.
    Auth {
        /// The shared secret.
        token: String,
    },
    /// The zoo models the daemon can serve.
    ListModels,
    /// Run the co-design flow for one model and return the result entry.
    RunModel {
        /// The zoo model to run.
        model: ModelKind,
        /// Restrict to one sparsity configuration; `None` runs all four
        /// Fig. 7 configurations (exactly what `Pipeline::run_model` does).
        sparsity: Option<SparsityConfig>,
        /// Weight operand width; `None` uses the daemon's configured width.
        width: Option<OperandWidth>,
        /// Geometry override; `None` uses the daemon's configured geometry.
        arch: Option<ArchConfig>,
        /// Evaluate accuracy fidelity (honoured when the daemon was started
        /// with evaluation images): the FTA model at the requested width
        /// against the INT8 baseline.
        fidelity: bool,
        /// Give up after this many milliseconds: an expired request is
        /// answered with [`ErrorKind::DeadlineExceeded`] instead of running
        /// to completion. `None` (and omitted on the wire) means no
        /// deadline.
        deadline_ms: Option<u64>,
        /// Distributed-tracing context; omitted from the wire when `None`.
        trace: Option<TraceContext>,
    },
    /// Run a design-space exploration; grid entries stream incrementally
    /// from the daemon's warm artifact cache.
    Explore {
        /// The exploration point set (geometry grid × models × sparsity ×
        /// widths × pruning). Oversized or infeasible grids are answered with a
        /// structured [`Response::Error`] before any point executes.
        /// (Boxed: the grid axes dwarf every other request variant.)
        spec: Box<DseSpec>,
        /// Streaming deadline in milliseconds: the stream ends with a
        /// [`ErrorKind::DeadlineExceeded`] error once it expires (already
        /// streamed points stand). `None` means no deadline.
        deadline_ms: Option<u64>,
        /// A v3–v6 fleet-orchestration tag; it still parses, and the
        /// daemon ignores it.
        shard: Option<ShardAnnotation>,
        /// Distributed-tracing context; omitted from the wire when `None`.
        trace: Option<TraceContext>,
    },
    /// Snapshot the daemon's full observability surface: request counters,
    /// warm-cache statistics, queue depths, rejection counters and
    /// per-request-type latency histograms, answered with
    /// [`Response::Stats`].
    Stats,
    /// Drain the daemon's installed trace collector over the wire
    /// (answered with [`Response::TraceSpans`]): the spans recorded since
    /// the previous drain, the drop count and the clock anchor a merger
    /// needs. The collector is the one `dbpim-served --trace-out` installs
    /// (a drained span is then left out of the file the daemon writes at
    /// shutdown) or an embedding process's own. A daemon without a
    /// collector answers no spans, no drops, its pid and the current time
    /// as the epoch.
    TraceSnapshot,
    /// Stop accepting connections and exit the daemon.
    Shutdown,
}

impl Request {
    /// The distributed-tracing context this request carries, if any.
    #[must_use]
    pub fn trace_context(&self) -> Option<&TraceContext> {
        match self {
            Request::RunModel { trace, .. } | Request::Explore { trace, .. } => trace.as_ref(),
            _ => None,
        }
    }
}

impl Serialize for Request {
    fn serialize(&self, out: &mut Writer) {
        // Mirrors the derive's externally-tagged encoding field-for-field
        // (declaration order), except that a `None` trace context is
        // omitted instead of serialized as `null` — see the type docs.
        let trace_last = |object: &mut ObjectWriter<'_>, trace: &Option<TraceContext>| {
            if let Some(context) = trace {
                object.field("trace", context);
            }
        };
        match self {
            Request::Ping => out.str("Ping"),
            Request::Auth { token } => out.variant("Auth", |out| {
                let mut object = out.object();
                object.field("token", token);
                object.end();
            }),
            Request::ListModels => out.str("ListModels"),
            Request::RunModel { model, sparsity, width, arch, fidelity, deadline_ms, trace } => {
                out.variant("RunModel", |out| {
                    let mut object = out.object();
                    object
                        .field("model", model)
                        .field("sparsity", sparsity)
                        .field("width", width)
                        .field("arch", arch)
                        .field("fidelity", fidelity)
                        .field("deadline_ms", deadline_ms);
                    trace_last(&mut object, trace);
                    object.end();
                });
            }
            Request::Explore { spec, deadline_ms, shard, trace } => {
                out.variant("Explore", |out| {
                    let mut object = out.object();
                    object
                        .field("spec", spec)
                        .field("deadline_ms", deadline_ms)
                        .field("shard", shard);
                    trace_last(&mut object, trace);
                    object.end();
                });
            }
            Request::Stats => out.str("Stats"),
            Request::TraceSnapshot => out.str("TraceSnapshot"),
            Request::Shutdown => out.str("Shutdown"),
        }
    }
}

/// The shard tag of a v3–v6 fleet's `Explore` request. Daemons ignore it
/// since v7. It stays in the protocol only because `e2e_bench` still
/// encodes one; removing it is a benchmark change.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardAnnotation {
    /// Identifier of the fleet run.
    pub fleet: String,
    /// The shard this work belongs to (`0..of`).
    pub shard: usize,
    /// Total shards of the fleet run.
    pub of: usize,
    /// Points the shard contains in total.
    pub points: usize,
}

/// What went wrong with a request, coarsely classified.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorKind {
    /// The request line was not valid JSON or not a known request shape.
    BadRequest,
    /// The request was well-formed but the pipeline rejected or failed it.
    Pipeline,
    /// The request carried a `deadline_ms` and exceeded it before (or
    /// while) producing its results.
    DeadlineExceeded,
    /// The daemon requires authentication ([`Request::Auth`]) and the
    /// connection has not presented the correct token.
    Unauthorized,
    /// Admission control rejected the connection or request: the accept
    /// queue is at capacity or the client is over its per-client
    /// connection cap. Back off and retry.
    Overloaded,
    /// The request line exceeded the daemon's maximum frame size; the
    /// connection is closed after this answer.
    FrameTooLarge,
}

/// A structured error answer; malformed or failing requests receive this
/// instead of a dropped connection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorResponse {
    /// Coarse classification.
    pub kind: ErrorKind,
    /// Human-readable description of the failure.
    pub message: String,
}

impl fmt::Display for ErrorResponse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            ErrorKind::BadRequest => "bad request",
            ErrorKind::Pipeline => "pipeline error",
            ErrorKind::DeadlineExceeded => "deadline exceeded",
            ErrorKind::Unauthorized => "unauthorized",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::FrameTooLarge => "frame too large",
        };
        write!(f, "{kind}: {}", self.message)
    }
}

/// Latency distribution of one request type ([`ServerStats::latency`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestLatency {
    /// The request variant name (`"Ping"`, `"RunModel"`, …).
    pub request: String,
    /// Handling-time distribution (request parsed → response written).
    pub histogram: LatencyHistogram,
}

/// Daemon-side request counters, admission gauges, latency histograms and
/// cache statistics ([`Request::Stats`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Requests processed (including ones answered with an error).
    pub requests: u64,
    /// Requests answered with [`Response::Error`].
    pub errors: u64,
    /// Connections accepted since start-up.
    pub connections: u64,
    /// Time since the daemon started.
    pub uptime: Duration,
    /// Warm-cache counters of the daemon's artifact cache.
    pub cache: SessionCacheStats,
    /// Connections currently being served by a worker.
    pub active_connections: u64,
    /// Accepted connections waiting for a free worker.
    pub queued_connections: u64,
    /// Connections rejected by admission control
    /// ([`ErrorKind::Overloaded`]).
    pub rejected_overloaded: u64,
    /// Requests rejected for missing or wrong credentials
    /// ([`ErrorKind::Unauthorized`]).
    pub rejected_unauthorized: u64,
    /// Frames rejected for exceeding the size limit
    /// ([`ErrorKind::FrameTooLarge`]).
    pub rejected_frames: u64,
    /// Per-request-type handling-latency histograms; request types the
    /// daemon has not served yet are omitted.
    pub latency: Vec<RequestLatency>,
}

impl ServerStats {
    /// Renders the request, error, connection and rejection counters and
    /// the two connection gauges in the Prometheus text exposition format,
    /// each as one sample (0 included), then each served request type's
    /// latency as cumulative `_bucket{le="…"}` series (log₂ bounds in
    /// microseconds) plus `_sum` and `_count`. Names sort within each kind.
    /// The cache counters and the uptime are not rendered.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (kind, name, value) in [
            ("counter", "serve_connections", self.connections),
            ("counter", "serve_errors", self.errors),
            ("counter", "serve_rejected_frames", self.rejected_frames),
            ("counter", "serve_rejected_overloaded", self.rejected_overloaded),
            ("counter", "serve_rejected_unauthorized", self.rejected_unauthorized),
            ("counter", "serve_requests", self.requests),
            ("gauge", "serve_active_connections", self.active_connections),
            ("gauge", "serve_queued_connections", self.queued_connections),
        ] {
            out.push_str(&format!("# TYPE {name} {kind}\n{name} {value}\n"));
        }
        let mut latency: Vec<&RequestLatency> = self.latency.iter().collect();
        latency.sort_by(|a, b| a.request.cmp(&b.request));
        for RequestLatency { request, histogram } in latency {
            let name = format!("serve_latency_{request}");
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cumulative = 0u64;
            for (index, bucket) in histogram.buckets.iter().enumerate() {
                cumulative += bucket;
                let bound = LatencyHistogram::bucket_bound_micros(index);
                if bound == u64::MAX {
                    // The catch-all bucket *is* +Inf; emitted below.
                    break;
                }
                out.push_str(&format!("{name}_bucket{{le=\"{bound}\"}} {cumulative}\n"));
            }
            out.push_str(&format!(
                "{name}_bucket{{le=\"+Inf\"}} {count}\n{name}_sum {sum}\n{name}_count {count}\n",
                count = histogram.count,
                sum = histogram.total_micros,
            ));
        }
        out
    }
}

/// One server response line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong {
        /// The server's wire-protocol version.
        version: u32,
        /// The server's wall clock when it handled the ping, as unix time
        /// in microseconds. A client that timestamps the request/response
        /// pair estimates its clock offset to the daemon from this
        /// (NTP-style: `server − (send + receive)/2`); the fleet's merged
        /// trace uses that offset to align remote spans.
        server_time_micros: Option<u64>,
    },
    /// Answer to a successful [`Request::Auth`].
    AuthOk,
    /// Answer to [`Request::ListModels`].
    Models {
        /// The servable zoo models, in canonical figure order.
        models: Vec<ModelKind>,
    },
    /// Answer to [`Request::RunModel`].
    RunResult {
        /// The computed (model, width, pruning, geometry) entry.
        entry: SweepEntry,
    },
    /// First line of an exploration stream: how many grid points will
    /// follow.
    ExploreStarted {
        /// Number of (model, width, pruning, geometry) points the spec
        /// enumerates.
        total_points: usize,
    },
    /// One completed exploration point (streamed as soon as it is
    /// computed, in the spec's canonical point order).
    ExplorePoint {
        /// Position of this point in the spec's canonical order.
        index: usize,
        /// The computed entry (timestamped server-side).
        entry: DseEntry,
    },
    /// Last line of an exploration stream.
    ExploreFinished {
        /// Points the stream covered.
        total_points: usize,
        /// Server-side wall-clock duration of the exploration.
        wall_time: Duration,
    },
    /// Answer to [`Request::Stats`].
    Stats {
        /// The counters snapshot.
        stats: ServerStats,
    },
    /// Answer to [`Request::TraceSnapshot`]: the daemon's drained span
    /// collector (empty when no collector is installed).
    TraceSpans {
        /// The drained spans plus the clock anchor and drop accounting.
        snapshot: dbpim_trace::CollectorSnapshot,
    },
    /// Answer to [`Request::Shutdown`]; the daemon exits after sending it.
    ShuttingDown,
    /// A structured failure answer (malformed request, pipeline failure).
    Error {
        /// The error payload.
        error: ErrorResponse,
    },
}

/// A framing-layer failure while reading a message.
#[derive(Debug)]
pub enum WireError {
    /// The underlying stream failed.
    Io(std::io::Error),
    /// A line arrived but did not parse as the expected message type.
    Malformed(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::Malformed(m) => write!(f, "malformed message: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Serializes `message` as one JSON line and flushes it.
///
/// The JSON text and its `\n` go out as two writes. On a socket without
/// `TCP_NODELAY` the newline then waits for the peer's ACK of the text,
/// which a delayed ACK can hold for ~40 ms; ROADMAP's "Daemon
/// `TCP_NODELAY`" item tracks sending a frame in one write.
///
/// # Errors
///
/// Propagates stream write failures.
pub fn write_message<T: Serialize>(writer: &mut impl Write, message: &T) -> std::io::Result<()> {
    write_frame(writer, &encode_message(message)?)
}

/// The JSON text of one frame (without its newline).
pub(crate) fn encode_message<T: Serialize>(message: &T) -> std::io::Result<String> {
    serde_json::to_string(message)
        .map_err(|e| std::io::Error::other(format!("serialize message: {e}")))
}

/// Writes `json` and its newline (see [`write_message`]) and flushes.
pub(crate) fn write_frame(writer: &mut impl Write, json: &str) -> std::io::Result<()> {
    writer.write_all(json.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

/// Reads one JSON line and parses it as `T`. Returns `Ok(None)` on a clean
/// end of stream.
///
/// # Errors
///
/// Returns [`WireError::Io`] on stream failures and [`WireError::Malformed`]
/// when the line is not valid JSON for `T` (including a truncated final line
/// with no newline).
pub fn read_message<T: Deserialize>(reader: &mut impl BufRead) -> Result<Option<T>, WireError> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    match serde_json::from_str(line.trim_end_matches(['\r', '\n'])) {
        Ok(message) => Ok(Some(message)),
        Err(e) => Err(WireError::Malformed(e.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Serialize + Deserialize + PartialEq + fmt::Debug>(message: &T) {
        let json = serde_json::to_string(message).expect("serializes");
        assert!(!json.contains('\n'), "one line on the wire: {json}");
        let back: T = serde_json::from_str(&json).expect("parses");
        assert_eq!(&back, message, "wire round-trip changed the message");
    }

    #[test]
    fn requests_round_trip_through_the_wire_encoding() {
        round_trip(&Request::Ping);
        round_trip(&Request::Auth { token: "fleet-secret-42".to_string() });
        round_trip(&Request::ListModels);
        round_trip(&Request::Stats);
        round_trip(&Request::Shutdown);
        round_trip(&Request::TraceSnapshot);
        round_trip(&Request::RunModel {
            model: ModelKind::AlexNet,
            sparsity: Some(SparsityConfig::HybridSparsity),
            width: Some(OperandWidth::Int4),
            arch: Some(ArchConfig::paper()),
            fidelity: true,
            deadline_ms: Some(2_500),
            trace: None,
        });
        round_trip(&Request::RunModel {
            model: ModelKind::EfficientNetB0,
            sparsity: None,
            width: None,
            arch: None,
            fidelity: false,
            deadline_ms: None,
            trace: Some(TraceContext {
                fleet: "fleet-20260808".to_string(),
                point: "efficientnet-b0/int8".to_string(),
                parent_span: 42,
            }),
        });
        round_trip(&Request::Explore {
            spec: Box::new(
                DseSpec::new(
                    dbpim_sim::ArchGrid::around(ArchConfig::paper())
                        .with_macros(vec![2, 4, 8])
                        .with_frequencies(vec![250.0, 500.0]),
                    vec![ModelKind::AlexNet, ModelKind::MobileNetV2],
                )
                .with_widths(vec![OperandWidth::Int4])
                .with_fidelity(),
            ),
            deadline_ms: None,
            shard: Some(ShardAnnotation {
                fleet: "fleet-20260731".to_string(),
                shard: 1,
                of: 4,
                points: 12,
            }),
            trace: Some(TraceContext {
                fleet: "fleet-20260731".to_string(),
                point: "alexnet/int4/4m".to_string(),
                parent_span: 0,
            }),
        });
    }

    #[test]
    fn context_free_requests_stay_byte_identical_to_v4() {
        // The hand-written Serialize must reproduce the v4 derive output
        // exactly when no trace context rides along — the exact byte
        // strings a v4 driver put on the wire.
        let run = Request::RunModel {
            model: ModelKind::AlexNet,
            sparsity: None,
            width: None,
            arch: None,
            fidelity: false,
            deadline_ms: None,
            trace: None,
        };
        assert_eq!(
            serde_json::to_string(&run).unwrap(),
            "{\"RunModel\":{\"model\":\"AlexNet\",\"sparsity\":null,\"width\":null,\
             \"arch\":null,\"fidelity\":false,\"deadline_ms\":null}}"
        );
        let explore = Request::Explore {
            spec: Box::new(DseSpec::new(
                dbpim_sim::ArchGrid::around(ArchConfig::paper()),
                vec![ModelKind::AlexNet],
            )),
            deadline_ms: Some(5),
            shard: None,
            trace: None,
        };
        let explore_json = serde_json::to_string(&explore).unwrap();
        assert!(!explore_json.contains("trace"), "{explore_json}");
        assert!(explore_json.ends_with("\"deadline_ms\":5,\"shard\":null}}"), "{explore_json}");

        // With a context, `trace` is appended as the last field and round
        // trips; without one, parsing v4 bytes yields `trace: None` (see
        // `missing_optional_fields_default_to_none`).
        let traced = Request::Explore {
            spec: match &explore {
                Request::Explore { spec, .. } => spec.clone(),
                _ => unreachable!(),
            },
            deadline_ms: Some(5),
            shard: None,
            trace: Some(TraceContext {
                fleet: "fleet-x".to_string(),
                point: "alexnet/int8".to_string(),
                parent_span: 9,
            }),
        };
        let traced_json = serde_json::to_string(&traced).unwrap();
        assert!(
            traced_json.ends_with(
                "\"trace\":{\"fleet\":\"fleet-x\",\"point\":\"alexnet/int8\",\
                 \"parent_span\":9}}}"
            ),
            "{traced_json}"
        );
    }

    #[test]
    fn responses_round_trip_through_the_wire_encoding() {
        round_trip(&Response::Pong {
            version: PROTOCOL_VERSION,
            server_time_micros: Some(1_750_000_000_000_000),
        });
        round_trip(&Response::Pong { version: PROTOCOL_VERSION, server_time_micros: None });
        round_trip(&Response::TraceSpans {
            snapshot: dbpim_trace::CollectorSnapshot {
                epoch_unix_micros: 1_750_000_000_000_000,
                pid: 4242,
                dropped: 3,
                spans: vec![dbpim_trace::TraceSpan {
                    id: 17,
                    name: "serve.request".to_string(),
                    thread: 2,
                    depth: 0,
                    start_micros: 1_000,
                    duration_micros: 250,
                    args: vec![("kind".to_string(), "Explore".to_string())],
                }],
            },
        });
        round_trip(&Response::Models { models: ModelKind::all().to_vec() });
        round_trip(&Response::ExploreStarted { total_points: 48 });
        round_trip(&Response::ExploreFinished {
            total_points: 48,
            wall_time: Duration::from_secs(7),
        });
        round_trip(&Response::ShuttingDown);
        round_trip(&Response::Error {
            error: ErrorResponse {
                kind: ErrorKind::BadRequest,
                message: "expected `,` or `}` at byte 7".to_string(),
            },
        });
        round_trip(&Response::Error {
            error: ErrorResponse {
                kind: ErrorKind::DeadlineExceeded,
                message: "sweep exceeded its 100 ms deadline after 3 entries".to_string(),
            },
        });
        round_trip(&Response::AuthOk);
        round_trip(&Response::Error {
            error: ErrorResponse {
                kind: ErrorKind::Unauthorized,
                message: "this daemon requires an auth token".to_string(),
            },
        });
        round_trip(&Response::Error {
            error: ErrorResponse {
                kind: ErrorKind::Overloaded,
                message: "accept queue full (64 pending)".to_string(),
            },
        });
        round_trip(&Response::Error {
            error: ErrorResponse {
                kind: ErrorKind::FrameTooLarge,
                message: "frame exceeds 1048576 bytes".to_string(),
            },
        });
        let mut ping_latency = LatencyHistogram::new();
        ping_latency.record(Duration::from_micros(180));
        round_trip(&Response::Stats {
            stats: ServerStats {
                requests: 42,
                errors: 2,
                connections: 7,
                uptime: Duration::from_secs(3600),
                cache: SessionCacheStats {
                    artifact_hits: 40,
                    artifact_misses: 2,
                    program_hits: 38,
                    program_misses: 4,
                    resident_artifacts: 2,
                    artifact_evictions: 1,
                },
                active_connections: 3,
                queued_connections: 1,
                rejected_overloaded: 5,
                rejected_unauthorized: 2,
                rejected_frames: 1,
                latency: vec![RequestLatency {
                    request: "Ping".to_string(),
                    histogram: ping_latency,
                }],
            },
        });
    }

    /// What `dbpim-cli metrics` prints: every counter and gauge under its
    /// name, 0 included, then one cumulative histogram per served request
    /// type, names sorted within each kind.
    #[test]
    fn server_stats_render_as_prometheus_text() {
        let mut ping = LatencyHistogram::new();
        ping.record_micros(1); // bucket le="2"
        ping.record_micros(100); // bucket le="128"
        let mut explore = LatencyHistogram::new();
        explore.record_micros(40_000); // bucket le="65536"
        let stats = ServerStats {
            requests: 7,
            errors: 0,
            connections: 2,
            uptime: Duration::from_secs(5),
            cache: SessionCacheStats::default(),
            active_connections: 1,
            queued_connections: 0,
            rejected_overloaded: 0,
            rejected_unauthorized: 2,
            rejected_frames: 0,
            latency: vec![
                RequestLatency { request: "Ping".to_string(), histogram: ping },
                RequestLatency { request: "Explore".to_string(), histogram: explore },
            ],
        };
        let text = stats.render_prometheus();

        let samples = "# TYPE serve_connections counter\nserve_connections 2\n\
                       # TYPE serve_errors counter\nserve_errors 0\n\
                       # TYPE serve_rejected_frames counter\nserve_rejected_frames 0\n\
                       # TYPE serve_rejected_overloaded counter\nserve_rejected_overloaded 0\n\
                       # TYPE serve_rejected_unauthorized counter\nserve_rejected_unauthorized 2\n\
                       # TYPE serve_requests counter\nserve_requests 7\n\
                       # TYPE serve_active_connections gauge\nserve_active_connections 1\n\
                       # TYPE serve_queued_connections gauge\nserve_queued_connections 0\n";
        assert!(text.starts_with(samples), "{text}");
        // Explore sorts before Ping, whatever the order on the wire.
        let explore_at = text.find("# TYPE serve_latency_Explore histogram\n");
        let ping_at = text.find("# TYPE serve_latency_Ping histogram\n");
        assert_eq!(explore_at, Some(samples.len()), "{text}");
        assert!(ping_at > explore_at, "{text}");
        // Cumulative buckets: le="2" holds the first sample, le="128" both.
        for line in [
            "serve_latency_Ping_bucket{le=\"1\"} 0\n",
            "serve_latency_Ping_bucket{le=\"2\"} 1\n",
            "serve_latency_Ping_bucket{le=\"64\"} 1\n",
            "serve_latency_Ping_bucket{le=\"128\"} 2\n",
            "serve_latency_Explore_bucket{le=\"32768\"} 0\n",
            "serve_latency_Explore_bucket{le=\"65536\"} 1\n",
            "serve_latency_Explore_bucket{le=\"+Inf\"} 1\n\
             serve_latency_Explore_sum 40000\nserve_latency_Explore_count 1\n",
        ] {
            assert!(text.contains(line), "{line:?} missing from {text}");
        }
        assert!(
            text.ends_with(
                "serve_latency_Ping_bucket{le=\"+Inf\"} 2\n\
                 serve_latency_Ping_sum 101\nserve_latency_Ping_count 2\n"
            ),
            "{text}"
        );
        // Per histogram: its type line, the bounded buckets, +Inf, _sum and
        // _count.
        let histogram_lines = 1 + (dbpim_trace::LATENCY_BUCKETS - 1) + 3;
        assert_eq!(text.lines().count(), 16 + 2 * histogram_lines);
    }

    #[test]
    fn unit_variants_use_the_compact_string_encoding() {
        assert_eq!(serde_json::to_string(&Request::Ping).unwrap(), "\"Ping\"");
        assert_eq!(serde_json::to_string(&Request::Stats).unwrap(), "\"Stats\"");
        assert_eq!(serde_json::to_string(&Request::TraceSnapshot).unwrap(), "\"TraceSnapshot\"");
        assert_eq!(serde_json::to_string(&Request::Shutdown).unwrap(), "\"Shutdown\"");
        assert_eq!(serde_json::to_string(&Response::AuthOk).unwrap(), "\"AuthOk\"");
        assert_eq!(serde_json::to_string(&Response::ShuttingDown).unwrap(), "\"ShuttingDown\"");
    }

    #[test]
    fn missing_optional_fields_default_to_none() {
        // A v1/v2 client's RunModel (no deadline field) still parses.
        let request: Request =
            serde_json::from_str("{\"RunModel\":{\"model\":\"AlexNet\",\"fidelity\":false}}")
                .expect("optional fields may be omitted");
        assert_eq!(
            request,
            Request::RunModel {
                model: ModelKind::AlexNet,
                sparsity: None,
                width: None,
                arch: None,
                fidelity: false,
                deadline_ms: None,
                trace: None,
            }
        );
        // A v2 client's Explore (no deadline, no shard tag) still parses.
        let spec = DseSpec::new(
            dbpim_sim::ArchGrid::around(ArchConfig::paper()),
            vec![ModelKind::AlexNet],
        );
        let v2 = format!("{{\"Explore\":{{\"spec\":{}}}}}", serde_json::to_string(&spec).unwrap());
        let request: Request = serde_json::from_str(&v2).expect("v2 Explore still parses");
        assert_eq!(
            request,
            Request::Explore { spec: Box::new(spec), deadline_ms: None, shard: None, trace: None }
        );
        // A v4 Pong (no server timestamp) still parses.
        let pong: Response =
            serde_json::from_str("{\"Pong\":{\"version\":4}}").expect("v4 Pong still parses");
        assert_eq!(pong, Response::Pong { version: 4, server_time_micros: None });
    }

    #[test]
    fn framing_reads_lines_and_reports_eof() {
        let mut buffer = Vec::new();
        write_message(&mut buffer, &Request::Ping).unwrap();
        write_message(&mut buffer, &Request::ListModels).unwrap();
        let mut reader = std::io::BufReader::new(buffer.as_slice());
        assert_eq!(read_message::<Request>(&mut reader).unwrap(), Some(Request::Ping));
        assert_eq!(read_message::<Request>(&mut reader).unwrap(), Some(Request::ListModels));
        assert_eq!(read_message::<Request>(&mut reader).unwrap(), None);
    }

    /// A `Write` that records every `write` call.
    #[derive(Default)]
    struct RecordingWriter {
        writes: Vec<Vec<u8>>,
        flushes: usize,
    }

    impl Write for RecordingWriter {
        fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
            self.writes.push(bytes.to_vec());
            Ok(bytes.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    #[test]
    fn each_frame_is_its_json_and_one_newline_then_a_flush() {
        let message = Response::ExploreFinished { total_points: 3, wall_time: Duration::ZERO };
        let mut writer = RecordingWriter::default();
        write_message(&mut writer, &message).unwrap();
        let frame = writer.writes.concat();
        let json = serde_json::to_string(&message).unwrap();
        assert_eq!(frame, format!("{json}\n").into_bytes());
        assert_eq!(writer.flushes, 1);
        let mut reader = std::io::BufReader::new(frame.as_slice());
        assert_eq!(read_message::<Response>(&mut reader).unwrap(), Some(message));
        assert_eq!(read_message::<Response>(&mut reader).unwrap(), None);
    }

    #[test]
    fn framing_rejects_garbage_without_panicking() {
        let mut reader = std::io::BufReader::new("this is not json\n".as_bytes());
        let err = read_message::<Request>(&mut reader).unwrap_err();
        assert!(matches!(err, WireError::Malformed(_)), "{err}");
        // A truncated line (no trailing newline) still parses if complete…
        let mut reader = std::io::BufReader::new("\"Ping\"".as_bytes());
        assert_eq!(read_message::<Request>(&mut reader).unwrap(), Some(Request::Ping));
        // …and reports malformed if cut mid-value.
        let mut reader = std::io::BufReader::new("{\"RunModel\":{\"mo".as_bytes());
        let err = read_message::<Request>(&mut reader).unwrap_err();
        assert!(matches!(err, WireError::Malformed(_)), "{err}");
    }
}
