//! Wire-level behaviour of the daemon: malformed input of every shape gets
//! a structured `ErrorResponse` on the same connection (never a disconnect,
//! never a panic), pipeline failures are classified separately from parse
//! failures, shutdown is acknowledged before the daemon exits, and the
//! `dbpim-served` binary traces through `--trace-out`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use db_pim::dse::render_report;
use db_pim::flags::{Flags, GRID_FLAGS};
use db_pim::prelude::{ArchConfig, ArchGrid};
use db_pim::{DseDriver, DseReport, DseSpec, PipelineConfig};
use dbpim_nn::ModelKind;
use dbpim_serve::protocol::{ErrorKind, Request, Response, ShardAnnotation};
use dbpim_serve::{Client, ClientError, RunQuery, ServeConfig, Server, ServerHandle};
use serde::value::Value;

fn server_pipeline() -> PipelineConfig {
    let mut pipeline = PipelineConfig::fast().without_fidelity();
    pipeline.width_mult = 0.25;
    pipeline.calibration_images = 1;
    pipeline
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        poll_interval: Duration::from_millis(50),
        pipeline: server_pipeline(),
        ..ServeConfig::default()
    }
}

fn spawn_server() -> ServerHandle {
    Server::spawn(serve_config()).expect("server spawns")
}

/// Sends one raw line and reads one response line.
fn raw_exchange(reader: &mut BufReader<TcpStream>, writer: &mut TcpStream, line: &str) -> Response {
    writer.write_all(line.as_bytes()).expect("write");
    writer.write_all(b"\n").expect("write newline");
    writer.flush().expect("flush");
    let mut answer = String::new();
    reader.read_line(&mut answer).expect("read response line");
    serde_json::from_str(answer.trim_end()).expect("server speaks valid JSON")
}

/// The server closed this connection: either an orderly EOF or — when the
/// server dropped the socket with unread client bytes still in its receive
/// buffer, as after an oversized frame — a TCP reset.
fn assert_closed(reader: &mut BufReader<TcpStream>) {
    let mut rest = String::new();
    match reader.read_line(&mut rest) {
        Ok(0) => {}
        Ok(n) => panic!("expected a closed connection, read {n} more bytes: {rest:?}"),
        Err(e) => assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::BrokenPipe
            ),
            "expected EOF or reset, got {e}"
        ),
    }
}

fn assert_bad_request(response: &Response) {
    match response {
        Response::Error { error } => {
            assert_eq!(error.kind, ErrorKind::BadRequest, "wrong kind: {error}");
            assert!(!error.message.is_empty());
        }
        other => panic!("expected a structured BadRequest error, got {other:?}"),
    }
}

/// Garbage, truncated JSON, unknown variants, mistyped payloads and the
/// requests protocols v6, v7 and v8 removed each get a structured error,
/// and the connection keeps working afterwards.
#[test]
fn malformed_requests_get_structured_errors_not_disconnects() {
    let handle = spawn_server();
    let stream = TcpStream::connect(handle.addr()).expect("connects");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);

    // Not JSON at all.
    assert_bad_request(&raw_exchange(&mut reader, &mut writer, "this is not json"));
    // A JSON line truncated mid-object (the newline arrived, the braces
    // didn't) — the strict parser reports it instead of guessing.
    assert_bad_request(&raw_exchange(&mut reader, &mut writer, "{\"RunModel\":{\"mo"));
    // Well-formed JSON, unknown request variant.
    assert_bad_request(&raw_exchange(&mut reader, &mut writer, "\"Frobnicate\""));
    // Known variant, malformed payload (model name outside the zoo).
    assert_bad_request(&raw_exchange(
        &mut reader,
        &mut writer,
        "{\"RunModel\":{\"model\":\"LeNet5\",\"fidelity\":false}}",
    ));
    // Known variant, payload of the wrong JSON type.
    assert_bad_request(&raw_exchange(&mut reader, &mut writer, "{\"Explore\":[1,2,3]}"));

    // The same connection still answers real requests.
    match raw_exchange(&mut reader, &mut writer, "\"Ping\"") {
        Response::Pong { version, .. } => assert_eq!(version, dbpim_serve::PROTOCOL_VERSION),
        other => panic!("connection should have survived the garbage, got {other:?}"),
    }

    // A v5 client's well-formed `Sweep` and `CacheStats` lines, which v6
    // removed, a v6 client's `ShardStatus`, which v7 removed, and a v7
    // client's `MetricsSnapshot`, which v8 removed, each get exactly one
    // BadRequest line: the next line on the connection answers the
    // following `Ping`.
    let v5_sweep = "{\"Sweep\":{\"spec\":{\"models\":[\"AlexNet\"],\
                    \"sparsity\":[\"HybridSparsity\"],\"archs\":[],\"widths\":[]},\
                    \"fidelity\":false,\"deadline_ms\":null}}";
    for removed in [v5_sweep, "\"CacheStats\"", "\"ShardStatus\"", "\"MetricsSnapshot\""] {
        assert_bad_request(&raw_exchange(&mut reader, &mut writer, removed));
        match raw_exchange(&mut reader, &mut writer, "\"Ping\"") {
            Response::Pong { .. } => {}
            other => panic!("{removed} was answered with more than one line: {other:?}"),
        }
    }

    // The daemon counted the failures.
    let mut client = Client::connect(handle.addr()).expect("connects");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.errors, 9, "every malformed line is counted");
    // 5 malformed lines, 5 Pings and 4 removed requests, then this Stats.
    assert_eq!(stats.requests, 15, "malformed lines still count as requests");

    client.shutdown().expect("shutdown acknowledged");
    handle.join().expect("daemon exits cleanly");
}

/// A well-formed request that fails inside the pipeline is classified as a
/// pipeline error, not a bad request, and includes the cause.
#[test]
fn pipeline_failures_are_classified_and_survivable() {
    let handle = spawn_server();
    let mut client = Client::connect(handle.addr()).expect("connects");

    // A degenerate geometry override: zero macros fails arch validation
    // inside the compiler.
    let mut broken_arch = db_pim::prelude::ArchConfig::paper();
    broken_arch.macros = 0;
    let query = RunQuery::new(ModelKind::AlexNet).with_arch(broken_arch);
    match client.run_model(&query) {
        Err(dbpim_serve::ClientError::Server(error)) => {
            assert_eq!(error.kind, ErrorKind::Pipeline, "wrong kind: {error}");
        }
        other => panic!("expected a structured pipeline error, got {other:?}"),
    }

    // The failure neither killed the connection nor poisoned the daemon.
    let entry = client.run_model(&RunQuery::new(ModelKind::AlexNet)).expect("healthy run");
    assert_eq!(entry.kind, ModelKind::AlexNet);

    client.shutdown().expect("shutdown acknowledged");
    handle.join().expect("daemon exits cleanly");
}

/// `Explore` requests with malformed grids get a `BadRequest`, and
/// well-formed requests whose grids are infeasible or oversized get a
/// structured pipeline error naming the problem — in every case the
/// connection survives and later requests are answered.
#[test]
fn explore_grid_failures_are_structured_errors_not_disconnects() {
    let handle = spawn_server();
    let stream = TcpStream::connect(handle.addr()).expect("connects");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);

    // Structurally malformed spec (missing fields): a parse-level error.
    assert_bad_request(&raw_exchange(
        &mut reader,
        &mut writer,
        "{\"Explore\":{\"spec\":{\"bogus\":true}}}",
    ));
    // Wrong payload type entirely.
    assert_bad_request(&raw_exchange(&mut reader, &mut writer, "{\"Explore\":[1,2]}"));

    // Well-formed spec, infeasible geometry (zero macros): a pipeline
    // error that names the offending grid point.
    let mut client = Client::connect(handle.addr()).expect("connects");
    let infeasible = DseSpec::new(
        ArchGrid::around(ArchConfig::paper()).with_macros(vec![4, 0]),
        vec![ModelKind::AlexNet],
    );
    match client.explore(&infeasible) {
        Err(ClientError::Server(error)) => {
            assert_eq!(error.kind, ErrorKind::Pipeline, "wrong kind: {error}");
            assert!(error.message.contains("infeasible"), "{error}");
        }
        other => panic!("expected a structured pipeline error, got {other:?}"),
    }

    // An undersized buffer axis is rejected the same way.
    let undersized = DseSpec::new(
        ArchGrid::around(ArchConfig::paper()).with_rows(vec![64]).with_weight_buffers(vec![16]),
        vec![ModelKind::AlexNet],
    );
    match client.explore(&undersized) {
        Err(ClientError::Server(error)) => {
            assert!(error.message.contains("weight buffer"), "{error}");
        }
        other => panic!("expected a structured pipeline error, got {other:?}"),
    }

    // An oversized cross product is refused before any point executes.
    let oversized = DseSpec::new(
        ArchGrid::around(ArchConfig::paper())
            .with_macros((1..=20).collect())
            .with_rows((1..=20).map(|i| i * 8).collect())
            .with_frequencies((1..=20).map(|i| f64::from(i) * 50.0).collect()),
        vec![ModelKind::AlexNet],
    );
    match client.explore(&oversized) {
        Err(ClientError::Server(error)) => {
            assert!(error.message.contains("maximum"), "{error}");
        }
        other => panic!("expected a structured pipeline error, got {other:?}"),
    }

    // Both connections survived all of it.
    match raw_exchange(&mut reader, &mut writer, "\"Ping\"") {
        Response::Pong { .. } => {}
        other => panic!("raw connection should have survived, got {other:?}"),
    }
    client.ping().expect("client connection survived");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.errors, 5, "every failed explore is counted");

    client.shutdown().expect("shutdown acknowledged");
    handle.join().expect("daemon exits cleanly");
}

/// Streamed `Explore` entries arrive in canonical order and reassemble
/// into the same `DseReport` a local driver produces for the same spec
/// (timestamps aside), so `dbpim-cli explore` prints what `dse_sweep`
/// prints: the spec is read by the one grid reader and both reports go
/// through the one renderer.
#[test]
fn explore_stream_merges_into_the_same_report_as_a_local_run() {
    let handle = spawn_server();
    let args: Vec<String> = ["--macros", "2,4", "--models", "alexnet", "--sparsity", "base,hybrid"]
        .map(String::from)
        .to_vec();
    let spec =
        DseSpec::from_flags(&Flags::parse(&[GRID_FLAGS], &args).expect("parses")).expect("reads");

    let mut client = Client::connect(handle.addr()).expect("connects");
    let mut streamed_indices = Vec::new();
    let remote = client
        .explore_streaming(&spec, None, None, |index, entry| {
            streamed_indices.push((index, entry.arch.macros));
        })
        .expect("explore runs");
    assert_eq!(streamed_indices, vec![(0, 2), (1, 4)], "stream order is canonical");
    assert_eq!(remote.total_points, 2);
    assert!(remote.is_complete());

    // A local driver over the same pipeline configuration produces the
    // same report, bit-identical results at every point.
    let local =
        DseDriver::new(server_pipeline()).expect("valid config").run(&spec).expect("local run");
    assert!(remote.results_match(&local), "served exploration diverges from the local driver");
    let rendered = render_report(&local);
    assert_eq!(render_report(&remote), rendered);
    assert!(rendered.starts_with("DSE sweep - 2 of 2 grid points"), "{rendered}");
    assert!(rendered.contains("pareto frontier [AlexNet / hybrid sparsity]"), "{rendered}");

    // The daemon served the whole grid from one artifact build.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.cache.artifact_misses, 1);
    assert_eq!(stats.cache.program_misses, 2, "one compilation per geometry");

    // A v3–v6 fleet's shard tag still parses, and the daemon ignores it.
    let shard = Some(ShardAnnotation { fleet: "v6".to_string(), shard: 1, of: 2, points: 2 });
    let spec_box = Box::new(spec.clone());
    let tagged = Request::Explore { spec: spec_box, deadline_ms: None, shard, trace: None };
    client.send(&tagged).expect("sends");
    let mut answered = DseReport::empty(spec.clone(), 2);
    loop {
        match client.recv().expect("a frame") {
            Response::ExploreStarted { total_points } => assert_eq!(total_points, 2),
            Response::ExplorePoint { entry, .. } => answered.entries.push(entry),
            Response::ExploreFinished { .. } => break,
            other => panic!("a tagged exploration was answered with {other:?}"),
        }
    }
    assert!(answered.results_match(&local), "the tag changed the answer");

    client.shutdown().expect("shutdown acknowledged");
    handle.join().expect("daemon exits cleanly");
}

/// An already-expired deadline (0 ms) gets a structured `DeadlineExceeded`
/// error on every deadline-aware request — and the connection survives to
/// serve an identical request without a deadline immediately afterwards.
#[test]
fn expired_deadlines_are_structured_errors_not_hangs() {
    let handle = spawn_server();
    let mut client = Client::connect(handle.addr()).expect("connects");

    let expect_deadline = |outcome: Result<&str, ClientError>| match outcome {
        Err(ClientError::Server(error)) => {
            assert_eq!(error.kind, ErrorKind::DeadlineExceeded, "wrong kind: {error}");
            assert!(error.to_string().contains("deadline"), "{error}");
        }
        Ok(what) => panic!("{what} ignored its expired deadline"),
        Err(other) => panic!("expected a structured deadline error, got {other:?}"),
    };

    let query = RunQuery::new(ModelKind::AlexNet).with_deadline_ms(0);
    expect_deadline(client.run_model(&query).map(|_| "RunModel"));

    let spec = DseSpec::new(ArchGrid::around(ArchConfig::paper()), vec![ModelKind::AlexNet]);
    expect_deadline(client.explore_streaming(&spec, Some(0), None, |_, _| {}).map(|_| "Explore"));

    // A generous deadline changes nothing about the result.
    let entry = client
        .run_model(&RunQuery::new(ModelKind::AlexNet).with_deadline_ms(120_000))
        .expect("a generous deadline still answers");
    let direct = client.run_model(&RunQuery::new(ModelKind::AlexNet)).expect("no deadline");
    assert_eq!(entry, direct, "a deadline must never change the computed result");

    let stats = client.stats().expect("stats");
    assert_eq!(stats.errors, 2, "every expired deadline is counted");

    client.shutdown().expect("shutdown acknowledged");
    handle.join().expect("daemon exits cleanly");
}

/// Empty lines are ignored rather than answered, and a client that
/// disconnects abruptly does not take the daemon down.
#[test]
fn blank_lines_and_abrupt_disconnects_are_tolerated() {
    let handle = spawn_server();

    {
        let stream = TcpStream::connect(handle.addr()).expect("connects");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        // Blank lines produce no response; the next real request answers
        // immediately (nothing queued in between).
        writer.write_all(b"\n\r\n   \n").expect("write blanks");
        match raw_exchange(&mut reader, &mut writer, "\"Ping\"") {
            Response::Pong { .. } => {}
            other => panic!("expected Pong, got {other:?}"),
        }
        // Drop mid-connection without a goodbye.
        writer.write_all(b"{\"RunModel\":").expect("write a torn prefix");
    }

    // The daemon is still healthy for the next client.
    let mut client = Client::connect(handle.addr()).expect("connects");
    client.ping().expect("daemon survived the abrupt disconnect");
    client.shutdown().expect("shutdown acknowledged");
    handle.join().expect("daemon exits cleanly");
}

/// A frame above `max_frame_bytes` — terminated or not — is answered with a
/// structured `FrameTooLarge` error and the connection closes; the daemon
/// never buffers past the limit and stays healthy for the next client.
#[test]
fn oversized_frames_get_a_structured_error_and_a_close() {
    let handle = Server::spawn(ServeConfig { max_frame_bytes: 1024, ..serve_config() })
        .expect("server spawns");

    // The payloads fit in one loopback segment and one server-side read,
    // so the server consumes every byte before closing — an orderly FIN
    // with the error response intact, not a racy RST that could destroy
    // the unread response in the client's receive buffer.
    let over_limit = |payload: &[u8], what: &str| {
        let stream = TcpStream::connect(handle.addr()).expect("connects");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        writer.write_all(payload).expect("write oversized payload");
        writer.flush().expect("flush");
        let mut answer = String::new();
        reader.read_line(&mut answer).expect("read response line");
        match serde_json::from_str::<Response>(answer.trim_end()).expect("valid JSON") {
            Response::Error { error } => {
                assert_eq!(error.kind, ErrorKind::FrameTooLarge, "{what}: wrong kind: {error}");
                assert!(error.message.contains("1024"), "{what}: {error}");
            }
            other => panic!("{what}: expected FrameTooLarge, got {other:?}"),
        }
        assert_closed(&mut reader);
    };

    // A terminated giant line.
    over_limit(format!("{}\n", "x".repeat(3000)).as_bytes(), "terminated");
    // A never-terminated line must trip the limit too — this is the
    // unbounded-accumulation OOM vector.
    over_limit("y".repeat(3000).as_bytes(), "unterminated");

    // The daemon counted both rejections and still serves.
    let mut client = Client::connect(handle.addr()).expect("connects");
    client.ping().expect("daemon survived the oversized frames");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.rejected_frames, 2, "both oversized frames counted");

    client.shutdown().expect("shutdown acknowledged");
    handle.join().expect("daemon exits cleanly");
}

/// A byte-at-a-time (slowloris-style) client crosses many read timeouts
/// mid-frame; the partial bytes stay attached to *their* frame — the
/// request completes correctly and the next frame on the connection is
/// unaffected.
#[test]
fn slowloris_clients_complete_frames_across_read_timeouts() {
    let handle = spawn_server(); // poll_interval is 50 ms
    let stream = TcpStream::connect(handle.addr()).expect("connects");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);

    // Dribble a Ping one byte every ~2 poll intervals.
    for byte in "\"Ping\"\n".as_bytes() {
        writer.write_all(&[*byte]).expect("write byte");
        writer.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(110));
    }
    let mut answer = String::new();
    reader.read_line(&mut answer).expect("read response line");
    match serde_json::from_str::<Response>(answer.trim_end()).expect("valid JSON") {
        Response::Pong { version, .. } => assert_eq!(version, dbpim_serve::PROTOCOL_VERSION),
        other => panic!("expected Pong for the dribbled frame, got {other:?}"),
    }

    // No partial bytes leaked into the next request: a whole frame sent at
    // once answers immediately and correctly.
    match raw_exchange(&mut reader, &mut writer, "\"ListModels\"") {
        Response::Models { models } => assert_eq!(models.len(), 5),
        other => panic!("expected Models after the slow frame, got {other:?}"),
    }

    // Two frames in one write (plus a torn third) also frame correctly.
    writer.write_all(b"\"Ping\"\n\"Ping\"\n\"Li").expect("write packed frames");
    writer.flush().expect("flush");
    for _ in 0..2 {
        let mut answer = String::new();
        reader.read_line(&mut answer).expect("read response line");
        assert!(
            matches!(
                serde_json::from_str::<Response>(answer.trim_end()).expect("valid JSON"),
                Response::Pong { .. }
            ),
            "packed frames must each answer"
        );
    }
    // Complete the torn third frame after a timeout gap.
    std::thread::sleep(Duration::from_millis(120));
    match raw_exchange(&mut reader, &mut writer, "stModels\"") {
        Response::Models { models } => assert_eq!(models.len(), 5),
        other => panic!("expected Models from the torn frame, got {other:?}"),
    }

    let mut client = Client::connect(handle.addr()).expect("connects");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.errors, 0, "no slow frame was misparsed");
    client.shutdown().expect("shutdown acknowledged");
    handle.join().expect("daemon exits cleanly");
}

/// On a daemon started with an auth token: unauthenticated requests (except
/// `Ping`) get a structured `Unauthorized` error but keep the connection;
/// a wrong token gets `Unauthorized` and a close; the right token unlocks
/// everything. An open daemon accepts any token.
#[test]
fn auth_rejections_are_structured_and_the_right_token_unlocks() {
    let handle =
        Server::spawn(ServeConfig { auth_token: Some("sesame".to_string()), ..serve_config() })
            .expect("server spawns");

    // Ping needs no credentials (liveness probing predates them).
    let mut client = Client::connect(handle.addr()).expect("connects");
    client.ping().expect("unauthenticated ping is allowed");

    // Anything else unauthenticated: structured Unauthorized, connection
    // survives.
    match client.list_models() {
        Err(ClientError::Server(error)) => {
            assert_eq!(error.kind, ErrorKind::Unauthorized, "wrong kind: {error}");
        }
        other => panic!("expected Unauthorized, got {other:?}"),
    }

    // The same connection can still authenticate and proceed.
    client.authenticate("sesame").expect("right token");
    let models = client.list_models().expect("authorized request");
    assert_eq!(models.len(), 5);

    // A wrong token: structured Unauthorized, then the daemon closes the
    // connection (no second guess on the same socket).
    let mut guesser = Client::connect(handle.addr()).expect("connects");
    match guesser.authenticate("open says me") {
        Err(ClientError::Server(error)) => {
            assert_eq!(error.kind, ErrorKind::Unauthorized, "wrong kind: {error}");
        }
        other => panic!("expected Unauthorized for the wrong token, got {other:?}"),
    }
    assert!(guesser.ping().is_err(), "wrong-token connection must be closed");

    // Rejections were counted.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.rejected_unauthorized, 2, "gated request + wrong token");
    assert!(stats.errors >= 2);

    client.shutdown().expect("shutdown acknowledged");
    handle.join().expect("daemon exits cleanly");

    // An open daemon accepts any credentials, so clients can authenticate
    // unconditionally.
    let open = spawn_server();
    let mut client = Client::connect(open.addr()).expect("connects");
    client.authenticate("anything").expect("open daemons accept any token");
    client.shutdown().expect("shutdown acknowledged");
    open.join().expect("daemon exits cleanly");
}

/// With every worker busy and no backlog allowance, a new connection is
/// rejected with a structured `Overloaded` answer instead of queueing
/// unboundedly — and once the load drains, new connections are admitted
/// again.
#[test]
fn saturated_daemons_reject_with_a_structured_overloaded_error() {
    let handle =
        Server::spawn(ServeConfig { threads: 1, max_pending_connections: 0, ..serve_config() })
            .expect("server spawns");

    // Pin the single worker: a connection stays assigned to its worker for
    // its whole lifetime, so one served round trip is enough.
    let mut pinned = Client::connect(handle.addr()).expect("connects");
    pinned.ping().expect("the pinned connection is being served");

    // The next connection must be turned away at the door.
    let stream = TcpStream::connect(handle.addr()).expect("tcp connects");
    let mut reader = BufReader::new(stream);
    let mut answer = String::new();
    reader.read_line(&mut answer).expect("read rejection line");
    match serde_json::from_str::<Response>(answer.trim_end()).expect("valid JSON") {
        Response::Error { error } => {
            assert_eq!(error.kind, ErrorKind::Overloaded, "wrong kind: {error}");
            assert!(!error.message.is_empty());
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).expect("read"), 0, "rejected connection closes");

    // Release the worker; the daemon must admit new connections again.
    drop(pinned);
    let mut recovered = None;
    for _ in 0..100 {
        std::thread::sleep(Duration::from_millis(50));
        if let Ok(mut client) = Client::connect(handle.addr()) {
            if client.ping().is_ok() {
                recovered = Some(client);
                break;
            }
        }
    }
    let mut client = recovered.expect("daemon admits connections again after the load drains");
    let stats = client.stats().expect("stats");
    assert!(stats.rejected_overloaded >= 1, "the rejection was counted");

    client.shutdown().expect("shutdown acknowledged");
    handle.join().expect("daemon exits cleanly");
}

/// Pings from several clients at once are each counted once. A request
/// and its connection are counted before the reply is written, so once
/// every client has its answers the totals are exact.
#[test]
fn concurrent_pings_are_each_counted_once() {
    const CLIENTS: u64 = 4;
    const PINGS: u64 = 5;
    let handle = spawn_server();
    let addr = handle.addr();
    // Every client connects before any pings, so the two workers serve
    // two of them while the other two wait in the accept queue.
    let connected = std::sync::Arc::new(std::sync::Barrier::new(CLIENTS as usize));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let connected = std::sync::Arc::clone(&connected);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connects");
                connected.wait();
                for _ in 0..PINGS {
                    client.ping().expect("pings");
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }

    let mut client = Client::connect(addr).expect("connects");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.requests, CLIENTS * PINGS + 1, "every ping, then this Stats");
    assert_eq!(stats.connections, CLIENTS + 1);
    assert_eq!(stats.errors, 0);

    client.shutdown().expect("shutdown acknowledged");
    handle.join().expect("daemon exits cleanly");
}

/// The `Stats` surface against a scripted request sequence: request and
/// error totals, rejection counters, queue gauges and the per-request-type
/// latency histogram counts all match exactly what was sent.
#[test]
fn stats_counters_match_a_scripted_request_sequence() {
    let handle = spawn_server();
    let mut client = Client::connect(handle.addr()).expect("connects");

    client.ping().expect("ping 1");
    client.ping().expect("ping 2");
    client.list_models().expect("models");
    client.run_model(&RunQuery::new(ModelKind::AlexNet)).expect("run");

    // One malformed line on a second connection.
    {
        let stream = TcpStream::connect(handle.addr()).expect("connects");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        assert_bad_request(&raw_exchange(&mut reader, &mut writer, "not json"));
    }

    let stats = client.stats().expect("stats");
    // 2 Ping + 1 ListModels + 1 RunModel + 1 garbage + this Stats = 6.
    assert_eq!(stats.requests, 6, "every frame is a counted request");
    assert_eq!(stats.errors, 1, "exactly the garbage line failed");
    assert_eq!(stats.connections, 2);
    // This client is being served right now; the raw connection may not
    // have been reaped yet, so allow either gauge reading.
    assert!(
        (1..=2).contains(&stats.active_connections),
        "unexpected active gauge: {}",
        stats.active_connections
    );
    assert_eq!(stats.queued_connections, 0);
    assert_eq!(stats.rejected_overloaded, 0);
    assert_eq!(stats.rejected_unauthorized, 0);
    assert_eq!(stats.rejected_frames, 0);

    let count_of = |request: &str| {
        stats
            .latency
            .iter()
            .find(|entry| entry.request == request)
            .map_or(0, |entry| entry.histogram.count)
    };
    assert_eq!(count_of("Ping"), 2);
    assert_eq!(count_of("ListModels"), 1);
    assert_eq!(count_of("RunModel"), 1);
    // A Stats answer is serialized before its own latency sample lands, so
    // the in-flight snapshot cannot include itself yet.
    assert_eq!(count_of("Stats"), 0);
    assert_eq!(count_of("Explore"), 0, "unserved request types report no histogram");
    let run_latency =
        stats.latency.iter().find(|entry| entry.request == "RunModel").expect("recorded");
    assert!(run_latency.histogram.max_micros > 0, "a real run takes measurable time");
    assert!(run_latency.histogram.percentile_micros(0.99) >= run_latency.histogram.max_micros / 2);

    // A second snapshot counts the first one.
    let again = client.stats().expect("stats again");
    assert_eq!(again.requests, 7);
    let stats_count = again
        .latency
        .iter()
        .find(|entry| entry.request == "Stats")
        .map_or(0, |entry| entry.histogram.count);
    assert_eq!(stats_count, 1, "the previous Stats request is now on the books");

    client.shutdown().expect("shutdown acknowledged");
    handle.join().expect("daemon exits cleanly");
}

/// No test in this file installs a trace collector, so a daemon here has
/// none, and `TraceSnapshot` answers an empty snapshot that still names the
/// process and its clock.
#[test]
fn a_daemon_without_a_collector_answers_an_empty_trace_snapshot() {
    let handle = spawn_server();
    let mut client = Client::connect(handle.addr()).expect("connects");
    client.ping().expect("pings");
    let snapshot = client.trace_snapshot().expect("trace snapshot answer");
    assert!(snapshot.spans.is_empty(), "{:?}", snapshot.spans);
    assert_eq!(snapshot.dropped, 0);
    assert_eq!(snapshot.pid, u64::from(std::process::id()), "in-process daemon shares our pid");
    assert!(snapshot.epoch_unix_micros > 0);

    client.shutdown().expect("shutdown acknowledged");
    handle.join().expect("daemon exits cleanly");
}

/// A `dbpim-served` child process, killed if a check fails before it exits.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The `kind` of every `serve.request` span in a Chrome trace document, in
/// the order the spans closed.
fn request_kinds(json: &str) -> Vec<String> {
    let value: Value = serde_json::from_str(json).expect("the trace is well-formed JSON");
    let events = value.get("traceEvents").and_then(Value::as_seq).expect("traceEvents array");
    events
        .iter()
        .filter(|event| {
            event.get("ph").and_then(Value::as_str) == Some("X")
                && event.get("name").and_then(Value::as_str) == Some("serve.request")
        })
        .filter_map(|event| Some(event.get("args")?.get("kind")?.as_str()?.to_string()))
        .collect()
}

/// The daemon binary traces like every other binary: `--trace-out` installs
/// a collector, `TraceSnapshot` drains it, and what no drain took is
/// written to the path once the daemon has shut down. One worker serves a
/// connection's requests in order, and the file is written after the
/// workers are joined, so both halves are exact.
#[test]
fn dbpim_served_drains_to_trace_snapshot_and_writes_the_rest_at_exit() {
    let dir = std::env::temp_dir().join(format!("dbpim-served-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("daemon.json");
    let child = Command::new(env!("CARGO_BIN_EXE_dbpim-served"))
        .args(["--port", "0", "--trace-out"])
        .arg(&path)
        .args(["--width", "0.25", "--classes", "10", "--cal", "1", "--images", "0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("dbpim-served starts");
    let mut daemon = Daemon(child);
    let mut stdout = BufReader::new(daemon.0.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    let addr = loop {
        line.clear();
        assert!(stdout.read_line(&mut line).expect("reads stdout") > 0, "no `listening on` line");
        if let Some(rest) = line.split("listening on ").nth(1) {
            break rest.split_whitespace().next().expect("an address").to_string();
        }
    };

    let mut client = Client::connect(addr.as_str()).expect("connects");
    client.ping().expect("pings");
    let snapshot = client.trace_snapshot().expect("trace snapshot answer");
    client.ping().expect("pings again");
    client.shutdown().expect("shutdown acknowledged");

    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(status) = daemon.0.try_wait().expect("polls the daemon") {
            break status;
        }
        assert!(Instant::now() < deadline, "the daemon did not exit after Shutdown");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "{status}");

    // The drain took the first Ping, whose span had closed; the
    // TraceSnapshot request's own span was still open.
    assert_eq!(snapshot.pid, u64::from(daemon.0.id()));
    assert!(snapshot.epoch_unix_micros > 0);
    let drained: Vec<&str> = snapshot
        .spans
        .iter()
        .filter(|span| span.name == "serve.request")
        .filter_map(|span| span.arg("kind"))
        .collect();
    assert_eq!(drained, ["Ping"]);
    // The exit-time file holds everything after the drain, and nothing the
    // drain took.
    let json = std::fs::read_to_string(&path).expect("the daemon wrote its trace");
    assert_eq!(request_kinds(&json), ["TraceSnapshot", "Ping", "Shutdown"]);
    std::fs::remove_dir_all(&dir).ok();
}
