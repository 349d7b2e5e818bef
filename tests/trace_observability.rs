//! The observability layer's contract:
//!
//! * tracing is invisible to the numbers — a DSE sweep renders the
//!   bit-identical report with a collector installed and without one;
//! * the Chrome trace-event export is well-formed JSON whose spans cover
//!   the pipeline phases and nest properly per thread;
//! * the serving daemon's `Stats` response is a pure projection of the
//!   shared metrics registry, so an injected registry agrees with the wire
//!   answer counter for counter.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use db_pim::prelude::*;
use dbpim_bench::dse::render_report;
use dbpim_serve::{Client, ServeConfig, Server};
use dbpim_trace::{phase_summary, ChromeTrace, MetricsRegistry, SpanRecord, TraceCollector};
use serde::value::Value;

/// The collector install is process-global; every test that installs one
/// holds this lock so parallel test threads never observe foreign spans.
fn trace_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

fn small_config() -> PipelineConfig {
    let mut config = PipelineConfig::fast();
    config.width_mult = 0.25;
    config.calibration_images = 1;
    config.evaluation_images = 2;
    config
}

fn small_spec() -> DseSpec {
    let grid = ArchGrid::around(ArchConfig::paper()).with_macros(vec![2, 4]);
    DseSpec::new(grid, vec![ModelKind::AlexNet])
}

/// Runs the small sweep and returns its rendered report, tracing into
/// `collector` when one is given.
fn traced_sweep(collector: Option<&Arc<TraceCollector>>) -> String {
    if let Some(collector) = collector {
        dbpim_trace::install(Arc::clone(collector));
    }
    let driver = DseDriver::new(small_config()).expect("valid config");
    let report = driver.run(&small_spec()).expect("sweep runs");
    if collector.is_some() {
        dbpim_trace::uninstall();
    }
    render_report(&report)
}

/// A collector-installed sweep renders the bit-identical report an
/// uninstalled run renders: observability never changes the numbers.
#[test]
fn traced_and_untraced_sweeps_render_identical_reports() {
    let _guard = trace_lock().lock().expect("trace test lock");
    let baseline = traced_sweep(None);
    let collector = Arc::new(TraceCollector::new());
    let traced = traced_sweep(Some(&collector));
    assert_eq!(baseline, traced, "tracing changed the rendered report");
    assert!(!collector.snapshot().is_empty(), "the traced run collected no spans");
}

/// The traced sweep covers the pipeline phases and the per-layer simulator
/// spans, and the Chrome export of those spans is well-formed JSON with
/// one complete event per span.
#[test]
fn chrome_export_covers_pipeline_phases_and_parses() {
    let _guard = trace_lock().lock().expect("trace test lock");
    let collector = Arc::new(TraceCollector::new());
    traced_sweep(Some(&collector));
    let spans = collector.snapshot();

    let phases = [
        "nn.build",
        "pipeline.quantize",
        "nn.fold",
        "nn.quantize",
        "nn.calibrate",
        "nn.quantize_weights",
        "pipeline.fta",
        "fta.stats",
        "pipeline.input_sparsity",
        "nn.forward_i8",
        "pipeline.compile",
        "pipeline.simulate",
    ];
    for phase in phases {
        assert!(spans.iter().any(|s| s.name == phase), "no `{phase}` span in the sweep trace");
    }
    assert!(spans.iter().any(|s| s.name == "sim.layer"), "no per-layer simulator spans");
    assert!(spans.iter().any(|s| s.name == "dse.point"), "no per-point DSE spans");

    // The summary table sees every span the export sees.
    let summary = phase_summary(&spans);
    let total: u64 = summary.iter().map(|row| row.count).sum();
    assert_eq!(total, spans.len() as u64);

    let json = ChromeTrace::render(&spans);
    let value: Value = serde_json::from_str(&json).expect("the export is well-formed JSON");
    let events = value.get("traceEvents").and_then(Value::as_seq).expect("traceEvents array");
    // One complete (`ph:"X"`) event per span, plus the lane's labelling
    // metadata: one `process_name` and one `thread_name` per thread.
    let threads: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.thread).collect();
    assert_eq!(events.len(), spans.len() + 1 + threads.len());
    let mut complete = 0usize;
    let mut metadata = 0usize;
    for event in events {
        assert!(event.as_map().is_some(), "event object");
        assert!(event.get("name").and_then(Value::as_str).is_some());
        match event.get("ph").and_then(Value::as_str) {
            Some("X") => {
                complete += 1;
                assert!(event.get("ts").is_some());
                assert!(event.get("dur").is_some());
            }
            Some("M") => metadata += 1,
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    assert_eq!(complete, spans.len());
    assert_eq!(metadata, 1 + threads.len());
}

/// A traced INT4 preparation shows the width path's weight quantization
/// (`fta.quantize`) apart from Algorithm 1, inside `fta.approx`; the INT8
/// path approximates the quantizer's own tensors and has no such span.
/// Both tag `fta.approx` with the width's bit count.
#[test]
fn fta_approx_tags_its_width_and_splits_out_wide_quantization() {
    let _guard = trace_lock().lock().expect("trace test lock");
    let model = ModelKind::AlexNet.build_with_width(10, 42, 0.25).expect("model builds");
    for (width, quantize_spans) in [(OperandWidth::Int4, 1), (OperandWidth::Int8, 0)] {
        let collector = Arc::new(TraceCollector::new());
        dbpim_trace::install(Arc::clone(&collector));
        let config = small_config().without_fidelity().with_operand_width(width);
        let prepared = ModelArtifacts::prepare(&config, &model);
        dbpim_trace::uninstall();
        prepared.expect("prepares");
        let spans = collector.snapshot();
        let approx: Vec<_> = spans.iter().filter(|s| s.name == "fta.approx").collect();
        assert_eq!(approx.len(), 1, "{width}");
        let bits = width.bits().to_string();
        assert!(approx[0].args.contains(&("width", bits)), "{width}: {:?}", approx[0].args);
        let quantize: Vec<_> = spans.iter().filter(|s| s.name == "fta.quantize").collect();
        assert_eq!(quantize.len(), quantize_spans, "{width}");
        for span in quantize {
            assert!(span.thread == approx[0].thread && span.depth > approx[0].depth, "{width}");
            assert!(span.start_micros >= approx[0].start_micros, "{width}");
            assert!(span.end_micros() <= approx[0].end_micros(), "{width}");
        }
    }
}

/// Spans on one thread either nest or are disjoint — never partially
/// overlapping — and a deeper span lies inside some shallower one.
#[test]
fn spans_nest_per_thread() {
    let _guard = trace_lock().lock().expect("trace test lock");
    let collector = Arc::new(TraceCollector::new());
    traced_sweep(Some(&collector));
    let spans = collector.snapshot();
    assert!(!spans.is_empty());

    let end = |s: &SpanRecord| s.start_micros + s.duration_micros;
    for (i, a) in spans.iter().enumerate() {
        for b in &spans[i + 1..] {
            if a.thread != b.thread {
                continue;
            }
            let partial_overlap =
                a.start_micros < b.start_micros && b.start_micros < end(a) && end(a) < end(b);
            assert!(
                !partial_overlap,
                "spans `{}` and `{}` on thread {} partially overlap",
                a.name, b.name, a.thread
            );
        }
        if a.depth > 0 {
            assert!(
                spans.iter().any(|p| {
                    p.thread == a.thread
                        && p.depth < a.depth
                        && p.start_micros <= a.start_micros
                        && end(a) <= end(p)
                }),
                "span `{}` at depth {} has no enclosing shallower span",
                a.name,
                a.depth
            );
        }
    }
}

/// The daemon's `Stats` answer equals the injected registry's own view:
/// the wire response is a projection of the shared `MetricsRegistry`, not
/// a second set of books.
#[test]
fn serve_stats_mirror_the_shared_registry() {
    let registry = Arc::new(MetricsRegistry::new());
    let handle = Server::spawn(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        poll_interval: Duration::from_millis(50),
        pipeline: small_config(),
        metrics: Some(Arc::clone(&registry)),
        ..ServeConfig::default()
    })
    .expect("server spawns");

    let mut client = Client::connect(handle.addr()).expect("connects");
    client.ping().expect("pings");
    client.ping().expect("pings");
    let stats = client.stats().expect("stats answer");

    assert_eq!(stats.requests, registry.counter("serve.requests"));
    assert_eq!(stats.errors, registry.counter("serve.errors"));
    assert_eq!(stats.connections, registry.counter("serve.connections"));
    assert_eq!(stats.requests, 3, "two pings plus the stats request itself");
    assert_eq!(stats.connections, 1);

    let ping = stats
        .latency
        .iter()
        .find(|row| row.request == "Ping")
        .expect("ping latency histogram on the wire");
    let local = registry.histogram("serve.latency.Ping").expect("ping histogram in the registry");
    assert_eq!(ping.histogram, local);
    assert_eq!(ping.histogram.count, 2);

    client.shutdown().expect("shutdown acknowledged");
    handle.join().expect("daemon exits cleanly");
}

/// A daemon in `--trace-buffer` mode records `serve.request` spans that
/// carry the caller's propagated trace context, and `TraceSnapshot`
/// drains them over the wire: the first drain returns the spans, the
/// second returns an empty buffer.
#[test]
fn trace_snapshot_drains_context_tagged_request_spans() {
    let _guard = trace_lock().lock().expect("trace test lock");
    let handle = Server::spawn(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        poll_interval: Duration::from_millis(50),
        pipeline: small_config(),
        trace_buffer: Some(4096),
        ..ServeConfig::default()
    })
    .expect("server spawns");

    let mut client = Client::connect(handle.addr()).expect("connects");
    client.ping().expect("pings");
    let context = dbpim_serve::TraceContext {
        fleet: "ci-fleet".to_string(),
        point: "alexnet/int8@2x64".to_string(),
        parent_span: 99,
    };
    client
        .explore_streaming(&small_spec(), None, None, Some(context), |_, _| {})
        .expect("traced exploration runs");

    let snapshot = client.trace_snapshot().expect("trace snapshot answer");
    assert_eq!(snapshot.pid, u64::from(std::process::id()), "in-process daemon shares our pid");
    assert_eq!(snapshot.dropped, 0);
    let request_span = snapshot
        .spans
        .iter()
        .find(|span| span.name == "serve.request" && span.arg("kind") == Some("Explore"))
        .expect("an Explore serve.request span was recorded");
    assert_eq!(request_span.arg("fleet"), Some("ci-fleet"));
    assert_eq!(request_span.arg("point"), Some("alexnet/int8@2x64"));
    assert_eq!(request_span.arg("parent_span"), Some("99"));
    assert!(request_span.id != 0, "recorded spans carry non-sentinel ids");
    // The pipeline work executed inside the daemon landed in the same buffer.
    assert!(snapshot.spans.iter().any(|span| span.name == "pipeline.simulate"));
    // Every streamed frame was encoded and written inside the request span.
    let request_end = request_span.start_micros + request_span.duration_micros;
    for name in ["serve.encode", "serve.write"] {
        let inside: Vec<_> = snapshot
            .spans
            .iter()
            .filter(|span| span.name == name && span.thread == request_span.thread)
            .filter(|span| span.start_micros >= request_span.start_micros)
            .filter(|span| span.start_micros + span.duration_micros <= request_end)
            .collect();
        assert!(!inside.is_empty(), "no {name} span under the Explore serve.request");
        assert!(inside.iter().all(|span| span.depth == request_span.depth + 1), "{name} depth");
    }

    let drained = client.trace_snapshot().expect("second snapshot");
    // Draining twice yields at most the spans recorded since the first
    // drain (the TraceSnapshot request and its answer's encode and write);
    // the explore spans are gone.
    assert!(
        drained
            .spans
            .iter()
            .all(|span| ["serve.request", "serve.encode", "serve.write"].contains(&&*span.name)),
        "first drain cleared the buffer"
    );

    client.shutdown().expect("shutdown acknowledged");
    handle.join().expect("daemon exits cleanly");
    dbpim_trace::uninstall();
}

/// A daemon in `--trace-dir` mode with `--trace-every 2` that serves four
/// pings and a shutdown leaves `trace-2.json`, `trace-4.json` and, at
/// shutdown, `trace-final.json`, each a Chrome trace holding the
/// `serve.request` spans of the requests it is named for.
#[test]
fn trace_dir_dumps_a_chrome_trace_every_n_requests_and_at_shutdown() {
    let _guard = trace_lock().lock().expect("trace test lock");
    let dir = std::env::temp_dir().join(format!("dbpim-trace-dir-test-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let handle = Server::spawn(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        poll_interval: Duration::from_millis(50),
        pipeline: small_config(),
        trace_dir: Some(dir.clone()),
        trace_every: 2,
        ..ServeConfig::default()
    })
    .expect("server spawns");

    let mut client = Client::connect(handle.addr()).expect("connects");
    for _ in 0..4 {
        client.ping().expect("pings");
    }
    // A fifth request leaves a span for the shutdown dump.
    client.shutdown().expect("shutdown acknowledged");
    handle.join().expect("daemon exits cleanly");

    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .expect("the daemon created the trace dir")
        .map(|entry| entry.expect("dir entry").file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    assert_eq!(files, ["trace-2.json", "trace-4.json", "trace-final.json"]);
    // Each periodic dump holds the requests it is named for, the last one
    // included: pings 1-2, then pings 3-4, then the shutdown.
    for (file, pings) in files.iter().zip([2, 2, 0]) {
        let json = std::fs::read_to_string(dir.join(file)).expect("the dump reads");
        let value: Value = serde_json::from_str(&json).expect("the dump is well-formed JSON");
        let events = value.get("traceEvents").and_then(Value::as_seq).expect("traceEvents array");
        let requests: Vec<&str> = events
            .iter()
            .filter(|event| {
                event.get("name").and_then(Value::as_str) == Some("serve.request")
                    && event.get("ph").and_then(Value::as_str) == Some("X")
            })
            .filter_map(|event| event.get("args")?.get("kind")?.as_str())
            .collect();
        assert!(!requests.is_empty(), "no serve.request span in {file}");
        let counted = requests.iter().filter(|&&kind| kind == "Ping").count();
        assert_eq!(counted, pings, "Ping spans in {file}: {requests:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `MetricsSnapshot` ships the daemon's registry over the wire, and its
/// Prometheus rendering exposes the serve counters.
#[test]
fn metrics_snapshot_renders_prometheus_counters() {
    let handle = Server::spawn(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        poll_interval: Duration::from_millis(50),
        pipeline: small_config(),
        ..ServeConfig::default()
    })
    .expect("server spawns");

    let mut client = Client::connect(handle.addr()).expect("connects");
    client.ping().expect("pings");
    client.ping().expect("pings");
    let metrics = client.metrics_snapshot().expect("metrics answer");
    let text = metrics.render_prometheus();
    assert!(text.contains("# TYPE serve_requests counter\nserve_requests 3\n"), "{text}");
    assert!(text.contains("# TYPE serve_connections counter\nserve_connections 1\n"), "{text}");
    assert!(text.contains("# TYPE serve_latency_Ping histogram\n"), "{text}");
    assert!(text.contains("serve_latency_Ping_count 2\n"), "{text}");

    client.shutdown().expect("shutdown acknowledged");
    handle.join().expect("daemon exits cleanly");
}

/// Without an installed collector the macros hand out disabled guards and
/// record nothing; installing flips the global switch, uninstalling flips
/// it back.
#[test]
fn disabled_tracing_records_nothing() {
    let _guard = trace_lock().lock().expect("trace test lock");
    assert!(!dbpim_trace::enabled());
    {
        let _span = dbpim_trace::span!("test.noop", ignored = 1);
    }
    let collector = Arc::new(TraceCollector::new());
    dbpim_trace::install(Arc::clone(&collector));
    assert!(dbpim_trace::enabled());
    {
        let _span = dbpim_trace::span!("test.recorded", key = "value");
    }
    dbpim_trace::uninstall();
    assert!(!dbpim_trace::enabled());
    {
        let _span = dbpim_trace::span!("test.after", ignored = 2);
    }
    let spans = collector.snapshot();
    assert_eq!(spans.len(), 1);
    assert_eq!(spans[0].name, "test.recorded");
    assert_eq!(spans[0].args, vec![("key", "value".to_string())]);
}
