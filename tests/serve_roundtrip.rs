//! The serving layer's headline contract: a daemon-served answer is
//! bit-identical to the same query run directly through `Pipeline` /
//! `BatchRunner`, repeated requests are served from the warm artifact cache
//! (asserted via the session cache-hit counters, not timing), and N
//! concurrent clients asking for the same (model, width) trigger exactly
//! one artifact build.

use std::sync::Arc;
use std::time::Duration;

use db_pim::prelude::*;
use dbpim_serve::{Client, RunQuery, ServeConfig, Server};

fn small_config() -> PipelineConfig {
    let mut config = PipelineConfig::fast();
    config.width_mult = 0.25;
    config.calibration_images = 1;
    config.evaluation_images = 2;
    config
}

fn serve_config(pipeline: PipelineConfig, threads: usize) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads,
        poll_interval: Duration::from_millis(50),
        pipeline,
        ..ServeConfig::default()
    }
}

fn spawn_server(pipeline: PipelineConfig, threads: usize) -> dbpim_serve::ServerHandle {
    Server::spawn(serve_config(pipeline, threads)).expect("server spawns")
}

/// A served `RunModel` (all four sparsity configurations, fidelity on) is
/// bit-identical to `Pipeline::run_model` on the same configuration.
#[test]
fn served_run_model_matches_direct_pipeline() {
    let config = small_config();
    let handle = spawn_server(config, 2);
    let mut client = Client::connect(handle.addr()).expect("connects");
    assert_eq!(client.ping().expect("pings"), dbpim_serve::PROTOCOL_VERSION);

    let entry = client
        .run_model(&RunQuery::new(ModelKind::AlexNet).with_fidelity())
        .expect("served run succeeds");
    assert_eq!(entry.kind, ModelKind::AlexNet);
    assert_eq!(entry.width, config.operand_width);
    assert_eq!(entry.arch, config.arch);

    let direct = Pipeline::new(config)
        .expect("valid config")
        .run_kind(ModelKind::AlexNet)
        .expect("direct run succeeds");
    assert_eq!(entry.result, direct, "served result diverges from the direct pipeline");

    client.shutdown().expect("shutdown acknowledged");
    handle.join().expect("daemon exits cleanly");
}

/// Authentication is transparent to the numbers: the same `RunModel` served
/// by an auth-required daemon (after the handshake) and by an open daemon is
/// bit-identical to the direct pipeline run.
#[test]
fn served_results_are_bit_identical_with_auth_on_and_off() {
    let config = small_config().without_fidelity();
    let direct = Pipeline::new(config)
        .expect("valid config")
        .run_kind(ModelKind::MobileNetV2)
        .expect("direct run succeeds");

    let open_handle = spawn_server(config, 2);
    let mut open_client = Client::connect(open_handle.addr()).expect("connects");
    let served_open =
        open_client.run_model(&RunQuery::new(ModelKind::MobileNetV2)).expect("open run succeeds");

    let locked_handle = Server::spawn(ServeConfig {
        auth_token: Some("roundtrip-secret".to_string()),
        ..serve_config(config, 2)
    })
    .expect("server spawns");
    let mut locked_client = Client::connect(locked_handle.addr()).expect("connects");
    locked_client.authenticate("roundtrip-secret").expect("handshake succeeds");
    let served_locked = locked_client
        .run_model(&RunQuery::new(ModelKind::MobileNetV2))
        .expect("authed run succeeds");

    assert_eq!(served_open.result, direct, "open daemon diverges from the direct pipeline");
    assert_eq!(served_locked, served_open, "auth handshake changed the served bits");

    open_client.shutdown().expect("shutdown acknowledged");
    open_handle.join().expect("daemon exits cleanly");
    locked_client.shutdown().expect("shutdown acknowledged");
    locked_handle.join().expect("daemon exits cleanly");
}

/// A served sweep streams its entries in deterministic order and reassembles
/// into exactly the report `BatchRunner` produces locally (modulo wall time,
/// which is measured, not computed). This holds with and without the
/// `archs` axis, which only wire clients set; there, each served entry also
/// equals the `DseDriver` entry at its geometry.
#[test]
fn served_sweep_matches_direct_batch_runner() {
    let config = small_config().without_fidelity();
    let models = vec![ModelKind::AlexNet, ModelKind::MobileNetV2];
    let widths = vec![OperandWidth::Int4, OperandWidth::Int8];
    let grid = ArchGrid::around(ArchConfig::paper()).with_macros(vec![2, 4]);
    let archs = grid.enumerate().expect("feasible grid");
    assert_eq!(archs.len(), 2);
    let specs = [
        SweepSpec::new(models.clone()).with_widths(widths.clone()),
        SweepSpec::new(models.clone()).with_widths(widths.clone()).with_archs(archs),
    ];

    let handle = spawn_server(config, 2);
    let mut client = Client::connect(handle.addr()).expect("connects");
    let runner = Arc::new(BatchRunner::new(config).expect("valid config"));
    let mut served_reports = Vec::new();
    for spec in &specs {
        let mut streamed = Vec::new();
        let served = client
            .sweep_streaming(spec, false, None, None, |index, entry| {
                streamed.push((index, entry.kind));
            })
            .expect("served sweep succeeds");
        let direct = runner.run(spec).expect("direct sweep succeeds");

        assert_eq!(served.entries, direct.entries, "served sweep diverges from BatchRunner");
        assert_eq!(served.prepared_models, direct.prepared_models);
        assert_eq!(served.simulated_runs, direct.simulated_runs);

        // The stream arrived incrementally and in entry order.
        assert_eq!(streamed.len(), served.entries.len());
        for (position, (index, kind)) in streamed.iter().enumerate() {
            assert_eq!(*index, position);
            assert_eq!(*kind, served.entries[position].kind);
        }
        served_reports.push(served);
    }

    let with_archs = &served_reports[1];
    assert_eq!(with_archs.entries.len(), 2 * 2 * 2, "models x widths x geometries");
    let explored = DseDriver::from_runner(Arc::clone(&runner))
        .run(&DseSpec::new(grid, models).with_widths(widths))
        .expect("driver runs");
    assert_eq!(explored.entries.len(), with_archs.entries.len());
    for entry in &with_archs.entries {
        let point = DsePoint {
            kind: entry.kind,
            width: entry.width,
            pruning: entry.pruning,
            arch: entry.arch,
        };
        let at = explored.entry(&point).expect("the driver ran the same geometry");
        assert_eq!(at.result, entry.result, "served sweep diverges from DseDriver at {point:?}");
    }

    client.shutdown().expect("shutdown acknowledged");
    handle.join().expect("daemon exits cleanly");
}

/// Pruning-carrying specs cross the wire intact: a served joint
/// (pruning × width) sweep and a pruning-grid `Explore` are bit-identical
/// to their direct `BatchRunner` / `DseDriver` counterparts.
#[test]
fn served_joint_sparsity_queries_match_direct_drivers() {
    let config = small_config().without_fidelity();
    let prunings = vec![PruningSpec::none(), PruningSpec::unstructured(0.5)];

    let handle = spawn_server(config, 2);
    let mut client = Client::connect(handle.addr()).expect("connects");

    let sweep_spec = SweepSpec::new(vec![ModelKind::AlexNet])
        .with_sparsity(vec![SparsityConfig::HybridSparsity])
        .with_widths(vec![OperandWidth::Int4, OperandWidth::Int8])
        .with_pruning(prunings.clone());
    let served = client.sweep(&sweep_spec, false).expect("served sweep succeeds");
    let direct = BatchRunner::new(config)
        .expect("valid config")
        .run(&sweep_spec)
        .expect("direct sweep succeeds");
    assert_eq!(served.entries, direct.entries, "served joint sweep diverges from BatchRunner");
    assert_eq!(served.entries.len(), 4, "2 widths x 2 prunings");
    assert!(served.entries.iter().any(|e| e.pruning.is_active()), "pruning lost over the wire");

    let explore_spec = DseSpec::new(
        ArchGrid::around(ArchConfig::paper()).with_macros(vec![2, 4]).with_rows(vec![64]),
        vec![ModelKind::AlexNet],
    )
    .with_sparsity(vec![SparsityConfig::HybridSparsity])
    .with_pruning(prunings);
    let served = client.explore(&explore_spec).expect("served explore succeeds");
    let direct = DseDriver::new(config)
        .expect("valid config")
        .run(&explore_spec)
        .expect("direct explore succeeds");
    assert_eq!(served.total_points, 4, "2 geometries x 2 prunings");
    assert!(
        served.results_match(&direct),
        "served joint exploration diverges from the local DseDriver"
    );

    client.shutdown().expect("shutdown acknowledged");
    handle.join().expect("daemon exits cleanly");
}

/// Repeating a request hits the warm cache: the artifact-build counter does
/// not move, the hit counter does, and no recompilation happens.
#[test]
fn repeated_requests_are_served_from_warm_cache() {
    let config = small_config().without_fidelity();
    let handle = spawn_server(config, 2);
    let mut client = Client::connect(handle.addr()).expect("connects");

    let query = RunQuery::new(ModelKind::AlexNet);
    let cold = client.run_model(&query).expect("cold run succeeds");
    let after_cold = client.cache_stats().expect("stats").cache;
    assert_eq!(after_cold.artifact_misses, 1, "first request builds once");
    assert_eq!(after_cold.program_misses, 1, "first request compiles once");
    assert_eq!(after_cold.resident_artifacts, 1);

    let warm = client.run_model(&query).expect("warm run succeeds");
    assert_eq!(warm, cold, "warm result diverges from the cold one");
    let after_warm = client.cache_stats().expect("stats").cache;
    assert_eq!(after_warm.artifact_misses, 1, "no re-preparation on a repeat");
    assert_eq!(after_warm.program_misses, 1, "no recompilation on a repeat");
    assert!(after_warm.artifact_hits > after_cold.artifact_hits, "repeat was a cache hit");
    assert!(after_warm.program_hits > after_cold.program_hits);

    // A second client shares the same warm cache.
    let mut other = Client::connect(handle.addr()).expect("second client connects");
    other.run_model(&query).expect("other client's run succeeds");
    let after_other = other.cache_stats().expect("stats").cache;
    assert_eq!(after_other.artifact_misses, 1, "second client reuses the same artifacts");

    client.shutdown().expect("shutdown acknowledged");
    handle.join().expect("daemon exits cleanly");
}

/// N concurrent clients requesting the same (model, width) cause exactly one
/// artifact preparation — the session layer's single-flight guarantee,
/// observed through the daemon's counters.
#[test]
fn concurrent_clients_share_one_artifact_build() {
    const CLIENTS: usize = 4;
    let config = small_config().without_fidelity();
    let handle = spawn_server(config, CLIENTS);
    let addr = handle.addr();

    let results: Vec<SweepEntry> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connects");
                    client
                        .run_model(&RunQuery::new(ModelKind::MobileNetV2))
                        .expect("concurrent run succeeds")
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("client thread")).collect()
    });

    // Every client got the same bits.
    for entry in &results[1..] {
        assert_eq!(entry, &results[0], "concurrent clients disagree");
    }

    let mut client = Client::connect(addr).expect("connects");
    let stats = client.cache_stats().expect("stats");
    assert_eq!(
        stats.cache.artifact_misses, 1,
        "{CLIENTS} concurrent requests must build artifacts exactly once"
    );
    assert_eq!(stats.cache.program_misses, 1, "and compile exactly once");
    assert_eq!(stats.cache.artifact_hits as usize, CLIENTS - 1);

    client.shutdown().expect("shutdown acknowledged");
    handle.join().expect("daemon exits cleanly");
}
