//! Workspace integration tests for the simulation-session layer: batched
//! sweeps must be bit-identical to independent `Pipeline` runs, artifact
//! caching must actually share work, and degenerate sweeps must behave.
//! A sweep is a `DseSpec` over a grid of one geometry, run by a `DseDriver`
//! on a shared `BatchRunner`.

use std::sync::Arc;

use db_pim::prelude::*;

fn small_config() -> PipelineConfig {
    let mut config = PipelineConfig::fast();
    config.width_mult = 0.25;
    config.calibration_images = 1;
    config.evaluation_images = 2;
    config
}

/// `models` × all four sparsity configurations on the session geometry.
fn sweep_spec(models: Vec<ModelKind>) -> DseSpec {
    DseSpec::new(ArchGrid::around(small_config().arch), models)
}

/// Runs `spec` through a driver on `runner`.
fn sweep(runner: &Arc<BatchRunner>, spec: &DseSpec) -> DseReport {
    DseDriver::from_runner(Arc::clone(runner)).run(spec).expect("sweep runs")
}

/// Artifact reuse across the four sparsity configurations produces
/// bit-identical `CodesignResult`s (including every `RunReport`) to
/// independent `Pipeline` runs.
#[test]
fn batch_runner_matches_independent_pipeline_runs() {
    let config = small_config();
    let runner = Arc::new(BatchRunner::new(config).expect("valid config"));
    let kinds = vec![ModelKind::AlexNet, ModelKind::MobileNetV2];
    let report = sweep(&runner, &sweep_spec(kinds.clone()).with_fidelity());
    assert_eq!(report.entries.len(), 2);
    assert_eq!(runner.cache_stats().artifact_misses, 2, "one preparation per model");
    let simulated: usize = report.entries.iter().map(|e| e.result.runs.len()).sum();
    assert_eq!(simulated, 8);

    let pipeline = Pipeline::new(config).expect("valid config");
    for (entry, kind) in report.entries.iter().zip(kinds) {
        assert_eq!((entry.kind, entry.arch), (kind, config.arch));
        let independent = pipeline.run_kind(kind).expect("pipeline runs");
        assert_eq!(entry.result, independent, "{kind:?} sweep result diverges from Pipeline");
    }
}

/// The LRU cap actually evicts: a capacity-1 session holds one prepared
/// model at a time, counts each eviction, rebuilds an evicted model on
/// re-request — and none of it changes the computed results.
#[test]
fn capped_sessions_evict_least_recently_used_artifacts() {
    let config = small_config();
    let session = SimSession::new(config).expect("valid config");
    session.set_cache_capacity(Some(1));

    let alexnet_cold = session.artifacts(ModelKind::AlexNet).expect("prepares A");
    let stats = session.cache_stats();
    assert_eq!((stats.resident_artifacts, stats.artifact_evictions), (1, 0));

    // Preparing a second model evicts the first (cap 1).
    session.artifacts(ModelKind::MobileNetV2).expect("prepares B");
    let stats = session.cache_stats();
    assert_eq!(stats.resident_artifacts, 1, "cap was not enforced: {stats:?}");
    assert_eq!(stats.artifact_evictions, 1, "{stats:?}");

    // The evicted model is a miss again — rebuilt, not resurrected — and
    // the rebuild evicts the other model in turn.
    let alexnet_again = session.artifacts(ModelKind::AlexNet).expect("rebuilds A");
    assert!(!Arc::ptr_eq(&alexnet_cold, &alexnet_again), "evicted artifacts were resurrected");
    let stats = session.cache_stats();
    assert_eq!(stats.artifact_misses, 3, "A, B, then A again: {stats:?}");
    assert_eq!(stats.artifact_evictions, 2, "{stats:?}");
    assert_eq!(stats.resident_artifacts, 1);

    // Eviction must never change results: the rebuilt artifacts simulate
    // bit-identically to an uncapped session's.
    let uncapped = SimSession::new(config).expect("valid config");
    let reference = uncapped.artifacts(ModelKind::AlexNet).expect("prepares");
    let run_a = alexnet_again
        .simulate(config.arch, SparsityConfig::HybridSparsity)
        .expect("capped simulates");
    let run_b = reference.simulate(config.arch, SparsityConfig::HybridSparsity).expect("uncapped");
    assert_eq!(run_a, run_b, "eviction changed simulation results");

    // LRU order: with cap 2, touching A makes B the eviction victim.
    let session = SimSession::new(config).expect("valid config");
    session.set_cache_capacity(Some(2));
    session.artifacts(ModelKind::AlexNet).expect("A");
    session.artifacts(ModelKind::MobileNetV2).expect("B");
    session.artifacts(ModelKind::AlexNet).expect("touch A");
    session.artifacts(ModelKind::ResNet18).expect("C evicts B");
    let stats = session.cache_stats();
    assert_eq!(stats.artifact_evictions, 1);
    // A survived (hit), B is gone (miss on re-request).
    let before = session.cache_stats().artifact_misses;
    session.artifacts(ModelKind::AlexNet).expect("A still cached");
    assert_eq!(session.cache_stats().artifact_misses, before, "A was wrongly evicted");
    session.artifacts(ModelKind::MobileNetV2).expect("B rebuilt");
    assert_eq!(session.cache_stats().artifact_misses, before + 1, "B should have been evicted");
}

/// A capped `BatchRunner` has one bound over every width: with cap 1,
/// preparing AlexNet at INT4 and then at INT8 leaves one artifact set
/// resident, the INT4 one evicted.
#[test]
fn batch_runner_cache_cap_reaches_width_sessions() {
    let runner = Arc::new(
        BatchRunner::new(small_config())
            .expect("valid config")
            .with_threads(1)
            .with_cache_cap(Some(1)),
    );
    let spec = sweep_spec(vec![ModelKind::AlexNet])
        .with_sparsity(vec![SparsityConfig::HybridSparsity])
        .with_widths(vec![OperandWidth::Int4, OperandWidth::Int8]);
    let report = sweep(&runner, &spec);
    assert_eq!(report.entries.len(), 2);
    let stats = runner.cache_stats();
    assert_eq!(stats.resident_artifacts, 1, "the cap did not cover the INT4 variant: {stats:?}");
    assert_eq!((stats.artifact_misses, stats.artifact_evictions), (2, 1), "{stats:?}");
}

/// An empty sweep returns an empty, complete report and prepares nothing.
#[test]
fn empty_sweep_returns_empty_report() {
    let runner = Arc::new(BatchRunner::new(small_config()).expect("valid config"));
    let report = sweep(&runner, &sweep_spec(Vec::new()));
    assert!(report.entries.is_empty());
    assert_eq!(report.total_points, 0);
    assert!(report.is_complete());
    assert_eq!(runner.cache_stats(), SessionCacheStats::default());
}

/// The session hands out the *same* artifacts (pointer-equal) on repeated
/// requests, and the runner reuses them across sparsity configurations.
#[test]
fn session_caches_artifacts_per_model() {
    let session = SimSession::new(small_config()).expect("valid config");
    let first = session.artifacts(ModelKind::AlexNet).expect("prepares");
    let second = session.artifacts(ModelKind::AlexNet).expect("cached");
    assert!(Arc::ptr_eq(&first, &second), "artifacts were re-prepared");

    // Compiled programs are cached per geometry too.
    let arch = session.config().arch;
    let p1 = first.programs(arch).expect("compiles");
    let p2 = first.programs(arch).expect("cached");
    assert!(Arc::ptr_eq(&p1, &p2), "programs were re-compiled");
}

/// A prepared model keeps one compiled geometry: compiling another one
/// releases the first, so a long exploration's memory does not grow with
/// the geometries it has seen.
#[test]
fn prepared_models_keep_one_compiled_geometry() {
    let session = SimSession::new(small_config()).expect("valid config");
    let artifacts = session.artifacts(ModelKind::AlexNet).expect("prepares");
    let a = session.config().arch;
    let b = ArchConfig { macros: a.macros * 2, ..a };
    let programs_a = artifacts.programs(a).expect("compiles");
    assert_eq!(Arc::strong_count(&programs_a), 2, "the slot holds it");
    let programs_b = artifacts.programs(b).expect("compiles");
    assert_eq!(Arc::strong_count(&programs_a), 1, "the first geometry was released");
    assert!(Arc::ptr_eq(&programs_b, &artifacts.programs(b).expect("cached")));
    let again = artifacts.programs(a).expect("recompiles");
    assert_eq!(*again, *programs_a, "recompiling is deterministic");
    let stats = session.cache_stats();
    assert_eq!((stats.program_misses, stats.program_hits), (3, 1));
}

/// Parallel and sequential execution of the same exploration agree
/// exactly: the runner's thread count is how many points its driver runs
/// at once. Two models × two widths × two geometries make four (model,
/// width) sets of two points; 3 threads take blocks of 3, 3 and 2 points,
/// so blocks split sets and a thread whose block drains steals.
#[test]
fn parallelism_does_not_change_results() {
    let grid = ArchGrid::around(small_config().arch).with_macros(vec![2, 4]);
    let spec = DseSpec::new(grid, vec![ModelKind::AlexNet, ModelKind::MobileNetV2])
        .with_widths(vec![OperandWidth::Int4, OperandWidth::Int8])
        .with_sparsity(vec![SparsityConfig::DenseBaseline, SparsityConfig::HybridSparsity]);
    let runner = |threads| {
        Arc::new(BatchRunner::new(small_config()).expect("valid config").with_threads(threads))
    };
    let sequential = sweep(&runner(1), &spec);
    assert_eq!(sequential.entries.len(), 8);
    for threads in [2, 3] {
        let parallel = sweep(&runner(threads), &spec);
        assert!(sequential.results_match(&parallel), "{threads} threads changed results");
    }
}

/// A sparsity subset sweeps only the requested configurations, in canonical
/// Fig. 7 order.
#[test]
fn sparsity_subset_is_honoured() {
    let runner = Arc::new(BatchRunner::new(small_config()).expect("valid config"));
    let spec = sweep_spec(vec![ModelKind::AlexNet])
        .with_sparsity(vec![SparsityConfig::HybridSparsity, SparsityConfig::DenseBaseline]);
    let report = sweep(&runner, &spec);
    let result = &report.entries[0].result;
    assert_eq!(result.runs.len(), 2);
    assert_eq!(result.runs[0].sparsity, SparsityConfig::DenseBaseline);
    assert_eq!(result.runs[1].sparsity, SparsityConfig::HybridSparsity);
    assert!(result.speedup(SparsityConfig::HybridSparsity) > 1.0);
}

/// Two distinct models sharing a name must not receive each other's cached
/// artifacts.
#[test]
fn same_name_different_model_is_not_served_from_cache() {
    let config = small_config();
    let session = SimSession::new(config).expect("valid config");
    // Both builders produce a model named "tiny_cnn", with different weights.
    let a = zoo::tiny_cnn(10, 3).expect("model builds");
    let b = zoo::tiny_cnn(10, 7).expect("model builds");
    let result_a = session.codesign_model(&a, true).expect("a runs");
    let result_b = session.codesign_model(&b, true).expect("b runs");
    assert_ne!(result_a.fta_stats, result_b.fta_stats, "b was served a's cached artifacts");

    let expected_b =
        Pipeline::new(config).expect("valid config").run_model(&b).expect("pipeline runs");
    assert_eq!(result_b, expected_b);
}

/// `SimSession::codesign` on a non-zoo model matches `Pipeline::run_model`.
#[test]
fn session_codesign_model_matches_pipeline() {
    let config = small_config();
    let session = SimSession::new(config).expect("valid config");
    let model = zoo::tiny_cnn(10, 3).expect("model builds");
    let via_session = session.codesign_model(&model, true).expect("session runs");
    let via_pipeline =
        Pipeline::new(config).expect("valid config").run_model(&model).expect("pipeline runs");
    assert_eq!(via_session, via_pipeline);
}

/// The runner's session caches every operand width: repeated sweeps at the
/// same widths reuse the prepared artifacts (no re-preparation), the
/// configured width is the session's own variant, and every width of one
/// model shares a single float model.
#[test]
fn width_sweeps_reuse_cached_artifacts_across_runs() {
    let runner = Arc::new(BatchRunner::new(small_config()).expect("valid config"));
    let spec = sweep_spec(vec![ModelKind::AlexNet])
        .with_sparsity(vec![SparsityConfig::DenseBaseline])
        .with_widths(vec![OperandWidth::Int4, OperandWidth::Int8]);

    let first = sweep(&runner, &spec);
    assert_eq!(first.entries.len(), 2);

    // The configured width (INT8) is the session's own variant...
    let session = runner.session();
    let at = |width| session.artifacts_at(ModelKind::AlexNet, width, PruningSpec::none());
    let int8 = at(OperandWidth::Int8).expect("int8 artifacts");
    let configured = session.artifacts(ModelKind::AlexNet).expect("configured artifacts");
    assert!(Arc::ptr_eq(&int8, &configured), "INT8 must be the configured variant");
    // ...and the artifacts the sweep prepared at another width are
    // pointer-identical on re-request.
    let int4_a = at(OperandWidth::Int4).expect("int4 artifacts");
    let int4_b = at(OperandWidth::Int4).expect("int4 artifacts again");
    assert!(Arc::ptr_eq(&int4_a, &int4_b), "artifacts were re-prepared");
    assert_eq!(int4_a.config().operand_width, OperandWidth::Int4);
    assert!(std::ptr::eq(int4_a.model(), int8.model()), "each width built its own float model");
    assert_eq!(runner.cache_stats().artifact_misses, 2);

    // A second identical sweep reproduces the first bit-for-bit, from the
    // same two preparations.
    let second = sweep(&runner, &spec);
    assert!(first.results_match(&second));
    assert_eq!(runner.cache_stats().artifact_misses, 2);
}

/// Runs `models` × `widths` under `sparsity` on the session geometry and
/// returns the shared runner, the spec and the complete report. Persisted
/// sweeps are `DseReport`s.
fn sweep_report(
    models: Vec<ModelKind>,
    widths: Vec<OperandWidth>,
    sparsity: Vec<SparsityConfig>,
) -> (Arc<BatchRunner>, DseSpec, DseReport) {
    let runner = Arc::new(BatchRunner::new(small_config()).expect("valid config"));
    let spec = sweep_spec(models).with_sparsity(sparsity).with_widths(widths);
    let full = sweep(&runner, &spec);
    assert!(full.is_complete());
    (runner, spec, full)
}

/// A sweep's report, complete or time-boxed, round-trips through the
/// vendored serde_json.
#[test]
fn sweep_report_merges_and_round_trips_through_serde_json() {
    let (runner, spec, full) = sweep_report(
        vec![ModelKind::AlexNet, ModelKind::MobileNetV2],
        vec![OperandWidth::Int8, OperandWidth::Int16],
        vec![SparsityConfig::DenseBaseline, SparsityConfig::HybridSparsity],
    );
    // A time-boxed run of the same point set: AlexNet's two widths lead the
    // canonical order.
    let partial = DseDriver::from_runner(Arc::clone(&runner))
        .with_point_limit(2)
        .run(&spec)
        .expect("a time-boxed run");
    assert!(partial.entries.iter().all(|e| e.kind == ModelKind::AlexNet));
    assert!(!partial.is_complete());

    // Serialization round-trip is lossless for every field.
    for report in [&full, &partial] {
        let json = serde_json::to_string(report).expect("serializes");
        let back: DseReport = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(report, &back, "DSE report did not survive the JSON round trip");
    }
}

/// Partial reports of a sweep's point set `save` and `load` back
/// bit-identically, and a missing or torn file is a structured error.
#[test]
fn sweep_report_shards_round_trip_through_disk_snapshots() {
    let (runner, spec, full) = sweep_report(
        vec![ModelKind::AlexNet, ModelKind::MobileNetV2],
        Vec::new(),
        vec![SparsityConfig::DenseBaseline, SparsityConfig::WeightSparsity],
    );
    let shard_a = DseDriver::from_runner(Arc::clone(&runner))
        .with_point_limit(1)
        .run(&spec)
        .expect("shard a runs");
    let mut shard_b = full.clone();
    shard_b.entries.retain(|e| e.kind == ModelKind::MobileNetV2);
    assert_eq!((shard_a.entries.len(), shard_b.entries.len()), (1, 1));

    let dir =
        std::env::temp_dir().join(format!("dbpim-shard-test-{}-{}", std::process::id(), line!()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path_a = dir.join("shard_a.json");
    let path_b = dir.join("shard_b.json");
    shard_a.save(&path_a).expect("shard a saves");
    shard_b.save(&path_b).expect("shard b saves");

    let loaded_a = DseReport::load(&path_a).expect("shard a loads");
    let loaded_b = DseReport::load(&path_b).expect("shard b loads");
    assert_eq!(loaded_a, shard_a, "shard a did not survive the disk round trip");
    assert_eq!(loaded_b, shard_b, "shard b did not survive the disk round trip");

    // Failure shapes are structured errors, not panics.
    assert!(DseReport::load(dir.join("missing.json")).is_err());
    let torn = dir.join("torn.json");
    std::fs::write(&torn, "{\"entries\":[").expect("write torn file");
    let err = DseReport::load(&torn).unwrap_err();
    assert!(err.to_string().contains("torn.json"), "error names the file: {err}");

    std::fs::remove_dir_all(&dir).ok();
}

/// Overlapping entries: a snapshot holding a point twice loads it once, the
/// first copy in the file wins, and the loaded report is in canonical order
/// whatever the file's order.
#[test]
fn overlapping_shards_dedupe_deterministically_on_merge() {
    let (runner, spec, shard_ab) = sweep_report(
        vec![ModelKind::AlexNet, ModelKind::MobileNetV2],
        Vec::new(),
        vec![SparsityConfig::DenseBaseline, SparsityConfig::HybridSparsity],
    );
    // The AlexNet point again, computed by a second, time-boxed run.
    let shard_a = DseDriver::from_runner(Arc::clone(&runner))
        .with_point_limit(1)
        .run(&spec)
        .expect("shard a runs");
    assert_eq!(shard_ab.entries.len(), 2);
    assert_eq!(shard_a.entries.len(), 1);

    let path = std::env::temp_dir().join(format!(
        "dbpim-overlap-test-{}-{}.json",
        std::process::id(),
        line!()
    ));
    // The overlapping AlexNet point is kept once, and the first copy wins:
    // whose copy is kept is all the file order decides.
    let mut overlapping = shard_ab.clone();
    overlapping.entries.push(shard_a.entries[0].clone());
    overlapping.save(&path).expect("overlapping report saves");
    let loaded = DseReport::load(&path).expect("overlapping report loads");
    assert_eq!(loaded.entries, shard_ab.entries, "duplicate point was not deduped");

    let mut reversed = shard_ab.clone();
    reversed.entries =
        vec![shard_ab.entries[1].clone(), shard_a.entries[0].clone(), shard_ab.entries[0].clone()];
    reversed.save(&path).expect("reversed report saves");
    let loaded_rev = DseReport::load(&path).expect("reversed report loads");
    assert_eq!(loaded_rev.entries.len(), 2);
    assert_eq!(loaded_rev.entries[0], shard_a.entries[0]);
    assert_eq!(loaded_rev.entries[1], shard_ab.entries[1]);
    assert!(loaded_rev.results_match(&loaded));

    // A report without duplicates loads back as it was saved.
    shard_ab.save(&path).expect("report saves");
    assert_eq!(DseReport::load(&path).expect("report loads"), shard_ab);
    std::fs::remove_file(&path).ok();
}

/// The session cache counters observe exactly what happened: one miss per
/// distinct model, hits on re-request, and program compilations counted
/// separately per geometry.
#[test]
fn session_cache_stats_count_builds_and_hits() {
    let session = SimSession::new(small_config()).expect("valid config");
    assert_eq!(session.cache_stats(), SessionCacheStats::default());

    session.artifacts(ModelKind::AlexNet).expect("prepares");
    let stats = session.cache_stats();
    assert_eq!(stats.artifact_misses, 1);
    assert_eq!(stats.artifact_hits, 0);
    assert_eq!(stats.resident_artifacts, 1);
    assert_eq!(stats.program_misses, 0, "no compilation before the first simulate");

    let artifacts = session.artifacts(ModelKind::AlexNet).expect("cached");
    let arch = session.config().arch;
    artifacts.simulate(arch, SparsityConfig::DenseBaseline).expect("simulates");
    artifacts.simulate(arch, SparsityConfig::HybridSparsity).expect("simulates");
    let stats = session.cache_stats();
    assert_eq!(stats.artifact_hits, 1);
    assert_eq!(stats.program_misses, 1, "both mappings compile under one miss");
    assert_eq!(stats.program_hits, 1);

    // A second model is a second miss.
    session.artifacts(ModelKind::MobileNetV2).expect("prepares");
    let stats = session.cache_stats();
    assert_eq!(stats.artifact_misses, 2);
    assert_eq!(stats.resident_artifacts, 2);
    assert_eq!(stats.total_requests(), 2 + 1 + 1 + 1);
}
