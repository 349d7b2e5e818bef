//! The determinism / resume contract of the design-space-exploration
//! driver:
//!
//! * a DSE run over a grid is bit-identical to independent per-point
//!   `Pipeline` runs at each geometry;
//! * save → kill → resume recomputes only the missing points (asserted via
//!   `SessionCacheStats`; report timestamps are ignored in equality);
//! * the extracted Pareto frontier matches a brute-force O(n²) reference.

use db_pim::prelude::*;

fn small_config() -> PipelineConfig {
    let mut config = PipelineConfig::fast();
    config.width_mult = 0.25;
    config.calibration_images = 1;
    config.evaluation_images = 2;
    config
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dbpim-dse-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

fn small_grid() -> ArchGrid {
    ArchGrid::around(ArchConfig::paper()).with_macros(vec![2, 4]).with_rows(vec![32, 64])
}

/// Every entry of a DSE run is bit-identical to an independent `Pipeline`
/// run configured at that entry's geometry — the grid driver adds caching
/// and persistence, never different numbers.
#[test]
fn dse_grid_is_bit_identical_to_per_point_pipeline_runs() {
    let config = small_config();
    let driver = DseDriver::new(config).expect("valid config");
    let spec = DseSpec::new(small_grid(), vec![ModelKind::AlexNet]).with_fidelity();
    let report = driver.run(&spec).expect("exploration runs");

    assert_eq!(report.total_points, 4);
    assert!(report.is_complete());
    assert_eq!(report.fresh_points, 4);

    for entry in &report.entries {
        let mut point_config = config;
        point_config.arch = entry.arch;
        let independent = Pipeline::new(point_config)
            .expect("valid per-point config")
            .run_kind(entry.kind)
            .expect("pipeline runs");
        assert_eq!(
            entry.result, independent,
            "DSE entry at {} macros x {} rows diverges from the direct Pipeline run",
            entry.arch.macros, entry.arch.rows_per_dbmu
        );
    }

    // The four geometries genuinely differ (the grid is not degenerate).
    let cycles: Vec<u64> = report
        .entries
        .iter()
        .map(|e| e.result.run(SparsityConfig::HybridSparsity).expect("hybrid run").total_cycles())
        .collect();
    assert!(cycles.windows(2).any(|w| w[0] != w[1]), "all grid points simulated identically");
}

/// Save → kill → resume: a snapshot with half its entries deleted is
/// completed by re-simulating only the missing points. The session cache
/// counters prove nothing else was rebuilt, surviving entries keep their
/// original timestamps, and the resumed report equals the cold one with
/// timestamps ignored.
#[test]
fn resume_from_snapshot_recomputes_only_missing_points() {
    let config = small_config();
    let path = temp_path("resume.json");
    let spec = DseSpec::new(small_grid(), vec![ModelKind::AlexNet]).with_fidelity();

    // Cold run, snapshotted per batch of 2.
    let cold_driver =
        DseDriver::new(config).expect("valid config").with_snapshot(&path).with_batch_size(2);
    let cold = cold_driver.run(&spec).expect("cold run");
    assert_eq!(cold.fresh_points, 4);
    let saved = DseReport::load(&path).expect("snapshot readable");
    assert!(saved.results_match(&cold), "snapshot does not reflect the cold run");

    // "Kill" the run after half the grid: drop the last two entries from
    // the snapshot, as if the process died mid-exploration.
    let mut torn = saved.clone();
    torn.entries.truncate(2);
    torn.save(&path).expect("torn snapshot saves");

    // Resume with a *fresh* driver (empty caches, as after a real kill).
    let resume_driver =
        DseDriver::new(config).expect("valid config").with_snapshot(&path).with_batch_size(2);
    let resumed = resume_driver.run(&spec).expect("resume runs");

    assert_eq!(resumed.fresh_points, 2, "resume recomputed more than the missing points");
    assert!(resumed.is_complete());
    assert!(resumed.results_match(&cold), "resumed results diverge from the cold run");

    // Adopted entries are carried over verbatim — timestamps included —
    // while the two recomputed points were actually executed.
    assert_eq!(resumed.entries[0], torn.entries[0]);
    assert_eq!(resumed.entries[1], torn.entries[1]);

    // The cache counters prove the resume's work: one artifact build for
    // the single (model, width), and exactly two program compilations —
    // one per missing geometry. The surviving geometries were never
    // touched.
    let stats = resume_driver.cache_stats();
    assert_eq!(stats.artifact_misses, 1, "artifacts rebuilt more than once: {stats:?}");
    assert_eq!(stats.program_misses, 2, "non-missing geometries were re-compiled: {stats:?}");
    // Each recomputed point simulates the four sparsity configurations
    // from its one compiled program pair: 3 warm program hits per point.
    assert_eq!(stats.program_hits, 6, "{stats:?}");

    // A second resume finds nothing missing and recomputes nothing.
    let noop_driver = DseDriver::new(config).expect("valid config").with_snapshot(&path);
    let noop = noop_driver.run(&spec).expect("no-op resume runs");
    assert_eq!(noop.fresh_points, 0);
    assert!(noop.results_match(&cold));
    assert_eq!(noop_driver.cache_stats().program_misses, 0);

    std::fs::remove_file(&path).ok();
}

/// The extracted Pareto frontier equals a brute-force O(n²) reference with
/// an independently written dominance check.
#[test]
fn pareto_frontier_matches_brute_force_reference() {
    let config = small_config();
    let driver = DseDriver::new(config).expect("valid config");
    let grid = ArchGrid::around(ArchConfig::paper())
        .with_macros(vec![2, 4])
        .with_rows(vec![32, 64])
        .with_frequencies(vec![250.0, 500.0]);
    let spec = DseSpec::new(grid, vec![ModelKind::AlexNet])
        .with_widths(vec![OperandWidth::Int4, OperandWidth::Int8])
        .with_sparsity(vec![SparsityConfig::DenseBaseline, SparsityConfig::HybridSparsity]);
    let report = driver.run(&spec).expect("exploration runs");
    assert_eq!(report.entries.len(), 16);

    let frontier = report.pareto_frontier(ModelKind::AlexNet, SparsityConfig::HybridSparsity);
    assert!(!frontier.is_empty(), "a non-empty point set has a non-empty frontier");

    // Brute force: a candidate is on the frontier iff no other candidate is
    // at least as good on every objective and strictly better on one.
    let area = AreaModel::calibrated_28nm();
    let candidates: Vec<(usize, ParetoMetrics)> = report
        .entries
        .iter()
        .enumerate()
        .filter_map(|(i, e)| {
            e.metrics(SparsityConfig::HybridSparsity, &area).map(|metrics| (i, metrics))
        })
        .collect();
    assert_eq!(candidates.len(), 16, "every entry simulated the hybrid configuration");
    let beats = |a: &ParetoMetrics, b: &ParetoMetrics| {
        let better_or_equal = a.latency_ms <= b.latency_ms
            && a.energy_uj <= b.energy_uj
            && a.area_mm2 <= b.area_mm2
            && a.fidelity_loss <= b.fidelity_loss;
        let strictly = a.latency_ms < b.latency_ms
            || a.energy_uj < b.energy_uj
            || a.area_mm2 < b.area_mm2
            || a.fidelity_loss < b.fidelity_loss;
        better_or_equal && strictly
    };
    let brute: Vec<usize> = candidates
        .iter()
        .filter(|(i, m)| !candidates.iter().any(|(j, other)| i != j && beats(other, m)))
        .map(|(i, _)| *i)
        .collect();

    let extracted: Vec<usize> = frontier.iter().map(|(i, _)| *i).collect();
    assert_eq!(extracted, brute, "frontier diverges from the O(n^2) reference");

    // Sanity: every non-frontier candidate is dominated by a frontier
    // member, and no frontier member dominates another.
    for (i, m) in &candidates {
        if extracted.contains(i) {
            assert!(
                !frontier.iter().any(|(j, fm)| j != i && fm.dominates(m)),
                "frontier member {i} is dominated"
            );
        } else {
            assert!(
                frontier.iter().any(|(_, fm)| fm.dominates(m)),
                "dropped candidate {i} is not dominated by any frontier member"
            );
        }
    }
}

/// The cross-model aggregate Pareto frontier — "which (width, geometry)
/// should serve this workload mix" — matches a from-scratch brute-force
/// reference: independently aggregated metrics, independently extracted
/// non-dominated set.
#[test]
fn aggregate_frontier_matches_a_brute_force_reference() {
    let config = small_config().without_fidelity();
    let driver = DseDriver::new(config).expect("valid config");
    let grid =
        ArchGrid::around(ArchConfig::paper()).with_macros(vec![2, 4, 8]).with_rows(vec![32, 64]);
    let spec = DseSpec::new(grid, vec![ModelKind::AlexNet, ModelKind::MobileNetV2])
        .with_sparsity(vec![SparsityConfig::DenseBaseline, SparsityConfig::HybridSparsity]);
    let report = driver.run(&spec).expect("exploration runs");
    assert_eq!(report.entries.len(), 12);

    // A traffic blend: twice as many MobileNetV2 requests as AlexNet.
    let mix = [(ModelKind::AlexNet, 1.0), (ModelKind::MobileNetV2, 2.0)];
    let sparsity = SparsityConfig::HybridSparsity;
    let candidates = report.aggregate_metrics(&mix, sparsity);
    assert_eq!(candidates.len(), 6, "one candidate per (width, geometry)");

    // Brute-force aggregation: recompute each candidate from the raw
    // entries with independent arithmetic.
    let area = AreaModel::calibrated_28nm();
    for candidate in &candidates {
        let mut latency = 0.0;
        let mut energy = 0.0;
        let mut loss = 0.0;
        let mut weight_total = 0.0;
        for &(kind, weight) in &mix {
            let entry = report
                .entries
                .iter()
                .find(|e| e.kind == kind && e.width == candidate.width && e.arch == candidate.arch)
                .expect("mix member present");
            let run = entry.result.run(sparsity).expect("hybrid simulated");
            latency += weight * run.latency_ms();
            energy += weight * run.total_energy_uj();
            loss += weight * entry.result.fidelity.as_ref().map_or(1.0, |f| 1.0 - f.top1_agreement);
            weight_total += weight;
        }
        assert!((candidate.metrics.latency_ms - latency).abs() < 1e-9, "latency aggregation");
        assert!((candidate.metrics.energy_uj - energy).abs() < 1e-9, "energy aggregation");
        assert!(
            (candidate.metrics.fidelity_loss - loss / weight_total).abs() < 1e-12,
            "fidelity aggregation"
        );
        assert!(
            (candidate.metrics.area_mm2 - area.total_mm2(&candidate.arch)).abs() < 1e-12,
            "area is the shared geometry's"
        );
    }

    // Brute-force frontier over the aggregated candidates with an
    // independently written dominance check.
    let beats = |a: &ParetoMetrics, b: &ParetoMetrics| {
        let no_worse = a.latency_ms <= b.latency_ms
            && a.energy_uj <= b.energy_uj
            && a.area_mm2 <= b.area_mm2
            && a.fidelity_loss <= b.fidelity_loss;
        let better = a.latency_ms < b.latency_ms
            || a.energy_uj < b.energy_uj
            || a.area_mm2 < b.area_mm2
            || a.fidelity_loss < b.fidelity_loss;
        no_worse && better
    };
    let brute: Vec<&MixCandidate> = candidates
        .iter()
        .filter(|c| !candidates.iter().any(|other| beats(&other.metrics, &c.metrics)))
        .collect();
    let frontier = report.aggregate_pareto_frontier(&mix, sparsity);
    assert!(!frontier.is_empty());
    assert_eq!(
        frontier.iter().collect::<Vec<_>>(),
        brute,
        "aggregate frontier diverges from the O(n^2) reference"
    );

    // Degenerate mixes behave: an empty mix (or all-zero weights)
    // aggregates nothing, a missing model yields no candidates.
    assert!(report.aggregate_metrics(&[], sparsity).is_empty());
    assert!(report.aggregate_metrics(&[(ModelKind::AlexNet, 0.0)], sparsity).is_empty());
    assert!(report.aggregate_metrics(&[(ModelKind::Vgg19, 1.0)], sparsity).is_empty());
}

/// A geometry that cannot hold one weight of a swept width fails before any
/// model is prepared, at every entry point: a DSE spec's point list, a
/// sweep and a single point.
#[test]
fn infeasible_widths_fail_before_any_model_is_prepared() {
    let config = small_config().without_fidelity();
    let grid = ArchGrid::around(ArchConfig::paper()).with_dbmus(vec![4]);
    let narrow = grid.enumerate().expect("the geometry alone is valid")[0];
    let hybrid = [SparsityConfig::HybridSparsity];

    let driver = DseDriver::new(config).expect("valid config");
    let spec = DseSpec::new(grid, vec![ModelKind::AlexNet]).with_widths(vec![OperandWidth::Int8]);
    let err = driver.run(&spec).expect_err("8 weight bit columns cannot fit 4");
    assert!(err.to_string().contains("grid point 0 is infeasible"), "{err}");
    assert_eq!(driver.cache_stats().artifact_misses, 0, "the spec prepared a model");

    let runner = BatchRunner::new(config).expect("valid config");
    let sweep = SweepSpec::new(vec![ModelKind::AlexNet]).with_archs(vec![narrow]);
    let err = runner.run(&sweep).expect_err("8 weight bit columns cannot fit 4");
    assert!(err.to_string().contains("weight bit columns"), "{err}");
    assert_eq!(runner.cache_stats().artifact_misses, 0, "the sweep prepared a model");

    let point = |width| {
        runner.run_point_pruned(
            ModelKind::AlexNet,
            width,
            PruningSpec::none(),
            Some(narrow),
            &hybrid,
            false,
        )
    };
    let err = point(OperandWidth::Int8).expect_err("8 weight bit columns cannot fit 4");
    assert!(err.to_string().contains("weight bit columns"), "{err}");
    assert_eq!(runner.cache_stats().artifact_misses, 0, "the point prepared a model");

    // INT4 weights fit the same geometry.
    point(OperandWidth::Int4).expect("4 weight bit columns fit");
}

/// Structured failure shapes: infeasible grids are rejected before any
/// work, and a snapshot recorded under a different spec refuses to resume
/// instead of silently mixing results.
#[test]
fn infeasible_grids_and_foreign_snapshots_are_structured_errors() {
    let config = small_config().without_fidelity();

    // Zero macros: rejected at enumeration, with the point named.
    let driver = DseDriver::new(config).expect("valid config");
    let bad = DseSpec::new(
        ArchGrid::around(ArchConfig::paper()).with_macros(vec![4, 0]),
        vec![ModelKind::AlexNet],
    );
    let err = driver.run(&bad).expect_err("zero macros must be rejected");
    assert!(err.to_string().contains("infeasible"), "{err}");

    // A weight buffer below one tile is equally infeasible.
    let bad = DseSpec::new(
        ArchGrid::around(ArchConfig::paper()).with_rows(vec![64]).with_weight_buffers(vec![16]),
        vec![ModelKind::AlexNet],
    );
    let err = driver.run(&bad).expect_err("undersized buffer must be rejected");
    assert!(err.to_string().contains("weight buffer"), "{err}");

    // An oversized cross product never starts executing.
    let bad = DseSpec::new(
        ArchGrid::around(ArchConfig::paper())
            .with_macros((1..=20).collect())
            .with_rows((1..=20).map(|i| i * 8).collect())
            .with_frequencies((1..=20).map(|i| f64::from(i) * 50.0).collect()),
        vec![ModelKind::AlexNet],
    );
    let err = driver.run(&bad).expect_err("oversized grid must be rejected");
    assert!(err.to_string().contains("maximum"), "{err}");

    // Resuming a snapshot that answers a different spec is refused.
    let path = temp_path("foreign.json");
    let spec_a = DseSpec::new(
        ArchGrid::around(ArchConfig::paper()).with_macros(vec![2]),
        vec![ModelKind::MobileNetV2],
    )
    .with_sparsity(vec![SparsityConfig::DenseBaseline]);
    let driver = DseDriver::new(config).expect("valid config").with_snapshot(&path);
    driver.run(&spec_a).expect("spec A runs");
    let spec_b = spec_a.clone().with_sparsity(vec![SparsityConfig::HybridSparsity]);
    let err = driver.run(&spec_b).expect_err("foreign snapshot must be refused");
    assert!(err.to_string().contains("different spec"), "{err}");

    std::fs::remove_file(&path).ok();
}
