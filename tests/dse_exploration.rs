//! The determinism / resume contract of the design-space-exploration
//! driver:
//!
//! * a DSE run over a grid is bit-identical to independent per-point
//!   `Pipeline` runs at each geometry;
//! * save → kill → resume recomputes only the missing points (asserted via
//!   `SessionCacheStats`; report timestamps are ignored in equality);
//! * the extracted Pareto frontier matches a brute-force O(n²) reference.

use std::sync::{Arc, Condvar, Mutex, OnceLock};

use db_pim::dse::{DseEvent, PointError, PointExecutor, PointJob};
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

    // Cold run, journaled per point.
    let cold_driver = DseDriver::new(config).expect("valid config").with_snapshot(&path);
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
    let resume_driver = DseDriver::new(config).expect("valid config").with_snapshot(&path);
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
    // Each recomputed point fetches its one compiled program pair once and
    // simulates the four sparsity configurations from it: no second lookup.
    assert_eq!(stats.program_hits, 0, "{stats:?}");

    // A second resume finds nothing missing and recomputes nothing.
    let noop_driver = DseDriver::new(config).expect("valid config").with_snapshot(&path);
    let noop = noop_driver.run(&spec).expect("no-op resume runs");
    assert_eq!(noop.fresh_points, 0);
    assert!(noop.results_match(&cold));
    assert_eq!(noop_driver.cache_stats().program_misses, 0);

    std::fs::remove_file(&path).ok();
}

/// A cold snapshotted run of the small grid (4 AlexNet points), its
/// snapshot path, and the spec.
fn snapshotted_cold_run(name: &str) -> (DseReport, std::path::PathBuf, DseSpec) {
    let path = temp_path(name);
    let spec = DseSpec::new(small_grid(), vec![ModelKind::AlexNet])
        .with_sparsity(vec![SparsityConfig::DenseBaseline, SparsityConfig::HybridSparsity]);
    let driver = DseDriver::new(small_config().without_fidelity())
        .expect("valid config")
        .with_snapshot(&path);
    let cold = driver.run(&spec).expect("cold run");
    assert_eq!(cold.entries.len(), 4);
    (cold, path, spec)
}

/// `report` without its entries: what a journal's first line holds.
fn header_of(report: &DseReport) -> DseReport {
    DseReport { entries: Vec::new(), ..report.clone() }
}

/// `entry` as one journal line, newline included.
fn record(entry: &DseEntry) -> String {
    serde_json::to_string(entry).expect("encodes") + "\n"
}

/// A finished run leaves a journal — its header, then one line per entry —
/// that loads back as the report the run returned; a whole report on one
/// line (what `DseReport::save` and older runs wrote) or spread over many
/// lines (as `jq` rewrites it) loads as that report; and a journal of
/// header, adopted entries and appended records loads back as the same
/// report: entries in canonical order whatever the append order, and of two
/// records for one point the first.
#[test]
fn snapshot_journals_round_trip_and_finished_runs_leave_a_journal() {
    let (cold, path, _) = snapshotted_cold_run("journal-round-trip.json");
    let text = std::fs::read_to_string(&path).expect("snapshot readable");
    assert_eq!(text.lines().count(), 1 + cold.entries.len(), "a header and one line per entry");
    let (finished, torn) = DseReport::load_journal(&path).expect("the journal loads");
    assert_eq!(torn, None);
    assert_eq!(finished.entries, cold.entries, "the journaled entries, timestamps included");
    assert!(finished.results_match(&cold) && finished.is_complete());
    let header: DseReport =
        serde_json::from_str(text.lines().next().expect("a header")).expect("header parses");
    assert!(header.entries.is_empty());
    assert_eq!(
        (header.fresh_points, header.wall_time, header.saved_at_ms),
        (0, std::time::Duration::ZERO, cold.saved_at_ms),
        "the counters and wall time at the run's start"
    );

    let whole = DseReport { saved_at_ms: cold.saved_at_ms + 1, ..cold.clone() };
    whole.save(&path).expect("saves");
    let text = std::fs::read_to_string(&path).expect("snapshot readable");
    assert!(!text.contains('\n'), "a saved report is one line");
    assert_eq!(DseReport::load(&path).expect("loads"), whole);
    // A whole report spread over many lines, as `jq` rewrites it, is still
    // one report, not a journal with a malformed header.
    std::fs::write(&path, text.replace("\":", "\":\n  ")).expect("writes");
    assert_eq!(DseReport::load(&path).expect("a multi-line report loads"), whole);

    let mut adopted = header_of(&cold);
    adopted.entries = cold.entries[2..].to_vec();
    let journal = DseJournal::create(&path, &adopted).expect("journal created");
    let mut duplicate = cold.entries[3].clone();
    duplicate.computed_at_ms += 1;
    for entry in [&cold.entries[1], &duplicate, &cold.entries[0]] {
        journal.append(entry).expect("appends");
    }
    drop(journal);
    let text = std::fs::read_to_string(&path).expect("journal readable");
    assert_eq!(text.lines().count(), 1 + 2 + 3, "header, adopted entries, appended records");
    assert!(text.ends_with('\n'));

    let (loaded, torn) = DseReport::load_journal(&path).expect("journal loads");
    assert_eq!(torn, None);
    assert_eq!(loaded.entries, cold.entries, "canonical order, first copy of the duplicate");
    assert_eq!(header_of(&loaded), header_of(&cold));
    std::fs::remove_file(&path).ok();
}

/// A kill mid-append leaves a torn final record: loading drops it and says
/// how long it was, and a resume recomputes exactly that point.
#[test]
fn a_torn_final_record_is_dropped_and_only_its_point_recomputed() {
    let (cold, path, spec) = snapshotted_cold_run("journal-torn.json");
    let mut adopted = header_of(&cold);
    adopted.entries = cold.entries[..3].to_vec();
    drop(DseJournal::create(&path, &adopted).expect("journal created"));
    let record = record(&cold.entries[3]);
    let cut = &record[..record.len() / 2];
    let mut file = std::fs::OpenOptions::new().append(true).open(&path).expect("opens");
    std::io::Write::write_all(&mut file, cut.as_bytes()).expect("torn write");
    drop(file);

    let (loaded, torn) = DseReport::load_journal(&path).expect("a torn tail still loads");
    assert_eq!(torn, Some(cut.len()));
    assert_eq!(loaded.entries, adopted.entries);

    let driver = DseDriver::new(small_config().without_fidelity())
        .expect("valid config")
        .with_snapshot(&path);
    let resumed = driver.run(&spec).expect("resume runs");
    assert_eq!(resumed.fresh_points, 1, "only the torn point is recomputed");
    assert!(resumed.results_match(&cold));
    assert_eq!(resumed.entries[..3], adopted.entries[..], "adopted entries are verbatim");
    std::fs::remove_file(&path).ok();
}

/// Only the final line may be torn: an unparsable first line or a
/// malformed line before the last is an error naming the file and line,
/// never a silent partial resume.
#[test]
fn a_torn_header_or_malformed_middle_line_is_an_error() {
    let (cold, path, spec) = snapshotted_cold_run("journal-malformed.json");
    let driver = DseDriver::new(small_config().without_fidelity())
        .expect("valid config")
        .with_snapshot(&path);

    let header = serde_json::to_string(&header_of(&cold)).expect("encodes");
    let record = record(&cold.entries[0]);
    std::fs::write(&path, format!("{header}\n{{\"kind\":\n{record}")).expect("writes");
    let err = driver.run(&spec).expect_err("a malformed middle line must not resume");
    assert!(err.to_string().contains("journal-malformed.json (line 2)"), "{err}");

    std::fs::write(&path, &header[..header.len() / 2]).expect("writes");
    let err = driver.run(&spec).expect_err("a torn header must not resume");
    assert!(err.to_string().contains("journal-malformed.json (line 1)"), "{err}");
    std::fs::remove_file(&path).ok();
}

/// A snapshot that cannot be read or parsed is a snapshot error naming the
/// file (and the line, for a parse failure), not a pipeline configuration
/// error.
#[test]
fn unreadable_or_malformed_snapshots_are_snapshot_errors_naming_the_file() {
    let missing = temp_path("no-such-dir").join("merged.json");
    match DseReport::load_journal(&missing) {
        Err(PipelineError::Snapshot { path, line: None, reason }) => {
            assert_eq!(path, missing);
            assert!(reason.starts_with("cannot read"), "{reason}");
        }
        other => panic!("expected a snapshot read error, got {other:?}"),
    }
    let message = DseReport::load_journal(&missing).unwrap_err().to_string();
    assert!(message.contains("merged.json"), "{message}");
    assert!(!message.contains("configuration"), "{message}");

    let malformed = temp_path("snapshot-error-header.json");
    std::fs::write(&malformed, "{\"spec\":\n").expect("writes");
    match DseReport::load_journal(&malformed) {
        Err(PipelineError::Snapshot { path, line: Some(1), .. }) => assert_eq!(path, malformed),
        other => panic!("expected a malformed-snapshot error at line 1, got {other:?}"),
    }
    std::fs::remove_file(&malformed).ok();
}

/// A failing point stops the points after it in canonical order from
/// starting, the points before it stay journaled, and the run returns the
/// failure. Test workers fail the points at one pruning spec as an
/// out-of-range fraction would: a spec can no longer carry one to a point.
#[test]
fn a_failing_point_stops_later_points_and_earlier_ones_stay_journaled() {
    let path = temp_path("journal-failure.json");
    let bad = PruningSpec::unstructured(0.5);
    let spec = |pruning| {
        DseSpec::new(small_grid().with_rows(vec![64]), vec![ModelKind::AlexNet])
            .with_sparsity(vec![SparsityConfig::HybridSparsity])
            .with_pruning(pruning)
    };
    let driver = || {
        DseDriver::new(small_config().without_fidelity())
            .expect("valid config")
            .with_snapshot(&path)
    };
    let run = |driver: &DseDriver, threads: usize, spec: &DseSpec| {
        let executors = (0..threads)
            .map(|_| {
                let mut executor = Scripted::new(driver);
                executor.on_attempt = Box::new(move |job| {
                    let reason = PruningSpec::unstructured(1.5).validate().err()?;
                    let error = PointError::Deterministic(PipelineError::BadConfig { reason });
                    (job.point.pruning == bad).then_some(error)
                });
                executor.boxed()
            })
            .collect();
        driver.run_on(spec, executors)
    };

    // The failure comes first: on one thread, nothing after it starts.
    let first = driver();
    let err = run(&first, 1, &spec(vec![bad, PruningSpec::none()])).expect_err("point 0 fails");
    assert!(err.to_string().contains("pruning fraction must be in [0, 1)"), "{err}");
    assert_eq!(first.cache_stats().artifact_misses, 0, "a later point was prepared");
    let (journal, torn) = DseReport::load_journal(&path).expect("the journal loads");
    assert_eq!((journal.entries.len(), torn), (0, None));

    // The failure comes after two good points: they finish and are
    // journaled, whatever ran beside them. On 3 threads the blocks are
    // 0..2, 2..3 and 3..4, so the failing points start at once and the
    // second good point runs after the first failure.
    std::fs::remove_file(&path).expect("removes");
    for threads in [1, 2, 3] {
        let err = run(&driver(), threads, &spec(vec![PruningSpec::none(), bad]))
            .expect_err("points 2 and 3 fail");
        assert!(err.to_string().contains("pruning fraction must be in [0, 1)"), "{err}");
        let journal = DseReport::load(&path).expect("the journal loads");
        assert_eq!(journal.entries.len(), 2, "{threads} threads");
        assert!(journal.entries.iter().all(|e| !e.pruning.is_active()));
        std::fs::remove_file(&path).expect("removes");
    }
}

/// Snapshots written before journals existed are whole reports on one
/// line — the same bytes `DseReport::save` writes today — and resume.
#[test]
fn legacy_one_line_snapshots_still_resume() {
    let (cold, path, spec) = snapshotted_cold_run("journal-legacy.json");
    let mut legacy = cold.clone();
    legacy.entries.truncate(1);
    let json = serde_json::to_string(&legacy).expect("serializes");
    assert!(!json.contains('\n'));
    std::fs::write(&path, json).expect("legacy snapshot writes");

    let driver = DseDriver::new(small_config().without_fidelity())
        .expect("valid config")
        .with_snapshot(&path);
    let resumed = driver.run(&spec).expect("legacy snapshot resumes");
    assert_eq!(resumed.fresh_points, 3);
    assert_eq!(resumed.entries[0], legacy.entries[0]);
    assert!(resumed.results_match(&cold));
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
/// model is prepared, at every entry point: a DSE spec's point list and a
/// single point. So does a spec with an out-of-range pruning fraction.
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

    // An out-of-range pruning fraction is refused with the spec, before a
    // model is prepared or a journal written.
    let path = temp_path("bad-pruning.json");
    std::fs::remove_file(&path).ok();
    let driver = DseDriver::new(config).expect("valid config").with_snapshot(&path);
    let spec = DseSpec::new(ArchGrid::around(ArchConfig::paper()), vec![ModelKind::AlexNet])
        .with_pruning(vec![PruningSpec::none(), PruningSpec::unstructured(1.5)]);
    let err = driver.run(&spec).expect_err("a fraction of 1.5 is out of range");
    assert!(err.to_string().contains("got 1.5"), "{err}");
    assert_eq!(driver.cache_stats().artifact_misses, 0, "the spec prepared a model");
    assert!(!path.exists(), "the spec wrote a snapshot");
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

// ------------------------------------------------------------ fault suite
//
// The `fault_` tests run `DseDriver::run_on` on scripted test workers and
// order them with latches, never with sleeps; CI loops them in release.

/// How long a latch waits for the event it orders on before failing the
/// test.
const ORDERING_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(120);

/// A flag one thread raises and others wait on, for a bounded time.
#[derive(Default)]
struct Latch {
    raised: Mutex<bool>,
    cv: Condvar,
}

impl Latch {
    fn raise(&self) {
        *self.raised.lock().expect("latch lock") = true;
        self.cv.notify_all();
    }

    /// Blocks until the latch is raised; panics after [`ORDERING_TIMEOUT`].
    fn wait(&self, what: &str) {
        let raised = self.raised.lock().expect("latch lock");
        let (raised, _) = self
            .cv
            .wait_timeout_while(raised, ORDERING_TIMEOUT, |raised| !*raised)
            .expect("latch lock");
        assert!(*raised, "waited {ORDERING_TIMEOUT:?} for {what}");
    }
}

/// A scripted test worker over a driver's local executor. `on_heartbeat`
/// runs at every heartbeat (the first comes before the worker's first
/// claim), and `on_attempt` sees every attempt first and may fail it
/// instead of running it. Once `lives` points are done, every attempt and
/// heartbeat fails transiently, as a killed daemon's would. With
/// `answering` set, every attempt answers with that point's entry.
struct Scripted<'a> {
    inner: Box<dyn PointExecutor + 'a>,
    on_heartbeat: Box<dyn FnMut() + Send + 'a>,
    on_attempt: Box<OnAttempt<'a>>,
    lives: usize,
    answering: Option<DsePoint>,
}

/// A test worker's script: `Some` fails the attempt instead of running it.
type OnAttempt<'a> = dyn FnMut(&PointJob<'_>) -> Option<PointError> + Send + 'a;

impl<'a> Scripted<'a> {
    fn new(driver: &'a DseDriver) -> Self {
        Self {
            inner: driver.local_executor(),
            on_heartbeat: Box::new(|| {}),
            on_attempt: Box::new(|_| None),
            lives: usize::MAX,
            answering: None,
        }
    }

    fn boxed(self) -> Box<dyn PointExecutor + 'a> {
        Box::new(self)
    }
}

impl PointExecutor for Scripted<'_> {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn heartbeat(&mut self) -> Result<(), String> {
        (self.on_heartbeat)();
        if self.lives == 0 {
            return Err("the worker is dead".to_string());
        }
        self.inner.heartbeat()
    }

    fn run(&mut self, job: &PointJob<'_>) -> Result<DseEntry, PointError> {
        if self.lives == 0 {
            return Err(PointError::Transient("the worker is dead".to_string()));
        }
        if let Some(error) = (self.on_attempt)(job) {
            return Err(error);
        }
        let job = PointJob { point: self.answering.unwrap_or(job.point), ..*job };
        let entry = self.inner.run(&job)?;
        self.lives -= 1;
        Ok(entry)
    }
}

/// One runner for every fault test: each process prepares AlexNet once.
fn fault_runner() -> Arc<BatchRunner> {
    static RUNNER: OnceLock<Arc<BatchRunner>> = OnceLock::new();
    let runner = RUNNER.get_or_init(|| {
        Arc::new(BatchRunner::new(small_config().without_fidelity()).expect("valid config"))
    });
    Arc::clone(runner)
}

/// AlexNet's hybrid configuration over `macros` × 32/64 rows, its points,
/// and the report of a plain run.
fn fault_spec(macros: Vec<usize>) -> (DseSpec, Vec<DsePoint>, DseReport) {
    let spec = DseSpec::new(
        ArchGrid::around(ArchConfig::paper()).with_macros(macros).with_rows(vec![32, 64]),
        vec![ModelKind::AlexNet],
    )
    .with_sparsity(vec![SparsityConfig::HybridSparsity]);
    let config = *fault_runner().session().config();
    let points = spec.points(config.operand_width, config.pruning).expect("feasible");
    let cold = DseDriver::from_runner(fault_runner()).run(&spec).expect("cold run");
    (spec, points, cold)
}

/// The canonical position of `job`'s point.
fn position(points: &[DsePoint], job: &PointJob<'_>) -> usize {
    points.iter().position(|p| *p == job.point).expect("a point of the spec")
}

fn refused(job: &PointJob<'_>) -> PointError {
    let reason = format!("refused {}", job.point.label());
    PointError::Deterministic(PipelineError::BadConfig { reason })
}

/// A deterministic failure is attempted once: no claim after it in
/// canonical order starts, the points before it run and are journaled, and
/// the run returns it. On 3 workers the blocks are 0..2, 2..4 and 4..6;
/// worker 1 fails point 2 while workers 0 and 2 wait in their first
/// heartbeat, and lets them go once it has moved on to point 0.
#[test]
fn fault_a_deterministic_failure_is_attempted_once_and_stops_later_claims() {
    let (spec, points, cold) = fault_spec(vec![2, 4, 8]);
    assert_eq!(points.len(), 6);
    for workers in [1, 3] {
        let path = temp_path(&format!("fault-deterministic-{workers}.json"));
        std::fs::remove_file(&path).ok();
        let driver = DseDriver::from_runner(fault_runner()).with_snapshot(&path);
        let attempts = Mutex::new(Vec::new());
        let failed = Latch::default();
        let executors = (0..workers)
            .map(|worker| {
                let (attempts, failed, points) = (&attempts, &failed, &points);
                let mut executor = Scripted::new(&driver);
                let failing = usize::from(workers > 1);
                if worker != failing {
                    executor.on_heartbeat = Box::new(move || failed.wait("the failure"));
                }
                executor.on_attempt = Box::new(move |job| {
                    let index = position(points, job);
                    attempts.lock().expect("log lock").push(index);
                    if index == 2 {
                        return Some(refused(job));
                    }
                    if worker == failing {
                        failed.raise();
                    }
                    None
                });
                executor.boxed()
            })
            .collect();
        let err = driver.run_on(&spec, executors).expect_err("point 2 fails");
        assert_eq!(err.to_string(), refused_message(&points[2]), "{workers} workers");
        let mut attempts = attempts.into_inner().expect("log lock");
        attempts.sort_unstable();
        assert_eq!(attempts, [0, 1, 2], "{workers} workers: each point before 2 once, none after");
        let journal = DseReport::load(&path).expect("the journal loads");
        let mut before = cold.clone();
        before.entries.truncate(2);
        assert!(journal.results_match(&before), "{workers} workers: points 0 and 1 journaled");
        std::fs::remove_file(&path).ok();
    }
}

fn refused_message(point: &DsePoint) -> String {
    PipelineError::BadConfig { reason: format!("refused {}", point.label()) }.to_string()
}

/// An entry for another point fails the point it answers as a
/// deterministic failure: attempted once, never journaled, and no point
/// after it starts.
#[test]
fn fault_an_entry_for_another_point_fails_the_point_it_answers() {
    let (spec, points, _) = fault_spec(vec![2]);
    let path = temp_path("fault-misanswered.json");
    std::fs::remove_file(&path).ok();
    let driver = DseDriver::from_runner(fault_runner()).with_snapshot(&path);
    let attempts = Mutex::new(Vec::new());
    let mut executor = Scripted::new(&driver);
    executor.answering = Some(points[1]);
    let (log, list) = (&attempts, &points);
    executor.on_attempt = Box::new(move |job| {
        log.lock().expect("log lock").push(position(list, job));
        None
    });
    let err = driver.run_on(&spec, vec![executor.boxed()]).expect_err("point 0 is misanswered");
    match &err {
        PipelineError::PointFailed { point, attempts, last_error } => {
            assert_eq!(point, &points[0].label());
            assert_eq!(*attempts, 1);
            assert!(last_error.contains(&points[1].label()), "{last_error}");
        }
        other => panic!("expected PointFailed, got {other}"),
    }
    assert_eq!(attempts.into_inner().expect("log lock"), [0], "point 0 once, point 1 never");
    let journal = DseReport::load(&path).expect("the journal loads");
    assert!(journal.entries.is_empty(), "the misanswered entry was journaled");
    std::fs::remove_file(&path).ok();
}

/// A transient failure requeues the point at the front of its block, and
/// an idle worker takes it: worker 0 fails point 0 once and waits in the
/// observer until worker 1, held back until the requeue, has stolen and
/// finished it.
#[test]
fn fault_a_transient_failure_is_retried_by_another_worker() {
    let (spec, points, cold) = fault_spec(vec![2]);
    assert_eq!(points.len(), 2);
    let requeued = Arc::new(Latch::default());
    let stolen = Arc::new(Latch::default());
    let driver = {
        let (requeued, stolen) = (Arc::clone(&requeued), Arc::clone(&stolen));
        DseDriver::from_runner(fault_runner()).with_observer(move |event| match event {
            DseEvent::PointRetried { worker: 0, .. } => {
                requeued.raise();
                stolen.wait("worker 1 finishing the stolen point");
            }
            DseEvent::PointDone { worker: 1, stolen: true, .. } => stolen.raise(),
            _ => {}
        })
    };
    let attempts = Mutex::new(Vec::new());
    let executors = (0..2)
        .map(|worker| {
            let (attempts, points, requeued) = (&attempts, &points, &requeued);
            let mut failed_once = false;
            let mut executor = Scripted::new(&driver);
            executor.on_attempt = Box::new(move |job| {
                let index = position(points, job);
                attempts.lock().expect("log lock").push((index, worker));
                match (worker, index) {
                    (0, 0) if !failed_once => {
                        failed_once = true;
                        Some(PointError::Transient("flaky connection".to_string()))
                    }
                    (1, 1) => {
                        requeued.wait("the requeue of point 0");
                        None
                    }
                    _ => None,
                }
            });
            executor.boxed()
        })
        .collect();
    let outcome = driver.run_on(&spec, executors).expect("the retry succeeds");
    assert!(outcome.report.results_match(&cold), "the retry changed results");
    assert_eq!(outcome.stats.retried_attempts, 1, "{:?}", outcome.stats);
    assert_eq!(outcome.stats.reassigned_points, 1, "{:?}", outcome.stats);
    let worked: Vec<usize> = outcome.stats.workers.iter().map(|w| w.points).collect();
    assert_eq!(worked, [0, 2]);
    let attempts = attempts.into_inner().expect("log lock");
    let point_0: Vec<usize> = attempts.iter().filter(|a| a.0 == 0).map(|a| a.1).collect();
    assert_eq!(point_0, [0, 1], "point 0: worker 0 failed it, worker 1 retried it");
}

/// A point that fails transiently on every attempt fails the run once its
/// attempts are spent, and no point after it starts.
#[test]
fn fault_a_point_failing_transiently_on_every_attempt_fails_the_run() {
    let (spec, points, _) = fault_spec(vec![2]);
    for max_attempts in [1, 3] {
        let driver = DseDriver::from_runner(fault_runner()).with_max_point_attempts(max_attempts);
        let attempts = Mutex::new(Vec::new());
        let mut executor = Scripted::new(&driver);
        let (log, list) = (&attempts, &points);
        executor.on_attempt = Box::new(move |job| {
            let index = position(list, job);
            log.lock().expect("log lock").push(index);
            (index == 0).then(|| PointError::Transient("timed out".to_string()))
        });
        let err = driver.run_on(&spec, vec![executor.boxed()]).expect_err("point 0 fails");
        match &err {
            PipelineError::PointFailed { point, attempts, last_error } => {
                assert_eq!(point, &points[0].label());
                assert_eq!(*attempts, max_attempts);
                assert_eq!(last_error, "timed out");
            }
            other => panic!("expected PointFailed, got {other}"),
        }
        assert_eq!(attempts.into_inner().expect("log lock"), vec![0; max_attempts]);
    }
}

/// A worker that dies after one point fails its next attempts, fails its
/// heartbeat and retires; the other worker, held back until then, finishes
/// its own block and the dead worker's.
#[test]
fn fault_a_worker_dying_mid_run_retires_and_the_others_finish_its_block() {
    let (spec, points, cold) = fault_spec(vec![2, 4, 8]);
    let retired = Arc::new(Latch::default());
    let driver = {
        let retired = Arc::clone(&retired);
        DseDriver::from_runner(fault_runner()).with_observer(move |event| {
            if let DseEvent::WorkerRetired { worker: 0, .. } = event {
                retired.raise();
            }
        })
    };
    let mut dying = Scripted::new(&driver);
    dying.lives = 1;
    let mut survivor = Scripted::new(&driver);
    let mut first = true;
    survivor.on_attempt = Box::new(move |_| {
        if std::mem::take(&mut first) {
            retired.wait("worker 0's retirement");
        }
        None
    });
    let outcome =
        driver.run_on(&spec, vec![dying.boxed(), survivor.boxed()]).expect("the survivor finishes");
    assert!(outcome.report.is_complete());
    assert!(outcome.report.results_match(&cold), "the retirement changed results");
    let stats = &outcome.stats;
    assert_eq!(stats.workers[0].points, 1, "{stats:?}");
    assert!(stats.workers[0].retired.as_ref().is_some_and(|r| r.contains("dead")), "{stats:?}");
    assert_eq!((stats.workers[1].points, stats.workers[1].retired.clone()), (5, None));
    assert_eq!((stats.retried_attempts, stats.reassigned_points), (2, 2), "{stats:?}");
    assert_eq!(stats.fresh_points, points.len());
    assert_eq!(stats.workers[0].label, "local", "{stats:?}");
    // A retirement is reported once, by its worker, and not as a note.
    assert!(stats.diagnostics.iter().all(|d| !d.contains("retired")), "{stats:?}");
}

/// When every worker dies, the run stalls with a structured error that
/// counts what was computed and names each retirement.
#[test]
fn fault_a_roster_whose_workers_all_die_stalls() {
    let (spec, points, _) = fault_spec(vec![2, 4]);
    assert_eq!(points.len(), 4);
    let driver = DseDriver::from_runner(fault_runner());
    let executors = (0..2)
        .map(|_| {
            let mut executor = Scripted::new(&driver);
            executor.lives = 1;
            executor.boxed()
        })
        .collect();
    match driver.run_on(&spec, executors).expect_err("no worker survives") {
        PipelineError::Stalled { completed, total, diagnostics } => {
            assert_eq!((completed, total), (2, 4), "one point per worker before it died");
            for worker in 0..2 {
                let retired = format!("worker {worker} (local) retired: ");
                assert!(diagnostics.iter().any(|d| d.starts_with(&retired)), "{diagnostics:?}");
            }
        }
        other => panic!("expected Stalled, got {other}"),
    }
}
