//! Differential tests for joint value-level + bit-level sparsity:
//!
//! * `pruning = 0.0` (in any spelling) is provably byte-identical to the
//!   historical unpruned path — same entries, same serialized bytes, no
//!   `pruning` key anywhere in the JSON;
//! * legacy snapshots that predate the pruning axis still parse, with every
//!   entry defaulting to the identity spec;
//! * weights pruned to exactly zero survive the FTA encode/decode round
//!   trip losslessly (zero in, zero out, no allocated blocks behind them);
//! * save → kill → resume over a pruning grid recomputes only the missing
//!   points;
//! * active pruning shrinks the compiled DB-PIM macro work while leaving
//!   the dense baseline untouched.

use db_pim::prelude::*;

fn small_config() -> PipelineConfig {
    let mut config = PipelineConfig::fast();
    config.width_mult = 0.25;
    config.calibration_images = 1;
    config.evaluation_images = 2;
    config
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dbpim-joint-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// Every spelling of "no pruning" — the config default, an explicit
/// zero-fraction spec (either mode), and an explicit identity in the sweep
/// spec — produces bit-identical entries that serialize to the exact bytes
/// the unpruned code path has always produced.
#[test]
fn fraction_zero_pruning_is_byte_identical_to_the_unpruned_path() {
    let spec = DseSpec::new(ArchGrid::around(small_config().arch), vec![ModelKind::AlexNet])
        .with_sparsity(vec![SparsityConfig::DenseBaseline, SparsityConfig::HybridSparsity])
        .with_widths(vec![OperandWidth::Int4, OperandWidth::Int8]);
    let run = |config: PipelineConfig, spec: &DseSpec| {
        DseDriver::new(config).expect("valid config").run(spec).expect("runs")
    };
    let results = |report: &DseReport| -> Vec<CodesignResult> {
        report.entries.iter().map(|e| e.result.clone()).collect()
    };

    let baseline = run(small_config(), &spec);

    // Identity pruning via the pipeline config, in both modes.
    for identity in [PruningSpec::unstructured(0.0), PruningSpec::structured(0.0)] {
        assert!(!identity.is_active());
        let report = run(small_config().with_pruning(identity), &spec);
        assert!(report.results_match(&baseline), "{identity:?} changed results");
    }

    // Identity pruning via the sweep spec.
    let explicit = spec.clone().with_pruning(vec![PruningSpec::none()]);
    let report = run(small_config(), &explicit);
    assert_eq!(results(&report), results(&baseline));
    assert!(report.entries.iter().all(|e| e.pruning == PruningSpec::none()));

    // Byte identity: identity entries serialize without any `pruning` key,
    // so the on-disk/wire shape equals the pre-pruning format exactly.
    let strip = |report: &DseReport| -> Vec<DseEntry> {
        report.entries.iter().map(|e| DseEntry { computed_at_ms: 0, ..e.clone() }).collect()
    };
    let baseline_json = serde_json::to_string(&strip(&baseline)).expect("serializes");
    let explicit_json = serde_json::to_string(&strip(&report)).expect("serializes");
    assert_eq!(baseline_json, explicit_json, "identity pruning leaked into the bytes");
    assert!(!baseline_json.contains("pruning"), "unpruned entries must omit the field");

    // The specs themselves follow the same rule: no pruning requested means
    // no `pruning` key on the wire.
    let spec_json = serde_json::to_string(&spec).expect("serializes");
    assert!(!spec_json.contains("pruning"));
    let active_json =
        serde_json::to_string(&spec.clone().with_pruning(vec![PruningSpec::unstructured(0.3)]))
            .expect("serializes");
    assert!(active_json.contains("pruning"), "active pruning must be recorded");
}

/// Reports and specs saved before the pruning axis existed parse today,
/// with the missing field defaulting to the identity spec everywhere.
#[test]
fn legacy_snapshots_without_a_pruning_field_still_parse() {
    let spec = DseSpec::new(ArchGrid::around(small_config().arch), vec![ModelKind::AlexNet])
        .with_sparsity(vec![SparsityConfig::HybridSparsity]);
    let report = DseDriver::new(small_config()).expect("valid config").run(&spec).expect("runs");

    // An unpruned report's own bytes *are* the legacy format (no `pruning`
    // key), so parsing them is exactly the legacy-snapshot scenario.
    let json = serde_json::to_string(&report).expect("serializes");
    assert!(!json.contains("pruning"));
    let back: DseReport = serde_json::from_str(&json).expect("legacy report parses");
    assert_eq!(back, report);
    assert!(back.entries.iter().all(|e| e.pruning == PruningSpec::none()));

    // Same for DSE specs: pre-pruning spec bytes round-trip to an empty
    // pruning axis, and a pruning-carrying spec survives its own trip.
    let grid = ArchGrid::around(ArchConfig::paper()).with_macros(vec![2]).with_rows(vec![32]);
    let legacy_spec = DseSpec::new(grid.clone(), vec![ModelKind::AlexNet]);
    let spec_json = serde_json::to_string(&legacy_spec).expect("serializes");
    assert!(!spec_json.contains("pruning"));
    let parsed: DseSpec = serde_json::from_str(&spec_json).expect("legacy spec parses");
    assert!(parsed.pruning.is_empty());

    let pruned_spec = DseSpec::new(grid, vec![ModelKind::AlexNet])
        .with_pruning(vec![PruningSpec::none(), PruningSpec::structured(0.5)]);
    let round: DseSpec =
        serde_json::from_str(&serde_json::to_string(&pruned_spec).expect("serializes"))
            .expect("parses");
    assert_eq!(round.pruning, pruned_spec.pruning);
}

/// Weights pruned to exactly `0.0` quantize to `0`, store no dyadic blocks,
/// and decode back to exactly `0` — the FTA round trip is lossless for the
/// value-sparse half of the joint scheme.
#[test]
fn pruned_zero_weights_survive_the_fta_round_trip_losslessly() {
    let pruning = PruningSpec::unstructured(0.5);
    let config = small_config().with_pruning(pruning);
    let session = SimSession::new(config).expect("valid config");
    let model = session.model(ModelKind::AlexNet).expect("model");
    let (front, _) = ModelArtifacts::front_end(&config, &model).expect("prepares");
    let approx = &front.approx;

    // The pruned model actually carries the requested value sparsity...
    let pruned_model = model.pruned(pruning);
    assert!(pruned_model.weight_zero_fraction() >= 0.45, "pruning was not applied");
    // ...and the quantized/approximated weights see it too (quantization can
    // only add zeros, never remove them).
    assert!(approx.value_zero_fraction() >= 0.45, "value sparsity lost before FTA");

    let mut zeros_checked = 0usize;
    for layer in approx.layers() {
        let filter_len = layer.filter_len();
        let originals = layer.original_values();
        let counts = layer.filter_nonzero_counts();
        assert_eq!(counts.len(), layer.filter_count());
        for (f, filter) in layer.filters().iter().enumerate() {
            let original = &originals[f * filter_len..(f + 1) * filter_len];
            let decoded = filter.values();
            assert_eq!(decoded.len(), filter_len);
            assert_eq!(
                counts[f],
                original.iter().filter(|v| **v != 0).count(),
                "recorded non-zero count diverges from the quantized weights"
            );
            for (o, d) in original.iter().zip(decoded) {
                if *o == 0 {
                    assert_eq!(*d, 0, "a pruned zero decoded to a non-zero value");
                    zeros_checked += 1;
                }
            }
        }
    }
    assert!(zeros_checked > 0, "the pruned model exposed no zero weights to FTA");
}

/// Save → kill → resume over a joint (pruning × geometry) grid: a torn
/// snapshot is completed by recomputing only the missing points, and the
/// resumed report matches a cold run.
#[test]
fn resume_over_a_pruning_grid_recomputes_only_missing_points() {
    let config = small_config().without_fidelity();
    let path = temp_path("pruning-resume.json");
    let grid = ArchGrid::around(ArchConfig::paper()).with_macros(vec![2, 4]).with_rows(vec![64]);
    let spec = DseSpec::new(grid, vec![ModelKind::AlexNet])
        .with_sparsity(vec![SparsityConfig::HybridSparsity])
        .with_pruning(vec![PruningSpec::none(), PruningSpec::unstructured(0.5)]);

    let cold_driver = DseDriver::new(config).expect("valid config").with_snapshot(&path);
    let cold = cold_driver.run(&spec).expect("cold run");
    assert_eq!(cold.total_points, 4, "2 prunings x 2 geometries");
    assert_eq!(cold.fresh_points, 4);
    // Both pruning variants are present, and only the active one is
    // recorded in the snapshot's bytes.
    let json = std::fs::read_to_string(&path).expect("snapshot readable");
    assert!(json.contains("pruning"));
    assert_eq!(cold.entries.iter().filter(|e| e.pruning.is_active()).count(), 2);

    // "Kill" the run after two points and resume with a fresh driver.
    let saved = DseReport::load(&path).expect("snapshot loads");
    let mut torn = saved.clone();
    torn.entries.truncate(2);
    torn.save(&path).expect("torn snapshot saves");

    let resume_driver = DseDriver::new(config).expect("valid config").with_snapshot(&path);
    let resumed = resume_driver.run(&spec).expect("resume runs");
    assert_eq!(resumed.fresh_points, 2, "resume recomputed more than the missing points");
    assert!(resumed.is_complete());
    assert!(resumed.results_match(&cold), "resumed results diverge from the cold run");
    assert_eq!(resumed.entries[0], torn.entries[0], "adopted entries must be verbatim");
    assert_eq!(resumed.entries[1], torn.entries[1]);

    // A second resume finds nothing to do.
    let noop_driver = DseDriver::new(config).expect("valid config").with_snapshot(&path);
    let noop = noop_driver.run(&spec).expect("no-op resume");
    assert_eq!(noop.fresh_points, 0);
    assert!(noop.results_match(&cold));

    std::fs::remove_file(&path).ok();
}

/// Active pruning shrinks the compiled DB-PIM instruction stream — fewer
/// weights loaded, and (for structured pruning) fewer filters ever reaching
/// the array — while the dense baseline maps the same nominal shape as the
/// unpruned model.
#[test]
fn active_pruning_reduces_compiled_macro_work() {
    let arch = small_config().arch;
    let loaded_weights = |program: &ModelProgram| -> u64 {
        program
            .layers
            .iter()
            .flat_map(|l| &l.instructions)
            .filter_map(|i| match i {
                dbpim_compiler::Instruction::LoadWeights {
                    filters, weights_per_filter, ..
                } => Some(u64::from(*filters) * u64::from(*weights_per_filter)),
                _ => None,
            })
            .sum()
    };
    let computed_filters = |program: &ModelProgram| -> u64 {
        program
            .layers
            .iter()
            .flat_map(|l| &l.instructions)
            .filter_map(|i| match i {
                dbpim_compiler::Instruction::Compute { filters, .. } => Some(u64::from(*filters)),
                _ => None,
            })
            .sum()
    };

    let baseline_session = SimSession::new(small_config()).expect("valid config");
    let baseline = baseline_session
        .artifacts(ModelKind::AlexNet)
        .expect("prepares")
        .programs(arch)
        .expect("compiles");

    for pruning in [PruningSpec::unstructured(0.5), PruningSpec::structured(0.5)] {
        let session = SimSession::new(small_config().with_pruning(pruning)).expect("valid config");
        let pruned = session
            .artifacts(ModelKind::AlexNet)
            .expect("prepares")
            .programs(arch)
            .expect("compiles");

        assert!(
            loaded_weights(&pruned.sparse) < loaded_weights(&baseline.sparse),
            "{pruning:?} did not reduce the DB-PIM weight loads"
        );
        if pruning.mode == PruningMode::Structured {
            assert!(
                computed_filters(&pruned.sparse) < computed_filters(&baseline.sparse),
                "pruned-away filters still reach the array"
            );
        }
        // The dense baseline ignores value sparsity by construction: the
        // pruned model maps to the identical dense instruction stream.
        assert_eq!(
            pruned.dense.layers.iter().map(|l| l.instructions.clone()).collect::<Vec<_>>(),
            baseline.dense.layers.iter().map(|l| l.instructions.clone()).collect::<Vec<_>>(),
            "{pruning:?} perturbed the dense baseline"
        );
    }
}

/// A spec that leaves pruning to a pruned session still sorts canonically:
/// the sort key comes from each entry, not from the spec's pruning list, so
/// a report and its reversed copy compare equal and sort back into grid
/// order.
#[test]
fn session_pruned_reports_sort_canonically() {
    let config = small_config().without_fidelity().with_pruning(PruningSpec::unstructured(0.5));
    let spec = DseSpec::new(
        ArchGrid::around(ArchConfig::paper()).with_macros(vec![2, 4]),
        vec![ModelKind::AlexNet],
    )
    .with_sparsity(vec![SparsityConfig::HybridSparsity]);
    let report = DseDriver::new(config).expect("valid config").run(&spec).expect("driver runs");
    assert_eq!(report.entries.len(), 2);
    assert!(report.entries.iter().all(|e| e.pruning == config.pruning), "session pruning applies");

    let mut reversed = report.clone();
    reversed.entries.reverse();
    assert!(report.results_match(&reversed), "a reversed copy must match its original");
    reversed.sort_canonical();
    let macros: Vec<usize> = reversed.entries.iter().map(|e| e.arch.macros).collect();
    assert_eq!(macros, vec![2, 4], "entries sort back into grid order");
}
