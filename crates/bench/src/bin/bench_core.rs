//! `bench_core` — the core-kernel performance harness behind
//! `BENCH_core.json`.
//!
//! Times the hot kernels of the simulator with plain wall-clock sampling
//! (the vendored criterion stand-in has no machine-readable output):
//!
//! * `macro/sparse_tile_load` / `macro/sparse_tile_compute` — the bit-plane
//!   macro, load phase and compute phase separately.
//! * `macro/sparse_tile_compute_scalar` — the cell-at-a-time reference
//!   (`scalar-reference` feature) on the identical tile.
//! * `macro/dense_tile_compute` / `macro/dense_tile_compute_scalar` — the
//!   dense-baseline mapping, both implementations.
//! * `nn/tiny_cnn_forward` — a quantized forward pass dominated by
//!   `conv2d_i8`.
//! * `pipeline/run_model_fast` — the end-to-end co-design pipeline on the
//!   reduced configuration.
//!
//! Modes:
//!
//! * default — full sampling; write the report with `--json BENCH_core.json`.
//! * `--quick` — short smoke sampling for CI.
//! * `--compare PATH` — load a previous report and fail (exit 1) when any
//!   kernel regressed by more than `--max-regression` (default 1.5×) after
//!   normalizing out the overall machine-speed difference between the two
//!   runs. On a noisy runner, pass a larger `--max-regression` to override.
//! * `--min-speedup` (default 3.0) — required `sparse_tile_compute` speedup
//!   of the bit-plane kernels over the scalar reference; this ratio is
//!   measured within one run, so it is machine-independent.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use db_pim::flags::{self, Flag};
use db_pim::{Pipeline, PipelineConfig};
use dbpim_arch::{ArchConfig, InputPreprocessor, PimMacro, ScalarPimMacro};
use dbpim_csd::OperandWidth;
use dbpim_fta::metadata::FilterMetadata;
use dbpim_fta::{FilterApprox, QueryTables};
use dbpim_nn::QuantizedModel;
use dbpim_tensor::random::TensorGenerator;
use dbpim_trace::{phase_summary, PhaseSummary, TraceCollector};

const SCHEMA: &str = "dbpim-bench-core/v1";

const BENCH_FLAGS: &[Flag] = &[
    Flag::switch("--quick"),
    Flag::value("--json", "<path>"),
    Flag::value("--compare", "<path>"),
    Flag::value("--max-regression", "<factor>"),
    Flag::value("--min-speedup", "<factor>"),
];

#[derive(Debug, Serialize, Deserialize)]
struct KernelSample {
    name: String,
    /// Timed iterations per sample.
    reps: u64,
    /// Fastest per-iteration time across samples, in nanoseconds.
    best_ns: f64,
    /// Median per-iteration time across samples, in nanoseconds.
    median_ns: f64,
}

#[derive(Debug, Serialize, Deserialize)]
struct Derived {
    /// `sparse_tile_compute_scalar` / `sparse_tile_compute` median ratio.
    sparse_compute_speedup_vs_scalar: f64,
    /// `dense_tile_compute_scalar` / `dense_tile_compute` median ratio.
    dense_compute_speedup_vs_scalar: f64,
}

#[derive(Debug, Serialize, Deserialize)]
struct Report {
    schema: String,
    mode: String,
    kernels: Vec<KernelSample>,
    derived: Derived,
    /// Per-span phase breakdown (load vs compute vs requantize) from a
    /// separate fully-sampled traced pass — the timed loops above run with
    /// tracing uninstalled so the numbers the gate compares are never
    /// perturbed. `None` in reports written before the field existed.
    phases: Option<Vec<PhaseSummary>>,
}

struct Harness {
    quick: bool,
    kernels: Vec<KernelSample>,
}

impl Harness {
    /// Samples `f` and records per-iteration best/median times. The closure
    /// returns a checksum that is black-boxed so the work cannot be
    /// eliminated.
    fn bench(&mut self, name: &str, mut f: impl FnMut() -> u64) {
        let (samples, target_ns) =
            if self.quick { (5usize, 2_000_000.0) } else { (15usize, 20_000_000.0) };
        // Warm up and calibrate the inner repetition count to the target
        // sample duration.
        let start = Instant::now();
        black_box(f());
        let once_ns = start.elapsed().as_nanos().max(1) as f64;
        let reps = ((target_ns / once_ns) as u64).clamp(1, 1_000_000);
        for _ in 0..reps.min(16) {
            black_box(f());
        }

        let mut per_iter: Vec<f64> = (0..samples)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..reps {
                    black_box(f());
                }
                start.elapsed().as_nanos() as f64 / reps as f64
            })
            .collect();
        per_iter.sort_by(f64::total_cmp);
        let best = per_iter[0];
        let median = per_iter[per_iter.len() / 2];
        eprintln!("{name:40} {reps:>8} reps   best {best:>12.1} ns   median {median:>12.1} ns");
        self.kernels.push(KernelSample {
            name: name.to_string(),
            reps,
            best_ns: best,
            median_ns: median,
        });
    }

    fn median_ns(&self, name: &str) -> f64 {
        self.kernels.iter().find(|k| k.name == name).map_or(f64::NAN, |k| k.median_ns)
    }
}

fn sparse_tile() -> (Vec<FilterMetadata>, Vec<i8>) {
    let tables = QueryTables::for_width(OperandWidth::Int8);
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let len = 256usize;
    let inputs: Vec<i8> = (0..len).map(|_| rng.gen_range(0i8..=63)).collect();
    let metadata = (0..8)
        .map(|i| {
            let raw: Vec<i8> = {
                let mut wrng = ChaCha8Rng::seed_from_u64(10 + i);
                (0..len).map(|_| wrng.gen()).collect()
            };
            let approx =
                FilterApprox::approximate_with_threshold(&raw, 2, &tables).expect("approximates");
            FilterMetadata::from_filter(i as usize, &approx)
        })
        .collect();
    (metadata, inputs)
}

fn dense_tile() -> (Vec<Vec<i32>>, Vec<i8>) {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let len = 256usize;
    let filters = (0..2).map(|_| (0..len).map(|_| i32::from(rng.gen::<i8>())).collect()).collect();
    let inputs = (0..len).map(|_| rng.gen_range(0i8..=63)).collect();
    (filters, inputs)
}

fn run(quick: bool) -> Report {
    let mut h = Harness { quick, kernels: Vec::new() };
    let config = ArchConfig::paper();
    let (metadata, inputs) = sparse_tile();
    let (dense_filters, dense_inputs) = dense_tile();
    let hybrid = InputPreprocessor::new();
    let no_skip = InputPreprocessor::without_sparsity();

    let mut pim = PimMacro::new(config).expect("macro builds");
    h.bench("macro/sparse_tile_load", || pim.load_sparse_tile(&metadata).expect("loads"));
    pim.load_sparse_tile(&metadata).expect("loads");
    h.bench("macro/sparse_tile_compute", || {
        pim.execute_loaded(&inputs, &hybrid).expect("executes").outputs[0] as u64
    });

    let mut scalar = ScalarPimMacro::new(config).expect("macro builds");
    scalar.load_sparse_tile(&metadata).expect("loads");
    h.bench("macro/sparse_tile_compute_scalar", || {
        scalar.execute_loaded(&inputs, &hybrid).expect("executes").outputs[0] as u64
    });

    let mut pim = PimMacro::new(config).expect("macro builds");
    pim.load_dense_tile_for_width(&dense_filters, OperandWidth::Int8).expect("loads");
    h.bench("macro/dense_tile_compute", || {
        pim.execute_loaded(&dense_inputs, &no_skip).expect("executes").outputs[0] as u64
    });
    let mut scalar = ScalarPimMacro::new(config).expect("macro builds");
    scalar.load_dense_tile_for_width(&dense_filters, OperandWidth::Int8).expect("loads");
    h.bench("macro/dense_tile_compute_scalar", || {
        scalar.execute_loaded(&dense_inputs, &no_skip).expect("executes").outputs[0] as u64
    });

    let model = dbpim_nn::zoo::tiny_cnn(10, 2).expect("model builds");
    let mut gen = TensorGenerator::new(3);
    let (cal, _) = gen.labelled_batch(2, 3, 32, 32, 10).expect("batch");
    let quantized = QuantizedModel::quantize(&model, &cal).expect("quantizes");
    h.bench("nn/tiny_cnn_forward", || {
        let outputs = quantized.forward_all(&cal[0]).expect("forwards");
        outputs.last().map_or(0, |t| t.data().len() as u64)
    });

    let pipeline =
        Pipeline::new(PipelineConfig::fast().without_fidelity()).expect("pipeline builds");
    h.bench("pipeline/run_model_fast", || {
        let result = pipeline.run_model(&model).expect("runs");
        result.baseline().total_cycles()
    });

    let derived = Derived {
        sparse_compute_speedup_vs_scalar: h.median_ns("macro/sparse_tile_compute_scalar")
            / h.median_ns("macro/sparse_tile_compute"),
        dense_compute_speedup_vs_scalar: h.median_ns("macro/dense_tile_compute_scalar")
            / h.median_ns("macro/dense_tile_compute"),
    };
    Report {
        schema: SCHEMA.to_string(),
        mode: if quick { "quick" } else { "full" }.to_string(),
        kernels: h.kernels,
        derived,
        phases: Some(traced_phases()),
    }
}

/// Exercises the macro load/compute kernels and the quantized forward pass
/// once with every kernel span sampled, and folds the spans into the
/// per-phase rows the JSON report carries. Runs *after* the timed loops,
/// with its own collector, so sampling never contaminates the gate numbers.
fn traced_phases() -> Vec<PhaseSummary> {
    let collector = std::sync::Arc::new(TraceCollector::new().with_kernel_sampling(1));
    dbpim_trace::install(std::sync::Arc::clone(&collector));

    let config = ArchConfig::paper();
    let (metadata, inputs) = sparse_tile();
    let hybrid = InputPreprocessor::new();
    let mut pim = PimMacro::new(config).expect("macro builds");
    for _ in 0..8 {
        pim.load_sparse_tile(&metadata).expect("loads");
        black_box(pim.execute_loaded(&inputs, &hybrid).expect("executes").outputs[0]);
    }

    let model = dbpim_nn::zoo::tiny_cnn(10, 2).expect("model builds");
    let mut gen = TensorGenerator::new(3);
    let (cal, _) = gen.labelled_batch(2, 3, 32, 32, 10).expect("batch");
    let quantized = QuantizedModel::quantize(&model, &cal).expect("quantizes");
    black_box(quantized.forward_all(&cal[0]).expect("forwards").len());

    dbpim_trace::uninstall();
    phase_summary(&collector.snapshot())
}

/// Compares against a baseline report. Ratios are normalized by their median
/// so a uniformly slower/faster machine does not trip the gate; only kernels
/// that regressed *relative to the rest of the suite* by more than
/// `max_regression` fail.
fn compare(report: &Report, baseline: &Report, max_regression: f64) -> Result<(), String> {
    let old: BTreeMap<&str, f64> =
        baseline.kernels.iter().map(|k| (k.name.as_str(), k.median_ns)).collect();
    let mut ratios: Vec<(String, f64)> = report
        .kernels
        .iter()
        .filter_map(|k| old.get(k.name.as_str()).map(|&o| (k.name.clone(), k.median_ns / o)))
        .collect();
    if ratios.is_empty() {
        return Err("no kernels in common with the baseline report".to_string());
    }
    let mut sorted: Vec<f64> = ratios.iter().map(|&(_, r)| r).collect();
    sorted.sort_by(f64::total_cmp);
    let machine_factor = sorted[sorted.len() / 2];
    eprintln!("machine-speed factor vs baseline: {machine_factor:.3}x");
    ratios.sort_by(|a, b| f64::total_cmp(&b.1, &a.1));
    let mut failures = Vec::new();
    for (name, ratio) in &ratios {
        let normalized = ratio / machine_factor;
        let flag = if normalized > max_regression { " REGRESSED" } else { "" };
        eprintln!("{name:40} {ratio:>7.3}x raw  {normalized:>7.3}x normalized{flag}");
        if normalized > max_regression {
            failures.push(format!("{name} regressed {normalized:.2}x (limit {max_regression}x)"));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

fn main() -> ExitCode {
    let (quick, json_path, compare_path, max_regression, min_speedup) =
        flags::from_args("bench_core", &[BENCH_FLAGS], |flags| {
            flags.no_positionals()?;
            Ok((
                flags.switch("--quick"),
                flags.raw("--json").map(String::from),
                flags.raw("--compare").map(String::from),
                flags.get::<f64>("--max-regression")?.unwrap_or(1.5),
                flags.get::<f64>("--min-speedup")?.unwrap_or(3.0),
            ))
        });

    let report = run(quick);
    eprintln!(
        "sparse compute speedup vs scalar reference: {:.2}x (dense {:.2}x)",
        report.derived.sparse_compute_speedup_vs_scalar,
        report.derived.dense_compute_speedup_vs_scalar,
    );
    if let Some(phases) = &report.phases {
        eprint!("{}", dbpim_trace::render_phase_table(phases));
    }

    let mut ok = true;
    if report.derived.sparse_compute_speedup_vs_scalar < min_speedup {
        eprintln!(
            "FAIL: sparse compute speedup {:.2}x below the required {min_speedup}x",
            report.derived.sparse_compute_speedup_vs_scalar
        );
        ok = false;
    }
    if let Some(path) = compare_path {
        // I/O and parse failures are structured diagnostics + nonzero exit,
        // like every other binary — never a panic with a backtrace.
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("bench_core: cannot read baseline {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let baseline: Report = match serde_json::from_str(&text) {
            Ok(baseline) => baseline,
            Err(e) => {
                eprintln!("bench_core: baseline {path} is not a valid report: {e}");
                return ExitCode::from(2);
            }
        };
        if let Err(message) = compare(&report, &baseline, max_regression) {
            eprintln!("FAIL: {message}");
            ok = false;
        }
    }
    if let Some(path) = json_path {
        let json = match serde_json::to_string(&report) {
            Ok(json) => json,
            Err(e) => {
                eprintln!("bench_core: cannot serialize report: {e}");
                return ExitCode::from(2);
            }
        };
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("bench_core: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        eprintln!("wrote {path}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
