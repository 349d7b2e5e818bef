//! `bench_core` — the core-kernel performance harness behind
//! `BENCH_core.json`.
//!
//! Times the hot kernels of the co-design pipeline with plain wall-clock
//! sampling:
//!
//! * `fta/approximate_filter_1152` — Algorithm 1 on one 128×3×3 INT8
//!   filter, the per-filter loop of FTA preparation.
//! * `nn/tiny_cnn_forward` — a quantized forward pass dominated by
//!   `conv2d_i8`.
//! * `nn/conv2d_f32` / `nn/conv2d_f32_scalar` and `nn/conv2d_i8` /
//!   `nn/conv2d_i8_scalar` — the lane-parallel float calibration
//!   convolution and the `i16` executor convolution against the scalar
//!   loops they replaced (`dbpim_nn::reference`), timed alternately on one
//!   VGG-shaped 3×3 layer.
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
//!
//! The two convolution speedups over their scalar loops are within-run
//! ratios, so they are machine-independent; each must stay above its fixed
//! floor ([`CONV_F32_FLOOR`], [`CONV_I8_FLOOR`]), set under the ratio
//! measured on a 2-vCPU VM so that drift between runs cannot fail it but a
//! reverted kernel does.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use db_pim::flags::{self, Flag};
use db_pim::{Pipeline, PipelineConfig};
use dbpim_csd::OperandWidth;
use dbpim_fta::{FilterApprox, QueryTables};
use dbpim_nn::reference::{conv2d_i8, conv2d_i8_scalar, conv2d_scalar};
use dbpim_nn::{ops, Conv2dCfg, QuantizedModel};
use dbpim_tensor::quant::{QuantParams, QuantizedTensor};
use dbpim_tensor::random::{Distribution, TensorGenerator};
use dbpim_trace::{phase_summary, PhaseSummary, TraceCollector};

const SCHEMA: &str = "dbpim-bench-core/v1";

/// Required `nn/conv2d_f32_scalar` / `nn/conv2d_f32` median ratio: 20
/// `--quick` runs on a 2-vCPU VM measured 14.7–23.7×.
const CONV_F32_FLOOR: f64 = 8.0;
/// Required `nn/conv2d_i8_scalar` / `nn/conv2d_i8` median ratio: the same
/// runs measured 3.0–5.2×.
const CONV_I8_FLOOR: f64 = 2.0;

const BENCH_FLAGS: &[Flag] = &[
    Flag::switch("--quick"),
    Flag::value("--json", "<path>"),
    Flag::value("--compare", "<path>"),
    Flag::value("--max-regression", "<factor>"),
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
    /// `nn/conv2d_f32_scalar` / `nn/conv2d_f32` median ratio (`None` in
    /// reports written before it was measured).
    conv2d_f32_speedup_vs_scalar: Option<f64>,
    /// `nn/conv2d_i8_scalar` / `nn/conv2d_i8` median ratio (`None` in
    /// reports written before it was measured).
    conv2d_i8_speedup_vs_scalar: Option<f64>,
}

#[derive(Debug, Serialize, Deserialize)]
struct Report {
    schema: String,
    mode: String,
    kernels: Vec<KernelSample>,
    derived: Derived,
    /// Per-span phase breakdown (quantize vs requantize) from a
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
    fn sampling(&self) -> (usize, f64) {
        if self.quick {
            (5, 2_000_000.0)
        } else {
            (15, 20_000_000.0)
        }
    }

    /// Warms `f` up and returns the repetition count that fills one sample.
    fn calibrate(&self, f: &mut impl FnMut() -> u64) -> u64 {
        let start = Instant::now();
        black_box(f());
        let once_ns = start.elapsed().as_nanos().max(1) as f64;
        let reps = ((self.sampling().1 / once_ns) as u64).clamp(1, 1_000_000);
        for _ in 0..reps.min(16) {
            black_box(f());
        }
        reps
    }

    /// Samples `f` and records per-iteration best/median times. The closure
    /// returns a checksum that is black-boxed so the work cannot be
    /// eliminated.
    fn bench(&mut self, name: &str, mut f: impl FnMut() -> u64) {
        let reps = self.calibrate(&mut f);
        let per_iter: Vec<f64> = (0..self.sampling().0).map(|_| sample(reps, &mut f)).collect();
        self.record(name, reps, per_iter);
    }

    /// [`bench`](Self::bench) of two kernels with their samples taken
    /// alternately, so drift in the machine's speed hits both alike and
    /// their ratio holds.
    fn bench_pair(
        &mut self,
        (name_a, mut a): (&str, impl FnMut() -> u64),
        (name_b, mut b): (&str, impl FnMut() -> u64),
    ) {
        let (reps_a, reps_b) = (self.calibrate(&mut a), self.calibrate(&mut b));
        let (mut samples_a, mut samples_b) = (Vec::new(), Vec::new());
        for _ in 0..self.sampling().0 {
            samples_a.push(sample(reps_a, &mut a));
            samples_b.push(sample(reps_b, &mut b));
        }
        self.record(name_a, reps_a, samples_a);
        self.record(name_b, reps_b, samples_b);
    }

    fn record(&mut self, name: &str, reps: u64, mut per_iter: Vec<f64>) {
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

/// Per-iteration time of `reps` back-to-back calls of `f`, in nanoseconds.
fn sample(reps: u64, f: &mut impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        black_box(f());
    }
    start.elapsed().as_nanos() as f64 / reps as f64
}

/// A VGG-shaped 3×3 convolution (64 → 64 channels, padding 1) at quarter
/// width on its 16×16 feature map, with float and INT8 operands.
fn vgg_conv() -> (Conv2dCfg, dbpim_tensor::Tensor<f32>, dbpim_tensor::Tensor<f32>) {
    let cfg = Conv2dCfg::new(64, 64, 3).with_padding(1);
    let mut gen = TensorGenerator::new(5);
    let weight = gen.weight_tensor(cfg.weight_dims()).expect("weights");
    let input = gen.tensor(vec![64, 16, 16], Distribution::Gaussian { std: 1.0 }).expect("input");
    (cfg, weight, input)
}

fn run(quick: bool) -> Report {
    let mut h = Harness { quick, kernels: Vec::new() };

    let tables = QueryTables::for_width(OperandWidth::Int8);
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let filter: Vec<i8> = (0..1152).map(|_| rng.gen()).collect();
    h.bench("fta/approximate_filter_1152", || {
        let approx = FilterApprox::approximate(&filter, &tables).expect("approximates");
        u64::from(black_box(approx).threshold())
    });

    let model = dbpim_nn::zoo::tiny_cnn(10, 2).expect("model builds");
    let mut gen = TensorGenerator::new(3);
    let (cal, _) = gen.labelled_batch(2, 3, 32, 32, 10).expect("batch");
    let quantized = QuantizedModel::quantize(&model, &cal).expect("quantizes");
    h.bench("nn/tiny_cnn_forward", || {
        let outputs = quantized.forward_all(&cal[0]).expect("forwards");
        outputs.last().map_or(0, |t| t.data().len() as u64)
    });

    let (conv, weight, input) = vgg_conv();
    let checksum = |out: &[f32]| out.iter().map(|v| u64::from(v.to_bits())).sum::<u64>();
    h.bench_pair(
        ("nn/conv2d_f32", || {
            checksum(ops::conv2d(&input, &weight, None, &conv).expect("convolves").data())
        }),
        ("nn/conv2d_f32_scalar", || checksum(&conv2d_scalar(&input, &weight, None, &conv))),
    );
    let qp = QuantParams::affine_from_range(-3.0, 3.0);
    let q_input = qp.quantize_tensor(&input);
    let q_weight = QuantizedTensor::quantize_per_channel(&weight, 0, OperandWidth::Int8);
    // Both checksums sign-extend each sum to 64 bits, so they agree.
    let checksum_i64 = |out: &[i64]| out.iter().map(|&v| v as u64).sum::<u64>();
    let checksum_i32 = |out: &[i32]| out.iter().map(|&v| v as u64).sum::<u64>();
    h.bench_pair(
        ("nn/conv2d_i8", || {
            let acc = conv2d_i8(&q_input, qp, &q_weight, &conv, "conv").expect("convolves");
            checksum_i64(acc.data())
        }),
        ("nn/conv2d_i8_scalar", || checksum_i32(&conv2d_i8_scalar(&q_input, qp, &q_weight, &conv))),
    );

    let pipeline =
        Pipeline::new(PipelineConfig::fast().without_fidelity()).expect("pipeline builds");
    h.bench("pipeline/run_model_fast", || {
        let result = pipeline.run_model(&model).expect("runs");
        result.baseline().total_cycles()
    });

    let derived = Derived {
        conv2d_f32_speedup_vs_scalar: Some(
            h.median_ns("nn/conv2d_f32_scalar") / h.median_ns("nn/conv2d_f32"),
        ),
        conv2d_i8_speedup_vs_scalar: Some(
            h.median_ns("nn/conv2d_i8_scalar") / h.median_ns("nn/conv2d_i8"),
        ),
    };
    Report {
        schema: SCHEMA.to_string(),
        mode: if quick { "quick" } else { "full" }.to_string(),
        kernels: h.kernels,
        derived,
        phases: Some(traced_phases()),
    }
}

/// Runs the quantized forward pass once with every kernel span sampled, and
/// folds the spans into the per-phase rows the JSON report carries. Runs
/// *after* the timed loops, with its own collector, so sampling never
/// contaminates the gate numbers.
fn traced_phases() -> Vec<PhaseSummary> {
    let collector = std::sync::Arc::new(TraceCollector::new().with_kernel_sampling(1));
    dbpim_trace::install(std::sync::Arc::clone(&collector));

    let model = dbpim_nn::zoo::tiny_cnn(10, 2).expect("model builds");
    let mut gen = TensorGenerator::new(3);
    let (cal, _) = gen.labelled_batch(2, 3, 32, 32, 10).expect("batch");
    let quantized = QuantizedModel::quantize(&model, &cal).expect("quantizes");
    black_box(quantized.forward_all(&cal[0]).expect("forwards").len());

    dbpim_trace::uninstall();
    phase_summary(&collector.drain().spans)
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
    let (quick, json_path, compare_path, max_regression) =
        flags::from_args("bench_core", &[BENCH_FLAGS], |flags| {
            flags.no_positionals()?;
            Ok((
                flags.switch("--quick"),
                flags.raw("--json").map(String::from),
                flags.raw("--compare").map(String::from),
                flags.get::<f64>("--max-regression")?.unwrap_or(1.5),
            ))
        });

    let report = run(quick);
    if let Some(phases) = &report.phases {
        eprint!("{}", dbpim_trace::render_phase_table(phases));
    }

    let mut ok = true;
    for (kernel, speedup, floor) in [
        ("conv2d_f32", report.derived.conv2d_f32_speedup_vs_scalar, CONV_F32_FLOOR),
        ("conv2d_i8", report.derived.conv2d_i8_speedup_vs_scalar, CONV_I8_FLOOR),
    ] {
        let speedup = speedup.unwrap_or(f64::NAN);
        eprintln!("{kernel} speedup vs scalar loop: {speedup:.2}x (floor {floor}x)");
        if speedup.is_nan() || speedup < floor {
            eprintln!("FAIL: {kernel} speedup {speedup:.2}x below the required {floor}x");
            ok = false;
        }
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
