//! End-to-end benchmark of the DB-PIM workspace.
//!
//! ```text
//! e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Five seeded closed-loop workloads (see README.md): `cold_int8`,
//! `cold_int4_pruned`, `serve_rpc`, `fleet_grid` and `fleet_pruned`. With
//! `--trace 0` the
//! run times the top-level public entry points with tracing off and prints
//! the end-to-end metrics; with `--trace 1` it replays the same operations
//! through each layer's public functions inside spans and prints the
//! per-layer metrics. Either way every output is checked, and the last
//! stdout line is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod cold;
mod fleet;
mod serve;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use db_pim::prelude::{
    ArchConfig, CodesignResult, ModelKind, OperandWidth, PipelineConfig, PruningSpec,
};

/// How often each workload repeats its set-up; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// Directory (relative to the working directory) for span files and fleet
/// snapshots.
pub const OUT_DIR: &str = ".e2e_bench_out";

/// The workloads, by command-line name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold INT8 preparation through `Pipeline::run_kind`.
    ColdInt8,
    /// Cold INT4 preparation with 50 % unstructured pruning.
    ColdInt4Pruned,
    /// Warm `RunModel` requests to an in-process daemon.
    ServeRpc,
    /// Fleet grids over two in-process daemons.
    FleetGrid,
    /// The same fleet grids at INT4 with 50 % unstructured pruning.
    FleetPruned,
}

impl Workload {
    const ALL: [Workload; 5] = [
        Workload::ColdInt8,
        Workload::ColdInt4Pruned,
        Workload::ServeRpc,
        Workload::FleetGrid,
        Workload::FleetPruned,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::ColdInt8 => "cold_int8",
            Workload::ColdInt4Pruned => "cold_int4_pruned",
            Workload::ServeRpc => "serve_rpc",
            Workload::FleetGrid => "fleet_grid",
            Workload::FleetPruned => "fleet_pruned",
        }
    }

    /// Whether the workload runs the INT4 path with value pruning (the
    /// joint-sparsity setting) instead of the paper's INT8 path.
    #[must_use]
    pub fn pruned(self) -> bool {
        matches!(self, Workload::ColdInt4Pruned | Workload::FleetPruned)
    }
}

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of every draw and of `PipelineConfig::seed`.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Run the traced replay instead of the timed run.
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let name = match flag.as_str() {
            f @ ("--workload" | "--seed" | "--seconds" | "--trace") => f,
            other => return Err(format!("unknown argument {other:?}")),
        };
        let value = iter.next().ok_or_else(|| format!("{name}: missing value"))?;
        flags.insert(name, value);
    }
    let get = |name: &str| flags.get(name).copied().ok_or_else(|| format!("{name} is required"));
    let workload = get("--workload")?;
    let workload = Workload::ALL.into_iter().find(|w| w.name() == workload).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("--workload: unknown {workload:?}, expected one of {}", names.join(", "))
    })?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

impl Args {
    /// The pipeline of this run: [`pipeline_config`], at INT4 with 50 %
    /// unstructured magnitude pruning on the pruned workloads.
    #[must_use]
    pub fn pipeline(&self) -> PipelineConfig {
        let base = pipeline_config(self.seed);
        if self.workload.pruned() {
            base.with_operand_width(OperandWidth::Int4).with_pruning(PruningSpec::unstructured(0.5))
        } else {
            base
        }
    }
}

/// The smoke-test pipeline every workload runs: quarter-width zoo models,
/// 10 classes, one calibration image, the paper's geometry, no fidelity
/// evaluation. `seed` drives the synthetic weights and calibration data.
#[must_use]
pub fn pipeline_config(seed: u64) -> PipelineConfig {
    PipelineConfig {
        classes: 10,
        seed,
        width_mult: 0.25,
        calibration_images: 1,
        evaluation_images: 0,
        arch: ArchConfig::paper(),
        operand_width: OperandWidth::Int8,
        pruning: PruningSpec::none(),
    }
}

/// Error-to-message conversion for `map_err`.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Deterministic SplitMix64 stream for every seeded draw.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, offset by `stream` so independent draws (model
    /// order, grid geometry) do not share values.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// The five zoo models in a fresh random order: one round of a
    /// workload, so every model runs equally often.
    pub fn model_round(&mut self) -> [ModelKind; 5] {
        let mut round = ModelKind::all();
        self.shuffle(&mut round);
        round
    }
}

/// Fewest rounds of `per_round` operations that leave at least
/// [`stats::MIN_BEYOND`] samples beyond the tail percentile.
#[must_use]
pub fn min_rounds(per_round: usize) -> usize {
    stats::min_samples(stats::TAIL_Q).div_ceil(per_round)
}

/// Runs complete rounds of `round` until the next one would end past
/// `seconds`, but never fewer than `min_rounds`.
pub fn run_rounds(seconds: f64, min_rounds: usize, mut round: impl FnMut()) {
    let start = Instant::now();
    for done in 1.. {
        let before = start.elapsed().as_secs_f64();
        round();
        let after = start.elapsed().as_secs_f64();
        if done >= min_rounds && after + (after - before) > seconds {
            break;
        }
    }
}

/// Median of the set-up repetitions, in seconds.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    stats::percentile(&stats::sorted(values), 0.5)
}

/// Hands memory freed by stopped daemons back to the OS. Set-up
/// repetitions stop their daemons and spawn new ones; without this, the
/// allocator may or may not reuse the freed memory, and `peak_rss_mb` would
/// count a varying amount of the discarded repetitions.
pub fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and only returns
        // free heap pages to the OS; any thread may call it at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Peak resident set (VmHWM) of this process in MiB, daemons included.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in BENCHMARK.json.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit as listed in BENCHMARK.json.
    pub unit: &'static str,
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured phase.
    pub attempted: usize,
    /// Errors, refusals and output mismatches among them.
    pub failed: usize,
    /// The metrics of the JSON result line.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed above the JSON result.
    pub notes: Vec<String>,
}

/// Raw measurements of a timed run.
#[derive(Debug, Default)]
pub struct Timed<'a> {
    /// Wall time of each set-up repetition, in seconds.
    pub setup_s: Vec<f64>,
    /// VmHWM when set-up finished, in MiB.
    pub setup_rss_mb: f64,
    /// Latency of each operation, in milliseconds, with the model it ran.
    pub latencies_ms: Vec<(&'static str, f64)>,
    /// Operations completed per second of the timed phase.
    pub throughput_per_s: f64,
    /// Operations attempted.
    pub attempted: usize,
    /// Errors, refusals and output mismatches.
    pub failed: usize,
    /// Distinct checked outputs with their model's figure name, for the
    /// simulated metrics.
    pub results: Vec<(&'static str, &'a CodesignResult)>,
    /// Whether to print the error of `results` against the paper's Fig. 7
    /// rows: set on `cold_int8` only, whose INT8 paper-geometry runs those
    /// rows describe.
    pub paper_comparable: bool,
}

impl Timed<'_> {
    /// The end-to-end metrics, plus notes on how the tail was chosen.
    #[must_use]
    pub fn outcome(&self) -> Outcome {
        let samples: Vec<f64> = self.latencies_ms.iter().map(|&(_, ms)| ms).collect();
        let sorted = stats::sorted(&samples);
        let (p50, tail) = if sorted.is_empty() {
            (0.0, stats::Tail { q: stats::TAIL_Q, value: 0.0, samples: 0, beyond: 0 })
        } else {
            (stats::percentile(&sorted, 0.5), stats::tail(&sorted))
        };
        let metric = |name, value, unit| Metric { name, value, unit };
        let metrics = vec![
            metric("setup_s", median(&self.setup_s), "s"),
            metric("latency_p50_ms", p50, "ms"),
            metric("latency_tail_ms", tail.value, "ms"),
            metric("throughput_per_s", self.throughput_per_s, "1/s"),
            metric("peak_rss_mb", peak_rss_mb(), "MiB"),
            metric(
                "sim_hybrid_speedup_geomean",
                stats::hybrid_speedup_geomean(self.results.iter().map(|&(_, r)| r)),
                "x",
            ),
            metric(
                "sim_hybrid_energy_saving_mean",
                stats::hybrid_energy_saving_pct(self.results.iter().map(|&(_, r)| r)),
                "%",
            ),
        ];
        let mut notes = vec![
            format!(
                "latency_tail_ms is p{:.0} of {} samples ({} beyond it)",
                tail.q * 100.0,
                tail.samples,
                tail.beyond
            ),
            format!("setup_s repetitions: {:?}", self.setup_s),
            format!("peak RSS after set-up: {} MiB", self.setup_rss_mb),
            format!("latency p10/p50/p90 per model (ms): {}", band_summary(&self.latencies_ms)),
            format!(
                "failed_frac: {} ({} failed of {} attempted)",
                self.failed as f64 / self.attempted.max(1) as f64,
                self.failed,
                self.attempted
            ),
        ];
        if self.paper_comparable {
            let paper = dbpim_bench::reference::paper_fig7_rows();
            if let Some(err) = stats::speedup_error_vs_paper(self.results.iter().copied(), &paper) {
                notes.push(format!(
                    "sim_speedup_error_vs_paper: {err} % (quarter-width synthetic weights: a \
                     drift guard, not a validation)"
                ));
            }
        }
        Outcome { attempted: self.attempted, failed: self.failed, metrics, notes }
    }
}

/// p10 / p50 / p90 latency of each model's operations, slowest first.
fn band_summary(samples: &[(&'static str, f64)]) -> String {
    let mut bands: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for &(model, ms) in samples {
        bands.entry(model).or_default().push(ms);
    }
    let mut bands: Vec<(&str, Vec<f64>)> =
        bands.into_iter().map(|(m, v)| (m, stats::sorted(&v))).collect();
    bands.sort_by(|a, b| stats::percentile(&b.1, 0.5).total_cmp(&stats::percentile(&a.1, 0.5)));
    let parts: Vec<String> = bands
        .iter()
        .map(|(m, v)| {
            let q = |p| stats::percentile(v, p);
            format!("{m} {:.2}/{:.2}/{:.2}", q(0.1), q(0.5), q(0.9))
        })
        .collect();
    parts.join(", ")
}

/// The per-layer metrics of BENCHMARK.json, in its order. A traced run
/// reports every one; a layer that does no work on a workload reads 0.
/// Figures only the ungated `serve_rpc` produces (`serve.send_ms` and
/// `serve.recv_ms`) are printed as notes instead, so no listed metric
/// reads 0 on every gated workload.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("nn.build_ms", "ms"),
    ("nn.quantize_ms", "ms"),
    ("tensor.calibration_ms", "ms"),
    ("tensor.prune_ms", "ms"),
    ("fta.approx_ms", "ms"),
    ("fta.stats_ms", "ms"),
    ("fta.weights", "count"),
    ("core.input_sparsity_ms", "ms"),
    ("core.run_point_ms", "ms"),
    ("core.artifact_hit_ratio", "ratio"),
    ("core.snapshot_save_ms", "ms"),
    ("core.snapshot_bytes", "B"),
    ("compiler.workloads_ms", "ms"),
    ("compiler.compile_ms", "ms"),
    ("sim.simulate_ms", "ms"),
    ("serve.encode_ms", "ms"),
    ("serve.decode_ms", "ms"),
    ("serve.wait_p50_ms", "ms"),
    ("serve.wait_tail_ms", "ms"),
    ("serve.reply_bytes", "B"),
    ("fleet.point_ms", "ms"),
    ("fleet.run_overhead_ms", "ms"),
    ("fleet.retried_frac", "ratio"),
    ("fleet.reassigned_frac", "ratio"),
    ("untraced_frac", "ratio"),
    ("trace.op_p50_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// The `_ms` metric name of a span layer.
#[must_use]
pub fn layer_metric(layer: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|&(name, _)| name)
        .find(|name| name.strip_suffix("_ms") == Some(layer))
        .expect("every span layer has a per-layer metric")
}

/// Whether the traced form of operation `op` runs before its untraced
/// form. Alternating the order keeps warm caches and allocator state from
/// favouring either form in the overhead figure.
#[must_use]
pub fn traced_first(op: usize) -> bool {
    op % 2 == 1
}

/// Raw results of a traced run.
#[derive(Debug, Default)]
pub struct Traced {
    /// Operations attempted.
    pub attempted: usize,
    /// Errors and mismatches, the replay-equals-real check included.
    pub failed: usize,
    /// Per-layer values by name; names left out read 0.
    pub layers: BTreeMap<&'static str, f64>,
    /// Per-op wall times of the traced operations, in milliseconds.
    pub traced_ms: Vec<f64>,
    /// Per-op wall times of the same operations untraced, in milliseconds.
    pub untraced_ms: Vec<f64>,
    /// Per op: milliseconds the layer spans cover, and the wall time of the
    /// operation they should account for. For the cold and serve workloads
    /// that wall time is the untraced call's, so work the replay skips
    /// shows as uncovered.
    pub coverage: Vec<(f64, f64)>,
    /// Program-visible counters, written beside the spans.
    pub counters: Vec<(String, f64)>,
    /// Figures printed above the JSON line but not part of it.
    pub notes: Vec<String>,
}

impl Traced {
    /// Share of the operations' wall time the layer spans do not cover:
    /// `1 − Σ covered / Σ wall` over [`coverage`](Self::coverage). Where
    /// the wall time is another call's, run-to-run noise can make it
    /// slightly negative.
    #[must_use]
    pub fn untraced_frac(&self) -> f64 {
        let covered: f64 = self.coverage.iter().map(|&(c, _)| c).sum();
        let wall: f64 = self.coverage.iter().map(|&(_, w)| w).sum();
        if wall > 0.0 {
            1.0 - covered / wall
        } else {
            0.0
        }
    }

    /// Adds the overhead figures, writes the span file and returns the
    /// per-layer outcome.
    #[must_use]
    pub fn outcome(mut self, recorder: &spans::Recorder, args: &Args) -> Outcome {
        let p50 = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
        let (traced, untraced) = (p50(&self.traced_ms), p50(&self.untraced_ms));
        self.layers.insert("untraced_frac", self.untraced_frac());
        self.layers.insert("trace.op_p50_ms", traced);
        self.layers.insert("trace.overhead_ms", traced - untraced);
        self.layers.insert(
            "trace.overhead_frac",
            if untraced > 0.0 { traced / untraced - 1.0 } else { 0.0 },
        );
        let metrics: Vec<Metric> = PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: self.layers.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect();
        let mut notes = std::mem::take(&mut self.notes);
        notes.extend(self.counters.iter().map(|(name, value)| format!("counter {name}: {value}")));
        match write_spans(recorder, &self.counters, &metrics, args) {
            Ok(path) => {
                notes.push(format!("spans: {} ({} spans)", path.display(), recorder.spans().len()))
            }
            Err(e) => notes.push(format!("spans not written: {e}")),
        }
        Outcome { attempted: self.attempted, failed: self.failed, metrics, notes }
    }
}

/// Writes the spans, the program's counters and the per-layer metrics of a
/// traced run to one JSON file under [`OUT_DIR`].
fn write_spans(
    recorder: &spans::Recorder,
    counters: &[(String, f64)],
    metrics: &[Metric],
    args: &Args,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(OUT_DIR)?;
    let path = PathBuf::from(OUT_DIR).join(format!(
        "spans-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    let counters: Vec<String> = counters
        .iter()
        .map(|(name, value)| format!("\"{name}\": {}", json_number(*value)))
        .collect();
    let metrics: Vec<String> =
        metrics.iter().map(|m| format!("\"{}\": {}", m.name, json_number(m.value))).collect();
    let body = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"counters\": {{{}}},\n\"per_layer\": {{{}}},\n\"spans\": {}}}\n",
        args.workload.name(),
        args.seed,
        counters.join(", "),
        metrics.join(", "),
        recorder.to_json()
    );
    std::fs::write(&path, body)?;
    Ok(path)
}

/// A JSON number; non-finite values (never expected) become 0.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload {
        Workload::ColdInt8 | Workload::ColdInt4Pruned => cold::run(&args),
        Workload::ServeRpc => serve::run(&args),
        Workload::FleetGrid | Workload::FleetPruned => fleet::run(&args),
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("e2e_bench: {} failed: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    println!("workload {} seed {} trace {}", args.workload.name(), args.seed, u8::from(args.trace));
    for note in &outcome.notes {
        println!("  {note}");
    }
    for m in &outcome.metrics {
        println!("  {:<32} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_line(&outcome));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn arguments_parse_strictly() {
        let ok = parse_args(&strings(&[
            "--workload",
            "serve_rpc",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(
            (ok.workload, ok.seed, ok.seconds, ok.trace),
            (Workload::ServeRpc, 7, 10.0, true)
        );
        for bad in [
            &["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"][..],
            &["--workload", "cold_int8", "--seed", "1", "--seconds", "0", "--trace", "0"],
            &["--workload", "cold_int8", "--seed", "1", "--seconds", "1", "--trace", "2"],
            &["--workload", "cold_int8", "--seed", "1", "--seconds", "1"],
            &[
                "--workload",
                "cold_int8",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
                "--x",
                "1",
            ],
            &["--workload"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn seeded_rounds_are_reproducible_permutations() {
        let mut a = Rng::new(5, 1);
        let mut b = Rng::new(5, 1);
        let round = a.model_round();
        assert_eq!(round, b.model_round());
        let mut sorted_round = round;
        sorted_round.sort_by_key(|k| k.name());
        let mut all = ModelKind::all();
        all.sort_by_key(|k| k.name());
        assert_eq!(sorted_round, all);
        assert_ne!(Rng::new(5, 1).next_u64(), Rng::new(6, 1).next_u64());
        assert_ne!(Rng::new(5, 1).next_u64(), Rng::new(5, 2).next_u64());
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let outcome = Outcome {
            attempted: 3,
            failed: 0,
            metrics: vec![Metric { name: "setup_s", value: 0.5, unit: "s" }],
            notes: vec![],
        };
        assert_eq!(
            result_line(&outcome),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_number(f64::NAN), "0");
    }

    #[test]
    fn coverage_is_measured_against_the_untraced_call() {
        let mut traced = Traced::default();
        assert_eq!(traced.untraced_frac(), 0.0);
        // Spans cover 90 of a 100 ms call and 200 of a 200 ms one.
        traced.coverage = vec![(90.0, 100.0), (200.0, 200.0)];
        assert!((traced.untraced_frac() - 10.0 / 300.0).abs() < 1e-12);
        // A replay faster than the untraced call reads below zero.
        traced.coverage = vec![(105.0, 100.0)];
        assert!(traced.untraced_frac() < 0.0);
        assert_eq!((0..4).filter(|&op| traced_first(op)).count(), 2);
    }

    #[test]
    fn minimum_rounds_leave_ten_samples_beyond_the_tail() {
        let q = stats::TAIL_Q;
        for per_round in [5, 20] {
            let rounds = min_rounds(per_round);
            assert!(stats::samples_beyond(rounds * per_round, q) >= stats::MIN_BEYOND);
            assert!(stats::samples_beyond((rounds - 1) * per_round, q) < stats::MIN_BEYOND);
        }
        assert_eq!((min_rounds(5), min_rounds(20)), (19, 5));
    }

    #[derive(serde::Deserialize)]
    struct Listed {
        name: String,
        unit: String,
    }

    #[derive(serde::Deserialize)]
    struct Named {
        name: String,
    }

    #[derive(serde::Deserialize)]
    struct BenchmarkJson {
        workloads: Vec<Named>,
        end_to_end: Vec<Listed>,
        per_layer: Vec<Listed>,
    }

    /// The metrics a run prints are exactly the ones BENCHMARK.json lists,
    /// in its order and with its units, and every gated workload exists.
    #[test]
    fn printed_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let json: BenchmarkJson = serde_json::from_str(&text).expect("valid BENCHMARK.json");
        let listed = |metrics: &[Listed]| -> Vec<(String, String)> {
            metrics.iter().map(|m| (m.name.clone(), m.unit.clone())).collect()
        };
        let printed = |metrics: &[Metric]| -> Vec<(String, String)> {
            metrics.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect()
        };
        let timed = Timed { setup_s: vec![1.0], ..Timed::default() };
        assert_eq!(printed(&timed.outcome().metrics), listed(&json.end_to_end));
        let per_layer: Vec<Metric> =
            PER_LAYER.iter().map(|&(name, unit)| Metric { name, value: 0.0, unit }).collect();
        assert_eq!(printed(&per_layer), listed(&json.per_layer));
        for workload in &json.workloads {
            assert!(Workload::ALL.iter().any(|w| w.name() == workload.name), "{}", workload.name);
        }
    }

    #[test]
    fn every_span_layer_names_a_per_layer_metric() {
        for layer in ["nn.build", "fta.stats", "compiler.compile", "serve.decode", "fleet.point"] {
            assert_eq!(layer_metric(layer), format!("{layer}_ms"));
        }
    }
}
