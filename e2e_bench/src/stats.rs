//! Order statistics and aggregates over raw samples.
//!
//! Every latency figure the benchmark prints comes from here, computed from
//! the raw per-operation samples. The program's own log₂
//! `LatencyHistogram` is never used: its buckets carry up to 2× error.

use db_pim::prelude::{CodesignResult, SparsityConfig};
use dbpim_bench::reference::PaperFig7Row;

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The percentile every workload reports as `latency_tail_ms`. Each
/// workload runs the five zoo models equally often, so its sorted latencies
/// fall into five equal-count bands, one per model, and p90 is the centre of
/// the slowest band; p80 would sit on a band edge and flip between runs.
/// The percentile is fixed, never chosen from the run's sample count, so a
/// faster run that makes more operations still reports the same band. Runs
/// make at least [`min_samples`]`(TAIL_Q)` operations so that
/// [`MIN_BEYOND`] of them lie beyond it.
pub const TAIL_Q: f64 = 0.9;

/// Linear-interpolated percentile `q` (in `[0, 1]`) of ascending samples:
/// position `q·(n−1)`, the definition numpy and Python's inclusive
/// `statistics.quantiles` use.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let pos = position(sorted.len(), q);
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Number of the `n` samples ranked strictly above percentile `q`'s
/// position.
#[must_use]
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - position(n, q).floor() as usize
}

/// Rank position `q·(n−1)`, snapped to a whole rank within rounding error
/// (0.7 × 90 is 62.99999999999999 in binary floating point).
fn position(n: usize, q: f64) -> f64 {
    let pos = q * (n - 1) as f64;
    if (pos - pos.round()).abs() < 1e-9 {
        pos.round()
    } else {
        pos
    }
}

/// A tail latency together with how it was chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, in `[0, 1]`.
    pub q: f64,
    /// The latency at that percentile.
    pub value: f64,
    /// Samples the percentile was computed from.
    pub samples: usize,
    /// Samples ranked beyond it.
    pub beyond: usize,
}

/// The [`TAIL_Q`] percentile of ascending samples, with the sample count
/// and how many lie beyond it.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn tail(sorted: &[f64]) -> Tail {
    let (n, q) = (sorted.len(), TAIL_Q);
    Tail { q, value: percentile(sorted, q), samples: n, beyond: samples_beyond(n, q) }
}

/// Fewest samples that leave at least [`MIN_BEYOND`] beyond percentile `q`
/// (`q < 1`). Adding samples never lowers the count beyond, so every larger
/// sample count qualifies too.
#[must_use]
pub fn min_samples(q: f64) -> usize {
    (1..).find(|&n| samples_beyond(n, q) >= MIN_BEYOND).expect("q below 1 leaves samples beyond")
}

/// Ascending copy of `samples`.
#[must_use]
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut out = samples.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Arithmetic mean; 0 for no samples.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Geometric mean of positive values; 0 for no values.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
    }
}

/// Geometric-mean hybrid-sparsity speedup over the dense baseline.
#[must_use]
pub fn hybrid_speedup_geomean<'a>(results: impl IntoIterator<Item = &'a CodesignResult>) -> f64 {
    let speedups: Vec<f64> =
        results.into_iter().map(|r| r.speedup(SparsityConfig::HybridSparsity)).collect();
    geomean(&speedups)
}

/// Mean hybrid-sparsity energy saving over the dense baseline, in percent.
#[must_use]
pub fn hybrid_energy_saving_pct<'a>(results: impl IntoIterator<Item = &'a CodesignResult>) -> f64 {
    let savings: Vec<f64> = results
        .into_iter()
        .map(|r| r.energy_saving(SparsityConfig::HybridSparsity) * 100.0)
        .collect();
    mean(&savings)
}

/// Mean relative error, in percent, of simulated hybrid speedups against
/// the paper's Fig. 7 rows. Each result comes with its model's figure name
/// (`ModelKind::name`), which picks the row; results without a row are
/// skipped, and `None` means nothing matched.
#[must_use]
pub fn speedup_error_vs_paper<'a>(
    results: impl IntoIterator<Item = (&'a str, &'a CodesignResult)>,
    paper: &[PaperFig7Row],
) -> Option<f64> {
    let errors: Vec<f64> = results
        .into_iter()
        .filter_map(|(model, r)| {
            let row = paper.iter().find(|row| row.model == model)?;
            let sim = r.speedup(SparsityConfig::HybridSparsity);
            Some((sim - row.hybrid_speedup).abs() / row.hybrid_speedup * 100.0)
        })
        .collect();
    (!errors.is_empty()).then(|| mean(&errors))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = ramp(11);
        assert_eq!(percentile(&s, 0.0), 0.0);
        assert_eq!(percentile(&s, 0.5), 5.0);
        assert_eq!(percentile(&s, 1.0), 10.0);
        assert!((percentile(&s, 0.25) - 2.5).abs() < 1e-12);
        assert!((percentile(&[1.0, 2.0], 0.5) - 1.5).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn samples_beyond_counts_ranks_above_the_position() {
        // 100 samples: p90 sits at position 89.1, ranks 90..=99 are beyond.
        assert_eq!(samples_beyond(100, 0.9), 10);
        // 92 samples: position 81.9, ranks 82..=91.
        assert_eq!(samples_beyond(92, 0.9), 10);
        // 91 samples: position 81.0 exactly, ranks 82..=90.
        assert_eq!(samples_beyond(91, 0.9), 9);
        assert_eq!(samples_beyond(11, 0.5), 5);
        assert_eq!(samples_beyond(1, 0.9), 0);
        assert_eq!(samples_beyond(0, 0.5), 0);
    }

    #[test]
    fn min_samples_is_the_first_count_with_ten_beyond() {
        // p90: 92 samples put the position at 81.9, ranks 82..=91 beyond;
        // 91 put it at exactly 81.0 and leave 9.
        assert_eq!(min_samples(0.9), 92);
        // p70: 32 samples put it at 21.7, ranks 22..=31 beyond; 31 put it
        // at exactly 21.0 and leave 9.
        assert_eq!(min_samples(0.7), 32);
        assert_eq!(min_samples(0.5), 20);
        for q in [0.5, 0.7, 0.9] {
            let first = min_samples(q);
            assert!(samples_beyond(first - 1, q) < MIN_BEYOND);
            // Never falls back below ten as the run grows.
            assert!((first..3000).all(|n| samples_beyond(n, q) >= MIN_BEYOND), "q {q}");
        }
    }

    #[test]
    fn the_tail_percentile_does_not_move_with_the_sample_count() {
        // A faster run makes more operations; its tail must stay at the
        // same percentile, the same band of the same model. 95 and 105 are
        // cold runs at two host speeds.
        for n in [min_samples(TAIL_Q), 95, 101, 105, 400, 2000] {
            let t = tail(&ramp(n));
            assert_eq!((t.q, t.samples), (TAIL_Q, n));
            assert!(t.beyond >= MIN_BEYOND, "n {n}");
        }
        let t = tail(&ramp(400));
        assert_eq!((t.beyond, t.value), (40, 359.1));
    }

    #[test]
    fn band_centres_are_steady_percentiles() {
        // Five equal bands (10, 20, ..., 50 ms), 20 samples each: p90, p70
        // and p50 sit mid-band, p80 on the edge of the slowest band.
        let samples = sorted(&(0..100).map(|i| 10.0 * (1 + i % 5) as f64).collect::<Vec<_>>());
        assert_eq!(tail(&samples).value, 50.0);
        assert_eq!(percentile(&samples, 0.7), 40.0);
        assert_eq!(percentile(&samples, 0.5), 30.0);
        let edge = percentile(&samples, 0.8);
        assert!(edge > 40.0 && edge < 50.0, "{edge}");
    }

    #[test]
    fn geomean_and_mean() {
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn speedup_error_matches_rows_by_name() {
        let paper = dbpim_bench::reference::paper_fig7_rows();
        assert_eq!(speedup_error_vs_paper(std::iter::empty(), &paper), None);
        let results = synthetic_results(&[("AlexNet", 2.0), ("VGG19", 3.0), ("tiny", 9.0)]);
        let alexnet = (7.69 - 2.0) / 7.69 * 100.0;
        let vgg = (6.10 - 3.0) / 6.10 * 100.0;
        let named = ["AlexNet", "VGG19", "tiny"].into_iter().zip(&results);
        let got = speedup_error_vs_paper(named, &paper).expect("two rows match");
        assert!((got - (alexnet + vgg) / 2.0).abs() < 1e-9, "{got}");
        assert!((hybrid_speedup_geomean(&results[..2]) - 6f64.sqrt()).abs() < 1e-9);
    }

    /// Results whose hybrid run is exactly `speedup` times faster than the
    /// baseline (one 18000-cycle baseline layer).
    fn synthetic_results(rows: &[(&str, f64)]) -> Vec<CodesignResult> {
        let base = db_pim::Pipeline::new(small_config())
            .expect("valid config")
            .run_model(&db_pim::prelude::zoo::tiny_cnn(10, 3).expect("tiny model"))
            .expect("tiny pipeline run");
        rows.iter()
            .map(|&(name, speedup)| {
                let mut r = base.clone();
                r.model_name = name.to_string();
                for run in &mut r.runs {
                    run.layers.truncate(1);
                    run.layers[0].cycles = match run.sparsity {
                        SparsityConfig::HybridSparsity => (18000.0 / speedup) as u64,
                        _ => 18000,
                    };
                }
                r
            })
            .collect()
    }

    fn small_config() -> db_pim::PipelineConfig {
        let mut config = db_pim::PipelineConfig::fast().without_fidelity();
        config.calibration_images = 1;
        config
    }
}
