//! Sparsity and utilization statistics of the FTA approximation.
//!
//! These statistics feed three of the paper's results directly:
//!
//! * the "Ours" bars of **Fig. 2(a)** (bit-level sparsity after FTA),
//! * the actual utilization `U_act` row of **Table 3**,
//! * the per-layer threshold distribution that Section 4.3 uses to explain
//!   why AlexNet accelerates more than VGG-19.

use std::sync::Arc;

use dbpim_csd::OperandWidth;
use dbpim_tensor::stats::WeightBitStats;
use serde::{Deserialize, Serialize};

use crate::algorithm::{LayerApprox, ModelApprox};

/// Sparsity / utilization statistics of one approximated layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerFtaStats {
    /// Graph node id of the layer.
    pub node_id: usize,
    /// Layer name.
    pub name: String,
    /// Operand width the layer was approximated at.
    pub width: OperandWidth,
    /// Number of filters (output channels).
    pub filter_count: usize,
    /// Weights per filter.
    pub filter_len: usize,
    /// Histogram of per-filter thresholds `[φ0, φ1, φ2]`.
    pub threshold_histogram: [usize; 3],
    /// Occupied 6T cells after compression.
    pub stored_cells: usize,
    /// Allocated 6T cells (`Σ weights · φ_th`).
    pub allocated_cells: usize,
    /// Zero-bit ratio of the original weights in plain binary ("Ori_Zero").
    pub binary_zero_ratio: f64,
    /// Zero-digit ratio of the original weights after CSD ("CSD_Zero").
    pub csd_zero_ratio: f64,
    /// Zero-digit ratio of the approximated weights ("Ours").
    pub fta_zero_ratio: f64,
    /// Actual utilization `U_act` (Eq. 1).
    pub utilization: f64,
    /// Mean absolute INT8 approximation error.
    pub mean_abs_error: f64,
}

impl LayerFtaStats {
    /// Computes the statistics of one approximated layer.
    ///
    /// Arithmetic on the counts the approximation took
    /// ([`LayerApprox`] construction), combined with the same `f64`
    /// expressions in the same order as a pass over the weights would. The
    /// cell counts are those of
    /// [`LayerMetadata::from_layer`](crate::metadata::LayerMetadata::from_layer), counted
    /// instead of materialized: a canonical word has one Complementary
    /// Pattern block per non-zero digit, so a weight stores `φ(w)` cells
    /// and its filter allocates `φ_th` per weight.
    #[must_use]
    pub fn from_layer(layer: &LayerApprox) -> Self {
        let width = layer.width();
        let counts = layer.counts();
        let original = WeightBitStats::from_counts(
            width,
            layer.original_values().len(),
            counts.iter().map(|c| c.zeros).sum(),
            counts.iter().map(|c| c.binary_bits).sum(),
            counts.iter().map(|c| c.csd_digits).sum(),
        );
        let total_weights = layer.filter_count() * layer.filter_len();
        let total_bits = (total_weights * width.bits() as usize) as f64;
        let filter_len = layer.filter_len();
        let mut stored = 0usize;
        let mut allocated = 0usize;
        let mut error_sum = 0.0f64;
        for (approx, c) in layer.filters().iter().zip(counts) {
            stored += c.stored_cells;
            allocated += approx.allocated_slots();
            // The filter's mean absolute error, scaled back by its length.
            let mean_abs_error =
                if filter_len == 0 { 0.0 } else { c.abs_error as f64 / filter_len as f64 };
            error_sum += mean_abs_error * filter_len as f64;
        }
        Self {
            node_id: layer.node_id(),
            name: layer.name().to_string(),
            width,
            filter_count: layer.filter_count(),
            filter_len,
            threshold_histogram: layer.threshold_histogram(),
            stored_cells: stored,
            allocated_cells: allocated,
            binary_zero_ratio: original.binary_zero_ratio(),
            csd_zero_ratio: original.csd_zero_ratio(),
            fta_zero_ratio: if total_bits > 0.0 { 1.0 - stored as f64 / total_bits } else { 1.0 },
            utilization: if allocated > 0 { stored as f64 / allocated as f64 } else { 1.0 },
            mean_abs_error: if total_weights > 0 { error_sum / total_weights as f64 } else { 0.0 },
        }
    }

    /// Total number of weights in the layer.
    #[must_use]
    pub fn weight_count(&self) -> usize {
        self.filter_count * self.filter_len
    }

    /// The layer's dominant (most frequent) threshold.
    #[must_use]
    pub fn dominant_threshold(&self) -> u32 {
        let mut best = 0usize;
        for (phi, &count) in self.threshold_histogram.iter().enumerate() {
            if count > self.threshold_histogram[best] {
                best = phi;
            }
        }
        best as u32
    }
}

/// Whole-model FTA statistics: per-layer entries plus weight-count-weighted
/// aggregates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelFtaStats {
    /// Name of the model.
    pub model_name: String,
    /// Per-layer statistics in execution order, shared: a clone copies the
    /// pointer, so every result of one prepared model holds one set.
    pub layers: Arc<[LayerFtaStats]>,
}

impl ModelFtaStats {
    /// Computes the statistics of every approximated layer of a model.
    #[must_use]
    pub fn from_model(approx: &ModelApprox) -> Self {
        let _span = dbpim_trace::span!(
            "fta.stats",
            model = approx.model_name(),
            width = approx.width().bits()
        );
        Self {
            model_name: approx.model_name().to_string(),
            layers: approx.layers().iter().map(LayerFtaStats::from_layer).collect(),
        }
    }

    /// Total number of weights across PIM layers.
    #[must_use]
    pub fn total_weights(&self) -> usize {
        self.layers.iter().map(LayerFtaStats::weight_count).sum()
    }

    /// Weight-weighted binary zero-bit ratio ("Ori_Zero" in Fig. 2(a)).
    #[must_use]
    pub fn binary_zero_ratio(&self) -> f64 {
        self.weighted(|l| l.binary_zero_ratio)
    }

    /// Weight-weighted CSD zero-digit ratio ("CSD_Zero" in Fig. 2(a)).
    #[must_use]
    pub fn csd_zero_ratio(&self) -> f64 {
        self.weighted(|l| l.csd_zero_ratio)
    }

    /// Weight-weighted FTA zero-digit ratio ("Ours" in Fig. 2(a)).
    #[must_use]
    pub fn fta_zero_ratio(&self) -> f64 {
        self.weighted(|l| l.fta_zero_ratio)
    }

    /// Cell-weighted actual utilization `U_act` (Table 3).
    #[must_use]
    pub fn utilization(&self) -> f64 {
        let allocated: usize = self.layers.iter().map(|l| l.allocated_cells).sum();
        if allocated == 0 {
            return 1.0;
        }
        let stored: usize = self.layers.iter().map(|l| l.stored_cells).sum();
        stored as f64 / allocated as f64
    }

    /// Weight-weighted mean absolute approximation error.
    #[must_use]
    pub fn mean_abs_error(&self) -> f64 {
        self.weighted(|l| l.mean_abs_error)
    }

    fn weighted<F: Fn(&LayerFtaStats) -> f64>(&self, f: F) -> f64 {
        let total = self.total_weights();
        if total == 0 {
            return 0.0;
        }
        self.layers.iter().map(|l| f(l) * l.weight_count() as f64).sum::<f64>() / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{unit_scale_weights, LayerApprox};
    use crate::metadata::LayerMetadata;
    use crate::table::QueryTables;
    use dbpim_tensor::prune::PruningSpec;
    use dbpim_tensor::quant::QuantizedTensor;
    use dbpim_tensor::random::TensorGenerator;

    fn realistic_layer(seed: u64, filters: usize, len: usize) -> LayerApprox {
        let mut gen = TensorGenerator::new(seed);
        let w = gen.weight_tensor(vec![filters, len]).unwrap();
        let q = QuantizedTensor::quantize_per_channel(&w, 0, OperandWidth::Int8);
        LayerApprox::from_weights(0, "conv", q, &QueryTables::for_width(OperandWidth::Int8))
            .unwrap()
    }

    /// A layer's original or approximated values, widened.
    fn widened(values: &[i16]) -> Vec<i32> {
        values.iter().map(|&v| i32::from(v)).collect()
    }

    /// A `filters x len` layer at `width`, with `prune` of its float
    /// weights zeroed by magnitude and, when `zero_filter` is set, filter 0
    /// entirely zero.
    fn layer_at(width: OperandWidth, seed: u64, prune: f64, zero_filter: bool) -> LayerApprox {
        let (filters, len) = (24, 50);
        let mut w = TensorGenerator::new(seed).weight_tensor(vec![filters, len]).unwrap();
        PruningSpec::unstructured(prune).apply(w.data_mut(), filters);
        if zero_filter {
            w.data_mut()[..len].fill(0.0);
        }
        let q = QuantizedTensor::quantize_per_channel(&w, 0, width);
        LayerApprox::from_weights(0, "conv", q, &QueryTables::for_width(width)).unwrap()
    }

    #[test]
    fn counted_cells_equal_the_materialized_metadata_at_every_width() {
        for width in OperandWidth::all() {
            for (seed, prune, zero_filter) in [(4, 0.0, false), (5, 0.5, false), (6, 0.0, true)] {
                let layer = layer_at(width, seed, prune, zero_filter);
                let stats = LayerFtaStats::from_layer(&layer);
                let meta = LayerMetadata::from_layer(&layer);
                let case = format!("{width} prune {prune} zero filter {zero_filter}");
                assert_eq!(stats.stored_cells, meta.stored_cells(), "{case}");
                assert_eq!(stats.allocated_cells, meta.allocated_cells(), "{case}");
                assert_eq!(stats.utilization.to_bits(), meta.utilization().to_bits(), "{case}");
                if zero_filter {
                    assert_eq!(layer.filters()[0].threshold(), 0, "{case}");
                }
            }
        }
    }

    /// Algorithm 1 and the layer statistics as separate passes over widened
    /// copies, the way they were computed before the counted two-pass
    /// kernel: the oracle both must equal.
    fn oracle_stats(
        values: &[i32],
        filters: usize,
        width: OperandWidth,
    ) -> (Vec<i32>, LayerFtaStats) {
        let tables = QueryTables::for_width(width);
        let filter_len = values.len() / filters;
        let (mut approximated, mut thresholds) = (Vec::new(), Vec::new());
        let (mut stored, mut allocated, mut error_sum) = (0usize, 0usize, 0.0f64);
        for filter in values.chunks(filter_len) {
            let threshold = if filter.iter().all(|&v| v == 0) {
                0
            } else {
                let mut hist = [0usize; 9];
                for &v in filter {
                    hist[(dbpim_csd::phi(v) as usize).min(8)] += 1;
                }
                let mode =
                    (0..hist.len()).fold(0, |m, phi| if hist[phi] > hist[m] { phi } else { m });
                (mode as u32).clamp(1, 2)
            };
            let table = tables.table(threshold).unwrap();
            let approx: Vec<i32> = filter
                .iter()
                .map(|&v| if threshold == 0 || v == 0 { 0 } else { table.nearest(v) })
                .collect();
            stored += approx.iter().map(|&a| dbpim_csd::phi(a) as usize).sum::<usize>();
            allocated += filter.len() * threshold as usize;
            let abs: i64 = filter
                .iter()
                .zip(&approx)
                .map(|(&o, &a)| (i64::from(o) - i64::from(a)).abs())
                .sum();
            error_sum += abs as f64 / filter.len() as f64 * filter.len() as f64;
            approximated.extend(approx);
            thresholds.push(threshold as usize);
        }
        let original = WeightBitStats::from_wide_values(values, width);
        let total_bits = (values.len() * width.bits() as usize) as f64;
        let mut threshold_histogram = [0usize; 3];
        for t in thresholds {
            threshold_histogram[t] += 1;
        }
        let stats = LayerFtaStats {
            node_id: 0,
            name: "conv".to_string(),
            width,
            filter_count: filters,
            filter_len,
            threshold_histogram,
            stored_cells: stored,
            allocated_cells: allocated,
            binary_zero_ratio: original.binary_zero_ratio(),
            csd_zero_ratio: original.csd_zero_ratio(),
            fta_zero_ratio: 1.0 - stored as f64 / total_bits,
            utilization: if allocated > 0 { stored as f64 / allocated as f64 } else { 1.0 },
            mean_abs_error: error_sum / values.len() as f64,
        };
        (approximated, stats)
    }

    #[test]
    fn counted_two_pass_approximation_equals_the_separate_passes() {
        for width in OperandWidth::all() {
            for (seed, prune, zero_filter) in
                [(7, 0.0, false), (8, 0.5, false), (9, 0.9, true), (10, 1.0, false)]
            {
                let layer = layer_at(width, seed, prune, zero_filter);
                let case = format!("{width} prune {prune} zero filter {zero_filter}");
                let (want_values, want) =
                    oracle_stats(&widened(layer.original_values()), layer.filter_count(), width);
                let approximated = layer.approximated_tensor();
                assert_eq!(widened(approximated.values().data()), want_values, "{case}");
                let got = LayerFtaStats::from_layer(&layer);
                assert_eq!(got, want, "{case}");
                for (g, w) in [
                    (got.binary_zero_ratio, want.binary_zero_ratio),
                    (got.csd_zero_ratio, want.csd_zero_ratio),
                    (got.fta_zero_ratio, want.fta_zero_ratio),
                    (got.utilization, want.utilization),
                    (got.mean_abs_error, want.mean_abs_error),
                ] {
                    assert_eq!(g.to_bits(), w.to_bits(), "{case}");
                }
                let nonzero: Vec<usize> = want_values
                    .chunks(layer.filter_len())
                    .map(|f| f.iter().filter(|&&v| v != 0).count())
                    .collect();
                assert_eq!(layer.filter_nonzero_counts(), nonzero, "{case}");
            }
        }
        // Filters longer than the INT8 value range, so the INT4 and INT8
        // layers are counted per distinct value and the wider ones per
        // weight; one value-pruned.
        for width in OperandWidth::all() {
            for prune in [0.0, 0.6] {
                let (filters, len) = (6, 600);
                let mut w = TensorGenerator::new(11).weight_tensor(vec![filters, len]).unwrap();
                PruningSpec::unstructured(prune).apply(w.data_mut(), filters);
                let q = QuantizedTensor::quantize_per_channel(&w, 0, width);
                let (want_values, want) = oracle_stats(&widened(q.values().data()), filters, width);
                let layer = LayerApprox::from_weights(0, "conv", q, &QueryTables::for_width(width))
                    .unwrap();
                let approximated = layer.approximated_tensor();
                assert_eq!(widened(approximated.values().data()), want_values, "{width} {prune}");
                assert_eq!(LayerFtaStats::from_layer(&layer), want, "{width} {prune}");
            }
        }
        // Extreme values at every width: the range ends, ±1, zero, and
        // values outside the width (which the INT4 filter cannot bin; the
        // `i16` store holds no value outside INT16).
        for width in OperandWidth::all() {
            let (min, max) = (width.min_value(), width.max_value());
            let values: Vec<i16> = [min, max, -1, 1, 0, min + 1, max - 1, 0, min - 3, max + 3]
                .iter()
                .filter_map(|&v| i16::try_from(v).ok())
                .cycle()
                .take(64)
                .collect();
            let weights = unit_scale_weights(values.clone(), vec![8, 8]);
            let layer =
                LayerApprox::from_weights(0, "conv", weights, &QueryTables::for_width(width))
                    .unwrap();
            let (want_values, want) = oracle_stats(&widened(&values), 8, width);
            let approximated = layer.approximated_tensor();
            assert_eq!(widened(approximated.values().data()), want_values, "{width}");
            assert_eq!(LayerFtaStats::from_layer(&layer), want, "{width}");
        }
    }

    #[test]
    fn fig2a_ordering_holds_for_realistic_weights() {
        let layer = realistic_layer(1, 64, 144);
        let stats = LayerFtaStats::from_layer(&layer);
        // The paper's Fig. 2(a): Ours >= CSD_Zero >= Ori_Zero, all above 60 %.
        assert!(stats.binary_zero_ratio > 0.6, "binary {}", stats.binary_zero_ratio);
        assert!(stats.csd_zero_ratio >= stats.binary_zero_ratio);
        assert!(stats.fta_zero_ratio >= stats.csd_zero_ratio);
        assert!(stats.fta_zero_ratio >= 0.75, "fta {}", stats.fta_zero_ratio);
    }

    #[test]
    fn utilization_is_high_for_realistic_weights() {
        let layer = realistic_layer(2, 128, 64);
        let stats = LayerFtaStats::from_layer(&layer);
        // Table 3 reports 91.95 % .. 98.42 % across the five models.
        assert!(stats.utilization > 0.75, "utilization {}", stats.utilization);
        assert!(stats.utilization <= 1.0);
        assert!(stats.dominant_threshold() <= 2);
        assert_eq!(stats.weight_count(), 128 * 64);
    }

    #[test]
    fn approximation_error_is_small_for_realistic_weights() {
        let layer = realistic_layer(3, 32, 72);
        let stats = LayerFtaStats::from_layer(&layer);
        assert!(stats.mean_abs_error < 2.0, "error {}", stats.mean_abs_error);
    }

    #[test]
    fn model_aggregates_weight_layers() {
        let tables = QueryTables::for_width(OperandWidth::Int8);
        let a =
            LayerApprox::from_weights(0, "a", unit_scale_weights(vec![1; 16], vec![4, 4]), &tables)
                .unwrap();
        let b =
            LayerApprox::from_weights(1, "b", unit_scale_weights(vec![0; 64], vec![8, 8]), &tables)
                .unwrap();
        let stats = ModelFtaStats {
            model_name: "toy".to_string(),
            layers: Arc::from([LayerFtaStats::from_layer(&a), LayerFtaStats::from_layer(&b)]),
        };
        assert_eq!(stats.total_weights(), 80);
        // Layer "b" is all zero, so the aggregate zero ratio exceeds layer "a"'s.
        assert!(stats.fta_zero_ratio() > LayerFtaStats::from_layer(&a).fta_zero_ratio);
        assert!(stats.utilization() <= 1.0);
        assert!(stats.mean_abs_error() >= 0.0);
    }

    #[test]
    fn empty_model_stats_are_neutral() {
        let stats = ModelFtaStats { model_name: "empty".to_string(), layers: Arc::from([]) };
        assert_eq!(stats.total_weights(), 0);
        assert_eq!(stats.utilization(), 1.0);
        assert_eq!(stats.fta_zero_ratio(), 0.0);
    }
}
