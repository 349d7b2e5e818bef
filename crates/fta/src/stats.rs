//! Sparsity and utilization statistics of the FTA approximation.
//!
//! These statistics feed three of the paper's results directly:
//!
//! * the "Ours" bars of **Fig. 2(a)** (bit-level sparsity after FTA),
//! * the actual utilization `U_act` row of **Table 3**,
//! * the per-layer threshold distribution that Section 4.3 uses to explain
//!   why AlexNet accelerates more than VGG-19.

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
    /// The cell counts are those of
    /// [`LayerMetadata::from_layer`](crate::metadata::LayerMetadata::from_layer), counted
    /// instead of materialized: a canonical word has one Complementary
    /// Pattern block per non-zero digit, so a weight stores `φ(w)` cells
    /// and its filter allocates `φ_th` per weight.
    ///
    /// # Panics
    ///
    /// Panics, as the metadata extraction does, if an approximated weight
    /// lies outside the layer's width or needs more blocks than its
    /// filter's threshold; the FTA approximation guarantees neither happens.
    #[must_use]
    pub fn from_layer(layer: &LayerApprox) -> Self {
        let width = layer.width();
        let original = WeightBitStats::from_wide_values(layer.original_values(), width);
        let total_weights = layer.filter_count() * layer.filter_len();
        let total_bits = (total_weights * width.bits() as usize) as f64;
        let mut stored = 0usize;
        let mut allocated = 0usize;
        let mut error_sum = 0.0f64;
        for (filter, approx) in layer.filters().iter().enumerate() {
            let threshold = approx.threshold();
            for &value in approx.values() {
                assert!(width.contains(value), "FTA-approximated weight {value} exceeds {width}");
                let blocks = dbpim_csd::phi(value);
                assert!(
                    blocks <= threshold,
                    "weight {value} needs {blocks} blocks but the filter threshold is {threshold}"
                );
                stored += blocks as usize;
            }
            allocated += approx.allocated_slots();
            let start = filter * layer.filter_len();
            let end = start + layer.filter_len();
            error_sum += approx.mean_abs_error(&layer.original_values()[start..end])
                * layer.filter_len() as f64;
        }
        Self {
            node_id: layer.node_id(),
            name: layer.name().to_string(),
            width,
            filter_count: layer.filter_count(),
            filter_len: layer.filter_len(),
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
    /// Per-layer statistics in execution order.
    pub layers: Vec<LayerFtaStats>,
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
    use crate::algorithm::LayerApprox;
    use crate::metadata::LayerMetadata;
    use crate::table::QueryTables;
    use dbpim_tensor::prune::PruningSpec;
    use dbpim_tensor::quant::{QuantizedTensor, WideQuantizedTensor};
    use dbpim_tensor::random::TensorGenerator;
    use dbpim_tensor::Tensor;

    fn realistic_layer(seed: u64, filters: usize, len: usize) -> LayerApprox {
        let mut gen = TensorGenerator::new(seed);
        let w = gen.weight_tensor(vec![filters, len]).unwrap();
        let q = QuantizedTensor::quantize_per_channel(&w, 0);
        LayerApprox::from_weights(0, "conv", q.values(), &QueryTables::new()).unwrap()
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
        let q = WideQuantizedTensor::quantize_per_channel(&w, 0, width);
        LayerApprox::from_wide_weights(0, "conv", q.values(), &QueryTables::for_width(width))
            .unwrap()
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
        let tables = QueryTables::new();
        let a = LayerApprox::from_weights(
            0,
            "a",
            &Tensor::from_vec(vec![1i8; 16], vec![4, 4]).unwrap(),
            &tables,
        )
        .unwrap();
        let b = LayerApprox::from_weights(
            1,
            "b",
            &Tensor::from_vec(vec![0i8; 64], vec![8, 8]).unwrap(),
            &tables,
        )
        .unwrap();
        let stats = ModelFtaStats {
            model_name: "toy".to_string(),
            layers: vec![LayerFtaStats::from_layer(&a), LayerFtaStats::from_layer(&b)],
        };
        assert_eq!(stats.total_weights(), 80);
        // Layer "b" is all zero, so the aggregate zero ratio exceeds layer "a"'s.
        assert!(stats.fta_zero_ratio() > LayerFtaStats::from_layer(&a).fta_zero_ratio);
        assert!(stats.utilization() <= 1.0);
        assert!(stats.mean_abs_error() >= 0.0);
    }

    #[test]
    fn empty_model_stats_are_neutral() {
        let stats = ModelFtaStats { model_name: "empty".to_string(), layers: vec![] };
        assert_eq!(stats.total_weights(), 0);
        assert_eq!(stats.utilization(), 1.0);
        assert_eq!(stats.fta_zero_ratio(), 0.0);
    }
}
