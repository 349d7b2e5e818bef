//! Algorithm 1: Fixed Threshold Approximation (FTA), over any operand width.
//!
//! Per filter, the algorithm determines a threshold `φ_th ∈ {0, 1, 2}` from
//! the mode of the per-weight non-zero CSD digit counts and snaps every
//! weight to the nearest value representable with at most `φ_th` non-zero
//! digits. The result is *regular* — each weight of a filter contributes the
//! same number of Complementary Pattern blocks — while the positions of the
//! non-zero digits remain *unstructured*, which is exactly the property the
//! DB-PIM macro exploits.
//!
//! The paper runs the algorithm on INT8 weights; every type here carries an
//! [`OperandWidth`] (taken from the [`QueryTables`] it was built with) so the
//! same code serves INT4/INT12/INT16 weight tensors. Approximated values are
//! stored as `i32` regardless of width; at [`OperandWidth::Int8`] they are
//! numerically identical to the historical `i8` pipeline.

use dbpim_csd::OperandWidth;
use dbpim_nn::{NodeId, QuantizedModel};
use dbpim_tensor::quant::WideQuantizedTensor;
use dbpim_tensor::Tensor;
use serde::{Deserialize, Serialize};

use crate::error::FtaError;
use crate::table::{QueryTables, MAX_THRESHOLD};

/// One filter after FTA approximation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FilterApprox {
    /// The fixed threshold `φ_th` chosen for this filter.
    threshold: u32,
    /// Operand width of the approximated weights.
    width: OperandWidth,
    /// Approximated weights, in the filter's original flattened order.
    values: Vec<i32>,
}

impl FilterApprox {
    /// Runs Algorithm 1 on one filter's flattened weights.
    ///
    /// Accepts any integer type that widens to `i32` (`i8` for the INT8
    /// pipeline, `i32` for the width-generic one); the operand width is the
    /// one the `tables` were built for.
    ///
    /// # Errors
    ///
    /// Never fails for thresholds derived by the algorithm itself; the error
    /// type is shared with the explicit-threshold constructor.
    pub fn approximate<T: Into<i32> + Copy>(
        weights: &[T],
        tables: &QueryTables,
    ) -> Result<Self, FtaError> {
        let wide: Vec<i32> = weights.iter().map(|&w| w.into()).collect();
        let threshold = select_threshold(&wide);
        Self::approximate_wide_with_threshold(&wide, threshold, tables)
    }

    /// Approximates one filter with an explicitly chosen threshold (used by
    /// ablation studies).
    ///
    /// # Errors
    ///
    /// Returns [`FtaError::InvalidThreshold`] when `threshold > 2`.
    pub fn approximate_with_threshold<T: Into<i32> + Copy>(
        weights: &[T],
        threshold: u32,
        tables: &QueryTables,
    ) -> Result<Self, FtaError> {
        let wide: Vec<i32> = weights.iter().map(|&w| w.into()).collect();
        Self::approximate_wide_with_threshold(&wide, threshold, tables)
    }

    fn approximate_wide_with_threshold(
        weights: &[i32],
        threshold: u32,
        tables: &QueryTables,
    ) -> Result<Self, FtaError> {
        let table = tables.table(threshold)?;
        // Zero is exactly representable at every threshold (it has no
        // non-zero CSD digits), so value-pruned weights skip the query-table
        // search entirely and a fully-pruned filter (threshold 0) never
        // consumes a table entry. `T(0) = {0}` makes the short-circuit
        // bit-identical to the searched result for any input.
        let values = if threshold == 0 {
            vec![0; weights.len()]
        } else {
            weights.iter().map(|&w| if w == 0 { 0 } else { table.nearest(w) }).collect()
        };
        Ok(Self { threshold, width: tables.width(), values })
    }

    /// The filter's fixed threshold `φ_th`.
    #[must_use]
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// The operand width of the approximated weights.
    #[must_use]
    pub fn width(&self) -> OperandWidth {
        self.width
    }

    /// The approximated weights.
    #[must_use]
    pub fn values(&self) -> &[i32] {
        &self.values
    }

    /// Number of weights in the filter.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` for an empty filter (never produced by the algorithm).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total number of non-zero CSD digits actually present across the
    /// filter's approximated weights (each occupies one stored 6T cell).
    #[must_use]
    pub fn stored_blocks(&self) -> usize {
        self.values.iter().map(|&v| dbpim_csd::phi(v) as usize).sum()
    }

    /// Number of non-zero approximated weights — the value-level density the
    /// compiler uses to compact pruned filters into fewer tiles.
    #[must_use]
    pub fn nonzero_weights(&self) -> usize {
        self.values.iter().filter(|&&v| v != 0).count()
    }

    /// Number of cell slots the filter occupies in the PIM array
    /// (`threshold` per weight): padded slots are allocated but idle.
    #[must_use]
    pub fn allocated_slots(&self) -> usize {
        self.values.len() * self.threshold as usize
    }

    /// Mean absolute approximation error against the original weights.
    #[must_use]
    pub fn mean_abs_error(&self, original: &[i32]) -> f64 {
        if original.is_empty() {
            return 0.0;
        }
        let sum: i64 = original
            .iter()
            .zip(&self.values)
            .map(|(&o, &a)| (i64::from(o) - i64::from(a)).abs())
            .sum();
        sum as f64 / original.len() as f64
    }
}

/// Chooses the per-filter threshold `φ_th` exactly as Algorithm 1 does:
///
/// * all weights zero → 0,
/// * mode of the non-zero digit counts is 0 → 1,
/// * mode in `1..=2` → the mode,
/// * mode above 2 → 2.
///
/// Width-independent: the non-zero digit count of a value's canonical form
/// does not depend on how many zero digits pad the word.
#[must_use]
pub fn select_threshold<T: Into<i32> + Copy>(weights: &[T]) -> u32 {
    if weights.is_empty() || weights.iter().all(|&w| w.into() == 0) {
        return 0;
    }
    // One bucket per possible φ: canonical words of the widest supported
    // operand (INT16) never exceed eight non-zero digits. Stack-allocated —
    // this runs once per filter on the hot FTA path.
    const CAP: usize = OperandWidth::Int16.max_phi() as usize;
    let mut hist = [0usize; CAP + 1];
    for &w in weights {
        let phi = dbpim_csd::phi(w.into()) as usize;
        hist[phi.min(CAP)] += 1;
    }
    let mut mode = 0usize;
    for (phi, &count) in hist.iter().enumerate() {
        if count > hist[mode] {
            mode = phi;
        }
    }
    match mode as u32 {
        0 => 1,
        m if m <= MAX_THRESHOLD => m,
        _ => MAX_THRESHOLD,
    }
}

/// FTA approximation of one PIM-mapped layer (convolution or linear).
///
/// The weight tensor's leading dimension indexes the filters; everything
/// behind it is flattened into the filter's weight vector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerApprox {
    node_id: NodeId,
    name: String,
    width: OperandWidth,
    weight_shape: Vec<usize>,
    filter_len: usize,
    original: Vec<i32>,
    filters: Vec<FilterApprox>,
}

impl LayerApprox {
    /// Approximates the INT8 weight tensor of one layer.
    ///
    /// # Errors
    ///
    /// Returns [`FtaError::BadWeightShape`] for tensors of rank below 2.
    pub fn from_weights(
        node_id: NodeId,
        name: impl Into<String>,
        weights: &Tensor<i8>,
        tables: &QueryTables,
    ) -> Result<Self, FtaError> {
        let wide: Vec<i32> = weights.data().iter().map(|&w| i32::from(w)).collect();
        let wide = Tensor::from_vec(wide, weights.shape().to_vec())
            .expect("same element count as the source tensor");
        Self::from_wide_weights(node_id, name, &wide, tables)
    }

    /// Approximates a width-generic weight tensor (`i32` values in the range
    /// of the `tables`' operand width).
    ///
    /// # Errors
    ///
    /// Returns [`FtaError::BadWeightShape`] for tensors of rank below 2.
    pub fn from_wide_weights(
        node_id: NodeId,
        name: impl Into<String>,
        weights: &Tensor<i32>,
        tables: &QueryTables,
    ) -> Result<Self, FtaError> {
        let shape = weights.shape().to_vec();
        if shape.len() < 2 {
            return Err(FtaError::BadWeightShape { shape });
        }
        let filters_count = shape[0];
        let filter_len = weights.numel() / filters_count;
        let mut filters = Vec::with_capacity(filters_count);
        for f in 0..filters_count {
            let slice = &weights.data()[f * filter_len..(f + 1) * filter_len];
            filters.push(FilterApprox::approximate(slice, tables)?);
        }
        Ok(Self {
            node_id,
            name: name.into(),
            width: tables.width(),
            weight_shape: shape,
            filter_len,
            original: weights.data().to_vec(),
            filters,
        })
    }

    /// Id of the graph node this layer approximates.
    #[must_use]
    pub fn node_id(&self) -> NodeId {
        self.node_id
    }

    /// The layer's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The operand width of the approximated weights.
    #[must_use]
    pub fn width(&self) -> OperandWidth {
        self.width
    }

    /// Number of filters (output channels).
    #[must_use]
    pub fn filter_count(&self) -> usize {
        self.filters.len()
    }

    /// Number of weights per filter.
    #[must_use]
    pub fn filter_len(&self) -> usize {
        self.filter_len
    }

    /// Per-filter approximations.
    #[must_use]
    pub fn filters(&self) -> &[FilterApprox] {
        &self.filters
    }

    /// The original (pre-approximation) weights, flattened.
    #[must_use]
    pub fn original_values(&self) -> &[i32] {
        &self.original
    }

    /// Per-filter thresholds `φ_th`.
    #[must_use]
    pub fn thresholds(&self) -> Vec<u32> {
        self.filters.iter().map(FilterApprox::threshold).collect()
    }

    /// Per-filter counts of non-zero approximated weights, in filter order.
    /// A magnitude-pruned layer shows counts below [`Self::filter_len`];
    /// the compiler uses them to shrink the tile footprint of sparse filters.
    #[must_use]
    pub fn filter_nonzero_counts(&self) -> Vec<usize> {
        self.filters.iter().map(FilterApprox::nonzero_weights).collect()
    }

    /// Fraction of exactly-zero approximated weights (value-level sparsity
    /// after FTA; `0.0` for an empty layer).
    #[must_use]
    pub fn value_zero_fraction(&self) -> f64 {
        let total = self.filter_count() * self.filter_len;
        if total == 0 {
            return 0.0;
        }
        let nonzero: usize = self.filters.iter().map(FilterApprox::nonzero_weights).sum();
        (total - nonzero) as f64 / total as f64
    }

    /// Histogram of the per-filter thresholds (`[count_φ0, count_φ1, count_φ2]`).
    #[must_use]
    pub fn threshold_histogram(&self) -> [usize; 3] {
        let mut hist = [0usize; 3];
        for f in &self.filters {
            hist[f.threshold() as usize] += 1;
        }
        hist
    }

    /// The approximated weights reassembled into the original tensor shape,
    /// at the layer's width.
    #[must_use]
    pub fn wide_tensor(&self) -> Tensor<i32> {
        let mut data = Vec::with_capacity(self.original.len());
        for f in &self.filters {
            data.extend_from_slice(f.values());
        }
        Tensor::from_vec(data, self.weight_shape.clone())
            .expect("filter decomposition preserves the element count")
    }

    /// The approximated weights reassembled into the original tensor shape
    /// as INT8 values.
    ///
    /// # Panics
    ///
    /// Panics when the layer's width exceeds [`OperandWidth::Int8`]: wider
    /// values do not fit `i8`. Use [`wide_tensor`](Self::wide_tensor) for
    /// width-generic consumers.
    #[must_use]
    pub fn approximated_tensor(&self) -> Tensor<i8> {
        assert!(
            self.width <= OperandWidth::Int8,
            "{} values do not fit an INT8 tensor; use wide_tensor()",
            self.width
        );
        let mut data = Vec::with_capacity(self.original.len());
        for f in &self.filters {
            data.extend(f.values().iter().map(|&v| v as i8));
        }
        Tensor::from_vec(data, self.weight_shape.clone())
            .expect("filter decomposition preserves the element count")
    }
}

/// FTA approximation of every PIM-mapped layer of a model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelApprox {
    model_name: String,
    width: OperandWidth,
    layers: Vec<LayerApprox>,
}

impl ModelApprox {
    /// Runs Algorithm 1 over every convolution and fully-connected layer of
    /// an INT8-quantized model (the paper's pipeline).
    ///
    /// # Errors
    ///
    /// Propagates weight-shape errors from the individual layers.
    pub fn from_quantized(model: &QuantizedModel) -> Result<Self, FtaError> {
        let _span = dbpim_trace::span!("fta.approx", model = model.name(), width = "int8");
        let tables = QueryTables::for_width(OperandWidth::Int8);
        let mut layers = Vec::new();
        for &id in &model.pim_node_ids() {
            let node = &model.nodes()[id];
            let weight =
                node.layer.weight().expect("pim_node_ids only returns layers with weights");
            layers.push(LayerApprox::from_weights(
                id,
                node.name.clone(),
                weight.values(),
                &tables,
            )?);
        }
        Ok(Self { model_name: model.name().to_string(), width: OperandWidth::Int8, layers })
    }

    /// Runs Algorithm 1 at an arbitrary operand width, quantizing the float
    /// weights of every PIM layer per output channel at that width first.
    ///
    /// This is the entry point for INT4/INT12/INT16 workloads: the float
    /// model provides the weights (batch norms folded into their producing
    /// convolutions first, exactly as the INT8 quantizer does),
    /// [`WideQuantizedTensor`] clamps them to the width's range, and the
    /// approximation proceeds exactly as the INT8 pipeline does.
    ///
    /// # Errors
    ///
    /// Propagates weight-shape errors from the individual layers and graph
    /// validation errors from the batch-norm fold.
    pub fn from_model_wide(model: &dbpim_nn::Model, width: OperandWidth) -> Result<Self, FtaError> {
        let _span = dbpim_trace::span!("fta.approx", model = model.name(), width = width.bits());
        let model = dbpim_nn::fold_batch_norm(model)?;
        let tables = QueryTables::for_width(width);
        let mut layers = Vec::new();
        for node in model.nodes() {
            let weight = match &node.layer {
                dbpim_nn::Layer::Conv2d { weight, .. } | dbpim_nn::Layer::Linear { weight, .. } => {
                    weight
                }
                _ => continue,
            };
            let quantized = WideQuantizedTensor::quantize_per_channel(weight, 0, width);
            layers.push(LayerApprox::from_wide_weights(
                node.id,
                node.name.clone(),
                quantized.values(),
                &tables,
            )?);
        }
        Ok(Self { model_name: model.name().to_string(), width, layers })
    }

    /// Name of the approximated model.
    #[must_use]
    pub fn model_name(&self) -> &str {
        &self.model_name
    }

    /// The operand width the approximation was computed at.
    #[must_use]
    pub fn width(&self) -> OperandWidth {
        self.width
    }

    /// Per-layer approximations in execution order.
    #[must_use]
    pub fn layers(&self) -> &[LayerApprox] {
        &self.layers
    }

    /// Weight-weighted fraction of exactly-zero approximated weights across
    /// every PIM layer (value-level sparsity after FTA).
    #[must_use]
    pub fn value_zero_fraction(&self) -> f64 {
        let total: usize = self.layers.iter().map(|l| l.filter_count() * l.filter_len()).sum();
        if total == 0 {
            return 0.0;
        }
        let zeros: f64 = self
            .layers
            .iter()
            .map(|l| l.value_zero_fraction() * (l.filter_count() * l.filter_len()) as f64)
            .sum();
        zeros / total as f64
    }

    /// The approximation for a specific graph node.
    ///
    /// # Errors
    ///
    /// Returns [`FtaError::UnknownLayer`] when the node was not approximated.
    pub fn layer(&self, node_id: NodeId) -> Result<&LayerApprox, FtaError> {
        self.layers.iter().find(|l| l.node_id == node_id).ok_or(FtaError::UnknownLayer { node_id })
    }

    /// Builds the FTA variant of a quantized model by substituting every
    /// approximated weight tensor.
    ///
    /// # Errors
    ///
    /// Returns [`FtaError::UnsupportedWidth`] for non-INT8 approximations —
    /// the quantized executor stores INT8 weights with INT8 scales, so even
    /// narrower (INT4) values would be installed against mismatched
    /// per-channel scales — and an error when the model's graph no longer
    /// matches the approximation (e.g. different shapes).
    pub fn apply(&self, model: &QuantizedModel) -> Result<QuantizedModel, FtaError> {
        if self.width != OperandWidth::Int8 {
            return Err(FtaError::UnsupportedWidth { bits: self.width.bits() });
        }
        let mut fta_model = model.clone();
        for layer in &self.layers {
            fta_model.replace_weight_values(layer.node_id, layer.approximated_tensor())?;
        }
        Ok(fta_model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbpim_csd::CsdWord;

    fn tables() -> QueryTables {
        QueryTables::for_width(OperandWidth::Int8)
    }

    #[test]
    fn threshold_selection_follows_algorithm_1() {
        // All zeros -> 0.
        assert_eq!(select_threshold(&[0i8, 0, 0]), 0);
        // Mode 0 but not all zero -> 1.
        assert_eq!(select_threshold(&[0i8, 0, 0, 1]), 1);
        // Mode 1 -> 1 (powers of two dominate).
        assert_eq!(select_threshold(&[1i8, 2, 4, 8, 7]), 1);
        // Mode 2 -> 2.
        assert_eq!(select_threshold(&[3i8, 5, 6, 9, 1]), 2);
        // Mode 3 -> clamped to 2. (φ(107) = φ(1101011b -> CSD) = 4)
        assert_eq!(select_threshold(&[0b0101_0101i8, 0b0101_0101, 0b0101_0101, 1]), 2);
        assert_eq!(select_threshold::<i8>(&[]), 0);
        // Wide values select thresholds the same way.
        assert_eq!(select_threshold(&[1024i32, 2048, 4096]), 1);
        assert_eq!(select_threshold(&[1025i32, 2050, 4100, 1]), 2);
    }

    #[test]
    fn approximated_weights_respect_the_threshold() {
        let weights: Vec<i8> = vec![3, -5, 17, 100, -100, 0, 127, -128];
        let f = FilterApprox::approximate(&weights, &tables()).unwrap();
        assert!(f.threshold() <= 2);
        assert_eq!(f.width(), OperandWidth::Int8);
        for &v in f.values() {
            assert!(dbpim_csd::phi(v) <= f.threshold(), "value {v}");
        }
        assert_eq!(f.len(), weights.len());
        assert!(!f.is_empty());
    }

    #[test]
    fn zero_filter_gets_threshold_zero() {
        let f = FilterApprox::approximate(&[0i8; 16], &tables()).unwrap();
        assert_eq!(f.threshold(), 0);
        assert_eq!(f.stored_blocks(), 0);
        assert_eq!(f.allocated_slots(), 0);
        assert_eq!(f.nonzero_weights(), 0);
        assert_eq!(f.mean_abs_error(&[0; 16]), 0.0);
    }

    #[test]
    fn pruned_zeros_survive_the_approximation_losslessly() {
        // A value-pruned filter: zeros interleaved with real weights. The
        // zero-skip fast path must leave every zero exactly zero and every
        // surviving weight identical to an unpruned filter of the same
        // values, at every operand width.
        for width in OperandWidth::all() {
            let tables = QueryTables::for_width(width);
            let survivors: Vec<i32> =
                (0..8).map(|i| (i * 37 + 11) % (width.max_value() / 2 + 1) + 1).collect();
            let mut pruned: Vec<i32> = Vec::new();
            for &s in &survivors {
                pruned.push(0);
                pruned.push(s);
            }
            let f = FilterApprox::approximate(&pruned, &tables).unwrap();
            assert_eq!(f.nonzero_weights(), survivors.len(), "{width}");
            for (i, &v) in f.values().iter().enumerate() {
                if i % 2 == 0 {
                    assert_eq!(v, 0, "{width}: pruned slot {i} must stay zero");
                } else {
                    // The zero-skip must not perturb the searched result for
                    // the surviving weights.
                    let table = tables.table(f.threshold()).unwrap();
                    assert_eq!(v, table.nearest(pruned[i]), "{width}: slot {i}");
                }
            }
        }
    }

    #[test]
    fn explicit_zero_threshold_snaps_everything_to_zero() {
        // The threshold-0 short circuit must match the searched behaviour:
        // T(0) = {0} maps every value to zero.
        let f = FilterApprox::approximate_with_threshold(&[7i8, -3, 0, 127], 0, &tables()).unwrap();
        assert_eq!(f.values(), &[0, 0, 0, 0]);
        assert_eq!(f.nonzero_weights(), 0);
    }

    #[test]
    fn explicit_threshold_is_validated() {
        assert!(FilterApprox::approximate_with_threshold(&[1i8, 2], 5, &tables()).is_err());
        let f = FilterApprox::approximate_with_threshold(&[7i8, 9], 1, &tables()).unwrap();
        assert_eq!(f.values(), &[8, 8]);
    }

    #[test]
    fn stored_blocks_never_exceed_allocated_slots() {
        let weights: Vec<i8> = (-64..64).collect();
        let f = FilterApprox::approximate(&weights, &tables()).unwrap();
        assert!(f.stored_blocks() <= f.allocated_slots());
        assert!(f.stored_blocks() > 0);
    }

    #[test]
    fn approximation_error_is_bounded() {
        let weights: Vec<i8> = (i8::MIN..=i8::MAX).collect();
        let f = FilterApprox::approximate_with_threshold(&weights, 2, &tables()).unwrap();
        let wide: Vec<i32> = weights.iter().map(|&w| i32::from(w)).collect();
        // Worst-case error of T(2) is 8 (see table tests).
        assert!(f.mean_abs_error(&wide) <= 8.0);
        for (&o, &a) in wide.iter().zip(f.values()) {
            assert!((o - a).abs() <= 8);
        }
    }

    #[test]
    fn wide_filters_respect_their_width_tables() {
        for width in OperandWidth::all() {
            let tables = QueryTables::for_width(width);
            let weights: Vec<i32> = (0..64)
                .map(|i| (i * 37 + 11) % (width.max_value() + 1) * if i % 2 == 0 { 1 } else { -1 })
                .collect();
            let f = FilterApprox::approximate(&weights, &tables).unwrap();
            assert_eq!(f.width(), width);
            for &v in f.values() {
                assert!(width.contains(v));
                assert!(dbpim_csd::phi(v) <= f.threshold());
            }
        }
    }

    #[test]
    fn layer_approx_round_trips_shape() {
        let weights =
            Tensor::from_vec((0..32).map(|v| (v * 7 % 120) as i8).collect(), vec![4, 8]).unwrap();
        let layer = LayerApprox::from_weights(3, "conv", &weights, &tables()).unwrap();
        assert_eq!(layer.node_id(), 3);
        assert_eq!(layer.name(), "conv");
        assert_eq!(layer.width(), OperandWidth::Int8);
        assert_eq!(layer.filter_count(), 4);
        assert_eq!(layer.filter_len(), 8);
        assert_eq!(layer.thresholds().len(), 4);
        assert_eq!(layer.threshold_histogram().iter().sum::<usize>(), 4);
        let t = layer.approximated_tensor();
        assert_eq!(t.shape(), weights.shape());
        let wide = layer.wide_tensor();
        for (&a, &b) in t.data().iter().zip(wide.data()) {
            assert_eq!(i32::from(a), b);
        }
    }

    #[test]
    fn apply_rejects_any_non_int8_approximation() {
        use dbpim_nn::zoo;
        use dbpim_tensor::random::TensorGenerator;
        let model = zoo::tiny_cnn(10, 31).unwrap();
        let mut gen = TensorGenerator::new(32);
        let (calibration, _) = gen.labelled_batch(1, 3, 32, 32, 10).unwrap();
        let quantized = QuantizedModel::quantize(&model, &calibration).unwrap();
        // Narrower approximations carry non-INT8 scales and must be rejected
        // just like wider ones, not silently installed.
        for width in [OperandWidth::Int4, OperandWidth::Int12, OperandWidth::Int16] {
            let approx = ModelApprox::from_model_wide(&model, width).unwrap();
            assert!(
                matches!(
                    approx.apply(&quantized),
                    Err(FtaError::UnsupportedWidth { bits }) if bits == width.bits()
                ),
                "{width} approximation was applied to the INT8 executor"
            );
        }
        let int8 = ModelApprox::from_quantized(&quantized).unwrap();
        assert!(int8.apply(&quantized).is_ok());
    }

    #[test]
    #[should_panic(expected = "do not fit an INT8 tensor")]
    fn wide_layers_refuse_the_int8_tensor_view() {
        let tables = QueryTables::for_width(OperandWidth::Int16);
        let weights = Tensor::from_vec(vec![1024i32, -2048, 0, 512], vec![2, 2]).unwrap();
        let layer = LayerApprox::from_wide_weights(0, "wide", &weights, &tables).unwrap();
        let _ = layer.approximated_tensor();
    }

    #[test]
    fn rank_one_weights_are_rejected() {
        let weights = Tensor::from_vec(vec![1i8, 2, 3], vec![3]).unwrap();
        assert!(matches!(
            LayerApprox::from_weights(0, "bad", &weights, &tables()),
            Err(FtaError::BadWeightShape { .. })
        ));
    }

    #[test]
    fn layer_counts_value_sparsity_per_filter() {
        // Filter 0 fully pruned, filter 1 half pruned, filter 2 dense.
        let weights = Tensor::from_vec(
            vec![0i8, 0, 0, 0, /* f1 */ 0, 5, 0, 9, /* f2 */ 1, 2, 3, 4],
            vec![3, 4],
        )
        .unwrap();
        let layer = LayerApprox::from_weights(0, "pruned", &weights, &tables()).unwrap();
        assert_eq!(layer.filter_nonzero_counts(), vec![0, 2, 4]);
        assert!((layer.value_zero_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(layer.thresholds()[0], 0);
    }

    #[test]
    fn phi_equals_word_nonzero_digits_for_i8() {
        for v in i8::MIN..=i8::MAX {
            assert_eq!(
                dbpim_csd::phi(i32::from(v)),
                CsdWord::encode(i32::from(v), OperandWidth::Int8).unwrap().nonzero_digits()
            );
        }
    }
}
