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
//! same code serves INT4/INT12/INT16 weight tensors. A layer is built from
//! one [`QuantizedTensor`] at any width and returns its approximation as a
//! [`QuantizedTensor`] with the same per-channel scales, which
//! [`ModelApprox::apply`] installs in the quantized executor at every width.

use dbpim_csd::OperandWidth;
use dbpim_nn::{NodeId, QuantizedModel};
use dbpim_tensor::quant::QuantizedTensor;
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
    /// Accepts any integer type that widens to `i32` (the `i16` values of a
    /// [`QuantizedTensor`] among them); the operand width is the one the
    /// `tables` were built for.
    ///
    /// # Errors
    ///
    /// Never fails for thresholds derived by the algorithm itself; the error
    /// type is shared with the explicit-threshold constructor.
    pub fn approximate<T: Into<i32> + Copy>(
        weights: &[T],
        tables: &QueryTables,
    ) -> Result<Self, FtaError> {
        Ok(Self::approximate_counted(weights, tables, &mut Vec::new()).0)
    }

    /// Algorithm 1 on one filter in two passes over its weights, counting
    /// what the FTA statistics need on the way. Pass one takes the weights'
    /// value histogram in `bins` (a zeroed scratch reused across filters);
    /// pass two maps each weight to its nearest table member. Everything
    /// else is counted per distinct value: the φ histogram that selects the
    /// threshold, the original's zero, binary-bit and CSD-digit counts, and
    /// the stored cells, non-zero weights and absolute error of the
    /// approximation. A filter shorter than its width's value range, or
    /// holding a value outside it, is counted weight by weight instead.
    ///
    /// # Panics
    ///
    /// Panics if an approximated weight lies outside the tables' width or
    /// needs more blocks than the threshold; the query tables guarantee
    /// neither happens.
    fn approximate_counted<T: Into<i32> + Copy>(
        weights: &[T],
        tables: &QueryTables,
        bins: &mut Vec<usize>,
    ) -> (Self, FilterCounts) {
        let original = || weights.iter().map(|&w| w.into());
        let width = tables.width();
        let (min, max) = (width.min_value(), width.max_value());
        let range = (max - min) as usize + 1;
        let binned = range <= weights.len() && {
            bins.resize(range, 0);
            let in_range = original().all(|v: i32| {
                bins.get_mut(v.wrapping_sub(min) as u32 as usize).map(|count| *count += 1).is_some()
            });
            if !in_range {
                bins.fill(0);
            }
            in_range
        };
        let weight_counts = || original().map(|v| (v, 1));
        let value_counts = || {
            bins.iter().zip(min..).filter(|&(&count, _)| count > 0).map(|(&count, v)| (v, count))
        };

        let digits = tables.digits().lookup();
        let mut hist = [0usize; PHI_BUCKETS];
        let (mut binary_bits, mut csd_digits) = (0u64, 0u64);
        let mut count_digits = |(v, count): (i32, usize)| {
            let (phi, bits) = digits(v);
            hist[(phi as usize).min(PHI_BUCKETS - 1)] += count;
            csd_digits += u64::from(phi) * count as u64;
            binary_bits += u64::from(bits) * count as u64;
        };
        if binned {
            value_counts().for_each(&mut count_digits);
        } else {
            weight_counts().for_each(&mut count_digits);
        }
        let threshold = threshold_from_histogram(&hist, weights.len());

        // Zero is a member of every table (it has no non-zero CSD digits),
        // so pruned weights stay zero and `T(0) = {0}` maps a fully-pruned
        // filter to zeros.
        let nearest =
            tables.table(threshold).expect("Algorithm 1 thresholds are at most 2").nearest_lookup();
        let values = original().map(|o| nearest(o).0).collect();
        let mut counts =
            FilterCounts { binary_bits, csd_digits, zeros: hist[0], ..FilterCounts::default() };
        let mut count_approximation = |(o, count): (i32, usize)| {
            let (a, blocks) = nearest(o);
            if !(min..=max).contains(&a) || blocks > threshold {
                out_of_table(a, blocks, threshold, width);
            }
            counts.stored_cells += blocks as usize * count;
            counts.nonzero += if a == 0 { 0 } else { count };
            counts.abs_error += (i64::from(o) - i64::from(a)).unsigned_abs() * count as u64;
        };
        if binned {
            value_counts().for_each(&mut count_approximation);
            bins.fill(0);
        } else {
            weight_counts().for_each(&mut count_approximation);
        }
        (Self { threshold, width, values }, counts)
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
        let table = tables.table(threshold)?;
        let values = weights.iter().map(|&w| table.nearest(w.into())).collect();
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
    pub fn mean_abs_error<T: Into<i32> + Copy>(&self, original: &[T]) -> f64 {
        if original.is_empty() {
            return 0.0;
        }
        let sum: i64 = original
            .iter()
            .zip(&self.values)
            .map(|(&o, &a)| (i64::from(o.into()) - i64::from(a)).abs())
            .sum();
        sum as f64 / original.len() as f64
    }
}

/// The failure of the checks the FTA pass makes on every approximated
/// weight, kept out of line so the pass stays a tight loop.
#[cold]
fn out_of_table(value: i32, blocks: u32, threshold: u32, width: OperandWidth) -> ! {
    assert!(width.contains(value), "FTA-approximated weight {value} exceeds {width}");
    panic!("weight {value} needs {blocks} blocks but the filter threshold is {threshold}");
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
    let mut hist = [0usize; PHI_BUCKETS];
    for &w in weights {
        hist[(dbpim_csd::phi(w.into()) as usize).min(PHI_BUCKETS - 1)] += 1;
    }
    threshold_from_histogram(&hist, weights.len())
}

/// One φ bucket per possible digit count: canonical words of the widest
/// supported operand (INT16) never exceed eight non-zero digits.
const PHI_BUCKETS: usize = OperandWidth::Int16.max_phi() as usize + 1;

/// Algorithm 1's threshold from a filter's φ histogram: 0 when every one of
/// the `len` weights is zero (φ = 0 only for zero), else the mode (lowest φ
/// on ties) mapped 0 → 1 and clamped to [`MAX_THRESHOLD`].
fn threshold_from_histogram(hist: &[usize; PHI_BUCKETS], len: usize) -> u32 {
    if hist[0] == len {
        return 0;
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

/// What the two passes over one filter count besides its approximated
/// values: everything [`LayerFtaStats`](crate::stats::LayerFtaStats) needs,
/// so the statistics are arithmetic on counts instead of further passes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct FilterCounts {
    /// Non-zero magnitude bits of the original weights.
    pub(crate) binary_bits: u64,
    /// Non-zero CSD digits of the original weights.
    pub(crate) csd_digits: u64,
    /// Exactly-zero original weights.
    pub(crate) zeros: usize,
    /// Non-zero CSD digits of the approximated weights (occupied cells).
    pub(crate) stored_cells: usize,
    /// Non-zero approximated weights.
    pub(crate) nonzero: usize,
    /// `Σ |original − approximated|` over the filter.
    pub(crate) abs_error: u64,
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
    filter_len: usize,
    /// The quantized weights the layer approximated.
    original: QuantizedTensor,
    filters: Vec<FilterApprox>,
    /// Per-filter counts from the approximation passes.
    counts: Vec<FilterCounts>,
}

impl LayerApprox {
    /// Runs Algorithm 1 over every filter of one layer's quantized weights,
    /// whose values lie in the range of the `tables`' operand width. The
    /// layer keeps `weights` as its original weights.
    ///
    /// # Errors
    ///
    /// Returns [`FtaError::BadWeightShape`] for tensors of rank below 2.
    pub fn from_weights(
        node_id: NodeId,
        name: impl Into<String>,
        weights: QuantizedTensor,
        tables: &QueryTables,
    ) -> Result<Self, FtaError> {
        let shape = weights.values().shape();
        if shape.len() < 2 {
            return Err(FtaError::BadWeightShape { shape: shape.to_vec() });
        }
        let data = weights.values().data();
        let filters_count = shape[0];
        let filter_len = data.len() / filters_count;
        let mut bins = Vec::new();
        let mut filters = Vec::with_capacity(filters_count);
        let mut counts = Vec::with_capacity(filters_count);
        for f in 0..filters_count {
            let slice = &data[f * filter_len..(f + 1) * filter_len];
            let (filter, filter_counts) =
                FilterApprox::approximate_counted(slice, tables, &mut bins);
            filters.push(filter);
            counts.push(filter_counts);
        }
        Ok(Self {
            node_id,
            name: name.into(),
            width: tables.width(),
            filter_len,
            original: weights,
            filters,
            counts,
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
    pub fn original_values(&self) -> &[i16] {
        self.original.values().data()
    }

    /// Per-filter counts taken while approximating.
    pub(crate) fn counts(&self) -> &[FilterCounts] {
        &self.counts
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
        self.counts.iter().map(|c| c.nonzero).collect()
    }

    /// Fraction of exactly-zero approximated weights (value-level sparsity
    /// after FTA; `0.0` for an empty layer).
    #[must_use]
    pub fn value_zero_fraction(&self) -> f64 {
        let total = self.filter_count() * self.filter_len;
        if total == 0 {
            return 0.0;
        }
        let nonzero: usize = self.counts.iter().map(|c| c.nonzero).sum();
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

    /// The approximated weights reassembled into the original tensor's
    /// shape, with its per-channel scales.
    #[must_use]
    pub fn approximated_tensor(&self) -> QuantizedTensor {
        let mut data = Vec::with_capacity(self.original.values().numel());
        for f in &self.filters {
            data.extend(f.values().iter().map(|&v| v as i16));
        }
        let values = Tensor::from_vec(data, self.original.values().shape().to_vec())
            .expect("filter decomposition preserves the element count");
        QuantizedTensor::new(values, self.original.scheme().clone())
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
    /// an INT8-quantized model (the paper's pipeline), approximating the
    /// weight tensors the executor holds.
    ///
    /// # Errors
    ///
    /// Propagates weight-shape errors from the individual layers.
    pub fn from_quantized(model: &QuantizedModel) -> Result<Self, FtaError> {
        let width = OperandWidth::Int8;
        let _span = dbpim_trace::span!("fta.approx", model = model.name(), width = width.bits());
        let tables = QueryTables::for_width(width);
        let mut layers = Vec::new();
        for &id in &model.pim_node_ids() {
            let node = &model.nodes()[id];
            let weight =
                node.layer.weight().expect("pim_node_ids only returns layers with weights");
            layers.push(LayerApprox::from_weights(id, node.name.clone(), weight.clone(), &tables)?);
        }
        Ok(Self { model_name: model.name().to_string(), width, layers })
    }

    /// Runs Algorithm 1 at an arbitrary operand width, quantizing the float
    /// weights of every PIM layer per output channel at that width first.
    ///
    /// This is the entry point for INT4/INT12/INT16 workloads: the float
    /// model provides the weights (batch norms folded into their producing
    /// convolutions first, exactly as the INT8 quantizer does),
    /// [`QuantizedTensor::quantize_per_channel`] clamps them to the width's
    /// range, and the approximation proceeds exactly as the INT8 pipeline
    /// does. Callers that already hold the folded model call
    /// [`from_folded_wide`](Self::from_folded_wide).
    ///
    /// # Errors
    ///
    /// Propagates weight-shape errors from the individual layers and graph
    /// validation errors from the batch-norm fold.
    pub fn from_model_wide(model: &dbpim_nn::Model, width: OperandWidth) -> Result<Self, FtaError> {
        Self::from_folded_wide(&dbpim_nn::fold_batch_norm(model)?, width)
    }

    /// [`from_model_wide`](Self::from_model_wide) of a model whose batch
    /// norms [`dbpim_nn::fold_batch_norm`] already folded (exactly once:
    /// folding is not idempotent).
    ///
    /// # Errors
    ///
    /// Propagates weight-shape errors from the individual layers.
    pub fn from_folded_wide(
        folded: &dbpim_nn::Model,
        width: OperandWidth,
    ) -> Result<Self, FtaError> {
        let _span = dbpim_trace::span!("fta.approx", model = folded.name(), width = width.bits());
        let quantize_span = dbpim_trace::span!("fta.quantize", width = width.bits());
        let weights: Vec<_> = folded
            .nodes()
            .iter()
            .filter_map(|node| match &node.layer {
                dbpim_nn::Layer::Conv2d { weight, .. } | dbpim_nn::Layer::Linear { weight, .. } => {
                    Some((node, QuantizedTensor::quantize_per_channel(weight, 0, width)))
                }
                _ => None,
            })
            .collect();
        drop(quantize_span);
        let tables = QueryTables::for_width(width);
        let layers = weights
            .into_iter()
            .map(|(node, weight)| {
                LayerApprox::from_weights(node.id, node.name.clone(), weight, &tables)
            })
            .collect::<Result<_, _>>()?;
        Ok(Self { model_name: folded.name().to_string(), width, layers })
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
    /// approximated weight tensor — values and per-channel scales at the
    /// approximation's width — for the model's PIM weights. Activations
    /// stay INT8.
    ///
    /// # Errors
    ///
    /// Returns an error when the model's graph no longer matches the
    /// approximation (e.g. different shapes).
    pub fn apply(&self, model: &QuantizedModel) -> Result<QuantizedModel, FtaError> {
        let mut fta_model = model.clone();
        for layer in &self.layers {
            fta_model.replace_weight(layer.node_id, layer.approximated_tensor())?;
        }
        Ok(fta_model)
    }
}

/// `values` of `shape` as a quantized weight tensor with unit scales.
#[cfg(test)]
pub(crate) fn unit_scale_weights(values: Vec<i16>, shape: Vec<usize>) -> QuantizedTensor {
    use dbpim_tensor::quant::{QuantParams, QuantScheme};
    let params = vec![QuantParams::new(1.0, 0); shape[0]];
    let values = Tensor::from_vec(values, shape).expect("values fill the shape");
    QuantizedTensor::new(values, QuantScheme::PerChannel { axis: 0, params })
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
        // A value-pruned filter: zeros interleaved with real weights. Every
        // zero must stay exactly zero and every surviving weight must take
        // its table's nearest member, at every operand width.
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
                    let table = tables.table(f.threshold()).unwrap();
                    assert_eq!(v, table.nearest(pruned[i]), "{width}: slot {i}");
                }
            }
        }
    }

    #[test]
    fn explicit_zero_threshold_snaps_everything_to_zero() {
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
        let weights = unit_scale_weights((0..32).map(|v| v * 7 % 120).collect(), vec![4, 8]);
        let layer = LayerApprox::from_weights(3, "conv", weights.clone(), &tables()).unwrap();
        assert_eq!(layer.node_id(), 3);
        assert_eq!(layer.name(), "conv");
        assert_eq!(layer.width(), OperandWidth::Int8);
        assert_eq!(layer.filter_count(), 4);
        assert_eq!(layer.filter_len(), 8);
        assert_eq!(layer.thresholds().len(), 4);
        assert_eq!(layer.threshold_histogram().iter().sum::<usize>(), 4);
        assert_eq!(layer.original_values(), weights.values().data());
        let t = layer.approximated_tensor();
        assert_eq!(t.values().shape(), weights.values().shape());
        assert_eq!(t.scheme(), weights.scheme());
        let filters = layer.filters().iter().flat_map(|f| f.values().iter().map(|&v| v as i16));
        assert!(t.values().data().iter().copied().eq(filters));
    }

    #[test]
    fn apply_installs_every_width_on_the_pim_layers() {
        use dbpim_nn::zoo;
        use dbpim_tensor::random::TensorGenerator;
        let model = zoo::tiny_cnn(10, 31).unwrap();
        let folded = dbpim_nn::fold_batch_norm(&model).unwrap();
        let mut gen = TensorGenerator::new(32);
        let (calibration, _) = gen.labelled_batch(1, 3, 32, 32, 10).unwrap();
        let quantized = QuantizedModel::quantize(&model, &calibration).unwrap();
        for width in OperandWidth::all() {
            let approx = ModelApprox::from_model_wide(&model, width).unwrap();
            let fta_model = approx.apply(&quantized).unwrap();
            for (base, node) in quantized.nodes().iter().zip(fta_model.nodes()) {
                let Some(installed) = node.layer.weight() else {
                    assert_eq!(base, node, "{width}: non-PIM node {} changed", base.name);
                    continue;
                };
                let layer = approx.layer(node.id).unwrap();
                assert_eq!(installed, &layer.approximated_tensor(), "{width} {}", node.name);
                // The width's own per-channel scales, not the INT8 ones.
                let float_weight = match &folded.nodes()[node.id].layer {
                    dbpim_nn::Layer::Conv2d { weight, .. }
                    | dbpim_nn::Layer::Linear { weight, .. } => weight,
                    other => panic!("{} is not a PIM layer", other.kind_name()),
                };
                let scales = QuantizedTensor::quantize_per_channel(float_weight, 0, width);
                assert_eq!(installed.scheme(), scales.scheme(), "{width} {}", node.name);
                assert_eq!(
                    installed.scheme() == base.layer.weight().unwrap().scheme(),
                    width == OperandWidth::Int8,
                    "{width} {}",
                    node.name
                );
            }
            assert_eq!(fta_model.forward(&calibration[0]).unwrap().shape(), &[10]);
        }
        // At INT8 the width path approximates exactly the executor's tensors.
        let int8 = ModelApprox::from_quantized(&quantized).unwrap();
        assert_eq!(int8, ModelApprox::from_model_wide(&model, OperandWidth::Int8).unwrap());
    }

    #[test]
    fn rank_one_weights_are_rejected() {
        let weights = unit_scale_weights(vec![1, 2, 3], vec![3]);
        assert!(matches!(
            LayerApprox::from_weights(0, "bad", weights, &tables()),
            Err(FtaError::BadWeightShape { .. })
        ));
    }

    #[test]
    fn layer_counts_value_sparsity_per_filter() {
        // Filter 0 fully pruned, filter 1 half pruned, filter 2 dense.
        let weights = unit_scale_weights(
            vec![0, 0, 0, 0, /* f1 */ 0, 5, 0, 9, /* f2 */ 1, 2, 3, 4],
            vec![3, 4],
        );
        let layer = LayerApprox::from_weights(0, "pruned", weights, &tables()).unwrap();
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
