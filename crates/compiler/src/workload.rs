//! Layer workloads: the hardware-facing view of a model.
//!
//! A workload describes one graph node in the terms the mapper and simulator
//! care about: the implicit-GEMM dimensions of a PIM layer (filters ×
//! filter-length × output positions), its per-filter FTA thresholds, the
//! measured block-wise input bit sparsity of the tensor it consumes, or — for
//! everything else — the element count the SIMD core has to touch.

use std::collections::HashMap;
use std::sync::Arc;

use dbpim_fta::ModelApprox;
use dbpim_nn::{Layer, Model, NodeId};
use serde::{Deserialize, Serialize};

use crate::error::CompileError;

/// Block-wise input bit-sparsity per graph node.
///
/// For every PIM layer the profile stores the fraction of all-zero bit
/// columns (groups of 16 features, Fig. 2(b)) of the tensor that layer reads.
/// Layers without a measurement fall back to zero (no skippable columns).
///
/// The ratios sit behind one [`Arc`], so a clone is a pointer copy: every
/// result of one prepared model shares one profile.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct InputSparsityProfile {
    ratios: Arc<HashMap<NodeId, f64>>,
}

impl InputSparsityProfile {
    /// Creates an empty profile (no input sparsity anywhere).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the zero-column ratio of the input consumed by `node_id`.
    pub fn set(&mut self, node_id: NodeId, ratio: f64) {
        Arc::make_mut(&mut self.ratios).insert(node_id, ratio.clamp(0.0, 1.0));
    }

    /// The zero-column ratio for a node (0.0 when unknown).
    #[must_use]
    pub fn ratio(&self, node_id: NodeId) -> f64 {
        self.ratios.get(&node_id).copied().unwrap_or(0.0)
    }

    /// Number of recorded nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ratios.len()
    }

    /// Returns `true` when no node has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ratios.is_empty()
    }

    /// Mean ratio across recorded nodes (used in reports).
    #[must_use]
    pub fn mean_ratio(&self) -> f64 {
        if self.ratios.is_empty() {
            return 0.0;
        }
        self.ratios.values().sum::<f64>() / self.ratios.len() as f64
    }
}

impl FromIterator<(NodeId, f64)> for InputSparsityProfile {
    fn from_iter<T: IntoIterator<Item = (NodeId, f64)>>(iter: T) -> Self {
        let mut profile = Self::new();
        for (id, ratio) in iter {
            profile.set(id, ratio);
        }
        profile
    }
}

/// The kind of a PIM-mapped layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PimLayerKind {
    /// Ordinary or grouped convolution.
    Conv2d,
    /// Depthwise convolution (`groups == in_channels`).
    DepthwiseConv2d,
    /// Fully-connected layer.
    Linear,
}

/// Workload of one layer that runs on the PIM macros.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PimWorkload {
    /// Graph node id.
    pub node_id: NodeId,
    /// Layer name.
    pub name: String,
    /// Layer kind.
    pub kind: PimLayerKind,
    /// Number of filters (output channels / output features).
    pub filters: usize,
    /// Weights per filter (`in/groups · k · k` or `in_features`).
    pub filter_len: usize,
    /// Output positions per filter (`oh · ow` for convolutions, 1 for FC).
    pub output_positions: usize,
    /// Per-filter FTA thresholds `φ_th` (empty when the layer is mapped
    /// densely, e.g. for the baseline).
    pub thresholds: Vec<u32>,
    /// Per-filter counts of non-zero weights after FTA, in filter order.
    /// Populated only by [`extract_workloads_with_value_sparsity`] (the
    /// value-pruned pipeline); empty means "assume every weight non-zero",
    /// which preserves the historical tiling exactly.
    pub filter_nonzeros: Vec<usize>,
    /// Block-wise zero bit-column ratio of this layer's input tensor.
    pub input_skip_ratio: f64,
    /// Multiply-accumulate count of the layer.
    pub macs: u64,
}

impl PimWorkload {
    /// Histogram of per-filter thresholds `[φ0, φ1, φ2]`.
    #[must_use]
    pub fn threshold_histogram(&self) -> [usize; 3] {
        let mut hist = [0usize; 3];
        for &t in &self.thresholds {
            hist[(t as usize).min(2)] += 1;
        }
        hist
    }

    /// Total INT8 weights of the layer.
    #[must_use]
    pub fn weight_count(&self) -> usize {
        self.filters * self.filter_len
    }

    /// Fraction of exactly-zero weights recorded for this layer (`0.0` when
    /// no value-sparsity information was extracted).
    #[must_use]
    pub fn value_zero_fraction(&self) -> f64 {
        if self.filter_nonzeros.is_empty() || self.weight_count() == 0 {
            return 0.0;
        }
        let nonzero: usize = self.filter_nonzeros.iter().sum();
        1.0 - nonzero as f64 / self.weight_count() as f64
    }
}

/// Workload of one layer that runs on the SIMD core.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimdWorkload {
    /// Graph node id.
    pub node_id: NodeId,
    /// Layer name.
    pub name: String,
    /// Layer kind name (e.g. `"activation"`, `"pool2d"`, `"add"`).
    pub kind: String,
    /// Number of output elements the SIMD core produces.
    pub elements: u64,
}

/// One node's workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Workload {
    /// Runs on the PIM macros.
    Pim(PimWorkload),
    /// Runs on the SIMD core.
    Simd(SimdWorkload),
}

impl Workload {
    /// Graph node id of the workload.
    #[must_use]
    pub fn node_id(&self) -> NodeId {
        match self {
            Workload::Pim(w) => w.node_id,
            Workload::Simd(w) => w.node_id,
        }
    }

    /// The PIM workload, if this node runs on the macros.
    #[must_use]
    pub fn as_pim(&self) -> Option<&PimWorkload> {
        match self {
            Workload::Pim(w) => Some(w),
            Workload::Simd(_) => None,
        }
    }
}

/// The full set of workloads of one model, in execution order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelWorkloads {
    /// Name of the model.
    pub model_name: String,
    /// One workload per graph node.
    pub workloads: Vec<Workload>,
}

impl ModelWorkloads {
    /// The PIM workloads in execution order.
    #[must_use]
    pub fn pim_workloads(&self) -> Vec<&PimWorkload> {
        self.workloads.iter().filter_map(Workload::as_pim).collect()
    }

    /// Total MACs mapped onto the PIM macros.
    #[must_use]
    pub fn total_pim_macs(&self) -> u64 {
        self.pim_workloads().iter().map(|w| w.macs).sum()
    }

    /// Total SIMD elements.
    #[must_use]
    pub fn total_simd_elements(&self) -> u64 {
        self.workloads
            .iter()
            .filter_map(|w| match w {
                Workload::Simd(s) => Some(s.elements),
                Workload::Pim(_) => None,
            })
            .sum()
    }
}

/// Extracts the per-node workloads of a model.
///
/// `approx` supplies the per-filter FTA thresholds; pass `None` to describe a
/// purely dense mapping (the thresholds are then left empty). `input_sparsity`
/// supplies the measured block-wise zero-column ratios.
///
/// # Errors
///
/// Propagates shape-inference errors from the model graph and
/// [`CompileError::UnknownNode`] when the approximation references a node the
/// model lacks.
pub fn extract_workloads(
    model: &Model,
    approx: Option<&ModelApprox>,
    input_sparsity: &InputSparsityProfile,
) -> Result<ModelWorkloads, CompileError> {
    extract_workloads_inner(model, approx, input_sparsity, false)
}

/// Like [`extract_workloads`], but additionally records each PIM layer's
/// per-filter non-zero weight counts ([`PimWorkload::filter_nonzeros`]) from
/// the approximation, so the mapper can compact value-pruned filters into
/// fewer weight tiles.
///
/// Only the value-pruned pipeline calls this: recording the counts for an
/// unpruned model would let incidental quantization zeros perturb the tiling,
/// breaking bit-identity with the historical dense extraction.
///
/// # Errors
///
/// Same failure modes as [`extract_workloads`].
pub fn extract_workloads_with_value_sparsity(
    model: &Model,
    approx: Option<&ModelApprox>,
    input_sparsity: &InputSparsityProfile,
) -> Result<ModelWorkloads, CompileError> {
    extract_workloads_inner(model, approx, input_sparsity, true)
}

fn extract_workloads_inner(
    model: &Model,
    approx: Option<&ModelApprox>,
    input_sparsity: &InputSparsityProfile,
    value_sparsity: bool,
) -> Result<ModelWorkloads, CompileError> {
    let shapes = model.node_output_shapes()?;
    let mut workloads = Vec::with_capacity(model.nodes().len());
    for node in model.nodes() {
        let input_shape: Vec<usize> = if node.inputs.is_empty() {
            model.input_shape().to_vec()
        } else {
            shapes
                .get(node.inputs[0])
                .cloned()
                .ok_or(CompileError::UnknownNode { node_id: node.inputs[0] })?
        };
        let output_shape = &shapes[node.id];
        let workload = match &node.layer {
            Layer::Conv2d { cfg, .. } => {
                let (oh, ow) = cfg.output_hw(input_shape[1], input_shape[2]);
                let kind = if cfg.groups == cfg.in_channels && cfg.groups > 1 {
                    PimLayerKind::DepthwiseConv2d
                } else {
                    PimLayerKind::Conv2d
                };
                Workload::Pim(PimWorkload {
                    node_id: node.id,
                    name: node.name.clone(),
                    kind,
                    filters: cfg.out_channels,
                    filter_len: cfg.filter_len(),
                    output_positions: oh * ow,
                    thresholds: thresholds_for(approx, node.id),
                    filter_nonzeros: nonzeros_for(approx, node.id, value_sparsity),
                    input_skip_ratio: input_sparsity.ratio(node.id),
                    macs: cfg.macs(oh, ow),
                })
            }
            Layer::Linear { cfg, .. } => Workload::Pim(PimWorkload {
                node_id: node.id,
                name: node.name.clone(),
                kind: PimLayerKind::Linear,
                filters: cfg.out_features,
                filter_len: cfg.in_features,
                output_positions: 1,
                thresholds: thresholds_for(approx, node.id),
                filter_nonzeros: nonzeros_for(approx, node.id, value_sparsity),
                input_skip_ratio: input_sparsity.ratio(node.id),
                macs: cfg.macs(),
            }),
            other => Workload::Simd(SimdWorkload {
                node_id: node.id,
                name: node.name.clone(),
                kind: other.kind_name().to_string(),
                elements: output_shape.iter().product::<usize>() as u64,
            }),
        };
        workloads.push(workload);
    }
    Ok(ModelWorkloads { model_name: model.name().to_string(), workloads })
}

fn thresholds_for(approx: Option<&ModelApprox>, node_id: NodeId) -> Vec<u32> {
    approx.and_then(|a| a.layer(node_id).ok()).map(|layer| layer.thresholds()).unwrap_or_default()
}

fn nonzeros_for(approx: Option<&ModelApprox>, node_id: NodeId, enabled: bool) -> Vec<usize> {
    if !enabled {
        return Vec::new();
    }
    approx
        .and_then(|a| a.layer(node_id).ok())
        .map(|layer| layer.filter_nonzero_counts())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbpim_nn::zoo;
    use dbpim_nn::QuantizedModel;
    use dbpim_tensor::random::TensorGenerator;

    fn tiny_workloads(with_fta: bool) -> ModelWorkloads {
        let model = zoo::tiny_cnn(10, 5).unwrap();
        let approx = if with_fta {
            let mut gen = TensorGenerator::new(6);
            let (cal, _) = gen.labelled_batch(2, 3, 32, 32, 10).unwrap();
            let q = QuantizedModel::quantize(&model, &cal).unwrap();
            Some(ModelApprox::from_quantized(&q).unwrap())
        } else {
            None
        };
        let mut profile = InputSparsityProfile::new();
        profile.set(0, 0.4);
        extract_workloads(&model, approx.as_ref(), &profile).unwrap()
    }

    #[test]
    fn every_node_gets_a_workload() {
        let model = zoo::tiny_cnn(10, 5).unwrap();
        let w = tiny_workloads(false);
        assert_eq!(w.workloads.len(), model.nodes().len());
        assert_eq!(w.pim_workloads().len(), 4);
        assert!(w.total_pim_macs() > 0);
        assert!(w.total_simd_elements() > 0);
    }

    #[test]
    fn conv_workload_geometry_matches_configuration() {
        let w = tiny_workloads(false);
        let conv1 = w.pim_workloads()[0].clone();
        assert_eq!(conv1.kind, PimLayerKind::Conv2d);
        assert_eq!(conv1.filters, 16);
        assert_eq!(conv1.filter_len, 27);
        assert_eq!(conv1.output_positions, 32 * 32);
        assert_eq!(conv1.macs, 16 * 27 * 1024);
        assert!((conv1.input_skip_ratio - 0.4).abs() < 1e-12);
        assert_eq!(conv1.weight_count(), 16 * 27);
    }

    #[test]
    fn thresholds_come_from_the_fta_approximation() {
        let with = tiny_workloads(true);
        let without = tiny_workloads(false);
        let conv_with = with.pim_workloads()[0].clone();
        let conv_without = without.pim_workloads()[0].clone();
        assert_eq!(conv_with.thresholds.len(), conv_with.filters);
        assert!(conv_without.thresholds.is_empty());
        assert_eq!(conv_with.threshold_histogram().iter().sum::<usize>(), conv_with.filters);
        assert_eq!(conv_without.threshold_histogram(), [0, 0, 0]);
    }

    #[test]
    fn depthwise_convolutions_are_classified() {
        let model = dbpim_nn::ModelKind::MobileNetV2.build_with_width(10, 1, 0.25).unwrap();
        let w = extract_workloads(&model, None, &InputSparsityProfile::new()).unwrap();
        assert!(w.pim_workloads().iter().any(|p| p.kind == PimLayerKind::DepthwiseConv2d));
    }

    #[test]
    fn sparsity_profile_clamps_and_averages() {
        let mut p = InputSparsityProfile::new();
        assert!(p.is_empty());
        p.set(0, 1.5);
        p.set(1, -0.5);
        p.set(2, 0.25);
        assert_eq!(p.ratio(0), 1.0);
        assert_eq!(p.ratio(1), 0.0);
        assert_eq!(p.ratio(99), 0.0);
        assert_eq!(p.len(), 3);
        assert!((p.mean_ratio() - (1.25 / 3.0)).abs() < 1e-12);
        let q: InputSparsityProfile = vec![(4, 0.5)].into_iter().collect();
        assert_eq!(q.ratio(4), 0.5);
    }
}
