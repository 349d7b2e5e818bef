//! Post-training quantization and the quantized executor.
//!
//! The paper evaluates every model at 8b/8b precision: weights are quantized
//! symmetrically per output channel, activations affinely per tensor.
//! [`QuantizedModel::quantize`] builds that INT8 model. A weight tensor at
//! any other operand width (INT4/INT12/INT16) replaces a PIM layer's values
//! and per-channel scales together ([`QuantizedModel::replace_weight`]);
//! activations stay INT8 at every weight width. The convolution and
//! fully-connected layers — the only layers mapped onto the PIM macros — are
//! executed with true integer arithmetic (`acc += (q_x - zp_x) * q_w`,
//! exact in `i64`), the accumulation the DB-PIM macro performs bit-serially.
//! All other layers belong to the SIMD core and are executed at float
//! precision between dequantize/requantize steps.

use dbpim_tensor::quant::{OperandWidth, QuantParams, QuantScheme, QuantizedTensor};
use dbpim_tensor::Tensor;
use serde::{Deserialize, Serialize};

use crate::error::NnError;
use crate::graph::{argmax, Model, NodeId};
use crate::layer::{Activation, Conv2dCfg, Layer, LinearCfg, Pool2dCfg};
use crate::ops;

/// One layer of a quantized model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum QuantizedLayer {
    /// Integer convolution (INT8 activations, weights per-output-channel
    /// symmetric at any operand width).
    Conv2d {
        /// Geometry configuration.
        cfg: Conv2dCfg,
        /// Quantized weights of shape `[out, in/groups, k, k]`.
        weight: QuantizedTensor,
        /// Float bias (applied after the integer accumulation, as the
        /// post-processing units do).
        bias: Option<Vec<f32>>,
    },
    /// Integer fully-connected layer.
    Linear {
        /// Geometry configuration.
        cfg: LinearCfg,
        /// Quantized weights of shape `[out, in]`.
        weight: QuantizedTensor,
        /// Float bias.
        bias: Option<Vec<f32>>,
    },
    /// Element-wise activation (SIMD core).
    Activation(Activation),
    /// Spatial pooling (SIMD core).
    Pool2d(Pool2dCfg),
    /// Global average pooling (SIMD core).
    GlobalAvgPool,
    /// Flatten (free).
    Flatten,
    /// Residual addition (SIMD core).
    Add,
    /// Squeeze-and-excite channel scaling (SIMD core).
    ChannelScale,
    /// Identity copy — the remnant of a folded batch-norm layer.
    Identity,
}

impl QuantizedLayer {
    /// Short kind name used in reports.
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match self {
            QuantizedLayer::Conv2d { .. } => "conv2d",
            QuantizedLayer::Linear { .. } => "linear",
            QuantizedLayer::Activation(_) => "activation",
            QuantizedLayer::Pool2d(_) => "pool2d",
            QuantizedLayer::GlobalAvgPool => "global_avg_pool",
            QuantizedLayer::Flatten => "flatten",
            QuantizedLayer::Add => "add",
            QuantizedLayer::ChannelScale => "channel_scale",
            QuantizedLayer::Identity => "identity",
        }
    }

    /// Returns `true` when the layer's MACs run on the PIM macros.
    #[must_use]
    pub fn is_pim_layer(&self) -> bool {
        matches!(self, QuantizedLayer::Conv2d { .. } | QuantizedLayer::Linear { .. })
    }

    /// The quantized weight tensor for PIM layers.
    #[must_use]
    pub fn weight(&self) -> Option<&QuantizedTensor> {
        match self {
            QuantizedLayer::Conv2d { weight, .. } | QuantizedLayer::Linear { weight, .. } => {
                Some(weight)
            }
            _ => None,
        }
    }
}

/// One node of a quantized model graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedNode {
    /// Node id (position in the node list).
    pub id: NodeId,
    /// Node name, carried over from the float model.
    pub name: String,
    /// Producer node ids; empty means "the model input".
    pub inputs: Vec<NodeId>,
    /// The quantized layer.
    pub layer: QuantizedLayer,
    /// Quantization parameters of this node's INT8 output.
    pub output_qp: QuantParams,
}

/// A quantized model: INT8 activations, per-channel quantized weights.
///
/// Built from a float [`Model`] with [`QuantizedModel::quantize`] (INT8
/// weights); the FTA algorithm then substitutes the PIM-layer weights, at
/// its own operand width, via [`QuantizedModel::replace_weight`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedModel {
    name: String,
    input_shape: Vec<usize>,
    input_qp: QuantParams,
    nodes: Vec<QuantizedNode>,
}

impl QuantizedModel {
    /// Quantizes a float model using `calibration` images to determine the
    /// activation ranges of every node.
    ///
    /// Batch-norm layers are folded into the preceding convolution before
    /// quantization (the standard inference-time transformation), leaving an
    /// identity node in their place so node ids stay aligned with the float
    /// graph. Callers that need the folded model too fold it once with
    /// [`fold_batch_norm`] and call [`quantize_folded`](Self::quantize_folded).
    ///
    /// # Errors
    ///
    /// Returns an error when the model fails validation, a calibration
    /// forward pass fails, or no calibration images are supplied.
    pub fn quantize(model: &Model, calibration: &[Tensor<f32>]) -> Result<Self, NnError> {
        Self::quantize_folded(&fold_batch_norm(model)?, calibration)
    }

    /// [`quantize`](Self::quantize) of a model whose batch norms
    /// [`fold_batch_norm`] already folded. Folding is not idempotent (a
    /// folded batch norm keeps its `eps`), so the model must be folded
    /// exactly once.
    ///
    /// # Errors
    ///
    /// Returns an error when the model fails validation, a calibration
    /// forward pass fails, or no calibration images are supplied.
    pub fn quantize_folded(folded: &Model, calibration: &[Tensor<f32>]) -> Result<Self, NnError> {
        let _span =
            dbpim_trace::span!("nn.quantize", model = folded.name(), images = calibration.len());
        if calibration.is_empty() {
            return Err(NnError::BadParameters {
                layer: folded.name().to_string(),
                reason: "at least one calibration image is required".to_string(),
            });
        }
        folded.validate()?;

        // Calibration: per-node and input min/max over all calibration images.
        let calibrate_span = dbpim_trace::span!("nn.calibrate");
        let node_count = folded.nodes().len();
        let mut node_min = vec![f32::INFINITY; node_count];
        let mut node_max = vec![f32::NEG_INFINITY; node_count];
        let mut in_min = f32::INFINITY;
        let mut in_max = f32::NEG_INFINITY;
        for image in calibration {
            let (lo, hi) = image.min_max();
            in_min = in_min.min(lo);
            in_max = in_max.max(hi);
            let outputs = folded.forward_all(image)?;
            for (i, out) in outputs.iter().enumerate() {
                let (lo, hi) = out.min_max();
                node_min[i] = node_min[i].min(lo);
                node_max[i] = node_max[i].max(hi);
            }
        }
        drop(calibrate_span);

        let _weights_span = dbpim_trace::span!("nn.quantize_weights");
        let input_qp = QuantParams::affine_from_range(in_min, in_max);
        let mut nodes = Vec::with_capacity(node_count);
        for (i, node) in folded.nodes().iter().enumerate() {
            let output_qp = QuantParams::affine_from_range(node_min[i], node_max[i]);
            let layer = match &node.layer {
                Layer::Conv2d { cfg, weight, bias } => QuantizedLayer::Conv2d {
                    cfg: *cfg,
                    weight: QuantizedTensor::quantize_per_channel(weight, 0, OperandWidth::Int8),
                    bias: bias.clone(),
                },
                Layer::Linear { cfg, weight, bias } => QuantizedLayer::Linear {
                    cfg: *cfg,
                    weight: QuantizedTensor::quantize_per_channel(weight, 0, OperandWidth::Int8),
                    bias: bias.clone(),
                },
                Layer::BatchNorm(_) => QuantizedLayer::Identity,
                Layer::Activation(act) => QuantizedLayer::Activation(*act),
                Layer::Pool2d(cfg) => QuantizedLayer::Pool2d(*cfg),
                Layer::GlobalAvgPool => QuantizedLayer::GlobalAvgPool,
                Layer::Flatten => QuantizedLayer::Flatten,
                Layer::Add => QuantizedLayer::Add,
                Layer::ChannelScale => QuantizedLayer::ChannelScale,
            };
            nodes.push(QuantizedNode {
                id: node.id,
                name: node.name.clone(),
                inputs: node.inputs.clone(),
                layer,
                output_qp,
            });
        }
        Ok(Self {
            name: folded.name().to_string(),
            input_shape: folded.input_shape().to_vec(),
            input_qp,
            nodes,
        })
    }

    /// The model's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Shape of the model input.
    #[must_use]
    pub fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    /// Quantization parameters of the model input.
    #[must_use]
    pub fn input_qp(&self) -> QuantParams {
        self.input_qp
    }

    /// The quantized nodes in graph order.
    #[must_use]
    pub fn nodes(&self) -> &[QuantizedNode] {
        &self.nodes
    }

    /// Node ids whose layers run on the PIM macros (convolutions and
    /// fully-connected layers), in execution order.
    #[must_use]
    pub fn pim_node_ids(&self) -> Vec<NodeId> {
        self.nodes.iter().filter(|n| n.layer.is_pim_layer()).map(|n| n.id).collect()
    }

    /// Replaces the weight tensor of a PIM node — values and per-channel
    /// scales together, at any operand width.
    ///
    /// This is how the FTA algorithm injects approximated weights.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::UnknownNode`] for an invalid id and
    /// [`NnError::BadParameters`] when the node is not a PIM layer, the
    /// shapes differ, or the replacement's scheme does not hold exactly one
    /// scale per output channel.
    pub fn replace_weight(
        &mut self,
        id: NodeId,
        replacement: QuantizedTensor,
    ) -> Result<(), NnError> {
        let node = self.nodes.get_mut(id).ok_or(NnError::UnknownNode { id })?;
        let weight = match &mut node.layer {
            QuantizedLayer::Conv2d { weight, .. } | QuantizedLayer::Linear { weight, .. } => weight,
            _ => {
                return Err(NnError::BadParameters {
                    layer: node.name.clone(),
                    reason: "node is not a convolution or linear layer".to_string(),
                })
            }
        };
        let shape = weight.values().shape();
        let QuantScheme::PerChannel { axis, params } = replacement.scheme();
        let reason = if replacement.values().shape() != shape {
            format!(
                "replacement weight shape {:?} does not match {shape:?}",
                replacement.values().shape()
            )
        } else if (*axis, params.len()) != (0, shape[0]) {
            format!(
                "replacement weight has {} scales along axis {axis}, not one per output channel",
                params.len()
            )
        } else {
            *weight = replacement;
            return Ok(());
        };
        Err(NnError::BadParameters { layer: node.name.clone(), reason })
    }

    /// Runs the quantized model on one `[C, H, W]` float image, returning the
    /// INT8 output of every node.
    ///
    /// # Errors
    ///
    /// Returns a shape or execution error from the first failing layer.
    pub fn forward_all(&self, image: &Tensor<f32>) -> Result<Vec<Tensor<i8>>, NnError> {
        let q_input = self.input_qp.quantize_tensor(image);
        let mut outputs: Vec<Tensor<i8>> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let out = self.execute_node(node, &q_input, &outputs)?;
            outputs.push(out);
        }
        Ok(outputs)
    }

    /// Runs the quantized model and returns the dequantized output logits.
    ///
    /// # Errors
    ///
    /// Returns a shape or execution error from the first failing layer.
    pub fn forward(&self, image: &Tensor<f32>) -> Result<Tensor<f32>, NnError> {
        let outputs = self.forward_all(image)?;
        let last = outputs.last().ok_or(NnError::EmptyGraph)?;
        let qp = self.nodes.last().ok_or(NnError::EmptyGraph)?.output_qp;
        Ok(qp.dequantize_tensor(last))
    }

    /// Top-1 class index for one image.
    ///
    /// # Errors
    ///
    /// Returns a shape or execution error from the first failing layer.
    pub fn predict(&self, image: &Tensor<f32>) -> Result<usize, NnError> {
        let logits = self.forward(image)?;
        Ok(argmax(logits.data()))
    }

    fn execute_node(
        &self,
        node: &QuantizedNode,
        q_input: &Tensor<i8>,
        outputs: &[Tensor<i8>],
    ) -> Result<Tensor<i8>, NnError> {
        let input_of = |slot: usize| -> (&Tensor<i8>, QuantParams) {
            if node.inputs.is_empty() {
                (q_input, self.input_qp)
            } else {
                let id = node.inputs[slot];
                (&outputs[id], self.nodes[id].output_qp)
            }
        };
        let (x, x_qp) = input_of(0);
        match &node.layer {
            QuantizedLayer::Conv2d { cfg, weight, bias } => {
                let acc = conv2d_i8(x, x_qp, weight, cfg, &node.name)?;
                Ok(requantize_acc(
                    &acc,
                    x_qp,
                    weight,
                    bias.as_deref(),
                    node.output_qp,
                    cfg.out_channels,
                ))
            }
            QuantizedLayer::Linear { cfg, weight, bias } => {
                let acc = linear_i8(x, x_qp, weight, cfg, &node.name)?;
                Ok(requantize_acc(
                    &acc,
                    x_qp,
                    weight,
                    bias.as_deref(),
                    node.output_qp,
                    cfg.out_features,
                ))
            }
            QuantizedLayer::Activation(act) => {
                Ok(map_unary(x, x.shape().to_vec(), x_qp, node.output_qp, |v| act.apply(v)))
            }
            QuantizedLayer::Pool2d(cfg) => {
                let f = x_qp.dequantize_tensor(x);
                Ok(node.output_qp.quantize_tensor(&ops::pool2d(&f, cfg)?))
            }
            QuantizedLayer::GlobalAvgPool => {
                let f = x_qp.dequantize_tensor(x);
                Ok(node.output_qp.quantize_tensor(&ops::global_avg_pool(&f)?))
            }
            QuantizedLayer::Flatten => {
                Ok(map_unary(x, vec![x.numel()], x_qp, node.output_qp, |v| v))
            }
            QuantizedLayer::Identity => {
                Ok(map_unary(x, x.shape().to_vec(), x_qp, node.output_qp, |v| v))
            }
            QuantizedLayer::Add => {
                let (b, b_qp) = input_of(1);
                let fa = x_qp.dequantize_tensor(x);
                let fb = b_qp.dequantize_tensor(b);
                Ok(node.output_qp.quantize_tensor(&ops::add(&fa, &fb)?))
            }
            QuantizedLayer::ChannelScale => {
                let (b, b_qp) = input_of(1);
                let fa = x_qp.dequantize_tensor(x);
                let fb = b_qp.dequantize_tensor(b);
                Ok(node.output_qp.quantize_tensor(&ops::channel_scale(&fa, &fb)?))
            }
        }
    }
}

/// Folds every batch-norm layer whose producer is a convolution into that
/// convolution's weights and bias, replacing the batch norm with an identity.
///
/// # Errors
///
/// Returns graph-validation errors from the input model.
pub fn fold_batch_norm(model: &Model) -> Result<Model, NnError> {
    let _span = dbpim_trace::span!("nn.fold", model = model.name());
    model.validate()?;
    let mut folded = model.clone();
    let node_count = folded.nodes().len();
    for i in 0..node_count {
        let (is_bn, producer) = {
            let node = &folded.nodes()[i];
            match &node.layer {
                Layer::BatchNorm(_) if node.inputs.len() == 1 => (true, node.inputs[0]),
                _ => (false, 0),
            }
        };
        if !is_bn {
            continue;
        }
        let producer_is_conv = matches!(folded.nodes()[producer].layer, Layer::Conv2d { .. });
        if !producer_is_conv {
            continue;
        }
        // Extract BN parameters, then rewrite the producer conv in place.
        let bn = match &folded.nodes()[i].layer {
            Layer::BatchNorm(bn) => bn.clone(),
            _ => unreachable!("checked above"),
        };
        if let Layer::Conv2d { cfg, weight, bias } = &mut folded.nodes_mut()[producer].layer {
            let out_channels = cfg.out_channels;
            if bn.channels() != out_channels {
                return Err(NnError::BadParameters {
                    layer: format!("batchnorm after node {producer}"),
                    reason: "channel count does not match the producing convolution".to_string(),
                });
            }
            let per_filter = weight.numel() / out_channels;
            let data = weight.data_mut();
            let mut new_bias = bias.clone().unwrap_or_else(|| vec![0.0; out_channels]);
            for oc in 0..out_channels {
                let scale = bn.effective_scale(oc);
                let shift = bn.effective_shift(oc);
                for v in &mut data[oc * per_filter..(oc + 1) * per_filter] {
                    *v *= scale;
                }
                new_bias[oc] = new_bias[oc] * scale + shift;
            }
            *bias = Some(new_bias);
        }
        // Neutralize the BN node.
        folded.nodes_mut()[i].layer = Layer::BatchNorm(crate::layer::BatchNormParams::identity(
            match &folded.nodes()[producer].layer {
                Layer::Conv2d { cfg, .. } => cfg.out_channels,
                _ => unreachable!("producer checked to be a convolution"),
            },
        ));
    }
    Ok(folded)
}

/// Maps a unary node (folded batch norm, activation, flatten) through a
/// 256-entry table. Entry `v` holds `output_qp.quantize(op(x_qp.dequantize(v)))`,
/// the exact expression the element-wise dequantize → op → quantize path
/// evaluates, so every output byte matches it.
fn map_unary(
    x: &Tensor<i8>,
    shape: Vec<usize>,
    x_qp: QuantParams,
    output_qp: QuantParams,
    op: impl Fn(f32) -> f32,
) -> Tensor<i8> {
    let table: [i8; 256] =
        std::array::from_fn(|byte| output_qp.quantize(op(x_qp.dequantize(byte as u8 as i8))));
    let out = x.data().iter().map(|&v| table[usize::from(v as u8)]).collect();
    Tensor::from_vec(out, shape).expect("a unary node keeps the element count")
}

/// The zero-centred operand `q_x - zp_x` of every input value, in `i16`
/// (INT8 activations and zero points keep it within −255…255).
///
/// # Panics
///
/// Panics if the zero point lies outside the INT8 range; the quantizer
/// only produces INT8 activation parameters.
fn centred(input: &Tensor<i8>, input_qp: QuantParams) -> Vec<i16> {
    let zp = input_qp.zero_point();
    assert!((-128..=127).contains(&zp), "INT8 activation zero point {zp} outside -128..=127");
    let zp = zp as i16;
    input.data().iter().map(|&v| i16::from(v) - zp).collect()
}

/// `Σ a·b` of zero-centred INT8 activations `a` (within ±255) and weights
/// `b` of any operand width up to INT16, exact in `i64`: each block of
/// [`FLUSH`] products is summed exactly in `i32`, and the block sums in
/// `i64`. The final partial block goes through an outlined copy of the
/// block kernel: inlined next to the block loop it compiled to a loop 2–3×
/// slower on the zoo's 144-tap filters.
fn dot_i16(a: &[i16], b: &[i16]) -> i64 {
    let (ca, cb) = (a.chunks_exact(FLUSH), b.chunks_exact(FLUSH));
    let rest = i64::from(dot_partial_block(ca.remainder(), cb.remainder()));
    rest + ca.zip(cb).map(|(a, b)| i64::from(dot_block(a, b))).sum::<i64>()
}

/// Products one `i32` block sum of [`dot_i16`] holds: one product is at
/// most 255 · 32,768 in magnitude, and 256 of them stay below 2^31.
const FLUSH: usize = 256;

/// `Σ a·b` of at most [`FLUSH`] products, exact in `i32`. Sixteen lanes
/// take the products; their sum is exact in any order, so the loop lowers
/// to multiply-add pair instructions.
#[inline(always)]
fn dot_block(a: &[i16], b: &[i16]) -> i32 {
    let mut lanes = [0i32; 16];
    let (ca, cb) = (a.chunks_exact(16), b.chunks_exact(16));
    let tail: i32 =
        ca.remainder().iter().zip(cb.remainder()).map(|(&x, &y)| i32::from(x) * i32::from(y)).sum();
    for (xa, xb) in ca.zip(cb) {
        for l in 0..16 {
            lanes[l] += i32::from(xa[l]) * i32::from(xb[l]);
        }
    }
    tail + lanes.iter().sum::<i32>()
}

/// [`dot_block`] outlined, for the final partial block of [`dot_i16`].
#[inline(never)]
fn dot_partial_block(a: &[i16], b: &[i16]) -> i32 {
    dot_block(a, b)
}

/// Filters shorter than this (depthwise layers, and pointwise layers over
/// few channels) accumulate tap by tap into whole output rows instead of
/// dotting one im2col patch per output position. Their sums fit `i32` at
/// every weight width (31 · 255 · 32,768 < 2^31).
const SHORT_PATCH: usize = 32;

/// Integer convolution accumulation: `acc[o, y, x] = Σ (q_x - zp_x) * q_w`.
///
/// The zero-centred input and the weights are held as `i16` and the sums
/// are exact at every weight width up to INT16, for any filter length.
/// Filters shorter than 32 weights (depthwise layers above all)
/// accumulate each kernel tap into whole `i32` output rows; longer ones
/// build one im2col patch per output position (interior ones by row
/// copies, padding taps stored as 0) and dot it with every filter of the
/// group as an `i16` dot product.
///
/// # Errors
///
/// Returns [`NnError::InputShape`] when the input is not rank 3 or its
/// channel count does not match the configuration.
pub fn conv2d_i8(
    input: &Tensor<i8>,
    input_qp: QuantParams,
    weight: &QuantizedTensor,
    cfg: &Conv2dCfg,
    name: &str,
) -> Result<Tensor<i64>, NnError> {
    let shape = input.shape();
    if shape.len() != 3 || shape[0] != cfg.in_channels {
        return Err(NnError::InputShape {
            layer: name.to_string(),
            expected: vec![cfg.in_channels, 0, 0],
            actual: shape.to_vec(),
        });
    }
    let (h, w) = (shape[1], shape[2]);
    let (oh, ow) = cfg.output_hw(h, w);
    let (k, stride, padding) = (cfg.kernel, cfg.stride, cfg.padding);
    let in_per_group = cfg.in_channels / cfg.groups;
    let out_per_group = cfg.out_channels / cfg.groups;
    let x = centred(input, input_qp);
    let wv = weight.values().data();
    let patch_len = in_per_group * k * k;
    if patch_len < SHORT_PATCH {
        let mut out = vec![0i32; cfg.out_channels * oh * ow];
        for (oc, plane) in out.chunks_exact_mut(oh * ow).enumerate() {
            let ic_base = oc / out_per_group * in_per_group;
            let filter = &wv[oc * patch_len..(oc + 1) * patch_len];
            for ic in 0..in_per_group {
                let channel = &x[(ic_base + ic) * h * w..][..h * w];
                if (k, stride, padding) == (1, 1, 0) {
                    // A pointwise tap covers the whole plane at once.
                    let q_w = i32::from(filter[ic]);
                    for (acc, &v) in plane.iter_mut().zip(channel) {
                        *acc += i32::from(v) * q_w;
                    }
                    continue;
                }
                for (oy, out_row) in plane.chunks_exact_mut(ow).enumerate() {
                    for ky in 0..k {
                        let Some(iy) = (oy * stride + ky).checked_sub(padding).filter(|&iy| iy < h)
                        else {
                            continue;
                        };
                        let row = &channel[iy * w..(iy + 1) * w];
                        for kx in 0..k {
                            let q_w = i32::from(filter[(ic * k + ky) * k + kx]);
                            // Output columns whose tap `kx` lands inside the row.
                            let lo = padding.saturating_sub(kx).div_ceil(stride);
                            let hi = ((w + padding).saturating_sub(kx).div_ceil(stride)).min(ow);
                            if lo >= hi {
                                continue;
                            }
                            let first = lo * stride + kx - padding;
                            let out_cols = &mut out_row[lo..hi];
                            if stride == 1 {
                                for (acc, &v) in out_cols.iter_mut().zip(&row[first..]) {
                                    *acc += i32::from(v) * q_w;
                                }
                            } else {
                                let taps = row[first..].iter().step_by(stride);
                                for (acc, &v) in out_cols.iter_mut().zip(taps) {
                                    *acc += i32::from(v) * q_w;
                                }
                            }
                        }
                    }
                }
            }
        }
        let out = out.into_iter().map(i64::from).collect();
        return Ok(Tensor::from_vec(out, vec![cfg.out_channels, oh, ow])?);
    }
    let interior =
        |o: usize, extent: usize| o * stride >= padding && o * stride + k <= extent + padding;
    let mut out = vec![0i64; cfg.out_channels * oh * ow];
    let mut patch = vec![0i16; patch_len];
    for group in 0..cfg.groups {
        let ic_base = group * in_per_group;
        for oy in 0..oh {
            for ox in 0..ow {
                if interior(oy, h) && interior(ox, w) {
                    let (y0, x0) = (oy * stride - padding, ox * stride - padding);
                    let mut idx = 0;
                    for ic in ic_base..ic_base + in_per_group {
                        for iy in y0..y0 + k {
                            let start = (ic * h + iy) * w + x0;
                            patch[idx..idx + k].copy_from_slice(&x[start..start + k]);
                            idx += k;
                        }
                    }
                } else {
                    let mut idx = 0;
                    for ic in ic_base..ic_base + in_per_group {
                        for ky in 0..k {
                            let iy = (oy * stride + ky).checked_sub(padding).filter(|&iy| iy < h);
                            for kx in 0..k {
                                let ix =
                                    (ox * stride + kx).checked_sub(padding).filter(|&ix| ix < w);
                                patch[idx] = match (iy, ix) {
                                    (Some(iy), Some(ix)) => x[(ic * h + iy) * w + ix],
                                    _ => 0,
                                };
                                idx += 1;
                            }
                        }
                    }
                }
                for oc in group * out_per_group..(group + 1) * out_per_group {
                    out[(oc * oh + oy) * ow + ox] =
                        dot_i16(&patch, &wv[oc * patch_len..(oc + 1) * patch_len]);
                }
            }
        }
    }
    Ok(Tensor::from_vec(out, vec![cfg.out_channels, oh, ow])?)
}

/// Integer fully-connected accumulation: the zero-centred input dotted
/// with each weight row in place.
fn linear_i8(
    input: &Tensor<i8>,
    input_qp: QuantParams,
    weight: &QuantizedTensor,
    cfg: &LinearCfg,
    name: &str,
) -> Result<Tensor<i64>, NnError> {
    if input.numel() != cfg.in_features {
        return Err(NnError::InputShape {
            layer: name.to_string(),
            expected: vec![cfg.in_features],
            actual: input.shape().to_vec(),
        });
    }
    let (n, x, wv) = (cfg.in_features, centred(input, input_qp), weight.values().data());
    let out = (0..cfg.out_features).map(|o| dot_i16(&x, &wv[o * n..(o + 1) * n])).collect();
    Ok(Tensor::from_vec(out, vec![cfg.out_features])?)
}

/// Requantizes an integer accumulator tensor to the output's INT8 domain.
///
/// The accumulator is first mapped back to real values with
/// `acc * s_input * s_weight(channel)` (the per-channel weight scale), the
/// float bias is added and the result is quantized with the output params.
/// `a as f32` rounds an integer to the same `f32` whatever its integer type,
/// so an INT8 model's bytes do not depend on the `i64` accumulator.
fn requantize_acc(
    acc: &Tensor<i64>,
    input_qp: QuantParams,
    weight: &QuantizedTensor,
    bias: Option<&[f32]>,
    output_qp: QuantParams,
    out_channels: usize,
) -> Tensor<i8> {
    let _span = dbpim_trace::kernel_span("nn.requantize");
    let per_channel = acc.numel() / out_channels;
    if per_channel == 0 {
        return Tensor::from_vec(Vec::new(), acc.shape().to_vec())
            .expect("accumulator shape is valid");
    }
    let input_scale = input_qp.scale();
    let mut out = Vec::with_capacity(acc.numel());
    // Channel-major walk so the per-channel scheme lookup is hoisted out of
    // the element loop; the float expression per element is unchanged.
    for (channel, chunk) in acc.data().chunks(per_channel).enumerate() {
        let w_scale = weight.scheme().params_for_channel(channel).scale();
        let channel_bias = bias.map_or(0.0, |b| b[channel]);
        for &a in chunk {
            let real = a as f32 * input_scale * w_scale + channel_bias;
            out.push(output_qp.quantize(real));
        }
    }
    Tensor::from_vec(out, acc.shape().to_vec()).expect("accumulator shape is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ModelBuilder;
    use crate::layer::{BatchNormParams, Layer};
    use dbpim_tensor::random::TensorGenerator;

    fn small_model(seed: u64) -> Model {
        let mut gen = TensorGenerator::new(seed);
        let mut b = ModelBuilder::new("small", vec![3, 8, 8]);
        let conv_cfg = Conv2dCfg::new(3, 8, 3).with_padding(1);
        b.chain(
            "conv1",
            Layer::Conv2d {
                cfg: conv_cfg,
                weight: gen.weight_tensor(conv_cfg.weight_dims()).unwrap(),
                bias: None,
            },
        );
        b.chain("bn1", Layer::BatchNorm(BatchNormParams::identity(8)));
        b.chain("relu1", Layer::Activation(Activation::Relu));
        b.chain("pool1", Layer::Pool2d(Pool2dCfg::max(2)));
        b.chain("flatten", Layer::Flatten);
        b.chain(
            "fc",
            Layer::Linear {
                cfg: LinearCfg::new(8 * 4 * 4, 10),
                weight: gen.weight_tensor(vec![10, 8 * 4 * 4]).unwrap(),
                bias: Some(vec![0.01; 10]),
            },
        );
        b.build().unwrap()
    }

    fn calibration(seed: u64, n: usize) -> Vec<Tensor<f32>> {
        let mut gen = TensorGenerator::new(seed);
        (0..n)
            .map(|_| {
                gen.tensor(vec![3, 8, 8], dbpim_tensor::random::Distribution::Gaussian { std: 1.0 })
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn quantized_model_tracks_float_model() {
        let model = small_model(1);
        let cal = calibration(2, 4);
        let q = QuantizedModel::quantize(&model, &cal).unwrap();
        assert_eq!(q.nodes().len(), model.nodes().len());
        assert_eq!(q.pim_node_ids().len(), 2);

        // The quantized prediction should agree with the float prediction on
        // most calibration-like inputs.
        let mut agree = 0usize;
        let test = calibration(3, 8);
        for image in &test {
            let f = model.predict(image).unwrap();
            let qi = q.predict(image).unwrap();
            if f == qi {
                agree += 1;
            }
        }
        assert!(agree >= 6, "quantized model agrees on only {agree}/8 images");
    }

    #[test]
    fn quantization_requires_calibration_images() {
        let model = small_model(4);
        assert!(QuantizedModel::quantize(&model, &[]).is_err());
    }

    #[test]
    fn logits_are_close_to_float_logits() {
        let model = small_model(5);
        let cal = calibration(6, 4);
        let q = QuantizedModel::quantize(&model, &cal).unwrap();
        let image = &calibration(7, 1)[0];
        let f = model.forward(image).unwrap();
        let ql = q.forward(image).unwrap();
        let sqnr = f.sqnr_db(&ql).unwrap();
        assert!(sqnr > 10.0, "INT8 logits too far from float logits (sqnr {sqnr} dB)");
    }

    #[test]
    fn fold_batch_norm_preserves_function() {
        let mut gen = TensorGenerator::new(8);
        let mut b = ModelBuilder::new("bn", vec![2, 4, 4]);
        let cfg = Conv2dCfg::new(2, 4, 3).with_padding(1);
        b.chain(
            "conv",
            Layer::Conv2d {
                cfg,
                weight: gen.weight_tensor(cfg.weight_dims()).unwrap(),
                bias: Some(vec![0.1; 4]),
            },
        );
        b.chain(
            "bn",
            Layer::BatchNorm(BatchNormParams {
                gamma: vec![1.5, 0.5, 2.0, 1.0],
                beta: vec![0.1, -0.1, 0.0, 0.2],
                mean: vec![0.2, 0.0, -0.1, 0.3],
                var: vec![1.0, 0.25, 4.0, 0.5],
                eps: 1e-5,
            }),
        );
        let model = b.build().unwrap();
        let folded = fold_batch_norm(&model).unwrap();
        let image = gen
            .tensor(vec![2, 4, 4], dbpim_tensor::random::Distribution::Gaussian { std: 1.0 })
            .unwrap();
        let before = model.forward(&image).unwrap();
        let after = folded.forward(&image).unwrap();
        assert!(before.mse(&after).unwrap() < 1e-8);
    }

    /// An all-zero weight tensor of `shape` with `scales` unit scales
    /// along axis 0.
    fn zero_weight(shape: Vec<usize>, scales: usize) -> QuantizedTensor {
        let params = vec![QuantParams::new(1.0, 0); scales];
        QuantizedTensor::new(
            Tensor::zeros(shape).unwrap(),
            QuantScheme::PerChannel { axis: 0, params },
        )
    }

    #[test]
    fn replace_weight_values_validates_shape_and_kind() {
        let model = small_model(9);
        let cal = calibration(10, 2);
        let mut q = QuantizedModel::quantize(&model, &cal).unwrap();
        let pim = q.pim_node_ids();
        let conv_id = pim[0];
        let shape = q.nodes()[conv_id].layer.weight().unwrap().values().shape().to_vec();
        let channels = shape[0];
        q.replace_weight(conv_id, zero_weight(shape, channels)).unwrap();
        assert!(q.nodes()[conv_id].layer.weight().unwrap().values().data().iter().all(|&v| v == 0));

        assert!(q.replace_weight(conv_id, zero_weight(vec![1, 1], 1)).is_err());
        // Replacing a non-PIM node's weights is rejected.
        let flatten_id = q.nodes().iter().find(|n| n.name == "flatten").unwrap().id;
        assert!(q.replace_weight(flatten_id, zero_weight(vec![1], 1)).is_err());
        assert!(q.replace_weight(999, zero_weight(vec![1], 1)).is_err());
    }

    #[test]
    fn replace_weight_refuses_a_scheme_without_one_scale_per_channel() {
        let model = small_model(13);
        let cal = calibration(14, 1);
        let mut q = QuantizedModel::quantize(&model, &cal).unwrap();
        for id in q.pim_node_ids() {
            let before = q.nodes()[id].layer.weight().unwrap().clone();
            let shape = before.values().shape().to_vec();
            let channels = shape[0];
            for scales in [channels - 1, channels + 1, 1] {
                let err = q.replace_weight(id, zero_weight(shape.clone(), scales)).unwrap_err();
                assert!(err.to_string().contains("scales"), "{scales} scales: {err}");
                assert_eq!(q.nodes()[id].layer.weight(), Some(&before), "refused, not installed");
            }
            // A scheme along another axis does not hold the output channels' scales.
            let other_axis = QuantizedTensor::new(
                Tensor::zeros(shape).unwrap(),
                QuantScheme::PerChannel {
                    axis: 1,
                    params: vec![QuantParams::new(1.0, 0); channels],
                },
            );
            assert!(q.replace_weight(id, other_axis).is_err());
        }
    }

    /// The direct convolution summed in `i64`: the oracle at every weight
    /// width (the bench oracle `conv2d_i8_scalar` sums in `i32`).
    fn conv2d_i64_oracle(
        x: &Tensor<i8>,
        qp: QuantParams,
        weight: &QuantizedTensor,
        cfg: &Conv2dCfg,
    ) -> Vec<i64> {
        let (h, w) = (x.shape()[1], x.shape()[2]);
        let (oh, ow) = cfg.output_hw(h, w);
        let (k, in_per_group) = (cfg.kernel, cfg.in_channels / cfg.groups);
        let out_per_group = cfg.out_channels / cfg.groups;
        let wv = weight.values().data();
        let mut out = Vec::with_capacity(cfg.out_channels * oh * ow);
        for oc in 0..cfg.out_channels {
            let ic_base = oc / out_per_group * in_per_group;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0i64;
                    for ic in 0..in_per_group {
                        for ky in 0..k {
                            for kx in 0..k {
                                let iy = (oy * cfg.stride + ky).checked_sub(cfg.padding);
                                let ix = (ox * cfg.stride + kx).checked_sub(cfg.padding);
                                let (Some(iy), Some(ix)) = (iy, ix) else { continue };
                                if iy >= h || ix >= w {
                                    continue;
                                }
                                let v = i64::from(x.data()[((ic_base + ic) * h + iy) * w + ix]);
                                let q_w = wv[((oc * in_per_group + ic) * k + ky) * k + kx];
                                acc += (v - i64::from(qp.zero_point())) * i64::from(q_w);
                            }
                        }
                    }
                    out.push(acc);
                }
            }
        }
        out
    }

    /// The fully-connected layer summed in `i64`.
    fn linear_i64_oracle(x: &Tensor<i8>, qp: QuantParams, weight: &QuantizedTensor) -> Vec<i64> {
        let zp = i64::from(qp.zero_point());
        weight
            .values()
            .data()
            .chunks_exact(x.numel())
            .map(|row| {
                row.iter()
                    .zip(x.data())
                    .map(|(&q_w, &v)| (i64::from(v) - zp) * i64::from(q_w))
                    .sum()
            })
            .collect()
    }

    #[test]
    fn conv2d_i8_equals_the_scalar_im2col_loop() {
        use crate::reference::conv2d_i8_scalar;
        let mut gen = TensorGenerator::new(21);
        // The float kernel's grid: dense, grouped and depthwise layers,
        // below and at the lane widths, including a depthwise channel
        // multiplier.
        let layers = [
            (3, 5, 1),
            (4, 6, 2),
            (4, 4, 4),
            (3, 8, 1),
            (3, 17, 1),
            (6, 34, 2),
            (8, 8, 8),
            (4, 8, 4),
        ];
        for (in_channels, out_channels, groups) in layers {
            for kernel in [1, 3, 5] {
                for (stride, padding) in [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)] {
                    let cfg = Conv2dCfg::new(in_channels, out_channels, kernel)
                        .with_stride(stride)
                        .with_padding(padding)
                        .with_groups(groups);
                    let float_weight = gen.weight_tensor(cfg.weight_dims()).unwrap();
                    let weights = OperandWidth::all().map(|width| {
                        (width, QuantizedTensor::quantize_per_channel(&float_weight, 0, width))
                    });
                    for (h, w) in [(9, 7), (6, 21), (kernel, kernel), (1, 2)] {
                        let image = gen
                            .tensor(
                                vec![in_channels, h, w],
                                dbpim_tensor::random::Distribution::Gaussian { std: 1.0 },
                            )
                            .unwrap();
                        // Zero points across the INT8 range, padding taps
                        // included.
                        for (lo, hi) in [(-1.0, 3.0), (0.0, 2.0), (-2.0, 0.0)] {
                            let qp = QuantParams::affine_from_range(lo, hi);
                            let x = qp.quantize_tensor(&image);
                            for (width, weight) in &weights {
                                let got = conv2d_i8(&x, qp, weight, &cfg, "conv").unwrap();
                                let want = conv2d_i64_oracle(&x, qp, weight, &cfg);
                                let case = format!(
                                    "{width} {cfg:?} on {h}x{w}, zero point {}",
                                    qp.zero_point()
                                );
                                assert_eq!(got.data(), want.as_slice(), "{case}");
                                if *width == OperandWidth::Int8 {
                                    let scalar = conv2d_i8_scalar(&x, qp, weight, &cfg);
                                    let scalar: Vec<i64> =
                                        scalar.into_iter().map(i64::from).collect();
                                    assert_eq!(got.data(), scalar.as_slice(), "{case}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn extreme_weights_and_zero_points_sum_exactly_at_every_width() {
        // 512 channels of 3x3 taps: 4,608 taps, the zoo's longest filter
        // (INT16 sums reach 3.9e10, past i32), in 18 whole blocks. The
        // linear layer's 9,000 taps end in a partial block whose last
        // chunk is partial too.
        let conv = Conv2dCfg::new(512, 2, 3).with_padding(1);
        let linear = LinearCfg::new(9_000, 2);
        let scheme = QuantScheme::PerChannel { axis: 0, params: vec![QuantParams::new(1.0, 0); 2] };
        for width in OperandWidth::all() {
            // Filter 0 at the width's minimum, filter 1 at its maximum.
            let extremes = |len: usize| {
                let (lo, hi) = (width.min_value() as i16, width.max_value() as i16);
                [vec![lo; len], vec![hi; len]].concat()
            };
            let conv_weight = QuantizedTensor::new(
                Tensor::from_vec(extremes(4_608), conv.weight_dims()).unwrap(),
                scheme.clone(),
            );
            let linear_weight = QuantizedTensor::new(
                Tensor::from_vec(extremes(9_000), vec![2, 9_000]).unwrap(),
                scheme.clone(),
            );
            // Every activation as far from its zero point as INT8 allows.
            for (value, zero_point) in [(127i8, -128), (-128, 127)] {
                let qp = QuantParams::new(1.0, zero_point);
                let case = format!("{width}, value {value}, zero point {zero_point}");
                let x = Tensor::from_vec(vec![value; 512 * 3 * 3], vec![512, 3, 3]).unwrap();
                let got = conv2d_i8(&x, qp, &conv_weight, &conv, "conv").unwrap();
                let want = conv2d_i64_oracle(&x, qp, &conv_weight, &conv);
                assert_eq!(got.data(), want.as_slice(), "conv {case}");
                let centre = 255 * 4_608 * i64::from(width.max_value());
                assert_eq!(got.data()[9 + 4].abs(), centre, "conv {case}");

                let x = Tensor::from_vec(vec![value; 9_000], vec![9_000]).unwrap();
                let got = linear_i8(&x, qp, &linear_weight, &linear, "fc").unwrap();
                let want = linear_i64_oracle(&x, qp, &linear_weight);
                assert_eq!(got.data(), want.as_slice(), "linear {case}");
                if width == OperandWidth::Int16 {
                    assert!(got.data().iter().all(|&a| i32::try_from(a).is_err()), "{case}");
                }
            }
        }
    }

    /// The element-wise dequantize → op → quantize path the unary tables
    /// replaced.
    fn unary_oracle(
        x: &Tensor<i8>,
        x_qp: QuantParams,
        output_qp: QuantParams,
        layer: &QuantizedLayer,
    ) -> Tensor<i8> {
        let f = x_qp.dequantize_tensor(x);
        match layer {
            QuantizedLayer::Activation(act) => {
                output_qp.quantize_tensor(&ops::activation(&f, *act))
            }
            QuantizedLayer::Flatten => output_qp.quantize_tensor(&ops::flatten(&f)),
            QuantizedLayer::Identity => output_qp.quantize_tensor(&f),
            other => unreachable!("{} is not a unary node", other.kind_name()),
        }
    }

    #[test]
    fn unary_tables_equal_dequantize_op_quantize_on_every_byte() {
        let every_byte: Vec<i8> = (i8::MIN..=i8::MAX).collect();
        let x = Tensor::from_vec(every_byte, vec![4, 8, 8]).unwrap();
        let layers = [
            QuantizedLayer::Activation(Activation::Relu),
            QuantizedLayer::Activation(Activation::Relu6),
            QuantizedLayer::Activation(Activation::Silu),
            QuantizedLayer::Activation(Activation::Sigmoid),
            QuantizedLayer::Activation(Activation::HardSwish),
            QuantizedLayer::Flatten,
            QuantizedLayer::Identity,
        ];
        let params = [
            QuantParams::affine_from_range(-3.0, 5.0),
            QuantParams::affine_from_range(0.0, 6.0),
            QuantParams::affine_from_range(-0.5, 0.25),
            QuantParams::affine_from_range(-40.0, 0.0),
        ];
        for layer in &layers {
            for &x_qp in &params {
                for &output_qp in &params {
                    let node = QuantizedNode {
                        id: 0,
                        name: layer.kind_name().to_string(),
                        inputs: Vec::new(),
                        layer: layer.clone(),
                        output_qp,
                    };
                    let model = QuantizedModel {
                        name: "unary".to_string(),
                        input_shape: x.shape().to_vec(),
                        input_qp: x_qp,
                        nodes: Vec::new(),
                    };
                    let got = model.execute_node(&node, &x, &[]).unwrap();
                    let want = unary_oracle(&x, x_qp, output_qp, layer);
                    assert_eq!(got.shape(), want.shape(), "{}", layer.kind_name());
                    assert_eq!(
                        got.data(),
                        want.data(),
                        "{} {x_qp:?} -> {output_qp:?}",
                        layer.kind_name()
                    );
                }
            }
        }
    }

    #[test]
    fn zeroed_weights_change_predictions_structurally() {
        // Sanity check that replace_weight actually affects execution.
        let model = small_model(11);
        let cal = calibration(12, 2);
        let mut q = QuantizedModel::quantize(&model, &cal).unwrap();
        let image = &cal[0];
        let before = q.forward(image).unwrap();
        for id in q.pim_node_ids() {
            let shape = q.nodes()[id].layer.weight().unwrap().values().shape().to_vec();
            let channels = shape[0];
            q.replace_weight(id, zero_weight(shape, channels)).unwrap();
        }
        let after = q.forward(image).unwrap();
        assert!(before.mse(&after).unwrap() > 0.0);
    }
}
