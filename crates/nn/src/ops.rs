//! Float-precision reference implementations of the layer operations.
//!
//! All operations work on a single image in `[C, H, W]` layout; batching is
//! handled by the callers. They serve as the numerical reference for the
//! quantized executor and for the bit-accurate PIM macro model, so every
//! result is rounded exactly as the textbook loop would round it.
//!
//! The convolution and fully-connected kernels accumulate eight outputs side
//! by side in fixed-width lane arrays, which the compiler turns into vector
//! instructions. Each lane still starts from its bias and adds its
//! products one by one in the textbook `(ic, ky, kx)` order, multiply then
//! add, so every output is bit-identical to the scalar loop.

use dbpim_tensor::Tensor;

use crate::error::NnError;
use crate::layer::{Activation, BatchNormParams, Conv2dCfg, LinearCfg, Pool2dCfg, PoolKind};

/// Outputs accumulated side by side: output channels when a convolution
/// group has at least this many, else output positions along a row.
const LANES: usize = 8;

/// 2-D convolution of a `[C, H, W]` input with a `[O, C/g, k, k]` weight.
///
/// # Errors
///
/// Returns [`NnError::InputShape`] when the input is not rank 3 or its channel
/// count does not match the configuration.
pub fn conv2d(
    input: &Tensor<f32>,
    weight: &Tensor<f32>,
    bias: Option<&[f32]>,
    cfg: &Conv2dCfg,
) -> Result<Tensor<f32>, NnError> {
    let shape = input.shape();
    if shape.len() != 3 || shape[0] != cfg.in_channels {
        return Err(NnError::InputShape {
            layer: "conv2d".to_string(),
            expected: vec![cfg.in_channels, 0, 0],
            actual: shape.to_vec(),
        });
    }
    let conv = Conv { cfg, x: input.data(), weight: weight.data(), bias, h: shape[1], w: shape[2] };
    let (oh, ow) = cfg.output_hw(conv.h, conv.w);
    let mut out = vec![0.0f32; cfg.out_channels * oh * ow];
    if cfg.out_channels / cfg.groups >= LANES {
        conv.channel_lanes(&mut out);
    } else {
        conv.position_lanes(&mut out);
    }
    Ok(Tensor::from_vec(out, vec![cfg.out_channels, oh, ow])?)
}

/// One float convolution call: the operands and the input's spatial size.
struct Conv<'a> {
    cfg: &'a Conv2dCfg,
    x: &'a [f32],
    weight: &'a [f32],
    bias: Option<&'a [f32]>,
    h: usize,
    w: usize,
}

impl Conv<'_> {
    fn patch_len(&self) -> usize {
        self.cfg.in_channels / self.cfg.groups * self.cfg.kernel * self.cfg.kernel
    }

    fn bias(&self, oc: usize) -> f32 {
        self.bias.map_or(0.0, |b| b[oc])
    }

    /// Output indices `o` along an axis of `extent` inputs whose every tap
    /// lies inside the input: `o * stride >= padding` and
    /// `o * stride + k <= extent + padding`.
    fn interior(&self, extent: usize, outputs: usize) -> std::ops::Range<usize> {
        let (k, stride, padding) = (self.cfg.kernel, self.cfg.stride, self.cfg.padding);
        let lo = padding.div_ceil(stride);
        let hi = if extent + padding >= k { (extent + padding - k) / stride + 1 } else { 0 };
        lo.min(outputs)..hi.min(outputs).max(lo.min(outputs))
    }

    /// The in-bounds taps of output `(oy, ox)` of a group starting at input
    /// channel `ic_base`, as `(index into the filter, input value)` pairs in
    /// `(ic, ky, kx)` order. Padding taps are skipped, not added as a stored
    /// 0.0, which could flip the sign of a zero sum.
    fn taps(&self, ic_base: usize, oy: usize, ox: usize, taps: &mut Vec<(usize, f32)>) {
        let (k, stride, padding) = (self.cfg.kernel, self.cfg.stride, self.cfg.padding);
        let (h, w) = (self.h, self.w);
        taps.clear();
        for ic in 0..self.cfg.in_channels / self.cfg.groups {
            for ky in 0..k {
                let iy = (oy * stride + ky) as isize - padding as isize;
                if iy < 0 || iy >= h as isize {
                    continue;
                }
                for kx in 0..k {
                    let ix = (ox * stride + kx) as isize - padding as isize;
                    if ix < 0 || ix >= w as isize {
                        continue;
                    }
                    let x = self.x[((ic_base + ic) * h + iy as usize) * w + ix as usize];
                    taps.push(((ic * k + ky) * k + kx, x));
                }
            }
        }
    }

    /// Lanes across output channels, for groups of at least [`LANES`]
    /// outputs. Each group's filters are copied once into a lane-major
    /// block (`[patch_len][LANES]` per block of channels); an interior
    /// position gathers its input patch once by row copies and every block
    /// accumulates against it. Channels past the last whole block keep the
    /// one-output loop.
    fn channel_lanes(&self, out: &mut [f32]) {
        let cfg = self.cfg;
        let (k, stride, padding) = (cfg.kernel, cfg.stride, cfg.padding);
        let (h, w) = (self.h, self.w);
        let (oh, ow) = cfg.output_hw(h, w);
        let plane = oh * ow;
        let in_per_group = cfg.in_channels / cfg.groups;
        let out_per_group = cfg.out_channels / cfg.groups;
        let patch_len = self.patch_len();
        let blocks = out_per_group / LANES;
        let (rows, cols) = (self.interior(h, oh), self.interior(w, ow));
        let mut lanes = vec![[0.0f32; LANES]; blocks * patch_len];
        let mut patch = vec![0.0f32; patch_len];
        let mut taps = Vec::with_capacity(patch_len);
        for group in 0..cfg.groups {
            let ic_base = group * in_per_group;
            let first = group * out_per_group;
            for (b, block) in lanes.chunks_exact_mut(patch_len).enumerate() {
                for l in 0..LANES {
                    let filter = &self.weight[(first + b * LANES + l) * patch_len..][..patch_len];
                    for (lane, &wv) in block.iter_mut().zip(filter) {
                        lane[l] = wv;
                    }
                }
            }
            let tail = first + blocks * LANES..first + out_per_group;
            for oy in 0..oh {
                for ox in 0..ow {
                    let pos = oy * ow + ox;
                    if rows.contains(&oy) && cols.contains(&ox) {
                        let (y0, x0) = (oy * stride - padding, ox * stride - padding);
                        let mut idx = 0;
                        for ic in ic_base..ic_base + in_per_group {
                            for iy in y0..y0 + k {
                                let start = (ic * h + iy) * w + x0;
                                patch[idx..idx + k].copy_from_slice(&self.x[start..start + k]);
                                idx += k;
                            }
                        }
                        for (b, block) in lanes.chunks_exact(patch_len).enumerate() {
                            let oc = first + b * LANES;
                            let mut acc: [f32; LANES] = std::array::from_fn(|l| self.bias(oc + l));
                            for (&x, lane) in patch.iter().zip(block) {
                                for l in 0..LANES {
                                    acc[l] += x * lane[l];
                                }
                            }
                            for (l, &a) in acc.iter().enumerate() {
                                out[(oc + l) * plane + pos] = a;
                            }
                        }
                        for oc in tail.clone() {
                            let filter = &self.weight[oc * patch_len..(oc + 1) * patch_len];
                            let mut acc = self.bias(oc);
                            for (&x, &wv) in patch.iter().zip(filter) {
                                acc += x * wv;
                            }
                            out[oc * plane + pos] = acc;
                        }
                        continue;
                    }
                    self.taps(ic_base, oy, ox, &mut taps);
                    for (b, block) in lanes.chunks_exact(patch_len).enumerate() {
                        let oc = first + b * LANES;
                        let mut acc: [f32; LANES] = std::array::from_fn(|l| self.bias(oc + l));
                        for &(t, x) in &taps {
                            for l in 0..LANES {
                                acc[l] += x * block[t][l];
                            }
                        }
                        for (l, &a) in acc.iter().enumerate() {
                            out[(oc + l) * plane + pos] = a;
                        }
                    }
                    for oc in tail.clone() {
                        let filter = &self.weight[oc * patch_len..(oc + 1) * patch_len];
                        let mut acc = self.bias(oc);
                        for &(t, x) in &taps {
                            acc += x * filter[t];
                        }
                        out[oc * plane + pos] = acc;
                    }
                }
            }
        }
    }

    /// Lanes across output positions, for groups of fewer than [`LANES`]
    /// outputs (depthwise layers above all). Per output row, the kernel
    /// rows that fall inside the input are the same for every position, so
    /// each block of [`LANES`] positions whose columns are all interior
    /// accumulates its own taps in `(ic, ky, kx)` order side by side; the
    /// remaining border positions take the one-output loop.
    fn position_lanes(&self, out: &mut [f32]) {
        let cfg = self.cfg;
        let (k, stride, padding) = (cfg.kernel, cfg.stride, cfg.padding);
        let (h, w) = (self.h, self.w);
        let (oh, ow) = cfg.output_hw(h, w);
        let in_per_group = cfg.in_channels / cfg.groups;
        let out_per_group = cfg.out_channels / cfg.groups;
        let patch_len = self.patch_len();
        let cols = self.interior(w, ow);
        let lane_end = cols.start + cols.len() / LANES * LANES;
        let mut taps = Vec::with_capacity(patch_len);
        for oc in 0..cfg.out_channels {
            let ic_base = oc / out_per_group * in_per_group;
            let filter = &self.weight[oc * patch_len..(oc + 1) * patch_len];
            for oy in 0..oh {
                let out_row = &mut out[(oc * oh + oy) * ow..][..ow];
                let kys = (0..k)
                    .filter(|&ky| (oy * stride + ky).checked_sub(padding).is_some_and(|iy| iy < h));
                for ox0 in (cols.start..lane_end).step_by(LANES) {
                    let mut acc = [self.bias(oc); LANES];
                    for ic in 0..in_per_group {
                        for ky in kys.clone() {
                            let iy = oy * stride + ky - padding;
                            let row = &self.x[((ic_base + ic) * h + iy) * w..][..w];
                            for kx in 0..k {
                                let wv = filter[(ic * k + ky) * k + kx];
                                let taps = &row[ox0 * stride + kx - padding..];
                                if stride == 1 {
                                    for (a, &x) in acc.iter_mut().zip(&taps[..LANES]) {
                                        *a += x * wv;
                                    }
                                } else {
                                    for (l, a) in acc.iter_mut().enumerate() {
                                        *a += taps[l * stride] * wv;
                                    }
                                }
                            }
                        }
                    }
                    out_row[ox0..ox0 + LANES].copy_from_slice(&acc);
                }
                for ox in (0..cols.start).chain(lane_end..ow) {
                    self.taps(ic_base, oy, ox, &mut taps);
                    let mut acc = self.bias(oc);
                    for &(t, x) in &taps {
                        acc += x * filter[t];
                    }
                    out_row[ox] = acc;
                }
            }
        }
    }
}

/// Fully-connected layer: `y = W x + b` with `W` of shape `[out, in]`.
///
/// Blocks of eight weight rows are copied into a lane-major scratch block
/// and accumulated side by side; rows past the last whole block keep the
/// one-output loop.
///
/// # Errors
///
/// Returns [`NnError::InputShape`] when the flattened input length does not
/// match `cfg.in_features`.
pub fn linear(
    input: &Tensor<f32>,
    weight: &Tensor<f32>,
    bias: Option<&[f32]>,
    cfg: &LinearCfg,
) -> Result<Tensor<f32>, NnError> {
    if input.numel() != cfg.in_features {
        return Err(NnError::InputShape {
            layer: "linear".to_string(),
            expected: vec![cfg.in_features],
            actual: input.shape().to_vec(),
        });
    }
    let n = cfg.in_features;
    let x = input.data();
    let w = weight.data();
    let bias_of = |o: usize| bias.map_or(0.0, |b| b[o]);
    let mut out = vec![0.0f32; cfg.out_features];
    let blocks = cfg.out_features / LANES;
    let mut lanes = vec![[0.0f32; LANES]; if blocks > 0 { n } else { 0 }];
    for (b, out_block) in out.chunks_exact_mut(LANES).enumerate() {
        let first = b * LANES;
        for l in 0..LANES {
            for (lane, &wv) in lanes.iter_mut().zip(&w[(first + l) * n..(first + l + 1) * n]) {
                lane[l] = wv;
            }
        }
        let mut acc: [f32; LANES] = std::array::from_fn(|l| bias_of(first + l));
        for (&xv, lane) in x.iter().zip(&lanes) {
            for l in 0..LANES {
                acc[l] += xv * lane[l];
            }
        }
        out_block.copy_from_slice(&acc);
    }
    for o in blocks * LANES..cfg.out_features {
        let mut acc = bias_of(o);
        for (xv, wv) in x.iter().zip(&w[o * n..(o + 1) * n]) {
            acc += xv * wv;
        }
        out[o] = acc;
    }
    Ok(Tensor::from_vec(out, vec![cfg.out_features])?)
}

/// Per-channel batch normalization of a `[C, ...]` tensor.
///
/// # Errors
///
/// Returns [`NnError::InputShape`] when the channel count does not match.
pub fn batch_norm(input: &Tensor<f32>, bn: &BatchNormParams) -> Result<Tensor<f32>, NnError> {
    let shape = input.shape();
    if shape.is_empty() || shape[0] != bn.channels() {
        return Err(NnError::InputShape {
            layer: "batchnorm".to_string(),
            expected: vec![bn.channels()],
            actual: shape.to_vec(),
        });
    }
    let per_channel: usize = shape.iter().skip(1).product::<usize>().max(1);
    let mut out = input.data().to_vec();
    for (c, chunk) in out.chunks_mut(per_channel).enumerate() {
        let scale = bn.effective_scale(c);
        let shift = bn.effective_shift(c);
        for v in chunk.iter_mut() {
            *v = *v * scale + shift;
        }
    }
    Ok(Tensor::from_vec(out, shape.to_vec())?)
}

/// Element-wise activation.
#[must_use]
pub fn activation(input: &Tensor<f32>, act: Activation) -> Tensor<f32> {
    input.map(|&v| act.apply(v))
}

/// Spatial pooling of a `[C, H, W]` tensor.
///
/// # Errors
///
/// Returns [`NnError::InputShape`] for a non-rank-3 input.
pub fn pool2d(input: &Tensor<f32>, cfg: &Pool2dCfg) -> Result<Tensor<f32>, NnError> {
    let shape = input.shape();
    if shape.len() != 3 {
        return Err(NnError::InputShape {
            layer: "pool2d".to_string(),
            expected: vec![0, 0, 0],
            actual: shape.to_vec(),
        });
    }
    let (c, h, w) = (shape[0], shape[1], shape[2]);
    let (oh, ow) = cfg.output_hw(h, w);
    let data = input.data();
    let mut out = vec![0.0f32; c * oh * ow];
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = match cfg.kind {
                    PoolKind::Max => f32::NEG_INFINITY,
                    PoolKind::Avg => 0.0,
                };
                let mut count = 0usize;
                for ky in 0..cfg.kernel {
                    let iy = oy * cfg.stride + ky;
                    if iy >= h {
                        continue;
                    }
                    for kx in 0..cfg.kernel {
                        let ix = ox * cfg.stride + kx;
                        if ix >= w {
                            continue;
                        }
                        let v = data[(ch * h + iy) * w + ix];
                        match cfg.kind {
                            PoolKind::Max => acc = acc.max(v),
                            PoolKind::Avg => acc += v,
                        }
                        count += 1;
                    }
                }
                out[(ch * oh + oy) * ow + ox] = match cfg.kind {
                    PoolKind::Max => acc,
                    PoolKind::Avg => acc / count.max(1) as f32,
                };
            }
        }
    }
    Ok(Tensor::from_vec(out, vec![c, oh, ow])?)
}

/// Global average pooling: `[C, H, W]` to `[C, 1, 1]`.
///
/// # Errors
///
/// Returns [`NnError::InputShape`] for a non-rank-3 input.
pub fn global_avg_pool(input: &Tensor<f32>) -> Result<Tensor<f32>, NnError> {
    let shape = input.shape();
    if shape.len() != 3 {
        return Err(NnError::InputShape {
            layer: "global_avg_pool".to_string(),
            expected: vec![0, 0, 0],
            actual: shape.to_vec(),
        });
    }
    let (c, h, w) = (shape[0], shape[1], shape[2]);
    let data = input.data();
    let mut out = vec![0.0f32; c];
    for (ch, o) in out.iter_mut().enumerate() {
        let sum: f32 = data[ch * h * w..(ch + 1) * h * w].iter().sum();
        *o = sum / (h * w) as f32;
    }
    Ok(Tensor::from_vec(out, vec![c, 1, 1])?)
}

/// Flattens any tensor into a rank-1 vector.
#[must_use]
pub fn flatten(input: &Tensor<f32>) -> Tensor<f32> {
    let numel = input.numel();
    input.clone().reshaped(vec![numel]).expect("reshaping to the element count always succeeds")
}

/// Element-wise addition of two same-shaped tensors.
///
/// # Errors
///
/// Returns [`NnError::Tensor`] when the shapes differ.
pub fn add(a: &Tensor<f32>, b: &Tensor<f32>) -> Result<Tensor<f32>, NnError> {
    Ok(a.zip_map(b, |x, y| x + y)?)
}

/// Channel-wise scaling of a `[C, H, W]` feature map by a `[C]`-like gate.
///
/// # Errors
///
/// Returns [`NnError::InputShape`] when the gate length does not equal the
/// feature map's channel count.
pub fn channel_scale(features: &Tensor<f32>, gate: &Tensor<f32>) -> Result<Tensor<f32>, NnError> {
    let shape = features.shape();
    if shape.len() != 3 || gate.numel() != shape[0] {
        return Err(NnError::InputShape {
            layer: "channel_scale".to_string(),
            expected: vec![shape.first().copied().unwrap_or(0)],
            actual: gate.shape().to_vec(),
        });
    }
    let per_channel = shape[1] * shape[2];
    let mut out = features.data().to_vec();
    for (c, chunk) in out.chunks_mut(per_channel).enumerate() {
        let g = gate.data()[c];
        for v in chunk.iter_mut() {
            *v *= g;
        }
    }
    Ok(Tensor::from_vec(out, shape.to_vec())?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{conv2d_scalar, linear_scalar};
    use dbpim_tensor::random::TensorGenerator;

    fn tensor(data: Vec<f32>, dims: Vec<usize>) -> Tensor<f32> {
        Tensor::from_vec(data, dims).unwrap()
    }

    #[test]
    fn conv2d_identity_kernel() {
        // 1x1 kernel with weight 1.0 is the identity.
        let input = tensor((0..9).map(|v| v as f32).collect(), vec![1, 3, 3]);
        let cfg = Conv2dCfg::new(1, 1, 1);
        let weight = tensor(vec![1.0], vec![1, 1, 1, 1]);
        let out = conv2d(&input, &weight, None, &cfg).unwrap();
        assert_eq!(out.data(), input.data());
    }

    #[test]
    fn conv2d_sums_receptive_field() {
        // 3x3 all-ones kernel over an all-ones 3x3 input with padding 1:
        // centre sees 9 ones, corners see 4.
        let input = tensor(vec![1.0; 9], vec![1, 3, 3]);
        let cfg = Conv2dCfg::new(1, 1, 3).with_padding(1);
        let weight = tensor(vec![1.0; 9], vec![1, 1, 3, 3]);
        let out = conv2d(&input, &weight, None, &cfg).unwrap();
        assert_eq!(out.get(&[0, 1, 1]).unwrap(), 9.0);
        assert_eq!(out.get(&[0, 0, 0]).unwrap(), 4.0);
        assert_eq!(out.get(&[0, 0, 1]).unwrap(), 6.0);
    }

    #[test]
    fn conv2d_bias_and_stride() {
        let input = tensor(vec![1.0; 16], vec![1, 4, 4]);
        let cfg = Conv2dCfg::new(1, 2, 2).with_stride(2);
        let weight = tensor(vec![1.0, 1.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.5], vec![2, 1, 2, 2]);
        let out = conv2d(&input, &weight, Some(&[10.0, 0.0]), &cfg).unwrap();
        assert_eq!(out.shape(), &[2, 2, 2]);
        assert_eq!(out.get(&[0, 0, 0]).unwrap(), 14.0);
        assert_eq!(out.get(&[1, 1, 1]).unwrap(), 2.0);
    }

    #[test]
    fn depthwise_conv_keeps_channels_independent() {
        let input = tensor(vec![1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0], vec![2, 2, 2]);
        let cfg = Conv2dCfg::depthwise(2, 2);
        let weight = tensor(vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0], vec![2, 1, 2, 2]);
        let out = conv2d(&input, &weight, None, &cfg).unwrap();
        assert_eq!(out.shape(), &[2, 1, 1]);
        assert_eq!(out.get(&[0, 0, 0]).unwrap(), 4.0);
        assert_eq!(out.get(&[1, 0, 0]).unwrap(), 8.0);
    }

    /// `conv2d` against [`conv2d_scalar`], bit for bit, with and without a
    /// bias.
    fn assert_matches_reference(gen: &mut TensorGenerator, cfg: &Conv2dCfg, h: usize, w: usize) {
        let mut input = gen.weight_tensor(vec![cfg.in_channels, h, w]).unwrap();
        // Signed zeros in the input and in channel 0's bias: a padding tap
        // added as 0.0 instead of skipped would turn a -0.0 sum into +0.0.
        for x in input.data_mut().iter_mut().step_by(3) {
            *x = -0.0;
        }
        let weight = gen.weight_tensor(cfg.weight_dims()).unwrap();
        let bias: Vec<f32> =
            (0..cfg.out_channels).map(|o| if o == 0 { -0.0 } else { o as f32 - 2.0 }).collect();
        for bias in [None, Some(bias.as_slice())] {
            let got = conv2d(&input, &weight, bias, cfg).unwrap();
            let want = conv2d_scalar(&input, &weight, bias, cfg);
            let case = format!("{cfg:?} on {h}x{w}, bias {}", bias.is_some());
            assert_eq!(got.numel(), want.len(), "{case}");
            for (g, r) in got.data().iter().zip(&want) {
                assert_eq!(g.to_bits(), r.to_bits(), "{case}");
            }
        }
    }

    #[test]
    fn conv2d_equals_the_scalar_loop_bit_for_bit() {
        let mut gen = TensorGenerator::new(17);
        // (in, out, groups): dense, grouped and depthwise below the lane
        // width (position lanes), then dense and two-group layers with
        // whole lane blocks of channels, with and without a remainder, and
        // depthwise layers at one and two position blocks per row.
        let layers = [
            (3, 5, 1),
            (4, 6, 2),
            (4, 4, 4),
            (3, 8, 1),
            (5, 9, 1),
            (4, 16, 1),
            (3, 17, 1),
            (4, 16, 2),
            (6, 34, 2),
            (8, 8, 8),
            (16, 16, 16),
        ];
        for (in_channels, out_channels, groups) in layers {
            for kernel in [1, 3, 5] {
                for (stride, padding) in [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)] {
                    let cfg = Conv2dCfg::new(in_channels, out_channels, kernel)
                        .with_stride(stride)
                        .with_padding(padding)
                        .with_groups(groups);
                    // A wide input with interior and border positions (and
                    // rows of two whole position blocks plus a remainder),
                    // one exactly the kernel's size and one smaller than it.
                    for (h, w) in [(9, 7), (6, 21), (kernel, kernel), (1, 2)] {
                        assert_matches_reference(&mut gen, &cfg, h, w);
                    }
                }
            }
        }
    }

    #[test]
    fn linear_equals_the_scalar_loop_bit_for_bit() {
        let mut gen = TensorGenerator::new(19);
        for (in_features, out_features) in [(1, 1), (7, 5), (13, 8), (9, 9), (33, 16), (20, 17)] {
            let cfg = LinearCfg::new(in_features, out_features);
            let mut input = gen.weight_tensor(vec![in_features]).unwrap();
            for x in input.data_mut().iter_mut().step_by(3) {
                *x = -0.0;
            }
            let weight = gen.weight_tensor(vec![out_features, in_features]).unwrap();
            let bias: Vec<f32> =
                (0..out_features).map(|o| if o == 0 { -0.0 } else { o as f32 - 2.0 }).collect();
            for bias in [None, Some(bias.as_slice())] {
                let got = linear(&input, &weight, bias, &cfg).unwrap();
                let want = linear_scalar(&input, &weight, bias, &cfg);
                let case = format!("{in_features}x{out_features}, bias {}", bias.is_some());
                assert_eq!(got.numel(), want.len(), "{case}");
                for (g, r) in got.data().iter().zip(&want) {
                    assert_eq!(g.to_bits(), r.to_bits(), "{case}");
                }
            }
        }
    }

    #[test]
    fn conv2d_rejects_wrong_channels() {
        let input = tensor(vec![1.0; 9], vec![1, 3, 3]);
        let cfg = Conv2dCfg::new(2, 1, 3);
        let weight = tensor(vec![0.0; 18], vec![1, 2, 3, 3]);
        assert!(conv2d(&input, &weight, None, &cfg).is_err());
    }

    #[test]
    fn linear_matches_manual_dot_product() {
        let input = tensor(vec![1.0, 2.0, 3.0], vec![3]);
        let cfg = LinearCfg::new(3, 2);
        let weight = tensor(vec![1.0, 0.0, -1.0, 0.5, 0.5, 0.5], vec![2, 3]);
        let out = linear(&input, &weight, Some(&[0.0, 1.0]), &cfg).unwrap();
        assert_eq!(out.data(), &[-2.0, 4.0]);
        assert!(linear(&tensor(vec![1.0], vec![1]), &weight, None, &cfg).is_err());
    }

    #[test]
    fn batch_norm_normalizes_per_channel() {
        let input = tensor(vec![1.0, 1.0, 10.0, 10.0], vec![2, 1, 2]);
        let bn = BatchNormParams {
            gamma: vec![1.0, 2.0],
            beta: vec![0.0, 1.0],
            mean: vec![1.0, 10.0],
            var: vec![1.0, 4.0],
            eps: 0.0,
        };
        let out = batch_norm(&input, &bn).unwrap();
        assert_eq!(out.data(), &[0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn pooling_max_and_avg() {
        let input = tensor(vec![1.0, 2.0, 3.0, 4.0], vec![1, 2, 2]);
        let max = pool2d(&input, &Pool2dCfg::max(2)).unwrap();
        assert_eq!(max.data(), &[4.0]);
        let avg = pool2d(&input, &Pool2dCfg::avg(2)).unwrap();
        assert_eq!(avg.data(), &[2.5]);
    }

    #[test]
    fn global_avg_pool_reduces_spatial_dims() {
        let input = tensor(vec![1.0, 3.0, 2.0, 2.0], vec![2, 1, 2]);
        let out = global_avg_pool(&input).unwrap();
        assert_eq!(out.shape(), &[2, 1, 1]);
        assert_eq!(out.data(), &[2.0, 2.0]);
    }

    #[test]
    fn add_and_channel_scale() {
        let a = tensor(vec![1.0, 2.0], vec![2]);
        let b = tensor(vec![3.0, 4.0], vec![2]);
        assert_eq!(add(&a, &b).unwrap().data(), &[4.0, 6.0]);

        let features = tensor(vec![1.0, 1.0, 2.0, 2.0], vec![2, 1, 2]);
        let gate = tensor(vec![0.5, 2.0], vec![2, 1, 1]);
        let scaled = channel_scale(&features, &gate).unwrap();
        assert_eq!(scaled.data(), &[0.5, 0.5, 4.0, 4.0]);
        assert!(channel_scale(&features, &tensor(vec![1.0], vec![1])).is_err());
    }

    #[test]
    fn flatten_preserves_data() {
        let input = tensor(vec![1.0, 2.0, 3.0, 4.0], vec![1, 2, 2]);
        let flat = flatten(&input);
        assert_eq!(flat.shape(), &[4]);
        assert_eq!(flat.data(), input.data());
    }
}
