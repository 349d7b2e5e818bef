//! Scalar reference kernels: the loops the vectorized kernels replaced.
//!
//! [`conv2d_scalar`] and [`linear_scalar`] are the textbook float loops,
//! one serial accumulation per output, whose rounding
//! [`ops::conv2d`](crate::ops::conv2d) and [`ops::linear`](crate::ops::linear)
//! must reproduce bit for bit. [`conv2d_i8_scalar`] is the `i32` im2col
//! convolution the `i16` executor kernel [`conv2d_i8`] replaced. The unit
//! tests check the production kernels against these oracles, and
//! `bench_core` times each pair alternately in one process.
//!
//! Compiled only under `cfg(any(test, feature = "scalar-reference"))` so the
//! production library carries no dead scalar path.

use dbpim_tensor::quant::{QuantParams, QuantizedTensor};
use dbpim_tensor::Tensor;

use crate::layer::{Conv2dCfg, LinearCfg};
pub use crate::quantized::conv2d_i8;

/// The plain 7-deep float convolution loop: each output starts from its
/// bias and adds its in-bounds taps in `(ic, ky, kx)` order.
#[must_use]
pub fn conv2d_scalar(
    input: &Tensor<f32>,
    weight: &Tensor<f32>,
    bias: Option<&[f32]>,
    cfg: &Conv2dCfg,
) -> Vec<f32> {
    let (h, w) = (input.shape()[1], input.shape()[2]);
    let (oh, ow) = cfg.output_hw(h, w);
    let in_per_group = cfg.in_channels / cfg.groups;
    let out_per_group = cfg.out_channels / cfg.groups;
    let (in_data, w_data) = (input.data(), weight.data());
    let mut out = vec![0.0f32; cfg.out_channels * oh * ow];
    for oc in 0..cfg.out_channels {
        let ic_base = oc / out_per_group * in_per_group;
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = bias.map_or(0.0, |b| b[oc]);
                for ic in 0..in_per_group {
                    for ky in 0..cfg.kernel {
                        let iy = (oy * cfg.stride + ky) as isize - cfg.padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..cfg.kernel {
                            let ix = (ox * cfg.stride + kx) as isize - cfg.padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let x = in_data[((ic_base + ic) * h + iy as usize) * w + ix as usize];
                            let wv = w_data
                                [((oc * in_per_group + ic) * cfg.kernel + ky) * cfg.kernel + kx];
                            acc += x * wv;
                        }
                    }
                }
                out[(oc * oh + oy) * ow + ox] = acc;
            }
        }
    }
    out
}

/// The one-accumulator-per-output fully-connected loop.
#[must_use]
pub fn linear_scalar(
    input: &Tensor<f32>,
    weight: &Tensor<f32>,
    bias: Option<&[f32]>,
    cfg: &LinearCfg,
) -> Vec<f32> {
    let (x, w) = (input.data(), weight.data());
    (0..cfg.out_features)
        .map(|o| {
            let row = &w[o * cfg.in_features..(o + 1) * cfg.in_features];
            let mut acc = bias.map_or(0.0, |b| b[o]);
            for (xv, wv) in x.iter().zip(row) {
                acc += xv * wv;
            }
            acc
        })
        .collect()
}

/// The `i32` im2col integer convolution: one zero-centred patch per output
/// position (padding taps stored as 0), dotted with every filter of the
/// group. Its sums are exact for INT8 weights, the width `bench_core`
/// times it at; long INT16 filters would overflow them.
///
/// # Panics
///
/// Panics when the input is not a `[in_channels, H, W]` tensor.
#[must_use]
pub fn conv2d_i8_scalar(
    input: &Tensor<i8>,
    input_qp: QuantParams,
    weight: &QuantizedTensor,
    cfg: &Conv2dCfg,
) -> Vec<i32> {
    let shape = input.shape();
    assert!(shape.len() == 3 && shape[0] == cfg.in_channels, "input shape {shape:?}");
    let (h, w) = (shape[1], shape[2]);
    let (oh, ow) = cfg.output_hw(h, w);
    let in_per_group = cfg.in_channels / cfg.groups;
    let out_per_group = cfg.out_channels / cfg.groups;
    let zp = input_qp.zero_point();
    let x = input.data();
    let wv = weight.values().data();
    let mut out = vec![0i32; cfg.out_channels * oh * ow];
    let patch_len = in_per_group * cfg.kernel * cfg.kernel;
    let mut patch = vec![0i32; patch_len];
    for group in 0..cfg.groups {
        let ic_base = group * in_per_group;
        for oy in 0..oh {
            for ox in 0..ow {
                let mut idx = 0usize;
                for ic in 0..in_per_group {
                    for ky in 0..cfg.kernel {
                        let iy = (oy * cfg.stride + ky) as isize - cfg.padding as isize;
                        for kx in 0..cfg.kernel {
                            let ix = (ox * cfg.stride + kx) as isize - cfg.padding as isize;
                            patch[idx] = if iy < 0 || iy >= h as isize || ix < 0 || ix >= w as isize
                            {
                                0
                            } else {
                                i32::from(x[((ic_base + ic) * h + iy as usize) * w + ix as usize])
                                    - zp
                            };
                            idx += 1;
                        }
                    }
                }
                for oc in group * out_per_group..(group + 1) * out_per_group {
                    let row = &wv[oc * patch_len..(oc + 1) * patch_len];
                    let mut acc = 0i32;
                    for (&p, &q_w) in patch.iter().zip(row) {
                        acc += p * i32::from(q_w);
                    }
                    out[(oc * oh + oy) * ow + ox] = acc;
                }
            }
        }
    }
    out
}
