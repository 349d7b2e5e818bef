//! Affine and symmetric quantization, parameterized over operand width.
//!
//! Weights use symmetric per-output-channel quantization (zero point 0) at
//! any supported [`OperandWidth`] (INT4/INT8/INT12/INT16): a
//! [`QuantizedTensor`] holds the values as `i16`, which every width fits,
//! with one scale per output channel whose `q_max` is the width's largest
//! value. The paper's 8b/8b setting is the [`OperandWidth::Int8`] instance.
//! Activations use per-tensor affine quantization and stay INT8 at every
//! weight width: the IPU streams eight bit-serial input columns.

/// The width [`QuantizedTensor::quantize_per_channel`] quantizes to,
/// re-exported for crates that quantize without depending on the CSD crate.
pub use dbpim_csd::OperandWidth;
use serde::{Deserialize, Serialize};

use crate::tensor::Tensor;

/// Scale/zero-point pair mapping a real value `x` to `q = round(x / scale) + zero_point`.
///
/// # Examples
///
/// ```
/// use dbpim_tensor::quant::QuantParams;
///
/// let p = QuantParams::new(0.5, 0);
/// assert_eq!(p.quantize(63.2), 126);
/// assert_eq!(p.dequantize(126), 63.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuantParams {
    scale: f32,
    zero_point: i32,
}

impl QuantParams {
    /// Creates quantization parameters from a scale and zero point.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not strictly positive and finite.
    #[must_use]
    pub fn new(scale: f32, zero_point: i32) -> Self {
        assert!(scale.is_finite() && scale > 0.0, "quantization scale must be positive");
        Self { scale, zero_point }
    }

    /// The quantization scale.
    #[must_use]
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The quantization zero point.
    #[must_use]
    pub fn zero_point(&self) -> i32 {
        self.zero_point
    }

    /// Symmetric parameters (zero point 0) whose `q_max` is the largest
    /// value of an operand width, so `abs_max` maps onto `width.max_value()`.
    ///
    /// A zero or degenerate `abs_max` falls back to a scale of 1, so an
    /// all-zero channel quantizes to all zeros.
    #[must_use]
    pub fn symmetric_for_width(abs_max: f32, width: OperandWidth) -> Self {
        let scale = if abs_max > f32::EPSILON { abs_max / width.max_value() as f32 } else { 1.0 };
        Self { scale, zero_point: 0 }
    }

    /// Affine INT8 parameters covering the closed range `[min, max]`.
    ///
    /// The range is widened to include zero so that a real zero maps exactly
    /// onto an integer (required for zero-padding correctness). This is the
    /// [`OperandWidth::Int8`] instance of
    /// [`affine_from_range_for_width`](Self::affine_from_range_for_width).
    #[must_use]
    pub fn affine_from_range(min: f32, max: f32) -> Self {
        Self::affine_from_range_for_width(min, max, OperandWidth::Int8)
    }

    /// Affine parameters covering `[min, max]` at an arbitrary operand
    /// width: the zero point and clamp bounds come from
    /// `width.min_value()`/`width.max_value()`, and the scale spreads the
    /// range over the width's `2^bits - 1` steps. (An earlier version
    /// hardcoded the INT8 bounds for every width, collapsing wide
    /// activations onto `[-128, 127]`.)
    #[must_use]
    pub fn affine_from_range_for_width(min: f32, max: f32, width: OperandWidth) -> Self {
        let min = min.min(0.0);
        let max = max.max(0.0);
        let range = (max - min).max(f32::EPSILON);
        let q_min = width.min_value() as f32;
        let q_max = width.max_value() as f32;
        let scale = range / (q_max - q_min);
        let zero_point = (q_min - min / scale).round() as i32;
        Self { scale, zero_point: zero_point.clamp(width.min_value(), width.max_value()) }
    }

    /// Quantizes one real value to INT8 (round to nearest, saturating).
    #[must_use]
    pub fn quantize(&self, value: f32) -> i8 {
        self.quantize_wide(value, OperandWidth::Int8) as i8
    }

    /// Quantizes one real value to the given operand width (round to
    /// nearest, saturating at the width's two's-complement range).
    #[must_use]
    pub fn quantize_wide(&self, value: f32, width: OperandWidth) -> i32 {
        let q = round_to_i32(value / self.scale) + self.zero_point;
        q.clamp(width.min_value(), width.max_value())
    }

    /// Dequantizes one width-generic value back to a real value.
    #[must_use]
    pub fn dequantize_wide(&self, value: i32) -> f32 {
        (value - self.zero_point) as f32 * self.scale
    }

    /// Dequantizes one INT8 value back to a real value.
    #[must_use]
    pub fn dequantize(&self, value: i8) -> f32 {
        (i32::from(value) - self.zero_point) as f32 * self.scale
    }

    /// Quantizes every element of a tensor.
    #[must_use]
    pub fn quantize_tensor(&self, tensor: &Tensor<f32>) -> Tensor<i8> {
        tensor.map(|&v| self.quantize(v))
    }

    /// Dequantizes every element of a tensor.
    #[must_use]
    pub fn dequantize_tensor(&self, tensor: &Tensor<i8>) -> Tensor<f32> {
        tensor.map(|&v| self.dequantize(v))
    }
}

/// `x.round() as i32`: rounds half away from zero, then casts saturating
/// (NaN to 0), without the library call `f32::round` becomes on the x86-64
/// baseline, so quantization loops vectorize. `x as i32` truncates, and
/// `x - trunc(x)` is exact in `f32`, so comparing it with ±0.5 picks the
/// same integer `round` does.
fn round_to_i32(x: f32) -> i32 {
    let t = x as i32;
    let frac = x - t as f32;
    if frac >= 0.5 {
        t.saturating_add(1)
    } else if frac <= -0.5 {
        t.saturating_sub(1)
    } else {
        t
    }
}

/// `max |v|` over `values` (0 when empty), in eight independent lanes. The
/// maximum of a set does not depend on the order it is taken in, so this
/// equals the serial `fold(0.0, |m, v| m.max(v.abs()))`.
fn abs_max(values: &[f32]) -> f32 {
    let mut lanes = [0.0f32; 8];
    let chunks = values.chunks_exact(lanes.len());
    let rest = chunks.remainder();
    for chunk in chunks {
        for (m, &v) in lanes.iter_mut().zip(chunk) {
            *m = m.max(v.abs());
        }
    }
    rest.iter().chain(&lanes).fold(0.0f32, |m, &v| m.max(v.abs()))
}

/// Quantization scheme attached to a quantized tensor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum QuantScheme {
    /// One symmetric scale per slice along `axis` (the output-channel axis for
    /// convolution and linear weights).
    PerChannel {
        /// Axis along which parameters vary.
        axis: usize,
        /// One parameter set per index of `axis`.
        params: Vec<QuantParams>,
    },
}

impl QuantScheme {
    /// One parameter set per slice along the scheme's axis.
    #[must_use]
    pub fn params(&self) -> &[QuantParams] {
        let QuantScheme::PerChannel { params, .. } = self;
        params
    }

    /// The parameters applying to the slice `channel` along the scheme's axis.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is not below the number of parameter sets.
    #[must_use]
    pub fn params_for_channel(&self, channel: usize) -> QuantParams {
        self.params()[channel]
    }
}

/// A quantized weight tensor at any [`OperandWidth`]: `i16` values (every
/// width fits) with one symmetric scale per output channel.
///
/// # Examples
///
/// ```
/// use dbpim_csd::OperandWidth;
/// use dbpim_tensor::{Tensor, quant::QuantizedTensor};
///
/// let w = Tensor::from_vec(vec![0.1f32, -0.9, 0.4, 0.0], vec![2, 2])?;
/// let q = QuantizedTensor::quantize_per_channel(&w, 0, OperandWidth::Int12);
/// assert!(q.values().data().iter().all(|&v| OperandWidth::Int12.contains(i32::from(v))));
/// assert_eq!(q.dequantize().shape(), w.shape());
/// # Ok::<(), dbpim_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedTensor {
    values: Tensor<i16>,
    scheme: QuantScheme,
}

impl QuantizedTensor {
    /// Wraps already-quantized values with their scheme.
    #[must_use]
    pub fn new(values: Tensor<i16>, scheme: QuantScheme) -> Self {
        Self { values, scheme }
    }

    /// Per-channel symmetric quantization along `axis` (must be axis 0 of a
    /// rank >= 1 tensor, the output-channel convention used for weights) at
    /// `width`, in two passes per channel: the abs-max scan, then the
    /// quantize. The quantize clamps with `max`/`min` against bounds read
    /// once: `clamp` asserts `min <= max` on every element when the bounds
    /// are not constants, and that branch keeps the loop from vectorizing.
    ///
    /// # Panics
    ///
    /// Panics if `axis != 0`; only the output-channel axis is supported.
    #[must_use]
    pub fn quantize_per_channel(tensor: &Tensor<f32>, axis: usize, width: OperandWidth) -> Self {
        assert_eq!(axis, 0, "per-channel quantization is only supported along axis 0");
        let channels = tensor.shape()[0];
        let per_channel = tensor.numel() / channels;
        let (lo, hi) = (width.min_value(), width.max_value());
        let mut params = Vec::with_capacity(channels);
        let mut values = Vec::with_capacity(tensor.numel());
        for c in 0..channels {
            let slice = &tensor.data()[c * per_channel..(c + 1) * per_channel];
            let p = QuantParams::symmetric_for_width(abs_max(slice), width);
            let scale = p.scale();
            values.extend(slice.iter().map(|&v| round_to_i32(v / scale).max(lo).min(hi) as i16));
            params.push(p);
        }
        let values = Tensor::from_vec(values, tensor.shape().to_vec())
            .expect("same element count as the source tensor");
        Self { values, scheme: QuantScheme::PerChannel { axis, params } }
    }

    /// The quantized values.
    #[must_use]
    pub fn values(&self) -> &Tensor<i16> {
        &self.values
    }

    /// The quantization scheme.
    #[must_use]
    pub fn scheme(&self) -> &QuantScheme {
        &self.scheme
    }

    /// Dequantizes back to a float tensor.
    #[must_use]
    pub fn dequantize(&self) -> Tensor<f32> {
        let channels = self.values.shape()[0];
        let per_channel = self.values.numel() / channels;
        let mut out = Vec::with_capacity(self.values.numel());
        for (c, p) in self.scheme.params().iter().enumerate().take(channels) {
            out.extend(
                self.values.data()[c * per_channel..(c + 1) * per_channel]
                    .iter()
                    .map(|&v| p.dequantize_wide(i32::from(v))),
            );
        }
        Tensor::from_vec(out, self.values.shape().to_vec())
            .expect("same element count as the quantized tensor")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_quantization_round_trips_small_error() {
        let t = Tensor::from_vec(vec![0.5f32, -1.0, 0.25, 0.0, 0.99, -0.33], vec![2, 3]).unwrap();
        let q = QuantizedTensor::quantize_per_channel(&t, 0, OperandWidth::Int8);
        let err = t.mse(&q.dequantize()).unwrap();
        assert!(err < 1e-4, "quantization error too large: {err}");
    }

    #[test]
    fn per_channel_uses_independent_scales() {
        // Channel 0 has tiny values, channel 1 large ones; per-channel
        // quantization must not crush channel 0 to zero.
        let t = Tensor::from_vec(vec![0.01f32, -0.02, 5.0, -4.0], vec![2, 2]).unwrap();
        let q = QuantizedTensor::quantize_per_channel(&t, 0, OperandWidth::Int8);
        assert!(q.values().data()[0].unsigned_abs() > 30);
        // The same values as one channel share channel 1's scale.
        let one = Tensor::from_vec(t.data().to_vec(), vec![1, 4]).unwrap();
        let shared = QuantizedTensor::quantize_per_channel(&one, 0, OperandWidth::Int8);
        assert!(shared.values().data()[0].unsigned_abs() <= 1);
    }

    #[test]
    fn affine_range_maps_zero_exactly() {
        let p = QuantParams::affine_from_range(0.0, 6.0);
        let zero_q = p.quantize(0.0);
        assert!((p.dequantize(zero_q)).abs() < 1e-6);
        assert_eq!(p.quantize(6.0), 127);
    }

    #[test]
    fn affine_bounds_follow_the_operand_width() {
        // Regression: the zero point and clamp bounds must come from the
        // width, not hardcoded INT8 constants.
        for width in [OperandWidth::Int4, OperandWidth::Int12, OperandWidth::Int16] {
            let p = QuantParams::affine_from_range_for_width(0.0, 6.0, width);
            // A one-sided range must anchor its zero point at the width's
            // minimum so the full positive code space is usable.
            assert_eq!(p.zero_point(), width.min_value(), "{width}");
            assert_eq!(p.quantize_wide(0.0, width), width.min_value(), "{width}");
            assert_eq!(p.quantize_wide(6.0, width), width.max_value(), "{width}");
            // Real zero maps exactly onto an integer code.
            let zero_q = p.quantize_wide(0.0, width);
            assert!(p.dequantize_wide(zero_q).abs() < 1e-6, "{width}");
            // Two-sided ranges stay inside the width's code space too.
            let p = QuantParams::affine_from_range_for_width(-3.0, 5.0, width);
            assert!(width.contains(p.zero_point()), "{width}: {}", p.zero_point());
            assert_eq!(p.quantize_wide(5.0, width), width.max_value(), "{width}");
            assert_eq!(p.quantize_wide(-3.0, width), width.min_value(), "{width}");
        }
        // Wider widths resolve the same range more finely.
        let narrow = QuantParams::affine_from_range_for_width(0.0, 6.0, OperandWidth::Int4);
        let wide = QuantParams::affine_from_range_for_width(0.0, 6.0, OperandWidth::Int16);
        assert!(wide.scale() < narrow.scale());
    }

    #[test]
    fn affine_int8_path_is_unchanged_by_the_width_parameterization() {
        for (min, max) in [(0.0f32, 6.0f32), (-1.5, 2.5), (-4.0, 0.0), (0.0, 0.0)] {
            let classic = QuantParams::affine_from_range(min, max);
            let via_width = QuantParams::affine_from_range_for_width(min, max, OperandWidth::Int8);
            assert_eq!(classic, via_width);
            assert_eq!(classic.zero_point().clamp(-128, 127), classic.zero_point());
        }
    }

    #[test]
    fn quantize_saturates() {
        let p = QuantParams::new(0.1, 0);
        assert_eq!(p.quantize(1e9), 127);
        assert_eq!(p.quantize(-1e9), -128);
    }

    #[test]
    fn all_zero_tensor_stays_zero() {
        let t = Tensor::<f32>::zeros(vec![2, 2]).unwrap();
        let q = QuantizedTensor::quantize_per_channel(&t, 0, OperandWidth::Int8);
        assert!(q.values().data().iter().all(|&v| v == 0));
        assert!(q.dequantize().data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn scheme_lookup_per_channel() {
        let t = Tensor::from_vec(vec![1.0f32, 2.0, 4.0, 8.0], vec![2, 2]).unwrap();
        let q = QuantizedTensor::quantize_per_channel(&t, 0, OperandWidth::Int8);
        let p0 = q.scheme().params_for_channel(0);
        let p1 = q.scheme().params_for_channel(1);
        assert!(p1.scale() > p0.scale());
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn zero_scale_panics() {
        let _ = QuantParams::new(0.0, 0);
    }

    #[test]
    fn wide_widths_respect_their_ranges_and_resolution_order() {
        let t = Tensor::from_vec((0..32).map(|i| (i as f32 - 16.0) / 5.0).collect(), vec![2, 16])
            .unwrap();
        let mut previous_mse = f32::INFINITY;
        for width in OperandWidth::all() {
            let q = QuantizedTensor::quantize_per_channel(&t, 0, width);
            assert!(q.values().data().iter().all(|&v| width.contains(i32::from(v))), "{width}");
            assert_eq!(q.scheme().params().len(), 2, "{width}");
            let mse = t.mse(&q.dequantize()).unwrap();
            assert!(mse <= previous_mse, "{width}: mse {mse} > previous {previous_mse}");
            previous_mse = mse;
        }
        // INT16 resolution on this tensor is essentially exact.
        assert!(previous_mse < 1e-6);
    }

    #[test]
    fn round_to_i32_equals_round_then_cast() {
        let special = [
            0.0f32,
            -0.0,
            0.5,
            -0.5,
            1.5,
            -1.5,
            2.5,
            0.49999997,
            -0.49999997,
            8_388_607.5,
            -8_388_607.5,
            16_777_215.0,
            2_147_483_520.0,
            2_147_483_648.0,
            -2_147_483_648.0,
            3e9,
            -3e9,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
        ];
        // Every half-integer and its neighbours across the quantized
        // ranges, then a sweep of bit patterns over all magnitudes.
        let halves = (-70_000..70_000).flat_map(|i| {
            let x = i as f32 + 0.5;
            [x, f32::from_bits(x.to_bits() + 1), f32::from_bits(x.to_bits() - 1)]
        });
        let patterns = (0..u32::MAX / 9973).map(|i| f32::from_bits(i * 9973));
        for x in special.into_iter().chain(halves).chain(patterns) {
            assert_eq!(round_to_i32(x), x.round() as i32, "{x:e} ({:#x})", x.to_bits());
        }
    }

    #[test]
    fn abs_max_equals_the_serial_fold() {
        for len in [0, 1, 7, 8, 9, 23, 64] {
            let values: Vec<f32> =
                (0..len).map(|i| ((i * 37 % 19) as f32 - 9.0) / 3.0 * (i % 3) as f32).collect();
            let serial = values.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            assert_eq!(abs_max(&values).to_bits(), serial.to_bits(), "len {len}");
        }
    }

    #[test]
    fn quantize_wide_saturates_at_the_width_range() {
        let p = QuantParams::new(0.1, 0);
        assert_eq!(p.quantize_wide(1e9, OperandWidth::Int4), 7);
        assert_eq!(p.quantize_wide(-1e9, OperandWidth::Int4), -8);
        assert_eq!(p.quantize_wide(1e9, OperandWidth::Int16), 32767);
        assert_eq!(p.dequantize_wide(100), 10.0);
    }
}
