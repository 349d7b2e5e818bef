//! Bit-level sparsity statistics (Fig. 2 of the paper).

use dbpim_csd::OperandWidth;
use serde::{Deserialize, Serialize};

/// Bit width of the quantized *input-feature* values the bit-column
/// statistics are computed over.
pub const BIT_WIDTH: u32 = 8;

/// Bit-level sparsity statistics of a quantized weight tensor.
///
/// The three ratios correspond to the three bar groups of Fig. 2(a):
/// `Ori_Zero` (plain binary), `CSD_Zero` (after CSD recoding) and — once the
/// FTA approximation has been applied to the tensor — "Ours".
///
/// The plain-binary statistic counts the non-zero bits of the *magnitude*
/// (sign-magnitude convention): bit-serial PIM datapaths decompose an INT8
/// multiplication into `|W|`-bit by `|I|`-bit partial products plus a sign,
/// so a weight of `-1` contributes one effectual bit, not eight.
///
/// # Examples
///
/// ```
/// use dbpim_csd::OperandWidth;
/// use dbpim_tensor::stats::WeightBitStats;
///
/// let s = WeightBitStats::from_wide_values(&[0, 1, -2, 127], OperandWidth::Int8);
/// assert!(s.binary_zero_ratio() > 0.5);
/// assert!(s.csd_zero_ratio() >= s.binary_zero_ratio());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WeightBitStats {
    bit_width: u32,
    total_values: usize,
    zero_values: usize,
    binary_nonzero_bits: u64,
    csd_nonzero_bits: u64,
}

impl WeightBitStats {
    /// Computes statistics over width-generic quantized values.
    ///
    /// Values are expected to lie in `width`'s two's-complement range; the
    /// statistics count the non-zero magnitude bits and the non-zero
    /// canonical signed digits over `width.bits()` positions per value.
    #[must_use]
    pub fn from_wide_values(values: &[i32], width: OperandWidth) -> Self {
        let mut binary = 0u64;
        let mut csd = 0u64;
        let mut zero_values = 0usize;
        for &v in values {
            if v == 0 {
                zero_values += 1;
            }
            binary += u64::from(v.unsigned_abs().count_ones());
            csd += u64::from(dbpim_csd::phi(v));
        }
        Self {
            bit_width: width.bits(),
            total_values: values.len(),
            zero_values,
            binary_nonzero_bits: binary,
            csd_nonzero_bits: csd,
        }
    }

    /// Merges statistics from another set of values (e.g. another layer).
    /// Both sets must cover the same bit width for the ratios to stay
    /// meaningful; the merged statistics keep `self`'s width.
    #[must_use]
    pub fn merge(self, other: Self) -> Self {
        Self {
            bit_width: self.bit_width,
            total_values: self.total_values + other.total_values,
            zero_values: self.zero_values + other.zero_values,
            binary_nonzero_bits: self.binary_nonzero_bits + other.binary_nonzero_bits,
            csd_nonzero_bits: self.csd_nonzero_bits + other.csd_nonzero_bits,
        }
    }

    /// Number of quantized values covered.
    #[must_use]
    pub fn total_values(&self) -> usize {
        self.total_values
    }

    /// The per-value bit width the statistics were computed over.
    #[must_use]
    pub fn bit_width(&self) -> u32 {
        self.bit_width
    }

    /// Total number of bit positions covered (`values * bit_width`).
    #[must_use]
    pub fn total_bits(&self) -> u64 {
        self.total_values as u64 * u64::from(self.bit_width)
    }

    /// Fraction of values that are exactly zero (value-level sparsity).
    #[must_use]
    pub fn zero_value_ratio(&self) -> f64 {
        ratio(self.zero_values as u64, self.total_values as u64)
    }

    /// Fraction of zero bits under the plain two's-complement encoding
    /// ("Ori_Zero" in Fig. 2(a)).
    #[must_use]
    pub fn binary_zero_ratio(&self) -> f64 {
        1.0 - ratio(self.binary_nonzero_bits, self.total_bits())
    }

    /// Fraction of zero digits under CSD recoding ("CSD_Zero" in Fig. 2(a)).
    #[must_use]
    pub fn csd_zero_ratio(&self) -> f64 {
        1.0 - ratio(self.csd_nonzero_bits, self.total_bits())
    }

    /// Average number of non-zero CSD digits per value (average φ).
    #[must_use]
    pub fn mean_phi(&self) -> f64 {
        ratio(self.csd_nonzero_bits, self.total_values as u64)
    }
}

/// Block-wise zero bit-column statistics of input features (Fig. 2(b)).
///
/// Input features are processed bit-serially in groups of `group_size`
/// features. For every group and every bit position (column), the column can
/// be skipped by the IPU when *all* `group_size` features have a zero at that
/// bit. The returned ratio is `skippable columns / total columns`.
///
/// Activations are expected to be non-negative (post-ReLU, affine-quantized
/// with zero point at the minimum), matching the paper's input encoding.
///
/// # Examples
///
/// ```
/// use dbpim_tensor::stats::zero_bit_column_ratio;
///
/// // All features zero: every column of every group is skippable.
/// assert_eq!(zero_bit_column_ratio(&[0; 32], 8), 1.0);
/// // All-ones features: no column is skippable.
/// assert!(zero_bit_column_ratio(&[-1i8; 32], 8) < 1e-9);
/// ```
#[must_use]
pub fn zero_bit_column_ratio(values: &[i8], group_size: usize) -> f64 {
    assert!(group_size > 0, "group size must be non-zero");
    if values.is_empty() {
        return 1.0;
    }
    let mut zero_columns = 0u64;
    let mut total_columns = 0u64;
    for group in values.chunks(group_size) {
        for bit in 0..BIT_WIDTH {
            total_columns += 1;
            let all_zero = group.iter().all(|&v| (v as u8) & (1 << bit) == 0);
            if all_zero {
                zero_columns += 1;
            }
        }
    }
    ratio(zero_columns, total_columns)
}

/// Per-bit-position zero-column counts for a group size, exposed for the
/// IPU model and for detailed Fig. 2(b) style breakdowns.
#[must_use]
pub fn zero_bit_column_profile(values: &[i8], group_size: usize) -> [f64; BIT_WIDTH as usize] {
    assert!(group_size > 0, "group size must be non-zero");
    let mut zero = [0u64; BIT_WIDTH as usize];
    let mut groups = 0u64;
    for group in values.chunks(group_size) {
        groups += 1;
        for (bit, z) in zero.iter_mut().enumerate() {
            if group.iter().all(|&v| (v as u8) & (1 << bit) == 0) {
                *z += 1;
            }
        }
    }
    let mut out = [0.0; BIT_WIDTH as usize];
    for (o, &z) in out.iter_mut().zip(zero.iter()) {
        *o = ratio(z, groups);
    }
    out
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::WideQuantizedTensor;
    use crate::random::{Distribution, TensorGenerator};

    #[test]
    fn csd_zero_ratio_is_at_least_binary_for_realistic_weights() {
        let mut g = TensorGenerator::new(11);
        let w = g.weight_tensor(vec![64, 3, 3, 3]).unwrap();
        let q = WideQuantizedTensor::quantize_per_channel(&w, 0, OperandWidth::Int8);
        let s = WeightBitStats::from_wide_values(q.values().data(), OperandWidth::Int8);
        assert!(s.csd_zero_ratio() >= s.binary_zero_ratio());
        // Fig. 2(a): realistic weights show at least ~60 % zero bits.
        assert!(s.binary_zero_ratio() > 0.6, "binary zero ratio {}", s.binary_zero_ratio());
    }

    #[test]
    fn wide_stats_agree_with_the_int8_path_and_scale_with_width() {
        let wide: Vec<i32> = (-60..=60).map(|v| v * 2).collect();
        let at8 = WeightBitStats::from_wide_values(&wide, OperandWidth::Int8);
        assert_eq!(at8.bit_width(), 8);

        // The same values over a wider word have more zero positions.
        let at16 = WeightBitStats::from_wide_values(&wide, OperandWidth::Int16);
        assert_eq!(at16.total_bits(), wide.len() as u64 * 16);
        assert!(at16.csd_zero_ratio() > at8.csd_zero_ratio());
        assert_eq!(at16.mean_phi(), at8.mean_phi());
    }

    #[test]
    fn all_zero_tensor_is_fully_sparse() {
        let s = WeightBitStats::from_wide_values(&[0; 100], OperandWidth::Int8);
        assert_eq!(s.binary_zero_ratio(), 1.0);
        assert_eq!(s.csd_zero_ratio(), 1.0);
        assert_eq!(s.zero_value_ratio(), 1.0);
        assert_eq!(s.mean_phi(), 0.0);
    }

    #[test]
    fn merge_accumulates_counts() {
        let stats = |values: &[i32]| WeightBitStats::from_wide_values(values, OperandWidth::Int8);
        let merged = stats(&[1, 2, 3]).merge(stats(&[0, -1]));
        assert_eq!(merged.total_values(), 5);
        let direct = stats(&[1, 2, 3, 0, -1]);
        assert!((merged.csd_zero_ratio() - direct.csd_zero_ratio()).abs() < 1e-12);
    }

    #[test]
    fn phi_mode_of_typical_weights_is_one_or_two() {
        let mut g = TensorGenerator::new(13);
        let w = g.weight_tensor(vec![128, 64, 3, 3]).unwrap();
        let q = WideQuantizedTensor::quantize_per_channel(&w, 0, OperandWidth::Int8);
        let mut hist = [0usize; 5];
        for &v in q.values().data() {
            hist[dbpim_csd::phi(v) as usize] += 1;
        }
        let mode = (0..hist.len()).max_by_key(|&phi| (hist[phi], std::cmp::Reverse(phi)));
        assert!(mode <= Some(2), "mode {mode:?} unexpectedly high");
    }

    #[test]
    fn zero_bit_columns_increase_with_smaller_groups() {
        let mut g = TensorGenerator::new(17);
        let act = g.tensor(vec![4096], Distribution::Relu { zero_prob: 0.5, std: 1.0 }).unwrap();
        let (lo, hi) = act.min_max();
        let params = crate::quant::QuantParams::affine_from_range(lo, hi);
        let q = params.quantize_tensor(&act);
        let r1 = zero_bit_column_ratio(q.data(), 1);
        let r8 = zero_bit_column_ratio(q.data(), 8);
        let r16 = zero_bit_column_ratio(q.data(), 16);
        assert!(r1 >= r8 && r8 >= r16, "ratios not monotone: {r1} {r8} {r16}");
        assert!(r8 > 0.1, "group-of-8 ratio unexpectedly low: {r8}");
    }

    #[test]
    fn zero_bit_column_profile_matches_ratio() {
        let values: Vec<i8> = (0..128).map(|i| (i % 7) as i8).collect();
        let profile = zero_bit_column_profile(&values, 8);
        let mean: f64 = profile.iter().sum::<f64>() / profile.len() as f64;
        let ratio = zero_bit_column_ratio(&values, 8);
        assert!((mean - ratio).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "group size")]
    fn zero_group_size_panics() {
        let _ = zero_bit_column_ratio(&[1i8], 0);
    }
}
