//! Dyadic-block metadata extraction, parameterized over operand width.
//!
//! After the FTA approximation every weight of a filter carries at most
//! `φ_th` Complementary Pattern blocks. The compiler stores, per occupied 6T
//! cell, the block's *sign* (one bit) and *dyadic-block index*
//! ([`OperandWidth::index_bits`] bits — two for the paper's INT8 layout) in
//! the metadata register files, while the cell itself holds the pattern bits
//! `Q/Q̄` that encode which of the block's two digit positions is non-zero.
//! This module extracts exactly that information and provides the inverse
//! (reconstruction), which the bit-accurate architecture model and the test
//! suite use to prove the compression is lossless.

use dbpim_csd::{BlockPattern, CsdWord, OperandWidth, Sign};
use serde::{Deserialize, Serialize};

use crate::algorithm::{FilterApprox, LayerApprox};

/// Metadata of one stored Complementary Pattern block (one occupied 6T cell).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StoredBlock {
    /// Dyadic-block index (`0..width.blocks()`); the block covers digit
    /// positions `2*index` and `2*index + 1`.
    pub db_index: u8,
    /// `true` when the non-zero digit sits in the block's high position.
    /// This is the information carried by the cell's `Q/Q̄` pair.
    pub high: bool,
    /// Sign of the non-zero digit (stored in the metadata RF).
    pub sign: Sign,
}

impl StoredBlock {
    /// The signed contribution of this block to its weight's value.
    #[must_use]
    pub fn value(&self) -> i32 {
        let shift = 2 * u32::from(self.db_index) + u32::from(self.high);
        self.sign.factor() << shift
    }

    /// The left-shift amount the CSD adder tree applies to this block's AND
    /// result.
    #[must_use]
    pub fn shift(&self) -> u32 {
        2 * u32::from(self.db_index) + u32::from(self.high)
    }
}

/// The cell slots of one weight: exactly `φ_th` entries, `None` marking a
/// padded (idle) slot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WeightSlots {
    /// The approximated weight value the slots encode.
    pub value: i32,
    /// One entry per allocated cell (`φ_th` of them).
    pub slots: Vec<Option<StoredBlock>>,
}

impl WeightSlots {
    /// Extracts the slots of one approximated weight for a given threshold
    /// and operand width.
    ///
    /// # Panics
    ///
    /// Panics if the weight needs more than `threshold` blocks or lies
    /// outside the width's range, both of which the FTA approximation
    /// guarantees never happen.
    #[must_use]
    pub fn from_weight(value: i32, threshold: u32, width: OperandWidth) -> Self {
        let word = CsdWord::encode(value, width)
            .expect("FTA-approximated weights lie in the operand range");
        let blocks = word.dyadic_blocks();
        let mut slots: Vec<Option<StoredBlock>> = Vec::with_capacity(threshold as usize);
        for block in blocks.iter() {
            if let BlockPattern::Comp { high, sign } = block.pattern() {
                slots.push(Some(StoredBlock { db_index: block.index(), high, sign }));
            }
        }
        assert!(
            slots.len() <= threshold as usize,
            "weight {value} needs {} blocks but the filter threshold is {threshold}",
            slots.len()
        );
        slots.resize(threshold as usize, None);
        Self { value, slots }
    }

    /// Number of occupied (non-padded) slots.
    #[must_use]
    pub fn stored(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Number of padded slots.
    #[must_use]
    pub fn padded(&self) -> usize {
        self.slots.len() - self.stored()
    }

    /// Reconstructs the weight value from the stored blocks.
    #[must_use]
    pub fn reconstruct(&self) -> i32 {
        self.slots.iter().flatten().map(StoredBlock::value).sum()
    }
}

/// Metadata of one filter: the cell slots of every weight.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FilterMetadata {
    /// Index of the filter inside its layer.
    pub filter_index: usize,
    /// The filter's fixed threshold `φ_th`.
    pub threshold: u32,
    /// Operand width of the encoded weights.
    pub width: OperandWidth,
    /// Per-weight slot assignments, in the filter's weight order.
    pub weights: Vec<WeightSlots>,
}

impl FilterMetadata {
    /// Extracts metadata from one approximated filter.
    #[must_use]
    pub fn from_filter(filter_index: usize, filter: &FilterApprox) -> Self {
        let threshold = filter.threshold();
        let width = filter.width();
        let weights = filter
            .values()
            .iter()
            .map(|&v| WeightSlots::from_weight(v, threshold, width))
            .collect();
        Self { filter_index, threshold, width, weights }
    }

    /// Total occupied cells.
    #[must_use]
    pub fn stored_cells(&self) -> usize {
        self.weights.iter().map(WeightSlots::stored).sum()
    }

    /// Total allocated cells (`weights * φ_th`).
    #[must_use]
    pub fn allocated_cells(&self) -> usize {
        self.weights.iter().map(|w| w.slots.len()).sum()
    }

    /// Total padded (idle) cells.
    #[must_use]
    pub fn padded_cells(&self) -> usize {
        self.allocated_cells() - self.stored_cells()
    }

    /// Metadata storage in bits: one sign bit plus the block index
    /// ([`OperandWidth::metadata_bits_per_cell`] — three bits for INT8) per
    /// allocated cell.
    #[must_use]
    pub fn metadata_bits(&self) -> usize {
        self.width.metadata_bits_per_cell() as usize * self.allocated_cells()
    }
}

/// Metadata of one whole PIM-mapped layer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerMetadata {
    /// Graph node id of the layer.
    pub node_id: usize,
    /// Weights per filter.
    pub filter_len: usize,
    /// Operand width of the encoded weights.
    pub width: OperandWidth,
    /// Per-filter metadata.
    pub filters: Vec<FilterMetadata>,
}

impl LayerMetadata {
    /// Extracts metadata for every filter of an approximated layer.
    #[must_use]
    pub fn from_layer(layer: &LayerApprox) -> Self {
        let filters = layer
            .filters()
            .iter()
            .enumerate()
            .map(|(i, f)| FilterMetadata::from_filter(i, f))
            .collect();
        Self {
            node_id: layer.node_id(),
            filter_len: layer.filter_len(),
            width: layer.width(),
            filters,
        }
    }

    /// Total occupied cells across all filters.
    #[must_use]
    pub fn stored_cells(&self) -> usize {
        self.filters.iter().map(FilterMetadata::stored_cells).sum()
    }

    /// Total allocated cells across all filters.
    #[must_use]
    pub fn allocated_cells(&self) -> usize {
        self.filters.iter().map(FilterMetadata::allocated_cells).sum()
    }

    /// Actual utilization `U_act` of Eq. (1): occupied cells over cells
    /// participating in computation.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        let allocated = self.allocated_cells();
        if allocated == 0 {
            return 1.0;
        }
        self.stored_cells() as f64 / allocated as f64
    }

    /// Total metadata storage in bits.
    #[must_use]
    pub fn metadata_bits(&self) -> usize {
        self.filters.iter().map(FilterMetadata::metadata_bits).sum()
    }

    /// Dense cell count for the same layer (one bit-cell per weight bit),
    /// the denominator of the compression-ratio statistic.
    #[must_use]
    pub fn dense_cells(&self) -> usize {
        self.filters.len() * self.filter_len * self.width.bits() as usize
    }

    /// Storage compression ratio of the dyadic-block format relative to a
    /// dense mapping at the same width (larger is better).
    #[must_use]
    pub fn compression_ratio(&self) -> f64 {
        let allocated = self.allocated_cells();
        if allocated == 0 {
            return f64::from(self.width.bits());
        }
        self.dense_cells() as f64 / allocated as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::QueryTables;
    use dbpim_tensor::Tensor;

    #[test]
    fn slots_reconstruct_the_weight() {
        for v in i8::MIN..=i8::MAX {
            let phi = CsdWord::encode(i32::from(v), OperandWidth::Int8).unwrap().nonzero_digits();
            if phi > 2 {
                continue;
            }
            let slots = WeightSlots::from_weight(i32::from(v), 2, OperandWidth::Int8);
            assert_eq!(slots.reconstruct(), i32::from(v), "value {v}");
            assert_eq!(slots.stored() as u32, phi);
            assert_eq!(slots.padded() as u32, 2 - phi);
        }
    }

    #[test]
    fn slots_reconstruct_wide_weights() {
        for width in OperandWidth::all() {
            for shift in 0..width.bits() - 1 {
                let v = 1i32 << shift;
                for value in [v, -v, width.min_value()] {
                    let slots = WeightSlots::from_weight(value, 1, width);
                    assert_eq!(slots.reconstruct(), value, "{width} value {value}");
                    assert_eq!(slots.stored(), 1);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "needs")]
    fn slots_panic_when_threshold_is_too_small() {
        // 0b0101_0101 = 85 needs four blocks.
        let _ = WeightSlots::from_weight(85, 1, OperandWidth::Int8);
    }

    #[test]
    fn stored_block_value_matches_shift_and_sign() {
        let b = StoredBlock { db_index: 2, high: true, sign: Sign::Negative };
        assert_eq!(b.shift(), 5);
        assert_eq!(b.value(), -32);
        let b = StoredBlock { db_index: 0, high: false, sign: Sign::Positive };
        assert_eq!(b.value(), 1);
        // INT16 reaches block index 7 (digit positions 14/15).
        let b = StoredBlock { db_index: 7, high: true, sign: Sign::Negative };
        assert_eq!(b.value(), -32768);
    }

    #[test]
    fn filter_metadata_counts_padding() {
        let tables = QueryTables::for_width(OperandWidth::Int8);
        // Filter of weights {1, 5}: threshold 2; 1 stores one block (one pad),
        // 5 stores two blocks.
        let filter = FilterApprox::approximate_with_threshold(&[1i8, 5], 2, &tables).unwrap();
        let meta = FilterMetadata::from_filter(0, &filter);
        assert_eq!(meta.allocated_cells(), 4);
        assert_eq!(meta.stored_cells(), 3);
        assert_eq!(meta.padded_cells(), 1);
        assert_eq!(meta.metadata_bits(), 12);
        assert_eq!(meta.width, OperandWidth::Int8);
    }

    #[test]
    fn metadata_bits_follow_the_width_layout() {
        for (width, expected_bits_per_cell) in [
            (OperandWidth::Int4, 2),
            (OperandWidth::Int8, 3),
            (OperandWidth::Int12, 4),
            (OperandWidth::Int16, 4),
        ] {
            let tables = QueryTables::for_width(width);
            let filter = FilterApprox::approximate_with_threshold(&[1i32, 3], 2, &tables).unwrap();
            let meta = FilterMetadata::from_filter(0, &filter);
            assert_eq!(meta.allocated_cells(), 4);
            assert_eq!(meta.metadata_bits(), expected_bits_per_cell * 4, "{width}");
        }
    }

    #[test]
    fn layer_metadata_is_lossless_and_utilization_below_one() {
        let tables = QueryTables::for_width(OperandWidth::Int8);
        let values: Vec<i8> = (0..64).map(|i| ((i * 13 + 7) % 251) as i8).collect();
        let weights = Tensor::from_vec(values, vec![8, 8]).unwrap();
        let layer =
            crate::algorithm::LayerApprox::from_weights(1, "conv", &weights, &tables).unwrap();
        let meta = LayerMetadata::from_layer(&layer);

        // Reconstruction equals the approximated tensor.
        let approx = layer.approximated_tensor();
        for (f, filter_meta) in meta.filters.iter().enumerate() {
            for (j, slots) in filter_meta.weights.iter().enumerate() {
                assert_eq!(slots.reconstruct(), i32::from(approx.data()[f * 8 + j]));
            }
        }

        assert!(meta.utilization() > 0.5 && meta.utilization() <= 1.0);
        assert!(meta.compression_ratio() >= 8.0 / 2.0);
        assert_eq!(meta.dense_cells(), 8 * 8 * 8);
        assert!(meta.metadata_bits() > 0);
    }

    #[test]
    fn all_zero_layer_has_full_utilization_by_convention() {
        let tables = QueryTables::for_width(OperandWidth::Int8);
        let weights = Tensor::from_vec(vec![0i8; 16], vec![4, 4]).unwrap();
        let layer =
            crate::algorithm::LayerApprox::from_weights(0, "zeros", &weights, &tables).unwrap();
        let meta = LayerMetadata::from_layer(&layer);
        assert_eq!(meta.allocated_cells(), 0);
        assert_eq!(meta.utilization(), 1.0);
        assert_eq!(meta.compression_ratio(), 8.0);
    }
}
