//! The customized SRAM-PIM macro: bit-accurate sparse and dense execution.
//!
//! The macro is organised as `compartments × DBMU-columns × rows` 6T cells.
//! Every compartment receives one broadcast input feature per cycle; a filter
//! occupies `φ_th` DBMU columns (one per stored Complementary Pattern block)
//! in every compartment. The CSD adder tree reduces a filter's contributions
//! across compartments and block slots, and the filter's post-processing unit
//! shift-and-adds the result over the bit-serial input columns emitted by the
//! IPU.
//!
//! The same storage array also supports the *dense baseline* mapping the
//! paper compares against: eight plain binary bit-cells per weight, two
//! filters per macro, no zero-bit skipping.
//!
//! # Bit-plane execution
//!
//! Internally the macro stores a loaded tile as packed `u64` *bit-planes*
//! rather than individual cells: for every `(filter, row)` pair there is one
//! plane per CSD shift amount `k = 2·db_index + high` and digit sign, whose
//! bit `c` says "compartment `c` holds an occupied cell contributing
//! `±2^k`". One compute column then reduces to a word-wide AND against the
//! IPU's packed input mask followed by popcounts — the same arithmetic the
//! cell-at-a-time model performs, several dozen cells per machine
//! instruction. The cell-level implementation is preserved as
//! [`ScalarPimMacro`](crate::reference::ScalarPimMacro) (under
//! `cfg(any(test, feature = "scalar-reference"))`) and the differential suite
//! `tests/kernel_equivalence.rs` proves outputs and every
//! [`MacroComputeStats`] counter bit-identical between the two.
//!
//! Loading is split from execution ([`PimMacro::load_sparse_tile`] /
//! [`PimMacro::execute_loaded`]) so callers multiplying one weight tile
//! against many input vectors no longer re-write identical weights per tile.

use dbpim_csd::{OperandWidth, Sign};
use dbpim_fta::metadata::FilterMetadata;
use serde::{Deserialize, Serialize};

use crate::adder_tree::CsdAdderTree;
use crate::config::ArchConfig;
use crate::error::ArchError;
use crate::ipu::{InputPreprocessor, PackedColumns};
use crate::ppu::PostProcessingUnit;

/// Event counts of one tile execution on a macro.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MacroComputeStats {
    /// Compute cycles spent (one per emitted input bit column per row).
    pub compute_cycles: u64,
    /// Input bit columns skipped by the IPU.
    pub skipped_columns: u64,
    /// Cell/LPU read-compute operations issued.
    pub cell_reads: u64,
    /// Cell operations that produced a non-zero contribution.
    pub effective_cell_ops: u64,
    /// CSD adder-tree reductions performed.
    pub adder_reductions: u64,
    /// Post-processing shift-and-add operations performed.
    pub ppu_operations: u64,
    /// Word-line writes performed while loading the tile.
    pub cell_writes: u64,
}

impl MacroComputeStats {
    /// Actual utilization of the executed tile: effective cell operations
    /// over issued cell operations (Eq. 1 evaluated dynamically).
    #[must_use]
    pub fn dynamic_utilization(&self) -> f64 {
        if self.cell_reads == 0 {
            return 1.0;
        }
        self.effective_cell_ops as f64 / self.cell_reads as f64
    }
}

/// Result of executing one tile.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TileExecution {
    /// One accumulated dot product per filter of the tile.
    pub outputs: Vec<i64>,
    /// Event counts for the execution.
    pub stats: MacroComputeStats,
}

/// A sparse (DB-PIM) tile packed into sign-split CSD shift planes.
///
/// `planes` is indexed `[filter][row][shift k][sign][word]` (row-major): bit
/// `c % 64` of word `c / 64` is set when compartment `c` holds an occupied
/// cell whose contribution is `±2^k` (`k = 2·db_index + high`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct SparsePlanes {
    filters: usize,
    weights_len: usize,
    /// Column stride per filter (`φ_th` of the tile), charged per cell read
    /// whether or not a slot is occupied.
    slots: usize,
    /// Number of CSD shift planes (`2 × blocks` of the widest filter).
    shifts: usize,
    rows: usize,
    words: usize,
    planes: Vec<u64>,
    cell_writes: u64,
    /// One flag per `(filter, row)` plane segment: `false` means no stored
    /// bit anywhere in the segment, so execution elides its reduction (the
    /// charged counters are unchanged — the hardware still issues the cycle).
    row_has_bits: Vec<bool>,
    /// Allocated cell slots that belong to exactly-zero (value-pruned)
    /// weights.
    pruned_cells: u64,
}

/// A dense-baseline tile packed into weight-bit planes.
///
/// `planes` is indexed `[filter][row][bit][word]`; bit `c` of a word is the
/// two's-complement weight bit `b` of the weight held by compartment `c`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct DensePlanes {
    filters: usize,
    weights_len: usize,
    weight_bits: usize,
    rows: usize,
    words: usize,
    planes: Vec<u64>,
    cell_writes: u64,
}

/// The tile currently held by the macro's storage array.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
enum LoadedTile {
    None,
    Sparse(SparsePlanes),
    Dense(DensePlanes),
}

/// The bit-accurate PIM macro model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PimMacro {
    config: ArchConfig,
    tile: LoadedTile,
}

impl PimMacro {
    /// Creates an empty macro with the given geometry.
    ///
    /// # Errors
    ///
    /// Returns a validation error for a degenerate configuration.
    pub fn new(config: ArchConfig) -> Result<Self, ArchError> {
        config.validate()?;
        Ok(Self { config, tile: LoadedTile::None })
    }

    /// The macro's geometry.
    #[must_use]
    pub fn config(&self) -> &ArchConfig {
        &self.config
    }

    /// Clears every cell and its metadata (drops the loaded tile).
    pub fn reset(&mut self) {
        self.tile = LoadedTile::None;
    }

    /// Allocated cell slots of the loaded sparse tile that belong to
    /// exactly-zero (value-pruned) weights — capacity the pruning wasted
    /// rather than compacted away. Zero for dense tiles or when nothing is
    /// loaded.
    #[must_use]
    pub fn loaded_pruned_cells(&self) -> u64 {
        match &self.tile {
            LoadedTile::Sparse(t) => t.pruned_cells,
            _ => 0,
        }
    }

    /// Number of `(filter, row)` plane segments of the loaded sparse tile
    /// with no stored bits at all. Execution elides each segment's adder
    /// reduction per input column while charging the regular counters, so
    /// results and accounting stay bit-identical to the scalar reference.
    #[must_use]
    pub fn loaded_zero_rows(&self) -> u64 {
        match &self.tile {
            LoadedTile::Sparse(t) => t.row_has_bits.iter().filter(|&&b| !b).count() as u64,
            _ => 0,
        }
    }

    /// Loads one DB-PIM (sparse) tile without executing it, returning the
    /// number of word-line writes performed. Every filter of the tile must
    /// carry the same number of weights.
    ///
    /// Pair with [`execute_loaded`](Self::execute_loaded) to multiply the
    /// same weight tile against many input vectors without re-writing cells.
    ///
    /// # Errors
    ///
    /// * [`ArchError::CapacityExceeded`] when the filters or weights do not
    ///   fit the macro geometry.
    /// * [`ArchError::LengthMismatch`] when the filters disagree on their
    ///   weight count.
    pub fn load_sparse_tile(&mut self, filters: &[FilterMetadata]) -> Result<u64, ArchError> {
        let _span = dbpim_trace::kernel_span("arch.load");
        let weights_len = filters.first().map_or(0, |f| f.weights.len());
        self.validate_sparse(filters, weights_len, "tile weights")?;
        Ok(self.load_sparse_planes(filters, weights_len))
    }

    /// Loads one dense-baseline tile at an arbitrary weight width without
    /// executing it, returning the number of word-line writes performed.
    ///
    /// # Errors
    ///
    /// * [`ArchError::CapacityExceeded`] when the filters, weights or weight
    ///   bit columns do not fit the macro geometry.
    /// * [`ArchError::LengthMismatch`] when the filters disagree on their
    ///   weight count.
    /// * [`ArchError::OperandOutOfRange`] when a weight lies outside the
    ///   width's two's-complement range.
    pub fn load_dense_tile_for_width(
        &mut self,
        filters: &[Vec<i32>],
        width: OperandWidth,
    ) -> Result<u64, ArchError> {
        let _span = dbpim_trace::kernel_span("arch.load");
        let weights_len = filters.first().map_or(0, Vec::len);
        self.validate_dense(filters, weights_len, width, "tile weights")?;
        Ok(self.load_dense_planes(filters, width))
    }

    /// Executes the currently loaded tile against one input vector.
    ///
    /// The returned [`MacroComputeStats::cell_writes`] is zero — the write
    /// cost was already paid (and reported) by the load call.
    ///
    /// # Errors
    ///
    /// * [`ArchError::NoTileLoaded`] when no tile has been loaded.
    /// * [`ArchError::CapacityExceeded`] /
    ///   [`ArchError::LengthMismatch`] when the input vector does not match
    ///   the loaded tile.
    pub fn execute_loaded(
        &self,
        inputs: &[i8],
        ipu: &InputPreprocessor,
    ) -> Result<TileExecution, ArchError> {
        let _span = dbpim_trace::kernel_span("arch.execute");
        let (filters, weights_len) = match &self.tile {
            LoadedTile::None => return Err(ArchError::NoTileLoaded),
            LoadedTile::Sparse(t) => (t.filters, t.weights_len),
            LoadedTile::Dense(t) => (t.filters, t.weights_len),
        };
        if inputs.len() > self.config.weights_per_filter_capacity() {
            return Err(ArchError::CapacityExceeded {
                resource: "weights per filter",
                requested: inputs.len(),
                available: self.config.weights_per_filter_capacity(),
            });
        }
        if filters > 0 && inputs.len() != weights_len {
            return Err(ArchError::LengthMismatch {
                left: "loaded tile weights",
                left_len: weights_len,
                right: "inputs",
                right_len: inputs.len(),
            });
        }
        Ok(self.execute_planes(inputs, ipu))
    }

    /// Executes one DB-PIM (sparse) tile: `filters` hold the dyadic-block
    /// metadata of every filter mapped onto this macro, `inputs` the INT8
    /// input features the tile multiplies against (one per weight position).
    ///
    /// Returns the per-filter signed dot products and the event counts.
    ///
    /// # Errors
    ///
    /// * [`ArchError::CapacityExceeded`] when the filters or weights do not
    ///   fit the macro geometry.
    /// * [`ArchError::LengthMismatch`] when a filter's weight count differs
    ///   from the number of inputs.
    pub fn execute_sparse_tile(
        &mut self,
        filters: &[FilterMetadata],
        inputs: &[i8],
        ipu: &InputPreprocessor,
    ) -> Result<TileExecution, ArchError> {
        self.validate_sparse(filters, inputs.len(), "inputs")?;
        let writes = self.load_sparse_planes(filters, inputs.len());
        let mut exec = self.execute_planes(inputs, ipu);
        exec.stats.cell_writes = writes;
        Ok(exec)
    }

    /// Executes one dense-baseline tile at a weight width: every weight
    /// occupies `width.bits()` plain binary bit-cells (its two's-complement
    /// representation over that width), `dense_filters_per_macro` filters at
    /// a time, so wider operands consume proportionally more DBMU columns
    /// per filter.
    ///
    /// # Errors
    ///
    /// * [`ArchError::CapacityExceeded`] when the filters, weights or weight
    ///   bit columns do not fit the macro geometry.
    /// * [`ArchError::LengthMismatch`] when a filter's weight count differs
    ///   from the number of inputs.
    /// * [`ArchError::OperandOutOfRange`] when a weight lies outside the
    ///   width's two's-complement range (truncating it to `width.bits()`
    ///   bits would silently change its value).
    pub fn execute_dense_tile_for_width(
        &mut self,
        filters: &[Vec<i32>],
        inputs: &[i8],
        ipu: &InputPreprocessor,
        width: OperandWidth,
    ) -> Result<TileExecution, ArchError> {
        self.validate_dense(filters, inputs.len(), width, "inputs")?;
        let writes = self.load_dense_planes(filters, width);
        let mut exec = self.execute_planes(inputs, ipu);
        exec.stats.cell_writes = writes;
        Ok(exec)
    }

    /// Shared sparse validation; `weights_len` is the reference length every
    /// filter must match (the input count for the monolithic entry points,
    /// the first filter's weight count for load-only).
    fn validate_sparse(
        &self,
        filters: &[FilterMetadata],
        weights_len: usize,
        right: &'static str,
    ) -> Result<(), ArchError> {
        let threshold = filters.iter().map(|f| f.threshold).max().unwrap_or(0).max(1);
        let capacity = self.config.filters_per_macro(threshold)?;
        if filters.len() > capacity {
            return Err(ArchError::CapacityExceeded {
                resource: "filters",
                requested: filters.len(),
                available: capacity,
            });
        }
        if weights_len > self.config.weights_per_filter_capacity() {
            return Err(ArchError::CapacityExceeded {
                resource: "weights per filter",
                requested: weights_len,
                available: self.config.weights_per_filter_capacity(),
            });
        }
        for filter in filters {
            if filter.weights.len() != weights_len {
                return Err(ArchError::LengthMismatch {
                    left: "filter weights",
                    left_len: filter.weights.len(),
                    right,
                    right_len: weights_len,
                });
            }
        }
        Ok(())
    }

    fn validate_dense(
        &self,
        filters: &[Vec<i32>],
        weights_len: usize,
        width: OperandWidth,
        right: &'static str,
    ) -> Result<(), ArchError> {
        let weight_bits = width.bits() as usize;
        if filters.len() > self.config.dense_filters_per_macro {
            return Err(ArchError::CapacityExceeded {
                resource: "filters",
                requested: filters.len(),
                available: self.config.dense_filters_per_macro,
            });
        }
        if weights_len > self.config.weights_per_filter_capacity() {
            return Err(ArchError::CapacityExceeded {
                resource: "weights per filter",
                requested: weights_len,
                available: self.config.weights_per_filter_capacity(),
            });
        }
        if weight_bits * filters.len() > self.config.dbmus_per_compartment {
            return Err(ArchError::CapacityExceeded {
                resource: "weight bit columns",
                requested: weight_bits * filters.len(),
                available: self.config.dbmus_per_compartment,
            });
        }
        for filter in filters {
            if filter.len() != weights_len {
                return Err(ArchError::LengthMismatch {
                    left: "filter weights",
                    left_len: filter.len(),
                    right,
                    right_len: weights_len,
                });
            }
            if let Some(&value) = filter.iter().find(|&&w| !width.contains(w)) {
                return Err(ArchError::OperandOutOfRange { value, bits: width.bits() });
            }
        }
        Ok(())
    }

    /// Packs a validated sparse tile into shift/sign bit-planes. Weight `j`
    /// of filter `f` maps to compartment `j mod C`, row `j div C`, columns
    /// `[f·slots, f·slots + slots)` — the same mapping the scalar reference
    /// writes cell by cell.
    fn load_sparse_planes(&mut self, filters: &[FilterMetadata], weights_len: usize) -> u64 {
        let compartments = self.config.compartments_per_macro;
        let threshold = filters.iter().map(|f| f.threshold).max().unwrap_or(0).max(1);
        let slots = threshold as usize;
        let rows = weights_len.div_ceil(compartments);
        let words = compartments.div_ceil(64);
        let shifts = filters.iter().map(|f| 2 * f.width.blocks()).max().unwrap_or(0);
        let mut planes = vec![0u64; filters.len() * rows * shifts * 2 * words];
        let mut row_has_bits = vec![false; filters.len() * rows];
        let mut pruned_cells = 0u64;
        let mut cell_writes = 0u64;
        for (f, filter) in filters.iter().enumerate() {
            for (j, weight) in filter.weights.iter().enumerate() {
                let c = j % compartments;
                let r = j / compartments;
                if weight.stored() == 0 {
                    // A value-pruned weight: its φ_th slots are allocated but
                    // never written.
                    pruned_cells += u64::from(filter.threshold);
                }
                for block in weight.slots.iter().flatten() {
                    let k = 2 * usize::from(block.db_index) + usize::from(block.high);
                    let sign = usize::from(matches!(block.sign, Sign::Negative));
                    let idx = (((f * rows + r) * shifts + k) * 2 + sign) * words + c / 64;
                    planes[idx] |= 1u64 << (c % 64);
                    row_has_bits[f * rows + r] = true;
                    cell_writes += 1;
                }
            }
        }
        self.tile = LoadedTile::Sparse(SparsePlanes {
            filters: filters.len(),
            weights_len,
            slots,
            shifts,
            rows,
            words,
            planes,
            cell_writes,
            row_has_bits,
            pruned_cells,
        });
        cell_writes
    }

    /// Packs a validated dense tile into weight-bit planes (same weight →
    /// compartment/row mapping as the sparse load, columns `f·bits + b`).
    fn load_dense_planes(&mut self, filters: &[Vec<i32>], width: OperandWidth) -> u64 {
        let compartments = self.config.compartments_per_macro;
        let weight_bits = width.bits() as usize;
        let weights_len = filters.first().map_or(0, |f| f.len());
        let rows = weights_len.div_ceil(compartments);
        let words = compartments.div_ceil(64);
        let mut planes = vec![0u64; filters.len() * rows * weight_bits * words];
        for (f, filter) in filters.iter().enumerate() {
            for (j, &w) in filter.iter().enumerate() {
                let c = j % compartments;
                let r = j / compartments;
                for b in 0..weight_bits {
                    if (w as u32 >> b) & 1 == 1 {
                        let idx = ((f * rows + r) * weight_bits + b) * words + c / 64;
                        planes[idx] |= 1u64 << (c % 64);
                    }
                }
            }
        }
        // Every bit-cell of every weight is written, set or not.
        let cell_writes = (filters.len() * weights_len * weight_bits) as u64;
        self.tile = LoadedTile::Dense(DensePlanes {
            filters: filters.len(),
            weights_len,
            weight_bits,
            rows,
            words,
            planes,
            cell_writes,
        });
        cell_writes
    }

    /// The word-packed compute phase. Bit-serial over the IPU-selected
    /// columns, row by row, exactly like the scalar reference — but each
    /// `(filter, column)` reduction is a handful of AND + popcount words.
    fn execute_planes(&self, inputs: &[i8], ipu: &InputPreprocessor) -> TileExecution {
        let compartments = self.config.compartments_per_macro;
        let tree = CsdAdderTree;
        let mut stats = MacroComputeStats::default();
        let filter_count = match &self.tile {
            LoadedTile::None => 0,
            LoadedTile::Sparse(t) => t.filters,
            LoadedTile::Dense(t) => t.filters,
        };
        let mut ppus: Vec<PostProcessingUnit> = vec![PostProcessingUnit::new(); filter_count];
        let mut packed = PackedColumns::new();
        let rows_used = inputs.len().div_ceil(compartments);
        for row in 0..rows_used {
            let start = row * compartments;
            let end = (start + compartments).min(inputs.len());
            let group = &inputs[start..end];
            ipu.process_packed(group, &mut packed);
            stats.skipped_columns += packed.skipped_columns() as u64;
            for col in 0..packed.len() {
                stats.compute_cycles += 1;
                let mask = packed.mask(col);
                let position = packed.position(col);
                match &self.tile {
                    LoadedTile::None => {}
                    LoadedTile::Sparse(t) => {
                        let per_filter = t.shifts * 2 * t.words;
                        for (f, ppu) in ppus.iter_mut().enumerate() {
                            // A (filter, row) segment with no stored bits —
                            // e.g. a fully value-pruned stretch of weights —
                            // contributes exactly zero: elide the word
                            // reductions and the PPU update, charging the
                            // same counters the issued cycle would.
                            stats.cell_reads += (group.len() * t.slots) as u64;
                            stats.adder_reductions += 1;
                            stats.ppu_operations += 1;
                            if !t.row_has_bits[f * t.rows + row] {
                                continue;
                            }
                            let base = (f * t.rows + row) * per_filter;
                            let (partial, effective) = tree.reduce_planes(
                                mask,
                                &t.planes[base..base + per_filter],
                                t.words,
                            );
                            stats.effective_cell_ops += effective;
                            ppu.accumulate_bit(partial, position);
                        }
                    }
                    LoadedTile::Dense(t) => {
                        let per_filter = t.weight_bits * t.words;
                        for (f, ppu) in ppus.iter_mut().enumerate() {
                            let base = (f * t.rows + row) * per_filter;
                            let (partial, effective) = tree.reduce_dense_planes(
                                mask,
                                &t.planes[base..base + per_filter],
                                t.words,
                            );
                            stats.cell_reads += (group.len() * t.weight_bits) as u64;
                            stats.effective_cell_ops += effective;
                            stats.adder_reductions += 1;
                            ppu.accumulate_bit(partial, position);
                            stats.ppu_operations += 1;
                        }
                    }
                }
            }
        }
        let outputs = ppus.iter_mut().map(PostProcessingUnit::drain).collect();
        TileExecution { outputs, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbpim_fta::{FilterApprox, QueryTables};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn reference_dot<T: Into<i64> + Copy>(weights: &[T], inputs: &[i8]) -> i64 {
        weights.iter().zip(inputs).map(|(&w, &x)| w.into() * i64::from(x)).sum()
    }

    /// `count` filters of `len` random INT8 weights, held as `i32`.
    fn int8_filters(rng: &mut ChaCha8Rng, count: usize, len: usize) -> Vec<Vec<i32>> {
        (0..count).map(|_| (0..len).map(|_| i32::from(rng.gen::<i8>())).collect()).collect()
    }

    fn metadata_for(weights: &[i8], threshold: u32) -> FilterMetadata {
        let tables = QueryTables::for_width(OperandWidth::Int8);
        let approx = FilterApprox::approximate_with_threshold(weights, threshold, &tables).unwrap();
        // The inputs to the macro are the *approximated* weights, so build the
        // metadata from values that are already representable.
        FilterMetadata::from_filter(0, &approx)
    }

    #[test]
    fn sparse_tile_matches_reference_dot_product() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let tables = QueryTables::for_width(OperandWidth::Int8);
        for trial in 0..8 {
            let len = 24 + trial;
            let raw: Vec<i8> = (0..len).map(|_| rng.gen()).collect();
            let inputs: Vec<i8> = (0..len).map(|_| rng.gen()).collect();
            let approx = FilterApprox::approximate(&raw, &tables).unwrap();
            let meta = FilterMetadata::from_filter(0, &approx);
            let mut pim = PimMacro::new(ArchConfig::paper()).unwrap();
            let exec =
                pim.execute_sparse_tile(&[meta], &inputs, &InputPreprocessor::new()).unwrap();
            assert_eq!(exec.outputs.len(), 1);
            assert_eq!(exec.outputs[0], reference_dot(approx.values(), &inputs), "trial {trial}");
        }
    }

    #[test]
    fn multiple_filters_compute_in_parallel() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let tables = QueryTables::for_width(OperandWidth::Int8);
        let len = 40usize;
        let inputs: Vec<i8> = (0..len).map(|_| rng.gen()).collect();
        let mut metas = Vec::new();
        let mut approxes = Vec::new();
        for _ in 0..8 {
            let raw: Vec<i8> = (0..len).map(|_| rng.gen()).collect();
            let approx = FilterApprox::approximate_with_threshold(&raw, 2, &tables).unwrap();
            metas.push(FilterMetadata::from_filter(0, &approx));
            approxes.push(approx);
        }
        let mut pim = PimMacro::new(ArchConfig::paper()).unwrap();
        let exec = pim.execute_sparse_tile(&metas, &inputs, &InputPreprocessor::new()).unwrap();
        for (out, approx) in exec.outputs.iter().zip(&approxes) {
            assert_eq!(*out, reference_dot(approx.values(), &inputs));
        }
        assert!(exec.stats.compute_cycles > 0);
        assert!(exec.stats.dynamic_utilization() <= 1.0);
    }

    #[test]
    fn load_once_execute_many_matches_monolithic_execution() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let len = 48usize;
        let metas: Vec<FilterMetadata> = (0..4)
            .map(|_| {
                let raw: Vec<i8> = (0..len).map(|_| rng.gen()).collect();
                metadata_for(&raw, 2)
            })
            .collect();
        let mut loaded = PimMacro::new(ArchConfig::paper()).unwrap();
        let writes = loaded.load_sparse_tile(&metas).unwrap();
        assert!(writes > 0);
        for _ in 0..3 {
            let inputs: Vec<i8> = (0..len).map(|_| rng.gen()).collect();
            let split = loaded.execute_loaded(&inputs, &InputPreprocessor::new()).unwrap();
            let mut fresh = PimMacro::new(ArchConfig::paper()).unwrap();
            let mono =
                fresh.execute_sparse_tile(&metas, &inputs, &InputPreprocessor::new()).unwrap();
            assert_eq!(split.outputs, mono.outputs);
            // The split execution pays no write cost; everything else matches.
            assert_eq!(split.stats.cell_writes, 0);
            assert_eq!(writes, mono.stats.cell_writes);
            let mut adjusted = split.stats;
            adjusted.cell_writes = mono.stats.cell_writes;
            assert_eq!(adjusted, mono.stats);
        }
    }

    #[test]
    fn execute_without_load_and_mismatched_inputs_error() {
        let pim = PimMacro::new(ArchConfig::paper()).unwrap();
        assert_eq!(
            pim.execute_loaded(&[1i8, 2], &InputPreprocessor::new()),
            Err(ArchError::NoTileLoaded)
        );
        let mut pim = PimMacro::new(ArchConfig::paper()).unwrap();
        pim.load_sparse_tile(&[metadata_for(&[1, 2, 3], 1)]).unwrap();
        assert!(matches!(
            pim.execute_loaded(&[1i8, 2], &InputPreprocessor::new()),
            Err(ArchError::LengthMismatch { .. })
        ));
        pim.reset();
        assert_eq!(
            pim.execute_loaded(&[1i8, 2, 3], &InputPreprocessor::new()),
            Err(ArchError::NoTileLoaded)
        );
        // Filters disagreeing on weight count are rejected at load time.
        let mut pim = PimMacro::new(ArchConfig::paper()).unwrap();
        assert!(matches!(
            pim.load_sparse_tile(&[metadata_for(&[1, 2, 3], 1), metadata_for(&[1, 2], 1)]),
            Err(ArchError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn dense_load_execute_split_matches_monolithic_execution() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let len = 37usize;
        let filters = int8_filters(&mut rng, 2, len);
        let inputs: Vec<i8> = (0..len).map(|_| rng.gen()).collect();
        let no_skip = InputPreprocessor::without_sparsity();
        let mut loaded = PimMacro::new(ArchConfig::paper()).unwrap();
        let writes = loaded.load_dense_tile_for_width(&filters, OperandWidth::Int8).unwrap();
        let split = loaded.execute_loaded(&inputs, &no_skip).unwrap();
        let mut fresh = PimMacro::new(ArchConfig::paper()).unwrap();
        let mono = fresh
            .execute_dense_tile_for_width(&filters, &inputs, &no_skip, OperandWidth::Int8)
            .unwrap();
        assert_eq!(split.outputs, mono.outputs);
        assert_eq!(writes, mono.stats.cell_writes);
    }

    #[test]
    fn dense_tile_matches_reference_dot_product() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let len = 33usize;
        let inputs: Vec<i8> = (0..len).map(|_| rng.gen()).collect();
        let filters = int8_filters(&mut rng, 2, len);
        let no_skip = InputPreprocessor::without_sparsity();
        let mut pim = PimMacro::new(ArchConfig::paper()).unwrap();
        let exec = pim
            .execute_dense_tile_for_width(&filters, &inputs, &no_skip, OperandWidth::Int8)
            .unwrap();
        for (out, filter) in exec.outputs.iter().zip(&filters) {
            assert_eq!(*out, reference_dot(filter, &inputs));
        }
    }

    #[test]
    fn wide_dense_tiles_match_reference_dot_products() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let len = 29usize;
        let inputs: Vec<i8> = (0..len).map(|_| rng.gen()).collect();
        for width in OperandWidth::all() {
            let filters_per_macro = (ArchConfig::paper().dbmus_per_compartment
                / width.bits() as usize)
                .min(ArchConfig::paper().dense_filters_per_macro);
            let filters: Vec<Vec<i32>> = (0..filters_per_macro)
                .map(|_| {
                    (0..len).map(|_| rng.gen_range(width.min_value()..=width.max_value())).collect()
                })
                .collect();
            let mut pim = PimMacro::new(ArchConfig::paper()).unwrap();
            let exec = pim
                .execute_dense_tile_for_width(
                    &filters,
                    &inputs,
                    &InputPreprocessor::without_sparsity(),
                    width,
                )
                .unwrap();
            for (out, filter) in exec.outputs.iter().zip(&filters) {
                assert_eq!(*out, reference_dot(filter, &inputs), "{width}");
            }
        }
        // Two INT16 filters exceed the 16 DBMU columns of a compartment.
        let mut pim = PimMacro::new(ArchConfig::paper()).unwrap();
        let too_many = vec![vec![1i32; 4]; 2];
        assert!(matches!(
            pim.execute_dense_tile_for_width(
                &too_many,
                &[1i8; 4],
                &InputPreprocessor::new(),
                OperandWidth::Int16,
            ),
            Err(ArchError::CapacityExceeded { resource: "weight bit columns", .. })
        ));
        // Out-of-range weights are rejected instead of silently truncated
        // (8 would read back as -8 from four bit-cells).
        for value in [8i32, -9] {
            assert_eq!(
                pim.execute_dense_tile_for_width(
                    &[vec![value]],
                    &[1i8],
                    &InputPreprocessor::new(),
                    OperandWidth::Int4,
                ),
                Err(ArchError::OperandOutOfRange { value, bits: 4 })
            );
        }
    }

    #[test]
    fn input_sparsity_reduces_cycles_without_changing_results() {
        let tables = QueryTables::for_width(OperandWidth::Int8);
        let len = 32usize;
        // Small non-negative activations: high-order bit columns are all zero.
        let inputs: Vec<i8> = (0..len).map(|i| (i % 4) as i8).collect();
        let raw: Vec<i8> = (0..len).map(|i| ((i * 37) % 120) as i8 - 60).collect();
        let approx = FilterApprox::approximate(&raw, &tables).unwrap();
        let meta = FilterMetadata::from_filter(0, &approx);

        let mut pim = PimMacro::new(ArchConfig::paper()).unwrap();
        let dense_front = pim
            .execute_sparse_tile(
                std::slice::from_ref(&meta),
                &inputs,
                &InputPreprocessor::without_sparsity(),
            )
            .unwrap();
        let mut pim2 = PimMacro::new(ArchConfig::paper()).unwrap();
        let sparse_front =
            pim2.execute_sparse_tile(&[meta], &inputs, &InputPreprocessor::new()).unwrap();
        assert_eq!(dense_front.outputs, sparse_front.outputs);
        assert!(sparse_front.stats.compute_cycles < dense_front.stats.compute_cycles);
        assert!(sparse_front.stats.skipped_columns > 0);
    }

    #[test]
    fn sparse_utilization_exceeds_dense_utilization() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let len = 64usize;
        let inputs: Vec<i8> = (0..len).map(|_| rng.gen_range(0i8..=63)).collect();
        let raw: Vec<i8> = (0..len).map(|_| rng.gen()).collect();
        let meta = metadata_for(&raw, 2);

        let mut pim = PimMacro::new(ArchConfig::paper()).unwrap();
        let sparse = pim
            .execute_sparse_tile(&[meta], &inputs, &InputPreprocessor::without_sparsity())
            .unwrap();
        let mut pim2 = PimMacro::new(ArchConfig::paper()).unwrap();
        let dense = pim2
            .execute_dense_tile_for_width(
                &[raw.iter().map(|&w| i32::from(w)).collect()],
                &inputs,
                &InputPreprocessor::without_sparsity(),
                OperandWidth::Int8,
            )
            .unwrap();
        assert!(
            sparse.stats.dynamic_utilization() > dense.stats.dynamic_utilization(),
            "sparse {} vs dense {}",
            sparse.stats.dynamic_utilization(),
            dense.stats.dynamic_utilization()
        );
    }

    #[test]
    fn capacity_violations_are_reported() {
        let tables = QueryTables::for_width(OperandWidth::Int8);
        let mut pim = PimMacro::new(ArchConfig::paper()).unwrap();
        // Too many filters at threshold 2 (max 8).
        let weights: Vec<i8> = (0..16).map(|i| i as i8 + 1).collect();
        let approx = FilterApprox::approximate_with_threshold(&weights, 2, &tables).unwrap();
        let meta = FilterMetadata::from_filter(0, &approx);
        let metas = vec![meta; 9];
        let inputs = vec![1i8; 16];
        assert!(matches!(
            pim.execute_sparse_tile(&metas, &inputs, &InputPreprocessor::new()),
            Err(ArchError::CapacityExceeded { .. })
        ));
        // Too many weights per filter.
        let long: Vec<i8> = vec![1; 2000];
        let approx = FilterApprox::approximate_with_threshold(&long, 1, &tables).unwrap();
        let meta = FilterMetadata::from_filter(0, &approx);
        assert!(pim
            .execute_sparse_tile(&[meta], &vec![1i8; 2000], &InputPreprocessor::new())
            .is_err());
        // Dense: more than two filters.
        let filters = vec![vec![1; 8]; 3];
        let ipu = InputPreprocessor::new();
        assert!(pim
            .execute_dense_tile_for_width(&filters, &[1; 8], &ipu, OperandWidth::Int8)
            .is_err());
        // Mismatched lengths.
        let approx = FilterApprox::approximate_with_threshold(&[1, 2, 3], 1, &tables).unwrap();
        let meta = FilterMetadata::from_filter(0, &approx);
        assert!(matches!(
            pim.execute_sparse_tile(&[meta], &[1, 2], &InputPreprocessor::new()),
            Err(ArchError::LengthMismatch { .. })
        ));
    }
}
