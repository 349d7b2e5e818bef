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
//! The model is cell-level: one [`Dbmu`] per `(compartment, column)`, a
//! metadata register file holding each occupied cell's [`CellMeta`], and
//! every cell's LPU evaluated and reduced through the [`CsdAdderTree`] one
//! operand at a time, as the hardware does. Loading is split from execution
//! ([`PimMacro::load_sparse_tile`] / [`PimMacro::execute_loaded`]) so
//! callers multiplying one weight tile against many input vectors do not
//! re-write identical weights per tile.

use dbpim_csd::OperandWidth;
use dbpim_fta::metadata::FilterMetadata;
use serde::{Deserialize, Serialize};

use crate::adder_tree::{CellMeta, CsdAdderTree};
use crate::config::ArchConfig;
use crate::dbmu::Dbmu;
use crate::error::ArchError;
use crate::ipu::InputPreprocessor;
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

/// How the tile currently held by the macro's storage array is laid out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum TileLayout {
    /// A DB-PIM tile: `slots` (`φ_th` of the tile) DBMU columns per filter,
    /// charged per cell read whether or not a slot is occupied.
    Sparse { slots: usize, filters: usize, weights_len: usize },
    /// A dense-baseline tile: one DBMU column per weight bit.
    Dense { weight_bits: usize, filters: usize, weights_len: usize },
}

/// The bit-accurate PIM macro model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PimMacro {
    config: ArchConfig,
    /// The cell array: `dbmus[compartment][column]`.
    dbmus: Vec<Vec<Dbmu>>,
    /// Metadata register file: `meta[compartment][column][row]`.
    meta: Vec<Vec<Vec<Option<CellMeta>>>>,
    loaded: Option<TileLayout>,
}

impl PimMacro {
    /// Creates an empty macro with the given geometry.
    ///
    /// # Errors
    ///
    /// Returns a validation error for a degenerate configuration.
    pub fn new(config: ArchConfig) -> Result<Self, ArchError> {
        config.validate()?;
        let columns = config.dbmus_per_compartment;
        let rows = config.rows_per_dbmu;
        let dbmus = vec![vec![Dbmu::new(rows); columns]; config.compartments_per_macro];
        let meta = vec![vec![vec![None; rows]; columns]; config.compartments_per_macro];
        Ok(Self { config, dbmus, meta, loaded: None })
    }

    /// The macro's geometry.
    #[must_use]
    pub fn config(&self) -> &ArchConfig {
        &self.config
    }

    /// Clears every cell and its metadata.
    pub fn reset(&mut self) {
        for dbmu in self.dbmus.iter_mut().flatten() {
            dbmu.reset();
        }
        for column in self.meta.iter_mut().flatten() {
            column.fill(None);
        }
        self.loaded = None;
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
        self.load_sparse_cells(filters)
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
        self.load_dense_cells(filters, width)
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
        let Some(tile) = self.loaded else { return Err(ArchError::NoTileLoaded) };
        let (TileLayout::Sparse { filters, weights_len, .. }
        | TileLayout::Dense { filters, weights_len, .. }) = tile;
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
        self.execute_cells(tile, inputs, ipu)
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
        let writes = self.load_sparse_cells(filters)?;
        self.execute_written(writes, inputs, ipu)
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
        let writes = self.load_dense_cells(filters, width)?;
        self.execute_written(writes, inputs, ipu)
    }

    /// Executes the tile a one-call entry point just wrote, charging its
    /// `writes`.
    fn execute_written(
        &self,
        writes: u64,
        inputs: &[i8],
        ipu: &InputPreprocessor,
    ) -> Result<TileExecution, ArchError> {
        let tile = self.loaded.expect("tile was just loaded");
        let mut exec = self.execute_cells(tile, inputs, ipu)?;
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

    /// Writes a validated sparse tile cell by cell: weight `j` of filter `f`
    /// goes to compartment `j mod C`, row `j div C`, columns
    /// `[f·slots, f·slots + slots)`. Returns the word-line writes.
    fn load_sparse_cells(&mut self, filters: &[FilterMetadata]) -> Result<u64, ArchError> {
        self.reset();
        let compartments = self.config.compartments_per_macro;
        let threshold = filters.iter().map(|f| f.threshold).max().unwrap_or(0).max(1);
        let slots = threshold as usize;
        let weights_len = filters.first().map_or(0, |f| f.weights.len());
        let mut cell_writes = 0u64;
        for (f, filter) in filters.iter().enumerate() {
            for (j, weight) in filter.weights.iter().enumerate() {
                let compartment = j % compartments;
                let row = j / compartments;
                for (s, slot) in weight.slots.iter().enumerate() {
                    let column = f * slots + s;
                    let dbmu = &mut self.dbmus[compartment][column];
                    if let Some(block) = slot {
                        dbmu.write_row(row, block.high)?;
                        self.meta[compartment][column][row] =
                            Some(CellMeta::new(block.db_index, block.sign));
                        cell_writes += 1;
                    } else {
                        dbmu.clear_row(row)?;
                        self.meta[compartment][column][row] = None;
                    }
                }
            }
        }
        self.loaded = Some(TileLayout::Sparse { slots, filters: filters.len(), weights_len });
        Ok(cell_writes)
    }

    /// Writes a validated dense tile: bit `b` of weight `j` of filter `f`
    /// goes to compartment `j mod C`, row `j div C`, column `f·bits + b`.
    /// The low `width.bits()` bits of the two's-complement value are exact
    /// for any in-range weight, and every bit-cell is written, set or not.
    fn load_dense_cells(
        &mut self,
        filters: &[Vec<i32>],
        width: OperandWidth,
    ) -> Result<u64, ArchError> {
        self.reset();
        let compartments = self.config.compartments_per_macro;
        let weight_bits = width.bits() as usize;
        let weights_len = filters.first().map_or(0, Vec::len);
        let mut cell_writes = 0u64;
        for (f, filter) in filters.iter().enumerate() {
            for (j, &w) in filter.iter().enumerate() {
                let compartment = j % compartments;
                let row = j / compartments;
                for b in 0..weight_bits {
                    let bit = (w as u32 >> b) & 1 == 1;
                    self.dbmus[compartment][f * weight_bits + b].write_row(row, bit)?;
                    cell_writes += 1;
                }
            }
        }
        self.loaded = Some(TileLayout::Dense { weight_bits, filters: filters.len(), weights_len });
        Ok(cell_writes)
    }

    /// The compute phase: bit-serial over the IPU-selected columns, row by
    /// row, every cell's LPU evaluated and reduced through the CSD adder
    /// tree (`cell_writes` left at zero for the caller to fill in).
    fn execute_cells(
        &self,
        tile: TileLayout,
        inputs: &[i8],
        ipu: &InputPreprocessor,
    ) -> Result<TileExecution, ArchError> {
        let mut stats = MacroComputeStats::default();
        let compartments = self.config.compartments_per_macro;
        let tree = CsdAdderTree;
        let (TileLayout::Sparse { filters, .. } | TileLayout::Dense { filters, .. }) = tile;
        let mut ppus = vec![PostProcessingUnit::new(); filters];
        for (row, group) in inputs.chunks(compartments).enumerate() {
            let ipu_result = ipu.process(group);
            stats.skipped_columns += ipu_result.skipped_columns as u64;
            for column_bits in &ipu_result.columns {
                stats.compute_cycles += 1;
                for (f, ppu) in ppus.iter_mut().enumerate() {
                    let partial = match tile {
                        TileLayout::Sparse { slots, .. } => {
                            let mut operands = Vec::with_capacity(group.len() * slots);
                            for (c, &input_bit) in column_bits.bits.iter().enumerate() {
                                for column in f * slots..(f + 1) * slots {
                                    let out = self.dbmus[c][column].compute(row, input_bit)?;
                                    let meta = self.meta[c][column][row];
                                    stats.cell_reads += 1;
                                    if meta.is_some() && out.block_magnitude() != 0 {
                                        stats.effective_cell_ops += 1;
                                    }
                                    operands.push((out, meta));
                                }
                            }
                            tree.reduce(&operands).0
                        }
                        TileLayout::Dense { weight_bits, .. } => {
                            let mut partial = 0i32;
                            for b in 0..weight_bits {
                                let column = f * weight_bits + b;
                                let mut products = Vec::with_capacity(group.len());
                                for (c, &input_bit) in column_bits.bits.iter().enumerate() {
                                    // In dense mode the stored bit is the
                                    // cell's Q node.
                                    let out = self.dbmus[c][column].compute(row, input_bit)?;
                                    stats.cell_reads += 1;
                                    if out.o_q {
                                        stats.effective_cell_ops += 1;
                                    }
                                    products.push(out.o_q);
                                }
                                let signed_msb = b == weight_bits - 1;
                                partial += tree.reduce_dense(&products, b as u32, signed_msb).0;
                            }
                            partial
                        }
                    };
                    stats.adder_reductions += 1;
                    ppu.accumulate_bit(partial, column_bits.position);
                    stats.ppu_operations += 1;
                }
            }
        }
        let outputs = ppus.iter_mut().map(PostProcessingUnit::drain).collect();
        Ok(TileExecution { outputs, stats })
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
            assert!(exec.stats.cell_writes > 0);
        }
    }

    #[test]
    fn patterned_sparse_tile_matches_reference_dot_product() {
        let tables = QueryTables::for_width(OperandWidth::Int8);
        let raw: Vec<i8> = (0..48).map(|i| ((i * 29) % 160) as i8).collect();
        let inputs: Vec<i8> = (0..48).map(|i| ((i * 13) % 100) as i8 - 50).collect();
        let approx = FilterApprox::approximate(&raw, &tables).unwrap();
        let meta = FilterMetadata::from_filter(0, &approx);
        let mut pim = PimMacro::new(ArchConfig::paper()).unwrap();
        let exec = pim.execute_sparse_tile(&[meta], &inputs, &InputPreprocessor::new()).unwrap();
        assert_eq!(exec.outputs[0], reference_dot(approx.values(), &inputs));
        assert!(exec.stats.cell_writes > 0);
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
    fn split_matches_monolithic_and_guards_load_state() {
        let tables = QueryTables::for_width(OperandWidth::Int8);
        let raw: Vec<i8> = (0..20).map(|i| (i * 11) as i8).collect();
        let inputs: Vec<i8> = (0..20).map(|i| (i * 3 % 50) as i8).collect();
        let approx = FilterApprox::approximate(&raw, &tables).unwrap();
        let meta = FilterMetadata::from_filter(0, &approx);

        let mut pim = PimMacro::new(ArchConfig::paper()).unwrap();
        assert_eq!(
            pim.execute_loaded(&inputs, &InputPreprocessor::new()),
            Err(ArchError::NoTileLoaded)
        );
        let writes = pim.load_sparse_tile(std::slice::from_ref(&meta)).unwrap();
        let split = pim.execute_loaded(&inputs, &InputPreprocessor::new()).unwrap();
        let mut fresh = PimMacro::new(ArchConfig::paper()).unwrap();
        let mono = fresh.execute_sparse_tile(&[meta], &inputs, &InputPreprocessor::new()).unwrap();
        assert_eq!(split.outputs, mono.outputs);
        assert_eq!(split.stats.cell_writes, 0);
        assert_eq!(writes, mono.stats.cell_writes);
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
    fn patterned_dense_tile_matches_reference_dot_product() {
        let inputs: Vec<i8> = (0..33).map(|i| (i * 5 % 90) as i8 - 45).collect();
        let filters: Vec<Vec<i32>> = (0..2)
            .map(|f| (0..33).map(|i| i32::from(((i + f * 7) * 17 % 256) as i8)).collect())
            .collect();
        let mut pim = PimMacro::new(ArchConfig::paper()).unwrap();
        let exec = pim
            .execute_dense_tile_for_width(
                &filters,
                &inputs,
                &InputPreprocessor::without_sparsity(),
                OperandWidth::Int8,
            )
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
