//! Cell-at-a-time reference implementation of the PIM macro.
//!
//! This module preserves the original scalar macro model — one [`Dbmu`] per
//! `(compartment, column)`, a `meta` mirror of per-cell [`CellMeta`], every
//! cell touched individually through [`CsdAdderTree::reduce`] — as the
//! correctness oracle for the word-packed bit-plane kernels in
//! [`PimMacro`](crate::PimMacro). The differential suite
//! `tests/kernel_equivalence.rs` asserts outputs *and* every
//! [`MacroComputeStats`] counter identical between the two; the `bench_core`
//! harness times both to record the packed kernels' speedup.
//!
//! Compiled only under `cfg(any(test, feature = "scalar-reference"))` so the
//! production library carries no dead scalar path.

use dbpim_csd::OperandWidth;
use dbpim_fta::metadata::FilterMetadata;

use crate::adder_tree::{CellMeta, CsdAdderTree};
use crate::config::ArchConfig;
use crate::dbmu::Dbmu;
use crate::error::ArchError;
use crate::ipu::InputPreprocessor;
use crate::macro_unit::{MacroComputeStats, TileExecution};
use crate::ppu::PostProcessingUnit;

/// One compartment: a row of DBMU columns sharing the broadcast input.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Compartment {
    dbmus: Vec<Dbmu>,
}

impl Compartment {
    fn new(columns: usize, rows: usize) -> Self {
        Self { dbmus: (0..columns).map(|_| Dbmu::new(rows)).collect() }
    }
}

/// The tile currently loaded into the scalar array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScalarTile {
    Sparse {
        /// Column stride per filter (`φ_th` of the tile).
        slots: usize,
        filters: usize,
        weights_len: usize,
    },
    Dense {
        weight_bits: usize,
        filters: usize,
        weights_len: usize,
    },
}

/// The original cell-at-a-time PIM macro model, kept as the reference kernel
/// for the bit-plane implementation.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalarPimMacro {
    config: ArchConfig,
    compartments: Vec<Compartment>,
    /// Metadata mirror: `meta[compartment][column][row]`.
    meta: Vec<Vec<Vec<Option<CellMeta>>>>,
    loaded: Option<ScalarTile>,
}

impl ScalarPimMacro {
    /// Creates an empty macro with the given geometry.
    ///
    /// # Errors
    ///
    /// Returns a validation error for a degenerate configuration.
    pub fn new(config: ArchConfig) -> Result<Self, ArchError> {
        config.validate()?;
        let compartments = (0..config.compartments_per_macro)
            .map(|_| Compartment::new(config.dbmus_per_compartment, config.rows_per_dbmu))
            .collect();
        let meta = vec![
            vec![vec![None; config.rows_per_dbmu]; config.dbmus_per_compartment];
            config.compartments_per_macro
        ];
        Ok(Self { config, compartments, meta, loaded: None })
    }

    /// The macro's geometry.
    #[must_use]
    pub fn config(&self) -> &ArchConfig {
        &self.config
    }

    /// Clears every cell and its metadata.
    pub fn reset(&mut self) {
        for compartment in &mut self.compartments {
            for dbmu in &mut compartment.dbmus {
                dbmu.reset();
            }
        }
        for compartment in &mut self.meta {
            for column in compartment {
                column.fill(None);
            }
        }
        self.loaded = None;
    }

    /// Loads one sparse tile cell by cell, returning the word-line writes
    /// performed. Mirrors [`PimMacro::load_sparse_tile`](crate::PimMacro).
    ///
    /// # Errors
    ///
    /// As the bit-plane implementation: capacity and length violations.
    pub fn load_sparse_tile(&mut self, filters: &[FilterMetadata]) -> Result<u64, ArchError> {
        let weights_len = filters.first().map_or(0, |f| f.weights.len());
        self.validate_sparse(filters, weights_len, "tile weights")?;
        self.load_sparse_cells(filters)
    }

    /// Executes the currently loaded tile against one input vector
    /// (`cell_writes` reported as zero, as in the bit-plane split).
    ///
    /// # Errors
    ///
    /// * [`ArchError::NoTileLoaded`] when no tile has been loaded.
    /// * [`ArchError::CapacityExceeded`] / [`ArchError::LengthMismatch`]
    ///   when the input vector does not match the loaded tile.
    pub fn execute_loaded(
        &self,
        inputs: &[i8],
        ipu: &InputPreprocessor,
    ) -> Result<TileExecution, ArchError> {
        let Some(tile) = self.loaded else { return Err(ArchError::NoTileLoaded) };
        let (filters, weights_len) = match tile {
            ScalarTile::Sparse { filters, weights_len, .. }
            | ScalarTile::Dense { filters, weights_len, .. } => (filters, weights_len),
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
        self.execute_cells(tile, inputs, ipu)
    }

    /// Executes one DB-PIM (sparse) tile, cell by cell — the original
    /// monolithic entry point.
    ///
    /// # Errors
    ///
    /// As [`PimMacro::execute_sparse_tile`](crate::PimMacro).
    pub fn execute_sparse_tile(
        &mut self,
        filters: &[FilterMetadata],
        inputs: &[i8],
        ipu: &InputPreprocessor,
    ) -> Result<TileExecution, ArchError> {
        self.validate_sparse(filters, inputs.len(), "inputs")?;
        let writes = self.load_sparse_cells(filters)?;
        let tile = self.loaded.expect("tile was just loaded");
        let mut exec = self.execute_cells(tile, inputs, ipu)?;
        exec.stats.cell_writes = writes;
        Ok(exec)
    }

    /// Executes one dense-baseline tile at an arbitrary weight width, cell
    /// by cell.
    ///
    /// # Errors
    ///
    /// As [`PimMacro::execute_dense_tile_for_width`](crate::PimMacro).
    pub fn execute_dense_tile_for_width(
        &mut self,
        filters: &[Vec<i32>],
        inputs: &[i8],
        ipu: &InputPreprocessor,
        width: OperandWidth,
    ) -> Result<TileExecution, ArchError> {
        self.validate_dense(filters, inputs.len(), width, "inputs")?;
        let writes = self.load_dense_cells(filters, width)?;
        let tile = self.loaded.expect("tile was just loaded");
        let mut exec = self.execute_cells(tile, inputs, ipu)?;
        exec.stats.cell_writes = writes;
        Ok(exec)
    }

    /// Loads one dense-baseline tile cell by cell without executing it.
    ///
    /// # Errors
    ///
    /// As [`PimMacro::load_dense_tile_for_width`](crate::PimMacro).
    pub fn load_dense_tile_for_width(
        &mut self,
        filters: &[Vec<i32>],
        width: OperandWidth,
    ) -> Result<u64, ArchError> {
        let weights_len = filters.first().map_or(0, Vec::len);
        self.validate_dense(filters, weights_len, width, "tile weights")?;
        self.load_dense_cells(filters, width)
    }

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

    /// Load phase: weight j of filter f goes to compartment (j mod C),
    /// row (j div C), columns [f*slots, f*slots + slots).
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
                    if let Some(block) = slot {
                        self.compartments[compartment].dbmus[column].write_row(row, block.high)?;
                        self.meta[compartment][column][row] =
                            Some(CellMeta::new(block.db_index, block.sign));
                        cell_writes += 1;
                    } else {
                        self.compartments[compartment].dbmus[column].clear_row(row)?;
                        self.meta[compartment][column][row] = None;
                    }
                }
            }
        }
        self.loaded = Some(ScalarTile::Sparse { slots, filters: filters.len(), weights_len });
        Ok(cell_writes)
    }

    /// Dense load: weight bit b of weight j of filter f in compartment
    /// (j mod C), row (j div C), column f*bits + b. The low `width.bits()`
    /// bits of the two's-complement value are exact for any in-range weight.
    fn load_dense_cells(
        &mut self,
        filters: &[Vec<i32>],
        width: OperandWidth,
    ) -> Result<u64, ArchError> {
        self.reset();
        let compartments = self.config.compartments_per_macro;
        let weight_bits = width.bits() as usize;
        let weights_len = filters.first().map_or(0, |f| f.len());
        let mut cell_writes = 0u64;
        for (f, filter) in filters.iter().enumerate() {
            for (j, &w) in filter.iter().enumerate() {
                let compartment = j % compartments;
                let row = j / compartments;
                for b in 0..weight_bits {
                    let column = f * weight_bits + b;
                    let bit = (w as u32 >> b) & 1 == 1;
                    self.compartments[compartment].dbmus[column].write_row(row, bit)?;
                    cell_writes += 1;
                }
            }
        }
        self.loaded = Some(ScalarTile::Dense { weight_bits, filters: filters.len(), weights_len });
        Ok(cell_writes)
    }

    /// Compute phase: bit-serial over the IPU-selected columns, row by row,
    /// touching every cell individually (`cell_writes` left at zero for the
    /// caller to fill in).
    fn execute_cells(
        &self,
        tile: ScalarTile,
        inputs: &[i8],
        ipu: &InputPreprocessor,
    ) -> Result<TileExecution, ArchError> {
        let mut stats = MacroComputeStats::default();
        let compartments = self.config.compartments_per_macro;
        let tree = CsdAdderTree;
        let filter_count = match tile {
            ScalarTile::Sparse { filters, .. } | ScalarTile::Dense { filters, .. } => filters,
        };
        let mut ppus: Vec<PostProcessingUnit> = vec![PostProcessingUnit::new(); filter_count];
        let rows_used = inputs.len().div_ceil(compartments);
        for row in 0..rows_used {
            let start = row * compartments;
            let end = (start + compartments).min(inputs.len());
            let group = &inputs[start..end];
            let ipu_result = ipu.process(group);
            stats.skipped_columns += ipu_result.skipped_columns as u64;
            for column_bits in &ipu_result.columns {
                stats.compute_cycles += 1;
                match tile {
                    ScalarTile::Sparse { slots, .. } => {
                        for (f, ppu) in ppus.iter_mut().enumerate() {
                            let mut operands = Vec::with_capacity(group.len() * slots);
                            for (c, &input_bit) in column_bits.bits.iter().enumerate() {
                                for s in 0..slots {
                                    let column = f * slots + s;
                                    let out = self.compartments[c].dbmus[column]
                                        .compute(row, input_bit)?;
                                    let meta = self.meta[c][column][row];
                                    stats.cell_reads += 1;
                                    if meta.is_some() && out.block_magnitude() != 0 {
                                        stats.effective_cell_ops += 1;
                                    }
                                    operands.push((out, meta));
                                }
                            }
                            let (partial, _) = tree.reduce(&operands);
                            stats.adder_reductions += 1;
                            ppu.accumulate_bit(partial, column_bits.position);
                            stats.ppu_operations += 1;
                        }
                    }
                    ScalarTile::Dense { weight_bits, .. } => {
                        for (f, ppu) in ppus.iter_mut().enumerate() {
                            let mut partial = 0i32;
                            for b in 0..weight_bits {
                                let column = f * weight_bits + b;
                                let mut products = Vec::with_capacity(group.len());
                                for (c, &input_bit) in column_bits.bits.iter().enumerate() {
                                    // In dense mode the stored bit is the
                                    // cell's Q node.
                                    let out = self.compartments[c].dbmus[column]
                                        .compute(row, input_bit)?;
                                    stats.cell_reads += 1;
                                    if out.o_q {
                                        stats.effective_cell_ops += 1;
                                    }
                                    products.push(out.o_q);
                                }
                                let (reduced, _) =
                                    tree.reduce_dense(&products, b as u32, b == weight_bits - 1);
                                partial += reduced;
                            }
                            stats.adder_reductions += 1;
                            ppu.accumulate_bit(partial, column_bits.position);
                            stats.ppu_operations += 1;
                        }
                    }
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

    fn reference_dot<T: Into<i64> + Copy>(weights: &[T], inputs: &[i8]) -> i64 {
        weights.iter().zip(inputs).map(|(&w, &x)| w.into() * i64::from(x)).sum()
    }

    #[test]
    fn scalar_sparse_tile_matches_reference_dot_product() {
        let tables = QueryTables::for_width(OperandWidth::Int8);
        let raw: Vec<i8> = (0..48).map(|i| ((i * 29) % 160) as i8).collect();
        let inputs: Vec<i8> = (0..48).map(|i| ((i * 13) % 100) as i8 - 50).collect();
        let approx = FilterApprox::approximate(&raw, &tables).unwrap();
        let meta = FilterMetadata::from_filter(0, &approx);
        let mut pim = ScalarPimMacro::new(ArchConfig::paper()).unwrap();
        let exec = pim.execute_sparse_tile(&[meta], &inputs, &InputPreprocessor::new()).unwrap();
        assert_eq!(exec.outputs[0], reference_dot(approx.values(), &inputs));
        assert!(exec.stats.cell_writes > 0);
    }

    #[test]
    fn scalar_split_matches_monolithic_and_guards_load_state() {
        let tables = QueryTables::for_width(OperandWidth::Int8);
        let raw: Vec<i8> = (0..20).map(|i| (i * 11) as i8).collect();
        let inputs: Vec<i8> = (0..20).map(|i| (i * 3 % 50) as i8).collect();
        let approx = FilterApprox::approximate(&raw, &tables).unwrap();
        let meta = FilterMetadata::from_filter(0, &approx);

        let mut pim = ScalarPimMacro::new(ArchConfig::paper()).unwrap();
        assert_eq!(
            pim.execute_loaded(&inputs, &InputPreprocessor::new()),
            Err(ArchError::NoTileLoaded)
        );
        let writes = pim.load_sparse_tile(std::slice::from_ref(&meta)).unwrap();
        let split = pim.execute_loaded(&inputs, &InputPreprocessor::new()).unwrap();
        let mut fresh = ScalarPimMacro::new(ArchConfig::paper()).unwrap();
        let mono = fresh.execute_sparse_tile(&[meta], &inputs, &InputPreprocessor::new()).unwrap();
        assert_eq!(split.outputs, mono.outputs);
        assert_eq!(split.stats.cell_writes, 0);
        assert_eq!(writes, mono.stats.cell_writes);
    }

    #[test]
    fn scalar_dense_tile_matches_reference_dot_product() {
        let inputs: Vec<i8> = (0..33).map(|i| (i * 5 % 90) as i8 - 45).collect();
        let filters: Vec<Vec<i32>> = (0..2)
            .map(|f| (0..33).map(|i| i32::from(((i + f * 7) * 17 % 256) as i8)).collect())
            .collect();
        let mut pim = ScalarPimMacro::new(ArchConfig::paper()).unwrap();
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
}
