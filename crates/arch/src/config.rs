//! Architecture geometry and clocking parameters.
//!
//! The defaults reproduce Section 4.1 of the paper: four 16 Kb PIM macros at
//! 500 MHz in 28 nm, a 128 KB feature buffer, 16 KB instruction buffer, 32 KB
//! weight buffer, 96 KB meta buffer and four 6 KB metadata register files.

use dbpim_csd::OperandWidth;
use serde::{Deserialize, Serialize};

use crate::error::ArchError;

/// Bit width of the paper's 8b/8b evaluation. Input features are always
/// streamed at this width; weight widths vary per [`OperandWidth`].
pub const OPERAND_BITS: usize = OperandWidth::Int8.bits() as usize;

/// Geometry and clocking of the DB-PIM accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArchConfig {
    /// Number of PIM macros in the PIM core.
    pub macros: usize,
    /// Compartments per macro; each compartment receives one broadcast input
    /// feature per cycle.
    pub compartments_per_macro: usize,
    /// DBMU columns per compartment; filters share these columns
    /// (`φ_th` cells per filter and compartment).
    pub dbmus_per_compartment: usize,
    /// Weight rows per DBMU (word lines).
    pub rows_per_dbmu: usize,
    /// Clock frequency in MHz.
    pub frequency_mhz: f64,
    /// Feature (activation) buffer capacity in bytes.
    pub feature_buffer_bytes: usize,
    /// Weight buffer capacity in bytes.
    pub weight_buffer_bytes: usize,
    /// Metadata buffer capacity in bytes.
    pub meta_buffer_bytes: usize,
    /// Instruction buffer capacity in bytes.
    pub instruction_buffer_bytes: usize,
    /// Metadata register-file capacity per macro in bytes.
    pub meta_rf_bytes: usize,
    /// Output register-file capacity in bytes.
    pub output_rf_bytes: usize,
    /// Number of filters the dense baseline processes per macro (8-bit cells
    /// per weight leave room for only two filters plus two post-processing
    /// units, as in the reference design the paper extends).
    pub dense_filters_per_macro: usize,
}

impl ArchConfig {
    /// The paper's configuration (Section 4.1).
    #[must_use]
    pub fn paper() -> Self {
        Self {
            macros: 4,
            compartments_per_macro: 16,
            dbmus_per_compartment: 16,
            rows_per_dbmu: 64,
            frequency_mhz: 500.0,
            feature_buffer_bytes: 128 * 1024,
            weight_buffer_bytes: 32 * 1024,
            meta_buffer_bytes: 96 * 1024,
            instruction_buffer_bytes: 16 * 1024,
            meta_rf_bytes: 6 * 1024,
            output_rf_bytes: 2 * 1024 / 8,
            dense_filters_per_macro: 2,
        }
    }

    /// 6T cells per macro.
    #[must_use]
    pub fn cells_per_macro(&self) -> usize {
        self.compartments_per_macro * self.dbmus_per_compartment * self.rows_per_dbmu
    }

    /// Macro storage capacity in kibibits (16 Kb for the paper's geometry).
    #[must_use]
    pub fn macro_kib(&self) -> f64 {
        self.cells_per_macro() as f64 / 1024.0
    }

    /// Total PIM storage across all macros, in bytes.
    #[must_use]
    pub fn pim_bytes(&self) -> usize {
        self.macros * self.cells_per_macro() / 8
    }

    /// Number of filters a macro processes in parallel for a filter threshold.
    ///
    /// Each filter occupies `φ_th` DBMU columns per compartment, so a macro
    /// fits `dbmus_per_compartment / φ_th` filters: 16 at `φ_th = 1`, 8 at
    /// `φ_th = 2`. Threshold-0 filters need no computation at all; by
    /// convention they report the full column count.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::UnsupportedThreshold`] when the threshold exceeds
    /// the number of DBMU columns.
    pub fn filters_per_macro(&self, threshold: u32) -> Result<usize, ArchError> {
        if threshold == 0 {
            return Ok(self.dbmus_per_compartment);
        }
        if threshold as usize > self.dbmus_per_compartment {
            return Err(ArchError::UnsupportedThreshold { threshold });
        }
        Ok(self.dbmus_per_compartment / threshold as usize)
    }

    /// Number of weights of one filter a fully loaded macro holds
    /// (`rows * compartments`).
    #[must_use]
    pub fn weights_per_filter_capacity(&self) -> usize {
        self.rows_per_dbmu * self.compartments_per_macro
    }

    /// Number of filters the *dense* baseline packs per macro at a weight
    /// width: the reference design's
    /// [`dense_filters_per_macro`](Self::dense_filters_per_macro), capped
    /// by how many `width.bits()`-column weights fit the compartment.
    ///
    /// At INT8 on the paper geometry this is the historical 2; INT12/INT16
    /// weights leave room for only one filter.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::CapacityExceeded`] when even a single weight's
    /// bit columns exceed the compartment.
    pub fn dense_filters_per_macro_for(&self, width: OperandWidth) -> Result<usize, ArchError> {
        let bits = width.bits() as usize;
        if bits > self.dbmus_per_compartment {
            return Err(ArchError::CapacityExceeded {
                resource: "weight bit columns",
                requested: bits,
                available: self.dbmus_per_compartment,
            });
        }
        Ok(self.dense_filters_per_macro.min(self.dbmus_per_compartment / bits))
    }

    /// [`validate`](Self::validate) plus the width check every compile
    /// makes: one dense weight's `width.bits()` columns must fit a
    /// compartment (see [`dense_filters_per_macro_for`]).
    ///
    /// [`dense_filters_per_macro_for`]: Self::dense_filters_per_macro_for
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate_for(&self, width: OperandWidth) -> Result<(), ArchError> {
        self.validate()?;
        self.dense_filters_per_macro_for(width).map(drop)
    }

    /// Clock period in nanoseconds.
    #[must_use]
    pub fn clock_period_ns(&self) -> f64 {
        1e3 / self.frequency_mhz
    }

    /// Total on-chip SRAM buffer capacity in bytes, the "SRAM Size" row of
    /// Table 3 (feature + weight + meta + instruction buffers; register files
    /// are reported separately).
    #[must_use]
    pub fn sram_bytes(&self) -> usize {
        self.feature_buffer_bytes
            + self.weight_buffer_bytes
            + self.meta_buffer_bytes
            + self.instruction_buffer_bytes
    }

    /// Total register-file capacity (metadata RFs of every macro plus the
    /// output RF) in bytes.
    #[must_use]
    pub fn register_file_bytes(&self) -> usize {
        self.macros * self.meta_rf_bytes + self.output_rf_bytes
    }

    /// Validates the configuration.
    ///
    /// Beyond rejecting zero structural parameters, every buffer must be
    /// large enough for a single tile of its stream — a geometry whose
    /// weight buffer cannot hold one `rows × compartments` weight tile (or
    /// whose feature buffer cannot hold one broadcast input vector, or whose
    /// meta buffer cannot hold one macro's worth of cell metadata) can never
    /// execute a layer, and rejecting it here gives sweeps and the serving
    /// layer a structured error instead of a mid-compile failure.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::CapacityExceeded`] naming the zero parameter, or
    /// [`ArchError::BufferOverflow`] naming the undersized buffer and the
    /// single-tile minimum it must hold.
    pub fn validate(&self) -> Result<(), ArchError> {
        let check = |value: usize, resource: &'static str| {
            if value == 0 {
                Err(ArchError::CapacityExceeded { resource, requested: 1, available: 0 })
            } else {
                Ok(())
            }
        };
        check(self.macros, "macros")?;
        check(self.compartments_per_macro, "compartments")?;
        check(self.dbmus_per_compartment, "dbmu columns")?;
        check(self.rows_per_dbmu, "rows")?;
        check(self.dense_filters_per_macro, "dense filters")?;
        if !(self.frequency_mhz > 0.0 && self.frequency_mhz.is_finite()) {
            return Err(ArchError::CapacityExceeded {
                resource: "frequency",
                requested: 1,
                available: 0,
            });
        }
        // Single-tile buffer floors. One weight tile is `rows × compartments`
        // weights at one byte each; one input vector broadcasts one byte per
        // compartment; one macro load carries at least one metadata bit per
        // allocated cell.
        let tile = |buffer: &'static str, capacity: usize, minimum: usize| {
            if capacity < minimum {
                Err(ArchError::BufferOverflow {
                    buffer: format!("{buffer} (single-tile minimum)"),
                    requested: minimum,
                    capacity,
                })
            } else {
                Ok(())
            }
        };
        tile("weight buffer", self.weight_buffer_bytes, self.weights_per_filter_capacity())?;
        tile("feature buffer", self.feature_buffer_bytes, self.compartments_per_macro)?;
        tile("meta buffer", self.meta_buffer_bytes, self.cells_per_macro().div_ceil(8))?;
        tile("instruction buffer", self.instruction_buffer_bytes, 1)?;
        tile("meta register file", self.meta_rf_bytes, 1)?;
        tile("output register file", self.output_rf_bytes, 1)?;
        Ok(())
    }
}

impl Default for ArchConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry_matches_section_4_1() {
        let cfg = ArchConfig::paper();
        assert_eq!(cfg.cells_per_macro(), 16 * 1024);
        assert!((cfg.macro_kib() - 16.0).abs() < f64::EPSILON);
        assert_eq!(cfg.pim_bytes(), 8 * 1024); // 8 KB "PIM size" in Table 3
        assert_eq!(cfg.filters_per_macro(1).unwrap(), 16);
        assert_eq!(cfg.filters_per_macro(2).unwrap(), 8);
        assert_eq!(cfg.filters_per_macro(0).unwrap(), 16);
        assert_eq!(cfg.weights_per_filter_capacity(), 1024);
        assert!((cfg.clock_period_ns() - 2.0).abs() < 1e-9);
        // 272 KB of SRAM buffers as reported in Table 3, plus 4 x 6 KB meta
        // RFs and a 2 Kb output RF.
        assert_eq!(cfg.sram_bytes(), 272 * 1024);
        assert_eq!(cfg.register_file_bytes(), 4 * 6 * 1024 + 256);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn dense_filters_scale_down_with_operand_width() {
        let cfg = ArchConfig::paper();
        assert_eq!(cfg.dense_filters_per_macro_for(OperandWidth::Int4).unwrap(), 2);
        assert_eq!(cfg.dense_filters_per_macro_for(OperandWidth::Int8).unwrap(), 2);
        assert_eq!(cfg.dense_filters_per_macro_for(OperandWidth::Int12).unwrap(), 1);
        assert_eq!(cfg.dense_filters_per_macro_for(OperandWidth::Int16).unwrap(), 1);
        let mut narrow = ArchConfig::paper();
        narrow.dbmus_per_compartment = 8;
        assert!(narrow.dense_filters_per_macro_for(OperandWidth::Int16).is_err());
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let mut cfg = ArchConfig::paper();
        cfg.macros = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = ArchConfig::paper();
        cfg.frequency_mhz = 0.0;
        assert!(cfg.validate().is_err());
        let mut cfg = ArchConfig::paper();
        cfg.frequency_mhz = f64::NAN;
        assert!(cfg.validate().is_err());
        let cfg = ArchConfig::paper();
        assert!(cfg.filters_per_macro(17).is_err());
    }

    #[test]
    fn zero_structural_parameters_are_each_rejected() {
        for mutate in [
            (|c: &mut ArchConfig| c.compartments_per_macro = 0) as fn(&mut ArchConfig),
            |c| c.dbmus_per_compartment = 0,
            |c| c.rows_per_dbmu = 0,
            |c| c.dense_filters_per_macro = 0,
        ] {
            let mut cfg = ArchConfig::paper();
            mutate(&mut cfg);
            let err = cfg.validate().unwrap_err();
            assert!(matches!(err, ArchError::CapacityExceeded { available: 0, .. }), "{err}");
        }
    }

    #[test]
    fn buffers_too_small_for_a_single_tile_are_rejected() {
        // A zero-sized buffer of any kind is unusable.
        for mutate in [
            (|c: &mut ArchConfig| c.feature_buffer_bytes = 0) as fn(&mut ArchConfig),
            |c| c.weight_buffer_bytes = 0,
            |c| c.meta_buffer_bytes = 0,
            |c| c.instruction_buffer_bytes = 0,
            |c| c.meta_rf_bytes = 0,
            |c| c.output_rf_bytes = 0,
        ] {
            let mut cfg = ArchConfig::paper();
            mutate(&mut cfg);
            let err = cfg.validate().unwrap_err();
            assert!(matches!(err, ArchError::BufferOverflow { .. }), "{err}");
        }

        // The weight buffer must hold one rows × compartments tile: 1024
        // bytes on the paper geometry.
        let mut cfg = ArchConfig::paper();
        cfg.weight_buffer_bytes = cfg.weights_per_filter_capacity() - 1;
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("weight buffer"), "{err}");
        cfg.weight_buffer_bytes = cfg.weights_per_filter_capacity();
        assert!(cfg.validate().is_ok(), "exactly one tile is acceptable");

        // The feature buffer must hold one broadcast input vector.
        let mut cfg = ArchConfig::paper();
        cfg.feature_buffer_bytes = cfg.compartments_per_macro - 1;
        assert!(cfg.validate().unwrap_err().to_string().contains("feature buffer"));

        // The meta buffer must hold one macro's worth of cell metadata.
        let mut cfg = ArchConfig::paper();
        cfg.meta_buffer_bytes = cfg.cells_per_macro() / 8 - 1;
        assert!(cfg.validate().unwrap_err().to_string().contains("meta buffer"));

        // Fewer than 8 cells per macro still needs a non-zero meta buffer
        // (the minimum rounds up, never down to zero).
        let mut cfg = ArchConfig::paper();
        cfg.compartments_per_macro = 1;
        cfg.dbmus_per_compartment = 1;
        cfg.rows_per_dbmu = 4;
        cfg.meta_buffer_bytes = 0;
        assert!(cfg.validate().unwrap_err().to_string().contains("meta buffer"));
        cfg.meta_buffer_bytes = 1;
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn default_is_the_paper_configuration() {
        assert_eq!(ArchConfig::default(), ArchConfig::paper());
    }
}
