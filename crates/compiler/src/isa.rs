//! The DB-PIM instruction set and compiled program containers.
//!
//! Instructions are deliberately coarse-grained ("tile"-level): the top
//! controller of the paper dispatches whole weight-tile loads, input
//! broadcasts and macro computations, while the cycle-accurate simulator
//! expands each instruction into its cycle and energy cost using the
//! architecture geometry.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::workload::PimWorkload;

/// How a model's PIM layers are mapped onto the macros.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MappingMode {
    /// The DB-PIM mapping: Complementary Pattern blocks only, `φ_th` cells
    /// per weight, up to 16 filters per macro.
    DbPim,
    /// The dense digital-PIM baseline: eight bit-cells per weight, two
    /// filters per macro.
    Dense,
}

impl MappingMode {
    /// Short name used in reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            MappingMode::DbPim => "db-pim",
            MappingMode::Dense => "dense",
        }
    }
}

/// Element-wise operation classes executed by the SIMD core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SimdOpKind {
    /// Activation functions, batch-norm remnants, requantization.
    Elementwise,
    /// Pooling windows.
    Pooling,
    /// Residual additions and channel scaling.
    Arithmetic,
    /// Data movement only (flatten, identity).
    Move,
}

/// One instruction of the compiled stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Instruction {
    /// Load a weight tile (and, in DB-PIM mode, its metadata) into one macro.
    LoadWeights {
        /// Target macro.
        macro_id: u8,
        /// Filters in the tile.
        filters: u16,
        /// Weights per filter in the tile.
        weights_per_filter: u32,
        /// Cells occupied per weight (`φ_th` for DB-PIM, 8 for dense).
        cells_per_weight: u8,
        /// Metadata bytes streamed into the macro's metadata RF.
        metadata_bytes: u32,
    },
    /// Stream input features from the feature buffer into the IPU.
    LoadInputs {
        /// Number of INT8 features fetched.
        features: u32,
    },
    /// Execute the loaded tile for a range of output positions.
    Compute {
        /// Target macro.
        macro_id: u8,
        /// Filters computed in parallel.
        filters: u16,
        /// Weights per filter multiplied per output position.
        weights_per_filter: u32,
        /// Output positions processed with the resident weights.
        output_positions: u32,
        /// `φ_th` of the tile (`None` for the dense mapping).
        threshold: Option<u8>,
    },
    /// Accumulate partial sums across weight tiles into the output RF.
    Accumulate {
        /// Partial-sum elements merged.
        elements: u32,
    },
    /// Write final outputs back to the feature buffer.
    WriteOutputs {
        /// Bytes written.
        bytes: u32,
    },
    /// An element-wise operation executed on the SIMD core.
    Simd {
        /// Operation class.
        kind: SimdOpKind,
        /// Elements processed.
        elements: u32,
    },
}

impl Instruction {
    /// Short mnemonic for debugging and traces.
    #[must_use]
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Instruction::LoadWeights { .. } => "ldw",
            Instruction::LoadInputs { .. } => "ldi",
            Instruction::Compute { .. } => "cmp",
            Instruction::Accumulate { .. } => "acc",
            Instruction::WriteOutputs { .. } => "sto",
            Instruction::Simd { .. } => "simd",
        }
    }

    /// MACs nominally performed by a `Compute` instruction (zero otherwise).
    #[must_use]
    pub fn nominal_macs(&self) -> u64 {
        match self {
            Instruction::Compute { filters, weights_per_filter, output_positions, .. } => {
                u64::from(*filters) * u64::from(*weights_per_filter) * u64::from(*output_positions)
            }
            _ => 0,
        }
    }
}

/// The compiled instruction stream of one layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerProgram {
    /// Graph node id of the layer.
    pub node_id: usize,
    /// Layer name, shared with every report simulated from this program.
    pub name: Arc<str>,
    /// The PIM workload this program implements (`None` for SIMD-only layers).
    pub workload: Option<PimWorkload>,
    /// Instruction stream in issue order.
    pub instructions: Vec<Instruction>,
}

impl LayerProgram {
    /// Number of `Compute` instructions.
    #[must_use]
    pub fn compute_count(&self) -> usize {
        self.instructions.iter().filter(|i| matches!(i, Instruction::Compute { .. })).count()
    }

    /// Total nominal MACs issued by this layer's `Compute` instructions.
    #[must_use]
    pub fn nominal_macs(&self) -> u64 {
        self.instructions.iter().map(Instruction::nominal_macs).sum()
    }
}

/// The compiled program of one model under one mapping mode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelProgram {
    /// Name of the compiled model.
    pub model_name: String,
    /// Mapping mode the program was generated for.
    pub mode: MappingMode,
    /// Weight operand bit width the program was compiled for (8 for the
    /// paper's INT8 mapping). The simulator uses this as the dense
    /// cells-per-weight when a `Compute` carries no threshold.
    pub operand_bits: u32,
    /// Per-layer programs in execution order.
    pub layers: Vec<LayerProgram>,
}

impl ModelProgram {
    /// Total instruction count.
    #[must_use]
    pub fn instruction_count(&self) -> usize {
        self.layers.iter().map(|l| l.instructions.len()).sum()
    }

    /// Total nominal MACs issued across all layers.
    #[must_use]
    pub fn nominal_macs(&self) -> u64 {
        self.layers.iter().map(LayerProgram::nominal_macs).sum()
    }

    /// The per-layer program for a graph node, if present.
    #[must_use]
    pub fn layer(&self, node_id: usize) -> Option<&LayerProgram> {
        self.layers.iter().find(|l| l.node_id == node_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnemonics_and_macs() {
        let c = Instruction::Compute {
            macro_id: 0,
            filters: 16,
            weights_per_filter: 64,
            output_positions: 10,
            threshold: Some(1),
        };
        assert_eq!(c.mnemonic(), "cmp");
        assert_eq!(c.nominal_macs(), 16 * 64 * 10);
        let l = Instruction::LoadWeights {
            macro_id: 0,
            filters: 16,
            weights_per_filter: 64,
            cells_per_weight: 1,
            metadata_bytes: 384,
        };
        assert_eq!(l.mnemonic(), "ldw");
        assert_eq!(l.nominal_macs(), 0);
        assert_eq!(Instruction::LoadInputs { features: 4 }.mnemonic(), "ldi");
        assert_eq!(Instruction::Accumulate { elements: 4 }.mnemonic(), "acc");
        assert_eq!(Instruction::WriteOutputs { bytes: 4 }.mnemonic(), "sto");
        assert_eq!(Instruction::Simd { kind: SimdOpKind::Pooling, elements: 4 }.mnemonic(), "simd");
    }

    #[test]
    fn program_aggregation() {
        let layer = LayerProgram {
            node_id: 0,
            name: "conv".into(),
            workload: None,
            instructions: vec![
                Instruction::LoadInputs { features: 8 },
                Instruction::Compute {
                    macro_id: 0,
                    filters: 2,
                    weights_per_filter: 8,
                    output_positions: 4,
                    threshold: None,
                },
                Instruction::WriteOutputs { bytes: 8 },
            ],
        };
        assert_eq!(layer.compute_count(), 1);
        assert_eq!(layer.nominal_macs(), 64);
        let program = ModelProgram {
            model_name: "m".to_string(),
            mode: MappingMode::Dense,
            operand_bits: 8,
            layers: vec![layer],
        };
        assert_eq!(program.instruction_count(), 3);
        assert_eq!(program.nominal_macs(), 64);
        assert!(program.layer(0).is_some());
        assert!(program.layer(1).is_none());
        assert_eq!(MappingMode::DbPim.name(), "db-pim");
        assert_eq!(MappingMode::Dense.name(), "dense");
    }
}
