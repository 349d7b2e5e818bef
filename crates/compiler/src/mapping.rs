//! Dataflow mapping: turning layer workloads into instruction streams.
//!
//! The mapper implements the weight-stationary dataflow of the paper:
//!
//! 1. Filters are grouped by their FTA threshold `φ_th`. A macro processes
//!    `16 / φ_th` filters in parallel (16 at `φ_th = 1`, 8 at `φ_th = 2`);
//!    all-zero filters (`φ_th = 0`) never touch the array. The dense baseline
//!    packs `width.bits()` bit-cells per weight — two filters per macro at
//!    the paper's INT8, one at INT12/INT16 on the paper geometry.
//! 2. A filter's weights are split into tiles of at most
//!    `rows × compartments` weights — the macro's per-filter capacity.
//! 3. For every (filter wave, weight tile) the compiler emits `LoadWeights`
//!    per macro, a `LoadInputs` covering the streamed input features, one
//!    `Compute` per macro spanning all output positions, an `Accumulate`
//!    when partial sums from several weight tiles must be merged and a final
//!    `WriteOutputs`.

use dbpim_arch::ArchConfig;
use dbpim_csd::OperandWidth;
use serde::{Deserialize, Serialize};

use crate::error::CompileError;
use crate::isa::{Instruction, LayerProgram, MappingMode, ModelProgram, SimdOpKind};
use crate::workload::{ModelWorkloads, PimWorkload, SimdWorkload, Workload};

/// Threshold assumed for filters without FTA information when compiling in
/// DB-PIM mode (the conservative worst case the paper's Algorithm 1 allows).
pub const DEFAULT_THRESHOLD: u32 = 2;

/// The dataflow mapper / instruction generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Compiler {
    config: ArchConfig,
    width: OperandWidth,
}

impl Compiler {
    /// Creates an INT8 compiler for the given architecture geometry (the
    /// paper's setting).
    ///
    /// # Errors
    ///
    /// Returns a validation error for a degenerate configuration.
    pub fn new(config: ArchConfig) -> Result<Self, CompileError> {
        Self::with_width(config, OperandWidth::Int8)
    }

    /// Creates a compiler for an arbitrary weight operand width.
    ///
    /// The width shapes the dense mapping (one bit-cell column per weight
    /// bit, so fewer filters per macro at wider operands) and the metadata
    /// cost of the DB-PIM mapping (`width.metadata_bits_per_cell()` bits per
    /// allocated cell).
    ///
    /// # Errors
    ///
    /// Returns a validation error for a degenerate configuration or when a
    /// single dense weight's bit columns exceed the compartment.
    pub fn with_width(config: ArchConfig, width: OperandWidth) -> Result<Self, CompileError> {
        config.validate_for(width)?;
        Ok(Self { config, width })
    }

    /// The architecture geometry the compiler maps onto.
    #[must_use]
    pub fn config(&self) -> &ArchConfig {
        &self.config
    }

    /// The weight operand width the compiler maps for.
    #[must_use]
    pub fn width(&self) -> OperandWidth {
        self.width
    }

    /// Compiles every workload of a model under the given mapping mode.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Unmappable`] when a layer cannot be tiled onto
    /// the macro geometry.
    pub fn compile(
        &self,
        workloads: &ModelWorkloads,
        mode: MappingMode,
    ) -> Result<ModelProgram, CompileError> {
        let _span = dbpim_trace::span!(
            "compiler.model",
            model = workloads.model_name,
            mode = mode.name(),
            width = self.width.bits(),
        );
        let mut layers = Vec::with_capacity(workloads.workloads.len());
        for workload in &workloads.workloads {
            let layer = match workload {
                Workload::Pim(pim) => self.compile_pim_layer(pim, mode)?,
                Workload::Simd(simd) => Self::compile_simd_layer(simd),
            };
            layers.push(layer);
        }
        Ok(ModelProgram {
            model_name: workloads.model_name.clone(),
            mode,
            operand_bits: self.width.bits(),
            layers,
        })
    }

    fn compile_simd_layer(workload: &SimdWorkload) -> LayerProgram {
        let kind = match workload.kind.as_str() {
            "pool2d" | "global_avg_pool" => SimdOpKind::Pooling,
            "add" | "channel_scale" => SimdOpKind::Arithmetic,
            "flatten" | "identity" | "batchnorm" => SimdOpKind::Move,
            _ => SimdOpKind::Elementwise,
        };
        LayerProgram {
            node_id: workload.node_id,
            name: workload.name.as_str().into(),
            workload: None,
            instructions: vec![Instruction::Simd {
                kind,
                elements: saturate_u32(workload.elements),
            }],
        }
    }

    fn compile_pim_layer(
        &self,
        workload: &PimWorkload,
        mode: MappingMode,
    ) -> Result<LayerProgram, CompileError> {
        let mut instructions = Vec::new();
        let groups = self.filter_groups(workload, mode);
        let k_cap = self.config.weights_per_filter_capacity();
        if workload.filter_len == 0 {
            return Err(CompileError::Unmappable {
                layer: workload.name.clone(),
                reason: "layer has no weights".to_string(),
            });
        }

        for group in &groups {
            if group.filters == 0 {
                continue;
            }
            // Value-pruned groups tile over the group's densest filter rather
            // than the nominal filter length: zeros past that point never
            // need a cell, a load, or a streamed input.
            let k_tiles = group.effective_len.div_ceil(k_cap);
            if group.cells_per_weight == 0 {
                // φ_th = 0: every weight of these filters is zero, so the PIM
                // array is never touched; the SIMD core only materializes the
                // bias into the output positions.
                instructions.push(Instruction::Simd {
                    kind: SimdOpKind::Move,
                    elements: saturate_u32(group.filters as u64 * workload.output_positions as u64),
                });
                continue;
            }
            let filters_per_macro =
                self.config.dbmus_per_compartment / group.cells_per_weight as usize;
            if filters_per_macro == 0 {
                return Err(CompileError::Unmappable {
                    layer: workload.name.clone(),
                    reason: format!(
                        "{} cells per weight exceed the {}-column compartment",
                        group.cells_per_weight, self.config.dbmus_per_compartment
                    ),
                });
            }
            let filters_per_macro = match mode {
                MappingMode::DbPim => filters_per_macro,
                MappingMode::Dense => self
                    .config
                    .dense_filters_per_macro_for(self.width)
                    .expect("checked at construction"),
            };
            let wave_capacity = filters_per_macro * self.config.macros;
            let mut remaining = group.filters;
            while remaining > 0 {
                let wave_filters = remaining.min(wave_capacity);
                for (k, chunk) in chunk_sizes(group.effective_len, k_cap).into_iter().enumerate() {
                    // Load this wave's weight tile into each participating macro.
                    let mut assigned = 0usize;
                    let mut macro_id = 0u8;
                    while assigned < wave_filters {
                        let in_this_macro = (wave_filters - assigned).min(filters_per_macro);
                        let metadata_bytes = match mode {
                            MappingMode::DbPim => {
                                // Sign + block index per allocated cell
                                // (three bits for the paper's INT8 layout).
                                (in_this_macro
                                    * chunk
                                    * group.cells_per_weight as usize
                                    * self.width.metadata_bits_per_cell() as usize)
                                    .div_ceil(8)
                            }
                            MappingMode::Dense => 0,
                        };
                        instructions.push(Instruction::LoadWeights {
                            macro_id,
                            filters: in_this_macro as u16,
                            weights_per_filter: chunk as u32,
                            cells_per_weight: group.cells_per_weight,
                            metadata_bytes: saturate_u32(metadata_bytes as u64),
                        });
                        assigned += in_this_macro;
                        macro_id += 1;
                    }
                    let macros_used = macro_id;
                    // Stream the inputs this tile consumes across all output
                    // positions (they are broadcast to every macro).
                    instructions.push(Instruction::LoadInputs {
                        features: saturate_u32(chunk as u64 * workload.output_positions as u64),
                    });
                    // One Compute per participating macro, spanning every
                    // output position while the weights stay resident.
                    let mut assigned = 0usize;
                    for m in 0..macros_used {
                        let in_this_macro = (wave_filters - assigned).min(filters_per_macro);
                        instructions.push(Instruction::Compute {
                            macro_id: m,
                            filters: in_this_macro as u16,
                            weights_per_filter: chunk as u32,
                            output_positions: saturate_u32(workload.output_positions as u64),
                            threshold: match mode {
                                MappingMode::DbPim => Some(group.cells_per_weight),
                                MappingMode::Dense => None,
                            },
                        });
                        assigned += in_this_macro;
                    }
                    if k_tiles > 1 && k > 0 {
                        instructions.push(Instruction::Accumulate {
                            elements: saturate_u32(
                                wave_filters as u64 * workload.output_positions as u64,
                            ),
                        });
                    }
                }
                instructions.push(Instruction::WriteOutputs {
                    bytes: saturate_u32(wave_filters as u64 * workload.output_positions as u64),
                });
                remaining -= wave_filters;
            }
        }

        Ok(LayerProgram {
            node_id: workload.node_id,
            name: workload.name.as_str().into(),
            workload: Some(workload.clone()),
            instructions,
        })
    }

    /// Groups a workload's filters by the number of cells each weight
    /// occupies under the chosen mapping mode.
    ///
    /// When the workload carries per-filter non-zero counts, each DB-PIM
    /// group's tiled length shrinks to its densest member — the dense
    /// baseline always maps the full nominal filter length.
    fn filter_groups(&self, workload: &PimWorkload, mode: MappingMode) -> Vec<FilterGroup> {
        match mode {
            MappingMode::Dense => vec![FilterGroup {
                cells_per_weight: self.width.bits() as u8,
                filters: workload.filters,
                effective_len: workload.filter_len,
            }],
            MappingMode::DbPim => {
                let compact = workload.filter_nonzeros.len() == workload.thresholds.len()
                    && !workload.filter_nonzeros.is_empty();
                let mut histogram = [0usize; 3];
                let mut longest = [0usize; 3];
                if workload.thresholds.is_empty() {
                    histogram[DEFAULT_THRESHOLD as usize] = workload.filters;
                } else {
                    for (i, &t) in workload.thresholds.iter().enumerate() {
                        let phi = (t as usize).min(2);
                        histogram[phi] += 1;
                        if compact {
                            longest[phi] = longest[phi].max(workload.filter_nonzeros[i]);
                        }
                    }
                }
                (0u8..=2)
                    .map(|phi| FilterGroup {
                        cells_per_weight: phi,
                        filters: histogram[phi as usize],
                        effective_len: if compact && phi > 0 {
                            // φ > 0 guarantees at least one non-zero weight
                            // per filter; the clamp only shields
                            // hand-constructed inconsistent workloads.
                            longest[phi as usize].min(workload.filter_len).max(1)
                        } else {
                            workload.filter_len
                        },
                    })
                    .filter(|g| g.filters > 0)
                    .collect()
            }
        }
    }
}

/// One group of filters sharing a cells-per-weight allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct FilterGroup {
    cells_per_weight: u8,
    filters: usize,
    /// Weights per filter the group actually tiles over (the nominal filter
    /// length, or the group's largest non-zero count when value sparsity is
    /// recorded).
    effective_len: usize,
}

/// Splits `total` into chunks of at most `cap`.
fn chunk_sizes(total: usize, cap: usize) -> Vec<usize> {
    let mut chunks = Vec::new();
    let mut remaining = total;
    while remaining > 0 {
        let take = remaining.min(cap);
        chunks.push(take);
        remaining -= take;
    }
    chunks
}

fn saturate_u32(value: u64) -> u32 {
    u32::try_from(value).unwrap_or(u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::PimLayerKind;

    fn workload(
        filters: usize,
        filter_len: usize,
        positions: usize,
        thresholds: Vec<u32>,
    ) -> PimWorkload {
        PimWorkload {
            node_id: 0,
            name: "conv".to_string(),
            kind: PimLayerKind::Conv2d,
            filters,
            filter_len,
            output_positions: positions,
            thresholds,
            filter_nonzeros: vec![],
            input_skip_ratio: 0.0,
            macs: (filters * filter_len * positions) as u64,
        }
    }

    fn model_workloads(w: PimWorkload) -> ModelWorkloads {
        ModelWorkloads { model_name: "test".to_string(), workloads: vec![Workload::Pim(w)] }
    }

    #[test]
    fn chunking_covers_everything() {
        assert_eq!(chunk_sizes(10, 4), vec![4, 4, 2]);
        assert_eq!(chunk_sizes(4, 4), vec![4]);
        assert_eq!(chunk_sizes(0, 4), Vec::<usize>::new());
        assert_eq!(saturate_u32(u64::MAX), u32::MAX);
    }

    #[test]
    fn phi1_layer_uses_sixteen_filters_per_macro() {
        let compiler = Compiler::new(ArchConfig::paper()).unwrap();
        let w = workload(64, 27, 100, vec![1; 64]);
        let program = compiler.compile(&model_workloads(w), MappingMode::DbPim).unwrap();
        let layer = &program.layers[0];
        // 64 filters / (16 per macro * 4 macros) = exactly one wave.
        let loads: Vec<_> = layer
            .instructions
            .iter()
            .filter(|i| matches!(i, Instruction::LoadWeights { .. }))
            .collect();
        assert_eq!(loads.len(), 4);
        assert_eq!(layer.compute_count(), 4);
        for inst in &layer.instructions {
            if let Instruction::Compute { filters, threshold, .. } = inst {
                assert_eq!(*filters, 16);
                assert_eq!(*threshold, Some(1));
            }
        }
    }

    #[test]
    fn phi2_layer_uses_eight_filters_per_macro() {
        let compiler = Compiler::new(ArchConfig::paper()).unwrap();
        let w = workload(64, 27, 100, vec![2; 64]);
        let program = compiler.compile(&model_workloads(w), MappingMode::DbPim).unwrap();
        let layer = &program.layers[0];
        // 64 filters / (8 per macro * 4 macros) = two waves of 4 loads each.
        let loads = layer
            .instructions
            .iter()
            .filter(|i| matches!(i, Instruction::LoadWeights { .. }))
            .count();
        assert_eq!(loads, 8);
        assert_eq!(layer.compute_count(), 8);
    }

    #[test]
    fn wide_dense_mappings_scale_filters_and_metadata() {
        // INT16: one filter per macro densely, 4 metadata bits per cell in
        // DB-PIM mode.
        let compiler = Compiler::with_width(ArchConfig::paper(), OperandWidth::Int16).unwrap();
        assert_eq!(compiler.width(), OperandWidth::Int16);
        let w = workload(16, 27, 10, vec![1; 16]);
        let dense = compiler.compile(&model_workloads(w.clone()), MappingMode::Dense).unwrap();
        assert_eq!(dense.operand_bits, 16);
        for inst in &dense.layers[0].instructions {
            if let Instruction::Compute { filters, .. } = inst {
                assert_eq!(*filters, 1);
            }
            if let Instruction::LoadWeights { cells_per_weight, .. } = inst {
                assert_eq!(*cells_per_weight, 16);
            }
        }
        let sparse = compiler.compile(&model_workloads(w), MappingMode::DbPim).unwrap();
        for inst in &sparse.layers[0].instructions {
            if let Instruction::LoadWeights {
                filters, weights_per_filter, metadata_bytes, ..
            } = inst
            {
                // 4 bits per allocated cell, one cell per weight at φ=1.
                let cells = u32::from(*filters) * *weights_per_filter;
                assert_eq!(*metadata_bytes, (cells * 4).div_ceil(8));
            }
        }

        // INT8 via with_width is identical to the historical constructor.
        let int8 = Compiler::with_width(ArchConfig::paper(), OperandWidth::Int8).unwrap();
        let legacy = Compiler::new(ArchConfig::paper()).unwrap();
        let w = workload(64, 27, 100, vec![2; 64]);
        assert_eq!(
            int8.compile(&model_workloads(w.clone()), MappingMode::Dense).unwrap(),
            legacy.compile(&model_workloads(w), MappingMode::Dense).unwrap()
        );

        // A width wider than the compartment is rejected up front.
        let mut narrow = ArchConfig::paper();
        narrow.dbmus_per_compartment = 8;
        assert!(Compiler::with_width(narrow, OperandWidth::Int16).is_err());
    }

    #[test]
    fn dense_mapping_packs_two_filters_per_macro() {
        let compiler = Compiler::new(ArchConfig::paper()).unwrap();
        let w = workload(64, 27, 100, vec![1; 64]);
        let program = compiler.compile(&model_workloads(w), MappingMode::Dense).unwrap();
        let layer = &program.layers[0];
        // 64 filters / (2 per macro * 4 macros) = 8 waves of 4 loads.
        assert_eq!(layer.compute_count(), 32);
        for inst in &layer.instructions {
            if let Instruction::Compute { filters, threshold, .. } = inst {
                assert_eq!(*filters, 2);
                assert_eq!(*threshold, None);
            }
            if let Instruction::LoadWeights { cells_per_weight, metadata_bytes, .. } = inst {
                assert_eq!(*cells_per_weight, 8);
                assert_eq!(*metadata_bytes, 0);
            }
        }
        // The DB-PIM mapping of the same layer issues 8x fewer computes.
        let db = compiler
            .compile(&model_workloads(workload(64, 27, 100, vec![1; 64])), MappingMode::DbPim)
            .unwrap();
        assert_eq!(layer.compute_count() / db.layers[0].compute_count(), 8);
    }

    #[test]
    fn zero_threshold_filters_skip_the_array() {
        let compiler = Compiler::new(ArchConfig::paper()).unwrap();
        let mut thresholds = vec![0u32; 16];
        thresholds.extend(vec![1u32; 16]);
        let w = workload(32, 27, 10, thresholds);
        let program = compiler.compile(&model_workloads(w), MappingMode::DbPim).unwrap();
        let layer = &program.layers[0];
        // Only the 16 φ=1 filters reach the macros (one macro load).
        let computed_filters: u64 = layer
            .instructions
            .iter()
            .filter_map(|i| match i {
                Instruction::Compute { filters, .. } => Some(u64::from(*filters)),
                _ => None,
            })
            .sum();
        assert_eq!(computed_filters, 16);
        assert!(layer
            .instructions
            .iter()
            .any(|i| matches!(i, Instruction::Simd { kind: SimdOpKind::Move, .. })));
    }

    #[test]
    fn long_filters_are_tiled_and_accumulated() {
        let compiler = Compiler::new(ArchConfig::paper()).unwrap();
        // 2500 weights per filter > 1024 capacity -> 3 weight tiles.
        let w = workload(8, 2500, 4, vec![2; 8]);
        let program = compiler.compile(&model_workloads(w), MappingMode::DbPim).unwrap();
        let layer = &program.layers[0];
        assert_eq!(layer.compute_count(), 3);
        let accumulates = layer
            .instructions
            .iter()
            .filter(|i| matches!(i, Instruction::Accumulate { .. }))
            .count();
        assert_eq!(accumulates, 2);
        // Chunks must cover the whole filter.
        let weights: u64 = layer
            .instructions
            .iter()
            .filter_map(|i| match i {
                Instruction::Compute { weights_per_filter, .. } => {
                    Some(u64::from(*weights_per_filter))
                }
                _ => None,
            })
            .sum();
        assert_eq!(weights, 2500);
    }

    #[test]
    fn value_pruned_filters_compact_into_fewer_tiles() {
        let compiler = Compiler::new(ArchConfig::paper()).unwrap();
        // 2500 weights per filter nominally (3 tiles at the 1024 capacity),
        // but pruning left at most 900 non-zeros per filter: one tile.
        let mut w = workload(8, 2500, 4, vec![2; 8]);
        w.filter_nonzeros = vec![900, 100, 850, 10, 900, 900, 5, 1];
        assert!((w.value_zero_fraction() - (1.0 - 3666.0 / 20000.0)).abs() < 1e-12);
        let program = compiler.compile(&model_workloads(w.clone()), MappingMode::DbPim).unwrap();
        let layer = &program.layers[0];
        assert_eq!(layer.compute_count(), 1);
        assert!(!layer.instructions.iter().any(|i| matches!(i, Instruction::Accumulate { .. })));
        let streamed: u64 = layer
            .instructions
            .iter()
            .filter_map(|i| match i {
                Instruction::LoadInputs { features } => Some(u64::from(*features)),
                _ => None,
            })
            .sum();
        assert_eq!(streamed, 900 * 4);

        // The dense baseline ignores value sparsity: identical to the
        // unpruned dense mapping of the same geometry.
        let dense_pruned = compiler.compile(&model_workloads(w), MappingMode::Dense).unwrap();
        let mut unpruned = workload(8, 2500, 4, vec![2; 8]);
        let dense_ref = {
            let p =
                compiler.compile(&model_workloads(unpruned.clone()), MappingMode::Dense).unwrap();
            p.layers[0].instructions.clone()
        };
        assert_eq!(dense_pruned.layers[0].instructions, dense_ref);

        // Empty nonzero counts keep the historical tiling bit-for-bit.
        unpruned.filter_nonzeros = vec![];
        let legacy = compiler.compile(&model_workloads(unpruned), MappingMode::DbPim).unwrap();
        assert_eq!(legacy.layers[0].compute_count(), 3);
    }

    #[test]
    fn full_nonzero_counts_change_nothing() {
        // Counts equal to the filter length reproduce the legacy program
        // exactly — the pruning=0 identity at the mapper level.
        let compiler = Compiler::new(ArchConfig::paper()).unwrap();
        let baseline = workload(32, 2500, 16, vec![1; 16].into_iter().chain(vec![2; 16]).collect());
        let mut counted = baseline.clone();
        counted.filter_nonzeros = vec![2500; 32];
        for mode in [MappingMode::DbPim, MappingMode::Dense] {
            assert_eq!(
                compiler.compile(&model_workloads(counted.clone()), mode).unwrap().layers[0]
                    .instructions,
                compiler.compile(&model_workloads(baseline.clone()), mode).unwrap().layers[0]
                    .instructions,
                "{mode:?}"
            );
        }
    }

    #[test]
    fn compaction_is_per_threshold_group() {
        let compiler = Compiler::new(ArchConfig::paper()).unwrap();
        // φ=1 group pruned to ≤1000 non-zeros (1 tile), φ=2 group dense
        // (3 tiles); a shared tiling would need 3 everywhere.
        let mut w = workload(8, 2500, 4, vec![1, 1, 1, 1, 2, 2, 2, 2]);
        w.filter_nonzeros = vec![1000, 999, 4, 12, 2500, 2500, 2500, 2500];
        let program = compiler.compile(&model_workloads(w), MappingMode::DbPim).unwrap();
        let mut tiles_per_threshold = [0usize; 3];
        for inst in &program.layers[0].instructions {
            if let Instruction::Compute { threshold: Some(t), .. } = inst {
                tiles_per_threshold[*t as usize] += 1;
            }
        }
        assert_eq!(tiles_per_threshold, [0, 1, 3]);
    }

    #[test]
    fn missing_thresholds_fall_back_to_the_conservative_default() {
        let compiler = Compiler::new(ArchConfig::paper()).unwrap();
        let w = workload(8, 27, 10, vec![]);
        let program = compiler.compile(&model_workloads(w), MappingMode::DbPim).unwrap();
        for inst in &program.layers[0].instructions {
            if let Instruction::Compute { threshold, .. } = inst {
                assert_eq!(*threshold, Some(DEFAULT_THRESHOLD as u8));
            }
        }
    }

    #[test]
    fn nominal_macs_cover_the_workload() {
        let compiler = Compiler::new(ArchConfig::paper()).unwrap();
        let w = workload(40, 300, 64, vec![1; 20].into_iter().chain(vec![2; 20]).collect());
        let expected: u64 = 40 * 300 * 64;
        let program = compiler.compile(&model_workloads(w), MappingMode::DbPim).unwrap();
        assert_eq!(program.nominal_macs(), expected);
        assert!(program.instruction_count() > 0);
    }

    #[test]
    fn simd_layers_compile_to_one_instruction() {
        let workloads = ModelWorkloads {
            model_name: "m".to_string(),
            workloads: vec![Workload::Simd(SimdWorkload {
                node_id: 3,
                name: "relu".to_string(),
                kind: "activation".to_string(),
                elements: 1000,
            })],
        };
        let compiler = Compiler::new(ArchConfig::paper()).unwrap();
        let program = compiler.compile(&workloads, MappingMode::DbPim).unwrap();
        assert_eq!(program.layers[0].instructions.len(), 1);
        assert!(matches!(
            program.layers[0].instructions[0],
            Instruction::Simd { kind: SimdOpKind::Elementwise, elements: 1000 }
        ));
    }
}
