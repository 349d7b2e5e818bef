//! The cycle-accurate performance and energy engine.
//!
//! The engine executes a compiled [`ModelProgram`] instruction by
//! instruction. Weight-tile loads and macro computations are charged to the
//! macro they target (macros work in parallel, so a layer's array time is the
//! maximum busy time across macros); input streaming runs on the feature
//! buffer port and overlaps with the array; partial-sum accumulation, output
//! write-back and SIMD work are serial post-processing. Every event is also
//! charged its energy from the [`CostModel`].

use dbpim_arch::OPERAND_BITS;
use dbpim_compiler::{Instruction, LayerProgram, ModelProgram, SimdOpKind};
use serde::{Deserialize, Serialize};

use crate::config::SimConfig;
use crate::energy::{CostModel, EnergyBreakdown};
use crate::error::SimError;
use crate::report::{LayerReport, RunReport};

/// The DB-PIM performance simulator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Simulator {
    config: SimConfig,
    cost: CostModel,
}

/// Per-macro busy-time accumulators, allocated once per simulation and
/// cleared per layer instead of reallocated.
#[derive(Debug)]
struct MacroBusy {
    busy: Vec<f64>,
    compute_busy: Vec<f64>,
}

impl MacroBusy {
    fn new(macros: usize) -> Self {
        Self { busy: vec![0.0; macros], compute_busy: vec![0.0; macros] }
    }

    fn clear(&mut self) {
        self.busy.fill(0.0);
        self.compute_busy.fill(0.0);
    }
}

impl Simulator {
    /// Creates a simulator with the calibrated 28 nm cost model.
    ///
    /// # Errors
    ///
    /// Returns a validation error for a degenerate architecture
    /// configuration.
    pub fn new(config: SimConfig) -> Result<Self, SimError> {
        Self::with_cost_model(config, CostModel::calibrated_28nm())
    }

    /// Creates a simulator with an explicit cost model.
    ///
    /// # Errors
    ///
    /// Returns a validation error for a degenerate architecture
    /// configuration or an invalid cost model.
    pub fn with_cost_model(config: SimConfig, cost: CostModel) -> Result<Self, SimError> {
        config.arch.validate()?;
        cost.validate()?;
        Ok(Self { config, cost })
    }

    /// The simulator's configuration.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The simulator's cost model.
    #[must_use]
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Simulates a compiled program and returns the run report.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MappingMismatch`] when the program's mapping mode
    /// does not match the configuration's sparsity setting.
    pub fn simulate(&self, program: &ModelProgram) -> Result<RunReport, SimError> {
        let expected = self.config.sparsity.mapping_mode();
        if program.mode != expected {
            return Err(SimError::MappingMismatch {
                program: program.mode.name(),
                expected: expected.name(),
            });
        }
        let _span = dbpim_trace::span!(
            "sim.model",
            model = program.model_name,
            layers = program.layers.len(),
        );
        // Per-macro busy scratch reused across layers instead of allocating
        // two vectors per layer.
        let mut busy = MacroBusy::new(self.config.arch.macros);
        let layers = program
            .layers
            .iter()
            .map(|layer| self.simulate_layer(layer, program.operand_bits, &mut busy))
            .collect();
        Ok(RunReport {
            model_name: program.model_name.clone(),
            sparsity: self.config.sparsity,
            frequency_mhz: self.config.arch.frequency_mhz,
            layers,
        })
    }

    fn simulate_layer(
        &self,
        layer: &LayerProgram,
        operand_bits: u32,
        macro_busy: &mut MacroBusy,
    ) -> LayerReport {
        let _span = dbpim_trace::span!("sim.layer", layer = layer.name, node = layer.node_id);
        let arch = &self.config.arch;
        let compartments = arch.compartments_per_macro as f64;
        let input_skip = if self.config.sparsity.input_sparsity() {
            layer.workload.as_ref().map_or(0.0, |w| w.input_skip_ratio)
        } else {
            0.0
        };
        // Input features are always streamed bit-serially at INT8; only the
        // weight width (`operand_bits`) varies per program.
        let bit_columns = (OPERAND_BITS as f64 * (1.0 - input_skip)).max(0.0);

        macro_busy.clear();
        let MacroBusy { busy, compute_busy } = macro_busy;
        let mut io_cycles = 0.0f64;
        let mut serial_cycles = 0.0f64;
        let mut energy = EnergyBreakdown::default();

        for inst in &layer.instructions {
            match *inst {
                Instruction::LoadWeights {
                    macro_id,
                    filters,
                    weights_per_filter,
                    cells_per_weight,
                    metadata_bytes,
                } => {
                    let rows = f64::from(weights_per_filter) / compartments;
                    let cells = f64::from(filters)
                        * f64::from(weights_per_filter)
                        * f64::from(cells_per_weight);
                    let payload_bytes = cells / 8.0 + f64::from(metadata_bytes);
                    let cycles =
                        rows.ceil().max(payload_bytes / self.config.load_bytes_per_cycle as f64);
                    let slot = usize::from(macro_id).min(arch.macros - 1);
                    busy[slot] += cycles;
                    energy.weight_load_pj +=
                        cells * self.cost.cell_write_pj + (cells / 8.0) * self.cost.weight_byte_pj;
                    energy.metadata_pj += f64::from(metadata_bytes) * self.cost.meta_byte_pj;
                }
                Instruction::LoadInputs { features } => {
                    io_cycles += f64::from(features) / self.config.feature_bytes_per_cycle as f64;
                    let groups = f64::from(features) / compartments;
                    energy.feature_traffic_pj += f64::from(features) * self.cost.feature_byte_pj
                        + groups * self.cost.ipu_group_pj;
                }
                Instruction::Compute {
                    macro_id,
                    filters,
                    weights_per_filter,
                    output_positions,
                    threshold,
                } => {
                    // Sampled 1-in-N (the collector's kernel knob): a layer
                    // dispatches one Compute per tile, and recording every
                    // one would flood the ring buffer. `threshold` carries
                    // the popcount-derived active-cell count of sparse
                    // tiles, so the sampled span reports real op counts.
                    let _dispatch = dbpim_trace::kernel_span_with("sim.dispatch", || {
                        let macs = u64::from(filters)
                            * u64::from(weights_per_filter)
                            * u64::from(output_positions);
                        vec![
                            ("macro", macro_id.to_string()),
                            ("macs", macs.to_string()),
                            (
                                "cells_per_weight",
                                threshold.map_or(operand_bits.to_string(), |t| t.to_string()),
                            ),
                        ]
                    });
                    let rows = (f64::from(weights_per_filter) / compartments).ceil();
                    let cycles = f64::from(output_positions) * rows * bit_columns;
                    let slot = usize::from(macro_id).min(arch.macros - 1);
                    busy[slot] += cycles;
                    compute_busy[slot] += cycles;
                    let cells_per_weight = threshold.map_or(f64::from(operand_bits), f64::from);
                    let active_cells = compartments * f64::from(filters) * cells_per_weight;
                    energy.macro_dynamic_pj += cycles
                        * (active_cells * self.cost.cell_compute_pj
                            + f64::from(filters) * (self.cost.adder_tree_pj + self.cost.ppu_pj));
                }
                Instruction::Accumulate { elements } => {
                    serial_cycles += f64::from(elements) / self.config.simd_lanes as f64;
                    energy.simd_pj += f64::from(elements) * self.cost.simd_op_pj;
                }
                Instruction::WriteOutputs { bytes } => {
                    serial_cycles += f64::from(bytes) / self.config.feature_bytes_per_cycle as f64;
                    energy.output_traffic_pj += f64::from(bytes) * self.cost.feature_byte_pj;
                }
                Instruction::Simd { kind, elements } => {
                    let per_lane = f64::from(elements) / self.config.simd_lanes as f64;
                    let weight = match kind {
                        SimdOpKind::Move => 0.25,
                        SimdOpKind::Pooling | SimdOpKind::Arithmetic => 1.0,
                        SimdOpKind::Elementwise => 1.5,
                    };
                    serial_cycles += per_lane * weight;
                    energy.simd_pj += f64::from(elements) * self.cost.simd_op_pj * weight;
                }
            }
        }

        let array_cycles = busy.iter().fold(0.0f64, |m, &b| m.max(b));
        let total_cycles = (array_cycles.max(io_cycles) + serial_cycles).ceil() as u64;
        let compute_cycles = compute_busy.iter().fold(0.0f64, |m, &b| m.max(b)).ceil() as u64;
        energy.static_pj += total_cycles as f64 * self.cost.static_per_cycle_pj;

        LayerReport {
            node_id: layer.node_id,
            name: layer.name.clone(),
            is_pim: layer.workload.is_some(),
            cycles: total_cycles,
            compute_cycles,
            macs: layer.workload.as_ref().map_or(0, |w| w.macs),
            energy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SparsityConfig;
    use dbpim_arch::ArchConfig;
    use dbpim_compiler::{
        extract_workloads, Compiler, InputSparsityProfile, MappingMode, ModelWorkloads,
    };
    use dbpim_fta::ModelApprox;
    use dbpim_nn::{zoo, QuantizedModel};
    use dbpim_tensor::random::TensorGenerator;

    /// Builds the four Fig. 7 runs for the tiny CNN.
    fn four_runs() -> Vec<RunReport> {
        let model = zoo::tiny_cnn(10, 11).unwrap();
        let mut gen = TensorGenerator::new(12);
        let (cal, _) = gen.labelled_batch(2, 3, 32, 32, 10).unwrap();
        let quantized = QuantizedModel::quantize(&model, &cal).unwrap();
        let approx = ModelApprox::from_quantized(&quantized).unwrap();
        let mut profile = InputSparsityProfile::new();
        for id in quantized.pim_node_ids() {
            profile.set(id, 0.5);
        }
        let workloads = extract_workloads(&model, Some(&approx), &profile).unwrap();
        let dense_workloads = extract_workloads(&model, None, &profile).unwrap();
        let compiler = Compiler::new(ArchConfig::paper()).unwrap();
        let dense_program = compiler.compile(&dense_workloads, MappingMode::Dense).unwrap();
        let sparse_program = compiler.compile(&workloads, MappingMode::DbPim).unwrap();

        SparsityConfig::all()
            .into_iter()
            .map(|sparsity| {
                let sim = Simulator::new(SimConfig::new(sparsity)).unwrap();
                let program =
                    if sparsity.weight_sparsity() { &sparse_program } else { &dense_program };
                sim.simulate(program).unwrap()
            })
            .collect()
    }

    #[test]
    fn fig7_ordering_holds_for_the_tiny_cnn() {
        let runs = four_runs();
        let base = &runs[0];
        let input = &runs[1];
        let weight = &runs[2];
        let hybrid = &runs[3];

        let s_input = input.speedup_over(base);
        let s_weight = weight.speedup_over(base);
        let s_hybrid = hybrid.speedup_over(base);
        assert!(s_input > 1.0, "input-sparsity speedup {s_input}");
        assert!(s_weight > 1.5, "weight-sparsity speedup {s_weight}");
        assert!(s_hybrid > s_weight, "hybrid {s_hybrid} vs weight {s_weight}");
        assert!(s_hybrid > s_input, "hybrid {s_hybrid} vs input {s_input}");
        assert!(s_hybrid < 16.0, "hybrid speedup implausibly high: {s_hybrid}");

        let e_weight = weight.energy_saving_over(base);
        let e_hybrid = hybrid.energy_saving_over(base);
        assert!(e_weight > 0.2 && e_weight < 0.95, "weight energy saving {e_weight}");
        assert!(e_hybrid > e_weight, "hybrid saving {e_hybrid} vs weight {e_weight}");
        assert!(e_hybrid < 0.95, "hybrid saving {e_hybrid}");

        // The functional work is identical across configurations.
        assert_eq!(base.total_macs(), hybrid.total_macs());
        assert_eq!(weight.total_macs(), input.total_macs());
    }

    #[test]
    fn mapping_mismatch_is_rejected() {
        let model = zoo::tiny_cnn(10, 13).unwrap();
        let workloads = extract_workloads(&model, None, &InputSparsityProfile::new()).unwrap();
        let compiler = Compiler::new(ArchConfig::paper()).unwrap();
        let dense_program = compiler.compile(&workloads, MappingMode::Dense).unwrap();
        let sim = Simulator::new(SimConfig::hybrid()).unwrap();
        assert!(matches!(sim.simulate(&dense_program), Err(SimError::MappingMismatch { .. })));
    }

    #[test]
    fn invalid_cost_model_is_rejected() {
        let mut cost = CostModel::calibrated_28nm();
        cost.cell_compute_pj = f64::NAN;
        assert!(Simulator::with_cost_model(SimConfig::dense_baseline(), cost).is_err());
        let mut config = SimConfig::dense_baseline();
        config.arch.macros = 0;
        assert!(Simulator::new(config).is_err());
    }

    #[test]
    fn reports_have_one_entry_per_layer_and_positive_energy() {
        let runs = four_runs();
        for run in &runs {
            assert!(!run.layers.is_empty());
            assert!(run.total_cycles() > 0);
            assert!(run.energy().total_pj() > 0.0);
            assert!(
                run.energy_efficiency_tops_per_w() > 0.5,
                "{}",
                run.energy_efficiency_tops_per_w()
            );
            assert!(run.average_power_mw() > 0.1);
            // Static energy is attributed to every layer.
            assert!(run.layers.iter().all(|l| l.energy.static_pj > 0.0));
        }
    }

    #[test]
    fn empty_program_simulates_to_empty_report() {
        let sim = Simulator::new(SimConfig::dense_baseline()).unwrap();
        let program = dbpim_compiler::ModelProgram {
            model_name: "empty".to_string(),
            mode: MappingMode::Dense,
            operand_bits: 8,
            layers: vec![],
        };
        let report = sim.simulate(&program).unwrap();
        assert_eq!(report.total_cycles(), 0);
        assert_eq!(report.total_macs(), 0);
    }

    #[test]
    fn simd_only_layer_costs_are_serial() {
        let program = dbpim_compiler::ModelProgram {
            model_name: "simd".to_string(),
            mode: MappingMode::Dense,
            operand_bits: 8,
            layers: vec![dbpim_compiler::LayerProgram {
                node_id: 0,
                name: "relu".into(),
                workload: None,
                instructions: vec![Instruction::Simd {
                    kind: SimdOpKind::Elementwise,
                    elements: 1600,
                }],
            }],
        };
        let sim = Simulator::new(SimConfig::dense_baseline()).unwrap();
        let report = sim.simulate(&program).unwrap();
        assert_eq!(report.layers[0].compute_cycles, 0);
        assert!(!report.layers[0].is_pim);
        // 1600 elements / 16 lanes * 1.5 weight = 150 cycles.
        assert_eq!(report.layers[0].cycles, 150);
    }

    #[allow(unused)]
    fn type_checks(_: ModelWorkloads) {}
}
