//! Cycle-accurate performance, energy and area simulation for DB-PIM.
//!
//! The paper evaluates DB-PIM with a cycle-accurate simulator driven by
//! post-layout power/area numbers. This crate is that simulator, rebuilt in
//! Rust around a parametric cost model:
//!
//! * [`SparsityConfig`] / [`SimConfig`] — the four Fig. 7 configurations
//!   (dense baseline, input sparsity, weight sparsity, hybrid).
//! * [`Simulator`] — executes a compiled [`dbpim_compiler::ModelProgram`],
//!   charging cycles per macro and energy per event.
//! * [`CostModel`] / [`EnergyBreakdown`] — calibrated 28 nm per-event
//!   energies and the resulting breakdown.
//! * [`AreaModel`] — the Table 3 die area and Table 4 breakdown.
//! * [`RunReport`] — latency, throughput, power, energy efficiency, speedup
//!   and energy-saving comparisons.
//!
//! # Example
//!
//! ```
//! use dbpim_sim::{SimConfig, Simulator, SparsityConfig};
//! use dbpim_compiler::{extract_workloads, Compiler, InputSparsityProfile, MappingMode};
//! use dbpim_arch::ArchConfig;
//! use dbpim_nn::zoo;
//!
//! let model = zoo::tiny_cnn(10, 1)?;
//! let workloads = extract_workloads(&model, None, &InputSparsityProfile::new())?;
//! let compiler = Compiler::new(ArchConfig::paper())?;
//! let program = compiler.compile(&workloads, MappingMode::Dense)?;
//! let sim = Simulator::new(SimConfig::new(SparsityConfig::DenseBaseline))?;
//! let report = sim.simulate(&program)?;
//! assert!(report.total_cycles() > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod area;
mod config;
pub mod dse;
mod energy;
mod engine;
mod error;
mod report;

pub use area::{AreaComponent, AreaModel};
pub use config::{SimConfig, SparsityConfig};
pub use dse::{pareto_frontier, ArchGrid, GridError, ParetoMetrics, MAX_GRID_POINTS};
pub use energy::{CostModel, EnergyBreakdown};
pub use engine::Simulator;
pub use error::SimError;
pub use report::{
    peak_throughput_per_macro_gops, peak_throughput_tops, LayerReport, RunReport, PEAK_INPUT_SKIP,
};
