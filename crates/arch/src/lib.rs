//! Bit-accurate functional model of the DB-PIM architecture.
//!
//! This crate models the paper's customized SRAM-PIM macro and its peripherals
//! at the bit level:
//!
//! * [`SixTCell`] / [`LocalProcessingUnit`] / [`Dbmu`] — a 6T cell storing a
//!   Complementary Pattern block and the four-transistor LPU that multiplies
//!   both of its nodes with the broadcast input bit.
//! * [`CsdAdderTree`] — the metadata-guided adder tree that shifts and signs
//!   the randomly distributed non-zero digit products before accumulating.
//! * [`PostProcessingUnit`] — bit-serial shift-and-add with signed-MSB
//!   handling and cross-tile partial-sum accumulation.
//! * [`InputPreprocessor`] — block-wise zero-column detection and leading-one
//!   selection of input bit columns.
//! * [`PimMacro`] — the full macro supporting both the DB-PIM (sparse) tile
//!   mapping and the dense-baseline mapping; every execution returns event
//!   counts ([`MacroComputeStats`]) the performance simulator consumes. The
//!   compute phase runs on word-packed bit-planes (AND + popcount per CSD
//!   shift) and loading is split from execution
//!   ([`PimMacro::load_sparse_tile`] / [`PimMacro::execute_loaded`]); the
//!   original cell-at-a-time model survives as the `scalar-reference`
//!   feature's `ScalarPimMacro` correctness oracle.
//! * [`ArchConfig`] — the Section 4.1 geometry (4 macros × 16 Kb, 500 MHz,
//!   272 KB of buffers).
//!
//! # Example
//!
//! ```
//! use dbpim_arch::{ArchConfig, InputPreprocessor, PimMacro};
//! use dbpim_csd::OperandWidth;
//! use dbpim_fta::{FilterApprox, QueryTables};
//! use dbpim_fta::metadata::FilterMetadata;
//!
//! let tables = QueryTables::for_width(OperandWidth::Int8);
//! let weights: Vec<i8> = vec![3, -5, 64, 0, 17, -96, 7, 1];
//! let inputs: Vec<i8> = vec![1, 2, 3, 4, 5, 6, 7, 8];
//! let filter = FilterApprox::approximate(&weights, &tables)?;
//! let meta = FilterMetadata::from_filter(0, &filter);
//!
//! let mut macro_unit = PimMacro::new(ArchConfig::paper())?;
//! let exec = macro_unit.execute_sparse_tile(&[meta], &inputs, &InputPreprocessor::new())?;
//! let expected: i64 = filter.values().iter().zip(&inputs)
//!     .map(|(&w, &x)| i64::from(w) * i64::from(x)).sum();
//! assert_eq!(exec.outputs[0], expected);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adder_tree;
mod buffers;
mod cell;
mod config;
mod dbmu;
mod error;
mod ipu;
mod lpu;
mod macro_unit;
mod ppu;
#[cfg(any(test, feature = "scalar-reference"))]
pub mod reference;

pub use adder_tree::{AdderTreeStats, CellMeta, CsdAdderTree};
pub use buffers::TrackedBuffer;
pub use cell::SixTCell;
pub use config::{ArchConfig, BLOCKS_PER_WEIGHT, OPERAND_BITS};
pub use dbmu::Dbmu;
pub use error::ArchError;
pub use ipu::{InputColumn, InputPreprocessor, IpuResult, PackedColumns};
pub use lpu::{LocalProcessingUnit, LpuOutput};
pub use macro_unit::{MacroComputeStats, PimMacro, TileExecution};
pub use ppu::{PostProcessingUnit, INPUT_BITS};
#[cfg(any(test, feature = "scalar-reference"))]
pub use reference::ScalarPimMacro;
