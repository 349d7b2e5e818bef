//! # DB-PIM: exploiting unstructured bit-level sparsity in digital SRAM-PIM
//!
//! A production-quality Rust reproduction of *"Towards Efficient SRAM-PIM
//! Architecture Design by Exploiting Unstructured Bit-Level Sparsity"*
//! (Duan et al., DAC 2024). The workspace implements both halves of the
//! paper's algorithm/architecture co-design:
//!
//! * **Algorithm** — CSD encoding, the dyadic-block sparsity pattern and the
//!   Fixed Threshold Approximation (FTA) algorithm
//!   ([`dbpim_csd`], [`dbpim_fta`]).
//! * **Architecture** — the customized PIM macro with dyadic-block multiply
//!   units, CSD-based adder trees, post-processing units and the input
//!   pre-processing unit ([`dbpim_arch`]), plus the dense digital-PIM
//!   baseline.
//! * **System** — an INT8 CIFAR-100 model zoo ([`dbpim_nn`]), a dataflow
//!   compiler ([`dbpim_compiler`]) and a cycle-accurate performance / energy
//!   / area simulator ([`dbpim_sim`]).
//!
//! This crate ties everything together into a single [`Pipeline`], and the
//! [`session`] and [`dse`] modules scale that flow up: a [`SimSession`]
//! caches the expensive per-model artifacts (quantization, FTA, compiled
//! programs) so a [`DseDriver`] can run models × sparsity configurations ×
//! widths × pruning × geometries in parallel through a [`BatchRunner`] and
//! return a structured [`DseReport`]. The paper's sweep is a [`DseSpec`]
//! over a grid of one geometry.
//!
//! ```
//! use db_pim::prelude::*;
//!
//! let driver = DseDriver::new(PipelineConfig::fast().without_fidelity())?;
//! let spec = DseSpec::new(ArchGrid::around(ArchConfig::paper()), vec![]);
//! let report = driver.run(&spec)?;
//! assert!(report.entries.is_empty() && report.is_complete());
//! # Ok::<(), db_pim::PipelineError>(())
//! ```
//!
//! Single-model usage:
//!
//! ```
//! use db_pim::prelude::*;
//!
//! let pipeline = Pipeline::new(PipelineConfig::fast().without_fidelity())?;
//! let result = pipeline.run_model(&zoo::tiny_cnn(10, 1)?)?;
//! let speedup = result.speedup(SparsityConfig::HybridSparsity);
//! assert!(speedup > 1.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The `examples/` directory contains runnable end-to-end scenarios and the
//! `dbpim-bench` crate regenerates every table and figure of the paper's
//! evaluation section.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dse;
mod error;
pub mod flags;
pub mod measure;
mod pipeline;
pub mod prelude;
pub mod session;
pub mod stats;

pub use dse::{
    DseDriver, DseEntry, DseJournal, DsePoint, DsePointKey, DseReport, DseSpec, MixCandidate,
};
pub use error::PipelineError;
pub use pipeline::{CodesignResult, Pipeline, PipelineConfig};
pub use session::{
    BatchRunner, ModelArtifacts, ModelPrograms, SessionCacheStats, SimSession, SweepEntry,
};
pub use stats::LatencyHistogram;

pub use dbpim_tensor::{PruningMode, PruningSpec};
