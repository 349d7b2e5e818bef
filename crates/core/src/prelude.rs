//! Convenience re-exports of the most frequently used items across the
//! DB-PIM workspace.
//!
//! ```
//! use db_pim::prelude::*;
//!
//! let pipeline = Pipeline::new(PipelineConfig::fast())?;
//! # let _ = pipeline;
//! # Ok::<(), db_pim::PipelineError>(())
//! ```

pub use crate::dse::{
    DseDriver, DseEntry, DseJournal, DsePoint, DsePointKey, DseReport, DseSpec, MixCandidate,
};
pub use crate::error::PipelineError;
pub use crate::measure::measure_input_sparsity;
pub use crate::pipeline::{CodesignResult, Pipeline, PipelineConfig};
pub use crate::session::{
    BatchRunner, ModelArtifacts, ModelPrograms, SessionCacheStats, SimSession, SweepEntry,
};
pub use crate::stats::LatencyHistogram;

pub use dbpim_arch::{ArchConfig, InputPreprocessor, PimMacro};
pub use dbpim_compiler::{
    extract_workloads, Compiler, InputSparsityProfile, MappingMode, ModelProgram,
};
pub use dbpim_csd::{CsdWord, DyadicBlock, OperandWidth, Sign};
pub use dbpim_fta::{evaluate_fidelity, FidelityReport, ModelApprox, QueryTables};
pub use dbpim_nn::{zoo, Model, ModelKind, QuantizedModel};
pub use dbpim_sim::{
    pareto_frontier, peak_throughput_per_macro_gops, peak_throughput_tops, ArchGrid, AreaModel,
    CostModel, GridError, ParetoMetrics, RunReport, SimConfig, Simulator, SparsityConfig,
    MAX_GRID_POINTS, PEAK_INPUT_SKIP,
};
pub use dbpim_tensor::{random::TensorGenerator, PruningMode, PruningSpec, Tensor};
