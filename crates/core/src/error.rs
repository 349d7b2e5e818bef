//! Error type for the end-to-end co-design pipeline.

use std::error::Error;
use std::fmt;
use std::path::PathBuf;

use dbpim_arch::ArchError;
use dbpim_compiler::CompileError;
use dbpim_fta::FtaError;
use dbpim_nn::NnError;
use dbpim_sim::SimError;
use dbpim_tensor::TensorError;

/// Errors produced by the end-to-end DB-PIM pipeline.
#[derive(Debug)]
#[non_exhaustive]
pub enum PipelineError {
    /// Tensor substrate failure.
    Tensor(TensorError),
    /// An architecture geometry failed validation (zero parameters, buffers
    /// too small for a single tile, ...).
    Arch(ArchError),
    /// Model graph or inference failure.
    Nn(NnError),
    /// FTA approximation failure.
    Fta(FtaError),
    /// Compilation failure.
    Compile(CompileError),
    /// Simulation failure.
    Sim(SimError),
    /// Invalid pipeline configuration.
    BadConfig {
        /// Human-readable description of the problem.
        reason: String,
    },
    /// A point-set run was given no workers.
    NoWorkers,
    /// A DSE snapshot (a report or a journal) could not be read, parsed or
    /// written.
    Snapshot {
        /// The snapshot file.
        path: PathBuf,
        /// The 1-based line that does not parse; `None` when the file could
        /// not be read or written.
        line: Option<usize>,
        /// What went wrong.
        reason: String,
    },
    /// A snapshot answers a different spec, so resuming would mix results.
    SnapshotSpecMismatch {
        /// The snapshot.
        path: PathBuf,
    },
    /// A fleet snapshot directory holds an earlier release's per-shard
    /// journals, which this one does not read.
    LegacyShardJournals {
        /// The `shard-*.json` files, name-sorted.
        files: Vec<PathBuf>,
    },
    /// A point failed on a remote worker, or failed transiently on every
    /// attempt.
    PointFailed {
        /// Human-readable identity of the point.
        point: String,
        /// Attempts made.
        attempts: usize,
        /// The last failure.
        last_error: String,
    },
    /// Every worker retired before the run's points were computed.
    Stalled {
        /// Points completed, resumed ones included.
        completed: usize,
        /// Points the spec enumerates.
        total: usize,
        /// The run's diagnostics, then one line per retired worker (in
        /// worker order) naming it and why it retired.
        diagnostics: Vec<String>,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Tensor(e) => write!(f, "tensor error: {e}"),
            PipelineError::Arch(e) => write!(f, "architecture error: {e}"),
            PipelineError::Nn(e) => write!(f, "model error: {e}"),
            PipelineError::Fta(e) => write!(f, "fta error: {e}"),
            PipelineError::Compile(e) => write!(f, "compile error: {e}"),
            PipelineError::Sim(e) => write!(f, "simulation error: {e}"),
            PipelineError::BadConfig { reason } => {
                write!(f, "invalid pipeline configuration: {reason}")
            }
            PipelineError::NoWorkers => write!(f, "the run has no workers (local or remote)"),
            PipelineError::Snapshot { path, line: Some(line), reason } => {
                write!(f, "malformed DSE snapshot in {} (line {line}): {reason}", path.display())
            }
            PipelineError::Snapshot { path, line: None, reason } => {
                write!(f, "DSE snapshot {}: {reason}", path.display())
            }
            PipelineError::SnapshotSpecMismatch { path } => write!(
                f,
                "snapshot {} answers a different spec; refusing to resume",
                path.display()
            ),
            PipelineError::LegacyShardJournals { files } => {
                let files: Vec<String> = files.iter().map(|p| p.display().to_string()).collect();
                write!(
                    f,
                    "the snapshot dir holds shard journals of an earlier release, which this \
                     one does not resume ({}); finish that run with its release or move them \
                     out of the dir",
                    files.join(", ")
                )
            }
            PipelineError::PointFailed { point, attempts, last_error } => {
                write!(f, "point {point} failed {attempts} attempts; last error: {last_error}")
            }
            PipelineError::Stalled { completed, total, diagnostics } => write!(
                f,
                "run stalled at {completed}/{total} points with no live workers ({})",
                diagnostics.join("; ")
            ),
        }
    }
}

impl Error for PipelineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PipelineError::Tensor(e) => Some(e),
            PipelineError::Arch(e) => Some(e),
            PipelineError::Nn(e) => Some(e),
            PipelineError::Fta(e) => Some(e),
            PipelineError::Compile(e) => Some(e),
            PipelineError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for PipelineError {
    fn from(e: TensorError) -> Self {
        PipelineError::Tensor(e)
    }
}

impl From<ArchError> for PipelineError {
    fn from(e: ArchError) -> Self {
        PipelineError::Arch(e)
    }
}

impl From<NnError> for PipelineError {
    fn from(e: NnError) -> Self {
        PipelineError::Nn(e)
    }
}

impl From<FtaError> for PipelineError {
    fn from(e: FtaError) -> Self {
        PipelineError::Fta(e)
    }
}

impl From<CompileError> for PipelineError {
    fn from(e: CompileError) -> Self {
        PipelineError::Compile(e)
    }
}

impl From<SimError> for PipelineError {
    fn from(e: SimError) -> Self {
        PipelineError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: PipelineError = TensorError::EmptyShape.into();
        assert!(e.to_string().contains("tensor"));
        let e: PipelineError =
            ArchError::CapacityExceeded { resource: "macros", requested: 1, available: 0 }.into();
        assert!(e.to_string().contains("architecture"));
        let e: PipelineError = NnError::EmptyGraph.into();
        assert!(e.to_string().contains("model"));
        let e: PipelineError = FtaError::InvalidThreshold { threshold: 3 }.into();
        assert!(e.to_string().contains("fta"));
        let e = PipelineError::BadConfig { reason: "zero images".to_string() };
        assert!(e.to_string().contains("zero images"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PipelineError>();
    }
}
