//! Error type for the FTA algorithm crate.

use std::error::Error;
use std::fmt;

use dbpim_nn::NnError;
use dbpim_tensor::TensorError;

/// Errors produced by the FTA approximation and metadata extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FtaError {
    /// An underlying tensor operation failed.
    Tensor(TensorError),
    /// An underlying neural-network operation failed.
    Nn(NnError),
    /// A weight tensor has an unusable shape for per-filter grouping.
    BadWeightShape {
        /// The offending shape.
        shape: Vec<usize>,
    },
    /// A threshold outside the supported `0..=2` range was requested.
    InvalidThreshold {
        /// The requested threshold.
        threshold: u32,
    },
    /// Mismatched image / label counts in a fidelity evaluation.
    MismatchedBatch {
        /// Number of images supplied.
        images: usize,
        /// Number of labels supplied.
        labels: usize,
    },
    /// The referenced layer does not exist in the approximation.
    UnknownLayer {
        /// The requested graph node id.
        node_id: usize,
    },
}

impl fmt::Display for FtaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FtaError::Tensor(e) => write!(f, "tensor error: {e}"),
            FtaError::Nn(e) => write!(f, "model error: {e}"),
            FtaError::BadWeightShape { shape } => {
                write!(f, "weight tensor shape {shape:?} cannot be grouped into filters")
            }
            FtaError::InvalidThreshold { threshold } => {
                write!(f, "threshold {threshold} is outside the supported range 0..=2")
            }
            FtaError::MismatchedBatch { images, labels } => {
                write!(f, "fidelity batch has {images} images but {labels} labels")
            }
            FtaError::UnknownLayer { node_id } => {
                write!(f, "no approximated layer for graph node {node_id}")
            }
        }
    }
}

impl Error for FtaError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FtaError::Tensor(e) => Some(e),
            FtaError::Nn(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for FtaError {
    fn from(e: TensorError) -> Self {
        FtaError::Tensor(e)
    }
}

impl From<NnError> for FtaError {
    fn from(e: NnError) -> Self {
        FtaError::Nn(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_specific() {
        let e = FtaError::InvalidThreshold { threshold: 9 };
        assert!(e.to_string().contains('9'));
        let e = FtaError::BadWeightShape { shape: vec![1] };
        assert!(e.to_string().contains("[1]"));
    }

    #[test]
    fn conversions_from_substrate_errors() {
        let e: FtaError = TensorError::EmptyShape.into();
        assert!(matches!(e, FtaError::Tensor(_)));
        let e: FtaError = NnError::EmptyGraph.into();
        assert!(matches!(e, FtaError::Nn(_)));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FtaError>();
    }
}
