//! Dense tensors, quantization and bit-level sparsity statistics.
//!
//! This crate is the data substrate of the DB-PIM reproduction. It provides:
//!
//! * [`Tensor`] — a simple dense row-major tensor over `f32` or integer
//!   elements with shape/stride bookkeeping and the handful of operations the
//!   neural-network substrate needs (indexing, mapping, im2col).
//! * [`quant`] — per-tensor affine INT8 quantization of activations and
//!   per-output-channel symmetric quantization of weights at every operand
//!   width; INT8 weights are the paper's 8b/8b setting.
//! * [`prune`] — deterministic magnitude pruning ([`PruningSpec`]), the
//!   value-level-sparsity mask applied before quantization so zero weights
//!   flow through the whole bit-sparsity pipeline.
//! * [`random`] — deterministic synthetic weight and activation generators
//!   whose value distributions produce the bit-level statistics reported in
//!   Fig. 2 of the paper.
//! * [`stats`] — bit-level sparsity analyses: zero-bit ratios for plain binary
//!   and CSD encodings (Fig. 2(a)) and block-wise zero bit-column statistics
//!   of input features (Fig. 2(b)).
//!
//! # Example
//!
//! ```
//! use dbpim_tensor::{Tensor, quant::QuantParams};
//!
//! let activations = Tensor::from_vec(vec![0.5f32, -0.25, 0.0, 1.0], vec![2, 2])?;
//! let (min, max) = activations.min_max();
//! let params = QuantParams::affine_from_range(min, max);
//! let q = params.quantize_tensor(&activations);
//! assert_eq!(q.shape(), &[2, 2]);
//! # Ok::<(), dbpim_tensor::TensorError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod prune;
pub mod quant;
pub mod random;
pub mod shape;
pub mod stats;
mod tensor;

pub use error::TensorError;
pub use prune::{PruningMode, PruningSpec};
pub use shape::Shape;
pub use tensor::Tensor;

/// Convenience alias for a 32-bit floating point tensor.
pub type TensorF32 = Tensor<f32>;
/// Convenience alias for an INT8 tensor (quantized weights / activations).
pub type TensorI8 = Tensor<i8>;
/// Convenience alias for a 32-bit integer accumulator tensor.
pub type TensorI32 = Tensor<i32>;
