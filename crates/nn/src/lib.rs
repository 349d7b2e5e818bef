//! Neural-network substrate for the DB-PIM reproduction.
//!
//! The paper's experiments run five CIFAR-100 CNNs (AlexNet, VGG-19,
//! ResNet-18, MobileNetV2, EfficientNet-B0) through an 8b/8b quantization
//! flow, the FTA approximation and finally the DB-PIM architecture simulator.
//! This crate provides everything up to (and including) quantized inference:
//!
//! * [`Layer`] / [`Model`] / [`ModelBuilder`] — a small DAG-of-layers graph
//!   representation with a float executor ([`ops`] holds the reference
//!   implementations).
//! * [`QuantizedModel`] — post-training INT8 quantization (per-channel
//!   symmetric weights, per-tensor affine activations) with true integer
//!   accumulation for the convolution / fully-connected layers that the PIM
//!   macros execute; their weights can be replaced at any operand width.
//! * [`zoo`] — the five paper topologies adapted to 32×32 inputs, built with
//!   distribution-matched synthetic weights.
//! * `reference` (feature `scalar-reference`) — the scalar convolution
//!   loops the vectorized float and INT8 kernels replaced, kept as test and
//!   benchmark oracles.
//!
//! # Example
//!
//! ```
//! use dbpim_nn::{zoo, QuantizedModel};
//! use dbpim_tensor::random::TensorGenerator;
//!
//! let model = zoo::tiny_cnn(10, 7)?;
//! let mut gen = TensorGenerator::new(1);
//! let (images, _labels) = gen.labelled_batch(2, 3, 32, 32, 10)?;
//! let quantized = QuantizedModel::quantize(&model, &images)?;
//! let class = quantized.predict(&images[0])?;
//! assert!(class < 10);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod graph;
mod layer;
pub mod ops;
mod quantized;
#[cfg(any(test, feature = "scalar-reference"))]
pub mod reference;
pub mod summary;
pub mod zoo;

pub use error::NnError;
pub use graph::{argmax, Model, ModelBuilder, Node, NodeId};
pub use layer::{Activation, BatchNormParams, Conv2dCfg, Layer, LinearCfg, Pool2dCfg, PoolKind};
pub use quantized::{fold_batch_norm, QuantizedLayer, QuantizedModel, QuantizedNode};
pub use summary::{LayerSummary, ModelSummary};
pub use zoo::{ModelKind, CIFAR100_CLASSES, CIFAR_INPUT};

pub use dbpim_tensor::{PruningMode, PruningSpec};
