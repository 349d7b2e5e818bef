//! Fixed Threshold Approximation (FTA) — the algorithm half of DB-PIM.
//!
//! The paper's Algorithm 1 turns an INT8 weight tensor into a *dyadic-block
//! regular* tensor: per filter, every weight uses at most the same fixed
//! number `φ_th ∈ {0, 1, 2}` of non-zero CSD digits, while the positions of
//! those digits stay unstructured. This crate provides:
//!
//! * [`QueryTable`] / [`QueryTables`] — the sets `T(φ_th)` of representable
//!   values.
//! * [`FilterApprox`] / [`LayerApprox`] / [`ModelApprox`] — Algorithm 1 on a
//!   filter, a layer and a whole quantized model.
//! * [`metadata`] — extraction of the per-cell metadata (sign + dyadic-block
//!   index) the hardware stores in its metadata register files, plus lossless
//!   reconstruction.
//! * [`stats`] — Fig. 2(a)-style sparsity ratios and the `U_act` utilization
//!   of Table 3.
//! * [`fidelity`] — the Table 2 substitute comparing the INT8 baseline model
//!   against its FTA variant at any operand width.
//!
//! # Example
//!
//! ```
//! use dbpim_fta::{ModelApprox, stats::ModelFtaStats};
//! use dbpim_nn::{zoo, QuantizedModel};
//! use dbpim_tensor::random::TensorGenerator;
//!
//! let model = zoo::tiny_cnn(10, 3)?;
//! let mut gen = TensorGenerator::new(4);
//! let (calibration, _) = gen.labelled_batch(2, 3, 32, 32, 10)?;
//! let quantized = QuantizedModel::quantize(&model, &calibration)?;
//! let approx = ModelApprox::from_quantized(&quantized)?;
//! let stats = ModelFtaStats::from_model(&approx);
//! assert!(stats.fta_zero_ratio() > stats.binary_zero_ratio());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algorithm;
mod error;
pub mod fidelity;
pub mod metadata;
pub mod stats;
mod table;

pub use algorithm::{select_threshold, FilterApprox, LayerApprox, ModelApprox};
pub use error::FtaError;
pub use fidelity::{evaluate_fidelity, FidelityReport};
pub use table::{QueryTable, QueryTables, MAX_THRESHOLD};
