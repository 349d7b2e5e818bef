//! Accuracy-fidelity evaluation (the reproduction's substitute for Table 2).
//!
//! The paper reports CIFAR-100 top-1 accuracy of the original INT8 model
//! versus the FTA-approximated model (drop below 1 %). Without the original
//! pre-trained checkpoints this reproduction measures the same code path on
//! synthetic labelled batches: both models are executed image by image and
//! compared on (a) top-1 agreement between the two models, (b) "accuracy"
//! against the synthetic labels and (c) logit SQNR. The quantity standing in
//! for the paper's accuracy drop is `baseline_accuracy - fta_accuracy`.
//!
//! Fidelity is defined at every operand width: the FTA model is the INT8
//! baseline with its PIM weights replaced by the W-bit approximation
//! ([`ModelApprox::apply`](crate::ModelApprox::apply)), and both run on the
//! same evaluation batch with INT8 activations.

use dbpim_nn::QuantizedModel;
use dbpim_tensor::Tensor;
use serde::{Deserialize, Serialize};

use crate::error::FtaError;

/// Result of comparing a baseline INT8 model against its FTA variant at
/// any operand width.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FidelityReport {
    /// Number of evaluated images.
    pub images: usize,
    /// Fraction of images where both models predict the same class.
    pub top1_agreement: f64,
    /// Top-1 accuracy of the baseline INT8 model against the labels.
    pub baseline_accuracy: f64,
    /// Top-1 accuracy of the FTA model against the labels.
    pub fta_accuracy: f64,
    /// Mean signal-to-quantization-noise ratio of the FTA logits relative to
    /// the baseline logits, in dB.
    pub mean_logit_sqnr_db: f64,
}

impl FidelityReport {
    /// The accuracy drop introduced by the FTA approximation
    /// (positive = the FTA model is worse), the Table 2 "Accu. Drop" column.
    #[must_use]
    pub fn accuracy_drop(&self) -> f64 {
        self.baseline_accuracy - self.fta_accuracy
    }
}

/// Evaluates baseline-vs-FTA fidelity on a labelled batch.
///
/// # Errors
///
/// Returns [`FtaError::MismatchedBatch`] when image and label counts differ
/// and propagates execution errors from either model.
pub fn evaluate_fidelity(
    baseline: &QuantizedModel,
    fta: &QuantizedModel,
    images: &[Tensor<f32>],
    labels: &[usize],
) -> Result<FidelityReport, FtaError> {
    if images.len() != labels.len() {
        return Err(FtaError::MismatchedBatch { images: images.len(), labels: labels.len() });
    }
    if images.is_empty() {
        return Ok(FidelityReport {
            images: 0,
            top1_agreement: 1.0,
            baseline_accuracy: 0.0,
            fta_accuracy: 0.0,
            mean_logit_sqnr_db: f64::INFINITY,
        });
    }
    let mut agree = 0usize;
    let mut baseline_correct = 0usize;
    let mut fta_correct = 0usize;
    let mut sqnr_sum = 0.0f64;
    let mut sqnr_count = 0usize;
    for (image, &label) in images.iter().zip(labels) {
        let base_logits = baseline.forward(image)?;
        let fta_logits = fta.forward(image)?;
        let base_pred = dbpim_nn::argmax(base_logits.data());
        let fta_pred = dbpim_nn::argmax(fta_logits.data());
        if base_pred == fta_pred {
            agree += 1;
        }
        if base_pred == label {
            baseline_correct += 1;
        }
        if fta_pred == label {
            fta_correct += 1;
        }
        let sqnr = base_logits.sqnr_db(&fta_logits).map_err(FtaError::Tensor)?;
        if sqnr.is_finite() {
            sqnr_sum += f64::from(sqnr);
            sqnr_count += 1;
        }
    }
    let n = images.len() as f64;
    Ok(FidelityReport {
        images: images.len(),
        top1_agreement: agree as f64 / n,
        baseline_accuracy: baseline_correct as f64 / n,
        fta_accuracy: fta_correct as f64 / n,
        mean_logit_sqnr_db: if sqnr_count > 0 {
            sqnr_sum / sqnr_count as f64
        } else {
            f64::INFINITY
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::ModelApprox;
    use dbpim_nn::zoo;
    use dbpim_tensor::random::TensorGenerator;

    fn setup(seed: u64) -> (QuantizedModel, QuantizedModel, Vec<Tensor<f32>>, Vec<usize>) {
        let model = zoo::tiny_cnn(10, seed).unwrap();
        let mut gen = TensorGenerator::new(seed + 1);
        let (cal, _) = gen.labelled_batch(4, 3, 32, 32, 10).unwrap();
        let baseline = QuantizedModel::quantize(&model, &cal).unwrap();
        let approx = ModelApprox::from_quantized(&baseline).unwrap();
        let fta = approx.apply(&baseline).unwrap();
        let (images, labels) = gen.labelled_batch(12, 3, 32, 32, 10).unwrap();
        (baseline, fta, images, labels)
    }

    #[test]
    fn fta_model_mostly_agrees_with_baseline() {
        let (baseline, fta, images, labels) = setup(21);
        let report = evaluate_fidelity(&baseline, &fta, &images, &labels).unwrap();
        assert_eq!(report.images, 12);
        assert!(report.top1_agreement >= 0.75, "agreement {}", report.top1_agreement);
        assert!(report.accuracy_drop().abs() <= 0.25, "drop {}", report.accuracy_drop());
        assert!(report.mean_logit_sqnr_db > 3.0, "sqnr {}", report.mean_logit_sqnr_db);
    }

    #[test]
    fn identical_models_agree_perfectly() {
        let (baseline, _fta, images, labels) = setup(22);
        let report = evaluate_fidelity(&baseline, &baseline, &images, &labels).unwrap();
        assert_eq!(report.top1_agreement, 1.0);
        assert_eq!(report.accuracy_drop(), 0.0);
        assert!(report.mean_logit_sqnr_db.is_infinite());
    }

    #[test]
    fn mismatched_batches_are_rejected() {
        let (baseline, fta, images, _) = setup(23);
        let err = evaluate_fidelity(&baseline, &fta, &images, &[0, 1]).unwrap_err();
        assert!(matches!(err, FtaError::MismatchedBatch { .. }));
    }

    #[test]
    fn empty_batch_yields_neutral_report() {
        let (baseline, fta, _, _) = setup(24);
        let report = evaluate_fidelity(&baseline, &fta, &[], &[]).unwrap();
        assert_eq!(report.images, 0);
        assert_eq!(report.top1_agreement, 1.0);
    }
}
