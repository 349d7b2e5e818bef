//! Input-feature bit-sparsity measurement.
//!
//! The IPU operates on the bit-serial form of the operand the macro actually
//! multiplies: `q_x - zero_point`, i.e. the unsigned offset representation of
//! the quantized activation. For post-ReLU feature maps this operand is rich
//! in all-zero bit columns (Fig. 2(b)); this module measures that ratio per
//! PIM layer by running the quantized model on sample images.

use dbpim_compiler::InputSparsityProfile;
use dbpim_nn::QuantizedModel;
use dbpim_tensor::stats::centred_zero_bit_column_ratio;
use dbpim_tensor::Tensor;

use crate::error::PipelineError;

/// Group size the IPU inspects at once (one compartment row of features).
pub const IPU_GROUP: usize = 16;

/// Measures the block-wise zero bit-column ratio of every PIM layer's input
/// over a set of sample images.
///
/// # Errors
///
/// Propagates quantized-inference errors; an empty image list produces an
/// empty profile (no input sparsity assumed anywhere).
pub fn measure_input_sparsity(
    model: &QuantizedModel,
    images: &[Tensor<f32>],
) -> Result<InputSparsityProfile, PipelineError> {
    let mut profile = InputSparsityProfile::new();
    if images.is_empty() {
        return Ok(profile);
    }
    let pim_nodes = model.pim_node_ids();
    let mut sums = vec![0.0f64; pim_nodes.len()];
    for image in images {
        let outputs = {
            let _span = dbpim_trace::span!("nn.forward_i8");
            model.forward_all(image)?
        };
        let q_input = model.input_qp().quantize_tensor(image);
        for (slot, &node_id) in pim_nodes.iter().enumerate() {
            let node = &model.nodes()[node_id];
            let (tensor, zero_point) = if node.inputs.is_empty() {
                (&q_input, model.input_qp().zero_point())
            } else {
                let producer = node.inputs[0];
                (&outputs[producer], model.nodes()[producer].output_qp.zero_point())
            };
            sums[slot] += centred_zero_bit_column_ratio(tensor.data(), zero_point, IPU_GROUP);
        }
    }
    for (slot, &node_id) in pim_nodes.iter().enumerate() {
        profile.set(node_id, sums[slot] / images.len() as f64);
    }
    Ok(profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbpim_nn::zoo;
    use dbpim_tensor::random::TensorGenerator;

    #[test]
    fn profile_covers_every_pim_layer() {
        let model = zoo::tiny_cnn(10, 31).unwrap();
        let mut gen = TensorGenerator::new(32);
        let (images, _) = gen.labelled_batch(3, 3, 32, 32, 10).unwrap();
        let quantized = QuantizedModel::quantize(&model, &images[..2]).unwrap();
        let profile = measure_input_sparsity(&quantized, &images).unwrap();
        assert_eq!(profile.len(), quantized.pim_node_ids().len());
        for id in quantized.pim_node_ids() {
            let ratio = profile.ratio(id);
            assert!((0.0..=1.0).contains(&ratio), "ratio {ratio} for node {id}");
        }
        // Post-ReLU layers should expose a meaningful amount of block-wise
        // zero bit columns (Fig. 2(b): tens of percent).
        assert!(profile.mean_ratio() > 0.1, "mean ratio {}", profile.mean_ratio());
    }

    #[test]
    fn empty_image_list_gives_empty_profile() {
        let model = zoo::tiny_cnn(10, 33).unwrap();
        let mut gen = TensorGenerator::new(34);
        let (images, _) = gen.labelled_batch(1, 3, 32, 32, 10).unwrap();
        let quantized = QuantizedModel::quantize(&model, &images).unwrap();
        let profile = measure_input_sparsity(&quantized, &[]).unwrap();
        assert!(profile.is_empty());
    }
}
