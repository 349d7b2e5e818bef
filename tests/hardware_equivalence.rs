//! Cross-crate equivalence: the bit-accurate PIM macro computes exactly the
//! integer arithmetic the quantized model and the FTA metadata describe.

use db_pim::prelude::*;
use dbpim_arch::ArchConfig as MacroConfig;
use dbpim_fta::metadata::{FilterMetadata, LayerMetadata};
use dbpim_fta::ModelApprox as Approx;

/// Builds a quantized tiny CNN together with its FTA approximation and a
/// quantized input image.
fn setup(seed: u64) -> (QuantizedModel, Approx, Tensor<f32>) {
    let model = zoo::tiny_cnn(10, seed).expect("model builds");
    let mut gen = TensorGenerator::new(seed + 100);
    let (calibration, _) = gen.labelled_batch(2, 3, 32, 32, 10).expect("batch");
    let quantized = QuantizedModel::quantize(&model, &calibration).expect("quantizes");
    let approx = Approx::from_quantized(&quantized).expect("approximates");
    (quantized, approx, calibration[0].clone())
}

#[test]
fn macro_reproduces_the_fc_layer_integer_accumulation() {
    let (quantized, approx, image) = setup(7);
    // The last PIM node of the tiny CNN is the fully-connected classifier.
    let fc_id = *quantized.pim_node_ids().last().expect("has PIM layers");
    let fc_layer = approx.layer(fc_id).expect("fc approximated");

    // Its input activations: the output of the producing node, quantized.
    let outputs = quantized.forward_all(&image).expect("runs");
    let producer = quantized.nodes()[fc_id].inputs[0];
    let inputs: Vec<i8> = outputs[producer].data().to_vec();
    let zero_point = quantized.nodes()[producer].output_qp.zero_point();

    // Execute every filter on the bit-accurate macro, eight at a time.
    let metadata: Vec<FilterMetadata> = fc_layer
        .filters()
        .iter()
        .enumerate()
        .map(|(i, f)| FilterMetadata::from_filter(i, f))
        .collect();
    let mut macro_outputs: Vec<i64> = Vec::new();
    for chunk in metadata.chunks(8) {
        let mut pim = PimMacro::new(MacroConfig::paper()).expect("macro builds");
        let exec =
            pim.execute_sparse_tile(chunk, &inputs, &InputPreprocessor::new()).expect("tile fits");
        macro_outputs.extend(exec.outputs);
    }

    // Reference: the same integer accumulation the quantized executor uses,
    // acc = sum (q_x - zp) * q_w, rebuilt from the approximated weights.
    for (f, filter) in fc_layer.filters().iter().enumerate() {
        let weight_sum: i64 = filter.values().iter().map(|&w| i64::from(w)).sum();
        let reference: i64 = filter
            .values()
            .iter()
            .zip(&inputs)
            .map(|(&w, &x)| i64::from(w) * (i64::from(x) - i64::from(zero_point)))
            .sum();
        // The macro multiplies against the raw INT8 pattern; the zero-point
        // correction `zp * Σw` is a scalar the post-processing applies.
        let adjusted = macro_outputs[f] - i64::from(zero_point) * weight_sum;
        assert_eq!(adjusted, reference, "filter {f}");
    }
}

#[test]
fn metadata_reconstruction_is_lossless_for_every_pim_layer() {
    let (quantized, approx, _) = setup(8);
    for &node_id in &quantized.pim_node_ids() {
        let layer = approx.layer(node_id).expect("layer approximated");
        let metadata = LayerMetadata::from_layer(layer);
        let approx_tensor = layer.approximated_tensor();
        let filter_len = layer.filter_len();
        for (f, filter_meta) in metadata.filters.iter().enumerate() {
            for (j, slots) in filter_meta.weights.iter().enumerate() {
                let expected = i32::from(approx_tensor.values().data()[f * filter_len + j]);
                assert_eq!(slots.reconstruct(), expected, "node {node_id}, filter {f}, weight {j}");
            }
        }
        assert!(metadata.utilization() > 0.0 && metadata.utilization() <= 1.0);
    }
}

#[test]
fn fta_weight_substitution_changes_only_pim_weights() {
    let (quantized, approx, image) = setup(9);
    let fta_model = approx.apply(&quantized).expect("applies");
    assert_eq!(fta_model.nodes().len(), quantized.nodes().len());
    // Non-PIM nodes are untouched.
    for (a, b) in quantized.nodes().iter().zip(fta_model.nodes()) {
        if !a.layer.is_pim_layer() {
            assert_eq!(a, b, "non-PIM node {} changed", a.name);
        }
    }
    // The approximated model still runs and produces the same output shape.
    let original = quantized.forward(&image).expect("baseline runs");
    let substituted = fta_model.forward(&image).expect("fta model runs");
    assert_eq!(original.shape(), substituted.shape());
}
