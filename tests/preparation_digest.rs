//! Preparation bytes pinned across versions.
//!
//! Every other byte-identity suite compares two paths of one build (fleet
//! vs `dse_sweep`, traced vs untraced, INT8 sweep vs `Pipeline`), so a
//! kernel change that flipped one float bit in both paths would pass them
//! all. This suite pins FNV-1a-64 digests of the JSON of what preparation
//! produces — the quantized model, the FTA statistics and the input
//! sparsity profile — for every zoo model at INT8 and at INT4 with 50 %
//! unstructured pruning. The digest is written out here because
//! `DefaultHasher` is not stable across Rust versions.
//!
//! The width is the smallest that still gives every layer at least eight
//! channels per group (the lane width of the float and integer kernels)
//! while keeping a debug-mode run short. A digest that changes means
//! preparation produces different bytes: find out why before updating it.

use db_pim::{ModelArtifacts, PipelineConfig};
use dbpim_csd::OperandWidth;
use dbpim_nn::ModelKind;
use dbpim_tensor::PruningSpec;

const WIDTH_MULT: f32 = 0.0625;

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(quantized model, FTA statistics, input sparsity)` digests of one
/// preparation.
fn digests(kind: ModelKind, width: OperandWidth, pruning: PruningSpec) -> [u64; 3] {
    let config = PipelineConfig {
        seed: 1,
        width_mult: WIDTH_MULT,
        calibration_images: 1,
        ..PipelineConfig::fast().without_fidelity()
    }
    .with_operand_width(width)
    .with_pruning(pruning);
    let model = kind.build_with_width(config.classes, config.seed, config.width_mult).unwrap();
    let (front, _) = ModelArtifacts::front_end(&config, &model).unwrap();
    let artifacts = ModelArtifacts::prepare(&config, &model).unwrap();
    let json = [
        serde_json::to_string(&front.quantized).unwrap(),
        serde_json::to_string(artifacts.fta_stats()).unwrap(),
        serde_json::to_string(artifacts.input_sparsity()).unwrap(),
    ];
    json.map(|text| fnv1a64(text.as_bytes()))
}

/// Recorded before the vectorized preparation kernels landed, from the
/// scalar-loop implementation.
const INT8: [(ModelKind, [u64; 3]); 5] = [
    (ModelKind::AlexNet, [0x1637ed558661ef2c, 0xc08bcdb99d04d2d4, 0xfa13ac854fa0c703]),
    (ModelKind::Vgg19, [0x49d0ad9ba14b3620, 0x8881adf1f69f9572, 0x515449a247cc5bbc]),
    (ModelKind::ResNet18, [0xa23e0cf560ea6484, 0x549ef4500fe7d37c, 0xf906687510c74387]),
    (ModelKind::MobileNetV2, [0x73f2a1ee75c8eb2a, 0x0122f5d6bf7d59c3, 0x6c7961e69890f07e]),
    (ModelKind::EfficientNetB0, [0x506f77062d763e07, 0x750b63570e71b867, 0xd31a899cccd9b6ea]),
];

/// As [`INT8`], at INT4 with `PruningSpec::unstructured(0.5)`.
const INT4_PRUNED: [(ModelKind, [u64; 3]); 5] = [
    (ModelKind::AlexNet, [0x364e87d678728379, 0xab6a042027123d8e, 0x0ab88a8eee8ecb97]),
    (ModelKind::Vgg19, [0x45fcb9c3b527c5a1, 0x67cc7701d4636b04, 0x861b5830fe7babbf]),
    (ModelKind::ResNet18, [0xa72fc5a5928c99d1, 0x9398f8f1e3533fc0, 0x65722057c8bfaee5]),
    (ModelKind::MobileNetV2, [0xadd15dbdee21a7a3, 0x7211bd2c3bb9be7e, 0x8eb60d7166d75ab0]),
    (ModelKind::EfficientNetB0, [0x905df66d1c7153c0, 0x7467be285d41462b, 0x2827e093c5afa1f3]),
];

fn check(table: &[(ModelKind, [u64; 3])], width: OperandWidth, pruning: PruningSpec) {
    let mut mismatches = Vec::new();
    for &(kind, want) in table {
        let got = digests(kind, width, pruning);
        if got != want {
            let [a, b, c] = got;
            mismatches
                .push(format!("    (ModelKind::{kind:?}, [{a:#018x}, {b:#018x}, {c:#018x}]),"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{width} {pruning:?} preparation bytes changed; got:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn int8_preparation_bytes_are_pinned() {
    check(&INT8, OperandWidth::Int8, PruningSpec::none());
}

#[test]
fn int4_pruned_preparation_bytes_are_pinned() {
    check(&INT4_PRUNED, OperandWidth::Int4, PruningSpec::unstructured(0.5));
}
