//! Wire bytes pinned across versions.
//!
//! Every fleet point, serve reply, shard journal and DSE snapshot carries
//! `SweepEntry`/`DseEntry` JSON. This suite pins FNV-1a-64 digests of each
//! zoo model's `SweepEntry` JSON at the paper geometry (all four sparsity
//! configurations) at INT8 and at INT4 with 50 % unstructured pruning, and
//! checks that decoding the text and encoding it again gives the same bytes.
//! A change to the JSON codec that moves one byte of a record — a float
//! printed differently, a field reordered, an omitted field written — fails
//! here even when both sides of every round-trip suite move together.
//!
//! The preparation settings match `tests/preparation_digest.rs`, which pins
//! the bytes that go into these entries. A digest that changes means the
//! wire format changed: find out why before updating it.

use db_pim::{BatchRunner, PipelineConfig, SweepEntry};
use dbpim_arch::ArchConfig;
use dbpim_csd::OperandWidth;
use dbpim_nn::ModelKind;
use dbpim_sim::SparsityConfig;
use dbpim_tensor::PruningSpec;

const WIDTH_MULT: f32 = 0.0625;

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The digest of one model's entry JSON, after checking that the text
/// decodes to the same entry and re-encodes to the same bytes.
fn digest(runner: &BatchRunner, kind: ModelKind, width: OperandWidth, pruning: PruningSpec) -> u64 {
    let entry = runner
        .run_point_pruned(
            kind,
            width,
            pruning,
            Some(ArchConfig::paper()),
            &SparsityConfig::all(),
            false,
        )
        .unwrap();
    let json = serde_json::to_string(&entry).unwrap();
    let back: SweepEntry = serde_json::from_str(&json).unwrap();
    assert_eq!(back, entry, "{kind:?} {width}: the decoded entry differs");
    assert_eq!(
        serde_json::to_string(&back).unwrap(),
        json,
        "{kind:?} {width}: re-encoding moved bytes"
    );
    fnv1a64(json.as_bytes())
}

/// Recorded before the JSON codec stopped building value trees.
const INT8: [(ModelKind, u64); 5] = [
    (ModelKind::AlexNet, 0x7849c8215b5c623f),
    (ModelKind::Vgg19, 0x65c5c45b3a56923f),
    (ModelKind::ResNet18, 0xbbd84d7462a73bc2),
    (ModelKind::MobileNetV2, 0x58887898fd8f7e5b),
    (ModelKind::EfficientNetB0, 0x33cbf40752d76613),
];

/// As [`INT8`], at INT4 with `PruningSpec::unstructured(0.5)`.
const INT4_PRUNED: [(ModelKind, u64); 5] = [
    (ModelKind::AlexNet, 0x0fdfb62bbfbedd3f),
    (ModelKind::Vgg19, 0x2c18139148a2fe92),
    (ModelKind::ResNet18, 0xbe63418b28292019),
    (ModelKind::MobileNetV2, 0x6a83c0a4a075ddd8),
    (ModelKind::EfficientNetB0, 0xf0203563236d8720),
];

fn check(table: &[(ModelKind, u64)], width: OperandWidth, pruning: PruningSpec) {
    let config = PipelineConfig {
        seed: 1,
        width_mult: WIDTH_MULT,
        calibration_images: 1,
        ..PipelineConfig::fast().without_fidelity()
    };
    let runner = BatchRunner::new(config).unwrap();
    let mut mismatches = Vec::new();
    for &(kind, want) in table {
        let got = digest(&runner, kind, width, pruning);
        if got != want {
            mismatches.push(format!("    (ModelKind::{kind:?}, {got:#018x}),"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{width} {pruning:?} sweep entry bytes changed; got:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn int8_sweep_entry_bytes_are_pinned() {
    check(&INT8, OperandWidth::Int8, PruningSpec::none());
}

#[test]
fn int4_pruned_sweep_entry_bytes_are_pinned() {
    check(&INT4_PRUNED, OperandWidth::Int4, PruningSpec::unstructured(0.5));
}
