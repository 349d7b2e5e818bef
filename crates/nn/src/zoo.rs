//! The CIFAR-100 model zoo used by the paper's evaluation.
//!
//! Five topologies are provided, matching Table 2 / Fig. 7 of the paper:
//! AlexNet, VGG-19, ResNet-18, MobileNetV2 and EfficientNet-B0, all adapted
//! to 32×32 inputs as is standard for CIFAR experiments. Weights are
//! synthetic (see `dbpim_tensor::random`): the reproduction substitutes
//! pre-trained checkpoints with distribution-matched tensors, which preserves
//! the bit-level statistics every hardware result depends on.
//!
//! A `width_mult` below `1.0` scales every channel count, which the test
//! suite uses to exercise the full topologies at a fraction of the cost.

use dbpim_tensor::random::TensorGenerator;
use serde::{Deserialize, Serialize};

use crate::error::NnError;
use crate::graph::{Model, ModelBuilder, NodeId};
use crate::layer::{Activation, BatchNormParams, Conv2dCfg, Layer, LinearCfg, Pool2dCfg};

/// Number of classes in the CIFAR-100 dataset.
pub const CIFAR100_CLASSES: usize = 100;
/// Input shape of a CIFAR image: `[channels, height, width]`.
pub const CIFAR_INPUT: [usize; 3] = [3, 32, 32];

/// The five network topologies evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    /// AlexNet adapted to CIFAR (five convolutions, three FC layers).
    AlexNet,
    /// VGG-19 with batch norm, CIFAR head.
    Vgg19,
    /// ResNet-18 (CIFAR stem, four stages of basic blocks).
    ResNet18,
    /// MobileNetV2 (inverted residual blocks, ReLU6).
    MobileNetV2,
    /// EfficientNet-B0 (MBConv blocks with squeeze-and-excite, SiLU).
    EfficientNetB0,
}

impl ModelKind {
    /// All five paper models in the order the figures report them.
    #[must_use]
    pub fn all() -> [ModelKind; 5] {
        [
            ModelKind::AlexNet,
            ModelKind::Vgg19,
            ModelKind::ResNet18,
            ModelKind::MobileNetV2,
            ModelKind::EfficientNetB0,
        ]
    }

    /// Display name used in reports and figures.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::AlexNet => "AlexNet",
            ModelKind::Vgg19 => "VGG19",
            ModelKind::ResNet18 => "ResNet18",
            ModelKind::MobileNetV2 => "MobileNetV2",
            ModelKind::EfficientNetB0 => "EfficientNetB0",
        }
    }

    /// Returns `true` for the compact models (MobileNetV2, EfficientNet-B0),
    /// which the paper singles out as having little redundancy.
    #[must_use]
    pub fn is_compact(&self) -> bool {
        matches!(self, ModelKind::MobileNetV2 | ModelKind::EfficientNetB0)
    }

    /// Builds the full-width model with synthetic weights.
    ///
    /// # Errors
    ///
    /// Returns a graph or shape error if construction fails (it should not
    /// for the built-in topologies).
    pub fn build(&self, classes: usize, seed: u64) -> Result<Model, NnError> {
        self.build_with_width(classes, seed, 1.0)
    }

    /// Builds the model with every channel count scaled by `width_mult`
    /// (rounded up to a minimum of 8 channels).
    ///
    /// # Errors
    ///
    /// Returns a graph or shape error if construction fails.
    pub fn build_with_width(
        &self,
        classes: usize,
        seed: u64,
        width_mult: f32,
    ) -> Result<Model, NnError> {
        let _span = dbpim_trace::span!("nn.build", model = self.name());
        let mut ctx = BuildCtx::new(seed, width_mult);
        match self {
            ModelKind::AlexNet => alexnet(&mut ctx, classes),
            ModelKind::Vgg19 => vgg19(&mut ctx, classes),
            ModelKind::ResNet18 => resnet18(&mut ctx, classes),
            ModelKind::MobileNetV2 => mobilenet_v2(&mut ctx, classes),
            ModelKind::EfficientNetB0 => efficientnet_b0(&mut ctx, classes),
        }
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for ModelKind {
    type Err = NnError;

    /// Parses a zoo model name, case-insensitively and ignoring `-`/`_`
    /// separators: `"AlexNet"`, `"vgg19"`, `"resnet-18"`,
    /// `"mobilenet_v2"` and `"EfficientNet-B0"` all resolve.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let folded: String = s
            .trim()
            .chars()
            .filter(|c| !matches!(c, '-' | '_'))
            .flat_map(char::to_lowercase)
            .collect();
        match folded.as_str() {
            "alexnet" => Ok(ModelKind::AlexNet),
            "vgg19" => Ok(ModelKind::Vgg19),
            "resnet18" => Ok(ModelKind::ResNet18),
            "mobilenetv2" => Ok(ModelKind::MobileNetV2),
            "efficientnetb0" => Ok(ModelKind::EfficientNetB0),
            _ => Err(NnError::UnknownModel { name: s.to_string() }),
        }
    }
}

/// A small three-convolution CNN used by tests and the quickstart example.
///
/// # Errors
///
/// Returns a graph or shape error if construction fails.
pub fn tiny_cnn(classes: usize, seed: u64) -> Result<Model, NnError> {
    let mut ctx = BuildCtx::new(seed, 1.0);
    let mut b = ModelBuilder::new("tiny_cnn", vec![3, 32, 32]);
    ctx.conv_bn_act(&mut b, "conv1", Conv2dCfg::new(3, 16, 3).with_padding(1), Activation::Relu)?;
    b.chain("pool1", Layer::Pool2d(Pool2dCfg::max(2)));
    ctx.conv_bn_act(&mut b, "conv2", Conv2dCfg::new(16, 32, 3).with_padding(1), Activation::Relu)?;
    b.chain("pool2", Layer::Pool2d(Pool2dCfg::max(2)));
    ctx.conv_bn_act(&mut b, "conv3", Conv2dCfg::new(32, 32, 3).with_padding(1), Activation::Relu)?;
    b.chain("gap", Layer::GlobalAvgPool);
    b.chain("flatten", Layer::Flatten);
    ctx.linear(&mut b, "fc", 32, classes, true)?;
    b.build()
}

/// Shared construction context: a deterministic weight generator plus the
/// width multiplier.
struct BuildCtx {
    gen: TensorGenerator,
    width_mult: f32,
}

impl BuildCtx {
    fn new(seed: u64, width_mult: f32) -> Self {
        Self { gen: TensorGenerator::new(seed), width_mult }
    }

    /// Scales a channel count by the width multiplier (minimum 8).
    fn ch(&self, channels: usize) -> usize {
        if (self.width_mult - 1.0).abs() < f32::EPSILON {
            return channels;
        }
        (((channels as f32) * self.width_mult).round() as usize).max(8)
    }

    fn synthetic_bn(&mut self, channels: usize) -> Result<BatchNormParams, NnError> {
        use dbpim_tensor::random::Distribution;
        let gamma = self.gen.tensor(vec![channels], Distribution::Gaussian { std: 0.1 })?;
        let beta = self.gen.tensor(vec![channels], Distribution::Gaussian { std: 0.05 })?;
        let var = self.gen.tensor(vec![channels], Distribution::Gaussian { std: 0.1 })?;
        Ok(BatchNormParams {
            gamma: gamma.data().iter().map(|g| 1.0 + g).collect(),
            beta: beta.data().to_vec(),
            mean: vec![0.0; channels],
            var: var.data().iter().map(|v| (1.0 + v).max(0.25)).collect(),
            eps: 1e-5,
        })
    }

    fn conv(
        &mut self,
        b: &mut ModelBuilder,
        name: &str,
        cfg: Conv2dCfg,
        bias: bool,
    ) -> Result<NodeId, NnError> {
        let weight = self.gen.weight_tensor(cfg.weight_dims())?;
        let bias = if bias { Some(vec![0.0; cfg.out_channels]) } else { None };
        Ok(b.chain(name, Layer::Conv2d { cfg, weight, bias }))
    }

    fn conv_bn_act(
        &mut self,
        b: &mut ModelBuilder,
        name: &str,
        cfg: Conv2dCfg,
        act: Activation,
    ) -> Result<NodeId, NnError> {
        self.conv(b, name, cfg, false)?;
        let bn = self.synthetic_bn(cfg.out_channels)?;
        b.chain(format!("{name}.bn"), Layer::BatchNorm(bn));
        Ok(b.chain(format!("{name}.act"), Layer::Activation(act)))
    }

    fn conv_bn(
        &mut self,
        b: &mut ModelBuilder,
        name: &str,
        cfg: Conv2dCfg,
    ) -> Result<NodeId, NnError> {
        self.conv(b, name, cfg, false)?;
        let bn = self.synthetic_bn(cfg.out_channels)?;
        Ok(b.chain(format!("{name}.bn"), Layer::BatchNorm(bn)))
    }

    fn linear(
        &mut self,
        b: &mut ModelBuilder,
        name: &str,
        in_features: usize,
        out_features: usize,
        bias: bool,
    ) -> Result<NodeId, NnError> {
        let cfg = LinearCfg::new(in_features, out_features);
        let weight = self.gen.weight_tensor(vec![out_features, in_features])?;
        let bias = if bias { Some(vec![0.0; out_features]) } else { None };
        Ok(b.chain(name, Layer::Linear { cfg, weight, bias }))
    }
}

fn alexnet(ctx: &mut BuildCtx, classes: usize) -> Result<Model, NnError> {
    let mut b = ModelBuilder::new("alexnet", CIFAR_INPUT.to_vec());
    let c = |n: usize| ctx.ch(n);
    let (c64, c192, c384, c256) = (c(64), c(192), c(384), c(256));
    ctx.conv_bn_act(
        &mut b,
        "conv1",
        Conv2dCfg::new(3, c64, 3).with_stride(2).with_padding(1),
        Activation::Relu,
    )?;
    b.chain("pool1", Layer::Pool2d(Pool2dCfg::max(2)));
    ctx.conv_bn_act(
        &mut b,
        "conv2",
        Conv2dCfg::new(c64, c192, 3).with_padding(1),
        Activation::Relu,
    )?;
    b.chain("pool2", Layer::Pool2d(Pool2dCfg::max(2)));
    ctx.conv_bn_act(
        &mut b,
        "conv3",
        Conv2dCfg::new(c192, c384, 3).with_padding(1),
        Activation::Relu,
    )?;
    ctx.conv_bn_act(
        &mut b,
        "conv4",
        Conv2dCfg::new(c384, c256, 3).with_padding(1),
        Activation::Relu,
    )?;
    ctx.conv_bn_act(
        &mut b,
        "conv5",
        Conv2dCfg::new(c256, c256, 3).with_padding(1),
        Activation::Relu,
    )?;
    b.chain("pool3", Layer::Pool2d(Pool2dCfg::max(2)));
    b.chain("flatten", Layer::Flatten);
    let flat = c256 * 2 * 2;
    let hidden = ctx.ch(4096);
    ctx.linear(&mut b, "fc1", flat, hidden, true)?;
    b.chain("fc1.act", Layer::Activation(Activation::Relu));
    ctx.linear(&mut b, "fc2", hidden, hidden, true)?;
    b.chain("fc2.act", Layer::Activation(Activation::Relu));
    ctx.linear(&mut b, "fc3", hidden, classes, true)?;
    b.build()
}

fn vgg19(ctx: &mut BuildCtx, classes: usize) -> Result<Model, NnError> {
    // Configuration "E": channel counts with 'M' marking 2x2 max pools.
    const CFG: [&str; 21] = [
        "64", "64", "M", "128", "128", "M", "256", "256", "256", "256", "M", "512", "512", "512",
        "512", "M", "512", "512", "512", "512", "M",
    ];
    let mut b = ModelBuilder::new("vgg19", CIFAR_INPUT.to_vec());
    let mut in_ch = 3usize;
    let mut conv_idx = 0usize;
    let mut pool_idx = 0usize;
    for entry in CFG {
        if entry == "M" {
            pool_idx += 1;
            b.chain(format!("pool{pool_idx}"), Layer::Pool2d(Pool2dCfg::max(2)));
        } else {
            conv_idx += 1;
            let out_ch = ctx.ch(entry.parse::<usize>().expect("static config"));
            ctx.conv_bn_act(
                &mut b,
                &format!("conv{conv_idx}"),
                Conv2dCfg::new(in_ch, out_ch, 3).with_padding(1),
                Activation::Relu,
            )?;
            in_ch = out_ch;
        }
    }
    b.chain("flatten", Layer::Flatten);
    let hidden = ctx.ch(512);
    ctx.linear(&mut b, "fc1", in_ch, hidden, true)?;
    b.chain("fc1.act", Layer::Activation(Activation::Relu));
    ctx.linear(&mut b, "fc2", hidden, classes, true)?;
    b.build()
}

fn resnet18(ctx: &mut BuildCtx, classes: usize) -> Result<Model, NnError> {
    let mut b = ModelBuilder::new("resnet18", CIFAR_INPUT.to_vec());
    let stem_ch = ctx.ch(64);
    ctx.conv_bn_act(
        &mut b,
        "stem",
        Conv2dCfg::new(3, stem_ch, 3).with_padding(1),
        Activation::Relu,
    )?;
    let mut in_ch = stem_ch;
    let stages: [(usize, usize); 4] = [(64, 1), (128, 2), (256, 2), (512, 2)];
    for (stage, &(channels, first_stride)) in stages.iter().enumerate() {
        let out_ch = ctx.ch(channels);
        for block in 0..2 {
            let stride = if block == 0 { first_stride } else { 1 };
            let prefix = format!("stage{}.block{block}", stage + 1);
            let block_input = b.last().expect("stem exists");
            // Main branch.
            ctx.conv_bn_act(
                &mut b,
                &format!("{prefix}.conv1"),
                Conv2dCfg::new(in_ch, out_ch, 3).with_stride(stride).with_padding(1),
                Activation::Relu,
            )?;
            let main = ctx.conv_bn(
                &mut b,
                &format!("{prefix}.conv2"),
                Conv2dCfg::new(out_ch, out_ch, 3).with_padding(1),
            )?;
            // Shortcut branch.
            let shortcut = if stride != 1 || in_ch != out_ch {
                b.set_last(block_input);
                ctx.conv_bn(
                    &mut b,
                    &format!("{prefix}.downsample"),
                    Conv2dCfg::new(in_ch, out_ch, 1).with_stride(stride),
                )?
            } else {
                block_input
            };
            b.add(format!("{prefix}.add"), Layer::Add, vec![main, shortcut]);
            b.chain(format!("{prefix}.act"), Layer::Activation(Activation::Relu));
            in_ch = out_ch;
        }
    }
    b.chain("gap", Layer::GlobalAvgPool);
    b.chain("flatten", Layer::Flatten);
    ctx.linear(&mut b, "fc", in_ch, classes, true)?;
    b.build()
}

fn mobilenet_v2(ctx: &mut BuildCtx, classes: usize) -> Result<Model, NnError> {
    let mut b = ModelBuilder::new("mobilenet_v2", CIFAR_INPUT.to_vec());
    let stem_ch = ctx.ch(32);
    ctx.conv_bn_act(
        &mut b,
        "stem",
        Conv2dCfg::new(3, stem_ch, 3).with_padding(1),
        Activation::Relu6,
    )?;
    let mut in_ch = stem_ch;
    // (expansion, output channels, repeats, first stride) — CIFAR strides.
    let blocks: [(usize, usize, usize, usize); 7] = [
        (1, 16, 1, 1),
        (6, 24, 2, 1),
        (6, 32, 3, 2),
        (6, 64, 4, 2),
        (6, 96, 3, 1),
        (6, 160, 3, 2),
        (6, 320, 1, 1),
    ];
    for (bi, &(expand, channels, repeats, first_stride)) in blocks.iter().enumerate() {
        let out_ch = ctx.ch(channels);
        for r in 0..repeats {
            let stride = if r == 0 { first_stride } else { 1 };
            let prefix = format!("block{}.{r}", bi + 1);
            inverted_residual(
                ctx,
                &mut b,
                &prefix,
                in_ch,
                out_ch,
                stride,
                expand,
                3,
                0.0,
                Activation::Relu6,
            )?;
            in_ch = out_ch;
        }
    }
    let head_ch = ctx.ch(1280);
    ctx.conv_bn_act(&mut b, "head", Conv2dCfg::new(in_ch, head_ch, 1), Activation::Relu6)?;
    b.chain("gap", Layer::GlobalAvgPool);
    b.chain("flatten", Layer::Flatten);
    ctx.linear(&mut b, "fc", head_ch, classes, true)?;
    b.build()
}

fn efficientnet_b0(ctx: &mut BuildCtx, classes: usize) -> Result<Model, NnError> {
    let mut b = ModelBuilder::new("efficientnet_b0", CIFAR_INPUT.to_vec());
    let stem_ch = ctx.ch(32);
    ctx.conv_bn_act(
        &mut b,
        "stem",
        Conv2dCfg::new(3, stem_ch, 3).with_padding(1),
        Activation::Silu,
    )?;
    let mut in_ch = stem_ch;
    // (expansion, output channels, repeats, first stride, kernel).
    let blocks: [(usize, usize, usize, usize, usize); 7] = [
        (1, 16, 1, 1, 3),
        (6, 24, 2, 2, 3),
        (6, 40, 2, 2, 5),
        (6, 80, 3, 2, 3),
        (6, 112, 3, 1, 5),
        (6, 192, 4, 2, 5),
        (6, 320, 1, 1, 3),
    ];
    for (bi, &(expand, channels, repeats, first_stride, kernel)) in blocks.iter().enumerate() {
        let out_ch = ctx.ch(channels);
        for r in 0..repeats {
            let stride = if r == 0 { first_stride } else { 1 };
            let prefix = format!("mbconv{}.{r}", bi + 1);
            inverted_residual(
                ctx,
                &mut b,
                &prefix,
                in_ch,
                out_ch,
                stride,
                expand,
                kernel,
                0.25,
                Activation::Silu,
            )?;
            in_ch = out_ch;
        }
    }
    let head_ch = ctx.ch(1280);
    ctx.conv_bn_act(&mut b, "head", Conv2dCfg::new(in_ch, head_ch, 1), Activation::Silu)?;
    b.chain("gap", Layer::GlobalAvgPool);
    b.chain("flatten", Layer::Flatten);
    ctx.linear(&mut b, "fc", head_ch, classes, true)?;
    b.build()
}

/// Shared inverted-residual / MBConv block builder.
///
/// `se_ratio > 0` adds a squeeze-and-excite branch (EfficientNet), `0.0`
/// disables it (MobileNetV2).
#[allow(clippy::too_many_arguments)]
fn inverted_residual(
    ctx: &mut BuildCtx,
    b: &mut ModelBuilder,
    prefix: &str,
    in_ch: usize,
    out_ch: usize,
    stride: usize,
    expand: usize,
    kernel: usize,
    se_ratio: f32,
    act: Activation,
) -> Result<NodeId, NnError> {
    let block_input = b.last().expect("a stem node precedes every block");
    let expanded = in_ch * expand;
    if expand != 1 {
        ctx.conv_bn_act(b, &format!("{prefix}.expand"), Conv2dCfg::new(in_ch, expanded, 1), act)?;
    }
    let dw_cfg =
        Conv2dCfg::depthwise(expanded, kernel).with_stride(stride).with_padding(kernel / 2);
    let mut trunk = ctx.conv_bn_act(b, &format!("{prefix}.dw"), dw_cfg, act)?;
    if se_ratio > 0.0 {
        let se_ch = ((in_ch as f32 * se_ratio).round() as usize).max(1);
        // Squeeze: global pooling on the trunk, two 1x1 convolutions, sigmoid gate.
        b.chain(format!("{prefix}.se.squeeze"), Layer::GlobalAvgPool);
        ctx.conv(b, &format!("{prefix}.se.reduce"), Conv2dCfg::new(expanded, se_ch, 1), true)?;
        b.chain(format!("{prefix}.se.act"), Layer::Activation(act));
        ctx.conv(b, &format!("{prefix}.se.expand"), Conv2dCfg::new(se_ch, expanded, 1), true)?;
        let gate = b.chain(format!("{prefix}.se.gate"), Layer::Activation(Activation::Sigmoid));
        trunk = b.add(format!("{prefix}.se.scale"), Layer::ChannelScale, vec![trunk, gate]);
    }
    b.set_last(trunk);
    let projected =
        ctx.conv_bn(b, &format!("{prefix}.project"), Conv2dCfg::new(expanded, out_ch, 1))?;
    if stride == 1 && in_ch == out_ch {
        Ok(b.add(format!("{prefix}.add"), Layer::Add, vec![projected, block_input]))
    } else {
        Ok(projected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_kind_parses_common_spellings_and_rejects_garbage() {
        use std::str::FromStr;
        for (raw, expected) in [
            ("alexnet", ModelKind::AlexNet),
            ("AlexNet", ModelKind::AlexNet),
            ("vgg19", ModelKind::Vgg19),
            ("VGG-19", ModelKind::Vgg19),
            ("resnet18", ModelKind::ResNet18),
            ("ResNet-18", ModelKind::ResNet18),
            ("mobilenet_v2", ModelKind::MobileNetV2),
            ("MobileNetV2", ModelKind::MobileNetV2),
            ("efficientnet-b0", ModelKind::EfficientNetB0),
            (" EfficientNetB0 ", ModelKind::EfficientNetB0),
        ] {
            assert_eq!(ModelKind::from_str(raw).unwrap(), expected, "raw `{raw}`");
        }
        // Every display name round-trips.
        for kind in ModelKind::all() {
            assert_eq!(ModelKind::from_str(kind.name()).unwrap(), kind);
        }
        for raw in ["", "vgg", "resnet50", "alex net", "lenet"] {
            let err = ModelKind::from_str(raw).unwrap_err();
            assert!(matches!(err, NnError::UnknownModel { .. }), "raw `{raw}`");
            assert!(err.to_string().contains("unknown model"), "{err}");
        }
    }

    #[test]
    fn tiny_cnn_builds_and_classifies() {
        let model = tiny_cnn(10, 0).unwrap();
        assert_eq!(model.output_shape().unwrap(), vec![10]);
        let summary = model.summary().unwrap();
        assert!(summary.pim_layer_count() >= 4);
    }

    #[test]
    fn scaled_models_build_with_expected_heads() {
        for kind in ModelKind::all() {
            let model = kind.build_with_width(CIFAR100_CLASSES, 1, 0.25).unwrap();
            assert_eq!(
                model.output_shape().unwrap(),
                vec![CIFAR100_CLASSES],
                "{} head shape",
                kind.name()
            );
            assert_eq!(model.input_shape(), CIFAR_INPUT);
            let summary = model.summary().unwrap();
            assert!(summary.total_macs() > 0, "{} has no MACs", kind.name());
            assert!(summary.pim_layer_count() > 3, "{} has too few PIM layers", kind.name());
        }
    }

    #[test]
    fn scaled_resnet_runs_forward() {
        let model = ModelKind::ResNet18.build_with_width(10, 2, 0.25).unwrap();
        let image = dbpim_tensor::Tensor::filled(0.5, CIFAR_INPUT.to_vec()).unwrap();
        let logits = model.forward(&image).unwrap();
        assert_eq!(logits.shape(), &[10]);
    }

    #[test]
    fn scaled_efficientnet_runs_forward() {
        let model = ModelKind::EfficientNetB0.build_with_width(10, 3, 0.25).unwrap();
        let image = dbpim_tensor::Tensor::filled(0.5, CIFAR_INPUT.to_vec()).unwrap();
        let logits = model.forward(&image).unwrap();
        assert_eq!(logits.shape(), &[10]);
    }

    #[test]
    fn scaled_mobilenet_runs_forward() {
        let model = ModelKind::MobileNetV2.build_with_width(10, 4, 0.25).unwrap();
        let image = dbpim_tensor::Tensor::filled(0.5, CIFAR_INPUT.to_vec()).unwrap();
        let logits = model.forward(&image).unwrap();
        assert_eq!(logits.shape(), &[10]);
    }

    #[test]
    fn compact_models_are_flagged() {
        assert!(ModelKind::MobileNetV2.is_compact());
        assert!(ModelKind::EfficientNetB0.is_compact());
        assert!(!ModelKind::Vgg19.is_compact());
        assert_eq!(ModelKind::all().len(), 5);
        assert_eq!(ModelKind::ResNet18.to_string(), "ResNet18");
    }

    #[test]
    fn full_width_parameter_counts_have_expected_order() {
        // Parameter ordering check on the two cheapest-to-build full models.
        let mobilenet = ModelKind::MobileNetV2.build(CIFAR100_CLASSES, 5).unwrap();
        let resnet = ModelKind::ResNet18.build(CIFAR100_CLASSES, 5).unwrap();
        let m = mobilenet.summary().unwrap().total_params();
        let r = resnet.summary().unwrap().total_params();
        assert!(m > 1_500_000 && m < 4_500_000, "MobileNetV2 params {m}");
        assert!(r > 10_000_000 && r < 13_000_000, "ResNet18 params {r}");
    }

    #[test]
    fn deterministic_seeding() {
        let a = tiny_cnn(10, 42).unwrap();
        let b = tiny_cnn(10, 42).unwrap();
        let c = tiny_cnn(10, 43).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
