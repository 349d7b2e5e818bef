//! Magnitude pruning: the value-level-sparsity half of joint value/bit
//! sparsity exploration.
//!
//! The DAC'24 source paper exploits *bit-level* sparsity (zero CSD digits);
//! the authors' follow-up ("Efficient SRAM-PIM Co-design by Joint
//! Exploration of Value-Level and Bit-Level Sparsity") shows the two levels
//! compound: a weight pruned to exactly `0.0` quantizes to `0`, contributes
//! zero CSD digits, stores zero dyadic blocks, and — when a whole filter is
//! pruned — lets the compiler skip the macro array entirely. [`PruningSpec`]
//! describes the magnitude mask applied to a model's float weights *before*
//! width quantization, so every downstream stage (quantizer, FTA, metadata,
//! compiler, simulator) sees the value sparsity without special cases.
//!
//! Determinism is load-bearing: the same spec over the same weights always
//! zeroes the same elements (ties rank by index), so pruned pipelines stay
//! bit-reproducible across runs, resumes and fleet workers.

use std::fmt;

use serde::de::{self, Reader};
use serde::ser::Writer;
use serde::{Deserialize, Error, Serialize};

/// Which granularity the magnitude mask removes weights at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PruningMode {
    /// Element-wise global-fraction mask: the smallest-magnitude fraction of
    /// *all* weights in a tensor is zeroed, regardless of position.
    #[default]
    Unstructured,
    /// Per-channel (filter) mask: whole output channels with the smallest L1
    /// norms are zeroed. Structured removal is what lets entire filters skip
    /// their macro tiles at compile time.
    Structured,
}

impl PruningMode {
    /// The canonical serialized / command-line name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            PruningMode::Unstructured => "unstructured",
            PruningMode::Structured => "structured",
        }
    }
}

impl fmt::Display for PruningMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A magnitude-pruning mask description: mode plus the fraction of weights
/// (or channels) to remove.
///
/// `fraction == 0.0` is the identity — [`apply`](Self::apply) leaves the
/// tensor untouched, and every spec/entry serializer in the workspace omits
/// an identity spec entirely, which is what keeps pruning-off reports
/// byte-identical to pre-pruning ones.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PruningSpec {
    /// Mask granularity.
    pub mode: PruningMode,
    /// Fraction of weights (unstructured) or output channels (structured)
    /// to zero, in `[0, 1)`.
    pub fraction: f64,
}

impl PruningSpec {
    /// The identity spec: nothing is pruned.
    #[must_use]
    pub fn none() -> Self {
        Self { mode: PruningMode::Unstructured, fraction: 0.0 }
    }

    /// An unstructured (element-wise) mask removing `fraction` of weights.
    /// A zero fraction canonicalizes to [`none`](Self::none).
    #[must_use]
    pub fn unstructured(fraction: f64) -> Self {
        Self { mode: PruningMode::Unstructured, fraction }.canonical()
    }

    /// A structured (per-channel) mask removing `fraction` of channels.
    /// A zero fraction canonicalizes to [`none`](Self::none).
    #[must_use]
    pub fn structured(fraction: f64) -> Self {
        Self { mode: PruningMode::Structured, fraction }.canonical()
    }

    /// Collapses every inactive spelling (`structured` at `0.0`, negative
    /// zero, …) onto the single identity spec. Serialization omits inactive
    /// specs entirely, so distinct inactive spellings could never survive a
    /// save/load round trip — canonicalizing at construction keeps spec
    /// equality, DSE point keys and resume matching consistent with the
    /// serialized form.
    #[must_use]
    pub fn canonical(self) -> Self {
        // Only exact zero (including negative zero) collapses: invalid
        // fractions must keep their value so `validate` still rejects them.
        if self.fraction == 0.0 {
            Self::none()
        } else {
            self
        }
    }

    /// `true` when applying the spec can change a tensor.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.fraction > 0.0
    }

    /// Validates the fraction: finite and in `[0, 1)` (pruning everything
    /// would leave no computation to map).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violation.
    pub fn validate(&self) -> Result<(), String> {
        if !self.fraction.is_finite() || !(0.0..1.0).contains(&self.fraction) {
            return Err(format!("pruning fraction must be in [0, 1), got {}", self.fraction));
        }
        Ok(())
    }

    /// A hashable identity of the spec (the fraction by bit pattern) —
    /// `f64` keeps the spec itself out of `Hash`/`Eq` contexts, so DSE
    /// point keys use this instead.
    #[must_use]
    pub fn key_bits(&self) -> (u8, u64) {
        let mode = match self.mode {
            PruningMode::Unstructured => 0u8,
            PruningMode::Structured => 1u8,
        };
        (mode, self.fraction.to_bits())
    }

    /// A compact human-readable label (`none`, `u0.50`, `s0.25`) for report
    /// rendering.
    #[must_use]
    pub fn label(&self) -> String {
        if !self.is_active() {
            return "none".to_string();
        }
        let tag = match self.mode {
            PruningMode::Unstructured => 'u',
            PruningMode::Structured => 's',
        };
        format!("{tag}{:.2}", self.fraction)
    }

    /// Applies the magnitude mask in place to a row-major tensor whose
    /// leading dimension has `channels` slices (the output-channel
    /// convention weights use). An inactive spec is a no-op; `channels == 0`
    /// or an empty slice is left untouched.
    pub fn apply(&self, values: &mut [f32], channels: usize) {
        if !self.is_active() || values.is_empty() || channels == 0 {
            return;
        }
        match self.mode {
            PruningMode::Unstructured => prune_unstructured(values, self.fraction),
            PruningMode::Structured => prune_structured(values, channels, self.fraction),
        }
    }
}

impl fmt::Display for PruningSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_active() {
            write!(f, "{} {:.2}", self.mode, self.fraction)
        } else {
            f.write_str("none")
        }
    }
}

// Hand-written serde: the vendored derive serializes every field
// unconditionally, but these impls are shared by the spec/entry serializers
// that must omit identity specs — keeping the wire/disk shape explicit here
// means one stable encoding everywhere.
impl std::str::FromStr for PruningSpec {
    type Err = String;

    /// Parses the command-line / label forms: `none`, a bare fraction like
    /// `0.3` (unstructured), `u0.30` / `unstructured:0.3`, or `s0.25` /
    /// `structured:0.25`. [`label`](PruningSpec::label) output round-trips.
    fn from_str(raw: &str) -> Result<Self, Self::Err> {
        let trimmed = raw.trim();
        if trimmed.eq_ignore_ascii_case("none") {
            return Ok(Self::none());
        }
        let (mode, rest) = if let Some(rest) = trimmed.strip_prefix("unstructured:") {
            (PruningMode::Unstructured, rest)
        } else if let Some(rest) = trimmed.strip_prefix("structured:") {
            (PruningMode::Structured, rest)
        } else if let Some(rest) = trimmed.strip_prefix('u') {
            (PruningMode::Unstructured, rest)
        } else if let Some(rest) = trimmed.strip_prefix('s') {
            (PruningMode::Structured, rest)
        } else {
            (PruningMode::Unstructured, trimmed)
        };
        let fraction: f64 = rest.trim().parse().map_err(|_| {
            format!(
                "invalid pruning spec `{raw}` (expected none, a fraction like 0.3, \
                 u<fraction> or s<fraction>)"
            )
        })?;
        let spec = Self { mode, fraction };
        spec.validate()?;
        Ok(spec.canonical())
    }
}

impl Serialize for PruningSpec {
    fn serialize(&self, out: &mut Writer) {
        let mut object = out.object();
        object.field("mode", self.mode.name()).field("fraction", &self.fraction);
        object.end();
    }
}

impl Deserialize for PruningSpec {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
        let (mut mode, mut fraction) = (None, None);
        input.object(|input, key| match key {
            "mode" => de::field::<String>(input, &mut mode),
            // A number, never `null`: a pruning fraction is always finite.
            "fraction" if fraction.is_none() => {
                fraction = Some(input.number()?.as_f64());
                Ok(())
            }
            _ => input.skip(),
        })?;
        let mode = match de::required(mode, "mode")?.as_str() {
            "unstructured" => PruningMode::Unstructured,
            "structured" => PruningMode::Structured,
            other => return Err(Error::custom(format!("unknown pruning mode `{other}`"))),
        };
        Ok(Self { mode, fraction: de::required(fraction, "fraction")? }.canonical())
    }
}

/// Zeroes the `round(fraction * len)` smallest-magnitude elements. Ties
/// break on the lower index, so the mask is a pure function of the values.
///
/// Each element becomes one `u64` key, `|v|`'s bits above its index. A
/// magnitude has a clear sign bit, so its bits order exactly as
/// `f32::total_cmp` orders it, and the keys order as (magnitude, index)
/// does. Selecting the `remove` smallest keys needs no full sort.
fn prune_unstructured(values: &mut [f32], fraction: f64) {
    let remove = target_count(values.len(), fraction);
    if remove == 0 {
        return;
    }
    assert!(
        u32::try_from(values.len()).is_ok(),
        "a pruning key holds a 32-bit index, but the tensor has {} elements",
        values.len()
    );
    let mut keys: Vec<u64> = values
        .iter()
        .enumerate()
        .map(|(index, v)| u64::from(v.abs().to_bits()) << 32 | index as u64)
        .collect();
    keys.select_nth_unstable(remove - 1);
    for &key in &keys[..remove] {
        values[key as u32 as usize] = 0.0;
    }
}

/// Zeroes the `round(fraction * channels)` whole channels (leading-dimension
/// slices) with the smallest L1 norms. Ties break on the lower channel.
fn prune_structured(values: &mut [f32], channels: usize, fraction: f64) {
    let remove = target_count(channels, fraction);
    if remove == 0 {
        return;
    }
    let per_channel = values.len() / channels;
    if per_channel == 0 {
        return;
    }
    let norms: Vec<f64> = (0..channels)
        .map(|c| {
            values[c * per_channel..(c + 1) * per_channel].iter().map(|&v| f64::from(v.abs())).sum()
        })
        .collect();
    let mut order: Vec<usize> = (0..channels).collect();
    order.sort_by(|&a, &b| norms[a].total_cmp(&norms[b]).then_with(|| a.cmp(&b)));
    for &channel in &order[..remove] {
        values[channel * per_channel..(channel + 1) * per_channel].fill(0.0);
    }
}

/// How many of `total` items a fraction removes — round-to-nearest, capped
/// so at least one item always survives.
fn target_count(total: usize, fraction: f64) -> usize {
    let raw = (fraction * total as f64).round() as usize;
    raw.min(total.saturating_sub(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_spec_is_a_no_op() {
        let mut values = vec![0.5f32, -0.1, 0.9, 0.0];
        let original = values.clone();
        PruningSpec::none().apply(&mut values, 2);
        assert_eq!(values, original);
        assert!(!PruningSpec::none().is_active());
        assert_eq!(PruningSpec::none().label(), "none");
    }

    #[test]
    fn unstructured_removes_the_smallest_magnitudes() {
        let mut values = vec![0.5f32, -0.1, 0.9, -0.7, 0.05, 0.3, -0.2, 0.8];
        PruningSpec::unstructured(0.5).apply(&mut values, 2);
        assert_eq!(values, vec![0.5, 0.0, 0.9, -0.7, 0.0, 0.0, 0.0, 0.8]);
        assert_eq!(values.iter().filter(|&&v| v == 0.0).count(), 4);
    }

    #[test]
    fn structured_removes_whole_channels_by_l1_norm() {
        // Channel 1 has the smallest L1 norm; the whole row must go.
        let mut values = vec![0.9f32, -0.8, 0.01, 0.02, 0.5, 0.6];
        PruningSpec::structured(0.34).apply(&mut values, 3);
        assert_eq!(values, vec![0.9, -0.8, 0.0, 0.0, 0.5, 0.6]);
    }

    #[test]
    fn ties_break_deterministically_on_index() {
        let mut a = vec![0.1f32, 0.1, 0.1, 0.1];
        let mut b = a.clone();
        PruningSpec::unstructured(0.5).apply(&mut a, 1);
        PruningSpec::unstructured(0.5).apply(&mut b, 1);
        assert_eq!(a, b);
        assert_eq!(a, vec![0.0, 0.0, 0.1, 0.1], "lowest indices pruned first on ties");
    }

    /// The full sort `prune_unstructured` replaced: the mask reference.
    fn sorted_mask(values: &[f32], remove: usize) -> Vec<bool> {
        let mut order: Vec<usize> = (0..values.len()).collect();
        order.sort_by(|&a, &b| values[a].abs().total_cmp(&values[b].abs()).then_with(|| a.cmp(&b)));
        let mut mask = vec![false; values.len()];
        for &index in &order[..remove] {
            mask[index] = true;
        }
        mask
    }

    #[test]
    fn selection_zeroes_the_same_set_as_the_full_sort() {
        // Duplicate magnitudes, ±x pairs, ±0.0 and NaN, every fraction.
        let values = [
            0.5f32,
            -0.5,
            0.0,
            -0.0,
            0.25,
            0.25,
            -0.25,
            1.0,
            -1.0,
            0.0,
            2.0,
            0.5,
            -0.0,
            0.125,
            f32::NAN,
            -0.125,
            0.25,
            3.0,
            -3.0,
            0.5,
        ];
        for remove in 1..values.len() {
            let fraction = remove as f64 / values.len() as f64;
            assert_eq!(target_count(values.len(), fraction), remove);
            let mut pruned = values;
            prune_unstructured(&mut pruned, fraction);
            let mask = sorted_mask(&values, remove);
            for (i, (&after, &before)) in pruned.iter().zip(&values).enumerate() {
                let want = if mask[i] { 0.0 } else { before };
                assert_eq!(after.to_bits(), want.to_bits(), "remove {remove}, index {i}");
            }
        }
    }

    #[test]
    fn at_least_one_element_survives() {
        let mut values = vec![0.4f32, 0.2];
        PruningSpec::unstructured(0.99).apply(&mut values, 1);
        assert_eq!(values.iter().filter(|&&v| v != 0.0).count(), 1);
        let mut channels = vec![1.0f32, 2.0, 3.0, 4.0];
        PruningSpec::structured(0.99).apply(&mut channels, 2);
        assert_eq!(channels, vec![0.0, 0.0, 3.0, 4.0]);
    }

    #[test]
    fn inactive_spellings_canonicalize_to_the_identity() {
        assert_eq!(PruningSpec::structured(0.0), PruningSpec::none());
        assert_eq!(PruningSpec::unstructured(0.0), PruningSpec::none());
        assert_eq!(PruningSpec::unstructured(-0.0), PruningSpec::none());
        assert_eq!("s0".parse::<PruningSpec>().unwrap(), PruningSpec::none());
        let raw = PruningSpec { mode: PruningMode::Structured, fraction: 0.0 };
        assert_eq!(raw.canonical().key_bits(), PruningSpec::none().key_bits());
    }

    #[test]
    fn validation_bounds_the_fraction() {
        assert!(PruningSpec::none().validate().is_ok());
        assert!(PruningSpec::unstructured(0.5).validate().is_ok());
        assert!(PruningSpec::unstructured(1.0).validate().is_err());
        assert!(PruningSpec::unstructured(-0.1).validate().is_err());
        assert!(PruningSpec::unstructured(f64::NAN).validate().is_err());
    }

    fn to_json(spec: &PruningSpec) -> String {
        let mut out = Writer::new();
        spec.serialize(&mut out);
        out.into_string()
    }

    fn from_json(text: &str) -> Result<PruningSpec, Error> {
        let mut input = Reader::new(text);
        let spec = PruningSpec::deserialize(&mut input)?;
        input.finish()?;
        Ok(spec)
    }

    #[test]
    fn serde_round_trips_and_is_stable() {
        for spec in
            [PruningSpec::none(), PruningSpec::unstructured(0.25), PruningSpec::structured(0.5)]
        {
            let back = from_json(&to_json(&spec)).unwrap();
            assert_eq!(back, spec);
        }
        assert_eq!(
            to_json(&PruningSpec::structured(0.5)),
            "{\"mode\":\"structured\",\"fraction\":0.5}"
        );
        assert!(from_json("\"nope\"").is_err());
        // The first of duplicate keys wins; a fraction is a number, not null.
        let first = from_json("{\"mode\":\"structured\",\"fraction\":1,\"fraction\":0.5}");
        assert_eq!(first.unwrap().fraction, 1.0);
        assert!(from_json("{\"mode\":\"structured\",\"fraction\":null}").is_err());
        let missing = from_json("{\"mode\":\"structured\"}").unwrap_err();
        assert!(missing.to_string().contains("`fraction`"), "{missing}");
    }

    #[test]
    fn key_bits_distinguish_mode_and_fraction() {
        let a = PruningSpec::unstructured(0.5).key_bits();
        let b = PruningSpec::structured(0.5).key_bits();
        let c = PruningSpec::unstructured(0.25).key_bits();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, PruningSpec::unstructured(0.5).key_bits());
    }

    #[test]
    fn labels_are_compact() {
        assert_eq!(PruningSpec::unstructured(0.5).label(), "u0.50");
        assert_eq!(PruningSpec::structured(0.25).label(), "s0.25");
    }
}
