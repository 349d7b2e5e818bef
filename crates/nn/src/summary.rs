//! Per-layer and whole-model parameter / MAC accounting.

use std::sync::Arc;

use serde::de::Reader;
use serde::ser::Writer;
use serde::{Deserialize, Error, Serialize};

/// Summary of one graph node.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerSummary {
    /// Id of the node in the model graph.
    pub node_id: usize,
    /// Node name.
    pub name: String,
    /// Layer kind (e.g. `"conv2d"`).
    pub kind: String,
    /// Output shape of the node.
    pub output_shape: Vec<usize>,
    /// Learned parameter count.
    pub params: u64,
    /// Multiply-accumulate count for one forward pass.
    pub macs: u64,
    /// `true` when the layer's MACs are mapped onto the PIM macros.
    pub is_pim: bool,
}

/// Whole-model summary: one [`LayerSummary`] per node plus totals.
///
/// The data sits behind one [`Arc`], so a clone is a pointer copy: every
/// result of one prepared model shares one summary. It serializes as the
/// object `{"name":..,"layers":[..]}`.
///
/// # Examples
///
/// ```
/// use dbpim_nn::summary::{LayerSummary, ModelSummary};
///
/// let s = ModelSummary::new("demo".to_string(), vec![LayerSummary {
///     node_id: 0,
///     name: "conv".to_string(),
///     kind: "conv2d".to_string(),
///     output_shape: vec![8, 32, 32],
///     params: 216,
///     macs: 221_184,
///     is_pim: true,
/// }]);
/// assert_eq!(s.total_macs(), 221_184);
/// assert_eq!(s.pim_layer_count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelSummary(Arc<SummaryData>);

/// What a [`ModelSummary`] shares.
#[derive(Debug, PartialEq, Eq, Serialize, Deserialize)]
struct SummaryData {
    name: String,
    layers: Vec<LayerSummary>,
}

impl Serialize for ModelSummary {
    fn serialize(&self, out: &mut Writer) {
        self.0.serialize(out);
    }
}

impl Deserialize for ModelSummary {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
        Arc::deserialize(input).map(Self)
    }
}

impl ModelSummary {
    /// Creates a summary from per-layer entries.
    #[must_use]
    pub fn new(name: String, layers: Vec<LayerSummary>) -> Self {
        Self(Arc::new(SummaryData { name, layers }))
    }

    /// The summarized model's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.0.name
    }

    /// Per-layer entries in graph order.
    #[must_use]
    pub fn layers(&self) -> &[LayerSummary] {
        &self.0.layers
    }

    /// Total learned parameters.
    #[must_use]
    pub fn total_params(&self) -> u64 {
        self.layers().iter().map(|l| l.params).sum()
    }

    /// Total MACs for one forward pass.
    #[must_use]
    pub fn total_macs(&self) -> u64 {
        self.layers().iter().map(|l| l.macs).sum()
    }

    /// Total MACs executed on the PIM macros.
    #[must_use]
    pub fn pim_macs(&self) -> u64 {
        self.layers().iter().filter(|l| l.is_pim).map(|l| l.macs).sum()
    }

    /// Number of layers mapped onto the PIM macros.
    #[must_use]
    pub fn pim_layer_count(&self) -> usize {
        self.layers().iter().filter(|l| l.is_pim).count()
    }

    /// A fixed-width text table of the summary, one row per layer.
    #[must_use]
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<28} {:<16} {:<16} {:>12} {:>14}\n",
            "layer", "kind", "output", "params", "macs"
        ));
        for layer in self.layers() {
            let shape =
                layer.output_shape.iter().map(ToString::to_string).collect::<Vec<_>>().join("x");
            out.push_str(&format!(
                "{:<28} {:<16} {:<16} {:>12} {:>14}\n",
                layer.name, layer.kind, shape, layer.params, layer.macs
            ));
        }
        out.push_str(&format!(
            "total: {} params, {} macs ({} on PIM across {} layers)\n",
            self.total_params(),
            self.total_macs(),
            self.pim_macs(),
            self.pim_layer_count()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(name: &str, params: u64, macs: u64, is_pim: bool) -> LayerSummary {
        LayerSummary {
            node_id: 0,
            name: name.to_string(),
            kind: "conv2d".to_string(),
            output_shape: vec![1, 2, 2],
            params,
            macs,
            is_pim,
        }
    }

    #[test]
    fn totals_accumulate() {
        let s = ModelSummary::new(
            "m".to_string(),
            vec![layer("a", 10, 100, true), layer("b", 5, 50, false), layer("c", 1, 200, true)],
        );
        assert_eq!(s.total_params(), 16);
        assert_eq!(s.total_macs(), 350);
        assert_eq!(s.pim_macs(), 300);
        assert_eq!(s.pim_layer_count(), 2);
    }

    #[test]
    fn table_contains_every_layer() {
        let s = ModelSummary::new("m".to_string(), vec![layer("conv_a", 10, 100, true)]);
        let table = s.to_table();
        assert!(table.contains("conv_a"));
        assert!(table.contains("total"));
    }
}
