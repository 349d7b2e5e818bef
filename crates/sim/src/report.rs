//! Simulation reports: per-layer and whole-run results, comparisons and the
//! derived metrics of Table 3.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use dbpim_arch::{ArchConfig, OPERAND_BITS};

use crate::config::SparsityConfig;
use crate::energy::EnergyBreakdown;

/// Result of simulating one layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerReport {
    /// Graph node id of the layer.
    pub node_id: usize,
    /// Layer name: the compiled layer's own, shared rather than copied.
    pub name: Arc<str>,
    /// `true` when the layer ran on the PIM macros.
    pub is_pim: bool,
    /// Total cycles attributed to the layer (macro busy time, weight loads,
    /// serial post-processing and SIMD work).
    pub cycles: u64,
    /// Cycles the macros spent computing (excluding loads).
    pub compute_cycles: u64,
    /// Multiply-accumulate operations the layer performs functionally.
    pub macs: u64,
    /// Energy breakdown of the layer.
    pub energy: EnergyBreakdown,
}

/// Result of simulating one model under one sparsity configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Name of the simulated model.
    pub model_name: String,
    /// Sparsity configuration of the run.
    pub sparsity: SparsityConfig,
    /// Clock frequency used to convert cycles to time, in MHz.
    pub frequency_mhz: f64,
    /// Per-layer reports in execution order.
    pub layers: Vec<LayerReport>,
}

impl RunReport {
    /// Total cycles of the run.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.layers.iter().map(|l| l.cycles).sum()
    }

    /// Total macro compute cycles.
    #[must_use]
    pub fn compute_cycles(&self) -> u64 {
        self.layers.iter().map(|l| l.compute_cycles).sum()
    }

    /// Total energy breakdown.
    #[must_use]
    pub fn energy(&self) -> EnergyBreakdown {
        let mut total = EnergyBreakdown::default();
        for layer in &self.layers {
            total.accumulate(&layer.energy);
        }
        total
    }

    /// Total energy in microjoules.
    #[must_use]
    pub fn total_energy_uj(&self) -> f64 {
        self.energy().total_uj()
    }

    /// Total functional MACs of the run.
    #[must_use]
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.macs).sum()
    }

    /// End-to-end latency in milliseconds.
    #[must_use]
    pub fn latency_ms(&self) -> f64 {
        self.total_cycles() as f64 / (self.frequency_mhz * 1e3)
    }

    /// Achieved throughput in GOPS (two operations per MAC, 8b/8b).
    #[must_use]
    pub fn throughput_gops(&self) -> f64 {
        let seconds = self.total_cycles() as f64 / (self.frequency_mhz * 1e6);
        if seconds <= 0.0 {
            return 0.0;
        }
        2.0 * self.total_macs() as f64 / seconds / 1e9
    }

    /// Average power in milliwatts.
    #[must_use]
    pub fn average_power_mw(&self) -> f64 {
        let seconds = self.total_cycles() as f64 / (self.frequency_mhz * 1e6);
        if seconds <= 0.0 {
            return 0.0;
        }
        self.energy().total_pj() * 1e-12 / seconds * 1e3
    }

    /// System-level energy efficiency in TOPS/W (two ops per MAC).
    #[must_use]
    pub fn energy_efficiency_tops_per_w(&self) -> f64 {
        let energy_j = self.energy().total_pj() * 1e-12;
        if energy_j <= 0.0 {
            return 0.0;
        }
        2.0 * self.total_macs() as f64 / energy_j / 1e12
    }

    /// Speedup of this run relative to `baseline` (`> 1` means faster).
    #[must_use]
    pub fn speedup_over(&self, baseline: &RunReport) -> f64 {
        if self.total_cycles() == 0 {
            return 0.0;
        }
        baseline.total_cycles() as f64 / self.total_cycles() as f64
    }

    /// Energy saving of this run relative to `baseline` as a fraction in
    /// `[0, 1)` (`0.83` means 83 % less energy).
    #[must_use]
    pub fn energy_saving_over(&self, baseline: &RunReport) -> f64 {
        let base = baseline.energy().total_pj();
        if base <= 0.0 {
            return 0.0;
        }
        1.0 - self.energy().total_pj() / base
    }

    /// A fixed-width text table of the per-layer results.
    #[must_use]
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{} / {} @ {} MHz\n{:<28} {:>12} {:>14} {:>14}\n",
            self.model_name,
            self.sparsity,
            self.frequency_mhz,
            "layer",
            "cycles",
            "macs",
            "energy (nJ)"
        ));
        for layer in &self.layers {
            out.push_str(&format!(
                "{:<28} {:>12} {:>14} {:>14.2}\n",
                layer.name,
                layer.cycles,
                layer.macs,
                layer.energy.total_pj() / 1e3
            ));
        }
        out.push_str(&format!(
            "total: {} cycles, {:.3} ms, {:.2} uJ, {:.2} GOPS, {:.2} TOPS/W\n",
            self.total_cycles(),
            self.latency_ms(),
            self.total_energy_uj(),
            self.throughput_gops(),
            self.energy_efficiency_tops_per_w()
        ));
        out
    }
}

/// Peak-throughput model for Table 3.
///
/// Peak throughput assumes every macro processes its maximum number of
/// filters in parallel (`φ_th = 1`), all compartments are active, and the
/// IPU skips `peak_input_skip` of the bit-serial input columns (the paper's
/// peak numbers are quoted under favourable input sparsity). Two operations
/// are counted per MAC.
#[must_use]
pub fn peak_throughput_tops(config: &ArchConfig, peak_input_skip: f64) -> f64 {
    let filters = config.dbmus_per_compartment as f64;
    let inputs = config.compartments_per_macro as f64;
    let effective_bits = (OPERAND_BITS as f64 * (1.0 - peak_input_skip)).max(1.0);
    let macs_per_cycle_per_macro = filters * inputs / effective_bits;
    2.0 * macs_per_cycle_per_macro * config.macros as f64 * config.frequency_mhz * 1e6 / 1e12
}

/// Peak throughput per macro in GOPS (Table 3's "Peak Throughput/Macro").
#[must_use]
pub fn peak_throughput_per_macro_gops(config: &ArchConfig, peak_input_skip: f64) -> f64 {
    peak_throughput_tops(config, peak_input_skip) * 1e3 / config.macros as f64
}

/// Input-sparsity assumption used for the headline peak-throughput numbers.
pub const PEAK_INPUT_SKIP: f64 = 0.6;

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(cycles: u64, macs: u64, energy_pj: f64) -> LayerReport {
        LayerReport {
            node_id: 0,
            name: "layer".into(),
            is_pim: true,
            cycles,
            compute_cycles: cycles,
            macs,
            energy: EnergyBreakdown { macro_dynamic_pj: energy_pj, ..EnergyBreakdown::default() },
        }
    }

    fn report(cycles: u64, macs: u64, energy_pj: f64) -> RunReport {
        RunReport {
            model_name: "m".to_string(),
            sparsity: SparsityConfig::DenseBaseline,
            frequency_mhz: 500.0,
            layers: vec![layer(cycles, macs, energy_pj)],
        }
    }

    #[test]
    fn derived_metrics_are_consistent() {
        let r = report(500_000, 1_000_000, 2.0e6);
        assert_eq!(r.total_cycles(), 500_000);
        assert!((r.latency_ms() - 1.0).abs() < 1e-9);
        // 2 Mops in 1 ms = 2 GOPS.
        assert!((r.throughput_gops() - 2.0).abs() < 1e-9);
        // 2 uJ over 1 ms = 2 mW.
        assert!((r.average_power_mw() - 2.0).abs() < 1e-9);
        // 2e6 ops / 2e-6 J = 1e12 ops/J = 1 TOPS/W.
        assert!((r.energy_efficiency_tops_per_w() - 1.0).abs() < 1e-9);
        assert!(r.to_table().contains("total"));
    }

    #[test]
    fn comparisons_against_a_baseline() {
        let fast = report(100_000, 1_000_000, 0.5e6);
        let slow = report(500_000, 1_000_000, 2.0e6);
        assert!((fast.speedup_over(&slow) - 5.0).abs() < 1e-9);
        assert!((fast.energy_saving_over(&slow) - 0.75).abs() < 1e-9);
        assert!((slow.speedup_over(&slow) - 1.0).abs() < 1e-9);
        assert_eq!(slow.energy_saving_over(&slow), 0.0);
    }

    #[test]
    fn peak_throughput_matches_table_3_order_of_magnitude() {
        let config = ArchConfig::paper();
        let tops = peak_throughput_tops(&config, PEAK_INPUT_SKIP);
        let per_macro = peak_throughput_per_macro_gops(&config, PEAK_INPUT_SKIP);
        // Paper: 0.31 TOPS peak, 77.5 GOPS per macro.
        assert!(tops > 0.2 && tops < 0.45, "peak {tops} TOPS");
        assert!(per_macro > 50.0 && per_macro < 110.0, "per macro {per_macro} GOPS");
        // Without input sparsity the peak halves (8 vs ~3.2 bit columns).
        assert!(peak_throughput_tops(&config, 0.0) < tops);
    }

    #[test]
    fn degenerate_reports_do_not_divide_by_zero() {
        let empty = RunReport {
            model_name: "m".to_string(),
            sparsity: SparsityConfig::HybridSparsity,
            frequency_mhz: 500.0,
            layers: vec![],
        };
        assert_eq!(empty.total_cycles(), 0);
        assert_eq!(empty.throughput_gops(), 0.0);
        assert_eq!(empty.average_power_mw(), 0.0);
        assert_eq!(empty.energy_efficiency_tops_per_w(), 0.0);
        assert_eq!(empty.speedup_over(&empty), 0.0);
        assert_eq!(empty.energy_saving_over(&empty), 0.0);
    }
}
