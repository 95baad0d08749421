//! Component power model (Fig. 10's 567.5 mW breakdown).
//!
//! Power = Σ (access rate × energy/access) + leakage. Access rates come
//! from the performance model (cycles, MACs) and the traffic model
//! (per-level bytes); the energy coefficients are fitted to the paper's
//! breakdown and sit inside the published 28 nm ballpark (a 16-bit MAC
//! with pipeline registers ≈ 2 pJ, small SRAM reads 2–4 pJ, distributed
//! register-file reads with chain-long distribution ≈ 9 pJ).
//!
//! [`PowerModel::activity`] gathers those rates in one pass over a
//! network: each layer's cycles are predicted once and feed both the
//! run totals and the traffic counts. [`PowerModel::power`] turns the
//! totals into milliwatts.

use chain_nn_core::perf::{CycleModel, PerfModel, RunTotals};
use chain_nn_core::{ChainConfig, CoreError};
use chain_nn_mem::traffic::{TrafficCounts, TrafficModel};
use chain_nn_mem::MemoryConfig;
use chain_nn_nets::Network;

/// Energy per event and leakage coefficients.
///
/// The defaults ([`EnergyCoefficients::fitted_28nm`]) are fitted to the
/// paper's Fig. 10; override them for sensitivity studies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyCoefficients {
    /// pJ per PE per cycle while computing a useful MAC (datapath +
    /// registers + clock).
    pub mac_active_pj: f64,
    /// pJ per PE per idle cycle (clock-gating residual).
    pub pe_idle_pj: f64,
    /// pJ per iMemory access (32 KB SRAM).
    pub imem_pj: f64,
    /// pJ per oMemory access (25 KB SRAM).
    pub omem_pj: f64,
    /// pJ per kMemory access (per-PE register file plus distribution).
    pub kmem_pj: f64,
    /// pJ per 16-bit word crossing the DRAM interface (reported
    /// separately; the paper's chip power excludes it).
    pub dram_pj_per_word: f64,
    /// Leakage per KB of on-chip SRAM, in mW.
    pub leak_mw_per_kb: f64,
}

impl EnergyCoefficients {
    /// Coefficients fitted to the paper's Fig. 10 at TSMC 28 nm, 0.9 V.
    pub fn fitted_28nm() -> Self {
        EnergyCoefficients {
            mac_active_pj: 2.1,
            pe_idle_pj: 0.4,
            imem_pj: 3.8,
            omem_pj: 2.2,
            kmem_pj: 8.8,
            dram_pj_per_word: 400.0,
            leak_mw_per_kb: 0.02,
        }
    }
}

impl Default for EnergyCoefficients {
    fn default() -> Self {
        EnergyCoefficients::fitted_28nm()
    }
}

/// Average power per component while running a workload (Fig. 10 left).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerBreakdown {
    /// The 1D chain (PE datapaths, pipeline registers, control), mW.
    pub chain_mw: f64,
    /// kMemory register files, mW.
    pub kmem_mw: f64,
    /// iMemory SRAM, mW.
    pub imem_mw: f64,
    /// oMemory SRAM, mW.
    pub omem_mw: f64,
}

impl PowerBreakdown {
    /// Total on-chip power in mW.
    pub fn total_mw(&self) -> f64 {
        self.chain_mw + self.kmem_mw + self.imem_mw + self.omem_mw
    }

    /// "Processor core" power as the paper's Fig. 10 uses it for the
    /// core-only efficiency: the 1D chain architecture itself.
    pub fn core_mw(&self) -> f64 {
        self.chain_mw
    }

    /// Memory-hierarchy share (iMemory + oMemory), the paper's "10.55%".
    pub fn memory_hierarchy_share(&self) -> f64 {
        (self.imem_mw + self.omem_mw) / self.total_mw()
    }
}

/// Full power/efficiency report for a network run.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerReport {
    /// Component breakdown.
    pub breakdown: PowerBreakdown,
    /// Off-chip DRAM interface power (excluded from the totals, as in
    /// the paper).
    pub dram_mw: f64,
    /// Batch latency in milliseconds.
    pub time_ms: f64,
    /// Peak throughput of the configuration in GOPS.
    pub peak_gops: f64,
    /// Achieved throughput on this workload in GOPS.
    pub achieved_gops: f64,
}

impl PowerReport {
    /// Whole-chip energy efficiency, peak GOPS per watt (the paper's
    /// 1421.0 GOPS/W headline metric).
    pub fn gops_per_watt_total(&self) -> f64 {
        self.peak_gops / (self.breakdown.total_mw() / 1e3)
    }

    /// Core-only efficiency (the paper's 1727.8 GOPS/W).
    pub fn gops_per_watt_core(&self) -> f64 {
        self.peak_gops / (self.breakdown.core_mw() / 1e3)
    }
}

/// What a network run does on a configuration: its time and MAC
/// activity, and its bytes per memory level, summed over every layer
/// for the whole batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Activity {
    /// Batch time, cycles and MACs (paper-calibrated accounting).
    pub run: RunTotals,
    /// Bytes per memory level.
    pub traffic: TrafficCounts,
}

/// The power model: chain + memories under a workload.
///
/// # Example
///
/// ```
/// use chain_nn_core::ChainConfig;
/// use chain_nn_energy::power::PowerModel;
/// use chain_nn_mem::MemoryConfig;
/// use chain_nn_nets::zoo;
///
/// let model = PowerModel::new(ChainConfig::paper_576(), MemoryConfig::paper());
/// let report = model.network_power(&zoo::alexnet(), 4).unwrap();
/// // Paper: 567.5 mW, 1421.0 GOPS/W (fitted model lands within ~5 %).
/// assert!((report.breakdown.total_mw() - 567.5).abs() / 567.5 < 0.06);
/// assert!((report.gops_per_watt_total() - 1421.0).abs() / 1421.0 < 0.06);
/// ```
#[derive(Debug, Clone)]
pub struct PowerModel {
    cfg: ChainConfig,
    coef: EnergyCoefficients,
    perf: PerfModel,
    traffic: TrafficModel,
    mem: MemoryConfig,
    operand_bits: u32,
}

impl PowerModel {
    /// Builds the model with the fitted 28 nm coefficients.
    pub fn new(cfg: ChainConfig, mem: MemoryConfig) -> Self {
        Self::with_coefficients(cfg, mem, EnergyCoefficients::fitted_28nm())
    }

    /// Builds the model with explicit coefficients.
    pub fn with_coefficients(
        cfg: ChainConfig,
        mem: MemoryConfig,
        coef: EnergyCoefficients,
    ) -> Self {
        PowerModel {
            perf: PerfModel::new(cfg),
            traffic: TrafficModel::new(cfg, mem),
            cfg,
            coef,
            mem,
            operand_bits: 16,
        }
    }

    /// Builds the model for a datapath narrower (or equal) to the
    /// paper's 16-bit words, applying first-order width scaling to the
    /// fitted coefficients: multiplier (MAC) energy scales with the
    /// square of the width, register/idle and per-access SRAM/DRAM
    /// energies scale linearly, and kMemory capacity (leakage) scales
    /// linearly. Used by the design-space explorer's quantization axis.
    pub fn with_operand_bits(cfg: ChainConfig, mem: MemoryConfig, operand_bits: u32) -> Self {
        let mut model = Self::new(cfg, mem);
        model.operand_bits = operand_bits;
        let w = f64::from(operand_bits) / 16.0;
        model.coef.mac_active_pj *= w * w;
        model.coef.pe_idle_pj *= w;
        model.coef.imem_pj *= w;
        model.coef.omem_pj *= w;
        model.coef.kmem_pj *= w;
        model.coef.dram_pj_per_word *= w;
        model
    }

    /// The coefficients in use.
    pub fn coefficients(&self) -> &EnergyCoefficients {
        &self.coef
    }

    /// Average power running `net` at batch size `batch` (the paper's
    /// Fig. 10 uses AlexNet).
    ///
    /// # Errors
    ///
    /// Propagates mapping errors from the performance/traffic models.
    pub fn network_power(&self, net: &Network, batch: usize) -> Result<PowerReport, CoreError> {
        Ok(self.power(&self.activity(net, batch)?))
    }

    /// Runs the performance and traffic models over `net` in one pass:
    /// each layer's cycles are predicted once, then added to the run
    /// totals and turned into that layer's traffic.
    ///
    /// # Errors
    ///
    /// The performance model's mapping error in any layer, else the
    /// traffic model's in the first layer that has one: the precedence
    /// of running the performance model over every layer before any
    /// traffic.
    pub fn activity(&self, net: &Network, batch: usize) -> Result<Activity, CoreError> {
        let mut run = RunTotals::new(&self.cfg, batch);
        let mut traffic = Ok(TrafficCounts::default());
        for spec in net.layers() {
            let perf = self.perf.layer(spec, CycleModel::PaperCalibrated)?;
            run.add(&perf);
            traffic = traffic.and_then(|mut sum| {
                sum.add(&self.traffic.layer_counts(spec, &perf, batch)?);
                Ok(sum)
            });
        }
        Ok(Activity {
            run,
            traffic: traffic?,
        })
    }

    /// Average power of a run with `activity` on this configuration.
    pub fn power(&self, activity: &Activity) -> PowerReport {
        let Activity { run, traffic: t } = activity;
        let total_cycles = run.conv_cycles + run.load_cycles;
        let macs = run.macs;
        let freq_hz = self.cfg.freq_mhz() * 1e6;
        let time_s = total_cycles / freq_hz;

        let word = self.mem.word_bytes as f64;
        let imem_acc = t.imem_bytes as f64 / word;
        let omem_acc = t.omem_bytes as f64 / word;
        let kmem_acc = t.kmem_bytes as f64 / word;
        let dram_words = t.dram_bytes as f64 / word;

        let mw = |events: f64, pj: f64| events * pj * 1e-9 / time_s;
        let idle_pe_cycles = (self.cfg.num_pes() as f64 * total_cycles - macs).max(0.0);
        let chain_mw = mw(macs, self.coef.mac_active_pj) + mw(idle_pe_cycles, self.coef.pe_idle_pj);
        // kmemory_bytes() assumes 16-bit weights; scale capacity (and
        // with it leakage) to the actual operand width.
        let kmem_kb =
            self.cfg.kmemory_bytes() as f64 * (f64::from(self.operand_bits) / 16.0) / 1024.0;
        let kmem_mw = mw(kmem_acc, self.coef.kmem_pj) + kmem_kb * self.coef.leak_mw_per_kb;
        let imem_mw = mw(imem_acc, self.coef.imem_pj)
            + self.mem.imem_bytes as f64 / 1024.0 * self.coef.leak_mw_per_kb;
        let omem_mw = mw(omem_acc, self.coef.omem_pj)
            + self.mem.omem_bytes as f64 / 1024.0 * self.coef.leak_mw_per_kb;
        let dram_mw = mw(dram_words, self.coef.dram_pj_per_word);

        let achieved_gops = 2.0 * macs / time_s / 1e9;
        PowerReport {
            breakdown: PowerBreakdown {
                chain_mw,
                kmem_mw,
                imem_mw,
                omem_mw,
            },
            dram_mw,
            time_ms: time_s * 1e3,
            peak_gops: self.cfg.peak_gops(),
            achieved_gops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chain_nn_nets::zoo;

    fn report() -> PowerReport {
        PowerModel::new(ChainConfig::paper_576(), MemoryConfig::paper())
            .network_power(&zoo::alexnet(), 4)
            .unwrap()
    }

    /// Fig. 10 breakdown: chain 466.71 mW / kMemory 40.15 / iMemory 3.91
    /// / oMemory 56.70, total 567.5 mW.
    #[test]
    fn fig10_breakdown_within_ten_percent() {
        let r = report();
        let b = r.breakdown;
        assert!(
            (b.chain_mw - 466.71).abs() / 466.71 < 0.10,
            "chain {}",
            b.chain_mw
        );
        assert!(
            (b.kmem_mw - 40.15).abs() / 40.15 < 0.12,
            "kmem {}",
            b.kmem_mw
        );
        assert!((b.imem_mw - 3.91).abs() / 3.91 < 0.10, "imem {}", b.imem_mw);
        assert!(
            (b.omem_mw - 56.70).abs() / 56.70 < 0.10,
            "omem {}",
            b.omem_mw
        );
        assert!(
            (b.total_mw() - 567.5).abs() / 567.5 < 0.06,
            "total {}",
            b.total_mw()
        );
    }

    /// Fig. 10 shares: ~80.8 % chain, ~10.55 % memory hierarchy.
    #[test]
    fn fig10_shares() {
        let r = report();
        let share_chain = r.breakdown.chain_mw / r.breakdown.total_mw();
        assert!(
            (share_chain - 0.808).abs() < 0.03,
            "chain share {share_chain}"
        );
        let mh = r.breakdown.memory_hierarchy_share();
        assert!((mh - 0.1055).abs() < 0.02, "memory hierarchy share {mh}");
    }

    /// Headline efficiencies: 1421.0 GOPS/W total, 1727.8 GOPS/W core.
    #[test]
    fn headline_efficiency() {
        let r = report();
        assert!(
            (r.gops_per_watt_total() - 1421.0).abs() / 1421.0 < 0.06,
            "total {}",
            r.gops_per_watt_total()
        );
        assert!(
            (r.gops_per_watt_core() - 1727.8).abs() / 1727.8 < 0.08,
            "core {}",
            r.gops_per_watt_core()
        );
    }

    /// DRAM power is reported separately and is not negligible — the
    /// reason the paper excludes it explicitly.
    #[test]
    fn dram_power_reported_separately() {
        let r = report();
        assert!(r.dram_mw > 10.0, "dram {}", r.dram_mw);
        // Not part of the on-chip total.
        let sum = r.breakdown.total_mw();
        assert!(sum < 600.0);
    }

    /// More leakage or costlier MACs must increase power monotonically.
    #[test]
    fn coefficients_move_power_monotonically() {
        let base = report();
        let mut coef = EnergyCoefficients::fitted_28nm();
        coef.mac_active_pj *= 2.0;
        let hot =
            PowerModel::with_coefficients(ChainConfig::paper_576(), MemoryConfig::paper(), coef)
                .network_power(&zoo::alexnet(), 4)
                .unwrap();
        assert!(hot.breakdown.chain_mw > base.breakdown.chain_mw * 1.5);
        assert!(hot.gops_per_watt_total() < base.gops_per_watt_total());
    }

    /// Narrower operands must strictly cut every power component while
    /// leaving timing untouched (no accuracy objective is modeled).
    #[test]
    fn operand_width_scales_power_down() {
        let full = report();
        let narrow =
            PowerModel::with_operand_bits(ChainConfig::paper_576(), MemoryConfig::paper(), 8)
                .network_power(&zoo::alexnet(), 4)
                .unwrap();
        assert_eq!(narrow.time_ms, full.time_ms);
        assert!(narrow.breakdown.chain_mw < full.breakdown.chain_mw);
        assert!(narrow.breakdown.kmem_mw < full.breakdown.kmem_mw);
        assert!(narrow.breakdown.imem_mw < full.breakdown.imem_mw);
        assert!(narrow.breakdown.omem_mw < full.breakdown.omem_mw);
        assert!(narrow.dram_mw < full.dram_mw);
        // MAC energy scales quadratically, so the chain share shrinks
        // by more than the linear memory terms.
        let chain_ratio = narrow.breakdown.chain_mw / full.breakdown.chain_mw;
        let omem_ratio = narrow.breakdown.omem_mw / full.breakdown.omem_mw;
        assert!(chain_ratio < omem_ratio);
        // 16-bit explicit equals the default.
        let same =
            PowerModel::with_operand_bits(ChainConfig::paper_576(), MemoryConfig::paper(), 16)
                .network_power(&zoo::alexnet(), 4)
                .unwrap();
        assert_eq!(same, full);
    }

    /// Achieved throughput is bounded by peak.
    #[test]
    fn achieved_below_peak() {
        let r = report();
        assert!(r.achieved_gops < r.peak_gops);
        assert!(r.achieved_gops > 0.3 * r.peak_gops);
    }
}
