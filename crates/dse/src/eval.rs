//! Evaluation of one design point through the full model stack:
//! performance (fps), power (on-chip + DRAM interface), and area.
//!
//! [`evaluate`] is one pass over the point's layers: each layer's
//! cycles are predicted once and feed the run totals and that layer's
//! traffic ([`PowerModel::activity`]). fps, power, area and SQNR then
//! follow from the totals. The network is the process's one built copy
//! and the SQNR a memo hit, so the pass builds no network and allocates
//! nothing per layer.

use chain_nn_core::ChainConfig;
use chain_nn_energy::area::AreaModel;
use chain_nn_energy::power::PowerModel;
use chain_nn_mem::MemoryConfig;

use crate::spec::{check_axis_bounds, DesignPoint};
use crate::{DseError, ZooNet};

/// Model outputs for one feasible design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointResult {
    /// Frames per second (paper-calibrated cycle model).
    pub fps: f64,
    /// Achieved throughput on the workload, GOPS.
    pub achieved_gops: f64,
    /// Peak throughput of the configuration, GOPS.
    pub peak_gops: f64,
    /// On-chip power, mW (chain + kMemory + iMemory + oMemory).
    pub chip_mw: f64,
    /// DRAM interface power, mW (the paper reports it separately; the
    /// DSE includes it in the system-power objective so that kMemory /
    /// SRAM sizing is a real traffic-vs-capacity tradeoff).
    pub dram_mw: f64,
    /// Chain logic area in NAND2-equivalent kilo-gates.
    pub gates_k: f64,
    /// Total on-chip SRAM (iMemory + oMemory + kMemory), KB.
    pub sram_kb: f64,
    /// Measured float-vs-fixed SQNR of this point's network at this
    /// point's operand width, dB (the [`crate::accuracy`] model; a pure
    /// function of `(net, word_bits)`, so every point of one network at
    /// one width carries the same value).
    pub sqnr_db: f64,
}

impl PointResult {
    /// System power: on-chip plus DRAM interface, mW. One of the three
    /// Pareto objectives (minimize).
    pub fn system_mw(&self) -> f64 {
        self.chip_mw + self.dram_mw
    }

    /// Whole-chip energy efficiency, peak GOPS per on-chip watt (the
    /// paper's headline metric).
    pub fn gops_per_watt(&self) -> f64 {
        self.peak_gops / (self.chip_mw / 1e3)
    }

    /// Fraction of peak throughput sustained on the workload.
    pub fn utilization(&self) -> f64 {
        self.achieved_gops / self.peak_gops
    }
}

/// Outcome of evaluating one point: the grid may legitimately contain
/// configurations the architecture cannot run (e.g. a chain shorter
/// than K² for some layer), which are recorded rather than aborting the
/// sweep.
#[derive(Debug, Clone, PartialEq)]
pub enum PointOutcome {
    /// The point maps and the models produced a result.
    Feasible(PointResult),
    /// The point cannot run this workload; the reason is kept for the
    /// report.
    Infeasible(String),
}

impl PointOutcome {
    /// The result, if feasible.
    pub fn result(&self) -> Option<&PointResult> {
        match self {
            PointOutcome::Feasible(r) => Some(r),
            PointOutcome::Infeasible(_) => None,
        }
    }
}

/// Runs the full model stack on one design point.
///
/// Mapping failures (kernel too large for the chain, undersized SRAM
/// tiles) are reported as [`PointOutcome::Infeasible`]; spec-level
/// problems (unknown network, invalid chain parameters) are hard
/// errors.
///
/// # Errors
///
/// Returns [`DseError::Spec`] when the point itself is malformed —
/// unknown network name, unsupported word width, or parameters
/// `ChainConfig` rejects.
///
/// # Example
///
/// ```
/// use chain_nn_dse::{evaluate, DesignPoint};
///
/// let point = DesignPoint {
///     net: "lenet".into(),
///     pes: 25, // LeNet's 5x5 kernels tile 25 PEs exactly
///     ..DesignPoint::paper_alexnet()
/// };
/// let result = *evaluate(&point).unwrap().result().unwrap();
/// assert!(result.fps > 0.0);
/// assert!(result.system_mw() > result.chip_mw);
/// // Every feasible point carries its measured accuracy:
/// assert!(result.sqnr_db > 40.0);
/// ```
pub fn evaluate(point: &DesignPoint) -> Result<PointOutcome, DseError> {
    let (net, cfg) = check_point(point)?;
    let mem = MemoryConfig {
        imem_bytes: point.imem_kb * 1024,
        omem_bytes: point.omem_kb * 1024,
        word_bytes: point.word_bits as usize / 8,
    };

    let model = PowerModel::with_operand_bits(cfg, mem, point.word_bits);
    let activity = match model.activity(net.network(), point.batch) {
        Ok(a) => a,
        Err(e) => return Ok(PointOutcome::Infeasible(e.to_string())),
    };
    let power = model.power(&activity);
    let area = AreaModel::with_operand_bits(cfg, point.word_bits);
    // Memoized per (zoo network, word_bits): the measurement runs once
    // per process per pair, however many grid points share it.
    let sqnr_db = crate::accuracy::sqnr_of(net, point.word_bits)?;

    let result = PointResult {
        fps: activity.run.fps(),
        achieved_gops: activity.run.gops(),
        peak_gops: cfg.peak_gops(),
        chip_mw: power.breakdown.total_mw(),
        dram_mw: power.dram_mw,
        gates_k: area.total_gates() / 1e3,
        sram_kb: area.onchip_memory_bytes(mem.imem_bytes, mem.omem_bytes) as f64 / 1024.0,
        sqnr_db,
    };
    check_result(&result)?;
    Ok(PointOutcome::Feasible(result))
}

/// What a point must be before any model runs on it: a zoo network,
/// 8- or 16-bit words, at least one image per batch, integer axes
/// within their bounds, and chain parameters `ChainConfig` accepts.
/// [`evaluate`] checks every point with it, and the cache-file loader
/// every record. Returns the zoo network, which a caller that only
/// checks never builds.
///
/// # Errors
///
/// [`DseError::Spec`] naming the first failing check.
pub(crate) fn check_point(point: &DesignPoint) -> Result<(ZooNet, ChainConfig), DseError> {
    let net = ZooNet::find(&point.net)
        .ok_or_else(|| DseError::Spec(format!("unknown network '{}'", point.net)))?;
    if !matches!(point.word_bits, 8 | 16) {
        // Sub-byte packing is not modeled (MemoryConfig counts whole
        // bytes per word); reject rather than silently alias to 8-bit.
        return Err(DseError::Spec(format!(
            "word width {} unsupported (expected 8 or 16 bits)",
            point.word_bits
        )));
    }
    if point.batch == 0 {
        return Err(DseError::Spec(
            "batch 0 holds no images (expected >= 1)".into(),
        ));
    }
    check_axis_bounds([
        point.pes,
        point.kmem_depth,
        point.imem_kb,
        point.omem_kb,
        point.batch,
    ])?;
    let cfg = ChainConfig::builder()
        .num_pes(point.pes)
        .freq_mhz(point.freq_mhz)
        .kmemory_depth(point.kmem_depth)
        .build()
        .map_err(|e| DseError::Spec(e.to_string()))?;
    Ok((net, cfg))
}

/// What a feasible result must be before it is served: every field
/// finite and none negative. A clock past the models' range overflows
/// them, and the wire has no form for a non-finite number. [`evaluate`]
/// checks every result with it, and the cache-file loader every record.
///
/// # Errors
///
/// [`DseError::Spec`] naming the first failing field.
pub(crate) fn check_result(result: &PointResult) -> Result<(), DseError> {
    for (field, value) in [
        ("fps", result.fps),
        ("achieved_gops", result.achieved_gops),
        ("peak_gops", result.peak_gops),
        ("chip_mw", result.chip_mw),
        ("dram_mw", result.dram_mw),
        ("gates_k", result.gates_k),
        ("sram_kb", result.sram_kb),
        ("sqnr_db", result.sqnr_db),
    ] {
        if !(value.is_finite() && value >= 0.0) {
            return Err(DseError::Spec(format!(
                "'{field}' is {value} at this point (outside the models' range)"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_point_reproduces_headline_numbers() {
        let out = evaluate(&DesignPoint::paper_alexnet()).unwrap();
        let r = out.result().expect("paper point is feasible");
        assert_eq!(r.peak_gops, 806.4);
        // Fig. 10: 567.5 mW on-chip; fitted model lands within ~6 %.
        assert!(
            (r.chip_mw - 567.5).abs() / 567.5 < 0.06,
            "chip {}",
            r.chip_mw
        );
        assert!((r.gops_per_watt() - 1421.0).abs() / 1421.0 < 0.06);
        assert!(r.fps > 200.0);
        assert!(r.dram_mw > 0.0);
        assert!(r.sram_kb > 300.0);
    }

    #[test]
    fn too_short_chain_is_infeasible_not_fatal() {
        let point = DesignPoint {
            pes: 64, // AlexNet conv1 is 11x11 -> needs 121 PEs
            ..DesignPoint::paper_alexnet()
        };
        match evaluate(&point).unwrap() {
            PointOutcome::Infeasible(reason) => {
                assert!(!reason.is_empty());
            }
            PointOutcome::Feasible(_) => panic!("64 PEs cannot run K=11"),
        }
    }

    #[test]
    fn unknown_network_is_a_hard_error() {
        let point = DesignPoint {
            net: "notanet".into(),
            ..DesignPoint::paper_alexnet()
        };
        assert!(evaluate(&point).is_err());
    }

    #[test]
    fn empty_batches_and_overflowing_results_are_spec_errors() {
        let empty = DesignPoint {
            batch: 0,
            ..DesignPoint::paper_alexnet()
        };
        assert!(matches!(evaluate(&empty), Err(DseError::Spec(m)) if m.contains("batch")));
        // 1e300 MHz overflows the achieved throughput to infinity.
        let overclocked = DesignPoint {
            freq_mhz: 1e300,
            ..DesignPoint::paper_alexnet()
        };
        assert!(
            matches!(evaluate(&overclocked), Err(DseError::Spec(m)) if m.contains("achieved_gops")),
            "{:?}",
            evaluate(&overclocked)
        );
    }

    #[test]
    fn sub_byte_word_width_is_rejected_not_aliased() {
        let point = DesignPoint {
            word_bits: 4,
            ..DesignPoint::paper_alexnet()
        };
        assert!(matches!(evaluate(&point), Err(DseError::Spec(m)) if m.contains('4')));
    }

    #[test]
    fn narrower_words_cut_power_and_area_not_speed() {
        let p16 = DesignPoint::paper_alexnet();
        let p8 = DesignPoint {
            word_bits: 8,
            ..p16.clone()
        };
        let r16 = *evaluate(&p16).unwrap().result().unwrap();
        let r8 = *evaluate(&p8).unwrap().result().unwrap();
        assert_eq!(r16.fps, r8.fps);
        assert!(r8.chip_mw < r16.chip_mw);
        assert!(r8.dram_mw < r16.dram_mw);
        assert!(r8.gates_k < r16.gates_k);
        assert!(r8.sram_kb < r16.sram_kb);
        // ...but narrow words now pay a measured accuracy cost, so they
        // no longer dominate for free.
        assert!(r8.sqnr_db + 20.0 < r16.sqnr_db);
    }

    #[test]
    fn sqnr_depends_only_on_net_and_width() {
        let a = *evaluate(&DesignPoint::paper_alexnet())
            .unwrap()
            .result()
            .unwrap();
        let b = *evaluate(&DesignPoint {
            pes: 800,
            freq_mhz: 350.0,
            batch: 1,
            ..DesignPoint::paper_alexnet()
        })
        .unwrap()
        .result()
        .unwrap();
        assert_eq!(a.sqnr_db.to_bits(), b.sqnr_db.to_bits());
        assert!(a.sqnr_db.is_finite() && a.sqnr_db > 0.0);
    }
}
