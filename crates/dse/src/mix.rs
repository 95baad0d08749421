//! Multi-network workload mixes: one accelerator serving a weighted
//! set of networks, with the sweep objectives aggregated across the
//! mix.
//!
//! The paper (and the sweeps of PR 1/2) evaluate one network at a
//! time, but a deployed accelerator serves a *traffic mix* — say 70 %
//! AlexNet inferences and 30 % VGG-16. A [`WorkloadMix`] is that
//! weighted set; [`WorkloadMix::aggregate`] folds the per-network
//! [`PointOutcome`]s of one hardware configuration into a single
//! [`MixOutcome`]:
//!
//! * **Throughput** is the weighted *harmonic* mean of the per-network
//!   fps — the steady-state rate of a server interleaving requests in
//!   the mix's proportions (arithmetic means overstate it: time per
//!   frame adds, rates do not).
//! * **Power** is the *maximum* across the mix — the provisioning
//!   number: the supply and thermal envelope must absorb the hungriest
//!   network, not the average.
//! * **Area** (gates, SRAM) is network-independent and must agree
//!   across the per-network evaluations of one configuration.
//!
//! A configuration that cannot run *any* positive-weight network of
//! the mix is infeasible as a whole — an accelerator that falls over
//! on 30 % of traffic is not a candidate. Zero-weight entries are
//! dropped at construction: they contribute no traffic, so they
//! constrain nothing.
//!
//! Each `(configuration, network)` pair goes through the one shared
//! [`PointCache`], so mixes, sweeps and tuner rounds all reuse each
//! other's evaluations.

use std::fmt;

use crate::cache::PointCache;
use crate::eval::{PointOutcome, PointResult};
use crate::executor::evaluate_cached_tracked;
use crate::spec::DesignPoint;
use crate::DseError;

/// One entry of a workload mix: a zoo network and its traffic share.
#[derive(Debug, Clone, PartialEq)]
pub struct MixEntry {
    /// Network name, resolvable via [`crate::network_by_name`].
    pub net: String,
    /// Relative traffic weight (positive; weights need not sum to 1).
    pub weight: f64,
}

/// A weighted set of networks served by one accelerator.
///
/// Entries keep their construction order; the first entry is the
/// **primary** network, used as the canonical identity of a mix
/// candidate (tuner tie-breaks hash the base point under the primary
/// net).
///
/// # Example
///
/// ```
/// use chain_nn_dse::WorkloadMix;
///
/// let mix = WorkloadMix::parse("alexnet:0.7,vgg16:0.3").unwrap();
/// assert_eq!(mix.primary(), "alexnet");
/// assert_eq!(mix.entries().len(), 2);
/// assert_eq!(mix.to_string(), "70% alexnet + 30% vgg16");
/// // Zero-weight entries contribute no traffic and are dropped:
/// let trimmed = WorkloadMix::parse("alexnet:1,vgg16:0").unwrap();
/// assert_eq!(trimmed, WorkloadMix::single("alexnet").unwrap());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadMix {
    entries: Vec<MixEntry>,
}

impl WorkloadMix {
    /// Builds a mix, validating the entries: every net must resolve,
    /// weights must be finite and non-negative, at least one weight
    /// must be positive, and a network may appear only once.
    /// Zero-weight entries are dropped (no traffic, no constraint).
    ///
    /// # Errors
    ///
    /// Returns [`DseError::Spec`] naming the offending entry.
    pub fn new(entries: Vec<MixEntry>) -> Result<Self, DseError> {
        if entries.is_empty() {
            return Err(DseError::Spec("workload mix has no entries".into()));
        }
        for e in &entries {
            if crate::ZooNet::find(&e.net).is_none() {
                return Err(DseError::Spec(format!("unknown network '{}'", e.net)));
            }
            if !(e.weight.is_finite() && e.weight >= 0.0) {
                return Err(DseError::Spec(format!(
                    "weight {} for '{}' is not a non-negative number",
                    e.weight, e.net
                )));
            }
        }
        let kept: Vec<MixEntry> = entries.into_iter().filter(|e| e.weight > 0.0).collect();
        if kept.is_empty() {
            return Err(DseError::Spec(
                "workload mix has no positive-weight entries".into(),
            ));
        }
        for (i, e) in kept.iter().enumerate() {
            if kept[..i].iter().any(|prev| prev.net == e.net) {
                return Err(DseError::Spec(format!(
                    "network '{}' appears twice in the mix",
                    e.net
                )));
            }
        }
        Ok(WorkloadMix { entries: kept })
    }

    /// The trivial mix: one network, weight 1.
    ///
    /// # Errors
    ///
    /// [`DseError::Spec`] when `net` is not a zoo network.
    pub fn single(net: &str) -> Result<Self, DseError> {
        WorkloadMix::new(vec![MixEntry {
            net: net.to_owned(),
            weight: 1.0,
        }])
    }

    /// Parses the CLI form `"alexnet:0.7,vgg16:0.3"`. The `:weight`
    /// suffix defaults to 1, so `"alexnet"` is the single-net mix and
    /// `"alexnet,vgg16"` weights both equally.
    ///
    /// # Errors
    ///
    /// [`DseError::Spec`] on an empty string, a malformed weight, or
    /// anything [`WorkloadMix::new`] rejects.
    pub fn parse(text: &str) -> Result<Self, DseError> {
        let mut entries = Vec::new();
        for part in text.split(',') {
            let part = part.trim();
            if part.is_empty() {
                return Err(DseError::Spec(format!(
                    "empty entry in workload mix '{text}'"
                )));
            }
            let (net, weight) = match part.split_once(':') {
                None => (part, 1.0),
                Some((net, w)) => (
                    net.trim(),
                    w.trim().parse::<f64>().map_err(|_| {
                        DseError::Spec(format!("cannot parse mix weight '{w}' for '{net}'"))
                    })?,
                ),
            };
            entries.push(MixEntry {
                net: net.to_owned(),
                weight,
            });
        }
        WorkloadMix::new(entries)
    }

    /// The validated, positive-weight entries in construction order.
    pub fn entries(&self) -> &[MixEntry] {
        &self.entries
    }

    /// The first (primary) network of the mix — the canonical identity
    /// net for a mix candidate's base [`DesignPoint`].
    pub fn primary(&self) -> &str {
        &self.entries[0].net
    }

    /// The per-network design points of one hardware configuration:
    /// `base` with its `net` replaced by each mix entry's, in entry
    /// order. These are the cache keys one mix evaluation touches.
    pub fn points_for(&self, base: &DesignPoint) -> Vec<DesignPoint> {
        self.entries
            .iter()
            .map(|e| DesignPoint {
                net: e.net.clone(),
                ..base.clone()
            })
            .collect()
    }

    /// Folds per-network outcomes (aligned with [`WorkloadMix::entries`])
    /// into the mix outcome. See the module docs for the semantics
    /// (harmonic-mean fps, max power, net-independent area).
    ///
    /// # Panics
    ///
    /// Panics when `outcomes` is not aligned with the entries — that is
    /// a caller bug, not data.
    pub fn aggregate(&self, outcomes: &[PointOutcome]) -> MixOutcome {
        assert_eq!(
            outcomes.len(),
            self.entries.len(),
            "one outcome per mix entry"
        );
        let mut results = Vec::with_capacity(outcomes.len());
        for (entry, outcome) in self.entries.iter().zip(outcomes) {
            match outcome {
                PointOutcome::Feasible(r) => results.push(r),
                PointOutcome::Infeasible(reason) => {
                    return MixOutcome::Infeasible(format!("{}: {reason}", entry.net));
                }
            }
        }
        let total_weight: f64 = self.entries.iter().map(|e| e.weight).sum();
        let inverse_rate: f64 = self
            .entries
            .iter()
            .zip(&results)
            .map(|(e, r)| e.weight / r.fps)
            .sum();
        // The hungriest network sets the envelope; report that
        // network's full power split so chip + dram stays coherent.
        let hungriest = results
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.system_mw().total_cmp(&b.system_mw()))
            .map(|(i, _)| i)
            .expect("at least one entry");
        let worst = results[hungriest];
        // Accuracy, like power, is provisioned for the worst case: the
        // mix is only as precise as its least-precise network.
        let sqnr_db = results
            .iter()
            .map(|r| r.sqnr_db)
            .fold(f64::INFINITY, f64::min);
        MixOutcome::Feasible(MixResult {
            fps: total_weight / inverse_rate,
            chip_mw: worst.chip_mw,
            dram_mw: worst.dram_mw,
            peak_gops: worst.peak_gops,
            gates_k: worst.gates_k,
            sram_kb: worst.sram_kb,
            sqnr_db,
        })
    }
}

impl fmt::Display for WorkloadMix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total: f64 = self.entries.iter().map(|e| e.weight).sum();
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{:.0}% {}", 100.0 * e.weight / total, e.net)?;
        }
        Ok(())
    }
}

/// Aggregated model outputs of one configuration over a workload mix.
/// For a single-net mix this is exactly the per-point [`PointResult`]
/// restricted to the shared fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixResult {
    /// Weighted harmonic-mean frames per second across the mix.
    pub fps: f64,
    /// On-chip power of the hungriest network, mW.
    pub chip_mw: f64,
    /// DRAM interface power of that same network, mW.
    pub dram_mw: f64,
    /// Peak throughput of the configuration, GOPS (net-independent).
    pub peak_gops: f64,
    /// Chain logic area, NAND2-equivalent kilo-gates (net-independent).
    pub gates_k: f64,
    /// Total on-chip SRAM, KB (net-independent).
    pub sram_kb: f64,
    /// Worst (minimum) measured SQNR across the mix, dB — the mix is
    /// only as precise as its least-precise network at this word width.
    pub sqnr_db: f64,
}

impl MixResult {
    /// Worst-case system power across the mix: on-chip plus DRAM
    /// interface, mW. The provisioning number budgets constrain.
    pub fn system_mw(&self) -> f64 {
        self.chip_mw + self.dram_mw
    }

    /// Whole-chip energy efficiency at the worst-case power, peak GOPS
    /// per on-chip watt.
    pub fn gops_per_watt(&self) -> f64 {
        self.peak_gops / (self.chip_mw / 1e3)
    }
}

impl From<&PointResult> for MixResult {
    fn from(r: &PointResult) -> Self {
        MixResult {
            fps: r.fps,
            chip_mw: r.chip_mw,
            dram_mw: r.dram_mw,
            peak_gops: r.peak_gops,
            gates_k: r.gates_k,
            sram_kb: r.sram_kb,
            sqnr_db: r.sqnr_db,
        }
    }
}

/// Outcome of one configuration over a mix: feasible on every
/// positive-weight network, or infeasible with the first failing
/// network named.
#[derive(Debug, Clone, PartialEq)]
pub enum MixOutcome {
    /// Every network of the mix maps; aggregated metrics attached.
    Feasible(MixResult),
    /// Some network of the mix cannot run on this configuration.
    Infeasible(String),
}

impl MixOutcome {
    /// The aggregated result, if feasible.
    pub fn result(&self) -> Option<&MixResult> {
        match self {
            MixOutcome::Feasible(r) => Some(r),
            MixOutcome::Infeasible(_) => None,
        }
    }
}

/// Evaluates one configuration over a mix through `cache`, returning
/// the aggregate plus this call's `(hits, misses)` cache traffic. The
/// `net` field of `base` is ignored — the mix decides the networks.
///
/// # Errors
///
/// Propagates spec-level evaluation errors ([`DseError`]);
/// model-level infeasibility is data.
pub fn evaluate_mix(
    base: &DesignPoint,
    mix: &WorkloadMix,
    cache: &PointCache,
) -> Result<(MixOutcome, u64, u64), DseError> {
    let mut outcomes = Vec::with_capacity(mix.entries().len());
    let (mut hits, mut misses) = (0u64, 0u64);
    for point in mix.points_for(base) {
        let (outcome, hit) = evaluate_cached_tracked(&point, cache)?;
        if hit {
            hits += 1;
        } else {
            misses += 1;
        }
        outcomes.push(outcome);
    }
    Ok((mix.aggregate(&outcomes), hits, misses))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate;

    fn feasible(fps: f64, chip: f64, dram: f64) -> PointOutcome {
        feasible_sqnr(fps, chip, dram, 60.0)
    }

    fn feasible_sqnr(fps: f64, chip: f64, dram: f64, sqnr: f64) -> PointOutcome {
        PointOutcome::Feasible(PointResult {
            fps,
            achieved_gops: fps,
            peak_gops: 100.0,
            chip_mw: chip,
            dram_mw: dram,
            gates_k: 500.0,
            sram_kb: 57.0,
            sqnr_db: sqnr,
        })
    }

    #[test]
    fn parse_forms_and_validation() {
        let mix = WorkloadMix::parse("alexnet:0.7,vgg16:0.3").unwrap();
        assert_eq!(mix.entries().len(), 2);
        assert_eq!(mix.primary(), "alexnet");
        assert_eq!(WorkloadMix::parse("alexnet").unwrap().entries().len(), 1);
        let equal = WorkloadMix::parse("alexnet,vgg16").unwrap();
        assert_eq!(equal.entries()[0].weight, equal.entries()[1].weight);

        assert!(WorkloadMix::parse("").is_err());
        assert!(WorkloadMix::parse("alexnet:fast").is_err());
        assert!(WorkloadMix::parse("squeezenet").is_err());
        assert!(WorkloadMix::parse("alexnet:-1").is_err());
        assert!(WorkloadMix::parse("alexnet:0.5,alexnet:0.5").is_err());
        assert!(WorkloadMix::parse("alexnet:0,vgg16:0").is_err());
    }

    #[test]
    fn zero_weight_entries_are_dropped() {
        let mix = WorkloadMix::parse("alexnet:1,vgg16:0").unwrap();
        assert_eq!(mix.entries().len(), 1);
        assert_eq!(mix.primary(), "alexnet");
        // Equivalent to the mix that never mentioned the zero net.
        assert_eq!(mix, WorkloadMix::single("alexnet").unwrap());
        // And a zero-weight net's infeasibility cannot poison the mix:
        // lenet needs few PEs, vgg16 at weight 0 is simply absent.
        let cache = PointCache::new();
        let base = DesignPoint {
            pes: 25,
            ..DesignPoint::paper_alexnet()
        };
        let mix = WorkloadMix::parse("lenet:1,vgg16:0").unwrap();
        let (outcome, _, _) = evaluate_mix(&base, &mix, &cache).unwrap();
        assert!(outcome.result().is_some(), "{outcome:?}");
    }

    #[test]
    fn single_net_mix_equals_plain_eval() {
        let mix = WorkloadMix::single("alexnet").unwrap();
        let base = DesignPoint::paper_alexnet();
        let cache = PointCache::new();
        let (outcome, hits, misses) = evaluate_mix(&base, &mix, &cache).unwrap();
        assert_eq!((hits, misses), (0, 1));
        let mixed = *outcome.result().expect("paper point feasible");
        let plain = evaluate(&base).unwrap();
        let plain = plain.result().expect("feasible");
        assert_eq!(mixed, MixResult::from(plain));
        assert_eq!(mixed.fps.to_bits(), plain.fps.to_bits());
        assert_eq!(mixed.system_mw().to_bits(), plain.system_mw().to_bits());
    }

    #[test]
    fn aggregate_is_harmonic_fps_and_max_power() {
        let mix = WorkloadMix::parse("alexnet:3,vgg16:1").unwrap();
        // alexnet: 100 fps @ 400+50 mW; vgg16: 20 fps @ 600+100 mW.
        let outcome = mix.aggregate(&[feasible(100.0, 400.0, 50.0), feasible(20.0, 600.0, 100.0)]);
        let r = *outcome.result().unwrap();
        // Weighted harmonic mean: 4 / (3/100 + 1/20) = 50.
        assert!((r.fps - 50.0).abs() < 1e-12, "fps {}", r.fps);
        assert_eq!(r.chip_mw, 600.0);
        assert_eq!(r.dram_mw, 100.0);
        assert_eq!(r.system_mw(), 700.0);
    }

    #[test]
    fn aggregate_takes_the_worst_sqnr() {
        let mix = WorkloadMix::parse("alexnet:1,vgg16:1").unwrap();
        let outcome = mix.aggregate(&[
            feasible_sqnr(100.0, 400.0, 50.0, 72.5),
            feasible_sqnr(20.0, 600.0, 100.0, 31.0),
        ]);
        assert_eq!(outcome.result().unwrap().sqnr_db, 31.0);
    }

    #[test]
    fn any_infeasible_net_makes_the_mix_infeasible() {
        let mix = WorkloadMix::parse("alexnet:1,vgg16:1").unwrap();
        let outcome = mix.aggregate(&[
            feasible(100.0, 400.0, 50.0),
            PointOutcome::Infeasible("chain too short".into()),
        ]);
        match outcome {
            MixOutcome::Infeasible(reason) => {
                assert!(reason.contains("vgg16"), "{reason}");
                assert!(reason.contains("chain too short"), "{reason}");
            }
            MixOutcome::Feasible(_) => panic!("mix must be infeasible"),
        }
    }

    #[test]
    fn evaluate_mix_reuses_the_cache_per_config_net_pair() {
        let mix = WorkloadMix::parse("alexnet:0.7,vgg16:0.3").unwrap();
        let base = DesignPoint::paper_alexnet();
        let cache = PointCache::new();
        let (_, hits, misses) = evaluate_mix(&base, &mix, &cache).unwrap();
        assert_eq!((hits, misses), (0, 2));
        let (again, hits, misses) = evaluate_mix(&base, &mix, &cache).unwrap();
        assert_eq!((hits, misses), (2, 0));
        assert!(again.result().is_some());
        // The ignored base net aliases onto the mix nets: a base already
        // carrying "vgg16" touches the same two cache keys.
        let vgg_base = DesignPoint {
            net: "vgg16".into(),
            ..base
        };
        let (_, hits, misses) = evaluate_mix(&vgg_base, &mix, &cache).unwrap();
        assert_eq!((hits, misses), (2, 0));
    }

    #[test]
    fn display_shows_percentages() {
        let mix = WorkloadMix::parse("alexnet:0.7,vgg16:0.3").unwrap();
        assert_eq!(mix.to_string(), "70% alexnet + 30% vgg16");
    }
}
