//! Parallel design-space exploration (DSE) for the Chain-NN models.
//!
//! The paper's headline numbers come from a single hand-picked point —
//! 576 PEs at 700 MHz with 32 + 25 KB SRAM and 16-bit operands. This
//! crate turns that single evaluation into a subsystem: define a grid
//! over the architectural knobs ([`SweepSpec`]), evaluate every point
//! through the existing performance / traffic / power / area stack on a
//! multithreaded work-queue executor, memoize results in a
//! content-hashed cache so overlapping sweeps are incremental, and
//! extract fps × power × area Pareto frontiers for export as CSV/JSON.
//!
//! * [`spec`] — [`SweepSpec`] grids, [`DesignPoint`]s, CLI range parsing.
//! * [`eval`] — one point through the full model stack.
//! * [`accuracy`] — the measured float-vs-fixed SQNR model behind the
//!   quantization axis: every evaluated point carries the `sqnr_db` of
//!   its `(network, word width)` pair, so narrow words pay a measured
//!   accuracy cost instead of dominating for free.
//! * [`engine`] — the work-assisting execution engine: per-job atomic
//!   claim cursors, adaptive claim sizing, bounded admission. The
//!   sweep executor, the serving daemon's scheduler and the tuner's
//!   rounds all run on it.
//! * [`executor`] — the one-shot sweep entry point over [`engine`];
//!   results are index-sorted, so output is byte-identical at any
//!   thread count.
//! * [`cache`] — content-hashed memoization ([`PointCache`]).
//! * [`pareto`] — 2D / 3D non-dominated frontier extraction.
//! * [`export`] — CSV / JSON writers following `chain-nn-bench`'s
//!   conventions.
//!
//! # Example
//!
//! ```
//! use chain_nn_dse::{Explorer, SweepSpec};
//!
//! let spec = SweepSpec {
//!     pes: vec![288, 576, 1152],
//!     freqs_mhz: vec![350.0, 700.0],
//!     ..SweepSpec::paper_point()
//! };
//! let mut explorer = Explorer::new();
//! let result = explorer.run(&spec, 2).unwrap();
//! assert_eq!(result.points.len(), 6);
//! // The paper's 576-PE / 700 MHz point is Pareto-optimal.
//! assert!(result.contains_paper_point_on_frontier());
//! // Re-running the same spec costs nothing new.
//! let again = explorer.run(&spec, 4).unwrap();
//! assert_eq!(again.stats.cache_hits, 6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod cache;
pub mod engine;
pub mod eval;
pub mod executor;
pub mod export;
pub mod mix;
pub mod pareto;
pub mod persist;
pub mod spec;

use std::error::Error;
use std::fmt;
use std::sync::OnceLock;
use std::time::Instant;

use chain_nn_nets::{zoo, Network};

pub use accuracy::AccuracyStats;
pub use cache::{CacheStats, PointCache};
pub use eval::{evaluate, PointOutcome, PointResult};
pub use mix::{MixEntry, MixOutcome, MixResult, WorkloadMix};
pub use persist::{CacheFile, LoadReport};
pub use spec::{DesignPoint, RangeSpec, SweepPart, SweepSpec};

/// Errors produced by the DSE engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DseError {
    /// The sweep specification itself is invalid.
    Spec(String),
}

impl fmt::Display for DseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DseError::Spec(msg) => write!(f, "invalid sweep spec: {msg}"),
        }
    }
}

impl Error for DseError {}

/// Looks a zoo network up by its CLI name (case-insensitive, with the
/// common aliases). Returns a copy of the network the process builds
/// once and evaluates every point of.
pub fn network_by_name(name: &str) -> Option<Network> {
    ZooNet::find(name).map(|net| net.network().clone())
}

/// One zoo network: its spellings and its constructor.
type ZooEntry = (&'static [&'static str], fn() -> Network);

/// The zoo, in [`ZooNet`] order.
const ZOO: [ZooEntry; 6] = [
    (&["alexnet"], zoo::alexnet),
    (&["vgg16", "vgg-16"], zoo::vgg16),
    (&["lenet", "lenet-5", "mnist"], zoo::lenet),
    (&["cifar10", "cifar-10"], zoo::cifar10),
    (&["resnet18", "resnet-18"], zoo::resnet18),
    (
        &["mobilenet", "mobilenetv1", "mobilenet-v1"],
        zoo::mobilenet_v1,
    ),
];

/// A zoo network, found by any of its spellings. Evaluation and the
/// accuracy memo key on it, so `vgg16` and `VGG-16` share one built
/// network and one measured SQNR per word width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ZooNet(usize);

impl ZooNet {
    /// How many networks the zoo holds.
    pub(crate) const COUNT: usize = ZOO.len();

    /// The network `name` spells (case-insensitive), without building
    /// it.
    pub(crate) fn find(name: &str) -> Option<ZooNet> {
        ZOO.iter()
            .position(|(aliases, _)| aliases.iter().any(|a| a.eq_ignore_ascii_case(name)))
            .map(ZooNet)
    }

    /// Its place in the zoo, below [`ZooNet::COUNT`].
    pub(crate) fn index(self) -> usize {
        self.0
    }

    /// The network, built on first use and shared by the process after.
    pub(crate) fn network(self) -> &'static Network {
        static BUILT: [OnceLock<Network>; ZooNet::COUNT] =
            [const { OnceLock::new() }; ZooNet::COUNT];
        BUILT[self.0].get_or_init(ZOO[self.0].1)
    }
}

/// Wall-clock and cache statistics of one sweep run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepStats {
    /// Points in the grid.
    pub points: usize,
    /// Points that mapped and produced model results.
    pub feasible: usize,
    /// Cache hits during this run.
    pub cache_hits: u64,
    /// Cache misses (fresh evaluations) during this run.
    pub cache_misses: u64,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock time of the run in milliseconds.
    pub wall_ms: f64,
}

impl SweepStats {
    /// Grid points processed per second of wall time.
    pub fn points_per_sec(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            return 0.0;
        }
        self.points as f64 / (self.wall_ms / 1e3)
    }
}

/// Everything one sweep produced: the grid, per-point outcomes in grid
/// order, both Pareto frontiers (as indices into `points`) and run
/// statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// The flattened grid, in [`SweepSpec::points`] order.
    pub points: Vec<DesignPoint>,
    /// Outcome per point, aligned with `points`.
    pub outcomes: Vec<PointOutcome>,
    /// Indices of fps × power non-dominated points (ascending).
    pub frontier_2d: Vec<usize>,
    /// Indices of fps × power × area non-dominated points (ascending).
    pub frontier_3d: Vec<usize>,
    /// Indices of fps × power × SQNR non-dominated points (ascending) —
    /// the accuracy variant of the 3D frontier, where measured
    /// precision replaces logic area as the third axis.
    pub frontier_sqnr: Vec<usize>,
    /// Run statistics.
    pub stats: SweepStats,
}

impl SweepResult {
    /// The `(point, result)` pairs of the 3D frontier.
    pub fn frontier_points(&self) -> Vec<(&DesignPoint, &PointResult)> {
        self.frontier_3d
            .iter()
            .filter_map(|&i| Some((&self.points[i], self.outcomes[i].result()?)))
            .collect()
    }

    /// Whether the paper's 576-PE AlexNet point is in this sweep *and*
    /// on the 3D Pareto frontier (the acceptance check for the default
    /// grid).
    pub fn contains_paper_point_on_frontier(&self) -> bool {
        let paper = DesignPoint::paper_alexnet();
        self.frontier_3d.iter().any(|&i| self.points[i] == paper)
    }
}

/// The exploration engine: a memo cache plus the executor. Reuse one
/// `Explorer` across sweeps to make overlapping grids incremental.
#[derive(Debug, Default)]
pub struct Explorer {
    cache: PointCache,
}

impl Explorer {
    /// A fresh explorer with an empty cache.
    pub fn new() -> Self {
        Explorer::default()
    }

    /// The memo cache (for inspection; sweeps manage it themselves).
    pub fn cache(&self) -> &PointCache {
        &self.cache
    }

    /// Runs `spec` on `threads` worker threads.
    ///
    /// Results come back in deterministic grid order regardless of
    /// `threads`; already-cached points are not re-evaluated.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::Spec`] when the spec fails validation.
    pub fn run(&mut self, spec: &SweepSpec, threads: usize) -> Result<SweepResult, DseError> {
        spec.validate()?;
        let points = spec.points();
        let before = self.cache.stats();
        let start = Instant::now();
        let outcomes = executor::run(&points, threads, &self.cache)?;
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let after = self.cache.stats();

        let objectives: Vec<(usize, pareto::Objectives)> = outcomes
            .iter()
            .enumerate()
            .filter_map(|(i, o)| Some((i, pareto::Objectives::from(o.result()?))))
            .collect();
        let frontier_2d = pareto::frontier_2d(&objectives);
        let frontier_3d = pareto::frontier_3d(&objectives);
        let frontier_sqnr = pareto::frontier_accuracy(&objectives);

        let stats = SweepStats {
            points: points.len(),
            feasible: objectives.len(),
            cache_hits: after.hits - before.hits,
            cache_misses: after.misses - before.misses,
            threads: threads.max(1),
            wall_ms,
        };
        Ok(SweepResult {
            points,
            outcomes,
            frontier_2d,
            frontier_3d,
            frontier_sqnr,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_grid_sweeps_and_keeps_paper_point_on_frontier() {
        let spec = SweepSpec::default_grid();
        let result = Explorer::new()
            .run(&spec, executor::default_threads())
            .unwrap();
        assert!(result.stats.points >= 200);
        assert!(result.stats.feasible > result.stats.points / 2);
        assert!(
            result.contains_paper_point_on_frontier(),
            "paper point dominated; frontier: {:?}",
            result
                .frontier_points()
                .iter()
                .map(|(p, _)| p.to_string())
                .collect::<Vec<_>>()
        );
        // Frontiers are non-trivial: some points survive, some don't.
        assert!(!result.frontier_3d.is_empty());
        assert!(result.frontier_3d.len() < result.stats.feasible);
        // The default grid is one network at one word width, so the
        // SQNR axis is constant and the accuracy frontier degenerates
        // to the fps × power projection.
        assert_eq!(result.frontier_sqnr, result.frontier_2d);
    }

    #[test]
    fn mixed_width_accuracy_frontier_keeps_both_words() {
        let spec = SweepSpec {
            word_bits: vec![8, 16],
            nets: vec!["lenet".into()],
            pes: vec![25, 50],
            ..SweepSpec::paper_point()
        };
        let result = Explorer::new().run(&spec, 2).unwrap();
        let widths_on = |frontier: &[usize]| {
            let mut w: Vec<u32> = frontier
                .iter()
                .map(|&i| result.points[i].word_bits)
                .collect();
            w.sort_unstable();
            w.dedup();
            w
        };
        // fps × power × area: 8-bit dominates (same fps, less of all).
        assert_eq!(widths_on(&result.frontier_3d), vec![8]);
        // fps × power × SQNR: 16-bit survives on measured precision.
        assert_eq!(widths_on(&result.frontier_sqnr), vec![8, 16]);
    }

    #[test]
    fn infeasible_points_are_recorded_not_fatal() {
        let spec = SweepSpec {
            pes: vec![64, 576], // 64 < 121 = 11x11 (AlexNet conv1)
            ..SweepSpec::paper_point()
        };
        let result = Explorer::new().run(&spec, 1).unwrap();
        assert_eq!(result.stats.points, 2);
        assert_eq!(result.stats.feasible, 1);
        assert!(result.outcomes[0].result().is_none());
        assert!(result.outcomes[1].result().is_some());
        assert_eq!(result.frontier_3d, vec![1]);
    }

    #[test]
    fn explorer_cache_carries_across_specs() {
        let mut explorer = Explorer::new();
        let narrow = SweepSpec {
            pes: vec![288, 576],
            nets: vec!["cifar10".into()],
            ..SweepSpec::paper_point()
        };
        let wide = SweepSpec {
            pes: vec![144, 288, 576, 1152],
            nets: vec!["cifar10".into()],
            ..SweepSpec::paper_point()
        };
        let first = explorer.run(&narrow, 2).unwrap();
        assert_eq!(first.stats.cache_misses, 2);
        let second = explorer.run(&wide, 2).unwrap();
        assert_eq!(second.stats.cache_hits, 2);
        assert_eq!(second.stats.cache_misses, 2);
    }

    #[test]
    fn run_rejects_bad_specs() {
        let mut spec = SweepSpec::paper_point();
        spec.pes.clear();
        assert!(Explorer::new().run(&spec, 1).is_err());
    }
}
