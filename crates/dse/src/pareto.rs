//! Pareto-frontier extraction over the sweep objectives.
//!
//! Objectives: maximize throughput (fps), minimize system power
//! (on-chip + DRAM interface, mW), minimize logic area (kilo-gates),
//! and maximize measured accuracy (SQNR, dB). A point is dominated when
//! some other point is at least as good on every objective and strictly
//! better on at least one. Three frontiers are extracted: the classic
//! 3D fps × power × area, its 2D fps × power projection, and the
//! accuracy variant fps × power × SQNR (which is what keeps 16-bit
//! points alive against cooler 8-bit ones).
//!
//! # Example
//!
//! ```
//! use chain_nn_dse::pareto::{frontier_3d, Objectives};
//!
//! let obj = |fps, mw, gates| Objectives { fps, system_mw: mw, gates_k: gates, sqnr_db: 60.0 };
//! let points = vec![
//!     (0, obj(10.0, 100.0, 50.0)),
//!     (1, obj(10.0, 120.0, 50.0)), // dominated by 0
//!     (2, obj(20.0, 180.0, 90.0)),
//! ];
//! assert_eq!(frontier_3d(&points), vec![0, 2]);
//! ```

use std::collections::BTreeMap;

use crate::eval::PointResult;

/// The objective vector of one feasible point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Objectives {
    /// Throughput, maximized.
    pub fps: f64,
    /// System power (chip + DRAM interface) in mW, minimized.
    pub system_mw: f64,
    /// Logic area in kilo-gates, minimized.
    pub gates_k: f64,
    /// Measured quantization SQNR in dB, maximized.
    pub sqnr_db: f64,
}

impl From<&PointResult> for Objectives {
    fn from(r: &PointResult) -> Self {
        Objectives {
            fps: r.fps,
            system_mw: r.system_mw(),
            gates_k: r.gates_k,
            sqnr_db: r.sqnr_db,
        }
    }
}

/// Whether `a` dominates `b` in the 3D (fps, power, area) sense.
pub fn dominates_3d(a: &Objectives, b: &Objectives) -> bool {
    let no_worse = a.fps >= b.fps && a.system_mw <= b.system_mw && a.gates_k <= b.gates_k;
    let better = a.fps > b.fps || a.system_mw < b.system_mw || a.gates_k < b.gates_k;
    no_worse && better
}

/// Whether `a` dominates `b` ignoring area (fps × power).
pub fn dominates_2d(a: &Objectives, b: &Objectives) -> bool {
    let no_worse = a.fps >= b.fps && a.system_mw <= b.system_mw;
    let better = a.fps > b.fps || a.system_mw < b.system_mw;
    no_worse && better
}

/// Whether `a` dominates `b` in the accuracy sense: fps × power ×
/// SQNR, with the area axis swapped out for measured precision.
pub fn dominates_accuracy(a: &Objectives, b: &Objectives) -> bool {
    let no_worse = a.fps >= b.fps && a.system_mw <= b.system_mw && a.sqnr_db >= b.sqnr_db;
    let better = a.fps > b.fps || a.system_mw < b.system_mw || a.sqnr_db > b.sqnr_db;
    no_worse && better
}

/// An axis value as an integer with the same order, `−0.0` folded onto
/// `+0.0` (`x + 0.0`) so that values `==` calls equal get equal keys.
/// Never called on a NaN.
fn order_key(x: f64) -> u64 {
    let bits = (x + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The frontier under the relation whose three axes `axes` returns, each
/// to be minimized: `a` dominates `b` when it is no greater on every
/// axis and smaller on one, which is what `dominates_*` compute.
///
/// A sort-and-sweep (Kung, Luccio & Preparata, J. ACM 1975) in
/// O(n log n). Sorted lexicographically, every dominator comes before
/// the points it dominates, and a run of equal vectors is checked
/// before any of it is added, so equal vectors never dominate each
/// other. The sweep keeps a staircase of the frontier found so far over
/// the last two axes (its z strictly falls as its y rises), so "is some
/// earlier point no greater on y and z" is one look at the step at or
/// below y. A point with a NaN on an axis the relation reads compares
/// false both ways: it stays on the frontier and dominates nothing.
///
/// Each entry is its own point; every caller passes distinct indices.
/// Output keeps input order.
fn frontier_by(
    objectives: &[(usize, Objectives)],
    axes: fn(&Objectives) -> [f64; 3],
) -> Vec<usize> {
    let mut sorted: Vec<([u64; 3], usize)> = objectives
        .iter()
        .enumerate()
        .filter_map(|(at, (_, o))| {
            let v = axes(o);
            (!v.iter().any(|x| x.is_nan())).then(|| (v.map(order_key), at))
        })
        .collect();
    sorted.sort_unstable();
    let mut dominated = vec![false; objectives.len()];
    let mut stairs: BTreeMap<u64, u64> = BTreeMap::new();
    for run in sorted.chunk_by(|a, b| a.0 == b.0) {
        let [_, y, z] = run[0].0;
        if stairs
            .range(..=y)
            .next_back()
            .is_some_and(|(_, &sz)| sz <= z)
        {
            for &(_, at) in run {
                dominated[at] = true;
            }
            continue;
        }
        // (y, z) covers every step at or past y that is no lower.
        while let Some((&sy, _)) = stairs.range(y..).next().filter(|(_, &sz)| sz >= z) {
            stairs.remove(&sy);
        }
        stairs.insert(y, z);
    }
    objectives
        .iter()
        .zip(dominated)
        .filter(|(_, dominated)| !dominated)
        .map(|((i, _), _)| *i)
        .collect()
}

/// Indices (into the caller's list) of the 3D-non-dominated points.
/// Input is `(index, objectives)` for every *feasible* point; the
/// returned indices are ascending because input order is preserved.
pub fn frontier_3d(objectives: &[(usize, Objectives)]) -> Vec<usize> {
    frontier_by(objectives, |o| [-o.fps, o.system_mw, o.gates_k])
}

/// Indices of the 2D-non-dominated points (fps × power): the 3D sweep
/// with a constant third axis.
pub fn frontier_2d(objectives: &[(usize, Objectives)]) -> Vec<usize> {
    frontier_by(objectives, |o| [-o.fps, o.system_mw, 0.0])
}

/// Indices of the accuracy-non-dominated points (fps × power × SQNR).
pub fn frontier_accuracy(objectives: &[(usize, Objectives)]) -> Vec<usize> {
    frontier_by(objectives, |o| [-o.fps, o.system_mw, -o.sqnr_db])
}

/// Merges per-partition frontier candidate lists into one canonically
/// ordered candidate set: concatenate and sort ascending by index.
/// This is the cluster coordinator's merge step — each shard reports
/// the frontier of *its* hash-partition with global grid indices, and
/// re-filtering the merged set reproduces the frontier of the union.
///
/// Why that works: dominance is a strict partial order, so in a finite
/// set every dominated point is dominated by some non-dominated point.
/// A point on the union's frontier is also on its own partition's
/// frontier (a subset has fewer dominators), so the merged candidate
/// set always contains the union's entire frontier; and every merged
/// candidate *not* on the union's frontier is dominated by a point that
/// is — which is also in the set — so one more filtering pass removes
/// exactly the impostors. Hence for any dominance relation `d`:
/// `frontier(merge(parts)) == frontier(union)`, independent of how the
/// points were partitioned (associative and commutative in the parts).
pub fn merge_candidates(parts: &[Vec<(usize, Objectives)>]) -> Vec<(usize, Objectives)> {
    let mut all: Vec<(usize, Objectives)> = parts.concat();
    all.sort_by_key(|(i, _)| *i);
    all
}

/// The 3D frontier of merged per-partition candidates (ascending
/// global indices — identical to running [`frontier_3d`] on the union).
pub fn merge_frontier_3d(parts: &[Vec<(usize, Objectives)>]) -> Vec<usize> {
    frontier_3d(&merge_candidates(parts))
}

/// The accuracy frontier of merged per-partition candidates.
pub fn merge_frontier_accuracy(parts: &[Vec<(usize, Objectives)>]) -> Vec<usize> {
    frontier_accuracy(&merge_candidates(parts))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(fps: f64, mw: f64, gates: f64) -> Objectives {
        Objectives {
            fps,
            system_mw: mw,
            gates_k: gates,
            sqnr_db: 60.0,
        }
    }

    /// Hand-checked 3x3 grid: fps grows with "size", power grows with
    /// size and a "waste" knob. Exactly the non-wasteful diagonal plus
    /// the area-payoff point survive.
    #[test]
    fn hand_checked_tiny_frontier() {
        // (fps, mW, gates_k)
        let pts = vec![
            (0, obj(10.0, 100.0, 50.0)),  // small, efficient
            (1, obj(10.0, 120.0, 50.0)),  // small, wasteful  -> dominated by 0
            (2, obj(10.0, 100.0, 60.0)),  // small, larger    -> dominated by 0
            (3, obj(20.0, 180.0, 90.0)),  // medium, efficient
            (4, obj(20.0, 200.0, 90.0)),  // medium, wasteful -> dominated by 3
            (5, obj(20.0, 180.0, 80.0)),  // medium, smaller  -> dominates 3
            (6, obj(40.0, 400.0, 200.0)), // large, efficient
            (7, obj(40.0, 400.0, 190.0)), // large, smaller   -> dominates 6
            (8, obj(5.0, 500.0, 500.0)),  // bad at everything -> dominated
        ];
        assert_eq!(frontier_3d(&pts), vec![0, 5, 7]);
        // In 2D the area axis stops mattering: points tied on (fps,
        // power) — 0/2, 3/5 and 6/7 — no longer dominate each other.
        assert_eq!(frontier_2d(&pts), vec![0, 2, 3, 5, 6, 7]);
    }

    #[test]
    fn single_point_is_its_own_frontier() {
        let pts = vec![(7, obj(1.0, 1.0, 1.0))];
        assert_eq!(frontier_3d(&pts), vec![7]);
        assert_eq!(frontier_2d(&pts), vec![7]);
    }

    #[test]
    fn identical_points_all_survive() {
        let pts = vec![(0, obj(1.0, 1.0, 1.0)), (1, obj(1.0, 1.0, 1.0))];
        assert_eq!(frontier_3d(&pts), vec![0, 1]);
    }

    #[test]
    fn ties_on_every_objective_keep_both_points() {
        // Dominance requires strictly-better somewhere: exact ties are
        // mutually non-dominating, so equal-objective points must all
        // stay on the frontier, in both dimensionalities — and a third
        // genuinely better point must not be dragged down by them.
        let a = obj(10.0, 100.0, 50.0);
        assert!(!dominates_3d(&a, &a) && !dominates_2d(&a, &a));
        let pts = vec![
            (0, a),
            (1, a),
            (2, a),
            (3, obj(20.0, 100.0, 50.0)), // dominates the tied trio
        ];
        assert_eq!(frontier_3d(&pts), vec![3]);
        assert_eq!(frontier_2d(&pts), vec![3]);
        // Without the dominator the tied trio survives intact.
        assert_eq!(frontier_3d(&pts[..3]), vec![0, 1, 2]);
        assert_eq!(frontier_2d(&pts[..3]), vec![0, 1, 2]);
    }

    #[test]
    fn partial_ties_resolve_on_the_remaining_axis() {
        // Tied on (fps, power): the area axis decides 3D dominance but
        // is invisible to the 2D projection, where the pair ties.
        let small = obj(10.0, 100.0, 40.0);
        let large = obj(10.0, 100.0, 60.0);
        assert!(dominates_3d(&small, &large));
        assert!(!dominates_3d(&large, &small));
        assert!(!dominates_2d(&small, &large));
        assert!(!dominates_2d(&large, &small));
        let pts = vec![(0, large), (1, small)];
        assert_eq!(frontier_3d(&pts), vec![1]);
        assert_eq!(frontier_2d(&pts), vec![0, 1]);
    }

    #[test]
    fn accuracy_frontier_keeps_precise_points_the_area_frontier_drops() {
        // An 8-bit-style point (cool, small, imprecise) and a
        // 16-bit-style point (hotter, larger, precise) at equal fps.
        let narrow = Objectives {
            fps: 100.0,
            system_mw: 400.0,
            gates_k: 300.0,
            sqnr_db: 30.0,
        };
        let wide = Objectives {
            fps: 100.0,
            system_mw: 600.0,
            gates_k: 500.0,
            sqnr_db: 75.0,
        };
        // Under fps × power × area the wide point is dominated...
        assert!(dominates_3d(&narrow, &wide));
        let pts = vec![(0, narrow), (1, wide)];
        assert_eq!(frontier_3d(&pts), vec![0]);
        // ...but the accuracy frontier keeps both: precision is an axis.
        assert!(!dominates_accuracy(&narrow, &wide));
        assert!(!dominates_accuracy(&wide, &narrow));
        assert_eq!(frontier_accuracy(&pts), vec![0, 1]);
        // Equal SQNR reduces the accuracy frontier to fps × power.
        let same = Objectives {
            sqnr_db: 30.0,
            ..wide
        };
        assert!(dominates_accuracy(&narrow, &same));
    }

    #[test]
    fn dominance_is_strict_somewhere() {
        let a = obj(10.0, 100.0, 50.0);
        assert!(!dominates_3d(&a, &a));
        assert!(dominates_3d(&obj(11.0, 100.0, 50.0), &a));
        assert!(dominates_2d(&obj(10.0, 99.0, 999.0), &a));
        assert!(!dominates_3d(&obj(10.0, 99.0, 999.0), &a));
    }

    /// The all-pairs scan: a point is on the frontier unless some entry
    /// with another index dominates it. The oracle every frontier must
    /// equal.
    fn all_pairs(
        objectives: &[(usize, Objectives)],
        dominates: fn(&Objectives, &Objectives) -> bool,
    ) -> Vec<usize> {
        objectives
            .iter()
            .filter(|(i, oi)| !objectives.iter().any(|(j, oj)| j != i && dominates(oj, oi)))
            .map(|(i, _)| *i)
            .collect()
    }

    /// splitmix64: the property cases' deterministic stream.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n.max(1) as u64) as usize
        }
    }

    /// Axis values: few enough that ties, duplicates and single-axis
    /// equalities are common, with both zeros and an infinity.
    const VALUES: [f64; 7] = [0.0, -0.0, 1.0, 2.0, 2.5, 3.0, f64::INFINITY];

    /// Case `case`'s set: 1–64 points with distinct indices, shuffled
    /// in every third case. Cases 1–4 mod 5 put a NaN on axis 0–3
    /// (fps, power, area, SQNR) of one or two points.
    fn random_set(rng: &mut Rng, case: usize) -> Vec<(usize, Objectives)> {
        let n = 1 + rng.below(64);
        let mut set: Vec<(usize, Objectives)> = (0..n)
            .map(|i| {
                let mut pick = || VALUES[rng.below(VALUES.len())];
                let o = Objectives {
                    fps: pick(),
                    system_mw: pick(),
                    gates_k: pick(),
                    sqnr_db: pick(),
                };
                (2 * i + 5, o)
            })
            .collect();
        if case.is_multiple_of(3) {
            for i in (1..n).rev() {
                let j = rng.below(i + 1);
                let (a, b) = (set[i].0, set[j].0);
                (set[i].0, set[j].0) = (b, a);
            }
        }
        if let Some(axis) = (case % 5).checked_sub(1) {
            for _ in 0..=rng.below(2) {
                let o = &mut set[rng.below(n)].1;
                match axis {
                    0 => o.fps = f64::NAN,
                    1 => o.system_mw = f64::NAN,
                    2 => o.gates_k = f64::NAN,
                    _ => o.sqnr_db = f64::NAN,
                }
            }
        }
        set
    }

    /// A partition's sweep-reply candidates: its entries on either of
    /// its frontiers, as a daemon reports them to a coordinator.
    fn candidates(part: &[(usize, Objectives)]) -> Vec<(usize, Objectives)> {
        let keep: Vec<usize> = frontier_3d(part)
            .into_iter()
            .chain(frontier_accuracy(part))
            .collect();
        part.iter()
            .filter(|(i, _)| keep.contains(i))
            .copied()
            .collect()
    }

    #[test]
    fn frontiers_and_merges_equal_the_all_pairs_scan_on_random_sets() {
        let mut rng = Rng(0x0f10_7e27);
        for case in 0..12_000 {
            let set = random_set(&mut rng, case);
            assert_eq!(
                frontier_3d(&set),
                all_pairs(&set, dominates_3d),
                "3D, case {case}: {set:?}"
            );
            assert_eq!(
                frontier_2d(&set),
                all_pairs(&set, dominates_2d),
                "2D, case {case}: {set:?}"
            );
            assert_eq!(
                frontier_accuracy(&set),
                all_pairs(&set, dominates_accuracy),
                "accuracy, case {case}: {set:?}"
            );
            // The coordinator's invariant: re-filtering the union of
            // every part's candidates gives the union's frontier.
            let parts = 1 + rng.below(4);
            let mut split = vec![Vec::new(); parts];
            for &entry in &set {
                split[rng.below(parts)].push(entry);
            }
            let reported: Vec<_> = split.iter().map(|part| candidates(part)).collect();
            let mut union = set.clone();
            union.sort_by_key(|(i, _)| *i);
            assert_eq!(
                merge_frontier_3d(&reported),
                all_pairs(&union, dominates_3d),
                "3D merge, case {case}: {reported:?}"
            );
            assert_eq!(
                merge_frontier_accuracy(&reported),
                all_pairs(&union, dominates_accuracy),
                "accuracy merge, case {case}: {reported:?}"
            );
        }
    }
}
