//! Sweep specifications: the grid of design points to explore.
//!
//! A [`SweepSpec`] is a cartesian grid over the architectural knobs the
//! model stack understands — chain length and clock (`ChainConfig`),
//! on-chip SRAM sizes (`MemoryConfig`), operand word width (the
//! quantization the traffic/power models see), batch size and network.
//! [`SweepSpec::points`] flattens the grid into a deterministic,
//! stable-ordered list of [`DesignPoint`]s.

use std::fmt;
use std::str::FromStr;

use crate::DseError;

/// The most points one sweep grid may hold. [`SweepSpec::validate`]
/// refuses a larger grid before a single point is built; the largest
/// sweep the README runs has 3,844.
pub const MAX_GRID_POINTS: usize = 1 << 20;

/// The largest value each integer axis of a point may take, named by
/// its [`DesignPoint`] field. Past them the models' integer arithmetic
/// can overflow: `2 · MACs · batch` in the achieved throughput,
/// `pes · depth · 2` in the kMemory capacity, `KB · 1024` in the SRAM
/// sizes. Every zoo network evaluates at every corner of these bounds.
pub const AXIS_BOUNDS: [(&str, usize); 5] = [
    ("pes", 1 << 20),
    ("kmem_depth", 1 << 16),
    ("imem_kb", 1 << 20),
    ("omem_kb", 1 << 20),
    ("batch", 1 << 16),
];

/// Checks values of the integer axes, in [`AXIS_BOUNDS`] order, against
/// their bounds. [`SweepSpec::validate`] checks each axis' largest
/// value with it, and [`crate::evaluate`] every point.
///
/// # Errors
///
/// [`DseError::Spec`] naming the first axis past its bound.
pub(crate) fn check_axis_bounds(values: [usize; 5]) -> Result<(), DseError> {
    for ((axis, bound), value) in AXIS_BOUNDS.into_iter().zip(values) {
        if value > bound {
            return Err(DseError::Spec(format!(
                "{axis} {value} exceeds its bound {bound}"
            )));
        }
    }
    Ok(())
}

/// One fully-specified candidate accelerator + workload configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// Chain length in PEs.
    pub pes: usize,
    /// Core clock in MHz.
    pub freq_mhz: f64,
    /// Kernel weights per PE (kMemory depth).
    pub kmem_depth: usize,
    /// iMemory capacity in KB.
    pub imem_kb: usize,
    /// oMemory capacity in KB.
    pub omem_kb: usize,
    /// Operand word width in bits (the paper's datapath is 16).
    pub word_bits: u32,
    /// Batch size (kernel loads amortize across a batch).
    pub batch: usize,
    /// Network name, resolvable via [`crate::network_by_name`].
    pub net: String,
}

impl DesignPoint {
    /// The paper's evaluation point: 576 PEs @ 700 MHz, 256-deep
    /// kMemory, 32 + 25 KB SRAM, 16-bit words, AlexNet at batch 4.
    pub fn paper_alexnet() -> Self {
        DesignPoint {
            pes: 576,
            freq_mhz: 700.0,
            kmem_depth: 256,
            imem_kb: 32,
            omem_kb: 25,
            word_bits: 16,
            batch: 4,
            net: "alexnet".to_owned(),
        }
    }

    /// Canonical byte encoding of the point — the input to
    /// [`DesignPoint::content_hash`] and the cache identity. Every field
    /// participates; floats are encoded by their exact bit pattern.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(&(self.pes as u64).to_le_bytes());
        out.extend_from_slice(&self.freq_mhz.to_bits().to_le_bytes());
        out.extend_from_slice(&(self.kmem_depth as u64).to_le_bytes());
        out.extend_from_slice(&(self.imem_kb as u64).to_le_bytes());
        out.extend_from_slice(&(self.omem_kb as u64).to_le_bytes());
        out.extend_from_slice(&self.word_bits.to_le_bytes());
        out.extend_from_slice(&(self.batch as u64).to_le_bytes());
        out.extend_from_slice(self.net.as_bytes());
        out
    }

    /// Stable FNV-1a content hash of the canonical encoding. Two points
    /// hash equal iff (modulo 64-bit collisions, which the cache guards
    /// against) they describe the same configuration.
    pub fn content_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in &self.canonical_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

impl fmt::Display for DesignPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} pes={} f={}MHz kmem={} sram={}+{}KB w{} b{}",
            self.net,
            self.pes,
            self.freq_mhz,
            self.kmem_depth,
            self.imem_kb,
            self.omem_kb,
            self.word_bits,
            self.batch
        )
    }
}

/// A swept axis parsed from CLI text: either an inclusive range with an
/// optional step (`64..=1024`, `64..=1024:32`, also `..` for exclusive)
/// or an explicit comma list (`144,288,576`). A bare number is a
/// one-element axis.
///
/// # Example
///
/// ```
/// use chain_nn_dse::RangeSpec;
///
/// let axis: RangeSpec = "64..=128:32".parse().unwrap();
/// assert_eq!(axis.values(), &[64, 96, 128]);
/// let list: RangeSpec = "144,288,576".parse().unwrap();
/// assert_eq!(list.as_usizes(), vec![144, 288, 576]);
/// assert!("10..=5".parse::<RangeSpec>().is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeSpec {
    values: Vec<u64>,
}

impl RangeSpec {
    /// The expanded axis values, in the order given.
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// The axis as `usize`s.
    pub fn as_usizes(&self) -> Vec<usize> {
        self.values.iter().map(|&v| v as usize).collect()
    }

    /// Builds an inclusive stepped range axis programmatically.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::Spec`] on a zero step or an empty range.
    pub fn stepped(start: u64, end_inclusive: u64, step: u64) -> Result<Self, DseError> {
        if step == 0 {
            return Err(DseError::Spec("range step must be non-zero".into()));
        }
        if start > end_inclusive {
            return Err(DseError::Spec(format!(
                "empty range {start}..={end_inclusive}"
            )));
        }
        let values = (start..=end_inclusive).step_by(step as usize).collect();
        Ok(RangeSpec { values })
    }
}

impl FromStr for RangeSpec {
    type Err = DseError;

    fn from_str(s: &str) -> Result<Self, DseError> {
        let bad =
            |what: &str| DseError::Spec(format!("cannot parse '{s}' as a sweep axis: {what}"));
        let (range_part, step) = match s.split_once(':') {
            Some((r, st)) => (
                r,
                Some(
                    st.trim()
                        .parse::<u64>()
                        .map_err(|_| bad("step is not a number"))?,
                ),
            ),
            None => (s, None),
        };
        let parse_num = |t: &str| t.trim().parse::<u64>().map_err(|_| bad("not a number"));
        if let Some((lo, hi)) = range_part.split_once("..") {
            let (hi, inclusive) = match hi.strip_prefix('=') {
                Some(rest) => (rest, true),
                None => (hi, false),
            };
            let lo = parse_num(lo)?;
            let mut hi = parse_num(hi)?;
            if !inclusive {
                if hi == 0 {
                    return Err(bad("empty exclusive range"));
                }
                hi -= 1;
            }
            return RangeSpec::stepped(lo, hi, step.unwrap_or(1));
        }
        if step.is_some() {
            return Err(bad("':step' only applies to ranges"));
        }
        let values = range_part
            .split(',')
            .map(parse_num)
            .collect::<Result<Vec<_>, _>>()?;
        if values.is_empty() {
            return Err(bad("no values"));
        }
        Ok(RangeSpec { values })
    }
}

/// One hash-partition of a sweep grid: shard `index` of `of` shards.
/// A partitioned spec keeps only the grid points whose
/// [`DesignPoint::content_hash`] lands on this shard (`hash % of ==
/// index`), while point *indices* stay global — shard results can be
/// merged back into the full grid's index space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepPart {
    /// This shard's slot, `0..of`.
    pub index: usize,
    /// Total number of shards.
    pub of: usize,
}

impl SweepPart {
    /// Whether `point` belongs to this partition.
    #[must_use]
    pub fn owns(&self, point: &DesignPoint) -> bool {
        self.of <= 1 || point.content_hash() % self.of as u64 == self.index as u64
    }
}

/// The full sweep grid. Every `Vec` is one axis; [`SweepSpec::points`]
/// takes the cartesian product in a fixed nesting order (net, batch,
/// word bits, oMemory, iMemory, kMemory depth, frequency, PEs — PEs
/// vary fastest), so point indices are stable across runs and thread
/// counts.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Chain lengths to sweep.
    pub pes: Vec<usize>,
    /// Clock frequencies (MHz) to sweep.
    pub freqs_mhz: Vec<f64>,
    /// kMemory depths (weights per PE) to sweep.
    pub kmem_depths: Vec<usize>,
    /// iMemory capacities (KB) to sweep.
    pub imem_kb: Vec<usize>,
    /// oMemory capacities (KB) to sweep.
    pub omem_kb: Vec<usize>,
    /// Operand word widths (bits) to sweep. 16 is the paper datapath;
    /// narrower words shrink traffic and memory power **and pay a
    /// measured accuracy cost**: every evaluated point carries the
    /// SQNR of its `(network, width)` pair ([`crate::accuracy`],
    /// DESIGN.md §11), so mixed-width sweeps are directly comparable
    /// on the fps × power × SQNR frontier.
    pub word_bits: Vec<u32>,
    /// Batch sizes to sweep.
    pub batches: Vec<usize>,
    /// Networks (zoo names) to sweep.
    pub nets: Vec<String>,
    /// When set, restrict the grid to one content-hash partition: only
    /// points with `content_hash % part.of == part.index` are emitted
    /// by [`SweepSpec::points`], with global indices preserved by
    /// [`SweepSpec::indexed_points`]. `None` is the whole grid.
    pub part: Option<SweepPart>,
}

impl SweepSpec {
    /// A single-point "sweep" fixing every axis at the paper's choice.
    pub fn paper_point() -> Self {
        let p = DesignPoint::paper_alexnet();
        SweepSpec {
            pes: vec![p.pes],
            freqs_mhz: vec![p.freq_mhz],
            kmem_depths: vec![p.kmem_depth],
            imem_kb: vec![p.imem_kb],
            omem_kb: vec![p.omem_kb],
            word_bits: vec![p.word_bits],
            batches: vec![p.batch],
            nets: vec![p.net],
            part: None,
        }
    }

    /// The default exploration grid: PEs 64..=1024 step 16, two clocks,
    /// two batch sizes, the paper kMemory/SRAM sizes and word width,
    /// AlexNet. 244 points, containing the paper configuration.
    ///
    /// kMemory depth is deliberately *not* swept by default: on AlexNet
    /// at batch 4 a 128-deep kMemory incurs no extra DRAM traffic, so
    /// it strictly dominates the paper's 256 (less leakage, fewer
    /// gates) and would knock the paper point off the frontier — the
    /// 256-weight choice is motivated by VGG-16's C=512 layers, not by
    /// AlexNet. Sweep it explicitly (`kmem_depths`) to see that trade.
    pub fn default_grid() -> Self {
        SweepSpec {
            pes: (64..=1024).step_by(16).collect(),
            freqs_mhz: vec![350.0, 700.0],
            batches: vec![1, 4],
            ..SweepSpec::paper_point()
        }
    }

    /// Checks that every axis is non-empty, physically sensible and
    /// within its [`AXIS_BOUNDS`], and that the grid holds at most
    /// [`MAX_GRID_POINTS`] points.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::Spec`] naming the offending axis.
    pub fn validate(&self) -> Result<(), DseError> {
        let axis_err = |name: &str| DseError::Spec(format!("sweep axis '{name}' is empty"));
        if self.pes.is_empty() {
            return Err(axis_err("pes"));
        }
        if self.freqs_mhz.is_empty() {
            return Err(axis_err("freqs_mhz"));
        }
        if self.kmem_depths.is_empty() {
            return Err(axis_err("kmem_depths"));
        }
        if self.imem_kb.is_empty() {
            return Err(axis_err("imem_kb"));
        }
        if self.omem_kb.is_empty() {
            return Err(axis_err("omem_kb"));
        }
        if self.word_bits.is_empty() {
            return Err(axis_err("word_bits"));
        }
        if self.batches.is_empty() {
            return Err(axis_err("batches"));
        }
        if self.nets.is_empty() {
            return Err(axis_err("nets"));
        }
        if self.len() > MAX_GRID_POINTS {
            return Err(DseError::Spec(format!(
                "sweep grid exceeds {MAX_GRID_POINTS} points (split it into smaller sweeps)"
            )));
        }
        for &b in &self.word_bits {
            // Sub-byte packing is not modeled: MemoryConfig counts whole
            // bytes per word, so a 4-bit word would silently behave like
            // an 8-bit one in every capacity/traffic model.
            if !matches!(b, 8 | 16) {
                return Err(DseError::Spec(format!(
                    "word width {b} unsupported (expected 8 or 16 bits)"
                )));
            }
        }
        for &f in &self.freqs_mhz {
            if !(f.is_finite() && f > 0.0) {
                return Err(DseError::Spec(format!("frequency {f} MHz is not positive")));
            }
        }
        if self.batches.contains(&0) {
            return Err(DseError::Spec(
                "batch 0 holds no images (expected >= 1)".into(),
            ));
        }
        let largest = |axis: &[usize]| axis.iter().copied().max().unwrap_or(0);
        check_axis_bounds([
            largest(&self.pes),
            largest(&self.kmem_depths),
            largest(&self.imem_kb),
            largest(&self.omem_kb),
            largest(&self.batches),
        ])?;
        for name in &self.nets {
            if crate::ZooNet::find(name).is_none() {
                return Err(DseError::Spec(format!("unknown network '{name}'")));
            }
        }
        if let Some(part) = &self.part {
            if part.of == 0 {
                return Err(DseError::Spec("sweep partition 'of' must be >= 1".into()));
            }
            if part.index >= part.of {
                return Err(DseError::Spec(format!(
                    "sweep partition index {} out of range (of {})",
                    part.index, part.of
                )));
            }
        }
        Ok(())
    }

    /// Number of points in the *full* grid, ignoring any partition —
    /// the index space shard results merge back into. The partitioned
    /// point count is `points().len()`. Saturates at `usize::MAX`
    /// instead of wrapping, so no grid past [`MAX_GRID_POINTS`] passes
    /// [`SweepSpec::validate`].
    pub fn len(&self) -> usize {
        [
            self.pes.len(),
            self.freqs_mhz.len(),
            self.kmem_depths.len(),
            self.imem_kb.len(),
            self.omem_kb.len(),
            self.word_bits.len(),
            self.batches.len(),
            self.nets.len(),
        ]
        .into_iter()
        .fold(1, usize::saturating_mul)
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flattens the grid into its deterministic point list. With a
    /// partition set, only this shard's points are emitted (in the same
    /// global order).
    pub fn points(&self) -> Vec<DesignPoint> {
        self.indexed_points().into_iter().map(|(_, p)| p).collect()
    }

    /// Like [`SweepSpec::points`], but each point is paired with its
    /// *global* grid index — the index it has in the unpartitioned
    /// grid. For an unpartitioned spec the indices are simply
    /// `0..len()`; for a partition they are the subsequence owned by
    /// this shard, still ascending, so per-shard frontier indices can
    /// be merged across shards without translation.
    pub fn indexed_points(&self) -> Vec<(usize, DesignPoint)> {
        let mut out = Vec::new();
        let mut index = 0usize;
        for net in &self.nets {
            for &batch in &self.batches {
                for &word_bits in &self.word_bits {
                    for &omem_kb in &self.omem_kb {
                        for &imem_kb in &self.imem_kb {
                            for &kmem_depth in &self.kmem_depths {
                                for &freq_mhz in &self.freqs_mhz {
                                    for &pes in &self.pes {
                                        let point = DesignPoint {
                                            pes,
                                            freq_mhz,
                                            kmem_depth,
                                            imem_kb,
                                            omem_kb,
                                            word_bits,
                                            batch,
                                            net: net.clone(),
                                        };
                                        if self.part.as_ref().is_none_or(|p| p.owns(&point)) {
                                            out.push((index, point));
                                        }
                                        index += 1;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_spec_parses_all_forms() {
        let r: RangeSpec = "64..=128:32".parse().unwrap();
        assert_eq!(r.values(), &[64, 96, 128]);
        let r: RangeSpec = "64..=67".parse().unwrap();
        assert_eq!(r.values(), &[64, 65, 66, 67]);
        let r: RangeSpec = "64..67".parse().unwrap();
        assert_eq!(r.values(), &[64, 65, 66]);
        let r: RangeSpec = "144,288,576".parse().unwrap();
        assert_eq!(r.values(), &[144, 288, 576]);
        let r: RangeSpec = "576".parse().unwrap();
        assert_eq!(r.values(), &[576]);
    }

    #[test]
    fn range_spec_rejects_malformed() {
        assert!("".parse::<RangeSpec>().is_err());
        assert!("ten..=20".parse::<RangeSpec>().is_err());
        assert!("10..=5".parse::<RangeSpec>().is_err());
        assert!("10..=20:0".parse::<RangeSpec>().is_err());
        assert!("1,2:4".parse::<RangeSpec>().is_err());
    }

    #[test]
    fn range_spec_empty_ranges_are_rejected() {
        // Exclusive ranges whose bounds touch or cross contain nothing.
        assert!("5..5".parse::<RangeSpec>().is_err());
        assert!("0..0".parse::<RangeSpec>().is_err());
        assert!("7..5".parse::<RangeSpec>().is_err());
        // Inclusive single-value range is NOT empty.
        let r: RangeSpec = "5..=5".parse().unwrap();
        assert_eq!(r.values(), &[5]);
        // And the programmatic constructor agrees.
        assert!(RangeSpec::stepped(10, 5, 1).is_err());
        assert_eq!(RangeSpec::stepped(5, 5, 1).unwrap().values(), &[5]);
    }

    #[test]
    fn range_spec_step_larger_than_span_keeps_the_start() {
        let r: RangeSpec = "10..=20:50".parse().unwrap();
        assert_eq!(r.values(), &[10]);
        let r: RangeSpec = "10..12:50".parse().unwrap();
        assert_eq!(r.values(), &[10]);
        assert_eq!(RangeSpec::stepped(64, 65, 1000).unwrap().values(), &[64]);
    }

    #[test]
    fn range_spec_zero_step_is_rejected_everywhere() {
        // All syntactic forms of a ':0' step, plus the API.
        assert!(matches!(
            "10..=20:0".parse::<RangeSpec>(),
            Err(DseError::Spec(m)) if m.contains("step")
        ));
        assert!("10..20:0".parse::<RangeSpec>().is_err());
        assert!("10..=20: 0".parse::<RangeSpec>().is_err());
        assert!(matches!(
            RangeSpec::stepped(10, 20, 0),
            Err(DseError::Spec(m)) if m.contains("non-zero")
        ));
        // A zero *value* is fine; only a zero step is not.
        assert_eq!("0".parse::<RangeSpec>().unwrap().values(), &[0]);
    }

    #[test]
    fn default_grid_contains_paper_point() {
        let spec = SweepSpec::default_grid();
        spec.validate().unwrap();
        assert!(spec.len() >= 200, "only {} points", spec.len());
        let paper = DesignPoint::paper_alexnet();
        assert!(
            spec.points().contains(&paper),
            "paper point missing from default grid"
        );
    }

    #[test]
    fn point_order_is_deterministic_and_dense() {
        let spec = SweepSpec {
            pes: vec![9, 18],
            freqs_mhz: vec![100.0, 200.0],
            ..SweepSpec::paper_point()
        };
        let pts = spec.points();
        assert_eq!(pts.len(), spec.len());
        assert_eq!(pts.len(), 4);
        // PEs vary fastest.
        assert_eq!((pts[0].pes, pts[0].freq_mhz), (9, 100.0));
        assert_eq!((pts[1].pes, pts[1].freq_mhz), (18, 100.0));
        assert_eq!((pts[2].pes, pts[2].freq_mhz), (9, 200.0));
        assert_eq!(pts, spec.points());
    }

    #[test]
    fn content_hash_separates_and_identifies() {
        let a = DesignPoint::paper_alexnet();
        let mut b = a.clone();
        assert_eq!(a.content_hash(), b.content_hash());
        b.pes = 577;
        assert_ne!(a.content_hash(), b.content_hash());
        let mut c = a.clone();
        c.freq_mhz = 700.0000001;
        assert_ne!(a.content_hash(), c.content_hash());
    }

    #[test]
    fn validate_refuses_grids_past_the_cap_without_wrapping() {
        let capped = |spec: &SweepSpec| matches!(spec.validate(), Err(DseError::Spec(m)) if m.contains("exceeds"));
        // 6,000 x 6,000: 36M points.
        let wide = SweepSpec {
            pes: (1..=6000).collect(),
            freqs_mhz: (1..=6000).map(f64::from).collect(),
            ..SweepSpec::paper_point()
        };
        assert!(capped(&wide));
        // 256 values on each of the 8 axes: 2^64 points, which wraps a
        // plain product to 0.
        let huge = SweepSpec {
            pes: (1..=256).collect(),
            freqs_mhz: (1..=256).map(f64::from).collect(),
            kmem_depths: (1..=256).collect(),
            imem_kb: (1..=256).collect(),
            omem_kb: (1..=256).collect(),
            word_bits: [8, 16].repeat(128),
            batches: (1..=256).collect(),
            nets: vec!["lenet".to_owned(); 256],
            part: None,
        };
        assert_eq!(huge.len(), usize::MAX);
        assert!(!huge.is_empty());
        assert!(capped(&huge));
        // The cap itself is allowed.
        let at_cap = SweepSpec {
            pes: (1..=1024).collect(),
            freqs_mhz: (1..=1024).map(f64::from).collect(),
            ..SweepSpec::paper_point()
        };
        assert_eq!(at_cap.len(), MAX_GRID_POINTS);
        at_cap.validate().unwrap();
    }

    #[test]
    fn validate_refuses_one_past_each_axis_bound() {
        let spec_with = |axis: usize, values: Vec<usize>| {
            let mut spec = SweepSpec::paper_point();
            *[
                &mut spec.pes,
                &mut spec.kmem_depths,
                &mut spec.imem_kb,
                &mut spec.omem_kb,
                &mut spec.batches,
            ][axis] = values;
            spec
        };
        for (i, &(axis, bound)) in AXIS_BOUNDS.iter().enumerate() {
            spec_with(i, vec![1, bound]).validate().unwrap();
            let over = spec_with(i, vec![1, bound + 1]).validate();
            assert!(
                matches!(&over, Err(DseError::Spec(m))
                    if m.contains(axis) && m.contains(&bound.to_string())),
                "{axis}: {over:?}"
            );
        }
    }

    #[test]
    fn validate_names_the_bad_axis() {
        let mut spec = SweepSpec::paper_point();
        spec.word_bits = vec![12];
        assert!(matches!(spec.validate(), Err(DseError::Spec(m)) if m.contains("12")));
        let mut spec = SweepSpec::paper_point();
        spec.nets = vec!["squeezenet".into()];
        assert!(spec.validate().is_err());
        let mut spec = SweepSpec::paper_point();
        spec.batches.clear();
        assert!(matches!(spec.validate(), Err(DseError::Spec(m)) if m.contains("batches")));
        let mut spec = SweepSpec::paper_point();
        spec.batches = vec![0, 4];
        assert!(matches!(spec.validate(), Err(DseError::Spec(m)) if m.contains("batch 0")));
    }
}
