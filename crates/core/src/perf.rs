//! Analytic performance model (validated against Fig. 9 and the
//! cycle-accurate simulator).
//!
//! ## The cycle formula
//!
//! For one group of a layer (per-group channels `C`, ofmaps `M`, output
//! `E×E`, kernel `K`, stride `s`) mapped on `P` primitives:
//!
//! ```text
//! stream ≈ ⌈M/P⌉ · C · (E/K) · (s·K·E + [s=1]·(K²−1))
//! load   = M · C · K²                  (one weight per cycle, per batch)
//! ```
//!
//! Two variants are provided:
//!
//! * [`CycleModel::PaperCalibrated`] uses a *fractional* pattern count
//!   `E/K` and drops the warm-up term for strided layers — this
//!   reproduces the paper's Fig. 9 numbers exactly for AlexNet
//!   conv1/3/4/5 (159.30/57.20/42.90/28.60 ms at batch 128) and gives
//!   90.4 ms for conv2 where the paper reports 102.10 ms (no tiling we
//!   could construct reproduces that one point; see EXPERIMENTS.md).
//! * [`CycleModel::Strict`] charges whole patterns `⌈E/K⌉`, the real
//!   pattern duration `K·W_padded + K − 1`, pipeline drains before kernel
//!   reloads, and per-image kernel loads — it matches the cycle-accurate
//!   simulator *exactly* (asserted in the integration tests). Strided
//!   layers are costed through their [polyphase
//!   decomposition][crate::polyphase], which is how this reproduction
//!   actually executes them.
//!
//! A network's totals are a fold of its layers' [`LayerPerf`]s through
//! [`RunTotals`]: [`PerfModel::network`] folds through it, and so does
//! the power model's one pass over a network, which feeds each layer's
//! cycles to the traffic model too.

use chain_nn_nets::{ConvLayerSpec, Network};

use crate::polyphase;
use crate::{ChainConfig, CoreError, KernelMapping, LayerShape};

/// Which cycle-accounting rules to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CycleModel {
    /// Reproduces the paper's own accounting (fractional patterns, no
    /// drain, batch-amortized loads).
    #[default]
    PaperCalibrated,
    /// Matches the cycle-accurate simulator (whole patterns, drains,
    /// per-image loads, polyphase for strides).
    Strict,
}

/// Predicted cycle counts for one layer (per image unless noted).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerPerf {
    /// Streaming cycles per image (fractional under
    /// [`CycleModel::PaperCalibrated`]).
    pub stream_cycles: f64,
    /// Drain cycles per image (zero under `PaperCalibrated`).
    pub drain_cycles: f64,
    /// Kernel-load cycles — charged once per *batch* in network totals.
    pub load_cycles: u64,
    /// Useful MACs per image.
    pub macs: u64,
}

impl LayerPerf {
    /// Streaming + drain cycles per image.
    pub fn compute_cycles(&self) -> f64 {
        self.stream_cycles + self.drain_cycles
    }
}

/// A network run's totals, folded one layer at a time: the batch time
/// that fps and GOPS come from, and the clock-free activity (cycles and
/// MACs for the whole batch) that the power model charges. Kernel loads
/// are charged once per batch (the paper's amortization argument in
/// §V.B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunTotals {
    /// Batch latency in milliseconds: every layer's convolution and
    /// kernel-load time.
    pub total_ms: f64,
    /// Useful MACs per image.
    pub macs_per_image: u64,
    /// Streaming + drain cycles for the whole batch.
    pub conv_cycles: f64,
    /// Kernel-load cycles (once per batch).
    pub load_cycles: f64,
    /// Useful MACs for the whole batch.
    pub macs: f64,
    batch: usize,
    freq_hz: f64,
}

impl RunTotals {
    /// Empty totals for `batch` images on `cfg`'s clock.
    pub fn new(cfg: &ChainConfig, batch: usize) -> Self {
        RunTotals {
            total_ms: 0.0,
            macs_per_image: 0,
            conv_cycles: 0.0,
            load_cycles: 0.0,
            macs: 0.0,
            batch,
            freq_hz: cfg.freq_mhz() * 1e6,
        }
    }

    /// Adds one layer and returns its Fig. 9 times for the whole batch
    /// in milliseconds: `(convolution, kernel load)`.
    pub fn add(&mut self, layer: &LayerPerf) -> (f64, f64) {
        let n = self.batch as f64;
        let conv_cycles = layer.compute_cycles() * n;
        let conv_ms = conv_cycles / self.freq_hz * 1e3;
        let load_ms = layer.load_cycles as f64 / self.freq_hz * 1e3;
        self.total_ms += conv_ms + load_ms;
        self.macs_per_image += layer.macs;
        self.conv_cycles += conv_cycles;
        self.load_cycles += layer.load_cycles as f64;
        self.macs += layer.macs as f64 * n;
        (conv_ms, load_ms)
    }

    /// Frames per second.
    pub fn fps(&self) -> f64 {
        self.batch as f64 / (self.total_ms / 1e3)
    }

    /// Achieved throughput in GOPS (2 ops per MAC).
    pub fn gops(&self) -> f64 {
        (2 * self.macs_per_image * self.batch as u64) as f64 / (self.total_ms / 1e3) / 1e9
    }
}

/// Per-layer timing of a network run (the rows of Fig. 9).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTime {
    /// Layer name.
    pub name: String,
    /// Convolution time for the whole batch, in milliseconds.
    pub conv_ms: f64,
    /// Kernel-load time (once per batch), in milliseconds.
    pub load_ms: f64,
}

/// Network-level performance summary.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkPerf {
    /// Per-layer breakdown (Fig. 9).
    pub layers: Vec<LayerTime>,
    /// Batch size used.
    pub batch: usize,
    /// Total batch latency in milliseconds (conv + loads).
    pub total_ms: f64,
    /// Frames per second.
    pub fps: f64,
    /// Achieved throughput in GOPS (2 ops per MAC).
    pub gops: f64,
}

/// The analytic performance model for one chain configuration.
///
/// # Example
///
/// ```
/// use chain_nn_core::{perf::{PerfModel, CycleModel}, ChainConfig};
/// use chain_nn_nets::zoo;
///
/// let model = PerfModel::new(ChainConfig::paper_576());
/// let alex = zoo::alexnet();
/// let perf = model.network(&alex, 128, CycleModel::PaperCalibrated).unwrap();
/// // Paper Fig. 9 sums to ~390 ms conv + 3.26 ms loads -> ~326 fps.
/// assert!(perf.fps > 300.0 && perf.fps < 400.0);
/// ```
#[derive(Debug, Clone)]
pub struct PerfModel {
    cfg: ChainConfig,
}

impl PerfModel {
    /// Builds a model for `cfg`.
    pub fn new(cfg: ChainConfig) -> Self {
        PerfModel { cfg }
    }

    /// The modeled configuration.
    pub fn config(&self) -> &ChainConfig {
        &self.cfg
    }

    /// Predicts one layer's cycles per image.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::KernelTooLargeForChain`] if a primitive does
    /// not fit the chain.
    pub fn layer(&self, spec: &ConvLayerSpec, model: CycleModel) -> Result<LayerPerf, CoreError> {
        let mut stream = 0f64;
        let mut drain = 0f64;
        for group in 0..spec.groups() {
            let shape = LayerShape::from_spec_group(spec, group);
            match model {
                CycleModel::PaperCalibrated => {
                    let (s, d) = self.paper_group_cycles(&shape)?;
                    stream += s;
                    drain += d;
                }
                CycleModel::Strict => {
                    let (s, d) = self.strict_group_cycles(&shape)?;
                    stream += s;
                    drain += d;
                }
            }
        }
        Ok(LayerPerf {
            stream_cycles: stream,
            drain_cycles: drain,
            load_cycles: spec.weights(),
            macs: spec.macs(),
        })
    }

    /// Paper-calibrated group cycles: `⌈M/P⌉·C·(E/K)·(s·K·E + [s=1](K²−1))`.
    fn paper_group_cycles(&self, shape: &LayerShape) -> Result<(f64, f64), CoreError> {
        let mapping = KernelMapping::new(self.cfg.num_pes(), shape.kh, shape.kw)?;
        let p = mapping.pes_per_primitive() as f64;
        let m_tiles = mapping.m_tiles(shape.m) as f64;
        let e_rows = shape.out_h() as f64;
        let e_cols = shape.out_w() as f64;
        let k = shape.kh as f64;
        let s = shape.stride as f64;
        let warmup = if shape.stride == 1 { p - 1.0 } else { 0.0 };
        let per_pattern = s * k * e_cols + warmup;
        let stream = m_tiles * shape.c as f64 * (e_rows / k) * per_pattern;
        Ok((stream, 0.0))
    }

    /// Strict group cycles matching the simulator; strided shapes go
    /// through the polyphase decomposition.
    fn strict_group_cycles(&self, shape: &LayerShape) -> Result<(f64, f64), CoreError> {
        if shape.stride == 1 {
            return self.strict_stride1(shape);
        }
        let mut stream = 0f64;
        let mut drain = 0f64;
        for phase in polyphase::phase_shapes(shape) {
            let (s, d) = self.strict_stride1(&phase)?;
            stream += s;
            drain += d;
        }
        Ok((stream, drain))
    }

    fn strict_stride1(&self, shape: &LayerShape) -> Result<(f64, f64), CoreError> {
        shape.validate()?;
        let mapping = KernelMapping::new(self.cfg.num_pes(), shape.kh, shape.kw)?;
        let p = mapping.pes_per_primitive();
        let m_tiles = mapping.m_tiles(shape.m);
        let bands = shape.out_h().div_ceil(shape.kh);
        let duration = (shape.kh * shape.padded_w() + shape.kh - 1) as f64;
        let stream = (m_tiles * shape.c * bands) as f64 * duration;
        // One drain per (m_tile, kernel tile); active primitives only.
        let c_tiles = shape.c.div_ceil(self.cfg.kmemory_depth());
        let mut drain = 0f64;
        for t in 0..m_tiles {
            let active = mapping.primitives_in_tile(shape.m, t);
            drain += (c_tiles * active * p) as f64;
        }
        Ok((stream, drain))
    }

    /// Predicts a full network run at `batch` images: per-layer times,
    /// fps, and achieved GOPS. Kernel loads are charged once per batch
    /// (the paper's amortization argument in §V.B).
    ///
    /// # Errors
    ///
    /// Propagates layer mapping errors.
    pub fn network(
        &self,
        net: &Network,
        batch: usize,
        model: CycleModel,
    ) -> Result<NetworkPerf, CoreError> {
        let mut run = RunTotals::new(&self.cfg, batch);
        let mut layers = Vec::with_capacity(net.layers().len());
        for spec in net.layers() {
            let (conv_ms, load_ms) = run.add(&self.layer(spec, model)?);
            layers.push(LayerTime {
                name: spec.name().to_owned(),
                conv_ms,
                load_ms,
            });
        }
        Ok(NetworkPerf {
            layers,
            batch,
            total_ms: run.total_ms,
            fps: run.fps(),
            gops: run.gops(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chain_nn_nets::zoo;

    fn model() -> PerfModel {
        PerfModel::new(ChainConfig::paper_576())
    }

    /// Paper Fig. 9 conv times at batch 128 (ms):
    /// 159.30 / 102.10 / 57.20 / 42.90 / 28.60.
    #[test]
    fn fig9_conv_times_paper_calibrated() {
        let alex = zoo::alexnet();
        let perf = model()
            .network(&alex, 128, CycleModel::PaperCalibrated)
            .unwrap();
        let got: Vec<f64> = perf.layers.iter().map(|l| l.conv_ms).collect();
        let paper = [159.30, 102.10, 57.20, 42.90, 28.60];
        // conv1, conv3, conv4, conv5 reproduce to the displayed precision.
        for idx in [0usize, 2, 3, 4] {
            assert!(
                (got[idx] - paper[idx]).abs() < 0.02,
                "layer {} got {} want {}",
                idx + 1,
                got[idx],
                paper[idx]
            );
        }
        // conv2: the paper's point is not reproducible; ours is 90.4 ms.
        assert!(
            (got[1] - 90.42).abs() < 0.1,
            "conv2 model changed: {}",
            got[1]
        );
    }

    /// Paper Fig. 9 kernel-load times (ms): .05/.43/1.23/.93/.62.
    #[test]
    fn fig9_kernel_load_times() {
        let alex = zoo::alexnet();
        let perf = model()
            .network(&alex, 128, CycleModel::PaperCalibrated)
            .unwrap();
        let got: Vec<f64> = perf.layers.iter().map(|l| l.load_ms).collect();
        let paper = [0.05, 0.43, 1.23, 0.93, 0.62];
        for (g, p) in got.iter().zip(paper) {
            assert!((g - p).abs() < 0.035, "load {g} vs paper {p}");
        }
        let total: f64 = got.iter().sum();
        // §V.B: "3.25ms are spent for loading kernels".
        assert!((total - 3.25).abs() < 0.1, "total load {total}");
    }

    /// §V.B: "326.2fps/275.6fps can be achieved for 128/4 batch sizes".
    /// Our model lands within a few percent (the paper's own text and
    /// figure disagree at this level; see EXPERIMENTS.md).
    #[test]
    fn fps_reproduces_shape() {
        let alex = zoo::alexnet();
        let m = model();
        let p128 = m.network(&alex, 128, CycleModel::PaperCalibrated).unwrap();
        let p4 = m.network(&alex, 4, CycleModel::PaperCalibrated).unwrap();
        assert!(
            (p128.fps - 326.2).abs() / 326.2 < 0.10,
            "fps128 {}",
            p128.fps
        );
        assert!((p4.fps - 275.6).abs() / 275.6 < 0.12, "fps4 {}", p4.fps);
        // Larger batches amortize kernel loads -> more fps.
        assert!(p128.fps > p4.fps);
    }

    /// Effective throughput stays below peak and utilization matches
    /// Table II's range for AlexNet's kernel mix.
    #[test]
    fn gops_below_peak() {
        let alex = zoo::alexnet();
        let perf = model()
            .network(&alex, 128, CycleModel::PaperCalibrated)
            .unwrap();
        let peak = ChainConfig::paper_576().peak_gops();
        assert!(perf.gops < peak);
        assert!(perf.gops > 0.25 * peak, "gops {}", perf.gops);
    }

    #[test]
    fn strict_exceeds_paper_estimate() {
        let alex = zoo::alexnet();
        for spec in alex.layers() {
            let paper = model().layer(spec, CycleModel::PaperCalibrated).unwrap();
            let strict = model().layer(spec, CycleModel::Strict).unwrap();
            if spec.stride() == 1 {
                assert!(
                    strict.compute_cycles() >= paper.compute_cycles(),
                    "{}: strict {} < paper {}",
                    spec.name(),
                    strict.compute_cycles(),
                    paper.compute_cycles()
                );
            } else {
                // Polyphase execution beats the paper's strided handling.
                assert!(
                    strict.compute_cycles() < paper.compute_cycles(),
                    "{}: polyphase should win",
                    spec.name()
                );
            }
        }
    }

    #[test]
    fn vgg_and_small_nets_map() {
        for net in [zoo::vgg16(), zoo::lenet(), zoo::cifar10()] {
            let perf = model()
                .network(&net, 4, CycleModel::PaperCalibrated)
                .unwrap();
            assert!(perf.total_ms > 0.0, "{}", net.name());
            assert!(perf.fps > 0.0);
        }
    }

    #[test]
    fn oversized_kernel_is_an_error() {
        let spec = ConvLayerSpec::square("big", 1, 64, 25, 1, 0, 1).unwrap();
        assert!(model().layer(&spec, CycleModel::Strict).is_err());
    }
}
