//! Per-level memory traffic (paper Table IV).
//!
//! Byte counts per level, per layer, for a batch of N images:
//!
//! * **oMemory** — every output is read-modified-written once per input
//!   channel pass: `2 · N · M · E² · (C/G)` accesses. Matches the paper's
//!   Table IV *exactly* on all five AlexNet layers.
//! * **iMemory** — the chain consumes `lanes` pixels per streaming cycle
//!   (2 for stride-1 dual-channel, 1 effective for the strided layer):
//!   `lanes · stream_cycles · N` reads. Within ~10 % of the paper.
//! * **kMemory** — each active PE latches its working weight once per
//!   `K·E`-pixel pattern: `stream_cycles · active_PEs / (K·E) · N` reads.
//!   Matches conv2–conv5 within 5 %; the paper's conv1 entry implies a
//!   2.8× higher activity for the strided layer (documented anomaly, see
//!   EXPERIMENTS.md).
//! * **DRAM** — ifmaps cross once per image if all kernels fit in
//!   kMemory, else once per ofmap tile ([`dataflow`](crate::dataflow));
//!   ofmaps are written once; weights are fetched once per batch.
//!   Reproduces conv2–conv5 within 5 %; for conv1 our tiling needs 2.5×
//!   *less* traffic than the paper reports.

use chain_nn_core::perf::{CycleModel, LayerPerf, PerfModel};
use chain_nn_core::{ChainConfig, CoreError, KernelMapping, LayerShape};
use chain_nn_nets::{ConvLayerSpec, Network};

use crate::dataflow::plan_group;
use crate::MemoryConfig;

/// Traffic of one layer (or of a sum of layers) for a whole batch, in
/// bytes. `N` labels the row: the layer name in the table rows of
/// [`TrafficModel::network_traffic`], nothing in the [`TrafficCounts`]
/// a model pass sums, which therefore allocate nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTraffic<N = String> {
    /// Row label (the layer name, or `"Total"`).
    pub name: N,
    /// Off-chip DRAM traffic.
    pub dram_bytes: u64,
    /// iMemory reads (SRAM → chain).
    pub imem_bytes: u64,
    /// kMemory reads (RF → MAC).
    pub kmem_bytes: u64,
    /// oMemory read+write traffic.
    pub omem_bytes: u64,
    /// DRAM breakdown: ifmap fetches.
    pub dram_ifmap_bytes: u64,
    /// DRAM breakdown: ofmap writebacks (including psum spill if the
    /// working set overflows oMemory).
    pub dram_ofmap_bytes: u64,
    /// DRAM breakdown: kernel fetches (once per batch).
    pub dram_weight_bytes: u64,
}

/// Byte counts without a label: what a model pass sums per layer.
pub type TrafficCounts = LayerTraffic<()>;

impl<N> LayerTraffic<N> {
    /// Adds `other`'s bytes to this row's.
    pub fn add<M>(&mut self, other: &LayerTraffic<M>) {
        self.dram_bytes += other.dram_bytes;
        self.imem_bytes += other.imem_bytes;
        self.kmem_bytes += other.kmem_bytes;
        self.omem_bytes += other.omem_bytes;
        self.dram_ifmap_bytes += other.dram_ifmap_bytes;
        self.dram_ofmap_bytes += other.dram_ofmap_bytes;
        self.dram_weight_bytes += other.dram_weight_bytes;
    }
}

/// Sums a set of layer traffics (the "Total" column of Table IV).
pub fn totals(layers: &[LayerTraffic]) -> LayerTraffic {
    let mut t = LayerTraffic {
        name: "Total".to_owned(),
        ..LayerTraffic::default()
    };
    for l in layers {
        t.add(l);
    }
    t
}

/// The analytic traffic model (Table IV generator).
///
/// See the [crate example](crate) for usage.
#[derive(Debug, Clone)]
pub struct TrafficModel {
    chain: ChainConfig,
    mem: MemoryConfig,
    perf: PerfModel,
}

impl TrafficModel {
    /// Builds the model for a chain and memory configuration.
    pub fn new(chain: ChainConfig, mem: MemoryConfig) -> Self {
        TrafficModel {
            perf: PerfModel::new(chain),
            chain,
            mem,
        }
    }

    /// Traffic of one layer for `batch` images.
    ///
    /// # Errors
    ///
    /// Propagates mapping errors for kernels that do not fit the chain.
    pub fn layer_traffic(
        &self,
        spec: &ConvLayerSpec,
        batch: usize,
    ) -> Result<LayerTraffic, CoreError> {
        let perf = self.perf.layer(spec, CycleModel::PaperCalibrated)?;
        self.row(spec, &perf, batch, spec.name().to_owned())
    }

    /// Traffic of one layer for `batch` images, from the layer's
    /// paper-calibrated cycles (`perf`) instead of predicting them
    /// again: the power model's one pass over a network calls this.
    ///
    /// # Errors
    ///
    /// Propagates mapping errors for kernels that do not fit the chain.
    pub fn layer_counts(
        &self,
        spec: &ConvLayerSpec,
        perf: &LayerPerf,
        batch: usize,
    ) -> Result<TrafficCounts, CoreError> {
        self.row(spec, perf, batch, ())
    }

    fn row<N>(
        &self,
        spec: &ConvLayerSpec,
        perf: &LayerPerf,
        batch: usize,
        name: N,
    ) -> Result<LayerTraffic<N>, CoreError> {
        let n = batch as u64;
        let word = self.mem.word_bytes as u64;
        let e_h = spec.out_h() as u64;
        let e_w = spec.out_w() as u64;

        // oMemory: RMW per output per channel pass, per group.
        let omem_accesses = 2 * n * spec.m() as u64 * e_h * e_w * spec.c_per_group() as u64;

        // Stream cycles per image (paper-calibrated model).
        let stream = perf.stream_cycles;

        // iMemory: lanes × streaming cycles.
        let lanes = if spec.stride() == 1 { 2.0 } else { 1.0 };
        let imem_reads = lanes * stream * n as f64;

        // kMemory: one working-weight latch per active PE per K·E pixels.
        let mapping = KernelMapping::new(self.chain.num_pes(), spec.k(), spec.k())?;
        let kmem_reads =
            stream * mapping.active_pes() as f64 / (spec.k() as f64 * e_w as f64) * n as f64;

        // DRAM, per group.
        let mut dram_ifmap = 0u64;
        let mut dram_ofmap = 0u64;
        for g in 0..spec.groups() {
            let shape = LayerShape::from_spec_group(spec, g);
            let plan = plan_group(&shape, &self.chain, &self.mem)?;
            let ifmap_words = (shape.c * shape.h * shape.w) as u64;
            dram_ifmap += n * plan.ifmap_dram_passes as u64 * ifmap_words * word;
            let ofmap_words = shape.m as u64 * e_h * e_w;
            let ofmap_factor = if plan.psums_fit_omem {
                1 // written back once
            } else {
                // Psums spill: read+write per channel pass.
                2 * shape.c as u64
            };
            dram_ofmap += n * ofmap_factor * ofmap_words * word;
        }
        let dram_weights = spec.weights() * word; // once per batch

        Ok(LayerTraffic {
            name,
            dram_bytes: dram_ifmap + dram_ofmap + dram_weights,
            imem_bytes: (imem_reads * word as f64).round() as u64,
            kmem_bytes: (kmem_reads * word as f64).round() as u64,
            omem_bytes: omem_accesses * word,
            dram_ifmap_bytes: dram_ifmap,
            dram_ofmap_bytes: dram_ofmap,
            dram_weight_bytes: dram_weights,
        })
    }

    /// Traffic of every layer of `net` (the rows of Table IV).
    ///
    /// # Errors
    ///
    /// Propagates per-layer errors.
    pub fn network_traffic(
        &self,
        net: &Network,
        batch: usize,
    ) -> Result<Vec<LayerTraffic>, CoreError> {
        net.layers()
            .iter()
            .map(|l| self.layer_traffic(l, batch))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chain_nn_nets::zoo;

    fn model() -> TrafficModel {
        TrafficModel::new(ChainConfig::paper_576(), MemoryConfig::paper())
    }

    fn mb(bytes: u64) -> f64 {
        bytes as f64 / 1e6
    }

    /// Table IV oMemory row: 13.9 / 143.3 / 265.8 / 199.4 / 132.9 MB —
    /// reproduced exactly.
    #[test]
    fn table_four_omemory_exact() {
        let rows = model().network_traffic(&zoo::alexnet(), 4).unwrap();
        let got: Vec<f64> = rows.iter().map(|r| mb(r.omem_bytes)).collect();
        let paper = [13.9, 143.3, 265.8, 199.4, 132.9];
        for (g, p) in got.iter().zip(paper) {
            assert!((g - p).abs() < 0.05, "oMemory {g} vs paper {p}");
        }
        let total = totals(&rows);
        assert!((mb(total.omem_bytes) - 755.3).abs() < 0.2);
    }

    /// Table IV iMemory row: 6.6 / 8.7 / 4.8 / 3.6 / 2.4 MB — within 10 %.
    #[test]
    fn table_four_imemory_within_ten_percent() {
        let rows = model().network_traffic(&zoo::alexnet(), 4).unwrap();
        let paper = [6.6, 8.7, 4.8, 3.6, 2.4];
        for (r, p) in rows.iter().zip(paper) {
            let g = mb(r.imem_bytes);
            assert!((g - p).abs() / p < 0.10, "{}: iMemory {g} vs {p}", r.name);
        }
    }

    /// Table IV kMemory row: conv2–conv5 within 5 %; conv1 documented
    /// anomaly (paper 15.4 MB, model 5.6 MB).
    #[test]
    fn table_four_kmemory() {
        let rows = model().network_traffic(&zoo::alexnet(), 4).unwrap();
        let paper = [15.4, 17.8, 37.2, 27.9, 18.6];
        for (i, (r, p)) in rows.iter().zip(paper).enumerate() {
            let g = mb(r.kmem_bytes);
            if i == 0 {
                assert!((g - 5.6).abs() < 0.2, "conv1 anomaly moved: {g}");
            } else {
                assert!((g - p).abs() / p < 0.06, "{}: kMemory {g} vs {p}", r.name);
            }
        }
    }

    /// Table IV DRAM row: 9.0 / 5.5 / 4.3 / 3.4 / 2.3 MB — conv2–conv5
    /// within 5 %, conv1 needs 2.5× less under our tiling.
    #[test]
    fn table_four_dram() {
        let rows = model().network_traffic(&zoo::alexnet(), 4).unwrap();
        let paper = [9.0, 5.5, 4.3, 3.4, 2.3];
        for (i, (r, p)) in rows.iter().zip(paper).enumerate() {
            let g = mb(r.dram_bytes);
            if i == 0 {
                assert!((g - 3.63).abs() < 0.1, "conv1 model moved: {g} (paper {p})");
            } else {
                assert!((g - p).abs() / p < 0.05, "{}: DRAM {g} vs {p}", r.name);
            }
        }
    }

    /// DRAM breakdown components sum to the total.
    #[test]
    fn dram_breakdown_sums() {
        let rows = model().network_traffic(&zoo::alexnet(), 4).unwrap();
        for r in &rows {
            assert_eq!(
                r.dram_bytes,
                r.dram_ifmap_bytes + r.dram_ofmap_bytes + r.dram_weight_bytes
            );
        }
    }

    /// Weights cross DRAM once per batch — bigger batches don't pay more.
    #[test]
    fn weight_traffic_batch_invariant() {
        let m = model();
        let alex = zoo::alexnet();
        let l = &alex.layers()[2];
        let t4 = m.layer_traffic(l, 4).unwrap();
        let t128 = m.layer_traffic(l, 128).unwrap();
        assert_eq!(t4.dram_weight_bytes, t128.dram_weight_bytes);
        assert_eq!(t128.dram_ifmap_bytes, 32 * t4.dram_ifmap_bytes);
    }

    /// Chain-NN's headline claim (§V.C): ifmaps are reused so each pixel
    /// crosses the SRAM boundary only (2K−1)/K times per pattern set —
    /// i.e. iMemory traffic per useful MAC is far below one operand.
    #[test]
    fn imem_traffic_far_below_one_operand_per_mac() {
        let rows = model().network_traffic(&zoo::alexnet(), 4).unwrap();
        let total = totals(&rows);
        let macs = 4 * zoo::alexnet().total_macs();
        let operands_per_mac = total.imem_bytes as f64 / 2.0 / macs as f64;
        assert!(
            operands_per_mac < 0.02,
            "ifmap operand rate {operands_per_mac} — reuse broken"
        );
    }

    /// Psum spill inflates DRAM ofmap traffic when oMemory is tiny.
    #[test]
    fn psum_spill_costs_dram() {
        let small = TrafficModel::new(
            ChainConfig::paper_576(),
            MemoryConfig {
                omem_bytes: 64, // below one conv3 row band (78 B)
                ..MemoryConfig::paper()
            },
        );
        let alex = zoo::alexnet();
        let l = &alex.layers()[2];
        let spill = small.layer_traffic(l, 4).unwrap();
        let fit = model().layer_traffic(l, 4).unwrap();
        assert!(spill.dram_ofmap_bytes > 100 * fit.dram_ofmap_bytes);
    }

    #[test]
    fn totals_accumulate() {
        let rows = model().network_traffic(&zoo::alexnet(), 4).unwrap();
        let t = totals(&rows);
        assert_eq!(t.dram_bytes, rows.iter().map(|r| r.dram_bytes).sum::<u64>());
        assert_eq!(t.name, "Total");
    }
}
