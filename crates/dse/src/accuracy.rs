//! Measured quantization accuracy: the DSE's SQNR axis.
//!
//! The paper validates its 16-bit fixed-point datapath by comparing a
//! float reference against the fixed-point simulator (§V.A) and
//! reporting the quantization error. Until this module existed, the
//! DSE's operand-width axis charged narrow words *nothing* for the
//! precision they give up, so 8-bit points dominated 16-bit points on
//! every modeled objective (the old DESIGN.md §4 caveat). This module
//! closes that gap with a **measured** accuracy model:
//!
//! * For one `(network, word width)` pair, [`measure`] runs every conv
//!   layer of the network in float and in fixed point — the
//!   `examples/quantization.rs` pipeline (`fixed` quantizers,
//!   `nets::synth` seeded data, `tensor::conv` golden convolutions) —
//!   layer by layer, and pools the per-layer error statistics into one
//!   SQNR figure (the paper's §V.A error tables are per layer too).
//! * Layers are shrunk to statistical proxies (channel and spatial
//!   extents capped, kernel/stride/grouping preserved) so a measurement
//!   costs milliseconds, not the minutes a full VGG-16 inference would:
//!   SQNR is a ratio of per-element second moments, which subsampling
//!   preserves, unlike total runtime.
//! * Q-formats are chosen per layer by the paper's own range-analysis
//!   flow: [`QFormat::fit`] on the actual tensors, narrowed by
//!   `16 − word_bits` to emulate the narrower datapath, then trimmed
//!   until the 32-bit accumulator has headroom for the layer's output
//!   range (saturating accumulation models the write-back converter).
//!
//! The result depends only on `(net, word_bits)` — not on PEs, clock or
//! memory sizing — so it is memoized process-wide ([`sqnr_for`]) and
//! rides every persisted [`crate::eval::PointResult`] record
//! ([`crate::persist`]), which is what makes a restarted daemon
//! re-serve a cached point's SQNR without recomputing anything.
//! [`recomputations`] counts actual measurements, so callers can prove
//! cache behaviour ("second identical sweep: 0 accuracy
//! recomputations").
//!
//! **Why SQNR and not top-1 accuracy:** the repository has no trained
//! weights and no dataset (DESIGN.md §5 — the paper's MatConvNet models
//! are unavailable), so task accuracy is unmeasurable here. SQNR against
//! the float reference on range-realistic synthetic tensors is exactly
//! the metric the paper's own §V.A verification flow uses, and it is the
//! quantity the datapath width actually controls.
//!
//! # Example
//!
//! ```
//! use chain_nn_dse::accuracy;
//!
//! let wide = accuracy::sqnr_for("lenet", 16).unwrap();
//! let narrow = accuracy::sqnr_for("lenet", 8).unwrap();
//! assert!(wide > narrow + 20.0, "16-bit must buy real precision");
//! // Memoized: asking again measures nothing new.
//! assert_eq!(accuracy::sqnr_for("lenet", 16).unwrap(), wide);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use chain_nn_fixed::error::{compare, ErrorStats};
use chain_nn_fixed::{OverflowMode, QFormat};
use chain_nn_nets::synth::SynthSource;
use chain_nn_nets::{ConvLayerSpec, Network};
use chain_nn_tensor::conv::{conv2d_f32, conv2d_fix};
use chain_nn_tensor::ops;

use crate::{DseError, ZooNet};

/// Pooled float-vs-fixed error statistics of one `(net, word)` pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyStats {
    /// Signal-to-quantization-noise ratio in dB, pooled over every
    /// layer's output activations (per-element mean of squared signal
    /// over per-element mean of squared error).
    pub sqnr_db: f64,
    /// Pooled mean squared error.
    pub mse: f64,
    /// Largest absolute error seen on any layer output.
    pub max_abs: f64,
    /// Output elements compared across all layers.
    pub count: usize,
}

/// Seed of the synthetic data source; fixed so the measurement is a
/// pure function of `(net, word_bits)`.
const SYNTH_SEED: u64 = 42;

/// Per-group channel cap of the layer proxies.
const PROXY_CHANNELS: usize = 16;

/// Output positions per spatial dimension of the layer proxies.
const PROXY_OUT: usize = 4;

/// Shrinks `layer` to its statistical proxy: kernel, stride, padding
/// and grouping structure preserved; per-group channel counts capped at
/// [`PROXY_CHANNELS`], group count capped at 4, spatial extent capped
/// so at most [`PROXY_OUT`] output positions remain per dimension.
fn proxy_layer(layer: &ConvLayerSpec) -> ConvLayerSpec {
    let groups = layer.groups().min(4);
    let c = groups * layer.c_per_group().min(PROXY_CHANNELS);
    let m = groups * layer.m_per_group().min(PROXY_CHANNELS);
    let h = layer
        .h()
        .min(layer.k() + (PROXY_OUT - 1) * layer.stride())
        .max(layer.k().saturating_sub(2 * layer.pad()).max(1));
    ConvLayerSpec::named(
        layer.name(),
        c,
        h,
        h,
        layer.k(),
        layer.stride(),
        layer.pad(),
        m,
        groups,
    )
    .expect("proxy of a valid layer is valid")
}

/// The activation/weight Q-formats of one layer at `word_bits`:
/// range-fit at 16 bits, narrowed to the emulated width, then trimmed
/// until the layer's float output range fits the 32-bit accumulator
/// with one guard bit.
fn layer_formats(
    word_bits: u32,
    acts: &[f32],
    weights: &[f32],
    float_out_max: f32,
) -> (QFormat, QFormat) {
    let shrink = 16 - word_bits; // word widths are validated 8 | 16
    let mut fa = QFormat::fit(acts).frac_bits().saturating_sub(shrink);
    let mut fw = QFormat::fit(weights).frac_bits().saturating_sub(shrink);
    // Raw accumulated outputs are ≈ out · 2^(fa+fw); keep them below
    // 2^30 so saturation only models genuine overflow, not headroom.
    let out_bits = float_out_max.max(1.0).log2().ceil().max(0.0) as u32 + 1;
    while fa + fw > 30u32.saturating_sub(out_bits) {
        if fa >= fw && fa > 0 {
            fa -= 1;
        } else if fw > 0 {
            fw -= 1;
        } else {
            break;
        }
    }
    (
        QFormat::new(fa).expect("trimmed format valid"),
        QFormat::new(fw).expect("trimmed format valid"),
    )
}

/// Measures the float-vs-fixed quantization error of `net` at
/// `word_bits` on the layer proxies. Deterministic: same inputs, same
/// answer, bit for bit.
///
/// # Errors
///
/// Returns [`DseError::Spec`] for a word width the datapath models do
/// not support (anything but 8 or 16 bits).
pub fn measure(net: &Network, word_bits: u32) -> Result<AccuracyStats, DseError> {
    if !matches!(word_bits, 8 | 16) {
        return Err(DseError::Spec(format!(
            "word width {word_bits} unsupported (expected 8 or 16 bits)"
        )));
    }
    let mut src = SynthSource::new(SYNTH_SEED);
    let proxies: Vec<ConvLayerSpec> = net.layers().iter().map(proxy_layer).collect();

    let (mut sq_err, mut sig, mut max_abs, mut count) = (0f64, 0f64, 0f64, 0usize);
    for layer in &proxies {
        // Per-layer comparison on fresh range-realistic tensors (the
        // paper's §V.A tables are also per layer): the proxies' spatial
        // extents do not compose, so activations are drawn at each
        // layer's own input shape rather than chained through.
        let float_act = src.activations(layer, 1, 2.0);
        let weights = src.weights(layer);
        // Float reference (then ReLU, as between real conv layers).
        let fref = conv2d_f32(&float_act, &weights, None, layer.geometry())
            .map_err(|e| DseError::Spec(format!("accuracy proxy for '{}': {e}", layer.name())))?;
        let fref = ops::relu(&fref);
        let out_max = fref.as_slice().iter().fold(0f32, |m, &x| m.max(x.abs()));

        // The fixed path quantizes the SAME inputs the float path
        // consumed, so the measured error is pure quantization noise —
        // like hardware with a requantizing write-back between layers.
        let (act_fmt, w_fmt) =
            layer_formats(word_bits, float_act.as_slice(), weights.as_slice(), out_max);
        let qa = float_act.map(|x| act_fmt.quantize(x));
        let qw = weights.map(|x| w_fmt.quantize(x));
        let raw = conv2d_fix(&qa, &qw, layer.geometry(), OverflowMode::Saturating)
            .map_err(|e| DseError::Spec(format!("accuracy proxy for '{}': {e}", layer.name())))?;
        let scale = 2f64.powi(-((act_fmt.frac_bits() + w_fmt.frac_bits()) as i32)) as f32;
        let ffix = raw.map(|v| (v as f32 * scale).max(0.0));

        let stats = compare(fref.as_slice(), ffix.as_slice());
        sq_err += stats.mse * stats.count as f64;
        sig += stats.signal_power * stats.count as f64;
        max_abs = max_abs.max(stats.max_abs);
        count += stats.count;
    }
    let pooled = ErrorStats {
        mse: sq_err / count as f64,
        max_abs,
        signal_power: sig / count as f64,
        count,
    };
    Ok(AccuracyStats {
        sqnr_db: pooled.sqnr_db(),
        mse: pooled.mse,
        max_abs: pooled.max_abs,
        count: pooled.count,
    })
}

fn recompute_counter() -> &'static AtomicU64 {
    static COUNT: AtomicU64 = AtomicU64::new(0);
    &COUNT
}

/// How many actual [`measure`] runs this process has performed — the
/// number that proves memoization ("second identical sweep: 0 accuracy
/// recomputations"). Monotonic over the process lifetime; take deltas.
pub fn recomputations() -> u64 {
    recompute_counter().load(Ordering::Relaxed)
}

/// The memoized SQNR of `(net, word_bits)` in dB: measured once per
/// process per pair (racing callers wait for the one measurement),
/// answered from the memo afterwards. The memo is keyed by zoo network,
/// so every spelling of one network (`vgg16`, `VGG-16`) shares its
/// entry. Only a measurement fills the memo: a point loaded from a
/// cache file serves the SQNR of its own record, and a never-seen point
/// of the same pair is measured on first use, as in a fresh process.
///
/// # Errors
///
/// [`DseError::Spec`] for an unknown network or unsupported word width.
pub fn sqnr_for(net: &str, word_bits: u32) -> Result<f64, DseError> {
    let zoo_net =
        ZooNet::find(net).ok_or_else(|| DseError::Spec(format!("unknown network '{net}'")))?;
    sqnr_of(zoo_net, word_bits)
}

/// [`sqnr_for`] of a resolved zoo network. A memo hit is one atomic
/// load: it takes no lock and allocates nothing.
pub(crate) fn sqnr_of(net: ZooNet, word_bits: u32) -> Result<f64, DseError> {
    type Slot = OnceLock<Result<f64, DseError>>;
    static MEMO: [[Slot; 2]; ZooNet::COUNT] =
        [const { [const { OnceLock::new() }; 2] }; ZooNet::COUNT];
    let width = match word_bits {
        8 => 0,
        16 => 1,
        _ => return measure(net.network(), word_bits).map(|stats| stats.sqnr_db),
    };
    MEMO[net.index()][width]
        .get_or_init(|| {
            let stats = measure(net.network(), word_bits)?;
            recompute_counter().fetch_add(1, Ordering::Relaxed);
            Ok(stats.sqnr_db)
        })
        .clone()
}

/// Test-only: forces every `(net, width)` pair that tests in this
/// crate's binary can reach through [`sqnr_for`] into the memo, so a
/// test can then read [`recomputations`] without racing concurrent
/// tests mid-measurement (measurements complete — and count — inside
/// the memo's initialisation before this returns).
#[cfg(test)]
pub(crate) fn warm_counter_visible_pairs() {
    for net in ["lenet", "cifar10", "alexnet", "vgg16"] {
        for bits in [8u32, 16] {
            sqnr_for(net, bits).expect("zoo pair measures");
        }
    }
    sqnr_for("mobilenet", 16).expect("zoo pair measures");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network_by_name;

    #[test]
    fn wider_words_measure_higher_sqnr_on_every_zoo_net() {
        for net in ["lenet", "cifar10", "alexnet"] {
            let network = network_by_name(net).unwrap();
            let narrow = measure(&network, 8).unwrap();
            let wide = measure(&network, 16).unwrap();
            assert!(
                wide.sqnr_db > narrow.sqnr_db + 20.0,
                "{net}: 16-bit {:.1} dB vs 8-bit {:.1} dB",
                wide.sqnr_db,
                narrow.sqnr_db
            );
            assert!(narrow.sqnr_db > 10.0, "{net}: 8-bit unusable");
            assert!(wide.sqnr_db.is_finite());
            assert!(narrow.max_abs > wide.max_abs);
            assert!(narrow.count == wide.count && narrow.count > 0);
        }
    }

    #[test]
    fn measurement_is_deterministic() {
        let net = network_by_name("cifar10").unwrap();
        let a = measure(&net, 8).unwrap();
        let b = measure(&net, 8).unwrap();
        assert_eq!(a.sqnr_db.to_bits(), b.sqnr_db.to_bits());
        assert_eq!(a.mse.to_bits(), b.mse.to_bits());
    }

    /// Held by the tests that read [`recomputations`] deltas around a
    /// pair only they measure, so one's probe cannot land in the
    /// other's window.
    static COUNTER_WINDOW: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn memo_measures_once() {
        // The probe pair (resnet18 at 8 bits) is touched by no other
        // test; every pair that IS reachable elsewhere gets settled
        // first, so the global counter cannot move under our feet.
        let _window = COUNTER_WINDOW.lock().unwrap_or_else(|e| e.into_inner());
        warm_counter_visible_pairs();
        let before = recomputations();
        let first = sqnr_for("resnet18", 8).unwrap();
        let mid = recomputations();
        assert_eq!(mid, before + 1);
        let again = sqnr_for("resnet18", 8).unwrap();
        assert_eq!(again.to_bits(), first.to_bits());
        assert_eq!(recomputations(), mid, "memo hit must not re-measure");
    }

    #[test]
    fn alias_spellings_share_one_measurement() {
        let _window = COUNTER_WINDOW.lock().unwrap_or_else(|e| e.into_inner());
        warm_counter_visible_pairs();
        let before = recomputations();
        let alias = sqnr_for("CIFAR-10", 16).unwrap();
        assert_eq!(recomputations(), before, "an alias must not re-measure");
        assert_eq!(alias.to_bits(), sqnr_for("cifar10", 16).unwrap().to_bits());
    }

    #[test]
    fn loaded_records_do_not_seed_the_memo() {
        // A record whose (net, word) pair no measurement would produce:
        // its own point serves it, and the pair is still measured.
        use crate::{CacheFile, DesignPoint, PointCache, PointOutcome, PointResult};

        let path = std::env::temp_dir().join(format!(
            "chain_nn_accuracy_no_seed_{}.cache",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let point = DesignPoint {
            net: "mobilenet".into(),
            word_bits: 16,
            pes: 121,
            ..DesignPoint::paper_alexnet()
        };
        let outcome = PointOutcome::Feasible(PointResult {
            fps: 5.0,
            achieved_gops: 10.0,
            peak_gops: 15.0,
            chip_mw: 500.0,
            dram_mw: 50.0,
            gates_k: 1000.0,
            sram_kb: 300.5,
            sqnr_db: 61.5,
        });
        let file = CacheFile::new(&path);
        file.append(&[(point.clone(), outcome.clone())]).unwrap();
        let cache = PointCache::new();
        assert_eq!(file.load_into(&cache).unwrap().loaded, 1);
        assert_eq!(cache.get(&point), Some(outcome));
        let measured = measure(&network_by_name("mobilenet").unwrap(), 16)
            .unwrap()
            .sqnr_db;
        assert_eq!(
            sqnr_for("mobilenet", 16).unwrap().to_bits(),
            measured.to_bits(),
            "the loaded 61.5 dB must not reach the memo"
        );
        assert!((measured - 84.0).abs() < 0.05, "{measured}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unknown_net_and_bad_width_are_errors() {
        assert!(sqnr_for("squeezenet", 16).is_err());
        let net = network_by_name("lenet").unwrap();
        assert!(measure(&net, 12).is_err());
    }

    #[test]
    fn proxies_preserve_structure_and_shrink_extent() {
        let conv1 = ConvLayerSpec::named("conv1", 3, 227, 227, 11, 4, 0, 96, 1).unwrap();
        let p = proxy_layer(&conv1);
        assert_eq!(p.k(), 11);
        assert_eq!(p.stride(), 4);
        assert_eq!(p.c(), 3, "small channel counts pass through");
        assert_eq!(p.m(), PROXY_CHANNELS);
        assert!(p.h() < conv1.h());
        assert!(p.out_h() >= 1 && p.out_h() <= PROXY_OUT + 1);
        // Grouped layers keep their grouping structure.
        let conv2 = ConvLayerSpec::named("conv2", 96, 27, 27, 5, 1, 2, 256, 2).unwrap();
        let p = proxy_layer(&conv2);
        assert_eq!(p.groups(), 2);
        assert_eq!(p.c_per_group(), PROXY_CHANNELS);
        // Depthwise layers stay depthwise (1 channel per group).
        let dw = ConvLayerSpec::named("dw", 256, 14, 14, 3, 1, 1, 256, 256).unwrap();
        let p = proxy_layer(&dw);
        assert_eq!(p.c_per_group(), 1);
        assert_eq!(p.groups(), 4);
    }

    #[test]
    fn formats_leave_accumulator_headroom() {
        let acts = [1.9f32, 0.5, 0.25];
        let weights = [0.3f32, -0.2];
        for word in [8u32, 16] {
            let (fa, fw) = layer_formats(word, &acts, &weights, 40.0);
            let out_bits = 40f32.log2().ceil() as u32 + 1;
            assert!(fa.frac_bits() + fw.frac_bits() <= 30 - out_bits);
            // Every act/weight value still quantizes without saturating.
            for &a in &acts {
                assert!(fa.max_value() >= a);
            }
        }
    }
}
