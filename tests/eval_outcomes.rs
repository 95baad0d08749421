//! `dse::evaluate`'s outcomes, pinned bit for bit.
//!
//! `crates/dse/testdata/eval_golden.txt` holds one line per point of a
//! seeded 1,000-point sample of a grid that spans every zoo network
//! (plus the alias spelling `VGG-16`), both word widths, batches 1, 3
//! and 128, chains from below K² to 2,048 PEs, kMemory depths 1 to
//! 1,024, iMemory 0 and 32 KB, oMemory 0 to 256 KB (psum spill
//! included) and clocks that are not round numbers. Each line is the
//! point and either the eight result fields as f64 bit patterns or the
//! `Infeasible` reason. The file was written by the model stack that
//! ran three passes per point (perf, then power, then traffic inside
//! power); never regenerate it from newer code: it is the reference
//! the models are held to.

use chain_nn_repro::dse::{evaluate, DesignPoint, PointOutcome};

const GOLDEN: &str = include_str!("../crates/dse/testdata/eval_golden.txt");

const SAMPLE: usize = 1_000;

/// SplitMix64: a seeded stream, so the sample is the same everywhere.
struct SplitMix(u64);

impl SplitMix {
    fn pick<T: Clone>(&mut self, values: &[T]) -> T {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        values[(z % values.len() as u64) as usize].clone()
    }
}

fn sample() -> Vec<DesignPoint> {
    let nets = [
        "alexnet",
        "vgg16",
        "VGG-16",
        "lenet",
        "cifar10",
        "resnet18",
        "mobilenet",
    ];
    // 8 < 3², 24 < 5², 48 < 7², 100 < 11²: every kernel size meets a
    // chain too short for it.
    let pes = [8, 9, 24, 25, 48, 100, 121, 288, 576, 1000, 2048];
    let freqs = [
        700.0,
        350.0,
        200.0 + 3.0 / 4096.0,
        612.5 + 1.0 / 1024.0,
        1e3 / 3.0,
    ];
    let mut rng = SplitMix(2017);
    (0..SAMPLE)
        .map(|_| DesignPoint {
            net: rng.pick(&nets).to_owned(),
            word_bits: rng.pick(&[8, 16]),
            batch: rng.pick(&[1, 3, 128]),
            pes: rng.pick(&pes),
            kmem_depth: rng.pick(&[1, 16, 128, 256, 1024]),
            imem_kb: rng.pick(&[0, 32]),
            omem_kb: rng.pick(&[0, 1, 25, 256]),
            freq_mhz: rng.pick(&freqs),
        })
        .collect()
}

/// One golden line: the point, a tab, then its outcome.
fn line(point: &DesignPoint) -> String {
    let outcome = match evaluate(point) {
        Ok(PointOutcome::Feasible(r)) => {
            let fields = [
                r.fps,
                r.achieved_gops,
                r.peak_gops,
                r.chip_mw,
                r.dram_mw,
                r.gates_k,
                r.sram_kb,
                r.sqnr_db,
            ];
            let hex: Vec<String> = fields
                .iter()
                .map(|v| format!("{:016x}", v.to_bits()))
                .collect();
            format!("feasible {}", hex.join(" "))
        }
        Ok(PointOutcome::Infeasible(reason)) => format!("infeasible {reason}"),
        Err(e) => format!("error {e}"),
    };
    format!("{point}\t{outcome}")
}

#[test]
fn evaluate_matches_the_pinned_outcomes() {
    let want: Vec<&str> = GOLDEN.lines().filter(|l| !l.starts_with('#')).collect();
    let got: Vec<String> = sample().iter().map(line).collect();
    assert_eq!(want.len(), SAMPLE, "the pinned file lost lines");
    // The file's own shape: both kinds of outcome.
    let feasible = want.iter().filter(|l| l.contains("\tfeasible ")).count();
    assert!(feasible > 200 && feasible < SAMPLE - 100, "{feasible}");
    let differ: Vec<String> = want
        .iter()
        .zip(&got)
        .filter(|(w, g)| *w != g)
        .map(|(w, g)| format!("pinned: {w}\n   now: {g}"))
        .collect();
    assert!(
        differ.is_empty(),
        "{} of {SAMPLE} outcomes differ from the pinned file, first ones:\n{}",
        differ.len(),
        differ[..differ.len().min(5)].join("\n")
    );
}

#[test]
fn every_zoo_network_evaluates_at_the_corners_of_the_axis_bounds() {
    use chain_nn_repro::dse::spec::AXIS_BOUNDS;

    let [pes, kmem, imem, omem, batch] = AXIS_BOUNDS.map(|(_, bound)| bound);
    // 121 PEs map AlexNet's 11x11 kernels, the zoo's largest.
    for net in [
        "alexnet",
        "vgg16",
        "lenet",
        "cifar10",
        "resnet18",
        "mobilenet",
    ] {
        for word_bits in [8, 16] {
            for pes in [121, pes] {
                for kmem_depth in [1, kmem] {
                    for imem_kb in [0, imem] {
                        for omem_kb in [0, omem] {
                            for batch in [1, batch] {
                                let point = DesignPoint {
                                    pes,
                                    freq_mhz: 700.0,
                                    kmem_depth,
                                    imem_kb,
                                    omem_kb,
                                    word_bits,
                                    batch,
                                    net: net.to_owned(),
                                };
                                let outcome = evaluate(&point);
                                assert!(
                                    matches!(outcome, Ok(PointOutcome::Feasible(_))),
                                    "{point}: {outcome:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
