//! Seeded workload generator. Every request a run sends and every cache
//! file its daemons replay is a pure function of `(workload, seed)`; the
//! program under test sees nothing else.
//!
//! Disjointness is by clock value. Each region (a cache-file region, a
//! sweep grid, a tune space) takes clock values that no other region of
//! the run has taken, and a design point's identity includes its clock,
//! so two regions never share a point. That is what keeps `sweep-cold`
//! and `tune-cluster` all-miss and `batch-warm` all-hit by construction.

use std::collections::HashSet;
use std::path::Path;

use chain_nn_dse::{
    executor, CacheFile, DesignPoint, PointCache, PointOutcome, SweepSpec, WorkloadMix,
};
use chain_nn_serve::Request;
use chain_nn_tuner::{Budget, Objective, StrategyKind, TuneRequest};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The three traffic shapes the benchmark drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SweepCold,
    BatchWarm,
    TuneCluster,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SweepCold,
        Workload::BatchWarm,
        Workload::TuneCluster,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepCold => "sweep-cold",
            Workload::BatchWarm => "batch-warm",
            Workload::TuneCluster => "tune-cluster",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The daemon request type (`serve_request_ns{type=…}`) that carries
    /// this workload's work on the daemons that evaluate points.
    pub fn daemon_request_type(self) -> &'static str {
        match self {
            Workload::SweepCold => "sweep",
            Workload::BatchWarm | Workload::TuneCluster => "eval_batch",
        }
    }
}

/// Chain lengths of every region: the default grid's `64..=1024:16`.
pub fn pes_axis() -> Vec<usize> {
    (64..=1024).step_by(16).collect()
}

/// Clock values per `sweep-cold` request and per cache-file region of
/// the single daemons: 61 PEs × 2 clocks × 2 kMemory × 2 widths × 2
/// batches × 2 nets = 1952 points.
pub const SWEEP_CLOCKS: usize = 2;
/// Clock values per tune space: 61 × 8 × 2 × 2 × 2 = 3904
/// configurations, two networks each.
pub const TUNE_CLOCKS: usize = 8;
/// Regions in a single daemon's seeded cache file: 32 × 1952 = 62 464
/// points.
pub const FILE_REGIONS: usize = 32;
/// Regions of tune shape spread over the two shard files: 8 × 3904
/// configurations × 2 networks = 62 464 points.
pub const SHARD_FILE_REGIONS: usize = 8;
/// Points per `eval_batch` page.
pub const PAGE: usize = 256;
/// The workload mix every tune serves.
pub const MIX: &str = "alexnet:0.7,vgg16:0.3";
/// Shard daemons behind the coordinator.
pub const SHARDS: usize = 2;
/// Seeded max-system-mW budgets are drawn uniformly from this range.
pub const BUDGET_MW: (f64, f64) = (300.0, 1500.0);

/// Clock values are `BASE + k / STEPS_PER_MHZ` for distinct integers
/// `k`: exact binary fractions, so equal `k` is the only way two
/// regions can share a clock.
const CLOCK_BASE_MHZ: f64 = 200.0;
const CLOCK_SPAN_MHZ: u64 = 800;
const STEPS_PER_MHZ: u64 = 4096;

/// One of the generator's independent random streams, named by `tag`.
fn rng_stream(seed: u64, tag: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ tag.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// Hands out clock values no earlier region of the run has taken.
#[derive(Debug, Clone)]
pub struct Clocks {
    rng: StdRng,
    used: HashSet<u64>,
}

impl Clocks {
    fn new(seed: u64) -> Clocks {
        Clocks {
            rng: rng_stream(seed, 1),
            used: HashSet::new(),
        }
    }

    pub fn take(&mut self, n: usize) -> Vec<f64> {
        let steps = CLOCK_SPAN_MHZ * STEPS_PER_MHZ;
        assert!(
            self.used.len() + n <= steps as usize / 2,
            "clock pool exhausted: the run needs more fresh regions than the pool holds"
        );
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let k = self.rng.gen_range(0..steps);
            if self.used.insert(k) {
                out.push(CLOCK_BASE_MHZ + k as f64 / STEPS_PER_MHZ as f64);
            }
        }
        out.sort_by(f64::total_cmp);
        out
    }
}

/// A sweep grid of the benchmark's shape over the given clocks.
pub fn sweep_spec(clocks: Vec<f64>) -> SweepSpec {
    SweepSpec {
        pes: pes_axis(),
        freqs_mhz: clocks,
        kmem_depths: vec![128, 256],
        imem_kb: vec![32],
        omem_kb: vec![25],
        word_bits: vec![8, 16],
        batches: vec![1, 4],
        nets: vec!["alexnet".to_owned(), "vgg16".to_owned()],
        part: None,
    }
}

/// A tune space: the sweep shape with the network axis left to the mix.
pub fn tune_space(clocks: Vec<f64>) -> SweepSpec {
    SweepSpec {
        nets: vec!["alexnet".to_owned()],
        ..sweep_spec(clocks)
    }
}

pub fn mix() -> WorkloadMix {
    WorkloadMix::parse(MIX).expect("the benchmark mix names zoo networks")
}

/// Every `(configuration, network)` point a tune space can touch.
pub fn tune_space_points(space: &SweepSpec) -> Vec<DesignPoint> {
    let mix = mix();
    space
        .points()
        .iter()
        .flat_map(|base| mix.points_for(base))
        .collect()
}

/// One run's inputs: the seeded cache files and the request stream.
pub struct Inputs {
    pub workload: Workload,
    /// Points of each daemon's seeded cache file, one list per daemon
    /// (two shard files for `tune-cluster`).
    pub files: Vec<Vec<DesignPoint>>,
    clocks: Clocks,
    pages: StdRng,
    tunes: StdRng,
}

impl Inputs {
    pub fn new(workload: Workload, seed: u64) -> Inputs {
        let mut clocks = Clocks::new(seed);
        let files = match workload {
            Workload::SweepCold | Workload::BatchWarm => {
                let mut points = Vec::new();
                for _ in 0..FILE_REGIONS {
                    points.extend(sweep_spec(clocks.take(SWEEP_CLOCKS)).points());
                }
                vec![points]
            }
            Workload::TuneCluster => {
                let mut shards = vec![Vec::new(); SHARDS];
                for _ in 0..SHARD_FILE_REGIONS {
                    for p in tune_space_points(&tune_space(clocks.take(TUNE_CLOCKS))) {
                        shards[(p.content_hash() % SHARDS as u64) as usize].push(p);
                    }
                }
                shards
            }
        };
        Inputs {
            workload,
            files,
            clocks,
            pages: rng_stream(seed, 2),
            tunes: rng_stream(seed, 3),
        }
    }

    /// The working set `batch-warm` pages draw from.
    pub fn working_set(&self) -> &[DesignPoint] {
        &self.files[0]
    }

    /// Page `i`'s point indices into the working set: distinct, uniform.
    pub fn next_page(&mut self) -> Vec<usize> {
        let n = self.working_set().len();
        let mut seen = HashSet::with_capacity(PAGE);
        let mut page = Vec::with_capacity(PAGE);
        while page.len() < PAGE {
            let i = self.pages.gen_range(0..n);
            if seen.insert(i) {
                page.push(i);
            }
        }
        page
    }

    pub fn next_sweep(&mut self) -> SweepSpec {
        sweep_spec(self.clocks.take(SWEEP_CLOCKS))
    }

    pub fn next_tune(&mut self) -> TuneRequest {
        let (lo, hi) = BUDGET_MW;
        // Whole milliwatts keep the wire form short and exact.
        let max_mw = self.tunes.gen_range(lo..hi).round();
        TuneRequest {
            space: tune_space(self.clocks.take(TUNE_CLOCKS)),
            mix: mix(),
            budget: Budget {
                max_system_mw: Some(max_mw),
                ..Budget::default()
            },
            objective: Objective::default(),
            strategy: StrategyKind::Halving,
            seed: self.tunes.gen_range(0..1 << 32),
        }
    }

    /// A fresh cold region of this workload's file shape: points no
    /// file, request or earlier region of the run contains.
    pub fn fresh_region(&mut self) -> Vec<DesignPoint> {
        match self.workload {
            Workload::SweepCold | Workload::BatchWarm => self.next_sweep().points(),
            Workload::TuneCluster => tune_space_points(&tune_space(self.clocks.take(TUNE_CLOCKS))),
        }
    }

    /// The next request of the run, with the page indices for
    /// `batch-warm` (empty otherwise).
    pub fn next_request(&mut self) -> (Request, Vec<usize>) {
        match self.workload {
            Workload::SweepCold => (Request::Sweep(self.next_sweep()), Vec::new()),
            Workload::BatchWarm => {
                let page = self.next_page();
                let points = page.iter().map(|&i| self.files[0][i].clone()).collect();
                (Request::EvalBatch(points), page)
            }
            Workload::TuneCluster => (Request::Tune(Box::new(self.next_tune())), Vec::new()),
        }
    }
}

/// Where the generator writes daemon `i`'s seeded cache file.
pub fn cache_file_path(dir: &Path, i: usize) -> std::path::PathBuf {
    dir.join(format!("seed-{i}.cache"))
}

/// Writes every seeded cache file of `(workload, seed)` into `dir`.
pub fn write_cache_files(workload: Workload, seed: u64, dir: &Path) -> std::io::Result<()> {
    let threads = executor::default_threads();
    for (i, points) in Inputs::new(workload, seed).files.iter().enumerate() {
        write_cache_file(&cache_file_path(dir, i), points, threads)?;
    }
    Ok(())
}

/// Evaluates `points` in-process and writes them as a fresh cache file.
pub fn write_cache_file(
    path: &Path,
    points: &[DesignPoint],
    threads: usize,
) -> std::io::Result<()> {
    let outcomes = executor::run(points, threads, &PointCache::new())
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))?;
    let entries: Vec<(DesignPoint, PointOutcome)> = points.iter().cloned().zip(outcomes).collect();
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
        _ => {}
    }
    CacheFile::new(path).append(&entries)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn lines(workload: Workload, seed: u64, n: usize) -> Vec<String> {
        let mut inputs = Inputs::new(workload, seed);
        (0..n).map(|_| inputs.next_request().0.encode()).collect()
    }

    fn request_points(request: &Request) -> Vec<DesignPoint> {
        match request {
            Request::Sweep(spec) => spec.points(),
            Request::Tune(tune) => tune_space_points(&tune.space),
            Request::EvalBatch(points) => points.clone(),
            other => panic!("unexpected request {other:?}"),
        }
    }

    #[test]
    fn same_seed_gives_byte_identical_request_lines() {
        for w in Workload::ALL {
            assert_eq!(lines(w, 7, 12), lines(w, 7, 12), "{}", w.name());
            assert_ne!(lines(w, 7, 12), lines(w, 8, 12), "{}", w.name());
        }
    }

    #[test]
    fn same_seed_gives_byte_identical_cache_files() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join(".bench_scratch")
            .join(format!("gen-test-{}", std::process::id()));
        let (a, b) = (root.join("a"), root.join("b"));
        for w in Workload::ALL {
            for dir in [&a, &b] {
                std::fs::create_dir_all(dir).unwrap();
                write_cache_files(w, 11, dir).unwrap();
            }
            for i in 0..Inputs::new(w, 11).files.len() {
                let (fa, fb) = (cache_file_path(&a, i), cache_file_path(&b, i));
                assert_eq!(
                    std::fs::read(fa).unwrap(),
                    std::fs::read(fb).unwrap(),
                    "{}",
                    w.name()
                );
            }
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn cold_regions_never_share_a_point() {
        for w in [Workload::SweepCold, Workload::TuneCluster] {
            let mut inputs = Inputs::new(w, 3);
            let mut seen: HashSet<Vec<u8>> = inputs
                .files
                .iter()
                .flatten()
                .map(DesignPoint::canonical_bytes)
                .collect();
            let file_points: usize = inputs.files.iter().map(Vec::len).sum();
            assert_eq!(
                seen.len(),
                file_points,
                "{}: file regions overlap",
                w.name()
            );
            for i in 0..40 {
                let (request, _) = inputs.next_request();
                for p in request_points(&request) {
                    assert!(
                        seen.insert(p.canonical_bytes()),
                        "{} request {i} reuses point {p}",
                        w.name()
                    );
                }
            }
        }
    }

    #[test]
    fn pages_hit_the_working_set_only() {
        let mut inputs = Inputs::new(Workload::BatchWarm, 5);
        let set: HashSet<Vec<u8>> = inputs
            .working_set()
            .iter()
            .map(DesignPoint::canonical_bytes)
            .collect();
        for _ in 0..20 {
            let (request, page) = inputs.next_request();
            let points = request_points(&request);
            assert_eq!(points.len(), PAGE);
            assert_eq!(page.iter().collect::<HashSet<_>>().len(), PAGE);
            assert!(points.iter().all(|p| set.contains(&p.canonical_bytes())));
        }
    }

    #[test]
    fn shapes_match_the_documented_sizes() {
        let mut sweep = Inputs::new(Workload::SweepCold, 1);
        assert_eq!(sweep.files[0].len(), 62_464);
        assert_eq!(sweep.next_sweep().len(), 1952);
        let mut tune = Inputs::new(Workload::TuneCluster, 1);
        assert_eq!(tune.files.iter().map(Vec::len).sum::<usize>(), 62_464);
        assert!(tune.files.iter().all(|f| f.len() > 30_000));
        let request = tune.next_tune();
        assert_eq!(request.space.len(), 3904);
        let mw = request.budget.max_system_mw.unwrap();
        assert!((BUDGET_MW.0..=BUDGET_MW.1).contains(&mw));
    }
}
