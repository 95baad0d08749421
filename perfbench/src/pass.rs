//! One pass of one workload: write the seeded cache files, set the
//! daemons up (several times, for a steady `setup_s`), drive the closed
//! loop for the run length while checking every reply, then run the
//! checks that need an in-process reference.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use chain_nn_dse::{
    executor, CacheFile, Explorer, PointCache, PointOutcome, PointResult, SweepSpec,
};
use chain_nn_serve::{Request, Response};
use chain_nn_tuner::{tune, CacheEvaluator, Tuned};

use crate::fleet::Fleet;
use crate::gen::{Inputs, Workload, PAGE};
use crate::stats::{median, quantile};

/// Set-ups per untraced pass; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;
/// Equal-time windows a pass is cut into. The end-to-end timings are
/// medians over the windows of each window's figure, so a burst of host
/// interference shorter than half the run does not move them.
pub const WINDOWS: usize = 6;
/// Every this-many-th `sweep-cold` reply, from the first, is kept and
/// re-checked against an in-process `Explorer` after the timed loop. A
/// fixed stride keeps the harness's own memory flat: a faster program
/// does not make it keep more replies.
const SWEEP_CHECK_STRIDE: u64 = 64;
/// Exchanges kept for the traced run's codec timings.
const CAPTURE: usize = 32;

/// Requests attempted, by how they ended.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub ok: u64,
    pub busy: u64,
    pub error: u64,
    pub transport: u64,
    pub wrong: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.attempted - self.ok
    }
}

/// One exchange of the traced pass: the request, its reply and the
/// correlation id the client sent them under.
pub struct Captured {
    pub request: Request,
    pub response: Response,
    pub id: u64,
}

/// What a pass measured.
pub struct Pass {
    pub workload: Workload,
    pub setup_s: Vec<f64>,
    /// One per attempted request, in completion order.
    pub samples: Vec<Sample>,
    pub elapsed_s: f64,
    pub tally: Tally,
    /// First few wrong-answer descriptions.
    pub wrong: Vec<String>,
    pub peak_rss_mb: f64,
    /// Cache hits and misses summed over the replies.
    pub hits: u64,
    pub misses: u64,
    /// `(rounds, evaluations)` of every tune reply.
    pub tune_counts: Vec<(usize, u64)>,
    /// Traced pass only: the first exchanges.
    pub captured: Vec<Captured>,
    /// Traced pass only: the per-layer table.
    pub layers: Vec<crate::layers::Metric>,
    pub blocking: Vec<(String, f64)>,
}

/// One attempted request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Completion time, seconds since the timed loop started.
    pub done_s: f64,
    /// Client-observed latency; a failed request is recorded at the
    /// whole run length, so it misses every latency bound.
    pub latency_ms: f64,
    pub ok: bool,
}

/// One of a pass's [`WINDOWS`].
pub struct Window {
    pub span_s: f64,
    pub latencies_ms: Vec<f64>,
    pub ok: u64,
}

impl Pass {
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.latency_ms).collect()
    }

    pub fn windows(&self) -> Vec<Window> {
        let span_s = self.elapsed_s / WINDOWS as f64;
        let mut windows: Vec<Window> = (0..WINDOWS)
            .map(|_| Window {
                span_s,
                latencies_ms: Vec::new(),
                ok: 0,
            })
            .collect();
        for s in &self.samples {
            let w = &mut windows[((s.done_s / span_s) as usize).min(WINDOWS - 1)];
            w.latencies_ms.push(s.latency_ms);
            w.ok += u64::from(s.ok);
        }
        windows
    }

    /// Median over the windows of each window's `q` latency quantile. A
    /// window in which no request completed counts as infinitely slow.
    pub fn latency_ms(&self, q: f64) -> f64 {
        let per_window: Vec<f64> = self
            .windows()
            .iter()
            .map(|w| match w.latencies_ms.is_empty() {
                true => f64::INFINITY,
                false => quantile(&w.latencies_ms, q),
            })
            .collect();
        median(&per_window)
    }

    /// Median over the windows of each window's completed requests per
    /// second.
    pub fn requests_per_s(&self) -> f64 {
        let per_window: Vec<f64> = self
            .windows()
            .iter()
            .map(|w| w.ok as f64 / w.span_s)
            .collect();
        median(&per_window)
    }
}

/// Bitwise equality of two outcomes: every f64 field by its bit pattern.
pub fn same_outcome(a: &PointOutcome, b: &PointOutcome) -> bool {
    fn bits(r: &PointResult) -> [u64; 8] {
        [
            r.fps,
            r.achieved_gops,
            r.peak_gops,
            r.chip_mw,
            r.dram_mw,
            r.gates_k,
            r.sram_kb,
            r.sqnr_db,
        ]
        .map(f64::to_bits)
    }
    match (a, b) {
        (PointOutcome::Feasible(x), PointOutcome::Feasible(y)) => bits(x) == bits(y),
        (PointOutcome::Infeasible(x), PointOutcome::Infeasible(y)) => x == y,
        _ => false,
    }
}

/// The in-line output check of one reply.
fn check_reply(
    request: &Request,
    page: &[usize],
    expected: &[PointOutcome],
    response: &Response,
) -> Result<(), String> {
    match (request, response) {
        (Request::Sweep(spec), Response::Sweep(s)) => {
            let n = spec.len();
            if s.points != n || s.cache_hits != 0 || s.cache_misses != n as u64 || s.degraded {
                return Err(format!(
                    "sweep of {n} cold points answered points={} hits={} misses={} degraded={}",
                    s.points, s.cache_hits, s.cache_misses, s.degraded
                ));
            }
            Ok(())
        }
        (
            Request::EvalBatch(_),
            Response::EvalBatch {
                outcomes,
                cache_hits,
                cache_misses,
            },
        ) => {
            if outcomes.len() != PAGE || *cache_misses != 0 || *cache_hits != PAGE as u64 {
                return Err(format!(
                    "page of {PAGE} warm points answered {} outcomes, hits={cache_hits} misses={cache_misses}",
                    outcomes.len()
                ));
            }
            match page
                .iter()
                .zip(outcomes)
                .position(|(&i, got)| !same_outcome(&expected[i], got))
            {
                Some(k) => Err(format!("page outcome {k} differs from the persisted one")),
                None => Ok(()),
            }
        }
        (Request::Tune(_), Response::Tune(t)) => {
            if t.cache_hits != 0 || t.degraded || t.best.is_none() {
                return Err(format!(
                    "cold tune answered hits={} degraded={} best={}",
                    t.cache_hits,
                    t.degraded,
                    t.best.is_some()
                ));
            }
            Ok(())
        }
        (_, other) => Err(format!("unexpected reply {other:?}")),
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// What the tune check compares: the best point's `Debug` form, which
/// spells every float in full, hashed so that keeping one per tune
/// costs eight bytes.
fn best_digest(best: &Option<Tuned>) -> u64 {
    let mut h = DefaultHasher::new();
    format!("{best:?}").hash(&mut h);
    h.finish()
}

/// Runs one pass. `traced` keeps the first exchanges and runs the
/// per-layer probes after the timed loop, while the daemons are still up;
/// the timed loop itself is the same in both passes.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    scratch: &Path,
) -> Result<Pass, String> {
    let mut inputs = Inputs::new(workload, seed);
    let threads = executor::default_threads();
    // The files are evaluated and written by a child process, so the
    // memory that takes never counts toward this process's peak RSS.
    let status = std::process::Command::new(std::env::current_exe().map_err(|e| e.to_string())?)
        .args(["--generate", workload.name(), &seed.to_string()])
        .arg(scratch)
        .status()
        .map_err(|e| format!("generator: {e}"))?;
    if !status.success() {
        return Err(format!("generator exited with {status}"));
    }
    let pristine: Vec<(PathBuf, usize)> = inputs
        .files
        .iter()
        .enumerate()
        .map(|(i, points)| (crate::gen::cache_file_path(scratch, i), points.len()))
        .collect();
    // `batch-warm` replies must equal the persisted outcomes bit for bit.
    let expected: Vec<PointOutcome> = if workload == Workload::BatchWarm {
        let persisted = PointCache::new();
        CacheFile::new(&pristine[0].0)
            .load_into(&persisted)
            .map_err(|e| e.to_string())?;
        inputs
            .working_set()
            .iter()
            .map(|p| {
                persisted
                    .probe(p)
                    .ok_or("a working-set point is missing from its file")
            })
            .collect::<Result<_, _>>()?
    } else {
        Vec::new()
    };
    let working: Vec<(PathBuf, usize)> = pristine
        .iter()
        .enumerate()
        .map(|(i, (_, n))| (scratch.join(format!("daemon-{i}.cache")), *n))
        .collect();
    let loaded: usize = pristine.iter().map(|(_, n)| n).sum();

    let reps = if traced { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    let (mut fleet, mut client) = loop {
        for ((from, _), (to, _)) in pristine.iter().zip(&working) {
            std::fs::copy(from, to).map_err(|e| e.to_string())?;
        }
        let (fleet, mut client, secs) = Fleet::start(workload, &working, loaded)?;
        setup_s.push(secs);
        if setup_s.len() == reps {
            break (fleet, client);
        }
        fleet.stop(&mut client)?;
    };

    let mut pass = Pass {
        workload,
        setup_s,
        samples: Vec::new(),
        elapsed_s: 0.0,
        tally: Tally::default(),
        wrong: Vec::new(),
        peak_rss_mb: f64::NAN,
        hits: 0,
        misses: 0,
        tune_counts: Vec::new(),
        captured: Vec::new(),
        layers: Vec::new(),
        blocking: Vec::new(),
    };
    let mut sweeps: Vec<(SweepSpec, Vec<usize>, Vec<usize>)> = Vec::new();
    // One entry per request of a `tune-cluster` run: the digest of its
    // best point, or `None` when it failed. The requests themselves are
    // generated again from the seed for the check.
    let mut tunes: Vec<Option<u64>> = Vec::new();
    let run_ms = seconds * 1e3;
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        let (request, page) = inputs.next_request();
        pass.tally.attempted += 1;
        let id = pass.tally.attempted;
        let sent = Instant::now();
        let reply = client.request(&request).map_err(|e| e.to_string());
        let latency = sent.elapsed();
        if traced && pass.captured.len() < CAPTURE {
            if let Ok(response) = &reply {
                pass.captured.push(Captured {
                    request: request.clone(),
                    response: response.clone(),
                    // The readiness `stats` request went out as id 1.
                    id: id + 1,
                });
            }
        }
        if workload == Workload::TuneCluster {
            tunes.push(None);
        }
        let verdict = match reply {
            Err(e) => {
                pass.tally.transport += 1;
                Err(format!("transport: {e}"))
            }
            Ok(Response::Busy { .. }) => {
                pass.tally.busy += 1;
                Err("busy".to_owned())
            }
            Ok(Response::Error { message }) => {
                pass.tally.error += 1;
                Err(format!("error: {message}"))
            }
            Ok(response) => match check_reply(&request, &page, &expected, &response) {
                Err(why) => {
                    pass.tally.wrong += 1;
                    Err(why)
                }
                Ok(()) => {
                    pass.tally.ok += 1;
                    match (&request, response) {
                        (Request::Sweep(spec), Response::Sweep(s)) => {
                            pass.misses += s.cache_misses;
                            if (id - 1).is_multiple_of(SWEEP_CHECK_STRIDE) {
                                sweeps.push((spec.clone(), s.frontier_3d, s.frontier_sqnr));
                            }
                        }
                        (Request::EvalBatch(_), Response::EvalBatch { cache_hits, .. }) => {
                            pass.hits += cache_hits;
                        }
                        (Request::Tune(_), Response::Tune(s)) => {
                            pass.hits += s.cache_hits;
                            pass.misses += s.cache_misses;
                            pass.tune_counts.push((s.rounds, s.evaluations));
                            *tunes.last_mut().expect("pushed above") = Some(best_digest(&s.best));
                        }
                        _ => unreachable!("check_reply accepted a mismatched pair"),
                    }
                    Ok(())
                }
            },
        };
        let done_s = started.elapsed().as_secs_f64();
        let ok = verdict.is_ok();
        let latency_ms = match verdict {
            Ok(()) => latency.as_secs_f64() * 1e3,
            Err(why) => {
                if pass.wrong.len() < 5 {
                    pass.wrong.push(format!("request {id}: {why}"));
                }
                run_ms
            }
        };
        pass.samples.push(Sample {
            done_s,
            latency_ms,
            ok,
        });
    }
    pass.elapsed_s = started.elapsed().as_secs_f64();
    pass.peak_rss_mb = peak_rss_mb();

    let probed = if traced {
        crate::layers::probe(
            &mut pass,
            &mut fleet,
            &mut client,
            &mut inputs,
            &pristine,
            seed,
            scratch,
        )
    } else {
        Ok(())
    };
    let stopped = fleet.stop(&mut client);
    probed?;
    stopped?;

    // Checks against in-process references, outside the timed loop.
    for (spec, frontier_3d, frontier_sqnr) in &sweeps {
        let local = Explorer::new()
            .run(spec, threads)
            .map_err(|e| e.to_string())?;
        if &local.frontier_3d != frontier_3d || &local.frontier_sqnr != frontier_sqnr {
            pass.tally.ok -= 1;
            pass.tally.wrong += 1;
            pass.wrong
                .push("sweep frontier differs from an in-process Explorer::run".to_owned());
        }
    }
    // Every answered tune, one in-process reference per core at a time.
    let mut replay = Inputs::new(workload, seed);
    let tunes: Vec<_> = tunes
        .into_iter()
        .filter_map(|digest| Some((replay.next_tune(), digest?)))
        .collect();
    let mismatched: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let tunes = &tunes;
                scope.spawn(move || {
                    tunes
                        .iter()
                        .skip(t)
                        .step_by(threads)
                        .filter(|(request, digest)| {
                            let cache = PointCache::new();
                            let local = tune(request, &mut CacheEvaluator::new(&cache, 1));
                            local.map(|r| best_digest(&r.best)).ok() != Some(*digest)
                        })
                        .count()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tune check thread panicked"))
            .sum()
    });
    if mismatched > 0 {
        pass.tally.ok -= mismatched as u64;
        pass.tally.wrong += mismatched as u64;
        pass.wrong.push(format!(
            "{mismatched} cluster tunes differ from an in-process tune"
        ));
    }
    Ok(pass)
}
