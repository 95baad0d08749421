//! The one-shot sweep entry point over the work-assisting engine.
//!
//! A sweep is an embarrassingly parallel bag of independent point
//! evaluations. [`run`] submits the whole point list as a single job
//! to a private [`engine::Engine`](crate::engine::Engine) in drain
//! mode and lends it N scoped `std::thread`s: workers claim index
//! ranges off the job's atomic cursor (large claims while plenty
//! remains, shrinking near the tail so the pool finishes together)
//! and keep `(index, outcome)` pairs locally; the merged results are
//! sorted by index, so output order — and therefore every exported
//! artifact — is byte-identical regardless of thread count or
//! scheduling.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use crate::cache::PointCache;
use crate::engine::{ClaimPolicy, Engine, TraceRef};
use crate::eval::{evaluate, PointOutcome};
use crate::spec::DesignPoint;
use crate::DseError;

/// A sensible worker count for this host (`available_parallelism`,
/// falling back to 1 when the host will not say).
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Evaluates every point, `threads` at a time, memoizing through
/// `cache`. Returns outcomes in point order.
///
/// # Errors
///
/// Returns the first spec-level error encountered (unknown network,
/// invalid chain parameters); model-level infeasibility is data, not an
/// error.
///
/// # Example
///
/// ```
/// use chain_nn_dse::{executor, DesignPoint, PointCache};
///
/// let points: Vec<DesignPoint> = [25usize, 50]
///     .iter()
///     .map(|&pes| DesignPoint {
///         net: "lenet".into(),
///         pes,
///         ..DesignPoint::paper_alexnet()
///     })
///     .collect();
/// let cache = PointCache::new();
/// let outcomes = executor::run(&points, 2, &cache).unwrap();
/// assert_eq!(outcomes.len(), 2); // grid order, any thread count
/// assert_eq!(cache.stats().misses, 2);
/// // The same batch again is answered entirely from the cache.
/// assert_eq!(executor::run(&points, 2, &cache).unwrap(), outcomes);
/// assert_eq!(cache.stats().hits, 2);
/// ```
pub fn run(
    points: &[DesignPoint],
    threads: usize,
    cache: &PointCache,
) -> Result<Vec<PointOutcome>, DseError> {
    let threads = threads.max(1).min(points.len().max(1));
    let obs = chain_nn_obs::global();
    // A standalone run owns its own trace: one root span for the whole
    // sweep, one `chunk` child per claim tagged with the worker that
    // executed it, so the run renders as a per-worker timeline.
    // Disabled rings skip even the id allocation.
    let spans = chain_nn_obs::trace::spans();
    let trace = spans.is_enabled().then(|| {
        (
            chain_nn_obs::trace::next_trace_id(),
            chain_nn_obs::trace::next_span_id(),
        )
    });
    let started = Instant::now();

    // One private engine in drain mode: submit the sweep as its only
    // job, shut admission, and lend it the calling thread(s) until the
    // job is fully claimed. Claim metrics land in the global registry
    // under the `dse` prefix (`dse_batch_eval_ns`, `dse_claim_points`,
    // `dse_batches_total`, `dse_points_total`).
    let engine = Engine::new(1, ClaimPolicy::adaptive(), obs, "dse", "chunk");
    let handle = engine
        .submit(
            points.to_vec(),
            None,
            trace.map(|(trace_id, root)| TraceRef {
                trace_id,
                parent_span: root,
            }),
        )
        .expect("a fresh engine admits its first job");
    engine.begin_shutdown();
    if threads == 1 {
        engine.worker_loop(0, cache);
    } else {
        std::thread::scope(|scope| {
            for w in 0..threads {
                let engine = &engine;
                scope.spawn(move || engine.worker_loop(w as u32, cache));
            }
        });
    }
    let job = handle.wait()?;

    let elapsed = started.elapsed();
    if let Some((trace_id, root)) = trace {
        spans.record(&chain_nn_obs::trace::Span {
            trace_id,
            span_id: root,
            parent_id: 0,
            name: "dse_run",
            start: started,
            dur: elapsed,
            worker: None,
            points: points.len().min(u32::MAX as usize) as u32,
        });
    }
    obs.histogram("dse_run_ns").record_duration(elapsed);
    obs.gauge("dse_points_per_sec")
        .set(points.len() as f64 / elapsed.as_secs_f64().max(1e-12));
    obs.gauge("dse_cache_hit_rate")
        .set(cache.stats().hit_rate());
    Ok(job.outcomes)
}

/// Measures raw evaluation throughput (points evaluated per second):
/// performs `evals` uncached evaluations cycling through `points`,
/// spawning each worker exactly once so thread start-up cost is
/// amortized away. This is the honest way to compare thread counts —
/// a single sweep of a few hundred closed-form model points finishes
/// in well under a millisecond, which is below the cost of spawning
/// the workers themselves.
///
/// # Errors
///
/// Returns [`DseError::Spec`] for an empty point list or any
/// spec-level evaluation error.
pub fn throughput(points: &[DesignPoint], threads: usize, evals: usize) -> Result<f64, DseError> {
    if points.is_empty() {
        return Err(DseError::Spec("cannot measure an empty point list".into()));
    }
    let threads = threads.max(1);
    let cursor = AtomicUsize::new(0);
    let worker = || -> Result<(), DseError> {
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= evals {
                return Ok(());
            }
            std::hint::black_box(evaluate(&points[i % points.len()])?);
        }
    };
    let start = Instant::now();
    if threads == 1 {
        worker()?;
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
            let mut first_err = None;
            for handle in handles {
                if let Err(e) = handle.join().expect("worker thread panicked") {
                    first_err = first_err.or(Some(e));
                }
            }
            match first_err {
                Some(e) => Err(e),
                None => Ok(()),
            }
        })?;
    }
    Ok(evals as f64 / start.elapsed().as_secs_f64().max(1e-12))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepSpec;

    fn small_grid() -> Vec<DesignPoint> {
        SweepSpec {
            pes: vec![144, 288, 576],
            freqs_mhz: vec![350.0, 700.0],
            nets: vec!["lenet".into()],
            ..SweepSpec::paper_point()
        }
        .points()
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let points = small_grid();
        let serial = run(&points, 1, &PointCache::new()).unwrap();
        let parallel = run(&points, 4, &PointCache::new()).unwrap();
        let oversubscribed = run(&points, 64, &PointCache::new()).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(serial, oversubscribed);
        assert_eq!(serial.len(), points.len());
    }

    #[test]
    fn cache_makes_second_run_all_hits() {
        let points = small_grid();
        let cache = PointCache::new();
        let first = run(&points, 2, &cache).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.misses, points.len() as u64);
        assert_eq!(stats.hits, 0);
        let second = run(&points, 2, &cache).unwrap();
        assert_eq!(first, second);
        let stats = cache.stats();
        assert_eq!(stats.hits, points.len() as u64);
        assert_eq!(stats.misses, points.len() as u64);
    }

    #[test]
    fn overlapping_sweep_is_incremental() {
        let cache = PointCache::new();
        let base = small_grid();
        run(&base, 2, &cache).unwrap();
        // A wider sweep sharing the three original PE counts.
        let wider = SweepSpec {
            pes: vec![144, 288, 576, 1152],
            freqs_mhz: vec![350.0, 700.0],
            nets: vec!["lenet".into()],
            ..SweepSpec::paper_point()
        }
        .points();
        run(&wider, 2, &cache).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.hits, base.len() as u64, "shared points must hit");
        assert_eq!(
            stats.misses,
            wider.len() as u64 + base.len() as u64 - stats.hits
        );
    }

    #[test]
    fn throughput_probe_measures_and_validates() {
        let points = small_grid();
        let rate = throughput(&points, 2, 50).unwrap();
        assert!(rate > 0.0);
        assert!(throughput(&[], 2, 50).is_err());
        let mut bad = small_grid();
        bad[0].net = "notanet".into();
        assert!(throughput(&bad, 2, 50).is_err());
    }

    #[test]
    fn spec_error_propagates() {
        let mut points = small_grid();
        points[1].net = "notanet".into();
        assert!(run(&points, 2, &PointCache::new()).is_err());
    }

    #[test]
    fn a_sweep_records_dse_metrics_and_a_chunk_timeline() {
        // 11 PE counts x 2 clocks: a point count no other test here
        // sweeps, so this run's root is the one `dse_run` span with it.
        let points = SweepSpec {
            pes: (1..=11).map(|i| i * 48).collect(),
            freqs_mhz: vec![350.0, 700.0],
            nets: vec!["lenet".into()],
            ..SweepSpec::paper_point()
        }
        .points();
        let n = points.len() as u64;
        let obs = chain_nn_obs::global();
        let before = obs.snapshot();
        run(&points, 2, &PointCache::new()).unwrap();
        let after = obs.snapshot();

        // Other tests sweep through the same global registry at the
        // same time, so the deltas are lower bounds.
        let counter = |s: &chain_nn_obs::Snapshot, name| s.counter(name, &[]).unwrap_or(0);
        let claims = |s: &chain_nn_obs::Snapshot| {
            s.histogram("dse_claim_points", &[])
                .map_or((0, 0), |h| (h.count, h.sum))
        };
        assert!(counter(&after, "dse_points_total") - counter(&before, "dse_points_total") >= n);
        assert!(counter(&after, "dse_batches_total") > counter(&before, "dse_batches_total"));
        let ((count_before, sum_before), (count_after, sum_after)) =
            (claims(&before), claims(&after));
        assert!(count_after > count_before);
        assert!(sum_after - sum_before >= n);

        // The run's root span, and one `chunk` child per claim, each on
        // a worker's timeline row, covering every point once.
        let spans = chain_nn_obs::trace::spans().snapshot();
        let root = spans
            .iter()
            .find(|s| s.name == "dse_run" && s.parent_id == 0 && u64::from(s.points) == n)
            .expect("the sweep's root span");
        let chunks: Vec<_> = spans
            .iter()
            .filter(|s| s.trace_id == root.trace_id && s.parent_id == root.span_id)
            .collect();
        assert!(!chunks.is_empty());
        assert!(chunks
            .iter()
            .all(|s| s.name == "chunk" && s.worker.is_some()));
        assert_eq!(chunks.iter().map(|s| u64::from(s.points)).sum::<u64>(), n);
    }

    #[test]
    fn empty_queue_is_fine() {
        assert_eq!(run(&[], 8, &PointCache::new()).unwrap(), vec![]);
    }
}
