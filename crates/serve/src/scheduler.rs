//! The daemon's view of the work-assisting engine: many clients, one
//! cache, bounded admission.
//!
//! The claim/worker machinery used to live here as a fixed-batch
//! round-robin scheduler; it is now
//! [`chain_nn_dse::engine`], shared with the
//! standalone sweep executor and (through it) the tuner. This module
//! binds that engine to the daemon's shared [`PointCache`] and keeps
//! the serving-side API: every admitted request is a job with its own
//! atomic claim cursor, and the worker pool self-distributes onto
//! whichever job has unclaimed points — under the default
//! [`ClaimPolicy::Adaptive`] a one-point `eval` behind a 10⁶-point
//! sweep is claimed within a few points of model evaluation, while a
//! lone sweep still gets [`BATCH_SIZE`]-sized claims.
//!
//! Backpressure is at admission: at most `capacity` jobs may be active;
//! [`Scheduler::submit`] refuses further work with [`SubmitError::Busy`]
//! (the protocol's `busy` response) instead of queueing unboundedly.
//!
//! Iterative requests (the tuner) hold **one** admission slot across
//! many rounds: [`Scheduler::admit`] reserves the slot as an RAII
//! [`AdmissionSlot`], and [`Scheduler::submit_in`] enqueues each
//! round's point list against it without re-checking capacity — so a
//! 5-round tune counts as one job at admission while its rounds still
//! interleave claim-by-claim with everyone else's sweeps.
//!
//! Every evaluation goes through `executor::evaluate_cached_tracked`
//! against the one shared [`PointCache`], so concurrent clients
//! sweeping overlapping grids pay for each distinct point once,
//! whichever connection got there first.

use std::sync::Arc;

use chain_nn_dse::engine::Engine;
use chain_nn_dse::{DesignPoint, PointCache};
use chain_nn_obs::Registry;

pub use chain_nn_dse::engine::{
    AdmissionSlot, ClaimPolicy, JobHandle, JobResult, SubmitError, TraceRef, CONTENDED_CLAIM,
    DEFAULT_MAX_CLAIM,
};

/// Upper bound on points claimed per scheduling turn (the engine's
/// [`DEFAULT_MAX_CLAIM`]). Under the default adaptive policy this is
/// the claim size only while a single sweep owns the queue; with other
/// jobs waiting, claims shrink to [`CONTENDED_CLAIM`] points.
pub const BATCH_SIZE: usize = DEFAULT_MAX_CLAIM;

/// The daemon's scheduler: the work-assisting [`Engine`] bound to the
/// shared point cache. Construct once, hand clones of the `Arc` to the
/// worker pool and every connection handler.
pub struct Scheduler {
    engine: Engine,
    cache: Arc<PointCache>,
}

impl Scheduler {
    /// A scheduler over `cache` admitting at most `capacity` concurrent
    /// jobs, claiming adaptively up to `max_claim` points per turn.
    /// Claim metrics land in a private throwaway registry; the daemon
    /// uses [`Scheduler::with_registry`] to surface them.
    #[must_use]
    pub fn new(cache: Arc<PointCache>, capacity: usize, max_claim: usize) -> Self {
        Scheduler::with_registry(cache, capacity, max_claim, &Registry::new())
    }

    /// [`Scheduler::new`], registering the claim metrics
    /// (`sched_batch_eval_ns`, `sched_claim_points`,
    /// `sched_batches_total`, `sched_points_total`) in `registry`.
    #[must_use]
    pub fn with_registry(
        cache: Arc<PointCache>,
        capacity: usize,
        max_claim: usize,
        registry: &Registry,
    ) -> Self {
        Scheduler::with_policy(
            cache,
            capacity,
            ClaimPolicy::Adaptive {
                max: max_claim.max(1),
            },
            registry,
        )
    }

    /// [`Scheduler::with_registry`] with an explicit claim policy —
    /// [`ClaimPolicy::Fixed`] restores the pre-engine fixed-batch
    /// behavior (the comparison baseline of the mixed-traffic bench).
    #[must_use]
    pub fn with_policy(
        cache: Arc<PointCache>,
        capacity: usize,
        policy: ClaimPolicy,
        registry: &Registry,
    ) -> Self {
        Scheduler {
            engine: Engine::with_registry(capacity, policy, registry),
            cache,
        }
    }

    /// The shared cache (for stats and frontier queries).
    #[must_use]
    pub fn cache(&self) -> &PointCache {
        &self.cache
    }

    /// The admission bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.engine.capacity()
    }

    /// Jobs admitted and not yet finished.
    #[must_use]
    pub fn active_jobs(&self) -> usize {
        self.engine.active_jobs()
    }

    /// Remaining **points** across admitted unfinished jobs (claimed
    /// or not; delivered points no longer count). This changed with
    /// the work-assisting engine — it used to count whole queued jobs
    /// — so a nearly-done sweep reports its actual leftover work, not
    /// full depth (`docs/PROTOCOL.md` records the semantics change).
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.engine.queue_depth()
    }

    /// Points delivered over the scheduler's lifetime; reconciles with
    /// `sched_points_total`.
    #[must_use]
    pub fn completed_points(&self) -> u64 {
        self.engine.completed_points()
    }

    /// Admits `points` as one job.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Busy`] at the admission bound;
    /// [`SubmitError::ShuttingDown`] once shutdown began.
    pub fn submit(&self, points: Vec<DesignPoint>) -> Result<JobHandle, SubmitError> {
        self.engine.submit(points)
    }

    /// [`Scheduler::submit`], tagging the job so every range a worker
    /// claims from it records a `batch` span under `trace`.
    ///
    /// # Errors
    ///
    /// Exactly [`Scheduler::submit`]'s.
    pub fn submit_traced(
        &self,
        points: Vec<DesignPoint>,
        trace: Option<TraceRef>,
    ) -> Result<JobHandle, SubmitError> {
        self.engine.submit_traced(points, trace)
    }

    /// Reserves one admission slot without submitting work yet (see
    /// [`chain_nn_dse::engine::Engine::admit`]).
    ///
    /// # Errors
    ///
    /// [`SubmitError::Busy`] at the admission bound;
    /// [`SubmitError::ShuttingDown`] once shutdown began.
    pub fn admit(&self) -> Result<AdmissionSlot<'_>, SubmitError> {
        self.engine.admit()
    }

    /// Enqueues `points` as one job inside an already-held admission
    /// slot: no capacity check (the slot is the capacity).
    ///
    /// # Errors
    ///
    /// [`SubmitError::ShuttingDown`] once shutdown began.
    pub fn submit_in(
        &self,
        slot: &AdmissionSlot<'_>,
        points: Vec<DesignPoint>,
    ) -> Result<JobHandle, SubmitError> {
        self.engine.submit_in(slot, points)
    }

    /// [`Scheduler::submit_in`], tagging the round's job so its batch
    /// spans land under `trace` (the tune request's root span).
    ///
    /// # Errors
    ///
    /// Exactly [`Scheduler::submit_in`]'s.
    pub fn submit_in_traced(
        &self,
        slot: &AdmissionSlot<'_>,
        points: Vec<DesignPoint>,
        trace: Option<TraceRef>,
    ) -> Result<JobHandle, SubmitError> {
        self.engine.submit_in_traced(slot, points, trace)
    }

    /// Stops admission and wakes every idle worker so the pool can
    /// drain admitted jobs — including the unclaimed remainder of
    /// partially-claimed ones — and exit.
    pub fn begin_shutdown(&self) {
        self.engine.begin_shutdown();
    }

    /// One worker: claim → evaluate → deliver, until shutdown drains
    /// the queue. Run this on `threads` std threads.
    /// ([`Scheduler::worker_loop_indexed`] additionally tags batch
    /// spans with the worker's pool index; this entry point is worker
    /// 0, for tests and single-threaded embedding.)
    pub fn worker_loop(&self) {
        self.engine.worker_loop(&self.cache);
    }

    /// [`Scheduler::worker_loop`] with an explicit pool index: claims
    /// of traced jobs record a `batch` span tagged with `worker`, so a
    /// sweep's trace renders as a per-thread timeline.
    pub fn worker_loop_indexed(&self, worker: u32) {
        self.engine.worker_loop_indexed(worker, &self.cache);
    }

    /// Executes at most one pending claim on the calling thread,
    /// returning whether there was one. Never blocks.
    pub fn run_one_claim(&self) -> bool {
        self.engine.run_one_claim(&self.cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chain_nn_dse::{executor, SweepSpec};
    use chain_nn_obs::Registry;
    use std::sync::Arc;
    use std::time::Duration;

    fn grid(pes: Vec<usize>) -> Vec<DesignPoint> {
        SweepSpec {
            pes,
            freqs_mhz: vec![350.0, 700.0],
            nets: vec!["lenet".into()],
            ..SweepSpec::paper_point()
        }
        .points()
    }

    fn with_workers<R>(sched: &Arc<Scheduler>, n: usize, body: impl FnOnce() -> R) -> R {
        // Shuts the scheduler down however `body` ends: after a failed
        // assertion too, or the workers would wait for work forever and
        // the scope would never join.
        struct Shutdown<'a>(&'a Scheduler);
        impl Drop for Shutdown<'_> {
            fn drop(&mut self) {
                self.0.begin_shutdown();
            }
        }
        std::thread::scope(|scope| {
            for w in 0..n {
                let s = Arc::clone(sched);
                scope.spawn(move || s.worker_loop_indexed(w as u32));
            }
            let _shutdown = Shutdown(sched);
            body()
        })
    }

    #[test]
    fn results_come_back_in_point_order() {
        let sched = Arc::new(Scheduler::new(Arc::new(PointCache::new()), 4, 2));
        let points = grid(vec![25, 50, 100]);
        let job = with_workers(&sched, 3, || {
            sched.submit(points.clone()).unwrap().wait().unwrap()
        });
        assert_eq!(job.outcomes.len(), points.len());
        assert_eq!(job.cache_misses, points.len() as u64);
        assert_eq!(job.cache_hits, 0);
        // Same as the reference executor.
        let reference = executor::run(&points, 1, &PointCache::new()).unwrap();
        assert_eq!(job.outcomes, reference);
    }

    #[test]
    fn concurrent_jobs_share_the_cache() {
        let cache = Arc::new(PointCache::new());
        let sched = Arc::new(Scheduler::new(Arc::clone(&cache), 4, 4));
        let a = grid(vec![25, 50, 100]);
        let b = grid(vec![50, 100, 200]); // overlaps on 50 and 100
        with_workers(&sched, 2, || {
            std::thread::scope(|scope| {
                let sa = Arc::clone(&sched);
                let pa = a.clone();
                let ha = scope.spawn(move || sa.submit(pa).unwrap().wait().unwrap());
                let sb = Arc::clone(&sched);
                let pb = b.clone();
                let hb = scope.spawn(move || sb.submit(pb).unwrap().wait().unwrap());
                ha.join().unwrap();
                hb.join().unwrap();
            });
        });
        let stats = cache.stats();
        // 8 distinct points across both grids; 12 total lookups. The
        // overlap may race (both clients miss the same point before
        // either inserts), so distinct misses is a lower bound — but
        // combined misses must beat two standalone runs (6 + 6).
        assert!(stats.misses >= 8);
        assert!(
            stats.misses < 12,
            "overlapping clients must share: {stats:?}"
        );
        assert_eq!(stats.hits + stats.misses, 12);
    }

    #[test]
    fn admission_bound_returns_busy() {
        // No workers: submitted jobs just sit there.
        let sched = Scheduler::new(Arc::new(PointCache::new()), 2, 8);
        let p = grid(vec![25]);
        let _a = sched.submit(p.clone()).unwrap();
        let _b = sched.submit(p.clone()).unwrap();
        match sched.submit(p.clone()) {
            Err(SubmitError::Busy { active, capacity }) => {
                assert_eq!((active, capacity), (2, 2));
            }
            other => panic!("expected busy, got {other:?}"),
        }
        assert_eq!(sched.active_jobs(), 2);
        // Depth is in points now: two untouched 2-point jobs.
        assert_eq!(sched.queue_depth(), 4);
    }

    #[test]
    fn big_job_does_not_starve_small_one() {
        // One worker: with work-assisting claims the small job is
        // picked up within one rotation turn even though a big job was
        // admitted first. (Timing-free check: both complete.)
        let sched = Arc::new(Scheduler::new(Arc::new(PointCache::new()), 4, 1));
        let big = grid((1..=40).map(|i| i * 25).collect());
        let small = grid(vec![25]);
        with_workers(&sched, 1, || {
            let hb = sched.submit(big.clone()).unwrap();
            let hs = sched.submit(small.clone()).unwrap();
            let small_out = hs.wait().unwrap();
            assert_eq!(small_out.outcomes.len(), small.len());
            let big_out = hb.wait().unwrap();
            assert_eq!(big_out.outcomes.len(), big.len());
        });
    }

    #[test]
    fn spec_error_fails_the_job_not_the_scheduler() {
        let sched = Arc::new(Scheduler::new(Arc::new(PointCache::new()), 4, 2));
        let mut bad = grid(vec![25, 50]);
        bad[3].net = "notanet".into();
        let good = grid(vec![100]);
        with_workers(&sched, 2, || {
            assert!(sched.submit(bad.clone()).unwrap().wait().is_err());
            // The scheduler survives and serves the next job.
            let out = sched.submit(good.clone()).unwrap().wait().unwrap();
            assert_eq!(out.outcomes.len(), good.len());
        });
        assert_eq!(sched.active_jobs(), 0);
    }

    #[test]
    fn shutdown_drains_admitted_work_then_refuses() {
        let sched = Arc::new(Scheduler::new(Arc::new(PointCache::new()), 4, 2));
        let points = grid(vec![25, 50, 100]);
        std::thread::scope(|scope| {
            let s = Arc::clone(&sched);
            scope.spawn(move || s.worker_loop());
            let handle = sched.submit(points.clone()).unwrap();
            sched.begin_shutdown();
            // Already-admitted work completes...
            assert_eq!(handle.wait().unwrap().outcomes.len(), points.len());
            // ...new work does not get in.
            assert_eq!(
                sched.submit(points.clone()).unwrap_err(),
                SubmitError::ShuttingDown
            );
        });
    }

    #[test]
    fn shutdown_drains_a_job_claimed_mid_way() {
        // The drain-mid-claim regression: part of a job is already
        // claimed and delivered when shutdown begins, with no worker
        // pool running. Workers joining afterwards must finish the
        // unclaimed remainder — no deadlock, no dropped points.
        let sched = Arc::new(Scheduler::with_policy(
            Arc::new(PointCache::new()),
            4,
            ClaimPolicy::Fixed(8),
            &Registry::new(),
        ));
        let points = grid((1..=20).map(|i| i * 25).collect());
        let handle = sched.submit(points.clone()).unwrap();
        assert!(sched.run_one_claim()); // 8 of 40 delivered
        assert_eq!(sched.queue_depth(), points.len() - 8);
        sched.begin_shutdown();
        std::thread::scope(|scope| {
            for w in 0..2 {
                let s = Arc::clone(&sched);
                scope.spawn(move || s.worker_loop_indexed(w));
            }
        });
        let job = handle.wait().unwrap();
        assert_eq!(job.outcomes.len(), points.len());
        assert_eq!(sched.queue_depth(), 0);
        assert_eq!(sched.active_jobs(), 0);
    }

    #[test]
    fn queue_depth_reports_remaining_points_not_jobs() {
        // The depth-semantics regression: a nearly-done job must not
        // report full depth. No workers; claims are stepped by hand.
        let sched = Scheduler::with_policy(
            Arc::new(PointCache::new()),
            4,
            ClaimPolicy::Fixed(8),
            &Registry::new(),
        );
        let points = grid((1..=16).map(|i| i * 25).collect()); // 32 points
        let handle = sched.submit(points).unwrap();
        assert_eq!(sched.queue_depth(), 32);
        assert!(sched.run_one_claim());
        assert_eq!(sched.queue_depth(), 24, "delivered points leave the depth");
        while sched.run_one_claim() {}
        assert_eq!(sched.queue_depth(), 0);
        handle.wait().unwrap();
    }

    #[test]
    fn admission_slot_spans_rounds_and_counts_once() {
        let sched = Arc::new(Scheduler::new(Arc::new(PointCache::new()), 2, 2));
        with_workers(&sched, 2, || {
            let slot = sched.admit().unwrap();
            assert_eq!(sched.active_jobs(), 1);
            // Several rounds under the one slot: active never grows.
            for pes in [25, 50, 100] {
                let out = sched
                    .submit_in(&slot, grid(vec![pes]))
                    .unwrap()
                    .wait()
                    .unwrap();
                assert_eq!(out.outcomes.len(), 2);
                assert_eq!(sched.active_jobs(), 1);
            }
            // A plain submit still fits beside the slot; a second slot
            // at capacity does not.
            let h = sched.submit(grid(vec![200])).unwrap();
            h.wait().unwrap();
            let second = sched.admit().unwrap();
            assert!(matches!(sched.admit(), Err(SubmitError::Busy { .. })));
            drop(second);
            drop(slot);
        });
        assert_eq!(sched.active_jobs(), 0);
    }

    #[test]
    fn slot_rounds_refuse_after_shutdown() {
        let sched = Arc::new(Scheduler::new(Arc::new(PointCache::new()), 2, 2));
        let slot = sched.admit().unwrap();
        sched.begin_shutdown();
        assert_eq!(
            sched.submit_in(&slot, grid(vec![25])).unwrap_err(),
            SubmitError::ShuttingDown
        );
        drop(slot);
        assert_eq!(sched.active_jobs(), 0);
    }

    #[test]
    fn empty_round_in_slot_completes_immediately() {
        let sched = Scheduler::new(Arc::new(PointCache::new()), 2, 2);
        let slot = sched.admit().unwrap();
        let out = sched.submit_in(&slot, Vec::new()).unwrap().wait().unwrap();
        assert!(out.outcomes.is_empty());
        drop(slot);
    }

    #[test]
    fn job_timing_separates_queue_wait_from_execute() {
        let sched = Arc::new(Scheduler::new(Arc::new(PointCache::new()), 4, 2));
        let points = grid(vec![25, 50, 100]);
        let (job, empty) = with_workers(&sched, 1, || {
            let job = sched.submit(points.clone()).unwrap().wait().unwrap();
            // An empty job is never claimed: both stages are zero.
            let empty = sched.submit(Vec::new()).unwrap().wait().unwrap();
            (job, empty)
        });
        // The job was actually claimed and evaluated, so execution took
        // measurable time; both stages are reported independently.
        assert!(job.execute > Duration::ZERO);
        assert!(job.queue_wait + job.execute > Duration::ZERO);
        assert_eq!(empty.queue_wait, Duration::ZERO);
        assert_eq!(empty.execute, Duration::ZERO);
    }

    #[test]
    fn scheduler_registers_batch_metrics() {
        let registry = Registry::new();
        let sched = Arc::new(Scheduler::with_policy(
            Arc::new(PointCache::new()),
            4,
            ClaimPolicy::Fixed(2),
            &registry,
        ));
        let points = grid(vec![25, 50, 100]);
        with_workers(&sched, 2, || {
            sched.submit(points.clone()).unwrap().wait().unwrap()
        });
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("sched_points_total", &[]),
            Some(points.len() as u64)
        );
        // 6 points at fixed claim size 2 is 3 claims (any worker split).
        assert_eq!(snap.counter("sched_batches_total", &[]), Some(3));
        let h = snap.histogram("sched_batch_eval_ns", &[]).unwrap();
        assert_eq!(h.count, 3);
        assert!(h.sum > 0);
        // The claim-size histogram mirrors the split: 3 claims of 2.
        let claims = snap.histogram("sched_claim_points", &[]).unwrap();
        assert_eq!((claims.count, claims.sum), (3, 6));
    }

    #[test]
    fn empty_job_completes_immediately() {
        let sched = Scheduler::new(Arc::new(PointCache::new()), 4, 2);
        // No workers exist; an empty job must not wait on them.
        let out = sched.submit(Vec::new()).unwrap().wait().unwrap();
        assert!(out.outcomes.is_empty());
        assert_eq!(sched.active_jobs(), 0);
    }
}
