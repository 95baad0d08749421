//! The work-assisting execution engine every executor in the workspace
//! runs on.
//!
//! Before this module the repo had three near-identical worker loops:
//! the sweep executor's atomic-cursor drain, the serving daemon's
//! fixed-batch round-robin scheduler, and (through the first) the
//! tuner's round evaluator. This engine unifies them behind one claim
//! protocol, borrowed from the work-assisting loops of the parallel
//! scan literature: each admitted job carries its own atomic progress
//! state — a **claim cursor** (`fetch_add` hands a worker an exclusive
//! index range) and a **completed counter** (delivered points, the
//! job's published progress) — so any idle worker self-distributes
//! onto whichever job still has unclaimed work instead of waiting for
//! a rotation turn or a job of its own.
//!
//! Claim sizes adapt to what the queue looks like
//! ([`ClaimPolicy::Adaptive`]): when several jobs are open the engine
//! claims 1–4 points at a time so an interactive one-point eval behind
//! a huge sweep waits microseconds, not a 32-point batch; when a
//! single sweep owns the queue it claims large ranges (up to the
//! policy's `max`) to amortize locking, shrinking again near the tail
//! (`remaining / 2·workers`) so the last stretch of a big job is
//! finished by the whole pool rather than one straggler.
//!
//! Determinism is structural: workers keep `(index, outcome)` pairs
//! and [`JobHandle::wait`] sorts by index, so results are
//! byte-identical at any thread count and under any claim policy.
//!
//! Admission, fairness and accounting carry over from the daemon
//! scheduler this module absorbed: bounded admission with an explicit
//! busy error ([`SubmitError::Busy`]), RAII slots for multi-round
//! requests ([`Engine::admit`]), per-job cache hit/miss counters
//! (global cache deltas would cross-contaminate concurrent clients),
//! queue-wait/execute timing per job, and per-claim trace spans tagged
//! with the executing worker ([`TraceRef`]). [`Engine::queue_depth`]
//! reports remaining **points** across admitted jobs — under adaptive
//! claims a nearly-done sweep is nearly-zero depth, not "one job".
//!
//! Two embeddings call the engine directly: the serving daemon's local
//! backend (metric prefix `sched`, `batch` spans) and
//! [`executor::run`](crate::executor::run) (prefix `dse`, `chunk` spans).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use chain_nn_obs::{Counter, Histogram, Registry};

use crate::cache::PointCache;
use crate::eval::{evaluate, PointOutcome};
use crate::spec::DesignPoint;
use crate::DseError;

/// Default upper bound on one claim. Large enough that the engine lock
/// is cold next to the evaluations themselves; small enough that a
/// sweep's tail still spreads across the pool.
pub const DEFAULT_MAX_CLAIM: usize = 32;

/// Claim size while more than one job has unclaimed work: small, so
/// interactive evals interleave within a few points of model
/// evaluation rather than behind a full batch.
pub const CONTENDED_CLAIM: usize = 4;

/// How long claims stay contended-sized after the queue was last seen
/// with more than one open job. A serial client pumping one-point
/// evals leaves microsecond gaps between jobs; without hysteresis a
/// worker claiming inside such a gap would take a full `max`-sized
/// range and the *next* eval would wait behind all of it. The window
/// is far longer than a client round trip and far shorter than any
/// sweep, so a lone sweep reclaims full-size batches 10 ms after the
/// interactive traffic stops.
pub const CONTENTION_HYSTERESIS: Duration = Duration::from_millis(10);

/// How many points one cursor bump claims.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClaimPolicy {
    /// Always claim up to `n` points — the pre-engine fixed-batch
    /// behavior, kept as the reference the mixed-traffic tail-latency
    /// test compares against.
    Fixed(usize),
    /// Adapt to queue shape: [`CONTENDED_CLAIM`] while several jobs
    /// are open, up to `max` when one job owns the queue, shrinking
    /// near the tail so idle workers assist the finish.
    Adaptive {
        /// Upper bound on one claim.
        max: usize,
    },
}

impl ClaimPolicy {
    /// The default policy: adaptive with [`DEFAULT_MAX_CLAIM`].
    #[must_use]
    pub fn adaptive() -> ClaimPolicy {
        ClaimPolicy::Adaptive {
            max: DEFAULT_MAX_CLAIM,
        }
    }

    /// Points to claim given whether the queue is `contended` (more
    /// than one open job now, or within the hysteresis window), the
    /// chosen job's `remaining` unclaimed points, and the live
    /// `workers` count. Always at least 1.
    fn size(self, contended: bool, remaining: usize, workers: usize) -> usize {
        let cap = match self {
            ClaimPolicy::Fixed(n) => n,
            ClaimPolicy::Adaptive { max } => {
                if contended {
                    CONTENDED_CLAIM.min(max.max(1))
                } else {
                    // One job owns the queue: claim big to amortize the
                    // lock, but never more than a worker's fair share
                    // of what is left — the tail belongs to everyone.
                    (remaining / (2 * workers.max(1))).clamp(1, max.max(1))
                }
            }
        };
        cap.max(1)
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission bound is reached; retry later.
    Busy {
        /// Jobs currently admitted.
        active: usize,
        /// The admission bound.
        capacity: usize,
    },
    /// The engine is draining for shutdown and admits nothing new.
    ShuttingDown,
}

/// Which trace a job's claim spans belong to: the owning trace id and
/// the request's root span the claims hang under. Carried on the job
/// so the worker that executes a claim — not the submitting thread —
/// records the span, with its own worker index as the timeline row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRef {
    /// Owning trace (see [`chain_nn_obs::trace`]).
    pub trace_id: u64,
    /// The request's root span id; claim spans parent onto it.
    pub parent_span: u64,
}

/// The engine's registered metric handles (registration happens at
/// construction; recording is lock-free).
struct Metrics {
    /// Wall time per claimed range evaluation (`{prefix}_batch_eval_ns`).
    batch_eval_ns: Arc<Histogram>,
    /// Points per claim (`{prefix}_claim_points`) — the observable
    /// proof of the adaptive policy: contended traffic shows 1–4-point
    /// claims, a lone sweep shows `max`-sized ones.
    claim_points: Arc<Histogram>,
    /// Claims executed (`{prefix}_batches_total`).
    batches: Arc<Counter>,
    /// Points evaluated through the engine (`{prefix}_points_total`).
    points: Arc<Counter>,
}

/// One admitted job: an immutable point list plus the atomic progress
/// pair of the work-assisting protocol. `cursor` is the claim edge
/// (workers `fetch_add` exclusive ranges off it, no lock needed for
/// the bump itself); `completed` is the delivery edge (points whose
/// outcomes reached the completion state), which is what
/// [`Engine::queue_depth`] reports as remaining work.
struct JobCore {
    points: Arc<Vec<DesignPoint>>,
    cursor: AtomicUsize,
    completed: AtomicUsize,
    done: Arc<Completion>,
    trace: Option<TraceRef>,
}

impl JobCore {
    fn total(&self) -> usize {
        self.points.len()
    }

    fn fully_claimed(&self) -> bool {
        self.cursor.load(Ordering::Relaxed) >= self.total()
    }

    /// Points not yet delivered (claimed-but-evaluating still counts:
    /// the work exists even if no longer claimable).
    fn remaining(&self) -> usize {
        self.total()
            .saturating_sub(self.completed.load(Ordering::Relaxed))
    }
}

/// Completion state shared between the workers and the waiting
/// submitter.
#[derive(Debug)]
struct Completion {
    state: Mutex<CompletionState>,
    cv: Condvar,
    /// Whether completing this job releases an admission slot: true
    /// unless it runs inside a held [`AdmissionSlot`], which releases
    /// on drop instead.
    owns_slot: bool,
    /// When the job entered the queue.
    submitted: Instant,
    /// When a worker first claimed a range of it. A `OnceLock` rather
    /// than a field under either lock: `claim()` holds the engine lock
    /// and the waiter reads under the completion lock, and this way
    /// neither has to take the other.
    first_claimed: OnceLock<Instant>,
    /// When the last claim was delivered (set under the completion
    /// lock, before the waiter is notified).
    finished_at: OnceLock<Instant>,
}

#[derive(Debug)]
struct CompletionState {
    results: Vec<(usize, PointOutcome)>,
    finished: usize,
    total: usize,
    /// Per-job cache traffic (global cache deltas would count the other
    /// clients' concurrent activity too).
    cache_hits: u64,
    cache_misses: u64,
    error: Option<DseError>,
    /// Set exactly once, by the worker that observed completion first;
    /// guards the active-count decrement against racing late claims.
    closed: bool,
}

/// Everything one finished job produced.
#[derive(Debug, Default)]
pub struct JobResult {
    /// Outcomes in the submitted point order.
    pub outcomes: Vec<PointOutcome>,
    /// Lookups this job answered from the shared cache.
    pub cache_hits: u64,
    /// Fresh evaluations this job paid for.
    pub cache_misses: u64,
    /// Submission → first claim: time spent queued behind other jobs
    /// (zero for empty jobs, which are never claimed).
    pub queue_wait: Duration,
    /// First claim → last delivery: time spent actually evaluating
    /// (including gaps while workers served other jobs' claims).
    pub execute: Duration,
}

/// Handle the submitter blocks on.
#[derive(Debug)]
pub struct JobHandle {
    done: Arc<Completion>,
}

impl JobHandle {
    /// Blocks until every point of the job is evaluated (or the job
    /// failed), returning outcomes in the submitted point order.
    ///
    /// # Errors
    ///
    /// The first spec-level evaluation error the workers hit, or the
    /// shutdown notice if the engine was torn down mid-job.
    pub fn wait(self) -> Result<JobResult, DseError> {
        let mut state = self.done.state.lock().expect("completion lock poisoned");
        while state.error.is_none() && state.finished < state.total {
            state = self.done.cv.wait(state).expect("completion lock poisoned");
        }
        if let Some(e) = state.error.take() {
            return Err(e);
        }
        let mut results = std::mem::take(&mut state.results);
        results.sort_by_key(|(i, _)| *i);
        let end = self
            .done
            .finished_at
            .get()
            .copied()
            .unwrap_or_else(Instant::now);
        let (queue_wait, execute) = match self.done.first_claimed.get() {
            Some(&first) => (
                first.saturating_duration_since(self.done.submitted),
                end.saturating_duration_since(first),
            ),
            // Never claimed: the empty-job fast path.
            None => (Duration::ZERO, Duration::ZERO),
        };
        Ok(JobResult {
            outcomes: results.into_iter().map(|(_, o)| o).collect(),
            cache_hits: state.cache_hits,
            cache_misses: state.cache_misses,
            queue_wait,
            execute,
        })
    }
}

/// One claimed range: evaluate `job.points[start..end]`, deliver to
/// the job's completion state.
struct Claimed {
    job: Arc<JobCore>,
    start: usize,
    end: usize,
}

struct EngineState {
    jobs: Vec<Arc<JobCore>>,
    /// Round-robin pick position: consecutive claims start from
    /// successive jobs, so no open job waits more than one claim for
    /// its turn even before work-assisting kicks in.
    rotation: usize,
    /// When the queue last had more than one open job; claims within
    /// [`CONTENTION_HYSTERESIS`] of it stay contended-sized.
    last_contended: Option<Instant>,
    shutting_down: bool,
    active: usize,
}

/// The shared engine; construct once, hand references to the worker
/// pool and every submitter.
pub struct Engine {
    state: Mutex<EngineState>,
    work_ready: Condvar,
    capacity: usize,
    policy: ClaimPolicy,
    span_name: &'static str,
    metrics: Metrics,
    /// Workers currently inside [`Engine::worker_loop`] — the divisor
    /// of the adaptive tail-splitting rule.
    workers: AtomicUsize,
}

impl Engine {
    /// An engine admitting at most `capacity` concurrent jobs under
    /// `policy`. Its claim metrics are registered in `registry` under
    /// `prefix` (`{prefix}_batch_eval_ns`, `{prefix}_claim_points`,
    /// `{prefix}_batches_total`, `{prefix}_points_total`), and each
    /// claim of a traced job records a `span_name` span. The daemon
    /// uses `sched` and `batch`, standalone sweeps `dse` and `chunk`:
    /// the names `docs/OBSERVABILITY.md` catalogs.
    #[must_use]
    pub fn new(
        capacity: usize,
        policy: ClaimPolicy,
        registry: &Registry,
        prefix: &str,
        span_name: &'static str,
    ) -> Engine {
        Engine {
            state: Mutex::new(EngineState {
                jobs: Vec::new(),
                rotation: 0,
                last_contended: None,
                shutting_down: false,
                active: 0,
            }),
            work_ready: Condvar::new(),
            capacity: capacity.max(1),
            policy,
            span_name,
            metrics: Metrics {
                batch_eval_ns: registry.histogram(&format!("{prefix}_batch_eval_ns")),
                claim_points: registry.histogram(&format!("{prefix}_claim_points")),
                batches: registry.counter(&format!("{prefix}_batches_total")),
                points: registry.counter(&format!("{prefix}_points_total")),
            },
            workers: AtomicUsize::new(0),
        }
    }

    /// The admission bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Jobs admitted and not yet finished.
    #[must_use]
    pub fn active_jobs(&self) -> usize {
        self.state.lock().expect("engine lock poisoned").active
    }

    /// Remaining **points** across admitted unfinished jobs — claimed
    /// or not, evaluated points no longer count. Under adaptive claims
    /// this is the honest backlog: a 1000-point sweep with 990 points
    /// delivered reports 10, not "one job".
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.state
            .lock()
            .expect("engine lock poisoned")
            .jobs
            .iter()
            .map(|j| j.remaining())
            .sum()
    }

    fn completion(total: usize, owns_slot: bool) -> Arc<Completion> {
        Arc::new(Completion {
            state: Mutex::new(CompletionState {
                results: Vec::with_capacity(total),
                finished: 0,
                total,
                cache_hits: 0,
                cache_misses: 0,
                error: None,
                closed: false,
            }),
            cv: Condvar::new(),
            owns_slot,
            submitted: Instant::now(),
            first_claimed: OnceLock::new(),
            finished_at: OnceLock::new(),
        })
    }

    /// Refuses new work once shutdown began and, for work that takes a
    /// slot of its own, at the admission bound.
    fn check_admission(&self, state: &EngineState, takes_slot: bool) -> Result<(), SubmitError> {
        if state.shutting_down {
            return Err(SubmitError::ShuttingDown);
        }
        if takes_slot && state.active >= self.capacity {
            return Err(SubmitError::Busy {
                active: state.active,
                capacity: self.capacity,
            });
        }
        Ok(())
    }

    /// Enqueues `points` as one job; every range a worker claims from
    /// it records a span under `trace`. Without a `slot` the job is
    /// admission-checked and holds a slot of its own until it
    /// finishes. Inside a held [`AdmissionSlot`] (one round of an
    /// iterative request) it skips the capacity check: the slot is the
    /// capacity. An empty job completes at once, after the same
    /// admission check, so capacity semantics are uniform.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Busy`] at the admission bound, never inside a
    /// slot; [`SubmitError::ShuttingDown`] once shutdown began, inside
    /// a slot too — a held slot does not exempt *new* rounds from the
    /// drain.
    pub fn submit(
        &self,
        points: Vec<DesignPoint>,
        slot: Option<&AdmissionSlot<'_>>,
        trace: Option<TraceRef>,
    ) -> Result<JobHandle, SubmitError> {
        let owns_slot = slot.is_none();
        let done = Engine::completion(points.len(), owns_slot);
        {
            let mut state = self.state.lock().expect("engine lock poisoned");
            self.check_admission(&state, owns_slot)?;
            if !points.is_empty() {
                if owns_slot {
                    state.active += 1;
                }
                state.jobs.push(Arc::new(JobCore {
                    points: Arc::new(points),
                    cursor: AtomicUsize::new(0),
                    completed: AtomicUsize::new(0),
                    done: Arc::clone(&done),
                    trace,
                }));
            }
        }
        self.work_ready.notify_all();
        Ok(JobHandle { done })
    }

    /// Reserves one admission slot without submitting work yet — the
    /// entry point for iterative requests that will run several
    /// [`Engine::submit`] rounds under a single unit of admission.
    /// The slot is released when the returned guard drops.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Busy`] at the admission bound;
    /// [`SubmitError::ShuttingDown`] once shutdown began.
    pub fn admit(&self) -> Result<AdmissionSlot<'_>, SubmitError> {
        let mut state = self.state.lock().expect("engine lock poisoned");
        self.check_admission(&state, true)?;
        state.active += 1;
        Ok(AdmissionSlot { engine: self })
    }

    /// The non-blocking claim core. Every cursor bump happens under
    /// the engine lock (the bump itself is an atomic `fetch_add`, so
    /// the error path may concurrently snap the cursor forward — the
    /// post-bump range check below covers that race).
    fn try_claim_locked(&self, state: &mut EngineState) -> Option<Claimed> {
        let n = state.jobs.len();
        if n == 0 {
            return None;
        }
        let open = state.jobs.iter().filter(|j| !j.fully_claimed()).count();
        if open == 0 {
            return None;
        }
        if open > 1 {
            state.last_contended = Some(Instant::now());
        }
        let contended = open > 1
            || state
                .last_contended
                .is_some_and(|t| t.elapsed() < CONTENTION_HYSTERESIS);
        let workers = self.workers.load(Ordering::Relaxed);
        for _ in 0..n {
            let idx = state.rotation % n;
            state.rotation = state.rotation.wrapping_add(1);
            let job = Arc::clone(&state.jobs[idx]);
            let total = job.total();
            let cursor = job.cursor.load(Ordering::Relaxed);
            if cursor >= total {
                continue;
            }
            let size = self.policy.size(contended, total - cursor, workers);
            let start = job.cursor.fetch_add(size, Ordering::Relaxed);
            if start >= total {
                // Raced with an error poisoning this job; nothing left.
                continue;
            }
            let end = (start + size).min(total);
            // First claim of this job ends its queue wait.
            let _ = job.done.first_claimed.set(Instant::now());
            return Some(Claimed { job, start, end });
        }
        None
    }

    /// Claims the next range. Blocks while idle; returns `None` once
    /// shutdown began *and* all admitted work is claimed — the worker
    /// exit condition. Partially-claimed jobs therefore drain fully:
    /// a worker never exits while any admitted job has an unclaimed
    /// point, and in-flight claims deliver before their workers leave.
    fn claim(&self) -> Option<Claimed> {
        let mut state = self.state.lock().expect("engine lock poisoned");
        loop {
            if let Some(claimed) = self.try_claim_locked(&mut state) {
                return Some(claimed);
            }
            if state.shutting_down && state.jobs.iter().all(|j| j.fully_claimed()) {
                return None;
            }
            state = self.work_ready.wait(state).expect("engine lock poisoned");
        }
    }

    fn finish_job(&self) {
        let mut state = self.state.lock().expect("engine lock poisoned");
        state.active -= 1;
    }

    /// Stops admission and wakes every idle worker so the pool can
    /// drain admitted jobs and exit.
    pub fn begin_shutdown(&self) {
        self.state
            .lock()
            .expect("engine lock poisoned")
            .shutting_down = true;
        self.work_ready.notify_all();
    }

    /// One worker: claim → evaluate through `cache` → deliver, until
    /// shutdown drains the queue. Run this on N std threads, each with
    /// its own pool index `worker`: claims of traced jobs record a span
    /// tagged with it, so a sweep's trace renders as a per-thread
    /// timeline.
    pub fn worker_loop(&self, worker: u32, cache: &PointCache) {
        self.workers.fetch_add(1, Ordering::Relaxed);
        while let Some(claimed) = self.claim() {
            self.execute_claim(claimed, worker, cache);
        }
        self.workers.fetch_sub(1, Ordering::Relaxed);
    }

    fn execute_claim(&self, claimed: Claimed, worker: u32, cache: &PointCache) {
        let Claimed { job, start, end } = claimed;
        let points = &job.points;
        let done = &job.done;
        let claim_started = Instant::now();
        let mut results = Vec::with_capacity(end - start);
        let mut error = None;
        let (mut hits, mut misses) = (0u64, 0u64);
        for i in start..end {
            match evaluate_cached_tracked(&points[i], cache) {
                Ok((outcome, hit)) => {
                    if hit {
                        hits += 1;
                    } else {
                        misses += 1;
                    }
                    results.push((i, outcome));
                }
                Err(e) => {
                    error = Some(e);
                    break;
                }
            }
        }
        self.metrics
            .batch_eval_ns
            .record_duration(claim_started.elapsed());
        self.metrics.claim_points.record((end - start) as u64);
        self.metrics.batches.inc();
        self.metrics.points.add((end - start) as u64);
        if let Some(t) = job.trace {
            chain_nn_obs::trace::spans().record(&chain_nn_obs::trace::Span {
                trace_id: t.trace_id,
                span_id: chain_nn_obs::trace::next_span_id(),
                parent_id: t.parent_span,
                name: self.span_name,
                start: claim_started,
                dur: claim_started.elapsed(),
                worker: Some(worker),
                points: (end - start) as u32,
            });
        }
        if error.is_some() {
            // Poison the claim edge first: no further ranges of this
            // job can be claimed while we deliver the failure.
            job.cursor.store(job.total(), Ordering::Relaxed);
        }
        // Publish progress before notifying the waiter, so queue depth
        // never counts delivered points.
        job.completed.fetch_add(end - start, Ordering::Relaxed);
        // On error the whole remaining range counts as finished so the
        // waiter's completion arithmetic still closes.
        let finished_now = end - start;
        {
            let mut cs = done.state.lock().expect("completion lock poisoned");
            cs.finished += finished_now;
            cs.cache_hits += hits;
            cs.cache_misses += misses;
            cs.results.append(&mut results);
            if let Some(e) = error {
                if cs.error.is_none() {
                    cs.error = Some(e);
                }
                cs.finished = cs.finished.max(cs.total);
            }
            if cs.error.is_some() || cs.finished >= cs.total {
                // Stamp the end of execution before the waiter can
                // observe completion.
                let _ = done.finished_at.set(Instant::now());
            }
            if cs.finished >= cs.total && !cs.closed {
                cs.closed = true;
                // Retire the job before its waiter can observe
                // completion: a submitter whose wait() returned may
                // resubmit at once and must not find this job still
                // holding its slot. Completion → engine is the only
                // order these two locks are ever nested in.
                self.retire_job(done);
            }
            done.cv.notify_all();
        }
    }

    /// Drops a finished/poisoned job from the claim list and releases
    /// the admission slot it owns.
    fn retire_job(&self, done: &Arc<Completion>) {
        let mut state = self.state.lock().expect("engine lock poisoned");
        state.jobs.retain(|job| !Arc::ptr_eq(&job.done, done));
        if done.owns_slot {
            state.active -= 1;
        }
    }
}

/// RAII reservation of one admission slot (see [`Engine::admit`]).
/// Dropping it releases the slot.
pub struct AdmissionSlot<'a> {
    engine: &'a Engine,
}

impl Drop for AdmissionSlot<'_> {
    fn drop(&mut self) {
        self.engine.finish_job();
    }
}

/// Evaluates one point through `cache`: answers from memory when
/// present, otherwise evaluates and memoizes. Also reports whether the
/// answer came from the cache (`true` = hit): a job's hit/miss counts
/// come from these answers, because deltas of the global counters
/// cross-contaminate between concurrent jobs. This is the evaluation
/// step every claim runs.
fn evaluate_cached_tracked(
    point: &DesignPoint,
    cache: &PointCache,
) -> Result<(PointOutcome, bool), DseError> {
    match cache.get(point) {
        Some(hit) => Ok((hit, true)),
        None => {
            let fresh = evaluate(point)?;
            cache.insert(point, fresh.clone());
            Ok((fresh, false))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor;
    use crate::spec::SweepSpec;

    fn grid(pes: Vec<usize>) -> Vec<DesignPoint> {
        SweepSpec {
            pes,
            freqs_mhz: vec![350.0, 700.0],
            nets: vec!["lenet".into()],
            ..SweepSpec::paper_point()
        }
        .points()
    }

    impl Engine {
        /// Executes at most one pending claim on the calling thread, as
        /// worker 0, returning whether there was one. Never blocks — the
        /// deterministic single step the depth and drain tests are built
        /// on.
        fn run_one_claim(&self, cache: &PointCache) -> bool {
            let claimed = {
                let mut state = self.state.lock().expect("engine lock poisoned");
                self.try_claim_locked(&mut state)
            };
            match claimed {
                Some(c) => {
                    self.execute_claim(c, 0, cache);
                    true
                }
                None => false,
            }
        }
    }

    /// An engine under the daemon's names, its metrics in a throwaway
    /// registry.
    fn engine(capacity: usize, policy: ClaimPolicy) -> Engine {
        Engine::new(capacity, policy, &Registry::new(), "sched", "batch")
    }

    fn with_workers<R>(
        engine: &Engine,
        cache: &PointCache,
        n: usize,
        body: impl FnOnce() -> R,
    ) -> R {
        // Shuts the engine down however `body` ends: after a failed
        // assertion too, or the workers would wait in `claim()` forever
        // and the scope would never join.
        struct Shutdown<'a>(&'a Engine);
        impl Drop for Shutdown<'_> {
            fn drop(&mut self) {
                self.0.begin_shutdown();
            }
        }
        std::thread::scope(|scope| {
            for w in 0..n {
                scope.spawn(move || engine.worker_loop(w as u32, cache));
            }
            let _shutdown = Shutdown(engine);
            body()
        })
    }

    #[test]
    fn a_finished_job_frees_its_slot_before_its_waiter_wakes() {
        // Capacity 1, one worker: every resubmission right after a
        // wait() returned must be admitted.
        let engine = engine(1, ClaimPolicy::adaptive());
        let cache = PointCache::new();
        let points = grid(vec![25]);
        let refused = with_workers(&engine, &cache, 1, || {
            (0..2000)
                .filter(|_| match engine.submit(points.clone(), None, None) {
                    Ok(handle) => {
                        handle.wait().unwrap();
                        false
                    }
                    Err(SubmitError::Busy { .. }) => true,
                    Err(e) => panic!("unexpected refusal: {e:?}"),
                })
                .count()
        });
        assert_eq!(refused, 0, "cycles refused busy");
    }

    #[test]
    fn results_are_index_sorted_at_any_worker_count() {
        let points = grid(vec![25, 50, 100, 200, 400]);
        let reference = executor::run(&points, 1, &PointCache::new()).unwrap();
        for workers in [1, 2, 4, 16] {
            let engine = engine(4, ClaimPolicy::adaptive());
            let cache = PointCache::new();
            let job = with_workers(&engine, &cache, workers, || {
                engine
                    .submit(points.clone(), None, None)
                    .unwrap()
                    .wait()
                    .unwrap()
            });
            assert_eq!(job.outcomes, reference, "{workers} workers");
            assert_eq!(job.cache_misses, points.len() as u64);
            assert_eq!(job.cache_hits, 0);
        }
    }

    #[test]
    fn concurrent_jobs_share_the_cache() {
        let engine = engine(4, ClaimPolicy::Adaptive { max: 4 });
        let cache = PointCache::new();
        let a = grid(vec![25, 50, 100]);
        let b = grid(vec![50, 100, 200]); // overlaps on 50 and 100
        with_workers(&engine, &cache, 2, || {
            std::thread::scope(|scope| {
                for points in [&a, &b] {
                    let engine = &engine;
                    scope.spawn(move || {
                        engine
                            .submit(points.clone(), None, None)
                            .unwrap()
                            .wait()
                            .unwrap()
                    });
                }
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
        let engine = engine(2, ClaimPolicy::Adaptive { max: 8 });
        let p = grid(vec![25]);
        let _a = engine.submit(p.clone(), None, None).unwrap();
        let _b = engine.submit(p.clone(), None, None).unwrap();
        match engine.submit(p, None, None) {
            Err(SubmitError::Busy { active, capacity }) => {
                assert_eq!((active, capacity), (2, 2));
            }
            other => panic!("expected busy, got {other:?}"),
        }
        assert_eq!(engine.active_jobs(), 2);
        // Depth is in points: two untouched 2-point jobs.
        assert_eq!(engine.queue_depth(), 4);
    }

    #[test]
    fn big_job_does_not_starve_small_one() {
        // One worker: with work-assisting claims the small job is
        // picked up within one rotation turn even though a big job was
        // admitted first. (Timing-free check: both complete.)
        let engine = engine(4, ClaimPolicy::Adaptive { max: 1 });
        let cache = PointCache::new();
        let big = grid((1..=40).map(|i| i * 25).collect());
        let small = grid(vec![25]);
        with_workers(&engine, &cache, 1, || {
            let hb = engine.submit(big.clone(), None, None).unwrap();
            let hs = engine.submit(small.clone(), None, None).unwrap();
            let small_out = hs.wait().unwrap();
            assert_eq!(small_out.outcomes.len(), small.len());
            let big_out = hb.wait().unwrap();
            assert_eq!(big_out.outcomes.len(), big.len());
        });
    }

    #[test]
    fn adaptive_claims_shrink_under_contention() {
        // Two open jobs, no workers: the next claim must be at most
        // CONTENDED_CLAIM points even though max is 32.
        let engine = engine(4, ClaimPolicy::adaptive());
        let cache = PointCache::new();
        let big = engine
            .submit(grid((1..=20).map(|i| i * 25).collect()), None, None)
            .unwrap();
        let one = engine.submit(grid(vec![7]), None, None).unwrap();
        let before = engine.queue_depth();
        assert_eq!(before, 42);
        assert!(engine.run_one_claim(&cache));
        assert!(
            engine.queue_depth() >= before - CONTENDED_CLAIM,
            "claim exceeded the contended bound: depth {} -> {}",
            before,
            engine.queue_depth()
        );
        // Drain so the handles resolve.
        while engine.run_one_claim(&cache) {}
        big.wait().unwrap();
        one.wait().unwrap();
    }

    #[test]
    fn adaptive_claims_grow_when_one_job_owns_the_queue() {
        let engine = engine(4, ClaimPolicy::adaptive());
        let cache = PointCache::new();
        let handle = engine
            .submit(grid((1..=40).map(|i| i * 25).collect()), None, None)
            .unwrap();
        assert_eq!(engine.queue_depth(), 80);
        assert!(engine.run_one_claim(&cache));
        // Sole job, one (virtual) worker: a full 32-point claim.
        assert_eq!(engine.queue_depth(), 80 - DEFAULT_MAX_CLAIM);
        while engine.run_one_claim(&cache) {}
        assert_eq!(handle.wait().unwrap().outcomes.len(), 80);
        assert_eq!(engine.queue_depth(), 0);
    }

    #[test]
    fn queue_depth_counts_points_not_jobs() {
        let engine = engine(4, ClaimPolicy::Fixed(8));
        let cache = PointCache::new();
        let handle = engine
            .submit(grid((1..=16).map(|i| i * 25).collect()), None, None)
            .unwrap();
        assert_eq!(engine.queue_depth(), 32, "depth is the point backlog");
        assert!(engine.run_one_claim(&cache));
        // A nearly-done job reports what is left, not "one job".
        assert_eq!(engine.queue_depth(), 24);
        while engine.run_one_claim(&cache) {}
        assert_eq!(engine.queue_depth(), 0);
        handle.wait().unwrap();
    }

    #[test]
    fn drain_completes_partially_claimed_jobs() {
        // A job is half-claimed when shutdown begins: the drain must
        // finish the unclaimed half (no deadlock, no dropped points).
        let engine = engine(4, ClaimPolicy::Fixed(8));
        let cache = PointCache::new();
        let points = grid((1..=32).map(|i| i * 25).collect());
        let handle = engine.submit(points.clone(), None, None).unwrap();
        assert!(engine.run_one_claim(&cache)); // 8 of 64 claimed+done
        engine.begin_shutdown();
        std::thread::scope(|scope| {
            for w in 0..2 {
                let (engine, cache) = (&engine, &cache);
                scope.spawn(move || engine.worker_loop(w, cache));
            }
        });
        let job = handle.wait().unwrap();
        assert_eq!(job.outcomes.len(), points.len());
        assert_eq!(engine.queue_depth(), 0);
        assert_eq!(engine.active_jobs(), 0);
        // And nothing new gets in.
        assert_eq!(
            engine.submit(points, None, None).unwrap_err(),
            SubmitError::ShuttingDown
        );
    }

    #[test]
    fn error_poisons_the_job_and_stops_further_claims() {
        let engine = engine(4, ClaimPolicy::Fixed(2));
        let cache = PointCache::new();
        let mut bad = grid(vec![25, 50, 100, 200]);
        bad[1].net = "notanet".into();
        let handle = engine.submit(bad, None, None).unwrap();
        assert!(engine.run_one_claim(&cache));
        // The first claim hit the error: the job is gone from the
        // queue and no further ranges are claimable.
        assert_eq!(engine.queue_depth(), 0);
        assert!(!engine.run_one_claim(&cache));
        assert!(handle.wait().is_err());
        assert_eq!(engine.active_jobs(), 0, "the failed job kept its slot");
        // The engine itself survives.
        let good = grid(vec![400]);
        let h = engine.submit(good.clone(), None, None).unwrap();
        while engine.run_one_claim(&cache) {}
        assert_eq!(h.wait().unwrap().outcomes.len(), good.len());
        assert_eq!(engine.active_jobs(), 0);
    }

    #[test]
    fn admission_slot_spans_rounds_and_counts_once() {
        let engine = engine(2, ClaimPolicy::Adaptive { max: 2 });
        let cache = PointCache::new();
        with_workers(&engine, &cache, 2, || {
            let slot = engine.admit().unwrap();
            assert_eq!(engine.active_jobs(), 1);
            // Several rounds under the one slot: active never grows.
            for pes in [25, 50, 100] {
                let out = engine
                    .submit(grid(vec![pes]), Some(&slot), None)
                    .unwrap()
                    .wait()
                    .unwrap();
                assert_eq!(out.outcomes.len(), 2);
                assert_eq!(engine.active_jobs(), 1);
            }
            // A plain submit still fits beside the slot; a second slot
            // at capacity does not.
            let h = engine.submit(grid(vec![200]), None, None).unwrap();
            h.wait().unwrap();
            let second = engine.admit().unwrap();
            assert!(matches!(engine.admit(), Err(SubmitError::Busy { .. })));
            drop(second);
            drop(slot);
        });
        assert_eq!(engine.active_jobs(), 0);
    }

    #[test]
    fn slot_rounds_refuse_after_shutdown() {
        let engine = engine(2, ClaimPolicy::Adaptive { max: 2 });
        let slot = engine.admit().unwrap();
        engine.begin_shutdown();
        assert_eq!(
            engine
                .submit(grid(vec![25]), Some(&slot), None)
                .unwrap_err(),
            SubmitError::ShuttingDown
        );
        drop(slot);
        assert_eq!(engine.active_jobs(), 0);
    }

    #[test]
    fn empty_round_in_slot_completes_immediately() {
        let engine = engine(2, ClaimPolicy::Adaptive { max: 2 });
        let slot = engine.admit().unwrap();
        let out = engine
            .submit(Vec::new(), Some(&slot), None)
            .unwrap()
            .wait()
            .unwrap();
        assert!(out.outcomes.is_empty());
        drop(slot);
    }

    #[test]
    fn job_timing_separates_queue_wait_from_execute() {
        let engine = engine(4, ClaimPolicy::Adaptive { max: 2 });
        let cache = PointCache::new();
        let points = grid(vec![25, 50, 100]);
        let (job, empty) = with_workers(&engine, &cache, 1, || {
            let job = engine
                .submit(points.clone(), None, None)
                .unwrap()
                .wait()
                .unwrap();
            // An empty job is never claimed: both stages are zero.
            let empty = engine
                .submit(Vec::new(), None, None)
                .unwrap()
                .wait()
                .unwrap();
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
    fn empty_job_completes_immediately() {
        let engine = engine(4, ClaimPolicy::Adaptive { max: 2 });
        // No workers exist; an empty job must not wait on them.
        let out = engine
            .submit(Vec::new(), None, None)
            .unwrap()
            .wait()
            .unwrap();
        assert!(out.outcomes.is_empty());
        assert_eq!(engine.active_jobs(), 0);
    }

    #[test]
    fn claim_metrics_reconcile_with_the_delivered_points() {
        let registry = Registry::new();
        let engine = Engine::new(4, ClaimPolicy::Fixed(3), &registry, "sched", "batch");
        let cache = PointCache::new();
        let points = grid(vec![25, 50, 100, 200]);
        let handle = engine.submit(points.clone(), None, None).unwrap();
        while engine.run_one_claim(&cache) {}
        assert_eq!(handle.wait().unwrap().outcomes.len(), points.len());
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("sched_points_total", &[]),
            Some(points.len() as u64)
        );
        // 8 points at fixed claim size 3 is 3 claims: 3 + 3 + 2.
        assert_eq!(snap.counter("sched_batches_total", &[]), Some(3));
        let eval = snap.histogram("sched_batch_eval_ns", &[]).unwrap();
        assert_eq!(eval.count, 3);
        assert!(eval.sum > 0);
        let claims = snap.histogram("sched_claim_points", &[]).unwrap();
        assert_eq!((claims.count, claims.sum), (3, points.len() as u64));
    }
}
