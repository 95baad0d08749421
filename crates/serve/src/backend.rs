//! What a daemon evaluates with, behind its one session layer.
//!
//! [`crate::server`] owns everything a client session sees: the accept
//! loop and connection bound, line decoding, request spans and metrics,
//! the trace log, the sampler, `trace_query`, `dump` and the reply
//! framing. A [`Backend`] and its per-connection [`Session`] answer
//! only what differs between a daemon that evaluates points itself and
//! a coordinator that fans them out to shard daemons: evaluating one
//! point or a point list, a sweep, the frontier's candidate entries,
//! their half of `stats`, the post-request flush and shutdown. Two
//! implement them: [`Local`] here (the work-assisting engine over one
//! shared cache and its cache file) and the shard fan-out in
//! [`crate::cluster`].

use std::collections::VecDeque;
use std::io;
use std::sync::Mutex;
use std::thread::Scope;
use std::time::Instant;

use chain_nn_dse::engine::{AdmissionSlot, Engine, SubmitError};
use chain_nn_dse::persist::MAGIC;
use chain_nn_dse::{pareto, CacheFile, DesignPoint, DseError, PointCache, PointOutcome, SweepSpec};
use chain_nn_obs::Registry;
use chain_nn_tuner::TuneError;

use crate::protocol::{FrontierEntry, Response, ServerStats, SweepSummary};
use crate::server::{RequestSpan, ServerConfig};

/// The process-wide half of a backend. The defaults describe a backend
/// that evaluates nothing itself: no workers, no admission slots, no
/// cache.
pub(crate) trait Backend: Send + Sync {
    /// Spawns the evaluation workers into the server's scope; each
    /// runs until [`Backend::begin_shutdown`] drains the queue.
    fn run_workers<'s>(&'s self, _scope: &'s Scope<'s, '_>) {}

    /// Closes admission and wakes the workers so they drain and exit.
    fn begin_shutdown(&self) {}

    /// Reserves one admission slot for a request that runs many rounds
    /// (`tune`, `tune_frontier`); `None` when the backend admits nothing
    /// itself.
    fn admit(&self) -> Result<Option<AdmissionSlot<'_>>, SubmitError> {
        Ok(None)
    }

    /// Appends fresh evaluations to the cache file, if there is one:
    /// how many records it appended, and the error of the append or of
    /// the rewrite that bounds the file, if either failed.
    fn flush(&self) -> (usize, io::Result<()>) {
        (0, Ok(()))
    }

    /// The backend's own counters (cache, queue, workers) as `stats`
    /// fields, read by `stats` replies, the scrape-time gauges and
    /// `watch` samples.
    fn counters(&self) -> ServerStats {
        ServerStats::default()
    }

    /// Opens one client session's view of the backend.
    fn session(&self) -> Box<dyn Session + '_>;
}

/// The per-session half of a backend: what one client's requests are
/// answered with.
pub(crate) trait Session {
    /// Evaluates one point (`eval`).
    fn eval(&mut self, point: DesignPoint, span: &mut RequestSpan) -> Response;

    /// Evaluates a point list (`eval_batch` and every tune round),
    /// inside `slot` when the request holds one.
    fn eval_points(
        &mut self,
        points: Vec<DesignPoint>,
        slot: Option<&AdmissionSlot<'_>>,
        span: &mut RequestSpan,
    ) -> Result<Evaluated, Failure>;

    /// Runs one validated sweep.
    fn sweep(&mut self, spec: &SweepSpec, span: &mut RequestSpan) -> Response;

    /// Every entry that may be on a `frontier` reply, in canonical point
    /// order, and whether some of them are missing (a shard was lost).
    fn frontier_entries(&mut self, dims: u8, sqnr: bool) -> (Vec<FrontierEntry>, bool);

    /// Completes a `stats` reply that already holds the session
    /// layer's figures and [`Backend::counters`].
    fn stats(&mut self, _stats: &mut ServerStats) {}

    /// What the `shutdown` request does beyond
    /// [`Backend::begin_shutdown`].
    fn shutdown(&mut self) {}
}

/// A point list's outcomes, in order, and the cache traffic they cost.
#[derive(Default)]
pub(crate) struct Evaluated {
    pub(crate) outcomes: Vec<PointOutcome>,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
    /// Some points were re-routed away from a lost shard.
    pub(crate) degraded: bool,
}

/// Why a point list went unevaluated.
pub(crate) enum Failure {
    /// Admission refused the job.
    Refused(SubmitError),
    /// A point failed at the spec level.
    Eval(DseError),
    /// No shard could evaluate some of the points.
    Lost(String),
}

impl From<Failure> for Response {
    fn from(failure: Failure) -> Response {
        match failure {
            Failure::Refused(SubmitError::Busy { active, capacity }) => {
                Response::Busy { active, capacity }
            }
            Failure::Refused(SubmitError::ShuttingDown) => {
                Response::error("server is shutting down")
            }
            Failure::Eval(e) => Response::error(e),
            Failure::Lost(message) => Response::Error { message },
        }
    }
}

impl From<Failure> for TuneError {
    fn from(failure: Failure) -> TuneError {
        match failure {
            // A round inside an admission slot skips the capacity
            // check, so only shutdown refuses it.
            Failure::Refused(_) => TuneError::Backend("server is shutting down".to_owned()),
            Failure::Eval(e) => TuneError::Eval(e),
            Failure::Lost(message) => TuneError::Backend(message),
        }
    }
}

/// The evaluating backend: the work-assisting [`Engine`] over the
/// shared [`PointCache`], and the cache file that persists it. Every
/// admitted request is an engine job, so the worker pool serves all
/// sessions' point lists and concurrent clients pay for each distinct
/// point once. With a file attached, the cache is replayed at open and
/// every completed request's fresh evaluations are appended, so a
/// restarted daemon re-serves prior sweeps without a single model
/// evaluation. With a capacity too, the file is bounded like the cache
/// (see [`Batches::push`]).
pub(crate) struct Local {
    engine: Engine,
    cache: PointCache,
    cache_file: Option<CacheFile>,
    cache_capacity: Option<usize>,
    /// The cache file's flush batches. Its lock serializes flushes, so
    /// concurrent batch completions do not interleave appends.
    batches: Mutex<Batches>,
    threads: usize,
    loaded_from_disk: usize,
}

/// Where a bounded daemon's flush batches lie in its cache file, oldest
/// first. The first is the file as [`CacheFile::load_into`] left it
/// (truncated or compacted, perhaps); the daemon wrote every later one.
#[derive(Debug, Default)]
struct Batches {
    /// Each batch's start offset and record count.
    list: VecDeque<(u64, usize)>,
    /// Records across `list`.
    records: usize,
    /// The file's length: where the next batch starts (0 while the
    /// file holds no record).
    end: u64,
}

impl Batches {
    /// Records the batch of `records` a flush just appended, ending the
    /// file at `end`. Once the file holds more than twice `capacity`
    /// records, rewrites it to keep only its newest whole batches that
    /// hold at least `capacity`. A bounded cache keeps only its newest
    /// ~`capacity` points anyway (FIFO), so a restart still serves what
    /// the daemon served; twice is the "more than half dead" rule at
    /// which [`CacheFile::load_into`] compacts. With batches no larger
    /// than `capacity`, the file so holds at most 2 × `capacity` records
    /// plus one batch. A larger batch (a sweep against `--cache-cap 0`,
    /// say) stands in for `capacity` in the trigger, so such a daemon
    /// rewrites every other flush rather than every one. While the
    /// newest `capacity` records reach back into the loaded file's
    /// batch, nothing can be dropped, and the rewrite waits.
    fn push(
        &mut self,
        file: &CacheFile,
        records: usize,
        end: u64,
        capacity: usize,
    ) -> io::Result<()> {
        self.list
            .push_back((self.end.max(MAGIC.len() as u64), records));
        self.records += records;
        self.end = end;
        if self.records <= capacity.max(records).saturating_mul(2) {
            return Ok(());
        }
        let (mut first, mut kept) = (self.list.len(), 0);
        while first == self.list.len() || (first > 0 && kept < capacity) {
            first -= 1;
            kept += self.list[first].1;
        }
        if first == 0 {
            return Ok(());
        }
        let from = self.list[first].0;
        file.keep_from(from)?;
        let shift = from - MAGIC.len() as u64;
        self.list.drain(..first);
        for (start, _) in &mut self.list {
            *start -= shift;
        }
        self.records = kept;
        self.end -= shift;
        Ok(())
    }
}

impl Local {
    /// Builds the cache (replaying the cache file when configured) and
    /// the engine, whose claim metrics land in `registry` as `sched_*`
    /// and whose claim spans are `batch` spans.
    ///
    /// # Errors
    ///
    /// Cache-file I/O failures (a *corrupt* cache file is not an error
    /// — it loads to its valid prefix — but an unreadable one, or one
    /// with a foreign magic line, is).
    pub(crate) fn open(config: &ServerConfig, registry: &Registry) -> io::Result<Local> {
        let cache = match config.cache_capacity {
            Some(capacity) => PointCache::bounded(capacity),
            None => PointCache::new(),
        };
        let cache_file = config.cache_file.as_ref().map(CacheFile::new);
        let mut loaded_from_disk = 0;
        let mut batches = Batches::default();
        if let Some(file) = &cache_file {
            let report = file.load_into(&cache)?;
            loaded_from_disk = report.loaded;
            // A compaction kept only the loaded records; otherwise the
            // dead ones are still on disk. With none, the file is missing
            // or holds only its magic line, where the next batch starts.
            let records = report.loaded + if report.compacted { 0 } else { report.dead() };
            if records > 0 {
                batches.end = std::fs::metadata(file.path())?.len();
                batches.list.push_back((MAGIC.len() as u64, records));
                batches.records = records;
            }
        }
        Ok(Local {
            engine: Engine::new(
                config.queue_capacity,
                config.claim,
                registry,
                "sched",
                "batch",
            ),
            cache,
            cache_file,
            cache_capacity: config.cache_capacity,
            batches: Mutex::new(batches),
            threads: config.threads.max(1),
            loaded_from_disk,
        })
    }
}

impl Backend for Local {
    fn run_workers<'s>(&'s self, scope: &'s Scope<'s, '_>) {
        for worker in 0..self.threads {
            scope.spawn(move || self.engine.worker_loop(worker as u32, &self.cache));
        }
    }

    fn begin_shutdown(&self) {
        self.engine.begin_shutdown();
    }

    fn admit(&self) -> Result<Option<AdmissionSlot<'_>>, SubmitError> {
        self.engine.admit().map(Some)
    }

    /// Appends the cache's dirty journal to the snapshot file, then
    /// bounds the file when the cache is bounded. Called after every
    /// request that may have evaluated something, and once more at
    /// shutdown. An empty journal touches no file.
    fn flush(&self) -> (usize, io::Result<()>) {
        let mut batches = self.batches.lock().expect("flush lock poisoned");
        let Some(file) = &self.cache_file else {
            // No persistence to protect: discard the journal, so it does
            // not hold a second copy of every evaluation and a capacity
            // bound can evict (eviction never touches dirty entries).
            drop(self.cache.take_dirty());
            return (0, Ok(()));
        };
        let appended = match file.flush_dirty(&self.cache) {
            Ok(appended) => appended,
            Err(e) => return (0, Err(e)),
        };
        let bounded = match self.cache_capacity {
            Some(capacity) if appended > 0 => std::fs::metadata(file.path())
                .and_then(|meta| batches.push(file, appended, meta.len(), capacity)),
            _ => Ok(()),
        };
        (appended, bounded)
    }

    fn counters(&self) -> ServerStats {
        let cache = &self.cache;
        let stats = cache.stats();
        ServerStats {
            cached_points: cache.len(),
            hits: stats.hits,
            misses: stats.misses,
            hit_rate: stats.hit_rate(),
            active_jobs: self.engine.active_jobs(),
            queue_capacity: self.engine.capacity(),
            threads: self.threads,
            loaded_from_disk: self.loaded_from_disk,
            persistent: self.cache_file.is_some(),
            queue_depth: self.engine.queue_depth(),
            ..ServerStats::default()
        }
    }

    fn session(&self) -> Box<dyn Session + '_> {
        Box::new(self)
    }
}

impl Session for &Local {
    fn eval(&mut self, point: DesignPoint, span: &mut RequestSpan) -> Response {
        // Cache-hit fast path: a memoized point is answered inline. The
        // engine round trip (submit, wake a worker, wake the session)
        // costs tens of microseconds of handoff — more than the lookup
        // itself — and would serialize a pipelined client's cached
        // evals behind it. The hit runs no job, so the span counts it
        // without a job's queue-wait and execute time.
        if let Some(outcome) = self.cache.probe(&point) {
            span.cache_hits += 1;
            span.points = 1;
            return Response::Eval { point, outcome };
        }
        match self.eval_points(vec![point.clone()], None, span) {
            Err(failure) => failure.into(),
            Ok(mut batch) => {
                span.points = 1;
                Response::Eval {
                    point,
                    outcome: batch.outcomes.remove(0),
                }
            }
        }
    }

    fn eval_points(
        &mut self,
        points: Vec<DesignPoint>,
        slot: Option<&AdmissionSlot<'_>>,
        span: &mut RequestSpan,
    ) -> Result<Evaluated, Failure> {
        let handle = self
            .engine
            .submit(points, slot, span.trace_ref())
            .map_err(Failure::Refused)?;
        let job = handle.wait().map_err(Failure::Eval)?;
        span.absorb_job(&job);
        Ok(Evaluated {
            outcomes: job.outcomes,
            // Per-job counters from the engine: global cache deltas
            // would also count the other clients' concurrent traffic.
            hits: job.cache_hits,
            misses: job.cache_misses,
            degraded: false,
        })
    }

    fn sweep(&mut self, spec: &SweepSpec, span: &mut RequestSpan) -> Response {
        // Partitioned sweeps (`spec.part` set by a cluster coordinator)
        // walk the same full grid but keep only the owned points;
        // indices stay *global*, so per-shard frontiers merge into
        // exactly the single-daemon indices.
        let (indices, points): (Vec<usize>, Vec<DesignPoint>) =
            spec.indexed_points().into_iter().unzip();
        let start = Instant::now();
        let batch = match self.eval_points(points, None, span) {
            Ok(batch) => batch,
            Err(failure) => return failure.into(),
        };
        span.points = indices.len() as u64;
        let objectives: Vec<(usize, pareto::Objectives)> = batch
            .outcomes
            .iter()
            .zip(&indices)
            .filter_map(|(o, &gi)| Some((gi, pareto::Objectives::from(o.result()?))))
            .collect();
        let frontier_3d = pareto::frontier_3d(&objectives);
        let frontier_sqnr = pareto::frontier_accuracy(&objectives);
        // A partitioned reply carries its frontier *candidates* (index +
        // objectives of every point on either frontier) so the
        // coordinator can re-filter the merged set without re-evaluating
        // anything.
        let candidates = if spec.part.is_some() {
            let mut keep: Vec<usize> = frontier_3d.iter().chain(&frontier_sqnr).copied().collect();
            keep.sort_unstable();
            keep.dedup();
            objectives
                .iter()
                .filter(|(i, _)| keep.binary_search(i).is_ok())
                .copied()
                .collect()
        } else {
            Vec::new()
        };
        Response::Sweep(SweepSummary {
            points: indices.len(),
            feasible: objectives.len(),
            cache_hits: batch.hits,
            cache_misses: batch.misses,
            wall_ms: start.elapsed().as_secs_f64() * 1e3,
            frontier_3d,
            frontier_sqnr,
            candidates,
            degraded: false,
        })
    }

    fn frontier_entries(&mut self, _dims: u8, _sqnr: bool) -> (Vec<FrontierEntry>, bool) {
        let entries = self
            .cache
            .entries()
            .into_iter()
            .filter_map(|(point, outcome)| {
                let result = *outcome.result()?;
                Some(FrontierEntry { point, result })
            })
            .collect();
        (entries, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flush_without_a_cache_file_or_a_cap_drops_the_journal() {
        let local = Local::open(&ServerConfig::default(), &Registry::new()).expect("open");
        let cache = &local.cache;
        cache.insert(
            &DesignPoint::paper_alexnet(),
            PointOutcome::Infeasible("journaled".into()),
        );
        let (appended, flushed) = local.flush();
        flushed.expect("flush");
        assert_eq!(appended, 0);
        assert!(cache.take_dirty().is_empty(), "journal kept after flush");
        assert_eq!(cache.len(), 1);
    }
}
