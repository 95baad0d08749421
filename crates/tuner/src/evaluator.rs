//! Where tuner candidates get evaluated: a small trait so the same
//! search strategies run in-process (against a local [`PointCache`])
//! and inside the serving daemon (against the shared scheduler, one
//! job per round, interleaving fairly with concurrent sweeps).

use chain_nn_dse::{executor, DesignPoint, MixOutcome, PointCache, WorkloadMix};

use crate::TuneError;

/// Evaluates batches of candidate configurations over a workload mix.
///
/// One call is one **round**: implementations may fan the expanded
/// `(configuration, network)` points out across threads or a remote
/// worker pool, but must return aggregates aligned with `bases` and
/// must be deterministic — the model stack is pure, so this holds for
/// free as long as implementations do not reorder results.
pub trait MixEvaluator {
    /// Evaluates every base configuration over `mix`, returning one
    /// [`MixOutcome`] per base, in order. The `net` field of each base
    /// is ignored (the mix decides the networks).
    ///
    /// # Errors
    ///
    /// Spec-level evaluation failures or backend (scheduler/transport)
    /// failures; per-network model infeasibility is data, not an error.
    fn evaluate(
        &mut self,
        mix: &WorkloadMix,
        bases: &[DesignPoint],
    ) -> Result<Vec<MixOutcome>, TuneError>;

    /// Cumulative `(cache_hits, cache_misses)` of the underlying
    /// `(configuration, network)` lookups this evaluator performed.
    fn counters(&self) -> (u64, u64);
}

/// Expands bases through a mix into the flat per-network point list the
/// cache keys on. Shared by every evaluator implementation.
pub fn expand(mix: &WorkloadMix, bases: &[DesignPoint]) -> Vec<DesignPoint> {
    bases.iter().flat_map(|b| mix.points_for(b)).collect()
}

/// Folds the flat per-network outcomes of [`expand`]ed points back into
/// one aggregate per base.
///
/// # Panics
///
/// Panics when `outcomes` is not `bases.len() × mix.entries().len()`
/// long — a caller bug.
pub fn collapse(
    mix: &WorkloadMix,
    bases: &[DesignPoint],
    outcomes: &[chain_nn_dse::PointOutcome],
) -> Vec<MixOutcome> {
    let per_base = mix.entries().len();
    assert_eq!(outcomes.len(), bases.len() * per_base, "outcome alignment");
    outcomes
        .chunks(per_base)
        .map(|chunk| mix.aggregate(chunk))
        .collect()
}

/// In-process evaluator over a [`PointCache`] the caller owns
/// exclusively for the duration of the tune (`chain-nn tune` without
/// `--port`, tests, benches). Rounds run on the DSE work-queue
/// executor, so batches parallelize across `threads` without changing
/// results.
///
/// # Example
///
/// ```
/// use chain_nn_dse::{DesignPoint, PointCache, WorkloadMix};
/// use chain_nn_tuner::{CacheEvaluator, MixEvaluator};
///
/// let cache = PointCache::new();
/// let mix = WorkloadMix::single("lenet").unwrap();
/// let mut eval = CacheEvaluator::new(&cache, 2);
/// let base = DesignPoint {
///     pes: 25,
///     ..DesignPoint::paper_alexnet()
/// };
/// let outcomes = eval.evaluate(&mix, &[base.clone()]).unwrap();
/// assert!(outcomes[0].result().is_some());
/// assert_eq!(eval.counters(), (0, 1)); // one fresh (config, net) lookup
/// eval.evaluate(&mix, &[base]).unwrap();
/// assert_eq!(eval.counters(), (1, 1)); // the repeat is a cache hit
/// ```
///
/// Hit/miss accounting reads the cache's global counters before and
/// after each round, which is only correct because the cache is not
/// shared with concurrent users — the daemon-side evaluator uses
/// per-job counters instead.
pub struct CacheEvaluator<'a> {
    cache: &'a PointCache,
    threads: usize,
    hits: u64,
    misses: u64,
}

impl<'a> CacheEvaluator<'a> {
    /// An evaluator over `cache` running each round on `threads`
    /// workers.
    pub fn new(cache: &'a PointCache, threads: usize) -> Self {
        CacheEvaluator {
            cache,
            threads: threads.max(1),
            hits: 0,
            misses: 0,
        }
    }
}

impl MixEvaluator for CacheEvaluator<'_> {
    fn evaluate(
        &mut self,
        mix: &WorkloadMix,
        bases: &[DesignPoint],
    ) -> Result<Vec<MixOutcome>, TuneError> {
        let points = expand(mix, bases);
        let before = self.cache.stats();
        let outcomes = executor::run(&points, self.threads, self.cache)?;
        let after = self.cache.stats();
        self.hits += after.hits - before.hits;
        self.misses += after.misses - before.misses;
        Ok(collapse(mix, bases, &outcomes))
    }

    fn counters(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// An evaluator over any batch-evaluation backend: the closure takes a
/// round's expanded point list and returns `(outcomes, hits, misses)`
/// with outcomes aligned to the points. [`expand`]/[`collapse`] are
/// handled here, so a backend only has to evaluate a flat point list —
/// this is how the serving daemon plugs the tuner into either of its
/// backends (one scheduler job per round, or a scatter-gather across
/// shards that partitions by content hash and reassembles in order)
/// without the tuner knowing about either.
pub struct BatchFnEvaluator<F> {
    eval: F,
    hits: u64,
    misses: u64,
}

impl<F> BatchFnEvaluator<F>
where
    F: FnMut(&[DesignPoint]) -> Result<(Vec<chain_nn_dse::PointOutcome>, u64, u64), TuneError>,
{
    /// An evaluator delegating each round's flat point list to `eval`.
    pub fn new(eval: F) -> Self {
        BatchFnEvaluator {
            eval,
            hits: 0,
            misses: 0,
        }
    }
}

impl<F> MixEvaluator for BatchFnEvaluator<F>
where
    F: FnMut(&[DesignPoint]) -> Result<(Vec<chain_nn_dse::PointOutcome>, u64, u64), TuneError>,
{
    fn evaluate(
        &mut self,
        mix: &WorkloadMix,
        bases: &[DesignPoint],
    ) -> Result<Vec<MixOutcome>, TuneError> {
        let points = expand(mix, bases);
        let (outcomes, hits, misses) = (self.eval)(&points)?;
        if outcomes.len() != points.len() {
            return Err(TuneError::Backend(format!(
                "batch backend returned {} outcomes for {} points",
                outcomes.len(),
                points.len()
            )));
        }
        self.hits += hits;
        self.misses += misses;
        Ok(collapse(mix, bases, &outcomes))
    }

    fn counters(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_evaluator_rounds_are_incremental() {
        let cache = PointCache::new();
        let mix = WorkloadMix::parse("alexnet:0.7,vgg16:0.3").unwrap();
        let mut eval = CacheEvaluator::new(&cache, 2);
        let bases = vec![
            DesignPoint::paper_alexnet(),
            DesignPoint {
                pes: 288,
                ..DesignPoint::paper_alexnet()
            },
        ];
        let out = eval.evaluate(&mix, &bases).unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|o| o.result().is_some()));
        assert_eq!(eval.counters(), (0, 4));
        // The same round again costs nothing fresh.
        let again = eval.evaluate(&mix, &bases).unwrap();
        assert_eq!(again, out);
        assert_eq!(eval.counters(), (4, 4));
    }

    #[test]
    fn expand_collapse_round_trip_alignment() {
        let mix = WorkloadMix::parse("alexnet,vgg16").unwrap();
        let bases = vec![
            DesignPoint::paper_alexnet(),
            DesignPoint {
                pes: 1152,
                ..DesignPoint::paper_alexnet()
            },
        ];
        let points = expand(&mix, &bases);
        assert_eq!(points.len(), 4);
        assert_eq!(points[0].net, "alexnet");
        assert_eq!(points[1].net, "vgg16");
        assert_eq!(points[2].pes, 1152);
        let cache = PointCache::new();
        let outcomes = executor::run(&points, 1, &cache).unwrap();
        let collapsed = collapse(&mix, &bases, &outcomes);
        assert_eq!(collapsed.len(), 2);
    }
}
