//! Content-hashed memoization of point evaluations.
//!
//! The cache keys on [`DesignPoint::content_hash`] (a stable FNV-1a of
//! the point's canonical byte encoding) and verifies the full point on
//! lookup, so a 64-bit collision can never return the wrong result: the
//! first point stored under a hash keeps it, and a colliding point
//! always misses and is never stored. Overlapping or repeated sweeps
//! against the same [`crate::Explorer`] are therefore incremental: only
//! never-seen points are evaluated.
//!
//! The table is **lock-striped**: entries are spread over
//! [`SHARD_COUNT`] independently locked shards selected by the top bits
//! of the content hash, so concurrent clients of a long-lived explorer
//! (the `chain-nn serve` daemon) do not serialize on one global mutex.
//! Hit/miss counters stay lock-free atomics.
//!
//! Each shard stores an entry once and lists its keys oldest first. The
//! newest keys of that list are the shard's **journal**: the entries
//! inserted since the last flush, which a persistence layer
//! ([`crate::persist`]) appends to its file. The journal is a count, not
//! a copy: a flush hands a copy of it to the writer and marks it flushed
//! only once the write succeeds, so a failed write leaves it journaled
//! for the next flush. [`PointCache::insert_loaded`] populates the table
//! without journaling, for entries that already live on disk; such a key
//! goes in before the journal, which stays the newest keys.
//!
//! The cache is grow-only by default — correct for sweeps and fine for
//! grids up to ~10⁷ points, but a month-long daemon lifetime wants a
//! ceiling. [`PointCache::bounded`] adds an **optional capacity bound**
//! with shard-local FIFO eviction: while a shard exceeds its share of
//! the bound, its oldest key is dropped if it is *clean* (flushed to
//! disk or loaded from it). The journal is never evicted — an unflushed
//! evaluation must reach the snapshot file first — so with persistence
//! attached an evicted point is only ever re-*loaded* or re-evaluated,
//! never lost.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::eval::PointOutcome;
use crate::spec::DesignPoint;

/// Number of lock stripes. 16 is plenty for the worker counts this
/// crate spawns (the executor caps at the host parallelism) while
/// keeping the per-cache footprint trivial.
pub const SHARD_COUNT: usize = 16;

/// Hit/miss counters of one cache (monotonic over the cache lifetime).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from memory.
    pub hits: u64,
    /// Lookups that required a fresh evaluation.
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of lookups answered from memory, in `[0, 1]`; `0.0`
    /// when no lookup has happened yet.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

/// One lock stripe: each entry once, keyed by content hash, and its
/// keys oldest first, the newest `dirty` of them being the journal.
#[derive(Debug, Default)]
struct Shard {
    map: HashMap<u64, (DesignPoint, PointOutcome)>,
    // Every key of a bounded cache, for eviction; an unbounded cache
    // never evicts, so it lists only the journal's keys.
    order: VecDeque<u64>,
    dirty: usize,
}

/// Thread-safe memo table from design points to evaluation outcomes.
///
/// # Example
///
/// ```
/// use chain_nn_dse::{DesignPoint, PointCache, PointOutcome};
///
/// let cache = PointCache::new();
/// let point = DesignPoint::paper_alexnet();
/// assert!(cache.get(&point).is_none()); // one counted miss
/// cache.insert(&point, PointOutcome::Infeasible("demo".into()));
/// assert!(cache.get(&point).is_some()); // one counted hit
/// assert_eq!(cache.stats().hits, 1);
/// assert_eq!(cache.stats().misses, 1);
/// // Everything inserted since the last flush is journaled:
/// assert_eq!(cache.take_dirty().len(), 1);
/// ```
#[derive(Debug)]
pub struct PointCache {
    shards: Vec<Mutex<Shard>>,
    /// Held from copying the journal until it is marked flushed, so
    /// racing flushers hand out each entry once between them.
    flushing: Mutex<()>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Per-shard point bound derived from the global capacity; `None`
    /// means grow-only (the default).
    per_shard_cap: Option<usize>,
}

impl Default for PointCache {
    fn default() -> Self {
        PointCache {
            shards: (0..SHARD_COUNT).map(|_| Mutex::default()).collect(),
            flushing: Mutex::new(()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            per_shard_cap: None,
        }
    }
}

impl PointCache {
    /// An empty, unbounded (grow-only) cache.
    pub fn new() -> Self {
        PointCache::default()
    }

    /// An empty cache bounded to roughly `capacity` points. The bound
    /// is enforced per shard (`capacity / 16`, rounded up), so the
    /// global count can overshoot by at most one point per shard when
    /// the hash spread is uneven. A zero capacity is treated as 1 per
    /// shard — an unbounded cache is spelled [`PointCache::new`].
    pub fn bounded(capacity: usize) -> Self {
        PointCache {
            per_shard_cap: Some(capacity.div_ceil(SHARD_COUNT).max(1)),
            ..PointCache::default()
        }
    }

    /// Entries dropped by the capacity bound so far (0 when unbounded).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// The shard holding `key`. The FNV low bits absorb the trailing
    /// input bytes; the top bits are better mixed, so stripe on those.
    fn shard(&self, key: u64) -> &Mutex<Shard> {
        &self.shards[(key >> 60) as usize % SHARD_COUNT]
    }

    /// `point`'s outcome, counting nothing.
    fn lookup(&self, point: &DesignPoint) -> Option<PointOutcome> {
        let key = point.content_hash();
        let shard = self.shard(key).lock().expect("cache lock poisoned");
        let (stored, outcome) = shard.map.get(&key)?;
        (stored == point).then(|| outcome.clone())
    }

    /// Looks up `point`, counting a hit or a miss.
    pub fn get(&self, point: &DesignPoint) -> Option<PointOutcome> {
        let found = self.lookup(point);
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Looks up `point`, counting a hit when present but *nothing* when
    /// absent. This is the serving fast path's probe: on a miss the
    /// point goes on to a scheduled evaluation whose own [`get`]
    /// records the authoritative miss, and counting it here too would
    /// double it.
    ///
    /// [`get`]: PointCache::get
    pub fn probe(&self, point: &DesignPoint) -> Option<PointOutcome> {
        let found = self.lookup(point);
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    fn insert_impl(&self, point: &DesignPoint, outcome: PointOutcome, journal: bool) -> bool {
        let key = point.content_hash();
        let mut guard = self.shard(key).lock().expect("cache lock poisoned");
        let shard = &mut *guard;
        // A stored key stays: the same point is a duplicate, and a
        // colliding one is not stored, so it always misses.
        let Entry::Vacant(slot) = shard.map.entry(key) else {
            return false;
        };
        slot.insert((point.clone(), outcome));
        if journal {
            shard.order.push_back(key);
            shard.dirty += 1;
        } else if self.per_shard_cap.is_some() {
            let before_journal = shard.order.len() - shard.dirty;
            shard.order.insert(before_journal, key);
        }
        if let Some(cap) = self.per_shard_cap {
            let mut evicted = 0;
            while shard.map.len() > cap && shard.order.len() > shard.dirty {
                let oldest = shard.order.pop_front().expect("a clean key");
                shard.map.remove(&oldest);
                evicted += 1;
            }
            if evicted > 0 {
                self.evictions.fetch_add(evicted, Ordering::Relaxed);
            }
        }
        true
    }

    /// Stores an outcome (idempotent; a racing duplicate insert keeps
    /// the first entry). The entry is journaled for the next flush.
    pub fn insert(&self, point: &DesignPoint, outcome: PointOutcome) {
        self.insert_impl(point, outcome, true);
    }

    /// Stores an outcome that already exists on disk: same semantics as
    /// [`PointCache::insert`] but exempt from the dirty journal, so a
    /// persistence layer does not rewrite what it just loaded. Returns
    /// whether the point was new — `false` flags an on-disk duplicate,
    /// which the loader counts toward the compaction threshold.
    pub fn insert_loaded(&self, point: &DesignPoint, outcome: PointOutcome) -> bool {
        self.insert_impl(point, outcome, false)
    }

    /// Hands a copy of the journal to `write` and, once `write`
    /// succeeds, marks those entries flushed: the entries inserted (not
    /// loaded) since the last flush, in shard order and then insertion
    /// order. A failed `write` leaves every entry journaled, and so
    /// unevictable, for the next flush. Flushes run one at a time, so
    /// racing flushers never hand out one entry twice; inserts go on
    /// meanwhile and join the journal after the copied entries.
    ///
    /// # Errors
    ///
    /// `write`'s error, with the journal left as it was.
    pub(crate) fn flush_dirty_with<T, E>(
        &self,
        write: impl FnOnce(Vec<(DesignPoint, PointOutcome)>) -> Result<T, E>,
    ) -> Result<T, E> {
        let _flushing = self.flushing.lock().expect("cache lock poisoned");
        let mut dirty = Vec::new();
        let mut copied = [0; SHARD_COUNT];
        for (shard, copied) in self.shards.iter().zip(&mut copied) {
            let shard = shard.lock().expect("cache lock poisoned");
            *copied = shard.dirty;
            let journal = shard.order.range(shard.order.len() - shard.dirty..);
            dirty.extend(journal.map(|key| shard.map[key].clone()));
        }
        let written = write(dirty)?;
        self.mark_flushed(copied);
        Ok(written)
    }

    /// Drains the journal: the entries inserted (not loaded) since the
    /// last flush, in shard order and then insertion order, now marked
    /// flushed. A serial caller gets exactly the entries a persistence
    /// layer has not yet flushed.
    pub fn take_dirty(&self) -> Vec<(DesignPoint, PointOutcome)> {
        let Ok(dirty) = self.flush_dirty_with(Ok::<_, Infallible>);
        dirty
    }

    /// Marks the whole journal flushed without copying it: for a cache
    /// with no file behind it, so that its bound can evict again.
    pub fn clear_dirty(&self) {
        let _flushing = self.flushing.lock().expect("cache lock poisoned");
        self.mark_flushed([usize::MAX; SHARD_COUNT]);
    }

    /// Marks each shard's oldest `flushed` journal entries (at most its
    /// whole journal) flushed. The caller holds `flushing`.
    fn mark_flushed(&self, flushed: [usize; SHARD_COUNT]) {
        for (shard, n) in self.shards.iter().zip(flushed) {
            if n == 0 {
                continue;
            }
            let mut shard = shard.lock().expect("cache lock poisoned");
            let n = n.min(shard.dirty);
            shard.dirty -= n;
            if self.per_shard_cap.is_none() {
                shard.order.drain(..n);
            }
        }
    }

    /// Every cached `(point, outcome)` pair, sorted by the point's
    /// canonical byte encoding so the listing is deterministic
    /// regardless of insertion order or shard layout. This is what the
    /// daemon's `frontier` request ranges over.
    pub fn entries(&self) -> Vec<(DesignPoint, PointOutcome)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("cache lock poisoned");
            out.extend(shard.map.values().cloned());
        }
        out.sort_by_cached_key(|(point, _)| point.canonical_bytes());
        out
    }

    /// Number of distinct points cached.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache lock poisoned").map.len())
            .sum()
    }

    /// Whether the cache holds no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::PointOutcome;

    fn outcome(tag: &str) -> PointOutcome {
        PointOutcome::Infeasible(tag.to_owned())
    }

    #[test]
    fn miss_then_hit() {
        let cache = PointCache::new();
        let p = DesignPoint::paper_alexnet();
        assert!(cache.get(&p).is_none());
        cache.insert(&p, outcome("a"));
        assert_eq!(cache.get(&p), Some(outcome("a")));
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_points_do_not_alias() {
        let cache = PointCache::new();
        let a = DesignPoint::paper_alexnet();
        let b = DesignPoint {
            pes: 288,
            ..a.clone()
        };
        cache.insert(&a, outcome("a"));
        cache.insert(&b, outcome("b"));
        assert_eq!(cache.get(&a), Some(outcome("a")));
        assert_eq!(cache.get(&b), Some(outcome("b")));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn duplicate_insert_keeps_first() {
        let cache = PointCache::new();
        let p = DesignPoint::paper_alexnet();
        cache.insert(&p, outcome("first"));
        cache.insert(&p, outcome("second"));
        assert_eq!(cache.get(&p), Some(outcome("first")));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn entries_span_shards_and_sort_canonically() {
        let cache = PointCache::new();
        let base = DesignPoint::paper_alexnet();
        // Enough distinct points that multiple stripes are populated.
        for pes in (64..=1024).step_by(64) {
            let p = DesignPoint {
                pes,
                ..base.clone()
            };
            cache.insert(&p, outcome(&format!("{pes}")));
        }
        let entries = cache.entries();
        assert_eq!(entries.len(), cache.len());
        assert_eq!(entries.len(), 16);
        let keys: Vec<Vec<u8>> = entries.iter().map(|(p, _)| p.canonical_bytes()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "entries() must be canonically ordered");
        // Distinct stripes really are in use (not everything on one lock).
        let stripes: std::collections::HashSet<usize> = entries
            .iter()
            .map(|(p, _)| (p.content_hash() >> 60) as usize % SHARD_COUNT)
            .collect();
        assert!(stripes.len() > 1, "all points landed on one shard");
    }

    #[test]
    fn dirty_log_tracks_only_new_unflushed_inserts() {
        let cache = PointCache::new();
        let a = DesignPoint::paper_alexnet();
        let b = DesignPoint {
            pes: 288,
            ..a.clone()
        };
        let c = DesignPoint {
            pes: 144,
            ..a.clone()
        };
        cache.insert_loaded(&a, outcome("loaded"));
        cache.insert(&b, outcome("fresh"));
        cache.insert(&b, outcome("dup")); // duplicate: not re-journaled
        let dirty = cache.take_dirty();
        assert_eq!(dirty.len(), 1);
        assert_eq!(dirty[0].0, b);
        // Drained: the journal starts empty again.
        assert!(cache.take_dirty().is_empty());
        cache.insert(&c, outcome("later"));
        assert_eq!(cache.take_dirty().len(), 1);
        // Loaded + inserted entries are all retrievable regardless.
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.get(&a), Some(outcome("loaded")));
    }

    #[test]
    fn bounded_cache_evicts_clean_entries_fifo() {
        // Capacity 16 = 1 per shard: any shard receiving a second clean
        // entry must drop its oldest one.
        let cache = PointCache::bounded(SHARD_COUNT);
        let base = DesignPoint::paper_alexnet();
        let points: Vec<DesignPoint> = (0..64)
            .map(|i| DesignPoint {
                pes: 121 + i,
                ..base.clone()
            })
            .collect();
        for p in &points {
            cache.insert_loaded(p, outcome("clean"));
        }
        assert!(cache.len() <= SHARD_COUNT, "len {}", cache.len());
        assert_eq!(cache.evictions(), 64 - cache.len() as u64);
        // Within each shard the survivor is the newest entry (FIFO):
        // every cached point must have no same-shard successor.
        for (i, p) in points.iter().enumerate() {
            if cache.get(p).is_some() {
                let shard = (p.content_hash() >> 60) as usize % SHARD_COUNT;
                let newer_in_shard = points[i + 1..]
                    .iter()
                    .any(|q| (q.content_hash() >> 60) as usize % SHARD_COUNT == shard);
                assert!(!newer_in_shard, "evicted out of FIFO order at {i}");
            }
        }
    }

    #[test]
    fn bounded_cache_never_evicts_dirty_entries() {
        let cache = PointCache::bounded(SHARD_COUNT);
        let base = DesignPoint::paper_alexnet();
        let points: Vec<DesignPoint> = (0..48)
            .map(|i| DesignPoint {
                pes: 121 + i,
                ..base.clone()
            })
            .collect();
        // All journaled (unflushed): nothing may be dropped despite the
        // bound being exceeded threefold.
        for p in &points {
            cache.insert(p, outcome("dirty"));
        }
        assert_eq!(cache.len(), points.len());
        assert_eq!(cache.evictions(), 0);
        // Flushing makes them clean; subsequent inserts shrink the
        // cache back toward the bound, shard by shard.
        let flushed = cache.take_dirty();
        assert_eq!(flushed.len(), points.len());
        for i in 0..16 {
            let extra = DesignPoint {
                pes: 2048 + i,
                ..base.clone()
            };
            cache.insert_loaded(&extra, outcome("extra"));
        }
        assert!(cache.evictions() > 0);
        assert!(cache.len() < points.len() + 16);
    }

    #[test]
    fn a_point_loaded_behind_the_journal_is_evicted_before_it() {
        // Three points of one shard, two to a shard.
        let cache = PointCache::bounded(2 * SHARD_COUNT);
        let mut points = distinct_points(256).into_iter();
        let first = points.next().unwrap();
        let mut same_shard = points.filter(|p| shard_of(p) == shard_of(&first));
        let (loaded, newest) = (same_shard.next().unwrap(), same_shard.next().unwrap());
        cache.insert(&first, outcome("journaled"));
        // A load goes in before the journal, which stays the newest
        // keys, so once the journal is flushed the load is the oldest.
        cache.insert_loaded(&loaded, outcome("loaded"));
        assert_eq!(cache.take_dirty().len(), 1);
        cache.insert_loaded(&newest, outcome("newest"));
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.get(&loaded), None);
        assert_eq!(cache.get(&first), Some(outcome("journaled")));
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = PointCache::new();
        let base = DesignPoint::paper_alexnet();
        for i in 0..256 {
            let p = DesignPoint {
                pes: 121 + i,
                ..base.clone()
            };
            cache.insert_loaded(&p, outcome("x"));
        }
        assert_eq!(cache.len(), 256);
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn hit_rate_is_hits_over_lookups() {
        let stats = CacheStats::default();
        assert_eq!(stats.hit_rate(), 0.0);
        let stats = CacheStats { hits: 3, misses: 1 };
        assert!((stats.hit_rate() - 0.75).abs() < 1e-12);
    }

    /// splitmix64: the model test's deterministic stream.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n.max(1) as u64) as usize
        }
    }

    fn shard_of(point: &DesignPoint) -> usize {
        (point.content_hash() >> 60) as usize % SHARD_COUNT
    }

    /// `n` distinct points (an alexnet clock sweep).
    fn distinct_points(n: usize) -> Vec<DesignPoint> {
        (0..n)
            .map(|i| DesignPoint {
                freq_mhz: 100.0 + i as f64,
                ..DesignPoint::paper_alexnet()
            })
            .collect()
    }

    /// The cache as its contract reads: per shard, the entries in
    /// insertion order, each flagged journaled or not. A bound of
    /// `cap` points per shard drops a shard's oldest unjournaled
    /// entries, and only those.
    struct Model {
        cap: Option<usize>,
        shards: Vec<Vec<(DesignPoint, PointOutcome, bool)>>,
        hits: u64,
        misses: u64,
        evictions: u64,
    }

    impl Model {
        fn new(capacity: Option<usize>) -> Model {
            Model {
                cap: capacity.map(|c| c.div_ceil(SHARD_COUNT).max(1)),
                shards: vec![Vec::new(); SHARD_COUNT],
                hits: 0,
                misses: 0,
                evictions: 0,
            }
        }

        fn find(&self, point: &DesignPoint) -> Option<PointOutcome> {
            self.shards[shard_of(point)]
                .iter()
                .find(|(p, ..)| p == point)
                .map(|(_, outcome, _)| outcome.clone())
        }

        fn get(&mut self, point: &DesignPoint) -> Option<PointOutcome> {
            let found = self.find(point);
            match found {
                Some(_) => self.hits += 1,
                None => self.misses += 1,
            }
            found
        }

        fn probe(&mut self, point: &DesignPoint) -> Option<PointOutcome> {
            let found = self.find(point);
            self.hits += u64::from(found.is_some());
            found
        }

        fn insert(&mut self, point: &DesignPoint, outcome: PointOutcome, journal: bool) -> bool {
            let shard = &mut self.shards[shard_of(point)];
            if shard.iter().any(|(p, ..)| p == point) {
                return false;
            }
            shard.push((point.clone(), outcome, journal));
            if let Some(cap) = self.cap {
                while shard.len() > cap {
                    let Some(oldest) = shard.iter().position(|(.., journaled)| !journaled) else {
                        break;
                    };
                    shard.remove(oldest);
                    self.evictions += 1;
                }
            }
            true
        }

        fn journal_is_empty(&self, shard: usize) -> bool {
            self.shards[shard].iter().all(|(.., journaled)| !journaled)
        }

        fn take_dirty(&mut self) -> Vec<(DesignPoint, PointOutcome)> {
            let mut out = Vec::new();
            for shard in &mut self.shards {
                for (point, outcome, journaled) in shard.iter_mut() {
                    if std::mem::take(journaled) {
                        out.push((point.clone(), outcome.clone()));
                    }
                }
            }
            out
        }

        fn entries(&self) -> Vec<(DesignPoint, PointOutcome)> {
            let mut out: Vec<_> = self
                .shards
                .iter()
                .flatten()
                .map(|(point, outcome, _)| (point.clone(), outcome.clone()))
                .collect();
            out.sort_by_cached_key(|(point, _)| point.canonical_bytes());
            out
        }

        fn len(&self) -> usize {
            self.shards.iter().map(Vec::len).sum()
        }
    }

    /// Runs one seeded sequence of cache calls against a cache of
    /// `capacity` (`None`: unbounded) and the model, checking after
    /// every step. `pools` holds each shard's candidate points.
    fn check_sequence(capacity: Option<usize>, seed: u64, pools: &[Vec<DesignPoint>]) {
        let mut rng = Rng(seed);
        let cache = capacity.map_or_else(PointCache::new, PointCache::bounded);
        let mut model = Model::new(capacity);
        // A few shards, each drawing from its first `width` points: few
        // enough that repeats (hits, duplicate inserts) are common, and
        // up to 40 so a 19-point shard overflows.
        let shards: Vec<usize> = (0..1 + rng.below(3))
            .map(|_| rng.below(SHARD_COUNT))
            .collect();
        let width = [2, 8, 24, 40][rng.below(4)];
        let steps = 1 + rng.below(160);
        for step in 0..steps {
            let shard = shards[rng.below(shards.len())];
            let point = &pools[shard][rng.below(width)];
            let fresh = PointOutcome::Infeasible(format!("step {step}"));
            let at = format!("capacity {capacity:?}, seed {seed}, step {step}");
            match rng.below(100) {
                // A loader replays its file before anything is
                // journaled, or right after a flush: the model loads
                // only into a shard whose journal is empty. Whether an
                // entry loaded behind a live journal ages from its load
                // or from the journal's flush is left open.
                0..=14 if model.journal_is_empty(shard) => assert_eq!(
                    cache.insert_loaded(point, fresh.clone()),
                    model.insert(point, fresh, false),
                    "insert_loaded at {at}"
                ),
                0..=44 => {
                    cache.insert(point, fresh.clone());
                    model.insert(point, fresh, true);
                }
                45..=59 => assert_eq!(cache.get(point), model.get(point), "get at {at}"),
                60..=69 => assert_eq!(cache.probe(point), model.probe(point), "probe at {at}"),
                70..=77 => assert_eq!(cache.take_dirty(), model.take_dirty(), "take_dirty at {at}"),
                78..=82 => assert_eq!(cache.len(), model.len(), "len at {at}"),
                83..=94 => assert_eq!(cache.entries(), model.entries(), "entries at {at}"),
                _ => assert_eq!(cache.evictions(), model.evictions, "evictions at {at}"),
            }
            assert_eq!(cache.entries(), model.entries(), "contents after {at}");
            assert_eq!(cache.len(), model.len(), "len after {at}");
            assert_eq!(cache.is_empty(), model.len() == 0, "is_empty after {at}");
            assert_eq!(cache.evictions(), model.evictions, "evictions after {at}");
            let want = CacheStats {
                hits: model.hits,
                misses: model.misses,
            };
            assert_eq!(cache.stats(), want, "stats after {at}");
        }
        // Whatever is still journaled comes out once, in shard order
        // and then insertion order.
        assert_eq!(cache.take_dirty(), model.take_dirty(), "final journal");
    }

    #[test]
    fn random_call_sequences_match_the_reference_model() {
        let mut pools = vec![Vec::new(); SHARD_COUNT];
        for point in distinct_points(2048) {
            pools[shard_of(&point)].push(point);
        }
        assert!(
            pools.iter().all(|pool| pool.len() >= 40),
            "a shard pool is short"
        );
        for (kind, capacity) in [None, Some(0), Some(SHARD_COUNT), Some(300)]
            .into_iter()
            .enumerate()
        {
            for sequence in 0..600 {
                check_sequence(capacity, ((kind as u64) << 32) | sequence, &pools);
            }
        }
    }

    /// A flush that fails while inserts push every shard past its bound,
    /// then one that succeeds: the good file holds every journaled entry
    /// exactly once.
    #[test]
    fn failed_flush_under_eviction_pressure_loses_and_repeats_nothing() {
        use crate::persist::CacheFile;

        let cache = PointCache::bounded(SHARD_COUNT);
        let points = distinct_points(400);
        // A directory: every append to it fails.
        let bad = CacheFile::new(std::env::temp_dir());
        std::thread::scope(|scope| {
            let inserter = scope.spawn(|| {
                for (i, point) in points.iter().enumerate() {
                    cache.insert(point, outcome(&i.to_string()));
                }
            });
            while !inserter.is_finished() {
                // Fails, or finds an empty journal and touches nothing.
                assert_eq!(bad.flush_dirty(&cache).unwrap_or(0), 0);
            }
        });
        assert!(bad.flush_dirty(&cache).is_err());

        let path = std::env::temp_dir().join(format!(
            "chain_nn_cache_failed_flush_{}.bin",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let good = CacheFile::new(&path);
        good.flush_dirty(&cache).expect("flush to a good path");
        let reloaded = PointCache::new();
        let report = good.load_into(&reloaded).expect("load");
        std::fs::remove_file(&path).expect("remove");
        assert_eq!((report.loaded, report.dead()), (points.len(), 0));
        for (i, point) in points.iter().enumerate() {
            assert_eq!(reloaded.get(point), Some(outcome(&i.to_string())));
        }
    }

    /// Two threads flushing one cache into two files while a third
    /// inserts: together the files hold each journaled entry exactly
    /// once.
    #[test]
    fn racing_flushers_write_each_entry_once_between_them() {
        use crate::persist::CacheFile;
        use std::sync::atomic::AtomicBool;

        let cache = PointCache::bounded(300);
        let points = distinct_points(1000);
        let paths: Vec<_> = ["a", "b"]
            .iter()
            .map(|tag| {
                let path = std::env::temp_dir().join(format!(
                    "chain_nn_cache_race_{tag}_{}.bin",
                    std::process::id()
                ));
                let _ = std::fs::remove_file(&path);
                path
            })
            .collect();
        let inserted = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for path in &paths {
                let (cache, inserted) = (&cache, &inserted);
                scope.spawn(move || {
                    let file = CacheFile::new(path);
                    loop {
                        // A flush begun after the last insert drains the
                        // journal, so after it nothing is left behind.
                        let last = inserted.load(Ordering::SeqCst);
                        file.flush_dirty(cache).expect("flush");
                        if last {
                            break;
                        }
                    }
                });
            }
            for (i, point) in points.iter().enumerate() {
                cache.insert(point, outcome(&i.to_string()));
            }
            inserted.store(true, Ordering::SeqCst);
        });
        let reloaded = PointCache::new();
        let mut loaded = 0;
        for path in &paths {
            let report = CacheFile::new(path).load_into(&reloaded).expect("load");
            let _ = std::fs::remove_file(path);
            assert_eq!(report.dead(), 0, "{report:?}");
            loaded += report.loaded;
        }
        assert_eq!(loaded, points.len());
        assert_eq!(reloaded.len(), points.len());
    }
}
