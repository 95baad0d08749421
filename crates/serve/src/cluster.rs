//! The cluster coordinator: the daemon's own session layer
//! ([`crate::server`]) over a backend that fans work out to a fleet of
//! shard daemons instead of evaluating it. The front is therefore the
//! daemon's in every respect — connection bound, oversized-line guard,
//! pipelining, request metrics and spans, the sampler, `trace_query` —
//! and this module holds only the fan-out.
//!
//! Routing is by content hash: `eval` goes to the shard that owns
//! `point.content_hash() % shards`, sweeps are split into
//! hash-partitioned sub-sweeps (one per shard, carrying global grid
//! indices), whole-cache frontiers are gathered and re-filtered, and
//! tune rounds are scatter-gathered with each round's expanded points
//! partitioned the same way. Because every
//! shard evaluates the same pure model stack and partitions are merged
//! by global index (see [`pareto::merge_candidates`] for the proof),
//! the coordinator's merged replies are byte-identical to a single
//! daemon's — at any shard count.
//!
//! Failure policy: a shard that refuses with `busy` is retried a few
//! times with a short backoff; a shard that is unreachable (or still
//! busy after the retries) is marked **degraded**. `eval` and tune
//! rounds re-route the affected points to the next healthy shard
//! (the models are pure, so any shard computes the same answer);
//! sweep and frontier replies cover the surviving partitions and carry
//! `"degraded":true` so the client knows the merge is partial. Shard
//! connections are re-established on use, so a restarted shard
//! (warm from its own `--cache-file`) rejoins without coordinator
//! restart.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use chain_nn_dse::engine::AdmissionSlot;
use chain_nn_dse::{pareto, DesignPoint, PointOutcome, SweepPart, SweepSpec};
use chain_nn_obs::{Counter, Gauge, Registry};

use crate::backend::{Backend, Evaluated, Failure, Session};
use crate::client::{Client, ClientError};
use crate::protocol::{FrontierEntry, Request, Response, ServerStats, ShardStat, SweepSummary};
use crate::server::{RequestSpan, Server, ServerConfig, ServerReport};

/// How many times a `busy` shard is retried before it is degraded.
const BUSY_RETRIES: u32 = 3;

/// Backoff between busy retries. Short: shard queues drain in
/// milliseconds under the bench workloads this daemon fronts.
const BUSY_BACKOFF: Duration = Duration::from_millis(20);

/// How the coordinator is set up. `Default` binds an ephemeral
/// loopback port with no shards (useful only in tests; real configs
/// name at least one shard address).
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Bind address of the coordinator's own listener.
    pub host: String,
    /// TCP port; 0 asks the OS for an ephemeral one.
    pub port: u16,
    /// Shard daemon addresses (`host:port`), in routing order —
    /// shard `i` owns the points with `content_hash() % len == i`.
    pub shards: Vec<String>,
    /// Connection bound on the coordinator's own listener.
    pub max_connections: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            host: "127.0.0.1".to_owned(),
            port: 0,
            shards: Vec::new(),
            max_connections: 64,
        }
    }
}

/// Health and traffic record of one shard, shared by all sessions.
struct ShardSlot {
    addr: String,
    /// Requests the coordinator issued to this shard
    /// (`cluster_shard_requests_total{shard=…}`).
    requests: Arc<Counter>,
    /// Transport failures and exhausted-busy refusals
    /// (`cluster_shard_errors_total{shard=…}`).
    errors: Arc<Counter>,
    /// Degraded marker (`cluster_shard_degraded{shard=…}`): set when
    /// the shard was unreachable or persistently busy at last contact,
    /// cleared by the next successful call.
    degraded: AtomicBool,
    degraded_gauge: Arc<Gauge>,
}

impl ShardSlot {
    fn mark_ok(&self) {
        self.degraded.store(false, Ordering::Relaxed);
        self.degraded_gauge.set(0.0);
    }

    fn mark_degraded(&self) {
        self.errors.inc();
        self.degraded.store(true, Ordering::Relaxed);
        self.degraded_gauge.set(1.0);
    }

    fn stat(&self) -> ShardStat {
        ShardStat {
            addr: self.addr.clone(),
            requests: self.requests.get(),
            errors: self.errors.get(),
            degraded: self.degraded.load(Ordering::Relaxed),
        }
    }
}

/// The shard fan-out backend: one health record per shard, shared by
/// every session; each session connects to the shards on its own.
struct Shards {
    slots: Vec<ShardSlot>,
}

impl Backend for Shards {
    /// A session's shard fleet is its own lazily connected
    /// [`ShardConn`] per shard, so concurrent sessions fan out
    /// independently.
    fn session(&self) -> Box<dyn Session + '_> {
        Box::new(self.slots.iter().map(ShardConn::new).collect::<Vec<_>>())
    }
}

/// One session's connection to one shard: lazily connected, dropped on
/// failure and re-established on the next use — which is exactly what
/// lets a restarted shard rejoin mid-session.
struct ShardConn<'a> {
    slot: &'a ShardSlot,
    client: Option<Client>,
}

impl ShardConn<'_> {
    fn new(slot: &ShardSlot) -> ShardConn<'_> {
        ShardConn { slot, client: None }
    }

    /// One request/reply round trip on this session's connection,
    /// reconnecting once if the connection is stale (or was never
    /// opened) and retrying `busy` refusals with backoff. `None` when
    /// the shard is unreachable, failed mid-call, sent an unparseable
    /// reply or was still `busy` after [`BUSY_RETRIES`] retries; that
    /// marks the slot degraded, and a reply marks it healthy.
    fn call(&mut self, request: &Request) -> Option<Response> {
        self.slot.requests.inc();
        let mut busy_left = BUSY_RETRIES;
        // Two connection attempts: the held connection (which may be a
        // stale socket to a shard that restarted) and one fresh one.
        let mut connects_left = 2;
        loop {
            if self.client.is_none() {
                if connects_left == 0 {
                    self.slot.mark_degraded();
                    return None;
                }
                connects_left -= 1;
                match Client::connect(self.slot.addr.as_str()) {
                    Ok(c) => self.client = Some(c),
                    Err(_) => continue,
                }
            }
            let client = self.client.as_mut().expect("connection just ensured");
            match client.request(request) {
                Err(ClientError::Io(_)) => {
                    // Stale or dead connection: drop it and let the
                    // loop try one fresh connect.
                    self.client = None;
                }
                Err(ClientError::Protocol(_)) => {
                    self.client = None;
                    self.slot.mark_degraded();
                    return None;
                }
                Ok(Response::Busy { .. }) => {
                    if busy_left == 0 {
                        self.slot.mark_degraded();
                        return None;
                    }
                    busy_left -= 1;
                    std::thread::sleep(BUSY_BACKOFF);
                }
                Ok(response) => {
                    self.slot.mark_ok();
                    return Some(response);
                }
            }
        }
    }
}

/// Runs `call` against every shard concurrently (one thread per shard,
/// each owning that shard's session connection) and returns the
/// replies in shard order.
fn fan_out<'env, T: Send + 'env>(
    conns: &mut [ShardConn<'env>],
    call: impl Fn(usize, &mut ShardConn<'env>) -> T + Sync,
) -> Vec<T> {
    let call = &call;
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(i, conn)| scope.spawn(move || call(i, conn)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard fan-out thread panicked"))
            .collect()
    })
}

/// The cluster coordinator daemon: a [`Server`] whose backend is the
/// shard fan-out. It spawns no evaluation workers, holds no admission
/// slots and keeps no cache file.
pub struct Coordinator(Server);

impl Coordinator {
    /// Binds the coordinator's listener. Shards are *not* contacted
    /// here — connections are per-session and on demand, so shards may
    /// come up after the coordinator (and restart under it).
    ///
    /// # Errors
    ///
    /// Bind failures, or an empty shard list.
    pub fn bind(config: ClusterConfig) -> std::io::Result<Coordinator> {
        if config.shards.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a coordinator needs at least one shard address",
            ));
        }
        let registry = Registry::new();
        let slots = config
            .shards
            .iter()
            .map(|addr| {
                let labels: &[(&str, &str)] = &[("shard", addr.as_str())];
                ShardSlot {
                    addr: addr.clone(),
                    requests: registry.counter_with("cluster_shard_requests_total", labels),
                    errors: registry.counter_with("cluster_shard_errors_total", labels),
                    degraded: AtomicBool::new(false),
                    degraded_gauge: registry.gauge_with("cluster_shard_degraded", labels),
                }
            })
            .collect();
        let front = ServerConfig {
            host: config.host,
            port: config.port,
            max_connections: config.max_connections,
            ..ServerConfig::default()
        };
        Server::with_backend(front, registry, Box::new(Shards { slots })).map(Coordinator)
    }

    /// The actually-bound address (resolves port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket introspection failure.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.0.local_addr()
    }

    /// Serves until a `shutdown` request arrives (which is also
    /// forwarded to every shard), then returns the lifetime report.
    ///
    /// # Errors
    ///
    /// Fatal listener failures; per-connection I/O errors only end
    /// that session.
    pub fn run(self) -> std::io::Result<ServerReport> {
        self.0.run()
    }
}

impl Session for Vec<ShardConn<'_>> {
    fn eval(&mut self, point: DesignPoint, _span: &mut RequestSpan) -> Response {
        // Route to the owner as an `eval`, so the shard answers a cached
        // point inline; on failure walk the other shards — the models
        // are pure, so any shard computes the same reply (it just
        // caches it off-partition).
        let shards = self.len();
        let home = (point.content_hash() % shards as u64) as usize;
        let request = Request::Eval(point);
        for step in 0..shards {
            let conn = &mut self[(home + step) % shards];
            if step > 0 && conn.slot.degraded.load(Ordering::Relaxed) {
                continue;
            }
            if let Some(reply) = conn.call(&request) {
                return reply;
            }
        }
        Response::error("no shard could evaluate the point")
    }

    /// Hash-partitioned `eval_batch` per shard, failed shards re-routed
    /// to the healthy ones, outcomes reassembled in input order. Fails
    /// with a shard's error reply (a spec error), or when some points
    /// could not be evaluated by *any* shard.
    fn eval_points(
        &mut self,
        points: Vec<DesignPoint>,
        _slot: Option<&AdmissionSlot<'_>>,
        _span: &mut RequestSpan,
    ) -> Result<Evaluated, Failure> {
        // Each shard's partition as positions in `points`, so gathered
        // outcomes reassemble in order.
        let shards = self.len();
        let mut parts: Vec<Vec<usize>> = vec![Vec::new(); shards];
        for (i, p) in points.iter().enumerate() {
            parts[(p.content_hash() % shards as u64) as usize].push(i);
        }
        let batch_of = |part: &[usize]| part.iter().map(|&i| points[i].clone()).collect();
        let mut slots: Vec<Option<PointOutcome>> = vec![None; points.len()];
        let (mut hits, mut misses) = (0u64, 0u64);
        let mut degraded = false;
        // First pass: every shard gets its own partition, concurrently.
        let replies = fan_out(self, |i, conn| {
            if parts[i].is_empty() {
                return None;
            }
            Some(conn.call(&Request::EvalBatch(batch_of(&parts[i]))))
        });
        let mut strays: Vec<usize> = Vec::new();
        for (part, reply) in parts.into_iter().zip(replies) {
            match reply {
                None => {}
                Some(Some(Response::EvalBatch {
                    outcomes,
                    cache_hits,
                    cache_misses,
                })) if outcomes.len() == part.len() => {
                    hits += cache_hits;
                    misses += cache_misses;
                    for (idx, outcome) in part.into_iter().zip(outcomes) {
                        slots[idx] = Some(outcome);
                    }
                }
                // A spec error: the shard is healthy and any shard would
                // say the same, so the request ends with the shard's
                // words, as a daemon's reply reads.
                Some(Some(Response::Error { message })) => return Err(Failure::Shard(message)),
                Some(_) => {
                    // Transport failure, busy exhaustion, or a malformed
                    // reply: every point of this partition is re-routed.
                    degraded = true;
                    strays.extend(part);
                }
            }
        }
        // Re-route pass: surviving shards take the strays in routing
        // order. Sequential on purpose — this is the degraded path.
        if !strays.is_empty() {
            let batch = Request::EvalBatch(batch_of(&strays));
            let mut served = false;
            for conn in self {
                if conn.slot.degraded.load(Ordering::Relaxed) {
                    continue;
                }
                match conn.call(&batch) {
                    Some(Response::EvalBatch {
                        outcomes,
                        cache_hits,
                        cache_misses,
                    }) if outcomes.len() == strays.len() => {
                        hits += cache_hits;
                        misses += cache_misses;
                        for (&idx, outcome) in strays.iter().zip(outcomes) {
                            slots[idx] = Some(outcome);
                        }
                        served = true;
                        break;
                    }
                    Some(Response::Error { message }) => return Err(Failure::Shard(message)),
                    _ => {}
                }
            }
            if !served {
                return Err(Failure::Shard(
                    "no shard could evaluate the batch".to_owned(),
                ));
            }
        }
        let outcomes = slots
            .into_iter()
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| Failure::Shard("shard replies left points unanswered".to_owned()))?;
        Ok(Evaluated {
            outcomes,
            hits,
            misses,
            degraded,
        })
    }

    /// Fans one sweep out as hash-partitioned sub-sweeps and merges the
    /// replies: counters summed, frontiers re-filtered from the shards'
    /// candidate sets (global indices, so the result is byte-identical
    /// to a single daemon's — see [`pareto::merge_candidates`]).
    fn sweep(&mut self, spec: &SweepSpec, _span: &mut RequestSpan) -> Response {
        if spec.part.is_some() {
            return Response::error(
                "the coordinator assigns sweep partitions itself; send an unpartitioned spec",
            );
        }
        let shards = self.len();
        let start = Instant::now();
        let replies = fan_out(self, |i, conn| {
            let mut part = spec.clone();
            part.part = Some(SweepPart {
                index: i,
                of: shards,
            });
            conn.call(&Request::Sweep(part))
        });
        let mut summary = SweepSummary::default();
        let mut parts: Vec<Vec<(usize, pareto::Objectives)>> = Vec::new();
        let mut shard_error = None;
        for reply in replies {
            match reply {
                Some(Response::Sweep(s)) => {
                    summary.points += s.points;
                    summary.feasible += s.feasible;
                    summary.cache_hits += s.cache_hits;
                    summary.cache_misses += s.cache_misses;
                    summary.degraded |= s.degraded;
                    parts.push(s.candidates);
                }
                Some(Response::Error { message }) => shard_error = Some(message),
                _ => summary.degraded = true,
            }
        }
        if parts.is_empty() {
            // Nothing merged: a spec the shards reject is an error reply
            // (every shard said the same thing); an unreachable fleet too.
            return Response::error(
                shard_error.unwrap_or_else(|| "no shard answered the sweep".to_owned()),
            );
        }
        summary.degraded |= parts.len() < shards;
        summary.frontier_3d = pareto::merge_frontier_3d(&parts);
        summary.frontier_sqnr = pareto::merge_frontier_accuracy(&parts);
        summary.wall_ms = start.elapsed().as_secs_f64() * 1e3;
        Response::Sweep(summary)
    }

    /// Every shard's whole-cache frontier: their union holds the
    /// fleet's frontier. Entries are sorted by canonical point bytes —
    /// the same deterministic order a single daemon's cache iterates in
    /// — and identical entries (a point that was re-routed during
    /// degradation and evaluated on two shards) are deduplicated.
    fn frontier_entries(&mut self, dims: u8, sqnr: bool) -> (Vec<FrontierEntry>, bool) {
        let request = Request::Frontier {
            dims,
            sqnr,
            stream: false,
        };
        let replies = fan_out(self, |_, conn| conn.call(&request));
        let mut degraded = false;
        let mut all: Vec<FrontierEntry> = Vec::new();
        for reply in replies {
            match reply {
                Some(Response::Frontier {
                    entries,
                    degraded: d,
                    ..
                }) => {
                    degraded |= d;
                    all.extend(entries);
                }
                _ => degraded = true,
            }
        }
        all.sort_by_key(|e| e.point.canonical_bytes());
        all.dedup_by(|a, b| a.point == b.point);
        (all, degraded)
    }

    /// Sums the shards' `stats` into one fleet view, with the per-shard
    /// health list attached. `requests`, `open_connections`,
    /// `max_connections` and `uptime_s` stay the coordinator's own;
    /// every other count is the fleet's, in-flight requests and SLO
    /// figures included.
    fn stats(&mut self, stats: &mut ServerStats) {
        let replies = fan_out(self, |_, conn| conn.call(&Request::Stats));
        (stats.inflight_requests, stats.slos, stats.slo_breach_ticks) = (0, 0, 0);
        for reply in replies {
            if let Some(Response::Stats(s)) = reply {
                stats.cached_points += s.cached_points;
                stats.hits += s.hits;
                stats.misses += s.misses;
                stats.active_jobs += s.active_jobs;
                stats.queue_capacity += s.queue_capacity;
                stats.threads += s.threads;
                stats.loaded_from_disk += s.loaded_from_disk;
                stats.persistent |= s.persistent;
                stats.inflight_requests += s.inflight_requests;
                stats.queue_depth += s.queue_depth;
                stats.slos += s.slos;
                stats.slo_breach_ticks += s.slo_breach_ticks;
            }
        }
        let looked_up = stats.hits + stats.misses;
        if looked_up > 0 {
            stats.hit_rate = stats.hits as f64 / looked_up as f64;
        }
        stats.shards = self.iter().map(|conn| conn.slot.stat()).collect();
    }

    fn shutdown(&mut self) {
        // Best effort: shards that are down stay down.
        for conn in self {
            let _ = conn.call(&Request::Shutdown);
        }
    }
}
