//! The cluster coordinator: one daemon that speaks the ordinary
//! line-delimited protocol on the front and fans work out to a fleet of
//! shard daemons on the back.
//!
//! Routing is by content hash: `eval` goes to the shard that owns
//! `point.content_hash() % shards`, sweeps are split into
//! hash-partitioned sub-sweeps (one per shard, carrying global grid
//! indices), whole-cache frontiers are gathered and re-filtered, and
//! tune rounds run through a scatter-gather [`BatchFnEvaluator`] that
//! partitions each round's expanded points the same way. Because every
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

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use chain_nn_dse::{pareto, DesignPoint, PointOutcome, SweepPart, SweepSpec};
use chain_nn_obs::{Counter, Gauge, Registry};
use chain_nn_tuner::{frontier, tune, BatchFnEvaluator, TuneError};

use crate::client::{Client, ClientError};
use crate::protocol::{
    FrontierEntry, FrontierStepSummary, Request, Response, ServerStats, ShardStat, SweepSummary,
    TuneSummary,
};
use crate::server::LineSink;

/// Cap on one request line, matching the shard daemon's bound.
const MAX_REQUEST_BYTES: u64 = 1 << 20;

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

/// What one coordinator lifetime did, returned by [`Coordinator::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClusterReport {
    /// Requests served across all client connections.
    pub requests: u64,
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

struct Shared {
    shards: Vec<ShardSlot>,
    requests: AtomicU64,
    shutdown: AtomicBool,
    connections: AtomicUsize,
    max_connections: usize,
    registry: Registry,
}

/// One session's connection to one shard: lazily connected, dropped on
/// failure and re-established on the next use — which is exactly what
/// lets a restarted shard rejoin mid-session.
struct ShardConn<'a> {
    slot: &'a ShardSlot,
    client: Option<Client>,
}

/// Why a shard call failed terminally (after reconnect/busy retries).
#[derive(Debug)]
enum ShardError {
    /// Unreachable, mid-call transport failure, or unparseable reply.
    Unreachable,
    /// Still `busy` after [`BUSY_RETRIES`] attempts.
    Busy,
}

impl ShardConn<'_> {
    fn new(slot: &ShardSlot) -> ShardConn<'_> {
        ShardConn { slot, client: None }
    }

    /// One request/reply round trip on this session's connection,
    /// reconnecting once if the connection is stale (or was never
    /// opened) and retrying `busy` refusals with backoff. Marks the
    /// slot degraded on terminal failure, healthy on success.
    fn call(&mut self, request: &Request) -> Result<Response, ShardError> {
        self.slot.requests.inc();
        let mut busy_left = BUSY_RETRIES;
        // Two connection attempts: the held connection (which may be a
        // stale socket to a shard that restarted) and one fresh one.
        let mut connects_left = 2;
        loop {
            if self.client.is_none() {
                if connects_left == 0 {
                    self.slot.mark_degraded();
                    return Err(ShardError::Unreachable);
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
                    return Err(ShardError::Unreachable);
                }
                Ok(Response::Busy { .. }) => {
                    if busy_left == 0 {
                        self.slot.mark_degraded();
                        return Err(ShardError::Busy);
                    }
                    busy_left -= 1;
                    std::thread::sleep(BUSY_BACKOFF);
                }
                Ok(response) => {
                    self.slot.mark_ok();
                    return Ok(response);
                }
            }
        }
    }
}

/// Splits `points` into per-shard batches by content hash, remembering
/// each point's position so gathered outcomes reassemble in order.
fn partition_points(points: &[DesignPoint], shards: usize) -> Vec<Vec<(usize, DesignPoint)>> {
    let mut parts: Vec<Vec<(usize, DesignPoint)>> = vec![Vec::new(); shards];
    for (i, p) in points.iter().enumerate() {
        parts[(p.content_hash() % shards as u64) as usize].push((i, p.clone()));
    }
    parts
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

/// Evaluates `points` across the cluster: hash-partitioned `eval_batch`
/// per shard, failed shards re-routed to the healthy ones, outcomes
/// reassembled in input order. Returns `(outcomes, hits, misses,
/// degraded)`; `Err` only when some points could not be evaluated by
/// *any* shard.
fn scatter_gather(
    conns: &mut [ShardConn<'_>],
    points: &[DesignPoint],
) -> Result<(Vec<PointOutcome>, u64, u64, bool), String> {
    let shards = conns.len();
    let parts = partition_points(points, shards);
    let mut slots: Vec<Option<PointOutcome>> = vec![None; points.len()];
    let (mut hits, mut misses) = (0u64, 0u64);
    let mut degraded = false;
    // First pass: every shard gets its own partition, concurrently.
    let replies = fan_out(conns, |i, conn| {
        if parts[i].is_empty() {
            return None;
        }
        let batch: Vec<DesignPoint> = parts[i].iter().map(|(_, p)| p.clone()).collect();
        Some(conn.call(&Request::EvalBatch(batch)))
    });
    let mut strays: Vec<(usize, DesignPoint)> = Vec::new();
    for (part, reply) in parts.into_iter().zip(replies) {
        match reply {
            None => {}
            Some(Ok(Response::EvalBatch {
                outcomes,
                cache_hits,
                cache_misses,
            })) if outcomes.len() == part.len() => {
                hits += cache_hits;
                misses += cache_misses;
                for ((idx, _), outcome) in part.into_iter().zip(outcomes) {
                    slots[idx] = Some(outcome);
                }
            }
            Some(_) => {
                // Transport failure, busy exhaustion, or a malformed
                // reply: every point of this partition is re-routed.
                degraded = true;
                strays.extend(part);
            }
        }
    }
    // Re-route pass: surviving shards take the strays in routing order.
    // Sequential on purpose — this is the degraded path.
    if !strays.is_empty() {
        let batch: Vec<DesignPoint> = strays.iter().map(|(_, p)| p.clone()).collect();
        let mut served = false;
        for conn in conns.iter_mut() {
            if conn.slot.degraded.load(Ordering::Relaxed) {
                continue;
            }
            if let Ok(Response::EvalBatch {
                outcomes,
                cache_hits,
                cache_misses,
            }) = conn.call(&Request::EvalBatch(batch.clone()))
            {
                if outcomes.len() == batch.len() {
                    hits += cache_hits;
                    misses += cache_misses;
                    for ((idx, _), outcome) in strays.iter().zip(outcomes) {
                        slots[*idx] = Some(outcome);
                    }
                    served = true;
                    break;
                }
            }
        }
        if !served {
            return Err("no shard could evaluate the batch".to_owned());
        }
    }
    let outcomes = slots
        .into_iter()
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "shard replies left points unanswered".to_owned())?;
    Ok((outcomes, hits, misses, degraded))
}

/// The cluster coordinator daemon.
pub struct Coordinator {
    listener: TcpListener,
    shared: Arc<Shared>,
}

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
        let listener = TcpListener::bind((config.host.as_str(), config.port))?;
        let registry = Registry::new();
        let shards = config
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
        Ok(Coordinator {
            listener,
            shared: Arc::new(Shared {
                shards,
                requests: AtomicU64::new(0),
                shutdown: AtomicBool::new(false),
                connections: AtomicUsize::new(0),
                max_connections: config.max_connections.max(1),
                registry,
            }),
        })
    }

    /// The actually-bound address (resolves port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket introspection failure.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until a `shutdown` request arrives (which is also
    /// forwarded to every shard), then returns the lifetime report.
    ///
    /// # Errors
    ///
    /// Fatal listener failures; per-connection I/O errors only end
    /// that session.
    pub fn run(self) -> std::io::Result<ClusterReport> {
        self.listener.set_nonblocking(true)?;
        let shared = &self.shared;
        loop {
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _addr)) => {
                    // Same as the shard daemon: pipelined replies are
                    // many small writes; Nagle would stall them on the
                    // peer's delayed ACKs.
                    stream.set_nodelay(true).ok();
                    let open = shared.connections.load(Ordering::SeqCst);
                    if open >= shared.max_connections {
                        let mut wire = Response::Busy {
                            active: open,
                            capacity: shared.max_connections,
                        }
                        .encode();
                        wire.push('\n');
                        let mut writer = BufWriter::new(stream);
                        let _ = writer
                            .write_all(wire.as_bytes())
                            .and_then(|()| writer.flush());
                        continue;
                    }
                    shared.connections.fetch_add(1, Ordering::SeqCst);
                    let s = Arc::clone(shared);
                    std::thread::spawn(move || {
                        serve_session(stream, &s);
                        s.connections.fetch_sub(1, Ordering::SeqCst);
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(e),
            }
        }
        Ok(ClusterReport {
            requests: shared.requests.load(Ordering::Relaxed),
        })
    }
}

/// One client session on the coordinator: line in, merged line(s) out.
/// Each session holds its own lazily-connected shard fleet, so
/// concurrent client sessions fan out independently.
fn serve_session(stream: TcpStream, shared: &Arc<Shared>) {
    let Ok(peer_read) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(peer_read);
    let mut writer = BufWriter::new(stream);
    let mut conns: Vec<ShardConn<'_>> = shared.shards.iter().map(ShardConn::new).collect();
    let mut line = String::new();
    loop {
        line.clear();
        match (&mut reader).take(MAX_REQUEST_BYTES).read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) if line.len() as u64 >= MAX_REQUEST_BYTES && !line.ends_with('\n') => {
                let refusal = format!("request exceeds {MAX_REQUEST_BYTES} bytes");
                let _ = LineSink::new(&mut writer).send(&Response::error(refusal));
                return;
            }
            Ok(_) => {}
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        shared.requests.fetch_add(1, Ordering::Relaxed);
        let (request, meta) = match Request::decode_with_meta(trimmed) {
            Ok(pair) => pair,
            Err(e) => {
                let reply = Response::error(e);
                if LineSink::new(&mut writer).send(&reply).is_err() {
                    return;
                }
                continue;
            }
        };
        let mut sink = LineSink::with_id(&mut writer, meta.req_id);
        let stop = matches!(request, Request::Shutdown);
        if handle_request(request, shared, &mut conns, &mut sink).is_err() {
            return; // client went away mid-reply
        }
        if stop {
            shared.shutdown.store(true, Ordering::SeqCst);
            return;
        }
    }
}

/// Routes one request across the shard fleet and writes the merged
/// reply (or streamed lines) through `sink`. `Err` means the *client*
/// connection died; shard failures degrade the reply instead.
fn handle_request(
    request: Request,
    shared: &Arc<Shared>,
    conns: &mut [ShardConn<'_>],
    sink: &mut LineSink<'_>,
) -> std::io::Result<()> {
    match request {
        Request::Eval(point) => {
            // Route to the owner; on failure walk the other shards —
            // the models are pure, so any shard computes the same
            // reply (it just caches it off-partition).
            let shards = conns.len();
            let home = (point.content_hash() % shards as u64) as usize;
            let mut reply = None;
            for step in 0..shards {
                let conn = &mut conns[(home + step) % shards];
                if step > 0 && conn.slot.degraded.load(Ordering::Relaxed) {
                    continue;
                }
                if let Ok(r) = conn.call(&Request::Eval(point.clone())) {
                    reply = Some(r);
                    break;
                }
            }
            sink.send(
                &reply.unwrap_or_else(|| Response::error("no shard could evaluate the point")),
            )
        }
        Request::EvalBatch(points) => {
            let reply = match scatter_gather(conns, &points) {
                Ok((outcomes, cache_hits, cache_misses, _degraded)) => Response::EvalBatch {
                    outcomes,
                    cache_hits,
                    cache_misses,
                },
                Err(message) => Response::Error { message },
            };
            sink.send(&reply)
        }
        Request::Sweep(spec) => sink.send(&merged_sweep(conns, &spec)),
        Request::Tune(request) => {
            let mut degraded = false;
            let result = {
                let degraded = &mut degraded;
                let mut evaluator = BatchFnEvaluator::new(|points: &[DesignPoint]| {
                    let (outcomes, hits, misses, part_degraded) =
                        scatter_gather(conns, points).map_err(TuneError::Backend)?;
                    *degraded |= part_degraded;
                    Ok((outcomes, hits, misses))
                });
                tune(&request, &mut evaluator)
            };
            let reply = match result {
                Err(e) => Response::error(e),
                Ok(report) => Response::Tune(TuneSummary {
                    best: report.best,
                    evaluations: report.evaluations,
                    cache_hits: report.cache_hits,
                    cache_misses: report.cache_misses,
                    rounds: report.rounds,
                    exhaustive_points: report.exhaustive_points,
                    degraded,
                }),
            };
            sink.send(&reply)
        }
        Request::TuneFrontier(request) => {
            let mut sink_dead = false;
            let result = {
                let mut evaluator = BatchFnEvaluator::new(|points: &[DesignPoint]| {
                    let (outcomes, hits, misses, _degraded) =
                        scatter_gather(conns, points).map_err(TuneError::Backend)?;
                    Ok((outcomes, hits, misses))
                });
                let steps = request.sweep.values.len();
                frontier::tune_frontier(&request, &mut evaluator, |i, step| {
                    let line = Response::TuneFrontierStep(FrontierStepSummary {
                        step: i,
                        steps,
                        result: step.clone(),
                    });
                    sink.send(&line).map_err(|_| {
                        sink_dead = true;
                        TuneError::Backend("client closed the stream".to_owned())
                    })
                })
            };
            match result {
                Ok(report) => sink.send(&Response::TuneFrontierDone(
                    crate::protocol::FrontierDoneSummary {
                        steps: report.steps.len(),
                        frontier: report.frontier,
                        evaluations: report.evaluations,
                        standalone_evaluations: report.standalone_evaluations,
                        cache_hits: report.cache_hits,
                        cache_misses: report.cache_misses,
                        exhaustive_points: report.exhaustive_points,
                    },
                )),
                Err(_) if sink_dead => Err(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "client closed the stream",
                )),
                Err(e) => sink.send(&Response::error(e)),
            }
        }
        Request::Frontier { dims, sqnr, stream } => {
            let (entries, degraded) = merged_frontier(conns, dims, sqnr);
            if stream {
                let total = entries.len();
                for entry in entries {
                    sink.send(&Response::FrontierStreamEntry { entry })?;
                }
                sink.send(&Response::FrontierStreamDone {
                    dims,
                    entries: total,
                    degraded,
                })
            } else {
                sink.send(&Response::Frontier {
                    dims,
                    entries,
                    degraded,
                })
            }
        }
        Request::Stats => sink.send(&merged_stats(conns, shared)),
        Request::Metrics => {
            let snapshot = shared.registry.snapshot();
            sink.send(&Response::Metrics { snapshot })
        }
        Request::Shutdown => {
            // Best effort: shards that are down stay down.
            for conn in conns.iter_mut() {
                let _ = conn.call(&Request::Shutdown);
            }
            sink.send(&Response::Shutdown)
        }
        Request::MetricsHistory
        | Request::Watch { .. }
        | Request::TraceQuery { .. }
        | Request::Dump => sink.send(&Response::error(
            "not supported by the cluster coordinator; ask a shard directly",
        )),
    }
}

/// Fans one sweep out as hash-partitioned sub-sweeps and merges the
/// replies: counters summed, frontiers re-filtered from the shards'
/// candidate sets (global indices, so the result is byte-identical to
/// a single daemon's — see [`pareto::merge_candidates`]).
fn merged_sweep(conns: &mut [ShardConn<'_>], spec: &SweepSpec) -> Response {
    if spec.part.is_some() {
        return Response::error(
            "the coordinator assigns sweep partitions itself; send an unpartitioned spec",
        );
    }
    if let Err(e) = spec.validate() {
        return Response::error(e);
    }
    let shards = conns.len();
    let start = Instant::now();
    let replies = fan_out(conns, |i, conn| {
        let mut part = spec.clone();
        part.part = Some(SweepPart {
            index: i,
            of: shards,
        });
        conn.call(&Request::Sweep(part))
    });
    let mut summary = SweepSummary {
        points: 0,
        feasible: 0,
        cache_hits: 0,
        cache_misses: 0,
        wall_ms: 0.0,
        frontier_3d: Vec::new(),
        frontier_sqnr: Vec::new(),
        candidates: Vec::new(),
        degraded: false,
    };
    let mut parts: Vec<Vec<(usize, pareto::Objectives)>> = Vec::new();
    let mut shard_error = None;
    let mut answered = 0usize;
    for reply in replies {
        match reply {
            Ok(Response::Sweep(s)) => {
                answered += 1;
                summary.points += s.points;
                summary.feasible += s.feasible;
                summary.cache_hits += s.cache_hits;
                summary.cache_misses += s.cache_misses;
                summary.degraded |= s.degraded;
                parts.push(s.candidates);
            }
            Ok(Response::Error { message }) => shard_error = Some(message),
            Ok(_) | Err(_) => summary.degraded = true,
        }
    }
    if answered == 0 {
        // Nothing merged: a spec the shards reject is an error reply
        // (every shard said the same thing); an unreachable fleet too.
        return Response::error(
            shard_error.unwrap_or_else(|| "no shard answered the sweep".to_owned()),
        );
    }
    summary.degraded |= answered < conns.len();
    summary.frontier_3d = pareto::merge_frontier_3d(&parts);
    summary.frontier_sqnr = pareto::merge_frontier_accuracy(&parts);
    summary.wall_ms = start.elapsed().as_secs_f64() * 1e3;
    Response::Sweep(summary)
}

/// Gathers every shard's whole-cache frontier and re-filters the union.
/// Entries are sorted by canonical point bytes before filtering — the
/// same deterministic order a single daemon's cache iterates in — and
/// identical entries (a point that was re-routed during degradation
/// and evaluated on two shards) are deduplicated first.
fn merged_frontier(
    conns: &mut [ShardConn<'_>],
    dims: u8,
    sqnr: bool,
) -> (Vec<FrontierEntry>, bool) {
    let replies = fan_out(conns, |_, conn| {
        conn.call(&Request::Frontier {
            dims,
            sqnr,
            stream: false,
        })
    });
    let mut degraded = false;
    let mut all: Vec<FrontierEntry> = Vec::new();
    for reply in replies {
        match reply {
            Ok(Response::Frontier {
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
    let objectives: Vec<(usize, pareto::Objectives)> = all
        .iter()
        .enumerate()
        .map(|(i, e)| (i, pareto::Objectives::from(&e.result)))
        .collect();
    let keep = if dims == 2 {
        pareto::frontier_2d(&objectives)
    } else if sqnr {
        pareto::frontier_accuracy(&objectives)
    } else {
        pareto::frontier_3d(&objectives)
    };
    (keep.into_iter().map(|i| all[i].clone()).collect(), degraded)
}

/// Aggregates shard `stats` into one fleet view, with the per-shard
/// health list attached.
fn merged_stats(conns: &mut [ShardConn<'_>], shared: &Shared) -> Response {
    let replies = fan_out(conns, |_, conn| conn.call(&Request::Stats));
    let mut stats = ServerStats {
        cached_points: 0,
        hits: 0,
        misses: 0,
        hit_rate: 0.0,
        requests: shared.requests.load(Ordering::Relaxed),
        active_jobs: 0,
        queue_capacity: 0,
        open_connections: shared.connections.load(Ordering::SeqCst),
        max_connections: shared.max_connections,
        threads: 0,
        loaded_from_disk: 0,
        persistent: false,
        uptime_s: shared.registry.uptime().as_secs_f64(),
        inflight_requests: 0,
        queue_depth: 0,
        slos: 0,
        slo_breach_ticks: 0,
        shards: Vec::new(),
    };
    for reply in replies {
        if let Ok(Response::Stats(s)) = reply {
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
    stats.shards = shared.shards.iter().map(ShardSlot::stat).collect();
    Response::Stats(stats)
}
