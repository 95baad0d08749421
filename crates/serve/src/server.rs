//! The daemon's one session layer: TCP accept loop, connection bound,
//! per-connection sessions, request spans and metrics, the trace log,
//! the sampler, and one function per request type.
//!
//! Each accepted connection gets a session thread that reads request
//! lines, decodes them, and writes response lines. What a request is
//! answered *with* is a backend's business: a [`Server`] from
//! [`Server::bind`] evaluates on its own work-assisting engine
//! ([`chain_nn_dse::engine`]) over one shared
//! [`PointCache`](chain_nn_dse::PointCache) and cache file, where
//! claims from all sessions interleave fairly; a
//! [`crate::cluster::Coordinator`] is the same session layer over a
//! fan-out to shard daemons.
//!
//! Shutdown is cooperative: a `shutdown` request is acknowledged on its
//! own connection, admission closes, the workers drain what was already
//! admitted, the cache is flushed, and [`Server::run`] returns.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Once, OnceLock, Weak};
use std::time::{Duration, Instant};

use chain_nn_dse::engine::{ClaimPolicy, JobResult, TraceRef};
use chain_nn_dse::{pareto, DesignPoint};
use chain_nn_obs::timeseries::{TimeSeries, Window};
use chain_nn_obs::trace::{self as obs_trace, TraceContext};
use chain_nn_obs::{Counter, Gauge, Histogram, Registry};
use chain_nn_tuner::frontier::{self, FrontierTuneRequest};
use chain_nn_tuner::{BatchFnEvaluator, MixEvaluator, TuneError, TuneRequest};

use crate::backend::{Backend, Evaluated, Failure, Local, Session};
use crate::protocol::{
    FrontierDoneSummary, FrontierStepSummary, HistoryTypeWindow, HistoryWindow, MetricsHistory,
    Request, Response, ServerStats, TuneSummary, WatchSample,
};
use crate::slo::{SloSpec, SloTracker};
use crate::wire::{wire_struct, Tagged, Wire};

/// How the daemon is set up. `Default` binds an ephemeral loopback
/// port, one worker per host core, no persistence.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; loopback unless you mean to expose the daemon.
    pub host: String,
    /// TCP port; 0 asks the OS for an ephemeral one (see
    /// [`Server::local_addr`]).
    pub port: u16,
    /// Worker threads evaluating points.
    pub threads: usize,
    /// Admission bound: concurrent jobs beyond this get `busy`.
    pub queue_capacity: usize,
    /// How many points one scheduling turn claims. The default
    /// adapts to traffic ([`ClaimPolicy::adaptive`]): big claims while
    /// one sweep owns the queue,
    /// [`CONTENDED_CLAIM`](chain_nn_dse::engine::CONTENDED_CLAIM)-sized
    /// ones while interactive evals wait behind it.
    /// [`ClaimPolicy::Fixed`] restores the pre-engine fixed-batch
    /// behavior: the reference the mixed-traffic latency test
    /// (`tests/mixed_traffic.rs`) compares the default against.
    pub claim: ClaimPolicy,
    /// Connection bound: accepted sockets beyond this are answered
    /// `busy` and closed at the accept loop, pairing with the
    /// job-admission bound so idle clients cannot accumulate session
    /// threads either.
    pub max_connections: usize,
    /// Optional cache capacity (points): bounds the in-memory cache
    /// with FIFO eviction of flushed entries for month-long daemon
    /// lifetimes. With a [`cache_file`](Self::cache_file) it bounds the
    /// file too: once a flush leaves more than twice the capacity in
    /// records on disk, the file is rewritten to its newest whole flush
    /// batches that hold at least the capacity, so a restart reads at
    /// most about twice the capacity. `None` (the default) keeps the
    /// cache grow-only and the file append-only.
    pub cache_capacity: Option<usize>,
    /// Snapshot file for cross-process cache persistence.
    pub cache_file: Option<std::path::PathBuf>,
    /// Optional structured trace log: one JSON line per completed
    /// request (id, type, status, and the per-phase timings), written
    /// as requests finish. The file is truncated at bind time — each
    /// daemon lifetime gets a fresh trace.
    pub trace_log: Option<std::path::PathBuf>,
    /// Size cap for the trace log: when appending a line would push the
    /// file past this, the file is renamed to `<path>.1` (replacing the
    /// previous rotation) and a fresh one is started. The daemon keeps
    /// at most two files — the live trace and one predecessor. `0`
    /// disables rotation entirely: the file grows without bound.
    pub trace_max_bytes: u64,
    /// How often the sampler thread snapshots the registry into the
    /// metrics history ring (drives `metrics_history`, `watch`, and
    /// SLO evaluation).
    pub sample_interval: Duration,
    /// Latency SLOs (`eval:p99_us=500`) evaluated every sampler tick
    /// over the trailing [`crate::slo::SLO_WINDOW`].
    pub slos: Vec<SloSpec>,
    /// Slow-request threshold in microseconds: requests whose total
    /// latency meets or exceeds it get `"slow":true` in their trace
    /// line and count into `serve_slow_requests_total{type=…}`.
    pub slow_log_us: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            host: "127.0.0.1".to_owned(),
            port: 0,
            threads: chain_nn_dse::executor::default_threads(),
            queue_capacity: 16,
            claim: ClaimPolicy::adaptive(),
            max_connections: 64,
            cache_capacity: None,
            cache_file: None,
            trace_log: None,
            trace_max_bytes: 64 * 1024 * 1024,
            sample_interval: Duration::from_millis(250),
            slos: Vec::new(),
            slow_log_us: None,
        }
    }
}

/// What one daemon lifetime did, returned by [`Server::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerReport {
    /// Requests served across all connections.
    pub requests: u64,
    /// Cache entries replayed from disk at startup.
    pub loaded_from_disk: usize,
    /// Fresh evaluations appended to the cache file over the lifetime.
    pub persisted: usize,
    /// Distinct points in the cache at shutdown.
    pub cached_points: usize,
}

struct Shared {
    /// What requests are answered with: the local engine and cache,
    /// or the shard fan-out.
    backend: Box<dyn Backend>,
    requests: AtomicU64,
    /// Fresh evaluations the flushes appended to the cache file.
    persisted: AtomicU64,
    shutdown: AtomicBool,
    /// Sessions currently open (incremented at accept, decremented when
    /// the session thread exits).
    connections: AtomicUsize,
    max_connections: usize,
    /// This daemon's private metric registry. Per-daemon (not the
    /// process-global one) so two servers in one test process do not
    /// see each other's request counters; the `metrics` reply merges
    /// in [`chain_nn_obs::global`] for the dse/tuner-layer metrics.
    registry: Registry,
    /// Hot-path metric handles, resolved once at bind time.
    metrics: ServeMetrics,
    /// Structured trace sink (`--trace-log`): one JSON line per
    /// completed request, flushed per line so a tailing reader sees
    /// requests as they finish. Rotates at its size cap.
    trace: Option<Mutex<TraceLog>>,
    /// Monotonic request ids for the trace log.
    next_request_id: AtomicU64,
    /// Where flight-recorder dumps land (`<trace-log>.flight.json`);
    /// `None` without `--trace-log`, which also disables the `dump`
    /// request and the panic hook.
    flight_path: Option<PathBuf>,
    /// Fixed-capacity ring of registry samples, advanced once per
    /// [`ServerConfig::sample_interval`] by the sampler thread. Every
    /// windowed read (`metrics_history`, `watch`, SLO evaluation)
    /// derives from this one history.
    history: Mutex<TimeSeries>,
    sample_interval: Duration,
    /// SLO evaluation state, driven by the sampler thread.
    slo: Mutex<SloTracker>,
    /// Sampler ticks on which at least one SLO was out of compliance.
    slo_breach_ticks: AtomicU64,
    /// Slow-request trace threshold (µs), when configured.
    slow_log_us: Option<u64>,
}

/// The rotating trace sink: an open writer plus the byte count that
/// decides when to rename the file to `<path>.1` and start fresh. One
/// predecessor is kept — enough to never lose the tail of a long run
/// while bounding disk to roughly twice the cap.
struct TraceLog {
    path: PathBuf,
    writer: BufWriter<File>,
    written: u64,
    max_bytes: u64,
}

impl TraceLog {
    fn create(path: PathBuf, max_bytes: u64) -> std::io::Result<TraceLog> {
        let writer = BufWriter::new(File::create(&path)?);
        Ok(TraceLog {
            path,
            writer,
            written: 0,
            max_bytes,
        })
    }

    /// Appends one complete trace line, rotating first when the line
    /// would push the file past the cap. A line larger than the cap
    /// itself still lands whole — rotation only ever splits *between*
    /// lines, so both files always hold complete JSON records. A cap of
    /// 0 means "no rotation": the file grows without bound.
    fn append(&mut self, line: &str) -> std::io::Result<()> {
        if self.max_bytes > 0
            && self.written > 0
            && self.written + line.len() as u64 > self.max_bytes
        {
            self.rotate()?;
        }
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        self.written += line.len() as u64;
        Ok(())
    }

    fn rotate(&mut self) -> std::io::Result<()> {
        self.writer.flush()?;
        let mut rotated = self.path.clone().into_os_string();
        rotated.push(".1");
        std::fs::rename(&self.path, &rotated)?;
        self.writer = BufWriter::new(File::create(&self.path)?);
        self.written = 0;
        Ok(())
    }
}

/// The serve-layer metric handles that sit on every request's path,
/// registered once so session threads never take the registry lock for
/// them. Per-request-type families (`serve_requests_total{type=…}` and
/// the latency histograms) are resolved through the registry instead —
/// once per request, off the evaluation hot path.
struct ServeMetrics {
    /// Requests currently between accept-of-line and reply.
    inflight: Arc<Gauge>,
    /// Admission refusals (`busy` replies from the job queue bound).
    busy: Arc<Counter>,
    /// Connections refused at the accept loop (connection bound).
    refused: Arc<Counter>,
    /// Cache hits summed over completed jobs (per-job counters, so
    /// one client's traffic is not counted against another's).
    cache_hits: Arc<Counter>,
    /// Cache misses summed over completed jobs.
    cache_misses: Arc<Counter>,
    /// Post-request cache-file flush durations.
    flush_ns: Arc<Histogram>,
    /// Flushes whose append or file rewrite failed.
    flush_errors: Arc<Counter>,
}

impl ServeMetrics {
    fn register(registry: &Registry) -> ServeMetrics {
        ServeMetrics {
            inflight: registry.gauge("serve_inflight_requests"),
            busy: registry.counter("serve_busy_total"),
            refused: registry.counter("serve_connections_refused_total"),
            cache_hits: registry.counter("serve_cache_hits_total"),
            cache_misses: registry.counter("serve_cache_misses_total"),
            flush_ns: registry.histogram("serve_flush_ns"),
            flush_errors: registry.counter("serve_flush_errors_total"),
        }
    }
}

/// Per-request measurement record: filled in by [`handle_request`] as
/// the request moves through parse → queue → execute → flush, then
/// folded into the registry and (optionally) the trace log by the
/// session loop.
#[derive(Default)]
pub(crate) struct RequestSpan {
    /// Monotonic id, unique within one daemon lifetime.
    id: u64,
    /// Owning trace: the client-propagated id, or a daemon-assigned
    /// one. 0 until the line parses (parse errors record no spans).
    trace_id: u64,
    /// The client's remote parent span (0 = this request roots the
    /// tree).
    remote_parent: u64,
    /// The request's root span id in the process span ring; batch and
    /// tune-round spans hang under it.
    root_span: u64,
    /// Request type label (`eval`, `sweep`, …; `parse_error` when the
    /// line never decoded).
    kind: &'static str,
    /// Time spent decoding the request line.
    parse: Duration,
    /// Submission → first claim, summed over the request's jobs.
    queue_wait: Duration,
    /// First claim → completion, summed over the request's jobs.
    execute: Duration,
    /// Post-request cache-file flush time.
    flush: Duration,
    /// Scheduler jobs this request ran (0 for stats/metrics/frontier —
    /// their spans carry no queue/execute time).
    jobs: u64,
    /// Points evaluated (or tuner evaluations) on behalf of this
    /// request.
    pub(crate) points: u64,
    /// Cache hits attributed to this request: its jobs' own, plus an
    /// `eval` answered inline from the cache.
    pub(crate) cache_hits: u64,
    /// Per-job cache misses attributed to this request.
    cache_misses: u64,
    /// The client's pipelining id (`"req"`), echoed on every reply
    /// line of this request. `None` for non-pipelining clients (and
    /// for lines that never parsed), which keeps the wire unchanged.
    req_id: Option<u64>,
}

impl RequestSpan {
    fn new(id: u64) -> RequestSpan {
        RequestSpan {
            id,
            kind: "unknown",
            ..RequestSpan::default()
        }
    }

    /// The scheduler-facing trace reference: who batch spans should
    /// parent onto. `None` before the line parsed (and for parse
    /// errors), which records no spans at all.
    pub(crate) fn trace_ref(&self) -> Option<TraceRef> {
        (self.trace_id != 0).then_some(TraceRef {
            trace_id: self.trace_id,
            parent_span: self.root_span,
        })
    }

    /// Folds one completed scheduler job's timings and cache counters
    /// into the span.
    pub(crate) fn absorb_job(&mut self, job: &JobResult) {
        self.queue_wait += job.queue_wait;
        self.execute += job.execute;
        self.cache_hits += job.cache_hits;
        self.cache_misses += job.cache_misses;
        self.jobs += 1;
    }
}

impl Shared {
    /// The backend's flush, counted into the lifetime report and, when
    /// it fails, into `serve_flush_errors_total`. Called after every
    /// request that may have evaluated something, and once more at
    /// shutdown.
    fn flush(&self) -> std::io::Result<()> {
        let (appended, flushed) = self.backend.flush();
        self.persisted.fetch_add(appended as u64, Ordering::Relaxed);
        if flushed.is_err() {
            self.metrics.flush_errors.inc();
        }
        flushed
    }

    /// Refreshes the scrape-time gauges: state that lives in counters
    /// and structs elsewhere, sampled into the registry so one snapshot
    /// carries everything. Called on every sampler tick *and* on the
    /// `metrics`/`stats` request paths — a daemon with a long
    /// `--sample-interval-ms` must not serve stale queue depth to a
    /// scrape that asked right now.
    fn refresh_gauges(&self) {
        let load = self.backend.counters();
        for (name, value) in [
            ("serve_uptime_seconds", self.registry.uptime().as_secs_f64()),
            (
                "serve_open_connections",
                self.connections.load(Ordering::SeqCst) as f64,
            ),
            ("serve_active_jobs", load.active_jobs as f64),
            ("serve_queue_depth", load.queue_depth as f64),
            ("cache_points", load.cached_points as f64),
            ("cache_hit_rate", load.hit_rate),
        ] {
            self.registry.gauge(name).set(value);
        }
    }

    /// One sampler tick: refresh the scrape-time gauges (so the ring
    /// carries them too, not just `metrics` replies), append a sample
    /// to the history, and evaluate the SLOs against the new window.
    fn take_sample(&self) {
        self.refresh_gauges();
        let breach = {
            let mut history = self.history.lock().expect("history lock poisoned");
            history.sample(&self.registry);
            let mut slo = self.slo.lock().expect("slo lock poisoned");
            slo.evaluate(&history, &self.registry)
        };
        if breach {
            self.slo_breach_ticks.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The sampler thread body: one [`Shared::take_sample`] per
    /// interval, sleeping in short naps so shutdown stays prompt.
    fn sampler_loop(&self) {
        loop {
            let mut slept = Duration::ZERO;
            while slept < self.sample_interval {
                if self.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let nap = (self.sample_interval - slept).min(Duration::from_millis(5));
                std::thread::sleep(nap);
                slept += nap;
            }
            self.take_sample();
        }
    }
}

/// A bound, loaded, ready-to-run daemon.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener and, when configured, replays the cache file.
    ///
    /// # Errors
    ///
    /// Bind failures and cache-file I/O failures (a *corrupt* cache
    /// file is not an error — it loads to its valid prefix — but an
    /// unreadable one, or one with a foreign magic line, is).
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let registry = Registry::new();
        let local = Local::open(&config, &registry)?;
        Server::with_backend(config, registry, Box::new(local))
    }

    /// Binds the session layer over `backend`, whose metrics live in
    /// `registry` beside the session layer's own.
    pub(crate) fn with_backend(
        config: ServerConfig,
        registry: Registry,
        backend: Box<dyn Backend>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind((config.host.as_str(), config.port))?;
        let metrics = ServeMetrics::register(&registry);
        let trace = match &config.trace_log {
            Some(path) => Some(Mutex::new(TraceLog::create(
                path.clone(),
                config.trace_max_bytes,
            )?)),
            None => None,
        };
        let sample_interval = config.sample_interval.max(Duration::from_millis(1));
        let flight_path = config.trace_log.as_ref().map(|p| {
            let mut flight = p.clone().into_os_string();
            flight.push(".flight.json");
            PathBuf::from(flight)
        });
        let shared = Arc::new(Shared {
            backend,
            requests: AtomicU64::new(0),
            persisted: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            connections: AtomicUsize::new(0),
            max_connections: config.max_connections.max(1),
            registry,
            metrics,
            trace,
            next_request_id: AtomicU64::new(1),
            flight_path: flight_path.clone(),
            history: Mutex::new(TimeSeries::new(sample_interval, HISTORY_CAPACITY)),
            sample_interval,
            slo: Mutex::new(SloTracker::new(config.slos)),
            slo_breach_ticks: AtomicU64::new(0),
            slow_log_us: config.slow_log_us,
        });
        if let Some(path) = flight_path {
            register_flight_recorder(path, &shared);
        }
        Ok(Server { listener, shared })
    }

    /// The actually-bound address (resolves port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket introspection failure.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Entries replayed from the cache file at bind time.
    pub fn loaded_from_disk(&self) -> usize {
        self.shared.backend.counters().loaded_from_disk
    }

    /// Serves until a `shutdown` request arrives, then drains, flushes
    /// and returns the lifetime report.
    ///
    /// # Errors
    ///
    /// Fatal listener failures and the final cache flush. Per-connection
    /// I/O errors only terminate that connection.
    pub fn run(self) -> std::io::Result<ServerReport> {
        // Poll-accept so the loop can observe the shutdown flag; 5 ms
        // keeps idle CPU at noise level while staying prompt.
        self.listener.set_nonblocking(true)?;
        let shared = &self.shared;
        std::thread::scope(|scope| -> std::io::Result<()> {
            shared.backend.run_workers(scope);
            // The sampler: one registry snapshot per interval into the
            // metrics history ring, plus SLO evaluation.
            scope.spawn(|| shared.sampler_loop());
            let mut outcome = Ok(());
            while !shared.shutdown.load(Ordering::SeqCst) {
                match self.listener.accept() {
                    Ok((stream, _addr)) => {
                        // Replies are small and a pipelining client
                        // stuffs many requests down before reading:
                        // without TCP_NODELAY, Nagle holds each reply
                        // for the peer's delayed ACK once the lockstep
                        // request/reply rhythm is gone.
                        stream.set_nodelay(true).ok();
                        // The connection bound is enforced here, at the
                        // accept loop: beyond it the daemon answers one
                        // `busy` line and closes instead of accumulating
                        // session threads for idle sockets.
                        let open = shared.connections.load(Ordering::SeqCst);
                        if open >= shared.max_connections {
                            shared.metrics.refused.inc();
                            refuse_connection(stream, open, shared.max_connections);
                            continue;
                        }
                        shared.connections.fetch_add(1, Ordering::SeqCst);
                        let s = Arc::clone(shared);
                        // Detached on purpose: a session blocked on an
                        // idle client must not block shutdown. Sessions
                        // hold only an Arc and die with the process (or
                        // return Busy/ShuttingDown after drain).
                        std::thread::spawn(move || {
                            serve_connection(stream, &s);
                            s.connections.fetch_sub(1, Ordering::SeqCst);
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(e) => {
                        outcome = Err(e);
                        break;
                    }
                }
            }
            // Wake the pool so the scope can join the drained workers —
            // on the clean path admission is already closed (the
            // shutdown handler did it before setting the flag), and on
            // the error path this is what closes it. The flag is also
            // (re)set here so the sampler thread exits on the error
            // path, where no shutdown request ever stored it.
            shared.shutdown.store(true, Ordering::SeqCst);
            shared.backend.begin_shutdown();
            outcome
        })?;
        shared.flush()?;
        let counters = shared.backend.counters();
        Ok(ServerReport {
            requests: shared.requests.load(Ordering::Relaxed),
            loaded_from_disk: counters.loaded_from_disk,
            persisted: shared.persisted.load(Ordering::Relaxed) as usize,
            cached_points: counters.cached_points,
        })
    }
}

/// Metrics history ring capacity in samples. With the default 250 ms
/// interval, 256 samples hold just over a minute of history — enough
/// for the 1 s/10 s/60 s windows `metrics_history` reports.
const HISTORY_CAPACITY: usize = 256;

/// Longest request line the daemon will buffer. Real requests are a
/// few hundred bytes (the largest is a sweep spec with explicit axis
/// lists); anything bigger is a hostile or broken client, and an
/// unbounded `read_line` would buffer it into daemon memory wholesale.
const MAX_REQUEST_BYTES: u64 = 1 << 20;

/// The line-streaming writer every response line goes through: one
/// `\n`-terminated JSON object per [`LineSink::send`], **flushed
/// immediately**. For single-reply requests the flush is merely
/// prompt; for the streaming requests (`tune_frontier`, `frontier`
/// with `"stream":true`, `watch`) it is the contract — each result
/// line reaches the client as it is produced, before the next
/// step/entry/sample is computed.
struct LineSink<'a> {
    writer: &'a mut dyn Write,
    req_id: Option<u64>,
}

impl<'a> LineSink<'a> {
    /// Wraps a transport writer (a `BufWriter<TcpStream>` in the
    /// daemon; anything `Write` in tests) and stamps every line with
    /// the pipelining id the client sent (`None` leaves the wire
    /// unchanged). Streamed lines carry the id too — that is what lets
    /// a pipelining client attribute every line of an interleaved
    /// session to the request that produced it.
    fn with_id(writer: &'a mut dyn Write, req_id: Option<u64>) -> Self {
        LineSink { writer, req_id }
    }

    /// Writes one response line and flushes it to the peer.
    ///
    /// # Errors
    ///
    /// The underlying transport failure — the peer is gone; abandon
    /// the session.
    fn send(&mut self, response: &Response) -> std::io::Result<()> {
        let mut wire = response.encode_with_req(self.req_id);
        wire.push('\n');
        self.writer.write_all(wire.as_bytes())?;
        self.writer.flush()
    }
}

/// How one request left the session: a normal reply (plus whether the
/// session must stop afterwards), or a streamed response that already
/// went through the sink (plus whether the sink died mid-stream).
enum RequestOutcome {
    Reply(Box<Response>, bool),
    Streamed { sink_dead: bool },
}

impl RequestOutcome {
    /// A single-reply outcome (boxed so the streamed variant stays
    /// pointer-sized).
    fn reply(response: Response, stop_after_reply: bool) -> Self {
        RequestOutcome::Reply(Box::new(response), stop_after_reply)
    }
}

/// Answers one `busy` line on a just-accepted socket and drops it —
/// the connection-bound refusal path.
fn refuse_connection(stream: TcpStream, active: usize, capacity: usize) {
    let _ = LineSink::with_id(&mut BufWriter::new(stream), None)
        .send(&Response::Busy { active, capacity });
}

/// One session: line in, line out, until EOF or shutdown.
fn serve_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let Ok(peer_read) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(peer_read);
    let mut writer = BufWriter::new(stream);
    let mut session = shared.backend.session();
    let mut line = String::new();
    loop {
        line.clear();
        match (&mut reader).take(MAX_REQUEST_BYTES).read_line(&mut line) {
            Ok(0) => return,  // clean EOF
            Err(_) => return, // peer went away
            Ok(_) if line.len() as u64 >= MAX_REQUEST_BYTES && !line.ends_with('\n') => {
                // Oversized request: answer once, drop the connection
                // (the rest of the line cannot be resynchronized).
                let refusal = format!("request exceeds {MAX_REQUEST_BYTES} bytes");
                let _ = LineSink::with_id(&mut writer, None).send(&Response::error(refusal));
                return;
            }
            Ok(_) => {}
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        shared.requests.fetch_add(1, Ordering::Relaxed);
        let received = Instant::now();
        shared.metrics.inflight.inc();
        let mut span = RequestSpan::new(shared.next_request_id.fetch_add(1, Ordering::Relaxed));
        let outcome = handle_request(trimmed, shared, &mut *session, &mut writer, &mut span);
        shared.metrics.inflight.dec();
        let status = match &outcome {
            RequestOutcome::Reply(response, _) => match **response {
                Response::Error { .. } => "error",
                Response::Busy { .. } => "busy",
                _ => "ok",
            },
            RequestOutcome::Streamed { sink_dead: false } => "ok",
            RequestOutcome::Streamed { sink_dead: true } => "disconnect",
        };
        record_span(shared, &span, status, received, received.elapsed());
        match outcome {
            RequestOutcome::Reply(response, stop_after_reply) => {
                let mut wire = response.encode_with_req(span.req_id);
                wire.push('\n');
                if writer.write_all(wire.as_bytes()).is_err() {
                    return;
                }
                // Pipelining: when the client has already buffered the
                // next request line, hold the flush so a whole burst of
                // replies coalesces into one write syscall (and fewer
                // packets). A lockstep client always sees an immediate
                // flush — its next line cannot be buffered yet.
                let more_pending = reader.buffer().contains(&b'\n');
                if (!more_pending || stop_after_reply) && writer.flush().is_err() {
                    return;
                }
                if stop_after_reply {
                    shared.shutdown.store(true, Ordering::SeqCst);
                    return;
                }
            }
            RequestOutcome::Streamed { sink_dead } => {
                if sink_dead {
                    return;
                }
            }
        }
    }
}

/// Folds one finished request's span into the registry (per-type
/// counter and latency families, busy counter, per-job cache traffic),
/// records the request's root + phase spans into the causal-trace ring,
/// and appends its trace line when `--trace-log` is on.
fn record_span(
    shared: &Shared,
    span: &RequestSpan,
    status: &str,
    received: Instant,
    total: Duration,
) {
    record_trace_spans(span, received, total);
    let labels: &[(&str, &str)] = &[("type", span.kind)];
    let registry = &shared.registry;
    registry.counter_with("serve_requests_total", labels).inc();
    registry
        .histogram_with("serve_request_ns", labels)
        .record_duration(total);
    registry
        .histogram_with("serve_parse_ns", labels)
        .record_duration(span.parse);
    if span.jobs > 0 {
        // Only requests that ran scheduler jobs carry queue/execute
        // time; recording zeros for stats/metrics/frontier would
        // poison the wait-time quantiles.
        registry
            .histogram_with("serve_queue_wait_ns", labels)
            .record_duration(span.queue_wait);
        registry
            .histogram_with("serve_execute_ns", labels)
            .record_duration(span.execute);
    }
    if status == "busy" {
        shared.metrics.busy.inc();
    }
    shared.metrics.cache_hits.add(span.cache_hits);
    shared.metrics.cache_misses.add(span.cache_misses);
    let slow = shared
        .slow_log_us
        .is_some_and(|threshold| total.as_micros() as u64 >= threshold);
    if slow {
        registry
            .counter_with("serve_slow_requests_total", labels)
            .inc();
    }
    let Some(trace) = &shared.trace else { return };
    // Hand-rolled JSON: every field is a number or a static label, so
    // no escaping is needed.
    let mut line = format!(
        concat!(
            "{{\"id\":{},\"type\":\"{}\",\"status\":\"{}\",\"parse_us\":{},",
            "\"queue_wait_us\":{},\"execute_us\":{},\"flush_us\":{},\"total_us\":{},",
            "\"jobs\":{},\"points\":{},\"cache_hits\":{},\"cache_misses\":{}"
        ),
        span.id,
        span.kind,
        status,
        span.parse.as_micros(),
        span.queue_wait.as_micros(),
        span.execute.as_micros(),
        span.flush.as_micros(),
        total.as_micros(),
        span.jobs,
        span.points,
        span.cache_hits,
        span.cache_misses,
    );
    if span.trace_id != 0 {
        line.push_str(&format!(",\"trace\":{}", span.trace_id));
    }
    if slow {
        line.push_str(",\"slow\":true");
    }
    line.push_str("}\n");
    if let Ok(mut sink) = trace.lock() {
        let _ = sink.append(&line);
    }
}

/// Records the finished request into the span ring: one root span for
/// the whole request plus phase children (parse, then queue-wait and
/// execute when scheduler jobs ran, then flush). The phases were timed
/// independently on the session thread, so children are laid out
/// sequentially from the root start with each duration clamped to the
/// root's remainder — the invariants "children nest inside the root"
/// and "queue_wait + execute ≤ total" hold by construction.
fn record_trace_spans(span: &RequestSpan, received: Instant, total: Duration) {
    if span.trace_id == 0 {
        // Parse failures never resolve a trace context; nothing to file.
        return;
    }
    let spans = obs_trace::spans();
    if !spans.is_enabled() {
        return;
    }
    spans.record(&obs_trace::Span {
        trace_id: span.trace_id,
        span_id: span.root_span,
        parent_id: span.remote_parent,
        name: span.kind,
        start: received,
        dur: total,
        worker: None,
        points: span.points.min(u64::from(u32::MAX)) as u32,
    });
    let mut phases: Vec<(&str, Duration)> = vec![("parse", span.parse)];
    if span.jobs > 0 {
        phases.push(("queue_wait", span.queue_wait));
        phases.push(("execute", span.execute));
    }
    phases.push(("flush", span.flush));
    let mut cursor = Duration::ZERO;
    for (name, dur) in phases {
        let dur = dur.min(total.saturating_sub(cursor));
        spans.record(&obs_trace::Span {
            trace_id: span.trace_id,
            span_id: obs_trace::next_span_id(),
            parent_id: span.root_span,
            name,
            start: received + cursor,
            dur,
            worker: None,
            points: 0,
        });
        cursor += dur;
    }
}

/// Runs the post-request cache flush and times it into the span and
/// the `serve_flush_ns` histogram. A failure is counted, not returned:
/// the reply still goes out, and the next flush retries.
fn timed_flush(shared: &Shared, span: &mut RequestSpan) {
    let started = Instant::now();
    let _ = shared.flush();
    span.flush = started.elapsed();
    shared.metrics.flush_ns.record_duration(span.flush);
}

/// Dispatches one parsed request to its function. Streaming requests
/// write their lines through `writer` themselves; everything else
/// returns the single reply for the session loop to send (the bool asks
/// the session to close and trip the daemon shutdown flag after
/// replying).
fn handle_request(
    line: &str,
    shared: &Shared,
    session: &mut dyn Session,
    writer: &mut dyn Write,
    span: &mut RequestSpan,
) -> RequestOutcome {
    let parse_started = Instant::now();
    let (request, meta) = match Request::decode_with_meta(line) {
        Ok(pair) => pair,
        Err(e) => {
            span.parse = parse_started.elapsed();
            span.kind = "parse_error";
            return RequestOutcome::reply(Response::error(e), false);
        }
    };
    span.parse = parse_started.elapsed();
    span.req_id = meta.req_id;
    // Every well-formed request gets a trace: the client's propagated
    // context when present, a daemon-assigned id otherwise (offset so
    // it can never collide with small client-chosen ids).
    let ctx = meta.trace.unwrap_or_else(|| TraceContext {
        id: obs_trace::next_trace_id(),
        parent: 0,
    });
    span.trace_id = ctx.id;
    span.remote_parent = ctx.parent;
    span.root_span = obs_trace::next_span_id();
    span.kind = request.tag();
    // Requests that may evaluate something flush the fresh evaluations
    // to the cache file before replying.
    let evaluates = matches!(
        request,
        Request::Eval(_)
            | Request::EvalBatch(_)
            | Request::Sweep(_)
            | Request::Tune(_)
            | Request::TuneFrontier(_)
    );
    let reply = |response| RequestOutcome::reply(response, false);
    let outcome = match request {
        Request::Eval(point) => reply(session.eval(point, span)),
        Request::EvalBatch(points) => reply(eval_batch(session, points, span)),
        Request::Sweep(spec) => reply(match spec.validate() {
            Err(e) => Response::error(e),
            Ok(()) => session.sweep(&spec, span),
        }),
        Request::Tune(request) => reply(tune(shared, session, &request, span)),
        Request::TuneFrontier(request) => tune_frontier(shared, session, &request, writer, span),
        Request::Frontier { dims, sqnr, stream } => {
            frontier(session, dims, sqnr, stream, writer, span.req_id)
        }
        Request::Stats => reply(stats(shared, session)),
        Request::Metrics => {
            // Scrape-time gauges: refreshed here as well as on sampler
            // ticks, so a scrape never reads values as stale as the
            // sampler interval.
            shared.refresh_gauges();
            // The daemon's own registry plus the process-global one:
            // dse/tuner-layer metrics (`dse_*`, `tuner_*`) record to
            // the global registry, and the name prefixes are disjoint
            // from the serve/sched families, so the merge is clean.
            let snapshot = shared
                .registry
                .snapshot()
                .merge(chain_nn_obs::global().snapshot());
            reply(Response::Metrics { snapshot })
        }
        Request::MetricsHistory => {
            let history = shared.history.lock().expect("history lock poisoned");
            reply(Response::MetricsHistory(Box::new(build_history(&history))))
        }
        Request::Watch { samples } => watch(shared, samples, writer, span),
        Request::TraceQuery { id } => {
            let spans = obs_trace::spans();
            reply(Response::Trace {
                id,
                dropped: spans.dropped(),
                spans: spans.for_trace(id),
            })
        }
        Request::Dump => reply(dump(shared)),
        Request::Shutdown => {
            // Close admission *before* acknowledging, so nothing new
            // slips in between the reply and the accept loop noticing.
            shared.backend.begin_shutdown();
            session.shutdown();
            RequestOutcome::reply(Response::Shutdown, true)
        }
    };
    if evaluates {
        timed_flush(shared, span);
    }
    outcome
}

/// `eval_batch`: one outcome per point, in order — the coordinator's
/// scatter-gather primitive. An empty batch short-circuits (there is
/// nothing to schedule).
fn eval_batch(
    session: &mut dyn Session,
    points: Vec<DesignPoint>,
    span: &mut RequestSpan,
) -> Response {
    let total = points.len() as u64;
    let batch = if total == 0 {
        Evaluated::default()
    } else {
        match session.eval_points(points, None, span) {
            Ok(batch) => batch,
            Err(failure) => return failure.into(),
        }
    };
    span.points = total;
    Response::EvalBatch {
        outcomes: batch.outcomes,
        cache_hits: batch.hits,
        cache_misses: batch.misses,
    }
}

/// The tuner's view of a backend for one `tune` or `tune_frontier`:
/// one admission slot held until the evaluator drops, however many
/// rounds run, and each round's expanded point list one
/// [`Session::eval_points`] inside it, recorded as a `tune_round` span
/// under the request's root. Sets `degraded` when any round lost a
/// shard.
fn rounds<'a>(
    shared: &'a Shared,
    session: &'a mut dyn Session,
    span: &'a mut RequestSpan,
    degraded: &'a mut bool,
) -> Result<impl MixEvaluator + 'a, Failure> {
    let slot = shared.backend.admit().map_err(Failure::Refused)?;
    Ok(BatchFnEvaluator::new(move |points: &[DesignPoint]| {
        let round_started = Instant::now();
        let batch = session.eval_points(points.to_vec(), slot.as_ref(), span)?;
        *degraded |= batch.degraded;
        if let Some(t) = span.trace_ref() {
            obs_trace::spans().record(&obs_trace::Span {
                trace_id: t.trace_id,
                span_id: obs_trace::next_span_id(),
                parent_id: t.parent_span,
                name: "tune_round",
                start: round_started,
                dur: round_started.elapsed(),
                worker: None,
                points: points.len().min(u32::MAX as usize) as u32,
            });
        }
        Ok((batch.outcomes, batch.hits, batch.misses))
    }))
}

/// `tune`: one unit of admission however many rounds it runs; its
/// rounds are ordinary jobs in the fair rotation, so concurrent sweeps
/// interleave with every round.
fn tune(
    shared: &Shared,
    session: &mut dyn Session,
    request: &TuneRequest,
    span: &mut RequestSpan,
) -> Response {
    let mut degraded = false;
    let result = match rounds(shared, session, span, &mut degraded) {
        Err(failure) => return failure.into(),
        Ok(mut evaluator) => chain_nn_tuner::tune(request, &mut evaluator),
    };
    match result {
        Err(e) => Response::error(e),
        Ok(report) => {
            span.points = report.evaluations;
            Response::Tune(TuneSummary {
                best: report.best,
                evaluations: report.evaluations,
                cache_hits: report.cache_hits,
                cache_misses: report.cache_misses,
                rounds: report.rounds,
                exhaustive_points: report.exhaustive_points,
                degraded,
            })
        }
    }
}

/// `tune_frontier`: one admission slot for the WHOLE budget sweep,
/// exactly as a plain tune holds one slot across its rounds, with each
/// step's result streamed as it lands.
fn tune_frontier(
    shared: &Shared,
    session: &mut dyn Session,
    request: &FrontierTuneRequest,
    writer: &mut dyn Write,
    span: &mut RequestSpan,
) -> RequestOutcome {
    let steps = request.sweep.values.len();
    let mut sink = LineSink::with_id(writer, span.req_id);
    let mut sink_dead = false;
    let result = match rounds(shared, session, span, &mut false) {
        Err(failure) => return RequestOutcome::reply(failure.into(), false),
        Ok(mut evaluator) => frontier::tune_frontier(request, &mut evaluator, |i, step| {
            let line = Response::TuneFrontierStep(FrontierStepSummary {
                step: i,
                steps,
                result: step.clone(),
            });
            sink.send(&line).map_err(|_| {
                sink_dead = true;
                TuneError::Backend("client closed the stream".to_owned())
            })
        }),
    };
    match result {
        Ok(report) => {
            span.points = report.evaluations;
            let done = Response::TuneFrontierDone(FrontierDoneSummary {
                steps: report.steps.len(),
                frontier: report.frontier,
                evaluations: report.evaluations,
                standalone_evaluations: report.standalone_evaluations,
                cache_hits: report.cache_hits,
                cache_misses: report.cache_misses,
                exhaustive_points: report.exhaustive_points,
            });
            sink_dead = sink_dead || sink.send(&done).is_err();
            RequestOutcome::Streamed { sink_dead }
        }
        // A pre-stream spec error is an ordinary error reply; a
        // mid-stream failure terminates the stream with one error line
        // (the framing rule allows it in place of `done`).
        Err(e) if !sink_dead => RequestOutcome::Streamed {
            sink_dead: sink.send(&Response::error(e)).is_err(),
        },
        Err(_) => RequestOutcome::Streamed { sink_dead: true },
    }
}

/// `frontier`: the Pareto frontier of the backend's candidate entries,
/// as one reply or (`stream`) one entry per line then the terminal
/// line, so a client starts consuming a very large frontier while it
/// is still being written.
fn frontier(
    session: &mut dyn Session,
    dims: u8,
    sqnr: bool,
    stream: bool,
    writer: &mut dyn Write,
    req_id: Option<u64>,
) -> RequestOutcome {
    let (entries, degraded) = session.frontier_entries(dims, sqnr);
    let objectives: Vec<(usize, pareto::Objectives)> = entries
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
    if stream {
        let mut sink = LineSink::with_id(writer, req_id);
        for &i in &keep {
            let line = Response::FrontierStreamEntry {
                entry: entries[i].clone(),
            };
            if sink.send(&line).is_err() {
                return RequestOutcome::Streamed { sink_dead: true };
            }
        }
        let done = Response::FrontierStreamDone {
            dims,
            entries: keep.len(),
            degraded,
        };
        return RequestOutcome::Streamed {
            sink_dead: sink.send(&done).is_err(),
        };
    }
    let entries = keep.into_iter().map(|i| entries[i].clone()).collect();
    RequestOutcome::reply(
        Response::Frontier {
            dims,
            entries,
            degraded,
        },
        false,
    )
}

/// `stats`: the session layer's counters, then the backend's half.
fn stats(shared: &Shared, session: &mut dyn Session) -> Response {
    // A scrape-adjacent path: refresh the gauges here too, so a
    // registry snapshot taken right after a `stats` reply agrees with
    // it even under a long sampler interval.
    shared.refresh_gauges();
    let mut stats = ServerStats {
        requests: shared.requests.load(Ordering::Relaxed),
        open_connections: shared.connections.load(Ordering::SeqCst),
        max_connections: shared.max_connections,
        uptime_s: shared.registry.uptime().as_secs_f64(),
        // Includes this stats request itself — the session loop holds
        // the in-flight gauge across the handler.
        inflight_requests: shared.metrics.inflight.get().max(0.0) as usize,
        slos: shared.slo.lock().expect("slo lock poisoned").len(),
        slo_breach_ticks: shared.slo_breach_ticks.load(Ordering::Relaxed),
        ..shared.backend.counters()
    };
    session.stats(&mut stats);
    Response::Stats(stats)
}

/// `watch`: the second streaming request category — instead of N
/// precomputed result lines, one line per *sampler tick*, pushed as the
/// tick lands. No admission slot: a watcher only reads the history
/// ring, and a dashboard must not occupy capacity a sweep could use.
fn watch(
    shared: &Shared,
    samples: u64,
    writer: &mut dyn Write,
    span: &mut RequestSpan,
) -> RequestOutcome {
    let mut sink = LineSink::with_id(writer, span.req_id);
    let mut last_seq = shared.history.lock().expect("history lock poisoned").seq();
    let mut sent: u64 = 0;
    while (samples == 0 || sent < samples) && !shared.shutdown.load(Ordering::SeqCst) {
        let next = {
            let history = shared.history.lock().expect("history lock poisoned");
            if history.seq() > last_seq {
                last_seq = history.seq();
                Some(build_watch_sample(&history, shared))
            } else {
                None
            }
        };
        match next {
            Some(sample) => {
                if sink.send(&Response::WatchSample(Box::new(sample))).is_err() {
                    return RequestOutcome::Streamed { sink_dead: true };
                }
                sent += 1;
                span.points = sent;
            }
            None => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    let done = Response::WatchDone { samples: sent };
    RequestOutcome::Streamed {
        sink_dead: sink.send(&done).is_err(),
    }
}

/// `dump`: writes the flight file now, when `--trace-log` armed it.
fn dump(shared: &Shared) -> Response {
    match &shared.flight_path {
        None => Response::error("flight recorder disabled: start the daemon with --trace-log"),
        Some(path) => match write_flight_file(path, shared) {
            Err(e) => Response::error(format!("flight dump failed: {e}")),
            Ok(spans) => Response::Dump {
                path: path.display().to_string(),
                spans,
                dropped: obs_trace::spans().dropped(),
            },
        },
    }
}

/// Per-request-type rows for one window: how many requests of each
/// type landed in it and their windowed latency quantiles. Types with
/// no traffic in the window are omitted — a dashboard shows what is
/// happening now, not every label ever seen.
fn type_windows(window: &Window) -> Vec<HistoryTypeWindow> {
    window
        .histogram_labels("serve_request_ns")
        .into_iter()
        .filter_map(|(_, labels)| {
            let kind = &labels.iter().find(|(k, _)| k == "type")?.1;
            let hist = window.histogram("serve_request_ns", &[("type", kind)])?;
            if hist.count() == 0 {
                return None;
            }
            Some(HistoryTypeWindow {
                kind: kind.clone(),
                requests: window.counter_delta("serve_requests_total", &[("type", kind)]),
                p50_us: hist.quantile(0.5) / 1e3,
                p99_us: hist.quantile(0.99) / 1e3,
            })
        })
        .collect()
}

/// The `metrics_history` reply: the ring's shape plus 1 s / 10 s / 60 s
/// windows, each with overall rates and per-type latency quantiles.
fn build_history(history: &TimeSeries) -> MetricsHistory {
    let windows = [1_u64, 10, 60]
        .into_iter()
        .map(|secs| {
            let window = history.window(Duration::from_secs(secs));
            HistoryWindow {
                window_s: secs as f64,
                duration_s: window.duration.as_secs_f64(),
                samples: window.samples,
                req_per_sec: window.family_rate("serve_requests_total"),
                points_per_sec: window.rate("sched_points_total", &[]),
                types: type_windows(&window),
            }
        })
        .collect();
    MetricsHistory {
        interval_s: history.interval().as_secs_f64(),
        samples: history.seq(),
        capacity: history.capacity(),
        windows,
    }
}

/// One `watch` stream line: the trailing-second window's rates and
/// quantiles plus instantaneous daemon state (in-flight, queue depth,
/// cache hit rate) read live at sample-build time.
fn build_watch_sample(history: &TimeSeries, shared: &Shared) -> WatchSample {
    let window = history.window(Duration::from_secs(1));
    let load = shared.backend.counters();
    WatchSample {
        seq: history.seq(),
        interval_s: history.interval().as_secs_f64(),
        window_s: window.duration.as_secs_f64(),
        req_per_sec: window.family_rate("serve_requests_total"),
        points_per_sec: window.rate("sched_points_total", &[]),
        inflight: shared.metrics.inflight.get().max(0.0) as u64,
        active_jobs: load.active_jobs as u64,
        queue_depth: load.queue_depth as u64,
        cache_hit_rate: load.hit_rate,
        requests_total: shared.requests.load(Ordering::Relaxed),
        queue_wait_p99_us: window
            .histogram_family("serve_queue_wait_ns")
            .quantile(0.99)
            / 1e3,
        execute_p99_us: window.histogram_family("serve_execute_ns").quantile(0.99) / 1e3,
        types: type_windows(&window),
    }
}

/// One flight-recorder registration: where the daemon's dump goes.
/// `Weak` so a finished server doesn't stay alive just because the
/// process-global hook once knew about it.
type FlightEntry = (PathBuf, Weak<Shared>);

/// Daemons registered for flight dumps. The panic hook walks this list
/// and writes each live daemon's flight file before the default hook
/// prints the backtrace.
static FLIGHT: OnceLock<Mutex<Vec<FlightEntry>>> = OnceLock::new();
/// Installs the panic hook at most once per process, chaining whatever
/// hook was already installed.
static FLIGHT_HOOK: Once = Once::new();

/// Arms the flight recorder for one daemon: remembers where its dump
/// goes and (first call only) installs a panic hook that writes every
/// registered daemon's flight file on the way down. Called from
/// [`Server::bind`] when `--trace-log` is configured.
fn register_flight_recorder(path: PathBuf, shared: &Arc<Shared>) {
    let daemons = FLIGHT.get_or_init(|| Mutex::new(Vec::new()));
    if let Ok(mut list) = daemons.lock() {
        list.retain(|(_, weak)| weak.strong_count() > 0);
        list.push((path, Arc::downgrade(shared)));
    }
    FLIGHT_HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if let Some(daemons) = FLIGHT.get() {
                if let Ok(list) = daemons.lock() {
                    for (path, weak) in list.iter() {
                        if let Some(shared) = weak.upgrade() {
                            let _ = write_flight_file(path, &shared);
                        }
                    }
                }
            }
            previous(info);
        }));
    });
}

/// One span of the flight file. Unlike a `trace` reply (scoped to one
/// trace id), the flight dump spans every recent trace, so the trace id
/// is spelled out per span.
struct FlightSpan {
    trace: u64,
    span: chain_nn_obs::trace::SpanRecord,
}

wire_struct! { FlightSpan as _s { "trace": trace, ..span } }

/// The flight file: the span ring's recent contents (oldest first)
/// plus a current metrics snapshot, so a postmortem sees both what the
/// daemon was doing and what its counters said.
struct FlightFile {
    dropped: u64,
    spans: Vec<FlightSpan>,
    metrics: Vec<chain_nn_obs::MetricEntry>,
}

wire_struct! { FlightFile as _f { "dropped": dropped, "spans": spans, "metrics": metrics } }

/// Writes the flight file (one JSON line, see [`FlightFile`]). Returns
/// the span count written.
fn write_flight_file(path: &Path, shared: &Shared) -> std::io::Result<usize> {
    let ring = obs_trace::spans();
    let mut records = ring.snapshot();
    records.sort_by_key(|s| (s.start_us, s.span_id));
    let count = records.len();
    let snapshot = shared
        .registry
        .snapshot()
        .merge(chain_nn_obs::global().snapshot());
    let flight = FlightFile {
        dropped: ring.dropped(),
        spans: records
            .into_iter()
            .map(|span| FlightSpan {
                trace: span.trace_id,
                span,
            })
            .collect(),
        metrics: snapshot.entries,
    };
    let mut line = String::new();
    flight.put(&mut line);
    line.push('\n');
    File::create(path)?.write_all(line.as_bytes())?;
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A transport stand-in that records, at every flush, how many
    /// admitted jobs the scheduler still holds. A streamed line
    /// flushing while the request's admission slot is live proves the
    /// line reached the transport *before* the request completed —
    /// the deterministic form of "the first step line arrives before
    /// the last step finishes".
    struct Probe {
        shared: Arc<Shared>,
        buffer: Vec<u8>,
        lines: Vec<String>,
        active_at_flush: Vec<usize>,
    }

    impl Probe {
        fn new(shared: &Arc<Shared>) -> Self {
            Probe {
                shared: Arc::clone(shared),
                buffer: Vec::new(),
                lines: Vec::new(),
                active_at_flush: Vec::new(),
            }
        }
    }

    impl Write for Probe {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.buffer.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.active_at_flush
                .push(self.shared.backend.counters().active_jobs);
            while let Some(pos) = self.buffer.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buffer.drain(..=pos).collect();
                self.lines.push(
                    String::from_utf8(line)
                        .expect("utf-8")
                        .trim_end()
                        .to_owned(),
                );
            }
            Ok(())
        }
    }

    fn with_workers<R>(shared: &Arc<Shared>, body: impl FnOnce() -> R) -> R {
        // Shuts the scheduler down however `body` ends: after a failed
        // assertion too, or the workers would wait for work forever and
        // the scope would never join.
        struct Shutdown<'a>(&'a Shared);
        impl Drop for Shutdown<'_> {
            fn drop(&mut self) {
                self.0.backend.begin_shutdown();
            }
        }
        std::thread::scope(|scope| {
            shared.backend.run_workers(scope);
            let _shutdown = Shutdown(shared);
            body()
        })
    }

    /// [`handle_request`] on a fresh session of `shared`'s backend.
    fn handle(
        line: &str,
        shared: &Shared,
        writer: &mut dyn Write,
        span: &mut RequestSpan,
    ) -> RequestOutcome {
        handle_request(line, shared, &mut *shared.backend.session(), writer, span)
    }

    /// Drives one request line through the same span + record path the
    /// session loop uses, returning the outcome.
    fn handle_instrumented(line: &str, shared: &Arc<Shared>) -> RequestOutcome {
        let received = Instant::now();
        let mut span = RequestSpan::new(shared.next_request_id.fetch_add(1, Ordering::Relaxed));
        let outcome = handle(line, shared, &mut Probe::new(shared), &mut span);
        let status = match &outcome {
            RequestOutcome::Reply(response, _) => match **response {
                Response::Error { .. } => "error",
                Response::Busy { .. } => "busy",
                _ => "ok",
            },
            RequestOutcome::Streamed { sink_dead } => {
                if *sink_dead {
                    "disconnect"
                } else {
                    "ok"
                }
            }
        };
        record_span(shared, &span, status, received, received.elapsed());
        outcome
    }

    #[test]
    fn metrics_reply_reconciles_with_the_requests_made() {
        let server = Server::bind(ServerConfig {
            threads: 2,
            ..ServerConfig::default()
        })
        .expect("bind");
        let shared = Arc::clone(&server.shared);
        let snapshot = with_workers(&shared, || {
            let eval = r#"{"type":"eval","point":{"pes":288}}"#;
            for _ in 0..3 {
                assert!(matches!(
                    handle_instrumented(eval, &shared),
                    RequestOutcome::Reply(r, false) if matches!(*r, Response::Eval { .. })
                ));
            }
            let sweep = r#"{"type":"sweep","spec":{"pes":[144,288],"nets":"lenet"}}"#;
            assert!(matches!(
                handle_instrumented(sweep, &shared),
                RequestOutcome::Reply(r, false) if matches!(*r, Response::Sweep(_))
            ));
            match handle_instrumented(r#"{"type":"metrics"}"#, &shared) {
                RequestOutcome::Reply(r, false) => match *r {
                    Response::Metrics { snapshot } => snapshot,
                    other => panic!("expected a metrics reply, got {other:?}"),
                },
                _ => panic!("expected a metrics reply"),
            }
        });
        let eval_labels: &[(&str, &str)] = &[("type", "eval")];
        assert_eq!(
            snapshot.counter("serve_requests_total", eval_labels),
            Some(3)
        );
        assert_eq!(
            snapshot.counter("serve_requests_total", &[("type", "sweep")]),
            Some(1)
        );
        let latency = snapshot
            .histogram("serve_request_ns", eval_labels)
            .expect("eval latency histogram");
        assert_eq!(latency.count, 3);
        assert!(latency.p50 > 0.0 && latency.p99 >= latency.p50);
        let execute = snapshot
            .histogram("serve_execute_ns", eval_labels)
            .expect("eval execute histogram");
        assert_eq!(execute.count, 1);
        let queue_wait = snapshot
            .histogram("serve_queue_wait_ns", eval_labels)
            .expect("eval queue-wait histogram");
        assert_eq!(queue_wait.count, 1);
        // The scheduler-side metrics live in the same (private)
        // registry: the first (cold) eval + the 2-point sweep → 3
        // scheduled points; the two warm repeat evals were answered
        // inline from the cache and never entered the scheduler.
        assert_eq!(snapshot.counter("sched_points_total", &[]), Some(3));
        // Scrape-time gauges were sampled into the snapshot.
        assert!(snapshot.gauge("serve_uptime_seconds", &[]).expect("uptime") > 0.0);
        assert_eq!(
            snapshot.gauge("cache_points", &[]),
            Some(shared.backend.counters().cached_points as f64)
        );
        // Two daemons must not share request counters: a fresh one
        // starts at zero even in this same process.
        let other = Server::bind(ServerConfig::default()).expect("bind");
        assert!(other
            .shared
            .registry
            .snapshot()
            .counter("serve_requests_total", eval_labels)
            .is_none());
    }

    #[test]
    fn trace_log_records_one_line_per_request_with_phase_timings() {
        let dir = std::env::temp_dir().join(format!("chain-nn-trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("trace.jsonl");
        let server = Server::bind(ServerConfig {
            threads: 2,
            trace_log: Some(path.clone()),
            ..ServerConfig::default()
        })
        .expect("bind");
        let shared = Arc::clone(&server.shared);
        with_workers(&shared, || {
            let eval = r#"{"type":"eval","point":{"pes":288}}"#;
            assert!(matches!(
                handle_instrumented(eval, &shared),
                RequestOutcome::Reply(r, false) if matches!(*r, Response::Eval { .. })
            ));
            assert!(matches!(
                handle_instrumented("not json", &shared),
                RequestOutcome::Reply(r, false) if matches!(*r, Response::Error { .. })
            ));
            // The same point again: a hit answered inline, no job.
            assert!(matches!(
                handle_instrumented(eval, &shared),
                RequestOutcome::Reply(r, false) if matches!(*r, Response::Eval { .. })
            ));
        });
        let trace = std::fs::read_to_string(&path).expect("trace file");
        let lines: Vec<&str> = trace.lines().collect();
        assert_eq!(lines.len(), 3, "{trace}");
        assert!(lines[0].contains("\"type\":\"eval\"") && lines[0].contains("\"status\":\"ok\""));
        assert!(lines[0].contains("\"queue_wait_us\":") && lines[0].contains("\"execute_us\":"));
        assert!(lines[0].contains("\"jobs\":1") && lines[0].contains("\"points\":1"));
        assert!(
            lines[1].contains("\"type\":\"parse_error\"")
                && lines[1].contains("\"status\":\"error\"")
        );
        assert!(lines[2].contains("\"type\":\"eval\"") && lines[2].contains("\"status\":\"ok\""));
        assert!(
            lines[2].contains("\"jobs\":0")
                && lines[2].contains("\"points\":1")
                && lines[2].contains("\"cache_hits\":1")
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tune_frontier_streams_each_step_before_the_sweep_finishes() {
        let server = Server::bind(ServerConfig {
            threads: 2,
            ..ServerConfig::default()
        })
        .expect("bind");
        let shared = Arc::clone(&server.shared);
        let probe = with_workers(&shared, || {
            let mut probe = Probe::new(&shared);
            let request = r#"{"type":"tune_frontier","sweep":{"axis":"max_system_mw","values":[450,500,550,600]}}"#;
            let outcome = handle(request, &shared, &mut probe, &mut RequestSpan::new(0));
            assert!(matches!(
                outcome,
                RequestOutcome::Streamed { sink_dead: false }
            ));
            probe
        });
        // 4 step lines then the done line, each flushed individually.
        assert_eq!(probe.lines.len(), 5, "{:?}", probe.lines);
        assert_eq!(probe.active_at_flush.len(), 5);
        for (i, line) in probe.lines.iter().take(4).enumerate() {
            match Response::decode(line).expect("step line decodes") {
                Response::TuneFrontierStep(step) => {
                    assert_eq!(step.step, i);
                    assert_eq!(step.steps, 4);
                }
                other => panic!("expected a step line, got {other:?}"),
            }
            // The sweep's admission slot was still held when this line
            // was flushed: the line left before the sweep completed.
            assert_eq!(probe.active_at_flush[i], 1, "line {i} was not streamed");
        }
        match Response::decode(&probe.lines[4]).expect("done line decodes") {
            Response::TuneFrontierDone(done) => {
                assert_eq!(done.steps, 4);
                assert!(done.evaluations > 0);
                assert!(done.evaluations < done.standalone_evaluations);
            }
            other => panic!("expected the done line, got {other:?}"),
        }
        assert_eq!(shared.backend.counters().active_jobs, 0, "slot released");
    }

    #[test]
    fn streaming_frontier_shares_the_line_sink_framing() {
        let server = Server::bind(ServerConfig {
            threads: 2,
            ..ServerConfig::default()
        })
        .expect("bind");
        let shared = Arc::clone(&server.shared);
        let (aggregate, probe) = with_workers(&shared, || {
            // Prime the cache with a few points.
            let mut warmup = Probe::new(&shared);
            let sweep = r#"{"type":"sweep","spec":{"pes":[144,288,576],"nets":"lenet"}}"#;
            assert!(matches!(
                handle(sweep, &shared, &mut warmup, &mut RequestSpan::new(0)),
                RequestOutcome::Reply(r, false) if matches!(*r, Response::Sweep(_))
            ));
            // Aggregate and streamed variants must agree entry for entry.
            let aggregate = match handle(
                r#"{"type":"frontier","dims":3}"#,
                &shared,
                &mut Probe::new(&shared),
                &mut RequestSpan::new(0),
            ) {
                RequestOutcome::Reply(r, false) => match *r {
                    Response::Frontier { entries, .. } => entries,
                    other => panic!("expected a frontier reply, got {other:?}"),
                },
                _ => panic!("expected a frontier reply"),
            };
            let mut probe = Probe::new(&shared);
            let outcome = handle(
                r#"{"type":"frontier","dims":3,"stream":true}"#,
                &shared,
                &mut probe,
                &mut RequestSpan::new(0),
            );
            assert!(matches!(
                outcome,
                RequestOutcome::Streamed { sink_dead: false }
            ));
            (aggregate, probe)
        });
        assert_eq!(probe.lines.len(), aggregate.len() + 1);
        for (line, expected) in probe.lines.iter().zip(&aggregate) {
            match Response::decode(line).expect("entry line decodes") {
                Response::FrontierStreamEntry { entry } => assert_eq!(&entry, expected),
                other => panic!("expected an entry line, got {other:?}"),
            }
        }
        match Response::decode(probe.lines.last().expect("done line")).expect("decodes") {
            Response::FrontierStreamDone { dims, entries, .. } => {
                assert_eq!(dims, 3);
                assert_eq!(entries, aggregate.len());
            }
            other => panic!("expected the done line, got {other:?}"),
        }
    }

    #[test]
    fn watch_streams_samples_then_done_while_a_slot_is_held() {
        let server = Server::bind(ServerConfig {
            threads: 2,
            ..ServerConfig::default()
        })
        .expect("bind");
        let shared = Arc::clone(&server.shared);
        let probe = with_workers(&shared, || {
            shared.take_sample(); // baseline: the next tick carries deltas
            let eval = r#"{"type":"eval","point":{"pes":288}}"#;
            for _ in 0..3 {
                assert!(matches!(
                    handle_instrumented(eval, &shared),
                    RequestOutcome::Reply(r, false) if matches!(*r, Response::Eval { .. })
                ));
            }
            // A held admission slot stands in for a sweep mid-flight:
            // the watcher's lines must flush while it is live, proving
            // watch reports on work still in progress.
            let slot = shared.backend.admit().expect("admission slot");
            let probe = std::thread::scope(|s| {
                let watcher = s.spawn(|| {
                    let mut probe = Probe::new(&shared);
                    let outcome = handle(
                        r#"{"type":"watch","samples":2}"#,
                        &shared,
                        &mut probe,
                        &mut RequestSpan::new(0),
                    );
                    assert!(matches!(
                        outcome,
                        RequestOutcome::Streamed { sink_dead: false }
                    ));
                    probe
                });
                // Drive the sampler by hand — deterministic ticks
                // instead of a real 250 ms cadence.
                while !watcher.is_finished() {
                    shared.take_sample();
                    std::thread::sleep(Duration::from_millis(2));
                }
                watcher.join().expect("watcher thread")
            });
            drop(slot);
            probe
        });
        // 2 sample lines then the done line, each flushed individually
        // while the admission slot was still held.
        assert_eq!(probe.lines.len(), 3, "{:?}", probe.lines);
        let mut prev_seq = 0;
        for (i, line) in probe.lines.iter().take(2).enumerate() {
            match Response::decode(line).expect("sample line decodes") {
                Response::WatchSample(sample) => {
                    assert!(sample.seq > prev_seq, "seq must be monotonic");
                    prev_seq = sample.seq;
                    assert!(sample.active_jobs >= 1, "slot live during sample {i}");
                }
                other => panic!("expected a watch sample, got {other:?}"),
            }
            assert!(
                probe.active_at_flush[i] >= 1,
                "line {i} was not flushed while the slot was live"
            );
        }
        match Response::decode(&probe.lines[2]).expect("done line decodes") {
            Response::WatchDone { samples } => assert_eq!(samples, 2),
            other => panic!("expected the done line, got {other:?}"),
        }
        // The first sample's window saw the eval burst: nonzero rate,
        // an eval row with the right count and a real latency quantile.
        let Response::WatchSample(first) = Response::decode(&probe.lines[0]).expect("decodes")
        else {
            unreachable!()
        };
        assert!(first.req_per_sec > 0.0);
        let eval_row = first
            .types
            .iter()
            .find(|t| t.kind == "eval")
            .expect("eval row in the first sample");
        assert_eq!(eval_row.requests, 3);
        assert!(eval_row.p99_us > 0.0 && eval_row.p99_us >= eval_row.p50_us);
    }

    #[test]
    fn metrics_history_reports_windowed_rates() {
        let server = Server::bind(ServerConfig {
            threads: 2,
            ..ServerConfig::default()
        })
        .expect("bind");
        let shared = Arc::clone(&server.shared);
        with_workers(&shared, || {
            shared.take_sample();
            let eval = r#"{"type":"eval","point":{"pes":288}}"#;
            for _ in 0..2 {
                handle_instrumented(eval, &shared);
            }
            shared.take_sample();
        });
        let history = match handle_instrumented(r#"{"type":"metrics_history"}"#, &shared) {
            RequestOutcome::Reply(r, false) => match *r {
                Response::MetricsHistory(h) => h,
                other => panic!("expected a history reply, got {other:?}"),
            },
            _ => panic!("expected a history reply"),
        };
        assert_eq!(history.samples, 1);
        assert_eq!(history.capacity, 256);
        assert_eq!(history.windows.len(), 3);
        let one_second = &history.windows[0];
        assert_eq!(one_second.window_s, 1.0);
        assert!(one_second.req_per_sec > 0.0);
        assert!(one_second.points_per_sec > 0.0);
        let eval_row = one_second
            .types
            .iter()
            .find(|t| t.kind == "eval")
            .expect("eval row");
        assert_eq!(eval_row.requests, 2);
    }

    #[test]
    fn trace_log_rotates_at_the_size_cap_keeping_one_predecessor() {
        let dir =
            std::env::temp_dir().join(format!("chain-nn-trace-rotate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("trace.jsonl");
        let server = Server::bind(ServerConfig {
            threads: 2,
            trace_log: Some(path.clone()),
            // Roughly one stats trace line per file: every append
            // rotates, exercising the boundary repeatedly.
            trace_max_bytes: 256,
            slow_log_us: Some(0),
            ..ServerConfig::default()
        })
        .expect("bind");
        let shared = Arc::clone(&server.shared);
        with_workers(&shared, || {
            for _ in 0..8 {
                assert!(matches!(
                    handle_instrumented(r#"{"type":"stats"}"#, &shared),
                    RequestOutcome::Reply(r, false) if matches!(*r, Response::Stats(_))
                ));
            }
        });
        let rotated_path = {
            let mut p = path.clone().into_os_string();
            p.push(".1");
            PathBuf::from(p)
        };
        let current = std::fs::read_to_string(&path).expect("live trace file");
        let rotated = std::fs::read_to_string(&rotated_path).expect("rotated trace file");
        let id_of = |line: &str| -> u64 {
            let rest = line.strip_prefix("{\"id\":").expect("complete record");
            rest[..rest.find(',').expect("comma after id")]
                .parse()
                .expect("numeric id")
        };
        // Both files hold only complete records, with a 0-µs slow
        // threshold every request is flagged, and ids are contiguous
        // across the rotation boundary up to the newest request.
        for line in current.lines().chain(rotated.lines()) {
            assert!(line.ends_with('}'), "torn record: {line}");
            assert!(line.contains("\"slow\":true"), "unflagged: {line}");
        }
        let newest = current.lines().last().expect("live file has lines");
        assert_eq!(id_of(newest), 8, "newest id is the request count");
        let first_current = id_of(current.lines().next().expect("first line"));
        let last_rotated = id_of(rotated.lines().last().expect("rotated has lines"));
        assert_eq!(last_rotated + 1, first_current, "rotation split the ids");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_log_cap_zero_never_rotates() {
        let dir =
            std::env::temp_dir().join(format!("chain-nn-trace-norotate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("trace.jsonl");
        let server = Server::bind(ServerConfig {
            threads: 2,
            trace_log: Some(path.clone()),
            // 0 = no rotation: the file must grow without bound even
            // though every line exceeds the "cap".
            trace_max_bytes: 0,
            ..ServerConfig::default()
        })
        .expect("bind");
        let shared = Arc::clone(&server.shared);
        with_workers(&shared, || {
            for _ in 0..8 {
                assert!(matches!(
                    handle_instrumented(r#"{"type":"stats"}"#, &shared),
                    RequestOutcome::Reply(r, false) if matches!(*r, Response::Stats(_))
                ));
            }
        });
        let rotated_path = {
            let mut p = path.clone().into_os_string();
            p.push(".1");
            PathBuf::from(p)
        };
        let current = std::fs::read_to_string(&path).expect("live trace file");
        assert_eq!(current.lines().count(), 8, "every request in one file");
        assert!(
            !rotated_path.exists(),
            "cap 0 must never create a rotated predecessor"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn slow_log_flags_only_requests_over_the_threshold() {
        let dir = std::env::temp_dir().join(format!("chain-nn-slow-log-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("trace.jsonl");
        let server = Server::bind(ServerConfig {
            threads: 2,
            trace_log: Some(path.clone()),
            // An hour: nothing in this test can cross it.
            slow_log_us: Some(3_600_000_000),
            ..ServerConfig::default()
        })
        .expect("bind");
        let shared = Arc::clone(&server.shared);
        with_workers(&shared, || {
            handle_instrumented(r#"{"type":"eval","point":{"pes":288}}"#, &shared);
            handle_instrumented(r#"{"type":"stats"}"#, &shared);
        });
        let trace = std::fs::read_to_string(&path).expect("trace file");
        assert_eq!(trace.lines().count(), 2);
        assert!(!trace.contains("\"slow\""), "nothing crossed an hour");
        assert!(shared
            .registry
            .snapshot()
            .counter("serve_slow_requests_total", &[("type", "eval")])
            .is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
