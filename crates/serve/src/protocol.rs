//! The explorer serving protocol: typed requests/responses and their
//! line-delimited JSON wire form.
//!
//! One connection carries any number of requests; each request is one
//! `\n`-terminated JSON object and produces exactly one
//! `\n`-terminated JSON object in reply, in order. Both the daemon
//! ([`crate::server`]) and the client ([`crate::client`]) use this
//! module. Each wire shape is described once, by a field table listing
//! every field's key, Rust field and rule (required, defaulted, omitted
//! when empty, derived); the encoder and the decoder are both generated
//! from that table, so they cannot drift apart. The encoder writes
//! straight into the line buffer; the decoder reads the line's bytes in
//! one pass, with no JSON tree, and converts every leaf with one
//! checked conversion, so mistyped fields are errors.
//!
//! Requests (`"type"` selects the operation):
//!
//! ```text
//! {"type":"eval","point":{...}}          evaluate one design point
//! {"type":"sweep","spec":{...}}          evaluate a SweepSpec grid
//! {"type":"tune","space":{...},"mix":{...},"budget":{...},...}
//!                                        budget-constrained search
//! {"type":"tune_frontier",...,"sweep":{"axis":"max_system_mw","values":[...]}}
//!                                        budget-axis sweep, streamed
//! {"type":"frontier","dims":2|3}         Pareto frontier of the whole cache
//! {"type":"frontier","dims":3,"axes":"sqnr"}
//!                                        accuracy variant: fps × mW × SQNR
//! {"type":"frontier","dims":3,"stream":true}
//!                                        one entry per line + a done line
//! {"type":"stats"}                       cache/server counters
//! {"type":"metrics"}                     full observability snapshot
//! {"type":"metrics_history"}             windowed rates/quantiles (1s/10s/60s)
//! {"type":"watch","samples":5}           one sample line per interval, streamed
//! {"type":"shutdown"}                    drain, flush, exit
//! ```
//!
//! Most requests produce exactly one reply line. The **streaming**
//! requests (`tune_frontier`, `frontier` with `"stream":true`, and
//! `watch`) instead produce N result lines followed by one terminal
//! `done` line, each flushed as it is produced — see
//! `docs/PROTOCOL.md` for the framing rule.
//!
//! # Example
//!
//! The typed codec round-trips every shape byte-exactly (golden lines
//! in `crates/serve/testdata` pin the bytes); this is the entry point
//! both sides share:
//!
//! ```
//! use chain_nn_serve::protocol::{Request, Response};
//!
//! let request = Request::decode(r#"{"type":"eval","point":{"pes":288}}"#).unwrap();
//! let Request::Eval(point) = &request else { panic!("not an eval") };
//! assert_eq!(point.pes, 288);
//! assert_eq!(Request::decode(&request.encode()).unwrap(), request);
//!
//! let reply = Response::decode(r#"{"ok":false,"error":"busy","active":16,"capacity":16}"#);
//! assert!(matches!(reply.unwrap(), Response::Busy { active: 16, capacity: 16 }));
//! ```
//!
//! The complete wire reference — every request/response shape, the
//! `sqnr` fields, `busy` backpressure and the `tune` admission-slot
//! semantics — lives in `docs/PROTOCOL.md`.
//!
//! A `tune` request's fields are all optional: `space` defaults to the
//! default exploration grid, `mix` (an object of `net: weight` pairs,
//! or a `"net:w,net:w"` string) to single-AlexNet, `budget`
//! (`max_system_mw` / `max_gates_k` / `min_fps` / `min_sqnr_db`) to
//! unconstrained, `objective` (a metric name, an array of names for
//! lexicographic order, or `{"scalarized":{name: weight}}`) to
//! fps-then-power-then-gates, `strategy` to `"halving"`, `seed` to 0.
//!
//! A `point` object may omit any field, which then defaults to the
//! paper's AlexNet configuration; a `spec` object's axes default to the
//! single paper point per axis, and each axis accepts either a scalar
//! or an array. Responses always carry `"ok"` (`true`/`false`); `ok:
//! false` responses are either `"busy"` (backpressure — retry later) or
//! `"error"` (the request is at fault).

use std::fmt;

use chain_nn_dse::pareto::Objectives;
use chain_nn_dse::{
    DesignPoint, MixEntry, MixResult, PointOutcome, PointResult, SweepPart, SweepSpec, WorkloadMix,
};
use chain_nn_obs::trace::{SpanRecord, TraceContext};
use chain_nn_obs::{HistogramSummary, MetricEntry, MetricValue, Snapshot};
use chain_nn_tuner::{
    Budget, BudgetAxis, BudgetSweep, FrontierStep, FrontierTuneRequest, Metric, Objective,
    StrategyKind, TuneRequest, Tuned,
};

use crate::json::{write_escaped, Reader};
use crate::wire::{
    bad, each_key, missing, object_wire, open, read, tag_str, tagged, wire_enum, wire_struct,
    wire_take, Codec, Decoded, Fields, Keys, Obj, Tagged, Wire,
};

/// Malformed wire data (unparseable JSON, missing/mistyped fields).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError(pub String);

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtocolError {}

/// One client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Evaluate one design point.
    Eval(DesignPoint),
    /// Evaluate an explicit list of design points in one round trip,
    /// returning outcomes aligned with the list. This is the cluster
    /// coordinator's scatter-gather primitive: a tune round's expanded
    /// points are hash-partitioned, each shard evaluates its slice as
    /// one `eval_batch`, and the replies reassemble in order.
    EvalBatch(Vec<DesignPoint>),
    /// Evaluate a whole sweep grid.
    Sweep(SweepSpec),
    /// Budget-constrained search of a grid for a workload mix (boxed:
    /// a tune request carries a full spec plus mix/budget/objective).
    Tune(Box<TuneRequest>),
    /// Budget-axis sweep returning the whole constrained frontier — a
    /// **streaming** request: one [`Response::TuneFrontierStep`] line
    /// per budget step as it completes, then one
    /// [`Response::TuneFrontierDone`] line.
    TuneFrontier(Box<FrontierTuneRequest>),
    /// The Pareto frontier over everything the daemon has cached.
    Frontier {
        /// 2 (fps × power) or 3 (fps × power × area).
        dims: u8,
        /// With `dims == 3`: swap the area axis for measured SQNR
        /// (fps × power × accuracy). Wire form: `"axes":"sqnr"`.
        sqnr: bool,
        /// Stream the frontier as one [`Response::FrontierStreamEntry`]
        /// line per entry plus a [`Response::FrontierStreamDone`] line,
        /// instead of one aggregate reply. Wire form: `"stream":true`.
        stream: bool,
    },
    /// Cache and server counters.
    Stats,
    /// Full observability snapshot: every counter/gauge/histogram of
    /// the daemon's registry (request latencies, scheduler batches,
    /// DSE executor, tuner rounds), with p50/p95/p99 per histogram.
    Metrics,
    /// Windowed view of the daemon's sampled metric history: per-type
    /// request rates and latency quantiles over the last 1s/10s/60s,
    /// derived from counter and histogram deltas.
    MetricsHistory,
    /// Subscribe to the sampler: a **streaming** request producing one
    /// [`Response::WatchSample`] line per sampler tick, then one
    /// [`Response::WatchDone`] line after `samples` ticks (or on
    /// daemon shutdown).
    Watch {
        /// Sample lines to stream before the done line; `0` streams
        /// until the client disconnects or the daemon shuts down.
        samples: u64,
    },
    /// The span tree of one trace: every span the daemon's ring still
    /// holds for the given trace id (see the `"trace"` request field).
    TraceQuery {
        /// The trace id to look up.
        id: u64,
    },
    /// Flight-recorder dump: write the span ring's recent spans plus a
    /// current metrics snapshot to `<trace-log>.flight.json` for
    /// post-mortem forensics (errors when the daemon has no trace log).
    Dump,
    /// Drain in-flight work, flush the cache file, stop the daemon.
    Shutdown,
}

/// What one sweep did, without shipping every outcome back: sizes,
/// cache traffic and the Pareto-optimal indices into the grid's
/// deterministic point order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SweepSummary {
    /// Points in the grid.
    pub points: usize,
    /// Feasible points.
    pub feasible: usize,
    /// Cache hits this sweep.
    pub cache_hits: u64,
    /// Fresh evaluations this sweep.
    pub cache_misses: u64,
    /// Server-side wall time, milliseconds.
    pub wall_ms: f64,
    /// Indices of 3D-Pareto-optimal points (grid order, ascending).
    pub frontier_3d: Vec<usize>,
    /// Indices of fps × power × SQNR non-dominated points (grid order,
    /// ascending) — the accuracy variant of the frontier.
    pub frontier_sqnr: Vec<usize>,
    /// Frontier candidates with their objective vectors, only present
    /// on partitioned sub-sweep replies (`spec.part` set): the union of
    /// this shard's `frontier_3d`/`frontier_sqnr` points as
    /// `(global grid index, objectives)` pairs, ascending. The
    /// coordinator concatenates shard candidate lists, sorts by index
    /// and re-filters to reproduce the single-daemon frontier exactly
    /// ([`chain_nn_dse::pareto::merge_candidates`]). Empty — and absent
    /// on the wire — for ordinary sweeps.
    pub candidates: Vec<(usize, Objectives)>,
    /// Set by the coordinator when one or more shards were lost
    /// mid-sweep and the summary covers only the surviving partitions.
    /// Absent on the wire when false, so non-degraded replies are
    /// byte-identical to single-daemon ones.
    pub degraded: bool,
}

/// One frontier entry: the point and its model results.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierEntry {
    /// The design point.
    pub point: DesignPoint,
    /// Its evaluation.
    pub result: PointResult,
}

/// What one tune did: the winner (if any configuration was feasible)
/// plus the evaluation-count accounting proving search ≪ sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneSummary {
    /// The chosen configuration, its aggregated workload metrics and
    /// whether it satisfies the budget; `None` when every visited
    /// configuration was model-infeasible.
    pub best: Option<Tuned>,
    /// Distinct configurations the search evaluated.
    pub evaluations: u64,
    /// Underlying `(configuration, network)` lookups answered from the
    /// shared cache.
    pub cache_hits: u64,
    /// Underlying lookups that ran the model stack.
    pub cache_misses: u64,
    /// Evaluator round trips.
    pub rounds: usize,
    /// Configurations an exhaustive sweep of the space would evaluate.
    pub exhaustive_points: usize,
    /// Set by the coordinator when shard loss forced rerouting during
    /// the tune (results are still exact — any shard computes the same
    /// pure models — but cache locality was lost). Absent on the wire
    /// when false.
    pub degraded: bool,
}

/// One budget step of a streaming frontier tune
/// ([`Response::TuneFrontierStep`]): the tuner's step result framed
/// with its position in the sweep. Wrapping [`FrontierStep`] (rather
/// than mirroring its fields) keeps the wire and the tuner from
/// drifting: a field added to the step type shows up here by
/// construction.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierStepSummary {
    /// Zero-based step index, in sweep order.
    pub step: usize,
    /// Total steps the sweep will run.
    pub steps: usize,
    /// The step itself: budget value, winner (never worse than a
    /// standalone tune at this budget), evaluation accounting.
    pub result: FrontierStep,
}

/// Terminal line of a streaming frontier tune
/// ([`Response::TuneFrontierDone`]): the frontier across the steps and
/// the sweep-wide accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierDoneSummary {
    /// Steps the sweep ran (= step lines that preceded this line).
    pub steps: usize,
    /// Step indices on the tuned frontier (deduplicated, Pareto-kept).
    pub frontier: Vec<usize>,
    /// Distinct configurations evaluated across the whole sweep.
    pub evaluations: u64,
    /// What standalone tunes at every step would have evaluated.
    pub standalone_evaluations: u64,
    /// Sweep-wide cache hits.
    pub cache_hits: u64,
    /// Sweep-wide fresh model-stack lookups.
    pub cache_misses: u64,
    /// Configurations in the full grid.
    pub exhaustive_points: usize,
}

/// The transport envelope of one decoded request line: the optional
/// propagated `"trace"` context plus the optional pipelining id
/// `"req"`. When a client sends `"req"`, the daemon echoes it on
/// *every* reply line of that request (streamed lines included), which
/// is what lets a pipelining client discard stale lines of an
/// abandoned stream instead of misattributing them to the next
/// request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestMeta {
    /// Propagated trace context, if present.
    pub trace: Option<TraceContext>,
    /// Pipelining correlation id, if present.
    pub req_id: Option<u64>,
}

/// Health of one cluster shard as seen by the coordinator, reported in
/// coordinator [`Request::Stats`] replies.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStat {
    /// The shard's `host:port` address.
    pub addr: String,
    /// Requests the coordinator sent this shard.
    pub requests: u64,
    /// Transport/busy failures talking to this shard.
    pub errors: u64,
    /// Whether the shard is currently marked degraded (unreachable or
    /// persistently busy at last contact).
    pub degraded: bool,
}

/// Daemon-side counters reported by [`Request::Stats`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServerStats {
    /// Distinct points in the shared cache.
    pub cached_points: usize,
    /// Cache hits since daemon start (including loaded-file hits).
    pub hits: u64,
    /// Cache misses since daemon start.
    pub misses: u64,
    /// `hits / (hits + misses)`, 0 before any lookup.
    pub hit_rate: f64,
    /// Requests served (all types, including rejected ones).
    pub requests: u64,
    /// Jobs admitted and not yet finished.
    pub active_jobs: usize,
    /// Admission bound ([`Response::Busy`] beyond it).
    pub queue_capacity: usize,
    /// Sessions currently open.
    pub open_connections: usize,
    /// Connection bound (`busy` at the accept loop beyond it).
    pub max_connections: usize,
    /// Worker threads evaluating points.
    pub threads: usize,
    /// Entries replayed from the cache file at startup.
    pub loaded_from_disk: usize,
    /// Whether a cache file is attached.
    pub persistent: bool,
    /// Seconds since the daemon started (0 from daemons predating the
    /// observability layer).
    pub uptime_s: f64,
    /// Requests currently being handled (parsing, queued or
    /// executing) across all connections.
    pub inflight_requests: usize,
    /// Remaining **points** across admitted unfinished jobs right now
    /// (0 from daemons predating the temporal-observability layer).
    /// Work-assisting daemons report the actual point backlog; older
    /// daemons reported whole queued jobs (`docs/PROTOCOL.md` records
    /// the semantics change).
    pub queue_depth: usize,
    /// Latency SLOs the daemon was configured with (0 when none, and
    /// from pre-SLO daemons).
    pub slos: usize,
    /// Sampler ticks on which at least one SLO was out of compliance,
    /// since daemon start (0 from pre-SLO daemons).
    pub slo_breach_ticks: u64,
    /// Per-shard health, coordinator daemons only (empty — and absent
    /// on the wire — for ordinary daemons).
    pub shards: Vec<ShardStat>,
}

/// Windowed per-request-type statistics, shared by
/// [`Response::MetricsHistory`] windows and [`Response::WatchSample`]
/// lines: the request count and latency quantiles observed for one
/// `type` label over one window.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryTypeWindow {
    /// The request type label (`eval`, `sweep`, ...).
    pub kind: String,
    /// Requests of this type completed inside the window.
    pub requests: u64,
    /// Median request latency over the window, microseconds.
    pub p50_us: f64,
    /// 99th-percentile request latency over the window, microseconds.
    pub p99_us: f64,
}

/// One aggregation window of a [`Response::MetricsHistory`] reply:
/// deltas over the trailing `window_s` seconds of sampler history.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryWindow {
    /// Nominal window length, seconds (1, 10 or 60).
    pub window_s: f64,
    /// Seconds of history actually covered (less than `window_s` on a
    /// young daemon).
    pub duration_s: f64,
    /// Sampler ticks merged into this window.
    pub samples: usize,
    /// Requests per second across all types over the window.
    pub req_per_sec: f64,
    /// Design points evaluated per second over the window.
    pub points_per_sec: f64,
    /// Per-request-type counts and latency quantiles.
    pub types: Vec<HistoryTypeWindow>,
}

/// The [`Request::MetricsHistory`] reply: the sampler's windowed view.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsHistory {
    /// Sampler tick interval, seconds.
    pub interval_s: f64,
    /// Samples taken since daemon start (monotone; the ring only
    /// retains the most recent `capacity`).
    pub samples: u64,
    /// Ring-buffer capacity in samples.
    pub capacity: usize,
    /// Trailing windows, shortest first (1s/10s/60s).
    pub windows: Vec<HistoryWindow>,
}

/// One sample line of a streaming [`Request::Watch`]: the live
/// dashboard row the `chain-nn top` command renders.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchSample {
    /// Sampler sequence number (monotone since daemon start).
    pub seq: u64,
    /// Seconds the sampled interval actually covered.
    pub interval_s: f64,
    /// Seconds the trailing rate/quantile window covered (~1s).
    pub window_s: f64,
    /// Requests per second over the window.
    pub req_per_sec: f64,
    /// Design points evaluated per second over the window.
    pub points_per_sec: f64,
    /// Requests in flight at sample time.
    pub inflight: u64,
    /// Jobs admitted and not yet finished at sample time.
    pub active_jobs: u64,
    /// Remaining points across admitted unfinished jobs at sample
    /// time (whole queued jobs from pre-engine daemons).
    pub queue_depth: u64,
    /// Since-boot cache hit rate at sample time.
    pub cache_hit_rate: f64,
    /// Requests served since daemon start (cumulative, so a watcher
    /// can reconcile the stream against its own tally).
    pub requests_total: u64,
    /// 99th-percentile scheduler queue wait over the window, µs.
    pub queue_wait_p99_us: f64,
    /// 99th-percentile batch execute time over the window, µs.
    pub execute_p99_us: f64,
    /// Per-request-type counts and latency quantiles over the window.
    pub types: Vec<HistoryTypeWindow>,
}

/// One daemon reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Echo of the evaluated point plus its outcome.
    Eval {
        /// The point as the daemon understood it (defaults filled in).
        point: DesignPoint,
        /// Feasible result or infeasibility reason.
        outcome: PointOutcome,
    },
    /// Outcomes of an [`Request::EvalBatch`], aligned with the request's
    /// point list.
    EvalBatch {
        /// One outcome per requested point, in request order.
        outcomes: Vec<PointOutcome>,
        /// Cache hits among the batch's lookups.
        cache_hits: u64,
        /// Fresh evaluations the batch ran.
        cache_misses: u64,
    },
    /// Sweep summary.
    Sweep(SweepSummary),
    /// Tune summary.
    Tune(TuneSummary),
    /// One budget step of a streaming frontier tune (N of these lines,
    /// flushed as each step completes, then one
    /// [`Response::TuneFrontierDone`]).
    TuneFrontierStep(FrontierStepSummary),
    /// Terminal line of a streaming frontier tune.
    TuneFrontierDone(FrontierDoneSummary),
    /// One entry line of a streaming whole-cache frontier (N of these,
    /// then one [`Response::FrontierStreamDone`]).
    FrontierStreamEntry {
        /// The non-dominated `(point, result)` pair.
        entry: FrontierEntry,
    },
    /// Terminal line of a streaming whole-cache frontier.
    FrontierStreamDone {
        /// Objective dimensionality the frontier was taken in.
        dims: u8,
        /// Entry lines that preceded this line.
        entries: usize,
        /// Coordinator only: the frontier covers surviving shards only.
        degraded: bool,
    },
    /// Frontier of the whole cache, canonically ordered.
    Frontier {
        /// Objective dimensionality the frontier was taken in.
        dims: u8,
        /// Non-dominated `(point, result)` pairs.
        entries: Vec<FrontierEntry>,
        /// Coordinator only: the frontier covers surviving shards only.
        /// Absent on the wire when false.
        degraded: bool,
    },
    /// Counter snapshot.
    Stats(ServerStats),
    /// Observability snapshot: the daemon's whole metric registry.
    Metrics {
        /// Every metric instance, sorted by `(name, labels)`.
        snapshot: Snapshot,
    },
    /// Windowed sampler history ([`Request::MetricsHistory`] reply).
    MetricsHistory(Box<MetricsHistory>),
    /// One sample line of a streaming watch (N of these, flushed as
    /// the sampler ticks, then one [`Response::WatchDone`]).
    WatchSample(Box<WatchSample>),
    /// Terminal line of a streaming watch.
    WatchDone {
        /// Sample lines that preceded this line.
        samples: u64,
    },
    /// The span tree for one trace id ([`Request::TraceQuery`] reply).
    Trace {
        /// The queried trace id.
        id: u64,
        /// Spans the ring has dropped (overwritten) since daemon
        /// start — non-zero means the tree below may be incomplete.
        dropped: u64,
        /// The trace's spans, ordered by start time; parent ids encode
        /// the tree.
        spans: Vec<SpanRecord>,
    },
    /// Flight-recorder dump written ([`Request::Dump`] reply).
    Dump {
        /// Where the flight file landed.
        path: String,
        /// Spans written into it.
        spans: usize,
        /// Ring drop counter at dump time.
        dropped: u64,
    },
    /// Shutdown acknowledged; the daemon exits after this reply.
    Shutdown,
    /// Backpressure: the admission queue is full, retry later.
    Busy {
        /// Jobs currently admitted.
        active: usize,
        /// The admission bound.
        capacity: usize,
    },
    /// The request was understood to be at fault.
    Error {
        /// Human-readable reason.
        message: String,
    },
}

// ----------------------------------------------------------- field tables

/// The paper's AlexNet point: what every absent `point` field means.
fn paper() -> DesignPoint {
    DesignPoint::paper_alexnet()
}

wire_struct! { DesignPoint as _p {
    "net": net = paper().net,
    "pes": pes = paper().pes,
    "freq_mhz": freq_mhz = paper().freq_mhz,
    "kmem_depth": kmem_depth = paper().kmem_depth,
    "imem_kb": imem_kb = paper().imem_kb,
    "omem_kb": omem_kb = paper().omem_kb,
    "word_bits": word_bits = paper().word_bits,
    "batch": batch = paper().batch,
} }

/// A sweep axis: written as an array, read from an array or a single
/// scalar.
struct Axis;

impl<T: Wire> Codec<Vec<T>> for Axis {
    fn put(value: &Vec<T>, out: &mut String) {
        value.put(out);
    }

    fn take(r: &mut Reader<'_>, key: &str) -> Decoded<Vec<T>> {
        if r.peek() == Some(b'[') {
            Vec::take(r, key)
        } else {
            Ok(vec![T::take(r, key)?])
        }
    }
}

wire_struct! { SweepSpec as _s {
    "nets": nets via Axis = SweepSpec::paper_point().nets,
    "pes": pes via Axis = SweepSpec::paper_point().pes,
    "freqs_mhz": freqs_mhz via Axis = SweepSpec::paper_point().freqs_mhz,
    "kmem_depths": kmem_depths via Axis = SweepSpec::paper_point().kmem_depths,
    "imem_kb": imem_kb via Axis = SweepSpec::paper_point().imem_kb,
    "omem_kb": omem_kb via Axis = SweepSpec::paper_point().omem_kb,
    "word_bits": word_bits via Axis = SweepSpec::paper_point().word_bits,
    "batches": batches via Axis = SweepSpec::paper_point().batches,
    "part": part omit,
} }

wire_struct! { SweepPart as _p { "index": index dflt, "of": of } check positive_part }

fn positive_part(part: &mut SweepPart) -> Decoded<()> {
    if part.of == 0 {
        return Err(bad("'part' needs a positive 'of'"));
    }
    Ok(())
}

/// A mix is an object of `net: weight` pairs, or the CLI string form
/// (`"alexnet:0.7,vgg16:0.3"`).
impl Wire for WorkloadMix {
    fn put(&self, out: &mut String) {
        let mut o = Obj::open(out);
        for e in self.entries() {
            o.put(&e.net, &e.weight);
        }
        o.close();
    }

    fn take(r: &mut Reader<'_>, key: &str) -> Decoded<Self> {
        let mix = match r.peek() {
            Some(b'"') => WorkloadMix::parse(&r.string()?),
            Some(b'{') => {
                r.open(b'{')?;
                let mut entries = Vec::new();
                while let Some(net) = r.next_key()? {
                    let weight = f64::take(r, &net)?;
                    entries.push(MixEntry {
                        net: net.into_owned(),
                        weight,
                    });
                }
                WorkloadMix::new(entries)
            }
            _ => {
                return Err(bad(format!(
                    "'{key}' must be an object of net: weight pairs or a string"
                )))
            }
        };
        mix.map_err(|e| bad(e.to_string()))
    }
}

wire_struct! { Budget as _b {
    "max_system_mw": max_system_mw omit,
    "max_gates_k": max_gates_k omit,
    "min_fps": min_fps omit,
    "min_sqnr_db": min_sqnr_db omit,
} }

/// An objective is a metric name array (lexicographic), a
/// `{"scalarized":{name: weight}}` object, or the CLI string form.
impl Wire for Objective {
    fn put(&self, out: &mut String) {
        match self {
            Objective::Lexicographic(metrics) => {
                let names: Vec<String> = metrics.iter().map(|m| m.name().to_owned()).collect();
                names.put(out);
            }
            Objective::Scalarized(terms) => {
                let mut o = Obj::open(out);
                let mut weights = Obj::open(o.key("scalarized"));
                for (m, w) in terms {
                    weights.put(m.name(), w);
                }
                weights.close();
                o.close();
            }
        }
    }

    fn take(r: &mut Reader<'_>, key: &str) -> Decoded<Self> {
        let metric = |name: &str| name.parse::<Metric>().map_err(ProtocolError);
        let objective = match r.peek() {
            Some(b'"') => Objective::parse(&r.string()?).map_err(ProtocolError)?,
            Some(b'[') => Objective::Lexicographic(
                Vec::<String>::take(r, key)?
                    .iter()
                    .map(|name| metric(name))
                    .collect::<Result<_, _>>()?,
            ),
            Some(b'{') => {
                r.open(b'{')?;
                let mut terms = None;
                each_key(r, |k, r| match k {
                    "scalarized" => read(r, &mut terms, |r| {
                        open(r, b'{', k, "an object of metric: weight pairs")?;
                        let mut terms = Vec::new();
                        while let Some(name) = r.next_key()? {
                            terms.push((metric(&name)?, f64::take(r, &name)?));
                        }
                        Ok(terms)
                    }),
                    _ => Ok(false),
                })?;
                Objective::Scalarized(terms.unwrap_or_else(|| Err(missing("scalarized")))?)
            }
            _ => return Err(bad(format!("'{key}' must be a string, array or object"))),
        };
        objective.validate().map_err(ProtocolError)?;
        Ok(objective)
    }
}

impl Wire for StrategyKind {
    fn put(&self, out: &mut String) {
        write_escaped(out, self.name());
    }

    fn take(r: &mut Reader<'_>, key: &str) -> Decoded<Self> {
        String::take(r, key)?.parse().map_err(ProtocolError)
    }
}

wire_struct! { TuneRequest as _r {
    "space": space = TuneRequest::default().space,
    "mix": mix = TuneRequest::default().mix,
    "budget": budget dflt,
    "objective": objective dflt,
    "strategy": strategy dflt,
    // Seeds ride the JSON number: above 2^53 they would lose precision,
    // which the decoder rejects rather than silently aliasing.
    "seed": seed dflt,
} }

/// A budget sweep is an `{"axis": ..., "values": [...]}` object or the
/// CLI string form (`"max-mw=300..=900:50"`). Either way it is
/// validated (non-empty, strictly increasing, legal bounds).
impl Wire for BudgetSweep {
    fn put(&self, out: &mut String) {
        let mut o = Obj::open(out);
        write_escaped(o.key("axis"), self.axis.name());
        o.put("values", &self.values);
        o.close();
    }

    fn take(r: &mut Reader<'_>, key: &str) -> Decoded<Self> {
        let sweep = match r.peek() {
            Some(b'"') => BudgetSweep::parse(&r.string()?).map_err(ProtocolError)?,
            Some(b'{') => {
                r.open(b'{')?;
                let outer: Keys<'_, '_> = &mut |_, _| Ok(false);
                let (axis, values): (String, _) =
                    wire_take!(r outer (ctor (axis, values)); "axis": axis, "values": values);
                BudgetSweep {
                    axis: axis.parse::<BudgetAxis>().map_err(ProtocolError)?,
                    values,
                }
            }
            _ => return Err(bad(format!("'{key}' must be an object or a string"))),
        };
        sweep.validate().map_err(ProtocolError)?;
        Ok(sweep)
    }
}

wire_struct! { FrontierTuneRequest as _r { ..base, "sweep": sweep } }

wire_struct! { TraceContext as _c { "id": id, "parent": parent omit } check nonzero_trace }

fn nonzero_trace(ctx: &mut TraceContext) -> Decoded<()> {
    if ctx.id == 0 {
        return Err(bad("'trace' id must be non-zero"));
    }
    Ok(())
}

// Requests and replies share the envelope table; replies only ever
// carry `req`.
wire_struct! { RequestMeta as _m { "trace": trace omit, "req": req_id omit } }

/// The frontier request's `"axes"` selector: `"sqnr"` swaps the area
/// axis for measured SQNR, `"gates"` (the default) keeps it.
struct SqnrAxes;

impl Codec<bool> for SqnrAxes {
    fn put(sqnr: &bool, out: &mut String) {
        out.push_str(if *sqnr { "\"sqnr\"" } else { "\"gates\"" });
    }

    fn take(r: &mut Reader<'_>, key: &str) -> Decoded<bool> {
        match String::take(r, key).as_deref() {
            Ok("gates") => Ok(false),
            Ok("sqnr") => Ok(true),
            _ => Err(bad("'axes' must be \"gates\" or \"sqnr\"")),
        }
    }

    fn is_empty(sqnr: &bool) -> bool {
        !*sqnr
    }
}

fn check_frontier(request: &mut Request) -> Decoded<()> {
    if let Request::Frontier { dims, sqnr, .. } = *request {
        if !(dims == 2 || dims == 3) {
            return Err(bad("'dims' must be 2 or 3"));
        }
        if sqnr && dims != 3 {
            return Err(bad("the sqnr frontier is 3-dimensional; use dims 3"));
        }
    }
    Ok(())
}

wire_enum! { Request, "type", "request type" {
    Eval { 0: point } = "eval" { "point": point = paper() },
    EvalBatch { 0: points } = "eval_batch" { "points": points },
    Sweep { 0: spec } = "sweep" { "spec": spec },
    Tune { 0: request } = "tune" { ..request },
    TuneFrontier { 0: request } = "tune_frontier" { ..request },
    Frontier { dims, sqnr, stream } = "frontier" {
        "dims": dims = 3,
        "axes": sqnr omit via SqnrAxes,
        "stream": stream omit,
    } check check_frontier,
    Stats {} = "stats" {},
    Metrics {} = "metrics" {},
    MetricsHistory {} = "metrics_history" {},
    Watch { samples } = "watch" { "samples": samples dflt },
    TraceQuery { id } = "trace_query" { "id": id },
    Dump {} = "dump" {},
    Shutdown {} = "shutdown" {},
} }

wire_struct! { PointResult as r {
    "status" => "ok",
    "fps": fps,
    "achieved_gops": achieved_gops,
    "peak_gops": peak_gops,
    "chip_mw": chip_mw,
    "dram_mw": dram_mw,
    "system_mw" => r.system_mw(),
    "gops_per_watt" => r.gops_per_watt(),
    "gates_k": gates_k,
    "sram_kb": sram_kb,
    "sqnr_db": sqnr_db,
} }

/// An outcome is a feasible result (`"status":"ok"`, written by the
/// result's own table) or an infeasibility reason.
impl Fields for PointOutcome {
    fn put_fields(&self, o: &mut Obj<'_>) {
        match self {
            PointOutcome::Feasible(r) => r.put_fields(o),
            PointOutcome::Infeasible(reason) => {
                o.key("status").push_str("\"infeasible\"");
                o.put("reason", reason);
            }
        }
    }

    fn take_fields<'a>(r: &mut Reader<'a>, outer: Keys<'_, 'a>) -> Decoded<Self> {
        tagged(r, &["status"], outer, |tags, r, outer| {
            match tag_str(tags[0]).as_deref() {
                Some("ok") => PointResult::take_fields(r, outer).map(PointOutcome::Feasible),
                Some("infeasible") => {
                    Ok(wire_take!(r outer (ctor PointOutcome::Infeasible(reason));
                    "reason": reason = "unspecified".into()))
                }
                _ => Err(bad("missing or unknown 'status'")),
            }
        })
    }
}

wire_struct! { MixResult as r {
    "fps": fps,
    "chip_mw": chip_mw,
    "dram_mw": dram_mw,
    "system_mw" => r.system_mw(),
    "peak_gops": peak_gops,
    "gops_per_watt" => r.gops_per_watt(),
    "gates_k": gates_k,
    "sram_kb": sram_kb,
    "sqnr_db": sqnr_db,
} }

wire_struct! { Tuned as _t { "admitted": admitted dflt, "point": point, ..result } }

/// A tune's winner block: `"found"`, then the winner's rows when there
/// is one.
impl Fields for Option<Tuned> {
    fn put_fields(&self, o: &mut Obj<'_>) {
        o.put("found", &self.is_some());
        if let Some(t) = self {
            t.put_fields(o);
        }
    }

    fn take_fields<'a>(r: &mut Reader<'a>, outer: Keys<'_, 'a>) -> Decoded<Self> {
        tagged(r, &["found"], outer, |tags, r, outer| match tags[0] {
            Some("true") => Tuned::take_fields(r, outer).map(Some),
            Some("false") => each_key(r, outer).map(|()| None),
            Some(_) => Err(bad("'found' must be a boolean")),
            None => Err(missing("found")),
        })
    }
}

wire_struct! { Objectives as _o {
    "fps": fps dflt,
    "system_mw": system_mw dflt,
    "gates_k": gates_k dflt,
    "sqnr_db": sqnr_db dflt,
} }

/// A frontier candidate: its grid index, then its objectives.
impl Fields for (usize, Objectives) {
    fn put_fields(&self, o: &mut Obj<'_>) {
        o.put("i", &self.0);
        self.1.put_fields(o);
    }

    fn take_fields<'a>(r: &mut Reader<'a>, outer: Keys<'_, 'a>) -> Decoded<Self> {
        Ok(wire_take!(r outer (ctor (i, objectives)); "i": i, ..objectives))
    }
}

object_wire!(PointOutcome, (usize, Objectives));

wire_struct! { SweepSummary as _s {
    "points": points dflt,
    "feasible": feasible dflt,
    "cache_hits": cache_hits dflt,
    "cache_misses": cache_misses dflt,
    "wall_ms": wall_ms dflt,
    "frontier_3d": frontier_3d,
    "frontier_sqnr": frontier_sqnr,
    "candidates": candidates omit,
    "degraded": degraded omit,
} }

wire_struct! { TuneSummary as _s {
    ..best,
    "evaluations": evaluations dflt,
    "cache_hits": cache_hits dflt,
    "cache_misses": cache_misses dflt,
    "rounds": rounds dflt,
    "exhaustive_points": exhaustive_points dflt,
    "degraded": degraded omit,
} }

wire_struct! { FrontierStep as _s {
    // Required, not defaulted: a NaN budget would poison every
    // PartialEq on the step downstream.
    "budget_value": budget_value,
    ..best,
    "evaluations": evaluations dflt,
    "fresh_evaluations": fresh_evaluations dflt,
    "cache_hits": cache_hits dflt,
    "cache_misses": cache_misses dflt,
    "rounds": rounds dflt,
} }

wire_struct! { FrontierStepSummary as _s { "step": step dflt, "steps": steps dflt, ..result } }

wire_struct! { FrontierDoneSummary as _s {
    "steps": steps dflt,
    "frontier": frontier,
    "evaluations": evaluations dflt,
    "standalone_evaluations": standalone_evaluations dflt,
    "cache_hits": cache_hits dflt,
    "cache_misses": cache_misses dflt,
    "exhaustive_points": exhaustive_points dflt,
} }

wire_struct! { FrontierEntry as _e { "point": point, ..result } }

wire_struct! { ShardStat as _s {
    "addr": addr,
    "requests": requests dflt,
    "errors": errors dflt,
    "degraded": degraded omit,
} }

// Every counter defaults to 0, so replies from daemons predating a
// field still decode.
wire_struct! { ServerStats as _s {
    "cached_points": cached_points dflt,
    "hits": hits dflt,
    "misses": misses dflt,
    "hit_rate": hit_rate dflt,
    "requests": requests dflt,
    "active_jobs": active_jobs dflt,
    "queue_capacity": queue_capacity dflt,
    "open_connections": open_connections dflt,
    "max_connections": max_connections dflt,
    "threads": threads dflt,
    "loaded_from_disk": loaded_from_disk dflt,
    "persistent": persistent dflt,
    "uptime_s": uptime_s dflt,
    "inflight_requests": inflight_requests dflt,
    "queue_depth": queue_depth dflt,
    "slos": slos dflt,
    "slo_breach_ticks": slo_breach_ticks dflt,
    "shards": shards omit,
} }

wire_struct! { HistogramSummary as _h {
    "count": count dflt,
    "sum": sum dflt,
    "p50": p50 dflt,
    "p95": p95 dflt,
    "p99": p99 dflt,
    "max": max dflt,
} }

wire_enum! { MetricValue, "kind", "metric kind" {
    Counter { 0: value } = "counter" { "value": value },
    Gauge { 0: value } = "gauge" { "value": value dflt },
    Histogram { 0: summary } = "histogram" { ..summary },
} }

wire_struct! { MetricEntry as _e { "name": name, "labels": labels omit, ..value } }

wire_struct! { Snapshot as _s { "uptime_s": uptime_s dflt, "metrics": entries } }

wire_struct! { HistoryTypeWindow as _t {
    "kind": kind,
    "requests": requests dflt,
    "p50_us": p50_us dflt,
    "p99_us": p99_us dflt,
} }

wire_struct! { HistoryWindow as _w {
    "window_s": window_s dflt,
    "duration_s": duration_s dflt,
    "samples": samples dflt,
    "req_per_sec": req_per_sec dflt,
    "points_per_sec": points_per_sec dflt,
    "types": types,
} }

wire_struct! { MetricsHistory as _h {
    "interval_s": interval_s dflt,
    "samples": samples dflt,
    "capacity": capacity dflt,
    "windows": windows,
} }

wire_struct! { WatchSample as _s {
    "seq": seq,
    "interval_s": interval_s dflt,
    "window_s": window_s dflt,
    "req_per_sec": req_per_sec dflt,
    "points_per_sec": points_per_sec dflt,
    "inflight": inflight dflt,
    "active_jobs": active_jobs dflt,
    "queue_depth": queue_depth dflt,
    "cache_hit_rate": cache_hit_rate dflt,
    "requests_total": requests_total dflt,
    "queue_wait_p99_us": queue_wait_p99_us dflt,
    "execute_p99_us": execute_p99_us dflt,
    "types": types,
} }

// One span of a trace reply. Its trace id is the reply's `id`, not
// repeated per span ([`adopt_trace_id`] restores it on decode).
wire_struct! { SpanRecord as _s {
    "span": span_id,
    "parent": parent_id dflt,
    "name": name,
    "start_us": start_us dflt,
    "dur_us": dur_us dflt,
    "worker": worker omit,
    "points": points omit,
    trace_id = 0,
} }

fn adopt_trace_id(reply: &mut Response) -> Decoded<()> {
    if let Response::Trace { id, spans, .. } = reply {
        for span in spans {
            span.trace_id = *id;
        }
    }
    Ok(())
}

// `ok:true` replies. The `ok:false` replies (`busy`, `error`) are the
// envelope's other branch, written by `Response::encode_with_req`.
wire_enum! { Response, "type", "response type" {
    Eval { point, outcome } = "eval" { "point": point, ..outcome },
    EvalBatch { outcomes, cache_hits, cache_misses } = "eval_batch" {
        "cache_hits": cache_hits dflt,
        "cache_misses": cache_misses dflt,
        "outcomes": outcomes,
    },
    Sweep { 0: summary } = "sweep" { ..summary },
    Tune { 0: summary } = "tune" { ..summary },
    TuneFrontierDone { 0: summary } = "tune_frontier" if "done" { "done" => true, ..summary },
    TuneFrontierStep { 0: summary } = "tune_frontier" { ..summary },
    FrontierStreamDone { dims, entries, degraded } = "frontier" if "done" {
        "done" => true,
        "dims": dims = 3,
        "entries": entries dflt,
        "degraded": degraded omit,
    },
    FrontierStreamEntry { entry } = "frontier" if "stream" { "stream" => true, ..entry },
    Frontier { dims, entries, degraded } = "frontier" {
        "dims": dims = 3,
        "entries": entries,
        "degraded": degraded omit,
    },
    Stats { 0: stats } = "stats" { ..stats },
    Metrics { snapshot } = "metrics" { ..snapshot },
    MetricsHistory { 0: history } = "metrics_history" { ..history },
    WatchDone { samples } = "watch" if "done" { "done" => true, "samples": samples dflt },
    WatchSample { 0: sample } = "watch" { ..sample },
    Trace { id, dropped, spans } = "trace" {
        "id": id,
        "dropped": dropped dflt,
        "spans": spans,
    } check adopt_trace_id,
    Dump { path, spans, dropped } = "dump" {
        "path": path,
        "spans": spans dflt,
        "dropped": dropped dflt,
    },
    Shutdown {} = "shutdown" {},
} }

// ------------------------------------------------------------ line codec

/// Reads one line's object: `body` reads the message, and with
/// `with_meta` the envelope's `trace` and `req` rows ride along (else
/// they are unknown keys). A line that is not an object holds none of
/// the keys a message needs, so it is rejected like one.
fn read_line<'a, T>(
    line: &'a str,
    with_meta: bool,
    body: impl FnOnce(&mut Reader<'a>, Keys<'_, 'a>) -> Decoded<T>,
) -> Decoded<(T, RequestMeta)> {
    let mut r = Reader::new(line);
    r.open(b'{')?;
    let (mut trace, mut req_id) = (None, None);
    let value = body(&mut r, &mut |key, r| match key {
        "trace" if with_meta => read(r, &mut trace, |r| TraceContext::take(r, key)),
        "req" if with_meta => read(r, &mut req_id, |r| u64::take(r, key)),
        _ => Ok(false),
    })?;
    r.end()?;
    let (trace, req_id) = (trace.transpose()?, req_id.transpose()?);
    Ok((value, RequestMeta { trace, req_id }))
}

impl Request {
    /// Whether this request streams its reply (N result lines followed
    /// by one `done` line) instead of answering one line.
    pub fn is_streaming(&self) -> bool {
        matches!(
            self,
            Request::TuneFrontier(_)
                | Request::Frontier { stream: true, .. }
                | Request::Watch { .. }
        )
    }

    /// The single-line wire form (no trailing newline; the transport
    /// adds it).
    pub fn encode(&self) -> String {
        self.encode_with_meta(None, None)
    }

    /// The wire form carrying the optional trace context
    /// (`"trace":{"id":...,"parent":...}`, `parent` omitted when 0)
    /// plus an optional pipelining request id (`"req":N`), both right
    /// after `"type"`. A daemon echoes the id on **every** reply line
    /// for the request — including streamed lines and the terminal
    /// `done` line — so a pipelining client can match replies to
    /// requests instead of assuming strict request/reply alternation.
    /// Daemons predating tracing or pipelining ignore the fields.
    pub fn encode_with_meta(&self, ctx: Option<TraceContext>, req_id: Option<u64>) -> String {
        let meta = RequestMeta { trace: ctx, req_id };
        let mut out = String::with_capacity(128);
        let mut o = Obj::open(&mut out);
        self.put_tagged(&mut o, |o| meta.put_fields(o));
        o.close();
        out
    }

    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] on unparseable JSON, a missing/unknown
    /// `"type"`, or missing/mistyped fields.
    pub fn decode(line: &str) -> Result<Request, ProtocolError> {
        Ok(read_line(line, false, Request::take_fields)?.0)
    }

    /// Parses one request line together with its transport envelope:
    /// the optional `"trace"` context and the optional pipelining id
    /// `"req"`. The daemon's session loop uses this to tag every span
    /// of the request and to echo `"req"` on every reply line.
    ///
    /// # Errors
    ///
    /// Everything [`Request::decode`] rejects, plus a malformed
    /// `"trace"` object (missing/zero `id`, mistyped fields) or a
    /// non-integer `"req"`.
    pub fn decode_with_meta(line: &str) -> Result<(Request, RequestMeta), ProtocolError> {
        read_line(line, true, Request::take_fields)
    }
}

impl Response {
    /// An `error` reply: the request was at fault, for the given reason.
    pub fn error(reason: impl fmt::Display) -> Response {
        Response::Error {
            message: reason.to_string(),
        }
    }

    /// The single-line wire form (no trailing newline).
    pub fn encode(&self) -> String {
        self.encode_with_req(None)
    }

    /// The wire form echoing a pipelining request id: the same line
    /// [`Response::encode`] produces plus `"req":N` right after
    /// `"type"` (after `"error"` on failure lines). The daemon uses
    /// this for every line it writes in reply to a request that
    /// carried `"req"`.
    pub fn encode_with_req(&self, req_id: Option<u64>) -> String {
        let meta = RequestMeta {
            trace: None,
            req_id,
        };
        let mut out = String::with_capacity(256);
        let mut o = Obj::open(&mut out);
        match self {
            Response::Busy { active, capacity } => {
                o.put("ok", &false);
                write_escaped(o.key("error"), "busy");
                meta.put_fields(&mut o);
                o.put("active", active);
                o.put("capacity", capacity);
            }
            Response::Error { message } => {
                o.put("ok", &false);
                o.put("error", message);
                meta.put_fields(&mut o);
            }
            _ => {
                o.put("ok", &true);
                self.put_tagged(&mut o, |o| meta.put_fields(o));
            }
        }
        o.close();
        out
    }

    /// Parses one response line.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] on unparseable JSON or a malformed reply
    /// (missing or mistyped fields).
    pub fn decode(line: &str) -> Result<Response, ProtocolError> {
        Ok(Response::decode_with_req(line)?.0)
    }

    /// Parses one response line together with its echoed pipelining id
    /// (`"req"`), if any. Pipelining clients use this to match reply
    /// lines to the requests that produced them.
    ///
    /// # Errors
    ///
    /// Everything [`Response::decode`] rejects, plus a non-integer
    /// `"req"`.
    pub fn decode_with_req(line: &str) -> Result<(Response, Option<u64>), ProtocolError> {
        let (reply, meta) = read_line(line, true, |r, outer| {
            tagged(r, &["ok"], outer, |tags, r, outer| match tags[0] {
                Some("true") => Response::take_fields(r, outer),
                // `busy` backpressure with its counts, or an error message.
                Some("false") => tagged(r, &["error"], outer, |tags, r, outer| {
                    let message = tag_str(tags[0].or(Some("\"unspecified\"")))
                        .ok_or_else(|| bad("'error' must be a string"))?;
                    if message != "busy" {
                        return each_key(r, outer).map(|()| Response::error(message));
                    }
                    let (active, capacity) = wire_take!(r outer (ctor (active, capacity));
                        "active": active dflt, "capacity": capacity dflt);
                    Ok(Response::Busy { active, capacity })
                }),
                Some(_) => Err(bad("'ok' must be a boolean")),
                None => Err(missing("ok")),
            })
        })?;
        Ok((reply, meta.req_id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_result() -> PointResult {
        match chain_nn_dse::evaluate(&DesignPoint::paper_alexnet()).unwrap() {
            PointOutcome::Feasible(r) => r,
            PointOutcome::Infeasible(why) => panic!("paper point infeasible: {why}"),
        }
    }

    /// Wire lines captured from the encoder that predates the field
    /// tables, one `key<TAB>line` per line. They pin the bytes: never
    /// regenerate them from the current encoder.
    const GOLDEN: &str = include_str!("../testdata/wire_golden.txt");

    /// The trace context and pipelining id the golden envelopes carry.
    const CTX: TraceContext = TraceContext {
        id: 4242,
        parent: 17,
    };
    const REQ_ID: u64 = 7;

    /// Asserts `line` equals the golden line stored under `key`.
    fn pin(key: &str, line: &str) {
        let want = GOLDEN
            .lines()
            .find_map(|l| l.strip_prefix(key)?.strip_prefix('\t'))
            .unwrap_or_else(|| panic!("no golden line '{key}'"));
        assert_eq!(line, want, "{key}");
    }

    /// Pins every wire form of `req` — plain, with `"req"`, with a
    /// trace context, with both — and decodes each back.
    fn pin_request(key: &str, req: &Request) {
        pin(&format!("{key}.plain"), &req.encode());
        for (variant, trace, req_id) in [
            ("plain", None, None),
            ("req", None, Some(REQ_ID)),
            ("trace", Some(CTX), None),
            ("trace_req", Some(CTX), Some(REQ_ID)),
        ] {
            let line = req.encode_with_meta(trace, req_id);
            pin(&format!("{key}.{variant}"), &line);
            let (back, meta) = Request::decode_with_meta(&line).unwrap();
            assert_eq!(back, *req, "{line}");
            assert_eq!(meta, RequestMeta { trace, req_id }, "{line}");
            // Plain decode ignores the envelope.
            assert_eq!(Request::decode(&line).unwrap(), *req, "{line}");
        }
    }

    /// Pins `resp` plain and with an echoed `"req"`, and decodes both
    /// back.
    fn pin_response(key: &str, resp: &Response) {
        pin(&format!("{key}.plain"), &resp.encode());
        for (variant, req_id) in [("plain", None), ("req", Some(REQ_ID))] {
            let line = resp.encode_with_req(req_id);
            pin(&format!("{key}.{variant}"), &line);
            assert_eq!(
                Response::decode_with_req(&line).unwrap(),
                (resp.clone(), req_id),
                "{line}"
            );
            assert_eq!(Response::decode(&line).unwrap(), *resp, "{line}");
        }
    }

    #[test]
    fn requests_round_trip() {
        let requests = vec![
            Request::Eval(DesignPoint::paper_alexnet()),
            Request::EvalBatch(vec![
                DesignPoint::paper_alexnet(),
                DesignPoint {
                    pes: 288,
                    freq_mhz: 123.456789012345,
                    net: "vgg16".into(),
                    ..DesignPoint::paper_alexnet()
                },
            ]),
            // A partitioned sub-sweep carries its `part` selector.
            Request::Sweep(SweepSpec {
                part: Some(SweepPart { index: 1, of: 4 }),
                ..SweepSpec::paper_point()
            }),
            Request::Sweep(SweepSpec {
                pes: vec![288, 576],
                freqs_mhz: vec![350.0, 700.0],
                nets: vec!["alexnet".into(), "vgg16".into()],
                ..SweepSpec::paper_point()
            }),
            Request::Frontier {
                dims: 2,
                sqnr: false,
                stream: false,
            },
            Request::Frontier {
                dims: 3,
                sqnr: false,
                stream: false,
            },
            Request::Frontier {
                dims: 3,
                sqnr: true,
                stream: false,
            },
            Request::Frontier {
                dims: 3,
                sqnr: false,
                stream: true,
            },
            Request::Frontier {
                dims: 3,
                sqnr: true,
                stream: true,
            },
            Request::Stats,
            Request::Metrics,
            Request::MetricsHistory,
            Request::Watch { samples: 0 },
            Request::Watch { samples: 5 },
            Request::TraceQuery { id: 4242 },
            Request::Dump,
            Request::Shutdown,
        ];
        for (i, req) in requests.iter().enumerate() {
            let line = req.encode();
            assert!(!line.contains('\n'), "wire form must be one line");
            pin_request(&format!("requests_round_trip.{i}"), req);
        }
    }

    #[test]
    fn stats_reply_without_observability_fields_still_decodes() {
        // A daemon predating the observability layer omits `uptime_s`
        // and `inflight_requests`; one predating the temporal layer
        // additionally omits `queue_depth` and the SLO counters. The
        // decoder must default every one of them.
        let legacy = r#"{"ok":true,"type":"stats","cached_points":10,"hits":7,"misses":3,"hit_rate":0.7,"requests":42,"active_jobs":1,"queue_capacity":16,"open_connections":3,"max_connections":64,"threads":4,"loaded_from_disk":6,"persistent":true}"#;
        match Response::decode(legacy).unwrap() {
            Response::Stats(st) => {
                assert_eq!(st.cached_points, 10);
                assert_eq!(st.requests, 42);
                assert_eq!(st.uptime_s, 0.0);
                assert_eq!(st.inflight_requests, 0);
                assert_eq!(st.queue_depth, 0);
                assert_eq!(st.slos, 0);
                assert_eq!(st.slo_breach_ticks, 0);
            }
            other => panic!("expected stats, got {other:?}"),
        }
    }

    #[test]
    fn metrics_reply_without_uptime_still_decodes() {
        // Pre-temporal daemons omit the snapshot-level `uptime_s`.
        let legacy = r#"{"ok":true,"type":"metrics","metrics":[]}"#;
        match Response::decode(legacy).unwrap() {
            Response::Metrics { snapshot } => {
                assert_eq!(snapshot.uptime_s, 0.0);
                assert!(snapshot.entries.is_empty());
            }
            other => panic!("expected metrics, got {other:?}"),
        }
    }

    #[test]
    fn responses_round_trip() {
        let responses = vec![
            Response::Eval {
                point: DesignPoint::paper_alexnet(),
                outcome: PointOutcome::Feasible(paper_result()),
            },
            Response::Eval {
                point: DesignPoint::paper_alexnet(),
                outcome: PointOutcome::Infeasible("chain too short".into()),
            },
            Response::Sweep(SweepSummary {
                points: 6,
                feasible: 5,
                cache_hits: 2,
                cache_misses: 4,
                wall_ms: 1.25,
                frontier_3d: vec![0, 3, 5],
                frontier_sqnr: vec![0, 5],
                candidates: Vec::new(),
                degraded: false,
            }),
            // A partitioned shard reply: frontier candidates attached,
            // and the degraded marker set.
            Response::Sweep(SweepSummary {
                points: 3,
                feasible: 3,
                cache_hits: 0,
                cache_misses: 3,
                wall_ms: 0.5,
                frontier_3d: vec![1, 4],
                frontier_sqnr: vec![1],
                candidates: vec![
                    (
                        1,
                        Objectives {
                            fps: 100.5,
                            system_mw: 820.25,
                            gates_k: 1024.0,
                            sqnr_db: 60.125,
                        },
                    ),
                    (
                        4,
                        Objectives {
                            fps: 55.0,
                            system_mw: 410.0,
                            gates_k: 512.5,
                            sqnr_db: 72.0,
                        },
                    ),
                ],
                degraded: true,
            }),
            Response::EvalBatch {
                outcomes: vec![
                    PointOutcome::Feasible(paper_result()),
                    PointOutcome::Infeasible("chain too short".into()),
                ],
                cache_hits: 1,
                cache_misses: 1,
            },
            Response::Frontier {
                dims: 3,
                entries: vec![FrontierEntry {
                    point: DesignPoint::paper_alexnet(),
                    result: paper_result(),
                }],
                degraded: false,
            },
            Response::Stats(ServerStats {
                cached_points: 10,
                hits: 7,
                misses: 3,
                hit_rate: 0.7,
                requests: 42,
                active_jobs: 1,
                queue_capacity: 16,
                open_connections: 3,
                max_connections: 64,
                threads: 4,
                loaded_from_disk: 6,
                persistent: true,
                uptime_s: 12.5,
                inflight_requests: 2,
                queue_depth: 1,
                slos: 2,
                slo_breach_ticks: 3,
                shards: vec![
                    ShardStat {
                        addr: "127.0.0.1:7001".into(),
                        requests: 12,
                        errors: 0,
                        degraded: false,
                    },
                    ShardStat {
                        addr: "127.0.0.1:7002".into(),
                        requests: 9,
                        errors: 2,
                        degraded: true,
                    },
                ],
            }),
            Response::Metrics {
                snapshot: Snapshot {
                    entries: vec![
                        MetricEntry {
                            name: "serve_request_ns".into(),
                            labels: vec![("type".into(), "eval".into())],
                            value: MetricValue::Histogram(HistogramSummary {
                                count: 12,
                                sum: 49152,
                                p50: 4096.0,
                                p95: 4096.0,
                                p99: 4096.0,
                                max: 4096.0,
                            }),
                        },
                        MetricEntry {
                            name: "serve_inflight_requests".into(),
                            labels: vec![],
                            value: MetricValue::Gauge(1.0),
                        },
                        MetricEntry {
                            name: "serve_requests_total".into(),
                            labels: vec![("type".into(), "eval".into())],
                            value: MetricValue::Counter(12),
                        },
                    ],
                    uptime_s: 42.5,
                },
            },
            Response::Metrics {
                snapshot: Snapshot::default(),
            },
            Response::MetricsHistory(Box::new(MetricsHistory {
                interval_s: 0.25,
                samples: 120,
                capacity: 256,
                windows: vec![
                    HistoryWindow {
                        window_s: 1.0,
                        duration_s: 1.0,
                        samples: 4,
                        req_per_sec: 12.0,
                        points_per_sec: 512.0,
                        types: vec![HistoryTypeWindow {
                            kind: "eval".into(),
                            requests: 10,
                            p50_us: 250.0,
                            p99_us: 750.5,
                        }],
                    },
                    HistoryWindow {
                        window_s: 10.0,
                        duration_s: 8.5,
                        samples: 34,
                        req_per_sec: 2.5,
                        points_per_sec: 64.0,
                        types: vec![],
                    },
                ],
            })),
            Response::WatchSample(Box::new(WatchSample {
                seq: 7,
                interval_s: 0.25,
                window_s: 1.0,
                req_per_sec: 48.0,
                points_per_sec: 2048.0,
                inflight: 3,
                active_jobs: 2,
                queue_depth: 1,
                cache_hit_rate: 0.75,
                requests_total: 420,
                queue_wait_p99_us: 125.5,
                execute_p99_us: 850.0,
                types: vec![HistoryTypeWindow {
                    kind: "sweep".into(),
                    requests: 2,
                    p50_us: 1500.0,
                    p99_us: 9000.0,
                }],
            })),
            Response::WatchDone { samples: 7 },
            Response::Trace {
                id: 4242,
                dropped: 3,
                spans: vec![
                    SpanRecord {
                        trace_id: 4242,
                        span_id: 10,
                        parent_id: 0,
                        name: "sweep".into(),
                        start_us: 100,
                        dur_us: 950,
                        worker: None,
                        points: 500,
                    },
                    SpanRecord {
                        trace_id: 4242,
                        span_id: 11,
                        parent_id: 10,
                        name: "batch".into(),
                        start_us: 200,
                        dur_us: 40,
                        worker: Some(1),
                        points: 32,
                    },
                ],
            },
            Response::Trace {
                id: 7,
                dropped: 0,
                spans: vec![],
            },
            Response::Dump {
                path: "/tmp/trace.jsonl.flight.json".into(),
                spans: 128,
                dropped: 0,
            },
            // Omit-when branches: a span without worker or points, a
            // metric entry without labels, stats without shards, and
            // degraded frontiers.
            Response::Trace {
                id: 9,
                dropped: 0,
                spans: vec![SpanRecord {
                    trace_id: 9,
                    span_id: 12,
                    parent_id: 0,
                    name: "stats".into(),
                    start_us: 5,
                    dur_us: 1,
                    worker: None,
                    points: 0,
                }],
            },
            Response::Metrics {
                snapshot: Snapshot {
                    entries: vec![MetricEntry {
                        name: "dse_points_evaluated_total".into(),
                        labels: vec![],
                        value: MetricValue::Counter(4096),
                    }],
                    uptime_s: 0.5,
                },
            },
            Response::Stats(ServerStats {
                cached_points: 0,
                hits: 0,
                misses: 0,
                hit_rate: 0.0,
                requests: 1,
                active_jobs: 0,
                queue_capacity: 64,
                open_connections: 1,
                max_connections: 256,
                threads: 2,
                loaded_from_disk: 0,
                persistent: false,
                uptime_s: 0.125,
                inflight_requests: 1,
                queue_depth: 0,
                slos: 0,
                slo_breach_ticks: 0,
                shards: vec![],
            }),
            Response::Frontier {
                dims: 2,
                entries: vec![],
                degraded: true,
            },
            Response::FrontierStreamDone {
                dims: 2,
                entries: 0,
                degraded: true,
            },
            Response::Shutdown,
            Response::Busy {
                active: 16,
                capacity: 16,
            },
            Response::Error {
                message: "unknown network 'squeezenet'".into(),
            },
        ];
        for (i, resp) in responses.iter().enumerate() {
            let line = resp.encode();
            assert!(!line.contains('\n'));
            pin_response(&format!("responses_round_trip.{i}"), resp);
        }
    }

    #[test]
    fn tune_requests_round_trip() {
        let requests = [
            Request::Tune(Box::default()),
            Request::Tune(Box::new(TuneRequest {
                mix: WorkloadMix::parse("alexnet:0.7,vgg16:0.3").unwrap(),
                budget: Budget {
                    max_system_mw: Some(500.0),
                    min_fps: Some(30.0),
                    min_sqnr_db: Some(45.0),
                    ..Budget::default()
                },
                objective: Objective::Lexicographic(vec![Metric::Fps, Metric::SystemMw]),
                strategy: StrategyKind::HillClimb,
                seed: 42,
                ..TuneRequest::default()
            })),
            Request::Tune(Box::new(TuneRequest {
                objective: Objective::Scalarized(vec![(Metric::Fps, 1.0), (Metric::GatesK, 0.25)]),
                ..TuneRequest::default()
            })),
            // Every budget axis set (the default above sets none).
            Request::Tune(Box::new(TuneRequest {
                budget: Budget {
                    max_system_mw: Some(750.5),
                    max_gates_k: Some(2048.0),
                    min_fps: Some(15.0),
                    min_sqnr_db: Some(40.25),
                },
                ..TuneRequest::default()
            })),
        ];
        for (i, req) in requests.iter().enumerate() {
            let line = req.encode();
            assert!(!line.contains('\n'));
            pin_request(&format!("tune_requests_round_trip.{i}"), req);
        }
    }

    #[test]
    fn tune_request_fields_all_default() {
        let req = Request::decode(r#"{"type":"tune"}"#).unwrap();
        assert_eq!(req, Request::Tune(Box::default()));
        // The mix also accepts the CLI string form.
        let req = Request::decode(
            r#"{"type":"tune","mix":"vgg16:2,alexnet:1","budget":{"max_system_mw":500}}"#,
        )
        .unwrap();
        let Request::Tune(tune) = req else {
            panic!("not a tune")
        };
        assert_eq!(tune.mix.primary(), "vgg16");
        assert_eq!(tune.budget.max_system_mw, Some(500.0));
        assert_eq!(tune.budget.max_gates_k, None);
        assert_eq!(tune.budget.min_sqnr_db, None);
        // And the accuracy floor decodes when present.
        let req = Request::decode(r#"{"type":"tune","budget":{"min_sqnr_db":42.5}}"#).unwrap();
        let Request::Tune(tune) = req else {
            panic!("not a tune")
        };
        assert_eq!(tune.budget.min_sqnr_db, Some(42.5));
    }

    #[test]
    fn tune_responses_round_trip() {
        let found = Response::Tune(TuneSummary {
            best: Some(Tuned {
                point: DesignPoint::paper_alexnet(),
                result: MixResult::from(&paper_result()),
                admitted: true,
            }),
            evaluations: 34,
            cache_hits: 10,
            cache_misses: 58,
            rounds: 5,
            exhaustive_points: 244,
            degraded: false,
        });
        let nothing = Response::Tune(TuneSummary {
            best: None,
            evaluations: 20,
            cache_hits: 0,
            cache_misses: 20,
            rounds: 1,
            exhaustive_points: 244,
            degraded: true,
        });
        // Nothing found, and nothing degraded either.
        let nothing_whole = Response::Tune(TuneSummary {
            best: None,
            evaluations: 20,
            cache_hits: 20,
            cache_misses: 0,
            rounds: 1,
            exhaustive_points: 244,
            degraded: false,
        });
        for (i, resp) in [found, nothing, nothing_whole].iter().enumerate() {
            let line = resp.encode();
            assert!(!line.contains('\n'));
            pin_response(&format!("tune_responses_round_trip.{i}"), resp);
        }
    }

    #[test]
    fn tune_frontier_requests_round_trip() {
        use chain_nn_tuner::{BudgetAxis, BudgetSweep, FrontierTuneRequest};
        let requests = [
            Request::TuneFrontier(Box::default()),
            Request::TuneFrontier(Box::new(FrontierTuneRequest {
                base: TuneRequest {
                    mix: WorkloadMix::parse("alexnet:0.7,vgg16:0.3").unwrap(),
                    strategy: StrategyKind::HillClimb,
                    seed: 9,
                    ..TuneRequest::default()
                },
                sweep: BudgetSweep {
                    axis: BudgetAxis::MinFps,
                    values: vec![30.0, 60.5, 120.0],
                },
            })),
        ];
        for (i, req) in requests.iter().enumerate() {
            let line = req.encode();
            assert!(!line.contains('\n'));
            assert!(req.is_streaming());
            pin_request(&format!("tune_frontier_requests_round_trip.{i}"), req);
        }
        // The sweep also decodes from its CLI string form.
        let req = Request::decode(
            r#"{"type":"tune_frontier","sweep":"max-mw=300..=400:50","budget":{"min_fps":30}}"#,
        )
        .unwrap();
        let Request::TuneFrontier(ft) = req else {
            panic!("not a tune_frontier")
        };
        assert_eq!(ft.sweep.axis, BudgetAxis::MaxSystemMw);
        assert_eq!(ft.sweep.values, vec![300.0, 350.0, 400.0]);
        assert_eq!(ft.base.budget.min_fps, Some(30.0));
        // Non-streaming requests say so; watch streams.
        assert!(!Request::Stats.is_streaming());
        assert!(!Request::MetricsHistory.is_streaming());
        assert!(!Request::Tune(Box::default()).is_streaming());
        assert!(Request::Watch { samples: 0 }.is_streaming());
    }

    #[test]
    fn watch_lines_distinguish_samples_from_the_done_line() {
        // A sample line carries `seq`; the terminal line carries
        // `done` — a line with neither is malformed, not a default.
        let headless = r#"{"ok":true,"type":"watch","req_per_sec":5}"#;
        assert!(Response::decode(headless).is_err());
        let done = r#"{"ok":true,"type":"watch","done":true,"samples":4}"#;
        assert_eq!(
            Response::decode(done).unwrap(),
            Response::WatchDone { samples: 4 }
        );
        // A negative sample budget is rejected at decode time.
        assert!(Request::decode(r#"{"type":"watch","samples":-1}"#).is_err());
    }

    #[test]
    fn malformed_tune_frontier_requests_are_rejected() {
        for bad in [
            r#"{"type":"tune_frontier"}"#,
            r#"{"type":"tune_frontier","sweep":7}"#,
            r#"{"type":"tune_frontier","sweep":{"axis":"warp","values":[1,2]}}"#,
            r#"{"type":"tune_frontier","sweep":{"axis":"max_system_mw"}}"#,
            r#"{"type":"tune_frontier","sweep":{"axis":"max_system_mw","values":[]}}"#,
            r#"{"type":"tune_frontier","sweep":{"axis":"max_system_mw","values":[500,400]}}"#,
            r#"{"type":"tune_frontier","sweep":{"axis":"max_system_mw","values":["lots"]}}"#,
            r#"{"type":"tune_frontier","sweep":"max-mw=900..=300"}"#,
        ] {
            assert!(Request::decode(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn streaming_response_lines_round_trip() {
        let step_found = Response::TuneFrontierStep(FrontierStepSummary {
            step: 0,
            steps: 13,
            result: FrontierStep {
                budget_value: 300.0,
                best: Some(Tuned {
                    point: DesignPoint::paper_alexnet(),
                    result: MixResult::from(&paper_result()),
                    admitted: true,
                }),
                evaluations: 33,
                fresh_evaluations: 33,
                cache_hits: 0,
                cache_misses: 33,
                rounds: 5,
            },
        });
        let step_nothing = Response::TuneFrontierStep(FrontierStepSummary {
            step: 3,
            steps: 13,
            result: FrontierStep {
                budget_value: 450.0,
                best: None,
                evaluations: 20,
                fresh_evaluations: 0,
                cache_hits: 20,
                cache_misses: 0,
                rounds: 1,
            },
        });
        let done = Response::TuneFrontierDone(FrontierDoneSummary {
            steps: 13,
            frontier: vec![0, 4, 7],
            evaluations: 61,
            standalone_evaluations: 429,
            cache_hits: 400,
            cache_misses: 61,
            exhaustive_points: 244,
        });
        let entry = Response::FrontierStreamEntry {
            entry: FrontierEntry {
                point: DesignPoint::paper_alexnet(),
                result: paper_result(),
            },
        };
        let stream_done = Response::FrontierStreamDone {
            dims: 3,
            entries: 7,
            degraded: false,
        };
        for (i, resp) in [step_found, step_nothing, done, entry, stream_done]
            .iter()
            .enumerate()
        {
            let line = resp.encode();
            assert!(!line.contains('\n'));
            pin_response(&format!("streaming_response_lines_round_trip.{i}"), resp);
        }
        // A step line without its budget value is malformed, not NaN.
        let headless = r#"{"ok":true,"type":"tune_frontier","step":0,"steps":2,"found":false}"#;
        assert!(Response::decode(headless).is_err());
    }

    #[test]
    fn malformed_tune_requests_are_rejected() {
        for bad in [
            r#"{"type":"tune","mix":{"alexnet":"lots"}}"#,
            r#"{"type":"tune","mix":{"squeezenet":1}}"#,
            r#"{"type":"tune","mix":7}"#,
            r#"{"type":"tune","strategy":"warp"}"#,
            r#"{"type":"tune","objective":[]}"#,
            r#"{"type":"tune","objective":{"weights":{"fps":1}}}"#,
            r#"{"type":"tune","budget":{"max_system_mw":"cheap"}}"#,
            r#"{"type":"tune","seed":1.5}"#,
        ] {
            assert!(Request::decode(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn eval_point_fields_default_to_the_paper_point() {
        let req = Request::decode(r#"{"type":"eval","point":{"pes":288}}"#).unwrap();
        let expected = DesignPoint {
            pes: 288,
            ..DesignPoint::paper_alexnet()
        };
        assert_eq!(req, Request::Eval(expected));
        // A missing point object entirely is the paper point.
        let req = Request::decode(r#"{"type":"eval"}"#).unwrap();
        assert_eq!(req, Request::Eval(DesignPoint::paper_alexnet()));
    }

    #[test]
    fn sweep_axes_accept_scalars_and_arrays() {
        let req = Request::decode(
            r#"{"type":"sweep","spec":{"pes":[144,288],"freqs_mhz":700,"nets":"lenet"}}"#,
        )
        .unwrap();
        let Request::Sweep(spec) = req else {
            panic!("not a sweep")
        };
        assert_eq!(spec.pes, vec![144, 288]);
        assert_eq!(spec.freqs_mhz, vec![700.0]);
        assert_eq!(spec.nets, vec!["lenet".to_owned()]);
        // Unspecified axes pin to the paper point.
        assert_eq!(spec.kmem_depths, vec![256]);
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for bad in [
            "",
            "not json",
            r#"{"no_type":1}"#,
            r#"{"type":"warp"}"#,
            r#"{"type":"sweep"}"#,
            r#"{"type":"sweep","spec":{"pes":["many"]}}"#,
            r#"{"type":"frontier","dims":4}"#,
            r#"{"type":"frontier","dims":2,"axes":"sqnr"}"#,
            r#"{"type":"frontier","dims":3,"axes":"warp"}"#,
            r#"{"type":"frontier","dims":3,"stream":"yes"}"#,
            r#"{"type":"eval","point":{"pes":-5}}"#,
        ] {
            assert!(Request::decode(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn malformed_responses_are_rejected() {
        // Every leaf converts through one checked conversion: a present
        // but mistyped field is an error, never a silent default.
        for bad in [
            // No truncation of `dims` through a narrowing cast.
            r#"{"ok":true,"type":"frontier","dims":259,"entries":[]}"#,
            // Wire integers are exact non-negative integers.
            r#"{"ok":true,"type":"metrics","metrics":[{"name":"x","kind":"histogram","count":1.5,"sum":-3}]}"#,
            r#"{"ok":true,"type":"stats","hits":18446744073709551616}"#,
            // Flags are booleans, not truthy values.
            r#"{"ok":true,"type":"frontier","dims":3,"entries":[],"degraded":"yes"}"#,
            r#"{"ok":true,"type":"stats","persistent":1}"#,
            r#"{"ok":true,"type":"tune","found":true,"admitted":"no"}"#,
            r#"{"ok":"yes","type":"stats"}"#,
            r#"{"ok":true,"type":"warp"}"#,
            r#"{"ok":true,"type":"eval","point":{},"status":"maybe"}"#,
        ] {
            assert!(Response::decode(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn repeated_discriminators_decode_in_linear_time() {
        // A megabyte of `type` keys costs one pass over the keys, one
        // scan and one more read when the variant flips between rows —
        // never a pass per key.
        let want = Request::Eval(DesignPoint {
            pes: 144,
            ..DesignPoint::paper_alexnet()
        });
        for flips in [
            r#""type":"stats","type":"eval","#.repeat(40_000),
            r#""type":"stats","point":{"pes":288},"type":"eval","#.repeat(22_000),
        ] {
            let line = format!(r#"{{{flips}"point":{{"pes":144}}}}"#);
            assert!(line.len() > 1 << 20);
            assert_eq!(Request::decode(&line), Ok(want.clone()));
        }
    }

    #[test]
    fn trace_contexts_propagate_and_legacy_lines_decode_unchanged() {
        // Every request shape can carry a context, which decodes back.
        let ctx = TraceContext {
            id: 4242,
            parent: 17,
        };
        for (i, req) in [
            Request::Eval(DesignPoint::paper_alexnet()),
            Request::Sweep(SweepSpec::paper_point()),
            Request::Tune(Box::default()),
            Request::Stats,
            Request::TraceQuery { id: 9 },
        ]
        .iter()
        .enumerate()
        {
            let line = req.encode_with_meta(Some(ctx), None);
            let (back, got) = Request::decode_with_meta(&line).unwrap();
            assert_eq!(back, *req, "{line}");
            assert_eq!(got.trace, Some(ctx), "{line}");
            // Plain decode (a pre-tracing daemon) ignores the field.
            assert_eq!(Request::decode(&line).unwrap(), *req, "{line}");
            pin_request(&format!("trace_contexts.{i}"), req);
        }
        // A root context omits `parent` on the wire and decodes to 0.
        let root = TraceContext { id: 5, parent: 0 };
        let line = Request::Stats.encode_with_meta(Some(root), None);
        assert!(!line.contains("parent"));
        pin("trace_contexts.root", &line);
        let (_, got) = Request::decode_with_meta(&line).unwrap();
        assert_eq!(got.trace, Some(root));
        // Lines without the field decode to no context.
        let (_, got) = Request::decode_with_meta(r#"{"type":"stats"}"#).unwrap();
        assert_eq!(got.trace, None);
        // Malformed contexts are rejected, not ignored.
        for bad in [
            r#"{"type":"stats","trace":7}"#,
            r#"{"type":"stats","trace":{}}"#,
            r#"{"type":"stats","trace":{"id":0}}"#,
            r#"{"type":"stats","trace":{"id":"yes"}}"#,
            r#"{"type":"stats","trace":{"id":3,"parent":-1}}"#,
        ] {
            assert!(Request::decode_with_meta(bad).is_err(), "{bad:?}");
        }
        // trace_query requires its id.
        assert!(Request::decode(r#"{"type":"trace_query"}"#).is_err());
    }

    #[test]
    fn float_fields_survive_bit_exactly() {
        let point = DesignPoint {
            freq_mhz: 123.456789012345,
            ..DesignPoint::paper_alexnet()
        };
        let line = Request::Eval(point.clone()).encode();
        let Request::Eval(back) = Request::decode(&line).unwrap() else {
            panic!("not eval")
        };
        assert_eq!(back.freq_mhz.to_bits(), point.freq_mhz.to_bits());
        // Content hashes therefore agree: the wire is cache-identity safe.
        assert_eq!(back.content_hash(), point.content_hash());
    }
}
