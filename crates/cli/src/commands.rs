//! Subcommand implementations. Every command is a pure function from
//! parsed arguments to output text, so the test suite drives them
//! directly.

use std::error::Error;
use std::fmt::Write as _;

use chain_nn_core::perf::{CycleModel, PerfModel};
use chain_nn_core::sim::ChainSim;
use chain_nn_core::{polyphase, trace, ChainConfig, LayerShape};
use chain_nn_dse::{
    executor, export, CacheFile, CacheStats, DesignPoint, Explorer, PointCache, RangeSpec,
    SweepSpec, WorkloadMix,
};
use chain_nn_energy::power::PowerModel;
use chain_nn_fixed::{Fix16, OverflowMode};
use chain_nn_mem::traffic::{totals, TrafficModel};
use chain_nn_mem::MemoryConfig;
use chain_nn_nets::{zoo, Network};
use chain_nn_serve::Request;
use chain_nn_tensor::conv::{conv2d_fix, ConvGeometry};
use chain_nn_tensor::Tensor;
use chain_nn_tuner::frontier::{BudgetSweep, FrontierStep, FrontierTuneRequest};
use chain_nn_tuner::{Budget, CacheEvaluator, Objective, TuneRequest, Tuned};

use crate::args::{ArgError, Flags};

type CmdResult = Result<String, Box<dyn Error>>;

/// The sweep-axis flags [`sweep_from`] reads.
const AXES: [&str; 8] = [
    "pes", "freq", "kmem", "imem-kb", "omem-kb", "bits", "batch", "net",
];

/// The flags every model command reads: the network and batch, plus
/// the chain flags [`chain_from`] reads.
const MODEL: [&str; 5] = ["net", "batch", "pes", "freq", "kmemory"];

/// An optional typed flag (absent is `None`, unparseable is an error).
fn opt_flag<T: std::str::FromStr>(flags: &Flags, name: &str) -> Result<Option<T>, ArgError> {
    match flags.get_str(name) {
        None => Ok(None),
        Some(v) => v.parse().map(Some).map_err(|_| ArgError::BadValue {
            flag: name.to_owned(),
            value: v.to_owned(),
        }),
    }
}

/// Dispatches a full argument vector (without argv0).
///
/// # Errors
///
/// Returns a human-readable error for unknown commands, bad flags or
/// failed model/simulator invocations.
pub fn dispatch(argv: &[String]) -> CmdResult {
    let Some((cmd, rest)) = argv.split_first() else {
        return Ok(help());
    };
    // Each command names the flags it takes; any other is an error.
    let flags = |known: &[&str]| Flags::parse(rest, known);
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(help()),
        "tables" => Ok(chain_nn_bench::repro_all()),
        "table2" => Ok(chain_nn_bench::repro_table2()),
        "table4" => Ok(chain_nn_bench::repro_table4()),
        "table5" => Ok(chain_nn_bench::repro_table5()),
        "fig5" => Ok(chain_nn_bench::repro_fig5()),
        "fig9" => Ok(chain_nn_bench::repro_fig9()),
        "fig10" => Ok(chain_nn_bench::repro_fig10()),
        "area" => Ok(chain_nn_bench::repro_area()),
        "taxonomy" => Ok(chain_nn_bench::repro_taxonomy()),
        "ablations" => Ok(chain_nn_bench::repro_ablations()),
        "nets" => Ok(nets_cmd()),
        "dse" => dse_cmd(&flags(
            &[
                &AXES[..],
                &["threads", "probe", "cache-file", "out", "frontier", "json"],
            ]
            .concat(),
        )?),
        "tune" => tune_cmd(&flags(
            &[
                &AXES[..],
                &[
                    "mix",
                    "max-mw",
                    "max-gates-k",
                    "min-fps",
                    "min-sqnr-db",
                    "objective",
                    "strategy",
                    "seed",
                    "threads",
                    "cache-file",
                    "port",
                    "host",
                    "sweep-budget",
                    "out",
                    "json",
                ],
            ]
            .concat(),
        )?),
        "compact" => compact_cmd(&flags(&["cache-file"])?),
        // The daemon's flags and the coordinator's together.
        "serve" => serve_cmd(&flags(&[
            "port",
            "host",
            "threads",
            "queue",
            "batch",
            "claim",
            "max-connections",
            "cache-cap",
            "cache-file",
            "trace-log",
            "trace-cap-mb",
            "slow-log-us",
            "sample-interval-ms",
            "slo",
            "coordinator",
            "shards",
        ])?),
        "cluster" => cluster_cmd(&flags(&[
            "shards",
            "threads",
            "cache-file",
            "host",
            "port",
            "max-connections",
        ])?),
        "query" => query_cmd(rest),
        "top" => top_cmd(&flags(&["host", "port", "frames"])?),
        "perf" => perf_cmd(&flags(&[&MODEL[..], &["model"]].concat())?),
        "traffic" => traffic_cmd(&flags(&MODEL)?),
        "power" => power_cmd(&flags(&MODEL)?),
        "simulate" => simulate_cmd(&flags(&[
            "c", "h", "m", "k", "stride", "pad", "batch", "pes",
        ])?),
        "trace" => trace_dispatch(rest),
        other => Err(format!("unknown command '{other}'").into()),
    }
}

fn help() -> String {
    "\
chain-nn — Chain-NN (DATE 2017) reproduction toolkit

USAGE: chain-nn <command> [--flag value ...]

paper artifacts:
  tables                 every table/figure, paper vs measured
  table2|table4|table5   Tables II / IV / V
  fig5|fig9|fig10        Figures 5 / 9 / 10
  area|taxonomy          Fig. 8 substitute / Fig. 2 measured
  ablations              pipeline-depth, batch, kMemory-depth sweeps

models:
  perf    --net NAME [--batch N] [--pes N] [--freq MHZ] [--model paper|strict]
  traffic --net NAME [--batch N] [--pes N]
  power   --net NAME [--batch N]
  nets    list the built-in networks

simulator:
  simulate --c C --h H --m M --k K [--stride S] [--pad P] [--pes N] [--batch N]
           cycle-accurate run, golden-checked (strides use polyphase)
  trace    --h H --k K [--m M] [--out FILE]  VCD waveform of one pattern
  trace ID [--chrome F.json] [--host H] [--port P]
           span tree of one causal trace from a running daemon (send
           requests with {\"trace\":{\"id\":N}} or let the daemon assign
           ids); --chrome exports Chrome trace-event JSON whose rows
           are worker threads (chrome://tracing, ui.perfetto.dev)

design-space exploration:
  dse      [--pes 64..=1024:16] [--freq 350,700] [--kmem 256] [--imem-kb 32]
           [--omem-kb 25] [--bits 16] [--batch 1,4] [--net alexnet[,vgg16...]]
           [--threads N] [--probe off] [--cache-file FILE] [--out FILE.csv]
           [--json FILE.json] [--frontier FILE.csv]
           parallel sweep over the model stack; axes are ranges (step
           defaults to 1) or comma lists; every point carries the
           measured SQNR of its (net, word width) pair, so --bits 8,16
           sweeps are comparable on the fps x power x SQNR frontier;
           prints both Pareto frontiers and the 1-vs-N-thread evaluation
           speedup (--probe off skips that measurement); writes CSV/JSON;
           --cache-file makes repeated sweeps incremental across runs
           (a fully-cached sweep reports 0 accuracy recomputations)

auto-tuner:
  tune     [--mix alexnet:0.7,vgg16:0.3] [--max-mw 500] [--max-gates-k N]
           [--min-fps N] [--min-sqnr-db N]
           [--objective fps,power,gates | fps:1,power:0.2]
           [--strategy halving|hillclimb] [--seed 0] [--threads N]
           [--cache-file FILE] [--port 7878 [--host H]]
           [--pes/--freq/--kmem/--imem-kb/--omem-kb/--bits/--batch axes]
           search the grid for the best configuration serving the
           workload mix under the budget, instead of sweeping it;
           --min-sqnr-db adds a measured-accuracy floor (with --bits
           8,16 it is what stops free 8-bit wins); with --port the
           search runs on a live daemon (sharing its cache), otherwise
           locally (--cache-file makes local tunes incremental across
           runs); user guide: docs/TUNING.md
  tune --sweep-budget max-mw=300..=900:50 [--out F.csv] [--json F.json]
           frontier tune: sweep one budget axis (max-mw | max-gates-k |
           min-fps | min-sqnr-db; lo..=hi:step or a comma list) and
           report the whole budget-constrained Pareto frontier — one
           constrained optimum per step, deduplicated/Pareto-filtered,
           warm-started so the sweep costs far less than standalone
           tunes; via --port the daemon streams one line per step as
           it completes; --out/--json export the tuned frontier
  compact  --cache-file FILE
           rewrite a cache snapshot dropping duplicate/rejected records
           (load also compacts automatically past 50% dead records)

explorer daemon:
  serve    [--port 7878] [--host 127.0.0.1] [--threads N] [--queue 16]
           [--batch 32] [--claim adaptive|fixed] [--max-connections 64]
           [--cache-cap POINTS] [--cache-file FILE]
           [--trace-log FILE] [--trace-cap-mb 64] [--slow-log-us N]
           [--sample-interval-ms 250] [--slo eval:p99_us=500,...]
           long-lived explorer sharing one memo cache across clients
           over a line-delimited JSON protocol; --batch caps the points
           one worker claims per turn and --claim picks the sizing
           policy (adaptive shrinks claims while interactive evals wait
           behind a sweep; fixed always claims --batch, the pre-engine
           behavior); --cache-file persists
           evaluations across restarts (loaded at startup, appended on
           completed requests and shutdown); --max-connections answers
           busy at the accept loop beyond the bound; --cache-cap bounds
           the in-memory cache (FIFO eviction of flushed entries);
           --trace-log appends one JSON line per completed request
           (id, type, status, per-phase timings, trace id), rotating to
           FILE.1 at --trace-cap-mb (0 = never rotate), and arms the
           flight recorder: a panic — or a {\"type\":\"dump\"} request —
           writes recent spans + metrics to FILE.flight.json;
           --slow-log-us flags requests at or over
           the threshold with \"slow\":true; a sampler thread snapshots
           the metrics every --sample-interval-ms into a history ring
           (metrics_history / watch / top), and --slo adds latency
           objectives evaluated each tick (docs/OBSERVABILITY.md)
  serve --coordinator --shards H:P,H:P,...  [--port 7878] [--host H]
           [--max-connections 64]
           cluster coordinator: same wire protocol, but requests are
           routed across the named shard daemons by content hash —
           eval goes to the owning shard, sweep/frontier fan out as
           hash-partitioned sub-requests whose frontiers merge back
           byte-identical to a single daemon's, tune rounds run
           scatter-gather; a lost shard degrades the reply
           (\"degraded\":true) instead of failing it (docs/PROTOCOL.md)
  cluster  [--shards N] [--port 7878] [--threads T] [--cache-file FILE]
           one-command local fleet: N in-process shard daemons on
           ephemeral ports plus a coordinator on --port; with
           --cache-file each shard persists to FILE.shardI so warm
           restarts stay incremental; shutdown via the coordinator
           stops the whole fleet
  query    [--port 7878] [--host 127.0.0.1] REQUEST [--text]
           send one request to a running daemon and print the reply;
           REQUEST is a JSON object ('{\"type\":\"sweep\",...}') or a
           bare word shorthand: stats | metrics | metrics-history |
           frontier | frontier2 | frontier-sqnr | frontier-stream |
           watch | dump | shutdown | eval (the paper point); streaming replies
           (tune_frontier, frontier with stream:true, watch) are
           drained line by line; `query metrics --text` renders the
           snapshot as Prometheus-style text; the full wire reference
           is docs/PROTOCOL.md
  top      [--port 7878] [--host 127.0.0.1] [--frames N]
           live terminal dashboard over the daemon's watch stream: one
           frame per sampler tick (req/s, per-type p50/p99, queue-wait
           vs execute split, in-flight, queue depth, cache hit rate);
           --frames N stops after N frames (0 = until daemon shutdown)
"
    .to_owned()
}

fn net_by_name(name: &str) -> Result<Network, Box<dyn Error>> {
    chain_nn_dse::network_by_name(name)
        .ok_or_else(|| format!("unknown network '{name}' (try `chain-nn nets`)").into())
}

fn nets_cmd() -> String {
    let mut s = String::new();
    for net in zoo::all() {
        let _ = write!(s, "{net}");
    }
    s
}

fn chain_from(flags: &Flags) -> Result<ChainConfig, Box<dyn Error>> {
    let pes = flags.get_or("pes", 576usize)?;
    let freq = flags.get_or("freq", 700.0f64)?;
    let depth = flags.get_or("kmemory", 256usize)?;
    Ok(ChainConfig::builder()
        .num_pes(pes)
        .freq_mhz(freq)
        .kmemory_depth(depth)
        .build()?)
}

/// Builds the sweep grid from CLI flags, defaulting every unspecified
/// axis to [`SweepSpec::default_grid`]'s choice.
fn sweep_from(flags: &Flags) -> Result<SweepSpec, Box<dyn Error>> {
    let mut spec = SweepSpec::default_grid();
    let usizes = |text: &str| -> Result<Vec<usize>, Box<dyn Error>> {
        Ok(text.parse::<RangeSpec>()?.as_usizes())
    };
    if let Some(p) = flags.get_str("pes") {
        spec.pes = usizes(p)?;
    }
    if let Some(f) = flags.get_str("freq") {
        spec.freqs_mhz = f
            .split(',')
            .map(|t| t.trim().parse::<f64>())
            .collect::<Result<_, _>>()
            .map_err(|_| format!("cannot parse '{f}' for --freq"))?;
    }
    if let Some(k) = flags.get_str("kmem") {
        spec.kmem_depths = usizes(k)?;
    }
    if let Some(i) = flags.get_str("imem-kb") {
        spec.imem_kb = usizes(i)?;
    }
    if let Some(o) = flags.get_str("omem-kb") {
        spec.omem_kb = usizes(o)?;
    }
    if let Some(b) = flags.get_str("bits") {
        spec.word_bits = b
            .parse::<RangeSpec>()?
            .values()
            .iter()
            .map(|&v| v as u32)
            .collect();
    }
    if let Some(b) = flags.get_str("batch") {
        spec.batches = usizes(b)?;
    }
    if let Some(n) = flags.get_str("net") {
        spec.nets = n.split(',').map(|t| t.trim().to_owned()).collect();
    }
    Ok(spec)
}

fn dse_cmd(flags: &Flags) -> CmdResult {
    let spec = sweep_from(flags)?;
    let threads = flags.get_or("threads", executor::default_threads())?;
    let mut explorer = Explorer::new();
    // --cache-file makes standalone sweeps incremental across runs, the
    // same way the daemon's snapshot does: load before, flush after.
    let cache_file = flags.get_str("cache-file").map(CacheFile::new);
    let mut loaded = 0;
    if let Some(file) = &cache_file {
        loaded = file.load_into(explorer.cache())?.loaded;
    }
    let accuracy_before = chain_nn_dse::accuracy::recomputations();
    let result = explorer.run(&spec, threads)?;

    let mut s = String::new();
    let _ = writeln!(
        s,
        "== design-space sweep: {} points ({} feasible), {} threads ==",
        result.stats.points, result.stats.feasible, result.stats.threads
    );
    let run_cache = CacheStats {
        hits: result.stats.cache_hits,
        misses: result.stats.cache_misses,
    };
    let _ = writeln!(
        s,
        "wall {:.1} ms | {:.0} points/s | cache {} hits / {} misses ({:.1}% hit rate)",
        result.stats.wall_ms,
        result.stats.points_per_sec(),
        result.stats.cache_hits,
        result.stats.cache_misses,
        100.0 * run_cache.hit_rate()
    );
    // One measurement per fresh (net, word width) pair; cached points
    // and memoized pairs cost nothing — a fully-cached sweep reports 0.
    let _ = writeln!(
        s,
        "accuracy recomputations: {}",
        chain_nn_dse::accuracy::recomputations() - accuracy_before
    );

    // Speedup vs --threads 1, measured as sustained evaluation
    // throughput over this grid (the probe amortizes worker start-up,
    // which would otherwise dwarf a sub-millisecond model sweep). The
    // probe re-evaluates points uncached, so it costs more than the
    // sweep itself; `--probe off` skips it.
    if threads > 1 && flags.get_str("probe") != Some("off") {
        let points = spec.points();
        let evals = (8 * points.len()).clamp(20_000, 200_000);
        let serial_rate = executor::throughput(&points, 1, evals)?;
        let parallel_rate = executor::throughput(&points, threads, evals)?;
        let speedup = parallel_rate / serial_rate;
        let _ = writeln!(
            s,
            "evaluation throughput: {:.0} points/s serial, {:.0} points/s on {} threads \
             -> {:.2}x speedup ({:.0}% parallel efficiency)",
            serial_rate,
            parallel_rate,
            threads,
            speedup,
            100.0 * speedup / threads as f64
        );
    }

    let _ = writeln!(
        s,
        "\nPareto frontier (fps x system mW x kilo-gates): {} of {} feasible points",
        result.frontier_3d.len(),
        result.stats.feasible
    );
    let _ = writeln!(
        s,
        "{:<10} {:>6} {:>6} {:>6} {:>5} {:>3} {:>9} {:>10} {:>10} {:>9} {:>9}",
        "net",
        "pes",
        "MHz",
        "kmem",
        "batch",
        "w",
        "fps",
        "system mW",
        "gates(k)",
        "GOPS/W",
        "SQNR dB"
    );
    for (p, r) in result.frontier_points() {
        let paper = *p == chain_nn_dse::DesignPoint::paper_alexnet();
        let _ = writeln!(
            s,
            "{:<10} {:>6} {:>6.0} {:>6} {:>5} {:>3} {:>9.1} {:>10.1} {:>10.0} {:>9.1} {:>9.1}{}",
            p.net,
            p.pes,
            p.freq_mhz,
            p.kmem_depth,
            p.batch,
            p.word_bits,
            r.fps,
            r.system_mw(),
            r.gates_k,
            r.gops_per_watt(),
            r.sqnr_db,
            if paper { "   <- paper" } else { "" },
        );
    }
    let _ = writeln!(
        s,
        "accuracy frontier (fps x system mW x SQNR): {} points (sqnr_db / frontier_sqnr \
         columns in the CSV/JSON exports)",
        result.frontier_sqnr.len()
    );
    if result.contains_paper_point_on_frontier() {
        let _ = writeln!(
            s,
            "the paper's 576-PE point is Pareto-optimal in this sweep"
        );
    }

    if let Some(path) = flags.get_str("out") {
        std::fs::write(path, export::results_csv(&result))?;
        let _ = writeln!(s, "wrote full results CSV to {path}");
    }
    if let Some(path) = flags.get_str("frontier") {
        std::fs::write(path, export::frontier_csv(&result))?;
        let _ = writeln!(s, "wrote frontier CSV to {path}");
    }
    if let Some(path) = flags.get_str("json") {
        std::fs::write(path, export::results_json(&result))?;
        let _ = writeln!(s, "wrote JSON to {path}");
    }
    if let Some(file) = &cache_file {
        let appended = file.flush_dirty(explorer.cache())?;
        let _ = writeln!(
            s,
            "cache file {}: {} points loaded, {} appended",
            file.path().display(),
            loaded,
            appended
        );
    }
    Ok(s)
}

/// Renders one tune's outcome and accounting, shared by the local and
/// daemon paths.
fn tune_report_text(
    req: &TuneRequest,
    best: &Option<Tuned>,
    evaluations: u64,
    hits: u64,
    misses: u64,
    rounds: usize,
    exhaustive: usize,
) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "== tune: {} | budget: {} | objective: {} ==",
        req.mix, req.budget, req.objective
    );
    let _ = writeln!(s, "strategy {} (seed {})", req.strategy, req.seed);
    match best {
        None => {
            let _ = writeln!(s, "no feasible configuration in the search space");
        }
        Some(t) => {
            let _ = writeln!(
                s,
                "chosen: {}{}",
                t.point,
                if t.admitted {
                    "   [within budget]"
                } else {
                    "   [budget NOT met: least-violating feasible point]"
                }
            );
            let _ = writeln!(
                s,
                "  {:.1} fps | {:.1} mW system ({:.1} chip + {:.1} DRAM) | {:.0}k gates | \
                 {:.1} GOPS/W | {:.1} dB SQNR",
                t.result.fps,
                t.result.system_mw(),
                t.result.chip_mw,
                t.result.dram_mw,
                t.result.gates_k,
                t.result.gops_per_watt(),
                t.result.sqnr_db
            );
        }
    }
    let _ = writeln!(
        s,
        "evaluated {} of {} grid configurations ({:.1}%) in {} rounds",
        evaluations,
        exhaustive,
        100.0 * evaluations as f64 / exhaustive.max(1) as f64,
        rounds
    );
    let _ = writeln!(
        s,
        "point lookups: {} ({} hits, {} misses)",
        hits + misses,
        hits,
        misses
    );
    s
}

fn tune_cmd(flags: &Flags) -> CmdResult {
    if flags.get_str("net").is_some() {
        return Err("tune takes --mix (weighted networks), not --net".into());
    }
    let request = TuneRequest {
        space: sweep_from(flags)?,
        mix: WorkloadMix::parse(flags.get_str("mix").unwrap_or("alexnet"))?,
        budget: Budget {
            max_system_mw: opt_flag(flags, "max-mw")?,
            max_gates_k: opt_flag(flags, "max-gates-k")?,
            min_fps: opt_flag(flags, "min-fps")?,
            min_sqnr_db: opt_flag(flags, "min-sqnr-db")?,
        },
        objective: match flags.get_str("objective") {
            None => Objective::default(),
            Some(text) => Objective::parse(text)?,
        },
        strategy: flags.get_str("strategy").unwrap_or("halving").parse()?,
        seed: flags.get_or("seed", 0u64)?,
    };

    // With --port/--host the search runs on a live daemon (sharing its
    // cache with every other client); otherwise locally.
    let on_daemon = flags.get_str("port").is_some() || flags.get_str("host").is_some();
    if on_daemon {
        // The local-only knobs would be silently dead on the daemon
        // path; refuse them rather than let the user believe they took.
        for local_only in ["cache-file", "threads"] {
            if flags.get_str(local_only).is_some() {
                return Err(format!(
                    "--{local_only} applies to local tunes only; the daemon owns its \
                     cache file and worker pool when tuning via --port"
                )
                .into());
            }
        }
    }

    // --sweep-budget turns the tune into a frontier tune: one
    // constrained optimum per budget step, streamed as each completes.
    if let Some(sweep_text) = flags.get_str("sweep-budget") {
        return frontier_tune_cmd(flags, request, sweep_text, on_daemon);
    }
    for frontier_only in ["out", "json"] {
        if flags.get_str(frontier_only).is_some() {
            return Err(format!(
                "--{frontier_only} exports the tuned frontier; it needs --sweep-budget"
            )
            .into());
        }
    }

    if on_daemon {
        let host = flags.get_str("host").unwrap_or("127.0.0.1");
        let port = flags.get_or("port", 7878u16)?;
        let mut client = chain_nn_serve::Client::connect((host, port))?;
        return match client.tune(request.clone())? {
            chain_nn_serve::Response::Tune(s) => Ok(tune_report_text(
                &request,
                &s.best,
                s.evaluations,
                s.cache_hits,
                s.cache_misses,
                s.rounds,
                s.exhaustive_points,
            )),
            chain_nn_serve::Response::Busy { active, capacity } => {
                Err(format!("daemon busy ({active}/{capacity} jobs); retry later").into())
            }
            chain_nn_serve::Response::Error { message } => Err(message.into()),
            other => Err(format!("unexpected daemon reply: {other:?}").into()),
        };
    }

    let cache = PointCache::new();
    let cache_file = flags.get_str("cache-file").map(CacheFile::new);
    let mut loaded = 0;
    if let Some(file) = &cache_file {
        loaded = file.load_into(&cache)?.loaded;
    }
    let threads = flags.get_or("threads", executor::default_threads())?;
    let mut evaluator = CacheEvaluator::new(&cache, threads);
    let report = chain_nn_tuner::tune(&request, &mut evaluator)?;
    let mut s = tune_report_text(
        &request,
        &report.best,
        report.evaluations,
        report.cache_hits,
        report.cache_misses,
        report.rounds,
        report.exhaustive_points,
    );
    if let Some(file) = &cache_file {
        let appended = file.flush_dirty(&cache)?;
        let _ = writeln!(
            s,
            "cache file {}: {} points loaded, {} appended",
            file.path().display(),
            loaded,
            appended
        );
    }
    Ok(s)
}

/// One rendered row of the frontier-tune step table. The frontier
/// marker is only known once every step finished, so rows render
/// admitted/violating state here and the frontier block follows.
fn frontier_step_row(s: &mut String, axis_width: usize, step: &FrontierStep) {
    match &step.best {
        None => {
            let _ = writeln!(
                s,
                "{:>axis_width$}  no feasible configuration",
                step.budget_value
            );
        }
        Some(t) => {
            let _ = writeln!(
                s,
                "{:>axis_width$}  {:<44} {:>9.1} {:>10.1} {:>9.0} {:>8.1}{}",
                step.budget_value,
                t.point.to_string(),
                t.result.fps,
                t.result.system_mw(),
                t.result.gates_k,
                t.result.sqnr_db,
                if t.admitted {
                    ""
                } else {
                    "   [budget NOT met]"
                },
            );
        }
    }
}

/// `chain-nn tune --sweep-budget AXIS=LO..=HI:STEP` — the frontier
/// tune, locally or against a daemon (where the steps stream back one
/// line at a time).
fn frontier_tune_cmd(
    flags: &Flags,
    base: TuneRequest,
    sweep_text: &str,
    on_daemon: bool,
) -> CmdResult {
    let sweep = BudgetSweep::parse(sweep_text)?;
    let request = FrontierTuneRequest { base, sweep };
    let axis = request.sweep.axis;
    let axis_width = axis.cli_name().len().max(6);

    let mut s = String::new();
    let _ = writeln!(
        s,
        "== frontier tune: {} | sweep: {} | objective: {} ==",
        request.base.mix, request.sweep, request.base.objective
    );
    let _ = writeln!(
        s,
        "strategy {} (seed {}) | fixed budget: {}",
        request.base.strategy, request.base.seed, request.base.budget
    );
    let _ = writeln!(
        s,
        "{:>axis_width$}  {:<44} {:>9} {:>10} {:>9} {:>8}",
        axis.cli_name(),
        "chosen configuration",
        "fps",
        "system mW",
        "gates(k)",
        "SQNR dB"
    );

    // Both paths produce the same step list + sweep totals.
    let (steps, frontier, evaluations, standalone, hits, misses, exhaustive);
    let mut cache_file_line = String::new();
    if on_daemon {
        let host = flags.get_str("host").unwrap_or("127.0.0.1");
        let port = flags.get_or("port", 7878u16)?;
        let mut client = chain_nn_serve::Client::connect((host, port))?;
        // The daemon streams one line per budget step; render each row
        // the moment it arrives (like serve's eager readiness line) so
        // a long sweep shows progress instead of a silent stall. The
        // returned text then carries only the summary that follows.
        use std::io::Write as _;
        print!("{s}");
        std::io::stdout().flush()?;
        s.clear();
        let mut streamed: Vec<FrontierStep> = Vec::new();
        let done = client.tune_frontier(request.clone(), |step| {
            let mut row = String::new();
            frontier_step_row(&mut row, axis_width, &step.result);
            print!("{row}");
            let _ = std::io::stdout().flush();
            streamed.push(step.result.clone());
        })?;
        let done = match done {
            chain_nn_serve::Response::TuneFrontierDone(done) => done,
            chain_nn_serve::Response::Busy { active, capacity } => {
                return Err(format!("daemon busy ({active}/{capacity} jobs); retry later").into())
            }
            chain_nn_serve::Response::Error { message } => return Err(message.into()),
            other => return Err(format!("unexpected daemon reply: {other:?}").into()),
        };
        steps = streamed;
        frontier = done.frontier;
        evaluations = done.evaluations;
        standalone = done.standalone_evaluations;
        hits = done.cache_hits;
        misses = done.cache_misses;
        exhaustive = done.exhaustive_points;
    } else {
        let cache = PointCache::new();
        let cache_file = flags.get_str("cache-file").map(CacheFile::new);
        let mut loaded = 0;
        if let Some(file) = &cache_file {
            loaded = file.load_into(&cache)?.loaded;
        }
        let threads = flags.get_or("threads", executor::default_threads())?;
        let mut evaluator = CacheEvaluator::new(&cache, threads);
        let report = chain_nn_tuner::tune_frontier(&request, &mut evaluator, |_, _| Ok(()))?;
        if let Some(file) = &cache_file {
            let appended = file.flush_dirty(&cache)?;
            let _ = writeln!(
                cache_file_line,
                "cache file {}: {} points loaded, {} appended",
                file.path().display(),
                loaded,
                appended
            );
        }
        steps = report.steps;
        frontier = report.frontier;
        evaluations = report.evaluations;
        standalone = report.standalone_evaluations;
        hits = report.cache_hits;
        misses = report.cache_misses;
        exhaustive = report.exhaustive_points;
    }

    if !on_daemon {
        // The daemon path already rendered its rows as they streamed in.
        for step in &steps {
            frontier_step_row(&mut s, axis_width, step);
        }
    }

    let _ = writeln!(
        s,
        "\ntuned frontier: {} distinct Pareto-optimal configurations across {} budget steps",
        frontier.len(),
        steps.len()
    );
    let bound = if axis.is_ceiling() { "<=" } else { ">=" };
    for &i in &frontier {
        if let Some(t) = &steps[i].best {
            let _ = writeln!(
                s,
                "  {} {bound} {:>6}: {}  ({:.1} fps @ {:.1} mW)",
                axis.cli_name(),
                steps[i].budget_value,
                t.point,
                t.result.fps,
                t.result.system_mw()
            );
        }
    }
    let reuse = 100.0 * chain_nn_tuner::frontier::reuse_fraction(evaluations, standalone);
    let _ = writeln!(
        s,
        "evaluated {} distinct configurations of {} in the grid; {} standalone tunes \
         would visit {} ({:.0}% reused via warm start)",
        evaluations,
        exhaustive,
        steps.len(),
        standalone,
        reuse
    );
    let _ = writeln!(
        s,
        "point lookups: {} ({} hits, {} misses)",
        hits + misses,
        hits,
        misses
    );
    s.push_str(&cache_file_line);

    let rows: Vec<export::TunedFrontierRow> = steps
        .iter()
        .enumerate()
        .filter_map(|(i, step)| {
            let t = step.best.as_ref()?;
            Some(export::TunedFrontierRow {
                budget_value: step.budget_value,
                point: t.point.clone(),
                result: t.result,
                admitted: t.admitted,
                on_frontier: frontier.contains(&i),
            })
        })
        .collect();
    if let Some(path) = flags.get_str("out") {
        std::fs::write(path, export::tuned_frontier_csv(axis.name(), &rows))?;
        let _ = writeln!(s, "wrote tuned-frontier CSV to {path}");
    }
    if let Some(path) = flags.get_str("json") {
        std::fs::write(path, export::tuned_frontier_json(axis.name(), &rows))?;
        let _ = writeln!(s, "wrote tuned-frontier JSON to {path}");
    }
    Ok(s)
}

fn compact_cmd(flags: &Flags) -> CmdResult {
    let path = flags
        .get_str("cache-file")
        .ok_or("compact needs --cache-file FILE")?;
    let report = CacheFile::new(path).compact()?;
    Ok(format!(
        "compacted {path}: kept {} records, dropped {} duplicates, {} rejected, {} tail bytes\n",
        report.kept, report.dropped_duplicates, report.dropped_rejected, report.dropped_tail_bytes
    ))
}

fn serve_cmd(flags: &Flags) -> CmdResult {
    use chain_nn_serve::scheduler::ClaimPolicy;
    // A shard list turns this process into a cluster coordinator
    // instead of an evaluating daemon.
    if flags.get_str("shards").is_some() || flags.get_or("coordinator", false)? {
        return coordinator_cmd(flags);
    }
    let batch = flags
        .get_or("batch", chain_nn_serve::scheduler::BATCH_SIZE)?
        .max(1);
    let claim = match flags.get_str("claim").unwrap_or("adaptive") {
        "adaptive" => ClaimPolicy::Adaptive { max: batch },
        "fixed" => ClaimPolicy::Fixed(batch),
        other => return Err(format!("--claim must be adaptive or fixed, got '{other}'").into()),
    };
    let config = chain_nn_serve::ServerConfig {
        host: flags.get_str("host").unwrap_or("127.0.0.1").to_owned(),
        port: flags.get_or("port", 7878u16)?,
        threads: flags.get_or("threads", executor::default_threads())?,
        queue_capacity: flags.get_or("queue", 16usize)?,
        claim,
        max_connections: flags.get_or("max-connections", 64usize)?,
        cache_capacity: opt_flag(flags, "cache-cap")?,
        cache_file: flags.get_str("cache-file").map(std::path::PathBuf::from),
        trace_log: flags.get_str("trace-log").map(std::path::PathBuf::from),
        // 0 is meaningful — it disables rotation (the file grows
        // without bound); negative or non-numeric values are rejected
        // by the flag parser with a clear error.
        trace_max_bytes: flags.get_or("trace-cap-mb", 64u64)? * 1024 * 1024,
        sample_interval: std::time::Duration::from_millis(
            flags.get_or("sample-interval-ms", 250u64)?.max(1),
        ),
        history_capacity: 256,
        slos: match flags.get_str("slo") {
            None => Vec::new(),
            Some(text) => chain_nn_serve::slo::SloSpec::parse_list(text)?,
        },
        slow_log_us: opt_flag(flags, "slow-log-us")?,
    };
    let persistent = config.cache_file.is_some();
    let threads = config.threads;
    let server = chain_nn_serve::Server::bind(config)?;
    // Announce readiness eagerly (run() blocks until shutdown): scripts
    // and the CI smoke job wait for this line before connecting.
    println!(
        "chain-nn explorer daemon listening on {} ({} threads, {} cached points loaded{})",
        server.local_addr()?,
        threads,
        server.loaded_from_disk(),
        if persistent { "" } else { ", no cache file" },
    );
    use std::io::Write as _;
    std::io::stdout().flush()?;
    let report = server.run()?;
    Ok(format!(
        "daemon stopped: {} requests served, {} points cached ({} loaded at start, {} newly persisted)\n",
        report.requests, report.cached_points, report.loaded_from_disk, report.persisted
    ))
}

/// The coordinator variant of `serve`: no evaluation, no cache — just
/// content-hash routing across the named shard daemons.
fn coordinator_cmd(flags: &Flags) -> CmdResult {
    let shards: Vec<String> = flags
        .get_str("shards")
        .unwrap_or("")
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_owned)
        .collect();
    if shards.is_empty() {
        return Err("a coordinator needs --shards host:port,host:port,...".into());
    }
    let n = shards.len();
    let report = run_coordinator(flags, shards)?;
    Ok(format!(
        "coordinator stopped: {} requests served across {n} shards\n",
        report.requests
    ))
}

/// Binds a coordinator over `shards` on `--host`/`--port` with
/// `--max-connections`, announces it, and serves until shutdown. The
/// announcement is eager, as in `serve`: scripts and the CI
/// cluster-smoke job wait for "listening" before connecting.
fn run_coordinator(
    flags: &Flags,
    shards: Vec<String>,
) -> Result<chain_nn_serve::ServerReport, Box<dyn Error>> {
    let n = shards.len();
    let coordinator =
        chain_nn_serve::cluster::Coordinator::bind(chain_nn_serve::cluster::ClusterConfig {
            host: flags.get_str("host").unwrap_or("127.0.0.1").to_owned(),
            port: flags.get_or("port", 7878u16)?,
            shards,
            max_connections: flags.get_or("max-connections", 64usize)?,
        })?;
    println!(
        "chain-nn cluster coordinator listening on {} ({n} shards)",
        coordinator.local_addr()?,
    );
    use std::io::Write as _;
    std::io::stdout().flush()?;
    Ok(coordinator.run()?)
}

/// `cluster` — the one-command local fleet: N in-process shard daemons
/// on ephemeral ports plus a coordinator routing across them. Each
/// shard gets its own cache file (`FILE.shardI`) so warm restarts stay
/// incremental per shard.
fn cluster_cmd(flags: &Flags) -> CmdResult {
    let n = flags.get_or("shards", 2usize)?;
    if n == 0 {
        return Err("--shards must be at least 1".into());
    }
    let threads = flags.get_or("threads", executor::default_threads())?;
    let cache_base = flags.get_str("cache-file").map(std::path::PathBuf::from);
    let mut addrs = Vec::new();
    let mut daemons = Vec::new();
    for i in 0..n {
        let config = chain_nn_serve::ServerConfig {
            host: "127.0.0.1".to_owned(),
            port: 0,
            threads,
            cache_file: cache_base.as_ref().map(|base| {
                let mut file = base.clone().into_os_string();
                file.push(format!(".shard{i}"));
                std::path::PathBuf::from(file)
            }),
            ..chain_nn_serve::ServerConfig::default()
        };
        let server = chain_nn_serve::Server::bind(config)?;
        let addr = server.local_addr()?;
        println!(
            "chain-nn shard {i} on {addr} ({} cached points loaded)",
            server.loaded_from_disk()
        );
        addrs.push(addr.to_string());
        daemons.push(std::thread::spawn(move || server.run()));
    }
    let report = run_coordinator(flags, addrs)?;
    // The coordinator forwarded the shutdown to every shard; collect
    // their reports so the persistence accounting is visible.
    let mut cached = 0usize;
    let mut persisted = 0usize;
    for daemon in daemons {
        if let Ok(Ok(r)) = daemon.join().map_err(|_| "shard panicked") {
            cached += r.cached_points;
            persisted += r.persisted;
        }
    }
    Ok(format!(
        "cluster stopped: {} requests served across {n} shards ({cached} points cached, {persisted} newly persisted)\n",
        report.requests
    ))
}

/// `query` takes one positional REQUEST plus `--host`/`--port` flags,
/// so the tokens are partitioned by hand before [`Flags::parse`] (which
/// rejects positionals).
fn query_cmd(tokens: &[String]) -> CmdResult {
    let mut flag_tokens = Vec::new();
    let mut positionals = Vec::new();
    let mut render_text = false;
    let mut it = tokens.iter();
    while let Some(tok) = it.next() {
        if tok == "--text" {
            // The one valueless flag: renders a metrics reply as
            // Prometheus-style text instead of the wire JSON.
            render_text = true;
        } else if tok.starts_with("--") {
            flag_tokens.push(tok.clone());
            if let Some(value) = it.next() {
                flag_tokens.push(value.clone());
            }
        } else {
            positionals.push(tok.clone());
        }
    }
    let flags = Flags::parse(&flag_tokens, &["host", "port"])?;
    let host = flags.get_str("host").unwrap_or("127.0.0.1");
    let port = flags.get_or("port", 7878u16)?;
    let request = positionals.join(" ");
    if request.is_empty() {
        return Err("query needs a REQUEST (a JSON object or: stats | metrics | metrics-history | frontier | frontier2 | frontier-sqnr | frontier-stream | watch | dump | shutdown | eval)".into());
    }
    // Bare-word shorthands for the no-payload requests.
    let frontier = |dims, sqnr, stream| Request::Frontier { dims, sqnr, stream };
    let shorthand = match request.as_str() {
        "stats" => Some(Request::Stats),
        "metrics" => Some(Request::Metrics),
        "metrics-history" => Some(Request::MetricsHistory),
        "frontier" => Some(frontier(3, false, false)),
        "frontier2" => Some(frontier(2, false, false)),
        "frontier-sqnr" => Some(frontier(3, true, false)),
        "frontier-stream" => Some(frontier(3, false, true)),
        // Bounded so the shorthand terminates; raw JSON with
        // "samples":0 watches until daemon shutdown.
        "watch" => Some(Request::Watch { samples: 5 }),
        "shutdown" => Some(Request::Shutdown),
        "dump" => Some(Request::Dump),
        "eval" => Some(Request::Eval(DesignPoint::paper_alexnet())),
        _ => None,
    };
    let line = shorthand.map_or(request, |r| r.encode());
    // Streaming requests answer N result lines then one terminal line;
    // drain them all. (Decode failures fall through to single-reply
    // handling — the daemon will answer the error itself.)
    let streaming = Request::decode(&line)
        .map(|r| r.is_streaming())
        .unwrap_or(false);
    let mut client = chain_nn_serve::Client::connect((host, port))?;
    let mut reply = client.request_raw(&line)?;
    if render_text {
        return match chain_nn_serve::Response::decode(&reply) {
            Ok(chain_nn_serve::Response::Metrics { snapshot }) => {
                Ok(chain_nn_obs::render_text(&snapshot))
            }
            _ => Err(format!("--text expects a metrics reply, got: {reply}").into()),
        };
    }
    let mut out = String::new();
    loop {
        out.push_str(&reply);
        out.push('\n');
        if !streaming {
            return Ok(out);
        }
        match chain_nn_serve::Response::decode(&reply) {
            Ok(chain_nn_serve::Response::TuneFrontierStep(_))
            | Ok(chain_nn_serve::Response::FrontierStreamEntry { .. })
            | Ok(chain_nn_serve::Response::WatchSample(_)) => {
                reply = client.recv_raw_line()?;
            }
            // done / busy / error / anything unexpected terminates.
            _ => return Ok(out),
        }
    }
}

/// One `chain-nn top` dashboard frame rendered from a watch sample.
fn render_top_frame(sample: &chain_nn_serve::protocol::WatchSample) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "chain-nn top — sample #{} (tick {:.2} s, window {:.2} s)",
        sample.seq, sample.interval_s, sample.window_s
    );
    let _ = writeln!(
        s,
        "{:.1} req/s | {:.0} points/s | {} in-flight | {} active jobs | {} queued | \
         cache hit rate {:.1}% | {} requests total",
        sample.req_per_sec,
        sample.points_per_sec,
        sample.inflight,
        sample.active_jobs,
        sample.queue_depth,
        100.0 * sample.cache_hit_rate,
        sample.requests_total
    );
    let _ = writeln!(
        s,
        "queue-wait p99 {:.0} us | execute p99 {:.0} us",
        sample.queue_wait_p99_us, sample.execute_p99_us
    );
    let _ = writeln!(
        s,
        "{:<16} {:>10} {:>12} {:>12}",
        "type", "requests", "p50(us)", "p99(us)"
    );
    for t in &sample.types {
        let _ = writeln!(
            s,
            "{:<16} {:>10} {:>12.0} {:>12.0}",
            t.kind, t.requests, t.p50_us, t.p99_us
        );
    }
    if sample.types.is_empty() {
        let _ = writeln!(s, "(no traffic in the window)");
    }
    s
}

/// `chain-nn top` — the live dashboard: subscribes to the daemon's
/// watch stream and redraws one frame per sampler tick.
fn top_cmd(flags: &Flags) -> CmdResult {
    let host = flags.get_str("host").unwrap_or("127.0.0.1");
    let port = flags.get_or("port", 7878u16)?;
    let frames = flags.get_or("frames", 0u64)?;
    let mut client = chain_nn_serve::Client::connect((host, port))?;
    use std::io::Write as _;
    let done = client.watch(frames, |sample| {
        // ANSI clear + home between frames: redraw in place, like top.
        print!("\x1b[2J\x1b[H{}", render_top_frame(sample));
        let _ = std::io::stdout().flush();
    })?;
    match done {
        chain_nn_serve::Response::WatchDone { samples } => {
            Ok(format!("watch stream ended after {samples} frames\n"))
        }
        chain_nn_serve::Response::Error { message } => Err(message.into()),
        other => Err(format!("unexpected daemon reply: {other:?}").into()),
    }
}

fn perf_cmd(flags: &Flags) -> CmdResult {
    let net = net_by_name(flags.get_str("net").unwrap_or("alexnet"))?;
    let batch = flags.get_or("batch", 4usize)?;
    let cfg = chain_from(flags)?;
    let model = match flags.get_str("model").unwrap_or("paper") {
        "strict" => CycleModel::Strict,
        _ => CycleModel::PaperCalibrated,
    };
    let perf = PerfModel::new(cfg).network(&net, batch, model)?;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "== {} on {} PEs @ {} MHz, batch {batch} ==",
        net.name(),
        cfg.num_pes(),
        cfg.freq_mhz()
    );
    let _ = writeln!(s, "{:<14} {:>12} {:>10}", "layer", "conv(ms)", "load(ms)");
    for l in &perf.layers {
        let _ = writeln!(s, "{:<14} {:>12.3} {:>10.3}", l.name, l.conv_ms, l.load_ms);
    }
    let _ = writeln!(
        s,
        "total {:.2} ms | {:.1} fps | {:.1} GOPS achieved ({:.1}% of peak)",
        perf.total_ms,
        perf.fps,
        perf.gops,
        100.0 * perf.gops / cfg.peak_gops()
    );
    Ok(s)
}

fn traffic_cmd(flags: &Flags) -> CmdResult {
    let net = net_by_name(flags.get_str("net").unwrap_or("alexnet"))?;
    let batch = flags.get_or("batch", 4usize)?;
    let cfg = chain_from(flags)?;
    let rows = TrafficModel::new(cfg, MemoryConfig::paper()).network_traffic(&net, batch)?;
    let mut s = String::new();
    let _ = writeln!(s, "== {} memory traffic, batch {batch} (MB) ==", net.name());
    let _ = writeln!(
        s,
        "{:<14} {:>9} {:>9} {:>9} {:>9}",
        "layer", "DRAM", "iMem", "kMem", "oMem"
    );
    let mb = |b: u64| b as f64 / 1e6;
    for r in &rows {
        let _ = writeln!(
            s,
            "{:<14} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
            r.name,
            mb(r.dram_bytes),
            mb(r.imem_bytes),
            mb(r.kmem_bytes),
            mb(r.omem_bytes)
        );
    }
    let t = totals(&rows);
    let _ = writeln!(
        s,
        "{:<14} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
        "Total",
        mb(t.dram_bytes),
        mb(t.imem_bytes),
        mb(t.kmem_bytes),
        mb(t.omem_bytes)
    );
    Ok(s)
}

fn power_cmd(flags: &Flags) -> CmdResult {
    let net = net_by_name(flags.get_str("net").unwrap_or("alexnet"))?;
    let batch = flags.get_or("batch", 4usize)?;
    let cfg = chain_from(flags)?;
    let r = PowerModel::new(cfg, MemoryConfig::paper()).network_power(&net, batch)?;
    let b = r.breakdown;
    let mut s = String::new();
    let _ = writeln!(s, "== {} power, batch {batch} ==", net.name());
    let _ = writeln!(s, "chain   {:>8.1} mW", b.chain_mw);
    let _ = writeln!(s, "kMemory {:>8.1} mW", b.kmem_mw);
    let _ = writeln!(s, "iMemory {:>8.1} mW", b.imem_mw);
    let _ = writeln!(s, "oMemory {:>8.1} mW", b.omem_mw);
    let _ = writeln!(
        s,
        "total   {:>8.1} mW (+{:.1} mW DRAM interface)",
        b.total_mw(),
        r.dram_mw
    );
    let _ = writeln!(
        s,
        "{:.1} GOPS/W whole-chip | {:.1} GOPS/W core-only",
        r.gops_per_watt_total(),
        r.gops_per_watt_core()
    );
    Ok(s)
}

fn simulate_cmd(flags: &Flags) -> CmdResult {
    let c = flags.get_or("c", 1usize)?;
    let h = flags.get_or("h", 8usize)?;
    let m = flags.get_or("m", 1usize)?;
    let k = flags.get_or("k", 3usize)?;
    let stride = flags.get_or("stride", 1usize)?;
    let pad = flags.get_or("pad", 0usize)?;
    let batch = flags.get_or("batch", 1usize)?;
    let pes = flags.get_or("pes", (m.min(4) * k * k).max(k * k))?;
    let shape = LayerShape::square(c, h, m, k, stride, pad);
    shape.validate()?;

    let vi = batch * c * h * h;
    let ifmap = Tensor::from_vec(
        [batch, c, h, h],
        (0..vi)
            .map(|i| Fix16::from_raw((i % 29) as i16 - 14))
            .collect(),
    )
    .map_err(|e| e.to_string())?;
    let vw = m * c * k * k;
    let weights = Tensor::from_vec(
        [m, c, k, k],
        (0..vw)
            .map(|i| Fix16::from_raw((i % 13) as i16 - 6))
            .collect(),
    )
    .map_err(|e| e.to_string())?;

    let cfg = ChainConfig::builder().num_pes(pes).build()?;
    let sim = ChainSim::new(cfg);
    let (ofmaps, stream, drain, load, util) = if stride == 1 {
        let r = sim.run_layer(&shape, &ifmap, &weights)?;
        let u = r.stats.utilization(pes);
        (
            r.ofmaps,
            r.stats.stream_cycles,
            r.stats.drain_cycles,
            r.stats.load_cycles,
            u,
        )
    } else {
        let r = polyphase::run(&sim, &shape, &ifmap, &weights)?;
        let total = r.stats.stream_cycles + r.stats.drain_cycles + r.stats.load_cycles;
        let u = r.stats.mac_ops as f64 / (pes as u64 * total) as f64;
        (
            r.ofmaps,
            r.stats.stream_cycles,
            r.stats.drain_cycles,
            r.stats.load_cycles,
            u,
        )
    };

    let golden = conv2d_fix(
        &ifmap,
        &weights,
        ConvGeometry::new(k, stride, pad).map_err(|e| e.to_string())?,
        OverflowMode::Wrapping,
    )
    .map_err(|e| e.to_string())?;
    let check = if ofmaps == golden {
        "bit-exact vs golden model"
    } else {
        "MISMATCH"
    };
    if ofmaps != golden {
        return Err("simulator output mismatched the golden model".into());
    }

    let mut s = String::new();
    let _ = writeln!(s, "layer {shape} on {pes} PEs (batch {batch})");
    let _ = writeln!(
        s,
        "cycles: {stream} stream + {drain} drain + {load} load = {}",
        stream + drain + load
    );
    let _ = writeln!(s, "utilization: {:.1}%", 100.0 * util);
    let _ = writeln!(s, "outputs: {} ({check})", golden.as_slice().len());
    Ok(s)
}

/// `trace` is two commands sharing a name: with a positional trace ID
/// it queries a running daemon's span tree (`chain-nn trace ID
/// [--chrome F.json] [--host H] [--port P]`); with flags only it
/// renders the simulator's VCD waveform exactly as before.
fn trace_dispatch(tokens: &[String]) -> CmdResult {
    match tokens.first() {
        Some(first) if !first.starts_with("--") => trace_query_cmd(tokens),
        _ => trace_cmd(&Flags::parse(tokens, &["h", "k", "m", "out"])?),
    }
}

/// Queries a daemon for one trace's span tree and renders it indented
/// by causality; `--chrome FILE` additionally exports the spans as
/// Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev).
fn trace_query_cmd(tokens: &[String]) -> CmdResult {
    let (first, rest) = tokens
        .split_first()
        .expect("caller checked a positional exists");
    let id: u64 = first
        .parse()
        .map_err(|_| format!("trace ID must be a positive integer, got '{first}'"))?;
    if id == 0 {
        return Err("trace ID 0 is reserved for untraced requests".into());
    }
    let flags = Flags::parse(rest, &["host", "port", "chrome"])?;
    let host = flags.get_str("host").unwrap_or("127.0.0.1");
    let port = flags.get_or("port", 7878u16)?;
    let chrome = flags.get_str("chrome").map(ToOwned::to_owned);
    let mut client = chain_nn_serve::Client::connect((host, port))?;
    match client.trace_query(id)? {
        chain_nn_serve::Response::Trace { id, dropped, spans } => {
            let mut out = format!("trace {id}: {} spans", spans.len());
            if dropped > 0 {
                let _ = write!(out, " (ring has dropped {dropped} oldest spans overall)");
            }
            out.push('\n');
            if spans.is_empty() {
                out.push_str(
                    "no spans recorded — send requests with {\"trace\":{\"id\":N}} first\n",
                );
                return Ok(out);
            }
            render_span_tree(&mut out, &spans);
            if let Some(path) = chrome {
                let json = chain_nn_obs::trace::chrome_trace_json(&spans);
                std::fs::write(&path, json)?;
                let _ = writeln!(
                    out,
                    "wrote Chrome trace to {path} (load in chrome://tracing or ui.perfetto.dev)"
                );
            }
            Ok(out)
        }
        chain_nn_serve::Response::Error { message } => Err(message.into()),
        other => Err(format!("unexpected reply: {}", other.encode()).into()),
    }
}

/// Renders spans as an indented tree: children under their parent,
/// siblings in start order, with duration, worker and point count.
fn render_span_tree(out: &mut String, spans: &[chain_nn_obs::trace::SpanRecord]) {
    use chain_nn_obs::trace::SpanRecord;
    let ids: std::collections::HashSet<u64> = spans.iter().map(|s| s.span_id).collect();
    let base_us = spans.iter().map(|s| s.start_us).min().unwrap_or(0);
    fn render(out: &mut String, spans: &[SpanRecord], parent: u64, depth: usize, base_us: u64) {
        for s in spans.iter().filter(|s| s.parent_id == parent) {
            let _ = write!(
                out,
                "{:indent$}{:<12} +{:>8.3} ms {:>10.3} ms",
                "",
                s.name,
                (s.start_us - base_us) as f64 / 1e3,
                s.dur_us as f64 / 1e3,
                indent = 2 + depth * 2,
            );
            if let Some(w) = s.worker {
                let _ = write!(out, "  worker {w}");
            }
            if s.points > 0 {
                let _ = write!(out, "  {} points", s.points);
            }
            out.push('\n');
            render(out, spans, s.span_id, depth + 1, base_us);
        }
    }
    // Roots: spans whose parent is 0 or not in the ring any more (a
    // remote parent id, or one the ring has since overwritten). Render
    // each distinct orphan parent once — rendering per root span would
    // repeat siblings that share the same absent parent.
    let mut orphan_parents: Vec<u64> = spans
        .iter()
        .filter(|s| !ids.contains(&s.parent_id))
        .map(|s| s.parent_id)
        .collect();
    orphan_parents.sort_unstable();
    orphan_parents.dedup();
    for parent in orphan_parents {
        render(out, spans, parent, 0, base_us);
    }
}

fn trace_cmd(flags: &Flags) -> CmdResult {
    let h = flags.get_or("h", 6usize)?;
    let k = flags.get_or("k", 3usize)?;
    let m = flags.get_or("m", 2usize)?;
    let shape = LayerShape::square(1, h, m, k, 1, 0);
    let vi = h * h;
    let ifmap = Tensor::from_vec(
        [1, 1, h, h],
        (0..vi)
            .map(|i| Fix16::from_raw((i % 17) as i16 + 1))
            .collect(),
    )
    .map_err(|e| e.to_string())?;
    let vw = m * k * k;
    let weights = Tensor::from_vec(
        [m, 1, k, k],
        (0..vw)
            .map(|i| Fix16::from_raw((i % 5) as i16 + 1))
            .collect(),
    )
    .map_err(|e| e.to_string())?;
    let vcd = trace::trace_pattern(&shape, &ifmap, &weights, 0)?;
    match flags.get_str("out") {
        Some(path) => {
            std::fs::write(path, &vcd)?;
            Ok(format!(
                "wrote {} bytes of VCD to {path} (open with GTKWave/Surfer)\n",
                vcd.len()
            ))
        }
        None => Ok(vcd),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> String {
        dispatch(&args.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
            .expect("command succeeds")
    }

    #[test]
    fn help_lists_commands() {
        let h = run(&["help"]);
        for cmd in [
            "perf", "traffic", "power", "simulate", "trace", "tables", "serve", "query",
        ] {
            assert!(h.contains(cmd), "help missing {cmd}");
        }
        assert_eq!(run(&[]), h); // empty argv -> help
    }

    #[test]
    fn unknown_command_fails() {
        assert!(dispatch(&["frobnicate".to_owned()]).is_err());
    }

    #[test]
    fn serve_trace_cap_rejects_garbage_and_negatives() {
        for bad in ["garbage", "-5", "1.5"] {
            let err = dispatch(&[
                "serve".to_owned(),
                "--trace-cap-mb".to_owned(),
                (*bad).to_owned(),
            ])
            .expect_err("bad cap must be rejected")
            .to_string();
            assert!(err.contains("trace-cap-mb"), "unhelpful error: {err}");
            assert!(err.contains(bad), "error must echo the value: {err}");
        }
    }

    #[test]
    fn serve_trace_cap_zero_parses_as_no_rotation() {
        // 0 must reach ServerConfig unchanged (rotation disabled);
        // the no-rotation file behavior itself is covered by the serve
        // crate's TraceLog tests.
        let flags = Flags::parse(
            &["--trace-cap-mb".to_owned(), "0".to_owned()],
            &["trace-cap-mb"],
        )
        .unwrap();
        assert_eq!(flags.get_or("trace-cap-mb", 64u64).unwrap(), 0);
    }

    #[test]
    fn trace_positional_must_be_a_valid_trace_id() {
        let err = dispatch(&["trace".to_owned(), "abc".to_owned()])
            .expect_err("non-numeric id")
            .to_string();
        assert!(err.contains("trace ID"), "{err}");
        let err = dispatch(&["trace".to_owned(), "0".to_owned()])
            .expect_err("id 0 is reserved")
            .to_string();
        assert!(err.contains("reserved"), "{err}");
    }

    #[test]
    fn perf_runs_on_every_zoo_net() {
        for net in [
            "alexnet",
            "vgg16",
            "lenet",
            "cifar10",
            "resnet18",
            "mobilenet",
        ] {
            let out = run(&["perf", "--net", net, "--batch", "2"]);
            assert!(out.contains("fps"), "{net}: {out}");
        }
    }

    #[test]
    fn perf_strict_mode() {
        let out = run(&["perf", "--net", "alexnet", "--model", "strict"]);
        assert!(out.contains("total"));
    }

    #[test]
    fn traffic_and_power_run() {
        assert!(run(&["traffic", "--net", "alexnet"]).contains("oMem"));
        assert!(run(&["power", "--net", "alexnet"]).contains("GOPS/W"));
    }

    #[test]
    fn simulate_is_golden_checked() {
        let out = run(&[
            "simulate", "--c", "2", "--h", "7", "--m", "3", "--k", "3", "--pad", "1", "--pes", "27",
        ]);
        assert!(out.contains("bit-exact"), "{out}");
        // Strided path.
        let out = run(&["simulate", "--h", "9", "--k", "3", "--stride", "2"]);
        assert!(out.contains("bit-exact"), "{out}");
    }

    #[test]
    fn simulate_rejects_bad_shapes() {
        assert!(dispatch(
            &["simulate", "--h", "2", "--k", "5"]
                .iter()
                .map(|s| (*s).to_owned())
                .collect::<Vec<_>>()
        )
        .is_err());
    }

    #[test]
    fn trace_produces_vcd() {
        let out = run(&["trace", "--h", "6", "--k", "3"]);
        assert!(out.starts_with("$date"));
        assert!(out.contains("$enddefinitions"));
    }

    #[test]
    fn table_commands_alias_bench_runners() {
        assert!(run(&["table2"]).contains("576"));
        assert!(run(&["nets"]).contains("AlexNet"));
    }

    #[test]
    fn dse_sweeps_and_marks_the_paper_point() {
        let out = run(&[
            "dse",
            "--pes",
            "288,576",
            "--freq",
            "700",
            "--batch",
            "4",
            "--threads",
            "2",
        ]);
        assert!(out.contains("2 points"), "{out}");
        assert!(out.contains("Pareto frontier"), "{out}");
        assert!(out.contains("<- paper"), "{out}");
        assert!(out.contains("speedup"), "{out}");
    }

    #[test]
    fn dse_range_axis_and_csv_export() {
        let path = std::env::temp_dir().join("chain_nn_dse_test.csv");
        let path_str = path.to_str().expect("utf-8 temp path");
        let out = run(&[
            "dse",
            "--pes",
            "64..=128:32",
            "--freq",
            "700",
            "--net",
            "lenet",
            "--batch",
            "1",
            "--threads",
            "1",
            "--out",
            path_str,
        ]);
        assert!(out.contains("3 points"), "{out}");
        let csv = std::fs::read_to_string(&path).expect("csv written");
        std::fs::remove_file(&path).ok();
        assert!(csv.starts_with("net,pes,"));
        assert_eq!(csv.lines().count(), 4); // header + 3 points
    }

    #[test]
    fn dse_rejects_bad_axes() {
        for bad in [
            vec!["dse", "--pes", "10..=5"],
            vec!["dse", "--freq", "fast"],
            vec!["dse", "--net", "squeezenet"],
            vec!["dse", "--bits", "12"],
        ] {
            let argv: Vec<String> = bad.iter().map(|s| (*s).to_owned()).collect();
            assert!(dispatch(&argv).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn tune_finds_a_point_under_budget() {
        let out = run(&["tune", "--max-mw", "500", "--seed", "7", "--threads", "2"]);
        assert!(out.contains("within budget"), "{out}");
        assert!(out.contains("chosen:"), "{out}");
        assert!(out.contains("grid configurations"), "{out}");
        // The search must not have swept: the default grid has 244
        // configurations and the report says how many were touched.
        assert!(out.contains("of 244 grid configurations"), "{out}");
    }

    #[test]
    fn tune_with_mix_and_cache_file_is_incremental() {
        let path =
            std::env::temp_dir().join(format!("chain_nn_cli_tune_{}.cache", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let path_str = path.to_str().expect("utf-8 temp path");
        let args = [
            "tune",
            "--mix",
            "alexnet:0.7,vgg16:0.3",
            "--max-mw",
            "900",
            "--pes",
            "576..=1024:64",
            "--threads",
            "1",
            "--cache-file",
            path_str,
        ];
        let first = run(&args);
        assert!(first.contains("70% alexnet + 30% vgg16"), "{first}");
        assert!(first.contains("0 hits"), "{first}");
        let second = run(&args);
        assert!(second.contains(" 0 misses"), "{second}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dse_cache_file_makes_sweeps_incremental_with_zero_accuracy_recomputes() {
        let path =
            std::env::temp_dir().join(format!("chain_nn_cli_dse_{}.cache", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let args = [
            "dse",
            "--pes",
            "25,50",
            "--freq",
            "700",
            "--net",
            "lenet",
            "--batch",
            "1",
            "--threads",
            "1",
            "--cache-file",
            path.to_str().expect("utf-8 temp path"),
        ];
        let first = run(&args);
        assert!(first.contains("2 misses"), "{first}");
        assert!(first.contains("points loaded, 2 appended"), "{first}");
        // Settle every (net, width) pair concurrent tests in this
        // binary can measure: the recomputation counter is
        // process-global, and a measurement completing between the
        // second run's before/after reads would break its "0" report.
        for net in ["lenet", "cifar10", "alexnet", "vgg16"] {
            for bits in [8u32, 16] {
                chain_nn_dse::accuracy::sqnr_for(net, bits).expect("zoo pair measures");
            }
        }
        // Second run: every point (and with it its SQNR) comes off the
        // snapshot — zero evaluations, zero accuracy recomputations.
        let second = run(&args);
        assert!(second.contains("2 hits / 0 misses"), "{second}");
        assert!(second.contains("accuracy recomputations: 0"), "{second}");
        assert!(second.contains("2 points loaded, 0 appended"), "{second}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tune_min_sqnr_db_floor_forces_the_wide_word() {
        // 8- and 16-bit words at one configuration: without the floor
        // the cooler 8-bit point wins; the accuracy floor flips it.
        let base = [
            "tune",
            "--pes",
            "576",
            "--freq",
            "700",
            "--batch",
            "4",
            "--bits",
            "8,16",
            "--threads",
            "1",
        ];
        let free = run(&base);
        assert!(free.contains(" w8 "), "{free}");
        let mut strict = base.to_vec();
        strict.extend(["--min-sqnr-db", "50"]);
        let strict = run(&strict);
        assert!(strict.contains(" w16 "), "{strict}");
        assert!(strict.contains("SQNR >= 50 dB"), "{strict}");
        assert!(strict.contains("within budget"), "{strict}");
    }

    #[test]
    fn tune_sweep_budget_reports_the_tuned_frontier() {
        let out = run(&[
            "tune",
            "--sweep-budget",
            "max-mw=450..=650:100",
            "--threads",
            "2",
        ]);
        assert!(out.contains("== frontier tune:"), "{out}");
        assert!(out.contains("sweep: max-mw 450..650 (3 steps)"), "{out}");
        // One row per budget step, then the frontier block.
        assert!(out.contains("tuned frontier:"), "{out}");
        assert!(out.contains("max-mw <="), "{out}");
        assert!(out.contains("% reused via warm start"), "{out}");
        // The sweep reuses evaluations: distinct < sum of standalone.
        assert!(out.contains("standalone tunes would visit"), "{out}");
    }

    #[test]
    fn tune_sweep_budget_exports_the_frontier() {
        let dir = std::env::temp_dir();
        let csv_path = dir.join(format!("chain_nn_frontier_{}.csv", std::process::id()));
        let json_path = dir.join(format!("chain_nn_frontier_{}.json", std::process::id()));
        let out = run(&[
            "tune",
            "--sweep-budget",
            "max-mw=500..=600:100",
            "--threads",
            "1",
            "--out",
            csv_path.to_str().unwrap(),
            "--json",
            json_path.to_str().unwrap(),
        ]);
        assert!(out.contains("wrote tuned-frontier CSV"), "{out}");
        assert!(out.contains("wrote tuned-frontier JSON"), "{out}");
        let csv = std::fs::read_to_string(&csv_path).expect("csv written");
        std::fs::remove_file(&csv_path).ok();
        assert!(csv.starts_with("budget_axis,budget_value,"), "{csv}");
        assert_eq!(csv.lines().count(), 3, "header + 2 steps: {csv}");
        assert!(csv.contains("max_system_mw,500,1,"), "{csv}");
        let json = std::fs::read_to_string(&json_path).expect("json written");
        std::fs::remove_file(&json_path).ok();
        assert!(
            json.contains("\"budget_axis\": \"max_system_mw\""),
            "{json}"
        );
        assert_eq!(json.matches("\"budget_value\"").count(), 2);
    }

    #[test]
    fn tune_sweep_budget_rejects_bad_sweeps() {
        for bad in [
            vec!["tune", "--sweep-budget", "warp=1..=2"],
            vec!["tune", "--sweep-budget", "max-mw=900..=300:50"],
            vec!["tune", "--sweep-budget", "max-mw=300..=900:0"],
            // The swept axis must not also be fixed.
            vec![
                "tune",
                "--sweep-budget",
                "max-mw=300..=900:50",
                "--max-mw",
                "500",
            ],
            // Frontier exports need the sweep.
            vec!["tune", "--out", "frontier.csv"],
            vec!["tune", "--json", "frontier.json"],
        ] {
            let argv: Vec<String> = bad.iter().map(|s| (*s).to_owned()).collect();
            assert!(dispatch(&argv).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn tune_rejects_bad_flags() {
        for bad in [
            vec!["tune", "--net", "alexnet"],
            vec!["tune", "--mix", "squeezenet"],
            vec!["tune", "--max-mw", "cheap"],
            vec!["tune", "--min-sqnr-db", "lots"],
            vec!["tune", "--objective", "warp"],
            vec!["tune", "--strategy", "warp"],
            // Local-only knobs are refused (not silently ignored) on
            // the daemon path; checked before any connection attempt.
            vec!["tune", "--port", "7878", "--cache-file", "x.cache"],
            vec!["tune", "--port", "7878", "--threads", "4"],
        ] {
            let argv: Vec<String> = bad.iter().map(|s| (*s).to_owned()).collect();
            assert!(dispatch(&argv).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn compact_rewrites_a_cache_file() {
        let path =
            std::env::temp_dir().join(format!("chain_nn_cli_compact_{}.cache", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let file = chain_nn_dse::CacheFile::new(&path);
        let point = chain_nn_dse::DesignPoint::paper_alexnet();
        let outcome = chain_nn_dse::evaluate(&point).unwrap();
        file.append(&[(point.clone(), outcome.clone()), (point, outcome)])
            .unwrap();
        let out = run(&["compact", "--cache-file", path.to_str().unwrap()]);
        assert!(out.contains("kept 1 records"), "{out}");
        assert!(out.contains("dropped 1 duplicates"), "{out}");
        std::fs::remove_file(&path).ok();
        assert!(dispatch(&["compact".to_owned()]).is_err());
    }

    #[test]
    fn query_drives_a_live_daemon() {
        // Bind on an ephemeral port via the library, then drive it
        // through the CLI client path.
        let server = chain_nn_serve::Server::bind(chain_nn_serve::ServerConfig {
            threads: 2,
            ..chain_nn_serve::ServerConfig::default()
        })
        .expect("bind");
        let port = server.local_addr().expect("addr").port().to_string();
        let daemon = std::thread::spawn(move || server.run().expect("daemon runs"));

        let stats = run(&["query", "--port", &port, "stats"]);
        assert!(stats.contains("\"ok\":true"), "{stats}");
        assert!(stats.contains("\"cached_points\":0"), "{stats}");

        let sweep = run(&[
            "query",
            "--port",
            &port,
            r#"{"type":"sweep","spec":{"pes":[288,576],"nets":"alexnet"}}"#,
        ]);
        assert!(sweep.contains("\"points\":2"), "{sweep}");
        assert!(sweep.contains("\"cache_misses\":2"), "{sweep}");

        let frontier = run(&["query", "--port", &port, "frontier"]);
        assert!(frontier.contains("\"entries\":["), "{frontier}");

        // The windowed-history reply answers even before the first
        // sampler tick (empty windows, zero rates).
        let history = run(&["query", "--port", &port, "metrics-history"]);
        assert!(history.contains("\"windows\":["), "{history}");
        assert!(history.contains("\"interval_s\":"), "{history}");

        // The streaming variant drains one line per entry + done.
        let streamed = run(&["query", "--port", &port, "frontier-stream"]);
        let lines: Vec<&str> = streamed.lines().collect();
        assert!(lines.len() >= 2, "{streamed}");
        assert!(lines[0].contains("\"stream\":true"), "{streamed}");
        assert!(
            lines.last().unwrap().contains("\"done\":true"),
            "{streamed}"
        );

        // A streamed frontier tune over the daemon: step lines then done.
        let swept = run(&[
            "query",
            "--port",
            &port,
            r#"{"type":"tune_frontier","sweep":{"axis":"max_system_mw","values":[500,600]}}"#,
        ]);
        let lines: Vec<&str> = swept.lines().collect();
        assert_eq!(lines.len(), 3, "{swept}");
        assert!(lines[0].contains("\"step\":0"), "{swept}");
        assert!(lines[1].contains("\"step\":1"), "{swept}");
        assert!(lines[2].contains("\"done\":true"), "{swept}");

        let bye = run(&["query", "--port", &port, "shutdown"]);
        assert!(bye.contains("\"type\":\"shutdown\""), "{bye}");
        let report = daemon.join().expect("daemon thread");
        // The sweep cached its 2 points; the streamed frontier tune
        // cached its search on top.
        assert!(report.cached_points >= 2, "{}", report.cached_points);
        assert!(report.requests >= 6);
    }

    #[test]
    fn query_requires_a_request() {
        assert!(dispatch(&["query".to_owned()]).is_err());
    }

    #[test]
    fn serve_rejects_malformed_slos() {
        let err = dispatch(&[
            "serve".to_owned(),
            "--slo".to_owned(),
            "eval:p99=500".to_owned(),
        ])
        .expect_err("bad slo spec");
        assert!(err.to_string().contains("p99_us"), "{err}");
    }

    #[test]
    fn top_frame_renders_the_dashboard_fields() {
        let frame = render_top_frame(&chain_nn_serve::protocol::WatchSample {
            seq: 12,
            interval_s: 0.25,
            window_s: 1.0,
            req_per_sec: 42.5,
            points_per_sec: 1360.0,
            inflight: 2,
            active_jobs: 3,
            queue_depth: 1,
            cache_hit_rate: 0.875,
            requests_total: 512,
            queue_wait_p99_us: 180.0,
            execute_p99_us: 950.0,
            types: vec![chain_nn_serve::protocol::HistoryTypeWindow {
                kind: "eval".to_owned(),
                requests: 40,
                p50_us: 120.0,
                p99_us: 800.0,
            }],
        });
        assert!(frame.contains("sample #12"), "{frame}");
        assert!(frame.contains("42.5 req/s"), "{frame}");
        assert!(frame.contains("cache hit rate 87.5%"), "{frame}");
        assert!(frame.contains("queue-wait p99 180 us"), "{frame}");
        assert!(frame.contains("eval"), "{frame}");
    }

    #[test]
    fn top_and_watch_drive_a_live_daemon() {
        let server = chain_nn_serve::Server::bind(chain_nn_serve::ServerConfig {
            threads: 2,
            sample_interval: std::time::Duration::from_millis(20),
            ..chain_nn_serve::ServerConfig::default()
        })
        .expect("bind");
        let port = server.local_addr().expect("addr").port().to_string();
        let daemon = std::thread::spawn(move || server.run().expect("daemon runs"));

        // Some traffic for the dashboard, then two frames off the
        // stream (the frames themselves print eagerly; the returned
        // text is the end-of-stream summary).
        run(&["query", "--port", &port, "eval"]);
        let out = run(&["top", "--port", &port, "--frames", "2"]);
        assert!(out.contains("watch stream ended after 2 frames"), "{out}");

        // The bounded query shorthand drains sample lines then done.
        let watched = run(&["query", "--port", &port, r#"{"type":"watch","samples":2}"#]);
        let lines: Vec<&str> = watched.lines().collect();
        assert_eq!(lines.len(), 3, "{watched}");
        assert!(lines[0].contains("\"seq\":"), "{watched}");
        assert!(lines[2].contains("\"done\":true"), "{watched}");

        run(&["query", "--port", &port, "shutdown"]);
        daemon.join().expect("daemon thread");
    }

    #[test]
    fn tune_sweep_budget_on_a_daemon_matches_local() {
        let server = chain_nn_serve::Server::bind(chain_nn_serve::ServerConfig {
            threads: 2,
            ..chain_nn_serve::ServerConfig::default()
        })
        .expect("bind");
        let port = server.local_addr().expect("addr").port().to_string();
        let daemon = std::thread::spawn(move || server.run().expect("daemon runs"));

        let sweep = ["--sweep-budget", "max-mw=500..=700:100"];
        let local = run(&[&["tune", "--threads", "2"], &sweep[..]].concat());
        let served = run(&[&["tune", "--port", &port], &sweep[..]].concat());
        // Identical frontier + accounting, whichever side searched.
        // (The daemon path prints its step rows eagerly as they stream
        // in, so the returned text carries the summary only.)
        let summary = |s: &str| -> Vec<String> {
            s.lines()
                .skip_while(|l| !l.starts_with("tuned frontier"))
                .map(str::to_owned)
                .collect()
        };
        let local_summary = summary(&local);
        assert!(!local_summary.is_empty(), "{local}");
        assert_eq!(local_summary, summary(&served), "\n{local}\nvs\n{served}");
        // And the local path still renders one row per budget step
        // ahead of the frontier block.
        let step_rows = local
            .lines()
            .take_while(|l| !l.starts_with("tuned frontier"))
            .filter(|l| l.contains("MHz kmem="))
            .count();
        assert_eq!(step_rows, 3, "{local}");

        run(&["query", "--port", &port, "shutdown"]);
        daemon.join().expect("daemon thread");
    }

    #[test]
    fn dse_reports_hit_rate() {
        let out = run(&[
            "dse",
            "--pes",
            "288,576",
            "--freq",
            "700",
            "--batch",
            "4",
            "--threads",
            "1",
        ]);
        assert!(out.contains("% hit rate)"), "{out}");
    }

    #[test]
    fn bad_flags_reported() {
        let err = dispatch(
            &["perf", "--batch", "lots"]
                .iter()
                .map(|s| (*s).to_owned())
                .collect::<Vec<_>>(),
        )
        .expect_err("bad value");
        assert!(err.to_string().contains("lots"));
    }

    #[test]
    fn mistyped_flags_are_errors_that_name_them() {
        for (argv, typo) in [
            (vec!["dse", "--pes", "576", "--trheads", "8"], "--trheads"),
            (vec!["perf", "--net", "alexnet", "--bach", "4"], "--bach"),
            (vec!["query", "--prot", "7878", "stats"], "--prot"),
            (vec!["trace", "42", "--chrom", "x.json"], "--chrom"),
            (vec!["trace", "--h", "6", "--kk", "3"], "--kk"),
        ] {
            let argv: Vec<String> = argv.iter().map(|s| (*s).to_owned()).collect();
            let err = dispatch(&argv)
                .expect_err("a mistyped flag must fail")
                .to_string();
            assert!(
                err.contains(typo),
                "{argv:?}: error must name {typo}: {err}"
            );
        }
    }

    #[test]
    fn serve_refuses_mistyped_flags_before_it_binds() {
        // The port is taken, so a serve that ignored the typos would
        // fail to bind instead of naming them.
        let taken = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let port = taken.local_addr().expect("addr").port().to_string();
        let argv: Vec<String> = [
            "serve",
            "--port",
            &port,
            "--thread",
            "4",
            "--cache-fil",
            "x.cache",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let err = dispatch(&argv).expect_err("typo").to_string();
        assert!(err.contains("--thread"), "error must name --thread: {err}");
    }
}
