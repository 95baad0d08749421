//! End-to-end tests of the observability layer against a live daemon
//! over loopback TCP: the `metrics` snapshot must reconcile with the
//! client's own tally of the requests it made, and the structured
//! trace log must report queue-wait separated from execute time for
//! requests that raced a big sweep. These are the acceptance criteria
//! of the observability PR.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

use chain_nn_repro::dse::{DesignPoint, SweepSpec};
use chain_nn_repro::obs::trace::{SpanRecord, TraceContext};
use chain_nn_repro::serve::cluster::{ClusterConfig, Coordinator};
use chain_nn_repro::serve::protocol::Response;
use chain_nn_repro::serve::{Client, Server, ServerConfig, ServerReport};

fn start(config: ServerConfig) -> (std::net::SocketAddr, std::thread::JoinHandle<ServerReport>) {
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = std::thread::spawn(move || server.run().expect("daemon runs"));
    (addr, handle)
}

fn lenet_grid(pes: Vec<usize>) -> SweepSpec {
    SweepSpec {
        pes,
        freqs_mhz: vec![350.0, 700.0],
        nets: vec!["lenet".into()],
        ..SweepSpec::paper_point()
    }
}

fn metrics_snapshot(client: &mut Client) -> chain_nn_repro::obs::Snapshot {
    match client.metrics().expect("metrics round trip") {
        Response::Metrics { snapshot } => snapshot,
        other => panic!("expected a metrics reply, got {other:?}"),
    }
}

/// The daemon's `metrics` reply must agree with what this client did:
/// per-type request counters and latency histogram counts match the
/// tally of requests actually sent, and the latency quantiles are
/// populated (nonzero, ordered).
#[test]
fn metrics_reconcile_with_the_clients_own_request_tally() {
    let (addr, daemon) = start(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");

    const EVALS: u64 = 5;
    let point = DesignPoint::paper_alexnet();
    for _ in 0..EVALS {
        match client.eval(point.clone()).expect("eval round trip") {
            Response::Eval { .. } => {}
            other => panic!("expected an eval reply, got {other:?}"),
        }
    }
    let grid = lenet_grid(vec![25, 50, 100]);
    for _ in 0..2 {
        match client.sweep(grid.clone()).expect("sweep round trip") {
            Response::Sweep(_) => {}
            other => panic!("expected a sweep reply, got {other:?}"),
        }
    }
    let stats = match client.stats().expect("stats round trip") {
        Response::Stats(stats) => stats,
        other => panic!("expected a stats reply, got {other:?}"),
    };
    // Satellite: stats now reports uptime and in-flight jobs from the
    // registry (the stats request itself is in flight as it is served).
    assert!(stats.uptime_s > 0.0, "uptime_s = {}", stats.uptime_s);
    assert!(stats.inflight_requests >= 1, "{}", stats.inflight_requests);
    assert_eq!(stats.requests, EVALS + 2 + 1);

    let snapshot = metrics_snapshot(&mut client);
    let eval_labels: &[(&str, &str)] = &[("type", "eval")];
    assert_eq!(
        snapshot.counter("serve_requests_total", eval_labels),
        Some(EVALS)
    );
    assert_eq!(
        snapshot.counter("serve_requests_total", &[("type", "sweep")]),
        Some(2)
    );
    assert_eq!(
        snapshot.counter("serve_requests_total", &[("type", "stats")]),
        Some(1)
    );
    let latency = snapshot
        .histogram("serve_request_ns", eval_labels)
        .expect("eval latency histogram");
    assert_eq!(latency.count, EVALS);
    assert!(latency.p50 > 0.0, "p50 = {}", latency.p50);
    assert!(latency.p99 >= latency.p50, "{latency:?}");
    let sweep_latency = snapshot
        .histogram("serve_request_ns", &[("type", "sweep")])
        .expect("sweep latency histogram");
    assert_eq!(sweep_latency.count, 2);
    // Every request's decode time is its own histogram, per type.
    for (kind, count) in [("eval", EVALS), ("sweep", 2)] {
        let parse = snapshot
            .histogram("serve_parse_ns", &[("type", kind)])
            .expect("parse histogram");
        assert_eq!(parse.count, count, "{kind}");
    }
    // Scheduler-side reconciliation: every *scheduled* point was
    // counted — the first (cold) eval plus two sweeps of the same
    // 6-point grid. The four warm repeat evals were answered inline
    // from the cache and never entered the scheduler; sweeps always
    // travel it, warm or not.
    assert_eq!(
        snapshot.counter("sched_points_total", &[]),
        Some(1 + 2 * grid.len() as u64)
    );
    // Per-job cache traffic folded into the registry: the second sweep
    // and the repeated evals were answered from the cache.
    let hits = snapshot
        .counter("serve_cache_hits_total", &[])
        .expect("hits");
    assert!(hits >= EVALS - 1 + grid.len() as u64, "hits = {hits}");

    let _ = client.shutdown();
    daemon.join().expect("daemon thread");
}

/// Pulls the integer value of `"key":N` out of a hand-rolled trace
/// line (every traced field is a bare integer).
fn trace_field(line: &str, key: &str) -> u64 {
    let tag = format!("\"{key}\":");
    let at = line.find(&tag).unwrap_or_else(|| panic!("{key} in {line}"));
    line[at + tag.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("integer field")
}

/// Evals racing a big sweep on a single worker thread: the trace log
/// reports, for every request, queue-wait and execute as separate
/// fields — and the evals demonstrably waited (their summed queue-wait
/// is nonzero) while the sweep demonstrably executed.
#[test]
fn trace_log_separates_queue_wait_from_execute_for_evals_racing_a_sweep() {
    let dir = std::env::temp_dir().join(format!("chain-nn-obs-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace_path: PathBuf = dir.join("trace.jsonl");
    let (addr, daemon) = start(ServerConfig {
        threads: 1,
        trace_log: Some(trace_path.clone()),
        ..ServerConfig::default()
    });

    let sweep_done = AtomicBool::new(false);
    let evals_sent = std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut sweeper = Client::connect(addr).expect("connect sweeper");
            // One big cold sweep: enough points to keep the single
            // worker busy while the evals arrive.
            let grid = SweepSpec {
                pes: (16..=1024).collect(),
                freqs_mhz: vec![350.0, 700.0],
                nets: vec!["lenet".into()],
                ..SweepSpec::paper_point()
            };
            match sweeper.sweep(grid).expect("sweep round trip") {
                Response::Sweep(_) => {}
                other => panic!("expected a sweep reply, got {other:?}"),
            }
            sweep_done.store(true, Ordering::SeqCst);
        });
        let mut client = Client::connect(addr).expect("connect");
        let mut sent = 0u64;
        // Distinct cold points so each eval is a real job in the
        // rotation, not a cache hit; keep going until the sweep is
        // over so some evals certainly overlapped it.
        while !sweep_done.load(Ordering::SeqCst) || sent < 5 {
            let point = DesignPoint {
                pes: 20 + sent as usize,
                ..DesignPoint::paper_alexnet()
            };
            match client.eval(point).expect("eval round trip") {
                Response::Eval { .. } => sent += 1,
                other => panic!("expected an eval reply, got {other:?}"),
            }
        }
        sent
    });

    // Cross-check against the daemon's histograms before shutdown: the
    // per-type queue-wait and execute families counted every job, and
    // the evals' collective queue wait is real (nonzero nanoseconds).
    let mut client = Client::connect(addr).expect("connect");
    let snapshot = metrics_snapshot(&mut client);
    let eval_labels: &[(&str, &str)] = &[("type", "eval")];
    let queue_wait = snapshot
        .histogram("serve_queue_wait_ns", eval_labels)
        .expect("eval queue-wait histogram");
    let execute = snapshot
        .histogram("serve_execute_ns", eval_labels)
        .expect("eval execute histogram");
    assert_eq!(queue_wait.count, evals_sent);
    assert_eq!(execute.count, evals_sent);
    assert!(queue_wait.sum > 0, "evals never waited: {queue_wait:?}");
    assert!(execute.sum > 0, "evals never executed: {execute:?}");
    let _ = client.shutdown();
    daemon.join().expect("daemon thread");

    // The trace log carries the same separation per request.
    let trace = std::fs::read_to_string(&trace_path).expect("trace file");
    let eval_lines: Vec<&str> = trace
        .lines()
        .filter(|l| l.contains("\"type\":\"eval\""))
        .collect();
    let sweep_lines: Vec<&str> = trace
        .lines()
        .filter(|l| l.contains("\"type\":\"sweep\""))
        .collect();
    assert_eq!(eval_lines.len() as u64, evals_sent, "{trace}");
    assert_eq!(sweep_lines.len(), 1, "{trace}");
    for line in trace.lines() {
        let queue_wait_us = trace_field(line, "queue_wait_us");
        let execute_us = trace_field(line, "execute_us");
        let total_us = trace_field(line, "total_us");
        assert!(
            queue_wait_us + execute_us <= total_us + 1,
            "phases exceed the request total: {line}"
        );
    }
    // The big sweep spent real time executing, and each trace line
    // identifies its request and job count.
    assert!(
        trace_field(sweep_lines[0], "execute_us") > 0,
        "{}",
        sweep_lines[0]
    );
    assert_eq!(trace_field(sweep_lines[0], "jobs"), 1);
    assert_eq!(trace_field(eval_lines[0], "points"), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A client watching the daemon while a ~2000-point sweep runs
/// receives interval samples whose windowed rates and per-type latency
/// quantiles describe the live traffic: the eval pump shows up with a
/// nonzero windowed p99, the request rate is nonzero, and every
/// sample's cumulative request count reconciles with what the clients
/// actually sent.
#[test]
fn watch_stream_reports_live_windowed_rates_during_a_sweep() {
    let (addr, daemon) = start(ServerConfig {
        threads: 1,
        sample_interval: std::time::Duration::from_millis(25),
        ..ServerConfig::default()
    });

    let sweep_done = AtomicBool::new(false);
    let first_eval_done = AtomicBool::new(false);
    let (samples, done, evals_sent) = std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut sweeper = Client::connect(addr).expect("connect sweeper");
            // ~2000 cold points: (16..=1024) PEs × two clock rates on
            // lenet keeps the single worker busy throughout the watch.
            let grid = SweepSpec {
                pes: (16..=1024).collect(),
                freqs_mhz: vec![350.0, 700.0],
                nets: vec!["lenet".into()],
                ..SweepSpec::paper_point()
            };
            match sweeper.sweep(grid).expect("sweep round trip") {
                Response::Sweep(_) => {}
                other => panic!("expected a sweep reply, got {other:?}"),
            }
            sweep_done.store(true, Ordering::SeqCst);
        });
        // Eval pump: distinct cold points so every sampler window has
        // fresh eval completions to derive rates and quantiles from.
        let pump = scope.spawn(|| {
            let mut client = Client::connect(addr).expect("connect pump");
            let mut sent = 0u64;
            while !sweep_done.load(Ordering::SeqCst) || sent < 5 {
                let point = DesignPoint {
                    pes: 20 + (sent as usize % 400),
                    ..DesignPoint::paper_alexnet()
                };
                match client.eval(point).expect("eval round trip") {
                    Response::Eval { .. } => sent += 1,
                    other => panic!("expected an eval reply, got {other:?}"),
                }
                first_eval_done.store(true, Ordering::SeqCst);
            }
            sent
        });
        // Only subscribe once an eval has demonstrably completed, so
        // the watch windows (which reach back up to a second) are
        // guaranteed to catch eval traffic.
        while !first_eval_done.load(Ordering::SeqCst) {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let mut watcher = Client::connect(addr).expect("connect watcher");
        let mut samples = Vec::new();
        let done = watcher
            .watch(4, |sample| samples.push(sample.clone()))
            .expect("watch stream");
        let evals_sent = pump.join().expect("pump thread");
        (samples, done, evals_sent)
    });

    // The stream delivered the asked-for sample count then terminated.
    assert_eq!(samples.len(), 4, "{samples:?}");
    match done {
        Response::WatchDone { samples: n } => assert_eq!(n, 4),
        other => panic!("expected a watch-done line, got {other:?}"),
    }
    // Samples are consecutive sampler ticks; the cumulative request
    // count never goes backwards and every windowed per-type count is
    // bounded by it (a window can only see completed requests).
    for pair in samples.windows(2) {
        assert!(pair[1].seq > pair[0].seq, "{pair:?}");
        assert!(pair[1].requests_total >= pair[0].requests_total, "{pair:?}");
    }
    for sample in &samples {
        assert!((sample.interval_s - 0.025).abs() < 1e-9, "{sample:?}");
        let windowed: u64 = sample.types.iter().map(|t| t.requests).sum();
        assert!(
            windowed <= sample.requests_total,
            "window saw more requests than ever completed: {sample:?}"
        );
    }
    // Reconciliation with the clients' own tally: by the last sample
    // the daemon had received at most every request the three clients
    // sent (evals + one sweep + the watch itself) and at least the
    // watch request that produced the samples.
    let last = samples.last().expect("samples");
    assert!(last.requests_total >= 1, "{last:?}");
    assert!(
        last.requests_total <= evals_sent + 2,
        "daemon counted {} requests, clients sent at most {}",
        last.requests_total,
        evals_sent + 2
    );
    // The live traffic is visible: some sample caught the eval pump
    // with a nonzero windowed rate and a populated eval latency row.
    let busy = samples
        .iter()
        .find(|s| {
            s.req_per_sec > 0.0
                && s.types
                    .iter()
                    .any(|t| t.kind == "eval" && t.requests > 0 && t.p99_us > 0.0)
        })
        .unwrap_or_else(|| panic!("no sample caught the eval traffic: {samples:?}"));
    let eval_row = busy
        .types
        .iter()
        .find(|t| t.kind == "eval")
        .expect("eval row");
    assert!(eval_row.p99_us >= eval_row.p50_us, "{eval_row:?}");
    assert!(busy.points_per_sec > 0.0, "{busy:?}");

    let mut client = Client::connect(addr).expect("connect");
    let _ = client.shutdown();
    daemon.join().expect("daemon thread");
}

/// Queries one trace's spans off a daemon.
fn query_trace(client: &mut Client, id: u64) -> (u64, Vec<SpanRecord>) {
    match client.trace_query(id).expect("trace_query round trip") {
        Response::Trace { dropped, spans, .. } => (dropped, spans),
        other => panic!("expected a trace reply, got {other:?}"),
    }
}

/// The causal-tracing acceptance test: an eval and a 500-point sweep
/// sent under one client-chosen trace id produce a span tree whose
/// durations nest (children inside their root, queue-wait + execute
/// within the total), whose batch spans cover at least two distinct
/// worker threads, and whose Chrome export round-trips through the
/// JSON parser.
#[test]
fn propagated_trace_yields_a_nested_span_tree_across_workers() {
    let (addr, daemon) = start(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");

    // The span ring is process-global and bounded; concurrent tests in
    // this binary record spans too, so under extreme scheduling our
    // spans could be evicted between recording and the query. Retry
    // with a fresh id (and fresh cold points) instead of flaking.
    let mut spans = Vec::new();
    let mut trace_id = 0;
    for attempt in 0..5u64 {
        trace_id = 777_001 + attempt;
        client.set_trace(Some(TraceContext {
            id: trace_id,
            parent: 0,
        }));
        let point = DesignPoint {
            pes: 300 + attempt as usize,
            ..DesignPoint::paper_alexnet()
        };
        match client.eval(point).expect("eval round trip") {
            Response::Eval { .. } => {}
            other => panic!("expected an eval reply, got {other:?}"),
        }
        // 250 PE counts x 2 clock rates = 500 points, shifted per
        // attempt so every sweep is cold (cold batches keep both
        // workers claiming).
        let base = 2000 + 300 * attempt as usize;
        let grid = SweepSpec {
            pes: (base..base + 250).collect(),
            freqs_mhz: vec![350.0, 700.0],
            nets: vec!["lenet".into()],
            ..SweepSpec::paper_point()
        };
        match client.sweep(grid).expect("sweep round trip") {
            Response::Sweep(s) => assert_eq!(s.points, 500),
            other => panic!("expected a sweep reply, got {other:?}"),
        }
        let (_, got) = query_trace(&mut client, trace_id);
        let workers: std::collections::HashSet<u32> = got
            .iter()
            .filter(|s| s.name == "batch")
            .filter_map(|s| s.worker)
            .collect();
        let complete = got.iter().any(|s| s.name == "eval")
            && got.iter().any(|s| s.name == "sweep")
            && workers.len() >= 2;
        if complete {
            spans = got;
            break;
        }
    }

    // Both requests' root spans are present, tagged with this trace.
    let eval_root = spans
        .iter()
        .find(|s| s.name == "eval")
        .expect("eval root span");
    let sweep_root = spans
        .iter()
        .find(|s| s.name == "sweep")
        .expect("sweep root span");
    assert!(spans.iter().all(|s| s.trace_id == trace_id), "{spans:?}");
    assert_eq!(eval_root.parent_id, 0, "client sent no parent");
    assert_eq!(sweep_root.points, 500, "{sweep_root:?}");

    // Durations nest: every child lies inside its root (1 µs slack for
    // integer-microsecond truncation), and the sweep's queue-wait plus
    // execute phases fit within its total.
    for root in [eval_root, sweep_root] {
        let children: Vec<&SpanRecord> = spans
            .iter()
            .filter(|s| s.parent_id == root.span_id)
            .collect();
        assert!(!children.is_empty(), "root {} has no children", root.name);
        for child in &children {
            assert!(child.start_us >= root.start_us, "{child:?} vs {root:?}");
            assert!(
                child.start_us + child.dur_us <= root.start_us + root.dur_us + 1,
                "child escapes its root: {child:?} vs {root:?}"
            );
        }
        for phase in ["parse", "queue_wait", "execute", "flush"] {
            assert!(
                children.iter().any(|c| c.name == phase),
                "root {} is missing phase {phase}: {children:?}",
                root.name
            );
        }
        let dur_of = |name: &str| -> u64 {
            children
                .iter()
                .filter(|c| c.name == name)
                .map(|c| c.dur_us)
                .sum()
        };
        assert!(
            dur_of("queue_wait") + dur_of("execute") <= root.dur_us,
            "phases exceed the root total: {children:?} vs {root:?}"
        );
    }

    // The sweep's batches landed on at least two distinct scheduler
    // worker threads, each batch nested in the sweep and point-tagged.
    let batches: Vec<&SpanRecord> = spans.iter().filter(|s| s.name == "batch").collect();
    let workers: std::collections::HashSet<u32> = batches.iter().filter_map(|s| s.worker).collect();
    assert!(
        workers.len() >= 2,
        "batch spans cover {} worker(s): {batches:?}",
        workers.len()
    );
    assert!(batches.iter().all(|b| b.points > 0), "{batches:?}");
    let batch_points: u64 = batches
        .iter()
        .filter(|b| b.parent_id == sweep_root.span_id)
        .map(|b| u64::from(b.points))
        .sum();
    assert_eq!(batch_points, 500, "every sweep point in some batch");

    // The Chrome export round-trips through the JSON parser and keeps
    // one complete event per span, with worker-thread rows as tids.
    let chrome = chain_nn_repro::obs::trace::chrome_trace_json(&spans);
    let parsed = chain_nn_repro::serve::json::Json::parse(&chrome).expect("valid JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    assert_eq!(events.len(), spans.len());
    for event in events {
        assert_eq!(event.get("ph").and_then(|v| v.as_str()), Some("X"));
        assert!(event.get("name").and_then(|v| v.as_str()).is_some());
        assert!(event.get("ts").and_then(|v| v.as_u64()).is_some());
        assert!(event.get("dur").and_then(|v| v.as_u64()).is_some());
        assert!(event.get("tid").and_then(|v| v.as_u64()).is_some());
    }
    let tids: std::collections::HashSet<u64> = events
        .iter()
        .filter_map(|e| e.get("tid").and_then(|v| v.as_u64()))
        .collect();
    assert!(tids.len() >= 3, "session row + 2 worker rows: {tids:?}");

    let _ = client.shutdown();
    daemon.join().expect("daemon thread");
}

/// Satellite: scrape gauges must be fresh on the `metrics` request path
/// even when the sampler will not tick for an hour.
#[test]
fn metrics_request_refreshes_gauges_without_a_sampler_tick() {
    let (addr, daemon) = start(ServerConfig {
        threads: 2,
        // The sampler sleeps for an hour before its first tick: any
        // fresh gauge value must come from the request path.
        sample_interval: std::time::Duration::from_secs(3600),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    match client
        .eval(DesignPoint::paper_alexnet())
        .expect("eval round trip")
    {
        Response::Eval { .. } => {}
        other => panic!("expected an eval reply, got {other:?}"),
    }
    let snapshot = metrics_snapshot(&mut client);
    assert_eq!(
        snapshot.gauge("cache_points", &[]),
        Some(1.0),
        "the eval's cached point must be visible to an immediate scrape"
    );
    let uptime = snapshot.gauge("serve_uptime_seconds", &[]).expect("uptime");
    assert!(uptime > 0.0 && uptime < 3600.0, "uptime = {uptime}");
    assert_eq!(snapshot.gauge("serve_queue_depth", &[]), Some(0.0));
    assert!(
        snapshot
            .gauge("serve_open_connections", &[])
            .expect("gauge")
            >= 1.0,
        "this client's connection is open"
    );
    let _ = client.shutdown();
    daemon.join().expect("daemon thread");
}

/// Satellite: a watcher disconnecting mid-stream must not leak its
/// session (the connection count settles back) and must not disturb
/// the sampler — a second watcher still receives fresh samples.
#[test]
fn watch_client_disconnect_mid_stream_does_not_leak_or_stop_the_sampler() {
    let (addr, daemon) = start(ServerConfig {
        threads: 1,
        sample_interval: std::time::Duration::from_millis(20),
        ..ServerConfig::default()
    });

    // Watcher 1 subscribes to an unbounded stream, reads one sample,
    // then drops the socket mid-stream.
    {
        let mut watcher = Client::connect(addr).expect("connect watcher 1");
        let first = watcher
            .request_raw(r#"{"type":"watch","samples":0}"#)
            .expect("first sample line");
        assert!(
            first.contains("\"type\":\"watch\"") && first.contains("\"seq\""),
            "{first}"
        );
    } // <- disconnect here, stream still open

    // Watcher 2 still gets a full bounded stream: the sampler kept
    // ticking and the daemon kept serving.
    let mut watcher2 = Client::connect(addr).expect("connect watcher 2");
    let mut seqs = Vec::new();
    let done = watcher2
        .watch(3, |sample| seqs.push(sample.seq))
        .expect("watch stream after a disconnect");
    assert!(matches!(done, Response::WatchDone { samples: 3 }));
    assert_eq!(seqs.len(), 3);
    assert!(seqs.windows(2).all(|w| w[1] > w[0]), "{seqs:?}");

    // The dropped watcher's session went away: the daemon's connection
    // count settles to just this client (poll briefly — the session
    // thread notices the dead sink on its next write attempt).
    let mut client = Client::connect(addr).expect("connect prober");
    let mut open = usize::MAX;
    for _ in 0..200 {
        let stats = match client.stats().expect("stats round trip") {
            Response::Stats(stats) => stats,
            other => panic!("expected a stats reply, got {other:?}"),
        };
        open = stats.open_connections;
        // watcher2's socket may still be in teardown; ours must count.
        if open <= 2 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert!(
        open <= 2,
        "dropped watcher still counted among {open} open connections"
    );
    let _ = client.shutdown();
    daemon.join().expect("daemon thread");
}

/// The flight recorder: a `dump` request writes recent spans plus a
/// metrics snapshot to `<trace-log>.flight.json`, and a panic anywhere
/// in the process rewrites it via the installed hook.
#[test]
fn dump_request_and_panic_hook_write_the_flight_file() {
    let dir = std::env::temp_dir().join(format!("chain-nn-flight-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace_path: PathBuf = dir.join("trace.jsonl");
    let (addr, daemon) = start(ServerConfig {
        threads: 2,
        trace_log: Some(trace_path.clone()),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    match client
        .eval(DesignPoint::paper_alexnet())
        .expect("eval round trip")
    {
        Response::Eval { .. } => {}
        other => panic!("expected an eval reply, got {other:?}"),
    }

    let flight_path = match client.dump().expect("dump round trip") {
        Response::Dump {
            path,
            spans,
            dropped: _,
        } => {
            assert!(path.ends_with(".flight.json"), "{path}");
            assert!(spans > 0, "the eval's spans are in the ring");
            PathBuf::from(path)
        }
        other => panic!("expected a dump reply, got {other:?}"),
    };
    let validate = |label: &str| {
        let text = std::fs::read_to_string(&flight_path)
            .unwrap_or_else(|e| panic!("{label}: read flight file: {e}"));
        let parsed = chain_nn_repro::serve::json::Json::parse(&text)
            .unwrap_or_else(|e| panic!("{label}: flight file must be valid JSON: {e:?}"));
        let spans = parsed
            .get("spans")
            .and_then(|s| s.as_array())
            .unwrap_or_else(|| panic!("{label}: spans array"));
        assert!(!spans.is_empty(), "{label}: no spans in flight file");
        for span in spans {
            assert!(span.get("trace").and_then(|v| v.as_u64()).is_some());
            assert!(span.get("name").and_then(|v| v.as_str()).is_some());
        }
        let metrics = parsed
            .get("metrics")
            .and_then(|m| m.as_array())
            .unwrap_or_else(|| panic!("{label}: metrics array"));
        assert!(!metrics.is_empty(), "{label}: no metrics in flight file");
        assert!(parsed.get("dropped").and_then(|v| v.as_u64()).is_some());
    };
    validate("dump request");

    // The panic hook: binding with --trace-log armed it for this
    // process, so any panic — here a caught one on the test thread —
    // rewrites the flight file on the way down.
    std::fs::remove_file(&flight_path).expect("clear the dump");
    let unwound = std::panic::catch_unwind(|| panic!("flight recorder drill"));
    assert!(unwound.is_err(), "the drill must actually panic");
    validate("panic hook");

    let _ = client.shutdown();
    daemon.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A coordinator explains itself like a daemon: its `metrics` count the
/// requests it served by type beside its shard ledger, `metrics_history`
/// and `watch` read its own sampler, `trace_query` returns its request
/// spans, and `dump` answers as a daemon started without `--trace-log`.
#[test]
fn coordinator_reports_its_own_metrics_history_watch_and_traces() {
    let mut addrs = Vec::new();
    let mut shards = Vec::new();
    for _ in 0..2 {
        let (addr, shard) = start(ServerConfig {
            threads: 1,
            ..ServerConfig::default()
        });
        addrs.push(addr.to_string());
        shards.push(shard);
    }
    let coordinator = Coordinator::bind(ClusterConfig {
        shards: addrs.clone(),
        ..ClusterConfig::default()
    })
    .expect("bind coordinator");
    let addr = coordinator.local_addr().expect("addr");
    let front = std::thread::spawn(move || coordinator.run().expect("coordinator runs"));
    let mut client = Client::connect(addr).expect("connect");

    const EVALS: u64 = 3;
    for i in 0..EVALS {
        let point = DesignPoint {
            pes: 600 + i as usize,
            ..DesignPoint::paper_alexnet()
        };
        match client.eval(point).expect("eval round trip") {
            Response::Eval { .. } => {}
            other => panic!("expected an eval reply, got {other:?}"),
        }
    }
    for _ in 0..2 {
        match client.sweep(lenet_grid(vec![25, 50, 100])).expect("sweep") {
            Response::Sweep(s) => assert_eq!(s.points, 6),
            other => panic!("expected a sweep reply, got {other:?}"),
        }
    }

    let snapshot = metrics_snapshot(&mut client);
    for (kind, count) in [("eval", EVALS), ("sweep", 2)] {
        let labels: &[(&str, &str)] = &[("type", kind)];
        assert_eq!(
            snapshot.counter("serve_requests_total", labels),
            Some(count),
            "{kind}"
        );
        let latency = snapshot
            .histogram("serve_request_ns", labels)
            .unwrap_or_else(|| panic!("{kind} latency histogram"));
        assert_eq!(latency.count, count, "{kind}");
    }
    for shard in &addrs {
        let sent = snapshot.counter("cluster_shard_requests_total", &[("shard", shard)]);
        assert!(sent.is_some_and(|n| n > 0), "{shard}: {sent:?}");
    }

    match client
        .metrics_history()
        .expect("metrics_history round trip")
    {
        Response::MetricsHistory(history) => {
            let windows: Vec<f64> = history.windows.iter().map(|w| w.window_s).collect();
            assert_eq!(windows, [1.0, 10.0, 60.0]);
        }
        other => panic!("expected a history reply, got {other:?}"),
    }

    let mut seqs = Vec::new();
    let done = client
        .watch(2, |sample| seqs.push(sample.seq))
        .expect("watch stream");
    assert_eq!(seqs.len(), 2, "{seqs:?}");
    assert!(seqs[1] > seqs[0], "{seqs:?}");
    match done {
        Response::WatchDone { samples } => assert_eq!(samples, 2),
        other => panic!("expected a watch-done line, got {other:?}"),
    }

    // The span ring is process-global and bounded, and other tests in
    // this binary record into it: retry with a fresh id rather than
    // flake if ours was evicted before the query.
    let traced = (0..5u64).any(|attempt| {
        let trace_id = 779_001 + attempt;
        client.set_trace(Some(TraceContext {
            id: trace_id,
            parent: 0,
        }));
        assert!(matches!(client.stats(), Ok(Response::Stats(_))));
        client.set_trace(None);
        let (_, spans) = query_trace(&mut client, trace_id);
        spans
            .iter()
            .find(|s| s.name == "stats" && s.parent_id == 0)
            .is_some_and(|root| {
                spans
                    .iter()
                    .any(|s| s.name == "parse" && s.parent_id == root.span_id)
            })
    });
    assert!(traced, "no stats root span with a parse child");

    match client.dump().expect("dump round trip") {
        Response::Error { message } => assert_eq!(
            message,
            "flight recorder disabled: start the daemon with --trace-log"
        ),
        other => panic!("expected the flight-recorder error, got {other:?}"),
    }

    client.shutdown().expect("shutdown");
    front.join().expect("coordinator thread");
    for shard in shards {
        shard.join().expect("shard thread");
    }
}
