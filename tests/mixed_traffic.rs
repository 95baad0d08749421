//! Mixed-traffic acceptance tests for the work-assisting engine: the
//! latency contract (one-point evals racing a ~16,000-point sweep see
//! their p99 queue-wait drop under adaptive claims versus the
//! fixed-batch baseline), the exactly-once contract (no point is lost
//! or claimed twice under racing clients or 16-way job contention),
//! the work-assisting contract (batch spans prove at least two
//! workers claimed from the same job), determinism at any thread
//! count, and the points-not-jobs `queue_depth` semantics over the
//! wire. These are the acceptance criteria of the engine PR.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use chain_nn_repro::dse::engine::{ClaimPolicy, Engine, DEFAULT_MAX_CLAIM};
use chain_nn_repro::dse::{executor, DesignPoint, PointCache, SweepSpec};
use chain_nn_repro::obs::trace::TraceContext;
use chain_nn_repro::obs::Registry;
use chain_nn_repro::serve::protocol::Response;
use chain_nn_repro::serve::{Client, Server, ServerConfig, ServerReport};
use chain_nn_repro::tuner::{tune, Budget, CacheEvaluator, TuneRequest};

/// Binds an ephemeral-port daemon and returns `(addr, join-handle)`.
fn start(config: ServerConfig) -> (std::net::SocketAddr, std::thread::JoinHandle<ServerReport>) {
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = std::thread::spawn(move || server.run().expect("daemon runs"));
    (addr, handle)
}

/// A cold lenet grid: `pes` PE counts × two clock rates.
fn lenet_grid(pes: Vec<usize>) -> SweepSpec {
    SweepSpec {
        pes,
        freqs_mhz: vec![350.0, 700.0],
        nets: vec!["lenet".into()],
        ..SweepSpec::paper_point()
    }
}

fn expect_eval(client: &mut Client, point: DesignPoint) {
    match client.eval(point).expect("eval round trip") {
        Response::Eval { .. } => {}
        other => panic!("expected an eval reply, got {other:?}"),
    }
}

fn sweep_points(client: &mut Client, spec: &SweepSpec) -> (usize, u64, u64) {
    match client.sweep(spec.clone()).expect("sweep round trip") {
        Response::Sweep(s) => (s.points, s.cache_hits, s.cache_misses),
        other => panic!("expected a sweep reply, got {other:?}"),
    }
}

fn stats(client: &mut Client) -> chain_nn_repro::serve::protocol::ServerStats {
    match client.stats().expect("stats round trip") {
        Response::Stats(stats) => stats,
        other => panic!("expected a stats reply, got {other:?}"),
    }
}

fn metrics_snapshot(client: &mut Client) -> chain_nn_repro::obs::Snapshot {
    match client.metrics().expect("metrics round trip") {
        Response::Metrics { snapshot } => snapshot,
        other => panic!("expected a metrics reply, got {other:?}"),
    }
}

/// Eval clients pumping at once. With two, one's eval is nearly always
/// queued while the other's reply travels, so a worker ending a claim
/// meets a waiting eval, which is the case the claim policies differ in.
const PUMPS: usize = 2;

/// Runs one measurement round for the tail-latency criterion: boots a
/// 2-worker daemon under the given claim policy, launches a
/// ~16,000-point cold sweep, and has [`PUMPS`] clients pump one-point
/// evals at it for the sweep's whole duration. Returns the daemon's own
/// `serve_queue_wait_ns{type=eval}` p99 (nanoseconds) and the pumps'
/// eval count.
///
/// Each pump point is fresh (cache-cold), so the eval must travel the
/// scheduler — cache hits are answered inline and never queue at all.
/// An alexnet point evaluates in microseconds; what the adaptive
/// policy must shrink is its queue wait — the time from submission
/// until a worker reaches a claim boundary and picks the eval up. The
/// daemon's queue-wait histogram measures exactly that window, immune
/// to the client-side scheduling noise a loaded test machine adds to
/// round-trip times.
fn eval_queue_wait_p99_under_sweep(claim: ClaimPolicy) -> (f64, usize) {
    let (addr, daemon) = start(ServerConfig {
        threads: 2,
        claim,
        ..ServerConfig::default()
    });
    // Disjoint from the sweep grid (different net), fresh every
    // iteration so none is a cache hit.
    let pump_point = |pump: usize, i: usize| DesignPoint {
        pes: 40 + PUMPS * i + pump,
        ..DesignPoint::paper_alexnet()
    };

    // The pumps overlap the sweep's whole engine job by construction:
    // the sweep is sent only once every pump has an eval answered, and
    // each pump stops only once the sweep's reply is back.
    let (started_tx, pump_started) = std::sync::mpsc::channel();
    let sweep_done = &AtomicBool::new(false);
    let pumped = std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut sweeper = Client::connect(addr).expect("connect sweeper");
            // vgg16, the costliest zoo net, at 16 clocks: hundreds of
            // evals per round even in optimized builds, so a stalled
            // eval or two does not decide the p99.
            let grid = SweepSpec {
                pes: (16..=1024).collect(),
                freqs_mhz: (0..16).map(|i| 350.0 + 20.0 * f64::from(i)).collect(),
                nets: vec!["vgg16".into()],
                ..SweepSpec::paper_point()
            };
            for _ in 0..PUMPS {
                pump_started.recv().expect("every pump starts");
            }
            let (points, _, _) = sweep_points(&mut sweeper, &grid);
            assert_eq!(points, 16_144);
            sweep_done.store(true, Ordering::SeqCst);
        });
        let pumps: Vec<_> = (0..PUMPS)
            .map(|pump| {
                let started_tx = started_tx.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect pump");
                    let mut pumped = 0usize;
                    loop {
                        expect_eval(&mut client, pump_point(pump, pumped));
                        pumped += 1;
                        if pumped == 1 {
                            started_tx.send(()).expect("the sweeper waits");
                        }
                        if sweep_done.load(Ordering::SeqCst) {
                            break pumped;
                        }
                    }
                })
            })
            .collect();
        pumps
            .into_iter()
            .map(|pump| pump.join().expect("pump thread"))
            .sum()
    });
    let mut client = Client::connect(addr).expect("connect");
    let snapshot = metrics_snapshot(&mut client);
    let _ = client.shutdown();
    daemon.join().expect("daemon thread");

    let wait = snapshot
        .histogram("serve_queue_wait_ns", &[("type", "eval")])
        .expect("eval queue-wait histogram");
    (wait.p99, pumped)
}

/// The headline latency criterion: with interactive evals racing a
/// ~16,000-point sweep, adaptive claims cut the evals' p99 wait to less
/// than half of the fixed-batch baseline's. Under `Fixed(32)` an eval
/// waits for a worker to drain a whole 32-point claim; under the
/// adaptive policy the sweep's claims shrink to
/// [`CONTENDED_CLAIM`](chain_nn_repro::dse::engine::CONTENDED_CLAIM)-sized
/// ranges while the pump runs. Timing-sensitive, so three attempts
/// before declaring failure.
#[test]
fn adaptive_claims_cut_eval_p99_versus_fixed_batches_during_a_sweep() {
    // The process's first round pays one-time costs, such as measuring
    // each net's SQNR (milliseconds, with both workers waiting), that
    // would land in whichever policy ran first. A discarded round pays
    // them.
    eval_queue_wait_p99_under_sweep(ClaimPolicy::adaptive());
    let mut last = String::new();
    for _ in 0..3 {
        let (fixed_p99, fixed_n) =
            eval_queue_wait_p99_under_sweep(ClaimPolicy::Fixed(DEFAULT_MAX_CLAIM));
        let (adaptive_p99, adaptive_n) = eval_queue_wait_p99_under_sweep(ClaimPolicy::Adaptive {
            max: DEFAULT_MAX_CLAIM,
        });
        last = format!(
            "fixed queue-wait p99 {:.0} us over {fixed_n} evals, \
             adaptive {:.0} us over {adaptive_n} evals",
            fixed_p99 / 1e3,
            adaptive_p99 / 1e3,
        );
        eprintln!("{last}");
        // Enough samples for a meaningful p99 on both sides, and at
        // least a 2x improvement (the policy predicts ~8x: waits of
        // ~CONTENDED_CLAIM points instead of ~DEFAULT_MAX_CLAIM points).
        if fixed_n >= 50 && adaptive_n >= 50 && adaptive_p99 * 2.0 <= fixed_p99 {
            return;
        }
    }
    panic!("adaptive claims did not improve eval tail latency: {last}");
}

/// The exactly-once criterion over real TCP: four eval clients with
/// disjoint cold point sets race a 300-point cold sweep. Every reply
/// arrives, and afterwards the daemon's counters reconcile exactly —
/// each of the 500 submitted points was claimed and evaluated once
/// (400 distinct misses, 100 second-pass hits, nothing lost and
/// nothing double-evaluated).
#[test]
fn racing_clients_see_every_point_evaluated_exactly_once() {
    let (addr, daemon) = start(ServerConfig {
        threads: 4,
        ..ServerConfig::default()
    });
    let sweep = lenet_grid((2000..2150).collect()); // 300 cold points

    let (sweep_hits, sweep_misses) = std::thread::scope(|scope| {
        let sweeper = scope.spawn(|| {
            let mut client = Client::connect(addr).expect("connect sweeper");
            let (points, hits, misses) = sweep_points(&mut client, &sweep);
            assert_eq!(points, 300);
            assert_eq!(hits + misses, 300, "a sweep point went missing");
            (hits, misses)
        });
        for c in 0..4usize {
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect evaler");
                let points: Vec<DesignPoint> = (0..25)
                    .map(|i| DesignPoint {
                        pes: 5000 + c * 100 + i,
                        ..DesignPoint::paper_alexnet()
                    })
                    .collect();
                // Two passes: the first is all cold (disjoint sets, so
                // the miss count is exact, not racy), the second all
                // warm — answered inline from the cache.
                for _ in 0..2 {
                    for point in &points {
                        expect_eval(&mut client, point.clone());
                    }
                }
            });
        }
        sweeper.join().expect("sweeper thread")
    });
    // The sweep's own points are disjoint from every eval set and
    // evaluated exactly once each.
    assert_eq!(sweep_misses, 300);
    assert_eq!(sweep_hits, 0);

    let mut client = Client::connect(addr).expect("connect");
    let snapshot = metrics_snapshot(&mut client);
    // 300 sweep points + 4 clients x 25 cold points, once each.
    assert_eq!(
        snapshot.counter("serve_cache_misses_total", &[]),
        Some(400),
        "a point was lost or evaluated twice"
    );
    // The 100 second-pass evals all hit.
    assert_eq!(snapshot.counter("serve_cache_hits_total", &[]), Some(100));
    // Every *cold* point passed through the engine exactly once; the
    // 100 warm evals were answered inline from the cache and never
    // re-entered the engine.
    assert_eq!(snapshot.counter("sched_points_total", &[]), Some(400));
    // The cache holds each distinct point once.
    assert_eq!(stats(&mut client).cached_points, 400);

    let _ = client.shutdown();
    daemon.join().expect("daemon thread");
}

/// Queries one trace's spans off the daemon.
fn query_trace(client: &mut Client, id: u64) -> Vec<chain_nn_repro::obs::trace::SpanRecord> {
    match client.trace_query(id).expect("trace_query round trip") {
        Response::Trace { spans, .. } => spans,
        other => panic!("expected a trace reply, got {other:?}"),
    }
}

/// The work-assisting criterion: one cold 800-point sweep on a
/// 4-worker daemon produces batch spans — children of the sweep's
/// root span — on at least two distinct workers, and those batches
/// cover every sweep point exactly once. The span ring is
/// process-global and bounded, so retry with fresh cold points and a
/// fresh trace id rather than flaking on eviction.
#[test]
fn batch_spans_show_multiple_workers_assisting_one_sweep_job() {
    let (addr, daemon) = start(ServerConfig {
        threads: 4,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");

    let mut outcome = None;
    for attempt in 0..5u64 {
        let trace_id = 913_001 + attempt;
        client.set_trace(Some(TraceContext {
            id: trace_id,
            parent: 0,
        }));
        let base = 12_000 + 400 * attempt as usize;
        let (points, _, _) = sweep_points(&mut client, &lenet_grid((base..base + 400).collect()));
        assert_eq!(points, 800);
        let spans = query_trace(&mut client, trace_id);
        let Some(root) = spans.iter().find(|s| s.name == "sweep") else {
            continue; // evicted from the ring; retry
        };
        let batches: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "batch" && s.parent_id == root.span_id)
            .collect();
        let workers: HashSet<u32> = batches.iter().filter_map(|s| s.worker).collect();
        let batch_points: u64 = batches.iter().map(|b| u64::from(b.points)).sum();
        outcome = Some((workers.len(), batch_points));
        if workers.len() >= 2 && batch_points == 800 {
            break;
        }
        outcome = None;
    }
    let (workers, batch_points) =
        outcome.expect("no attempt kept its spans in the ring with two workers assisting");
    assert!(workers >= 2, "only {workers} worker(s) assisted the sweep");
    assert_eq!(batch_points, 800, "claims lost or duplicated points");

    let _ = client.shutdown();
    daemon.join().expect("daemon thread");
}

/// The determinism criterion: the same work yields byte-identical
/// results at 1, 2, 4 and 16 threads for all three engine call sites —
/// the one-shot sweep executor, a served scheduler job under adaptive
/// claims, and a full tuner run (whole-report equality, including its
/// hit/miss tallies). Claims race, results must not.
#[test]
fn sweep_serve_and_tune_results_are_identical_at_1_2_4_and_16_threads() {
    let points = lenet_grid((300..380).collect()).points(); // 160 points
    let reference = {
        let cache = PointCache::new();
        executor::run(&points, 1, &cache).expect("reference sweep")
    };

    for threads in [2usize, 4, 16] {
        let cache = PointCache::new();
        let outcomes = executor::run(&points, threads, &cache).expect("sweep runs");
        assert_eq!(
            outcomes, reference,
            "executor diverged at {threads} threads"
        );
    }

    for workers in [1u32, 2, 4, 16] {
        let cache = PointCache::new();
        let registry = Registry::new();
        let scheduler = Engine::new(
            4,
            ClaimPolicy::Adaptive {
                max: DEFAULT_MAX_CLAIM,
            },
            &registry,
            "sched",
            "batch",
        );
        let outcomes = std::thread::scope(|scope| {
            let (scheduler, cache) = (&scheduler, &cache);
            for w in 0..workers {
                scope.spawn(move || scheduler.worker_loop(w, cache));
            }
            let result = scheduler
                .submit(points.clone(), None, None)
                .expect("admitted")
                .wait()
                .expect("job completes");
            scheduler.begin_shutdown();
            result.outcomes
        });
        assert_eq!(
            outcomes, reference,
            "scheduler diverged at {workers} workers"
        );
    }

    let request = TuneRequest {
        budget: Budget {
            max_system_mw: Some(500.0),
            ..Budget::default()
        },
        ..TuneRequest::default()
    };
    let reference_report = {
        let cache = PointCache::new();
        tune(&request, &mut CacheEvaluator::new(&cache, 1)).expect("reference tune")
    };
    for threads in [2usize, 4, 16] {
        let cache = PointCache::new();
        let report = tune(&request, &mut CacheEvaluator::new(&cache, threads)).expect("tune runs");
        assert_eq!(
            report, reference_report,
            "tuner diverged at {threads} threads"
        );
    }
}

/// The contention stress criterion: 16 concurrent jobs with
/// one-point claims on 8 workers — the maximally racy configuration,
/// every claim contends for the rotation. Every job's outcomes match
/// a single-threaded reference for its own points, and the engine's
/// progress counters reconcile exactly with `sched_points_total`.
#[test]
fn tiny_claims_under_16_job_contention_reconcile_with_counters() {
    const JOBS: usize = 16;
    const POINTS: usize = 13;
    let cache = PointCache::new();
    let registry = Registry::new();
    let scheduler = Engine::new(JOBS, ClaimPolicy::Fixed(1), &registry, "sched", "batch");
    let jobs: Vec<Vec<DesignPoint>> = (0..JOBS)
        .map(|j| {
            (0..POINTS)
                .map(|i| DesignPoint {
                    pes: 100 + j * POINTS + i,
                    ..DesignPoint::paper_alexnet()
                })
                .collect()
        })
        .collect();
    let total = (JOBS * POINTS) as u64; // 208

    let results = std::thread::scope(|scope| {
        let (scheduler, cache) = (&scheduler, &cache);
        let handles: Vec<_> = jobs
            .iter()
            .map(|points| {
                scheduler
                    .submit(points.clone(), None, None)
                    .expect("admitted")
            })
            .collect();
        for w in 0..8u32 {
            scope.spawn(move || scheduler.worker_loop(w, cache));
        }
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.wait().expect("job completes"))
            .collect();
        scheduler.begin_shutdown();
        results
    });

    let mut delivered = 0u64;
    for (j, result) in results.iter().enumerate() {
        // Exactly this job's points, in submission order, with the
        // same outcomes a lone thread computes — nothing lost to a
        // racing claim, nothing claimed twice, nothing cross-wired
        // between jobs.
        let reference = executor::run(&jobs[j], 1, &PointCache::new()).expect("reference");
        assert_eq!(result.outcomes, reference, "job {j} diverged");
        delivered += result.outcomes.len() as u64;
    }
    assert_eq!(delivered, total);
    assert_eq!(scheduler.queue_depth(), 0);
    let snapshot = registry.snapshot();
    assert_eq!(snapshot.counter("sched_points_total", &[]), Some(total));
    // One-point claims really happened: one batch per point.
    assert_eq!(snapshot.counter("sched_batches_total", &[]), Some(total));
    // All 208 points were distinct and cold: one miss each, ever.
    assert_eq!(cache.stats().misses, total);
}

/// The `stats` depth-semantics regression: `queue_depth` over the wire
/// counts remaining *points*, not whole jobs. A single admitted sweep
/// must report a depth far above 1 while cold, report partial depth as
/// it drains (a nearly-done job must not claim its full backlog), and
/// report zero once idle again.
#[test]
fn stats_queue_depth_counts_remaining_points_not_jobs() {
    let (addr, daemon) = start(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });

    let sweep_done = AtomicBool::new(false);
    let (depths, mut prober) = std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut sweeper = Client::connect(addr).expect("connect sweeper");
            // vgg16: slow enough to probe mid-drain even when built
            // with optimizations.
            let grid = SweepSpec {
                pes: (16..=1024).collect(),
                freqs_mhz: vec![350.0, 700.0],
                nets: vec!["vgg16".into()],
                ..SweepSpec::paper_point()
            };
            let (points, _, _) = sweep_points(&mut sweeper, &grid);
            assert_eq!(points, 2018);
            sweep_done.store(true, Ordering::SeqCst);
        });
        let mut prober = Client::connect(addr).expect("connect prober");
        let mut depths = Vec::new();
        while !sweep_done.load(Ordering::SeqCst) {
            depths.push(stats(&mut prober).queue_depth);
            std::thread::sleep(Duration::from_millis(1));
        }
        (depths, prober)
    });

    let peak = depths.iter().copied().max().unwrap_or(0);
    assert!(
        peak > 1,
        "one admitted job reported depth {peak}: still counting jobs, not points"
    );
    assert!(
        depths.iter().any(|&d| d > 0 && d < 1009),
        "depth never fell below half while draining: a nearly-done job \
         reports its full backlog (peak {peak}, {} samples)",
        depths.len()
    );
    // Idle again: no admitted job, no remaining points.
    assert_eq!(stats(&mut prober).queue_depth, 0);

    let _ = prober.shutdown();
    daemon.join().expect("daemon thread");
}
