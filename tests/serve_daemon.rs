//! End-to-end tests of the explorer serving daemon over real loopback
//! TCP: concurrent clients sharing one cache, persistence across
//! daemon restarts, and protocol robustness. These are the acceptance
//! criteria of the serving-subsystem PR.

use std::path::{Path, PathBuf};

use chain_nn_repro::dse::{CacheFile, DesignPoint, LoadReport, PointCache, SweepSpec};
use chain_nn_repro::serve::cluster::{ClusterConfig, Coordinator};
use chain_nn_repro::serve::protocol::Response;
use chain_nn_repro::serve::{Client, Server, ServerConfig, ServerReport};

fn lenet_grid(pes: Vec<usize>) -> SweepSpec {
    SweepSpec {
        pes,
        freqs_mhz: vec![350.0, 700.0],
        nets: vec!["lenet".into()],
        ..SweepSpec::paper_point()
    }
}

/// Binds an ephemeral-port daemon and returns `(addr, join-handle)`.
fn start(config: ServerConfig) -> (std::net::SocketAddr, std::thread::JoinHandle<ServerReport>) {
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = std::thread::spawn(move || server.run().expect("daemon runs"));
    (addr, handle)
}

/// The two fronts a client reaches the library through: a daemon, or a
/// coordinator over one shard daemon. The session guards hold at both.
#[derive(Debug, Clone, Copy)]
enum Front {
    Daemon,
    Coordinator,
}

const FRONTS: [Front; 2] = [Front::Daemon, Front::Coordinator];

/// Starts `front`. `config` sets up the daemon; behind a coordinator it
/// sets up the shard, except the connection bound, which the coordinator
/// takes. The handle joins everything started once a `shutdown` reached
/// the front.
fn start_front(
    front: Front,
    config: ServerConfig,
) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    match front {
        Front::Daemon => {
            let (addr, daemon) = start(config);
            let handle = std::thread::spawn(move || {
                daemon.join().expect("daemon");
            });
            (addr, handle)
        }
        Front::Coordinator => {
            let max_connections = config.max_connections;
            let (shard, daemon) = start(ServerConfig {
                max_connections: ServerConfig::default().max_connections,
                ..config
            });
            let coordinator = Coordinator::bind(ClusterConfig {
                shards: vec![shard.to_string()],
                max_connections,
                ..ClusterConfig::default()
            })
            .expect("bind coordinator");
            let addr = coordinator.local_addr().expect("addr");
            let handle = std::thread::spawn(move || {
                coordinator.run().expect("coordinator runs");
                daemon.join().expect("shard");
            });
            (addr, handle)
        }
    }
}

fn sweep_summary(
    client: &mut Client,
    spec: &SweepSpec,
) -> chain_nn_repro::serve::protocol::SweepSummary {
    match client.sweep(spec.clone()).expect("sweep round trip") {
        Response::Sweep(summary) => summary,
        other => panic!("expected sweep summary, got {other:?}"),
    }
}

/// Two clients sweeping overlapping grids against one daemon: every
/// distinct point is evaluated once for the pair, so combined misses
/// are strictly below the sum of standalone runs (which would be 12).
#[test]
fn concurrent_clients_sweeping_overlapping_grids_share_one_cache() {
    let (addr, daemon) = start(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    });
    let grid_a = lenet_grid(vec![25, 50, 100]); // 6 points
    let grid_b = lenet_grid(vec![50, 100, 200]); // 6 points, 4 shared
    let standalone_sum = (grid_a.len() + grid_b.len()) as u64;
    let distinct = 8u64;

    let (sum_a, sum_b) = std::thread::scope(|scope| {
        let ha = scope.spawn(|| {
            let mut c = Client::connect(addr).expect("connect a");
            sweep_summary(&mut c, &grid_a)
        });
        let hb = scope.spawn(|| {
            let mut c = Client::connect(addr).expect("connect b");
            sweep_summary(&mut c, &grid_b)
        });
        (ha.join().expect("client a"), hb.join().expect("client b"))
    });

    let combined_misses = sum_a.cache_misses + sum_b.cache_misses;
    assert!(
        combined_misses < standalone_sum,
        "clients did not share the cache: {combined_misses} misses"
    );
    // The overlap may race (both miss a shared point before either
    // inserts), so distinct points is a lower bound, not an equality.
    assert!(combined_misses >= distinct);
    assert_eq!(
        sum_a.cache_hits + sum_a.cache_misses + sum_b.cache_hits + sum_b.cache_misses,
        standalone_sum
    );

    // The daemon's frontier now spans BOTH clients' grids.
    let mut c = Client::connect(addr).expect("connect");
    match c.frontier(3).expect("frontier") {
        Response::Frontier { entries, .. } => {
            assert!(!entries.is_empty());
            for e in &entries {
                assert_eq!(e.point.net, "lenet");
            }
        }
        other => panic!("expected frontier, got {other:?}"),
    }
    c.shutdown().expect("shutdown");
    let report = daemon.join().expect("daemon");
    assert_eq!(report.cached_points as u64, distinct);
}

/// The headline persistence property: a daemon restarted on the same
/// `--cache-file` re-serves a prior sweep with *zero* evaluations.
#[test]
fn daemon_restart_reserves_prior_sweep_from_disk() {
    let cache_path = {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "chain_nn_serve_restart_{}.cache",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    };
    let config = |path: &PathBuf| ServerConfig {
        threads: 2,
        cache_file: Some(path.clone()),
        ..ServerConfig::default()
    };
    let spec = lenet_grid(vec![25, 50, 100, 200]);

    // First daemon lifetime: everything is a miss, then persisted.
    let (addr, daemon) = start(config(&cache_path));
    let mut client = Client::connect(addr).expect("connect");
    let first = sweep_summary(&mut client, &spec);
    assert_eq!(first.cache_misses, spec.len() as u64);
    client.shutdown().expect("shutdown");
    let report = daemon.join().expect("daemon");
    assert_eq!(report.persisted, spec.len());

    // Second lifetime: the same sweep costs nothing.
    let (addr, daemon) = start(config(&cache_path));
    let mut client = Client::connect(addr).expect("reconnect");
    let again = sweep_summary(&mut client, &spec);
    assert_eq!(again.cache_misses, 0, "restart must re-serve from disk");
    assert_eq!(again.cache_hits, spec.len() as u64);
    assert_eq!(again.frontier_3d, first.frontier_3d);
    // Stats agree: everything came off disk, nothing new persisted.
    match client.stats().expect("stats") {
        Response::Stats(stats) => {
            assert_eq!(stats.loaded_from_disk, spec.len());
            assert!(stats.persistent);
            assert_eq!(stats.misses, 0);
        }
        other => panic!("expected stats, got {other:?}"),
    }
    client.shutdown().expect("shutdown");
    let report = daemon.join().expect("daemon");
    assert_eq!(report.loaded_from_disk, spec.len());
    assert_eq!(report.persisted, 0);
    std::fs::remove_file(&cache_path).ok();
}

/// The accuracy axis survives the snapshot: a daemon restarted on the
/// same cache file re-serves a point's measured SQNR bit-exactly from
/// the extended (v2) persist format, without re-evaluating anything.
#[test]
fn daemon_restart_reserves_sqnr_from_the_persist_format() {
    let cache_path = {
        let mut p = std::env::temp_dir();
        p.push(format!("chain_nn_serve_sqnr_{}.cache", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    };
    let config = |path: &PathBuf| ServerConfig {
        threads: 2,
        cache_file: Some(path.clone()),
        ..ServerConfig::default()
    };
    let point = chain_nn_repro::dse::DesignPoint {
        net: "lenet".into(),
        pes: 50,
        ..chain_nn_repro::dse::DesignPoint::paper_alexnet()
    };

    // First lifetime: evaluate once, note the served SQNR.
    let (addr, daemon) = start(config(&cache_path));
    let mut client = Client::connect(addr).expect("connect");
    let first_sqnr = match client.eval(point.clone()).expect("eval") {
        Response::Eval { outcome, .. } => {
            let r = *outcome.result().expect("feasible");
            assert!(r.sqnr_db.is_finite() && r.sqnr_db > 0.0, "{}", r.sqnr_db);
            r.sqnr_db
        }
        other => panic!("expected eval, got {other:?}"),
    };
    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon");

    // Second lifetime: the identical eval is a pure cache hit — the
    // SQNR comes off disk, bit for bit.
    let (addr, daemon) = start(config(&cache_path));
    let mut client = Client::connect(addr).expect("reconnect");
    match client.eval(point).expect("eval") {
        Response::Eval { outcome, .. } => {
            let r = *outcome.result().expect("feasible");
            assert_eq!(r.sqnr_db.to_bits(), first_sqnr.to_bits());
        }
        other => panic!("expected eval, got {other:?}"),
    }
    match client.stats().expect("stats") {
        Response::Stats(stats) => {
            assert_eq!(stats.misses, 0, "restart must re-serve from disk");
            assert_eq!(stats.loaded_from_disk, 1);
        }
        other => panic!("expected stats, got {other:?}"),
    }
    // The accuracy frontier over the cache also carries the value.
    match client.frontier_accuracy().expect("frontier") {
        Response::Frontier { entries, .. } => {
            assert_eq!(entries.len(), 1);
            assert_eq!(entries[0].result.sqnr_db.to_bits(), first_sqnr.to_bits());
        }
        other => panic!("expected frontier, got {other:?}"),
    }
    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon");
    std::fs::remove_file(&cache_path).ok();
}

/// A record speaks only for its own point. The daemon restarts on a
/// crafted file whose checksums and content hashes are valid: a point
/// `evaluate` refuses, and a vgg16 8-bit point at -5 fps and 99 dB.
/// Both are rejected at load: the first is a spec error again, the
/// second is evaluated afresh, and a never-seen point of its (network,
/// width) pair reports the measured SQNR. No other test in this binary
/// measures vgg16 at 8 bits, so only the crafted record could have put
/// 99 dB into the process-wide accuracy memo.
#[test]
fn daemon_restart_rejects_records_a_fresh_evaluation_refuses() {
    use chain_nn_repro::dse::{
        accuracy, network_by_name, CacheFile, DesignPoint, PointCache, PointOutcome, PointResult,
    };

    let cache_path = {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "chain_nn_serve_crafted_{}.cache",
            std::process::id()
        ));
        p
    };
    let bogus = DesignPoint {
        net: "bogus".into(),
        word_bits: 4,
        ..DesignPoint::paper_alexnet()
    };
    let vgg = DesignPoint {
        net: "vgg16".into(),
        word_bits: 8,
        ..DesignPoint::paper_alexnet()
    };
    let never_seen = DesignPoint {
        pes: 1152,
        ..vgg.clone()
    };
    let forged = PointResult {
        fps: -5.0,
        achieved_gops: 1.0,
        peak_gops: 1.0,
        chip_mw: 1.0,
        dram_mw: 1.0,
        gates_k: 1.0,
        sram_kb: 1.0,
        sqnr_db: 99.0,
    };
    let write_crafted = || {
        let _ = std::fs::remove_file(&cache_path);
        CacheFile::new(&cache_path)
            .append(&[
                (
                    bogus.clone(),
                    PointOutcome::Feasible(PointResult {
                        fps: 10.0,
                        ..forged
                    }),
                ),
                (vgg.clone(), PointOutcome::Feasible(forged)),
            ])
            .expect("write the crafted file");
    };
    write_crafted();
    let report = CacheFile::new(&cache_path)
        .load_into(&PointCache::new())
        .expect("load");
    assert_eq!((report.loaded, report.rejected), (0, 2));

    write_crafted();
    let (addr, daemon) = start(ServerConfig {
        threads: 2,
        cache_file: Some(cache_path.clone()),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    match client.eval(bogus).expect("round trip decodes") {
        Response::Error { message } => {
            assert!(message.contains("unknown network 'bogus'"), "{message}")
        }
        other => panic!("expected error, got {other:?}"),
    }
    match client.eval(vgg).expect("eval") {
        Response::Eval { outcome, .. } => {
            let fps = outcome.result().expect("feasible").fps;
            assert!(fps > 0.0, "{fps}");
        }
        other => panic!("expected eval, got {other:?}"),
    }
    let measured = accuracy::measure(&network_by_name("vgg16").expect("zoo"), 8)
        .expect("measure")
        .sqnr_db;
    match client.eval(never_seen).expect("eval") {
        Response::Eval { outcome, .. } => {
            let sqnr = outcome.result().expect("feasible").sqnr_db;
            assert_eq!(sqnr.to_bits(), measured.to_bits(), "{sqnr} dB");
        }
        other => panic!("expected eval, got {other:?}"),
    }
    match client.stats().expect("stats") {
        Response::Stats(stats) => assert_eq!(stats.loaded_from_disk, 0),
        other => panic!("expected stats, got {other:?}"),
    }
    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon");
    std::fs::remove_file(&cache_path).ok();
}

/// One session survives malformed requests, serves multiple requests
/// in order, and eval answers match the library evaluator bit-exactly.
#[test]
fn session_is_robust_and_consistent_with_the_library() {
    for front in FRONTS {
        let (addr, daemon) = start_front(front, ServerConfig::default());
        let mut client = Client::connect(addr).expect("connect");

        // Garbage first: the session answers an error and stays open.
        let reply = client.request_raw("this is not json").expect("round trip");
        assert!(reply.contains("\"ok\":false"), "{reply}");
        let reply = client
            .request_raw(r#"{"type":"warp_drive"}"#)
            .expect("round trip");
        assert!(reply.contains("\"ok\":false"), "{reply}");
        // Nesting deep enough to overflow a recursive parser's stack is
        // refused by the parser's depth bound, not fatal to the daemon.
        let reply = client
            .request_raw(&"[".repeat(100_000))
            .expect("round trip");
        assert!(reply.contains("\"ok\":false"), "{reply}");

        // Then a real eval on the same connection.
        let paper = chain_nn_repro::dse::DesignPoint::paper_alexnet();
        match client.eval(paper.clone()).expect("eval") {
            Response::Eval { point, outcome } => {
                assert_eq!(point, paper);
                let served = *outcome.result().expect("paper point feasible");
                let local = chain_nn_repro::dse::evaluate(&paper).expect("local eval");
                let local = *local.result().expect("feasible");
                assert_eq!(served.fps.to_bits(), local.fps.to_bits());
                assert_eq!(served.chip_mw.to_bits(), local.chip_mw.to_bits());
                assert_eq!(served.gates_k.to_bits(), local.gates_k.to_bits());
            }
            other => panic!("expected eval, got {other:?}"),
        }

        // An infeasible point is data, not an error.
        let tiny = chain_nn_repro::dse::DesignPoint {
            pes: 64,
            ..paper.clone()
        };
        match client.eval(tiny).expect("eval") {
            Response::Eval { outcome, .. } => assert!(outcome.result().is_none()),
            other => panic!("expected eval, got {other:?}"),
        }

        // Points the models cannot serve — an empty batch, a clock that
        // overflows them to infinity, a batch past its axis bound that
        // overflows their integer arithmetic — are error replies that
        // decode, not feasible results the wire cannot carry; the
        // session still evaluates afterwards.
        for bad in [
            chain_nn_repro::dse::DesignPoint {
                batch: 0,
                ..paper.clone()
            },
            chain_nn_repro::dse::DesignPoint {
                freq_mhz: 1e300,
                ..paper.clone()
            },
            chain_nn_repro::dse::DesignPoint {
                batch: 100_000_000_000,
                ..paper.clone()
            },
        ] {
            match client.eval(bad).expect("round trip decodes") {
                Response::Error { message } => assert!(message.contains("invalid"), "{message}"),
                other => panic!("expected error, got {other:?}"),
            }
            match client.eval(paper.clone()).expect("eval") {
                Response::Eval { outcome, .. } => assert!(outcome.result().is_some()),
                other => panic!("expected eval, got {other:?}"),
            }
        }

        // A spec-level invalid sweep is an error response, not a dead daemon.
        let mut bad = lenet_grid(vec![25]);
        bad.nets = vec!["squeezenet".into()];
        match client.sweep(bad).expect("round trip") {
            Response::Error { message } => assert!(message.contains("squeezenet"), "{message}"),
            other => panic!("expected error, got {other:?}"),
        }

        // Grids past the point cap are refused before a single point is
        // built: 6,000 x 6,000 (36M points), and 256 values on each of
        // the 8 axes (2^64 points, which wraps an unchecked product).
        let wide = SweepSpec {
            pes: (1..=6000).collect(),
            freqs_mhz: (1..=6000).map(f64::from).collect(),
            ..SweepSpec::paper_point()
        };
        let huge = SweepSpec {
            pes: (1..=256).collect(),
            freqs_mhz: (1..=256).map(f64::from).collect(),
            kmem_depths: (1..=256).collect(),
            imem_kb: (1..=256).collect(),
            omem_kb: (1..=256).collect(),
            word_bits: [8, 16].repeat(128),
            batches: (1..=256).collect(),
            nets: vec!["lenet".to_owned(); 256],
            part: None,
        };
        for grid in [wide, huge] {
            match client.sweep(grid).expect("round trip decodes") {
                Response::Error { message } => assert!(message.contains("exceeds"), "{message}"),
                other => panic!("expected error, got {other:?}"),
            }
            match client.eval(paper.clone()).expect("eval") {
                Response::Eval { outcome, .. } => assert!(outcome.result().is_some()),
                other => panic!("expected eval, got {other:?}"),
            }
        }

        client.shutdown().expect("shutdown");
        daemon.join().expect("daemon");
    }
}

/// A tune served by the daemon chooses the same point as the local
/// tuner (backend-independence of the search), interleaves with the
/// scheduler, and a repeat tune after a restart on the same cache file
/// is answered without a single fresh evaluation.
#[test]
fn daemon_tune_matches_local_and_is_cached_across_restarts() {
    use chain_nn_repro::tuner::{tune, Budget, CacheEvaluator, TuneRequest};

    let cache_path = {
        let mut p = std::env::temp_dir();
        p.push(format!("chain_nn_serve_tune_{}.cache", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    };
    let config = |path: &PathBuf| ServerConfig {
        threads: 2,
        cache_file: Some(path.clone()),
        ..ServerConfig::default()
    };
    let request = TuneRequest {
        budget: Budget {
            max_system_mw: Some(500.0),
            ..Budget::default()
        },
        ..TuneRequest::default()
    };

    // Local reference.
    let local_cache = chain_nn_repro::dse::PointCache::new();
    let local = tune(&request, &mut CacheEvaluator::new(&local_cache, 2)).expect("local tune");
    let local_best = local.best.expect("admitted point exists");

    // First daemon lifetime: fresh evaluations, then persisted.
    let (addr, daemon) = start(config(&cache_path));
    let mut client = Client::connect(addr).expect("connect");
    let first = match client.tune(request.clone()).expect("tune round trip") {
        Response::Tune(summary) => summary,
        other => panic!("expected tune summary, got {other:?}"),
    };
    let first_best = first.best.clone().expect("daemon found a point");
    assert_eq!(
        first_best.point, local_best.point,
        "daemon diverged from local"
    );
    assert!(first_best.admitted);
    assert_eq!(first.evaluations, local.evaluations);
    assert_eq!(first.cache_misses, local.cache_misses);
    client.shutdown().expect("shutdown");
    let report = daemon.join().expect("daemon");
    assert_eq!(report.persisted as u64, first.cache_misses);

    // Second lifetime: the identical tune replays entirely from disk.
    let (addr, daemon) = start(config(&cache_path));
    let mut client = Client::connect(addr).expect("reconnect");
    let again = match client.tune(request).expect("tune round trip") {
        Response::Tune(summary) => summary,
        other => panic!("expected tune summary, got {other:?}"),
    };
    assert_eq!(again.best, first.best);
    assert_eq!(again.cache_misses, 0, "restarted tune must be free");
    assert_eq!(again.cache_hits, first.cache_misses);
    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon");
    std::fs::remove_file(&cache_path).ok();
}

/// A frontier tune served by the daemon streams one step line per
/// budget step (each arriving before the terminal line), chooses the
/// same steps as the local frontier tuner, and a re-sweep after a
/// restart on the same cache file costs zero fresh evaluations.
#[test]
fn daemon_tune_frontier_streams_steps_and_survives_restart() {
    use chain_nn_repro::serve::protocol::FrontierStepSummary;
    use chain_nn_repro::tuner::{
        tune_frontier, BudgetSweep, CacheEvaluator, FrontierTuneRequest, TuneRequest,
    };

    let cache_path = {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "chain_nn_serve_frontier_{}.cache",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    };
    let config = |path: &PathBuf| ServerConfig {
        threads: 2,
        cache_file: Some(path.clone()),
        ..ServerConfig::default()
    };
    let request = FrontierTuneRequest {
        base: TuneRequest::default(),
        sweep: BudgetSweep::parse("max-mw=450..=650:50").expect("valid sweep"),
    };

    // Local reference.
    let local_cache = chain_nn_repro::dse::PointCache::new();
    let local = tune_frontier(
        &request,
        &mut CacheEvaluator::new(&local_cache, 2),
        |_, _| Ok(()),
    )
    .expect("local frontier tune");

    // First daemon lifetime: the steps stream back one line at a time.
    let (addr, daemon) = start(config(&cache_path));
    let mut client = Client::connect(addr).expect("connect");
    let mut steps: Vec<FrontierStepSummary> = Vec::new();
    let done = match client
        .tune_frontier(request.clone(), |step| steps.push(step.clone()))
        .expect("frontier tune round trip")
    {
        Response::TuneFrontierDone(done) => done,
        other => panic!("expected the done line, got {other:?}"),
    };
    assert_eq!(steps.len(), request.sweep.values.len());
    assert_eq!(done.steps, steps.len());
    for (i, (step, local_step)) in steps.iter().zip(&local.steps).enumerate() {
        assert_eq!(step.step, i, "steps must arrive in sweep order");
        assert_eq!(step.steps, steps.len());
        assert_eq!(step.result.budget_value, local_step.budget_value);
        // Backend-independence: the daemon's scheduler evaluator picks
        // exactly what the local cache evaluator picks.
        assert_eq!(
            step.result.best, local_step.best,
            "step {i} diverged from local"
        );
        assert_eq!(step.result.evaluations, local_step.evaluations);
    }
    assert_eq!(done.frontier, local.frontier);
    assert_eq!(done.evaluations, local.evaluations);
    assert_eq!(done.standalone_evaluations, local.standalone_evaluations);
    assert!(done.evaluations < done.standalone_evaluations);
    client.shutdown().expect("shutdown");
    let report = daemon.join().expect("daemon");
    assert_eq!(report.persisted as u64, done.cache_misses);

    // Second lifetime: the identical sweep replays entirely from disk.
    let (addr, daemon) = start(config(&cache_path));
    let mut client = Client::connect(addr).expect("reconnect");
    let mut again_steps: Vec<FrontierStepSummary> = Vec::new();
    let again = match client
        .tune_frontier(request, |step| again_steps.push(step.clone()))
        .expect("frontier tune round trip")
    {
        Response::TuneFrontierDone(done) => done,
        other => panic!("expected the done line, got {other:?}"),
    };
    assert_eq!(again.cache_misses, 0, "restarted sweep must be free");
    assert_eq!(again.cache_hits, done.cache_misses);
    assert_eq!(again.frontier, done.frontier);
    for (step, first_step) in again_steps.iter().zip(&steps) {
        assert_eq!(step.result.best, first_step.result.best);
    }
    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon");
    std::fs::remove_file(&cache_path).ok();
}

/// The streaming whole-cache frontier delivers the same entries as the
/// aggregate reply, one line at a time, terminated by a done line.
#[test]
fn streaming_frontier_matches_the_aggregate_reply() {
    let (addr, daemon) = start(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    sweep_summary(&mut client, &lenet_grid(vec![25, 50, 100, 200]));

    let aggregate = match client.frontier(3).expect("frontier") {
        Response::Frontier { entries, .. } => entries,
        other => panic!("expected frontier, got {other:?}"),
    };
    let mut streamed = Vec::new();
    let done = client
        .frontier_stream(3, false, |entry| streamed.push(entry.clone()))
        .expect("streamed frontier");
    match done {
        Response::FrontierStreamDone { dims, entries, .. } => {
            assert_eq!(dims, 3);
            assert_eq!(entries, aggregate.len());
        }
        other => panic!("expected the done line, got {other:?}"),
    }
    assert_eq!(streamed, aggregate);

    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon");
}

/// Beyond `--max-connections` the daemon answers one `busy` line at the
/// accept loop and closes, instead of accumulating session threads; a
/// freed slot is reusable.
#[test]
fn connection_bound_refuses_with_busy_then_recovers() {
    use std::io::{BufRead, BufReader};

    for front in FRONTS {
        let (addr, daemon) = start_front(
            front,
            ServerConfig {
                threads: 1,
                max_connections: 2,
                ..ServerConfig::default()
            },
        );

        // Two live sessions (a served request proves each is registered).
        let mut a = Client::connect(addr).expect("connect a");
        assert!(matches!(a.stats().expect("stats"), Response::Stats(_)));
        let mut b = Client::connect(addr).expect("connect b");
        match b.stats().expect("stats") {
            Response::Stats(stats) => {
                assert_eq!(stats.open_connections, 2);
                assert_eq!(stats.max_connections, 2);
            }
            other => panic!("expected stats, got {other:?}"),
        }

        // The third connection is refused with a busy line, then EOF.
        let refused = std::net::TcpStream::connect(addr).expect("tcp connect");
        let mut lines = BufReader::new(refused);
        let mut line = String::new();
        lines.read_line(&mut line).expect("busy line");
        assert!(line.contains("\"ok\":false"), "{line}");
        assert!(line.contains("\"error\":\"busy\""), "{line}");
        line.clear();
        assert_eq!(lines.read_line(&mut line).expect("eof"), 0, "{line}");

        // Dropping a session frees its slot (the daemon notices the EOF
        // asynchronously, so poll briefly).
        drop(a);
        let mut c = None;
        for _ in 0..200 {
            let mut candidate = Client::connect(addr).expect("tcp connect");
            if let Ok(Response::Stats(_)) = candidate.stats() {
                c = Some(candidate);
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let mut c = c.expect("slot freed after disconnect");
        assert!(matches!(c.stats().expect("stats"), Response::Stats(_)));

        c.shutdown().expect("shutdown");
        drop(b);
        daemon.join().expect("daemon");
    }
}

/// `--cache-cap` bounds the in-memory cache even without a cache file:
/// the daemon discards the dirty journal after each request (there is
/// nothing to persist), so flushed-out entries become evictable and
/// the cache cannot grow without limit.
#[test]
fn cache_cap_bounds_memory_without_a_cache_file() {
    let (addr, daemon) = start(ServerConfig {
        threads: 2,
        cache_capacity: Some(16), // one point per shard
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    // Two disjoint sweeps of 40 points each. The first sweep's entries
    // are journal-clean by the time the second runs, so the second's
    // inserts must evict: far fewer than 80 points can remain.
    let first = lenet_grid((1..=20).map(|i| i * 25).collect());
    let second = lenet_grid((21..=40).map(|i| i * 25).collect());
    sweep_summary(&mut client, &first);
    sweep_summary(&mut client, &second);
    match client.stats().expect("stats") {
        Response::Stats(stats) => {
            assert!(
                stats.cached_points < first.len() + second.len(),
                "capacity bound never evicted: {} points",
                stats.cached_points
            );
        }
        other => panic!("expected stats, got {other:?}"),
    }
    // The daemon still answers correctly after evictions.
    sweep_summary(&mut client, &first);
    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon");
}

/// A fresh path in the temp directory for one test's cache file.
fn temp_cache(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("chain_nn_serve_{tag}_{}.cache", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// What a fresh process finds in the cache file at `path`.
fn reload(path: &Path) -> LoadReport {
    CacheFile::new(path)
        .load_into(&PointCache::new())
        .expect("reload")
}

/// Records on disk: loaded, and dead ones still taking space.
fn records(report: &LoadReport) -> usize {
    report.loaded + report.dead()
}

/// Cold sweep `n`: 1,000 lenet points (500 PE counts × 2 clocks),
/// disjoint from every other `n`.
fn cold_sweep(n: usize) -> SweepSpec {
    lenet_grid((0..500).map(|i| 1000 + 500 * n + i).collect())
}

fn bounded_config(path: &Path, capacity: usize) -> ServerConfig {
    ServerConfig {
        threads: 2,
        cache_capacity: Some(capacity),
        cache_file: Some(path.to_path_buf()),
        ..ServerConfig::default()
    }
}

/// With `--cache-cap C` and a cache file, the file is bounded like the
/// cache: after every reply it holds at most 2C records plus one sweep,
/// and at least the newest C. It stays clean through the rewrites, and a
/// restart re-serves the newest sweep from it without evaluating.
#[test]
fn cache_cap_bounds_the_cache_file_and_a_restart_reserves_the_newest_sweep() {
    const CAP: usize = 2000;
    let path = temp_cache("bounded");
    let sweep = cold_sweep(0).len();
    let (addr, daemon) = start(bounded_config(&path, CAP));
    let mut client = Client::connect(addr).expect("connect");
    for n in 0..12 {
        let summary = sweep_summary(&mut client, &cold_sweep(n));
        assert_eq!(summary.cache_misses, sweep as u64, "sweep {n} was not cold");
        let on_disk = records(&reload(&path));
        assert!(
            on_disk <= 2 * CAP + sweep,
            "after sweep {n}: {on_disk} records on disk"
        );
        assert!(
            on_disk >= CAP.min((n + 1) * sweep),
            "after sweep {n}: only {on_disk} records kept"
        );
    }
    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon");
    let report = reload(&path);
    assert_eq!(
        (
            report.corrupt_tail_bytes,
            report.rejected,
            report.duplicates
        ),
        (0, 0, 0),
        "{report:?}"
    );

    let (addr, daemon) = start(bounded_config(&path, CAP));
    let mut client = Client::connect(addr).expect("reconnect");
    let again = sweep_summary(&mut client, &cold_sweep(11));
    assert_eq!(
        again.cache_misses, 0,
        "restart must re-serve the newest sweep"
    );
    client.shutdown().expect("shutdown");
    let report = daemon.join().expect("daemon");
    assert!(
        (CAP..=2 * CAP + sweep).contains(&report.loaded_from_disk),
        "restart loaded {}",
        report.loaded_from_disk
    );
    std::fs::remove_file(&path).ok();
}

/// Without a capacity the cache file keeps every record it was given.
#[test]
fn an_unbounded_daemon_keeps_every_record_in_its_cache_file() {
    let path = temp_cache("unbounded");
    let (addr, daemon) = start(ServerConfig {
        threads: 2,
        cache_file: Some(path.clone()),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    for n in 0..6 {
        sweep_summary(&mut client, &cold_sweep(n));
    }
    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon");
    assert_eq!(records(&reload(&path)), 6 * cold_sweep(0).len());
    std::fs::remove_file(&path).ok();
}

/// `--cache-cap 0` (one point per cache shard): sweeps larger than
/// twice the capacity neither panic nor rewrite the file at every
/// flush. It keeps the newest sweep and rewrites every other flush.
#[test]
fn cache_cap_zero_bounds_the_file_to_its_newest_sweeps() {
    let path = temp_cache("cap_zero");
    let sweep = cold_sweep(0).len();
    let (addr, daemon) = start(bounded_config(&path, 0));
    let mut client = Client::connect(addr).expect("connect");
    let mut on_disk = Vec::new();
    for n in 0..4 {
        let summary = sweep_summary(&mut client, &cold_sweep(n));
        assert_eq!(summary.points, sweep);
        on_disk.push(records(&reload(&path)));
    }
    assert_eq!(on_disk, [sweep, 2 * sweep, sweep, 2 * sweep]);
    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon");
    std::fs::remove_file(&path).ok();
}

/// A flush that fails still lets the reply go out, and is counted in
/// `serve_flush_errors_total`. Here a directory sits where the cache
/// file goes, so every append fails, the final one at shutdown too.
#[test]
fn a_failed_flush_is_counted_and_the_reply_still_goes_out() {
    let path = temp_cache("flush_error");
    let server = Server::bind(ServerConfig {
        threads: 1,
        cache_file: Some(path.clone()),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    std::fs::create_dir(&path).expect("a directory in the cache file's place");
    let daemon = std::thread::spawn(move || server.run());
    let mut client = Client::connect(addr).expect("connect");
    match client.eval(DesignPoint::paper_alexnet()).expect("eval") {
        Response::Eval { .. } => {}
        other => panic!("expected an eval reply, got {other:?}"),
    }
    let errors = match client.metrics().expect("metrics") {
        Response::Metrics { snapshot } => snapshot.counter("serve_flush_errors_total", &[]),
        other => panic!("expected metrics, got {other:?}"),
    };
    assert!(errors >= Some(1), "flush errors counted: {errors:?}");
    client.shutdown().expect("shutdown");
    let run = daemon.join().expect("daemon thread");
    assert!(run.is_err(), "the final flush failed too: {run:?}");
    std::fs::remove_dir(&path).expect("remove the directory");
}

/// A hostile newline-free stream is refused with one error reply and a
/// closed connection instead of being buffered into daemon memory.
#[test]
fn oversized_request_is_refused_not_buffered() {
    use std::io::{Read, Write};
    for front in FRONTS {
        let (addr, daemon) = start_front(front, ServerConfig::default());

        let mut raw = std::net::TcpStream::connect(addr).expect("connect");
        // Exactly the daemon's line cap, no newline anywhere: the daemon
        // consumes it all, refuses, and closes cleanly. (Anything *longer*
        // is also refused, but the unread remainder then makes the close a
        // reset rather than a polite FIN.)
        let blob = vec![b'a'; 1 << 20];
        raw.write_all(&blob).expect("write blob");
        let mut reply = String::new();
        raw.read_to_string(&mut reply).expect("read until close");
        assert!(reply.contains("\"ok\":false"), "{reply}");
        assert!(reply.contains("exceeds"), "{reply}");

        // The daemon itself is unharmed.
        let mut client = Client::connect(addr).expect("connect");
        assert!(matches!(client.stats().expect("stats"), Response::Stats(_)));
        client.shutdown().expect("shutdown");
        daemon.join().expect("daemon");
    }
}
