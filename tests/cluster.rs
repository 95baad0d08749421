//! Cluster conformance suite: a coordinator fronting N shard daemons
//! must be *indistinguishable* from one daemon — merged sweep, tune and
//! frontier replies byte-identical to the single-daemon reference at
//! every shard count — plus the client-side pipelining contract and the
//! frontier-merge algebra the coordinator's correctness rests on.

use std::time::{Duration, Instant};

use proptest::prelude::*;

use chain_nn_repro::dse::pareto::{self, Objectives};
use chain_nn_repro::dse::{DesignPoint, SweepSpec};
use chain_nn_repro::serve::cluster::{ClusterConfig, Coordinator};
use chain_nn_repro::serve::protocol::{Request, Response, SweepSummary};
use chain_nn_repro::serve::{Client, Server, ServerConfig, ServerReport};

/// A grid mixing word widths so both frontiers (area and accuracy) are
/// non-trivial, with enough points to land on every shard of a small
/// fleet: 4 pes × 2 freqs × 2 widths = 16 points.
fn mixed_grid() -> SweepSpec {
    SweepSpec {
        pes: vec![25, 50, 100, 200],
        freqs_mhz: vec![350.0, 700.0],
        word_bits: vec![8, 16],
        nets: vec!["lenet".into()],
        ..SweepSpec::paper_point()
    }
}

/// Binds one shard daemon on an ephemeral port.
fn start_shard(
    config: ServerConfig,
) -> (std::net::SocketAddr, std::thread::JoinHandle<ServerReport>) {
    let server = Server::bind(config).expect("bind shard");
    let addr = server.local_addr().expect("addr");
    let handle = std::thread::spawn(move || server.run().expect("shard runs"));
    (addr, handle)
}

/// Binds `n` plain shards plus a coordinator routing across them.
#[allow(clippy::type_complexity)]
fn start_cluster(
    n: usize,
) -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<()>,
    Vec<std::thread::JoinHandle<ServerReport>>,
) {
    let mut addrs = Vec::new();
    let mut shards = Vec::new();
    for _ in 0..n {
        let (addr, handle) = start_shard(ServerConfig {
            threads: 1,
            ..ServerConfig::default()
        });
        addrs.push(addr.to_string());
        shards.push(handle);
    }
    let coordinator = Coordinator::bind(ClusterConfig {
        shards: addrs,
        ..ClusterConfig::default()
    })
    .expect("bind coordinator");
    let addr = coordinator.local_addr().expect("addr");
    let handle = std::thread::spawn(move || {
        coordinator.run().expect("coordinator runs");
    });
    (addr, handle, shards)
}

fn sweep_summary(client: &mut Client, spec: &SweepSpec) -> SweepSummary {
    match client.sweep(spec.clone()).expect("sweep round trip") {
        Response::Sweep(summary) => summary,
        other => panic!("expected sweep summary, got {other:?}"),
    }
}

/// The wire line of a whole-cache frontier reply — full `(point,
/// result)` rows with shortest-round-trip float formatting, so string
/// equality is bit-for-bit equality of every f64 in every entry.
fn frontier_wire(client: &mut Client, sqnr: bool) -> String {
    let response = if sqnr {
        client.frontier_accuracy().expect("frontier round trip")
    } else {
        client.frontier(3).expect("frontier round trip")
    };
    assert!(
        matches!(
            &response,
            Response::Frontier {
                degraded: false,
                ..
            }
        ),
        "unexpected frontier reply: {response:?}"
    );
    response.encode()
}

/// Sweep + tune + frontier through a 2- and a 4-shard cluster, checked
/// field-by-field (and, for frontiers, wire-byte-for-wire-byte) against
/// a single daemon serving the identical requests.
#[test]
fn cluster_results_are_byte_identical_to_a_single_daemon() {
    use chain_nn_repro::tuner::{Budget, TuneRequest};

    let spec = mixed_grid();
    let tune_request = TuneRequest {
        budget: Budget {
            max_system_mw: Some(500.0),
            ..Budget::default()
        },
        ..TuneRequest::default()
    };

    // Single-daemon reference.
    let (ref_addr, ref_daemon) = start_shard(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    });
    let mut reference = Client::connect(ref_addr).expect("connect reference");
    let ref_sweep = sweep_summary(&mut reference, &spec);
    assert_eq!(ref_sweep.cache_misses, spec.len() as u64);
    let ref_tune = match reference.tune(tune_request.clone()).expect("tune") {
        Response::Tune(summary) => summary,
        other => panic!("expected tune summary, got {other:?}"),
    };
    let ref_frontier = frontier_wire(&mut reference, false);
    let ref_frontier_sqnr = frontier_wire(&mut reference, true);

    for shards in [2usize, 4] {
        let (addr, coordinator, shard_handles) = start_cluster(shards);
        let mut client = Client::connect(addr).expect("connect coordinator");

        // The merged sweep: same grid accounting, same frontiers by
        // global grid index, not degraded — and fresh (disjoint
        // partitions means summed misses equal the single daemon's).
        let sweep = sweep_summary(&mut client, &spec);
        assert_eq!(sweep.points, ref_sweep.points, "{shards} shards");
        assert_eq!(sweep.feasible, ref_sweep.feasible);
        assert_eq!(sweep.cache_hits, ref_sweep.cache_hits);
        assert_eq!(sweep.cache_misses, ref_sweep.cache_misses);
        assert_eq!(sweep.frontier_3d, ref_sweep.frontier_3d, "{shards} shards");
        assert_eq!(sweep.frontier_sqnr, ref_sweep.frontier_sqnr);
        assert!(!sweep.degraded);
        // Candidates are a sub-sweep-reply detail; the merged reply is
        // indistinguishable from a single daemon's.
        assert!(sweep.candidates.is_empty());

        // The scatter-gather tune picks the identical winner with the
        // identical evaluation accounting.
        let tune = match client.tune(tune_request.clone()).expect("tune") {
            Response::Tune(summary) => summary,
            other => panic!("expected tune summary, got {other:?}"),
        };
        assert_eq!(tune.best, ref_tune.best, "{shards} shards");
        assert_eq!(tune.evaluations, ref_tune.evaluations);
        assert_eq!(tune.rounds, ref_tune.rounds);
        assert_eq!(tune.cache_misses, ref_tune.cache_misses);
        assert_eq!(tune.exhaustive_points, ref_tune.exhaustive_points);
        assert!(!tune.degraded);

        // Whole-cache frontiers: the merged wire line equals the
        // single daemon's byte for byte (same entries, same canonical
        // order, same shortest-round-trip float digits).
        assert_eq!(
            frontier_wire(&mut client, false),
            ref_frontier,
            "{shards}-shard 3D frontier diverged from the single daemon"
        );
        assert_eq!(
            frontier_wire(&mut client, true),
            ref_frontier_sqnr,
            "{shards}-shard accuracy frontier diverged"
        );

        // Shard stats surface in the merged stats reply.
        match client.stats().expect("stats") {
            Response::Stats(stats) => {
                assert_eq!(stats.shards.len(), shards);
                assert!(stats.shards.iter().all(|s| !s.degraded));
                assert!(stats.shards.iter().all(|s| s.requests > 0));
            }
            other => panic!("expected stats, got {other:?}"),
        }

        client.shutdown().expect("shutdown");
        coordinator.join().expect("coordinator");
        for shard in shard_handles {
            shard.join().expect("shard");
        }
    }

    reference.shutdown().expect("shutdown");
    ref_daemon.join().expect("reference daemon");
}

/// Pipelining: N requests written before any reply is read come back in
/// request order, each reply matching its own request's payload.
#[test]
fn pipelined_replies_match_request_order() {
    let (addr, coordinator, shards) = start_cluster(2);
    let mut client = Client::connect(addr).expect("connect");

    let points: Vec<DesignPoint> = [25usize, 50, 100, 200, 400]
        .iter()
        .map(|&pes| DesignPoint {
            net: "lenet".into(),
            pes,
            ..DesignPoint::paper_alexnet()
        })
        .collect();
    let ids: Vec<u64> = points
        .iter()
        .map(|p| {
            client
                .pipeline(&Request::Eval(p.clone()))
                .expect("pipeline")
        })
        .collect();
    for (id, sent) in ids.into_iter().zip(&points) {
        match client.recv_reply(id).expect("reply") {
            Response::Eval { point, outcome } => {
                assert_eq!(&point, sent, "reply out of order");
                assert!(outcome.result().is_some());
            }
            other => panic!("expected eval, got {other:?}"),
        }
    }

    client.shutdown().expect("shutdown");
    coordinator.join().expect("coordinator");
    for shard in shards {
        shard.join().expect("shard");
    }
}

/// The reply-id fix: a pipelining client that skips ahead past a
/// streaming request must not misattribute the stream's late lines
/// (entries or the `done` line) to the next request — replies are
/// matched by `"req"` id, not by arrival position.
#[test]
fn late_stream_lines_are_not_misattributed_under_pipelining() {
    let (addr, daemon) = start_shard(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");

    // Populate the cache so the streamed frontier has several entries.
    sweep_summary(&mut client, &mixed_grid());

    // Pipeline a streaming frontier (many lines) and then two ordinary
    // requests behind it, without reading anything in between.
    let stream_id = client
        .pipeline(&Request::Frontier {
            dims: 3,
            sqnr: false,
            stream: true,
        })
        .expect("pipeline stream");
    let stats_id = client.pipeline(&Request::Stats).expect("pipeline stats");
    let paper = DesignPoint {
        net: "lenet".into(),
        ..DesignPoint::paper_alexnet()
    };
    let eval_id = client
        .pipeline(&Request::Eval(paper.clone()))
        .expect("pipeline eval");

    // Reading the *stats* reply first must discard every line of the
    // abandoned stream (entries and done alike). Under the pre-fix
    // strict-alternation client this returned a FrontierStreamEntry.
    match client.recv_reply(stats_id).expect("stats reply") {
        Response::Stats(_) => {}
        other => panic!("stream line misattributed to stats: {other:?}"),
    }
    match client.recv_reply(eval_id).expect("eval reply") {
        Response::Eval { point, .. } => assert_eq!(point, paper),
        other => panic!("misattributed eval reply: {other:?}"),
    }

    // The abandoned stream's id now has nothing left on the wire; the
    // session is still healthy for new requests.
    let _ = stream_id;
    match client.stats().expect("stats") {
        Response::Stats(stats) => assert!(stats.requests >= 4),
        other => panic!("expected stats, got {other:?}"),
    }

    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon");
}

/// Warm restarts stay incremental per shard: a cluster restarted on the
/// same per-shard cache files re-serves the whole sweep with zero
/// fresh evaluations.
#[test]
fn cluster_restart_on_per_shard_caches_reserves_with_zero_misses() {
    let base = {
        let mut p = std::env::temp_dir();
        p.push(format!("chain_nn_cluster_restart_{}", std::process::id()));
        p
    };
    let shard_cache = |i: usize| {
        let mut file = base.clone().into_os_string();
        file.push(format!(".shard{i}"));
        std::path::PathBuf::from(file)
    };
    for i in 0..2 {
        let _ = std::fs::remove_file(shard_cache(i));
    }
    let start_fleet = |n: usize| {
        let mut addrs = Vec::new();
        let mut handles = Vec::new();
        for i in 0..n {
            let (addr, handle) = start_shard(ServerConfig {
                threads: 1,
                cache_file: Some(shard_cache(i)),
                ..ServerConfig::default()
            });
            addrs.push(addr.to_string());
            handles.push(handle);
        }
        let coordinator = Coordinator::bind(ClusterConfig {
            shards: addrs,
            ..ClusterConfig::default()
        })
        .expect("bind coordinator");
        let addr = coordinator.local_addr().expect("addr");
        let coord = std::thread::spawn(move || coordinator.run().expect("runs"));
        (addr, coord, handles)
    };
    let spec = mixed_grid();

    // First fleet lifetime: all misses, persisted shard by shard.
    let (addr, coordinator, shards) = start_fleet(2);
    let mut client = Client::connect(addr).expect("connect");
    let first = sweep_summary(&mut client, &spec);
    assert_eq!(first.cache_misses, spec.len() as u64);
    client.shutdown().expect("shutdown");
    coordinator.join().expect("coordinator");
    let persisted: usize = shards
        .into_iter()
        .map(|h| h.join().expect("shard").persisted)
        .sum();
    assert_eq!(persisted, spec.len(), "per-shard persistence incomplete");

    // Second lifetime on the same cache files: the sweep is free.
    let (addr, coordinator, shards) = start_fleet(2);
    let mut client = Client::connect(addr).expect("reconnect");
    let again = sweep_summary(&mut client, &spec);
    assert_eq!(again.cache_misses, 0, "restart must re-serve from disk");
    assert_eq!(again.cache_hits, spec.len() as u64);
    assert_eq!(again.frontier_3d, first.frontier_3d);
    assert_eq!(again.frontier_sqnr, first.frontier_sqnr);
    client.shutdown().expect("shutdown");
    coordinator.join().expect("coordinator");
    for (i, shard) in shards.into_iter().enumerate() {
        let report = shard.join().expect("shard");
        assert_eq!(report.persisted, 0, "shard {i} re-evaluated");
        std::fs::remove_file(shard_cache(i)).ok();
    }
}

/// Pipelined throughput: issuing one cached eval per round trip pays a
/// write+flush+read syscall cycle plus two scheduler context switches
/// per request; pipelining a window of them amortizes the syscalls away
/// and lets client and server run concurrently. With a core each, that
/// is worth well over the required 5x. On a single-core host the two
/// sides time-share, so the ceiling is (work + switch)/work — pipelining
/// can only reclaim the per-request switch overhead, not overlap the
/// JSON encode/decode work — and the honest bound is "measurably
/// faster", not 5x. Run explicitly (`scripts/kick-tires.sh cluster`
/// does) — debug-build model code would dominate the round trip and
/// measure compilation mode, not protocol.
///
/// One 400-eval pair is ~15 ms of traffic, short enough that one
/// scheduler hiccup decides it. So the modes alternate in 400-eval
/// rounds for at least 3 s, flipping which goes first each round, and
/// the gate is the median per-round ratio: both modes of a round see
/// the same machine load, and the median drops the rounds where it
/// shifted. (1 s of rounds still fell below 5x in 3 of 8 runs on a
/// 2-vCPU guest.)
#[test]
#[ignore = "timing-sensitive: run with --release (scripts/kick-tires.sh cluster)"]
fn pipelined_evals_are_5x_single_request_throughput() {
    let (addr, daemon) = start_shard(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    let point = DesignPoint {
        net: "lenet".into(),
        ..DesignPoint::paper_alexnet()
    };
    // Warm the cache so every timed request is a pure cache hit, and
    // keep the reply: every timed reply must equal it.
    let warm = client.eval(point.clone()).expect("warm");
    match &warm {
        Response::Eval { outcome, .. } => assert!(outcome.result().is_some()),
        other => panic!("expected eval, got {other:?}"),
    }

    const N: usize = 400;
    let request = Request::Eval(point.clone());
    let lockstep = |client: &mut Client| {
        let started = Instant::now();
        for _ in 0..N {
            assert_eq!(client.eval(point.clone()).expect("eval"), warm);
        }
        started.elapsed()
    };
    let pipelined = |client: &mut Client| {
        let started = Instant::now();
        let ids: Vec<u64> = (0..N)
            .map(|_| client.pipeline(&request).expect("pipeline"))
            .collect();
        for id in ids {
            assert_eq!(client.recv_reply(id).expect("reply"), warm);
        }
        started.elapsed()
    };

    let mut ratios = Vec::new();
    let (mut sequential, mut overlapped) = (Duration::ZERO, Duration::ZERO);
    let started = Instant::now();
    while started.elapsed() < Duration::from_secs(3) {
        let (seq, pipe) = if ratios.len() % 2 == 0 {
            let seq = lockstep(&mut client);
            (seq, pipelined(&mut client))
        } else {
            let pipe = pipelined(&mut client);
            (lockstep(&mut client), pipe)
        };
        sequential += seq;
        overlapped += pipe;
        ratios.push(seq.as_secs_f64() / pipe.as_secs_f64());
    }
    ratios.sort_by(f64::total_cmp);
    let speedup = ratios[ratios.len() / 2];
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let required = if cores >= 2 { 5.0 } else { 1.15 };
    println!(
        "pipelining: median {speedup:.2}x over {} rounds of {N} evals \
         (range {:.2}x..{:.2}x; {sequential:?} lockstep vs {overlapped:?} pipelined)",
        ratios.len(),
        ratios[0],
        ratios[ratios.len() - 1],
    );
    assert!(
        speedup >= required,
        "pipelining speedup {speedup:.2}x (median of {} rounds) < {required}x \
         on {cores} core(s)",
        ratios.len()
    );

    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon");
}

// ------------------------------------------------- frontier-merge algebra

/// Deterministic pseudo-random objective vector (splitmix64 stream).
fn sample_objectives(rng: &mut TestRng) -> Objectives {
    // Small integer-valued axes on purpose: collisions and exact ties
    // are the interesting dominance cases, and tiny domains make them
    // common.
    Objectives {
        fps: (rng.next_u64() % 8) as f64,
        system_mw: (rng.next_u64() % 8) as f64,
        gates_k: (rng.next_u64() % 4) as f64,
        sqnr_db: (rng.next_u64() % 4) as f64,
    }
}

/// Reduces one partition to its own frontier candidates, the way a
/// shard does before replying: the union of its 3D and accuracy
/// frontier points (a candidate superset of either frontier alone).
fn shard_candidates(part: &[(usize, Objectives)]) -> Vec<(usize, Objectives)> {
    let mut keep: Vec<usize> = pareto::frontier_3d(part);
    keep.extend(pareto::frontier_accuracy(part));
    keep.sort_unstable();
    keep.dedup();
    part.iter()
        .filter(|(i, _)| keep.binary_search(i).is_ok())
        .copied()
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The coordinator's merge theorem, on random point sets: merging
    /// the per-partition frontier candidates and re-filtering equals
    /// the frontier of the whole (unpartitioned) set — for both
    /// dominance relations, under any partitioning.
    #[test]
    fn merge_of_partition_frontiers_equals_frontier_of_union(
        n in 1usize..60,
        shards in 1usize..6,
        seed in 0u64..1000,
    ) {
        let mut rng = TestRng::deterministic(&format!("merge-{n}-{shards}-{seed}"));
        let union: Vec<(usize, Objectives)> =
            (0..n).map(|i| (i, sample_objectives(&mut rng))).collect();
        // Hash-partition, like the coordinator (index stands in for the
        // content hash; any assignment must work).
        let mut parts: Vec<Vec<(usize, Objectives)>> = vec![Vec::new(); shards];
        for &(i, o) in &union {
            parts[(i * 2654435761) % shards].push((i, o));
        }
        let candidates: Vec<Vec<(usize, Objectives)>> =
            parts.iter().map(|p| shard_candidates(p)).collect();

        prop_assert_eq!(
            pareto::merge_frontier_3d(&candidates),
            pareto::frontier_3d(&union)
        );
        prop_assert_eq!(
            pareto::merge_frontier_accuracy(&candidates),
            pareto::frontier_accuracy(&union)
        );
    }

    /// Commutativity and associativity of the merge: shard reply order
    /// must not matter, and merging incrementally (fold) must equal
    /// merging all at once.
    #[test]
    fn merge_is_commutative_and_associative(
        n in 1usize..40,
        seed in 0u64..1000,
    ) {
        let mut rng = TestRng::deterministic(&format!("assoc-{n}-{seed}"));
        let union: Vec<(usize, Objectives)> =
            (0..n).map(|i| (i, sample_objectives(&mut rng))).collect();
        let mut parts: Vec<Vec<(usize, Objectives)>> = vec![Vec::new(); 3];
        for &(i, o) in &union {
            parts[i % 3].push((i, o));
        }
        let candidates: Vec<Vec<(usize, Objectives)>> =
            parts.iter().map(|p| shard_candidates(p)).collect();

        // Commutativity: any permutation of the parts merges the same.
        let mut reversed = candidates.clone();
        reversed.reverse();
        prop_assert_eq!(
            pareto::merge_frontier_3d(&candidates),
            pareto::merge_frontier_3d(&reversed)
        );
        prop_assert_eq!(
            pareto::merge_frontier_accuracy(&candidates),
            pareto::merge_frontier_accuracy(&reversed)
        );

        // Associativity: (p0 ⊕ p1) ⊕ p2 == p0 ⊕ p1 ⊕ p2, where ⊕
        // merges candidate lists (the intermediate stays a candidate
        // superset, which is all the theorem needs).
        let pair = pareto::merge_candidates(&candidates[..2]);
        let folded = [pair, candidates[2].clone()];
        prop_assert_eq!(
            pareto::merge_frontier_3d(&folded),
            pareto::merge_frontier_3d(&candidates)
        );
        prop_assert_eq!(
            pareto::merge_frontier_accuracy(&folded),
            pareto::merge_frontier_accuracy(&candidates)
        );
    }
}
