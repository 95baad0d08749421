//! The traced run's per-layer table. Every number is taken from
//! outside the program: timed calls into each layer's public functions
//! on this run's own inputs and the daemons' own `metrics` replies
//! (their histograms and the coordinator's shard counters).
//! Model and cache timings are the median over repetitions of the mean
//! per-call time over a whole point list.

use std::hint::black_box;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Instant;

use chain_nn_core::perf::{CycleModel, PerfModel};
use chain_nn_core::ChainConfig;
use chain_nn_dse::{
    accuracy, evaluate, executor, network_by_name, pareto, CacheFile, DesignPoint, PointCache,
    PointOutcome,
};
use chain_nn_energy::area::AreaModel;
use chain_nn_energy::power::PowerModel;
use chain_nn_mem::traffic::TrafficModel;
use chain_nn_mem::MemoryConfig;
use chain_nn_nets::Network;
use chain_nn_obs::{MetricValue, Snapshot};
use chain_nn_serve::{Client, Request, Response};
use chain_nn_tuner::{tune, BatchFnEvaluator, CacheEvaluator, TuneError, TuneRequest};

use crate::fleet::{Fleet, CACHE_HEADROOM};
use crate::gen::{Inputs, Workload, SHARDS};
use crate::pass::Pass;
use crate::stats::median;

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

const REPS: usize = 5;
/// Warm points timed for `dse.cache.get_hit_us` / `probe_hit_us`.
const HIT_SAMPLE: usize = 4096;
/// Lockstep single evals behind `serve.eval_rtt_us`.
const RTT_EVALS: usize = 256;
/// Round trips behind each `serve.cluster.*` median.
const ROUND_REPS: usize = 16;

fn us(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

/// Median over [`REPS`] of the mean time of `f` over every item, µs.
fn per_item_us<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            for item in items {
                f(item);
            }
            us(t) / items.len().max(1) as f64
        })
        .collect();
    median(&reps)
}

/// Median over [`REPS`] of one call of `f`, µs.
fn per_call_us(mut f: impl FnMut()) -> f64 {
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            us(t)
        })
        .collect();
    median(&reps)
}

/// A point with everything the model stages take, built outside the
/// timed loops.
struct Prepared<'a> {
    point: &'a DesignPoint,
    net: &'a Network,
    cfg: ChainConfig,
    mem: MemoryConfig,
}

fn prepare<'a>(points: &'a [DesignPoint], nets: &'a [(String, Network)]) -> Vec<Prepared<'a>> {
    points
        .iter()
        .filter_map(|point| {
            let net = &nets.iter().find(|(n, _)| *n == point.net)?.1;
            let cfg = ChainConfig::builder()
                .num_pes(point.pes)
                .freq_mhz(point.freq_mhz)
                .kmemory_depth(point.kmem_depth)
                .build()
                .ok()?;
            let mem = MemoryConfig {
                imem_bytes: point.imem_kb * 1024,
                omem_bytes: point.omem_kb * 1024,
                word_bytes: point.word_bits as usize / 8,
            };
            Some(Prepared {
                point,
                net,
                cfg,
                mem,
            })
        })
        .collect()
}

fn model_stages(points: &[DesignPoint], out: &mut Vec<Metric>) {
    let nets: Vec<(String, Network)> = ["alexnet", "vgg16"]
        .iter()
        .map(|n| (n.to_string(), network_by_name(n).expect("zoo network")))
        .collect();
    let prepared = prepare(points, &nets);
    for p in &prepared {
        // The first call per pair measures; the memo is what is timed.
        accuracy::sqnr_for(&p.point.net, p.point.word_bits).expect("zoo pair");
    }
    let by_net = |name: &str| -> Vec<DesignPoint> {
        points.iter().filter(|p| p.net == name).cloned().collect()
    };
    let (alexnet, vgg16) = (by_net("alexnet"), by_net("vgg16"));
    out.extend([
        Metric {
            name: "nets.lookup_us",
            value: per_item_us(points, |p| {
                black_box(network_by_name(&p.net));
            }),
            unit: "us",
        },
        Metric {
            name: "core.perf.network_us",
            value: per_item_us(&prepared, |p| {
                black_box(PerfModel::new(p.cfg).network(
                    p.net,
                    p.point.batch,
                    CycleModel::PaperCalibrated,
                ))
                .ok();
            }),
            unit: "us",
        },
        Metric {
            name: "mem.traffic.network_us",
            value: per_item_us(&prepared, |p| {
                black_box(TrafficModel::new(p.cfg, p.mem).network_traffic(p.net, p.point.batch))
                    .ok();
            }),
            unit: "us",
        },
        Metric {
            name: "energy.power.network_us",
            value: per_item_us(&prepared, |p| {
                black_box(
                    PowerModel::with_operand_bits(p.cfg, p.mem, p.point.word_bits)
                        .network_power(p.net, p.point.batch),
                )
                .ok();
            }),
            unit: "us",
        },
        Metric {
            name: "energy.area.gates_us",
            value: per_item_us(&prepared, |p| {
                black_box(AreaModel::with_operand_bits(p.cfg, p.point.word_bits).total_gates());
            }),
            unit: "us",
        },
        Metric {
            name: "dse.accuracy.memo_us",
            value: per_item_us(points, |p| {
                black_box(accuracy::sqnr_for(&p.net, p.word_bits)).ok();
            }),
            unit: "us",
        },
        Metric {
            name: "dse.eval.point_us",
            value: per_item_us(points, |p| {
                black_box(evaluate(p)).ok();
            }),
            unit: "us",
        },
        Metric {
            name: "dse.eval.alexnet_us",
            value: per_item_us(&alexnet, |p| {
                black_box(evaluate(p)).ok();
            }),
            unit: "us",
        },
        Metric {
            name: "dse.eval.vgg16_us",
            value: per_item_us(&vgg16, |p| {
                black_box(evaluate(p)).ok();
            }),
            unit: "us",
        },
    ]);
}

/// Times `executor::run` on a fresh cache at 1 and `nproc` threads and
/// returns the outcomes for the later probes. The two thread counts take
/// turns, each going first in half of the repetitions, so a drift of the
/// host over the probe falls on both alike.
fn executor_probe(points: &[DesignPoint], out: &mut Vec<Metric>) -> Vec<PointOutcome> {
    let nt = executor::default_threads();
    let rate = |threads: usize| -> f64 {
        let cache = PointCache::new();
        let t = Instant::now();
        black_box(executor::run(points, threads, &cache).expect("valid points"));
        points.len() as f64 / t.elapsed().as_secs_f64()
    };
    let (mut ones, mut manys) = (Vec::new(), Vec::new());
    for rep in 0..2 * REPS {
        if rep.is_multiple_of(2) {
            ones.push(rate(1));
            manys.push(rate(nt));
        } else {
            manys.push(rate(nt));
            ones.push(rate(1));
        }
    }
    let (one, many) = (median(&ones), median(&manys));
    out.extend([
        Metric {
            name: "dse.executor.points_per_s_1t",
            value: one,
            unit: "1/s",
        },
        Metric {
            name: "dse.executor.points_per_s_nt",
            value: many,
            unit: "1/s",
        },
        Metric {
            name: "dse.executor.speedup",
            value: many / one,
            unit: "ratio",
        },
    ]);
    executor::run(points, nt, &PointCache::new()).expect("valid points")
}

/// Replays the seeded files (timed: `dse.persist.load_*`), then times
/// inserts of the probe's cold points into the last replayed set, and
/// hits on it (`last_file` lists that file's points).
fn cache_and_persist(
    files: &[(PathBuf, usize)],
    last_file: &[DesignPoint],
    entries: &[(DesignPoint, PointOutcome)],
    scratch: &Path,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let mut load_ms = Vec::new();
    let mut insert_us = Vec::new();
    let mut loaded = 0usize;
    let mut warm = PointCache::new();
    for _ in 0..3 {
        let mut total_ms = 0.0;
        loaded = 0;
        for (path, points) in files {
            let cache = PointCache::bounded(points + CACHE_HEADROOM);
            let t = Instant::now();
            let report = CacheFile::new(path)
                .load_into(&cache)
                .map_err(|e| e.to_string())?;
            total_ms += us(t) / 1e3;
            loaded += report.loaded;
            warm = cache;
        }
        load_ms.push(total_ms);
        let t = Instant::now();
        for (point, outcome) in entries {
            warm.insert(point, outcome.clone());
        }
        insert_us.push(us(t) / entries.len().max(1) as f64);
    }
    let sample: Vec<&DesignPoint> = last_file
        .iter()
        .step_by((last_file.len() / HIT_SAMPLE).max(1))
        .collect();
    let load = median(&load_ms);
    out.extend([
        Metric {
            name: "dse.cache.insert_us",
            value: median(&insert_us),
            unit: "us",
        },
        Metric {
            name: "dse.cache.get_hit_us",
            value: per_item_us(&sample, |p| {
                assert!(black_box(warm.get(p)).is_some(), "replayed point missing");
            }),
            unit: "us",
        },
        Metric {
            name: "dse.cache.probe_hit_us",
            value: per_item_us(&sample, |p| {
                assert!(black_box(warm.probe(p)).is_some(), "replayed point missing");
            }),
            unit: "us",
        },
        Metric {
            name: "dse.persist.load_ms",
            value: load,
            unit: "ms",
        },
        Metric {
            name: "dse.persist.load_points_per_s",
            value: loaded as f64 / (load / 1e3),
            unit: "1/s",
        },
    ]);
    let path = scratch.join("append-probe.cache");
    let mut append_ms = Vec::new();
    for _ in 0..3 {
        std::fs::remove_file(&path).ok();
        let t = Instant::now();
        CacheFile::new(&path)
            .append(entries)
            .map_err(|e| e.to_string())?;
        append_ms.push(us(t) / 1e3);
    }
    std::fs::remove_file(&path).ok();
    out.push(Metric {
        name: "dse.persist.append_ms",
        value: median(&append_ms),
        unit: "ms",
    });
    Ok(())
}

fn pareto_probe(outcomes: &[PointOutcome], out: &mut Vec<Metric>) {
    let objectives: Vec<(usize, pareto::Objectives)> = outcomes
        .iter()
        .enumerate()
        .filter_map(|(i, o)| Some((i, pareto::Objectives::from(o.result()?))))
        .collect();
    out.push(Metric {
        name: "dse.pareto.sweep_us",
        value: per_call_us(|| {
            black_box(pareto::frontier_3d(&objectives));
            black_box(pareto::frontier_accuracy(&objectives));
        }),
        unit: "us",
    });
}

/// Codec timings on the traced pass's own exchanges, plus the wire
/// sizes. Each line is encoded as `Client::request` and the daemon encode
/// it: the request with the client's correlation id, the reply echoing it.
fn protocol_probe(pass: &Pass, out: &mut Vec<Metric>) {
    let lines: Vec<(String, String)> = pass
        .captured
        .iter()
        .map(|c| {
            (
                c.request.encode_with_meta(None, Some(c.id)),
                c.response.encode_with_req(Some(c.id)),
            )
        })
        .collect();
    let bytes = |lines: Vec<usize>| {
        median(
            &lines
                .into_iter()
                .map(|n| n as f64 + 1.0)
                .collect::<Vec<_>>(),
        )
    };
    out.extend([
        Metric {
            name: "serve.protocol.request_encode_us",
            value: per_item_us(&pass.captured, |c| {
                black_box(c.request.encode_with_meta(None, Some(c.id)));
            }),
            unit: "us",
        },
        Metric {
            name: "serve.protocol.request_decode_us",
            value: per_item_us(&lines, |(line, _)| {
                black_box(Request::decode_with_meta(line)).ok();
            }),
            unit: "us",
        },
        Metric {
            name: "serve.protocol.reply_encode_us",
            value: per_item_us(&pass.captured, |c| {
                black_box(c.response.encode_with_req(Some(c.id)));
            }),
            unit: "us",
        },
        Metric {
            name: "serve.protocol.reply_decode_us",
            value: per_item_us(&lines, |(_, reply)| {
                black_box(Response::decode_with_req(reply)).ok();
            }),
            unit: "us",
        },
        Metric {
            name: "serve.protocol.request_bytes",
            value: bytes(lines.iter().map(|(line, _)| line.len()).collect()),
            unit: "bytes",
        },
        Metric {
            name: "serve.protocol.reply_bytes",
            value: bytes(lines.iter().map(|(_, reply)| reply.len()).collect()),
            unit: "bytes",
        },
    ]);
}

/// The tune probe: one tune recorded round by round in-process, then
/// timed again on the warmed cache (search cost without evaluation or
/// transport).
struct TuneProbe {
    rounds: Vec<Vec<DesignPoint>>,
    outcomes: Vec<Vec<PointOutcome>>,
    report_rounds: usize,
    report_evaluations: u64,
    search_ms: f64,
}

fn tune_probe(request: &TuneRequest) -> Result<TuneProbe, String> {
    let cache = PointCache::new();
    let threads = executor::default_threads();
    let mut rounds = Vec::new();
    let mut outcomes = Vec::new();
    let report = {
        let mut evaluator = BatchFnEvaluator::new(|points: &[DesignPoint]| {
            let before = cache.stats();
            let got = executor::run(points, threads, &cache).map_err(TuneError::from)?;
            let after = cache.stats();
            rounds.push(points.to_vec());
            outcomes.push(got.clone());
            Ok((got, after.hits - before.hits, after.misses - before.misses))
        });
        tune(request, &mut evaluator).map_err(|e| e.to_string())?
    };
    let search: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            black_box(tune(request, &mut CacheEvaluator::new(&cache, 1))).ok();
            us(t) / 1e3
        })
        .collect();
    Ok(TuneProbe {
        rounds,
        outcomes,
        report_rounds: report.rounds,
        report_evaluations: report.evaluations,
        search_ms: median(&search),
    })
}

/// Codec cost of every shard `eval_batch` exchange one tune makes (all
/// rounds, all shards), µs: `[request encode, request decode, reply
/// encode, reply decode]`.
fn shard_codec_us(probe: &TuneProbe) -> [f64; 4] {
    let mut lines: Vec<(Request, String, Response, String)> = Vec::new();
    for (points, outcomes) in probe.rounds.iter().zip(&probe.outcomes) {
        let mut parts = vec![(Vec::new(), Vec::new()); SHARDS];
        for (p, o) in points.iter().zip(outcomes) {
            let part = &mut parts[(p.content_hash() % SHARDS as u64) as usize];
            part.0.push(p.clone());
            part.1.push(o.clone());
        }
        for (points, outcomes) in parts.into_iter().filter(|(p, _)| !p.is_empty()) {
            let n = points.len() as u64;
            let request = Request::EvalBatch(points);
            let reply = Response::EvalBatch {
                outcomes,
                cache_hits: 0,
                cache_misses: n,
            };
            let line = request.encode_with_meta(None, Some(1));
            let reply_line = reply.encode_with_req(Some(1));
            lines.push((request, line, reply, reply_line));
        }
    }
    let exchanges = lines.len() as f64;
    [
        per_item_us(&lines, |(request, ..)| {
            black_box(request.encode_with_meta(None, Some(1)));
        }),
        per_item_us(&lines, |(_, line, ..)| {
            black_box(Request::decode_with_meta(line)).ok();
        }),
        per_item_us(&lines, |(_, _, reply, _)| {
            black_box(reply.encode_with_req(Some(1)));
        }),
        per_item_us(&lines, |(.., reply_line)| {
            black_box(Response::decode_with_req(reply_line)).ok();
        }),
    ]
    .map(|per_exchange| per_exchange * exchanges)
}

fn metrics_of(client: &mut Client) -> Result<Snapshot, String> {
    match client.metrics() {
        Ok(Response::Metrics { snapshot }) => Ok(snapshot),
        other => Err(format!("metrics: {other:?}")),
    }
}

/// Σ sum and Σ count of one histogram over the daemons' snapshots.
fn daemon_totals(snapshots: &[Snapshot], name: &str, labels: &[(&str, &str)]) -> (f64, u64) {
    snapshots
        .iter()
        .filter_map(|s| s.histogram(name, labels))
        .fold((0.0, 0), |(sum, n), h| (sum + h.sum as f64, n + h.count))
}

/// Mean of one daemon histogram, µs. The mean, not the p50: the
/// histograms' power-of-two buckets put a p50 at its bucket's mean.
fn daemon_mean_us(snapshots: &[Snapshot], name: &str, labels: &[(&str, &str)]) -> f64 {
    let (sum, n) = daemon_totals(snapshots, name, labels);
    sum / n as f64 / 1e3
}

/// Lockstep single evals on points just made warm through `front`.
fn eval_rtt_us(client: &mut Client, warm: &[DesignPoint]) -> Result<f64, String> {
    match client.eval_batch(warm.to_vec()) {
        Ok(Response::EvalBatch { .. }) => {}
        other => return Err(format!("warm-up batch: {other:?}")),
    }
    let mut rtts = Vec::with_capacity(warm.len());
    for p in warm {
        let t = Instant::now();
        match client.eval(p.clone()) {
            Ok(Response::Eval { .. }) => rtts.push(us(t)),
            other => return Err(format!("eval: {other:?}")),
        }
    }
    Ok(median(&rtts))
}

/// Warm `eval_batch` of one tune round through the coordinator and
/// straight to the owning daemons (one thread per daemon, as the
/// coordinator fans out). Returns `(round_us, shard_round_us)`.
fn cluster_round(
    coordinator: &mut Client,
    daemons: &[SocketAddr],
    points: &[DesignPoint],
) -> Result<(f64, f64), String> {
    let batch = |client: &mut Client, points: &[DesignPoint]| -> Result<(), String> {
        match client.eval_batch(points.to_vec()) {
            Ok(Response::EvalBatch { outcomes, .. }) if outcomes.len() == points.len() => Ok(()),
            other => Err(format!("round batch: {other:?}")),
        }
    };
    batch(coordinator, points)?;
    let mut via = Vec::with_capacity(ROUND_REPS);
    for _ in 0..ROUND_REPS {
        let t = Instant::now();
        batch(coordinator, points)?;
        via.push(us(t));
    }
    let mut parts = vec![Vec::new(); daemons.len()];
    for p in points {
        parts[(p.content_hash() % daemons.len() as u64) as usize].push(p.clone());
    }
    let mut clients: Vec<Client> = daemons
        .iter()
        .map(|a| Client::connect(a).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let mut direct = Vec::with_capacity(ROUND_REPS);
    for _ in 0..ROUND_REPS {
        let t = Instant::now();
        let results: Vec<Result<(), String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .zip(&parts)
                .filter(|(_, part)| !part.is_empty())
                .map(|(client, part)| scope.spawn(move || batch(client, part)))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("probe thread panicked".to_owned()))
                })
                .collect()
        });
        direct.push(us(t));
        results.into_iter().collect::<Result<Vec<()>, _>>()?;
    }
    Ok((median(&via), median(&direct)))
}

fn counter_sum(snapshot: &Snapshot, name: &str) -> u64 {
    snapshot
        .entries
        .iter()
        .filter(|e| e.name == name)
        .map(|e| match e.value {
            MetricValue::Counter(v) => v,
            _ => 0,
        })
        .sum()
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .map_or(f64::NAN, |m| m.value)
}

/// Runs every probe for `pass`'s workload while its daemons are up and
/// fills `pass.layers` and `pass.blocking`.
pub fn probe(
    pass: &mut Pass,
    fleet: &mut Fleet,
    client: &mut Client,
    inputs: &mut Inputs,
    files: &[(PathBuf, usize)],
    seed: u64,
    scratch: &Path,
) -> Result<(), String> {
    let workload = pass.workload;
    // Daemon histograms first, before the probes below add requests of
    // the same type.
    let snapshots: Vec<Snapshot> = fleet
        .daemons
        .iter()
        .map(|a| metrics_of(&mut Client::connect(a).map_err(|e| e.to_string())?))
        .collect::<Result<_, _>>()?;
    let labels: &[(&str, &str)] = &[("type", workload.daemon_request_type())];
    let request_us = daemon_mean_us(&snapshots, "serve_request_ns", labels);
    let (request_ns_total, _) = daemon_totals(&snapshots, "serve_request_ns", labels);
    let mut out = vec![
        Metric {
            name: "serve.server.request_us",
            value: request_us,
            unit: "us",
        },
        Metric {
            name: "serve.server.flush_us",
            value: daemon_mean_us(&snapshots, "serve_flush_ns", &[]),
            unit: "us",
        },
        Metric {
            name: "serve.scheduler.queue_wait_us",
            value: daemon_mean_us(&snapshots, "serve_queue_wait_ns", labels),
            unit: "us",
        },
        Metric {
            name: "serve.scheduler.execute_us",
            value: daemon_mean_us(&snapshots, "serve_execute_ns", labels),
            unit: "us",
        },
    ];

    // The tune probe is this seed's first `tune-cluster` tune, so every
    // workload reports the tuner and cluster layers on the same input.
    let tune_request = Inputs::new(Workload::TuneCluster, seed).next_tune();
    let tuned = tune_probe(&tune_request)?;

    // One request's worth of cold points of this workload's shape.
    let points: Vec<DesignPoint> = match workload {
        Workload::SweepCold => Inputs::new(workload, seed).next_sweep().points(),
        Workload::BatchWarm => inputs.fresh_region(),
        Workload::TuneCluster => tuned.rounds.iter().flatten().cloned().collect(),
    };
    model_stages(&points, &mut out);
    let outcomes = executor_probe(&points, &mut out);
    let entries: Vec<(DesignPoint, PointOutcome)> = points
        .iter()
        .cloned()
        .zip(outcomes.iter().cloned())
        .collect();
    let last_file = inputs
        .files
        .last()
        .expect("every workload has a cache file");
    cache_and_persist(files, last_file, &entries, scratch, &mut out)?;
    pareto_probe(&outcomes, &mut out);
    protocol_probe(pass, &mut out);
    let shard_codec = shard_codec_us(&tuned);
    let [shard_req_enc, _, shard_reply_enc, shard_reply_dec] = shard_codec;
    out.push(Metric {
        name: "serve.protocol.shard_batch_codec_us",
        value: shard_codec.iter().sum(),
        unit: "us",
    });

    let warm: Vec<DesignPoint> = inputs.fresh_region().into_iter().take(RTT_EVALS).collect();
    out.push(Metric {
        name: "serve.eval_rtt_us",
        value: eval_rtt_us(client, &warm)?,
        unit: "us",
    });
    let coordinator_addr = fleet.coordinator()?;
    let mut probe_client;
    let coordinator = if coordinator_addr == fleet.front {
        client
    } else {
        probe_client = Client::connect(coordinator_addr).map_err(|e| e.to_string())?;
        &mut probe_client
    };
    let (round_us, shard_round_us) = cluster_round(coordinator, &fleet.daemons, &tuned.rounds[0])?;
    let shard_errors = counter_sum(&metrics_of(coordinator)?, "cluster_shard_errors_total");

    let (rounds, evaluations) = if pass.tune_counts.is_empty() {
        (tuned.report_rounds as f64, tuned.report_evaluations as f64)
    } else {
        let r: Vec<f64> = pass.tune_counts.iter().map(|c| c.0 as f64).collect();
        let e: Vec<f64> = pass.tune_counts.iter().map(|c| c.1 as f64).collect();
        (median(&r), median(&e))
    };
    let looked_up = pass.hits + pass.misses;
    out.extend([
        Metric {
            name: "dse.cache.hit_ratio",
            value: if looked_up == 0 {
                0.0
            } else {
                pass.hits as f64 / looked_up as f64
            },
            unit: "ratio",
        },
        Metric {
            name: "tuner.rounds",
            value: rounds,
            unit: "count",
        },
        Metric {
            name: "tuner.evaluations",
            value: evaluations,
            unit: "count",
        },
        Metric {
            name: "tuner.search_ms",
            value: tuned.search_ms,
            unit: "ms",
        },
        Metric {
            name: "serve.cluster.round_us",
            value: round_us,
            unit: "us",
        },
        Metric {
            name: "serve.cluster.shard_round_us",
            value: shard_round_us,
            unit: "us",
        },
        Metric {
            name: "serve.failed_requests",
            value: pass.tally.failed() as f64,
            unit: "count",
        },
        Metric {
            name: "serve.cluster.shard_errors",
            value: shard_errors as f64,
            unit: "count",
        },
    ]);

    // The blocking path of one request at the client's median.
    let client_p50_us = pass.latency_ms(0.5) * 1e3;
    let v = |name| value(&out, name);
    let (enc, dec) = (
        v("serve.protocol.request_encode_us"),
        v("serve.protocol.reply_decode_us"),
    );
    let mut path: Vec<(String, f64)> = vec![
        ("client request encode".into(), enc),
        (
            "daemon request decode".into(),
            v("serve.protocol.request_decode_us"),
        ),
    ];
    let server_us = if workload == Workload::TuneCluster {
        // A round's shard requests overlap, so each shard's request time
        // also covers the other's share of the round: a tune waits for
        // about 1/SHARDS of the summed shard time. The codec outside the
        // shards runs on the fan-out threads, in parallel only as far as
        // there are cores for them.
        let per_tune = request_ns_total / 1e3 / pass.tally.ok.max(1) as f64 / SHARDS as f64;
        let parallel = SHARDS.min(executor::default_threads()) as f64;
        path.push((
            "tuner search (in-process, warm)".into(),
            v("tuner.search_ms") * 1e3,
        ));
        path.push((
            "shard eval_batch codec outside the shards".into(),
            (shard_req_enc + shard_reply_enc + shard_reply_dec) / parallel,
        ));
        path.push(("shard eval_batch server time".into(), per_tune));
        per_tune
    } else {
        path.push((
            "scheduler queue wait".into(),
            v("serve.scheduler.queue_wait_us"),
        ));
        path.push(("scheduler execute".into(), v("serve.scheduler.execute_us")));
        if workload == Workload::SweepCold {
            path.push(("pareto frontiers".into(), v("dse.pareto.sweep_us")));
        }
        path.push(("cache flush".into(), v("serve.server.flush_us")));
        request_us
    };
    path.push((
        "daemon reply encode".into(),
        v("serve.protocol.reply_encode_us"),
    ));
    path.push(("client reply decode".into(), dec));
    let attributed: f64 = path.iter().map(|(_, us)| us).sum();
    out.extend([
        Metric {
            name: "serve.transport_us",
            value: client_p50_us - server_us - enc - dec,
            unit: "us",
        },
        Metric {
            name: "serve.blocking_path_us",
            value: attributed,
            unit: "us",
        },
        Metric {
            name: "serve.unattributed_us",
            value: client_p50_us - attributed,
            unit: "us",
        },
    ]);
    pass.blocking = path;
    pass.layers = out;
    Ok(())
}
