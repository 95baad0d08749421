//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one closed-loop workload against daemons hosted in this process
//! and prints a report, then one JSON line: the end-to-end metrics with
//! `--trace 0`, the per-layer table with `--trace 1`. Exits 1 when any
//! request fails (a `busy` or `error` reply, a transport error, or a
//! reply that fails its output check) or a metric could not be measured,
//! 2 when the run cannot be made at all.
//! See `NOTES.md` beside this package for the design.
//!
//! `perfbench --generate <workload> <seed> <dir>` writes that run's
//! seeded cache files into `dir`; a pass runs it as a child process.

mod fleet;
mod gen;
mod layers;
mod pass;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use gen::Workload;
use layers::Metric;
use pass::Pass;
use stats::{beyond, median, quantile};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    format!("unknown workload '{value}' (sweep-cold | batch-warm | tune-cluster)")
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds '{value}'"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds {s} out of range (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// CPUs the host has, whatever this process is pinned to.
fn host_cpus() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|info| info.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn end_to_end(pass: &Pass) -> Vec<Metric> {
    vec![
        Metric {
            name: "setup_s",
            value: median(&pass.setup_s),
            unit: "s",
        },
        Metric {
            name: "requests_per_s",
            value: pass.requests_per_s(),
            unit: "1/s",
        },
        Metric {
            name: "latency_p50_ms",
            value: pass.latency_ms(0.5),
            unit: "ms",
        },
        Metric {
            name: "latency_p90_ms",
            value: pass.latency_ms(0.9),
            unit: "ms",
        },
        Metric {
            name: "peak_rss_mb",
            value: pass.peak_rss_mb,
            unit: "MB",
        },
    ]
}

fn report(label: &str, pass: &Pass) {
    let t = &pass.tally;
    let all = pass.latencies_ms();
    println!(
        "[{label}] requests: attempted={} ok={} busy={} error={} transport={} wrong={}",
        t.attempted, t.ok, t.busy, t.error, t.transport, t.wrong
    );
    for why in &pass.wrong {
        println!("[{label}]   failure: {why}");
    }
    println!(
        "[{label}] whole run, {} requests in {:.3} s: p50 {:.4} ms ({} samples beyond), p90 {:.4} ms ({} beyond), p99 {:.4} ms ({} beyond, not gated)",
        all.len(),
        pass.elapsed_s,
        quantile(&all, 0.5),
        beyond(&all, 0.5),
        quantile(&all, 0.9),
        beyond(&all, 0.9),
        quantile(&all, 0.99),
        beyond(&all, 0.99),
    );
    for (i, w) in pass.windows().iter().enumerate() {
        println!(
            "[{label}] window {i} ({:.2} s): {} requests, {:.3} req/s, p50 {:.4} ms, p90 {:.4} ms ({} beyond)",
            w.span_s,
            w.latencies_ms.len(),
            w.ok as f64 / w.span_s,
            quantile(&w.latencies_ms, 0.5),
            quantile(&w.latencies_ms, 0.9),
            beyond(&w.latencies_ms, 0.9),
        );
    }
    println!(
        "[{label}] setup_s: median of {} set-ups = {:.6} (each: {})",
        pass.setup_s.len(),
        median(&pass.setup_s),
        pass.setup_s
            .iter()
            .map(|s| format!("{s:.6}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
}

/// The result line, with the requests of every pass of the run. A run is
/// correct only when every request succeeded and every metric has a
/// value; JSON has no NaN, so a metric without one is written as `null`.
fn json(passes: &[&Pass], metrics: &[Metric]) -> (bool, String) {
    let attempted: u64 = passes.iter().map(|p| p.tally.attempted).sum();
    let failed: u64 = passes.iter().map(|p| p.tally.failed()).sum();
    let correct = failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = match m.value.is_finite() {
                true => m.value.to_string(),
                false => "null".to_owned(),
            };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    (correct, line)
}

fn run(args: &Args, scratch: &std::path::Path) -> Result<(bool, String), String> {
    let name = args.workload.name();
    println!(
        "perfbench: workload={name} seed={} seconds={} trace={} nproc={} host_cpus={} cpu=\"{}\"",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        chain_nn_dse::executor::default_threads(),
        host_cpus(),
        cpu_model()
    );
    // A traced run splits its time between an untraced and a traced
    // pass, so its total measuring time is the same `--seconds`.
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let untraced = pass::run(args.workload, args.seed, seconds, false, scratch)?;
    report("untraced", &untraced);
    let e2e = end_to_end(&untraced);
    if !args.trace {
        for m in &e2e {
            println!("[untraced] {name} {} = {} {}", m.name, m.value, m.unit);
        }
        return Ok(json(&[&untraced], &e2e));
    }
    let traced = pass::run(args.workload, args.seed, seconds, true, scratch)?;
    report("traced", &traced);
    let traced_e2e = end_to_end(&traced);
    // Both passes run the same timed loop; the traced one only keeps
    // its first exchanges for the codec probes.
    println!("end-to-end, untraced vs traced (the difference is run-to-run noise):");
    for (u, t) in e2e.iter().zip(&traced_e2e) {
        println!(
            "  {name} {:<16} {:>14.6} {:>14.6} {}",
            u.name, u.value, t.value, u.unit
        );
    }
    let layers = &traced.layers;
    let p50_ms = traced.latency_ms(0.5);
    println!("per-layer ({name}, seed {}):", args.seed);
    for m in layers {
        println!("  {:<38} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("blocking path of one {name} request at the client p50:");
    let stages = traced
        .blocking
        .iter()
        .map(|(stage, us)| (stage.as_str(), *us));
    let attributed: f64 = traced.blocking.iter().map(|(_, us)| us).sum();
    for (stage, us) in stages.chain([
        ("sum", attributed),
        ("latency_p50 (traced)", p50_ms * 1e3),
        ("unattributed remainder", p50_ms * 1e3 - attributed),
    ]) {
        println!("  {stage:<44} {us:>12.1} us");
    }
    Ok(json(&[&untraced, &traced], layers))
}

fn generate(args: &[String]) -> Result<(), String> {
    let [workload, seed, dir] = args else {
        return Err("--generate takes <workload> <seed> <dir>".to_owned());
    };
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload '{workload}'"))?;
    let seed = seed.parse().map_err(|_| format!("bad seed '{seed}'"))?;
    gen::write_cache_files(workload, seed, std::path::Path::new(dir)).map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--generate") {
        return match generate(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench --generate: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Scratch files live inside the checkout, removed when the run ends.
    let scratch = PathBuf::from(".bench_scratch").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let outcome = run(&args, &scratch);
    std::fs::remove_dir_all(&scratch).ok();
    match outcome {
        Ok((correct, line)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
