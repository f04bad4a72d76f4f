//! Benchmark of the master-slave scheduling workspace.
//!
//! ```text
//! perfbench --workload <paper-grid|stream-wide|dynamic-sweep> --seed <n>
//!           --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! A run repeats passes of the workload until `--seconds` have elapsed
//! (at least [`MIN_PASSES`]). Throughputs are a pass's work over the
//! summed fastest time of each timed unit of work ([`per_second`]);
//! set-up and resume times come from the [`fastest`] pass. With
//! `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! alternates untraced and traced passes, prints the per-layer metrics of
//! the traced ones, and writes the last traced pass's spans to
//! `<out>/trace-<workload>-seed<n>.jsonl`. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod check;
mod exec;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{run_pass, Ctx, Pass, WORKLOADS};

/// Passes a run makes even when one pass outlasts `--seconds`.
const MIN_PASSES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: check::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from(".bench_build/perfbench"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Median of `xs` (sorts in place); 0 for an empty slice.
pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    match xs.len() {
        0 => 0.0,
        n if n % 2 == 1 => xs[n / 2],
        n => 0.5 * (xs[n / 2 - 1] + xs[n / 2]),
    }
}

/// Nearest-rank percentile of sorted `xs`; 0 for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nanoseconds per iteration of a fixed integer loop: a host speed
/// reference, so a slower host can be told apart from a slower program.
fn calibration_ns() -> f64 {
    const ITERS: u64 = 20_000_000;
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15u64);
            for _ in 0..ITERS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            std::hint::black_box(x);
            t0.elapsed().as_nanos() as f64 / ITERS as f64
        })
        .collect();
    median(&mut samples)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `nproc`, CPU model, compiler and calibration speed, as a JSON object.
fn host_fingerprint(threads: usize) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\":{threads},\"cpu\":{},\"rustc\":{},\"calibration_ns_per_iter\":{}}}",
        json_str(&cpu),
        json_str(env!("PERFBENCH_RUSTC")),
        calibration_ns()
    )
}

/// Resident high-water mark of this process (VmHWM), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn median_of(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    let mut xs: Vec<f64> = passes.iter().map(f).collect();
    median(&mut xs)
}

/// Smallest value of `f` over the passes. Set-up and resume take
/// milliseconds or less, and on a shared host other tenants' load only
/// ever slows them, in bursts that come and go over seconds: the fastest
/// pass is the steadiest reading of such a short timing.
fn fastest(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    passes.iter().map(f).fold(f64::INFINITY, f64::min)
}

/// Work completed per second of cold work: `count` per pass over the
/// summed fastest time of each timed unit across the passes. Other
/// tenants' load only ever slows a unit, and comes and goes in bursts;
/// a unit lasts a fraction of a second, so some pass of a run times each
/// one in a quiet moment even when no whole pass is quiet.
fn per_second(passes: &[Pass], count: impl Fn(&Pass) -> u64) -> f64 {
    let work: f64 = (0..passes[0].units.len())
        .map(|u| fastest(passes, |p| p.units[u]))
        .sum();
    count(&passes[0]) as f64 / work
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let host = host_fingerprint(threads);
    println!("host {host}");
    let ctx = Ctx {
        seed: args.seed,
        threads,
        out: args.out.clone(),
    };

    let start = Instant::now();
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut layers = Vec::new();
    while plain.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        let mut p = run_pass(&args.workload, &ctx, false);
        eprintln!(
            "pass {}: setup {:.6}s work {:.6}s resume {:.6}s",
            plain.len(),
            p.setup_s,
            p.work_s,
            p.resume_s
        );
        // Only the first pass's results feed the self-test; dropping the
        // rest keeps the resident peak independent of the pass count.
        if !plain.is_empty() {
            p.results = Vec::new();
        }
        plain.push(p);
        if args.trace {
            let mut p = run_pass(&args.workload, &ctx, true);
            p.results = Vec::new();
            layers.extend(p.traced.as_ref().map(workloads::layer_metrics));
            if let Some(t) = traced.last_mut().and_then(|t: &mut Pass| t.traced.as_mut()) {
                t.recorders = Vec::new();
            }
            traced.push(p);
        }
    }

    let mut checks = check::Checks::default();
    let self_test = workloads::self_test(&plain[0]);
    checks.op(self_test, || {
        "self-test: a flipped result bit went unreported".into()
    });
    let digest = plain[0].digest;
    for p in &plain {
        checks.op(
            (p.tasks, p.cells, p.units.len())
                == (plain[0].tasks, plain[0].cells, plain[0].units.len()),
            || "passes differ in tasks, cells or timed units".into(),
        );
    }
    for p in plain.iter().chain(&traced) {
        checks.digest(&args.workload, args.seed, p.digest);
        checks.op(p.digest == digest, || {
            format!("pass digest {:016x} differs from {digest:016x}", p.digest)
        });
        checks.absorb(&p.checks);
        if let Some(t) = &p.traced {
            let done = t.tally.counters.computes_completed;
            checks.op(done == p.tasks, || {
                format!("{done} tasks completed, {} released", p.tasks)
            });
        }
    }

    let mut metrics: BTreeMap<String, (f64, &'static str)> = BTreeMap::new();
    if args.trace {
        for name in layers[0].keys() {
            let mut xs: Vec<f64> = layers.iter().map(|m| m[name].0).collect();
            metrics.insert(name.clone(), (median(&mut xs), layers[0][name].1));
        }
        let overhead = median_of(&traced, Pass::wall_s) - median_of(&plain, Pass::wall_s);
        metrics.insert("trace_overhead_s".into(), (overhead, "s"));
        let last = traced.last().and_then(|p| p.traced.as_ref());
        if let Some(t) = last {
            let path = args
                .out
                .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
            if let Err(e) = trace::write_spans(&path, &format!("{{\"host\":{host}}}"), &t.recorders)
            {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
    } else {
        let put = |m: &mut BTreeMap<_, _>, k: &str, v: f64, u| {
            m.insert(k.to_string(), (v, u));
        };
        put(&mut metrics, "setup_s", fastest(&plain, |p| p.setup_s), "s");
        put(
            &mut metrics,
            "tasks_per_s",
            per_second(&plain, |p| p.tasks),
            "1/s",
        );
        put(
            &mut metrics,
            "cells_per_s",
            per_second(&plain, |p| p.cells),
            "1/s",
        );
        put(
            &mut metrics,
            "resume_s",
            fastest(&plain, |p| p.resume_s),
            "s",
        );
        put(&mut metrics, "peak_rss_mb", peak_rss_mb(), "MiB");
    }

    for (name, (v, _)) in &metrics {
        checks.op(v.is_finite(), || format!("{name} is not a finite number"));
    }
    let passes = plain.len() + traced.len();
    eprintln!(
        "perfbench {} seed {}: {passes} passes in {:.1}s, digest {digest:016x}",
        args.workload,
        args.seed,
        start.elapsed().as_secs_f64()
    );
    for (name, (v, unit)) in &metrics {
        eprintln!("  {name:<28} {v:>16.6} {unit}");
    }
    eprintln!(
        "  {:<28} {:>16.6} ratio ({} of {} operations)",
        "failed_ratio",
        checks.failed as f64 / checks.attempted as f64,
        checks.failed,
        checks.attempted
    );
    for n in &checks.notes {
        eprintln!("  FAILED: {n}");
    }

    let body: Vec<String> = metrics
        .iter()
        .map(|(k, (v, u))| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(k),
                json_str(u)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
