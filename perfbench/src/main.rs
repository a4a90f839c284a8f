//! The dspcc benchmark binary.
//!
//! ```text
//! perfbench --workload <retarget_cold|design_iteration|service_mixed>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--out-dir <dir>] [--work-dir <dir>]
//! ```
//!
//! Prints a human-readable report, then one JSON line with `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics untraced,
//! per-layer metrics traced) followed by `counts`, the exact-repeat work
//! counts. Exits 1 when any operation failed. `perfbench/run.py` builds
//! and wraps this binary; see `perfbench/README.md`.

mod common;
mod draw;
mod iterate;
mod layers;
mod os;
mod retarget;
mod service;
mod staged;
mod stats;
mod trace;

use std::path::PathBuf;

use common::RunResult;
use trace::{Span, Tracer};

/// Seed of the fixed quality draws (`sched_cycles_geomean`,
/// `feasible_share`), independent of `--seed` so the values repeat.
pub const QUALITY_SEED: u64 = 0x51_7E;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the span file goes.
    pub out_dir: PathBuf,
    /// Scratch space (the service's disk cache).
    pub work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let mut out_dir = PathBuf::from(".bench_results");
    let mut work_dir = PathBuf::from(".bench_work");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad("a number"))?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out-dir" => out_dir = PathBuf::from(&value),
            "--work-dir" => work_dir = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        out_dir,
        work_dir,
    };
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

/// Mean duration of the first `n` operation roots whose class is one of
/// `classes`, in seconds.
pub fn op_wall_mean(spans: &[Span], classes: &[&str], n: u64) -> f64 {
    let walls: Vec<f64> = spans
        .iter()
        .filter(|s| s.parent.is_none() && classes.contains(&s.class))
        .take(n as usize)
        .map(|s| s.duration().as_secs_f64())
        .collect();
    walls.iter().sum::<f64>() / walls.len().max(1) as f64
}

/// Traced over untraced operation time, as a percentage overhead.
pub fn overhead_pct(untraced: f64, traced: f64) -> f64 {
    if untraced > 0.0 {
        (traced / untraced - 1.0) * 100.0
    } else {
        0.0
    }
}

pub fn write_spans(args: &Args, tracer: &Tracer) -> Result<(), String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let path = args
        .out_dir
        .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "spans: {} written to {}",
        tracer.spans().len(),
        path.display()
    );
    Ok(())
}

/// A JSON number with all its digits (non-finite values become 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

fn json_line(res: &RunResult, correct: bool) -> String {
    let metrics: Vec<String> = res
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        res.attempted.max(1),
        res.failures.len(),
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let run = match args.workload.as_str() {
        "retarget_cold" => retarget::run(&args),
        "design_iteration" => iterate::run(&args),
        "service_mixed" => service::run(&args),
        other => Err(format!("unknown workload `{other}`")),
    };
    let res = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} threads {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        common::nproc()
    );
    for line in &res.report {
        println!("{line}");
    }
    println!("exact-repeat counts:");
    for line in res.counts.lines() {
        println!("{line}");
    }
    for f in res.failures.iter().take(20) {
        eprintln!("FAILED: {f}");
    }
    let correct = res.failures.is_empty();
    println!(
        "failed share: {} of {} operations",
        res.failures.len(),
        res.attempted
    );
    println!("counts: {}", res.counts.json());
    println!("{}", json_line(&res, correct));
    std::process::exit(if correct { 0 } else { 1 });
}
