//! `design_iteration`: the figure-1 loop in one long-lived session. Each
//! round compiles a fresh (core, app) once, steps through schedule-option
//! variants (a budget ladder toward the bound, restart counts, list
//! scheduling under two priorities) and then re-requests variants already
//! seen. Operations are classed by the stage hits the session reports.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dspcc::arch::SplitMix64;
use dspcc::sched::list::Priority;
use dspcc::{CompileError, CompileOptions, CompileSession, Compiled, Core};

use crate::common::{
    self, compare_counts, diverges, golden_check, median_setup, nproc, verdict, Counts, RunResult,
    SETUP_REPEATS,
};
use crate::draw::{build_cores, PairStream};
use crate::layers::{self, Extras, Shape};
use crate::staged::{self, StagedMemo};
use crate::stats::{geomean, Samples, WINDOWS};
use crate::trace::{child_time_of_class, Tracer};
use crate::Args;

/// Rounds one session lives for; the next round opens a fresh session
/// (a new design project), which bounds the memo a run can grow.
pub const ROUNDS_PER_SESSION: u64 = 128;
/// One round in this many is the audio application on the audio core.
/// Its compacted reschedules are several times the next heaviest, about
/// 2% of all reschedules, so the reschedule p99 sits inside them and not
/// on their tail.
const STRATUM: u64 = 32;
/// Rounds whose work is counted exactly.
pub const COUNTED_ROUNDS: u64 = 64;
/// Every Nth scored operation is checked against a cold compile.
const CHECK_EVERY: u64 = 16;
const CHECK_FRAMES: u32 = 16;
/// Variants re-requested at the end of each round.
const REREQUESTS: usize = 6;
const QUALITY_ROUNDS: u64 = 16;
const MEASURED: u64 = 3;
const WARMUP: u64 = 4;

pub fn base_options() -> CompileOptions {
    CompileOptions {
        sched_threads: nproc(),
        ..CompileOptions::default()
    }
}

/// The round's option variants after a base compile of `cycles` cycles
/// with schedule-length lower bound `bound`.
pub fn variants(base: &CompileOptions, cycles: u32, bound: u32) -> Vec<CompileOptions> {
    let gap = cycles.saturating_sub(bound);
    let mut budgets = vec![
        cycles,
        cycles - gap.div_ceil(3),
        cycles - (2 * gap).div_ceil(3),
        bound,
    ];
    budgets.dedup();
    let mut out: Vec<CompileOptions> = budgets
        .into_iter()
        .map(|b| CompileOptions {
            budget: Some(b),
            ..base.clone()
        })
        .collect();
    for restarts in [2, 12] {
        out.push(CompileOptions {
            restarts,
            ..base.clone()
        });
    }
    // Two priorities keep the cheap list-scheduled variants a minority of
    // the reschedules, so their median stays inside one cluster.
    for priority in [Priority::Alap, Priority::CriticalPath] {
        out.push(CompileOptions {
            compaction: false,
            priority,
            ..base.clone()
        });
    }
    out
}

/// Operation class from the outcome: a reschedule hits the four stages
/// up to the analysis, a full hit all seven.
pub fn class_of(result: &Result<Compiled, CompileError>) -> &'static str {
    match result {
        Ok(c) if c.stats.cache_hits == 7 => "hit",
        Ok(c) if c.stats.cache_hits == 4 => "reschedule",
        Ok(c) if c.stats.cache_hits == 0 => "cold",
        Ok(_) => "other",
        Err(_) => "verdict",
    }
}

/// The compile path a round runs on: the real session, or the traced
/// stage functions over the benchmark's own memo.
enum Compiler<'t> {
    Session(CompileSession),
    Traced(StagedMemo, &'t mut Tracer, Shape),
}

impl Compiler<'_> {
    fn fresh(&mut self) {
        match self {
            Compiler::Session(s) => *s = CompileSession::new(),
            Compiler::Traced(m, _, _) => *m = StagedMemo::default(),
        }
    }

    fn memo_entries(&self) -> usize {
        match self {
            Compiler::Session(s) => s.cached_artifacts(),
            Compiler::Traced(m, _, _) => m.len(),
        }
    }

    /// One compile; returns the outcome and its wall time (untraced).
    fn compile(
        &mut self,
        core: &Arc<Core>,
        source: &str,
        opts: &CompileOptions,
    ) -> (Result<Compiled, CompileError>, Duration) {
        match self {
            Compiler::Session(s) => {
                let t = Instant::now();
                let r = s.compile(core, source, opts);
                (r, t.elapsed())
            }
            Compiler::Traced(memo, t, shape) => {
                let root = t.begin_op();
                let mut classes = 0;
                let r = staged::compile(memo, t, core, source, opts, &mut classes);
                if let Ok(c) = &r {
                    shape.add(c, classes);
                }
                t.end_op(root, class_of(&r));
                (r, Duration::ZERO)
            }
        }
    }
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    scored: u64,
    reschedule: Samples,
    hit: Samples,
    /// Wall time of every compile, in order.
    compile: Samples,
    counts: Counts,
}

/// Runs round `r`: base compile, variants, re-requests, checks.
#[allow(clippy::too_many_arguments)]
fn round(
    cores: &[Arc<Core>],
    stream: &mut PairStream,
    seed: u64,
    r: u64,
    compiler: &mut Compiler,
    tally: &mut Tally,
    res: &mut RunResult,
) {
    if r.is_multiple_of(ROUNDS_PER_SESSION) {
        compiler.fresh();
    }
    let (core, app) = stream.next_pair();
    let core = &cores[core];
    let app = app.with_variant(r + 1);
    let source = app.source();
    let base = base_options();
    let counted = r < COUNTED_ROUNDS;
    let mut rng = SplitMix64::substream(seed ^ 0xD1, r);

    let run =
        |compiler: &mut Compiler, opts: &CompileOptions, tally: &mut Tally, res: &mut RunResult| {
            let outcome = catch_unwind(AssertUnwindSafe(|| compiler.compile(core, &source, opts)));
            tally.attempted += 1;
            let (result, wall) = match outcome {
                Ok(o) => o,
                Err(payload) => {
                    res.fail(format!(
                        "round {r} {} on {}: panic: {}",
                        app.name(),
                        core.name,
                        common::panic_text(payload.as_ref())
                    ));
                    return None;
                }
            };
            let class = class_of(&result);
            tally.compile.push(wall);
            if counted {
                tally.counts.compile(class, result.as_ref());
            }
            match &result {
                Ok(_) if class == "reschedule" => tally.reschedule.push(wall),
                Ok(_) if class == "hit" => tally.hit.push(wall),
                Err(e) => {
                    if let Err(msg) = verdict(e) {
                        res.fail(format!("round {r} {} on {}: {msg}", app.name(), core.name));
                    }
                }
                _ => {}
            }
            if matches!(class, "reschedule" | "hit") {
                tally.scored += 1;
                if let Ok(c) = &result {
                    if tally.scored.is_multiple_of(CHECK_EVERY) {
                        check(compiler, core, &source, opts, c, seed, tally.scored, res);
                    }
                }
            }
            result.ok()
        };

    let Some(first) = run(compiler, &base, tally, res) else {
        return;
    };
    let mut seen = vec![base.clone()];
    for opts in variants(&base, first.cycles(), first.schedule_bound) {
        if run(compiler, &opts, tally, res).is_some() {
            seen.push(opts);
        }
    }
    for _ in 0..REREQUESTS {
        let opts = rng.pick(&seen).clone();
        run(compiler, &opts, tally, res);
    }
}

/// Compares a warm artifact with a cold compile of the same variant and
/// runs frames of it against the golden model, outside the timed region.
#[allow(clippy::too_many_arguments)]
fn check(
    compiler: &mut Compiler,
    core: &Arc<Core>,
    source: &str,
    opts: &CompileOptions,
    warm: &Compiled,
    seed: u64,
    n: u64,
    res: &mut RunResult,
) {
    let cold = match CompileSession::new().compile(core, source, opts) {
        Ok(c) => c,
        Err(e) => {
            res.fail(format!(
                "check {n}: warm artifact served where a cold compile fails: {e}"
            ));
            return;
        }
    };
    if let Some(what) = diverges(&cold, warm) {
        res.fail(format!("check {n} on {}: warm vs cold: {what}", core.name));
    }
    let inputs = common::stimulus(warm, CHECK_FRAMES, seed, n);
    let outcome = match compiler {
        Compiler::Session(_) => golden_check(warm, &inputs, None),
        Compiler::Traced(_, t, _) => {
            let root = t.begin_op();
            let outcome = golden_check(warm, &inputs, Some(t));
            t.end_op(root, "check");
            outcome
        }
    };
    if let Err(msg) = outcome {
        res.fail(format!("check {n} on {}: {msg}", core.name));
    }
}

fn quality(cores: &[Arc<Core>]) -> (f64, f64) {
    let mut stream = PairStream::new(crate::QUALITY_SEED, MEASURED, cores.len(), STRATUM);
    let session = CompileSession::new();
    let base = base_options();
    let (mut cycles, mut attempts) = (Vec::new(), 0u64);
    for r in 0..QUALITY_ROUNDS {
        let (core, app) = stream.next_pair();
        let source = app.with_variant(r + 1).source();
        let core = &cores[core];
        attempts += 1;
        let Ok(first) = session.compile(core, &source, &base) else {
            continue;
        };
        cycles.push(f64::from(first.cycles()));
        for opts in variants(&base, first.cycles(), first.schedule_bound) {
            attempts += 1;
            if let Ok(c) = session.compile(core, &source, &opts) {
                cycles.push(f64::from(c.cycles()));
            }
        }
    }
    (geomean(&cycles), cycles.len() as f64 / attempts as f64)
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    let mut res = RunResult::default();
    let (setup_s, cores) = median_setup(SETUP_REPEATS, || build_cores(None));
    let deadline = Duration::from_secs_f64(args.seconds);

    // Warm-up rounds: their timings are dropped, their failures are not.
    let mut warm = PairStream::new(args.seed, WARMUP, cores.len(), STRATUM);
    let mut compiler = Compiler::Session(CompileSession::new());
    for r in 0..4 {
        round(
            &cores,
            &mut warm,
            args.seed,
            r,
            &mut compiler,
            &mut Tally::default(),
            &mut res,
        );
    }

    let mut stream = PairStream::new(args.seed, MEASURED, cores.len(), STRATUM);
    let mut compiler = Compiler::Session(CompileSession::new());
    let mut tally = Tally::default();
    let start = Instant::now();
    let mut r = 0u64;
    let untraced_rounds = if args.trace { COUNTED_ROUNDS } else { u64::MAX };
    while r < untraced_rounds && (r < COUNTED_ROUNDS || start.elapsed() < deadline) {
        round(
            &cores,
            &mut stream,
            args.seed,
            r,
            &mut compiler,
            &mut tally,
            &mut res,
        );
        if r + 1 == COUNTED_ROUNDS {
            tally
                .counts
                .add("memo_entries", compiler.memo_entries() as u64);
        }
        r += 1;
    }
    res.attempted = tally.attempted;
    drop(compiler);

    if args.trace {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch);
        let root = t.begin_op();
        let _ = build_cores(Some(&mut t));
        t.end_op(root, "setup");
        let mut stream = PairStream::new(args.seed, MEASURED, cores.len(), STRATUM);
        let mut compiler = Compiler::Traced(StagedMemo::default(), &mut t, Shape::default());
        let mut traced = Tally::default();
        let mut r = 0u64;
        let mut memo_entries = 0.0;
        while r < COUNTED_ROUNDS || epoch.elapsed() < deadline {
            round(
                &cores,
                &mut stream,
                args.seed,
                r,
                &mut compiler,
                &mut traced,
                &mut res,
            );
            if r + 1 == COUNTED_ROUNDS {
                memo_entries = compiler.memo_entries() as f64;
                traced
                    .counts
                    .add("memo_entries", compiler.memo_entries() as u64);
            }
            r += 1;
        }
        let Compiler::Traced(_, t, shape) = compiler else {
            unreachable!("the traced pass runs on the traced compiler")
        };
        res.attempted += traced.attempted;
        compare_counts(&mut res, &tally.counts, &traced.counts);
        let (hits, fp_and_keys) =
            child_time_of_class(t.spans(), "hit", &["session.source_fp", "session.keys"]);
        let lookup_us = (tally.hit.mean() - fp_and_keys / hits.max(1) as f64) * 1e6;
        let untraced_mean = tally.compile.mean();
        let traced_mean = crate::op_wall_mean(
            t.spans(),
            &["base", "cold", "reschedule", "hit", "other", "verdict"],
            tally.compile.len() as u64,
        );
        let extras = Extras {
            memo_entries,
            trace_overhead_pct: crate::overhead_pct(untraced_mean, traced_mean),
            lookup_us: Some(lookup_us),
            ..Extras::default()
        };
        layers::report(&mut res, t.spans(), &shape, &extras);
        crate::write_spans(args, t)?;
        res.counts = traced.counts;
        return Ok(res);
    }

    let (resched_p50, resched_p99) = tally.reschedule.p50_p99("reschedule", WINDOWS)?;
    let (hit_p50, hit_p99) = tally.hit.p50_p99("full hit", WINDOWS)?;
    let ops_per_s = tally
        .compile
        .rate(1.0, WINDOWS)
        .ok_or("no compile was timed")?;
    let (cycles_geomean, feasible) = quality(&cores);
    res.metric("setup_s", setup_s, "s");
    res.metric("latency_p50_ms", resched_p50 * 1e3, "ms");
    res.metric("latency_p99_ms", resched_p99 * 1e3, "ms");
    res.metric("inner_p50_us", hit_p50 * 1e6, "us");
    res.metric("inner_p99_us", hit_p99 * 1e6, "us");
    res.metric("throughput_per_s", ops_per_s, "1/s");
    res.metric("peak_rss_mb", common::peak_rss_mb(), "MB");
    res.metric("sched_cycles_geomean", cycles_geomean, "cycles");
    res.metric("feasible_share", feasible, "ratio");
    res.report.push(format!(
        "design_iteration: {r} rounds, {} compiles, {} reschedules, {} full hits",
        tally.compile.len(),
        tally.reschedule.len(),
        tally.hit.len()
    ));
    res.report.push(format!(
        "  reschedule_p50_ms     {:.4} ms",
        resched_p50 * 1e3
    ));
    res.report.push(format!(
        "  reschedule_p99_ms     {:.4} ms  (n = {})",
        resched_p99 * 1e3,
        tally.reschedule.len()
    ));
    res.report
        .push(format!("  hit_p50_us            {:.4} us", hit_p50 * 1e6));
    res.report.push(format!(
        "  hit_p99_us            {:.4} us  (n = {})",
        hit_p99 * 1e6,
        tally.hit.len()
    ));
    res.report
        .push(format!("  compiles_per_s        {ops_per_s:.1} 1/s"));
    res.report.push(format!("  sched_cycles_geomean  {cycles_geomean:.4} cycles  (fixed draw of {QUALITY_ROUNDS} rounds)"));
    res.report
        .push(format!("  feasible_share        {feasible:.4}"));
    res.counts = tally.counts;
    Ok(res)
}
