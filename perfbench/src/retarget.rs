//! `retarget_cold`: one client compiles a seeded (core, app) draw cold in
//! a fresh session, then runs seeded frames bit-exact through `CoreSim`
//! against the `Interpreter`.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dspcc::{CompileError, CompileOptions, CompileSession, Compiled, Core};

use crate::common::{
    self, compare_counts, golden_check, golden_check_batched, median_setup, nproc, verdict, Counts,
    RunResult, SETUP_REPEATS,
};
use crate::draw::{build_cores, App, PairStream, SIZES};
use crate::layers::{self, Extras, Shape};
use crate::staged::{self, StagedMemo};
use crate::stats::{geomean, Samples, WINDOWS};
use crate::trace::Tracer;
use crate::Args;

/// Frames verified per operation.
pub const FRAMES: u32 = 400;
/// Frames per timed batch; an operation's frame time is its median batch
/// over `FRAME_BATCH`, so a preemption during the check moves one batch.
const FRAME_BATCH: usize = 50;
/// Operations whose work is counted exactly (the prefix of the stream).
pub const COUNTED_OPS: u64 = 512;
/// One operation in this many is the audio application on the audio core.
/// Its cold compile is several times the next heaviest draw, so the top
/// 1% of cold compiles is the slower half of the audio compiles: the p99
/// sits at their median, where the distribution is densest, and not on
/// their tail, which moves with every preemption.
const STRATUM: u64 = 50;
/// Operations of the fixed quality draw.
const QUALITY_OPS: u64 = 256;
/// Stream ids: the measured stream, the warm-up stream, the quality draw.
const MEASURED: u64 = 1;
const WARMUP: u64 = 2;

pub struct Setup {
    pub cores: Vec<Arc<Core>>,
    pub sources: HashMap<App, String>,
}

impl Setup {
    pub fn new(tracer: Option<&mut Tracer>) -> Setup {
        let cores = build_cores(tracer);
        let mut sources = HashMap::new();
        let mut add = |app: App| {
            sources.insert(app, app.source());
        };
        add(App::audio());
        for (family, lo, hi) in SIZES {
            for size in lo..=hi {
                add(App {
                    family,
                    size: size as usize,
                    variant: 0,
                });
            }
        }
        Setup { cores, sources }
    }
}

pub fn options() -> CompileOptions {
    CompileOptions {
        sched_threads: nproc(),
        ..CompileOptions::default()
    }
}

/// Per-run tallies of the untraced path.
#[derive(Default)]
struct Tally {
    attempted: u64,
    cold: Samples,
    frame: Samples,
    op_wall: Samples,
    frames: u64,
    /// Verify time of each checked operation, in order.
    verify: Samples,
    counts: Counts,
}

/// One untraced operation: cold compile, then the golden-model check.
fn op(
    setup: &Setup,
    stream: &mut PairStream,
    seed: u64,
    i: u64,
    opts: &CompileOptions,
    tally: &mut Tally,
    res: &mut RunResult,
) {
    let (core, app) = stream.next_pair();
    let core = &setup.cores[core];
    let source = &setup.sources[&app];
    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        CompileSession::new().compile(core, source, opts)
    }));
    let compile_time = t0.elapsed();
    tally.attempted += 1;
    let result = match result {
        Ok(r) => r,
        Err(payload) => {
            res.fail(format!(
                "op {i} {} on {}: panic: {}",
                app.name(),
                core.name,
                common::panic_text(payload.as_ref())
            ));
            return;
        }
    };
    if i < COUNTED_OPS {
        tally.counts.compile("cold", result.as_ref());
    }
    let compiled = match result {
        Ok(c) => c,
        Err(e) => {
            if let Err(msg) = verdict(&e) {
                res.fail(format!("op {i} {} on {}: {msg}", app.name(), core.name));
            }
            tally.op_wall.push(t0.elapsed());
            return;
        }
    };
    tally.cold.push(compile_time);
    let inputs = common::stimulus(&compiled, FRAMES, seed, i);
    let verify = Instant::now();
    let checked = golden_check_batched(&compiled, &inputs, FRAME_BATCH);
    let spent = verify.elapsed();
    match checked {
        Ok(mut batches) => {
            batches.sort();
            let middle = batches[batches.len() / 2].as_secs_f64();
            tally.frame.push_secs(middle / FRAME_BATCH as f64);
            tally.frames += u64::from(FRAMES);
            tally.verify.push(spent);
        }
        Err(msg) => res.fail(format!("op {i} {} on {}: {msg}", app.name(), core.name)),
    }
    tally.op_wall.push(t0.elapsed());
}

/// One traced operation through the stage functions.
#[allow(clippy::too_many_arguments)]
fn traced_op(
    setup: &Setup,
    stream: &mut PairStream,
    seed: u64,
    i: u64,
    opts: &CompileOptions,
    t: &mut Tracer,
    shape: &mut Shape,
    counts: &mut Counts,
    memo_entries: &mut u64,
    res: &mut RunResult,
) {
    let (core, app) = stream.next_pair();
    let core = &setup.cores[core];
    let source = &setup.sources[&app];
    let root = t.begin_op();
    let mut memo = StagedMemo::default();
    let mut classes = 0;
    let result = catch_unwind(AssertUnwindSafe(|| {
        staged::compile(&mut memo, t, core, source, opts, &mut classes)
    }));
    let result: Result<Compiled, CompileError> = match result {
        Ok(r) => r,
        Err(payload) => {
            res.fail(format!(
                "op {i}: panic: {}",
                common::panic_text(payload.as_ref())
            ));
            t.unwind_to(root);
            t.end_op(root, "panic");
            return;
        }
    };
    *memo_entries += memo.len() as u64;
    if i < COUNTED_OPS {
        counts.compile("cold", result.as_ref());
    }
    let class = match &result {
        Ok(c) => {
            shape.add(c, classes);
            let s = t.begin("bench.stimulus");
            let inputs = common::stimulus(c, FRAMES, seed, i);
            t.end(s);
            if let Err(msg) = golden_check(c, &inputs, Some(t)) {
                res.fail(format!("op {i} {} on {}: {msg}", app.name(), core.name));
            }
            "cold"
        }
        Err(e) => {
            if let Err(msg) = verdict(e) {
                res.fail(format!("op {i} {} on {}: {msg}", app.name(), core.name));
            }
            "verdict"
        }
    };
    t.end_op(root, class);
}

/// Quality of the generated code over a fixed draw: geometric-mean
/// schedule length of the feasible compiles and the feasible share.
fn quality(setup: &Setup, opts: &CompileOptions) -> (f64, f64) {
    let mut stream = PairStream::new(crate::QUALITY_SEED, MEASURED, setup.cores.len(), STRATUM);
    let mut cycles = Vec::new();
    for _ in 0..QUALITY_OPS {
        let (core, app) = stream.next_pair();
        if let Ok(c) = CompileSession::new().compile(&setup.cores[core], &setup.sources[&app], opts)
        {
            cycles.push(f64::from(c.cycles()));
        }
    }
    (geomean(&cycles), cycles.len() as f64 / QUALITY_OPS as f64)
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    let mut res = RunResult::default();
    let (setup_s, setup) = median_setup(SETUP_REPEATS, || Setup::new(None));
    let opts = options();
    let deadline = Duration::from_secs_f64(args.seconds);

    // Warm-up on a separate stream: lazy initialisation and allocator
    // growth are not charged to the measured operations. Its timings are
    // dropped, its failures are not.
    let mut warm = PairStream::new(args.seed, WARMUP, setup.cores.len(), STRATUM);
    for i in 0..32 {
        op(
            &setup,
            &mut warm,
            args.seed,
            i,
            &opts,
            &mut Tally::default(),
            &mut res,
        );
    }

    let mut stream = PairStream::new(args.seed, MEASURED, setup.cores.len(), STRATUM);
    let mut tally = Tally::default();
    let start = Instant::now();
    let mut i = 0u64;
    let untraced_ops = if args.trace { COUNTED_OPS } else { u64::MAX };
    while i < untraced_ops && (i < COUNTED_OPS || start.elapsed() < deadline) {
        op(
            &setup,
            &mut stream,
            args.seed,
            i,
            &opts,
            &mut tally,
            &mut res,
        );
        i += 1;
    }
    res.attempted = tally.attempted;

    if args.trace {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch);
        let root = t.begin_op();
        let _ = Setup::new(Some(&mut t));
        t.end_op(root, "setup");
        let mut stream = PairStream::new(args.seed, MEASURED, setup.cores.len(), STRATUM);
        let (mut shape, mut counts, mut memo_entries) = (Shape::default(), Counts::default(), 0u64);
        let mut n = 0u64;
        while n < COUNTED_OPS || epoch.elapsed() < deadline {
            traced_op(
                &setup,
                &mut stream,
                args.seed,
                n,
                &opts,
                &mut t,
                &mut shape,
                &mut counts,
                &mut memo_entries,
                &mut res,
            );
            n += 1;
        }
        res.attempted += n;
        compare_counts(&mut res, &tally.counts, &counts);
        let traced_wall = crate::op_wall_mean(t.spans(), &["cold", "verdict"], COUNTED_OPS);
        let extras = Extras {
            memo_entries: memo_entries as f64 / n as f64,
            trace_overhead_pct: crate::overhead_pct(tally.op_wall.mean(), traced_wall),
            ..Extras::default()
        };
        layers::report(&mut res, t.spans(), &shape, &extras);
        crate::write_spans(args, &t)?;
        res.counts = counts;
        return Ok(res);
    }

    let (cold_p50, cold_p99) = tally.cold.p50_p99("cold compile", WINDOWS)?;
    let (frame_p50, frame_p99) = tally.frame.p50_p99("verified frame", WINDOWS)?;
    let frames_per_s = tally
        .verify
        .rate(f64::from(FRAMES), WINDOWS)
        .ok_or("no operation was verified")?;
    let (cycles_geomean, feasible) = quality(&setup, &opts);
    res.metric("setup_s", setup_s, "s");
    res.metric("latency_p50_ms", cold_p50 * 1e3, "ms");
    res.metric("latency_p99_ms", cold_p99 * 1e3, "ms");
    res.metric("inner_p50_us", frame_p50 * 1e6, "us");
    res.metric("inner_p99_us", frame_p99 * 1e6, "us");
    res.metric("throughput_per_s", frames_per_s, "1/s");
    res.metric("peak_rss_mb", common::peak_rss_mb(), "MB");
    res.metric("sched_cycles_geomean", cycles_geomean, "cycles");
    res.metric("feasible_share", feasible, "ratio");
    res.report.push(format!(
        "retarget_cold: {} ops, {} feasible cold compiles, {} frames verified",
        tally.attempted,
        tally.cold.len(),
        tally.frames
    ));
    res.report
        .push(format!("  cold_compile_p50_ms   {:.4} ms", cold_p50 * 1e3));
    res.report.push(format!(
        "  cold_compile_p99_ms   {:.4} ms  (n = {})",
        cold_p99 * 1e3,
        tally.cold.len()
    ));
    res.report.push(format!(
        "  verify_frames_per_s   {frames_per_s:.1} frames/s"
    ));
    res.report.push(format!(
        "  frame_p50_us          {:.4} us  (n = {} ops)",
        frame_p50 * 1e6,
        tally.frame.len()
    ));
    res.report.push(format!(
        "  sched_cycles_geomean  {cycles_geomean:.4} cycles  (fixed draw of {QUALITY_OPS})"
    ));
    res.report
        .push(format!("  feasible_share        {feasible:.4}"));
    res.counts = tally.counts;
    Ok(res)
}
