//! Pieces every workload shares: outcome classification, the golden-model
//! check, artifact comparison, exact-repeat counts and the run result.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dspcc::arch::{Fnv64, SplitMix64};
use dspcc::dfg::Interpreter;
use dspcc::{CompileError, Compiled};

use crate::trace::Tracer;

/// A compile error is either a typed infeasibility verdict (a correct
/// answer) or a failed operation.
pub fn verdict(e: &CompileError) -> Result<&'static str, String> {
    match e {
        CompileError::Lower(_) => Ok("Lower"),
        CompileError::Schedule(_) => Ok("Schedule"),
        CompileError::RegAlloc(_) => Ok("RegAlloc"),
        CompileError::ProgramTooLong { .. } => Ok("ProgramTooLong"),
        other => Err(other.to_string()),
    }
}

pub fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

/// Seeded stimulus frames for `compiled`, full word range.
pub fn stimulus(compiled: &Compiled, frames: u32, seed: u64, op: u64) -> Vec<Vec<i64>> {
    let mut rng = SplitMix64::substream(seed ^ 0x57_1A, op);
    let format = compiled.core.format;
    let lo = format.min_value();
    let span = (format.max_value() - lo + 1) as u64;
    let ports = compiled.dfg.input_ports().len();
    (0..frames)
        .map(|_| {
            (0..ports)
                .map(|_| lo + (rng.next_u64() % span) as i64)
                .collect()
        })
        .collect()
}

/// Runs `inputs` through `CoreSim` and the `Interpreter` and compares
/// every output bit-exact. With a tracer, the interpreter frames, the
/// simulator build and the simulator frames are one span each.
pub fn golden_check(
    compiled: &Compiled,
    inputs: &[Vec<i64>],
    mut tracer: Option<&mut Tracer>,
) -> Result<(), String> {
    let calls = inputs.len() as u32;
    let mut interp = Interpreter::new(&compiled.dfg, compiled.core.format);
    let expected = in_span(&mut tracer, "dfg.interp_step", calls, || {
        inputs
            .iter()
            .map(|frame| interp.try_step(frame))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("golden model rejected the stimulus: {e}"))
    })?;
    let mut sim = in_span(&mut tracer, "sim.build", 1, || {
        compiled
            .simulator()
            .map_err(|e| format!("simulator construction failed: {e}"))
    })?;
    in_span(&mut tracer, "sim.step_frame", calls, || {
        for (frame, (input, want)) in inputs.iter().zip(&expected).enumerate() {
            let got = sim
                .step_frame(input)
                .map_err(|e| format!("frame {frame}: microcode execution failed: {e}"))?;
            if &got != want {
                return Err(format!(
                    "frame {frame}: microcode {got:?} != golden {want:?} (inputs {input:?})"
                ));
            }
        }
        Ok(())
    })
}

/// As [`golden_check`] untraced, with the frames checked in consecutive
/// batches of `batch` (interpreter, then simulator, then compare) and
/// the wall time of each batch returned: a median over batches is a
/// per-frame time that one preemption inside the check does not move.
pub fn golden_check_batched(
    compiled: &Compiled,
    inputs: &[Vec<i64>],
    batch: usize,
) -> Result<Vec<Duration>, String> {
    let mut interp = Interpreter::new(&compiled.dfg, compiled.core.format);
    let mut sim = compiled
        .simulator()
        .map_err(|e| format!("simulator construction failed: {e}"))?;
    let mut times = Vec::with_capacity(inputs.len().div_ceil(batch));
    for (b, frames) in inputs.chunks(batch).enumerate() {
        let start = Instant::now();
        let expected = frames
            .iter()
            .map(|frame| interp.try_step(frame))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("golden model rejected the stimulus: {e}"))?;
        for (i, (input, want)) in frames.iter().zip(&expected).enumerate() {
            let frame = b * batch + i;
            let got = sim
                .step_frame(input)
                .map_err(|e| format!("frame {frame}: microcode execution failed: {e}"))?;
            if &got != want {
                return Err(format!(
                    "frame {frame}: microcode {got:?} != golden {want:?} (inputs {input:?})"
                ));
            }
        }
        times.push(start.elapsed());
    }
    Ok(times)
}

/// Runs `f` inside a span named `name` covering `calls` calls, when a
/// tracer is present.
pub fn in_span<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    calls: u32,
    f: impl FnOnce() -> T,
) -> T {
    match tracer.as_deref_mut() {
        Some(t) => {
            let span = t.begin(name);
            let out = f();
            t.end_calls(span, calls);
            out
        }
        None => f(),
    }
}

/// First bit-level divergence between a reference and another artifact
/// of the same variant: words, ROM image, schedule, register assignment.
pub fn diverges(reference: &Compiled, got: &Compiled) -> Option<&'static str> {
    if reference.microcode.words != got.microcode.words {
        return Some("microcode words diverged");
    }
    if reference.microcode.rom_image != got.microcode.rom_image {
        return Some("coefficient ROM diverged");
    }
    if *reference.schedule != *got.schedule {
        return Some("schedule diverged");
    }
    if reference.assignment.mapping != got.assignment.mapping {
        return Some("register assignment diverged");
    }
    None
}

/// Content digest over exactly what [`diverges`] compares.
pub fn digest(c: &Compiled) -> u64 {
    let mut h = Fnv64::new();
    for word in &c.microcode.words {
        h.write_u32(word.width());
        for offset in (0..word.width()).step_by(64) {
            h.write_u64(word.bits(offset, (word.width() - offset).min(64)));
        }
    }
    for &v in &c.microcode.rom_image {
        h.write_u64(v as u64);
    }
    for row in c.schedule.cycles() {
        h.write_u32(row.len() as u32);
        for rt in row {
            h.write_u32(rt.0);
        }
    }
    for ((rf, virtual_reg), physical) in &c.assignment.mapping {
        h.write_text(rf);
        h.write_u32(*virtual_reg);
        h.write_u32(*physical);
    }
    h.finish()
}

/// Exact-repeat work counts: deterministic for a seed, so a traced and an
/// untraced run must agree on every entry.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Counts(BTreeMap<String, u64>);

impl Counts {
    pub fn add(&mut self, key: &str, v: u64) {
        *self.0.entry(key.to_owned()).or_default() += v;
    }

    pub fn get(&self, key: &str) -> u64 {
        self.0.get(key).copied().unwrap_or(0)
    }

    /// Counts one compile outcome of operation class `class`.
    pub fn compile(&mut self, class: &str, result: Result<&Compiled, &CompileError>) {
        self.add(&format!("ops.{class}"), 1);
        match result {
            Ok(c) => {
                self.add("rts", c.lowering.program.rt_count() as u64);
                self.add("sched_cycles", u64::from(c.cycles()));
                self.add(
                    "bound_gap",
                    u64::from(c.cycles().saturating_sub(c.schedule_bound)),
                );
                self.add(
                    &format!("stage_hits.{class}"),
                    u64::from(c.stats.cache_hits),
                );
            }
            Err(e) => {
                if let Ok(kind) = verdict(e) {
                    self.add(&format!("verdict.{kind}"), 1);
                }
            }
        }
    }

    /// Entries that differ between `self` and `other`, rendered.
    pub fn differences(&self, other: &Counts) -> Vec<String> {
        let keys: std::collections::BTreeSet<&String> =
            self.0.keys().chain(other.0.keys()).collect();
        keys.into_iter()
            .filter(|k| self.get(k) != other.get(k))
            .map(|k| format!("{k}: {} vs {}", self.get(k), other.get(k)))
            .collect()
    }

    pub fn lines(&self) -> Vec<String> {
        self.0
            .iter()
            .map(|(k, v)| format!("  {k:<28} {v}"))
            .collect()
    }

    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The traced and untraced passes over the counted prefix must agree on
/// every exact-repeat count; each difference is a failed operation.
pub fn compare_counts(res: &mut RunResult, untraced: &Counts, traced: &Counts) {
    for d in untraced.differences(traced) {
        res.fail(format!(
            "exact-repeat count differs between untraced and traced runs: {d}"
        ));
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    pub counts: Counts,
    /// Human-readable report lines, printed before the JSON line.
    pub report: Vec<String>,
}

impl RunResult {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }
}

/// Fewest set-ups per run; `setup_s` is the median of all of them.
pub const SETUP_REPEATS: usize = 9;
/// Set-up is repeated until this much wall time has gone into it, so a
/// set-up of a few milliseconds is timed hundreds of times.
const SETUP_MIN_SECONDS: f64 = 1.0;

/// Runs `setup` at least `times` times and for at least
/// [`SETUP_MIN_SECONDS`], and returns the median wall time in seconds with
/// the last result.
pub fn median_setup<T>(times: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut walls = Vec::with_capacity(times);
    let mut last = None;
    let mut spent = 0.0;
    while walls.len() < times || spent < SETUP_MIN_SECONDS {
        let t = Instant::now();
        last = Some(setup());
        let wall = t.elapsed().as_secs_f64();
        walls.push(wall);
        spent += wall;
    }
    walls.sort_by(f64::total_cmp);
    let median = crate::stats::median(&walls).expect("at least one set-up");
    (median, last.expect("at least one set-up"))
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
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

/// Scheduler threads of the closed loops: one per available core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
