//! Per-layer metrics of a traced run: self time per call of each layer's
//! spans, structural counts per compile, and the accounting columns.

use dspcc::Compiled;

use crate::common::RunResult;
use crate::trace::{attribute, Span};

/// Span names whose self time per call is a per-layer metric (`<name>_us`)
/// on every workload.
pub const TIMED_LAYERS: [&str; 15] = [
    "dfg.parse",
    "dfg.sema",
    "dfg.interp_step",
    "rtgen.lower",
    "isa.modify",
    "sched.deps",
    "sched.matrix",
    "sched.schedule",
    "encode.regalloc",
    "encode.encode",
    "sim.build",
    "sim.step_frame",
    "session.source_fp",
    "session.dfg_fp",
    "session.keys",
];

/// The structural facts of one compiled artifact the per-layer counts
/// use; small enough to keep per request.
#[derive(Debug, Clone, Copy)]
pub struct Parts {
    pub rts: usize,
    pub artificial: usize,
    pub cycles: u32,
    pub bound: u32,
    pub degraded: bool,
    pub words: usize,
    pub stage_hits: u32,
}

impl Parts {
    pub fn of(c: &Compiled) -> Parts {
        Parts {
            rts: c.lowering.program.rt_count(),
            artificial: c.artificial_names.len(),
            cycles: c.cycles(),
            bound: c.schedule_bound,
            degraded: c.stats.degradation.is_some(),
            words: c.microcode.words.len(),
            stage_hits: c.stats.cache_hits,
        }
    }
}

/// Structure of the compiled artifacts, summed over the traced compiles.
#[derive(Debug, Default, Clone)]
pub struct Shape {
    compiles: u64,
    rts: u64,
    artificial: u64,
    classes: u64,
    bound_gap: u64,
    degraded: u64,
    words: u64,
    stage_hits: u64,
}

impl Shape {
    pub fn add(&mut self, c: &Compiled, matrix_classes: usize) {
        self.add_parts(&Parts::of(c), matrix_classes);
    }

    pub fn add_parts(&mut self, p: &Parts, matrix_classes: usize) {
        self.compiles += 1;
        self.rts += p.rts as u64;
        self.artificial += p.artificial as u64;
        self.classes += matrix_classes as u64;
        self.bound_gap += u64::from(p.cycles.saturating_sub(p.bound));
        self.degraded += u64::from(p.degraded);
        self.words += p.words as u64;
        self.stage_hits += u64::from(p.stage_hits);
    }

    fn mean(&self, total: u64) -> f64 {
        if self.compiles == 0 {
            0.0
        } else {
            total as f64 / self.compiles as f64
        }
    }
}

/// Per-layer values measured outside the spans. The `Option` ones are
/// times of layers only some workloads reach: they are printed in the
/// table ("-" when absent) and left out of the JSON line, whose metric
/// set is the same on every workload.
#[derive(Debug, Default, Clone)]
pub struct Extras {
    pub memo_entries: f64,
    pub cache_disk_hits: u64,
    pub cache_stores: u64,
    pub cache_hit_ratio: f64,
    pub service_rejected: u64,
    pub queue_depth_mean: f64,
    pub trace_overhead_pct: f64,
    pub lookup_us: Option<f64>,
    pub cache_load_us: Option<f64>,
    pub cache_store_us: Option<f64>,
    pub cache_codec_us: Option<f64>,
    pub submit_us: Option<f64>,
    pub non_compile_ms: Option<f64>,
    pub generator_late_ms: Option<f64>,
}

/// Fills `res` with every per-layer metric and the per-layer table.
pub fn report(res: &mut RunResult, spans: &[Span], shape: &Shape, extras: &Extras) {
    let (layers, unattributed) = attribute(spans);
    res.report
        .push("per-layer self time (traced run):".to_owned());
    res.report.push(format!(
        "  {:<22} {:>10} {:>12} {:>12}",
        "layer", "calls", "self_ms", "us/call"
    ));
    for (name, l) in &layers {
        res.report.push(format!(
            "  {:<22} {:>10} {:>12.3} {:>12.3}",
            name,
            l.calls,
            l.self_time.as_secs_f64() * 1e3,
            l.per_call_us()
        ));
    }
    res.report.push(format!(
        "  {:<22} {:>10} {:>12} {:>12}",
        "unattributed_us", "ops", "self_ms", "us/op"
    ));
    let mut ops = 0u64;
    let mut rest = 0.0f64;
    for (class, l) in &unattributed {
        if *class == "setup" {
            continue;
        }
        ops += l.calls;
        rest += l.self_time.as_secs_f64();
        res.report.push(format!(
            "  {:<22} {:>10} {:>12.3} {:>12.3}",
            class,
            l.calls,
            l.self_time.as_secs_f64() * 1e3,
            l.per_call_us()
        ));
    }

    for name in TIMED_LAYERS {
        let us = layers.get(name).map_or(0.0, |l| l.per_call_us());
        res.metric(&format!("{name}_us"), us, "us");
    }
    let generate_ms = layers
        .get("arch.generate")
        .map_or(0.0, |l| l.per_call_us() / 1e3);
    res.metric("arch.generate_ms", generate_ms, "ms");
    res.metric(
        "unattributed_us",
        if ops == 0 {
            0.0
        } else {
            rest * 1e6 / ops as f64
        },
        "us",
    );
    res.metric("trace_overhead_pct", extras.trace_overhead_pct, "%");
    res.metric("rtgen.rts", shape.mean(shape.rts), "count");
    res.metric(
        "isa.artificial_resources",
        shape.mean(shape.artificial),
        "count",
    );
    res.metric("sched.matrix_classes", shape.mean(shape.classes), "count");
    res.metric(
        "sched.bound_gap_cycles",
        shape.mean(shape.bound_gap),
        "cycles",
    );
    res.metric("sched.degraded", shape.degraded as f64, "count");
    res.metric("encode.words", shape.mean(shape.words), "count");
    let hit_ratio = if shape.compiles == 0 {
        0.0
    } else {
        shape.stage_hits as f64 / (7 * shape.compiles) as f64
    };
    res.metric("session.stage_hit_ratio", hit_ratio, "ratio");
    res.metric("session.memo_entries", extras.memo_entries, "count");
    res.metric("cache.disk_hits", extras.cache_disk_hits as f64, "count");
    res.metric("cache.stores", extras.cache_stores as f64, "count");
    res.metric("cache.hit_ratio", extras.cache_hit_ratio, "ratio");
    res.metric("service.rejected", extras.service_rejected as f64, "count");
    res.metric("service.queue_depth_mean", extras.queue_depth_mean, "count");

    res.report
        .push("per-layer values of the layers this workload reaches:".to_owned());
    let table_only = [
        ("session.lookup_us", extras.lookup_us),
        ("cache.load_us", extras.cache_load_us),
        ("cache.store_us", extras.cache_store_us),
        ("cache.codec_us", extras.cache_codec_us),
        ("service.submit_us", extras.submit_us),
        ("service.non_compile_ms", extras.non_compile_ms),
        ("service.generator_late_ms", extras.generator_late_ms),
    ];
    for (name, value) in table_only {
        let shown = value.map_or("-".to_owned(), |v| format!("{v:.3}"));
        res.report.push(format!("  {name:<28} {shown}"));
    }
}
