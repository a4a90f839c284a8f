//! The traced compile path: the benchmark calls the stage functions
//! itself, in the order `CompileSession` uses, and holds the upstream
//! artifacts in its own memo keyed by the public stage-key functions.
//! A span surrounds every call into a layer.
//!
//! The memo mirrors the session's: every stage result, failures
//! included, is kept under its key and a lookup that finds one counts a
//! stage hit. The exact-repeat counts compare the hits seen here with the
//! ones `CompileSession` reports on the untraced run.

use std::collections::HashMap;
use std::sync::Arc;

use dspcc::dfg::{parse, Dfg};
use dspcc::sched::deps::DependenceGraph;
use dspcc::sched::ConflictMatrix;
use dspcc::stages::{
    self, AnalysisArtifact, EncodeArtifact, FrontendArtifact, LowerArtifact, ModifyArtifact,
    RegallocArtifact, ScheduleArtifact,
};
use dspcc::{CompileError, CompileOptions, CompileStats, Compiled, Core};

use crate::trace::Tracer;

type Table<A> = HashMap<u64, Result<Arc<A>, CompileError>>;

#[derive(Default)]
pub struct StagedMemo {
    frontend: Table<FrontendArtifact>,
    lower: Table<LowerArtifact>,
    modify: Table<ModifyArtifact>,
    analysis: Table<AnalysisArtifact>,
    schedule: Table<ScheduleArtifact>,
    regalloc: Table<RegallocArtifact>,
    encode: Table<EncodeArtifact>,
}

impl StagedMemo {
    pub fn len(&self) -> usize {
        self.frontend.len()
            + self.lower.len()
            + self.modify.len()
            + self.analysis.len()
            + self.schedule.len()
            + self.regalloc.len()
            + self.encode.len()
    }
}

fn lookup<A>(
    table: &mut Table<A>,
    key: u64,
    hits: &mut u32,
    compute: impl FnOnce() -> Result<A, CompileError>,
) -> Result<Arc<A>, CompileError> {
    if let Some(found) = table.get(&key) {
        *hits += 1;
        return found.clone();
    }
    let result = compute().map(Arc::new);
    table.insert(key, result.clone());
    result
}

/// Runs `f` in a span named `name`.
fn span<T>(t: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = t.begin(name);
    let out = f();
    t.end(id);
    out
}

/// Stage keys, computed together in one `session.keys` span.
struct Keys {
    lower: u64,
    modify: u64,
    analysis: u64,
    schedule: u64,
    regalloc: u64,
    encode: u64,
}

fn keys(dfg_fp: u64, core: &Core, options: &CompileOptions) -> Keys {
    let lower = stages::lower_key(dfg_fp, core, options);
    let modify = stages::modify_key(lower, core);
    let analysis = stages::analysis_key(modify);
    let schedule = stages::schedule_key(analysis, core, options);
    Keys {
        lower,
        modify,
        analysis,
        schedule,
        regalloc: stages::regalloc_key(schedule),
        encode: stages::encode_key(schedule, core),
    }
}

/// One compile through the traced stage path. `matrix_classes` receives
/// the conflict-matrix class count of the analysis the compile used.
pub fn compile(
    memo: &mut StagedMemo,
    t: &mut Tracer,
    core: &Arc<Core>,
    source: &str,
    options: &CompileOptions,
    matrix_classes: &mut usize,
) -> Result<Compiled, CompileError> {
    let mut hits = 0u32;
    let source_fp = span(t, "session.source_fp", || {
        stages::source_fingerprint(source)
    });
    let frontend = lookup(&mut memo.frontend, source_fp, &mut hits, || {
        let program = span(t, "dfg.parse", || parse(source)).map_err(CompileError::Parse)?;
        let dfg = span(t, "dfg.sema", || Dfg::build(&program)).map_err(CompileError::Sema)?;
        let dfg_fp = span(t, "session.dfg_fp", || stages::dfg_fingerprint(&dfg));
        Ok(FrontendArtifact {
            dfg: Arc::new(dfg),
            dfg_fp,
            parse_time: Default::default(),
            sema_time: Default::default(),
        })
    })?;
    let k = span(t, "session.keys", || keys(frontend.dfg_fp, core, options));
    let lowered = lookup(&mut memo.lower, k.lower, &mut hits, || {
        span(t, "rtgen.lower", || {
            stages::run_lower(&frontend.dfg, core, options)
        })
    })?;
    let modified = lookup(&mut memo.modify, k.modify, &mut hits, || {
        Ok(span(t, "isa.modify", || stages::run_modify(&lowered, core)))
    })?;
    let analysis = lookup(&mut memo.analysis, k.analysis, &mut hits, || {
        let lowering = &modified.lowering;
        let deps = span(t, "sched.deps", || {
            DependenceGraph::build_with_edges(&lowering.program, &lowering.sequence_edges)
        })
        .map_err(|e| CompileError::Deps(e.to_string()))?;
        let matrix = span(t, "sched.matrix", || {
            ConflictMatrix::build(&lowering.program)
        });
        Ok(AnalysisArtifact {
            deps: Arc::new(deps),
            matrix: Arc::new(matrix),
            deps_time: Default::default(),
            matrix_time: Default::default(),
        })
    })?;
    *matrix_classes = analysis.matrix.class_count();
    let scheduled = lookup(&mut memo.schedule, k.schedule, &mut hits, || {
        span(t, "sched.schedule", || {
            stages::run_schedule(&modified, &analysis, core, options, None)
        })
    })?;
    let allocated = lookup(&mut memo.regalloc, k.regalloc, &mut hits, || {
        span(t, "encode.regalloc", || {
            stages::run_regalloc(&modified, &scheduled, core)
        })
    })?;
    let encoded = lookup(&mut memo.encode, k.encode, &mut hits, || {
        span(t, "encode.encode", || {
            stages::run_encode(&modified, &scheduled, &allocated, core)
        })
    })?;
    Ok(Compiled {
        core: Arc::clone(core),
        dfg: Arc::clone(&frontend.dfg),
        lowering: Arc::clone(&modified.lowering),
        deps: Arc::clone(&analysis.deps),
        schedule: Arc::clone(&scheduled.schedule),
        schedule_bound: scheduled.bound,
        assignment: Arc::clone(&allocated.assignment),
        microcode: Arc::clone(&encoded.microcode),
        artificial_names: modified.artificial_names.clone(),
        classification: modified.classification.clone(),
        stats: CompileStats {
            cache_hits: hits,
            degradation: scheduled.degradation,
            ..CompileStats::default()
        },
    })
}
