//! The compiler pipeline as explicit, individually-invokable **stages**.
//!
//! `Compiler::compile` used to be a 150-line monolith that redid every
//! step on every call. This module splits it into the figure-1b stages —
//!
//! ```text
//! frontend (parse + sema)            → FrontendArtifact
//!   → RT generation (lower)          → LowerArtifact
//!   → RT modification (ISA imposure) → ModifyArtifact
//!   → deps + conflict matrix         → AnalysisArtifact
//!   → scheduling                     → ScheduleArtifact
//!   → register allocation            → RegallocArtifact
//!   → instruction encoding           → EncodeArtifact
//! ```
//!
//! — each a *pure function* of its inputs producing an immutable,
//! `Arc`-shared artifact. The stage **key** functions alongside compute a
//! content fingerprint of exactly the inputs each stage reads (source ×
//! datapath × controller × instruction set × the option subset that stage
//! consumes), which is what lets [`crate::CompileSession`] memoize
//! artifacts across the paper's design-iteration cycle: re-compiling with
//! only a different budget or priority reuses the lowering, the
//! classification work, the dependence graph, and the conflict matrix.
//!
//! The staged path is **bit-identical** to the historical monolith — the
//! stages are the same code in the same order, and `tests/prop_session.rs`
//! pins warm (cached) recompiles against cold ones.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dspcc_arch::Fnv64;
use dspcc_dfg::{parse, Dfg};
use dspcc_encode::{allocate_registers, encode, Microcode, RegAssignment};
use dspcc_isa::{artificial_resources, Classification};
use dspcc_rtgen::{apply_instruction_set, lower, LowerOptions, Lowering};
use dspcc_sched::deps::DependenceGraph;
use dspcc_sched::list::Priority;
use dspcc_sched::{
    CancelToken, ConflictMatrix, Degradation, Fuel, SchedError, Schedule, Scheduled, Scheduler,
    Search,
};

use crate::pipeline::{CompileError, Core};
use crate::session::CompileOptions;

// ---------------------------------------------------------------------------
// Fingerprints and stage keys
// ---------------------------------------------------------------------------

/// Fingerprint of raw source text.
pub fn source_fingerprint(source: &str) -> u64 {
    Fnv64::of_parts(|h| h.write_text(source))
}

/// Content fingerprint of a built signal-flow graph: FNV-1a over every
/// field of the graph ([`Dfg::hash_content`]), not over a rendering of
/// it, so no formatting change can re-key the cache. Keying the lowering
/// stage on the *graph* rather than the source text means
/// whitespace-only source edits invalidate nothing past the frontend.
pub fn dfg_fingerprint(dfg: &Dfg) -> u64 {
    let mut h = Fnv64::new();
    dfg.hash_content(&mut h);
    h.finish()
}

fn priority_tag(p: Priority) -> u8 {
    match p {
        Priority::Slack => 0,
        Priority::Alap => 1,
        Priority::SinkAlap => 2,
        Priority::CriticalPath => 3,
        Priority::SourceOrder => 4,
    }
}

/// Key of the RT-generation stage: the graph content, the datapath, and
/// the single option it reads (`cse_constants`).
pub fn lower_key(dfg_fp: u64, core: &Core, options: &CompileOptions) -> u64 {
    Fnv64::of_parts(|h| {
        h.write_text("lower");
        h.write_u64(dfg_fp);
        h.write_u64(core.datapath.fingerprint());
        h.write_bool(options.cse_constants);
    })
}

/// Key of the RT-modification stage: the lowering it modifies plus the
/// classification, instruction set, and cover strategy it imposes.
pub fn modify_key(lower_key: u64, core: &Core) -> u64 {
    Fnv64::of_parts(|h| {
        h.write_text("modify");
        h.write_u64(lower_key);
        match &core.classification {
            Some(c) => {
                h.write_bool(true);
                h.write_u64(c.fingerprint());
            }
            None => h.write_bool(false),
        }
        match &core.instruction_set {
            Some(iset) => {
                h.write_bool(true);
                h.write_u64(iset.fingerprint());
            }
            None => h.write_bool(false),
        }
        h.write_u64(core.cover.fingerprint());
    })
}

/// Key of the dependence-graph + conflict-matrix stage: both are pure
/// functions of the modified program.
pub fn analysis_key(modify_key: u64) -> u64 {
    Fnv64::of_parts(|h| {
        h.write_text("analysis");
        h.write_u64(modify_key);
    })
}

/// Key of the scheduling stage: the analysed program plus the controller
/// fingerprint (the stage reads its program depth as the hard cap; keying
/// the whole controller is conservative), the budget and **exactly what
/// the selected [`CompileOptions::scheduler`] reads** — its own option,
/// and the fuel unless it is the list pass, which runs one mandatory
/// attempt whatever the fuel ([`Scheduler::reads_fuel`]). A fuel-limited
/// result is thus never cached under a full-budget key, and re-compiling
/// with a different priority while the compacting scheduler is active is
/// a *full* cache hit: the option is not an input of that path.
///
/// The budget is keyed as given (not clamped to the cap) — conservative,
/// but key computation stays a pure function of the options.
pub fn schedule_key(analysis_key: u64, core: &Core, options: &CompileOptions) -> u64 {
    let scheduler = options.scheduler();
    Fnv64::of_parts(|h| {
        h.write_text("schedule");
        h.write_u64(analysis_key);
        h.write_u64(core.controller.fingerprint());
        match options.budget {
            Some(b) => {
                h.write_bool(true);
                h.write_u32(b);
            }
            None => h.write_bool(false),
        }
        match scheduler {
            Scheduler::Compacting { restarts } => {
                h.write_u8(0);
                h.write_u32(restarts);
            }
            Scheduler::List { priority } => {
                h.write_u8(1);
                h.write_u8(priority_tag(priority));
            }
            Scheduler::Exact { max_nodes } => {
                h.write_u8(2);
                h.write_u64(max_nodes);
            }
        }
        match options.fuel {
            Some(f) if scheduler.reads_fuel() => {
                h.write_bool(true);
                h.write_u64(f);
            }
            _ => h.write_bool(false),
        }
    })
}

/// Key of the register-allocation stage (all inputs — program, schedule,
/// datapath, pinned registers — are determined by the schedule key).
pub fn regalloc_key(schedule_key: u64) -> u64 {
    Fnv64::of_parts(|h| {
        h.write_text("regalloc");
        h.write_u64(schedule_key);
    })
}

/// Key of the encoding stage: the allocated program plus the word format
/// (field layout, immediate conversion, and the ROM image read it).
pub fn encode_key(schedule_key: u64, core: &Core) -> u64 {
    Fnv64::of_parts(|h| {
        h.write_text("encode");
        h.write_u64(schedule_key);
        h.write_u32(core.format.width());
    })
}

// ---------------------------------------------------------------------------
// Stage artifacts
// ---------------------------------------------------------------------------

/// Frontend output: the signal-flow graph plus its content fingerprint.
#[derive(Debug)]
pub struct FrontendArtifact {
    /// The built graph.
    pub dfg: Arc<Dfg>,
    /// Content fingerprint of `dfg` (keys the lowering stage).
    pub dfg_fp: u64,
    /// Wall-clock time of parsing.
    pub parse_time: Duration,
    /// Wall-clock time of semantic analysis / graph building.
    pub sema_time: Duration,
}

/// RT-generation output: the *unmodified* lowering.
#[derive(Debug)]
pub struct LowerArtifact {
    /// The lowering, before any instruction set is imposed.
    pub lowering: Arc<Lowering>,
    /// Wall-clock time of the stage.
    pub time: Duration,
}

/// RT-modification output: the lowering with the instruction set imposed
/// (shared untouched with the lower artifact when the core has none).
#[derive(Debug)]
pub struct ModifyArtifact {
    /// The (possibly ISA-modified) lowering the rest of the pipeline reads.
    pub lowering: Arc<Lowering>,
    /// The classification used, if any.
    pub classification: Option<Classification>,
    /// Names of the artificial resources installed (empty without an ISA).
    pub artificial_names: Vec<String>,
    /// Wall-clock time of the stage.
    pub time: Duration,
}

/// Dependence + conflict analysis output.
#[derive(Debug)]
pub struct AnalysisArtifact {
    /// The dependence graph.
    pub deps: Arc<DependenceGraph>,
    /// The conflict matrix.
    pub matrix: Arc<ConflictMatrix>,
    /// Wall-clock time of dependence-graph construction.
    pub deps_time: Duration,
    /// Wall-clock time of conflict-matrix construction.
    pub matrix_time: Duration,
}

/// Scheduling output.
#[derive(Debug)]
pub struct ScheduleArtifact {
    /// The schedule.
    pub schedule: Arc<Schedule>,
    /// Provable lower bound on the schedule length.
    pub bound: u32,
    /// `Some` when the fuel budget truncated the search and this is the
    /// best-so-far rather than the full-budget result.
    pub degradation: Option<Degradation>,
    /// Wall-clock time of the stage.
    pub time: Duration,
}

/// Register-allocation output.
#[derive(Debug)]
pub struct RegallocArtifact {
    /// The assignment: the register map the encoder reads.
    pub assignment: Arc<RegAssignment>,
    /// Wall-clock time of the stage.
    pub time: Duration,
}

/// Encoding output.
#[derive(Debug)]
pub struct EncodeArtifact {
    /// The executable microcode.
    pub microcode: Arc<Microcode>,
    /// Wall-clock time of the stage.
    pub time: Duration,
}

// ---------------------------------------------------------------------------
// Stage runners
// ---------------------------------------------------------------------------

/// Parses and analyses `source` into a signal-flow graph.
///
/// # Errors
///
/// [`CompileError::Parse`] / [`CompileError::Sema`].
pub fn run_frontend(source: &str) -> Result<FrontendArtifact, CompileError> {
    let t = Instant::now();
    let program = parse(source).map_err(CompileError::Parse)?;
    let parse_time = t.elapsed();
    let t = Instant::now();
    let dfg = Dfg::build(&program).map_err(CompileError::Sema)?;
    let sema_time = t.elapsed();
    let dfg_fp = dfg_fingerprint(&dfg);
    Ok(FrontendArtifact {
        dfg: Arc::new(dfg),
        dfg_fp,
        parse_time,
        sema_time,
    })
}

/// RT generation (compiler step 1).
///
/// # Errors
///
/// [`CompileError::Lower`].
pub fn run_lower(
    dfg: &Dfg,
    core: &Core,
    options: &CompileOptions,
) -> Result<LowerArtifact, CompileError> {
    let opts = LowerOptions {
        cse_constants: options.cse_constants,
    };
    let t = Instant::now();
    let lowering = lower(dfg, &core.datapath, &opts).map_err(CompileError::Lower)?;
    Ok(LowerArtifact {
        lowering: Arc::new(lowering),
        time: t.elapsed(),
    })
}

/// RT modification (compiler step 2): imposes the core's instruction set
/// as artificial resource conflicts, under the core's classification or,
/// when it has none, [`Classification::identify`]'s.
///
/// Cores without an instruction set share the lower artifact's `Lowering`
/// untouched; with one, the lowering is cloned once and modified (the
/// clone is what makes the *lower* artifact reusable across cover
/// strategies and instruction-set variants).
pub fn run_modify(lowered: &LowerArtifact, core: &Core) -> ModifyArtifact {
    let t = Instant::now();
    let Some(iset) = &core.instruction_set else {
        return ModifyArtifact {
            lowering: Arc::clone(&lowered.lowering),
            classification: core.classification.clone(),
            artificial_names: Vec::new(),
            time: t.elapsed(),
        };
    };
    let c = core
        .classification
        .clone()
        .unwrap_or_else(|| Classification::identify(&core.datapath));
    let ars = artificial_resources(iset, &c, core.cover);
    let mut lowering = (*lowered.lowering).clone();
    let artificial_names = apply_instruction_set(&mut lowering.program, &c, &ars);
    ModifyArtifact {
        lowering: Arc::new(lowering),
        classification: Some(c),
        artificial_names,
        time: t.elapsed(),
    }
}

/// Dependence-graph and conflict-matrix construction (the analysis the
/// scheduler and its lower bounds share).
///
/// # Errors
///
/// [`CompileError::Deps`].
pub fn run_analysis(modified: &ModifyArtifact) -> Result<AnalysisArtifact, CompileError> {
    let lowering = &modified.lowering;
    let t = Instant::now();
    let deps = DependenceGraph::build_with_edges(&lowering.program, &lowering.sequence_edges)
        .map_err(|e| CompileError::Deps(e.to_string()))?;
    let deps_time = t.elapsed();
    let t = Instant::now();
    let matrix = ConflictMatrix::build(&lowering.program);
    let matrix_time = t.elapsed();
    Ok(AnalysisArtifact {
        deps: Arc::new(deps),
        matrix: Arc::new(matrix),
        deps_time,
        matrix_time,
    })
}

/// Maps scheduler errors into the pipeline taxonomy, lifting the
/// cooperative-cancellation case out of the stage-provenance wrapper.
fn schedule_error(e: SchedError) -> CompileError {
    match e {
        SchedError::Cancelled => CompileError::Cancelled,
        other => CompileError::Schedule(other),
    }
}

/// Scheduling (compiler step 3): runs [`CompileOptions::scheduler`]
/// within the budget, capped at the controller's program depth, under
/// [`CompileOptions::fuel`] (see [`dspcc_sched::schedule`]). Without an
/// explicit budget the program depth is the budget. Fuel exhaustion
/// degrades the search instead of failing it, and the artifact carries
/// the [`Degradation`] report. `cancel` is polled inside the search; a
/// raised token aborts with [`CompileError::Cancelled`].
///
/// The compacting scheduler answers from a one-off [`Search`];
/// [`crate::CompileSession`] keeps one per analysed program, restart
/// count and fuel limit and answers every budget from it, with the same
/// result.
///
/// # Errors
///
/// [`CompileError::Schedule`] / [`CompileError::ProgramTooLong`] /
/// [`CompileError::Cancelled`].
pub fn run_schedule(
    modified: &ModifyArtifact,
    analysis: &AnalysisArtifact,
    core: &Core,
    options: &CompileOptions,
    cancel: Option<&CancelToken>,
) -> Result<ScheduleArtifact, CompileError> {
    run_schedule_from(&mut None, modified, analysis, core, options, cancel)
}

/// [`run_schedule`], answering the compacting scheduler from `search`,
/// which a `None` starts. The caller keys `search` by the analysis, the
/// restart count and the fuel limit: the search reads nothing else, and
/// the budget only picks where it stops. A cancelled answer leaves the
/// search at its last completed seed; a failed start leaves `None`.
pub(crate) fn run_schedule_from(
    search: &mut Option<Search>,
    modified: &ModifyArtifact,
    analysis: &AnalysisArtifact,
    core: &Core,
    options: &CompileOptions,
    cancel: Option<&CancelToken>,
) -> Result<ScheduleArtifact, CompileError> {
    let t = Instant::now();
    let program = &modified.lowering.program;
    let (deps, matrix) = (&*analysis.deps, &*analysis.matrix);
    let hard_cap = core.controller.program_depth();
    let budget = options.budget.map(|b| b.min(hard_cap)).unwrap_or(hard_cap);
    let mut fuel = options.fuel.map(Fuel::limited).unwrap_or_default();
    let scheduled = match options.scheduler() {
        Scheduler::Compacting { restarts } => {
            let search = match search {
                Some(search) => search,
                None => search.insert(
                    Search::new(program, deps, matrix, restarts, fuel, cancel)
                        .map_err(schedule_error)?,
                ),
            };
            search.answer(program, deps, matrix, Some(budget), cancel)
        }
        scheduler => dspcc_sched::schedule(
            program,
            deps,
            matrix,
            scheduler,
            Some(budget),
            &mut fuel,
            cancel,
        )
        .map(|s| Scheduled {
            schedule: Arc::new(s.schedule),
            bound: s.bound,
            degradation: s.degradation,
        }),
    };
    let Scheduled {
        schedule,
        bound,
        degradation,
    } = scheduled.map_err(schedule_error)?;
    let time = t.elapsed();
    if schedule.length() > hard_cap {
        return Err(CompileError::ProgramTooLong {
            needed: schedule.length(),
            available: hard_cap,
        });
    }
    Ok(ScheduleArtifact {
        schedule,
        bound,
        degradation,
        time,
    })
}

/// Register allocation (compiler step 4).
///
/// # Errors
///
/// [`CompileError::RegAlloc`].
pub fn run_regalloc(
    modified: &ModifyArtifact,
    schedule: &ScheduleArtifact,
    core: &Core,
) -> Result<RegallocArtifact, CompileError> {
    let lowering = &modified.lowering;
    let t = Instant::now();
    let assignment = allocate_registers(
        &lowering.program,
        &schedule.schedule,
        &core.datapath,
        std::slice::from_ref(&lowering.fp_reg),
    )
    .map_err(CompileError::RegAlloc)?;
    Ok(RegallocArtifact {
        assignment: Arc::new(assignment),
        time: t.elapsed(),
    })
}

/// Instruction encoding (compiler step 5): the instruction words of the
/// virtual program read through the register map, in the core's shared
/// field layout, and the executable microcode bundle.
///
/// # Errors
///
/// [`CompileError::Encode`].
pub fn run_encode(
    modified: &ModifyArtifact,
    schedule: &ScheduleArtifact,
    regalloc: &RegallocArtifact,
    core: &Core,
) -> Result<EncodeArtifact, CompileError> {
    let lowering = &modified.lowering;
    let t = Instant::now();
    let layout = core.layout();
    let words = encode(
        &lowering.program,
        &regalloc.assignment.registers,
        &schedule.schedule,
        layout,
        &lowering.immediates,
        core.format,
    )
    .map_err(CompileError::Encode)?;
    let (output_order, input_order) = lowering.io_orders();
    let microcode = Microcode {
        words,
        layout: Arc::clone(layout),
        rom_image: lowering
            .rom_image
            .iter()
            .map(|&v| core.format.from_f64(v))
            .collect(),
        region_size: lowering.ram_layout.region_size,
        output_order,
        input_order,
        word_format: core.format,
    };
    Ok(EncodeArtifact {
        microcode: Arc::new(microcode),
        time: t.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cores;

    #[test]
    fn stage_keys_track_their_inputs() {
        let core = cores::audio_core();
        let opts = CompileOptions::default();
        let fe = run_frontend("input u; output y; y = pass(u);").unwrap();
        let lk = lower_key(fe.dfg_fp, &core, &opts);
        // Same inputs → same key.
        assert_eq!(lk, lower_key(fe.dfg_fp, &core, &opts));
        // The lowering key ignores schedule-only options...
        let mut sched_opts = opts.clone();
        sched_opts.budget = Some(64);
        sched_opts.restarts = 1;
        assert_eq!(lk, lower_key(fe.dfg_fp, &core, &sched_opts));
        // ...but tracks the one option it reads.
        let mut cse = opts.clone();
        cse.cse_constants = true;
        assert_ne!(lk, lower_key(fe.dfg_fp, &core, &cse));
        // Schedule keys track budget/priority/restarts.
        let sk = schedule_key(analysis_key(modify_key(lk, &core)), &core, &opts);
        let sk2 = schedule_key(analysis_key(modify_key(lk, &core)), &core, &sched_opts);
        assert_ne!(sk, sk2);
        // ...but not `sched_threads`, which no scheduler reads.
        let mut threads = opts.clone();
        threads.sched_threads = 7;
        assert_eq!(
            sk,
            schedule_key(analysis_key(modify_key(lk, &core)), &core, &threads)
        );
        // Per scheduler, an option it reads re-keys the stage and an
        // option it ignores does not.
        let key = |o: &CompileOptions| schedule_key(analysis_key(modify_key(lk, &core)), &core, o);
        type Edit = fn(&mut CompileOptions);
        let budget: Edit = |o| o.budget = Some(40);
        let restarts: Edit = |o| o.restarts += 1;
        let fuel: Edit = |o| o.fuel = Some(10);
        let priority: Edit = |o| o.priority = Priority::Alap;
        let max_nodes: Edit = |o| o.exact_max_nodes += 1;
        let compaction: Edit = |o| o.compaction = !o.compaction;
        let list = CompileOptions {
            compaction: false,
            ..opts.clone()
        };
        let exact = CompileOptions {
            exact: true,
            ..opts.clone()
        };
        let cases: [(&CompileOptions, &[Edit], &[Edit]); 3] = [
            (
                &opts,
                &[budget, restarts, fuel, compaction],
                &[priority, max_nodes],
            ),
            (
                &list,
                &[budget, priority, compaction],
                &[restarts, fuel, max_nodes],
            ),
            (
                &exact,
                &[budget, max_nodes, fuel],
                &[restarts, priority, compaction],
            ),
        ];
        for (base, reads, ignores) in cases {
            for (edits, changes) in [(reads, true), (ignores, false)] {
                for edit in edits {
                    let mut edited = base.clone();
                    edit(&mut edited);
                    assert_eq!(
                        key(base) != key(&edited),
                        changes,
                        "{:?} → {edited:?}",
                        base.scheduler()
                    );
                }
            }
        }
    }

    #[test]
    fn dfg_fingerprint_is_content_keyed() {
        let a = run_frontend("input u; output y; y = pass(u);").unwrap();
        // Whitespace-only edits change the source but not the graph.
        let b = run_frontend("input u;  output y;\ny = pass(u);").unwrap();
        assert_eq!(a.dfg_fp, b.dfg_fp);
        let c = run_frontend("input u; output y; y = pass_clip(u);").unwrap();
        assert_ne!(a.dfg_fp, c.dfg_fp);
        // Each pair differs in one field only, and must re-key: a local's
        // name (RT names are built from it), a coefficient's last digit,
        // and the sign of a zero constant.
        for (x, y) in [
            (
                "input u; output y; t := pass(u); y = pass(t);",
                "input u; output y; s := pass(u); y = pass(s);",
            ),
            (
                "input u; coeff k = 0.123456789; output y; y = mlt(k, u);",
                "input u; coeff k = 0.123456788; output y; y = mlt(k, u);",
            ),
            (
                "input u; output y; y = add(u, 0.0);",
                "input u; output y; y = add(u, -0.0);",
            ),
        ] {
            let (x, y) = (run_frontend(x).unwrap(), run_frontend(y).unwrap());
            assert_ne!(x.dfg_fp, y.dfg_fp, "{:?}", y.dfg);
        }
    }

    #[test]
    fn modify_without_isa_shares_the_lowering() {
        let core = cores::tiny_core();
        let fe = run_frontend("input u; output y; y = pass(u);").unwrap();
        let lowered = run_lower(&fe.dfg, &core, &CompileOptions::default()).unwrap();
        let modified = run_modify(&lowered, &core);
        assert!(Arc::ptr_eq(&lowered.lowering, &modified.lowering));
    }
}
