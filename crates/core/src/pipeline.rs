//! The compiler pipeline of figure 1b.
//!
//! ```text
//! application source
//!   → RT generation                      (dspcc-rtgen::lower)
//!   → RT modification                    (merging + ISA conflicts)
//!   → scheduling & instruction encoding  (dspcc-sched, dspcc-encode)
//! ```
//!
//! Failures at any stage — unroutable values, missed cycle budgets,
//! register-file overflows — are *feasibility feedback*: "if this does not
//! result in a feasible solution an iteration cycle is required in which
//! the source must be improved" (section 4). The error type is therefore
//! deliberately rich.
//!
//! The pipeline itself lives in [`crate::stages`] as explicit,
//! individually-invokable stage functions, and [`crate::CompileSession`]
//! is their one driver. [`Compiler`] is a thin options builder whose
//! `compile` runs a fresh session per call. Compile its
//! [`Compiler::options`] through one long-lived session (or use the
//! [`crate::explore`] driver) when compiling many variants of the same
//! application — stage artifacts are then reused across compiles.

use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use dspcc_arch::{Controller, Datapath};
use dspcc_dfg::Dfg;
use dspcc_encode::{FieldLayout, Microcode, RegAssignment};
use dspcc_isa::{Classification, CoverStrategy, InstructionSet};
use dspcc_num::WordFormat;
use dspcc_rtgen::Lowering;
use dspcc_sched::deps::DependenceGraph;
use dspcc_sched::folding::LoopEdge;
use dspcc_sched::folding::{fold_schedule_with_restarts, FoldError, FoldedSchedule};
use dspcc_sched::list::Priority;
use dspcc_sched::report::OccupationReport;
use dspcc_sched::Schedule;
use dspcc_sim::CoreSim;

use crate::session::{CompileOptions, CompileSession};

/// An in-house core: datapath + controller + instruction set (+ word
/// format) — "the core is defined by the presented datapath, the
/// controller and the instruction set" (section 7).
///
/// Build one with [`Core::new`]. The instruction-word [`FieldLayout`] is
/// derived from the datapath and word format on first use
/// ([`Core::layout`]) and shared by every compile of the core. A clone
/// starts without one, so edit the datapath or format of a clone, not of
/// a core that has compiled.
#[derive(Debug, Clone)]
pub struct Core {
    /// Human-readable name.
    pub name: String,
    /// The datapath (figure 3 instantiation).
    pub datapath: Datapath,
    /// The controller (figure 4 instantiation).
    pub controller: Controller,
    /// Datapath word format.
    pub format: WordFormat,
    /// RT classification; `None` derives one automatically when an
    /// instruction set is given.
    pub classification: Option<Classification>,
    /// The instruction set; `None` means "fully horizontal" (datapath
    /// conflicts only).
    pub instruction_set: Option<InstructionSet>,
    /// Clique-cover strategy for the artificial resources.
    pub cover: CoverStrategy,
    layout: LayoutSlot,
}

impl Core {
    /// A core of the given parts. Derives nothing: the field layout waits
    /// for its first use.
    pub fn new(
        name: impl Into<String>,
        datapath: Datapath,
        controller: Controller,
        format: WordFormat,
        classification: Option<Classification>,
        instruction_set: Option<InstructionSet>,
        cover: CoverStrategy,
    ) -> Core {
        Core {
            name: name.into(),
            datapath,
            controller,
            format,
            classification,
            instruction_set,
            cover,
            layout: LayoutSlot::default(),
        }
    }

    /// The instruction-word layout of this core's datapath and word
    /// format, derived on the first call.
    pub fn layout(&self) -> &Arc<FieldLayout> {
        self.layout
            .0
            .get_or_init(|| Arc::new(FieldLayout::derive(&self.datapath, self.format)))
    }
}

/// The slot [`Core::layout`] fills. A clone is empty, so a copy whose
/// datapath or format is then edited derives its own layout.
#[derive(Default)]
struct LayoutSlot(OnceLock<Arc<FieldLayout>>);

impl Clone for LayoutSlot {
    fn clone(&self) -> Self {
        LayoutSlot::default()
    }
}

/// Prints the same whether or not the layout was derived, so a core's
/// `Debug` output does not depend on whether it has compiled.
impl fmt::Debug for LayoutSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LayoutSlot").finish_non_exhaustive()
    }
}

/// Compilation failure, wrapping each stage's error with the stage name.
#[derive(Debug, Clone)]
pub enum CompileError {
    /// Source does not parse.
    Parse(dspcc_dfg::ParseError),
    /// Source does not analyse.
    Sema(dspcc_dfg::SemaError),
    /// RT generation failed (unroutable / missing units / RAM overflow).
    Lower(dspcc_rtgen::LowerError),
    /// Dependence analysis failed.
    Deps(String),
    /// No schedule within the budget.
    Schedule(dspcc_sched::SchedError),
    /// Register allocation failed.
    RegAlloc(dspcc_encode::RegAllocError),
    /// Instruction encoding failed.
    Encode(dspcc_encode::EncodeError),
    /// The schedule exceeds the controller's program memory.
    ProgramTooLong {
        /// Instructions needed.
        needed: u32,
        /// Program memory depth.
        available: u32,
    },
    /// The caller's [`dspcc_sched::CancelToken`] was raised; the partial
    /// result was discarded and nothing was cached.
    Cancelled,
    /// A pipeline stage panicked and the panic was contained at a
    /// quarantine boundary (fleet cell, design-space point). The payload
    /// is the panic message — a compiler bug to be reported, not a user
    /// error.
    Panicked(String),
    /// The persistent artifact cache hit a *transient* I/O error (not
    /// corruption — corrupt entries are quarantined and recomputed
    /// silently) under [`crate::TransientPolicy::Fail`]. Retryable: the
    /// compile service retries these with seeded backoff. Never cached,
    /// like [`CompileError::Cancelled`] — disk weather is not a property
    /// of the stage inputs.
    CacheIo(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "parse: {e}"),
            CompileError::Sema(e) => write!(f, "analysis: {e}"),
            CompileError::Lower(e) => write!(f, "RT generation: {e}"),
            CompileError::Deps(e) => write!(f, "dependence analysis: {e}"),
            CompileError::Schedule(e) => write!(f, "scheduling: {e}"),
            CompileError::RegAlloc(e) => write!(f, "register allocation: {e}"),
            CompileError::Encode(e) => write!(f, "encoding: {e}"),
            CompileError::ProgramTooLong { needed, available } => write!(
                f,
                "program needs {needed} instructions, controller stores {available}"
            ),
            CompileError::Cancelled => write!(f, "compilation cancelled by the caller"),
            CompileError::Panicked(msg) => {
                write!(f, "compiler panic (contained): {msg}")
            }
            CompileError::CacheIo(msg) => {
                write!(f, "artifact cache I/O: {msg}")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// Wall-clock time spent in each stage of one compile — the per-stage
/// profile that tells a designer (and the perf work) *where* a compile
/// spends its milliseconds, not just the end-to-end total. Surfaced by
/// `examples/profile_compile.rs` and exercised in CI.
///
/// Stages served from a [`CompileSession`]'s artifact cache report
/// [`Duration::ZERO`] and count into [`CompileStats::cache_hits`] instead,
/// so `total()` tracks the work *this* compile actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileStats {
    /// Source parsing.
    pub parse: Duration,
    /// Semantic analysis / signal-flow-graph building.
    pub sema: Duration,
    /// RT generation (`dspcc_rtgen::lower`).
    pub lower: Duration,
    /// RT modification (ISA classification + artificial resources).
    pub modify: Duration,
    /// Dependence-graph construction.
    pub deps: Duration,
    /// Conflict-matrix construction.
    pub matrix: Duration,
    /// Scheduling (including the length lower bound).
    pub schedule: Duration,
    /// Register allocation.
    pub regalloc: Duration,
    /// Word-format derivation + instruction encoding.
    pub encode: Duration,
    /// Pipeline stages served from the session's artifact cache
    /// (0 on a cold compile; up to 7 — frontend, lower, modify,
    /// deps+matrix, schedule, regalloc, encode — on a full repeat).
    /// Includes [`CompileStats::disk_hits`].
    pub cache_hits: u32,
    /// The subset of [`CompileStats::cache_hits`] served from the
    /// session's *persistent* disk cache (deserialized from a
    /// checksum-verified entry rather than found in the in-memory memo).
    pub disk_hits: u32,
    /// `Some` when the fuel budget truncated the scheduling search and
    /// the compile returned its best-so-far result (see
    /// [`dspcc_sched::Degradation`]); `None` on a full-budget compile.
    pub degradation: Option<dspcc_sched::Degradation>,
}

impl CompileStats {
    /// Sum over all stages (cached stages contribute zero).
    pub fn total(&self) -> Duration {
        self.parse
            + self.sema
            + self.lower
            + self.modify
            + self.deps
            + self.matrix
            + self.schedule
            + self.regalloc
            + self.encode
    }
}

impl fmt::Display for CompileStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse {:?} | sema {:?} | lower {:?} | modify {:?} | deps {:?} | matrix {:?} | \
             schedule {:?} | regalloc {:?} | encode {:?} (total {:?}, cache hits {})",
            self.parse,
            self.sema,
            self.lower,
            self.modify,
            self.deps,
            self.matrix,
            self.schedule,
            self.regalloc,
            self.encode,
            self.total(),
            self.cache_hits
        )?;
        if let Some(d) = &self.degradation {
            write!(f, " [degraded: {d}]")?;
        }
        Ok(())
    }
}

/// The compiler: a configured pipeline for one core.
///
/// Non-consuming builder — set options, then call [`Compiler::compile`]
/// repeatedly (the design-iteration loop of figure 1). Every `compile`
/// runs through a fresh [`CompileSession`]; compile [`Compiler::options`]
/// through one long-lived session to reuse stage artifacts across
/// compiles.
#[derive(Debug, Clone)]
pub struct Compiler<'c> {
    core: &'c Core,
    /// Lazily-built shared copy of `core`, so repeated `compile` calls in
    /// the iteration loop clone the core once, not once per compile (the
    /// borrow on `core` guarantees it cannot change underneath).
    core_arc: OnceLock<Arc<Core>>,
    options: CompileOptions,
}

impl<'c> Compiler<'c> {
    /// A compiler for `core` with default options: no explicit budget
    /// (the controller's program depth still caps the schedule), constant
    /// CSE off (each offset is refetched, the behaviour of the paper's
    /// constant units), and the compacting scheduler (the restart engine
    /// with 6 restarts, then justification).
    pub fn new(core: &'c Core) -> Self {
        Compiler {
            core,
            core_arc: OnceLock::new(),
            options: CompileOptions::default(),
        }
    }

    fn core_arc(&self) -> &Arc<Core> {
        self.core_arc.get_or_init(|| Arc::new(self.core.clone()))
    }

    /// Sets the hard cycle budget (e.g. 64 for the audio core: 2.8 MHz /
    /// 44 kHz).
    pub fn budget(&mut self, cycles: u32) -> &mut Self {
        self.options.budget = Some(cycles);
        self
    }

    /// Sets the priority function of the list pass that
    /// `compaction(false)` selects.
    pub fn priority(&mut self, priority: Priority) -> &mut Self {
        self.options.priority = priority;
        self
    }

    /// Enables merging of identical constant fetches.
    pub fn cse_constants(&mut self, on: bool) -> &mut Self {
        self.options.cse_constants = on;
        self
    }

    /// Uses the exact branch-and-bound scheduler (with execution-interval
    /// pruning) within the budget instead of the compacting scheduler.
    pub fn exact(&mut self, on: bool) -> &mut Self {
        self.options.exact = on;
        self
    }

    /// Node limit for the exact scheduler's branch-and-bound search
    /// (default 2,000,000) — the knob that trades completeness for a
    /// bounded worst case on hostile inputs.
    pub fn exact_max_nodes(&mut self, n: u64) -> &mut Self {
        self.options.exact_max_nodes = n;
        self
    }

    /// Restart count for the randomised scheduling search.
    pub fn restarts(&mut self, n: u32) -> &mut Self {
        self.options.restarts = n;
        self
    }

    /// Disables justification compaction (single greedy pass only) — the
    /// weak-scheduler baseline of experiment E10.
    pub fn compaction(&mut self, on: bool) -> &mut Self {
        self.options.compaction = on;
        self
    }

    /// Deterministic compute budget for the scheduling search, in work
    /// units (one unit = one attempt, justification pass, or
    /// branch-and-bound node; never wall-clock, so budgeted output is
    /// bit-identical on every machine). On exhaustion the compile
    /// degrades gracefully — best-so-far schedule, with a
    /// [`dspcc_sched::Degradation`] report on
    /// [`CompileStats::degradation`].
    pub fn fuel(&mut self, units: u64) -> &mut Self {
        self.options.fuel = Some(units);
        self
    }

    /// The accumulated option set (what a [`CompileSession`] keys stage
    /// caches on).
    pub fn options(&self) -> &CompileOptions {
        &self.options
    }

    /// Runs the full pipeline on `source` through a fresh session.
    ///
    /// # Errors
    ///
    /// Returns the first stage failure as [`CompileError`] — the
    /// designer-facing feasibility feedback.
    pub fn compile(&self, source: &str) -> Result<Compiled, CompileError> {
        CompileSession::new().compile(self.core_arc(), source, &self.options)
    }
}

/// Everything the pipeline produced, kept around for inspection,
/// reporting, and simulation.
///
/// The large members are `Arc`-shared with the session's stage artifacts:
/// compiling N variants of one application does **not** clone the core,
/// graph, lowering, or dependence graph N times — the variants share
/// them, and each `Compiled` is cheap to hold.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The core compiled for.
    pub core: Arc<Core>,
    /// The application's signal-flow graph.
    pub dfg: Arc<Dfg>,
    /// RT generation output (program already ISA-modified).
    pub lowering: Arc<Lowering>,
    /// Dependence graph used for scheduling.
    pub deps: Arc<DependenceGraph>,
    /// The schedule (one instruction per cycle).
    pub schedule: Arc<Schedule>,
    /// Provable lower bound on the schedule length
    /// (`dspcc_sched::bounds`), computed during compilation:
    /// `cycles() == schedule_bound` proves the schedule optimal.
    pub schedule_bound: u32,
    /// Physical register assignment.
    pub assignment: Arc<RegAssignment>,
    /// Executable microcode.
    pub microcode: Arc<Microcode>,
    /// Names of the artificial resources installed (empty without an ISA).
    pub artificial_names: Vec<String>,
    /// The classification used, if any.
    pub classification: Option<Classification>,
    /// Per-stage wall-clock profile of this compile.
    pub stats: CompileStats,
}

impl Compiled {
    /// Cycle count of the time-loop.
    pub fn cycles(&self) -> u32 {
        self.schedule.length()
    }

    /// Loop edges in the scheduler's type, for folding experiments.
    pub fn loop_edges(&self) -> Vec<LoopEdge> {
        self.lowering
            .loop_edges
            .iter()
            .map(|&(from, to, distance)| LoopEdge { from, to, distance })
            .collect()
    }

    /// The figure-9 occupation report for the audio-core resource rows,
    /// annotated with the schedule-length lower bound — the occupation
    /// percentages *suggest* quality, the bound *proves* it.
    pub fn occupation(&self, rows: &[(&str, &str)]) -> OccupationReport {
        OccupationReport::compute(&self.lowering.program, &self.schedule, rows)
            .with_lower_bound(self.schedule_bound)
    }

    /// Folds the time-loop by modulo scheduling (the paper's future work):
    /// returns the folded schedule with the smallest initiation interval
    /// found, overlapping at most `max_stages` iterations.
    ///
    /// Folded schedules are a *scheduling-level* result (like the paper's
    /// own figures); the executable microcode remains the flat schedule.
    ///
    /// # Errors
    ///
    /// Returns [`dspcc_sched::folding::FoldError`] if no initiation
    /// interval up to the flat length admits a modulo schedule.
    pub fn fold(&self, max_stages: u32, restarts: u32) -> Result<FoldedSchedule, FoldError> {
        let edges = self.loop_edges();
        fold_schedule_with_restarts(
            &self.lowering.program,
            &self.deps,
            &edges,
            self.schedule.length().max(1),
            restarts,
            max_stages,
        )
    }

    /// The occupation report of a folded kernel: activity per phase
    /// (cycle mod II).
    pub fn folded_occupation(
        &self,
        folded: &FoldedSchedule,
        rows: &[(&str, &str)],
    ) -> OccupationReport {
        let mut kernel = dspcc_sched::Schedule::new();
        for id in self.lowering.program.rt_ids() {
            kernel.place(id, folded.phase(id));
        }
        OccupationReport::compute(&self.lowering.program, &kernel, rows)
    }

    /// A cycle-accurate simulator loaded with the generated microcode.
    ///
    /// # Errors
    ///
    /// Propagates [`dspcc_sim::SimError`] from construction.
    pub fn simulator(&self) -> Result<CoreSim, dspcc_sim::SimError> {
        CoreSim::new(&self.core.datapath, &self.microcode)
    }

    /// Bit-identity against `reference`: the first of microcode words,
    /// ROM image, schedule and register mapping (checked in that order)
    /// that differs, or `None` when all four are identical.
    pub fn diverges_from(&self, reference: &Compiled) -> Option<ArtifactDivergence> {
        if self.microcode.words != reference.microcode.words {
            Some(ArtifactDivergence::MicrocodeWords)
        } else if self.microcode.rom_image != reference.microcode.rom_image {
            Some(ArtifactDivergence::RomImage)
        } else if self.schedule != reference.schedule {
            Some(ArtifactDivergence::Schedule)
        } else if self.assignment.mapping != reference.assignment.mapping {
            Some(ArtifactDivergence::RegisterMapping)
        } else {
            None
        }
    }
}

/// The compiled artifact [`Compiled::diverges_from`] found different.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactDivergence {
    /// The encoded instruction words.
    MicrocodeWords,
    /// The coefficient ROM image.
    RomImage,
    /// The schedule.
    Schedule,
    /// The physical register mapping.
    RegisterMapping,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cores;
    use dspcc_dfg::Interpreter;

    #[test]
    fn tiny_core_end_to_end() {
        let core = cores::tiny_core();
        let compiled = Compiler::new(&core)
            .compile("input u; coeff k = 0.5; output y; y = add_clip(mlt(k, u), u);")
            .unwrap();
        assert!(compiled.cycles() > 0);
        let mut sim = compiled.simulator().unwrap();
        let mut interp = Interpreter::new(&compiled.dfg, core.format);
        for x in [0i64, 1000, -2000, 32767, -32768] {
            assert_eq!(sim.step_frame(&[x]).unwrap(), interp.step(&[x]));
        }
    }

    #[test]
    fn budget_violation_reports_schedule_error() {
        let core = cores::tiny_core();
        let err = Compiler::new(&core)
            .budget(2)
            .compile("input u; output y; y = pass(u);")
            .unwrap_err();
        assert!(matches!(err, CompileError::Schedule(_)), "{err}");
    }

    #[test]
    fn parse_and_sema_errors_wrapped() {
        let core = cores::tiny_core();
        let err = Compiler::new(&core).compile("input u; y :=").unwrap_err();
        assert!(matches!(err, CompileError::Parse(_)));
        let err = Compiler::new(&core)
            .compile("input u; output y; y = frob(u);")
            .unwrap_err();
        assert!(matches!(err, CompileError::Sema(_)));
        assert!(err.to_string().contains("frob"));
    }

    #[test]
    fn lower_error_wrapped() {
        // tiny_core has no RAM: taps are impossible.
        let core = cores::tiny_core();
        let err = Compiler::new(&core)
            .compile("input u; output y; y = pass(u@1);")
            .unwrap_err();
        assert!(matches!(err, CompileError::Lower(_)));
    }

    #[test]
    fn audio_core_applies_abc_resource() {
        let core = cores::audio_core();
        let compiled = Compiler::new(&core)
            .compile("input u; output y; y = pass(u);")
            .unwrap();
        assert_eq!(compiled.artificial_names, vec!["ABC".to_owned()]);
        // The input read and the output write both carry ABC.
        let carrying = compiled
            .lowering
            .program
            .rts()
            .filter(|(_, rt)| rt.usage_of("ABC").is_some())
            .count();
        assert_eq!(carrying, 2);
    }

    #[test]
    fn exact_scheduler_matches_list_feasibility() {
        let core = cores::tiny_core();
        let src = "input u; coeff k = 0.25; output y; y = add(mlt(k, u), u);";
        let list = Compiler::new(&core).compile(src).unwrap();
        let exact = Compiler::new(&core)
            .budget(list.cycles())
            .exact(true)
            .compile(src)
            .unwrap();
        assert!(exact.cycles() <= list.cycles());
        let mut sim = exact.simulator().unwrap();
        let mut interp = Interpreter::new(&exact.dfg, core.format);
        for x in [500i64, -500] {
            assert_eq!(sim.step_frame(&[x]).unwrap(), interp.step(&[x]));
        }
    }

    #[test]
    fn exact_max_nodes_is_settable_and_observed() {
        let core = cores::tiny_core();
        let src = "input u; coeff k = 0.25; output y; y = add(mlt(k, u), u);";
        let feasible = Compiler::new(&core).compile(src).unwrap();
        // The builder records the limit...
        let mut compiler = Compiler::new(&core);
        compiler
            .budget(feasible.cycles())
            .exact(true)
            .exact_max_nodes(1);
        assert_eq!(compiler.options().exact_max_nodes, 1);
        // ...and a one-node search cannot place the program: the exact
        // scheduler exhausts its budget and reports a schedule failure
        // where the default limit (see exact_scheduler_matches_list_
        // feasibility) succeeds.
        let err = compiler.compile(src).unwrap_err();
        assert!(matches!(err, CompileError::Schedule(_)), "{err}");
    }

    #[test]
    fn audio_core_runs_delay_lines() {
        let core = cores::audio_core();
        let compiled = Compiler::new(&core)
            .budget(64)
            .compile("input u; output y; y = pass(u@2);")
            .unwrap();
        assert!(compiled.cycles() <= 64);
        let mut sim = compiled.simulator().unwrap();
        let mut interp = Interpreter::new(&compiled.dfg, core.format);
        for x in 0..8i64 {
            assert_eq!(
                sim.step_frame(&[x * 111]).unwrap(),
                interp.step(&[x * 111]),
                "frame {x}"
            );
        }
    }

    #[test]
    fn occupation_report_accessible() {
        let core = cores::audio_core();
        let compiled = Compiler::new(&core)
            .compile("input u; coeff k = 0.5; output y; y = pass_clip(mlt(k, u@1));")
            .unwrap();
        let report = compiled.occupation(&[("MULT", "mult"), ("RAM", "ram")]);
        assert!(report.row("MULT").unwrap().busy_cycles() >= 1);
        assert!(report.row("RAM").unwrap().busy_cycles() >= 2);
    }

    #[test]
    fn warm_session_reuses_frontend_and_analysis() {
        let core = Arc::new(cores::audio_core());
        let src = "input u; coeff k = 0.5; output y; y = add_clip(mlt(k, u), u);";
        let session = CompileSession::new();
        let cold = session
            .compile(&core, src, &CompileOptions::default())
            .unwrap();
        assert_eq!(cold.stats.cache_hits, 0);
        // Re-scheduling with only schedule-stage options changed skips
        // frontend, lower, modify, and deps+matrix: 4 hits.
        let warm_opts = CompileOptions {
            budget: Some(cold.cycles() + 4),
            restarts: 2,
            ..CompileOptions::default()
        };
        let warm = session.compile(&core, src, &warm_opts).unwrap();
        assert_eq!(warm.stats.cache_hits, 4);
        assert!(Arc::ptr_eq(&cold.lowering, &warm.lowering));
        assert!(Arc::ptr_eq(&cold.deps, &warm.deps));
        // An identical repeat hits every stage.
        let repeat = session
            .compile(&core, src, &CompileOptions::default())
            .unwrap();
        assert_eq!(repeat.stats.cache_hits, 7);
        assert!(Arc::ptr_eq(&cold.microcode, &repeat.microcode));
        assert_eq!(repeat.stats.total(), Duration::ZERO);
    }
    #[test]
    fn compiles_of_one_core_share_its_layout() {
        let mut targets = vec![cores::audio_core()];
        targets.extend((0..16).map(cores::generated_core));
        for core in &targets {
            let derived = FieldLayout::derive(&core.datapath, core.format);
            assert_eq!(**core.layout(), derived, "{}", core.name);
        }
        let core = Arc::new(cores::audio_core());
        let src = "input u; coeff k = 0.5; output y; y = add_clip(mlt(k, u), u);";
        let session = CompileSession::new();
        let first = session
            .compile(&core, src, &CompileOptions::default())
            .unwrap();
        let relaxed = CompileOptions {
            budget: Some(first.cycles() + 3),
            ..CompileOptions::default()
        };
        let second = session.compile(&core, src, &relaxed).unwrap();
        assert!(!Arc::ptr_eq(&first.microcode, &second.microcode));
        assert!(Arc::ptr_eq(
            &first.microcode.layout,
            &second.microcode.layout
        ));
        assert!(Arc::ptr_eq(&first.microcode.layout, core.layout()));
    }

    #[test]
    fn edited_clone_derives_its_own_layout() {
        let core = cores::audio_core();
        let original = Arc::clone(core.layout());
        let mut wider = core.clone();
        wider.format = WordFormat::new(24).unwrap();
        assert_eq!(
            **wider.layout(),
            FieldLayout::derive(&wider.datapath, wider.format)
        );
        assert_ne!(wider.layout().width(), original.width());
        let mut rewired = core.clone();
        rewired.datapath = cores::tiny_core().datapath;
        assert_eq!(
            **rewired.layout(),
            FieldLayout::derive(&rewired.datapath, rewired.format)
        );
        assert_ne!(**rewired.layout(), *original);
        // A compile of the edited clone encodes in the clone's layout.
        let compiled = Compiler::new(&wider)
            .compile("input u; output y; y = pass(u);")
            .unwrap();
        assert_eq!(compiled.microcode.layout.width(), wider.layout().width());
        assert!(Arc::ptr_eq(core.layout(), &original));
    }
}
