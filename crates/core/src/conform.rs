//! Cross-core differential conformance — the fleet-scale oracle.
//!
//! Every differential test in this repository so far ran against three
//! hand-written datapaths. The conformance fleet opens the architecture
//! axis: for a block of generator seeds × the standard application corpus
//! it compiles each app on each generated core
//! ([`crate::cores::generated_core`]) and pins the simulated microcode
//! ([`dspcc_sim::CoreSim`]) **bit-exact** against the golden model
//! ([`dspcc_dfg::Interpreter`]) over a deterministic stimulus stream.
//!
//! Each `(seed, app)` cell classifies as:
//!
//! * [`CellOutcome::Pass`] — compiled, and every simulated frame matched
//!   the interpreter bit for bit;
//! * [`CellOutcome::Infeasible`] — the pipeline rejected the combination
//!   with a stated reason (no route, RAM overflow, register pressure,
//!   budget, program memory…): the paper's designer feedback, perfectly
//!   legitimate for a random core;
//! * [`CellOutcome::Mismatch`] — the pipeline *accepted* the combination
//!   but the microcode diverged from the golden model (or failed to
//!   execute). **Any mismatch is a compiler bug by construction** — this
//!   is the strongest end-to-end property the repo can state, and every
//!   future scheduler/encoder/regalloc change is now checked against
//!   hundreds of architectures instead of three.
//!
//! The fleet also runs **merged-core** cells
//! ([`ConformFleet::merged_pairs`]): each `(a, b)` pair compiles the
//! corpus on the structural union of two generated cores
//! ([`crate::cores::merged_core`]) — exactly the cross-core move the
//! co-design search ([`crate::codesign`]) explores — so datapath merging
//! is differentially verified at fleet scale, not just point-tested.
//!
//! Determinism: cores, stimulus, and compilation are all pure functions
//! of the seed block, and the fleet runs on the shared sweep harness
//! (DESIGN.md, "Sweep harness") — [`ConformFleet::run`] returns the same
//! [`ConformReport`] for every worker-thread count (pinned by
//! `tests/conform_fleet.rs`). Failures therefore reproduce from the
//! `(seed, app)` pair (plus the merge partner, for merged cells) alone.

use std::fmt;
use std::sync::Arc;

use dspcc_arch::SplitMix64;
use dspcc_dfg::{Interpreter, StepError};
use dspcc_encode::Microcode;
use dspcc_sim::{CoreSim, SimError};

use crate::cores::{generated_core, merged_core};
use crate::pipeline::{CompileError, Compiled, Core};
use crate::session::{CompileOptions, CompileSession};
use crate::sweep;

/// The verdict of one `(seed, app)` conformance cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellOutcome {
    /// Compiled and matched the golden model on every frame.
    Pass {
        /// Time-loop cycle count of the compiled schedule.
        cycles: u32,
        /// Frames verified bit-exact.
        frames: u32,
        /// `Some` when the cell's fuel cap truncated the scheduling
        /// search and the compile served its best-so-far schedule (see
        /// [`dspcc_sched::Degradation`]). The cell still verified
        /// bit-exact — this flags that its cycle count may be weaker
        /// than a full-budget compile would produce.
        degradation: Option<dspcc_sched::Degradation>,
    },
    /// The pipeline rejected the combination (stage + reason) — designer
    /// feedback, not a bug.
    Infeasible(String),
    /// The pipeline accepted the combination but execution diverged from
    /// the golden model — a compiler bug by construction.
    Mismatch(String),
    /// The cell's deterministic fuel cap ran out before a schedule met
    /// the budget. The cell is quarantined (the sweep continues); the
    /// sweep that ran it appends a repro command to the message.
    Exhausted(String),
    /// The compiler panicked inside this cell. The panic was contained
    /// by the sweep — which continues — and the message carries the
    /// payload plus the sweep's repro command.
    Panicked {
        /// The panic payload (or a placeholder for non-string payloads)
        /// plus the repro command.
        message: String,
    },
}

impl CellOutcome {
    /// Whether this cell passed.
    pub fn is_pass(&self) -> bool {
        matches!(self, CellOutcome::Pass { .. })
    }

    /// Whether this cell passed *degraded*: verified bit-exact, but the
    /// schedule came from a fuel-truncated search rather than the full
    /// exhaustive/heuristic run.
    pub fn is_degraded_pass(&self) -> bool {
        matches!(
            self,
            CellOutcome::Pass {
                degradation: Some(_),
                ..
            }
        )
    }

    /// Whether this cell is a mismatch (a bug).
    pub fn is_mismatch(&self) -> bool {
        matches!(self, CellOutcome::Mismatch(_))
    }

    /// Whether this cell was quarantined (panic or fuel exhaustion)
    /// rather than verified one way or the other.
    pub fn is_quarantined(&self) -> bool {
        matches!(
            self,
            CellOutcome::Panicked { .. } | CellOutcome::Exhausted(_)
        )
    }

    /// Appends `; repro: {command}` to a quarantined outcome's message;
    /// every other outcome passes through unchanged.
    pub(crate) fn with_repro(self, command: &str) -> CellOutcome {
        match self {
            CellOutcome::Exhausted(m) => CellOutcome::Exhausted(format!("{m}; repro: {command}")),
            CellOutcome::Panicked { message } => CellOutcome::Panicked {
                message: format!("{message}; repro: {command}"),
            },
            other => other,
        }
    }
}

/// One row of the conformance table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConformCell {
    /// The generator seed of the core.
    pub seed: u64,
    /// `Some(b)` when this cell ran on the structural union of the
    /// generated cores for `seed` and `b` ([`crate::cores::merged_core`])
    /// rather than on `generated_core(seed)` alone.
    pub merged_with: Option<u64>,
    /// The application's corpus name.
    pub app: String,
    /// The verdict.
    pub outcome: CellOutcome,
}

impl ConformCell {
    /// The cell's core label for tables and failure lines: the seed in
    /// hex, or `a+b` for a merged cell.
    pub fn core_label(&self) -> String {
        match self.merged_with {
            Some(b) => format!("{:x}+{:x}", self.seed, b),
            None => format!("{:x}", self.seed),
        }
    }
}

/// The standard application corpus: name → source, in fixed order. The
/// sizes are chosen so every workload shape (taps, feedback, pure
/// parallelism, ALU-only, the full figure-7 application) is represented
/// while a fleet cell stays fast enough for CI.
pub fn standard_corpus() -> Vec<(String, String)> {
    vec![
        ("fir8".to_owned(), crate::apps::fir(8)),
        ("biquad3".to_owned(), crate::apps::biquad_cascade(3)),
        ("sop6".to_owned(), crate::apps::sum_of_products(6)),
        ("addtree8".to_owned(), crate::apps::add_tree(8)),
        ("audio".to_owned(), crate::apps::audio_application()),
    ]
}

/// A conformance fleet: a seed block × an application corpus, compiled
/// and differentially verified in parallel through one shared
/// [`CompileSession`].
///
/// # Example
///
/// ```no_run
/// use dspcc::conform::ConformFleet;
///
/// let report = ConformFleet::new().seed_range(0..16).standard_corpus().run();
/// assert!(report.mismatches().next().is_none(), "{report}");
/// ```
#[derive(Debug, Clone)]
pub struct ConformFleet {
    seeds: Vec<u64>,
    merged: Vec<(u64, u64)>,
    apps: Vec<(String, String)>,
    frames: u32,
    threads: usize,
    options: CompileOptions,
}

impl Default for ConformFleet {
    fn default() -> Self {
        ConformFleet {
            seeds: Vec::new(),
            merged: Vec::new(),
            apps: Vec::new(),
            frames: 8,
            threads: 0,
            options: CompileOptions::sweep_cell(),
        }
    }
}

impl ConformFleet {
    /// An empty fleet (no seeds, no apps).
    pub fn new() -> Self {
        ConformFleet::default()
    }

    /// Adds a contiguous seed block.
    pub fn seed_range(mut self, range: std::ops::Range<u64>) -> Self {
        self.seeds.extend(range);
        self
    }

    /// Adds explicit seeds.
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds.extend(seeds);
        self
    }

    /// Adds merged-core cells: each `(a, b)` pair runs every app on the
    /// structural union of the two generated cores
    /// ([`crate::cores::merged_core`]), with its instruction set
    /// re-derived on the union. A pair whose union cannot be built
    /// becomes per-app [`CellOutcome::Infeasible`] cells with the merge
    /// machinery's stated reason — never a silent skip.
    pub fn merged_pairs(mut self, pairs: impl IntoIterator<Item = (u64, u64)>) -> Self {
        self.merged.extend(pairs);
        self
    }

    /// Adds one application.
    pub fn app(mut self, name: impl Into<String>, source: impl Into<String>) -> Self {
        self.apps.push((name.into(), source.into()));
        self
    }

    /// Adds the whole [`standard_corpus`].
    pub fn standard_corpus(mut self) -> Self {
        self.apps.extend(standard_corpus());
        self
    }

    /// Frames verified per passing cell (default 8).
    pub fn frames(mut self, frames: u32) -> Self {
        self.frames = frames;
        self
    }

    /// Worker threads: `0` (default) one per available core, `1` serial.
    /// The report is identical for every setting.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Overrides the per-cell compile options.
    pub fn options(mut self, options: CompileOptions) -> Self {
        self.options = options;
        self
    }

    /// Runs the fleet: every `(seed, app)` cell, in deterministic
    /// (seed-major) order — single-seed rows first, merged-pair rows
    /// after, each row in builder order.
    ///
    /// Every cell is contained: a panicking cell is quarantined as
    /// [`CellOutcome::Panicked`] and the sweep continues — one poisoned
    /// cell can never take down the table. Each quarantined cell carries
    /// the `examples/conform.rs` command that reruns it alone.
    ///
    /// # Panics
    ///
    /// Panics if the fleet has no seeds (nor merged pairs) or no apps.
    pub fn run(&self) -> ConformReport {
        assert!(
            !self.seeds.is_empty() || !self.merged.is_empty(),
            "fleet needs at least one seed or merged pair"
        );
        assert!(!self.apps.is_empty(), "fleet needs at least one app");
        // The table's row axis: single-seed cores first, merged-pair
        // cores after, in builder order.
        let units: Vec<(u64, Option<u64>)> = self
            .seeds
            .iter()
            .map(|&s| (s, None))
            .chain(self.merged.iter().map(|&(a, b)| (a, Some(b))))
            .collect();
        // Phase 1: generate the cores (parallel — the ISA closure is the
        // expensive part of generation). A merged pair whose union fails
        // carries the reason to its cells instead of a core.
        let cores = sweep::fan_out(
            self.threads,
            &units,
            |&(seed, merged_with)| match merged_with {
                None => Ok(Arc::new(generated_core(seed))),
                Some(b) => merged_core(seed, b)
                    .map(Arc::new)
                    .map_err(|e| e.to_string()),
            },
        );
        // Phase 2: the cells, through one shared session (stage artifacts
        // keyed by content — apps shared across variants of one core).
        let cells: Vec<(usize, usize)> = (0..units.len())
            .flat_map(|u| (0..self.apps.len()).map(move |a| (u, a)))
            .collect();
        let session = CompileSession::new();
        let cells = sweep::fan_out(self.threads, &cells, |&(u, a)| {
            let (seed, merged_with) = units[u];
            let (app, source) = &self.apps[a];
            let outcome = match &cores[u] {
                Err(reason) => {
                    CellOutcome::Infeasible(format!("merged core unbuildable: {reason}"))
                }
                Ok(core) => sweep::contain(|| {
                    conform_cell(
                        &session,
                        core,
                        seed,
                        app,
                        source,
                        self.frames,
                        &self.options,
                    )
                })
                .unwrap_or_else(|message| CellOutcome::Panicked { message })
                .with_repro(&repro_command(seed, merged_with, app, self.frames)),
            };
            ConformCell {
                seed,
                merged_with,
                app: app.clone(),
                outcome,
            }
        });
        ConformReport {
            apps: self.apps.iter().map(|(n, _)| n.clone()).collect(),
            cells,
        }
    }
}

/// Runs one conformance cell: compile `source` for `core`, then verify
/// `frames` frames of seeded stimulus bit-exact against the interpreter.
///
/// Public so targeted reproduction (`examples/conform.rs` prints the
/// `(seed, app)` pair of a failing cell) needs no fleet setup. A
/// quarantined outcome carries no reproduction command: the sweep that
/// ran the cell knows its own CLI and appends one
/// ([`ConformFleet::run`] does).
pub fn conform_cell(
    session: &CompileSession,
    core: &Arc<Core>,
    seed: u64,
    app: &str,
    source: &str,
    frames: u32,
    options: &CompileOptions,
) -> CellOutcome {
    let compiled = match session.compile(core, source, options) {
        Ok(c) => c,
        Err(CompileError::Schedule(dspcc_sched::SchedError::FuelExhausted { spent, budget })) => {
            return CellOutcome::Exhausted(format!(
                "fuel exhausted after {spent} unit(s) with no schedule within {budget} cycles"
            ))
        }
        Err(e) => return classify_error(e),
    };
    let divergence = match run_differential(&compiled, &compiled.microcode, seed, app, frames) {
        Ok(()) => {
            return CellOutcome::Pass {
                cycles: compiled.cycles(),
                frames,
                degradation: compiled.stats.degradation,
            }
        }
        Err(Divergence::Load(e)) => format!("simulator construction failed: {e}"),
        Err(Divergence::Golden { frame, error }) => {
            format!("frame {frame}: golden model rejected the stimulus: {error}")
        }
        Err(Divergence::Outputs { frame, diff }) => format!("frame {frame}: microcode {diff}"),
        Err(Divergence::Execution { frame, error }) => {
            format!("frame {frame}: microcode execution failed: {error}")
        }
    };
    CellOutcome::Mismatch(divergence)
}

/// Where a differential run against the golden model stopped.
pub(crate) enum Divergence {
    /// The simulator refused to load the microcode.
    Load(SimError),
    /// The golden model rejected frame `frame`'s stimulus.
    Golden { frame: u32, error: StepError },
    /// The microcode's outputs for frame `frame` differ from the golden
    /// model's; `diff` reads `got != golden expected (inputs …)`.
    Outputs { frame: u32, diff: String },
    /// The microcode failed to execute frame `frame`.
    Execution { frame: u32, error: SimError },
}

/// The differential run shared by the fleet and the fault audit: load
/// `microcode` (the compiled one or a mutant of it) on the compiled core
/// and race it against the interpreter golden model over `frames` frames
/// of the cell's [`stimulus_rng`] stream.
pub(crate) fn run_differential(
    compiled: &Compiled,
    microcode: &Microcode,
    seed: u64,
    app: &str,
    frames: u32,
) -> Result<(), Divergence> {
    let core = &compiled.core;
    let mut sim = CoreSim::new(&core.datapath, microcode).map_err(Divergence::Load)?;
    let mut interp = Interpreter::new(&compiled.dfg, core.format);
    let ports = compiled.dfg.input_ports().len();
    let mut rng = stimulus_rng(seed, app);
    let lo = core.format.min_value();
    let span = (core.format.max_value() - lo + 1) as u64;
    for frame in 0..frames {
        let inputs: Vec<i64> = (0..ports)
            .map(|_| lo + (rng.next_u64() % span) as i64)
            .collect();
        let expected = interp
            .try_step(&inputs)
            .map_err(|error| Divergence::Golden { frame, error })?;
        let got = sim
            .step_frame(&inputs)
            .map_err(|error| Divergence::Execution { frame, error })?;
        if got != expected {
            let diff = format!("{got:?} != golden {expected:?} (inputs {inputs:?})");
            return Err(Divergence::Outputs { frame, diff });
        }
    }
    Ok(())
}

/// Partitions a compile failure into designer feedback vs compiler bug.
///
/// Parse/sema/lowering/scheduling/register-pressure/program-memory
/// failures are the paper's legitimate feasibility feedback — a random
/// core may simply be too small for a workload. Dependence-analysis and
/// encoding failures are **not**: they mean an earlier stage *accepted*
/// the program and then handed an inconsistent artifact downstream
/// (e.g. a cyclic dependence graph, an RT whose operation is missing
/// from its own OPU's opcode table). Classifying those as `Infeasible`
/// would let such regressions hide inside the fleet's green
/// zero-mismatch verdict, so they are bugs — `Mismatch` — too.
fn classify_error(e: CompileError) -> CellOutcome {
    match e {
        CompileError::Deps(_) | CompileError::Encode(_) => {
            CellOutcome::Mismatch(format!("pipeline internal error: {e}"))
        }
        _ => CellOutcome::Infeasible(e.to_string()),
    }
}

/// The command that reruns exactly one fleet cell outside the fleet
/// (decimal seeds, like `--start`).
fn repro_command(seed: u64, merged_with: Option<u64>, app: &str, frames: u32) -> String {
    let core = match merged_with {
        None => format!("--seeds 1 --start {seed}"),
        Some(b) => format!("--merge-pairs {seed}+{b}"),
    };
    format!("cargo run --example conform -- {core} --apps {app} --frames {frames}")
}

/// The deterministic stimulus stream of a cell: a named substream of the
/// core seed, decoupled per app name so cells never share samples. The
/// fault audit ([`crate::fault`]) hunts injected faults through the same
/// [`run_differential`], so with exactly the stimulus the fleet would use.
fn stimulus_rng(seed: u64, app: &str) -> SplitMix64 {
    let tag = dspcc_arch::Fnv64::of_parts(|h| h.write_text(app));
    SplitMix64::substream(seed, tag)
}

/// The conformance table: one cell per `(seed, app)`, seed-major.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConformReport {
    /// Corpus app names, in column order.
    pub apps: Vec<String>,
    /// All cells, in deterministic (seed-major) order.
    pub cells: Vec<ConformCell>,
}

impl ConformReport {
    /// Cells that passed.
    pub fn passes(&self) -> impl Iterator<Item = &ConformCell> {
        self.cells.iter().filter(|c| c.outcome.is_pass())
    }

    /// Passing cells whose schedule was served by a fuel-degraded
    /// search — still bit-exact, but flagged so a fleet run under tight
    /// fuel cannot silently masquerade as a full-quality sweep.
    pub fn degraded_passes(&self) -> impl Iterator<Item = &ConformCell> {
        self.cells.iter().filter(|c| c.outcome.is_degraded_pass())
    }

    /// Cells the pipeline rejected.
    pub fn infeasible(&self) -> impl Iterator<Item = &ConformCell> {
        self.cells
            .iter()
            .filter(|c| matches!(c.outcome, CellOutcome::Infeasible(_)))
    }

    /// Cells that diverged — each one a bug with a `(seed, app)` repro.
    pub fn mismatches(&self) -> impl Iterator<Item = &ConformCell> {
        self.cells.iter().filter(|c| c.outcome.is_mismatch())
    }

    /// Quarantined cells (contained panics and fuel exhaustion) — the
    /// sweep completed around them, each carries a repro command.
    pub fn quarantined(&self) -> impl Iterator<Item = &ConformCell> {
        self.cells.iter().filter(|c| c.outcome.is_quarantined())
    }
}

impl fmt::Display for ConformReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:>18}", "core")?;
        for app in &self.apps {
            write!(f, " {app:>9}")?;
        }
        writeln!(f)?;
        for row in self.cells.chunks(self.apps.len().max(1)) {
            write!(f, "{:>18}", row[0].core_label())?;
            for cell in row {
                match &cell.outcome {
                    CellOutcome::Pass {
                        cycles,
                        degradation,
                        ..
                    } => {
                        let tag = if degradation.is_some() { "ok*" } else { "ok" };
                        write!(f, " {:>9}", format!("{tag}/{cycles}"))?
                    }
                    CellOutcome::Infeasible(_) => write!(f, " {:>9}", "infeas")?,
                    CellOutcome::Mismatch(_) => write!(f, " {:>9}", "MISMATCH")?,
                    CellOutcome::Exhausted(_) => write!(f, " {:>9}", "EXHAUST")?,
                    CellOutcome::Panicked { .. } => write!(f, " {:>9}", "PANIC")?,
                }
            }
            writeln!(f)?;
        }
        for cell in self.mismatches() {
            writeln!(
                f,
                "MISMATCH core={} app={}: {}",
                cell.core_label(),
                cell.app,
                match &cell.outcome {
                    CellOutcome::Mismatch(m) => m.as_str(),
                    _ => unreachable!(),
                }
            )?;
        }
        for cell in self.quarantined() {
            let (tag, detail) = match &cell.outcome {
                CellOutcome::Panicked { message } => ("PANIC", message.as_str()),
                CellOutcome::Exhausted(m) => ("EXHAUSTED", m.as_str()),
                _ => unreachable!(),
            };
            writeln!(
                f,
                "{tag} core={} app={}: {detail}",
                cell.core_label(),
                cell.app
            )?;
        }
        for cell in self.degraded_passes() {
            if let CellOutcome::Pass {
                degradation: Some(d),
                ..
            } = &cell.outcome
            {
                writeln!(
                    f,
                    "DEGRADED core={} app={}: bit-exact, but {d}",
                    cell.core_label(),
                    cell.app
                )?;
            }
        }
        write!(
            f,
            "{} cells: {} pass ({} degraded), {} infeasible, {} mismatch, {} quarantined",
            self.cells.len(),
            self.passes().count(),
            self.degraded_passes().count(),
            self.infeasible().count(),
            self.mismatches().count(),
            self.quarantined().count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panicked_cell_renders_as_quarantined() {
        let cell = |seed, outcome| ConformCell {
            seed,
            merged_with: None,
            app: "fir4".to_owned(),
            outcome,
        };
        let report = ConformReport {
            apps: vec!["fir4".to_owned()],
            cells: vec![
                cell(
                    0,
                    CellOutcome::Pass {
                        cycles: 5,
                        frames: 2,
                        degradation: None,
                    },
                ),
                cell(
                    2,
                    CellOutcome::Panicked {
                        message: "injected cell panic; repro: cargo run --example conform -- \
                                  --seeds 1 --start 2 --apps fir4 --frames 2"
                            .to_owned(),
                    },
                ),
            ],
        };
        let quarantined: Vec<_> = report.quarantined().collect();
        assert_eq!(quarantined.len(), 1);
        assert_eq!(quarantined[0].seed, 2);
        let rendered = report.to_string();
        assert!(rendered.contains("    PANIC\n"), "{rendered}");
        assert!(
            rendered.contains("PANIC core=2 app=fir4: injected cell panic; repro:"),
            "{rendered}"
        );
        assert!(
            rendered
                .ends_with("2 cells: 1 pass (0 degraded), 0 infeasible, 0 mismatch, 1 quarantined"),
            "{rendered}"
        );
    }

    #[test]
    fn small_fleet_runs_clean() {
        let report = ConformFleet::new()
            .seed_range(0..4)
            .app("fir4", crate::apps::fir(4))
            .frames(4)
            .run();
        assert_eq!(report.cells.len(), 4);
        assert_eq!(report.mismatches().count(), 0, "{report}");
        // The display renders a full table.
        let rendered = report.to_string();
        assert!(rendered.contains("cells:"), "{rendered}");
    }

    #[test]
    fn merged_pairs_mode_tags_cells_and_runs_clean() {
        let report = ConformFleet::new()
            .seed_range(0..2)
            .merged_pairs([(0, 1)])
            .app("fir4", crate::apps::fir(4))
            .frames(4)
            .run();
        // Two single-seed rows, then the merged row.
        assert_eq!(report.cells.len(), 3);
        assert_eq!(report.cells[0].merged_with, None);
        assert_eq!(report.cells[1].merged_with, None);
        assert_eq!(report.cells[2].merged_with, Some(1));
        assert_eq!(report.cells[2].seed, 0);
        assert_eq!(report.cells[2].core_label(), "0+1");
        assert_eq!(report.mismatches().count(), 0, "{report}");
        let rendered = report.to_string();
        assert!(rendered.contains("0+1"), "{rendered}");
    }

    #[test]
    fn merged_only_fleet_is_deterministic_across_thread_counts() {
        let fleet = ConformFleet::new()
            .merged_pairs([(0, 1), (2, 3)])
            .app("sop4", crate::apps::sum_of_products(4))
            .frames(4);
        let serial = fleet.clone().threads(1).run();
        let parallel = fleet.threads(4).run();
        assert_eq!(serial, parallel);
        assert_eq!(serial.cells.len(), 2);
        assert_eq!(serial.mismatches().count(), 0, "{serial}");
    }

    #[test]
    fn quarantined_merged_cell_carries_a_merged_repro() {
        // Starvation fuel under an unreachable budget exhausts the cell;
        // its one repro command must rebuild the union, not seed 2 alone.
        let report = ConformFleet::new()
            .merged_pairs([(2, 3)])
            .app("sop4", crate::apps::sum_of_products(4))
            .frames(2)
            .options(CompileOptions {
                budget: Some(1),
                fuel: Some(1),
                ..CompileOptions::sweep_cell()
            })
            .run();
        assert_eq!(report.cells.len(), 1);
        match &report.cells[0].outcome {
            CellOutcome::Exhausted(message) => {
                assert_eq!(message.matches("repro:").count(), 1, "{message}");
                assert!(message.contains("--merge-pairs 2+3 "), "{message}");
            }
            other => panic!("expected Exhausted, got {other:?}"),
        }
    }

    #[test]
    fn fleet_is_deterministic_across_thread_counts() {
        let fleet = ConformFleet::new()
            .seed_range(0..6)
            .app("sop4", crate::apps::sum_of_products(4))
            .app("fir3", crate::apps::fir(3))
            .frames(4);
        let serial = fleet.clone().threads(1).run();
        let parallel = fleet.threads(4).run();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn infeasible_cells_state_a_reason() {
        // The audio application on tightly-budgeted options: cores whose
        // controller or RAM cannot host it must say why.
        let fleet = ConformFleet::new()
            .seed_range(0..8)
            .app("audio", crate::apps::audio_application())
            .frames(2)
            .options(CompileOptions {
                budget: Some(4), // absurdly tight: every cell infeasible
                restarts: 1,
                sched_threads: 1,
                ..CompileOptions::default()
            });
        let report = fleet.run();
        assert_eq!(report.mismatches().count(), 0, "{report}");
        for cell in report.infeasible() {
            match &cell.outcome {
                CellOutcome::Infeasible(reason) => assert!(!reason.is_empty()),
                _ => unreachable!(),
            }
        }
        assert!(report.infeasible().count() > 0);
    }

    #[test]
    fn internal_pipeline_errors_classify_as_bugs_not_infeasibility() {
        // Feasibility feedback stays designer-facing…
        let schedule = CompileError::Schedule(dspcc_sched::SchedError::BudgetExceeded {
            budget: 4,
            unplaced: 9,
        });
        assert!(matches!(
            classify_error(schedule),
            CellOutcome::Infeasible(_)
        ));
        let lower = CompileError::Lower(dspcc_rtgen::LowerError::MissingUnit("RAM"));
        assert!(matches!(classify_error(lower), CellOutcome::Infeasible(_)));
        // …but a stage handing inconsistent artifacts downstream is a bug
        // by construction and must not hide in the Infeasible bucket.
        let deps = CompileError::Deps("dependence cycle".to_owned());
        assert!(classify_error(deps).is_mismatch());
        let encode = CompileError::Encode(dspcc_encode::EncodeError::UnknownOp {
            opu: "alu".to_owned(),
            op: "mult".to_owned(),
        });
        match classify_error(encode) {
            CellOutcome::Mismatch(m) => assert!(m.contains("internal error"), "{m}"),
            other => panic!("expected Mismatch, got {other:?}"),
        }
    }

    #[test]
    fn cell_outcome_helpers() {
        let full = CellOutcome::Pass {
            cycles: 3,
            frames: 8,
            degradation: None,
        };
        assert!(full.is_pass());
        assert!(!full.is_degraded_pass());
        let degraded = CellOutcome::Pass {
            cycles: 3,
            frames: 8,
            degradation: Some(dspcc_sched::Degradation {
                stage: "schedule",
                spent: 100,
                action: dspcc_sched::DegradeAction::ExactToHeuristic { nodes_explored: 7 },
            }),
        };
        assert!(degraded.is_pass());
        assert!(degraded.is_degraded_pass());
        assert!(!CellOutcome::Infeasible("x".into()).is_pass());
        assert!(CellOutcome::Mismatch("y".into()).is_mismatch());
    }

    #[test]
    fn degraded_pass_surfaces_in_report() {
        // A starvation-level fuel cap forces the exact search to degrade
        // while the heuristic fallback still finds a valid (bit-exact)
        // schedule — the fleet must say so rather than reporting a clean
        // full-quality pass.
        let report = ConformFleet::new()
            .seed_range(0..2)
            .app("fir4", crate::apps::fir(4))
            .frames(2)
            .options(CompileOptions {
                exact: true,
                fuel: Some(1),
                restarts: 1,
                sched_threads: 1,
                ..CompileOptions::default()
            })
            .run();
        assert_eq!(report.mismatches().count(), 0, "{report}");
        if report.degraded_passes().count() > 0 {
            let rendered = report.to_string();
            assert!(rendered.contains("ok*/"), "{rendered}");
            assert!(rendered.contains("DEGRADED"), "{rendered}");
            assert!(rendered.contains("degraded)"), "{rendered}");
        }
    }
}
