//! HW/SW co-design Pareto search over generated cores — the paper's
//! in-house workflow as one deterministic sweep.
//!
//! The paper tunes an in-house core to its application set: specialize a
//! core per application, fold the specialized cores together, and trade
//! duplicated resources back for silicon until the cycle budget breaks.
//! [`Codesign`] automates that loop over the seeded architecture axis:
//!
//! * **Candidates** — seeded generated cores
//!   ([`crate::cores::generated_core`]), cross-core *unions* of two
//!   seeds ([`crate::cores::merged_core`] /
//!   [`dspcc_arch::merge::union`]), and, for every base candidate,
//!   *merge moves*: an intra-core [`MergePlan`] folding a secondary
//!   ALU's or MULT's operand files and output bus into the primary's,
//!   with the instruction set **re-derived** on the merged datapath.
//! * **Scoring** — every `(candidate, budget)` point compiles the whole
//!   app corpus through **one shared [`CompileSession`]** under the
//!   sweep harness's per-cell fuel cap and panic containment, and every
//!   compiled cell is pinned **bit-exact against the
//!   `dspcc_dfg::Interpreter` golden model** ([`conform_cell`]). A point
//!   is feasible only if every app compiled *and* verified — so by
//!   construction, nothing unverified can appear on the frontier.
//! * **Frontier** — feasible points are ranked on (total corpus cycles,
//!   [`HwCost::scalar`]); the non-dominated set is the Pareto frontier.
//!
//! Determinism: candidates, moves, stimulus, and compilation are pure
//! functions of the seed list, and every phase runs on the shared sweep
//! harness (DESIGN.md, "Sweep harness") — [`Codesign::run`] returns the
//! same [`CodesignReport`] for every worker-thread count (pinned by
//! `tests/codesign.rs`). A diverging cell is a [`PointOutcome::Mismatch`]
//! — a compiler bug by construction — and fails the sweep's
//! zero-mismatch gate, never silently. A quarantined cell carries the
//! `examples/codesign.rs` command that rebuilds its point.

use std::fmt;
use std::sync::Arc;

use dspcc_arch::merge::MergePlan;
use dspcc_arch::{Datapath, Fnv64};
use dspcc_encode::FieldLayout;
use dspcc_isa::derive_isa;

use crate::conform::{conform_cell, CellOutcome};
use crate::cores::{generated_core, merged_core};
use crate::pipeline::Core;
use crate::session::{CompileOptions, CompileSession};
use crate::sweep;

/// The hardware-cost side of a design point, measured on the core
/// definition alone (no compilation needed).
///
/// The fields follow the ROADMAP's cost axes: unit counts, word width,
/// register-file/memory sizes, and the instruction-word width the
/// encoder's [`FieldLayout`] actually derives for the datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HwCost {
    /// Operation units in the datapath.
    pub opus: u32,
    /// Buses in the datapath.
    pub buses: u32,
    /// Total multiplexer fan-in (write buses of every multi-bus RF).
    pub mux_inputs: u32,
    /// Data word width in bits.
    pub word_width: u32,
    /// Register bits: Σ register-file size × word width.
    pub rf_bits: u32,
    /// Memory bits: Σ RAM/ROM words × word width.
    pub mem_bits: u32,
    /// Instruction-word width in bits, from the encoder layout.
    pub iword_bits: u32,
    /// Control-store bits: instruction-word width × program depth.
    pub control_bits: u64,
}

impl HwCost {
    /// Measures `core`.
    pub fn of(core: &Core) -> HwCost {
        let dp = &core.datapath;
        let w = core.format.width();
        HwCost {
            opus: dp.opus().len() as u32,
            buses: dp.buses().len() as u32,
            mux_inputs: dp
                .register_files()
                .iter()
                .filter(|r| r.has_mux())
                .map(|r| r.write_buses().len() as u32)
                .sum(),
            word_width: w,
            rf_bits: dp.register_files().iter().map(|r| r.size() * w).sum(),
            mem_bits: dp.opus().iter().map(|o| o.memory_size() * w).sum(),
            iword_bits: FieldLayout::derive(dp, core.format).width(),
            control_bits: u64::from(FieldLayout::derive(dp, core.format).width())
                * u64::from(core.controller.program_depth()),
        }
    }

    /// The deterministic scalar used for Pareto ranking: storage bits
    /// (registers + memories + control store) plus structural weights
    /// for units, buses, and mux fan-in. The weights are documented in
    /// DESIGN.md; what matters for the search is that the scalar is a
    /// pure function of the core.
    pub fn scalar(&self) -> u64 {
        u64::from(self.rf_bits)
            + u64::from(self.mem_bits)
            + self.control_bits
            + 48 * u64::from(self.opus)
            + 24 * u64::from(self.buses)
            + 8 * u64::from(self.mux_inputs)
    }
}

/// How a candidate core was obtained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CandidateKind {
    /// One seeded generated core.
    Seed(u64),
    /// The structural union of two seeded cores.
    Union(u64, u64),
    /// A base candidate (by index) with an intra-core merge move
    /// applied and the instruction set re-derived.
    Merged {
        /// Index of the base candidate in the report's candidate order.
        base: usize,
        /// The move's name (e.g. `fold_alu_1`).
        move_name: String,
    },
}

/// Metrics of a feasible (fully compiled *and* bit-exact-verified)
/// design point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointMetrics {
    /// Time-loop cycles per corpus app, in corpus order.
    pub per_app_cycles: Vec<u32>,
    /// Total cycles across the corpus — the performance axis.
    pub total_cycles: u32,
    /// The hardware-cost breakdown.
    pub cost: HwCost,
    /// [`HwCost::scalar`] — the cost axis.
    pub score: u64,
    /// Whether any app's schedule came from a fuel-degraded search
    /// (still bit-exact).
    pub degraded: bool,
}

/// The verdict of one design point over the whole corpus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PointOutcome {
    /// Every app compiled and verified bit-exact.
    Feasible(PointMetrics),
    /// The candidate core could not be constructed (union or merge-move
    /// failure) — stated reason, the merge machinery's typed errors.
    Unbuildable(String),
    /// Some app was rejected by the pipeline (first offender named) —
    /// designer feedback, not a bug.
    Infeasible {
        /// The first rejected app.
        app: String,
        /// The stage's stated reason.
        reason: String,
    },
    /// Some app's cell was quarantined (fuel exhaustion or contained
    /// panic) — the sweep continued.
    Quarantined {
        /// The first quarantined app.
        app: String,
        /// The quarantine message (carries a repro hint).
        reason: String,
    },
    /// Some app compiled but diverged from the golden model — a
    /// compiler bug by construction. Never eligible for the frontier,
    /// and [`CodesignReport::mismatches`] makes it impossible to miss.
    Mismatch {
        /// The diverging app.
        app: String,
        /// The divergence detail.
        detail: String,
    },
}

/// One design point: a candidate core under one budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignPoint {
    /// Candidate label (`gen_5`, `gen_5+gen_6`, `gen_5/fold_alu_1`…).
    pub label: String,
    /// How the candidate was obtained.
    pub kind: CandidateKind,
    /// Cycle budget of this point (`None` = controller cap only).
    pub budget: Option<u32>,
    /// The corpus verdict.
    pub outcome: PointOutcome,
}

impl DesignPoint {
    /// Whether the point is feasible (and therefore frontier-eligible).
    pub fn is_feasible(&self) -> bool {
        matches!(self.outcome, PointOutcome::Feasible(_))
    }
}

/// A seeded, deterministic co-design sweep.
///
/// # Example
///
/// ```no_run
/// use dspcc::codesign::Codesign;
///
/// let report = Codesign::new()
///     .seed_range(0..8)
///     .union_adjacent()
///     .app("fir8", dspcc::apps::fir(8))
///     .app("sop6", dspcc::apps::sum_of_products(6))
///     .run();
/// assert_eq!(report.mismatches().count(), 0, "{report}");
/// println!("{report}");
/// ```
#[derive(Debug, Clone)]
pub struct Codesign {
    seeds: Vec<u64>,
    union_pairs: Vec<(u64, u64)>,
    merge_moves: bool,
    apps: Vec<(String, String)>,
    budgets: Vec<Option<u32>>,
    frames: u32,
    threads: usize,
    options: CompileOptions,
}

impl Default for Codesign {
    fn default() -> Self {
        Codesign {
            seeds: Vec::new(),
            union_pairs: Vec::new(),
            merge_moves: true,
            apps: Vec::new(),
            budgets: vec![None],
            frames: 8,
            threads: 0,
            options: CompileOptions::sweep_cell(),
        }
    }
}

impl Codesign {
    /// An empty sweep (no seeds, no apps).
    pub fn new() -> Self {
        Codesign::default()
    }

    /// Adds a contiguous seed block of base candidates.
    pub fn seed_range(mut self, range: std::ops::Range<u64>) -> Self {
        self.seeds.extend(range);
        self
    }

    /// Adds explicit base-candidate seeds.
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds.extend(seeds);
        self
    }

    /// Adds one explicit cross-core union candidate.
    pub fn union_pair(mut self, a: u64, b: u64) -> Self {
        self.union_pairs.push((a, b));
        self
    }

    /// Adds a union candidate for every non-overlapping adjacent seed
    /// pair currently declared (`s0∪s1`, `s2∪s3`, …) — the cheap default
    /// way to put the cross-core move in play.
    pub fn union_adjacent(mut self) -> Self {
        let pairs: Vec<(u64, u64)> = self
            .seeds
            .chunks(2)
            .filter(|c| c.len() == 2)
            .map(|c| (c[0], c[1]))
            .collect();
        self.union_pairs.extend(pairs);
        self
    }

    /// Whether to derive intra-core merge moves (fold a secondary ALU's
    /// or MULT's register files and bus into the primary's) from every
    /// base candidate (default `true`).
    pub fn merge_moves(mut self, on: bool) -> Self {
        self.merge_moves = on;
        self
    }

    /// Adds one corpus application.
    pub fn app(mut self, name: impl Into<String>, source: impl Into<String>) -> Self {
        self.apps.push((name.into(), source.into()));
        self
    }

    /// Sets the cycle budgets to sweep (`None` = controller cap only).
    pub fn budgets(mut self, budgets: impl IntoIterator<Item = Option<u32>>) -> Self {
        self.budgets = budgets.into_iter().collect();
        assert!(
            !self.budgets.is_empty(),
            "budget dimension must be non-empty"
        );
        self
    }

    /// Frames verified bit-exact per (point, app) cell (default 8).
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

    /// Overrides the per-cell compile options (the point's budget is
    /// applied on top).
    pub fn options(mut self, options: CompileOptions) -> Self {
        self.options = options;
        self
    }

    /// Runs the sweep: build candidates, score every `(candidate,
    /// budget)` point on the corpus, and rank the feasible points.
    ///
    /// # Panics
    ///
    /// Panics if the sweep has no seeds and no union pairs, or no apps.
    pub fn run(&self) -> CodesignReport {
        assert!(
            !(self.seeds.is_empty() && self.union_pairs.is_empty()),
            "codesign needs at least one candidate seed"
        );
        assert!(!self.apps.is_empty(), "codesign needs at least one app");

        // Phase 1: base candidates (seeds, then unions), in parallel.
        let base_specs: Vec<CandidateKind> = self
            .seeds
            .iter()
            .map(|&s| CandidateKind::Seed(s))
            .chain(
                self.union_pairs
                    .iter()
                    .map(|&(a, b)| CandidateKind::Union(a, b)),
            )
            .collect();
        let mut candidates = sweep::fan_out(self.threads, &base_specs, build_base);

        // Phase 2: merge moves of every buildable base, in parallel. The
        // move list is a pure function of each base datapath, so the
        // candidate order never depends on worker timing.
        if self.merge_moves {
            let move_specs: Vec<(usize, String, MergePlan)> = candidates
                .iter()
                .enumerate()
                .filter_map(|(i, c)| {
                    c.core
                        .as_ref()
                        .ok()
                        .map(|core| (i, merge_moves_of(&core.datapath)))
                })
                .flat_map(|(i, moves)| {
                    moves
                        .into_iter()
                        .map(move |(name, plan)| (i, name, plan))
                        .collect::<Vec<_>>()
                })
                .collect();
            let moves = sweep::fan_out(self.threads, &move_specs, |(base, name, plan)| {
                build_move(&candidates[*base], *base, name, plan)
            });
            candidates.extend(moves);
        }

        // Phase 3: score every (candidate × budget × app) cell through
        // one shared session. `conform_cell` contains the compile *and*
        // the bit-exact differential check, so scoring and conformance
        // are one verdict.
        let points: Vec<(usize, Option<u32>)> = (0..candidates.len())
            .flat_map(|c| self.budgets.iter().map(move |&b| (c, b)))
            .collect();
        let cells: Vec<(usize, usize)> = (0..points.len())
            .flat_map(|p| (0..self.apps.len()).map(move |a| (p, a)))
            .collect();
        let session = CompileSession::new();
        let cell_results = sweep::fan_out(self.threads, &cells, |&(p, a)| {
            let (cand_idx, budget) = points[p];
            let candidate = &candidates[cand_idx];
            let (app, source) = &self.apps[a];
            let core = match &candidate.core {
                Err(reason) => return CellOutcome::Infeasible(reason.clone()),
                Ok(core) => core,
            };
            let options = CompileOptions {
                budget,
                ..self.options.clone()
            };
            sweep::contain(|| {
                conform_cell(
                    &session,
                    core,
                    candidate.stim_seed,
                    app,
                    source,
                    self.frames,
                    &options,
                )
            })
            .unwrap_or_else(|text| CellOutcome::Panicked {
                message: format!(
                    "contained panic in point `{}` app `{app}`: {text}",
                    candidate.label
                ),
            })
            .with_repro(&self.repro_command(&candidates, candidate, app, budget))
        });

        // Phase 4 (serial): fold cells into points and rank the
        // feasible ones.
        let design_points: Vec<DesignPoint> = points
            .iter()
            .enumerate()
            .map(|(p, &(cand_idx, budget))| {
                let candidate = &candidates[cand_idx];
                let row = &cell_results[p * self.apps.len()..(p + 1) * self.apps.len()];
                DesignPoint {
                    label: candidate.label.clone(),
                    kind: candidate.kind.clone(),
                    budget,
                    outcome: fold_point(candidate, &self.apps, row),
                }
            })
            .collect();
        let frontier = pareto_frontier(&design_points);
        CodesignReport {
            apps: self.apps.iter().map(|(n, _)| n.clone()).collect(),
            points: design_points,
            frontier,
        }
    }

    /// The `examples/codesign.rs` command that reruns one `(point, app)`
    /// cell: the `--start`/`--seeds` window that rebuilds the candidate
    /// (its seed or a merge move's base; two seeds for an adjacent
    /// union), restricted to the app, under the point's budget.
    fn repro_command(
        &self,
        candidates: &[Candidate],
        c: &Candidate,
        app: &str,
        budget: Option<u32>,
    ) -> String {
        let base = match c.kind {
            CandidateKind::Merged { base, .. } => &candidates[base].kind,
            ref kind => kind,
        };
        let (start, seeds) = match *base {
            CandidateKind::Union(a, b) if a.checked_add(1) == Some(b) => (a, 2),
            CandidateKind::Seed(s) => (s, 1),
            _ => return format!("none, the example cannot declare `{}`", c.label),
        };
        let budget = budget.map(|b| format!(" --budget {b}")).unwrap_or_default();
        format!(
            "cargo run --example codesign -- --seeds {seeds} --start {start} --apps {app} \
             --frames {}{budget}",
            self.frames
        )
    }
}

/// A candidate core (or the reason it could not be built).
struct Candidate {
    label: String,
    kind: CandidateKind,
    /// Stimulus/ISA decoupling seed — a pure function of the label.
    stim_seed: u64,
    core: Result<Arc<Core>, String>,
}

fn candidate_of(label: String, kind: CandidateKind, core: Result<Core, String>) -> Candidate {
    let stim_seed = Fnv64::of_parts(|h| h.write_text(&label));
    Candidate {
        label,
        kind,
        stim_seed,
        core: core.map(Arc::new),
    }
}

fn build_base(spec: &CandidateKind) -> Candidate {
    match *spec {
        CandidateKind::Seed(s) => candidate_of(
            format!("gen_{s:x}"),
            CandidateKind::Seed(s),
            Ok(generated_core(s)),
        ),
        CandidateKind::Union(a, b) => candidate_of(
            format!("gen_{a:x}+gen_{b:x}"),
            CandidateKind::Union(a, b),
            merged_core(a, b).map_err(|e| format!("union failed: {e}")),
        ),
        CandidateKind::Merged { .. } => unreachable!("merge moves are built in phase 2"),
    }
}

fn build_move(base: &Candidate, base_idx: usize, name: &str, plan: &MergePlan) -> Candidate {
    let label = format!("{}/{name}", base.label);
    let kind = CandidateKind::Merged {
        base: base_idx,
        move_name: name.to_owned(),
    };
    let core = match &base.core {
        Err(reason) => Err(reason.clone()),
        Ok(core) => plan
            .apply(&core.datapath)
            .map_err(|e| format!("merge move failed: {e}"))
            .map(|dp| {
                // A merged datapath is a new architecture: re-derive its
                // instruction set (under the base's stimulus seed so the
                // ISA style stays a pure function of the label lineage).
                let isa = derive_isa(&dp, base.stim_seed);
                Core {
                    name: label.clone(),
                    datapath: dp,
                    controller: core.controller.clone(),
                    format: core.format,
                    classification: Some(isa.classification),
                    instruction_set: isa.instruction_set,
                    cover: isa.cover,
                }
            }),
    };
    candidate_of(label, kind, core)
}

/// Intra-core merge moves derivable from `dp`: for every secondary ALU
/// (`alu_1`, `alu_2`, …) and MULT, fold its operand register files and
/// output bus into the primary unit's. Pure function of the datapath —
/// the move list (and therefore the candidate order) is deterministic.
fn merge_moves_of(dp: &Datapath) -> Vec<(String, MergePlan)> {
    let mut moves = Vec::new();
    for (unit, suffixes) in [("alu", ["a", "b"]), ("mult", ["c", "x"])] {
        for k in 1u32.. {
            let secondary = format!("{unit}_{k}");
            if dp.opu(&secondary).is_none() {
                break;
            }
            let mut plan = MergePlan::new();
            let mut complete = true;
            for suffix in suffixes {
                let primary_rf = format!("rf_{unit}_{suffix}");
                let secondary_rf = format!("rf_{unit}_{k}_{suffix}");
                if dp.register_file(&primary_rf).is_some()
                    && dp.register_file(&secondary_rf).is_some()
                {
                    plan.merge_rfs(&[&primary_rf, &secondary_rf], &primary_rf);
                } else {
                    complete = false;
                }
            }
            let primary_bus = format!("bus_{unit}");
            let secondary_bus = format!("bus_{unit}_{k}");
            if dp.bus(&primary_bus).is_some() && dp.bus(&secondary_bus).is_some() {
                plan.merge_buses(&[&primary_bus, &secondary_bus], &primary_bus);
            } else {
                complete = false;
            }
            if complete {
                moves.push((format!("fold_{secondary}"), plan));
            }
        }
    }
    moves
}

/// Folds one point's per-app cells into a corpus verdict. Severity
/// order: a mismatch is never masked by an infeasibility elsewhere in
/// the corpus.
fn fold_point(
    candidate: &Candidate,
    apps: &[(String, String)],
    row: &[CellOutcome],
) -> PointOutcome {
    if let Err(reason) = &candidate.core {
        return PointOutcome::Unbuildable(reason.clone());
    }
    for (cell, (app, _)) in row.iter().zip(apps) {
        if let CellOutcome::Mismatch(detail) = cell {
            return PointOutcome::Mismatch {
                app: app.clone(),
                detail: detail.clone(),
            };
        }
    }
    for (cell, (app, _)) in row.iter().zip(apps) {
        match cell {
            CellOutcome::Exhausted(reason) => {
                return PointOutcome::Quarantined {
                    app: app.clone(),
                    reason: reason.clone(),
                }
            }
            CellOutcome::Panicked { message } => {
                return PointOutcome::Quarantined {
                    app: app.clone(),
                    reason: message.clone(),
                }
            }
            _ => {}
        }
    }
    for (cell, (app, _)) in row.iter().zip(apps) {
        if let CellOutcome::Infeasible(reason) = cell {
            return PointOutcome::Infeasible {
                app: app.clone(),
                reason: reason.clone(),
            };
        }
    }
    let core = match &candidate.core {
        Ok(c) => c,
        Err(_) => unreachable!("handled above"),
    };
    let per_app_cycles: Vec<u32> = row
        .iter()
        .map(|cell| match cell {
            CellOutcome::Pass { cycles, .. } => *cycles,
            _ => unreachable!("non-pass cells handled above"),
        })
        .collect();
    let degraded = row.iter().any(|c| c.is_degraded_pass());
    let cost = HwCost::of(core);
    PointMetrics {
        total_cycles: per_app_cycles.iter().sum(),
        per_app_cycles,
        score: cost.scalar(),
        cost,
        degraded,
    }
    .into()
}

impl From<PointMetrics> for PointOutcome {
    fn from(m: PointMetrics) -> Self {
        PointOutcome::Feasible(m)
    }
}

/// The non-dominated feasible points, as indices into `points`, sorted
/// by (total cycles, cost score, point index). Exact (cycles, score)
/// ties keep only the first point in sweep order, so the frontier is a
/// strictly shaped trade-off curve.
fn pareto_frontier(points: &[DesignPoint]) -> Vec<usize> {
    let feasible: Vec<(usize, u32, u64)> = points
        .iter()
        .enumerate()
        .filter_map(|(i, p)| match &p.outcome {
            PointOutcome::Feasible(m) => Some((i, m.total_cycles, m.score)),
            _ => None,
        })
        .collect();
    let mut frontier: Vec<(usize, u32, u64)> = feasible
        .iter()
        .filter(|&&(i, cycles, score)| {
            !feasible.iter().any(|&(j, jc, js)| {
                let dominates = jc <= cycles && js <= score && (jc < cycles || js < score);
                let earlier_tie = jc == cycles && js == score && j < i;
                dominates || earlier_tie
            })
        })
        .copied()
        .collect();
    frontier.sort_by_key(|&(i, cycles, score)| (cycles, score, i));
    frontier.into_iter().map(|(i, _, _)| i).collect()
}

/// The result of a [`Codesign::run`]: every point in deterministic sweep
/// order, plus the Pareto frontier over the feasible ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodesignReport {
    /// Corpus app names, in column order.
    pub apps: Vec<String>,
    /// Every design point, candidate-major then budget order.
    pub points: Vec<DesignPoint>,
    /// Indices of the Pareto-optimal points, sorted by (cycles, cost).
    pub frontier: Vec<usize>,
}

impl CodesignReport {
    /// The frontier as points, in (cycles, cost) order. Every one of
    /// these verified bit-exact against the golden model on every
    /// corpus app — that is what `Feasible` means.
    pub fn frontier_points(&self) -> impl Iterator<Item = &DesignPoint> {
        self.frontier.iter().map(|&i| &self.points[i])
    }

    /// Feasible points.
    pub fn feasible(&self) -> impl Iterator<Item = &DesignPoint> {
        self.points.iter().filter(|p| p.is_feasible())
    }

    /// Mismatch points — each one a compiler bug with a stated app and
    /// divergence detail.
    pub fn mismatches(&self) -> impl Iterator<Item = &DesignPoint> {
        self.points
            .iter()
            .filter(|p| matches!(p.outcome, PointOutcome::Mismatch { .. }))
    }

    /// Quarantined points (fuel exhaustion / contained panics).
    pub fn quarantined(&self) -> impl Iterator<Item = &DesignPoint> {
        self.points
            .iter()
            .filter(|p| matches!(p.outcome, PointOutcome::Quarantined { .. }))
    }
}

impl fmt::Display for CodesignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<28} {:>6} {:>7} {:>9} {:>6}  status",
            "point", "budget", "cycles", "cost", "iword"
        )?;
        for (i, p) in self.points.iter().enumerate() {
            let budget = p
                .budget
                .map(|b| b.to_string())
                .unwrap_or_else(|| "-".to_owned());
            match &p.outcome {
                PointOutcome::Feasible(m) => writeln!(
                    f,
                    "{:<28} {:>6} {:>7} {:>9} {:>6}  ok{}{}",
                    p.label,
                    budget,
                    m.total_cycles,
                    m.score,
                    m.cost.iword_bits,
                    if m.degraded { "*" } else { "" },
                    if self.frontier.contains(&i) {
                        "  <- frontier"
                    } else {
                        ""
                    },
                )?,
                PointOutcome::Unbuildable(reason) => writeln!(
                    f,
                    "{:<28} {:>6} {:>7} {:>9} {:>6}  unbuildable: {reason}",
                    p.label, budget, "-", "-", "-"
                )?,
                PointOutcome::Infeasible { app, reason } => writeln!(
                    f,
                    "{:<28} {:>6} {:>7} {:>9} {:>6}  infeasible[{app}]: {reason}",
                    p.label, budget, "-", "-", "-"
                )?,
                PointOutcome::Quarantined { app, reason } => writeln!(
                    f,
                    "{:<28} {:>6} {:>7} {:>9} {:>6}  QUARANTINED[{app}]: {reason}",
                    p.label, budget, "-", "-", "-"
                )?,
                PointOutcome::Mismatch { app, detail } => writeln!(
                    f,
                    "{:<28} {:>6} {:>7} {:>9} {:>6}  MISMATCH[{app}]: {detail}",
                    p.label, budget, "-", "-", "-"
                )?,
            }
        }
        writeln!(
            f,
            "{} points: {} feasible, {} on frontier, {} mismatch, {} quarantined",
            self.points.len(),
            self.feasible().count(),
            self.frontier.len(),
            self.mismatches().count(),
            self.quarantined().count()
        )?;
        write!(f, "frontier (cycles, cost):")?;
        for p in self.frontier_points() {
            if let PointOutcome::Feasible(m) = &p.outcome {
                write!(f, " [{} {}c/{}]", p.label, m.total_cycles, m.score)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cores;

    #[test]
    fn hw_cost_is_monotone_in_structure() {
        let tiny = HwCost::of(&cores::tiny_core());
        let audio = HwCost::of(&cores::audio_core());
        assert!(audio.opus > tiny.opus);
        assert!(audio.scalar() > tiny.scalar());
        assert!(audio.iword_bits > 0);
    }

    #[test]
    fn merge_moves_cover_secondary_units_only() {
        // The audio core has single ALU/MULT — no moves.
        assert!(merge_moves_of(&cores::audio_core().datapath).is_empty());
        // A generated core with a secondary unit yields a fold move.
        let mut saw_move = false;
        for seed in 0..16 {
            let core = cores::generated_core(seed);
            for (name, plan) in merge_moves_of(&core.datapath) {
                saw_move = true;
                assert!(name.starts_with("fold_"));
                // Every move must apply cleanly on its own datapath.
                let merged = plan.apply(&core.datapath).unwrap();
                assert!(merged.register_files().len() < core.datapath.register_files().len());
            }
        }
        assert!(saw_move, "no seed in 0..16 drew a secondary unit");
    }

    #[test]
    fn quarantined_points_name_a_codesign_repro() {
        // Starvation fuel under an unreachable budget exhausts every
        // cell; each reason must rebuild its own point, not the
        // stimulus hash of its label.
        let report = Codesign::new()
            .seed_range(5..7)
            .union_adjacent()
            .app("biquad3", crate::apps::biquad_cascade(3))
            .budgets([Some(1)])
            .frames(2)
            .options(CompileOptions {
                fuel: Some(1),
                ..CompileOptions::sweep_cell()
            })
            .run();
        assert!(report.quarantined().count() > 0, "{report}");
        // One budget: point `i` is candidate `i`.
        let base_seed = |kind: &CandidateKind| match *kind {
            CandidateKind::Seed(s) | CandidateKind::Union(s, _) => Some(s),
            CandidateKind::Merged { .. } => None,
        };
        for point in report.quarantined() {
            let PointOutcome::Quarantined { app, reason } = &point.outcome else {
                unreachable!()
            };
            let seed = match &point.kind {
                CandidateKind::Merged { base, .. } => base_seed(&report.points[*base].kind),
                kind => base_seed(kind),
            }
            .unwrap();
            assert_eq!(reason.matches("repro:").count(), 1, "{reason}");
            for needle in [
                "cargo run --example codesign -- ".to_owned(),
                format!("--start {seed} "),
                format!("--apps {app} "),
                "--frames 2 --budget 1".to_owned(),
            ] {
                assert!(reason.contains(&needle), "`{needle}` not in {reason}");
            }
        }
    }

    #[test]
    fn pareto_frontier_is_nondominated_and_tie_deduped() {
        let mk = |cycles: u32, score: u64| DesignPoint {
            label: format!("p{cycles}_{score}"),
            kind: CandidateKind::Seed(0),
            budget: None,
            outcome: PointOutcome::Feasible(PointMetrics {
                per_app_cycles: vec![cycles],
                total_cycles: cycles,
                cost: HwCost {
                    opus: 1,
                    buses: 1,
                    mux_inputs: 0,
                    word_width: 16,
                    rf_bits: 0,
                    mem_bits: 0,
                    iword_bits: 8,
                    control_bits: 0,
                },
                score,
                degraded: false,
            }),
        };
        let points = vec![
            mk(10, 100), // frontier
            mk(10, 100), // exact tie: deduped
            mk(12, 90),  // frontier
            mk(12, 100), // dominated by both
            mk(8, 200),  // frontier
        ];
        let frontier = pareto_frontier(&points);
        assert_eq!(frontier, vec![4, 0, 2]);
    }
}
