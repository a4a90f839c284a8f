//! Parallel design-space exploration — the paper's section-4 iteration
//! loop as a single API call.
//!
//! The paper's methodology is iterative: "if this does not result in a
//! feasible solution an iteration cycle is required in which the source
//! must be improved". In practice the designer does not vary one knob at
//! a time but sweeps a *grid* — cores × budgets × cover strategies ×
//! priorities × CSE — and reads a feasibility table. [`DesignSpace`]
//! declares such a grid; [`DesignSpace::run`] compiles every variant on
//! scoped worker threads through **one shared [`CompileSession`]**, so the
//! expensive stage artifacts (lowering, classification, dependence graph,
//! conflict matrix) are computed once per distinct (core, cse) prefix and
//! reused by every schedule-level variant.
//!
//! The resulting [`Exploration`] is **deterministic**: rows appear in
//! grid-nesting order (cores, then budgets, then covers, then priorities,
//! then cse) regardless of worker count or completion order, and each
//! row's content is deterministic because the pipeline itself is — the
//! one exception is [`VariantMetrics::cache_hits`], which reflects cache
//! *timing* and is therefore excluded from the rendered table.
//!
//! ```no_run
//! use dspcc::{apps, cores, explore::DesignSpace};
//! use dspcc::sched::list::Priority;
//!
//! let table = DesignSpace::new(apps::sum_of_products(4))
//!     .core(cores::audio_core())
//!     .core(cores::tiny_core())
//!     .budgets([None, Some(16), Some(32)])
//!     .priorities([Priority::Slack, Priority::SinkAlap])
//!     .run();
//! println!("{table}");
//! ```

use std::fmt;
use std::sync::Arc;

use dspcc_isa::CoverStrategy;
use dspcc_sched::list::Priority;
use dspcc_sched::report::OccupationReport;

use crate::pipeline::{CompileError, Core};
use crate::session::{CompileOptions, CompileSession};
use crate::sweep;

/// A grid of pipeline variants over one application source.
///
/// Dimensions left empty default to a single neutral entry (no budget,
/// default priority, each core's own cover strategy, CSE off), so a
/// `DesignSpace` with only cores sweeps exactly those cores once.
#[derive(Debug, Clone)]
pub struct DesignSpace {
    source: String,
    cores: Vec<Arc<Core>>,
    budgets: Vec<Option<u32>>,
    covers: Vec<Option<CoverStrategy>>,
    priorities: Vec<Priority>,
    cse: Vec<bool>,
    threads: usize,
}

impl DesignSpace {
    /// A design space over `source` with no cores and neutral dimensions.
    pub fn new(source: impl Into<String>) -> Self {
        DesignSpace {
            source: source.into(),
            cores: Vec::new(),
            budgets: vec![None],
            covers: vec![None],
            priorities: vec![Priority::default()],
            cse: vec![false],
            threads: 0,
        }
    }

    /// Adds a core to sweep.
    pub fn core(mut self, core: Core) -> Self {
        self.cores.push(Arc::new(core));
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

    /// Sets the cover strategies to sweep (each replaces the core's own).
    pub fn covers(mut self, covers: impl IntoIterator<Item = CoverStrategy>) -> Self {
        self.covers = covers.into_iter().map(Some).collect();
        assert!(!self.covers.is_empty(), "cover dimension must be non-empty");
        self
    }

    /// Sets the scheduling priorities to sweep.
    ///
    /// The priority function is read **only by the plain list scheduler**:
    /// declaring more than one priority makes [`DesignSpace::run`]
    /// schedule without justification compaction — otherwise every
    /// priority "variant" would be the same compilation (the compacting
    /// restart engine never reads it, and the session would serve full
    /// cache hits).
    pub fn priorities(mut self, priorities: impl IntoIterator<Item = Priority>) -> Self {
        self.priorities = priorities.into_iter().collect();
        assert!(
            !self.priorities.is_empty(),
            "priority dimension must be non-empty"
        );
        self
    }

    /// Sets the constant-CSE settings to sweep.
    pub fn cse(mut self, cse: impl IntoIterator<Item = bool>) -> Self {
        self.cse = cse.into_iter().collect();
        assert!(!self.cse.is_empty(), "cse dimension must be non-empty");
        self
    }

    /// Worker threads: `0` (default) uses one per available core, `1`
    /// runs serially. Output is identical for every setting.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// The variant list in deterministic grid-nesting order.
    fn variants(&self) -> Vec<VariantSpec> {
        let mut variants = Vec::new();
        for (core_idx, _) in self.cores.iter().enumerate() {
            for &budget in &self.budgets {
                for (cover_idx, &cover) in self.covers.iter().enumerate() {
                    for &priority in &self.priorities {
                        for &cse in &self.cse {
                            variants.push(VariantSpec {
                                core_idx,
                                budget,
                                cover_idx,
                                cover,
                                priority,
                                cse,
                            });
                        }
                    }
                }
            }
        }
        variants
    }

    /// Compiles every variant (in parallel, through one shared session)
    /// and returns the feasibility table.
    ///
    /// # Panics
    ///
    /// Panics if no core was added.
    pub fn run(&self) -> Exploration {
        assert!(
            !self.cores.is_empty(),
            "design space needs at least one core"
        );
        let variants = self.variants();
        // One shared Arc<Core> per (core, cover) combination, built once —
        // not per variant — so N schedule-level variants share a single
        // core value (and through it, the session's cached artifacts).
        let cores_by_cover: Vec<Vec<Arc<Core>>> = self
            .cores
            .iter()
            .map(|core| {
                self.covers
                    .iter()
                    .map(|cover| match cover {
                        None => Arc::clone(core),
                        Some(c) if *c == core.cover => Arc::clone(core),
                        Some(c) => {
                            let mut covered = (**core).clone();
                            covered.cover = *c;
                            Arc::new(covered)
                        }
                    })
                    .collect()
            })
            .collect();
        let session = CompileSession::new();
        Exploration {
            rows: sweep::fan_out(self.threads, &variants, |variant| {
                let core = &cores_by_cover[variant.core_idx][variant.cover_idx];
                self.run_variant(&session, core, variant)
            }),
            cached_artifacts: session.cached_artifacts(),
        }
    }

    fn run_variant(
        &self,
        session: &CompileSession,
        core: &Arc<Core>,
        variant: &VariantSpec,
    ) -> VariantRow {
        let options = CompileOptions {
            budget: variant.budget,
            priority: variant.priority,
            cse_constants: variant.cse,
            // One restart: exploration favours breadth over per-variant
            // polish. Compaction only when the priority dimension is
            // inert (see `DesignSpace::priorities`).
            restarts: 1,
            compaction: self.priorities.len() <= 1,
            ..CompileOptions::default()
        };
        // Contain panics at the grid-point boundary: one poisoned design
        // point reports `CompileError::Panicked` and the sweep finishes
        // the rest of the table.
        let compiled = sweep::contain(|| session.compile(core, &self.source, &options))
            .unwrap_or_else(|message| Err(CompileError::Panicked(message)));
        let outcome = compiled.map(|compiled| {
            // Mean OPU occupation: the figure-9 quality signal,
            // reduced to one number per variant.
            let rows: Vec<(&str, &str)> = core
                .datapath
                .opus()
                .iter()
                .map(|opu| (opu.name(), opu.name()))
                .collect();
            let report =
                OccupationReport::compute(&compiled.lowering.program, &compiled.schedule, &rows);
            let occupancy = if report.rows().is_empty() {
                0.0
            } else {
                report
                    .rows()
                    .iter()
                    .map(|r| f64::from(r.percent()))
                    .sum::<f64>()
                    / report.rows().len() as f64
            };
            VariantMetrics {
                cycles: compiled.cycles(),
                bound: compiled.schedule_bound,
                occupancy,
                cache_hits: compiled.stats.cache_hits,
            }
        });
        VariantRow {
            core: core.name.clone(),
            budget: variant.budget,
            cover: variant.cover,
            priority: variant.priority,
            cse: variant.cse,
            outcome,
        }
    }
}

/// One point of the grid (indices resolved at run time).
#[derive(Debug, Clone, Copy)]
struct VariantSpec {
    core_idx: usize,
    budget: Option<u32>,
    cover_idx: usize,
    cover: Option<CoverStrategy>,
    priority: Priority,
    cse: bool,
}

/// Quality metrics of one feasible variant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariantMetrics {
    /// Cycle count of the time-loop.
    pub cycles: u32,
    /// Provable lower bound on the cycle count.
    pub bound: u32,
    /// Mean OPU occupation percentage (0–100).
    pub occupancy: f64,
    /// Pipeline stages this variant got from the shared session cache.
    ///
    /// **Timing-dependent under a parallel sweep**: two workers racing on
    /// the same cold prefix may both compute it, so this count (unlike
    /// every other field) can vary run to run. It is excluded from
    /// [`VariantMetrics::same_result`] and from the [`Exploration`]
    /// table for that reason.
    pub cache_hits: u32,
}

impl VariantMetrics {
    /// Whether two metrics describe the same compilation result (all
    /// fields except the timing-dependent `cache_hits`).
    pub fn same_result(&self, other: &VariantMetrics) -> bool {
        self.cycles == other.cycles
            && self.bound == other.bound
            && self.occupancy == other.occupancy
    }
}

/// One row of the exploration table: the variant's coordinates plus its
/// feasibility feedback.
#[derive(Debug, Clone)]
pub struct VariantRow {
    /// Core name.
    pub core: String,
    /// Cycle budget (`None` = controller cap).
    pub budget: Option<u32>,
    /// Cover-strategy override (`None` = the core's own).
    pub cover: Option<CoverStrategy>,
    /// Scheduling priority.
    pub priority: Priority,
    /// Constant CSE.
    pub cse: bool,
    /// Metrics when feasible, the stage failure when not — exactly the
    /// paper's feasibility feedback, one row per design point.
    pub outcome: Result<VariantMetrics, CompileError>,
}

impl VariantRow {
    /// Whether the variant compiled.
    pub fn is_feasible(&self) -> bool {
        self.outcome.is_ok()
    }
}

/// The result table of a [`DesignSpace::run`], in deterministic grid
/// order.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// One row per variant, in grid-nesting order.
    pub rows: Vec<VariantRow>,
    /// Stage artifacts held by the shared session after the sweep — a
    /// direct measure of how much work the variants shared (7 × variants
    /// would mean no sharing at all).
    pub cached_artifacts: usize,
}

impl Exploration {
    /// Feasible rows only.
    pub fn feasible(&self) -> impl Iterator<Item = &VariantRow> {
        self.rows.iter().filter(|r| r.is_feasible())
    }

    /// The best feasible row: fewest cycles, ties broken by grid order
    /// (`min_by_key` keeps the first of equal minima — deterministic).
    pub fn best(&self) -> Option<&VariantRow> {
        self.rows
            .iter()
            .filter_map(|r| r.outcome.as_ref().ok().map(|m| (m.cycles, r)))
            .min_by_key(|&(cycles, _)| cycles)
            .map(|(_, r)| r)
    }
}

impl fmt::Display for Exploration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<10} {:>6}  {:<8} {:<13} {:<4} {:>6} {:>6} {:>5}  status",
            "core", "budget", "cover", "priority", "cse", "cycles", "bound", "occ%"
        )?;
        for row in &self.rows {
            let budget = row
                .budget
                .map(|b| b.to_string())
                .unwrap_or_else(|| "-".to_owned());
            let cover = row
                .cover
                .map(|c| c.to_string())
                .unwrap_or_else(|| "core".to_owned());
            match &row.outcome {
                Ok(m) => writeln!(
                    f,
                    "{:<10} {:>6}  {:<8} {:<13} {:<4} {:>6} {:>6} {:>5.1}  ok{}",
                    row.core,
                    budget,
                    cover,
                    row.priority.to_string(),
                    if row.cse { "on" } else { "off" },
                    m.cycles,
                    m.bound,
                    m.occupancy,
                    if m.cycles == m.bound {
                        " (optimal)"
                    } else {
                        ""
                    },
                )?,
                Err(e) => writeln!(
                    f,
                    "{:<10} {:>6}  {:<8} {:<13} {:<4} {:>6} {:>6} {:>5}  infeasible: {e}",
                    row.core,
                    budget,
                    cover,
                    row.priority.to_string(),
                    if row.cse { "on" } else { "off" },
                    "-",
                    "-",
                    "-",
                )?,
            }
        }
        write!(
            f,
            "{} variants, {} feasible; {} shared stage artifacts in session",
            self.rows.len(),
            self.feasible().count(),
            self.cached_artifacts
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cores;

    fn space() -> DesignSpace {
        DesignSpace::new("input u; coeff k = 0.5; output y; y = add_clip(mlt(k, u), u);")
            .core(cores::audio_core())
            .core(cores::tiny_core())
            .budgets([None, Some(3)])
            .priorities([Priority::Slack, Priority::SinkAlap])
    }

    #[test]
    fn exploration_is_deterministic_across_thread_counts() {
        let serial = space().threads(1).run();
        let parallel = space().threads(4).run();
        assert_eq!(serial.rows.len(), 8);
        assert_eq!(serial.rows.len(), parallel.rows.len());
        for (a, b) in serial.rows.iter().zip(&parallel.rows) {
            assert_eq!(a.core, b.core);
            assert_eq!(a.budget, b.budget);
            match (&a.outcome, &b.outcome) {
                // cache_hits is timing-dependent under a parallel sweep;
                // everything else must match bit for bit.
                (Ok(ma), Ok(mb)) => assert!(ma.same_result(mb), "{ma:?} != {mb:?}"),
                (Err(ea), Err(eb)) => assert_eq!(ea.to_string(), eb.to_string()),
                _ => panic!("feasibility diverged between thread counts"),
            }
        }
        // The budget-3 variants are infeasible, and say so per row.
        assert!(serial.rows.iter().any(|r| !r.is_feasible()));
        // The best feasible row exists and is optimal-or-better than all.
        let best = serial.best().unwrap();
        let best_cycles = match &best.outcome {
            Ok(m) => m.cycles,
            Err(_) => unreachable!(),
        };
        for row in serial.feasible() {
            if let Ok(m) = &row.outcome {
                assert!(best_cycles <= m.cycles);
            }
        }
    }

    #[test]
    fn variants_share_session_artifacts() {
        let table = space().threads(2).run();
        // 8 variants × 7 stages = 56 artifact computations without
        // sharing; the shared session holds far fewer.
        assert!(
            table.cached_artifacts < 40,
            "expected artifact sharing, session holds {}",
            table.cached_artifacts
        );
        // At least one variant beyond the first per core reused stages.
        assert!(table
            .rows
            .iter()
            .any(|r| matches!(&r.outcome, Ok(m) if m.cache_hits > 0)));
        // Display renders a full table without panicking.
        let rendered = table.to_string();
        assert!(rendered.contains("feasible"));
    }
}
