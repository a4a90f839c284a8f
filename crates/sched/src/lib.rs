//! Schedulers for `dspcc` (compiler step 3, paper section 4).
//!
//! "The modified RTs are input for the scheduler which performs the
//! ordering of the RTs. The scheduler combines RTs into instructions. The
//! modifications insure that a scheduler only creates mcode instructions by
//! combining RTs that are physically possible and allowed in the
//! instruction set."
//!
//! Because instruction-set restrictions were already lowered to artificial
//! resource conflicts, every scheduler here is a plain *resource-constrained
//! scheduler*: two RTs may share a cycle iff they are pairwise compatible
//! ([`dspcc_ir::Rt::compatible_with`]). One entry point, [`schedule()`],
//! runs the [`Scheduler`] the caller selects.
//!
//! * [`bounds`] — provable lower bounds on schedule length (critical
//!   path, distinct-usage pressure, conflict cliques); the stopping rules
//!   of every restart loop.
//! * [`deps`] — dependence-graph construction (flow dependences with
//!   pipeline latencies) and ASAP/ALAP windows.
//! * [`list`] — the construction passes (list scheduling, forward and
//!   backward insertion scheduling) and the restart engine that runs
//!   them; its [`list::Priority`] orders the ready RTs.
//! * [`Search`] — the compacting scheduler's search (the restart engine,
//!   justification and an iterated local search), kept between budgets:
//!   the budget only picks where its local search stops.
//! * [`exact`] — branch-and-bound scheduler with *execution-interval
//!   analysis*: bipartite-matching feasibility pruning per resource, the
//!   technique of the paper's future-work reference \[11\] (Timmer & Jess,
//!   EDAC'95).
//! * [`folding`] — modulo scheduling of the time-loop (the paper notes the
//!   63-cycle result "could be reduced a few cycles if the time-loop could
//!   be folded which is not supported by the current system" — it is
//!   supported here as an extension).
//! * [`baseline`] — the naive sequential schedule and an ISA-unaware
//!   scheduler, baselines for the evaluation.
//! * [`report`] — occupation statistics and the figure-9 ASCII chart.
//!
//! # Example
//!
//! ```
//! use dspcc_ir::{Program, Rt, Usage};
//! use dspcc_sched::{deps::DependenceGraph, schedule, ConflictMatrix, Fuel, Scheduler};
//!
//! let mut p = Program::new();
//! let v = p.add_value("v");
//! let mut a = Rt::new("producer");
//! a.add_def(v);
//! a.add_usage("alu", Usage::token("add"));
//! let mut b = Rt::new("consumer");
//! b.add_use(v);
//! b.add_usage("alu", Usage::token("add"));
//! p.add_rt(a);
//! p.add_rt(b);
//! let deps = DependenceGraph::build(&p)?;
//! let matrix = ConflictMatrix::build(&p);
//! let scheduler = Scheduler::Compacting { restarts: 2 };
//! let scheduled = schedule(&p, &deps, &matrix, scheduler, None, &mut Fuel::unlimited(), None)?;
//! assert_eq!(scheduled.schedule.length(), 2); // flow dependence forces 2 cycles
//! assert_eq!(scheduled.bound, 2); // ...so the schedule is optimal
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod baseline;
pub mod bounds;
mod compact;
pub mod deps;
pub mod exact;
pub mod folding;
pub mod fuel;
pub mod list;
pub mod report;
mod schedule;

use dspcc_ir::Program;

pub use compact::Search;
pub use fuel::{CancelToken, Degradation, DegradeAction, Fuel};
pub use schedule::{ConflictMatrix, SchedError, Schedule, VerifyError};

use crate::bounds::length_lower_bound;
use crate::deps::DependenceGraph;
use crate::exact::{exact_schedule, ExactConfig};
use crate::list::Priority;

/// Which scheduler [`schedule()`] runs, with the one option each reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduler {
    /// The production scheduler: the restart engine (four priorities ×
    /// list, forward and backward insertion scheduling, plus `restarts`
    /// jittered rounds per priority), then justification compaction and
    /// an iterated local search, all stopping at the length lower bound.
    /// Only the local search reads the budget; [`Search`] keeps the
    /// search to answer several budgets.
    Compacting {
        /// Jittered restart rounds per priority.
        restarts: u32,
    },
    /// One list-scheduling pass: the weak baseline and the quick
    /// feasibility check.
    List {
        /// The priority that orders the ready RTs.
        priority: Priority,
    },
    /// Branch-and-bound with execution-interval pruning: finds a schedule
    /// within the budget, which it requires, or proves none exists. A
    /// search that fuel stops short of an answer falls back to the
    /// compacting scheduler's mandatory round.
    Exact {
        /// Search nodes after which the search gives up.
        max_nodes: u64,
    },
}

impl Scheduler {
    /// Whether the fuel budget can change this scheduler's outcome. The
    /// list pass is one mandatory attempt whatever the fuel.
    pub fn reads_fuel(self) -> bool {
        !matches!(self, Scheduler::List { .. })
    }
}

/// The result of [`schedule()`], and of [`Search::answer`] with the
/// schedule shared with the search.
#[derive(Debug, Clone)]
pub struct Scheduled<S = Schedule> {
    /// The schedule.
    pub schedule: S,
    /// The provable length lower bound ([`bounds::length_lower_bound`]);
    /// `schedule.length() == bound` proves the schedule optimal.
    pub bound: u32,
    /// `Some` when fuel ran out and search work was skipped; the
    /// schedule is then best-so-far rather than the full-budget result.
    pub degradation: Option<Degradation>,
}

/// Schedules `program` with `scheduler` within `budget` cycles.
///
/// `fuel` bounds the search in deterministic work units: one unit pays
/// for one restart attempt, one justification round or perturbation
/// seed, or one branch-and-bound node — never wall-clock — so the same
/// `(input, fuel)` pair gives bit-identical output on every machine.
/// The list pass and the compacting scheduler's first round are
/// mandatory and run whatever the fuel; exhaustion after that truncates
/// the search, keeps the best schedule found so far and reports a
/// [`Degradation`]. An exact search that fuel stops short degrades to
/// the compacting scheduler's mandatory round. `cancel` is polled at
/// round barriers and every few hundred search nodes.
///
/// # Errors
///
/// [`SchedError::Cancelled`] when `cancel` is raised;
/// [`SchedError::FuelExhausted`] when a degraded search misses `budget`
/// and [`SchedError::BudgetExceeded`] when a full one does;
/// [`SchedError::NoBudget`] for [`Scheduler::Exact`] without a budget.
pub fn schedule(
    program: &Program,
    deps: &DependenceGraph,
    matrix: &ConflictMatrix,
    scheduler: Scheduler,
    budget: Option<u32>,
    fuel: &mut Fuel,
    cancel: Option<&CancelToken>,
) -> Result<Scheduled, SchedError> {
    let bound = length_lower_bound(program, deps, matrix);
    // The compacting and list schedulers return here; the exact one
    // continues below.
    let max_nodes = match scheduler {
        Scheduler::Compacting { restarts } => {
            return compact::compacting(
                program, deps, matrix, budget, restarts, bound, fuel, cancel,
            )
        }
        Scheduler::List { priority } => {
            if cancel.is_some_and(CancelToken::is_cancelled) {
                return Err(SchedError::Cancelled);
            }
            fuel.charge_saturating(1);
            let schedule = list::list_pass(program, deps, matrix, budget, priority)?;
            return Ok(Scheduled {
                schedule,
                bound,
                degradation: None,
            });
        }
        Scheduler::Exact { max_nodes } => max_nodes,
    };
    let budget = budget.ok_or(SchedError::NoBudget)?;
    // Fuel counts node expansions here: the node cap is the smaller of
    // the configured cap and the remaining fuel, and the nodes actually
    // explored are charged afterwards.
    let config = ExactConfig {
        max_nodes: max_nodes.min(fuel.remaining()),
        cancel: cancel.cloned(),
        ..ExactConfig::new(budget)
    };
    let result = exact_schedule(program, deps, matrix, &config);
    fuel.charge_saturating(result.nodes_explored);
    if result.cancelled {
        return Err(SchedError::Cancelled);
    }
    match result.schedule {
        Some(schedule) => Ok(Scheduled {
            schedule,
            bound,
            degradation: None,
        }),
        // Fuel, not the node cap, stopped the search short of an answer.
        // The search spent all the remaining fuel, so the fallback runs
        // only its mandatory round, which no restart count changes.
        None if !result.complete && config.max_nodes < max_nodes => {
            let fallback =
                compact::compacting(program, deps, matrix, Some(budget), 0, bound, fuel, cancel)?;
            Ok(Scheduled {
                degradation: Some(Degradation {
                    stage: "schedule",
                    spent: fuel.used(),
                    action: DegradeAction::ExactToHeuristic {
                        nodes_explored: result.nodes_explored,
                    },
                }),
                ..fallback
            })
        }
        // Proven infeasibility, or the node cap gave up.
        None => Err(SchedError::BudgetExceeded {
            budget,
            unplaced: program.rt_count(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspcc_ir::{Rt, Usage};

    /// `k` independent RTs fighting for one ALU, so every schedule is
    /// `k` cycles long.
    fn serial(k: usize) -> (Program, DependenceGraph, ConflictMatrix) {
        let mut p = Program::new();
        for i in 0..k {
            let mut rt = Rt::new(format!("op{i}"));
            rt.add_usage("alu", Usage::token(format!("op{i}").as_str()));
            p.add_rt(rt);
        }
        let deps = DependenceGraph::build(&p).unwrap();
        let matrix = ConflictMatrix::build(&p);
        (p, deps, matrix)
    }

    const SCHEDULERS: [Scheduler; 3] = [
        Scheduler::Compacting { restarts: 2 },
        Scheduler::List {
            priority: Priority::Slack,
        },
        Scheduler::Exact { max_nodes: 10_000 },
    ];

    #[test]
    fn every_scheduler_meets_the_bound_and_only_exact_needs_a_budget() {
        let (p, deps, matrix) = serial(5);
        for scheduler in SCHEDULERS {
            for budget in [None, Some(5)] {
                let mut fuel = Fuel::unlimited();
                let result = schedule(&p, &deps, &matrix, scheduler, budget, &mut fuel, None);
                if budget.is_none() && matches!(scheduler, Scheduler::Exact { .. }) {
                    assert_eq!(result.unwrap_err(), SchedError::NoBudget);
                    continue;
                }
                let s = result.unwrap();
                s.schedule.verify(&p, &deps).unwrap();
                assert_eq!((s.schedule.length(), s.bound), (5, 5), "{scheduler:?}");
                assert_eq!(s.degradation, None);
            }
        }
    }

    #[test]
    fn exact_search_stopped_by_fuel_falls_back_to_the_heuristic() {
        let (p, deps, matrix) = serial(6);
        let exact = Scheduler::Exact { max_nodes: 10_000 };
        let mut fuel = Fuel::limited(0);
        let s = schedule(&p, &deps, &matrix, exact, Some(6), &mut fuel, None).unwrap();
        s.schedule.verify(&p, &deps).unwrap();
        assert_eq!(
            s.degradation.map(|d| d.action),
            Some(DegradeAction::ExactToHeuristic { nodes_explored: 0 })
        );
        // The node cap, not fuel, stopping the search is a budget miss.
        let capped = Scheduler::Exact { max_nodes: 0 };
        let err = schedule(
            &p,
            &deps,
            &matrix,
            capped,
            Some(6),
            &mut Fuel::unlimited(),
            None,
        );
        assert!(matches!(
            err,
            Err(SchedError::BudgetExceeded { budget: 6, .. })
        ));
    }

    #[test]
    fn only_the_list_pass_ignores_fuel() {
        assert_eq!(SCHEDULERS.map(Scheduler::reads_fuel), [true, false, true]);
        let (p, deps, matrix) = serial(4);
        let run = |fuel: &mut Fuel| {
            schedule(&p, &deps, &matrix, SCHEDULERS[1], Some(4), fuel, None).unwrap()
        };
        let (full, starved) = (run(&mut Fuel::unlimited()), run(&mut Fuel::limited(0)));
        assert_eq!(full.schedule, starved.schedule);
        assert_eq!(starved.degradation, None);
    }

    #[test]
    fn a_raised_token_cancels_every_scheduler() {
        let (p, deps, matrix) = serial(4);
        let token = CancelToken::new();
        token.cancel();
        for scheduler in SCHEDULERS {
            let mut fuel = Fuel::unlimited();
            let err = schedule(
                &p,
                &deps,
                &matrix,
                scheduler,
                Some(4),
                &mut fuel,
                Some(&token),
            );
            assert!(matches!(err, Err(SchedError::Cancelled)), "{scheduler:?}");
        }
    }
}
