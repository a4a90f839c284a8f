//! Schedule compaction by double justification.
//!
//! A feasible schedule can usually be shortened by *justification* (Valls,
//! Ballestín & Quintanilla's classic RCPSP technique): first every RT is
//! pushed to its **latest** feasible cycle processing in decreasing issue
//! order (right justification), then everything is pulled back to its
//! **earliest** feasible cycle in increasing issue order (left
//! justification). Neither pass can lengthen the schedule, and the
//! pull-back regularly drops several cycles because right justification
//! lines the tail chains up against the deadline, freeing the resource
//! slots that the original greedy pass wasted early.
//!
//! [`Search`] is [`crate::Scheduler::Compacting`]: the restart engine,
//! then justification rounds to a fixpoint, then an iterated local search
//! that perturbs the left-justification order. The budget only decides
//! where the local search stops, so one search, kept between calls,
//! answers every budget of a program.

use std::sync::Arc;

use dspcc_ir::{Program, RtId};

use crate::bounds::length_lower_bound;
use crate::deps::DependenceGraph;
use crate::fuel::{CancelToken, Degradation, DegradeAction, Fuel};
use crate::list::{best_effort_bounded, jitter, schedule_of};
use crate::schedule::{ConflictMatrix, SchedError, Schedule};
use crate::Scheduled;

/// One right-justification pass: every RT moves to its latest feasible
/// cycle < `deadline`, processed in decreasing issue order. Each step
/// takes the first RT in that order whose successors are all placed: a
/// separation-0 edge lets a successor share its predecessor's cycle, and
/// such a successor may come later in the order.
///
/// Feasibility is answered on per-cycle occupancy bitsets
/// ([`ConflictMatrix::fits_mask`]) — one row-AND per probed cycle, the
/// same inner loop as insertion scheduling. Justification runs dozens of
/// times per compaction, so this pass being cheap is what makes the
/// iterated local search affordable.
fn right_justify(
    program: &Program,
    deps: &DependenceGraph,
    matrix: &ConflictMatrix,
    schedule: &Schedule,
    deadline: u32,
) -> Schedule {
    let n = program.rt_count();
    let words = matrix.words_per_row();
    let issue = schedule.issue_cycles(n);
    let mut pending: Vec<usize> = (0..n).collect();
    pending.sort_by_key(|&i| std::cmp::Reverse(issue[i].expect("complete schedule")));
    let mut new_issue: Vec<Option<u32>> = vec![None; n];
    let mut occ = vec![0u64; deadline as usize * words];
    for next in 0..n {
        // The first RT in order whose successors are all placed, and the
        // latest start they allow. `pending[next..]` keeps the unplaced
        // RTs in order; the chosen one moves to its front.
        let (ready, latest) = pending[next..]
            .iter()
            .enumerate()
            .find_map(|(k, &i)| {
                let latest = deps.successors(RtId(i as u32)).try_fold(
                    deadline - 1,
                    |latest, (succ, lat)| {
                        let ts = new_issue[succ.0 as usize]?;
                        Some(latest.min(ts.saturating_sub(lat)))
                    },
                )?;
                Some((k, latest))
            })
            .expect("acyclic graph always has a ready RT");
        pending[next..=next + ready].rotate_right(1);
        let i = pending[next];
        let id = RtId(i as u32);
        let mut t = latest;
        loop {
            let base = t as usize * words;
            if matrix.fits_mask(id, &occ[base..base + words]) {
                occ[base + i / 64] |= 1 << (i % 64);
                new_issue[i] = Some(t);
                break;
            }
            assert!(t > 0, "right justification cannot fail below the original");
            t -= 1;
        }
    }
    schedule_of(&new_issue, &[])
}

/// One left-justification pass: every RT moves to its earliest feasible
/// cycle, processed in increasing issue order. A nonzero `seed` perturbs
/// that order deterministically — the escape mechanism of the iterated
/// local search in [`Search`].
fn left_justify(
    program: &Program,
    deps: &DependenceGraph,
    matrix: &ConflictMatrix,
    schedule: &Schedule,
    seed: u64,
) -> Schedule {
    let n = program.rt_count();
    let issue = schedule.issue_cycles(n);
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| {
        let base = issue[i].expect("complete schedule") as i64;
        if seed == 0 {
            (base, 0)
        } else {
            // Nudge issue keys by ±2 cycles to reshuffle near-ties.
            let j = (jitter(i, seed) % 5) as i64 - 2;
            (base + j, jitter(i, seed ^ 0xABCD) as i64)
        }
    });
    // A perturbed order may not respect dependences; fall back to a
    // dependence-respecting sweep over the ordered list.
    let words = matrix.words_per_row();
    let mut new_issue: Vec<Option<u32>> = vec![None; n];
    let mut remaining: Vec<usize> = (0..n)
        .map(|i| deps.predecessors(RtId(i as u32)).count())
        .collect();
    let mut occ: Vec<u64> = Vec::new();
    // Per conflict-row-class probe hints: cycles below a class's hint
    // already failed `fits_mask` for an identical row this pass, and
    // occupancy only grows — skipping them cannot change the result.
    let mut hints: Vec<u32> = vec![0; matrix.class_count()];
    let mut pending: Vec<usize> = order;
    while !pending.is_empty() {
        let pos = pending
            .iter()
            .position(|&i| remaining[i] == 0)
            .expect("acyclic graph always has a ready RT");
        let i = pending.remove(pos);
        let id = RtId(i as u32);
        for (succ, _) in deps.successors(id) {
            remaining[succ.0 as usize] -= 1;
        }
        let mut earliest = 0u32;
        for (pred, lat) in deps.predecessors(id) {
            earliest = earliest.max(new_issue[pred.0 as usize].expect("ready order") + lat);
        }
        let class = matrix.row_class(id) as usize;
        let contiguous = hints[class] >= earliest;
        let mut t = earliest.max(hints[class]);
        loop {
            let base = t as usize * words;
            if occ.len() < base + words {
                occ.resize(base + words, 0);
            }
            if matrix.fits_mask(id, &occ[base..base + words]) {
                occ[base + i / 64] |= 1 << (i % 64);
                new_issue[i] = Some(t);
                if contiguous {
                    hints[class] = t;
                }
                break;
            }
            t += 1;
        }
    }
    schedule_of(&new_issue, &[])
}

/// Alternates right and left justification until the length stops
/// improving, reaches `bound` (a provable lower bound — see
/// [`crate::bounds`] — below which no round can improve anything) or
/// `max_rounds` ran. One [`Fuel`] unit pays for a round *before* it runs
/// (rounds are atomic: paid-for work always completes). Exhaustion
/// returns the best schedule so far plus the number of rounds skipped;
/// compaction only ever shortens, so a truncated run is still valid.
/// `cancel` is polled per round.
///
/// # Errors
///
/// [`SchedError::Cancelled`] when the token is raised mid-compaction.
#[allow(clippy::too_many_arguments)]
fn compact(
    program: &Program,
    deps: &DependenceGraph,
    matrix: &ConflictMatrix,
    schedule: Schedule,
    max_rounds: u32,
    bound: u32,
    fuel: &mut Fuel,
    cancel: Option<&CancelToken>,
) -> Result<(Schedule, u64), SchedError> {
    let mut best = schedule;
    let mut skipped = 0u64;
    for round in 0..max_rounds {
        let len = best.length();
        if len == 0 || len <= bound {
            break;
        }
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return Err(SchedError::Cancelled);
        }
        if !fuel.try_charge(1) {
            skipped = (max_rounds - round) as u64;
            break;
        }
        let right = right_justify(program, deps, matrix, &best, len);
        let left = left_justify(program, deps, matrix, &right, 0);
        if left.length() >= len {
            // Keep the shorter of the two; stop on stagnation.
            if left.length() < best.length() {
                best = left;
            }
            break;
        }
        best = left;
    }
    Ok((best, skipped))
}

/// One stopping point of the compacting scheduler: a schedule, and where
/// a one-shot run stands when it stops there — the work units it has
/// skipped and its fuel.
#[derive(Debug, Clone)]
struct Stop {
    schedule: Arc<Schedule>,
    skipped: u64,
    fuel: Fuel,
}

impl Stop {
    /// The outcome of a run that stops here under `budget`: the schedule,
    /// with a [`Degradation`] when fuel skipped work, or the budget miss,
    /// attributed to fuel when fuel skipped work.
    fn verdict(
        self,
        bound: u32,
        budget: Option<u32>,
    ) -> Result<Scheduled<Arc<Schedule>>, SchedError> {
        let spent = self.fuel.used();
        let degradation = (self.skipped > 0).then_some(Degradation {
            stage: "schedule",
            spent,
            action: DegradeAction::SearchTruncated {
                skipped: self.skipped,
            },
        });
        match budget {
            Some(b) if self.schedule.length() > b => Err(if degradation.is_some() {
                SchedError::FuelExhausted { spent, budget: b }
            } else {
                SchedError::BudgetExceeded {
                    budget: b,
                    unplaced: 0,
                }
            }),
            _ => Ok(Scheduled {
                schedule: self.schedule,
                bound,
                degradation,
            }),
        }
    }
}

/// The production scheduler's search ([`crate::Scheduler::Compacting`]),
/// kept between budgets.
///
/// The search is best-effort construction (multiple priorities, restarts,
/// forward and backward), justification compaction, then an iterated
/// local search, all stopping the moment the schedule meets `bound`, the
/// provable length lower bound: at the bound the schedule is optimal and
/// the remaining rounds are pure waste. Construction runs without a
/// budget, so a too-tight target cannot wedge the greedy pass, and
/// neither it nor compaction reads the budget. The budget enters in one
/// place: the local search stops at the first seed after which the best
/// schedule meets it. Every budget of a program therefore walks one
/// trajectory and only picks where to stop on it.
///
/// [`Search::new`] runs construction and compaction. [`Search::answer`]
/// extends the local search one seed at a time, only as far as its
/// budget needs, and records each strict improvement together with the
/// skipped count and [`Fuel`] state a one-shot run has when it stops
/// there. An answer reports the checkpoint its budget stops at, or the
/// state where the whole search ends when none meets the budget, never
/// a state the search has advanced past, so it is exactly what
/// [`crate::schedule`] returns for that budget.
///
/// One fuel unit pays for one construction attempt, one justification
/// round, or one perturbation seed. The baseline construction round is
/// mandatory (charged saturating); everything after it must pay up
/// front, and a failed charge truncates the search *there*, keeping the
/// best schedule found so far. A truncated run that still meets the
/// cycle budget succeeds with a [`Degradation`] report; only when the
/// budget is missed *and* fuel was the binding constraint does the
/// attributable [`SchedError::FuelExhausted`] replace the generic
/// [`SchedError::BudgetExceeded`].
#[derive(Debug)]
pub struct Search {
    bound: u32,
    /// The compacted construction, then each strict improvement of the
    /// local search, each with the state right after the seed that
    /// found it. Lengths strictly decrease.
    improvements: Vec<Stop>,
    /// The best schedule, with the state after the last completed seed.
    current: Stop,
    /// The next perturbation seed, and the last one the search runs.
    next_seed: u64,
    last_seed: u64,
}

impl Search {
    /// Computes the length lower bound of `program`, then runs
    /// construction with `restarts` jittered rounds per priority and
    /// compaction, paid from `fuel`.
    ///
    /// # Errors
    ///
    /// [`SchedError::Cancelled`] when `cancel` is raised.
    pub fn new(
        program: &Program,
        deps: &DependenceGraph,
        matrix: &ConflictMatrix,
        restarts: u32,
        fuel: Fuel,
        cancel: Option<&CancelToken>,
    ) -> Result<Search, SchedError> {
        let bound = length_lower_bound(program, deps, matrix);
        Search::with_bound(program, deps, matrix, restarts, bound, fuel, cancel)
    }

    fn with_bound(
        program: &Program,
        deps: &DependenceGraph,
        matrix: &ConflictMatrix,
        restarts: u32,
        bound: u32,
        mut fuel: Fuel,
        cancel: Option<&CancelToken>,
    ) -> Result<Search, SchedError> {
        let (initial, construct_skipped) = best_effort_bounded(
            program, deps, matrix, None, restarts, bound, &mut fuel, cancel,
        )?;
        let (best, compact_skipped) =
            compact(program, deps, matrix, initial, 32, bound, &mut fuel, cancel)?;
        let current = Stop {
            schedule: Arc::new(best),
            skipped: construct_skipped + compact_skipped,
            fuel,
        };
        // The seed range is offset past the construction jitter seeds
        // (`0..=restarts`) so one `restarts` setting never feeds the same
        // seed value to both loops (the two perturb different things; the
        // offset is bookkeeping hygiene, not deduplicated work — the
        // round count matches the old `1..=(restarts·4).max(8)` loop).
        let restarts = u64::from(restarts);
        Ok(Search {
            bound,
            improvements: vec![current.clone()],
            current,
            next_seed: restarts + 1,
            last_seed: restarts + (restarts * 4).max(8),
        })
    }

    /// Exactly what [`crate::schedule`] returns for
    /// [`crate::Scheduler::Compacting`] under `budget`, with the fuel this
    /// search started from. The schedule is shared with the search.
    /// `program`, `deps` and `matrix` must be the ones the search was
    /// started on.
    ///
    /// # Errors
    ///
    /// [`SchedError::Cancelled`] when `cancel` is raised while the search
    /// advances, which leaves it at its last completed seed;
    /// [`SchedError::FuelExhausted`] / [`SchedError::BudgetExceeded`] when
    /// no schedule meets `budget`.
    pub fn answer(
        &mut self,
        program: &Program,
        deps: &DependenceGraph,
        matrix: &ConflictMatrix,
        budget: Option<u32>,
        cancel: Option<&CancelToken>,
    ) -> Result<Scheduled<Arc<Schedule>>, SchedError> {
        let bound = self.bound;
        self.stop(program, deps, matrix, budget, cancel)?
            .verdict(bound, budget)
    }

    /// Where a one-shot run stops under `budget`: the first stored
    /// improvement good enough for it, extending the local search until
    /// one is or the search ends; then the best schedule with the final
    /// state.
    fn stop(
        &mut self,
        program: &Program,
        deps: &DependenceGraph,
        matrix: &ConflictMatrix,
        budget: Option<u32>,
        cancel: Option<&CancelToken>,
    ) -> Result<Stop, SchedError> {
        let bound = self.bound;
        let good_enough = |stop: &Stop| {
            let len = stop.schedule.length();
            len <= bound || budget.is_some_and(|b| len <= b)
        };
        if let Some(stop) = self.improvements.iter().find(|s| good_enough(s)) {
            return Ok(stop.clone());
        }
        while self.next_seed <= self.last_seed {
            if self.advance(program, deps, matrix, cancel)? && good_enough(&self.current) {
                break;
            }
        }
        Ok(self.current.clone())
    }

    /// Runs the next seed of the iterated local search: perturbed left
    /// justification escapes the justification fixpoint, and a short
    /// re-compaction follows. Returns whether the seed improved the best
    /// schedule. A failed fuel charge skips every remaining seed and ends
    /// the search. Cancellation commits nothing.
    fn advance(
        &mut self,
        program: &Program,
        deps: &DependenceGraph,
        matrix: &ConflictMatrix,
        cancel: Option<&CancelToken>,
    ) -> Result<bool, SchedError> {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return Err(SchedError::Cancelled);
        }
        let mut fuel = self.current.fuel;
        if !fuel.try_charge(1) {
            self.current.skipped += self.last_seed - self.next_seed + 1;
            self.next_seed = self.last_seed + 1;
            return Ok(false);
        }
        let best = &self.current.schedule;
        let perturbed = left_justify(program, deps, matrix, best, self.next_seed);
        let (candidate, skipped) = compact(
            program, deps, matrix, perturbed, 8, self.bound, &mut fuel, cancel,
        )?;
        let improved = candidate.length() < best.length();
        self.next_seed += 1;
        self.current.skipped += skipped;
        self.current.fuel = fuel;
        if improved {
            self.current.schedule = Arc::new(candidate);
            self.improvements.push(self.current.clone());
        }
        Ok(improved)
    }
}

/// [`crate::schedule`]'s compacting scheduler: one search, answered once
/// under `budget`, which leaves `fuel` where the search stopped. The
/// exact scheduler's fallback runs it too, with the bound it computed.
///
/// # Errors
///
/// As [`Search::answer`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn compacting(
    program: &Program,
    deps: &DependenceGraph,
    matrix: &ConflictMatrix,
    budget: Option<u32>,
    restarts: u32,
    bound: u32,
    fuel: &mut Fuel,
    cancel: Option<&CancelToken>,
) -> Result<Scheduled, SchedError> {
    let stop = Search::with_bound(program, deps, matrix, restarts, bound, *fuel, cancel)?
        .stop(program, deps, matrix, budget, cancel)?;
    *fuel = stop.fuel;
    // The search is gone, so the schedule moves out of its `Arc`.
    let Scheduled {
        schedule,
        bound,
        degradation,
    } = stop.verdict(bound, budget)?;
    Ok(Scheduled {
        schedule: Arc::unwrap_or_clone(schedule),
        bound,
        degradation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::{list_pass, Priority};
    use crate::{schedule, Scheduler};
    use dspcc_ir::{Rt, Usage};

    fn chains(k: usize) -> Program {
        let mut p = Program::new();
        for i in 0..k {
            let vc = p.add_value(format!("c{i}"));
            let vm = p.add_value(format!("m{i}"));
            let mut c = Rt::new(format!("const{i}"));
            c.add_def(vc);
            c.add_usage("rom", Usage::apply("const", [format!("{i}")]));
            let mut m = Rt::new(format!("mult{i}"));
            m.add_use(vc);
            m.add_def(vm);
            m.add_usage("mult", Usage::apply("mult", [format!("m{i}")]));
            let mut a = Rt::new(format!("add{i}"));
            a.add_use(vm);
            a.add_usage("alu", Usage::apply("add", [format!("a{i}")]));
            p.add_rt(c);
            p.add_rt(m);
            p.add_rt(a);
        }
        p
    }

    fn compacted(
        p: &Program,
        deps: &DependenceGraph,
        budget: Option<u32>,
        restarts: u32,
    ) -> Result<Schedule, SchedError> {
        let matrix = ConflictMatrix::build(p);
        let scheduler = Scheduler::Compacting { restarts };
        schedule(
            p,
            deps,
            &matrix,
            scheduler,
            budget,
            &mut Fuel::unlimited(),
            None,
        )
        .map(|s| s.schedule)
    }

    #[test]
    fn justification_never_lengthens() {
        let p = chains(6);
        let deps = DependenceGraph::build(&p).unwrap();
        let matrix = ConflictMatrix::build(&p);
        let s = list_pass(&p, &deps, &matrix, None, Priority::Slack).unwrap();
        let len = s.length();
        let right = right_justify(&p, &deps, &matrix, &s, len);
        right.verify(&p, &deps).unwrap();
        assert!(right.length() <= len);
        let left = left_justify(&p, &deps, &matrix, &right, 0);
        left.verify(&p, &deps).unwrap();
        assert!(left.length() <= right.length());
    }

    #[test]
    fn right_justify_waits_for_a_same_cycle_successor() {
        // a → b with separation 0 lets both issue in cycle 0, and b
        // conflicts with c in cycle 1. Decreasing issue order visits a
        // before its successor b, which must still be placed first.
        let mut p = Program::new();
        let mut a = Rt::new("a");
        a.add_usage("alu", Usage::token("add"));
        let mut b = Rt::new("b");
        b.add_usage("mult", Usage::token("x"));
        let mut c = Rt::new("c");
        c.add_usage("mult", Usage::token("y"));
        p.add_rt(a);
        p.add_rt(b);
        p.add_rt(c);
        let deps = DependenceGraph::build_with_edges(&p, &[(RtId(0), RtId(1), 0)]).unwrap();
        let matrix = ConflictMatrix::build(&p);
        let s = Schedule::from_cycles(vec![vec![RtId(0), RtId(1)], vec![RtId(2)]]);
        s.verify(&p, &deps).unwrap();
        let right = right_justify(&p, &deps, &matrix, &s, 2);
        right.verify(&p, &deps).unwrap();
        assert_eq!(right.issue_cycles(3), [Some(0), Some(0), Some(1)]);
    }

    #[test]
    fn compact_improves_a_bad_schedule() {
        // Deliberately pessimal: one RT per cycle.
        let p = chains(4);
        let deps = DependenceGraph::build(&p).unwrap();
        let matrix = ConflictMatrix::build(&p);
        let bad = crate::baseline::sequential_schedule(&p, &deps);
        let (good, skipped) = compact(
            &p,
            &deps,
            &matrix,
            bad.clone(),
            16,
            0,
            &mut Fuel::unlimited(),
            None,
        )
        .unwrap();
        assert_eq!(skipped, 0);
        good.verify(&p, &deps).unwrap();
        assert!(
            good.length() < bad.length(),
            "{} !< {}",
            good.length(),
            bad.length()
        );
        // Pipeline of 4 chains over 3 units: optimal is 6.
        assert!(good.length() <= 7, "{}", good.length());
    }

    #[test]
    fn schedule_and_compact_end_to_end() {
        let p = chains(5);
        let deps = DependenceGraph::build(&p).unwrap();
        let s = compacted(&p, &deps, Some(8), 4).unwrap();
        s.verify(&p, &deps).unwrap();
        assert!(s.length() <= 8);
    }

    #[test]
    fn budget_failure_reported_after_compaction() {
        let p = chains(5);
        let deps = DependenceGraph::build(&p).unwrap();
        let err = compacted(&p, &deps, Some(3), 2).unwrap_err();
        assert!(matches!(err, SchedError::BudgetExceeded { budget: 3, .. }));
    }

    #[test]
    fn empty_program_compacts() {
        let p = Program::new();
        let deps = DependenceGraph::build(&p).unwrap();
        let s = compacted(&p, &deps, None, 1).unwrap();
        assert_eq!(s.length(), 0);
    }
}
