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
//! [`compact`] alternates passes to a fixpoint; [`schedule_and_compact`]
//! is the production entry point: best-effort construction followed by
//! compaction, optionally iterated with perturbation.

use dspcc_ir::{Program, RtId};

use crate::bounds::length_lower_bound;
use crate::deps::DependenceGraph;
use crate::fuel::{CancelToken, Degradation, DegradeAction, Fuel};
use crate::list::best_effort_bounded;
use crate::schedule::{ConflictMatrix, SchedError, Schedule};

/// One right-justification pass: every RT moves to its latest feasible
/// cycle < `deadline`, processed in decreasing issue order.
///
/// Feasibility is answered on per-cycle occupancy bitsets
/// ([`ConflictMatrix::fits_mask`]) — one row-AND per probed cycle, the
/// same inner loop as insertion scheduling. Justification runs dozens of
/// times per compaction, so this pass being cheap is what makes the
/// iterated local search affordable.
pub fn right_justify(
    program: &Program,
    deps: &DependenceGraph,
    matrix: &ConflictMatrix,
    schedule: &Schedule,
    deadline: u32,
) -> Schedule {
    let n = program.rt_count();
    let words = matrix.words_per_row();
    let issue = schedule.issue_cycles(n);
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(issue[i].expect("complete schedule")));
    let mut new_issue: Vec<Option<u32>> = vec![None; n];
    let mut occ = vec![0u64; deadline as usize * words];
    for &i in &order {
        let id = RtId(i as u32);
        // Latest start bounded by already-placed successors.
        let mut latest = deadline - 1;
        for (succ, lat) in deps.successors(id) {
            let ts = new_issue[succ.0 as usize].expect("reverse order");
            latest = latest.min(ts.saturating_sub(lat));
        }
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
    let mut out = Schedule::new();
    for (i, t) in new_issue.iter().enumerate() {
        out.place(RtId(i as u32), t.expect("all placed"));
    }
    out
}

/// One left-justification pass: every RT moves to its earliest feasible
/// cycle, processed in increasing issue order.
pub fn left_justify(
    program: &Program,
    deps: &DependenceGraph,
    matrix: &ConflictMatrix,
    schedule: &Schedule,
) -> Schedule {
    left_justify_seeded(program, deps, matrix, schedule, 0)
}

/// As [`left_justify`], with a deterministic perturbation of the
/// processing order (seed 0 = pure issue order). Perturbed passes are the
/// escape mechanism of the iterated local search in
/// [`schedule_and_compact`].
pub fn left_justify_seeded(
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
            let j = (splitmix(i as u64, seed) % 5) as i64 - 2;
            (base + j, splitmix(i as u64, seed ^ 0xABCD) as i64)
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
    let mut out = Schedule::new();
    for (i, t) in new_issue.iter().enumerate() {
        out.place(RtId(i as u32), t.expect("all placed"));
    }
    out
}

fn splitmix(x: u64, seed: u64) -> u64 {
    let mut z = x.wrapping_add(seed.wrapping_mul(0x9E3779B97F4A7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Alternates right/left justification until the length stops improving.
pub fn compact(
    program: &Program,
    deps: &DependenceGraph,
    matrix: &ConflictMatrix,
    schedule: Schedule,
    max_rounds: u32,
) -> Schedule {
    compact_to_bound(program, deps, matrix, schedule, max_rounds, 0)
}

/// As [`compact`], stopping as soon as the schedule reaches `bound`
/// cycles (a provable lower bound — see [`crate::bounds`] — below which
/// further justification rounds cannot improve anything).
pub fn compact_to_bound(
    program: &Program,
    deps: &DependenceGraph,
    matrix: &ConflictMatrix,
    schedule: Schedule,
    max_rounds: u32,
    bound: u32,
) -> Schedule {
    compact_to_bound_fueled(
        program,
        deps,
        matrix,
        schedule,
        max_rounds,
        bound,
        &mut Fuel::unlimited(),
        None,
    )
    .map(|(schedule, _)| schedule)
    .unwrap_or_else(|_| unreachable!("unlimited fuel, no cancel token"))
}

/// As [`compact_to_bound`], paying one [`Fuel`] unit per justification
/// round *before* running it (rounds are atomic: paid-for work always
/// completes). Exhaustion returns the best schedule so far plus the
/// number of rounds skipped; compaction only ever shortens, so a
/// truncated run is still valid. `cancel` is polled per round.
///
/// # Errors
///
/// [`SchedError::Cancelled`] when the token is raised mid-compaction.
#[allow(clippy::too_many_arguments)]
pub fn compact_to_bound_fueled(
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
        if cancel.map(CancelToken::is_cancelled).unwrap_or(false) {
            return Err(SchedError::Cancelled);
        }
        if !fuel.try_charge(1) {
            skipped = (max_rounds - round) as u64;
            break;
        }
        let right = right_justify(program, deps, matrix, &best, len);
        let left = left_justify(program, deps, matrix, &right);
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

/// The production scheduler: best-effort construction (multiple
/// priorities, restarts, forward and backward) followed by justification
/// compaction.
///
/// Both the construction restarts and the iterated local search stop the
/// moment the schedule meets the provable length lower bound
/// ([`length_lower_bound`]): at the bound the schedule is optimal and the
/// remaining perturbation rounds are pure waste.
///
/// # Errors
///
/// Returns [`SchedError::BudgetExceeded`] when even the compacted
/// schedule misses the budget.
pub fn schedule_and_compact(
    program: &Program,
    deps: &DependenceGraph,
    budget: Option<u32>,
    restarts: u32,
) -> Result<Schedule, SchedError> {
    let matrix = ConflictMatrix::build(program);
    schedule_and_compact_in(program, deps, &matrix, budget, restarts).map(|(s, _)| s)
}

/// As [`schedule_and_compact`], with a caller-provided conflict matrix.
/// Returns the schedule together with the provable length lower bound
/// the cutoffs used (`schedule.length() == bound` proves the schedule
/// optimal) — computed exactly once for the whole run.
///
/// # Errors
///
/// Returns [`SchedError::BudgetExceeded`] when even the compacted
/// schedule misses the budget.
pub fn schedule_and_compact_in(
    program: &Program,
    deps: &DependenceGraph,
    matrix: &ConflictMatrix,
    budget: Option<u32>,
    restarts: u32,
) -> Result<(Schedule, u32), SchedError> {
    schedule_and_compact_fueled(
        program,
        deps,
        matrix,
        budget,
        restarts,
        &mut Fuel::unlimited(),
        None,
    )
    .map(|r| (r.schedule, r.bound))
}

/// The result of a fuel-bounded scheduling run.
#[derive(Debug, Clone)]
pub struct FueledSchedule {
    /// The best schedule found.
    pub schedule: Schedule,
    /// The provable length lower bound the cutoffs used.
    pub bound: u32,
    /// `Some` when fuel ran out and search work was skipped; the
    /// schedule is then best-so-far rather than the full-budget result.
    pub degradation: Option<Degradation>,
}

/// As [`schedule_and_compact_in`], under a deterministic compute budget
/// and an optional cancellation token.
///
/// One fuel unit pays for one construction attempt, one justification
/// round, or one perturbation seed — never wall-clock — so the same
/// `(input, fuel)` pair produces bit-identical output on every machine.
/// The baseline construction round is mandatory (charged saturating);
/// everything after it must pay up front, and a failed charge truncates
/// the search *there*, keeping the best schedule found so far. A
/// truncated run that still meets the cycle budget succeeds with a
/// [`Degradation`] report; only when the budget is missed *and* fuel
/// was the binding constraint does the attributable
/// [`SchedError::FuelExhausted`] replace the generic
/// [`SchedError::BudgetExceeded`].
///
/// # Errors
///
/// [`SchedError::Cancelled`] when `cancel` is raised;
/// [`SchedError::FuelExhausted`] / [`SchedError::BudgetExceeded`] when
/// no schedule meets `budget`.
#[allow(clippy::too_many_arguments)]
pub fn schedule_and_compact_fueled(
    program: &Program,
    deps: &DependenceGraph,
    matrix: &ConflictMatrix,
    budget: Option<u32>,
    restarts: u32,
    fuel: &mut Fuel,
    cancel: Option<&CancelToken>,
) -> Result<FueledSchedule, SchedError> {
    let bound = length_lower_bound(program, deps, matrix);
    // Construct without a hard budget so a too-tight target cannot wedge
    // the greedy pass, then compact and check the budget at the end.
    let (initial, mut skipped) =
        best_effort_bounded(program, deps, matrix, None, restarts, bound, fuel, cancel)?;
    let (mut best, compact_skipped) =
        compact_to_bound_fueled(program, deps, matrix, initial, 32, bound, fuel, cancel)?;
    skipped += compact_skipped;
    let good_enough =
        |s: &Schedule| s.length() <= bound || budget.map(|b| s.length() <= b).unwrap_or(false);
    if !good_enough(&best) {
        // Iterated local search: perturbed left-justification escapes the
        // justification fixpoint; each round re-compacts and keeps the
        // best. The seed range is offset past the construction jitter
        // seeds (`0..=restarts`) so one `restarts` setting never feeds the
        // same seed value to both loops (the two perturb different things;
        // the offset is bookkeeping hygiene, not deduplicated work — the
        // round count matches the old `1..=(restarts·4).max(8)` loop).
        let first_seed = restarts as u64 + 1;
        let last_seed = restarts as u64 + (restarts as u64 * 4).max(8);
        for seed in first_seed..=last_seed {
            if cancel.map(CancelToken::is_cancelled).unwrap_or(false) {
                return Err(SchedError::Cancelled);
            }
            if !fuel.try_charge(1) {
                skipped += last_seed - seed + 1;
                break;
            }
            let perturbed = left_justify_seeded(program, deps, matrix, &best, seed);
            let (candidate, ils_skipped) =
                compact_to_bound_fueled(program, deps, matrix, perturbed, 8, bound, fuel, cancel)?;
            skipped += ils_skipped;
            if candidate.length() < best.length() {
                best = candidate;
            }
            if good_enough(&best) {
                break;
            }
        }
    }
    let degradation = (skipped > 0).then_some(Degradation {
        stage: "schedule",
        spent: fuel.used(),
        action: DegradeAction::SearchTruncated { skipped },
    });
    match budget {
        Some(b) if best.length() > b => {
            if degradation.is_some() {
                Err(SchedError::FuelExhausted {
                    spent: fuel.used(),
                    budget: b,
                })
            } else {
                Err(SchedError::BudgetExceeded {
                    budget: b,
                    unplaced: 0,
                })
            }
        }
        _ => Ok(FueledSchedule {
            schedule: best,
            bound,
            degradation,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::{list_schedule, ListConfig};
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

    #[test]
    fn justification_never_lengthens() {
        let p = chains(6);
        let deps = DependenceGraph::build(&p).unwrap();
        let matrix = ConflictMatrix::build(&p);
        let s = list_schedule(&p, &deps, &ListConfig::default()).unwrap();
        let len = s.length();
        let right = right_justify(&p, &deps, &matrix, &s, len);
        right.verify(&p, &deps).unwrap();
        assert!(right.length() <= len);
        let left = left_justify(&p, &deps, &matrix, &right);
        left.verify(&p, &deps).unwrap();
        assert!(left.length() <= right.length());
    }

    #[test]
    fn compact_improves_a_bad_schedule() {
        // Deliberately pessimal: one RT per cycle.
        let p = chains(4);
        let deps = DependenceGraph::build(&p).unwrap();
        let matrix = ConflictMatrix::build(&p);
        let bad = crate::baseline::sequential_schedule(&p, &deps);
        let good = compact(&p, &deps, &matrix, bad.clone(), 16);
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
        let s = schedule_and_compact(&p, &deps, Some(8), 4).unwrap();
        s.verify(&p, &deps).unwrap();
        assert!(s.length() <= 8);
    }

    #[test]
    fn budget_failure_reported_after_compaction() {
        let p = chains(5);
        let deps = DependenceGraph::build(&p).unwrap();
        let err = schedule_and_compact(&p, &deps, Some(3), 2).unwrap_err();
        assert!(matches!(err, SchedError::BudgetExceeded { budget: 3, .. }));
    }

    #[test]
    fn empty_program_compacts() {
        let p = Program::new();
        let deps = DependenceGraph::build(&p).unwrap();
        let s = schedule_and_compact(&p, &deps, None, 1).unwrap();
        assert_eq!(s.length(), 0);
    }
}
