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
//!
//! # Performance notes
//!
//! Justification runs dozens of times per search, so its passes work on
//! issue arrays (`&[u32]`, one cycle per RT) and write into buffers
//! that every pass of one [`Search::new`] or one answer's advance
//! reuses. A pass orders the RTs with a counting sort by cycle, takes its
//! next RT as the lowest set bit of a ready bitset over order positions,
//! and updates each RT's latest or earliest start as its neighbours are
//! placed: `O(n + edges)` bookkeeping around the probes. Feasibility is one row-AND per probed cycle against per-cycle
//! occupancy bitsets ([`ConflictMatrix::fits_mask`]). A [`Schedule`] is
//! built only for a result the search keeps.

use std::sync::Arc;

use dspcc_ir::{Program, RtId};

use crate::bounds::length_lower_bound;
use crate::deps::DependenceGraph;
use crate::fuel::{CancelToken, Degradation, DegradeAction, Fuel};
use crate::list::{best_effort_bounded, jitter, schedule_of};
use crate::schedule::{ConflictMatrix, SchedError, Schedule};
use crate::Scheduled;

/// The state of one justification pass.
#[derive(Debug, Default)]
struct Pass {
    /// RTs in the pass's processing order.
    order: Vec<u32>,
    /// Each RT's position in `order`.
    position: Vec<u32>,
    /// Counting-sort buckets, one per cycle.
    buckets: Vec<u32>,
    /// Perturbed sort keys with their RT ids.
    keyed: Vec<((i64, i64), u32)>,
    /// Per RT: neighbours not placed yet, successors in a right pass and
    /// predecessors in a left pass.
    waiting: Vec<u32>,
    /// Per RT: the latest start its placed successors allow (right pass)
    /// or the earliest its placed predecessors allow (left pass).
    start: Vec<u32>,
    /// Order positions whose RT has every neighbour placed, a bitset.
    ready: Vec<u64>,
    /// Per-cycle occupancy bitsets, `words_per_row` words per cycle.
    occ: Vec<u64>,
    /// Per conflict-row-class probe hints (left pass).
    hints: Vec<u32>,
}

impl Pass {
    /// Orders the RTs by `issue` cycle, ties by RT id, latest cycle first
    /// when `descending`: a counting sort.
    fn sort_by_cycle(&mut self, issue: &[u32], descending: bool) {
        let len = issue.iter().max().map_or(0, |&t| t as usize + 1);
        let bucket = |t: u32| {
            if descending {
                len - 1 - t as usize
            } else {
                t as usize
            }
        };
        self.buckets.clear();
        self.buckets.resize(len + 1, 0);
        for &t in issue {
            self.buckets[bucket(t) + 1] += 1;
        }
        for b in 1..=len {
            self.buckets[b] += self.buckets[b - 1];
        }
        self.order.clear();
        self.order.resize(issue.len(), 0);
        for (i, &t) in issue.iter().enumerate() {
            let slot = &mut self.buckets[bucket(t)];
            self.order[*slot as usize] = i as u32;
            *slot += 1;
        }
    }

    /// Orders the RTs by `issue` cycle nudged by ±2 cycles, ties by a
    /// second hash and then by RT id: the perturbed order of the iterated
    /// local search. Each RT's two hashes are computed once.
    fn sort_perturbed(&mut self, issue: &[u32], seed: u64) {
        self.keyed.clear();
        self.keyed.extend(issue.iter().enumerate().map(|(i, &t)| {
            let j = (jitter(i, seed) % 5) as i64 - 2;
            ((t as i64 + j, jitter(i, seed ^ 0xABCD) as i64), i as u32)
        }));
        self.keyed.sort_unstable();
        self.order.clear();
        self.order.extend(self.keyed.iter().map(|&(_, i)| i));
    }

    /// Fills `position` from `order`, `waiting` with `count(rt)` and
    /// `start` with `initial`, and marks the RTs with nothing to wait for
    /// ready.
    fn prepare(&mut self, count: impl Fn(RtId) -> usize, initial: u32) {
        let n = self.order.len();
        self.position.clear();
        self.position.resize(n, 0);
        for (k, &i) in self.order.iter().enumerate() {
            self.position[i as usize] = k as u32;
        }
        self.waiting.clear();
        self.waiting
            .extend((0..n).map(|i| count(RtId(i as u32)) as u32));
        self.start.clear();
        self.start.resize(n, initial);
        self.ready.clear();
        self.ready.resize(n.div_ceil(64), 0);
        for (k, &i) in self.order.iter().enumerate() {
            if self.waiting[i as usize] == 0 {
                self.ready[k / 64] |= 1 << (k % 64);
            }
        }
    }

    /// Takes the first RT in order whose neighbours are all placed: the
    /// lowest set bit of `ready`.
    fn next_ready(&mut self) -> usize {
        let w = self
            .ready
            .iter()
            .position(|&w| w != 0)
            .expect("acyclic graph always has a ready RT");
        let bits = self.ready[w];
        self.ready[w] = bits & (bits - 1);
        self.order[w * 64 + bits.trailing_zeros() as usize] as usize
    }

    /// Notes that a neighbour of `rt` was placed, and marks `rt` ready
    /// when it was the last.
    fn release(&mut self, rt: usize) {
        self.waiting[rt] -= 1;
        if self.waiting[rt] == 0 {
            let k = self.position[rt] as usize;
            self.ready[k / 64] |= 1 << (k % 64);
        }
    }
}

/// The buffers every justification pass of one [`Search::new`] or one
/// answer's advance reuses: the pass state, the schedule under
/// compaction, and what its right and left passes leave. They stay out of
/// the [`Search`], so a cancelled advance changes nothing the search
/// keeps.
#[derive(Debug, Default)]
struct Buffers {
    pass: Pass,
    current: Vec<u32>,
    right: Vec<u32>,
    left: Vec<u32>,
}

/// One right-justification pass: every RT of the complete schedule
/// `issue` moves to its latest feasible cycle < `deadline`, processed in
/// decreasing issue order, and `out` receives the new issue cycles. Each
/// step takes the first RT in that order whose successors are all
/// placed: a separation-0 edge lets a successor share its predecessor's
/// cycle, and such a successor may come later in the order.
fn right_justify(
    deps: &DependenceGraph,
    matrix: &ConflictMatrix,
    issue: &[u32],
    deadline: u32,
    pass: &mut Pass,
    out: &mut Vec<u32>,
) {
    let n = issue.len();
    let words = matrix.words_per_row();
    pass.sort_by_cycle(issue, true);
    pass.prepare(|rt| deps.successors(rt).count(), deadline - 1);
    pass.occ.clear();
    pass.occ.resize(deadline as usize * words, 0);
    out.clear();
    out.resize(n, 0);
    for _ in 0..n {
        let i = pass.next_ready();
        let id = RtId(i as u32);
        let mut t = pass.start[i];
        loop {
            let base = t as usize * words;
            if matrix.fits_mask(id, &pass.occ[base..base + words]) {
                pass.occ[base + i / 64] |= 1 << (i % 64);
                break;
            }
            assert!(t > 0, "right justification cannot fail below the original");
            t -= 1;
        }
        out[i] = t;
        for (pred, lat) in deps.predecessors(id) {
            let p = pred.0 as usize;
            pass.start[p] = pass.start[p].min(t.saturating_sub(lat));
            pass.release(p);
        }
    }
}

/// One left-justification pass: every RT of the complete schedule
/// `issue` moves to its earliest feasible cycle, processed in increasing
/// issue order, and `out` receives the new issue cycles. Returns their
/// length. A nonzero `seed` perturbs that order deterministically — the
/// escape mechanism of the iterated local search in [`Search`]. Each
/// step takes the first RT in order whose predecessors are all placed, so
/// a perturbed order that does not respect dependences still yields a
/// valid schedule.
fn left_justify(
    deps: &DependenceGraph,
    matrix: &ConflictMatrix,
    issue: &[u32],
    seed: u64,
    pass: &mut Pass,
    out: &mut Vec<u32>,
) -> u32 {
    let n = issue.len();
    let words = matrix.words_per_row();
    if seed == 0 {
        pass.sort_by_cycle(issue, false);
    } else {
        pass.sort_perturbed(issue, seed);
    }
    pass.prepare(|rt| deps.predecessors(rt).count(), 0);
    pass.occ.clear();
    // Per conflict-row-class probe hints: cycles below a class's hint
    // already failed `fits_mask` for an identical row this pass, and
    // occupancy only grows — skipping them cannot change the result.
    pass.hints.clear();
    pass.hints.resize(matrix.class_count(), 0);
    out.clear();
    out.resize(n, 0);
    let mut length = 0;
    for _ in 0..n {
        let i = pass.next_ready();
        let id = RtId(i as u32);
        let earliest = pass.start[i];
        let class = matrix.row_class(id) as usize;
        let contiguous = pass.hints[class] >= earliest;
        let mut t = earliest.max(pass.hints[class]);
        loop {
            let base = t as usize * words;
            if pass.occ.len() < base + words {
                pass.occ.resize(base + words, 0);
            }
            if matrix.fits_mask(id, &pass.occ[base..base + words]) {
                pass.occ[base + i / 64] |= 1 << (i % 64);
                if contiguous {
                    pass.hints[class] = t;
                }
                break;
            }
            t += 1;
        }
        out[i] = t;
        length = length.max(t + 1);
        for (succ, lat) in deps.successors(id) {
            let s = succ.0 as usize;
            pass.start[s] = pass.start[s].max(t + lat);
            pass.release(s);
        }
    }
    length
}

/// Alternates right and left justification on `buf.current`, a complete
/// schedule of length `len`, until the length stops improving, reaches
/// `bound` (a provable lower bound — see [`crate::bounds`] — below which
/// no round can improve anything) or `max_rounds` ran, leaving the
/// shortest schedule in `buf.current`. One [`Fuel`] unit pays for a
/// round *before* it runs (rounds are atomic: paid-for work always
/// completes). Exhaustion keeps the shortest schedule so far and counts
/// the rounds skipped; compaction only ever shortens, so a truncated run
/// is still valid. Returns the length and the skipped rounds. `cancel`
/// is polled per round.
///
/// # Errors
///
/// [`SchedError::Cancelled`] when the token is raised mid-compaction.
#[allow(clippy::too_many_arguments)]
fn compact(
    deps: &DependenceGraph,
    matrix: &ConflictMatrix,
    mut len: u32,
    max_rounds: u32,
    bound: u32,
    fuel: &mut Fuel,
    cancel: Option<&CancelToken>,
    buf: &mut Buffers,
) -> Result<(u32, u64), SchedError> {
    for round in 0..max_rounds {
        if len == 0 || len <= bound {
            break;
        }
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return Err(SchedError::Cancelled);
        }
        if !fuel.try_charge(1) {
            return Ok((len, (max_rounds - round) as u64));
        }
        right_justify(
            deps,
            matrix,
            &buf.current,
            len,
            &mut buf.pass,
            &mut buf.right,
        );
        let left = left_justify(deps, matrix, &buf.right, 0, &mut buf.pass, &mut buf.left);
        // Stop on stagnation.
        if left >= len {
            break;
        }
        std::mem::swap(&mut buf.current, &mut buf.left);
        len = left;
    }
    Ok((len, 0))
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
/// [`crate::schedule`] returns for that budget. The search keeps the
/// best schedule's issue cycles for the next perturbation; a
/// [`Schedule`] is built only for a result it keeps.
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
    /// The best schedule's issue cycles, which the next seed perturbs.
    best_issue: Vec<u32>,
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
        let (built, construct_skipped) =
            best_effort_bounded(program, deps, matrix, restarts, bound, &mut fuel, cancel)?;
        let mut buf = Buffers {
            current: built.issue,
            ..Buffers::default()
        };
        let (len, compact_skipped) = compact(
            deps,
            matrix,
            built.length,
            32,
            bound,
            &mut fuel,
            cancel,
            &mut buf,
        )?;
        // A compaction that shortens the construction lists each cycle's
        // RTs by id; otherwise the construction keeps its own order.
        let placed: &[usize] = if len < built.length {
            &[]
        } else {
            &built.placed
        };
        let current = Stop {
            schedule: Arc::new(schedule_of(&buf.current, placed)),
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
            best_issue: buf.current,
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
        debug_assert_eq!(program.rt_count(), self.best_issue.len());
        let bound = self.bound;
        self.stop(deps, matrix, budget, cancel)?
            .verdict(bound, budget)
    }

    /// Where a one-shot run stops under `budget`: the first stored
    /// improvement good enough for it, extending the local search until
    /// one is or the search ends; then the best schedule with the final
    /// state.
    fn stop(
        &mut self,
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
        let mut buf = Buffers::default();
        while self.next_seed <= self.last_seed {
            if self.advance(deps, matrix, cancel, &mut buf)? && good_enough(&self.current) {
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
        deps: &DependenceGraph,
        matrix: &ConflictMatrix,
        cancel: Option<&CancelToken>,
        buf: &mut Buffers,
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
        let seed = self.next_seed;
        let perturbed = left_justify(
            deps,
            matrix,
            &self.best_issue,
            seed,
            &mut buf.pass,
            &mut buf.current,
        );
        let (len, skipped) = compact(
            deps, matrix, perturbed, 8, self.bound, &mut fuel, cancel, buf,
        )?;
        let improved = len < self.current.schedule.length();
        self.next_seed += 1;
        self.current.skipped += skipped;
        self.current.fuel = fuel;
        if improved {
            std::mem::swap(&mut self.best_issue, &mut buf.current);
            self.current.schedule = Arc::new(schedule_of(&self.best_issue, &[]));
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
        .stop(deps, matrix, budget, cancel)?;
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

    /// The issue cycles of a complete schedule.
    fn issue_of(s: &Schedule, n: usize) -> Vec<u32> {
        s.issue_cycles(n).into_iter().map(Option::unwrap).collect()
    }

    #[test]
    fn justification_never_lengthens() {
        let p = chains(6);
        let deps = DependenceGraph::build(&p).unwrap();
        let matrix = ConflictMatrix::build(&p);
        let s = list_pass(&p, &deps, &matrix, None, Priority::Slack).unwrap();
        let len = s.length();
        let mut pass = Pass::default();
        let (mut right, mut left) = (Vec::new(), Vec::new());
        let issue = issue_of(&s, p.rt_count());
        right_justify(&deps, &matrix, &issue, len, &mut pass, &mut right);
        let right_schedule = schedule_of(&right, &[]);
        right_schedule.verify(&p, &deps).unwrap();
        assert!(right_schedule.length() <= len);
        let left_len = left_justify(&deps, &matrix, &right, 0, &mut pass, &mut left);
        let left_schedule = schedule_of(&left, &[]);
        left_schedule.verify(&p, &deps).unwrap();
        assert_eq!(left_len, left_schedule.length());
        assert!(left_len <= right_schedule.length());
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
        let mut right = Vec::new();
        right_justify(
            &deps,
            &matrix,
            &[0, 0, 1],
            2,
            &mut Pass::default(),
            &mut right,
        );
        schedule_of(&right, &[]).verify(&p, &deps).unwrap();
        assert_eq!(right, [0, 0, 1]);
    }

    #[test]
    fn compact_improves_a_bad_schedule() {
        // Deliberately pessimal: one RT per cycle.
        let p = chains(4);
        let deps = DependenceGraph::build(&p).unwrap();
        let matrix = ConflictMatrix::build(&p);
        let bad = crate::baseline::sequential_schedule(&p, &deps);
        let mut buf = Buffers {
            current: issue_of(&bad, p.rt_count()),
            ..Buffers::default()
        };
        let mut fuel = Fuel::unlimited();
        let (len, skipped) = compact(
            &deps,
            &matrix,
            bad.length(),
            16,
            0,
            &mut fuel,
            None,
            &mut buf,
        )
        .unwrap();
        assert_eq!(skipped, 0);
        let good = schedule_of(&buf.current, &[]);
        good.verify(&p, &deps).unwrap();
        assert_eq!(len, good.length());
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
