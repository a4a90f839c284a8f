//! Priority-based construction passes under a cycle budget, and the
//! restart engine that runs them.
//!
//! Three passes build a schedule from scratch. List scheduling packs
//! ready RTs into the current instruction cycle by cycle, most urgent
//! first; insertion scheduling places RTs one at a time into their
//! earliest feasible cycle; backward insertion does the same on the
//! time-mirrored graph. Thanks to the RT-modification step, "ready and
//! pairwise compatible" is the *complete* legality condition — datapath
//! and instruction set are both encoded in the usage maps. The passes are
//! reached through [`crate::schedule()`]: [`crate::Scheduler::List`] runs
//! one list pass, [`crate::Scheduler::Compacting`] the restart engine
//! over all three.
//!
//! # Performance notes
//!
//! The innermost operation — "does RT r fit the instruction under
//! construction?" — is answered by ANDing r's packed conflict row against a
//! per-cycle **occupancy bitset** ([`ConflictMatrix::fits_mask`]): one
//! word-parallel pass instead of a loop over the cycle's RTs. ASAP times,
//! successor depths and the critical path come stored with the
//! [`DependenceGraph`], the distinct-usage count with the
//! [`ConflictMatrix`]; what depends on the budget (ALAP and sink
//! deadlines) is derived once per run and shared across all restarts.
//! Backward attempts read a mirrored [`View`] of the same graph, so no
//! attempt copies it. Attempts fill one reused scratch with issue cycles
//! and report a length; only the winner becomes a [`Schedule`], and only
//! when the caller keeps it. Every attempt after the first runs against
//! the best length so far and gives up the moment a placed RT's issue
//! cycle plus its successor depth shows that it cannot get below it.

use dspcc_ir::{Program, RtId};

use crate::deps::{DependenceGraph, View};
use crate::fuel::{CancelToken, Fuel};
use crate::schedule::{ConflictMatrix, SchedError, Schedule};

/// Priority function for choosing among ready RTs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Least slack (ALAP − ASAP) first, then deepest successor chain —
    /// the strongest heuristic for tight budgets.
    #[default]
    Slack,
    /// Earliest deadline (ALAP) first, then deepest successor chain —
    /// saturates pipelined resource chains well.
    Alap,
    /// Deadline of the most urgent transitive *sink* first, then own
    /// deadline. Keeps whole dependence "lanes" together: all feeders of
    /// an urgent output chain go before any feeder of a later one, which
    /// is what lets uniform DSP time-loops finish lanes in deadline order
    /// instead of finishing everything at once.
    SinkAlap,
    /// Deepest successor chain (critical path) first.
    CriticalPath,
    /// Program (source) order — the weakest baseline.
    SourceOrder,
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Priority::Slack => "slack",
            Priority::Alap => "alap",
            Priority::SinkAlap => "sink-alap",
            Priority::CriticalPath => "critical-path",
            Priority::SourceOrder => "source-order",
        })
    }
}

/// One construction attempt's settings.
#[derive(Debug, Clone, Default)]
struct ListConfig {
    /// Hard cycle budget of a list pass ([`crate::Scheduler::List`]);
    /// `None` schedules without a deadline. The restart engine sets none.
    budget: Option<u32>,
    /// The length to beat, once the restart engine has a schedule: an
    /// RT issued at `t` ends every completion no earlier than `t` plus
    /// its successor depth plus 1, so the attempt gives up as soon as a
    /// placed RT reaches the cutoff that way (a tie loses too).
    cutoff: Option<u32>,
    /// Priority function.
    priority: Priority,
    /// Deterministic tie-break perturbation; 0 is unperturbed. Randomised
    /// restarts over a handful of seeds recover most of the gap between
    /// one greedy pass and an exact schedule (see [`best_effort_bounded`]).
    jitter_seed: u64,
}

/// Priority data shared by every restart of a scheduling run: ALAP
/// windows and lane (sink) deadlines, computed **once** per
/// `(graph view, matrix, budget)` instead of per attempt. ASAP times and
/// successor depths need no budget and are read from the view directly.
#[derive(Debug, Clone)]
struct ScheduleContext {
    alap: Vec<u32>,
    sink: Vec<u32>,
    horizon: u32,
}

impl ScheduleContext {
    /// Computes the context for scheduling the program behind `graph` and
    /// `matrix` under `budget`, from the values both stored at build.
    fn build(matrix: &ConflictMatrix, graph: View<'_>, budget: Option<u32>) -> Self {
        let critical = graph.critical_path() + 1;
        // Without a budget the horizon is the serial bound: every RT in
        // its own cycle after its predecessors.
        let horizon = budget.unwrap_or(graph.rt_count() as u32 + critical);
        // Deadlines for the *priority* functions are computed against a
        // tight target — the best conceivable schedule: the budget, the
        // critical path or the busiest resource's distinct usages,
        // whichever is largest — regardless of the actual budget; loose
        // deadlines make every priority meaningless.
        let target = budget
            .unwrap_or(0)
            .max(critical)
            .max(matrix.distinct_usages());
        let alap = graph.alap(target);
        let sink = sink_alaps(graph, &alap);
        ScheduleContext {
            alap,
            sink,
            horizon,
        }
    }
}

/// A priority key: one tuple comparison orders two RTs completely.
type Key = (i64, i64, i64, i64);

/// Reusable buffers for the scheduler inner loops. One instance serves any
/// number of attempts (sizes are re-established per attempt); restarts in
/// [`best_effort_bounded`] share a single scratch.
///
/// An attempt leaves its result here: `issue`, and for list scheduling
/// `placed`, which fixes the order of RTs within a cycle.
#[derive(Debug, Default)]
struct SchedScratch {
    /// Priority key per RT for the current attempt.
    keys: Vec<Key>,
    /// Issue cycle per RT ([`UNPLACED`] until placed).
    issue: Vec<u32>,
    /// RTs in placement order (list scheduling). Empty after an insertion
    /// attempt, whose cycles list their RTs by id.
    placed: Vec<usize>,
    /// Unscheduled-predecessor counts.
    remaining_preds: Vec<usize>,
    /// Earliest feasible cycle per RT (ASAP ∨ pred issue + latency).
    earliest: Vec<u32>,
    /// Ready min-heap keyed by `(priority key, RT id)` (insertion
    /// scheduling): popping the most urgent ready RT is `O(log ready)`
    /// instead of a linear scan.
    heap: std::collections::BinaryHeap<std::cmp::Reverse<(Key, usize)>>,
    /// Sorted candidate pool `(priority key, RT id)` (list scheduling),
    /// maintained incrementally across cycles instead of being re-filtered
    /// and re-sorted from all RTs every cycle.
    pool: Vec<(Key, usize)>,
    /// RTs whose last predecessor issued this cycle (list scheduling).
    arrivals: Vec<usize>,
    /// Per-cycle occupancy bitsets, `words_per_row` words per cycle
    /// (insertion scheduling).
    cycle_occ: Vec<u64>,
    /// Single-cycle occupancy bitset (list scheduling).
    occ: Vec<u64>,
    /// Per conflict-row-class probe hints (insertion scheduling): all
    /// cycles below `hints[class]` are proven infeasible for every RT of
    /// that class in the current attempt (occupancy only grows, so a
    /// failed `fits_mask` stays failed).
    hints: Vec<u32>,
}

impl SchedScratch {
    /// Fills `keys` for this attempt's priority function and jitter seed.
    fn compute_keys(&mut self, graph: View<'_>, ctx: &ScheduleContext, config: &ListConfig) {
        let (asap, depth) = (graph.asap(), graph.depths());
        let n = asap.len();
        self.keys.clear();
        self.keys.reserve(n);
        for rt in 0..n {
            let tie = if config.jitter_seed == 0 {
                rt as i64
            } else {
                (jitter(rt, config.jitter_seed) & 0xFFFF) as i64
            };
            let (asap, alap) = (asap[rt] as i64, ctx.alap[rt] as i64);
            let depth = depth[rt] as i64;
            self.keys.push(match config.priority {
                Priority::Slack => (alap - asap, -depth, tie, 0),
                Priority::Alap => (alap, -depth, tie, 0),
                Priority::SinkAlap => (ctx.sink[rt] as i64, alap, -depth, tie),
                Priority::CriticalPath => (-depth, alap, tie, 0),
                Priority::SourceOrder => (rt as i64, 0, 0, 0),
            });
        }
    }

    /// The schedule of the last attempt.
    fn schedule(&self) -> Schedule {
        schedule_of(&self.issue, &self.placed)
    }

    /// Moves the last attempt's placement out, leaving the buffers empty.
    fn take(&mut self, length: u32) -> Construction {
        Construction {
            issue: std::mem::take(&mut self.issue),
            placed: std::mem::take(&mut self.placed),
            length,
        }
    }
}

/// The issue cycle of an RT not placed yet.
const UNPLACED: u32 = u32::MAX;

/// Builds a schedule from complete issue cycles, listing each cycle's
/// RTs in `placed` order, or by RT id when `placed` is empty.
pub(crate) fn schedule_of(issue: &[u32], placed: &[usize]) -> Schedule {
    debug_assert!(!issue.contains(&UNPLACED), "every RT placed");
    let mut schedule = Schedule::new();
    if placed.is_empty() {
        for (i, &t) in issue.iter().enumerate() {
            schedule.place(RtId(i as u32), t);
        }
    } else {
        for &i in placed {
            schedule.place(RtId(i as u32), issue[i]);
        }
    }
    schedule
}

/// The restart engine's winner: its issue cycles, its placement order
/// (empty unless list scheduling won) and its length.
#[derive(Debug)]
pub(crate) struct Construction {
    pub(crate) issue: Vec<u32>,
    pub(crate) placed: Vec<usize>,
    pub(crate) length: u32,
}

/// The three construction algorithms tried per `(priority, seed)` pair.
#[derive(Debug, Clone, Copy)]
enum Algo {
    Insertion,
    Backward,
    List,
}

const ATTEMPT_PRIORITIES: [Priority; 4] = [
    Priority::SinkAlap,
    Priority::Slack,
    Priority::Alap,
    Priority::CriticalPath,
];
const ATTEMPT_ALGOS: [Algo; 3] = [Algo::Insertion, Algo::Backward, Algo::List];

/// A construction pass: fills `scratch` with its placement and returns
/// the schedule length.
type Attempt = fn(
    &Program,
    View<'_>,
    &ConflictMatrix,
    &ListConfig,
    &ScheduleContext,
    &mut SchedScratch,
) -> Result<u32, SchedError>;

/// Everything one restart attempt needs, built once per run.
struct AttemptSet<'a> {
    program: &'a Program,
    forward: View<'a>,
    mirror: View<'a>,
    matrix: &'a ConflictMatrix,
    ctx: ScheduleContext,
    ctx_rev: ScheduleContext,
}

impl AttemptSet<'_> {
    /// Runs one `(priority, jitter seed, algorithm)` attempt, leaving its
    /// placement in `scratch` and returning its length.
    fn run(
        &self,
        &(priority, seed, algo): &(Priority, u64, Algo),
        scratch: &mut SchedScratch,
        cutoff: Option<u32>,
    ) -> Result<u32, SchedError> {
        let config = ListConfig {
            budget: None,
            cutoff,
            priority,
            jitter_seed: seed,
        };
        let (attempt, graph, ctx): (Attempt, _, _) = match algo {
            Algo::Insertion => (insertion_attempt, self.forward, &self.ctx),
            Algo::Backward => (backward_attempt, self.mirror, &self.ctx_rev),
            Algo::List => (list_attempt, self.forward, &self.ctx),
        };
        attempt(self.program, graph, self.matrix, &config, ctx, scratch)
    }
}

/// The restart engine: runs list, insertion and backward insertion
/// scheduling over several priorities and jitter seeds and keeps the
/// shortest schedule. `restarts` counts jittered rounds per priority
/// (beyond the unjittered one). Attempts form a fixed enumeration of
/// `(priority, jitter seed, algorithm)` triples, grouped into **rounds**:
/// round 0 holds the 12 unjittered attempts (4 priorities × 3
/// algorithms), every later round holds the 3 algorithm attempts of one
/// `(priority, jittered seed)` pair. Every attempt runs on the calling
/// thread, in enumeration order, and the winner is the shortest schedule
/// (the earliest attempt on a tie). Attempts only fill the shared scratch;
/// the engine keeps the best attempt's issue cycles (and placement order)
/// and returns them as a [`Construction`]. Three rules bound the work:
///
/// * **Bound cutoff** — the moment an attempt meets the provable length
///   lower bound ([`crate::bounds`]) the engine returns it: nothing can
///   beat it.
/// * **Serial cutoff** — every attempt after the first successful one
///   runs against the best length so far and gives up once a placed RT's
///   issue cycle plus its successor depth (in the graph the attempt runs
///   on: the mirror's for a backward attempt) plus 1 reaches it. Every
///   completion is at least that long and a tie loses, so a given-up
///   attempt would have lost: its schedule and its error are never
///   read, and the winner is the same as without the cutoff.
/// * **Stagnation** — once at least one schedule exists, any jittered
///   round that fails to improve the best length abandons the remaining
///   rounds: the unjittered roster already ran, and one fruitless jitter
///   round is the evidence that tie-break noise is not what this program
///   needs. (This is the stopping rule the old "always burn every seed"
///   loop lacked. While every attempt still fails a tight budget, all
///   rounds run — a later seed may be the first feasible one.)
///
/// Construction runs without a budget: the serial cutoff is the only
/// budget it sees. `bound` is the provable length lower bound
/// ([`crate::bounds::length_lower_bound`]), computed once by the caller.
/// `fuel` is charged one unit per attempt, at round barriers only.
/// Round 0 (the unjittered roster) is mandatory — it charges
/// saturating, so even a zero budget yields a best-effort schedule —
/// while every jittered round must pay up front or the run ends there.
/// The returned `u64` counts the attempts that were skipped because fuel
/// ran out (`0` = the search was not truncated). `cancel` is polled at
/// the same barriers; a raised token aborts with
/// [`SchedError::Cancelled`] and discards the partial result.
///
/// # Errors
///
/// [`SchedError::Cancelled`], or the error of the last failed attempt
/// when *no* attempt succeeds. The serial cutoff exists only once one
/// has, so a given-up attempt's error is never reported.
pub(crate) fn best_effort_bounded(
    program: &Program,
    deps: &DependenceGraph,
    matrix: &ConflictMatrix,
    restarts: u32,
    bound: u32,
    fuel: &mut Fuel,
    cancel: Option<&CancelToken>,
) -> Result<(Construction, u64), SchedError> {
    let (forward, mirror) = (deps.forward(), deps.mirrored());
    let set = AttemptSet {
        program,
        forward,
        mirror,
        matrix,
        ctx: ScheduleContext::build(matrix, forward, None),
        ctx_rev: ScheduleContext::build(matrix, mirror, None),
    };
    // Fixed enumeration: round 0 = all priorities × algorithms at seed 0,
    // then one (priority, seed) round of 3 algorithms per jittered seed.
    let mut attempts: Vec<(Priority, u64, Algo)> = Vec::new();
    let mut rounds: Vec<std::ops::Range<usize>> = Vec::new();
    for priority in ATTEMPT_PRIORITIES {
        for algo in ATTEMPT_ALGOS {
            attempts.push((priority, 0, algo));
        }
    }
    rounds.push(0..attempts.len());
    for seed in 1..=restarts as u64 {
        for priority in ATTEMPT_PRIORITIES {
            let start = attempts.len();
            for algo in ATTEMPT_ALGOS {
                attempts.push((priority, seed, algo));
            }
            rounds.push(start..attempts.len());
        }
    }
    // The length of the shortest attempt so far with its placement (taken
    // out of the scratch), and the error of the latest failed attempt
    // (what the run reports if no attempt succeeds).
    let mut best: Option<u32> = None;
    let (mut best_issue, mut best_placed) = (Vec::new(), Vec::new());
    let mut last_err = None;
    let mut scratch = SchedScratch::default();
    let mut skipped = 0u64;
    for (r, range) in rounds.iter().enumerate() {
        if cancel.map(CancelToken::is_cancelled).unwrap_or(false) {
            return Err(SchedError::Cancelled);
        }
        if r == 0 {
            // The baseline roster is mandatory — exhaustion must still
            // yield a schedule to degrade to.
            fuel.charge_saturating(range.len() as u64);
        } else if !fuel.try_charge(range.len() as u64) {
            skipped = (attempts.len() - range.start) as u64;
            break;
        }
        let before = best.unwrap_or(u32::MAX);
        for attempt in &attempts[range.clone()] {
            match set.run(attempt, &mut scratch, best) {
                Ok(len) if len <= bound => return Ok((scratch.take(len), 0)),
                Ok(len) => {
                    // An attempt that completes under the cutoff beats it.
                    debug_assert!(best.is_none_or(|b| len < b));
                    best = Some(len);
                    std::mem::swap(&mut best_issue, &mut scratch.issue);
                    std::mem::swap(&mut best_placed, &mut scratch.placed);
                }
                Err(e) => last_err = Some(e),
            }
        }
        // Stagnation: a jittered round that improved nothing ends the run
        // — but never before *some* schedule exists, else a budgeted call
        // would forfeit restarts that could still find a feasible one.
        if r >= 1 && best.is_some_and(|len| len >= before) {
            break;
        }
    }
    match best {
        Some(length) => {
            let construction = Construction {
                issue: best_issue,
                placed: best_placed,
                length,
            };
            Ok((construction, skipped))
        }
        None => Err(last_err.expect("round 0 always runs at least one attempt")),
    }
}

/// One insertion-scheduling attempt: RTs are placed one at a time, each
/// into the *earliest* cycle where its predecessors have delivered and no
/// placed RT conflicts. Chains then pack like bricks — each pipeline lane
/// slides in behind the previous one — which suits the steady-state
/// resource saturation of DSP time-loops far better than cycle-by-cycle
/// greediness. RTs are visited in topological order, most urgent first
/// among ready ones.
///
/// Leaves the issue cycles in `scratch` and returns the schedule length,
/// or [`SchedError::BudgetExceeded`] when an RT cannot be placed within
/// the horizon or below the cutoff.
fn insertion_attempt(
    program: &Program,
    graph: View<'_>,
    matrix: &ConflictMatrix,
    config: &ListConfig,
    ctx: &ScheduleContext,
    scratch: &mut SchedScratch,
) -> Result<u32, SchedError> {
    let n = program.rt_count();
    scratch.issue.clear();
    scratch.issue.resize(n, UNPLACED);
    scratch.placed.clear();
    if n == 0 {
        return Ok(0);
    }
    let words = matrix.words_per_row();
    scratch.compute_keys(graph, ctx, config);
    scratch.remaining_preds.clear();
    scratch
        .remaining_preds
        .extend((0..n).map(|i| graph.predecessors(RtId(i as u32)).count()));
    scratch.heap.clear();
    for i in 0..n {
        if scratch.remaining_preds[i] == 0 {
            scratch.heap.push(std::cmp::Reverse((scratch.keys[i], i)));
        }
    }
    scratch.cycle_occ.clear();

    let horizon = ctx.horizon + n as u32;
    scratch.hints.clear();
    scratch.hints.resize(matrix.class_count(), 0);
    let (asap, depth) = (graph.asap(), graph.depths());
    let mut length = 0;
    let mut unplaced = n;
    while unplaced > 0 {
        // Most urgent ready RT (ties by RT id).
        let std::cmp::Reverse((_, rt)) = scratch
            .heap
            .pop()
            .expect("acyclic graph always has a ready RT");
        let id = RtId(rt as u32);
        let mut earliest = asap[rt];
        for (pred, lat) in graph.predecessors(id) {
            earliest = earliest.max(scratch.issue[pred.0 as usize] + lat);
        }
        // Issued at `t`, the RT ends the schedule no earlier than
        // `t + depth + 1`: at the cutoff the attempt has lost.
        let limit = config
            .cutoff
            .map_or(horizon, |c| horizon.min(c.saturating_sub(depth[rt] + 1)));
        // Probe from the row-class hint when it already covers
        // `earliest`: every skipped cycle failed `fits_mask` for an RT
        // with an identical conflict row, and occupancy only grows, so
        // the outcome is the same with none of the probes.
        let class = matrix.row_class(id) as usize;
        let hint = scratch.hints[class];
        let (start, contiguous) = if hint >= earliest {
            (hint, true)
        } else {
            (earliest, false)
        };
        let mut placed = false;
        for t in start..limit {
            let base = t as usize * words;
            if scratch.cycle_occ.len() < base + words {
                scratch.cycle_occ.resize(base + words, 0);
            }
            let occ = &mut scratch.cycle_occ[base..base + words];
            if matrix.fits_mask(id, occ) {
                occ[rt / 64] |= 1 << (rt % 64);
                scratch.issue[rt] = t;
                length = length.max(t + 1);
                if contiguous {
                    scratch.hints[class] = t;
                }
                placed = true;
                break;
            }
        }
        if !placed {
            return Err(SchedError::BudgetExceeded {
                budget: limit,
                unplaced,
            });
        }
        unplaced -= 1;
        for (succ, _) in graph.successors(id) {
            let s = succ.0 as usize;
            scratch.remaining_preds[s] -= 1;
            if scratch.remaining_preds[s] == 0 {
                scratch.heap.push(std::cmp::Reverse((scratch.keys[s], s)));
            }
        }
    }
    Ok(length)
}

/// Deterministic per-RT hash for tie-break jitter (splitmix64).
pub(crate) fn jitter(rt: usize, seed: u64) -> u64 {
    let mut z = (rt as u64).wrapping_add(seed.wrapping_mul(0x9E3779B97F4A7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// One unjittered list-scheduling pass ([`crate::Scheduler::List`]).
///
/// # Errors
///
/// [`SchedError::BudgetExceeded`] if a budget is set and some RT cannot
/// be placed within it.
pub(crate) fn list_pass(
    program: &Program,
    deps: &DependenceGraph,
    matrix: &ConflictMatrix,
    budget: Option<u32>,
    priority: Priority,
) -> Result<Schedule, SchedError> {
    let config = ListConfig {
        budget,
        priority,
        ..ListConfig::default()
    };
    let graph = deps.forward();
    let ctx = ScheduleContext::build(matrix, graph, budget);
    let mut scratch = SchedScratch::default();
    list_attempt(program, graph, matrix, &config, &ctx, &mut scratch)?;
    Ok(scratch.schedule())
}

/// One list-scheduling attempt: cycle by cycle, ready RTs are packed into
/// the current instruction in priority order, most urgent first. Leaves
/// the issue cycles and the placement order in `scratch` and returns the
/// schedule length, or [`SchedError::BudgetExceeded`] when the budget
/// runs out or a placement reaches the cutoff.
fn list_attempt(
    program: &Program,
    graph: View<'_>,
    matrix: &ConflictMatrix,
    config: &ListConfig,
    ctx: &ScheduleContext,
    scratch: &mut SchedScratch,
) -> Result<u32, SchedError> {
    let n = program.rt_count();
    scratch.issue.clear();
    scratch.issue.resize(n, UNPLACED);
    scratch.placed.clear();
    if n == 0 {
        return Ok(0);
    }
    let words = matrix.words_per_row();
    scratch.compute_keys(graph, ctx, config);
    scratch.remaining_preds.clear();
    scratch
        .remaining_preds
        .extend((0..n).map(|i| graph.predecessors(RtId(i as u32)).count()));
    // earliest[rt]: max over scheduled preds of issue+latency, and asap.
    scratch.earliest.clear();
    scratch.earliest.extend_from_slice(graph.asap());
    let depth = graph.depths();
    scratch.occ.clear();
    scratch.occ.resize(words, 0);
    // Candidate pool: RTs whose predecessors have all issued, sorted by
    // `(priority key, RT id)` and maintained incrementally — the per-cycle
    // work is proportional to the pool, not to the whole program.
    scratch.pool.clear();
    for i in 0..n {
        if scratch.remaining_preds[i] == 0 {
            scratch.pool.push((scratch.keys[i], i));
        }
    }
    scratch.pool.sort_unstable();
    scratch.arrivals.clear();

    let mut unscheduled = n;
    let mut t: u32 = 0;
    while unscheduled > 0 {
        if let Some(budget) = config.budget {
            if t >= budget {
                return Err(SchedError::BudgetExceeded {
                    budget,
                    unplaced: unscheduled,
                });
            }
        }
        // Pack the instruction, most urgent candidate first (candidates
        // whose latency window is still open wait in the pool): occupancy
        // bitset makes each fit check one row-AND.
        scratch.occ.fill(0);
        let mut placed_any = false;
        for pi in 0..scratch.pool.len() {
            let (_, i) = scratch.pool[pi];
            if scratch.earliest[i] > t {
                continue;
            }
            let rt = RtId(i as u32);
            if matrix.fits_mask(rt, &scratch.occ) {
                if let Some(cutoff) = config.cutoff.filter(|&c| t + depth[i] + 1 >= c) {
                    // Every completion is at least `t + depth + 1` long.
                    return Err(SchedError::BudgetExceeded {
                        budget: cutoff,
                        unplaced: unscheduled,
                    });
                }
                scratch.occ[i / 64] |= 1 << (i % 64);
                scratch.issue[i] = t;
                scratch.placed.push(i);
                placed_any = true;
                unscheduled -= 1;
                for (succ, lat) in graph.successors(rt) {
                    let s = succ.0 as usize;
                    scratch.remaining_preds[s] -= 1;
                    scratch.earliest[s] = scratch.earliest[s].max(t + lat);
                    if scratch.remaining_preds[s] == 0 {
                        scratch.arrivals.push(s);
                    }
                }
            }
        }
        if placed_any {
            let issue = &scratch.issue;
            scratch.pool.retain(|&(_, i)| issue[i] == UNPLACED);
        }
        // RTs released this cycle join the pool for the *next* cycle (a
        // zero-separation successor still cannot issue in the cycle that
        // freed it, exactly as with the per-cycle ready re-scan).
        for k in 0..scratch.arrivals.len() {
            let s = scratch.arrivals[k];
            let entry = (scratch.keys[s], s);
            let pos = scratch.pool.partition_point(|&e| e < entry);
            scratch.pool.insert(pos, entry);
        }
        scratch.arrivals.clear();
        t += 1;
        // Safety valve: without a budget the loop must still terminate.
        if t > ctx.horizon + n as u32 + 8 {
            return Err(SchedError::Dependences(
                "scheduler failed to make progress".to_owned(),
            ));
        }
    }
    // The last placement ended the loop in cycle t − 1.
    Ok(t)
}

/// One backward insertion attempt: an insertion attempt on the
/// time-mirrored view of the dependence graph, its issue cycles flipped
/// in place (`t ← L−1−t`, the length `L` kept), so every RT lands at its
/// *latest* feasible cycle. Complements forward insertion on programs
/// whose sinks (output writes, stores) crowd the end of the time-loop.
fn backward_attempt(
    program: &Program,
    mirror: View<'_>,
    matrix: &ConflictMatrix,
    config: &ListConfig,
    ctx_rev: &ScheduleContext,
    scratch: &mut SchedScratch,
) -> Result<u32, SchedError> {
    let len = insertion_attempt(program, mirror, matrix, config, ctx_rev, scratch)?;
    for t in &mut scratch.issue {
        *t = len - 1 - *t;
    }
    Ok(len)
}

/// ALAP of the most urgent transitive sink of each RT (the RT's own ALAP
/// for sinks) — the lane-coherent deadline of [`Priority::SinkAlap`].
fn sink_alaps(graph: View<'_>, alap: &[u32]) -> Vec<u32> {
    let mut sink = vec![u32::MAX; graph.rt_count()];
    for rt in graph.topological_order().rev() {
        let i = rt.0 as usize;
        let mut best = u32::MAX;
        for (succ, _) in graph.successors(rt) {
            best = best.min(sink[succ.0 as usize]);
        }
        sink[i] = if best == u32::MAX { alap[i] } else { best };
    }
    sink
}

/// Resource-pressure figure — for each resource, the number of usage
/// occurrences; the busiest resource's count. Identical usages may
/// legally share a cycle, so this can exceed the true optimum: no
/// scheduler reads it, and [`crate::bounds`] holds the sound bounds.
pub fn resource_lower_bound(program: &Program) -> u32 {
    use std::collections::BTreeMap;
    let mut demand: BTreeMap<&str, BTreeMap<String, usize>> = BTreeMap::new();
    for (_, rt) in program.rts() {
        for (res, usage) in rt.usages() {
            *demand
                .entry(res.name())
                .or_default()
                .entry(usage.to_string())
                .or_insert(0) += 1;
        }
    }
    // Identical usages can share one cycle only if the whole RTs are
    // identical; counting each usage occurrence separately is the safe
    // bound for distinct transfers (distinct data ⇒ distinct bus usage
    // anyway). We count occurrences, which is exact for bus-carrying
    // resources and slightly optimistic for pure-token ones.
    demand
        .values()
        .map(|usages| usages.values().sum::<usize>() as u32)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspcc_ir::{Rt, Usage};
    use proptest::prelude::*;

    /// Two independent chains const→mult→add sharing one ALU/MULT/ROM.
    fn two_chain_program() -> Program {
        let mut p = Program::new();
        for k in 0..2 {
            let vc = p.add_value(format!("c{k}"));
            let vm = p.add_value(format!("m{k}"));
            let mut c = Rt::new(format!("const{k}"));
            c.add_def(vc);
            c.add_usage("rom", Usage::token("const"));
            c.add_usage("bus_rom", Usage::apply("const", [format!("c{k}")]));
            let mut m = Rt::new(format!("mult{k}"));
            m.add_use(vc);
            m.add_def(vm);
            m.add_usage("mult", Usage::token("mult"));
            m.add_usage("bus_mult", Usage::apply("mult", [format!("m{k}")]));
            let mut a = Rt::new(format!("add{k}"));
            a.add_use(vm);
            a.add_usage("alu", Usage::token("add"));
            a.add_usage("bus_alu", Usage::apply("add", [format!("a{k}")]));
            p.add_rt(c);
            p.add_rt(m);
            p.add_rt(a);
        }
        p
    }

    /// One attempt of `pass` on `graph` with fresh context and scratch.
    fn run(
        pass: Attempt,
        p: &Program,
        graph: View<'_>,
        config: &ListConfig,
    ) -> Result<Schedule, SchedError> {
        let matrix = ConflictMatrix::build(p);
        let ctx = ScheduleContext::build(&matrix, graph, config.budget);
        let mut scratch = SchedScratch::default();
        pass(p, graph, &matrix, config, &ctx, &mut scratch)?;
        Ok(scratch.schedule())
    }

    fn schedule_ok(p: &Program, config: &ListConfig) -> Schedule {
        let deps = DependenceGraph::build(p).unwrap();
        let s = run(list_attempt, p, deps.forward(), config).unwrap();
        s.verify(p, &deps).unwrap();
        s
    }

    /// A random program: per RT a unit, a usage mode, an optional private
    /// bus usage and a latency, plus value edges from lower to higher ids.
    fn random_program(shapes: &[(usize, usize, bool, u32)], edges: &[(usize, usize)]) -> Program {
        let mut p = Program::new();
        let values: Vec<_> = (0..shapes.len())
            .map(|i| p.add_value(format!("v{i}")))
            .collect();
        let mut edges: Vec<_> = edges
            .iter()
            .filter(|&&(a, b)| a < b && b < shapes.len())
            .collect();
        edges.sort_unstable();
        edges.dedup();
        for (i, &(unit, mode, bus, latency)) in shapes.iter().enumerate() {
            let mut rt = Rt::new(format!("rt{i}"));
            rt.add_def(values[i]);
            rt.set_latency(latency);
            let unit = ["alu", "mult", "ram", "rom"][unit];
            rt.add_usage(unit, Usage::token(["a", "b", "c"][mode]));
            if bus {
                rt.add_usage("bus", Usage::apply("xfer", [format!("v{i}")]));
            }
            for &&(a, _) in edges.iter().filter(|e| e.1 == i) {
                rt.add_use(values[a]);
            }
            p.add_rt(rt);
        }
        p
    }

    /// Runs the restart engine with unlimited fuel.
    fn best_effort(p: &Program, deps: &DependenceGraph, restarts: u32) -> Schedule {
        let matrix = ConflictMatrix::build(p);
        let bound = crate::bounds::length_lower_bound(p, deps, &matrix);
        let mut fuel = Fuel::unlimited();
        let (built, _) =
            best_effort_bounded(p, deps, &matrix, restarts, bound, &mut fuel, None).unwrap();
        schedule_of(&built.issue, &built.placed)
    }

    #[test]
    fn pipelines_two_chains_in_four_cycles() {
        // chain k issues const@t, mult@t+1, add@t+2; second chain offset 1
        // because rom/mult/alu busy → total 4 cycles.
        let p = two_chain_program();
        let s = schedule_ok(&p, &ListConfig::default());
        assert_eq!(s.length(), 4);
        assert!(s.parallelism() > 1.0);
    }

    #[test]
    fn budget_met_exactly() {
        let p = two_chain_program();
        let config = ListConfig {
            budget: Some(4),
            ..ListConfig::default()
        };
        let s = schedule_ok(&p, &config);
        assert!(s.length() <= 4);
    }

    #[test]
    fn budget_too_tight_reported() {
        let p = two_chain_program();
        let deps = DependenceGraph::build(&p).unwrap();
        let config = ListConfig {
            budget: Some(3),
            ..ListConfig::default()
        };
        let err = run(list_attempt, &p, deps.forward(), &config).unwrap_err();
        match err {
            SchedError::BudgetExceeded {
                budget: 3,
                unplaced,
            } => assert!(unplaced >= 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn all_priorities_produce_valid_schedules() {
        let p = two_chain_program();
        for priority in [
            Priority::Slack,
            Priority::CriticalPath,
            Priority::SourceOrder,
        ] {
            let s = schedule_ok(
                &p,
                &ListConfig {
                    priority,
                    ..ListConfig::default()
                },
            );
            assert!(s.length() >= 4);
        }
    }

    #[test]
    fn empty_program_schedules_to_zero() {
        let p = Program::new();
        let deps = DependenceGraph::build(&p).unwrap();
        let s = run(list_attempt, &p, deps.forward(), &ListConfig::default()).unwrap();
        assert_eq!(s.length(), 0);
    }

    #[test]
    fn independent_compatible_rts_share_one_cycle() {
        let mut p = Program::new();
        for name in ["a", "b", "c"] {
            let mut rt = Rt::new(name);
            rt.add_usage(format!("opu_{name}").as_str(), Usage::token("op"));
            p.add_rt(rt);
        }
        let s = schedule_ok(&p, &ListConfig::default());
        assert_eq!(s.length(), 1);
        assert_eq!(s.instruction(0).len(), 3);
    }

    #[test]
    fn artificial_resource_serialises_classes() {
        // Two RTs on different OPUs but conflicting via an artificial
        // resource (the whole point of the paper).
        let mut p = Program::new();
        let mut a = Rt::new("a");
        a.add_usage("opu_a", Usage::token("op"));
        a.add_usage("AB", Usage::token("A"));
        let mut b = Rt::new("b");
        b.add_usage("opu_b", Usage::token("op"));
        b.add_usage("AB", Usage::token("B"));
        p.add_rt(a);
        p.add_rt(b);
        let s = schedule_ok(&p, &ListConfig::default());
        assert_eq!(s.length(), 2);
    }

    #[test]
    fn resource_lower_bound_counts_busiest_resource() {
        let p = two_chain_program();
        // rom, mult, alu each used twice (distinct data) → bound 2.
        assert_eq!(resource_lower_bound(&p), 2);
        assert_eq!(resource_lower_bound(&Program::new()), 0);
    }

    #[test]
    fn latency_respected_in_schedule() {
        let mut p = Program::new();
        let v = p.add_value("v");
        let mut producer = Rt::new("m");
        producer.set_latency(3);
        producer.add_def(v);
        producer.add_usage("mult", Usage::token("mult"));
        let mut consumer = Rt::new("a");
        consumer.add_use(v);
        consumer.add_usage("alu", Usage::token("add"));
        p.add_rt(producer);
        p.add_rt(consumer);
        let s = schedule_ok(&p, &ListConfig::default());
        assert_eq!(s.length(), 4); // issue at 0, consumer at 3
    }

    #[test]
    fn scratch_reuse_across_attempts_matches_fresh_runs() {
        // The same (program, config) must produce identical schedules
        // whether scratch/context are fresh or reused from another attempt.
        let p = two_chain_program();
        let deps = DependenceGraph::build(&p).unwrap();
        let graph = deps.forward();
        let matrix = ConflictMatrix::build(&p);
        let ctx = ScheduleContext::build(&matrix, graph, None);
        let mut scratch = SchedScratch::default();
        let config = ListConfig::default();
        list_attempt(&p, graph, &matrix, &config, &ctx, &mut scratch).unwrap();
        let first = scratch.schedule();
        // Dirty the scratch with a different attempt, then repeat.
        let other = ListConfig {
            priority: Priority::CriticalPath,
            jitter_seed: 3,
            ..ListConfig::default()
        };
        let _ = insertion_attempt(&p, graph, &matrix, &other, &ctx, &mut scratch);
        list_attempt(&p, graph, &matrix, &config, &ctx, &mut scratch).unwrap();
        assert_eq!(first, scratch.schedule());
        let fresh = run(list_attempt, &p, graph, &config).unwrap();
        assert_eq!(first, fresh);
    }

    proptest! {
        /// Forward and backward insertion scheduling give verified
        /// schedules no shorter than the provable lower bound.
        #[test]
        fn insertion_schedules_respect_the_lower_bound(
            shapes in proptest::collection::vec((0..4usize, 0..3usize, any::<bool>(), 1u32..4), 2..=24),
            edges in proptest::collection::vec((0..24usize, 0..24usize), 0..48),
        ) {
            let p = random_program(&shapes, &edges);
            let deps = DependenceGraph::build(&p).unwrap();
            let bound = crate::bounds::length_lower_bound(&p, &deps, &ConflictMatrix::build(&p));
            let config = ListConfig::default();
            let forward = run(insertion_attempt, &p, deps.forward(), &config).unwrap();
            let backward = run(backward_attempt, &p, deps.mirrored(), &config).unwrap();
            for (pass, s) in [("insertion", forward), ("backward", backward)] {
                s.verify(&p, &deps).unwrap();
                prop_assert!(bound <= s.length(), "bound {bound} > {pass} {}", s.length());
            }
        }
    }

    #[test]
    fn best_effort_beats_or_matches_single_pass() {
        let p = two_chain_program();
        let deps = DependenceGraph::build(&p).unwrap();
        let best = best_effort(&p, &deps, 2);
        best.verify(&p, &deps).unwrap();
        let single = run(list_attempt, &p, deps.forward(), &ListConfig::default()).unwrap();
        assert!(best.length() <= single.length());
    }

    #[test]
    fn bound_met_schedule_is_optimal_and_stops_early() {
        // A single const→mult→add chain: the critical-path bound (3) is
        // tight and the first insertion attempt meets it, so the engine
        // returns a provably optimal schedule (and stops there).
        let mut p = Program::new();
        let vc = p.add_value("c");
        let vm = p.add_value("m");
        let mut c = Rt::new("const");
        c.add_def(vc);
        c.add_usage("rom", Usage::token("const"));
        let mut m = Rt::new("mult");
        m.add_use(vc);
        m.add_def(vm);
        m.add_usage("mult", Usage::token("mult"));
        let mut a = Rt::new("add");
        a.add_use(vm);
        a.add_usage("alu", Usage::token("add"));
        p.add_rt(c);
        p.add_rt(m);
        p.add_rt(a);
        let deps = DependenceGraph::build(&p).unwrap();
        let matrix = ConflictMatrix::build(&p);
        let bound = crate::bounds::length_lower_bound(&p, &deps, &matrix);
        assert_eq!(bound, 3);
        let best = best_effort(&p, &deps, 4);
        assert_eq!(best.length(), bound);
    }
}
