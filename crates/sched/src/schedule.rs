//! The schedule data structure, conflict matrix, and schedule verification.

use std::fmt;

use dspcc_ir::{Program, RtId};

use crate::deps::DependenceGraph;

/// Precomputed pairwise compatibility of all RTs of a program.
///
/// Schedulers query compatibility millions of times; this packs the
/// symmetric conflict relation into a bit matrix once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictMatrix {
    n: usize,
    bits: Vec<u64>,
    /// Per row: the `(first, last+1)` span of nonzero words — conflict
    /// rows are sparse, so the scheduler's innermost `fits_mask` AND only
    /// walks the words that can possibly intersect (derived from `bits`).
    spans: Vec<(u32, u32)>,
    /// Per row: a dense class id such that two RTs share a class iff
    /// their conflict rows are identical (derived from `bits`). Within
    /// one construction pass occupancy only grows, so a cycle that
    /// failed `fits_mask` for a row stays infeasible for every RT of the
    /// same class — schedulers exploit this with per-class probe hints.
    row_class: Vec<u32>,
    /// Number of distinct row classes.
    class_count: u32,
    /// The busiest resource's number of distinct usage values — the
    /// distinct-usage lower bound on schedule length
    /// ([`crate::bounds::distinct_usage_bound`]).
    distinct_usages: u32,
}

impl ConflictMatrix {
    /// Builds the matrix from the (already modified) RTs of `program`.
    ///
    /// Two RTs conflict iff they use some shared resource with *different*
    /// usages, so the matrix is assembled **class-wise** rather than
    /// pairwise: every `(resource id, usage id, rt)` triple is collected
    /// and integer-sorted, so usage classes per resource fall out as
    /// contiguous runs — no string is hashed or compared anywhere. Each
    /// member's row then ORs in "users of this resource outside my class"
    /// with one masked word-copy — `O(Σ usages · words)` instead of
    /// `O(n²)` `compatible_with` walks, which dominated whole-pipeline
    /// profiles at a few hundred RTs. The same walk counts the usage
    /// classes of every resource, so the busiest resource's distinct-usage
    /// count comes for free.
    pub fn build(program: &Program) -> Self {
        let n = program.rt_count();
        let words = n.div_ceil(64);
        let mut bits = vec![0u64; n * words];
        // (resource id, usage id, rt) — sorted, classes are runs.
        let mut triples: Vec<(u32, u32, u32)> = Vec::new();
        for (id, rt) in program.rts() {
            for &(res, usage) in rt.usage_ids() {
                triples.push((res.id().0, usage.0, id.0));
            }
        }
        triples.sort_unstable();
        let mut all = vec![0u64; words];
        let mut class = vec![0u64; words];
        let mut distinct_usages = 0u32;
        let mut i = 0;
        while i < triples.len() {
            // One resource's run: [i, j).
            let res = triples[i].0;
            let mut j = i;
            for w in all.iter_mut() {
                *w = 0;
            }
            while j < triples.len() && triples[j].0 == res {
                let rt = triples[j].2 as usize;
                all[rt / 64] |= 1 << (rt % 64);
                j += 1;
            }
            // Usage-class sub-runs within [i, j).
            let mut usages = 0u32;
            let mut k = i;
            while k < j {
                usages += 1;
                let usage = triples[k].1;
                let mut m = k;
                for w in class.iter_mut() {
                    *w = 0;
                }
                while m < j && triples[m].1 == usage {
                    let rt = triples[m].2 as usize;
                    class[rt / 64] |= 1 << (rt % 64);
                    m += 1;
                }
                for &(_, _, rt) in &triples[k..m] {
                    let rt = rt as usize;
                    let row = &mut bits[rt * words..(rt + 1) * words];
                    for ((r, &a), &c) in row.iter_mut().zip(&all).zip(class.iter()) {
                        *r |= a & !c;
                    }
                }
                k = m;
            }
            distinct_usages = distinct_usages.max(usages);
            i = j;
        }
        Self::with_spans(n, bits, distinct_usages)
    }

    /// The retained string-keyed reference construction: per-RT usage maps
    /// keyed by resource **name** with usage **values** compared
    /// structurally, exactly as the seed implementation did before symbol
    /// interning. Quadratic and allocation-heavy — kept only so the
    /// differential property test can pin [`ConflictMatrix::build`]
    /// bit-identical to the string semantics on random programs.
    pub fn build_reference(program: &Program) -> Self {
        use std::collections::{BTreeMap, BTreeSet};
        let n = program.rt_count();
        let words = n.div_ceil(64);
        let mut bits = vec![0u64; n * words];
        let maps: Vec<BTreeMap<String, dspcc_ir::Usage>> = program
            .rts()
            .map(|(_, rt)| {
                rt.usages()
                    .map(|(r, u)| (r.name().to_owned(), u.clone()))
                    .collect()
            })
            .collect();
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let conflict = maps[i]
                    .iter()
                    .any(|(res, u)| maps[j].get(res).map(|v| v != u).unwrap_or(false));
                if conflict {
                    bits[i * words + j / 64] |= 1 << (j % 64);
                }
            }
        }
        let mut usages: BTreeMap<&str, BTreeSet<&dspcc_ir::Usage>> = BTreeMap::new();
        for map in &maps {
            for (res, u) in map {
                usages.entry(res.as_str()).or_default().insert(u);
            }
        }
        let distinct_usages = usages.values().map(|u| u.len() as u32).max().unwrap_or(0);
        Self::with_spans(n, bits, distinct_usages)
    }

    fn with_spans(n: usize, bits: Vec<u64>, distinct_usages: u32) -> Self {
        let words = n.div_ceil(64);
        let spans = (0..n)
            .map(|i| {
                let row = &bits[i * words..(i + 1) * words];
                let first = row.iter().position(|&w| w != 0).unwrap_or(0);
                let last = row.iter().rposition(|&w| w != 0).map_or(0, |p| p + 1);
                (first as u32, last as u32)
            })
            .collect();
        let (row_class, class_count) = {
            let mut classes: std::collections::HashMap<&[u64], u32> =
                std::collections::HashMap::new();
            let mut row_class = Vec::with_capacity(n);
            for i in 0..n {
                let row = &bits[i * words..(i + 1) * words];
                let next = classes.len() as u32;
                row_class.push(*classes.entry(row).or_insert(next));
            }
            (row_class, classes.len() as u32)
        };
        ConflictMatrix {
            n,
            bits,
            spans,
            row_class,
            class_count,
            distinct_usages,
        }
    }

    /// The busiest resource's number of distinct usage values: RTs whose
    /// usages of one resource differ conflict pairwise, so the schedule
    /// needs at least this many cycles.
    pub fn distinct_usages(&self) -> u32 {
        self.distinct_usages
    }

    /// The row class of `rt`: equal classes ⇔ identical conflict rows.
    pub fn row_class(&self, rt: RtId) -> u32 {
        self.row_class[rt.0 as usize]
    }

    /// Number of distinct conflict-row classes.
    pub fn class_count(&self) -> usize {
        self.class_count as usize
    }

    /// Number of RTs.
    pub fn rt_count(&self) -> usize {
        self.n
    }

    /// Number of `u64` words per conflict row (`⌈rt_count/64⌉`).
    pub fn words_per_row(&self) -> usize {
        self.n.div_ceil(64)
    }

    /// The packed conflict row of `rt`: bit `j` set iff `rt` conflicts with
    /// RT `j`. ANDing this against a cycle's occupancy bitset answers "does
    /// `rt` fit this instruction" in one word-parallel pass — the
    /// scheduler's innermost operation.
    pub fn row(&self, rt: RtId) -> &[u64] {
        let words = self.words_per_row();
        let i = rt.0 as usize;
        &self.bits[i * words..(i + 1) * words]
    }

    /// Whether RTs `a` and `b` conflict (cannot share an instruction).
    pub fn conflicts(&self, a: RtId, b: RtId) -> bool {
        let words = self.words_per_row();
        let (i, j) = (a.0 as usize, b.0 as usize);
        self.bits[i * words + j / 64] & (1 << (j % 64)) != 0
    }

    /// Whether `rt` is compatible with every RT in `instruction`.
    pub fn fits(&self, rt: RtId, instruction: &[RtId]) -> bool {
        instruction.iter().all(|&other| !self.conflicts(rt, other))
    }

    /// Whether `rt` is compatible with every RT in the packed `occupancy`
    /// bitset (one bit per issued RT id): a single row-AND instead of a
    /// per-RT loop, restricted to the row's nonzero-word span.
    pub fn fits_mask(&self, rt: RtId, occupancy: &[u64]) -> bool {
        let (s, e) = self.spans[rt.0 as usize];
        let (s, e) = (s as usize, e as usize);
        let row = self.row(rt);
        row[s..e]
            .iter()
            .zip(&occupancy[s..e])
            .all(|(&c, &o)| c & o == 0)
    }
}

/// A schedule: one (possibly empty) instruction per cycle.
///
/// Cycle `t` holds the RTs *issued* at `t`; an RT with latency `l`
/// delivers its result at `t + l`. The schedule length counts until the
/// last issue plus one — matching the paper's "scheduled in 63 cycles"
/// (the time-loop is re-entered immediately, overlapping drain with the
/// next frame's fill).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schedule {
    cycles: Vec<Vec<RtId>>,
}

/// Scheduling failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// No schedule within the cycle budget was found.
    BudgetExceeded {
        /// The budget that was requested.
        budget: u32,
        /// RTs that could not be placed (diagnostic feedback for the
        /// source-rewrite iteration of figure 1).
        unplaced: usize,
    },
    /// The dependence graph is unschedulable (e.g. a cycle).
    Dependences(String),
    /// The caller's [`crate::fuel::CancelToken`] was raised; the partial
    /// result was discarded.
    Cancelled,
    /// The deterministic compute budget ([`crate::fuel::Fuel`]) ran out
    /// before any schedule within the cycle budget was found. Unlike
    /// [`SchedError::BudgetExceeded`] this is attributable to the fuel
    /// limit, not the program: more fuel may still succeed.
    FuelExhausted {
        /// Work units consumed when the search was cut off.
        spent: u64,
        /// The cycle budget that went unmet.
        budget: u32,
    },
    /// [`crate::Scheduler::Exact`] was given no cycle budget: its search
    /// decides whether a schedule fits one, so it needs one.
    NoBudget,
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::BudgetExceeded { budget, unplaced } => write!(
                f,
                "no feasible schedule within {budget} cycles ({unplaced} RT(s) unplaced); \
                 rewrite the source or relax the budget"
            ),
            SchedError::Dependences(m) => write!(f, "dependence problem: {m}"),
            SchedError::Cancelled => write!(f, "scheduling cancelled by the caller"),
            SchedError::FuelExhausted { spent, budget } => write!(
                f,
                "compute fuel exhausted after {spent} unit(s) with no schedule within \
                 {budget} cycles; raise the fuel limit or relax the budget"
            ),
            SchedError::NoBudget => write!(f, "the exact scheduler needs a cycle budget"),
        }
    }
}

impl std::error::Error for SchedError {}

/// Violation found by [`Schedule::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// An RT appears zero or multiple times.
    NotExactlyOnce(RtId),
    /// A flow dependence is violated.
    DependenceViolated {
        /// Producer RT.
        producer: RtId,
        /// Consumer RT.
        consumer: RtId,
        /// Cycle the producer issues.
        producer_cycle: u32,
        /// Cycle the consumer issues.
        consumer_cycle: u32,
        /// Required separation.
        latency: u32,
    },
    /// Two conflicting RTs share a cycle.
    ResourceConflict {
        /// First RT.
        a: RtId,
        /// Second RT.
        b: RtId,
        /// The cycle they share.
        cycle: u32,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::NotExactlyOnce(rt) => {
                write!(f, "{rt} is not scheduled exactly once")
            }
            VerifyError::DependenceViolated {
                producer,
                consumer,
                producer_cycle,
                consumer_cycle,
                latency,
            } => write!(
                f,
                "{consumer}@{consumer_cycle} issues before {producer}@{producer_cycle} \
                 + latency {latency}"
            ),
            VerifyError::ResourceConflict { a, b, cycle } => {
                write!(f, "{a} and {b} conflict in cycle {cycle}")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

impl Schedule {
    /// Creates an empty schedule.
    pub fn new() -> Self {
        Schedule::default()
    }

    /// Creates a schedule from explicit per-cycle instruction contents.
    pub fn from_cycles(cycles: Vec<Vec<RtId>>) -> Self {
        Schedule { cycles }
    }

    /// Places `rt` at `cycle`, growing the schedule as needed.
    pub fn place(&mut self, rt: RtId, cycle: u32) {
        while self.cycles.len() <= cycle as usize {
            self.cycles.push(Vec::new());
        }
        self.cycles[cycle as usize].push(rt);
    }

    /// Number of cycles (index of last non-empty instruction + 1).
    pub fn length(&self) -> u32 {
        self.cycles
            .iter()
            .rposition(|c| !c.is_empty())
            .map(|i| i as u32 + 1)
            .unwrap_or(0)
    }

    /// The raw per-cycle rows, *including* any trailing empty cycles a
    /// construction pass left behind. [`Schedule::length`] ignores those,
    /// but equality does not — serialization (the persistent artifact
    /// cache) round-trips this exact vector so a deserialized schedule is
    /// `==` to the one that was stored.
    pub fn cycles(&self) -> &[Vec<RtId>] {
        &self.cycles
    }

    /// The instruction (set of RTs issued) at `cycle`.
    pub fn instruction(&self, cycle: u32) -> &[RtId] {
        self.cycles
            .get(cycle as usize)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Iterates `(cycle, instruction)` pairs up to [`Schedule::length`].
    pub fn instructions(&self) -> impl Iterator<Item = (u32, &[RtId])> {
        self.cycles
            .iter()
            .take(self.length() as usize)
            .enumerate()
            .map(|(t, instr)| (t as u32, instr.as_slice()))
    }

    /// The issue cycle of each RT, indexed by RT id; `None` if unscheduled.
    pub fn issue_cycles(&self, rt_count: usize) -> Vec<Option<u32>> {
        let mut cycles = vec![None; rt_count];
        for (t, instr) in self.instructions() {
            for &rt in instr {
                cycles[rt.0 as usize] = Some(t);
            }
        }
        cycles
    }

    /// Average number of RTs per instruction — the parallelism achieved.
    pub fn parallelism(&self) -> f64 {
        let total: usize = self.cycles.iter().map(|c| c.len()).sum();
        if self.length() == 0 {
            0.0
        } else {
            total as f64 / self.length() as f64
        }
    }

    /// Verifies the schedule against the program: every RT exactly once,
    /// all flow dependences separated by the producer latency, and all
    /// same-cycle RT pairs compatible.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn verify(&self, program: &Program, deps: &DependenceGraph) -> Result<(), VerifyError> {
        let mut seen = vec![0u32; program.rt_count()];
        for (_, instr) in self.instructions() {
            for &rt in instr {
                seen[rt.0 as usize] += 1;
            }
        }
        for (i, &count) in seen.iter().enumerate() {
            if count != 1 {
                return Err(VerifyError::NotExactlyOnce(RtId(i as u32)));
            }
        }
        let issue = self.issue_cycles(program.rt_count());
        for id in program.rt_ids() {
            let t = issue[id.0 as usize].expect("checked above");
            for (succ, latency) in deps.successors(id) {
                let ts = issue[succ.0 as usize].expect("checked above");
                if ts < t + latency {
                    return Err(VerifyError::DependenceViolated {
                        producer: id,
                        consumer: succ,
                        producer_cycle: t,
                        consumer_cycle: ts,
                        latency,
                    });
                }
            }
        }
        for (t, instr) in self.instructions() {
            for (i, &a) in instr.iter().enumerate() {
                for &b in &instr[i + 1..] {
                    if !program.rt(a).compatible_with(program.rt(b)) {
                        return Err(VerifyError::ResourceConflict { a, b, cycle: t });
                    }
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (t, instr) in self.instructions() {
            write!(f, "{t:>4}: ")?;
            if instr.is_empty() {
                writeln!(f, "nop")?;
            } else {
                let names: Vec<String> = instr.iter().map(|r| r.to_string()).collect();
                writeln!(f, "{}", names.join(" | "))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspcc_ir::{Rt, Usage};

    fn two_conflicting_rts() -> Program {
        let mut p = Program::new();
        let mut a = Rt::new("a");
        a.add_usage("alu", Usage::token("add"));
        let mut b = Rt::new("b");
        b.add_usage("alu", Usage::token("sub"));
        p.add_rt(a);
        p.add_rt(b);
        p
    }

    #[test]
    fn conflict_matrix_matches_rt_compatibility() {
        let p = two_conflicting_rts();
        let m = ConflictMatrix::build(&p);
        assert!(m.conflicts(RtId(0), RtId(1)));
        assert!(m.conflicts(RtId(1), RtId(0)));
        assert!(!m.fits(RtId(0), &[RtId(1)]));
        assert!(m.fits(RtId(0), &[]));
        assert_eq!(m.rt_count(), 2);
    }

    #[test]
    fn classwise_build_matches_pairwise_definition() {
        // A mix of shared-token, shared-apply, distinct-usage and
        // disjoint-resource RTs, wide enough to span two row words.
        let mut p = Program::new();
        for i in 0..70 {
            let mut rt = Rt::new(format!("rt{i}"));
            match i % 5 {
                0 => rt.add_usage("alu", Usage::token("add")),
                1 => rt.add_usage("alu", Usage::token("sub")),
                2 => rt.add_usage("mult", Usage::apply("mult", [format!("v{}", i % 3)])),
                3 => {
                    rt.add_usage("alu", Usage::token("add"));
                    rt.add_usage("bus", Usage::apply("add", [format!("v{i}")]));
                }
                _ => rt.add_usage(format!("opu_{}", i % 7).as_str(), Usage::token("op")),
            }
            p.add_rt(rt);
        }
        let m = ConflictMatrix::build(&p);
        for i in 0..p.rt_count() {
            for j in 0..p.rt_count() {
                let (a, b) = (RtId(i as u32), RtId(j as u32));
                let expected = i != j && !p.rt(a).compatible_with(p.rt(b));
                assert_eq!(m.conflicts(a, b), expected, "pair ({i}, {j})");
            }
        }
    }

    #[test]
    fn fits_mask_agrees_with_fits() {
        let p = two_conflicting_rts();
        let m = ConflictMatrix::build(&p);
        assert_eq!(m.words_per_row(), 1);
        // Occupancy with RT 1 issued: RT 0 must not fit, matching fits().
        let occ = vec![1u64 << 1];
        assert!(!m.fits_mask(RtId(0), &occ));
        assert!(m.fits_mask(RtId(0), &[0u64]));
        assert_eq!(m.row(RtId(0)), &[1u64 << 1]);
        assert_eq!(m.row(RtId(1)), &[1u64 << 0]);
    }

    #[test]
    fn schedule_place_and_length() {
        let mut s = Schedule::new();
        assert_eq!(s.length(), 0);
        s.place(RtId(0), 3);
        assert_eq!(s.length(), 4);
        assert_eq!(s.instruction(3), &[RtId(0)]);
        assert_eq!(s.instruction(0), &[] as &[RtId]);
        assert_eq!(s.instruction(99), &[] as &[RtId]);
    }

    #[test]
    fn parallelism_metric() {
        let s = Schedule::from_cycles(vec![vec![RtId(0), RtId(1)], vec![RtId(2)]]);
        assert!((s.parallelism() - 1.5).abs() < 1e-9);
        assert_eq!(Schedule::new().parallelism(), 0.0);
    }

    #[test]
    fn verify_accepts_serial_schedule() {
        let p = two_conflicting_rts();
        let deps = DependenceGraph::build(&p).unwrap();
        let s = Schedule::from_cycles(vec![vec![RtId(0)], vec![RtId(1)]]);
        s.verify(&p, &deps).unwrap();
    }

    #[test]
    fn verify_rejects_conflict_in_cycle() {
        let p = two_conflicting_rts();
        let deps = DependenceGraph::build(&p).unwrap();
        let s = Schedule::from_cycles(vec![vec![RtId(0), RtId(1)]]);
        assert!(matches!(
            s.verify(&p, &deps),
            Err(VerifyError::ResourceConflict { .. })
        ));
    }

    #[test]
    fn verify_rejects_missing_and_duplicate() {
        let p = two_conflicting_rts();
        let deps = DependenceGraph::build(&p).unwrap();
        let missing = Schedule::from_cycles(vec![vec![RtId(0)]]);
        assert_eq!(
            missing.verify(&p, &deps),
            Err(VerifyError::NotExactlyOnce(RtId(1)))
        );
        let dup = Schedule::from_cycles(vec![vec![RtId(0)], vec![RtId(0)], vec![RtId(1)]]);
        assert_eq!(
            dup.verify(&p, &deps),
            Err(VerifyError::NotExactlyOnce(RtId(0)))
        );
    }

    #[test]
    fn verify_rejects_latency_violation() {
        let mut p = Program::new();
        let v = p.add_value("v");
        let mut a = Rt::new("a");
        a.add_def(v);
        a.set_latency(2);
        a.add_usage("mult", Usage::token("mult"));
        let mut b = Rt::new("b");
        b.add_use(v);
        b.add_usage("alu", Usage::token("add"));
        p.add_rt(a);
        p.add_rt(b);
        let deps = DependenceGraph::build(&p).unwrap();
        let bad = Schedule::from_cycles(vec![vec![RtId(0)], vec![RtId(1)]]);
        assert!(matches!(
            bad.verify(&p, &deps),
            Err(VerifyError::DependenceViolated { latency: 2, .. })
        ));
        let good = Schedule::from_cycles(vec![vec![RtId(0)], vec![], vec![RtId(1)]]);
        good.verify(&p, &deps).unwrap();
    }

    #[test]
    fn compatible_rts_may_share_cycle() {
        let mut p = Program::new();
        let mut a = Rt::new("a");
        a.add_usage("alu", Usage::token("add"));
        let mut b = Rt::new("b");
        b.add_usage("mult", Usage::token("mult"));
        p.add_rt(a);
        p.add_rt(b);
        let deps = DependenceGraph::build(&p).unwrap();
        let s = Schedule::from_cycles(vec![vec![RtId(0), RtId(1)]]);
        s.verify(&p, &deps).unwrap();
        assert_eq!(s.length(), 1);
    }

    #[test]
    fn display_shows_nops() {
        let s = Schedule::from_cycles(vec![vec![RtId(0)], vec![], vec![RtId(1)]]);
        let text = s.to_string();
        assert!(text.contains("nop"));
        assert!(text.contains("rt0"));
    }

    #[test]
    fn error_displays() {
        let e = SchedError::BudgetExceeded {
            budget: 64,
            unplaced: 3,
        };
        assert!(e.to_string().contains("64"));
        let e = VerifyError::ResourceConflict {
            a: RtId(0),
            b: RtId(1),
            cycle: 7,
        };
        assert!(e.to_string().contains("cycle 7"));
    }
}
