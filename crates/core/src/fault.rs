//! Seeded fault injection — auditing the *oracle*, not the compiler.
//!
//! The conformance fleet ([`crate::conform`]) rests on one claim: any
//! defect that reaches a compiled artifact shows up as a divergence
//! against the golden model. This module tests that claim instead of
//! the compiler. A seeded injector deliberately corrupts compiled
//! artifacts — microcode bits, ROM constants, schedule rows, register
//! operands — and every mutant must end in exactly one of two states:
//!
//! * **Detected** — the oracle stack killed it: the pipeline's own
//!   re-checks rejected the mutated artifact, the simulator refused to
//!   load it, the differential run diverged from the golden model, or
//!   the mutant made the toolchain panic (contained by the audit);
//! * **Benign** — the mutation provably cannot change observable
//!   behaviour, with the proof stated as a *witness* (the flipped bit
//!   decodes to the identical instruction; the corrupted ROM address is
//!   never read; the swapped schedule is dependence- and resource-clean
//!   and therefore a valid alternative compilation). The differential
//!   run cross-checks every witness too: a witness it refutes is unsound,
//!   and the mutant counts as survived.
//!
//! A mutant that is neither — [`FaultOutcome::Survived`] — is a hole in
//! the fleet's detection power: a class of real compiler bug the fleet
//! would wave through. The audit therefore *pins* zero survivors over a
//! seeded grid (`tests/fault_audit.rs`), turning the fleet's detection
//! power into a regression-tested property.
//!
//! Determinism: mutation draws come from
//! [`SplitMix64::substream`]`(seed, fnv(app, kind))` and stimulus from
//! the fleet's own [`crate::conform`] stream, so every cell reproduces
//! from `(seed, app, kind)` alone.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use dspcc_arch::{Fnv64, SplitMix64};
use dspcc_encode::{allocate_registers, decode, encode, Microcode, RegisterMap};
use dspcc_sched::Schedule;
use dspcc_sim::{Action, CoreSim, Op};

use crate::conform::{run_differential, Divergence};
use crate::pipeline::Compiled;
use crate::session::{CompileOptions, CompileSession};
use crate::sweep;

/// The artifact corruptions the injector knows how to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MutationKind {
    /// Flip one bit of one instruction word.
    BitFlip,
    /// Replace one ROM constant with a maximally-distant in-range value.
    RomCorrupt,
    /// Swap two instruction rows of the schedule and re-encode.
    CycleSwap,
    /// Redirect one RT operand to a different register of the same file
    /// and re-encode.
    RegRedirect,
}

impl MutationKind {
    /// Every kind, in audit order.
    pub const ALL: [MutationKind; 4] = [
        MutationKind::BitFlip,
        MutationKind::RomCorrupt,
        MutationKind::CycleSwap,
        MutationKind::RegRedirect,
    ];

    /// Stable name (used in the mutation RNG tag and reports).
    pub fn name(self) -> &'static str {
        match self {
            MutationKind::BitFlip => "bitflip",
            MutationKind::RomCorrupt => "romcorrupt",
            MutationKind::CycleSwap => "cycleswap",
            MutationKind::RegRedirect => "regredirect",
        }
    }
}

impl fmt::Display for MutationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which layer of the oracle stack killed a detected mutant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Detection {
    /// The differential run diverged from the golden model.
    Mismatch,
    /// The simulator refused the artifact (construction or execution).
    SimError,
    /// A pipeline re-check (schedule verifier, register allocator,
    /// encoder) rejected the mutated artifact.
    PipelineError,
    /// The toolchain panicked on the mutant; the audit contained it.
    Panic,
}

impl fmt::Display for Detection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Detection::Mismatch => "mismatch",
            Detection::SimError => "sim-error",
            Detection::PipelineError => "pipeline-error",
            Detection::Panic => "panic",
        })
    }
}

/// The verdict on one injected fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultOutcome {
    /// The oracle stack killed the mutant.
    Detected {
        /// The layer that caught it.
        how: Detection,
        /// What the detector reported.
        detail: String,
    },
    /// The mutation provably cannot change observable behaviour.
    Benign {
        /// The proof, stated (e.g. "decodes to the identical
        /// instruction").
        witness: String,
    },
    /// The mutation was live but nothing caught it — a fleet bug.
    Survived {
        /// What was mutated, for triage.
        detail: String,
    },
    /// The cell could not arm this mutation (artifact too small, app
    /// infeasible on the audit options…).
    Skipped {
        /// Why.
        reason: String,
    },
}

impl FaultOutcome {
    /// Whether the oracle stack caught this mutant.
    pub fn is_detected(&self) -> bool {
        matches!(self, FaultOutcome::Detected { .. })
    }

    /// Whether this mutant silently survived.
    pub fn is_survived(&self) -> bool {
        matches!(self, FaultOutcome::Survived { .. })
    }
}

/// One audited `(seed, app, kind)` cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultCell {
    /// Mutation/stimulus seed.
    pub seed: u64,
    /// Corpus app name.
    pub app: String,
    /// What was injected.
    pub kind: MutationKind,
    /// Human description of the concrete mutation.
    pub mutation: String,
    /// The verdict.
    pub outcome: FaultOutcome,
}

/// A seeded fault-injection audit of the audio core: seeds × apps ×
/// mutation kinds, run in parallel with per-cell panic containment.
///
/// # Example
///
/// ```no_run
/// use dspcc::fault::FaultAudit;
///
/// let report = FaultAudit::new().seed_range(0..8).standard_corpus().run();
/// assert_eq!(report.survived().count(), 0, "{report}");
/// ```
#[derive(Debug, Clone)]
pub struct FaultAudit {
    seeds: Vec<u64>,
    apps: Vec<(String, String)>,
    kinds: Vec<MutationKind>,
    frames: u32,
    threads: usize,
}

impl Default for FaultAudit {
    fn default() -> Self {
        FaultAudit {
            seeds: Vec::new(),
            apps: Vec::new(),
            kinds: MutationKind::ALL.to_vec(),
            frames: 12,
            threads: 0,
        }
    }
}

impl FaultAudit {
    /// An empty audit.
    pub fn new() -> Self {
        FaultAudit::default()
    }

    /// Adds a contiguous seed block.
    pub fn seed_range(mut self, range: std::ops::Range<u64>) -> Self {
        self.seeds.extend(range);
        self
    }

    /// Adds one application.
    pub fn app(mut self, name: impl Into<String>, source: impl Into<String>) -> Self {
        self.apps.push((name.into(), source.into()));
        self
    }

    /// Adds the fleet's [`crate::conform::standard_corpus`].
    pub fn standard_corpus(mut self) -> Self {
        self.apps.extend(crate::conform::standard_corpus());
        self
    }

    /// Restricts the mutation kinds (default: all).
    pub fn kinds(mut self, kinds: impl IntoIterator<Item = MutationKind>) -> Self {
        self.kinds = kinds.into_iter().collect();
        assert!(!self.kinds.is_empty(), "kind dimension must be non-empty");
        self
    }

    /// Frames per differential hunt (default 12).
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

    /// Runs the audit: every `(seed, app, kind)` cell, in deterministic
    /// (seed, app, kind) order.
    ///
    /// # Panics
    ///
    /// Panics if the audit has no seeds or no apps.
    pub fn run(&self) -> FaultReport {
        assert!(!self.seeds.is_empty(), "audit needs at least one seed");
        assert!(!self.apps.is_empty(), "audit needs at least one app");
        // A fixed, fully-featured core: every (seed, app) compiles, so
        // every cell is armed and the seed axis is pure mutation/stimulus
        // diversity (unlike the conformance fleet, where seeds generate
        // architectures and cells may be infeasible). Each app compiles
        // once, serially: the seeds all mutate the same artifact.
        let core = Arc::new(crate::cores::audio_core());
        let session = CompileSession::new();
        let options = CompileOptions::sweep_cell();
        let compiled: Vec<Result<Compiled, String>> = self
            .apps
            .iter()
            .map(|(_, source)| {
                session
                    .compile(&core, source, &options)
                    .map_err(|e| e.to_string())
            })
            .collect();
        let cells: Vec<(u64, usize, MutationKind)> = self
            .seeds
            .iter()
            .flat_map(|&seed| {
                (0..self.apps.len())
                    .flat_map(move |a| self.kinds.iter().map(move |&kind| (seed, a, kind)))
            })
            .collect();
        let cells = sweep::fan_out(self.threads, &cells, |&(seed, a, kind)| {
            let (app, _) = &self.apps[a];
            // One cell: inject, then hunt. Panics anywhere inside
            // injection or detection are contained into a detection.
            let (mutation, outcome) = match &compiled[a] {
                Ok(c) => sweep::contain(|| self.inject_and_hunt(c, seed, app, kind))
                    .unwrap_or_else(|detail| {
                        let how = Detection::Panic;
                        let panicked = format!("{kind} (panicked mid-audit)");
                        (panicked, FaultOutcome::Detected { how, detail })
                    }),
                Err(e) => {
                    let reason = format!("app does not compile on the audit core: {e}");
                    (String::new(), FaultOutcome::Skipped { reason })
                }
            };
            FaultCell {
                seed,
                app: app.clone(),
                kind,
                mutation,
                outcome,
            }
        });
        FaultReport { cells }
    }

    fn inject_and_hunt(
        &self,
        compiled: &Compiled,
        seed: u64,
        app: &str,
        kind: MutationKind,
    ) -> (String, FaultOutcome) {
        let tag = Fnv64::of_parts(|h| {
            h.write_text(app);
            h.write_text(kind.name());
        });
        let mut rng = SplitMix64::substream(seed, tag);
        let injected = match kind {
            MutationKind::BitFlip => inject_bitflip(compiled, &mut rng),
            MutationKind::RomCorrupt => inject_rom(compiled, &mut rng),
            MutationKind::CycleSwap => inject_cycle_swap(compiled, &mut rng),
            MutationKind::RegRedirect => inject_reg_redirect(compiled, &mut rng),
        };
        match injected {
            Err(reason) => (kind.name().to_owned(), FaultOutcome::Skipped { reason }),
            Ok((mutation, Injection::Decided(outcome))) => (mutation, outcome),
            Ok((mutation, Injection::Mutant(mutant, claim))) => {
                let outcome = self.verdict(compiled, &mutant, claim, seed, app, &mutation);
                (mutation, outcome)
            }
        }
    }

    /// The one verdict path: loads the mutant into the simulator, races
    /// it against the golden model over the fleet's stimulus, and checks
    /// the result against what the injector claimed. A witness the run
    /// refutes is unsound and surfaces as [`FaultOutcome::Survived`] — a
    /// bug in the witness analysis, not in the fleet.
    fn verdict(
        &self,
        compiled: &Compiled,
        mutant: &Microcode,
        claim: Claim,
        seed: u64,
        app: &str,
        mutation: &str,
    ) -> FaultOutcome {
        let detected = |how, detail| FaultOutcome::Detected { how, detail };
        let outcome = match run_differential(compiled, mutant, seed, app, self.frames) {
            Ok(()) => FaultOutcome::Survived {
                detail: format!(
                    "{mutation}: {} frame(s) ran bit-identical to the golden model",
                    self.frames
                ),
            },
            Err(Divergence::Load(e)) => detected(
                Detection::SimError,
                format!("simulator refused the artifact: {e}"),
            ),
            // The golden model rejecting the *unmutated* graph is an
            // audit setup failure, not a detection.
            Err(Divergence::Golden { error, .. }) => FaultOutcome::Skipped {
                reason: format!("golden model rejected the stimulus: {error}"),
            },
            Err(Divergence::Outputs { frame, diff }) => {
                detected(Detection::Mismatch, format!("frame {frame}: {diff}"))
            }
            Err(Divergence::Execution { frame, error }) => detected(
                Detection::SimError,
                format!("frame {frame}: execution failed: {error}"),
            ),
        };
        match (claim, outcome) {
            (Claim::Witness(witness), FaultOutcome::Detected { how, detail }) => {
                FaultOutcome::Survived {
                    detail: format!(
                        "witness refuted: claimed benign ({witness}) but the \
                         differential detected it ({how}: {detail})"
                    ),
                }
            }
            (Claim::Witness(witness), _) => FaultOutcome::Benign { witness },
            (Claim::VerifierFlagged(e), FaultOutcome::Survived { detail }) => {
                FaultOutcome::Survived {
                    detail: format!(
                        "{detail}; verifier flagged it ({e}) but the differential run did not"
                    ),
                }
            }
            (Claim::VerifyClean(witness), FaultOutcome::Survived { .. }) => {
                FaultOutcome::Benign { witness }
            }
            // A verify-clean schedule whose re-encoding diverges would
            // mean the verifier is too weak — surface it as a detection
            // with the contradiction spelled out.
            (Claim::VerifyClean(_), FaultOutcome::Detected { how, detail }) => detected(
                how,
                format!("verify-clean swap still diverged ({detail}) — schedule verifier gap?"),
            ),
            (_, outcome) => outcome,
        }
    }
}

/// What one mutation kind produced: `Err` says why the cell could not
/// be armed, `Ok` carries the mutation's description and the injection.
type Injected = Result<(String, Injection), String>;

/// An armed mutation.
enum Injection {
    /// A pipeline re-check rejected the mutant before it could run.
    Decided(FaultOutcome),
    /// A mutant for [`FaultAudit::verdict`], with what the injector
    /// claims about it.
    Mutant(Microcode, Claim),
}

/// What the injector claims about a mutant before the differential run.
enum Claim {
    /// Nothing: the run must detect the mutant.
    Live,
    /// A static witness proves the mutant benign; the run cross-checks it.
    Witness(String),
    /// The schedule verifier rejected the swap (its error): the run must
    /// still detect the mutant, because the fleet never runs `verify` on
    /// artifacts it merely executes.
    VerifierFlagged(String),
    /// The schedule verifier passed the swap: a valid alternative
    /// compilation, benign once the run confirms it.
    VerifyClean(String),
}

impl Claim {
    fn of(witness: Option<String>) -> Claim {
        witness.map_or(Claim::Live, Claim::Witness)
    }
}

/// Flip one bit of one instruction word. Witness: the mutated word runs
/// identically (the bit is padding, an unread operand port, or a
/// destination-less pure unit), or the whole-program analysis of
/// [`microcode_witness`] proves the change dead.
fn inject_bitflip(compiled: &Compiled, rng: &mut SplitMix64) -> Injected {
    let microcode = &compiled.microcode;
    if microcode.words.is_empty() {
        return Err("empty microcode".to_owned());
    }
    let w = (rng.next_u64() % microcode.words.len() as u64) as usize;
    let bit = (rng.next_u64() % u64::from(microcode.layout.width())) as u32;
    let mut mutated = (**microcode).clone();
    let old = mutated.words[w].bits(bit, 1);
    mutated.words[w].set_bits(bit, 1, old ^ 1);
    let witness = loaded(compiled, &mutated).and_then(|(a, b)| {
        // A destination-less ALU/MULT/ACU action computes a value nobody
        // reads through a total function, so it drops out of the view;
        // destination-less RAM/ROM/input actions stay (their address and
        // FIFO side effects are observable).
        let live = |x: &Action| !(x.writes().is_empty() && computes(x.op()));
        if !a.actions(w).filter(live).eq(b.actions(w).filter(live)) {
            return microcode_witness(microcode, &a, &mutated, &b);
        }
        let format = microcode.word_format;
        let decoded = |m: &Microcode| decode(&m.words[w], &m.layout, format);
        Some(if decoded(microcode) == decoded(&mutated) {
            format!(
                "bit {bit} of word {w} is outside every field: the mutated word \
                 decodes to the identical instruction"
            )
        } else {
            format!(
                "bit {bit} of word {w} only affects dead state: the decoded \
                 instructions are identical after dropping destination-less \
                 pure-OPU actions and unread operand ports"
            )
        })
    });
    let mutation = format!("flip bit {bit} of word {w}");
    Ok((mutation, Injection::Mutant(mutated, Claim::of(witness))))
}

/// Replace one ROM constant with the maximally-distant in-range value.
/// Witness: the corrupted address is never read — it is the immediate of
/// no ROM read of the program.
fn inject_rom(compiled: &Compiled, rng: &mut SplitMix64) -> Injected {
    let microcode = &compiled.microcode;
    if microcode.rom_image.is_empty() {
        return Err("app has no ROM image".to_owned());
    }
    let addr = (rng.next_u64() % microcode.rom_image.len() as u64) as usize;
    let format = microcode.word_format;
    let old = microcode.rom_image[addr];
    // Maximally distant and always representable (and never equal to
    // the original, since min != max for any width).
    let new = if old == format.max_value() {
        format.min_value()
    } else {
        format.max_value()
    };
    let mut mutated = (**microcode).clone();
    mutated.rom_image[addr] = new;
    let read = compiled.simulator().map_or(true, |sim| {
        (0..sim.words()).any(|w| {
            sim.actions(w)
                .any(|a| a.op() == Op::RomConst && a.imm() == addr as i64)
        })
    });
    let witness = (!read).then(|| {
        format!(
            "ROM address {addr} appears in no decoded ROM-access immediate: \
             the program never reads it"
        )
    });
    let mutation = format!("ROM[{addr}]: {old} -> {new}");
    Ok((mutation, Injection::Mutant(mutated, Claim::of(witness))))
}

/// Swap two instruction rows of the schedule, then push the mutated
/// schedule back through register allocation and encoding. The schedule
/// verifier is the first oracle layer: a clean verify means the swap
/// produced a *valid alternative compilation* (differentially
/// confirmed); a dirty verify means the mutant must die in re-encoding
/// or in the differential run.
fn inject_cycle_swap(compiled: &Compiled, rng: &mut SplitMix64) -> Injected {
    let schedule = &compiled.schedule;
    let len = schedule.length();
    if len < 2 {
        return Err(format!("schedule has {len} cycle(s), nothing to swap"));
    }
    let c1 = (rng.next_u64() % u64::from(len)) as u32;
    let mut c2 = (rng.next_u64() % u64::from(len - 1)) as u32;
    if c2 >= c1 {
        c2 += 1;
    }
    let mut cycles: Vec<Vec<_>> = (0..len).map(|c| schedule.instruction(c).to_vec()).collect();
    cycles.swap(c1 as usize, c2 as usize);
    let mutated = Schedule::from_cycles(cycles);
    let mutation = format!("swap schedule rows {c1} and {c2}");
    let verified = mutated.verify(&compiled.lowering.program, &compiled.deps);
    // Re-encode under the mutated schedule (regalloc reads the
    // schedule's live ranges, so it must rerun too).
    let injection = match (verified, reencode(compiled, &mutated)) {
        (Err(e), Err(enc)) => Injection::Decided(FaultOutcome::Detected {
            how: Detection::PipelineError,
            detail: format!("schedule verifier: {e}; re-encode also failed: {enc}"),
        }),
        (Ok(()), Err(enc)) => Injection::Decided(FaultOutcome::Detected {
            how: Detection::PipelineError,
            detail: format!("verify-clean swap failed to re-encode: {enc}"),
        }),
        (Err(e), Ok(m)) => Injection::Mutant(m, Claim::VerifierFlagged(e.to_string())),
        (Ok(()), Ok(m)) => Injection::Mutant(
            m,
            Claim::VerifyClean(format!(
                "rows {c1} and {c2} are independent: the swapped schedule is \
                 dependence- and resource-clean (Schedule::verify) and the \
                 re-encoded microcode ran differentially equal"
            )),
        ),
    };
    Ok((mutation, injection))
}

/// Redirect one RT operand to a different register of the same file and
/// re-encode under the unchanged schedule. Always armed; the redirect is
/// benign only when [`microcode_witness`] proves it — otherwise the
/// differential run must kill it.
fn inject_reg_redirect(compiled: &Compiled, rng: &mut SplitMix64) -> Injected {
    let program = compiled
        .assignment
        .registers
        .rewrite(&compiled.lowering.program);
    let dp = &compiled.core.datapath;
    // Candidate operand slots: any operand of any RT whose register
    // file has at least two registers.
    let mut candidates: Vec<(dspcc_ir::RtId, usize, u32, u32)> = Vec::new();
    for id in program.rt_ids() {
        let rt = program.rt(id);
        for (slot, reg) in rt.operands().iter().enumerate() {
            let size = dp
                .register_files()
                .iter()
                .find(|r| r.name() == reg.rf().name())
                .map(|r| r.size())
                .unwrap_or(0);
            if size >= 2 {
                candidates.push((id, slot, reg.index(), size));
            }
        }
    }
    if candidates.is_empty() {
        return Err("no operand reads a register file with ≥ 2 registers".to_owned());
    }
    let (rt_id, slot, p, size) = candidates[(rng.next_u64() % candidates.len() as u64) as usize];
    let q = (p + 1 + (rng.next_u64() % u64::from(size - 1)) as u32) % size;
    let mut mutated_program = program;
    let rt = mutated_program.rt_mut(rt_id);
    let target = rt.dests().len() + slot; // remap_registers visits dests, then operands
    let mut visit = 0usize;
    rt.remap_registers(|r| {
        let mapped = if visit == target { r.with_index(q) } else { *r };
        visit += 1;
        mapped
    });
    let mutation = format!("{rt_id}: operand {slot} register {p} -> {q}");
    // Re-encode the mutated program, physical throughout, under the
    // original schedule.
    let microcode = &compiled.microcode;
    let words = match encode(
        &mutated_program,
        &RegisterMap::default(),
        &compiled.schedule,
        &microcode.layout,
        &compiled.lowering.immediates,
        microcode.word_format,
    ) {
        Ok(w) => w,
        Err(e) => {
            let outcome = FaultOutcome::Detected {
                how: Detection::PipelineError,
                detail: format!("encoder rejected the redirect: {e}"),
            };
            return Ok((mutation, Injection::Decided(outcome)));
        }
    };
    let mutated = Microcode {
        words,
        ..(**microcode).clone()
    };
    let witness = loaded(compiled, &mutated)
        .and_then(|(a, b)| microcode_witness(microcode, &a, &mutated, &b));
    Ok((mutation, Injection::Mutant(mutated, Claim::of(witness))))
}

/// Re-runs register allocation and encoding for a mutated schedule,
/// mirroring the pipeline's own stage calls.
fn reencode(compiled: &Compiled, schedule: &Schedule) -> Result<Microcode, String> {
    let lowering = &compiled.lowering;
    let dp = &compiled.core.datapath;
    let pinned = vec![lowering.fp_reg.clone()];
    let assignment =
        allocate_registers(&lowering.program, schedule, dp, &pinned).map_err(|e| e.to_string())?;
    let microcode = &compiled.microcode;
    let words = encode(
        &lowering.program,
        &assignment.registers,
        schedule,
        &microcode.layout,
        &lowering.immediates,
        microcode.word_format,
    )
    .map_err(|e| e.to_string())?;
    Ok(Microcode {
        words,
        ..(**microcode).clone()
    })
}

/// The original and the mutant loaded into the simulator, whose decoded
/// programs every witness reads; `None` when the mutant does not load
/// (the differential run then detects it).
fn loaded(compiled: &Compiled, mutated: &Microcode) -> Option<(CoreSim, CoreSim)> {
    let mutant = CoreSim::new(&compiled.core.datapath, mutated).ok()?;
    Some((compiled.simulator().ok()?, mutant))
}

/// ALU, MULT and ACU operations: total functions of the operands they
/// read, with no side effect and no error path.
fn computes(op: Op) -> bool {
    matches!(
        op,
        Op::AcuAddMod | Op::Mult | Op::Add | Op::AddClip | Op::Sub | Op::Pass | Op::PassClip
    )
}

/// A decoded program: the simulator's actions, word by word.
type Program<'a> = [Vec<Action<'a>>];

/// One statically-known register write: its landing position on the
/// cyclic steady-state timeline (issue cycle + writeback latency, mod
/// program length) and the stored value when it is a compile-time
/// constant (program constant or ROM read).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StaticWrite {
    land: u32,
    value: Option<i64>,
}

/// Register traffic of a decoded program on the executor's timeline:
/// which cycles read each flat register and where each write to it
/// lands. The executor pops pending writebacks due at cycle `c` before
/// executing cycle `c`, so a read at cycle `c` observes every write
/// with landing position ≤ `c`.
struct StaticTraffic {
    reads: BTreeMap<u32, Vec<u32>>,
    writes: BTreeMap<u32, Vec<StaticWrite>>,
}

/// Builds the traffic table, or `None` when the static story breaks
/// down: an action that faults when executed (an unsupported unit or an
/// out-of-range ROM access — a runtime fault, not a silent write), or
/// two writes to one register landing on the same cycle (overwrite order
/// too subtle to reason about statically). Callers fall back to the
/// differential hunt.
fn static_traffic(dec: &Program) -> Option<StaticTraffic> {
    let n = u32::try_from(dec.len()).ok()?;
    if n == 0 {
        return None;
    }
    let mut reads: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    let mut writes: BTreeMap<u32, Vec<StaticWrite>> = BTreeMap::new();
    for (t, word) in (0..n).zip(dec) {
        for a in word {
            if a.op() == Op::Unsupported || (a.op() == Op::RomConst && a.constant().is_none()) {
                return None;
            }
            for &reg in a.reads() {
                reads.entry(reg).or_default().push(t);
            }
            for &reg in a.writes() {
                let land = (t + a.latency()) % n;
                let value = a.constant();
                writes
                    .entry(reg)
                    .or_default()
                    .push(StaticWrite { land, value });
            }
        }
    }
    for list in writes.values_mut() {
        list.sort_by_key(|w| w.land);
        if list.windows(2).any(|p| p[0].land == p[1].land) {
            return None;
        }
    }
    Some(StaticTraffic { reads, writes })
}

/// `r ∈ [start, end)` on the cyclic timeline (`start != end`).
fn in_cyclic_interval(r: u32, start: u32, end: u32) -> bool {
    if start < end {
        start <= r && r < end
    } else {
        r >= start || r < end
    }
}

/// The landing of the next write after `land` on the cyclic timeline,
/// `None` when `land` is the register's only write.
fn next_landing(timeline: &[StaticWrite], land: u32, n: u32) -> Option<u32> {
    timeline
        .iter()
        .map(|w| w.land)
        .filter(|&l| l != land)
        .min_by_key(|&l| (l + n - land) % n)
}

/// Whether the write landing at `land` is dead: no read of the register
/// falls between its landing and the landing of the next write to the
/// same register (cyclically — a write at the end of the frame is live
/// into the next frame's prefix). `timeline` always contains the write
/// at `land` itself; a register with a single write holds its value for
/// the whole loop, so any read at all makes it live.
fn write_is_dead(reads: &[u32], timeline: &[StaticWrite], land: u32, n: u32) -> bool {
    match next_landing(timeline, land, n) {
        Some(next) => !reads.iter().any(|&r| in_cyclic_interval(r, land, next)),
        None => reads.is_empty(),
    }
}

/// What one allowed microcode difference does to one register.
enum WriteImpact {
    /// The write still happens but may store a different value.
    ValueChanged { old: Option<i64>, new: Option<i64> },
    /// The mutant no longer performs this write.
    Removed { value: Option<i64> },
    /// The mutant performs a write the original did not.
    Added { value: Option<i64> },
}

/// The value a read of `reg` at cycle `r` observes, when statically
/// known: `(first frame, steady state)`. Registers start at zero; the
/// observed write is the most recent landing ≤ `r`, wrapping to the
/// frame's last landing in steady state. `None` when the reaching
/// write's value is dynamic.
fn read_value(traffic: &StaticTraffic, reg: u32, r: u32) -> Option<(i64, i64)> {
    let Some(timeline) = traffic.writes.get(&reg) else {
        return Some((0, 0)); // never written: holds its initial zero
    };
    let before = timeline.iter().rev().find(|w| w.land <= r);
    let steady = match before {
        Some(w) => w.value?,
        None => timeline.last()?.value?, // lands late, wraps from the previous frame
    };
    let frame1 = match before {
        Some(w) => w.value?,
        None => 0, // nothing has landed yet in the first frame
    };
    Some((frame1, steady))
}

/// Discharges a known-constant value change whose delta is a multiple
/// of the ACU region size, by taint propagation: the ACU computes
/// `(v & !m) | ((base + v) & m)` with `m = region_size − 1`, so a delta
/// `D ≡ 0 (mod region_size)` shifts the output by exactly `D` when it
/// enters through the offset port (the low bits are untouched, the high
/// bits add exactly) and vanishes entirely through the base port. The
/// worklist follows the delta from the mutated write through every read
/// in its live interval; the proof holds iff every such read is an ACU
/// port (base absorbs, offset forwards the taint to the ACU's own
/// destinations). Returns the number of sites the delta was absorbed
/// at, or `None` if any read escapes the ACU.
fn congruence_absorbed(
    dec_a: &Program,
    dec_b: &Program,
    traffic_a: &StaticTraffic,
    n: u32,
    start: (u32, u32),
) -> Option<usize> {
    let mut seen = BTreeSet::new();
    let mut work = vec![start];
    let mut absorbed = 0usize;
    while let Some((reg, land)) = work.pop() {
        if !seen.insert((reg, land)) {
            continue;
        }
        let next = next_landing(traffic_a.writes.get(&reg)?, land, n);
        for t in 0..n {
            if next.is_some_and(|end| !in_cyclic_interval(t, land, end)) {
                continue;
            }
            // Readers must agree between the variants (the mutation may
            // touch only the write we started from), and every reader
            // of the tainted interval must be an ACU port.
            for (da, db) in [(dec_a, dec_b), (dec_b, dec_a)] {
                for a in &da[t as usize] {
                    for (port, _) in a.reads().iter().enumerate().filter(|&(_, &r)| r == reg) {
                        if !db[t as usize].contains(a) || a.op() != Op::AcuAddMod {
                            return None;
                        }
                        match port {
                            0 => absorbed += 1,
                            _ => {
                                let land = (t + a.latency()) % n;
                                work.extend(a.writes().iter().map(|&w| (w, land)));
                            }
                        }
                    }
                }
            }
        }
    }
    Some(absorbed / 2) // each site was counted from both variants
}

/// An added or dropped RAM write is unobservable when no action in
/// either variant ever reads that RAM: the memory cells it mutates are
/// dead state. An *added* write must additionally be provably
/// fault-free — its address register is never written in the mutant
/// (so it always holds the initial zero, which addresses a non-empty
/// memory in range) and it drives no register write-back.
fn ram_write_unobservable(
    dec_a: &Program,
    dec_b: &Program,
    traffic_b: &StaticTraffic,
    added: bool,
    x: &Action,
) -> bool {
    let reads_ram = |dec: &Program| {
        dec.iter()
            .flatten()
            .any(|a| a.opu() == x.opu() && a.op() == Op::RamRead)
    };
    if reads_ram(dec_a) || reads_ram(dec_b) || !x.writes().is_empty() {
        return false;
    }
    !added
        || (x.memory_size() > 0
            && x.reads()
                .first()
                .is_some_and(|addr| !traffic_b.writes.contains_key(addr)))
}

/// Bounded symbolic back-substitution over the cyclic program: proves
/// that two register observations (or two action outputs) are equal in
/// **every** frame, by structural recursion along writeback chains.
///
/// Times are absolute cycles relative to the current frame's start and
/// may go negative as the recursion follows chains into earlier frames.
/// Every rule is frame-uniform — it holds whether the referenced write
/// instances have executed or still lie in the zero-initialised
/// pre-history — because equal structure at equal frame depth sees
/// equal history:
///
/// * the *same write instance* (same site, same absolute landing) is
///   trivially equal to itself, and pre-history reads observe the same
///   initial zero on both sides;
/// * two *constants* (program or ROM) are equal when their values are,
///   at matching frame depth;
/// * two *pure ops* (ALU/MULT/ACU) are equal when the op matches and
///   every operand pair proves equal;
/// * two *RAM loads* are equal when their address values prove equal
///   and no write to that RAM issues between the two load instants.
///
/// Chains must never resolve through a register the mutation itself
/// touches (`forbidden`) — the proof is evaluated on the original
/// program and transfers to the mutant only if the mutant agrees on
/// every step.
struct ValueProver<'a> {
    dec: &'a Program<'a>,
    n: i64,
    /// Per flat register: (landing position in `0..n`, word, action
    /// index) of every action that writes it.
    writes: BTreeMap<u32, Vec<(i64, usize, usize)>>,
    /// Issue cycles of RAM writes, per RAM OPU.
    ram_writes: BTreeMap<u32, Vec<i64>>,
    budget: std::cell::Cell<u32>,
}

impl<'a> ValueProver<'a> {
    fn new(dec: &'a Program<'a>) -> Self {
        let n = dec.len() as i64;
        let mut writes: BTreeMap<u32, Vec<(i64, usize, usize)>> = BTreeMap::new();
        let mut ram_writes: BTreeMap<u32, Vec<i64>> = BTreeMap::new();
        for (t, word) in dec.iter().enumerate() {
            for (i, a) in word.iter().enumerate() {
                if a.op() == Op::RamWrite {
                    ram_writes.entry(a.opu()).or_default().push(t as i64);
                }
                let land = (t as i64 + i64::from(a.latency())) % n;
                for &reg in a.writes() {
                    writes.entry(reg).or_default().push((land, t, i));
                }
            }
        }
        ValueProver {
            dec,
            n,
            writes,
            ram_writes,
            budget: std::cell::Cell::new(4096),
        }
    }

    fn spend(&self) -> bool {
        let left = self.budget.get();
        if left == 0 {
            return false;
        }
        self.budget.set(left - 1);
        true
    }

    /// Issue time of the action instance `(w, i)` whose write lands at
    /// absolute time `abs`.
    fn issue_of(&self, w: usize, i: usize, abs: i64) -> i64 {
        abs - i64::from(self.dec[w][i].latency())
    }

    /// Proves that the writes to `reg` landing at cycles `land_a` and
    /// `land_b` (both within the current frame) store equal values in
    /// every frame.
    fn same_write(&self, reg: u32, land_a: i64, land_b: i64, forbidden: &BTreeSet<u32>) -> bool {
        let Some(sites) = self.writes.get(&reg) else {
            return false;
        };
        let find = |l: i64| sites.iter().find(|&&(l0, _, _)| l0 == l).copied();
        let (Some((l1, w1, i1)), Some((l2, w2, i2))) = (find(land_a), find(land_b)) else {
            return false;
        };
        let (t1, t2) = (self.issue_of(w1, i1, l1), self.issue_of(w2, i2, l2));
        self.same_output((w1, i1), t1, (w2, i2), t2, forbidden, 12)
    }

    /// The most recent write instance of `reg` landing at or before
    /// absolute time `t`: `(absolute landing, word, action index)`.
    fn reach(&self, reg: u32, t: i64) -> Option<(i64, usize, usize)> {
        self.writes
            .get(&reg)?
            .iter()
            .map(|&(l0, w, i)| {
                let q = (t - l0).div_euclid(self.n);
                (l0 + q * self.n, w, i)
            })
            .max_by_key(|&(abs, _, _)| abs)
    }

    /// Proves the value observed in `r1` at time `t1` equals `r2` at
    /// `t2`, in every frame.
    fn same_observed(
        &self,
        (r1, t1): (u32, i64),
        (r2, t2): (u32, i64),
        forbidden: &BTreeSet<u32>,
        depth: u32,
    ) -> bool {
        if depth == 0 || !self.spend() || forbidden.contains(&r1) || forbidden.contains(&r2) {
            return false;
        }
        match (self.reach(r1, t1), self.reach(r2, t2)) {
            // Never-written registers hold their initial zero forever.
            (None, None) => true,
            (Some((abs1, w1, i1)), Some((abs2, w2, i2))) => {
                if r1 == r2 && abs1 == abs2 {
                    return true; // the same write instance (or the same pre-history zero)
                }
                // Both observations must sit at the same frame depth,
                // so partially-executed early frames agree too.
                if abs1.div_euclid(self.n) != abs2.div_euclid(self.n) {
                    return false;
                }
                let (s1, s2) = (self.issue_of(w1, i1, abs1), self.issue_of(w2, i2, abs2));
                self.same_output((w1, i1), s1, (w2, i2), s2, forbidden, depth - 1)
            }
            _ => false, // one side written, the other always zero — unprovable
        }
    }

    /// Proves the outputs of two action instances equal: `(w, i)` at
    /// issue time `t` against another.
    fn same_output(
        &self,
        (w1, i1): (usize, usize),
        t1: i64,
        (w2, i2): (usize, usize),
        t2: i64,
        forbidden: &BTreeSet<u32>,
        depth: u32,
    ) -> bool {
        if depth == 0 || !self.spend() {
            return false;
        }
        if (w1, i1) == (w2, i2) && t1 == t2 {
            return true;
        }
        let (x, y) = (&self.dec[w1][i1], &self.dec[w2][i2]);
        if x.opu() != y.opu() || x.op() != y.op() {
            return false;
        }
        let operands_equal = |ports: usize| {
            (0..ports).all(|p| {
                let (rx, ry) = (x.reads()[p], y.reads()[p]);
                self.same_observed((rx, t1), (ry, t2), forbidden, depth - 1)
            })
        };
        match x.op() {
            Op::ProgConst | Op::RomConst => {
                matches!((x.constant(), y.constant()), (Some(a), Some(b)) if a == b)
            }
            op if computes(op) => operands_equal(op.reads()),
            Op::RamRead => {
                if !operands_equal(1) {
                    return false;
                }
                // No write to this RAM may issue between the two loads.
                let (lo, hi) = (t1.min(t2), t1.max(t2));
                let sites = self
                    .ram_writes
                    .get(&x.opu())
                    .map(Vec::as_slice)
                    .unwrap_or(&[]);
                if hi - lo >= self.n {
                    return sites.is_empty();
                }
                sites.iter().all(|&s0| {
                    let inst = s0 + (hi - s0).div_euclid(self.n) * self.n;
                    inst <= lo
                })
            }
            _ => false, // Input pops and RAM writes are never provably equal across instances
        }
    }
}

/// Finds the earlier cycle whose identical RAM write the action at
/// cycle `t` replays: the same action must appear at some cycle
/// `c < t` in BOTH variants, no other write to the same RAM may issue
/// in `(c, t)`, and neither operand register may receive a write
/// landing in `(c, t]` — so the replay stores bit-identical address and
/// data, making it a no-op in every frame (including the first, since
/// `c` precedes `t` within the frame).
fn ram_write_replay(
    dec_a: &Program,
    dec_b: &Program,
    traffic: [&StaticTraffic; 2],
    t: u32,
    x: &Action,
) -> Option<u32> {
    let c = (0..t)
        .rev()
        .find(|&c| dec_a[c as usize].contains(x) && dec_b[c as usize].contains(x))?;
    let writes_ram = |a: &Action| a.opu() == x.opu() && a.op() == Op::RamWrite;
    if (c + 1..t).any(|cycle| {
        [dec_a, dec_b]
            .iter()
            .any(|dec| dec[cycle as usize].iter().any(writes_ram))
    }) {
        return None;
    }
    let lands_between = |reg: &u32| {
        traffic.iter().any(|tr| {
            tr.writes
                .get(reg)
                .is_some_and(|tl| tl.iter().any(|w| w.land > c && w.land <= t))
        })
    };
    (!x.reads().iter().any(lands_between)).then_some(c)
}

/// Tries to *prove* a mutated microcode behaviourally equal to the
/// original, by cyclic dead-store and reaching-constant analysis over
/// the programs the simulator decoded for both (`sim_a`, `sim_b`).
/// Returns the witness on success, `None` when no proof is found (the
/// caller must then hunt the mutant differentially).
///
/// The proof reduces every per-word difference to a set of register
/// [`WriteImpact`]s — only pure function units (ALU/MULT/ACU/constants/
/// ROM) qualify; any change to RAM, I/O, or an unsupported unit voids
/// the proof. Each impact is then discharged by one of:
///
/// * **dead store** — no instruction reads the register between this
///   write's landing and the next overwrite (cyclically); or
/// * **redundant constant** — the added/removed write stores exactly
///   the constant the preceding write (earlier in the same frame, so
///   the first frame behaves identically too) already put there.
fn microcode_witness<'a>(
    original: &Microcode,
    sim_a: &'a CoreSim,
    mutated: &Microcode,
    sim_b: &'a CoreSim,
) -> Option<String> {
    if original.words.len() != mutated.words.len() || original.rom_image != mutated.rom_image {
        return None;
    }
    let n = u32::try_from(original.words.len()).ok()?;
    let program = |sim: &'a CoreSim| -> Vec<Vec<Action<'a>>> {
        (0..sim.words()).map(|w| sim.actions(w).collect()).collect()
    };
    let (dec_a, dec_b) = (program(sim_a), program(sim_b));
    let traffic_a = static_traffic(&dec_a)?;
    let traffic_b = static_traffic(&dec_b)?;
    // Liveness is judged against the union of both variants' read sets:
    // sound for whichever variant an impact concerns.
    let mut reads = traffic_a.reads.clone();
    for (&reg, cycles) in &traffic_b.reads {
        reads.entry(reg).or_default().extend(cycles.iter().copied());
    }
    let pure = |x: &Action| computes(x.op()) || matches!(x.op(), Op::ProgConst | Op::RomConst);
    let mut impacts: Vec<(u32, u32, WriteImpact)> = Vec::new();
    let mut notes: Vec<String> = Vec::new();
    for t in 0..n {
        // Each OPU's action in both variants, in OPU-name order.
        let mut pairs: BTreeMap<&str, (Option<&Action>, Option<&Action>)> = BTreeMap::new();
        for a in &dec_a[t as usize] {
            pairs.entry(a.opu_name()).or_default().0 = Some(a);
        }
        for b in &dec_b[t as usize] {
            pairs.entry(b.opu_name()).or_default().1 = Some(b);
        }
        for (name, (a, b)) in pairs {
            if a == b {
                continue; // identical, or different only in unread operand ports
            }
            // An added or dropped RAM write can be an idempotent replay
            // of an identical write earlier in the same frame: with the
            // address and data registers untouched in between and no
            // other write to the same RAM in between, the second write
            // stores exactly what the first already stored, so RAM
            // state is identical at every cycle of every frame.
            if let (Some(x), None) | (None, Some(x)) = (a, b) {
                if x.op() == Op::RamWrite {
                    let side = if a.is_none() { "added" } else { "dropped" };
                    let traffic = [&traffic_a, &traffic_b];
                    if let Some(c) = ram_write_replay(&dec_a, &dec_b, traffic, t, x) {
                        notes.push(format!(
                            "{side} RAM write on {name} at cycle {t} is an idempotent \
                             replay of the identical write at cycle {c} (address and \
                             data registers unchanged in between)"
                        ));
                        continue;
                    }
                    if ram_write_unobservable(&dec_a, &dec_b, &traffic_b, a.is_none(), x) {
                        notes.push(format!(
                            "{side} RAM write on {name} at cycle {t} targets a memory \
                             no action in either variant ever reads (dead state, \
                             in-range zero address)"
                        ));
                        continue;
                    }
                    return None;
                }
            }
            // Same op, read operands, and immediate ⇒ both variants
            // compute the same (possibly dynamic) value. A differing
            // operand port still qualifies when both registers provably
            // hold the same known constant at this cycle — in the first
            // frame and in steady state.
            let same_value = match (a, b) {
                (Some(a), Some(b)) => {
                    a.op() == b.op()
                        && a.imm() == b.imm()
                        && (0..a.reads().len()).all(|port| {
                            let (ra, rb) = (a.reads()[port], b.reads()[port]);
                            if ra == rb {
                                return true;
                            }
                            let va = read_value(&traffic_a, ra, t);
                            match (va, read_value(&traffic_b, rb, t)) {
                                (Some(x), Some(y)) if x == y => {
                                    let ((rf, i), (_, j)) =
                                        (sim_a.register_name(ra), sim_b.register_name(rb));
                                    notes.push(format!(
                                        "{name} port {port} at cycle {t} redirected from \
                                         {rf}[{i}] to {rf}[{j}], but both provably hold the \
                                         same known value at every read (first frame {}, \
                                         steady state {})",
                                        x.0, x.1
                                    ));
                                    true
                                }
                                _ => false,
                            }
                        })
                }
                _ => false,
            };
            // A matched pair with an identical value/side-effect
            // signature (same op, operands, immediate — only the
            // register write set differs) is safe for ANY unit: the
            // FIFO pop, RAM access, or error path is the same on both
            // sides. Every other difference needs a pure function unit.
            if !same_value && !a.or(b).is_some_and(pure) {
                return None; // RAM / I/O / unsupported unit changed — no proof
            }
            let dests = |x: Option<&Action>| -> BTreeMap<u32, (u32, Option<i64>)> {
                x.map(|x| {
                    let land = (t + x.latency()) % n;
                    x.writes()
                        .iter()
                        .map(|&r| (r, (land, x.constant())))
                        .collect()
                })
                .unwrap_or_default()
            };
            let (da, db) = (dests(a), dests(b));
            // Registers in register-file-name order: the value-numbering
            // budget is shared across impacts, so their order matters.
            let mut regs: Vec<u32> = da.keys().chain(db.keys()).copied().collect();
            regs.sort_by_key(|&r| sim_a.register_name(r));
            regs.dedup();
            for reg in regs {
                match (da.get(&reg).copied(), db.get(&reg).copied()) {
                    (Some((land, va)), Some((land_b, vb))) if land == land_b => {
                        let constant = matches!((va, vb), (Some(x), Some(y)) if x == y);
                        if !same_value && !constant {
                            let impact = WriteImpact::ValueChanged { old: va, new: vb };
                            impacts.push((reg, land, impact));
                        }
                    }
                    (old, new) => {
                        if let Some((land, value)) = old {
                            impacts.push((reg, land, WriteImpact::Removed { value }));
                        }
                        if let Some((land, value)) = new {
                            impacts.push((reg, land, WriteImpact::Added { value }));
                        }
                    }
                }
            }
        }
    }
    let mut witness: Vec<String> = Vec::new();
    let impacted: BTreeSet<u32> = impacts.iter().map(|&(reg, _, _)| reg).collect();
    let provers =
        (!impacts.is_empty()).then(|| (ValueProver::new(&dec_a), ValueProver::new(&dec_b)));
    for (reg, land, impact) in impacts {
        let (rf, index) = sim_a.register_name(reg);
        let timeline = match impact {
            WriteImpact::Added { .. } => traffic_b.writes.get(&reg)?,
            _ => traffic_a.writes.get(&reg)?,
        };
        let read_cycles = reads.get(&reg).map(Vec::as_slice).unwrap_or(&[]);
        if write_is_dead(read_cycles, timeline, land, n) {
            witness.push(format!(
                "write to {rf}[{index}] landing at cycle {land} is a dead store \
                 (no read before the next overwrite)"
            ));
            continue;
        }
        match impact {
            WriteImpact::ValueChanged {
                old: Some(o),
                new: Some(v),
            } => {
                // Known-constant delta that is a multiple of the ACU
                // region size: prove it is absorbed by modulo
                // addressing (see [`congruence_absorbed`]).
                let region = i64::from(original.region_size);
                let delta = v - o;
                if region >= 2
                    && original.region_size.is_power_of_two()
                    && delta != 0
                    && delta % region == 0
                {
                    let sites = congruence_absorbed(&dec_a, &dec_b, &traffic_a, n, (reg, land))?;
                    witness.push(format!(
                        "constant delta {delta} on {rf}[{index}] landing at cycle {land} is \
                         a multiple of the ACU region size {region} and is provably \
                         absorbed by modulo addressing ({sites} base-port read(s) mask it)"
                    ));
                    continue;
                }
                return None;
            }
            WriteImpact::ValueChanged { .. } => return None,
            WriteImpact::Removed { value } | WriteImpact::Added { value } => {
                // Redundant store: the cyclically preceding write must
                // land *earlier in the same frame* (no wrap), so even
                // the very first frame sees the same value at every
                // read. It qualifies when it stores the same known
                // constant, or when bounded value numbering proves the
                // two writes compute equal (possibly dynamic) values.
                let prev = timeline
                    .iter()
                    .filter(|w| w.land < land)
                    .max_by_key(|w| w.land)?;
                if let (Some(v), true) = (value, prev.value == value) {
                    witness.push(format!(
                        "write of constant {v} to {rf}[{index}] at cycle {land} is redundant \
                         (the write landing at cycle {} stores the same constant)",
                        prev.land
                    ));
                    continue;
                }
                let (prover_a, prover_b) = provers.as_ref()?;
                let prover = match impact {
                    WriteImpact::Added { .. } => prover_b,
                    _ => prover_a,
                };
                if prover.same_write(reg, i64::from(land), i64::from(prev.land), &impacted) {
                    witness.push(format!(
                        "write to {rf}[{index}] landing at cycle {land} is a redundant \
                         store (bounded value numbering proves the write landing at \
                         cycle {} stores an equal value in every frame)",
                        prev.land
                    ));
                    continue;
                }
                return None;
            }
        }
    }
    witness.extend(notes);
    if witness.is_empty() {
        return Some(
            "the mutation only toggles state no executor rule reads \
             (the decoded programs are semantically identical)"
                .to_owned(),
        );
    }
    witness.sort();
    witness.dedup();
    Some(witness.join("; "))
}

/// The audit table: one cell per `(seed, app, kind)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultReport {
    /// All cells, in deterministic (seed, app, kind) order.
    pub cells: Vec<FaultCell>,
}

impl FaultReport {
    /// Detected mutants.
    pub fn detected(&self) -> impl Iterator<Item = &FaultCell> {
        self.cells.iter().filter(|c| c.outcome.is_detected())
    }

    /// Witnessed-benign mutants.
    pub fn benign(&self) -> impl Iterator<Item = &FaultCell> {
        self.cells
            .iter()
            .filter(|c| matches!(c.outcome, FaultOutcome::Benign { .. }))
    }

    /// Silently surviving mutants — each one a fleet bug.
    pub fn survived(&self) -> impl Iterator<Item = &FaultCell> {
        self.cells.iter().filter(|c| c.outcome.is_survived())
    }

    /// Cells that could not be armed.
    pub fn skipped(&self) -> impl Iterator<Item = &FaultCell> {
        self.cells
            .iter()
            .filter(|c| matches!(c.outcome, FaultOutcome::Skipped { .. }))
    }

    /// Kill rate over armed, non-benign mutants:
    /// `detected / (detected + survived)`, `None` when nothing was armed.
    pub fn kill_rate(&self) -> Option<f64> {
        let detected = self.detected().count();
        let survived = self.survived().count();
        let armed = detected + survived;
        (armed > 0).then(|| detected as f64 / armed as f64)
    }
}

impl fmt::Display for FaultReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<12} {:>6} {:>9} {:>7} {:>9} {:>8}",
            "kind", "cells", "detected", "benign", "survived", "skipped"
        )?;
        for kind in MutationKind::ALL {
            let of_kind: Vec<&FaultCell> = self.cells.iter().filter(|c| c.kind == kind).collect();
            if of_kind.is_empty() {
                continue;
            }
            writeln!(
                f,
                "{:<12} {:>6} {:>9} {:>7} {:>9} {:>8}",
                kind.name(),
                of_kind.len(),
                of_kind.iter().filter(|c| c.outcome.is_detected()).count(),
                of_kind
                    .iter()
                    .filter(|c| matches!(c.outcome, FaultOutcome::Benign { .. }))
                    .count(),
                of_kind.iter().filter(|c| c.outcome.is_survived()).count(),
                of_kind
                    .iter()
                    .filter(|c| matches!(c.outcome, FaultOutcome::Skipped { .. }))
                    .count(),
            )?;
        }
        for cell in self.survived() {
            writeln!(
                f,
                "SURVIVED seed={:#x} app={} kind={}: {}",
                cell.seed,
                cell.app,
                cell.kind,
                match &cell.outcome {
                    FaultOutcome::Survived { detail } => detail.as_str(),
                    _ => unreachable!(),
                }
            )?;
        }
        let rate = self
            .kill_rate()
            .map(|r| format!("{:.1}%", r * 100.0))
            .unwrap_or_else(|| "n/a".to_owned());
        write!(
            f,
            "{} cells: {} detected, {} benign, {} survived, {} skipped; kill rate {rate}",
            self.cells.len(),
            self.detected().count(),
            self.benign().count(),
            self.survived().count(),
            self.skipped().count(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_audit_kills_or_witnesses_everything() {
        let report = FaultAudit::new()
            .seed_range(0..4)
            .app("fir4", crate::apps::fir(4))
            .run();
        assert_eq!(report.cells.len(), 16);
        assert_eq!(report.survived().count(), 0, "{report}");
        // The audit is armed: at least one detection happened.
        assert!(report.detected().count() > 0, "{report}");
    }

    #[test]
    fn audit_is_deterministic_across_thread_counts() {
        let audit = FaultAudit::new()
            .seed_range(0..3)
            .app("sop4", crate::apps::sum_of_products(4));
        let serial = audit.clone().threads(1).run();
        let parallel = audit.threads(4).run();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn benign_outcomes_state_a_witness() {
        let report = FaultAudit::new()
            .seed_range(0..16)
            .app("fir4", crate::apps::fir(4))
            .kinds([MutationKind::BitFlip])
            .run();
        for cell in report.benign() {
            match &cell.outcome {
                FaultOutcome::Benign { witness } => assert!(!witness.is_empty()),
                _ => unreachable!(),
            }
        }
        assert_eq!(report.survived().count(), 0, "{report}");
    }
}
