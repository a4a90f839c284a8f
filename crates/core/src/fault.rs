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
//!   and therefore a valid alternative compilation).
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

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use dspcc_arch::{Fnv64, OpuKind, OpuSpec, SplitMix64};
use dspcc_encode::{allocate_registers, decode, encode, DecodedInstruction, Microcode, OpuAction};
use dspcc_sched::Schedule;

use crate::conform::{run_differential, Divergence};
use crate::pipeline::{Compiled, Core};
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

/// A seeded fault-injection audit over one core: seeds × apps ×
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
    core: Arc<Core>,
    seeds: Vec<u64>,
    apps: Vec<(String, String)>,
    kinds: Vec<MutationKind>,
    frames: u32,
    threads: usize,
    options: CompileOptions,
    paranoid: bool,
}

impl Default for FaultAudit {
    fn default() -> Self {
        FaultAudit {
            // A fixed, fully-featured core: every (seed, app) compiles,
            // so every cell is armed and the seed axis is pure mutation/
            // stimulus diversity (unlike the conformance fleet, where
            // seeds generate architectures and cells may be infeasible).
            core: Arc::new(crate::cores::audio_core()),
            seeds: Vec::new(),
            apps: Vec::new(),
            kinds: MutationKind::ALL.to_vec(),
            frames: 12,
            threads: 0,
            options: CompileOptions::sweep_cell(),
            paranoid: false,
        }
    }
}

impl FaultAudit {
    /// An empty audit on the default (audio) core.
    pub fn new() -> Self {
        FaultAudit::default()
    }

    /// Replaces the audited core.
    pub fn core(mut self, core: Core) -> Self {
        self.core = Arc::new(core);
        self
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

    /// Overrides the compile options of the audited artifacts.
    pub fn options(mut self, options: CompileOptions) -> Self {
        self.options = options;
        self
    }

    /// Cross-checks every static benign witness against the
    /// differential hunt (default off). A witness the hunt refutes is a
    /// bug in the witness analysis itself and surfaces as
    /// [`FaultOutcome::Survived`], so `survived().count() == 0` then
    /// also proves the witness layer sound on this grid.
    pub fn paranoid(mut self, paranoid: bool) -> Self {
        self.paranoid = paranoid;
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
        // Compile each app once (serially — the session caches by
        // content, and the seeds all mutate the same artifact).
        let session = CompileSession::new();
        let compiled: Vec<Result<Compiled, String>> = self
            .apps
            .iter()
            .map(|(_, source)| {
                session
                    .compile(&self.core, source, &self.options)
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
        match kind {
            MutationKind::BitFlip => self.inject_bitflip(compiled, seed, app, &mut rng),
            MutationKind::RomCorrupt => self.inject_rom(compiled, seed, app, &mut rng),
            MutationKind::CycleSwap => self.inject_cycle_swap(compiled, seed, app, &mut rng),
            MutationKind::RegRedirect => self.inject_reg_redirect(compiled, seed, app, &mut rng),
        }
    }

    /// Flip one bit of one instruction word. Witness: the mutated word
    /// decodes to the identical instruction (the bit is padding the
    /// field layout never reads).
    fn inject_bitflip(
        &self,
        compiled: &Compiled,
        seed: u64,
        app: &str,
        rng: &mut SplitMix64,
    ) -> (String, FaultOutcome) {
        let microcode = &compiled.microcode;
        if microcode.words.is_empty() {
            return (
                "bitflip".to_owned(),
                FaultOutcome::Skipped {
                    reason: "empty microcode".to_owned(),
                },
            );
        }
        let w = (rng.next_u64() % microcode.words.len() as u64) as usize;
        let bit = (rng.next_u64() % u64::from(microcode.layout.width())) as u32;
        let mut mutated = (**microcode).clone();
        let old = mutated.words[w].bits(bit, 1);
        mutated.words[w].set_bits(bit, 1, old ^ 1);
        let mutation = format!("flip bit {bit} of word {w}");
        let format = microcode.word_format;
        // Witness check: decode both words and compare their *semantic*
        // views — the parts of the instruction the executor actually
        // reads. A flip in padding, in an operand port past the op's
        // read arity, or toggling a destination-less pure function unit
        // is provably dead.
        let original = decode(&microcode.words[w], &microcode.layout, format);
        let flipped = decode(&mutated.words[w], &microcode.layout, format);
        if let (Ok(a), Ok(b)) = (&original, &flipped) {
            if semantic_view(a) == semantic_view(b) {
                let witness = if a == b {
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
                };
                let outcome = self.benign(compiled, &mutated, seed, app, &mutation, witness);
                return (mutation, outcome);
            }
        }
        // Second witness tier: cyclic dead-store / reaching-constant
        // analysis over the whole decoded program (the flip may corrupt
        // a write nobody ever observes).
        if let Some(witness) = microcode_witness(compiled, &mutated) {
            let outcome = self.benign(compiled, &mutated, seed, app, &mutation, witness);
            return (mutation, outcome);
        }
        (
            mutation.clone(),
            self.hunt(compiled, &mutated, seed, app, &mutation),
        )
    }

    /// Replace one ROM constant with the maximally-distant in-range
    /// value. Witness: the corrupted address is never read — it appears
    /// in no decoded ROM-access immediate of the program.
    fn inject_rom(
        &self,
        compiled: &Compiled,
        seed: u64,
        app: &str,
        rng: &mut SplitMix64,
    ) -> (String, FaultOutcome) {
        let microcode = &compiled.microcode;
        if microcode.rom_image.is_empty() {
            return (
                "romcorrupt".to_owned(),
                FaultOutcome::Skipped {
                    reason: "app has no ROM image".to_owned(),
                },
            );
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
        let mutation = format!("ROM[{addr}]: {old} -> {new}");
        // Witness check: the set of ROM addresses the program actually
        // reads, collected statically from the decoded instructions.
        let rom_opus: Vec<&str> = compiled
            .core
            .datapath
            .opus()
            .iter()
            .filter(|o| o.kind() == OpuKind::Rom)
            .map(|o| o.name())
            .collect();
        let mut read = false;
        for word in &microcode.words {
            if let Ok(d) = decode(word, &microcode.layout, format) {
                for action in &d.actions {
                    if rom_opus.contains(&action.opu.as_str()) && action.imm == Some(addr as i64) {
                        read = true;
                    }
                }
            }
        }
        if !read {
            let witness = format!(
                "ROM address {addr} appears in no decoded ROM-access immediate: \
                 the program never reads it"
            );
            let outcome = self.benign(compiled, &mutated, seed, app, &mutation, witness);
            return (mutation, outcome);
        }
        (
            mutation.clone(),
            self.hunt(compiled, &mutated, seed, app, &mutation),
        )
    }

    /// Swap two instruction rows of the schedule, then push the mutated
    /// schedule back through register allocation and encoding. The
    /// schedule verifier is the first oracle layer: a clean verify means
    /// the swap produced a *valid alternative compilation* (witnessed,
    /// then differentially confirmed); a dirty verify means the mutant
    /// must die in re-encoding or in the differential run.
    fn inject_cycle_swap(
        &self,
        compiled: &Compiled,
        seed: u64,
        app: &str,
        rng: &mut SplitMix64,
    ) -> (String, FaultOutcome) {
        let schedule = &compiled.schedule;
        let len = schedule.length();
        if len < 2 {
            return (
                "cycleswap".to_owned(),
                FaultOutcome::Skipped {
                    reason: format!("schedule has {len} cycle(s), nothing to swap"),
                },
            );
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
        let program = &compiled.lowering.program;
        let verified = mutated.verify(program, &compiled.deps);
        // Re-encode under the mutated schedule (regalloc reads the
        // schedule's live ranges, so it must rerun too).
        let reencoded = self.reencode(compiled, &mutated);
        match (verified, reencoded) {
            (Err(e), Err(enc)) => (
                mutation,
                FaultOutcome::Detected {
                    how: Detection::PipelineError,
                    detail: format!("schedule verifier: {e}; re-encode also failed: {enc}"),
                },
            ),
            (Err(e), Ok(m)) => {
                // Invalid schedule that still encodes: the differential
                // run must kill it; the verifier verdict alone is not an
                // end-to-end detection (the fleet never runs `verify` on
                // artifacts it merely executes).
                match self.hunt(compiled, &m, seed, app, &mutation) {
                    FaultOutcome::Survived { detail } => (
                        mutation,
                        FaultOutcome::Survived {
                            detail: format!(
                                "{detail}; verifier flagged it ({e}) but the \
                                             differential run did not"
                            ),
                        },
                    ),
                    caught => (mutation, caught),
                }
            }
            (Ok(()), Err(enc)) => (
                mutation,
                FaultOutcome::Detected {
                    how: Detection::PipelineError,
                    detail: format!("verify-clean swap failed to re-encode: {enc}"),
                },
            ),
            (Ok(()), Ok(m)) => match self.hunt(compiled, &m, seed, app, &mutation) {
                FaultOutcome::Survived { .. } => (
                    mutation.clone(),
                    FaultOutcome::Benign {
                        witness: format!(
                            "rows {c1} and {c2} are independent: the swapped schedule is \
                             dependence- and resource-clean (Schedule::verify) and the \
                             re-encoded microcode ran differentially equal"
                        ),
                    },
                ),
                FaultOutcome::Detected { how, detail } => (
                    mutation,
                    // A verify-clean schedule whose re-encoding diverges
                    // would mean the verifier is too weak — surface it
                    // as a detection with the contradiction spelled out.
                    FaultOutcome::Detected {
                        how,
                        detail: format!(
                            "verify-clean swap still diverged ({detail}) — schedule \
                             verifier gap?"
                        ),
                    },
                ),
                other => (mutation, other),
            },
        }
    }

    /// Redirect one RT operand to a different register of the same file
    /// and re-encode under the unchanged schedule. Always armed; the
    /// redirect is benign only when the consuming unit's result feeds a
    /// provably dead store ([`microcode_witness`]) — otherwise the
    /// differential run must kill it.
    fn inject_reg_redirect(
        &self,
        compiled: &Compiled,
        seed: u64,
        app: &str,
        rng: &mut SplitMix64,
    ) -> (String, FaultOutcome) {
        let program = &compiled.assignment.program;
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
            return (
                "regredirect".to_owned(),
                FaultOutcome::Skipped {
                    reason: "no operand reads a register file with ≥ 2 registers".to_owned(),
                },
            );
        }
        let (rt_id, slot, p, size) =
            candidates[(rng.next_u64() % candidates.len() as u64) as usize];
        let q = (p + 1 + (rng.next_u64() % u64::from(size - 1)) as u32) % size;
        let mut mutated_program = program.clone();
        let rt = mutated_program.rt_mut(rt_id);
        let dests = rt.dests().len();
        let target = dests + slot; // remap_registers visits dests, then operands
        let mut visit = 0usize;
        rt.remap_registers(|r| {
            let mapped = if visit == target { r.with_index(q) } else { *r };
            visit += 1;
            mapped
        });
        let mutation = format!("{rt_id}: operand {slot} register {p} -> {q}");
        // Re-encode the mutated program under the original schedule.
        let microcode = &compiled.microcode;
        let words = match encode(
            &mutated_program,
            &compiled.schedule,
            &microcode.layout,
            &compiled.lowering.immediates,
            microcode.word_format,
        ) {
            Ok(w) => w,
            Err(e) => {
                return (
                    mutation,
                    FaultOutcome::Detected {
                        how: Detection::PipelineError,
                        detail: format!("encoder rejected the redirect: {e}"),
                    },
                )
            }
        };
        let mutated = Microcode {
            words,
            ..(**microcode).clone()
        };
        if let Some(witness) = microcode_witness(compiled, &mutated) {
            let outcome = self.benign(compiled, &mutated, seed, app, &mutation, witness);
            return (mutation, outcome);
        }
        (
            mutation.clone(),
            self.hunt(compiled, &mutated, seed, app, &mutation),
        )
    }

    /// Wraps a static benign witness. In paranoid mode the differential
    /// hunt still runs: a witness the hunt refutes is unsound and is
    /// surfaced as [`FaultOutcome::Survived`] — a bug in the witness
    /// analysis, not in the fleet.
    fn benign(
        &self,
        compiled: &Compiled,
        mutated: &Microcode,
        seed: u64,
        app: &str,
        mutation: &str,
        witness: String,
    ) -> FaultOutcome {
        if self.paranoid {
            if let FaultOutcome::Detected { how, detail } =
                self.hunt(compiled, mutated, seed, app, mutation)
            {
                return FaultOutcome::Survived {
                    detail: format!(
                        "witness refuted: claimed benign ({witness}) but the \
                         differential detected it ({how}: {detail})"
                    ),
                };
            }
        }
        FaultOutcome::Benign { witness }
    }

    /// Re-runs register allocation and encoding for a mutated schedule,
    /// mirroring the pipeline's own stage calls.
    fn reencode(&self, compiled: &Compiled, schedule: &Schedule) -> Result<Microcode, String> {
        let lowering = &compiled.lowering;
        let dp = &compiled.core.datapath;
        let pinned = vec![lowering.fp_reg.clone()];
        let assignment = allocate_registers(&lowering.program, schedule, dp, &pinned)
            .map_err(|e| e.to_string())?;
        let microcode = &compiled.microcode;
        let words = encode(
            &assignment.program,
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

    /// The detection run: load the mutated artifact into the simulator
    /// and race it against the golden model over the fleet's stimulus.
    fn hunt(
        &self,
        compiled: &Compiled,
        mutated: &Microcode,
        seed: u64,
        app: &str,
        mutation: &str,
    ) -> FaultOutcome {
        let detected = |how, detail| FaultOutcome::Detected { how, detail };
        match run_differential(compiled, mutated, seed, app, self.frames) {
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
        }
    }
}

/// The executor-visible view of a decoded instruction, for the bit-flip
/// benignity witness. Mirrors the simulator's execution rules exactly:
/// a destination-less ALU/MULT/ACU activation computes a value nobody
/// reads through a total function (no error path), and operand ports
/// past the op's read arity are never resolved. Everything else —
/// including destination-less RAM/ROM/input activations, whose address
/// and FIFO side effects *are* observable — stays in the view.
type SemanticAction = (String, String, Vec<u32>, Vec<(String, u32)>, Option<i64>);

fn semantic_view(d: &DecodedInstruction) -> Vec<SemanticAction> {
    d.actions
        .iter()
        .filter_map(|a| {
            let dead_pure =
                a.dests.is_empty() && matches!(a.kind, OpuKind::Alu | OpuKind::Mult | OpuKind::Acu);
            if dead_pure {
                return None;
            }
            let arity = read_arity(a).min(a.operand_regs.len());
            let regs = a.operand_regs.iter().take(arity).copied().collect();
            Some((a.opu.clone(), a.op.clone(), regs, a.dests.clone(), a.imm))
        })
        .collect()
}

/// How many operand ports the executor actually resolves for this
/// action — mirrors the simulator's per-kind execution rules.
fn read_arity(a: &OpuAction) -> usize {
    match a.kind {
        OpuKind::Input | OpuKind::ProgConst | OpuKind::Rom => 0,
        OpuKind::Output => 1,
        OpuKind::Acu | OpuKind::Mult => 2,
        OpuKind::Ram => {
            if a.op == "write" {
                2
            } else {
                1
            }
        }
        OpuKind::Alu => {
            if a.op == "pass" || a.op == "pass_clip" {
                1
            } else {
                2
            }
        }
        _ => a.operand_regs.len(),
    }
}

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
/// which cycles read each `(rf, register)` and where each write to it
/// lands. The executor pops pending writebacks due at cycle `c` before
/// executing cycle `c`, so a read at cycle `c` observes every write
/// with landing position ≤ `c`.
struct StaticTraffic {
    reads: BTreeMap<(String, u32), Vec<u32>>,
    writes: BTreeMap<(String, u32), Vec<StaticWrite>>,
}

/// Builds the traffic table, or `None` when the static story breaks
/// down: an unknown OPU, an out-of-range ROM access (a runtime fault,
/// not a silent write), or two writes to one register landing on the
/// same cycle (overwrite order too subtle to reason about statically).
/// Callers fall back to the differential hunt.
fn static_traffic(
    core: &Core,
    mc: &Microcode,
    decoded: &[DecodedInstruction],
) -> Option<StaticTraffic> {
    let dp = &core.datapath;
    let n = u32::try_from(decoded.len()).ok()?;
    if n == 0 {
        return None;
    }
    let mut reads: BTreeMap<(String, u32), Vec<u32>> = BTreeMap::new();
    let mut writes: BTreeMap<(String, u32), Vec<StaticWrite>> = BTreeMap::new();
    for (t, d) in decoded.iter().enumerate() {
        let t = t as u32;
        for a in &d.actions {
            let opu = dp.opus().iter().find(|o| o.name() == a.opu)?;
            let arity = read_arity(a).min(a.operand_regs.len());
            for (port, &reg) in a.operand_regs.iter().take(arity).enumerate() {
                let rf = opu.inputs().get(port)?.clone();
                reads.entry((rf, reg)).or_default().push(t);
            }
            let value = written_value(opu, a, mc)?;
            let lat = opu.latency_of(&a.op).unwrap_or(1).max(1);
            for (rf, reg) in &a.dests {
                writes
                    .entry((rf.clone(), *reg))
                    .or_default()
                    .push(StaticWrite {
                        land: (t + lat) % n,
                        value,
                    });
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

/// The compile-time-known value an action writes: `Some(Some(v))` for
/// constants, `Some(None)` for dynamic values, `None` when the action
/// could fault at runtime (out-of-range ROM access) — which voids the
/// whole static analysis.
fn written_value(opu: &OpuSpec, a: &OpuAction, mc: &Microcode) -> Option<Option<i64>> {
    match a.kind {
        OpuKind::ProgConst => Some(Some(a.imm?)),
        OpuKind::Rom => {
            let addr = a.imm?;
            if addr < 0 || addr >= i64::from(opu.memory_size()) {
                return None;
            }
            Some(Some(mc.rom_image.get(addr as usize).copied().unwrap_or(0)))
        }
        _ => Some(None),
    }
}

/// `r ∈ [start, end)` on the cyclic timeline (`start != end`).
fn in_cyclic_interval(r: u32, start: u32, end: u32) -> bool {
    if start < end {
        start <= r && r < end
    } else {
        r >= start || r < end
    }
}

/// Whether the write landing at `land` is dead: no read of the register
/// falls between its landing and the landing of the next write to the
/// same register (cyclically — a write at the end of the frame is live
/// into the next frame's prefix). `timeline` always contains the write
/// at `land` itself; a register with a single write holds its value for
/// the whole loop, so any read at all makes it live.
fn write_is_dead(reads: &[u32], timeline: &[StaticWrite], land: u32, n: u32) -> bool {
    let next = timeline
        .iter()
        .map(|w| w.land)
        .filter(|&l| l != land)
        .min_by_key(|&l| (l + n - land) % n);
    match next {
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

/// The value a read of `key` at cycle `r` observes, when statically
/// known: `(first frame, steady state)`. Registers start at zero; the
/// observed write is the most recent landing ≤ `r`, wrapping to the
/// frame's last landing in steady state. `None` when the reaching
/// write's value is dynamic.
fn read_value(traffic: &StaticTraffic, key: &(String, u32), r: u32) -> Option<(i64, i64)> {
    let Some(timeline) = traffic.writes.get(key) else {
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
    core: &Core,
    dec_a: &[DecodedInstruction],
    dec_b: &[DecodedInstruction],
    traffic_a: &StaticTraffic,
    n: u32,
    start: ((String, u32), u32),
) -> Option<usize> {
    let dp = &core.datapath;
    let mut seen: std::collections::BTreeSet<((String, u32), u32)> =
        std::collections::BTreeSet::new();
    let mut work = vec![start];
    let mut absorbed = 0usize;
    while let Some((key, land)) = work.pop() {
        if !seen.insert((key.clone(), land)) {
            continue;
        }
        let timeline = traffic_a.writes.get(&key)?;
        let next = timeline
            .iter()
            .map(|w| w.land)
            .filter(|&l| l != land)
            .min_by_key(|&l| (l + n - land) % n);
        for t in 0..n {
            let live = match next {
                Some(end) => in_cyclic_interval(t, land, end),
                None => true,
            };
            if !live {
                continue;
            }
            // Readers must agree between the variants (the mutation may
            // touch only the write we started from), and every reader
            // of the tainted interval must be an ACU port.
            for (da, db) in [(dec_a, dec_b), (dec_b, dec_a)] {
                for a in &da[t as usize].actions {
                    let opu = dp.opus().iter().find(|o| o.name() == a.opu)?;
                    let arity = read_arity(a).min(a.operand_regs.len());
                    for (port, &reg) in a.operand_regs.iter().take(arity).enumerate() {
                        let rf = opu.inputs().get(port)?;
                        if rf != &key.0 || reg != key.1 {
                            continue;
                        }
                        if !db[t as usize].actions.contains(a) {
                            return None;
                        }
                        if a.kind != OpuKind::Acu {
                            return None;
                        }
                        match port {
                            0 => absorbed += 1,
                            1 => {
                                let lat = opu.latency_of(&a.op).unwrap_or(1).max(1);
                                for (rf2, reg2) in &a.dests {
                                    work.push(((rf2.clone(), *reg2), (t + lat) % n));
                                }
                            }
                            _ => return None,
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
    core: &Core,
    dec_a: &[DecodedInstruction],
    dec_b: &[DecodedInstruction],
    traffic_b: &StaticTraffic,
    added: bool,
    x: &OpuAction,
) -> bool {
    let reads_ram = |dec: &[DecodedInstruction]| {
        dec.iter()
            .flat_map(|d| d.actions.iter())
            .any(|a| a.opu == x.opu && a.op == "read")
    };
    if reads_ram(dec_a) || reads_ram(dec_b) || !x.dests.is_empty() {
        return false;
    }
    if added {
        let Some(opu) = core.datapath.opus().iter().find(|o| o.name() == x.opu) else {
            return false;
        };
        let Some(rf) = opu.inputs().first() else {
            return false;
        };
        let addr_key = (rf.clone(), *x.operand_regs.first().unwrap_or(&0));
        if opu.memory_size() == 0 || traffic_b.writes.contains_key(&addr_key) {
            return false;
        }
    }
    true
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
/// * two *pure ops* (ALU/MULT/ACU) are equal when op and immediate
///   match and every operand pair proves equal;
/// * two *RAM loads* are equal when their address values prove equal
///   and no write to that RAM issues between the two load instants.
///
/// Chains must never resolve through a register the mutation itself
/// touches (`forbidden`) — the proof is evaluated on the original
/// program and transfers to the mutant only if the mutant agrees on
/// every step.
/// Write sites per register: (landing position in `0..n`, word, action
/// index) for every action that writes it.
type WriteSites = BTreeMap<(String, u32), Vec<(i64, usize, usize)>>;

struct ValueProver<'a> {
    core: &'a Core,
    dec: &'a [DecodedInstruction],
    mc: &'a Microcode,
    n: i64,
    /// Per register: (landing position in `0..n`, word, action index).
    writes: WriteSites,
    /// Issue cycles of RAM writes, per RAM OPU.
    ram_writes: BTreeMap<String, Vec<i64>>,
    budget: std::cell::Cell<u32>,
}

impl<'a> ValueProver<'a> {
    fn new(core: &'a Core, dec: &'a [DecodedInstruction], mc: &'a Microcode) -> Self {
        let dp = &core.datapath;
        let n = dec.len() as i64;
        let mut writes: WriteSites = BTreeMap::new();
        let mut ram_writes: BTreeMap<String, Vec<i64>> = BTreeMap::new();
        for (t, d) in dec.iter().enumerate() {
            for (i, a) in d.actions.iter().enumerate() {
                let Some(opu) = dp.opus().iter().find(|o| o.name() == a.opu) else {
                    continue;
                };
                if a.kind == OpuKind::Ram && a.op == "write" {
                    ram_writes.entry(a.opu.clone()).or_default().push(t as i64);
                }
                let lat = i64::from(opu.latency_of(&a.op).unwrap_or(1).max(1));
                for (rf, reg) in &a.dests {
                    writes.entry((rf.clone(), *reg)).or_default().push((
                        (t as i64 + lat) % n,
                        t,
                        i,
                    ));
                }
            }
        }
        ValueProver {
            core,
            dec,
            mc,
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
    fn issue_of(&self, w: usize, i: usize, abs: i64) -> Option<i64> {
        let a = &self.dec[w].actions[i];
        let opu = self
            .core
            .datapath
            .opus()
            .iter()
            .find(|o| o.name() == a.opu)?;
        Some(abs - i64::from(opu.latency_of(&a.op).unwrap_or(1).max(1)))
    }

    /// Proves that the writes to `key` landing at cycles `land_a` and
    /// `land_b` (both within the current frame) store equal values in
    /// every frame.
    fn same_write(
        &self,
        key: &(String, u32),
        land_a: i64,
        land_b: i64,
        forbidden: &std::collections::BTreeSet<(String, u32)>,
    ) -> bool {
        let Some(sites) = self.writes.get(key) else {
            return false;
        };
        let find = |l: i64| sites.iter().find(|&&(l0, _, _)| l0 == l).copied();
        let (Some((l1, w1, i1)), Some((l2, w2, i2))) = (find(land_a), find(land_b)) else {
            return false;
        };
        let (Some(t1), Some(t2)) = (self.issue_of(w1, i1, l1), self.issue_of(w2, i2, l2)) else {
            return false;
        };
        self.same_output((w1, i1), t1, (w2, i2), t2, forbidden, 12)
    }

    /// The most recent write instance of `key` landing at or before
    /// absolute time `t`: `(absolute landing, word, action index)`.
    fn reach(&self, key: &(String, u32), t: i64) -> Option<(i64, usize, usize)> {
        self.writes
            .get(key)?
            .iter()
            .map(|&(l0, w, i)| {
                let q = (t - l0).div_euclid(self.n);
                (l0 + q * self.n, w, i)
            })
            .max_by_key(|&(abs, _, _)| abs)
    }

    /// Proves the value observed in `k1` at time `t1` equals `k2` at
    /// `t2`, in every frame.
    fn same_observed(
        &self,
        k1: &(String, u32),
        t1: i64,
        k2: &(String, u32),
        t2: i64,
        forbidden: &std::collections::BTreeSet<(String, u32)>,
        depth: u32,
    ) -> bool {
        if depth == 0 || !self.spend() || forbidden.contains(k1) || forbidden.contains(k2) {
            return false;
        }
        match (self.reach(k1, t1), self.reach(k2, t2)) {
            // Never-written registers hold their initial zero forever.
            (None, None) => true,
            (Some((abs1, w1, i1)), Some((abs2, w2, i2))) => {
                if k1 == k2 && abs1 == abs2 {
                    return true; // the same write instance (or the same pre-history zero)
                }
                // Both observations must sit at the same frame depth,
                // so partially-executed early frames agree too.
                if abs1.div_euclid(self.n) != abs2.div_euclid(self.n) {
                    return false;
                }
                let (Some(s1), Some(s2)) =
                    (self.issue_of(w1, i1, abs1), self.issue_of(w2, i2, abs2))
                else {
                    return false;
                };
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
        forbidden: &std::collections::BTreeSet<(String, u32)>,
        depth: u32,
    ) -> bool {
        if depth == 0 || !self.spend() {
            return false;
        }
        if (w1, i1) == (w2, i2) && t1 == t2 {
            return true;
        }
        let (x, y) = (&self.dec[w1].actions[i1], &self.dec[w2].actions[i2]);
        if x.opu != y.opu || x.op != y.op {
            return false;
        }
        let Some(opu) = self.core.datapath.opus().iter().find(|o| o.name() == x.opu) else {
            return false;
        };
        match x.kind {
            OpuKind::ProgConst | OpuKind::Rom => {
                let (vx, vy) = (
                    written_value(opu, x, self.mc),
                    written_value(opu, y, self.mc),
                );
                matches!((vx, vy), (Some(Some(a)), Some(Some(b))) if a == b)
            }
            OpuKind::Alu | OpuKind::Mult | OpuKind::Acu => {
                let arity = read_arity(x).min(x.operand_regs.len());
                if arity != read_arity(y).min(y.operand_regs.len()) || x.imm != y.imm {
                    return false;
                }
                (0..arity).all(|p| {
                    let Some(rf) = opu.inputs().get(p) else {
                        return false;
                    };
                    self.same_observed(
                        &(rf.clone(), x.operand_regs[p]),
                        t1,
                        &(rf.clone(), y.operand_regs[p]),
                        t2,
                        forbidden,
                        depth - 1,
                    )
                })
            }
            OpuKind::Ram if x.op == "read" => {
                let Some(rf) = opu.inputs().first() else {
                    return false;
                };
                if !self.same_observed(
                    &(rf.clone(), *x.operand_regs.first().unwrap_or(&0)),
                    t1,
                    &(rf.clone(), *y.operand_regs.first().unwrap_or(&0)),
                    t2,
                    forbidden,
                    depth - 1,
                ) {
                    return false;
                }
                // No write to this RAM may issue between the two loads.
                let (lo, hi) = (t1.min(t2), t1.max(t2));
                let sites = self
                    .ram_writes
                    .get(&x.opu)
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
    core: &Core,
    dec_a: &[DecodedInstruction],
    dec_b: &[DecodedInstruction],
    traffic_a: &StaticTraffic,
    traffic_b: &StaticTraffic,
    t: u32,
    x: &OpuAction,
) -> Option<u32> {
    let dp = &core.datapath;
    let opu = dp.opus().iter().find(|o| o.name() == x.opu)?;
    let c = (0..t).rev().find(|&c| {
        dec_a[c as usize].actions.contains(x) && dec_b[c as usize].actions.contains(x)
    })?;
    for cycle in c + 1..t {
        for dec in [dec_a, dec_b] {
            for action in &dec[cycle as usize].actions {
                if action.opu == x.opu && action.op == "write" {
                    return None;
                }
            }
        }
    }
    let arity = read_arity(x).min(x.operand_regs.len());
    for (port, &reg) in x.operand_regs.iter().take(arity).enumerate() {
        let key = (opu.inputs().get(port)?.clone(), reg);
        for traffic in [traffic_a, traffic_b] {
            if let Some(timeline) = traffic.writes.get(&key) {
                if timeline.iter().any(|w| w.land > c && w.land <= t) {
                    return None;
                }
            }
        }
    }
    Some(c)
}

/// Tries to *prove* a mutated microcode behaviourally equal to the
/// original, by cyclic dead-store and reaching-constant analysis over
/// the decoded programs. Returns the witness on success, `None` when no
/// proof is found (the caller must then hunt the mutant differentially).
///
/// The proof reduces every per-word difference to a set of register
/// [`WriteImpact`]s — only pure function units (ALU/MULT/ACU/constants/
/// ROM) qualify; any change to RAM, I/O, or an unknown unit voids the
/// proof. Each impact is then discharged by one of:
///
/// * **dead store** — no instruction reads the register between this
///   write's landing and the next overwrite (cyclically); or
/// * **redundant constant** — the added/removed write stores exactly
///   the constant the preceding write (earlier in the same frame, so
///   the first frame behaves identically too) already put there.
fn microcode_witness(compiled: &Compiled, mutated: &Microcode) -> Option<String> {
    let core = &compiled.core;
    let original: &Microcode = &compiled.microcode;
    if original.words.len() != mutated.words.len() || original.rom_image != mutated.rom_image {
        return None;
    }
    let n = u32::try_from(original.words.len()).ok()?;
    let dec_a: Vec<DecodedInstruction> = original
        .words
        .iter()
        .map(|w| decode(w, &original.layout, original.word_format))
        .collect::<Result<_, _>>()
        .ok()?;
    let dec_b: Vec<DecodedInstruction> = mutated
        .words
        .iter()
        .map(|w| decode(w, &mutated.layout, mutated.word_format))
        .collect::<Result<_, _>>()
        .ok()?;
    let traffic_a = static_traffic(core, original, &dec_a)?;
    let traffic_b = static_traffic(core, mutated, &dec_b)?;
    // Liveness is judged against the union of both variants' read sets:
    // sound for whichever variant an impact concerns.
    let mut reads = traffic_a.reads.clone();
    for (key, cycles) in &traffic_b.reads {
        reads
            .entry(key.clone())
            .or_default()
            .extend(cycles.iter().copied());
    }
    let dp = &core.datapath;
    let pure = |kind: OpuKind| {
        matches!(
            kind,
            OpuKind::Alu | OpuKind::Mult | OpuKind::Acu | OpuKind::ProgConst | OpuKind::Rom
        )
    };
    let mut impacts: Vec<((String, u32), u32, WriteImpact)> = Vec::new();
    let mut notes: Vec<String> = Vec::new();
    for t in 0..n as usize {
        let index = |d: &'_ DecodedInstruction| -> BTreeMap<String, OpuAction> {
            d.actions
                .iter()
                .map(|a| (a.opu.clone(), a.clone()))
                .collect()
        };
        let map_a = index(&dec_a[t]);
        let map_b = index(&dec_b[t]);
        if map_a.len() != dec_a[t].actions.len() || map_b.len() != dec_b[t].actions.len() {
            return None; // duplicate OPU in one word — malformed
        }
        let names: std::collections::BTreeSet<&String> = map_a.keys().chain(map_b.keys()).collect();
        for name in names {
            let (a, b) = (map_a.get(name), map_b.get(name));
            if a == b {
                continue;
            }
            let opu = dp.opus().iter().find(|o| o.name() == *name)?;
            let normal = |x: &OpuAction| {
                let arity = read_arity(x).min(x.operand_regs.len());
                (
                    x.op.clone(),
                    x.operand_regs[..arity].to_vec(),
                    x.dests.clone(),
                    x.imm,
                )
            };
            if let (Some(a), Some(b)) = (a, b) {
                if normal(a) == normal(b) {
                    continue; // differs only in unread operand ports
                }
            }
            // An added or dropped RAM write can be an idempotent replay
            // of an identical write earlier in the same frame: with the
            // address and data registers untouched in between and no
            // other write to the same RAM in between, the second write
            // stores exactly what the first already stored, so RAM
            // state is identical at every cycle of every frame.
            if a.is_none() != b.is_none() {
                let x = a.or(b).expect("one side present");
                if x.kind == OpuKind::Ram && x.op == "write" {
                    let side = if a.is_none() { "added" } else { "dropped" };
                    if let Some(c) =
                        ram_write_replay(core, &dec_a, &dec_b, &traffic_a, &traffic_b, t as u32, x)
                    {
                        notes.push(format!(
                            "{side} RAM write on {name} at cycle {t} is an idempotent \
                             replay of the identical write at cycle {c} (address and \
                             data registers unchanged in between)"
                        ));
                        continue;
                    }
                    if ram_write_unobservable(core, &dec_a, &dec_b, &traffic_b, a.is_none(), x) {
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
                    let arity_a = read_arity(a).min(a.operand_regs.len());
                    let arity_b = read_arity(b).min(b.operand_regs.len());
                    a.op == b.op
                        && a.imm == b.imm
                        && arity_a == arity_b
                        && (0..arity_a).all(|port| {
                            if a.operand_regs[port] == b.operand_regs[port] {
                                return true;
                            }
                            let Some(rf) = opu.inputs().get(port) else {
                                return false;
                            };
                            let va = read_value(
                                &traffic_a,
                                &(rf.clone(), a.operand_regs[port]),
                                t as u32,
                            );
                            let vb = read_value(
                                &traffic_b,
                                &(rf.clone(), b.operand_regs[port]),
                                t as u32,
                            );
                            match (va, vb) {
                                (Some(x), Some(y)) if x == y => {
                                    notes.push(format!(
                                        "{name} port {port} at cycle {t} redirected from \
                                         {rf}[{}] to {rf}[{}], but both provably hold the \
                                         same known value at every read (first frame {}, \
                                         steady state {})",
                                        a.operand_regs[port], b.operand_regs[port], x.0, x.1
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
            if !same_value && !a.map_or(b.is_some_and(|x| pure(x.kind)), |x| pure(x.kind)) {
                return None; // RAM / I/O / unknown unit changed — no proof
            }
            let dests = |x: Option<&OpuAction>| -> BTreeMap<(String, u32), (u32, Option<i64>)> {
                x.map(|x| {
                    let lat = opu.latency_of(&x.op).unwrap_or(1).max(1);
                    let value = written_value(opu, x, original).unwrap_or(None);
                    x.dests
                        .iter()
                        .map(|(rf, reg)| ((rf.clone(), *reg), ((t as u32 + lat) % n, value)))
                        .collect()
                })
                .unwrap_or_default()
            };
            let (da, db) = (dests(a), dests(b));
            let keys: std::collections::BTreeSet<&(String, u32)> =
                da.keys().chain(db.keys()).collect();
            for key in keys {
                match (da.get(key), db.get(key)) {
                    (Some(&(land_a, va)), Some(&(land_b, vb))) => {
                        if land_a == land_b {
                            match (va, vb) {
                                _ if same_value => {}
                                (Some(x), Some(y)) if x == y => {}
                                _ => impacts.push((
                                    key.clone(),
                                    land_a,
                                    WriteImpact::ValueChanged { old: va, new: vb },
                                )),
                            }
                        } else {
                            impacts.push((key.clone(), land_a, WriteImpact::Removed { value: va }));
                            impacts.push((key.clone(), land_b, WriteImpact::Added { value: vb }));
                        }
                    }
                    (Some(&(land, value)), None) => {
                        impacts.push((key.clone(), land, WriteImpact::Removed { value }));
                    }
                    (None, Some(&(land, value))) => {
                        impacts.push((key.clone(), land, WriteImpact::Added { value }));
                    }
                    (None, None) => unreachable!(),
                }
            }
        }
    }
    let mut witness: Vec<String> = Vec::new();
    let impacted: std::collections::BTreeSet<(String, u32)> =
        impacts.iter().map(|(k, _, _)| k.clone()).collect();
    let provers = (!impacts.is_empty()).then(|| {
        (
            ValueProver::new(core, &dec_a, original),
            ValueProver::new(core, &dec_b, mutated),
        )
    });
    for ((rf, reg), land, impact) in impacts {
        let key = (rf.clone(), reg);
        let timeline = match impact {
            WriteImpact::Added { .. } => traffic_b.writes.get(&key)?,
            _ => traffic_a.writes.get(&key)?,
        };
        let read_cycles = reads.get(&key).map(Vec::as_slice).unwrap_or(&[]);
        if write_is_dead(read_cycles, timeline, land, n) {
            witness.push(format!(
                "write to {rf}[{reg}] landing at cycle {land} is a dead store \
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
                    let sites = congruence_absorbed(
                        core,
                        &dec_a,
                        &dec_b,
                        &traffic_a,
                        n,
                        ((rf.clone(), reg), land),
                    )?;
                    witness.push(format!(
                        "constant delta {delta} on {rf}[{reg}] landing at cycle {land} is \
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
                        "write of constant {v} to {rf}[{reg}] at cycle {land} is redundant \
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
                if prover.same_write(&key, i64::from(land), i64::from(prev.land), &impacted) {
                    witness.push(format!(
                        "write to {rf}[{reg}] landing at cycle {land} is a redundant \
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
