//! `dspcc` — retargetable code generation for in-house DSP cores.
//!
//! A from-scratch reproduction of *"Efficient Code Generation for In-House
//! DSP-Cores"* (M. Strik, J. van Meerbergen, A. Timmer, J. Jess, S. Note —
//! DATE 1995). Philips' in-house cores are small application-domain VLIW
//! DSPs (digital audio, DECT, GSM); the paper shows how to retarget ASIC
//! high-level-synthesis technology into a code generator for such a core
//! by (1) generating *register transfers* from the source, (2) *modifying*
//! them — merging resources and installing the instruction set as
//! artificial resource conflicts computed from a clique cover of an RT
//! class conflict graph — and (3) scheduling the result into VLIW
//! instructions under a hard cycle budget.
//!
//! This crate is the driver tying the substrates together:
//!
//! * [`Core`] — an in-house core definition: datapath + controller +
//!   instruction set (paper section 5 + 6);
//! * [`Compiler`] — the figure-1b pipeline: RT generation → RT
//!   modification → scheduling → register allocation → instruction
//!   encoding, with the feasibility feedback the paper's methodology
//!   revolves around;
//! * [`CompileSession`] / [`stages`] — the pipeline as individually
//!   invokable stages whose `Arc`-shared artifacts are memoized by
//!   content fingerprint, so the paper's design-iteration cycle (figure
//!   1) reuses everything a changed option does not invalidate;
//! * [`explore`] — parallel design-space exploration: a [`DesignSpace`]
//!   grid of cores × budgets × covers × priorities × CSE swept through
//!   one shared session into a deterministic feasibility table;
//! * [`codesign`] — the HW/SW co-design Pareto search: seeded cores,
//!   cross-core unions, and intra-core merge moves scored on (corpus
//!   cycles, hardware cost), every frontier point verified bit-exact
//!   against the golden model;
//! * [`cores`] — ready-made cores: the figure-8 digital-audio core (with
//!   the section-7 instruction set), a teaching-sized core, an
//!   intermediate-architecture variant for merging experiments, and
//!   seeded random-but-valid cores ([`cores::generated_core`]);
//! * [`conform`] — the cross-core differential conformance fleet: a seed
//!   block × the application corpus, each cell compiled and pinned
//!   bit-exact against the `dspcc_dfg::Interpreter` golden model — any
//!   `Mismatch` cell is a compiler bug by construction;
//! * [`fault`] / [`fault_io`] — seeded audits of the oracle and of the
//!   cache: every injected artifact fault is detected or proven benign,
//!   and no injected I/O fault ever serves a wrong artifact;
//! * [`cache`] / [`service`] — the crash-safe on-disk artifact cache and
//!   a bounded, panic-containing compile service over one session;
//! * [`apps`] — ready-made applications: the figure-7 stereo audio
//!   application and parametric filter generators.
//!
//! The five sweeps (exploration, fleet, co-design and both audits) share
//! one crate-private harness: a deterministic fan-out, panic containment
//! and the per-cell compile policy [`CompileOptions::sweep_cell`].
//!
//! # Quickstart
//!
//! ```
//! use dspcc::{cores, Compiler};
//!
//! let core = cores::tiny_core();
//! let compiled = Compiler::new(&core)
//!     .budget(16)
//!     .compile("input u; coeff k = 0.5; output y; y = add_clip(mlt(k, u), u);")?;
//! assert!(compiled.schedule.length() <= 16);
//! // Execute the generated microcode cycle-accurately:
//! let mut sim = compiled.simulator()?;
//! let out = sim.step_frame(&[1000])?;
//! assert_eq!(out, vec![1500]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod apps;
pub mod cache;
pub mod codesign;
pub mod conform;
pub mod cores;
pub mod explore;
pub mod fault;
pub mod fault_io;
mod pipeline;
pub mod service;
mod session;
pub mod stages;
mod sweep;

pub use cache::{
    CacheBackend, CacheStats, ChaosBackend, DiskCache, IoFaultKind, StdFs, TransientPolicy,
};
pub use codesign::{Codesign, CodesignReport, DesignPoint, HwCost, PointMetrics, PointOutcome};
pub use conform::{CellOutcome, ConformCell, ConformFleet, ConformReport};
pub use explore::{DesignSpace, Exploration, VariantMetrics, VariantRow};
pub use fault::{FaultAudit, FaultCell, FaultOutcome, FaultReport, MutationKind};
pub use fault_io::{IoFaultAudit, IoFaultCell, IoFaultOutcome, IoFaultReport};
pub use pipeline::{ArtifactDivergence, CompileError, CompileStats, Compiled, Compiler, Core};
pub use service::{CompileService, Rejected, ServiceConfig, ServiceOutcome, ServiceStats, Ticket};
pub use session::{CompileOptions, CompileSession};

// Re-export the substrate crates under one roof, the way a user consumes
// the workspace.
pub use dspcc_arch as arch;
pub use dspcc_dfg as dfg;
pub use dspcc_encode as encode;
pub use dspcc_graph as graph;
pub use dspcc_ir as ir;
pub use dspcc_isa as isa;
pub use dspcc_num as num;
pub use dspcc_rtgen as rtgen;
pub use dspcc_sched as sched;
pub use dspcc_sim as sim;
