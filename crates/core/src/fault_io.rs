//! Chaos-injected I/O audit — auditing the *cache recovery machinery*,
//! not the compiler.
//!
//! The persistent artifact cache ([`crate::cache`]) makes one promise:
//! a corrupt or misbehaving cache can cost time but can never corrupt
//! output. This module tests that promise the way [`crate::fault`]
//! tests the conformance oracle — by construction. A seeded
//! [`ChaosBackend`] injects one I/O fault kind per cell (torn write,
//! flipped byte, ENOSPC, delayed read, vanished file, transient read
//! error) under a real [`DiskCache`], and two compile sessions run over
//! it: a cold one that populates the (sabotaged) cache, then a fresh
//! one that warm-starts from whatever the chaos left on disk. Both
//! results are compared bit-for-bit — microcode words, ROM image,
//! schedule, register assignment — against a chaos-free reference
//! compile.
//!
//! Every cell must end in exactly one of:
//!
//! * **Recovered-with-witness** — both compiles are bit-identical to
//!   the reference, *and* the cell can prove it actually saw chaos: the
//!   injected-fault count plus the cache's recovery counters
//!   (quarantines, read errors, store errors) form the witness. A cell
//!   that recovered without evidence of injection proves nothing and is
//!   a harness failure;
//! * **Typed error** — the compile surfaced a typed
//!   [`crate::CompileError`] (e.g. `CacheIo` under
//!   [`TransientPolicy::Fail`]) instead of an artifact;
//! * **Wrong artifact** — a compile *served* something that differs
//!   from the reference. This is the one forbidden state: a silent
//!   wrong-artifact serve means the entry validation let corruption
//!   through, and the pinned audit (`tests/io_fault.rs`) holds it at
//!   zero over the full grid.
//!
//! Determinism: every cell's chaos draws come from
//! [`dspcc_arch::SplitMix64::substream`]`(seed, fnv("chaos-io", kind))`,
//! cells get
//! private cache directories, and compiles run with deterministic
//! options, so the report is identical for every thread count.

use std::fmt;
use std::path::Path;
use std::sync::Arc;

use crate::cache::{
    CacheBackend, CacheStats, ChaosBackend, DiskCache, IoFaultKind, StdFs, TransientPolicy,
};
use crate::pipeline::{ArtifactDivergence, Compiled, Core};
use crate::session::{CompileOptions, CompileSession};
use crate::sweep;

/// The verdict on one chaos cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoFaultOutcome {
    /// Both the cold and the warm-from-disk compile were bit-identical
    /// to the chaos-free reference, and the cell proved it saw chaos.
    Recovered {
        /// The proof: injected-fault count and the recovery counters
        /// that absorbed them.
        witness: String,
    },
    /// The compile resolved to a typed error instead of an artifact —
    /// an honest failure, never a wrong serve.
    TypedError {
        /// The error's rendering.
        error: String,
    },
    /// A compile served an artifact that differs from the reference —
    /// the forbidden state the audit exists to pin at zero.
    WrongArtifact {
        /// Which artifact diverged, and in which session.
        detail: String,
    },
    /// The cell could not be armed (the app does not compile on the
    /// audit core even without chaos).
    Skipped {
        /// Why.
        reason: String,
    },
}

impl IoFaultOutcome {
    /// Whether this cell ended in the forbidden state.
    pub fn is_wrong_artifact(&self) -> bool {
        matches!(self, IoFaultOutcome::WrongArtifact { .. })
    }

    /// Whether this cell recovered with a witness.
    pub fn is_recovered(&self) -> bool {
        matches!(self, IoFaultOutcome::Recovered { .. })
    }
}

/// One audited `(seed, app, kind)` cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoFaultCell {
    /// Chaos seed.
    pub seed: u64,
    /// Corpus app name.
    pub app: String,
    /// The injected fault kind.
    pub kind: IoFaultKind,
    /// The verdict.
    pub outcome: IoFaultOutcome,
}

/// A seeded chaos audit over the persistent cache: seeds × apps × I/O
/// fault kinds, run in parallel with per-cell panic containment and
/// per-cell private cache directories.
///
/// # Example
///
/// ```no_run
/// use dspcc::fault_io::IoFaultAudit;
///
/// let report = IoFaultAudit::new().seed_range(0..4).standard_corpus().run();
/// assert_eq!(report.wrong_artifacts().count(), 0, "{report}");
/// ```
#[derive(Debug, Clone)]
pub struct IoFaultAudit {
    core: Arc<Core>,
    seeds: Vec<u64>,
    apps: Vec<(String, String)>,
    kinds: Vec<IoFaultKind>,
    threads: usize,
    options: CompileOptions,
}

impl Default for IoFaultAudit {
    fn default() -> Self {
        IoFaultAudit {
            // Same posture as `FaultAudit`: a fixed, fully-featured core
            // so every (seed, app) compiles and the seed axis is pure
            // chaos diversity.
            core: Arc::new(crate::cores::audio_core()),
            seeds: Vec::new(),
            apps: Vec::new(),
            kinds: IoFaultKind::ALL.to_vec(),
            threads: 0,
            options: CompileOptions::sweep_cell(),
        }
    }
}

impl IoFaultAudit {
    /// An empty audit on the default (audio) core.
    pub fn new() -> Self {
        IoFaultAudit::default()
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

    /// Restricts the fault kinds (default: all six).
    pub fn kinds(mut self, kinds: impl IntoIterator<Item = IoFaultKind>) -> Self {
        self.kinds = kinds.into_iter().collect();
        assert!(!self.kinds.is_empty(), "kind dimension must be non-empty");
        self
    }

    /// Worker threads: `0` (default) one per available core, `1` serial.
    /// The report is identical for every setting.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Overrides the compile options of the audited compiles.
    pub fn options(mut self, options: CompileOptions) -> Self {
        self.options = options;
        self
    }

    /// Runs the audit: every `(seed, app, kind)` cell, in deterministic
    /// (seed, app, kind) order.
    ///
    /// # Panics
    ///
    /// Panics if the audit has no seeds or no apps.
    pub fn run(&self) -> IoFaultReport {
        assert!(!self.seeds.is_empty(), "audit needs at least one seed");
        assert!(!self.apps.is_empty(), "audit needs at least one app");
        // Chaos-free reference compiles, once per app through a shared
        // cache-less session: the bit-identity baseline for every cell.
        let session = CompileSession::new();
        let reference: Vec<Result<Compiled, String>> = self
            .apps
            .iter()
            .map(|(_, source)| {
                session
                    .compile(&self.core, source, &self.options)
                    .map_err(|e| e.to_string())
            })
            .collect();
        let audit_root = std::env::temp_dir().join(format!(
            "dspcc-io-audit-{}-{:x}",
            std::process::id(),
            // Distinguish concurrent audits in one process.
            &raw const session as usize
        ));
        let cells: Vec<(u64, usize, IoFaultKind)> = self
            .seeds
            .iter()
            .flat_map(|&seed| {
                (0..self.apps.len())
                    .flat_map(move |a| self.kinds.iter().map(move |&kind| (seed, a, kind)))
            })
            .collect();
        let cells = sweep::fan_out(self.threads, &cells, |&(seed, a, kind)| {
            let (app, source) = &self.apps[a];
            let outcome = match &reference[a] {
                Ok(reference) => {
                    let dir = audit_root.join(format!("{seed:x}-{app}-{kind}"));
                    // A panic anywhere in the cell is a typed outcome.
                    let outcome =
                        sweep::contain(|| self.run_cell(reference, source, seed, kind, &dir))
                            .unwrap_or_else(|msg| IoFaultOutcome::TypedError {
                                error: format!("panicked mid-cell (contained): {msg}"),
                            });
                    let _ = std::fs::remove_dir_all(&dir);
                    outcome
                }
                Err(e) => IoFaultOutcome::Skipped {
                    reason: format!("app does not compile on the audit core: {e}"),
                },
            };
            IoFaultCell {
                seed,
                app: app.clone(),
                kind,
                outcome,
            }
        });
        let _ = std::fs::remove_dir_all(&audit_root);
        IoFaultReport { cells }
    }

    /// One cell: a cold compile populating a chaos-backed cache, then a
    /// fresh session warm-starting from the sabotaged disk, both
    /// compared bit-for-bit against the reference.
    fn run_cell(
        &self,
        reference: &Compiled,
        source: &str,
        seed: u64,
        kind: IoFaultKind,
        dir: &Path,
    ) -> IoFaultOutcome {
        let chaos = Arc::new(ChaosBackend::new(Arc::new(StdFs), kind, seed));
        let backend: Arc<dyn CacheBackend> = Arc::clone(&chaos) as _;
        let cache = Arc::new(
            DiskCache::with_backend(dir, backend).transient_policy(TransientPolicy::Recompute),
        );
        // The cold pass populates the cache through the fault injector.
        // The warm pass, a *fresh* session (empty memo), must rebuild the
        // compile from whatever the chaos left on disk — valid entries,
        // torn entries, flipped bytes, vanished files — and still land
        // bit-identical.
        for pass in ["cold pass", "warm-from-disk pass"] {
            let session = CompileSession::with_disk_cache(Arc::clone(&cache));
            match session.compile(&self.core, source, &self.options) {
                Ok(compiled) => {
                    if let Some(part) = compiled.diverges_from(reference) {
                        let detail = match part {
                            ArtifactDivergence::MicrocodeWords => "microcode words differ",
                            ArtifactDivergence::RomImage => "ROM image differs",
                            ArtifactDivergence::Schedule => "schedule differs",
                            ArtifactDivergence::RegisterMapping => "register assignment differs",
                        };
                        return IoFaultOutcome::WrongArtifact {
                            detail: format!("{pass}: {detail} from the chaos-free reference"),
                        };
                    }
                }
                Err(e) => {
                    return IoFaultOutcome::TypedError {
                        error: format!("{pass}: {e}"),
                    }
                }
            }
        }
        // Both passes served the right artifact. That only counts as
        // *recovery* if the cell can prove faults were actually
        // injected and absorbed.
        let injected = chaos.injected();
        if injected == 0 {
            return IoFaultOutcome::WrongArtifact {
                detail: format!(
                    "harness failure: no {kind} fault was injected — the cell proves nothing"
                ),
            };
        }
        IoFaultOutcome::Recovered {
            witness: witness(kind, injected, cache.stats()),
        }
    }
}

/// The recovery proof: which counters absorbed the injected faults.
fn witness(kind: IoFaultKind, injected: u64, stats: CacheStats) -> String {
    format!(
        "{injected} {kind} fault(s) injected; absorbed by: {} quarantined, {} read \
         error(s), {} store error(s), {} miss(es), {} hit(s), {} store(s)",
        stats.quarantined,
        stats.read_errors,
        stats.store_errors,
        stats.misses,
        stats.hits,
        stats.stores
    )
}

/// The audit table: one cell per `(seed, app, kind)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoFaultReport {
    /// All cells, in deterministic (seed, app, kind) order.
    pub cells: Vec<IoFaultCell>,
}

impl IoFaultReport {
    /// Cells that recovered with a witness.
    pub fn recovered(&self) -> impl Iterator<Item = &IoFaultCell> {
        self.cells.iter().filter(|c| c.outcome.is_recovered())
    }

    /// Cells that ended in a typed error.
    pub fn typed_errors(&self) -> impl Iterator<Item = &IoFaultCell> {
        self.cells
            .iter()
            .filter(|c| matches!(c.outcome, IoFaultOutcome::TypedError { .. }))
    }

    /// Cells that served a wrong artifact — each one a cache-validation
    /// bug (the pinned audit holds this at zero).
    pub fn wrong_artifacts(&self) -> impl Iterator<Item = &IoFaultCell> {
        self.cells.iter().filter(|c| c.outcome.is_wrong_artifact())
    }

    /// Cells that could not be armed.
    pub fn skipped(&self) -> impl Iterator<Item = &IoFaultCell> {
        self.cells
            .iter()
            .filter(|c| matches!(c.outcome, IoFaultOutcome::Skipped { .. }))
    }
}

impl fmt::Display for IoFaultReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<12} {:>6} {:>10} {:>11} {:>6} {:>8}",
            "kind", "cells", "recovered", "typed-error", "wrong", "skipped"
        )?;
        for kind in IoFaultKind::ALL {
            let of_kind: Vec<&IoFaultCell> = self.cells.iter().filter(|c| c.kind == kind).collect();
            if of_kind.is_empty() {
                continue;
            }
            writeln!(
                f,
                "{:<12} {:>6} {:>10} {:>11} {:>6} {:>8}",
                kind.name(),
                of_kind.len(),
                of_kind.iter().filter(|c| c.outcome.is_recovered()).count(),
                of_kind
                    .iter()
                    .filter(|c| matches!(c.outcome, IoFaultOutcome::TypedError { .. }))
                    .count(),
                of_kind
                    .iter()
                    .filter(|c| c.outcome.is_wrong_artifact())
                    .count(),
                of_kind
                    .iter()
                    .filter(|c| matches!(c.outcome, IoFaultOutcome::Skipped { .. }))
                    .count(),
            )?;
        }
        for cell in self.wrong_artifacts() {
            writeln!(
                f,
                "WRONG-ARTIFACT seed={:#x} app={} kind={}: {}",
                cell.seed,
                cell.app,
                cell.kind,
                match &cell.outcome {
                    IoFaultOutcome::WrongArtifact { detail } => detail.as_str(),
                    _ => unreachable!(),
                }
            )?;
        }
        write!(
            f,
            "{} cells: {} recovered, {} typed error(s), {} wrong artifact(s), {} skipped",
            self.cells.len(),
            self.recovered().count(),
            self.typed_errors().count(),
            self.wrong_artifacts().count(),
            self.skipped().count(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_audit_recovers_every_cell() {
        let report = IoFaultAudit::new()
            .seed_range(0..2)
            .app("fir4", crate::apps::fir(4))
            .run();
        assert_eq!(report.cells.len(), 12);
        assert_eq!(report.wrong_artifacts().count(), 0, "{report}");
        assert_eq!(report.skipped().count(), 0, "{report}");
        // Every kind actually injected and recovered.
        assert!(report.recovered().count() > 0, "{report}");
    }

    #[test]
    fn audit_is_deterministic_across_thread_counts() {
        let audit = IoFaultAudit::new()
            .seed_range(0..2)
            .app("sop4", crate::apps::sum_of_products(4))
            .kinds([
                IoFaultKind::TornWrite,
                IoFaultKind::FlipByte,
                IoFaultKind::Vanish,
            ]);
        let serial = audit.clone().threads(1).run();
        let parallel = audit.threads(4).run();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn recovered_cells_state_a_witness() {
        let report = IoFaultAudit::new()
            .seed_range(0..1)
            .app("fir4", crate::apps::fir(4))
            .run();
        for cell in report.recovered() {
            match &cell.outcome {
                IoFaultOutcome::Recovered { witness } => {
                    assert!(witness.contains("injected"), "{witness}")
                }
                _ => unreachable!(),
            }
        }
    }
}
