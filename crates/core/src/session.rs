//! Artifact-cached compilation sessions — the paper's iteration cycle as
//! a first-class object.
//!
//! Figure 1 of the paper is not a one-shot compiler but a loop: the
//! designer re-compiles the same application while varying budgets,
//! priorities, cover strategies and cores until the feasibility feedback
//! is clean. A [`CompileSession`] makes that loop cheap: every pipeline
//! stage ([`crate::stages`]) is memoized under a content fingerprint of
//! exactly the inputs it reads, so a re-compile with only schedule-stage
//! options changed (budget / priority / restarts) reuses the lowering,
//! the ISA modification, the dependence graph and the conflict matrix —
//! roughly the front 40% of a cold compile — and a repeat of an identical
//! variant is nearly free. [`crate::CompileStats::cache_hits`] reports how
//! many stages were served from cache on each compile.
//!
//! Sessions are `Sync`: the memo sits behind a mutex that is **never held
//! while a stage computes**, so the design-space exploration driver
//! ([`crate::explore`]) can drive one shared session from many worker
//! threads. Two threads racing on the same cold key may both compute the
//! artifact; stages are deterministic, so both results are bit-identical
//! and the first one wins the cache slot.
//!
//! The memo is **unbounded**: every distinct stage key retains its
//! artifact for the session's lifetime (that retention is what makes a
//! sweep's variants share work). A session is meant to be scoped to one
//! design loop; for very long-lived loops over ever-changing options,
//! call [`CompileSession::clear`] between phases or start a fresh
//! session.
//!
//! ```
//! use std::sync::Arc;
//! use dspcc::{cores, CompileOptions, CompileSession};
//!
//! let session = CompileSession::new();
//! let core = Arc::new(cores::tiny_core());
//! let src = "input u; coeff k = 0.5; output y; y = add_clip(mlt(k, u), u);";
//! let cold = session.compile(&core, src, &CompileOptions::default())?;
//! assert_eq!(cold.stats.cache_hits, 0);
//! // Re-schedule under a budget: the frontend and analysis stages hit.
//! let opts = CompileOptions { budget: Some(16), ..CompileOptions::default() };
//! let warm = session.compile(&core, src, &opts)?;
//! assert!(warm.stats.cache_hits >= 4);
//! # Ok::<(), dspcc::CompileError>(())
//! ```

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use dspcc_dfg::Dfg;
use dspcc_sched::list::Priority;
use dspcc_sched::Scheduler;

use crate::cache::{self, DiskCache, Load, TransientPolicy};
use crate::pipeline::{CompileError, CompileStats, Compiled, Core};
use crate::stages::{
    self, AnalysisArtifact, EncodeArtifact, FrontendArtifact, LowerArtifact, ModifyArtifact,
    RegallocArtifact, ScheduleArtifact,
};

/// Every pipeline option, detached from the [`crate::Compiler`] builder so
/// sessions and the exploration driver can construct variants directly.
///
/// Defaults match [`crate::Compiler::new`]: no explicit budget (the
/// controller's program depth still caps the schedule), slack priority,
/// constant CSE off, compacting restart scheduler.
///
/// Five fields select the scheduler and its option;
/// [`CompileOptions::scheduler`] says which of them count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileOptions {
    /// Hard cycle budget; `None` caps at the controller's program depth.
    pub budget: Option<u32>,
    /// List-scheduling priority function (read only without `exact` and
    /// `compaction`).
    pub priority: Priority,
    /// Merge identical constant fetches.
    pub cse_constants: bool,
    /// Use the exact branch-and-bound scheduler.
    pub exact: bool,
    /// Node limit for the exact scheduler.
    pub exact_max_nodes: u64,
    /// Restart count for the compacting scheduler's search.
    pub restarts: u32,
    /// The compacting scheduler (restarts and justification) rather than
    /// one list pass; ignored under `exact`.
    pub compaction: bool,
    /// Selects nothing: every scheduler runs on the calling thread. The
    /// field is kept only so existing struct literals that name it still
    /// compile; it will be removed.
    pub sched_threads: usize,
    /// Deterministic compute budget for the scheduling search, in work
    /// units (one unit = one attempt, justification pass, or
    /// branch-and-bound node — never wall-clock). `None` = unlimited.
    /// Exhaustion degrades gracefully: the compile returns its
    /// best-so-far schedule plus a [`dspcc_sched::Degradation`] report on
    /// the stats.
    pub fuel: Option<u64>,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            budget: None,
            priority: Priority::Slack,
            cse_constants: false,
            exact: false,
            exact_max_nodes: 2_000_000,
            restarts: 6,
            compaction: true,
            sched_threads: 0,
            fuel: None,
        }
    }
}

impl CompileOptions {
    /// The scheduler these options select, with the one option it reads:
    /// `exact` picks the exact scheduler, else `compaction` the
    /// compacting one, else one list pass under `priority`. The
    /// scheduling stage runs it and its key hashes it, so a scheduler
    /// field the selected scheduler does not read changes nothing.
    pub fn scheduler(&self) -> Scheduler {
        if self.exact {
            Scheduler::Exact {
                max_nodes: self.exact_max_nodes,
            }
        } else if self.compaction {
            Scheduler::Compacting {
                restarts: self.restarts,
            }
        } else {
            Scheduler::List {
                priority: self.priority,
            }
        }
    }
}

/// One memo table: stage key → the artifact (or the stage's deterministic
/// failure, cached so a sweep doesn't re-derive the same feasibility
/// verdict for every variant sharing the failing prefix).
type Memo<A> = HashMap<u64, Result<Arc<A>, CompileError>>;

#[derive(Default)]
struct SessionMemo {
    frontend: Memo<FrontendArtifact>,
    lower: Memo<LowerArtifact>,
    modify: Memo<ModifyArtifact>,
    analysis: Memo<AnalysisArtifact>,
    schedule: Memo<ScheduleArtifact>,
    regalloc: Memo<RegallocArtifact>,
    encode: Memo<EncodeArtifact>,
}

impl SessionMemo {
    fn len(&self) -> usize {
        self.frontend.len()
            + self.lower.len()
            + self.modify.len()
            + self.analysis.len()
            + self.schedule.len()
            + self.regalloc.len()
            + self.encode.len()
    }
}

/// A staged compilation session: memoizes stage artifacts by content
/// fingerprint across [`CompileSession::compile`] calls. See the
/// [module docs](self).
#[derive(Default)]
pub struct CompileSession {
    memo: Mutex<SessionMemo>,
    disk: Option<Arc<DiskCache>>,
}

impl CompileSession {
    /// An empty session.
    pub fn new() -> Self {
        CompileSession::default()
    }

    /// An empty session backed by a persistent [`DiskCache`]: the
    /// schedule and encode artifacts — the expensive tail of the
    /// pipeline — are additionally serialized to `cache` under their
    /// stage fingerprints, so a *fresh* session (new process, post-crash
    /// restart) warm-starts from disk. Entries are checksummed and
    /// version-tagged; anything that fails validation is quarantined and
    /// recomputed, so a corrupt cache costs time, never correctness.
    pub fn with_disk_cache(cache: Arc<DiskCache>) -> Self {
        CompileSession {
            memo: Mutex::default(),
            disk: Some(cache),
        }
    }

    /// The persistent cache this session is backed by, if any.
    pub fn disk_cache(&self) -> Option<&Arc<DiskCache>> {
        self.disk.as_ref()
    }

    /// Locks the memo. A poisoned lock is recovered, not propagated: every
    /// write under it is a single `entry().or_insert_with` or a
    /// replacement of the whole memo, so a panic on another thread cannot
    /// leave a table half-written, and one panicking caller must not take
    /// down every later compile on the session.
    fn memo(&self) -> MutexGuard<'_, SessionMemo> {
        self.memo.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of cached stage artifacts (all stages summed).
    pub fn cached_artifacts(&self) -> usize {
        self.memo().len()
    }

    /// Drops every cached artifact.
    pub fn clear(&self) {
        *self.memo() = SessionMemo::default();
    }

    /// Looks up `key` in the stage table selected by `table`, computing
    /// and caching on miss. The lock is released while `compute` runs.
    fn memoize<A>(
        &self,
        table: impl Fn(&mut SessionMemo) -> &mut Memo<A>,
        key: u64,
        hits: &mut u32,
        compute: impl FnOnce() -> Result<A, CompileError>,
    ) -> Result<Arc<A>, CompileError> {
        if let Some(cached) = table(&mut self.memo()).get(&key) {
            *hits += 1;
            return cached.clone();
        }
        let result = compute().map(Arc::new);
        // Cancellation is a property of *this caller's* token, not of the
        // stage inputs: caching it would poison the key for every later
        // compile. Deterministic failures stay cached.
        if !matches!(result, Err(CompileError::Cancelled)) {
            table(&mut self.memo())
                .entry(key)
                .or_insert_with(|| result.clone());
        }
        result
    }

    /// As [`CompileSession::memoize`], with a disk tier between the memo
    /// and the compute: a memo miss consults the persistent cache (when
    /// configured), and a computed artifact is serialized back to it.
    ///
    /// Recovery ladder on the disk path: a validation failure was already
    /// quarantined by [`DiskCache::load`]; a checksum-*passing* payload
    /// that fails `decode` (format drift within one entry version) is
    /// quarantined here; both fall through to recompute. A *transient*
    /// backend error recomputes under [`TransientPolicy::Recompute`] or
    /// surfaces as [`CompileError::CacheIo`] (never memo-cached) under
    /// [`TransientPolicy::Fail`] so the compile service can retry with
    /// backoff instead of stampeding recomputes onto a sick disk.
    #[allow(clippy::too_many_arguments)]
    fn memoize_persistent<A>(
        &self,
        table: impl Fn(&mut SessionMemo) -> &mut Memo<A>,
        stage: &'static str,
        key: u64,
        hits: &mut u32,
        disk_hits: &mut u32,
        decode: impl Fn(&[u8]) -> Result<A, String>,
        encode: impl Fn(&A) -> Vec<u8>,
        compute: impl FnOnce() -> Result<A, CompileError>,
    ) -> Result<Arc<A>, CompileError> {
        if let Some(cached) = table(&mut self.memo()).get(&key) {
            *hits += 1;
            return cached.clone();
        }
        if let Some(disk) = &self.disk {
            match disk.load(stage, key) {
                Load::Hit(payload) => match decode(&payload) {
                    Ok(artifact) => {
                        let artifact = Arc::new(artifact);
                        *hits += 1;
                        *disk_hits += 1;
                        table(&mut self.memo())
                            .entry(key)
                            .or_insert_with(|| Ok(Arc::clone(&artifact)));
                        return Ok(artifact);
                    }
                    Err(reason) => disk.quarantine(stage, key, &payload, &reason),
                },
                Load::Miss | Load::Corrupt => {}
                Load::Transient(e) => {
                    if disk.policy() == TransientPolicy::Fail {
                        return Err(CompileError::CacheIo(e));
                    }
                }
            }
        }
        let result = compute().map(Arc::new);
        if let (Some(disk), Ok(artifact)) = (&self.disk, &result) {
            disk.store(stage, key, &encode(artifact));
        }
        if !matches!(result, Err(CompileError::Cancelled)) {
            table(&mut self.memo())
                .entry(key)
                .or_insert_with(|| result.clone());
        }
        result
    }

    /// Runs the full pipeline on `source` for `core`, reusing every cached
    /// stage whose fingerprint matches.
    ///
    /// # Errors
    ///
    /// Returns the first stage failure as [`CompileError`], exactly like
    /// [`crate::Compiler::compile`] (cached failures included).
    pub fn compile(
        &self,
        core: &Arc<Core>,
        source: &str,
        options: &CompileOptions,
    ) -> Result<Compiled, CompileError> {
        self.compile_inner(core, source, options, None)
    }

    /// As [`CompileSession::compile`], under a cooperative cancellation
    /// token. The token is polled at every stage boundary and inside the
    /// scheduling search (round barriers, branch-and-bound nodes); a
    /// raised token aborts with [`CompileError::Cancelled`], whose result
    /// is **never cached** — the session stays healthy for later
    /// compiles of the same variant.
    ///
    /// The token travels out-of-band rather than inside [`CompileOptions`]
    /// because options are hashed into stage keys and a cancellation flag
    /// is not an input of any stage's output.
    ///
    /// # Errors
    ///
    /// See [`CompileSession::compile`], plus [`CompileError::Cancelled`].
    pub fn compile_cancellable(
        &self,
        core: &Arc<Core>,
        source: &str,
        options: &CompileOptions,
        cancel: &dspcc_sched::CancelToken,
    ) -> Result<Compiled, CompileError> {
        self.compile_inner(core, source, options, Some(cancel))
    }

    fn compile_inner(
        &self,
        core: &Arc<Core>,
        source: &str,
        options: &CompileOptions,
        cancel: Option<&dspcc_sched::CancelToken>,
    ) -> Result<Compiled, CompileError> {
        let mut hits = 0u32;
        let frontend = self.memoize(
            |m| &mut m.frontend,
            stages::source_fingerprint(source),
            &mut hits,
            || stages::run_frontend(source),
        )?;
        let frontend_hit = hits > 0;
        self.compile_stages(core, &frontend, options, hits, frontend_hit, cancel)
    }

    /// As [`CompileSession::compile`], from an already-built signal-flow
    /// graph (keyed by graph content — no source text involved).
    ///
    /// # Errors
    ///
    /// See [`CompileSession::compile`].
    pub fn compile_dfg(
        &self,
        core: &Arc<Core>,
        dfg: &Arc<Dfg>,
        options: &CompileOptions,
    ) -> Result<Compiled, CompileError> {
        let frontend = Arc::new(stages::frontend_from_dfg(Arc::clone(dfg)));
        self.compile_stages(core, &frontend, options, 0, false, None)
    }

    fn compile_stages(
        &self,
        core: &Arc<Core>,
        frontend: &Arc<FrontendArtifact>,
        options: &CompileOptions,
        mut hits: u32,
        frontend_hit: bool,
        cancel: Option<&dspcc_sched::CancelToken>,
    ) -> Result<Compiled, CompileError> {
        // Stage-boundary cancellation check: one closure, called before
        // each stage dispatch below.
        let check_cancel = || match cancel {
            Some(c) if c.is_cancelled() => Err(CompileError::Cancelled),
            _ => Ok(()),
        };
        // Stage timings in the stats reflect *this* compile: a stage
        // served from cache cost nothing here, so it reports zero and
        // bumps `cache_hits` instead. `charged` zeroes an artifact's
        // recorded time when the memo lookup that produced it hit.
        use std::time::Duration;
        let charged = |hits_before: u32, hits_after: u32, time: Duration| {
            if hits_after > hits_before {
                Duration::ZERO
            } else {
                time
            }
        };
        let lkey = stages::lower_key(frontend.dfg_fp, core, options);
        let h = hits;
        check_cancel()?;
        let lowered = self.memoize(
            |m| &mut m.lower,
            lkey,
            &mut hits,
            || stages::run_lower(&frontend.dfg, core, options),
        )?;
        let lower_time = charged(h, hits, lowered.time);
        let mkey = stages::modify_key(lkey, core);
        let h = hits;
        check_cancel()?;
        let modified = self.memoize(
            |m| &mut m.modify,
            mkey,
            &mut hits,
            || Ok(stages::run_modify(&lowered, core)),
        )?;
        let modify_time = charged(h, hits, modified.time);
        let akey = stages::analysis_key(mkey);
        let h = hits;
        check_cancel()?;
        let analysis = self.memoize(
            |m| &mut m.analysis,
            akey,
            &mut hits,
            || stages::run_analysis(&modified),
        )?;
        let deps_time = charged(h, hits, analysis.deps_time);
        let matrix_time = charged(h, hits, analysis.matrix_time);
        let mut disk_hits = 0u32;
        let skey = stages::schedule_key(akey, core, options);
        let h = hits;
        check_cancel()?;
        let scheduled = self.memoize_persistent(
            |m| &mut m.schedule,
            "schedule",
            skey,
            &mut hits,
            &mut disk_hits,
            cache::decode_schedule_artifact,
            cache::encode_schedule_artifact,
            || stages::run_schedule(&modified, &analysis, core, options, cancel),
        )?;
        let schedule_time = charged(h, hits, scheduled.time);
        let rkey = stages::regalloc_key(skey);
        let h = hits;
        check_cancel()?;
        let allocated = self.memoize(
            |m| &mut m.regalloc,
            rkey,
            &mut hits,
            || stages::run_regalloc(&modified, &scheduled, core),
        )?;
        let regalloc_time = charged(h, hits, allocated.time);
        let ekey = stages::encode_key(skey, core);
        let h = hits;
        check_cancel()?;
        let encoded = self.memoize_persistent(
            |m| &mut m.encode,
            "encode",
            ekey,
            &mut hits,
            &mut disk_hits,
            |bytes| cache::decode_encode_artifact(bytes, core),
            cache::encode_encode_artifact,
            || stages::run_encode(&modified, &scheduled, &allocated, core),
        )?;
        let encode_time = charged(h, hits, encoded.time);
        let stats = CompileStats {
            parse: charged(0, frontend_hit as u32, frontend.parse_time),
            sema: charged(0, frontend_hit as u32, frontend.sema_time),
            lower: lower_time,
            modify: modify_time,
            deps: deps_time,
            matrix: matrix_time,
            schedule: schedule_time,
            regalloc: regalloc_time,
            encode: encode_time,
            cache_hits: hits,
            disk_hits,
            degradation: scheduled.degradation,
        };
        Ok(Compiled {
            core: Arc::clone(core),
            dfg: Arc::clone(&frontend.dfg),
            lowering: Arc::clone(&modified.lowering),
            deps: Arc::clone(&analysis.deps),
            schedule: Arc::clone(&scheduled.schedule),
            schedule_bound: scheduled.bound,
            assignment: Arc::clone(&allocated.assignment),
            microcode: Arc::clone(&encoded.microcode),
            artificial_names: modified.artificial_names.clone(),
            classification: modified.classification.clone(),
            stats,
        })
    }
}

impl std::fmt::Debug for CompileSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompileSession")
            .field("cached_artifacts", &self.cached_artifacts())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cores;

    #[test]
    fn poisoned_memo_lock_keeps_the_session_compiling() {
        let session = CompileSession::new();
        std::thread::scope(|scope| {
            let poisoner = scope.spawn(|| {
                let _guard = session.memo.lock();
                panic!("poisons the memo mutex");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(session.memo.is_poisoned());
        let core = Arc::new(cores::tiny_core());
        let src = "input u; coeff k = 0.5; output y; y = add_clip(mlt(k, u), u);";
        let options = CompileOptions::default();
        let cold = session.compile(&core, src, &options).unwrap();
        assert_eq!(cold.stats.cache_hits, 0);
        let hit = session.compile(&core, src, &options).unwrap();
        assert_eq!(hit.stats.cache_hits, 7);
    }
}
