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
//! Every stage runs through one lookup: poll the caller's cancel token,
//! check the memo, then, for the schedule and encode stages of a session
//! [with a disk cache](CompileSession::with_disk_cache), the disk tier,
//! and compute on a miss. A stage a cache served reports zero time in
//! the stats. Deterministic stage failures are memoized like artifacts;
//! [`CompileError::Cancelled`] and [`CompileError::CacheIo`] never are.
//!
//! Sessions are `Sync`: the memo sits behind a mutex that is **never held
//! while a stage computes**, so the design-space exploration driver
//! ([`crate::explore`]) can drive one shared session from many worker
//! threads. Two threads racing on the same cold key may both compute the
//! artifact; stages are deterministic, so both results are bit-identical
//! and the first one wins the cache slot.
//!
//! Beside the seven stage tables the session keeps the compacting
//! scheduler's searches ([`dspcc_sched::Search`]), one per analysed
//! program, restart count and fuel limit. A budget ladder is the loop's
//! commonest step, and every budget of a program walks the same search
//! and only stops at a different point on it, so the schedule stage of a
//! compacting compile answers from the kept search instead of starting
//! one: construction and compaction run once per search, and the local
//! search only ever extends as far as the tightest budget asked needs.
//! The search table is not a stage. Its keys are not stage keys, it is
//! never written to disk, and neither [`crate::CompileStats::cache_hits`]
//! nor [`CompileSession::cached_artifacts`] counts it: the stage result
//! it yields is memoized under the schedule key like any other. Its
//! mutex is held only to fetch a search's slot; each search has its own
//! mutex, held while it advances, so two budgets of one program take
//! turns on one search while other programs schedule in parallel. A memo
//! hit takes neither lock. A cancelled advance leaves its search at the
//! last completed seed, and a search whose advance panicked is discarded,
//! never resumed.
//!
//! The memo is **unbounded**: every distinct stage key retains its
//! artifact for the session's lifetime (that retention is what makes a
//! sweep's variants share work), and so does every kept search, with the
//! schedules its improvements found. A session is meant to be scoped to one
//! design loop; for very long-lived loops over ever-changing options,
//! start a fresh session for each phase.
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
use std::time::Duration;

use dspcc_sched::list::Priority;
use dspcc_sched::{CancelToken, Scheduler, Search};

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

/// One kept compacting search, behind its own mutex.
type SearchSlot = Arc<Mutex<Option<Search>>>;

/// The kept searches, by (analysis key, restart count, fuel limit).
type Searches = HashMap<(u64, u32, Option<u64>), SearchSlot>;

/// Locks one kept search. A search whose advance panicked is discarded,
/// never resumed: the next compile starts a fresh one.
fn lock_search(slot: &Mutex<Option<Search>>) -> MutexGuard<'_, Option<Search>> {
    slot.lock().unwrap_or_else(|poisoned| {
        let mut search = poisoned.into_inner();
        *search = None;
        slot.clear_poison();
        search
    })
}

/// How the disk tier stores one stage's artifact: the stage's directory
/// under the cache root and its payload codec.
struct Persisted<'a, A> {
    stage: &'static str,
    encode: fn(&A) -> Vec<u8>,
    decode: &'a dyn Fn(&[u8]) -> Result<A, String>,
}

/// A staged compilation session: memoizes stage artifacts by content
/// fingerprint across [`CompileSession::compile`] calls. Every stage runs
/// through one lookup: the memo, then, for the schedule and encode
/// stages of a session [with a disk cache](CompileSession::with_disk_cache),
/// the disk tier, then the stage itself.
#[derive(Default)]
pub struct CompileSession {
    memo: Mutex<SessionMemo>,
    searches: Mutex<Searches>,
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
            disk: Some(cache),
            ..CompileSession::default()
        }
    }

    /// Locks the memo. A poisoned lock is recovered, not propagated: every
    /// write under it is a single `entry().or_insert_with` or a
    /// replacement of the whole memo, so a panic on another thread cannot
    /// leave a table half-written, and one panicking caller must not take
    /// down every later compile on the session.
    fn memo(&self) -> MutexGuard<'_, SessionMemo> {
        self.memo.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of cached stage artifacts (all stages summed). The kept
    /// searches are not stage artifacts and are not counted.
    pub fn cached_artifacts(&self) -> usize {
        self.memo().len()
    }

    /// The slot of the kept search for `key`, created empty on first
    /// use. The table lock is held only for this lookup.
    fn search_slot(&self, key: (u64, u32, Option<u64>)) -> SearchSlot {
        let mut searches = self.searches.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(searches.entry(key).or_default())
    }

    /// The one stage lookup: polls `cancel`, then looks `key` up in the
    /// memo table `table` selects and, for a `persisted` stage of a
    /// session with a disk cache, in the disk tier; computes on a miss,
    /// with the lock released. Returns the artifact and whether a cache
    /// served it, which also counts into `stats`.
    ///
    /// Disk recovery: an entry that fails validation was quarantined by
    /// [`DiskCache::load`], and one that passes its checksum but fails to
    /// decode is quarantined here; both are recomputed and stored back. A
    /// transient error recomputes under [`TransientPolicy::Recompute`]
    /// and returns [`CompileError::CacheIo`] under
    /// [`TransientPolicy::Fail`], so the compile service can retry with
    /// backoff instead of stampeding recomputes onto a sick disk.
    ///
    /// Everything is memoized, deterministic failures included, except
    /// `Cancelled` and `CacheIo`: a raised token and a sick disk belong
    /// to this call, not to the stage inputs.
    fn memoize<A>(
        &self,
        cancel: Option<&CancelToken>,
        stats: &mut CompileStats,
        table: impl Fn(&mut SessionMemo) -> &mut Memo<A>,
        key: u64,
        persisted: Option<Persisted<'_, A>>,
        compute: impl FnOnce() -> Result<A, CompileError>,
    ) -> Result<(Arc<A>, bool), CompileError> {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return Err(CompileError::Cancelled);
        }
        if let Some(cached) = table(&mut self.memo()).get(&key) {
            stats.cache_hits += 1;
            return cached.clone().map(|artifact| (artifact, true));
        }
        let disk = self.disk.as_deref().zip(persisted);
        let loaded = match &disk {
            None => None,
            Some((disk, p)) => match disk.load(p.stage, key) {
                Load::Hit(payload) => match (p.decode)(&payload) {
                    Ok(artifact) => Some(Arc::new(artifact)),
                    Err(reason) => {
                        disk.quarantine(p.stage, key, &payload, &reason);
                        None
                    }
                },
                Load::Transient(e) if disk.policy() == TransientPolicy::Fail => {
                    return Err(CompileError::CacheIo(e));
                }
                Load::Miss | Load::Corrupt | Load::Transient(_) => None,
            },
        };
        let hit = loaded.is_some();
        stats.cache_hits += u32::from(hit);
        stats.disk_hits += u32::from(hit);
        let result = match loaded {
            Some(artifact) => Ok(artifact),
            None => compute().map(Arc::new).inspect(|artifact| {
                if let Some((disk, p)) = &disk {
                    disk.store(p.stage, key, &(p.encode)(artifact));
                }
            }),
        };
        if !matches!(
            result,
            Err(CompileError::Cancelled | CompileError::CacheIo(_))
        ) {
            table(&mut self.memo())
                .entry(key)
                .or_insert_with(|| result.clone());
        }
        result.map(|artifact| (artifact, hit))
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
        self.run(core, source, options, None)
    }

    /// As [`CompileSession::compile`], under a cooperative cancellation
    /// token. The token is polled before every stage lookup and inside
    /// the scheduling search (round barriers, branch-and-bound nodes); a
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
        cancel: &CancelToken,
    ) -> Result<Compiled, CompileError> {
        self.run(core, source, options, Some(cancel))
    }

    /// The pipeline driver: one [`CompileSession::memoize`] per stage, in
    /// stage order. Stage timings in the stats reflect *this* compile: a
    /// stage a cache served is charged nothing and counts into
    /// `cache_hits` instead.
    fn run(
        &self,
        core: &Arc<Core>,
        source: &str,
        options: &CompileOptions,
        cancel: Option<&CancelToken>,
    ) -> Result<Compiled, CompileError> {
        let charged = |hit: bool, time| if hit { Duration::ZERO } else { time };
        let mut stats = CompileStats::default();
        let (frontend, hit) = self.memoize(
            cancel,
            &mut stats,
            |m| &mut m.frontend,
            stages::source_fingerprint(source),
            None,
            || stages::run_frontend(source),
        )?;
        stats.parse = charged(hit, frontend.parse_time);
        stats.sema = charged(hit, frontend.sema_time);
        let lkey = stages::lower_key(frontend.dfg_fp, core, options);
        let (lowered, hit) = self.memoize(
            cancel,
            &mut stats,
            |m| &mut m.lower,
            lkey,
            None,
            || stages::run_lower(&frontend.dfg, core, options),
        )?;
        stats.lower = charged(hit, lowered.time);
        let mkey = stages::modify_key(lkey, core);
        let (modified, hit) = self.memoize(
            cancel,
            &mut stats,
            |m| &mut m.modify,
            mkey,
            None,
            || Ok(stages::run_modify(&lowered, core)),
        )?;
        stats.modify = charged(hit, modified.time);
        let akey = stages::analysis_key(mkey);
        let (analysis, hit) = self.memoize(
            cancel,
            &mut stats,
            |m| &mut m.analysis,
            akey,
            None,
            || stages::run_analysis(&modified),
        )?;
        stats.deps = charged(hit, analysis.deps_time);
        stats.matrix = charged(hit, analysis.matrix_time);
        let skey = stages::schedule_key(akey, core, options);
        let (scheduled, hit) = self.memoize(
            cancel,
            &mut stats,
            |m| &mut m.schedule,
            skey,
            Some(Persisted {
                stage: "schedule",
                encode: cache::encode_schedule_artifact,
                decode: &cache::decode_schedule_artifact,
            }),
            || match options.scheduler() {
                Scheduler::Compacting { restarts } => {
                    let slot = self.search_slot((akey, restarts, options.fuel));
                    let mut search = lock_search(&slot);
                    stages::run_schedule_from(
                        &mut search,
                        &modified,
                        &analysis,
                        core,
                        options,
                        cancel,
                    )
                }
                _ => stages::run_schedule(&modified, &analysis, core, options, cancel),
            },
        )?;
        stats.schedule = charged(hit, scheduled.time);
        stats.degradation = scheduled.degradation;
        let (allocated, hit) = self.memoize(
            cancel,
            &mut stats,
            |m| &mut m.regalloc,
            stages::regalloc_key(skey),
            None,
            || stages::run_regalloc(&modified, &scheduled, core),
        )?;
        stats.regalloc = charged(hit, allocated.time);
        let (encoded, hit) = self.memoize(
            cancel,
            &mut stats,
            |m| &mut m.encode,
            stages::encode_key(skey, core),
            Some(Persisted {
                stage: "encode",
                encode: cache::encode_encode_artifact,
                decode: &|bytes| cache::decode_encode_artifact(bytes, core),
            }),
            || stages::run_encode(&modified, &scheduled, &allocated, core),
        )?;
        stats.encode = charged(hit, encoded.time);
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
    use crate::cache::{ChaosBackend, IoFaultKind, StdFs};
    use crate::cores;
    use std::time::Duration;

    const SRC: &str = "input u; coeff k = 0.5; output y; y = add_clip(mlt(k, u), u);";

    /// A private cache directory, removed when dropped.
    struct CacheDir(std::path::PathBuf);

    impl CacheDir {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("dspcc-session-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            CacheDir(dir)
        }
    }

    impl Drop for CacheDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn warm_disk_cache_serves_the_persisted_stages_and_charges_the_rest() {
        let dir = CacheDir::new("warm");
        let cache = Arc::new(DiskCache::new(&dir.0));
        let core = Arc::new(cores::audio_core());
        let options = CompileOptions::default();
        let cold = CompileSession::with_disk_cache(Arc::clone(&cache))
            .compile(&core, SRC, &options)
            .unwrap();
        assert_eq!((cold.stats.cache_hits, cold.stats.disk_hits), (0, 0));
        // A fresh session finds only the schedule and encode stages on
        // disk: two hits, both from the disk tier, charged nothing.
        let session = CompileSession::with_disk_cache(cache);
        let warm = session.compile(&core, SRC, &options).unwrap();
        let stats = warm.stats;
        assert_eq!((stats.cache_hits, stats.disk_hits), (2, 2));
        assert_eq!(stats.schedule, Duration::ZERO);
        assert_eq!(stats.encode, Duration::ZERO);
        for (stage, time) in [
            ("parse", stats.parse),
            ("sema", stats.sema),
            ("lower", stats.lower),
            ("modify", stats.modify),
            ("deps", stats.deps),
            ("matrix", stats.matrix),
            ("regalloc", stats.regalloc),
        ] {
            assert!(
                time > Duration::ZERO,
                "{stage} was computed but not charged"
            );
        }
        // The disk hits were memoized: a repeat is served from memory.
        let repeat = session.compile(&core, SRC, &options).unwrap();
        assert_eq!((repeat.stats.cache_hits, repeat.stats.disk_hits), (7, 0));
        assert_eq!(repeat.stats.total(), Duration::ZERO);
    }

    #[test]
    fn transient_cache_error_fails_the_compile_once_and_is_not_memoized() {
        let dir = CacheDir::new("transient");
        let chaos =
            ChaosBackend::new(Arc::new(StdFs), IoFaultKind::ReadError, 1).with_read_error_budget(1);
        let cache = DiskCache::with_backend(&dir.0, Arc::new(chaos))
            .transient_policy(TransientPolicy::Fail);
        let session = CompileSession::with_disk_cache(Arc::new(cache));
        let core = Arc::new(cores::audio_core());
        let options = CompileOptions::default();
        let err = session.compile(&core, SRC, &options).unwrap_err();
        assert!(matches!(err, CompileError::CacheIo(_)), "{err}");
        // The disk has recovered; a memoized `CacheIo` would fail again.
        let served = session.compile(&core, SRC, &options).unwrap();
        assert_eq!(served.stats.cache_hits, 4);
    }

    #[test]
    fn raised_token_runs_no_stage_past_the_frontend() {
        let session = CompileSession::new();
        let core = Arc::new(cores::audio_core());
        let token = dspcc_sched::CancelToken::new();
        token.cancel();
        let err = session
            .compile_cancellable(&core, SRC, &CompileOptions::default(), &token)
            .unwrap_err();
        assert!(matches!(err, CompileError::Cancelled), "{err}");
        assert!(
            session.cached_artifacts() <= 1,
            "a stage past the frontend ran"
        );
    }

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

    #[test]
    fn disk_hit_microcode_takes_the_core_layout() {
        let dir = CacheDir::new("layout");
        let cache = Arc::new(DiskCache::new(&dir.0));
        let core = Arc::new(cores::tiny_core());
        let options = CompileOptions::default();
        CompileSession::with_disk_cache(Arc::clone(&cache))
            .compile(&core, SRC, &options)
            .unwrap();
        let warm = CompileSession::with_disk_cache(cache)
            .compile(&core, SRC, &options)
            .unwrap();
        assert_eq!(warm.stats.disk_hits, 2);
        assert!(Arc::ptr_eq(&warm.microcode.layout, core.layout()));
    }

    /// The default options under `budget`.
    fn budgeted(budget: Option<u32>) -> CompileOptions {
        CompileOptions {
            budget,
            ..CompileOptions::default()
        }
    }

    /// Asserts that `warm` equals a cold compile of the same variant in a
    /// fresh session, error for error.
    fn equals_cold(
        core: &Arc<Core>,
        options: &CompileOptions,
        warm: &Result<Compiled, CompileError>,
    ) {
        let source = crate::apps::audio_application();
        let cold = CompileSession::new().compile(core, &source, options);
        match (warm, &cold) {
            (Ok(w), Ok(c)) => {
                assert_eq!(w.diverges_from(c), None, "{options:?}");
                assert_eq!(w.schedule_bound, c.schedule_bound);
                assert_eq!(w.stats.degradation, c.stats.degradation);
            }
            _ => assert_eq!(
                warm.as_ref().map_err(ToString::to_string).err(),
                cold.as_ref().map_err(ToString::to_string).err(),
                "{options:?}"
            ),
        }
    }

    #[test]
    fn a_cancelled_advance_memoizes_nothing_and_leaves_the_search_usable() {
        let session = CompileSession::new();
        let core = Arc::new(cores::audio_core());
        let source = crate::apps::audio_application();
        let first = session.compile(&core, &source, &budgeted(None)).unwrap();
        let tight = budgeted(Some(first.schedule_bound));
        let slot = {
            let searches = session.searches.lock().unwrap();
            assert_eq!(searches.len(), 1);
            Arc::clone(searches.values().next().unwrap())
        };
        let before = format!("{:?}", lock_search(&slot));
        let artifacts = session.cached_artifacts();
        let token = CancelToken::new();
        let cancelled = std::thread::scope(|scope| {
            // Hold the search while the compile reaches it: the compile has
            // passed every stage poll by the time it fetched the slot, so
            // the raised token is seen by the advance itself.
            let held = lock_search(&slot);
            let compile =
                scope.spawn(|| session.compile_cancellable(&core, &source, &tight, &token));
            while Arc::strong_count(&slot) < 3 {
                std::thread::yield_now();
            }
            token.cancel();
            drop(held);
            compile.join().unwrap()
        });
        assert!(matches!(cancelled, Err(CompileError::Cancelled)));
        assert_eq!(session.cached_artifacts(), artifacts);
        assert_eq!(format!("{:?}", lock_search(&slot)), before);
        let warm = session.compile(&core, &source, &tight);
        equals_cold(&core, &tight, &warm);
    }

    #[test]
    fn four_threads_answer_four_budgets_from_one_search() {
        let session = CompileSession::new();
        let core = Arc::new(cores::audio_core());
        let source = crate::apps::audio_application();
        let first = session.compile(&core, &source, &budgeted(None)).unwrap();
        let (cycles, bound) = (first.cycles(), first.schedule_bound);
        let budgets = [cycles, cycles - 1, (cycles + bound) / 2, bound];
        let start = std::sync::Barrier::new(budgets.len());
        let results: Vec<_> = std::thread::scope(|scope| {
            let threads: Vec<_> = budgets
                .map(|b| {
                    let (session, core, source, start) = (&session, &core, &source, &start);
                    scope.spawn(move || {
                        start.wait();
                        session.compile(core, source, &budgeted(Some(b)))
                    })
                })
                .into_iter()
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        assert_eq!(session.searches.lock().unwrap().len(), 1);
        for (b, warm) in budgets.into_iter().zip(&results) {
            equals_cold(&core, &budgeted(Some(b)), warm);
        }
    }

    #[test]
    fn the_search_table_is_not_a_stage() {
        let session = CompileSession::new();
        let core = Arc::new(cores::audio_core());
        let source = crate::apps::audio_application();
        let first = session.compile(&core, &source, &budgeted(None)).unwrap();
        assert_eq!(session.cached_artifacts(), 7);
        // A budget that fits adds its schedule, regalloc and encode
        // artifacts, a budget verdict its schedule-stage failure, and
        // neither anything for the search it was answered from.
        let fits = session
            .compile(&core, &source, &budgeted(Some(first.cycles() - 1)))
            .unwrap();
        assert_eq!(fits.stats.cache_hits, 4);
        assert_eq!(session.cached_artifacts(), 10);
        let verdict = session.compile(&core, &source, &budgeted(Some(first.schedule_bound)));
        assert!(matches!(verdict, Err(CompileError::Schedule(_))));
        assert_eq!(session.cached_artifacts(), 11);
        assert_eq!(session.searches.lock().unwrap().len(), 1);
    }
}
