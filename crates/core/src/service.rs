//! `CompileService` — a fault-tolerant, concurrency-bounded compile
//! executor over a shared [`CompileSession`].
//!
//! The ROADMAP's "millions of users" posture: many tenants submit
//! compile requests against shared cores, and the service's job is to
//! stay predictable under overload, slow disks and compiler bugs
//! rather than to make any single compile fast. Plain std threads and
//! a mutex/condvar queue — no async runtime:
//!
//! * **Admission control** — the queue is bounded; a submit against a
//!   full queue returns [`Rejected::Saturated`] *immediately* instead
//!   of growing an unbounded backlog. Callers see backpressure, the
//!   process sees bounded memory.
//! * **Deadlines as fuel** — a request's deadline is expressed in the
//!   deterministic fuel units of PR 6 ([`CompileOptions::fuel`]), not
//!   wall-clock, so an overloaded service *degrades* (exact →
//!   heuristic, search truncation, reported as [`Degradation`]) instead
//!   of stalling, and a replay behaves identically. The per-request
//!   [`dspcc_sched::CancelToken`] covers the caller-abandons case
//!   ([`Ticket::cancel`]).
//! * **Retry with seeded backoff** — a compile that failed on a
//!   *transient* cache I/O error ([`CompileError::CacheIo`], surfaced
//!   under [`crate::TransientPolicy::Fail`]) is retried in-worker with
//!   exponential backoff jittered from a [`SplitMix64`] substream of
//!   the job id. Deterministic failures are not retried — they would
//!   fail identically.
//! * **Panic containment** — each attempt runs under the containment
//!   every sweep uses: a compiler bug takes down one request as
//!   [`CompileError::Panicked`] carrying the panic message, not the
//!   worker thread. A thread that panics while holding the queue or a
//!   ticket's lock does not take the service down either: the locks
//!   recover from poisoning.
//!
//! Every request resolves to exactly one structured [`ServiceOutcome`];
//! aggregate counters land in [`ServiceStats`].
//!
//! ```
//! use std::sync::Arc;
//! use dspcc::service::{CompileService, ServiceConfig, ServiceOutcome};
//! use dspcc::{cores, CompileOptions, CompileSession};
//!
//! let service = CompileService::new(Arc::new(CompileSession::new()), ServiceConfig::default());
//! let core = Arc::new(cores::tiny_core());
//! let src = "input u; coeff k = 0.5; output y; y = add_clip(mlt(k, u), u);";
//! let ticket = service
//!     .submit(&core, src, CompileOptions::default())
//!     .expect("empty queue admits");
//! match ticket.wait() {
//!     ServiceOutcome::Served { compiled, .. } => assert!(compiled.microcode.len() > 0),
//!     other => panic!("{other:?}"),
//! }
//! ```

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use dspcc_arch::SplitMix64;
use dspcc_sched::{CancelToken, Degradation};

use crate::pipeline::{CompileError, Compiled, Core};
use crate::session::{CompileOptions, CompileSession};
use crate::sweep;

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads executing compiles.
    pub workers: usize,
    /// Maximum queued (admitted, not yet running) requests; a submit
    /// beyond this is rejected.
    pub queue_depth: usize,
    /// Retry attempts (beyond the first) for transient cache-I/O
    /// failures.
    pub retries: u32,
    /// Fuel ceiling imposed on every request ("the service-level
    /// deadline"); a request's own [`CompileOptions::fuel`] can only
    /// lower it. `None` = no service-level ceiling.
    pub deadline_fuel: Option<u64>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_depth: 16,
            retries: 2,
            deadline_fuel: None,
        }
    }
}

/// Seeds the per-job backoff jitter substreams.
const BACKOFF_SEED: u64 = 0xD5FC;

/// Base unit of the exponential backoff: attempt *n* sleeps `base << n`
/// plus jitter. Kept small — it bounds how long a worker is parked on a
/// sick disk.
const BACKOFF_BASE: Duration = Duration::from_millis(1);

/// Locks one of the service's mutexes, recovering it when a holder
/// panicked: every write under these locks is one push, pop, flag or
/// slot store, so a panic cannot leave them half-written, and one
/// panicking thread must not take down the service.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Why a submit was refused at the door.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejected {
    /// The bounded queue is full; back off and resubmit.
    Saturated {
        /// The depth the queue was at (== configured bound).
        depth: usize,
    },
    /// The service is shutting down.
    ShutDown,
}

impl fmt::Display for Rejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejected::Saturated { depth } => {
                write!(f, "queue saturated at depth {depth}")
            }
            Rejected::ShutDown => write!(f, "service is shut down"),
        }
    }
}

/// How one admitted request ended.
#[derive(Debug)]
pub enum ServiceOutcome {
    /// Compiled successfully.
    Served {
        /// The full compile result.
        compiled: Box<Compiled>,
        /// Session-cache stage hits (memo + disk) for this compile.
        cache_hits: u32,
        /// The subset of `cache_hits` deserialized from the disk tier.
        disk_hits: u32,
        /// `Some` when the deadline fuel truncated the search and a
        /// degraded (still valid) schedule was served.
        degradation: Option<Degradation>,
        /// Transient-I/O retries spent before this attempt succeeded.
        retries: u32,
    },
    /// Compiled to a typed error (after exhausting any retries).
    Failed(CompileError),
    /// The service shut down before a worker picked the request up.
    ShutDown,
}

/// Monotonic service counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests admitted into the queue.
    pub admitted: u64,
    /// Submits refused by admission control.
    pub rejected: u64,
    /// Requests that ended [`ServiceOutcome::Served`].
    pub served: u64,
    /// Requests that ended [`ServiceOutcome::Failed`].
    pub failed: u64,
    /// Served requests that carried a [`Degradation`] report.
    pub degraded: u64,
    /// Individual retry attempts spent on transient cache I/O.
    pub retries: u64,
    /// High-water mark of the queue depth.
    pub peak_queue: u64,
}

#[derive(Debug, Default)]
struct StatsCells {
    admitted: AtomicU64,
    rejected: AtomicU64,
    served: AtomicU64,
    failed: AtomicU64,
    degraded: AtomicU64,
    retries: AtomicU64,
    peak_queue: AtomicU64,
}

struct Job {
    id: u64,
    core: Arc<Core>,
    source: String,
    options: CompileOptions,
    slot: Arc<Slot>,
}

/// The rendezvous between a worker and the [`Ticket`] holder.
struct Slot {
    outcome: Mutex<Option<ServiceOutcome>>,
    done: Condvar,
    cancel: CancelToken,
}

impl Slot {
    fn fill(&self, outcome: ServiceOutcome) {
        *lock(&self.outcome) = Some(outcome);
        self.done.notify_all();
    }
}

/// Handle to one admitted request.
pub struct Ticket {
    id: u64,
    slot: Arc<Slot>,
}

impl fmt::Debug for Ticket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ticket").field("id", &self.id).finish()
    }
}

impl Ticket {
    /// The job id (also names the job's backoff substream).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Raises the request's [`CancelToken`]. A running compile aborts
    /// cooperatively at the next stage boundary / search barrier and
    /// resolves [`ServiceOutcome::Failed`]`(Cancelled)`; a queued one
    /// resolves the same way when a worker picks it up.
    pub fn cancel(&self) {
        self.slot.cancel.cancel();
    }

    /// Blocks until the request resolves.
    pub fn wait(self) -> ServiceOutcome {
        let mut guard = lock(&self.slot.outcome);
        loop {
            if let Some(outcome) = guard.take() {
                return outcome;
            }
            guard = self
                .slot
                .done
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

struct Inner {
    queue: Mutex<QueueState>,
    work_ready: Condvar,
    config: ServiceConfig,
    session: Arc<CompileSession>,
    stats: StatsCells,
    next_id: AtomicU64,
}

struct QueueState {
    jobs: VecDeque<Job>,
    /// `true` until [`CompileService::start`]; workers idle while set.
    paused: bool,
    shutdown: bool,
}

/// See the [module docs](self).
pub struct CompileService {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl CompileService {
    /// A running service over `session` (workers start immediately).
    pub fn new(session: Arc<CompileSession>, config: ServiceConfig) -> Self {
        CompileService::build(session, config, false)
    }

    /// A service whose workers idle until [`CompileService::start`] —
    /// lets tests fill the queue deterministically and observe
    /// admission control without racing the consumers.
    pub fn new_paused(session: Arc<CompileSession>, config: ServiceConfig) -> Self {
        CompileService::build(session, config, true)
    }

    fn build(session: Arc<CompileSession>, config: ServiceConfig, paused: bool) -> Self {
        let worker_count = config.workers.max(1);
        let inner = Arc::new(Inner {
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                paused,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            config,
            session,
            stats: StatsCells::default(),
            next_id: AtomicU64::new(0),
        });
        let workers = (0..worker_count)
            .map(|n| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("dspcc-service-{n}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn service worker")
            })
            .collect();
        CompileService { inner, workers }
    }

    /// Releases the workers of a [`CompileService::new_paused`] service.
    pub fn start(&self) {
        lock(&self.inner.queue).paused = false;
        self.inner.work_ready.notify_all();
    }

    /// Submits a compile of `source` for `core`. Admission control
    /// happens here: a full queue refuses with [`Rejected::Saturated`]
    /// and the request is *not* enqueued.
    pub fn submit(
        &self,
        core: &Arc<Core>,
        source: &str,
        options: CompileOptions,
    ) -> Result<Ticket, Rejected> {
        let mut queue = lock(&self.inner.queue);
        if queue.shutdown {
            self.inner.stats.rejected.fetch_add(1, Ordering::SeqCst);
            return Err(Rejected::ShutDown);
        }
        if queue.jobs.len() >= self.inner.config.queue_depth {
            self.inner.stats.rejected.fetch_add(1, Ordering::SeqCst);
            return Err(Rejected::Saturated {
                depth: queue.jobs.len(),
            });
        }
        let id = self.inner.next_id.fetch_add(1, Ordering::SeqCst);
        let slot = Arc::new(Slot {
            outcome: Mutex::new(None),
            done: Condvar::new(),
            cancel: CancelToken::new(),
        });
        // The service deadline is a fuel ceiling: the request's own
        // budget may only tighten it.
        let mut options = options;
        options.fuel = match (options.fuel, self.inner.config.deadline_fuel) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        queue.jobs.push_back(Job {
            id,
            core: Arc::clone(core),
            source: source.to_owned(),
            options,
            slot: Arc::clone(&slot),
        });
        let depth = queue.jobs.len() as u64;
        self.inner
            .stats
            .peak_queue
            .fetch_max(depth, Ordering::SeqCst);
        self.inner.stats.admitted.fetch_add(1, Ordering::SeqCst);
        drop(queue);
        self.inner.work_ready.notify_one();
        Ok(Ticket { id, slot })
    }

    /// Current queue depth (admitted, not yet picked up).
    pub fn queue_depth(&self) -> usize {
        lock(&self.inner.queue).jobs.len()
    }

    /// Snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
        let s = &self.inner.stats;
        ServiceStats {
            admitted: s.admitted.load(Ordering::SeqCst),
            rejected: s.rejected.load(Ordering::SeqCst),
            served: s.served.load(Ordering::SeqCst),
            failed: s.failed.load(Ordering::SeqCst),
            degraded: s.degraded.load(Ordering::SeqCst),
            retries: s.retries.load(Ordering::SeqCst),
            peak_queue: s.peak_queue.load(Ordering::SeqCst),
        }
    }

    /// The shared session (and through it the disk cache, if any).
    pub fn session(&self) -> &Arc<CompileSession> {
        &self.inner.session
    }

    /// Stops accepting work, drains nothing: queued jobs resolve
    /// [`ServiceOutcome::ShutDown`], running compiles are cancelled,
    /// workers are joined. Called by `Drop`; explicit form for tests.
    pub fn shutdown(&mut self) {
        let drained: Vec<Job> = {
            let mut queue = lock(&self.inner.queue);
            queue.shutdown = true;
            queue.jobs.drain(..).collect()
        };
        for job in drained {
            job.slot.cancel.cancel();
            job.slot.fill(ServiceOutcome::ShutDown);
        }
        self.inner.work_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for CompileService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl fmt::Debug for CompileService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompileService")
            .field("workers", &self.workers.len())
            .field("queue_depth", &self.queue_depth())
            .field("stats", &self.stats())
            .finish()
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let job = {
            let mut queue = lock(&inner.queue);
            loop {
                if queue.shutdown {
                    return;
                }
                if !queue.paused {
                    if let Some(job) = queue.jobs.pop_front() {
                        break job;
                    }
                }
                queue = inner
                    .work_ready
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let outcome = run_job(inner, &job);
        match &outcome {
            ServiceOutcome::Served { degradation, .. } => {
                inner.stats.served.fetch_add(1, Ordering::SeqCst);
                if degradation.is_some() {
                    inner.stats.degraded.fetch_add(1, Ordering::SeqCst);
                }
            }
            ServiceOutcome::Failed(_) => {
                inner.stats.failed.fetch_add(1, Ordering::SeqCst);
            }
            ServiceOutcome::ShutDown => {}
        }
        job.slot.fill(outcome);
    }
}

/// Executes one job: compile under the sweep harness's containment,
/// retrying transient cache-I/O failures with seeded exponential backoff.
fn run_job(inner: &Inner, job: &Job) -> ServiceOutcome {
    let mut backoff = SplitMix64::substream(BACKOFF_SEED, job.id);
    let mut attempt = 0u32;
    loop {
        if job.slot.cancel.is_cancelled() {
            return ServiceOutcome::Failed(CompileError::Cancelled);
        }
        let result = sweep::contain(|| {
            inner.session.compile_cancellable(
                &job.core,
                &job.source,
                &job.options,
                &job.slot.cancel,
            )
        });
        let error = match result {
            Ok(Ok(compiled)) => {
                let stats = compiled.stats;
                return ServiceOutcome::Served {
                    compiled: Box::new(compiled),
                    cache_hits: stats.cache_hits,
                    disk_hits: stats.disk_hits,
                    degradation: stats.degradation,
                    retries: attempt,
                };
            }
            Ok(Err(e)) => e,
            Err(message) => CompileError::Panicked(message),
        };
        let transient = matches!(error, CompileError::CacheIo(_));
        if !transient || attempt >= inner.config.retries {
            return ServiceOutcome::Failed(error);
        }
        inner.stats.retries.fetch_add(1, Ordering::SeqCst);
        // Exponential backoff with seeded jitter: base << attempt, plus
        // 0..=base of noise so retriers against one sick disk spread out.
        let jitter_ns = u64::from(backoff.range(0, 1000)) * (BACKOFF_BASE.as_nanos() as u64 / 1000);
        std::thread::sleep(BACKOFF_BASE * (1 << attempt.min(16)) + Duration::from_nanos(jitter_ns));
        attempt += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cores;

    const SRC: &str = "input u; coeff k = 0.5; output y; y = add_clip(mlt(k, u), u);";

    #[test]
    fn serves_a_simple_request() {
        let service =
            CompileService::new(Arc::new(CompileSession::new()), ServiceConfig::default());
        let core = Arc::new(cores::tiny_core());
        let ticket = service
            .submit(&core, SRC, CompileOptions::default())
            .expect("admitted");
        match ticket.wait() {
            ServiceOutcome::Served {
                compiled, retries, ..
            } => {
                assert!(!compiled.microcode.is_empty());
                assert_eq!(retries, 0);
            }
            other => panic!("expected Served, got {other:?}"),
        }
        let stats = service.stats();
        assert_eq!((stats.admitted, stats.served, stats.rejected), (1, 1, 0));
    }

    #[test]
    fn a_poisoned_queue_lock_does_not_take_down_the_service() {
        let service =
            CompileService::new(Arc::new(CompileSession::new()), ServiceConfig::default());
        let inner = Arc::clone(&service.inner);
        let poisoner = std::thread::spawn(move || {
            let _queue = inner.queue.lock();
            panic!("poisoning the queue lock");
        });
        assert!(poisoner.join().is_err());
        assert!(service.inner.queue.is_poisoned());
        let core = Arc::new(cores::tiny_core());
        let ticket = service
            .submit(&core, SRC, CompileOptions::default())
            .expect("admitted");
        assert!(matches!(ticket.wait(), ServiceOutcome::Served { .. }));
        assert_eq!(service.stats().served, 1);
    }

    #[test]
    fn saturated_queue_rejects_at_the_door() {
        let config = ServiceConfig {
            workers: 1,
            queue_depth: 3,
            ..ServiceConfig::default()
        };
        let service = CompileService::new_paused(Arc::new(CompileSession::new()), config);
        let core = Arc::new(cores::tiny_core());
        let tickets: Vec<Ticket> = (0..3)
            .map(|_| {
                service
                    .submit(&core, SRC, CompileOptions::default())
                    .expect("under the bound")
            })
            .collect();
        assert_eq!(service.queue_depth(), 3);
        match service.submit(&core, SRC, CompileOptions::default()) {
            Err(Rejected::Saturated { depth }) => assert_eq!(depth, 3),
            other => panic!("expected saturation, got {other:?}"),
        }
        service.start();
        for ticket in tickets {
            assert!(matches!(ticket.wait(), ServiceOutcome::Served { .. }));
        }
        let stats = service.stats();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.peak_queue, 3);
    }

    #[test]
    fn cancelled_ticket_fails_typed() {
        let service =
            CompileService::new_paused(Arc::new(CompileSession::new()), ServiceConfig::default());
        let core = Arc::new(cores::tiny_core());
        let ticket = service
            .submit(&core, SRC, CompileOptions::default())
            .expect("admitted");
        ticket.cancel();
        service.start();
        match ticket.wait() {
            ServiceOutcome::Failed(CompileError::Cancelled) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn shutdown_resolves_queued_tickets() {
        let mut service =
            CompileService::new_paused(Arc::new(CompileSession::new()), ServiceConfig::default());
        let core = Arc::new(cores::tiny_core());
        let ticket = service
            .submit(&core, SRC, CompileOptions::default())
            .expect("admitted");
        service.shutdown();
        assert!(matches!(ticket.wait(), ServiceOutcome::ShutDown));
        assert!(matches!(
            service.submit(&core, SRC, CompileOptions::default()),
            Err(Rejected::ShutDown)
        ));
    }

    #[test]
    fn parse_error_is_a_typed_failure() {
        let service =
            CompileService::new(Arc::new(CompileSession::new()), ServiceConfig::default());
        let core = Arc::new(cores::tiny_core());
        let ticket = service
            .submit(&core, "this is not a program", CompileOptions::default())
            .expect("admitted");
        match ticket.wait() {
            ServiceOutcome::Failed(CompileError::Parse(_)) => {}
            other => panic!("expected parse failure, got {other:?}"),
        }
        assert_eq!(service.stats().failed, 1);
    }

    #[test]
    fn transient_cache_io_retries_with_backoff_then_serves() {
        use crate::cache::{ChaosBackend, DiskCache, IoFaultKind, StdFs, TransientPolicy};
        let root = std::env::temp_dir().join(format!(
            "dspcc-service-retry-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&root).unwrap();
        let chaos = Arc::new(
            ChaosBackend::new(Arc::new(StdFs), IoFaultKind::ReadError, 21)
                .with_read_error_budget(2),
        );
        let cache =
            Arc::new(DiskCache::with_backend(&root, chaos).transient_policy(TransientPolicy::Fail));
        let config = ServiceConfig {
            workers: 1,
            retries: 3,
            ..ServiceConfig::default()
        };
        let service = CompileService::new(Arc::new(CompileSession::with_disk_cache(cache)), config);
        let core = Arc::new(cores::tiny_core());
        let ticket = service
            .submit(&core, SRC, CompileOptions::default())
            .expect("admitted");
        match ticket.wait() {
            ServiceOutcome::Served { retries, .. } => {
                assert!(retries >= 1, "first disk read always faults → must retry");
            }
            other => panic!("expected Served after retries, got {other:?}"),
        }
        assert!(service.stats().retries >= 1);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn contained_panic_keeps_its_message_and_the_worker() {
        use crate::cache::{CacheBackend, DiskCache, StdFs};
        use std::path::Path;
        use std::sync::atomic::AtomicBool;

        /// The real filesystem, except that the first read panics.
        struct PanicOnce(AtomicBool);
        impl CacheBackend for PanicOnce {
            fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
                if !self.0.swap(true, Ordering::SeqCst) {
                    panic!("injected backend panic on {}", path.display());
                }
                StdFs.read(path)
            }
            fn write(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
                StdFs.write(path, bytes)
            }
            fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
                StdFs.rename(from, to)
            }
            fn remove(&self, path: &Path) -> std::io::Result<()> {
                StdFs.remove(path)
            }
            fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
                StdFs.create_dir_all(path)
            }
        }

        let root = std::env::temp_dir().join(format!(
            "dspcc-service-panic-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let backend = Arc::new(PanicOnce(AtomicBool::new(false)));
        let cache = Arc::new(DiskCache::with_backend(&root, backend));
        let config = ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        };
        let service = CompileService::new(Arc::new(CompileSession::with_disk_cache(cache)), config);
        let core = Arc::new(cores::tiny_core());
        let submit = || {
            service
                .submit(&core, SRC, CompileOptions::default())
                .expect("admitted")
                .wait()
        };
        match submit() {
            ServiceOutcome::Failed(CompileError::Panicked(m)) => {
                assert!(m.contains("injected backend panic"), "{m}");
            }
            other => panic!("expected a contained panic, got {other:?}"),
        }
        // The worker survived the panic and serves the next request.
        assert!(matches!(submit(), ServiceOutcome::Served { .. }));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn deadline_fuel_ceiling_tightens_request_fuel() {
        let config = ServiceConfig {
            deadline_fuel: Some(10),
            ..ServiceConfig::default()
        };
        let service = CompileService::new(Arc::new(CompileSession::new()), config);
        let core = Arc::new(cores::tiny_core());
        // Service ceiling applies even when the request asks for more.
        let options = CompileOptions {
            fuel: Some(1_000_000),
            exact: true,
            ..CompileOptions::default()
        };
        let ticket = service.submit(&core, SRC, options).expect("admitted");
        match ticket.wait() {
            // Either the tiny program fits in 10 units, or the search
            // was truncated and reported — both valid; what must hold
            // is that the compile resolved (no stall) with a schedule.
            ServiceOutcome::Served { compiled, .. } => {
                assert!(compiled.schedule.length() > 0);
            }
            other => panic!("expected Served, got {other:?}"),
        }
    }
}
