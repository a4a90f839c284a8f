//! `service_mixed`: an open loop into a `CompileService` whose session sits
//! on a `DiskCache`. One generator thread submits a seeded arrival
//! schedule (evenly spaced, with seeded jitter); requests are a skewed
//! draw over a working set of (core, app, options) variants plus a fixed
//! share of never-seen sources. At fixed points the generator restarts the
//! service over the same cache directory. A closed-loop capacity phase
//! over the working set follows.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use dspcc::arch::SplitMix64;
use dspcc::cache::{self, CacheBackend, StdFs};
use dspcc::sched::list::Priority;
use dspcc::stages::{EncodeArtifact, ScheduleArtifact};
use dspcc::{
    CompileError, CompileOptions, CompileService, CompileSession, Compiled, Core, DiskCache,
    Rejected, ServiceConfig, ServiceOutcome, Ticket,
};

use crate::common::{
    self, compare_counts, digest, diverges, golden_check, median_setup, verdict, Counts, RunResult,
    SETUP_REPEATS,
};
use crate::draw::{build_cores, App, Family};
use crate::layers::{self, Extras, Parts, Shape};
use crate::os::{single_malloc_arena, tighten_timer_slack};
use crate::staged::{self, StagedMemo};
use crate::stats::{due_latency, generator_lateness, geomean, jittered_schedule, median, Samples};
use crate::trace::Tracer;
use crate::Args;

/// The working set: the audio application on the audio core, then three
/// sizes of each scalable family, each on a fixed core (an index into the
/// core set), each compiled under every option variant. The working set
/// is the same for every seed, so the load an offered rate puts on the
/// service is too; the seed draws the requests.
const SHAPES: [(Family, usize, usize); 12] = [
    (Family::Fir, 3, 2),
    (Family::Fir, 6, 5),
    (Family::Fir, 9, 4),
    (Family::Biquad, 1, 7),
    (Family::Biquad, 2, 3),
    (Family::Biquad, 4, 8),
    (Family::SumOfProducts, 3, 6),
    (Family::SumOfProducts, 6, 1),
    (Family::SumOfProducts, 9, 0),
    (Family::AddTree, 2, 3),
    (Family::AddTree, 4, 4),
    (Family::AddTree, 6, 5),
];
/// Never-seen sources arrive as a pair of consecutive requests (two new
/// revisions of the audio application) once every `FRESH_EVERY` requests:
/// a fixed 0.4% share of the open loop's requests are cold misses that
/// write the disk tier. The requests queued behind a pair wait for both
/// cold compiles and their disk writes, which sets the open loop's tail.
const FRESH_EVERY: u64 = 500;
const FRESH_BATCH: u64 = 2;
/// Open-loop restart points, as fractions of the arrivals.
const RESTARTS: [f64; 3] = [0.25, 0.5, 0.75];
/// Requests per capacity segment; each segment runs on a freshly
/// restarted service, which also bounds how far a session's memo grows.
/// The capacity phase draws from the working set only: the first request
/// of each variant after a restart reads its schedule and encode
/// artifacts from disk and recomputes the earlier stages, and the
/// requests queued behind these set the saturated tail. These first
/// requests are about 4% of a segment, so the p99 falls inside the waits
/// behind them; with 4096-request segments they were 1%, the p99 sat on
/// the edge between them and the memo hits, and it moved by up to 18%
/// between runs while the p50 moved 5%. Never-seen sources stay in the
/// open loop: the time of their disk writes moved by up to 75% between
/// runs on a shared VM, and a tail set by them with it.
const RESTART_EVERY: usize = 1024;
/// Windows the open loop's p99 is taken over: each spans many pairs of
/// never-seen sources.
const OPEN_LOOP_WINDOWS: usize = 4;
/// Share of `--seconds` spent in the open loop; the rest is capacity,
/// whose figures are medians over windows: the longer the capacity phase,
/// the longer a slow stretch of the host must last to move them.
const OPEN_SHARE: f64 = 0.3;
/// Requests kept in flight by the capacity phase: enough to keep the
/// worker busy, few enough that a preemption of the worker delays few
/// requests. With 64 in flight every stall lifted 64 latencies at once, and
/// the p99 followed the host's scheduling noise (up to 49% between two
/// runs of one seed, while the p50 moved 18%).
const CAPACITY_OUTSTANDING: u64 = 8;
/// Windows the saturated p99 is taken over, each about four capacity
/// segments.
const SATURATED_WINDOWS: usize = 64;
/// Queue bound: far above what the offered rate builds up, so a
/// rejection means the service stalled.
const QUEUE_DEPTH: usize = 4096;
/// Offered rate of the open loop, requests per second: an absolute
/// number, about a fifth of what one worker serves of the open loop's mix
/// (never-seen sources included) on a 2-core AMD EPYC VM.
const OFFERED_RATE_RPS: f64 = 5000.0;
/// Service workers: `nproc - 1` on the 2-core reference machine. One
/// worker serves requests in submission order, which keeps the stage-hit
/// counts of a seed exact and lets the traced pass charge each cache call
/// to its request.
const WORKERS: usize = 1;
/// Frames run through the golden model per never-seen source.
const CHECK_FRAMES: u32 = 16;
const ARRIVALS: u64 = 6;
const CAPACITY: u64 = 7;

fn option_variants() -> [CompileOptions; 3] {
    let base = CompileOptions {
        sched_threads: 1,
        restarts: 2,
        ..CompileOptions::default()
    };
    [
        base.clone(),
        CompileOptions {
            restarts: 4,
            ..base.clone()
        },
        CompileOptions {
            compaction: false,
            priority: Priority::Slack,
            ..base
        },
    ]
}

pub struct Variant {
    core: usize,
    app: App,
    opts: CompileOptions,
    source: String,
    reference: Compiled,
}

/// One request: a working-set variant, or (with `fresh` > 0) a
/// never-seen source of the variant's shape.
#[derive(Clone)]
struct Request {
    variant: usize,
    fresh: u64,
    source: Option<String>,
}

pub struct Setup {
    cores: Vec<Arc<Core>>,
    variants: Vec<Variant>,
    /// Cumulative Zipf weights over `variants`.
    cdf: Vec<f64>,
    /// Variants drawn while building the working set, feasible or not.
    drawn: u64,
    requests: Vec<Request>,
    due: Vec<Duration>,
}

impl Setup {
    pub fn new(seed: u64, open_seconds: f64, tracer: Option<&mut Tracer>) -> Setup {
        let cores = build_cores(tracer);
        let mut variants = Vec::new();
        let mut weights = Vec::new();
        let mut drawn = 0u64;
        let shapes = (0..=SHAPES.len()).map(|stratum| match stratum.checked_sub(1) {
            None => (0, App::audio()),
            Some(t) => {
                let (family, size, core) = SHAPES[t];
                (
                    core,
                    App {
                        family,
                        size,
                        variant: 0,
                    },
                )
            }
        });
        for (stratum, (core, app)) in shapes.enumerate() {
            let source = app.source();
            let reference_session = CompileSession::new();
            for (k, opts) in option_variants().into_iter().enumerate() {
                drawn += 1;
                if let Ok(reference) = reference_session.compile(&cores[core], &source, &opts) {
                    weights.push(1.0 / (popularity_rank(stratum, k) + 1) as f64);
                    variants.push(Variant {
                        core,
                        app,
                        opts,
                        source: source.clone(),
                        reference,
                    });
                }
            }
        }
        let mut total = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                total += w;
                total
            })
            .collect();
        let mut setup = Setup {
            cores,
            variants,
            cdf,
            drawn,
            requests: Vec::new(),
            due: Vec::new(),
        };
        let count = (OFFERED_RATE_RPS * open_seconds) as usize;
        let mut rng = SplitMix64::substream(seed, ARRIVALS);
        setup.due = jittered_schedule(&mut rng, OFFERED_RATE_RPS, count);
        setup.requests = (0..count as u64)
            .map(|i| setup.draw(&mut rng, i + 1))
            .collect();
        setup
    }

    /// Open-loop request number `id` (from 1): a never-seen source when
    /// `id` falls on the fixed share, else a skewed draw over the working
    /// set.
    fn draw(&self, rng: &mut SplitMix64, id: u64) -> Request {
        if id % FRESH_EVERY < FRESH_BATCH {
            // Variant 0 is the audio application under the first option
            // variant: every pair costs the same, whatever the seed.
            let source = self.variants[0].app.with_variant(id).source();
            return Request {
                variant: 0,
                fresh: id,
                source: Some(source),
            };
        }
        self.draw_known(rng)
    }

    /// A skewed draw over the working set.
    fn draw_known(&self, rng: &mut SplitMix64) -> Request {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * self.cdf[self.cdf.len() - 1];
        Request {
            variant: self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1),
            fresh: 0,
            source: None,
        }
    }

    fn source<'a>(&'a self, r: &'a Request) -> &'a str {
        r.source
            .as_deref()
            .unwrap_or(&self.variants[r.variant].source)
    }
}

/// The real filesystem, with every call timed (traced run only).
struct TimedFs {
    epoch: Instant,
    events: Mutex<Vec<(Duration, Duration, &'static str)>>,
}

impl TimedFs {
    fn timed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.epoch.elapsed();
        let out = f();
        let end = self.epoch.elapsed();
        self.events
            .lock()
            .expect("event log lock: no panics while held")
            .push((start, end, name));
        out
    }
}

impl CacheBackend for TimedFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.timed("cache.read", || StdFs.read(path))
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.timed("cache.write", || StdFs.write(path, bytes))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.timed("cache.write", || StdFs.rename(from, to))
    }
    fn remove(&self, path: &Path) -> io::Result<()> {
        self.timed("cache.write", || StdFs.remove(path))
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.timed("cache.write", || StdFs.create_dir_all(path))
    }
}

/// A request handed from the generator to the collector.
struct Pending {
    idx: usize,
    request: Request,
    due: Duration,
    submit_start: Duration,
    submit_end: Duration,
    ticket: Ticket,
    service: Arc<CompileService>,
}

/// What the collector learned about one request.
struct Done {
    idx: usize,
    due: Duration,
    submit_start: Duration,
    submit_end: Duration,
    reply: Duration,
    class: &'static str,
    /// Stage times of the served compile in the order of
    /// [`STAGE_SPANS`], in nanoseconds (zero for a stage served from
    /// cache).
    stages: [u32; 9],
    hits: u32,
    disk_hits: u32,
    parts: Option<Parts>,
    /// A never-seen source: its id, variant and served digest or verdict.
    fresh: Option<(u64, usize, Result<u64, &'static str>)>,
}

/// Span names of the stage times a served `CompileStats` reports.
const STAGE_SPANS: [&str; 9] = [
    "dfg.parse",
    "dfg.sema",
    "rtgen.lower",
    "isa.modify",
    "sched.deps",
    "sched.matrix",
    "sched.schedule",
    "encode.regalloc",
    "encode.encode",
];

impl Done {
    /// The served compile's own stage time.
    fn compile_time(&self) -> Duration {
        Duration::from_nanos(self.stages.iter().map(|&n| u64::from(n)).sum())
    }
}

/// Completed-request counter the generator waits on.
#[derive(Default)]
struct Completed {
    count: Mutex<u64>,
    changed: Condvar,
}

impl Completed {
    fn bump(&self) {
        *self
            .count
            .lock()
            .expect("counter lock: no panics while held") += 1;
        self.changed.notify_all();
    }

    /// Blocks until at least `n` requests have completed.
    fn wait_for(&self, n: u64) {
        let mut count = self
            .count
            .lock()
            .expect("counter lock: no panics while held");
        while *count < n {
            count = self
                .changed
                .wait(count)
                .expect("counter lock: no panics while held");
        }
    }
}

fn served_class(hits: u32, disk_hits: u32) -> &'static str {
    match (hits, disk_hits) {
        (_, d) if d > 0 => "disk",
        (7, _) => "hit",
        (4, _) => "reschedule",
        (0, _) => "cold",
        _ => "other",
    }
}

/// Collector side: waits every ticket in submission order and checks the
/// served artifact against the set-up reference.
fn collect(
    setup: &Setup,
    epoch: Instant,
    rx: mpsc::Receiver<Pending>,
    completed: &Completed,
    failures: &Mutex<Vec<String>>,
) -> Vec<Done> {
    let mut done = Vec::new();
    for p in rx {
        let outcome = p.ticket.wait();
        let reply = epoch.elapsed();
        drop(p.service);
        let mut d = Done {
            idx: p.idx,
            due: p.due,
            submit_start: p.submit_start,
            submit_end: p.submit_end,
            reply,
            class: "failed",
            stages: [0; 9],
            hits: 0,
            disk_hits: 0,
            parts: None,
            fresh: None,
        };
        let variant = &setup.variants[p.request.variant];
        let fail = |what: String| {
            failures
                .lock()
                .expect("failure log lock: no panics while held")
                .push(format!("request {}: {what}", p.idx));
        };
        match outcome {
            ServiceOutcome::Served {
                compiled,
                cache_hits,
                disk_hits,
                ..
            } => {
                d.class = served_class(cache_hits, disk_hits);
                let st = &compiled.stats;
                d.stages = [
                    st.parse,
                    st.sema,
                    st.lower,
                    st.modify,
                    st.deps,
                    st.matrix,
                    st.schedule,
                    st.regalloc,
                    st.encode,
                ]
                .map(|t| u32::try_from(t.as_nanos()).unwrap_or(u32::MAX));
                d.hits = cache_hits;
                d.disk_hits = disk_hits;
                d.parts = Some(Parts::of(&compiled));
                if p.request.fresh > 0 {
                    d.fresh = Some((p.request.fresh, p.request.variant, Ok(digest(&compiled))));
                } else if let Some(what) = diverges(&variant.reference, &compiled) {
                    fail(format!(
                        "wrong serve of {} on {}: {what}",
                        variant.app.name(),
                        setup.cores[variant.core].name
                    ));
                }
            }
            ServiceOutcome::Failed(e) => match (verdict(&e), p.request.fresh) {
                (Ok(kind), fresh) if fresh > 0 => {
                    d.class = "verdict";
                    d.fresh = Some((fresh, p.request.variant, Err(kind)));
                }
                _ => fail(format!("{} failed: {e}", variant.app.name())),
            },
            ServiceOutcome::ShutDown => fail("service shut down under the request".to_owned()),
        }
        done.push(d);
        completed.bump();
    }
    done
}

/// A service over a fresh session on the cache in `dir`.
fn make_service(
    dir: &Path,
    backend: Option<&Arc<TimedFs>>,
    caches: &mut Vec<Arc<DiskCache>>,
) -> Arc<CompileService> {
    let cache = Arc::new(match backend {
        Some(fs) => DiskCache::with_backend(dir, Arc::clone(fs) as Arc<dyn CacheBackend>),
        None => DiskCache::new(dir),
    });
    caches.push(Arc::clone(&cache));
    let config = ServiceConfig {
        workers: WORKERS,
        queue_depth: QUEUE_DEPTH,
        ..ServiceConfig::default()
    };
    Arc::new(CompileService::new(
        Arc::new(CompileSession::with_disk_cache(cache)),
        config,
    ))
}

/// Everything one pass of the service loop measured.
struct Pass {
    done: Vec<Done>,
    submitted: u64,
    rejected: u64,
    depth_sum: u64,
    /// Requests and wall time of each capacity segment.
    segments: Vec<(usize, Duration)>,
    caches: Vec<Arc<DiskCache>>,
    memo_entries: usize,
}

impl Pass {
    /// Median over the full capacity segments (all segments when none is
    /// full) of requests completed per second.
    fn capacity_rps(&self) -> f64 {
        let full: Vec<&(usize, Duration)> = self
            .segments
            .iter()
            .filter(|s| s.0 == RESTART_EVERY)
            .collect();
        let pick = if full.is_empty() {
            self.segments.iter().collect()
        } else {
            full
        };
        let mut rates: Vec<f64> = pick
            .iter()
            .map(|(n, t)| *n as f64 / t.as_secs_f64())
            .collect();
        rates.sort_by(f64::total_cmp);
        median(&rates).unwrap_or(0.0)
    }
}

/// Zipf rank of (working-set stratum, option variant): a fixed order, the
/// same for every seed, so the popularity of each shape never moves.
fn popularity_rank(stratum: usize, option: usize) -> usize {
    let slots = 3 * (SHAPES.len() + 1);
    let mut order: Vec<usize> = (0..slots).collect();
    let mut rng = SplitMix64::new(0x21F);
    for i in (1..slots).rev() {
        order.swap(i, rng.range(0, i as u32) as usize);
    }
    order
        .iter()
        .position(|&slot| slot == 3 * stratum + option)
        .expect("every slot is ranked")
}

/// Returns at `due` (since `epoch`), or at once when it has passed.
fn wait_until(epoch: Instant, due: Duration) {
    let now = epoch.elapsed();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Submits one request; a refusal at the door is a failed operation.
#[allow(clippy::too_many_arguments)]
fn submit(
    setup: &Setup,
    service: &Arc<CompileService>,
    tx: &mpsc::Sender<Pending>,
    epoch: Instant,
    idx: usize,
    request: Request,
    due: Duration,
    p: &mut Pass,
    res: &mut RunResult,
) {
    let variant = &setup.variants[request.variant];
    let opts = variant.opts.clone();
    p.depth_sum += service.queue_depth() as u64;
    let submit_start = epoch.elapsed();
    let ticket = service.submit(&setup.cores[variant.core], setup.source(&request), opts);
    let submit_end = epoch.elapsed();
    match ticket {
        Ok(ticket) => {
            tx.send(Pending {
                idx,
                request,
                due,
                submit_start,
                submit_end,
                ticket,
                service: Arc::clone(service),
            })
            .expect("the collector outlives the generator");
            p.submitted += 1;
        }
        Err(Rejected::Saturated { depth }) => {
            p.rejected += 1;
            res.fail(format!(
                "request {idx} rejected: queue saturated at depth {depth}"
            ));
        }
        Err(Rejected::ShutDown) => res.fail(format!("request {idx} rejected: service shut down")),
    }
}

/// Runs the open loop, then (for a non-zero `capacity`) the closed-loop
/// capacity phase, over a fresh cache directory.
fn pass(
    setup: &Setup,
    seed: u64,
    dir: &Path,
    epoch: Instant,
    backend: Option<&Arc<TimedFs>>,
    capacity: Duration,
    res: &mut RunResult,
) -> Pass {
    let _ = std::fs::remove_dir_all(dir);
    let failures = Mutex::new(Vec::new());
    let completed = Completed::default();
    let (tx, rx) = mpsc::channel::<Pending>();
    let mut p = Pass {
        done: Vec::new(),
        submitted: 0,
        rejected: 0,
        depth_sum: 0,
        segments: Vec::new(),
        caches: Vec::new(),
        memo_entries: 0,
    };
    let n = setup.requests.len();
    let restarts: Vec<usize> = RESTARTS.iter().map(|f| (f * n as f64) as usize).collect();
    tighten_timer_slack();
    std::thread::scope(|scope| {
        let (completed, failures) = (&completed, &failures);
        let collector = scope.spawn(move || collect(setup, epoch, rx, completed, failures));
        let mut caches = Vec::new();
        let mut service = make_service(dir, backend, &mut caches);
        // A restart drains the old service, tears it down and opens a
        // fresh session and service over the same directory. The
        // downtime is a pause: the arrival clock stops for it, so it
        // charges no request and no capacity window.
        let mut restart =
            |service: &mut Arc<CompileService>, submitted: u64, paused: &mut Duration| {
                let t = epoch.elapsed();
                completed.wait_for(submitted);
                *service = make_service(dir, backend, &mut caches);
                *paused += epoch.elapsed() - t;
            };
        let mut paused = Duration::ZERO;
        let start = epoch.elapsed();
        for (idx, (request, &due)) in setup.requests.iter().zip(&setup.due).enumerate() {
            if restarts.contains(&idx) {
                restart(&mut service, p.submitted, &mut paused);
            }
            let due = start + paused + due;
            wait_until(epoch, due);
            submit(
                setup,
                &service,
                &tx,
                epoch,
                idx,
                request.clone(),
                due,
                &mut p,
                res,
            );
        }
        // Capacity: segments of RESTART_EVERY requests, each on a freshly
        // restarted service, with CAPACITY_OUTSTANDING requests in flight.
        let mut rng = SplitMix64::substream(seed, CAPACITY);
        let mut idx = n;
        let mut spent = Duration::ZERO;
        while spent < capacity {
            let mut downtime = Duration::ZERO;
            restart(&mut service, p.submitted, &mut downtime);
            let segment_start = epoch.elapsed();
            let first = idx;
            while idx - first < RESTART_EVERY
                && spent + (epoch.elapsed() - segment_start) < capacity
            {
                completed.wait_for((p.submitted + 1).saturating_sub(CAPACITY_OUTSTANDING));
                let request = setup.draw_known(&mut rng);
                submit(
                    setup,
                    &service,
                    &tx,
                    epoch,
                    idx,
                    request,
                    epoch.elapsed(),
                    &mut p,
                    res,
                );
                idx += 1;
            }
            completed.wait_for(p.submitted);
            let segment = epoch.elapsed() - segment_start;
            spent += segment;
            p.segments.push((idx - first, segment));
        }
        completed.wait_for(p.submitted);
        p.memo_entries = service.session().cached_artifacts();
        drop(service);
        drop(tx);
        p.done = collector.join().expect("the collector does not panic");
        p.caches = caches;
    });
    for f in failures
        .into_inner()
        .expect("failure log lock: no panics while held")
    {
        res.fail(f);
    }
    p
}

/// Exact-repeat counts of the open-loop requests.
fn counts(p: &Pass, open: usize) -> Counts {
    let mut c = Counts::default();
    for d in p.done.iter().filter(|d| d.idx < open) {
        c.add(&format!("ops.{}", d.class), 1);
        if let Some(parts) = &d.parts {
            c.add("rts", parts.rts as u64);
            c.add("sched_cycles", u64::from(parts.cycles));
            c.add(
                "bound_gap",
                u64::from(parts.cycles.saturating_sub(parts.bound)),
            );
            c.add(&format!("stage_hits.{}", d.class), u64::from(d.hits));
            c.add("disk_hits", u64::from(d.disk_hits));
        }
        if let Some((_, _, Err(kind))) = &d.fresh {
            c.add(&format!("verdict.{kind}"), 1);
        }
    }
    c
}

/// Compiles a reference for every never-seen source the pass served and
/// compares it with the served digest or verdict, then runs frames of it
/// through the golden model. Traced: each reference is a `reference`
/// operation through the stage functions.
fn verify_fresh(
    setup: &Setup,
    seed: u64,
    p: &Pass,
    mut tracer: Option<&mut Tracer>,
    shape: &mut Shape,
    res: &mut RunResult,
) {
    for d in &p.done {
        let Some((id, v, served)) = &d.fresh else {
            continue;
        };
        let variant = &setup.variants[*v];
        let core = &setup.cores[variant.core];
        let source = variant.app.with_variant(*id).source();
        let root = tracer.as_deref_mut().map(|t| t.begin_op());
        let reference: Result<Compiled, CompileError> = match tracer.as_deref_mut() {
            Some(t) => {
                let mut classes = 0;
                let r = staged::compile(
                    &mut StagedMemo::default(),
                    t,
                    core,
                    &source,
                    &variant.opts,
                    &mut classes,
                );
                if let Ok(c) = &r {
                    shape.add(c, classes);
                }
                r
            }
            None => CompileSession::new().compile(core, &source, &variant.opts),
        };
        let agrees = match (&reference, served) {
            (Ok(r), Ok(got)) => digest(r) == *got,
            (Err(e), Err(kind)) => verdict(e).ok() == Some(*kind),
            _ => false,
        };
        if !agrees {
            res.fail(format!(
                "request {}: never-seen {} served differently from its reference",
                d.idx,
                variant.app.with_variant(*id).name()
            ));
        }
        if let Ok(r) = &reference {
            let inputs = common::stimulus(r, CHECK_FRAMES, seed, *id);
            if let Err(msg) = golden_check(r, &inputs, tracer.as_deref_mut()) {
                res.fail(format!("request {}: {msg}", d.idx));
            }
        }
        if let (Some(t), Some(root)) = (tracer.as_deref_mut(), root) {
            t.end_op(root, "reference");
        }
    }
}

/// Times the artifact codecs on the working-set references, checking
/// that each round trip reproduces its artifact; returns microseconds per
/// codec call.
fn codec_probe(setup: &Setup, t: &mut Tracer, res: &mut RunResult) -> f64 {
    let root = t.begin_op();
    let mut calls = 0u32;
    let start = t.now();
    for v in &setup.variants {
        let r = &v.reference;
        let schedule = ScheduleArtifact {
            schedule: Arc::clone(&r.schedule),
            bound: r.schedule_bound,
            degradation: r.stats.degradation,
            time: Duration::ZERO,
        };
        let encoded = EncodeArtifact {
            microcode: Arc::clone(&r.microcode),
            time: Duration::ZERO,
        };
        let span = t.begin("cache.codec");
        let back_schedule =
            cache::decode_schedule_artifact(&cache::encode_schedule_artifact(&schedule));
        let back_encoded = cache::decode_encode_artifact(
            &cache::encode_encode_artifact(&encoded),
            &setup.cores[v.core],
        );
        t.end_calls(span, 4);
        calls += 4;
        let same = matches!(&back_schedule, Ok(s) if *s.schedule == *r.schedule)
            && matches!(&back_encoded, Ok(e) if e.microcode.words == r.microcode.words && e.microcode.rom_image == r.microcode.rom_image);
        if !same {
            res.fail(format!(
                "codec round trip of {} changed the artifact",
                v.app.name()
            ));
        }
    }
    let spent = t.now() - start;
    t.end_op(root, "codec");
    spent.as_secs_f64() * 1e6 / f64::from(calls.max(1))
}

/// Turns a traced pass into spans: each request is an operation from its
/// due time to its reply, with the submit call, the stage times the
/// served `CompileStats` report, and the cache I/O calls made while it
/// was the request in service.
fn record_spans(t: &mut Tracer, p: &Pass, fs: &TimedFs) {
    let events = fs
        .events
        .lock()
        .expect("event log lock: no panics while held");
    let mut next_event = 0;
    let mut previous_reply = Duration::ZERO;
    for d in &p.done {
        let root = t.record_op(d.class, d.due, d.reply);
        t.record_child(root, "service.submit", d.submit_start, d.submit_end);
        let mut at = d.submit_end;
        for (name, &nanos) in STAGE_SPANS.iter().zip(&d.stages) {
            if nanos > 0 {
                let spent = Duration::from_nanos(u64::from(nanos));
                t.record_child(root, name, at, at + spent);
                at += spent;
            }
        }
        // One worker serves requests in submission order, so the cache
        // calls between two replies belong to the later request.
        while next_event < events.len() && events[next_event].0 <= d.reply {
            let (start, end, name) = events[next_event];
            if start > previous_reply {
                t.record_child(root, name, start, end);
            }
            next_event += 1;
        }
        previous_reply = d.reply;
    }
}

fn quality() -> (f64, f64) {
    let setup = Setup::new(crate::QUALITY_SEED, 0.0, None);
    let cycles: Vec<f64> = setup
        .variants
        .iter()
        .map(|v| f64::from(v.reference.cycles()))
        .collect();
    (
        geomean(&cycles),
        setup.variants.len() as f64 / setup.drawn as f64,
    )
}

/// Latencies from due time of the requests whose index `keep` selects:
/// all of them, and the memo hits whose `ahead` predecessors (in
/// submission order, which is the order one worker serves) were memo hits
/// too. In the closed loop a request is due when it is submitted.
fn latencies(p: &Pass, keep: impl Fn(usize) -> bool, ahead: usize) -> (Samples, Samples) {
    let (mut all, mut hits) = (Samples::default(), Samples::default());
    let mut hits_in_a_row = 0;
    for d in p.done.iter().filter(|d| keep(d.idx)) {
        let latency = due_latency(d.due, d.reply);
        all.push(latency);
        if d.class == "hit" {
            if hits_in_a_row >= ahead {
                hits.push(latency);
            }
            hits_in_a_row += 1;
        } else {
            hits_in_a_row = 0;
        }
    }
    (all, hits)
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    single_malloc_arena();
    let open_seconds = args.seconds * OPEN_SHARE;
    let capacity = Duration::from_secs_f64(args.seconds - open_seconds);
    let (setup_s, setup) =
        median_setup(SETUP_REPEATS, || Setup::new(args.seed, open_seconds, None));
    let open = setup.requests.len();
    let dir: PathBuf = args
        .work_dir
        .join(format!("service-cache-{}", std::process::id()));
    let mut res = RunResult::default();

    let epoch = Instant::now();
    let untraced = pass(
        &setup,
        args.seed,
        &dir,
        epoch,
        None,
        if args.trace { Duration::ZERO } else { capacity },
        &mut res,
    );
    res.attempted = untraced.done.len() as u64 + untraced.rejected;
    verify_fresh(
        &setup,
        args.seed,
        &untraced,
        None,
        &mut Shape::default(),
        &mut res,
    );
    let untraced_counts = counts(&untraced, open);
    let (all, hits) = latencies(&untraced, |i| i < open, 0);

    if args.trace {
        let epoch = Instant::now();
        let fs = Arc::new(TimedFs {
            epoch,
            events: Mutex::new(Vec::new()),
        });
        let mut t = Tracer::new(epoch);
        let root = t.begin_op();
        let _ = build_cores(Some(&mut t));
        t.end_op(root, "setup");
        let traced = pass(
            &setup,
            args.seed,
            &dir,
            epoch,
            Some(&fs),
            Duration::ZERO,
            &mut res,
        );
        res.attempted += traced.done.len() as u64 + traced.rejected;
        let traced_counts = counts(&traced, open);
        compare_counts(&mut res, &untraced_counts, &traced_counts);
        record_spans(&mut t, &traced, &fs);
        let mut shape = Shape::default();
        for d in &traced.done {
            if let Some(parts) = &d.parts {
                shape.add_parts(parts, 0);
            }
        }
        verify_fresh(
            &setup,
            args.seed,
            &traced,
            Some(&mut t),
            &mut shape,
            &mut res,
        );
        let codec_us = codec_probe(&setup, &mut t, &mut res);

        let served: Vec<&Done> = traced.done.iter().filter(|d| d.parts.is_some()).collect();
        let events = fs
            .events
            .lock()
            .expect("event log lock: no panics while held");
        let io_time = |name: &str| -> (u64, f64) {
            let matching = events.iter().filter(|e| e.2 == name);
            (
                matching.clone().count() as u64,
                matching.map(|e| (e.1 - e.0).as_secs_f64()).sum(),
            )
        };
        let (reads, read_time) = io_time("cache.read");
        let (_, write_time) = io_time("cache.write");
        let cache = traced
            .caches
            .iter()
            .map(|c| c.stats())
            .fold((0, 0, 0), |acc, s| {
                (acc.0 + s.hits, acc.1 + s.misses, acc.2 + s.stores)
            });
        let mean = |xs: Vec<f64>| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
        let (traced_all, _) = latencies(&traced, |i| i < open, 0);
        let extras = Extras {
            memo_entries: traced.memo_entries as f64,
            cache_disk_hits: served.iter().map(|d| u64::from(d.disk_hits)).sum(),
            cache_stores: cache.2,
            cache_hit_ratio: cache.0 as f64 / (cache.0 + cache.1).max(1) as f64,
            service_rejected: traced.rejected,
            queue_depth_mean: traced.depth_sum as f64
                / (traced.submitted + traced.rejected).max(1) as f64,
            trace_overhead_pct: crate::overhead_pct(all.mean(), traced_all.mean()),
            lookup_us: None,
            cache_load_us: Some(read_time * 1e6 / reads.max(1) as f64),
            cache_store_us: Some(write_time * 1e6 / cache.2.max(1) as f64),
            cache_codec_us: Some(codec_us),
            submit_us: Some(mean(
                traced
                    .done
                    .iter()
                    .map(|d| (d.submit_end - d.submit_start).as_secs_f64() * 1e6)
                    .collect(),
            )),
            non_compile_ms: Some(mean(
                served
                    .iter()
                    .map(|d| {
                        (d.reply - d.submit_start)
                            .saturating_sub(d.compile_time())
                            .as_secs_f64()
                            * 1e3
                    })
                    .collect(),
            )),
            generator_late_ms: Some(mean(
                traced
                    .done
                    .iter()
                    .filter(|d| d.idx < open)
                    .map(|d| generator_lateness(d.due, d.submit_start).as_secs_f64() * 1e3)
                    .collect(),
            )),
        };
        drop(events);
        layers::report(&mut res, t.spans(), &shape, &extras);
        crate::write_spans(args, &t)?;
        res.counts = traced_counts;
        let _ = std::fs::remove_dir_all(&dir);
        return Ok(res);
    }
    let _ = std::fs::remove_dir_all(&dir);

    let (p50, p99) = all.p50_p99("service request", OPEN_LOOP_WINDOWS)?;
    let (hit_p50, hit_p99) = hits.p50_p99("memo-hit request", OPEN_LOOP_WINDOWS)?;
    // The gated latencies come from the saturated closed loop, where each
    // is a wait behind the requests in flight and the tail is set by
    // restarts, not by the open loop's few cold compiles and their writes.
    // Its inner latencies are the memo hits queued behind memo hits only:
    // the service's own hit path, without the restarts' disk reads.
    let (saturated, saturated_hits) =
        latencies(&untraced, |i| i >= open, CAPACITY_OUTSTANDING as usize);
    let (sat_p50, sat_p99) = saturated.p50_p99("saturated request", SATURATED_WINDOWS)?;
    let (sat_hit_p50, sat_hit_p99) =
        saturated_hits.p50_p99("saturated memo hit", SATURATED_WINDOWS)?;
    let capacity_rps = untraced.capacity_rps();
    let lateness: Vec<f64> = untraced
        .done
        .iter()
        .filter(|d| d.idx < open)
        .map(|d| generator_lateness(d.due, d.submit_start).as_secs_f64() * 1e3)
        .collect();
    let late_mean = lateness.iter().sum::<f64>() / lateness.len().max(1) as f64;
    let (cycles_geomean, feasible) = quality();
    res.metric("setup_s", setup_s, "s");
    res.metric("latency_p50_ms", sat_p50 * 1e3, "ms");
    res.metric("latency_p99_ms", sat_p99 * 1e3, "ms");
    res.metric("inner_p50_us", sat_hit_p50 * 1e6, "us");
    res.metric("inner_p99_us", sat_hit_p99 * 1e6, "us");
    res.metric("throughput_per_s", capacity_rps, "1/s");
    res.metric("peak_rss_mb", common::peak_rss_mb(), "MB");
    res.metric("sched_cycles_geomean", cycles_geomean, "cycles");
    res.metric("feasible_share", feasible, "ratio");
    res.report.push(format!(
        "service_mixed: {open} open-loop requests offered at {OFFERED_RATE_RPS} req/s, {} variants in the working set, {} restarts",
        setup.variants.len(),
        RESTARTS.len()
    ));
    res.report
        .push(format!("  service_p50_ms        {:.4} ms", p50 * 1e3));
    res.report.push(format!(
        "  service_p99_ms        {:.4} ms  (n = {})",
        p99 * 1e3,
        all.len()
    ));
    res.report
        .push(format!("  hit_request_p50_us    {:.4} us", hit_p50 * 1e6));
    res.report.push(format!(
        "  hit_request_p99_us    {:.4} us  (n = {})",
        hit_p99 * 1e6,
        hits.len()
    ));
    res.report
        .push(format!("  service_capacity_rps  {capacity_rps:.1} req/s"));
    res.report.push(format!(
        "  saturated ({CAPACITY_OUTSTANDING} in flight): p50 {:.4} ms  p99 {:.4} ms  (n = {}); memo hits behind memo hits p50 {:.4} ms  p99 {:.4} ms",
        sat_p50 * 1e3,
        sat_p99 * 1e3,
        saturated.len(),
        sat_hit_p50 * 1e3,
        sat_hit_p99 * 1e3
    ));
    for class in ["hit", "disk", "reschedule", "cold"] {
        let mut s: Vec<f64> = untraced
            .done
            .iter()
            .filter(|d| d.idx < open && d.class == class)
            .map(|d| due_latency(d.due, d.reply).as_secs_f64() * 1e3)
            .collect();
        s.sort_by(f64::total_cmp);
        let at = |q: f64| {
            s.get(((q * s.len() as f64) as usize).min(s.len().saturating_sub(1)))
                .copied()
                .unwrap_or(0.0)
        };
        res.report.push(format!(
            "    {class:<10} n = {:<6} p50 {:.4} ms  p90 {:.4} ms  max {:.4} ms",
            s.len(),
            at(0.5),
            at(0.9),
            s.last().copied().unwrap_or(0.0)
        ));
    }
    res.report
        .push(format!("  generator_late_ms     {late_mean:.4} ms (mean)"));
    res.report.push(format!(
        "  sched_cycles_geomean  {cycles_geomean:.4} cycles  (fixed working set)"
    ));
    res.report
        .push(format!("  feasible_share        {feasible:.4}"));
    res.counts = untraced_counts;
    Ok(res)
}
