//! Compile-service soak under chaos-injected cache I/O.
//!
//! Drives hundreds of interleaved requests from the standard application
//! corpus through a [`dspcc::CompileService`] whose persistent artifact
//! cache sits on a fault-injecting backend. Every served artifact is
//! compared bit-exact (microcode words, ROM image, schedule, register
//! assignment) against a cache-less reference compile: **one wrong serve
//! fails the soak** and exits non-zero with the offending
//! `(seed, kind, app)` triple.
//!
//! Saturated submits are expected — the queue is deliberately shallow so
//! admission control actually fires — and are absorbed by waiting out an
//! outstanding ticket before resubmitting; admitted work is never
//! dropped.
//!
//! Halfway through each seed the service restarts on a fresh session over
//! the same cache, so the second half reads back the entries the chaos
//! backend let the first half write. `read-error` seeds surface transient
//! errors as `CacheIo` (`TransientPolicy::Fail`) on a disk that recovers
//! within the service's retry budget. The soak also fails when a recovery
//! path it should drive never ran: a `read-error` seed with no retry, or
//! a `torn-write` / `flip-byte` seed with no quarantined entry.
//!
//! ```text
//! cargo run --release --example service_soak -- [--requests N]
//!     [--chaos-start S] [--chaos-seeds K] [--workers W] [--queue Q]
//! ```
//!
//! The default chaos window (seeds 32..40) is disjoint from the block
//! `tests/io_fault.rs` pins under tier-1 (seeds 0..7), so CI buys fresh
//! fault coverage rather than a re-run.

use std::collections::VecDeque;
use std::sync::Arc;

use dspcc::conform::standard_corpus;
use dspcc::{
    cores, ArtifactDivergence, ChaosBackend, CompileOptions, CompileService, CompileSession,
    Compiled, DiskCache, IoFaultKind, Rejected, ServiceConfig, ServiceOutcome, StdFs, Ticket,
    TransientPolicy,
};

fn main() {
    let mut requests = 300usize;
    let mut chaos_start = 32u64;
    let mut chaos_seeds = 8u64;
    let mut workers = 4usize;
    let mut queue = 8usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{what} needs a value"))
        };
        match arg.as_str() {
            "--requests" => requests = value("--requests").parse().expect("--requests: integer"),
            "--chaos-start" => {
                chaos_start = value("--chaos-start")
                    .parse()
                    .expect("--chaos-start: integer")
            }
            "--chaos-seeds" => {
                chaos_seeds = value("--chaos-seeds")
                    .parse()
                    .expect("--chaos-seeds: integer")
            }
            "--workers" => workers = value("--workers").parse().expect("--workers: integer"),
            "--queue" => queue = value("--queue").parse().expect("--queue: integer"),
            other => panic!("unknown argument `{other}` (see the example's docs)"),
        }
    }

    let core = Arc::new(cores::audio_core());
    let corpus = standard_corpus();
    let options = CompileOptions {
        restarts: 2,
        fuel: Some(100_000),
        ..CompileOptions::default()
    };

    // Cache-less reference artifacts: what every serve must equal.
    let reference_session = CompileSession::new();
    let references: Vec<Compiled> = corpus
        .iter()
        .map(|(name, src)| {
            reference_session
                .compile(&core, src, &options)
                .unwrap_or_else(|e| panic!("reference compile of {name} failed: {e}"))
        })
        .collect();

    let per_seed = requests.div_ceil(chaos_seeds.max(1) as usize);
    let config = ServiceConfig {
        workers,
        queue_depth: queue,
        ..ServiceConfig::default()
    };
    let mut total_submitted = 0usize;
    let mut total_served = 0u64;
    let mut total_saturated = 0u64;
    let mut total_retries = 0u64;
    let mut total_disk_hits = 0u64;
    let mut total_injected = 0u64;
    let mut total_quarantined = 0u64;
    let mut wrong: Vec<String> = Vec::new();
    let mut failed: Vec<String> = Vec::new();
    let mut unexercised: Vec<String> = Vec::new();

    for seed in chaos_start..chaos_start + chaos_seeds {
        // Each seed gets a private chaos-backed cache; the fault kind
        // cycles through the full taxonomy. A read-error seed surfaces
        // transient errors as `CacheIo` and its disk recovers within the
        // service's retry budget, so the retry path runs and serves.
        let kind = IoFaultKind::ALL[(seed % IoFaultKind::ALL.len() as u64) as usize];
        let mut chaos = ChaosBackend::new(Arc::new(StdFs), kind, seed);
        let mut policy = TransientPolicy::Recompute;
        if kind == IoFaultKind::ReadError {
            chaos = chaos.with_read_error_budget(u64::from(config.retries));
            policy = TransientPolicy::Fail;
        }
        let chaos = Arc::new(chaos);
        let dir = std::env::temp_dir().join(format!(
            "dspcc-service-soak-{}-{seed:x}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Arc::new(
            DiskCache::with_backend(&dir, Arc::clone(&chaos) as _).transient_policy(policy),
        );
        let mut seed_retries = 0u64;

        // Interleave the corpus round-robin; on saturation, drain the
        // oldest outstanding ticket and resubmit — backpressure, not
        // loss.
        let mut outstanding: VecDeque<(usize, Ticket)> = VecDeque::new();
        let mut settle = |(app, ticket): (usize, Ticket),
                          served: &mut u64,
                          retries: &mut u64,
                          disk_hits: &mut u64| {
            match ticket.wait() {
                ServiceOutcome::Served {
                    compiled,
                    retries: r,
                    disk_hits: d,
                    ..
                } => {
                    *served += 1;
                    *retries += u64::from(r);
                    *disk_hits += u64::from(d);
                    if let Some(part) = compiled.diverges_from(&references[app]) {
                        let detail = match part {
                            ArtifactDivergence::MicrocodeWords => "microcode words",
                            ArtifactDivergence::RomImage => "coefficient ROM",
                            ArtifactDivergence::Schedule => "schedule",
                            ArtifactDivergence::RegisterMapping => "register assignment",
                        };
                        wrong.push(format!(
                            "seed {seed:#x} kind {kind} app {}: {detail} diverged",
                            corpus[app].0
                        ));
                    }
                }
                ServiceOutcome::Failed(e) => failed.push(format!(
                    "seed {seed:#x} kind {kind} app {}: {e}",
                    corpus[app].0
                )),
                ServiceOutcome::ShutDown => failed.push(format!(
                    "seed {seed:#x} kind {kind} app {}: shut down mid-soak",
                    corpus[app].0
                )),
            }
        };
        // Each half of the seed's requests runs on a fresh service and
        // session over the same cache: the second half is served from
        // what the chaos backend let the first half write.
        for half in [0..per_seed / 2, per_seed / 2..per_seed] {
            let session = Arc::new(CompileSession::with_disk_cache(Arc::clone(&cache)));
            let mut service = CompileService::new(session, config.clone());
            for i in half {
                let app = i % corpus.len();
                loop {
                    match service.submit(&core, &corpus[app].1, options.clone()) {
                        Ok(ticket) => {
                            total_submitted += 1;
                            outstanding.push_back((app, ticket));
                            break;
                        }
                        Err(Rejected::Saturated { .. }) => {
                            total_saturated += 1;
                            if let Some(front) = outstanding.pop_front() {
                                settle(
                                    front,
                                    &mut total_served,
                                    &mut seed_retries,
                                    &mut total_disk_hits,
                                );
                            }
                        }
                        Err(Rejected::ShutDown) => unreachable!("service not shut down"),
                    }
                }
            }
            for t in outstanding.drain(..) {
                settle(
                    t,
                    &mut total_served,
                    &mut seed_retries,
                    &mut total_disk_hits,
                );
            }
            let stats = service.stats();
            assert!(
                stats.peak_queue <= queue as u64,
                "queue bound violated: peak {} > {queue}",
                stats.peak_queue
            );
            service.shutdown();
        }
        let quarantined = cache.stats().quarantined;
        let silent = match kind {
            IoFaultKind::ReadError if seed_retries == 0 => Some("no transient retry"),
            IoFaultKind::TornWrite | IoFaultKind::FlipByte if quarantined == 0 => {
                Some("no entry quarantined")
            }
            _ => None,
        };
        if let Some(what) = silent {
            unexercised.push(format!("seed {seed:#x} kind {kind}: {what}"));
        }
        total_retries += seed_retries;
        total_injected += chaos.injected();
        total_quarantined += quarantined;
        let _ = std::fs::remove_dir_all(&dir);
    }

    println!(
        "service soak: {total_submitted} requests over {chaos_seeds} chaos seed(s) \
         ({chaos_start}..{})",
        chaos_start + chaos_seeds
    );
    println!(
        "  served {total_served} | saturated-backoffs {total_saturated} | \
         transient retries {total_retries} | disk hits {total_disk_hits}"
    );
    println!(
        "  faults injected {total_injected} | entries quarantined {total_quarantined} | \
         wrong serves {} | failures {}",
        wrong.len(),
        failed.len()
    );
    if total_injected == 0 {
        eprintln!("\nsoak FAILED — the chaos backend never fired; the run proved nothing");
        std::process::exit(1);
    }
    if !wrong.is_empty() || !failed.is_empty() || !unexercised.is_empty() {
        eprintln!("\nsoak FAILED:");
        for w in &wrong {
            eprintln!("  WRONG ARTIFACT {w}");
        }
        for e in &failed {
            eprintln!("  FAILURE {e}");
        }
        for u in &unexercised {
            eprintln!("  RECOVERY NOT EXERCISED {u}");
        }
        std::process::exit(1);
    }
}
