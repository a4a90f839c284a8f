//! Compile-service throughput: what the queue + worker-pool layer
//! costs over calling the session directly.
//!
//! `round_trip_warm` measures one submit → wait round trip through a
//! fully warmed service (every stage a memo hit), i.e. pure dispatch
//! overhead: admission control, queueing, worker hand-off, and outcome
//! signalling. `burst_corpus` pushes one warmed request per corpus app
//! and waits for all of them — the interleaved steady-state the CI soak
//! exercises at scale. `round_trip_disk` round-trips through a service
//! whose session memo is cleared each iteration but whose persistent
//! disk cache stays hot, measuring the deserialize-and-validate path.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use dspcc::conform::standard_corpus;
use dspcc::{
    apps, cores, CompileOptions, CompileService, CompileSession, DiskCache, ServiceConfig,
    ServiceOutcome,
};

fn expect_served(outcome: ServiceOutcome) {
    match outcome {
        ServiceOutcome::Served { .. } => {}
        other => panic!("expected Served, got {other:?}"),
    }
}

fn bench_service_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_throughput");
    group.sample_size(10);
    let core = Arc::new(cores::audio_core());
    let options = CompileOptions {
        restarts: 2,
        ..CompileOptions::default()
    };

    let warm = CompileService::new(Arc::new(CompileSession::new()), ServiceConfig::default());
    let fir = apps::fir(8);
    expect_served(warm.submit(&core, &fir, options.clone()).unwrap().wait());
    group.bench_function("round_trip_warm", |b| {
        b.iter(|| {
            let ticket = warm.submit(&core, &fir, options.clone()).unwrap();
            expect_served(ticket.wait());
        })
    });

    let corpus = standard_corpus();
    for (_, src) in &corpus {
        expect_served(warm.submit(&core, src, options.clone()).unwrap().wait());
    }
    group.bench_function("burst_corpus", |b| {
        b.iter(|| {
            let tickets: Vec<_> = corpus
                .iter()
                .map(|(_, src)| warm.submit(&core, src, options.clone()).unwrap())
                .collect();
            for ticket in tickets {
                expect_served(ticket.wait());
            }
        })
    });

    // Disk tier: a fresh (cold-memo) session every iteration over a hot
    // on-disk cache — schedule and encode deserialize + checksum instead
    // of recomputing.
    let dir = std::env::temp_dir().join(format!("dspcc-bench-service-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = Arc::new(DiskCache::new(&dir));
    expect_served(
        CompileService::new(
            Arc::new(CompileSession::with_disk_cache(Arc::clone(&cache))),
            ServiceConfig::default(),
        )
        .submit(&core, &fir, options.clone())
        .unwrap()
        .wait(),
    );
    group.bench_function("round_trip_disk", |b| {
        b.iter(|| {
            let service = CompileService::new(
                Arc::new(CompileSession::with_disk_cache(Arc::clone(&cache))),
                ServiceConfig::default(),
            );
            let ticket = service.submit(&core, &fir, options.clone()).unwrap();
            expect_served(ticket.wait());
        })
    });
    let _ = std::fs::remove_dir_all(&dir);

    group.finish();
}

criterion_group!(benches, bench_service_throughput);
criterion_main!(benches);
