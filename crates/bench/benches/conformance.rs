//! Conformance-fleet benchmarks: the cost of opening the architecture
//! axis as a routine test dimension.
//!
//! `generate_core` is one seeded architecture + ISA derivation — the
//! fixed per-seed overhead of a fleet. `cell_fir8` is one complete
//! conformance cell (compile + 8 differentially verified frames) on a
//! feasible generated core. `fleet_16x2` is a whole small fleet — 16
//! seeds × 2 apps through one shared session — the unit CI's
//! conform-smoke job runs; its throughput is what decides how many
//! architectures every future scheduler/encoder change gets checked
//! against per CI-minute.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use dspcc::conform::{conform_cell, ConformFleet};
use dspcc::{apps, cores, CellOutcome, CompileOptions, CompileSession};

fn bench_conformance(c: &mut Criterion) {
    let mut group = c.benchmark_group("conformance");
    group.sample_size(10);

    group.bench_function("generate_core", |b| {
        // Rotate seeds so the interner's warm path (not a single hot
        // string set) is what's measured.
        let mut seed = 0u64;
        b.iter(|| {
            seed = (seed + 1) % 64;
            cores::generated_core(seed)
        })
    });

    // Seed 1 compiles fir8 on the default config (pinned by the fleet
    // tests); panic here means the block drifted, not a perf change.
    let core = Arc::new(cores::generated_core(1));
    let fir = apps::fir(8);
    let opts = CompileOptions {
        restarts: 2,
        ..CompileOptions::default()
    };
    group.bench_function("cell_fir8", |b| {
        b.iter(|| {
            let session = CompileSession::new();
            let out = conform_cell(&session, &core, 1, "fir8", &fir, 8, &opts);
            assert!(matches!(out, CellOutcome::Pass { .. }), "{out:?}");
            out
        })
    });

    let fleet = ConformFleet::new()
        .seed_range(0..16)
        .app("fir8", apps::fir(8))
        .app("sop6", apps::sum_of_products(6))
        .frames(8)
        .threads(1);
    group.bench_function("fleet_16x2", |b| {
        b.iter(|| {
            let report = fleet.run();
            assert_eq!(report.mismatches().count(), 0);
            report
        })
    });

    group.finish();
}

criterion_group!(benches, bench_conformance);
criterion_main!(benches);
