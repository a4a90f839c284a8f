//! Co-design benchmarks: what one HW/SW Pareto sweep costs.
//!
//! `union_cores` is one cross-core structural union plus ISA
//! re-derivation — the fixed overhead of every union candidate.
//! `hw_cost` is the hardware-cost model on a generated core: the
//! datapath walk, reading the field layout the core derived on the first
//! call. `sweep_4x2` is a whole small sweep —
//! 4 seeds + 2 adjacent unions + merge moves × 2 apps, every point
//! differentially verified — the unit CI's codesign-smoke job runs; its
//! throughput decides how much of the design space each change explores
//! per CI-minute.

use criterion::{criterion_group, criterion_main, Criterion};
use dspcc::codesign::{Codesign, HwCost};
use dspcc::{apps, cores};

fn bench_codesign(c: &mut Criterion) {
    let mut group = c.benchmark_group("codesign");
    group.sample_size(10);

    group.bench_function("union_cores", |b| {
        // Rotate the pair so the interner's warm path is what's measured;
        // adjacent generated cores union cleanly (pinned by the fleet).
        let mut seed = 0u64;
        b.iter(|| {
            seed = (seed + 2) % 32;
            cores::merged_core(seed, seed + 1).expect("backbone pair unions")
        })
    });

    let core = cores::generated_core(1);
    group.bench_function("hw_cost", |b| {
        b.iter(|| {
            let cost = HwCost::of(&core);
            assert!(cost.scalar() > 0);
            cost
        })
    });

    let sweep = Codesign::new()
        .seed_range(0..4)
        .union_adjacent()
        .app("fir8", apps::fir(8))
        .app("sop6", apps::sum_of_products(6))
        .frames(4)
        .threads(1);
    group.bench_function("sweep_4x2", |b| {
        b.iter(|| {
            let report = sweep.run();
            assert_eq!(report.mismatches().count(), 0);
            assert!(!report.frontier.is_empty());
            report
        })
    });

    group.finish();
}

criterion_group!(benches, bench_codesign);
criterion_main!(benches);
