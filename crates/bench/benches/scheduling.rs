//! Scheduler runtime: list scheduling, insertion scheduling, compaction,
//! and folding on generated DSP workloads of growing size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dspcc::dfg::{parse, Dfg};
use dspcc::rtgen::{lower, LowerOptions, Lowering};
use dspcc::sched::bounds::length_lower_bound;
use dspcc::sched::compact::schedule_and_compact;
use dspcc::sched::deps::DependenceGraph;
use dspcc::sched::folding::fold_schedule;
use dspcc::sched::list::{best_effort_schedule, insertion_schedule, list_schedule, ListConfig};
use dspcc::sched::ConflictMatrix;
use dspcc::{apps, cores};

fn lowered_fir(taps: usize) -> (Lowering, DependenceGraph) {
    let core = cores::audio_core();
    let dfg = Dfg::build(&parse(&apps::fir(taps)).unwrap()).unwrap();
    let lowering = lower(&dfg, &core.datapath, &LowerOptions::default()).unwrap();
    let deps =
        DependenceGraph::build_with_edges(&lowering.program, &lowering.sequence_edges).unwrap();
    (lowering, deps)
}

fn bench_schedulers(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduling");
    for taps in [8usize, 16, 32] {
        let (lowering, deps) = lowered_fir(taps);
        let matrix = ConflictMatrix::build(&lowering.program);
        group.bench_with_input(BenchmarkId::new("list", taps), &taps, |b, _| {
            b.iter(|| list_schedule(&lowering.program, &deps, &ListConfig::default()).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("insertion", taps), &taps, |b, _| {
            b.iter(|| {
                insertion_schedule(&lowering.program, &deps, &matrix, &ListConfig::default())
                    .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("compacted", taps), &taps, |b, _| {
            b.iter(|| schedule_and_compact(&lowering.program, &deps, None, 2).unwrap())
        });
    }
    // Folding on a feedback cascade.
    let core = cores::audio_core();
    let dfg = Dfg::build(&parse(&apps::biquad_cascade(6)).unwrap()).unwrap();
    let lowering = lower(&dfg, &core.datapath, &LowerOptions::default()).unwrap();
    let deps =
        DependenceGraph::build_with_edges(&lowering.program, &lowering.sequence_edges).unwrap();
    let edges: Vec<dspcc::sched::folding::LoopEdge> = lowering
        .loop_edges
        .iter()
        .map(|&(from, to, distance)| dspcc::sched::folding::LoopEdge { from, to, distance })
        .collect();
    group.bench_function("fold_biquad6", |b| {
        b.iter(|| fold_schedule(&lowering.program, &deps, &edges, 64).unwrap())
    });
    group.finish();
}

/// The bound-aware restart engine: how much the provable lower bound
/// costs to compute, and what the full restart roster costs.
fn bench_bound_cutoff(c: &mut Criterion) {
    let mut group = c.benchmark_group("bound_cutoff");
    for taps in [16usize, 32] {
        let (lowering, deps) = lowered_fir(taps);
        let matrix = ConflictMatrix::build(&lowering.program);
        group.bench_with_input(BenchmarkId::new("bound_compute", taps), &taps, |b, _| {
            b.iter(|| length_lower_bound(&lowering.program, &deps, &matrix))
        });
        group.bench_with_input(BenchmarkId::new("restarts_serial", taps), &taps, |b, _| {
            b.iter(|| best_effort_schedule(&lowering.program, &deps, None, 4).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_schedulers, bench_bound_cutoff);
criterion_main!(benches);
