//! Scheduler runtime: one list pass, the compacting scheduler, and
//! folding on generated DSP workloads of growing size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dspcc::dfg::{parse, Dfg};
use dspcc::rtgen::{lower, LowerOptions, Lowering};
use dspcc::sched::bounds::length_lower_bound;
use dspcc::sched::deps::DependenceGraph;
use dspcc::sched::folding::fold_schedule_with_restarts;
use dspcc::sched::list::Priority;
use dspcc::sched::{schedule, ConflictMatrix, Fuel, Scheduler};
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
        let program = &lowering.program;
        // Each run builds its conflict matrix, so a row times scheduling
        // from the lowered program, including the length lower bound that
        // `schedule` returns.
        let run = |scheduler| {
            let matrix = ConflictMatrix::build(program);
            let mut fuel = Fuel::unlimited();
            schedule(program, &deps, &matrix, scheduler, None, &mut fuel, None).unwrap()
        };
        let list = Scheduler::List {
            priority: Priority::Slack,
        };
        group.bench_with_input(BenchmarkId::new("list", taps), &taps, |b, _| {
            b.iter(|| run(list))
        });
        group.bench_with_input(BenchmarkId::new("compacted", taps), &taps, |b, _| {
            b.iter(|| run(Scheduler::Compacting { restarts: 2 }))
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
        b.iter(|| fold_schedule_with_restarts(&lowering.program, &deps, &edges, 64, 8, 8).unwrap())
    });
    group.finish();
}

/// What the provable lower bound that stops every restart loop costs to
/// compute.
fn bench_bound_cutoff(c: &mut Criterion) {
    let mut group = c.benchmark_group("bound_cutoff");
    for taps in [16usize, 32] {
        let (lowering, deps) = lowered_fir(taps);
        let matrix = ConflictMatrix::build(&lowering.program);
        group.bench_with_input(BenchmarkId::new("bound_compute", taps), &taps, |b, _| {
            b.iter(|| length_lower_bound(&lowering.program, &deps, &matrix))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_schedulers, bench_bound_cutoff);
criterion_main!(benches);
