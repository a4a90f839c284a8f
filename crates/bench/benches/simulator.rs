//! Cycle-accurate simulation of the audio core running the figure-7
//! application: the pre-decoded `CoreSim` against the retained
//! decode-per-cycle `ReferenceSim`.

use criterion::{criterion_group, criterion_main, Criterion};
use dspcc::{apps, cores, Compiler};

/// Pre-decoded fast path vs the retained decode-per-cycle reference —
/// the direct measurement of what construction-time decoding buys.
fn bench_sim_predecoded(c: &mut Criterion) {
    let core = cores::audio_core();
    let compiled = Compiler::new(&core)
        .restarts(2)
        .compile(&apps::audio_application())
        .expect("audio application compiles");
    let mut group = c.benchmark_group("sim_predecoded");
    group.bench_function("audio_frame/predecoded", |b| {
        let mut sim = compiled.simulator().unwrap();
        b.iter(|| sim.step_frame(&[1000, -1000]).unwrap())
    });
    group.bench_function("audio_frame/reference", |b| {
        let mut sim =
            dspcc::sim::reference::ReferenceSim::new(&core.datapath, &compiled.microcode).unwrap();
        b.iter(|| sim.step_frame(&[1000, -1000]).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_sim_predecoded);
criterion_main!(benches);
