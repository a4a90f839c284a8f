//! E10 — codegen-quality baselines (paper section 2: "existing compilers
//! generate code of which the efficiency is not sufficient").

use dspcc::ir::Program;
use dspcc::sched::baseline::{
    count_illegal_instructions, sequential_schedule, strip_artificial_resources,
};
use dspcc::sched::deps::DependenceGraph;
use dspcc::sched::list::Priority;
use dspcc::sched::{schedule, ConflictMatrix, Fuel, Schedule, Scheduler};
use dspcc::{apps, cores, Compiler};

/// Runs `scheduler` without a budget.
fn run(program: &Program, deps: &DependenceGraph, scheduler: Scheduler) -> Schedule {
    let matrix = ConflictMatrix::build(program);
    schedule(
        program,
        deps,
        &matrix,
        scheduler,
        None,
        &mut Fuel::unlimited(),
        None,
    )
    .expect("no budget to miss")
    .schedule
}

fn main() {
    println!("=== E10: scheduler baselines on the audio application ===\n");
    let core = cores::audio_core();
    let compiled = Compiler::new(&core)
        .restarts(6)
        .compile(&apps::audio_application())
        .expect("audio application compiles");
    let program = &compiled.lowering.program;
    let deps = &compiled.deps;

    let sequential = sequential_schedule(program, deps);
    println!(
        "{:<36} {:>8} {:>14}",
        "scheduler", "cycles", "illegal instrs"
    );
    println!(
        "{:<36} {:>8} {:>14}",
        "sequential (1 RT/cycle)",
        sequential.length(),
        count_illegal_instructions(program, &sequential)
    );
    let source_order = Scheduler::List {
        priority: Priority::SourceOrder,
    };
    let greedy = run(program, deps, source_order);
    println!(
        "{:<36} {:>8} {:>14}",
        "greedy list (source order)",
        greedy.length(),
        count_illegal_instructions(program, &greedy)
    );
    let full = run(program, deps, Scheduler::Compacting { restarts: 6 });
    println!(
        "{:<36} {:>8} {:>14}",
        "list + restarts + justification",
        full.length(),
        count_illegal_instructions(program, &full)
    );
    let folded = compiled.fold(2, 16).unwrap();
    println!(
        "{:<36} {:>8} {:>14}",
        "modulo (2-stage fold)",
        folded.ii(),
        0
    );

    // ISA-unaware scheduling: the same program without its artificial resources.
    let names: Vec<&str> = compiled
        .artificial_names
        .iter()
        .map(|s| s.as_str())
        .collect();
    let stripped = strip_artificial_resources(program, &names);
    let stripped_deps =
        DependenceGraph::build_with_edges(&stripped, &compiled.lowering.sequence_edges).unwrap();
    let unaware = run(
        &stripped,
        &stripped_deps,
        Scheduler::Compacting { restarts: 6 },
    );
    println!(
        "{:<36} {:>8} {:>14}",
        "ISA-unaware (ABC stripped)",
        unaware.length(),
        count_illegal_instructions(program, &unaware)
    );
    println!(
        "\nthe sequential baseline is what a non-packing compiler emits ({}x slower\n\
         than the folded kernel); the ISA-unaware schedule is as long as the\n\
         ISA-aware one and packs no illegal instruction: on the audio application\n\
         the `ABC` resource does not bind.",
        sequential.length() / folded.ii()
    );
}
