//! Retargetability (the point of the whole exercise): the same source
//! compiled onto three different cores, with the efficiency/flexibility
//! trade-offs visible in cycles and instruction-word width.
//!
//! ```sh
//! cargo run --example retargeting
//! ```

use dspcc::arch::merge::MergePlan;
use dspcc::dfg::{parse, Dfg, Interpreter};
use dspcc::rtgen::{apply_merge_plan, lower, LowerOptions, Lowering};
use dspcc::sched::deps::DependenceGraph;
use dspcc::sched::{schedule, ConflictMatrix, Fuel, Schedule, Scheduler};
use dspcc::{apps, cores, Compiler};

/// Schedules `lowering` with the compacting scheduler, without a budget.
fn compacted(lowering: &Lowering) -> Result<Schedule, Box<dyn std::error::Error>> {
    let program = &lowering.program;
    let deps = DependenceGraph::build_with_edges(program, &lowering.sequence_edges)?;
    let matrix = ConflictMatrix::build(program);
    let scheduler = Scheduler::Compacting { restarts: 4 };
    let mut fuel = Fuel::unlimited();
    Ok(schedule(program, &deps, &matrix, scheduler, None, &mut fuel, None)?.schedule)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let source = apps::sum_of_products(8);
    println!("one source ({} chars), three targets:\n", source.len());

    // Target 1: the tiny general core.
    let tiny = cores::tiny_core();
    let on_tiny = Compiler::new(&tiny).compile(&source)?;
    println!(
        "{:<26} {:>7} cycles  {:>4}-bit words  {:>6} ROM bits",
        "tiny core",
        on_tiny.cycles(),
        on_tiny.microcode.layout.width(),
        on_tiny.microcode.rom_bits()
    );

    // Target 2: the audio core (more units, wider words).
    let audio = cores::audio_core();
    let on_audio = Compiler::new(&audio).compile(&source)?;
    println!(
        "{:<26} {:>7} cycles  {:>4}-bit words  {:>6} ROM bits",
        "audio core",
        on_audio.cycles(),
        on_audio.microcode.layout.width(),
        on_audio.microcode.rom_bits()
    );

    // Both targets compute the same function.
    let mut sim_tiny = on_tiny.simulator()?;
    let mut sim_audio = on_audio.simulator()?;
    let mut reference = Interpreter::new(&on_tiny.dfg, tiny.format);
    for x in [500i64, -1500, 20000] {
        let a = sim_tiny.step_frame(&[x])?;
        let b = sim_audio.step_frame(&[x])?;
        let c = reference.step(&[x]);
        assert_eq!(a, c);
        assert_eq!(b, c);
    }
    println!("\nboth cores produce bit-identical outputs.\n");

    // Target 3: the intermediate two-ALU architecture, before and after
    // merging its result buses (the architecture-modification dial).
    let intermediate = cores::unmerged_intermediate();
    let tree = apps::add_tree(10);
    let dfg = Dfg::build(&parse(&tree)?)?;
    let unmerged = lower(&dfg, &intermediate.datapath, &LowerOptions::default())?;
    let fast = compacted(&unmerged)?;

    let mut merged = lower(&dfg, &intermediate.datapath, &LowerOptions::default())?;
    let mut plan = MergePlan::new();
    plan.merge_buses(&["bus_alu_1", "bus_alu_2"], "bus_alu");
    apply_merge_plan(&mut merged, &intermediate.datapath, &plan)?;
    let slow = compacted(&merged)?;

    println!("architecture modification on the 2-ALU intermediate core (add tree):");
    println!("  dedicated buses : {:>3} cycles", fast.length());
    println!(
        "  merged bus      : {:>3} cycles (cheaper silicon, less parallelism)",
        slow.length()
    );
    Ok(())
}
