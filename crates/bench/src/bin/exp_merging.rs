//! E9 — resource merging (paper sections 4–5): "these resources can be
//! shared at the cost of reduction of parallelism".

use dspcc::arch::merge::MergePlan;
use dspcc::dfg::{parse, Dfg};
use dspcc::rtgen::{apply_merge_plan, lower, LowerOptions};
use dspcc::sched::deps::DependenceGraph;
use dspcc::sched::{schedule, ConflictMatrix, Fuel, Scheduler};
use dspcc::{apps, cores};

fn schedule_cycles(l: &dspcc::rtgen::Lowering) -> u32 {
    let deps = DependenceGraph::build_with_edges(&l.program, &l.sequence_edges).unwrap();
    let matrix = ConflictMatrix::build(&l.program);
    let scheduler = Scheduler::Compacting { restarts: 4 };
    let s = schedule(
        &l.program,
        &deps,
        &matrix,
        scheduler,
        None,
        &mut Fuel::unlimited(),
        None,
    )
    .unwrap()
    .schedule;
    s.verify(&l.program, &deps).unwrap();
    s.length()
}

fn main() {
    println!("=== E9: merging register files and buses ===\n");
    let core = cores::unmerged_intermediate();
    let dfg = Dfg::build(&parse(&apps::add_tree(12)).unwrap()).unwrap();

    // Unmerged intermediate architecture: two ALUs, dedicated buses.
    let unmerged = lower(&dfg, &core.datapath, &LowerOptions::default()).unwrap();
    let base = schedule_cycles(&unmerged);
    println!("{:<28} {:>8}", "architecture", "cycles");
    println!("{:<28} {base:>8}", "intermediate (unmerged)");

    // Merge the two result buses.
    let mut bus_merged = lower(&dfg, &core.datapath, &LowerOptions::default()).unwrap();
    let mut plan = MergePlan::new();
    plan.merge_buses(&["bus_alu_1", "bus_alu_2"], "bus_alu");
    apply_merge_plan(&mut bus_merged, &core.datapath, &plan).unwrap();
    let bus_cycles = schedule_cycles(&bus_merged);
    println!("{:<28} {bus_cycles:>8}", "buses merged");

    // Merge buses and the X-side register files.
    let mut rf_merged = lower(&dfg, &core.datapath, &LowerOptions::default()).unwrap();
    let mut plan = MergePlan::new();
    plan.merge_buses(&["bus_alu_1", "bus_alu_2"], "bus_alu");
    plan.merge_rfs(&["rf_a1_x", "rf_a2_x"], "rf_x");
    apply_merge_plan(&mut rf_merged, &core.datapath, &plan).unwrap();
    let rf_cycles = schedule_cycles(&rf_merged);
    println!("{:<28} {rf_cycles:>8}", "buses + register files merged");

    assert!(bus_cycles >= base, "sharing cannot speed a schedule up");
    println!(
        "\nmerging reduces silicon (fewer buses/files) and monotonically lengthens\n\
         the schedule — the flexibility/efficiency dial of the paper's section 5."
    );
}
