//! E8 — clique-cover strategy ablation (paper 6.3: "any clique cover will
//! lead to a valid schedule. The only motivation to look for a maximal
//! clique cover is to minimize the run time of the scheduler").

use std::time::Instant;

use dspcc::dfg::{parse, Dfg};
use dspcc::isa::{artificial_resources, CoverStrategy};
use dspcc::rtgen::{apply_instruction_set, lower, LowerOptions};
use dspcc::sched::deps::DependenceGraph;
use dspcc::sched::list::Priority;
use dspcc::sched::{schedule, ConflictMatrix, Fuel, Scheduler};
use dspcc::{apps, cores};

fn main() {
    println!("=== E8: clique-cover strategy vs scheduler cost ===\n");
    let core = cores::audio_core();
    let (classification, iset) = cores::audio_isa(&core.datapath);
    let dfg = Dfg::build(&parse(&apps::audio_application()).unwrap()).unwrap();
    println!(
        "{:<16} {:>8} {:>12} {:>12} {:>12}",
        "strategy", "cliques", "usages added", "cycles", "sched time"
    );
    for (name, strategy) in [
        ("per-edge", CoverStrategy::PerEdge),
        ("greedy-maximal", CoverStrategy::GreedyMaximal),
        ("exact-minimum", CoverStrategy::ExactMinimum),
    ] {
        let mut lowering = lower(&dfg, &core.datapath, &LowerOptions::default()).unwrap();
        let ars = artificial_resources(&iset, &classification, strategy);
        let names = apply_instruction_set(&mut lowering.program, &classification, &ars);
        let usages: usize = lowering
            .program
            .rts()
            .map(|(_, rt)| names.iter().filter(|n| rt.usage_of(n).is_some()).count())
            .sum();
        let deps =
            DependenceGraph::build_with_edges(&lowering.program, &lowering.sequence_edges).unwrap();
        let start = Instant::now();
        let mut cycles = 0;
        const REPS: u32 = 20;
        let list = Scheduler::List {
            priority: Priority::Slack,
        };
        for _ in 0..REPS {
            // The conflict matrix is built per run: its cost is the conflict
            // check the cover strategy makes cheaper. The time also covers
            // the length lower bound that `schedule` returns.
            let matrix = ConflictMatrix::build(&lowering.program);
            let mut fuel = Fuel::unlimited();
            let s = schedule(
                &lowering.program,
                &deps,
                &matrix,
                list,
                None,
                &mut fuel,
                None,
            )
            .unwrap()
            .schedule;
            cycles = s.length();
        }
        let elapsed = start.elapsed() / REPS;
        println!(
            "{name:<16} {:>8} {usages:>12} {cycles:>12} {elapsed:>11.2?}",
            ars.len()
        );
    }
    println!(
        "\nall strategies produce valid schedules of identical or near-identical\n\
         length; larger cliques mean fewer artificial usages per RT and a cheaper\n\
         conflict check — the paper's stated motivation."
    );
}
