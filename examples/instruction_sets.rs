//! A walkthrough of the paper's section 6: instruction-set construction
//! rules, conflict graphs, clique covers, and artificial resources.
//!
//! ```sh
//! cargo run --example instruction_sets
//! ```

use dspcc::graph::cover::greedy_edge_clique_cover;
use dspcc::ir::{Program, Rt, Usage};
use dspcc::isa::classes::RtClass;
use dspcc::isa::iset::InstructionSet;
use dspcc::isa::{apply_artificial_resources, artificial_resources, Classification, CoverStrategy};

const NAMES: [&str; 6] = ["S", "T", "U", "V", "X", "Y"];

fn main() {
    // The paper's example: classes S,T,U,V,X,Y, desired instruction types
    // {S,T}, {S,U,V}, {X,Y}.
    println!("desired instruction types: {{S,T}} {{S,U,V}} {{X,Y}}\n");
    let iset = InstructionSet::closure(6, &[vec![0, 1], vec![0, 2, 3], vec![4, 5]]);
    iset.validate().expect("closure obeys rules 1-4");

    println!("rule 1: the NOP is an instruction type        -> included");
    println!("rule 2: every single class is a type          -> included");
    println!("rule 3: subsets of valid types are valid      -> included");
    println!("rule 4: pairwise-compatible => jointly valid  -> included\n");

    println!(
        "the closed instruction set I ({} types):",
        iset.types().len()
    );
    for t in iset.types() {
        if t.is_empty() {
            print!("NOP ");
        } else {
            let names: Vec<&str> = t.iter().map(|c| NAMES[c.0]).collect();
            print!("{{{}}} ", names.join(","));
        }
    }
    println!("\n");

    // The conflict graph (figure 6) and a clique cover.
    let g = iset.conflict_graph();
    println!("conflict graph: {} edges (figure 6)", g.edge_count());
    let cover = greedy_edge_clique_cover(g);
    print!("greedy clique cover: ");
    for clique in &cover {
        let names: Vec<&str> = clique.iter().map(|&c| NAMES[c]).collect();
        print!("{{{}}} ", names.join(","));
    }
    println!("\n");

    // Artificial resources, installed on three RTs like the paper's
    // worked example (RT_1 ∈ S, RT_2 ∈ U, RT_3 ∈ X).
    let mut classification = Classification::new();
    for (i, name) in NAMES.iter().enumerate() {
        classification.add(RtClass::new(name, format!("opu_{i}").as_str(), &["op"]));
    }
    let ars = artificial_resources(&iset, &classification, CoverStrategy::GreedyMaximal);
    let mut program = Program::new();
    let mut ids = Vec::new();
    for (i, class) in [(0usize, "S"), (2, "U"), (4, "X")] {
        let mut rt = Rt::new(format!("RT of class {class}"));
        rt.add_usage(format!("opu_{i}").as_str(), Usage::token("op"));
        ids.push(program.add_rt(rt));
    }
    apply_artificial_resources(&mut program, &classification, &ars);
    println!("after RT modification (section 6.3):");
    for &id in &ids {
        let rt = program.rt(id);
        println!("/* {} */", rt.name());
        print!("{rt}");
    }
    let s_rt = program.rt(ids[0]);
    let u_rt = program.rt(ids[1]);
    let x_rt = program.rt(ids[2]);
    println!("S ∥ U allowed : {}", s_rt.compatible_with(u_rt));
    println!("S ∥ X allowed : {}", s_rt.compatible_with(x_rt));
    println!("\nexactly the instruction set, enforced by ordinary resource conflicts —");
    println!("the scheduler never needs to know the instruction set existed.");
}
