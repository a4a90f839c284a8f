//! E2 — regenerates the section-6 worked example and figure 6: the
//! instruction set `I`, its conflict graph, and clique covers.

use dspcc::graph::cover::{
    greedy_edge_clique_cover, minimum_edge_clique_cover, per_edge_clique_cover, validate_cover,
};
use dspcc::isa::iset::InstructionSet;

const NAMES: [&str; 6] = ["S", "T", "U", "V", "X", "Y"];

fn show(set: &[usize]) -> String {
    let names: Vec<&str> = set.iter().map(|&c| NAMES[c]).collect();
    format!("{{{}}}", names.join(","))
}

fn main() {
    println!("=== E2 / section 6 + figure 6: instruction set I ===\n");
    // Desired types {S,T}, {S,U,V}, {X,Y} over classes S..Y.
    let iset = InstructionSet::closure(6, &[vec![0, 1], vec![0, 2, 3], vec![4, 5]]);
    iset.validate().expect("closure satisfies rules 1-4");
    let types = iset.types();
    println!(
        "closure of {{S,T}}, {{S,U,V}}, {{X,Y}} has {} instruction types (paper: 13):",
        types.len()
    );
    for t in &types {
        let ids: Vec<usize> = t.iter().map(|c| c.0).collect();
        if ids.is_empty() {
            print!("NOP ");
        } else {
            print!("{} ", show(&ids));
        }
    }
    println!("\n");

    let g = iset.conflict_graph();
    println!(
        "conflict graph edges ({} — paper figure 6 has 10):",
        g.edge_count()
    );
    for (a, b) in g.edges() {
        print!("{}-{} ", NAMES[a], NAMES[b]);
    }
    println!("\n");

    let paper_cover: Vec<Vec<usize>> = vec![
        vec![0, 4],
        vec![0, 5],
        vec![1, 2, 5],
        vec![1, 3, 4],
        vec![2, 4],
        vec![3, 5],
    ];
    validate_cover(g, &paper_cover).expect("the paper's cover is valid");
    println!(
        "paper's clique cover (6 cliques): {{S,X}} {{S,Y}} {{T,U,Y}} {{T,V,X}} {{U,X}} {{V,Y}}"
    );

    for (name, cover) in [
        ("per-edge", per_edge_clique_cover(g)),
        ("greedy-maximal", greedy_edge_clique_cover(g)),
        ("exact-minimum", minimum_edge_clique_cover(g)),
    ] {
        validate_cover(g, &cover).expect("cover valid");
        let rendered: Vec<String> = cover.iter().map(|c| show(c)).collect();
        println!(
            "{name:<15}: {} cliques  {}",
            cover.len(),
            rendered.join(" ")
        );
    }
    println!("\nany clique cover yields a valid schedule (paper 6.3); the cover size only");
    println!("controls how many artificial resources each RT carries (experiment E8).");
}
