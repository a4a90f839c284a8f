//! Ready-made in-house cores.
//!
//! * [`audio_core`] — the digital-audio core of the paper's figure 8:
//!   RAM, MULT, ALU (with clip), ROM, ACU, PRG_C, one input port (IPB) and
//!   two output ports (OPB₁, OPB₂), distributed register files with
//!   single-cycle random read/write, and the stripped controller (no
//!   conditionals). [`audio_isa`] builds its section-7 instruction set:
//!   13 raw RT classes merged to 9, desired types
//!   `{A,D,X,G,Y,L,M}`, `{B,D,X,G,Y,L,M}`, `{C,D,X,G,Y,L,M}` plus
//!   sub-instructions, which yields exactly one artificial resource `ABC`.
//! * [`tiny_core`] — a minimal teaching core for quickstarts.
//! * [`unmerged_intermediate`] — an intermediate-architecture variant
//!   (dedicated files and buses per OPU) for the merging experiments.
//! * [`generated_core`] — seeded random-but-valid cores from
//!   `dspcc_arch::generate` + `dspcc_isa::derive`, the unit of the
//!   conformance fleet ([`crate::conform`]).
//!
//! The hand-written teaching cores are expressed through the generator's
//! [`ArchPlan`] blueprint, so hand-written and generated datapaths share
//! one validation path.

use dspcc_arch::merge::{self, MergeError};
use dspcc_arch::{
    ArchPlan, Controller, CoreGenerator, Datapath, DatapathBuilder, Fnv64, GeneratedArch, OpuKind,
    RfPlan, UnitPlan,
};
use dspcc_isa::{derive_isa, Classification, CoverStrategy, InstructionSet};
use dspcc_num::WordFormat;

use crate::pipeline::Core;

/// Builds the figure-8 digital-audio core.
///
/// The register-file sizes are chosen so that the figure-7 application
/// fits exactly; enlarging them never hurts correctness, only silicon.
pub fn audio_core() -> Core {
    let dp = audio_datapath();
    let (classification, iset) = audio_isa(&dp);
    Core::new(
        "audio",
        dp,
        Controller::stripped(128),
        WordFormat::q15(),
        Some(classification),
        Some(iset),
        CoverStrategy::GreedyMaximal,
    )
}

/// The raw datapath of the audio core (figure 8, paper order: IPB, OPB₁,
/// OPB₂, ACU, RAM, MULT, ALU, ROM, PRG_C).
pub fn audio_datapath() -> Datapath {
    DatapathBuilder::new()
        .register_file("rf_acu_base", 2)
        .register_file("rf_acu_off", 8)
        .register_file("rf_ram_addr", 8)
        .register_file("rf_ram_data", 8)
        .register_file("rf_mult_c", 12)
        .register_file("rf_mult_x", 12)
        .register_file("rf_alu_a", 12)
        .register_file("rf_alu_b", 12)
        .register_file("rf_opb_1", 4)
        .register_file("rf_opb_2", 4)
        .opu(OpuKind::Input, "ipb", &[("read", 1)])
        .output("ipb", "bus_ipb")
        .opu(OpuKind::Output, "opb_1", &[("write", 1)])
        .inputs("opb_1", &["rf_opb_1"])
        .opu(OpuKind::Output, "opb_2", &[("write", 1)])
        .inputs("opb_2", &["rf_opb_2"])
        .opu(OpuKind::Acu, "acu", &[("addmod", 1)])
        .inputs("acu", &["rf_acu_base", "rf_acu_off"])
        .output("acu", "bus_acu")
        .opu(OpuKind::Ram, "ram", &[("read", 1), ("write", 1)])
        .memory("ram", 64)
        .inputs("ram", &["rf_ram_addr", "rf_ram_data"])
        .output("ram", "bus_ram")
        .opu(OpuKind::Mult, "mult", &[("mult", 1)])
        .inputs("mult", &["rf_mult_c", "rf_mult_x"])
        .output("mult", "bus_mult")
        .opu(
            OpuKind::Alu,
            "alu",
            &[
                ("add", 1),
                ("add_clip", 1),
                ("sub", 1),
                ("pass", 1),
                ("pass_clip", 1),
            ],
        )
        .inputs("alu", &["rf_alu_a", "rf_alu_b"])
        .output("alu", "bus_alu")
        .opu(OpuKind::Rom, "rom", &[("const", 1)])
        .memory("rom", 64)
        .output("rom", "bus_rom")
        .opu(OpuKind::ProgConst, "prgc", &[("const", 1)])
        .output("prgc", "bus_prgc")
        .write_port("rf_acu_base", &["bus_acu"])
        .write_port("rf_acu_off", &["bus_prgc"])
        .write_port("rf_ram_addr", &["bus_acu"])
        .write_port("rf_ram_data", &["bus_alu", "bus_ipb"])
        .write_port("rf_mult_c", &["bus_rom", "bus_prgc"])
        .write_port("rf_mult_x", &["bus_ram", "bus_ipb", "bus_alu"])
        .write_port(
            "rf_alu_a",
            &["bus_mult", "bus_ram", "bus_ipb", "bus_prgc", "bus_alu"],
        )
        .write_port("rf_alu_b", &["bus_alu", "bus_mult", "bus_ram"])
        .write_port("rf_opb_1", &["bus_alu"])
        .write_port("rf_opb_2", &["bus_alu"])
        .build()
        .expect("audio core datapath is valid")
}

/// The section-7 RT classification and instruction set of the audio core.
///
/// Identification yields 13 classes; RAM's read/write merge into `X` and
/// the four ALU operations into `Y`, with `sub` folded into `Y` as well
/// (the class table of the paper lists Add/AddClip/Pass/PassClip; our ALU
/// also subtracts, which changes nothing structurally). The IO classes
/// `A`, `B`, `C` are mutually exclusive — "it is sufficient to be able to
/// do input via the IPB or output via the OPB_1 or output via the OPB_2
/// but not simultaneously".
pub fn audio_isa(dp: &Datapath) -> (Classification, InstructionSet) {
    let mut c = Classification::identify(dp);
    assert_eq!(
        c.len(),
        14,
        "audio core identifies 14 raw (OPU, op) classes"
    );
    // Figure-5 style letters follow declaration order:
    // A=ipb.read, B=opb_1.write, C=opb_2.write, D=acu.addmod,
    // E=ram.read, F=ram.write, G=mult.mult,
    // H..L = alu.{add,add_clip,pass,pass_clip,sub}, M=rom.const,
    // N=prgc.const.
    c.merge(&["E", "F"], "X").expect("RAM classes merge");
    c.merge(&["H", "I", "J", "K", "L"], "Y")
        .expect("ALU classes merge");
    // Re-letter the constant units to the paper's names.
    let rom = c.by_name("M").expect("rom class");
    c.rename(rom, "L");
    let prgc = c.by_name("N").expect("prgc class");
    c.rename(prgc, "M");
    assert_eq!(c.len(), 9, "merged classification has 9 classes");

    let id = |name: &str| c.by_name(name).expect("class exists").0;
    let (a, b, cc) = (id("A"), id("B"), id("C"));
    let (d, x, g, y, l, m) = (id("D"), id("X"), id("G"), id("Y"), id("L"), id("M"));
    let iset = InstructionSet::closure(
        c.len(),
        &[
            vec![a, d, x, g, y, l, m],
            vec![b, d, x, g, y, l, m],
            vec![cc, d, x, g, y, l, m],
        ],
    );
    (c, iset)
}

/// The full ALU operation set shared by the hand-written cores.
const ALU_OPS: [(&str, u32); 5] = [
    ("add", 1),
    ("add_clip", 1),
    ("sub", 1),
    ("pass", 1),
    ("pass_clip", 1),
];

/// A minimal core for quickstarts: IPB → MULT/ALU → OPB with a small ROM
/// and program-constant unit, no RAM (no delay lines).
///
/// Expressed as an [`ArchPlan`] — the same blueprint substrate (and thus
/// the same validation path) the seeded generator materialises through.
pub fn tiny_core() -> Core {
    let dp = ArchPlan::new()
        .rf(RfPlan::new("rf_mult_c", 4, &["bus_rom", "bus_prgc"]))
        .rf(RfPlan::new("rf_mult_x", 4, &["bus_ipb", "bus_alu"]))
        .rf(RfPlan::new(
            "rf_alu_a",
            4,
            &["bus_mult", "bus_ipb", "bus_prgc", "bus_alu"],
        ))
        .rf(RfPlan::new(
            "rf_alu_b",
            4,
            &["bus_alu", "bus_mult", "bus_ipb"],
        ))
        .rf(RfPlan::new("rf_opb", 2, &["bus_alu"]))
        .unit(UnitPlan::new(OpuKind::Input, "ipb", &[("read", 1)]).bus("bus_ipb"))
        .unit(UnitPlan::new(OpuKind::Output, "opb", &[("write", 1)]).inputs(&["rf_opb"]))
        .unit(
            UnitPlan::new(OpuKind::Mult, "mult", &[("mult", 1)])
                .inputs(&["rf_mult_c", "rf_mult_x"])
                .bus("bus_mult"),
        )
        .unit(
            UnitPlan::new(OpuKind::Alu, "alu", &ALU_OPS)
                .inputs(&["rf_alu_a", "rf_alu_b"])
                .bus("bus_alu"),
        )
        .unit(
            UnitPlan::new(OpuKind::Rom, "rom", &[("const", 1)])
                .bus("bus_rom")
                .memory(16),
        )
        .unit(UnitPlan::new(OpuKind::ProgConst, "prgc", &[("const", 1)]).bus("bus_prgc"))
        .build()
        .expect("tiny core datapath is valid");
    Core::new(
        "tiny",
        dp,
        Controller::stripped(32),
        WordFormat::q15(),
        None,
        None,
        CoverStrategy::GreedyMaximal,
    )
}

/// An intermediate-architecture core (paper section 4): two ALUs, each
/// with dedicated register files and a dedicated result bus — the shape RT
/// generation natively targets before merging reduces it to a real core.
///
/// Expressed as an [`ArchPlan`], like [`tiny_core`].
pub fn unmerged_intermediate() -> Core {
    let dp = ArchPlan::new()
        .rf(RfPlan::new(
            "rf_a1_x",
            6,
            &["bus_ipb", "bus_alu_1", "bus_alu_2", "bus_prgc"],
        ))
        .rf(RfPlan::new(
            "rf_a1_y",
            6,
            &["bus_ipb", "bus_alu_1", "bus_alu_2"],
        ))
        .rf(RfPlan::new(
            "rf_a2_x",
            6,
            &["bus_ipb", "bus_alu_1", "bus_alu_2", "bus_prgc"],
        ))
        .rf(RfPlan::new(
            "rf_a2_y",
            6,
            &["bus_ipb", "bus_alu_1", "bus_alu_2"],
        ))
        .rf(RfPlan::new("rf_out", 4, &["bus_alu_1", "bus_alu_2"]))
        .unit(UnitPlan::new(OpuKind::Input, "ipb", &[("read", 1)]).bus("bus_ipb"))
        .unit(UnitPlan::new(OpuKind::Output, "opb", &[("write", 1)]).inputs(&["rf_out"]))
        .unit(
            UnitPlan::new(OpuKind::Alu, "alu_1", &ALU_OPS)
                .inputs(&["rf_a1_x", "rf_a1_y"])
                .bus("bus_alu_1"),
        )
        .unit(
            UnitPlan::new(OpuKind::Alu, "alu_2", &ALU_OPS)
                .inputs(&["rf_a2_x", "rf_a2_y"])
                .bus("bus_alu_2"),
        )
        .unit(UnitPlan::new(OpuKind::ProgConst, "prgc", &[("const", 1)]).bus("bus_prgc"))
        .build()
        .expect("intermediate datapath is valid");
    Core::new(
        "intermediate",
        dp,
        Controller::stripped(128),
        WordFormat::q15(),
        None,
        None,
        CoverStrategy::GreedyMaximal,
    )
}

/// A seeded random-but-valid core: the architecture from
/// [`dspcc_arch::generate::CoreGenerator`] plus the instruction set
/// derived by [`dspcc_isa::derive_isa`] — the unit of the conformance
/// fleet ([`crate::conform`]).
///
/// Deterministic: the same seed yields a byte-identical core on every
/// run, platform, and thread.
pub fn generated_core(seed: u64) -> Core {
    generated_core_from(CoreGenerator::new().generate(seed))
}

/// As [`generated_core`], from an already-generated architecture (e.g.
/// one drawn with a custom [`dspcc_arch::GenConfig`]).
pub fn generated_core_from(arch: GeneratedArch) -> Core {
    let isa = derive_isa(&arch.datapath, arch.seed);
    Core::new(
        format!("gen_{:x}", arch.seed),
        arch.datapath,
        arch.controller,
        WordFormat::new(arch.word_width).expect("generator draws valid widths"),
        Some(isa.classification),
        isa.instruction_set,
        isa.cover,
    )
}

/// Merges two seeded generated cores into one machine that can run both
/// apps — the paper's in-house workflow: specialize per application,
/// then fold the specialized cores together.
///
/// The datapaths are joined with [`dspcc_arch::merge::union`] (same-name
/// structural union: max capacities, min latencies, op/flag union), the
/// controllers take their least upper bound, the word format the wider
/// of the two, and the instruction set is **re-derived** on the union
/// datapath under a seed fingerprinted from both donors — a merged core
/// is a new architecture, not either donor's ISA.
///
/// Deterministic: same `(seed_a, seed_b)`, byte-identical core.
///
/// # Errors
///
/// [`MergeError`] if the two datapaths disagree structurally at a shared
/// component name or the union fails validation.
pub fn merged_core(seed_a: u64, seed_b: u64) -> Result<Core, MergeError> {
    let gen = CoreGenerator::new();
    let a = gen.generate(seed_a);
    let b = gen.generate(seed_b);
    let dp = merge::union(&a.datapath, &b.datapath)?;
    let isa_seed = Fnv64::of_parts(|h| {
        h.write_u64(seed_a);
        h.write_u64(seed_b);
    });
    let isa = derive_isa(&dp, isa_seed);
    Ok(Core::new(
        format!("gen_{seed_a:x}+gen_{seed_b:x}"),
        dp,
        a.controller.merged(&b.controller),
        WordFormat::new(a.word_width.max(b.word_width)).expect("generator draws valid widths"),
        Some(isa.classification),
        isa.instruction_set,
        isa.cover,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspcc_isa::{artificial_resources, ClassId};

    #[test]
    fn audio_core_is_valid() {
        let core = audio_core();
        assert_eq!(core.datapath.opus().len(), 9);
        assert!(!core.controller.supports_conditionals());
        assert_eq!(core.format, WordFormat::q15());
    }

    #[test]
    fn audio_classification_merges_13ish_to_9() {
        // The paper counts 13 classes because its ALU has four operations;
        // ours adds `sub` (14 raw), merged identically down to 9.
        let dp = audio_datapath();
        let (c, _) = audio_isa(&dp);
        assert_eq!(c.len(), 9);
        let names: Vec<&str> = c.classes().iter().map(|cl| cl.name()).collect();
        for expected in ["A", "B", "C", "D", "G", "X", "Y", "L", "M"] {
            assert!(
                names.contains(&expected),
                "missing class {expected}: {names:?}"
            );
        }
        // X covers both RAM usages; Y all five ALU usages.
        let x = c.class(c.by_name("X").unwrap());
        assert_eq!(x.usages().count(), 2);
        let y = c.class(c.by_name("Y").unwrap());
        assert_eq!(y.usages().count(), 5);
    }

    #[test]
    fn audio_iset_validates_and_conflicts_only_io() {
        let dp = audio_datapath();
        let (c, iset) = audio_isa(&dp);
        iset.validate().unwrap();
        let g = iset.conflict_graph();
        // Exactly the three IO pairs conflict: A-B, A-C, B-C.
        assert_eq!(g.edge_count(), 3);
        let a = c.by_name("A").unwrap().0;
        let b = c.by_name("B").unwrap().0;
        let cc = c.by_name("C").unwrap().0;
        assert!(g.has_edge(a, b));
        assert!(g.has_edge(a, cc));
        assert!(g.has_edge(b, cc));
    }

    #[test]
    fn audio_iset_needs_single_artificial_resource_abc() {
        // "A single artificial resource 'ABC' is required to model the
        // instruction set restrictions."
        let dp = audio_datapath();
        let (c, iset) = audio_isa(&dp);
        let ars = artificial_resources(&iset, &c, CoverStrategy::GreedyMaximal);
        assert_eq!(ars.len(), 1);
        assert_eq!(ars[0].name(), "ABC");
        assert_eq!(ars[0].members().len(), 3);
    }

    #[test]
    fn audio_iset_allows_the_full_parallel_instruction() {
        let dp = audio_datapath();
        let (c, iset) = audio_isa(&dp);
        let ids: Vec<ClassId> = ["A", "D", "X", "G", "Y", "L", "M"]
            .iter()
            .map(|n| c.by_name(n).unwrap())
            .collect();
        assert!(iset.allows(&ids));
        // But A and B never together.
        let ab = vec![c.by_name("A").unwrap(), c.by_name("B").unwrap()];
        assert!(!iset.allows(&ab));
    }

    #[test]
    fn tiny_and_intermediate_cores_valid() {
        let t = tiny_core();
        assert!(t.datapath.opu("alu").is_some());
        assert!(t.instruction_set.is_none());
        let i = unmerged_intermediate();
        assert_eq!(i.datapath.opus_supporting("add").len(), 2);
    }

    #[test]
    fn merged_core_is_deterministic_and_covers_both_donors() {
        let gen = CoreGenerator::new();
        let (a, b) = (gen.generate(3), gen.generate(7));
        let m = merged_core(3, 7).unwrap();
        assert_eq!(m.name, "gen_3+gen_7");
        // Every donor component survives into the union.
        for donor in [&a, &b] {
            for opu in donor.datapath.opus() {
                let u = m.datapath.opu(opu.name()).unwrap();
                for (op, latency) in opu.ops() {
                    assert!(u.latency_of(op).unwrap() <= latency);
                }
            }
            for rf in donor.datapath.register_files() {
                assert!(m.datapath.register_file(rf.name()).unwrap().size() >= rf.size());
            }
        }
        assert!(m.controller.program_depth() >= a.controller.program_depth());
        assert!(m.format.width() >= a.word_width.max(b.word_width));
        // Byte-determinism across calls.
        let m2 = merged_core(3, 7).unwrap();
        assert_eq!(m.datapath.fingerprint(), m2.datapath.fingerprint());
        assert_eq!(m.controller.fingerprint(), m2.controller.fingerprint());
    }
}
