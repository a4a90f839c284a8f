//! Property test: the pre-decoded simulator fast path is cycle-for-cycle
//! bit-identical to the retained decode-per-cycle reference
//! (`dspcc_sim::reference::ReferenceSim`) on random audio frames — same
//! outputs, same cycle counter, same register files, same RAM, after
//! every frame.

use std::sync::Arc;

use dspcc_arch::{Datapath, DatapathBuilder, OpuKind};
use dspcc_dfg::{parse, Dfg};
use dspcc_encode::{allocate_registers, encode, FieldLayout, Microcode};
use dspcc_num::WordFormat;
use dspcc_rtgen::{lower, LowerOptions};
use dspcc_sched::deps::DependenceGraph;
use dspcc_sched::{list::Priority, schedule, ConflictMatrix, Fuel, Scheduler};
use dspcc_sim::{reference::ReferenceSim, CoreSim};
use proptest::prelude::*;

/// The small audio-style core the sim unit tests use.
fn test_core() -> Datapath {
    DatapathBuilder::new()
        .register_file("rf_acu_base", 2)
        .register_file("rf_acu_off", 8)
        .register_file("rf_ram_addr", 8)
        .register_file("rf_ram_data", 8)
        .register_file("rf_mult_c", 8)
        .register_file("rf_mult_x", 8)
        .register_file("rf_alu_a", 8)
        .register_file("rf_alu_b", 8)
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
        .opu(OpuKind::Rom, "rom", &[("const", 1)])
        .memory("rom", 64)
        .output("rom", "bus_rom")
        .opu(OpuKind::ProgConst, "prgc", &[("const", 1)])
        .output("prgc", "bus_prgc")
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
        .unwrap()
}

/// Compiles `src` for the test core down to executable microcode.
fn compile(src: &str) -> (Datapath, Microcode) {
    let dp = test_core();
    let dfg = Dfg::build(&parse(src).unwrap()).unwrap();
    let lowering = lower(&dfg, &dp, &LowerOptions::default()).unwrap();
    let deps =
        DependenceGraph::build_with_edges(&lowering.program, &lowering.sequence_edges).unwrap();
    let matrix = ConflictMatrix::build(&lowering.program);
    let list = Scheduler::List {
        priority: Priority::Slack,
    };
    let mut fuel = Fuel::unlimited();
    let schedule = schedule(
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
    let format = WordFormat::q15();
    let pinned = vec![lowering.fp_reg.clone()];
    let assignment = allocate_registers(&lowering.program, &schedule, &dp, &pinned).unwrap();
    let layout = FieldLayout::derive(&dp, format);
    let words = encode(
        &lowering.program,
        &assignment.registers,
        &schedule,
        &layout,
        &lowering.immediates,
        format,
    )
    .unwrap();
    let microcode = Microcode {
        words,
        layout: Arc::new(layout),
        rom_image: lowering
            .rom_image
            .iter()
            .map(|&v| format.from_f64(v))
            .collect(),
        region_size: lowering.ram_layout.region_size,
        output_order: lowering.output_order.clone(),
        input_order: lowering.input_order.clone(),
        word_format: format,
    };
    (dp, microcode)
}

/// Programs covering every executed OPU kind: straight arithmetic, delay
/// lines (RAM/ACU), feedback state, and multi-port I/O.
const SOURCES: [&str; 3] = [
    "input u; coeff k = 0.5; output y; y = add_clip(mlt(k, u), u);",
    "input u; signal s; coeff a = 0.5; coeff b = 0.25; output y;
     s = add(mlt(a, u@1), mlt(b, s@1));
     y = pass_clip(s);",
    "input l; input r; output yl; output yr;
     yl = add(l, r); yr = sub(l, r);",
];

/// Input port count of each source above.
const PORTS: [usize; 3] = [1, 1, 2];

fn assert_same_state(dp: &Datapath, fast: &CoreSim, oracle: &ReferenceSim, frame: usize) {
    assert_eq!(fast.cycles_run(), oracle.cycles_run(), "frame {frame}");
    for rf in dp.register_files() {
        for r in 0..rf.size() {
            assert_eq!(
                fast.register(rf.name(), r),
                oracle.register(rf.name(), r),
                "register {}[{r}] diverged at frame {frame}",
                rf.name()
            );
        }
    }
    assert_eq!(fast.memory("ram"), oracle.memory("ram"), "frame {frame}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// (c) Pre-decoded execution is bit-identical to decode-per-cycle,
    /// cycle for cycle, on random frame streams.
    #[test]
    fn predecoded_matches_reference(
        which in 0usize..3,
        frames in proptest::collection::vec(-32768i64..=32767, 1..24),
    ) {
        let (dp, microcode) = compile(SOURCES[which]);
        let ports = PORTS[which];
        let mut fast = CoreSim::new(&dp, &microcode).unwrap();
        let mut oracle = ReferenceSim::new(&dp, &microcode).unwrap();
        for (f, &sample) in frames.iter().enumerate() {
            // Derive one sample per port deterministically from the drawn
            // value so multi-port programs get distinct channel data.
            let frame: Vec<i64> = (0..ports)
                .map(|p| (sample ^ (p as i64 * 12289)).clamp(-32768, 32767))
                .collect();
            let got = fast.step_frame(&frame).unwrap();
            let expected = oracle.step_frame(&frame).unwrap();
            prop_assert_eq!(&got, &expected, "outputs diverged at frame {}", f);
            assert_same_state(&dp, &fast, &oracle, f);
        }
        prop_assert_eq!(fast.frames_run(), oracle.frames_run());
    }
}
