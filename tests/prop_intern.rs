//! Differential property test for the interned-symbol IR: on random
//! applications, every id-based hot path must produce output
//! **bit-identical** to the retained string-keyed reference path —
//! conflict matrix, schedule, register assignment, and microcode. This is
//! the contract that makes symbol interning a pure optimisation: names
//! are resolved once at the boundary, and nothing downstream can tell.

use dspcc::encode::reference::{allocate_registers_reference, encode_reference};
use dspcc::encode::{allocate_registers, encode, FieldLayout, RegisterMap};
use dspcc::sched::{schedule, ConflictMatrix, Fuel, Scheduler};
use dspcc::{cores, Compiler};
use proptest::prelude::*;

/// A random straight-line expression program for the audio core (the
/// same shape as `prop_pipeline.rs`): a pool of values built from inputs,
/// taps, coefficients and operations, with one signal feedback and two
/// outputs.
fn arb_source() -> impl Strategy<Value = String> {
    (
        proptest::collection::vec((0u8..6, 0usize..8, 0usize..8), 3..14),
        proptest::collection::vec(-0.9f64..0.9, 4),
        1u32..3,
    )
        .prop_map(|(ops, coeffs, depth)| {
            let mut src = String::new();
            src.push_str("input u; signal s; output y; output z;\n");
            for (i, c) in coeffs.iter().enumerate() {
                src.push_str(&format!("coeff c{i} = {c:.6};\n"));
            }
            src.push_str("v0 := pass(u);\n");
            src.push_str("v1 := pass(s@1);\n");
            src.push_str(&format!("v2 := pass(u@{depth});\n"));
            let mut n = 3usize;
            for (op, a, b) in ops {
                let a = a % n;
                let b = b % n;
                let stmt = match op {
                    0 => format!("v{n} := add(v{a}, v{b});\n"),
                    1 => format!("v{n} := add_clip(v{a}, v{b});\n"),
                    2 => format!("v{n} := sub(v{a}, v{b});\n"),
                    3 => format!("v{n} := mlt(c{}, v{a});\n", b % 4),
                    4 => format!("v{n} := pass_clip(v{a});\n"),
                    _ => format!("v{n} := pass(v{a});\n"),
                };
                src.push_str(&stmt);
                n += 1;
            }
            src.push_str(&format!("s = pass_clip(v{});\n", n - 1));
            src.push_str(&format!("y = pass(v{});\n", n - 1));
            src.push_str(&format!("z = pass_clip(v{});\n", (n - 1).min(3)));
            src
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Conflict matrix, schedule, register assignment, and microcode of
    /// the interned pipeline are bit-identical to the string-keyed
    /// reference implementations.
    #[test]
    fn interned_pipeline_matches_string_reference(src in arb_source()) {
        let core = cores::audio_core();
        let compiled = match Compiler::new(&core).restarts(1).compile(&src) {
            Ok(c) => c,
            // Feasibility failures are legal compiler outcomes.
            Err(_) => return Ok(()),
        };
        let program = &compiled.lowering.program;

        // Conflict matrix: id-classed build vs pairwise string maps.
        let fast = ConflictMatrix::build(program);
        let reference = ConflictMatrix::build_reference(program);
        prop_assert_eq!(&fast, &reference, "conflict matrices diverge for:\n{}", src);

        // Scheduling from either matrix is the same deterministic engine;
        // identical matrices must yield identical schedules.
        let budget = Some(core.controller.program_depth());
        let run = |matrix: &ConflictMatrix| {
            let scheduler = Scheduler::Compacting { restarts: 1 };
            schedule(program, &compiled.deps, matrix, scheduler, budget, &mut Fuel::unlimited(), None)
                .unwrap()
        };
        let (fast_run, ref_run) = (run(&fast), run(&reference));
        let (s_fast, s_ref) = (fast_run.schedule, ref_run.schedule);
        prop_assert_eq!(&s_fast, &s_ref, "schedules diverge for:\n{}", src);
        prop_assert_eq!(fast_run.bound, ref_run.bound);

        // Register allocation: dense id-keyed tables vs string-keyed maps.
        let pinned = vec![compiled.lowering.fp_reg.clone()];
        let a_fast = allocate_registers(program, &s_fast, &core.datapath, &pinned).unwrap();
        let a_ref =
            allocate_registers_reference(program, &s_ref, &core.datapath, &pinned).unwrap();
        prop_assert_eq!(&a_fast.mapping, &a_ref.mapping, "mappings diverge for:\n{}", src);
        prop_assert_eq!(&a_fast.peak_usage, &a_ref.peak_usage);
        let rewritten = a_fast.registers.rewrite(program);
        for (id, rt) in rewritten.rts() {
            prop_assert_eq!(rt, a_ref.program.rt(id), "rewritten {} diverges for:\n{}", id, src);
        }

        // Encoding: the virtual program read through the register map,
        // with resolved-id field matching, vs the rewritten program with
        // string field matching.
        let layout = FieldLayout::derive(&core.datapath, core.format);
        let w_fast = encode(
            program,
            &a_fast.registers,
            &s_fast,
            &layout,
            &compiled.lowering.immediates,
            core.format,
        )
        .unwrap();
        // The empty map is the identity on the rewritten program.
        let w_physical = encode(
            &rewritten,
            &RegisterMap::default(),
            &s_fast,
            &layout,
            &compiled.lowering.immediates,
            core.format,
        )
        .unwrap();
        prop_assert_eq!(&w_fast, &w_physical, "empty map diverges for:\n{}", src);
        let w_ref = encode_reference(
            &a_ref.program,
            &s_ref,
            &layout,
            &compiled.lowering.immediates,
            core.format,
        )
        .unwrap();
        prop_assert_eq!(&w_fast, &w_ref, "microcode diverges for:\n{}", src);
    }
}
