//! Property tests for the staged compilation session: artifact caching
//! must be *invisible* in the output. A warm session recompile — where
//! the frontend, lowering, ISA modification, and dependence/conflict
//! analysis all come from cache — must produce the bit-identical
//! schedule, register assignment, and microcode of a cold
//! `Compiler::compile`, and fingerprints must invalidate exactly when
//! the source or the core changes.

use std::sync::Arc;

use dspcc::arch::Controller;
use dspcc::sched::list::Priority;
use dspcc::{cores, CompileOptions, CompileSession, Compiler};
use proptest::prelude::*;

/// A random straight-line audio-core application (same shape as
/// `prop_pipeline.rs`, smaller so each case compiles several times
/// cheaply).
fn arb_source() -> impl Strategy<Value = String> {
    (
        proptest::collection::vec((0u8..6, 0usize..8, 0usize..8), 3..10),
        proptest::collection::vec(-0.9f64..0.9, 4),
        1u32..3,
    )
        .prop_map(|(ops, coeffs, depth)| {
            let mut src = String::new();
            src.push_str("input u; signal s; output y;\n");
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
            src
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A cached-session recompile with schedule-only options changed in
    /// between is bit-identical (schedule, assignment, microcode) to a
    /// cold `Compiler::compile` with the same options.
    #[test]
    fn warm_recompile_is_bit_identical_to_cold(src in arb_source()) {
        let core = Arc::new(cores::audio_core());
        let cold_opts = CompileOptions { restarts: 1, ..CompileOptions::default() };
        // Cold reference: fresh session inside `Compiler::compile`.
        let cold = match Compiler::new(&core).restarts(1).compile(&src) {
            Ok(c) => c,
            // Feasibility failures are legal compiler outcomes; caching
            // determinism for them is pinned below via the session path.
            Err(_) => return Ok(()),
        };
        // Warm the session with *different* schedule-stage options so the
        // final recompile reuses frontend/lower/modify/analysis artifacts
        // but must recompute schedule, regalloc, and encode.
        let session = CompileSession::new();
        let warm_opts = CompileOptions {
            restarts: 2,
            budget: Some(cold.cycles() + 8),
            priority: Priority::SinkAlap,
            ..CompileOptions::default()
        };
        session.compile(&core, &src, &warm_opts).unwrap();
        let warm = session.compile(&core, &src, &cold_opts).unwrap();
        // The warm compile skipped the front of the pipeline...
        prop_assert_eq!(warm.stats.cache_hits, 4, "for:\n{}", src);
        // ...and its outputs are bit-identical to the cold one.
        prop_assert_eq!(&*warm.schedule, &*cold.schedule, "schedule diverged for:\n{}", src);
        prop_assert_eq!(warm.schedule_bound, cold.schedule_bound);
        prop_assert_eq!(&warm.assignment.mapping, &cold.assignment.mapping,
            "mapping diverged for:\n{}", src);
        let warm_program = warm.assignment.registers.rewrite(&warm.lowering.program);
        let cold_program = cold.assignment.registers.rewrite(&cold.lowering.program);
        for (id, rt) in warm_program.rts() {
            prop_assert_eq!(rt, cold_program.rt(id));
        }
        prop_assert_eq!(&warm.microcode.words, &cold.microcode.words,
            "microcode diverged for:\n{}", src);
        prop_assert_eq!(warm.artificial_names.clone(), cold.artificial_names.clone());
    }

    /// Fingerprints invalidate on real edits and survive cosmetic ones:
    /// editing the source invalidates the frontend (and, for semantic
    /// edits, everything downstream); editing the core invalidates
    /// exactly the stages that read the edited component.
    #[test]
    fn source_and_core_edits_invalidate_the_fingerprint(src in arb_source()) {
        let core = Arc::new(cores::audio_core());
        let opts = CompileOptions { restarts: 1, ..CompileOptions::default() };
        let session = CompileSession::new();
        let first = match session.compile(&core, &src, &opts) {
            Ok(c) => c,
            Err(_) => return Ok(()),
        };
        prop_assert_eq!(first.stats.cache_hits, 0);

        // Whitespace-only edit: new source fingerprint (frontend miss),
        // same graph fingerprint — every later stage hits.
        let cosmetic = format!("{src}\n");
        let warm = session.compile(&core, &cosmetic, &opts).unwrap();
        prop_assert_eq!(warm.stats.cache_hits, 6, "for:\n{}", src);
        prop_assert_eq!(&warm.microcode.words, &first.microcode.words);

        // Semantic edit: the output op changes the graph fingerprint and
        // invalidates everything past the frontend.
        let edited = src.replacen("y = pass(", "y = pass_clip(", 1);
        prop_assert_ne!(&edited, &src);
        if let Ok(recompiled) = session.compile(&core, &edited, &opts) {
            prop_assert_eq!(recompiled.stats.cache_hits, 0, "for:\n{}", edited);
        }

        // Core edit (controller depth): the lowering, modification, and
        // analysis artifacts survive (they never read the controller);
        // scheduling and everything after it recompute under the new cap.
        let mut shrunk = (*core).clone();
        shrunk.controller = Controller::stripped(core.controller.program_depth() - 1);
        if let Ok(reshaped) = session.compile(&Arc::new(shrunk), &src, &opts) {
            prop_assert_eq!(reshaped.stats.cache_hits, 4, "for:\n{}", src);
        }
    }
}
