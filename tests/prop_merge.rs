//! Property tests for the datapath-merge machinery: the identity plan
//! is a structural no-op, and a valid two-RF merge on a generated core
//! yields a datapath that validates and whose *re-derived* compiled
//! microcode still conforms bit-exact against the golden model.
//!
//! These are the fleet-grade guarantees behind the co-design search's
//! merge moves (`dspcc::codesign`): a merge may cost parallelism —
//! cycles may go up, a tight combination may become infeasible — but it
//! must never change what a compiled program computes.

use std::sync::Arc;

use dspcc::arch::merge::MergePlan;
use dspcc::arch::CoreGenerator;
use dspcc::conform::conform_cell;
use dspcc::isa::derive_isa;
use dspcc::{apps, cores, CellOutcome, CompileOptions, CompileSession, Core};
use proptest::prelude::*;

#[test]
fn identity_plan_round_trips_fingerprint() {
    let gen = CoreGenerator::new();
    for seed in 0..32u64 {
        let dp = gen.generate(seed).datapath;
        let merged = MergePlan::new().apply(&dp).unwrap();
        assert_eq!(
            merged.fingerprint(),
            dp.fingerprint(),
            "identity plan changed datapath structure for seed {seed}"
        );
    }
}

#[test]
fn identity_plan_round_trips_hand_written_cores() {
    for core in [
        cores::audio_core(),
        cores::tiny_core(),
        cores::unmerged_intermediate(),
    ] {
        let merged = MergePlan::new().apply(&core.datapath).unwrap();
        assert_eq!(
            merged.fingerprint(),
            core.datapath.fingerprint(),
            "{}",
            core.name
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any two distinct register files of a generated core can be merged
    /// (target = first member, the canonical in-group form) into a
    /// datapath that passes validation; compiling an app on the merged
    /// core with a re-derived instruction set then either conforms
    /// bit-exact or is rejected/quarantined with a stated reason —
    /// never a silent miscompile.
    #[test]
    fn two_rf_merge_validates_and_conforms(
        seed in 0u64..48,
        first in 0usize..16,
        offset in 1usize..16,
    ) {
        let arch = CoreGenerator::new().generate(seed);
        let n = arch.datapath.register_files().len();
        prop_assume!(n >= 2);
        let a = first % n;
        let b = (a + (offset % (n - 1)) + 1) % n;
        let rf_a = arch.datapath.register_files()[a].name().to_owned();
        let rf_b = arch.datapath.register_files()[b].name().to_owned();

        let mut plan = MergePlan::new();
        plan.merge_rfs(&[&rf_a, &rf_b], &rf_a);
        // Property 1: the merge applies and the result validates.
        let merged_dp = plan.apply(&arch.datapath).unwrap();
        prop_assert_eq!(
            merged_dp.register_files().len(),
            n - 1,
            "merging {} + {} must remove exactly one file", &rf_a, &rf_b
        );

        // Property 2: the merged core (instruction set re-derived on the
        // merged datapath) still computes what the golden model computes.
        let isa = derive_isa(&merged_dp, seed);
        let core = Arc::new(Core::new(
            format!("gen_{seed:x}/m({rf_a},{rf_b})"),
            merged_dp,
            arch.controller.clone(),
            cores::generated_core(seed).format,
            Some(isa.classification),
            isa.instruction_set,
            isa.cover,
        ));
        let session = CompileSession::new();
        let outcome = conform_cell(
            &session,
            &core,
            seed,
            "fir4",
            &apps::fir(4),
            4,
            &CompileOptions::sweep_cell(),
        );
        prop_assert!(
            !matches!(outcome, CellOutcome::Mismatch(_)),
            "merged core miscompiled: {:?}", outcome
        );
    }
}
