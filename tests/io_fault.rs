//! Tier-1 pinned chaos-I/O block: the crash-safety contract, stated as
//! a test.
//!
//! 7 seeds × the 5-app standard corpus × all 6 I/O fault kinds = 210
//! cells. Every cell compiles cold through a fault-injecting cache
//! backend, then warm from whatever the chaos left on disk, and must
//! end in exactly one of two states:
//!
//! * **Recovered** — both passes served the reference artifact
//!   bit-exact *and* the cell proves at least one fault was actually
//!   injected and absorbed (the witness);
//! * **a typed error** — never a panic, never a silently wrong
//!   artifact.
//!
//! A single `WrongArtifact` cell fails the suite: it means a corrupted
//! or stale cache entry was served as if it were the real compile.
//!
//! The seed window here (0..7) is deliberately disjoint from the CI
//! `service-smoke` chaos windows (32..40 and 40..44, see
//! `.github/workflows/ci.yml`) so the two layers of defense never
//! degenerate into one.

use dspcc::{IoFaultAudit, IoFaultKind};

#[test]
fn pinned_chaos_block_never_serves_a_wrong_artifact() {
    let report = IoFaultAudit::new().seed_range(0..7).standard_corpus().run();

    let expected = 7 * 5 * IoFaultKind::ALL.len();
    assert_eq!(report.cells.len(), expected, "{report}");

    let wrong: Vec<_> = report.wrong_artifacts().collect();
    assert!(
        wrong.is_empty(),
        "silent wrong-artifact serves: {wrong:?}\n{report}"
    );
    assert_eq!(report.skipped().count(), 0, "{report}");

    // The block must actually exercise recovery, not vacuously pass on
    // typed errors alone — and every recovered cell carries a witness
    // naming the faults it absorbed.
    let recovered: Vec<_> = report.recovered().collect();
    assert!(
        recovered.len() > expected / 2,
        "only {} of {expected} cells recovered\n{report}",
        recovered.len()
    );
    for cell in &recovered {
        match &cell.outcome {
            dspcc::IoFaultOutcome::Recovered { witness } => {
                assert!(!witness.is_empty(), "{cell:?}")
            }
            _ => unreachable!(),
        }
    }

    // Each fault kind must be represented among the recoveries: a kind
    // whose every cell errors out would mean that fault class has no
    // tested recovery path.
    for kind in IoFaultKind::ALL {
        assert!(
            recovered.iter().any(|c| c.kind == kind),
            "no recovered cell for fault kind `{kind}`\n{report}"
        );
    }
}
