//! The seeded fault-injection oracle audit (CI seed block).
//!
//! Mutates compiled artifacts — microcode bit-flips, ROM corruption,
//! schedule cycle swaps, register redirects — on the fixed audio core
//! and demands every mutant is *detected* by the differential oracle or
//! *proven benign* by a static witness. A silent survivor is a hole in
//! the fleet; it reproduces with
//! `cargo run --release --example fault -- --start <seed> --seeds 1
//! --apps <app> --kinds <kind>`.

use std::fmt::Write;

use dspcc::apps;
use dspcc::arch::Fnv64;
use dspcc::fault::{FaultAudit, FaultOutcome, MutationKind};

/// The pinned CI block: 32 seeds × 3 corpus apps × all mutation kinds,
/// zero silent survivors, zero refuted witnesses, and the whole table
/// pinned bit for bit.
#[test]
fn fixed_seed_block_has_zero_survivors() {
    let report = FaultAudit::new()
        .seed_range(0..32)
        .app("fir8", apps::fir(8))
        .app("biquad3", apps::biquad_cascade(3))
        .app("sop6", apps::sum_of_products(6))
        .frames(12)
        .run();
    assert_eq!(report.cells.len(), 32 * 3 * MutationKind::ALL.len());
    let survivors: Vec<String> = report
        .survived()
        .map(|c| {
            format!(
                "(seed {:#x}, {}, {}) {}: {:?}",
                c.seed,
                c.app,
                c.kind.name(),
                c.mutation,
                c.outcome
            )
        })
        .collect();
    assert!(survivors.is_empty(), "oracle holes: {survivors:#?}");
    // The audit must be meaningful, not vacuously green: every kind
    // must arm (detect or prove benign) on every app.
    for kind in MutationKind::ALL {
        for app in ["fir8", "biquad3", "sop6"] {
            let armed = report
                .cells
                .iter()
                .filter(|c| c.kind == kind && c.app == app)
                .filter(|c| {
                    c.outcome.is_detected() || matches!(c.outcome, FaultOutcome::Benign { .. })
                })
                .count();
            assert!(
                armed > 0,
                "kind {} never armed on {app}\n{report}",
                kind.name()
            );
        }
    }
    // Every benign verdict carries a non-empty witness and every skip a
    // reason.
    for cell in &report.cells {
        match &cell.outcome {
            FaultOutcome::Benign { witness } => {
                assert!(!witness.is_empty(), "bare benign at {:#x}", cell.seed)
            }
            FaultOutcome::Skipped { reason } => {
                assert!(!reason.is_empty(), "bare skip at {:#x}", cell.seed)
            }
            _ => {}
        }
    }
    // The table bit for bit: mutation texts, witnesses and detection
    // details, which the counts above do not cover.
    let mut h = Fnv64::new();
    write!(h, "{:?}", report.cells).unwrap();
    let digest = h.finish();
    assert_eq!(
        digest, 0x8836_92a8_18ce_e3fe,
        "digest {digest:#018x}\n{report}"
    );
}

/// The audit table is byte-identical for every worker-thread count.
#[test]
fn serial_and_parallel_audit_tables_agree() {
    let audit = FaultAudit::new()
        .seed_range(0..6)
        .app("fir6", apps::fir(6))
        .app("addtree6", apps::add_tree(6))
        .frames(6);
    let serial = audit.clone().threads(1).run();
    let parallel = audit.clone().threads(4).run();
    assert_eq!(serial, parallel, "audit table depends on thread count");
    let again = audit.threads(4).run();
    assert_eq!(parallel, again, "audit table unstable across runs");
}

/// A panicking injection is contained into a `Detected`/`Panic` cell,
/// never a process abort: the whole sweep completes even when a cell's
/// toolchain path panics.
#[test]
fn sweep_completes_with_all_outcomes_classified() {
    let report = FaultAudit::new()
        .seed_range(0..4)
        .app("addtree8", apps::add_tree(8))
        .frames(4)
        .run();
    assert_eq!(report.cells.len(), 4 * MutationKind::ALL.len());
    for cell in &report.cells {
        assert!(
            !cell.outcome.is_survived(),
            "survivor in smoke block: {} {}",
            cell.mutation,
            match &cell.outcome {
                FaultOutcome::Survived { detail } => detail.as_str(),
                _ => "",
            }
        );
    }
}
