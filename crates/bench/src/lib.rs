//! Figure/experiment regeneration and kernel benches for the `dspcc`
//! reproduction of *Efficient Code Generation for In-House DSP-Cores*
//! (DATE 1995).
//!
//! Each binary in `src/bin/` regenerates one figure or in-text result of
//! the paper (see DESIGN.md's experiment index); the Criterion benches in
//! `benches/` time kernels for same-machine A/B runs only, and
//! `perfbench/` is the end-to-end benchmark.

use dspcc::sched::report::OccupationReport;
use dspcc::Compiled;

/// The figure-9 row layout: display label and RT resource name, in the
/// paper's order.
pub const FIG9_ROWS: [(&str, &str); 9] = [
    ("PRG_CNST", "prgc"),
    ("ROM", "rom"),
    ("MULT", "mult"),
    ("ALU", "alu"),
    ("ACU", "acu"),
    ("RAM", "ram"),
    ("IPB", "ipb"),
    ("OPB_1", "opb_1"),
    ("OPB_2", "opb_2"),
];

/// Computes the figure-9 occupation report of a compiled audio program.
pub fn fig9_report(compiled: &Compiled) -> OccupationReport {
    compiled.occupation(&FIG9_ROWS)
}

/// Renders a small paper-vs-measured table row.
pub fn compare_row(name: &str, paper: &str, measured: &str) -> String {
    format!("{name:<24} paper: {paper:<16} measured: {measured}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspcc::{apps, cores, Compiler};

    #[test]
    fn fig9_rows_cover_every_audio_opu() {
        let core = cores::audio_core();
        for (_, resource) in FIG9_ROWS {
            assert!(
                core.datapath.opu(resource).is_some(),
                "row {resource} is not an OPU of the audio core"
            );
        }
    }

    #[test]
    fn audio_application_meets_budget_when_folded() {
        let core = cores::audio_core();
        let compiled = Compiler::new(&core)
            .restarts(4)
            .compile(&apps::audio_application())
            .unwrap();
        // Flat heuristic schedule: bounded below by 63 (window bound).
        assert!(compiled.cycles() >= 63);
        // Folded with one iteration of overlap the frame meets the
        // paper's 64-cycle real-time budget.
        let folded = compiled.fold(2, 16).unwrap();
        assert!(folded.ii() <= 64, "II = {}", folded.ii());
        // The paper's headline: RAM, MULT and ALU all above 90% (in the
        // kernel).
        let report = compiled.folded_occupation(&folded, &FIG9_ROWS);
        for unit in ["RAM", "MULT", "ALU"] {
            assert!(
                report.row(unit).unwrap().percent() >= 90,
                "{unit} occupation {}% below the paper's >90%",
                report.row(unit).unwrap().percent()
            );
        }
        let _ = fig9_report(&compiled);
    }
}
