//! Seeded fault-injection audit of the conformance oracle.
//!
//! Compiles the standard corpus on the fixed audio core, injects one
//! seeded fault per `(seed, app, kind)` cell — microcode bit-flips,
//! ROM corruption, schedule cycle swaps, register redirects — and
//! demands that every mutant is either *detected* by the differential
//! oracle or *proven benign* by a static witness. A silent survivor is
//! a hole in the fleet and exits non-zero with a reproduction command.
//! The differential also re-runs on every benign verdict, so a refuted
//! witness fails the audit too.
//!
//! ```text
//! cargo run --release --example fault -- [--seeds N] [--start S]
//!     [--apps fir8,biquad3,sop6,addtree8,audio]
//!     [--kinds bitflip,romcorrupt,cycleswap,regredirect]
//!     [--frames F] [--threads T]
//! ```

use dspcc::conform::standard_corpus;
use dspcc::fault::{FaultAudit, MutationKind};

fn main() {
    let mut seeds = 32u64;
    let mut start = 0u64;
    let mut frames = 12u32;
    let mut threads = 0usize;
    let mut apps: Option<Vec<String>> = None;
    let mut kinds: Option<Vec<String>> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{what} needs a value"))
        };
        match arg.as_str() {
            "--seeds" => seeds = value("--seeds").parse().expect("--seeds: integer"),
            "--start" => start = value("--start").parse().expect("--start: integer"),
            "--frames" => frames = value("--frames").parse().expect("--frames: integer"),
            "--threads" => threads = value("--threads").parse().expect("--threads: integer"),
            "--apps" => {
                apps = Some(value("--apps").split(',').map(str::to_owned).collect());
            }
            "--kinds" => {
                kinds = Some(value("--kinds").split(',').map(str::to_owned).collect());
            }
            other => panic!("unknown argument `{other}` (see the example's docs)"),
        }
    }

    let mut audit = FaultAudit::new()
        .seed_range(start..start + seeds)
        .frames(frames)
        .threads(threads);
    let corpus = standard_corpus();
    match &apps {
        None => audit = audit.standard_corpus(),
        Some(names) => {
            for name in names {
                let (n, src) = corpus
                    .iter()
                    .find(|(n, _)| n == name)
                    .unwrap_or_else(|| panic!("unknown app `{name}` (corpus: {corpus:?})"));
                audit = audit.app(n.clone(), src.clone());
            }
        }
    }
    if let Some(names) = &kinds {
        let parsed: Vec<MutationKind> = names
            .iter()
            .map(|name| {
                MutationKind::ALL
                    .iter()
                    .copied()
                    .find(|k| k.name() == name)
                    .unwrap_or_else(|| panic!("unknown kind `{name}` (see --help text)"))
            })
            .collect();
        audit = audit.kinds(parsed);
    }

    let report = audit.run();
    println!("{report}");
    let survivors: Vec<_> = report.survived().collect();
    if !survivors.is_empty() {
        eprintln!("\nfault audit FAILED — reproduce with:");
        for cell in &survivors {
            eprintln!(
                "  cargo run --release --example fault -- --start {} --seeds 1 --apps {} \
                 --kinds {} --frames {frames}",
                cell.seed,
                cell.app,
                cell.kind.name(),
            );
        }
        std::process::exit(1);
    }
}
