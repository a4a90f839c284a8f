//! Cross-core differential conformance sweep.
//!
//! Compiles the standard application corpus on a block of generated cores
//! and pins the simulated microcode bit-exact against the
//! `dspcc_dfg::Interpreter` golden model. Any `MISMATCH` cell is a
//! compiler bug by construction; the process exits non-zero and prints
//! the offending `(seed, app)` pair for reproduction.
//!
//! Cells that pass *degraded* — bit-exact, but served by a fuel-truncated
//! scheduling search (`ok*` in the table) — are counted separately so a
//! tightly-fueled sweep cannot masquerade as a full-quality one.
//!
//! Merged-core cells (`--merge-pairs a+b,c+d`) run the corpus on the
//! structural union of two generated cores with a re-derived instruction
//! set — the co-design search's cross-core move, differentially verified.
//! When `--merge-pairs` is given and `--seeds` is not, the sweep runs the
//! pairs alone.
//!
//! ```text
//! cargo run --release --example conform -- [--seeds N] [--start S]
//!     [--merge-pairs A+B,C+D] [--apps fir8,biquad3,sop6,addtree8,audio]
//!     [--frames F] [--threads T] [--fuel UNITS]
//! ```

use dspcc::conform::{standard_corpus, ConformFleet};
use dspcc::CompileOptions;

fn main() {
    let mut seeds: Option<u64> = None;
    let mut start = 0u64;
    let mut frames = 8u32;
    let mut threads = 0usize;
    let mut fuel: Option<u64> = None;
    let mut apps: Option<Vec<String>> = None;
    let mut merge_pairs: Vec<(u64, u64)> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{what} needs a value"))
        };
        match arg.as_str() {
            "--seeds" => seeds = Some(value("--seeds").parse().expect("--seeds: integer")),
            "--start" => start = value("--start").parse().expect("--start: integer"),
            "--merge-pairs" => {
                for pair in value("--merge-pairs").split(',') {
                    let (a, b) = pair
                        .split_once('+')
                        .unwrap_or_else(|| panic!("--merge-pairs: `{pair}` is not `a+b`"));
                    merge_pairs.push((
                        a.parse().expect("--merge-pairs: integer seed"),
                        b.parse().expect("--merge-pairs: integer seed"),
                    ));
                }
            }
            "--frames" => frames = value("--frames").parse().expect("--frames: integer"),
            "--threads" => threads = value("--threads").parse().expect("--threads: integer"),
            "--fuel" => fuel = Some(value("--fuel").parse().expect("--fuel: integer")),
            "--apps" => {
                apps = Some(value("--apps").split(',').map(str::to_owned).collect());
            }
            other => panic!("unknown argument `{other}` (see the example's docs)"),
        }
    }

    // With only --merge-pairs given, run the pairs alone; otherwise the
    // single-seed block (default 64 seeds) plus any pairs.
    let seeds = seeds.unwrap_or(if merge_pairs.is_empty() { 64 } else { 0 });
    let mut fleet = ConformFleet::new()
        .seed_range(start..start + seeds)
        .merged_pairs(merge_pairs)
        .frames(frames)
        .threads(threads);
    if let Some(units) = fuel {
        // Only the fuel cap moves; restarts and the single-threaded
        // per-cell scheduler stay the fleet's own policy.
        fleet = fleet.options(CompileOptions {
            fuel: Some(units),
            ..CompileOptions::sweep_cell()
        });
    }
    let corpus = standard_corpus();
    match &apps {
        None => fleet = fleet.standard_corpus(),
        Some(names) => {
            for name in names {
                let (n, src) = corpus
                    .iter()
                    .find(|(n, _)| n == name)
                    .unwrap_or_else(|| panic!("unknown app `{name}` (corpus: {corpus:?})"));
                fleet = fleet.app(n.clone(), src.clone());
            }
        }
    }

    let report = fleet.run();
    println!("{report}");
    let degraded = report.degraded_passes().count();
    if degraded > 0 {
        eprintln!(
            "\nnote: {degraded} cell(s) passed degraded (`ok*`): bit-exact, but the \
             scheduling search was fuel-truncated — rerun with more --fuel for \
             full-quality schedules"
        );
    }
    let mismatches: Vec<_> = report.mismatches().collect();
    if !mismatches.is_empty() {
        eprintln!("\nconformance FAILED — reproduce with:");
        for cell in &mismatches {
            match cell.merged_with {
                None => eprintln!(
                    "  cargo run --release --example conform -- --start {} --seeds 1 --apps {} --frames {frames}",
                    cell.seed, cell.app
                ),
                Some(b) => eprintln!(
                    "  cargo run --release --example conform -- --merge-pairs {}+{b} --apps {} --frames {frames}",
                    cell.seed, cell.app
                ),
            }
        }
        std::process::exit(1);
    }
}
