//! A session answers every budget of a compacting compile from one kept
//! search (`dspcc::sched::Search`), and the budget only picks where that
//! search stops. These tests walk budget ladders through one shared
//! session in several orders and require every variant to equal a cold
//! compile of it in a fresh session: the same error text, or the same
//! schedule rows, bound, degradation, microcode words, ROM image and
//! register mapping.

use std::collections::BTreeMap;
use std::sync::Arc;

use dspcc::encode::Word;
use dspcc::ir::RtId;
use dspcc::sched::Degradation;
use dspcc::{apps, cores, CompileError, CompileOptions, CompileSession, Compiled, Core};

/// What a compile outputs that the schedule stage decides.
#[derive(Debug, PartialEq)]
struct Outcome {
    rows: Vec<Vec<RtId>>,
    bound: u32,
    degradation: Option<Degradation>,
    words: Vec<Word>,
    rom: Vec<i64>,
    mapping: BTreeMap<(String, u32), u32>,
}

fn outcome(result: Result<Compiled, CompileError>) -> Result<Outcome, String> {
    let c = result.map_err(|e| e.to_string())?;
    Ok(Outcome {
        rows: c.schedule.cycles().to_vec(),
        bound: c.schedule_bound,
        degradation: c.stats.degradation,
        words: c.microcode.words.clone(),
        rom: c.microcode.rom_image.clone(),
        mapping: c.assignment.mapping.clone(),
    })
}

/// One variant and its cold compile.
type Cell = (CompileOptions, Result<Outcome, String>);

/// The order a shared session compiles the ladders of one (core, app) in.
#[derive(Debug, Clone, Copy)]
enum Order {
    /// Ladder by ladder: the unbudgeted compile, then the budgets from
    /// the loosest down.
    Descending,
    /// Ladder by ladder: the budgets from the tightest up, then the
    /// unbudgeted compile.
    Ascending,
    /// Round-robin over the ladders, each zigzagging between its loosest
    /// and tightest remaining budget, the unbudgeted compile last.
    Interleaved,
}

impl Order {
    /// Arranges `ladders`, each `[unbudgeted, loosest, …, tightest]`.
    fn arrange(self, ladders: &[Vec<Cell>]) -> Vec<&Cell> {
        match self {
            Order::Descending => ladders.iter().flatten().collect(),
            Order::Ascending => ladders
                .iter()
                .flat_map(|l| l[1..].iter().rev().chain(&l[..1]))
                .collect(),
            Order::Interleaved => {
                let zigzags: Vec<Vec<&Cell>> = ladders
                    .iter()
                    .map(|l| {
                        let budgets = &l[1..];
                        let mut out = Vec::with_capacity(l.len());
                        let (mut lo, mut hi) = (0, budgets.len());
                        while lo < hi {
                            out.push(&budgets[lo]);
                            lo += 1;
                            if lo < hi {
                                hi -= 1;
                                out.push(&budgets[hi]);
                            }
                        }
                        out.push(&l[0]);
                        out
                    })
                    .collect();
                let longest = zigzags.iter().map(Vec::len).max().unwrap_or(0);
                (0..longest)
                    .flat_map(|k| zigzags.iter().filter_map(move |z| z.get(k).copied()))
                    .collect()
            }
        }
    }
}

/// The ladder of `base`: its unbudgeted compile, then every budget from
/// two above that compile's length down to two below its bound, each
/// with its cold compile in a fresh session.
fn ladder(core: &Arc<Core>, source: &str, base: CompileOptions) -> Vec<Cell> {
    let cold =
        |options: &CompileOptions| outcome(CompileSession::new().compile(core, source, options));
    let unbudgeted = cold(&base);
    let budgets = match &unbudgeted {
        Ok(o) => (o.bound.saturating_sub(2)..=o.rows.len() as u32 + 2)
            .rev()
            .collect(),
        Err(_) => Vec::new(),
    };
    let mut cells = vec![(base.clone(), unbudgeted)];
    for budget in budgets {
        let options = CompileOptions {
            budget: Some(budget),
            ..base.clone()
        };
        let expected = cold(&options);
        cells.push((options, expected));
    }
    cells
}

/// Walks the ladders of every (fuel, restart count) pair through one
/// session per (core, app, order) and compares each variant with its cold
/// compile. Returns the number of variants compared.
fn check_ladders(
    targets: &[Core],
    sources: &[(String, String)],
    fuels: &[Option<u64>],
    restarts: &[u32],
    orders: &[Order],
) -> usize {
    let mut cells = 0;
    for core in targets {
        let core = Arc::new(core.clone());
        for (app, source) in sources {
            // The cold compiles are most of the work; each ladder's run
            // on a thread of its own.
            let ladders: Vec<Vec<Cell>> = std::thread::scope(|scope| {
                let threads: Vec<_> = fuels
                    .iter()
                    .flat_map(|&fuel| restarts.iter().map(move |&r| (fuel, r)))
                    .map(|(fuel, restarts)| {
                        let base = CompileOptions {
                            fuel,
                            restarts,
                            ..CompileOptions::default()
                        };
                        let core = &core;
                        scope.spawn(move || ladder(core, source, base))
                    })
                    .collect();
                threads.into_iter().map(|t| t.join().unwrap()).collect()
            });
            for &order in orders {
                let session = CompileSession::new();
                for (options, expected) in order.arrange(&ladders) {
                    let shared = outcome(session.compile(&core, source, options));
                    assert_eq!(
                        &shared, expected,
                        "{app} on {}, {order:?}: budget {:?}, fuel {:?}, restarts {}",
                        core.name, options.budget, options.fuel, options.restarts
                    );
                    cells += 1;
                }
            }
        }
    }
    cells
}

#[test]
fn a_shared_session_answers_every_budget_like_a_fresh_one() {
    let mut targets = vec![cores::audio_core()];
    targets.extend((0..4).map(cores::generated_core));
    let sources = [
        ("fir4", apps::fir(4)),
        ("sop6", apps::sum_of_products(6)),
        ("biquad2", apps::biquad_cascade(2)),
        ("addtree4", apps::add_tree(4)),
        ("audio", apps::audio_application()),
    ]
    .map(|(name, source)| (name.to_string(), source));
    let cells = check_ladders(
        &targets,
        &sources,
        &[None, Some(3), Some(20)],
        &[2, 6],
        &[Order::Descending, Order::Interleaved],
    );
    assert_eq!(cells, 2136);
}

/// The wide grid: run with `cargo test --release --test budget_ladder --
/// --ignored`.
#[test]
#[ignore = "wide grid; run in release"]
fn a_shared_session_answers_every_budget_like_a_fresh_one_wide() {
    let mut targets = vec![cores::audio_core()];
    targets.extend((0..8).map(cores::generated_core));
    let mut sources = vec![("audio".to_string(), apps::audio_application())];
    sources.extend([2, 4, 6, 8].map(|n| (format!("fir{n}"), apps::fir(n))));
    sources.extend([1, 2, 3].map(|n| (format!("biquad{n}"), apps::biquad_cascade(n))));
    sources.extend([3, 6, 9, 10].map(|n| (format!("sop{n}"), apps::sum_of_products(n))));
    sources.extend([3, 4, 6].map(|n| (format!("addtree{n}"), apps::add_tree(n))));
    assert_eq!(sources.len(), 15);
    let cells = check_ladders(
        &targets,
        &sources,
        &[
            None,
            Some(1),
            Some(3),
            Some(14),
            Some(20),
            Some(40),
            Some(120),
        ],
        &[0, 2, 6],
        &[Order::Descending, Order::Ascending, Order::Interleaved],
    );
    assert_eq!(cells, 60_687);
}
