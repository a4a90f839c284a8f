//! Cross-crate integration tests: the full figure-1b pipeline, checked at
//! every interface — schedule legality, instruction-set conformance,
//! encoding round trips, and bit-exact execution.

use std::fmt::{self, Write as _};
use std::sync::Arc;

use dspcc::arch::Fnv64;
use dspcc::dfg::{parse, Dfg, Interpreter};
use dspcc::encode::decode;
use dspcc::ir::ValueId;
use dspcc::isa::{artificial_resources, ClassId, Classification, CoverStrategy};
use dspcc::num::WordFormat;
use dspcc::rtgen::{lower, LowerOptions, Lowering};
use dspcc::{apps, cores, CompileOptions, CompileSession, Compiler};

/// Every schedule instruction of a compiled audio program maps to an
/// allowed instruction type of the core's instruction set — checked
/// against the *original* set definition, not the artificial resources
/// (closing the loop on paper section 6.3's soundness claim).
#[test]
fn audio_schedule_conforms_to_instruction_set() {
    let core = cores::audio_core();
    let compiled = Compiler::new(&core)
        .restarts(2)
        .compile(&apps::audio_application())
        .unwrap();
    let classification = compiled.classification.as_ref().unwrap();
    let iset = core.instruction_set.as_ref().unwrap();
    for (cycle, instr) in compiled.schedule.instructions() {
        let mut classes: Vec<ClassId> = instr
            .iter()
            .filter_map(|&rt| classification.class_of(compiled.lowering.program.rt(rt)))
            .collect();
        classes.sort();
        classes.dedup();
        assert!(
            iset.allows(&classes),
            "cycle {cycle} holds classes {classes:?}, not an allowed instruction type"
        );
    }
}

/// The figure-7 application under default options compiles to exactly
/// the pinned microcode: 73 cycles against a sound bound of 59, and one
/// FNV-1a digest over every instruction word and the coefficient ROM
/// image. Any change to the pipeline that moves a single bit of the
/// paper's own application fails here.
#[test]
fn audio_compile_is_pinned_bit_for_bit() {
    let core = Arc::new(cores::audio_core());
    let compiled = CompileSession::new()
        .compile(
            &core,
            &apps::audio_application(),
            &CompileOptions::default(),
        )
        .unwrap();
    assert_eq!(compiled.cycles(), 73);
    assert_eq!(compiled.schedule_bound, 59);
    let digest = Fnv64::of_parts(|h| {
        for word in &compiled.microcode.words {
            h.write_text(&word.to_string());
        }
        for &value in &compiled.microcode.rom_image {
            h.write_u64(value as u64);
        }
    });
    assert_eq!(digest, 0x3fcd_77bd_6cfd_cec8, "digest {digest:#018x}");
}

/// Renders everything RT generation produces, in an order that no
/// interned symbol id can reach: `Rt`'s `Display` lists usages by
/// resource name.
fn render_lowering(out: &mut impl fmt::Write, l: &Lowering) -> fmt::Result {
    for (id, rt) in l.program.rts() {
        writeln!(
            out,
            "{id} {} latency {} defs {:?} uses {:?}",
            rt.name(),
            rt.latency(),
            rt.defs(),
            rt.uses()
        )?;
        write!(out, "{rt}")?;
    }
    for v in 0..l.program.value_count() {
        write!(out, "{} ", l.program.value(ValueId(v as u32)).name())?;
    }
    writeln!(out)?;
    writeln!(out, "sequence {:?}", l.sequence_edges)?;
    writeln!(out, "loop {:?}", l.loop_edges)?;
    writeln!(out, "ram {:?}", l.ram_layout)?;
    let rom: Vec<u64> = l.rom_image.iter().map(|v| v.to_bits()).collect();
    writeln!(out, "rom {rom:?}")?;
    writeln!(out, "immediates {:?}", l.immediates)?;
    writeln!(out, "outputs {:?}", l.output_order)?;
    writeln!(out, "inputs {:?}", l.input_order)?;
    writeln!(out, "fp {:?}", l.fp_reg)
}

/// RT generation is pinned bit for bit on every (core, app, constant
/// CSE) cell: the three hand-built cores and 16 generated ones against
/// the audio application and four parametric kernel families. A cell
/// that cannot lower renders its typed error instead.
#[test]
fn rt_generation_is_pinned_bit_for_bit() {
    let mut targets = vec![
        cores::audio_core(),
        cores::tiny_core(),
        cores::unmerged_intermediate(),
    ];
    targets.extend((0..16).map(cores::generated_core));
    let mut sources = vec![apps::audio_application()];
    sources.extend((2..=10).map(apps::fir));
    sources.extend((1..=5).map(apps::biquad_cascade));
    sources.extend((2..=10).map(apps::sum_of_products));
    sources.extend((2..=6).map(apps::add_tree));
    let dfgs: Vec<Dfg> = sources
        .iter()
        .map(|s| Dfg::build(&parse(s).unwrap()).unwrap())
        .collect();
    let mut h = Fnv64::new();
    for core in &targets {
        for (app, dfg) in dfgs.iter().enumerate() {
            for cse_constants in [false, true] {
                writeln!(h, "cell {} {app} {cse_constants}", core.name).unwrap();
                match lower(dfg, &core.datapath, &LowerOptions { cse_constants }) {
                    Ok(l) => render_lowering(&mut h, &l).unwrap(),
                    Err(e) => writeln!(h, "error {e:?}").unwrap(),
                }
            }
        }
    }
    let digest = h.finish();
    assert_eq!(digest, 0x0d23_582b_3458_2ecc, "digest {digest:#018x}");
}

/// Renders a scheduling outcome: every row of the schedule in order, the
/// bound and the degradation, or the error.
fn render(result: &Result<dspcc::stages::ScheduleArtifact, dspcc::CompileError>) -> String {
    let mut out = String::new();
    match result {
        Ok(s) => {
            for row in s.schedule.cycles() {
                writeln!(out, "{row:?}").unwrap();
            }
            writeln!(out, "bound {} {:?}", s.bound, s.degradation).unwrap();
        }
        Err(e) => writeln!(out, "error {e}").unwrap(),
    }
    out
}

/// The scheduling stage is pinned bit for bit on every (core, app,
/// options) cell: the three hand-built cores and 8 generated ones against
/// the audio application and four parametric kernel families, each
/// analysed once and scheduled under the defaults, a budget ladder from
/// the default length down to the bound, two restart counts, list
/// scheduling under every priority, two fuel limits, (on small programs)
/// the exact scheduler, and the exact scheduler under fuel 0, 5 and 50
/// with two restart counts. Every row of the schedule is digested in
/// order, so the order of RTs within a cycle is pinned too. A second
/// digest pins the compacting scheduler on seeded random programs
/// ([`random_programs_digest`]).
#[test]
fn schedules_are_pinned_bit_for_bit() {
    use dspcc::sched::list::Priority;
    use dspcc::stages::{
        run_analysis, run_frontend, run_lower, run_modify, run_schedule, ScheduleArtifact,
    };
    use dspcc::CompileError;

    let mut targets = vec![
        cores::audio_core(),
        cores::tiny_core(),
        cores::unmerged_intermediate(),
    ];
    targets.extend((0..8).map(cores::generated_core));
    let mut sources = vec![apps::audio_application()];
    sources.extend((2..=10).map(apps::fir));
    sources.extend((1..=5).map(apps::biquad_cascade));
    sources.extend((2..=10).map(apps::sum_of_products));
    sources.extend((2..=6).map(apps::add_tree));
    let frontends: Vec<_> = sources.iter().map(|s| run_frontend(s).unwrap()).collect();
    let defaults = CompileOptions::default();
    let mut h = Fnv64::new();
    let mut cells = 0;
    for core in &targets {
        for (app, frontend) in frontends.iter().enumerate() {
            writeln!(h, "pair {} {app}", core.name).unwrap();
            let analysed = run_lower(&frontend.dfg, core, &defaults).and_then(|lowered| {
                let modified = run_modify(&lowered, core);
                run_analysis(&modified).map(|analysis| (modified, analysis))
            });
            let (modified, analysis) = match analysed {
                Ok(pair) => pair,
                Err(e) => {
                    writeln!(h, "error {e}").unwrap();
                    continue;
                }
            };
            let schedule =
                |options: &CompileOptions| run_schedule(&modified, &analysis, core, options, None);
            let mut digest_cell =
                |options: &CompileOptions, result: &Result<ScheduleArtifact, CompileError>| {
                    cells += 1;
                    writeln!(
                        h,
                        "cell {:?} {} {} {} {:?} {}",
                        options.budget,
                        options.priority,
                        options.restarts,
                        options.compaction,
                        options.fuel,
                        options.exact
                    )
                    .unwrap();
                    h.write_str(&render(result)).unwrap();
                };
            let first = schedule(&defaults);
            digest_cell(&defaults, &first);
            let mut variants = Vec::new();
            if let Ok(first) = &first {
                let (cycles, bound) = (first.schedule.length(), first.bound);
                let gap = cycles.saturating_sub(bound);
                let mut budgets = vec![
                    cycles,
                    cycles - gap.div_ceil(3),
                    cycles - (2 * gap).div_ceil(3),
                    bound,
                ];
                budgets.dedup();
                variants.extend(budgets.into_iter().map(|b| CompileOptions {
                    budget: Some(b),
                    ..defaults.clone()
                }));
            }
            for restarts in [2, 12] {
                variants.push(CompileOptions {
                    restarts,
                    ..defaults.clone()
                });
            }
            for priority in [
                Priority::Slack,
                Priority::Alap,
                Priority::SinkAlap,
                Priority::CriticalPath,
                Priority::SourceOrder,
            ] {
                variants.push(CompileOptions {
                    compaction: false,
                    priority,
                    ..defaults.clone()
                });
            }
            for fuel in [1, 3] {
                variants.push(CompileOptions {
                    fuel: Some(fuel),
                    ..defaults.clone()
                });
            }
            if modified.lowering.program.rt_count() <= 24 {
                variants.push(CompileOptions {
                    exact: true,
                    exact_max_nodes: 2_000,
                    ..defaults.clone()
                });
            }
            for options in &variants {
                digest_cell(options, &schedule(options));
            }
            // The exact scheduler under fuel. A fuel-capped search spends
            // all the remaining fuel, so the heuristic it falls back to
            // runs only its mandatory round: the restart count must not
            // show in the outcome.
            for fuel in [0, 5, 50] {
                let [few, many] = [0, 12].map(|restarts| {
                    let options = CompileOptions {
                        exact: true,
                        fuel: Some(fuel),
                        restarts,
                        ..defaults.clone()
                    };
                    let result = schedule(&options);
                    digest_cell(&options, &result);
                    render(&result)
                });
                assert_eq!(
                    few, many,
                    "pair {} {app}: exact under fuel {fuel}",
                    core.name
                );
            }
        }
    }
    let digest = h.finish();
    assert_eq!(cells, 4792);
    assert_eq!(digest, 0x08df_77b7_5254_dd5c, "digest {digest:#018x}");

    let (digest, cells) = random_programs_digest();
    assert_eq!(cells, 11267);
    assert_eq!(
        digest, 0xb5e6_0bff_173d_3f31,
        "random programs digest {digest:#018x}"
    );
}

/// A seeded random program of `n` RTs: per RT one of four units with one
/// of three usages, sometimes a private bus usage, and a latency of 1 to
/// 4; value edges and sequence edges of separation 0 or 1, each from a
/// lower to a higher RT id.
fn random_program(
    rng: &mut dspcc::arch::SplitMix64,
    n: usize,
) -> (
    dspcc::ir::Program,
    Vec<(dspcc::ir::RtId, dspcc::ir::RtId, u32)>,
) {
    use dspcc::ir::{Program, Rt, RtId, Usage};
    let mut p = Program::new();
    let values: Vec<_> = (0..n).map(|i| p.add_value(format!("v{i}"))).collect();
    let mut uses: Vec<Vec<usize>> = vec![Vec::new(); n];
    for _ in 0..n * 3 / 2 {
        let (a, b) = (rng.range(0, n as u32 - 1), rng.range(0, n as u32 - 1));
        let (a, b) = (a.min(b) as usize, a.max(b) as usize);
        if a < b && !uses[b].contains(&a) {
            uses[b].push(a);
        }
    }
    for (i, used) in uses.iter().enumerate() {
        let mut rt = Rt::new(format!("rt{i}"));
        rt.add_def(values[i]);
        rt.set_latency(rng.range(1, 4));
        let unit = *rng.pick(&["alu", "mult", "ram", "rom"]);
        let usage = *rng.pick(&["a", "b", "c"]);
        rt.add_usage(unit, Usage::token(usage));
        if rng.chance(40) {
            rt.add_usage("bus", Usage::apply("xfer", [format!("v{i}")]));
        }
        for &u in used {
            rt.add_use(values[u]);
        }
        p.add_rt(rt);
    }
    let sequence = (0..n / 4)
        .map(|_| {
            let (a, b) = (rng.range(0, n as u32 - 1), rng.range(0, n as u32 - 1));
            (RtId(a.min(b)), RtId(a.max(b)), rng.range(0, 1))
        })
        .collect();
    (p, sequence)
}

/// The compacting scheduler on seeded random programs, sizes on both
/// sides of the 64-RT bitset word boundaries among them: restarts 0, 2
/// and 6 under fuel none, 1, 3 and 20, each run unbudgeted and at every
/// budget from one below the bound to the unbudgeted length. Every row,
/// the bound, the degradation or the error, and the fuel spent are
/// digested. Returns the digest and the cell count.
fn random_programs_digest() -> (u64, usize) {
    use dspcc::sched::deps::DependenceGraph;
    use dspcc::sched::{schedule, ConflictMatrix, Fuel, Scheduler};

    let mut rng = dspcc::arch::SplitMix64::new(0x5eed_0030);
    let mut h = Fnv64::new();
    let mut cells = 0;
    for k in 0..300 {
        let n = match k % 8 {
            0 => 63,
            1 => 64,
            2 => 65,
            3 => 129,
            4 => 200,
            _ => rng.range(2, 40) as usize,
        };
        let (p, sequence) = random_program(&mut rng, n);
        let deps = DependenceGraph::build_with_edges(&p, &sequence).unwrap();
        let matrix = ConflictMatrix::build(&p);
        writeln!(h, "program {k} {n}").unwrap();
        for restarts in [0, 2, 6] {
            for fuel in [None, Some(1), Some(3), Some(20)] {
                let run = |budget: Option<u32>| {
                    let mut fuel = fuel.map(Fuel::limited).unwrap_or_default();
                    let scheduler = Scheduler::Compacting { restarts };
                    let result = schedule(&p, &deps, &matrix, scheduler, budget, &mut fuel, None);
                    (result, fuel.used())
                };
                let (first, _) = run(None);
                let first = first.unwrap();
                let (length, bound) = (first.schedule.length(), first.bound);
                let budgets = std::iter::once(None).chain((bound.max(1) - 1..=length).map(Some));
                for budget in budgets {
                    cells += 1;
                    let (result, spent) = run(budget);
                    writeln!(h, "cell {restarts} {fuel:?} {budget:?} spent {spent}").unwrap();
                    match result {
                        Ok(s) => {
                            for row in s.schedule.cycles() {
                                writeln!(h, "{row:?}").unwrap();
                            }
                            writeln!(h, "bound {} {:?}", s.bound, s.degradation).unwrap();
                        }
                        Err(e) => writeln!(h, "error {e:?}").unwrap(),
                    }
                }
            }
        }
    }
    (h.finish(), cells)
}

/// The audio instruction set and every derived one of generated seeds
/// 0..64 keep their conflict graph (edges and each neighbour list, in
/// order), their artificial resources under all three cover strategies,
/// and their fingerprint.
#[test]
fn instruction_sets_are_pinned_bit_for_bit() {
    let mut targets = vec![cores::audio_core()];
    targets.extend((0..64).map(cores::generated_core));
    let mut h = Fnv64::new();
    let mut sets = 0;
    for core in &targets {
        let Some(iset) = &core.instruction_set else {
            continue;
        };
        sets += 1;
        let classification = core
            .classification
            .clone()
            .unwrap_or_else(|| Classification::identify(&core.datapath));
        let g = iset.conflict_graph();
        let edges: Vec<(usize, usize)> = g.edges().collect();
        writeln!(h, "{} {:#x} {edges:?}", core.name, iset.fingerprint()).unwrap();
        for a in 0..g.node_count() {
            writeln!(h, "{a}: {:?}", g.neighbors(a)).unwrap();
        }
        for strategy in [
            CoverStrategy::PerEdge,
            CoverStrategy::GreedyMaximal,
            CoverStrategy::ExactMinimum,
        ] {
            for ar in artificial_resources(iset, &classification, strategy) {
                writeln!(h, "{strategy} {ar}").unwrap();
            }
        }
    }
    let digest = h.finish();
    assert_eq!(sets, 44);
    assert_eq!(digest, 0x023b_f3ea_dcb6_b007, "digest {digest:#018x}");
}

/// The schedule respects dependences and resource compatibility (the
/// scheduler's own verifier) for every prepackaged workload.
#[test]
fn all_workloads_schedule_and_verify() {
    let core = cores::audio_core();
    for source in [
        apps::audio_application(),
        apps::fir(12),
        apps::biquad_cascade(4),
        apps::sum_of_products(9),
    ] {
        let compiled = Compiler::new(&core).restarts(2).compile(&source).unwrap();
        compiled
            .schedule
            .verify(&compiled.lowering.program, &compiled.deps)
            .unwrap();
    }
}

/// Microcode words decode back to exactly the operations the schedule
/// placed in each cycle.
#[test]
fn encoding_round_trips_the_schedule() {
    let core = cores::audio_core();
    let compiled = Compiler::new(&core)
        .restarts(2)
        .compile(&apps::fir(8))
        .unwrap();
    let program = compiled
        .assignment
        .registers
        .rewrite(&compiled.lowering.program);
    for (cycle, instr) in compiled.schedule.instructions() {
        let decoded = decode(
            &compiled.microcode.words[cycle as usize],
            &compiled.microcode.layout,
            core.format,
        )
        .unwrap();
        // Every scheduled RT's OPU appears among the decoded actions
        // (identical RTs share one field).
        for &rt_id in instr {
            let rt = program.rt(rt_id);
            let opu = decoded
                .actions
                .iter()
                .find(|a| rt.usage_of(&a.opu).is_some());
            assert!(
                opu.is_some(),
                "cycle {cycle}: RT `{}` has no decoded action",
                rt.name()
            );
        }
        // And no action without a scheduled RT.
        for action in &decoded.actions {
            assert!(
                instr
                    .iter()
                    .any(|&rt_id| program.rt(rt_id).usage_of(&action.opu).is_some()),
                "cycle {cycle}: spurious action on `{}`",
                action.opu
            );
        }
    }
}

/// Long-run differential test: 256 frames of the audio application,
/// generated code vs reference interpreter, all 8 ports.
#[test]
fn audio_application_long_run_differential() {
    let core = cores::audio_core();
    let compiled = Compiler::new(&core)
        .restarts(2)
        .compile(&apps::audio_application())
        .unwrap();
    let q15 = WordFormat::q15();
    let mut sim = compiled.simulator().unwrap();
    let mut reference = Interpreter::new(&compiled.dfg, q15);
    let mut state = 0x2545F4914F6CDD1Du64;
    for frame in 0..256 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let l = (state as i64 % 20000).clamp(-32768, 32767);
        let r = ((state >> 17) as i64 % 20000).clamp(-32768, 32767);
        assert_eq!(
            sim.step_frame(&[l, r]).unwrap(),
            reference.step(&[l, r]),
            "frame {frame} diverged"
        );
    }
}

/// The two schedulers (list+compaction vs exact B&B) agree on
/// functional behaviour for a small program.
#[test]
fn exact_and_heuristic_schedules_agree_functionally() {
    let core = cores::tiny_core();
    let src = apps::sum_of_products(4);
    let heuristic = Compiler::new(&core).compile(&src).unwrap();
    let exact = Compiler::new(&core)
        .budget(heuristic.cycles())
        .exact(true)
        .compile(&src)
        .unwrap();
    assert!(exact.cycles() <= heuristic.cycles());
    let mut sim_h = heuristic.simulator().unwrap();
    let mut sim_e = exact.simulator().unwrap();
    for x in [123i64, -456, 7890] {
        assert_eq!(
            sim_h.step_frame(&[x]).unwrap(),
            sim_e.step_frame(&[x]).unwrap()
        );
    }
}

/// Folding never reports an initiation interval below the resource bound
/// or above the flat schedule.
#[test]
fn folded_ii_is_bracketed() {
    let core = cores::audio_core();
    let compiled = Compiler::new(&core)
        .restarts(2)
        .compile(&apps::biquad_cascade(4))
        .unwrap();
    let bound = dspcc::sched::list::resource_lower_bound(&compiled.lowering.program);
    let folded = compiled.fold(4, 8).unwrap();
    assert!(folded.ii() >= bound);
    assert!(folded.ii() <= compiled.cycles());
}

/// Feasibility feedback: every failure mode surfaces as the right error.
#[test]
fn feasibility_feedback_paths() {
    use dspcc::CompileError;
    let tiny = cores::tiny_core();
    // Missing hardware.
    let err = Compiler::new(&tiny)
        .compile("input u; output y; y = pass(u@1);")
        .unwrap_err();
    assert!(matches!(err, CompileError::Lower(_)));
    // Budget too tight.
    let err = Compiler::new(&tiny)
        .budget(2)
        .compile(&apps::sum_of_products(6))
        .unwrap_err();
    assert!(matches!(err, CompileError::Schedule(_)));
    // Program memory too small (audio controller stores 128 words).
    let audio = cores::audio_core();
    let too_big = apps::fir(40);
    match Compiler::new(&audio).compile(&too_big) {
        Ok(c) => assert!(c.cycles() <= 128),
        Err(e) => assert!(
            matches!(
                e,
                CompileError::Schedule(_)
                    | CompileError::ProgramTooLong { .. }
                    | CompileError::Lower(_)
            ),
            "unexpected error {e}"
        ),
    }
}
