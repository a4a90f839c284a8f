//! Per-stage timing for the audio-application compile.
//!
//! Prints the [`dspcc::CompileStats`] profile (parse / sema / lower /
//! modify / deps / matrix / schedule / regalloc / encode) alongside the
//! end-to-end wall time, then a warm-session reuse demonstration (the
//! `cache_hits` counter). Run in CI's bench-smoke job so the stats path
//! is exercised on every push.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dspcc::{apps, cores, CompileOptions, CompileSession, CompileStats, Compiler};

fn main() {
    let core = cores::audio_core();
    let src = apps::audio_application();
    for restarts in [1u32, 2, 6] {
        let n = 5u32;
        let mut acc = CompileStats::default();
        let t = Instant::now();
        for _ in 0..n {
            let compiled = Compiler::new(&core)
                .restarts(restarts)
                .compile(&src)
                .unwrap();
            let s = compiled.stats;
            acc.parse += s.parse;
            acc.sema += s.sema;
            acc.lower += s.lower;
            acc.modify += s.modify;
            acc.deps += s.deps;
            acc.matrix += s.matrix;
            acc.schedule += s.schedule;
            acc.regalloc += s.regalloc;
            acc.encode += s.encode;
        }
        let wall = t.elapsed() / n;
        println!("compile restarts={restarts}: {wall:?}/iter");
        let per = |d: Duration| d / n;
        println!(
            "  stages: parse {:?} | sema {:?} | lower {:?} | modify {:?} | deps {:?} | \
             matrix {:?} | schedule {:?} | regalloc {:?} | encode {:?}",
            per(acc.parse),
            per(acc.sema),
            per(acc.lower),
            per(acc.modify),
            per(acc.deps),
            per(acc.matrix),
            per(acc.schedule),
            per(acc.regalloc),
            per(acc.encode),
        );
    }

    // Warm-session reuse: the design-iteration loop re-schedules under
    // shrinking budgets; everything up to the conflict matrix is served
    // from the session's artifact cache (cache_hits = 4 per re-compile).
    let session = CompileSession::new();
    let shared_core = Arc::new(core);
    let cold_opts = CompileOptions {
        restarts: 1,
        ..CompileOptions::default()
    };
    let t = Instant::now();
    let cold = session.compile(&shared_core, &src, &cold_opts).unwrap();
    println!(
        "session cold : {:?} (cache hits {})",
        t.elapsed(),
        cold.stats.cache_hits
    );
    for budget in [cold.cycles() + 16, cold.cycles() + 8, cold.cycles()] {
        let opts = CompileOptions {
            budget: Some(budget),
            restarts: 1,
            ..CompileOptions::default()
        };
        let t = Instant::now();
        let warm = session.compile(&shared_core, &src, &opts).unwrap();
        println!(
            "session warm : {:?} re-schedule at budget {budget} (cache hits {})",
            t.elapsed(),
            warm.stats.cache_hits,
        );
    }
}
