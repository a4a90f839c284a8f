//! Fuel, cancellation, and panic-containment properties.
//!
//! The fuel budget is deterministic work units — attempts,
//! justification passes, branch-and-bound nodes — never wall-clock, so
//! the same `(source, core, options)` triple must produce bit-identical
//! microcode on any machine, on any day.
//! Exhaustion degrades gracefully (best-so-far schedule plus a
//! [`dspcc::sched::Degradation`] report); cancellation aborts cleanly
//! without poisoning the session; hand-forged microcode surfaces as
//! typed errors instead of panics.

use dspcc::encode::{decode, EncodeError};
use dspcc::sched::{CancelToken, SchedError};
use dspcc::sim::{CoreSim, SimError};
use dspcc::{apps, cores, CompileError, CompileOptions, CompileSession};

/// Fuel-truncated compiles are deterministic: fuel is charged to the
/// search structure, never to wall-clock, so two fresh sessions under the
/// same fuel produce bit-identical microcode.
#[test]
fn same_fuel_same_microcode_across_fresh_sessions() {
    let core = std::sync::Arc::new(cores::audio_core());
    for fuel in [1, 3, 10_000] {
        let options = CompileOptions {
            restarts: 6,
            compaction: true,
            fuel: Some(fuel),
            ..CompileOptions::default()
        };
        // A fresh session per compile: no cache reuse between the two.
        let words = || {
            CompileSession::new()
                .compile(&core, &apps::fir(8), &options)
                .expect("fir8 compiles under any fuel")
                .microcode
                .words
                .clone()
        };
        assert_eq!(words(), words(), "fuel {fuel}: microcode differs");
    }
}

/// More fuel never hurts: along an increasing fuel ladder the schedule
/// length is monotonically non-increasing, and the unlimited compile
/// carries no degradation report.
#[test]
fn fuel_ladder_is_monotone() {
    let core = std::sync::Arc::new(cores::audio_core());
    let session = CompileSession::new();
    let mut prev = u32::MAX;
    for fuel in [Some(1), Some(2), Some(8), Some(64), None] {
        let options = CompileOptions {
            restarts: 6,
            compaction: true,
            fuel,
            ..CompileOptions::default()
        };
        let compiled = session.compile(&core, &apps::fir(8), &options).unwrap();
        let len = compiled.schedule.length();
        assert!(
            len <= prev,
            "fuel {fuel:?} produced a longer schedule ({len} > {prev})"
        );
        prev = len;
        if fuel.is_none() {
            assert!(
                compiled.stats.degradation.is_none(),
                "unlimited compile reported degradation: {:?}",
                compiled.stats.degradation
            );
        }
    }
}

/// A degraded (fuel-truncated) artifact is never served from cache to a
/// full-budget request: fuel is part of the schedule-stage key whenever
/// it can change the result.
#[test]
fn degraded_artifact_not_cached_under_full_budget() {
    let core = std::sync::Arc::new(cores::audio_core());
    let session = CompileSession::new();
    let starved = CompileOptions {
        restarts: 8,
        compaction: true,
        fuel: Some(1),
        ..CompileOptions::default()
    };
    let first = session
        .compile(&core, &apps::biquad_cascade(3), &starved)
        .unwrap();
    assert!(
        first.stats.degradation.is_some(),
        "fuel 1 with 8 restarts on biquad3 should truncate the search"
    );
    // Same session, full budget: must re-run the search, not reuse the
    // truncated schedule.
    let full = CompileOptions {
        fuel: None,
        ..starved.clone()
    };
    let second = session
        .compile(&core, &apps::biquad_cascade(3), &full)
        .unwrap();
    assert!(
        second.stats.degradation.is_none(),
        "full-budget compile served a degraded cached schedule"
    );
    // And the starved request itself *is* cached: repeating it hits the
    // schedule stage and reproduces the degradation verbatim.
    let third = session
        .compile(&core, &apps::biquad_cascade(3), &starved)
        .unwrap();
    assert_eq!(first.stats.degradation, third.stats.degradation);
    assert_eq!(first.microcode.words, third.microcode.words);
    assert!(
        third.stats.cache_hits > first.stats.cache_hits,
        "repeat compile did not hit the cache"
    );
}

/// A raised [`CancelToken`] aborts the compile with
/// [`CompileError::Cancelled`] and leaves the session reusable — no
/// poisoned locks, no partially-cached artifacts.
#[test]
fn cancellation_does_not_poison_the_session() {
    let core = std::sync::Arc::new(cores::audio_core());
    let session = CompileSession::new();
    let token = CancelToken::new();
    token.cancel();
    let err = session
        .compile_cancellable(
            &core,
            &apps::biquad_cascade(3),
            &CompileOptions::default(),
            &token,
        )
        .expect_err("raised token must abort the compile");
    assert!(
        matches!(err, CompileError::Cancelled),
        "expected Cancelled, got {err}"
    );
    // The same session still compiles the same source cleanly…
    let compiled = session
        .compile(&core, &apps::biquad_cascade(3), &CompileOptions::default())
        .expect("session poisoned by cancellation");
    // …and a fresh token that is never raised does not interfere.
    let calm = CancelToken::new();
    let again = session
        .compile_cancellable(
            &core,
            &apps::biquad_cascade(3),
            &CompileOptions::default(),
            &calm,
        )
        .unwrap();
    assert_eq!(compiled.microcode.words, again.microcode.words);
}

/// Starving the compaction search below its budget floor surfaces as
/// [`SchedError::FuelExhausted`] — a typed verdict that names the spent
/// fuel, not a panic and not a bare budget error.
#[test]
fn starved_budget_reports_fuel_exhausted() {
    let core = std::sync::Arc::new(cores::audio_core());
    let session = CompileSession::new();
    let options = CompileOptions {
        restarts: 4,
        compaction: true,
        fuel: Some(1),
        budget: Some(1), // biquad3 cannot schedule in one cycle
        ..CompileOptions::default()
    };
    let err = session
        .compile(&core, &apps::biquad_cascade(3), &options)
        .expect_err("1-cycle budget must fail");
    match err {
        CompileError::Schedule(SchedError::FuelExhausted { spent, budget }) => {
            assert!(spent >= 1, "exhaustion must charge at least one unit");
            assert_eq!(budget, 1);
        }
        other => panic!("expected FuelExhausted, got {other}"),
    }
}

/// Corrupted microcode decodes to a typed [`EncodeError::BadOpcode`] —
/// a user-input-reachable path that used to panic.
#[test]
fn corrupt_opcode_is_a_typed_decode_error() {
    let core = std::sync::Arc::new(cores::audio_core());
    let session = CompileSession::new();
    let compiled = session
        .compile(&core, &apps::fir(8), &CompileOptions::default())
        .unwrap();
    let mc = &compiled.microcode;
    // The audio core's RAM field has a 2-bit opcode with ops
    // {read, write}: encoding 3 addresses past the table.
    let field = mc
        .layout
        .fields()
        .iter()
        .find(|f| f.opcode_bits >= 2 && f.ops.len() < (1 << f.opcode_bits) - 1)
        .expect("audio core has a sparse opcode field");
    let mut word = mc.words[0].clone();
    let bad = (field.ops.len() + 1) as u64;
    word.set_bits(field.opcode_offset, field.opcode_bits, bad);
    match decode(&word, &mc.layout, mc.word_format) {
        Err(EncodeError::BadOpcode { opu, opcode }) => {
            assert_eq!(opu, field.opu);
            assert_eq!(opcode, bad);
        }
        other => panic!("expected BadOpcode, got {other:?}"),
    }
    // The simulator refuses the same corruption as a typed BadWord at
    // construction instead of panicking mid-run.
    let mut corrupted = (**mc).clone();
    corrupted.words[0] = word;
    match CoreSim::new(&core.datapath, &corrupted) {
        Err(SimError::BadWord { cycle, .. }) => assert_eq!(cycle, 0),
        other => panic!("expected BadWord, got {:?}", other.err()),
    }
}

/// Microcode referencing a register past its file's size is refused
/// with [`SimError::RegisterOutOfRange`] at simulator construction.
#[test]
fn out_of_range_register_is_a_typed_sim_error() {
    let core = std::sync::Arc::new(cores::audio_core());
    let session = CompileSession::new();
    let compiled = session
        .compile(&core, &apps::fir(8), &CompileOptions::default())
        .unwrap();
    let mc = &compiled.microcode;
    // rf_mult_c has 12 registers behind a 4-bit operand field: index 15
    // decodes fine but addresses past the file.
    let field = mc
        .layout
        .fields()
        .iter()
        .find(|f| f.opu == "mult")
        .expect("audio core has a multiplier field");
    let operand = &field.operands[0];
    let size = core
        .datapath
        .register_files()
        .iter()
        .find(|r| r.name() == operand.rf)
        .unwrap()
        .size();
    let max = (1u64 << operand.bits) - 1;
    assert!(max >= u64::from(size), "field cannot express an OOR index");
    let mut corrupted = (**mc).clone();
    corrupted.words[0].set_bits(field.opcode_offset, field.opcode_bits, 1);
    corrupted.words[0].set_bits(operand.offset, operand.bits, max);
    match CoreSim::new(&core.datapath, &corrupted) {
        Err(SimError::RegisterOutOfRange { rf, index }) => {
            assert_eq!(rf, operand.rf);
            assert_eq!(u64::from(index), max);
        }
        other => panic!("expected RegisterOutOfRange, got {:?}", other.err()),
    }
}
