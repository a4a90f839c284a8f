//! Offline stand-in for the [`criterion`](https://docs.rs/criterion) crate.
//!
//! The build environment for this repository has no access to crates.io, so
//! this shim implements the (small) subset of the criterion API used by the
//! `dspcc-bench` benches: `Criterion`, benchmark groups, `Bencher::iter`,
//! `BenchmarkId`, and the `criterion_group!`/`criterion_main!` macros.
//!
//! Measurement model: each `Bencher::iter` call calibrates the number of
//! iterations per sample to roughly [`SAMPLE_TARGET_NS`], collects
//! `sample_size` samples, and reports the **median** per-iteration time in
//! nanoseconds. Results are printed to stdout only: nothing is recorded,
//! so compare medians of two builds on one machine, over several
//! alternated runs of each: one run per side does not resolve a 25% move
//! (DESIGN.md, "Benchmarks").
//!
//! Command-line: any non-flag argument is a substring filter on benchmark
//! names (flags such as `--bench` passed by cargo are ignored). With
//! `--test`, every routine runs exactly once and nothing is measured.

use std::fmt;
use std::time::{Duration, Instant};

/// Per-sample measurement budget the calibrator aims for.
const SAMPLE_TARGET_NS: f64 = 5_000_000.0;

/// Returns its argument, opaque to the optimizer.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Benchmark identifier: a function name plus a display-formatted parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    text: String,
}

impl BenchmarkId {
    /// `BenchmarkId::new("greedy_random", 128)` → `greedy_random/128`.
    pub fn new(function_name: impl Into<String>, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            text: format!("{}/{}", function_name.into(), parameter),
        }
    }
}

/// Anything accepted as a benchmark name: `&str` or [`BenchmarkId`].
pub trait IntoBenchmarkId {
    /// The rendered benchmark name.
    fn into_benchmark_id(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_benchmark_id(self) -> String {
        self.text
    }
}

impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> String {
        self.to_owned()
    }
}

/// Timing loop handle passed to benchmark closures.
pub struct Bencher {
    samples: Vec<f64>,
    sample_size: usize,
    test_mode: bool,
}

impl Bencher {
    /// Measures `routine`, storing per-iteration nanosecond samples.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        if self.test_mode {
            black_box(routine());
            return;
        }
        // Calibrate: double the batch size until one batch is long enough
        // to time reliably, then derive iterations-per-sample.
        let mut iters: u64 = 1;
        let per_iter_ns = loop {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            let dt = start.elapsed();
            if dt >= Duration::from_millis(2) || iters >= 1 << 30 {
                break dt.as_nanos() as f64 / iters as f64;
            }
            iters = iters.saturating_mul(4);
        };
        let per_sample = ((SAMPLE_TARGET_NS / per_iter_ns).ceil() as u64).max(1);
        // Very slow routines get fewer samples to bound total run time.
        let samples = if per_iter_ns > 50_000_000.0 {
            self.sample_size.min(5)
        } else {
            self.sample_size
        };
        for _ in 0..samples.max(3) {
            let start = Instant::now();
            for _ in 0..per_sample {
                black_box(routine());
            }
            let dt = start.elapsed();
            self.samples.push(dt.as_nanos() as f64 / per_sample as f64);
        }
    }
}

/// Top-level harness state: name filter and report sink.
pub struct Criterion {
    filter: Option<String>,
    test_mode: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        let mut filter = None;
        let mut test_mode = false;
        for arg in std::env::args().skip(1) {
            if arg == "--test" {
                test_mode = true;
            } else if !arg.starts_with('-') {
                filter = Some(arg);
            }
        }
        Criterion { filter, test_mode }
    }
}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 20,
        }
    }
}

/// A group of related benchmarks sharing a name prefix and sample size.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of samples collected per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(3);
        self
    }

    /// Benchmarks `f` under `group/id`.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let name = format!("{}/{}", self.name, id.into_benchmark_id());
        run_one(self.criterion, &name, self.sample_size, f);
        self
    }

    /// Benchmarks `f` with an input value under `group/id`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let name = format!("{}/{}", self.name, id.into_benchmark_id());
        run_one(self.criterion, &name, self.sample_size, |b| f(b, input));
        self
    }

    /// Ends the group (no-op; provided for API compatibility).
    pub fn finish(self) {}
}

fn run_one<F: FnMut(&mut Bencher)>(
    criterion: &Criterion,
    name: &str,
    sample_size: usize,
    mut f: F,
) {
    if let Some(filter) = &criterion.filter {
        if !name.contains(filter.as_str()) {
            return;
        }
    }
    let mut bencher = Bencher {
        samples: Vec::new(),
        sample_size,
        test_mode: criterion.test_mode,
    };
    f(&mut bencher);
    if criterion.test_mode {
        println!("{name}: ok (test mode)");
        return;
    }
    if bencher.samples.is_empty() {
        return;
    }
    bencher
        .samples
        .sort_by(|a, b| a.partial_cmp(b).expect("sample times are finite"));
    let median = bencher.samples[bencher.samples.len() / 2];
    println!(
        "{name:<56} median {:>14} ns/iter ({} samples)",
        format_ns(median),
        bencher.samples.len()
    );
}

fn format_ns(ns: f64) -> String {
    if ns >= 1000.0 {
        format!("{ns:.0}")
    } else {
        format!("{ns:.1}")
    }
}

/// Bundles benchmark functions into one group function, criterion-style.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Generates `fn main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}
