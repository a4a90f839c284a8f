//! Seeded input draws: the core set, the application family and the
//! per-operation (core, app) stream shared by the workloads.

use std::sync::Arc;

use dspcc::arch::SplitMix64;
use dspcc::{apps, cores, Core};

use crate::common::in_span;
use crate::trace::Tracer;

/// Generated cores in the draw: a fixed seed window, built in set-up.
pub const GENERATED_SEEDS: std::ops::Range<u64> = 0..8;

/// The audio core is index 0, the generated cores follow in seed order.
pub fn build_cores(mut tracer: Option<&mut Tracer>) -> Vec<Arc<Core>> {
    let mut out = vec![Arc::new(cores::audio_core())];
    for seed in GENERATED_SEEDS {
        let core = in_span(&mut tracer, "arch.generate", 1, || {
            cores::generated_core(seed)
        });
        out.push(Arc::new(core));
    }
    out
}

/// The scalable families with their size ranges `(family, smallest,
/// largest)`; the caps keep infeasibility verdicts to a minority on the
/// generated cores.
pub const SIZES: [(Family, u32, u32); 4] = [
    (Family::Fir, 2, 10),
    (Family::Biquad, 1, 5),
    (Family::SumOfProducts, 2, 10),
    (Family::AddTree, 2, 6),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Family {
    Fir,
    Biquad,
    SumOfProducts,
    AddTree,
    Audio,
}

/// An application of the parametric family. `variant` > 0 perturbs its
/// constants so the source (and its graph) has never been seen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct App {
    pub family: Family,
    pub size: usize,
    pub variant: u64,
}

impl App {
    pub fn audio() -> App {
        App {
            family: Family::Audio,
            size: 0,
            variant: 0,
        }
    }

    /// A size-capped draw from the four scalable families.
    pub fn draw(rng: &mut SplitMix64) -> App {
        let (family, lo, hi) = *rng.pick(&SIZES);
        App {
            family,
            size: rng.range(lo, hi) as usize,
            variant: 0,
        }
    }

    pub fn with_variant(self, variant: u64) -> App {
        App { variant, ..self }
    }

    pub fn name(&self) -> String {
        let base = match self.family {
            Family::Fir => format!("fir{}", self.size),
            Family::Biquad => format!("biquad{}", self.size),
            Family::SumOfProducts => format!("sop{}", self.size),
            Family::AddTree => format!("addtree{}", self.size),
            Family::Audio => "audio".to_owned(),
        };
        match self.variant {
            0 => base,
            v => format!("{base}~{v}"),
        }
    }

    pub fn source(&self) -> String {
        let src = match self.family {
            Family::Fir => apps::fir(self.size),
            Family::Biquad => apps::biquad_cascade(self.size),
            Family::SumOfProducts => apps::sum_of_products(self.size),
            Family::AddTree => apps::add_tree(self.size),
            Family::Audio => apps::audio_application(),
        };
        if self.variant == 0 {
            src
        } else {
            perturb_constants(&src, self.variant)
        }
    }
}

/// Largest shift of one constant, in millionths: small enough to keep
/// every generated constant in range.
const SHIFT_RADIX: u64 = 50_000;

/// Writes `variant` in base `SHIFT_RADIX` over the `coeff`/`const` values,
/// least significant digit first, shifting each by its digit in
/// millionths: distinct variants give distinct graphs (their content
/// fingerprints differ) of the same shape. Every app in the draw has at
/// least two constants, which covers variants below 2.5e9.
fn perturb_constants(src: &str, variant: u64) -> String {
    let mut out = String::with_capacity(src.len() + 8);
    let mut rest = variant;
    for line in src.lines() {
        let is_constant = line.starts_with("coeff ") || line.starts_with("const ");
        match (rest > 0 && is_constant, line.split_once(" = ")) {
            (true, Some((head, tail))) => {
                let value: f64 = tail
                    .trim_end_matches(';')
                    .parse()
                    .expect("generated constants are plain decimals");
                let shifted = value - (rest % SHIFT_RADIX) as f64 * 1e-6;
                out.push_str(&format!("{head} = {shifted:.6};\n"));
                rest /= SHIFT_RADIX;
            }
            _ => {
                out.push_str(line);
                out.push('\n');
            }
        }
    }
    assert_eq!(rest, 0, "variant {variant} needs more constants");
    out
}

/// The seeded (core, app) stream: operation `i` with `i % stratum == 0`
/// is the audio application on the audio core, so the heavy tail has a
/// fixed share; every other one is a uniform core with a drawn
/// application.
#[derive(Debug, Clone)]
pub struct PairStream {
    rng: SplitMix64,
    core_count: u32,
    stratum: u64,
    next: u64,
}

impl PairStream {
    pub fn new(seed: u64, stream: u64, core_count: usize, stratum: u64) -> Self {
        PairStream {
            rng: SplitMix64::substream(seed, stream),
            core_count: core_count as u32,
            stratum,
            next: 0,
        }
    }

    /// Next `(core index, app)`.
    pub fn next_pair(&mut self) -> (usize, App) {
        let i = self.next;
        self.next += 1;
        if i.is_multiple_of(self.stratum) {
            return (0, App::audio());
        }
        let core = self.rng.range(0, self.core_count - 1) as usize;
        (core, App::draw(&mut self.rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distinct variants are distinct graphs, also across a wrap of the
    /// first constant's shift.
    #[test]
    fn perturbed_source_is_a_new_graph() {
        use dspcc::stages::run_frontend;
        for app in [
            App {
                family: Family::Fir,
                size: 4,
                variant: 0,
            },
            App {
                family: Family::AddTree,
                size: 3,
                variant: 0,
            },
            App {
                family: Family::Biquad,
                size: 1,
                variant: 0,
            },
            App::audio(),
        ] {
            let fp = |v: u64| run_frontend(&app.with_variant(v).source()).unwrap();
            let a = fp(0);
            let b = fp(1);
            assert_ne!(a.dfg_fp, b.dfg_fp, "{}", app.name());
            assert_ne!(b.dfg_fp, fp(2).dfg_fp, "{}", app.name());
            assert_ne!(a.dfg_fp, fp(SHIFT_RADIX).dfg_fp, "{}", app.name());
            assert_ne!(b.dfg_fp, fp(SHIFT_RADIX + 1).dfg_fp, "{}", app.name());
            assert_eq!(a.dfg.census().mults, b.dfg.census().mults);
        }
    }

    #[test]
    fn pair_stream_is_seeded_and_stratified() {
        let mut a = PairStream::new(5, 1, 9, 16);
        let mut b = PairStream::new(5, 1, 9, 16);
        for i in 0..64 {
            let (pa, pb) = (a.next_pair(), b.next_pair());
            assert_eq!(pa, pb);
            assert_eq!(i % 16 == 0, pa == (0, App::audio()));
        }
    }
}
