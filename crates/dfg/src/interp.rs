//! Reference interpreter: the golden model of time-loop semantics.
//!
//! Executes the signal-flow graph one frame at a time with the shared
//! fixed-point arithmetic of [`dspcc_num`], so generated code (run on the
//! cycle-accurate simulator) can be differential-tested against it
//! bit-exactly.

use std::collections::VecDeque;
use std::fmt;

use dspcc_num::WordFormat;

use crate::graph::{Dfg, DfgOp};

/// Invalid frame input handed to [`Interpreter::try_step`].
///
/// The same surface the cycle-accurate simulator checks
/// (`dspcc_sim::SimError::InputCount`): golden model and microcode
/// execution must agree not only on outputs but on *which inputs are
/// malformed* — the conformance fleet relies on that.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepError {
    /// Wrong number of input samples for a frame.
    InputCount {
        /// Samples provided.
        got: usize,
        /// Samples expected (one per DFG input port).
        expected: usize,
    },
    /// An input sample is not representable in the word format.
    InputOutOfRange {
        /// The input port.
        port: usize,
        /// The offending sample.
        value: i64,
    },
}

impl fmt::Display for StepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StepError::InputCount { got, expected } => {
                write!(f, "frame got {got} input samples, expected {expected}")
            }
            StepError::InputOutOfRange { port, value } => {
                write!(f, "input sample {value} on port {port} out of format range")
            }
        }
    }
}

impl std::error::Error for StepError {}

/// Frame-by-frame executor of a [`Dfg`].
///
/// # Example
///
/// ```
/// use dspcc_dfg::{parse, Dfg, Interpreter};
/// use dspcc_num::WordFormat;
///
/// let dfg = Dfg::build(&parse("input u; output y; y = add(u, u);")?)?;
/// let q15 = WordFormat::q15();
/// let mut interp = Interpreter::new(&dfg, q15);
/// assert_eq!(interp.step(&[100]), vec![200]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Interpreter<'a> {
    dfg: &'a Dfg,
    format: WordFormat,
    /// Per signal: history ring, front = previous frame (`@1`).
    history: Vec<VecDeque<i64>>,
    /// Scratch: per-node values of the current frame.
    values: Vec<i64>,
    frames_run: u64,
}

impl<'a> Interpreter<'a> {
    /// Creates an interpreter with all delay lines zero-initialised (the
    /// hardware reset state).
    pub fn new(dfg: &'a Dfg, format: WordFormat) -> Self {
        let history = dfg
            .signals()
            .iter()
            .map(|s| {
                let mut h = VecDeque::with_capacity(s.max_tap_depth as usize);
                h.extend(std::iter::repeat_n(0, s.max_tap_depth as usize));
                h
            })
            .collect();
        Interpreter {
            dfg,
            format,
            history,
            values: vec![0; dfg.nodes().len()],
            frames_run: 0,
        }
    }

    /// The word format in use.
    pub fn format(&self) -> WordFormat {
        self.format
    }

    /// Number of frames executed so far.
    pub fn frames_run(&self) -> u64 {
        self.frames_run
    }

    /// Executes one frame: consumes one sample per input port, returns one
    /// sample per output port (in port order).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the number of input ports or
    /// if an input sample is not representable in the word format — use
    /// [`Interpreter::try_step`] for the non-panicking variant.
    pub fn step(&mut self, inputs: &[i64]) -> Vec<i64> {
        match self.try_step(inputs) {
            Ok(outputs) => outputs,
            Err(StepError::InputCount { .. }) => {
                panic!("expected one sample per input port")
            }
            Err(StepError::InputOutOfRange { value, .. }) => {
                panic!("input sample {value} out of range for {}", self.format)
            }
        }
    }

    /// As [`Interpreter::step`], but malformed frames are reported as
    /// [`StepError`] instead of panicking — the golden model mirrors the
    /// simulator's own input validation, so differential drivers can treat
    /// a disagreement on *validity* exactly like a disagreement on values.
    ///
    /// # Errors
    ///
    /// [`StepError::InputCount`] on wrong arity,
    /// [`StepError::InputOutOfRange`] on unrepresentable samples; the
    /// interpreter state is untouched in both cases.
    pub fn try_step(&mut self, inputs: &[i64]) -> Result<Vec<i64>, StepError> {
        if inputs.len() != self.dfg.input_ports().len() {
            return Err(StepError::InputCount {
                got: inputs.len(),
                expected: self.dfg.input_ports().len(),
            });
        }
        if let Some((port, &value)) = inputs
            .iter()
            .enumerate()
            .find(|&(_, &x)| !self.format.contains(x))
        {
            return Err(StepError::InputOutOfRange { port, value });
        }
        let fmt = self.format;
        let mut outputs = vec![0; self.dfg.output_ports().len()];
        let mut signal_updates: Vec<Option<i64>> = vec![None; self.dfg.signals().len()];
        for (i, node) in self.dfg.nodes().iter().enumerate() {
            let arg = |k: usize| self.values[node.inputs[k].0 as usize];
            let v = match &node.op {
                DfgOp::Input { port } => inputs[*port],
                DfgOp::Tap { signal, depth } => self.history[*signal][(*depth - 1) as usize],
                DfgOp::Coeff { index } => fmt.from_f64(self.dfg.coeffs()[*index].1),
                DfgOp::ProgConst { value } => fmt.from_f64(*value),
                DfgOp::Mlt => fmt.mult(arg(0), arg(1)),
                DfgOp::Add => fmt.add(arg(0), arg(1)),
                DfgOp::AddClip => fmt.add_clip(arg(0), arg(1)),
                DfgOp::Sub => fmt.sub(arg(0), arg(1)),
                DfgOp::Pass => arg(0),
                DfgOp::PassClip => fmt.saturate(arg(0)),
                DfgOp::Output { port } => {
                    outputs[*port] = arg(0);
                    arg(0)
                }
                DfgOp::SignalWrite { signal } => {
                    signal_updates[*signal] = Some(arg(0));
                    arg(0)
                }
            };
            self.values[i] = v;
        }
        // Advance histories: the frame's value of each signal becomes @1.
        for (s, info) in self.dfg.signals().iter().enumerate() {
            if info.max_tap_depth == 0 {
                continue;
            }
            let current = if info.is_input {
                let port = self
                    .dfg
                    .input_ports()
                    .iter()
                    .position(|p| *p == info.name)
                    .expect("input signal has a port");
                inputs[port]
            } else {
                // Sema guarantees tapped signals are updated every frame.
                signal_updates[s].expect("tapped signal updated")
            };
            self.history[s].push_front(current);
            self.history[s].truncate(info.max_tap_depth as usize);
        }
        self.frames_run += 1;
        Ok(outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn build(src: &str) -> Dfg {
        Dfg::build(&parse(src).unwrap()).unwrap()
    }

    #[test]
    fn passthrough() {
        let dfg = build("input u; output y; y = pass(u);");
        let mut i = Interpreter::new(&dfg, WordFormat::q15());
        assert_eq!(i.step(&[123]), vec![123]);
        assert_eq!(i.step(&[-45]), vec![-45]);
        assert_eq!(i.frames_run(), 2);
    }

    #[test]
    fn unit_delay() {
        let dfg = build("input u; output y; y = pass(u@1);");
        let mut i = Interpreter::new(&dfg, WordFormat::q15());
        assert_eq!(i.step(&[10]), vec![0]); // reset state
        assert_eq!(i.step(&[20]), vec![10]);
        assert_eq!(i.step(&[30]), vec![20]);
    }

    #[test]
    fn two_frame_delay() {
        let dfg = build("input u; output y; y = pass(u@2);");
        let mut i = Interpreter::new(&dfg, WordFormat::q15());
        assert_eq!(i.step(&[1]), vec![0]);
        assert_eq!(i.step(&[2]), vec![0]);
        assert_eq!(i.step(&[3]), vec![1]);
        assert_eq!(i.step(&[4]), vec![2]);
    }

    #[test]
    fn feedback_accumulator() {
        // s = u + s@1 : running sum.
        let dfg = build("input u; signal s; output y; s = add(u, s@1); y = s;");
        let mut i = Interpreter::new(&dfg, WordFormat::q15());
        assert_eq!(i.step(&[5]), vec![5]);
        assert_eq!(i.step(&[7]), vec![12]);
        assert_eq!(i.step(&[1]), vec![13]);
    }

    #[test]
    fn coefficients_and_mult() {
        let q15 = WordFormat::q15();
        let dfg = build("input u; coeff k = 0.5; output y; y = mlt(k, u);");
        let mut i = Interpreter::new(&dfg, q15);
        let x = q15.from_f64(0.5);
        let y = i.step(&[x])[0];
        assert!((q15.to_f64(y) - 0.25).abs() < 1e-3);
    }

    #[test]
    fn clip_saturates() {
        let q15 = WordFormat::q15();
        let dfg = build("input u; output y; y = add_clip(u, u);");
        let mut i = Interpreter::new(&dfg, q15);
        assert_eq!(i.step(&[q15.max_value()]), vec![q15.max_value()]);
        // Plain add would wrap:
        let dfg2 = build("input u; output y; y = add(u, u);");
        let mut i2 = Interpreter::new(&dfg2, q15);
        assert_eq!(i2.step(&[q15.max_value()]), vec![-2]);
    }

    #[test]
    fn treble_section_runs() {
        let q15 = WordFormat::q15();
        let dfg = build(
            "input u; signal v; output y;
             coeff d1 = 0.25; coeff d2 = 0.125; coeff e1 = -0.5;
             x0 := u@2;
             m  := mlt(d2, x0);
             a  := pass(m);
             x2 := v@1;
             m  := mlt(e1, x2);
             a  := add(m, a);
             x1 := u@1;
             m  := mlt(d1, x1);
             rd := add_clip(m, a);
             v  = rd;
             y  = rd;",
        );
        let mut i = Interpreter::new(&dfg, q15);
        let one = q15.from_f64(0.9);
        // Impulse response: first frame all taps zero → output 0.
        assert_eq!(i.step(&[one]), vec![0]);
        // Second frame: u@1 = impulse → y = d1 * impulse.
        let y1 = i.step(&[0])[0];
        assert!((q15.to_f64(y1) - 0.25 * 0.9).abs() < 1e-3);
        // Third frame: u@2 = impulse, v@1 = y1 → d2*0.9 + e1*y1.
        let y2 = i.step(&[0])[0];
        let expected = 0.125 * 0.9 + (-0.5) * (0.25 * 0.9);
        assert!((q15.to_f64(y2) - expected).abs() < 1e-3, "{y2}");
    }

    #[test]
    fn multiple_outputs_in_port_order() {
        let dfg = build("input u; output a; output b; b = pass(u); a = add(u, u);");
        let mut i = Interpreter::new(&dfg, WordFormat::q15());
        // Port order is declaration order (a, b), not statement order.
        assert_eq!(i.step(&[3]), vec![6, 3]);
    }

    #[test]
    #[should_panic(expected = "one sample per input port")]
    fn wrong_input_count_panics() {
        let dfg = build("input u; output y; y = pass(u);");
        Interpreter::new(&dfg, WordFormat::q15()).step(&[]);
    }

    #[test]
    fn try_step_reports_arity_and_range_errors() {
        let dfg = build("input u; input v; output y; y = add(u, v);");
        let mut i = Interpreter::new(&dfg, WordFormat::q15());
        assert_eq!(
            i.try_step(&[1]),
            Err(StepError::InputCount {
                got: 1,
                expected: 2
            })
        );
        assert_eq!(
            i.try_step(&[1, 2, 3]),
            Err(StepError::InputCount {
                got: 3,
                expected: 2
            })
        );
        assert_eq!(
            i.try_step(&[1, 1 << 20]),
            Err(StepError::InputOutOfRange {
                port: 1,
                value: 1 << 20
            })
        );
        // Errors leave the state untouched: no frame was consumed...
        assert_eq!(i.frames_run(), 0);
        // ...and a well-formed frame still works.
        assert_eq!(i.try_step(&[3, 4]), Ok(vec![7]));
        assert_eq!(i.frames_run(), 1);
        // Display strings name the numbers.
        let e = StepError::InputCount {
            got: 1,
            expected: 2,
        };
        assert!(e.to_string().contains("got 1"));
        assert!(StepError::InputOutOfRange { port: 0, value: 9 }
            .to_string()
            .contains("port 0"));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_input_panics() {
        let dfg = build("input u; output y; y = pass(u);");
        Interpreter::new(&dfg, WordFormat::q15()).step(&[1 << 20]);
    }
}
