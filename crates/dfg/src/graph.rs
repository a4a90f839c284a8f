//! The signal-flow graph (SFG / data-flow graph) built from the AST.
//!
//! One node per operation *use* — coefficients and taps are not shared
//! between consumers, because each consumer needs its own ROM fetch or RAM
//! read RT; common-subexpression sharing happens, if at all, at the
//! scheduler level when two identical RTs land in the same cycle.

use std::fmt;
use std::hash::Hasher;

/// Identifier of a node in a [`Dfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Node operation kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum DfgOp {
    /// Current-frame sample from input port `port`.
    Input {
        /// Index into [`Dfg::input_ports`].
        port: usize,
    },
    /// Value of signal `signal`, `depth` frames ago (`depth ≥ 1`).
    Tap {
        /// Index into [`Dfg::signals`].
        signal: usize,
        /// Frames of delay.
        depth: u32,
    },
    /// Coefficient from the ROM.
    Coeff {
        /// Index into [`Dfg::coeffs`].
        index: usize,
    },
    /// Immediate constant from the program word.
    ProgConst {
        /// The constant's real value.
        value: f64,
    },
    /// Q-format multiply (2 inputs).
    Mlt,
    /// Wrapping add (2 inputs).
    Add,
    /// Saturating add (2 inputs).
    AddClip,
    /// Wrapping subtract (2 inputs).
    Sub,
    /// Identity (1 input).
    Pass,
    /// Saturating identity (1 input).
    PassClip,
    /// Emit to output port `port` (1 input).
    Output {
        /// Index into [`Dfg::output_ports`].
        port: usize,
    },
    /// Update signal `signal` for this frame (1 input).
    SignalWrite {
        /// Index into [`Dfg::signals`].
        signal: usize,
    },
}

impl DfgOp {
    /// Expected number of value inputs.
    pub fn arity(&self) -> usize {
        match self {
            DfgOp::Input { .. }
            | DfgOp::Tap { .. }
            | DfgOp::Coeff { .. }
            | DfgOp::ProgConst { .. } => 0,
            DfgOp::Pass | DfgOp::PassClip | DfgOp::Output { .. } | DfgOp::SignalWrite { .. } => 1,
            DfgOp::Mlt | DfgOp::Add | DfgOp::AddClip | DfgOp::Sub => 2,
        }
    }
}

/// A node: operation plus value inputs (node ids strictly smaller than the
/// node's own id, so node order is a topological order).
#[derive(Debug, Clone, PartialEq)]
pub struct DfgNode {
    /// The operation.
    pub op: DfgOp,
    /// Inputs in operand order.
    pub inputs: Vec<NodeId>,
    /// Diagnostic name (the assigned variable, where there is one).
    pub name: String,
}

/// A persistent signal: a declared `signal`, or an input stream whose
/// history is tapped.
#[derive(Debug, Clone, PartialEq)]
pub struct SignalInfo {
    /// Source-level name.
    pub name: String,
    /// Deepest tap (`name@k`) in the program; 0 when never tapped.
    pub max_tap_depth: u32,
    /// Whether the signal is an input stream (written by sampling, not by
    /// an update statement).
    pub is_input: bool,
}

/// The signal-flow graph of one time-loop body.
///
/// Nodes are stored in evaluation (topological) order. Build one with
/// [`Dfg::build`] from a parsed [`crate::ast::SourceProgram`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dfg {
    pub(crate) nodes: Vec<DfgNode>,
    pub(crate) input_ports: Vec<String>,
    pub(crate) output_ports: Vec<String>,
    pub(crate) signals: Vec<SignalInfo>,
    pub(crate) coeffs: Vec<(String, f64)>,
}

impl Dfg {
    /// Nodes in evaluation order.
    pub fn nodes(&self) -> &[DfgNode] {
        &self.nodes
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn node(&self, id: NodeId) -> &DfgNode {
        &self.nodes[id.0 as usize]
    }

    /// Input port names in port order.
    pub fn input_ports(&self) -> &[String] {
        &self.input_ports
    }

    /// Output port names in port order.
    pub fn output_ports(&self) -> &[String] {
        &self.output_ports
    }

    /// Persistent signals (inputs included).
    pub fn signals(&self) -> &[SignalInfo] {
        &self.signals
    }

    /// ROM coefficients as `(name, value)` in ROM order.
    pub fn coeffs(&self) -> &[(String, f64)] {
        &self.coeffs
    }

    /// Ids of all nodes, in evaluation order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Counts nodes matching `pred` — used for resource-mix reports.
    pub fn count_ops(&self, mut pred: impl FnMut(&DfgOp) -> bool) -> usize {
        self.nodes.iter().filter(|n| pred(&n.op)).count()
    }

    /// A per-kind operation census: (multiplies, alu ops, taps, signal
    /// writes, coefficient fetches, program constants, inputs, outputs).
    ///
    /// The paper's section 7 sizes the audio application by exactly this
    /// mix ("the number of additions, RAM accesses and multiplications form
    /// the bottlenecks").
    pub fn census(&self) -> OpCensus {
        OpCensus {
            mults: self.count_ops(|o| matches!(o, DfgOp::Mlt)),
            alu_ops: self.count_ops(|o| {
                matches!(
                    o,
                    DfgOp::Add | DfgOp::AddClip | DfgOp::Sub | DfgOp::Pass | DfgOp::PassClip
                )
            }),
            taps: self.count_ops(|o| matches!(o, DfgOp::Tap { .. })),
            signal_writes: self.count_ops(|o| matches!(o, DfgOp::SignalWrite { .. })),
            coeff_fetches: self.count_ops(|o| matches!(o, DfgOp::Coeff { .. })),
            prog_consts: self.count_ops(|o| matches!(o, DfgOp::ProgConst { .. })),
            inputs: self.count_ops(|o| matches!(o, DfgOp::Input { .. })),
            outputs: self.count_ops(|o| matches!(o, DfgOp::Output { .. })),
        }
    }
}

impl Dfg {
    /// Feeds every field of the graph into `h`: each node's operation,
    /// inputs and name, both port lists, the signals and the
    /// coefficients, with `f64` values as their bits (so `0.0` and `-0.0`
    /// differ) and every variable-length field length-prefixed. Integers
    /// go in as `u64`s, never `usize`, so a hasher with a fixed byte
    /// order gives the same value on every platform. The compile session
    /// keys RT generation on this; node and signal names are part of the
    /// key because RT names are built from them.
    pub fn hash_content(&self, h: &mut impl Hasher) {
        // Exhaustive destructuring: a new field does not compile until it
        // is hashed here.
        let Dfg {
            nodes,
            input_ports,
            output_ports,
            signals,
            coeffs,
        } = self;
        h.write_u64(nodes.len() as u64);
        for DfgNode { op, inputs, name } in nodes {
            let (tag, a, b) = match *op {
                DfgOp::Input { port } => (0, port as u64, 0),
                DfgOp::Tap { signal, depth } => (1, signal as u64, u64::from(depth)),
                DfgOp::Coeff { index } => (2, index as u64, 0),
                DfgOp::ProgConst { value } => (3, value.to_bits(), 0),
                DfgOp::Mlt => (4, 0, 0),
                DfgOp::Add => (5, 0, 0),
                DfgOp::AddClip => (6, 0, 0),
                DfgOp::Sub => (7, 0, 0),
                DfgOp::Pass => (8, 0, 0),
                DfgOp::PassClip => (9, 0, 0),
                DfgOp::Output { port } => (10, port as u64, 0),
                DfgOp::SignalWrite { signal } => (11, signal as u64, 0),
            };
            h.write_u8(tag);
            h.write_u64(a);
            h.write_u64(b);
            h.write_u64(inputs.len() as u64);
            for &NodeId(input) in inputs {
                h.write_u64(u64::from(input));
            }
            text(h, name);
        }
        for ports in [input_ports, output_ports] {
            h.write_u64(ports.len() as u64);
            for port in ports {
                text(h, port);
            }
        }
        h.write_u64(signals.len() as u64);
        for SignalInfo {
            name,
            max_tap_depth,
            is_input,
        } in signals
        {
            text(h, name);
            h.write_u64(u64::from(*max_tap_depth));
            h.write_u8(u8::from(*is_input));
        }
        h.write_u64(coeffs.len() as u64);
        for (name, value) in coeffs {
            text(h, name);
            h.write_u64(value.to_bits());
        }
    }
}

fn text(h: &mut impl Hasher, s: &str) {
    h.write_u64(s.len() as u64);
    h.write(s.as_bytes());
}

/// Operation counts of a [`Dfg`] (see [`Dfg::census`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCensus {
    /// `mlt` nodes.
    pub mults: usize,
    /// `add`/`add_clip`/`sub`/`pass`/`pass_clip` nodes.
    pub alu_ops: usize,
    /// History taps (RAM reads).
    pub taps: usize,
    /// Signal updates (RAM writes).
    pub signal_writes: usize,
    /// Coefficient fetches (ROM reads).
    pub coeff_fetches: usize,
    /// Program constants.
    pub prog_consts: usize,
    /// Input samples per frame.
    pub inputs: usize,
    /// Output samples per frame.
    pub outputs: usize,
}

impl fmt::Display for OpCensus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mults={} alu={} taps={} writes={} coeffs={} consts={} in={} out={}",
            self.mults,
            self.alu_ops,
            self.taps,
            self.signal_writes,
            self.coeff_fetches,
            self.prog_consts,
            self.inputs,
            self.outputs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn arity_table() {
        assert_eq!(DfgOp::Mlt.arity(), 2);
        assert_eq!(DfgOp::Pass.arity(), 1);
        assert_eq!(DfgOp::Input { port: 0 }.arity(), 0);
        assert_eq!(DfgOp::SignalWrite { signal: 0 }.arity(), 1);
        assert_eq!(DfgOp::ProgConst { value: 0.0 }.arity(), 0);
    }

    #[test]
    fn census_of_treble_section() {
        let src = "
            input u; signal v; output y;
            coeff d1 = 0.1; coeff d2 = 0.2; coeff e1 = 0.3;
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
            y  = rd;
        ";
        let dfg = Dfg::build(&parse(src).unwrap()).unwrap();
        let c = dfg.census();
        assert_eq!(c.mults, 3);
        assert_eq!(c.alu_ops, 3); // pass, add, add_clip
        assert_eq!(c.taps, 3); // u@2, v@1, u@1
        assert_eq!(c.signal_writes, 1); // v
        assert_eq!(c.coeff_fetches, 3);
        assert_eq!(c.outputs, 1);
        assert_eq!(c.inputs, 0); // u only used via taps
        assert!(c.to_string().contains("mults=3"));
    }

    #[test]
    fn nodes_are_in_topological_order() {
        let src = "input u; output y; y = add(mlt(u, u), u);";
        let dfg = Dfg::build(&parse(src).unwrap()).unwrap();
        for (i, n) in dfg.nodes().iter().enumerate() {
            for input in &n.inputs {
                assert!((input.0 as usize) < i, "node {i} uses later node");
            }
            assert_eq!(n.inputs.len(), n.op.arity());
        }
    }

    #[test]
    fn signals_track_max_tap_depth() {
        let src = "input u; signal v; output y; v = pass(u@3); y = v;";
        let dfg = Dfg::build(&parse(src).unwrap()).unwrap();
        let u = dfg.signals().iter().find(|s| s.name == "u").unwrap();
        assert_eq!(u.max_tap_depth, 3);
        assert!(u.is_input);
        let v = dfg.signals().iter().find(|s| s.name == "v").unwrap();
        assert_eq!(v.max_tap_depth, 0);
        assert!(!v.is_input);
    }
}
