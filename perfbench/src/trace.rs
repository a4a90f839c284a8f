//! In-memory span recorder for the traced run.
//!
//! Every operation is a root span; the benchmark opens a child span
//! around each call it makes into a layer. A span's *self time* is its
//! duration minus its direct children's; a root's self time is the
//! operation's unattributed remainder. Spans are written as JSON lines
//! once the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    /// Operation the span belongs to.
    pub op: u64,
    pub parent: Option<u32>,
    pub name: &'static str,
    /// Operation class; set on root spans only.
    pub class: &'static str,
    pub start: Duration,
    pub end: Duration,
    /// Calls covered by the span (a batch of frames is one span).
    pub calls: u32,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    next_op: u64,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            next_op: 0,
        }
    }

    pub fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Opens a root span for a new operation; its class is set by
    /// [`Tracer::end_op`].
    pub fn begin_op(&mut self) -> u32 {
        assert!(self.stack.is_empty(), "operations do not nest");
        self.next_op += 1;
        self.begin("op")
    }

    pub fn end_op(&mut self, id: u32, class: &'static str) {
        self.spans[id as usize].class = class;
        self.end(id);
    }

    /// Opens a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            op: self.next_op,
            parent: self.stack.last().copied(),
            name,
            class: "",
            start: self.now(),
            end: Duration::ZERO,
            calls: 1,
        });
        self.stack.push(id);
        id
    }

    pub fn end(&mut self, id: u32) {
        self.end_calls(id, 1);
    }

    /// Closes span `id`, which covered `calls` calls of its layer.
    pub fn end_calls(&mut self, id: u32, calls: u32) {
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        let now = self.now();
        let span = &mut self.spans[id as usize];
        span.end = now;
        span.calls = calls;
    }

    /// Closes every span opened inside `id` (after a contained panic).
    pub fn unwind_to(&mut self, id: u32) {
        while let Some(&top) = self.stack.last() {
            if top == id {
                break;
            }
            self.end(top);
        }
    }

    /// Records an already-measured operation (timestamps taken on another
    /// thread against the same epoch).
    pub fn record_op(&mut self, class: &'static str, start: Duration, end: Duration) -> u32 {
        assert!(self.stack.is_empty(), "operations do not nest");
        self.next_op += 1;
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            op: self.next_op,
            parent: None,
            name: "op",
            class,
            start,
            end,
            calls: 1,
        });
        id
    }

    /// Records an already-measured child of span `parent`.
    pub fn record_child(
        &mut self,
        parent: u32,
        name: &'static str,
        start: Duration,
        end: Duration,
    ) {
        self.spans.push(Span {
            op: self.spans[parent as usize].op,
            parent: Some(parent),
            name,
            class: "",
            start,
            end,
            calls: 1,
        });
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write as _;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut line = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            line.clear();
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                line,
                "{{\"op\":{},\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"class\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"calls\":{}}}",
                s.op,
                s.name,
                s.class,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.calls
            );
            out.write_all(line.as_bytes())?;
        }
        out.flush()
    }
}

/// Self time and call count per span name, over every non-root span.
#[derive(Debug, Default, Clone)]
pub struct Layer {
    pub calls: u64,
    pub self_time: Duration,
}

impl Layer {
    /// Mean self time per call, in microseconds.
    pub fn per_call_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_time.as_secs_f64() * 1e6 / self.calls as f64
        }
    }
}

/// Per-layer self times (non-root spans) and per-class unattributed time
/// (the self time of root spans), with the operation count per class.
pub fn attribute(spans: &[Span]) -> (BTreeMap<&'static str, Layer>, BTreeMap<&'static str, Layer>) {
    let mut child_time = vec![Duration::ZERO; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_time[p as usize] += s.duration();
        }
    }
    let mut layers: BTreeMap<&'static str, Layer> = BTreeMap::new();
    let mut unattributed: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (s, children) in spans.iter().zip(&child_time) {
        let self_time = s.duration().saturating_sub(*children);
        let (map, key, calls) = match s.parent {
            None => (&mut unattributed, s.class, 1),
            Some(_) => (&mut layers, s.name, u64::from(s.calls)),
        };
        let e = map.entry(key).or_default();
        e.calls += calls;
        e.self_time += self_time;
    }
    (layers, unattributed)
}

/// Operations of `class`, and the total duration of their direct
/// children named in `names`, in seconds.
pub fn child_time_of_class(spans: &[Span], class: &str, names: &[&str]) -> (u64, f64) {
    let mut ops = 0u64;
    let mut total = 0.0f64;
    for s in spans {
        match s.parent {
            None if s.class == class => ops += 1,
            Some(p) if spans[p as usize].class == class && names.contains(&s.name) => {
                total += s.duration().as_secs_f64();
            }
            _ => {}
        }
    }
    (ops, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<u32>, name: &'static str, class: &'static str, a: u64, b: u64) -> Span {
        Span {
            op: 1,
            parent,
            name,
            class,
            start: Duration::from_micros(a),
            end: Duration::from_micros(b),
            calls: 1,
        }
    }

    #[test]
    fn unattributed_is_root_minus_direct_children() {
        // op [0,100): lower [10,40) with a nested key span [12,15),
        // schedule [50,90). Unattributed = 100 - 30 - 40 = 30; lower's
        // self time excludes its nested child.
        let spans = vec![
            span(None, "op", "cold", 0, 100),
            span(Some(0), "rtgen.lower", "", 10, 40),
            span(Some(1), "session.keys", "", 12, 15),
            span(Some(0), "sched.schedule", "", 50, 90),
        ];
        let (layers, unattributed) = attribute(&spans);
        assert_eq!(unattributed["cold"].self_time, Duration::from_micros(30));
        assert_eq!(unattributed["cold"].calls, 1);
        assert_eq!(layers["rtgen.lower"].self_time, Duration::from_micros(27));
        assert_eq!(layers["session.keys"].self_time, Duration::from_micros(3));
        assert_eq!(
            layers["sched.schedule"].self_time,
            Duration::from_micros(40)
        );
    }

    #[test]
    fn batch_spans_report_time_per_call() {
        let mut s = span(Some(0), "sim.step_frame", "", 0, 200);
        s.calls = 100;
        let spans = vec![span(None, "op", "cold", 0, 300), s];
        let (layers, unattributed) = attribute(&spans);
        assert!((layers["sim.step_frame"].per_call_us() - 2.0).abs() < 1e-9);
        assert_eq!(unattributed["cold"].self_time, Duration::from_micros(100));
    }

    #[test]
    fn tracer_nests_live_and_recorded_spans() {
        let mut t = Tracer::new(Instant::now());
        let op = t.begin_op();
        let c = t.begin("dfg.parse");
        t.end(c);
        t.end_op(op, "cold");
        let us = Duration::from_micros;
        let op2 = t.record_op("hit", us(10), us(50));
        t.record_child(op2, "service.submit", us(10), us(12));
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert_eq!((s[2].op, s[2].class, s[3].op), (2, "hit", 2));
        let (_, unattributed) = attribute(s);
        assert_eq!(unattributed["hit"].self_time, us(38));
    }

    #[test]
    fn child_time_is_summed_per_class() {
        let spans = vec![
            span(None, "op", "hit", 0, 10),
            span(Some(0), "session.keys", "", 1, 3),
            span(Some(0), "session.source_fp", "", 3, 4),
            span(None, "op", "cold", 10, 20),
            span(Some(3), "session.keys", "", 11, 15),
        ];
        let (ops, total) =
            child_time_of_class(&spans, "hit", &["session.keys", "session.source_fp"]);
        assert_eq!(ops, 1);
        assert!((total - 3e-6).abs() < 1e-12);
    }
}
