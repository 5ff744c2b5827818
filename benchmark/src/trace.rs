//! In-memory spans recorded around calls into the program's layers.
//!
//! A [`Tracer`] belongs to one thread. Each span keeps its name, start,
//! end, parent span and the operation it belongs to; spans are written
//! out once the run ends. A disabled tracer records nothing and reads
//! no clock for layer spans, which is how end-to-end metrics are
//! measured with tracing off.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Name of the root span of every measured operation. Its self time is
/// the part of the operation no layer span covers.
pub const OP: &str = "bench.op";

/// One closed span. Times are seconds since the run's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.record`.
    pub name: &'static str,
    /// Start, seconds since the epoch.
    pub start: f64,
    /// End, seconds since the epoch.
    pub end: f64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    /// Operation id shared by every span of one operation.
    pub op: u64,
    /// Recording thread.
    pub thread: u32,
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    thread: u32,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    op: Cell<u64>,
}

impl Tracer {
    /// A tracer for `thread`; records only when `on`.
    pub fn new(on: bool, epoch: Instant, thread: u32) -> Tracer {
        Tracer {
            on,
            epoch,
            thread,
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            op: Cell::new(0),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn open_span(&self, name: &'static str) -> usize {
        let parent = self.open.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        let start = self.now();
        spans.push(Span {
            name,
            start,
            end: start,
            parent,
            op: self.op.get(),
            thread: self.thread,
        });
        self.open.borrow_mut().push(spans.len() - 1);
        spans.len() - 1
    }

    fn close_span(&self, idx: usize) {
        let end = self.now();
        self.spans.borrow_mut()[idx].end = end;
        self.open.borrow_mut().pop();
    }

    /// Runs `f` inside a span named `name` (a layer's public call).
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let idx = self.open_span(name);
        let r = f();
        self.close_span(idx);
        r
    }

    /// Runs one measured operation `id` and returns its result with its
    /// wall time in seconds. The time is taken whether or not tracing
    /// is on; when on, the operation becomes a root [`OP`] span.
    pub fn op<R>(&self, id: u64, f: impl FnOnce() -> R) -> (R, f64) {
        self.op.set(id);
        let t0 = Instant::now();
        let idx = self.on.then(|| self.open_span(OP));
        let r = f();
        if let Some(idx) = idx {
            self.close_span(idx);
        }
        (r, t0.elapsed().as_secs_f64())
    }

    /// Records a child of the innermost open span lasting `secs`, for a
    /// duration the program reports about itself (the daemon's
    /// execution time inside a request). It is placed at the start of
    /// its parent; only its length is measured.
    pub fn child(&self, name: &'static str, secs: f64) {
        if !self.on {
            return;
        }
        let parent = self.open.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        let start = parent.map_or_else(|| self.now(), |p| spans[p].start);
        spans.push(Span {
            name,
            start,
            end: start + secs.max(0.0),
            parent,
            op: self.op.get(),
            thread: self.thread,
        });
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Concatenates per-thread span lists, rebasing parent indices.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out: Vec<Span> = Vec::new();
    for list in lists {
        let base = out.len();
        out.extend(list.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Self time per span name: each span's duration minus the time its
/// direct children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_time = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_time[p] += s.end - s.start;
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_time) {
        *out.entry(s.name).or_insert(0.0) += (s.end - s.start) - c;
    }
    out
}

/// Total duration of the root spans (the measured operations).
pub fn root_time(spans: &[Span]) -> f64 {
    spans.iter().filter(|s| s.parent.is_none()).map(|s| s.end - s.start).sum()
}

/// Renders spans as JSON lines.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent},\"op\":{},\"thread\":{}}}",
            s.name, s.start, s.end, s.op, s.thread
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < u128::from(ms) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_times_add_up_to_the_operation() {
        let t = Tracer::new(true, Instant::now(), 0);
        let (_, secs) = t.op(1, || {
            t.span("a.outer", || {
                spin(2);
                t.span("b.inner", || spin(3));
            });
            spin(1);
            t.child("c.reported", 0.001);
        });
        let spans = t.into_spans();
        assert!(spans.iter().all(|s| s.op == 1));
        let st = self_times(&spans);
        let sum: f64 = st.values().sum();
        let root = root_time(&spans);
        assert!((sum - root).abs() < 1e-9, "{sum} vs {root}");
        assert!(root <= secs);
        assert!(st["b.inner"] >= 0.003 && st["a.outer"] >= 0.002 && st[OP] >= 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_times() {
        let t = Tracer::new(false, Instant::now(), 0);
        let (v, secs) = t.op(3, || t.span("x.y", || 5));
        assert_eq!(v, 5);
        assert!(secs >= 0.0);
        t.child("x.z", 1.0);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn merge_rebases_parents() {
        let mk = |th| {
            let t = Tracer::new(true, Instant::now(), th);
            t.op(0, || t.span("l.f", || ()));
            t.into_spans()
        };
        let all = merge(vec![mk(0), mk(1)]);
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[3].parent, Some(2));
        assert_eq!(to_jsonl(&all).lines().count(), 4);
    }
}
