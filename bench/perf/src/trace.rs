//! Spans around the benchmark's calls into each layer.
//!
//! A span records its name (`<layer>.<call>`), start, end, the enclosing
//! span on the same thread, the request it serves and how many units of
//! work the call processed. Spans stay in memory and are exported as
//! Chrome-trace JSON when the run ends. With tracing off, [`Tracer::span`]
//! is a plain call.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within one tracer, starting at 1.
    pub id: u64,
    /// The enclosing span on the same thread, 0 for none.
    pub parent: u64,
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// The request (scenario, artifact, batch or line index) served.
    pub req: u64,
    /// Units of work the call processed (rows, events, inputs, ...).
    pub work: u64,
    /// Small per-process thread number.
    pub tid: usize,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
}

impl Span {
    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn dur(&self) -> u64 {
        self.end - self.start
    }
}

static NEXT_TID: AtomicUsize = AtomicUsize::new(1);

thread_local! {
    static TID: usize = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    /// Open spans on this thread, innermost last.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// Work reported by the innermost open span's call, if any.
    static WORK: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Records spans when on; a pass-through when off.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Option<Mutex<Vec<Span>>>,
    next_id: AtomicU64,
}

impl Tracer {
    /// A tracer that records (`on`) or only calls through.
    pub fn new(on: bool) -> Self {
        Self { epoch: Instant::now(), spans: on.then(|| Mutex::new(Vec::new())), next_id: 1.into() }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.spans.is_some()
    }

    /// Nanoseconds since the tracer started.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span that processed `work` units, unless `f`
    /// reports another count through [`Tracer::work`].
    pub fn span<T>(&self, name: &'static str, req: u64, work: u64, f: impl FnOnce() -> T) -> T {
        let Some(spans) = &self.spans else {
            return f();
        };
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or(0);
            s.push(id);
            parent
        });
        let outer_work = WORK.with(|w| w.take());
        let start = self.now();
        let out = f();
        let end = self.now();
        let work = WORK.with(|w| w.replace(outer_work)).unwrap_or(work);
        STACK.with(|s| s.borrow_mut().pop());
        let span = Span { id, parent, name, req, work, tid: TID.with(|t| *t), start, end };
        spans.lock().expect("span list poisoned by a panicking recorder").push(span);
        out
    }

    /// Reports the work count of the innermost open span on this thread,
    /// for calls whose count is known only once they return.
    pub fn work(&self, units: u64) {
        if self.is_on() {
            WORK.with(|w| w.set(Some(units)));
        }
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        match &self.spans {
            Some(spans) => spans.lock().expect("span list poisoned").clone(),
            None => Vec::new(),
        }
    }
}

/// Totals of the spans sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans recorded.
    pub calls: u64,
    /// Summed work units.
    pub work: u64,
    /// Summed duration, seconds.
    pub seconds: f64,
}

impl NameTotals {
    /// Mean duration per call, µs.
    pub fn us_per_call(&self) -> f64 {
        self.seconds * 1e6 / self.calls.max(1) as f64
    }

    /// Mean duration per work unit, µs.
    pub fn us_per_unit(&self) -> f64 {
        self.seconds * 1e6 / self.work.max(1) as f64
    }

    /// Work units per second of span time.
    pub fn units_per_s(&self) -> f64 {
        self.work as f64 / self.seconds.max(1e-12)
    }
}

/// Per-name totals over `spans`.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.work += s.work;
        t.seconds += s.dur() as f64 * 1e-9;
    }
    out
}

/// Self time per layer, seconds: each span's duration minus the part its
/// child spans cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.dur();
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let own = s.dur().saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        *out.entry(s.layer()).or_default() += own as f64 * 1e-9;
    }
    out
}

/// Share of `[from, to)` that no span on any thread covers.
pub fn unaccounted_share(spans: &[Span], from: u64, to: u64) -> f64 {
    let mut intervals: Vec<(u64, u64)> =
        spans.iter().map(|s| (s.start.max(from), s.end.min(to))).filter(|(a, b)| a < b).collect();
    intervals.sort_unstable();
    let (mut covered, mut reach) = (0u64, from);
    for (a, b) in intervals {
        if b > reach {
            covered += b - a.max(reach);
            reach = b;
        }
    }
    1.0 - covered as f64 / (to - from).max(1) as f64
}

/// Chrome-trace JSON (complete "X" events, µs timestamps) for Perfetto or
/// `chrome://tracing`.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\
             \"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"req\":{},\"work\":{}}}}}",
            s.name,
            s.layer(),
            s.start as f64 / 1e3,
            s.dur() as f64 / 1e3,
            s.tid,
            s.id,
            s.parent,
            s.req,
            s.work,
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span { id, parent, name, req: 0, work: 1, tid: 1, start, end }
    }

    #[test]
    fn self_time_subtracts_children_and_coverage_unions_threads() {
        let spans = vec![
            span(1, 0, "sched.run_batch", 0, 100),
            span(2, 1, "machine.run", 10, 70),
            Span { tid: 2, ..span(3, 0, "store.scan", 50, 150) },
        ];
        let own = self_times(&spans);
        assert!((own["sched"] - 40e-9).abs() < 1e-15);
        assert!((own["machine"] - 60e-9).abs() < 1e-15);
        // Spans on two threads cover [0, 150) of [0, 200).
        assert!((unaccounted_share(&spans, 0, 200) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn nested_spans_record_parents_and_reported_work() {
        let tracer = Tracer::new(true);
        let events = tracer.span("sched.run_batch", 7, 1, || {
            tracer.span("machine.run", 7, 1, || tracer.work(42));
            5
        });
        assert_eq!(events, 5);
        let spans = tracer.spans();
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!((inner.name, inner.work, inner.parent), ("machine.run", 42, outer.id));
        assert_eq!((outer.work, outer.parent, outer.req), (1, 0, 7));
        corescope_bench::validate_chrome_trace(&chrome_json(&spans)).unwrap();
        assert!(Tracer::new(false).span("x.y", 0, 1, || true));
        assert!(Tracer::new(false).spans().is_empty());
    }
}
