//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span records a name (`<layer>.<call>`), the id of the request or
//! block it belongs to, its parent span, and its start and end.  Spans
//! stay in memory while the run measures and are written out once it
//! ends.  A layer's *self time* is a span's duration minus the part of
//! it that child spans cover.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `sched.list`.
    pub name: &'static str,
    /// The request or block the span belongs to.
    pub id: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans when enabled; a disabled tracer only runs the closure.
pub struct Tracer {
    enabled: Cell<bool>,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A tracer that records only while `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled: Cell::new(enabled),
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Whether calls are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled.get()
    }

    /// Turns recording on or off (a run measures untraced, then traced).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.set(enabled);
    }

    /// Nanoseconds since the epoch, for spans recorded after the fact.
    pub fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    /// Nanoseconds from the epoch to `at`.
    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for `id`, nested under the
    /// innermost open span.
    pub fn span<R>(&self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled.get() {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                id,
                parent: self.open.borrow().last().copied(),
                start_ns: 0,
                end_ns: 0,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let start = self.now_ns();
        let result = f();
        let end = self.now_ns();
        self.open.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[index].start_ns = start;
        spans[index].end_ns = end;
        result
    }

    /// Adds a root span measured elsewhere (another thread, or a process
    /// on the other side of a socket).
    pub fn record(&self, name: &'static str, id: u64, start_ns: u64, end_ns: u64) {
        if self.enabled.get() {
            self.spans.borrow_mut().push(Span {
                name,
                id,
                parent: None,
                start_ns,
                end_ns,
            });
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per span name: (number of spans, total self time in ns).
pub fn self_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let entry = totals.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += own;
    }
    totals
}

/// Per layer (the span name up to its first `.`): total self time in ns.
pub fn self_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (name, (_, own)) in self_by_name(spans) {
        let layer = name.split('.').next().unwrap_or(name);
        *totals.entry(layer).or_default() += own;
    }
    totals
}

/// The spans as JSON lines: `{"name":…,"id":…,"parent":…,"start_ns":…,"end_ns":…,"self_ns":…}`.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}\n",
            span.name, span.id, parent, span.start_ns, span.end_ns, own
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            id: 1,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) ⊃ a [10,40) ⊃ a1 [15,25); root ⊃ b [50,90)
        let spans = vec![
            span("x.root", None, 0, 100),
            span("x.a", Some(0), 10, 40),
            span("y.a1", Some(1), 15, 25),
            span("y.b", Some(0), 50, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        let by_layer = self_by_layer(&spans);
        assert_eq!(by_layer["x"], 50);
        assert_eq!(by_layer["y"], 50);
        // Self times partition the root's wall time.
        assert_eq!(by_layer.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("p", None, 100, 200),
            span("c", Some(0), 90, 130),
            span("c", Some(0), 120, 150),
            span("c", Some(0), 190, 260),
        ];
        // Covered: [100,150) + [190,200) = 60.
        assert_eq!(self_times(&spans)[0], 40);
        let by_name = self_by_name(&spans);
        assert_eq!(by_name["c"].0, 3);
        assert_eq!(by_name["p"], (1, 40));
    }

    #[test]
    fn tracer_nests_spans_and_ignores_calls_when_disabled() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("a.x", 1, || 7), 7);
        assert!(tracer.spans().is_empty());

        tracer.set_enabled(true);
        tracer.span("a.outer", 3, || {
            tracer.span("b.inner", 3, || std::hint::black_box(1 + 1));
        });
        tracer.record("c.remote", 4, 5, 9);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        let own = self_times(&spans);
        assert_eq!(own[0] + own[1], spans[0].duration_ns());
        assert_eq!(own[2], 4);
        assert_eq!(to_json_lines(&spans).lines().count(), 3);
    }
}
