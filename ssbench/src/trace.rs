//! In-memory spans in the Dapper shape: each span has a name, a start and
//! an end, the span that caused it, and the id of the request it belongs
//! to. Spans stay in memory while the benchmark runs and are written out
//! as JSON lines at the end. Per-layer times are span *self* times: a
//! span's duration minus the part of its interval its children cover.

use std::io::Write;
use std::time::Instant;

/// Index of a span in its [`Trace`].
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the trace's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: u64,
}

#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(origin: Instant) -> Self {
        Trace { origin, spans: Vec::new() }
    }

    fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: u64,
    ) -> SpanId {
        let span = Span {
            name,
            start_ns: self.offset_ns(start),
            end_ns: self.offset_ns(end),
            parent,
            request,
        };
        self.push(span)
    }

    pub fn push(&mut self, span: Span) -> SpanId {
        debug_assert!(span.end_ns >= span.start_ns, "span `{}` ends before it starts", span.name);
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Start a span now, to be ended by [`Self::close`]; children can name
    /// it as their parent meanwhile.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let now = Instant::now();
        self.record(name, now, now, parent, request)
    }

    pub fn close(&mut self, id: SpanId) {
        let end = self.offset_ns(Instant::now());
        self.spans[id].end_ns = end;
    }

    /// Run `work` inside a span and return its result with the span id.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        work: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let start = Instant::now();
        let out = work();
        let id = self.record(name, start, Instant::now(), parent, request);
        (out, id)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration, in nanoseconds, of every span named `name`, in recording
    /// order.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).collect()
    }

    /// Self time, in nanoseconds, of every span named `name`, in
    /// recording order.
    pub fn self_times_ns(&self, name: &str) -> Vec<u64> {
        let mut children: Vec<Vec<SpanId>> = vec![Vec::new(); self.spans.len()];
        for (id, span) in self.spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                children[parent].push(id);
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, span)| span.name == name)
            .map(|(id, span)| self_time_ns(span, children[id].iter().map(|&c| &self.spans[c])))
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                span.name, span.start_ns, span.end_ns, span.request
            )?;
        }
        out.flush()
    }
}

/// `span`'s duration minus the union of its children's intervals,
/// clipped to its own.
pub fn self_time_ns<'a>(span: &Span, children: impl Iterator<Item = &'a Span>) -> u64 {
    let mut covered: Vec<(u64, u64)> = children
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(start, end)| start < end)
        .collect();
    covered.sort_unstable();
    let mut total = 0u64;
    let mut reach = span.start_ns;
    for (start, end) in covered {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    (span.end_ns - span.start_ns) - total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span { name, start_ns, end_ns, parent, request: 0 }
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let mut trace = Trace::new(Instant::now());
        let root = trace.push(span("root", 100, 200, None));
        // Two overlapping children covering 110..150, one child partly
        // outside the parent (clipped to 190..200), one grandchild that
        // must not count against the root.
        let a = trace.push(span("a", 110, 140, Some(root)));
        trace.push(span("b", 120, 150, Some(root)));
        trace.push(span("c", 190, 230, Some(root)));
        trace.push(span("a.child", 112, 118, Some(a)));
        assert_eq!(trace.self_times_ns("root"), vec![100 - 40 - 10]);
        assert_eq!(trace.self_times_ns("a"), vec![30 - 6]);
        assert_eq!(trace.self_times_ns("b"), vec![30]);
        assert_eq!(trace.self_times_ns("missing"), Vec::<u64>::new());
    }

    #[test]
    fn children_outside_the_interval_do_not_count() {
        let parent = span("p", 10, 20, None);
        let outside = [span("x", 20, 30, Some(0)), span("y", 0, 10, Some(0))];
        assert_eq!(self_time_ns(&parent, outside.iter()), 10);
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let mut trace = Trace::new(Instant::now());
        let root = trace.push(span("root", 0, 5, None));
        trace.push(Span { request: 7, ..span("leaf", 1, 2, Some(root)) });
        let mut out = Vec::new();
        trace.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[1],
            "{\"id\":1,\"name\":\"leaf\",\"start_ns\":1,\"end_ns\":2,\"parent\":0,\"request\":7}"
        );
    }
}
