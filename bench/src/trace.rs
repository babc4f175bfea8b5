//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own code, around each call
//! into a layer's public function, into memory allocated before the timed
//! section starts. They are written out as Chrome trace-event JSON when
//! the workload ends. A layer's *self time* is its span minus the part of
//! it that its child spans cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = u32;

/// "No parent" marker.
pub const ROOT: SpanId = u32::MAX;

/// Every how many operations one is traced.
pub const SAMPLE_EVERY: u64 = 16;

/// At most this many spans are written to a trace file, so a multi-second
/// run at >100 k ops/s still opens in a trace viewer.
const MAX_FILE_SPANS: usize = 50_000;

/// One timed interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `store.read`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// The span that caused this one, or [`ROOT`].
    pub parent: SpanId,
    /// Identifier shared by all spans of one operation.
    pub op: u64,
}

impl Span {
    /// Length of the interval.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Fixed-capacity in-memory span recorder. Recording never allocates;
/// once full, further spans are counted in [`Tracer::dropped`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    /// A recorder with room for `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// Nanoseconds since this tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now. Returns [`ROOT`] when the recorder is full.
    pub fn begin(&mut self, name: &'static str, parent: SpanId, op: u64) -> SpanId {
        let now = self.now_ns();
        self.begin_at(name, parent, op, now)
    }

    /// Opens a span that started at `start_ns`.
    pub fn begin_at(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op: u64,
        start_ns: u64,
    ) -> SpanId {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return ROOT;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Closes span `id` now.
    pub fn end(&mut self, id: SpanId) {
        let now = self.now_ns();
        self.end_at(id, now);
    }

    /// Closes span `id` at `end_ns`.
    pub fn end_at(&mut self, id: SpanId, end_ns: u64) {
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = end_ns;
        }
    }

    /// Times `f` as a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, op);
        let out = f();
        self.end(id);
        out
    }

    /// The recorded spans, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans that did not fit.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// What an empty span measures: the median duration of `begin`
    /// immediately followed by `end`. Subtracted from nanosecond-scale
    /// stage times so they report the stage, not the clock.
    pub fn clock_overhead_ns() -> u64 {
        let mut t = Tracer::with_capacity(4096);
        for i in 0..4096 {
            let id = t.begin("clock", ROOT, i);
            t.end(id);
        }
        let mut d: Vec<u64> = t.spans.iter().map(Span::duration_ns).collect();
        d.sort_unstable();
        d[d.len() / 2]
    }

    /// Writes (at most the first 50 000 of) the spans as Chrome
    /// trace-event JSON: open the file in `chrome://tracing` or
    /// <https://ui.perfetto.dev>.
    pub fn write_chrome_trace(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")?;
        for (i, s) in self.spans.iter().take(MAX_FILE_SPANS).enumerate() {
            if i > 0 {
                out.write_all(b",\n")?;
            }
            write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"op\":{},\"span\":{},\"parent\":{}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                s.op,
                i,
                if s.parent == ROOT {
                    -1
                } else {
                    i64::from(s.parent)
                },
            )?;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()
    }
}

/// Times `f` as a span when there is a tracer, and just runs it otherwise.
pub fn span_if<T>(
    tracer: Option<&mut Tracer>,
    name: &'static str,
    op: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.span(name, ROOT, op, f),
        None => f(),
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times (duration minus the part children cover).
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, each clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(parent) = spans.get(s.parent as usize) {
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if start < end {
                children[s.parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if start < end {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Count, total and self time per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

/// Median duration of the spans called `name`, less `overhead_ns`
/// (see [`Tracer::clock_overhead_ns`]); 0.0 when there are none.
pub fn median_ns(spans: &[Span], name: &str, overhead_ns: u64) -> f64 {
    let mut d: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns().saturating_sub(overhead_ns) as f64)
        .collect();
    crate::stats::median(&mut d)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_only_once() {
        let spans = [
            span("get", 0, 100, ROOT),
            span("read", 10, 40, 0),
            // Overlaps `read` by 10 ns and overruns the parent by 20 ns.
            span("crc", 30, 120, 0),
            span("decode", 50, 60, 2),
        ];
        // get: 100 - |[10,40) ∪ [30,100)| = 100 - 90.
        // crc: 90 - 10 (its child); read and decode have no children.
        assert_eq!(self_times(&spans), vec![10, 30, 80, 10]);
        let by_name = totals_by_name(&spans);
        assert_eq!(
            by_name["get"],
            NameTotals {
                count: 1,
                total_ns: 100,
                self_ns: 10
            }
        );
        assert_eq!(by_name["crc"].self_ns, 80);
    }

    #[test]
    fn a_full_recorder_drops_and_counts() {
        let mut t = Tracer::with_capacity(2);
        let a = t.begin("a", ROOT, 1);
        let b = t.begin("b", a, 1);
        let c = t.begin("c", b, 1);
        assert_eq!(c, ROOT);
        t.end(c); // closing a dropped span is a no-op
        t.end(b);
        t.end(a);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.dropped(), 1);
        assert_eq!(t.spans()[1].parent, a);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }

    #[test]
    fn median_subtracts_the_clock_overhead() {
        let spans = [
            span("x", 0, 50, ROOT),
            span("x", 0, 70, ROOT),
            span("x", 0, 10, ROOT),
            span("y", 0, 1000, ROOT),
        ];
        assert_eq!(median_ns(&spans, "x", 20), 30.0);
        assert_eq!(median_ns(&spans, "missing", 20), 0.0);
    }

    #[test]
    fn chrome_trace_is_one_event_per_span() {
        let mut t = Tracer::with_capacity(4);
        let root = t.begin_at("wire.get", ROOT, 7, 1_000);
        let kid = t.begin_at("serve.service", root, 7, 1_200);
        t.end_at(kid, 1_700);
        t.end_at(root, 2_500);
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.json");
        t.write_chrome_trace(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 2);
        assert!(text.contains("\"name\":\"serve.service\",\"cat\":\"serve\""));
        assert!(text.contains("\"ts\":1.200,\"dur\":0.500"));
        assert!(text.contains("\"parent\":0"));
        assert!(text.contains("\"parent\":-1"));
    }
}
