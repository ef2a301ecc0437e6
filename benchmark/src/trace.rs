//! In-memory spans around the public calls the benchmark makes, written
//! out as JSON lines when the run ends.

use std::sync::Mutex;
use std::time::Instant;

/// Index of a span within its tracer.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    op: u64,
    parent: Option<SpanId>,
    start_ns: u128,
    end_ns: u128,
}

/// A span recorder; a disabled one records nothing and costs a branch.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder, on or off.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span named `name` for op `op`.
    pub fn span<R>(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> (R, Option<SpanId>) {
        if !self.enabled {
            return (f(), None);
        }
        let start = self.origin.elapsed().as_nanos();
        let out = f();
        let end = self.origin.elapsed().as_nanos();
        let mut spans = self.spans.lock().expect("span list lock poisoned");
        spans.push(Span {
            name,
            op,
            parent,
            start_ns: start,
            end_ns: end,
        });
        (out, Some(spans.len() - 1))
    }

    /// Record a span that was timed elsewhere (`start`..`end`).
    pub fn record(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos();
        let mut spans = self.spans.lock().expect("span list lock poisoned");
        spans.push(Span {
            name,
            op,
            parent,
            start_ns: at(start),
            end_ns: at(end),
        });
        Some(spans.len() - 1)
    }

    /// Set the end of a span recorded open (e.g. a parent recorded before
    /// its children).
    pub fn finish(&self, id: SpanId, end: Instant) {
        let end = end.saturating_duration_since(self.origin).as_nanos();
        if let Some(span) = self
            .spans
            .lock()
            .expect("span list lock poisoned")
            .get_mut(id)
        {
            span.end_ns = end;
        }
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span list lock poisoned").len()
    }

    /// Write every span as one JSON line:
    /// `{"id", "name", "op", "parent", "start_ns", "end_ns"}`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write as _;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("span list lock poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Where a traced run writes its spans, relative to the checkout root.
pub fn trace_path(workload: &str, seed: u64) -> std::path::PathBuf {
    std::path::Path::new(".bench_out").join(format!("trace-{workload}-seed{seed}.jsonl"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let (v, id) = t.span("x", 0, None, || 7);
        assert_eq!((v, id, t.len()), (7, None, 0));
    }

    #[test]
    fn spans_keep_their_parent() {
        let t = Tracer::new(true);
        let (_, parent) = t.span("parent", 1, None, || ());
        let (_, child) = t.span("child", 1, parent, || ());
        assert_eq!((parent, child, t.len()), (Some(0), Some(1), 2));
    }
}
