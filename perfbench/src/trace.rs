//! In-memory span recorder for the traced run.
//!
//! Spans sit around the calls the benchmark makes into each layer (the
//! program itself is not instrumented). A span has a name, start and
//! end, the span that was open when it began, and the run identifier.
//! Spans stay in memory and are written out once the run ends. A
//! disabled tracer records nothing and never reads the clock, so the
//! untraced run pays one branch per call site.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Identifier of an open span (`usize::MAX` when tracing is off).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.spaden_run`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Aggregate of all spans sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus child coverage), ns.
    pub self_ns: u64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    run_id: u64,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            run_id: 0,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer for run `run_id`.
    pub fn on(run_id: u64) -> Self {
        Tracer {
            enabled: true,
            run_id,
            ..Tracer::off()
        }
    }

    /// Opens a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        SpanId(id)
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id.0), "spans must close innermost first");
        self.spans[id.0].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals with self times.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += s.dur_ns().saturating_sub(child_ns[i]);
        }
        out
    }

    /// Summed duration of spans named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns())
            .sum::<u64>() as f64
            * 1e-9
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Mean duration of spans named `name`, in seconds (0 if none).
    pub fn mean_s(&self, name: &str) -> f64 {
        let n = self.count(name);
        if n == 0 {
            0.0
        } else {
            self.total_s(name) / n as f64
        }
    }

    /// Writes the spans as JSON lines: name, start, end, parent, run id.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run_id\":{}}}",
                s.name, s.start_ns, s.end_ns, self.run_id
            )?;
        }
        w.flush()
    }

    /// The per-layer table: span totals grouped by name, with self times.
    pub fn layer_table(&self) -> String {
        let totals = self.totals();
        let mut out = format!(
            "{:<28} {:>8} {:>12} {:>12} {:>7}\n",
            "span", "count", "total_ms", "self_ms", "self%"
        );
        let all_self: u64 = totals.values().map(|t| t.self_ns).sum();
        for (name, t) in &totals {
            out.push_str(&format!(
                "{:<28} {:>8} {:>12.3} {:>12.3} {:>6.1}%\n",
                name,
                t.count,
                t.total_ns as f64 * 1e-6,
                t.self_ns as f64 * 1e-6,
                100.0 * t.self_ns as f64 / all_self.max(1) as f64
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::on(7);
        let outer = t.enter("a.outer");
        t.span("b.inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(outer);
        let totals = t.totals();
        let o = totals["a.outer"];
        let i = totals["b.inner"];
        assert_eq!(o.count, 1);
        assert!(o.self_ns < o.total_ns);
        assert_eq!(o.total_ns - o.self_ns, i.total_ns);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let id = t.enter("x");
        t.exit(id);
        assert!(t.spans().is_empty());
        assert_eq!(t.total_s("x"), 0.0);
    }
}
