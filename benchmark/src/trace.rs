//! The benchmark's own spans, recorded in memory around its calls into
//! each layer and written out when the run ends.
//!
//! The traced replays are single-threaded, so nesting is a stack: a span
//! opened while another is open is its child. Every span of one package
//! or one request carries the same `op` id. A layer's self time is its
//! spans' time minus the time their children cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary, e.g. `gen.fill`.
    pub name: &'static str,
    /// The package or request this span belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was made.
    pub end_ns: u64,
}

/// Records spans when enabled; costs one branch per call when not, so
/// the same replay code runs traced and untraced and the difference
/// between the two is the tracing overhead.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`true`) or ignores (`false`) every span.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` of operation `op`.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        let value = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        value
    }

    /// Record a span measured by the caller (for intervals that do not
    /// nest as closures, such as "until the first byte arrived"), as a
    /// child of the span currently open.
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write one JSON object per span, in recording order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("id", Json::Num(id as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("name", Json::str(s.name)),
                ("op", Json::Num(s.op as f64)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
            ]);
            writeln!(out, "{}", line.to_line())?;
        }
        out.flush()
    }
}

/// Per group of spans (`key` names a span's group, e.g. its layer): how
/// many spans, and their summed self time in nanoseconds — duration
/// minus the durations of direct children.
pub fn self_times<K: Ord>(spans: &[Span], key: impl Fn(&Span) -> K) -> BTreeMap<K, (u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
        }
    }
    let mut by_key: BTreeMap<K, (u64, u64)> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let entry = by_key.entry(key(s)).or_default();
        entry.0 += 1;
        entry.1 += s.end_ns.saturating_sub(s.start_ns).saturating_sub(children);
    }
    by_key
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("package", None, 0, 100),
            span("gen.fill", Some(0), 5, 45),
            span("fmt", Some(0), 45, 95),
            span("package", None, 100, 160),
            span("gen.fill", Some(3), 100, 150),
        ];
        let t = self_times(&spans, |s| s.name);
        assert_eq!(t["package"], (2, 10 + 10));
        assert_eq!(t["gen.fill"], (2, 40 + 50));
        assert_eq!(t["fmt"], (1, 50));
    }

    #[test]
    fn nesting_follows_the_call_stack() {
        let mut tr = Tracer::new(true);
        let got = tr.span("request", 7, |tr| tr.span("drain", 7, |_| 41) + 1);
        let (a, b) = (Instant::now(), Instant::now());
        tr.record("late", 8, a, b);
        assert_eq!(got, 42);
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].name, s[0].parent, s[0].op), ("request", None, 7));
        assert_eq!((s[1].name, s[1].parent), ("drain", Some(0)));
        assert_eq!(s[2].parent, None);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("x", 0, |_| 5), 5);
        tr.record("y", 0, Instant::now(), Instant::now());
        assert!(tr.spans().is_empty());
    }
}
