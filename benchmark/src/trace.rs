//! Span recorder. Spans are opened in the benchmark's own code around the
//! calls into each layer's public functions; nothing inside the repo's
//! crates is instrumented. They stay in memory and are written out once,
//! when the workload ends.
//!
//! Every call into a layer is made from the benchmark's main thread, so
//! the recorder is a plain value handed down by `&mut`, not a global.

use crate::json::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Index of the span that caused this one; `None` for a root.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Per-name totals of a finished trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotal {
    pub count: usize,
    pub total_s: f64,
    /// Total minus the time covered by child spans.
    pub self_s: f64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span called `name`. With tracing off this is a
    /// plain call.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, parent: self.open.last().copied(), start_ns, end_ns: 0 });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// Record a span whose interval was timed by the caller (the serve
    /// generator times `submit_*` itself so that the traced and untraced
    /// loops are the same code).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds spent in spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.totals().get(name).map_or(0.0, |t| t.total_s)
    }

    /// Totals by span name; a span's self time is its duration minus its
    /// direct children's.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotal> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let t = by_name.entry(s.name).or_default();
            t.count += 1;
            t.total_s += dur as f64 * 1e-9;
            t.self_s += dur.saturating_sub(child_ns[i]) as f64 * 1e-9;
        }
        by_name
    }

    /// The attribution table under `root`: every span name with its count,
    /// total and self time as a share of `root`'s total, and the root's
    /// own self time as the residual. A residual above 15 % is printed as
    /// `unexplained`: time the spans do not account for.
    pub fn attribution_table(&self, root: &str) -> String {
        let totals = self.totals();
        let Some(root_total) = totals.get(root).map(|t| t.total_s).filter(|t| *t > 0.0) else {
            return String::new();
        };
        let mut out = format!(
            "  {:<34} {:>7} {:>10} {:>10} {:>7}\n",
            "span", "count", "total s", "self s", "self %"
        );
        for (name, t) in &totals {
            out.push_str(&format!(
                "  {:<34} {:>7} {:>10.4} {:>10.4} {:>6.1}%\n",
                name,
                t.count,
                t.total_s,
                t.self_s,
                100.0 * t.self_s / root_total
            ));
        }
        let residual = totals[root].self_s / root_total;
        let label = if residual > 0.15 { "unexplained" } else { "residual" };
        out.push_str(&format!(
            "  {label}: {:.1}% of {root} is outside every child span\n",
            100.0 * residual
        ));
        out
    }

    /// Write one JSON object per span.
    pub fn flush(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("workload", Json::str(workload)),
                ("id", Json::Num(id as f64)),
                ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                ("name", Json::str(s.name)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
            ]);
            writeln!(w, "{}", line.render())?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new(true);
        t.span("root", |t| {
            t.span("child", |_| std::thread::sleep(std::time::Duration::from_millis(5)));
            t.span("child", |_| std::thread::sleep(std::time::Duration::from_millis(5)));
        });
        let totals = t.totals();
        assert_eq!(totals["child"].count, 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        let root = totals["root"];
        assert!((root.total_s - root.self_s - totals["child"].total_s).abs() < 1e-9);
        assert!(root.self_s < 0.004, "root self time {} should exclude the sleeps", root.self_s);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("root", |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
