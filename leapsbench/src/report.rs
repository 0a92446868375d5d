//! The result line and the in-memory span trace.

use std::fmt::Write as _;
use std::time::Instant;

/// What one run prints as its last line.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Renders the JSON object. A metric that is not a finite number
    /// cannot be written as JSON, so it makes the run incorrect and is
    /// written as 0.
    pub fn to_json(&self) -> String {
        let finite = self.metrics.iter().all(|(_, v, _)| v.is_finite());
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ =
                write!(metrics, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct && finite,
            self.attempted.max(1),
            self.failed
        )
    }

    /// Human-readable lines, one per metric.
    pub fn describe(&self) -> String {
        self.metrics
            .iter()
            .map(|(name, value, unit)| format!("  {name:<32} {value:>14.6} {unit}\n"))
            .collect()
    }
}

/// One timed call into a layer, relative to the tracer's start.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_us - self.start_us) / 1e6
    }
}

/// Records spans around calls into each crate, in memory; they are
/// written out once the run is over so writing never lands inside a
/// timed region.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_us = self.now_us();
        self.spans.push(Span { name, start_us, end_us: start_us, parent });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_us = self.now_us();
    }

    /// Times `f` as a child span of `parent`.
    pub fn span<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, Some(parent));
        let out = f();
        self.end(id);
        out
    }

    /// The spans whose parent is `parent`.
    pub fn children(&self, parent: usize) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.parent == Some(parent))
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_us\": {:.1}, \"end_us\": {:.1}, \"parent\": {parent}}}",
                s.name, s.start_us, s.end_us
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut r = Report { correct: true, attempted: 10, failed: 0, ..Report::default() };
        r.metric("setup_s", 0.25, "s");
        r.metric("events_per_s", 1234.5, "1/s");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": \
             {\"value\": 0.25, \"unit\": \"s\"}, \"events_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn non_finite_metric_makes_the_run_incorrect() {
        let mut r = Report { correct: true, attempted: 1, ..Report::default() };
        r.metric("train_s", f64::NAN, "s");
        assert!(r.to_json().starts_with("{\"correct\": false"));
        assert!(r.to_json().contains("\"value\": 0,"));
    }

    #[test]
    fn spans_nest_under_their_parent() {
        let mut t = Tracer::new();
        let root = t.begin("train", None);
        let x = t.span("cluster.fit", root, || 2 + 2);
        t.end(root);
        assert_eq!(x, 4);
        let kids: Vec<_> = t.children(root).map(|s| s.name).collect();
        assert_eq!(kids, vec!["cluster.fit"]);
        assert!(t.spans[root].end_us >= t.spans[1].end_us);
    }
}
