//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name (`<layer>.<operation>`), a start, an end, the span that
//! caused it and the request it belongs to. Spans are kept in memory while a
//! traced run replays its requests and written out as JSON lines when it
//! ends. A layer's *self time* is the time its spans cover minus the part
//! their child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

/// Totals of one span name: how often it ran and its time.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub count: usize,
    pub ms: f64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Attribute the spans that follow to request `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Run `f` inside a span named `name`, nested under the open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            request: self.request,
            parent: self.open.last().copied(),
            start_us,
            end_us: start_us,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_us = self.now_us();
        out
    }

    /// Per span name: count and total time (ms).
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for span in &self.spans {
            let t = totals.entry(span.name).or_default();
            t.count += 1;
            t.ms += span.ms();
        }
        totals
    }

    /// Total time of the spans named `name` of requests `first..`.
    pub fn span_ms(&self, name: &str, first: u64) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.request >= first)
            .map(Span::ms)
            .sum()
    }

    /// Self time per layer (the span-name prefix before the first `.`) over
    /// the spans of requests `first..` (`first >= 1`: request 0 is set-up).
    pub fn layer_self_ms(&self, first: u64) -> BTreeMap<&'static str, f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ms[parent] += span.ms();
            }
        }
        let mut layers = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ms) {
            if span.request >= first.max(1) {
                let layer = span.name.split('.').next().unwrap_or(span.name);
                *layers.entry(layer).or_insert(0.0) += span.ms() - children;
            }
        }
        layers
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.name, s.request, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.span("relation.join", |_| ());
        t.set_request(1);
        t.span("core.request", |t| {
            t.span("milp.search", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let totals = t.totals();
        let outer = totals["core.request"];
        let inner = totals["milp.search"];
        assert_eq!((outer.count, inner.count), (1, 1));
        let layers = t.layer_self_ms(0);
        assert!(layers["milp"] >= 5.0);
        assert!(layers["core"] < outer.ms - 4.9);
        assert!((layers["core"] + layers["milp"] - outer.ms).abs() < 1e-6);
        assert!((t.span_ms("core.request", 1) - outer.ms).abs() < 1e-9);
        assert!(t.layer_self_ms(2).is_empty());
        assert!(
            !layers.contains_key("relation"),
            "set-up spans are not request time"
        );
    }
}
