//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's own calls into each layer: name, start,
//! end, parent span and the request or tick id they belong to. They stay
//! in memory while the workload runs and are written out as JSON lines
//! when it ends. A layer's self time is its span's duration minus the
//! time its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub id: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::with_capacity(1 << 16), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str, id: u64) -> usize {
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, id });
        let idx = self.spans.len() - 1;
        self.open.push(idx);
        idx
    }

    /// Close the innermost open span (which must be `idx`) and return
    /// its duration in nanoseconds.
    pub fn exit(&mut self, idx: usize) -> u64 {
        let end = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans must close in LIFO order");
        self.spans[idx].end_ns = end;
        end - self.spans[idx].start_ns
    }

    /// Run `f` inside a span; returns its result and the span duration.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> (T, u64) {
        let idx = self.enter(name, id);
        let out = f();
        let ns = self.exit(idx);
        (out, ns)
    }

    /// Self time of every span, in nanoseconds, grouped by span name
    /// (one entry per span, in recording order).
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child);
            by_name.entry(s.name).or_default().push(own as f64);
        }
        by_name
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"id\": {}}}",
                s.name, s.start_ns, s.end_ns, s.id
            )?;
        }
        out.flush()
    }
}
