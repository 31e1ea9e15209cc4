//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name (`layer.call`), a start, an end and the span that
//! caused it. Spans stay in memory while the benchmark runs and are
//! written out once at the end; a layer's self time is its span's duration
//! minus what its child spans cover.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.call`, e.g. `spectral.resolve`.
    pub name: &'static str,
    /// Index of the causing span in [`Tracer::spans`], if any.
    pub parent: Option<usize>,
    /// Start, in ns since the origin.
    pub start_ns: u64,
    /// End, in ns since the origin.
    pub end_ns: u64,
}

impl Span {
    /// Wall time of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer: the name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Collects spans.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// All spans in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of span `id` in seconds.
    pub fn seconds(&self, id: usize) -> f64 {
        self.spans[id].duration_ns() as f64 / 1e9
    }

    /// Total duration, in seconds, of every span named `name`.
    pub fn total_seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e9)
            .sum()
    }

    /// Self time of span `id`: its duration minus its direct children's
    /// (children never overlap, since every call here is sequential).
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::duration_ns)
            .sum();
        self.spans[id].duration_ns().saturating_sub(children)
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::default();
        let root = t.open("detect", None);
        let child = t.open("spectral.resolve", Some(root));
        let grandchild = t.open("spectral.inner", Some(child));
        t.close(grandchild);
        t.close(child);
        t.close(root);
        // Pin the times so the arithmetic is exact.
        t.spans[root].start_ns = 0;
        t.spans[root].end_ns = 100;
        t.spans[child].start_ns = 10;
        t.spans[child].end_ns = 70;
        t.spans[grandchild].start_ns = 20;
        t.spans[grandchild].end_ns = 30;
        assert_eq!(t.self_ns(root), 40);
        assert_eq!(t.self_ns(child), 50);
        assert_eq!(t.self_ns(grandchild), 10);
        assert_eq!(t.spans()[child].layer(), "spectral");
        assert_eq!(t.to_json_lines().lines().count(), 3);
    }
}
