//! In-memory spans recorded around the benchmark's calls into each
//! layer, and the self-time breakdown derived from them.
//!
//! A span holds a name, start and end (nanoseconds since the tracer's
//! epoch), its parent span, and the id of the request it belongs to.
//! Spans are only appended while a run is measured; they are written out
//! once, after the run. A disabled tracer records nothing and reads no
//! clock, so the untraced loops run the same code.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span; `None` when tracing is off.
pub type SpanId = Option<usize>;

pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, enabled: bool) -> Tracer {
        Tracer {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    /// A disabled tracer.
    pub fn off() -> Tracer {
        Tracer::new(Instant::now(), false)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn begin(&mut self, name: &'static str, req: u64, parent: SpanId) -> SpanId {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        Some(self.spans.len() - 1)
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: SpanId,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, req, parent);
        let r = f();
        self.end(id);
        r
    }

    /// Append another tracer's spans (another thread of the same run),
    /// keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let offset = other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.start_ns += offset;
            s.end_ns += offset;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Per span name: every span's self time in microseconds, i.e. its
    /// duration minus the time covered by its child spans.
    pub fn self_times_us(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            out.entry(s.name)
                .or_default()
                .push(s.dur_ns().saturating_sub(c) as f64 / 1e3);
        }
        out
    }

    /// Write every span as a tab-separated row.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\treq\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch, true);
        t.spans = vec![
            Span {
                name: "root",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                req: 0,
            },
            Span {
                name: "a",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                req: 0,
            },
            Span {
                name: "b",
                start_ns: 50,
                end_ns: 90,
                parent: Some(0),
                req: 0,
            },
        ];
        let st = t.self_times_us();
        assert_eq!(st["root"], vec![0.03]);
        assert_eq!(st["a"], vec![0.03]);
        assert_eq!(st["b"], vec![0.04]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let id = t.begin("x", 1, None);
        t.end(id);
        assert!(id.is_none());
        assert!(t.self_times_us().is_empty());
    }
}
