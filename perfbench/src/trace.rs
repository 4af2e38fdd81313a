//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, an id shared by every span of one request (or
//! probe repetition), the index of the span that caused it, start and
//! end on one clock, and how many calls into the layer it covers —
//! calls cheaper than a clock read are timed in loops, one span per
//! loop. Spans are kept in memory and written out when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// 1-based index of the parent span in the same tracer; 0 = root.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub calls: u32,
}

/// A handle to an open span; [`SpanId::NONE`] when tracing is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    pub const NONE: SpanId = SpanId(0);
}

pub struct Tracer {
    base: Instant,
    pub enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(base: Instant, enabled: bool) -> Tracer {
        Tracer {
            base,
            enabled,
            spans: Vec::new(),
        }
    }

    /// The clock every span is timed from; tracers that are to be
    /// [`absorb`](Tracer::absorb)ed together must share it.
    pub fn base(&self) -> Instant {
        self.base
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Opens a span; a no-op returning [`SpanId::NONE`] when disabled.
    pub fn begin(&mut self, name: &'static str, id: u64, parent: SpanId) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent: parent.0,
            start_ns,
            end_ns: start_ns,
            calls: 1,
        });
        SpanId(self.spans.len() as u32)
    }

    /// Opens a span caused by `parent`, in the same request.
    pub fn child(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        if parent == SpanId::NONE {
            return SpanId::NONE;
        }
        let id = self.spans[parent.0 as usize - 1].id;
        self.begin(name, id, parent)
    }

    pub fn end(&mut self, span: SpanId) {
        self.end_calls(span, 1);
    }

    /// Closes a span that timed `calls` calls in a loop.
    pub fn end_calls(&mut self, span: SpanId, calls: u32) {
        if span == SpanId::NONE {
            return;
        }
        let end_ns = self.now_ns();
        let s = &mut self.spans[span.0 as usize - 1];
        s.end_ns = end_ns;
        s.calls = calls.max(1);
    }

    /// Moves another tracer's spans (same base clock) into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != 0 {
                s.parent += offset;
            }
            s
        }));
    }

    /// Median nanoseconds per call over the closed spans named `name`.
    pub fn per_call_ns(&self, name: &str) -> Option<f64> {
        let per_call: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / f64::from(s.calls))
            .collect();
        (!per_call.is_empty()).then(|| crate::report::median(&per_call))
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes one JSON object per span (`parent` is a 1-based line
    /// number in the same file, 0 for roots).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"calls\":{}}}",
                s.name, s.id, s.parent, s.start_ns, s.end_ns, s.calls
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_share_the_request_id_and_absorb_keeps_parents() {
        let base = Instant::now();
        let mut main = Tracer::new(base, true);
        main.begin("pipeline", 9, SpanId::NONE);
        let mut lane = Tracer::new(base, true);
        let root = lane.begin("request", 7, SpanId::NONE);
        let child = lane.child("loadgen.encode", root);
        lane.end(child);
        lane.end(root);
        main.absorb(lane);
        let encode = main.spans[2];
        assert_eq!(
            (encode.name, encode.id, encode.parent),
            ("loadgen.encode", 7, 2)
        );
        assert_eq!(main.spans[encode.parent as usize - 1].name, "request");
    }

    #[test]
    fn disabled_tracers_record_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        let s = t.begin("request", 1, SpanId::NONE);
        assert_eq!(s, SpanId::NONE);
        assert_eq!(t.child("loadgen.check", s), SpanId::NONE);
        t.end(s);
        assert_eq!(t.len(), 0);
    }
}
