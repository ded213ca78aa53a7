//! In-memory spans around the benchmark's calls into the system.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer
//! was created), the span that caused it, and the request it belongs to.
//! Counts the calls return are attached to the span of the call. Spans
//! stay in memory and are written out once the run ends. A disabled
//! tracer records nothing, so the untraced run pays only a branch.

use std::time::Instant;

use crate::json::{self, Obj};

/// Identifies a recorded span; `None` when tracing is off.
pub type SpanId = Option<usize>;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer and call, e.g. `core.run_on_stats`.
    pub name: &'static str,
    /// Request (count, epoch op) the span belongs to.
    pub request: u64,
    /// The span that caused this one.
    pub parent: SpanId,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created (0 while open).
    pub end_ns: u64,
    /// Counts measured at this boundary.
    pub counts: Vec<(&'static str, f64)>,
}

/// Records spans when enabled.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records iff `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span.
    pub fn begin(&mut self, name: &'static str, request: u64, parent: SpanId) -> SpanId {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: 0,
            counts: Vec::new(),
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span.
    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Attaches a count to a span.
    pub fn note(&mut self, id: SpanId, key: &'static str, value: f64) {
        if let Some(i) = id {
            self.spans[i].counts.push((key, value));
        }
    }

    /// Duration of a closed span in seconds (0 when tracing is off).
    pub fn seconds(&self, id: SpanId) -> f64 {
        id.map_or(0.0, |i| {
            let s = &self.spans[i];
            s.end_ns.saturating_sub(s.start_ns) as f64 * 1e-9
        })
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON list.
    pub fn to_json(&self) -> String {
        json::list(self.spans.iter().enumerate().map(|(i, s)| {
            let counts = s.counts.iter().fold(Obj::new(), |o, (k, v)| o.num(k, *v));
            let mut o = Obj::new()
                .int("id", i as u64)
                .str("name", s.name)
                .int("request", s.request);
            o = match s.parent {
                Some(p) => o.int("parent", p as u64),
                None => o.raw("parent", "null".to_string()),
            };
            o.int("start_ns", s.start_ns)
                .int("end_ns", s.end_ns)
                .raw("counts", counts.render())
                .render()
        }))
    }
}
