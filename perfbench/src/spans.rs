//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span has a name (`<crate>.<call>`), a start and end on one clock,
//! the span that was open when it began, and the operation it belongs
//! to. A layer's *self time* is its span's duration minus the time its
//! child spans cover. A disabled tracer records nothing and never reads
//! the clock, so the measured runs pay one branch per boundary.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer call, `<crate>.<call>`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation (row or pass) the span belongs to.
    pub op: u64,
}

/// Handle returned by [`Tracer::begin`].
#[must_use = "a span must be ended"]
pub struct Open(Option<usize>);

/// A span recorder; see the module docs.
pub struct Tracer {
    origin: Option<Instant>,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer { origin: None, spans: Vec::new(), stack: Vec::new(), op: 0 }
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Tracer { origin: Some(Instant::now()), ..Tracer::off() }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.origin.is_some()
    }

    /// Sets the operation id stamped on spans begun from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(origin: Instant) -> u64 {
        origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name`.
    #[inline]
    pub fn begin(&mut self, name: &'static str) -> Open {
        let Some(origin) = self.origin else { return Open(None) };
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: Self::now_ns(origin),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes `open`, which must be the innermost open span.
    #[inline]
    pub fn end(&mut self, open: Open) {
        let (Some(origin), Some(idx)) = (self.origin, open.0) else { return };
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans must nest");
        self.spans[idx].end_ns = Self::now_ns(origin);
    }

    /// Runs `f` inside a span named `name`.
    #[inline]
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self seconds per span name.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (span, child) in self.spans.iter().zip(child_ns) {
            *out.entry(span.name).or_default() +=
                (span.end_ns - span.start_ns).saturating_sub(child) as f64 * 1e-9;
        }
        out
    }

    /// Seconds covered by top-level spans.
    pub fn top_level_seconds(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// The spans as JSON lines (one object per span).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"op\": {}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {}
    }

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::on();
        tr.set_op(3);
        let outer = tr.begin("a.outer");
        spin(2_000_000);
        tr.time("b.inner", || spin(4_000_000));
        tr.end(outer);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[1].parent, spans[1].op), (Some(0), 3));
        let selfs = tr.self_seconds();
        assert!(selfs["b.inner"] >= 0.004);
        assert!(selfs["a.outer"] >= 0.002 && selfs["a.outer"] < selfs["b.inner"]);
        let total = tr.top_level_seconds();
        assert!((selfs["a.outer"] + selfs["b.inner"] - total).abs() < 1e-9);
        assert_eq!(tr.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::off();
        let v = tr.time("a.x", || 5);
        assert_eq!(v, 5);
        assert!(tr.spans().is_empty() && !tr.enabled());
    }
}
