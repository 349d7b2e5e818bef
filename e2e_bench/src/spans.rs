//! Spans the traced replay records around its calls into each layer.
//!
//! Spans live in memory while the benchmark runs and are written out once
//! at the end, so recording costs a `Vec` push and two clock reads.

use std::fmt::Write as _;
use std::time::Instant;

/// Layer name of the span that encloses one whole operation.
pub const OP: &str = "op";

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Operation the span belongs to (shared by every span of one op).
    pub op: usize,
    /// Layer and call, such as `nn.quantize`.
    pub layer: &'static str,
    /// Start, in microseconds since the recorder was created.
    pub start_us: f64,
    /// End, in microseconds since the recorder was created.
    pub end_us: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Length of the interval in microseconds.
    #[must_use]
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// An append-only span store.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new() }
    }

    fn micros(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Records a finished interval and returns its index.
    pub fn record(
        &mut self,
        op: usize,
        layer: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span =
            Span { op, layer, start_us: self.micros(start), end_us: self.micros(end), parent };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a top-level `layer` span of operation `op`; close it with
    /// [`close`](Self::close).
    pub fn open(&mut self, op: usize, layer: &'static str) -> usize {
        let now = Instant::now();
        self.record(op, layer, None, now, now)
    }

    /// Opens the [`OP`] span of operation `op`.
    pub fn open_op(&mut self, op: usize) -> usize {
        self.open(op, OP)
    }

    /// Ends span `index` now.
    pub fn close(&mut self, index: usize) {
        let now = self.micros(Instant::now());
        self.spans[index].end_us = now;
    }

    /// Runs `f` inside a span of `layer` under `parent`.
    pub fn time<T>(&mut self, parent: usize, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let op = self.spans[parent].op;
        self.record(op, layer, Some(parent), start, Instant::now());
        out
    }

    /// Duration of the most recent span in milliseconds (0 when empty).
    #[must_use]
    pub fn last_ms(&self) -> f64 {
        self.spans.last().map_or(0.0, |s| s.duration_us() / 1e3)
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total milliseconds spent in spans of `layer`, divided by `ops`.
    #[must_use]
    pub fn ms_per_op(&self, layer: &str, ops: usize) -> f64 {
        // `fold` from +0.0: an empty `sum` of floats is -0.0.
        let total =
            self.spans.iter().filter(|s| s.layer == layer).fold(0.0, |t, s| t + s.duration_us());
        if ops == 0 {
            0.0
        } else {
            total / 1e3 / ops as f64
        }
    }

    /// Milliseconds of span `index` that its direct children cover
    /// (overlapping children count once).
    #[must_use]
    pub fn covered_ms(&self, index: usize) -> f64 {
        let span = &self.spans[index];
        let children: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(|s| (s.start_us, s.end_us))
            .collect();
        covered(span.start_us, span.end_us, children) / 1e3
    }

    /// The spans as a JSON array, one object per span with its index as
    /// `id`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let sep = if id + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "  {{\"id\": {id}, \"op\": {}, \"layer\": \"{}\", \"start_us\": {:.1}, \
                 \"end_us\": {:.1}, \"parent\": {parent}}}{sep}",
                s.op, s.layer, s.start_us, s.end_us
            );
        }
        out.push(']');
        out
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

/// Length of the union of `intervals` clipped to `[start, end]`.
fn covered(start: f64, end: f64, mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = start;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_coverage_counts_overlaps_once_and_clips() {
        assert_eq!(covered(0.0, 10.0, vec![]), 0.0);
        assert_eq!(covered(0.0, 10.0, vec![(1.0, 3.0), (2.0, 5.0)]), 4.0);
        assert_eq!(covered(0.0, 10.0, vec![(6.0, 8.0), (1.0, 2.0)]), 3.0);
        assert_eq!(covered(0.0, 10.0, vec![(-5.0, 2.0), (9.0, 20.0)]), 3.0);
        assert_eq!(covered(0.0, 10.0, vec![(1.0, 9.0), (2.0, 3.0)]), 8.0);
    }

    #[test]
    fn covered_time_and_per_op_means() {
        let mut rec = Recorder::new();
        let t0 = rec.origin;
        let at = |us: u64| t0 + std::time::Duration::from_micros(us);
        let first = rec.record(0, OP, None, at(0), at(1000));
        rec.record(0, "a", Some(first), at(0), at(600));
        rec.record(0, "b", Some(first), at(500), at(700));
        let second = rec.record(1, OP, None, at(1000), at(2000));
        rec.record(1, "a", Some(second), at(1000), at(2000));
        // Op 0 leaves 300 µs uncovered, op 1 none.
        assert!((rec.covered_ms(first) - 0.7).abs() < 1e-9);
        assert!((rec.covered_ms(second) - 1.0).abs() < 1e-9);
        assert!((rec.ms_per_op("a", 2) - 0.8).abs() < 1e-9);
        assert!((rec.ms_per_op("b", 2) - 0.1).abs() < 1e-9);
        assert!(rec.ms_per_op("missing", 2).is_sign_positive());
        let json = rec.to_json();
        assert!(json.contains("\"layer\": \"b\""));
        assert!(json.contains("\"parent\": null"));
    }

    #[test]
    fn timed_children_land_inside_their_op() {
        let mut rec = Recorder::new();
        let op = rec.open_op(7);
        let x = rec.time(op, "work", || (0..1000u64).sum::<u64>());
        rec.close(op);
        assert_eq!(x, 499_500);
        let spans = rec.spans();
        assert_eq!(spans[1].op, 7);
        assert_eq!(spans[1].parent, Some(op));
        assert!(spans[1].start_us >= spans[0].start_us && spans[1].end_us <= spans[0].end_us);
    }
}
