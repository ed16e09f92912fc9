//! In-memory spans for the traced run: one span around each call the
//! benchmark makes into a layer's public API, kept in memory and folded
//! into a per-layer table when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was called, e.g. `server.publish`.
    pub name: &'static str,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Work items the call processed (reports, queries, …).
    pub items: u64,
}

impl Span {
    /// Duration, nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder. Spans of one thread go in one recorder; recorders
/// of several threads are merged when the run ends.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty recorder timing from `origin`.
    pub fn new(origin: Instant) -> Self {
        Spans {
            origin,
            spans: Vec::new(),
        }
    }

    /// The instant span times count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns: now,
            end_ns: now,
            items: 1,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`, recording the items it processed.
    pub fn close(&mut self, id: usize, items: u64) {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.items = items;
    }

    /// Runs `f` inside a span of one item.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent);
        let out = f();
        self.close(id, 1);
        out
    }

    /// Appends another recorder's spans (same origin), keeping parents.
    pub fn merge(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations (µs per item) of every span called `name`.
    pub fn per_item_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.items > 0)
            .map(|s| s.ns() as f64 / 1e3 / s.items as f64)
            .collect()
    }

    /// Total duration (ns) and total items of every span called `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + s.ns(), n + s.items))
    }

    /// Per-name totals: `(calls, items, total ns, self ns)`, where self
    /// time is a span's duration minus that of its direct children.
    pub fn table(&self) -> BTreeMap<&'static str, Row> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut rows: BTreeMap<&'static str, Row> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let row = rows.entry(s.name).or_default();
            row.calls += 1;
            row.items += s.items;
            row.total_ns += s.ns();
            row.self_ns += s.ns().saturating_sub(children);
        }
        rows
    }
}

/// One line of the per-layer table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Row {
    /// Spans recorded.
    pub calls: u64,
    /// Items those spans processed.
    pub items: u64,
    /// Summed durations, nanoseconds.
    pub total_ns: u64,
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            start_ns: start,
            end_ns: end,
            items: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut rec = Spans::new(Instant::now());
        rec.spans = vec![
            span("batch", None, 0, 100),
            span("ingest", Some(0), 10, 40),
            span("publish", Some(0), 40, 90),
            span("batch", None, 100, 150),
            span("ingest", Some(3), 100, 140),
        ];
        let table = rec.table();
        assert_eq!(table["batch"].calls, 2);
        assert_eq!(table["batch"].total_ns, 150);
        assert_eq!(table["batch"].self_ns, 20 + 10);
        assert_eq!(table["ingest"].self_ns, 70);
        assert_eq!(table["publish"].self_ns, 50);
        assert_eq!(rec.total("ingest"), (70, 2));
    }

    #[test]
    fn merge_rebases_parents() {
        let origin = Instant::now();
        let mut a = Spans::new(origin);
        a.spans = vec![span("x", None, 0, 10)];
        let mut b = Spans::new(origin);
        b.spans = vec![span("y", None, 0, 10), span("z", Some(0), 2, 4)];
        a.merge(b);
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(a.table()["y"].self_ns, 8);
    }

    #[test]
    fn per_item_divides_by_items() {
        let mut rec = Spans::new(Instant::now());
        rec.spans = vec![Span {
            items: 4,
            ..span("rank", None, 0, 8_000)
        }];
        assert_eq!(rec.per_item_us("rank"), vec![2.0]);
    }
}
