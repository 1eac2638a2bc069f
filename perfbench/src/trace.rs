//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions (no program code is instrumented). Spans of
//! one kernel or one request share an `id`. Nothing is written until
//! the run ends; a layer's self time is its span's duration minus the
//! part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The kernel or request the span belongs to.
    pub id: u64,
    /// Layer name, e.g. `profile` or `serve.server`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds after the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds after the tracer's epoch.
    pub end_ns: u64,
}

/// Per-layer totals over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    /// Number of spans.
    pub count: u64,
    /// Summed span durations, nanoseconds.
    pub total_ns: u64,
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
}

/// Records spans when enabled; a disabled tracer only runs the closures.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch for `at`.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, id: u64, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            id,
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.ns(Instant::now());
        out
    }

    /// Records a span whose bounds were measured elsewhere (for example
    /// from timestamps a request carried). Returns its index, for use as
    /// a parent.
    pub fn record(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            id,
            name,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        Some(self.spans.len() - 1)
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals clipped to it.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = span.start_ns;
                for (start, end) in kids {
                    let start = start.max(cursor);
                    let end = end.min(span.end_ns);
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
                (span.end_ns - span.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Totals per layer name.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotal> {
        let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times()) {
            let total = out.entry(span.name).or_default();
            total.count += 1;
            total.total_ns += span.end_ns - span.start_ns;
            total.self_ns += self_ns;
        }
        out
    }

    /// Summed duration of the spans named in `names` that lie inside
    /// `[start_ns, end_ns]`.
    pub fn covered_by(&self, names: &[&str], start_ns: u64, end_ns: u64) -> u64 {
        self.spans
            .iter()
            .filter(|s| names.contains(&s.name) && s.start_ns >= start_ns && s.end_ns <= end_ns)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// The spans as JSON lines (`id`, `name`, `parent`, `start_ns`,
    /// `dur_ns`, `self_ns`).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, (span, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"id\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"dur_ns\":{},\"self_ns\":{self_ns}}}",
                span.id,
                span.name,
                span.start_ns,
                span.end_ns - span.start_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        let root = t.record(1, "request", None, 0, 100).unwrap();
        t.record(1, "a", Some(root), 10, 40);
        t.record(1, "b", Some(root), 30, 60); // overlaps a: union is 10..60
        t.record(1, "c", Some(root), 90, 150); // clipped to 90..100
        let self_times = t.self_times();
        assert_eq!(self_times[root], 100 - 50 - 10);
        assert_eq!(self_times[1], 30);
        let totals = t.totals();
        assert_eq!(totals["request"].count, 1);
        assert_eq!(totals["b"].total_ns, 30);
    }

    #[test]
    fn nested_closures_record_parents_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        let v = t.span(7, "outer", |t| t.span(7, "inner", |_| 3));
        assert_eq!(v, 3);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        let mut off = Tracer::new(false);
        assert_eq!(off.span(1, "x", |_| 5), 5);
        assert!(off.record(1, "y", None, 0, 1).is_none());
        assert!(off.spans().is_empty());
    }
}
