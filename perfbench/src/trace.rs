//! In-memory span recorder for the traced run.
//!
//! A span is a named interval with a parent; spans of one request share the
//! request's id.  Spans are kept in memory and written out once, at exit.  A
//! layer's *self time* is its span's duration minus the part of that interval
//! its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `sms.schedule`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request the span belongs to (`u32::MAX` outside any request).
    pub request: u32,
}

/// Aggregate of every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    /// Number of spans.
    pub calls: u64,
    /// Summed span durations, nanoseconds.
    pub total_ns: u64,
    /// Summed self times, nanoseconds.
    pub self_ns: u64,
}

/// Records spans and named counters.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u32,
    counters: BTreeMap<&'static str, u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: u32::MAX,
            counters: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Mark the spans opened from now on as belonging to request `id`.
    pub fn set_request(&mut self, id: u32) {
        self.request = id;
    }

    /// Run `f` inside a span named `name`, nested under the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Add `n` to the counter `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// The counters recorded so far.
    pub fn counters(&self) -> &BTreeMap<&'static str, u64> {
        &self.counters
    }

    /// Per-name totals: call count, summed duration and summed self time.
    pub fn layer_totals(&self) -> BTreeMap<&'static str, LayerTotal> {
        let self_ns = self_times(&self.spans);
        let mut totals: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_ns) {
            let t = totals.entry(span.name).or_default();
            t.calls += 1;
            t.total_ns += span.end_ns - span.start_ns;
            t.self_ns += own;
        }
        totals
    }

    /// Every span as one JSON object per line.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let request = if s.request == u32::MAX {
                "null".to_string()
            } else {
                s.request.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{request}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, each child clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (start, end) in kids {
                let start = start.max(cursor);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 90, Some(0)),
            span("b.inner", 50, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 40, 70, Some(0)),
            // A child reaching past its parent only covers the parent's part.
            span("c", 90, 120, Some(0)),
        ];
        // Covered: [10, 70) and [90, 100) = 70 ns.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn tracer_nests_spans_and_totals_layers() {
        let mut t = Tracer::new();
        t.set_request(7);
        t.span("outer", |t| {
            t.span("inner", |_| {});
            t.span("inner", |_| {});
        });
        t.count("probes", 3);
        t.count("probes", 4);
        let spans = &t.spans;
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 7));
        let totals = t.layer_totals();
        assert_eq!(totals["inner"].calls, 2);
        assert_eq!(totals["outer"].calls, 1);
        let outer = totals["outer"];
        assert_eq!(outer.self_ns + totals["inner"].total_ns, outer.total_ns);
        assert_eq!(t.counters()["probes"], 7);
        assert_eq!(t.to_json_lines().lines().count(), 3);
    }
}
