//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is a named interval with a parent and an operation id shared by
//! every span of one operation (one circuit partitioned, one job served).
//! Spans are kept in memory and written out once, after the measured
//! work. A disabled tracer reads no clock and stores nothing, so the
//! untraced runs that give the end-to-end numbers pay one branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished (or still open, `end_ns == start_ns`) interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer the interval belongs to, e.g. `def` or `descent`.
    pub name: &'static str,
    /// Operation id shared by every span of one operation.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder with a stack of open spans; new spans nest under the
/// innermost open one.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; with `on == false` every call is a no-op.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// All spans recorded so far, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) {
        if !self.on {
            return;
        }
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let now = self.ns(Instant::now());
        if let Some(index) = self.open.pop() {
            self.spans[index].end_ns = now;
        }
    }

    /// Runs `f` inside a leaf span.
    pub fn leaf<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        self.begin(name, op);
        let out = f();
        self.end();
        out
    }

    /// Records an interval measured elsewhere (e.g. on a solver thread)
    /// under `parent`, or under the innermost open span when `parent` is
    /// `None`. Returns the new span's index.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let span = Span {
            name,
            op,
            parent: parent.or_else(|| self.open.last().copied()),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Index of the innermost open span.
    pub fn current(&self) -> Option<usize> {
        self.open.last().copied()
    }

    /// The spans as JSON lines, each with its computed self time.
    pub fn to_jsonl(&self) -> String {
        let own = self_times_ns(&self.spans);
        let mut out = String::new();
        for (index, (span, self_ns)) in self.spans.iter().zip(own).enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{index},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                span.name, span.op, span.start_ns, span.end_ns
            );
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children. Children that overlap each other — parallel
/// restarts of one solve — cover their union once, not their sum.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent.and_then(|p| spans.get(p)) {
            let clipped = (
                span.start_ns.max(parent.start_ns),
                span.end_ns.min(parent.end_ns),
            );
            if clipped.0 < clipped.1 {
                if let Some(list) = span.parent.and_then(|p| children.get_mut(p)) {
                    list.push(clipped);
                }
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut covered)| span.duration_ns().saturating_sub(union_ns(&mut covered)))
        .collect()
}

/// Total length of the union of `intervals`.
fn union_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = 0u64;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Self time summed per span name, in nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_name = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times_ns(spans)) {
        *by_name.entry(span.name).or_insert(0) += own;
    }
    by_name
}

/// Wall time summed per span name, in nanoseconds.
pub fn wall_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_name = BTreeMap::new();
    for span in spans {
        *by_name.entry(span.name).or_insert(0) += span.duration_ns();
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let spans = [span("def", None, 10, 35)];
        assert_eq!(self_times_ns(&spans), vec![25]);
    }

    #[test]
    fn sequential_children_are_subtracted() {
        let spans = [
            span("partition", None, 0, 100),
            span("def", Some(0), 0, 30),
            span("solve", Some(0), 30, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![10, 30, 60]);
    }

    #[test]
    fn overlapping_parallel_restarts_cover_their_union() {
        // A solve whose four restarts run two at a time on two cores:
        // restarts 0/1 overlap, 2/3 overlap, and restart 2 starts before
        // restart 1 ends.
        let spans = [
            span("solve", None, 0, 1000),
            span("restart", Some(0), 100, 600),
            span("restart", Some(0), 100, 500),
            span("restart", Some(0), 550, 900),
            span("restart", Some(0), 560, 880),
            // Descent and refine inside restart 0.
            span("descent", Some(1), 100, 400),
            span("refine", Some(1), 400, 590),
        ];
        let own = self_times_ns(&spans);
        // Union of the restarts is [100, 900]: 800 ns of 1000 covered.
        assert_eq!(own[0], 200);
        assert_eq!(own[1], 500 - 300 - 190);
        assert_eq!(&own[2..5], &[400, 350, 320]);
        assert_eq!(&own[5..], &[300, 190]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["restart"], 10 + 400 + 350 + 320);
        // Parallel restarts' wall time exceeds the solve's: that excess is
        // the overlap the solver reports.
        assert_eq!(wall_time_by_name(&spans)["restart"], 500 + 400 + 350 + 320);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = [
            span("solve", None, 100, 200),
            span("restart", Some(0), 50, 150),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 100]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        tracer.begin("partition", 1);
        let value = tracer.leaf("def", 1, || 7);
        tracer.end();
        let now = Instant::now();
        assert_eq!(tracer.record("x", 1, None, now, now), None);
        assert_eq!(value, 7);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_nests_under_the_open_span() {
        let mut tracer = Tracer::new(true);
        tracer.begin("partition", 3);
        tracer.leaf("def", 3, || ());
        tracer.end();
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 3);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(tracer.to_jsonl().lines().count(), 2);
    }
}
