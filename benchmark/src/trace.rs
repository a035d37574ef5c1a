//! The benchmark's own in-memory span recorder.
//!
//! Spans wrap only calls the benchmark itself makes into the crates
//! under test (tracing *inside* `mdl-serve` / `Plan::run` is a later
//! change). They are kept in memory and written to
//! `benchmark/out/<workload>.trace.json` once the load is over — never
//! while a measurement is running.

use mdl_obs::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a recorded span; parents are referred to by it.
pub type SpanId = u32;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-prefixed name (`serve.submit`, `nn.plan_run`, ...).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request / cycle / repetition the span belongs to.
    pub request: u64,
}

/// Per-name totals from [`Tracer::summary`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times: duration minus the part of the interval
    /// covered by child spans (overlapping children count once).
    pub self_ns: u64,
}

/// Span sink. A disabled tracer drops everything, so call sites do not
/// branch on whether the run is traced.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// `(window start, slice length)` in ns once [`Tracer::alternate`] is
    /// called: spans starting in an even slice of the window are dropped.
    alternate: Option<(u64, u64)>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new(enabled: bool) -> Self {
        Self { enabled, epoch: Instant::now(), spans: Vec::new(), alternate: None }
    }

    /// Whether a span starting at instant `t` would be kept.
    pub fn keeps_at(&self, t: Instant) -> bool {
        self.keeps(self.at_ns(t))
    }

    /// Nanoseconds since the tracer's epoch.
    pub fn now_ns(&self) -> u64 {
        self.at_ns(Instant::now())
    }

    /// `t` on the tracer's clock (0 for instants before the epoch).
    pub fn at_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// From `window_start_ns` on, keeps only the spans that start in an
    /// odd slice of `slice_ns`. A traced load then alternates between
    /// slices that pay for tracing and slices that do not, on the same
    /// fixture and within the same second or two, and the difference of
    /// their latencies is the tracing overhead — taken side by side, not
    /// from two runs minutes of host drift apart.
    pub fn alternate(&mut self, window_start_ns: u64, slice_ns: u64) {
        self.alternate = Some((window_start_ns, slice_ns.max(1)));
    }

    /// Whether a span starting at `start_ns` is kept.
    fn keeps(&self, start_ns: u64) -> bool {
        self.enabled
            && self
                .alternate
                .is_none_or(|(from, slice)| start_ns < from || ((start_ns - from) / slice) % 2 == 1)
    }

    /// Records a closed top-level span; `None` when tracing is off (or
    /// off for the slice the span starts in, see [`Tracer::alternate`]).
    pub fn root(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        request: u64,
    ) -> Option<SpanId> {
        self.keeps(start_ns).then(|| self.push(name, start_ns, end_ns, None, request))
    }

    /// Records a closed span caused by `parent`. A child follows its
    /// parent: it is kept exactly when the parent was, so a request or a
    /// cycle is traced whole or not at all.
    pub fn child(
        &mut self,
        parent: Option<SpanId>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        request: u64,
    ) {
        if parent.is_some() {
            self.push(name, start_ns, end_ns, parent, request);
        }
    }

    fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        request: u64,
    ) -> SpanId {
        self.spans.push(Span { name, start_ns, end_ns: end_ns.max(start_ns), parent, request });
        (self.spans.len() - 1) as SpanId
    }

    /// Moves the end of an already recorded span: for a parent whose
    /// children are recorded while it is still running.
    pub fn close(&mut self, id: SpanId, end_ns: u64) {
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns.max(span.start_ns);
    }

    /// Times `f` and records it as a top-level span.
    pub fn scope<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.root(name, start, end, request);
        out
    }

    /// Number of spans kept so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Count, total time and self time per span name.
    pub fn summary(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            let total = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += total;
            t.self_ns += total - covered(kids, s.start_ns, s.end_ns);
        }
        out
    }

    /// Writes every span as one JSON document. Called after the load.
    pub fn write_json(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::Obj(vec![
                    ("id".into(), Json::u64(id as u64)),
                    ("name".into(), Json::str(s.name)),
                    ("start_ns".into(), Json::u64(s.start_ns)),
                    ("end_ns".into(), Json::u64(s.end_ns)),
                    ("parent".into(), s.parent.map_or(Json::Null, |p| Json::u64(u64::from(p)))),
                    ("request".into(), Json::u64(s.request)),
                ])
            })
            .collect();
        let doc = Json::Obj(vec![
            ("workload".into(), Json::str(workload)),
            ("spans".into(), Json::Arr(spans)),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc.to_string())
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut sum, mut reach) = (0u64, lo);
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            sum += b - a;
            reach = b;
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        let root = t.root("root", 0, 100, 1);
        // two overlapping children cover [10, 60); a third covers [80, 90)
        t.child(root, "child", 10, 40, 1);
        t.child(root, "child", 30, 60, 1);
        t.child(root, "child", 80, 90, 1);
        let s = t.summary();
        assert_eq!(s["root"], NameTotals { count: 1, total_ns: 100, self_ns: 40 });
        assert_eq!(s["child"], NameTotals { count: 3, total_ns: 70, self_ns: 70 });
    }

    #[test]
    fn alternating_tracer_keeps_odd_slices_only() {
        let mut t = Tracer::new(true);
        t.alternate(1_000, 100);
        assert!(t.root("before", 10, 20, 0).is_some(), "before the window: kept");
        let even = t.root("even", 1_050, 1_060, 0);
        assert!(even.is_none());
        // a child follows its parent, wherever it starts itself
        t.child(even, "child", 1_150, 1_160, 0);
        let odd = t.root("odd", 1_150, 1_160, 0);
        assert!(odd.is_some());
        t.child(odd, "child", 1_200, 1_260, 0);
        assert!(t.root("even", 1_200, 1_260, 0).is_none());
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn disabled_tracer_keeps_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.root("x", 0, 1, 0), None);
        assert_eq!(t.scope("y", 0, || 7), 7);
        assert_eq!(t.len(), 0);
    }
}
