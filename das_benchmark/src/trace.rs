//! Spans recorded by the benchmark around every call it makes into a
//! layer.
//!
//! The spans live in a preallocated in-memory buffer and are written
//! once, when the run ends, as a chrome trace. Tracing is the
//! benchmark's own: nothing inside the program under test is
//! instrumented. A disabled tracer reads no clock and stores nothing,
//! so the end-to-end metrics are measured with tracing off.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Identifier of a recorded span; [`NO_SPAN`] for "none".
pub type SpanId = u32;

/// The parent of a root span, and the id a disabled tracer hands out.
pub const NO_SPAN: SpanId = u32::MAX;

/// Job field of a span that belongs to no single job.
pub const NO_JOB: u32 = u32::MAX;

/// Ids are `lane << LANE_SHIFT | index`, so the buffers of concurrent
/// load-generator lanes never collide and merge without renumbering.
const LANE_SHIFT: u32 = 24;

/// One call into a layer: `name` is `layer.verb`.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Repetition the call belongs to (`-1` is the warm-up).
    pub rep: i32,
    /// Job the call belongs to, or [`NO_JOB`].
    pub job: u32,
    /// Load-generator lane that made the call (0 is the main thread).
    pub lane: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An open span: close it with [`Tracer::end`].
#[must_use]
pub struct Open(SpanId);

/// The span recorder of one thread.
pub struct Tracer {
    on: bool,
    t0: Instant,
    lane: u32,
    rep: i32,
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            t0: Instant::now(),
            lane: 0,
            rep: 0,
            spans: Vec::new(),
            cap: 0,
            dropped: 0,
        }
    }

    /// A recording tracer with room for `cap` spans; spans beyond that
    /// are counted as dropped, never reallocated for.
    pub fn on(cap: usize) -> Tracer {
        let cap = cap.min((1 << LANE_SHIFT) - 1);
        Tracer {
            on: true,
            spans: Vec::with_capacity(cap),
            cap,
            ..Tracer::off()
        }
    }

    /// Switch recording on or off between repetitions (the traced run
    /// alternates, to price the tracing itself).
    pub fn set_on(&mut self, on: bool) {
        self.on = on && self.cap > 0;
    }

    /// Repetition stamped on the spans recorded from here on.
    pub fn set_rep(&mut self, rep: i32) {
        self.rep = rep;
    }

    /// A tracer for load-generator lane `lane` (1-based; lane 0 is the
    /// main thread) sharing this tracer's clock and state.
    pub fn fork(&self, lane: u32, cap: usize) -> Tracer {
        assert!(lane > 0 && lane < (1 << (32 - LANE_SHIFT)) - 1);
        let cap = if self.on {
            cap.min((1 << LANE_SHIFT) - 1)
        } else {
            0
        };
        Tracer {
            on: self.on,
            t0: self.t0,
            lane,
            rep: self.rep,
            spans: Vec::with_capacity(cap),
            cap,
            dropped: 0,
        }
    }

    /// Take back what a forked lane recorded.
    pub fn absorb(&mut self, lane: Tracer) {
        self.dropped += lane.dropped;
        self.spans.extend(lane.spans);
    }

    /// Open a span under `parent` for job `job`.
    #[inline]
    pub fn begin(&mut self, name: &'static str, parent: SpanId, job: u32) -> Open {
        if !self.on {
            return Open(NO_SPAN);
        }
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return Open(NO_SPAN);
        }
        let id = (self.lane << LANE_SHIFT) | self.spans.len() as u32;
        let now = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: now,
            end_ns: now,
            rep: self.rep,
            job,
            lane: self.lane,
        });
        Open(id)
    }

    /// The id of an open span, to parent its children.
    pub fn id(&self, open: &Open) -> SpanId {
        open.0
    }

    /// Close a span.
    #[inline]
    pub fn end(&mut self, open: Open) {
        if open.0 == NO_SPAN {
            return;
        }
        let idx = (open.0 & ((1 << LANE_SHIFT) - 1)) as usize;
        self.spans[idx].end_ns = self.t0.elapsed().as_nanos() as u64;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its child spans cover. Children on concurrent lanes
/// may overlap each other, so the covered part is the union of the
/// children's intervals clipped to the parent's.
pub fn self_times(spans: &[Span]) -> BTreeMap<SpanId, u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != NO_SPAN {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(cursor);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// Calls and self time of the spans of one name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub self_ns: u64,
}

/// Per-name totals over `spans`.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.self_ns += selfs.get(&s.id).copied().unwrap_or(0);
    }
    out
}

/// The layer of a span name: the part before the first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Serialise `spans` as a chrome trace (`chrome://tracing`, Perfetto):
/// one complete event per span, `pid` 0, `tid` the lane, timestamps in
/// microseconds, and the span's id, parent, repetition and job as
/// `args`.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 160 + 64);
    out.push_str("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"rep\":{},\"job\":{}}}}}",
            s.name,
            layer_of(s.name),
            s.lane,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            if s.parent == NO_SPAN { -1 } else { i64::from(s.parent) },
            s.rep,
            if s.job == NO_JOB { -1 } else { i64::from(s.job) },
        );
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: a,
            end_ns: b,
            rep: 0,
            job: NO_JOB,
            lane: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = vec![
            span(0, NO_SPAN, "rep", 0, 100),
            // Two adjacent children and a gap of 20 at the end.
            span(1, 0, "runtime.submit", 0, 30),
            span(2, 0, "runtime.drain", 30, 80),
            // A grandchild nested in the drain.
            span(3, 2, "runtime.wait", 40, 60),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&0], 20);
        assert_eq!(st[&1], 30);
        assert_eq!(st[&2], 30);
        assert_eq!(st[&3], 20);
    }

    #[test]
    fn overlapping_children_are_covered_once_and_clipped() {
        let spans = vec![
            span(0, NO_SPAN, "rep", 10, 110),
            // Two lanes overlap on [40, 60); one child overhangs the end.
            span(1, 0, "ingress.submit", 20, 60),
            span(2, 0, "ingress.submit", 40, 90),
            span(3, 0, "ingress.drain", 100, 130),
            // A child wholly inside an earlier one adds nothing.
            span(4, 0, "ingress.submit", 45, 50),
        ];
        // Covered: [20, 90) = 70 and [100, 110) = 10.
        assert_eq!(self_times(&spans)[&0], 20);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["ingress.submit"].count, 3);
        assert_eq!(totals["ingress.submit"].self_ns, 40 + 50 + 5);
        assert_eq!(totals["rep"].self_ns, 20);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::off();
        let s = tr.begin("sim.run", NO_SPAN, NO_JOB);
        assert_eq!(tr.id(&s), NO_SPAN);
        tr.end(s);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn tracer_records_parents_lanes_and_drops_beyond_capacity() {
        let mut tr = Tracer::on(3);
        tr.set_rep(2);
        let root = tr.begin("rep", NO_SPAN, NO_JOB);
        let root_id = tr.id(&root);
        let mut lane = tr.fork(1, 8);
        let child = lane.begin("ingress.submit", root_id, 7);
        lane.end(child);
        let a = tr.begin("cluster.drain", root_id, NO_JOB);
        tr.end(a);
        let b = tr.begin("cluster.drain", root_id, NO_JOB);
        tr.end(b);
        let over = tr.begin("cluster.drain", root_id, NO_JOB);
        tr.end(over);
        tr.end(root);
        tr.absorb(lane);
        assert_eq!(tr.dropped(), 1);
        assert_eq!(tr.spans().len(), 4);
        let lane_span = tr
            .spans()
            .iter()
            .find(|s| s.lane == 1)
            .expect("the lane's span was absorbed");
        assert_eq!(lane_span.parent, root_id);
        assert_eq!((lane_span.rep, lane_span.job), (2, 7));
        assert_ne!(lane_span.id, root_id);
        assert!(tr.spans()[0].end_ns >= tr.spans()[2].end_ns);
    }

    #[test]
    fn chrome_trace_is_accepted_by_the_repo_validator() {
        let spans = vec![
            span(0, NO_SPAN, "rep", 0, 5_000),
            span(1, 0, "sim.run", 1_000, 4_000),
        ];
        let text = chrome_json(&spans);
        assert_eq!(das::sim::validate_chrome_json(&text), Ok(2));
        assert_eq!(das::sim::validate_chrome_json(&chrome_json(&[])), Ok(0));
    }
}
