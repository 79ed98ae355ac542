//! Execution tracing: per-core task spans, utilisation accounting, an
//! ASCII Gantt view, and the multi-node merge behind the cluster's
//! unified chrome trace.
//!
//! Tracing is opt-in ([`crate::Simulator::record_trace`]) because the
//! paper-sized runs commit tens of thousands of tasks; when enabled, one
//! [`TraceSpan`] is recorded per participating core per assembly, from
//! rendezvous to commit.

use das_core::metrics::TraceSpan;
use das_core::TaskTypeId;
use std::fmt::Write as _;

/// A completed run's trace.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// All spans, in commit order.
    pub spans: Vec<TraceSpan>,
    /// Total simulated time of the run.
    pub makespan: f64,
    /// Number of cores of the platform.
    pub(crate) num_cores: usize,
}

impl Trace {
    /// Busy fraction of each core over the makespan.
    pub fn utilization(&self) -> Vec<f64> {
        let mut busy = vec![0.0; self.num_cores];
        for s in &self.spans {
            busy[s.core] += s.duration();
        }
        if self.makespan > 0.0 {
            for b in &mut busy {
                *b /= self.makespan;
            }
        }
        busy
    }

    /// Spans executed by `core`, in time order.
    pub(crate) fn spans_of_core(&self, core: usize) -> Vec<TraceSpan> {
        let mut v: Vec<TraceSpan> = self
            .spans
            .iter()
            .filter(|s| s.core == core)
            .copied()
            .collect();
        v.sort_by(|a, b| a.start.total_cmp(&b.start));
        v
    }

    /// Verify the physical invariant that no core executes two spans at
    /// once. Returns the first overlapping pair if any.
    pub fn find_overlap(&self) -> Option<(TraceSpan, TraceSpan)> {
        for core in 0..self.num_cores {
            let v = self.spans_of_core(core);
            for w in v.windows(2) {
                if w[1].start < w[0].end - 1e-12 {
                    return Some((w[0], w[1]));
                }
            }
        }
        None
    }

    /// Export the trace in the Chrome Trace Event JSON format
    /// (`chrome://tracing`, Perfetto, Speedscope all load it). One
    /// complete (`"ph":"X"`) event per span; cores map to Chrome's
    /// thread ids, so the UI renders the same rows as [`Trace::gantt`].
    /// Timestamps are microseconds, as the format requires.
    ///
    /// The JSON is emitted by hand — the format is flat and all fields
    /// are numbers or already-escaped short strings, so pulling in a
    /// serialisation crate is not warranted. Numeric fields are
    /// sanitised through `json_num`: JSON has no `NaN`/`Infinity`
    /// tokens, so a span with a non-finite timestamp (e.g. a task that
    /// never started) must not poison the whole file, and a negative
    /// duration (clock skew between merged sources) is clamped to the
    /// zero-duration span the format does allow.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 128);
        out.push_str("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_chrome_event(&mut out, 0, s);
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }

    /// Per-task-type aggregate: `(spans, total busy seconds, mean span
    /// duration)`, sorted by type id. The quick answer to "where did the
    /// time go" without loading the full trace into a viewer.
    pub fn by_type(&self) -> Vec<(TaskTypeId, usize, f64, f64)> {
        let mut agg: std::collections::BTreeMap<u16, (usize, f64)> = Default::default();
        for s in &self.spans {
            let e = agg.entry(s.ty).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += s.duration();
        }
        agg.into_iter()
            .map(|(ty, (n, total))| (TaskTypeId(ty), n, total, total / n as f64))
            .collect()
    }

    /// An ASCII Gantt chart: one row per core, `cols` characters of
    /// timeline; each cell shows the task type digit occupying most of
    /// that time slice ('.' = idle).
    pub fn gantt(&self, cols: usize) -> String {
        assert!(cols > 0);
        let mut out = String::new();
        let dt = self.makespan / cols as f64;
        if dt <= 0.0 {
            return out;
        }
        for core in 0..self.num_cores {
            let spans = self.spans_of_core(core);
            let _ = write!(out, "C{core:<3}|");
            for c in 0..cols {
                let (t0, t1) = (c as f64 * dt, (c + 1) as f64 * dt);
                // Busy time per task type within the slice.
                let mut best: Option<(f64, u16)> = None;
                let mut busy = 0.0;
                let mut per_ty: std::collections::BTreeMap<u16, f64> = Default::default();
                for s in &spans {
                    let overlap = (s.end.min(t1) - s.start.max(t0)).max(0.0);
                    if overlap > 0.0 {
                        busy += overlap;
                        *per_ty.entry(s.ty).or_insert(0.0) += overlap;
                    }
                }
                for (ty, v) in per_ty {
                    if best.is_none_or(|(b, _)| v > b) {
                        best = Some((v, ty));
                    }
                }
                let ch = if busy < dt * 0.5 {
                    '.'
                } else {
                    char::from_digit(u32::from(best.map(|(_, t)| t).unwrap_or(0) % 10), 10)
                        .unwrap_or('#')
                };
                out.push(ch);
            }
            out.push('\n');
        }
        out
    }

    /// A trace of the spans returned by `Executor::take_trace_spans`,
    /// its makespan the latest finite span end; used by the cluster's
    /// unified-trace assembly.
    pub(crate) fn from_trace_spans(num_cores: usize, spans: &[TraceSpan]) -> Trace {
        let makespan = spans
            .iter()
            .map(|s| s.end)
            .filter(|e| e.is_finite())
            .fold(0.0, f64::max);
        Trace {
            spans: spans.to_vec(),
            makespan,
            num_cores,
        }
    }
}

/// Sanitise a value for JSON emission: JSON has no `NaN` or `Infinity`
/// tokens, so non-finite values become `0.0` (and the caller clamps
/// durations to `>= 0`). A trace with one pathological span must still
/// load in `chrome://tracing`.
fn json_num(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Emit one complete (`"ph":"X"`) trace event for `s` under process id
/// `pid` (0 for single-node traces, the node index in the cluster
/// merge).
fn push_chrome_event(out: &mut String, pid: usize, s: &TraceSpan) {
    let ts = json_num(s.start * 1e6);
    let dur = json_num(s.duration() * 1e6).max(0.0);
    let _ = write!(
        out,
        "{{\"name\":\"T{} t{}\",\"cat\":\"task\",\"ph\":\"X\",\
         \"ts\":{ts:.3},\"dur\":{dur:.3},\"pid\":{pid},\"tid\":{},\
         \"args\":{{\"place\":\"(C{},{})\",\"tag\":{}}}}}",
        s.ty, s.task, s.core, s.leader, s.width, s.tag,
    );
}

/// The multi-node merge of per-node [`Trace`]s: one unified Chrome
/// trace where **pid = node, tid = core** — `chrome://tracing` renders
/// one process group per node with its cores as rows, which is exactly
/// the cluster-wide Gantt a triage session wants.
///
/// All node traces share the session clock (each node's spans are on
/// its own session timeline, and the cluster's nodes execute the same
/// stream epoch), so no time normalisation is applied.
#[derive(Clone, Debug, Default)]
pub struct ClusterTrace {
    /// `(node index, that node's trace)`, ascending node index.
    pub nodes: Vec<(usize, Trace)>,
}

impl ClusterTrace {
    /// Assemble from per-node numeric span lists (the shape
    /// `das_cluster::Cluster::collect_trace_spans` returns).
    pub fn from_node_spans(nodes: &[(usize, usize, Vec<TraceSpan>)]) -> ClusterTrace {
        ClusterTrace {
            nodes: nodes
                .iter()
                .map(|(node, cores, spans)| (*node, Trace::from_trace_spans(*cores, spans)))
                .collect(),
        }
    }

    /// Total spans across all nodes.
    pub fn total_spans(&self) -> usize {
        self.nodes.iter().map(|(_, t)| t.spans.len()).sum()
    }

    /// The unified Chrome Trace Event JSON: every node's spans with
    /// `pid` = node index, plus one `process_name` metadata event per
    /// node so the UI labels the process groups `node0`, `node1`, ….
    /// Empty node traces (and an empty cluster) emit valid JSON.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + 128 * self.total_spans());
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        for (node, _) in &self.nodes {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{node},\
                 \"args\":{{\"name\":\"node{node}\"}}}}"
            );
        }
        for (node, trace) in &self.nodes {
            for s in &trace.spans {
                if !first {
                    out.push(',');
                }
                first = false;
                push_chrome_event(&mut out, *node, s);
            }
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

/// Strict well-formedness check of a Chrome trace JSON document — a
/// dependency-free recursive-descent parse of the full JSON grammar
/// (the repo's no-new-deps stance rules out a serialisation crate, and
/// a brace-count is not a parse). Returns the number of elements of the
/// top-level `"traceEvents"` array, or the first syntax error with its
/// byte offset. The serialization round-trip tests and the CI example
/// runs pin every exported trace through this.
pub fn validate_chrome_json(s: &str) -> Result<usize, String> {
    let b = s.as_bytes();
    let mut p = JsonParser {
        b,
        i: 0,
        events: None,
    };
    p.skip_ws();
    p.value(true)?;
    p.skip_ws();
    if p.i != b.len() {
        return Err(format!("trailing data at byte {}", p.i));
    }
    p.events
        .ok_or_else(|| "no \"traceEvents\" key in the top-level object".into())
}

struct JsonParser<'a> {
    b: &'a [u8],
    i: usize,
    /// Element count of the top-level `traceEvents` array, once seen.
    events: Option<usize>,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    /// Parse one JSON value. `top` marks the top-level value, whose
    /// `"traceEvents"` member (if it is an object) gets counted.
    fn value(&mut self, top: bool) -> Result<(), String> {
        self.skip_ws();
        match self.b.get(self.i) {
            Some(b'{') => self.object(top),
            Some(b'[') => {
                self.array()?;
                Ok(())
            }
            Some(b'"') => self.string().map(|_| ()),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            _ => Err(format!("unexpected byte at {}", self.i)),
        }
    }

    fn object(&mut self, top: bool) -> Result<(), String> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.b.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            if top && key == "traceEvents" {
                if self.b.get(self.i) != Some(&b'[') {
                    return Err(format!(
                        "\"traceEvents\" is not an array at byte {}",
                        self.i
                    ));
                }
                let n = self.array()?;
                self.events = Some(n);
            } else {
                self.value(false)?;
            }
            self.skip_ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }

    /// Parse an array, returning its element count.
    fn array(&mut self) -> Result<usize, String> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(0);
        }
        let mut n = 0;
        loop {
            self.value(false)?;
            n += 1;
            self.skip_ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(n);
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.i;
        loop {
            match self.b.get(self.i) {
                Some(b'"') => {
                    let s = String::from_utf8_lossy(&self.b[start..self.i]).into_owned();
                    self.i += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.b.get(self.i) {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.i += 1;
                        }
                        Some(b'u') => {
                            for k in 1..=4 {
                                if !self.b.get(self.i + k).is_some_and(u8::is_ascii_hexdigit) {
                                    return Err(format!("bad \\u escape at byte {}", self.i));
                                }
                            }
                            self.i += 5;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.i)),
                    }
                }
                Some(c) if *c >= 0x20 => self.i += 1,
                _ => return Err(format!("unterminated string at byte {start}")),
            }
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn number(&mut self) -> Result<(), String> {
        let start = self.i;
        if self.b.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        let digits = |p: &mut Self| {
            let s = p.i;
            while p.b.get(p.i).is_some_and(u8::is_ascii_digit) {
                p.i += 1;
            }
            p.i > s
        };
        if !digits(self) {
            return Err(format!("bad number at byte {start}"));
        }
        if self.b.get(self.i) == Some(&b'.') {
            self.i += 1;
            if !digits(self) {
                return Err(format!("bad fraction at byte {start}"));
            }
        }
        if matches!(self.b.get(self.i), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.b.get(self.i), Some(b'+' | b'-')) {
                self.i += 1;
            }
            if !digits(self) {
                return Err(format!("bad exponent at byte {start}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(core: usize, start: f64, end: f64, ty: u16) -> TraceSpan {
        TraceSpan {
            core,
            start,
            end,
            task: 0,
            ty,
            leader: core,
            width: 1,
            tag: 0,
        }
    }

    #[test]
    fn utilization_accounts_busy_time() {
        let t = Trace {
            spans: vec![span(0, 0.0, 1.0, 0), span(1, 0.0, 0.5, 1)],
            makespan: 2.0,
            num_cores: 2,
        };
        let u = t.utilization();
        assert!((u[0] - 0.5).abs() < 1e-12);
        assert!((u[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn overlap_detection() {
        let ok = Trace {
            spans: vec![span(0, 0.0, 1.0, 0), span(0, 1.0, 2.0, 0)],
            makespan: 2.0,
            num_cores: 1,
        };
        assert_eq!(ok.find_overlap(), None);
        let bad = Trace {
            spans: vec![span(0, 0.0, 1.0, 0), span(0, 0.5, 2.0, 0)],
            makespan: 2.0,
            num_cores: 1,
        };
        assert!(bad.find_overlap().is_some());
    }

    #[test]
    fn chrome_json_is_well_formed_and_complete() {
        let t = Trace {
            spans: vec![span(0, 0.0, 1.0, 3), span(1, 0.5, 2.0, 4)],
            makespan: 2.0,
            num_cores: 2,
        };
        let j = t.to_chrome_json();
        assert!(j.starts_with("{\"traceEvents\":["));
        assert!(j.ends_with("\"displayTimeUnit\":\"ms\"}"));
        assert_eq!(j.matches("\"ph\":\"X\"").count(), 2);
        assert!(j.contains("\"ts\":0.000"));
        assert!(j.contains("\"dur\":1000000.000")); // 1 s in µs
        assert!(j.contains("\"tid\":1"));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn chrome_json_empty_trace() {
        let t = Trace::default();
        let j = t.to_chrome_json();
        assert!(j.contains("\"traceEvents\":[]"));
    }

    #[test]
    fn by_type_aggregates() {
        let t = Trace {
            spans: vec![
                span(0, 0.0, 1.0, 3),
                span(1, 0.0, 2.0, 3),
                span(0, 2.0, 2.5, 7),
            ],
            makespan: 3.0,
            num_cores: 2,
        };
        let agg = t.by_type();
        assert_eq!(agg.len(), 2);
        let (ty, n, total, mean) = agg[0];
        assert_eq!((ty, n), (TaskTypeId(3), 2));
        assert!((total - 3.0).abs() < 1e-12);
        assert!((mean - 1.5).abs() < 1e-12);
        assert_eq!(agg[1].0, TaskTypeId(7));
    }

    #[test]
    fn chrome_json_round_trips_through_a_full_parse() {
        let t = Trace {
            spans: vec![span(0, 0.0, 1.0, 3), span(1, 0.5, 2.0, 4)],
            makespan: 2.0,
            num_cores: 2,
        };
        assert_eq!(validate_chrome_json(&t.to_chrome_json()), Ok(2));
    }

    #[test]
    fn empty_trace_is_valid_chrome_json() {
        assert_eq!(
            validate_chrome_json(&Trace::default().to_chrome_json()),
            Ok(0)
        );
        assert_eq!(
            validate_chrome_json(&ClusterTrace::default().to_chrome_json()),
            Ok(0)
        );
    }

    #[test]
    fn zero_duration_and_pathological_spans_stay_valid_json() {
        let t = Trace {
            spans: vec![
                span(0, 1.0, 1.0, 3),           // zero duration
                span(0, 2.0, 1.5, 3),           // negative duration (clock skew)
                span(1, f64::NAN, f64::NAN, 4), // non-finite timestamps
                span(1, 0.0, f64::INFINITY, 4), // non-finite duration
            ],
            makespan: 2.0,
            num_cores: 2,
        };
        let j = t.to_chrome_json();
        assert_eq!(validate_chrome_json(&j), Ok(4));
        assert!(!j.contains("NaN") && !j.contains("inf") && !j.contains("-"));
    }

    #[test]
    fn cluster_trace_merges_with_pid_per_node() {
        let t0 = Trace {
            spans: vec![span(0, 0.0, 1.0, 3)],
            makespan: 1.0,
            num_cores: 2,
        };
        let t1 = Trace {
            spans: vec![span(1, 0.5, 2.0, 4), span(0, 0.0, 0.5, 4)],
            makespan: 2.0,
            num_cores: 2,
        };
        let ct = ClusterTrace {
            nodes: vec![(0, t0), (1, t1)],
        };
        assert_eq!(ct.total_spans(), 3);
        let j = ct.to_chrome_json();
        // 3 complete events + 2 process_name metadata events.
        assert_eq!(validate_chrome_json(&j), Ok(5));
        assert!(j.contains("\"pid\":0") && j.contains("\"pid\":1"));
        assert!(j.contains("\"name\":\"node1\""));
    }

    #[test]
    fn trace_spans_round_trip_through_the_numeric_form() {
        let t = Trace {
            spans: vec![span(0, 0.0, 1.0, 3), span(1, 0.5, 2.0, 4)],
            makespan: 2.0,
            num_cores: 2,
        };
        let back = Trace::from_trace_spans(2, &t.spans);
        assert_eq!(back.spans, t.spans);
        assert!((back.makespan - t.makespan).abs() < 1e-12);
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"traceEvents\":[}",
            "{\"traceEvents\":[{\"ts\":NaN}]}",
            "{\"traceEvents\":[]} trailing",
            "{\"traceEvents\":[{\"a\":1,}]}",
            "{\"traceEvents\":{}}",
            "{\"displayTimeUnit\":\"ms\"}",
        ] {
            assert!(validate_chrome_json(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn gantt_renders_rows_and_idle() {
        let t = Trace {
            spans: vec![span(0, 0.0, 1.0, 3)],
            makespan: 2.0,
            num_cores: 2,
        };
        let g = t.gantt(10);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains('3'));
        assert!(lines[0].ends_with("....."));
        assert!(lines[1].ends_with(".........."));
    }
}
