//! Wire format of the cluster control/stats plane.
//!
//! `das_msg` payloads are flat `Vec<f64>` (the substrate models MPI
//! ghost-cell rows), so everything crossing a node boundary — commands,
//! acknowledgements, job records, extras counters — is encoded into
//! f64 slots here. All integer fields that transit the wire (job ids,
//! task counts, tags) are far below 2^53, so the f64 round-trip is
//! exact; timestamps are f64 on both sides already, so job records
//! decode **bit-identically** — the property the 1-node differential
//! test (`tests/cluster_exec.rs`) pins.
//!
//! Each direction has one typed frame — [`Ctrl`] dispatcher → node,
//! [`Reply`] node → dispatcher — with its `encode`/`decode` pair side
//! by side. The first slot of every frame is a tag drawn from a
//! fieldless enum per family (two tags of one family cannot share a
//! value, and every `match` over a family is wildcard-free), a reply
//! names its own kind (decoding needs no memory of the command it
//! answers), and a payload that names no tag or ends early decodes to
//! a typed [`FrameError`] — never to a guessed value.

use das_core::exec::{ExecError, ExecExtras};
use das_core::jobs::{JobClass, JobId, JobStats, StreamStats};
use das_core::metrics::{NodeSnapshot, TraceSpan, TRACE_SPAN_SLOTS};
use das_msg::Payload;

/// Dispatcher → node commands: one encoded [`Ctrl`] per payload.
pub(crate) const T_CTRL: u32 = 1;
/// Node → dispatcher acknowledgements: one encoded [`Reply`] per
/// command.
pub(crate) const T_ACK: u32 = 2;
/// Node → dispatcher unsolicited load reports (`[outstanding_jobs]`),
/// pushed before every acknowledgement so the dispatcher's routing view
/// is current by the time a command completes. Collapsed to the newest
/// report with [`das_msg::Endpoint::try_recv_latest`].
pub(crate) const T_LOAD: u32 = 3;
/// Node → dispatcher unsolicited metrics snapshots
/// ([`NodeSnapshot::to_values`]), pushed immediately *before* the load
/// report they ride with — the dispatcher's keep-latest read then
/// always observes a snapshot at least as fresh as the load value it
/// routes on. The pair shares **one** fault decision: a
/// `DropLoadReports`/`DelayLoadReports` token that suppresses (or
/// staleness-shifts) the load report does the same to the snapshot.
/// Cumulative counters make the stream loss-tolerant: any later
/// snapshot subsumes a dropped one, and a misframed one
/// ([`NodeSnapshot::from_values`] → `None`) only costs freshness.
pub(crate) const T_METRICS: u32 = 4;

/// The dispatcher's rank on every per-node link.
pub(crate) const DISPATCHER: usize = 0;
/// The node's rank on its own link: each node talks to the dispatcher
/// over a private 2-rank communicator, so membership churn never
/// resizes a shared rank space and a dead node can never wedge a
/// collective.
pub(crate) const NODE: usize = 1;

/// Why a payload is not a frame. The receiver treats either as a
/// protocol bug (both ends are built from this file), never as data.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum FrameError {
    /// A tag slot holds a value no tag of its family has.
    UnknownTag(f64),
    /// The payload ended before the frame's fixed fields did.
    Truncated,
}

/// One family of tags: a fieldless enum with its slot codec.
macro_rules! tags {
    ($(#[$doc:meta])* $name:ident { $($tag:ident = $val:literal),+ $(,)? }) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq)]
        enum $name {
            $($tag = $val),+
        }

        impl $name {
            fn of(slot: f64) -> Result<Self, FrameError> {
                $(if slot == f64::from($name::$tag) {
                    return Ok($name::$tag);
                })+
                Err(FrameError::UnknownTag(slot))
            }
        }

        impl From<$name> for f64 {
            fn from(tag: $name) -> f64 {
                f64::from(tag as u8)
            }
        }
    };
}

tags!(
    /// First slot of a [`Ctrl`] frame.
    Op { Submit = 1, Wait = 2, Drain = 3, Shutdown = 4, PullTrace = 5 }
);
tags!(
    /// First slot of a [`Reply`] frame.
    Kind { Admitted = 1, Job = 2, Records = 3, Summary = 4, Trace = 5, Err = 6 }
);
tags!(
    /// Second slot of a [`Kind::Err`] reply: which [`ExecError`].
    Code { Rejected = 1, Failed = 2, UnknownTicket = 3, Overloaded = 4, NodeFailed = 5, Timeout = 6 }
);

/// Cursor over a payload's slots; running out is
/// [`FrameError::Truncated`].
struct Slots<'a>(&'a [f64]);

impl<'a> Slots<'a> {
    fn next(&mut self) -> Result<f64, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn take(&mut self, n: usize) -> Result<&'a [f64], FrameError> {
        if self.0.len() < n {
            return Err(FrameError::Truncated);
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }
}

/// A dispatcher → node command.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Ctrl {
    /// Admit the next `k` specs from the in-process spec channel as one
    /// batch (graphs never transit the payload format — task closures
    /// could not). One frame carries the whole sub-batch, whatever its
    /// size; answered by [`Reply::Admitted`].
    Submit { k: usize },
    /// Wait for the job with this node-local id; answered by
    /// [`Reply::Job`].
    Wait { local: u64 },
    /// Execute and retire everything outstanding; answered by
    /// [`Reply::Drained`] whose body is the completion records, or —
    /// for `summary` — the node's post-drain snapshot instead (the
    /// sketch-backed replacement for shipping every record across the
    /// wire solely to compute cluster-wide percentiles).
    Drain { summary: bool },
    /// Exit the agent loop; no reply.
    Shutdown,
    /// Surrender the accumulated execution trace spans (draining the
    /// node's buffer); answered by [`Reply::Trace`].
    PullTrace,
}

impl Ctrl {
    pub(crate) fn encode(self) -> Payload {
        match self {
            Ctrl::Submit { k } => vec![Op::Submit.into(), k as f64],
            Ctrl::Wait { local } => vec![Op::Wait.into(), local as f64],
            Ctrl::Drain { summary } => vec![Op::Drain.into(), f64::from(u8::from(summary))],
            Ctrl::Shutdown => vec![Op::Shutdown.into()],
            Ctrl::PullTrace => vec![Op::PullTrace.into()],
        }
    }

    /// A missing argument slot is [`FrameError::Truncated`], never an
    /// aliased value (`-1.0 as u64` would saturate to 0, a valid
    /// node-local job id).
    pub(crate) fn decode(p: &[f64]) -> Result<Ctrl, FrameError> {
        let mut s = Slots(p);
        Ok(match Op::of(s.next()?)? {
            Op::Submit => Ctrl::Submit {
                k: s.next()? as usize,
            },
            Op::Wait => Ctrl::Wait {
                local: s.next()? as u64,
            },
            Op::Drain => Ctrl::Drain {
                summary: s.next()? != 0.0,
            },
            Op::Shutdown => Ctrl::Shutdown,
            Op::PullTrace => Ctrl::PullTrace,
        })
    }
}

/// One node's drain epoch: a header that cross-checks whatever body
/// follows, the node's extras, and *either* the completion records *or*
/// the post-drain snapshot.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Drained {
    pub jobs: u64,
    pub tasks: u64,
    /// First arrival and last completion of the epoch (not a pre-folded
    /// span), so the dispatcher can compute the *global* stream span
    /// across nodes — identical to what `StreamStats::from_jobs` would
    /// report over the merged records. An empty epoch ships the fold
    /// identities (`t0 = +inf`, `t1 = 0`).
    pub t0: f64,
    pub t1: f64,
    pub extras: ExecExtras,
    pub body: DrainBody,
}

#[derive(Clone, Debug, PartialEq)]
pub(crate) enum DrainBody {
    Records(Vec<JobStats>),
    Snapshot(Box<NodeSnapshot>),
}

impl Drained {
    /// The reply to a drain that completed `stats`: the header is read
    /// off the records, which stay the body unless a `snapshot` takes
    /// their place.
    pub(crate) fn new(
        stats: StreamStats,
        extras: ExecExtras,
        snapshot: Option<NodeSnapshot>,
    ) -> Self {
        Drained {
            jobs: stats.jobs.len() as u64,
            tasks: stats.tasks as u64,
            t0: stats
                .jobs
                .iter()
                .map(|j| j.arrival)
                .fold(f64::INFINITY, f64::min),
            t1: stats.jobs.iter().map(|j| j.completed).fold(0.0, f64::max),
            extras,
            body: snapshot.map_or(DrainBody::Records(stats.jobs), |s| {
                DrainBody::Snapshot(Box::new(s))
            }),
        }
    }
}

/// A node → dispatcher acknowledgement.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Reply {
    /// The node-local job ids of an admitted sub-batch, in sub-batch
    /// order.
    Admitted(Vec<u64>),
    /// The waited job's completion record.
    Job(JobStats),
    Drained(Drained),
    Trace(Vec<TraceSpan>),
    /// The command failed. Message strings stay in the in-process side
    /// channel; only the variant and its numeric fields cross the wire.
    Err(ExecError),
}

impl Reply {
    pub(crate) fn encode(&self) -> Payload {
        match self {
            Reply::Admitted(locals) => {
                let mut p = vec![Kind::Admitted.into(), locals.len() as f64];
                p.extend(locals.iter().map(|&l| l as f64));
                p
            }
            Reply::Job(job) => {
                let mut p = vec![Kind::Job.into()];
                push_job(&mut p, job);
                p
            }
            Reply::Drained(d) => {
                let kind = match d.body {
                    DrainBody::Records(_) => Kind::Records,
                    DrainBody::Snapshot(_) => Kind::Summary,
                };
                let mut p = vec![kind.into(), d.jobs as f64, d.tasks as f64, d.t0, d.t1];
                push_extras(&mut p, &d.extras);
                match &d.body {
                    DrainBody::Records(recs) => {
                        p.reserve(recs.len() * JOB_SLOTS);
                        recs.iter().for_each(|j| push_job(&mut p, j));
                    }
                    DrainBody::Snapshot(snap) => p.extend(snap.to_values()),
                }
                p
            }
            Reply::Trace(spans) => {
                let mut p = vec![Kind::Trace.into(), spans.len() as f64];
                spans.iter().for_each(|s| s.push_values(&mut p));
                p
            }
            Reply::Err(e) => {
                let (code, fields) = match *e {
                    ExecError::Rejected(_) => (Code::Rejected, vec![]),
                    ExecError::Failed(_) => (Code::Failed, vec![]),
                    ExecError::UnknownTicket(id) => (Code::UnknownTicket, vec![id.0 as f64]),
                    ExecError::Overloaded { outstanding, limit } => {
                        (Code::Overloaded, vec![outstanding as f64, limit as f64])
                    }
                    ExecError::NodeFailed { node } => (Code::NodeFailed, vec![node as f64]),
                    ExecError::Timeout { waited_ms } => (Code::Timeout, vec![waited_ms as f64]),
                };
                [vec![Kind::Err.into(), code.into()], fields].concat()
            }
        }
    }

    /// Decode an acknowledgement that arrived on `link`. The link is
    /// authoritative for [`ExecError::NodeFailed`] (a confused agent
    /// cannot frame a peer); `detail` fetches the node's side-channel
    /// error string for the variants that carry one.
    ///
    /// # Panics
    /// Panics if a variable-length body disagrees with its own header
    /// (a framing bug, never a data condition) — a wire-format
    /// regression trips here, not in a silently wrong percentile.
    pub(crate) fn decode(
        p: &[f64],
        link: usize,
        detail: impl FnOnce() -> String,
    ) -> Result<Reply, FrameError> {
        let mut s = Slots(p);
        Ok(match Kind::of(s.next()?)? {
            Kind::Admitted => {
                let k = s.next()? as usize;
                Reply::Admitted(s.take(k)?.iter().map(|&v| v as u64).collect())
            }
            Kind::Job => Reply::Job(decode_job(s.take(JOB_SLOTS)?)),
            kind @ (Kind::Records | Kind::Summary) => {
                let (jobs, tasks) = (s.next()? as u64, s.next()? as u64);
                let (t0, t1) = (s.next()?, s.next()?);
                let extras = decode_extras(s.take(EXTRAS_SLOTS)?);
                let body = if kind == Kind::Summary {
                    let snap = NodeSnapshot::from_values(s.0);
                    DrainBody::Snapshot(Box::new(snap.expect("drain-summary snapshot misframed")))
                } else {
                    let recs = decode_jobs(s.0);
                    assert_eq!(recs.len() as u64, jobs, "drain job-count mismatch");
                    assert_eq!(
                        recs.iter().map(|j| j.tasks as u64).sum::<u64>(),
                        tasks,
                        "drain task-count mismatch"
                    );
                    DrainBody::Records(recs)
                };
                Reply::Drained(Drained {
                    jobs,
                    tasks,
                    t0,
                    t1,
                    extras,
                    body,
                })
            }
            Kind::Trace => {
                let n = s.next()? as usize;
                assert_eq!(
                    s.0.len(),
                    n * TRACE_SPAN_SLOTS,
                    "trace reply misframed: {n} spans announced, {} slots",
                    s.0.len()
                );
                let spans = s.0.chunks_exact(TRACE_SPAN_SLOTS);
                Reply::Trace(
                    spans
                        .map(|c| TraceSpan::from_values(c).expect("trace span misframed"))
                        .collect(),
                )
            }
            Kind::Err => Reply::Err(match Code::of(s.next()?)? {
                Code::Rejected => ExecError::Rejected(detail()),
                Code::Failed => ExecError::Failed(detail()),
                Code::UnknownTicket => ExecError::UnknownTicket(JobId(s.next()? as u64)),
                Code::Overloaded => ExecError::Overloaded {
                    outstanding: s.next()? as usize,
                    limit: s.next()? as usize,
                },
                Code::NodeFailed => ExecError::NodeFailed { node: link },
                Code::Timeout => ExecError::Timeout {
                    waited_ms: s.next()? as u64,
                },
            }),
        })
    }
}

/// f64 slots per encoded [`JobStats`] record.
const JOB_SLOTS: usize = 8;

fn push_job(out: &mut Payload, j: &JobStats) {
    out.push(j.id.0 as f64);
    out.push(f64::from(j.class.0));
    out.push(j.arrival);
    out.push(j.started);
    out.push(j.completed);
    out.push(j.tasks as f64);
    out.push(if j.deadline.is_some() { 1.0 } else { 0.0 });
    out.push(j.deadline.unwrap_or(0.0));
}

fn decode_job(c: &[f64]) -> JobStats {
    JobStats {
        id: JobId(c[0] as u64),
        class: JobClass(c[1] as u16),
        arrival: c[2],
        started: c[3],
        completed: c[4],
        tasks: c[5] as usize,
        deadline: (c[6] != 0.0).then_some(c[7]),
    }
}

/// Decode a flat run of records ([`JOB_SLOTS`] each).
///
/// # Panics
/// Panics if the length is not a multiple of [`JOB_SLOTS`] (a framing
/// bug, never a data condition).
fn decode_jobs(p: &[f64]) -> Vec<JobStats> {
    assert!(
        p.len().is_multiple_of(JOB_SLOTS),
        "job-record payload misframed: {} slots",
        p.len()
    );
    p.chunks_exact(JOB_SLOTS).map(decode_job).collect()
}

/// The named extras values that transit the wire positionally (after
/// the typed steals/events slots): `failed_steals` from `das-sim`, and
/// the agent's snapshot-fault attribution counters — how many metrics
/// snapshots it sent, and how many a `DropLoadReports` /
/// `DelayLoadReports` fault suppressed or staleness-shifted since the
/// last drain. Zero encodes as absent.
const EXTRAS_KEYS: [&str; 4] = [
    "failed_steals",
    "snapshots_sent",
    "snapshots_dropped",
    "snapshots_delayed",
];

/// f64 slots per encoded [`ExecExtras`].
const EXTRAS_SLOTS: usize = 4 + EXTRAS_KEYS.len();

/// Encode the typed counters plus the named values of [`EXTRAS_KEYS`].
/// The open extension map is string-keyed and cannot transit a numeric
/// payload generally; unknown keys are intentionally left behind on the
/// node — the cluster's merged extras carry the cross-backend counters
/// plus its own per-node attribution values.
fn push_extras(out: &mut Payload, e: &ExecExtras) {
    out.push(if e.steals.is_some() { 1.0 } else { 0.0 });
    out.push(e.steals.unwrap_or(0) as f64);
    out.push(if e.events.is_some() { 1.0 } else { 0.0 });
    out.push(e.events.unwrap_or(0) as f64);
    out.extend(EXTRAS_KEYS.map(|key| e.get(key).unwrap_or(0.0)));
}

fn decode_extras(p: &[f64]) -> ExecExtras {
    let mut e = ExecExtras::default();
    if p[0] != 0.0 {
        e.steals = Some(p[1] as u64);
    }
    if p[2] != 0.0 {
        e.events = Some(p[3] as u64);
    }
    for (key, &v) in EXTRAS_KEYS.iter().zip(&p[4..]) {
        if v != 0.0 {
            e.set(*key, v);
        }
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_core::metrics::ExecProbe;
    use proptest::prelude::*;

    fn job(id: u64, deadline: Option<f64>) -> JobStats {
        JobStats {
            id: JobId(id),
            class: JobClass(7),
            arrival: 0.125,
            started: 0.25,
            completed: 1.5,
            tasks: 42,
            deadline,
        }
    }

    /// Encode → decode on link 0 with an empty detail string.
    fn round_trip(reply: &Reply) -> Reply {
        Reply::decode(&reply.encode(), 0, String::new).expect("well-framed")
    }

    fn records(jobs: Vec<JobStats>, extras: ExecExtras) -> Reply {
        Reply::Drained(Drained::new(StreamStats::from_jobs(jobs), extras, None))
    }

    #[test]
    fn job_records_round_trip_bit_exact() {
        let jobs = vec![job(0, None), job(1, Some(9.75)), job(u32::MAX as u64, None)];
        let reply = records(jobs.clone(), ExecExtras::default());
        assert_eq!(round_trip(&reply), reply);
        let Reply::Drained(d) = reply else {
            unreachable!()
        };
        assert_eq!(d.body, DrainBody::Records(jobs));
        assert_eq!((d.jobs, d.tasks), (3, 126));
        assert_eq!((d.t0, d.t1), (0.125, 1.5), "first arrival, last completion");
        // A wait reply carries one record through the same slots.
        let one = Reply::Job(job(5, Some(2.5)));
        assert_eq!(round_trip(&one), one);
    }

    #[test]
    fn empty_batch_round_trips() {
        let reply = records(Vec::new(), ExecExtras::default());
        assert_eq!(round_trip(&reply), reply);
        let Reply::Drained(d) = reply else {
            unreachable!()
        };
        assert_eq!(d.body, DrainBody::Records(Vec::new()));
        assert_eq!((d.t0, d.t1), (f64::INFINITY, 0.0), "the fold identities");
    }

    #[test]
    #[should_panic(expected = "misframed")]
    fn misframed_records_panic() {
        let mut p = records(vec![job(0, None)], ExecExtras::default()).encode();
        p.truncate(p.len() - 5); // a record cut short
        let _ = Reply::decode(&p, 0, String::new);
    }

    #[test]
    #[should_panic(expected = "job-count mismatch")]
    fn drain_header_cross_checks_the_records() {
        let mut p = records(vec![job(0, None), job(1, None)], ExecExtras::default()).encode();
        p.truncate(p.len() - JOB_SLOTS); // a whole record lost: still frames, header disagrees
        let _ = Reply::decode(&p, 0, String::new);
    }

    #[test]
    fn extras_round_trip_preserves_absence() {
        let mut e = ExecExtras::default();
        e.events = Some(123);
        e.set("failed_steals", 4.0);
        let Reply::Drained(d) = round_trip(&records(Vec::new(), e)) else {
            unreachable!()
        };
        assert_eq!(d.extras.steals, None, "absent stays absent, not Some(0)");
        assert_eq!(d.extras.events, Some(123));
        assert_eq!(d.extras.get("failed_steals"), Some(4.0));
        let Reply::Drained(zero) = round_trip(&records(Vec::new(), ExecExtras::default())) else {
            unreachable!()
        };
        assert!(zero.extras.is_empty());
    }

    fn snapshot(node: u64, seq: u64) -> NodeSnapshot {
        let mut probe = ExecProbe {
            queue_depth: 3,
            jobs_admitted: 40,
            jobs_completed: 37,
            tasks_completed: 1480,
            steals: 12,
            failed_steals: 2,
            events: 9000,
            busy: 1.5,
            capacity: 2.0,
            ptt_residual: 0.25,
            ..ExecProbe::default()
        };
        probe.sojourn.record(0.001);
        probe.sojourn.record(0.25);
        probe.queueing.record(1e-4);
        NodeSnapshot { node, seq, probe }
    }

    #[test]
    fn metrics_snapshots_round_trip_bit_exact() {
        // A T_METRICS frame is the snapshot's own value encoding.
        let s = snapshot(2, 17);
        let decoded = NodeSnapshot::from_values(&s.to_values()).expect("well-framed");
        assert_eq!(decoded, s);
        // Sketch counts survive exactly (the merge path depends on it).
        assert_eq!(decoded.probe.sojourn.count(), 2);
    }

    #[test]
    fn misframed_snapshots_decode_to_none() {
        let mut p = snapshot(0, 1).to_values();
        p.push(0.0); // trailing junk
        assert_eq!(NodeSnapshot::from_values(&p), None);
        assert_eq!(NodeSnapshot::from_values(&[1.0, 2.0]), None);
        assert_eq!(NodeSnapshot::from_values(&[]), None);
    }

    fn span(core: usize, task: u64) -> TraceSpan {
        TraceSpan {
            core,
            start: 0.5,
            end: 1.25,
            task,
            ty: 3,
            leader: 0,
            width: 2,
            tag: 4,
        }
    }

    #[test]
    fn trace_replies_round_trip() {
        let reply = Reply::Trace(vec![span(1, 7), span(0, 8)]);
        assert_eq!(round_trip(&reply), reply);
        let empty = Reply::Trace(Vec::new());
        assert_eq!(round_trip(&empty), empty);
    }

    #[test]
    #[should_panic(expected = "misframed")]
    fn misframed_trace_reply_panics() {
        // Two spans announced, three slots of body.
        let _ = Reply::decode(&[Kind::Trace.into(), 2.0, 1.0, 2.0, 3.0], 0, String::new);
    }

    #[test]
    fn drain_summary_round_trips() {
        let mut extras = ExecExtras::default();
        extras.steals = Some(5);
        extras.set("snapshots_sent", 3.0);
        extras.set("snapshots_dropped", 1.0);
        let stats = StreamStats::from_jobs(vec![job(0, None), job(1, None)]);
        let reply = Reply::Drained(Drained::new(stats, extras, Some(snapshot(1, 9))));
        assert_eq!(round_trip(&reply), reply);
        let Reply::Drained(d) = reply else {
            unreachable!()
        };
        assert_eq!((d.jobs, d.tasks), (2, 84));
        assert_eq!((d.t0, d.t1), (0.125, 1.5));
        assert_eq!(d.extras.get("snapshots_delayed"), None, "zero stays absent");
        assert_eq!(
            d.body,
            DrainBody::Snapshot(Box::new(snapshot(1, 9))),
            "no records ride along"
        );
    }

    #[test]
    #[should_panic(expected = "misframed")]
    fn misframed_summary_panics() {
        let stats = StreamStats::default();
        let reply = Reply::Drained(Drained::new(
            stats,
            ExecExtras::default(),
            Some(snapshot(0, 0)),
        ));
        let mut p = reply.encode();
        p.push(0.0); // trailing junk after the snapshot
        let _ = Reply::decode(&p, 0, String::new);
    }

    #[test]
    fn errors_round_trip_with_detail() {
        // Strings do not cross the wire: the decoded message is the
        // node's side-channel detail, whatever the sender held.
        let decode = |e: ExecError, detail: &str| {
            Reply::decode(&Reply::Err(e).encode(), 0, || detail.to_string())
        };
        assert_eq!(
            decode(ExecError::Rejected("x".into()), "empty graph"),
            Ok(Reply::Err(ExecError::Rejected("empty graph".into())))
        );
        assert_eq!(
            decode(ExecError::Failed("b".into()), "budget"),
            Ok(Reply::Err(ExecError::Failed("budget".into())))
        );
        // The numeric fields survive the payload.
        for e in [
            ExecError::UnknownTicket(JobId(9)),
            ExecError::Overloaded {
                outstanding: 64,
                limit: 64,
            },
            ExecError::Timeout { waited_ms: 1500 },
        ] {
            assert_eq!(decode(e.clone(), ""), Ok(Reply::Err(e)));
        }
    }

    #[test]
    fn failure_errors_round_trip_and_trust_the_link() {
        // NodeFailed: the decoded node is the *link* the frame arrived
        // on, not the payload slot (a confused agent cannot frame a
        // peer).
        let p = Reply::Err(ExecError::NodeFailed { node: 7 }).encode();
        assert_eq!(
            Reply::decode(&p, 2, String::new),
            Ok(Reply::Err(ExecError::NodeFailed { node: 2 }))
        );
    }

    #[test]
    fn unknown_tags_and_short_payloads_are_typed_errors() {
        assert_eq!(Ctrl::decode(&[]), Err(FrameError::Truncated));
        assert_eq!(Ctrl::decode(&[9.0]), Err(FrameError::UnknownTag(9.0)));
        assert_eq!(Ctrl::decode(&[0.0]), Err(FrameError::UnknownTag(0.0)));
        // A wait without its id slot must not alias job 0.
        assert_eq!(Ctrl::decode(&[Op::Wait.into()]), Err(FrameError::Truncated));
        let decode = |p: &[f64]| Reply::decode(p, 0, String::new);
        assert_eq!(decode(&[]), Err(FrameError::Truncated));
        assert_eq!(decode(&[7.0]), Err(FrameError::UnknownTag(7.0)));
        // An error code from a newer protocol revision is named, not
        // degraded to `Failed`.
        assert_eq!(
            decode(&[Kind::Err.into(), 99.0]),
            Err(FrameError::UnknownTag(99.0))
        );
        // Every strict prefix of a fixed-layout frame is truncated.
        for reply in [
            Reply::Admitted(vec![4, 5, 6]),
            Reply::Job(job(1, None)),
            Reply::Err(ExecError::Overloaded {
                outstanding: 1,
                limit: 2,
            }),
        ] {
            let p = reply.encode();
            for cut in 0..p.len() {
                assert_eq!(decode(&p[..cut]), Err(FrameError::Truncated), "{reply:?}");
            }
        }
        let p = records(vec![job(0, None)], ExecExtras::default()).encode();
        for cut in 0..5 + EXTRAS_SLOTS {
            assert_eq!(decode(&p[..cut]), Err(FrameError::Truncated));
        }
    }

    fn arb_job() -> impl Strategy<Value = JobStats> {
        (
            (0u64..1 << 40, 0u16..u16::MAX, 0usize..1 << 30),
            (0.0f64..1e6, 0.0f64..1e6, 0.0f64..1e6),
            prop_oneof![Just(None), (0.0f64..1e6).prop_map(Some)],
        )
            .prop_map(
                |((id, class, tasks), (arrival, started, completed), deadline)| JobStats {
                    id: JobId(id),
                    class: JobClass(class),
                    arrival,
                    started,
                    completed,
                    tasks,
                    deadline,
                },
            )
    }

    fn arb_extras() -> impl Strategy<Value = ExecExtras> {
        let count = || prop_oneof![Just(None), (0u64..1 << 40).prop_map(Some)];
        (count(), count(), 0u32..5, 0u32..5).prop_map(|(steals, events, failed, sent)| {
            let mut e = ExecExtras::default();
            (e.steals, e.events) = (steals, events);
            // Zero is "absent" on the wire, so only non-zero values are
            // set on the way in.
            for (key, v) in [("failed_steals", failed), ("snapshots_sent", sent)] {
                if v != 0 {
                    e.set(key, f64::from(v));
                }
            }
            e
        })
    }

    fn arb_drained() -> impl Strategy<Value = Reply> {
        (
            prop::collection::vec(arb_job(), 0..6),
            arb_extras(),
            prop_oneof![Just(None), (0u64..8, 0u64..100).prop_map(Some)],
        )
            .prop_map(|(jobs, extras, snap): (_, _, Option<(u64, u64)>)| {
                let stats = StreamStats::from_jobs(jobs);
                let snap = snap.map(|(node, seq)| snapshot(node, seq));
                Reply::Drained(Drained::new(stats, extras, snap))
            })
    }

    fn arb_err() -> impl Strategy<Value = ExecError> {
        let n = || 0usize..1 << 30;
        prop_oneof![
            Just(ExecError::Rejected("why".into())),
            Just(ExecError::Failed("why".into())),
            (0u64..1 << 40).prop_map(|id| ExecError::UnknownTicket(JobId(id))),
            (n(), n())
                .prop_map(|(outstanding, limit)| ExecError::Overloaded { outstanding, limit }),
            n().prop_map(|node| ExecError::NodeFailed { node }),
            (0u64..1 << 40).prop_map(|waited_ms| ExecError::Timeout { waited_ms }),
        ]
    }

    fn arb_reply() -> impl Strategy<Value = Reply> {
        prop_oneof![
            prop::collection::vec(0u64..1 << 40, 0..9).prop_map(Reply::Admitted),
            arb_job().prop_map(Reply::Job),
            arb_drained(),
            prop::collection::vec((0usize..64, 0u64..1 << 40), 0..5)
                .prop_map(|v| Reply::Trace(v.into_iter().map(|(c, t)| span(c, t)).collect())),
            arb_err().prop_map(Reply::Err),
        ]
    }

    fn arb_ctrl() -> impl Strategy<Value = Ctrl> {
        prop_oneof![
            (0usize..1 << 30).prop_map(|k| Ctrl::Submit { k }),
            (0u64..1 << 40).prop_map(|local| Ctrl::Wait { local }),
            prop::sample::select(vec![false, true]).prop_map(|summary| Ctrl::Drain { summary }),
            Just(Ctrl::Shutdown),
            Just(Ctrl::PullTrace),
        ]
    }

    /// Which arm of the strategies above a value came from. Wildcard
    /// free on purpose: a new `Ctrl`, `Reply`, `DrainBody` or
    /// `ExecError` variant fails to compile here until the strategies
    /// (and the coverage check below) learn about it.
    fn ctrl_arm(c: &Ctrl) -> usize {
        match c {
            Ctrl::Submit { .. } => 0,
            Ctrl::Wait { .. } => 1,
            Ctrl::Drain { .. } => 2,
            Ctrl::Shutdown => 3,
            Ctrl::PullTrace => 4,
        }
    }

    fn reply_arm(r: &Reply) -> usize {
        match r {
            Reply::Admitted(_) => 0,
            Reply::Job(_) => 1,
            Reply::Drained(Drained {
                body: DrainBody::Records(_),
                ..
            }) => 2,
            Reply::Drained(Drained {
                body: DrainBody::Snapshot(_),
                ..
            }) => 3,
            Reply::Trace(_) => 4,
            Reply::Err(ExecError::Rejected(_)) => 5,
            Reply::Err(ExecError::Failed(_)) => 6,
            Reply::Err(ExecError::UnknownTicket(_)) => 7,
            Reply::Err(ExecError::Overloaded { .. }) => 8,
            Reply::Err(ExecError::NodeFailed { .. }) => 9,
            Reply::Err(ExecError::Timeout { .. }) => 10,
        }
    }

    #[test]
    fn the_strategies_reach_every_variant() {
        use proptest::test_runner::TestRng;
        let mut ctrl = [false; 5];
        let mut reply = [false; 11];
        for case in 0..512 {
            let mut rng = TestRng::for_case(case);
            ctrl[ctrl_arm(&arb_ctrl().generate(&mut rng))] = true;
            reply[reply_arm(&arb_reply().generate(&mut rng))] = true;
        }
        assert_eq!(ctrl, [true; 5], "a Ctrl variant is never generated");
        assert_eq!(reply, [true; 11], "a Reply variant is never generated");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn ctrl_frames_round_trip(ctrl in arb_ctrl()) {
            prop_assert_eq!(Ctrl::decode(&ctrl.encode()), Ok(ctrl));
        }

        /// Identity, given the link the frame names and the detail the
        /// sender held — the two things that deliberately do not cross
        /// the wire.
        #[test]
        fn reply_frames_round_trip(reply in arb_reply(), link in 0usize..8) {
            let expect = match &reply {
                Reply::Err(ExecError::NodeFailed { .. }) => {
                    Reply::Err(ExecError::NodeFailed { node: link })
                }
                other => other.clone(),
            };
            let decoded = Reply::decode(&reply.encode(), link, || "why".to_string());
            prop_assert_eq!(decoded, Ok(expect));
        }
    }
}
