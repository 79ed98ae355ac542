//! The commands and replies of a cluster node.
//!
//! A node takes a [`Ctrl`] as a call and answers with a [`Reply`]
//! value. Both are the Rust values themselves — graphs, job records,
//! extras and error messages included — so nothing is encoded on one
//! end and decoded on the other.

use das_core::exec::{ExecError, ExecExtras};
use das_core::jobs::{JobSpec, JobStats, StreamStats};
use das_core::metrics::{NodeSnapshot, TraceSpan};

/// A dispatcher → node command.
pub(crate) enum Ctrl<G> {
    /// Admit these jobs as one batch: one command carries the whole
    /// sub-batch, whatever its size; answered by [`Reply::Admitted`].
    Submit(Vec<JobSpec<G>>),
    /// Wait for the job with this node-local id; answered by
    /// [`Reply::Job`].
    Wait { local: u64 },
    /// Execute and retire everything outstanding; answered by
    /// [`Reply::Drained`] whose body is the completion records, or —
    /// for `summary` — the node's post-drain snapshot instead (the
    /// sketch-backed replacement for shipping every record to the
    /// dispatcher solely to compute cluster-wide percentiles).
    Drain { summary: bool },
    /// Surrender the accumulated execution trace spans (draining the
    /// node's buffer); answered by [`Reply::Trace`].
    PullTrace,
}

/// One node's drain epoch: a header of stream totals, the node's
/// extras, and *either* the completion records *or* the post-drain
/// snapshot.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Drained {
    pub(crate) jobs: u64,
    pub(crate) tasks: u64,
    /// First arrival and last completion of the epoch (not a pre-folded
    /// span), so the dispatcher can compute the *global* stream span
    /// across nodes — identical to what `StreamStats::from_jobs` would
    /// report over the merged records. An empty epoch carries the fold
    /// identities (`t0 = +inf`, `t1 = 0`).
    pub(crate) t0: f64,
    pub(crate) t1: f64,
    pub(crate) extras: ExecExtras,
    pub(crate) body: DrainBody,
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
    /// The command failed, with the node executor's own error.
    Err(ExecError),
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_core::jobs::{JobClass, JobId};
    use das_core::metrics::ExecProbe;

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

    #[test]
    fn drained_header_is_read_off_the_records() {
        let jobs = vec![job(0, None), job(1, Some(9.75)), job(u32::MAX as u64, None)];
        let d = Drained::new(
            StreamStats::from_jobs(jobs.clone()),
            ExecExtras::default(),
            None,
        );
        assert_eq!((d.jobs, d.tasks), (3, 126));
        assert_eq!((d.t0, d.t1), (0.125, 1.5), "first arrival, last completion");
        assert_eq!(d.body, DrainBody::Records(jobs));
    }

    #[test]
    fn an_empty_epoch_carries_the_fold_identities() {
        let d = Drained::new(StreamStats::default(), ExecExtras::default(), None);
        assert_eq!((d.jobs, d.tasks), (0, 0));
        assert_eq!((d.t0, d.t1), (f64::INFINITY, 0.0), "the fold identities");
        assert_eq!(d.body, DrainBody::Records(Vec::new()));
    }

    #[test]
    fn a_summary_drain_keeps_the_header_and_drops_the_records() {
        let snap = NodeSnapshot {
            node: 1,
            seq: 9,
            probe: ExecProbe::default(),
        };
        let stats = StreamStats::from_jobs(vec![job(0, None), job(1, None)]);
        let d = Drained::new(stats, ExecExtras::default(), Some(snap.clone()));
        assert_eq!((d.jobs, d.tasks), (2, 84));
        assert_eq!((d.t0, d.t1), (0.125, 1.5));
        assert_eq!(
            d.body,
            DrainBody::Snapshot(Box::new(snap)),
            "no records ride along"
        );
    }
}
