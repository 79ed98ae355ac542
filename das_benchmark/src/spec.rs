//! The benchmark's vocabulary: its workloads, its end-to-end metrics
//! with their bounds, and its per-layer metrics. `BENCHMARK.json`, the
//! printed tables, `--compare` and the README are all views of these
//! tables; a test keeps `BENCHMARK.json` in step with them.

use crate::json::Json;

/// One named workload and why it exists.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 6] = [
    WorkloadSpec {
        name: "rt_fanout",
        why: "runtime, no-op fan-out jobs all ready at once: time is queue push/pop/steal, stats, ledger and park/wake",
    },
    WorkloadSpec {
        name: "rt_chain",
        why: "runtime, one client in a closed loop over 512-task chains: no parallelism, every hop pays commit, search, push and wake-up",
    },
    WorkloadSpec {
        name: "app_kernels",
        why: "K-means and 2-D heat on the runtime with millisecond task bodies: scheduler overhead must not show, only placement quality",
    },
    WorkloadSpec {
        name: "sim_critical256",
        why: "simulator on a 256-core grid under rolling interference, a quarter of tasks critical: global search and the idle-core path",
    },
    WorkloadSpec {
        name: "cluster_stream",
        why: "ingress lanes over a 4-node all-sim cluster, batched submit then drain: the clean path through every tier",
    },
    WorkloadSpec {
        name: "cluster_failover",
        why: "per-job submit to a 4-node cluster with a node killed, one added and one removed: death detection, requeue, retry and churn",
    },
];

pub fn workload_names() -> impl Iterator<Item = &'static str> {
    WORKLOADS.iter().map(|w| w.name)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// How far a metric may worsen before `--compare` calls it a
/// regression.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    /// Share of the base median.
    Share(f64),
    /// Any rise of the median regresses (a failure share).
    NoRise,
    /// The value itself must stay at or below this cap.
    Cap(f64),
}

/// An end-to-end metric: something a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub what: &'static str,
    /// Workloads that report it; empty means all six.
    pub workloads: &'static [&'static str],
    pub bound: Bound,
    /// Tighter bounds `--compare` applies on single workloads.
    pub tighter: &'static [(&'static str, f64)],
}

impl EndToEnd {
    pub fn on(&self, workload: &str) -> bool {
        self.workloads.is_empty() || self.workloads.contains(&workload)
    }

    /// Whether every workload reports the metric and its bound is a
    /// share: what the `end_to_end` list of `BENCHMARK.json` can hold,
    /// since each contract run prints every metric of that list.
    pub fn in_contract(&self) -> bool {
        self.workloads.is_empty() && matches!(self.bound, Bound::Share(_))
    }

    pub fn bound_on(&self, workload: &str) -> Bound {
        self.tighter
            .iter()
            .find(|(w, _)| *w == workload)
            .map_or(self.bound, |&(_, b)| Bound::Share(b))
    }
}

const CLUSTER: &[&str] = &["cluster_stream", "cluster_failover"];

pub const END_TO_END: [EndToEnd; 11] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        what: "median set-up of a repetition: build topology and executor, generate inputs, start threads",
        workloads: &[],
        bound: Bound::Share(0.25),
        tighter: &[],
    },
    EndToEnd {
        name: "tasks_per_s",
        unit: "1/s",
        better: Better::Higher,
        what: "tasks committed per wall second, median over repetitions",
        workloads: &[],
        bound: Bound::Share(0.25),
        tighter: &[],
    },
    EndToEnd {
        name: "jobs_per_s",
        unit: "1/s",
        better: Better::Higher,
        what: "jobs per wall second from the first submit until drain or wait returns, median over repetitions",
        workloads: &[],
        bound: Bound::Share(0.25),
        tighter: &[],
    },
    EndToEnd {
        name: "time_to_solution_s",
        unit: "s",
        better: Better::Lower,
        what: "wall seconds of one repetition's timed region, median over repetitions",
        workloads: &[],
        bound: Bound::Share(0.25),
        tighter: &[],
    },
    EndToEnd {
        name: "makespan_s",
        unit: "s",
        better: Better::Lower,
        what: "first arrival to last completion on the executor's own clock: simulated seconds on sim_* and cluster_*, pool-clock seconds on rt_* and app_kernels",
        workloads: &[],
        bound: Bound::Share(0.25),
        tighter: &[
            ("sim_critical256", 0.005),
            ("cluster_stream", 0.05),
            ("cluster_failover", 0.005),
        ],
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        what: "VmHWM of the workload's process",
        workloads: &[],
        bound: Bound::Share(0.25),
        tighter: &[
            ("rt_fanout", 0.10),
            ("rt_chain", 0.10),
            ("app_kernels", 0.10),
            ("sim_critical256", 0.10),
        ],
    },
    EndToEnd {
        name: "job_latency_p50_us",
        unit: "us",
        better: Better::Lower,
        what: "wall microseconds from submit until wait returns, nearest rank over all timed jobs",
        workloads: &["rt_chain"],
        bound: Bound::Share(0.25),
        tighter: &[],
    },
    EndToEnd {
        name: "job_latency_p99_us",
        unit: "us",
        better: Better::Lower,
        what: "as job_latency_p50_us, 99th percentile",
        workloads: &["rt_chain"],
        bound: Bound::Share(0.25),
        tighter: &[],
    },
    EndToEnd {
        name: "sim_sojourn_p99_s",
        unit: "s",
        better: Better::Lower,
        what: "simulated seconds from a job's arrival to its completion, 99th percentile",
        workloads: CLUSTER,
        bound: Bound::Share(0.05),
        tighter: &[("cluster_failover", 0.005)],
    },
    EndToEnd {
        name: "result_err",
        unit: "abs",
        better: Better::Lower,
        what: "largest absolute deviation of K-means centroids and the heat field from the sequential reference",
        workloads: &["app_kernels"],
        bound: Bound::Cap(1e-9),
        tighter: &[],
    },
    EndToEnd {
        name: "failed_share",
        unit: "share",
        better: Better::Lower,
        what: "operations failed, refused or lost over operations attempted",
        workloads: &[],
        bound: Bound::NoRise,
        tighter: &[],
    },
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// A metric of one layer, reported by the traced run and never gated.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The workload whose traced repetitions measure it; `None` for a
    /// direct-call probe, which every traced run repeats.
    pub owner: Option<&'static str>,
}

const fn probe(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        owner: None,
    }
}

const fn owned(
    name: &'static str,
    unit: &'static str,
    better: Better,
    owner: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        owner: Some(owner),
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 63] = [
    probe("topology.build_us", "us", Lower),
    probe("topology.places", "count", Lower),
    probe("dag.generate_tasks_per_s", "1/s", Higher),
    probe("workloads.arrivals_jobs_per_s", "1/s", Higher),
    probe("ptt.global_search_ns.c256", "ns", Lower),
    probe("ptt.global_search_ns.w", "ns", Lower),
    probe("ptt.local_search_ns", "ns", Lower),
    probe("ptt.estimate_ns", "ns", Lower),
    probe("ptt.update_ns", "ns", Lower),
    probe("ptt.update_contended_ns", "ns", Lower),
    probe("scheduler.on_wakeup_high_ns.c256", "ns", Lower),
    probe("scheduler.on_wakeup_high_ns.w", "ns", Lower),
    probe("scheduler.on_wakeup_low_ns.c256", "ns", Lower),
    probe("scheduler.on_wakeup_low_ns.w", "ns", Lower),
    probe("scheduler.on_dequeue_ns.c256", "ns", Lower),
    probe("scheduler.on_dequeue_ns.w", "ns", Lower),
    probe("scheduler.record_ns.c256", "ns", Lower),
    probe("scheduler.record_ns.w", "ns", Lower),
    probe("queue.push_pop_ns", "ns", Lower),
    probe("queue.steal_ns", "ns", Lower),
    probe("msg.send_recv_ns", "ns", Lower),
    probe("msg.try_recv_latest_ns", "ns", Lower),
    probe("metrics.record_ns", "ns", Lower),
    probe("metrics.merge_ns", "ns", Lower),
    probe("jobs.stats_ns_per_job", "ns", Lower),
    probe("runtime.wait_rtt_us", "us", Lower),
    owned("runtime.submit_ns_per_job", "ns", Lower, "rt_fanout"),
    owned("runtime.drain_wait_s", "s", Lower, "rt_fanout"),
    owned("runtime.cpu_ns_per_task", "ns", Lower, "rt_fanout"),
    owned("runtime.sys_share", "share", Lower, "rt_fanout"),
    owned("runtime.hop_ns", "ns", Lower, "rt_chain"),
    owned("workloads.kmeans_seq_s", "s", Lower, "app_kernels"),
    owned("workloads.heat_seq_s", "s", Lower, "app_kernels"),
    owned("workloads.kmeans_rt_s", "s", Lower, "app_kernels"),
    owned("workloads.heat_rt_s", "s", Lower, "app_kernels"),
    owned("workloads.speedup_vs_seq", "x", Higher, "app_kernels"),
    owned("sim.events_per_s", "1/s", Higher, "sim_critical256"),
    owned("sim.events_per_task", "count", Lower, "sim_critical256"),
    owned("sim.steals", "count", Lower, "sim_critical256"),
    owned("sim.failed_steals", "count", Lower, "sim_critical256"),
    owned(
        "sim.bare_stream_jobs_per_s",
        "1/s",
        Higher,
        "cluster_stream",
    ),
    owned("sim.submit_ns_per_job", "ns", Lower, "cluster_stream"),
    owned("sim.drain_s", "s", Lower, "cluster_stream"),
    owned("ingress.submit_ns", "ns", Lower, "cluster_stream"),
    owned("ingress.submit_p99_us", "us", Lower, "cluster_stream"),
    owned("ingress.tax_pct", "%", Lower, "cluster_stream"),
    owned("cluster.build_ms", "ms", Lower, "cluster_stream"),
    owned("cluster.submit_ns_per_job", "ns", Lower, "cluster_stream"),
    owned("cluster.drain_s", "s", Lower, "cluster_stream"),
    owned("cluster.drain_summary_s", "s", Lower, "cluster_stream"),
    owned(
        "cluster.wire_frames_per_job",
        "count",
        Lower,
        "cluster_stream",
    ),
    owned("cluster.one_node_tax_pct", "%", Lower, "cluster_stream"),
    owned("cluster.four_node_speedup", "x", Higher, "cluster_stream"),
    owned("metrics.on_tax_pct", "%", Lower, "cluster_stream"),
    owned("cluster.submit_p99_us", "us", Lower, "cluster_failover"),
    owned("cluster.recovery_stall_ms", "ms", Lower, "cluster_failover"),
    owned("cluster.add_node_ms", "ms", Lower, "cluster_failover"),
    owned("cluster.remove_node_ms", "ms", Lower, "cluster_failover"),
    owned("cluster.jobs_requeued", "count", Lower, "cluster_failover"),
    owned("cluster.retries", "count", Lower, "cluster_failover"),
    // The two below describe the traced run itself and come from the
    // workload the run was asked for.
    probe("trace.spans", "count", Lower),
    probe("trace.overhead_pct", "%", Lower),
    probe("trace.dropped_spans", "count", Lower),
];

/// The unit of metric `name`, end-to-end or per-layer.
pub fn unit_of(name: &str) -> &'static str {
    end_to_end(name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
        .unwrap_or("?")
}

/// Seconds one contract run measures for; the `run_seconds` of
/// `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 15;

/// The `BENCHMARK.json` these tables describe.
pub fn benchmark_json() -> Json {
    let workloads = WORKLOADS
        .iter()
        .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .filter(|m| m.in_contract())
        .map(|m| {
            let Bound::Share(bound) = m.bound else {
                unreachable!("in_contract admits share bounds only")
            };
            Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.word())),
                ("bound", Json::Num(bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.word())),
            ])
        })
        .collect();
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--manifest-path",
                    "das_benchmark/Cargo.toml",
                    "--",
                ]
                .map(Json::str)
                .to_vec(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("das_benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(end_to_end)),
        ("per_layer", Json::Arr(per_layer)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let mut names = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && names.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && names.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.name);
            for w in m.workloads.iter().chain(m.tighter.iter().map(|(w, _)| w)) {
                assert!(workload_names().any(|n| n == *w), "{}: {w}", m.name);
            }
            if let Bound::Share(b) = m.bound {
                assert!(b > 0.0 && b <= 0.25, "{}", m.name);
            }
        }
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && names.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.name);
            if let Some(o) = m.owner {
                assert!(workload_names().any(|n| n == o), "{}: {o}", m.name);
            }
        }
        assert!(PER_LAYER.len() <= 128);
        let contract: Vec<_> = END_TO_END.iter().filter(|m| m.in_contract()).collect();
        assert!((1..=16).contains(&contract.len()));
        let setup = end_to_end("setup_s").expect("the contract requires setup_s");
        assert!(setup.in_contract() && setup.unit == "s" && setup.better == Better::Lower);
        let share = |m: &EndToEnd| match m.bound {
            Bound::Share(b) => b,
            _ => unreachable!("in_contract admits share bounds only"),
        };
        assert!(
            contract.iter().all(|m| share(m) <= share(setup)),
            "setup_s carries the largest bound"
        );
    }

    #[test]
    fn benchmark_json_at_the_repo_root_matches_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json exists at the repo root");
        assert!(text.len() <= 64 * 1024);
        let on_disk = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `das_benchmark --emit-benchmark-json`"
        );
        let keys: Vec<&str> = on_disk
            .as_obj()
            .expect("an object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
    }
}
