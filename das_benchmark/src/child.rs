//! One workload in its own process: the repetitions, the per-layer
//! pass of a traced run, and the report handed back to the parent.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::apps::Apps;
use crate::clusterw::{self, ClusterFailover, ClusterStream};
use crate::host::Host;
use crate::json::Json;
use crate::probes;
use crate::rt::{Chain, Fanout};
use crate::run::{self, Budget, Cfg, Metrics, RunOut, Value, Workload};
use crate::simw::SimCritical;
use crate::spec;
use crate::stats;
use crate::trace::{self, Tracer};

/// Where traces and logs go: beside the build output the running
/// binary came from (`<target>/das_benchmark/`), which is inside the
/// checkout and ignored by git.
pub fn out_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("das_benchmark")))
        .unwrap_or_else(|| PathBuf::from("target/das_benchmark"))
}

/// Build workload `name` for `cfg`.
pub fn make(name: &str, cfg: Cfg) -> Option<Box<dyn Workload>> {
    Some(match name {
        "rt_fanout" => Box::new(Fanout::new(cfg)),
        "rt_chain" => Box::new(Chain::new(cfg)),
        "app_kernels" => Box::new(Apps::new(cfg)),
        "sim_critical256" => Box::new(SimCritical::new(cfg)),
        "cluster_stream" => Box::new(ClusterStream::new(cfg)),
        "cluster_failover" => Box::new(ClusterFailover::new(cfg)),
        _ => return None,
    })
}

/// What the parent asked of this process.
#[derive(Clone, Debug)]
pub struct Task {
    pub workload: String,
    pub cfg: Cfg,
    pub seconds: f64,
    pub traced: bool,
    /// Where a traced run writes its chrome trace.
    pub out_dir: PathBuf,
}

/// What this process reports back.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub host: Option<Host>,
    pub sizes: BTreeMap<String, u64>,
    pub reps: usize,
    pub warmup_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    /// Self time by span name of the traced repetitions, in seconds,
    /// with the number of spans it was summed over.
    pub self_time_s: BTreeMap<String, (f64, u64)>,
    pub trace_file: Option<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }

    pub fn json(&self) -> Json {
        let metrics = |m: &Metrics| Json::obj(m.iter().map(|(k, v)| (k.clone(), v.json())));
        let host = self.host.map_or(Json::Null, |h| {
            Json::obj([
                ("nproc", Json::Num(h.nproc as f64)),
                ("workers", Json::Num(h.workers as f64)),
                ("lanes", Json::Num(h.lanes as f64)),
                ("too_small", Json::Bool(h.too_small())),
            ])
        });
        Json::obj([
            ("workload", Json::str(&self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("host", host),
            (
                "sizes",
                Json::obj(
                    self.sizes
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v as f64))),
                ),
            ),
            ("reps", Json::Num(self.reps as f64)),
            ("warmup_s", Json::Num(self.warmup_s)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(Json::str).collect()),
            ),
            ("end_to_end", metrics(&self.end_to_end)),
            ("per_layer", metrics(&self.per_layer)),
            (
                "self_time_s",
                Json::obj(self.self_time_s.iter().map(|(k, (s, n))| {
                    let pair = vec![Json::Num(*s), Json::Num(*n as f64)];
                    (k.clone(), Json::Arr(pair))
                })),
            ),
            (
                "trace_file",
                self.trace_file.as_ref().map_or(Json::Null, Json::str),
            ),
        ])
    }

    /// Read back what [`Report::json`] wrote. Units are matched to the
    /// spec tables' static strings; an unknown unit reads as `"?"`.
    pub fn from_json(v: &Json) -> Option<Report> {
        let metrics = |key: &str| -> Option<Metrics> {
            v.get(key)?
                .as_obj()?
                .iter()
                .map(|(name, m)| {
                    Some((
                        name.clone(),
                        Value {
                            value: m.get("value")?.as_f64().unwrap_or(f64::NAN),
                            unit: spec::unit_of(name),
                            samples: m.get("samples").and_then(Json::as_f64).map(|n| n as usize),
                        },
                    ))
                })
                .collect()
        };
        let host = v
            .get("host")
            .and_then(|h| Some(Host::with_nproc(h.get("nproc")?.as_f64()? as usize)));
        Some(Report {
            workload: v.get("workload")?.as_str()?.to_string(),
            seed: v.get("seed")?.as_f64()? as u64,
            host,
            sizes: v
                .get("sizes")?
                .as_obj()?
                .iter()
                .map(|(k, n)| (k.clone(), n.as_f64().unwrap_or(0.0) as u64))
                .collect(),
            reps: v.get("reps")?.as_f64()? as usize,
            warmup_s: v.get("warmup_s")?.as_f64().unwrap_or(f64::NAN),
            attempted: v.get("attempted")?.as_f64()? as u64,
            failed: v.get("failed")?.as_f64()? as u64,
            failures: v
                .get("failures")?
                .as_arr()?
                .iter()
                .filter_map(|f| f.as_str().map(String::from))
                .collect(),
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
            self_time_s: v
                .get("self_time_s")?
                .as_obj()?
                .iter()
                .map(|(k, pair)| {
                    let at = |i: usize| pair.as_arr().and_then(|a| a.get(i)?.as_f64());
                    (
                        k.clone(),
                        (at(0).unwrap_or(f64::NAN), at(1).unwrap_or(0.0) as u64),
                    )
                })
                .collect(),
            trace_file: v.get("trace_file").and_then(Json::as_str).map(String::from),
        })
    }
}

/// End the process if a workload hangs: the contract allows a run 180
/// seconds, and a wedged control-plane RPC must not outlive that.
pub fn arm_watchdog(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("das_benchmark: workload still running after {limit:?}; giving up");
        std::process::exit(3);
    });
}

/// 99th percentile of the wall microseconds one submit call took. Even
/// the `--quick` sizes pool enough samples for it.
fn submit_p99_us(run: &RunOut) -> f64 {
    stats::percentile(&run.pooled("submit_us"), 0.99).unwrap_or(f64::NAN)
}

/// The per-layer metrics a workload owns, from its repetitions.
fn owned_layers(workload: &str, run: &RunOut, w: &dyn Workload) -> Vec<(&'static str, f64)> {
    let med = |key: &str| run.scalar_median(key).unwrap_or(f64::NAN);
    let tasks: f64 = run.reps.iter().map(|r| r.tasks as f64).sum();
    match workload {
        "rt_fanout" => {
            let jobs_per_rep = run.median_of(|r| r.jobs as f64);
            let cpu = run.scalar_sum("cpu_user_s") + run.scalar_sum("cpu_sys_s");
            vec![
                (
                    "runtime.submit_ns_per_job",
                    med("submit_s") * 1e9 / jobs_per_rep,
                ),
                ("runtime.drain_wait_s", med("drain_s")),
                ("runtime.cpu_ns_per_task", cpu * 1e9 / tasks),
                ("runtime.sys_share", run.scalar_sum("cpu_sys_s") / cpu),
            ]
        }
        "rt_chain" => {
            let hops = run.median_of(|r| r.tasks as f64 / r.jobs as f64);
            let p50 = stats::median(&run.pooled("job_latency_us")).unwrap_or(f64::NAN);
            vec![("runtime.hop_ns", p50 * 1e3 / hops)]
        }
        "app_kernels" => {
            let once: BTreeMap<_, _> = w.run_scalars().into_iter().collect();
            let seq = once["kmeans_seq_s"] + once["heat_seq_s"];
            vec![
                ("workloads.kmeans_seq_s", once["kmeans_seq_s"]),
                ("workloads.heat_seq_s", once["heat_seq_s"]),
                ("workloads.kmeans_rt_s", med("kmeans_rt_s")),
                ("workloads.heat_rt_s", med("heat_rt_s")),
                (
                    "workloads.speedup_vs_seq",
                    seq / run.median_of(|r| r.wall_s),
                ),
            ]
        }
        "sim_critical256" => vec![
            (
                "sim.events_per_s",
                run.median_of(|r| r.scalars.get("events").copied().unwrap_or(f64::NAN) / r.wall_s),
            ),
            ("sim.events_per_task", run.scalar_sum("events") / tasks),
            ("sim.steals", med("steals")),
            ("sim.failed_steals", med("failed_steals")),
        ],
        "cluster_stream" => {
            let pool = run.pooled("submit_us");
            let mean_us = pool.iter().sum::<f64>() / pool.len() as f64;
            vec![
                ("ingress.submit_ns", mean_us * 1e3),
                ("ingress.submit_p99_us", submit_p99_us(run)),
            ]
        }
        "cluster_failover" => vec![
            ("cluster.submit_p99_us", submit_p99_us(run)),
            ("cluster.recovery_stall_ms", med("recovery_stall_ms")),
            ("cluster.add_node_ms", med("add_node_ms")),
            ("cluster.remove_node_ms", med("remove_node_ms")),
            // Absent counters read as 0: their names are not API.
            (
                "cluster.jobs_requeued",
                run.scalar_median("jobs_requeued").unwrap_or(0.0),
            ),
            (
                "cluster.retries",
                run.scalar_median("retries").unwrap_or(0.0),
            ),
        ],
        _ => Vec::new(),
    }
}

/// `pairs` keyed by owned strings, as the probes name theirs.
fn named(pairs: Vec<(&'static str, f64)>) -> impl Iterator<Item = (String, f64)> {
    pairs.into_iter().map(|(k, v)| (k.to_string(), v))
}

/// Spans a traced run has room for; more are counted as dropped.
const SPAN_CAPACITY: usize = 400_000;

/// Timed repetitions of each other workload in a traced run's sweep.
const SWEEP_REPS: usize = run::MIN_REPS;

/// Run the task and build its report.
pub fn run(task: &Task) -> Report {
    let mut report = Report {
        workload: task.workload.clone(),
        seed: task.cfg.seed,
        host: Some(task.cfg.host),
        ..Report::default()
    };
    let Some(mut w) = make(&task.workload, task.cfg) else {
        report
            .failures
            .push(format!("unknown workload {:?}", task.workload));
        return report;
    };
    report.sizes = w
        .sizes()
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();

    let mut tr = if task.traced {
        Tracer::on(SPAN_CAPACITY)
    } else {
        Tracer::off()
    };
    // The warm-up and the even repetitions run untraced; the odd ones
    // traced. Their throughput ratio prices the tracing.
    tr.set_on(false);
    let traced = task.traced;
    let out = run::run_reps(
        w.as_mut(),
        &mut tr,
        Budget::Seconds(task.seconds),
        |i, tr| tr.set_on(traced && i % 2 == 1),
    );
    report.reps = out.reps.len();
    report.warmup_s = out.warmup_s;
    report.attempted = out.attempted;
    report.failed = out.failed;
    report.failures = out.failures.clone();

    if task.traced {
        traced_pass(task, w.as_ref(), &out, &mut tr, &mut report);
    }
    // Every oracle finding counts as at least one failed operation.
    report.failed = report.failed.max(report.failures.len() as u64);
    // A traced run's headline numbers come from its untraced half.
    let step = if task.traced { 2 } else { 1 };
    let measured = RunOut {
        reps: out.reps.into_iter().step_by(step).collect(),
        setups: out.setups,
        attempted: report.attempted,
        failed: report.failed,
        ..RunOut::default()
    };
    report.end_to_end = run::end_to_end_metrics(&task.workload, &measured);
    report
}

/// The per-layer half of a traced run: what the workload's own
/// repetitions say about its layers, the quick-size sweep of the other
/// workloads for theirs, the tier ladder, and the direct-call probes.
fn traced_pass(task: &Task, w: &dyn Workload, out: &RunOut, tr: &mut Tracer, report: &mut Report) {
    let mut layers: BTreeMap<String, f64> = BTreeMap::new();
    let quick = Cfg {
        quick: true,
        ..task.cfg
    };
    tr.set_on(true);
    tr.set_rep(-2);
    for name in spec::workload_names().filter(|n| *n != task.workload) {
        let mut other = make(name, quick).expect("spec names are workloads");
        let mut quiet = Tracer::off();
        let swept = run::run_reps(
            other.as_mut(),
            &mut quiet,
            Budget::Reps(SWEEP_REPS),
            |_, _| {},
        );
        report
            .failures
            .extend(swept.failures.iter().map(|f| format!("sweep {name}: {f}")));
        layers.extend(named(owned_layers(name, &swept, other.as_ref())));
    }
    layers.extend(named(owned_layers(&task.workload, out, w)));
    // The ladder runs at full size in the traced run of the workload
    // it dissects, and at sweep size in every other.
    let ladder_cfg = if task.workload == "cluster_stream" {
        task.cfg
    } else {
        quick
    };
    let (ladder, findings) = clusterw::tier_ladder(&ladder_cfg, tr, 3);
    report.failures.extend(findings);
    layers.extend(named(ladder));
    layers.extend(probes::run_all(&task.cfg));

    let rate = |reps: Vec<&run::RepOut>| {
        stats::median(
            &reps
                .iter()
                .map(|r| r.tasks as f64 / r.wall_s)
                .collect::<Vec<_>>(),
        )
    };
    let untraced = rate(out.reps.iter().step_by(2).collect());
    let with_trace = rate(out.reps.iter().skip(1).step_by(2).collect());
    let overhead = match (untraced, with_trace) {
        (Some(u), Some(t)) => (u / t - 1.0) * 100.0,
        _ => f64::NAN,
    };
    layers.insert("trace.spans".into(), tr.spans().len() as f64);
    layers.insert("trace.dropped_spans".into(), tr.dropped() as f64);
    layers.insert("trace.overhead_pct".into(), overhead);

    for m in &spec::PER_LAYER {
        match layers.get(m.name) {
            Some(&v) => {
                report
                    .per_layer
                    .insert(m.name.to_string(), Value::new(v, m.unit));
            }
            None => report
                .failures
                .push(format!("per-layer metric {} was not measured", m.name)),
        }
    }
    report.self_time_s = trace::totals_by_name(tr.spans())
        .into_iter()
        .map(|(name, t)| (name.to_string(), (t.self_ns as f64 / 1e9, t.count)))
        .collect();
    match write_trace(&task.out_dir, &task.workload, tr) {
        Ok(path) => report.trace_file = Some(path),
        Err(e) => report.failures.push(format!("chrome trace: {e}")),
    }
}

/// Write the spans as a chrome trace and check it with the repo's own
/// validator.
fn write_trace(dir: &Path, workload: &str, tr: &Tracer) -> Result<String, String> {
    let text = trace::chrome_json(tr.spans());
    let events = das::sim::validate_chrome_json(&text)?;
    if events != tr.spans().len() {
        return Err(format!(
            "{events} events written for {} spans",
            tr.spans().len()
        ));
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}.trace.json"));
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_task(workload: &str, traced: bool) -> Task {
        Task {
            workload: workload.into(),
            cfg: Cfg {
                host: Host::detect(),
                seed: run::DEFAULT_SEED,
                quick: true,
            },
            // No time budget: the minimum number of repetitions.
            seconds: 0.0,
            traced,
            out_dir: out_dir().join("tests"),
        }
    }

    #[test]
    fn quick_pass_of_all_six_workloads_runs_every_oracle() {
        for w in spec::workload_names() {
            let r = run(&quick_task(w, false));
            assert!(r.correct(), "{w}: {:?}", r.failures);
            assert_eq!(r.reps, run::MIN_REPS, "{w}");
            assert!(r.attempted > 0 && r.failed == 0, "{w}");
            for m in &spec::END_TO_END {
                let got = r.end_to_end.get(m.name);
                // A quick pass has too few samples for a p99, which is
                // then left out rather than mislabelled.
                if !m.name.contains("_p99_") {
                    assert_eq!(got.is_some(), m.on(w), "{w}: {}", m.name);
                }
                if let Some(v) = got {
                    assert!(v.value.is_finite(), "{w}: {} = {}", m.name, v.value);
                    assert_eq!(v.unit, m.unit, "{w}: {}", m.name);
                    // The contract's metrics are never 0.
                    assert!(!m.in_contract() || v.value > 0.0, "{w}: {}", m.name);
                }
            }
            // The report survives the trip to the parent process.
            let back = Report::from_json(&Json::parse(&r.json().write()).expect("parses"));
            assert_eq!(back.as_ref(), Some(&r), "{w}");
        }
    }

    #[test]
    fn quick_traced_pass_reports_every_layer_and_a_valid_trace() {
        let task = quick_task("cluster_failover", true);
        let r = run(&task);
        assert!(r.correct(), "{:?}", r.failures);
        for m in &spec::PER_LAYER {
            let v = r
                .per_layer
                .get(m.name)
                .unwrap_or_else(|| panic!("{} is missing", m.name));
            // The tracing overhead of a few short repetitions may be
            // anything; everything else must be a number.
            assert!(
                v.value.is_finite() || m.name == "trace.overhead_pct",
                "{}",
                m.name
            );
        }
        assert!(r.per_layer["trace.spans"].value > 0.0);
        assert!(r.self_time_s.contains_key("cluster.submit"));
        let path = r.trace_file.expect("a traced run writes its trace");
        let text = std::fs::read_to_string(&path).expect("the trace file exists");
        assert_eq!(
            das::sim::validate_chrome_json(&text).ok(),
            Some(r.per_layer["trace.spans"].value as usize)
        );
    }
}
