//! `--compare A.json B.json`: did B get worse than A?
//!
//! One row per (workload, end-to-end metric) with both medians and
//! quartiles, the ratio with its base, and a verdict against the
//! metric's bound. This is the check two sets of runs of one commit
//! must pass for the benchmark itself to be accepted, and the one every
//! later change is held to.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::child::Report;
use crate::json::Json;
use crate::spec::{self, Better, Bound};
use crate::stats;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound, or one side did
    /// not report the metric: no claim either way.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Values of one metric on one workload, one per run.
pub type Series = BTreeMap<(String, String), Vec<f64>>;

/// The end-to-end values of a results file (`{"runs": [report, …]}`),
/// grouped by (workload, metric).
pub fn series(doc: &Json) -> Result<Series, String> {
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("no \"runs\" array")?;
    let mut out = Series::new();
    for run in runs {
        let report = Report::from_json(run).ok_or("malformed run report")?;
        for (name, v) in report.end_to_end {
            out.entry((report.workload.clone(), name))
                .or_default()
                .push(v.value);
        }
    }
    Ok(out)
}

/// How much worse `b` is than `a`, as a share of `a`; negative when
/// it is better.
fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Every value of `b` is at least as good as every value of `a`.
fn all_better(a: &[f64], b: &[f64], better: Better) -> bool {
    let (amin, amax) = (
        a.iter().copied().fold(f64::INFINITY, f64::min),
        a.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    );
    match better {
        Better::Lower => b.iter().all(|&v| v <= amin),
        Better::Higher => b.iter().all(|&v| v >= amax),
    }
}

/// The verdict on one metric of one workload.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: Bound) -> Verdict {
    let (Some(ma), Some(mb)) = (stats::median(a), stats::median(b)) else {
        return Verdict::Unresolved;
    };
    match bound {
        Bound::NoRise => {
            if mb > ma {
                Verdict::Regressed
            } else {
                Verdict::Ok
            }
        }
        Bound::Cap(cap) => {
            if b.iter().any(|&v| v.is_nan() || v > cap) {
                Verdict::Regressed
            } else {
                Verdict::Ok
            }
        }
        Bound::Share(bound) => {
            let spread = stats::spread(a)
                .unwrap_or(0.0)
                .max(stats::spread(b).unwrap_or(0.0));
            if spread > bound {
                // Too noisy to call on medians; only a clean
                // separation of the two sets settles it.
                if all_better(a, b, better) {
                    Verdict::Ok
                } else if all_better(b, a, better) && worse_by(ma, mb, better) > bound {
                    Verdict::Regressed
                } else {
                    Verdict::Unresolved
                }
            } else if worse_by(ma, mb, better) > bound {
                Verdict::Regressed
            } else {
                Verdict::Ok
            }
        }
    }
}

/// One row of the comparison.
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: &'static str,
    pub a: Option<(f64, f64, f64)>,
    pub b: Option<(f64, f64, f64)>,
    pub verdict: Verdict,
}

/// Compare two sets of runs over every (workload, metric) pair the
/// spec defines.
pub fn compare(a: &Series, b: &Series) -> Vec<Row> {
    let mut rows = Vec::new();
    for w in spec::workload_names() {
        for m in spec::END_TO_END.iter().filter(|m| m.on(w)) {
            let key = (w.to_string(), m.name.to_string());
            let (va, vb) = (a.get(&key), b.get(&key));
            let verdict = match (va, vb) {
                (Some(va), Some(vb)) => judge(va, vb, m.better, m.bound_on(w)),
                _ => Verdict::Unresolved,
            };
            rows.push(Row {
                workload: key.0,
                metric: key.1,
                unit: m.unit,
                a: va.and_then(|v| stats::quartiles(v)),
                b: vb.and_then(|v| stats::quartiles(v)),
                verdict,
            });
        }
    }
    rows
}

/// The comparison as a table; ratios are B's median over A's.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<17} {:<20} {:>6}  {:>12} {:>25}  {:>12} {:>25}  {:>8}  verdict",
        "workload", "metric", "unit", "A median", "[q1, q3]", "B median", "[q1, q3]", "B/A"
    );
    let cell = |q: Option<(f64, f64, f64)>| match q {
        Some((q1, med, q3)) => (format!("{med:.6e}"), format!("[{q1:.5e}, {q3:.5e}]")),
        None => ("-".into(), "-".into()),
    };
    for r in rows {
        let ((am, aq), (bm, bq)) = (cell(r.a), cell(r.b));
        let ratio = match (r.a, r.b) {
            (Some((_, a, _)), Some((_, b, _))) if a != 0.0 => format!("{:.4}", b / a),
            _ => "-".into(),
        };
        let _ = writeln!(
            out,
            "{:<17} {:<20} {:>6}  {:>12} {:>25}  {:>12} {:>25}  {:>8}  {}",
            r.workload,
            r.metric,
            r.unit,
            am,
            aq,
            bm,
            bq,
            ratio,
            r.verdict.word()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    let _ = writeln!(
        out,
        "{} ok, {} regressed, {} unresolved (ratio base: A's median)",
        count(Verdict::Ok),
        count(Verdict::Regressed),
        count(Verdict::Unresolved)
    );
    out
}

/// `--compare A B`: print the table; `Ok(true)` when nothing regressed.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let load = |p: &str| -> Result<Series, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        series(&Json::parse(&text).map_err(|e| format!("{p}: {e}"))?)
            .map_err(|e| format!("{p}: {e}"))
    };
    let rows = compare(&load(path_a)?, &load(path_b)?);
    print!("{}", render(&rows));
    Ok(rows.iter().all(|r| r.verdict != Verdict::Regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIGHT: [f64; 5] = [100.0, 101.0, 99.0, 100.5, 99.5];

    fn scaled(v: &[f64], k: f64) -> Vec<f64> {
        v.iter().map(|x| x * k).collect()
    }

    #[test]
    fn within_the_bound_is_ok_beyond_it_regressed() {
        let b = Bound::Share(0.10);
        assert_eq!(
            judge(&TIGHT, &scaled(&TIGHT, 1.05), Better::Lower, b),
            Verdict::Ok
        );
        assert_eq!(
            judge(&TIGHT, &scaled(&TIGHT, 1.15), Better::Lower, b),
            Verdict::Regressed
        );
        // The same shift is an improvement for a higher-is-better metric…
        assert_eq!(
            judge(&TIGHT, &scaled(&TIGHT, 1.15), Better::Higher, b),
            Verdict::Ok
        );
        // …and a drop regresses it.
        assert_eq!(
            judge(&TIGHT, &scaled(&TIGHT, 0.85), Better::Higher, b),
            Verdict::Regressed
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_the_sets_separate() {
        let b = Bound::Share(0.05);
        let noisy = [80.0, 120.0, 100.0, 90.0, 110.0];
        assert_eq!(judge(&noisy, &noisy, Better::Lower, b), Verdict::Unresolved);
        // Every run of B better than every run of A: resolved as ok.
        assert_eq!(
            judge(&noisy, &scaled(&noisy, 0.5), Better::Lower, b),
            Verdict::Ok
        );
        // Every run of B worse than every run of A: resolved as regressed.
        assert_eq!(
            judge(&noisy, &scaled(&noisy, 2.0), Better::Lower, b),
            Verdict::Regressed
        );
        assert_eq!(judge(&[], &noisy, Better::Lower, b), Verdict::Unresolved);
    }

    #[test]
    fn failure_share_and_result_error_have_absolute_rules() {
        assert_eq!(
            judge(&[0.0, 0.0], &[0.0, 0.0], Better::Lower, Bound::NoRise),
            Verdict::Ok
        );
        assert_eq!(
            judge(&[0.0, 0.0], &[0.001, 0.001], Better::Lower, Bound::NoRise),
            Verdict::Regressed
        );
        let cap = Bound::Cap(1e-9);
        assert_eq!(judge(&[1e-13], &[5e-12], Better::Lower, cap), Verdict::Ok);
        assert_eq!(
            judge(&[1e-13], &[2e-9], Better::Lower, cap),
            Verdict::Regressed
        );
    }

    fn report(workload: &str, metrics: &[(&str, f64)]) -> Json {
        let r = Report {
            workload: workload.into(),
            end_to_end: metrics
                .iter()
                .map(|&(k, v)| (k.to_string(), crate::run::Value::new(v, spec::unit_of(k))))
                .collect(),
            ..Report::default()
        };
        r.json()
    }

    #[test]
    fn files_are_grouped_by_workload_and_metric_and_rendered() {
        let set = |k: f64| {
            Json::obj([(
                "runs",
                Json::Arr(
                    TIGHT
                        .iter()
                        .map(|&v| {
                            report("rt_chain", &[("tasks_per_s", v * k), ("failed_share", 0.0)])
                        })
                        .collect(),
                ),
            )])
        };
        // Through text, as `--compare` reads it.
        let parse = |doc: Json| series(&Json::parse(&doc.write()).expect("parses")).expect("a set");
        let (a, b) = (parse(set(1.0)), parse(set(0.7)));
        assert_eq!(
            a[&("rt_chain".to_string(), "tasks_per_s".to_string())].len(),
            5
        );
        let rows = compare(&a, &b);
        let find = |w: &str, m: &str| {
            rows.iter()
                .find(|r| r.workload == w && r.metric == m)
                .expect("the row exists")
                .verdict
        };
        assert_eq!(find("rt_chain", "tasks_per_s"), Verdict::Regressed);
        assert_eq!(find("rt_chain", "failed_share"), Verdict::Ok);
        // A metric neither file reports cannot be called unchanged.
        assert_eq!(find("rt_chain", "job_latency_p99_us"), Verdict::Unresolved);
        assert_eq!(find("cluster_stream", "jobs_per_s"), Verdict::Unresolved);
        // result_err is only ever a row of app_kernels.
        assert!(!rows
            .iter()
            .any(|r| r.metric == "result_err" && r.workload != "app_kernels"));
        let text = render(&rows);
        assert!(
            text.contains("regressed") && text.contains("0.7000"),
            "{text}"
        );
    }
}
