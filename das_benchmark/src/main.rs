//! `das_benchmark` — the layered performance benchmark of the das
//! workspace. See `README.md` beside this package for the workloads,
//! the metrics and how to read the output.
//!
//! ```sh
//! das_benchmark                       # six workloads, end-to-end table
//! das_benchmark --traced              # per-layer table and chrome traces
//! das_benchmark --runs 10 --out a.json   # a set of runs of one seed, for --compare
//! das_benchmark --compare a.json b.json  # exit 1 on a regression
//! das_benchmark --workload rt_chain --seed 7 --seconds 10 --trace 0
//! ```

// The wall clock is this program's instrument; clippy.toml bans it
// workspace-wide for code that takes decisions.
#![allow(clippy::disallowed_methods)]

mod apps;
mod child;
mod clusterw;
mod compare;
mod host;
mod json;
mod probes;
mod rt;
mod run;
mod simw;
mod spec;
mod stats;
mod trace;

use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use child::{Report, Task};
use host::Host;
use json::Json;
use run::{Cfg, Metrics};

const USAGE: &str = "\
usage: das_benchmark [--traced] [--quick] [--seed N] [--seconds S] [--runs N]
                     [--only W[,W…]] [--out FILE]
       das_benchmark --workload W --seed N --seconds S --trace 0|1
       das_benchmark --compare A.json B.json
       das_benchmark --list | --emit-benchmark-json";

/// The command line, parsed.
#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    child: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    runs: usize,
    only: Vec<String>,
    out: Option<String>,
    compare: Option<(String, String)>,
    emit: bool,
    list: bool,
}

fn parse_u64(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16),
        None => s.replace('_', "").parse(),
    };
    parsed.map_err(|e| format!("bad number {s:?}: {e}"))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        runs: 1,
        seed: run::DEFAULT_SEED,
        ..Args::default()
    };
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => args.workload = Some(value(&mut it, a)?),
            "--child" => args.child = Some(value(&mut it, a)?),
            "--seed" => args.seed = parse_u64(&value(&mut it, a)?)?,
            "--seconds" => {
                let s: f64 = value(&mut it, a)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value(&mut it, a)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => args.trace = true,
            "--quick" => args.quick = true,
            "--runs" => {
                args.runs = parse_u64(&value(&mut it, a)?)? as usize;
                if !(1..=100).contains(&args.runs) {
                    return Err("--runs must be in 1..=100".into());
                }
            }
            "--only" => args.only = value(&mut it, a)?.split(',').map(String::from).collect(),
            "--out" => args.out = Some(value(&mut it, a)?),
            "--compare" => args.compare = Some((value(&mut it, a)?, value(&mut it, a)?)),
            "--emit-benchmark-json" => args.emit = true,
            "--list" => args.list = true,
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    for w in args.workload.iter().chain(&args.child).chain(&args.only) {
        if !spec::workload_names().any(|n| n == w) {
            let names: Vec<_> = spec::workload_names().collect();
            return Err(format!(
                "unknown workload {w:?}; one of {}",
                names.join(", ")
            ));
        }
    }
    Ok(args)
}

/// Run one workload in a child process of its own: a fresh address
/// space (so `VmHWM` is the workload's), no backtrace symbolisation (so
/// `cluster_failover` times recovery, not the injected panic's
/// backtrace), and its stderr captured.
fn spawn_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .env("RUST_BACKTRACE", "0")
        .stdin(Stdio::null());
    if quick {
        cmd.arg("--quick");
    }
    // `output` reads both pipes to the end and waits for the child.
    let output = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stderr = String::from_utf8_lossy(&output.stderr);
    let dir = child::out_dir();
    if std::fs::create_dir_all(&dir).is_ok() {
        // Kept for diagnosis; losing the log loses no result.
        std::fs::write(
            dir.join(format!("{workload}.stderr.log")),
            stderr.as_bytes(),
        )
        .ok();
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let report = stdout
        .lines()
        .last()
        .and_then(|l| Json::parse(l).ok())
        .and_then(|v| Report::from_json(&v));
    match report {
        Some(r) => Ok(r),
        None => Err(format!(
            "{workload}: child ended with {} and no report; its stderr:\n{stderr}",
            output.status
        )),
    }
}

/// `--list`: the workloads and every metric with unit, direction and
/// bound, straight from the tables of `spec`.
fn print_vocabulary() {
    println!("workloads");
    for w in &spec::WORKLOADS {
        println!("  {:<17} {}", w.name, w.why);
    }
    println!("end-to-end metrics (bound: how far the median may worsen)");
    for m in &spec::END_TO_END {
        let bound = match m.bound {
            spec::Bound::Share(b) => format!("{:.1} %", b * 100.0),
            spec::Bound::NoRise => "no rise".into(),
            spec::Bound::Cap(c) => format!("<= {c:e}"),
        };
        let on = if m.workloads.is_empty() {
            "all".to_string()
        } else {
            m.workloads.join(", ")
        };
        println!(
            "  {:<20} {:>6}  {:<6} better, bound {bound}, on {on}: {}",
            m.name,
            m.unit,
            m.better.word(),
            m.what
        );
        for (w, b) in m.tighter {
            println!("  {:<20}         bound {:.1} % on {w}", "", b * 100.0);
        }
    }
    println!("per-layer metrics (traced run, never gated)");
    for m in &spec::PER_LAYER {
        println!(
            "  {:<34} {:>6}  {:<6} better, from {}",
            m.name,
            m.unit,
            m.better.word(),
            m.owner.unwrap_or("a direct-call probe")
        );
    }
}

/// Print `m` in the order of the spec tables, which `names` yields.
fn print_metrics(title: &str, m: &Metrics, names: impl Iterator<Item = &'static str>) {
    println!("  {title}");
    for name in names {
        if let Some(v) = m.get(name) {
            let n = v.samples.map_or(String::new(), |n| format!("  (n={n})"));
            println!("    {name:<36} {:>16.6} {}{n}", v.value, v.unit);
        }
    }
}

fn print_report(r: &Report, traced: bool) {
    let sizes: Vec<String> = r.sizes.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!(
        "{} — seed {:#x}, {} timed repetitions, warm-up {:.3} s, {}",
        r.workload,
        r.seed,
        r.reps,
        r.warmup_s,
        sizes.join(" ")
    );
    print_metrics(
        "end to end",
        &r.end_to_end,
        spec::END_TO_END.iter().map(|m| m.name),
    );
    if traced {
        print_metrics(
            "per layer",
            &r.per_layer,
            spec::PER_LAYER.iter().map(|m| m.name),
        );
        println!("  self time by span name (traced repetitions)");
        for (name, (s, n)) in &r.self_time_s {
            println!("    {name:<36} {s:>16.6} s  ({n} spans)");
        }
        if let Some(f) = &r.trace_file {
            println!("  chrome trace: {f}");
        }
    }
    for f in &r.failures {
        println!("  ORACLE FAILED: {f}");
    }
}

/// The table mode: every workload (or `--only` some), `--runs` times
/// over with the same seed, so that what repeats exactly (simulated
/// times, counts) shows no spread and what does not is run-to-run noise.
fn run_table(args: &Args, host: Host) -> Result<bool, String> {
    let seed = args.seed;
    let seconds = args.seconds.unwrap_or(if args.quick {
        0.5
    } else {
        spec::RUN_SECONDS as f64
    });
    println!(
        "das_benchmark: nproc {} -> {} runtime workers, {} ingress lanes; base seed {seed:#x}; {seconds} s per workload{}",
        host.nproc,
        host.workers,
        host.lanes,
        if args.quick { "; quick sizes" } else { "" }
    );
    if host.too_small() {
        println!("FLAGGED: nproc < 2 — nothing here can show parallel behaviour; do not compare these numbers");
    }
    let mut reports = Vec::new();
    let mut all_correct = true;
    for run in 0..args.runs {
        for w in spec::workload_names() {
            if !args.only.is_empty() && !args.only.iter().any(|o| o == w) {
                continue;
            }
            let r = spawn_child(w, seed, seconds, args.trace, args.quick)?;
            if args.runs > 1 {
                println!("run {} of {}", run + 1, args.runs);
            }
            print_report(&r, args.trace);
            all_correct &= r.correct();
            reports.push(r);
        }
    }
    if let Some(path) = &args.out {
        let doc = Json::obj([
            ("schema", Json::Num(1.0)),
            (
                "runs",
                Json::Arr(reports.iter().map(Report::json).collect()),
            ),
        ]);
        std::fs::write(path, doc.write_pretty()).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(all_correct)
}

/// The contract mode: one workload, one JSON result line.
fn run_contract(args: &Args, workload: &str) -> Result<bool, String> {
    let seed = args.seed;
    let seconds = args.seconds.unwrap_or(spec::RUN_SECONDS as f64);
    let r = spawn_child(workload, seed, seconds, args.trace, args.quick)?;
    for f in &r.failures {
        eprintln!("das_benchmark: {workload}: oracle failed: {f}");
    }
    let wanted: Vec<&str> = if args.trace {
        spec::PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        spec::END_TO_END
            .iter()
            .filter(|m| m.in_contract())
            .map(|m| m.name)
            .collect()
    };
    let source = if args.trace {
        &r.per_layer
    } else {
        &r.end_to_end
    };
    let mut metrics = Vec::new();
    for name in wanted {
        let v = source
            .get(name)
            .ok_or_else(|| format!("{workload}: metric {name} was not reported"))?;
        metrics.push((
            name,
            Json::obj([("value", Json::Num(v.value)), ("unit", Json::str(v.unit))]),
        ));
    }
    let line = Json::obj([
        ("correct", Json::Bool(r.correct())),
        ("attempted", Json::Num(r.attempted.max(1) as f64)),
        ("failed", Json::Num(r.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", line.write());
    Ok(r.correct())
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    if args.emit {
        print!("{}", spec::benchmark_json().write_pretty());
        return Ok(true);
    }
    if args.list {
        print_vocabulary();
        return Ok(true);
    }
    if let Some((a, b)) = &args.compare {
        return compare::run(a, b);
    }
    let host = Host::detect();
    if let Some(workload) = &args.child {
        let seconds = args.seconds.unwrap_or(spec::RUN_SECONDS as f64);
        child::arm_watchdog(Duration::from_secs_f64(seconds * 3.0 + 60.0));
        let report = child::run(&Task {
            workload: workload.clone(),
            cfg: Cfg {
                host,
                seed: args.seed,
                quick: args.quick,
            },
            seconds,
            traced: args.trace,
            out_dir: child::out_dir(),
        });
        println!("{}", report.json().write());
        return Ok(report.correct());
    }
    if host.too_small() {
        eprintln!("das_benchmark: FLAGGED: nproc < 2, results are not comparable");
    }
    match &args.workload {
        Some(w) => run_contract(&args, w),
        None => run_table(&args, host),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("das_benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
