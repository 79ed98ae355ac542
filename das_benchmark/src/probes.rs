//! Direct-call probes: each layer's hot operations timed from outside,
//! in a loop, on tables and shapes the workloads use. Every traced run
//! repeats all of them; they cost a few seconds together.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use das::core::jobs::{JobClass, JobId, JobStats, StreamStats};
use das::core::metrics::LogHistogram;
use das::core::{
    Policy, Priority, Ptt, ReadyEntry, ReadyQueue, Scheduler, TaskMeta, TaskTypeId, WeightRatio,
};
use das::dag::generators;
use das::msg::Communicator;
use das::runtime::{JobSpec, Runtime, TaskGraph};
use das::topology::{CoreId, ExecutionPlace, Topology};

use crate::clusterw;
use crate::run::Cfg;
use crate::stats;

const TY: TaskTypeId = TaskTypeId(0);

/// Median over `batches` batches of the nanoseconds one call of `op`
/// takes, each batch timing `iters` calls after one untimed batch.
fn ns_per_op(iters: usize, batches: usize, mut op: impl FnMut(usize)) -> f64 {
    let mut batch = |n: usize| {
        let t = Instant::now();
        for i in 0..n {
            op(i);
        }
        t.elapsed().as_secs_f64() * 1e9 / n as f64
    };
    batch(iters / 4 + 1);
    let samples: Vec<f64> = (0..batches).map(|_| batch(iters)).collect();
    stats::median(&samples).unwrap_or(f64::NAN)
}

/// Bring `ptt` to the middle of its training: every cluster's first
/// core has seen every width, every other core of the first half of
/// the machine has run width 1 a few times, and the rest still
/// borrows its estimates from the cluster aggregate.
fn train_halfway(ptt: &Ptt, topo: &Topology) {
    for cl in topo.clusters() {
        for (i, &w) in cl.valid_widths().iter().enumerate() {
            ptt.seed(cl.first_core, w, 1e-3 * (1.0 + i as f64));
        }
    }
    for core in (0..topo.num_cores() / 2).map(CoreId) {
        for k in 0..3 {
            ptt.update(ExecutionPlace::solo(core), 1e-3 * (1.0 + 0.1 * k as f64));
        }
    }
}

fn trained_scheduler(topo: &Arc<Topology>) -> Scheduler {
    let sched = Scheduler::new(Arc::clone(topo), Policy::DamC);
    train_halfway(&sched.ptts().table(TY), topo);
    sched
}

/// All valid places of `topo`, to cycle writes over.
fn places(topo: &Topology) -> Vec<ExecutionPlace> {
    topo.places().collect()
}

fn ptt_probes(cfg: &Cfg, big: &Arc<Topology>, small: &Arc<Topology>, out: &mut Vec<(String, f64)>) {
    let iters = cfg.size(20_000, 1_000);
    let table = |topo: &Arc<Topology>| {
        let ptt = Ptt::new(Arc::clone(topo), WeightRatio::PAPER);
        train_halfway(&ptt, topo);
        ptt
    };
    let (ptt_big, ptt_small) = (table(big), table(small));
    let n = big.num_cores();
    out.push((
        "ptt.global_search_ns.c256".into(),
        ns_per_op(iters / 10, 5, |_| {
            black_box(ptt_big.global_search(true, false, None));
        }),
    ));
    out.push((
        "ptt.global_search_ns.w".into(),
        ns_per_op(iters, 5, |_| {
            black_box(ptt_small.global_search(true, false, None));
        }),
    ));
    out.push((
        "ptt.local_search_ns".into(),
        ns_per_op(iters, 5, |i| {
            black_box(ptt_big.local_search(CoreId(i % n)));
        }),
    ));
    out.push((
        "ptt.estimate_ns".into(),
        ns_per_op(iters, 5, |i| {
            black_box(ptt_big.estimate(CoreId(i % n), 1));
        }),
    ));
    let all = places(big);
    out.push((
        "ptt.update_ns".into(),
        ns_per_op(iters, 5, |i| ptt_big.update(all[i % all.len()], 1e-3)),
    ));
    // The write side under contention: every generator thread updates
    // places of the same cluster, so they meet on its aggregate cells.
    let threads = cfg.host.nproc;
    let shared: Vec<ExecutionPlace> = big.places_in_cluster(big.clusters()[0].id).collect();
    let per_thread: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (ptt, shared) = (&ptt_big, &shared);
                scope.spawn(move || {
                    ns_per_op(iters, 3, |i| {
                        ptt.update(shared[(i + t) % shared.len()], 1e-3)
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a probe thread panicked"))
            .collect()
    });
    out.push((
        "ptt.update_contended_ns".into(),
        stats::median(&per_thread).unwrap_or(f64::NAN),
    ));
}

fn scheduler_probes(cfg: &Cfg, topo: &Arc<Topology>, suffix: &str, out: &mut Vec<(String, f64)>) {
    let sched = trained_scheduler(topo);
    let n = topo.num_cores();
    // A global search over 256 cores costs microseconds: fewer calls.
    let high_iters = cfg.size(if n > 64 { 2_000 } else { 20_000 }, 200);
    let iters = cfg.size(20_000, 1_000);
    let high = TaskMeta::new(TY, Priority::High);
    let low = TaskMeta::new(TY, Priority::Low);
    let all = places(topo);
    out.push((
        format!("scheduler.on_wakeup_high_ns.{suffix}"),
        ns_per_op(high_iters, 5, |i| {
            black_box(sched.on_wakeup(&high, CoreId(i % n)));
        }),
    ));
    out.push((
        format!("scheduler.on_wakeup_low_ns.{suffix}"),
        ns_per_op(iters, 5, |i| {
            black_box(sched.on_wakeup(&low, CoreId(i % n)));
        }),
    ));
    out.push((
        format!("scheduler.on_dequeue_ns.{suffix}"),
        ns_per_op(iters, 5, |i| {
            black_box(sched.on_dequeue(&low, CoreId(i % n), None));
        }),
    ));
    out.push((
        format!("scheduler.record_ns.{suffix}"),
        ns_per_op(iters, 5, |i| sched.record(TY, all[i % all.len()], 1e-3)),
    ));
}

/// Entries a queue probe fills before it empties the queue again.
const QUEUE_DEPTH: usize = 64;

fn queue_probes(cfg: &Cfg, out: &mut Vec<(String, f64)>) {
    let rounds = cfg.size(2_000, 100);
    let mut q: ReadyQueue<u32> = ReadyQueue::new();
    let per_round = ns_per_op(rounds, 5, |_| {
        for k in 0..QUEUE_DEPTH {
            q.push(ReadyEntry::loose(k as u32));
        }
        while let Some(e) = q.pop_own() {
            black_box(e);
        }
    });
    out.push(("queue.push_pop_ns".into(), per_round / QUEUE_DEPTH as f64));
    // Steal alone: the refill between batches of steals is not timed.
    let mut samples = Vec::new();
    for _ in 0..rounds {
        for k in 0..QUEUE_DEPTH {
            q.push(ReadyEntry::loose(k as u32));
        }
        let t = Instant::now();
        while let Some(e) = q.steal(|_| true) {
            black_box(e);
        }
        samples.push(t.elapsed().as_secs_f64() * 1e9 / QUEUE_DEPTH as f64);
    }
    out.push((
        "queue.steal_ns".into(),
        stats::median(&samples).unwrap_or(f64::NAN),
    ));
}

fn msg_probes(cfg: &Cfg, out: &mut Vec<(String, f64)>) {
    let iters = cfg.size(20_000, 1_000);
    let comm = Communicator::new(2);
    let (e0, e1) = (comm.endpoint(0), comm.endpoint(1));
    // Ping-pong between two threads: one round trip is a send and a
    // blocking receive on each side, the shape of one cluster RPC. An
    // empty payload tells the echo side to stop.
    let round_trip = std::thread::scope(|scope| {
        let echo = scope.spawn(move || loop {
            let p = e1.recv(0, 1);
            if p.is_empty() {
                break;
            }
            e1.send(0, 2, p);
        });
        let ns = ns_per_op(iters, 5, |i| {
            e0.send(1, 1, vec![i as f64]);
            black_box(e0.recv(1, 2));
        });
        e0.send(1, 1, Vec::new());
        echo.join().expect("the echo thread panicked");
        ns
    });
    out.push(("msg.send_recv_ns".into(), round_trip));
    // A load report and the collapse that reads it, on one thread.
    let comm = Communicator::new(2);
    let (e0, e1) = (comm.endpoint(0), comm.endpoint(1));
    out.push((
        "msg.try_recv_latest_ns".into(),
        ns_per_op(iters, 5, |i| {
            e1.send(0, 3, vec![i as f64]);
            black_box(e0.try_recv_latest(1, 3));
        }),
    ));
}

fn metrics_probes(cfg: &Cfg, out: &mut Vec<(String, f64)>) {
    let iters = cfg.size(200_000, 10_000);
    let mut h = LogHistogram::latency();
    out.push((
        "metrics.record_ns".into(),
        ns_per_op(iters, 5, |i| h.record(1e-5 * (1 + i % 1000) as f64)),
    ));
    let other = h.clone();
    out.push((
        "metrics.merge_ns".into(),
        ns_per_op(iters / 20, 5, |_| h.merge(black_box(&other))),
    ));
    // The drain merge: sort by id, totals, and two percentiles.
    let n = cfg.size(10_000, 500);
    let records: Vec<JobStats> = (0..n)
        .map(|i| JobStats {
            // Reverse order, so the sort has work to do.
            id: JobId((n - i) as u64),
            class: JobClass::default(),
            arrival: i as f64 * 1e-3,
            started: i as f64 * 1e-3 + 1e-4,
            completed: i as f64 * 1e-3 + 1e-3 * (1 + i % 7) as f64,
            tasks: 24,
            deadline: None,
        })
        .collect();
    let per_stream = ns_per_op(20, 5, |_| {
        let st = StreamStats::from_jobs(records.clone());
        black_box((st.sojourn_percentile(0.5), st.sojourn_percentile(0.99)));
    });
    out.push(("jobs.stats_ns_per_job".into(), per_stream / n as f64));
}

fn generator_probes(cfg: &Cfg, out: &mut Vec<(String, f64)>) {
    let t = Instant::now();
    let big = Topology::grid(1, 16, 16);
    out.push(("topology.build_us".into(), t.elapsed().as_secs_f64() * 1e6));
    out.push(("topology.places".into(), big.places().count() as f64));

    let layers = cfg.size(2_000, 100);
    let mut tasks = 0usize;
    let ns = ns_per_op(5, 3, |_| {
        let a = generators::layered(TY, 4, layers);
        let b = generators::chain(TY, 4 * layers);
        let c = generators::fork_join(TY, 4, layers / 2);
        tasks = a.len() + b.len() + c.len();
        black_box((a, b, c));
    });
    out.push(("dag.generate_tasks_per_s".into(), tasks as f64 * 1e9 / ns));

    let jobs = cfg.size(4_000, 200);
    let ns = ns_per_op(3, 3, |_| {
        black_box(clusterw::stream(cfg.seed, jobs));
    });
    out.push((
        "workloads.arrivals_jobs_per_s".into(),
        jobs as f64 * 1e9 / ns,
    ));
}

fn runtime_probe(cfg: &Cfg, out: &mut Vec<(String, f64)>) {
    let rt = Runtime::new(
        Arc::new(Topology::symmetric(cfg.host.workers)),
        Policy::DamC,
    )
    .seed(cfg.seed);
    let one_task = || {
        let mut g = TaskGraph::new("rtt");
        g.add(TY, Priority::Low, |_| {});
        JobSpec::new(g)
    };
    let mut samples = Vec::new();
    for i in 0..cfg.size(4_000, 200) + 50 {
        let spec = one_task();
        let t = Instant::now();
        rt.submit(spec).expect("a one-task graph is valid").wait();
        // The first jobs start the threads and fill the tables.
        if i >= 50 {
            samples.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    out.push((
        "runtime.wait_rtt_us".into(),
        stats::median(&samples).unwrap_or(f64::NAN),
    ));
}

/// Run every probe; returns `(metric, value)` pairs.
pub fn run_all(cfg: &Cfg) -> Vec<(String, f64)> {
    let big = Arc::new(Topology::grid(1, 16, 16));
    let small = Arc::new(Topology::symmetric(cfg.host.workers));
    let mut out = Vec::new();
    generator_probes(cfg, &mut out);
    ptt_probes(cfg, &big, &small, &mut out);
    scheduler_probes(cfg, &big, "c256", &mut out);
    scheduler_probes(cfg, &small, "w", &mut out);
    queue_probes(cfg, &mut out);
    msg_probes(cfg, &mut out);
    metrics_probes(cfg, &mut out);
    runtime_probe(cfg, &mut out);
    out
}
