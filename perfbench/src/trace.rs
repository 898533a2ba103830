//! The traced run: per-layer host time, measured from outside the program
//! by timing calls into each layer's public functions.
//!
//! Each pass runs, in order:
//! 1. one untraced end-to-end operation (the `--trace 0` path), the base of
//!    `trace.overhead_frac`;
//! 2. for every point of the workload, the *layer pass*:
//!    - `Scenario::run` on the point's single-cell population (a
//!      `city_127` point is flattened into one cell of the same 1,016
//!      terminals);
//!    - the benchmark's own single-cell loop on that population, with spans
//!      around `begin_frame_all` (`columns`) and `Cell::step` (`cell`), which
//!      must reproduce `Scenario::run`'s metrics exactly;
//!    - `SystemWorld::new` + `SystemWorld::run` on the point's system (a
//!      single-cell point becomes a 1-cell system with flat path loss, which
//!      must reproduce the single-cell counters) at `system_threads` 1 and 2;
//! 3. the points through `run_sweep_replicated_observed`, with an observer
//!    that timestamps each completed point (`sweep`).
//!
//! Passes repeat until the time budget is spent; times are medians over
//! passes, counts come from the first pass (they repeat exactly).

use crate::host::{median, ratio, Host, Summary};
use crate::single::{LoopTrace, SingleCell};
use crate::workload::{
    fingerprint, run_campaign, run_op, runs, terminal_frames, wrap, Checker, Point, Workload,
};
use charisma::metrics::{RunMetrics, RunningStat};
use charisma::Json;
use charisma::{
    flat_path_loss, ProtocolKind, ReplicationPolicy, RunReport, Scenario, SimConfig, SweepPoint,
    SystemConfig, SystemWorld,
};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// At least this many passes, however short the budget.
const MIN_PASSES: usize = 3;

/// One run (a point at one replication seed) as each layer probe sees it.
struct Case {
    run: SweepPoint,
    /// The run's population in one cell, run by `Scenario::run`.
    single: SimConfig,
    /// The run as a system, at `system_threads` 1 and at the guarded
    /// thread count.
    system: [SimConfig; 2],
}

fn cases(points: &[Point], threads: u32) -> Vec<Case> {
    runs(points)
        .into_iter()
        .map(|run| {
            let config = &run.config;
            let (single, system) = match config.system {
                Some(system) => {
                    let mut single = config.clone();
                    single.num_voice *= system.cells;
                    single.num_data *= system.cells;
                    single.system = None;
                    (single, system)
                }
                None => {
                    let mut system = SystemConfig::new(1);
                    system.path_loss = flat_path_loss(config);
                    (config.clone(), system)
                }
            };
            let at = |threads: u32| {
                let mut c = config.clone();
                c.system = Some(SystemConfig { threads, ..system });
                c
            };
            let system = [at(1), at(threads)];
            Case {
                run,
                single,
                system,
            }
        })
        .collect()
}

/// Host time of one system run.
struct SystemRun {
    report: RunReport,
    new_s: f64,
    run_s: f64,
}

fn run_system(config: &SimConfig, protocol: ProtocolKind) -> SystemRun {
    let start = Instant::now();
    let mut world = SystemWorld::new(config.clone(), protocol);
    let new_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let report = world.run();
    let run_s = start.elapsed().as_secs_f64();
    SystemRun {
        report,
        new_s,
        run_s,
    }
}

/// The counters the 1-cell system oracle compares.
fn counters_match(system: &RunMetrics, single: &RunMetrics) -> bool {
    system.voice == single.voice
        && system.data == single.data
        && system.contention == single.contention
        && system.slots == single.slots
        && system.frames == single.frames
}

/// Host time per layer, summed over the points of one pass.
#[derive(Default)]
struct PassTimes {
    build_s: f64,
    single_s: f64,
    loop_s: f64,
    columns_s: f64,
    cell_s: f64,
    cell_measured_s: f64,
    frames: u64,
    tf: u64,
    requests: u64,
    system_s: [f64; 2],
    system_wall_s: [f64; 2],
}

/// What the sweep observer saw in one campaign.
struct SweepTrace {
    busy_frac: f64,
    tail_idle_s: f64,
    point_s_p50: f64,
    point_s_max: f64,
    reps_per_point: f64,
    wall_s: f64,
    tf: u64,
    fingerprints: Vec<u64>,
}

fn sweep_probe(points: &[Point], workers: usize) -> SweepTrace {
    let done: Mutex<Vec<(ThreadId, Instant)>> = Mutex::new(Vec::with_capacity(points.len()));
    let start = Instant::now();
    let (results, _) = run_campaign(points, workers, &|_, _| {
        let now = Instant::now();
        done.lock()
            .expect("observer lock is never held across a panic")
            .push((std::thread::current().id(), now));
        true
    });
    let wall_s = start.elapsed().as_secs_f64();
    let done = done
        .into_inner()
        .expect("observer lock is never held across a panic");

    // Each worker runs its points back to back, so a point's host time is
    // the gap since the same worker's previous completion.
    let mut workers_seen: Vec<(ThreadId, Vec<Instant>)> = Vec::new();
    for (id, at) in done {
        match workers_seen.iter_mut().find(|(w, _)| *w == id) {
            Some((_, times)) => times.push(at),
            None => workers_seen.push((id, vec![at])),
        }
    }
    let mut point_s = Vec::new();
    let mut busy = Vec::new();
    for (_, times) in &mut workers_seen {
        times.sort();
        let mut prev = start;
        for &t in times.iter() {
            point_s.push((t - prev).as_secs_f64());
            prev = t;
        }
        busy.push((prev - start).as_secs_f64());
    }
    let earliest_finish = busy.iter().copied().fold(f64::INFINITY, f64::min);
    let reps: u64 = results.iter().map(|r| r.stats.reps()).sum();
    let points_s = Summary::of(&point_s);
    SweepTrace {
        busy_frac: ratio(busy.iter().sum(), busy.len() as f64 * wall_s),
        tail_idle_s: wall_s - earliest_finish,
        point_s_p50: points_s.median,
        point_s_max: points_s.max,
        reps_per_point: ratio(reps as f64, results.len() as f64),
        wall_s,
        tf: points
            .iter()
            .zip(&results)
            .map(|((p, _), r)| r.stats.reps() * terminal_frames(&p.config))
            .sum(),
        fingerprints: results.iter().map(fingerprint).collect(),
    }
}

/// Simulated counts of the first pass; they repeat exactly on every pass.
#[derive(Default)]
struct Counts {
    events: u64,
    tf: u64,
    protocols: RunMetrics,
    handoff_attempts: u64,
    measured_frames: u64,
    admission_queue: RunningStat,
}

/// Per-pass samples of every timed quantity.
#[derive(Default)]
struct Samples {
    build_s: Vec<f64>,
    columns_ns_per_tf: Vec<f64>,
    columns_share: Vec<f64>,
    cell_us_per_frame: Vec<f64>,
    cell_share: Vec<f64>,
    cell_ns_per_request: Vec<f64>,
    system_ns_per_tf: [Vec<f64>; 2],
    shard_speedup: Vec<f64>,
    overhead_ns_per_tf: Vec<f64>,
    busy_frac: Vec<f64>,
    tail_idle_s: Vec<f64>,
    point_s_p50: Vec<f64>,
    point_s_max: Vec<f64>,
    reps_per_point: Vec<f64>,
    traced_tf_per_s: Vec<f64>,
    untraced_tf_per_s: Vec<f64>,
}

/// Everything the layer probes measured on one run.
struct CaseRun {
    single: RunReport,
    single_s: f64,
    /// `FrameTraffic` slots with any event, from an extra untimed run.
    events: Option<u64>,
    traced: LoopTrace,
    system: [SystemRun; 2],
}

fn layer_pass(case: &Case, count_events: bool) -> CaseRun {
    let protocol = case.run.protocol;
    let start = Instant::now();
    let single = Scenario::new(case.single.clone()).run(protocol);
    let single_s = start.elapsed().as_secs_f64();
    CaseRun {
        single,
        single_s,
        events: count_events.then(|| {
            SingleCell::run_traced(&case.single, protocol, true)
                .event_slots
                .expect("counted")
        }),
        traced: SingleCell::run_traced(&case.single, protocol, false),
        system: [
            run_system(&case.system[0], protocol),
            run_system(&case.system[1], protocol),
        ],
    }
}

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Runs the traced passes for about `seconds` and returns the per-layer
/// metrics plus a detail record.  Oracle and fingerprint failures go to
/// `checker`.
pub fn run(
    workload: Workload,
    points: &[Point],
    host: &Host,
    seconds: f64,
    checker: &mut Checker,
) -> (Vec<Metric>, Json) {
    let workers = host.threads as usize;
    let cases = cases(points, host.threads);
    // Outside `fig11_sweep` the sweep layer is probed with the workload's
    // runs as single-replication points, whose results fingerprint like the
    // end-to-end runs.  `city_127` already uses every core per run, so its
    // sweep gets one worker.
    let (sweep_points, sweep_workers) = if workload == Workload::Fig11Sweep {
        (points.to_vec(), workers)
    } else {
        let single = runs(points)
            .into_iter()
            .map(|run| (run, ReplicationPolicy::SINGLE))
            .collect();
        (single, if workload.is_system() { 1 } else { workers })
    };
    let n_ops = workload.results_per_op(points);
    let mut s = Samples::default();
    let mut counts: Option<Counts> = None;
    let mut passes = 0usize;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);

    while passes < MIN_PASSES || Instant::now() < deadline {
        passes += 1;
        let first = counts.is_none();

        // 1. The untraced end-to-end operation.
        if let Some(op) =
            checker.guarded("end-to-end op", n_ops, || run_op(workload, points, workers))
        {
            checker.check("end-to-end op", &op.fingerprints());
            s.untraced_tf_per_s
                .push(op.terminal_frames as f64 / op.wall_s);
        }

        // 2. The layer pass over every run.
        let mut t = PassTimes::default();
        let mut c = Counts::default();
        // The fingerprint of each run's workload-shaped report (the system
        // run on `city_127`, the single-cell run elsewhere), checked against
        // the reference like an end-to-end operation.
        let mut fps: Vec<Option<u64>> = Vec::with_capacity(cases.len());
        for case in &cases {
            let Some(r) = checker.guarded("layer pass", 1, || layer_pass(case, first)) else {
                fps.push(None);
                continue;
            };
            checker.expect(
                "own single-cell loop vs Scenario::run",
                r.traced.metrics == r.single.metrics,
            );
            let system_fps = r
                .system
                .each_ref()
                .map(|run| fingerprint(&wrap(&case.run, run.report.clone())));
            checker.expect("system_threads 1 vs 2", system_fps[0] == system_fps[1]);
            if workload.is_system() {
                fps.push(Some(system_fps[0]));
            } else {
                checker.expect(
                    "1-cell SystemWorld vs Scenario::run",
                    counters_match(&r.system[0].report.metrics, &r.single.metrics),
                );
                fps.push(Some(fingerprint(&wrap(&case.run, r.single.clone()))));
            }

            t.build_s += if workload.is_system() {
                r.system[0].new_s
            } else {
                r.traced.build_s
            };
            t.single_s += r.single_s;
            t.loop_s += r.traced.build_s + r.traced.loop_s;
            t.columns_s += r.traced.columns_s;
            t.cell_s += r.traced.cell_s;
            t.cell_measured_s += r.traced.cell_measured_s;
            t.frames += r.traced.frames;
            t.tf += r.traced.terminal_frames;
            t.requests += r.traced.metrics.contention.attempts;
            for k in 0..2 {
                t.system_s[k] += r.system[k].run_s;
                t.system_wall_s[k] += r.system[k].new_s + r.system[k].run_s;
            }

            let system = &r.system[0].report.metrics;
            c.events += r.events.unwrap_or(0);
            c.tf += r.traced.terminal_frames;
            c.protocols.merge(if workload.is_system() {
                system
            } else {
                &r.single.metrics
            });
            c.handoff_attempts += system.handoff.attempts;
            c.measured_frames += system.frames;
            for cell in &system.per_cell {
                c.admission_queue.merge(&cell.admission_queue);
            }
        }
        // A `fig11_sweep` reference is per point over all replications, not
        // per run.
        if workload != Workload::Fig11Sweep {
            if let Some(fps) = fps.into_iter().collect::<Option<Vec<u64>>>() {
                checker.check("layer pass", &fps);
            }
        }
        if first {
            counts = Some(c);
        }
        if t.tf > 0 {
            let tf = t.tf as f64;
            s.build_s.push(t.build_s);
            s.columns_ns_per_tf.push(t.columns_s / tf * 1e9);
            s.columns_share.push(t.columns_s / t.loop_s);
            s.cell_us_per_frame.push(t.cell_s / t.frames as f64 * 1e6);
            s.cell_share.push(t.cell_s / t.loop_s);
            s.cell_ns_per_request
                .push(ratio(t.cell_measured_s, t.requests as f64) * 1e9);
            for k in 0..2 {
                s.system_ns_per_tf[k].push(t.system_s[k] / tf * 1e9);
            }
            s.shard_speedup.push(t.system_s[0] / t.system_s[1]);
            s.overhead_ns_per_tf
                .push((t.system_wall_s[0] - t.single_s) / tf * 1e9);
            match workload {
                Workload::PaperCell | Workload::Crowd10k => s.traced_tf_per_s.push(tf / t.loop_s),
                Workload::City127 => s.traced_tf_per_s.push(tf / t.system_wall_s[1]),
                Workload::Fig11Sweep => {}
            }
        }

        // 3. The sweep layer.
        if let Some(sweep) = checker.guarded("sweep probe", sweep_points.len() as u64, || {
            sweep_probe(&sweep_points, sweep_workers)
        }) {
            checker.check("sweep probe", &sweep.fingerprints);
            s.busy_frac.push(sweep.busy_frac);
            s.tail_idle_s.push(sweep.tail_idle_s);
            s.point_s_p50.push(sweep.point_s_p50);
            s.point_s_max.push(sweep.point_s_max);
            s.reps_per_point.push(sweep.reps_per_point);
            if workload == Workload::Fig11Sweep {
                s.traced_tf_per_s.push(sweep.tf as f64 / sweep.wall_s);
            }
        }
    }

    let c = counts.unwrap_or_default();
    let metrics = vec![
        ("scenario.build_s", median(&s.build_s), "s"),
        (
            "columns.sweep_ns_per_tf",
            median(&s.columns_ns_per_tf),
            "ns",
        ),
        ("columns.share", median(&s.columns_share), "fraction"),
        (
            "columns.event_frac",
            ratio(c.events as f64, c.tf as f64),
            "fraction",
        ),
        ("cell.step_us_per_frame", median(&s.cell_us_per_frame), "us"),
        ("cell.share", median(&s.cell_share), "fraction"),
        (
            "cell.step_ns_per_request",
            median(&s.cell_ns_per_request),
            "ns",
        ),
        (
            "protocols.collision_rate",
            c.protocols.contention.collision_rate(),
            "fraction",
        ),
        (
            "protocols.request_queue_mean",
            c.protocols.contention.queue_length.mean(),
            "count",
        ),
        (
            "protocols.slot_utilisation",
            c.protocols.slots.utilisation(),
            "fraction",
        ),
        ("system.ns_per_tf_t1", median(&s.system_ns_per_tf[0]), "ns"),
        ("system.ns_per_tf_t2", median(&s.system_ns_per_tf[1]), "ns"),
        ("system.shard_speedup", median(&s.shard_speedup), "ratio"),
        (
            "system.overhead_ns_per_tf",
            median(&s.overhead_ns_per_tf),
            "ns",
        ),
        (
            "system.handoff_attempts_per_kframe",
            ratio(c.handoff_attempts as f64, c.measured_frames as f64) * 1e3,
            "count",
        ),
        (
            "system.admission_queue_mean",
            c.admission_queue.mean(),
            "count",
        ),
        ("sweep.worker_busy_frac", median(&s.busy_frac), "fraction"),
        ("sweep.tail_idle_s", median(&s.tail_idle_s), "s"),
        ("sweep.point_s_p50", median(&s.point_s_p50), "s"),
        ("sweep.point_s_max", median(&s.point_s_max), "s"),
        ("sweep.reps_per_point", median(&s.reps_per_point), "count"),
        (
            "trace.overhead_frac",
            1.0 - ratio(median(&s.traced_tf_per_s), median(&s.untraced_tf_per_s)),
            "fraction",
        ),
    ];
    let detail = Json::Object(vec![
        ("passes".into(), Json::Int(passes as u64)),
        (
            "traced_tf_per_s".into(),
            Summary::of(&s.traced_tf_per_s).to_json(),
        ),
        (
            "untraced_tf_per_s".into(),
            Summary::of(&s.untraced_tf_per_s).to_json(),
        ),
        (
            "system_ns_per_tf_t1".into(),
            Summary::of(&s.system_ns_per_tf[0]).to_json(),
        ),
        (
            "system_ns_per_tf_t2".into(),
            Summary::of(&s.system_ns_per_tf[1]).to_json(),
        ),
        (
            "columns_ns_per_tf".into(),
            Summary::of(&s.columns_ns_per_tf).to_json(),
        ),
        (
            "cell_us_per_frame".into(),
            Summary::of(&s.cell_us_per_frame).to_json(),
        ),
    ]);
    (metrics, detail)
}
