//! Host-time benchmark of the CHARISMA simulator, from the paper's single
//! cell to a 127-cell city.  See README.md for the workloads, the metrics
//! and what each should move.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_cell [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`; the lines before it
//! record the host and the sample counts behind each median.

mod host;
mod single;
mod trace;
mod workload;

use charisma::{Json, SimConfig};
use host::{median, Host, Summary};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use trace::Metric;
use workload::{run_op, stored_fingerprints, Checker, Workload};

/// At least this many timed operations, however short the budget.
const MIN_OPS: usize = 5;

/// Fresh processes whose peak memory `peak_rss_mib` is the median of.
const RSS_PROBES: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    one_op: bool,
}

const USAGE: &str = "usage: perfbench --workload <paper_cell|crowd_10k|city_127|fig11_sweep> \
                     [--seed N] [--seconds S] [--trace 0|1] [--one-op]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = SimConfig::default_paper().seed;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut one_op = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--one-op" {
            one_op = true;
            continue;
        }
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}\n{USAGE}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| bad("expected an unsigned integer"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("expected a positive number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?,
        seed,
        seconds,
        trace,
        one_op,
    })
}

/// The end-to-end run: operations back to back for `seconds`, then the
/// thread-count invariance check.
fn run_end_to_end(
    workload: Workload,
    seed: u64,
    host: &Host,
    seconds: f64,
    checker: &mut Checker,
) -> Result<(Vec<Metric>, Json), String> {
    let points = workload.points(seed, host.threads);
    let workers = host.threads as usize;
    let n_ops = workload.results_per_op(&points);
    let run_once = |points: &[workload::Point], workers| run_op(workload, points, workers);

    // An untimed first operation fills caches and finishes lazy set-up; it
    // is checked like every other.
    if let Some(first) = checker.guarded("warm-up op", n_ops, || run_once(&points, workers)) {
        checker.check("warm-up op", &first.fingerprints());
    }

    let (mut tf_per_s, mut wall_s, mut setup_s) = (Vec::new(), Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut ops = 0;
    while ops < MIN_OPS || Instant::now() < deadline {
        ops += 1;
        if let Some(op) = checker.guarded("op", n_ops, || run_once(&points, workers)) {
            checker.check("op", &op.fingerprints());
            tf_per_s.push(op.terminal_frames as f64 / op.sim_s);
            wall_s.push(op.wall_s);
            setup_s.push(op.setup_s);
        }
    }

    // Thread-count invariance: the same seed on one thread must give the
    // same bytes.
    match workload {
        Workload::City127 => {
            let serial = workload.points(seed, 1);
            if let Some(op) = checker.guarded("system_threads=1 op", n_ops, || run_once(&serial, 1))
            {
                checker.check("system_threads=1 op", &op.fingerprints());
            }
        }
        Workload::Fig11Sweep => {
            if let Some(op) = checker.guarded("1-worker op", n_ops, || run_once(&points, 1)) {
                checker.check("1-worker op", &op.fingerprints());
            }
        }
        Workload::PaperCell | Workload::Crowd10k => {}
    }

    let rss = probe_peak_rss(workload, seed, n_ops, checker)?;
    let metrics = vec![
        ("tf_per_s", median(&tf_per_s), "tf/s"),
        ("wall_s", median(&wall_s), "s"),
        ("setup_s", median(&setup_s), "s"),
        ("peak_rss_mib", median(&rss), "MiB"),
    ];
    let detail = Json::Object(vec![
        ("tf_per_s".into(), Summary::of(&tf_per_s).to_json()),
        ("wall_s".into(), Summary::of(&wall_s).to_json()),
        ("setup_s".into(), Summary::of(&setup_s).to_json()),
        ("peak_rss_mib".into(), Summary::of(&rss).to_json()),
    ]);
    Ok((metrics, detail))
}

/// Peak resident memory of a fresh process running one operation, from
/// [`RSS_PROBES`] such processes.  A long-lived process is no good for this:
/// every thread the workload starts may get a new glibc allocator arena, so
/// its peak wanders by megabytes with thread timing.  Each probe's output is
/// checked like any other operation.
fn probe_peak_rss(
    workload: Workload,
    seed: u64,
    n_ops: u64,
    checker: &mut Checker,
) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the benchmark: {e}"))?;
    let mut samples = Vec::with_capacity(RSS_PROBES);
    for _ in 0..RSS_PROBES {
        let out = Command::new(&exe)
            .args(["--workload", workload.name(), "--seed", &seed.to_string()])
            .arg("--one-op")
            .output()
            .map_err(|e| format!("cannot start the memory probe: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines = stdout.lines();
        let fps: Option<Vec<u64>> = lines.next().map(|line| {
            line.split_whitespace()
                .skip(2)
                .filter_map(|f| u64::from_str_radix(f, 16).ok())
                .collect()
        });
        let rss = lines
            .next()
            .and_then(|l| l.strip_prefix("peak_rss_mib "))
            .and_then(|v| v.parse::<f64>().ok());
        match (out.status.success(), fps, rss) {
            (true, Some(fps), Some(rss)) => {
                checker.check("memory probe", &fps);
                samples.push(rss);
            }
            _ => checker.panicked("memory probe", n_ops),
        }
    }
    Ok(samples)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workload = args.workload;

    if args.one_op {
        // Nothing else runs in this process, so its peak memory is the
        // operation's.
        let threads = host::guarded_threads();
        let points = workload.points(args.seed, threads);
        let op = run_op(workload, &points, threads as usize);
        let fps: Vec<String> = op
            .fingerprints()
            .iter()
            .map(|f| format!("{f:016x}"))
            .collect();
        println!("{} {} {}", workload.name(), args.seed, fps.join(" "));
        return match host::peak_rss_mib() {
            Ok(rss) => {
                println!("peak_rss_mib {rss}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let host = Host::probe();

    let mut checker = Checker::new(stored_fingerprints(workload, args.seed));
    let result = if args.trace {
        let points = workload.points(args.seed, host.threads);
        Ok(trace::run(
            workload,
            &points,
            &host,
            args.seconds,
            &mut checker,
        ))
    } else {
        run_end_to_end(workload, args.seed, &host, args.seconds, &mut checker)
    };
    let (metrics, detail) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());

    let run = Json::Object(vec![
        ("workload".into(), Json::Str(workload.name().into())),
        ("seed".into(), Json::Int(args.seed)),
        ("seconds".into(), Json::Num(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        ("host".into(), host.to_json()),
        ("samples".into(), detail),
        (
            "problems".into(),
            Json::Array(checker.problems.iter().cloned().map(Json::Str).collect()),
        ),
    ]);
    println!("{}", run.to_compact_string());

    let result = Json::Object(vec![
        ("correct".into(), Json::Bool(checker.correct() && finite)),
        ("attempted".into(), Json::Int(checker.attempted)),
        ("failed".into(), Json::Int(checker.failed)),
        (
            "metrics".into(),
            Json::Object(
                metrics
                    .into_iter()
                    .map(|(name, value, unit)| {
                        let value = if value.is_finite() { value } else { 0.0 };
                        (
                            name.to_string(),
                            Json::Object(vec![
                                ("value".into(), Json::Num(value)),
                                ("unit".into(), Json::Str(unit.into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.to_compact_string());
    ExitCode::SUCCESS
}
