//! The four workloads, one operation of each, and the bit-exact output
//! check.
//!
//! Every workload is a closed loop with one client: operations run back to
//! back, each a pure function of (config, seed), so every repeat must give
//! the same report fingerprint.

use crate::single::SingleCell;
use charisma::config::{HandoffAdmission, HandoffConfig, Layout};
use charisma::metrics::RepsAccumulator;
use charisma::radio::SpeedProfile;
use charisma::{
    encode_replicated_result, fnv1a_64, run_sweep_replicated_observed, Axis, DurationSpec,
    FrameBudget, ProtocolKind, QueueToggle, ReplicatedResult, ReplicationPolicy, RepsSpec,
    RunReport, Scenario, ScenarioSpec, SimConfig, SweepPoint, SystemWorld,
};
use std::hint::black_box;
use std::time::Instant;

/// One benchmark workload (see README.md for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's cell: 60 voice + 10 data, CHARISMA with the request queue.
    PaperCell,
    /// The `smoke_10k` point: 9,000 voice + 1,000 data in one cell.
    Crowd10k,
    /// The `city_scale` point: 127 hex cells, 8 terminals each.
    City127,
    /// A Fig. 11-shaped campaign over all six protocols.
    Fig11Sweep,
}

/// A sweep point with its replication policy, as the sweep engine takes it.
pub type Point = (SweepPoint, ReplicationPolicy);

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperCell,
        Workload::Crowd10k,
        Workload::City127,
        Workload::Fig11Sweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCell => "paper_cell",
            Workload::Crowd10k => "crowd_10k",
            Workload::City127 => "city_127",
            Workload::Fig11Sweep => "fig11_sweep",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload's points run the multi-cell system layer.
    pub fn is_system(self) -> bool {
        self == Workload::City127
    }

    /// The workload as a scenario spec.  `threads` is `system_threads` on
    /// `city_127` and ignored elsewhere.
    ///
    /// Run lengths differ by workload so one operation (every replication
    /// of every point) takes 0.15-0.6 s on a 2-core host: a run repeats it
    /// often enough for a steady median.  Each operation covers several
    /// replication seeds because host time per terminal-frame depends on
    /// the simulated sample path; averaging over replications keeps the
    /// benchmark's figures close across `--seed` values.
    fn spec(self, seed: u64, threads: u32) -> ScenarioSpec {
        let mut spec = ScenarioSpec::new(self.name());
        spec.seed = Some(seed);
        let reps = match self {
            Workload::PaperCell | Workload::Fig11Sweep => 4,
            Workload::Crowd10k | Workload::City127 => 3,
        };
        spec.replications = RepsSpec::Policy(ReplicationPolicy::fixed(reps));
        match self {
            Workload::PaperCell => {
                spec.protocols = vec![ProtocolKind::Charisma];
                spec.voice_users = vec![60];
                spec.data_users = vec![10];
                spec.request_queue = QueueToggle::On;
                // The paper's own run length (Table 1: 10 s warm-up, 100 s
                // measured).
                spec.duration = DurationSpec::Frames {
                    warmup: 4_000,
                    measured: 40_000,
                };
            }
            Workload::Crowd10k => {
                spec.protocols = vec![ProtocolKind::Charisma];
                spec.voice_users = vec![9_000];
                spec.data_users = vec![1_000];
                spec.request_queue = QueueToggle::On;
                spec.duration = DurationSpec::Frames {
                    warmup: 200,
                    measured: 800,
                };
            }
            Workload::City127 => {
                spec.protocols = vec![ProtocolKind::Charisma];
                spec.voice_users = vec![6];
                spec.data_users = vec![2];
                spec.cells = charisma::hex_cells_for_rings(6);
                spec.layout = Layout::Hex {
                    cell_radius_m: 150.0,
                };
                spec.handoff = HandoffConfig {
                    admission: HandoffAdmission::Queue,
                    cell_capacity: 0,
                    retry_frames: 40,
                    hysteresis_m: 10.0,
                };
                spec.speed = SpeedProfile::Bimodal {
                    slow_kmh: 3.0,
                    fast_kmh: 80.0,
                    fraction_fast: 0.5,
                };
                spec.system_threads = threads;
                spec.duration = DurationSpec::Frames {
                    warmup: 200,
                    measured: 800,
                };
            }
            Workload::Fig11Sweep => {
                spec.axis = Axis::VoiceUsers;
                // Light load to past every protocol's 1 % capacity.
                spec.voice_users = vec![20, 60, 100, 140, 180];
                spec.data_users = vec![10];
                // Both panels of the figure: every protocol without the
                // request queue, and each that supports one with it.
                spec.request_queue = QueueToggle::Both;
                spec.duration = DurationSpec::Frames {
                    warmup: 400,
                    measured: 1_000,
                };
            }
        }
        spec
    }

    /// How many results (and fingerprints) one operation over `points`
    /// yields: one per point on `fig11_sweep`, one per run elsewhere.
    pub fn results_per_op(self, points: &[Point]) -> u64 {
        if self == Workload::Fig11Sweep {
            points.len() as u64
        } else {
            points
                .iter()
                .map(|(_, policy)| policy.min_reps as u64)
                .sum()
        }
    }

    /// The workload's sweep points at `seed`.
    pub fn points(self, seed: u64, threads: u32) -> Vec<Point> {
        // Every spec fixes its own duration, so the budget is unused.
        let unused = FrameBudget {
            warmup: 0,
            measured: 1,
        };
        self.spec(seed, threads)
            .expand(unused)
            .expect("workload specs are valid")
            .into_iter()
            .map(|p| (p.point, p.reps.unwrap_or(ReplicationPolicy::SINGLE)))
            .collect()
    }
}

/// Terminal-frames one run of `config` simulates.
pub fn terminal_frames(config: &SimConfig) -> u64 {
    let cells = config.system.map_or(1, |s| s.cells) as u64;
    cells * (config.num_voice + config.num_data) as u64 * config.total_frames()
}

/// A single run's report in the shape the sweep engine produces, so every
/// workload is fingerprinted over the same encoding.
pub fn wrap(point: &SweepPoint, report: RunReport) -> ReplicatedResult {
    let mut stats = RepsAccumulator::new();
    stats.push(&report.metrics);
    ReplicatedResult {
        load: point.load,
        protocol: point.protocol,
        report,
        stats,
    }
}

/// FNV-1a over the bit-exact persisted encoding of a result.
pub fn fingerprint(result: &ReplicatedResult) -> u64 {
    fnv1a_64(
        encode_replicated_result(result)
            .to_compact_string()
            .as_bytes(),
    )
}

/// One completed operation: every replication of every point.
pub struct Op {
    /// One result per run (`fig11_sweep`: per point, with replication 0's
    /// report and the statistics over all replications).
    pub results: Vec<ReplicatedResult>,
    pub terminal_frames: u64,
    /// Building the worlds.
    pub setup_s: f64,
    /// Simulating (for `fig11_sweep` the campaign, set-up included).
    pub sim_s: f64,
    /// What the user waits for.
    pub wall_s: f64,
}

impl Op {
    pub fn fingerprints(&self) -> Vec<u64> {
        self.results.iter().map(fingerprint).collect()
    }
}

/// Every simulation run of `points`: each point at each of its
/// replication seeds, in point order.
pub fn runs(points: &[Point]) -> Vec<SweepPoint> {
    points
        .iter()
        .flat_map(|(point, policy)| {
            (0..policy.min_reps).map(move |rep| {
                let mut run = point.clone();
                run.config.seed = point.config.replication_seed(rep);
                run
            })
        })
        .collect()
}

/// Runs one operation of `workload` over `points` with up to `workers`
/// sweep workers, through the public path a user takes.
pub fn run_op(workload: Workload, points: &[Point], workers: usize) -> Op {
    let mut op = Op {
        results: Vec::new(),
        terminal_frames: 0,
        setup_s: 0.0,
        sim_s: 0.0,
        wall_s: 0.0,
    };
    match workload {
        Workload::PaperCell | Workload::Crowd10k => {
            for run in runs(points) {
                // `Scenario::run` builds its world internally; set-up is
                // timed by building the same world from the same public
                // calls.
                let start = Instant::now();
                let world = black_box(SingleCell::build(&run.config, run.protocol));
                op.setup_s += start.elapsed().as_secs_f64();
                drop(world);
                let start = Instant::now();
                let report = Scenario::new(run.config.clone()).run(run.protocol);
                op.sim_s += start.elapsed().as_secs_f64();
                op.terminal_frames += terminal_frames(&run.config);
                op.results.push(wrap(&run, report));
            }
            op.wall_s = op.sim_s;
        }
        Workload::City127 => {
            for run in runs(points) {
                let start = Instant::now();
                let mut world = SystemWorld::new(run.config.clone(), run.protocol);
                op.setup_s += start.elapsed().as_secs_f64();
                let start = Instant::now();
                let report = world.run();
                op.sim_s += start.elapsed().as_secs_f64();
                op.terminal_frames += terminal_frames(&run.config);
                op.results.push(wrap(&run, report));
            }
            op.wall_s = op.setup_s + op.sim_s;
        }
        Workload::Fig11Sweep => {
            // The sweep builds every replication's world inside its workers;
            // set-up is timed by building the same worlds up front.
            for run in runs(points) {
                let start = Instant::now();
                let world = black_box(SingleCell::build(&run.config, run.protocol));
                op.setup_s += start.elapsed().as_secs_f64();
                drop(world);
                op.terminal_frames += terminal_frames(&run.config);
            }
            let (results, wall_s) = run_campaign(points, workers, &|_, _| true);
            op.results = results;
            op.sim_s = wall_s;
            op.wall_s = wall_s;
        }
    }
    op
}

/// Runs `points` through `run_sweep_replicated_observed`, returning the
/// results in point order and the campaign wall-clock.
pub fn run_campaign(
    points: &[Point],
    workers: usize,
    observer: &(dyn Fn(usize, &ReplicatedResult) -> bool + Sync),
) -> (Vec<ReplicatedResult>, f64) {
    let blank = vec![None; points.len()];
    let start = Instant::now();
    let results = run_sweep_replicated_observed(points.to_vec(), workers, blank, observer);
    let wall = start.elapsed().as_secs_f64();
    let results = results
        .into_iter()
        .map(|r| r.expect("no observer aborts the campaign"))
        .collect();
    (results, wall)
}

/// The fingerprints stored beside the benchmark, for `workload` at `seed`.
pub fn stored_fingerprints(workload: Workload, seed: u64) -> Option<Vec<u64>> {
    include_str!("../fingerprints.txt")
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .find_map(|line| {
            let mut fields = line.split_whitespace();
            let name = fields.next()?;
            let line_seed: u64 = fields.next()?.parse().ok()?;
            if name != workload.name() || line_seed != seed {
                return None;
            }
            fields.map(|f| u64::from_str_radix(f, 16).ok()).collect()
        })
}

/// Counts operations and checks each one's fingerprints against the
/// reference: the stored fingerprints at the default seed, otherwise the
/// first operation's (so every later run of the same seed must repeat it).
pub struct Checker {
    reference: Option<Vec<u64>>,
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is incorrect, if it is.
    pub problems: Vec<String>,
}

impl Checker {
    pub fn new(stored: Option<Vec<u64>>) -> Checker {
        Checker {
            reference: stored,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Checks one operation's per-point fingerprints.
    pub fn check(&mut self, what: &str, fps: &[u64]) {
        self.attempted += fps.len() as u64;
        let reference = self.reference.get_or_insert_with(|| fps.to_vec());
        if reference.len() != fps.len() {
            let problem = format!(
                "{what}: {} points, reference has {}",
                fps.len(),
                reference.len()
            );
            self.fail(fps.len() as u64, problem);
            return;
        }
        let mismatched = fps
            .iter()
            .zip(reference.iter())
            .filter(|(a, b)| a != b)
            .count();
        if mismatched > 0 {
            self.fail(
                mismatched as u64,
                format!("{what}: {mismatched} fingerprint(s) differ from the reference"),
            );
        }
    }

    /// Records a check that is not a fingerprint comparison (an oracle).
    pub fn expect(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.fail(1, format!("{what}: mismatch"));
        }
    }

    /// Records `ops` operations that panicked.
    pub fn panicked(&mut self, what: &str, ops: u64) {
        self.attempted += ops;
        self.fail(ops, format!("{what}: panicked"));
    }

    fn fail(&mut self, ops: u64, problem: String) {
        self.failed += ops;
        if self.problems.len() < 8 {
            self.problems.push(problem);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Runs `f`, which stands for `ops` operations; a panic counts them all
    /// as failed.
    pub fn guarded<T>(&mut self, what: &str, ops: u64, f: impl FnOnce() -> T) -> Option<T> {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
            Ok(value) => Some(value),
            Err(_) => {
                self.panicked(what, ops);
                None
            }
        }
    }
}
