//! Multi-threaded, replication-aware parameter sweeps.
//!
//! Every point of a sweep (a protocol × load × queue-variant combination) is
//! an independent simulation with its own deterministic random streams, so
//! the sweep is embarrassingly parallel: the result vector is pre-split into
//! one exclusive `&mut` cell per point, the cells are dealt round-robin to
//! the workers (the calling thread plus scoped threads, one worker per
//! available core by default), and every worker writes straight into its
//! own cells — no shared lock, no contention, and results land in the
//! original point order by construction.  [`run_sweep_replicated_observed`]
//! is the one entry point.
//!
//! A point may run more than one **replication**: independent repeats of the
//! same configuration on per-replication seed streams derived from the point
//! seed ([`SimConfig::replication_seed`]).  All replications of a point run
//! sequentially inside the worker that owns the point — including the
//! optional sequential stopping rule of [`ReplicationPolicy`] — so the
//! replication count and every accumulated statistic are a pure function of
//! (point, policy), independent of the sweep thread count.

use crate::config::SimConfig;
use crate::protocols::ProtocolKind;
use crate::scenario::{RunReport, Scenario};
use charisma_metrics::RepsAccumulator;
use serde::{Deserialize, Serialize};

/// How many independent replications each sweep point runs.
///
/// `min_reps` replications always run.  When `target_rel_ci95` is set, the
/// sequential stopping rule then keeps adding replications — one at a time,
/// up to `max_reps` — until the relative 95 % Student-t confidence half-width
/// of every headline metric (voice loss, data throughput, data delay) is at
/// or below the target.  Without a target exactly `min_reps` replications
/// run and `max_reps` is ignored beyond validation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReplicationPolicy {
    /// Replications always executed (≥ 1).
    pub min_reps: u32,
    /// Hard cap on replications when the stopping rule is active (≥ min).
    pub max_reps: u32,
    /// Optional stopping-rule target for the relative CI95 half-width.
    pub target_rel_ci95: Option<f64>,
}

impl ReplicationPolicy {
    /// One replication per point.
    pub const SINGLE: ReplicationPolicy = ReplicationPolicy {
        min_reps: 1,
        max_reps: 1,
        target_rel_ci95: None,
    };

    /// Exactly `reps` replications, no stopping rule.
    pub fn fixed(reps: u32) -> Self {
        ReplicationPolicy {
            min_reps: reps,
            max_reps: reps,
            target_rel_ci95: None,
        }
    }

    /// `min`..=`max` replications with the sequential stopping rule at
    /// relative CI95 half-width `target`.
    pub fn adaptive(min_reps: u32, max_reps: u32, target_rel_ci95: f64) -> Self {
        ReplicationPolicy {
            min_reps,
            max_reps,
            target_rel_ci95: Some(target_rel_ci95),
        }
    }

    /// A one-line human-readable summary (`campaign list`/`describe` and the
    /// handbook preamble print this, so CLI and docs agree by construction).
    pub fn describe(&self) -> String {
        match self.target_rel_ci95 {
            None if self.min_reps == 1 => "1 replication".into(),
            None => format!("{} replications (fixed)", self.min_reps),
            Some(target) => format!(
                "{}-{} replications, stop at rel-CI95 <= {:.0}%",
                self.min_reps,
                self.max_reps,
                target * 100.0
            ),
        }
    }

    /// Validates the policy.
    pub fn validate(&self) -> Result<(), String> {
        if self.min_reps == 0 {
            return Err("replication policy needs at least one replication".into());
        }
        if self.max_reps < self.min_reps {
            return Err(format!(
                "replication max_reps ({}) is below min_reps ({})",
                self.max_reps, self.min_reps
            ));
        }
        if let Some(t) = self.target_rel_ci95 {
            if !(t.is_finite() && t > 0.0) {
                return Err(format!(
                    "replication target_rel_ci95 must be a positive finite number, got {t}"
                ));
            }
        }
        Ok(())
    }
}

impl Default for ReplicationPolicy {
    fn default() -> Self {
        Self::SINGLE
    }
}

/// One point of a sweep: a full scenario configuration plus the protocol to
/// run on it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Label of the independent variable (e.g. the number of voice users).
    pub load: f64,
    /// The protocol to simulate.
    pub protocol: ProtocolKind,
    /// The scenario configuration for this point.
    pub config: SimConfig,
}

/// The result of one sweep point executed under a [`ReplicationPolicy`]:
/// replication 0's full report plus the across-replication accumulator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicatedResult {
    /// The independent variable of the point.
    pub load: f64,
    /// The protocol that was simulated.
    pub protocol: ProtocolKind,
    /// Replication 0's full report (its seed is the point seed itself, so a
    /// single-replication sweep reproduces a plain `Scenario::run`).
    pub report: RunReport,
    /// Mean/CI statistics of the headline metrics across all replications.
    pub stats: RepsAccumulator,
}

/// Runs one point's replications sequentially, applying the stopping rule.
fn run_point(point: &SweepPoint, policy: ReplicationPolicy) -> ReplicatedResult {
    let mut stats = RepsAccumulator::new();
    let mut first: Option<RunReport> = None;
    let mut rep: u32 = 0;
    loop {
        let mut config = point.config.clone();
        config.seed = point.config.replication_seed(rep);
        let report = Scenario::new(config).run(point.protocol);
        stats.push(&report.metrics);
        if first.is_none() {
            first = Some(report);
        }
        rep += 1;
        if rep < policy.min_reps {
            continue;
        }
        match policy.target_rel_ci95 {
            None => break,
            Some(target) => {
                if rep >= policy.max_reps || stats.within_target(target) {
                    break;
                }
            }
        }
    }
    ReplicatedResult {
        load: point.load,
        protocol: point.protocol,
        report: first.expect("at least one replication ran"),
        stats,
    }
}

/// Runs all sweep points with their replication policies on up to `threads`
/// workers (0 ⇒ one per available core), with a resume seam and a
/// completion observer.  This is the one sweep engine: campaigns, durable
/// (checkpointed) runs and the host-time benchmark all execute through it.
///
/// * `precomputed` must be one slot per point.  A `Some` slot is a point
///   already completed by an earlier (interrupted) run: it is returned
///   verbatim, never re-simulated and never observed.  Because every point's
///   result is a pure function of (point, policy), splicing checkpointed
///   results in this way reproduces an uninterrupted sweep bit for bit.
/// * `observer` is called once per *newly computed* point with the point's
///   index in `points` and its result, from whichever worker finished it —
///   the calling thread is worker 0 (callers needing order must use the
///   index).  Returning `false` requests a cooperative abort: no worker
///   starts another point, though points already in flight on other workers
///   still complete and are observed.  Aborted (never-started) points come
///   back as `None`.
///
/// Results are returned in the same order as `points`, and — because all
/// replications of a point run sequentially inside the worker that owns the
/// point — are byte-identical across thread counts.
///
/// This is *inter*-point parallelism.  Multi-cell points can additionally
/// parallelise *within* a point via [`SystemConfig::threads`]
/// (`system_threads` in scenario specs), which shards the cells of one
/// frame across workers on the deterministic wavefront documented in
/// [`crate::system`]; both levels compose and neither changes output bytes.
///
/// [`SystemConfig::threads`]: crate::config::SystemConfig::threads
pub fn run_sweep_replicated_observed(
    points: Vec<(SweepPoint, ReplicationPolicy)>,
    threads: usize,
    precomputed: Vec<Option<ReplicatedResult>>,
    observer: &(dyn Fn(usize, &ReplicatedResult) -> bool + Sync),
) -> Vec<Option<ReplicatedResult>> {
    use std::sync::atomic::{AtomicBool, Ordering};

    assert_eq!(
        points.len(),
        precomputed.len(),
        "one precomputed slot per sweep point"
    );
    let pending = precomputed.iter().filter(|r| r.is_none()).count();
    let worker_count = if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    }
    .min(pending.max(1));

    // Pre-split the result vector: each pending point gets its own exclusive
    // slot, so workers write results without ever touching a shared lock.
    // Cells are dealt round-robin, which also interleaves cheap and expensive
    // points (sweeps typically order points by increasing load) across
    // workers.
    type Cell<'a> = (
        usize,
        &'a (SweepPoint, ReplicationPolicy),
        &'a mut Option<ReplicatedResult>,
    );
    let mut results = precomputed;
    let mut buckets: Vec<Vec<Cell<'_>>> = (0..worker_count).map(|_| Vec::new()).collect();
    let mut dealt = 0usize;
    for (idx, (point, slot)) in points.iter().zip(results.iter_mut()).enumerate() {
        if slot.is_some() {
            continue;
        }
        buckets[dealt % worker_count].push((idx, point, slot));
        dealt += 1;
    }

    let abort = AtomicBool::new(false);
    let run_bucket = |bucket: Vec<Cell<'_>>| {
        for (idx, (point, policy), slot) in bucket {
            if abort.load(Ordering::Relaxed) {
                break;
            }
            let result = run_point(point, *policy);
            if !observer(idx, &result) {
                abort.store(true, Ordering::Relaxed);
            }
            *slot = Some(result);
        }
    };
    // The caller is worker 0 and `worker_count − 1` scoped threads run the
    // other buckets, so a one-worker sweep spawns nothing.
    let run_bucket = &run_bucket;
    std::thread::scope(|scope| {
        let mut buckets = buckets.into_iter();
        let own = buckets.next().expect("at least one worker");
        for bucket in buckets {
            scope.spawn(move || run_bucket(bucket));
        }
        run_bucket(own);
    });

    results
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One point per voice count on a short run, holding the data
    /// population fixed.
    fn voice_points(
        protocol: ProtocolKind,
        voice_counts: &[u32],
        num_data: u32,
    ) -> Vec<SweepPoint> {
        voice_counts
            .iter()
            .map(|&nv| {
                let mut config = SimConfig::quick_test();
                config.warmup_frames = 200;
                config.measured_frames = 1_200;
                config.num_voice = nv;
                config.num_data = num_data;
                SweepPoint {
                    load: nv as f64,
                    protocol,
                    config,
                }
            })
            .collect()
    }

    fn with_policy(
        points: &[SweepPoint],
        policy: ReplicationPolicy,
    ) -> Vec<(SweepPoint, ReplicationPolicy)> {
        points.iter().map(|p| (p.clone(), policy)).collect()
    }

    /// Runs every point to completion.
    fn run_all(
        points: &[SweepPoint],
        policy: ReplicationPolicy,
        threads: usize,
    ) -> Vec<ReplicatedResult> {
        let blank = vec![None; points.len()];
        run_sweep_replicated_observed(with_policy(points, policy), threads, blank, &|_, _| true)
            .into_iter()
            .map(|r| r.expect("no observer aborts the sweep"))
            .collect()
    }

    #[test]
    fn sweep_preserves_point_order_and_loads() {
        let points = voice_points(ProtocolKind::DTdmaFr, &[5, 10, 15], 0);
        let results = run_all(&points, ReplicationPolicy::SINGLE, 3);
        let loads: Vec<f64> = results.iter().map(|r| r.load).collect();
        assert_eq!(loads, vec![5.0, 10.0, 15.0]);
        for r in &results {
            assert_eq!(r.protocol, ProtocolKind::DTdmaFr);
            assert_eq!(r.report.num_voice as f64, r.load);
            assert_eq!(r.report.num_data, 0);
        }
    }

    #[test]
    fn parallel_and_serial_sweeps_agree() {
        let mut points = voice_points(ProtocolKind::Charisma, &[4, 8], 1);
        points[1].config.request_queue = true;
        let serial = run_all(&points, ReplicationPolicy::SINGLE, 1);
        let parallel = run_all(&points, ReplicationPolicy::SINGLE, 4);
        assert_eq!(
            serial, parallel,
            "parallel execution must not change results"
        );
    }

    #[test]
    fn empty_sweep_is_fine() {
        for threads in [0, 1, 4] {
            let observer = |_: usize, _: &ReplicatedResult| -> bool {
                panic!("an empty sweep observes nothing")
            };
            assert!(
                run_sweep_replicated_observed(Vec::new(), threads, Vec::new(), &observer)
                    .is_empty()
            );
        }
    }

    #[test]
    fn replication_policy_validation() {
        assert!(ReplicationPolicy::SINGLE.validate().is_ok());
        assert!(ReplicationPolicy::fixed(3).validate().is_ok());
        assert!(ReplicationPolicy::adaptive(3, 8, 0.1).validate().is_ok());
        assert!(ReplicationPolicy::fixed(0).validate().is_err());
        assert!(ReplicationPolicy::adaptive(4, 2, 0.1).validate().is_err());
        assert!(ReplicationPolicy::adaptive(2, 4, 0.0).validate().is_err());
        assert!(ReplicationPolicy::adaptive(2, 4, f64::NAN)
            .validate()
            .is_err());
    }

    #[test]
    fn single_policy_reproduces_a_plain_scenario_run() {
        let points = voice_points(ProtocolKind::Charisma, &[8], 2);
        let plain = Scenario::new(points[0].config.clone()).run(ProtocolKind::Charisma);
        let replicated = run_all(&points, ReplicationPolicy::SINGLE, 1);
        assert_eq!(replicated[0].report, plain);
        assert_eq!(replicated[0].stats.reps(), 1);
        // With one replication the mean is replication 0's own metric.
        assert_eq!(
            replicated[0].stats.voice_loss().mean(),
            plain.voice_loss_rate()
        );
        assert_eq!(replicated[0].stats.voice_loss().ci95_half_width(), 0.0);
    }

    #[test]
    fn replications_use_distinct_seed_streams_and_average_them() {
        let points = voice_points(ProtocolKind::DTdmaFr, &[30], 2);
        let point = &points[0];
        let r = &run_all(&points, ReplicationPolicy::fixed(3), 1)[0];
        assert_eq!(r.stats.reps(), 3);

        // The accumulator mean must equal the average of three standalone
        // runs on the derived replication seeds.
        let mut manual = 0.0;
        for rep in 0..3 {
            let mut cfg = point.config.clone();
            cfg.seed = point.config.replication_seed(rep);
            manual += Scenario::new(cfg).run(point.protocol).voice_loss_rate();
        }
        manual /= 3.0;
        assert!(
            (r.stats.voice_loss().mean() - manual).abs() < 1e-15,
            "accumulated {} vs manual {}",
            r.stats.voice_loss().mean(),
            manual
        );
        // Independent seeds at an overloaded operating point produce
        // replication-to-replication variance.
        assert!(r.stats.voice_loss().ci95_half_width() > 0.0);
        // Replication 0's report is the point-seed run.
        assert_eq!(r.report.seed, point.config.seed);
    }

    #[test]
    fn replicated_results_are_identical_across_thread_counts() {
        let points = voice_points(ProtocolKind::Charisma, &[10, 20, 30], 1);
        let serial = run_all(&points, ReplicationPolicy::fixed(3), 1);
        let parallel = run_all(&points, ReplicationPolicy::fixed(3), 4);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn precomputed_points_are_spliced_not_resimulated() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let points = voice_points(ProtocolKind::Charisma, &[5, 10, 15], 1);
        let policy = ReplicationPolicy::fixed(2);
        let full = run_all(&points, policy, 1);

        // Hand point 1 back as "already done" and watch only 0 and 2 recompute.
        let precomputed = vec![None, Some(full[1].clone()), None];
        let observed = AtomicUsize::new(0);
        let resumed = run_sweep_replicated_observed(
            with_policy(&points, policy),
            2,
            precomputed,
            &|idx, r| {
                observed.fetch_add(1, Ordering::Relaxed);
                assert_ne!(idx, 1, "precomputed point must not be observed");
                assert_eq!(r, &full[idx]);
                true
            },
        );
        assert_eq!(observed.load(Ordering::Relaxed), 2);
        let resumed: Vec<ReplicatedResult> = resumed.into_iter().map(Option::unwrap).collect();
        assert_eq!(
            resumed, full,
            "splice must reproduce the full sweep exactly"
        );
    }

    #[test]
    fn observer_abort_stops_starting_new_points() {
        let points = voice_points(ProtocolKind::DTdmaFr, &[5, 10, 15, 20], 0);
        let points = with_policy(&points, ReplicationPolicy::SINGLE);
        let blank = vec![None; points.len()];
        // Single worker: abort after the first completion is exact.
        let partial = run_sweep_replicated_observed(points, 1, blank, &|_, _| false);
        assert!(partial[0].is_some());
        assert!(partial[1..].iter().all(Option::is_none));
    }

    #[test]
    fn the_calling_thread_is_worker_zero() {
        use std::sync::Mutex;
        use std::thread::ThreadId;
        let points = voice_points(ProtocolKind::DTdmaFr, &[5, 10, 15, 20], 0);
        let points = with_policy(&points, ReplicationPolicy::SINGLE);
        let blank = vec![None; points.len()];
        let seen: Mutex<Vec<(usize, ThreadId)>> = Mutex::new(Vec::new());
        run_sweep_replicated_observed(points, 2, blank, &|idx, _| {
            let id = std::thread::current().id();
            seen.lock().unwrap().push((idx, id));
            true
        });
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 4);
        // Round-robin dealing gives worker 0 (the caller) points 0 and 2,
        // and the one other worker points 1 and 3.
        let caller = std::thread::current().id();
        for &(idx, id) in &seen {
            assert_eq!(id == caller, idx % 2 == 0, "point {idx}");
        }
        let mut others: Vec<ThreadId> = seen.iter().map(|&(_, id)| id).collect();
        others.retain(|&id| id != caller);
        others.dedup();
        assert_eq!(
            others.len(),
            1,
            "two workers are the caller plus one thread"
        );
    }

    #[test]
    fn stopping_rule_runs_to_the_cap_when_the_target_is_unreachable() {
        let points = voice_points(ProtocolKind::DTdmaFr, &[30], 2);
        let tight = run_all(&points, ReplicationPolicy::adaptive(2, 5, 1e-12), 1);
        assert_eq!(
            tight[0].stats.reps(),
            5,
            "unreachable target must hit max_reps"
        );

        // A sky-high target is satisfied as soon as min_reps gives a
        // variance estimate.
        let loose = run_all(&points, ReplicationPolicy::adaptive(2, 5, 1e12), 1);
        assert_eq!(loose[0].stats.reps(), 2);
    }
}
