//! Determinism regression tests: a scenario is a pure function of
//! (`SimConfig`, protocol), no matter how often it runs or how many threads
//! execute the surrounding sweep.  This is the property every later
//! performance PR (sharding, batching, parallel sweeps) must preserve.
//!
//! The campaign-layer tests extend the property one level up: a registry
//! campaign's rendered CSV bytes are a pure function of (campaign, frame
//! budget), across repeats and across sweep thread counts.

use charisma::{
    run_sweep_replicated_observed, Campaign, FrameBudget, ProtocolKind, ReplicatedResult,
    ReplicationPolicy, Scenario, SimConfig, SweepPoint,
};
use charisma_bench::{registry, BenchProfile};

fn config(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::quick_test();
    cfg.num_voice = 25;
    cfg.num_data = 3;
    cfg.seed = seed;
    cfg.warmup_frames = 300;
    cfg.measured_frames = 2_400; // 6 s
    cfg
}

#[test]
fn identical_config_and_seed_give_byte_identical_reports() {
    for protocol in [
        ProtocolKind::Charisma,
        ProtocolKind::DTdmaFr,
        ProtocolKind::Drma,
    ] {
        let a = Scenario::new(config(0xDE7E_2017)).run(protocol);
        let b = Scenario::new(config(0xDE7E_2017)).run(protocol);
        assert_eq!(a, b, "{protocol:?}: reports differ structurally");
        // Byte-identical, not merely equal: the serialised form downstream
        // tooling persists must also be reproducible.
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "{protocol:?}: serialised reports differ"
        );
    }
}

#[test]
fn different_seeds_actually_change_the_sample_path() {
    let a = Scenario::new(config(1)).run(ProtocolKind::Charisma);
    let b = Scenario::new(config(2)).run(ProtocolKind::Charisma);
    assert_ne!(a, b, "changing the master seed must change the run");
}

/// The campaign's CSV at one replication per point on `threads` sweep
/// workers.
fn campaign_csv(campaign: &Campaign, budget: FrameBudget, threads: usize) -> String {
    let run = campaign.run(budget, ReplicationPolicy::SINGLE, threads);
    run.unwrap().to_csv()
}

/// Runs `points` (one replication each) to completion on `threads` sweep
/// workers.
fn run_points(points: &[SweepPoint], threads: usize) -> Vec<ReplicatedResult> {
    let points: Vec<_> = points
        .iter()
        .map(|p| (p.clone(), ReplicationPolicy::SINGLE))
        .collect();
    let blank = vec![None; points.len()];
    run_sweep_replicated_observed(points, threads, blank, &|_, _| true)
        .into_iter()
        .map(|r| r.expect("no observer aborts the sweep"))
        .collect()
}

#[test]
fn sweep_results_are_independent_of_thread_count() {
    let points: Vec<SweepPoint> = ProtocolKind::ALL
        .iter()
        .enumerate()
        .map(|(i, &protocol)| SweepPoint {
            load: i as f64,
            protocol,
            config: config(0xBEEF + i as u64),
        })
        .collect();

    let serial = run_points(&points, 1);
    let parallel = run_points(&points, 4);

    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(parallel.iter()) {
        assert_eq!(s.load, p.load, "sweep reordered its points");
        assert_eq!(s.protocol, p.protocol, "sweep reordered its protocols");
        assert_eq!(
            s.report, p.report,
            "{:?}: serial vs 4-thread reports differ",
            s.protocol
        );
        assert_eq!(
            format!("{:?}", s.report),
            format!("{:?}", p.report),
            "{:?}: serialised serial vs 4-thread reports differ",
            s.protocol
        );
    }
}

/// The registry's `fig11` campaign, miniaturised for a debug-build test: the
/// full `campaign run fig11 --profile quick` shape (all panels, both queue
/// variants, the same expansion/render code path), but with trimmed grids,
/// a three-protocol subset and a ~1/6 frame budget so the 2x2 run matrix
/// below stays inside unit-test time.  The released binary runs the
/// untrimmed campaign through `Campaign::run_observed`, the runner behind
/// the `Campaign::run` + `to_csv` calls this test exercises.
fn mini_fig11() -> Campaign {
    let mut campaign =
        registry::build_campaign("fig11", BenchProfile::Quick).expect("fig11 is a sweep campaign");
    for spec in &mut campaign.specs {
        spec.protocols = vec![
            ProtocolKind::Charisma,
            ProtocolKind::DTdmaFr,
            ProtocolKind::Rmav,
        ];
        spec.voice_users = vec![10, 25];
        spec.data_users = vec![0, 2];
    }
    campaign
}

fn mini_budget() -> FrameBudget {
    FrameBudget {
        warmup: 120,
        measured: 720,
    }
}

#[test]
fn campaign_csv_bytes_are_identical_across_runs() {
    let campaign = mini_fig11();
    let a = campaign_csv(&campaign, mini_budget(), 1);
    let b = campaign_csv(&campaign, mini_budget(), 1);
    assert!(!a.is_empty());
    assert_eq!(a, b, "two identical campaign runs rendered different CSVs");
}

#[test]
fn campaign_csv_bytes_are_identical_across_sweep_thread_counts() {
    let campaign = mini_fig11();
    let serial = campaign_csv(&campaign, mini_budget(), 1);
    let parallel = campaign_csv(&campaign, mini_budget(), 4);
    assert_eq!(
        serial, parallel,
        "campaign CSV must not depend on the sweep thread count"
    );
    // Sanity: the mini campaign still covers every (queue, Nd) panel.
    let lines: Vec<&str> = serial.lines().collect();
    // Header + (2 off-queue protocols incl. RMAV, 2 on-queue protocols
    // excl. RMAV... ) — count data rows explicitly:
    // off-queue: 3 protocols x 2 Nd x 2 Nv = 12; on-queue: 2 x 2 x 2 = 8.
    assert_eq!(lines.len(), 1 + 12 + 8);
    assert!(lines[0].starts_with("scenario,protocol,request_queue"));
    assert!(serial.contains("RMAV,false"));
    assert!(!serial.contains("RMAV,true"), "RMAV has no queue variant");
}

/// A two-protocol, four-point slice of the fig11 campaign shape, kept tiny
/// because the replication matrix below runs it 3 x 3 times in a debug
/// build.
fn micro_fig11() -> Campaign {
    let mut campaign = mini_fig11();
    for spec in &mut campaign.specs {
        spec.protocols = vec![ProtocolKind::Charisma, ProtocolKind::DTdmaFr];
        spec.voice_users = vec![12];
        spec.data_users = vec![0, 2];
        spec.request_queue = charisma::QueueToggle::Off;
    }
    campaign
}

/// The registry's `multicell_baseline` campaign, miniaturised: the full
/// 7-cell hex system with mobility, path loss and handoff, but two
/// protocols, one grid point and a short budget so the thread matrix stays
/// inside unit-test time.
fn mini_multicell() -> Campaign {
    let mut campaign = registry::build_campaign("multicell_baseline", BenchProfile::Quick)
        .expect("multicell_baseline is a sweep campaign");
    for spec in &mut campaign.specs {
        spec.protocols = vec![ProtocolKind::Charisma, ProtocolKind::DTdmaFr];
        spec.voice_users = vec![8];
        spec.data_users = vec![2];
    }
    campaign
}

#[test]
fn multicell_campaign_csv_bytes_are_identical_across_runs_and_threads() {
    // The multi-cell acceptance property: a system run (cells, mobility,
    // path loss, handoff) is one sequential unit of work per sweep point,
    // so its campaign CSV — and every handoff counter behind it — is
    // byte-identical across repeats and across sweep worker counts.
    let campaign = mini_multicell();
    let serial = campaign
        .run(mini_budget(), ReplicationPolicy::SINGLE, 1)
        .unwrap();
    let again = campaign
        .run(mini_budget(), ReplicationPolicy::SINGLE, 1)
        .unwrap();
    let parallel = campaign
        .run(mini_budget(), ReplicationPolicy::SINGLE, 4)
        .unwrap();
    assert_eq!(
        serial.to_csv(),
        again.to_csv(),
        "multicell campaign CSV differs across runs"
    );
    assert_eq!(
        serial.to_csv(),
        parallel.to_csv(),
        "multicell campaign CSV must not depend on the sweep thread count"
    );
    // The handoff counters (not part of the uniform CSV) must agree too.
    for (s, p) in serial.rows.iter().zip(&parallel.rows) {
        assert_eq!(
            s.report.metrics.handoff, p.report.metrics.handoff,
            "handoff counters differ across thread counts"
        );
        assert_eq!(s.report.metrics.per_cell, p.report.metrics.per_cell);
        assert_eq!(s.report.metrics.per_cell.len(), 7, "7-cell system expected");
    }
    // Terminals actually roam in this miniature too.
    assert!(
        serial
            .rows
            .iter()
            .all(|r| r.report.metrics.handoff.successes > 0),
        "expected nonzero handoffs in every row"
    );
}

/// Sets the intra-point worker-thread count on every spec of a campaign.
fn with_system_threads(mut campaign: Campaign, threads: u32) -> Campaign {
    for spec in &mut campaign.specs {
        spec.system_threads = threads;
    }
    campaign
}

/// The registry's `handoff_stress` campaign, miniaturised: the 3-cell
/// corridor under admission pressure (both the drop-on-full and the queue
/// scenarios), with a short budget for the thread matrix below.
fn mini_handoff_stress() -> Campaign {
    let mut campaign = registry::build_campaign("handoff_stress", BenchProfile::Quick)
        .expect("handoff_stress is a sweep campaign");
    for spec in &mut campaign.specs {
        spec.protocols = vec![ProtocolKind::Charisma];
        spec.voice_users = vec![10];
        spec.data_users = vec![2];
        spec.handoff.cell_capacity = 13;
    }
    campaign
}

/// The registry's `city_scale` campaign, miniaturised: the full 127-cell
/// hexagonal city stepped by the sharded frame loop, with tiny per-cell
/// populations and a short budget so the debug-build thread matrix stays
/// inside unit-test time.
fn mini_city() -> Campaign {
    let mut campaign = registry::build_campaign("city_scale", BenchProfile::Quick)
        .expect("city_scale is a sweep campaign");
    for spec in &mut campaign.specs {
        spec.protocols = vec![ProtocolKind::Charisma];
        spec.voice_users = vec![2];
        spec.data_users = vec![1];
    }
    campaign
}

#[test]
fn sharded_multicell_campaign_is_byte_identical_at_any_thread_count() {
    // The tentpole acceptance property: the campaign CSV bytes of a
    // multi-cell entry are a pure function of the campaign, regardless of
    // how many worker threads step the cells inside each sweep point.
    // Thread count 0 runs every cell on the calling thread; 2 and 4 deal
    // the cells across threads in contiguous blocks (4 does not divide 7,
    // so the deal is uneven too).
    let reference = campaign_csv(&with_system_threads(mini_multicell(), 0), mini_budget(), 1);
    for threads in [1u32, 2, 4] {
        let sharded = campaign_csv(
            &with_system_threads(mini_multicell(), threads),
            mini_budget(),
            1,
        );
        assert_eq!(
            reference, sharded,
            "multicell_baseline CSV diverged at system_threads={threads}"
        );
    }
}

#[test]
fn sharded_handoff_stress_campaign_is_byte_identical_at_any_thread_count() {
    // Same property under admission pressure: refused and queued handoffs
    // travel through the per-frame mailboxes, so the serial merge order —
    // not the worker schedule — decides who gets the last admission slot.
    let reference = campaign_csv(
        &with_system_threads(mini_handoff_stress(), 0),
        mini_budget(),
        1,
    );
    for threads in [2u32, 4] {
        let sharded = campaign_csv(
            &with_system_threads(mini_handoff_stress(), threads),
            mini_budget(),
            1,
        );
        assert_eq!(
            reference, sharded,
            "handoff_stress CSV diverged at system_threads={threads}"
        );
    }
}

#[test]
fn sharded_city_scale_campaign_is_byte_identical_at_any_thread_count() {
    // The 127-cell city entry ships with system_threads = 4 in the
    // registry; its CSV must match the single-thread bytes exactly.
    let budget = FrameBudget {
        warmup: 60,
        measured: 240,
    };
    let reference = campaign_csv(&with_system_threads(mini_city(), 0), budget, 1);
    for threads in [2u32, 4] {
        let sharded = campaign_csv(&with_system_threads(mini_city(), threads), budget, 1);
        assert_eq!(
            reference, sharded,
            "city_scale CSV diverged at system_threads={threads}"
        );
    }
}

#[test]
fn sharded_frames_never_lose_or_duplicate_terminals() {
    // The mailbox-merge conservation property, checked through the public
    // system API with the sharded path active: after a run full of
    // migrations on 4 worker threads, every terminal is attached exactly
    // once and the per-cell occupancy statistics account for the whole
    // population in every measured frame.
    let mut cfg = SimConfig::quick_test();
    cfg.num_voice = 6;
    cfg.num_data = 2;
    cfg.warmup_frames = 200;
    cfg.measured_frames = 1_600;
    let mut system = charisma::SystemConfig::new(7);
    system.layout = charisma::Layout::Hex {
        cell_radius_m: 100.0,
    };
    system.handoff.hysteresis_m = 5.0;
    system.threads = 4;
    cfg.system = Some(system);
    let mut world = charisma::SystemWorld::new(cfg.clone(), ProtocolKind::Charisma);
    let report = world.run();
    let total = 7 * (cfg.num_voice + cfg.num_data) as usize;
    let ids = world.attached_ids_sorted();
    assert_eq!(ids.len(), total, "population size changed");
    for (i, id) in ids.iter().enumerate() {
        assert_eq!(id.index() as usize, i, "terminal set changed");
    }
    assert!(
        report.metrics.handoff.successes > 0,
        "expected migrations: {:?}",
        report.metrics.handoff
    );
    let mean_population: f64 = report
        .metrics
        .per_cell
        .iter()
        .map(|c| c.occupancy.mean())
        .sum();
    assert!(
        (mean_population - total as f64).abs() < 1e-6,
        "occupancy means sum to {mean_population}, expected {total}"
    );
}

/// Compares `bytes` against the committed golden file `tests/golden/<name>`,
/// or rewrites the file when `CHARISMA_UPDATE_GOLDEN` is set.
///
/// The golden files were captured from the pre-SoA (PR 8) AoS frame core;
/// they pin the exact report bytes of the fig11 / multicell_baseline /
/// city_scale miniatures so any layout refactor that perturbs a single RNG
/// draw or float operation fails loudly rather than drifting silently.
fn golden_check(name: &str, bytes: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("CHARISMA_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, bytes).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(
        bytes, expected,
        "{name}: report bytes diverged from the pre-refactor golden capture"
    );
}

#[test]
fn golden_bytes_fig11_miniature() {
    let csv = campaign_csv(&mini_fig11(), mini_budget(), 1);
    golden_check("fig11_quick.csv", &csv);
}

#[test]
fn golden_bytes_multicell_miniature_at_1_and_4_threads() {
    for threads in [1u32, 4] {
        let csv = campaign_csv(
            &with_system_threads(mini_multicell(), threads),
            mini_budget(),
            1,
        );
        golden_check("multicell_baseline_quick.csv", &csv);
    }
}

#[test]
fn golden_bytes_city_scale_miniature_at_1_and_4_threads() {
    let budget = FrameBudget {
        warmup: 60,
        measured: 240,
    };
    for threads in [1u32, 4] {
        let csv = campaign_csv(&with_system_threads(mini_city(), threads), budget, 1);
        golden_check("city_scale_quick.csv", &csv);
    }
}

#[test]
fn replicated_campaign_csv_bytes_are_identical_across_runs_and_threads() {
    // The replication engine on the real fig11 campaign shape: every point
    // runs R = 3 independent replications on derived seed streams, and the
    // rendered CSV — means, CI half-widths, reps column — must be
    // byte-identical across repeats and across sweep thread counts.
    let campaign = micro_fig11();
    let policy = ReplicationPolicy::fixed(3);
    let serial = campaign.run(mini_budget(), policy, 1).unwrap().to_csv();
    let again = campaign.run(mini_budget(), policy, 1).unwrap().to_csv();
    let parallel = campaign.run(mini_budget(), policy, 4).unwrap().to_csv();
    assert_eq!(serial, again, "replicated campaign CSV differs across runs");
    assert_eq!(
        serial, parallel,
        "replicated campaign CSV must not depend on the sweep thread count"
    );
    // Every data row reports its replication count and carries the two CI
    // columns of each metric.
    let lines: Vec<&str> = serial.lines().collect();
    assert!(lines[0].contains("reps,voice_loss_rate,voice_loss_ci95"));
    for line in &lines[1..] {
        let fields: Vec<&str> = line.split(',').collect();
        assert_eq!(fields.len(), lines[0].split(',').count());
        assert_eq!(fields[7], "3", "reps column: {line}");
    }
}
