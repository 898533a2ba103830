//! The scenario-campaign registry: every experiment, by name.
//!
//! Each [`Entry`] re-expresses one evaluation artifact — the paper's figures
//! and tables, plus scenarios the paper never plotted — either as a
//! declarative [`Campaign`] of [`ScenarioSpec`]s executed on the sweep
//! workers, or as a bespoke generator from [`crate::artifacts`] for the few
//! artifacts that are not sweeps.  The `campaign` binary drives everything
//! through [`run_entry`] (via the durable
//! [`crate::checkpoint::run_and_record_durable`]), and this module also
//! builds the provenance manifest (`results/MANIFEST.json`) and the
//! generated section of the reproduction handbook (`EXPERIMENTS.md`).

use crate::{artifacts, fig11_voice_counts, fig12_data_counts, BenchProfile};
use charisma::metrics::capacity_at_threshold;
use charisma::radio::SpeedProfile;
use charisma::spec::{Axis, DurationSpec, QueueToggle, RampSpec, ScenarioSpec};
use charisma::{
    Campaign, CampaignRow, CampaignRun, HandoffAdmission, HandoffConfig, Json, Layout, ProtocolKind,
};
use std::io;
use std::path::{Path, PathBuf};

/// A file produced by rendering a campaign run.
pub struct Artifact {
    /// File name under `results/`.
    pub file: &'static str,
    /// Full file contents.
    pub contents: String,
}

/// How an entry executes.
pub enum EntryKind {
    /// A declarative scenario campaign run through the sweep executor.
    Sweep {
        /// Builds the campaign for a profile (grids may depend on it).
        build: fn(BenchProfile) -> Campaign,
        /// Prints the human-readable tables and produces the files to write.
        render: fn(&CampaignRun) -> Vec<Artifact>,
    },
    /// A bespoke artifact generator (no sweep shape).
    Custom {
        /// Runs the generator, writing into the given results directory;
        /// returns the files it wrote.
        run: fn(BenchProfile, &Path) -> Vec<PathBuf>,
    },
}

/// One named experiment.
pub struct Entry {
    /// Registry name (the `campaign run <name>` argument).
    pub name: &'static str,
    /// One-line title.
    pub title: &'static str,
    /// Which artifact of the paper this reproduces ("beyond the paper" for
    /// the new scenarios).
    pub paper: &'static str,
    /// A short handbook paragraph: what the experiment shows and how.
    pub details: &'static str,
    /// Files written under `results/`.
    pub outputs: &'static [&'static str],
    /// The CSV columns of the primary output.
    pub columns: &'static str,
    /// Rough single-core runtime guidance per profile.
    pub runtime: &'static str,
    /// How the entry executes.
    pub kind: EntryKind,
}

/// What one executed entry reported (the manifest's raw material).
#[derive(Debug)]
pub struct EntryReport {
    /// Registry name.
    pub name: &'static str,
    /// Sweep points executed (0 for bespoke artifacts).
    pub points: usize,
    /// Total replications executed across all sweep points (0 for bespoke
    /// artifacts; equals `points` for single-replication runs).
    pub replications: u64,
    /// Distinct master seeds used by the sweep points.
    pub seeds: Vec<u64>,
    /// Files written.
    pub outputs: Vec<PathBuf>,
    /// The campaign definition (sweep entries only).
    pub campaign_json: Option<Json>,
}

// --- campaign builders ----------------------------------------------------

fn fig11_campaign(profile: BenchProfile) -> Campaign {
    let mut spec = ScenarioSpec::new("fig11");
    spec.axis = Axis::VoiceUsers;
    spec.voice_users = fig11_voice_counts(profile);
    spec.data_users = vec![0, 10, 20];
    spec.request_queue = QueueToggle::Both;
    Campaign::new("fig11").with_spec(spec)
}

fn fig12_campaign(profile: BenchProfile) -> Campaign {
    let mut spec = ScenarioSpec::new("fig12");
    spec.axis = Axis::DataUsers;
    spec.data_users = fig12_data_counts(profile);
    spec.voice_users = vec![0, 10, 20];
    spec.request_queue = QueueToggle::Both;
    Campaign::new("fig12").with_spec(spec)
}

// fig13 and capacity_table deliberately re-run the fig12/fig11 campaign
// shapes instead of sharing one execution: every registry entry stays an
// independent, individually runnable unit (`campaign run capacity_table`
// works alone, with its own manifest row), at the cost of roughly a minute
// of duplicated simulation in a full-profile `run all`.

fn fig13_campaign(profile: BenchProfile) -> Campaign {
    let mut campaign = fig12_campaign(profile);
    campaign.name = "fig13".into();
    campaign.specs[0].name = "fig13".into();
    campaign
}

fn capacity_table_campaign(profile: BenchProfile) -> Campaign {
    let mut campaign = fig11_campaign(profile);
    campaign.name = "capacity_table".into();
    campaign.specs[0].name = "capacity_table".into();
    campaign
}

fn qos_capacity_campaign(profile: BenchProfile) -> Campaign {
    let mut spec = ScenarioSpec::new("qos_capacity");
    spec.axis = Axis::DataUsers;
    spec.data_users = fig12_data_counts(profile);
    spec.voice_users = vec![10];
    spec.request_queue = QueueToggle::Both;
    Campaign::new("qos_capacity").with_spec(spec)
}

fn speed_sweep_campaign(_profile: BenchProfile) -> Campaign {
    let mut spec = ScenarioSpec::new("speed_sweep");
    spec.protocols = vec![ProtocolKind::Charisma];
    spec.axis = Axis::SpeedKmh;
    spec.speed_grid_kmh = vec![10.0, 20.0, 30.0, 40.0, 50.0, 65.0, 80.0];
    spec.voice_users = vec![120];
    spec.data_users = vec![5];
    spec.request_queue = QueueToggle::On;
    Campaign::new("speed_sweep").with_spec(spec)
}

fn ablation_csi_campaign(profile: BenchProfile) -> Campaign {
    let base = {
        let mut spec = ScenarioSpec::new("csi_aware");
        spec.protocols = vec![ProtocolKind::Charisma];
        spec.axis = Axis::VoiceUsers;
        spec.voice_users = fig11_voice_counts(profile);
        spec.data_users = vec![10];
        spec.request_queue = QueueToggle::On;
        spec
    };
    let mut blind = base.clone();
    blind.name = "csi_blind".into();
    blind.csi_aware = false;
    let mut dtdma = base.clone();
    dtdma.name = "dtdma_vr".into();
    dtdma.protocols = vec![ProtocolKind::DTdmaVr];
    Campaign::new("ablation_csi")
        .with_spec(base)
        .with_spec(blind)
        .with_spec(dtdma)
}

fn mixed_mobility_campaign(profile: BenchProfile) -> Campaign {
    let mut spec = ScenarioSpec::new("mixed_mobility");
    spec.axis = Axis::VoiceUsers;
    spec.voice_users = fig11_voice_counts(profile);
    spec.data_users = vec![10];
    spec.request_queue = QueueToggle::On;
    // Half the terminals walk (3 km/h, ~1.7 s coherence), half drive
    // (80 km/h, ~7 ms coherence): a heterogeneous population the paper never
    // evaluates, where CSI-aware scheduling can exploit the slow users.
    spec.speed = SpeedProfile::Bimodal {
        slow_kmh: 3.0,
        fast_kmh: 80.0,
        fraction_fast: 0.5,
    };
    Campaign::new("mixed_mobility").with_spec(spec)
}

fn load_ramp_campaign(_profile: BenchProfile) -> Campaign {
    let mut ramped = ScenarioSpec::new("ramped");
    ramped.axis = Axis::Single;
    ramped.voice_users = vec![120];
    ramped.data_users = vec![10];
    ramped.request_queue = QueueToggle::On;
    ramped.ramp = Some(RampSpec {
        initial_voice: 40,
        at_measured_fraction: 0.5,
    });
    let mut steady = ramped.clone();
    steady.name = "steady".into();
    steady.ramp = None;
    Campaign::new("load_ramp")
        .with_spec(ramped)
        .with_spec(steady)
}

fn multicell_baseline_campaign(profile: BenchProfile) -> Campaign {
    let mut spec = ScenarioSpec::new("multicell_baseline");
    spec.axis = Axis::VoiceUsers;
    spec.voice_users = match profile {
        BenchProfile::Quick => vec![10, 20],
        _ => vec![10, 15, 20, 25, 30],
    };
    spec.data_users = vec![5];
    // The classic 7-cell hexagonal cluster with small (250 m) cells, so the
    // vehicular half of the population crosses several cell boundaries even
    // inside a quick-profile run.
    spec.cells = 7;
    spec.layout = Layout::Hex {
        cell_radius_m: 250.0,
    };
    spec.handoff = HandoffConfig {
        admission: HandoffAdmission::Queue,
        cell_capacity: 0, // unlimited: the baseline measures pure mobility
        retry_frames: 40,
        hysteresis_m: 15.0,
    };
    // Mixed pedestrian/vehicular population (cf. the mixed_mobility entry).
    spec.speed = SpeedProfile::Bimodal {
        slow_kmh: 3.0,
        fast_kmh: 80.0,
        fraction_fast: 0.5,
    };
    Campaign::new("multicell_baseline").with_spec(spec)
}

fn handoff_stress_campaign(_profile: BenchProfile) -> Campaign {
    let base = {
        let mut spec = ScenarioSpec::new("handoff_drop");
        spec.protocols = vec![
            ProtocolKind::Charisma,
            ProtocolKind::DTdmaVr,
            ProtocolKind::DTdmaFr,
        ];
        spec.axis = Axis::Single;
        spec.voice_users = vec![20];
        spec.data_users = vec![5];
        // A 3-cell highway corridor of small cells; 80% of the terminals
        // drive at 80 km/h, so cell crossings are constant and the tight
        // admission capacity (25 initial + 5 headroom) is under permanent
        // pressure.
        spec.cells = 3;
        spec.layout = Layout::Line {
            cell_radius_m: 200.0,
        };
        spec.speed = SpeedProfile::Bimodal {
            slow_kmh: 3.0,
            fast_kmh: 80.0,
            fraction_fast: 0.8,
        };
        spec.handoff = HandoffConfig {
            admission: HandoffAdmission::DropOnFull,
            cell_capacity: 30,
            retry_frames: 40,
            hysteresis_m: 10.0,
        };
        spec
    };
    let mut queued = base.clone();
    queued.name = "handoff_queue".into();
    queued.handoff.admission = HandoffAdmission::Queue;
    Campaign::new("handoff_stress")
        .with_spec(base)
        .with_spec(queued)
}

fn city_scale_campaign(_profile: BenchProfile) -> Campaign {
    let mut spec = ScenarioSpec::new("city_scale");
    // Two protocols, one point, one replication: the entry exists to
    // exercise the sharded frame loop at city scale (127 cells = 6 complete
    // hex rings), not to sweep a grid, and it must stay CI-sized even under
    // the quick profile.
    spec.protocols = vec![ProtocolKind::Charisma, ProtocolKind::DTdmaVr];
    spec.axis = Axis::Single;
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
    spec.replications = charisma::RepsSpec::Policy(charisma::ReplicationPolicy::fixed(1));
    // Four worker threads; the CSV bytes are identical at any thread count
    // (the determinism suite pins 0/1/2/4 on this very entry).
    spec.system_threads = 4;
    Campaign::new("city_scale").with_spec(spec)
}

fn smoke_10k_campaign(_profile: BenchProfile) -> Campaign {
    let mut spec = ScenarioSpec::new("smoke_10k");
    // One point, one replication, a fixed 1,000-frame run: the entry exists
    // to push the structure-of-arrays frame core through a 10,000-terminal
    // cell (two orders of magnitude past the paper's populations), not to
    // produce meaningful QoS curves — at this load every protocol is far
    // beyond saturation.  The duration ignores the profile so the entry
    // costs the same CI-sized wall-clock under quick gate runs and
    // full-profile regenerations alike.
    spec.protocols = vec![ProtocolKind::Charisma, ProtocolKind::DTdmaVr];
    spec.axis = Axis::Single;
    spec.voice_users = vec![9_000];
    spec.data_users = vec![1_000];
    spec.request_queue = QueueToggle::On;
    spec.duration = DurationSpec::Frames {
        warmup: 200,
        measured: 800,
    };
    spec.replications = charisma::RepsSpec::Policy(charisma::ReplicationPolicy::fixed(1));
    Campaign::new("smoke_10k").with_spec(spec)
}

fn data_heavy_campaign(profile: BenchProfile) -> Campaign {
    let mut spec = ScenarioSpec::new("data_heavy");
    spec.axis = Axis::DataUsers;
    spec.data_users = match profile {
        BenchProfile::Quick => vec![4, 8, 16, 24, 32],
        _ => vec![2, 4, 8, 12, 16, 20, 24, 28, 32],
    };
    spec.voice_users = vec![5];
    spec.request_queue = QueueToggle::Both;
    Campaign::new("data_heavy").with_spec(spec)
}

// --- rendering helpers ----------------------------------------------------

// The rendered tables and capacity searches all consume the
// across-replication means (with a single replication these equal the lone
// run's metrics, so the quick smoke paths are unchanged in shape).

fn loss(r: &CampaignRow) -> f64 {
    r.voice_loss_mean()
}

fn throughput(r: &CampaignRow) -> f64 {
    r.data_throughput_mean()
}

fn delay(r: &CampaignRow) -> f64 {
    r.data_delay_mean()
}

fn pct(v: f64) -> String {
    format!("{:.2}%", v * 100.0)
}

fn plain3(v: f64) -> String {
    format!("{v:.3}")
}

fn trim_load(load: f64) -> String {
    if load.fract() == 0.0 {
        format!("{}", load as i64)
    } else {
        format!("{load:.1}")
    }
}

fn uniform_csv(run: &CampaignRun, file: &'static str) -> Artifact {
    Artifact {
        file,
        contents: run.to_csv(),
    }
}

/// One printed series: a (scenario, protocol, queue, fixed-population) curve.
struct Curve<'a> {
    scenario: &'a str,
    protocol: ProtocolKind,
    queue: bool,
    fixed: String,
    points: Vec<&'a CampaignRow>,
}

/// Groups a run's rows into curves, preserving first-appearance order.  The
/// swept coordinate of a scenario is recovered from the rows themselves
/// (whichever population equals the load on every row; otherwise the load is
/// an external axis such as the speed).
fn curves(run: &CampaignRun) -> Vec<Curve<'_>> {
    let mut out: Vec<Curve<'_>> = Vec::new();
    for row in &run.rows {
        let scenario_rows = run.rows.iter().filter(|r| r.scenario == row.scenario);
        let voice_axis = scenario_rows.clone().all(|r| r.load == r.num_voice as f64);
        let data_axis = !voice_axis && scenario_rows.clone().all(|r| r.load == r.num_data as f64);
        let fixed = if voice_axis {
            format!("Nd={}", row.num_data)
        } else if data_axis {
            format!("Nv={}", row.num_voice)
        } else {
            format!("Nv={} Nd={}", row.num_voice, row.num_data)
        };
        match out.iter_mut().find(|c| {
            c.scenario == row.scenario
                && c.protocol == row.protocol
                && c.queue == row.request_queue
                && c.fixed == fixed
        }) {
            Some(curve) => curve.points.push(row),
            None => out.push(Curve {
                scenario: &row.scenario,
                protocol: row.protocol,
                queue: row.request_queue,
                fixed,
                points: vec![row],
            }),
        }
    }
    out
}

/// Prints one aligned table per scenario: a row per curve, a column per axis
/// value, plus (optionally) the capacity at `capacity_threshold` on the
/// metric.
fn print_curve_tables(
    run: &CampaignRun,
    metric_name: &str,
    metric: fn(&CampaignRow) -> f64,
    fmt: fn(f64) -> String,
    capacity_threshold: Option<f64>,
) {
    let all = curves(run);
    let mut scenarios: Vec<&str> = Vec::new();
    for c in &all {
        if !scenarios.contains(&c.scenario) {
            scenarios.push(c.scenario);
        }
    }
    for scenario in scenarios {
        let scenario_curves: Vec<&Curve<'_>> =
            all.iter().filter(|c| c.scenario == scenario).collect();
        let mut loads: Vec<f64> = Vec::new();
        for c in &scenario_curves {
            for p in &c.points {
                if !loads.contains(&p.load) {
                    loads.push(p.load);
                }
            }
        }
        loads.sort_by(|a, b| a.total_cmp(b));

        println!();
        println!("--- {scenario}: {metric_name} vs load ---");
        let mut header = format!("{:<30}", "series");
        for l in &loads {
            header.push_str(&format!("{:>10}", trim_load(*l)));
        }
        if capacity_threshold.is_some() {
            header.push_str(&format!("{:>12}", "capacity"));
        }
        println!("{header}");

        for c in scenario_curves {
            let label = format!(
                "{} {} {}",
                c.protocol.label(),
                if c.queue { "+queue" } else { "-queue" },
                c.fixed
            );
            let mut line = format!("{label:<30}");
            for l in &loads {
                match c.points.iter().find(|p| p.load == *l) {
                    Some(p) => line.push_str(&format!("{:>10}", fmt(metric(p)))),
                    None => line.push_str(&format!("{:>10}", "-")),
                }
            }
            if let Some(threshold) = capacity_threshold {
                let mut curve: Vec<(f64, f64)> =
                    c.points.iter().map(|p| (p.load, metric(p))).collect();
                curve.sort_by(|a, b| a.0.total_cmp(&b.0));
                let cap = capacity_at_threshold(&curve, threshold);
                match cap {
                    Some(v) => line.push_str(&format!("{v:>12.0}")),
                    None => line.push_str(&format!("{:>12}", format!("<{}", trim_load(loads[0])))),
                }
            }
            println!("{line}");
        }
    }
}

// --- renderers ------------------------------------------------------------

fn render_fig11(run: &CampaignRun) -> Vec<Artifact> {
    print_curve_tables(run, "voice packet loss", loss, pct, Some(0.01));
    println!();
    println!("Expected shape: CHARISMA lowest everywhere; RMAV collapses immediately; RAMA and");
    println!("DRMA degrade gracefully at overload; data users shrink every protocol's capacity.");
    vec![uniform_csv(run, "fig11_voice_loss.csv")]
}

fn render_fig12(run: &CampaignRun) -> Vec<Artifact> {
    print_curve_tables(run, "data throughput (pkt/frame)", throughput, plain3, None);
    println!();
    println!("Expected shape: throughput grows with offered load until each protocol's capacity,");
    println!("then saturates; CHARISMA saturates highest, RMAV almost immediately.");
    vec![uniform_csv(run, "fig12_data_throughput.csv")]
}

fn render_fig13(run: &CampaignRun) -> Vec<Artifact> {
    print_curve_tables(run, "data delay (s)", delay, plain3, None);
    println!();
    println!("Expected shape: delay stays small until each protocol's capacity then grows");
    println!("sharply; the knee appears latest for CHARISMA and earliest for RMAV.");
    vec![uniform_csv(run, "fig13_data_delay.csv")]
}

fn render_capacity_table(run: &CampaignRun) -> Vec<Artifact> {
    println!("Voice capacity at the 1% packet-loss threshold (number of voice users)");
    println!(
        "{:<12} {:>14} {:>14} {:>14} {:>14} {:>14} {:>14}",
        "protocol", "Nd=0", "Nd=0 +queue", "Nd=10", "Nd=10 +queue", "Nd=20", "Nd=20 +queue"
    );
    let min_load = run
        .rows
        .iter()
        .map(|r| r.load)
        .fold(f64::INFINITY, f64::min);
    let mut csv_rows = Vec::new();
    for protocol in ProtocolKind::ALL {
        let mut cells = Vec::new();
        for &num_data in &[0u32, 10, 20] {
            for &queue in &[false, true] {
                if queue && !protocol.supports_request_queue() {
                    cells.push("n/a".to_string());
                    continue;
                }
                let cap = run.capacity(
                    "capacity_table",
                    protocol,
                    queue,
                    Some((num_data, true)),
                    loss,
                    0.01,
                );
                let cell = match cap {
                    Some(c) => format!("{c:.0}"),
                    None => format!("<{}", trim_load(min_load)),
                };
                csv_rows.push(format!("{},{num_data},{queue},{cell}", protocol.label()));
                cells.push(cell);
            }
        }
        println!(
            "{:<12} {:>14} {:>14} {:>14} {:>14} {:>14} {:>14}",
            protocol.label(),
            cells[0],
            cells[1],
            cells[2],
            cells[3],
            cells[4],
            cells[5]
        );
    }
    println!();
    println!("Paper reference points (§5.1): without queue, Nd=0 — CHARISMA ≈ 100, DRMA ≈ 80,");
    println!("D-TDMA/VR ≈ 80, RAMA ≈ 60, D-TDMA/FR ≈ 60, RMAV unstable; with queue CHARISMA ≈ 160");
    println!("and D-TDMA/VR gains ≈ 25% while RAMA/DRMA barely change.");
    let mut contents = String::from("protocol,num_data,request_queue,capacity_voice_users\n");
    for row in &csv_rows {
        contents.push_str(row);
        contents.push('\n');
    }
    vec![Artifact {
        file: "capacity_1pct.csv",
        contents,
    }]
}

fn render_qos_capacity(run: &CampaignRun) -> Vec<Artifact> {
    // A point satisfies the QoS level when the mean delay is below 1 s AND
    // the per-user throughput is still ~the offered 0.25 pkt/frame.
    fn effective_delay(r: &CampaignRow) -> f64 {
        if r.data_throughput_per_user_mean() >= 0.20 {
            r.data_delay_mean()
        } else {
            f64::MAX
        }
    }
    let min_load = run
        .rows
        .iter()
        .map(|r| r.load)
        .fold(f64::INFINITY, f64::min);
    println!("Data QoS capacity at (delay <= 1 s, per-user throughput >= 0.25 pkt/frame), Nv = 10");
    println!(
        "{:<12} {:>26} {:>26}",
        "protocol", "capacity (no queue)", "capacity (with queue)"
    );
    let mut csv_rows = Vec::new();
    let mut no_queue: Vec<(ProtocolKind, Option<f64>)> = Vec::new();
    for protocol in ProtocolKind::ALL {
        let mut cells = Vec::new();
        for &queue in &[false, true] {
            if queue && !protocol.supports_request_queue() {
                cells.push("n/a".to_string());
                continue;
            }
            let cap = run.capacity("qos_capacity", protocol, queue, None, effective_delay, 1.0);
            if !queue {
                no_queue.push((protocol, cap));
            }
            let cell = match cap {
                Some(c) => format!("{c:.1}"),
                None => format!("<{}", trim_load(min_load)),
            };
            csv_rows.push(format!("{},{queue},{cell}", protocol.label()));
            cells.push(cell);
        }
        println!("{:<12} {:>26} {:>26}", protocol.label(), cells[0], cells[1]);
    }
    let lookup = |k: ProtocolKind| no_queue.iter().find(|(p, _)| *p == k).and_then(|(_, c)| *c);
    if let (Some(ch), Some(vr), Some(rama)) = (
        lookup(ProtocolKind::Charisma),
        lookup(ProtocolKind::DTdmaVr),
        lookup(ProtocolKind::Rama),
    ) {
        println!();
        println!(
            "CHARISMA / D-TDMA/VR capacity ratio: {:.2} (paper ≈ 1.5)",
            ch / vr
        );
        println!(
            "CHARISMA / RAMA capacity ratio:      {:.2} (paper ≈ 3)",
            ch / rama
        );
    }
    let mut contents = String::from("protocol,request_queue,qos_capacity_data_users\n");
    for row in &csv_rows {
        contents.push_str(row);
        contents.push('\n');
    }
    vec![Artifact {
        file: "qos_capacity.csv",
        contents,
    }]
}

fn render_speed_sweep(run: &CampaignRun) -> Vec<Artifact> {
    println!("CHARISMA vs terminal speed (Nv = 120, Nd = 5, request queue on)");
    println!(
        "{:>12} {:>14} {:>18} {:>14} {:>22}",
        "speed (km/h)", "voice loss", "data thpt (p/f)", "data delay (s)", "rel. loss vs 10 km/h"
    );
    let mut reference: Option<f64> = None;
    for r in &run.rows {
        let l = loss(r);
        let reference_loss = *reference.get_or_insert(l);
        let relative = if reference_loss > 0.0 {
            l / reference_loss
        } else {
            1.0
        };
        println!(
            "{:>12.0} {:>13.3}% {:>18.3} {:>14.3} {:>21.2}x",
            r.load,
            l * 100.0,
            throughput(r),
            delay(r),
            relative
        );
    }
    println!();
    println!("Expected: essentially flat up to 50 km/h, only mild degradation at 80 km/h.");
    vec![uniform_csv(run, "speed_sweep.csv")]
}

fn render_ablation_csi(run: &CampaignRun) -> Vec<Artifact> {
    print_curve_tables(run, "voice packet loss", loss, pct, Some(0.01));
    println!();
    println!("Expected: disabling the CSI term (csi_blind, pure earliest-deadline-first over");
    println!("the same adaptive PHY) costs a sizeable share of CHARISMA's capacity advantage");
    println!("over D-TDMA/VR — the cross-layer scheduling argument of Sections 5.3.1–5.3.2.");
    vec![uniform_csv(run, "ablation_csi.csv")]
}

fn render_mixed_mobility(run: &CampaignRun) -> Vec<Artifact> {
    print_curve_tables(run, "voice packet loss", loss, pct, Some(0.01));
    println!();
    println!("Half the terminals walk at 3 km/h, half drive at 80 km/h (the paper only evaluates");
    println!("homogeneous populations).  Compare against the fig11 Nd=10 +queue panel: protocols");
    println!("with CSI-aware scheduling should hold capacity better than the CSI-blind baselines");
    println!("because the slow half of the cell has a near-static, exploitable channel.");
    vec![uniform_csv(run, "mixed_mobility.csv")]
}

fn render_load_ramp(run: &CampaignRun) -> Vec<Artifact> {
    println!("Load ramp: 40 voice users, stepping to 120 halfway through measurement");
    println!("(Nd = 10, request queue on; \"steady\" runs all 120 users from frame 0)");
    println!(
        "{:<12} {:>16} {:>16} {:>18} {:>16}",
        "protocol", "ramped loss", "steady loss", "ramped thpt(p/f)", "ramped delay(s)"
    );
    for protocol in ProtocolKind::ALL {
        let find = |scenario: &str| {
            run.rows
                .iter()
                .find(|r| r.scenario == scenario && r.protocol == protocol)
        };
        if let (Some(ramped), Some(steady)) = (find("ramped"), find("steady")) {
            println!(
                "{:<12} {:>15.3}% {:>15.3}% {:>18.3} {:>16.3}",
                protocol.label(),
                loss(ramped) * 100.0,
                loss(steady) * 100.0,
                throughput(ramped),
                delay(ramped)
            );
        }
    }
    println!();
    println!("The ramped run averages a half-window at light load with a half-window at heavy");
    println!("load, so its loss sits between the 40-user and 120-user operating points; how far");
    println!("below the steady 120-user loss it lands shows how gracefully each protocol absorbs");
    println!("a flash crowd.");
    vec![uniform_csv(run, "load_ramp.csv")]
}

/// The CSV schema of the per-row handoff artifact emitted by the multi-cell
/// entries (system-level counters of replication 0, whose seed is the point
/// seed — deterministic bytes like every campaign CSV).
pub const HANDOFF_COLUMNS: &str = "scenario,protocol,request_queue,num_voice,num_data,\
                                   speed_kmh,load,cells,\
                                   handoff_attempts,handoff_successes,handoff_failures,\
                                   handoff_queued,voice_dropped_handoff,\
                                   peak_cell_occupancy,mean_queued_terminals";

fn handoff_csv(run: &CampaignRun, file: &'static str) -> Artifact {
    let mut contents = String::from(HANDOFF_COLUMNS);
    contents.push('\n');
    for r in &run.rows {
        let h = &r.report.metrics.handoff;
        // The streaming per-cell statistics, folded once per measured frame:
        // the busiest any cell ever got, and the mean number of terminals
        // parked in admission queues system-wide.
        let peak_occupancy = r
            .report
            .metrics
            .per_cell
            .iter()
            .filter_map(|c| c.occupancy.max())
            .fold(0.0f64, f64::max);
        let mean_queued: f64 = r
            .report
            .metrics
            .per_cell
            .iter()
            .map(|c| c.admission_queue.mean())
            .sum();
        contents.push_str(&format!(
            "{},{},{},{},{},{:.2},{},{},{},{},{},{},{},{:.0},{:.4}\n",
            r.scenario,
            r.protocol.label(),
            r.request_queue,
            r.num_voice,
            r.num_data,
            r.speed_kmh,
            r.load,
            r.report.metrics.per_cell.len(),
            h.attempts,
            h.successes,
            h.failures,
            h.queued,
            r.report.metrics.voice.dropped_handoff,
            peak_occupancy,
            mean_queued,
        ));
    }
    Artifact { file, contents }
}

fn print_handoff_table(run: &CampaignRun) {
    println!();
    println!("--- handoff counters (replication 0) ---");
    println!(
        "{:<34} {:>9} {:>9} {:>9} {:>8} {:>14}",
        "series", "attempts", "admitted", "refused", "queued", "voice dropped"
    );
    for r in &run.rows {
        let h = &r.report.metrics.handoff;
        println!(
            "{:<34} {:>9} {:>9} {:>9} {:>8} {:>14}",
            format!("{} {} Nv={}", r.scenario, r.protocol.label(), r.num_voice),
            h.attempts,
            h.successes,
            h.failures,
            h.queued,
            r.report.metrics.voice.dropped_handoff,
        );
    }
}

fn render_multicell_baseline(run: &CampaignRun) -> Vec<Artifact> {
    print_curve_tables(run, "voice packet loss", loss, pct, Some(0.01));
    print_handoff_table(run);
    println!();
    println!("Seven hexagonal cells, per-cell loads on the x axis, mixed 3/80 km/h population.");
    println!("Handoffs succeed freely (unlimited admission); the loss above the single-cell");
    println!("mixed_mobility figures is the price of path-loss SNR at cell edges plus the");
    println!("hard-handoff voice interruptions counted in the handoff table.");
    vec![
        uniform_csv(run, "multicell_baseline.csv"),
        handoff_csv(run, "multicell_baseline_handoff.csv"),
    ]
}

fn render_handoff_stress(run: &CampaignRun) -> Vec<Artifact> {
    print_curve_tables(run, "voice packet loss", loss, pct, None);
    print_handoff_table(run);
    println!();
    println!("A 3-cell highway corridor at 80% vehicular load with admission capacity 30 per");
    println!("cell: the drop_on_full series loses every in-flight voice packet of a refused");
    println!("handoff, while the handoff_queue series parks terminals on their old cell until");
    println!("the target frees capacity — compare the refused/queued columns and the voice");
    println!("loss they induce.");
    vec![
        uniform_csv(run, "handoff_stress.csv"),
        handoff_csv(run, "handoff_stress_handoff.csv"),
    ]
}

fn render_city_scale(run: &CampaignRun) -> Vec<Artifact> {
    print_curve_tables(run, "voice packet loss", loss, pct, None);
    print_handoff_table(run);
    println!();
    println!("A 127-cell hexagonal city (6 complete rings of 150 m cells) stepped by the");
    println!("sharded frame loop on 4 worker threads.  Cells advance in parallel inside each");
    println!("frame; handoffs travel through per-frame mailboxes merged in cell-id order, so");
    println!("the CSVs below are byte-identical to a single-threaded run.");
    vec![
        uniform_csv(run, "city_scale.csv"),
        handoff_csv(run, "city_scale_handoff.csv"),
    ]
}

fn render_smoke_10k(run: &CampaignRun) -> Vec<Artifact> {
    println!("10,000-terminal single cell (Nv = 9000, Nd = 1000, queue on, 1,000 frames)");
    println!(
        "{:<12} {:>14} {:>18} {:>16}",
        "protocol", "voice loss", "data thpt (p/f)", "data delay (s)"
    );
    for r in &run.rows {
        println!(
            "{:<12} {:>13.3}% {:>18.3} {:>16.3}",
            r.protocol.label(),
            loss(r) * 100.0,
            throughput(r),
            delay(r)
        );
    }
    println!();
    println!("A scalability smoke, not a QoS experiment: 10,000 terminals is ~90x the 1%");
    println!("voice capacity, so losses are near-total by design.  What the entry pins is");
    println!("the column-oriented frame core itself — the begin-frame sweep, the index-");
    println!("sliced MAC surface and the contention machinery must stay linear in the");
    println!("population and byte-deterministic at a scale the per-object layout never");
    println!("reached, inside a CI-sized wall-clock budget.");
    vec![uniform_csv(run, "smoke_10k.csv")]
}

fn render_data_heavy(run: &CampaignRun) -> Vec<Artifact> {
    print_curve_tables(run, "data throughput (pkt/frame)", throughput, plain3, None);
    print_curve_tables(run, "data delay (s)", delay, plain3, None);
    println!();
    println!("A data-dominated cell (Nv = 5, up to 32 data users) the paper never plots: the");
    println!("figures stop at 24 data users with at least moderate voice populations.  Adaptive");
    println!("PHY protocols should keep scaling throughput; fixed-rate baselines saturate.");
    vec![uniform_csv(run, "data_heavy.csv")]
}

// --- the registry ---------------------------------------------------------

/// The uniform sweep-CSV column list (kept here so handbook text and tests
/// reference one constant).
pub const SWEEP_COLUMNS: &str = CampaignRun::CSV_HEADER;

/// All registry entries, in handbook order: the paper's artifacts first,
/// then the scenarios beyond the paper.
pub fn entries() -> Vec<Entry> {
    vec![
        Entry {
            name: "table1",
            title: "simulation parameters",
            paper: "Table 1",
            details: "Prints every parameter of the common simulation platform with the values \
                      this reproduction derived from the constraints stated in the paper's text, \
                      and records them as a two-column CSV.",
            outputs: &["table1_parameters.csv"],
            columns: "parameter,value",
            runtime: "instant on every profile",
            kind: EntryKind::Custom {
                run: artifacts::run_table1,
            },
        },
        Entry {
            name: "fig5_fading",
            title: "sample of the combined fading process",
            paper: "Fig. 5",
            details: "Generates a 2-second trace of one terminal's channel at 50 km/h — fast \
                      Rayleigh fading superimposed on log-normal shadowing — and prints summary \
                      statistics (deep-fade fraction vs Rayleigh theory, shadowing drift).",
            outputs: &["fig5_fading.csv"],
            columns: "time_s,fast_fading_db,shadowing_db,snr_db",
            runtime: "instant on every profile",
            kind: EntryKind::Custom {
                run: artifacts::run_fig5_fading,
            },
        },
        Entry {
            name: "fig7_abicm",
            title: "ABICM throughput and error behaviour vs CSI",
            paper: "Fig. 7",
            details: "Sweeps the CSI from -20 dB to +35 dB and tabulates the selected ABICM \
                      transmission mode, its normalised throughput, and the adaptive vs fixed \
                      packet error probabilities.",
            outputs: &["fig7_abicm.csv"],
            columns: "csi_db,mode,normalised_throughput,adaptive_per,fixed_per",
            runtime: "instant on every profile",
            kind: EntryKind::Custom {
                run: artifacts::run_fig7_abicm,
            },
        },
        Entry {
            name: "fig11",
            title: "voice packet loss vs voice users",
            paper: "Fig. 11(a)–(f) and the §5.1 1 % capacities",
            details: "All six protocols over the voice-user grid, for Nd in {0, 10, 20} data \
                      users, with and without the base-station request queue (the paper's six \
                      panels in one campaign).  The printed tables include each curve's capacity \
                      at the 1 % loss threshold.",
            outputs: &["fig11_voice_loss.csv"],
            columns: SWEEP_COLUMNS,
            runtime: "quick ≈ 4 s, standard ≈ 20 s, full ≈ 1 min (release build, one core)",
            kind: EntryKind::Sweep {
                build: fig11_campaign,
                render: render_fig11,
            },
        },
        Entry {
            name: "fig12",
            title: "data throughput vs data users",
            paper: "Fig. 12(a)–(f)",
            details: "All six protocols over the data-user grid, for Nv in {0, 10, 20} voice \
                      users, with and without the request queue.",
            outputs: &["fig12_data_throughput.csv"],
            columns: SWEEP_COLUMNS,
            runtime: "quick ≈ 1 s, standard ≈ 5 s, full ≈ 15 s (release build, one core)",
            kind: EntryKind::Sweep {
                build: fig12_campaign,
                render: render_fig12,
            },
        },
        Entry {
            name: "fig13",
            title: "data delay vs data users",
            paper: "Fig. 13(a)–(f)",
            details: "The same campaign shape as fig12, rendered for the mean data access delay \
                      (the delay counterpart of the throughput panels).",
            outputs: &["fig13_data_delay.csv"],
            columns: SWEEP_COLUMNS,
            runtime: "quick ≈ 1 s, standard ≈ 5 s, full ≈ 15 s (release build, one core)",
            kind: EntryKind::Sweep {
                build: fig13_campaign,
                render: render_fig13,
            },
        },
        Entry {
            name: "capacity_table",
            title: "voice capacities at the 1 % loss threshold",
            paper: "§5.1 capacity figures quoted in the prose",
            details: "Runs the fig11 campaign shape and reduces each curve to its capacity at \
                      the 1 % voice-loss threshold (paper: CHARISMA ≈ 100 without queue and \
                      ≈ 160 with it, DRMA/D-TDMA/VR ≈ 80, RAMA/D-TDMA/FR ≈ 60, RMAV unstable).",
            outputs: &["capacity_1pct.csv"],
            columns: "protocol,num_data,request_queue,capacity_voice_users",
            runtime: "quick ≈ 4 s, standard ≈ 20 s, full ≈ 1 min (release build, one core)",
            kind: EntryKind::Sweep {
                build: capacity_table_campaign,
                render: render_capacity_table,
            },
        },
        Entry {
            name: "qos_capacity",
            title: "data QoS capacities at (1 s, 0.25 pkt/frame)",
            paper: "§5.2 QoS capacity figures",
            details: "Sweeps the data population at Nv = 10 and finds the largest load whose \
                      mean delay stays below 1 s while per-user throughput stays at the offered \
                      0.25 pkt/frame (paper: CHARISMA ≈ 1.5x D-TDMA/VR and ≈ 3x RAMA/DRMA).",
            outputs: &["qos_capacity.csv"],
            columns: "protocol,request_queue,qos_capacity_data_users",
            runtime: "quick ≈ 1 s, standard ≈ 2 s, full ≈ 6 s (release build, one core)",
            kind: EntryKind::Sweep {
                build: qos_capacity_campaign,
                render: render_qos_capacity,
            },
        },
        Entry {
            name: "speed_sweep",
            title: "CHARISMA sensitivity to terminal speed",
            paper: "§5.3.3 mobile-speed discussion",
            details: "CHARISMA at 120 voice + 5 data users with the request queue, at fixed \
                      speeds from 10 to 80 km/h (paper: flat to 50 km/h, < 5 % degradation at \
                      80 km/h thanks to the CSI-refresh mechanism).",
            outputs: &["speed_sweep.csv"],
            columns: SWEEP_COLUMNS,
            runtime: "quick ≈ 1 s, standard ≈ 2 s, full ≈ 5 s (release build, one core)",
            kind: EntryKind::Sweep {
                build: speed_sweep_campaign,
                render: render_speed_sweep,
            },
        },
        Entry {
            name: "ablation_csi",
            title: "CSI-aware vs CSI-blind scheduling",
            paper: "§5.3.1 / §5.3.2 ablation",
            details: "Three series over the voice grid at Nd = 10 with the queue: CHARISMA, \
                      CHARISMA with its CSI term disabled (pure earliest-deadline-first over the \
                      same adaptive PHY), and D-TDMA/VR.  Separates the gain of cross-layer \
                      scheduling from the gain of merely using an adaptive PHY.",
            outputs: &["ablation_csi.csv"],
            columns: SWEEP_COLUMNS,
            runtime: "quick ≈ 1 s, standard ≈ 3 s, full ≈ 8 s (release build, one core)",
            kind: EntryKind::Sweep {
                build: ablation_csi_campaign,
                render: render_ablation_csi,
            },
        },
        Entry {
            name: "mixed_mobility",
            title: "heterogeneous pedestrian/vehicular cell",
            paper: "beyond the paper (uses the paper's §5.1 axes)",
            details: "A bimodal speed population — half the terminals at 3 km/h, half at \
                      80 km/h — over the fig11 voice grid at Nd = 10 with the queue.  The paper \
                      only evaluates homogeneous populations; here CSI-aware protocols can mine \
                      the near-static channels of the slow half for extra capacity.",
            outputs: &["mixed_mobility.csv"],
            columns: SWEEP_COLUMNS,
            runtime: "quick ≈ 1 s, standard ≈ 3 s, full ≈ 8 s (release build, one core)",
            kind: EntryKind::Sweep {
                build: mixed_mobility_campaign,
                render: render_mixed_mobility,
            },
        },
        Entry {
            name: "load_ramp",
            title: "flash crowd: voice users stepped mid-run",
            paper: "beyond the paper",
            details: "40 voice users for the first half of the measured window, stepping to 120 \
                      (plus 10 data users, queue on) at the midpoint — against a steady 120-user \
                      control.  Dormant terminals advance their traffic sources so the \
                      activation is draw-for-draw aligned with the control run.",
            outputs: &["load_ramp.csv"],
            columns: SWEEP_COLUMNS,
            runtime: "quick ≈ 1 s, standard ≈ 2 s, full ≈ 5 s (release build, one core)",
            kind: EntryKind::Sweep {
                build: load_ramp_campaign,
                render: render_load_ramp,
            },
        },
        Entry {
            name: "data_heavy",
            title: "data-dominated cell",
            paper: "beyond the paper (extends the Fig. 12/13 axes)",
            details: "Only 5 voice users but up to 32 data users, with and without the queue — \
                      past the edge of the paper's figures, which stop at 24 data users.  Shows \
                      where each protocol's data service saturates once voice no longer \
                      dominates the frame.",
            outputs: &["data_heavy.csv"],
            columns: SWEEP_COLUMNS,
            runtime: "quick ≈ 1 s, standard ≈ 2 s, full ≈ 6 s (release build, one core)",
            kind: EntryKind::Sweep {
                build: data_heavy_campaign,
                render: render_data_heavy,
            },
        },
        Entry {
            name: "multicell_baseline",
            title: "7-cell hexagonal system with mixed mobility",
            paper: "beyond the paper (multi-cell system layer)",
            details: "The classic 7-cell hexagonal cluster with 250 m cells: terminals roam \
                      under the random-waypoint model, their mean SNR follows log-distance \
                      path loss plus site shadowing, and boundary crossings trigger handoffs \
                      (unlimited admission).  All six protocols over a per-cell voice grid at \
                      Nd = 5 with a mixed 3/80 km/h population.  Emits the uniform sweep CSV \
                      plus a per-row handoff-counter CSV.",
            outputs: &["multicell_baseline.csv", "multicell_baseline_handoff.csv"],
            columns: SWEEP_COLUMNS,
            runtime: "quick ≈ 2 s, standard ≈ 1 min, full ≈ 4 min (release build, one core)",
            kind: EntryKind::Sweep {
                build: multicell_baseline_campaign,
                render: render_multicell_baseline,
            },
        },
        Entry {
            name: "handoff_stress",
            title: "3-cell corridor under handoff admission pressure",
            paper: "beyond the paper (multi-cell system layer)",
            details: "A highway corridor of three 200 m cells with 80% of terminals at \
                      80 km/h and admission capacity 30 per cell (25 initial + 5 headroom): \
                      the drop_on_full scenario loses in-flight voice packets whenever a full \
                      cell refuses a handoff, the handoff_queue scenario parks terminals on \
                      their old cell instead.  CHARISMA and the two D-TDMA baselines.",
            outputs: &["handoff_stress.csv", "handoff_stress_handoff.csv"],
            columns: SWEEP_COLUMNS,
            runtime: "quick ≈ 1 s, standard ≈ 10 s, full ≈ 40 s (release build, one core)",
            kind: EntryKind::Sweep {
                build: handoff_stress_campaign,
                render: render_handoff_stress,
            },
        },
        Entry {
            name: "city_scale",
            title: "127-cell hexagonal city on the sharded frame loop",
            paper: "beyond the paper (intra-point parallelism)",
            details: "Six complete hexagonal rings of 150 m cells — 127 base stations, \
                      8 terminals each at start — stepped by the sharded SystemWorld on 4 \
                      worker threads: cells roam and run their MACs in parallel within each \
                      frame, cross-cell handoffs travel through per-frame mailboxes merged \
                      in cell-id order, and the run is byte-identical at any thread count.  \
                      CHARISMA and D-TDMA/VR, one replication, sized to stay CI-friendly \
                      under the quick profile.",
            outputs: &["city_scale.csv", "city_scale_handoff.csv"],
            columns: SWEEP_COLUMNS,
            runtime: "quick ≈ 10 s, standard ≈ 45 s, full ≈ 3 min (release build, 4 threads)",
            kind: EntryKind::Sweep {
                build: city_scale_campaign,
                render: render_city_scale,
            },
        },
        Entry {
            name: "smoke_10k",
            title: "10,000-terminal single-cell smoke",
            paper: "beyond the paper (frame-core scalability)",
            details: "A single cell carrying 9,000 voice and 1,000 data terminals — two \
                      orders of magnitude past the paper's populations — run for a fixed \
                      1,000 frames (2.5 simulated seconds) on every profile.  The point is \
                      not the (saturated) QoS metrics but the structure-of-arrays frame \
                      core: the begin-frame sweep, the index-sliced MAC surface and the \
                      contention machinery must stay linear in the population and \
                      byte-deterministic at this scale, within a CI-sized wall-clock \
                      budget.  CHARISMA and D-TDMA/VR, one replication.",
            outputs: &["smoke_10k.csv"],
            columns: SWEEP_COLUMNS,
            runtime: "≈ 1 s on every profile (fixed frame count; release build, one core)",
            kind: EntryKind::Sweep {
                build: smoke_10k_campaign,
                render: render_smoke_10k,
            },
        },
    ]
}

/// The registry names, in handbook order.
pub fn names() -> Vec<&'static str> {
    entries().iter().map(|e| e.name).collect()
}

/// Looks an entry up by name.
pub fn find(name: &str) -> Option<Entry> {
    entries().into_iter().find(|e| e.name == name)
}

/// Builds the campaign of a sweep entry (None for bespoke entries or unknown
/// names).  Exposed so tests can exercise registry campaigns directly.
pub fn build_campaign(name: &str, profile: BenchProfile) -> Option<Campaign> {
    match find(name)?.kind {
        EntryKind::Sweep { build, .. } => Some(build(profile)),
        EntryKind::Custom { .. } => None,
    }
}

/// Runs one bespoke (`EntryKind::Custom`) entry: prints its banner and
/// runs its generator, which writes its artifacts under `results_dir`.
/// Sweep entries run through `checkpoint::run_entry_durable`, which owns
/// their campaign, checkpoint and rendering; naming one here is an error.
pub fn run_entry(
    name: &str,
    profile: BenchProfile,
    results_dir: &Path,
) -> Result<EntryReport, String> {
    let entry = find(name).ok_or_else(|| {
        format!(
            "unknown scenario \"{name}\" — registered scenarios: {}",
            names().join(", ")
        )
    })?;
    let EntryKind::Custom { run } = entry.kind else {
        return Err(format!(
            "\"{name}\" is a sweep entry; run it through checkpoint::run_entry_durable"
        ));
    };
    println!(
        "=== {} — {} [{} profile] ===",
        entry.name,
        entry.title,
        profile.label()
    );
    let outputs = run(profile, results_dir);
    Ok(EntryReport {
        name: entry.name,
        points: 0,
        replications: 0,
        seeds: Vec::new(),
        outputs,
        campaign_json: None,
    })
}

/// The current git revision (for provenance), or `"unknown"` outside a git
/// checkout.
pub fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The provenance manifest for a set of executed entries.
pub fn manifest_json(reports: &[EntryReport], profile: BenchProfile, threads: usize) -> Json {
    Json::Object(vec![
        (
            "schema".into(),
            Json::Str("charisma.campaign_manifest.v1".into()),
        ),
        ("profile".into(), Json::Str(profile.label().into())),
        ("threads".into(), Json::Int(threads as u64)),
        ("git_revision".into(), Json::Str(git_revision())),
        (
            "entries".into(),
            Json::Array(
                reports
                    .iter()
                    .map(|r| {
                        Json::Object(vec![
                            ("name".into(), Json::Str(r.name.into())),
                            ("points".into(), Json::Int(r.points as u64)),
                            ("replications".into(), Json::Int(r.replications)),
                            (
                                "seeds".into(),
                                Json::Array(r.seeds.iter().map(|&s| Json::Int(s)).collect()),
                            ),
                            (
                                "outputs".into(),
                                Json::Array(
                                    r.outputs
                                        .iter()
                                        .map(|p| {
                                            Json::Str(
                                                p.file_name()
                                                    .map(|f| f.to_string_lossy().into_owned())
                                                    .unwrap_or_else(|| p.display().to_string()),
                                            )
                                        })
                                        .collect(),
                                ),
                            ),
                            (
                                "campaign".into(),
                                r.campaign_json.clone().unwrap_or(Json::Null),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

// --- the reproduction handbook -------------------------------------------

/// Marker opening the generated section of `EXPERIMENTS.md`.
pub const GENERATED_BEGIN: &str =
    "<!-- BEGIN GENERATED SCENARIOS (campaign --write-handbook; do not edit by hand) -->";
/// Marker closing the generated section of `EXPERIMENTS.md`.
pub const GENERATED_END: &str = "<!-- END GENERATED SCENARIOS -->";

/// The generated handbook section: one subsection per registry entry.
pub fn handbook_markdown() -> String {
    let mut out = String::new();
    for entry in entries() {
        out.push_str(&format!("### `{}` — {}\n\n", entry.name, entry.title));
        out.push_str(&format!("**Paper artifact:** {}.\n\n", entry.paper));
        out.push_str(&format!("{}\n\n", entry.details));
        out.push_str(&format!(
            "- **Run:** `cargo run --release -p charisma_bench --bin campaign -- run {} \
             --profile quick` (or `standard` / `full`)\n",
            entry.name
        ));
        let files = entry
            .outputs
            .iter()
            .map(|f| format!("`results/{f}`"))
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!("- **Output:** {files}\n"));
        out.push_str(&format!("- **Columns:** `{}`\n", entry.columns));
        out.push_str(&format!("- **Runtime:** {}\n\n", entry.runtime));
    }
    out
}

/// The per-profile summary lines shared by `campaign list`, `campaign
/// describe` and the handbook preamble (one source, no drift).
pub fn profile_summary_lines() -> String {
    BenchProfile::ALL
        .iter()
        .map(|p| format!("- `{}`: {}", p.label(), p.describe()))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The full `EXPERIMENTS.md` document used when the handbook does not exist
/// yet: a hand-written preamble plus the generated scenario section.
pub fn handbook_document() -> String {
    format!(
        "# EXPERIMENTS — the reproduction handbook\n\
         \n\
         How to regenerate every evaluation artifact of\n\
         \n\
         > Y.-K. Kwok and V. K. N. Lau, *\"A Novel Channel-Adaptive Uplink Access\n\
         > Control Protocol for Nomadic Computing\"*, ICPP 2000 / IEEE TPDS 13(11), 2002.\n\
         \n\
         Every experiment is a named entry in the scenario-campaign registry\n\
         (`crates/bench/src/registry.rs`).  One binary drives them all:\n\
         \n\
         ```sh\n\
         cargo run --release -p charisma_bench --bin campaign -- list\n\
         cargo run --release -p charisma_bench --bin campaign -- describe fig11\n\
         cargo run --release -p charisma_bench --bin campaign -- run fig11 --profile quick\n\
         cargo run --release -p charisma_bench --bin campaign -- run all --profile full\n\
         ```\n\
         \n\
         The sweep-shaped experiments are declarative `ScenarioSpec`s (protocol set,\n\
         voice/data user grids, speed profile, channel mode, duration, replications,\n\
         seed) expanded onto the deterministic parallel sweep executor;\n\
         `describe <name>` prints the exact spec JSON.  Run length and replication\n\
         policy per sweep point are set by the profile (`--profile` or\n\
         `CHARISMA_BENCH_PROFILE`; `campaign list` prints the same summary):\n\
         \n\
         {profiles}\n\
         \n\
         The campaign CSVs report each metric as a mean with its 95 % Student-t\n\
         confidence half-width.  Unrecognised profile values are an error.\n\
         `campaign gate <name>` re-runs an entry and compares every file it writes,\n\
         byte for byte, against its committed copy under `results/` (`results/quick/`\n\
         for the quick profile); `campaign gate all` gates every entry and prints a\n\
         one-line pass/fail summary table.\n\
         \n\
         Sweep runs are durable: each completed point is appended to the entry's\n\
         checkpoint manifest `results/.checkpoint/<entry>.jsonl`, an interrupted\n\
         run exits 3, and `campaign run <name> --resume` replays the completed\n\
         points byte-for-byte (refusing, exit 2, if the spec, profile or git\n\
         revision changed).  `CHARISMA_FAULT_POINT=N` aborts deterministically\n\
         after N points — the hook the durability tests and the CI resume smoke\n\
         test inject faults with.\n\
         \n\
         Every invocation of `campaign run` writes `results/MANIFEST.json` recording\n\
         the executed specs, profile, seeds, replication counts, output files and git\n\
         revision.  Runs are deterministic: the same (spec, profile) pair produces\n\
         byte-identical CSVs on every machine, at every sweep thread count\n\
         (`tests/determinism.rs` pins this).  All commands below are run from the\n\
         repository root.\n\
         \n\
         The scenario sections between the markers are generated — regenerate with:\n\
         \n\
         ```sh\n\
         cargo run --release -p charisma_bench --bin campaign -- write-handbook\n\
         ```\n\
         \n\
         {}\n\
         {}\
         {}\n",
        GENERATED_BEGIN,
        handbook_markdown(),
        GENERATED_END,
        profiles = profile_summary_lines(),
    )
}

/// Creates or refreshes the handbook at `path`: a missing file is created
/// from [`handbook_document`]; an existing file has the section between the
/// generated-section markers replaced in place.
pub fn write_handbook(path: &Path) -> io::Result<PathBuf> {
    let contents = match std::fs::read_to_string(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => handbook_document(),
        Err(e) => return Err(e),
        Ok(existing) => {
            let begin = existing.find(GENERATED_BEGIN).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: missing marker {GENERATED_BEGIN:?}", path.display()),
                )
            })?;
            let end = existing.find(GENERATED_END).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: missing marker {GENERATED_END:?}", path.display()),
                )
            })?;
            if end < begin {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: generated-section markers are reversed", path.display()),
                ));
            }
            format!(
                "{}\n{}{}",
                &existing[..begin + GENERATED_BEGIN.len()],
                handbook_markdown(),
                &existing[end..]
            )
        }
    };
    std::fs::write(path, contents)?;
    println!("wrote {}", path.display());
    Ok(path.to_path_buf())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_nonempty() {
        let names = names();
        assert!(names.len() >= 14, "expected >= 14 entries, got {names:?}");
        for (i, n) in names.iter().enumerate() {
            assert!(!n.is_empty());
            assert!(!names[..i].contains(n), "duplicate entry {n}");
        }
    }

    #[test]
    fn registry_covers_all_legacy_binaries_and_the_new_scenarios() {
        let names = names();
        for required in [
            "table1",
            "fig5_fading",
            "fig7_abicm",
            "fig11",
            "fig12",
            "fig13",
            "capacity_table",
            "qos_capacity",
            "speed_sweep",
            "ablation_csi",
            "mixed_mobility",
            "load_ramp",
            "data_heavy",
            "multicell_baseline",
            "handoff_stress",
            "city_scale",
        ] {
            assert!(
                names.contains(&required),
                "missing registry entry {required}"
            );
        }
    }

    #[test]
    fn every_sweep_campaign_validates_and_expands_on_every_profile() {
        for profile in BenchProfile::ALL {
            for entry in entries() {
                if let EntryKind::Sweep { build, .. } = entry.kind {
                    let campaign = build(profile);
                    assert_eq!(campaign.name, entry.name);
                    let points = campaign
                        .expand(profile.budget())
                        .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
                    // `expand` has validated every point's SimConfig.
                    assert!(!points.is_empty(), "{} expanded to nothing", entry.name);
                }
            }
        }
    }

    #[test]
    fn entry_metadata_is_complete() {
        for entry in entries() {
            assert!(!entry.title.is_empty(), "{}: empty title", entry.name);
            assert!(!entry.paper.is_empty(), "{}: empty paper ref", entry.name);
            assert!(!entry.details.is_empty(), "{}: empty details", entry.name);
            assert!(!entry.outputs.is_empty(), "{}: no outputs", entry.name);
            assert!(!entry.columns.is_empty(), "{}: no columns", entry.name);
            assert!(!entry.runtime.is_empty(), "{}: no runtime", entry.name);
        }
    }

    #[test]
    fn handbook_section_documents_every_entry() {
        let handbook = handbook_markdown();
        for entry in entries() {
            assert!(
                handbook.contains(&format!("### `{}`", entry.name)),
                "handbook section missing {}",
                entry.name
            );
            assert!(
                handbook.contains(&format!("run {} --profile", entry.name)),
                "handbook section missing the run command for {}",
                entry.name
            );
        }
    }

    #[test]
    fn unknown_entries_error_with_the_valid_names() {
        let dir = Path::new("unused");
        let e = run_entry("fig99", BenchProfile::Quick, dir).unwrap_err();
        assert!(e.contains("fig99"));
        assert!(e.contains("fig11"), "error should list the registry: {e}");
    }

    #[test]
    fn manifest_shape_is_stable() {
        let reports = vec![EntryReport {
            name: "fig11",
            points: 3,
            replications: 9,
            seeds: vec![1, 2],
            outputs: vec![PathBuf::from("results/fig11_voice_loss.csv")],
            campaign_json: Some(Json::Null),
        }];
        let m = manifest_json(&reports, BenchProfile::Quick, 4);
        assert_eq!(
            m.get("schema").and_then(Json::as_str),
            Some("charisma.campaign_manifest.v1")
        );
        assert_eq!(m.get("profile").and_then(Json::as_str), Some("quick"));
        assert_eq!(m.get("threads").and_then(Json::as_u64), Some(4));
        let entries = m.get("entries").and_then(Json::as_array).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(
            entries[0].get("replications").and_then(Json::as_u64),
            Some(9)
        );
        assert_eq!(
            entries[0].get("outputs").and_then(Json::as_array).unwrap()[0].as_str(),
            Some("fig11_voice_loss.csv")
        );
        // The manifest re-parses as valid JSON.
        assert_eq!(Json::parse(&m.to_string()).unwrap(), m);
    }
}
