//! Campaigns: named collections of [`ScenarioSpec`]s that expand into one
//! flat list of sweep points and execute on the deterministic parallel sweep
//! workers ([`run_sweep_replicated`]).
//!
//! A campaign is the unit the benchmark registry runs: `fig11` is a campaign
//! of one spec (all six protocols x three data populations x two queue
//! variants x the voice-user grid), the CSI ablation is a campaign of three
//! specs, and so on.  The result — a [`CampaignRun`] — renders to a single
//! uniform CSV schema ([`CampaignRun::CSV_HEADER`]) whose bytes are a pure
//! function of (campaign, frame budget, replication policy): byte-identical
//! across repeats and across sweep thread counts, which
//! `tests/determinism.rs` pins.  Under a replication policy every sweep
//! point runs several independent replications on seed streams derived from
//! the point seed, and the CSV metric columns become means with 95 %
//! Student-t confidence half-widths.

use crate::json::Json;
use crate::spec::{CampaignPoint, FrameBudget, ScenarioSpec, SpecError};
use crate::sweep::{
    run_sweep_replicated, run_sweep_replicated_observed, ReplicatedResult, ReplicationPolicy,
};
use crate::RunReport;
use charisma_metrics::{capacity_at_threshold, RepsAccumulator};
use serde::{Deserialize, Serialize};

use crate::protocols::ProtocolKind;

/// A named list of scenario specs executed as one unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Campaign {
    /// Campaign name (the registry entry name, e.g. `fig11`).
    pub name: String,
    /// The specs, expanded in order.
    pub specs: Vec<ScenarioSpec>,
}

impl Campaign {
    /// An empty campaign.
    pub fn new(name: impl Into<String>) -> Self {
        Campaign {
            name: name.into(),
            specs: Vec::new(),
        }
    }

    /// Adds a spec (builder style).
    pub fn with_spec(mut self, spec: ScenarioSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Validates the campaign and every spec in it.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.name.is_empty() {
            return Err(SpecError("campaign name must not be empty".into()));
        }
        if self.specs.is_empty() {
            return Err(SpecError(format!(
                "campaign \"{}\" has no scenario specs",
                self.name
            )));
        }
        for (i, spec) in self.specs.iter().enumerate() {
            if self.specs[..i].iter().any(|s| s.name == spec.name) {
                return Err(SpecError(format!(
                    "campaign \"{}\" has two specs named \"{}\"",
                    self.name, spec.name
                )));
            }
            spec.validate()?;
        }
        Ok(())
    }

    /// Expands every spec into executable points, in spec order.
    pub fn expand(&self, budget: FrameBudget) -> Result<Vec<CampaignPoint>, SpecError> {
        self.validate()?;
        let mut points = Vec::new();
        for spec in &self.specs {
            points.extend(spec.expand(budget)?);
        }
        Ok(points)
    }

    /// Runs the campaign with one replication per point on up to `threads`
    /// sweep workers (0: one per core) — the historical single-replication
    /// behaviour, still used by fast tests.
    pub fn run(&self, budget: FrameBudget, threads: usize) -> Result<CampaignRun, SpecError> {
        self.run_replicated(budget, ReplicationPolicy::SINGLE, threads)
    }

    /// Runs the campaign with `default_reps` replications per point (specs
    /// may override it via their `replications` field) on up to `threads`
    /// sweep workers (0: one per core).  Rows come back in expansion order,
    /// and — because every point's replications run sequentially inside the
    /// worker that owns the point — the rendered CSV bytes are identical
    /// across repeats and across thread counts.
    pub fn run_replicated(
        &self,
        budget: FrameBudget,
        default_reps: ReplicationPolicy,
        threads: usize,
    ) -> Result<CampaignRun, SpecError> {
        default_reps.validate().map_err(SpecError)?;
        let expanded = self.expand(budget)?;
        let mut metas = Vec::with_capacity(expanded.len());
        let mut points = Vec::with_capacity(expanded.len());
        for p in expanded {
            metas.push((p.scenario, p.speed_kmh));
            points.push((p.point, p.reps.unwrap_or(default_reps)));
        }
        let results = run_sweep_replicated(points, threads);
        let rows = metas
            .into_iter()
            .zip(results)
            .map(|((scenario, speed_kmh), r)| CampaignRow {
                scenario,
                protocol: r.protocol,
                request_queue: r.report.request_queue,
                num_voice: r.report.num_voice,
                num_data: r.report.num_data,
                speed_kmh,
                load: r.load,
                report: r.report,
                stats: r.stats,
            })
            .collect();
        Ok(CampaignRun {
            campaign: self.name.clone(),
            rows,
        })
    }

    /// [`Campaign::run_replicated`] with a resume seam and a completion
    /// observer — the engine behind durable (checkpointed) campaign runs.
    ///
    /// `precomputed` must hold one slot per expanded point (in expansion
    /// order); `Some` slots are spliced in verbatim instead of being
    /// re-simulated, and `observer` sees every newly computed point (see
    /// [`run_sweep_replicated_observed`]).  Rows come back in expansion
    /// order; a `None` row is a point that never ran because the observer
    /// requested an abort.  When every slot is `None` and the observer always
    /// returns `true`, the assembled rows are exactly those of
    /// [`Campaign::run_replicated`].
    pub fn run_replicated_observed(
        &self,
        budget: FrameBudget,
        default_reps: ReplicationPolicy,
        threads: usize,
        precomputed: Vec<Option<ReplicatedResult>>,
        observer: &(dyn Fn(usize, &ReplicatedResult) -> bool + Sync),
    ) -> Result<Vec<Option<CampaignRow>>, SpecError> {
        default_reps.validate().map_err(SpecError)?;
        let expanded = self.expand(budget)?;
        if expanded.len() != precomputed.len() {
            return Err(SpecError(format!(
                "campaign \"{}\" expands to {} points but {} precomputed slots were supplied",
                self.name,
                expanded.len(),
                precomputed.len()
            )));
        }
        let mut metas = Vec::with_capacity(expanded.len());
        let mut points = Vec::with_capacity(expanded.len());
        for p in expanded {
            metas.push((p.scenario, p.speed_kmh));
            points.push((p.point, p.reps.unwrap_or(default_reps)));
        }
        let results = run_sweep_replicated_observed(points, threads, precomputed, observer);
        Ok(metas
            .into_iter()
            .zip(results)
            .map(|((scenario, speed_kmh), r)| {
                r.map(|r| CampaignRow {
                    scenario,
                    protocol: r.protocol,
                    request_queue: r.report.request_queue,
                    num_voice: r.report.num_voice,
                    num_data: r.report.num_data,
                    speed_kmh,
                    load: r.load,
                    report: r.report,
                    stats: r.stats,
                })
            })
            .collect())
    }

    /// The distinct master seeds the campaign's points will use (for the run
    /// manifest).
    pub fn seeds(&self) -> Vec<u64> {
        let mut seeds: Vec<u64> = Vec::new();
        for spec in &self.specs {
            let s = spec.effective_seed();
            if !seeds.contains(&s) {
                seeds.push(s);
            }
        }
        seeds
    }

    /// Serialises the campaign (name + specs) to JSON.
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("name".into(), Json::Str(self.name.clone())),
            (
                "scenarios".into(),
                Json::Array(self.specs.iter().map(|s| s.to_json()).collect()),
            ),
        ])
    }

    /// The JSON text form of the campaign (deterministic bytes).
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }
}

/// One executed campaign point with its coordinates and full report.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRow {
    /// Name of the spec the row came from.
    pub scenario: String,
    /// The protocol simulated.
    pub protocol: ProtocolKind,
    /// Whether the base-station request queue was enabled.
    pub request_queue: bool,
    /// Number of voice terminals.
    pub num_voice: u32,
    /// Number of data terminals.
    pub num_data: u32,
    /// Mean terminal speed of the point.
    pub speed_kmh: f64,
    /// The independent variable of the point.
    pub load: f64,
    /// Replication 0's full run report (seeded with the point seed itself).
    pub report: RunReport,
    /// Across-replication statistics of the headline metrics.
    pub stats: RepsAccumulator,
}

impl CampaignRow {
    /// Number of replications behind this row.
    pub fn reps(&self) -> u64 {
        self.stats.reps()
    }

    /// Mean voice packet loss rate across replications.
    pub fn voice_loss_mean(&self) -> f64 {
        self.stats.voice_loss().mean()
    }

    /// Mean data throughput (packets per frame) across replications.
    pub fn data_throughput_mean(&self) -> f64 {
        self.stats.data_throughput().mean()
    }

    /// Mean data throughput per data terminal per frame across replications.
    pub fn data_throughput_per_user_mean(&self) -> f64 {
        if self.num_data == 0 {
            0.0
        } else {
            self.data_throughput_mean() / self.num_data as f64
        }
    }

    /// Mean data access delay (seconds) across replications.
    pub fn data_delay_mean(&self) -> f64 {
        self.stats.data_delay().mean()
    }
}

/// The executed campaign: rows in expansion order.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRun {
    /// Name of the campaign that produced the rows.
    pub campaign: String,
    /// One row per executed sweep point, in expansion order.
    pub rows: Vec<CampaignRow>,
}

impl CampaignRun {
    /// The uniform CSV schema every sweep campaign renders to.  Metric
    /// columns are means across the point's replications, each followed by
    /// the half-width of its 95 % Student-t confidence interval (0 when the
    /// point ran a single replication).
    pub const CSV_HEADER: &'static str = "scenario,protocol,request_queue,num_voice,num_data,\
                                          speed_kmh,load,reps,\
                                          voice_loss_rate,voice_loss_ci95,\
                                          data_throughput_per_frame,data_throughput_ci95,\
                                          data_delay_s,data_delay_ci95";

    /// The CSV data rows (no header), deterministically formatted.
    pub fn csv_rows(&self) -> Vec<String> {
        self.rows
            .iter()
            .map(|r| {
                format!(
                    "{},{},{},{},{},{:.2},{},{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6}",
                    r.scenario,
                    r.protocol.label(),
                    r.request_queue,
                    r.num_voice,
                    r.num_data,
                    r.speed_kmh,
                    r.load,
                    r.reps(),
                    r.voice_loss_mean(),
                    r.stats.voice_loss().ci95_half_width(),
                    r.data_throughput_mean(),
                    r.stats.data_throughput().ci95_half_width(),
                    r.data_delay_mean(),
                    r.stats.data_delay().ci95_half_width(),
                )
            })
            .collect()
    }

    /// The complete CSV document (header + rows + trailing newline).  The
    /// bytes are a pure function of (campaign, frame budget) — see the module
    /// docs.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(Self::CSV_HEADER);
        out.push('\n');
        for row in self.csv_rows() {
            out.push_str(&row);
            out.push('\n');
        }
        out
    }

    /// The rows of one curve — a fixed (scenario, protocol, queue) series —
    /// as `(load, f(report))` pairs in load order, ready for
    /// [`capacity_at_threshold`].
    pub fn curve<F: Fn(&CampaignRow) -> f64>(
        &self,
        scenario: &str,
        protocol: ProtocolKind,
        request_queue: bool,
        num_other: Option<(u32, bool)>,
        metric: F,
    ) -> Vec<(f64, f64)> {
        let mut pts: Vec<(f64, f64)> = self
            .rows
            .iter()
            .filter(|r| {
                r.scenario == scenario && r.protocol == protocol && r.request_queue == request_queue
            })
            .filter(|r| match num_other {
                // (count, true): fix the data population; (count, false): voice.
                Some((n, true)) => r.num_data == n,
                Some((n, false)) => r.num_voice == n,
                None => true,
            })
            .map(|r| (r.load, metric(r)))
            .collect();
        pts.sort_by(|a, b| a.0.total_cmp(&b.0));
        pts
    }

    /// Capacity (largest load meeting `threshold`) along one curve; see
    /// [`capacity_at_threshold`].
    pub fn capacity(
        &self,
        scenario: &str,
        protocol: ProtocolKind,
        request_queue: bool,
        num_other: Option<(u32, bool)>,
        metric: impl Fn(&CampaignRow) -> f64,
        threshold: f64,
    ) -> Option<f64> {
        let curve = self.curve(scenario, protocol, request_queue, num_other, metric);
        if curve.is_empty() {
            return None;
        }
        capacity_at_threshold(&curve, threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Axis, QueueToggle};

    fn tiny_budget() -> FrameBudget {
        FrameBudget {
            warmup: 100,
            measured: 800,
        }
    }

    fn tiny_campaign() -> Campaign {
        let mut spec = ScenarioSpec::new("tiny");
        spec.protocols = vec![ProtocolKind::Charisma, ProtocolKind::DTdmaFr];
        spec.axis = Axis::VoiceUsers;
        spec.voice_users = vec![5, 10];
        spec.data_users = vec![0, 2];
        spec.request_queue = QueueToggle::Both;
        Campaign::new("tiny-campaign").with_spec(spec)
    }

    #[test]
    fn run_produces_rows_in_expansion_order() {
        let campaign = tiny_campaign();
        let expanded = campaign.expand(tiny_budget()).unwrap();
        let run = campaign.run(tiny_budget(), 2).unwrap();
        assert_eq!(run.rows.len(), expanded.len());
        for (row, point) in run.rows.iter().zip(&expanded) {
            assert_eq!(row.scenario, point.scenario);
            assert_eq!(row.protocol, point.point.protocol);
            assert_eq!(row.load, point.point.load);
            assert_eq!(row.num_voice, point.point.config.num_voice);
            assert_eq!(row.report.protocol, point.point.protocol);
        }
    }

    #[test]
    fn csv_bytes_are_identical_across_thread_counts() {
        let campaign = tiny_campaign();
        let serial = campaign.run(tiny_budget(), 1).unwrap().to_csv();
        let parallel = campaign.run(tiny_budget(), 4).unwrap().to_csv();
        assert_eq!(serial, parallel);
        assert!(serial.starts_with(CampaignRun::CSV_HEADER));
    }

    #[test]
    fn replicated_run_accumulates_and_stays_deterministic() {
        let campaign = tiny_campaign();
        let policy = ReplicationPolicy::fixed(3);
        let a = campaign.run_replicated(tiny_budget(), policy, 1).unwrap();
        let b = campaign.run_replicated(tiny_budget(), policy, 3).unwrap();
        assert_eq!(a, b, "replicated campaign must not depend on threads");
        assert!(a.rows.iter().all(|r| r.reps() == 3));
        // CSV carries the reps column and both CI columns.
        let csv = a.to_csv();
        assert!(csv.starts_with(CampaignRun::CSV_HEADER));
        assert!(CampaignRun::CSV_HEADER.contains("reps,voice_loss_rate,voice_loss_ci95"));
        for line in csv.lines().skip(1) {
            assert_eq!(
                line.split(',').count(),
                CampaignRun::CSV_HEADER.split(',').count(),
                "row width must match the header: {line}"
            );
            assert_eq!(line.split(',').nth(7), Some("3"), "reps column: {line}");
        }
        // A single-replication run is the degenerate case: same report,
        // zero-width intervals.
        let single = campaign.run(tiny_budget(), 1).unwrap();
        for (r3, r1) in a.rows.iter().zip(&single.rows) {
            assert_eq!(r3.report, r1.report, "replication 0 is the legacy run");
            assert_eq!(r1.reps(), 1);
            assert_eq!(r1.stats.voice_loss().ci95_half_width(), 0.0);
        }
        // An invalid default policy is rejected up front.
        assert!(campaign
            .run_replicated(tiny_budget(), ReplicationPolicy::fixed(0), 1)
            .is_err());
    }

    #[test]
    fn observed_run_with_blank_slots_matches_run_replicated() {
        let campaign = tiny_campaign();
        let policy = ReplicationPolicy::fixed(2);
        let full = campaign.run_replicated(tiny_budget(), policy, 1).unwrap();
        let blank = (0..full.rows.len()).map(|_| None).collect();
        let rows = campaign
            .run_replicated_observed(tiny_budget(), policy, 2, blank, &|_, _| true)
            .unwrap();
        let rows: Vec<CampaignRow> = rows.into_iter().map(Option::unwrap).collect();
        assert_eq!(rows, full.rows);
        // The slot count is validated against the expansion.
        assert!(campaign
            .run_replicated_observed(tiny_budget(), policy, 1, Vec::new(), &|_, _| true)
            .is_err());
    }

    #[test]
    fn campaign_json_round_trips() {
        // The campaign bytes (the checkpoint's hash input) are the name and
        // each spec's own encoding, and survive the JSON parser and printer
        // unchanged.
        let campaign = tiny_campaign();
        let text = campaign.to_json_string();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed.to_string(), text);
        assert_eq!(parsed.get("name"), Some(&Json::Str("tiny-campaign".into())));
        assert_eq!(
            parsed.get("scenarios"),
            Some(&Json::Array(vec![campaign.specs[0].to_json()]))
        );
    }

    #[test]
    fn campaign_rejects_duplicate_spec_names_and_empty_campaigns() {
        let mut campaign = tiny_campaign();
        campaign.specs.push(campaign.specs[0].clone());
        let e = campaign.validate().unwrap_err();
        assert!(e.to_string().contains("two specs named \"tiny\""), "{e}");
        let e = Campaign::new("x").validate().unwrap_err();
        assert!(e.to_string().contains("no scenario specs"), "{e}");
        let e = Campaign::new("")
            .with_spec(ScenarioSpec::new("s"))
            .validate();
        assert!(e.is_err());
    }

    #[test]
    fn curves_filter_and_sort_by_load() {
        let campaign = tiny_campaign();
        let run = campaign.run(tiny_budget(), 0).unwrap();
        let curve = run.curve(
            "tiny",
            ProtocolKind::Charisma,
            false,
            Some((0, true)),
            |r| r.report.voice_loss_rate(),
        );
        assert_eq!(curve.len(), 2);
        assert_eq!(curve[0].0, 5.0);
        assert_eq!(curve[1].0, 10.0);
        // The capacity helper runs on the same curve without panicking.
        let _ = run.capacity(
            "tiny",
            ProtocolKind::Charisma,
            false,
            Some((0, true)),
            |r| r.report.voice_loss_rate(),
            0.01,
        );
    }

    #[test]
    fn seeds_reports_the_distinct_effective_seeds() {
        let mut campaign = tiny_campaign();
        assert_eq!(campaign.seeds(), vec![SimConfigSeed::default_seed()]);
        let mut second = campaign.specs[0].clone();
        second.name = "tiny-2".into();
        second.seed = Some(7);
        campaign.specs.push(second);
        assert_eq!(campaign.seeds(), vec![SimConfigSeed::default_seed(), 7]);
    }

    /// Small helper so the test reads clearly.
    struct SimConfigSeed;
    impl SimConfigSeed {
        fn default_seed() -> u64 {
            crate::SimConfig::default_paper().seed
        }
    }
}
