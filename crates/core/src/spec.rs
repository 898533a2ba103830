//! Declarative scenario specifications.
//!
//! A [`ScenarioSpec`] is a *named bundle of overrides* on
//! [`SimConfig`]: which protocols to run, the
//! voice/data user grids, the speed profile, the channel mode, the run
//! length, the seed.  Specs are pure data built in Rust — every experiment
//! of the paper's evaluation, plus scenarios the paper never plotted, is one
//! in the benchmark registry (`charisma_bench::registry`) instead of a
//! hand-rolled loop in its own binary.  A spec expands into the
//! [`SweepPoint`]s that the deterministic parallel sweep executor runs, and
//! every expanded point's [`SimConfig`] is validated on the way, so a bad
//! spec fails before any simulation starts.
//!
//! Specs are encode-only: [`ScenarioSpec::to_json`] writes every field, in a
//! fixed order, into the run manifest, the `campaign describe` output and
//! the checkpoint's campaign hash.  Nothing decodes them.
//!
//! ```
//! use charisma::spec::{Axis, FrameBudget, ScenarioSpec};
//! use charisma::Json;
//!
//! let mut spec = ScenarioSpec::new("example");
//! spec.axis = Axis::VoiceUsers;
//! spec.voice_users = vec![10, 20];
//! spec.data_users = vec![0, 5];
//!
//! // The spec encodes to deterministic JSON bytes…
//! let json = spec.to_json_string();
//! assert_eq!(Json::parse(&json).unwrap().to_string(), json);
//!
//! // …and expands into one sweep point per (protocol, grid) combination.
//! let points = spec
//!     .expand(FrameBudget { warmup: 100, measured: 1_000 })
//!     .unwrap();
//! assert_eq!(points.len(), 6 * 2 * 2); // 6 protocols x 2 Nd x 2 Nv
//! ```

use crate::config::{
    check_speed_profile, HandoffAdmission, HandoffConfig, Layout, LoadRamp, SimConfig, SystemConfig,
};
use crate::json::Json;
use crate::protocols::ProtocolKind;
use crate::sweep::{ReplicationPolicy, SweepPoint};
use charisma_radio::{ChannelMode, PathLossConfig, SpeedProfile};
use serde::{Deserialize, Serialize};
use std::fmt;

/// An invalid scenario specification: a spec-shape rule it breaks (bad grid,
/// protocol set or replication policy), or the first expanded point whose
/// [`SimConfig`] is invalid, named by scenario and point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario spec error: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

fn err(message: impl Into<String>) -> SpecError {
    SpecError(message.into())
}

/// The independent variable a spec sweeps over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Axis {
    /// Sweep the number of voice users (`voice_users` is the axis grid).
    VoiceUsers,
    /// Sweep the number of data users (`data_users` is the axis grid).
    DataUsers,
    /// Sweep a fixed terminal speed (`speed_grid_kmh` is the axis grid; the
    /// `speed` profile is ignored).
    SpeedKmh,
    /// No sweep: one run per (protocol, queue variant, voice grid x data
    /// grid) combination, with the voice-user count reported as the load.
    Single,
}

impl Axis {
    /// The JSON encoding of the axis.
    pub fn as_str(&self) -> &'static str {
        match self {
            Axis::VoiceUsers => "voice_users",
            Axis::DataUsers => "data_users",
            Axis::SpeedKmh => "speed_kmh",
            Axis::Single => "single",
        }
    }
}

/// Which request-queue variants (Section 4.5 of the paper) a spec covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueueToggle {
    /// Base station without a request queue only.
    Off,
    /// Request queue enabled (protocols without queue support are skipped).
    On,
    /// Both variants — the paper's (a)/(b) sub-figure pairs.
    Both,
}

impl QueueToggle {
    /// The queue settings this toggle expands to.
    pub fn variants(&self) -> &'static [bool] {
        match self {
            QueueToggle::Off => &[false],
            QueueToggle::On => &[true],
            QueueToggle::Both => &[false, true],
        }
    }

    /// The JSON encoding of the toggle.
    pub fn as_str(&self) -> &'static str {
        match self {
            QueueToggle::Off => "off",
            QueueToggle::On => "on",
            QueueToggle::Both => "both",
        }
    }
}

/// How long each expanded point simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DurationSpec {
    /// Use the [`FrameBudget`] supplied at expansion time (i.e. the bench
    /// profile: quick / standard / full).
    Profile,
    /// A fixed number of frames, independent of the profile.
    Frames {
        /// Warm-up frames before measurement starts.
        warmup: u64,
        /// Measured frames.
        measured: u64,
    },
}

/// The profile-supplied run length used by [`DurationSpec::Profile`] specs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrameBudget {
    /// Warm-up frames per sweep point.
    pub warmup: u64,
    /// Measured frames per sweep point.
    pub measured: u64,
}

/// How many replications each expanded point of a spec runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RepsSpec {
    /// Use the profile-level default [`ReplicationPolicy`] supplied at run
    /// time (quick / standard / full each define one).
    Profile,
    /// A fixed policy, independent of the profile.
    Policy(ReplicationPolicy),
}

/// A mid-run voice load step, expressed relative to the measured window so it
/// scales with the profile (resolved to an absolute
/// [`LoadRamp`] at expansion).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RampSpec {
    /// Voice terminals active from frame 0; the rest activate at the ramp.
    pub initial_voice: u32,
    /// Where in the measured window the remaining voice users activate,
    /// as a fraction in `[0, 1)` (0.5 = halfway through measurement).
    pub at_measured_fraction: f64,
}

/// One sweep point produced by expanding a [`ScenarioSpec`], carrying the
/// labelling the campaign CSV needs alongside the executable point.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignPoint {
    /// Name of the spec the point came from.
    pub scenario: String,
    /// Mean terminal speed of the point (the swept value on a speed axis).
    pub speed_kmh: f64,
    /// The spec's replication override (None: the profile default applies).
    pub reps: Option<ReplicationPolicy>,
    /// The executable sweep point (protocol + full configuration).
    pub point: SweepPoint,
}

/// A named, declarative scenario: overrides on the paper's Table 1 defaults
/// plus the grids to sweep.  See the [module docs](self) for the JSON shape
/// and an example.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Scenario name (the `scenario` column of campaign CSVs).
    pub name: String,
    /// Protocols to run (expansion order follows this list).
    pub protocols: Vec<ProtocolKind>,
    /// The independent variable.
    pub axis: Axis,
    /// Voice-user grid (the axis grid when `axis` is [`Axis::VoiceUsers`],
    /// otherwise the fixed voice populations to cross with the axis).
    pub voice_users: Vec<u32>,
    /// Data-user grid (the axis grid when `axis` is [`Axis::DataUsers`]).
    pub data_users: Vec<u32>,
    /// Terminal speed population (ignored when `axis` is [`Axis::SpeedKmh`]).
    pub speed: SpeedProfile,
    /// Fixed speeds swept when `axis` is [`Axis::SpeedKmh`]; must be empty
    /// otherwise.
    pub speed_grid_kmh: Vec<f64>,
    /// Channel evaluation mode (lazy by default).
    pub channel_mode: ChannelMode,
    /// Run length per point.
    pub duration: DurationSpec,
    /// Request-queue variants to cover.
    pub request_queue: QueueToggle,
    /// Master seed override (None: the Table 1 default seed).
    pub seed: Option<u64>,
    /// CHARISMA's CSI term (false: the Section 5.3.1 CSI-blind ablation).
    pub csi_aware: bool,
    /// Optional mid-run voice load step.
    pub ramp: Option<RampSpec>,
    /// Replications per expanded point (default: the profile policy).
    pub replications: RepsSpec,
    /// Number of cells (1: the paper's implicit single cell — the
    /// historical code path; > 1: the multi-cell system layer, with
    /// `voice_users`/`data_users` read as **per-cell** populations).
    pub cells: u32,
    /// Base-station layout geometry (multi-cell specs only).
    pub layout: Layout,
    /// Handoff admission behaviour (multi-cell specs only).
    pub handoff: HandoffConfig,
    /// Threads stepping the cells of each system run (multi-cell specs
    /// only; 0 or 1 both mean one thread, see [`SystemConfig::threads`]).
    /// An execution hint: reports are byte-identical at any value.
    pub system_threads: u32,
}

impl ScenarioSpec {
    /// A spec with the paper's defaults: all six protocols, a single
    /// 40-voice-user point, paper speed population, lazy channel, no queue.
    pub fn new(name: impl Into<String>) -> Self {
        ScenarioSpec {
            name: name.into(),
            protocols: ProtocolKind::ALL.to_vec(),
            axis: Axis::Single,
            voice_users: vec![40],
            data_users: vec![0],
            speed: SpeedProfile::paper_default(),
            speed_grid_kmh: Vec::new(),
            channel_mode: ChannelMode::Lazy,
            duration: DurationSpec::Profile,
            request_queue: QueueToggle::Off,
            seed: None,
            csi_aware: true,
            ramp: None,
            replications: RepsSpec::Profile,
            cells: 1,
            layout: Layout::default(),
            handoff: HandoffConfig::default(),
            system_threads: 0,
        }
    }

    /// The master seed the expanded points will use.
    pub fn effective_seed(&self) -> u64 {
        self.seed.unwrap_or_else(|| SimConfig::default_paper().seed)
    }

    /// Validates the spec's own shape without expanding it: name, protocol
    /// set, grids, the (0, 0) cell, queue support, replication policy and the
    /// multi-cell settings.  The rules every run configuration obeys live in
    /// [`SimConfig::validate`], which [`ScenarioSpec::expand`] applies to
    /// each expanded point (and this to the speed profile a speed axis
    /// leaves unused).
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.name.is_empty() {
            return Err(err("scenario name must not be empty"));
        }
        if self.protocols.is_empty() {
            return Err(err(format!(
                "{}: protocol set must not be empty",
                self.name
            )));
        }
        for (i, p) in self.protocols.iter().enumerate() {
            if self.protocols[..i].contains(p) {
                return Err(err(format!("{}: duplicate protocol {p}", self.name)));
            }
        }
        check_grid(&self.name, "voice_users", &self.voice_users)?;
        check_grid(&self.name, "data_users", &self.data_users)?;
        if self.axis == Axis::SpeedKmh {
            check_grid(&self.name, "speed_grid_kmh", &self.speed_grid_kmh)?;
            // Expansion replaces `speed`, so no point checks it, but the
            // encoder still writes it into the manifest.
            check_speed_profile(&self.speed).map_err(|e| err(format!("{}: {e}", self.name)))?;
        } else if !self.speed_grid_kmh.is_empty() {
            return Err(err(format!(
                "{}: speed_grid_kmh is only valid with axis \"speed_kmh\"",
                self.name
            )));
        }
        // Checked non-empty and increasing above: [0] is the smallest.
        if self.voice_users[0] == 0 && self.data_users[0] == 0 {
            return Err(err(format!(
                "{}: the (voice_users, data_users) grids include the empty cell (0, 0)",
                self.name
            )));
        }
        if self.request_queue != QueueToggle::Off
            && !self.protocols.iter().any(|p| p.supports_request_queue())
        {
            return Err(err(format!(
                "{}: request queue enabled but no selected protocol supports one",
                self.name
            )));
        }
        if let RepsSpec::Policy(policy) = &self.replications {
            policy
                .validate()
                .map_err(|e| err(format!("{}: {e}", self.name)))?;
        }
        if self.cells == 0 {
            return Err(err(format!(
                "{}: a system needs at least one cell",
                self.name
            )));
        }
        if self.cells == 1
            && (self.layout != Layout::default()
                || self.handoff != HandoffConfig::default()
                || self.system_threads > 0)
        {
            // The encoder omits layout/handoff/system_threads for
            // single-cell specs, so a non-default value here would be missing
            // from the manifest and the checkpoint hash; refuse it instead (it
            // has no effect on a single-cell run).
            return Err(err(format!(
                "{}: layout/handoff/system_threads settings are only meaningful with cells > 1",
                self.name
            )));
        }
        if let Some(ramp) = &self.ramp {
            if !(0.0..1.0).contains(&ramp.at_measured_fraction) {
                return Err(err(format!(
                    "{}: ramp at_measured_fraction must be in [0, 1), got {}",
                    self.name, ramp.at_measured_fraction
                )));
            }
        }
        Ok(())
    }

    /// Expands the spec into executable sweep points, in a deterministic
    /// order: protocols (as listed) x queue variants x non-axis grid x axis
    /// grid.  Protocols that cannot use a request queue are skipped for the
    /// queue-on variant, mirroring the paper's figures.  Fails on the first
    /// point whose [`SimConfig`] is invalid, naming the scenario and the
    /// point.
    pub fn expand(&self, budget: FrameBudget) -> Result<Vec<CampaignPoint>, SpecError> {
        self.validate()?;
        let (warmup, measured) = match self.duration {
            DurationSpec::Profile => (budget.warmup, budget.measured),
            DurationSpec::Frames { warmup, measured } => (warmup, measured),
        };
        // (voice users, data users, speed override, load) in axis order,
        // the same for every protocol and queue variant.
        let mut grid = Vec::new();
        if self.axis == Axis::VoiceUsers {
            // The voice axis is the inner loop: one curve per data population.
            for &nd in &self.data_users {
                grid.extend(self.voice_users.iter().map(|&nv| (nv, nd, None, nv as f64)));
            }
        } else {
            for &nv in &self.voice_users {
                for &nd in &self.data_users {
                    match self.axis {
                        Axis::DataUsers => grid.push((nv, nd, None, nd as f64)),
                        Axis::SpeedKmh => {
                            grid.extend(self.speed_grid_kmh.iter().map(|&v| (nv, nd, Some(v), v)))
                        }
                        Axis::VoiceUsers | Axis::Single => grid.push((nv, nd, None, nv as f64)),
                    }
                }
            }
        }
        let mut out = Vec::new();
        for &protocol in &self.protocols {
            for &queue in self.request_queue.variants() {
                if queue && !protocol.supports_request_queue() {
                    continue;
                }
                for &(nv, nd, speed, load) in &grid {
                    let p = self.point(protocol, queue, nv, nd, speed, load, warmup, measured);
                    p.point.config.validate().map_err(|e| {
                        err(format!(
                            "{}: point {} ({protocol}, request queue {queue}, {nv} voice + \
                             {nd} data, load {load}): {e}",
                            self.name,
                            out.len(),
                        ))
                    })?;
                    out.push(p);
                }
            }
        }
        Ok(out)
    }

    #[allow(clippy::too_many_arguments)]
    fn point(
        &self,
        protocol: ProtocolKind,
        queue: bool,
        num_voice: u32,
        num_data: u32,
        speed_override: Option<f64>,
        load: f64,
        warmup: u64,
        measured: u64,
    ) -> CampaignPoint {
        let mut config = SimConfig::default_paper();
        config.num_voice = num_voice;
        config.num_data = num_data;
        config.request_queue = queue;
        config.channel_mode = self.channel_mode;
        config.charisma.csi_aware = self.csi_aware;
        config.warmup_frames = warmup;
        config.measured_frames = measured;
        config.speed = match speed_override {
            Some(v) => SpeedProfile::Fixed(v),
            None => self.speed,
        };
        if let Some(seed) = self.seed {
            config.seed = seed;
        }
        if let Some(ramp) = &self.ramp {
            config.ramp = Some(LoadRamp {
                initial_voice: ramp.initial_voice,
                activation_frame: warmup
                    + (measured as f64 * ramp.at_measured_fraction).round() as u64,
            });
        }
        if self.cells > 1 {
            config.system = Some(SystemConfig {
                cells: self.cells,
                layout: self.layout,
                handoff: self.handoff,
                path_loss: PathLossConfig::default(),
                threads: self.system_threads,
            });
        }
        CampaignPoint {
            scenario: self.name.clone(),
            speed_kmh: config.speed.mean_kmh(),
            reps: match self.replications {
                RepsSpec::Profile => None,
                RepsSpec::Policy(policy) => Some(policy),
            },
            point: SweepPoint {
                load,
                protocol,
                config,
            },
        }
    }

    /// Serialises the spec to a JSON object (all fields explicit).
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(String, Json)> = vec![
            ("name".into(), Json::Str(self.name.clone())),
            (
                "protocols".into(),
                Json::Array(
                    self.protocols
                        .iter()
                        .map(|p| Json::Str(p.label().to_string()))
                        .collect(),
                ),
            ),
            ("axis".into(), Json::Str(self.axis.as_str().into())),
            ("voice_users".into(), u32_grid_to_json(&self.voice_users)),
            ("data_users".into(), u32_grid_to_json(&self.data_users)),
            ("speed".into(), speed_to_json(&self.speed)),
            (
                "channel_mode".into(),
                Json::Str(channel_mode_str(self.channel_mode).into()),
            ),
            ("duration".into(), duration_to_json(&self.duration)),
            (
                "replications".into(),
                replications_to_json(&self.replications),
            ),
            (
                "request_queue".into(),
                Json::Str(self.request_queue.as_str().into()),
            ),
            ("csi_aware".into(), Json::Bool(self.csi_aware)),
        ];
        if !self.speed_grid_kmh.is_empty() {
            pairs.push((
                "speed_grid_kmh".into(),
                Json::Array(self.speed_grid_kmh.iter().map(|&v| Json::Num(v)).collect()),
            ));
        }
        // The multi-cell fields are emitted only for multi-cell specs, so
        // the serialised form of every pre-existing (single-cell) spec is
        // byte-identical to earlier releases.
        if self.cells > 1 {
            pairs.push(("cells".into(), Json::Int(self.cells as u64)));
            pairs.push(("layout".into(), layout_to_json(&self.layout)));
            pairs.push(("handoff".into(), handoff_to_json(&self.handoff)));
            if self.system_threads > 0 {
                pairs.push((
                    "system_threads".into(),
                    Json::Int(self.system_threads as u64),
                ));
            }
        }
        if let Some(seed) = self.seed {
            pairs.push(("seed".into(), Json::Int(seed)));
        }
        if let Some(ramp) = &self.ramp {
            pairs.push((
                "ramp".into(),
                Json::Object(vec![
                    ("initial_voice".into(), Json::Int(ramp.initial_voice as u64)),
                    (
                        "at_measured_fraction".into(),
                        Json::Num(ramp.at_measured_fraction),
                    ),
                ]),
            ));
        }
        Json::Object(pairs)
    }

    /// The JSON text form of the spec (deterministic bytes).
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }
}

/// A sweep grid must be non-empty and strictly increasing (which also
/// rules out NaN); the values themselves are checked per expanded point.
fn check_grid<T: PartialOrd + fmt::Debug>(
    name: &str,
    field: &str,
    grid: &[T],
) -> Result<(), SpecError> {
    if grid.is_empty() {
        return Err(err(format!("{name}: grid \"{field}\" must not be empty")));
    }
    if !grid.windows(2).all(|w| w[0] < w[1]) {
        return Err(err(format!(
            "{name}: grid \"{field}\" must be strictly increasing, got {grid:?}"
        )));
    }
    Ok(())
}

fn u32_grid_to_json(grid: &[u32]) -> Json {
    Json::Array(grid.iter().map(|&v| Json::Int(v as u64)).collect())
}

/// The JSON encoding of a [`ChannelMode`].
fn channel_mode_str(mode: ChannelMode) -> &'static str {
    match mode {
        ChannelMode::Lazy => "lazy",
        ChannelMode::Eager => "eager",
    }
}

fn speed_to_json(speed: &SpeedProfile) -> Json {
    match *speed {
        SpeedProfile::Fixed(kmh) => Json::Object(vec![
            ("kind".into(), Json::Str("fixed".into())),
            ("kmh".into(), Json::Num(kmh)),
        ]),
        SpeedProfile::Uniform { min_kmh, max_kmh } => Json::Object(vec![
            ("kind".into(), Json::Str("uniform".into())),
            ("min_kmh".into(), Json::Num(min_kmh)),
            ("max_kmh".into(), Json::Num(max_kmh)),
        ]),
        SpeedProfile::Bimodal {
            slow_kmh,
            fast_kmh,
            fraction_fast,
        } => Json::Object(vec![
            ("kind".into(), Json::Str("bimodal".into())),
            ("slow_kmh".into(), Json::Num(slow_kmh)),
            ("fast_kmh".into(), Json::Num(fast_kmh)),
            ("fraction_fast".into(), Json::Num(fraction_fast)),
        ]),
    }
}

fn duration_to_json(duration: &DurationSpec) -> Json {
    match *duration {
        DurationSpec::Profile => Json::Str("profile".into()),
        DurationSpec::Frames { warmup, measured } => Json::Object(vec![
            ("warmup_frames".into(), Json::Int(warmup)),
            ("measured_frames".into(), Json::Int(measured)),
        ]),
    }
}

fn replications_to_json(reps: &RepsSpec) -> Json {
    match reps {
        RepsSpec::Profile => Json::Str("profile".into()),
        RepsSpec::Policy(policy) => {
            let mut pairs = vec![
                ("min".into(), Json::Int(policy.min_reps as u64)),
                ("max".into(), Json::Int(policy.max_reps as u64)),
            ];
            if let Some(target) = policy.target_rel_ci95 {
                pairs.push(("target_rel_ci95".into(), Json::Num(target)));
            }
            Json::Object(pairs)
        }
    }
}

fn layout_to_json(layout: &Layout) -> Json {
    let (kind, radius) = match *layout {
        Layout::Hex { cell_radius_m } => ("hex", cell_radius_m),
        Layout::Line { cell_radius_m } => ("line", cell_radius_m),
    };
    Json::Object(vec![
        ("kind".into(), Json::Str(kind.into())),
        ("cell_radius_m".into(), Json::Num(radius)),
    ])
}

fn admission_str(admission: HandoffAdmission) -> &'static str {
    match admission {
        HandoffAdmission::DropOnFull => "drop_on_full",
        HandoffAdmission::Queue => "queue",
    }
}

fn handoff_to_json(handoff: &HandoffConfig) -> Json {
    Json::Object(vec![
        (
            "admission".into(),
            Json::Str(admission_str(handoff.admission).into()),
        ),
        (
            "cell_capacity".into(),
            Json::Int(handoff.cell_capacity as u64),
        ),
        ("retry_frames".into(), Json::Int(handoff.retry_frames)),
        ("hysteresis_m".into(), Json::Num(handoff.hysteresis_m)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;

    /// A multi-cell spec with every field away from its default.  The
    /// struct literal is exhaustive, so a new field does not compile until
    /// it is set here and `json_round_trip_preserves_every_field` mutates it.
    fn full_spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "full".into(),
            protocols: vec![ProtocolKind::Charisma, ProtocolKind::DTdmaVr],
            axis: Axis::VoiceUsers,
            voice_users: vec![20, 60, 100],
            data_users: vec![0, 10],
            speed: SpeedProfile::Bimodal {
                slow_kmh: 3.0,
                fast_kmh: 80.0,
                fraction_fast: 0.5,
            },
            speed_grid_kmh: Vec::new(),
            channel_mode: ChannelMode::Eager,
            duration: DurationSpec::Frames {
                warmup: 500,
                measured: 5_000,
            },
            request_queue: QueueToggle::Both,
            seed: Some(0xDEAD_BEEF_5EED_CAFE),
            csi_aware: false,
            ramp: Some(RampSpec {
                initial_voice: 10,
                at_measured_fraction: 0.5,
            }),
            replications: RepsSpec::Policy(ReplicationPolicy::adaptive(3, 8, 0.05)),
            cells: 7,
            layout: Layout::Hex {
                cell_radius_m: 250.0,
            },
            handoff: HandoffConfig {
                admission: HandoffAdmission::DropOnFull,
                cell_capacity: 120,
                retry_frames: 20,
                hysteresis_m: 10.0,
            },
            system_threads: 2,
        }
    }

    fn budget() -> FrameBudget {
        FrameBudget {
            warmup: 10,
            measured: 100,
        }
    }

    /// The bytes a checkpoint hashes for a one-spec campaign.
    fn campaign_bytes(spec: &ScenarioSpec) -> String {
        Campaign::new("c").with_spec(spec.clone()).to_json_string()
    }

    /// Nothing decodes a spec, but the checkpoint's campaign hash is taken
    /// over its encoding: a field missing from it would let a checkpoint
    /// written before that field changed resume after it.  So changing any
    /// one field must change the campaign bytes, and the bytes must survive
    /// the JSON parser and printer unchanged.
    #[test]
    fn json_round_trip_preserves_every_field() {
        let base = full_spec();
        type Mutation = (&'static str, fn(&mut ScenarioSpec));
        let mutations: &[Mutation] = &[
            ("name", |s| s.name.push('2')),
            ("protocols", |s| s.protocols.reverse()),
            ("axis", |s| s.axis = Axis::DataUsers),
            ("voice_users", |s| s.voice_users.push(110)),
            ("data_users", |s| s.data_users[1] = 11),
            ("speed", |s| s.speed = SpeedProfile::Fixed(50.0)),
            ("channel_mode", |s| s.channel_mode = ChannelMode::Lazy),
            ("duration", |s| s.duration = DurationSpec::Profile),
            ("duration.warmup", |s| {
                s.duration = DurationSpec::Frames {
                    warmup: 501,
                    measured: 5_000,
                }
            }),
            ("request_queue", |s| s.request_queue = QueueToggle::On),
            ("seed", |s| s.seed = None),
            ("csi_aware", |s| s.csi_aware = true),
            ("ramp", |s| s.ramp = None),
            ("ramp.initial_voice", |s| {
                s.ramp.as_mut().unwrap().initial_voice = 11;
            }),
            ("ramp.at_measured_fraction", |s| {
                s.ramp.as_mut().unwrap().at_measured_fraction = 0.25;
            }),
            ("replications", |s| {
                s.replications = RepsSpec::Policy(ReplicationPolicy::fixed(3))
            }),
            ("cells", |s| s.cells = 19),
            ("layout", |s| {
                s.layout = Layout::Line {
                    cell_radius_m: 250.0,
                }
            }),
            ("layout.cell_radius_m", |s| {
                s.layout = Layout::Hex {
                    cell_radius_m: 300.0,
                }
            }),
            ("handoff.admission", |s| {
                s.handoff.admission = HandoffAdmission::Queue
            }),
            ("handoff.cell_capacity", |s| s.handoff.cell_capacity = 121),
            ("handoff.retry_frames", |s| s.handoff.retry_frames = 21),
            ("handoff.hysteresis_m", |s| s.handoff.hysteresis_m = 12.5),
            ("system_threads", |s| s.system_threads = 3),
        ];
        let bytes = campaign_bytes(&base);
        for (field, mutate) in mutations {
            let mut changed = base.clone();
            mutate(&mut changed);
            assert_ne!(changed, base, "{field}: the mutation changed nothing");
            assert_ne!(
                campaign_bytes(&changed),
                bytes,
                "{field} is missing from the encoding"
            );
        }
        // The speed grid is encoded on the speed axis, the only axis that
        // allows one.
        let mut speed_axis = base.clone();
        speed_axis.axis = Axis::SpeedKmh;
        speed_axis.speed_grid_kmh = vec![10.0, 50.0];
        let mut other_grid = speed_axis.clone();
        other_grid.speed_grid_kmh[1] = 60.0;
        assert_ne!(
            campaign_bytes(&other_grid),
            campaign_bytes(&speed_axis),
            "speed_grid_kmh is missing from the encoding"
        );
        for spec in [&base, &speed_axis] {
            spec.validate().unwrap();
            let text = campaign_bytes(spec);
            assert_eq!(Json::parse(&text).unwrap().to_string(), text);
        }
    }

    #[test]
    fn invalid_grids_are_rejected() {
        let rejected = |mutate: fn(&mut ScenarioSpec)| {
            let mut spec = ScenarioSpec::new("x");
            mutate(&mut spec);
            spec.validate().unwrap_err().to_string()
        };
        let e = rejected(|s| s.voice_users = vec![]);
        assert!(e.contains("must not be empty"), "{e}");
        let e = rejected(|s| s.voice_users = vec![10, 10, 20]);
        assert!(e.contains("strictly increasing"), "{e}");
        let e = rejected(|s| {
            s.voice_users = vec![0, 10];
            s.data_users = vec![0, 5];
        });
        assert!(e.contains("(0, 0)"), "{e}");
        // A speed grid without a speed axis.
        let e = rejected(|s| s.speed_grid_kmh = vec![10.0, 50.0]);
        assert!(e.contains("speed_kmh"), "{e}");
        // A NaN axis speed breaks the order; a negative one breaks the
        // speed rule of every point it expands into.
        let e = rejected(|s| {
            s.axis = Axis::SpeedKmh;
            s.speed_grid_kmh = vec![10.0, f64::NAN];
        });
        assert!(e.contains("strictly increasing"), "{e}");
        let mut spec = ScenarioSpec::new("x");
        spec.axis = Axis::SpeedKmh;
        spec.speed_grid_kmh = vec![-5.0, 10.0];
        let e = spec.expand(budget()).unwrap_err().to_string();
        assert!(e.contains("\"kmh\" must be finite and non-negative"), "{e}");
    }

    #[test]
    fn invalid_speed_profiles_are_rejected() {
        // The speed rules belong to `SimConfig::validate`: the spec's shape
        // is fine, its expanded points are not.
        for (speed, needle) in [
            (SpeedProfile::Fixed(-5.0), "kmh"),
            (SpeedProfile::Fixed(f64::NAN), "kmh"),
            (
                SpeedProfile::Uniform {
                    min_kmh: 80.0,
                    max_kmh: 20.0,
                },
                "reversed",
            ),
            (
                SpeedProfile::Bimodal {
                    slow_kmh: 3.0,
                    fast_kmh: 80.0,
                    fraction_fast: 1.5,
                },
                "fraction_fast",
            ),
        ] {
            let mut spec = ScenarioSpec::new("x");
            spec.speed = speed;
            assert_eq!(spec.validate(), Ok(()));
            let e = spec.expand(budget()).unwrap_err().to_string();
            assert!(e.contains(needle), "{speed:?}: {e}");
            // A speed axis ignores the profile, which is still encoded.
            spec.axis = Axis::SpeedKmh;
            spec.speed_grid_kmh = vec![10.0];
            let e = spec.validate().unwrap_err().to_string();
            assert!(e.contains(needle), "{speed:?}: {e}");
        }
    }

    #[test]
    fn expand_names_the_scenario_and_point_a_config_rule_rejects() {
        // The ramp keeps 40 voice users active, more than the first point
        // has: the spec's shape is fine, its first point is not.
        let mut spec = ScenarioSpec::new("ramped");
        spec.protocols = vec![ProtocolKind::Charisma];
        spec.voice_users = vec![20, 60];
        spec.ramp = Some(RampSpec {
            initial_voice: 40,
            at_measured_fraction: 0.5,
        });
        assert_eq!(spec.validate(), Ok(()));
        let e = spec.expand(budget()).unwrap_err().to_string();
        assert!(
            e.contains("ramped: point 0 (CHARISMA, request queue false, 20 voice + 0 data"),
            "{e}"
        );
        assert!(e.contains("initial_voice (40)"), "{e}");
        // A zero-length measurement window.
        spec.ramp = None;
        spec.duration = DurationSpec::Frames {
            warmup: 10,
            measured: 0,
        };
        let e = spec.expand(budget()).unwrap_err().to_string();
        assert!(e.contains("measured_frames"), "{e}");
    }

    #[test]
    fn expansion_covers_the_grid_and_skips_rmav_queue_points() {
        let mut spec = ScenarioSpec::new("grid");
        spec.axis = Axis::VoiceUsers;
        spec.voice_users = vec![10, 20];
        spec.data_users = vec![0, 10];
        spec.request_queue = QueueToggle::Both;
        let budget = FrameBudget {
            warmup: 100,
            measured: 1_000,
        };
        let points = spec.expand(budget).unwrap();
        // 6 protocols off-queue + 5 on-queue (RMAV skipped), x 2 Nd x 2 Nv.
        assert_eq!(points.len(), (6 + 5) * 2 * 2);
        assert!(points
            .iter()
            .all(|p| !(p.point.protocol == ProtocolKind::Rmav && p.point.config.request_queue)));
        assert!(points.iter().all(|p| p.scenario == "grid"));
        assert!(points
            .iter()
            .all(|p| p.point.config.measured_frames == 1_000));
        // Loads follow the voice axis.
        assert!(points
            .iter()
            .all(|p| p.point.load == p.point.config.num_voice as f64));
    }

    #[test]
    fn data_axis_holds_the_voice_count_and_follows_the_data_grid() {
        let mut spec = ScenarioSpec::new("data");
        spec.protocols = vec![ProtocolKind::Drma];
        spec.axis = Axis::DataUsers;
        spec.voice_users = vec![7];
        spec.data_users = vec![1, 2, 3];
        let points = spec.expand(budget()).unwrap();
        assert!(points.iter().all(|p| p.point.config.num_voice == 7));
        assert_eq!(
            points.iter().map(|p| p.point.load).collect::<Vec<_>>(),
            vec![1.0, 2.0, 3.0]
        );
        assert!(points
            .iter()
            .all(|p| p.point.load == p.point.config.num_data as f64));
    }

    #[test]
    fn speed_axis_overrides_the_profile() {
        let mut spec = ScenarioSpec::new("speeds");
        spec.protocols = vec![ProtocolKind::Charisma];
        spec.axis = Axis::SpeedKmh;
        spec.voice_users = vec![50];
        spec.speed_grid_kmh = vec![10.0, 50.0, 80.0];
        let points = spec.expand(budget()).unwrap();
        assert_eq!(points.len(), 3);
        for (p, v) in points.iter().zip([10.0, 50.0, 80.0]) {
            assert_eq!(p.point.config.speed, SpeedProfile::Fixed(v));
            assert_eq!(p.point.load, v);
            assert_eq!(p.speed_kmh, v);
        }
    }

    #[test]
    fn ramp_resolves_relative_to_the_measured_window() {
        let mut spec = ScenarioSpec::new("ramp");
        spec.protocols = vec![ProtocolKind::Charisma];
        spec.voice_users = vec![120];
        spec.ramp = Some(RampSpec {
            initial_voice: 40,
            at_measured_fraction: 0.5,
        });
        let points = spec
            .expand(FrameBudget {
                warmup: 1_000,
                measured: 10_000,
            })
            .unwrap();
        assert_eq!(points.len(), 1);
        let ramp = points[0].point.config.ramp.expect("ramp configured");
        assert_eq!(ramp.initial_voice, 40);
        assert_eq!(ramp.activation_frame, 1_000 + 5_000);
    }

    #[test]
    fn expanded_configs_pass_sim_config_validation() {
        for p in full_spec().expand(budget()).unwrap() {
            p.point.config.validate().unwrap();
        }
    }

    #[test]
    fn replications_json_round_trips_and_rejects_bad_policies() {
        // The `replications` field of the encoded text, read back through
        // the JSON parser.
        let encoded = |replications| {
            let mut spec = ScenarioSpec::new("x");
            spec.replications = replications;
            let json = Json::parse(&spec.to_json_string()).unwrap();
            json.get("replications").unwrap().to_compact_string()
        };
        // Default: the profile policy, encoded as the string "profile".
        assert_eq!(encoded(RepsSpec::Profile), r#""profile""#);
        // Fixed policy without a stopping rule, then an adaptive one.
        let fixed = RepsSpec::Policy(ReplicationPolicy::fixed(5));
        assert_eq!(encoded(fixed), r#"{"min":5,"max":5}"#);
        let adaptive = ReplicationPolicy::adaptive(3, 10, 0.1);
        assert_eq!(
            encoded(RepsSpec::Policy(adaptive)),
            r#"{"min":3,"max":10,"target_rel_ci95":0.1}"#
        );

        // Expanded points carry the override; profile specs carry None.
        let mut spec = ScenarioSpec::new("adaptive");
        spec.replications = RepsSpec::Policy(adaptive);
        let points = spec.expand(budget()).unwrap();
        assert!(points.iter().all(|p| p.reps == Some(adaptive)));
        let points = ScenarioSpec::new("d").expand(budget()).unwrap();
        assert!(points.iter().all(|p| p.reps.is_none()));

        // Rejections: zero reps, max < min, bad target.
        for bad in [
            ReplicationPolicy::fixed(0),
            ReplicationPolicy::adaptive(5, 2, 0.1),
            ReplicationPolicy::adaptive(2, 4, -1.0),
        ] {
            let mut spec = ScenarioSpec::new("x");
            spec.replications = RepsSpec::Policy(bad);
            assert!(spec.validate().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn multicell_fields_round_trip_and_expand_into_a_system_config() {
        let mut spec = ScenarioSpec::new("multicell");
        spec.protocols = vec![ProtocolKind::Charisma];
        spec.voice_users = vec![10, 20];
        spec.data_users = vec![5];
        spec.cells = 7;
        spec.layout = Layout::Hex {
            cell_radius_m: 250.0,
        };
        spec.handoff = HandoffConfig {
            admission: HandoffAdmission::DropOnFull,
            cell_capacity: 30,
            retry_frames: 20,
            hysteresis_m: 10.0,
        };
        let text = spec.to_json_string();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed.to_string(), text);
        assert_eq!(parsed.get("cells"), Some(&Json::Int(7)));
        assert_eq!(
            parsed.get("handoff").unwrap().to_compact_string(),
            r#"{"admission":"drop_on_full","cell_capacity":30,"retry_frames":20,"hysteresis_m":10.0}"#
        );

        for p in &spec.expand(budget()).unwrap() {
            let system = p.point.config.system.unwrap();
            assert_eq!(system.cells, 7);
            assert_eq!(system.layout.cell_radius_m(), 250.0);
            assert_eq!(system.handoff.admission, HandoffAdmission::DropOnFull);
        }
    }

    #[test]
    fn single_cell_specs_serialise_without_the_multicell_keys() {
        let spec = ScenarioSpec::new("single");
        let text = spec.to_json_string();
        assert!(!text.contains("\"cells\""), "{text}");
        assert!(!text.contains("\"layout\""), "{text}");
        assert!(!text.contains("\"handoff\""), "{text}");
        // Expanded points stay on the historical single-cell path.
        let points = spec.expand(budget()).unwrap();
        assert!(points.iter().all(|p| p.point.config.system.is_none()));
    }

    #[test]
    fn multicell_spec_rejections() {
        // Spec shape: no cells, or multi-cell settings on a single cell
        // (the encoder would leave them out of the manifest and the hash).
        let mut none = ScenarioSpec::new("none");
        none.cells = 0;
        let e = none.validate().unwrap_err();
        assert!(e.to_string().contains("at least one cell"), "{e}");
        for mutate in [
            (|s: &mut ScenarioSpec| {
                s.layout = Layout::Line {
                    cell_radius_m: 100.0,
                }
            }) as fn(&mut ScenarioSpec),
            |s| s.handoff.admission = HandoffAdmission::DropOnFull,
            |s| s.handoff.cell_capacity = 60,
            |s| s.system_threads = 2,
        ] {
            let mut single = ScenarioSpec::new("single-custom");
            mutate(&mut single);
            let e = single.validate().unwrap_err();
            assert!(e.to_string().contains("cells > 1"), "{e}");
        }
        // Configuration rules, applied to every expanded point.
        for (mutate, needle) in [
            (
                (|s: &mut ScenarioSpec| s.handoff.cell_capacity = 20) as fn(&mut ScenarioSpec),
                "cell_capacity (20) is below the initial per-cell population (40)",
            ),
            (
                |s| s.layout = Layout::Hex { cell_radius_m: 0.0 },
                "cell radius",
            ),
            (|s| s.handoff.retry_frames = 0, "retry_frames"),
            (|s| s.handoff.hysteresis_m = f64::NAN, "hysteresis"),
        ] {
            let mut spec = ScenarioSpec::new("cap");
            spec.voice_users = vec![10, 40];
            spec.cells = 3;
            mutate(&mut spec);
            assert_eq!(spec.validate(), Ok(()));
            let e = spec.expand(budget()).unwrap_err();
            assert!(e.to_string().contains("cap: point"), "{e}");
            assert!(e.to_string().contains(needle), "{e}");
        }
    }

    #[test]
    fn queue_on_with_only_rmav_is_rejected() {
        let mut spec = ScenarioSpec::new("rmav-queue");
        spec.protocols = vec![ProtocolKind::Rmav];
        spec.request_queue = QueueToggle::On;
        assert!(spec.validate().is_err());
    }
}
