//! Declarative scenario specifications.
//!
//! A [`ScenarioSpec`] is a *named bundle of overrides* on
//! [`SimConfig`]: which protocols to run, the
//! voice/data user grids, the speed profile, the channel mode, the run
//! length, the seed.  Specs are pure data — they serialise to JSON (strictly:
//! unknown keys and malformed grids are rejected, see [`ScenarioSpec::from_json`])
//! and expand into the [`SweepPoint`]s that the
//! existing deterministic parallel sweep executor runs.  Every experiment of
//! the paper's evaluation, plus scenarios the paper never plotted, is
//! expressed this way in the benchmark registry (`charisma_bench::registry`)
//! instead of as a hand-rolled loop in its own binary.
//!
//! ```
//! use charisma::spec::{Axis, FrameBudget, ScenarioSpec};
//!
//! let mut spec = ScenarioSpec::new("example");
//! spec.axis = Axis::VoiceUsers;
//! spec.voice_users = vec![10, 20];
//! spec.data_users = vec![0, 5];
//!
//! // The spec round-trips through JSON byte-for-byte…
//! let json = spec.to_json_string();
//! assert_eq!(ScenarioSpec::from_json_str(&json).unwrap(), spec);
//!
//! // …and expands into one sweep point per (protocol, grid) combination.
//! let points = spec
//!     .expand(FrameBudget { warmup: 100, measured: 1_000 })
//!     .unwrap();
//! assert_eq!(points.len(), 6 * 2 * 2); // 6 protocols x 2 Nd x 2 Nv
//! ```

use crate::config::{HandoffAdmission, HandoffConfig, Layout, LoadRamp, SimConfig, SystemConfig};
use crate::json::Json;
use crate::protocols::ProtocolKind;
use crate::sweep::{ReplicationPolicy, SweepPoint};
use charisma_radio::{ChannelMode, PathLossConfig, SpeedProfile};
use serde::{Deserialize, Serialize};
use std::fmt;

/// An invalid scenario specification (bad grid, unknown key, malformed JSON).
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

    /// Parses the JSON encoding.
    pub fn from_str_strict(s: &str) -> Result<Self, SpecError> {
        match s {
            "voice_users" => Ok(Axis::VoiceUsers),
            "data_users" => Ok(Axis::DataUsers),
            "speed_kmh" => Ok(Axis::SpeedKmh),
            "single" => Ok(Axis::Single),
            other => Err(err(format!(
                "unknown axis \"{other}\" (valid: voice_users, data_users, speed_kmh, single)"
            ))),
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

    /// Parses the JSON encoding.
    pub fn from_str_strict(s: &str) -> Result<Self, SpecError> {
        match s {
            "off" => Ok(QueueToggle::Off),
            "on" => Ok(QueueToggle::On),
            "both" => Ok(QueueToggle::Both),
            other => Err(err(format!(
                "unknown request_queue \"{other}\" (valid: off, on, both)"
            ))),
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

    /// Validates the spec without expanding it.
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
        check_grid_u32(&self.name, "voice_users", &self.voice_users)?;
        check_grid_u32(&self.name, "data_users", &self.data_users)?;
        check_speed_profile(&self.name, &self.speed)?;
        if self.axis == Axis::SpeedKmh {
            check_grid_f64(&self.name, "speed_grid_kmh", &self.speed_grid_kmh)?;
        } else if !self.speed_grid_kmh.is_empty() {
            return Err(err(format!(
                "{}: speed_grid_kmh is only valid with axis \"speed_kmh\"",
                self.name
            )));
        }
        let min_voice = *self.voice_users.first().expect("non-empty grid");
        let min_data = *self.data_users.first().expect("non-empty grid");
        if min_voice == 0 && min_data == 0 {
            return Err(err(format!(
                "{}: the (voice_users, data_users) grids include the empty cell (0, 0)",
                self.name
            )));
        }
        if let DurationSpec::Frames { measured, .. } = self.duration {
            if measured == 0 {
                return Err(err(format!(
                    "{}: measured frames must be positive",
                    self.name
                )));
            }
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
            // The serialiser omits layout/handoff/system_threads for
            // single-cell specs, so a non-default value here would be dropped
            // silently on round-trip; refuse it instead (it has no effect on
            // a single-cell run).
            return Err(err(format!(
                "{}: layout/handoff/system_threads settings are only meaningful with cells > 1",
                self.name
            )));
        }
        if self.cells > 1 {
            let radius = self.layout.cell_radius_m();
            if !(radius.is_finite() && radius > 0.0) {
                return Err(err(format!(
                    "{}: cell radius must be positive and finite, got {radius}",
                    self.name
                )));
            }
            if self.handoff.retry_frames == 0 {
                return Err(err(format!(
                    "{}: handoff retry_frames must be positive",
                    self.name
                )));
            }
            if !(self.handoff.hysteresis_m.is_finite() && self.handoff.hysteresis_m >= 0.0) {
                return Err(err(format!(
                    "{}: handoff hysteresis must be finite and non-negative, got {}",
                    self.name, self.handoff.hysteresis_m
                )));
            }
            if self.handoff.cell_capacity != 0 {
                // Every expanded point starts each cell at (Nv + Nd)
                // terminals, so a finite capacity must cover the largest
                // grid cell.
                let largest = self.voice_users.last().copied().unwrap_or(0)
                    + self.data_users.last().copied().unwrap_or(0);
                if self.handoff.cell_capacity < largest {
                    return Err(err(format!(
                        "{}: handoff cell_capacity ({}) is below the largest initial \
                         per-cell population ({largest})",
                        self.name, self.handoff.cell_capacity
                    )));
                }
            }
        }
        if let Some(ramp) = &self.ramp {
            if !(0.0..1.0).contains(&ramp.at_measured_fraction) {
                return Err(err(format!(
                    "{}: ramp at_measured_fraction must be in [0, 1), got {}",
                    self.name, ramp.at_measured_fraction
                )));
            }
            if ramp.initial_voice > min_voice {
                return Err(err(format!(
                    "{}: ramp initial_voice ({}) exceeds the smallest voice population ({})",
                    self.name, ramp.initial_voice, min_voice
                )));
            }
        }
        Ok(())
    }

    /// Expands the spec into executable sweep points, in a deterministic
    /// order: protocols (as listed) x queue variants x non-axis grid x axis
    /// grid.  Protocols that cannot use a request queue are skipped for the
    /// queue-on variant, mirroring the paper's figures.
    pub fn expand(&self, budget: FrameBudget) -> Result<Vec<CampaignPoint>, SpecError> {
        self.validate()?;
        let (warmup, measured) = match self.duration {
            DurationSpec::Profile => (budget.warmup, budget.measured),
            DurationSpec::Frames { warmup, measured } => (warmup, measured),
        };
        let mut out = Vec::new();
        for &protocol in &self.protocols {
            for &queue in self.request_queue.variants() {
                if queue && !protocol.supports_request_queue() {
                    continue;
                }
                match self.axis {
                    Axis::VoiceUsers => {
                        for &nd in &self.data_users {
                            for &nv in &self.voice_users {
                                out.push(self.point(
                                    protocol, queue, nv, nd, None, nv as f64, warmup, measured,
                                ));
                            }
                        }
                    }
                    Axis::DataUsers => {
                        for &nv in &self.voice_users {
                            for &nd in &self.data_users {
                                out.push(self.point(
                                    protocol, queue, nv, nd, None, nd as f64, warmup, measured,
                                ));
                            }
                        }
                    }
                    Axis::SpeedKmh => {
                        for &nv in &self.voice_users {
                            for &nd in &self.data_users {
                                for &v in &self.speed_grid_kmh {
                                    out.push(self.point(
                                        protocol,
                                        queue,
                                        nv,
                                        nd,
                                        Some(v),
                                        v,
                                        warmup,
                                        measured,
                                    ));
                                }
                            }
                        }
                    }
                    Axis::Single => {
                        for &nv in &self.voice_users {
                            for &nd in &self.data_users {
                                out.push(self.point(
                                    protocol, queue, nv, nd, None, nv as f64, warmup, measured,
                                ));
                            }
                        }
                    }
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

    /// Decodes a spec from a JSON object, rejecting unknown keys; missing
    /// optional fields take the [`ScenarioSpec::new`] defaults.  The decoded
    /// spec is validated before it is returned.
    pub fn from_json(value: &Json) -> Result<Self, SpecError> {
        let pairs = value
            .as_object()
            .ok_or_else(|| err(format!("spec must be an object, got {}", value.type_name())))?;
        let name = value
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| err("spec is missing the required string field \"name\""))?;
        let mut spec = ScenarioSpec::new(name);
        let mut saw_layout = false;
        let mut saw_handoff = false;
        for (key, v) in pairs {
            match key.as_str() {
                "name" => {}
                "protocols" => {
                    let items = v
                        .as_array()
                        .ok_or_else(|| err("\"protocols\" must be an array of labels"))?;
                    spec.protocols = items
                        .iter()
                        .map(|item| {
                            let label = item
                                .as_str()
                                .ok_or_else(|| err("\"protocols\" entries must be strings"))?;
                            ProtocolKind::from_label(label).ok_or_else(|| {
                                err(format!(
                                    "unknown protocol \"{label}\" (valid: {})",
                                    ProtocolKind::ALL.map(|p| p.label()).join(", ")
                                ))
                            })
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                }
                "axis" => {
                    spec.axis = Axis::from_str_strict(
                        v.as_str().ok_or_else(|| err("\"axis\" must be a string"))?,
                    )?;
                }
                "voice_users" => spec.voice_users = json_to_u32_grid(v, "voice_users")?,
                "data_users" => spec.data_users = json_to_u32_grid(v, "data_users")?,
                "speed" => spec.speed = speed_from_json(v)?,
                "speed_grid_kmh" => spec.speed_grid_kmh = json_to_f64_grid(v, "speed_grid_kmh")?,
                "channel_mode" => {
                    spec.channel_mode = channel_mode_from_str(
                        v.as_str()
                            .ok_or_else(|| err("\"channel_mode\" must be a string"))?,
                    )?;
                }
                "duration" => spec.duration = duration_from_json(v)?,
                "replications" => spec.replications = replications_from_json(v)?,
                "request_queue" => {
                    spec.request_queue = QueueToggle::from_str_strict(
                        v.as_str()
                            .ok_or_else(|| err("\"request_queue\" must be a string"))?,
                    )?;
                }
                "seed" => {
                    spec.seed = Some(
                        v.as_u64()
                            .ok_or_else(|| err("\"seed\" must be an unsigned integer"))?,
                    );
                }
                "csi_aware" => {
                    spec.csi_aware = v
                        .as_bool()
                        .ok_or_else(|| err("\"csi_aware\" must be a boolean"))?;
                }
                "ramp" => spec.ramp = Some(ramp_from_json(v)?),
                "cells" => {
                    spec.cells = v
                        .as_u64()
                        .and_then(|n| u32::try_from(n).ok())
                        .ok_or_else(|| err("\"cells\" must be an unsigned 32-bit integer"))?;
                }
                "layout" => {
                    spec.layout = layout_from_json(v)?;
                    saw_layout = true;
                }
                "handoff" => {
                    spec.handoff = handoff_from_json(v)?;
                    saw_handoff = true;
                }
                "system_threads" => {
                    spec.system_threads = v
                        .as_u64()
                        .and_then(|n| u32::try_from(n).ok())
                        .ok_or_else(|| {
                            err("\"system_threads\" must be an unsigned 32-bit integer")
                        })?;
                }
                unknown => {
                    return Err(err(format!(
                        "unknown key \"{unknown}\" in scenario spec \"{name}\""
                    )));
                }
            }
        }
        if spec.cells <= 1 && (saw_layout || saw_handoff) {
            return Err(err(format!(
                "{}: \"layout\"/\"handoff\" are only valid with \"cells\" > 1",
                spec.name
            )));
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Decodes a spec from JSON text (see [`ScenarioSpec::from_json`]).
    pub fn from_json_str(text: &str) -> Result<Self, SpecError> {
        let value = Json::parse(text).map_err(|e| err(e.to_string()))?;
        Self::from_json(&value)
    }
}

/// Rejects speed profiles with non-finite or negative values up front (the
/// radio layer's own assertions would otherwise only fire mid-run, and a NaN
/// would serialise as invalid JSON in the manifest).
fn check_speed_profile(name: &str, speed: &SpeedProfile) -> Result<(), SpecError> {
    let finite_nonneg = |field: &str, v: f64| -> Result<(), SpecError> {
        if v.is_finite() && v >= 0.0 {
            Ok(())
        } else {
            Err(err(format!(
                "{name}: speed profile field \"{field}\" must be finite and non-negative, got {v}"
            )))
        }
    };
    match *speed {
        SpeedProfile::Fixed(kmh) => finite_nonneg("kmh", kmh),
        SpeedProfile::Uniform { min_kmh, max_kmh } => {
            finite_nonneg("min_kmh", min_kmh)?;
            finite_nonneg("max_kmh", max_kmh)?;
            if min_kmh > max_kmh {
                return Err(err(format!(
                    "{name}: speed range [{min_kmh}, {max_kmh}] is reversed"
                )));
            }
            Ok(())
        }
        SpeedProfile::Bimodal {
            slow_kmh,
            fast_kmh,
            fraction_fast,
        } => {
            finite_nonneg("slow_kmh", slow_kmh)?;
            finite_nonneg("fast_kmh", fast_kmh)?;
            if !(0.0..=1.0).contains(&fraction_fast) {
                return Err(err(format!(
                    "{name}: fraction_fast must be a probability, got {fraction_fast}"
                )));
            }
            Ok(())
        }
    }
}

fn check_grid_u32(name: &str, field: &str, grid: &[u32]) -> Result<(), SpecError> {
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

fn check_grid_f64(name: &str, field: &str, grid: &[f64]) -> Result<(), SpecError> {
    if grid.is_empty() {
        return Err(err(format!("{name}: grid \"{field}\" must not be empty")));
    }
    if grid.iter().any(|v| !v.is_finite() || *v < 0.0) {
        return Err(err(format!(
            "{name}: grid \"{field}\" must hold finite non-negative values, got {grid:?}"
        )));
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

fn json_to_u32_grid(v: &Json, field: &str) -> Result<Vec<u32>, SpecError> {
    let items = v
        .as_array()
        .ok_or_else(|| err(format!("\"{field}\" must be an array of integers")))?;
    items
        .iter()
        .map(|item| {
            item.as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| {
                    err(format!(
                        "\"{field}\" entries must be unsigned 32-bit integers"
                    ))
                })
        })
        .collect()
}

fn json_to_f64_grid(v: &Json, field: &str) -> Result<Vec<f64>, SpecError> {
    let items = v
        .as_array()
        .ok_or_else(|| err(format!("\"{field}\" must be an array of numbers")))?;
    items
        .iter()
        .map(|item| {
            item.as_f64()
                .ok_or_else(|| err(format!("\"{field}\" entries must be numbers")))
        })
        .collect()
}

/// The JSON encoding of a [`ChannelMode`].
fn channel_mode_str(mode: ChannelMode) -> &'static str {
    match mode {
        ChannelMode::Lazy => "lazy",
        ChannelMode::Eager => "eager",
    }
}

fn channel_mode_from_str(s: &str) -> Result<ChannelMode, SpecError> {
    match s {
        "lazy" => Ok(ChannelMode::Lazy),
        "eager" => Ok(ChannelMode::Eager),
        other => Err(err(format!(
            "unknown channel_mode \"{other}\" (valid: lazy, eager)"
        ))),
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

fn speed_from_json(v: &Json) -> Result<SpeedProfile, SpecError> {
    let pairs = v
        .as_object()
        .ok_or_else(|| err("\"speed\" must be an object with a \"kind\" field"))?;
    let kind = v
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| err("\"speed\" is missing the string field \"kind\""))?;
    let allowed: &[&str] = match kind {
        "fixed" => &["kind", "kmh"],
        "uniform" => &["kind", "min_kmh", "max_kmh"],
        "bimodal" => &["kind", "slow_kmh", "fast_kmh", "fraction_fast"],
        other => {
            return Err(err(format!(
                "unknown speed kind \"{other}\" (valid: fixed, uniform, bimodal)"
            )));
        }
    };
    for (key, _) in pairs {
        if !allowed.contains(&key.as_str()) {
            return Err(err(format!(
                "unknown key \"{key}\" in \"{kind}\" speed profile"
            )));
        }
    }
    let num = |field: &str| -> Result<f64, SpecError> {
        v.get(field).and_then(Json::as_f64).ok_or_else(|| {
            err(format!(
                "\"{kind}\" speed profile needs the number \"{field}\""
            ))
        })
    };
    match kind {
        "fixed" => Ok(SpeedProfile::Fixed(num("kmh")?)),
        "uniform" => Ok(SpeedProfile::Uniform {
            min_kmh: num("min_kmh")?,
            max_kmh: num("max_kmh")?,
        }),
        _ => Ok(SpeedProfile::Bimodal {
            slow_kmh: num("slow_kmh")?,
            fast_kmh: num("fast_kmh")?,
            fraction_fast: num("fraction_fast")?,
        }),
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

fn duration_from_json(v: &Json) -> Result<DurationSpec, SpecError> {
    match v {
        Json::Str(s) if s == "profile" => Ok(DurationSpec::Profile),
        Json::Str(s) => Err(err(format!(
            "unknown duration \"{s}\" (valid: \"profile\" or {{warmup_frames, measured_frames}})"
        ))),
        Json::Object(pairs) => {
            for (key, _) in pairs {
                if key != "warmup_frames" && key != "measured_frames" {
                    return Err(err(format!("unknown key \"{key}\" in \"duration\"")));
                }
            }
            let field = |name: &str| {
                v.get(name).and_then(Json::as_u64).ok_or_else(|| {
                    err(format!(
                        "\"duration\" needs the unsigned integer \"{name}\""
                    ))
                })
            };
            Ok(DurationSpec::Frames {
                warmup: field("warmup_frames")?,
                measured: field("measured_frames")?,
            })
        }
        other => Err(err(format!(
            "\"duration\" must be \"profile\" or an object, got {}",
            other.type_name()
        ))),
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

fn replications_from_json(v: &Json) -> Result<RepsSpec, SpecError> {
    match v {
        Json::Str(s) if s == "profile" => Ok(RepsSpec::Profile),
        Json::Str(s) => Err(err(format!(
            "unknown replications \"{s}\" (valid: \"profile\" or {{min, max, target_rel_ci95?}})"
        ))),
        Json::Object(pairs) => {
            for (key, _) in pairs {
                if key != "min" && key != "max" && key != "target_rel_ci95" {
                    return Err(err(format!("unknown key \"{key}\" in \"replications\"")));
                }
            }
            let int_field = |name: &str| {
                v.get(name)
                    .and_then(Json::as_u64)
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or_else(|| {
                        err(format!(
                            "\"replications\" needs the unsigned integer \"{name}\""
                        ))
                    })
            };
            let target_rel_ci95 = match v.get("target_rel_ci95") {
                None => None,
                Some(t) => Some(t.as_f64().ok_or_else(|| {
                    err("\"replications\" field \"target_rel_ci95\" must be a number")
                })?),
            };
            Ok(RepsSpec::Policy(ReplicationPolicy {
                min_reps: int_field("min")?,
                max_reps: int_field("max")?,
                target_rel_ci95,
            }))
        }
        other => Err(err(format!(
            "\"replications\" must be \"profile\" or an object, got {}",
            other.type_name()
        ))),
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

fn layout_from_json(v: &Json) -> Result<Layout, SpecError> {
    let pairs = v
        .as_object()
        .ok_or_else(|| err("\"layout\" must be an object with a \"kind\" field"))?;
    for (key, _) in pairs {
        if key != "kind" && key != "cell_radius_m" {
            return Err(err(format!("unknown key \"{key}\" in \"layout\"")));
        }
    }
    let kind = v
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| err("\"layout\" is missing the string field \"kind\""))?;
    let cell_radius_m = v
        .get("cell_radius_m")
        .and_then(Json::as_f64)
        .ok_or_else(|| err("\"layout\" needs the number \"cell_radius_m\""))?;
    match kind {
        "hex" => Ok(Layout::Hex { cell_radius_m }),
        "line" => Ok(Layout::Line { cell_radius_m }),
        other => Err(err(format!(
            "unknown layout kind \"{other}\" (valid: hex, line)"
        ))),
    }
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

fn handoff_from_json(v: &Json) -> Result<HandoffConfig, SpecError> {
    let pairs = v
        .as_object()
        .ok_or_else(|| err("\"handoff\" must be an object"))?;
    let mut handoff = HandoffConfig::default();
    for (key, value) in pairs {
        match key.as_str() {
            "admission" => {
                let s = value
                    .as_str()
                    .ok_or_else(|| err("\"handoff\" field \"admission\" must be a string"))?;
                handoff.admission = match s {
                    "drop_on_full" => HandoffAdmission::DropOnFull,
                    "queue" => HandoffAdmission::Queue,
                    other => {
                        return Err(err(format!(
                            "unknown handoff admission \"{other}\" (valid: drop_on_full, queue)"
                        )));
                    }
                };
            }
            "cell_capacity" => {
                handoff.cell_capacity = value
                    .as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or_else(|| {
                        err("\"handoff\" field \"cell_capacity\" must be an unsigned integer")
                    })?;
            }
            "retry_frames" => {
                handoff.retry_frames = value.as_u64().ok_or_else(|| {
                    err("\"handoff\" field \"retry_frames\" must be an unsigned integer")
                })?;
            }
            "hysteresis_m" => {
                handoff.hysteresis_m = value
                    .as_f64()
                    .ok_or_else(|| err("\"handoff\" field \"hysteresis_m\" must be a number"))?;
            }
            unknown => return Err(err(format!("unknown key \"{unknown}\" in \"handoff\""))),
        }
    }
    Ok(handoff)
}

fn ramp_from_json(v: &Json) -> Result<RampSpec, SpecError> {
    let pairs = v
        .as_object()
        .ok_or_else(|| err("\"ramp\" must be an object"))?;
    for (key, _) in pairs {
        if key != "initial_voice" && key != "at_measured_fraction" {
            return Err(err(format!("unknown key \"{key}\" in \"ramp\"")));
        }
    }
    let initial_voice = v
        .get("initial_voice")
        .and_then(Json::as_u64)
        .and_then(|n| u32::try_from(n).ok())
        .ok_or_else(|| err("\"ramp\" needs the unsigned integer \"initial_voice\""))?;
    let at_measured_fraction = v
        .get("at_measured_fraction")
        .and_then(Json::as_f64)
        .ok_or_else(|| err("\"ramp\" needs the number \"at_measured_fraction\""))?;
    Ok(RampSpec {
        initial_voice,
        at_measured_fraction,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_spec() -> ScenarioSpec {
        let mut spec = ScenarioSpec::new("round-trip");
        spec.protocols = vec![ProtocolKind::Charisma, ProtocolKind::DTdmaVr];
        spec.axis = Axis::VoiceUsers;
        spec.voice_users = vec![20, 60, 100];
        spec.data_users = vec![0, 10];
        spec.speed = SpeedProfile::Bimodal {
            slow_kmh: 3.0,
            fast_kmh: 80.0,
            fraction_fast: 0.5,
        };
        spec.channel_mode = ChannelMode::Eager;
        spec.duration = DurationSpec::Frames {
            warmup: 500,
            measured: 5_000,
        };
        spec.request_queue = QueueToggle::Both;
        spec.seed = Some(0xDEAD_BEEF_5EED_CAFE);
        spec.csi_aware = false;
        spec.ramp = Some(RampSpec {
            initial_voice: 10,
            at_measured_fraction: 0.5,
        });
        spec.replications = RepsSpec::Policy(ReplicationPolicy::adaptive(3, 8, 0.05));
        spec
    }

    #[test]
    fn json_round_trip_preserves_every_field() {
        let spec = full_spec();
        let text = spec.to_json_string();
        let back = ScenarioSpec::from_json_str(&text).unwrap();
        assert_eq!(back, spec);
        // Deterministic serialisation: encoding again yields identical bytes.
        assert_eq!(back.to_json_string(), text);
    }

    #[test]
    fn json_round_trip_preserves_defaults() {
        let spec = ScenarioSpec::new("defaults");
        let back = ScenarioSpec::from_json_str(&spec.to_json_string()).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.seed, None);
        assert_eq!(back.effective_seed(), SimConfig::default_paper().seed);
    }

    #[test]
    fn unknown_keys_are_rejected() {
        let text = r#"{"name": "x", "voice_userz": [10]}"#;
        let e = ScenarioSpec::from_json_str(text).unwrap_err();
        assert!(e.to_string().contains("voice_userz"), "{e}");

        let nested = r#"{"name": "x", "speed": {"kind": "fixed", "kmh": 50, "mph": 30}}"#;
        let e = ScenarioSpec::from_json_str(nested).unwrap_err();
        assert!(e.to_string().contains("mph"), "{e}");

        let ramp = r#"{"name": "x", "ramp": {"initial_voice": 5, "at": 0.5}}"#;
        assert!(ScenarioSpec::from_json_str(ramp).is_err());
    }

    #[test]
    fn invalid_grids_are_rejected() {
        // Empty grid.
        let e = ScenarioSpec::from_json_str(r#"{"name": "x", "voice_users": []}"#).unwrap_err();
        assert!(e.to_string().contains("must not be empty"), "{e}");
        // Not strictly increasing.
        let e = ScenarioSpec::from_json_str(r#"{"name": "x", "voice_users": [10, 10, 20]}"#)
            .unwrap_err();
        assert!(e.to_string().contains("strictly increasing"), "{e}");
        // The empty (0, 0) cell.
        let e = ScenarioSpec::from_json_str(
            r#"{"name": "x", "voice_users": [0, 10], "data_users": [0, 5]}"#,
        )
        .unwrap_err();
        assert!(e.to_string().contains("(0, 0)"), "{e}");
        // A speed grid without a speed axis.
        let e = ScenarioSpec::from_json_str(r#"{"name": "x", "speed_grid_kmh": [10, 50]}"#)
            .unwrap_err();
        assert!(e.to_string().contains("speed_kmh"), "{e}");
        // Negative / non-finite axis speeds.
        let mut spec = ScenarioSpec::new("x");
        spec.axis = Axis::SpeedKmh;
        spec.speed_grid_kmh = vec![-5.0, 10.0];
        assert!(spec.validate().is_err());
    }

    #[test]
    fn invalid_speed_profiles_are_rejected() {
        let fixed = r#"{"name": "x", "speed": {"kind": "fixed", "kmh": -5}}"#;
        let e = ScenarioSpec::from_json_str(fixed).unwrap_err();
        assert!(e.to_string().contains("kmh"), "{e}");
        let reversed =
            r#"{"name": "x", "speed": {"kind": "uniform", "min_kmh": 80, "max_kmh": 20}}"#;
        assert!(ScenarioSpec::from_json_str(reversed).is_err());
        let bad_fraction = r#"{"name": "x", "speed":
            {"kind": "bimodal", "slow_kmh": 3, "fast_kmh": 80, "fraction_fast": 1.5}}"#;
        assert!(ScenarioSpec::from_json_str(bad_fraction).is_err());
        let mut spec = ScenarioSpec::new("x");
        spec.speed = SpeedProfile::Fixed(f64::NAN);
        assert!(spec.validate().is_err());
    }

    #[test]
    fn unknown_protocols_and_enums_are_rejected() {
        assert!(ScenarioSpec::from_json_str(r#"{"name": "x", "protocols": ["FOO"]}"#).is_err());
        assert!(ScenarioSpec::from_json_str(r#"{"name": "x", "axis": "users"}"#).is_err());
        assert!(ScenarioSpec::from_json_str(r#"{"name": "x", "channel_mode": "warm"}"#).is_err());
        assert!(ScenarioSpec::from_json_str(r#"{"name": "x", "request_queue": "maybe"}"#).is_err());
        assert!(ScenarioSpec::from_json_str(r#"{"name": "x", "duration": "short"}"#).is_err());
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
    fn speed_axis_overrides_the_profile() {
        let mut spec = ScenarioSpec::new("speeds");
        spec.protocols = vec![ProtocolKind::Charisma];
        spec.axis = Axis::SpeedKmh;
        spec.voice_users = vec![50];
        spec.speed_grid_kmh = vec![10.0, 50.0, 80.0];
        let points = spec
            .expand(FrameBudget {
                warmup: 10,
                measured: 100,
            })
            .unwrap();
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
        let spec = full_spec();
        for p in spec
            .expand(FrameBudget {
                warmup: 100,
                measured: 1_000,
            })
            .unwrap()
        {
            p.point.config.validate();
        }
    }

    #[test]
    fn replications_json_round_trips_and_rejects_bad_policies() {
        // Default: the profile policy, encoded as the string "profile".
        let spec = ScenarioSpec::new("defaults");
        assert!(spec
            .to_json_string()
            .contains("\"replications\": \"profile\""));

        // Fixed policy without a stopping rule.
        let mut fixed = ScenarioSpec::new("fixed");
        fixed.replications = RepsSpec::Policy(ReplicationPolicy::fixed(5));
        let back = ScenarioSpec::from_json_str(&fixed.to_json_string()).unwrap();
        assert_eq!(back, fixed);

        // Adaptive policy round-trips through the full_spec fixture too
        // (json_round_trip_preserves_every_field), so only spot-check here.
        let adaptive = r#"{"name": "x", "replications": {"min": 3, "max": 10,
                           "target_rel_ci95": 0.1}}"#;
        let spec = ScenarioSpec::from_json_str(adaptive).unwrap();
        assert_eq!(
            spec.replications,
            RepsSpec::Policy(ReplicationPolicy::adaptive(3, 10, 0.1))
        );
        // Expanded points carry the override; profile specs carry None.
        let budget = FrameBudget {
            warmup: 10,
            measured: 100,
        };
        assert!(spec
            .expand(budget)
            .unwrap()
            .iter()
            .all(|p| p.reps == Some(ReplicationPolicy::adaptive(3, 10, 0.1))));
        assert!(ScenarioSpec::new("d")
            .expand(budget)
            .unwrap()
            .iter()
            .all(|p| p.reps.is_none()));

        // Rejections: unknown key, zero reps, max < min, bad target, bad kind.
        for bad in [
            r#"{"name": "x", "replications": {"min": 1, "max": 2, "reps": 3}}"#,
            r#"{"name": "x", "replications": {"min": 0, "max": 2}}"#,
            r#"{"name": "x", "replications": {"min": 5, "max": 2}}"#,
            r#"{"name": "x", "replications": {"min": 2, "max": 4, "target_rel_ci95": -1}}"#,
            r#"{"name": "x", "replications": "thrice"}"#,
            r#"{"name": "x", "replications": 3}"#,
        ] {
            assert!(ScenarioSpec::from_json_str(bad).is_err(), "{bad}");
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
        assert!(text.contains("\"cells\": 7"), "{text}");
        assert!(text.contains("drop_on_full"), "{text}");
        let back = ScenarioSpec::from_json_str(&text).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.to_json_string(), text);

        let points = spec
            .expand(FrameBudget {
                warmup: 10,
                measured: 100,
            })
            .unwrap();
        for p in &points {
            let system = p
                .point
                .config
                .system
                .expect("multi-cell points carry a system");
            assert_eq!(system.cells, 7);
            assert_eq!(system.layout.cell_radius_m(), 250.0);
            assert_eq!(system.handoff.admission, HandoffAdmission::DropOnFull);
            p.point.config.validate();
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
        let points = spec
            .expand(FrameBudget {
                warmup: 10,
                measured: 100,
            })
            .unwrap();
        assert!(points.iter().all(|p| p.point.config.system.is_none()));
    }

    #[test]
    fn multicell_spec_rejections() {
        // layout/handoff without cells > 1.
        for bad in [
            r#"{"name": "x", "layout": {"kind": "hex", "cell_radius_m": 100}}"#,
            r#"{"name": "x", "handoff": {"admission": "queue"}}"#,
            r#"{"name": "x", "cells": 1, "layout": {"kind": "hex", "cell_radius_m": 100}}"#,
        ] {
            let e = ScenarioSpec::from_json_str(bad).unwrap_err();
            assert!(e.to_string().contains("cells"), "{bad}: {e}");
        }
        // Zero cells, unknown layout kind / admission, unknown keys.
        assert!(ScenarioSpec::from_json_str(r#"{"name": "x", "cells": 0}"#).is_err());
        assert!(ScenarioSpec::from_json_str(
            r#"{"name": "x", "cells": 3, "layout": {"kind": "ring", "cell_radius_m": 100}}"#
        )
        .is_err());
        assert!(ScenarioSpec::from_json_str(
            r#"{"name": "x", "cells": 3, "handoff": {"admission": "refuse"}}"#
        )
        .is_err());
        assert!(ScenarioSpec::from_json_str(
            r#"{"name": "x", "cells": 3, "handoff": {"admision": "queue"}}"#
        )
        .is_err());
        assert!(ScenarioSpec::from_json_str(
            r#"{"name": "x", "cells": 3, "layout": {"kind": "hex", "radius": 100}}"#
        )
        .is_err());
        // Capacity below the largest grid population.
        let mut spec = ScenarioSpec::new("cap");
        spec.voice_users = vec![10, 40];
        spec.cells = 3;
        spec.handoff.cell_capacity = 20;
        let e = spec.validate().unwrap_err();
        assert!(e.to_string().contains("cell_capacity"), "{e}");
        // A programmatically built single-cell spec with non-default
        // layout/handoff must fail validation rather than silently dropping
        // the settings on serialisation.
        let mut single = ScenarioSpec::new("single-custom");
        single.handoff.cell_capacity = 60;
        let e = single.validate().unwrap_err();
        assert!(e.to_string().contains("cells > 1"), "{e}");
    }

    #[test]
    fn queue_on_with_only_rmav_is_rejected() {
        let mut spec = ScenarioSpec::new("rmav-queue");
        spec.protocols = vec![ProtocolKind::Rmav];
        spec.request_queue = QueueToggle::On;
        assert!(spec.validate().is_err());
    }
}
