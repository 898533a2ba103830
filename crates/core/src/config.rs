//! Scenario configuration (the reproduction's "Table 1").
//!
//! The paper's Table 1 is only partially legible in the available source
//! text, so the concrete values below are derived from constraints stated in
//! the prose: a 320 kHz TDMA carrier, 8 kbps speech packetised every 20 ms
//! with a 20 ms deadline, a 2.5 ms frame, a request subframe slightly larger
//! than the information subframe, and protocol capacities in the ranges the
//! figures report (≈ 60 voice users for D-TDMA/FR, ≈ 100 / 160 for CHARISMA
//! without / with a request queue at the 1 % loss threshold).  Every value is
//! printed by the `table1` benchmark binary and recorded in EXPERIMENTS.md.

use charisma_des::{FrameClock, SimDuration, SplitMix64};
use charisma_phy::{AdaptivePhyConfig, FixedPhyConfig};
use charisma_radio::{
    ChannelConfig, ChannelMode, CsiEstimatorConfig, PathLossConfig, SpeedProfile,
};
use charisma_traffic::{DataSourceConfig, VoiceSourceConfig};
use serde::{Deserialize, Serialize};

/// Static frame-structure parameters shared by the six protocols.
///
/// All counts refer to one 2.5 ms uplink frame.  Protocols that do not use a
/// dedicated request subframe (DRMA, RMAV) convert that bandwidth into extra
/// information slots, which is reflected in their per-protocol slot counts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FrameStructure {
    /// Frame duration (2.5 ms in the paper).
    pub frame_duration: SimDuration,
    /// Number of information slots `N_i` in the static-frame protocols
    /// (D-TDMA/FR, D-TDMA/VR, RAMA, CHARISMA).
    pub info_slots: u32,
    /// Scheduling granularity of the variable-throughput protocols: the
    /// announcement schedule can subdivide one information slot into at most
    /// this many sub-slots, so a voice packet never occupies less than
    /// `1/subslots_per_slot` of a slot even at the densest transmission mode.
    pub subslots_per_slot: u32,
    /// Number of request minislots `N_r` (D-TDMA/FR, D-TDMA/VR, CHARISMA).
    /// The paper requires `N_r` to be slightly larger than `N_i`.
    pub request_slots: u32,
    /// Number of pilot-symbol / CSI-polling slots `N_b` (CHARISMA only).
    pub pilot_slots: u32,
    /// Number of auction slots `N_a` per frame (RAMA only).
    pub rama_auction_slots: u32,
    /// Total information slots `N_k` per frame for DRMA (which has no fixed
    /// request subframe, hence more information slots than `N_i`).
    pub drma_info_slots: u32,
    /// Number of request minislots an unassigned DRMA information slot is
    /// converted into (`N_x`).
    pub drma_minislots: u32,
    /// Information slots per frame for RMAV (no fixed request subframe, one
    /// competitive minislot per frame).
    pub rmav_info_slots: u32,
    /// Maximum information slots a single data winner may claim in RMAV
    /// (`P_max`, 10 in the paper).
    pub rmav_max_data_slots: u32,
}

impl Default for FrameStructure {
    fn default() -> Self {
        FrameStructure {
            frame_duration: SimDuration::from_micros(2_500),
            info_slots: 4,
            subslots_per_slot: 3,
            request_slots: 5,
            pilot_slots: 8,
            rama_auction_slots: 5,
            drma_info_slots: 5,
            drma_minislots: 3,
            rmav_info_slots: 5,
            rmav_max_data_slots: 10,
        }
    }
}

impl FrameStructure {
    /// The frame clock corresponding to this structure.
    pub fn clock(&self) -> FrameClock {
        FrameClock::new(self.frame_duration)
    }

    /// The smallest fraction of an information slot the announcement schedule
    /// can allocate (a voice packet never costs less airtime than this).
    pub fn min_allocation(&self) -> f64 {
        1.0 / self.subslots_per_slot as f64
    }

    /// Validates internal consistency; called by [`SimConfig::validate`].
    pub fn validate(&self) {
        assert!(
            self.info_slots > 0,
            "at least one information slot is required"
        );
        assert!(
            self.subslots_per_slot > 0,
            "at least one sub-slot per slot is required"
        );
        assert!(
            self.request_slots > 0,
            "at least one request slot is required"
        );
        assert!(
            self.request_slots >= self.info_slots,
            "the paper requires N_r (request slots) >= N_i (information slots)"
        );
        assert!(
            self.rama_auction_slots > 0,
            "RAMA needs at least one auction slot"
        );
        assert!(
            self.drma_info_slots > 0 && self.drma_minislots > 0,
            "DRMA slot counts must be positive"
        );
        assert!(
            self.rmav_info_slots > 0 && self.rmav_max_data_slots > 0,
            "RMAV slot counts must be positive"
        );
        assert!(
            !self.frame_duration.is_zero(),
            "frame duration must be non-zero"
        );
    }
}

/// Tunable parameters of the CHARISMA priority metric (paper eq. (2)).
///
/// The implemented metric is
///
/// ```text
/// voice:  φ = α_v · f(CSI) + u · β_v ^ d  + V
/// data:   φ = α_d · f(CSI) + u · (1 − β_d ^ w) + γ_d
/// ```
///
/// where `f(CSI)` is the normalised throughput the adaptive PHY offers at the
/// estimated CSI (0–5), `d` is the number of frames until the packet's
/// deadline, `w` is the number of frames the request has been waiting, and
/// `u` is the urgency weight.  With the default values a voice request always
/// outranks any data request (the offset `V` exceeds the largest achievable
/// data priority), urgency dominates as a deadline approaches, and CSI breaks
/// ties among requests of similar urgency — the behaviour described in
/// Section 4.3 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CharismaParams {
    /// Weight of the CSI (throughput) term for voice requests (`α_v`).
    pub alpha_voice: f64,
    /// Weight of the CSI (throughput) term for data requests (`α_d`).
    pub alpha_data: f64,
    /// Forgetting factor of the voice deadline term (`β_v`, in (0,1)).
    pub beta_voice: f64,
    /// Forgetting factor of the data waiting term (`β_d`, in (0,1)).
    pub beta_data: f64,
    /// Constant offset added to data priorities (`γ_d`).
    pub gamma_data: f64,
    /// Priority offset of voice over data (`V`).
    pub voice_offset: f64,
    /// Weight of the urgency / waiting term (`u`).
    pub urgency_weight: f64,
    /// When false the CSI term is replaced by a constant: the protocol
    /// degenerates to earliest-deadline-first scheduling.  Used by the
    /// Section 5.3.1 ablation experiment.
    pub csi_aware: bool,
    /// Maximum number of data packets granted to a single data request in one
    /// frame (keeps one large file from starving other terminals).
    pub max_data_packets_per_grant: u32,
}

impl Default for CharismaParams {
    fn default() -> Self {
        CharismaParams {
            alpha_voice: 1.0,
            alpha_data: 1.0,
            beta_voice: 0.7,
            beta_data: 0.85,
            gamma_data: 0.0,
            voice_offset: 20.0,
            urgency_weight: 5.0,
            csi_aware: true,
            max_data_packets_per_grant: 10,
        }
    }
}

impl CharismaParams {
    /// Validates parameter ranges.
    pub fn validate(&self) {
        assert!(
            (0.0..1.0).contains(&self.beta_voice),
            "beta_voice must be in (0,1)"
        );
        assert!(
            (0.0..1.0).contains(&self.beta_data),
            "beta_data must be in (0,1)"
        );
        assert!(
            self.voice_offset >= 0.0,
            "voice offset must be non-negative"
        );
        assert!(
            self.max_data_packets_per_grant > 0,
            "data grant cap must be positive"
        );
    }
}

/// A mid-run step in the offered voice load (a scenario shape the paper never
/// evaluates; used by the campaign registry's `load_ramp` scenario).
///
/// Voice terminals with index `>= initial_voice` stay dormant — their traffic
/// sources advance (keeping RNG streams aligned with an always-active
/// population) but generate nothing — until `activation_frame`, at which
/// point they join the cell.  Data terminals are unaffected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoadRamp {
    /// Number of voice terminals active from frame 0.
    pub initial_voice: u32,
    /// Frame index at which the remaining voice terminals activate.
    pub activation_frame: u64,
}

/// Geometry of the multi-cell base-station layout.
///
/// The layout fixes the cell centers on the system plane; terminals roam the
/// layout's bounding box under the random-waypoint model and are served by
/// (and handed off between) the nearest base stations.  `cell_radius_m` is
/// the hex circumradius: adjacent centers sit `√3 · radius` apart, so the
/// Voronoi boundary between neighbours lies at `√3/2 · radius ≈ 0.87 ·
/// radius` from each.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Layout {
    /// Hexagonal packing: a center cell surrounded by rings of six (the
    /// classic 7-cell cluster at `cells = 7`).
    Hex {
        /// Cell circumradius in metres.
        cell_radius_m: f64,
    },
    /// A corridor of cells along a line (highway scenarios).
    Line {
        /// Cell circumradius in metres.
        cell_radius_m: f64,
    },
}

impl Layout {
    /// The default layout: hexagonal packing with 400 m cells.
    pub fn default_hex() -> Self {
        Layout::Hex {
            cell_radius_m: 400.0,
        }
    }

    /// The cell circumradius in metres.
    pub fn cell_radius_m(&self) -> f64 {
        match *self {
            Layout::Hex { cell_radius_m } | Layout::Line { cell_radius_m } => cell_radius_m,
        }
    }

    /// Validates the layout.
    pub fn validate(&self) {
        let r = self.cell_radius_m();
        assert!(
            r.is_finite() && r > 0.0,
            "cell radius must be positive and finite, got {r}"
        );
    }
}

impl Default for Layout {
    fn default() -> Self {
        Self::default_hex()
    }
}

/// What a cell does with a handoff attempt it has no room for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HandoffAdmission {
    /// Refuse the handoff: the terminal's buffered voice packets are dropped
    /// (the interrupted call of classical telephony) and it stays served —
    /// badly — by its old, now-distant cell until a retry.
    DropOnFull,
    /// Park the terminal in the target cell's admission queue; it keeps
    /// being served by the old cell, without packet loss, until the target
    /// frees capacity.
    Queue,
}

/// Handoff behaviour of the multi-cell system layer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HandoffConfig {
    /// Admission policy when the target cell is at capacity.
    pub admission: HandoffAdmission,
    /// Maximum number of terminals a cell may serve (0: unlimited).  Must be
    /// at least the initial per-cell population when set.
    pub cell_capacity: u32,
    /// Frames a terminal waits after a refused (drop-on-full) handoff before
    /// attempting again.
    pub retry_frames: u64,
    /// A handoff is only attempted once the nearest base station is closer
    /// than the serving one by this margin (metres) — the standard hysteresis
    /// that prevents ping-ponging on the Voronoi boundary.
    pub hysteresis_m: f64,
}

impl Default for HandoffConfig {
    fn default() -> Self {
        HandoffConfig {
            admission: HandoffAdmission::Queue,
            cell_capacity: 0,
            retry_frames: 40, // 100 ms at the 2.5 ms frame
            hysteresis_m: 25.0,
        }
    }
}

impl HandoffConfig {
    /// Validates the parameters (`per_cell` is the initial per-cell terminal
    /// population, which a finite capacity must accommodate).
    pub fn validate(&self, per_cell: u32) {
        assert!(
            self.retry_frames > 0,
            "handoff retry_frames must be positive"
        );
        assert!(
            self.hysteresis_m.is_finite() && self.hysteresis_m >= 0.0,
            "handoff hysteresis must be finite and non-negative, got {}",
            self.hysteresis_m
        );
        if self.cell_capacity != 0 {
            assert!(
                self.cell_capacity >= per_cell,
                "cell_capacity ({}) is below the initial per-cell population ({per_cell})",
                self.cell_capacity
            );
        }
    }
}

/// The multi-cell system configuration.  `None` in [`SimConfig::system`]
/// selects the paper's implicit single cell (no geometry, flat mean SNR) —
/// the historical code path, bit-for-bit.
///
/// With a system configured, `num_voice`/`num_data` are the **initial
/// per-cell** populations: the run starts with `cells · (num_voice +
/// num_data)` terminals scattered uniformly over their starting cells, and
/// terminals migrate between cells as they roam.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Number of cells (≥ 1; `cells = 1` exercises the system machinery on a
    /// single base station, and with a flat path-loss profile reproduces the
    /// implicit-cell metrics exactly).
    pub cells: u32,
    /// Base-station layout geometry.
    pub layout: Layout,
    /// Handoff admission behaviour.
    pub handoff: HandoffConfig,
    /// Distance-based path loss feeding each terminal's mean SNR.
    pub path_loss: PathLossConfig,
    /// Threads stepping the cells of one run, the calling thread included
    /// (`0` and `1` both mean the caller alone; more threads than cells are
    /// capped to one per cell).  Purely an execution hint: any value
    /// produces **byte-identical** reports (the determinism suite pins
    /// this), so it never changes what a run means — only how fast a
    /// city-scale layout steps its cells.
    pub threads: u32,
}

impl SystemConfig {
    /// A system of `cells` cells with default layout, handoff and path loss.
    pub fn new(cells: u32) -> Self {
        SystemConfig {
            cells,
            layout: Layout::default(),
            handoff: HandoffConfig::default(),
            path_loss: PathLossConfig::default(),
            threads: 0,
        }
    }

    /// Validates the system configuration (`per_cell` is the initial
    /// per-cell terminal population).
    pub fn validate(&self, per_cell: u32) {
        assert!(self.cells >= 1, "a system needs at least one cell");
        self.layout.validate();
        self.handoff.validate(per_cell);
        self.path_loss.validate();
    }
}

/// Request-contention parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ContentionConfig {
    /// Permission probability for voice requests (`p_v`).
    pub pv: f64,
    /// Permission probability for data requests (`p_d`).
    pub pd: f64,
}

impl Default for ContentionConfig {
    fn default() -> Self {
        ContentionConfig { pv: 0.15, pd: 0.05 }
    }
}

/// The complete configuration of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Number of voice terminals (`N_v`).
    pub num_voice: u32,
    /// Number of data terminals (`N_d`).
    pub num_data: u32,
    /// Frame structure.
    pub frame: FrameStructure,
    /// Voice source model.
    pub voice_source: VoiceSourceConfig,
    /// Data source model.
    pub data_source: DataSourceConfig,
    /// Contention permission probabilities.
    pub contention: ContentionConfig,
    /// Radio channel model (mean SNR, shadowing).
    pub channel: ChannelConfig,
    /// How terminal channels are advanced along the frame grid.  Lazy (the
    /// default) coalesces idle frames into one fading step and caches the
    /// per-frame SNR; eager reproduces the pre-optimisation per-frame
    /// stepping and exists for benchmarking and statistical regression tests.
    pub channel_mode: ChannelMode,
    /// Terminal speed population.
    pub speed: SpeedProfile,
    /// Adaptive (ABICM) PHY parameters — used by CHARISMA and D-TDMA/VR.
    pub adaptive_phy: AdaptivePhyConfig,
    /// Fixed-rate PHY parameters — used by the other baselines.
    pub fixed_phy: FixedPhyConfig,
    /// CSI estimator parameters.
    pub csi: CsiEstimatorConfig,
    /// CHARISMA priority-metric parameters.
    pub charisma: CharismaParams,
    /// Whether the base station keeps a request queue (Section 4.5).
    pub request_queue: bool,
    /// Maximum number of requests the base-station queue may hold.
    pub request_queue_capacity: usize,
    /// Frames simulated before measurement starts (warm-up).
    pub warmup_frames: u64,
    /// Frames measured after warm-up.
    pub measured_frames: u64,
    /// Optional mid-run voice load step (None: all terminals active from
    /// frame 0, the paper's setting).
    pub ramp: Option<LoadRamp>,
    /// Optional multi-cell system layer (None: the paper's implicit single
    /// cell, the historical code path).  See [`SystemConfig`].
    pub system: Option<SystemConfig>,
    /// Master random seed.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::default_paper()
    }
}

impl SimConfig {
    /// The reproduction's defaults corresponding to the paper's Table 1.
    pub fn default_paper() -> Self {
        SimConfig {
            num_voice: 40,
            num_data: 0,
            frame: FrameStructure::default(),
            voice_source: VoiceSourceConfig::default(),
            data_source: DataSourceConfig::default(),
            contention: ContentionConfig::default(),
            channel: ChannelConfig::default(),
            channel_mode: ChannelMode::default(),
            speed: SpeedProfile::paper_default(),
            adaptive_phy: AdaptivePhyConfig::default(),
            fixed_phy: FixedPhyConfig::default(),
            csi: CsiEstimatorConfig::default(),
            charisma: CharismaParams::default(),
            request_queue: false,
            request_queue_capacity: 256,
            warmup_frames: 4_000,    // 10 s warm-up
            measured_frames: 40_000, // 100 s measured
            ramp: None,
            system: None,
            seed: 0x5EED_CAFE,
        }
    }

    /// The frame clock for this configuration.
    pub fn clock(&self) -> FrameClock {
        self.frame.clock()
    }

    /// Total number of frames simulated (warm-up + measured).
    pub fn total_frames(&self) -> u64 {
        self.warmup_frames + self.measured_frames
    }

    /// The master seed of replication `rep` of this configuration.
    ///
    /// Replication 0 is the configured seed itself, so a single-replication
    /// run reproduces the historical (pre-replication-engine) sample path
    /// bit for bit.  Higher replications derive an independent seed stream
    /// by mixing the point seed with the replication index through
    /// SplitMix64 — a pure function of `(seed, rep)`, so the stream is
    /// byte-identical no matter which sweep worker executes the point or in
    /// what order the replications of different points interleave.
    pub fn replication_seed(&self, rep: u32) -> u64 {
        if rep == 0 {
            self.seed
        } else {
            let mut sm =
                SplitMix64::new(self.seed ^ (rep as u64).wrapping_mul(0xA076_1D64_78BD_642F));
            // Two rounds, mirroring `RngStreams::derive_seed`: adjacent
            // replication indices must map to uncorrelated master seeds.
            let first = sm.next_u64();
            let mut sm2 = SplitMix64::new(first ^ (rep as u64).rotate_left(23));
            sm2.next_u64()
        }
    }

    /// Validates the configuration, panicking with a descriptive message on
    /// the first inconsistency.  Called by the scenario builder before a run.
    pub fn validate(&self) {
        self.frame.validate();
        self.charisma.validate();
        assert!(
            (0.0..=1.0).contains(&self.contention.pv),
            "pv must be a probability"
        );
        assert!(
            (0.0..=1.0).contains(&self.contention.pd),
            "pd must be a probability"
        );
        assert!(self.measured_frames > 0, "measured_frames must be positive");
        assert!(
            self.request_queue_capacity > 0,
            "request queue capacity must be positive"
        );
        assert!(
            self.num_voice as u64 + self.num_data as u64 > 0,
            "a scenario needs at least one terminal"
        );
        if let Some(ramp) = &self.ramp {
            assert!(
                ramp.initial_voice <= self.num_voice,
                "ramp initial_voice ({}) must not exceed num_voice ({})",
                ramp.initial_voice,
                self.num_voice
            );
            assert!(
                ramp.activation_frame <= self.total_frames(),
                "ramp activation_frame ({}) is beyond the run ({} frames)",
                ramp.activation_frame,
                self.total_frames()
            );
        }
        if let Some(system) = &self.system {
            system.validate(self.num_voice + self.num_data);
        }
        // The voice packet period must be a whole number of frames, otherwise
        // the isochronous schedule cannot be honoured.
        let _ = self.clock().frames_per(self.voice_source.packet_period);
    }

    /// A down-scaled configuration for fast unit/integration tests: fewer
    /// frames and a fixed 50 km/h speed so tests stay deterministic and quick
    /// while exercising exactly the same code paths.
    pub fn quick_test() -> Self {
        SimConfig {
            num_voice: 20,
            num_data: 2,
            warmup_frames: 400,
            measured_frames: 4_000,
            speed: SpeedProfile::Fixed(50.0),
            ..Self::default_paper()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the exact `replication_seed` outputs over a (seed, rep) grid.
    ///
    /// Durable-campaign resume splices checkpointed results in place of
    /// re-simulation, which is only sound while `replication_seed` stays a
    /// pure, *stable* function of `(seed, rep)` — any refactor of the seed
    /// derivation silently invalidates every existing checkpoint and
    /// baseline.  These constants were computed from the shipped SplitMix64
    /// derivation; if this test fails, the derivation changed and the
    /// checkpoint schema version must change with it.
    #[test]
    fn replication_seed_golden_values() {
        const GOLDEN: &[(u64, u32, u64)] = &[
            (0x0, 0, 0x0000_0000_0000_0000),
            (0x0, 1, 0x97a3_ebac_6c7a_79d4),
            (0x0, 2, 0x4c64_490e_f994_db6b),
            (0x0, 3, 0xb2df_bac6_f7ec_85bf),
            (0x0, 7, 0xae9a_09ff_e446_d8c0),
            (0x0, 15, 0x7c2d_a0b6_6b3c_7062),
            (0x1, 0, 0x0000_0000_0000_0001),
            (0x1, 1, 0xa291_6a30_ad47_96ac),
            (0x1, 2, 0xf60b_398c_f2e3_d85a),
            (0x1, 3, 0xdb78_b976_2e4a_d398),
            (0x1, 7, 0xcb17_1a9b_1c17_64ae),
            (0x1, 15, 0x6a6f_2faa_3e89_03dd),
            (0x2a, 0, 0x0000_0000_0000_002a),
            (0x2a, 1, 0x0352_0118_b48f_7e59),
            (0x2a, 2, 0x61f2_3a12_8318_51aa),
            (0x2a, 3, 0x887e_7892_2fac_fdc0),
            (0x2a, 7, 0x86e6_4038_e573_a04b),
            (0x2a, 15, 0xec15_c1fd_3518_6a2a),
            (0x5eed_0000_0000_0001, 0, 0x5eed_0000_0000_0001),
            (0x5eed_0000_0000_0001, 1, 0xf231_c709_8125_7398),
            (0x5eed_0000_0000_0001, 2, 0x60a4_ec64_fd70_45c4),
            (0x5eed_0000_0000_0001, 3, 0xd95d_ee4b_6b2a_b525),
            (0x5eed_0000_0000_0001, 7, 0x7252_a7b0_0f64_c1d2),
            (0x5eed_0000_0000_0001, 15, 0xd5f8_7f4d_c560_bcfe),
            (0xdead_beef_5eed_cafe, 0, 0xdead_beef_5eed_cafe),
            (0xdead_beef_5eed_cafe, 1, 0x0437_23eb_822d_a09a),
            (0xdead_beef_5eed_cafe, 2, 0x5ccc_1b96_16d1_ff3b),
            (0xdead_beef_5eed_cafe, 3, 0x48dc_61cf_8c9a_5e29),
            (0xdead_beef_5eed_cafe, 7, 0xe024_d44b_0025_6a2c),
            (0xdead_beef_5eed_cafe, 15, 0xcf56_1239_0352_8e76),
            (0xffff_ffff_ffff_ffff, 0, 0xffff_ffff_ffff_ffff),
            (0xffff_ffff_ffff_ffff, 1, 0x9feb_604d_4696_82fc),
            (0xffff_ffff_ffff_ffff, 2, 0xf4db_db78_df2e_08d2),
            (0xffff_ffff_ffff_ffff, 3, 0x7a3c_dfda_e5fa_6a8c),
            (0xffff_ffff_ffff_ffff, 7, 0x290d_c065_72a3_bd44),
            (0xffff_ffff_ffff_ffff, 15, 0xf2ef_8dcf_407f_7082),
        ];
        for &(seed, rep, expected) in GOLDEN {
            let mut cfg = SimConfig::default_paper();
            cfg.seed = seed;
            assert_eq!(
                cfg.replication_seed(rep),
                expected,
                "replication_seed({seed:#x}, {rep}) drifted from its pinned value"
            );
        }
    }

    #[test]
    fn paper_default_is_internally_consistent() {
        let cfg = SimConfig::default_paper();
        cfg.validate();
        assert_eq!(cfg.clock().frames_per(cfg.voice_source.packet_period), 8);
        assert_eq!(cfg.total_frames(), 44_000);
    }

    #[test]
    fn request_subframe_is_larger_than_information_subframe() {
        let f = FrameStructure::default();
        assert!(
            f.request_slots >= f.info_slots,
            "paper: N_r slightly larger than N_i"
        );
    }

    #[test]
    fn fixed_phy_capacity_supports_about_sixty_voice_users() {
        // Sanity-check the calibration: N_i slots per frame, 8 frames per
        // voice packet period and a 0.426 activity factor must put the fixed
        // PHY's hard capacity in the 50–70 voice-user range (paper: ≈ 60 for
        // D-TDMA/FR).
        let cfg = SimConfig::default_paper();
        let cap = cfg.frame.info_slots as f64 * 8.0 / cfg.voice_source.activity_factor();
        assert!((55.0..=80.0).contains(&cap), "calibrated FR capacity {cap}");
    }

    #[test]
    #[should_panic(expected = "N_r")]
    fn validation_rejects_small_request_subframe() {
        let mut cfg = SimConfig::default_paper();
        cfg.frame.request_slots = 1;
        cfg.frame.info_slots = 3;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "at least one terminal")]
    fn validation_rejects_empty_population() {
        let mut cfg = SimConfig::default_paper();
        cfg.num_voice = 0;
        cfg.num_data = 0;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "beta_voice")]
    fn validation_rejects_bad_forgetting_factor() {
        let mut cfg = SimConfig::default_paper();
        cfg.charisma.beta_voice = 1.5;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "initial_voice")]
    fn validation_rejects_ramp_larger_than_population() {
        let mut cfg = SimConfig::default_paper();
        cfg.ramp = Some(LoadRamp {
            initial_voice: cfg.num_voice + 1,
            activation_frame: 100,
        });
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "activation_frame")]
    fn validation_rejects_ramp_beyond_the_run() {
        let mut cfg = SimConfig::default_paper();
        cfg.ramp = Some(LoadRamp {
            initial_voice: 10,
            activation_frame: cfg.total_frames() + 1,
        });
        cfg.validate();
    }

    #[test]
    fn replication_zero_is_the_point_seed_itself() {
        let cfg = SimConfig::default_paper();
        assert_eq!(cfg.replication_seed(0), cfg.seed);
    }

    #[test]
    fn replication_seeds_are_deterministic_and_distinct() {
        let cfg = SimConfig::default_paper();
        let seeds: Vec<u64> = (0..32).map(|r| cfg.replication_seed(r)).collect();
        // Deterministic.
        assert_eq!(
            seeds,
            (0..32).map(|r| cfg.replication_seed(r)).collect::<Vec<_>>()
        );
        // Pairwise distinct.
        for (i, a) in seeds.iter().enumerate() {
            assert!(
                !seeds[..i].contains(a),
                "replications {i} collides with an earlier seed"
            );
        }
        // A different point seed yields a different replication stream.
        let mut other = cfg.clone();
        other.seed ^= 1;
        assert_ne!(other.replication_seed(1), cfg.replication_seed(1));
    }

    #[test]
    fn system_config_validates_and_rejects_bad_shapes() {
        let mut cfg = SimConfig::default_paper();
        cfg.system = Some(SystemConfig::new(7));
        cfg.validate();
        assert_eq!(cfg.system.unwrap().layout.cell_radius_m(), 400.0);
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn zero_cell_system_is_rejected() {
        let mut cfg = SimConfig::default_paper();
        cfg.system = Some(SystemConfig::new(0));
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "cell radius")]
    fn degenerate_layout_is_rejected() {
        let mut cfg = SimConfig::default_paper();
        let mut system = SystemConfig::new(3);
        system.layout = Layout::Line { cell_radius_m: 0.0 };
        cfg.system = Some(system);
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "cell_capacity")]
    fn capacity_below_initial_population_is_rejected() {
        let mut cfg = SimConfig::default_paper(); // 40 voice terminals
        let mut system = SystemConfig::new(3);
        system.handoff.cell_capacity = 10;
        cfg.system = Some(system);
        cfg.validate();
    }

    #[test]
    fn quick_test_config_is_valid_and_small() {
        let cfg = SimConfig::quick_test();
        cfg.validate();
        assert!(cfg.total_frames() < 10_000);
    }

    #[test]
    fn config_is_cloneable_and_comparable() {
        let cfg = SimConfig::default_paper();
        let clone = cfg.clone();
        assert_eq!(cfg, clone);
        let mut other = clone;
        other.num_voice += 1;
        assert_ne!(cfg, other);
    }
}
