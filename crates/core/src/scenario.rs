//! The scenario runner: builds the terminal population, drives the
//! frame-synchronous simulation loop and produces a [`RunReport`].

use crate::cell::Cell;
use crate::columns::TerminalColumns;
use crate::config::SimConfig;
use crate::protocols::ProtocolKind;
use crate::system::SystemWorld;
use crate::terminal::{FrameTraffic, Terminal};
use charisma_des::RngStreams;
use charisma_metrics::RunMetrics;
use charisma_traffic::TerminalId;
use serde::{Deserialize, Serialize};

/// The outcome of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Which protocol was simulated.
    pub protocol: ProtocolKind,
    /// Whether the base-station request queue was enabled.
    pub request_queue: bool,
    /// Number of voice terminals.
    pub num_voice: u32,
    /// Number of data terminals.
    pub num_data: u32,
    /// Master seed of the run.
    pub seed: u64,
    /// The collected metrics.
    pub metrics: RunMetrics,
}

impl RunReport {
    /// Voice packet loss rate `P_loss`.
    pub fn voice_loss_rate(&self) -> f64 {
        self.metrics.voice_loss_rate()
    }

    /// Data throughput δ in packets per frame.
    pub fn data_throughput_per_frame(&self) -> f64 {
        self.metrics.data_throughput_per_frame()
    }

    /// Data throughput per data terminal per frame (the per-user operating
    /// point used for the paper's (delay, throughput) QoS capacity).
    pub fn data_throughput_per_user(&self) -> f64 {
        if self.num_data == 0 {
            0.0
        } else {
            self.data_throughput_per_frame() / self.num_data as f64
        }
    }

    /// Mean data access delay in seconds.
    pub fn data_delay_secs(&self) -> f64 {
        self.metrics.data_delay_secs()
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{:<10} queue={} Nv={:>3} Nd={:>3}  Ploss={:.4}  delta={:.3} pkt/frame  Dd={:.3} s",
            self.protocol.label(),
            if self.request_queue { "yes" } else { "no " },
            self.num_voice,
            self.num_data,
            self.voice_loss_rate(),
            self.data_throughput_per_frame(),
            self.data_delay_secs(),
        )
    }
}

/// A fully built simulation, ready to run.
///
/// ```
/// use charisma::{ProtocolKind, Scenario, SimConfig};
///
/// let mut config = SimConfig::quick_test();
/// config.num_voice = 10;
/// config.measured_frames = 2_000;
/// let report = Scenario::new(config).run(ProtocolKind::Charisma);
/// assert!(report.voice_loss_rate() <= 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct Scenario {
    config: SimConfig,
}

impl Scenario {
    /// Creates a scenario after validating the configuration.
    ///
    /// # Panics
    ///
    /// Panics with the [`SimConfig::validate`] message when the
    /// configuration is invalid.
    pub fn new(config: SimConfig) -> Self {
        config.validate().unwrap_or_else(|e| panic!("{e}"));
        Scenario { config }
    }

    /// The scenario configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Runs the scenario under the given protocol and returns the report.
    ///
    /// A configuration with a multi-cell [`crate::config::SystemConfig`]
    /// routes to the [`SystemWorld`] runner (one MAC instance per cell);
    /// otherwise the paper's implicit single cell runs on the historical
    /// code path, bit for bit.
    pub fn run(&self, protocol: ProtocolKind) -> RunReport {
        if self.config.system.is_some() {
            return SystemWorld::new(self.config.clone(), protocol).run();
        }
        let config = &self.config;
        let mut mac = protocol.build(config);
        let mac = mac.as_mut();
        let streams = RngStreams::new(config.seed);
        // The terminal population: voice terminals first (ids
        // `0..num_voice`), then data terminals.  Identical across protocols
        // for a given seed — the "common simulation platform" property.
        // Traffic sample paths (talkspurts, data bursts) are draw-for-draw
        // identical across protocols; under the default lazy channel
        // evaluation the fading paths are statistically equivalent but their
        // realised draws depend on when each protocol samples the SNR (use
        // `ChannelMode::Eager` for exact channel pairing).  Each construction
        // record goes straight into the structure-of-arrays store the frame
        // loop sweeps over.
        let population = config.num_voice + config.num_data;
        let mut columns = TerminalColumns::with_capacity(
            config.clock(),
            config.channel_mode,
            population as usize,
        );
        for i in 0..population {
            columns.push(Terminal::from_config(config, TerminalId(i), i, &streams));
        }
        // The implicit single cell: every terminal attached, cell index 0
        // (which derives the historical estimator / base-station streams).
        let mut cell = Cell::new(
            config,
            &streams,
            0,
            (0..population).map(TerminalId).collect(),
        );

        let mut traffic: Vec<FrameTraffic> = vec![FrameTraffic::default(); columns.len()];
        let total = config.total_frames();
        // Deadline drops are attributed to the frame in which the deadline
        // expires, one voice-packet period after generation; start counting
        // them that much later than `generated` so a drop is never counted
        // for a packet generated during warm-up (which would let the measured
        // loss rate exceed 100 % at saturation).
        let drop_grace = config.clock().frames_per(config.voice_source.deadline);

        for frame in 0..total {
            let measuring = frame >= config.warmup_frames;
            let measuring_drops = frame >= config.warmup_frames + drop_grace;

            // Traffic and channel advance, deadline drops are detected here —
            // one batched columnar sweep that also accumulates the
            // population-wide totals the run metrics need.
            let totals = columns.begin_frame_all(frame, &mut traffic);
            if measuring {
                let metrics = cell.metrics_mut();
                metrics.voice.generated += totals.voice_generated;
                if measuring_drops {
                    metrics.voice.dropped_deadline += totals.voice_dropped;
                }
                metrics.data.arrived += totals.data_arrived;
            }

            cell.step(frame, config, measuring, &traffic, &mut columns, mac);
        }

        RunReport {
            protocol: mac.kind(),
            request_queue: config.request_queue,
            num_voice: config.num_voice,
            num_data: config.num_data,
            seed: config.seed,
            metrics: cell.into_metrics(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(num_voice: u32, num_data: u32) -> SimConfig {
        let mut cfg = SimConfig::quick_test();
        cfg.num_voice = num_voice;
        cfg.num_data = num_data;
        cfg.warmup_frames = 400;
        cfg.measured_frames = 4_000;
        cfg
    }

    #[test]
    fn every_protocol_completes_a_small_run() {
        let cfg = small_config(10, 2);
        let scenario = Scenario::new(cfg);
        for p in ProtocolKind::ALL {
            let report = scenario.run(p);
            assert_eq!(report.protocol, p);
            assert!(report.metrics.frames > 0);
            assert!(
                report.voice_loss_rate() >= 0.0 && report.voice_loss_rate() <= 1.0,
                "{p}"
            );
            assert!(
                report.metrics.voice.generated > 0,
                "{p} generated no voice packets"
            );
        }
    }

    #[test]
    fn runs_are_reproducible_for_the_same_seed() {
        let cfg = small_config(8, 1);
        let scenario = Scenario::new(cfg);
        let a = scenario.run(ProtocolKind::Charisma);
        let b = scenario.run(ProtocolKind::Charisma);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_change_the_outcome() {
        let mut cfg = small_config(20, 2);
        let a = Scenario::new(cfg.clone()).run(ProtocolKind::DTdmaFr);
        cfg.seed ^= 0xABCD;
        let b = Scenario::new(cfg).run(ProtocolKind::DTdmaFr);
        assert_ne!(a.metrics, b.metrics);
    }

    #[test]
    fn light_load_has_low_voice_loss_for_charisma() {
        let cfg = small_config(10, 0);
        let report = Scenario::new(cfg).run(ProtocolKind::Charisma);
        assert!(
            report.voice_loss_rate() < 0.02,
            "CHARISMA at light load should have (near) zero loss, got {}",
            report.voice_loss_rate()
        );
    }

    #[test]
    fn heavy_load_saturates_and_causes_losses() {
        let mut cfg = small_config(150, 0);
        cfg.measured_frames = 4_000;
        let report = Scenario::new(cfg).run(ProtocolKind::DTdmaFr);
        assert!(
            report.voice_loss_rate() > 0.05,
            "D-TDMA/FR at 150 voice users must be far beyond capacity, got {}",
            report.voice_loss_rate()
        );
    }

    #[test]
    fn data_only_scenario_delivers_packets() {
        let cfg = small_config(1, 4);
        let report = Scenario::new(cfg).run(ProtocolKind::Charisma);
        assert!(report.metrics.data.delivered > 0, "no data delivered");
        assert!(report.data_delay_secs() >= 0.0);
    }

    #[test]
    fn voice_accounting_is_consistent() {
        let cfg = small_config(30, 0);
        for p in ProtocolKind::ALL {
            let report = Scenario::new(cfg.clone()).run(p);
            let v = &report.metrics.voice;
            // Delivered + lost can never exceed generated plus a small carry-over
            // from packets generated during warm-up but delivered after it.
            let slack = 4 * 8; // generously: one packet per terminal boundary effect
            assert!(
                v.delivered + v.lost() <= v.generated + slack,
                "{p}: delivered {} + lost {} vs generated {}",
                v.delivered,
                v.lost(),
                v.generated
            );
        }
    }

    #[test]
    fn load_ramp_withholds_traffic_until_activation() {
        use crate::config::LoadRamp;
        let mut cfg = small_config(30, 0);
        let full = Scenario::new(cfg.clone()).run(ProtocolKind::Charisma);
        cfg.ramp = Some(LoadRamp {
            initial_voice: 10,
            // Activate the remaining 20 voice users halfway through the
            // measured window.
            activation_frame: cfg.warmup_frames + cfg.measured_frames / 2,
        });
        let ramped = Scenario::new(cfg.clone()).run(ProtocolKind::Charisma);
        assert!(
            ramped.metrics.voice.generated < full.metrics.voice.generated,
            "ramped run must offer less voice traffic ({} vs {})",
            ramped.metrics.voice.generated,
            full.metrics.voice.generated
        );
        // Rough shape: 10 users all along + 20 users for half the window
        // ≈ 2/3 of the always-active traffic.
        let ratio = ramped.metrics.voice.generated as f64 / full.metrics.voice.generated as f64;
        assert!((0.5..0.85).contains(&ratio), "traffic ratio {ratio}");
        // Determinism is preserved under a ramp.
        let again = Scenario::new(cfg).run(ProtocolKind::Charisma);
        assert_eq!(ramped, again);
    }

    #[test]
    fn per_user_throughput_is_bounded_by_offered_load() {
        let cfg = small_config(0, 6);
        let report = Scenario::new(cfg).run(ProtocolKind::Charisma);
        // Each data terminal offers 0.25 packets per frame on average; the
        // delivered per-user throughput cannot exceed it by more than noise.
        assert!(
            report.data_throughput_per_user() < 0.40,
            "got {}",
            report.data_throughput_per_user()
        );
    }
}
