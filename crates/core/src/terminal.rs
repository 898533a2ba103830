//! Per-terminal construction: building one mobile device's protocol-
//! independent state from the scenario seed.
//!
//! A [`Terminal`] bundles everything that belongs to one mobile device and is
//! *protocol independent*: its traffic source and transmit buffers, its
//! fading channel, and its private random streams for contention decisions
//! and packet-error draws.  Protocol-specific state (reservations, pending
//! requests, grants) lives in the protocol implementations, keyed by
//! [`TerminalId`], so that the exact same terminal population — same fading
//! sample paths, same talkspurts, same data bursts — is presented to every
//! protocol under comparison.
//!
//! `Terminal` is a **construction record**: scenarios build terminals one by
//! one (seeding every RNG stream in the documented order), then push them
//! into a [`crate::columns::TerminalColumns`] store, which decomposes each
//! terminal into structure-of-arrays columns.  All per-frame behaviour —
//! source stepping, deadline expiry, fading advance, SNR sampling — lives on
//! the columnar store so the frame sweep runs over contiguous arrays instead
//! of 300-byte structs.

use crate::config::SimConfig;
use charisma_des::{FrameClock, RngStreams, StreamId, Xoshiro256StarStar};
use charisma_radio::{ChannelConfig, ChannelMode, CombinedChannel, Mobility, SpeedProfile};
use charisma_traffic::{
    DataBuffer, DataSource, DataSourceConfig, TerminalClass, TerminalId, VoiceBuffer, VoiceSource,
    VoiceSourceConfig,
};
use serde::{Deserialize, Serialize};

/// What happened at a terminal at the start of a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FrameTraffic {
    /// A new talkspurt started (the terminal must request an uplink grant).
    pub talkspurt_started: bool,
    /// The current talkspurt ended (any reservation should be released).
    pub talkspurt_ended: bool,
    /// A voice packet was generated at this boundary.
    pub voice_packet_generated: bool,
    /// Number of data packets that arrived at this boundary.
    pub data_packets_arrived: u32,
    /// Voice packets dropped at this boundary because their deadline expired.
    pub voice_packets_dropped: u32,
}

/// One mobile terminal, as built from the scenario seed.
///
/// Consumed by [`crate::columns::TerminalColumns::push`], which destructures
/// it into parallel columns for the batched per-frame sweep.
#[derive(Debug, Clone)]
pub struct Terminal {
    pub(crate) id: TerminalId,
    pub(crate) class: TerminalClass,
    pub(crate) clock: FrameClock,
    pub(crate) voice_source: Option<VoiceSource>,
    pub(crate) voice_buffer: VoiceBuffer,
    pub(crate) data_source: Option<DataSource>,
    pub(crate) data_buffer: DataBuffer,
    pub(crate) channel: CombinedChannel,
    /// How the channel is advanced along the frame grid (lazy by default).
    pub(crate) channel_mode: ChannelMode,
    /// Randomness for permission-probability and slot-selection decisions.
    pub(crate) contention_rng: Xoshiro256StarStar,
    /// Randomness for packet-error draws of this terminal's transmissions.
    pub(crate) phy_rng: Xoshiro256StarStar,
    pub(crate) in_talkspurt: bool,
    /// First frame at which the terminal participates (0 for all terminals
    /// except those activated mid-run by a load ramp).  A dormant terminal
    /// advances its sources — keeping RNG streams aligned with an
    /// always-active population — but discards the traffic and never
    /// contends.
    pub(crate) active_from_frame: u64,
}

impl Terminal {
    /// Builds a terminal of the given class with all of its random streams
    /// derived from the scenario seed.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: TerminalId,
        class: TerminalClass,
        clock: FrameClock,
        voice_cfg: VoiceSourceConfig,
        data_cfg: DataSourceConfig,
        channel_cfg: ChannelConfig,
        channel_mode: ChannelMode,
        speed: &SpeedProfile,
        streams: &RngStreams,
    ) -> Self {
        let idx = id.index();
        // Speed sampling borrows DOMAIN_PROTOCOL by mirroring the terminal
        // index into the upper half of the entity space (`idx ^ 0x8000_0000`);
        // per-cell base-station streams count down from `u32::MAX` in that
        // same half (`StreamId::cell_entity`).  The two sub-ranges collide
        // only when a terminal index reaches `0x7FFF_FFFF - cell`, so the
        // scheme is sound for populations below 2^31 terminals; see the
        // stream-derivation table in ARCHITECTURE.md.  The population-level
        // bound is a rule of `SimConfig::validate`; this one pins the
        // per-terminal half.
        debug_assert!(
            idx < 0x8000_0000,
            "terminal index {idx:#010x} would escape the reserved \
             DOMAIN_PROTOCOL speed-stream sub-range [0x8000_0000, 0xFFFF_FFFF]"
        );
        let mut speed_rng =
            streams.stream(StreamId::new(StreamId::DOMAIN_PROTOCOL, idx ^ 0x8000_0000));
        let mobility = Mobility::new(speed.sample(&mut speed_rng));
        let channel = CombinedChannel::new(
            channel_cfg,
            mobility,
            streams.stream(StreamId::new(StreamId::DOMAIN_CHANNEL, idx)),
        );
        let (voice_source, data_source) = match class {
            TerminalClass::Voice => (
                Some(VoiceSource::new(
                    voice_cfg,
                    clock,
                    streams.stream(StreamId::new(StreamId::DOMAIN_VOICE, idx)),
                )),
                None,
            ),
            TerminalClass::Data => (
                None,
                Some(DataSource::new(
                    data_cfg,
                    clock,
                    streams.stream(StreamId::new(StreamId::DOMAIN_DATA, idx)),
                )),
            ),
        };
        let in_talkspurt = voice_source
            .as_ref()
            .map(|s| s.is_talking())
            .unwrap_or(false);
        Terminal {
            id,
            class,
            clock,
            voice_source,
            voice_buffer: VoiceBuffer::new(),
            data_source,
            data_buffer: DataBuffer::new(),
            channel,
            channel_mode,
            contention_rng: streams.stream(StreamId::new(StreamId::DOMAIN_CONTENTION, idx)),
            phy_rng: streams.stream(StreamId::new(StreamId::DOMAIN_PHY, idx)),
            in_talkspurt,
            active_from_frame: 0,
        }
    }

    /// Builds terminal `id` of `config`'s population.  `local` is its index
    /// within its cell's population (voice terminals first; equal to the id
    /// in a single cell): it sets the class and, under a load ramp, keeps
    /// the tail of the voice population dormant until the ramp's activation
    /// frame (see [`crate::config::LoadRamp`]).
    pub(crate) fn from_config(
        config: &SimConfig,
        id: TerminalId,
        local: u32,
        streams: &RngStreams,
    ) -> Self {
        let class = if local < config.num_voice {
            TerminalClass::Voice
        } else {
            TerminalClass::Data
        };
        let mut terminal = Terminal::new(
            id,
            class,
            config.clock(),
            config.voice_source,
            config.data_source,
            config.channel,
            config.channel_mode,
            &config.speed,
            streams,
        );
        if let Some(ramp) = &config.ramp {
            if class == TerminalClass::Voice && local >= ramp.initial_voice {
                terminal.set_active_from_frame(ramp.activation_frame);
            }
        }
        terminal
    }

    /// Defers the terminal's participation to `frame` (load-ramp scenarios):
    /// until then the columnar `begin_frame` reports no traffic, the transmit
    /// buffers stay empty and the terminal never appears in a talkspurt.
    pub fn set_active_from_frame(&mut self, frame: u64) {
        self.active_from_frame = frame;
    }

    /// Whether the terminal participates in the given frame (always true
    /// unless a load ramp deferred its activation).
    pub fn is_active_at(&self, frame_index: u64) -> bool {
        frame_index >= self.active_from_frame
    }

    /// The terminal identifier.
    pub fn id(&self) -> TerminalId {
        self.id
    }

    /// The terminal's service class.
    pub fn class(&self) -> TerminalClass {
        self.class
    }

    /// Whether the terminal is currently in a talkspurt.
    pub fn in_talkspurt(&self) -> bool {
        self.in_talkspurt
    }

    /// The terminal's mobility (speed / Doppler) parameters.
    pub fn mobility(&self) -> &Mobility {
        self.channel.mobility()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make(class: TerminalClass, seed: u64) -> Terminal {
        let streams = RngStreams::new(seed);
        Terminal::new(
            TerminalId(0),
            class,
            FrameClock::paper_default(),
            VoiceSourceConfig::default(),
            DataSourceConfig::default(),
            ChannelConfig::default(),
            ChannelMode::Lazy,
            &SpeedProfile::Fixed(50.0),
            &streams,
        )
    }

    #[test]
    fn construction_sets_class_and_identity() {
        let v = make(TerminalClass::Voice, 1);
        assert_eq!(v.id(), TerminalId(0));
        assert_eq!(v.class(), TerminalClass::Voice);
        assert!(v.is_active_at(0));
        let d = make(TerminalClass::Data, 1);
        assert_eq!(d.class(), TerminalClass::Data);
        assert!(!d.in_talkspurt(), "data terminals never talk");
    }

    #[test]
    fn load_ramp_defers_activation() {
        let mut t = make(TerminalClass::Voice, 2);
        t.set_active_from_frame(4_000);
        assert!(!t.is_active_at(0));
        assert!(!t.is_active_at(3_999));
        assert!(t.is_active_at(4_000));
    }

    #[test]
    fn mobility_speed_comes_from_the_reserved_protocol_stream() {
        // Two seeds give different sampled speeds under a random profile,
        // pinning that the speed draw really consumes the mirrored
        // DOMAIN_PROTOCOL stream (a fixed profile ignores the draw).
        let mk = |seed: u64| {
            let streams = RngStreams::new(seed);
            Terminal::new(
                TerminalId(0),
                TerminalClass::Voice,
                FrameClock::paper_default(),
                VoiceSourceConfig::default(),
                DataSourceConfig::default(),
                ChannelConfig::default(),
                ChannelMode::Lazy,
                &SpeedProfile::Uniform {
                    min_kmh: 10.0,
                    max_kmh: 90.0,
                },
                &streams,
            )
        };
        let a = mk(100).mobility().speed_kmh;
        let b = mk(101).mobility().speed_kmh;
        assert_ne!(a, b, "speed should depend on the scenario seed");
    }
}
