//! The per-frame execution environment shared by all protocols.
//!
//! [`FrameWorld`] bundles everything a MAC protocol may touch during one
//! frame — the terminal population, the physical layers, the CSI estimator,
//! the metrics accumulators — and provides the two pieces of machinery every
//! protocol needs so they are implemented exactly once:
//!
//! * **request contention** ([`FrameWorld::contend`]): the slotted request
//!   phase with per-class permission probabilities, collision destruction
//!   (no capture) and per-slot acknowledgement, and
//! * **the transmission engine** ([`FrameWorld::transmit_voice`],
//!   [`FrameWorld::transmit_data`]): moving packets out of terminal buffers
//!   through the configured physical layer, drawing channel errors from the
//!   *true* instantaneous SNR and updating the QoS counters.
//!
//! Protocols differ only in *which* terminals they admit to contention, *how*
//! they order the successful requests and *how many* slots they hand to each
//! — which is exactly the design space the paper describes.
//!
//! # The index-slice MAC API
//!
//! Terminal state lives in the structure-of-arrays store
//! ([`crate::columns::TerminalColumns`]); a protocol addresses it through the
//! world's *index accessors* — [`FrameWorld::members`] hands out the member
//! id slice, and per-terminal reads go through [`FrameWorld::class`],
//! [`FrameWorld::voice_backlog`], [`FrameWorld::has_backlog`] and friends.
//! Those accessors are the MAC-facing layer: each one calls the single
//! implementation on the crate-internal column view, whose partitioned
//! exclusivity contract the [`TerminalTable`] handle carries into the world.

use crate::columns::{ColumnsView, TerminalColumns};
use crate::config::SimConfig;
use crate::terminal::FrameTraffic;
use charisma_des::{FrameClock, Sampler, SimTime, Xoshiro256StarStar};
use charisma_metrics::RunMetrics;
use charisma_phy::{AdaptivePhy, FixedPhy, Phy};
use charisma_radio::{CsiEstimate, CsiEstimator};
use charisma_traffic::{DataBuffer, TerminalClass, TerminalId, VoiceBuffer};
use std::marker::PhantomData;

/// A borrow-like handle over the global terminal column store: the form in
/// which [`crate::cell::Cell::step`] and [`FrameWorld::new`] accept the
/// terminal population.  It has no per-terminal methods of its own — it only
/// carries the column view and the borrow's lifetime into the world, whose
/// accessors are the MAC-facing API.
///
/// In a single-cell run this is just a reborrow of the scenario's
/// [`TerminalColumns`].  In a sharded multi-cell run every cell's
/// [`FrameWorld`] gets a table over the *same* columns from a different
/// worker thread; the table therefore carries the crate-internal
/// `ColumnsView` (per-column base pointers) instead of a `&mut`, and
/// soundness rests on the system layer's membership partition: each terminal
/// is attached to exactly one cell, and a cell's MAC only ever touches its
/// own members, so concurrent tables access disjoint column elements.  Every
/// element access is bounds-checked (release builds included), so the unsafe
/// surface is confined to the aliasing argument above.
pub struct TerminalTable<'a> {
    view: ColumnsView,
    _marker: PhantomData<&'a mut TerminalColumns>,
}

impl<'a> From<&'a mut TerminalColumns> for TerminalTable<'a> {
    fn from(columns: &'a mut TerminalColumns) -> Self {
        TerminalTable {
            view: columns.view(),
            _marker: PhantomData,
        }
    }
}

impl<'a> TerminalTable<'a> {
    /// Builds a table directly from a column view (the sharded system
    /// layer's entry point).
    ///
    /// The caller asserts the partitioned-exclusivity contract documented on
    /// [`ColumnsView`]: for the table's lifetime, no element it accesses may
    /// be accessed through any other path.  Kept crate-private so the whole
    /// aliasing argument stays inside the crate.
    pub(crate) fn from_view(view: ColumnsView) -> Self {
        TerminalTable {
            view,
            _marker: PhantomData,
        }
    }

    /// Number of terminals in the table (the whole scenario population).
    pub fn len(&self) -> usize {
        self.view.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.view.len() == 0
    }

    /// Re-borrows the table at a shorter lifetime, exactly like re-borrowing
    /// a `&mut`.  [`crate::cell::Cell::step`] uses this so the
    /// [`FrameWorld`] it assembles borrows for the duration of the frame
    /// only, not for the caller's full table lifetime.
    pub fn reborrow(&mut self) -> TerminalTable<'_> {
        TerminalTable {
            view: self.view,
            _marker: PhantomData,
        }
    }
}

/// Reusable scratch buffers for the per-frame hot paths.
///
/// The scenario runner owns one instance for the whole run and threads it
/// into each frame's [`FrameWorld`], so the request-contention loop and the
/// transmission engine recycle the same heap blocks frame after frame instead
/// of allocating fresh ones.  The buffers carry no semantic state across
/// frames — every user clears them before use.
#[derive(Debug, Default)]
pub struct FrameScratch {
    /// Still-unacknowledged contenders during [`FrameWorld::contend`].
    contend_remaining: Vec<TerminalId>,
    /// Positions (into `contend_remaining`) transmitting in one minislot.
    contend_transmitters: Vec<usize>,
    /// Runs popped from a data buffer in [`FrameWorld::transmit_data`].
    data_runs: Vec<charisma_traffic::buffer::ServedRun>,
    /// Errored packets awaiting re-insertion in [`FrameWorld::transmit_data`].
    data_requeue: Vec<(SimTime, u32)>,
}

/// How the physical layer picks its transmission mode for a grant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkAdaptation {
    /// Fixed-rate PHY: one packet per slot, fixed coding (D-TDMA/FR, RAMA,
    /// RMAV, DRMA).
    Fixed,
    /// Adaptive PHY that tracks the instantaneous channel at transmission
    /// time, with no MAC interaction (D-TDMA/VR).
    Tracking,
    /// Adaptive PHY whose mode was announced by the base station from an
    /// earlier CSI estimate (CHARISMA); a stale estimate can over- or
    /// under-shoot the true channel.
    Announced {
        /// The CSI estimate (SNR in dB) the announcement was based on.
        snr_db: f64,
    },
}

/// Result of a voice-packet transmission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VoiceTx {
    /// The packet was delivered without error.
    Delivered,
    /// The packet was transmitted but corrupted by the channel.
    Errored,
    /// The allocated capacity could not fit one packet (e.g. half-rate mode
    /// with a single slot); nothing was transmitted and the packet stays
    /// queued.
    InsufficientCapacity,
    /// The terminal had no voice packet to send (the slot is wasted).
    NoPacket,
}

/// Result of a data transmission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DataTx {
    /// Packets delivered without error.
    pub delivered: u32,
    /// Packets corrupted by the channel (they remain queued for
    /// retransmission).
    pub errored: u32,
}

/// The mutable per-frame view handed to a protocol's `run_frame`.
pub struct FrameWorld<'a> {
    /// Index of the current frame.
    pub frame: u64,
    /// Start time of the current frame.
    pub now: SimTime,
    /// The frame clock.
    pub clock: FrameClock,
    /// The scenario configuration.
    pub config: &'a SimConfig,
    /// Whether the warm-up period is over and counters should accumulate.
    pub measuring: bool,
    /// Per-terminal traffic events at this frame boundary (indexed like
    /// the global terminal population).
    pub traffic: &'a [FrameTraffic],
    /// The terminals attached to this world's base station, in attachment
    /// order.  In a single-cell run this is every terminal; in a multi-cell
    /// run it is the serving cell's current membership, and the columns /
    /// `traffic` still span the whole system (ids are global).
    members: &'a [TerminalId],
    terminals: TerminalTable<'a>,
    metrics: &'a mut RunMetrics,
    estimator: &'a mut CsiEstimator,
    adaptive_phy: AdaptivePhy,
    fixed_phy: FixedPhy,
    bs_rng: &'a mut Xoshiro256StarStar,
    scratch: &'a mut FrameScratch,
}

impl<'a> FrameWorld<'a> {
    /// Assembles the per-frame world.  Column slot `i` must be
    /// `TerminalId(i)`; the scenario builder guarantees it.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        frame: u64,
        config: &'a SimConfig,
        measuring: bool,
        traffic: &'a [FrameTraffic],
        members: &'a [TerminalId],
        terminals: impl Into<TerminalTable<'a>>,
        metrics: &'a mut RunMetrics,
        estimator: &'a mut CsiEstimator,
        bs_rng: &'a mut Xoshiro256StarStar,
        scratch: &'a mut FrameScratch,
    ) -> Self {
        let clock = config.clock();
        let terminals = terminals.into();
        debug_assert_eq!(traffic.len(), terminals.len());
        debug_assert!(members.len() <= terminals.len());
        FrameWorld {
            frame,
            now: clock.frame_start(frame),
            clock,
            config,
            measuring,
            traffic,
            members,
            terminals,
            metrics,
            estimator,
            adaptive_phy: AdaptivePhy::new(config.adaptive_phy),
            fixed_phy: FixedPhy::new(config.fixed_phy),
            bs_rng,
            scratch,
        }
    }

    /// Number of terminals in the whole scenario (across every cell).
    pub fn num_terminals(&self) -> usize {
        self.terminals.len()
    }

    /// The ids of the terminals attached to this base station, in attachment
    /// order.  This is the population a MAC protocol serves: in a multi-cell
    /// run, terminals of other cells are invisible here.
    pub fn members(&self) -> &'a [TerminalId] {
        self.members
    }

    /// Iterates over the member ids ([`FrameWorld::members`] as an
    /// iterator).
    pub fn terminal_ids(&self) -> impl Iterator<Item = TerminalId> + '_ {
        self.members.iter().copied()
    }

    // ----- per-terminal index accessors (the MAC-facing API) -----
    //
    // Each calls the one implementation on the column view.  The table
    // contract they cite: the table's construction licenses access to the
    // element — either it was built from `&mut TerminalColumns` (full
    // exclusivity) or by the system layer under the membership partition,
    // and protocols only reach terminals through member ids; `&mut self` on
    // the mutating accessors prevents a second live reference through this
    // world.

    /// The terminal's service class.
    pub fn class(&self, id: TerminalId) -> TerminalClass {
        // SAFETY: the table contract above.
        unsafe { self.terminals.view.class(id.index() as usize) }
    }

    /// Whether the terminal is currently in a talkspurt.
    pub fn in_talkspurt(&self, id: TerminalId) -> bool {
        // SAFETY: the table contract above.
        unsafe { self.terminals.view.in_talkspurt(id.index() as usize) }
    }

    /// Number of voice packets waiting in the terminal's transmit buffer.
    pub fn voice_backlog(&self, id: TerminalId) -> usize {
        // SAFETY: the table contract above.
        unsafe { self.terminals.view.voice_backlog(id.index() as usize) }
    }

    /// Number of data packets waiting in the terminal's transmit buffer.
    pub fn data_backlog(&self, id: TerminalId) -> u64 {
        // SAFETY: the table contract above.
        unsafe { self.terminals.view.data_backlog(id.index() as usize) }
    }

    /// Whether the terminal has anything to send.
    pub fn has_backlog(&self, id: TerminalId) -> bool {
        // SAFETY: the table contract above.
        unsafe { self.terminals.view.has_backlog(id.index() as usize) }
    }

    /// Earliest deadline among the terminal's buffered voice packets.
    pub fn earliest_voice_deadline(&self, id: TerminalId) -> Option<SimTime> {
        // SAFETY: the table contract above.
        unsafe {
            self.terminals
                .view
                .earliest_voice_deadline(id.index() as usize)
        }
    }

    /// Arrival time of the terminal's oldest buffered data packet.
    pub fn oldest_data_arrival(&self, id: TerminalId) -> Option<SimTime> {
        // SAFETY: the table contract above.
        unsafe { self.terminals.view.oldest_data_arrival(id.index() as usize) }
    }

    /// The terminal's true instantaneous SNR at the current frame start
    /// (memoised per frame in lazy channel mode).
    pub fn true_snr_db(&mut self, id: TerminalId) -> f64 {
        // SAFETY: the table contract above.
        unsafe {
            self.terminals
                .view
                .true_snr_db(id.index() as usize, self.now)
        }
    }

    /// Mutable access to the terminal's voice buffer (transmission engine
    /// and tests).
    pub fn voice_buffer_mut(&mut self, id: TerminalId) -> &mut VoiceBuffer {
        // SAFETY: the table contract above.
        unsafe { self.terminals.view.voice_buffer_mut(id.index() as usize) }
    }

    /// Mutable access to the terminal's data buffer (transmission engine
    /// and tests).
    pub fn data_buffer_mut(&mut self, id: TerminalId) -> &mut DataBuffer {
        // SAFETY: the table contract above.
        unsafe { self.terminals.view.data_buffer_mut(id.index() as usize) }
    }

    /// The terminal's contention random stream.
    pub fn contention_rng(&mut self, id: TerminalId) -> &mut Xoshiro256StarStar {
        // SAFETY: the table contract above.
        unsafe { self.terminals.view.contention_rng(id.index() as usize) }
    }

    /// The terminal's packet-error random stream (transmission engine).
    fn phy_rng(&mut self, id: TerminalId) -> &mut Xoshiro256StarStar {
        // SAFETY: the table contract above.
        unsafe { self.terminals.view.phy_rng(id.index() as usize) }
    }

    /// The metrics accumulator (protocols may add protocol-specific samples).
    pub fn metrics_mut(&mut self) -> &mut RunMetrics {
        self.metrics
    }

    /// The base-station random stream (auction draws, tie breaking, …).
    pub fn bs_rng(&mut self) -> &mut Xoshiro256StarStar {
        self.bs_rng
    }

    /// The adaptive PHY instance configured for this scenario.
    pub fn adaptive_phy(&self) -> &AdaptivePhy {
        &self.adaptive_phy
    }

    /// The fixed PHY instance configured for this scenario.
    pub fn fixed_phy(&self) -> &FixedPhy {
        &self.fixed_phy
    }

    /// Records that the frame structure offered `n` information slots this
    /// frame (for the utilisation statistics).
    pub fn record_offered_slots(&mut self, n: u32) {
        if self.measuring {
            self.metrics.slots.offered += n as f64;
        }
    }

    /// Records `slots` slot-equivalents of airtime that were allocated to a
    /// terminal but could not carry any packet (e.g. a CSI-blind protocol
    /// allocated a slot to a terminal in a deep fade).  The paper calls these
    /// wasted slots.
    pub fn record_wasted_slots(&mut self, slots: f64) {
        if self.measuring {
            self.metrics.slots.assigned += slots;
            self.metrics.slots.wasted += slots;
        }
    }

    /// Permission probability applicable to a terminal class.
    pub fn permission_probability(&self, class: TerminalClass) -> f64 {
        match class {
            TerminalClass::Voice => self.config.contention.pv,
            TerminalClass::Data => self.config.contention.pd,
        }
    }

    /// Runs the slotted request-contention phase over `n_slots` request
    /// minislots for the given eligible terminals and returns the ids whose
    /// request was successfully received, in acknowledgement order.
    ///
    /// In each minislot every still-unacknowledged eligible terminal
    /// transmits a request with its class's permission probability; if
    /// exactly one transmits the request is received and acknowledged,
    /// otherwise all transmissions in that minislot are destroyed (no capture
    /// effect), and the losers retry in the next minislot.
    pub fn contend(&mut self, n_slots: u32, eligible: &[TerminalId]) -> Vec<TerminalId> {
        let mut winners = Vec::new();
        self.contend_into(n_slots, eligible, &mut winners);
        winners
    }

    /// Allocation-free variant of [`Self::contend`]: clears `winners` and
    /// fills it with the acknowledged terminals in acknowledgement order,
    /// reusing its capacity.  The per-minislot bookkeeping lives in the
    /// scenario-owned [`FrameScratch`], so a protocol that passes a reusable
    /// buffer here runs the whole request phase without heap allocation.
    pub fn contend_into(
        &mut self,
        n_slots: u32,
        eligible: &[TerminalId],
        winners: &mut Vec<TerminalId>,
    ) {
        winners.clear();
        if eligible.is_empty() || n_slots == 0 {
            return;
        }
        // Detach the scratch buffers so the minislot loop can borrow
        // terminals and metrics through `self`.
        let mut remaining = std::mem::take(&mut self.scratch.contend_remaining);
        let mut transmitters = std::mem::take(&mut self.scratch.contend_transmitters);
        remaining.clear();
        remaining.extend_from_slice(eligible);
        let (pv, pd) = (self.config.contention.pv, self.config.contention.pd);
        for _slot in 0..n_slots {
            if remaining.is_empty() {
                break;
            }
            transmitters.clear();
            for (pos, &id) in remaining.iter().enumerate() {
                let p = match self.class(id) {
                    TerminalClass::Voice => pv,
                    TerminalClass::Data => pd,
                };
                if Sampler::bernoulli(self.contention_rng(id), p) {
                    transmitters.push(pos);
                }
            }
            if self.measuring {
                self.metrics.contention.attempts += transmitters.len() as u64;
            }
            match transmitters.len() {
                1 => {
                    let winner = remaining.remove(transmitters[0]);
                    winners.push(winner);
                    if self.measuring {
                        self.metrics.contention.successes += 1;
                    }
                }
                0 => {}
                n => {
                    if self.measuring {
                        self.metrics.contention.collisions += n as u64;
                    }
                }
            }
        }
        self.scratch.contend_remaining = remaining;
        self.scratch.contend_transmitters = transmitters;
    }

    /// Produces a CSI estimate for a terminal from pilot symbols observed at
    /// the current frame start (used for new requests and CSI polling).
    pub fn estimate_csi(&mut self, id: TerminalId) -> CsiEstimate {
        let true_snr = self.true_snr_db(id);
        self.estimator.estimate(true_snr, self.now)
    }

    /// How long a CSI estimate stays valid before CHARISMA must refresh it.
    pub fn csi_validity(&self) -> charisma_des::SimDuration {
        self.estimator.config().validity
    }

    /// The slot capacity (packets per information slot) a grant enjoys under
    /// the given link adaptation, evaluated for terminal `id` *now*.
    pub fn capacity(&mut self, id: TerminalId, link: LinkAdaptation) -> f64 {
        match link {
            LinkAdaptation::Fixed => self.fixed_phy.packets_per_slot(0.0),
            LinkAdaptation::Tracking => {
                let snr = self.true_snr_db(id);
                self.adaptive_phy.packets_per_slot(snr)
            }
            LinkAdaptation::Announced { snr_db } => self.adaptive_phy.packets_per_slot(snr_db),
        }
    }

    /// Per-packet error probability for a transmission by terminal `id` right
    /// now under the given link adaptation.
    fn error_probability(&mut self, id: TerminalId, link: LinkAdaptation) -> f64 {
        let true_snr = self.true_snr_db(id);
        match link {
            LinkAdaptation::Fixed => self.fixed_phy.packet_error_probability(true_snr),
            LinkAdaptation::Tracking => self.adaptive_phy.packet_error_probability(true_snr),
            LinkAdaptation::Announced { snr_db } => self
                .adaptive_phy
                .announced_packet_error_probability(snr_db, true_snr),
        }
    }

    /// Transmits one voice packet of terminal `id` using `slots`
    /// slot-equivalents of airtime under the given link adaptation.
    ///
    /// Slot amounts are fractional: a terminal enjoying normalised throughput
    /// 5 fits its packet into one fifth of an information slot, which is how
    /// the adaptive protocols pack more voice users into the same frame.
    pub fn transmit_voice(&mut self, id: TerminalId, slots: f64, link: LinkAdaptation) -> VoiceTx {
        if slots <= 0.0 {
            return VoiceTx::InsufficientCapacity;
        }
        let capacity = self.capacity(id, link);
        if slots * capacity + 1e-9 < 1.0 {
            return VoiceTx::InsufficientCapacity;
        }
        let per = self.error_probability(id, link);
        let measuring = self.measuring;
        if self.voice_buffer_mut(id).pop().is_none() {
            return VoiceTx::NoPacket;
        }
        let ok = Sampler::bernoulli(self.phy_rng(id), 1.0 - per);
        if measuring {
            self.metrics.slots.assigned += slots;
            if ok {
                self.metrics.voice.delivered += 1;
                self.metrics.slots.packets_carried += 1;
            } else {
                self.metrics.voice.transmission_errors += 1;
                self.metrics.slots.wasted += slots;
            }
        }
        if ok {
            VoiceTx::Delivered
        } else {
            VoiceTx::Errored
        }
    }

    /// Pops one voice packet of terminal `id` and records it as lost to a
    /// transmission error while charging `slots` slot-equivalents of wasted
    /// airtime.
    ///
    /// This models a CSI-blind allocation whose grant cannot carry the packet
    /// at the terminal's current channel state (the terminal is in outage, or
    /// its adaptive PHY fell to a sub-unit rate while the MAC granted a single
    /// slot): the airtime is spent, the packet is corrupted, and the paper
    /// counts it as a transmission error (Section 5.3.1).  Returns `false`
    /// when the terminal had no packet to lose.
    pub fn fail_voice(&mut self, id: TerminalId, slots: f64) -> bool {
        let measuring = self.measuring;
        if self.voice_buffer_mut(id).pop().is_none() {
            return false;
        }
        if measuring {
            self.metrics.voice.transmission_errors += 1;
            self.metrics.slots.assigned += slots;
            self.metrics.slots.wasted += slots;
        }
        true
    }

    /// Transmits up to `max_packets` data packets of terminal `id` using
    /// `slots` slot-equivalents of airtime under the given link adaptation.
    /// Corrupted packets stay at the head of the terminal's buffer
    /// (retransmission) and keep their original arrival time, so their
    /// eventual delivery delay includes the retransmission time — matching
    /// the paper's definition.
    pub fn transmit_data(
        &mut self,
        id: TerminalId,
        slots: f64,
        max_packets: u32,
        link: LinkAdaptation,
    ) -> DataTx {
        if slots <= 0.0 || max_packets == 0 {
            return DataTx::default();
        }
        let capacity = self.capacity(id, link);
        let by_capacity = (slots * capacity + 1e-9).floor() as u32;
        let budget = by_capacity.min(max_packets);
        if budget == 0 {
            return DataTx::default();
        }
        let per = self.error_probability(id, link);
        let now = self.now;
        let measuring = self.measuring;

        // Detach the scratch buffers so the draw loop can borrow the terminal
        // columns and the metrics simultaneously.
        let mut runs = std::mem::take(&mut self.scratch.data_runs);
        let mut requeue = std::mem::take(&mut self.scratch.data_requeue);
        requeue.clear();

        self.data_buffer_mut(id).pop_into(budget, &mut runs);
        if runs.is_empty() {
            self.scratch.data_runs = runs;
            self.scratch.data_requeue = requeue;
            return DataTx::default();
        }

        let mut result = DataTx::default();
        // Packets that error are pushed back to the front, preserving their
        // original arrival time and FIFO position.
        for run in &runs {
            for _ in 0..run.count {
                let ok = Sampler::bernoulli(self.phy_rng(id), 1.0 - per);
                if ok {
                    result.delivered += 1;
                    if measuring {
                        self.metrics
                            .data
                            .record_delivery(now.saturating_duration_since(run.arrived_at));
                        self.metrics.slots.packets_carried += 1;
                    }
                } else {
                    result.errored += 1;
                    if measuring {
                        self.metrics.data.retransmissions += 1;
                    }
                    requeue.push((run.arrived_at, 1));
                }
            }
        }
        // Re-insert errored packets at the front in their original order.
        for &(arrived, count) in requeue.iter().rev() {
            self.data_buffer_mut(id).push_front(arrived, count);
        }
        self.scratch.data_runs = runs;
        self.scratch.data_requeue = requeue;

        if measuring {
            self.metrics.slots.assigned += slots;
            if result.delivered == 0 {
                self.metrics.slots.wasted += slots;
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columns::TerminalColumns;
    use crate::config::SimConfig;
    use crate::terminal::Terminal;
    use charisma_des::RngStreams;
    use charisma_radio::CsiEstimatorConfig;

    /// Builds a tiny world over `n_voice` voice and `n_data` data terminals,
    /// runs `setup_frames` traffic frames first so buffers are non-empty, and
    /// hands the pieces to the test closure.
    fn with_world<R>(
        n_voice: u32,
        n_data: u32,
        setup_frames: u64,
        f: impl FnOnce(FrameWorld<'_>) -> R,
    ) -> R {
        let mut config = SimConfig::quick_test();
        config.num_voice = n_voice;
        config.num_data = n_data;
        let streams = RngStreams::new(config.seed);
        let clock = config.clock();
        let mut columns =
            TerminalColumns::with_capacity(clock, config.channel_mode, (n_voice + n_data) as usize);
        for i in 0..n_voice + n_data {
            let class = if i < n_voice {
                TerminalClass::Voice
            } else {
                TerminalClass::Data
            };
            columns.push(Terminal::new(
                TerminalId(i),
                class,
                clock,
                config.voice_source,
                config.data_source,
                config.channel,
                config.channel_mode,
                &config.speed,
                &streams,
            ));
        }
        let mut traffic = vec![FrameTraffic::default(); columns.len()];
        for k in 0..=setup_frames {
            columns.begin_frame_all(k, &mut traffic);
        }
        let mut metrics = RunMetrics::default();
        let mut estimator = CsiEstimator::new(
            CsiEstimatorConfig::default(),
            streams.stream(charisma_des::StreamId::new(
                charisma_des::StreamId::DOMAIN_ESTIMATION,
                u32::MAX,
            )),
        );
        let mut bs_rng = streams.stream(charisma_des::StreamId::new(
            charisma_des::StreamId::DOMAIN_PROTOCOL,
            u32::MAX,
        ));
        let mut scratch = FrameScratch::default();
        let members: Vec<TerminalId> = (0..n_voice + n_data).map(TerminalId).collect();
        let world = FrameWorld::new(
            setup_frames,
            &config,
            true,
            &traffic,
            &members,
            &mut columns,
            &mut metrics,
            &mut estimator,
            &mut bs_rng,
            &mut scratch,
        );
        f(world)
    }

    #[test]
    fn contention_with_single_contender_eventually_succeeds() {
        with_world(4, 0, 0, |mut w| {
            let ids = [TerminalId(0)];
            // With pv = 0.3 and 5 slots the single contender succeeds with
            // probability 1 − 0.7⁵ ≈ 0.83; repeat frames are not possible here
            // so just check the outcome is well formed.
            let winners = w.contend(w.config.frame.request_slots, &ids);
            assert!(winners.len() <= 1);
            if !winners.is_empty() {
                assert_eq!(winners[0], TerminalId(0));
            }
        });
    }

    #[test]
    fn contention_never_acknowledges_more_than_slots_or_contenders() {
        with_world(30, 10, 0, |mut w| {
            let ids: Vec<TerminalId> = w.terminal_ids().collect();
            let winners = w.contend(3, &ids);
            assert!(winners.len() <= 3);
            // No duplicates.
            let mut sorted = winners.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), winners.len());
        });
    }

    #[test]
    fn contention_counts_attempts_and_collisions() {
        with_world(60, 0, 0, |mut w| {
            let ids: Vec<TerminalId> = w.terminal_ids().collect();
            let _ = w.contend(5, &ids);
            let c = &w.metrics_mut().contention;
            assert!(c.attempts > 0, "some attempts should be made");
            assert_eq!(
                c.attempts,
                c.collisions + c.successes + (c.attempts - c.collisions - c.successes)
            );
            // With 60 contenders at pv=0.3 nearly every slot collides.
            assert!(c.collisions > 0);
        });
    }

    #[test]
    fn transmit_voice_requires_a_buffered_packet() {
        with_world(1, 0, 0, |mut w| {
            // Frame 0: the terminal may or may not have generated a packet;
            // drain the buffer first to force the NoPacket path.
            while w.voice_buffer_mut(TerminalId(0)).pop().is_some() {}
            let r = w.transmit_voice(TerminalId(0), 1.0, LinkAdaptation::Fixed);
            assert_eq!(r, VoiceTx::NoPacket);
        });
    }

    #[test]
    fn transmit_voice_delivers_or_errors_and_updates_metrics() {
        with_world(1, 0, 0, |mut w| {
            use charisma_traffic::buffer::VoicePacket;
            let now = w.now;
            w.voice_buffer_mut(TerminalId(0)).push(VoicePacket {
                generated_at: now,
                deadline: now + charisma_des::SimDuration::from_millis(20),
            });
            let r = w.transmit_voice(TerminalId(0), 1.0, LinkAdaptation::Fixed);
            assert!(matches!(r, VoiceTx::Delivered | VoiceTx::Errored));
            let m = w.metrics_mut();
            assert_eq!(m.voice.delivered + m.voice.transmission_errors, 1);
            assert!((m.slots.assigned - 1.0).abs() < 1e-9);
        });
    }

    #[test]
    fn announced_link_with_wildly_optimistic_csi_errors_out() {
        with_world(1, 0, 0, |mut w| {
            use charisma_traffic::buffer::VoicePacket;
            let now = w.now;
            w.voice_buffer_mut(TerminalId(0)).push(VoicePacket {
                generated_at: now,
                deadline: now + charisma_des::SimDuration::from_millis(20),
            });
            // Announce a 60 dB estimate: the true channel is far below, so the
            // announced (densest) mode cannot be sustained.
            let r = w.transmit_voice(
                TerminalId(0),
                1.0,
                LinkAdaptation::Announced { snr_db: 60.0 },
            );
            // With outage_per = 0.7 the packet usually errors; both outcomes
            // are legal but the error probability used must be the outage one,
            // which we verify through statistics over many draws elsewhere.
            assert!(matches!(r, VoiceTx::Delivered | VoiceTx::Errored));
        });
    }

    #[test]
    fn insufficient_capacity_keeps_the_packet_queued() {
        with_world(1, 0, 0, |mut w| {
            use charisma_traffic::buffer::VoicePacket;
            let now = w.now;
            w.voice_buffer_mut(TerminalId(0)).push(VoicePacket {
                generated_at: now,
                deadline: now + charisma_des::SimDuration::from_millis(20),
            });
            // Announcing a deep-outage CSI yields zero capacity: nothing sent.
            let r = w.transmit_voice(
                TerminalId(0),
                1.0,
                LinkAdaptation::Announced { snr_db: -40.0 },
            );
            assert_eq!(r, VoiceTx::InsufficientCapacity);
            assert_eq!(w.voice_backlog(TerminalId(0)), 1);
        });
    }

    #[test]
    fn transmit_data_moves_packets_and_measures_delay() {
        with_world(0, 1, 0, |mut w| {
            let now = w.now;
            w.data_buffer_mut(TerminalId(0)).push_burst(now, 50);
            let r = w.transmit_data(TerminalId(0), 4.0, 10, LinkAdaptation::Fixed);
            assert_eq!(r.delivered + r.errored, 4); // 4 slots × 1 pkt/slot, cap 10
            assert_eq!(w.data_backlog(TerminalId(0)), 50 - r.delivered as u64);
            let m = w.metrics_mut();
            assert_eq!(m.data.delivered, r.delivered as u64);
            assert_eq!(m.data.retransmissions, r.errored as u64);
        });
    }

    #[test]
    fn transmit_data_respects_packet_cap() {
        with_world(0, 1, 0, |mut w| {
            let now = w.now;
            w.data_buffer_mut(TerminalId(0)).push_burst(now, 50);
            let r = w.transmit_data(TerminalId(0), 8.0, 3, LinkAdaptation::Fixed);
            assert!(r.delivered + r.errored <= 3);
        });
    }

    #[test]
    fn errored_data_packets_keep_their_arrival_time() {
        with_world(0, 1, 0, |mut w| {
            let arrival = w.now;
            w.data_buffer_mut(TerminalId(0)).push_burst(arrival, 5);
            // Force certain errors by announcing an absurd mode.
            let r = w.transmit_data(
                TerminalId(0),
                1.0,
                5,
                LinkAdaptation::Announced { snr_db: 55.0 },
            );
            if r.errored > 0 {
                assert_eq!(w.oldest_data_arrival(TerminalId(0)), Some(arrival));
            }
        });
    }

    #[test]
    fn csi_estimates_are_timestamped_with_frame_start() {
        with_world(1, 0, 4, |mut w| {
            let est = w.estimate_csi(TerminalId(0));
            assert_eq!(est.estimated_at, w.now);
            assert!(est.snr_db.is_finite());
        });
    }

    #[test]
    fn snr_dependent_quantities_share_one_channel_evaluation_per_frame() {
        // Within one frame, capacity under the tracking PHY must be perfectly
        // repeatable: every query goes through the terminal's per-frame SNR
        // cache instead of re-sampling the channel.
        with_world(1, 1, 4, |mut w| {
            let id = TerminalId(0);
            let c0 = w.capacity(id, LinkAdaptation::Tracking);
            for _ in 0..4 {
                assert_eq!(w.capacity(id, LinkAdaptation::Tracking), c0);
            }
            // The underlying SNR itself is also stable across repeated reads.
            let snr = w.true_snr_db(id);
            assert_eq!(w.true_snr_db(id), snr);
            // And a transmission (capacity + error probability) does not
            // perturb the cached value either.
            let _ = w.transmit_data(TerminalId(1), 1.0, 1, LinkAdaptation::Tracking);
            assert_eq!(w.true_snr_db(id), snr);
        });
    }

    #[test]
    fn contend_into_reuses_the_caller_buffer() {
        with_world(30, 0, 0, |mut w| {
            let ids: Vec<TerminalId> = w.terminal_ids().collect();
            let mut winners = Vec::new();
            w.contend_into(3, &ids, &mut winners);
            assert!(winners.len() <= 3);
            // Once warmed up, repeated calls must not grow the buffer: the
            // winner count is bounded by the slot count, so the capacity
            // reached after the first call is reused, never re-allocated.
            let warmed = winners.capacity();
            for _ in 0..16 {
                w.contend_into(3, &ids, &mut winners);
                assert!(winners.len() <= 3);
                assert_eq!(
                    winners.capacity(),
                    warmed,
                    "contend_into must reuse the caller's buffer"
                );
            }
        });
    }

    #[test]
    fn capacity_fixed_is_one_and_announced_tracks_estimate() {
        with_world(1, 0, 0, |mut w| {
            assert_eq!(w.capacity(TerminalId(0), LinkAdaptation::Fixed), 1.0);
            assert_eq!(
                w.capacity(TerminalId(0), LinkAdaptation::Announced { snr_db: 30.0 }),
                5.0
            );
            assert_eq!(
                w.capacity(TerminalId(0), LinkAdaptation::Announced { snr_db: -40.0 }),
                0.0
            );
        });
    }
}
