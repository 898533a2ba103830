//! Structure-of-arrays storage for protocol-independent terminal state.
//!
//! [`TerminalColumns`] owns the per-terminal state of a whole population as
//! parallel columns — one contiguous array per field — instead of a
//! `Vec<Terminal>` of ~300-byte structs.  The per-frame sweep (source
//! stepping, deadline expiry, fading advance, SNR sampling) then runs as
//! tight loops over the columns it actually touches, which is what lets the
//! frame loop batch well at 10k+ terminals per cell.
//!
//! # Column layout
//!
//! Terminals are pushed in index order, so column slot `i` is terminal
//! `TerminalId(i)` everywhere in the store.  The columns are:
//!
//! | column              | element                      | written by                 |
//! |---------------------|------------------------------|----------------------------|
//! | `class`             | `TerminalClass`              | construction only          |
//! | `active_from_frame` | `u64`                        | construction only          |
//! | `in_talkspurt`      | `bool`                       | traffic step               |
//! | `traffic_boundary`  | `u64`                        | traffic step               |
//! | `voice_source`      | `Option<VoiceSource>`        | traffic step               |
//! | `voice_buffer`      | `VoiceBuffer`                | traffic step, MAC serving  |
//! | `data_source`       | `Option<DataSource>`         | traffic step               |
//! | `data_buffer`       | `DataBuffer`                 | traffic step, MAC serving  |
//! | `link`              | `f64`                        | push, roam, migrate        |
//! | `shadow_db`         | `f64`                        | push, migrate              |
//! | `short`             | `ShortTermFading`            | channel advance            |
//! | `long`              | `LongTermShadowing`          | channel advance            |
//! | `chan_rng`          | `Xoshiro256StarStar`         | channel advance            |
//! | `chan_now`          | `SimTime`                    | channel advance            |
//! | `snr_cache`         | `Option<(SimTime, f64)>`     | SNR sampling               |
//! | `contention_rng`    | `Xoshiro256StarStar`         | contention draws           |
//! | `phy_rng`           | `Xoshiro256StarStar`         | packet-error draws         |
//!
//! A single-cell population has no path-loss profile: its `link` holds the
//! constant mean SNR in dB and `shadow_db` is zero and unread.  A system
//! population stores its [`PathLossConfig`] once on the store, `link` holds
//! the terminal's distance in metres to its serving base station, and
//! `shadow_db` the site-shadowing offset of that link.  The mean SNR
//! `path_loss.mean_snr_db(link) + shadow_db` is then evaluated only when the
//! channel is sampled: per frame the base station samples the channels of a
//! few terminals (request pilots, CSI polls, transmissions), while the roam
//! phase moves every terminal.
//!
//! # Determinism
//!
//! The columnar refactor changes *layout*, not *draws*: every random stream
//! is still private to one (domain, terminal) pair, every per-terminal
//! operation performs exactly the draws and floating-point operations the
//! object-per-terminal code performed, and batched loops visit terminals in
//! ascending index order — the documented draw order.  The golden-bytes
//! suite in `tests/determinism.rs` pins pre-refactor report bytes against
//! this implementation.
//!
//! # Access layers
//!
//! Each per-terminal operation has exactly one implementation, on
//! `ColumnsView`: the crate-internal raw handle, a bundle of column base
//! pointers that the sharded system layer copies into its per-cell workers.
//! Exclusivity is by *cell membership partition* — every terminal index
//! belongs to exactly one cell per frame, and a worker only touches the
//! indices of the cells it owns — so the whole aliasing argument lives in
//! one type.  MAC protocols never see the view: they address terminals by id
//! through [`crate::world::FrameWorld`], whose accessors call the view
//! directly.  The traffic step itself (`step_traffic`) is one function
//! behind both frame entries, the whole-population
//! [`TerminalColumns::begin_frame_all`] and the roam phase's per-terminal
//! `ColumnsView::begin_frame`.  The link columns have one writer per
//! population kind: `push` for a single-cell store, and for a system
//! population `push_at` at construction, `ColumnsView::set_serving_distance`
//! in the roam phase and `ColumnsView::set_link` when a terminal migrates.
//! `ColumnsView::snr_db` is their only reader.

use charisma_des::{FrameClock, SimTime, Xoshiro256StarStar};
use charisma_radio::{ChannelMode, LongTermShadowing, PathLossConfig, ShortTermFading};
use charisma_traffic::{
    buffer::VoicePacket, DataBuffer, DataSource, TerminalClass, VoiceBuffer, VoiceSource,
};

use crate::terminal::{FrameTraffic, Terminal};

/// Population-wide sums of one frame boundary's traffic events, accumulated
/// by [`TerminalColumns::begin_frame_all`] alongside the per-terminal
/// [`FrameTraffic`] reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficTotals {
    /// Voice packets generated at this boundary.
    pub voice_generated: u64,
    /// Voice packets dropped at this boundary (deadline expiry).
    pub voice_dropped: u64,
    /// Data packets that arrived at this boundary.
    pub data_arrived: u64,
}

/// Structure-of-arrays store of every terminal's protocol-independent state.
///
/// Built by pushing [`Terminal`] construction records in index order; from
/// then on all per-frame behaviour (traffic advance, channel stepping, SNR
/// sampling, buffer service) is expressed over column indices.
#[derive(Debug)]
pub struct TerminalColumns {
    clock: FrameClock,
    channel_mode: ChannelMode,
    /// The system layer's path-loss profile; `None` for a single-cell
    /// population (see the module docs for what `link` holds in each case).
    path_loss: Option<PathLossConfig>,
    class: Vec<TerminalClass>,
    active_from_frame: Vec<u64>,
    in_talkspurt: Vec<bool>,
    /// First frame index at which the traffic step must do any work for the
    /// terminal: the earlier of the next source event (clamped to the
    /// activation frame while dormant) and the first frame boundary at or
    /// past the earliest buffered voice deadline.  Frames strictly before it
    /// are total no-ops — no source step, no expiry, no report — which is
    /// what lets the per-frame sweep skip idle terminals without touching
    /// their buffers.  MAC service between sweeps only removes packets, so
    /// the deadline component can only move later and the stored bound stays
    /// conservative.
    traffic_boundary: Vec<u64>,
    voice_source: Vec<Option<VoiceSource>>,
    voice_buffer: Vec<VoiceBuffer>,
    data_source: Vec<Option<DataSource>>,
    data_buffer: Vec<DataBuffer>,
    link: Vec<f64>,
    shadow_db: Vec<f64>,
    short: Vec<ShortTermFading>,
    long: Vec<LongTermShadowing>,
    chan_rng: Vec<Xoshiro256StarStar>,
    chan_now: Vec<SimTime>,
    snr_cache: Vec<Option<(SimTime, f64)>>,
    contention_rng: Vec<Xoshiro256StarStar>,
    phy_rng: Vec<Xoshiro256StarStar>,
}

impl TerminalColumns {
    /// Creates an empty store for a population driven by `clock` whose
    /// channels advance in `channel_mode`.
    pub fn new(clock: FrameClock, channel_mode: ChannelMode) -> Self {
        Self::with_capacity(clock, channel_mode, 0)
    }

    /// Like [`TerminalColumns::new`] with pre-allocated column capacity.
    pub fn with_capacity(clock: FrameClock, channel_mode: ChannelMode, capacity: usize) -> Self {
        Self::with_link(clock, channel_mode, capacity, None)
    }

    /// A system population whose mean SNR follows `path_loss`; terminals
    /// join it through [`TerminalColumns::push_at`].
    pub(crate) fn with_path_loss(
        clock: FrameClock,
        channel_mode: ChannelMode,
        capacity: usize,
        path_loss: PathLossConfig,
    ) -> Self {
        Self::with_link(clock, channel_mode, capacity, Some(path_loss))
    }

    fn with_link(
        clock: FrameClock,
        channel_mode: ChannelMode,
        capacity: usize,
        path_loss: Option<PathLossConfig>,
    ) -> Self {
        TerminalColumns {
            clock,
            channel_mode,
            path_loss,
            class: Vec::with_capacity(capacity),
            active_from_frame: Vec::with_capacity(capacity),
            in_talkspurt: Vec::with_capacity(capacity),
            traffic_boundary: Vec::with_capacity(capacity),
            voice_source: Vec::with_capacity(capacity),
            voice_buffer: Vec::with_capacity(capacity),
            data_source: Vec::with_capacity(capacity),
            data_buffer: Vec::with_capacity(capacity),
            link: Vec::with_capacity(capacity),
            shadow_db: Vec::with_capacity(capacity),
            short: Vec::with_capacity(capacity),
            long: Vec::with_capacity(capacity),
            chan_rng: Vec::with_capacity(capacity),
            chan_now: Vec::with_capacity(capacity),
            snr_cache: Vec::with_capacity(capacity),
            contention_rng: Vec::with_capacity(capacity),
            phy_rng: Vec::with_capacity(capacity),
        }
    }

    /// Decomposes `terminal` into the columns of a single-cell store, whose
    /// mean SNR stays the channel configuration's.  Terminals must be pushed
    /// in ascending index order so slot `i` is `TerminalId(i)`.
    ///
    /// # Panics
    ///
    /// Panics on a store with a path-loss profile, which the system layer
    /// fills with each terminal's serving distance instead.
    pub fn push(&mut self, terminal: Terminal) {
        assert!(
            self.path_loss.is_none(),
            "a path-loss population places each terminal with push_at"
        );
        let mean_snr_db = terminal.channel.config().mean_snr_db;
        self.push_link(terminal, mean_snr_db, 0.0);
    }

    /// Decomposes `terminal` into the columns of a system population,
    /// `distance_m` from its serving base station with site shadowing
    /// `shadow_db` on that link.  Index order as for
    /// [`TerminalColumns::push`].
    pub(crate) fn push_at(&mut self, terminal: Terminal, distance_m: f64, shadow_db: f64) {
        assert!(
            self.path_loss.is_some(),
            "push_at needs a population with a path-loss profile"
        );
        check_distance(distance_m);
        check_shadow(shadow_db);
        self.push_link(terminal, distance_m, shadow_db);
    }

    fn push_link(&mut self, terminal: Terminal, link: f64, shadow_db: f64) {
        let Terminal {
            id,
            class,
            clock,
            voice_source,
            voice_buffer,
            data_source,
            data_buffer,
            channel,
            channel_mode,
            contention_rng,
            phy_rng,
            in_talkspurt,
            active_from_frame,
        } = terminal;
        debug_assert_eq!(
            id.index() as usize,
            self.class.len(),
            "terminals must be pushed in index order"
        );
        debug_assert_eq!(clock, self.clock, "terminal clock mismatch");
        debug_assert_eq!(
            channel_mode, self.channel_mode,
            "terminal channel mode mismatch"
        );
        let channel = channel.into_parts();
        self.class.push(class);
        self.active_from_frame.push(active_from_frame);
        self.in_talkspurt.push(in_talkspurt);
        self.traffic_boundary.push(Self::boundary_for(
            &voice_source,
            &data_source,
            &voice_buffer,
            active_from_frame,
            0,
            self.clock.frame_duration().as_micros(),
        ));
        self.voice_source.push(voice_source);
        self.voice_buffer.push(voice_buffer);
        self.data_source.push(data_source);
        self.data_buffer.push(data_buffer);
        self.link.push(link);
        self.shadow_db.push(shadow_db);
        self.short.push(channel.short);
        self.long.push(channel.long);
        self.chan_rng.push(channel.rng);
        self.chan_now.push(channel.now);
        self.snr_cache.push(None);
        self.contention_rng.push(contention_rng);
        self.phy_rng.push(phy_rng);
    }

    /// First frame at which the traffic step must do any work for a terminal
    /// in this state: the earlier of the two sources' next events — clamped
    /// to the activation frame while the next frame to visit (`frame_index`)
    /// is at or before it, so the activation boundary itself is never skipped
    /// and `in_talkspurt` / buffer state update there exactly as in the
    /// every-frame path — and the first frame boundary at or past the
    /// earliest buffered voice deadline (the first frame whose expiry check
    /// could drop a packet; a packet with deadline `d` is dropped at the
    /// first frame start `k·T ≥ d`, i.e. `k = ⌈d / T⌉`).
    fn boundary_for(
        voice: &Option<VoiceSource>,
        data: &Option<DataSource>,
        voice_buffer: &VoiceBuffer,
        active_from_frame: u64,
        frame_index: u64,
        frame_us: u64,
    ) -> u64 {
        let mut b = voice
            .as_ref()
            .map_or(u64::MAX, |s| s.next_event_frame())
            .min(data.as_ref().map_or(u64::MAX, |s| s.next_event_frame()));
        if frame_index <= active_from_frame {
            b = b.min(active_from_frame);
        }
        // Every buffered deadline survived the expiry check of the frame just
        // processed, so its drop frame is at least `frame_index` — when `b` is
        // already down there the min cannot lower it, and the division (and
        // the buffer read) is skipped.  A terminal mid-talkspurt generates a
        // packet next frame, so the hot path never pays for this bound.
        if b > frame_index {
            if let Some(d) = voice_buffer.earliest_deadline() {
                b = b.min(d.as_micros().div_ceil(frame_us));
            }
        }
        b
    }

    /// Number of terminals in the store.
    pub fn len(&self) -> usize {
        self.class.len()
    }

    /// Whether the store holds no terminals.
    pub fn is_empty(&self) -> bool {
        self.class.is_empty()
    }

    /// The frame clock the population is driven by.
    pub fn clock(&self) -> FrameClock {
        self.clock
    }

    /// How the channels advance along the frame grid.
    pub fn channel_mode(&self) -> ChannelMode {
        self.channel_mode
    }

    /// The raw column view used by the frame engine and the sharded system
    /// layer.  Column base pointers stay valid for as long as no terminal is
    /// pushed (the vectors never reallocate otherwise).
    pub(crate) fn view(&mut self) -> ColumnsView {
        ColumnsView {
            len: self.class.len(),
            clock: self.clock,
            channel_mode: self.channel_mode,
            path_loss: self.path_loss,
            class: self.class.as_mut_ptr(),
            active_from_frame: self.active_from_frame.as_mut_ptr(),
            in_talkspurt: self.in_talkspurt.as_mut_ptr(),
            traffic_boundary: self.traffic_boundary.as_mut_ptr(),
            voice_source: self.voice_source.as_mut_ptr(),
            voice_buffer: self.voice_buffer.as_mut_ptr(),
            data_source: self.data_source.as_mut_ptr(),
            data_buffer: self.data_buffer.as_mut_ptr(),
            link: self.link.as_mut_ptr(),
            shadow_db: self.shadow_db.as_mut_ptr(),
            short: self.short.as_mut_ptr(),
            long: self.long.as_mut_ptr(),
            chan_rng: self.chan_rng.as_mut_ptr(),
            chan_now: self.chan_now.as_mut_ptr(),
            snr_cache: self.snr_cache.as_mut_ptr(),
            contention_rng: self.contention_rng.as_mut_ptr(),
            phy_rng: self.phy_rng.as_mut_ptr(),
        }
    }

    /// Advances every terminal across the boundary that starts
    /// `frame_index`, in ascending index order — the documented draw order —
    /// writing each terminal's report into `traffic` and returning the
    /// population-wide totals (so single-cell scenario loops don't need a
    /// second accumulation pass).
    pub fn begin_frame_all(
        &mut self,
        frame_index: u64,
        traffic: &mut [FrameTraffic],
    ) -> TrafficTotals {
        assert_eq!(traffic.len(), self.len(), "traffic slice length mismatch");
        let now = self.clock.frame_start(frame_index);
        if self.channel_mode == ChannelMode::Eager {
            // Same draws as the interleaved per-terminal path: the channel
            // streams are per-terminal, so hoisting the channel sweep out of
            // the traffic loop is loop fission across independent streams and
            // changes no draw.
            let view = self.view();
            for i in 0..view.len() {
                // SAFETY: `&mut self` is exclusive access to every terminal.
                unsafe { view.advance_channel_eager(i, now) };
            }
        }
        // The traffic half runs over zipped column slices (exclusive
        // `&mut self` — no raw view needed, bounds checks elided by the zips).
        let frame_us = self.clock.frame_duration().as_micros();
        let mut totals = TrafficTotals::default();
        // One sequential clear up front turns the common no-event slot writes
        // into a single memset; the sweep then touches a slot only when the
        // terminal was not skipped (identical slice contents).
        traffic.fill(FrameTraffic::default());
        for (((((slot, vbuf), boundary), (vsrc, dsrc)), dbuf), (talk, &active_from)) in traffic
            .iter_mut()
            .zip(self.voice_buffer.iter_mut())
            .zip(self.traffic_boundary.iter_mut())
            .zip(
                self.voice_source
                    .iter_mut()
                    .zip(self.data_source.iter_mut()),
            )
            .zip(self.data_buffer.iter_mut())
            .zip(
                self.in_talkspurt
                    .iter_mut()
                    .zip(self.active_from_frame.iter()),
            )
        {
            let Some(out) = step_traffic(
                frame_index,
                now,
                frame_us,
                active_from,
                boundary,
                talk,
                vsrc,
                vbuf,
                dsrc,
                dbuf,
            ) else {
                continue;
            };
            totals.voice_generated += out.voice_packet_generated as u64;
            totals.voice_dropped += out.voice_packets_dropped as u64;
            totals.data_arrived += out.data_packets_arrived as u64;
            *slot = out;
        }
        totals
    }
}

/// Advances one terminal's traffic across the boundary that starts
/// `frame_index` (at instant `now`): deadline expiry, source stepping,
/// dormancy and the `traffic_boundary` refresh.  The one implementation of
/// the traffic step, shared by [`TerminalColumns::begin_frame_all`] and the
/// roam phase's per-terminal [`ColumnsView::begin_frame`].
///
/// Returns `None` for a frame strictly before the terminal's traffic
/// boundary.  Such frames are total no-ops: the source calls would be no-ops
/// (no state change, no draw), the expiry check could drop nothing (the
/// boundary covers the earliest buffered deadline), dormancy has no edge
/// there, and `in_talkspurt` cannot change — so skipping them is
/// behaviour-for-behaviour identical to the full step, without touching the
/// terminal's buffers at all.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn step_traffic(
    frame_index: u64,
    now: SimTime,
    frame_us: u64,
    active_from: u64,
    boundary: &mut u64,
    in_talkspurt: &mut bool,
    voice_source: &mut Option<VoiceSource>,
    voice_buffer: &mut VoiceBuffer,
    data_source: &mut Option<DataSource>,
    data_buffer: &mut DataBuffer,
) -> Option<FrameTraffic> {
    if frame_index < *boundary {
        return None;
    }
    let mut out = FrameTraffic {
        // Deadline enforcement happens before new packets arrive so a packet
        // generated at this boundary can never be dropped at the same boundary.
        voice_packets_dropped: voice_buffer.drop_expired(now) as u32,
        ..FrameTraffic::default()
    };
    if let Some(src) = voice_source.as_mut() {
        let activity = src.on_frame_start(frame_index);
        *in_talkspurt = src.is_talking();
        out.talkspurt_started = activity.talkspurt_started;
        out.talkspurt_ended = activity.talkspurt_ended;
        if activity.packet_generated {
            let deadline = src.deadline_for(frame_index);
            voice_buffer.push(VoicePacket {
                generated_at: now,
                deadline,
            });
            out.voice_packet_generated = true;
        }
    }
    if let Some(src) = data_source.as_mut() {
        let arrived = src.on_frame_start(frame_index);
        if arrived > 0 {
            data_buffer.push_burst(now, arrived);
            out.data_packets_arrived = arrived;
        }
    }
    // A dormant terminal (activated mid-run by a load ramp) advances its
    // sources exactly like an active one so the per-terminal RNG streams
    // stay aligned, but its traffic is discarded: nothing is buffered,
    // nothing is reported, and it never looks like a contender.  From the
    // activation frame onward it behaves draw-for-draw like an always-active
    // twin — a terminal woken mid-talkspurt buffers that talkspurt's
    // remaining packets (and contends for them) immediately.
    if frame_index < active_from {
        voice_buffer.clear();
        data_buffer.clear();
        *in_talkspurt = false;
        out = FrameTraffic::default();
    }
    *boundary = TerminalColumns::boundary_for(
        voice_source,
        data_source,
        voice_buffer,
        active_from,
        frame_index + 1,
        frame_us,
    );
    Some(out)
}

/// Raw handle over the columns of a [`TerminalColumns`] store: one base
/// pointer per column plus the shared clock/channel-mode scalars.
///
/// # Soundness contract
///
/// A `ColumnsView` is a *claim of partitioned exclusivity*, exactly like the
/// sharded grid that copies it into worker threads: whoever holds a copy may
/// only touch element `i` if it has exclusive access to terminal `i` for the
/// duration of the call.  The system layer guarantees this through the cell
/// membership partition (every terminal belongs to exactly one cell per
/// frame; a worker only steps the cells it owns); the single-threaded paths
/// guarantee it by deriving the view from `&mut TerminalColumns`.  All
/// element operations bounds-check `i` (a plain `assert!`, kept in release
/// builds) so an out-of-partition index can corrupt determinism but never
/// memory-safety via out-of-bounds access.
///
/// Pointers stay valid while the originating store is alive and no terminal
/// is pushed; the store is fully populated before any view is taken.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ColumnsView {
    len: usize,
    clock: FrameClock,
    channel_mode: ChannelMode,
    path_loss: Option<PathLossConfig>,
    class: *mut TerminalClass,
    active_from_frame: *mut u64,
    in_talkspurt: *mut bool,
    traffic_boundary: *mut u64,
    voice_source: *mut Option<VoiceSource>,
    voice_buffer: *mut VoiceBuffer,
    data_source: *mut Option<DataSource>,
    data_buffer: *mut DataBuffer,
    link: *mut f64,
    shadow_db: *mut f64,
    short: *mut ShortTermFading,
    long: *mut LongTermShadowing,
    chan_rng: *mut Xoshiro256StarStar,
    chan_now: *mut SimTime,
    snr_cache: *mut Option<(SimTime, f64)>,
    contention_rng: *mut Xoshiro256StarStar,
    phy_rng: *mut Xoshiro256StarStar,
}

// SAFETY: sending or sharing the view across threads is sound under the
// partitioned-exclusivity contract above; every element type is itself Send
// (asserted below), and the view performs no interior mutation beyond what
// the caller's partition licenses.
unsafe impl Send for ColumnsView {}
unsafe impl Sync for ColumnsView {}

// Compile-time proof that every column element is safe to hand to another
// thread (backs the unsafe Send/Sync impls above).
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<TerminalClass>();
    assert_send::<u64>();
    assert_send::<bool>();
    assert_send::<Option<VoiceSource>>();
    assert_send::<VoiceBuffer>();
    assert_send::<Option<DataSource>>();
    assert_send::<DataBuffer>();
    assert_send::<f64>();
    assert_send::<ShortTermFading>();
    assert_send::<LongTermShadowing>();
    assert_send::<Xoshiro256StarStar>();
    assert_send::<SimTime>();
    assert_send::<Option<(SimTime, f64)>>();
    assert_send::<FrameClock>();
};

impl ColumnsView {
    /// Number of terminals behind the view.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn check(&self, i: usize) {
        assert!(
            i < self.len,
            "terminal index {i} out of bounds ({})",
            self.len
        );
    }

    /// Advances terminal `i` across the boundary that starts `frame_index` —
    /// the eager-mode channel step, then [`step_traffic`] — and reports what
    /// happened (see [`FrameTraffic`]).  The roam phase's per-terminal entry;
    /// [`TerminalColumns::begin_frame_all`] is the whole-population one.
    ///
    /// # Safety
    /// Caller must have exclusive access to terminal `i` (see the type-level
    /// soundness contract).
    pub(crate) unsafe fn begin_frame(&self, i: usize, frame_index: u64) -> FrameTraffic {
        self.check(i);
        let now = self.clock.frame_start(frame_index);
        // Lazy mode leaves the channel untouched here: it is advanced (with a
        // coalesced dt) the first time this frame's SNR is sampled, so idle
        // terminals skip channel work entirely.
        if self.channel_mode == ChannelMode::Eager {
            self.advance_channel_eager(i, now);
        }
        step_traffic(
            frame_index,
            now,
            self.clock.frame_duration().as_micros(),
            *self.active_from_frame.add(i),
            &mut *self.traffic_boundary.add(i),
            &mut *self.in_talkspurt.add(i),
            &mut *self.voice_source.add(i),
            &mut *self.voice_buffer.add(i),
            &mut *self.data_source.add(i),
            &mut *self.data_buffer.add(i),
        )
        .unwrap_or_default()
    }

    /// Advances terminal `i`'s channel to `t` in one coalesced AR(1) step per
    /// process (short first, then long — the documented draw order).  With
    /// `memoised` the step coefficients are reused across calls; without,
    /// they are recomputed every call (the same draws — eager mode's
    /// pre-optimisation baseline, which the benchmark measures against).
    /// Panics if `t` is in the past.
    ///
    /// # Safety
    /// Exclusive access to terminal `i`.
    #[inline]
    unsafe fn advance_channel(&self, i: usize, t: SimTime, memoised: bool) {
        let now = &mut *self.chan_now.add(i);
        assert!(
            t >= *now,
            "channel cannot be advanced backwards (now {}, asked {t})",
            *now
        );
        let dt = t.duration_since(*now);
        if dt.is_zero() {
            return;
        }
        let rng = &mut *self.chan_rng.add(i);
        let (short, long) = (&mut *self.short.add(i), &mut *self.long.add(i));
        if memoised {
            short.step(dt, rng);
            long.step(dt, rng);
        } else {
            short.step_uncached(dt, rng);
            long.step_uncached(dt, rng);
        }
        *now = t;
    }

    /// Eager mode's per-frame channel step: advances terminal `i`'s channel
    /// to the frame start `t` without memoised coefficients and clears the
    /// SNR memo, so every sample this frame re-reads the fresh state.
    ///
    /// # Safety
    /// Exclusive access to terminal `i`.
    unsafe fn advance_channel_eager(&self, i: usize, t: SimTime) {
        *self.snr_cache.add(i) = None;
        self.advance_channel(i, t, false);
    }

    /// Terminal `i`'s combined fading gain in dB at its current fading
    /// state, with deep fades clamped at -240 dB so downstream arithmetic
    /// stays well defined.
    ///
    /// # Safety
    /// Shared access to terminal `i` suffices (no mutation).
    pub(crate) unsafe fn gain_db(&self, i: usize) -> f64 {
        self.check(i);
        let g = (*self.long.add(i)).local_mean_linear() * (*self.short.add(i)).envelope();
        if g <= 1e-12 {
            -240.0
        } else {
            20.0 * g.log10()
        }
    }

    /// The SNR implied by terminal `i`'s current fading state: the mean SNR
    /// plus [`ColumnsView::gain_db`].  Without a path-loss profile the mean
    /// is the stored constant; with one it is evaluated here, from the
    /// stored serving distance and site shadow, as
    /// `path_loss.mean_snr_db(distance) + shadow_db` — the float expression
    /// an every-frame evaluation would store, so the bits are the same.
    /// (Same operations, in the same order, as the pre-SoA
    /// `CombinedChannel::snr_db`.)
    ///
    /// # Safety
    /// Shared access to terminal `i` suffices (no mutation).
    unsafe fn snr_db(&self, i: usize) -> f64 {
        let link = *self.link.add(i);
        let mean_snr_db = match &self.path_loss {
            Some(path_loss) => path_loss.mean_snr_db(link) + *self.shadow_db.add(i),
            None => link,
        };
        mean_snr_db + self.gain_db(i)
    }

    /// Terminal `i`'s true instantaneous SNR at time `t`.
    ///
    /// In [`ChannelMode::Lazy`] (the default) the value is memoised per
    /// instant, so capacity, the error-probability draw and CSI polling all
    /// share one channel evaluation per terminal per frame, and the channel
    /// itself is advanced in one coalesced step covering every frame the
    /// terminal sat idle.  In [`ChannelMode::Eager`] the SNR is recomputed on
    /// every call, reproducing the pre-optimisation cost.
    ///
    /// # Safety
    /// Exclusive access to terminal `i`.
    pub(crate) unsafe fn true_snr_db(&self, i: usize, t: SimTime) -> f64 {
        self.check(i);
        match self.channel_mode {
            ChannelMode::Lazy => {
                let cache = &mut *self.snr_cache.add(i);
                if let Some((at, snr)) = *cache {
                    if at == t {
                        return snr;
                    }
                }
                self.advance_channel(i, t, true);
                let snr = self.snr_db(i);
                *cache = Some((t, snr));
                snr
            }
            ChannelMode::Eager => {
                self.advance_channel(i, t, true);
                self.snr_db(i)
            }
        }
    }

    /// The terminal's service class.
    ///
    /// # Safety
    /// Shared access to terminal `i` (the class column is immutable after
    /// construction).
    pub(crate) unsafe fn class(&self, i: usize) -> TerminalClass {
        self.check(i);
        *self.class.add(i)
    }

    /// Whether the terminal is currently in a talkspurt.
    ///
    /// # Safety
    /// Shared access to terminal `i`.
    pub(crate) unsafe fn in_talkspurt(&self, i: usize) -> bool {
        self.check(i);
        *self.in_talkspurt.add(i)
    }

    /// Number of voice packets waiting in the transmit buffer.
    ///
    /// # Safety
    /// Shared access to terminal `i`.
    pub(crate) unsafe fn voice_backlog(&self, i: usize) -> usize {
        self.check(i);
        (*self.voice_buffer.add(i)).len()
    }

    /// Number of data packets waiting in the transmit buffer.
    ///
    /// # Safety
    /// Shared access to terminal `i`.
    pub(crate) unsafe fn data_backlog(&self, i: usize) -> u64 {
        self.check(i);
        (*self.data_buffer.add(i)).len()
    }

    /// Whether the terminal has anything to send.
    ///
    /// # Safety
    /// Shared access to terminal `i`.
    pub(crate) unsafe fn has_backlog(&self, i: usize) -> bool {
        self.check(i);
        !(*self.voice_buffer.add(i)).is_empty() || !(*self.data_buffer.add(i)).is_empty()
    }

    /// Earliest deadline among buffered voice packets.
    ///
    /// # Safety
    /// Shared access to terminal `i`.
    pub(crate) unsafe fn earliest_voice_deadline(&self, i: usize) -> Option<SimTime> {
        self.check(i);
        (*self.voice_buffer.add(i)).earliest_deadline()
    }

    /// Arrival time of the oldest buffered data packet.
    ///
    /// # Safety
    /// Shared access to terminal `i`.
    pub(crate) unsafe fn oldest_data_arrival(&self, i: usize) -> Option<SimTime> {
        self.check(i);
        (*self.data_buffer.add(i)).head_arrival()
    }

    /// Mutable access to the voice buffer.
    ///
    /// # Safety
    /// Exclusive access to terminal `i`.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn voice_buffer_mut(&self, i: usize) -> &mut VoiceBuffer {
        self.check(i);
        &mut *self.voice_buffer.add(i)
    }

    /// Mutable access to the data buffer.
    ///
    /// # Safety
    /// Exclusive access to terminal `i`.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn data_buffer_mut(&self, i: usize) -> &mut DataBuffer {
        self.check(i);
        &mut *self.data_buffer.add(i)
    }

    /// The contention random stream (permission probability, slot choice).
    ///
    /// # Safety
    /// Exclusive access to terminal `i`.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn contention_rng(&self, i: usize) -> &mut Xoshiro256StarStar {
        self.check(i);
        &mut *self.contention_rng.add(i)
    }

    /// The packet-error random stream.
    ///
    /// # Safety
    /// Exclusive access to terminal `i`.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn phy_rng(&self, i: usize) -> &mut Xoshiro256StarStar {
        self.check(i);
        &mut *self.phy_rng.add(i)
    }

    /// Records terminal `i`'s distance to its serving base station (system
    /// populations only).  The mean SNR follows at the next SNR sample.
    ///
    /// # Safety
    /// Exclusive access to terminal `i`.
    pub(crate) unsafe fn set_serving_distance(&self, i: usize, distance_m: f64) {
        self.check(i);
        debug_assert!(self.path_loss.is_some(), "no path-loss profile");
        check_distance(distance_m);
        *self.link.add(i) = distance_m;
    }

    /// Re-points terminal `i` at a new serving base station: its distance
    /// to it and the site shadowing of the new link.
    ///
    /// # Safety
    /// Exclusive access to terminal `i`.
    pub(crate) unsafe fn set_link(&self, i: usize, distance_m: f64, shadow_db: f64) {
        check_shadow(shadow_db);
        self.set_serving_distance(i, distance_m);
        *self.shadow_db.add(i) = shadow_db;
    }

    /// Terminal `i`'s stored site shadow in dB (the system layer's oracle
    /// tests seed their eager record from it).
    ///
    /// # Safety
    /// Shared access to terminal `i`.
    #[cfg(test)]
    pub(crate) unsafe fn shadow_db(&self, i: usize) -> f64 {
        self.check(i);
        *self.shadow_db.add(i)
    }

    /// Drops every buffered voice packet of terminal `i` and returns how
    /// many were lost (hard-handoff link interruption / refused admission).
    ///
    /// # Safety
    /// Exclusive access to terminal `i`.
    pub(crate) unsafe fn drop_buffered_voice(&self, i: usize) -> u32 {
        self.check(i);
        let buffer = &mut *self.voice_buffer.add(i);
        let n = buffer.len() as u32;
        buffer.clear();
        n
    }
}

/// Rejects a serving distance the path-loss model cannot evaluate, at the
/// write rather than at a read frames later (kept in release builds).
#[inline]
fn check_distance(distance_m: f64) {
    assert!(
        distance_m >= 0.0 && distance_m.is_finite(),
        "serving distance must be finite and non-negative, got {distance_m}"
    );
}

/// Rejects a non-finite site shadow.
fn check_shadow(shadow_db: f64) {
    assert!(
        shadow_db.is_finite(),
        "site shadowing must be finite, got {shadow_db}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use charisma_des::{RngStreams, Sampler, SimDuration};
    use charisma_radio::{ChannelConfig, SpeedProfile};
    use charisma_traffic::{DataSourceConfig, TerminalId, VoiceSourceConfig};

    fn terminal(i: u32, class: TerminalClass, seed: u64, mode: ChannelMode) -> Terminal {
        let streams = RngStreams::new(seed);
        Terminal::new(
            TerminalId(i),
            class,
            FrameClock::paper_default(),
            VoiceSourceConfig::default(),
            DataSourceConfig::default(),
            ChannelConfig::default(),
            mode,
            &SpeedProfile::Fixed(50.0),
            &streams,
        )
    }

    fn make_mode(class: TerminalClass, seed: u64, mode: ChannelMode) -> TerminalColumns {
        let mut cols = TerminalColumns::new(FrameClock::paper_default(), mode);
        cols.push(terminal(0, class, seed, mode));
        cols
    }

    fn make(class: TerminalClass, seed: u64) -> TerminalColumns {
        make_mode(class, seed, ChannelMode::Lazy)
    }

    /// Terminal `i`'s per-terminal frame entry (the roam phase's path).
    fn begin(cols: &mut TerminalColumns, i: usize, frame_index: u64) -> FrameTraffic {
        // SAFETY: `&mut TerminalColumns` is exclusive access to every terminal.
        unsafe { cols.view().begin_frame(i, frame_index) }
    }

    /// Terminal `i`'s true instantaneous SNR at `t`.
    fn snr(cols: &mut TerminalColumns, i: usize, t: SimTime) -> f64 {
        // SAFETY: as in `begin`.
        unsafe { cols.view().true_snr_db(i, t) }
    }

    fn has_backlog(cols: &TerminalColumns, i: usize) -> bool {
        !cols.voice_buffer[i].is_empty() || !cols.data_buffer[i].is_empty()
    }

    #[test]
    fn push_preserves_identity_and_streams() {
        let channel = ChannelConfig {
            mean_snr_db: 21.5,
            ..ChannelConfig::default()
        };
        let mut t = Terminal::new(
            TerminalId(0),
            TerminalClass::Voice,
            FrameClock::paper_default(),
            VoiceSourceConfig::default(),
            DataSourceConfig::default(),
            channel,
            ChannelMode::Lazy,
            &SpeedProfile::Fixed(50.0),
            &RngStreams::new(3),
        );
        t.set_active_from_frame(17);
        let talk = t.in_talkspurt();
        let mut cols = TerminalColumns::new(FrameClock::paper_default(), ChannelMode::Lazy);
        cols.push(t);
        // Slot 0 is `TerminalId(0)` (push order is index order).
        assert_eq!(cols.len(), 1);
        assert_eq!(cols.class[0], TerminalClass::Voice);
        assert_eq!(cols.active_from_frame[0], 17);
        assert_eq!(cols.in_talkspurt[0], talk);
        assert_eq!(cols.link[0], 21.5);
        assert_eq!(cols.shadow_db[0], 0.0);
        assert!(cols.voice_source[0].is_some());
        assert!(cols.data_source[0].is_none());
        assert_eq!(cols.chan_now[0], SimTime::ZERO);
    }

    #[test]
    fn voice_terminal_generates_and_drops_packets() {
        let mut t = make(TerminalClass::Voice, 1);
        let mut generated = 0u64;
        let mut dropped = 0u64;
        for k in 0..80_000u64 {
            let tr = begin(&mut t, 0, k);
            generated += tr.voice_packet_generated as u64;
            dropped += tr.voice_packets_dropped as u64;
            assert_eq!(
                tr.data_packets_arrived, 0,
                "voice terminal must not produce data"
            );
        }
        assert!(
            generated > 1_000,
            "expected many voice packets, got {generated}"
        );
        // Nothing is ever transmitted in this test, so every packet must
        // eventually be dropped at its deadline (modulo those still queued).
        assert!(
            dropped >= generated - 2,
            "generated {generated}, dropped {dropped}"
        );
        assert!(t.voice_buffer[0].len() <= 2);
    }

    #[test]
    fn data_terminal_accumulates_backlog() {
        let mut t = make(TerminalClass::Data, 2);
        let mut arrived = 0u64;
        for k in 0..40_000u64 {
            let tr = begin(&mut t, 0, k);
            arrived += tr.data_packets_arrived as u64;
            assert!(!tr.voice_packet_generated);
        }
        assert!(arrived > 1_000, "expected data arrivals, got {arrived}");
        assert_eq!(
            t.data_buffer[0].len(),
            arrived,
            "nothing was served, backlog must equal arrivals"
        );
        assert!(has_backlog(&t, 0));
    }

    #[test]
    fn channel_is_queryable_at_frame_times() {
        let mut t = make(TerminalClass::Voice, 3);
        begin(&mut t, 0, 0);
        let s0 = snr(&mut t, 0, SimTime::ZERO);
        let s1 = snr(&mut t, 0, SimTime::ZERO + SimDuration::from_micros(2_500));
        assert!(s0.is_finite() && s1.is_finite());
    }

    #[test]
    fn talkspurt_flag_tracks_source() {
        let mut t = make(TerminalClass::Voice, 4);
        let mut toggles = 0;
        let mut last = t.in_talkspurt[0];
        for k in 0..200_000u64 {
            begin(&mut t, 0, k);
            if t.in_talkspurt[0] != last {
                toggles += 1;
                last = t.in_talkspurt[0];
            }
        }
        assert!(
            toggles > 50,
            "talkspurt state should toggle many times, saw {toggles}"
        );
    }

    #[test]
    fn identical_seeds_produce_identical_terminals() {
        let mut a = make(TerminalClass::Voice, 9);
        let mut b = make(TerminalClass::Voice, 9);
        for k in 0..5_000u64 {
            assert_eq!(begin(&mut a, 0, k), begin(&mut b, 0, k));
        }
        let t = SimTime::from_micros(5_000 * 2_500);
        assert_eq!(snr(&mut a, 0, t), snr(&mut b, 0, t));
    }

    #[test]
    fn snr_is_cached_within_an_instant_and_refreshed_across_frames() {
        let mut t = make(TerminalClass::Voice, 11);
        begin(&mut t, 0, 0);
        let at = SimTime::ZERO;
        let first = snr(&mut t, 0, at);
        // Repeated queries at the same instant must return the exact same
        // value without touching the channel RNG.
        for _ in 0..5 {
            assert_eq!(snr(&mut t, 0, at), first);
        }
        // A later frame re-samples the channel.
        begin(&mut t, 0, 1);
        let later = snr(&mut t, 0, SimTime::from_micros(2_500));
        assert_ne!(later, first, "a new frame must refresh the cached SNR");
        assert_eq!(snr(&mut t, 0, SimTime::from_micros(2_500)), later);
    }

    #[test]
    fn eager_and_lazy_terminals_see_statistically_similar_channels() {
        // The two modes draw different sample paths (documented one-time
        // trajectory change) but must agree on the channel statistics.
        let mean_snr = |mode: ChannelMode| -> f64 {
            let mut t = make_mode(TerminalClass::Voice, 12, mode);
            let mut acc = 0.0;
            let n = 40_000u64;
            for k in 0..n {
                begin(&mut t, 0, k);
                // Sample only every 10th frame: in lazy mode the intervening
                // frames are coalesced into one AR(1) step.
                if k % 10 == 0 {
                    acc += snr(&mut t, 0, SimTime::from_micros(k * 2_500));
                }
            }
            acc / (n / 10) as f64
        };
        let eager = mean_snr(ChannelMode::Eager);
        let lazy = mean_snr(ChannelMode::Lazy);
        assert!(
            (eager - lazy).abs() < 1.0,
            "eager mean SNR {eager} dB vs lazy {lazy} dB"
        );
    }

    #[test]
    fn dormant_terminal_reports_nothing_then_wakes_up() {
        let mut ramped = terminal(0, TerminalClass::Voice, 21, ChannelMode::Lazy);
        ramped.set_active_from_frame(4_000);
        let mut t = TerminalColumns::new(FrameClock::paper_default(), ChannelMode::Lazy);
        t.push(ramped);
        for k in 0..4_000u64 {
            assert!(k < t.active_from_frame[0], "frame {k} must be dormant");
            let tr = begin(&mut t, 0, k);
            assert_eq!(tr, FrameTraffic::default(), "dormant frame {k} had traffic");
            assert!(!t.in_talkspurt[0]);
            assert!(!has_backlog(&t, 0));
        }
        let mut generated = 0u64;
        for k in 4_000..80_000u64 {
            assert!(k >= t.active_from_frame[0], "frame {k} must be active");
            generated += begin(&mut t, 0, k).voice_packet_generated as u64;
        }
        assert!(generated > 1_000, "woken terminal generated {generated}");
    }

    #[test]
    fn dormant_prefix_does_not_change_the_post_activation_sample_path() {
        // The whole point of advancing sources while dormant: after the
        // activation frame the terminal behaves draw-for-draw like an
        // always-active twin.
        let mut active = make(TerminalClass::Voice, 22);
        let mut deferred = terminal(0, TerminalClass::Voice, 22, ChannelMode::Lazy);
        deferred.set_active_from_frame(2_000);
        let mut ramped = TerminalColumns::new(FrameClock::paper_default(), ChannelMode::Lazy);
        ramped.push(deferred);
        for k in 0..2_000u64 {
            let _ = begin(&mut active, 0, k);
            let _ = begin(&mut ramped, 0, k);
        }
        // Drain the always-active twin's backlog so the buffers agree.
        while active.voice_buffer[0].pop().is_some() {}
        for k in 2_000..10_000u64 {
            assert_eq!(
                begin(&mut active, 0, k),
                begin(&mut ramped, 0, k),
                "frame {k}"
            );
        }
    }

    #[test]
    fn different_terminal_ids_get_different_traffic() {
        let mut cols = TerminalColumns::new(FrameClock::paper_default(), ChannelMode::Lazy);
        let streams = RngStreams::new(7);
        for i in 0..2u32 {
            cols.push(Terminal::new(
                TerminalId(i),
                TerminalClass::Voice,
                FrameClock::paper_default(),
                VoiceSourceConfig::default(),
                DataSourceConfig::default(),
                ChannelConfig::default(),
                ChannelMode::Lazy,
                &SpeedProfile::Fixed(50.0),
                &streams,
            ));
        }
        let mut differing = 0;
        for k in 0..10_000u64 {
            if begin(&mut cols, 0, k) != begin(&mut cols, 1, k) {
                differing += 1;
            }
        }
        assert!(
            differing > 100,
            "two terminals should have distinct traffic, {differing} frames differed"
        );
    }

    #[test]
    fn columnar_begin_frame_all_matches_per_terminal_calls() {
        // The two entries into the one traffic step — the whole-population
        // sweep and the roam phase's per-terminal call — must agree report
        // for report, and (with the eager channel step hoisted out of the
        // sweep) sample for sample.
        for mode in [ChannelMode::Lazy, ChannelMode::Eager] {
            let streams = RngStreams::new(33);
            let mk = |cols: &mut TerminalColumns, i: u32, class: TerminalClass| {
                cols.push(Terminal::new(
                    TerminalId(i),
                    class,
                    FrameClock::paper_default(),
                    VoiceSourceConfig::default(),
                    DataSourceConfig::default(),
                    ChannelConfig::default(),
                    mode,
                    &SpeedProfile::Fixed(50.0),
                    &streams,
                ));
            };
            let mut a = TerminalColumns::new(FrameClock::paper_default(), mode);
            let mut b = TerminalColumns::new(FrameClock::paper_default(), mode);
            for i in 0..6u32 {
                let class = if i % 2 == 0 {
                    TerminalClass::Voice
                } else {
                    TerminalClass::Data
                };
                mk(&mut a, i, class);
                mk(&mut b, i, class);
            }
            let mut batched = vec![FrameTraffic::default(); 6];
            for k in 0..3_000u64 {
                a.begin_frame_all(k, &mut batched);
                for (i, slot) in batched.iter().enumerate() {
                    assert_eq!(
                        *slot,
                        begin(&mut b, i, k),
                        "{mode:?} frame {k} terminal {i}"
                    );
                }
                if k % 100 == 0 {
                    let now = a.clock.frame_start(k);
                    for i in 0..6 {
                        assert_eq!(
                            snr(&mut a, i, now),
                            snr(&mut b, i, now),
                            "{mode:?} frame {k}"
                        );
                    }
                }
            }
        }
    }

    /// Brute-force reference for one terminal's traffic: stepped on every
    /// frame with no `traffic_boundary` skip — the every-frame semantics the
    /// skip must reproduce exactly.
    struct Reference {
        active_from: u64,
        in_talkspurt: bool,
        voice_source: Option<VoiceSource>,
        voice_buffer: VoiceBuffer,
        data_source: Option<DataSource>,
        data_buffer: DataBuffer,
    }

    impl Reference {
        fn new(t: Terminal) -> Self {
            Reference {
                active_from: t.active_from_frame,
                in_talkspurt: t.in_talkspurt,
                voice_source: t.voice_source,
                voice_buffer: t.voice_buffer,
                data_source: t.data_source,
                data_buffer: t.data_buffer,
            }
        }

        fn step(&mut self, k: u64, now: SimTime) -> FrameTraffic {
            let mut out = FrameTraffic {
                voice_packets_dropped: self.voice_buffer.drop_expired(now) as u32,
                ..FrameTraffic::default()
            };
            if let Some(src) = self.voice_source.as_mut() {
                let activity = src.on_frame_start(k);
                self.in_talkspurt = src.is_talking();
                out.talkspurt_started = activity.talkspurt_started;
                out.talkspurt_ended = activity.talkspurt_ended;
                if activity.packet_generated {
                    self.voice_buffer.push(VoicePacket {
                        generated_at: now,
                        deadline: src.deadline_for(k),
                    });
                    out.voice_packet_generated = true;
                }
            }
            if let Some(src) = self.data_source.as_mut() {
                let arrived = src.on_frame_start(k);
                if arrived > 0 {
                    self.data_buffer.push_burst(now, arrived);
                    out.data_packets_arrived = arrived;
                }
            }
            if k < self.active_from {
                self.voice_buffer.clear();
                self.data_buffer.clear();
                self.in_talkspurt = false;
                out = FrameTraffic::default();
            }
            out
        }
    }

    #[test]
    fn boundary_skip_matches_a_brute_force_every_frame_sweep() {
        const N: u32 = 48;
        const FRAMES: u64 = 6_000;
        for mode in [ChannelMode::Lazy, ChannelMode::Eager] {
            // Two voice terminals per data terminal; the second half is a
            // dormant tail woken one by one by a load ramp.
            let build = |i: u32| {
                let class = if i % 3 == 2 {
                    TerminalClass::Data
                } else {
                    TerminalClass::Voice
                };
                let mut t = terminal(i, class, 41, mode);
                if i >= N / 2 {
                    t.set_active_from_frame(200 * u64::from(i + 1 - N / 2));
                }
                t
            };
            let clock = FrameClock::paper_default();
            let mut cols = TerminalColumns::new(clock, mode);
            let mut reference: Vec<Reference> = Vec::new();
            for i in 0..N {
                cols.push(build(i));
                reference.push(Reference::new(build(i)));
            }
            let mut service = Xoshiro256StarStar::from_seed_u64(0x5E5_71CE);
            let mut traffic = vec![FrameTraffic::default(); N as usize];
            let (mut skipped, mut popped, mut woke_talking) = (0u64, 0u64, 0u32);
            for k in 0..FRAMES {
                skipped += cols.traffic_boundary.iter().filter(|&&b| k < b).count() as u64;
                let totals = cols.begin_frame_all(k, &mut traffic);
                let now = clock.frame_start(k);
                let mut expected = TrafficTotals::default();
                for (i, r) in reference.iter_mut().enumerate() {
                    let out = r.step(k, now);
                    woke_talking += (k == r.active_from && r.in_talkspurt) as u32;
                    assert_eq!(traffic[i], out, "{mode:?} frame {k} terminal {i}");
                    assert_eq!(
                        cols.voice_buffer[i].len(),
                        r.voice_buffer.len(),
                        "{mode:?} frame {k} terminal {i} voice backlog"
                    );
                    assert_eq!(
                        cols.voice_buffer[i].earliest_deadline(),
                        r.voice_buffer.earliest_deadline(),
                        "{mode:?} frame {k} terminal {i} voice deadline"
                    );
                    assert_eq!(
                        cols.data_buffer[i].len(),
                        r.data_buffer.len(),
                        "{mode:?} frame {k} terminal {i} data backlog"
                    );
                    assert_eq!(
                        cols.in_talkspurt[i], r.in_talkspurt,
                        "{mode:?} frame {k} terminal {i} talkspurt"
                    );
                    expected.voice_generated += out.voice_packet_generated as u64;
                    expected.voice_dropped += out.voice_packets_dropped as u64;
                    expected.data_arrived += out.data_packets_arrived as u64;
                }
                assert_eq!(totals, expected, "{mode:?} frame {k} totals");
                // Mimic MAC service between sweeps: it only ever removes
                // packets, which is why the stored boundary stays
                // conservative — so the skip must survive it.
                for (i, r) in reference.iter_mut().enumerate() {
                    if Sampler::bernoulli(&mut service, 0.25) {
                        let served = cols.voice_buffer[i].pop();
                        assert_eq!(served, r.voice_buffer.pop());
                        popped += served.is_some() as u64;
                    }
                    if Sampler::bernoulli(&mut service, 0.25) {
                        let max = 1 + Sampler::uniform_index(&mut service, 4) as u32;
                        let served = cols.data_buffer[i].pop(max);
                        assert_eq!(served, r.data_buffer.pop(max));
                        popped += served.iter().map(|run| u64::from(run.count)).sum::<u64>();
                    }
                }
            }
            // The comparison is only meaningful if the skip, the service and
            // a wake-up in mid-talkspurt (the activation edge the boundary
            // must never skip) all actually happened.
            let visits = FRAMES * u64::from(N);
            assert!(
                skipped > visits / 2,
                "{mode:?}: only {skipped} of {visits} skipped"
            );
            assert!(popped > 1_000, "{mode:?}: only {popped} packets served");
            assert!(
                woke_talking >= 2,
                "{mode:?}: {woke_talking} mid-talkspurt wake-ups"
            );
        }
    }
}
