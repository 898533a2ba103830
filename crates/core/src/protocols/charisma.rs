//! CHARISMA — CHannel Adaptive Reservation-based ISochronous Multiple Access
//! (paper Section 4).
//!
//! CHARISMA departs from the baselines in one structural way: instead of
//! assigning information slots immediately as each request is acknowledged,
//! the base station first *gathers* every request of the frame — new
//! contention winners, base-station-generated requests for reserved voice
//! terminals, and (with the request queue) backlogged requests from earlier
//! frames — and only then allocates the `N_i` information slots in order of a
//! priority that blends three ingredients (paper eq. (2)):
//!
//! * the **throughput** the terminal's estimated CSI supports (good channels
//!   are served first because they use the slots more efficiently),
//! * the **urgency** of the request (a voice packet close to its 20 ms
//!   deadline, or a data request that has waited a long time), and
//! * the **service class** (a fixed voice-over-data priority offset).
//!
//! Requests whose CSI estimate has gone stale are refreshed through the
//! poll-for-CSI / pilot-symbol subframes (`N_b` polls per frame), highest
//! priority first — the CSI-refresh mechanism of Section 4.4.  Terminals in
//! outage are deferred rather than scheduled, which is where the protocol's
//! selection-diversity gain comes from (Section 5.3.2).

use crate::config::{CharismaParams, SimConfig};
use crate::protocols::common::{self, IdSet};
use crate::protocols::{ProtocolKind, UplinkMac};
use crate::world::{FrameWorld, LinkAdaptation, VoiceTx};
use charisma_des::SimTime;
use charisma_phy::Phy;
use charisma_radio::CsiEstimate;
use charisma_traffic::{TerminalClass, TerminalId};

/// One gathered request awaiting allocation at the base station.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    terminal: TerminalId,
    class: TerminalClass,
    /// Most recent CSI estimate the base station holds for this terminal.
    csi: CsiEstimate,
    /// Frame at which the request was acknowledged (for the waiting term).
    acked_frame: u64,
}

/// The CHARISMA protocol.
#[derive(Debug, Clone)]
pub struct Charisma {
    params: CharismaParams,
    queue_enabled: bool,
    queue_capacity: usize,
    reservations: IdSet,
    /// Gathered requests (this frame's and, with the queue, earlier frames').
    backlog: Vec<Entry>,
    /// Last CSI estimate obtained for each terminal (from request pilots,
    /// CSI polling, or earlier frames), indexed by terminal index.
    last_csi: Vec<Option<CsiEstimate>>,
    /// Urgency term of eq. (2) for voice, tabulated over the (clamped)
    /// frames-to-deadline argument: `urgency_weight · beta_voice^k`.
    voice_urgency: Vec<f64>,
    /// Urgency term for data over the (clamped) frames-waited argument:
    /// `urgency_weight · (1 − beta_data^k)`.
    data_urgency: Vec<f64>,
    /// Reusable per-frame buffers (cleared every frame; no cross-frame
    /// state).  Keeping them on the protocol keeps the frame loop
    /// allocation-free.
    exclude: IdSet,
    contenders: Vec<TerminalId>,
    winners: Vec<TerminalId>,
    due: Vec<TerminalId>,
    due_scratch: Vec<(SimTime, TerminalId)>,
    stale: Vec<(usize, f64)>,
    order: Vec<(usize, f64)>,
    served: Vec<bool>,
}

/// The urgency arguments are clamped to this value before exponentiation
/// (64 frames = 160 ms, far past any voice deadline or meaningful data wait),
/// which is what makes the terms tabulable.
const URGENCY_CLAMP: usize = 64;

impl Charisma {
    /// Builds CHARISMA for a scenario configuration.
    pub fn new(config: &SimConfig) -> Self {
        config.charisma.validate().unwrap_or_else(|e| panic!("{e}"));
        let p = &config.charisma;
        // The tables hold exactly the products the priority formula used to
        // compute inline (same operations, same order), so tabulation changes
        // cost, not bits.
        let voice_urgency = (0..=URGENCY_CLAMP as i32)
            .map(|k| p.urgency_weight * p.beta_voice.powi(k))
            .collect();
        let data_urgency = (0..=URGENCY_CLAMP as i32)
            .map(|k| p.urgency_weight * (1.0 - p.beta_data.powi(k)))
            .collect();
        Charisma {
            params: config.charisma,
            queue_enabled: config.request_queue,
            queue_capacity: config.request_queue_capacity,
            reservations: IdSet::new(),
            backlog: Vec::new(),
            last_csi: Vec::new(),
            voice_urgency,
            data_urgency,
            exclude: IdSet::new(),
            contenders: Vec::new(),
            winners: Vec::new(),
            due: Vec::new(),
            due_scratch: Vec::new(),
            stale: Vec::new(),
            order: Vec::new(),
            served: Vec::new(),
        }
    }

    /// The base station's last CSI estimate for `id`, if any.
    fn lookup_csi(&self, id: TerminalId) -> Option<CsiEstimate> {
        self.last_csi.get(id.index() as usize).copied().flatten()
    }

    /// Records the base station's newest CSI estimate for `id`.
    fn remember_csi(&mut self, id: TerminalId, est: CsiEstimate) {
        let i = id.index() as usize;
        if i >= self.last_csi.len() {
            self.last_csi.resize(i + 1, None);
        }
        self.last_csi[i] = Some(est);
    }

    /// Number of terminals currently holding a voice reservation.
    pub fn active_reservations(&self) -> usize {
        self.reservations.len()
    }

    /// Number of requests currently gathered at the base station.
    pub fn backlog_len(&self) -> usize {
        self.backlog.len()
    }

    /// The priority metric of eq. (2), as implemented (see the crate-level
    /// documentation of [`crate::config::CharismaParams`]).
    fn priority(&self, world: &FrameWorld<'_>, entry: &Entry) -> f64 {
        let p = &self.params;
        let f_csi = if p.csi_aware {
            world.adaptive_phy().packets_per_slot(entry.csi.snr_db)
        } else {
            1.0
        };
        match entry.class {
            TerminalClass::Voice => {
                let deadline = world
                    .earliest_voice_deadline(entry.terminal)
                    .unwrap_or(SimTime::FAR_FUTURE);
                let frames_left = deadline
                    .saturating_duration_since(world.now)
                    .div_duration(world.clock.frame_duration())
                    .min(URGENCY_CLAMP as u64) as usize;
                p.alpha_voice * f_csi + self.voice_urgency[frames_left] + p.voice_offset
            }
            TerminalClass::Data => {
                let waited = (world.frame.saturating_sub(entry.acked_frame))
                    .min(URGENCY_CLAMP as u64) as usize;
                p.alpha_data * f_csi + self.data_urgency[waited] + p.gamma_data
            }
        }
    }

    /// Refreshes the CSI of up to `polls` stale backlog entries, highest
    /// priority first (the poll-for-CSI subframe).
    fn refresh_csi(&mut self, world: &mut FrameWorld<'_>, polls: u32) {
        if polls == 0 || self.backlog.is_empty() {
            return;
        }
        let validity = world.csi_validity();
        let mut stale = std::mem::take(&mut self.stale);
        stale.clear();
        stale.extend(
            self.backlog
                .iter()
                .enumerate()
                .filter(|(_, e)| !e.csi.is_fresh(world.now, validity))
                .map(|(i, e)| (i, self.priority(world, e))),
        );
        // Descending priority; the ascending-index tiebreaker makes the
        // unstable sort reproduce the stable order (indices are unique).
        stale.sort_unstable_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        for &(idx, _) in stale.iter().take(polls as usize) {
            let id = self.backlog[idx].terminal;
            let est = world.estimate_csi(id);
            self.backlog[idx].csi = est;
            self.remember_csi(id, est);
        }
        self.stale = stale;
    }
}

impl UplinkMac for Charisma {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Charisma
    }

    fn forget_terminal(&mut self, id: TerminalId) {
        self.reservations.remove(id);
        self.backlog.retain(|e| e.terminal != id);
        if let Some(slot) = self.last_csi.get_mut(id.index() as usize) {
            *slot = None;
        }
    }

    fn run_frame(&mut self, world: &mut FrameWorld<'_>) {
        let fs = world.config.frame;
        world.record_offered_slots(fs.info_slots);

        if world.frame == 0 {
            common::seed_initial_reservations(world, &mut self.reservations);
        }
        common::release_ended_reservations(world, &mut self.reservations);

        // Drop gathered requests that no longer correspond to queued traffic
        // (voice packet dropped at its deadline, data buffer drained).
        self.backlog.retain(|e| world.has_backlog(e.terminal));

        // --- Request gathering -------------------------------------------
        // `exclude` doubles as the membership index of `backlog`: seeded from
        // the surviving entries here, extended as the due loop pushes, so the
        // dedup check is a bitset probe instead of a backlog scan — and by
        // step 2 it holds exactly backlog ∪ due, the set contention excludes.
        self.exclude.clear();
        self.exclude.extend(self.backlog.iter().map(|e| e.terminal));

        // 1. Base-station-generated requests for reserved voice terminals
        //    whose next packet is due (the 20 ms reservation renewal).
        common::reserved_voice_due_into(
            world,
            &self.reservations,
            &mut self.due_scratch,
            &mut self.due,
        );
        for i in 0..self.due.len() {
            let id = self.due[i];
            if self.exclude.insert(id) {
                let csi = self.lookup_csi(id).unwrap_or(CsiEstimate {
                    snr_db: 0.0,
                    estimated_at: SimTime::ZERO,
                });
                self.backlog.push(Entry {
                    terminal: id,
                    class: TerminalClass::Voice,
                    csi,
                    acked_frame: world.frame,
                });
            }
        }

        // 2. Contention for new requests (new talkspurts and data bursts).
        common::contenders_into(
            world,
            &self.reservations,
            &self.exclude,
            &mut self.contenders,
        );
        let mut winners = std::mem::take(&mut self.winners);
        world.contend_into(fs.request_slots, &self.contenders, &mut winners);
        for &id in &winners {
            // The request packet carries pilot symbols: the base station
            // estimates this terminal's CSI as part of receiving the request.
            let est = world.estimate_csi(id);
            self.remember_csi(id, est);
            self.backlog.push(Entry {
                terminal: id,
                class: world.class(id),
                csi: est,
                acked_frame: world.frame,
            });
        }
        self.winners = winners;

        // 3. CSI refresh for stale entries via the poll-for-CSI subframe.
        self.refresh_csi(world, fs.pilot_slots);

        if world.measuring {
            world
                .metrics_mut()
                .contention
                .queue_length
                .push(self.backlog.len() as f64);
        }

        // --- Priority allocation ------------------------------------------
        let mut order = std::mem::take(&mut self.order);
        order.clear();
        order.extend(
            self.backlog
                .iter()
                .enumerate()
                .map(|(i, e)| (i, self.priority(world, e))),
        );
        // Same descending order + unique-index tiebreaker as `refresh_csi`.
        order.sort_unstable_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        let mut served = std::mem::take(&mut self.served);
        served.clear();
        served.resize(self.backlog.len(), false);

        let mut remaining = fs.info_slots as f64;
        for &(idx, _prio) in &order {
            if remaining <= 1e-9 {
                break;
            }
            let entry = self.backlog[idx];
            let capacity = world.adaptive_phy().packets_per_slot(entry.csi.snr_db);
            if capacity <= 0.0 {
                // Outage: defer this request until its CSI improves (or its
                // deadline expires), rather than wasting slots on it.
                continue;
            }
            match entry.class {
                TerminalClass::Voice => {
                    if world.voice_backlog(entry.terminal) == 0 {
                        served[idx] = true;
                        continue;
                    }
                    // Airtime needed for one packet at the announced mode,
                    // subject to the sub-slot scheduling granularity of the
                    // announcement schedule.
                    let slots = (1.0 / capacity).max(fs.min_allocation());
                    if slots > remaining + 1e-9 {
                        continue;
                    }
                    let link = LinkAdaptation::Announced {
                        snr_db: entry.csi.snr_db,
                    };
                    match world.transmit_voice(entry.terminal, slots, link) {
                        VoiceTx::Delivered | VoiceTx::Errored => {
                            remaining -= slots;
                            self.reservations.insert(entry.terminal);
                            served[idx] = true;
                        }
                        VoiceTx::InsufficientCapacity => {
                            // The estimate promised capacity the true channel
                            // no longer supports; the slot assignment is lost.
                            world.record_wasted_slots(slots);
                            remaining -= slots;
                            self.reservations.insert(entry.terminal);
                            served[idx] = true;
                        }
                        VoiceTx::NoPacket => {
                            served[idx] = true;
                        }
                    }
                }
                TerminalClass::Data => {
                    let backlog_pkts = world
                        .data_backlog(entry.terminal)
                        .min(self.params.max_data_packets_per_grant as u64)
                        as u32;
                    if backlog_pkts == 0 {
                        served[idx] = true;
                        continue;
                    }
                    let slots = remaining.min(backlog_pkts as f64 / capacity);
                    if slots <= 1e-9 {
                        continue;
                    }
                    let link = LinkAdaptation::Announced {
                        snr_db: entry.csi.snr_db,
                    };
                    let tx = world.transmit_data(entry.terminal, slots, backlog_pkts, link);
                    if tx.delivered == 0 && tx.errored == 0 {
                        world.record_wasted_slots(slots);
                    }
                    remaining -= slots;
                    // A data request is good for one allocation only: the
                    // terminal must request again for the rest of its burst.
                    served[idx] = true;
                }
            }
        }

        // --- Queue maintenance ---------------------------------------------
        let mut i = 0usize;
        self.backlog.retain(|_| {
            let keep = !served[i];
            i += 1;
            keep
        });
        if self.queue_enabled {
            // Bound the queue: keep the oldest requests first.
            if self.backlog.len() > self.queue_capacity {
                self.backlog.truncate(self.queue_capacity);
            }
        } else {
            self.backlog.clear();
        }
        self.order = order;
        self.served = served;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;

    #[test]
    fn identity() {
        let cfg = SimConfig::quick_test();
        let c = Charisma::new(&cfg);
        assert_eq!(c.kind().label(), "CHARISMA");
        assert_eq!(c.kind(), ProtocolKind::Charisma);
        assert!(c.kind().supports_request_queue());
        assert_eq!(c.active_reservations(), 0);
        assert_eq!(c.backlog_len(), 0);
    }

    #[test]
    fn queue_settings_follow_config() {
        let mut cfg = SimConfig::quick_test();
        cfg.request_queue = true;
        cfg.request_queue_capacity = 17;
        let c = Charisma::new(&cfg);
        assert!(c.queue_enabled);
        assert_eq!(c.queue_capacity, 17);
    }

    #[test]
    #[should_panic(expected = "beta_voice")]
    fn invalid_params_rejected_at_construction() {
        let mut cfg = SimConfig::quick_test();
        cfg.charisma.beta_voice = 2.0;
        let _ = Charisma::new(&cfg);
    }
}
