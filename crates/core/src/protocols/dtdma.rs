//! D-TDMA/FR and D-TDMA/VR (paper Sections 3.4 and 3.5).
//!
//! Both protocols use the classic dynamic-TDMA frame: `N_r` request minislots
//! followed by `N_i` information slots.  A request that is successfully
//! received is served *immediately*, first-come-first-served, in the same
//! frame if information slots remain; a voice terminal whose first packet is
//! served keeps a reservation (one packet every 20 ms) until its talkspurt
//! ends, while data terminals must contend again for every burst fragment.
//!
//! The two variants differ only in the physical layer:
//!
//! * **FR** (fixed rate): every information slot carries exactly one packet.
//! * **VR** (variable rate): the slot throughput follows the 6-mode adaptive
//!   PHY, but the MAC is *not* aware of the channel state — it allocates
//!   exactly as FR does.  The extra throughput (and the occasional slot
//!   wasted on a terminal in a deep fade) emerge purely from the PHY.

use std::collections::VecDeque;

use crate::config::SimConfig;
use crate::protocols::common::{self, IdSet, RequestQueue};
use crate::protocols::{ProtocolKind, UplinkMac};
use crate::world::{FrameWorld, LinkAdaptation, VoiceTx};
use charisma_des::SimTime;
use charisma_traffic::{TerminalClass, TerminalId};

/// The D-TDMA protocol family (FR and VR variants).
#[derive(Debug, Clone)]
pub struct DTdma {
    adaptive: bool,
    reservations: IdSet,
    queue: RequestQueue,
    /// Reusable per-frame buffers (cleared every frame; no cross-frame state).
    exclude: IdSet,
    contenders: Vec<TerminalId>,
    winners: Vec<TerminalId>,
    service: VecDeque<TerminalId>,
    unserved: Vec<TerminalId>,
    due: Vec<TerminalId>,
    due_scratch: Vec<(SimTime, TerminalId)>,
}

impl DTdma {
    fn build(config: &SimConfig, adaptive: bool) -> Self {
        DTdma {
            adaptive,
            reservations: IdSet::new(),
            queue: RequestQueue::from_config(config),
            exclude: IdSet::new(),
            contenders: Vec::new(),
            winners: Vec::new(),
            service: VecDeque::new(),
            unserved: Vec::new(),
            due: Vec::new(),
            due_scratch: Vec::new(),
        }
    }

    /// Builds D-TDMA/FR (fixed-throughput PHY).
    pub fn fixed_rate(config: &SimConfig) -> Self {
        DTdma::build(config, false)
    }

    /// Builds D-TDMA/VR (variable-throughput PHY, MAC-blind).
    pub fn variable_rate(config: &SimConfig) -> Self {
        DTdma::build(config, true)
    }

    /// Number of terminals currently holding a voice reservation.
    pub fn active_reservations(&self) -> usize {
        self.reservations.len()
    }

    fn link(&self) -> LinkAdaptation {
        if self.adaptive {
            LinkAdaptation::Tracking
        } else {
            LinkAdaptation::Fixed
        }
    }

    /// Serves one item of the FCFS service list.  Returns the slot-equivalents
    /// of airtime consumed, and whether the item was actually served (an item
    /// that did not fit in the remaining airtime is reported unserved so the
    /// caller can queue it).
    fn serve(&mut self, world: &mut FrameWorld<'_>, id: TerminalId, remaining: f64) -> (f64, bool) {
        if remaining <= 1e-9 {
            return (0.0, false);
        }
        let link = self.link();
        match world.class(id) {
            TerminalClass::Voice => {
                if world.voice_backlog(id) == 0 {
                    return (0.0, true);
                }
                let capacity = world.capacity(id, link);
                if capacity <= 0.0 {
                    // CSI-blind allocation to a terminal in outage: the
                    // airtime is wasted and the packet is lost to a
                    // transmission error (Section 5.3.1 of the paper).
                    let waste = remaining.min(1.0);
                    world.fail_voice(id, waste);
                    self.reservations.insert(id);
                    return (waste, true);
                }
                // The base station schedules exactly the airtime the PHY's
                // current mode requires (it knows the rate, it just does not
                // use it to *choose* whom to serve), subject to the sub-slot
                // scheduling granularity of the announcement.
                let cost = (1.0 / capacity).max(world.config.frame.min_allocation());
                if cost > remaining + 1e-9 {
                    return (0.0, false);
                }
                match world.transmit_voice(id, cost, link) {
                    VoiceTx::Delivered | VoiceTx::Errored | VoiceTx::InsufficientCapacity => {
                        self.reservations.insert(id);
                        (cost, true)
                    }
                    VoiceTx::NoPacket => (0.0, true),
                }
            }
            TerminalClass::Data => {
                let backlog = world.data_backlog(id);
                if backlog == 0 {
                    return (0.0, true);
                }
                let capacity = world.capacity(id, link);
                if capacity <= 0.0 {
                    let waste = remaining.min(1.0);
                    world.record_wasted_slots(waste);
                    return (waste, true);
                }
                let cost = remaining.min(backlog as f64 / capacity);
                let tx = world.transmit_data(id, cost, u32::MAX, link);
                if tx.delivered == 0 && tx.errored == 0 {
                    world.record_wasted_slots(cost);
                }
                (cost, true)
            }
        }
    }
}

impl UplinkMac for DTdma {
    fn kind(&self) -> ProtocolKind {
        if self.adaptive {
            ProtocolKind::DTdmaVr
        } else {
            ProtocolKind::DTdmaFr
        }
    }

    fn forget_terminal(&mut self, id: TerminalId) {
        self.reservations.remove(id);
        self.queue.remove(id);
    }

    fn run_frame(&mut self, world: &mut FrameWorld<'_>) {
        let fs = world.config.frame;
        world.record_offered_slots(fs.info_slots);

        if world.frame == 0 {
            common::seed_initial_reservations(world, &mut self.reservations);
        }
        common::release_ended_reservations(world, &mut self.reservations);
        self.queue.purge_idle(world);

        // Service list: reserved voice packets due, then queued requests,
        // then this frame's contention winners — all first-come-first-served.
        common::reserved_voice_due_into(
            world,
            &self.reservations,
            &mut self.due_scratch,
            &mut self.due,
        );
        self.service.clear();
        self.service.extend(self.due.iter().copied());
        let queued_len = self.queue.len();
        self.service.extend(self.queue.iter());
        self.exclude.clear();
        self.exclude.extend(self.queue.iter());
        self.queue.clear();

        common::contenders_into(
            world,
            &self.reservations,
            &self.exclude,
            &mut self.contenders,
        );
        world.contend_into(fs.request_slots, &self.contenders, &mut self.winners);
        self.service.extend(self.winners.iter().copied());

        if world.measuring {
            let qlen = self.queue.len() + queued_len;
            world
                .metrics_mut()
                .contention
                .queue_length
                .push(qlen as f64);
        }

        let mut remaining = fs.info_slots as f64;
        self.unserved.clear();
        while let Some(id) = self.service.pop_front() {
            if remaining <= 1e-9 {
                self.unserved.push(id);
                continue;
            }
            let (used, served) = self.serve(world, id, remaining);
            remaining -= used;
            if !served {
                self.unserved.push(id);
            }
        }

        // Acknowledged-but-unserved requests go to the request queue when it
        // is enabled; otherwise they are forgotten and the terminals contend
        // again.  Reserved voice terminals never need to re-request.
        for &id in &self.unserved {
            if !self.reservations.contains(id) && world.has_backlog(id) {
                let _ = self.queue.push(id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fr_and_vr_report_their_identities() {
        let cfg = SimConfig::quick_test();
        let fr = DTdma::fixed_rate(&cfg);
        let vr = DTdma::variable_rate(&cfg);
        assert_eq!(fr.kind().label(), "D-TDMA/FR");
        assert_eq!(fr.kind(), ProtocolKind::DTdmaFr);
        assert_eq!(vr.kind().label(), "D-TDMA/VR");
        assert_eq!(vr.kind(), ProtocolKind::DTdmaVr);
        assert!(fr.kind().supports_request_queue());
    }

    #[test]
    fn link_matches_variant() {
        let cfg = SimConfig::quick_test();
        assert_eq!(DTdma::fixed_rate(&cfg).link(), LinkAdaptation::Fixed);
        assert_eq!(DTdma::variable_rate(&cfg).link(), LinkAdaptation::Tracking);
    }

    #[test]
    fn reservations_start_empty() {
        let cfg = SimConfig::quick_test();
        assert_eq!(DTdma::fixed_rate(&cfg).active_reservations(), 0);
    }
}
