//! RAMA — resource auction multiple access (paper Section 3.1).
//!
//! RAMA replaces slotted contention with a collision-free auction: in each of
//! the `N_a` auction slots every active terminal bids a randomly drawn ID,
//! digit by digit, and the base station keeps the highest bidder — so every
//! auction slot produces exactly one winner, regardless of the number of
//! contenders.  Data terminals always draw IDs smaller than voice terminals,
//! giving voice strict priority.  Winners are served first-come-first-served
//! in the `N_i` information slots of the same frame (fixed-rate PHY); voice
//! winners keep a reservation for the rest of their talkspurt.
//!
//! The auction's MAC-visible contract — one winner per auction slot, voice
//! before data, no collisions — is modelled symbolically: the per-digit
//! orthogonal-frequency signalling of the original paper is hardware detail
//! that does not affect protocol-level behaviour.

use std::collections::VecDeque;

use crate::config::SimConfig;
use crate::protocols::common::{self, IdSet, RequestQueue};
use crate::protocols::{ProtocolKind, UplinkMac};
use crate::world::{FrameWorld, LinkAdaptation, VoiceTx};
use charisma_des::{Sampler, SimTime};
use charisma_traffic::{TerminalClass, TerminalId};

/// The RAMA protocol.
#[derive(Debug, Clone)]
pub struct Rama {
    reservations: IdSet,
    queue: RequestQueue,
    /// Reusable per-frame buffers (cleared every frame; no cross-frame state).
    exclude: IdSet,
    contenders: Vec<TerminalId>,
    auction_voice: Vec<TerminalId>,
    auction_data: Vec<TerminalId>,
    winners: Vec<TerminalId>,
    service: VecDeque<TerminalId>,
    unserved: Vec<TerminalId>,
    due: Vec<TerminalId>,
    due_scratch: Vec<(SimTime, TerminalId)>,
}

impl Rama {
    /// Builds RAMA for a scenario configuration.
    pub fn new(config: &SimConfig) -> Self {
        Rama {
            reservations: IdSet::new(),
            queue: RequestQueue::from_config(config),
            exclude: IdSet::new(),
            contenders: Vec::new(),
            auction_voice: Vec::new(),
            auction_data: Vec::new(),
            winners: Vec::new(),
            service: VecDeque::new(),
            unserved: Vec::new(),
            due: Vec::new(),
            due_scratch: Vec::new(),
        }
    }

    /// Number of terminals currently holding a voice reservation.
    pub fn active_reservations(&self) -> usize {
        self.reservations.len()
    }

    /// Runs the auction subframe: fills `self.winners` with up to `n_slots`
    /// distinct winners from `self.contenders`, voice terminals strictly
    /// before data terminals and randomly ordered within each class (each
    /// terminal redraws its ID every auction slot, so the per-slot winner is
    /// uniform among the highest class present).
    fn auction(&mut self, world: &mut FrameWorld<'_>, n_slots: u32) {
        self.auction_voice.clear();
        self.auction_data.clear();
        for &id in &self.contenders {
            match world.class(id) {
                TerminalClass::Voice => self.auction_voice.push(id),
                TerminalClass::Data => self.auction_data.push(id),
            }
        }
        // Fisher–Yates shuffle with the base-station stream: the auction IDs
        // are drawn fresh every slot, so winner order within a class is
        // uniformly random.
        for v in [&mut self.auction_voice, &mut self.auction_data] {
            for i in (1..v.len()).rev() {
                let j = Sampler::uniform_index(world.bs_rng(), i + 1);
                v.swap(i, j);
            }
        }

        self.winners.clear();
        self.winners.extend(
            self.auction_voice
                .iter()
                .chain(self.auction_data.iter())
                .copied()
                .take(n_slots as usize),
        );
        if world.measuring {
            // Every contender bids in every auction slot until it wins or the
            // subframe ends; there are no collisions by construction.
            world.metrics_mut().contention.attempts += self.contenders.len() as u64;
            world.metrics_mut().contention.successes += self.winners.len() as u64;
        }
    }
}

impl UplinkMac for Rama {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Rama
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
        self.auction(world, fs.rama_auction_slots);
        self.service.extend(self.winners.iter().copied());

        if world.measuring {
            world
                .metrics_mut()
                .contention
                .queue_length
                .push(queued_len as f64);
        }

        let mut remaining = fs.info_slots as f64;
        self.unserved.clear();
        while let Some(id) = self.service.pop_front() {
            if remaining < 1.0 {
                self.unserved.push(id);
                continue;
            }
            match world.class(id) {
                TerminalClass::Voice => {
                    if world.voice_backlog(id) == 0 {
                        continue;
                    }
                    match world.transmit_voice(id, 1.0, LinkAdaptation::Fixed) {
                        VoiceTx::Delivered | VoiceTx::Errored => {
                            self.reservations.insert(id);
                            remaining -= 1.0;
                        }
                        VoiceTx::InsufficientCapacity => {
                            world.record_wasted_slots(1.0);
                            self.reservations.insert(id);
                            remaining -= 1.0;
                        }
                        VoiceTx::NoPacket => {}
                    }
                }
                TerminalClass::Data => {
                    let backlog = world.data_backlog(id);
                    if backlog == 0 {
                        continue;
                    }
                    let slots = remaining.min(backlog as f64);
                    let tx = world.transmit_data(id, slots, u32::MAX, LinkAdaptation::Fixed);
                    if tx.delivered == 0 && tx.errored == 0 {
                        world.record_wasted_slots(slots);
                    }
                    remaining -= slots;
                }
            }
        }

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
    fn identity() {
        let cfg = SimConfig::quick_test();
        let r = Rama::new(&cfg);
        assert_eq!(r.kind().label(), "RAMA");
        assert_eq!(r.kind(), ProtocolKind::Rama);
        assert!(r.kind().supports_request_queue());
        assert_eq!(r.active_reservations(), 0);
    }
}
