//! DRMA — dynamic reservation multiple access (paper Section 3.3).
//!
//! DRMA has no dedicated request subframe: a frame consists of `N_k`
//! information slots, and before each slot the base station announces whether
//! it is assigned.  An *unassigned* information slot is converted on the fly
//! into `N_x` request minislots in which active terminals contend; the
//! winners are appended to the service list and use later information slots
//! of the same frame (or of subsequent frames, via the request queue).
//!
//! The defining property is self-stabilisation: when the system is loaded,
//! every slot is assigned, no contention opportunities exist and terminals
//! implicitly queue at their own side ("distributed request queueing"), so
//! the protocol cannot thrash — which is also why an explicit base-station
//! request queue adds little (Section 5.1 of the paper).

use std::collections::VecDeque;

use crate::config::SimConfig;
use crate::protocols::common::{self, IdSet, RequestQueue};
use crate::protocols::{ProtocolKind, UplinkMac};
use crate::world::{FrameWorld, LinkAdaptation, VoiceTx};
use charisma_des::SimTime;
use charisma_traffic::{TerminalClass, TerminalId};

/// The DRMA protocol.
#[derive(Debug, Clone)]
pub struct Drma {
    reservations: IdSet,
    queue: RequestQueue,
    /// Reusable per-frame buffers (cleared every frame; no cross-frame state).
    exclude: IdSet,
    pool: Vec<TerminalId>,
    winners: Vec<TerminalId>,
    pending: VecDeque<TerminalId>,
    due: Vec<TerminalId>,
    due_scratch: Vec<(SimTime, TerminalId)>,
}

impl Drma {
    /// Builds DRMA for a scenario configuration.
    pub fn new(config: &SimConfig) -> Self {
        Drma {
            reservations: IdSet::new(),
            queue: RequestQueue::from_config(config),
            exclude: IdSet::new(),
            pool: Vec::new(),
            winners: Vec::new(),
            pending: VecDeque::new(),
            due: Vec::new(),
            due_scratch: Vec::new(),
        }
    }

    /// Number of terminals currently holding a voice reservation.
    pub fn active_reservations(&self) -> usize {
        self.reservations.len()
    }
}

impl UplinkMac for Drma {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Drma
    }

    fn forget_terminal(&mut self, id: TerminalId) {
        self.reservations.remove(id);
        self.queue.remove(id);
    }

    fn run_frame(&mut self, world: &mut FrameWorld<'_>) {
        let fs = world.config.frame;
        world.record_offered_slots(fs.drma_info_slots);

        if world.frame == 0 {
            common::seed_initial_reservations(world, &mut self.reservations);
        }
        common::release_ended_reservations(world, &mut self.reservations);
        self.queue.purge_idle(world);

        // Pending service: reserved voice packets due, then queued requests.
        common::reserved_voice_due_into(
            world,
            &self.reservations,
            &mut self.due_scratch,
            &mut self.due,
        );
        self.pending.clear();
        self.pending.extend(self.due.iter().copied());
        let queued_len = self.queue.len();
        self.pending.extend(self.queue.iter());
        self.queue.clear();

        if world.measuring {
            world
                .metrics_mut()
                .contention
                .queue_length
                .push(queued_len as f64);
        }

        // Terminals that may contend when an unassigned slot is converted
        // (everything already pending — due renewals and drained queue
        // entries — is represented at the base station).
        self.exclude.clear();
        self.exclude.extend(self.pending.iter().copied());
        common::contenders_into(world, &self.reservations, &self.exclude, &mut self.pool);

        // Walk the N_k information slots of the frame.
        for _slot in 0..fs.drma_info_slots {
            if let Some(id) = self.pending.pop_front() {
                match world.class(id) {
                    TerminalClass::Voice => {
                        if world.voice_backlog(id) == 0 {
                            // Nothing due after all: the slot falls through to
                            // contention below on the next iteration; to keep
                            // the walk simple we simply leave it unassigned.
                            continue;
                        }
                        match world.transmit_voice(id, 1.0, LinkAdaptation::Fixed) {
                            VoiceTx::Delivered | VoiceTx::Errored => {
                                self.reservations.insert(id);
                            }
                            VoiceTx::InsufficientCapacity => {
                                world.record_wasted_slots(1.0);
                                self.reservations.insert(id);
                            }
                            VoiceTx::NoPacket => {}
                        }
                    }
                    TerminalClass::Data => {
                        // One information slot per successful data request; the
                        // terminal contends again for the rest of its burst.
                        let tx = world.transmit_data(id, 1.0, u32::MAX, LinkAdaptation::Fixed);
                        if tx.delivered == 0 && tx.errored == 0 {
                            world.record_wasted_slots(1.0);
                        }
                    }
                }
            } else {
                // Unassigned slot → N_x request minislots.
                if self.pool.is_empty() {
                    continue;
                }
                world.contend_into(fs.drma_minislots, &self.pool, &mut self.winners);
                if !self.winners.is_empty() {
                    let winners = &self.winners;
                    self.pool.retain(|id| !winners.contains(id));
                    self.pending.extend(winners.iter().copied());
                }
            }
        }

        // Winners acknowledged late in the frame that found no free slot are
        // queued (if the queue is enabled) or forgotten.
        for &id in &self.pending {
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
        let d = Drma::new(&cfg);
        assert_eq!(d.kind().label(), "DRMA");
        assert_eq!(d.kind(), ProtocolKind::Drma);
        assert!(d.kind().supports_request_queue());
        assert_eq!(d.active_reservations(), 0);
    }
}
