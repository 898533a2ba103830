//! The six uplink access control protocols.
//!
//! | Module | Protocol | PHY | Key idea |
//! |---|---|---|---|
//! | [`dtdma`] | D-TDMA/FR | fixed | static frame, immediate FCFS assignment |
//! | [`dtdma`] | D-TDMA/VR | adaptive (blind) | same MAC as FR over a variable-throughput PHY |
//! | [`rama`] | RAMA | fixed | collision-free ID auction |
//! | [`rmav`] | RMAV | fixed | one competitive slot per frame, multi-slot data grants |
//! | [`drma`] | DRMA | fixed | unused information slots become request minislots |
//! | [`charisma`] | CHARISMA | adaptive (CSI-aware) | gather all requests, allocate by CSI/deadline priority |
//!
//! Every protocol implements [`UplinkMac`] and is driven one frame at a time
//! by the scenario runner through a [`FrameWorld`].

pub mod charisma;
pub mod common;
pub mod drma;
pub mod dtdma;
pub mod rama;
pub mod rmav;

pub use charisma::Charisma;
pub use drma::Drma;
pub use dtdma::DTdma;
pub use rama::Rama;
pub use rmav::Rmav;

use crate::config::SimConfig;
use crate::world::FrameWorld;
use charisma_traffic::TerminalId;
use serde::{Deserialize, Serialize};

/// A MAC protocol driven frame-synchronously by the scenario runner.
///
/// `Send` is a supertrait because the sharded multi-cell path steps cells —
/// each owning one MAC instance — on worker threads; protocol state must be
/// plain data (no `Rc`, no thread affinity), which every implementation here
/// satisfies by construction.
pub trait UplinkMac: Send {
    /// Which protocol this is (its label and request-queue support are
    /// [`ProtocolKind`] facts).
    fn kind(&self) -> ProtocolKind;

    /// Executes one uplink frame: request gathering, slot allocation and
    /// packet transmission.
    fn run_frame(&mut self, world: &mut FrameWorld<'_>);

    /// Purges every piece of per-terminal state the base station holds for
    /// `id` — reservations, queued or gathered requests, cached CSI, pending
    /// grants.  The multi-cell system layer calls this on the **old** cell's
    /// MAC instance when a terminal is handed off, so a departed terminal can
    /// never be scheduled by a base station that no longer serves it.  The
    /// default is a no-op for stateless protocols.
    fn forget_terminal(&mut self, _id: TerminalId) {}
}

/// Identifies one of the six protocols under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProtocolKind {
    /// The paper's proposed channel-adaptive protocol.
    Charisma,
    /// Dynamic TDMA with a fixed-rate PHY.
    DTdmaFr,
    /// Dynamic TDMA with a (MAC-blind) variable-rate PHY.
    DTdmaVr,
    /// Resource auction multiple access.
    Rama,
    /// Reservation-based multiple access with variable frame.
    Rmav,
    /// Dynamic reservation multiple access.
    Drma,
}

impl ProtocolKind {
    /// All six protocols, in the order the paper lists them.
    pub const ALL: [ProtocolKind; 6] = [
        ProtocolKind::Charisma,
        ProtocolKind::DTdmaVr,
        ProtocolKind::DTdmaFr,
        ProtocolKind::Rama,
        ProtocolKind::Drma,
        ProtocolKind::Rmav,
    ];

    /// The display name used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            ProtocolKind::Charisma => "CHARISMA",
            ProtocolKind::DTdmaFr => "D-TDMA/FR",
            ProtocolKind::DTdmaVr => "D-TDMA/VR",
            ProtocolKind::Rama => "RAMA",
            ProtocolKind::Rmav => "RMAV",
            ProtocolKind::Drma => "DRMA",
        }
    }

    /// Whether the protocol can make use of a base-station request queue
    /// (every protocol except RMAV, per Section 4.5 of the paper).
    pub fn supports_request_queue(&self) -> bool {
        !matches!(self, ProtocolKind::Rmav)
    }

    /// Parses the display label back into a protocol (the inverse of
    /// [`ProtocolKind::label`]; used by the checkpoint record codec in
    /// [`crate::persist`]).
    pub fn from_label(label: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|p| p.label() == label)
    }

    /// Builds a fresh protocol instance for a scenario configuration.
    pub fn build(&self, config: &SimConfig) -> Box<dyn UplinkMac> {
        match self {
            ProtocolKind::Charisma => Box::new(Charisma::new(config)),
            ProtocolKind::DTdmaFr => Box::new(DTdma::fixed_rate(config)),
            ProtocolKind::DTdmaVr => Box::new(DTdma::variable_rate(config)),
            ProtocolKind::Rama => Box::new(Rama::new(config)),
            ProtocolKind::Rmav => Box::new(Rmav::new(config)),
            ProtocolKind::Drma => Box::new(Drma::new(config)),
        }
    }
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_six_distinct_protocols() {
        let mut labels: Vec<&str> = ProtocolKind::ALL.iter().map(|p| p.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 6);
    }

    #[test]
    fn rmav_is_the_only_protocol_without_request_queue_support() {
        for p in ProtocolKind::ALL {
            assert_eq!(p.supports_request_queue(), p != ProtocolKind::Rmav, "{p}");
        }
    }

    #[test]
    fn factory_builds_matching_kinds() {
        let cfg = SimConfig::quick_test();
        for p in ProtocolKind::ALL {
            let built = p.build(&cfg);
            assert_eq!(built.kind(), p);
        }
    }
}
