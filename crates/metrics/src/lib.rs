//! # charisma-metrics — statistics and QoS metrics
//!
//! Collects the three performance measures of the paper's evaluation
//! (Section 5) plus the engineering statistics used for analysis:
//!
//! * **Voice packet loss rate** `P_loss = (N_tx − N_rv) / N_tx` — combining
//!   deadline drops at the terminal and transmission errors on the channel.
//! * **Data throughput** δ — average number of data packets successfully
//!   received at the base station per frame.
//! * **Data delay** `D_d` — average time a data packet waits from its arrival
//!   at the terminal until the start of its successful transmission
//!   (retransmissions after errors therefore add delay, as in the paper).
//! * Slot utilisation and contention statistics used by the discussion
//!   section reproduction (Section 5.3).
//!
//! [`capacity`] implements the capacity searches quoted in the paper, e.g.
//! "number of voice users supportable at a 1 % loss threshold" and the
//! (delay ≤ 1 s, throughput ≥ 0.25) QoS operating point for data.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod capacity;
pub mod counters;
pub mod stats;

pub use capacity::{capacity_at_threshold, crossing_load};
pub use counters::{
    CellCounters, ContentionStats, DataStats, HandoffStats, RunMetrics, SlotStats, VoiceStats,
};
pub use stats::{student_t_975, RepsAccumulator, RunningStat};
