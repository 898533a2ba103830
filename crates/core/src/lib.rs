//! # charisma — channel-adaptive uplink access control
//!
//! A from-scratch reproduction of the CHARISMA protocol and its evaluation
//! platform from
//!
//! > Y.-K. Kwok and V. K. N. Lau, *"A Novel Channel-Adaptive Uplink Access
//! > Control Protocol for Nomadic Computing"*, ICPP 2000 / IEEE TPDS 13(11),
//! > 2002.
//!
//! The crate provides:
//!
//! * the six uplink MAC protocols the paper compares — CHARISMA, D-TDMA/FR,
//!   D-TDMA/VR, RAMA, RMAV and DRMA — behind one [`protocols::UplinkMac`]
//!   trait;
//! * the common simulation platform: the terminal population
//!   ([`terminal::Terminal`] construction records stored columnar-ly in
//!   [`columns::TerminalColumns`]), the per-frame execution environment
//!   ([`world::FrameWorld`]) and the scenario runner ([`scenario::Scenario`]);
//! * the scenario configuration ([`config::SimConfig`]) encoding the paper's
//!   Table 1 parameters;
//! * multi-threaded parameter sweeps ([`sweep`]) used by the benchmark
//!   harness to regenerate every figure of the evaluation section; and
//! * the declarative scenario-campaign layer ([`spec`], [`campaign`], backed
//!   by the dependency-free [`json`] codec): named [`spec::ScenarioSpec`]
//!   overrides that serialise to JSON and expand into sweep points, so whole
//!   experiments are data instead of hand-rolled loops.  The `campaign`
//!   binary in `charisma_bench` drives every experiment of the paper (and
//!   several the paper never plotted) through this layer — see
//!   `EXPERIMENTS.md` at the repository root.
//!
//! ## Quick start
//!
//! ```
//! use charisma::{ProtocolKind, Scenario, SimConfig};
//!
//! // 20 voice terminals, 2 data terminals, short measurement window.
//! let mut config = SimConfig::quick_test();
//! config.num_voice = 20;
//! config.num_data = 2;
//!
//! let scenario = Scenario::new(config);
//! let report = scenario.run(ProtocolKind::Charisma);
//! println!("{}", report.summary());
//! assert!(report.voice_loss_rate() < 0.05);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod campaign;
pub mod cell;
pub mod columns;
pub mod config;
pub mod json;
pub mod persist;
pub mod protocols;
pub mod scenario;
pub mod spec;
pub mod sweep;
pub mod system;
pub mod terminal;
pub mod world;

pub use campaign::{Campaign, CampaignRow, CampaignRun};
pub use cell::Cell;
pub use columns::{TerminalColumns, TrafficTotals};
pub use config::{
    CharismaParams, ConfigError, ContentionConfig, FrameStructure, HandoffAdmission, HandoffConfig,
    Layout, LoadRamp, SimConfig, SystemConfig,
};
pub use json::Json;
pub use persist::{decode_replicated_result, encode_replicated_result, fnv1a_64, PersistError};
pub use protocols::{Charisma, DTdma, Drma, ProtocolKind, Rama, Rmav, UplinkMac};
pub use scenario::{RunReport, Scenario};
pub use spec::{
    Axis, CampaignPoint, DurationSpec, FrameBudget, QueueToggle, RampSpec, RepsSpec, ScenarioSpec,
    SpecError,
};
pub use sweep::{
    data_load_sweep, run_sweep, run_sweep_replicated, run_sweep_replicated_observed,
    voice_load_sweep, ReplicatedResult, ReplicationPolicy, SweepPoint, SweepResult,
};
pub use system::{cell_centers, flat_path_loss, hex_cells_for_rings, layout_bounds, SystemWorld};
pub use terminal::{FrameTraffic, Terminal};
pub use world::{DataTx, FrameScratch, FrameWorld, LinkAdaptation, VoiceTx};

// Re-export the substrate crates so downstream users need only one dependency.
pub use charisma_des as des;
pub use charisma_metrics as metrics;
pub use charisma_phy as phy;
pub use charisma_radio as radio;
pub use charisma_traffic as traffic;
