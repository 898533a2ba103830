//! Property-based tests for [`ScenarioSpec`] encoding and expansion: every
//! representable spec — including the multi-cell `cells`/`layout`/`handoff`
//! fields — encodes to JSON text that survives the parser and printer byte
//! for byte (the manifest and the checkpoint hash rely on it), and expands
//! into points that each carry a valid `SimConfig`.
//!
//! The proptest runner is the workspace's deterministic fixed-seed shim, so
//! the suite explores the same cases on every machine.

use charisma::spec::{Axis, DurationSpec, FrameBudget, QueueToggle, RampSpec, RepsSpec};
use charisma::{
    HandoffAdmission, HandoffConfig, Json, Layout, ProtocolKind, ReplicationPolicy, ScenarioSpec,
};
use charisma_radio::{ChannelMode, SpeedProfile};
use proptest::prelude::*;

/// Builds a valid spec from raw generator draws.  All float-valued fields
/// are quantised to exactly representable values so textual JSON round-trips
/// are bit-exact by construction (the codec itself preserves any shortest-
/// round-trip float, but the property should not depend on that).
#[allow(clippy::too_many_arguments)]
fn build_spec(
    proto_mask: u32,
    axis_pick: u32,
    mut nv_grid: Vec<u32>,
    mut nd_grid: Vec<u32>,
    speed_pick: u32,
    speed_a: u32,
    speed_b: u32,
    fast_quarters: u32,
    mut speed_grid: Vec<u32>,
    eager: bool,
    duration_pick: bool,
    warmup: u64,
    measured: u64,
    queue_pick: u32,
    seed: Option<u64>,
    csi_aware: bool,
    ramp_quarters: Option<u32>,
    reps_pick: u32,
    cells: u32,
    line_layout: bool,
    radius_steps: u32,
    queue_admission: bool,
    unlimited_capacity: bool,
    capacity_extra: u32,
    retry_frames: u64,
    hysteresis_steps: u32,
) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new("prop");

    spec.protocols = ProtocolKind::ALL
        .into_iter()
        .enumerate()
        .filter(|(i, _)| proto_mask & (1 << i) != 0)
        .map(|(_, p)| p)
        .collect();
    if spec.protocols.is_empty() {
        spec.protocols = vec![ProtocolKind::Charisma];
    }

    nv_grid.sort_unstable();
    nv_grid.dedup();
    nd_grid.sort_unstable();
    nd_grid.dedup();
    spec.voice_users = nv_grid; // elements >= 1, so (0, 0) is unreachable
    spec.data_users = nd_grid;

    spec.axis = match axis_pick {
        0 => Axis::VoiceUsers,
        1 => Axis::DataUsers,
        2 => Axis::SpeedKmh,
        _ => Axis::Single,
    };
    if spec.axis == Axis::SpeedKmh {
        speed_grid.sort_unstable();
        speed_grid.dedup();
        spec.speed_grid_kmh = speed_grid.into_iter().map(f64::from).collect();
    }

    let (lo, hi) = (speed_a.min(speed_b), speed_a.max(speed_b));
    spec.speed = match speed_pick {
        0 => SpeedProfile::Fixed(f64::from(lo)),
        1 => SpeedProfile::Uniform {
            min_kmh: f64::from(lo),
            max_kmh: f64::from(hi),
        },
        _ => SpeedProfile::Bimodal {
            slow_kmh: f64::from(lo),
            fast_kmh: f64::from(hi),
            fraction_fast: f64::from(fast_quarters % 5) / 4.0,
        },
    };

    spec.channel_mode = if eager {
        ChannelMode::Eager
    } else {
        ChannelMode::Lazy
    };
    spec.duration = if duration_pick {
        DurationSpec::Frames { warmup, measured }
    } else {
        DurationSpec::Profile
    };

    let queue_capable = spec.protocols.iter().any(|p| p.supports_request_queue());
    spec.request_queue = match queue_pick % 3 {
        _ if !queue_capable => QueueToggle::Off,
        0 => QueueToggle::Off,
        1 => QueueToggle::On,
        _ => QueueToggle::Both,
    };

    spec.seed = seed;
    spec.csi_aware = csi_aware;
    if let Some(quarters) = ramp_quarters {
        spec.ramp = Some(RampSpec {
            initial_voice: spec.voice_users[0],
            at_measured_fraction: f64::from(quarters % 4) / 4.0,
        });
    }
    spec.replications = match reps_pick % 3 {
        0 => RepsSpec::Profile,
        1 => RepsSpec::Policy(ReplicationPolicy::fixed(1 + reps_pick % 8)),
        _ => RepsSpec::Policy(ReplicationPolicy::adaptive(
            1 + reps_pick % 4,
            1 + reps_pick % 4 + 3,
            0.25,
        )),
    };

    spec.cells = cells;
    if cells > 1 {
        let cell_radius_m = f64::from(radius_steps) * 25.0;
        spec.layout = if line_layout {
            Layout::Line { cell_radius_m }
        } else {
            Layout::Hex { cell_radius_m }
        };
        spec.handoff = HandoffConfig {
            admission: if queue_admission {
                HandoffAdmission::Queue
            } else {
                HandoffAdmission::DropOnFull
            },
            cell_capacity: if unlimited_capacity {
                0
            } else {
                spec.voice_users.last().unwrap() + spec.data_users.last().unwrap() + capacity_extra
            },
            retry_frames,
            hysteresis_m: f64::from(hysteresis_steps) * 2.5,
        };
    }
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// spec -> JSON text -> parsed JSON -> text is the identity, and
    /// expansion yields points that each pass `SimConfig` validation.
    #[test]
    fn spec_json_round_trip_is_exact(
        proto_mask in 1u32..64,
        axis_pick in 0u32..4,
        nv_grid in proptest::collection::vec(1u32..200, 1..4),
        nd_grid in proptest::collection::vec(0u32..40, 1..4),
        speed_pick in 0u32..3,
        speed_a in 0u32..120,
        speed_b in 1u32..120,
        fast_quarters in 0u32..8,
        speed_grid in proptest::collection::vec(1u32..130, 1..5),
        eager in any::<bool>(),
        duration_pick in any::<bool>(),
        warmup in 0u64..5_000,
        measured in 1u64..50_000,
        queue_pick in 0u32..3,
        seed_raw in 0u64..1_000_000,
        with_seed in any::<bool>(),
        csi_aware in any::<bool>(),
        with_ramp in any::<bool>(),
        ramp_quarters in 0u32..4,
        reps_pick in 0u32..9,
        cells in 1u32..12,
        line_layout in any::<bool>(),
        radius_steps in 2u32..40,
        queue_admission in any::<bool>(),
        unlimited_capacity in any::<bool>(),
        capacity_extra in 0u32..50,
        retry_frames in 1u64..400,
        hysteresis_steps in 0u32..12,
    ) {
        let spec = build_spec(
            proto_mask, axis_pick, nv_grid, nd_grid, speed_pick, speed_a, speed_b,
            fast_quarters, speed_grid, eager, duration_pick, warmup, measured,
            queue_pick, with_seed.then_some(seed_raw), csi_aware,
            with_ramp.then_some(ramp_quarters), reps_pick, cells, line_layout,
            radius_steps, queue_admission, unlimited_capacity, capacity_extra,
            retry_frames, hysteresis_steps,
        );
        prop_assert!(spec.validate().is_ok(), "generator produced an invalid spec");

        let text = spec.to_json_string();
        let parsed = Json::parse(&text)
            .map_err(|e| TestCaseError::fail(format!("encoder emitted invalid JSON: {e}\n{text}")))?;
        prop_assert_eq!(parsed.to_string(), text.clone(), "re-printing changed the bytes");
        prop_assert_eq!(spec.to_json_string(), text, "re-encoding changed the bytes");

        // Expansion sanity: every expanded point carries a valid SimConfig
        // and the multi-cell section exactly when cells > 1.
        let budget = FrameBudget { warmup: 10, measured: 100 };
        let points = spec.expand(budget)
            .map_err(|e| TestCaseError::fail(format!("expand failed: {e}")))?;
        prop_assert!(!points.is_empty());
        for p in &points {
            prop_assert_eq!(p.point.config.validate(), Ok(()));
            prop_assert_eq!(p.point.config.system.is_some(), spec.cells > 1);
        }
    }
}
