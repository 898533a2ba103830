//! The benchmark's own copy of the single-cell frame loop, built only from
//! the simulator's public API (`Terminal::new` + `TerminalColumns::push`,
//! `TerminalColumns::begin_frame_all`, `Cell::step`), with a span around
//! each layer call.  The traced run checks that it reproduces
//! `Scenario::run`'s metrics exactly before reporting any of its times.

use charisma::des::RngStreams;
use charisma::metrics::RunMetrics;
use charisma::traffic::{TerminalClass, TerminalId};
use charisma::{Cell, FrameTraffic, ProtocolKind, SimConfig, Terminal, TerminalColumns, UplinkMac};
use std::time::Instant;

/// A single-cell world, built and ready to step.
pub struct SingleCell {
    columns: TerminalColumns,
    cell: Cell,
    mac: Box<dyn UplinkMac>,
}

/// Host time and counts of one traced single-cell run.
pub struct LoopTrace {
    /// Building the world ([`SingleCell::build`]).
    pub build_s: f64,
    /// The whole frame loop.
    pub loop_s: f64,
    /// The frame outside `Cell::step`: `begin_frame_all` plus the loop's
    /// own few additions to the metrics.
    pub columns_s: f64,
    /// Inside `Cell::step`.
    pub cell_s: f64,
    /// Inside `Cell::step` on measured frames only (the frames whose
    /// contention attempts `RunMetrics` counts).
    pub cell_measured_s: f64,
    pub frames: u64,
    pub terminal_frames: u64,
    /// Terminal-frames whose `FrameTraffic` reported any event (counted only
    /// when asked: the count is an extra pass over every slot of every
    /// frame, so a run that counts is not timed).
    pub event_slots: Option<u64>,
    pub metrics: RunMetrics,
}

impl SingleCell {
    /// Builds the population exactly as `Scenario::run` does: voice
    /// terminals first, then data, all attached to cell 0.
    pub fn build(config: &SimConfig, protocol: ProtocolKind) -> SingleCell {
        let streams = RngStreams::new(config.seed);
        let clock = config.clock();
        let n = config.num_voice + config.num_data;
        let mut columns = TerminalColumns::with_capacity(clock, config.channel_mode, n as usize);
        for i in 0..n {
            let class = if i < config.num_voice {
                TerminalClass::Voice
            } else {
                TerminalClass::Data
            };
            let mut terminal = Terminal::new(
                TerminalId(i),
                class,
                clock,
                config.voice_source,
                config.data_source,
                config.channel,
                config.channel_mode,
                &config.speed,
                &streams,
            );
            if let Some(ramp) = &config.ramp {
                if class == TerminalClass::Voice && i >= ramp.initial_voice {
                    terminal.set_active_from_frame(ramp.activation_frame);
                }
            }
            columns.push(terminal);
        }
        SingleCell {
            columns,
            cell: Cell::new(config, &streams, 0, (0..n).map(TerminalId).collect()),
            mac: protocol.build(config),
        }
    }

    /// Builds and runs `config` with spans around every layer call.  Two
    /// timestamps per frame: the spans tile the loop, so their cost is the
    /// whole tracing overhead.
    pub fn run_traced(config: &SimConfig, protocol: ProtocolKind, count_events: bool) -> LoopTrace {
        let start = Instant::now();
        let mut world = SingleCell::build(config, protocol);
        let build_s = start.elapsed().as_secs_f64();

        let n = world.columns.len();
        let mut traffic = vec![FrameTraffic::default(); n];
        let total = config.total_frames();
        let drop_grace = config.clock().frames_per(config.voice_source.deadline);
        let (mut columns_s, mut cell_s, mut cell_measured_s) = (0.0, 0.0, 0.0);
        let mut event_slots = 0u64;

        let loop_start = Instant::now();
        let mut mark = loop_start;
        for frame in 0..total {
            let measuring = frame >= config.warmup_frames;
            let measuring_drops = frame >= config.warmup_frames + drop_grace;

            let totals = world.columns.begin_frame_all(frame, &mut traffic);
            if measuring {
                let metrics = world.cell.metrics_mut();
                metrics.voice.generated += totals.voice_generated;
                if measuring_drops {
                    metrics.voice.dropped_deadline += totals.voice_dropped;
                }
                metrics.data.arrived += totals.data_arrived;
            }
            if count_events {
                let quiet = FrameTraffic::default();
                event_slots += traffic.iter().filter(|t| **t != quiet).count() as u64;
            }
            let stepping = Instant::now();
            world.cell.step(
                frame,
                config,
                measuring,
                &traffic,
                &mut world.columns,
                world.mac.as_mut(),
            );
            let stepped = Instant::now();

            columns_s += (stepping - mark).as_secs_f64();
            let step = (stepped - stepping).as_secs_f64();
            cell_s += step;
            if measuring {
                cell_measured_s += step;
            }
            mark = stepped;
        }
        let loop_s = (mark - loop_start).as_secs_f64();

        LoopTrace {
            build_s,
            loop_s,
            columns_s,
            cell_s,
            cell_measured_s,
            frames: total,
            terminal_frames: total * n as u64,
            event_slots: count_events.then_some(event_slots),
            metrics: world.cell.into_metrics(),
        }
    }
}
