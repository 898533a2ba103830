//! One cell: a base station's per-run execution state.
//!
//! A [`Cell`] bundles everything one base station owns for the duration of a
//! run — its CSI estimator, its protocol random stream, its reusable
//! [`FrameScratch`] buffers, its [`RunMetrics`] accumulator and the list of
//! terminals currently attached to it.  [`Cell::step`] assembles the
//! per-frame [`FrameWorld`] over those pieces and hands it to a MAC
//! instance: this is the frame body that used to live inline in the
//! single-cell scenario loop, extracted so the same code drives both the
//! paper's implicit cell ([`crate::scenario::Scenario`]) and every cell of a
//! [`crate::system::SystemWorld`].
//!
//! Stream derivation: cell `k` draws its estimator and base-station streams
//! from entity [`StreamId::cell_entity`]`(k) = u32::MAX − k`, so cell 0
//! reproduces the historical single-cell streams bit for bit and cells never
//! collide with terminal entities (which count up from 0).  Because every
//! cell owns an independent sub-stream family, cells can step in parallel
//! within a frame without sharing a generator — the property the sharded
//! [`crate::system::SystemWorld`] path builds on.

use crate::config::SimConfig;
use crate::protocols::UplinkMac;
use crate::terminal::FrameTraffic;
use crate::world::{FrameScratch, FrameWorld, TerminalTable};
use charisma_des::{RngStreams, StreamId, Xoshiro256StarStar};
use charisma_metrics::RunMetrics;
use charisma_radio::CsiEstimator;
use charisma_traffic::TerminalId;

/// One base station's per-run state (see the [module docs](self)).
#[derive(Debug)]
pub struct Cell {
    index: u32,
    members: Vec<TerminalId>,
    estimator: CsiEstimator,
    bs_rng: Xoshiro256StarStar,
    scratch: FrameScratch,
    metrics: RunMetrics,
}

impl Cell {
    /// Builds cell `index` serving `members`, deriving its random streams
    /// from the scenario's stream factory.
    pub fn new(
        config: &SimConfig,
        streams: &RngStreams,
        index: u32,
        members: Vec<TerminalId>,
    ) -> Self {
        let entity = StreamId::cell_entity(index);
        Cell {
            index,
            members,
            estimator: CsiEstimator::new(
                config.csi,
                streams.stream(StreamId::new(StreamId::DOMAIN_ESTIMATION, entity)),
            ),
            bs_rng: streams.stream(StreamId::new(StreamId::DOMAIN_PROTOCOL, entity)),
            scratch: FrameScratch::default(),
            metrics: RunMetrics::default(),
        }
    }

    /// The cell's index within the system layout (0 for the implicit
    /// single cell).
    pub fn index(&self) -> u32 {
        self.index
    }

    /// The terminals currently attached, in attachment order.
    pub fn members(&self) -> &[TerminalId] {
        &self.members
    }

    /// Number of attached terminals.
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// The cell's metrics accumulator.
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// Mutable access to the metrics accumulator (the scenario loop
    /// attributes per-terminal traffic counters here).
    pub fn metrics_mut(&mut self) -> &mut RunMetrics {
        &mut self.metrics
    }

    /// Consumes the cell, yielding its accumulated metrics.
    pub fn into_metrics(self) -> RunMetrics {
        self.metrics
    }

    /// Attaches a terminal (handoff admission).
    pub(crate) fn attach(&mut self, id: TerminalId) {
        debug_assert!(
            !self.members.contains(&id),
            "terminal {id:?} already attached"
        );
        self.members.push(id);
    }

    /// Detaches a terminal (handoff departure).  Panics if it was not
    /// attached — the system layer's conservation invariant.
    pub(crate) fn detach(&mut self, id: TerminalId) {
        let pos = self
            .members
            .iter()
            .position(|&m| m == id)
            .expect("detaching a terminal that is not attached");
        self.members.remove(pos);
    }

    /// Executes one uplink frame of this cell: assembles the [`FrameWorld`]
    /// over the (global) terminal population restricted to this cell's
    /// members and runs the MAC.  `traffic` and `terminals` span the whole
    /// system, indexed by terminal id.  `terminals` is anything convertible
    /// into a [`TerminalTable`], the handle that carries the column view
    /// into the world: a `&mut `[`crate::columns::TerminalColumns`] on the
    /// single-threaded paths, a table over the shared column store under the
    /// membership partition when cells of a sharded
    /// [`crate::system::SystemWorld`] step in parallel.  The MAC then reads
    /// and serves its members only through the [`FrameWorld`] accessors.
    pub fn step<'a>(
        &mut self,
        frame: u64,
        config: &SimConfig,
        measuring: bool,
        traffic: &[FrameTraffic],
        terminals: impl Into<TerminalTable<'a>>,
        mac: &mut dyn UplinkMac,
    ) {
        // Re-borrow the table so the world's borrows end with this frame
        // (passing `terminals` straight through would tie every borrow in
        // the world to the caller-supplied lifetime `'a`).
        let mut table = terminals.into();
        let mut world = FrameWorld::new(
            frame,
            config,
            measuring,
            traffic,
            &self.members,
            table.reborrow(),
            &mut self.metrics,
            &mut self.estimator,
            &mut self.bs_rng,
            &mut self.scratch,
        );
        mac.run_frame(&mut world);
        if measuring {
            self.metrics.frames += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::ProtocolKind;
    use crate::terminal::Terminal;
    use charisma_traffic::TerminalClass;

    #[test]
    fn cell_zero_reproduces_the_historical_streams() {
        let config = SimConfig::quick_test();
        let streams = RngStreams::new(config.seed);
        let cell = Cell::new(&config, &streams, 0, vec![TerminalId(0)]);
        let legacy: Xoshiro256StarStar =
            streams.stream(StreamId::new(StreamId::DOMAIN_PROTOCOL, u32::MAX));
        assert_eq!(cell.bs_rng, legacy);
    }

    #[test]
    fn attach_detach_preserve_order_and_panic_on_missing() {
        let config = SimConfig::quick_test();
        let streams = RngStreams::new(1);
        let mut cell = Cell::new(&config, &streams, 2, vec![TerminalId(5), TerminalId(9)]);
        cell.attach(TerminalId(3));
        assert_eq!(
            cell.members(),
            &[TerminalId(5), TerminalId(9), TerminalId(3)]
        );
        cell.detach(TerminalId(9));
        assert_eq!(cell.members(), &[TerminalId(5), TerminalId(3)]);
        assert_eq!(cell.member_count(), 2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cell.detach(TerminalId(9));
        }));
        assert!(result.is_err(), "double detach must panic");
    }

    #[test]
    fn step_runs_a_mac_frame_and_counts_measured_frames() {
        use crate::columns::TerminalColumns;
        let config = SimConfig::quick_test();
        let streams = RngStreams::new(config.seed);
        let clock = config.clock();
        let mut columns = TerminalColumns::with_capacity(clock, config.channel_mode, 4);
        for i in 0..4 {
            columns.push(Terminal::new(
                TerminalId(i),
                TerminalClass::Voice,
                clock,
                config.voice_source,
                config.data_source,
                config.channel,
                config.channel_mode,
                &config.speed,
                &streams,
            ));
        }
        let mut traffic = vec![FrameTraffic::default(); columns.len()];
        let mut cell = Cell::new(&config, &streams, 0, (0..4).map(TerminalId).collect());
        let mut mac = ProtocolKind::Charisma.build(&config);
        for frame in 0..10 {
            columns.begin_frame_all(frame, &mut traffic);
            cell.step(
                frame,
                &config,
                frame >= 5,
                &traffic,
                &mut columns,
                mac.as_mut(),
            );
        }
        assert_eq!(cell.metrics().frames, 5);
        assert!(cell.metrics().slots.offered > 0.0);
    }
}
