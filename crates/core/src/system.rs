//! The multi-cell system layer: spatial mobility, path-loss SNR and handoff.
//!
//! The paper evaluates its protocols inside one cell; [`SystemWorld`]
//! generalises the platform to N cells on a hex or corridor layout
//! ([`Layout`]).  Each cell is an independent [`Cell`] — its own MAC
//! instance, CSI estimator, base-station stream (derived from the run seed
//! and the cell id, see [`charisma_des::StreamId::cell_entity`]), scratch
//! buffers and metrics.
//!
//! # The sharded wavefront
//!
//! Every frame advances through four phases.  Two are *serial* (they touch
//! cross-cell state) and two are *parallel over cells* (they touch only one
//! cell's members and its own accumulators), which is what lets city-scale
//! layouts step their cells on worker threads inside one sweep point:
//!
//! 1. **Queue drain** (serial): cells with room admit terminals parked in
//!    their handoff admission queues, oldest first.
//! 2. **Roam** (parallel per cell): each member's traffic sources advance
//!    (counters attributed to the serving cell), its random-waypoint motion
//!    steps, its distance to its serving base station is computed once and
//!    stored in the terminal columns, and — when a different base station
//!    has become closer by the hysteresis margin — a handoff attempt is
//!    recorded in the cell's **mailbox**.  Nothing cross-cell is touched.
//!    The mean SNR is *not* evaluated here: the base station samples a
//!    terminal's channel only for request pilots, CSI polls and
//!    transmissions, so the path loss ([`PathLossConfig`]) plus the link's
//!    site shadow is evaluated from the stored distance at that sample, the
//!    same float expression on the same inputs as an every-frame update.
//!    The nearest base station comes from a `CellLocator` built once per
//!    run, handed the serving distance as its walk's start distance: a walk
//!    from the serving cell over precomputed neighbourhoods
//!    (every center within two spacings), so a lookup costs O(neighbours)
//!    rather than O(cells), and nothing at all for a terminal within half a
//!    spacing of its serving center.  It is exact: when the walk stops at a
//!    cell closer than half the neighbourhood reach, the triangle
//!    inequality certifies that no cell outside the neighbourhood can be as
//!    close, so the answer — distance bits and lowest-id tie-break included
//!    — is the full scan's.  Positions the certificate cannot cover
//!    (outside the layout's hull) fall back to that scan, which debug
//!    builds also re-run after every lookup as an oracle.
//! 3. **Merge** (serial): the mailboxes are applied in cell-id order —
//!    queue departures first-come, attempts admitted, queued or refused per
//!    [`crate::config::HandoffConfig`] — and the per-cell streaming
//!    statistics (occupancy, admission-queue length) are folded.
//! 4. **MAC step** (parallel per cell): each cell's MAC runs one uplink
//!    frame over its current membership.
//!
//! One frame loop runs these phases at every thread count.  With
//! [`SystemConfig::threads`] = T, the calling thread is party 0 and T − 1
//! scoped threads join it; party `w` owns the contiguous block of cells
//! `[w·n/T, (w+1)·n/T)` for both parallel phases, and party 0 alone runs
//! the serial phases.  A phase gate (spin, then yield, then park) separates
//! the phases with two sync points per frame:
//!
//! ```text
//! party 0:   ─┤ drain ├─ roam own ─┤ merge ├─ MAC own ─┤ drain ├─ …
//! party w>0: ─┤ wait  ├─ roam own ─┤ wait  ├─ MAC own ─┤ wait  ├─ …
//!             gate                 gate                gate (next frame)
//! ```
//!
//! With one party the gate returns at once and no thread is spawned.  The
//! parallel phases are order-independent across cells (every random draw
//! comes from a per-terminal or per-cell stream, every counter lands in the
//! acting cell's own accumulator) and the serial phases apply cross-cell
//! effects in deterministic cell-id order, so a run's report is
//! **byte-identical at any thread count**; the determinism suite pins this.
//!
//! Terminal ids are global (`cell · per_cell + local`), so a terminal keeps
//! its traffic, channel and contention streams across handoffs: migrating
//! changes *who serves it*, never *who it is*.  The old cell's MAC purges
//! its per-terminal state through [`UplinkMac::forget_terminal`].
//!
//! With `cells = 1` and a flat path-loss profile the system run reproduces
//! the single-cell scenario's metrics exactly (terminal motion draws from
//! its own dedicated RNG domain, so it never perturbs the other streams);
//! the equivalence is pinned by a test below.

use crate::cell::Cell;
use crate::columns::{ColumnsView, TerminalColumns};
use crate::config::{HandoffAdmission, Layout, SimConfig, SystemConfig};
use crate::protocols::{ProtocolKind, UplinkMac};
use crate::scenario::RunReport;
use crate::terminal::{FrameTraffic, Terminal};
use crate::world::TerminalTable;
use charisma_des::{RngStreams, StreamId, Xoshiro256StarStar};
use charisma_metrics::{CellCounters, HandoffStats, RunMetrics, RunningStat};
use charisma_radio::{Bounds, PathLossConfig, Position, RandomWaypoint};
use charisma_traffic::TerminalId;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

/// The cell centers of a layout, in cell-index order.
///
/// Hex layouts fill a spiral of rings around the center cell (cell 0 at the
/// origin, cells 1–6 the first ring, 7–18 the second, …); line layouts march
/// along the x axis.  Adjacent centers sit `√3 · radius` apart in both.
pub fn cell_centers(layout: &Layout, cells: u32) -> Vec<Position> {
    let spacing = center_spacing_m(layout);
    match layout {
        Layout::Line { .. } => (0..cells)
            .map(|i| Position::new(i as f64 * spacing, 0.0))
            .collect(),
        Layout::Hex { .. } => {
            // Axial hex coordinates walked ring by ring (the classic spiral).
            let dirs: [(i64, i64); 6] = [(1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1)];
            let mut axial: Vec<(i64, i64)> = vec![(0, 0)];
            let mut ring: i64 = 1;
            while (axial.len() as u32) < cells {
                let (mut q, mut r) = (-ring, ring); // dirs[4] scaled by `ring`
                for d in dirs {
                    for _ in 0..ring {
                        if (axial.len() as u32) < cells {
                            axial.push((q, r));
                        }
                        q += d.0;
                        r += d.1;
                    }
                }
                ring += 1;
            }
            axial
                .into_iter()
                .map(|(q, r)| {
                    Position::new(
                        spacing * (q as f64 + r as f64 / 2.0),
                        spacing * (3f64.sqrt() / 2.0) * r as f64,
                    )
                })
                .collect()
        }
    }
}

/// The distance between adjacent cell centers: `√3 · radius` in both
/// layouts.
fn center_spacing_m(layout: &Layout) -> f64 {
    3f64.sqrt() * layout.cell_radius_m()
}

/// Number of cells in a hex city of `rings` complete rings around the center
/// cell: `1 + 3·rings·(rings + 1)` (0 rings → 1 cell, 1 → 7, 2 → 19, …,
/// 6 → 127).  Pass the result as the cell count of a [`Layout::Hex`] system
/// to get a fully filled hexagonal city grid — the shape the `city_scale`
/// campaign uses for its 100+-cell runs.
pub const fn hex_cells_for_rings(rings: u32) -> u32 {
    1 + 3 * rings * (rings + 1)
}

/// The motion bounds of a layout: the bounding box of the cell centers,
/// expanded by one cell radius on every side.  An empty center list yields
/// the single-cell box around the origin (rather than an unusable infinite
/// box).
pub fn layout_bounds(centers: &[Position], cell_radius_m: f64) -> Bounds {
    if centers.is_empty() {
        return Bounds::new(
            Position::new(-cell_radius_m, -cell_radius_m),
            Position::new(cell_radius_m, cell_radius_m),
        );
    }
    let mut min = Position::new(f64::INFINITY, f64::INFINITY);
    let mut max = Position::new(f64::NEG_INFINITY, f64::NEG_INFINITY);
    for c in centers {
        min.x_m = min.x_m.min(c.x_m);
        min.y_m = min.y_m.min(c.y_m);
        max.x_m = max.x_m.max(c.x_m);
        max.y_m = max.y_m.max(c.y_m);
    }
    Bounds::new(
        Position::new(min.x_m - cell_radius_m, min.y_m - cell_radius_m),
        Position::new(max.x_m + cell_radius_m, max.y_m + cell_radius_m),
    )
}

/// The nearest cell center to `pos` by a scan over every center: the
/// first minimum of `pos.distance_m(center)` in cell-id order, so an exact
/// tie goes to the lowest id.
///
/// This is the definition [`CellLocator::nearest`] reproduces bit for bit;
/// the locator calls it only when its certificate fails.
///
/// # Panics
///
/// Panics when `centers` is empty.
fn nearest_by_scan(centers: &[Position], pos: Position) -> (u32, f64) {
    centers
        .iter()
        .enumerate()
        .map(|(c, &center)| (c as u32, pos.distance_m(center)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("a system has at least one cell")
}

/// Exact nearest-cell lookup in O(neighbours) instead of O(cells).
///
/// Each cell `k` keeps its *neighbourhood* `N_k`: the ids of every center
/// within `reach` of its own (itself included), in ascending id order.
/// [`CellLocator::nearest`] walks from a start cell to the first minimum of
/// its neighbourhood until the walk stays put at some `k`.  Every move
/// strictly lowers the (distance, id) pair, so the walk terminates.
///
/// **Certificate.**  A center `j ∉ N_k` lies more than `reach` from
/// `c_k`, so by the triangle inequality `d(p, j) > reach − d(p, k)`.  When
/// `d(p, k) < reach / 2` every such `j` is strictly farther than `k`, the
/// scan's winner lies in `N_k`, and scanning `N_k` in id order with the same
/// float expression returns the same bits as [`nearest_by_scan`] — ties to
/// the lowest id included.  Otherwise (positions outside the layout's hull)
/// the locator falls back to the full scan.
///
/// **Inner disc.**  The same inequality with the smallest center separation
/// in place of `reach`: a position closer to the start cell than half that
/// separation is strictly closer to it than to any other center, so the
/// walk returns at once — the common case of a terminal deep inside its
/// serving cell.  The relative slack on every bound dwarfs the few-ulp
/// rounding error of the distances involved.
#[derive(Debug)]
struct CellLocator {
    centers: Vec<Position>,
    /// `neighbours[offsets[k]..offsets[k + 1]]` is `N_k`.
    offsets: Vec<u32>,
    neighbours: Vec<u32>,
    /// Walks that stop strictly closer than this are certified.
    certified_m: f64,
    /// Positions strictly closer than this to the start cell are certified
    /// without a walk (the inner-disc radius).
    inner_m: f64,
}

impl CellLocator {
    /// Relative slack on the neighbourhood reach and the certificate bound.
    const SLACK: f64 = 1e-9;

    /// Builds the neighbourhoods of `centers` with a reach of two center
    /// spacings (the first two hex rings, or two cells either way along a
    /// line) and finds the smallest center separation, capped at the reach
    /// (every center outside a neighbourhood is farther than that anyway).
    /// One pass over the squared pairwise distances.
    fn new(centers: Vec<Position>, spacing_m: f64) -> Self {
        let reach = 2.0 * spacing_m * (1.0 + Self::SLACK);
        let reach_sq = reach * reach;
        let mut offsets = Vec::with_capacity(centers.len() + 1);
        let mut neighbours = Vec::new();
        let mut min_sep_sq = reach_sq;
        offsets.push(0);
        for (k, a) in centers.iter().enumerate() {
            for (j, b) in centers.iter().enumerate() {
                let (dx, dy) = (a.x_m - b.x_m, a.y_m - b.y_m);
                let sq = dx * dx + dy * dy;
                // The separation minimum only folds neighbours, which keeps
                // its dependency chain off the every-pair path.
                if sq <= reach_sq {
                    neighbours.push(j as u32);
                    if j != k {
                        min_sep_sq = min_sep_sq.min(sq);
                    }
                }
            }
            offsets.push(neighbours.len() as u32);
        }
        CellLocator {
            centers,
            offsets,
            neighbours,
            certified_m: 0.5 * reach * (1.0 - Self::SLACK),
            inner_m: 0.5 * min_sep_sq.sqrt() * (1.0 - Self::SLACK),
        }
    }

    /// The cell centers, in cell-index order.
    fn centers(&self) -> &[Position] {
        &self.centers
    }

    /// The nearest cell center to `pos` and its distance, identical to
    /// [`nearest_by_scan`] (bits included) from any `start` cell.
    /// `d_start` is `pos.distance_m` of the start cell's center, which the
    /// caller has already computed.
    fn nearest(&self, pos: Position, start: u32, d_start: f64) -> (u32, f64) {
        self.walk(pos, start, d_start)
            .unwrap_or_else(|| nearest_by_scan(&self.centers, pos))
    }

    /// The neighbourhood walk from `start`; `None` when its fixed point is
    /// not certified (see the [type docs](Self)).
    fn walk(&self, pos: Position, start: u32, d_start: f64) -> Option<(u32, f64)> {
        debug_assert_eq!(
            d_start.to_bits(),
            pos.distance_m(self.centers[start as usize]).to_bits(),
            "d_start must be the distance to the start cell"
        );
        if d_start < self.inner_m {
            return Some((start, d_start));
        }
        let mut k = start;
        loop {
            let (lo, hi) = (self.offsets[k as usize], self.offsets[k as usize + 1]);
            let (best, d) = self.neighbours[lo as usize..hi as usize]
                .iter()
                .map(|&j| (j, pos.distance_m(self.centers[j as usize])))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("every neighbourhood holds its own cell");
            if best == k {
                return (d < self.certified_m).then_some((k, d));
            }
            k = best;
        }
    }
}

/// Per-terminal roaming state.
#[derive(Debug)]
struct RoamState {
    /// Index of the serving cell.
    serving: u32,
    /// Random-waypoint motion.
    motion: RandomWaypoint,
    /// The terminal's mobility stream (waypoint targets, shadowing draws;
    /// the current link's site shadow lives in the terminal columns).
    rng: Xoshiro256StarStar,
    /// No handoff attempts before this frame (drop-on-full retry damping).
    retry_at: u64,
    /// The cell whose admission queue the terminal currently waits in.
    queued_for: Option<u32>,
    /// Whether the queued attempt was recorded in the measured counters
    /// (false for attempts queued during warm-up), so a later admission is
    /// counted exactly when its attempt was.
    attempt_measured: bool,
}

/// A cross-cell effect recorded during the parallel roam phase and applied
/// in the serial merge (see the [module docs](self)).
#[derive(Debug, Clone, Copy)]
enum RoamEvent {
    /// The terminal roamed out of the region it was queued for; remove it
    /// from `waiting`'s admission queue.
    LeaveQueue {
        /// The departing terminal.
        id: TerminalId,
        /// The cell whose queue it was parked in.
        waiting: u32,
    },
    /// A handoff attempt towards `target`, to be admitted, queued or
    /// refused by the merge.
    Attempt {
        /// The attempting terminal.
        id: TerminalId,
        /// The cell that has become nearest.
        target: u32,
        /// Whether the attempt falls inside the measured interval (gates
        /// every counter this attempt ever touches, including a queued
        /// admission resolved frames later).
        measured: bool,
    },
}

/// One cell's per-frame mailbox: the cross-cell effects its members
/// produced during the parallel roam phase, in member order.
#[derive(Debug, Default)]
struct CellMailbox {
    events: Vec<RoamEvent>,
}

/// A multi-cell run, ready to execute (see the [module docs](self)).
pub struct SystemWorld {
    config: SimConfig,
    system: SystemConfig,
    protocol: ProtocolKind,
    terminals: TerminalColumns,
    traffic: Vec<FrameTraffic>,
    macs: Vec<Box<dyn UplinkMac>>,
    cells: Vec<Cell>,
    locator: CellLocator,
    bounds: Bounds,
    roam: Vec<RoamState>,
    /// Per-cell handoff mailboxes, reused frame after frame.
    mailboxes: Vec<CellMailbox>,
    /// Per-cell handoff admission queues (the `Queue` policy).
    queues: Vec<VecDeque<TerminalId>>,
    handoff: HandoffStats,
    handoff_in: Vec<u64>,
    handoff_out: Vec<u64>,
    /// Streaming per-cell occupancy, folded once per measured frame.
    occupancy: Vec<RunningStat>,
    /// Streaming per-cell admission-queue length, folded once per measured
    /// frame.
    queue_len: Vec<RunningStat>,
}

impl SystemWorld {
    /// Builds the system: `cells · (num_voice + num_data)` terminals with
    /// global ids, scattered uniformly over their starting cells, one MAC
    /// instance per cell.
    ///
    /// # Panics
    ///
    /// Panics with the [`SimConfig::validate`] message when the
    /// configuration is invalid, and when it has no [`SimConfig::system`]
    /// section.
    pub fn new(config: SimConfig, protocol: ProtocolKind) -> Self {
        config.validate().unwrap_or_else(|e| panic!("{e}"));
        let system = config
            .system
            .expect("SystemWorld needs a SimConfig with a system section");
        let streams = RngStreams::new(config.seed);
        let per_cell = config.num_voice + config.num_data;
        let locator = CellLocator::new(
            cell_centers(&system.layout, system.cells),
            center_spacing_m(&system.layout),
        );
        let centers = locator.centers();
        let bounds = layout_bounds(centers, system.layout.cell_radius_m());

        let mut terminals = TerminalColumns::with_path_loss(
            config.clock(),
            config.channel_mode,
            (system.cells * per_cell) as usize,
            system.path_loss,
        );
        let mut roam = Vec::with_capacity((system.cells * per_cell) as usize);
        let mut cells = Vec::with_capacity(system.cells as usize);
        let mut macs = Vec::with_capacity(system.cells as usize);
        for c in 0..system.cells {
            let mut members = Vec::with_capacity(per_cell as usize);
            for local in 0..per_cell {
                let idx = c * per_cell + local;
                let terminal = Terminal::from_config(&config, TerminalId(idx), local, &streams);
                let mut rng = streams.stream(StreamId::new(StreamId::DOMAIN_MOBILITY, idx));
                // Start uniformly inside the serving cell's disc.
                let radius = system.layout.cell_radius_m() * rng.next_f64().sqrt();
                let angle = std::f64::consts::TAU * rng.next_f64();
                let start = Position::new(
                    centers[c as usize].x_m + radius * angle.cos(),
                    centers[c as usize].y_m + radius * angle.sin(),
                );
                let motion =
                    RandomWaypoint::new(start, terminal.mobility().speed_kmh, &bounds, &mut rng);
                let shadow_db = system.path_loss.draw_site_shadow_db(&mut rng);
                let distance = motion.position().distance_m(centers[c as usize]);
                // Global ids ascend across the cell loop, matching the
                // columnar store's push-in-index-order contract.
                terminals.push_at(terminal, distance, shadow_db);
                roam.push(RoamState {
                    serving: c,
                    motion,
                    rng,
                    retry_at: 0,
                    queued_for: None,
                    attempt_measured: false,
                });
                members.push(TerminalId(idx));
            }
            cells.push(Cell::new(&config, &streams, c, members));
            macs.push(protocol.build(&config));
        }

        let traffic = vec![FrameTraffic::default(); terminals.len()];
        let n_cells = system.cells as usize;
        SystemWorld {
            config,
            system,
            protocol,
            terminals,
            traffic,
            macs,
            cells,
            locator,
            bounds,
            roam,
            mailboxes: (0..n_cells).map(|_| CellMailbox::default()).collect(),
            queues: vec![VecDeque::new(); n_cells],
            handoff: HandoffStats::default(),
            handoff_in: vec![0; n_cells],
            handoff_out: vec![0; n_cells],
            occupancy: vec![RunningStat::new(); n_cells],
            queue_len: vec![RunningStat::new(); n_cells],
        }
    }

    /// Every terminal id currently attached somewhere, sorted (for the
    /// conservation tests).
    pub fn attached_ids_sorted(&self) -> Vec<TerminalId> {
        let mut ids: Vec<TerminalId> = self
            .cells
            .iter()
            .flat_map(|c| c.members().iter().copied())
            .collect();
        ids.sort();
        ids
    }

    /// Executes the run and produces the system-level report: every cell's
    /// counters merged, plus the handoff statistics and per-cell breakdown.
    ///
    /// The frames run on [`SystemConfig::threads`] threads (at least one, at
    /// most one per cell), the calling thread included: it steps its own
    /// block of cells and runs every serial phase while the other threads
    /// wait at the phase gate (see the module docs).  Every thread count
    /// executes the same phase code in the same order of effect, so the
    /// report — and every CSV rendered from it — is byte-identical
    /// regardless of the thread count.
    pub fn run(&mut self) -> RunReport {
        let n_cells = self.cells.len();
        let threads = (self.system.threads.max(1) as usize).min(n_cells);
        self.with_frame_state(|grid, serial, ctx| run_frames(grid, serial, ctx, threads));

        // Population conservation, checked in every build: a lost or
        // duplicated terminal fails the run instead of writing a plausible
        // report.  Once per run over the population, so its cost is nil.
        let ids = self.attached_ids_sorted();
        assert!(
            ids.len() == self.terminals.len()
                && ids
                    .iter()
                    .enumerate()
                    .all(|(i, id)| id.index() as usize == i),
            "handoff must attach every terminal exactly once: {} attachments for {} terminals",
            ids.len(),
            self.terminals.len()
        );

        let mut metrics = RunMetrics::default();
        for cell in &self.cells {
            metrics.merge(cell.metrics());
        }
        // Merging summed the per-cell frame counters; the system measured
        // `measured_frames` wall-clock frames, which is what the per-frame
        // throughput metrics normalise by.
        metrics.frames = self.config.measured_frames;
        metrics.handoff = self.handoff;
        metrics.per_cell = self
            .cells
            .iter()
            .enumerate()
            .map(|(c, cell)| CellCounters {
                cell: c as u32,
                voice: cell.metrics().voice,
                data: cell.metrics().data.clone(),
                slots: cell.metrics().slots,
                handoff_in: self.handoff_in[c],
                handoff_out: self.handoff_out[c],
                occupancy: self.occupancy[c],
                admission_queue: self.queue_len[c],
            })
            .collect();

        RunReport {
            protocol: self.protocol,
            request_queue: self.config.request_queue,
            num_voice: self.config.num_voice,
            num_data: self.config.num_data,
            seed: self.config.seed,
            metrics,
        }
    }

    /// Calls `f` with the frame loop's state: the shard grid over the
    /// world's per-cell and per-terminal state, the serial phases' state
    /// and the per-run inputs.
    fn with_frame_state<R>(
        &mut self,
        f: impl FnOnce(&ShardGrid, &mut SerialState<'_>, &FrameCtx<'_>) -> R,
    ) -> R {
        let grid = ShardGrid {
            cells: self.cells.as_mut_ptr(),
            macs: self.macs.as_mut_ptr(),
            roam: self.roam.as_mut_ptr(),
            columns: self.terminals.view(),
            traffic: self.traffic.as_mut_ptr(),
            mailboxes: self.mailboxes.as_mut_ptr(),
            n_cells: self.cells.len(),
            n_terminals: self.terminals.len(),
        };
        let ctx = FrameCtx {
            config: &self.config,
            system: &self.system,
            locator: &self.locator,
            bounds: &self.bounds,
            dt_secs: self.config.frame.frame_duration.as_secs_f64(),
            total: self.config.total_frames(),
            warmup: self.config.warmup_frames,
            drop_grace: self
                .config
                .clock()
                .frames_per(self.config.voice_source.deadline),
        };
        let mut serial = SerialState {
            queues: &mut self.queues,
            handoff: &mut self.handoff,
            handoff_in: &mut self.handoff_in,
            handoff_out: &mut self.handoff_out,
            occupancy: &mut self.occupancy,
            queue_len: &mut self.queue_len,
        };
        f(&grid, &mut serial, &ctx)
    }
}

/// Immutable per-run inputs shared by every frame phase.
struct FrameCtx<'a> {
    config: &'a SimConfig,
    system: &'a SystemConfig,
    locator: &'a CellLocator,
    bounds: &'a Bounds,
    dt_secs: f64,
    /// Frames to run, of which the first `warmup` are not measured.
    total: u64,
    warmup: u64,
    /// Frames after `warmup` before deadline drops count (a packet dropped
    /// then was generated during the warm-up).
    drop_grace: u64,
}

impl FrameCtx<'_> {
    /// `(measuring, measuring_drops)` for `frame`.
    fn measuring(&self, frame: u64) -> (bool, bool) {
        (frame >= self.warmup, frame >= self.warmup + self.drop_grace)
    }
}

/// The cross-cell state only the serial phases (queue drain, merge) touch.
/// Only party 0 holds it, so it needs no synchronisation at all.
struct SerialState<'a> {
    queues: &'a mut [VecDeque<TerminalId>],
    handoff: &'a mut HandoffStats,
    handoff_in: &'a mut [u64],
    handoff_out: &'a mut [u64],
    occupancy: &'a mut [RunningStat],
    queue_len: &'a mut [RunningStat],
}

/// Raw per-element view over the shard state, shared by every thread of a
/// run.
///
/// Holding plain `&mut` slices here would make the two parallel phases
/// instant undefined behaviour (each worker needs mutable access into the
/// same vectors), so the grid stores base pointers — and, for the terminal
/// population, the bounds-checked column view [`ColumnsView`] over the
/// structure-of-arrays store — and materialises per-element references on
/// demand.  Soundness rests on two invariants, both enforced by the frame
/// structure:
///
/// * **spatial**: during a parallel phase, party `w` only touches its own
///   block of cells ([`party_cells`]) and their members; the blocks are
///   disjoint and the cell membership is a partition of the terminals —
///   disjoint elements, no overlap;
/// * **temporal**: a serial phase runs inside [`PhaseGate::lead`], after
///   every other party has arrived at the gate and before any is released,
///   so it has the whole grid to itself.
struct ShardGrid {
    cells: *mut Cell,
    macs: *mut Box<dyn UplinkMac>,
    roam: *mut RoamState,
    /// Bounds-checked per-column view over the global terminal store; its
    /// own safety contract is exactly the partition discipline above.
    columns: ColumnsView,
    traffic: *mut FrameTraffic,
    mailboxes: *mut CellMailbox,
    n_cells: usize,
    n_terminals: usize,
}

// SAFETY: the grid is a bundle of pointers into state owned by the
// `SystemWorld` that outlives the scoped worker threads; every pointee type
// is `Send` (asserted below, with the terminal column elements asserted by
// `ColumnsView`'s own const block), and access discipline is documented on
// the struct.
unsafe impl Send for ShardGrid {}
unsafe impl Sync for ShardGrid {}

// Everything the worker threads reach through the grid must be `Send`
// (`Box<dyn UplinkMac>` is, because the trait has a `Send` supertrait).
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Cell>();
    assert_send::<Box<dyn UplinkMac>>();
    assert_send::<RoamState>();
    assert_send::<ColumnsView>();
    assert_send::<FrameTraffic>();
    assert_send::<CellMailbox>();
};

// Returning `&mut` from `&self` is the point of the grid: exclusivity is
// guaranteed by the phase discipline (see the struct docs), not by the
// borrow checker.
#[allow(clippy::mut_from_ref)]
impl ShardGrid {
    /// # Safety
    ///
    /// The caller must hold exclusive access to cell `c` under the grid's
    /// access discipline and must not overlap this reference with another
    /// one to the same cell.
    unsafe fn cell(&self, c: usize) -> &mut Cell {
        debug_assert!(c < self.n_cells);
        &mut *self.cells.add(c)
    }

    /// # Safety
    ///
    /// As [`ShardGrid::cell`], for cell `c`'s MAC instance.
    unsafe fn mac(&self, c: usize) -> &mut Box<dyn UplinkMac> {
        debug_assert!(c < self.n_cells);
        &mut *self.macs.add(c)
    }

    /// # Safety
    ///
    /// As [`ShardGrid::cell`], for cell `c`'s mailbox.
    unsafe fn mailbox(&self, c: usize) -> &mut CellMailbox {
        debug_assert!(c < self.n_cells);
        &mut *self.mailboxes.add(c)
    }

    /// # Safety
    ///
    /// The caller must hold exclusive access to terminal `i`'s roam state
    /// (`i` must belong to a cell the caller owns during a parallel phase).
    unsafe fn roam(&self, i: usize) -> &mut RoamState {
        debug_assert!(i < self.n_terminals);
        &mut *self.roam.add(i)
    }

    /// # Safety
    ///
    /// As [`ShardGrid::roam`], for the terminal's traffic slot.
    unsafe fn traffic_mut(&self, i: usize) -> &mut FrameTraffic {
        debug_assert!(i < self.n_terminals);
        &mut *self.traffic.add(i)
    }

    /// # Safety
    ///
    /// Only valid while no thread writes any traffic slot (the MAC phase:
    /// traffic was fully written in the roam phase and is read-only until
    /// the next frame).
    unsafe fn traffic_slice(&self) -> &[FrameTraffic] {
        std::slice::from_raw_parts(self.traffic, self.n_terminals)
    }
}

/// Whether `cell` can admit one more terminal.
///
/// # Safety
///
/// Serial phases only (reads membership of an arbitrary cell).
unsafe fn has_room(grid: &ShardGrid, ctx: &FrameCtx<'_>, cell: u32) -> bool {
    let cap = ctx.system.handoff.cell_capacity;
    cap == 0 || (grid.cell(cell as usize).member_count() as u32) < cap
}

/// Migrates terminal `i` from its serving cell to `target`: the old MAC
/// forgets it, its buffered voice packets are lost to the hard-handoff link
/// interruption, it draws a fresh site-shadowing offset for the new link,
/// and its stored link inputs — the distance to the new base station and
/// that shadow — are written immediately, so the next SNR sample (the new
/// cell's MAC phase, or a later one) evaluates the new link's path loss,
/// never the old cell's.
///
/// `count_flow` gates the success/flow counters: it is the `measuring` flag
/// of the frame that *recorded the attempt*, so attempts ≥ successes and
/// inflow = outflow = successes hold exactly, even for attempts queued
/// across the warm-up boundary.
///
/// # Safety
///
/// Serial phases only (touches two cells and the shared counters).
unsafe fn migrate(
    grid: &ShardGrid,
    serial: &mut SerialState<'_>,
    ctx: &FrameCtx<'_>,
    i: usize,
    target: u32,
    count_flow: bool,
    measuring_drops: bool,
) {
    let id = TerminalId(i as u32);
    let old = grid.roam(i).serving;
    debug_assert_ne!(old, target);
    grid.cell(old as usize).detach(id);
    grid.mac(old as usize).forget_terminal(id);
    let dropped = grid.columns.drop_buffered_voice(i) as u64;
    if measuring_drops {
        grid.cell(old as usize).metrics_mut().voice.dropped_handoff += dropped;
    }
    if count_flow {
        serial.handoff.successes += 1;
        serial.handoff_out[old as usize] += 1;
        serial.handoff_in[target as usize] += 1;
    }
    grid.cell(target as usize).attach(id);
    let roam = grid.roam(i);
    roam.serving = target;
    roam.queued_for = None;
    let shadow_db = ctx.system.path_loss.draw_site_shadow_db(&mut roam.rng);
    let d = roam
        .motion
        .position()
        .distance_m(ctx.locator.centers()[target as usize]);
    grid.columns.set_link(i, d, shadow_db);
}

/// Phase 1: admits queued terminals into every cell that has room, oldest
/// first, in cell-id order.
///
/// # Safety
///
/// Serial phases only.
unsafe fn drain_admission_queues(
    grid: &ShardGrid,
    serial: &mut SerialState<'_>,
    ctx: &FrameCtx<'_>,
    measuring_drops: bool,
) {
    for c in 0..grid.n_cells as u32 {
        while has_room(grid, ctx, c) {
            let Some(id) = serial.queues[c as usize].pop_front() else {
                break;
            };
            let i = id.index() as usize;
            if grid.roam(i).queued_for != Some(c) {
                continue; // stale entry: the terminal roamed elsewhere
            }
            // The admission resolves the attempt recorded at enqueue time;
            // count it exactly when that attempt was counted.
            let counted = grid.roam(i).attempt_measured;
            migrate(grid, serial, ctx, i, c, counted, measuring_drops);
        }
    }
}

/// Phase 2 for one cell: traffic boundaries (counters attributed to this
/// cell), mobility, the serving distance, and handoff decisions
/// recorded into this cell's mailbox.  Touches only this cell's state and
/// its members' per-terminal state, so distinct cells may run concurrently.
///
/// # Safety
///
/// The caller must own cell `c` for the duration of the parallel phase (no
/// other thread may access cell `c` or its members), and no serial phase
/// may run concurrently.
unsafe fn roam_phase(
    grid: &ShardGrid,
    ctx: &FrameCtx<'_>,
    c: usize,
    frame: u64,
    measuring: bool,
    measuring_drops: bool,
) {
    let cell = grid.cell(c);
    let mailbox = grid.mailbox(c);
    mailbox.events.clear();
    // Membership is frozen during this phase (migrations happen in the
    // serial merge), so indexed iteration is stable.
    for k in 0..cell.member_count() {
        let id = cell.members()[k];
        let i = id.index() as usize;

        // Traffic and channel boundary, attributed to the serving cell.
        let tr = grid.columns.begin_frame(i, frame);
        *grid.traffic_mut(i) = tr;
        if measuring {
            let metrics = cell.metrics_mut();
            if tr.voice_packet_generated {
                metrics.voice.generated += 1;
            }
            if measuring_drops {
                metrics.voice.dropped_deadline += tr.voice_packets_dropped as u64;
            }
            metrics.data.arrived += tr.data_packets_arrived as u64;
        }

        // Mobility, and the serving distance the mean SNR is evaluated from
        // when (and if) the MAC samples this terminal's channel.
        let roam = grid.roam(i);
        debug_assert_eq!(roam.serving, c as u32);
        roam.motion.advance(ctx.dt_secs, ctx.bounds, &mut roam.rng);
        let pos = roam.motion.position();
        let d_serving = pos.distance_m(ctx.locator.centers()[c]);
        grid.columns.set_serving_distance(i, d_serving);

        // Nearest base station (Voronoi cell of the current position),
        // walked from the serving cell.
        let (nearest, d_nearest) = ctx.locator.nearest(pos, c as u32, d_serving);
        debug_assert_eq!(
            (nearest, d_nearest.to_bits()),
            {
                let (n, d) = nearest_by_scan(ctx.locator.centers(), pos);
                (n, d.to_bits())
            },
            "the neighbourhood walk must agree with the full scan"
        );

        // Leaving a queue: the terminal roamed back into its serving cell's
        // Voronoi region (or towards a third cell) before being admitted.
        // The local flag flips now; the shared queue entry is removed by
        // the merge.
        if let Some(waiting) = roam.queued_for {
            if nearest == c as u32 || nearest != waiting {
                roam.queued_for = None;
                mailbox.events.push(RoamEvent::LeaveQueue { id, waiting });
            }
        }

        if nearest == c as u32
            || d_serving - d_nearest <= ctx.system.handoff.hysteresis_m
            || frame < roam.retry_at
            || roam.queued_for == Some(nearest)
        {
            continue;
        }
        mailbox.events.push(RoamEvent::Attempt {
            id,
            target: nearest,
            measured: measuring,
        });
    }
}

/// Phase 3: applies every mailbox in cell-id order (events in member order
/// within a cell), then folds the per-frame streaming statistics.  The
/// apply order is a pure function of the membership state at the start of
/// the frame, so it does not depend on which worker produced which mailbox
/// when — the heart of the byte-determinism argument.
///
/// # Safety
///
/// Serial phases only.
unsafe fn merge_mailboxes(
    grid: &ShardGrid,
    serial: &mut SerialState<'_>,
    ctx: &FrameCtx<'_>,
    frame: u64,
    measuring: bool,
    measuring_drops: bool,
) {
    for c in 0..grid.n_cells {
        // Detach the event buffer so applying events can re-enter the grid.
        let mut events = std::mem::take(&mut grid.mailbox(c).events);
        for event in &events {
            match *event {
                RoamEvent::LeaveQueue { id, waiting } => {
                    serial.queues[waiting as usize].retain(|&t| t != id);
                }
                RoamEvent::Attempt {
                    id,
                    target,
                    measured,
                } => {
                    let i = id.index() as usize;
                    if measured {
                        serial.handoff.attempts += 1;
                    }
                    if has_room(grid, ctx, target) {
                        migrate(grid, serial, ctx, i, target, measured, measuring_drops);
                        continue;
                    }
                    match ctx.system.handoff.admission {
                        HandoffAdmission::Queue => {
                            serial.queues[target as usize].push_back(id);
                            let roam = grid.roam(i);
                            roam.queued_for = Some(target);
                            roam.attempt_measured = measured;
                            if measured {
                                serial.handoff.queued += 1;
                            }
                        }
                        HandoffAdmission::DropOnFull => {
                            // The interrupted call of classical telephony:
                            // the target is full, the packets in flight are
                            // lost, and the terminal limps along on its old
                            // (distant) link until a retry.
                            let dropped = grid.columns.drop_buffered_voice(i) as u64;
                            let serving = grid.roam(i).serving;
                            if measuring_drops {
                                grid.cell(serving as usize)
                                    .metrics_mut()
                                    .voice
                                    .dropped_handoff += dropped;
                            }
                            if measured {
                                serial.handoff.failures += 1;
                            }
                            grid.roam(i).retry_at = frame + ctx.system.handoff.retry_frames;
                        }
                    }
                }
            }
        }
        // Return the buffer (cleared) so its capacity is reused next frame.
        events.clear();
        grid.mailbox(c).events = events;
    }

    // Fold the streaming per-cell statistics at the post-merge membership —
    // O(cells) per frame, never an O(terminals) end-of-run scan.
    if measuring {
        for c in 0..grid.n_cells {
            serial.occupancy[c].push(grid.cell(c).member_count() as f64);
            serial.queue_len[c].push(serial.queues[c].len() as f64);
        }
    }
}

/// Phase 4 for one cell: one MAC uplink frame over the cell's membership.
///
/// # Safety
///
/// As [`roam_phase`]: the caller must own cell `c`, and the MAC may touch
/// the global terminal columns / `traffic` table only at its member indices
/// (which [`FrameWorld`](crate::world::FrameWorld) accessors guarantee —
/// protocols only ever reach terminals through member ids).  The table
/// inherits the column view's bounds checks, so a protocol bug that escapes
/// its membership indexes out loudly instead of racing.
unsafe fn mac_phase(grid: &ShardGrid, ctx: &FrameCtx<'_>, c: usize, frame: u64, measuring: bool) {
    let cell = grid.cell(c);
    let mac = grid.mac(c);
    let table = TerminalTable::from_view(grid.columns);
    cell.step(
        frame,
        ctx.config,
        measuring,
        grid.traffic_slice(),
        table,
        mac.as_mut(),
    );
}

/// Busy-wait rounds a gate wait spends before it starts yielding: a few
/// microseconds, which catches a peer running on another core that is
/// about to arrive without a system call.
const GATE_SPINS: u32 = 256;

/// `yield_now` rounds after the spin, before the wait parks.  When more
/// parties than CPUs share the host, yielding hands the CPU to the party
/// being waited for; a spin would burn the time slice it needs.
const GATE_YIELDS: u32 = 32;

/// The phase gate of the frame loop: one leader and `followers` other
/// parties meet at each sync point, and the leader runs the serial phase
/// while everyone else waits.
///
/// A round is one [`PhaseGate::lead`] and one [`PhaseGate::follow`] per
/// follower.  Every wait spins ([`GATE_SPINS`]), then yields
/// ([`GATE_YIELDS`]), then parks on a condvar, so no wait is blind for long
/// and an oversubscribed host still makes progress (the "no long time blind
/// wait" rule of cpp-ipc's spin-then-semaphore waits).  Releases take the
/// mutex only to read the sleeper count and make no system call when
/// nobody is parked.
///
/// Ordering: a follower's arrival (`fetch_add`, AcqRel) releases everything
/// it wrote in the parallel phase; the leader's Acquire load of the full
/// count synchronises with every arrival (the increments form one release
/// sequence); the leader's generation bump (Release) then carries those
/// writes and the serial phase's own to each follower's Acquire load of the
/// new generation.  A sync point is therefore a full barrier for the data
/// the phases share.
///
/// If any party panics while holding a [`PhaseGate::guard`], the gate is
/// poisoned and every wait panics instead of blocking for a peer that will
/// never arrive.
struct PhaseGate {
    followers: usize,
    /// Followers that have arrived in the current round.
    arrived: AtomicUsize,
    /// Completed rounds; followers wait for it to change.
    generation: AtomicUsize,
    poisoned: AtomicBool,
    /// Parties parked on `wake`.
    sleepers: Mutex<usize>,
    wake: Condvar,
}

impl PhaseGate {
    /// A gate for `parties` threads (the leader included, at least one).
    fn new(parties: usize) -> Self {
        PhaseGate {
            followers: parties.saturating_sub(1),
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            sleepers: Mutex::new(0),
            wake: Condvar::new(),
        }
    }

    /// Arrives at the sync point and waits until the leader has run the
    /// serial phase.
    fn follow(&self) {
        // The generation cannot move before this arrival: the leader waits
        // for every follower first.
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.followers {
            self.release_sleepers(); // the leader may be parked
        }
        self.wait_until(|| self.generation.load(Ordering::Acquire) != generation);
    }

    /// Waits until every follower has arrived, runs `serial` with the other
    /// parties held at the gate, then releases them.
    fn lead(&self, serial: impl FnOnce()) {
        self.wait_until(|| self.arrived.load(Ordering::Acquire) == self.followers);
        // Followers touch `arrived` again only after the bump below.
        self.arrived.store(0, Ordering::Relaxed);
        serial();
        self.generation.fetch_add(1, Ordering::Release);
        self.release_sleepers();
    }

    /// [`PhaseGate::lead`] running `phase` for the party holding the serial
    /// state, [`PhaseGate::follow`] for every other party.
    fn sync<S>(&self, serial: Option<&mut S>, phase: impl FnOnce(&mut S)) {
        match serial {
            Some(state) => self.lead(|| phase(state)),
            None => self.follow(),
        }
    }

    /// Spins, then yields, then parks until `ready` holds.
    fn wait_until(&self, ready: impl Fn() -> bool) {
        let done = || ready() || self.poisoned.load(Ordering::Acquire);
        let mut round = 0;
        while !done() {
            if round < GATE_SPINS {
                std::hint::spin_loop();
            } else if round < GATE_SPINS + GATE_YIELDS {
                std::thread::yield_now();
            } else {
                let mut sleepers = self.sleepers.lock().expect("phase gate mutex poisoned");
                *sleepers += 1;
                while !done() {
                    sleepers = self.wake.wait(sleepers).expect("phase gate mutex poisoned");
                }
                *sleepers -= 1;
            }
            round += 1;
        }
        assert!(
            !self.poisoned.load(Ordering::Relaxed),
            "a thread of the frame loop panicked"
        );
    }

    /// Wakes every parked party, if there is one.  A parked party checked
    /// its condition while holding the mutex, so taking it here after the
    /// state change cannot miss a sleeper.
    fn release_sleepers(&self) {
        let sleepers = self.sleepers.lock().unwrap_or_else(PoisonError::into_inner);
        if *sleepers > 0 {
            self.wake.notify_all();
        }
    }

    /// A guard that poisons the gate if its thread unwinds.
    fn guard(&self) -> GateGuard<'_> {
        GateGuard(self)
    }
}

/// Poisons its [`PhaseGate`] when dropped during a panic, so the other
/// parties fail instead of waiting forever.
struct GateGuard<'a>(&'a PhaseGate);

impl Drop for GateGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poisoned.store(true, Ordering::Release);
            self.0.release_sleepers();
        }
    }
}

/// The contiguous block of cells party `w` of `parties` steps in the
/// parallel phases: `[w·n/T, (w+1)·n/T)`.  Per-cell state is indexed by
/// cell id, so a block is contiguous memory and two parties can share a
/// cache line only at a block edge.
fn party_cells(w: usize, parties: usize, n_cells: usize) -> Range<usize> {
    w * n_cells / parties..(w + 1) * n_cells / parties
}

/// The frame loop on `parties` threads (1 ≤ `parties` ≤ cells): the caller
/// is party 0 and runs the serial phases; `parties − 1` scoped threads run
/// the others.  Every party executes [`run_party`].
fn run_frames(grid: &ShardGrid, serial: &mut SerialState<'_>, ctx: &FrameCtx<'_>, parties: usize) {
    let gate = PhaseGate::new(parties);
    std::thread::scope(|scope| {
        for w in 1..parties {
            let cells = party_cells(w, parties, grid.n_cells);
            let gate = &gate;
            scope.spawn(move || run_party(grid, ctx, gate, cells, None));
        }
        run_party(
            grid,
            ctx,
            &gate,
            party_cells(0, parties, grid.n_cells),
            Some(serial),
        );
    });
}

/// One party's frame loop over its block of `cells`.  The party holding
/// `serial` leads each sync point and runs the serial phase there:
///
/// ```text
/// lead(drain) → roam own cells → lead(merge) → MAC own cells → next frame
/// ```
///
/// and one final empty round after the last frame, so every MAC phase is
/// published by the gate before the caller reads the results.
fn run_party(
    grid: &ShardGrid,
    ctx: &FrameCtx<'_>,
    gate: &PhaseGate,
    cells: Range<usize>,
    mut serial: Option<&mut SerialState<'_>>,
) {
    let _guard = gate.guard();
    for frame in 0..ctx.total {
        let (measuring, measuring_drops) = ctx.measuring(frame);
        // SAFETY: the grid's two invariants hold for every call below.
        // Spatial: this party steps only its own block of cells, the
        // blocks of distinct parties are disjoint, and the memberships
        // partition the terminals.  Temporal: the serial phases run inside
        // `lead`, after every follower has finished its parallel phase and
        // before any is released into the next; the gate's Release/Acquire
        // chain (see `PhaseGate`) makes each phase's writes visible to the
        // next, and the merge has re-shuffled memberships before any MAC
        // phase starts.
        unsafe {
            gate.sync(serial.as_deref_mut(), |s| {
                drain_admission_queues(grid, s, ctx, measuring_drops)
            });
            for c in cells.clone() {
                roam_phase(grid, ctx, c, frame, measuring, measuring_drops);
            }
            gate.sync(serial.as_deref_mut(), |s| {
                merge_mailboxes(grid, s, ctx, frame, measuring, measuring_drops)
            });
            for c in cells.clone() {
                mac_phase(grid, ctx, c, frame, measuring);
            }
        }
    }
    gate.sync(serial, |_| {});
}

/// The default path-loss profile reproduces the single-cell mean SNR when
/// flattened; re-exported here so tests and examples can build equivalence
/// configurations without reaching into the radio crate.
pub fn flat_path_loss(config: &SimConfig) -> PathLossConfig {
    PathLossConfig::flat(config.channel.mean_snr_db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{HandoffAdmission, Layout, SystemConfig};
    use crate::scenario::Scenario;
    use charisma_radio::ChannelMode;
    use proptest::prelude::*;

    fn small_config() -> SimConfig {
        let mut cfg = SimConfig::quick_test();
        cfg.num_voice = 8;
        cfg.num_data = 2;
        cfg.warmup_frames = 200;
        cfg.measured_frames = 2_000;
        cfg
    }

    fn roaming_system(cells: u32) -> SystemConfig {
        let mut system = SystemConfig::new(cells);
        // Small, fast cells so a 5 s run sees plenty of boundary crossings.
        system.layout = Layout::Hex {
            cell_radius_m: 100.0,
        };
        system.handoff.hysteresis_m = 5.0;
        system
    }

    #[test]
    fn hex_centers_form_the_classic_seven_cell_cluster() {
        let layout = Layout::Hex {
            cell_radius_m: 100.0,
        };
        let centers = cell_centers(&layout, 7);
        assert_eq!(centers.len(), 7);
        assert_eq!(centers[0], Position::ORIGIN);
        let spacing = 3f64.sqrt() * 100.0;
        for c in &centers[1..] {
            let d = c.distance_m(Position::ORIGIN);
            assert!((d - spacing).abs() < 1e-9, "ring-1 distance {d}");
        }
        // All centers distinct.
        for (i, a) in centers.iter().enumerate() {
            for b in &centers[..i] {
                assert!(a.distance_m(*b) > spacing * 0.99);
            }
        }
        // A second ring lands farther out.
        let more = cell_centers(&layout, 19);
        assert_eq!(more.len(), 19);
        assert!(more[7..]
            .iter()
            .all(|c| c.distance_m(Position::ORIGIN) > spacing * 1.5));
    }

    #[test]
    fn hex_city_ring_counts_fill_complete_rings() {
        assert_eq!(hex_cells_for_rings(0), 1);
        assert_eq!(hex_cells_for_rings(1), 7);
        assert_eq!(hex_cells_for_rings(2), 19);
        assert_eq!(hex_cells_for_rings(6), 127);
        // A city grid of complete rings has every center within `rings`
        // hex steps of the origin: the outermost ring sits at exactly
        // `rings · spacing` along the axial directions.
        let layout = Layout::Hex {
            cell_radius_m: 100.0,
        };
        let cells = hex_cells_for_rings(6);
        let centers = cell_centers(&layout, cells);
        assert_eq!(centers.len(), 127);
        let spacing = 3f64.sqrt() * 100.0;
        let max_d = centers
            .iter()
            .map(|c| c.distance_m(Position::ORIGIN))
            .fold(0.0f64, f64::max);
        assert!(
            max_d <= 6.0 * spacing + 1e-9,
            "outermost center at {max_d}, expected ≤ {}",
            6.0 * spacing
        );
    }

    #[test]
    fn line_centers_march_along_x() {
        let layout = Layout::Line {
            cell_radius_m: 200.0,
        };
        let centers = cell_centers(&layout, 3);
        let spacing = 3f64.sqrt() * 200.0;
        assert_eq!(centers.len(), 3);
        for (i, c) in centers.iter().enumerate() {
            assert_eq!(c.y_m, 0.0);
            assert!((c.x_m - i as f64 * spacing).abs() < 1e-9);
        }
        let b = layout_bounds(&centers, 200.0);
        assert!(b.contains(Position::new(-150.0, 150.0)));
        assert!(!b.contains(Position::new(-250.0, 0.0)));
    }

    #[test]
    fn empty_center_list_yields_finite_bounds() {
        // The degenerate input used to produce an inverted infinite box;
        // now it falls back to a single-cell box around the origin.
        let b = layout_bounds(&[], 150.0);
        assert!(b.contains(Position::ORIGIN));
        assert!(b.contains(Position::new(149.0, -149.0)));
        assert!(!b.contains(Position::new(151.0, 0.0)));
    }

    fn locator(line: bool, radius: f64, cells: u32) -> CellLocator {
        let layout = if line {
            Layout::Line {
                cell_radius_m: radius,
            }
        } else {
            Layout::Hex {
                cell_radius_m: radius,
            }
        };
        CellLocator::new(cell_centers(&layout, cells), center_spacing_m(&layout))
    }

    /// The locator's answer from `start`, as comparable bits.
    fn located(loc: &CellLocator, pos: Position, start: u32) -> (u32, u64) {
        let (n, d) = loc.nearest(pos, start, d_start(loc, pos, start));
        (n, d.to_bits())
    }

    /// The distance from `pos` to `start`'s center, as the roam phase
    /// passes it to the locator.
    fn d_start(loc: &CellLocator, pos: Position, start: u32) -> f64 {
        pos.distance_m(loc.centers()[start as usize])
    }

    /// The full scan's answer, as comparable bits.
    fn scanned(loc: &CellLocator, pos: Position) -> (u32, u64) {
        let (n, d) = nearest_by_scan(loc.centers(), pos);
        (n, d.to_bits())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_048))]

        /// The oracle: from any start cell (the serving cell may be stale),
        /// anywhere in the motion bounds or up to one radius outside them,
        /// the locator returns the scan's cell and distance bit for bit, on
        /// hex layouts of 1..=127 cells (partial rings included) and line
        /// layouts of 1..=9 cells.
        #[test]
        fn locator_matches_the_full_scan(
            line in any::<bool>(),
            cells in 1u32..128,
            radius in 20.0f64..1_000.0,
            fx in 0.0f64..1.0,
            fy in 0.0f64..1.0,
            start in any::<u32>(),
        ) {
            let cells = if line { 1 + cells % 9 } else { cells };
            let loc = locator(line, radius, cells);
            let b = layout_bounds(loc.centers(), radius);
            let pos = Position::new(
                b.min.x_m - radius + fx * (b.max.x_m - b.min.x_m + 2.0 * radius),
                b.min.y_m - radius + fy * (b.max.y_m - b.min.y_m + 2.0 * radius),
            );
            let truth = scanned(&loc, pos);
            for start in [start % cells, 0, cells - 1, truth.0] {
                prop_assert_eq!(located(&loc, pos, start), truth, "start {}", start);
            }
            // Walking from the true nearest cell is certified whenever that
            // cell is within one radius: the roam phase's common case never
            // pays for the scan.
            if f64::from_bits(truth.1) <= radius {
                prop_assert!(loc.walk(pos, truth.0, f64::from_bits(truth.1)).is_some());
            }
        }
    }

    #[test]
    fn locator_breaks_exact_ties_to_the_lowest_id() {
        // Centers (distance exactly zero) and the midpoint of every center
        // pair (an exact tie wherever both distances round alike), from
        // both ends of the pair and from cell 0.
        let mut ties = 0;
        for (line, radius, cells) in [(false, 400.0, 127), (false, 150.0, 12), (true, 250.0, 9)] {
            let loc = locator(line, radius, cells);
            let centers = loc.centers();
            for (a, &ca) in centers.iter().enumerate() {
                assert_eq!(located(&loc, ca, 0), (a as u32, 0f64.to_bits()));
                for (b, &cb) in centers.iter().enumerate().skip(a + 1) {
                    let mid = Position::new((ca.x_m + cb.x_m) / 2.0, (ca.y_m + cb.y_m) / 2.0);
                    let truth = scanned(&loc, mid);
                    if mid.distance_m(ca) == mid.distance_m(cb) && truth.0 == a as u32 {
                        ties += 1;
                    }
                    for start in [a as u32, b as u32, 0] {
                        assert_eq!(located(&loc, mid, start), truth, "{a}|{b} from {start}");
                    }
                }
            }
        }
        assert!(ties > 100, "only {ties} exact ties exercised");
    }

    #[test]
    fn only_positions_outside_the_hull_fall_back_to_the_scan() {
        let radius = 400.0;
        let loc = locator(false, radius, hex_cells_for_rings(6));
        let b = layout_bounds(loc.centers(), radius);
        // A corner of the motion box lies far outside the hexagonal city:
        // no walk can certify it, so the scan answers.
        for corner in [b.min, b.max, Position::new(b.min.x_m, b.max.y_m)] {
            let truth = scanned(&loc, corner);
            assert!(f64::from_bits(truth.1) > 2.0 * radius);
            for start in 0..127 {
                let d = d_start(&loc, corner, start);
                assert!(loc.walk(corner, start, d).is_none(), "corner from {start}");
                assert_eq!(located(&loc, corner, start), truth);
            }
        }
        // Inside the city the walk certifies its answer from every start.
        for interior in [
            Position::new(1.0, -2.0),
            Position::new(0.3 * b.max.x_m, 0.2 * b.min.y_m),
            loc.centers()[100],
        ] {
            let truth = scanned(&loc, interior);
            for start in 0..127 {
                let walked = loc
                    .walk(interior, start, d_start(&loc, interior, start))
                    .expect("interior walk certifies");
                assert_eq!((walked.0, walked.1.to_bits()), truth, "from {start}");
            }
        }
    }

    #[test]
    fn single_cell_system_with_flat_path_loss_matches_the_legacy_run() {
        // The cells=1 equivalence: the system machinery on one cell with a
        // flat mean SNR reproduces the single-cell scenario's metrics
        // exactly (motion draws live in their own RNG domain).
        let mut cfg = small_config();
        let legacy = Scenario::new(cfg.clone()).run(ProtocolKind::Charisma);
        let mut system = SystemConfig::new(1);
        system.path_loss = flat_path_loss(&cfg);
        cfg.system = Some(system);
        let multi = Scenario::new(cfg).run(ProtocolKind::Charisma);
        assert_eq!(multi.metrics.voice, legacy.metrics.voice);
        assert_eq!(multi.metrics.data, legacy.metrics.data);
        assert_eq!(multi.metrics.contention, legacy.metrics.contention);
        assert_eq!(multi.metrics.slots, legacy.metrics.slots);
        assert_eq!(multi.metrics.frames, legacy.metrics.frames);
        assert_eq!(multi.metrics.handoff, HandoffStats::default());
        assert_eq!(multi.metrics.per_cell.len(), 1);
    }

    /// Every terminal's serving cell and a copy of its mobility stream, taken
    /// before a serial phase that may migrate terminals.
    ///
    /// # Safety
    /// Serial phases only.
    unsafe fn roam_snapshot(grid: &ShardGrid) -> Vec<(u32, Xoshiro256StarStar)> {
        (0..grid.n_terminals)
            .map(|i| (grid.roam(i).serving, grid.roam(i).rng.clone()))
            .collect()
    }

    /// Replays the site-shadow draw of every terminal that migrated since
    /// `before` into `shadow`, and marks it in `migrated`.  `migrate` draws
    /// exactly one shadow from the mobility stream, so a copy of the stream
    /// taken before the phase yields the same value independently.
    ///
    /// # Safety
    /// Serial phases only.
    unsafe fn replay_shadows(
        grid: &ShardGrid,
        ctx: &FrameCtx<'_>,
        before: Vec<(u32, Xoshiro256StarStar)>,
        shadow: &mut [f64],
        migrated: &mut [bool],
    ) {
        for (i, (serving, mut rng)) in before.into_iter().enumerate() {
            if grid.roam(i).serving != serving {
                shadow[i] = ctx.system.path_loss.draw_site_shadow_db(&mut rng);
                migrated[i] = true;
            }
        }
    }

    #[test]
    fn lazy_mean_snr_matches_an_eager_evaluation_bit_for_bit() {
        // The oracle for the lazy mean SNR: the frame loop stepped phase by
        // phase on one thread, with every terminal's SNR read before each
        // MAC phase (where the base station samples channels) and compared
        // with the every-frame expression evaluated from scratch — path loss
        // at the serving distance, the site shadow replayed independently
        // at each migration, plus the fading gain.  Capacity equal to the
        // initial population plus one under the queue policy makes terminals
        // migrate both in the merge and from the admission queues.
        for mode in [ChannelMode::Lazy, ChannelMode::Eager] {
            let mut cfg = small_config();
            cfg.measured_frames = 8_000;
            cfg.channel_mode = mode;
            let mut system = roaming_system(7);
            system.handoff.cell_capacity = cfg.num_voice + cfg.num_data + 1;
            system.handoff.admission = HandoffAdmission::Queue;
            cfg.system = Some(system);
            let clock = cfg.clock();
            let mut world = SystemWorld::new(cfg, ProtocolKind::Charisma);
            let (mut after_merge, mut after_drain) = (0u64, 0u64);
            // SAFETY: one thread steps every phase in frame-loop order, so
            // each call has the whole grid to itself.
            world.with_frame_state(|grid, serial, ctx| unsafe {
                let n = grid.n_terminals;
                let mut shadow: Vec<f64> = (0..n).map(|i| grid.columns.shadow_db(i)).collect();
                for frame in 0..ctx.total {
                    let (measuring, measuring_drops) = ctx.measuring(frame);
                    let mut drained = vec![false; n];
                    let mut merged = vec![false; n];
                    let before = roam_snapshot(grid);
                    drain_admission_queues(grid, serial, ctx, measuring_drops);
                    replay_shadows(grid, ctx, before, &mut shadow, &mut drained);
                    for c in 0..grid.n_cells {
                        roam_phase(grid, ctx, c, frame, measuring, measuring_drops);
                    }
                    let before = roam_snapshot(grid);
                    merge_mailboxes(grid, serial, ctx, frame, measuring, measuring_drops);
                    replay_shadows(grid, ctx, before, &mut shadow, &mut merged);

                    let now = clock.frame_start(frame);
                    for i in 0..n {
                        let lazy = grid.columns.true_snr_db(i, now);
                        let roam = grid.roam(i);
                        let d = roam
                            .motion
                            .position()
                            .distance_m(ctx.locator.centers()[roam.serving as usize]);
                        let eager = ctx.system.path_loss.mean_snr_db(d)
                            + shadow[i]
                            + grid.columns.gain_db(i);
                        assert_eq!(
                            lazy.to_bits(),
                            eager.to_bits(),
                            "{mode:?} frame {frame} terminal {i}: lazy {lazy} dB, eager {eager} dB"
                        );
                        after_drain += drained[i] as u64;
                        after_merge += merged[i] as u64;
                    }
                    for c in 0..grid.n_cells {
                        mac_phase(grid, ctx, c, frame, measuring);
                    }
                }
            });
            // Terminals were checked right after both kinds of migration.
            assert!(after_merge > 20, "{mode:?}: {after_merge} merge migrations");
            assert!(
                after_drain > 20,
                "{mode:?}: {after_drain} queued admissions"
            );
        }
    }

    #[test]
    #[should_panic(expected = "serving distance must be finite and non-negative")]
    fn a_non_finite_serving_distance_is_rejected_at_the_write() {
        let mut cfg = small_config();
        cfg.system = Some(roaming_system(2));
        let mut world = SystemWorld::new(cfg, ProtocolKind::Charisma);
        // SAFETY: `&mut world` is exclusive access to every terminal.
        unsafe {
            world
                .terminals
                .view()
                .set_serving_distance(3, f64::INFINITY)
        };
    }

    #[test]
    fn multicell_runs_are_deterministic() {
        let mut cfg = small_config();
        cfg.system = Some(roaming_system(3));
        let a = Scenario::new(cfg.clone()).run(ProtocolKind::DTdmaVr);
        let b = Scenario::new(cfg).run(ProtocolKind::DTdmaVr);
        assert_eq!(a, b);
    }

    #[test]
    fn sharded_run_matches_round_robin_exactly() {
        // The tentpole property at the unit level: the full RunReport —
        // every counter, every per-cell Welford statistic — is identical
        // between one thread and several, including counts that do not
        // divide the cells, one thread per cell, and more threads than
        // cells (capped to one per cell).
        let mut cfg = small_config();
        cfg.system = Some(roaming_system(7));
        let reference = Scenario::new(cfg.clone()).run(ProtocolKind::Charisma);
        for threads in [1u32, 2, 3, 4, 7, 9] {
            let mut sharded_cfg = cfg.clone();
            let mut system = sharded_cfg.system.unwrap();
            system.threads = threads;
            sharded_cfg.system = Some(system);
            let sharded = Scenario::new(sharded_cfg).run(ProtocolKind::Charisma);
            assert_eq!(
                sharded, reference,
                "threads={threads}: report diverged from the one-thread run"
            );
            assert_eq!(
                format!("{sharded:?}"),
                format!("{reference:?}"),
                "threads={threads}: serialised reports differ"
            );
        }
        // The runs genuinely exercised the handoff machinery.
        assert!(reference.metrics.handoff.successes > 0);
    }

    #[test]
    fn party_blocks_partition_the_cells_contiguously() {
        for n in 1..=20 {
            for parties in 1..=n {
                let blocks: Vec<_> = (0..parties).map(|w| party_cells(w, parties, n)).collect();
                assert_eq!(blocks[0].start, 0);
                assert_eq!(blocks[parties - 1].end, n);
                for pair in blocks.windows(2) {
                    assert_eq!(pair[0].end, pair[1].start);
                }
                // Balanced: block sizes differ by at most one, none empty.
                let sizes: Vec<_> = blocks.iter().map(ExactSizeIterator::len).collect();
                let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(
                    *lo >= 1 && hi - lo <= 1,
                    "n={n} parties={parties}: {sizes:?}"
                );
            }
        }
    }

    /// Runs `rounds` gate rounds on `parties` threads.  In each round every
    /// party bumps its own counter, then meets the others at the gate; the
    /// leader's serial phase checks that every counter is up to date (the
    /// parallel phase is over and its writes are visible) and publishes the
    /// round, which every follower checks once released.  `follower_delay`
    /// and `serial_delay` sleep in the given rounds, forcing the other side
    /// to exhaust its spin and yield budget and park.  Returns the number
    /// of serial phases run.
    fn drive_gate(
        parties: usize,
        rounds: usize,
        follower_delay: impl Fn(usize) -> Option<std::time::Duration> + Sync,
        serial_delay: impl Fn(usize) -> Option<std::time::Duration>,
    ) -> usize {
        use std::sync::atomic::AtomicU64;
        let gate = PhaseGate::new(parties);
        // Relaxed on purpose: only the gate orders these accesses.
        let counters: Vec<AtomicU64> = (0..parties).map(|_| AtomicU64::new(0)).collect();
        let published = AtomicU64::new(0);
        let bump = |c: &AtomicU64| c.store(c.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        let mut serial_runs = 0;
        std::thread::scope(|scope| {
            for p in 1..parties {
                let (gate, counters, published) = (&gate, &counters, &published);
                let follower_delay = &follower_delay;
                scope.spawn(move || {
                    let _guard = gate.guard();
                    for round in 0..rounds {
                        bump(&counters[p]);
                        if let Some(d) = follower_delay(round) {
                            std::thread::sleep(d);
                        }
                        gate.follow();
                        assert_eq!(published.load(Ordering::Relaxed), round as u64 + 1);
                    }
                });
            }
            let _guard = gate.guard();
            for round in 0..rounds {
                bump(&counters[0]);
                gate.lead(|| {
                    for (p, c) in counters.iter().enumerate() {
                        let seen = c.load(Ordering::Relaxed);
                        assert_eq!(seen, round as u64 + 1, "party {p} in round {round}");
                    }
                    if let Some(d) = serial_delay(round) {
                        std::thread::sleep(d);
                    }
                    published.store(round as u64 + 1, Ordering::Relaxed);
                    serial_runs += 1;
                });
            }
        });
        for c in &counters {
            assert_eq!(c.load(Ordering::Relaxed), rounds as u64);
        }
        serial_runs
    }

    #[test]
    fn phase_gate_excludes_and_publishes_each_phase() {
        for parties in 1..=4 {
            assert_eq!(drive_gate(parties, 3_000, |_| None, |_| None), 3_000);
        }
    }

    #[test]
    fn phase_gate_survives_parking_on_both_sides() {
        let nap = |round: usize| (round % 10 == 3).then(|| std::time::Duration::from_millis(5));
        // A late follower: the leader runs out of spins and yields and
        // parks until the last arrival wakes it.
        assert_eq!(drive_gate(2, 40, nap, |_| None), 40);
        assert_eq!(drive_gate(3, 40, nap, |_| None), 40);
        // A slow serial phase: the followers park until the release.
        assert_eq!(drive_gate(2, 40, |_| None, nap), 40);
        assert_eq!(drive_gate(4, 40, |_| None, nap), 40);
    }

    #[test]
    fn a_panicking_party_fails_the_gate_instead_of_hanging_it() {
        let gate = PhaseGate::new(2);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let _guard = gate.guard();
                    gate.follow();
                    panic!("follower fails in its parallel phase");
                });
                let _guard = gate.guard();
                gate.lead(|| {});
                gate.lead(|| {}); // the follower never arrives
            });
        }));
        assert!(outcome.is_err());
    }

    #[test]
    fn streaming_occupancy_stats_cover_every_measured_frame() {
        let mut cfg = small_config();
        cfg.system = Some(roaming_system(4));
        let report = Scenario::new(cfg.clone()).run(ProtocolKind::DTdmaFr);
        assert_eq!(report.metrics.per_cell.len(), 4);
        let mut population = 0.0;
        for cell in &report.metrics.per_cell {
            assert_eq!(
                cell.occupancy.count(),
                cfg.measured_frames,
                "one occupancy sample per measured frame"
            );
            assert_eq!(cell.admission_queue.count(), cfg.measured_frames);
            population += cell.occupancy.mean();
        }
        // Terminals are conserved, so the mean occupancies sum to the
        // population regardless of how they migrated.
        let total = (4 * (cfg.num_voice + cfg.num_data)) as f64;
        assert!(
            (population - total).abs() < 1e-6,
            "mean occupancies sum to {population}, expected {total}"
        );
    }

    #[test]
    fn handoff_conserves_the_terminal_population() {
        let mut cfg = small_config();
        cfg.system = Some(roaming_system(4));
        let mut world = SystemWorld::new(cfg.clone(), ProtocolKind::Charisma);
        let report = world.run();
        // No terminal lost or duplicated.
        let total = 4 * (cfg.num_voice + cfg.num_data) as usize;
        let ids = world.attached_ids_sorted();
        assert_eq!(ids.len(), total, "population size changed");
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(id.index() as usize, i, "terminal set changed");
        }
        // Terminals actually moved between cells…
        assert!(
            report.metrics.handoff.successes > 0,
            "no handoffs in a 4-cell roaming run: {:?}",
            report.metrics.handoff
        );
        // …and the per-cell flow counters balance the successes.
        let inflow: u64 = report.metrics.per_cell.iter().map(|c| c.handoff_in).sum();
        let outflow: u64 = report.metrics.per_cell.iter().map(|c| c.handoff_out).sum();
        assert_eq!(inflow, outflow);
        assert_eq!(inflow, report.metrics.handoff.successes);
        // Voice accounting stays coherent: every cell's counters sum to the
        // system counters.
        let voice_sum: u64 = report
            .metrics
            .per_cell
            .iter()
            .map(|c| c.voice.generated)
            .sum();
        assert_eq!(voice_sum, report.metrics.voice.generated);
    }

    #[test]
    fn drop_on_full_blocks_and_loses_voice_while_queue_waits() {
        let mut cfg = small_config();
        cfg.measured_frames = 4_000;
        let mut system = roaming_system(3);
        system.layout = Layout::Line {
            cell_radius_m: 80.0,
        };
        // Tight capacity: exactly the initial population, so every crossing
        // into a full cell must be refused or queued.
        system.handoff.cell_capacity = cfg.num_voice + cfg.num_data;
        system.handoff.admission = HandoffAdmission::DropOnFull;
        cfg.system = Some(system);
        let dropped = Scenario::new(cfg.clone()).run(ProtocolKind::DTdmaFr);
        assert!(
            dropped.metrics.handoff.attempts > 0,
            "expected attempts: {:?}",
            dropped.metrics.handoff
        );
        assert!(
            dropped.metrics.handoff.failures > 0,
            "tight capacity must refuse some handoffs: {:?}",
            dropped.metrics.handoff
        );
        assert_eq!(dropped.metrics.handoff.queued, 0);

        let mut queued_cfg = cfg.clone();
        let mut queued_system = cfg.system.unwrap();
        queued_system.handoff.admission = HandoffAdmission::Queue;
        queued_cfg.system = Some(queued_system);
        let queued = Scenario::new(queued_cfg).run(ProtocolKind::DTdmaFr);
        assert!(
            queued.metrics.handoff.queued > 0,
            "queue policy must park some terminals: {:?}",
            queued.metrics.handoff
        );
        assert_eq!(queued.metrics.handoff.failures, 0);
    }

    #[test]
    fn distant_terminals_see_worse_mean_snr() {
        // Path loss must actually reach the channel: a 2-cell system where
        // everything else is equal shows lower mean SNR than the flat
        // single-cell model, because terminals are no longer all at the
        // (clamped) reference distance.
        let mut cfg = small_config();
        cfg.num_voice = 20;
        cfg.system = Some(SystemConfig::new(2));
        let multi = Scenario::new(cfg.clone()).run(ProtocolKind::DTdmaVr);
        cfg.system = None;
        let flat = Scenario::new(cfg).run(ProtocolKind::DTdmaVr);
        // Not a strict dominance claim — just that the runs genuinely
        // diverge and both stay sane.
        assert_ne!(multi.metrics.voice, flat.metrics.voice);
        assert!(multi.voice_loss_rate() <= 1.0);
    }
}
