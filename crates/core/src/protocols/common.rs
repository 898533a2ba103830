//! Building blocks shared by the protocol implementations: reservation
//! bookkeeping, contender selection and the base-station request queue.

use crate::config::SimConfig;
use crate::world::FrameWorld;
use charisma_des::SimTime;
use charisma_traffic::{TerminalClass, TerminalId};
use std::collections::VecDeque;

/// A set of terminal ids backed by a bitset.
///
/// The protocols keep several id sets that are tested every frame for every
/// member (`reservations`, `exclude`) — a hash set pays a hash per probe and
/// scatters its entries across the heap, while terminal ids are small dense
/// integers.  `IdSet` stores one bit per id: membership is a shift and a
/// mask, `clear` is a `memset`, and iteration yields ids in **ascending
/// order** — a deterministic order, unlike `HashSet`'s, which is what lets
/// the protocols iterate a set directly without an extra sort when the
/// consumer is order-sensitive.
#[derive(Debug, Clone, Default)]
pub struct IdSet {
    words: Vec<u64>,
    len: usize,
}

impl IdSet {
    /// Creates an empty set (no allocation until the first insert).
    pub fn new() -> Self {
        IdSet::default()
    }

    /// Number of ids in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every id, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// Adds `id`; returns `true` if it was not already present.
    pub fn insert(&mut self, id: TerminalId) -> bool {
        let (w, b) = (id.index() as usize / 64, id.index() as usize % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let fresh = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        self.len += fresh as usize;
        fresh
    }

    /// Removes `id`; returns `true` if it was present.
    pub fn remove(&mut self, id: TerminalId) -> bool {
        let (w, b) = (id.index() as usize / 64, id.index() as usize % 64);
        let Some(word) = self.words.get_mut(w) else {
            return false;
        };
        let present = *word & (1 << b) != 0;
        *word &= !(1 << b);
        self.len -= present as usize;
        present
    }

    /// Keeps only the ids for which `keep` returns `true`, visiting members
    /// in ascending order (the set's iteration order).
    pub fn retain(&mut self, mut keep: impl FnMut(TerminalId) -> bool) {
        for w in 0..self.words.len() {
            let mut bits = self.words[w];
            while bits != 0 {
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                let id = TerminalId((w * 64) as u32 + b);
                if !keep(id) {
                    self.words[w] &= !(1u64 << b);
                    self.len -= 1;
                }
            }
        }
    }

    /// Whether `id` is in the set.
    pub fn contains(&self, id: TerminalId) -> bool {
        let (w, b) = (id.index() as usize / 64, id.index() as usize % 64);
        self.words.get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    /// The ids in the set, in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = TerminalId> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                Some(TerminalId((w * 64) as u32 + b))
            })
        })
    }
}

impl Extend<TerminalId> for IdSet {
    fn extend<T: IntoIterator<Item = TerminalId>>(&mut self, iter: T) {
        for id in iter {
            self.insert(id);
        }
    }
}

/// Seeds the reservation table with every voice terminal that is already in a
/// talkspurt when the simulation begins.
///
/// The terminal population is drawn from the stationary on/off distribution,
/// i.e. the run starts in the middle of system operation, where ongoing
/// talkspurts would long since have completed their reservation handshake.
/// Without this warm start the very first frames see dozens of simultaneous
/// unadmitted talkers, which drives the slotted request channel into its
/// congested (thrashing) equilibrium — a cold-start artefact, not a property
/// of the protocols under study.  Call once, at frame 0.
pub fn seed_initial_reservations(world: &FrameWorld<'_>, reservations: &mut IdSet) {
    for id in world.terminal_ids() {
        if world.class(id) == TerminalClass::Voice && world.in_talkspurt(id) {
            reservations.insert(id);
        }
    }
}

/// Releases the reservations of terminals whose talkspurt ended at this frame
/// boundary (paper: a reservation lasts "until the current talkspurt
/// terminates").
pub fn release_ended_reservations(world: &FrameWorld<'_>, reservations: &mut IdSet) {
    // Only members of the set can be removed, so scanning the (small) set and
    // probing `traffic` beats scanning the whole population's traffic slots.
    reservations.retain(|id| !world.traffic[id.index() as usize].talkspurt_ended);
}

/// Clears `out` and fills it with the reserved voice terminals that
/// currently have a packet due, ordered by earliest deadline (the natural
/// service order for isochronous traffic; ties broken by id — a total order,
/// so the result does not depend on the set's iteration order).  `scratch`
/// holds the (deadline, id) pairs during the sort; both buffers reuse their
/// capacity across frames.
pub fn reserved_voice_due_into(
    world: &FrameWorld<'_>,
    reservations: &IdSet,
    scratch: &mut Vec<(SimTime, TerminalId)>,
    out: &mut Vec<TerminalId>,
) {
    scratch.clear();
    for id in reservations.iter() {
        if let Some(d) = world.earliest_voice_deadline(id) {
            scratch.push((d, id));
        }
    }
    scratch.sort_unstable();
    out.clear();
    out.extend(scratch.iter().map(|&(_, id)| id));
}

/// Fills `out` with the terminals that need to send a transmission request
/// this frame: voice terminals with a buffered packet and no reservation,
/// and data terminals with buffered packets — excluding any terminal already
/// represented at the base station (`exclude`, e.g. already in the request
/// queue).  `out` is cleared first and keeps its capacity: protocols call
/// this with a buffer they keep across frames so the request phase never
/// allocates.
pub fn contenders_into(
    world: &FrameWorld<'_>,
    reservations: &IdSet,
    exclude: &IdSet,
    out: &mut Vec<TerminalId>,
) {
    out.clear();
    for id in world.terminal_ids() {
        // The same conjunction as documented above, ordered so the test that
        // disqualifies most terminals runs first (every operand is
        // side-effect-free, so the order changes cost, not the result):
        // reserved voice terminals and empty-buffer terminals drop out before
        // the exclude probe ever runs.
        let contending = match world.class(id) {
            TerminalClass::Voice => {
                !reservations.contains(id) && world.voice_backlog(id) > 0 && !exclude.contains(id)
            }
            TerminalClass::Data => world.data_backlog(id) > 0 && !exclude.contains(id),
        };
        if contending {
            out.push(id);
        }
    }
}

/// The base-station request queue of Section 4.5: acknowledged requests that
/// survived contention but could not be allocated information slots.
///
/// The queue is bounded and (when disabled) simply refuses every push, which
/// lets the protocols share one code path for the with-queue and
/// without-queue variants.
#[derive(Debug, Clone)]
pub struct RequestQueue {
    enabled: bool,
    capacity: usize,
    items: VecDeque<TerminalId>,
}

impl RequestQueue {
    /// Creates the queue according to the scenario configuration.
    pub fn from_config(config: &SimConfig) -> Self {
        RequestQueue {
            enabled: config.request_queue,
            capacity: config.request_queue_capacity,
            items: VecDeque::new(),
        }
    }

    /// Whether queueing is enabled for this run.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Number of queued requests.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue holds no requests.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether the terminal already has a queued request.
    pub fn contains(&self, id: TerminalId) -> bool {
        self.items.contains(&id)
    }

    /// Attempts to queue a request; returns `false` when queueing is disabled,
    /// the queue is full, or the terminal is already queued.
    pub fn push(&mut self, id: TerminalId) -> bool {
        if !self.enabled || self.items.len() >= self.capacity || self.contains(id) {
            return false;
        }
        self.items.push_back(id);
        true
    }

    /// Removes and returns the oldest queued request.
    pub fn pop_front(&mut self) -> Option<TerminalId> {
        self.items.pop_front()
    }

    /// Removes a specific terminal's queued request (e.g. its talkspurt ended
    /// or its packets were dropped).
    pub fn remove(&mut self, id: TerminalId) {
        self.items.retain(|&t| t != id);
    }

    /// Drops queued requests whose terminal no longer has anything to send
    /// (its voice packet was dropped at the deadline, or its data buffer
    /// drained).  Keeps the queue from serving phantom requests.
    pub fn purge_idle(&mut self, world: &FrameWorld<'_>) {
        self.items.retain(|&id| world.has_backlog(id));
    }

    /// Removes every queued request (used when rebuilding the queue after an
    /// allocation pass).
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// The queued terminals in FIFO order (oldest first).
    pub fn iter(&self) -> impl Iterator<Item = TerminalId> + '_ {
        self.items.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queue(enabled: bool, capacity: usize) -> RequestQueue {
        RequestQueue {
            enabled,
            capacity,
            items: VecDeque::new(),
        }
    }

    #[test]
    fn disabled_queue_rejects_everything() {
        let mut q = queue(false, 10);
        assert!(!q.push(TerminalId(1)));
        assert!(q.is_empty());
    }

    #[test]
    fn queue_is_fifo_and_deduplicating() {
        let mut q = queue(true, 10);
        assert!(q.push(TerminalId(1)));
        assert!(q.push(TerminalId(2)));
        assert!(!q.push(TerminalId(1)), "duplicate push must be rejected");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_front(), Some(TerminalId(1)));
        assert_eq!(q.pop_front(), Some(TerminalId(2)));
        assert_eq!(q.pop_front(), None);
    }

    #[test]
    fn queue_respects_capacity() {
        let mut q = queue(true, 2);
        assert!(q.push(TerminalId(1)));
        assert!(q.push(TerminalId(2)));
        assert!(!q.push(TerminalId(3)));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn remove_deletes_only_the_named_terminal() {
        let mut q = queue(true, 10);
        q.push(TerminalId(1));
        q.push(TerminalId(2));
        q.push(TerminalId(3));
        q.remove(TerminalId(2));
        let left: Vec<_> = q.iter().collect();
        assert_eq!(left, vec![TerminalId(1), TerminalId(3)]);
    }

    #[test]
    fn id_set_insert_remove_contains() {
        let mut s = IdSet::new();
        assert!(s.is_empty());
        assert!(!s.contains(TerminalId(0)));
        assert!(s.insert(TerminalId(0)));
        assert!(s.insert(TerminalId(63)));
        assert!(s.insert(TerminalId(64)));
        assert!(s.insert(TerminalId(1000)));
        assert!(!s.insert(TerminalId(64)), "duplicate insert");
        assert_eq!(s.len(), 4);
        assert!(s.contains(TerminalId(63)));
        assert!(!s.contains(TerminalId(62)));
        assert!(!s.contains(TerminalId(1_000_000)), "past the allocation");
        assert!(s.remove(TerminalId(63)));
        assert!(!s.remove(TerminalId(63)), "double remove");
        assert!(!s.remove(TerminalId(7)), "never inserted");
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn id_set_iterates_in_ascending_order() {
        let mut s = IdSet::new();
        for id in [900u32, 3, 64, 0, 127, 65] {
            s.insert(TerminalId(id));
        }
        let ids: Vec<u32> = s.iter().map(|id| id.index()).collect();
        assert_eq!(ids, vec![0, 3, 64, 65, 127, 900]);
    }

    #[test]
    fn id_set_retain_keeps_matching_ids_and_fixes_len() {
        let mut s = IdSet::new();
        for id in [0u32, 3, 64, 65, 127, 900] {
            s.insert(TerminalId(id));
        }
        s.retain(|id| id.index() % 2 == 1);
        let ids: Vec<u32> = s.iter().map(|id| id.index()).collect();
        assert_eq!(ids, vec![3, 65, 127]);
        assert_eq!(s.len(), 3);
        assert!(!s.contains(TerminalId(64)));
        s.retain(|_| false);
        assert!(s.is_empty());
    }

    #[test]
    fn id_set_clear_keeps_capacity_and_empties() {
        let mut s = IdSet::new();
        s.insert(TerminalId(500));
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        assert!(!s.contains(TerminalId(500)));
        s.insert(TerminalId(2));
        assert_eq!(s.len(), 1);
    }
}
