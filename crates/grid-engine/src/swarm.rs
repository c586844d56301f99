//! The swarm: robot positions plus per-robot constant-size state, with a
//! tiled occupancy index and the FSYNC *simultaneous move + merge*
//! semantics of the paper's model.
//!
//! # Structure-of-arrays layout
//!
//! Robots live in parallel dense arrays (`positions`, `states`,
//! `orients`, `handles`) rather than a `Vec<Robot>` of structs, so the
//! compute phase streams each attribute linearly and the round-apply
//! compacts survivors with flat array moves. Every robot additionally
//! carries a *stable handle* — its initial index, never reused (merges
//! only shrink the population). The occupancy index stores handles, and
//! `slot_of` maps a handle back to the robot's current dense slot
//! (`u32::MAX` once merged away). Two invariants follow:
//!
//! * **Compaction never touches the index.** Removing merge losers
//!   shifts dense slots, but cells keyed by handle stay valid — only the
//!   flat `slot_of` entries are rewritten.
//! * **Occupancy updates are movers-only.** A round clears the old cells
//!   of robots that moved and sets the target cells of moving survivors;
//!   stationary robots' cells are never rewritten. A mover can only win
//!   a cell that was empty or vacated this round (stationary incumbents
//!   win their cell by the survivor rule), so the two phases never
//!   collide with a live handle.
//!
//! # One round-apply path
//!
//! The engine applies every round through [`Swarm::apply_sparse`], whose
//! cost is O(activated ∪ moved) instead of O(n): merge candidates are
//! only the robots that actually move (stationary incumbents are found
//! by probing the index), and the occupancy update rewrites only the
//! movers' cells. An FSYNC round is the case where every slot is
//! activated. The apply runs on the calling thread; the engine's worker
//! threads go to the compute step, which dominates any round where many
//! robots compute. The greedy baseline applies each single-robot hop
//! through the same path.
//! [`Swarm::apply`] and [`Swarm::apply_partial`] are the dense O(n)
//! scan, kept as the oracle that trace playback and the proptests use.
//! The per-cell survivor rule is a *minimum* over
//! an order-free key, so the two paths are bit-identical — the property
//! the trace subsystem's replay oracle checks.

use crate::geom::{Bounds, Point, D4, V2};
use crate::profile::{timed, Phase, RoundProfile};
use crate::scheduler::splitmix64;
use crate::tile::TileIndex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-robot algorithm state carried between rounds.
///
/// The model grants each robot a constant number of bits of persistent
/// memory (the paper's *run states*). States may contain direction
/// vectors; because robots do not share a compass, a state is always
/// stored in its owner's local frame and must be re-expressed when
/// another robot observes it — that is what [`RobotState::transform`]
/// implements.
///
/// `PartialEq` lets the engine tell an action that keeps the robot's
/// state from one that changes it ([`crate::quiet`]).
pub trait RobotState: Clone + Default + PartialEq + Send + Sync + 'static {
    /// Return a copy with every direction vector `d` replaced by
    /// `m.apply(d)`.
    fn transform(&self, m: D4) -> Self;
}

impl RobotState for () {
    fn transform(&self, _m: D4) -> Self {}
}

/// How per-robot local frames are assigned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OrientationMode {
    /// All robots share the world frame. Decision-equivalent to
    /// `Scrambled` for a compass-free (equivariant) controller; used as
    /// the reference in the equivariance tests.
    Aligned,
    /// Every robot gets a pseudo-random fixed rotation/reflection of the
    /// world frame, derived from the seed — the honest "no compass, no
    /// common handedness" model.
    Scrambled(u64),
}

/// A robot's chosen operation for one round: a king-move step (or the
/// zero vector to stay) plus its next state, both in the robot's frame.
#[derive(Clone, Debug, Default)]
pub struct Action<S> {
    pub step: V2,
    pub state: S,
}

impl<S> Action<S> {
    pub fn stay(state: S) -> Self {
        Action { step: V2::ZERO, state }
    }
}

/// Result of applying one synchronous round of actions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ApplyOutcome {
    /// Robots removed because they ended the round co-located.
    pub merged: usize,
    /// Robots whose position changed.
    pub moved: usize,
}

/// Reusable per-round working memory. Every buffer retains its capacity
/// across rounds, so a steady-state round allocates nothing here. The
/// stamp arrays are indexed by dense slot and valid for exactly one
/// round: a slot is "marked" iff its stamp equals the current epoch, so
/// clearing the marks is a single counter increment, not an O(n) sweep.
#[derive(Clone, Default)]
struct RoundScratch {
    /// Current round stamp; bumped once per apply.
    epoch: u32,
    /// `mover_stamp[i] == epoch` ⇔ dense slot `i` moves this round
    /// (maintained by the sparse path for incumbent classification).
    mover_stamp: Vec<u32>,
    /// `loser_stamp[i] == epoch` ⇔ dense slot `i` lost its merge this
    /// round (shared by both apply paths; drives compaction).
    loser_stamp: Vec<u32>,
    /// Target cell per robot: indexed by slot on the dense path, like
    /// `active` on the sparse one.
    targets: Vec<Point>,
    /// Merge-detect owner map, keyed by target cell.
    owner: crate::fxhash::FxHashMap<Point, u32>,
}

impl RoundScratch {
    /// Start a new round: size the stamp arrays (dense slots never exceed
    /// the initial population) and advance the epoch, resetting the
    /// stamps on the (once per 2³²-round) wraparound so a stale stamp can
    /// never equal a live epoch.
    fn next_epoch(&mut self, n0: usize) -> u32 {
        if self.mover_stamp.len() < n0 {
            self.mover_stamp.resize(n0, 0);
            self.loser_stamp.resize(n0, 0);
        }
        if self.epoch == u32::MAX {
            self.mover_stamp.fill(0);
            self.loser_stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }
}

/// Source of [`Swarm::version`] stamps. One process-wide counter, so two
/// swarms carry the same version only when one is an unedited clone of
/// the other. Versions are only ever compared for equality; their values
/// depend on what else the process runs and never reach a result.
/// `Relaxed` suffices: a stamp publishes no other data, and `fetch_add`
/// alone makes every stamp unique.
static NEXT_VERSION: AtomicU64 = AtomicU64::new(1);

fn fresh_version() -> u64 {
    NEXT_VERSION.fetch_add(1, Ordering::Relaxed)
}

#[derive(Clone)]
pub struct Swarm<S: RobotState> {
    positions: Vec<Point>,
    states: Vec<S>,
    orients: Vec<D4>,
    /// Dense slot → stable handle (the robot's initial index).
    handles: Vec<u32>,
    /// Handle → current dense slot; `u32::MAX` once merged away. The
    /// occupancy index stores handles, so compaction only rewrites this
    /// flat array and never touches tile cells.
    slot_of: Vec<u32>,
    /// ASYNC in-flight moves, keyed by *handle* so compaction never has
    /// to touch this store: `pending[h]` holds the round the parked
    /// action falls due plus the action itself (in the robot's local
    /// frame — orientations are fixed at birth, so a deferred
    /// local-frame step means the same world step whenever it commits).
    /// Lazily sized; empty for every synchronous scheduler.
    pending: Vec<Option<(u64, Action<S>)>>,
    /// Handles with a live `pending` entry (the O(in-flight) working
    /// set [`Swarm::take_due`] scans, instead of all handles).
    in_flight: Vec<u32>,
    index: TileIndex,
    scratch: RoundScratch,
    /// Changes on every mutation ([`Swarm::version`]).
    version: u64,
}

// Manual so states without Debug still get a printable swarm summary.
impl<S: RobotState> std::fmt::Debug for Swarm<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Swarm")
            .field("robots", &self.positions.len())
            .field("bounds", &self.index.bounds())
            .finish_non_exhaustive()
    }
}

/// The paper's goal predicate, factored so the fast path is testable: a
/// 2×2 area holds at most four robots (cells are distinct), so any
/// larger population fails *without touching positions at all* — the
/// bounds closure is only invoked for populations ≤ 4, making the
/// per-round goal check O(1) instead of an O(n) bounding-box rescan.
pub(crate) fn gathered_check(population: usize, bounds: impl FnOnce() -> Bounds) -> bool {
    population <= 4 && bounds().fits_2x2()
}

/// Does robot `i` beat robot `j` for their shared target cell?
/// Stationary wins over movers, then the lexicographically smaller
/// previous position — a strict total order per cell (two stationary
/// robots cannot share a target), so the winner is the same whatever the
/// comparison order.
#[inline]
fn beats(positions: &[Point], targets: &[Point], i: usize, j: usize) -> bool {
    let i_stay = targets[i] == positions[i];
    let j_stay = targets[j] == positions[j];
    match (i_stay, j_stay) {
        (true, false) => true,
        (false, true) => false,
        _ => positions[i] < positions[j],
    }
}

impl<S: RobotState> Swarm<S> {
    /// Build a swarm from distinct positions with default state.
    ///
    /// # Panics
    /// Panics if `positions` is empty or contains duplicates.
    pub fn new(positions: &[Point], orientation: OrientationMode) -> Self {
        assert!(!positions.is_empty(), "a swarm has at least one robot");
        let n = positions.len();
        assert!(n < u32::MAX as usize, "population must fit the index's u32 handles");
        let mut index = TileIndex::new();
        let mut orients = Vec::with_capacity(n);
        for (i, &pos) in positions.iter().enumerate() {
            let orient = match orientation {
                OrientationMode::Aligned => D4::IDENTITY,
                OrientationMode::Scrambled(seed) => D4::from_index(
                    (splitmix64(seed ^ (i as u64).wrapping_mul(0x9e37_79b9)) & 7) as u8,
                ),
            };
            let prev = index.set(pos, i as u32);
            assert!(prev.is_none(), "duplicate start position {pos:?}");
            orients.push(orient);
        }
        Swarm {
            positions: positions.to_vec(),
            states: (0..n).map(|_| S::default()).collect(),
            orients,
            handles: (0..n as u32).collect(),
            slot_of: (0..n as u32).collect(),
            pending: Vec::new(),
            in_flight: Vec::new(),
            index,
            scratch: RoundScratch::default(),
            version: fresh_version(),
        }
    }

    pub fn len(&self) -> usize {
        self.positions.len()
    }

    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Current robot positions, in dense (survivor-compacted) order.
    /// Positions are owned by the occupancy index — they are only
    /// mutated through [`Swarm::apply`] and friends.
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// Per-robot algorithm states, parallel to [`Swarm::positions`].
    pub fn states(&self) -> &[S] {
        &self.states
    }

    /// Mutable access to robot states (tests and setup). States are not
    /// indexed, so mutating them cannot desynchronise the swarm.
    pub fn states_mut(&mut self) -> &mut [S] {
        self.version = fresh_version();
        &mut self.states
    }

    /// Per-robot local frames (robot frame → world frame), parallel to
    /// [`Swarm::positions`].
    pub fn orients(&self) -> &[D4] {
        &self.orients
    }

    /// Mutable access to robot orientations (tests and setup).
    pub fn orients_mut(&mut self) -> &mut [D4] {
        self.version = fresh_version();
        &mut self.orients
    }

    /// A stamp that changes whenever the swarm may have changed: every
    /// method that mutates it (`states_mut`, `orients_mut`, the applies,
    /// `park`, `take_due`) draws a fresh one. Clones keep the stamp, so
    /// equal versions mean an unchanged swarm; the engine uses this to
    /// notice edits made between its steps.
    pub(crate) fn version(&self) -> u64 {
        self.version
    }

    /// Number of stable handles ever issued (the initial population):
    /// every handle is below it.
    pub(crate) fn handle_count(&self) -> usize {
        self.slot_of.len()
    }

    /// Current dense slot of a stable handle read from the occupancy
    /// index (tile cells store handles, not dense slots).
    #[inline]
    pub(crate) fn slot(&self, handle: u32) -> usize {
        let slot = self.slot_of[handle as usize];
        debug_assert_ne!(slot, u32::MAX, "index cell held a merged-away handle");
        slot as usize
    }

    /// Stable handles of the live robots, parallel to
    /// [`Swarm::positions`] (a robot's handle is its initial index,
    /// never reused). The ASYNC engine keys its per-robot delay draws
    /// by handle so merges cannot re-roll another robot's schedule.
    pub fn handles(&self) -> &[u32] {
        &self.handles
    }

    /// Is the robot in dense slot `slot` mid-flight between an ASYNC
    /// look and its move? In-flight robots hold position, cannot look
    /// again, and (being stationary) always win the merges other
    /// robots walk into.
    #[inline]
    pub fn is_in_flight(&self, slot: usize) -> bool {
        let h = self.handles[slot] as usize;
        self.pending.get(h).is_some_and(Option::is_some)
    }

    /// Robots currently mid-flight (diagnostics and tests).
    pub fn in_flight_count(&self) -> usize {
        self.in_flight.len()
    }

    /// Park an ASYNC move: the robot in `slot` looked this round and
    /// its `action` commits in the round where [`Swarm::take_due`] is
    /// called with `round >= due`. The action is stored in the robot's
    /// local frame (orientations never change after birth, so deferral
    /// commutes with the frame transform). A robot can hold at most one
    /// pending move — it cannot look while in flight.
    pub fn park(&mut self, slot: usize, due: u64, action: Action<S>) {
        self.version = fresh_version();
        let h = self.handles[slot] as usize;
        if self.pending.len() <= h {
            self.pending.resize_with(self.slot_of.len(), || None);
        }
        debug_assert!(self.pending[h].is_none(), "robot {h} parked twice without committing");
        self.pending[h] = Some((due, action));
        self.in_flight.push(h as u32);
    }

    /// Drain every parked move that falls due at `round`, returning
    /// `(dense slot, action)` pairs sorted by slot; the engine's ASYNC
    /// round joins them with its delay-0 moves for
    /// [`Swarm::apply_sparse`]. Deterministic regardless of park order:
    /// the store is keyed by handle and the output is slot-sorted. Handles
    /// merged away while in flight are dropped defensively (in-flight
    /// robots are stationary and stationary robots win merges, so this
    /// cannot happen under the engine's own scheduling).
    pub fn take_due(&mut self, round: u64) -> Vec<(usize, Action<S>)> {
        self.version = fresh_version();
        let mut out: Vec<(usize, Action<S>)> = Vec::new();
        let mut w = 0usize;
        for k in 0..self.in_flight.len() {
            let h = self.in_flight[k] as usize;
            let slot = self.slot_of[h];
            if slot == u32::MAX {
                self.pending[h] = None;
                continue;
            }
            let due = self.pending[h].as_ref().expect("in-flight handle has a pending entry").0;
            if due <= round {
                let (_, action) = self.pending[h].take().expect("checked above");
                out.push((slot as usize, action));
            } else {
                self.in_flight[w] = h as u32;
                w += 1;
            }
        }
        self.in_flight.truncate(w);
        out.sort_unstable_by_key(|&(slot, _)| slot);
        out
    }

    /// Bounding box of the swarm, derived from the occupancy index's
    /// tile-key extremes (O(live tiles), independent of the population)
    /// rather than a rescan of every robot.
    pub fn bounds(&self) -> Bounds {
        self.index.bounds().expect("non-empty swarm")
    }

    /// The paper's goal predicate: all robots within a 2×2 area. O(1):
    /// see [`gathered_check`].
    pub fn is_gathered(&self) -> bool {
        gathered_check(self.positions.len(), || {
            Bounds::of(self.positions.iter().copied()).expect("non-empty swarm")
        })
    }

    #[inline]
    pub fn occupied(&self, p: Point) -> bool {
        self.index.occupied(p)
    }

    /// Index of the robot at `p`, if any.
    #[inline]
    pub fn robot_at(&self, p: Point) -> Option<usize> {
        self.index.get(p).map(|h| self.slot(h))
    }

    /// The tiled occupancy index (diagnostics: tile/memory accounting,
    /// windowed probing).
    pub fn index(&self) -> &TileIndex {
        &self.index
    }

    /// Order-sensitive digest of the swarm's positions (robot order is
    /// deterministic, so two bit-identical runs share every digest).
    /// This is the snapshot fingerprint the trace subsystem records
    /// after each round and replay verifies against; robot *states* are
    /// excluded on purpose — they are strategy-internal, and any state
    /// divergence that matters surfaces as a positional one.
    pub fn position_digest(&self) -> u64 {
        let mut h = 0x9e37_79b9_7f4a_7c15u64 ^ self.positions.len() as u64;
        for &pos in &self.positions {
            let cell = ((pos.x as u32 as u64) << 32) | pos.y as u32 as u64;
            h = splitmix64(h ^ cell);
        }
        h
    }

    /// Apply one synchronous round: every robot simultaneously executes
    /// its action (steps are given in each robot's own frame); robots
    /// that end on the same cell are merged into one.
    ///
    /// Survivor rule (the paper removes "one of them", unspecified): a
    /// robot that did not move wins over movers, then the lexicographically
    /// smallest *previous* position wins. The rule is ID-free and
    /// deterministic, so runs are reproducible.
    pub fn apply(&mut self, actions: Vec<Action<S>>) -> ApplyOutcome {
        assert_eq!(actions.len(), self.positions.len());
        self.apply_partial(actions.into_iter().map(Some).collect())
    }

    /// Partial-activation variant of [`Swarm::apply`] for non-FSYNC
    /// schedulers: `None` means the robot was not activated this round —
    /// it keeps its position *and* its state (an inactive robot can
    /// still be merged into when an active robot lands on its cell, and
    /// the stationary-wins survivor rule then favours it).
    ///
    /// This is the dense O(n) oracle: target computation, merge
    /// detection over the full population, movers-only occupancy update,
    /// in-place survivor commit plus array compaction.
    pub fn apply_partial(&mut self, actions: Vec<Option<Action<S>>>) -> ApplyOutcome {
        self.version = fresh_version();
        let n = self.positions.len();
        assert_eq!(actions.len(), n);
        let epoch = self.scratch.next_epoch(self.slot_of.len());

        let mut targets = std::mem::take(&mut self.scratch.targets);
        targets.clear();
        targets.reserve(n);
        let mut moved = 0usize;
        for (i, action) in actions.iter().enumerate() {
            let target = match action {
                Some(action) => {
                    debug_assert!(action.step.is_step(), "illegal step {:?}", action.step);
                    self.positions[i] + self.orients[i].apply(action.step)
                }
                None => self.positions[i],
            };
            moved += usize::from(target != self.positions[i]);
            targets.push(target);
        }

        // Group robots by target cell to find merges. The common case is
        // "no merge anywhere", so detect duplicates with a map from cell
        // to the currently-winning robot index.
        let mut owner = std::mem::take(&mut self.scratch.owner);
        owner.clear();
        owner.reserve(n);
        let mut merged = 0usize;
        let mut first_loser = usize::MAX;
        for i in 0..n {
            match owner.entry(targets[i]) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(i as u32);
                }
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    let j = *e.get() as usize;
                    let loser = if beats(&self.positions, &targets, i, j) {
                        e.insert(i as u32);
                        j
                    } else {
                        i
                    };
                    self.scratch.loser_stamp[loser] = epoch;
                    first_loser = first_loser.min(loser);
                    merged += 1;
                }
            }
        }
        self.scratch.owner = owner;

        // Movers-only occupancy update: every mover vacates its old cell
        // (losers are always movers), then each surviving mover claims
        // its target. Stationary cells are never rewritten — their
        // handles stay valid across the round.
        for (i, &target) in targets.iter().enumerate() {
            if target != self.positions[i] {
                self.index.clear(self.positions[i]);
            }
        }
        for (i, &target) in targets.iter().enumerate() {
            if target != self.positions[i] && self.scratch.loser_stamp[i] != epoch {
                let prev = self.index.set(target, self.handles[i]);
                debug_assert!(prev.is_none(), "survivor collision at {:?}", target);
            }
        }

        // Commit in place (losers are overwritten too — they are about
        // to be compacted away), then compact the arrays.
        for (i, action) in actions.into_iter().enumerate() {
            self.positions[i] = targets[i];
            if let Some(action) = action {
                self.states[i] = action.state;
            }
        }
        self.scratch.targets = targets;
        if merged > 0 {
            self.compact_tail(first_loser);
        }
        ApplyOutcome { merged, moved }
    }

    /// The engine's round-apply, for every scheduler: cost
    /// O(activated ∪ moved) instead of O(n).
    ///
    /// `active` lists the activated robots (sorted, distinct — the
    /// [`crate::scheduler::Activation::Subset`] contract; an FSYNC round
    /// passes every slot) and `actions` their chosen actions,
    /// index-parallel to `active`. Inactive robots keep position and
    /// state; they participate in merges only as stationary incumbents,
    /// which this path discovers by probing the occupancy index at each
    /// mover's target instead of scanning the population. Bit-identical
    /// to routing the same round through [`Swarm::apply_partial`] with a
    /// scattered `Option` vector — the sparse/dense equivalence
    /// proptests pin exactly this.
    ///
    /// Runs on the calling thread. When `prof` is given, the apply's
    /// sub-phases (targets, merge detect, occupancy, compaction) are
    /// attributed to it; timing observes the phases from outside, so the
    /// outcome is bit-identical with and without a profile.
    pub fn apply_sparse(
        &mut self,
        active: &[usize],
        actions: Vec<Action<S>>,
        mut prof: Option<&mut RoundProfile>,
    ) -> ApplyOutcome {
        assert_eq!(actions.len(), active.len());
        self.version = fresh_version();
        let epoch = self.scratch.next_epoch(self.slot_of.len());
        debug_assert!(
            active.iter().all(|&i| i < self.positions.len()),
            "active index out of range"
        );
        debug_assert!(active.windows(2).all(|w| w[0] < w[1]), "activation set must be sorted");

        // Compute the targets and stamp the round's movers.
        let moved = timed(&mut prof, Phase::ApplyTargets, || {
            let Swarm { positions, orients, scratch, .. } = &mut *self;
            scratch.targets.clear();
            let mut moved = 0usize;
            for (&i, action) in active.iter().zip(&actions) {
                debug_assert!(action.step.is_step(), "illegal step {:?}", action.step);
                let target = positions[i] + orients[i].apply(action.step);
                scratch.targets.push(target);
                if target != positions[i] {
                    moved += 1;
                    scratch.mover_stamp[i] = epoch;
                }
            }
            moved
        });

        // O(movers) merge detection. Contenders for a cell are the
        // movers targeting it plus at most one stationary incumbent
        // (found by an index probe — the only robot that can "stay" on
        // the cell is its current occupant). The owner map holds the
        // running winner per contested cell; the survivor rule is an
        // order-free minimum, so resolving movers in activation order is
        // bit-identical to the dense scan.
        let (merged, first_loser) = timed(&mut prof, Phase::MergeDetect, || {
            let Swarm { positions, index, slot_of, scratch, .. } = &mut *self;
            let RoundScratch { owner, targets, mover_stamp, loser_stamp, .. } = scratch;
            owner.clear();
            let mut merged = 0usize;
            let mut first_loser = usize::MAX;
            for (ki, &i) in active.iter().enumerate() {
                let target = targets[ki];
                if target == positions[i] {
                    continue;
                }
                match owner.entry(target) {
                    std::collections::hash_map::Entry::Vacant(e) => {
                        match index.get(target) {
                            Some(h) => {
                                let q = slot_of[h as usize] as usize;
                                if mover_stamp[q] != epoch {
                                    // A stationary incumbent wins its own
                                    // cell against any mover.
                                    e.insert(q as u32);
                                    loser_stamp[i] = epoch;
                                    first_loser = first_loser.min(i);
                                    merged += 1;
                                } else {
                                    // The occupant is vacating this round.
                                    e.insert(i as u32);
                                }
                            }
                            None => {
                                e.insert(i as u32);
                            }
                        }
                    }
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        let j = *e.get() as usize;
                        // `j` stays iff it entered the map as a stationary
                        // incumbent (movers are stamped, incumbents not).
                        let j_stays = mover_stamp[j] != epoch;
                        let loser = if !j_stays && positions[i] < positions[j] {
                            e.insert(i as u32);
                            j
                        } else {
                            i
                        };
                        loser_stamp[loser] = epoch;
                        first_loser = first_loser.min(loser);
                        merged += 1;
                    }
                }
            }
            (merged, first_loser)
        });

        // Movers-only occupancy update: every mover vacates its old cell
        // (losers are always movers), then each surviving mover claims
        // its target.
        timed(&mut prof, Phase::OccupancyRebuild, || {
            let Swarm { positions, handles, index, scratch, .. } = &mut *self;
            let RoundScratch { targets, loser_stamp, .. } = scratch;
            for (&i, &target) in active.iter().zip(targets.iter()) {
                if target != positions[i] {
                    index.clear(positions[i]);
                }
            }
            for (&i, &target) in active.iter().zip(targets.iter()) {
                if target != positions[i] && loser_stamp[i] != epoch {
                    let prev = index.set(target, handles[i]);
                    debug_assert!(prev.is_none(), "survivor collision at {:?}", target);
                }
            }
        });

        // Commit the surviving activated robots in place, then compact
        // past the first loser (no merges → no array traffic at all
        // beyond the k in-place writes).
        timed(&mut prof, Phase::Compact, || {
            let Swarm { positions, states, scratch, .. } = &mut *self;
            for ((ki, &i), action) in active.iter().enumerate().zip(actions) {
                if scratch.loser_stamp[i] == epoch {
                    continue;
                }
                positions[i] = scratch.targets[ki];
                states[i] = action.state;
            }
        });
        if merged > 0 {
            timed(&mut prof, Phase::Compact, || self.compact_tail(first_loser));
        }
        ApplyOutcome { merged, moved }
    }

    /// Remove this round's merge losers from the dense arrays, starting
    /// at the first loser slot. Stable (survivor order is preserved);
    /// only `slot_of` entries are rewritten — tile cells key by handle
    /// and stay valid.
    fn compact_tail(&mut self, first: usize) {
        let Swarm { positions, states, orients, handles, slot_of, scratch, .. } = self;
        let n = positions.len();
        let epoch = scratch.epoch;
        debug_assert!(first < n, "compact_tail called without a loser");
        let mut w = first;
        for r in first..n {
            if scratch.loser_stamp[r] == epoch {
                slot_of[handles[r] as usize] = u32::MAX;
                continue;
            }
            if w != r {
                positions.swap(w, r);
                states.swap(w, r);
                orients.swap(w, r);
                handles.swap(w, r);
                slot_of[handles[w] as usize] = w as u32;
            }
            w += 1;
        }
        positions.truncate(w);
        states.truncate(w);
        orients.truncate(w);
        handles.truncate(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: i32) -> Vec<Point> {
        (0..n).map(|x| Point::new(x, 0)).collect()
    }

    #[test]
    fn construction_and_queries() {
        let s: Swarm<()> = Swarm::new(&line(5), OrientationMode::Aligned);
        assert_eq!(s.len(), 5);
        assert!(s.occupied(Point::new(3, 0)));
        assert!(!s.occupied(Point::new(5, 0)));
        assert_eq!(s.robot_at(Point::new(2, 0)), Some(2));
        assert!(!s.is_gathered());
        let t: Swarm<()> =
            Swarm::new(&[Point::new(0, 0), Point::new(1, 1)], OrientationMode::Aligned);
        assert!(t.is_gathered());
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_positions_rejected() {
        let _: Swarm<()> =
            Swarm::new(&[Point::new(0, 0), Point::new(0, 0)], OrientationMode::Aligned);
    }

    #[test]
    fn apply_moves_and_merges() {
        let mut s: Swarm<()> = Swarm::new(&line(3), OrientationMode::Aligned);
        // Robot 0 hops east onto robot 1; robots 1 and 2 stay.
        let actions = vec![Action { step: V2::E, state: () }, Action::stay(()), Action::stay(())];
        let out = s.apply(actions);
        assert_eq!(out.merged, 1);
        assert_eq!(out.moved, 1);
        assert_eq!(s.len(), 2);
        assert!(s.occupied(Point::new(1, 0)));
        assert!(s.occupied(Point::new(2, 0)));
        assert!(!s.occupied(Point::new(0, 0)));
    }

    #[test]
    fn stationary_robot_survives_merge() {
        #[derive(Clone, Default, PartialEq, Debug)]
        struct Tag(u8);
        impl RobotState for Tag {
            fn transform(&self, _m: D4) -> Self {
                self.clone()
            }
        }
        let mut s: Swarm<Tag> = Swarm::new(&line(2), OrientationMode::Aligned);
        let actions =
            vec![Action { step: V2::E, state: Tag(1) }, Action { step: V2::ZERO, state: Tag(2) }];
        s.apply(actions);
        assert_eq!(s.len(), 1);
        // The stationary robot (old index 1) survives and keeps its state.
        assert_eq!(s.states()[0], Tag(2));
        assert_eq!(s.positions()[0], Point::new(1, 0));
    }

    #[test]
    fn three_way_merge() {
        let mut s: Swarm<()> = Swarm::new(
            &[Point::new(0, 0), Point::new(2, 0), Point::new(1, 1)],
            OrientationMode::Aligned,
        );
        let actions = vec![
            Action { step: V2::E, state: () },
            Action { step: V2::W, state: () },
            Action { step: V2::S, state: () },
        ];
        let out = s.apply(actions);
        assert_eq!(out.merged, 2);
        assert_eq!(s.len(), 1);
        assert_eq!(s.positions()[0], Point::new(1, 0));
    }

    #[test]
    fn scrambled_orientation_transforms_steps() {
        // A robot with a rotated frame stepping "east" in its own frame
        // must move along its rotated axis in the world.
        let mut s: Swarm<()> = Swarm::new(&[Point::new(0, 0)], OrientationMode::Aligned);
        s.orients_mut()[0] = D4 { rot: 1, flip: false }; // frame E -> world N
        s.apply(vec![Action { step: V2::E, state: () }]);
        assert_eq!(s.positions()[0], Point::new(0, 1));
    }

    #[test]
    fn apply_partial_keeps_inactive_position_and_state() {
        #[derive(Clone, Default, PartialEq, Debug)]
        struct Tag(u8);
        impl RobotState for Tag {
            fn transform(&self, _m: D4) -> Self {
                self.clone()
            }
        }
        let mut s: Swarm<Tag> = Swarm::new(&line(3), OrientationMode::Aligned);
        s.states_mut()[1] = Tag(7);
        s.states_mut()[2] = Tag(9);
        // Only robot 0 is activated: it hops east onto inactive robot 1.
        let out = s.apply_partial(vec![Some(Action { step: V2::E, state: Tag(1) }), None, None]);
        assert_eq!(out, ApplyOutcome { merged: 1, moved: 1 });
        assert_eq!(s.len(), 2);
        // The inactive robot is stationary, so it wins the merge and
        // keeps both its position and its state.
        let survivor = s.robot_at(Point::new(1, 0)).unwrap();
        assert_eq!(s.states()[survivor], Tag(7));
        assert_eq!(s.states()[s.robot_at(Point::new(2, 0)).unwrap()], Tag(9));
    }

    #[test]
    fn apply_partial_with_all_some_matches_apply() {
        let mut a: Swarm<()> = Swarm::new(&line(4), OrientationMode::Aligned);
        let mut b = a.clone();
        let acts = |_: ()| vec![Action { step: V2::E, state: () }; 4];
        let oa = a.apply(acts(()));
        let ob = b.apply_partial(acts(()).into_iter().map(Some).collect());
        assert_eq!(oa, ob);
        assert_eq!(a.positions(), b.positions());
    }

    #[test]
    fn position_digest_tracks_positions_only() {
        let a: Swarm<()> = Swarm::new(&line(5), OrientationMode::Aligned);
        let b: Swarm<()> = Swarm::new(&line(5), OrientationMode::Scrambled(3));
        // Same positions, different orientations/states: same digest.
        assert_eq!(a.position_digest(), b.position_digest());
        let c: Swarm<()> = Swarm::new(&line(6), OrientationMode::Aligned);
        assert_ne!(a.position_digest(), c.position_digest());
        let mut d = a.clone();
        d.apply(vec![
            Action { step: V2::N, state: () },
            Action::stay(()),
            Action::stay(()),
            Action::stay(()),
            Action::stay(()),
        ]);
        assert_ne!(a.position_digest(), d.position_digest());
    }

    #[test]
    fn swap_is_not_a_merge() {
        let mut s: Swarm<()> = Swarm::new(&line(2), OrientationMode::Aligned);
        let actions = vec![Action { step: V2::E, state: () }, Action { step: V2::W, state: () }];
        let out = s.apply(actions);
        assert_eq!(out.merged, 0);
        assert_eq!(s.len(), 2);
    }

    /// Both swarms hold the same robots in the same slot order, and
    /// `sparse`'s occupancy index agrees with its compacted arrays.
    fn assert_matches_dense(sparse: &Swarm<()>, dense: &Swarm<()>) {
        assert_eq!(sparse.positions(), dense.positions());
        assert_eq!(sparse.position_digest(), dense.position_digest());
        for (i, &p) in sparse.positions().iter().enumerate() {
            assert_eq!(sparse.robot_at(p), Some(i));
        }
    }

    #[test]
    fn sharded_apply_matches_sequential_on_a_merge_heavy_round() {
        // Everyone marches east in one all-active (FSYNC) sparse round: a
        // cascade of pairwise decisions that exercises winner
        // replacement in the owner map.
        let pts = line(40);
        let all: Vec<usize> = (0..40).collect();
        let acts = || (0..40).map(|_| Action { step: V2::E, state: () }).collect::<Vec<_>>();
        let mut dense: Swarm<()> = Swarm::new(&pts, OrientationMode::Aligned);
        let out_dense = dense.apply(acts());
        let mut sparse: Swarm<()> = Swarm::new(&pts, OrientationMode::Aligned);
        assert_eq!(sparse.apply_sparse(&all, acts(), None), out_dense);
        assert_matches_dense(&sparse, &dense);
    }

    /// The sparse path must match the dense path exactly: same outcome,
    /// same survivor order, same digest, coherent index — across every
    /// activation pattern that exercises the incumbent probe (mover onto
    /// stayer, mover onto vacated cell, mover-vs-mover, chains).
    #[test]
    fn sparse_apply_matches_dense_on_partial_rounds() {
        let pts = [
            Point::new(0, 0),
            Point::new(1, 0),
            Point::new(2, 0),
            Point::new(3, 0),
            Point::new(0, 1),
            Point::new(2, 1),
        ];
        // Robots 0 and 2 hop east (0 onto inactive 1 -> loses; 2 onto
        // 3's cell -> loses to the inactive stayer), 4 hops east onto an
        // empty cell, 5 stays put while active.
        let active = [0usize, 2, 4, 5];
        let acts = || {
            vec![
                Action { step: V2::E, state: () },
                Action { step: V2::E, state: () },
                Action { step: V2::E, state: () },
                Action::stay(()),
            ]
        };
        let mut all: Vec<Option<Action<()>>> = (0..pts.len()).map(|_| None).collect();
        for (&i, a) in active.iter().zip(acts()) {
            all[i] = Some(a);
        }
        let mut dense: Swarm<()> = Swarm::new(&pts, OrientationMode::Aligned);
        let out_dense = dense.apply_partial(all);
        assert_eq!(out_dense, ApplyOutcome { merged: 2, moved: 3 });
        let mut sparse: Swarm<()> = Swarm::new(&pts, OrientationMode::Aligned);
        assert_eq!(sparse.apply_sparse(&active, acts(), None), out_dense);
        assert_matches_dense(&sparse, &dense);
    }

    /// Repeated sparse rounds keep handles and the index coherent across
    /// compactions (the stable-handle invariant: tile cells survive
    /// compaction untouched, only `slot_of` is rewritten).
    #[test]
    fn sparse_rounds_keep_index_coherent_across_compactions() {
        let pts: Vec<Point> = (0..12).map(|x| Point::new(x, 0)).collect();
        let mut s: Swarm<()> = Swarm::new(&pts, OrientationMode::Aligned);
        let mut merged_total = 0usize;
        for round in 0..300u64 {
            // Activate a deterministic sliding pair; both step east, so
            // movers regularly land on stationary robots and merge.
            let n = s.len();
            if n < 2 {
                break;
            }
            let a = (round as usize) % (n - 1);
            let active = vec![a, a + 1];
            let acts = active.iter().map(|_| Action { step: V2::E, state: () }).collect();
            merged_total += s.apply_sparse(&active, acts, None).merged;
            for (i, &p) in s.positions().iter().enumerate() {
                assert_eq!(s.robot_at(p), Some(i), "round {round}");
            }
            assert!(s.index().tile_count() > 0);
        }
        assert!(merged_total > 0, "the march must trigger compactions");
        assert!(s.len() < pts.len());
    }

    #[test]
    fn sparse_empty_activation_is_identity() {
        let mut s: Swarm<()> = Swarm::new(&line(4), OrientationMode::Aligned);
        let before = s.position_digest();
        let out = s.apply_sparse(&[], Vec::new(), None);
        assert_eq!(out, ApplyOutcome::default());
        assert_eq!(s.position_digest(), before);
    }

    #[test]
    fn sparse_swarm_memory_is_tiles_not_bounding_box() {
        // Two robots 10⁵ cells apart: the dense grid would need ~10¹⁰
        // cells; the tiled index holds two tiles.
        let pts = [Point::new(0, 0), Point::new(100_000, 100_000)];
        let s: Swarm<()> = Swarm::new(&pts, OrientationMode::Aligned);
        assert_eq!(s.index().tile_count(), 2);
        assert_eq!(s.bounds(), Bounds { min: pts[0], max: pts[1] });
        assert!(!s.is_gathered());
    }

    /// Regression for the O(n)-per-round goal check: with more than four
    /// robots the predicate must decide *without touching positions* —
    /// the bounds closure is the old full rescan, so it must not run.
    #[test]
    fn gathered_check_never_rescans_large_populations() {
        assert!(!gathered_check(5, || -> Bounds { panic!("full bounding-box rescan") }));
        assert!(!gathered_check(1000, || -> Bounds { panic!("full bounding-box rescan") }));
        let b2 = Bounds { min: Point::new(0, 0), max: Point::new(1, 1) };
        assert!(gathered_check(4, || b2));
        assert!(!gathered_check(3, || Bounds { min: Point::new(0, 0), max: Point::new(2, 0) }));
    }

    #[test]
    fn pending_store_parks_and_drains_by_slot() {
        let mut s: Swarm<()> = Swarm::new(&line(5), OrientationMode::Aligned);
        assert_eq!(s.in_flight_count(), 0);
        // Park out of slot order with different due rounds.
        s.park(3, 2, Action { step: V2::E, state: () });
        s.park(1, 1, Action { step: V2::W, state: () });
        s.park(4, 1, Action::stay(()));
        assert_eq!(s.in_flight_count(), 3);
        assert!(s.is_in_flight(1) && s.is_in_flight(3) && s.is_in_flight(4));
        assert!(!s.is_in_flight(0) && !s.is_in_flight(2));
        assert!(s.take_due(0).is_empty(), "nothing due before round 1");
        let due: Vec<usize> = s.take_due(1).into_iter().map(|(slot, _)| slot).collect();
        assert_eq!(due, vec![1, 4], "due moves drain sorted by slot");
        assert_eq!(s.in_flight_count(), 1);
        assert!(!s.is_in_flight(1) && s.is_in_flight(3));
        let due: Vec<usize> = s.take_due(2).into_iter().map(|(slot, _)| slot).collect();
        assert_eq!(due, vec![3]);
        assert_eq!(s.in_flight_count(), 0);
    }

    #[test]
    fn pending_store_survives_compaction_via_handles() {
        // Robot 3 parks; robots 0 and 1 then merge (0 marches onto 1),
        // compacting the dense arrays. The parked entry is keyed by
        // handle, so it must still resolve to robot 3's new slot.
        let mut s: Swarm<()> = Swarm::new(&line(4), OrientationMode::Aligned);
        s.park(3, 5, Action { step: V2::W, state: () });
        let out = s.apply_sparse(&[0], vec![Action { step: V2::E, state: () }], None);
        assert_eq!(out.merged, 1);
        assert_eq!(s.len(), 3);
        let slot3 = s.robot_at(Point::new(3, 0)).expect("robot 3 still present");
        assert!(s.is_in_flight(slot3), "pending entry lost across compaction");
        let due = s.take_due(5);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].0, slot3);
    }

    /// Compaction over a long tail: 1000 losers scattered through 3000
    /// slots, removed by one all-active sparse round, must leave the same
    /// survivor order and `slot_of` coherence as the dense oracle.
    #[test]
    fn parallel_compaction_is_bit_identical_to_serial() {
        let n = 3000i32;
        let pts: Vec<Point> = (0..n).map(|x| Point::new(x, 0)).collect();
        let all: Vec<usize> = (0..n as usize).collect();
        let acts =
            || -> Vec<Action<()>> {
                (0..n)
                    .map(|i| {
                        if i % 3 == 1 {
                            Action { step: V2::W, state: () }
                        } else {
                            Action::stay(())
                        }
                    })
                    .collect()
            };
        let mut dense: Swarm<()> = Swarm::new(&pts, OrientationMode::Aligned);
        let out_dense = dense.apply(acts());
        assert_eq!(out_dense.merged, 1000);
        let mut sparse: Swarm<()> = Swarm::new(&pts, OrientationMode::Aligned);
        assert_eq!(sparse.apply_sparse(&all, acts(), None), out_dense);
        assert_matches_dense(&sparse, &dense);
    }
}
