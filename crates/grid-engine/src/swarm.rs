//! The swarm: robot positions plus per-robot constant-size state, with a
//! tiled occupancy index and the FSYNC *simultaneous move + merge*
//! semantics of the paper's model.
//!
//! # Structure-of-arrays layout
//!
//! Robots live in parallel dense arrays (`positions`, `states`,
//! `orients`, `handles`) rather than a `Vec<Robot>` of structs, so the
//! compute phase streams each attribute linearly and the round-apply
//! compacts survivors with flat array moves. The live robots occupy the
//! arrays from a *front offset* to the end: slot `i` is array index
//! `front + i`. Every robot additionally carries a *stable handle* — its
//! initial index, never reused (merges only shrink the population), so
//! handles ascend with slots. The occupancy index stores handles, and
//! `slot_of` maps a handle to the robot's current array index
//! (`u32::MAX` once merged away). Three invariants follow:
//!
//! * **Compaction never touches the index.** Removing merge losers
//!   shifts dense slots, but cells keyed by handle stay valid — only the
//!   flat `slot_of` entries of robots that move in the arrays are
//!   rewritten.
//! * **Compaction moves only what lies outside the widest gap.** The
//!   survivors between the two consecutive losers farthest apart (a
//!   loser and an end count) stay at their array indexes; those before
//!   the gap shift back toward it, moving the front offset, and those
//!   after it shift forward. Survivors keep their relative order, and a
//!   round whose losers are the two tips of the slot order (a line's
//!   ends) moves nothing.
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
use std::collections::BTreeMap;
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

    /// Does the action change a robot whose state is `state`: does it
    /// move, or change the state? Committing one that does not ("stay,
    /// keep state") is the same as leaving the robot inactive, so no
    /// round commits it.
    pub fn changes(&self, state: &S) -> bool
    where
        S: PartialEq,
    {
        self.step != V2::ZERO || self.state != *state
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
    /// round (shared by both apply paths).
    loser_stamp: Vec<u32>,
    /// The round's merge losers by dense slot, each once (shared by both
    /// apply paths; drives compaction).
    losers: Vec<usize>,
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
        self.losers.clear();
        if self.mover_stamp.len() < n0 {
            // Replaced, not grown: 0 is never a live epoch, and the OS
            // maps a zeroed allocation's pages only once a round stamps
            // them, so a subset round's first apply stays O(activated).
            self.mover_stamp = vec![0; n0];
            self.loser_stamp = vec![0; n0];
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
    /// Array index of dense slot 0 in the four arrays below; the entries
    /// before it are merge losers that compaction left behind, never read.
    front: usize,
    positions: Vec<Point>,
    states: Vec<S>,
    orients: Vec<D4>,
    /// Array index → stable handle (the robot's initial index).
    handles: Vec<u32>,
    /// Handle → current *array index* (dense slot plus `front`);
    /// `u32::MAX` once merged away. Holding array indexes lets a robot
    /// keep its entry while the front offset moves past merge losers.
    /// The occupancy index stores handles, so compaction only rewrites
    /// this flat array and never touches tile cells.
    slot_of: Vec<u32>,
    /// Per handle: the round an ASYNC robot's look lands, or 0 while it
    /// is not in flight ([`Swarm::park`], [`Swarm::land`]). Sized by the
    /// first park, so it is empty for every synchronous scheduler and
    /// an empty ledger means that nobody is in flight. (Sized by the
    /// first `land`, before that round's compute, it raised the peak RSS
    /// of an n = 10⁶ ASYNC run by 7.6 MB.)
    due: Vec<u64>,
    /// The parked actions that change their robot, grouped by the round
    /// they land (so [`Swarm::land`] visits only the actions that
    /// commit), each by the robot's stable *handle*, which compaction
    /// never has to touch. Actions stay in the robot's local frame:
    /// orientations are fixed at birth, so a deferred local-frame step
    /// means the same world step whenever it commits. Empty for every
    /// synchronous scheduler.
    pending: BTreeMap<u64, Vec<(u32, Action<S>)>>,
    index: TileIndex,
    scratch: RoundScratch,
    /// Changes on every mutation ([`Swarm::version`]).
    version: u64,
}

// Manual so states without Debug still get a printable swarm summary.
impl<S: RobotState> std::fmt::Debug for Swarm<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Swarm")
            .field("robots", &self.len())
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
            front: 0,
            positions: positions.to_vec(),
            states: (0..n).map(|_| S::default()).collect(),
            orients,
            handles: (0..n as u32).collect(),
            slot_of: (0..n as u32).collect(),
            due: Vec::new(),
            pending: BTreeMap::new(),
            index,
            scratch: RoundScratch::default(),
            version: fresh_version(),
        }
    }

    pub fn len(&self) -> usize {
        self.positions.len() - self.front
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current robot positions, in dense (survivor-compacted) order.
    /// Positions are owned by the occupancy index — they are only
    /// mutated through [`Swarm::apply`] and friends.
    pub fn positions(&self) -> &[Point] {
        &self.positions[self.front..]
    }

    /// Per-robot algorithm states, parallel to [`Swarm::positions`].
    pub fn states(&self) -> &[S] {
        &self.states[self.front..]
    }

    /// Mutable access to robot states (tests and setup). States are not
    /// indexed, so mutating them cannot desynchronise the swarm.
    pub fn states_mut(&mut self) -> &mut [S] {
        self.version = fresh_version();
        &mut self.states[self.front..]
    }

    /// Per-robot local frames (robot frame → world frame), parallel to
    /// [`Swarm::positions`].
    pub fn orients(&self) -> &[D4] {
        &self.orients[self.front..]
    }

    /// Mutable access to robot orientations (tests and setup).
    pub fn orients_mut(&mut self) -> &mut [D4] {
        self.version = fresh_version();
        &mut self.orients[self.front..]
    }

    /// A stamp that changes whenever what a robot sees may have changed:
    /// every method that mutates positions, states or orientations
    /// (`states_mut`, `orients_mut`, the applies) draws a fresh one.
    /// `park` and `land` do not: whether a robot is in flight is part of
    /// no view. Clones keep the stamp, so equal versions mean unchanged
    /// robots; the quiet set, its only reader, uses this to notice edits
    /// made between the engine's steps.
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
        let at = self.slot_of[handle as usize];
        debug_assert_ne!(at, u32::MAX, "index cell held a merged-away handle");
        at as usize - self.front
    }

    /// Current dense slot of a stable handle, or `None` once it merged
    /// away.
    #[inline]
    pub(crate) fn live_slot(&self, handle: usize) -> Option<usize> {
        let at = self.slot_of[handle];
        (at != u32::MAX).then(|| at as usize - self.front)
    }

    /// Stable handles of the live robots, parallel to
    /// [`Swarm::positions`] (a robot's handle is its initial index,
    /// never reused), so strictly increasing. The ASYNC engine keys its
    /// per-robot delay draws by handle so merges cannot re-roll another
    /// robot's schedule.
    pub fn handles(&self) -> &[u32] {
        &self.handles[self.front..]
    }

    /// Is the robot in dense slot `slot` mid-flight between an ASYNC
    /// look and its landing, parked with or without an action? In-flight
    /// robots hold position, cannot look again, and (being stationary)
    /// always win the merges other robots walk into.
    #[inline]
    pub fn is_in_flight(&self, slot: usize) -> bool {
        let h = self.handles()[slot] as usize;
        self.due.get(h).is_some_and(|&due| due != 0)
    }

    /// Robots currently mid-flight, parked with or without an action
    /// (diagnostics and tests): O(n).
    pub fn in_flight_count(&self) -> usize {
        (0..self.len()).filter(|&i| self.is_in_flight(i)).count()
    }

    /// Park an ASYNC look: the robot in `slot` looked this round and is
    /// in flight until the first [`Swarm::land`] at round `due` or
    /// later (`due >= 1`). `action`, if any, commits when it lands; the
    /// engine passes `None` for a look that changes nothing
    /// ([`Action::changes`]), which only lands. A robot can hold at most
    /// one look in flight — it cannot look while in flight.
    pub fn park(&mut self, slot: usize, due: u64, action: Option<Action<S>>) {
        debug_assert_ne!(due, 0, "a look lands in round 1 at the earliest");
        let h = self.handles()[slot];
        self.due.resize(self.slot_of.len(), 0);
        debug_assert_eq!(self.due[h as usize], 0, "robot {h} parked twice without landing");
        self.due[h as usize] = due;
        if let Some(action) = action {
            self.pending.entry(due).or_default().push((h, action));
        }
    }

    /// Start an ASYNC round in one pass over the live slots: a robot not
    /// in flight looks, and one whose look is due by `round` lands (it
    /// looks from the next round on). Returns the robots that look and
    /// the landed actions `(dense slot, action)`, both in slot order;
    /// the engine joins the actions with its delay-0 ones for
    /// [`Swarm::apply_sparse`]. A look lands late when no `land` ran in
    /// its due round, as after an older snapshot of the swarm is swapped
    /// into the engine. Handles merged away while in flight are dropped
    /// defensively when their action falls due (in-flight robots are
    /// stationary and stationary robots win merges, so this cannot
    /// happen under the engine's own scheduling).
    pub fn land(&mut self, round: u64) -> (Vec<usize>, Vec<(usize, Action<S>)>) {
        if self.due.is_empty() {
            return ((0..self.len()).collect(), Vec::new());
        }
        let mut looks = Vec::with_capacity(self.len());
        for (i, &h) in self.handles[self.front..].iter().enumerate() {
            let due = &mut self.due[h as usize];
            if *due == 0 {
                looks.push(i);
            } else if *due <= round {
                *due = 0;
            }
        }
        let mut landed = Vec::new();
        while let Some(entry) = self.pending.first_entry().filter(|e| *e.key() <= round) {
            for (h, action) in entry.remove() {
                if let Some(slot) = self.live_slot(h as usize) {
                    landed.push((slot, action));
                }
            }
        }
        landed.sort_unstable_by_key(|&(slot, _)| slot);
        (looks, landed)
    }

    /// Bounding box of the swarm, derived from the occupancy index's
    /// tile-key extremes (O(live tiles), independent of the population)
    /// rather than a rescan of every robot.
    pub fn bounds(&self) -> Bounds {
        self.index.bounds().expect("non-empty swarm")
    }

    /// The paper's goal predicate: all robots within a 2×2 area. O(1):
    /// see `gathered_check`.
    pub fn is_gathered(&self) -> bool {
        gathered_check(self.len(), || {
            Bounds::of(self.positions().iter().copied()).expect("non-empty swarm")
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
        let mut h = 0x9e37_79b9_7f4a_7c15u64 ^ self.len() as u64;
        for &pos in self.positions() {
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
        assert_eq!(actions.len(), self.len());
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
        let n = self.len();
        assert_eq!(actions.len(), n);
        let epoch = self.scratch.next_epoch(self.slot_of.len());
        let f = self.front;
        let Swarm { positions, states, orients, handles, index, scratch, .. } = &mut *self;
        let (positions, states) = (&mut positions[f..], &mut states[f..]);
        let (orients, handles) = (&orients[f..], &handles[f..]);

        let mut targets = std::mem::take(&mut scratch.targets);
        targets.clear();
        targets.reserve(n);
        let mut moved = 0usize;
        for (i, action) in actions.iter().enumerate() {
            let target = match action {
                Some(action) => {
                    debug_assert!(action.step.is_step(), "illegal step {:?}", action.step);
                    positions[i] + orients[i].apply(action.step)
                }
                None => positions[i],
            };
            moved += usize::from(target != positions[i]);
            targets.push(target);
        }

        // Group robots by target cell to find merges. The common case is
        // "no merge anywhere", so detect duplicates with a map from cell
        // to the currently-winning robot index.
        let mut owner = std::mem::take(&mut scratch.owner);
        owner.clear();
        owner.reserve(n);
        for i in 0..n {
            match owner.entry(targets[i]) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(i as u32);
                }
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    let j = *e.get() as usize;
                    let loser = if beats(positions, &targets, i, j) {
                        e.insert(i as u32);
                        j
                    } else {
                        i
                    };
                    scratch.loser_stamp[loser] = epoch;
                    scratch.losers.push(loser);
                }
            }
        }
        scratch.owner = owner;

        // Movers-only occupancy update: every mover vacates its old cell
        // (losers are always movers), then each surviving mover claims
        // its target. Stationary cells are never rewritten — their
        // handles stay valid across the round.
        for (i, &target) in targets.iter().enumerate() {
            if target != positions[i] {
                index.clear(positions[i]);
            }
        }
        for (i, &target) in targets.iter().enumerate() {
            if target != positions[i] && scratch.loser_stamp[i] != epoch {
                let prev = index.set(target, handles[i]);
                debug_assert!(prev.is_none(), "survivor collision at {:?}", target);
            }
        }

        // Commit in place (losers are overwritten too — they are about
        // to be compacted away), then compact the arrays.
        for (i, action) in actions.into_iter().enumerate() {
            positions[i] = targets[i];
            if let Some(action) = action {
                states[i] = action.state;
            }
        }
        scratch.targets = targets;
        let merged = self.scratch.losers.len();
        if merged > 0 {
            self.compact();
        }
        ApplyOutcome { merged, moved }
    }

    /// The engine's round-apply, for every scheduler: cost
    /// O(activated ∪ moved) instead of O(n).
    ///
    /// `active` lists the activated robots (sorted, distinct — the
    /// [`crate::scheduler::Activation::Subset`] contract; the engine
    /// passes its round's commit list, the robots whose actions change
    /// them) and `actions` their chosen actions, index-parallel to
    /// `active`. Inactive robots keep position and state; they
    /// participate in merges only as stationary incumbents, which this
    /// path discovers by probing the occupancy index at each mover's
    /// target instead of scanning the population. Bit-identical
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
        debug_assert!(active.iter().all(|&i| i < self.len()), "active index out of range");
        debug_assert!(active.windows(2).all(|w| w[0] < w[1]), "activation set must be sorted");

        // Compute the targets and stamp the round's movers.
        let f = self.front;
        let moved = timed(&mut prof, Phase::ApplyTargets, || {
            let Swarm { positions, orients, scratch, .. } = &mut *self;
            let (positions, orients) = (&positions[f..], &orients[f..]);
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
        let merged = timed(&mut prof, Phase::MergeDetect, || {
            let Swarm { positions, index, slot_of, scratch, .. } = &mut *self;
            let positions = &positions[f..];
            let RoundScratch { owner, targets, mover_stamp, loser_stamp, losers, .. } = scratch;
            owner.clear();
            for (ki, &i) in active.iter().enumerate() {
                let target = targets[ki];
                if target == positions[i] {
                    continue;
                }
                match owner.entry(target) {
                    std::collections::hash_map::Entry::Vacant(e) => {
                        match index.get(target) {
                            Some(h) => {
                                let q = slot_of[h as usize] as usize - f;
                                if mover_stamp[q] != epoch {
                                    // A stationary incumbent wins its own
                                    // cell against any mover.
                                    e.insert(q as u32);
                                    loser_stamp[i] = epoch;
                                    losers.push(i);
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
                        losers.push(loser);
                    }
                }
            }
            losers.len()
        });

        // Movers-only occupancy update: every mover vacates its old cell
        // (losers are always movers), then each surviving mover claims
        // its target.
        timed(&mut prof, Phase::OccupancyRebuild, || {
            let Swarm { positions, handles, index, scratch, .. } = &mut *self;
            let (positions, handles) = (&positions[f..], &handles[f..]);
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
        // (no merges → no array traffic at all beyond the k in-place
        // writes).
        timed(&mut prof, Phase::Compact, || {
            let Swarm { positions, states, scratch, .. } = &mut *self;
            let (positions, states) = (&mut positions[f..], &mut states[f..]);
            for ((ki, &i), action) in active.iter().enumerate().zip(actions) {
                if scratch.loser_stamp[i] == epoch {
                    continue;
                }
                positions[i] = scratch.targets[ki];
                states[i] = action.state;
            }
        });
        if merged > 0 {
            timed(&mut prof, Phase::Compact, || self.compact());
        }
        ApplyOutcome { merged, moved }
    }

    /// Remove this round's merge losers (`scratch.losers`) from the dense
    /// arrays, keeping the survivors' relative order. The survivors in
    /// the widest gap between consecutive losers (an end of the slot
    /// order bounds a gap too) stay at their array indexes; each segment
    /// before the gap shifts back by the losers between it and the gap,
    /// and the front offset advances past the dead entries this leaves,
    /// while each segment after the gap shifts forward and the arrays
    /// are truncated. Cost O(n − widest gap + merges · log merges). Only
    /// the `slot_of` entries of losers and of robots that move are
    /// rewritten — tile cells key by handle and stay valid.
    fn compact(&mut self) {
        let Swarm { front, positions, states, orients, handles, slot_of, scratch, .. } = self;
        let losers = &mut scratch.losers;
        losers.sort_unstable();
        let (f, n, m) = (*front, positions.len() - *front, losers.len());
        debug_assert!(losers.windows(2).all(|w| w[0] < w[1]), "a robot lost twice");
        debug_assert!(m > 0 && losers[m - 1] < n, "compact called without a loser");
        for &loser in losers.iter() {
            slot_of[handles[f + loser] as usize] = u32::MAX;
        }
        // Gap `k` holds the slots between `losers[k - 1]` and `losers[k]`,
        // with the ends of the slot order standing in for the missing
        // losers.
        let gap_start = |k: usize| if k > 0 { losers[k - 1] + 1 } else { 0 };
        let gap_end = |k: usize| if k < m { losers[k] } else { n };
        let k = (0..=m).max_by_key(|&k| gap_end(k) - gap_start(k)).unwrap_or(0);
        let mut shift = |from: usize, to: usize| {
            positions.swap(from, to);
            states.swap(from, to);
            orients.swap(from, to);
            handles.swap(from, to);
            slot_of[handles[to] as usize] = to as u32;
        };
        // Before the gap, nearest segment first: each moves back over the
        // losers between it and the gap, last robot first.
        for (passed, j) in (0..k).rev().enumerate() {
            for r in (f + gap_start(j)..f + losers[j]).rev() {
                shift(r, r + passed + 1);
            }
        }
        // After the gap, nearest segment first: each moves forward over
        // the losers between the gap and it, first robot first.
        for (passed, j) in (k..m).enumerate() {
            for r in f + losers[j] + 1..f + gap_end(j + 1) {
                shift(r, r - passed - 1);
            }
        }
        *front = f + k;
        let end = f + n - (m - k);
        positions.truncate(end);
        states.truncate(end);
        orients.truncate(end);
        handles.truncate(end);
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

    /// The slots of landed actions, in the order `land` returned them.
    fn slots(landed: &[(usize, Action<()>)]) -> Vec<usize> {
        landed.iter().map(|&(slot, _)| slot).collect()
    }

    #[test]
    fn pending_store_parks_and_drains_by_slot() {
        let mut s: Swarm<()> = Swarm::new(&line(5), OrientationMode::Aligned);
        assert_eq!(s.in_flight_count(), 0);
        // Park out of slot order with different due rounds.
        s.park(3, 2, Some(Action { step: V2::E, state: () }));
        s.park(1, 1, Some(Action { step: V2::W, state: () }));
        s.park(4, 1, Some(Action::stay(())));
        assert_eq!(s.in_flight_count(), 3);
        assert!(s.is_in_flight(1) && s.is_in_flight(3) && s.is_in_flight(4));
        assert!(!s.is_in_flight(0) && !s.is_in_flight(2));
        let (looks, landed) = s.land(0);
        assert!(landed.is_empty(), "nothing due before round 1");
        assert_eq!(looks, [0, 2]);
        let (looks, landed) = s.land(1);
        assert_eq!(slots(&landed), [1, 4], "due moves drain sorted by slot");
        assert_eq!(looks, [0, 2], "a landing robot does not look in its landing round");
        assert_eq!(s.in_flight_count(), 1);
        assert!(!s.is_in_flight(1) && s.is_in_flight(3));
        let (looks, landed) = s.land(2);
        assert_eq!(slots(&landed), [3]);
        assert_eq!(looks, [0, 1, 2, 4]);
        assert_eq!(s.in_flight_count(), 0);
    }

    /// A look parked without an action is in flight like a parked move
    /// and lands in its due round, but commits nothing. Neither parking
    /// nor landing draws a version: no view sees who is in flight.
    #[test]
    fn still_looks_fly_and_land_without_an_action() {
        let mut s: Swarm<()> = Swarm::new(&line(5), OrientationMode::Aligned);
        let version = s.version();
        s.park(2, 1, None);
        s.park(0, 1, Some(Action { step: V2::W, state: () }));
        s.park(4, 2, None);
        assert_eq!(s.in_flight_count(), 3);
        assert!(s.is_in_flight(0) && s.is_in_flight(2) && s.is_in_flight(4));
        let (looks, landed) = s.land(1);
        assert_eq!(slots(&landed), [0], "a still look commits nothing");
        assert_eq!(looks, [1, 3]);
        assert_eq!(s.in_flight_count(), 1);
        assert!(!s.is_in_flight(2) && s.is_in_flight(4));
        let (looks, landed) = s.land(2);
        assert!(landed.is_empty());
        assert_eq!(looks, [0, 1, 2, 3]);
        assert_eq!(s.in_flight_count(), 0);
        assert!(!s.is_in_flight(4));
        s.park(4, 3, None);
        assert!(s.is_in_flight(4), "a landed robot looks and flies again");
        assert_eq!(s.version(), version, "parking or landing drew a version");
    }

    /// A look lands at the first `land` at or after its due round. Late
    /// landings happen when the engine restores a snapshot taken rounds
    /// earlier, whose looks fell due in rounds that are now past.
    #[test]
    fn a_look_whose_due_round_has_passed_lands_at_the_next_land() {
        let mut s: Swarm<()> = Swarm::new(&line(4), OrientationMode::Aligned);
        s.park(1, 7, Some(Action { step: V2::N, state: () }));
        s.park(2, 8, None);
        let (looks, landed) = s.land(24);
        assert_eq!(slots(&landed), [1], "the late move did not land");
        assert_eq!(landed[0].1.step, V2::N);
        assert_eq!(looks, [0, 3], "a landing robot looked in its landing round");
        assert_eq!(s.in_flight_count(), 0);
        let (looks, landed) = s.land(25);
        assert!(landed.is_empty());
        assert_eq!(looks, [0, 1, 2, 3], "a late look never landed");
    }

    #[test]
    fn pending_store_survives_compaction_via_handles() {
        // Robot 3 parks; robots 0 and 1 then merge (0 marches onto 1),
        // compacting the dense arrays. The parked entry is keyed by
        // handle, so it must still resolve to robot 3's new slot.
        let mut s: Swarm<()> = Swarm::new(&line(4), OrientationMode::Aligned);
        s.park(3, 5, Some(Action { step: V2::W, state: () }));
        let out = s.apply_sparse(&[0], vec![Action { step: V2::E, state: () }], None);
        assert_eq!(out.merged, 1);
        assert_eq!(s.len(), 3);
        let slot3 = s.robot_at(Point::new(3, 0)).expect("robot 3 still present");
        assert!(s.is_in_flight(slot3), "pending entry lost across compaction");
        let (looks, landed) = s.land(5);
        assert_eq!(slots(&landed), [slot3]);
        assert_eq!(looks, [0, 1]);
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

    /// Which robots a compaction round should remove from a swarm whose
    /// slots hold `model` (handle, cell) in order.
    #[derive(Clone, Copy, Debug)]
    enum Losers {
        BothEnds,
        Front,
        Back,
        Scattered(u64),
        AllBut(usize),
    }

    /// One round that removes `pattern`'s robots from both a sparse and a
    /// dense swarm: each wanted loser steps onto a king neighbour that
    /// stays (a stationary incumbent wins), if it has one. Checks both
    /// swarms against `model`, the slot order with those robots taken
    /// out, which is kept here without either apply. `parked` robots
    /// never lose. Returns the removed handles.
    fn remove_round(
        sparse: &mut Swarm<()>,
        dense: &mut Swarm<()>,
        model: &mut Vec<(u32, Point)>,
        parked: &[u32],
        pattern: Losers,
    ) -> Vec<u32> {
        let n = model.len();
        let wanted = |i: usize| match pattern {
            Losers::BothEnds => i == 0 || i + 1 == n,
            Losers::Front => i < 3,
            Losers::Back => i + 3 >= n,
            Losers::Scattered(seed) => splitmix64(seed ^ i as u64).is_multiple_of(4),
            Losers::AllBut(keep) => i != keep,
        };
        let cells: BTreeMap<Point, usize> =
            model.iter().enumerate().map(|(i, &(_, p))| (p, i)).collect();
        let mut moves = Vec::new();
        for (i, &(h, p)) in model.iter().enumerate() {
            if !wanted(i) || parked.contains(&h) {
                continue;
            }
            let sink =
                p.neighbors8().into_iter().find(|q| cells.get(q).is_some_and(|&j| !wanted(j)));
            if let Some(sink) = sink {
                moves.push((i, Action { step: sink - p, state: () }));
            }
        }
        let gone: Vec<u32> = moves.iter().map(|&(i, _)| model[i].0).collect();
        let active: Vec<usize> = moves.iter().map(|&(i, _)| i).collect();
        let mut all: Vec<Option<Action<()>>> = vec![None; n];
        for (i, action) in &moves {
            all[*i] = Some(action.clone());
        }
        let kept = |&(h, _): &(u32, Point)| !gone.contains(&h);
        let at_before: Vec<u32> =
            model.iter().filter(|e| kept(e)).map(|&(h, _)| sparse.slot_of[h as usize]).collect();
        let actions = moves.into_iter().map(|(_, action)| action).collect();
        let outcome = sparse.apply_sparse(&active, actions, None);
        assert_eq!(outcome, dense.apply_partial(all), "{pattern:?}");
        assert_eq!(outcome.merged, gone.len(), "{pattern:?}");
        model.retain(kept);
        for s in [&*sparse, &*dense] {
            let handles: Vec<u32> = model.iter().map(|&(h, _)| h).collect();
            let cells: Vec<Point> = model.iter().map(|&(_, p)| p).collect();
            assert_eq!(s.handles(), handles, "{pattern:?}: survivors left their order");
            assert_eq!(s.positions(), cells, "{pattern:?}");
            assert!(s.handles().windows(2).all(|w| w[0] < w[1]), "{pattern:?}");
            for (i, &p) in s.positions().iter().enumerate() {
                assert_eq!(s.robot_at(p), Some(i), "{pattern:?}: slot {i}");
                assert_eq!(s.is_in_flight(i), parked.contains(&s.handles()[i]), "{pattern:?}");
            }
            for &h in &gone {
                assert_eq!(s.live_slot(h as usize), None, "{pattern:?}: handle {h} lives on");
            }
        }
        if matches!(pattern, Losers::BothEnds) && gone.len() == 2 {
            let at_after: Vec<u32> =
                model.iter().map(|&(h, _)| sparse.slot_of[h as usize]).collect();
            assert_eq!(at_before, at_after, "removing both tips moved a survivor");
        }
        gone
    }

    /// Compaction keeps the survivors' order, the index, the handles and
    /// the in-flight ledger right whatever the losers' layout: both
    /// tips, the front, the back, scattered, and all robots but one
    /// (first, middle or last). The expected slot order is kept in a
    /// plain list, not derived from either apply.
    #[test]
    fn compaction_keeps_order_index_and_parked_moves_for_every_loser_layout() {
        use Losers::*;
        // A 12 × 12 block in row-major slot order, with four parked robots.
        let pts: Vec<Point> = (0..144).map(|i| Point::new(i % 12, i / 12)).collect();
        let mut sparse: Swarm<()> = Swarm::new(&pts, OrientationMode::Aligned);
        let parked = [50u32, 70, 71, 90];
        for (k, &h) in parked.iter().enumerate() {
            sparse.park(h as usize, 100 + k as u64, Some(Action { step: V2::N, state: () }));
        }
        let mut dense = sparse.clone();
        let mut model: Vec<(u32, Point)> =
            pts.iter().enumerate().map(|(h, &p)| (h as u32, p)).collect();
        let mut removed = 0;
        let rounds = [
            BothEnds,
            Front,
            Back,
            Scattered(1),
            BothEnds,
            Front,
            Scattered(2),
            Back,
            BothEnds,
            Scattered(3),
        ];
        for pattern in rounds {
            let gone = remove_round(&mut sparse, &mut dense, &mut model, &parked, pattern);
            assert!(!gone.is_empty(), "{pattern:?} removed nobody");
            removed += gone.len();
        }
        assert!(removed > 40, "only {removed} robots merged away");
        for s in [&mut sparse, &mut dense] {
            for (k, &h) in parked.iter().enumerate() {
                let slot = model.iter().position(|&(g, _)| g == h).expect("parked robots stay");
                let (looks, landed) = s.land(100 + k as u64);
                assert_eq!(slots(&landed), [slot]);
                // The robots landed in earlier rounds look again.
                let flying = &parked[k..];
                let expected: Vec<usize> =
                    (0..model.len()).filter(|&i| !flying.contains(&model[i].0)).collect();
                assert_eq!(looks, expected);
            }
        }
        // All but one: a 3 × 3 block whose centre is listed first, in the
        // middle or last.
        for keep in [0, 4, 8] {
            let mut pts: Vec<Point> = (0..9)
                .map(|i| Point::new(i % 3, i / 3))
                .filter(|&p| p != Point::new(1, 1))
                .collect();
            pts.insert(keep, Point::new(1, 1));
            let mut sparse: Swarm<()> = Swarm::new(&pts, OrientationMode::Aligned);
            let mut dense = sparse.clone();
            let mut model: Vec<(u32, Point)> =
                pts.iter().enumerate().map(|(h, &p)| (h as u32, p)).collect();
            let gone = remove_round(&mut sparse, &mut dense, &mut model, &[], AllBut(keep));
            assert_eq!(gone.len(), 8, "all but slot {keep}");
            assert_eq!(sparse.handles(), [keep as u32]);
        }
    }
}
