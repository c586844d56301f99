//! Shared plans: the engine's two-phase compute step.
//!
//! Some strategies let a robot act on what its neighbours are about to
//! do — the paper's runs move from holder to neighbour without messages,
//! because both replay the holder's decision on their own views. Replayed
//! naively, the same pure function runs once for the holder and once
//! more for each of its up to 8 neighbours. The engine instead computes
//! every round in two phases:
//!
//! 1. **Plan.** Every robot a computed robot can read — the computed
//!    robot itself and its occupied Chebyshev neighbours — that passes
//!    the cheap [`Controller::needs_plan`] pre-check evaluates
//!    [`Controller::plan`] once, on its own view, in its own frame. When
//!    every robot is computed that is every robot passing the pre-check;
//!    otherwise (partial and ASYNC schedulers, or robots left out by the
//!    quiet set, [`crate::quiet`]) only the listed robots and their
//!    neighbours are visited, so the phase stays O(computed).
//! 2. **Decide.** Each activated robot computes its action with
//!    [`Controller::decide_with_plans`], reading the plans through
//!    [`Plans`]: a lookup by Chebyshev-1 offset that returns the plan
//!    together with the [`D4`] from the planner's frame to the
//!    observer's, so dense slot indices never reach a controller.
//!
//! Reach: the table keeps, with each plan it evaluates, how far that
//! plan's view read ([`View`]'s reach). A lookup at offset `d` charges
//! the observer's view `|d|` plus that reach — the plan, or its absence,
//! depends on nothing farther — and only `|d|` when the neighbour
//! evaluated no plan, since [`Controller::needs_plan`] reads its state
//! alone. When no robot evaluated a plan this round, every lookup
//! answers `None` and charges `|d|` without probing. Phase 2 writes each
//! decision's reach, and whether its action changes its robot
//! ([`Action::changes`]), to a per-round buffer (`PlanTable::decided`)
//! for the quiet set.
//!
//! Both phases run on [`for_each_chunk`], and neither collects a
//! per-robot output vector. A phase-1 chunk returns one `u32` index
//! entry per robot it evaluated and only the plans that came out
//! non-empty, which the join shifts by the plans of earlier chunks; a
//! phase-2 chunk returns only the slots and actions of the robots whose
//! action changes them, so the joined chunks are the round's commit
//! list. Chunk 0 writes into the round's own plan list and commit list,
//! the other chunks into buffers the table keeps across rounds, so a
//! round that computes fewer than
//! [`PARALLEL_THRESHOLD`](crate::parallel::PARALLEL_THRESHOLD) robots moves
//! no output between buffers and, once the buffers have grown, allocates
//! nothing but the boxes of its non-empty plans. A split round's chunk
//! buffers have room for their whole chunk, reserved by the calling
//! thread; workers touch only the entries they write.
//!
//! The table is engine-owned and costs 4 bytes per robot (a `u32` entry
//! per slot: an index into the round's compact list of non-empty plans,
//! which are boxed, or the reach of an empty plan), plus a 4-byte
//! work-list entry and a 4-byte chunk entry per robot phase 1 visits and
//! 2 bytes (the reach and the change flag) per robot phase 2 computes.
//! Every entry is reset once phase 2 ends, so a round touches only the
//! entries it set — no per-round O(n) allocation or clear.

use crate::engine::{Controller, RoundCtx};
use crate::geom::{D4, V2};
use crate::parallel::{for_each_chunk, ChunkBuf};
use crate::swarm::{Action, RobotState, Swarm};
use crate::view::{reach_byte, View};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};

/// `index` entry of a robot that evaluated no plan this round. Zero, so a
/// fresh table is a zeroed allocation whose pages the OS maps only once a
/// round writes them: a partial round touches O(activated) of it.
const NO_PLAN: u32 = 0;
/// Flag of the `index` entry of a robot whose plan came out empty; the
/// entry's low byte is the reach of its view. Entries without it are
/// 1 + a position in the plan list. Keeping empty plans in the index
/// spares a start round, where every robot plans and most plans come
/// out empty, a second array read per lookup.
const EMPTY_PLAN: u32 = 1 << 31;
/// `index` entry of a robot already queued for phase 1 this round.
const QUEUED: u32 = u32::MAX;

/// A commit list: the slots of the robots whose actions change them
/// ([`Action::changes`]), ascending, and those actions, index-parallel.
/// The engine keeps the round's list; phase 2 fills it.
#[derive(Default)]
pub(crate) struct CommitList<S> {
    pub(crate) slots: Vec<usize>,
    pub(crate) actions: Vec<Action<S>>,
}

impl<S: RobotState> ChunkBuf for CommitList<S> {
    fn reset(&mut self, items: usize) {
        self.slots.reset(items);
        self.actions.reset(items);
    }
}

/// One phase-1 chunk's output: an `index` entry per robot it evaluated,
/// in work-list order, whose plan positions count from 1 within the
/// chunk's own non-empty plans.
struct PlanChunk<P> {
    entries: Vec<u32>,
    plans: Vec<(Box<P>, u8)>,
}

impl<P> Default for PlanChunk<P> {
    fn default() -> Self {
        PlanChunk { entries: Vec::new(), plans: Vec::new() }
    }
}

impl<P: Send + Sync> ChunkBuf for PlanChunk<P> {
    fn reset(&mut self, items: usize) {
        self.entries.reset(items);
        self.plans.reset(items);
    }
}

/// What phase 2 keeps of one computed robot's decision: how far its view
/// read and whether its action changes the robot. Atomic so the compute
/// map's chunks can write their own entries through a shared slice.
#[derive(Default)]
pub(crate) struct Decided {
    reach: AtomicU8,
    changes: AtomicBool,
}

impl Decided {
    /// The decision's reach byte ([`reach_byte`]).
    pub(crate) fn reach(&self) -> u8 {
        self.reach.load(Ordering::Relaxed)
    }

    /// Does the decision's action change its robot?
    pub(crate) fn changes(&self) -> bool {
        self.changes.load(Ordering::Relaxed)
    }
}

/// Engine-owned storage of one round's plans and decisions, and the
/// compute map's chunk buffers.
pub(crate) struct PlanTable<P, S> {
    /// Per dense slot: 1 + position of the robot's plan in the round's
    /// plan list, [`EMPTY_PLAN`] with its reach, or [`NO_PLAN`]. All
    /// entries are [`NO_PLAN`] between rounds; sized lazily, on the first
    /// robot that passes the pre-check.
    index: Vec<u32>,
    /// Phase 1's chunk 0; once the chunks are joined, its `plans` are the
    /// round's non-empty plans with the reach of their views.
    evaluated: PlanChunk<P>,
    /// Phase 1's other chunks (kept across rounds).
    plan_chunks: Vec<PlanChunk<P>>,
    /// Phase 2's chunks after chunk 0, which writes into the engine's
    /// commit list (kept across rounds).
    commit_chunks: Vec<CommitList<S>>,
    /// The robots phase 1 evaluates (capacity reused across rounds).
    needed: Vec<u32>,
    /// Per robot phase 2 computed, in compute order (capacity reused
    /// across rounds).
    decided: Vec<Decided>,
}

impl<P, S> Default for PlanTable<P, S> {
    fn default() -> Self {
        PlanTable {
            index: Vec::new(),
            evaluated: PlanChunk::default(),
            plan_chunks: Vec::new(),
            commit_chunks: Vec::new(),
            needed: Vec::new(),
            decided: Vec::new(),
        }
    }
}

impl<P: Send + Sync, S: RobotState> PlanTable<P, S> {
    /// One round's compute step: phase 1 fills the table, phase 2
    /// computes every robot to compute (`active`, or every robot when
    /// `None`) and fills `commit` with the robots whose action changes
    /// them, in slot order. Bit-identical across thread counts.
    pub(crate) fn compute<C: Controller<Plan = P, State = S>>(
        &mut self,
        swarm: &Swarm<S>,
        controller: &C,
        active: Option<&[usize]>,
        ctx: RoundCtx,
        threads: usize,
        commit: &mut CommitList<S>,
    ) {
        let radius = controller.radius();
        self.evaluate(swarm, controller, active, ctx, radius, threads);
        let computed = active.map_or(swarm.len(), <[usize]>::len);
        self.decided.resize_with(computed, Decided::default);
        // An empty index tells every lookup that no plan was evaluated.
        let index = if self.needed.is_empty() { &[][..] } else { &self.index[..] };
        let (plans, decided, states) =
            (&self.evaluated.plans[..], &self.decided[..], swarm.states());
        let chunks =
            for_each_chunk(computed, threads, commit, &mut self.commit_chunks, |range, out| {
                for k in range {
                    let i = active.map_or(k, |active| active[k]);
                    let view = View::new(swarm, i, radius);
                    let plans = Plans { view: &view, index, plans };
                    let action = controller.decide_with_plans(&view, ctx, &plans);
                    let changes = action.changes(&states[i]);
                    decided[k].reach.store(reach_byte(view.reach()), Ordering::Relaxed);
                    decided[k].changes.store(changes, Ordering::Relaxed);
                    if changes {
                        out.slots.push(i);
                        out.actions.push(action);
                    }
                }
            });
        for chunk in &mut self.commit_chunks[..chunks - 1] {
            commit.slots.append(&mut chunk.slots);
            commit.actions.append(&mut chunk.actions);
        }
        for &slot in &self.needed {
            self.index[slot as usize] = NO_PLAN;
        }
        self.evaluated.plans.clear();
    }

    /// The reach and change flag of each decision of the last
    /// [`PlanTable::compute`], in compute order. The compute map's
    /// threads are joined by then, so relaxed loads see every store.
    pub(crate) fn decided(&self) -> &[Decided] {
        &self.decided
    }

    /// Phase 1: queue every robot an activated robot can read that
    /// passes the pre-check, evaluate their plans in parallel, and index
    /// them with their reach.
    fn evaluate<C: Controller<Plan = P, State = S>>(
        &mut self,
        swarm: &Swarm<S>,
        controller: &C,
        active: Option<&[usize]>,
        ctx: RoundCtx,
        radius: i32,
        threads: usize,
    ) {
        let n = swarm.len();
        let states = swarm.states();
        self.needed.clear();
        match active {
            None => self.needed.extend(
                (0..n).filter(|&i| controller.needs_plan(&states[i], ctx)).map(|i| i as u32),
            ),
            Some(active) => {
                for &i in active {
                    let center = swarm.positions()[i];
                    let win = swarm.index().window(center, 1);
                    let neighbours = center.neighbors8().into_iter().filter_map(|p| win.get(p));
                    for j in std::iter::once(i).chain(neighbours.map(|h| swarm.slot(h))) {
                        let queued = self.index.get(j).is_some_and(|&k| k == QUEUED);
                        if !queued && controller.needs_plan(&states[j], ctx) {
                            self.reserve(n);
                            self.index[j] = QUEUED;
                            self.needed.push(j as u32);
                        }
                    }
                }
            }
        }
        if self.needed.is_empty() {
            return;
        }
        self.reserve(n);
        let PlanTable { index, evaluated, plan_chunks, needed, .. } = self;
        assert!(needed.len() < EMPTY_PLAN as usize, "plan positions must stay below the flag");
        let chunks = for_each_chunk(needed.len(), threads, evaluated, plan_chunks, |range, out| {
            for &slot in &needed[range] {
                let view = View::new(swarm, slot as usize, radius);
                let plan = controller.plan(&view, ctx);
                let reach = reach_byte(view.reach());
                out.entries.push(match plan {
                    Some(plan) => {
                        out.plans.push((Box::new(plan), reach));
                        out.plans.len() as u32
                    }
                    None => EMPTY_PLAN | u32::from(reach),
                });
            }
        });
        // Join in chunk order: a chunk's plan positions move up by the
        // plans of the chunks before it.
        let mut slots = needed.iter().map(|&slot| slot as usize);
        for (&entry, slot) in evaluated.entries.iter().zip(slots.by_ref()) {
            index[slot] = entry;
        }
        for chunk in &mut plan_chunks[..chunks - 1] {
            let shift = evaluated.plans.len() as u32;
            for (&entry, slot) in chunk.entries.iter().zip(slots.by_ref()) {
                index[slot] = if entry & EMPTY_PLAN == 0 { entry + shift } else { entry };
            }
            evaluated.plans.append(&mut chunk.plans);
        }
    }

    /// Size the index for `n` robots. A too-short index is replaced, not
    /// grown: that only happens before a round's first mark, when every
    /// entry is [`NO_PLAN`].
    fn reserve(&mut self, n: usize) {
        if self.index.len() < n {
            self.index = vec![NO_PLAN; n];
        }
    }
}

/// Phase-2 read access, for one observer, to the plans of the robots
/// within Chebyshev distance 1 of it (itself included).
pub struct Plans<'a, S: RobotState, P> {
    view: &'a View<'a, S>,
    /// Empty when no robot evaluated a plan this round.
    index: &'a [u32],
    plans: &'a [(Box<P>, u8)],
}

impl<S: RobotState, P> std::fmt::Debug for Plans<'_, S, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Plans")
            .field("observer", &self.view.id())
            .field("round_plans", &self.plans.len())
            .finish_non_exhaustive()
    }
}

impl<'a, S: RobotState, P> Plans<'a, S, P> {
    /// The plan of the robot at offset `d` (observer frame, Chebyshev
    /// distance ≤ 1; `V2::ZERO` is the observer itself), together with
    /// the transform from that robot's frame to the observer's. `None`
    /// when the cell is empty or its robot has nothing to share. Counts
    /// toward the view's reach as a probe at `d` plus the reach of the
    /// planner's view.
    #[inline]
    pub fn get(&self, d: V2) -> Option<(&'a P, D4)> {
        debug_assert!(d.is_step(), "plan lookup {d:?} beyond Chebyshev distance 1");
        if self.index.is_empty() {
            // Whatever robot sits at `d` failed the pre-check, which
            // reads its state alone.
            self.view.charge(d.l1());
            return None;
        }
        // One charge per lookup: the cell at `d`, plus what the
        // planner's view read when it evaluated a plan.
        let Some(slot) = self.view.uncounted_slot_at(d) else {
            self.view.charge(d.l1());
            return None;
        };
        let (plan, reach) = match self.index.get(slot).copied().unwrap_or(NO_PLAN) {
            NO_PLAN => (None, 0),
            empty if empty & EMPTY_PLAN != 0 => (None, empty as u8),
            k => {
                let (plan, reach) = &self.plans[k as usize - 1];
                (Some(&**plan), *reach)
            }
        };
        self.view.charge(d.l1() + i32::from(reach));
        Some((plan?, self.view.frame_of(slot)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ConnectivityCheck, Engine, EngineConfig};
    use crate::geom::Point;
    use crate::scheduler::Scheduler;
    use crate::swarm::OrientationMode;

    /// A direction in its owner's frame.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    struct Arrow(V2);

    impl RobotState for Arrow {
        fn transform(&self, m: D4) -> Self {
            Arrow(m.apply(self.0))
        }
    }

    const SCANLINE: [V2; 9] = [
        V2::new(-1, -1),
        V2::new(0, -1),
        V2::new(1, -1),
        V2::new(-1, 0),
        V2::ZERO,
        V2::new(1, 0),
        V2::new(-1, 1),
        V2::new(0, 1),
        V2::new(1, 1),
    ];

    /// Robots holding a non-zero arrow share it; a robot takes the first
    /// shared arrow in scanline order (itself included), turned a quarter,
    /// and marches east when its east cell is occupied, so robots merge
    /// and slots shift between rounds.
    struct Relay;

    fn relay_action(first: Option<V2>, view: &View<'_, Arrow>) -> Action<Arrow> {
        let step = if view.occupied(V2::E) { V2::E } else { V2::ZERO };
        Action { step, state: Arrow(first.map_or(V2::ZERO, V2::rot_ccw)) }
    }

    impl Controller for Relay {
        type State = Arrow;
        type Plan = V2;

        fn radius(&self) -> i32 {
            2
        }

        fn decide(&self, view: &View<'_, Arrow>, _ctx: RoundCtx) -> Action<Arrow> {
            let first = SCANLINE
                .iter()
                .filter_map(|&d| view.state(d))
                .map(|a| a.0)
                .find(|&v| v != V2::ZERO);
            relay_action(first, view)
        }

        fn needs_plan(&self, state: &Arrow, _ctx: RoundCtx) -> bool {
            state.0 != V2::ZERO
        }

        fn plan(&self, view: &View<'_, Arrow>, _ctx: RoundCtx) -> Option<V2> {
            Some(view.self_state().0)
        }

        fn decide_with_plans(
            &self,
            view: &View<'_, Arrow>,
            _ctx: RoundCtx,
            plans: &Plans<'_, Arrow, V2>,
        ) -> Action<Arrow> {
            let first = SCANLINE.iter().find_map(|&d| plans.get(d).map(|(&v, m)| m.apply(v)));
            relay_action(first, view)
        }
    }

    /// [`Relay`] through its reference `decide` only.
    struct RelayStandalone;

    impl Controller for RelayStandalone {
        type State = Arrow;
        type Plan = ();

        fn radius(&self) -> i32 {
            2
        }

        fn decide(&self, view: &View<'_, Arrow>, ctx: RoundCtx) -> Action<Arrow> {
            Relay.decide(view, ctx)
        }
    }

    fn engine<C: Controller<State = Arrow>>(
        c: C,
        scheduler: Scheduler,
        threads: usize,
    ) -> Engine<C> {
        // A 40×40 block is above the parallel threshold.
        let pts: Vec<Point> = (0..1600).map(|i| Point::new(i % 40, i / 40)).collect();
        let mut e = Engine::from_positions(
            &pts,
            OrientationMode::Scrambled(7),
            c,
            EngineConfig {
                threads,
                scheduler,
                connectivity: ConnectivityCheck::Never,
                ..EngineConfig::default()
            },
        );
        for (i, s) in e.swarm.states_mut().iter_mut().enumerate() {
            *s = Arrow(if i % 3 == 0 { V2::ZERO } else { V2::axis_units()[i % 4] });
        }
        e
    }

    #[test]
    fn shared_plans_reach_neighbours_in_their_frames_under_every_activation_kind() {
        for scheduler in [
            Scheduler::Fsync,
            Scheduler::Ssync { seed: 5, p: 40 },
            Scheduler::RoundRobin { k: 37 },
            Scheduler::Async { seed: 5, staleness: 2 },
        ] {
            for threads in [1, 3] {
                let mut shared = engine(Relay, scheduler, threads);
                let mut reference = engine(RelayStandalone, scheduler, 1);
                for round in 0..12 {
                    let at = format!("{scheduler:?} threads {threads} round {round}");
                    assert_eq!(shared.step(), reference.step(), "{at}");
                    assert_eq!(shared.swarm.positions(), reference.swarm.positions(), "{at}");
                    assert_eq!(shared.swarm.states(), reference.swarm.states(), "{at}");
                }
            }
        }
    }

    #[test]
    fn plan_lookups_charge_the_offset_plus_the_planners_reach() {
        // The observer at the origin; east of it a robot whose plan read
        // 3 cells out, north-east one whose empty plan read 4.
        let pts = [Point::new(0, 0), Point::new(1, 0), Point::new(1, 1)];
        let s: Swarm<Arrow> = Swarm::new(&pts, OrientationMode::Aligned);
        let index = [NO_PLAN, 1, EMPTY_PLAN | 4];
        let plans = [(Box::new(V2::N), 3)];
        let view = View::new(&s, 0, 5);
        let lookups = Plans { view: &view, index: &index, plans: &plans };
        assert_eq!(lookups.get(V2::ZERO), None);
        assert_eq!(view.reach(), 0, "the observer evaluated no plan");
        assert_eq!(lookups.get(V2::new(-1, -1)), None);
        assert_eq!(view.reach(), 2, "an empty cell counts as a probe");
        assert_eq!(lookups.get(V2::E), Some((&V2::N, D4::IDENTITY)));
        assert_eq!(view.reach(), 4, "|d| = 1 plus the plan's reach 3");
        assert_eq!(lookups.get(V2::new(1, 1)), None);
        assert_eq!(view.reach(), 6, "|d| = 2 plus the empty plan's reach 4");

        // No robot evaluated a plan: every lookup answers `None` without
        // probing, yet depends on the state at `d`.
        let view = View::new(&s, 0, 5);
        let lookups: Plans<'_, Arrow, V2> = Plans { view: &view, index: &[], plans: &[] };
        assert_eq!(lookups.get(V2::E), None);
        assert_eq!(view.reach(), 1, "|d| of an occupied cell");
        assert_eq!(lookups.get(V2::new(-1, 1)), None);
        assert_eq!(view.reach(), 2, "|d| of an empty cell");
    }
}
