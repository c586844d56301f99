//! The quiet set: robots whose compute would only repeat itself.
//!
//! A robot's action is a pure function of what it can read — its view,
//! the plans of its Chebyshev neighbours (each computed on that
//! neighbour's own view) and the round's class
//! ([`crate::Controller::round_class`]). A robot is *quiet* in class
//! `c` when its last action computed in class `c` was "stay, keep
//! state" and nothing that decision read has changed since. Computing
//! it again would return the same action, and applying "stay, keep
//! state" is the same as leaving the robot inactive. So each round that
//! is not ASYNC computes only the activated robots that are not quiet in
//! the round's class, through the plan table ([`crate::plan`]) with
//! their list, and applies them through [`Swarm::apply_sparse`]; skipped
//! robots are applied as inactive. Positions, states, records and round
//! statistics are bit-identical to computing every activated robot.
//!
//! What a decision read lies within its *reach*: the largest L1 offset
//! any probe of its view touched ([`crate::View`]), where reading a
//! neighbour's plan at offset `d` counts `|d|` plus the reach of that
//! plan's own view ([`crate::Plans::get`]). A pure decision whose probed
//! cells, probed states and read plans are all unchanged runs the same
//! probes in the same order, so it returns the same action. A robot
//! keeps one reach per handle, the largest over the classes it is quiet
//! in. After each apply, a robot loses all its bits when a *changed
//! cell* — the old and new cell of a mover, the cell of a robot whose
//! state changed — lies within its reach. No decision reads beyond
//! `radius + 2` (its own view reaches `radius`; a neighbour up to L1
//! distance 2 away plans on a view reaching `radius` further), so
//! marking scans that ball around each changed cell. This needs nothing
//! beyond the [`crate::Controller`] contract; in particular it does not
//! rely on `decide_with_plans` agreeing with `decide`. Edits the engine
//! did not make (`states_mut`, `orients_mut`, a swapped-in swarm) show
//! up as a new swarm version and drop every bit; so does an ASYNC
//! round, whose robots that look are parked even when they decide to
//! stay. Marking is skipped, and every bit dropped, when it would cost
//! more than computing every robot once.
//!
//! Storage is two bytes per stable handle (so merges never move an
//! entry): the class bits and the reach, allocated on the first round of
//! a controller that declares classes, plus the round's changed-cell
//! list; the engine keeps the list of robots to compute.

use crate::geom::{Point, V2};
use crate::swarm::{Action, RobotState, Swarm};
use crate::view::reach_byte;
use std::sync::atomic::{AtomicU8, Ordering};

/// Marking probes worth one robot's compute. Marking scans each changed
/// cell's ball ([`crate::tile::TileWindow::for_each_in_ball`]); skipping
/// it (dropping every bit instead) costs at most one compute per robot
/// next time. Measured on a 2-core Xeon at the paper's radius: a cell of
/// a tile-row scan costs about 2 ns in a dense swarm (1 ns in a sparse
/// one, measured before the scan skipped empty 8-cell chunks), and a
/// robot's compute about 400 ns for the paper controller (2–3 µs for
/// GoToCenter, which scans its whole view). So marking pays while it
/// probes fewer than ~200 cells per robot of the cheaper controller.
const PROBES_PER_COMPUTE: usize = 200;

/// Number of cells within L1 distance `r` of a cell.
fn ball_cells(r: i32) -> usize {
    let r = r as usize;
    2 * r * (r + 1) + 1
}

/// One robot's entry: which classes it is quiet in, and how far the
/// decisions behind those bits read.
#[derive(Clone, Copy, Debug, Default)]
struct Quiet {
    /// Bit `c` set ⇔ quiet in round class `c`.
    bits: u8,
    /// The largest reach over the set bits; meaningless while `bits` is 0.
    reach: u8,
}

/// Engine-owned quiet bits and the round's changed cells.
#[derive(Debug, Default)]
pub(crate) struct QuietSet {
    /// Per stable handle.
    robots: Vec<Quiet>,
    /// The swarm's version right after the engine's last apply; 0 (never
    /// a version) until then.
    version: u64,
    /// This round's changed cells (capacity reused across rounds).
    changed: Vec<Point>,
}

impl QuietSet {
    /// Fill `out` with the robots of `active` that are not quiet in
    /// `class`, in slot order. Returns whether any robot was left out.
    pub(crate) fn select<S: RobotState>(
        &mut self,
        swarm: &Swarm<S>,
        active: &[usize],
        class: u8,
        out: &mut Vec<usize>,
    ) -> bool {
        if swarm.version() != self.version {
            // Edited outside the engine's apply, or swapped: nothing is
            // known to be quiet.
            self.robots.clear();
            self.robots.resize(swarm.handle_count(), Quiet::default());
        }
        let bit = 1u8 << class;
        let handles = swarm.handles();
        out.clear();
        out.extend(
            active.iter().copied().filter(|&i| self.robots[handles[i] as usize].bits & bit == 0),
        );
        out.len() < active.len()
    }

    /// After compute, before the apply: `computed[k]` chose `actions[k]`
    /// in `class`, reading as far as `reach[k]`. A robot that stays and
    /// keeps its state becomes quiet in `class`; any other loses all its
    /// bits and its cells join the round's changed cells.
    pub(crate) fn record<S: RobotState>(
        &mut self,
        swarm: &Swarm<S>,
        computed: &[usize],
        actions: &[Action<S>],
        reach: &[AtomicU8],
        class: u8,
    ) {
        let bit = 1u8 << class;
        let (handles, positions, states) = (swarm.handles(), swarm.positions(), swarm.states());
        self.changed.clear();
        for ((&i, action), reach) in computed.iter().zip(actions).zip(reach) {
            let quiet = &mut self.robots[handles[i] as usize];
            if action.step == V2::ZERO && action.state == states[i] {
                let reach = reach.load(Ordering::Relaxed);
                quiet.reach = if quiet.bits == 0 { reach } else { quiet.reach.max(reach) };
                quiet.bits |= bit;
                continue;
            }
            quiet.bits = 0;
            self.changed.push(positions[i]);
            if action.step != V2::ZERO {
                self.changed.push(positions[i] + swarm.orients()[i].apply(action.step));
            }
        }
    }

    /// After the apply: every robot within its reach of a changed cell
    /// loses all its bits. `ball` bounds every reach. When marking would
    /// cost more than computing everyone once, every bit goes instead.
    pub(crate) fn invalidate<S: RobotState>(&mut self, swarm: &Swarm<S>, ball: i32) {
        self.version = swarm.version();
        if self.changed.len() * ball_cells(ball) > PROBES_PER_COMPUTE * swarm.len() {
            self.robots.fill(Quiet::default());
            return;
        }
        self.changed.sort_unstable();
        self.changed.dedup();
        let robots = &mut self.robots;
        for &cell in &self.changed {
            let win = swarm.index().window(cell, ball);
            win.for_each_in_ball(cell, ball, |at, h| {
                let quiet = &mut robots[h as usize];
                if reach_byte(at.l1(cell)) <= quiet.reach {
                    quiet.bits = 0;
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ConnectivityCheck, Controller, Engine, EngineConfig, RoundCtx};
    use crate::geom::D4;
    use crate::plan::Plans;
    use crate::scheduler::{splitmix64, Scheduler};
    use crate::swarm::OrientationMode;
    use crate::view::View;
    use std::cell::Cell;
    use std::rc::Rc;

    /// What a [`Rim`] robot remembers: its rim count from its last
    /// class-0 round, the sum of plans from its last class-1 round, how
    /// far it reads, and for walkers a heading in its own frame.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    struct RimState {
        rim: u32,
        sum: u32,
        depth: i32,
        heading: V2,
    }

    impl RobotState for RimState {
        fn transform(&self, m: D4) -> Self {
            RimState { heading: m.apply(self.heading), ..*self }
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

    /// An adversary for the quiet set. Every robot's plan is the number
    /// of occupied cells on the east half of a rim of its view (L1
    /// distance exactly `radius`, or its state's `depth` when `by_depth`,
    /// in its own frame); robots of odd depth count with one ball query,
    /// the others probe each rim cell. Class-0 rounds record that count
    /// in the state; class-1 rounds record the sum of the plans of the
    /// robot and its Chebyshev neighbours, which reaches up to
    /// `radius + 2` cells out, the full ball the quiet set scans.
    /// Walkers step along their heading, turn when blocked, and in
    /// class-1 rounds walk north into a non-walker, merging into it.
    struct Rim {
        classes: bool,
        by_depth: bool,
    }

    const RADIUS: i32 = 3;

    impl Rim {
        fn rim_count(&self, view: &View<'_, RimState>) -> u32 {
            let depth = view.self_state().depth;
            let r = if self.by_depth { depth } else { RADIUS };
            if depth % 2 == 1 {
                let mut count = 0;
                view.for_each_within(r, |v| count += u32::from(v.l1() == r && v.x > 0));
                return count;
            }
            let rim = (-r..=r).flat_map(|y| {
                let w = r - y.abs();
                [V2::new(-w, y), V2::new(w, y)]
            });
            rim.filter(|v| v.x > 0 && view.occupied(*v)).count() as u32
        }
    }

    impl Controller for Rim {
        type State = RimState;
        type Plan = u32;

        fn radius(&self) -> i32 {
            RADIUS
        }

        fn decide(&self, _view: &View<'_, RimState>, _ctx: RoundCtx) -> Action<RimState> {
            unreachable!("Rim reads past its view through plans; the engine decides with them")
        }

        fn needs_plan(&self, _state: &RimState, ctx: RoundCtx) -> bool {
            ctx.round % 2 == 1
        }

        fn plan(&self, view: &View<'_, RimState>, _ctx: RoundCtx) -> Option<u32> {
            Some(self.rim_count(view))
        }

        fn decide_with_plans(
            &self,
            view: &View<'_, RimState>,
            ctx: RoundCtx,
            plans: &Plans<'_, RimState, u32>,
        ) -> Action<RimState> {
            let class1 = ctx.round % 2 == 1;
            let mut next = *view.self_state();
            if class1 {
                next.sum = SCANLINE.iter().filter_map(|&d| plans.get(d)).map(|(&p, _)| p).sum();
            } else {
                next.rim = self.rim_count(view);
            }
            let ahead = next.heading;
            let step = match view.state(ahead) {
                _ if ahead == V2::ZERO => V2::ZERO,
                None => ahead,
                Some(s) if class1 && ahead == V2::N && s.heading == V2::ZERO => ahead,
                Some(_) => {
                    next.heading = ahead.rot_ccw();
                    V2::ZERO
                }
            };
            Action { step, state: next }
        }

        fn round_class(&self, ctx: RoundCtx) -> Option<u8> {
            self.classes.then_some((ctx.round % 2) as u8)
        }
    }

    fn config(scheduler: Scheduler, threads: usize) -> EngineConfig {
        EngineConfig {
            threads,
            scheduler,
            connectivity: ConnectivityCheck::Never,
            ..EngineConfig::default()
        }
    }

    fn engine(rim: Rim, scheduler: Scheduler, threads: usize) -> Engine<Rim> {
        // A 40 % random fill of a 60×60 box (about 1440 robots, above
        // the parallel threshold) with one walker in 64 and read depths
        // spread over 0..=RADIUS.
        let pts: Vec<Point> = (0..3600)
            .map(|i| Point::new(i % 60, i / 60))
            .filter(|p| splitmix64(0x5eed ^ ((p.x as u64) << 8 | p.y as u64)) % 100 < 40)
            .collect();
        let mut e = Engine::from_positions(
            &pts,
            OrientationMode::Scrambled(3),
            rim,
            config(scheduler, threads),
        );
        for (i, s) in e.swarm.states_mut().iter_mut().enumerate() {
            let draw = splitmix64(i as u64);
            if draw.is_multiple_of(256) {
                s.heading = V2::axis_units()[(draw >> 8) as usize % 4];
            }
            s.depth = (draw >> 16) as i32 % (RADIUS + 1);
        }
        e
    }

    /// Attach a profiler that sums the engine's computed robots.
    fn count_computed(e: &mut Engine<Rim>) -> Rc<Cell<u64>> {
        let computed = Rc::new(Cell::new(0u64));
        let sink = Rc::clone(&computed);
        e.set_profiler(Box::new(move |p| sink.set(sink.get() + p.computed)));
        computed
    }

    /// Step `rim` with and without classes for 36 rounds, asserting
    /// equal results every round, across edits made between steps: a
    /// state edit, an orientation edit, and a restored snapshot. Returns
    /// the robots the quiet engine computed.
    fn edited_lockstep(by_depth: bool, scheduler: Scheduler, threads: usize) -> u64 {
        let mut quiet = engine(Rim { classes: true, by_depth }, scheduler, threads);
        let mut full = engine(Rim { classes: false, by_depth }, scheduler, 1);
        let computed = count_computed(&mut quiet);
        let (mut activated, mut merged) = (0, 0);
        let mut snapshot = None;
        let at = format!("{scheduler:?} threads {threads} by depth {by_depth}");
        for round in 0..36 {
            match round {
                6 => snapshot = Some(quiet.swarm.clone()),
                12 => {
                    for e in [&mut quiet.swarm, &mut full.swarm] {
                        let states = e.states_mut();
                        states[5].heading = V2::E;
                        states[17].rim = 999;
                    }
                }
                18 => {
                    for e in [&mut quiet.swarm, &mut full.swarm] {
                        e.orients_mut()[3] = D4 { rot: 2, flip: true };
                        e.orients_mut()[40] = D4::IDENTITY;
                    }
                }
                24 => {
                    let restored = snapshot.take().expect("taken at round 6");
                    quiet.swarm = restored.clone();
                    full.swarm = restored;
                }
                _ => {}
            }
            let stats = quiet.step();
            assert_eq!(stats, full.step(), "{at} round {round}");
            assert_eq!(quiet.swarm.positions(), full.swarm.positions(), "{at} round {round}");
            assert_eq!(quiet.swarm.states(), full.swarm.states(), "{at} round {round}");
            let stats = stats.expect("unchecked steps cannot fail");
            (activated, merged) = (activated + stats.activated, merged + stats.merged);
        }
        assert!(merged > 0, "{at}: no walker ever merged");
        if matches!(scheduler, Scheduler::Async { .. }) {
            assert_eq!(computed.get(), activated as u64, "{at}: ASYNC skipped a look");
        } else {
            eprintln!("{at}: computed {} of {activated}", computed.get());
            assert!(computed.get() < activated as u64, "{at}: no robot was skipped");
        }
        computed.get()
    }

    /// Quiet skipping decides exactly what computing every activated
    /// robot decides, every round, under every scheduler kind. Robots
    /// reading their whole radius and robots reading to their own depth
    /// both do; the latter compute fewer robots, because changes beyond
    /// a decision's reach do not wake it.
    #[test]
    fn quiet_skipping_equals_full_recomputation() {
        let n0 = engine(Rim { classes: false, by_depth: false }, Scheduler::Fsync, 1).swarm.len();
        for scheduler in [
            Scheduler::Fsync,
            Scheduler::Ssync { seed: 5, p: 50 },
            Scheduler::RoundRobin { k: n0 as u32 / 4 },
            Scheduler::Crash { seed: 5, f: 200, n0: n0 as u32 },
            Scheduler::Async { seed: 5, staleness: 2 },
        ] {
            for threads in [1, 3] {
                let radius = edited_lockstep(false, scheduler, threads);
                let depth = edited_lockstep(true, scheduler, threads);
                if !matches!(scheduler, Scheduler::Async { .. }) {
                    assert!(
                        depth < radius,
                        "{scheduler:?} threads {threads}: reading to depth computed {depth} \
                         robots, reading the whole radius {radius}"
                    );
                }
            }
        }
    }

    /// Step [`Rim`] reading to depth with and without classes from
    /// `pts` (aligned frames, initial states set by `init`), asserting
    /// equal results every round. Both swarms' states are touched before
    /// each round in `touch`, which drops every quiet bit. Returns the
    /// robots the quiet engine computed and the final positions.
    fn lockstep(
        pts: &[Point],
        init: impl Fn(&mut [RimState]),
        touch: &[u64],
        rounds: u64,
    ) -> (u64, Vec<Point>) {
        let make = |classes| {
            let rim = Rim { classes, by_depth: true };
            let config = config(Scheduler::Fsync, 1);
            let mut e = Engine::from_positions(pts, OrientationMode::Aligned, rim, config);
            init(e.swarm.states_mut());
            e
        };
        let (mut quiet, mut full) = (make(true), make(false));
        let computed = count_computed(&mut quiet);
        for round in 0..rounds {
            if touch.contains(&round) {
                let _ = (quiet.swarm.states_mut(), full.swarm.states_mut());
            }
            assert_eq!(quiet.step(), full.step(), "round {round}");
            assert_eq!(quiet.swarm.positions(), full.swarm.positions(), "round {round}");
            assert_eq!(quiet.swarm.states(), full.swarm.states(), "round {round}");
        }
        (computed.get(), quiet.swarm.positions().to_vec())
    }

    /// A reader of depth 3 at the origin and a walker heading north past
    /// it, three or four columns east. A change at exactly the reader's
    /// reach wakes it; one a cell beyond never does, so the reader is
    /// computed only in the first round of each class.
    #[test]
    fn only_changes_within_reach_wake_a_quiet_robot() {
        const ROUNDS: u64 = 13;
        let run = |lane: i32| {
            let pts = [Point::new(0, 0), Point::new(lane, -6)];
            let init = |s: &mut [RimState]| {
                s[0].depth = RADIUS;
                s[1].heading = V2::N;
            };
            let (computed, end) = lockstep(&pts, init, &[], ROUNDS);
            assert_eq!(end[1], Point::new(lane, 7), "the walker was blocked");
            computed
        };
        assert_eq!(run(RADIUS + 1), ROUNDS + 2, "a change beyond the reach woke the reader");
        let woken = run(RADIUS);
        assert!(woken > ROUNDS + 2, "a change at the reach left the reader quiet ({woken})");
    }

    /// A robot's reach covers every class it is quiet in. The reader at
    /// the origin reads nothing in class 0, but in class 1 it sums its
    /// east neighbour's plan, which reads 3 cells further. Touching the
    /// states before round 3 makes the reader's last compute a class-0
    /// one; the walker then enters the neighbour's rim, 4 cells from the
    /// reader, just before a class-1 round.
    #[test]
    fn reach_spans_every_class_a_robot_is_quiet_in() {
        let pts = [Point::new(0, 0), Point::new(1, 0), Point::new(4, -5)];
        let init = |s: &mut [RimState]| {
            s[1].depth = RADIUS;
            s[2].heading = V2::N;
        };
        lockstep(&pts, init, &[3], 7);
    }
}
