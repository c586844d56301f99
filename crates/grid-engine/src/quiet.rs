//! The quiet set: robots whose compute would only repeat itself.
//!
//! A robot's action is a pure function of what it can read — its view,
//! the plans of its Chebyshev neighbours (each computed on that
//! neighbour's own view) and the round's class
//! ([`crate::Controller::round_class`]). A robot is *quiet* in class
//! `c` when its last action computed in class `c` was "stay, keep
//! state" and nothing it can read has changed since. Computing it
//! again would return the same action, and applying "stay, keep state"
//! is the same as leaving the robot inactive. So each round that is not
//! ASYNC computes only the activated robots that are not quiet in the
//! round's class, through the plan table ([`crate::plan`]) with their
//! list, and applies them through [`Swarm::apply_sparse`]; skipped
//! robots are applied as inactive. Positions, states, records and round
//! statistics are bit-identical to computing every activated robot.
//!
//! What a robot can read lies within L1 distance `radius + 2` of it: its
//! own view reaches `radius`, and a Chebyshev neighbour, up to L1
//! distance 2 away, plans on a view reaching `radius` further. So after
//! each apply every robot within `radius + 2` of a *changed cell* — the
//! old and new cell of a mover, the cell of a robot whose state changed
//! — loses all its bits. This needs nothing beyond the
//! [`crate::Controller`] contract; in particular it does not rely on
//! `decide_with_plans` agreeing with `decide`. Edits the engine did not
//! make (`states_mut`, `orients_mut`, a swapped-in swarm) show up as a
//! new swarm version and drop every bit; so does an ASYNC round, whose
//! robots that look are parked even when they decide to stay.
//! Marking is skipped, and every bit dropped, when it would cost more
//! than computing every robot once.
//!
//! Storage is one byte of class bits per stable handle (so merges never
//! move an entry), allocated on the first round of a controller that
//! declares classes, plus the round's changed-cell list; the engine
//! keeps the list of robots to compute.

use crate::geom::{Point, V2};
use crate::swarm::{Action, RobotState, Swarm};

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

/// Engine-owned quiet bits and the round's changed cells.
#[derive(Debug, Default)]
pub(crate) struct QuietSet {
    /// Per stable handle: bit `c` set ⇔ quiet in round class `c`.
    bits: Vec<u8>,
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
            self.bits.clear();
            self.bits.resize(swarm.handle_count(), 0);
        }
        let bit = 1u8 << class;
        let handles = swarm.handles();
        out.clear();
        out.extend(active.iter().copied().filter(|&i| self.bits[handles[i] as usize] & bit == 0));
        out.len() < active.len()
    }

    /// After compute, before the apply: `computed[k]` chose
    /// `actions[k]` in `class`. A robot that stays and keeps its state
    /// becomes quiet in `class`; any other loses all its bits and its
    /// cells join the round's changed cells.
    pub(crate) fn record<S: RobotState>(
        &mut self,
        swarm: &Swarm<S>,
        computed: &[usize],
        actions: &[Action<S>],
        class: u8,
    ) {
        let bit = 1u8 << class;
        let (handles, positions, states) = (swarm.handles(), swarm.positions(), swarm.states());
        self.changed.clear();
        for (&i, action) in computed.iter().zip(actions) {
            let quiet = &mut self.bits[handles[i] as usize];
            if action.step == V2::ZERO && action.state == states[i] {
                *quiet |= bit;
                continue;
            }
            *quiet = 0;
            self.changed.push(positions[i]);
            if action.step != V2::ZERO {
                self.changed.push(positions[i] + swarm.orients()[i].apply(action.step));
            }
        }
    }

    /// After the apply: every robot within L1 distance `reach` of a
    /// changed cell loses all its bits. When marking would cost more
    /// than computing everyone once, every bit goes instead.
    pub(crate) fn invalidate<S: RobotState>(&mut self, swarm: &Swarm<S>, reach: i32) {
        self.version = swarm.version();
        if self.changed.len() * ball_cells(reach) > PROBES_PER_COMPUTE * swarm.len() {
            self.bits.fill(0);
            return;
        }
        self.changed.sort_unstable();
        self.changed.dedup();
        let bits = &mut self.bits;
        for &cell in &self.changed {
            let win = swarm.index().window(cell, reach);
            win.for_each_in_ball(cell, reach, |_, h| bits[h as usize] = 0);
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
    /// class-0 round, the sum of plans from its last class-1 round, and
    /// for walkers a heading in its own frame.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    struct RimState {
        rim: u32,
        sum: u32,
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
    /// of occupied cells on the east half of its view's rim (L1 distance
    /// exactly `radius`, its own frame). Class-0 rounds record that count
    /// in the state; class-1 rounds record the sum of the plans of the
    /// robot and its Chebyshev neighbours, which reaches `radius + 2`
    /// cells out, the full reach the quiet set must clear. Walkers step
    /// along their heading, turn when blocked, and in class-1 rounds walk
    /// north into a non-walker, merging into it.
    struct Rim {
        classes: bool,
    }

    const RADIUS: i32 = 3;

    fn rim_count(view: &View<'_, RimState>) -> u32 {
        let rim = (-RADIUS..=RADIUS).flat_map(|y| {
            let w = RADIUS - y.abs();
            [V2::new(-w, y), V2::new(w, y)]
        });
        rim.filter(|v| v.x > 0 && view.occupied(*v)).count() as u32
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
            Some(rim_count(view))
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
                next.rim = rim_count(view);
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

    fn engine(classes: bool, scheduler: Scheduler, threads: usize) -> Engine<Rim> {
        // A 40 % random fill of a 60×60 box (about 1440 robots, above
        // the parallel threshold) with one walker in 64.
        let pts: Vec<Point> = (0..3600)
            .map(|i| Point::new(i % 60, i / 60))
            .filter(|p| splitmix64(0x5eed ^ ((p.x as u64) << 8 | p.y as u64)) % 100 < 40)
            .collect();
        let config = EngineConfig {
            threads,
            scheduler,
            connectivity: ConnectivityCheck::Never,
            ..EngineConfig::default()
        };
        let mut e =
            Engine::from_positions(&pts, OrientationMode::Scrambled(3), Rim { classes }, config);
        for (i, s) in e.swarm.states_mut().iter_mut().enumerate() {
            let draw = splitmix64(i as u64);
            if draw.is_multiple_of(256) {
                s.heading = V2::axis_units()[(draw >> 8) as usize % 4];
            }
        }
        e
    }

    /// Quiet skipping decides exactly what computing every activated
    /// robot decides, every round, under every scheduler kind, across
    /// edits made between steps: a state edit, an orientation edit, and
    /// a restored snapshot.
    #[test]
    fn quiet_skipping_equals_full_recomputation() {
        let n0 = engine(false, Scheduler::Fsync, 1).swarm.len() as u32;
        for scheduler in [
            Scheduler::Fsync,
            Scheduler::Ssync { seed: 5, p: 50 },
            Scheduler::RoundRobin { k: n0 / 4 },
            Scheduler::Crash { seed: 5, f: 200, n0 },
            Scheduler::Async { seed: 5, staleness: 2 },
        ] {
            for threads in [1, 3] {
                let mut quiet = engine(true, scheduler, threads);
                let mut full = engine(false, scheduler, 1);
                let computed = Rc::new(Cell::new(0u64));
                let sink = Rc::clone(&computed);
                quiet.set_profiler(Box::new(move |p| sink.set(sink.get() + p.computed)));
                let (mut activated, mut merged) = (0, 0);
                let mut snapshot = None;
                for round in 0..36 {
                    let at = format!("{scheduler:?} threads {threads} round {round}");
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
                    assert_eq!(stats, full.step(), "{at}");
                    assert_eq!(quiet.swarm.positions(), full.swarm.positions(), "{at}");
                    assert_eq!(quiet.swarm.states(), full.swarm.states(), "{at}");
                    let stats = stats.expect("unchecked steps cannot fail");
                    (activated, merged) = (activated + stats.activated, merged + stats.merged);
                }
                let at = format!("{scheduler:?} threads {threads}");
                assert!(merged > 0, "{at}: no walker ever merged");
                if matches!(scheduler, Scheduler::Async { .. }) {
                    assert_eq!(computed.get(), activated as u64, "{at}: ASYNC skipped a look");
                } else {
                    eprintln!("{at}: computed {} of {activated}", computed.get());
                    assert!(computed.get() < activated as u64, "{at}: no robot was skipped");
                }
            }
        }
    }
}
