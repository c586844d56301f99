//! GoToCenter: grid adaptation of the local O(n²) strategy of
//! [DKL+11] ("A tight runtime bound for synchronous gathering of
//! autonomous robots with limited visibility", SPAA 2011).
//!
//! Every robot simultaneously computes the centre of the robots inside
//! its viewing range and takes one king-step toward it. The original
//! strategy's connectivity proof relies on continuous moves toward the
//! centre of the *smallest enclosing circle*; on the grid we guard each
//! step with the same local window certificate the runner hops use —
//! a robot only moves if, within a 5×5 window, its departure provably
//! keeps its neighbours connected to its destination. The guard costs
//! liveness on some shapes, which is part of what experiment E8
//! measures. It certifies one robot's step alone, so robots that step
//! at once can still split the swarm: the seed-1 random blob of 256
//! robots is in 3 pieces after its first FSYNC round (they merge back),
//! and the seed-1 clusters swarm of 256 ends as 4 robots in 3 pieces.
//!
//! The look reads the whole viewing ball (the 840 cells around the
//! robot at the paper's radius) as the engine's occupancy row words
//! ([`View::count_and_sum_within`]): the robot count and the offset sum
//! come from the set bits, without reading a robot's handle. Both are
//! integers that do not depend on the order robots are visited in, so
//! the centroid, and every decision, is what probing the ball cell by
//! cell would give. A robot that would step then reads its 5×5 guard
//! window once, 24 probes, into a bit mask, and floods that mask for
//! each candidate step in turn.

use grid_engine::{Action, Controller, RoundCtx, View, V2};

#[derive(Clone, Debug)]
pub struct GoToCenter {
    radius: i32,
}

impl GoToCenter {
    pub fn new(radius: i32) -> Self {
        assert!(radius >= 4, "the 5×5 step guard reaches L1 distance 4, past radius {radius}");
        GoToCenter { radius }
    }

    /// Same viewing radius as the paper's algorithm (20), for an
    /// apples-to-apples comparison.
    pub fn paper_radius() -> Self {
        GoToCenter::new(20)
    }
}

/// A robot's 5×5 window in its own frame as occupancy bits: bit
/// `STRIDE·(y + 2) + x + 2` holds the cell at offset `(x, y)`. The sixth
/// column of each row is always empty, so a shift by one never carries
/// a cell into the next row.
#[derive(Clone, Copy, Debug)]
struct Window(u32);

const STRIDE: i32 = 6;

fn bit(v: V2) -> u32 {
    1 << (STRIDE * (v.y + 2) + v.x + 2)
}

impl Window {
    /// The window around the observer, whose own cell reads empty (it is
    /// the cell the step vacates).
    fn read(view: &View<'_, ()>) -> Window {
        let mut occ = 0;
        for dy in -2..=2 {
            for dx in -2..=2 {
                let v = V2::new(dx, dy);
                if v != V2::ZERO && view.occupied(v) {
                    occ |= bit(v);
                }
            }
        }
        Window(occ)
    }

    /// 5×5-window connectivity certificate for a single step (solo
    /// version of the gather-core certificate; the baseline has no run
    /// states to coordinate with, so simultaneous-mover worlds are
    /// approximated by refusing steps whose window is ambiguous — robots
    /// adjacent to the mover on the target side are treated as anchors):
    /// with the robot on `step`, every occupied axis neighbour of its old
    /// cell must reach `step` through the window's occupied cells.
    fn step_safe(self, step: V2) -> bool {
        let occ = self.0 | bit(step);
        let mut seen = bit(step);
        loop {
            let grown = occ & (seen | seen << 1 | seen >> 1 | seen << STRIDE | seen >> STRIDE);
            if grown == seen {
                break;
            }
            seen = grown;
        }
        let axis = V2::axis_units().into_iter().fold(0, |m, d| m | bit(d));
        occ & axis & !seen == 0
    }
}

impl Controller for GoToCenter {
    type State = ();
    type Plan = ();

    fn radius(&self) -> i32 {
        self.radius
    }

    fn decide(&self, view: &View<'_, ()>, _ctx: RoundCtx) -> Action<()> {
        let (n, sum) = view.count_and_sum_within(self.radius);
        if n == 0 {
            return Action::stay(());
        }
        // King-step toward the centroid: the sign of each component of
        // the (rational) centre, with a dead zone of half a cell so a
        // robot at the centre stays put.
        let sx = if 2 * sum.x > n {
            1
        } else if 2 * sum.x < -n {
            -1
        } else {
            0
        };
        let sy = if 2 * sum.y > n {
            1
        } else if 2 * sum.y < -n {
            -1
        } else {
            0
        };
        let step = V2::new(sx, sy);
        if step == V2::ZERO {
            return Action::stay(());
        }
        // Try the diagonal first, then its axis projections.
        let window = Window::read(view);
        for step in [step, V2::new(step.x, 0), V2::new(0, step.y)] {
            if step != V2::ZERO && window.step_safe(step) {
                return Action { step, state: () };
            }
        }
        Action::stay(())
    }

    /// One class: `decide` never reads `ctx`.
    fn round_class(&self, _ctx: RoundCtx) -> Option<u8> {
        Some(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gather_workloads::{family, Family};
    use grid_engine::{
        splitmix64, ConnectivityCheck, Engine, EngineConfig, OrientationMode, Point, Scheduler,
        Swarm, D4,
    };

    /// The step guard as it was before the window was read once, as the
    /// oracle: it probes the window for each candidate and floods it
    /// with a stack.
    fn step_safe(view: &View<'_, ()>, step: V2) -> bool {
        const R: i32 = 2;
        const W: usize = 5;
        let idx = |v: V2| -> Option<usize> {
            let dx = v.x + R;
            let dy = v.y + R;
            (dx >= 0 && dy >= 0 && dx <= 2 * R && dy <= 2 * R)
                .then(|| (dy as usize) * W + dx as usize)
        };
        let mut occ = [false; W * W];
        for dy in -R..=R {
            for dx in -R..=R {
                let v = V2::new(dx, dy);
                occ[idx(v).expect("in window")] = v != V2::ZERO && view.occupied(v);
            }
        }
        let ti = idx(step).expect("king step");
        occ[ti] = true;
        let mut seen = [false; W * W];
        let mut stack = vec![step];
        seen[ti] = true;
        while let Some(p) = stack.pop() {
            for d in V2::axis_units() {
                let q = p + d;
                if let Some(i) = idx(q) {
                    if occ[i] && !seen[i] {
                        seen[i] = true;
                        stack.push(q);
                    }
                }
            }
        }
        V2::axis_units().into_iter().all(|d| match idx(d) {
            Some(i) => !occ[i] || seen[i],
            None => true,
        })
    }

    /// The window read once guards every king step as the per-candidate
    /// guard does, on seeded random 5×5 windows seen in all eight
    /// frames. The fills range from sparse to nearly full, so floods
    /// both stop short and wind through the whole window.
    #[test]
    fn window_guard_equals_the_per_candidate_guard() {
        let offsets: Vec<V2> = (-2..=2)
            .flat_map(|dy| (-2..=2).map(move |dx| V2::new(dx, dy)))
            .filter(|&v| v != V2::ZERO)
            .collect();
        let steps: Vec<V2> = offsets.iter().copied().filter(|v| v.is_step()).collect();
        assert_eq!(steps.len(), 8);
        let (mut safe, mut unsafe_) = (0, 0);
        for k in 0..1500u64 {
            let fill = splitmix64(k) % 100;
            let mut pts = vec![Point::new(0, 0)];
            pts.extend(
                offsets
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| splitmix64(k << 8 | j as u64) % 100 < fill)
                    .map(|(_, v)| Point::new(v.x, v.y)),
            );
            let mut s: Swarm<()> = Swarm::new(&pts, OrientationMode::Aligned);
            for orient in D4::all() {
                s.orients_mut()[0] = orient;
                let view = View::new(&s, 0, 4);
                let window = Window::read(&view);
                for &step in &steps {
                    let want = step_safe(&view, step);
                    assert_eq!(window.step_safe(step), want, "window {k} {orient:?} step {step:?}");
                    if want {
                        safe += 1;
                    } else {
                        unsafe_ += 1;
                    }
                }
            }
        }
        assert!(safe > 10_000 && unsafe_ > 10_000, "{safe} safe, {unsafe_} unsafe steps");
    }

    /// The look as it was before the ball scan, as the oracle: one probe
    /// per cell of the viewing ball, collected into a list.
    fn decide_by_probes(c: &GoToCenter, view: &View<'_, ()>) -> Action<()> {
        let mut others = Vec::new();
        for dy in -c.radius..=c.radius {
            let w = c.radius - dy.abs();
            for dx in -w..=w {
                let v = V2::new(dx, dy);
                if v != V2::ZERO && view.occupied(v) {
                    others.push(v);
                }
            }
        }
        if others.is_empty() {
            return Action::stay(());
        }
        let sum = others.iter().fold(V2::ZERO, |a, &b| a + b);
        let n = others.len() as i32;
        let sx = if 2 * sum.x > n {
            1
        } else if 2 * sum.x < -n {
            -1
        } else {
            0
        };
        let sy = if 2 * sum.y > n {
            1
        } else if 2 * sum.y < -n {
            -1
        } else {
            0
        };
        let mut step = V2::new(sx, sy);
        if step == V2::ZERO {
            return Action::stay(());
        }
        for cand in [step, V2::new(step.x, 0), V2::new(0, step.y)] {
            if cand != V2::ZERO && step_safe(view, cand) {
                step = cand;
                return Action { step, state: () };
            }
        }
        Action::stay(())
    }

    const FAMILIES: [Family; 5] =
        [Family::Line, Family::Square, Family::HollowSquare, Family::RandomBlob, Family::Clusters];

    fn engine(f: Family, n: usize, seed: u64, scheduler: Scheduler) -> Engine<GoToCenter> {
        let config = EngineConfig {
            scheduler,
            connectivity: ConnectivityCheck::Never,
            ..EngineConfig::default()
        };
        let pts = family(f, n, seed);
        Engine::from_positions(
            &pts,
            OrientationMode::Scrambled(seed),
            GoToCenter::paper_radius(),
            config,
        )
    }

    /// The ball scan decides what per-cell probes decide, for every
    /// robot of seeded swarms at three points of an FSYNC run.
    #[test]
    fn ball_scan_decides_as_probes() {
        for f in FAMILIES {
            for n in [64, 256] {
                for seed in 0..4 {
                    let mut e = engine(f, n, seed, Scheduler::Fsync);
                    for round in [0, 10, 40] {
                        while e.round() < round {
                            e.step().expect("unchecked steps cannot fail");
                        }
                        for i in 0..e.swarm.len() {
                            let view = View::new(&e.swarm, i, e.controller.radius);
                            assert_eq!(
                                e.controller.decide(&view, RoundCtx { round }).step,
                                decide_by_probes(&e.controller, &view).step,
                                "{f} n {n} seed {seed} round {round} robot {i}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn line_contracts_and_gathers() {
        let pts: Vec<Point> = (0..24).map(|x| Point::new(x, 0)).collect();
        let mut e = Engine::from_positions(
            &pts,
            OrientationMode::Scrambled(1),
            GoToCenter::paper_radius(),
            EngineConfig { connectivity: ConnectivityCheck::Always, ..Default::default() },
        );
        let out = e.run_until_gathered(2000).expect("gathers");
        assert!(out.rounds > 0);
    }

    #[test]
    fn block_gathers() {
        let pts = gather_workloads::square(6);
        let mut e = Engine::from_positions(
            &pts,
            OrientationMode::Scrambled(2),
            GoToCenter::paper_radius(),
            EngineConfig { connectivity: ConnectivityCheck::Always, ..Default::default() },
        );
        e.run_until_gathered(2000).expect("gathers");
    }

    #[test]
    fn isolated_robot_stays() {
        let mut e = Engine::from_positions(
            &[Point::new(0, 0)],
            OrientationMode::Aligned,
            GoToCenter::paper_radius(),
            EngineConfig::default(),
        );
        let stats = e.step().unwrap();
        assert_eq!(stats.moved, 0);
    }

    /// GoToCenter end to end: population and position digest after
    /// [`PINNED_ROUNDS`] rounds of seed-1 swarms, recorded before the look
    /// became a ball scan. The random blobs gather; the clusters FSYNC run
    /// is left as 4 robots in 3 pieces after round 55 and keeps stepping.
    #[test]
    fn pinned_runs_keep_their_digests() {
        let ssync = Scheduler::Ssync { seed: 1, p: 50 };
        let async_s2 = Scheduler::Async { seed: 1, staleness: 2 };
        let runs = [
            (Family::RandomBlob, Scheduler::Fsync, 2, 0x0c45_157b_27f0_8e10),
            (Family::RandomBlob, ssync, 1, 0x793c_4448_6e68_d6e3),
            (Family::RandomBlob, async_s2, 1, 0x3207_3142_a22c_1373),
            (Family::Clusters, Scheduler::Fsync, 4, 0x5650_3ecc_5923_25c5),
            (Family::Clusters, ssync, 99, 0xb92e_1e5a_027d_1aa9),
            (Family::Clusters, async_s2, 94, 0xf5e3_374a_2c72_9914),
        ];
        for (f, scheduler, robots, digest) in runs {
            let mut e = engine(f, 256, 1, scheduler);
            for _ in 0..PINNED_ROUNDS {
                e.step().expect("unchecked steps cannot fail");
            }
            let got = (e.swarm.len(), e.swarm.position_digest());
            assert_eq!(got, (robots, digest), "{f} {scheduler:?}");
        }
    }

    const PINNED_ROUNDS: u64 = 80;

    #[test]
    #[should_panic(expected = "5×5 step guard")]
    fn radius_below_the_step_window_is_refused() {
        GoToCenter::new(3);
    }

    #[test]
    fn smallest_radius_steps_a_line() {
        // In a debug build every probe asserts it stays within the view.
        let pts: Vec<Point> = (0..6).map(|x| Point::new(x, 0)).collect();
        let mut e = Engine::from_positions(
            &pts,
            OrientationMode::Aligned,
            GoToCenter::new(4),
            EngineConfig::default(),
        );
        assert!(e.step().expect("a line stays connected").moved > 0);
    }
}
