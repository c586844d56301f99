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
//! keeps its neighbours connected to its destination. The guard keeps
//! the comparison fair (no disconnections) at the cost of liveness on
//! some shapes, which is part of what experiment E8 measures.

use grid_engine::{Action, Controller, RoundCtx, View, V2};

#[derive(Clone, Debug)]
pub struct GoToCenter {
    radius: i32,
}

impl GoToCenter {
    pub fn new(radius: i32) -> Self {
        assert!(radius >= 2);
        GoToCenter { radius }
    }

    /// Same viewing radius as the paper's algorithm (20), for an
    /// apples-to-apples comparison.
    pub fn paper_radius() -> Self {
        GoToCenter::new(20)
    }
}

/// 5×5-window connectivity certificate for a single step (solo version
/// of the gather-core certificate; the baseline has no run states to
/// coordinate with, so simultaneous-mover worlds are approximated by
/// refusing steps whose window is ambiguous — robots adjacent to the
/// mover on the target side are treated as anchors).
fn step_safe(view: &View<'_, ()>, step: V2) -> bool {
    const R: i32 = 2;
    const W: usize = 5;
    let idx = |v: V2| -> Option<usize> {
        let dx = v.x + R;
        let dy = v.y + R;
        (dx >= 0 && dy >= 0 && dx <= 2 * R && dy <= 2 * R).then(|| (dy as usize) * W + dx as usize)
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

impl Controller for GoToCenter {
    type State = ();
    type Plan = ();

    fn radius(&self) -> i32 {
        self.radius
    }

    fn decide(&self, view: &View<'_, ()>, _ctx: RoundCtx) -> Action<()> {
        let others = view.robots_within(self.radius);
        if others.is_empty() {
            return Action::stay(());
        }
        let sum = others.iter().fold(V2::ZERO, |a, &b| a + b);
        let n = others.len() as i32;
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
        let mut step = V2::new(sx, sy);
        if step == V2::ZERO {
            return Action::stay(());
        }
        // Try the diagonal first, then its axis projections.
        for cand in [step, V2::new(step.x, 0), V2::new(0, step.y)] {
            if cand != V2::ZERO && step_safe(view, cand) {
                step = cand;
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
    use grid_engine::{ConnectivityCheck, Engine, EngineConfig, OrientationMode, Point};

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
}
