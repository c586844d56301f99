//! AsyncGreedy: the paper's introduction observes that under a fair
//! sequential scheduler (ASYNC, one robot active at a time, a round
//! ends when every robot has been activated once) "a simple strategy
//! could achieve the same O(n) rounds". This module implements that
//! strawman as a reference point: the active robot, if it can leave the
//! swarm without disconnecting it, hops onto an adjacent robot and
//! merges. Removability is checked in a local window first and falls
//! back to a global connectivity test — the sequential strawman is
//! deliberately *stronger* than the distributed model (the paper's
//! remark is about the scheduler, not about vision), which only makes
//! the comparison against the FSYNC algorithm more conservative.
//!
//! Because activations are sequential there are no simultaneity
//! hazards, which is precisely why the strategy is trivial — and why
//! the FSYNC result is interesting.

use grid_engine::connectivity::is_connected;
use grid_engine::{Action, OrientationMode, Point, Swarm};

/// Outcome of a sequential greedy run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GreedyOutcome {
    /// Scheduler rounds (passes of n activations) until gathered.
    pub rounds: u64,
    /// Total robots removed by merges.
    pub merged: usize,
    /// Total robot activations (each pass activates every robot alive
    /// at its start) — the work measure comparable across schedulers.
    pub activations: u64,
}

pub struct AsyncGreedy {
    swarm: Swarm<()>,
    rounds: u64,
    merged: usize,
    activations: u64,
}

impl AsyncGreedy {
    pub fn new(positions: &[Point]) -> Self {
        AsyncGreedy {
            swarm: Swarm::new(positions, OrientationMode::Aligned),
            rounds: 0,
            merged: 0,
            activations: 0,
        }
    }

    pub fn swarm(&self) -> &Swarm<()> {
        &self.swarm
    }

    /// Passes completed so far — meaningful after a failed [`Self::run`]
    /// too, so harnesses can report the real progress of a dead run.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Merges so far (see [`Self::rounds`]).
    pub fn merged(&self) -> usize {
        self.merged
    }

    /// Activations so far (see [`Self::rounds`]).
    pub fn activations(&self) -> u64 {
        self.activations
    }

    /// Is the robot at `pos` removable: do its 4-neighbours stay
    /// connected when it hops onto `dst`? Fast path: a 5×5 window
    /// check; slow path (ring-like shapes where everyone is a local
    /// cut vertex): a global connectivity test.
    fn removable(&self, pos: Point, dst: Point) -> bool {
        self.removable_window(pos, dst) || self.removable_global(pos)
    }

    fn removable_global(&self, pos: Point) -> bool {
        let remaining: Vec<Point> =
            self.swarm.positions().iter().copied().filter(|&p| p != pos).collect();
        grid_engine::connectivity::points_connected(&remaining)
    }

    fn removable_window(&self, pos: Point, dst: Point) -> bool {
        const R: i32 = 2;
        let occ = |p: Point| p != pos && self.swarm.occupied(p);
        let inside = |p: Point| (p.x - pos.x).abs() <= R && (p.y - pos.y).abs() <= R;
        // BFS from dst over occupied window cells.
        let mut seen = vec![dst];
        let mut stack = vec![dst];
        while let Some(p) = stack.pop() {
            for q in p.neighbors4() {
                if inside(q) && occ(q) && !seen.contains(&q) {
                    seen.push(q);
                    stack.push(q);
                }
            }
        }
        pos.neighbors4().into_iter().all(|nb| !inside(nb) || !occ(nb) || seen.contains(&nb))
    }

    /// Run until gathered. One round = one activation pass over the
    /// robots alive at the start of the pass. On failure the counters
    /// ([`Self::rounds`], [`Self::merged`], [`Self::activations`]) and
    /// the swarm keep the state the run actually reached.
    pub fn run(&mut self, max_rounds: u64) -> Result<GreedyOutcome, String> {
        while !self.swarm.is_gathered() {
            if self.rounds >= max_rounds {
                return Err(format!("round budget exhausted at {}", self.rounds));
            }
            let before = self.swarm.len();
            // Activate robots one at a time in deterministic order of
            // their current positions (a fair scheduler).
            let mut order: Vec<Point> = self.swarm.positions().to_vec();
            order.sort();
            for pos in order {
                self.activations += 1;
                let Some(i) = self.swarm.robot_at(pos) else { continue };
                // Hop onto an adjacent robot if that cannot disconnect.
                let Some(dst) = pos
                    .neighbors4()
                    .into_iter()
                    .find(|&nb| self.swarm.occupied(nb) && self.removable(pos, nb))
                else {
                    continue;
                };
                let hop = Action { step: dst - pos, state: () };
                let out = self.swarm.apply_sparse(&[i], vec![hop], None);
                self.merged += out.merged;
                debug_assert!(is_connected(&self.swarm));
                if self.swarm.is_gathered() {
                    break;
                }
            }
            self.rounds += 1;
            if self.swarm.len() == before && !self.swarm.is_gathered() {
                return Err(format!("no progress in pass {}", self.rounds));
            }
        }
        Ok(GreedyOutcome {
            rounds: self.rounds,
            merged: self.merged,
            activations: self.activations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_gathers_in_constant_passes() {
        let pts: Vec<Point> = (0..50).map(|x| Point::new(x, 0)).collect();
        let out = AsyncGreedy::new(&pts).run(100).expect("gathers");
        // Each pass removes many robots (every removable leaf in turn);
        // the pass count is far below n.
        assert!(out.rounds <= 10, "rounds = {}", out.rounds);
        assert_eq!(out.merged, 48);
    }

    #[test]
    fn blob_gathers() {
        let pts = gather_workloads::random_blob(150, 7);
        let out = AsyncGreedy::new(&pts).run(200).expect("gathers");
        assert!(out.rounds > 0);
    }

    #[test]
    fn hollow_gathers() {
        let pts = gather_workloads::hollow_rectangle(10, 10, 1);
        AsyncGreedy::new(&pts).run(500).expect("gathers");
    }

    #[test]
    fn failed_run_preserves_real_progress_counters() {
        // Pin a workload that needs at least two passes, then rerun it
        // with a budget one pass short: the failed run must keep the
        // rounds/merges/activations it actually achieved, not zeros.
        let pts = gather_workloads::random_blob(150, 7);
        let mut full = AsyncGreedy::new(&pts);
        let total = full.run(1000).expect("gathers").rounds;
        assert!(total >= 2, "workload gathers in one pass; pick a harder one");
        let mut g = AsyncGreedy::new(&pts);
        assert!(g.run(total - 1).is_err());
        assert_eq!(g.rounds(), total - 1);
        assert!(g.merged() > 0, "interrupted run lost its merge count");
        assert!(g.activations() >= pts.len() as u64, "first pass activates everyone");
        assert!(g.swarm().len() < pts.len(), "swarm did shrink before the budget died");
    }
}
