//! Per-robot constant memory: the *run states* of §3.2.

use grid_engine::{RobotState, D4, V2};

/// One run state (§3.2): a reshapement token travelling along the
/// swarm's boundary.
///
/// * `travel` — the moving direction fixed at start time (§3.2 "its in
///   'start runstate' initially set moving direction always remains
///   unchanged" — unchanged *along the boundary*; it rotates with the
///   boundary chain at corners, exactly like the paper's runs follow
///   the boundary).
/// * `side` — which side of the holder is the exterior the run reshapes
///   along (the paper draws runs attached to the boundary side; a
///   one-cell-wide line carries independent runs on both of its sides,
///   which is why a robot stores up to two runs).
///
/// Both vectors live in the *owner's* frame and are re-expressed by
/// [`GatherState::transform`] when another robot observes them.
#[derive(Clone, Copy, PartialEq, Eq, Debug, PartialOrd, Ord)]
pub struct Run {
    pub travel: V2,
    pub side: V2,
    /// Rounds since the run started. Runs expire after a constant
    /// number of rounds ([`crate::GatherConfig::ttl`]): on a closed
    /// boundary (a ring) an unpaired run would otherwise orbit forever,
    /// and accumulated stale runs suppress each other's reshapement
    /// (run passing) until the swarm deadlocks. A bounded age keeps the
    /// run population proportional to the start rate, which is all the
    /// paper's pipelining argument needs. (The expiry is this
    /// reproduction's addition; the paper has no run age.)
    pub age: u16,
}

impl Run {
    pub fn new(travel: V2, side: V2) -> Self {
        debug_assert!(travel.is_axis_unit() && side.is_axis_unit());
        debug_assert!(travel != side && travel != -side, "side must be perpendicular");
        Run { travel, side, age: 0 }
    }

    /// The run one round later (carried by the next holder or rotated
    /// in place at a convex corner).
    pub fn aged(&self, travel: V2, side: V2) -> Run {
        Run { travel, side, age: self.age.saturating_add(1) }
    }

    /// Same travel and side, ignoring age — the identity used for
    /// de-duplication and for the sequent-run test.
    pub fn same_direction(&self, other: &Run) -> bool {
        self.travel == other.travel && self.side == other.side
    }

    /// The diagonal reshapement hop of OP-A (Fig. 8a): forward along the
    /// boundary and away from the exterior side.
    pub fn hop_step(&self) -> V2 {
        self.travel - self.side
    }

    pub(crate) fn transform(&self, m: D4) -> Run {
        Run { travel: m.apply(self.travel), side: m.apply(self.side), age: self.age }
    }

    /// Which of the 8 `(travel, side)` directions this run has: the 4
    /// axis travels, each with its exterior side counter-clockwise or
    /// clockwise of it.
    fn direction_index(&self) -> usize {
        debug_assert!(self.travel.is_axis_unit() && self.side.is_axis_unit());
        let travel = match (self.travel.x, self.travel.y) {
            (1, 0) => 0,
            (0, 1) => 1,
            (-1, 0) => 2,
            _ => 3,
        };
        2 * travel + usize::from(self.side != self.travel.rot_ccw())
    }
}

/// A robot's full algorithm state: up to two run states (§3.2 "A robot
/// can start and store up to two run states at the same time").
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct GatherState {
    runs: [Option<Run>; 2],
}

impl GatherState {
    pub const MAX_RUNS: usize = 2;

    pub fn runs(&self) -> impl Iterator<Item = Run> + '_ {
        self.runs.iter().flatten().copied()
    }

    pub fn run_count(&self) -> usize {
        self.runs.iter().flatten().count()
    }

    pub fn has_runs(&self) -> bool {
        self.run_count() > 0
    }

    pub fn contains(&self, run: Run) -> bool {
        self.runs().any(|r| r == run)
    }

    /// Build a state from an arbitrary number of candidate runs:
    /// same-direction duplicates are dropped (keeping the first), then
    /// the canonical smallest two (in the owner's frame) are kept. The
    /// cap is the model's constant-memory constraint; overflow means
    /// colliding runs, and dropping a run is always safe (liveness is
    /// restored by the next start wave).
    ///
    /// Runs every round for every robot, so it never allocates: a run's
    /// `(travel, side)` pair is one of 8 directions, and each direction
    /// keeps its first candidate in a fixed slot.
    pub fn from_runs(candidates: impl IntoIterator<Item = Run>) -> Self {
        let mut first: [Option<Run>; 8] = [None; 8];
        for r in candidates {
            first[r.direction_index()].get_or_insert(r);
        }
        let mut runs: [Option<Run>; 2] = [None; 2];
        for r in first.into_iter().flatten() {
            // Insert into the sorted pair, dropping the largest.
            match runs {
                [Some(a), _] if r < a => runs = [Some(r), runs[0]],
                [Some(_), Some(b)] if r >= b => {}
                [Some(_), _] => runs[1] = Some(r),
                [None, _] => runs[0] = Some(r),
            }
        }
        GatherState { runs }
    }
}

impl RobotState for GatherState {
    fn transform(&self, m: D4) -> Self {
        GatherState { runs: self.runs.map(|o| o.map(|r| r.transform(m))) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The allocating `from_runs` the fixed-buffer version replaced, kept
    /// as its reference: first run per direction, then the two smallest.
    fn from_runs_reference(candidates: impl IntoIterator<Item = Run>) -> GatherState {
        let mut list: Vec<Run> = Vec::with_capacity(4);
        for r in candidates {
            if !list.iter().any(|q| q.same_direction(&r)) {
                list.push(r);
            }
        }
        list.sort();
        let mut runs = [None; 2];
        for (slot, run) in runs.iter_mut().zip(list) {
            *slot = Some(run);
        }
        GatherState { runs }
    }

    /// Any valid run, with ages from a small range so same-direction
    /// candidates of different ages are common.
    fn arb_run() -> impl Strategy<Value = Run> {
        (0usize..4, prop::bool::ANY, 0u16..4).prop_map(|(t, cw, age)| {
            let travel = V2::axis_units()[t];
            let side = if cw { travel.rot_cw() } else { travel.rot_ccw() };
            Run { age, ..Run::new(travel, side) }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        #[test]
        fn from_runs_matches_the_vec_reference(
            runs in prop::collection::vec(arb_run(), 0..=12usize),
        ) {
            prop_assert_eq!(
                GatherState::from_runs(runs.iter().copied()),
                from_runs_reference(runs.iter().copied())
            );
        }
    }

    #[test]
    fn hop_step_is_forward_diagonal() {
        let r = Run::new(V2::E, V2::N);
        assert_eq!(r.hop_step(), V2::new(1, -1));
        let r = Run::new(V2::S, V2::E);
        assert_eq!(r.hop_step(), V2::new(-1, -1));
    }

    #[test]
    fn from_runs_dedupes_and_caps() {
        let a = Run::new(V2::E, V2::N);
        let b = Run::new(V2::E, V2::S);
        let c = Run::new(V2::W, V2::N);
        let s = GatherState::from_runs([a, a, b, c]);
        assert_eq!(s.run_count(), 2);
        // Canonical order keeps the two smallest.
        let kept: Vec<Run> = s.runs().collect();
        let mut all = [a, b, c];
        all.sort();
        assert_eq!(kept, all[..2].to_vec());
    }

    #[test]
    fn transform_rotates_both_vectors() {
        let s = GatherState::from_runs([Run::new(V2::E, V2::N)]);
        let g = D4 { rot: 1, flip: false }; // E->N, N->W
        let t = s.transform(g);
        let run: Vec<Run> = t.runs().collect();
        assert_eq!(run, vec![Run::new(V2::N, V2::W)]);
    }

    #[test]
    fn default_is_empty() {
        let s = GatherState::default();
        assert!(!s.has_runs());
        assert_eq!(s.run_count(), 0);
    }
}
