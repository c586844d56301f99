//! The complete per-robot algorithm (Fig. 11): merge first, then runner
//! operations, then run starts every L-th round.
//!
//! Runs move between robots without messages (§3.2): the holder drops a
//! run and the boundary neighbour it passes the run to adopts it, each
//! deciding from its own view. The engine's two-phase compute step
//! ([`grid_engine::plan`]) makes that cheap. In phase 1 every robot that
//! holds runs — every robot, in a start round — evaluates its runner
//! [`Plan`] once, in its own frame. In phase 2 each robot reads its own
//! plan and its Chebyshev neighbours' from the engine's table, maps them
//! into its own frame, and adopts the runs passed to it.
//! [`Controller::decide`] keeps the single-phase form, in which a robot
//! replays every neighbour's plan on its own view, as the reference the
//! shared plans are tested against.

use crate::config::GatherConfig;
use crate::merge::merge_step;
use crate::runner::{self, Plan};
use crate::state::{GatherState, Run};
use grid_engine::{Action, Controller, Plans, RoundCtx, View, V2};

/// The 8 Chebyshev neighbour offsets in scanline order (the order in
/// which a robot adopts passed runs; it decides which of two runs in the
/// same direction survives).
const NEIGHBOURS: [V2; 8] = [
    V2::new(-1, -1),
    V2::new(0, -1),
    V2::new(1, -1),
    V2::new(-1, 0),
    V2::new(1, 0),
    V2::new(-1, 1),
    V2::new(0, 1),
    V2::new(1, 1),
];

/// The paper's gathering strategy as a [`Controller`] for the FSYNC
/// engine. Stateless apart from its constants; all per-robot memory
/// lives in [`GatherState`].
#[derive(Clone, Debug)]
pub struct GatherController {
    cfg: GatherConfig,
}

impl GatherController {
    /// Strategy with the paper's unoptimised constants (radius 20,
    /// L = 22).
    pub fn paper() -> Self {
        Self::with_config(GatherConfig::paper()).expect("paper constants are valid")
    }

    pub fn with_config(cfg: GatherConfig) -> Result<Self, String> {
        cfg.validate()?;
        Ok(GatherController { cfg })
    }

    pub fn config(&self) -> &GatherConfig {
        &self.cfg
    }

    /// Is this a run-start round (the synchronous L-clock)?
    fn starting(&self, ctx: RoundCtx) -> bool {
        ctx.round.is_multiple_of(self.cfg.period)
    }

    /// Fig. 11 after the merge check, given the robot's own runner plan
    /// (`hop` and the runs it keeps) and the runs its neighbours pass to
    /// it, all in its own frame. `adopted` is only consumed when the
    /// robot does not merge.
    fn act(
        &self,
        view: &View<'_, GatherState>,
        hop: V2,
        kept: impl Iterator<Item = Run>,
        adopted: impl Iterator<Item = Run>,
    ) -> Action<GatherState> {
        if hop != V2::ZERO && view.occupied(hop) {
            // OP-A onto an occupied cell: merge; every run I hold or
            // would adopt this round dies with me (cond. 6 + 3).
            return Action { step: hop, state: GatherState::default() };
        }
        Action { step: hop, state: GatherState::from_runs(kept.chain(adopted)) }
    }
}

impl Controller for GatherController {
    type State = GatherState;
    type Plan = Plan;

    fn radius(&self) -> i32 {
        self.cfg.radius
    }

    fn decide(&self, view: &View<'_, GatherState>, ctx: RoundCtx) -> Action<GatherState> {
        // 1. Merge (Fig. 11 step 1): members of executing merge runs
        //    hop; their runs terminate (Table 1, cond. 3).
        if let Some(step) = merge_step(view, V2::ZERO, self.cfg.k_max()) {
            return Action { step, state: GatherState::default() };
        }

        // 2./3. Run operations (Fig. 11 steps 2 and 3): resolve my own
        //    runs, including any started this round (OP-C acts in the
        //    start round itself)...
        let starting = self.starting(ctx);
        let mine = runner::plan(view, V2::ZERO, starting, &self.cfg);

        // ...and adopt runs my boundary neighbours hand to me. The
        //    recipient of a pass is always within Chebyshev distance 1
        //    of the holder, so scanning the 8 neighbours is complete.
        //    Replayed on my view, pass targets are in my frame already;
        //    a run is mine if it lands here.
        let adopted = NEIGHBOURS.into_iter().filter(|&d| view.occupied(d)).flat_map(|d| {
            let theirs = runner::plan(view, d, starting, &self.cfg);
            theirs.passes.into_iter().filter(|&(to, _)| to == V2::ZERO).map(|(_, run)| run)
        });
        self.act(view, mine.hop, mine.kept.into_iter(), adopted)
    }

    fn needs_plan(&self, state: &GatherState, ctx: RoundCtx) -> bool {
        state.has_runs() || self.starting(ctx)
    }

    fn plan(&self, view: &View<'_, GatherState>, ctx: RoundCtx) -> Option<Plan> {
        let plan = runner::plan(view, V2::ZERO, self.starting(ctx), &self.cfg);
        (!plan.is_empty()).then_some(plan)
    }

    fn decide_with_plans(
        &self,
        view: &View<'_, GatherState>,
        _ctx: RoundCtx,
        plans: &Plans<'_, GatherState, Plan>,
    ) -> Action<GatherState> {
        if let Some(step) = merge_step(view, V2::ZERO, self.cfg.k_max()) {
            return Action { step, state: GatherState::default() };
        }
        // My own plan is in my frame already; neighbours' plans are in
        // theirs, with pass targets relative to the holder.
        let (hop, kept) = match plans.get(V2::ZERO) {
            Some((mine, _)) => (mine.hop, &mine.kept[..]),
            None => (V2::ZERO, &[][..]),
        };
        let adopted = NEIGHBOURS.into_iter().flat_map(|d| {
            plans.get(d).into_iter().flat_map(move |(theirs, m)| theirs.passes_to(d, m))
        });
        self.act(view, hop, kept.iter().copied(), adopted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid_engine::{
        ConnectivityCheck, Engine, EngineConfig, EngineError, OrientationMode, Point, Swarm,
    };

    fn engine_for(cells: &[(i32, i32)]) -> Engine<GatherController> {
        let pts: Vec<Point> = cells.iter().map(|&(x, y)| Point::new(x, y)).collect();
        Engine::new(
            Swarm::new(&pts, OrientationMode::Aligned),
            GatherController::paper(),
            EngineConfig { connectivity: ConnectivityCheck::Always, ..EngineConfig::default() },
        )
    }

    fn gathers(cells: &[(i32, i32)], budget: u64) -> u64 {
        let mut e = engine_for(cells);
        match e.run_until_gathered(budget) {
            Ok(out) => out.rounds,
            Err(EngineError::Disconnected { round }) => {
                panic!("disconnected at round {round}")
            }
            Err(err) => panic!("did not gather: {err}"),
        }
    }

    #[test]
    fn tiny_swarms_gather_immediately_or_fast() {
        assert_eq!(gathers(&[(0, 0)], 10), 0);
        assert_eq!(gathers(&[(0, 0), (1, 0)], 10), 0);
        assert_eq!(gathers(&[(0, 0), (1, 0), (0, 1), (1, 1)], 10), 0);
        // A 1×3 line is not within a 2×2 box; both tips hop in.
        assert!(gathers(&[(0, 0), (1, 0), (2, 0)], 10) <= 2);
    }

    #[test]
    fn line_gathers_linearly() {
        let cells: Vec<(i32, i32)> = (0..40).map(|x| (x, 0)).collect();
        let rounds = gathers(&cells, 400);
        // Tips erode by one from each side per round: ~n/2 rounds.
        assert!(rounds <= 40, "took {rounds} rounds");
    }

    #[test]
    fn small_square_gathers() {
        let mut cells = Vec::new();
        for y in 0..5 {
            for x in 0..5 {
                cells.push((x, y));
            }
        }
        let rounds = gathers(&cells, 2000);
        assert!(rounds > 0);
    }

    #[test]
    fn plateau_gathers_via_runners() {
        // Mergeless Fig. 4 shape: requires run reshapement. The 24-wide
        // plateau is the runner life cycle of E3 (Fig. 7/8).
        for width in [20, 24] {
            let mut cells: Vec<(i32, i32)> = (0..width).map(|x| (x, 0)).collect();
            for y in 1..=9 {
                cells.push((0, -y));
                cells.push((width - 1, -y));
            }
            let rounds = gathers(&cells, 10_000);
            assert!(rounds > 0, "width {width}");
        }
    }
}
