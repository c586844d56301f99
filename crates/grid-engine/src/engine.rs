//! The round engine: drives look-compute-move rounds against a
//! [`Controller`] under a pluggable activation [`Scheduler`] (FSYNC,
//! SSYNC, round-robin, crash or ASYNC, all through one round function)
//! and enforces the model's global invariants.

use crate::connectivity::is_connected;
use crate::geom::{Bounds, V2};
use crate::metrics::{Metrics, RoundStats};
use crate::observe::{BoxedRoundObserver, PendingMove, RobotMove, RoundRecord};
use crate::plan::{PlanTable, Plans};
use crate::profile::{timed, BoxedProfileSink, Phase, RoundProfile};
use crate::quiet::QuietSet;
use crate::scheduler::{async_delay, Activation, Scheduler};
use crate::swarm::{Action, OrientationMode, RobotState, Swarm};
use crate::view::View;
use std::borrow::Cow;
use std::fmt;

/// Shared synchronous context. FSYNC robots start simultaneously, so a
/// common round counter is part of the model (the paper's "every
/// (L = 22)-th round" check requires exactly this constant-memory
/// counter).
#[derive(Clone, Copy, Debug)]
pub struct RoundCtx {
    pub round: u64,
}

/// A distributed robot strategy: a pure function from a local view (and
/// the synchronous round counter) to an action. Implementations must be
/// `Sync` — the engine evaluates all robots in parallel.
///
/// The engine computes in two phases ([`crate::plan`]): robots first
/// evaluate a [`Controller::Plan`] to share with their Chebyshev
/// neighbours, then decide with those plans at hand. A strategy whose
/// robots share nothing sets `type Plan = ()` and implements only
/// [`Controller::decide`]; the defaults route phase 2 to it.
///
/// Every method is a pure function of its arguments: a decision depends
/// only on the robot's view, the plans of its Chebyshev neighbours (each
/// a pure function of that neighbour's view) and the round context — or,
/// when [`Controller::round_class`] returns a class, the round's class
/// alone. The engine relies on this to skip robots whose inputs have not
/// changed ([`crate::quiet`]).
pub trait Controller: Sync {
    type State: RobotState;

    /// What a robot shares with its neighbours each round, in its own
    /// frame. `()` for strategies that read nothing but the view.
    type Plan: Send + Sync;

    /// The constant L1 viewing radius this strategy requires.
    fn radius(&self) -> i32;

    /// The single-phase *compute* step: the action from the view alone.
    /// Must only probe the view (locality is enforced by the view itself
    /// in debug builds). The engine calls it only through the default
    /// [`Controller::decide_with_plans`]; it is the reference that
    /// method must agree with, and what per-robot probes and tests call.
    fn decide(&self, view: &View<'_, Self::State>, ctx: RoundCtx) -> Action<Self::State>;

    /// Phase-1 pre-check on a robot's own state: `false` promises that
    /// [`Controller::plan`] would return `None` this round, so the
    /// engine builds no view for the robot.
    fn needs_plan(&self, _state: &Self::State, _ctx: RoundCtx) -> bool {
        false
    }

    /// Phase 1: the plan the robot shares this round, in its own frame;
    /// `None` when it has nothing to share. Evaluated at most once per
    /// robot per round.
    fn plan(&self, _view: &View<'_, Self::State>, _ctx: RoundCtx) -> Option<Self::Plan> {
        None
    }

    /// Phase 2: the action, given the view and the round's plans of the
    /// robot itself and its Chebyshev neighbours. Must equal
    /// [`Controller::decide`] on the same view: plans only save the
    /// recomputation.
    fn decide_with_plans(
        &self,
        view: &View<'_, Self::State>,
        ctx: RoundCtx,
        _plans: &Plans<'_, Self::State, Self::Plan>,
    ) -> Action<Self::State> {
        self.decide(view, ctx)
    }

    /// The round's class, below 8. `Some(c)` promises that
    /// [`Controller::needs_plan`], [`Controller::plan`],
    /// [`Controller::decide`] and [`Controller::decide_with_plans`] read
    /// `ctx` only through `c`: two rounds of the same class give the
    /// same robot, reading the same things, the same action. The engine
    /// then skips robots quiet in the class ([`crate::quiet`]). `None`
    /// (the default) promises nothing, and every activated robot is
    /// computed every round.
    fn round_class(&self, _ctx: RoundCtx) -> Option<u8> {
        None
    }
}

/// How strictly the engine checks swarm connectivity after each round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnectivityCheck {
    /// Never check (fastest; for benches where the strategy is trusted).
    Never,
    /// Check every `k`-th round.
    Every(u64),
    /// Check after every round (tests).
    Always,
}

#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Worker threads for the compute step; 0 = available parallelism.
    pub threads: usize,
    pub connectivity: ConnectivityCheck,
    /// Keep per-round history in the metrics.
    pub keep_history: bool,
    /// Abort a run as stalled after this many consecutive rounds without
    /// a merge (generous multiple of the paper's L·n budget is set by
    /// callers; `u64::MAX` disables).
    pub stall_limit: u64,
    /// Which robots are activated each round. [`Scheduler::Fsync`] (the
    /// default) is bit-identical to the pre-policy engine.
    pub scheduler: Scheduler,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: 0,
            connectivity: ConnectivityCheck::Every(64),
            keep_history: false,
            stall_limit: u64::MAX,
            scheduler: Scheduler::Fsync,
        }
    }
}

/// Why a run stopped before gathering.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The strategy broke the swarm into pieces — a model violation.
    Disconnected { round: u64 },
    /// No merge happened for `stall_limit` consecutive rounds.
    Stalled { round: u64, streak: u64 },
    /// The caller's round budget ran out.
    RoundBudgetExhausted { round: u64 },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Disconnected { round } => {
                write!(f, "swarm disconnected in round {round}")
            }
            EngineError::Stalled { round, streak } => {
                write!(f, "no merge for {streak} rounds (at round {round})")
            }
            EngineError::RoundBudgetExhausted { round } => {
                write!(f, "round budget exhausted at round {round}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Outcome of a completed (gathered) run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Rounds until the swarm fit into a 2×2 area.
    pub rounds: u64,
    /// Initial robot count.
    pub initial_robots: usize,
    /// Robots remaining at the end (1..=4 when gathered).
    pub final_robots: usize,
    pub metrics: Metrics,
}

pub struct Engine<C: Controller> {
    /// The robots. Edits between steps (`states_mut`, `orients_mut`,
    /// assigning another swarm) are safe: the engine notices them
    /// through the swarm's version and forgets which robots were quiet.
    pub swarm: Swarm<C::State>,
    /// The strategy. Must not be replaced mid-run: which robots are
    /// quiet is only known for the controller that computed them.
    pub controller: C,
    pub config: EngineConfig,
    round: u64,
    metrics: Metrics,
    observer: Option<BoxedRoundObserver>,
    profiler: Option<BoxedProfileSink>,
    plans: PlanTable<C::Plan>,
    /// Which robots are quiet; `None` until a round with a class.
    quiet: Option<QuietSet>,
    /// `0, 1, 2, …`: the activation list of a round that activates
    /// every robot, sliced to the live population. Grows only when a
    /// larger swarm is swapped in.
    all_slots: Vec<usize>,
    /// The round's robots to compute when the quiet set leaves some out.
    selected: Vec<usize>,
}

impl<C: Controller> std::fmt::Debug for Engine<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("round", &self.round)
            .field("robots", &self.swarm.len())
            .field("config", &self.config)
            .field("observer", &self.observer.is_some())
            .field("profiler", &self.profiler.is_some())
            .finish_non_exhaustive()
    }
}

impl<C: Controller> Engine<C> {
    pub fn new(swarm: Swarm<C::State>, controller: C, config: EngineConfig) -> Self {
        let metrics = Metrics::new(config.keep_history);
        Engine {
            all_slots: (0..swarm.len()).collect(),
            swarm,
            controller,
            config,
            round: 0,
            metrics,
            observer: None,
            profiler: None,
            plans: PlanTable::default(),
            quiet: None,
            selected: Vec::new(),
        }
    }

    /// Convenience constructor from bare positions.
    pub fn from_positions(
        positions: &[crate::geom::Point],
        orientation: OrientationMode,
        controller: C,
        config: EngineConfig,
    ) -> Self {
        Engine::new(Swarm::new(positions, orientation), controller, config)
    }

    pub fn round(&self) -> u64 {
        self.round
    }

    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    pub fn bounds(&self) -> Bounds {
        self.swarm.bounds()
    }

    /// Attach a per-round observer: called once after every round with
    /// the round's [`RoundRecord`] (activation set, world-frame moves,
    /// merge count, post-round swarm digest). The record stream is a
    /// pure function of the run — independent of the engine's
    /// worker-thread count — which is what the trace subsystem's
    /// bit-exact replay relies on. With no observer attached the round
    /// loop does zero extra work.
    pub fn set_observer(&mut self, observer: BoxedRoundObserver) {
        self.observer = Some(observer);
    }

    /// Attach a per-round profile sink: called once after every round
    /// (failing rounds included) with the round's [`RoundProfile`] —
    /// wall time attributed to named phases. Profiling observes the
    /// round *after* its work, so results are bit-identical with and
    /// without a sink; with no sink attached the round loop reads no
    /// clocks at all.
    pub fn set_profiler(&mut self, profiler: BoxedProfileSink) {
        self.profiler = Some(profiler);
    }

    /// Detach the profile sink installed by [`Engine::set_profiler`].
    pub fn clear_profiler(&mut self) {
        self.profiler = None;
    }

    /// Execute one look-compute-move round under the configured
    /// scheduler, then check the model's invariants. Activated robots
    /// compute in parallel, and the round's moves apply simultaneously
    /// through the one sparse round-apply ([`Swarm::apply_sparse`]) on
    /// the calling thread; an FSYNC round activates every slot, which is
    /// exactly the paper's FSYNC round. Under [`Scheduler::Async`] the
    /// robots not in flight look, and each look's move lands after its
    /// seeded delay. Activated robots all observe the engine's global
    /// round counter — the weaker schedulers relax *who* acts and *when*
    /// a move lands, not the common clock. Returns the round's
    /// statistics.
    pub fn step(&mut self) -> Result<RoundStats, EngineError> {
        // Profiling is pay-as-you-go like observation: with no sink
        // attached, `timed` degenerates to a direct call and no clock is
        // read anywhere in the round.
        let profiling = self.profiler.is_some();
        #[expect(
            clippy::disallowed_methods,
            reason = "only read when a profiler sink is attached; phase timings never feed back into round results"
        )]
        let round_start = profiling.then(std::time::Instant::now);
        let mut profile_buf =
            profiling.then(|| RoundProfile { round: self.round, ..Default::default() });
        let mut prof = profile_buf.as_mut();

        let (stats, record) = self.look_compute_move(&mut prof);
        self.round += 1;
        self.metrics.record(stats);
        // Emit the record before the invariant checks: a round that ends
        // in disconnection or a stall is still part of the run, and
        // replay must observe exactly the rounds the recorded run
        // executed — including the failing one.
        if let (Some(observer), Some(record)) = (self.observer.as_mut(), record) {
            timed(&mut prof, Phase::Observe, || observer(&record));
        }

        let invariants = timed(&mut prof, Phase::Invariants, || {
            let check = match self.config.connectivity {
                ConnectivityCheck::Never => false,
                ConnectivityCheck::Always => true,
                ConnectivityCheck::Every(k) => k != 0 && self.round.is_multiple_of(k),
            };
            if check && !is_connected(&self.swarm) {
                return Err(EngineError::Disconnected { round: stats.round });
            }
            if self.metrics.mergeless_streak() >= self.config.stall_limit
                && !self.swarm.is_gathered()
            {
                return Err(EngineError::Stalled {
                    round: stats.round,
                    streak: self.metrics.mergeless_streak(),
                });
            }
            Ok(())
        });

        // The profile goes out on failing rounds too — a round that
        // disconnected still cost its wall time — after all round work,
        // so the sink can never perturb the simulation.
        if let Some(mut p) = profile_buf {
            p.wall_ns = round_start.expect("set when profiling").elapsed().as_nanos() as u64;
            if let Some(sink) = self.profiler.as_mut() {
                sink(&p);
            }
        }
        invariants?;
        Ok(stats)
    }

    /// The round itself, for every scheduler: activate, compute the
    /// activated robots that are not quiet in the round's class
    /// ([`crate::quiet`]), then apply; skipped robots are applied as
    /// inactive, which is what their "stay, keep state" would do.
    /// [`Scheduler::Async`] differs in three places: the robots not in
    /// flight are activated (they *look*), its rounds have no class, and
    /// each look draws a seeded delay `d ∈ 0..=staleness` after compute —
    /// `d >= 1` parks the move in the swarm, and the delay-0 moves
    /// commit with the parked ones falling due. In-flight robots are
    /// stationary incumbents under the order-free merge rule, so results
    /// stay bit-identical across thread counts. Returns the round's
    /// statistics and, with an observer attached, its record.
    fn look_compute_move(
        &mut self,
        prof: &mut Option<&mut RoundProfile>,
    ) -> (RoundStats, Option<RoundRecord>) {
        let ctx = RoundCtx { round: self.round };
        // Observation is pay-as-you-go: the activation clone, the
        // world-frame move list and the pending-move list are only
        // materialised when an observer is attached.
        let tracing = self.observer.is_some();
        let asynchronous = match self.config.scheduler {
            Scheduler::Async { seed, staleness } => Some((seed, staleness)),
            _ => None,
        };
        let n = self.swarm.len();
        let activation = timed(prof, Phase::Activate, || match asynchronous {
            // Legitimately empty when every robot is in flight: such a
            // round only commits the parked moves falling due.
            Some(_) => {
                let look: Vec<usize> = (0..n).filter(|&i| !self.swarm.is_in_flight(i)).collect();
                if look.len() == n {
                    Activation::All
                } else {
                    Activation::Subset(look)
                }
            }
            None => self.config.scheduler.activate(ctx.round, n),
        });
        let activated = activation.len(n);
        let recorded_activation = tracing.then(|| activation.clone());
        if self.all_slots.len() < n {
            self.all_slots.extend(self.all_slots.len()..n);
        }
        let (subset, active) = match &activation {
            Activation::All => (None, &self.all_slots[..n]),
            Activation::Subset(active) => (Some(active.as_slice()), active.as_slice()),
        };
        // A robot that looks is parked even when it decides to stay, so
        // skipping a quiet one would change the ASYNC schedule.
        let class = if asynchronous.is_some() { None } else { self.controller.round_class(ctx) };
        let mut quiet = match class {
            Some(class) => {
                assert!(class < 8, "round class {class} is not below 8");
                Some((class, self.quiet.get_or_insert_with(QuietSet::default)))
            }
            None => {
                self.quiet = None;
                None
            }
        };
        let skips = match &mut quiet {
            Some((class, quiet)) => timed(prof, Phase::ActiveList, || {
                quiet.select(&self.swarm, active, *class, &mut self.selected)
            }),
            None => false,
        };
        let (computed_slots, listed) =
            if skips { (&self.selected[..], Some(&self.selected[..])) } else { (active, subset) };
        let computed = timed(prof, Phase::Compute, || {
            self.plans.compute(&self.swarm, &self.controller, listed, ctx, self.config.threads)
        });
        if let Some(p) = prof.as_deref_mut() {
            p.computed = computed_slots.len() as u64;
        }
        if let Some((class, quiet)) = &mut quiet {
            timed(prof, Phase::ActiveList, || {
                quiet.record(&self.swarm, computed_slots, &computed, *class)
            });
        }
        let mut pending: Vec<PendingMove> = Vec::new();
        let (slots, actions) = match asynchronous {
            None => (Cow::Borrowed(computed_slots), computed),
            Some((seed, staleness)) => timed(prof, Phase::Activate, || {
                let mut commit = self.swarm.take_due(ctx.round);
                for (&i, action) in computed_slots.iter().zip(computed) {
                    let d = async_delay(seed, staleness, ctx.round, self.swarm.handles()[i]);
                    if d == 0 {
                        commit.push((i, action));
                        continue;
                    }
                    if tracing {
                        // Pending records keep the zero step: a robot
                        // that decided to stay is still in flight.
                        let step = self.swarm.orients()[i].apply(action.step);
                        pending.push(PendingMove {
                            robot: i as u32,
                            dx: step.x as i8,
                            dy: step.y as i8,
                            delay: d as u32,
                        });
                    }
                    self.swarm.park(i, ctx.round + d, action);
                }
                // A due robot was in flight, so it did not look: the
                // slots are distinct, and sorting them gives the sparse
                // apply its activation order. Both parts are already
                // slot-sorted, and the stable sort merges two sorted runs
                // in linear time.
                commit.sort_by_key(|&(slot, _)| slot);
                let (slots, actions): (Vec<usize>, Vec<_>) = commit.into_iter().unzip();
                (Cow::Owned(slots), actions)
            }),
        };
        let moves = if tracing {
            timed(prof, Phase::Observe, || {
                world_moves(&self.swarm, slots.iter().copied().zip(actions.iter()))
            })
        } else {
            Vec::new()
        };
        let outcome = self.swarm.apply_sparse(&slots, actions, prof.as_deref_mut());
        if let Some((_, quiet)) = quiet {
            let reach = self.controller.radius() + 2;
            timed(prof, Phase::ActiveList, || quiet.invalidate(&self.swarm, reach));
        }
        let stats = RoundStats {
            round: ctx.round,
            merged: outcome.merged,
            moved: outcome.moved,
            population: self.swarm.len(),
            activated,
        };
        let record = recorded_activation.map(|activated| {
            timed(prof, Phase::Observe, || RoundRecord {
                round: ctx.round,
                activated,
                moves,
                pending,
                merged: stats.merged as u32,
                population: stats.population as u32,
                digest: self.swarm.position_digest(),
            })
        });
        (stats, record)
    }

    /// Run until gathered or until `max_rounds` have elapsed.
    pub fn run_until_gathered(&mut self, max_rounds: u64) -> Result<RunOutcome, EngineError> {
        let initial_robots = self.swarm.len();
        while !self.swarm.is_gathered() {
            if self.round >= max_rounds {
                return Err(EngineError::RoundBudgetExhausted { round: self.round });
            }
            self.step()?;
        }
        Ok(RunOutcome {
            rounds: self.round,
            initial_robots,
            final_robots: self.swarm.len(),
            metrics: self.metrics.clone(),
        })
    }
}

/// World-frame moves for an observed round: each `(index, action)` pair
/// whose step (re-expressed through the robot's orientation) is
/// non-zero, in index order.
fn world_moves<'a, S: RobotState>(
    swarm: &Swarm<S>,
    pairs: impl Iterator<Item = (usize, &'a Action<S>)>,
) -> Vec<RobotMove> {
    pairs
        .filter_map(|(i, action)| {
            let step = swarm.orients()[i].apply(action.step);
            (step != V2::ZERO).then_some(RobotMove {
                robot: i as u32,
                dx: step.x as i8,
                dy: step.y as i8,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::{Point, V2};
    use crate::parallel::PARALLEL_THRESHOLD;

    /// Robots that always step toward the origin-ward neighbour — not a
    /// valid distributed strategy (uses the simulator frame), but enough
    /// to exercise the engine loop: a horizontal line collapses east.
    struct MarchEast;
    impl Controller for MarchEast {
        type State = ();
        type Plan = ();
        fn radius(&self) -> i32 {
            2
        }
        fn decide(&self, view: &View<'_, ()>, _ctx: RoundCtx) -> Action<()> {
            // March east unless nobody is there; pendant robots fold in.
            if view.occupied(V2::E) {
                Action { step: V2::E, state: () }
            } else {
                Action::stay(())
            }
        }
    }

    #[test]
    fn line_collapses() {
        let pts: Vec<Point> = (0..8).map(|x| Point::new(x, 0)).collect();
        let mut engine = Engine::from_positions(
            &pts,
            OrientationMode::Aligned,
            MarchEast,
            EngineConfig { connectivity: ConnectivityCheck::Always, ..Default::default() },
        );
        let out = engine.run_until_gathered(100).expect("gathers");
        assert_eq!(out.initial_robots, 8);
        // One merge per round; gathered once the span fits 2×2, with the
        // rightmost pair still alive.
        assert_eq!(out.rounds, 6);
        assert_eq!(out.final_robots, 2);
    }

    #[test]
    fn budget_exhaustion_reported() {
        struct Idle;
        impl Controller for Idle {
            type State = ();
            type Plan = ();
            fn radius(&self) -> i32 {
                1
            }
            fn decide(&self, _v: &View<'_, ()>, _c: RoundCtx) -> Action<()> {
                Action::stay(())
            }
        }
        let pts: Vec<Point> = (0..5).map(|x| Point::new(x, 0)).collect();
        let mut engine =
            Engine::from_positions(&pts, OrientationMode::Aligned, Idle, Default::default());
        let err = engine.run_until_gathered(10).unwrap_err();
        assert_eq!(err, EngineError::RoundBudgetExhausted { round: 10 });
    }

    #[test]
    fn stall_detector_fires() {
        struct Idle;
        impl Controller for Idle {
            type State = ();
            type Plan = ();
            fn radius(&self) -> i32 {
                1
            }
            fn decide(&self, _v: &View<'_, ()>, _c: RoundCtx) -> Action<()> {
                Action::stay(())
            }
        }
        let pts: Vec<Point> = (0..5).map(|x| Point::new(x, 0)).collect();
        let mut engine = Engine::from_positions(
            &pts,
            OrientationMode::Aligned,
            Idle,
            EngineConfig { stall_limit: 3, ..Default::default() },
        );
        let err = engine.run_until_gathered(100).unwrap_err();
        assert!(matches!(err, EngineError::Stalled { streak: 3, .. }), "{err:?}");
    }

    #[test]
    fn ssync_and_round_robin_step_partially_and_reproducibly() {
        // MarchEast is only safe under FSYNC (partial activation tears
        // holes in the line — exactly the effect the scheduler sweep
        // studies), so probe a fixed number of unchecked rounds and
        // demand bit-identical evolution across runs.
        let pts: Vec<Point> = (0..8).map(|x| Point::new(x, 0)).collect();
        for scheduler in [Scheduler::Ssync { seed: 11, p: 50 }, Scheduler::RoundRobin { k: 3 }] {
            let run = || {
                let mut engine = Engine::from_positions(
                    &pts,
                    OrientationMode::Aligned,
                    MarchEast,
                    EngineConfig {
                        connectivity: ConnectivityCheck::Never,
                        scheduler,
                        ..Default::default()
                    },
                );
                for _ in 0..50 {
                    engine.step().expect("unchecked steps cannot fail");
                }
                let positions: Vec<Point> = engine.swarm.positions().to_vec();
                (positions, engine.metrics().total_activations, engine.metrics().total_merged)
            };
            let (a, b) = (run(), run());
            assert_eq!(a, b, "{scheduler:?} evolution not reproducible");
            // Partial activation: strictly less work than 50 FSYNC
            // rounds of the initial population, yet some robots met.
            assert!(a.1 < 50 * 8, "{scheduler:?} activated everyone every round");
            assert!(a.2 > 0, "{scheduler:?} never merged anyone");
        }
    }

    #[test]
    fn fsync_scheduler_is_bit_identical_to_default_across_threads() {
        let pts: Vec<Point> = (0..8).map(|x| Point::new(x, 0)).collect();
        let run = |threads: usize, scheduler: Scheduler| {
            let mut engine = Engine::from_positions(
                &pts,
                OrientationMode::Aligned,
                MarchEast,
                EngineConfig { threads, scheduler, ..Default::default() },
            );
            let out = engine.run_until_gathered(100).expect("gathers");
            (out.rounds, out.final_robots, out.metrics.total_merged)
        };
        let reference = run(1, Scheduler::Fsync);
        assert_eq!(reference.0, 6, "the pre-scheduler engine took 6 rounds on this line");
        for threads in [2usize, 4, 8] {
            assert_eq!(run(threads, Scheduler::Fsync), reference, "threads={threads}");
        }
    }

    #[test]
    fn observer_records_every_round_bit_identically() {
        use std::cell::RefCell;
        use std::rc::Rc;

        let pts: Vec<Point> = (0..8).map(|x| Point::new(x, 0)).collect();
        let run = |threads: usize, scheduler: Scheduler| {
            let rounds: Rc<RefCell<Vec<RoundRecord>>> = Rc::default();
            let mut engine = Engine::from_positions(
                &pts,
                OrientationMode::Scrambled(5),
                MarchEast,
                EngineConfig {
                    threads,
                    scheduler,
                    connectivity: ConnectivityCheck::Never,
                    ..Default::default()
                },
            );
            let sink = rounds.clone();
            engine.set_observer(Box::new(move |rec| sink.borrow_mut().push(rec.clone())));
            for _ in 0..20 {
                engine.step().expect("unchecked steps cannot fail");
            }
            assert_eq!(engine.swarm.position_digest(), rounds.borrow().last().unwrap().digest);
            drop(engine);
            Rc::try_unwrap(rounds).map(RefCell::into_inner).expect("engine dropped its clone")
        };
        for scheduler in [Scheduler::Fsync, Scheduler::Ssync { seed: 9, p: 60 }] {
            let reference = run(1, scheduler);
            assert_eq!(reference.len(), 20);
            for (i, rec) in reference.iter().enumerate() {
                assert_eq!(rec.round, i as u64);
                assert!(rec.moves.windows(2).all(|w| w[0].robot < w[1].robot), "unsorted moves");
                assert!(rec.moves.iter().all(|m| (m.dx, m.dy) != (0, 0)), "zero-step recorded");
            }
            assert_eq!(run(4, scheduler), reference, "{scheduler:?}: records depend on threads");
        }
    }

    #[test]
    fn profiler_never_perturbs_results_and_attributes_round_time() {
        use crate::profile::{ProfileTotals, RoundProfile};
        use std::cell::RefCell;
        use std::rc::Rc;

        let pts: Vec<Point> = (0..2000).map(|x| Point::new(x, 0)).collect();
        let run = |threads: usize, profile: bool| {
            let profiles: Rc<RefCell<Vec<RoundProfile>>> = Rc::default();
            let mut engine = Engine::from_positions(
                &pts,
                OrientationMode::Aligned,
                MarchEast,
                EngineConfig {
                    threads,
                    connectivity: ConnectivityCheck::Never,
                    ..Default::default()
                },
            );
            if profile {
                let sink = profiles.clone();
                engine.set_profiler(Box::new(move |p| sink.borrow_mut().push(p.clone())));
            }
            for _ in 0..10 {
                engine.step().expect("unchecked steps cannot fail");
            }
            let digest = engine.swarm.position_digest();
            drop(engine);
            let profiles =
                Rc::try_unwrap(profiles).map(RefCell::into_inner).expect("engine dropped");
            (digest, engine_len_from(&profiles), profiles)
        };
        fn engine_len_from(profiles: &[RoundProfile]) -> usize {
            profiles.len()
        }
        let mut computed_per_thread_count = Vec::new();
        for threads in [1usize, 4] {
            let (plain_digest, _, profiles_off) = run(threads, false);
            let (profiled_digest, rounds, profiles) = run(threads, true);
            assert!(profiles_off.is_empty(), "profile emitted without a sink");
            assert_eq!(plain_digest, profiled_digest, "profiling perturbed the run");
            assert_eq!(rounds, 10, "one profile per round");
            let mut totals = ProfileTotals::default();
            for (i, p) in profiles.iter().enumerate() {
                assert_eq!(p.round, i as u64);
                assert!(p.phases_total_ns() <= p.wall_ns, "phases exceed wall time");
                totals.add(p);
            }
            // The named phases must explain the overwhelming share of
            // the round wall time (acceptance: ≥90%).
            assert!(
                totals.coverage() >= 0.9,
                "threads={threads}: phase coverage {:.1}% < 90%\n{}",
                totals.coverage() * 100.0,
                totals.render(),
            );
            computed_per_thread_count.push(totals.computed);
        }
        // MarchEast declares no round class, so every robot is computed
        // every round, whatever the thread count.
        assert!(computed_per_thread_count[0] > 0, "no computed robots counted");
        assert!(
            computed_per_thread_count.windows(2).all(|w| w[0] == w[1]),
            "computed counts differ across thread counts: {computed_per_thread_count:?}"
        );
    }

    #[test]
    fn profile_emitted_on_failing_rounds_too() {
        struct Idle;
        impl Controller for Idle {
            type State = ();
            type Plan = ();
            fn radius(&self) -> i32 {
                1
            }
            fn decide(&self, _v: &View<'_, ()>, _c: RoundCtx) -> Action<()> {
                Action::stay(())
            }
        }
        use std::cell::RefCell;
        use std::rc::Rc;
        let pts: Vec<Point> = (0..5).map(|x| Point::new(x, 0)).collect();
        let mut engine = Engine::from_positions(
            &pts,
            OrientationMode::Aligned,
            Idle,
            EngineConfig { stall_limit: 1, ..Default::default() },
        );
        let profiles: Rc<RefCell<Vec<crate::profile::RoundProfile>>> = Rc::default();
        let sink = profiles.clone();
        engine.set_profiler(Box::new(move |p| sink.borrow_mut().push(p.clone())));
        let err = engine.step().unwrap_err();
        assert!(matches!(err, EngineError::Stalled { .. }), "{err:?}");
        assert_eq!(profiles.borrow().len(), 1, "failing round must still emit its profile");
    }

    #[test]
    fn observer_sees_world_frame_moves_and_merges() {
        use std::cell::RefCell;
        use std::rc::Rc;

        // Two aligned robots; MarchEast moves robot 0 east onto robot 1.
        let pts = [Point::new(0, 0), Point::new(1, 0)];
        let rounds: Rc<RefCell<Vec<RoundRecord>>> = Rc::default();
        let mut engine =
            Engine::from_positions(&pts, OrientationMode::Aligned, MarchEast, Default::default());
        let sink = rounds.clone();
        engine.set_observer(Box::new(move |rec| sink.borrow_mut().push(rec.clone())));
        engine.step().unwrap();
        let recs = rounds.borrow();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].activated, Activation::All);
        assert_eq!(recs[0].moves, vec![RobotMove { robot: 0, dx: 1, dy: 0 }]);
        assert_eq!(recs[0].merged, 1);
        assert_eq!(recs[0].population, 1);
    }

    /// Collect the full observer record stream of an ASYNC run over a
    /// fixed number of unchecked rounds.
    fn async_record_stream(
        pts: &[Point],
        threads: usize,
        scheduler: Scheduler,
        rounds: usize,
    ) -> (Vec<RoundRecord>, u64) {
        use std::cell::RefCell;
        use std::rc::Rc;
        let records: Rc<RefCell<Vec<RoundRecord>>> = Rc::default();
        let mut engine = Engine::from_positions(
            pts,
            OrientationMode::Scrambled(5),
            MarchEast,
            EngineConfig {
                threads,
                scheduler,
                connectivity: ConnectivityCheck::Never,
                ..Default::default()
            },
        );
        let sink = records.clone();
        engine.set_observer(Box::new(move |rec| sink.borrow_mut().push(rec.clone())));
        for _ in 0..rounds {
            engine.step().expect("unchecked steps cannot fail");
        }
        let digest = engine.swarm.position_digest();
        drop(engine);
        (Rc::try_unwrap(records).map(RefCell::into_inner).expect("engine dropped"), digest)
    }

    #[test]
    fn async_is_bit_identical_across_threads() {
        // Large enough that most rounds look at more robots than the
        // compute map's parallel threshold, so threads > 1 really split
        // the looks.
        let pts: Vec<Point> = (0..6000).map(|x| Point::new(x, 0)).collect();
        let scheduler = Scheduler::Async { seed: 17, staleness: 3 };
        let reference = async_record_stream(&pts, 1, scheduler, 40);
        assert_eq!(reference.0.len(), 40);
        let parallel_rounds = reference
            .0
            .iter()
            .filter(|r| r.activated.len((r.population + r.merged) as usize) >= PARALLEL_THRESHOLD)
            .count();
        assert!(parallel_rounds >= 20, "only {parallel_rounds} rounds computed in parallel");
        for threads in [2usize, 3, 8] {
            assert_eq!(
                async_record_stream(&pts, threads, scheduler, 40),
                reference,
                "threads={threads}: ASYNC evolution depends on thread count"
            );
        }
    }

    #[test]
    fn async_staleness_zero_degenerates_to_fsync() {
        // With staleness 0 every delay draw is 0, so the ASYNC path is
        // the FSYNC round loop routed through the in-flight machinery —
        // the record streams must be indistinguishable.
        let pts: Vec<Point> = (0..16).map(|x| Point::new(x, 0)).collect();
        let fsync = async_record_stream(&pts, 1, Scheduler::Fsync, 15);
        let degenerate =
            async_record_stream(&pts, 1, Scheduler::Async { seed: 99, staleness: 0 }, 15);
        assert_eq!(degenerate, fsync);
    }

    #[test]
    fn async_decouples_look_from_move() {
        let staleness = 3u32;
        let pts: Vec<Point> = (0..32).map(|x| Point::new(x, 0)).collect();
        let (records, final_digest) =
            async_record_stream(&pts, 1, Scheduler::Async { seed: 7, staleness }, 30);
        assert_eq!(records.last().unwrap().digest, final_digest);
        let mut saw_pending = false;
        let mut saw_stale_commit = false;
        for rec in &records {
            let looked: Vec<u32> = match &rec.activated {
                Activation::All => (0..rec.population + rec.merged).collect(),
                Activation::Subset(s) => s.iter().map(|&i| i as u32).collect(),
            };
            // Parked moves come only from robots that looked this round,
            // with an honest delay; committed moves from robots *not* in
            // the look set are the stale moves falling due.
            for p in &rec.pending {
                saw_pending = true;
                assert!(looked.binary_search(&p.robot).is_ok(), "parked without looking");
                assert!((1..=staleness).contains(&p.delay), "delay {} out of range", p.delay);
            }
            for m in &rec.moves {
                if looked.binary_search(&m.robot).is_err() {
                    saw_stale_commit = true;
                }
                assert!((m.dx, m.dy) != (0, 0), "zero-step committed move recorded");
            }
            assert!(rec.moves.windows(2).all(|w| w[0].robot < w[1].robot), "unsorted moves");
            assert!(rec.pending.windows(2).all(|w| w[0].robot < w[1].robot), "unsorted pending");
        }
        assert!(saw_pending, "staleness 3 never parked a move in 30 rounds");
        assert!(saw_stale_commit, "no move ever committed after its look round");
    }

    #[test]
    fn disconnection_detected() {
        // A strategy that tears the line apart: everyone steps away from
        // their western neighbour.
        struct Flee;
        impl Controller for Flee {
            type State = ();
            type Plan = ();
            fn radius(&self) -> i32 {
                2
            }
            fn decide(&self, view: &View<'_, ()>, _c: RoundCtx) -> Action<()> {
                if view.occupied(V2::W) && view.empty(V2::E) {
                    Action { step: V2::E, state: () }
                } else {
                    Action::stay(())
                }
            }
        }
        let pts = [Point::new(0, 0), Point::new(1, 0), Point::new(3, 0), Point::new(4, 0)];
        // Start disconnected already? No: use a connected pair far apart.
        let pts = [pts[0], pts[1]];
        let mut engine = Engine::from_positions(
            &pts,
            OrientationMode::Aligned,
            Flee,
            EngineConfig { connectivity: ConnectivityCheck::Always, ..Default::default() },
        );
        let err = engine.step().unwrap_err();
        assert!(matches!(err, EngineError::Disconnected { .. }));
    }
}
