//! Property tests on the algorithm's local rules, independent of full
//! gathering runs: every decision is a legal king step, merge rounds
//! strictly reduce the population, single reshapement hops certified by
//! the window check never disconnect when applied alone, the engine's
//! shared plans decide exactly what each robot's standalone replay
//! decides, and every valid pair of constants stays within its viewing
//! radius.

use gather_core::{GatherConfig, GatherController, GatherState};
use grid_engine::connectivity::is_connected;
use grid_engine::{
    Action, ConnectivityCheck, Controller, Engine, EngineConfig, OrientationMode, Point, RoundCtx,
    Scheduler, Swarm, View,
};
use proptest::prelude::*;

fn arb_swarm() -> impl Strategy<Value = (Vec<Point>, u64)> {
    (10usize..100, any::<u64>())
        .prop_map(|(n, seed)| (gather_workloads::random_blob(n, seed), seed))
}

/// [`arb_swarm`]'s blobs plus hollow squares and staircases: thin
/// boundaries where runs start at every corner and travel far.
fn arb_shape() -> impl Strategy<Value = (Vec<Point>, u64)> {
    (0u8..3, arb_swarm(), 3usize..14, 1usize..6).prop_map(|(kind, (blob, seed), k, run)| {
        let pts = match kind {
            0 => blob,
            1 => gather_workloads::hollow_rectangle(k + 2, k + 2, 1),
            _ => gather_workloads::staircase(k, run),
        };
        (pts, seed)
    })
}

/// `C` computing through its single-phase reference
/// [`Controller::decide`]: with `Plan = ()` the engine shares no plans,
/// so every robot replays its neighbours' plans on its own view.
struct Standalone<C>(C);

impl<C: Controller> Controller for Standalone<C> {
    type State = C::State;
    type Plan = ();

    fn radius(&self) -> i32 {
        self.0.radius()
    }

    fn decide(&self, view: &View<'_, C::State>, ctx: RoundCtx) -> Action<C::State> {
        self.0.decide(view, ctx)
    }
}

/// fsync, ssync-p50, rr4, crash-f10 and async-s2, seeded like a campaign.
fn schedulers(seed: u64, n: usize) -> [Scheduler; 5] {
    [
        Scheduler::Fsync,
        Scheduler::Ssync { seed, p: 50 },
        Scheduler::RoundRobin { k: 4 },
        Scheduler::Crash { seed, f: 10, n0: n as u32 },
        Scheduler::Async { seed, staleness: 2 },
    ]
}

/// Run the paper controller through shared plans on each thread count
/// and through standalone `decide` on one thread, for `rounds` rounds (2
/// start periods at 44) or until gathered, asserting the same round
/// statistics, positions, states and digest after every round.
fn assert_shared_plans_match_standalone(
    pts: &[Point],
    seed: u64,
    scheduler: Scheduler,
    threads: &[usize],
    rounds: u64,
) -> Result<(), TestCaseError> {
    let config = |threads| EngineConfig {
        threads,
        scheduler,
        connectivity: ConnectivityCheck::Never,
        ..EngineConfig::default()
    };
    let orientation = OrientationMode::Scrambled(seed);
    let mut reference =
        Engine::from_positions(pts, orientation, Standalone(GatherController::paper()), config(1));
    let mut shared: Vec<Engine<GatherController>> = threads
        .iter()
        .map(|&t| Engine::from_positions(pts, orientation, GatherController::paper(), config(t)))
        .collect();
    for round in 0..rounds {
        if reference.swarm.is_gathered() {
            break;
        }
        let expected = reference.step().expect("unchecked steps cannot fail");
        for (engine, &t) in shared.iter_mut().zip(threads) {
            let got = engine.step().expect("unchecked steps cannot fail");
            let at = format!("{scheduler:?}, threads {t}, round {round}");
            prop_assert_eq!(got, expected, "round stats differ: {}", at);
            prop_assert_eq!(engine.swarm.positions(), reference.swarm.positions(), "{}", at);
            prop_assert_eq!(engine.swarm.states(), reference.swarm.states(), "{}", at);
            prop_assert_eq!(
                engine.swarm.position_digest(),
                reference.swarm.position_digest(),
                "{}",
                at
            );
        }
    }
    Ok(())
}

/// Shared plans on a swarm above the engine's parallel threshold, so
/// the compute map really splits across threads.
#[test]
fn shared_plans_match_standalone_decide_across_threads() {
    let pts = gather_workloads::hollow_rectangle(300, 300, 1);
    assert!(pts.len() >= grid_engine::parallel::PARALLEL_THRESHOLD);
    for scheduler in [Scheduler::Fsync, Scheduler::Async { seed: 3, staleness: 2 }] {
        assert_shared_plans_match_standalone(&pts, 3, scheduler, &[1, 2, 3, 8], 24)
            .unwrap_or_else(|e| panic!("{e}"));
    }
}

/// Run `controller` on `pts` (orientation seed 5) until gathered or
/// `budget` rounds pass: the rounds it took, if it gathered, and the
/// final position digest.
fn run_to_gather<C: Controller>(controller: C, pts: &[Point], budget: u64) -> (Option<u64>, u64) {
    let config = EngineConfig { connectivity: ConnectivityCheck::Never, ..EngineConfig::default() };
    let mut engine = Engine::from_positions(pts, OrientationMode::Scrambled(5), controller, config);
    let rounds = engine.run_until_gathered(budget).ok().map(|out| out.rounds);
    (rounds, engine.swarm.position_digest())
}

/// Experiment E7, the §5 constants: the viewing radius from 8 to 24 at
/// L = 22, L from 8 to 44 at radius 20, and radius 11 with L = 13 (the
/// pair the paper says suffices on a single quasi line), each on a blob
/// and the Fig. 4 plateau, through shared plans and through standalone
/// `decide`. A debug build's `View` asserts that no probe leaves the
/// viewing radius, so every config doubles as a locality check. From
/// radius 10 up every config gathers; radius 8 and 9 stall on the blob,
/// so they run for five start periods.
#[test]
fn constant_sweep_stays_local_and_gathers() {
    let configs = (8..=24)
        .map(|radius| GatherConfig { radius, period: 22 })
        .chain([8, 13, 18, 30, 44].map(|period| GatherConfig { radius: 20, period }))
        .chain([GatherConfig { radius: 11, period: 13 }]);
    let inputs = [gather_workloads::random_blob(128, 5), gather_workloads::table(128, 9)];
    for cfg in configs {
        let controller = GatherController::with_config(cfg).expect("valid config");
        let budget = if cfg.radius >= 10 { 4_000 } else { 5 * cfg.period };
        for pts in &inputs {
            let shared = run_to_gather(controller.clone(), pts, budget);
            let standalone = run_to_gather(Standalone(controller.clone()), pts, budget);
            assert_eq!(shared, standalone, "{cfg:?}: shared plans diverged from decide");
            if cfg.radius >= 10 {
                assert!(shared.0.is_some(), "{cfg:?} did not gather {} robots", pts.len());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    /// Every decision is a king step, for every robot, every round.
    #[test]
    fn decisions_are_legal_steps((pts, seed) in arb_swarm()) {
        let controller = GatherController::paper();
        let swarm: Swarm<GatherState> = Swarm::new(&pts, OrientationMode::Scrambled(seed));
        for i in 0..swarm.len() {
            let view = View::new(&swarm, i, controller.config().radius);
            let a: Action<GatherState> = controller.decide(&view, RoundCtx { round: 0 });
            prop_assert!(a.step.is_step(), "illegal step {:?}", a.step);
            prop_assert!(a.state.run_count() <= GatherState::MAX_RUNS);
        }
    }

    /// One full synchronous round never disconnects (the core safety
    /// property, on arbitrary random swarms and arbitrary clock phase).
    #[test]
    fn one_round_preserves_connectivity((pts, seed) in arb_swarm(), phase in 0u64..44) {
        let controller = GatherController::paper();
        let mut swarm: Swarm<GatherState> = Swarm::new(&pts, OrientationMode::Scrambled(seed));
        let n = swarm.len();
        let actions: Vec<Action<GatherState>> = (0..n)
            .map(|i| {
                let view = View::new(&swarm, i, controller.config().radius);
                controller.decide(&view, RoundCtx { round: phase })
            })
            .collect();
        swarm.apply(actions);
        prop_assert!(is_connected(&swarm), "round at phase {phase} disconnected the swarm");
    }

    /// The merge probe is consistent with the controller: a robot whose
    /// merge_move is Some always moves by exactly that step.
    #[test]
    fn merge_probe_matches_controller((pts, seed) in arb_swarm()) {
        let controller = GatherController::paper();
        let cfg = GatherConfig::paper();
        let swarm: Swarm<GatherState> = Swarm::new(&pts, OrientationMode::Scrambled(seed));
        for i in 0..swarm.len() {
            let view = View::new(&swarm, i, cfg.radius);
            if let Some(step) = gather_core::merge_move(&view, &cfg) {
                let a = controller.decide(&view, RoundCtx { round: 1 });
                prop_assert_eq!(a.step, step);
                prop_assert_eq!(a.state.run_count(), 0, "cond. 3: runs die on merge");
            }
        }
    }

    /// The engine's two-phase compute (each robot's runner plan
    /// evaluated once and shared) decides exactly what each robot's
    /// standalone replay decides, under every scheduler kind and thread
    /// count, with scrambled orientations.
    #[test]
    fn shared_plans_match_standalone_decide((pts, seed) in arb_shape()) {
        for scheduler in schedulers(seed, pts.len()) {
            assert_shared_plans_match_standalone(&pts, seed, scheduler, &[1, 2, 3, 8], 44)?;
        }
    }

    /// Boundary analysis smoke: the outer chain touches every extreme
    /// robot of the swarm, and leg statistics are internally coherent.
    #[test]
    fn boundary_walk_covers_extremes((pts, _seed) in arb_swarm()) {
        let swarm: Swarm<GatherState> = Swarm::new(&pts, OrientationMode::Aligned);
        let chain = gather_core::boundary::outer_chain(&swarm);
        let b = swarm.bounds();
        // The bottom-most/left-most robot starts the walk; the chain
        // must also visit some robot on each of the four extreme rows
        // and columns.
        prop_assert!(chain.iter().any(|p| p.y == b.min.y));
        prop_assert!(chain.iter().any(|p| p.y == b.max.y));
        prop_assert!(chain.iter().any(|p| p.x == b.min.x));
        prop_assert!(chain.iter().any(|p| p.x == b.max.x));
        let stats = gather_core::boundary::boundary_stats(&swarm);
        prop_assert!(stats.quasi_segments + stats.stairs + stats.bumps <= stats.legs);
    }
}
