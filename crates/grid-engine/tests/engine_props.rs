//! Property tests on the substrate: simultaneous-move semantics, the
//! occupancy index (tiled vs. dense equivalence), view/frame coherence
//! under random actions, and bit-identity of the engine's sparse
//! round-apply with the dense oracle under partial and full activation.

use grid_engine::grid::OccupancyGrid;
use grid_engine::parallel::PARALLEL_THRESHOLD;
use grid_engine::tile::TileIndex;
use grid_engine::*;
use proptest::prelude::*;
use std::collections::BTreeSet;

fn arb_positions() -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::btree_set((0i32..12, 0i32..12), 1..40)
        .prop_map(|set| set.into_iter().map(|(x, y)| Point::new(x, y)).collect())
}

fn arb_steps(n: usize) -> impl Strategy<Value = Vec<(i8, i8)>> {
    proptest::collection::vec((-1i8..=1, -1i8..=1), n..=n)
}

/// A sparse round as the dense oracle's input: `(slot, action)` pairs
/// scattered into a full `Option` vector over `n` slots.
fn scatter(n: usize, round: &[(usize, Action<()>)]) -> Vec<Option<Action<()>>> {
    let mut all: Vec<Option<Action<()>>> = (0..n).map(|_| None).collect();
    for (i, action) in round {
        all[*i] = Some(action.clone());
    }
    all
}

proptest! {
    /// Robot count is conserved: survivors + merged == before, and the
    /// occupancy index agrees with the robot list after any round.
    #[test]
    fn apply_conserves_and_indexes((pts, steps) in arb_positions().prop_flat_map(|p| {
        let n = p.len();
        (Just(p), arb_steps(n))
    })) {
        let mut swarm: Swarm<()> = Swarm::new(&pts, OrientationMode::Aligned);
        let before = swarm.len();
        let actions: Vec<Action<()>> = steps
            .iter()
            .map(|&(dx, dy)| Action { step: V2::new(dx as i32, dy as i32), state: () })
            .collect();
        let out = swarm.apply(actions);
        prop_assert_eq!(swarm.len() + out.merged, before);
        // Index coherence: every robot is where the grid says it is,
        // and positions are unique.
        let mut seen = BTreeSet::new();
        for (i, &p) in swarm.positions().iter().enumerate() {
            prop_assert_eq!(swarm.robot_at(p), Some(i));
            prop_assert!(seen.insert(p), "duplicate survivor cell");
        }
    }

    /// Views are frame-coherent: for any robot orientation, a probe at
    /// offset v sees exactly the world cell center + orient(v).
    #[test]
    fn view_frame_coherence(pts in arb_positions(), seed in any::<u64>()) {
        let swarm: Swarm<()> = Swarm::new(&pts, OrientationMode::Scrambled(seed));
        for i in 0..swarm.len().min(8) {
            let view = View::new(&swarm, i, 6);
            let me = swarm.positions()[i];
            let o = swarm.orients()[i];
            for dx in -3i32..=3 {
                for dy in -3i32..=3 {
                    let v = V2::new(dx, dy);
                    if v.l1() > 6 { continue; }
                    let world = me + o.apply(v);
                    prop_assert_eq!(view.occupied(v), swarm.occupied(world));
                }
            }
        }
    }

    /// The tiled occupancy index is observationally equivalent to the
    /// dense reference grid on random set/clear/get sequences — the
    /// dense grid is the pre-refactor oracle, kept for exactly this.
    /// Coordinates straddle tile borders (negative and positive) so
    /// tile keying and tile reclamation both fire.
    #[test]
    fn tiled_index_matches_dense_reference(
        ops in proptest::collection::vec((0u8..3, -70i32..70, -70i32..70, 0u32..8), 1..200)
    ) {
        let span = Bounds::of([Point::new(-70, -70), Point::new(70, 70)]).unwrap();
        let mut dense = OccupancyGrid::covering(span, 2);
        let mut tiled = TileIndex::new();
        let mut occupied: BTreeSet<Point> = BTreeSet::new();
        for (op, x, y, id) in ops {
            let p = Point::new(x, y);
            match op {
                0 => {
                    prop_assert_eq!(tiled.set(p, id), dense.set(p, id), "set {:?}", p);
                    occupied.insert(p);
                }
                1 => {
                    prop_assert_eq!(tiled.clear(p), dense.clear(p), "clear {:?}", p);
                    occupied.remove(&p);
                }
                _ => prop_assert_eq!(tiled.get(p), dense.get(p), "get {:?}", p),
            }
            // Tile-extreme bounds agree with a brute-force rescan.
            prop_assert_eq!(tiled.bounds(), Bounds::of(occupied.iter().copied()));
        }
        // Memory stays proportional to live tiles: coordinates in
        // -70..70 span at most 4x4 tile keys.
        prop_assert!(tiled.tile_count() <= 16);
    }

    /// The sparse round-apply is bit-identical to the dense oracle on a
    /// round activating ~3/4 of the robots: same survivor positions,
    /// digest, merge and move counts, and a coherent index.
    #[test]
    fn sharded_apply_is_bit_identical_across_threads(
        (pts, steps, active_mask, seed) in arb_positions().prop_flat_map(|p| {
            let n = p.len();
            (Just(p), arb_steps(n), proptest::collection::vec(0u8..4, n..=n), any::<u64>())
        })
    ) {
        // Inactive robots exercise the stationary-wins rule.
        let round: Vec<(usize, Action<()>)> = steps
            .iter()
            .zip(&active_mask)
            .enumerate()
            .filter(|&(_, (_, &a))| a != 0)
            .map(|(i, (&(dx, dy), _))| {
                (i, Action { step: V2::new(dx as i32, dy as i32), state: () })
            })
            .collect();
        let mut reference: Swarm<()> = Swarm::new(&pts, OrientationMode::Scrambled(seed));
        let ref_out = reference.apply_partial(scatter(reference.len(), &round));
        let mut sparse: Swarm<()> = Swarm::new(&pts, OrientationMode::Scrambled(seed));
        let (active, actions): (Vec<usize>, Vec<Action<()>>) = round.into_iter().unzip();
        let out = sparse.apply_sparse(&active, actions, None);
        prop_assert_eq!(out, ref_out, "outcome");
        prop_assert_eq!(sparse.position_digest(), reference.position_digest(), "digest");
        prop_assert_eq!(sparse.positions(), reference.positions(), "positions");
        for (i, &p) in sparse.positions().iter().enumerate() {
            prop_assert_eq!(sparse.robot_at(p), Some(i), "index");
        }
    }

    /// The sparse O(active) apply is bit-identical to the dense partial
    /// apply — same outcome, survivor order, digest and index — over
    /// consecutive rounds, so compactions and handle retirement
    /// interleave with the sparse incumbent probes. Rounds 0–3 activate
    /// about half the robots; rounds 4–7 activate all of them, the FSYNC
    /// round the engine sends through the same path.
    #[test]
    fn sparse_apply_is_bit_identical_to_dense(
        (pts, seed) in (arb_positions(), any::<u64>())
    ) {
        let round_plan = |round: u64, n: usize| -> Vec<(usize, Action<()>)> {
            (0..n)
                .filter_map(|i| {
                    let h = splitmix64(seed ^ round.wrapping_mul(31) ^ (i as u64).wrapping_mul(0x9e37_79b9));
                    // Random king steps (zero steps included: active
                    // stayers are the incumbent-classification edge case).
                    (h & 1 == 0 || round >= 4).then(|| {
                        let dx = ((h >> 1) % 3) as i32 - 1;
                        let dy = ((h >> 3) % 3) as i32 - 1;
                        (i, Action { step: V2::new(dx, dy), state: () })
                    })
                })
                .collect()
        };
        let mut dense: Swarm<()> = Swarm::new(&pts, OrientationMode::Scrambled(seed));
        let mut sparse: Swarm<()> = Swarm::new(&pts, OrientationMode::Scrambled(seed));
        for round in 0..8u64 {
            let plan = round_plan(round, dense.len());
            let dense_out = dense.apply_partial(scatter(dense.len(), &plan));
            let (active, actions): (Vec<usize>, Vec<Action<()>>) =
                round_plan(round, sparse.len()).into_iter().unzip();
            let out = sparse.apply_sparse(&active, actions, None);
            prop_assert_eq!(
                (out, sparse.position_digest()),
                (dense_out, dense.position_digest()),
                "round {}", round
            );
        }
        prop_assert_eq!(sparse.positions(), dense.positions());
        for (i, &p) in sparse.positions().iter().enumerate() {
            prop_assert_eq!(sparse.robot_at(p), Some(i), "index");
        }
    }

    /// Stationary rounds are perfect no-ops.
    #[test]
    fn stay_round_is_identity(pts in arb_positions()) {
        let mut swarm: Swarm<()> = Swarm::new(&pts, OrientationMode::Aligned);
        let before: Vec<Point> = swarm.positions().to_vec();
        let n = swarm.len();
        let out = swarm.apply((0..n).map(|_| Action::stay(())).collect());
        prop_assert_eq!(out.merged, 0);
        prop_assert_eq!(out.moved, 0);
        let after: Vec<Point> = swarm.positions().to_vec();
        prop_assert_eq!(before, after);
    }
}

/// Every engine round must be explainable by the dense oracle:
/// scattering each round's *committed* world-frame moves into a full
/// `Option` vector and pushing it through the dense partial apply
/// reproduces the engine's per-round digests and populations. FSYNC,
/// SSYNC and ASYNC cover every activation kind of the engine's round
/// (all robots, a subset, ASYNC looks), each at several thread counts
/// with the compute map running in parallel, so the sparse apply and
/// the dense reference stay bit-identical under full activation,
/// partial activation and staleness.
#[test]
fn async_engine_rounds_match_dense_oracle_across_threads() {
    use std::cell::RefCell;
    use std::rc::Rc;
    struct MarchEast;
    impl Controller for MarchEast {
        type State = ();
        type Plan = ();
        fn radius(&self) -> i32 {
            2
        }
        fn decide(&self, view: &View<'_, ()>, _ctx: RoundCtx) -> Action<()> {
            if view.occupied(V2::E) {
                Action { step: V2::E, state: () }
            } else {
                Action::stay(())
            }
        }
    }
    // Large enough that every arm computes more robots than the compute
    // map's parallel threshold in most rounds (asserted below).
    let pts: Vec<Point> = (0..6000).map(|x| Point::new(x, 0)).collect();
    let schedulers = [
        Scheduler::Async { seed: 23, staleness: 4 },
        Scheduler::Fsync,
        Scheduler::Ssync { seed: 23, p: 50 },
    ];
    for scheduler in schedulers {
        for threads in [1usize, 2, 3, 8] {
            let records: Rc<RefCell<Vec<RoundRecord>>> = Rc::default();
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
            let sink = records.clone();
            engine.set_observer(Box::new(move |rec| sink.borrow_mut().push(rec.clone())));
            for _ in 0..40 {
                engine.step().expect("unchecked steps cannot fail");
            }
            drop(engine);
            let mut oracle: Swarm<()> = Swarm::new(&pts, OrientationMode::Aligned);
            let mut merged = 0u32;
            for rec in records.borrow().iter() {
                let mut all: Vec<Option<Action<()>>> = (0..oracle.len()).map(|_| None).collect();
                for m in &rec.moves {
                    all[m.robot as usize] =
                        Some(Action { step: V2::new(m.dx.into(), m.dy.into()), state: () });
                }
                oracle.apply_partial(all);
                merged += rec.merged;
                assert_eq!(
                    (oracle.position_digest(), oracle.len() as u32),
                    (rec.digest, rec.population),
                    "{scheduler:?}: round {} diverged from the dense oracle, threads={threads}",
                    rec.round,
                );
            }
            assert!(merged > 0, "{scheduler:?}: 40 rounds never merged anyone");
            let parallel_rounds = records
                .borrow()
                .iter()
                .filter(|r| {
                    r.activated.len((r.population + r.merged) as usize) >= PARALLEL_THRESHOLD
                })
                .count();
            assert!(
                parallel_rounds >= 20,
                "{scheduler:?}: only {parallel_rounds} rounds computed in parallel"
            );
        }
    }
}

/// A merge-heavy run at n = 2048 (six rounds, a quarter of the robots
/// inactive each round): the sparse apply matches the dense oracle
/// round by round, at a size above the compute map's parallel
/// threshold.
#[test]
fn large_swarm_apply_threads_is_bit_identical() {
    let n = 2048usize;
    let pts: Vec<Point> = (0..n as i32).map(|x| Point::new(x, 0)).collect();
    let round_actions = |round: u64, len: usize| -> Vec<(usize, Action<()>)> {
        (0..len)
            .filter_map(|i| {
                let h = splitmix64(round ^ (i as u64).wrapping_mul(0x9e37_79b9));
                let step = match h % 4 {
                    0 => V2::E,
                    1 => V2::W,
                    2 => V2::ZERO,
                    _ => return None,
                };
                Some((i, Action { step, state: () }))
            })
            .collect()
    };
    let mut dense: Swarm<()> = Swarm::new(&pts, OrientationMode::Aligned);
    let mut sparse: Swarm<()> = Swarm::new(&pts, OrientationMode::Aligned);
    let mut merged = 0usize;
    for round in 0..6u64 {
        let dense_out =
            dense.apply_partial(scatter(dense.len(), &round_actions(round, dense.len())));
        let (active, actions): (Vec<usize>, Vec<Action<()>>) =
            round_actions(round, sparse.len()).into_iter().unzip();
        let out = sparse.apply_sparse(&active, actions, None);
        assert_eq!(out, dense_out, "round {round}");
        assert_eq!(sparse.position_digest(), dense.position_digest(), "round {round}");
        merged += out.merged;
    }
    assert!(merged > 0, "rounds must actually merge robots");
    assert_eq!(sparse.positions(), dense.positions());
}
