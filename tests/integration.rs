//! Cross-crate integration tests: the full pipeline from workload
//! generation through the FSYNC engine to analysis.

use grid_gathering::prelude::*;
use grid_gathering::{analysis, engine::connectivity, viz};

#[test]
fn every_family_gathers_with_connectivity_checked() {
    for f in workloads::all_families() {
        let pts = workloads::family(f, 100, 11);
        let n = pts.len() as u64;
        let mut e = Engine::from_positions(
            &pts,
            OrientationMode::Scrambled(11),
            GatherController::paper(),
            EngineConfig { connectivity: ConnectivityCheck::Always, ..Default::default() },
        );
        let out =
            e.run_until_gathered(500 * n + 10_000).unwrap_or_else(|e| panic!("{}: {e}", f.name()));
        assert!(e.swarm.is_gathered(), "{}", f.name());
        assert!(out.final_robots <= 4);
    }
}

#[test]
fn rounds_grow_linearly_not_quadratically_on_lines() {
    let mut pts = Vec::new();
    for n in [64usize, 128, 256, 512] {
        let mut e = Engine::from_positions(
            &workloads::line(n),
            OrientationMode::Scrambled(1),
            GatherController::paper(),
            EngineConfig::default(),
        );
        let out = e.run_until_gathered(10_000).expect("gathers");
        // E9's Ω(diameter) lower bound: robots move at king speed, so
        // closing a line of diameter n into a 2×2 box takes at least
        // (n − 2)/4 rounds under any strategy.
        assert!(out.rounds >= (n as u64 - 2) / 4, "line {n} beat the lower bound");
        pts.push((n as f64, out.rounds as f64));
    }
    let slope = analysis::loglog_slope(&pts);
    assert!((0.85..=1.15).contains(&slope), "scaling exponent {slope}");
    let lin = analysis::linear_fit(&pts);
    assert!(lin.r2 > 0.999, "linear fit r² = {}", lin.r2);
}

#[test]
fn deterministic_replay_and_thread_independence() {
    let pts = workloads::random_blob(300, 5);
    let run = |threads: usize| -> (u64, Vec<grid_gathering::engine::Point>) {
        let mut e = Engine::from_positions(
            &pts,
            OrientationMode::Scrambled(5),
            GatherController::paper(),
            EngineConfig { threads, ..Default::default() },
        );
        for _ in 0..100 {
            if e.swarm.is_gathered() {
                break;
            }
            e.step().expect("steps");
        }
        let mut ps: Vec<_> = e.swarm.positions().to_vec();
        ps.sort();
        (e.round(), ps)
    };
    let a = run(1);
    let b = run(4);
    let c = run(0);
    assert_eq!(a, b, "thread count changed the trace");
    assert_eq!(a, c);
}

#[test]
fn equivariance_under_global_symmetry() {
    // Transform the world by g and pre-compose every robot frame with
    // g: the trace must be exactly the g-image of the original trace.
    // This is the no-compass property of the distributed algorithm.
    use grid_gathering::engine::{Point, Swarm, D4, V2};
    let pts = workloads::random_blob(120, 9);
    let g = D4 { rot: 1, flip: true };
    let center = Point::new(0, 0);
    let gp = |p: Point| center + g.apply(p - center);

    let mk = |points: &[Point], post: Option<D4>| {
        let mut swarm: Swarm<grid_gathering::core::GatherState> =
            Swarm::new(points, OrientationMode::Scrambled(9));
        if let Some(g) = post {
            for orient in swarm.orients_mut() {
                *orient = orient.then(g);
            }
        }
        Engine::new(swarm, GatherController::paper(), EngineConfig::default())
    };

    let mut plain = mk(&pts, None);
    let tpts: Vec<Point> = pts.iter().map(|&p| gp(p)).collect();
    // Scrambled(9) assigns orientations by index, so the transformed
    // swarm must keep the same per-index orientations composed with g.
    let mut transformed = mk(&tpts, Some(g));

    for round in 0..60 {
        let mut a: Vec<Point> = plain.swarm.positions().iter().map(|&p| gp(p)).collect();
        let mut b: Vec<Point> = transformed.swarm.positions().to_vec();
        a.sort();
        b.sort();
        assert_eq!(a, b, "diverged at round {round}");
        if plain.swarm.is_gathered() {
            break;
        }
        plain.step().expect("plain");
        transformed.step().expect("transformed");
    }
    let _ = V2::ZERO;
}

#[test]
fn baselines_behave_as_documented() {
    let pts = workloads::random_blob(80, 2);
    // The greedy reference always gathers (sequential scheduler).
    AsyncGreedy::new(&pts).run(1_000).expect("greedy gathers");
    // GoToCenter is the paper's foil: a naive grid port of the plane
    // strategy either gathers, stalls, or — as E8 documents — breaks
    // connectivity, which the paper's algorithm never does. We only
    // require the run to terminate one way or another.
    let mut e = Engine::from_positions(
        &pts,
        OrientationMode::Scrambled(2),
        GoToCenter::paper_radius(),
        EngineConfig { connectivity: ConnectivityCheck::Always, ..Default::default() },
    );
    match e.run_until_gathered(20_000) {
        Ok(out) => assert!(out.final_robots <= 4),
        Err(err) => {
            assert!(matches!(
                err,
                grid_gathering::engine::EngineError::Disconnected { .. }
                    | grid_gathering::engine::EngineError::Stalled { .. }
                    | grid_gathering::engine::EngineError::RoundBudgetExhausted { .. }
            ));
        }
    }
}

#[test]
fn robots_never_leave_inflated_bounding_box() {
    let pts = workloads::table(40, 9);
    let start_bounds = grid_gathering::engine::Bounds::of(pts.iter().copied()).unwrap().inflated(4);
    let mut e = Engine::from_positions(
        &pts,
        OrientationMode::Aligned,
        GatherController::paper(),
        EngineConfig::default(),
    );
    for _ in 0..2_000 {
        if e.swarm.is_gathered() {
            break;
        }
        e.step().expect("steps");
        for &p in e.swarm.positions() {
            assert!(start_bounds.contains(p), "{p:?} escaped");
        }
    }
}

#[test]
fn viz_renders_any_stage() {
    let pts = workloads::diamond(5);
    let mut e = Engine::from_positions(
        &pts,
        OrientationMode::Aligned,
        GatherController::paper(),
        EngineConfig::default(),
    );
    e.step().expect("steps");
    let art = viz::ascii_runs(&e.swarm, 1);
    assert_eq!(
        art.matches('o').count() + art.matches('R').count() + art.matches('D').count(),
        e.swarm.len()
    );
    let doc = viz::svg(&e.swarm, 4);
    assert!(doc.contains("<svg"));
    assert!(connectivity::is_connected(&e.swarm));
}
