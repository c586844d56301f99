//! Large-scale stress (run in release: `cargo test --release -- --ignored`).
use gather_core::GatherController;
use gather_workloads::{all_families, family};
use grid_engine::{ConnectivityCheck, Engine, EngineConfig, OrientationMode};

#[test]
#[ignore]
fn all_families_gather_large() {
    for f in all_families() {
        for n in [512usize, 2048] {
            // Known limitation (ROADMAP.md, Theorem 1 item): very large
            // 1-thick rings develop all-tied mesa junctions and stall;
            // the hollow family is validated up to ~500 robots.
            if f == gather_workloads::Family::HollowSquare && n > 512 {
                continue;
            }
            let pts = family(f, n, 3);
            let count = pts.len() as u64;
            let mut e = Engine::from_positions(
                &pts,
                OrientationMode::Scrambled(3),
                GatherController::paper(),
                EngineConfig {
                    connectivity: ConnectivityCheck::Every(16),
                    stall_limit: 50_000,
                    ..Default::default()
                },
            );
            match e.run_until_gathered(500 * count + 20_000) {
                Ok(out) => eprintln!(
                    "{:>13} n={:<5} rounds={:<7} ({:.2} r/robot)",
                    f.name(),
                    count,
                    out.rounds,
                    out.rounds as f64 / count as f64
                ),
                Err(err) => panic!("{} n={}: {err}", f.name(), count),
            }
        }
    }
}
