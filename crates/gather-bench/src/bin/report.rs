//! Regenerate every experiment table (E1–E10).
//!
//! Usage: `report [e1|e2|...|e10|all] [--quick]`
//!
//! `--quick` shrinks the sweeps (used in CI). Everything is seeded, so
//! re-runs are bit-identical.

use gather_analysis::{linear_fit, loglog_slope, quadratic_fit, render_markdown, Table};
use gather_bench::{budget_for, run_center, run_greedy, run_paper};
use gather_core::boundary::{boundary_stats, is_mergeless};
use gather_core::{GatherConfig, GatherController, GatherState};
use gather_workloads::{all_families, family, Family};
use grid_engine::{ConnectivityCheck, Engine, EngineConfig, OrientationMode, Swarm};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let which: Vec<&str> = args.iter().filter(|a| *a != "--quick").map(|s| s.as_str()).collect();
    let all = which.is_empty() || which.contains(&"all");
    let want = |id: &str| all || which.contains(&id);

    if want("e1") {
        e1_scaling(quick);
    }
    if want("e2") {
        e2_merges();
    }
    if want("e3") {
        e3_runs();
    }
    if want("e4") {
        e4_good_pair(quick);
    }
    if want("e5") {
        e5_pipelining(quick);
    }
    if want("e6") {
        e6_mergeless();
    }
    if want("e7") {
        e7_constants(quick);
    }
    if want("e8") {
        e8_baselines(quick);
    }
    if want("e9") {
        e9_lower_bound(quick);
    }
    if want("e10") {
        e10_throughput(quick);
    }
}

/// E1 — Theorem 1: rounds(n) is Θ(n) on every family.
fn e1_scaling(quick: bool) {
    let sizes: &[usize] = if quick { &[64, 128, 256] } else { &[64, 128, 256, 512, 1024, 2048] };
    let mut t = Table::new(
        "E1 — Theorem 1: rounds until gathering (paper constants)",
        &["family", "series (n -> rounds)", "rounds/n slope", "log-log exp", "lin r²", "quad r²"],
    );
    for f in all_families() {
        let mut pts = Vec::new();
        let mut series = String::new();
        for &n in sizes {
            if f == Family::HollowSquare && n > 512 {
                continue; // known stall, see ROADMAP.md's Theorem 1 item
            }
            let cells = family(f, n, 3);
            let m = run_paper(&cells, 3, GatherConfig::paper(), budget_for(cells.len()));
            assert!(m.gathered, "{} n={} did not gather", f.name(), n);
            pts.push((m.n as f64, m.rounds as f64));
            series.push_str(&format!("{}→{} ", m.n, m.rounds));
        }
        let lin = linear_fit(&pts);
        let quad = quadratic_fit(&pts);
        t.push(vec![
            f.name().into(),
            series.trim().into(),
            format!("{:.3}", lin.coefficient),
            format!("{:.2}", loglog_slope(&pts)),
            format!("{:.4}", lin.r2),
            format!("{:.4}", quad.r2),
        ]);
    }
    println!("{}", render_markdown(&t));
}

/// E2 — Fig. 2/3: merge operations on constructed fixtures.
fn e2_merges() {
    use grid_engine::{Point, View, V2};
    /// One merge fixture: name, cells, probed robot, expected move.
    type Fixture = (&'static str, Vec<(i32, i32)>, (i32, i32), Option<V2>);
    let cfg = GatherConfig::paper();
    let fixtures: Vec<Fixture> = vec![
        ("k=1 pendant", vec![(0, 0), (1, 0), (2, 0)], (0, 0), Some(V2::E)),
        (
            "k=2 bump",
            vec![(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (1, 1), (2, 1)],
            (1, 1),
            Some(V2::S),
        ),
        ("apex", vec![(0, 0), (1, 0), (2, 0), (1, 1)], (1, 1), Some(V2::S)),
        (
            "stable interior",
            vec![(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1), (0, 2), (1, 2), (2, 2)],
            (1, 1),
            None,
        ),
    ];
    let mut t = Table::new(
        "E2 — merge operations (Fig. 2/3)",
        &["fixture", "robot", "expected", "measured", "ok"],
    );
    for (name, cells, probe, expected) in fixtures {
        let pts: Vec<Point> = cells.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let swarm: Swarm<GatherState> = Swarm::new(&pts, OrientationMode::Aligned);
        let i = swarm.robot_at(Point::new(probe.0, probe.1)).unwrap();
        let view = View::new(&swarm, i, cfg.radius);
        let got = gather_core::merge_move(&view, &cfg);
        t.push(vec![
            name.into(),
            format!("{probe:?}"),
            format!("{expected:?}"),
            format!("{got:?}"),
            (got == expected).to_string(),
        ]);
    }
    println!("{}", render_markdown(&t));
}

/// E3 — Fig. 7/8: run starts and reshapement on the Fig. 4 plateau.
fn e3_runs() {
    let mut cells: Vec<grid_engine::Point> =
        (0..24).map(|x| grid_engine::Point::new(x, 0)).collect();
    for y in 1..=9 {
        cells.push(grid_engine::Point::new(0, -y));
        cells.push(grid_engine::Point::new(23, -y));
    }
    let mut engine = Engine::from_positions(
        &cells,
        OrientationMode::Aligned,
        GatherController::paper(),
        EngineConfig {
            connectivity: ConnectivityCheck::Always,
            keep_history: true,
            ..Default::default()
        },
    );
    let mut t = Table::new(
        "E3 — runner life cycle on the Fig. 4 plateau",
        &["round", "population", "run states", "note"],
    );
    for round in 0..46u64 {
        let runs: usize = engine.swarm.states().iter().map(|s| s.run_count()).sum();
        let note = match round {
            0 => "start wave (Fig. 7)",
            1..=21 => "OP-A reshapement (Fig. 8a)",
            22 => "second start wave (pipelining)",
            _ => "",
        };
        if round % 4 == 0 || round == 1 || round == 22 {
            t.push(vec![
                round.to_string(),
                engine.swarm.len().to_string(),
                runs.to_string(),
                note.into(),
            ]);
        }
        engine.step().expect("connected");
    }
    println!("{}", render_markdown(&t));
}

/// E4 — Fig. 13/14: a good pair on a plateau of width m meets and the
/// swarm gathers in O(m).
fn e4_good_pair(quick: bool) {
    let widths: &[usize] = if quick { &[16, 32, 64] } else { &[16, 32, 64, 128, 256, 512] };
    let mut t = Table::new(
        "E4 — good pairs shorten quasi lines (Fig. 13/14)",
        &["plateau width", "n", "rounds", "rounds/width"],
    );
    let mut pts = Vec::new();
    for &w in widths {
        let cells = gather_workloads::table(w, 9);
        let m = run_paper(&cells, 1, GatherConfig::paper(), budget_for(cells.len()));
        assert!(m.gathered, "plateau {w} did not gather");
        pts.push((w as f64, m.rounds as f64));
        t.push(vec![
            w.to_string(),
            m.n.to_string(),
            m.rounds.to_string(),
            format!("{:.2}", m.rounds as f64 / w as f64),
        ]);
    }
    println!("{}", render_markdown(&t));
    println!(
        "good-pair log-log exponent: {:.2} (1.0 = linear in the quasi-line length)\n",
        loglog_slope(&pts)
    );
}

/// E5 — Fig. 15: pipelining sustains a steady merge rate on long lines.
fn e5_pipelining(quick: bool) {
    let sizes: &[usize] = if quick { &[256, 512] } else { &[256, 512, 1024, 2048] };
    let mut t = Table::new(
        "E5 — pipelining: steady-state merge throughput (Fig. 15)",
        &["n (line)", "rounds", "merges", "rounds per merge", "longest mergeless streak"],
    );
    for &n in sizes {
        let cells = gather_workloads::line(n);
        let controller = GatherController::paper();
        let mut engine = Engine::from_positions(
            &cells,
            OrientationMode::Scrambled(1),
            controller,
            EngineConfig { keep_history: true, ..Default::default() },
        );
        let out = engine.run_until_gathered(budget_for(n)).expect("gathers");
        t.push(vec![
            n.to_string(),
            out.rounds.to_string(),
            out.metrics.total_merged.to_string(),
            format!("{:.2}", out.rounds as f64 / out.metrics.total_merged.max(1) as f64),
            out.metrics.longest_mergeless_streak.to_string(),
        ]);
    }
    println!("{}", render_markdown(&t));
}

/// E6 — Lemma 1: mergeless swarms decompose into quasi lines and
/// stairways (no bumps on the outer boundary).
fn e6_mergeless() {
    let cfg = GatherConfig::paper();
    let shapes: Vec<(&str, Vec<grid_engine::Point>)> = vec![
        ("square 16", gather_workloads::square(16)),
        ("square 24", gather_workloads::square(24)),
        ("thick ring 20/2", gather_workloads::hollow_rectangle(20, 20, 2)),
        ("rect 30x12", gather_workloads::rectangle(30, 12)),
        ("diamond 8 (not mergeless)", gather_workloads::diamond(8)),
        ("blob 400 (not mergeless)", gather_workloads::random_blob(400, 9)),
    ];
    let mut t = Table::new(
        "E6 — Lemma 1: boundary decomposition of mergeless swarms",
        &["shape", "mergeless", "legs", "quasi segments", "stairs", "bumps"],
    );
    for (name, cells) in shapes {
        let swarm: Swarm<GatherState> = Swarm::new(&cells, OrientationMode::Aligned);
        let stats = boundary_stats(&swarm);
        let ml = is_mergeless(&swarm, &cfg);
        t.push(vec![
            name.into(),
            ml.to_string(),
            stats.legs.to_string(),
            stats.quasi_segments.to_string(),
            stats.stairs.to_string(),
            stats.bumps.to_string(),
        ]);
        if ml {
            assert_eq!(stats.bumps, 0, "{name}: mergeless swarm with a bump");
        }
    }
    println!("{}", render_markdown(&t));
}

/// E7 — §5 constants: viewing radius and L sweeps.
fn e7_constants(quick: bool) {
    let radii: &[i32] = if quick { &[11, 14, 20] } else { &[8, 11, 14, 17, 20, 24] };
    let periods: &[u64] = if quick { &[13, 22] } else { &[8, 13, 18, 22, 30, 44] };
    let n = if quick { 128 } else { 256 };

    let mut t = Table::new(
        "E7a — viewing radius sweep (L = 22)",
        &["radius", "k_max", "gathered", "rounds (blob)", "rounds (table)"],
    );
    for &radius in radii {
        let cfg = GatherConfig { radius, period: 22 };
        if cfg.validate().is_err() {
            continue;
        }
        let blob = run_paper(&gather_workloads::random_blob(n, 5), 5, cfg, budget_for(n));
        let table = run_paper(&gather_workloads::table(n, 9), 5, cfg, budget_for(n));
        t.push(vec![
            radius.to_string(),
            cfg.k_max().to_string(),
            (blob.gathered && table.gathered).to_string(),
            blob.rounds.to_string(),
            table.rounds.to_string(),
        ]);
    }
    println!("{}", render_markdown(&t));

    let mut t = Table::new(
        "E7b — run-start period L sweep (radius = 20)",
        &["L", "gathered", "rounds (blob)", "rounds (table)"],
    );
    for &period in periods {
        let cfg = GatherConfig { radius: 20, period };
        let blob = run_paper(&gather_workloads::random_blob(n, 5), 5, cfg, budget_for(n));
        let table = run_paper(&gather_workloads::table(n, 9), 5, cfg, budget_for(n));
        t.push(vec![
            period.to_string(),
            (blob.gathered && table.gathered).to_string(),
            blob.rounds.to_string(),
            table.rounds.to_string(),
        ]);
    }
    println!("{}", render_markdown(&t));
}

/// E8 — comparison against the baselines.
fn e8_baselines(quick: bool) {
    let sizes: &[usize] = if quick { &[64, 128, 256] } else { &[64, 128, 256, 512, 1024] };
    for f in [Family::Line, Family::RandomBlob, Family::Square] {
        let mut t = Table::new(
            format!("E8 — paper vs baselines on {}", f.name()),
            &["n", "paper rounds", "GoToCenter rounds", "greedy passes"],
        );
        let mut ours = Vec::new();
        let mut theirs = Vec::new();
        for &n in sizes {
            let cells = family(f, n, 3);
            let nn = cells.len();
            let paper = run_paper(&cells, 3, GatherConfig::paper(), budget_for(nn));
            let center = run_center(&cells, 3, budget_for(nn));
            let greedy = run_greedy(&cells, 10_000);
            ours.push((nn as f64, paper.rounds as f64));
            theirs.push((nn as f64, center.rounds as f64));
            let center_note = if !center.connected {
                " (disconnected!)"
            } else if !center.gathered {
                " (stalled)"
            } else {
                ""
            };
            t.push(vec![
                nn.to_string(),
                format!("{}{}", paper.rounds, if paper.gathered { "" } else { " (stalled)" }),
                format!("{}{}", center.rounds, center_note),
                format!("{}{}", greedy.rounds, if greedy.gathered { "" } else { " (stalled)" }),
            ]);
        }
        println!("{}", render_markdown(&t));
        println!(
            "scaling exponents on {}: paper {:.2}, GoToCenter {:.2}\n",
            f.name(),
            loglog_slope(&ours),
            loglog_slope(&theirs)
        );
    }
}

/// E9 — the Ω(diameter) lower bound: measured rounds vs diameter on
/// lines, for every strategy.
fn e9_lower_bound(quick: bool) {
    let sizes: &[usize] = if quick { &[64, 256] } else { &[64, 256, 1024] };
    let mut t = Table::new(
        "E9 — lower bound: any strategy needs Ω(diameter) rounds",
        &["diameter (line n)", "lower bound (diam-2)/4", "paper rounds", "ratio to bound"],
    );
    for &n in sizes {
        let cells = gather_workloads::line(n);
        let m = run_paper(&cells, 1, GatherConfig::paper(), budget_for(n));
        // Robots move at king speed 1, so joining the two ends of a
        // diameter-d swarm into a 2x2 box needs at least (d-2)/4 rounds
        // (both ends move toward each other at speed <= 1 each... the
        // bound below is the conservative closed form).
        let bound = ((n as u64).saturating_sub(2)) / 4;
        assert!(m.rounds >= bound, "beat the lower bound?!");
        t.push(vec![
            n.to_string(),
            bound.to_string(),
            m.rounds.to_string(),
            format!("{:.2}", m.rounds as f64 / bound.max(1) as f64),
        ]);
    }
    println!("{}", render_markdown(&t));
}

/// E10 — FSYNC substrate: per-round cost and parallel speedup.
fn e10_throughput(quick: bool) {
    let n = if quick { 4_096 } else { 16_384 };
    let cells = gather_workloads::random_blob(n, 11);
    let rounds = if quick { 40 } else { 100 };
    let mut t = Table::new(
        "E10 — FSYNC round throughput (random blob)",
        &["threads", "rounds timed", "total time", "robot-rounds/s"],
    );
    for threads in [1usize, 2, 4, 0] {
        let mut engine = Engine::from_positions(
            &cells,
            OrientationMode::Scrambled(1),
            GatherController::paper(),
            EngineConfig { threads, connectivity: ConnectivityCheck::Never, ..Default::default() },
        );
        let start = Instant::now();
        let mut robot_rounds = 0u64;
        for _ in 0..rounds {
            robot_rounds += engine.swarm.len() as u64;
            engine.step().expect("steps");
        }
        let dt = start.elapsed();
        let label = if threads == 0 { "auto".to_string() } else { threads.to_string() };
        t.push(vec![
            label,
            rounds.to_string(),
            format!("{:.1?}", dt),
            format!("{:.2e}", robot_rounds as f64 / dt.as_secs_f64()),
        ]);
    }
    println!("{}", render_markdown(&t));
}
