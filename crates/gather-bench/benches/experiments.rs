//! Criterion benches, one group per measured experiment (the E-numbered
//! tables of the `report` binary).
//! Shapes, not absolute numbers, are the reproduction target; the
//! heavyweight sweeps live in the `report` binary.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gather_bench::{budget_for, run_center, run_paper, run_paper_threads};
use gather_core::{GatherConfig, GatherState};
use gather_workloads::{family, Family};
use grid_engine::{OrientationMode, Point, Swarm, View};

/// E1 — full gathering runs across sizes (the Theorem 1 series).
fn gathering_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("e1_gathering_scaling");
    g.sample_size(10);
    for f in [Family::Line, Family::Square, Family::RandomBlob] {
        for n in [64usize, 256] {
            let cells = family(f, n, 3);
            g.bench_with_input(BenchmarkId::new(f.name(), cells.len()), &cells, |b, cells| {
                b.iter(|| {
                    let m = run_paper(cells, 3, GatherConfig::paper(), budget_for(cells.len()));
                    assert!(m.gathered);
                    m.rounds
                })
            });
        }
    }
    g.finish();
}

/// E2 — merge-pattern detection throughput (the per-robot hot path).
fn merge_detection(c: &mut Criterion) {
    let cells = gather_workloads::random_blob(1024, 7);
    let swarm: Swarm<GatherState> = Swarm::new(&cells, OrientationMode::Scrambled(7));
    let cfg = GatherConfig::paper();
    c.bench_function("e2_merge_detection_1024", |b| {
        b.iter(|| {
            let mut moves = 0usize;
            for i in 0..swarm.len() {
                let view = View::new(&swarm, i, cfg.radius);
                if gather_core::merge_move(&view, &cfg).is_some() {
                    moves += 1;
                }
            }
            moves
        })
    });
}

/// E4 — good-pair convergence on the Fig. 4 plateau.
fn good_pair(c: &mut Criterion) {
    let mut g = c.benchmark_group("e4_good_pair");
    g.sample_size(10);
    for width in [32usize, 128] {
        let cells = gather_workloads::table(width, 9);
        g.bench_with_input(BenchmarkId::from_parameter(width), &cells, |b, cells| {
            b.iter(|| {
                let m = run_paper(cells, 1, GatherConfig::paper(), budget_for(cells.len()));
                assert!(m.gathered);
                m.rounds
            })
        });
    }
    g.finish();
}

/// E7 — constants ablation: the minimum-radius configuration.
fn constant_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("e7_constants");
    g.sample_size(10);
    let cells = gather_workloads::random_blob(256, 5);
    for radius in [11i32, 20] {
        let cfg = GatherConfig { radius, period: 22 };
        g.bench_with_input(BenchmarkId::from_parameter(radius), &cells, |b, cells| {
            b.iter(|| run_paper(cells, 5, cfg, budget_for(cells.len())).rounds)
        });
    }
    g.finish();
}

/// E8 — paper algorithm vs the GoToCenter baseline.
fn baseline_comparison(c: &mut Criterion) {
    let mut g = c.benchmark_group("e8_baseline_comparison");
    g.sample_size(10);
    let cells = gather_workloads::random_blob(256, 3);
    g.bench_function("paper_blob256", |b| {
        b.iter(|| run_paper(&cells, 3, GatherConfig::paper(), budget_for(256)).rounds)
    });
    g.bench_function("go_to_center_blob256", |b| {
        b.iter(|| run_center(&cells, 3, budget_for(256)).rounds)
    });
    g.finish();
}

/// E10 — FSYNC round throughput and thread scaling.
fn round_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("e10_round_throughput");
    g.sample_size(10);
    let cells: Vec<Point> = gather_workloads::random_blob(8192, 11);
    for threads in [1usize, 0] {
        g.bench_with_input(
            BenchmarkId::new("threads", if threads == 0 { 99 } else { threads }),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    // 4 rounds of the big blob per iteration.
                    run_paper_threads(&cells, 11, threads, 4)
                })
            },
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    gathering_scaling,
    merge_detection,
    good_pair,
    constant_sweep,
    baseline_comparison,
    round_throughput
);
criterion_main!(benches);
