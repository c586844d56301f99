//! The FSYNC workloads, stepped through the engine directly.
//!
//! * `fsync-gather` — Theorem 1 as time-to-solution: the paper
//!   controller gathers a line, a square and a random blob of 4096
//!   robots and a 512-robot hollow square, on one engine thread, each
//!   run until gathered.
//! * `scale-fsync` — clusters of 2×10⁵ robots on every core: one
//!   untimed start period of warm-up, then timed windows of one whole
//!   start period each.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

use gather_campaign::{CampaignSpec, ControllerKind, Family, Scenario};
use gather_core::{GatherController, GatherState};
use grid_engine::connectivity::is_connected;
use grid_engine::{Engine, OrientationMode, RobotState, Swarm};

use crate::calib::{Calibration, Pass};
use crate::probe::{engine_config, period, window, EngineAcc};
use crate::stats::{describe, median, per, tail};
use crate::trace::Tracer;
use crate::{measure, now, setup_reps, Checks, Ctx, Layers, Measured, SETUP_REPS};

/// `(rounds, final position digest)` of fsync-gather's scenarios at
/// full size, per seed, in expansion order: line, square, random-blob
/// (n = 4096), hollow-square (n = 512). Covers the tuning and held-out
/// seed sets; every scenario gathers on each of them.
#[rustfmt::skip]
pub const GATHER_PINS: &[(u64, [(u64, u64); 4])] = &[
    (1, [(2047, 0x5bb5ab5b7066c70d), (2402, 0x37d753870cb00643), (2072, 0xef13365dbe35b204), (1415, 0xdf412d39f9a9c3f3)]),
    (2, [(2047, 0x5bb5ab5b7066c70d), (2402, 0x37d753870cb00643), (2116, 0x4ea1841a7b1f32ae), (1302, 0x32dbb2e4af45944b)]),
    (3, [(2047, 0x5bb5ab5b7066c70d), (2402, 0x37d753870cb00643), (2029, 0x32073142a22c1373), (1280, 0xb319887b23c6c7d8)]),
    (4, [(2047, 0x5bb5ab5b7066c70d), (2402, 0x37d753870cb00643), (2007, 0x042bb6bbd131777c), (1393, 0xf1507a3460167e7e)]),
    (5, [(2047, 0x5bb5ab5b7066c70d), (2402, 0x37d753870cb00643), (1985, 0x8b563734916b2066), (1305, 0x84dfac6b30e3f240)]),
    (6, [(2047, 0x5bb5ab5b7066c70d), (2402, 0x37d753870cb00643), (2116, 0x015cc6d5e2d07170), (1393, 0xe68b244100ba4791)]),
    (7, [(2047, 0x5bb5ab5b7066c70d), (2402, 0x37d753870cb00643), (2029, 0xa721c193c1188b1b), (1395, 0x25d0614cc24d525b)]),
    (8, [(2047, 0x5bb5ab5b7066c70d), (2402, 0x37d753870cb00643), (2072, 0xa14076b1e9f373de), (1174, 0xd1634078957a4df2)]),
    (101, [(2047, 0x5bb5ab5b7066c70d), (2402, 0x37d753870cb00643), (2029, 0xa5c95f4ad47a987c), (1227, 0x2eb61613bf00f904)]),
    (102, [(2047, 0x5bb5ab5b7066c70d), (2402, 0x37d753870cb00643), (2029, 0x32073142a22c1373), (1241, 0x9299644f1e4c19d7)]),
    (103, [(2047, 0x5bb5ab5b7066c70d), (2402, 0x37d753870cb00643), (2029, 0x32073142a22c1373), (1371, 0xf1a48713c5730a81)]),
    (104, [(2047, 0x5bb5ab5b7066c70d), (2402, 0x37d753870cb00643), (2051, 0x6e789e6aa1b965f4), (1853, 0x06c983020be141e3)]),
    (105, [(2047, 0x5bb5ab5b7066c70d), (2402, 0x37d753870cb00643), (2117, 0x0c45157b27f08e10), (1393, 0x08ec229026b3cfb9)]),
    (106, [(2047, 0x5bb5ab5b7066c70d), (2402, 0x37d753870cb00643), (2006, 0xc5dc03b44c14be14), (1195, 0x3a7462e9508b0cff)]),
    (107, [(2047, 0x5bb5ab5b7066c70d), (2402, 0x37d753870cb00643), (2095, 0x8c124b1b178319b8), (1128, 0xf0e5b969446ed611)]),
    (108, [(2047, 0x5bb5ab5b7066c70d), (2402, 0x37d753870cb00643), (2029, 0x3457520ea0940f54), (1217, 0x7245888678806ce5)]),
];

/// scale-fsync's position digest after the warm-up period and one
/// timed period, computed on 1 engine thread, per seed (tuning and
/// held-out sets). Other seeds compute the 1-thread reference in the
/// run, untimed.
pub const SCALE_PINS: &[(u64, u64)] = &[
    (1, 0xb64f2fa42431d3fe),
    (2, 0xe48d49a74e1da7a3),
    (3, 0x823d245735fd0f5c),
    (4, 0xdb800a2427ddfe40),
    (5, 0x7f514b61a35f4bb1),
    (6, 0x0ca95dc0d922f335),
    (7, 0xddf22531f907769e),
    (8, 0x7a4642d75735fbf1),
    (101, 0xd8f4f707661a17f1),
    (102, 0xd7c656b079c4b174),
    (103, 0x5a3434baeb838bd2),
    (104, 0x10c0d4646e808bb1),
    (105, 0xf3ea37237144de22),
    (106, 0x8b07d0ed455ff59f),
    (107, 0x3b5e3df8b982b1b7),
    (108, 0xae86eab1ca9ec5e3),
];

/// Orientation seeds below [`RING_SEEDS_CHECKED`] on which the paper
/// controller does not gather the n = 512 hollow square within 4000
/// rounds (it stalls); every other seed below it gathers within 1881.
const RING_STALLS: [u64; 10] = [54, 78, 83, 147, 182, 233, 276, 287, 308, 333];
const RING_SEEDS_CHECKED: u64 = 400;

/// The hollow square's seed for benchmark seed `seed`: the seed itself
/// when it is known to gather, otherwise the next seed that is, so that
/// no seed gives a run that fails. Seeds at or past
/// [`RING_SEEDS_CHECKED`] wrap around into the checked range.
pub fn ring_seed(seed: u64) -> u64 {
    let mut s = seed % RING_SEEDS_CHECKED;
    while RING_STALLS.contains(&s) {
        s = (s + 1) % RING_SEEDS_CHECKED;
    }
    s
}

/// Views timed per sampled round.
pub const VIEWS: usize = 128;
const SCALE_VIEWS: usize = 1024;

/// Rounds between decision samples: half a start period, so samples
/// fall alternately on a start round and the middle of a period.
pub fn sample_every() -> u64 {
    period() / 2
}

fn spec(name: &str, families: Vec<Family>, n: usize, seed: u64) -> CampaignSpec {
    let mut spec = CampaignSpec::named(name);
    spec.families = families;
    spec.sizes = vec![n];
    spec.seeds = vec![seed];
    spec.controllers = vec![ControllerKind::Paper];
    spec
}

/// Expand the workload's specs, then generate and build every start
/// swarm: the set-up a run pays before its first round.
pub fn set_up<S: RobotState>(
    specs: &[CampaignSpec],
    tracer: &mut Tracer,
) -> (Vec<Scenario>, Vec<Swarm<S>>) {
    let scenarios: Vec<Scenario> =
        tracer.span("spec.expand", |_| specs.iter().flat_map(CampaignSpec::expand).collect());
    let swarms = scenarios
        .iter()
        .map(|sc| {
            let points = tracer.span("workloads.family", |_| sc.points());
            tracer.count("robots.generated", points.len());
            let swarm = tracer
                .span("swarm.new", |_| Swarm::new(&points, OrientationMode::Scrambled(sc.seed)));
            tracer.count("robots.built", points.len());
            swarm
        })
        .collect();
    (scenarios, swarms)
}

/// What one run to gathered produced; equal across repeats.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Gathered {
    rounds: u64,
    activations: u64,
    merges: u64,
    moves: u64,
    gathered: bool,
    connected: bool,
    digest: u64,
}

/// Run `sc` from `start` until gathered (or the budget dies): the loop
/// of `Engine::run_until_gathered`, with every round timed so that `cal`
/// can take its points between rounds. Traced, the engine's profiler is
/// attached and decisions are sampled from outside (untimed) before
/// every 11th round. Returns the run and the seconds of its rounds.
fn gather_one(
    sc: &Scenario,
    start: &Swarm<GatherState>,
    tracer: &mut Tracer,
    layers: &mut Layers,
    cal: &mut Calibration,
) -> (Gathered, f64) {
    let mut engine = Engine::new(start.clone(), GatherController::paper(), engine_config(1));
    let budget = sc.budget(start.len());
    let acc = tracer.on().then(|| {
        let acc = Rc::new(RefCell::new(EngineAcc::default()));
        let sink = Rc::clone(&acc);
        engine.set_profiler(Box::new(move |p| sink.borrow_mut().add_profile(p)));
        acc
    });
    let mut round_secs = 0.0;
    let gathered = loop {
        if engine.swarm.is_gathered() {
            break true;
        }
        if engine.round() >= budget {
            break false;
        }
        if tracer.on() && engine.round().is_multiple_of(sample_every()) {
            tracer.span("core.decide_probe", |_| layers.decide.sample_paper(&engine, VIEWS));
        }
        let t = now();
        let stepped = tracer.span("engine.step", |_| engine.step());
        let secs = t.elapsed().as_secs_f64();
        round_secs += secs;
        cal.after(secs);
        if stepped.is_err() {
            break false;
        }
    };
    if let Some(acc) = acc {
        engine.clear_profiler();
        let m = engine.metrics();
        let mut acc = acc.take();
        acc.activations = m.total_activations;
        acc.merges = m.total_merged as u64;
        acc.moves = m.total_moves as u64;
        layers.engine.absorb(acc);
    }
    let connected = tracer.span("connectivity.is_connected", |_| is_connected(&engine.swarm));
    tracer.count("robots.connectivity", engine.swarm.len());
    let m = engine.metrics();
    let out = Gathered {
        rounds: engine.round(),
        activations: m.total_activations,
        merges: m.total_merged as u64,
        moves: m.total_moves as u64,
        gathered,
        connected,
        digest: engine.swarm.position_digest(),
    };
    (out, round_secs)
}

/// The pinned `(rounds, digest)` list for this run, if any.
fn pins(ctx: &Ctx, table: &[(u64, [(u64, u64); 4])]) -> Option<Vec<(u64, u64)>> {
    if ctx.pins.is_some() {
        return ctx.pins.clone();
    }
    if ctx.tiny {
        return None;
    }
    table.iter().find(|(seed, _)| *seed == ctx.seed).map(|(_, p)| p.to_vec())
}

pub fn gather(ctx: &Ctx, tracer: &mut Tracer, seconds: f64, checks: &mut Checks) -> Measured {
    let (big, ring) = if ctx.tiny { (48, 48) } else { (4096, 512) };
    let specs = [
        spec("fsync-gather", vec![Family::Line, Family::Square, Family::RandomBlob], big, ctx.seed),
        spec("fsync-gather-ring", vec![Family::HollowSquare], ring, ring_seed(ctx.seed)),
    ];
    let (mut setup, (scenarios, swarms)) = setup_reps(SETUP_REPS, tracer, |t| set_up(&specs, t));
    let pinned = pins(ctx, GATHER_PINS);
    let mut layers = Layers::default();
    let mut first: Vec<Gathered> = Vec::new();
    let mut scenario_ms: Vec<f64> = Vec::new();
    let mut summary = Vec::new();
    let passes = measure(seconds, ctx.min_passes, |_| {
        setup.extend(setup_reps(SETUP_REPS, tracer, |t| set_up::<GatherState>(&specs, t)).0);
        let mut cal = Calibration::new(1);
        let mut secs = 0.0;
        for (i, (sc, start)) in scenarios.iter().zip(&swarms).enumerate() {
            let id = sc.id();
            let run = catch_unwind(AssertUnwindSafe(|| {
                gather_one(sc, start, tracer, &mut layers, &mut cal)
            }));
            let Ok((out, s)) = run else {
                checks.check(false, || format!("{id}: panicked"));
                continue;
            };
            secs += s;
            scenario_ms.push(s * 1e3);
            checks.check(out.gathered && out.connected, || {
                format!("{id}: gathered={} connected={}", out.gathered, out.connected)
            });
            if let Some(pin) = pinned.as_ref().and_then(|p| p.get(i)) {
                checks.check(*pin == (out.rounds, out.digest), || {
                    format!(
                        "{id}: {} rounds, digest {:#018x}; pinned {} rounds, digest {:#018x}",
                        out.rounds, out.digest, pin.0, pin.1
                    )
                });
            }
            match first.get(i) {
                Some(f) => checks.check(*f == out, || format!("{id}: differs from pass 0")),
                None => {
                    summary.push(format!(
                        "fsync-gather {id} n={} rounds={} digest={:#018x} activations={} secs={s:.3}",
                        start.len(),
                        out.rounds,
                        out.digest,
                        out.activations,
                    ));
                    first.push(out);
                }
            }
        }
        Pass { secs, slowness: cal.slowness() }
    });
    layers.engine_passes = passes.len() as u64;
    let gather_s = Pass::calibrated_median(&passes);
    let activations: u64 = first.iter().map(|g| g.activations).sum();
    let rounds: u64 = first.iter().map(|g| g.rounds).sum();
    let gathered = first.iter().filter(|g| g.gathered).count();
    summary.push(format!(
        "fsync-gather passes={} ({}) gather_s={gather_s:.4} rounds_to_gather={rounds} \
         gathered={gathered}/{} scenarios_per_min={:.2} setup_s=({})",
        passes.len(),
        Pass::describe(&passes),
        scenarios.len(),
        60.0 * scenarios.len() as f64 / gather_s,
        describe(&setup),
    ));
    let x = &mut layers.extra;
    x.insert("tile.count", swarms.iter().map(|s| s.index().tile_count()).sum::<usize>() as f64);
    x.insert("work.rounds_to_gather", rounds as f64);
    x.insert("work.gathered_frac", per(gathered as u64, scenarios.len() as u64));
    x.insert("scenario_ms.p50", median(&scenario_ms));
    x.insert("scenario_ms.p95", tail(&scenario_ms, 95.0).1);
    let mut e2e = crate::report::Metrics::new();
    e2e.insert("setup_s", median(&setup));
    e2e.insert("gather_s", gather_s);
    e2e.insert("activations_per_s", activations as f64 / gather_s);
    Measured { e2e, layers, summary }
}

pub fn scale(ctx: &Ctx, tracer: &mut Tracer, seconds: f64, checks: &mut Checks) -> Measured {
    let n = if ctx.tiny { 2048 } else { 200_000 };
    let specs = [spec("scale-fsync", vec![Family::Clusters], n, ctx.seed)];
    // A 2×10⁵-robot set-up takes about 25 ms and a pass about 2.5 s, so
    // smaller blocks do.
    let reps = SETUP_REPS / 8;
    let (mut setup, (scenarios, swarms)) =
        setup_reps(reps, tracer, |t| set_up::<GatherState>(&specs, t));
    let start = &swarms[0];
    // Warm-up: one untimed start period, so the timed windows begin on
    // a start round of a configuration that is no longer the generator's.
    let window_rounds = period();
    let mut warm =
        Engine::new(start.clone(), GatherController::paper(), engine_config(ctx.threads));
    let warm_ok = (0..window_rounds).all(|_| warm.step().is_ok());
    checks.check(warm_ok, || "scale-fsync: a warm-up round failed".into());
    let warmed = warm.swarm.clone();
    drop(warm);
    let mut layers = Layers::default();
    let mut digests: Vec<u64> = Vec::new();
    let mut activations: Vec<u64> = Vec::new();
    let passes = measure(seconds, ctx.min_passes, |_| {
        setup.extend(setup_reps(reps, tracer, |t| set_up::<GatherState>(&specs, t)).0);
        // Engines count rounds from 0 and the warm-up was one whole
        // period, so every window's start rounds fall where a single
        // uninterrupted run would have them.
        let mut engine =
            Engine::new(warmed.clone(), GatherController::paper(), engine_config(ctx.threads));
        let acc = tracer.on().then(|| {
            let acc = Rc::new(RefCell::new(EngineAcc::default()));
            let sink = Rc::clone(&acc);
            engine.set_profiler(Box::new(move |p| sink.borrow_mut().add_profile(p)));
            acc
        });
        let (mut acts, mut merges, mut moves, mut ok) = (0u64, 0u64, 0u64, true);
        let mut secs = 0.0;
        let mut cal = Calibration::new(ctx.threads);
        for round in 0..window_rounds {
            if tracer.on() && round.is_multiple_of(sample_every()) {
                tracer.span("core.decide_probe", |_| {
                    layers.decide.sample_paper(&engine, SCALE_VIEWS)
                });
            }
            let t = now();
            let stepped = tracer.span("engine.step", |_| engine.step());
            let round_secs = t.elapsed().as_secs_f64();
            secs += round_secs;
            cal.after(round_secs);
            match stepped {
                Ok(stats) => {
                    acts += stats.activated as u64;
                    merges += stats.merged as u64;
                    moves += stats.moved as u64;
                }
                Err(_) => {
                    ok = false;
                    break;
                }
            }
        }
        engine.clear_profiler();
        if let Some(acc) = acc {
            let mut acc = acc.take();
            (acc.activations, acc.merges, acc.moves) = (acts, merges, moves);
            layers.engine.absorb(acc);
        }
        checks.check(ok, || "scale-fsync: a window round failed".into());
        digests.push(engine.swarm.position_digest());
        activations.push(acts);
        Pass { secs, slowness: cal.slowness() }
    });
    let pinned = match &ctx.pins {
        Some(p) => p.first().map(|&(_, digest)| digest),
        None if ctx.tiny => None,
        None => SCALE_PINS.iter().find(|(seed, _)| *seed == ctx.seed).map(|&(_, d)| d),
    };
    // Traced runs always re-run the window on 1 thread: it is both the
    // determinism reference and the speedup baseline.
    let one_thread = (pinned.is_none() || tracer.on()).then(|| window(&warmed, 1, window_rounds));
    let reference = pinned.or(one_thread.map(|(digest, _)| digest)).expect("pinned or computed");
    for (pass, digest) in digests.iter().enumerate() {
        checks.check(*digest == reference, || {
            format!(
                "scale-fsync pass {pass}: digest {digest:#018x} != 1-thread reference {reference:#018x}"
            )
        });
    }
    let acts = activations.first().copied().unwrap_or(0);
    checks.check(activations.iter().all(|&a| a == acts), || {
        format!("scale-fsync: activations differ between passes: {activations:?}")
    });
    layers.engine_passes = passes.len() as u64;
    let window_s = Pass::calibrated_median(&passes);
    let mut e2e = crate::report::Metrics::new();
    e2e.insert("setup_s", median(&setup));
    e2e.insert("gather_s", window_s);
    e2e.insert("activations_per_s", acts as f64 / window_s);
    let summary = vec![format!(
        "scale-fsync {} n={} threads={} window_rounds={window_rounds} passes={} ({}) \
         window_s={window_s:.4} activations={acts} activations_per_s={:.4e} digest={:#018x} \
         setup_s=({})",
        scenarios[0].id(),
        start.len(),
        ctx.threads,
        passes.len(),
        Pass::describe(&passes),
        acts as f64 / window_s,
        digests.first().copied().unwrap_or(0),
        describe(&setup),
    )];
    if let Some((_, one)) = one_thread.filter(|_| tracer.on()) {
        let many = per(
            layers.engine.totals.phase_ns[grid_engine::Phase::Compute as usize],
            passes.len() as u64,
        );
        layers.extra.insert("parallel.compute_speedup", one as f64 / many);
    }
    let x = &mut layers.extra;
    x.insert("tile.count", start.index().tile_count() as f64);
    x.insert("work.rounds_to_gather", window_rounds as f64);
    x.insert("work.gathered_frac", 0.0);
    let window_ms: Vec<f64> = passes.iter().map(|p| p.secs * 1e3).collect();
    x.insert("scenario_ms.p50", median(&window_ms));
    x.insert("scenario_ms.p95", tail(&window_ms, 95.0).1);
    Measured { e2e, layers, summary }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HELD_OUT_SEEDS, TUNING_SEEDS};

    #[test]
    fn tuning_and_held_out_seeds_are_pinned_and_disjoint() {
        for seed in TUNING_SEEDS.iter().chain(&HELD_OUT_SEEDS) {
            assert!(GATHER_PINS.iter().any(|(s, _)| s == seed), "fsync-gather seed {seed}");
            assert!(SCALE_PINS.iter().any(|(s, _)| s == seed), "scale-fsync seed {seed}");
        }
        assert!(TUNING_SEEDS.iter().all(|s| !HELD_OUT_SEEDS.contains(s)));
    }

    #[test]
    fn ring_seeds_skip_the_seeds_that_stall() {
        // Pinned seeds gather, so they keep their own ring.
        for seed in TUNING_SEEDS.iter().chain(&HELD_OUT_SEEDS) {
            assert_eq!(ring_seed(*seed), *seed);
        }
        assert_eq!(ring_seed(78), 79);
        assert_eq!(ring_seed(82), 82);
        assert_eq!(ring_seed(83), 84);
        assert_eq!(ring_seed(RING_SEEDS_CHECKED + 54), 55);
        assert!((0..10_000).all(|s| !RING_STALLS.contains(&ring_seed(s))));
    }
}
