//! Per-layer accumulators for the traced run.
//!
//! * [`EngineAcc`] folds the engine's own phase profiler
//!   (`Engine::set_profiler`) into per-activation and per-round figures.
//! * [`DecideAcc`] times the controllers from outside the engine: on the
//!   views the engine is about to evaluate, it times `View::new`,
//!   `gather_core::merge_move` and `Controller::decide` one call at a
//!   time (`engine.swarm` and `engine.controller` are public).

use std::cell::RefCell;
use std::hint::black_box;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use gather_baselines::GoToCenter;
use gather_campaign::{Scenario, ScenarioRecord};
use gather_core::{merge_move, GatherController, GatherState};
use gather_serve::{CacheKey, ResultCache};
use grid_engine::{
    ConnectivityCheck, Controller, Engine, EngineConfig, Phase, ProfileTotals, RoundCtx,
    RoundProfile, Scheduler, Swarm, View,
};

use crate::report::Metrics;
use crate::stats::{median, per};
use crate::trace::Tracer;
use crate::{now, Checks};

/// The paper controller's start period L: every L-th round is a start
/// round.
pub fn period() -> u64 {
    GatherController::paper().config().period
}

/// The campaign's FSYNC engine configuration: no per-round
/// connectivity probe (each run is checked once, at its end) and the
/// campaign's stall limit.
pub fn engine_config(threads: usize) -> EngineConfig {
    EngineConfig {
        threads,
        connectivity: ConnectivityCheck::Never,
        keep_history: false,
        stall_limit: 200_000,
        scheduler: Scheduler::Fsync,
    }
}

/// Post-window position digest and compute-phase nanoseconds of
/// `rounds` paper-controller FSYNC rounds from `start` on `threads`
/// engine threads.
pub fn window(start: &Swarm<GatherState>, threads: usize, rounds: u64) -> (u64, u64) {
    let acc = Rc::new(RefCell::new(EngineAcc::default()));
    let mut engine = Engine::new(start.clone(), GatherController::paper(), engine_config(threads));
    let sink = Rc::clone(&acc);
    engine.set_profiler(Box::new(move |p| sink.borrow_mut().add_profile(p)));
    for _ in 0..rounds {
        if engine.swarm.is_gathered() || engine.step().is_err() {
            break;
        }
    }
    let digest = engine.swarm.position_digest();
    drop(engine);
    let compute = acc.borrow().totals.phase_ns[Phase::Compute as usize];
    (digest, compute)
}

/// Store every record in a fresh result cache under `dir`, keyed as the
/// service keys it, then look each one up again; a lookup must return
/// the exact line stored.
pub fn cache_round_trip(
    dir: &Path,
    records: &[ScenarioRecord],
    tracer: &mut Tracer,
    checks: &mut Checks,
) {
    let cache = match ResultCache::open(dir) {
        Ok(cache) => cache,
        Err(e) => return checks.check(false, || format!("opening cache {}: {e}", dir.display())),
    };
    let mut items = Vec::with_capacity(records.len());
    for rec in records {
        let Some(sc) = Scenario::parse_id(&rec.id) else {
            checks.check(false, || format!("record ID {} does not parse", rec.id));
            continue;
        };
        let key = CacheKey {
            scenario_id: rec.id.clone(),
            config_digest: sc.config_digest_with(rec.n),
            engine_version: grid_engine::ENGINE_VERSION.to_string(),
        };
        items.push((key, rec.to_json_line()));
    }
    for (key, line) in &items {
        let stored = tracer.span("cache.store", |_| cache.store(key, line));
        checks.check(stored.is_ok(), || format!("cache store of {} failed", key.scenario_id));
    }
    for (key, line) in &items {
        let got = tracer.span("cache.lookup", |_| cache.lookup(key));
        checks.check(got.as_deref() == Some(line.as_str()), || {
            format!("cache lookup of {} did not return the stored record", key.scenario_id)
        });
    }
}

/// Engine profile of the traced pass plus its exact work counts.
#[derive(Clone, Debug, Default)]
pub struct EngineAcc {
    pub totals: ProfileTotals,
    pub round_ms: Vec<f64>,
    pub start_round_ms: Vec<f64>,
    pub activations: u64,
    pub merges: u64,
    pub moves: u64,
}

impl EngineAcc {
    /// Fold one round's profile; a round numbered by a multiple of
    /// [`period`] is a start round.
    pub fn add_profile(&mut self, p: &RoundProfile) {
        self.totals.add(p);
        let ms = p.wall_ns as f64 / 1e6;
        self.round_ms.push(ms);
        if p.round.is_multiple_of(period()) {
            self.start_round_ms.push(ms);
        }
    }

    pub fn absorb(&mut self, other: EngineAcc) {
        let t = &mut self.totals;
        t.rounds += other.totals.rounds;
        t.wall_ns += other.totals.wall_ns;
        for (sum, ns) in t.phase_ns.iter_mut().zip(other.totals.phase_ns) {
            *sum += ns;
        }
        t.shard_imbalance_ns += other.totals.shard_imbalance_ns;
        t.compact_imbalance_ns += other.totals.compact_imbalance_ns;
        self.round_ms.extend(other.round_ms);
        self.start_round_ms.extend(other.start_round_ms);
        self.activations += other.activations;
        self.merges += other.merges;
        self.moves += other.moves;
    }

    /// The `engine.*` metrics: phase time per activation (summed from
    /// `RoundStats.activated`), gaps and invariant checks per round,
    /// round-time medians, and the exact counts of one of the `passes`
    /// identical passes folded in.
    pub fn metrics(&self, passes: u64, m: &mut Metrics) {
        let t = &self.totals;
        let phase = |p: Phase| t.phase_ns[p as usize];
        let act = self.activations;
        m.insert("engine.compute_ns_per_act", per(phase(Phase::Compute), act));
        m.insert("engine.targets_ns_per_act", per(phase(Phase::ApplyTargets), act));
        m.insert("engine.merge_detect_ns_per_act", per(phase(Phase::MergeDetect), act));
        m.insert("engine.rebuild_ns_per_act", per(phase(Phase::OccupancyRebuild), act));
        m.insert("engine.compact_ns_per_act", per(phase(Phase::Compact), act));
        m.insert("engine.activate_ns_per_act", per(phase(Phase::Activate), act));
        m.insert("engine.active_list_ns_per_act", per(phase(Phase::ActiveList), act));
        m.insert("engine.shard_gap_ns_per_round", per(t.shard_imbalance_ns, t.rounds));
        m.insert("engine.compact_gap_ns_per_round", per(t.compact_imbalance_ns, t.rounds));
        m.insert("engine.invariants_ns_per_round", per(phase(Phase::Invariants), t.rounds));
        m.insert("engine.round_ms.p50", median(&self.round_ms));
        m.insert("engine.start_round_ms", median(&self.start_round_ms));
        let passes = passes.max(1);
        m.insert("engine.activations", (act / passes) as f64);
        m.insert("engine.merges", (self.merges / passes) as f64);
        m.insert("engine.moves", (self.moves / passes) as f64);
    }
}

/// Out-of-engine timings of views and controller decisions.
#[derive(Clone, Debug, Default)]
pub struct DecideAcc {
    views: u64,
    view_ns: u64,
    paper: u64,
    merge_ns: u64,
    merge_hits: u64,
    decides: u64,
    decide_ns: u64,
    start_decides: u64,
    start_decide_ns: u64,
    plan_views: u64,
    plan_ns: u64,
    robots: u64,
    run_holders: u64,
    center: u64,
    center_ns: u64,
}

/// Up to `k` robot slots spread evenly over `0..n`.
fn sample(n: usize, k: usize) -> impl Iterator<Item = usize> {
    (0..n).step_by((n / k.max(1)).max(1)).take(k)
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

impl DecideAcc {
    /// Time up to `k` of the views the paper controller is about to
    /// decide on in `engine`'s next round, and count the robots that
    /// hold runs (over the whole swarm).
    pub fn sample_paper(&mut self, engine: &Engine<GatherController>, k: usize) {
        let swarm = &engine.swarm;
        let controller = &engine.controller;
        let cfg = controller.config();
        let ctx = RoundCtx { round: engine.round() };
        let start_round = ctx.round.is_multiple_of(cfg.period);
        self.robots += swarm.len() as u64;
        self.run_holders += swarm.states().iter().filter(|s| s.has_runs()).count() as u64;
        for i in sample(swarm.len(), k) {
            let t = now();
            let view = black_box(View::new(swarm, i, cfg.radius));
            self.view_ns += ns_since(t);
            self.views += 1;
            let t = now();
            let hit = black_box(merge_move(&view, cfg)).is_some();
            self.merge_ns += ns_since(t);
            let t = now();
            black_box(controller.decide(&view, ctx));
            let ns = ns_since(t);
            self.paper += 1;
            if hit {
                self.merge_hits += 1;
            } else {
                self.plan_views += 1;
                self.plan_ns += ns;
            }
            if start_round {
                self.start_decides += 1;
                self.start_decide_ns += ns;
            } else {
                self.decides += 1;
                self.decide_ns += ns;
            }
        }
    }

    /// Time up to `k` GoToCenter decisions on `engine`'s next round.
    pub fn sample_center(&mut self, engine: &Engine<GoToCenter>, k: usize) {
        let swarm = &engine.swarm;
        let controller = &engine.controller;
        let ctx = RoundCtx { round: engine.round() };
        for i in sample(swarm.len(), k) {
            let t = now();
            let view = black_box(View::new(swarm, i, controller.radius()));
            self.view_ns += ns_since(t);
            self.views += 1;
            let t = now();
            black_box(controller.decide(&view, ctx));
            self.center_ns += ns_since(t);
            self.center += 1;
        }
    }

    pub fn metrics(&self, m: &mut Metrics) {
        m.insert("view.new_ns", per(self.view_ns, self.views));
        m.insert("core.decide_ns", per(self.decide_ns, self.decides));
        m.insert("core.decide_ns.start_round", per(self.start_decide_ns, self.start_decides));
        m.insert("core.merge_check_ns", per(self.merge_ns, self.paper));
        m.insert("core.merge_hit_ratio", per(self.merge_hits, self.paper));
        m.insert("core.plan_path_ns", per(self.plan_ns, self.plan_views));
        m.insert("core.run_holders_frac", per(self.run_holders, self.robots));
        m.insert("center.decide_ns", per(self.center_ns, self.center));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_times_are_normalised_per_activation_and_per_round() {
        let mut acc = EngineAcc { activations: 200, merges: 3, moves: 40, ..Default::default() };
        let t = &mut acc.totals;
        t.rounds = 4;
        t.wall_ns = 100_000;
        t.phase_ns[Phase::Compute as usize] = 60_000;
        t.phase_ns[Phase::MergeDetect as usize] = 8_000;
        t.phase_ns[Phase::Compact as usize] = 2_000;
        t.phase_ns[Phase::Invariants as usize] = 400;
        t.shard_imbalance_ns = 1_200;
        acc.round_ms = vec![0.5, 0.1, 0.2, 0.3];
        acc.start_round_ms = vec![0.5];
        let mut m = Metrics::new();
        acc.metrics(1, &mut m);
        assert_eq!(m["engine.compute_ns_per_act"], 300.0);
        assert_eq!(m["engine.merge_detect_ns_per_act"], 40.0);
        assert_eq!(m["engine.compact_ns_per_act"], 10.0);
        assert_eq!(m["engine.targets_ns_per_act"], 0.0);
        assert_eq!(m["engine.invariants_ns_per_round"], 100.0);
        assert_eq!(m["engine.shard_gap_ns_per_round"], 300.0);
        assert_eq!(m["engine.round_ms.p50"], 0.25);
        assert_eq!(m["engine.start_round_ms"], 0.5);
        assert_eq!(m["engine.activations"], 200.0);
        assert_eq!(m["engine.moves"], 40.0);
        // Two identical passes folded in: same rates, counts of one pass.
        let mut twice = acc.clone();
        twice.absorb(acc);
        let mut m2 = Metrics::new();
        twice.metrics(2, &mut m2);
        assert_eq!(m2["engine.compute_ns_per_act"], 300.0);
        assert_eq!(m2["engine.activations"], 200.0);
        assert_eq!(m2["engine.round_ms.p50"], 0.25);
    }

    #[test]
    fn absorbing_adds_totals_and_samples() {
        let mut a = EngineAcc { activations: 5, ..Default::default() };
        a.add_profile(&RoundProfile { round: 0, wall_ns: 2_000_000, ..Default::default() });
        let mut b = EngineAcc { activations: 7, merges: 1, ..Default::default() };
        b.add_profile(&RoundProfile { round: 3, wall_ns: 1_000_000, ..Default::default() });
        a.absorb(b);
        assert_eq!(a.totals.rounds, 2);
        assert_eq!(a.totals.wall_ns, 3_000_000);
        assert_eq!(a.round_ms, vec![2.0, 1.0]);
        assert_eq!(a.start_round_ms, vec![2.0], "only round 0 is a start round");
        assert_eq!((a.activations, a.merges), (12, 1));
    }

    #[test]
    fn samples_spread_over_the_swarm() {
        assert_eq!(sample(10, 4).collect::<Vec<_>>(), vec![0, 2, 4, 6]);
        assert_eq!(sample(3, 8).collect::<Vec<_>>(), vec![0, 1, 2]);
    }
}
