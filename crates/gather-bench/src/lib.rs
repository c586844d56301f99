//! # gather-bench
//!
//! The measured-run harness. [`RunSpec`] is the crate's one run
//! function: every campaign scenario, run or recorded (and with them
//! the paper tables, README "Paper tables"), trace replay, `campaign
//! smoke` (a round-budgeted recording) and the benchmark's weak-sweep
//! workload go through it. [`ControllerKind`] and [`SchedulerKind`] are
//! the registries their axes name. The `bench_engine` binary and the
//! benchmark's FSYNC workloads instead build and step an [`Engine`] of
//! their own; `bench_engine` times the engine's round loop at large n.

use gather_baselines::{AsyncGreedy, GoToCenter};
use gather_core::GatherController;
use grid_engine::connectivity::is_connected;
use grid_engine::{
    BoxedProfileSink, BoxedRoundObserver, ConnectivityCheck, Engine, EngineConfig, EngineError,
    OrientationMode, Point, RunOutcome, Scheduler,
};

/// Outcome of one measured gathering run.
#[derive(Clone, Debug)]
pub struct Measurement {
    pub n: usize,
    pub rounds: u64,
    pub merges: usize,
    pub gathered: bool,
    /// Whether the swarm was still 4-connected when the run ended —
    /// measured on the actual final swarm on every path, success or
    /// failure. The paper's algorithm never disconnects; the GoToCenter
    /// baseline can (its continuous-motion safety argument does not
    /// transfer to the grid), which the E8 baseline table reports.
    pub connected: bool,
    /// Total robot activations across the run — the scheduler-honest
    /// work measure (`rounds · n`-ish under FSYNC, less under SSYNC and
    /// round-robin, so rounds alone would flatter the weak schedulers).
    pub activations: u64,
}

/// The strategies a measured run can execute — the shared registry that
/// campaign specs, trace headers and service wire fields name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ControllerKind {
    /// The paper's O(n) algorithm with the §5 constants.
    Paper,
    /// The GoToCenter baseline (grid adaptation of [DKL+11]).
    Center,
    /// The sequential fair-scheduler greedy baseline.
    Greedy,
}

impl ControllerKind {
    /// Every controller, in a stable report order.
    pub const ALL: [ControllerKind; 3] =
        [ControllerKind::Paper, ControllerKind::Center, ControllerKind::Greedy];

    pub fn name(self) -> &'static str {
        match self {
            ControllerKind::Paper => "paper",
            ControllerKind::Center => "center",
            ControllerKind::Greedy => "greedy",
        }
    }

    pub fn parse(s: &str) -> Option<ControllerKind> {
        Self::ALL.into_iter().find(|k| k.name() == s)
    }
}

impl std::fmt::Display for ControllerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Seed-free activation-policy registry: what a campaign axis stores.
/// Combined with the scenario's orientation seed it yields the engine's
/// [`Scheduler`] (so one scenario seed pins the entire run, schedulers
/// included).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SchedulerKind {
    /// Fully synchronous (the paper's model; the legacy default).
    Fsync,
    /// Semi-synchronous: each robot activates with probability `p`%.
    Ssync {
        /// Activation probability in percent, `1..=100`.
        p: u8,
    },
    /// Deterministic rotating window of `k` robots (ASYNC-flavoured).
    RoundRobin { k: u32 },
    /// Crash-stop faults over FSYNC: up to `f` seeded victims stop
    /// being activated forever once their seeded crash round arrives.
    Crash { f: u32 },
    /// Full ASYNC: every look draws a seeded delay in `0..=s` rounds
    /// before its move commits, so robots compute on views up to `s`
    /// rounds stale. `s >= 1` (`s = 0` is fsync).
    Async { s: u32 },
}

impl SchedulerKind {
    /// Stable name, also the scenario-ID segment: `fsync`, `ssync-p50`,
    /// `rr4`, `crash-f3`, `async-s4`. [`std::str::FromStr`] is the one
    /// inverse — every surface that names a scheduler (CLI flags, spec
    /// files, service wire fields, smoke `--scheduler`, trace-header
    /// scenario IDs) round-trips through this pair.
    pub fn name(self) -> String {
        match self {
            SchedulerKind::Fsync => "fsync".into(),
            SchedulerKind::Ssync { p } => format!("ssync-p{p}"),
            SchedulerKind::RoundRobin { k } => format!("rr{k}"),
            SchedulerKind::Crash { f } => format!("crash-f{f}"),
            SchedulerKind::Async { s } => format!("async-s{s}"),
        }
    }

    /// The engine policy, with the per-run seed mixed in for the seeded
    /// kinds (SSYNC draws, crash victims, ASYNC delays) and the initial
    /// population pinned for crash faults — victim draws must not
    /// re-roll as merges shrink the live count.
    pub fn to_policy(self, seed: u64, n0: usize) -> Scheduler {
        match self {
            SchedulerKind::Fsync => Scheduler::Fsync,
            SchedulerKind::Ssync { p } => Scheduler::Ssync { seed, p },
            SchedulerKind::RoundRobin { k } => Scheduler::RoundRobin { k },
            SchedulerKind::Crash { f } => Scheduler::Crash { seed, f, n0: n0 as u32 },
            SchedulerKind::Async { s } => Scheduler::Async { seed, staleness: s },
        }
    }

    /// Are the kind's parameters in range (parsing only produces valid
    /// kinds; hand-built specs go through this in `validate`)?
    pub fn validate(self) -> Result<(), String> {
        match self {
            SchedulerKind::Fsync => Ok(()),
            SchedulerKind::Ssync { p } if (1..=100).contains(&p) => Ok(()),
            SchedulerKind::Ssync { p } => Err(format!("ssync p={p} outside 1..=100")),
            SchedulerKind::RoundRobin { k } if k >= 1 => Ok(()),
            SchedulerKind::RoundRobin { .. } => Err("round-robin k must be >= 1".into()),
            SchedulerKind::Crash { f } if f >= 1 => Ok(()),
            SchedulerKind::Crash { .. } => Err("crash f must be >= 1 (f = 0 is fsync)".into()),
            SchedulerKind::Async { s } if s >= 1 => Ok(()),
            SchedulerKind::Async { .. } => Err("async s must be >= 1 (s = 0 is fsync)".into()),
        }
    }
}

impl std::str::FromStr for SchedulerKind {
    type Err = String;

    /// Parse a scheduler name as produced by [`SchedulerKind::name`] —
    /// the single scheduler parser in the workspace. Rejects
    /// out-of-range parameters (`p` outside `1..=100`, `k = 0`,
    /// `f = 0`, `s = 0`) with the reason.
    fn from_str(s: &str) -> Result<SchedulerKind, String> {
        let kind = if s == "fsync" {
            SchedulerKind::Fsync
        } else if let Some(p) = s.strip_prefix("ssync-p") {
            SchedulerKind::Ssync { p: parse_param(s, p)? }
        } else if let Some(f) = s.strip_prefix("crash-f") {
            SchedulerKind::Crash { f: parse_param(s, f)? }
        } else if let Some(k) = s.strip_prefix("rr") {
            SchedulerKind::RoundRobin { k: parse_param(s, k)? }
        } else if let Some(d) = s.strip_prefix("async-s") {
            SchedulerKind::Async { s: parse_param(s, d)? }
        } else {
            return Err(format!(
                "unknown scheduler {s:?} (expected fsync, ssync-pP, rrK, crash-fF or async-sK)"
            ));
        };
        kind.validate().map_err(|why| format!("scheduler {s:?}: {why}"))?;
        Ok(kind)
    }
}

fn parse_param<T: std::str::FromStr>(name: &str, digits: &str) -> Result<T, String> {
    digits.parse().map_err(|_| format!("scheduler {name:?} has a malformed parameter"))
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

fn engine_config(threads: usize, scheduler: Scheduler) -> EngineConfig {
    // FSYNC keeps the historical no-check configuration so measured
    // rounds stay bit-identical with pre-scheduler result files. The
    // weaker schedulers genuinely break the paper's connectivity
    // invariant on 2-D shapes (the safety argument leans on
    // simultaneous moves), so probe every 64 rounds and stop a
    // disconnected run at its violation instead of burning the whole
    // stall budget on a swarm that can no longer gather.
    let connectivity = match scheduler {
        Scheduler::Fsync => ConnectivityCheck::Never,
        _ => ConnectivityCheck::Every(64),
    };
    EngineConfig { threads, connectivity, keep_history: false, stall_limit: 200_000, scheduler }
}

/// Builder for a measured run — the crate's only run function, which
/// every campaign scenario (run or recorded), trace replay, `campaign
/// smoke` and the benchmark's weak-sweep workload go through.
///
/// Mandatory inputs are the constructor's; everything else defaults:
/// FSYNC scheduling, seed 0, [`budget_for`] the population, one engine
/// worker thread (campaign jobs parallelise across scenarios, not
/// within them; pass `threads(0)` for available parallelism). Results
/// are independent of the thread count — the engine's compute step is
/// a deterministic parallel map and the activation set is a pure
/// function of `(scheduler, seed, round)`.
///
/// ```no_run
/// # use gather_bench::{ControllerKind, RunSpec, SchedulerKind};
/// let pts = gather_workloads::line(64);
/// let m = RunSpec::new(ControllerKind::Paper, &pts)
///     .scheduler(SchedulerKind::Async { s: 4 })
///     .seed(11)
///     .run();
/// ```
///
/// The optional `observer` receives one [`grid_engine::RoundRecord`]
/// per engine round (the recording hook the trace subsystem uses); the
/// optional `profiler` receives per-round phase timings (`campaign run
/// --perf`). Neither perturbs the measured result. The greedy baseline
/// is its own sequential fair scheduler (that is the point of the
/// strawman), so `scheduler` does not apply to it and its runs invoke
/// the observer and profiler zero times — campaigns skip tracing it.
pub struct RunSpec<'a> {
    controller: ControllerKind,
    points: &'a [Point],
    scheduler: SchedulerKind,
    seed: u64,
    budget: Option<u64>,
    threads: usize,
    observer: Option<BoxedRoundObserver>,
    profiler: Option<BoxedProfileSink>,
}

impl<'a> RunSpec<'a> {
    /// A run of `controller` on `points` with every option defaulted.
    pub fn new(controller: ControllerKind, points: &'a [Point]) -> Self {
        RunSpec {
            controller,
            points,
            scheduler: SchedulerKind::Fsync,
            seed: 0,
            budget: None,
            threads: 1,
            observer: None,
            profiler: None,
        }
    }

    /// Activation policy (default FSYNC).
    pub fn scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Orientation-scrambling and scheduler seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Round budget (default [`budget_for`] the population).
    pub fn budget(mut self, budget: u64) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Engine worker threads (default 1; 0 = available parallelism).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Attach a per-round record observer.
    pub fn observer(mut self, observer: BoxedRoundObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Attach a per-round profile sink.
    pub fn profiler(mut self, profiler: BoxedProfileSink) -> Self {
        self.profiler = Some(profiler);
        self
    }

    /// Execute the run until gathered or the budget dies.
    pub fn run(self) -> Measurement {
        match self.controller {
            ControllerKind::Paper => run_engine(GatherController::paper(), self),
            ControllerKind::Center => run_engine(GoToCenter::paper_radius(), self),
            ControllerKind::Greedy => run_greedy(self.points, self.round_budget()),
        }
    }

    /// The round budget: the one set, else [`budget_for`] the population.
    fn round_budget(&self) -> u64 {
        self.budget.unwrap_or_else(|| budget_for(self.points.len()))
    }
}

impl std::fmt::Debug for RunSpec<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunSpec")
            .field("controller", &self.controller)
            .field("scheduler", &self.scheduler)
            .field("n", &self.points.len())
            .field("seed", &self.seed)
            .field("budget", &self.budget)
            .field("threads", &self.threads)
            .field("observer", &self.observer.is_some())
            .field("profiler", &self.profiler.is_some())
            .finish()
    }
}

/// Drive `controller` through the engine on `spec`'s points until
/// gathered or the budget dies. Connectivity is *observed*, not enforced
/// (beyond [`engine_config`]'s weak-scheduler probe): the GoToCenter
/// baseline is allowed to break the model's invariant so the
/// measurement can report how often it does.
fn run_engine<C: grid_engine::Controller>(controller: C, spec: RunSpec<'_>) -> Measurement {
    let budget = spec.round_budget();
    let RunSpec { points, scheduler, seed, threads, observer, profiler, .. } = spec;
    let config = engine_config(threads, scheduler.to_policy(seed, points.len()));
    let mut engine =
        Engine::from_positions(points, OrientationMode::Scrambled(seed), controller, config);
    if let Some(observer) = observer {
        engine.set_observer(observer);
    }
    if let Some(profiler) = profiler {
        engine.set_profiler(profiler);
    }
    finish(points.len(), engine.run_until_gathered(budget), &mut engine)
}

/// Run the sequential greedy baseline. A failed run (budget exhausted,
/// no progress) reports the rounds, merges and activations it actually
/// achieved — not zeros — and connectivity is measured on the final
/// swarm, like every other runner.
fn run_greedy(points: &[Point], budget: u64) -> Measurement {
    let n = points.len();
    let mut greedy = AsyncGreedy::new(points);
    let gathered = greedy.run(budget).is_ok();
    Measurement {
        n,
        rounds: greedy.rounds(),
        merges: greedy.merged(),
        gathered,
        connected: is_connected(greedy.swarm()),
        activations: greedy.activations(),
    }
}

/// Fold an engine run into a [`Measurement`]. Truthful on every path:
/// `connected` is computed from the swarm the run actually ended with,
/// and a failed run keeps its real rounds/merges/activations (an
/// earlier version reported `connected: true` even for
/// [`EngineError::Disconnected`]).
fn finish<C: grid_engine::Controller>(
    n: usize,
    result: Result<RunOutcome, EngineError>,
    engine: &mut Engine<C>,
) -> Measurement {
    let (rounds, gathered) = match &result {
        Ok(out) => (out.rounds, true),
        Err(_) => (engine.round(), false),
    };
    Measurement {
        n,
        rounds,
        merges: engine.metrics().total_merged,
        gathered,
        connected: is_connected(&engine.swarm),
        activations: engine.metrics().total_activations,
    }
}

/// The budget used by scaling experiments: generous multiple of the
/// theoretical O(n) bound.
pub fn budget_for(n: usize) -> u64 {
    500 * n as u64 + 20_000
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_runs_paper_algorithm() {
        let m = RunSpec::new(ControllerKind::Paper, &gather_workloads::line(32))
            .seed(1)
            .budget(1000)
            .run();
        assert!(m.gathered);
        assert!(m.rounds <= 32);
        assert_eq!(m.n, 32);
        assert!(m.activations >= 32, "FSYNC activates everyone every round");
    }

    #[test]
    fn harness_runs_baselines() {
        let pts = gather_workloads::random_blob(64, 5);
        assert!(RunSpec::new(ControllerKind::Center, &pts).seed(1).budget(5000).run().gathered);
        assert!(RunSpec::new(ControllerKind::Greedy, &pts).budget(500).run().gathered);
    }

    #[test]
    fn controller_kind_registry_round_trips() {
        for kind in ControllerKind::ALL {
            assert_eq!(ControllerKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(ControllerKind::parse("nope"), None);
    }

    #[test]
    fn scheduler_kind_registry_round_trips() {
        for kind in [
            SchedulerKind::Fsync,
            SchedulerKind::Ssync { p: 50 },
            SchedulerKind::Ssync { p: 1 },
            SchedulerKind::Ssync { p: 100 },
            SchedulerKind::RoundRobin { k: 1 },
            SchedulerKind::RoundRobin { k: 4 },
            SchedulerKind::Crash { f: 1 },
            SchedulerKind::Crash { f: 12 },
            SchedulerKind::Async { s: 1 },
            SchedulerKind::Async { s: 4 },
        ] {
            assert_eq!(kind.name().parse(), Ok(kind), "{kind}");
            assert!(kind.validate().is_ok());
        }
        for bad in [
            "nope",
            "ssync-p0",
            "ssync-p101",
            "ssync-p",
            "rr0",
            "rr",
            "rr-1",
            "fsync2",
            "crash-f0",
            "crash-f",
            "crash-f-1",
            "crash",
            "async-s0",
            "async-s",
            "async-s-1",
            "async",
        ] {
            assert!(bad.parse::<SchedulerKind>().is_err(), "{bad:?} must not parse");
        }
        assert!(SchedulerKind::Ssync { p: 0 }.validate().is_err());
        assert!(SchedulerKind::RoundRobin { k: 0 }.validate().is_err());
        assert!(SchedulerKind::Crash { f: 0 }.validate().is_err());
        assert!(SchedulerKind::Async { s: 0 }.validate().is_err());
    }

    #[test]
    fn crash_runs_are_reproducible_and_actually_deactivate_robots() {
        use std::cell::RefCell;
        use std::rc::Rc;

        // A crashed robot is a permanent obstacle, so gathering can
        // genuinely fail — the point of the fault model. Whatever the
        // outcome, it must be deterministic, and some round must
        // activate strictly fewer robots than are alive (comparing
        // totals against `rounds · n` would pass vacuously once any
        // merge shrinks the population).
        let pts = gather_workloads::line(32);
        let sched = SchedulerKind::Crash { f: 3 };
        let budget = budget_for(pts.len());
        let run = || {
            RunSpec::new(ControllerKind::Paper, &pts).scheduler(sched).seed(11).budget(budget).run()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.activations, b.activations);
        assert_eq!(a.gathered, b.gathered);
        assert!(a.rounds > 0 && a.activations > 0);

        // A given seed's crash rounds can all land after a short run
        // gathers, so scan a few seeds: at least one must show a round
        // that activates strictly fewer robots than are alive. (This
        // is the non-vacuous form — comparing activation totals against
        // `rounds · n` passes for plain FSYNC too once merges shrink
        // the population.)
        let saw_crashed_round = (0..10u64).any(|seed| {
            let rounds: Rc<RefCell<Vec<grid_engine::RoundRecord>>> = Rc::default();
            let sink = rounds.clone();
            RunSpec::new(ControllerKind::Paper, &pts)
                .scheduler(sched)
                .seed(seed)
                .budget(budget)
                .observer(Box::new(move |rec| sink.borrow_mut().push(rec.clone())))
                .run();
            let mut population = pts.len();
            let recs = rounds.borrow();
            let crashed = recs.iter().any(|rec| {
                let crashed = rec.activated.len(population) < population;
                population = rec.population as usize;
                crashed
            });
            crashed
        });
        assert!(saw_crashed_round, "no seed in 0..10 ever deactivated a live robot");
    }

    #[test]
    fn observed_runs_stream_rounds_and_match_unobserved_results() {
        use std::cell::RefCell;
        use std::rc::Rc;

        let pts = gather_workloads::line(24);
        let plain = RunSpec::new(ControllerKind::Paper, &pts).seed(2).budget(1000).run();
        let rounds: Rc<RefCell<Vec<grid_engine::RoundRecord>>> = Rc::default();
        let sink = rounds.clone();
        let observed = RunSpec::new(ControllerKind::Paper, &pts)
            .seed(2)
            .budget(1000)
            .observer(Box::new(move |rec| sink.borrow_mut().push(rec.clone())))
            .run();
        assert_eq!(observed.rounds, plain.rounds, "observing changed the run");
        assert_eq!(observed.merges, plain.merges);
        let rounds = rounds.borrow();
        assert_eq!(rounds.len() as u64, plain.rounds, "one record per round");
        let merged: u32 = rounds.iter().map(|r| r.merged).sum();
        assert_eq!(merged as usize, plain.merges);

        // The greedy strawman has no engine rounds: observer untouched.
        let greedy_rounds: Rc<RefCell<Vec<grid_engine::RoundRecord>>> = Rc::default();
        let sink = greedy_rounds.clone();
        RunSpec::new(ControllerKind::Greedy, &pts)
            .seed(2)
            .budget(1000)
            .observer(Box::new(move |rec| sink.borrow_mut().push(rec.clone())))
            .run();
        assert!(greedy_rounds.borrow().is_empty());
    }

    #[test]
    fn every_controller_gathers_a_short_line() {
        let pts = gather_workloads::line(48);
        for kind in ControllerKind::ALL {
            let m = RunSpec::new(kind, &pts).seed(9).budget(25_000).run();
            assert_eq!(m.n, 48, "{kind}");
            assert!(m.gathered, "{kind} did not gather a short line");
            assert!(m.connected, "{kind} final swarm must be connected");
        }
    }

    #[test]
    fn failed_runs_report_truthfully() {
        // A 1-round budget cannot gather a 32-line under the engine
        // controllers: the measurement must keep the real (partial)
        // counters and measure connectivity on the actual final swarm.
        let pts = gather_workloads::line(32);
        for kind in [ControllerKind::Paper, ControllerKind::Center] {
            let m = RunSpec::new(kind, &pts).seed(3).budget(1).run();
            assert!(!m.gathered, "{kind}");
            assert_eq!(m.rounds, 1, "{kind}");
            assert!(m.connected, "{kind}: neither controller disconnects a line in one round");
            assert_eq!(m.activations, 32, "{kind}: one FSYNC round activates everyone");
        }
        // The greedy cascade eats a line in one pass, so starve it on a
        // blob that needs several: the partial pass must stay recorded.
        let blob = gather_workloads::random_blob(150, 7);
        let m = RunSpec::new(ControllerKind::Greedy, &blob).budget(1).run();
        assert!(!m.gathered);
        assert_eq!(m.rounds, 1, "greedy failure must keep its real pass count");
        assert!(m.merges > 0, "greedy failure must keep its real merge count");
        assert!(m.connected, "greedy never disconnects");
    }

    #[test]
    fn ssync_and_round_robin_runs_are_reproducible_and_gather() {
        // Combos that empirically survive weak synchrony: the paper's
        // algorithm on lines, and the GoToCenter baseline on the 2-D
        // families (see `paper_algorithm_breaks_off_fsync_on_2d_shapes`
        // for the honest other half).
        let combos: Vec<(ControllerKind, Vec<Point>)> = vec![
            (ControllerKind::Paper, gather_workloads::line(24)),
            (ControllerKind::Paper, gather_workloads::line(48)),
            (ControllerKind::Center, gather_workloads::square(5)),
            (ControllerKind::Center, gather_workloads::random_blob(24, 3)),
            (ControllerKind::Center, gather_workloads::hollow_rectangle(6, 6, 1)),
        ];
        for (ctrl, pts) in &combos {
            for sched in [SchedulerKind::Ssync { p: 50 }, SchedulerKind::RoundRobin { k: 4 }] {
                // Partial activation stretches rounds by ~n/k (resp.
                // 100/p), so scale the FSYNC budget accordingly.
                let budget = budget_for(pts.len()) * pts.len() as u64;
                let run = || RunSpec::new(*ctrl, pts).scheduler(sched).seed(5).budget(budget).run();
                let (a, b) = (run(), run());
                assert_eq!(a.rounds, b.rounds, "{ctrl}/{sched} not reproducible");
                assert_eq!(a.merges, b.merges, "{ctrl}/{sched} not reproducible");
                assert_eq!(a.activations, b.activations, "{ctrl}/{sched} not reproducible");
                assert!(a.gathered, "{ctrl}/{sched} did not gather");
                assert!(
                    a.activations < a.rounds * pts.len() as u64,
                    "{ctrl}/{sched} must do strictly less work per round than FSYNC"
                );
            }
        }
        // Different seeds give different SSYNC activation draws.
        let pts = gather_workloads::line(48);
        let sched = SchedulerKind::Ssync { p: 50 };
        let budget = budget_for(pts.len()) * pts.len() as u64;
        let a =
            RunSpec::new(ControllerKind::Paper, &pts).scheduler(sched).seed(5).budget(budget).run();
        let c =
            RunSpec::new(ControllerKind::Paper, &pts).scheduler(sched).seed(6).budget(budget).run();
        assert!(
            a.rounds != c.rounds || a.activations != c.activations,
            "independent seeds should not collide on both rounds and activations"
        );
    }

    #[test]
    fn async_runs_are_reproducible_and_stretch_rounds() {
        let pts = gather_workloads::line(24);
        let sched = SchedulerKind::Async { s: 3 };
        let budget = budget_for(pts.len()) * 4;
        let run = || {
            RunSpec::new(ControllerKind::Paper, &pts).scheduler(sched).seed(7).budget(budget).run()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.rounds, b.rounds, "async run not reproducible");
        assert_eq!(a.merges, b.merges, "async run not reproducible");
        assert_eq!(a.activations, b.activations, "async run not reproducible");
        assert_eq!(a.gathered, b.gathered, "async run not reproducible");
        // In-flight robots skip their look, so ASYNC does strictly less
        // look work per round than FSYNC would.
        assert!(a.rounds > 0);
        assert!(a.activations < a.rounds * pts.len() as u64, "async never left a robot in flight");
    }

    #[test]
    fn paper_algorithm_breaks_off_fsync_on_2d_shapes() {
        // The honest negative result the scheduler sweep exists to
        // surface: the paper's safety argument leans on simultaneous
        // moves, and under SSYNC the square family disconnects. The
        // harness must record that truthfully (this exact path used to
        // report `connected: true`).
        let pts = gather_workloads::square(4);
        let m = RunSpec::new(ControllerKind::Paper, &pts)
            .scheduler(SchedulerKind::Ssync { p: 50 })
            .seed(1)
            .budget(budget_for(pts.len()) * pts.len() as u64)
            .run();
        assert!(!m.gathered && !m.connected, "expected a truthful disconnection record");
        assert!(m.rounds > 0 && m.activations > 0);
    }
}
