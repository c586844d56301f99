//! # gatherbench
//!
//! The repository's end-to-end and per-layer benchmark (`BENCHMARK.json`
//! at the repository root). One process drives the workspace's public
//! APIs in-process, checks every output, and prints one result line.
//!
//! ```text
//! gatherbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! * `--trace 0` measures the end-to-end metrics with tracing off.
//! * `--trace 1` spends half the time untraced and half traced, and
//!   reports the per-layer metrics plus the tracing overhead on every
//!   end-to-end metric.
//!
//! Workloads, metric definitions and the layer map are in README.md.
//! Every clock read goes through [`now`].

pub mod calib;
pub mod fsync;
pub mod probe;
pub mod report;
pub mod stats;
pub mod sweep;
pub mod trace;

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use crate::calib::Calibration;
use crate::probe::{DecideAcc, EngineAcc};
use crate::report::{Metrics, Stamp};
use crate::stats::per;
use crate::trace::Tracer;

/// The benchmark's clock. Its readings time the benchmark's own calls
/// and never reach a record, a digest or a cache key.
pub fn now() -> Instant {
    // audit: allow(wall-clock) benchmark timing; never reaches a record or digest
    Instant::now()
}

/// The benchmark's workloads (see README.md for why each exists).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    FsyncGather,
    ScaleFsync,
    WeakSweep,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::FsyncGather, Workload::ScaleFsync, Workload::WeakSweep];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FsyncGather => "fsync-gather",
            Workload::ScaleFsync => "scale-fsync",
            Workload::WeakSweep => "weak-sweep",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Seeds used while writing and tuning changes.
pub const TUNING_SEEDS: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

/// Seeds reserved for checking a performance claim; not used while the
/// change is written.
pub const HELD_OUT_SEEDS: [u64; 8] = [101, 102, 103, 104, 105, 106, 107, 108];

#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    pub workload: Workload,
    /// Sets the random-blob and clusters shapes and the orientations of
    /// the FSYNC workloads; weak-sweep runs a fixed cut (see
    /// [`sweep::weak_spec`]).
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes, for the benchmark's own tests (no command-line flag).
    pub tiny: bool,
    /// Replace the pinned `(rounds, digest)` table for this run (tests).
    pub pins: Option<Vec<(u64, u64)>>,
}

impl Args {
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: Workload::FsyncGather,
            seed: 1,
            seconds: 10.0,
            trace: false,
            tiny: false,
            pins: None,
        };
        let mut workload = None;
        let mut it = argv.into_iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    workload = Some(
                        Workload::parse(&name)
                            .ok_or_else(|| format!("unknown workload {name:?}"))?,
                    );
                }
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    }
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        args.workload = workload.ok_or("--workload is required")?;
        if !(args.seconds.is_finite() && args.seconds > 0.0) {
            return Err("--seconds must be positive".into());
        }
        Ok(args)
    }
}

/// Verification bookkeeping: every checked operation counts as
/// attempted; a miss is counted and described, never a crash.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub misses: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.misses.push(what());
        }
    }
}

/// Per-layer accumulators filled by a traced half.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    pub engine: EngineAcc,
    /// Identical passes folded into `engine`.
    pub engine_passes: u64,
    pub decide: DecideAcc,
    /// Workload-specific per-layer figures.
    pub extra: Metrics,
}

/// Everything a workload needs besides its tracer.
#[derive(Clone, Debug)]
pub struct Ctx {
    pub seed: u64,
    pub tiny: bool,
    /// Compute threads: the cores this process may use.
    pub threads: usize,
    /// Scratch directory of this run, relative to the working directory
    /// (the service's socket path must stay short).
    pub dir: PathBuf,
    pub pins: Option<Vec<(u64, u64)>>,
    /// Passes each measured half runs at least: three when measuring end
    /// to end, so the median passes over one disturbed pass and repeats
    /// can be compared; one per half when tracing.
    pub min_passes: usize,
}

/// One measured half of a run.
#[derive(Clone, Debug, Default)]
pub struct Measured {
    /// `setup_s`, `gather_s` and `activations_per_s`.
    pub e2e: Metrics,
    pub layers: Layers,
    /// Human-readable lines printed before the result line.
    pub summary: Vec<String>,
}

/// A finished run.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub stamp: Stamp,
    pub e2e: Metrics,
    pub layers: Metrics,
    pub checks: Checks,
    pub summary: Vec<String>,
}

/// Run `pass` for about `seconds`: another pass starts only while the
/// median pass so far still fits, and at least `min` passes run.
pub fn measure<T>(seconds: f64, min: usize, mut pass: impl FnMut(usize) -> T) -> Vec<T> {
    let start = now();
    let mut out = Vec::new();
    let mut secs = Vec::new();
    loop {
        let t = now();
        out.push(pass(out.len()));
        secs.push(t.elapsed().as_secs_f64());
        if out.len() >= min && start.elapsed().as_secs_f64() + stats::median(&secs) > seconds {
            return out;
        }
    }
}

/// Set-up repetitions in one block. A workload times a block before its
/// first pass and another before every pass, and reports the median over
/// all of them. One set-up takes 0.5–25 ms, mostly allocation; the first
/// repetition also pays the page faults and takes about 2.5 times as
/// long, so the median leaves it out. The host's speed drifts by tens of
/// percent over minutes (README.md, "Measuring on a shared host"): one
/// block at the start saw a single moment of it, and its median spread
/// by 0.35 over ten weak-sweep runs where the passes spread by 0.15.
pub const SETUP_REPS: usize = 34;

/// Time `reps` repetitions of a workload's set-up, with a calibration
/// point after each; returns every repetition's calibrated seconds and
/// the last repetition's product.
pub fn setup_reps<T>(
    reps: usize,
    tracer: &mut Tracer,
    mut f: impl FnMut(&mut Tracer) -> T,
) -> (Vec<f64>, T) {
    let mut secs = Vec::with_capacity(reps);
    let mut cal = Calibration::new(1);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = now();
        let made = tracer.span("setup", &mut f);
        secs.push(t.elapsed().as_secs_f64());
        cal.point();
        last = Some(made);
    }
    let slowness = cal.slowness();
    (secs.into_iter().map(|s| s / slowness).collect(), last.expect("at least one repetition"))
}

fn run_half(
    w: Workload,
    ctx: &Ctx,
    tracer: &mut Tracer,
    seconds: f64,
    checks: &mut Checks,
) -> Measured {
    match w {
        Workload::FsyncGather => fsync::gather(ctx, tracer, seconds, checks),
        Workload::ScaleFsync => fsync::scale(ctx, tracer, seconds, checks),
        Workload::WeakSweep => sweep::batch(ctx, tracer, seconds, checks),
    }
}

/// Per-layer figures derived from span self times and counters.
fn span_metrics(tracer: &Tracer, m: &mut Metrics) {
    let layers = tracer.layers();
    let self_ns = |name: &str| layers.get(name).map_or(0, |l| l.self_ns);
    let mean_ns = |name: &str| layers.get(name).map_or(0.0, |l| per(l.total_ns, l.count));
    m.insert(
        "workloads.gen_ns_per_robot",
        per(self_ns("workloads.family"), tracer.counter("robots.generated")),
    );
    m.insert("swarm.build_ns_per_robot", per(self_ns("swarm.new"), tracer.counter("robots.built")));
    m.insert(
        "connectivity.ns_per_robot",
        per(self_ns("connectivity.is_connected"), tracer.counter("robots.connectivity")),
    );
    m.insert("spec.expand_ms", mean_ns("spec.expand") / 1e6);
    m.insert("sink.write_us", mean_ns("sink.write") / 1e3);
    m.insert("cache.store_us", mean_ns("cache.store") / 1e3);
    m.insert("cache.lookup_us", mean_ns("cache.lookup") / 1e3);
    m.insert("service.resubmit_ms", mean_ns("service.resubmit") / 1e6);
}

/// Run the workload and verify its outputs.
pub fn run(args: &Args) -> Result<Outcome, String> {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let cores = report::cores();
    let ctx = Ctx {
        seed: args.seed,
        tiny: args.tiny,
        threads: cores,
        dir: PathBuf::from(".gatherbench").join(format!(
            "{}-s{}-t{}-p{}-{}",
            args.workload.name(),
            args.seed,
            u8::from(args.trace),
            std::process::id(),
            RUNS.fetch_add(1, Ordering::Relaxed),
        )),
        pins: args.pins.clone(),
        min_passes: if args.trace { 1 } else { 3 },
    };
    std::fs::create_dir_all(&ctx.dir)
        .map_err(|e| format!("creating {}: {e}", ctx.dir.display()))?;
    let threads = match args.workload {
        Workload::FsyncGather => 1,
        _ => ctx.threads,
    };
    let stamp = Stamp {
        workload: args.workload.name(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        tiny: args.tiny,
        cores,
        threads,
        rustc: env!("GATHERBENCH_RUSTC"),
        commit: report::commit(),
    };
    let mut checks = Checks::default();
    let mut e2e;
    let mut layers = Metrics::new();
    let mut summary;
    if !args.trace {
        let half =
            run_half(args.workload, &ctx, &mut Tracer::new(false), args.seconds, &mut checks);
        e2e = half.e2e;
        e2e.insert("peak_rss_mb", report::peak_rss_mb());
        summary = half.summary;
    } else {
        let base =
            run_half(args.workload, &ctx, &mut Tracer::new(false), args.seconds / 2.0, &mut checks);
        let mut untraced = base.e2e;
        untraced.insert("peak_rss_mb", report::peak_rss_mb());
        let mut tracer = Tracer::new(true);
        let traced = run_half(args.workload, &ctx, &mut tracer, args.seconds / 2.0, &mut checks);
        e2e = traced.e2e;
        e2e.insert("peak_rss_mb", report::peak_rss_mb());
        traced.layers.engine.metrics(traced.layers.engine_passes, &mut layers);
        traced.layers.decide.metrics(&mut layers);
        span_metrics(&tracer, &mut layers);
        layers.extend(traced.layers.extra);
        for (name, key) in [
            ("overhead.setup_s", "setup_s"),
            ("overhead.gather_s", "gather_s"),
            ("overhead.activations_per_s", "activations_per_s"),
            ("overhead.peak_rss_mb", "peak_rss_mb"),
        ] {
            let (on, off) = (e2e[key], untraced[key]);
            layers.insert(name, if off == 0.0 { 0.0 } else { (on - off) / off });
        }
        // Layers a workload does not pass through report 0.
        for (name, _) in report::PER_LAYER {
            layers.entry(name).or_insert(0.0);
        }
        let spans = ctx.dir.join("spans.jsonl");
        tracer
            .write_jsonl(&spans, args.workload.name())
            .map_err(|e| format!("writing {}: {e}", spans.display()))?;
        summary = base.summary;
        summary.extend(traced.summary);
        summary.push(format!("spans: {} written to {}", tracer.spans().len(), spans.display()));
    }
    Ok(Outcome { stamp, e2e, layers, checks, summary })
}
