//! Large-n determinism smoke: record one bounded-round trace of the
//! engine at two thread counts, replay it through digest-verified
//! playback, and diff the two recordings — the CI guard that the
//! engine's sparse round-apply agrees with the dense replay, and that
//! the parallel compute map stays bit-identical, on every push.
//!
//! `campaign record`/`replay` re-execute whole scenarios to completion,
//! which at 10⁵+ robots means ~n rounds of work; the smoke instead
//! records a [`RunSpec`] run whose round budget is the smoke's
//! `--rounds`, so a 100 000-robot determinism check fits in a CI
//! minute. Playback re-derives the evolution from the recorded moves
//! through the dense `Swarm::apply_partial` and verifies every round's
//! population and position digest, so a clean replay certifies the
//! engine's sparse apply — not just that the file round-trips.

use std::cell::Cell;
use std::fs::{self, File};
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use gather_bench::{ControllerKind, Measurement, RunSpec, SchedulerKind};
use gather_trace::{Playback, TraceHeader, TraceReader};
use gather_workloads::Family;

use crate::trace_ops::{diff_trace_files, TraceFile};
use crate::DiffStatus;

#[derive(Clone, Debug, PartialEq)]
pub struct SmokeArgs {
    /// Target swarm size (the point of the smoke is n >= 10^5).
    pub n: usize,
    /// Round budget of the recorded run (the swarm need not gather; a
    /// run that gathers or stops earlier ends its trace there).
    pub rounds: u64,
    pub family: Family,
    pub seed: u64,
    /// The two engine thread counts whose recordings must be
    /// byte-identical.
    pub threads_a: usize,
    pub threads_b: usize,
    /// Activation policy for the recorded rounds. Every scheduler
    /// (`fsync`, `rr4`, `ssync-p50`, ...) drives the engine's sparse
    /// round path, while playback re-derives every round through the
    /// dense `Swarm::apply_partial` — so every smoke cross-checks the
    /// sparse apply against the dense one.
    pub scheduler: SchedulerKind,
    /// Where the two `.gtrc` files land.
    pub dir: PathBuf,
}

impl Default for SmokeArgs {
    fn default() -> Self {
        SmokeArgs {
            n: 100_000,
            rounds: 12,
            family: Family::Clusters,
            seed: 1,
            threads_a: 1,
            threads_b: 8,
            scheduler: SchedulerKind::Fsync,
            dir: PathBuf::from("smoke-traces"),
        }
    }
}

#[derive(Clone, Debug)]
pub struct SmokeReport {
    pub robots: usize,
    pub rounds: u64,
    pub occupied_tiles: usize,
    pub bounding_cells: u128,
    /// Robots the scheduler activated over the recorded rounds: the
    /// whole swarm per FSYNC round, `k` robots per rrK round.
    pub activations: u64,
    /// Activations per second of round time in the faster recording:
    /// the sum of the engine's per-round wall times
    /// ([`grid_engine::RoundProfile::wall_ns`]), so the engine build and
    /// the final connectivity check do not count.
    pub activations_per_s: f64,
    /// Robots the engine computed over the recorded rounds
    /// ([`grid_engine::RoundProfile::computed`]): the activations less
    /// those the quiet set skipped. The same at both thread counts, or
    /// the smoke fails: a robot woken by mistake computes again and
    /// decides the same, which no trace shows.
    pub computed: u64,
}

/// Record the smoke's run of the paper controller on `points` (round
/// budget `args.rounds`) on `threads` engine threads into a trace file,
/// returning its measurement, the seconds its rounds took and the
/// robots they computed, both summed from the engine's per-round
/// profiles (profiling never perturbs the rounds, so the trace is the
/// same with or without it). Streams through [`TraceFile`], like
/// `campaign record`.
fn record_bounded(
    args: &SmokeArgs,
    points: &[grid_engine::Point],
    header: &TraceHeader,
    threads: usize,
    path: &Path,
) -> Result<(Measurement, f64, u64), String> {
    let trace = TraceFile::with_header(path.to_path_buf(), header)
        .map_err(|e| format!("creating {}: {e}", path.display()))?;
    let (round_ns, computed) = (Rc::new(Cell::new(0u64)), Rc::new(Cell::new(0u64)));
    let (ns_sum, computed_sum) = (Rc::clone(&round_ns), Rc::clone(&computed));
    let run = RunSpec::new(ControllerKind::Paper, points)
        .scheduler(args.scheduler)
        .seed(args.seed)
        .budget(args.rounds)
        .threads(threads)
        .observer(trace.observer())
        .profiler(Box::new(move |p| {
            ns_sum.set(ns_sum.get() + p.wall_ns);
            computed_sum.set(computed_sum.get() + p.computed);
        }));
    let measurement = run.run();
    trace.finish().map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok((measurement, round_ns.get() as f64 * 1e-9, computed.get()))
}

/// Run the smoke: record at both thread counts, replay recording A
/// through digest-verified playback, and require the two files to be
/// identical both structurally and byte for byte.
pub fn run_smoke(args: &SmokeArgs) -> Result<SmokeReport, String> {
    let points = gather_workloads::family(args.family, args.n, args.seed);
    fs::create_dir_all(&args.dir).map_err(|e| format!("creating {}: {e}", args.dir.display()))?;
    let header = TraceHeader {
        scenario_id: format!(
            "smoke:{}/n{}/s{}/r{}/{}",
            args.family.name(),
            points.len(),
            args.seed,
            args.rounds,
            args.scheduler.name(),
        ),
        seed: args.seed,
        config_digest: gather_trace::digest_bytes(
            format!(
                "smoke|{}|{}|{}|{}|{}",
                args.family.name(),
                points.len(),
                args.seed,
                args.rounds,
                args.scheduler.name(),
            )
            .as_bytes(),
        ),
        initial: points.clone(),
    };
    let sched = args.scheduler;
    let path_a = args.dir.join(format!("smoke-{sched}-t{}.gtrc", args.threads_a));
    let path_b = args.dir.join(format!("smoke-{sched}-t{}.gtrc", args.threads_b));
    let (run, secs_a, computed_a) =
        record_bounded(args, &points, &header, args.threads_a, &path_a)?;
    let (_, secs_b, computed_b) = record_bounded(args, &points, &header, args.threads_b, &path_b)?;
    let tput_a = run.activations as f64 / secs_a.max(f64::EPSILON);
    let tput_b = run.activations as f64 / secs_b.max(f64::EPSILON);
    let (a, b) = (args.threads_a, args.threads_b);
    eprintln!(
        "recorded {} rounds x {} robots: {tput_a:.3e} activations/s of round time ({a} threads), \
         {tput_b:.3e} ({b} threads); computed {computed_a} robots ({a} threads), {computed_b} \
         ({b} threads)",
        run.rounds,
        points.len(),
    );
    // The quiet set's work must not depend on the thread count either.
    if computed_a != computed_b {
        return Err(format!(
            "thread counts {a} and {b} computed {computed_a} and {computed_b} robots"
        ));
    }

    // Replay: re-derive the evolution from recording A's moves alone
    // and verify every round's population and digest.
    let file = File::open(&path_a).map_err(|e| format!("opening {}: {e}", path_a.display()))?;
    let mut reader = TraceReader::new(BufReader::new(file)).map_err(|e| e.to_string())?;
    let mut playback = Playback::new(&reader.header().initial);
    let mut replayed = 0u64;
    loop {
        match reader.next_round() {
            Err(e) => return Err(format!("reading trace: {e}")),
            Ok(None) => break,
            Ok(Some(rec)) => {
                playback.apply(&rec).map_err(|e| format!("replay diverged: {e}"))?;
                replayed += 1;
            }
        }
    }
    if replayed != run.rounds {
        return Err(format!("trace holds {replayed} rounds, the run executed {}", run.rounds));
    }

    // Diff: the two recordings must agree structurally...
    match diff_trace_files(&path_a, &path_b) {
        DiffStatus::Identical { rounds } if rounds == replayed => {}
        other => {
            return Err(format!(
                "thread counts {} and {} produced drifting traces: {other:?}",
                args.threads_a, args.threads_b
            ))
        }
    }
    // ...and byte for byte (the strongest form of "independent of the
    // thread count").
    let bytes_a = fs::read(&path_a).map_err(|e| e.to_string())?;
    let bytes_b = fs::read(&path_b).map_err(|e| e.to_string())?;
    if bytes_a != bytes_b {
        return Err(format!(
            "traces are structurally equal but not byte-identical ({} vs {} bytes)",
            bytes_a.len(),
            bytes_b.len()
        ));
    }

    let final_swarm = playback.swarm();
    let bounds = final_swarm.bounds();
    Ok(SmokeReport {
        robots: points.len(),
        rounds: replayed,
        occupied_tiles: final_swarm.index().tile_count(),
        bounding_cells: bounds.width() as u128 * bounds.height() as u128,
        activations: run.activations,
        activations_per_s: tput_a.max(tput_b),
        computed: computed_a,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end FSYNC at a size above the compute map's parallel
    /// threshold that stays debug-build fast.
    #[test]
    fn smoke_passes_on_a_sharded_size() {
        let dir = std::env::temp_dir().join(format!("gather-smoke-{}", std::process::id()));
        let args = SmokeArgs {
            n: 1500,
            rounds: 3,
            family: Family::Clusters,
            seed: 3,
            threads_a: 1,
            threads_b: 2,
            scheduler: SchedulerKind::Fsync,
            dir: dir.clone(),
        };
        let report = run_smoke(&args).expect("smoke must pass");
        assert_eq!(report.rounds, 3);
        assert_eq!(report.robots, 1500);
        assert!(report.occupied_tiles >= 2, "clusters should span tiles");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Partial schedulers record through the sparse apply while playback
    /// replays densely: a passing smoke is an end-to-end sparse≡dense
    /// cross-check, per scheduler, with byte-identical traces across
    /// thread counts.
    #[test]
    fn smoke_passes_under_partial_schedulers() {
        let dir = std::env::temp_dir().join(format!("gather-smoke-sched-{}", std::process::id()));
        for scheduler in [
            SchedulerKind::RoundRobin { k: 4 },
            SchedulerKind::Ssync { p: 50 },
            SchedulerKind::Crash { f: 10 },
            SchedulerKind::Async { s: 3 },
        ] {
            let args = SmokeArgs {
                n: 1500,
                rounds: 4,
                family: Family::Clusters,
                seed: 7,
                threads_a: 1,
                threads_b: 4,
                scheduler,
                dir: dir.clone(),
            };
            let report =
                run_smoke(&args).unwrap_or_else(|e| panic!("{scheduler} smoke failed: {e}"));
            assert_eq!(report.rounds, 4, "{scheduler}");
            // Equal at both thread counts, or the smoke failed above.
            assert!(
                (1..=report.activations).contains(&report.computed),
                "{scheduler}: computed {} of {} activations",
                report.computed,
                report.activations
            );
            if scheduler == (SchedulerKind::RoundRobin { k: 4 }) {
                assert_eq!(report.activations, 16, "rr4 computes 4 robots a round");
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
