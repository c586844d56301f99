//! End-to-end trace subsystem tests: record → replay with zero
//! divergence, byte-identical recording across thread counts, diff
//! between independent recordings, and exact divergence localisation on
//! a deliberately perturbed trace.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};

use gather_bench::{ControllerKind, RunSpec, SchedulerKind};
use gather_campaign::executor::{self, JobEvent};
use gather_campaign::trace_ops::{self, trace_file_name};
use gather_campaign::{CampaignSpec, DiffStatus, JobOutcome, ReplayStatus, Scenario};
use gather_trace::{read_all_rounds, TraceHeader, TraceReader, TraceWriter};
use gather_workloads::Family;

/// A small heterogeneous spec covering every controller (greedy rides
/// along untraced), a weak-synchrony scheduler, the crash-fault
/// scheduler, and true ASYNC (whose v2 traces carry in-flight pending
/// moves — record, replay and diff must all handle them).
fn small_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::named("trace-test");
    spec.families = vec![Family::Line, Family::Square];
    spec.sizes = vec![16];
    spec.seeds = vec![1, 2];
    spec.controllers = vec![ControllerKind::Paper, ControllerKind::Center, ControllerKind::Greedy];
    spec.schedulers = vec![
        SchedulerKind::Fsync,
        SchedulerKind::Ssync { p: 50 },
        SchedulerKind::Crash { f: 2 },
        SchedulerKind::Async { s: 2 },
    ];
    spec
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gather-trace-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn record_all(jobs: &[Scenario], threads: usize, dir: &Path) -> Vec<JobOutcome> {
    let mut outcomes = Vec::new();
    executor::execute_jobs_observed(
        jobs,
        threads,
        |sc| sc.execute(Some(dir), false),
        |sc, _secs| JobOutcome::for_panic(sc),
        |event| {
            if let JobEvent::Finished(_i, outcome, _secs) = event {
                assert!(outcome.error.is_none(), "trace write failed: {:?}", outcome.error);
                outcomes.push(outcome);
            }
            std::ops::ControlFlow::Continue(())
        },
    );
    outcomes
}

/// The headline acceptance property: record the small spec, then replay
/// every trace — zero divergent rounds, including the scenarios that
/// stall or disconnect (their failing evolution replays too).
#[test]
fn record_then_replay_reports_zero_divergence() {
    let dir = tmp_dir("replay");
    let jobs = small_spec().expand();
    let outcomes = record_all(&jobs, 4, &dir);
    assert_eq!(outcomes.len(), jobs.len());
    // Recording runs the scenario exactly as `run` does: the records a
    // recorded campaign writes are the records a plain one writes.
    for outcome in &outcomes {
        let sc = Scenario::parse_id(&outcome.record.id).expect("recorded IDs parse");
        assert_eq!(outcome.record, sc.run(), "{}: recording changed the record", sc.id());
    }

    // Engine scenarios got traces; greedy did not.
    let engine_jobs: Vec<&Scenario> =
        jobs.iter().filter(|sc| sc.controller != ControllerKind::Greedy).collect();
    let files = trace_ops::list_trace_files(&dir).unwrap();
    assert_eq!(files.len(), engine_jobs.len(), "one trace per engine scenario");

    for file in &files {
        let report = trace_ops::replay_trace(file);
        assert!(
            matches!(report.status, ReplayStatus::Match { .. }),
            "{}: {:?}",
            report.id,
            report.status
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Recording is deterministic down to the byte, across engine thread
/// counts and repeated runs — the property that makes traces usable as
/// regression baselines.
#[test]
fn recording_is_byte_identical_across_thread_counts() {
    let sc = Scenario {
        family: Family::Square,
        n: 16,
        seed: 3,
        controller: ControllerKind::Paper,
        scheduler: SchedulerKind::Ssync { p: 50 },
    };
    let points = sc.points();
    let budget = sc.budget(points.len());
    let header = TraceHeader {
        scenario_id: sc.id(),
        seed: sc.seed,
        config_digest: sc.config_digest(),
        initial: points.clone(),
    };
    let record_with_threads = |threads: usize| -> Vec<u8> {
        use std::cell::RefCell;
        use std::rc::Rc;
        let writer = TraceWriter::new(Vec::new(), &header).unwrap();
        let shared = Rc::new(RefCell::new(writer));
        let sink = shared.clone();
        RunSpec::new(sc.controller, &points)
            .scheduler(sc.scheduler)
            .seed(sc.seed)
            .budget(budget)
            .threads(threads)
            .observer(Box::new(move |rec| {
                sink.borrow_mut().write_round(rec).unwrap();
            }))
            .run();
        Rc::try_unwrap(shared).ok().unwrap().into_inner().finish().unwrap()
    };
    let reference = record_with_threads(1);
    assert!(!reference.is_empty());
    for threads in [2usize, 4] {
        assert_eq!(
            record_with_threads(threads),
            reference,
            "trace bytes changed with {threads} engine threads"
        );
    }
}

/// Two independent recordings of the same spec (different executor
/// thread counts) diff as zero drift.
#[test]
fn diff_between_recordings_reports_zero_drift() {
    let mut spec = small_spec();
    spec.seeds = vec![1];
    let jobs = spec.expand();
    let dir_a = tmp_dir("diff-a");
    let dir_b = tmp_dir("diff-b");
    record_all(&jobs, 1, &dir_a);
    record_all(&jobs, 8, &dir_b);
    let reports = trace_ops::diff_trace_dirs(&dir_a, &dir_b).unwrap();
    assert!(!reports.is_empty());
    for report in &reports {
        assert!(
            matches!(report.status, DiffStatus::Identical { .. }),
            "{}: {:?}",
            report.name,
            report.status
        );
    }
    std::fs::remove_dir_all(&dir_a).unwrap();
    std::fs::remove_dir_all(&dir_b).unwrap();
}

/// Perturbing one move in round R makes replay report round R exactly,
/// with the perturbed robot named; diff against the pristine trace
/// agrees.
#[test]
fn perturbed_trace_pins_the_exact_divergent_round() {
    let dir = tmp_dir("perturb");
    let sc = Scenario {
        family: Family::Line,
        n: 16,
        seed: 1,
        controller: ControllerKind::Paper,
        scheduler: SchedulerKind::Fsync,
    };
    let outcome = sc.execute(Some(&dir), false);
    assert!(outcome.error.is_none());
    let path = outcome.trace_path.unwrap();

    // Decode, flip one move mid-run, re-encode under the same header.
    let mut reader = TraceReader::new(BufReader::new(File::open(&path).unwrap())).unwrap();
    let header = reader.header().clone();
    let mut rounds = read_all_rounds(&mut reader).unwrap();
    assert!(rounds.len() >= 3, "need a mid-run round to perturb");
    let victim = rounds.len() / 2;
    let perturbed_round = rounds[victim].round;
    let m = rounds[victim].moves.first_mut().expect("paper rounds always move someone");
    let perturbed_robot = m.robot;
    m.dx = -m.dx;
    m.dy = -m.dy;
    let pristine = path.clone();
    let perturbed = dir.join(trace_file_name("perturbed"));
    let mut w =
        TraceWriter::new(BufWriter::new(File::create(&perturbed).unwrap()), &header).unwrap();
    for rec in &rounds {
        w.write_round(rec).unwrap();
    }
    w.finish().unwrap().into_inner().unwrap();

    let report = trace_ops::replay_trace(&perturbed);
    match report.status {
        ReplayStatus::Diverged(d) => {
            assert_eq!(d.round, perturbed_round, "wrong divergent round");
            assert_eq!(d.robot, Some(perturbed_robot), "wrong divergent robot");
        }
        other => panic!("expected divergence, got {other:?}"),
    }
    match trace_ops::diff_trace_files(&pristine, &perturbed) {
        DiffStatus::Diverged(d) => {
            assert_eq!(d.round, perturbed_round);
            assert_eq!(d.robot, Some(perturbed_robot));
        }
        other => panic!("expected diff divergence, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A bumped format version is a loud, exact error — never a misparse.
#[test]
fn version_mismatch_is_reported_not_misparsed() {
    let dir = tmp_dir("version");
    let sc = Scenario {
        family: Family::Line,
        n: 16,
        seed: 1,
        controller: ControllerKind::Center,
        scheduler: SchedulerKind::Fsync,
    };
    let outcome = sc.execute(Some(&dir), false);
    let path = outcome.trace_path.unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[4] = 0x63; // bump the version low byte
    std::fs::write(&path, &bytes).unwrap();
    let report = trace_ops::replay_trace(&path);
    match report.status {
        ReplayStatus::Error(e) => {
            assert!(e.contains("version"), "error should name the version: {e}");
        }
        other => panic!("expected a version error, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A truncated trace (killed recorder) is an error, and a trace whose
/// scenario definition drifted (config digest) is refused.
#[test]
fn truncated_and_drifted_traces_are_refused() {
    let dir = tmp_dir("refuse");
    let sc = Scenario {
        family: Family::Line,
        n: 16,
        seed: 2,
        controller: ControllerKind::Paper,
        scheduler: SchedulerKind::Fsync,
    };
    let outcome = sc.execute(Some(&dir), false);
    let path = outcome.trace_path.unwrap();
    let bytes = std::fs::read(&path).unwrap();

    // Killed recorder: drop the end marker and half the last round.
    let cut = dir.join(trace_file_name("cut"));
    std::fs::write(&cut, &bytes[..bytes.len() - bytes.len() / 4]).unwrap();
    assert!(
        matches!(
            trace_ops::replay_trace(&cut).status,
            ReplayStatus::Error(_) | ReplayStatus::Diverged(_)
        ),
        "truncation must not replay clean"
    );

    // Config drift: same file, doctored digest.
    let mut reader = TraceReader::new(BufReader::new(File::open(&path).unwrap())).unwrap();
    let mut header = reader.header().clone();
    let rounds = read_all_rounds(&mut reader).unwrap();
    header.config_digest ^= 1;
    let drifted = dir.join(trace_file_name("drifted"));
    let mut w = TraceWriter::new(BufWriter::new(File::create(&drifted).unwrap()), &header).unwrap();
    for rec in &rounds {
        w.write_round(rec).unwrap();
    }
    w.finish().unwrap().into_inner().unwrap();
    match trace_ops::replay_trace(&drifted).status {
        ReplayStatus::Error(e) => assert!(e.contains("config digest"), "{e}"),
        other => panic!("expected config-digest refusal, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The `campaign render` pipeline: a recorded `.gtrc` replays into the
/// ASCII movie and the SVG frame strip through `gather-viz`, with the
/// final frame matching the scenario's real outcome.
#[test]
fn recorded_trace_renders_movie_and_svg_strip() {
    let dir = tmp_dir("render");
    let sc = Scenario {
        family: Family::Line,
        n: 16,
        seed: 1,
        controller: ControllerKind::Paper,
        scheduler: SchedulerKind::Fsync,
    };
    let outcome = sc.execute(Some(&dir), false);
    assert!(outcome.error.is_none());
    let path = outcome.trace_path.expect("engine scenarios are traced");

    let mut reader = TraceReader::new(BufReader::new(File::open(&path).unwrap())).unwrap();
    let trace = gather_viz::Trace::from_reader(&mut reader, 1).expect("digest-verified replay");
    assert_eq!(trace.frames.len() as u64, 1 + outcome.record.rounds, "one frame per round + start");
    assert_eq!(trace.frames[0].points.len(), 16);
    let last = trace.frames.last().unwrap();
    assert_eq!(last.round, outcome.record.rounds);
    assert!(outcome.record.gathered && last.points.len() <= 4, "final frame is the gathered swarm");
    let movie = trace.render();
    assert!(movie.contains("--- round 0 ---"));
    assert!(movie.contains(&format!("--- round {} ---", outcome.record.rounds)));
    let strip = trace.render_svg_strip(4);
    assert!(strip.starts_with("<svg") && strip.ends_with("</svg>\n"));
    assert!(strip.matches("round ").count() == trace.frames.len());
    std::fs::remove_dir_all(&dir).unwrap();
}
