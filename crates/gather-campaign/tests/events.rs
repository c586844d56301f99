//! Integration tests for the observability surface: a campaign driven
//! through the observed executor + ProgressReporter emits a complete,
//! validating event stream (panics included); `--perf` records survive
//! the sink round trip with sane phase coverage; and profiling never
//! perturbs recorded traces.

use std::ops::ControlFlow;
use std::path::PathBuf;

use gather_bench::{ControllerKind, SchedulerKind};
use gather_campaign::executor::{self, JobEvent};
use gather_campaign::{
    load_records, CampaignSpec, JsonlSink, ProgressReporter, Scenario, ScenarioRecord,
};
use gather_obs::{read_events, validate, Event, Status};
use gather_workloads::Family;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gather-events-test-{name}-{}", std::process::id()))
}

fn small_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::named("events-test");
    spec.families = vec![Family::Line, Family::Square];
    spec.sizes = vec![16];
    spec.seeds = vec![1, 2];
    spec.controllers = vec![ControllerKind::Paper];
    spec.schedulers = vec![SchedulerKind::Fsync];
    spec
}

/// The bin's `run --events` wiring, end to end: every scenario gets
/// exactly one started/finished pair, panics are isolated and counted,
/// and the stream terminates with `job_finished` — so `events tail`
/// would exit zero on it.
#[test]
fn observed_campaign_emits_a_complete_validating_stream() {
    let jobs = small_spec().expand();
    let events_path = tmp("stream.ndjson");
    let out = tmp("stream-results.jsonl");
    let mut sink = JsonlSink::create(&out).unwrap();
    let mut reporter =
        ProgressReporter::start("events-test", jobs.len(), Some(&events_path), false, true)
            .unwrap();
    executor::execute_jobs_observed(
        &jobs,
        4,
        |sc: &Scenario| {
            // One scenario panics mid-run; the stream must still pair
            // and terminate cleanly.
            if sc.seed == 2 && sc.family == Family::Square {
                panic!("injected failure");
            }
            sc.run()
        },
        |sc, secs| {
            let mut rec = ScenarioRecord::for_panic(sc);
            rec.secs = secs;
            rec
        },
        |event| {
            match event {
                JobEvent::Started(i) => reporter.scenario_started(&jobs[i].id()).unwrap(),
                JobEvent::Finished(_i, rec, secs) => {
                    sink.write(&rec).unwrap();
                    reporter.scenario_finished(&rec, secs).unwrap();
                }
            }
            ControlFlow::Continue(())
        },
    );
    reporter.finish().unwrap();
    drop(sink);

    let stream = read_events(&events_path).unwrap();
    assert!(!stream.torn);
    assert_eq!(stream.skipped, 0);
    let summary = validate(&stream.events).unwrap();
    assert!(summary.complete, "a finished campaign must end with job_finished");
    assert_eq!(summary.finished, jobs.len());
    assert_eq!(summary.done, jobs.len());
    assert_eq!(summary.panicked, 1);
    assert_eq!(summary.job, "events-test");

    // Panicked scenarios report their real (nonzero-capable) elapsed
    // time in the stream, and every finished event carries secs >= 0.
    let finish_secs: Vec<f64> = stream
        .events
        .iter()
        .filter_map(|e| match e {
            Event::ScenarioFinished { secs, .. } => Some(*secs),
            _ => None,
        })
        .collect();
    assert_eq!(finish_secs.len(), jobs.len());
    assert!(finish_secs.iter().all(|s| *s >= 0.0));
    let panics = stream
        .events
        .iter()
        .filter(|e| matches!(e, Event::ScenarioFinished { status: Status::Panicked, .. }))
        .count();
    assert_eq!(panics, 1);

    std::fs::remove_file(&events_path).unwrap();
    std::fs::remove_file(&out).unwrap();
}

/// `--perf` records round-trip through the JSONL sink and carry a phase
/// breakdown that accounts for the round loop's wall time.
#[test]
fn profiled_records_round_trip_with_sane_coverage() {
    let sc = Scenario {
        family: Family::Clusters,
        n: 256,
        seed: 3,
        controller: ControllerKind::Paper,
        scheduler: SchedulerKind::Fsync,
    };
    let rec = sc.execute(None, true).record;
    assert!(rec.secs > 0.0, "profiled runs measure wall time");
    let perf = rec.perf.as_ref().expect("profiled engine runs carry a perf block");
    assert!(perf.rounds > 0);
    assert!(perf.wall_s > 0.0);
    // The named phases must account for the large majority of the round
    // loop (the remainder is loop scaffolding between probes).
    let coverage = perf.coverage();
    assert!(coverage > 0.8, "phase coverage {coverage} too low");

    let out = tmp("perf-results.jsonl");
    let mut sink = JsonlSink::create(&out).unwrap();
    sink.write(&rec).unwrap();
    drop(sink);
    let (records, skipped) = load_records(&out).unwrap();
    assert_eq!(skipped, 0);
    assert_eq!(records.len(), 1);
    assert_eq!(records[0], rec, "perf fields must survive the sink round trip");
    std::fs::remove_file(&out).unwrap();
}

/// The acceptance property: recording a trace with profiling on yields
/// a byte-identical `.gtrc` to recording without — observation never
/// perturbs results.
#[test]
fn profiling_never_perturbs_recorded_traces() {
    let sc = Scenario {
        family: Family::RandomBlob,
        n: 64,
        seed: 5,
        controller: ControllerKind::Paper,
        scheduler: SchedulerKind::Ssync { p: 50 },
    };
    let plain_dir = tmp("trace-plain");
    let perf_dir = tmp("trace-perf");
    std::fs::create_dir_all(&plain_dir).unwrap();
    std::fs::create_dir_all(&perf_dir).unwrap();

    let plain = sc.execute(Some(&plain_dir), false);
    let profiled = sc.execute(Some(&perf_dir), true);
    assert!(plain.error.is_none() && profiled.error.is_none());
    assert!(profiled.record.perf.is_some(), "perf recording carries the phase breakdown");
    assert_eq!(plain.record.rounds, profiled.record.rounds, "profiling changed the simulation");

    let a = std::fs::read(plain.trace_path.as_ref().unwrap()).unwrap();
    let b = std::fs::read(profiled.trace_path.as_ref().unwrap()).unwrap();
    assert_eq!(a, b, "profiling must leave traces byte-identical");

    std::fs::remove_dir_all(&plain_dir).unwrap();
    std::fs::remove_dir_all(&perf_dir).unwrap();
}

/// `campaign events tail` on a file that does not exist names the file
/// once in its error and exits 1.
#[test]
fn events_tail_of_a_missing_file_names_it_once() {
    let missing = tmp("missing.ndjson");
    let _ = std::fs::remove_file(&missing);
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(["events", "tail"])
        .arg(&missing)
        .output()
        .expect("campaign runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let path = missing.display().to_string();
    assert_eq!(stderr.matches(path.as_str()).count(), 1, "{stderr}");
    assert!(stderr.starts_with("error: reading "), "{stderr}");
}
