//! Property tests for the event stream: scripted campaign histories —
//! resumes, crashes, panics included — always validate with the counts
//! they were built from, survive the file round trip byte-exactly (read
//! at once or followed as they arrive), and torn tails are detected,
//! dropped, and repaired by a resume's append.

use std::collections::BTreeSet;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

use gather_obs::{read_events, validate, Event, EventWriter, FollowReader, Status};
use proptest::prelude::*;

/// A fresh temp path per test case (cases run sequentially, but leaked
/// files from a failed case must not collide with the next run).
fn tmp(name: &str) -> std::path::PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir()
        .join(format!("gather-obs-props-{}-{name}-{seq}.ndjson", std::process::id()))
}

/// One scripted segment: which scenario slots run (with a status
/// selector each), and whether the segment "crashes" leaving a
/// scenario in flight for the next segment to abandon.
type Segment = (Vec<(usize, u8)>, bool);

fn status_for(sel: u8) -> Status {
    match sel % 4 {
        0 => Status::Gathered,
        1 => Status::Stalled,
        2 => Status::Disconnected,
        _ => Status::Panicked,
    }
}

/// Expand a script into the event list a well-behaved campaign would
/// emit, plus the ground truth the validator must recover: distinct
/// finished scenarios, panic count, and completeness.
fn build_history(
    total: usize,
    segments: &[Segment],
    last_clean: bool,
) -> (Vec<Event>, BTreeSet<usize>, usize) {
    let mut events = Vec::new();
    let mut finished: BTreeSet<usize> = BTreeSet::new();
    let mut panicked = 0usize;
    for (s, (runs, crash)) in segments.iter().enumerate() {
        events.push(Event::JobStarted { job: "prop".into(), total });
        let mut done_in_segment = 0usize;
        for &(slot, sel) in runs {
            let slot = slot % total;
            // A resume never re-runs finished work, and a segment never
            // runs the same scenario twice.
            if !finished.insert(slot) {
                continue;
            }
            let id = format!("s{slot}");
            events.push(Event::ScenarioStarted { id: id.clone() });
            let status = status_for(sel);
            if status == Status::Panicked {
                panicked += 1;
            }
            events.push(Event::ScenarioFinished {
                id,
                status,
                rounds: u64::from(sel),
                secs: f64::from(sel) / 8.0,
                robot_rounds_per_s: f64::from(sel) * 3.0,
            });
            done_in_segment += 1;
            events.push(Event::Heartbeat {
                done: done_in_segment,
                total,
                eta_secs: f64::from(sel) / 2.0,
            });
        }
        let last = s + 1 == segments.len();
        if *crash && !last {
            // The crash tears mid-scenario: a started-but-unfinished
            // scenario the next segment's job_started must abandon.
            if let Some(slot) = (0..total).find(|sl| !finished.contains(sl)) {
                events.push(Event::ScenarioStarted { id: format!("s{slot}") });
            }
        }
        if last && last_clean {
            events.push(Event::JobFinished { done: done_in_segment, panicked, secs: 1.5 });
        }
    }
    (events, finished, panicked)
}

/// Write `bytes` to a fresh `path` in seeded chunks of 1–128 bytes,
/// polling a [`FollowReader`] after each chunk; returns the events it
/// parsed and the lines it skipped.
fn follow_in_chunks(bytes: &[u8], path: &Path, seed: u64) -> (Vec<Event>, usize) {
    let mut file = std::fs::File::create(path).unwrap();
    let mut reader = FollowReader::new(path);
    let mut events = Vec::new();
    let (mut state, mut rest) = (seed, bytes);
    while !rest.is_empty() {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        let (chunk, tail) = rest.split_at(rest.len().min(1 + (state >> 57) as usize));
        file.write_all(chunk).unwrap();
        rest = tail;
        events.extend(reader.poll().unwrap());
    }
    (events, reader.skipped())
}

fn segments_strategy() -> impl Strategy<Value = Vec<Segment>> {
    prop::collection::vec(
        (prop::collection::vec((0usize..12, 0u8..8), 0..10), prop::bool::ANY),
        1..4,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn scripted_histories_validate_with_matching_counts(
        total in 1usize..12,
        segments in segments_strategy(),
        last_clean in prop::bool::ANY,
    ) {
        let (events, finished, panicked) = build_history(total, &segments, last_clean);
        let summary = validate(&events).expect("a well-behaved history validates");
        prop_assert_eq!(summary.finished, finished.len());
        prop_assert_eq!(summary.panicked, panicked);
        prop_assert_eq!(summary.complete, last_clean);
        prop_assert_eq!(summary.total, total);
        prop_assert_eq!(summary.job.as_str(), "prop");
    }

    #[test]
    fn histories_survive_the_file_round_trip(
        total in 1usize..12,
        segments in segments_strategy(),
        last_clean in prop::bool::ANY,
        chunk_seed in any::<u64>(),
    ) {
        let (events, _, _) = build_history(total, &segments, last_clean);
        let path = tmp("roundtrip");
        // Each job_started after the first is a resume: append, like the
        // campaign's ProgressReporter does.
        let mut writer: Option<EventWriter> = None;
        for event in &events {
            if matches!(event, Event::JobStarted { .. }) {
                writer = Some(if writer.is_none() {
                    EventWriter::create(&path).unwrap()
                } else {
                    EventWriter::append(&path).unwrap()
                });
            }
            writer.as_mut().unwrap().emit(event).unwrap();
        }
        let stream = read_events(&path).unwrap();
        // The same bytes arriving in chunks follow to the same stream.
        let followed_path = tmp("followed");
        let (followed, skipped) =
            follow_in_chunks(&std::fs::read(&path).unwrap(), &followed_path, chunk_seed);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&followed_path).ok();
        prop_assert!(!stream.torn);
        prop_assert_eq!(stream.skipped, 0usize);
        prop_assert_eq!(&followed, &stream.events);
        prop_assert_eq!(skipped, stream.skipped);
        prop_assert_eq!(stream.events, events);
    }

    #[test]
    fn torn_tails_are_detected_dropped_and_repaired(
        total in 1usize..12,
        segments in segments_strategy(),
        frac in 1u32..1000,
    ) {
        let (events, _, _) = build_history(total, &segments, true);
        let path = tmp("torn");
        let mut w = EventWriter::create(&path).unwrap();
        for event in &events {
            w.emit(event).unwrap();
        }
        drop(w);
        // A writer killed mid-line leaves a strict prefix of an event
        // with no trailing newline.
        let line = Event::ScenarioStarted { id: "victim".into() }.to_json_line();
        let cut = 1 + (line.len() - 2) * frac as usize / 1000;
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&line.as_bytes()[..cut]).unwrap();
        drop(f);

        let stream = read_events(&path).unwrap();
        prop_assert!(stream.torn, "unterminated tail must mark the stream torn");
        prop_assert_eq!(&stream.events, &events);

        // Resume: append repairs the tail; the terminated tear sits
        // right before the new segment and is skipped, not fatal.
        let mut w = EventWriter::append(&path).unwrap();
        w.emit(&Event::JobStarted { job: "prop".into(), total }).unwrap();
        w.emit(&Event::JobFinished { done: 0, panicked: 0, secs: 0.1 }).unwrap();
        drop(w);
        let stream = read_events(&path).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert!(!stream.torn);
        prop_assert_eq!(stream.skipped, 1usize);
        prop_assert_eq!(stream.events.len(), events.len() + 2);
        let summary = validate(&stream.events).expect("repaired stream validates");
        prop_assert!(summary.complete);
    }

    #[test]
    fn duplicated_finish_events_are_rejected(
        total in 1usize..12,
        segments in segments_strategy(),
        last_clean in prop::bool::ANY,
    ) {
        let (mut events, finished, _) = build_history(total, &segments, last_clean);
        if finished.is_empty() {
            return Ok(()); // nothing finished, nothing to duplicate
        }
        let at = events
            .iter()
            .position(|e| matches!(e, Event::ScenarioFinished { .. }))
            .expect("a finished scenario has a finish event");
        let dup = events[at].clone();
        events.insert(at + 1, dup);
        let err = validate(&events).expect_err("a double finish is a protocol violation");
        prop_assert!(err.contains("without starting"), "unexpected error: {}", err);
    }
}
