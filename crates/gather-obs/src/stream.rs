//! Event-file I/O and stream validation.
//!
//! The writer follows the campaign JSONL sink's torn-line discipline:
//! every event is written as one line and flushed immediately, and
//! appending to an existing file first repairs an unterminated tail
//! (a line cut short by a killed process) by terminating it
//! ([`open_append`], which the sink appends through too) — the torn
//! line then fails to parse as an event and is dropped by the reader,
//! never corrupting the line after it.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::event::{Event, Status};

/// Torn-line-safe, flush-per-event writer for one events file.
pub struct EventWriter {
    file: File,
}

impl EventWriter {
    /// Create (truncating) a fresh events file.
    pub fn create(path: &Path) -> io::Result<EventWriter> {
        Ok(EventWriter { file: File::create(path)? })
    }

    /// Open an events file for appending (resume), through
    /// [`open_append`]'s torn-tail repair.
    pub fn append(path: &Path) -> io::Result<EventWriter> {
        Ok(EventWriter { file: open_append(path)? })
    }

    /// Append one event and flush, so a crash can tear at most the line
    /// being written.
    pub fn emit(&mut self, event: &Event) -> io::Result<()> {
        let mut line = event.to_json_line();
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.file.flush()
    }
}

/// Open a line-per-record file for appending, creating it if absent.
/// If the previous writer died mid-line, the torn tail is terminated
/// first, so the next line written starts on its own line and the torn
/// one fails to parse instead of swallowing it. The events writer and
/// the campaign's JSONL result sink both append through this.
pub fn open_append(path: &Path) -> io::Result<File> {
    let mut file = OpenOptions::new().create(true).append(true).read(true).open(path)?;
    if file.metadata()?.len() > 0 {
        file.seek(SeekFrom::End(-1))?;
        let mut last = [0u8; 1];
        file.read_exact(&mut last)?;
        if last[0] != b'\n' {
            file.write_all(b"\n")?;
        }
    }
    Ok(file)
}

/// An events file as read back from disk.
#[derive(Clone, Debug, Default)]
pub struct EventStream {
    pub events: Vec<Event>,
    /// The file ended in an unterminated line (writer died mid-write);
    /// that tail is dropped, not parsed.
    pub torn: bool,
    /// Unparseable terminated lines dropped at segment boundaries —
    /// tears from earlier sessions, closed by a resume's append repair.
    pub skipped: usize,
}

/// Read and parse an events file: one [`FollowReader`] poll over the
/// whole file. An unterminated final line marks the stream torn and is
/// dropped (exactly the sink's recovery rule). A *terminated* line that
/// fails to parse is tolerated — counted in `skipped` — only where a
/// crash can legitimately leave one: as the last line, or immediately
/// before a resume's `job_started` (the append repair terminates a torn
/// tail, and the resume opens a new segment right after). Anywhere else
/// it is corruption, and an error: the flush-per-line writer never
/// tears mid-stream.
pub fn read_events(path: &Path) -> Result<EventStream, String> {
    let file = File::open(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let mut reader = FollowReader::new(path);
    let events = reader.read_from(file)?;
    // Nothing follows a bad line the reader still holds: it is the last.
    let skipped = reader.skipped + usize::from(reader.pending_bad.is_some());
    Ok(EventStream { events, torn: !reader.partial.is_empty(), skipped })
}

/// Incremental reader for a *live* events file: each [`poll`] parses
/// only the lines appended since the last one, holding back an
/// unterminated tail until its newline arrives. Built for
/// `campaign events tail --follow`; does no waiting itself (and reads
/// no clocks) — the caller decides when to poll again.
///
/// It owns the stream's one tolerance rule ([`read_events`] is a single
/// poll): a terminated line that fails to parse is held until the
/// *next* line decides its fate — skipped if that line opens a new
/// segment (`job_started`, i.e. the bad line was a repaired tear),
/// fatal otherwise. A file that shrinks under the reader (truncated and
/// restarted by a fresh `create`) resets the reader to the new
/// beginning instead of misparsing from a stale offset. A file that
/// does not exist yet reads as empty, so a tail can be started before
/// its writer.
///
/// [`poll`]: FollowReader::poll
#[derive(Debug)]
pub struct FollowReader {
    path: PathBuf,
    offset: u64,
    partial: Vec<u8>,
    /// A terminated line that failed to parse, held (with its line
    /// number and error) until the next line classifies it.
    pending_bad: Option<(usize, String)>,
    line_no: usize,
    skipped: usize,
}

impl FollowReader {
    pub fn new(path: impl Into<PathBuf>) -> FollowReader {
        FollowReader {
            path: path.into(),
            offset: 0,
            partial: Vec::new(),
            pending_bad: None,
            line_no: 0,
            skipped: 0,
        }
    }

    /// Unparseable terminated lines skipped so far (repaired tears).
    pub fn skipped(&self) -> usize {
        self.skipped
    }

    /// Read and parse every line completed since the last poll.
    pub fn poll(&mut self) -> Result<Vec<Event>, String> {
        match File::open(&self.path) {
            Ok(file) => self.read_from(file),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(format!("opening {}: {e}", self.path.display())),
        }
    }

    /// [`poll`](Self::poll) on the open `file`: one pass over the lines
    /// completed since the last read, then one drain of the buffer, so a
    /// backlog costs its length, not lines × bytes.
    fn read_from(&mut self, mut file: File) -> Result<Vec<Event>, String> {
        let err_ctx = |e: io::Error| format!("reading {}: {e}", self.path.display());
        let len = file.metadata().map_err(&err_ctx)?.len();
        if len < self.offset {
            // The file was truncated and restarted under us: forget
            // everything and read the new stream from its beginning.
            self.offset = 0;
            self.partial.clear();
            self.pending_bad = None;
            self.line_no = 0;
            self.skipped = 0;
        }
        file.seek(SeekFrom::Start(self.offset)).map_err(&err_ctx)?;
        let read = file.read_to_end(&mut self.partial).map_err(&err_ctx)?;
        self.offset += read as u64;

        let mut events = Vec::new();
        let mut start = 0;
        while let Some(nl) = self.partial[start..].iter().position(|&b| b == b'\n') {
            let line = &self.partial[start..start + nl];
            start += nl + 1;
            self.line_no += 1;
            let parsed = std::str::from_utf8(line)
                .map_err(|e| format!("invalid UTF-8: {e}"))
                .and_then(Event::from_json_line);
            match parsed {
                Ok(event) => {
                    if let Some((bad_line, err)) = self.pending_bad.take() {
                        if matches!(event, Event::JobStarted { .. }) {
                            self.skipped += 1;
                        } else {
                            return Err(format!("{}:{bad_line}: {err}", self.path.display()));
                        }
                    }
                    events.push(event);
                }
                Err(e) => {
                    if let Some((bad_line, err)) = self.pending_bad.take() {
                        // Two bad lines in a row: the first cannot be a
                        // repaired tear, so it is corruption.
                        return Err(format!("{}:{bad_line}: {err}", self.path.display()));
                    }
                    self.pending_bad = Some((self.line_no, e));
                }
            }
        }
        self.partial.drain(..start);
        Ok(events)
    }
}

/// Roll-up of a validated stream, for one-line status rendering.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StreamSummary {
    /// Job name from the last segment's `job_started`.
    pub job: String,
    /// Scenario total from the last segment's `job_started`.
    pub total: usize,
    /// Distinct scenarios finished across all segments.
    pub finished: usize,
    /// Finished scenarios whose status was `panic`.
    pub panicked: usize,
    /// The stream ends with `job_finished` (nothing is running).
    pub complete: bool,
    /// `done` as of the last heartbeat or `job_finished`.
    pub done: usize,
    /// ETA from the last heartbeat, if any.
    pub eta_secs: Option<f64>,
    /// Elapsed seconds from `job_finished`, when complete.
    pub secs: Option<f64>,
}

/// Validate a stream's invariants and fold it into a [`StreamSummary`].
///
/// A stream is a sequence of *segments*, each opened by `job_started`
/// (a resume appends a new segment to the same file; an unterminated
/// segment's in-flight scenarios are abandoned at the next boundary).
/// Within that structure:
///
/// * every event belongs to a segment (the stream starts with
///   `job_started`, and nothing follows `job_finished` except a new
///   `job_started`);
/// * a scenario starts at most once per segment, never after it has
///   finished (a resume never re-runs finished work), and finishes only
///   while in flight — so every *finished* scenario has exactly one
///   `scenario_started`/`scenario_finished` pair in its segment;
/// * heartbeats are monotone within a segment and bounded by `total`.
pub fn validate(events: &[Event]) -> Result<StreamSummary, String> {
    use std::collections::BTreeSet;

    let mut summary = StreamSummary::default();
    let mut finished: BTreeSet<&str> = BTreeSet::new();
    let mut in_flight: BTreeSet<&str> = BTreeSet::new();
    let mut in_segment = false;
    let mut last_done = 0usize;

    for (i, event) in events.iter().enumerate() {
        let at = |what: String| format!("event {} ({}): {what}", i + 1, event.kind());
        match event {
            Event::JobStarted { job, total } => {
                // Opens a segment anywhere: at the start, after a clean
                // job_finished, or after a crashed segment — whose
                // in-flight scenarios are abandoned here.
                in_flight.clear();
                in_segment = true;
                last_done = 0;
                summary.job = job.clone();
                summary.total = *total;
                summary.complete = false;
                summary.eta_secs = None;
            }
            Event::ScenarioStarted { id } => {
                if !in_segment {
                    return Err(at(format!("scenario {id:?} started outside a job segment")));
                }
                if finished.contains(id.as_str()) {
                    return Err(at(format!("scenario {id:?} re-started after finishing")));
                }
                if !in_flight.insert(id) {
                    return Err(at(format!("scenario {id:?} started twice in one segment")));
                }
            }
            Event::ScenarioFinished { id, status, .. } => {
                if !in_flight.remove(id.as_str()) {
                    return Err(at(format!("scenario {id:?} finished without starting")));
                }
                finished.insert(id);
                if *status == Status::Panicked {
                    summary.panicked += 1;
                }
            }
            Event::Heartbeat { done, total, eta_secs } => {
                if !in_segment {
                    return Err(at("heartbeat outside a job segment".into()));
                }
                if *total != summary.total {
                    return Err(at(format!(
                        "heartbeat total {total} contradicts job total {}",
                        summary.total
                    )));
                }
                if *done > *total {
                    return Err(at(format!("heartbeat done {done} exceeds total {total}")));
                }
                if *done < last_done {
                    return Err(at(format!(
                        "heartbeat done {done} went backwards from {last_done}"
                    )));
                }
                last_done = *done;
                summary.done = *done;
                summary.eta_secs = Some(*eta_secs);
            }
            Event::JobFinished { done, secs, .. } => {
                if !in_segment {
                    return Err(at("job_finished without a matching job_started".into()));
                }
                in_segment = false;
                summary.complete = true;
                summary.done = *done;
                summary.secs = Some(*secs);
            }
        }
    }
    if summary.job.is_empty() && events.is_empty() {
        return Err("empty event stream (no job_started)".into());
    }
    if !events.is_empty() && !matches!(events[0], Event::JobStarted { .. }) {
        // Unreachable via the per-event checks above, but keep the
        // contract explicit for future event kinds.
        return Err("stream does not begin with job_started".into());
    }
    summary.finished = finished.len();
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Status;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("gather-obs-{}-{name}", std::process::id()))
    }

    fn started(id: &str) -> Event {
        Event::ScenarioStarted { id: id.into() }
    }

    fn finished(id: &str, status: Status) -> Event {
        Event::ScenarioFinished {
            id: id.into(),
            status,
            rounds: 10,
            secs: 0.5,
            robot_rounds_per_s: 100.0,
        }
    }

    #[test]
    fn write_read_validate_a_clean_stream() {
        let path = tmp("clean.ndjson");
        let mut w = EventWriter::create(&path).unwrap();
        let events = vec![
            Event::JobStarted { job: "j".into(), total: 2 },
            started("a"),
            finished("a", Status::Gathered),
            Event::Heartbeat { done: 1, total: 2, eta_secs: 0.5 },
            started("b"),
            finished("b", Status::Panicked),
            Event::Heartbeat { done: 2, total: 2, eta_secs: 0.0 },
            Event::JobFinished { done: 2, panicked: 1, secs: 1.0 },
        ];
        for e in &events {
            w.emit(e).unwrap();
        }
        drop(w);
        let stream = read_events(&path).unwrap();
        assert!(!stream.torn);
        assert_eq!(stream.events, events);
        let summary = validate(&stream.events).unwrap();
        assert_eq!(summary.finished, 2);
        assert_eq!(summary.panicked, 1);
        assert!(summary.complete);
        assert_eq!(summary.secs, Some(1.0));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_detected_and_append_repairs_it() {
        let path = tmp("torn.ndjson");
        let mut w = EventWriter::create(&path).unwrap();
        w.emit(&Event::JobStarted { job: "j".into(), total: 1 }).unwrap();
        drop(w);
        // Simulate a writer killed mid-line.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"v\":1,\"event\":\"scenario_st").unwrap();
        drop(f);
        let stream = read_events(&path).unwrap();
        assert!(stream.torn, "unterminated tail must mark the stream torn");
        assert_eq!(stream.events.len(), 1, "the torn line is dropped, prior lines survive");
        // Resume: append repairs the tail, then new events parse clean.
        let mut w = EventWriter::append(&path).unwrap();
        // Until the resume writes, the repaired tear is the last line:
        // skipped, not fatal.
        let stream = read_events(&path).unwrap();
        assert!(!stream.torn && stream.skipped == 1, "{stream:?}");
        w.emit(&Event::JobStarted { job: "j".into(), total: 1 }).unwrap();
        w.emit(&started("a")).unwrap();
        w.emit(&finished("a", Status::Gathered)).unwrap();
        w.emit(&Event::JobFinished { done: 1, panicked: 0, secs: 0.5 }).unwrap();
        drop(w);
        let stream = read_events(&path).unwrap();
        assert!(!stream.torn, "append terminated the torn line");
        assert_eq!(stream.skipped, 1, "the repaired tear is skipped, not fatal");
        let summary = validate(&stream.events).unwrap();
        assert!(summary.complete, "a repaired-and-resumed stream validates clean");
        assert_eq!(summary.finished, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corruption_away_from_segment_boundaries_is_fatal() {
        let path = tmp("corrupt.ndjson");
        let mut w = EventWriter::create(&path).unwrap();
        w.emit(&Event::JobStarted { job: "j".into(), total: 1 }).unwrap();
        drop(w);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"v\":1,\"event\":\"scenario_st\n").unwrap();
        drop(f);
        let mut w = EventWriter::append(&path).unwrap();
        // The next line is NOT a job_started, so the bad line cannot be
        // a crash tear — it is corruption and must be fatal.
        w.emit(&started("a")).unwrap();
        drop(w);
        let err = read_events(&path).unwrap_err();
        assert!(err.contains(":2:"), "corruption must name its line: {err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_segments_abandon_in_flight_scenarios() {
        // Session 1 dies with "b" in flight; session 2 re-runs it.
        let events = vec![
            Event::JobStarted { job: "j".into(), total: 2 },
            started("a"),
            finished("a", Status::Gathered),
            started("b"),
            // crash — no finish for "b"
            Event::JobStarted { job: "j".into(), total: 2 },
            started("b"),
            finished("b", Status::Stalled),
            Event::JobFinished { done: 2, panicked: 0, secs: 2.0 },
        ];
        let summary = validate(&events).unwrap();
        assert_eq!(summary.finished, 2);
        assert!(summary.complete);
    }

    #[test]
    fn pairing_violations_are_rejected() {
        let base = || vec![Event::JobStarted { job: "j".into(), total: 3 }];
        // Finish without start.
        let mut e = base();
        e.push(finished("a", Status::Gathered));
        assert!(validate(&e).unwrap_err().contains("without starting"));
        // Double start in one segment.
        let mut e = base();
        e.extend([started("a"), started("a")]);
        assert!(validate(&e).unwrap_err().contains("started twice"));
        // Double finish.
        let mut e = base();
        e.extend([started("a"), finished("a", Status::Gathered), finished("a", Status::Gathered)]);
        assert!(validate(&e).unwrap_err().contains("without starting"));
        // Restart after finishing (a resume must not re-run done work).
        let mut e = base();
        e.extend([
            started("a"),
            finished("a", Status::Gathered),
            Event::JobStarted { job: "j".into(), total: 3 },
            started("a"),
        ]);
        assert!(validate(&e).unwrap_err().contains("re-started after finishing"));
        // Activity outside any segment.
        let mut e = base();
        e.extend([Event::JobFinished { done: 0, panicked: 0, secs: 0.1 }, started("a")]);
        assert!(validate(&e).unwrap_err().contains("outside a job segment"));
        // Empty stream.
        assert!(validate(&[]).unwrap_err().contains("empty"));
    }

    #[test]
    fn heartbeat_invariants() {
        let base = || vec![Event::JobStarted { job: "j".into(), total: 5 }];
        let mut e = base();
        e.push(Event::Heartbeat { done: 6, total: 5, eta_secs: 0.0 });
        assert!(validate(&e).unwrap_err().contains("exceeds total"));
        let mut e = base();
        e.push(Event::Heartbeat { done: 3, total: 4, eta_secs: 0.0 });
        assert!(validate(&e).unwrap_err().contains("contradicts job total"));
        let mut e = base();
        e.extend([
            Event::Heartbeat { done: 3, total: 5, eta_secs: 1.0 },
            Event::Heartbeat { done: 2, total: 5, eta_secs: 1.0 },
        ]);
        assert!(validate(&e).unwrap_err().contains("went backwards"));
        // A resume segment resets the monotonicity baseline.
        let mut e = base();
        e.extend([
            Event::Heartbeat { done: 3, total: 5, eta_secs: 1.0 },
            Event::JobStarted { job: "j".into(), total: 5 },
            Event::Heartbeat { done: 1, total: 5, eta_secs: 1.0 },
        ]);
        assert!(validate(&e).is_ok());
    }

    #[test]
    fn follow_reader_parses_only_completed_lines() {
        let path = tmp("follow.ndjson");
        let _ = std::fs::remove_file(&path);
        let mut follow = FollowReader::new(&path);
        // The file does not exist yet: a tail may start before its writer.
        assert_eq!(follow.poll().unwrap(), vec![]);
        let mut w = EventWriter::create(&path).unwrap();
        w.emit(&Event::JobStarted { job: "j".into(), total: 2 }).unwrap();
        w.emit(&started("a")).unwrap();
        assert_eq!(
            follow.poll().unwrap(),
            vec![Event::JobStarted { job: "j".into(), total: 2 }, started("a")]
        );
        assert_eq!(follow.poll().unwrap(), vec![], "nothing new appended");
        // An unterminated tail is held back until its newline arrives.
        let half = finished("a", Status::Gathered).to_json_line();
        let (left, right) = half.split_at(half.len() / 2);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(left.as_bytes()).unwrap();
        f.flush().unwrap();
        assert_eq!(follow.poll().unwrap(), vec![], "partial line must not parse");
        f.write_all(right.as_bytes()).unwrap();
        f.write_all(b"\n").unwrap();
        drop(f);
        assert_eq!(follow.poll().unwrap(), vec![finished("a", Status::Gathered)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn follow_reader_skips_repaired_tears_and_rejects_corruption() {
        let path = tmp("follow-tear.ndjson");
        let mut w = EventWriter::create(&path).unwrap();
        w.emit(&Event::JobStarted { job: "j".into(), total: 1 }).unwrap();
        drop(w);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"v\":1,\"event\":\"scenario_st\n").unwrap();
        drop(f);
        let mut follow = FollowReader::new(&path);
        // The bad line is held: it may still turn out to be a tear.
        assert_eq!(follow.poll().unwrap().len(), 1);
        assert_eq!(follow.skipped(), 0);
        // A resume segment right after classifies it as a repaired tear.
        let mut w = EventWriter::append(&path).unwrap();
        w.emit(&Event::JobStarted { job: "j".into(), total: 1 }).unwrap();
        w.emit(&started("a")).unwrap();
        drop(w);
        assert_eq!(follow.poll().unwrap().len(), 2);
        assert_eq!(follow.skipped(), 1);
        // The same bad line mid-stream is corruption and names its line.
        let mut follow = FollowReader::new(&path);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"v\":1,\"event\":\"scenario_st\n").unwrap();
        drop(f);
        let mut w = EventWriter::append(&path).unwrap();
        w.emit(&finished("a", Status::Gathered)).unwrap();
        drop(w);
        let err = follow.poll().unwrap_err();
        assert!(err.contains(":5:"), "corruption must name its line: {err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn follow_reader_resets_when_the_file_is_truncated() {
        let path = tmp("follow-trunc.ndjson");
        let mut w = EventWriter::create(&path).unwrap();
        w.emit(&Event::JobStarted { job: "one".into(), total: 5 }).unwrap();
        w.emit(&started("a")).unwrap();
        drop(w);
        let mut follow = FollowReader::new(&path);
        assert_eq!(follow.poll().unwrap().len(), 2);
        // A fresh `create` truncates; the reader must start over rather
        // than parse from its stale offset.
        let mut w = EventWriter::create(&path).unwrap();
        w.emit(&Event::JobStarted { job: "two".into(), total: 1 }).unwrap();
        drop(w);
        assert_eq!(follow.poll().unwrap(), vec![Event::JobStarted { job: "two".into(), total: 1 }]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn incomplete_stream_reports_not_complete() {
        let events = vec![
            Event::JobStarted { job: "j".into(), total: 2 },
            started("a"),
            finished("a", Status::Gathered),
            Event::Heartbeat { done: 1, total: 2, eta_secs: 9.5 },
        ];
        let summary = validate(&events).unwrap();
        assert!(!summary.complete);
        assert_eq!(summary.done, 1);
        assert_eq!(summary.eta_secs, Some(9.5));
        assert_eq!(summary.secs, None);
    }
}
