//! The campaign's progress surface: one reporter that owns both the
//! `--events FILE` NDJSON stream and the stderr status lines.
//!
//! The stderr renderer derives every number it prints from the event it
//! just emitted, so the CLI and the event file can never disagree — the
//! invariant the `campaign serve` protocol inherits. `--quiet` only
//! silences stderr; the event stream (when requested) always gets the
//! full history.

use std::io;
use std::path::Path;
use std::time::Instant;

use gather_obs::{Event, EventWriter, Status};

use crate::record::ScenarioRecord;

/// Maps a finished record onto its event-stream status token, which is
/// also its outcome class in `summarize`'s reliability table. Every run
/// lands in exactly one class, so the reliability columns are disjoint
/// and `gathered + stalled + disconnected + panicked == runs` always
/// holds (an earlier version counted a run that was both unconnected
/// and ungathered twice).
pub fn record_status(rec: &ScenarioRecord) -> Status {
    if rec.panicked {
        Status::Panicked
    } else if rec.gathered {
        Status::Gathered
    } else if !rec.connected {
        Status::Disconnected
    } else {
        Status::Stalled
    }
}

/// The `scenario_finished` event for `rec` after `secs` of wall time.
/// Its `robot_rounds_per_s` counts the record's own activations, so
/// robots merged away or idle under a partial scheduler add no work; it
/// is 0 when no time elapsed.
pub(crate) fn finished_event(rec: &ScenarioRecord, secs: f64) -> Event {
    Event::ScenarioFinished {
        id: rec.id.clone(),
        status: record_status(rec),
        rounds: rec.rounds,
        secs,
        robot_rounds_per_s: if secs > 0.0 { rec.activations as f64 / secs } else { 0.0 },
    }
}

/// Emits the campaign lifecycle to an optional event file and renders
/// progress lines to stderr (unless quiet). Event-file write failures
/// surface as `Err` so the caller can abort the campaign — a requested
/// event stream that silently stops mid-run would be worse than none.
pub struct ProgressReporter {
    events: Option<EventWriter>,
    quiet: bool,
    started_at: Instant,
    total: usize,
    done: usize,
    panicked: usize,
}

impl ProgressReporter {
    /// Open the reporter for a job of `total` scenarios, emitting
    /// `job_started`. With `append` (resume), events are appended to the
    /// existing file as a new segment — in-flight scenarios of the
    /// killed run are implicitly abandoned at the segment boundary.
    pub fn start(
        job: &str,
        total: usize,
        events: Option<&Path>,
        append: bool,
        quiet: bool,
    ) -> io::Result<ProgressReporter> {
        #[expect(
            clippy::disallowed_methods,
            reason = "elapsed time paces the progress display and event rates only"
        )]
        let mut reporter = ProgressReporter {
            events: match events {
                Some(path) if append => Some(EventWriter::append(path)?),
                Some(path) => Some(EventWriter::create(path)?),
                None => None,
            },
            quiet,
            started_at: Instant::now(),
            total,
            done: 0,
            panicked: 0,
        };
        reporter.emit(&Event::JobStarted { job: job.to_string(), total })?;
        Ok(reporter)
    }

    /// A worker picked up `id`.
    pub fn scenario_started(&mut self, id: &str) -> io::Result<()> {
        self.emit(&Event::ScenarioStarted { id: id.to_string() })
    }

    /// A scenario finished with `rec` after `secs` seconds of wall
    /// time; emits `scenario_finished` + `heartbeat` and renders the
    /// stderr line from those events' own values.
    pub fn scenario_finished(&mut self, rec: &ScenarioRecord, secs: f64) -> io::Result<()> {
        self.done += 1;
        if record_status(rec) == Status::Panicked {
            self.panicked += 1;
        }
        let finished = finished_event(rec, secs);
        let heartbeat =
            Event::Heartbeat { done: self.done, total: self.total, eta_secs: self.eta_secs() };
        self.emit(&finished)?;
        self.emit(&heartbeat)?;
        if !self.quiet {
            if let (
                Event::ScenarioFinished { id, status, rounds, .. },
                Event::Heartbeat { done, total, eta_secs },
            ) = (&finished, &heartbeat)
            {
                let status = match status {
                    Status::Panicked => "PANIC",
                    other => other.as_str(),
                };
                eprintln!("[{done}/{total}] {id} {status} rounds={rounds} eta={eta_secs:.0}s");
            }
        }
        Ok(())
    }

    /// The run completed (all scenarios done, or a clean abort after
    /// the ones already counted); emits the terminating `job_finished`.
    pub fn finish(&mut self) -> io::Result<()> {
        let event = Event::JobFinished {
            done: self.done,
            panicked: self.panicked,
            secs: self.started_at.elapsed().as_secs_f64(),
        };
        self.emit(&event)
    }

    /// Scenarios finished so far.
    pub fn done(&self) -> usize {
        self.done
    }

    /// Of which panicked.
    pub fn panicked(&self) -> usize {
        self.panicked
    }

    /// Elapsed-rate estimate of the time remaining (0 when nothing has
    /// finished yet — no rate to extrapolate from).
    fn eta_secs(&self) -> f64 {
        if self.done == 0 || self.done >= self.total {
            return 0.0;
        }
        let elapsed = self.started_at.elapsed().as_secs_f64();
        elapsed / self.done as f64 * (self.total - self.done) as f64
    }

    fn emit(&mut self, event: &Event) -> io::Result<()> {
        match &mut self.events {
            Some(writer) => writer.emit(event),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gather_bench::{ControllerKind, SchedulerKind};
    use gather_obs::{read_events, validate};
    use gather_workloads::Family;

    fn rec(id: &str, gathered: bool, connected: bool, panicked: bool) -> ScenarioRecord {
        let sc = crate::spec::Scenario {
            family: Family::Line,
            n: 16,
            seed: 1,
            controller: ControllerKind::Paper,
            scheduler: SchedulerKind::Fsync,
        };
        let mut rec = ScenarioRecord::for_panic(&sc);
        rec.id = id.to_string();
        rec.n = 16;
        rec.rounds = 9;
        rec.gathered = gathered;
        rec.connected = connected;
        rec.panicked = panicked;
        rec
    }

    #[test]
    fn statuses_map_like_the_aggregator() {
        assert_eq!(record_status(&rec("a", true, true, false)), Status::Gathered);
        assert_eq!(record_status(&rec("a", false, true, false)), Status::Stalled);
        assert_eq!(record_status(&rec("a", false, false, false)), Status::Disconnected);
        // Panic wins over everything else.
        assert_eq!(record_status(&rec("a", false, false, true)), Status::Panicked);
    }

    #[test]
    fn reporter_emits_a_complete_validating_stream() {
        let dir = std::env::temp_dir().join("gather-progress-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.ndjson");
        let mut reporter = ProgressReporter::start("demo", 2, Some(&path), false, true).unwrap();
        for id in ["a", "b"] {
            reporter.scenario_started(id).unwrap();
            reporter.scenario_finished(&rec(id, id == "a", true, id == "b"), 0.5).unwrap();
        }
        reporter.finish().unwrap();
        assert_eq!(reporter.done(), 2);
        assert_eq!(reporter.panicked(), 1);

        let stream = read_events(&path).unwrap();
        assert!(!stream.torn);
        let summary = validate(&stream.events).unwrap();
        assert!(summary.complete);
        assert_eq!(summary.done, 2);
        assert_eq!(summary.panicked, 1);
        assert_eq!(summary.job, "demo");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn without_an_event_path_the_reporter_still_counts() {
        let mut reporter = ProgressReporter::start("demo", 1, None, false, true).unwrap();
        reporter.scenario_started("a").unwrap();
        reporter.scenario_finished(&rec("a", true, true, false), 0.0).unwrap();
        reporter.finish().unwrap();
        assert_eq!(reporter.done(), 1);
        assert_eq!(reporter.panicked(), 0);
    }

    #[test]
    fn throughput_guards_against_zero_elapsed() {
        // secs == 0.0 must not divide by zero; the event carries 0.
        let dir = std::env::temp_dir().join("gather-progress-test-zero");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.ndjson");
        let mut reporter = ProgressReporter::start("demo", 2, Some(&path), false, true).unwrap();
        reporter.scenario_started("a").unwrap();
        reporter.scenario_finished(&rec("a", true, true, false), 0.0).unwrap();
        // Merges and partial schedulers leave activations below
        // n × rounds = 144: the rate counts the activations.
        let mut partial = rec("b", true, true, false);
        partial.activations = 40;
        reporter.scenario_started("b").unwrap();
        reporter.scenario_finished(&partial, 0.5).unwrap();
        reporter.finish().unwrap();
        let stream = read_events(&path).unwrap();
        let tput: Vec<f64> = stream
            .events
            .iter()
            .filter_map(|e| match e {
                Event::ScenarioFinished { robot_rounds_per_s, .. } => Some(*robot_rounds_per_s),
                _ => None,
            })
            .collect();
        assert_eq!(tput, [0.0, 80.0]);
        std::fs::remove_file(&path).ok();
    }
}
