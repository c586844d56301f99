//! The event vocabulary and its wire format (one flat JSON object per
//! line, see the crate docs for the schema table). Lines decode through
//! [`gather_analysis::FlatObject`], so an error names the kind and field.

use gather_analysis::{parse_flat_json, FlatObject, JsonObjWriter};

/// Schema version stamped into every line as `"v"`. Readers reject
/// lines from a newer schema instead of misreading them.
pub const EVENT_VERSION: u64 = 1;

/// Outcome class of one finished scenario — the event-stream mirror of
/// the campaign record's outcome flags.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    Gathered,
    Stalled,
    Disconnected,
    Panicked,
}

impl Status {
    /// Stable wire token (also the token the progress renderer prints).
    pub fn as_str(self) -> &'static str {
        match self {
            Status::Gathered => "ok",
            Status::Stalled => "stall",
            Status::Disconnected => "disc",
            Status::Panicked => "panic",
        }
    }

    pub fn parse(s: &str) -> Option<Status> {
        match s {
            "ok" => Some(Status::Gathered),
            "stall" => Some(Status::Stalled),
            "disc" => Some(Status::Disconnected),
            "panic" => Some(Status::Panicked),
            _ => None,
        }
    }
}

/// One progress event of a campaign run.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A run (or a resume of one) opened: `total` scenarios in the job.
    JobStarted { job: String, total: usize },
    /// A scenario was handed to a worker.
    ScenarioStarted { id: String },
    /// A scenario completed (any outcome — panics included).
    ScenarioFinished { id: String, status: Status, rounds: u64, secs: f64, robot_rounds_per_s: f64 },
    /// Periodic progress: `done` of `total` scenarios finished, with the
    /// elapsed-rate ETA for the remainder.
    Heartbeat { done: usize, total: usize, eta_secs: f64 },
    /// The run finished (all pending scenarios done or the run aborted
    /// cleanly); always the last event of a completed stream.
    JobFinished { done: usize, panicked: usize, secs: f64 },
}

impl Event {
    /// Wire token of this event's kind.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::JobStarted { .. } => "job_started",
            Event::ScenarioStarted { .. } => "scenario_started",
            Event::ScenarioFinished { .. } => "scenario_finished",
            Event::Heartbeat { .. } => "heartbeat",
            Event::JobFinished { .. } => "job_finished",
        }
    }

    /// Serialize as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let w = JsonObjWriter::new().field_u64("v", EVENT_VERSION).field_str("event", self.kind());
        match self {
            Event::JobStarted { job, total } => {
                w.field_str("job", job).field_usize("total", *total)
            }
            Event::ScenarioStarted { id } => w.field_str("id", id),
            Event::ScenarioFinished { id, status, rounds, secs, robot_rounds_per_s } => w
                .field_str("id", id)
                .field_str("status", status.as_str())
                .field_u64("rounds", *rounds)
                .field_f64("secs", *secs)
                .field_f64("robot_rounds_per_s", *robot_rounds_per_s),
            Event::Heartbeat { done, total, eta_secs } => w
                .field_usize("done", *done)
                .field_usize("total", *total)
                .field_f64("eta_secs", *eta_secs),
            Event::JobFinished { done, panicked, secs } => w
                .field_usize("done", *done)
                .field_usize("panicked", *panicked)
                .field_f64("secs", *secs),
        }
        .finish()
    }

    /// Parse one JSON line. Unknown kinds and newer schema versions are
    /// errors: a consumer that cannot understand a line must say so
    /// rather than silently skew its counts.
    pub fn from_json_line(line: &str) -> Result<Event, String> {
        Event::from_flat(&parse_flat_json(line)?)
    }

    /// Decode a parsed line (see [`Event::from_json_line`]).
    pub(crate) fn from_flat(obj: &FlatObject) -> Result<Event, String> {
        let kind = versioned_kind(obj, "event", "event", EVENT_VERSION)?;
        let event = || -> Result<Option<Event>, String> {
            Ok(Some(match kind {
                "job_started" => Event::JobStarted {
                    job: obj.str("job")?.to_string(),
                    total: obj.u64("total")? as usize,
                },
                "scenario_started" => Event::ScenarioStarted { id: obj.str("id")?.to_string() },
                "scenario_finished" => {
                    let status = obj.str("status")?;
                    Event::ScenarioFinished {
                        id: obj.str("id")?.to_string(),
                        status: Status::parse(status)
                            .ok_or_else(|| format!("unknown scenario status {status:?}"))?,
                        rounds: obj.u64("rounds")?,
                        secs: obj.f64("secs")?,
                        robot_rounds_per_s: obj.f64("robot_rounds_per_s")?,
                    }
                }
                "heartbeat" => Event::Heartbeat {
                    done: obj.u64("done")? as usize,
                    total: obj.u64("total")? as usize,
                    eta_secs: obj.f64("eta_secs")?,
                },
                "job_finished" => Event::JobFinished {
                    done: obj.u64("done")? as usize,
                    panicked: obj.u64("panicked")? as usize,
                    secs: obj.f64("secs")?,
                },
                _ => return Ok(None),
            }))
        };
        event()
            .map_err(|e| format!("{kind} event: {e}"))?
            .ok_or_else(|| format!("unknown event kind {kind:?}"))
    }
}

/// The kind of a versioned line (`what`: "event" or "message"): the
/// string field `kind_key`, once the schema version `"v"` is known to
/// be at most `current`.
pub(crate) fn versioned_kind<'a>(
    obj: &'a FlatObject,
    what: &str,
    kind_key: &str,
    current: u64,
) -> Result<&'a str, String> {
    let version = obj.u64("v").map_err(|e| format!("{what} line missing schema version: {e}"))?;
    if version > current {
        return Err(format!("{what} schema v{version} is newer than this reader (v{current})"));
    }
    obj.str(kind_key).map_err(|e| format!("{what} line has no kind: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Event> {
        vec![
            Event::JobStarted { job: "weak-sync".into(), total: 144 },
            Event::ScenarioStarted { id: "line/n64/s3/paper".into() },
            Event::ScenarioFinished {
                id: "line/n64/s3/paper".into(),
                status: Status::Gathered,
                rounds: 123,
                secs: 0.75,
                robot_rounds_per_s: 10_496.0,
            },
            Event::ScenarioFinished {
                id: "square/n16/s1/center".into(),
                status: Status::Panicked,
                rounds: 0,
                secs: 0.01,
                robot_rounds_per_s: 0.0,
            },
            Event::Heartbeat { done: 2, total: 144, eta_secs: 53.25 },
            Event::JobFinished { done: 144, panicked: 1, secs: 54.0 },
        ]
    }

    #[test]
    fn every_event_round_trips() {
        for event in samples() {
            let line = event.to_json_line();
            assert!(line.contains("\"v\":1"), "{line}");
            assert_eq!(Event::from_json_line(&line).unwrap(), event, "line {line}");
        }
    }

    #[test]
    fn truncations_never_parse() {
        for event in samples() {
            let line = event.to_json_line();
            for cut in 1..line.len() {
                assert!(Event::from_json_line(&line[..cut]).is_err(), "cut {cut} of {line}");
            }
        }
    }

    #[test]
    fn newer_schema_and_unknown_kinds_are_rejected() {
        let err = Event::from_json_line(r#"{"v":2,"event":"job_started","job":"x","total":1}"#)
            .unwrap_err();
        assert!(err.contains("newer"), "{err}");
        let err = Event::from_json_line(r#"{"v":1,"event":"job_paused"}"#).unwrap_err();
        assert!(err.contains("unknown event kind"), "{err}");
        let err = Event::from_json_line(r#"{"event":"heartbeat","done":1,"total":2}"#).unwrap_err();
        assert!(err.contains("missing schema version"), "{err}");
    }

    #[test]
    fn missing_fields_name_event_and_field() {
        let err = Event::from_json_line(r#"{"v":1,"event":"heartbeat","done":3}"#).unwrap_err();
        assert!(err.contains("heartbeat") && err.contains("total"), "{err}");
    }

    #[test]
    fn statuses_round_trip_and_reject_garbage() {
        for status in [Status::Gathered, Status::Stalled, Status::Disconnected, Status::Panicked] {
            assert_eq!(Status::parse(status.as_str()), Some(status));
        }
        assert_eq!(Status::parse("OK"), None);
        assert_eq!(Status::parse(""), None);
    }
}
