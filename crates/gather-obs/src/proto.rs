//! The campaign-service request/response vocabulary.
//!
//! `campaign serve` speaks flat NDJSON over a local Unix socket. Progress
//! streaming reuses the v1 [`Event`] vocabulary verbatim;
//! this module adds the small control-plane layer around it, in the same
//! wire style: one flat JSON object per line, versioned with `"v"`, the
//! kind carried in `"msg"` (events use `"event"`, so the two vocabularies
//! can share a connection — see [`Frame`]).
//!
//! | msg             | direction        | fields |
//! |-----------------|------------------|--------|
//! | `submit_job`    | client → server  | `name`, `out`, `spec_*` |
//! | `job_accepted`  | server → client  | `job`, `total`, `cached` |
//! | `lease_request` | worker → server  | `worker`, `capacity` |
//! | `lease_granted` | server → worker  | `job`, `lease`, `indexes`, `expires_in_ms`, `drained`, `spec_*` |
//! | `result_batch`  | worker → server  | `job`, `lease`, `index`, `record`, `secs` |
//! | `job_done`      | server → client  | `job`, `total`, `cached`, `executed`, `panicked`, `secs` |
//!
//! Spec axes travel as string fields prefixed `spec_` (the same
//! comma/range syntax spec files use), so a worker can re-expand the
//! spec deterministically and a lease only has to carry scenario
//! *indexes* into that expansion.
//!
//! Messages decode like events; a [`Frame`] parses its line once and
//! decodes it in the vocabulary its kind key names.

use gather_analysis::{parse_flat_json, FlatObject, JsonObjWriter};
use std::collections::BTreeMap;

use crate::event::{versioned_kind, Event};
use crate::stream::{validate, StreamSummary};

/// Schema version stamped into every message line as `"v"`. Shared
/// half-duplex with the event vocabulary's version: both are v1.
pub const PROTO_VERSION: u64 = 1;

/// One control-plane message of the campaign service.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// Client asks the server to run a sweep. `spec` holds the flat
    /// string axes (`families`, `sizes`, ...); `out` is where the merged
    /// JSONL lands (resolved to an absolute path by the client).
    SubmitJob { name: String, out: String, spec: BTreeMap<String, String> },
    /// Server acknowledged a submission: job id, expansion size, and how
    /// many scenarios were already satisfied by the result cache.
    JobAccepted { job: u64, total: usize, cached: usize },
    /// Worker asks for up to `capacity` scenarios to run.
    LeaseRequest { worker: String, capacity: usize },
    /// Server's answer to a lease request. An empty `indexes` with
    /// `drained: false` means "nothing leasable right now, poll again";
    /// `drained: true` means the server is shutting down and the worker
    /// should exit. A non-empty grant carries the owning job's spec so
    /// the worker can expand it deterministically.
    LeaseGranted {
        job: u64,
        lease: u64,
        indexes: Vec<usize>,
        expires_in_ms: u64,
        drained: bool,
        spec: BTreeMap<String, String>,
    },
    /// Worker streams one finished scenario back: the record is the
    /// exact JSONL line a batch run would have written. Carries the job
    /// id so a result from an already-expired lease can still be
    /// accepted (records are deterministic — first write wins). `secs`
    /// is the worker-measured wall time, for the `scenario_finished`
    /// progress event only — it never reaches the record or the cache.
    ResultBatch { job: u64, lease: u64, index: usize, record: String, secs: f64 },
    /// Server's final word on a job: the merged output file is written
    /// and its coverage proof checked. `executed + cached == total`.
    JobDone { job: u64, total: usize, cached: usize, executed: usize, panicked: usize, secs: f64 },
}

impl Message {
    /// Wire token of this message's kind.
    pub fn kind(&self) -> &'static str {
        match self {
            Message::SubmitJob { .. } => "submit_job",
            Message::JobAccepted { .. } => "job_accepted",
            Message::LeaseRequest { .. } => "lease_request",
            Message::LeaseGranted { .. } => "lease_granted",
            Message::ResultBatch { .. } => "result_batch",
            Message::JobDone { .. } => "job_done",
        }
    }

    /// Serialize as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let w = JsonObjWriter::new().field_u64("v", PROTO_VERSION).field_str("msg", self.kind());
        match self {
            Message::SubmitJob { name, out, spec } => {
                let mut w = w.field_str("name", name).field_str("out", out);
                for (key, value) in spec {
                    w = w.field_str(&format!("spec_{key}"), value);
                }
                w
            }
            Message::JobAccepted { job, total, cached } => {
                w.field_u64("job", *job).field_usize("total", *total).field_usize("cached", *cached)
            }
            Message::LeaseRequest { worker, capacity } => {
                w.field_str("worker", worker).field_usize("capacity", *capacity)
            }
            Message::LeaseGranted { job, lease, indexes, expires_in_ms, drained, spec } => {
                let joined = indexes.iter().map(usize::to_string).collect::<Vec<_>>().join(",");
                let mut w = w
                    .field_u64("job", *job)
                    .field_u64("lease", *lease)
                    .field_str("indexes", &joined)
                    .field_u64("expires_in_ms", *expires_in_ms)
                    .field_bool("drained", *drained);
                for (key, value) in spec {
                    w = w.field_str(&format!("spec_{key}"), value);
                }
                w
            }
            Message::ResultBatch { job, lease, index, record, secs } => w
                .field_u64("job", *job)
                .field_u64("lease", *lease)
                .field_usize("index", *index)
                .field_str("record", record)
                .field_f64("secs", *secs),
            Message::JobDone { job, total, cached, executed, panicked, secs } => w
                .field_u64("job", *job)
                .field_usize("total", *total)
                .field_usize("cached", *cached)
                .field_usize("executed", *executed)
                .field_usize("panicked", *panicked)
                .field_f64("secs", *secs),
        }
        .finish()
    }

    /// Parse one JSON line. Unknown kinds and newer schema versions are
    /// errors, exactly as for events: a peer that cannot understand a
    /// line must say so rather than silently drop control traffic.
    pub fn from_json_line(line: &str) -> Result<Message, String> {
        Message::from_flat(&parse_flat_json(line)?)
    }

    /// Decode a parsed line (see [`Message::from_json_line`]).
    fn from_flat(obj: &FlatObject) -> Result<Message, String> {
        let kind = versioned_kind(obj, "message", "msg", PROTO_VERSION)?;
        let spec = || -> Result<BTreeMap<String, String>, String> {
            let mut spec = BTreeMap::new();
            for key in obj.keys() {
                if let Some(axis) = key.strip_prefix("spec_") {
                    spec.insert(axis.to_string(), obj.str(key)?.to_string());
                }
            }
            Ok(spec)
        };
        let message = || -> Result<Option<Message>, String> {
            Ok(Some(match kind {
                "submit_job" => Message::SubmitJob {
                    name: obj.str("name")?.to_string(),
                    out: obj.str("out")?.to_string(),
                    spec: spec()?,
                },
                "job_accepted" => Message::JobAccepted {
                    job: obj.u64("job")?,
                    total: obj.u64("total")? as usize,
                    cached: obj.u64("cached")? as usize,
                },
                "lease_request" => Message::LeaseRequest {
                    worker: obj.str("worker")?.to_string(),
                    capacity: obj.u64("capacity")? as usize,
                },
                "lease_granted" => Message::LeaseGranted {
                    job: obj.u64("job")?,
                    lease: obj.u64("lease")?,
                    indexes: parse_indexes(obj.str("indexes")?)?,
                    expires_in_ms: obj.u64("expires_in_ms")?,
                    drained: obj.bool("drained")?,
                    spec: spec()?,
                },
                "result_batch" => Message::ResultBatch {
                    job: obj.u64("job")?,
                    lease: obj.u64("lease")?,
                    index: obj.u64("index")? as usize,
                    record: obj.str("record")?.to_string(),
                    secs: obj.f64("secs")?,
                },
                "job_done" => Message::JobDone {
                    job: obj.u64("job")?,
                    total: obj.u64("total")? as usize,
                    cached: obj.u64("cached")? as usize,
                    executed: obj.u64("executed")? as usize,
                    panicked: obj.u64("panicked")? as usize,
                    secs: obj.f64("secs")?,
                },
                _ => return Ok(None),
            }))
        };
        message()
            .map_err(|e| format!("{kind} message: {e}"))?
            .ok_or_else(|| format!("unknown message kind {kind:?}"))
    }
}

fn parse_indexes(joined: &str) -> Result<Vec<usize>, String> {
    if joined.is_empty() {
        return Ok(Vec::new());
    }
    joined
        .split(',')
        .map(|tok| {
            tok.parse::<usize>().map_err(|_| format!("indexes has a non-numeric entry {tok:?}"))
        })
        .collect()
}

/// One line of a service connection: either a progress [`Event`] or a
/// control [`Message`], told apart by which kind key the line carries.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    Event(Event),
    Message(Message),
}

impl Frame {
    pub fn to_json_line(&self) -> String {
        match self {
            Frame::Event(event) => event.to_json_line(),
            Frame::Message(message) => message.to_json_line(),
        }
    }

    /// Parse one line of mixed event/message traffic. A line carrying
    /// both (or neither) kind key is malformed.
    pub fn from_json_line(line: &str) -> Result<Frame, String> {
        let obj = parse_flat_json(line)?;
        match (obj.contains_key("event"), obj.contains_key("msg")) {
            (true, false) => Event::from_flat(&obj).map(Frame::Event),
            (false, true) => Message::from_flat(&obj).map(Frame::Message),
            (true, true) => Err("frame carries both \"event\" and \"msg\" kinds".into()),
            (false, false) => Err("frame carries neither \"event\" nor \"msg\" kind".into()),
        }
    }
}

/// What a validated submission connection adds up to.
#[derive(Clone, Debug, PartialEq)]
pub struct SubmissionSummary {
    pub job: u64,
    pub total: usize,
    pub cached: usize,
    pub executed: usize,
    pub panicked: usize,
    pub secs: f64,
    /// The embedded progress stream's own roll-up.
    pub stream: StreamSummary,
}

/// Validate everything a submitter's connection received: exactly one
/// `job_accepted` first, then a well-formed complete v1 event stream
/// (checked with the stream [`validate`]), then exactly one `job_done`
/// whose counters agree with both the acceptance and the events.
pub fn validate_submission(frames: &[Frame]) -> Result<SubmissionSummary, String> {
    let Some((first, rest)) = frames.split_first() else {
        return Err("empty submission stream (no job_accepted)".into());
    };
    let Frame::Message(Message::JobAccepted { job, total, cached }) = first else {
        return Err(format!("submission does not begin with job_accepted (got {first:?})"));
    };
    let Some((last, middle)) = rest.split_last() else {
        return Err("submission ends after job_accepted (no job_done)".into());
    };
    let Frame::Message(Message::JobDone {
        job: done_job,
        total: done_total,
        cached: done_cached,
        executed,
        panicked,
        secs,
    }) = last
    else {
        return Err(format!("submission does not end with job_done (got {last:?})"));
    };
    let mut events = Vec::with_capacity(middle.len());
    for frame in middle {
        match frame {
            Frame::Event(event) => events.push(event.clone()),
            Frame::Message(m) => {
                return Err(format!("unexpected {} message inside the progress stream", m.kind()))
            }
        }
    }
    let stream = validate(&events)?;
    if done_job != job {
        return Err(format!("job_done is for job {done_job}, but job {job} was accepted"));
    }
    if done_total != total || done_cached != cached {
        return Err(format!(
            "job_done counters (total {done_total}, cached {done_cached}) contradict \
             job_accepted (total {total}, cached {cached})"
        ));
    }
    if executed + cached != *total {
        return Err(format!(
            "job_done executed {executed} + cached {cached} does not cover total {total}"
        ));
    }
    if !stream.complete {
        return Err("progress stream inside the submission never reached job_finished".into());
    }
    if stream.finished != *total {
        return Err(format!(
            "progress stream finished {} scenarios, job total is {total}",
            stream.finished
        ));
    }
    if stream.panicked != *panicked {
        return Err(format!(
            "job_done panicked {panicked} contradicts the event stream's {}",
            stream.panicked
        ));
    }
    Ok(SubmissionSummary {
        job: *job,
        total: *total,
        cached: *cached,
        executed: *executed,
        panicked: *panicked,
        secs: *secs,
        stream,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Status;

    fn spec() -> BTreeMap<String, String> {
        BTreeMap::from([
            ("families".to_string(), "line,square".to_string()),
            ("sizes".to_string(), "16,32".to_string()),
            ("seeds".to_string(), "0..2".to_string()),
        ])
    }

    fn samples() -> Vec<Message> {
        vec![
            Message::SubmitJob {
                name: "weak-sync".into(),
                out: "/tmp/weak.jsonl".into(),
                spec: spec(),
            },
            Message::JobAccepted { job: 3, total: 200, cached: 24 },
            Message::LeaseRequest { worker: "w1".into(), capacity: 8 },
            Message::LeaseGranted {
                job: 3,
                lease: 17,
                indexes: vec![0, 4, 9],
                expires_in_ms: 60_000,
                drained: false,
                spec: spec(),
            },
            Message::LeaseGranted {
                job: 0,
                lease: 0,
                indexes: vec![],
                expires_in_ms: 0,
                drained: true,
                spec: BTreeMap::new(),
            },
            Message::ResultBatch {
                job: 3,
                lease: 17,
                index: 4,
                record: r#"{"id":"line/n16/s1/paper","gathered":true}"#.into(),
                secs: 0.25,
            },
            Message::JobDone {
                job: 3,
                total: 200,
                cached: 24,
                executed: 176,
                panicked: 1,
                secs: 9.5,
            },
        ]
    }

    #[test]
    fn every_message_round_trips() {
        for message in samples() {
            let line = message.to_json_line();
            assert!(line.contains("\"v\":1"), "{line}");
            assert_eq!(Message::from_json_line(&line).unwrap(), message, "line {line}");
        }
    }

    #[test]
    fn truncations_never_parse() {
        for message in samples() {
            let line = message.to_json_line();
            for cut in 1..line.len() {
                assert!(Message::from_json_line(&line[..cut]).is_err(), "cut {cut} of {line}");
            }
        }
    }

    #[test]
    fn newer_schema_and_unknown_kinds_are_rejected() {
        let err =
            Message::from_json_line(r#"{"v":2,"msg":"lease_request","worker":"w","capacity":1}"#)
                .unwrap_err();
        assert!(err.contains("newer"), "{err}");
        let err = Message::from_json_line(r#"{"v":1,"msg":"job_paused"}"#).unwrap_err();
        assert!(err.contains("unknown message kind"), "{err}");
        let err = Message::from_json_line(r#"{"msg":"lease_request","worker":"w","capacity":1}"#)
            .unwrap_err();
        assert!(err.contains("missing schema version"), "{err}");
    }

    #[test]
    fn missing_fields_name_message_and_field() {
        let err = Message::from_json_line(r#"{"v":1,"msg":"job_accepted","job":1,"total":4}"#)
            .unwrap_err();
        assert!(err.contains("job_accepted") && err.contains("cached"), "{err}");
        let err = Message::from_json_line(
            r#"{"v":1,"msg":"lease_granted","job":1,"lease":2,"indexes":"3,x","expires_in_ms":1,"drained":false}"#,
        )
        .unwrap_err();
        assert!(err.contains("non-numeric"), "{err}");
    }

    #[test]
    fn frames_dispatch_on_the_kind_key() {
        let event = Event::Heartbeat { done: 1, total: 2, eta_secs: 0.5 };
        let message = Message::LeaseRequest { worker: "w".into(), capacity: 4 };
        assert_eq!(
            Frame::from_json_line(&event.to_json_line()).unwrap(),
            Frame::Event(event.clone())
        );
        assert_eq!(
            Frame::from_json_line(&message.to_json_line()).unwrap(),
            Frame::Message(message)
        );
        let err =
            Frame::from_json_line(r#"{"v":1,"event":"heartbeat","msg":"job_done"}"#).unwrap_err();
        assert!(err.contains("both"), "{err}");
        let err = Frame::from_json_line(r#"{"v":1,"done":3}"#).unwrap_err();
        assert!(err.contains("neither"), "{err}");
    }

    fn submission() -> Vec<Frame> {
        vec![
            Frame::Message(Message::JobAccepted { job: 7, total: 2, cached: 1 }),
            Frame::Event(Event::JobStarted { job: "j".into(), total: 2 }),
            Frame::Event(Event::ScenarioStarted { id: "a".into() }),
            Frame::Event(Event::ScenarioFinished {
                id: "a".into(),
                status: Status::Gathered,
                rounds: 3,
                secs: 0.0,
                robot_rounds_per_s: 0.0,
            }),
            Frame::Event(Event::ScenarioStarted { id: "b".into() }),
            Frame::Event(Event::ScenarioFinished {
                id: "b".into(),
                status: Status::Stalled,
                rounds: 9,
                secs: 0.2,
                robot_rounds_per_s: 100.0,
            }),
            Frame::Event(Event::JobFinished { done: 2, panicked: 0, secs: 0.2 }),
            Frame::Message(Message::JobDone {
                job: 7,
                total: 2,
                cached: 1,
                executed: 1,
                panicked: 0,
                secs: 0.2,
            }),
        ]
    }

    #[test]
    fn a_clean_submission_validates() {
        let summary = validate_submission(&submission()).unwrap();
        assert_eq!(summary.job, 7);
        assert_eq!(summary.total, 2);
        assert_eq!(summary.cached, 1);
        assert_eq!(summary.executed, 1);
        assert_eq!(summary.stream.finished, 2);
        assert!(summary.stream.complete);
    }

    #[test]
    fn submission_violations_are_rejected() {
        // Missing job_accepted.
        let frames = submission()[1..].to_vec();
        assert!(validate_submission(&frames).unwrap_err().contains("begin with job_accepted"));
        // Missing job_done.
        let frames = submission()[..submission().len() - 1].to_vec();
        assert!(validate_submission(&frames).unwrap_err().contains("end with job_done"));
        // Counter mismatch between accept and done.
        let mut frames = submission();
        let last = frames.last_mut().unwrap();
        *last = Frame::Message(Message::JobDone {
            job: 7,
            total: 2,
            cached: 0,
            executed: 1,
            panicked: 0,
            secs: 0.2,
        });
        assert!(validate_submission(&frames).unwrap_err().contains("contradict"));
        // A control message where only events may appear.
        let mut frames = submission();
        frames.insert(2, Frame::Message(Message::LeaseRequest { worker: "w".into(), capacity: 1 }));
        assert!(validate_submission(&frames).unwrap_err().contains("inside the progress stream"));
        // The event stream must actually cover the job.
        let mut frames = submission();
        frames.remove(5); // drop b's scenario_finished
        frames.remove(4); // drop b's scenario_started
        assert!(validate_submission(&frames).unwrap_err().contains("finished 1 scenarios"));
        assert!(validate_submission(&[]).unwrap_err().contains("empty"));
    }
}
