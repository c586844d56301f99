//! One decode contract per campaign line format: result records, shard
//! manifests, every event kind and every service message kind. Each
//! sample is encoded by its own writer; then every field in turn is
//! dropped, and retyped (a string for a number, a number for a string or
//! a boolean), and the reader must fail with an error naming the field —
//! except that a field added after its format's first version may be
//! dropped, and then reads as its legacy default.

use std::collections::BTreeMap;
use std::fmt::Debug;

use gather_analysis::{escape_json, parse_flat_json, JsonScalar};
use gather_campaign::{
    CampaignSpec, ControllerKind, Family, PerfSummary, Scenario, ScenarioRecord, SchedulerKind,
    ShardManifest, ShardSpec,
};
use gather_obs::{Event, Message, Status};
use grid_engine::PHASE_COUNT;

/// `line` with `key` dropped (`token` is `None`) or holding the raw JSON
/// `token`. The other fields keep their values.
fn with_field(line: &str, key: &str, token: Option<&str>) -> String {
    let obj = parse_flat_json(line).unwrap();
    let fields: Vec<String> = obj
        .iter()
        .filter_map(|(k, v)| {
            let token = if k == key { token?.to_string() } else { json_token(v) };
            Some(format!("{}:{token}", escape_json(k)))
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn json_token(value: &JsonScalar) -> String {
    match value {
        JsonScalar::Str(s) => escape_json(s),
        JsonScalar::Int(v) => v.to_string(),
        JsonScalar::Num(v) => v.to_string(),
        JsonScalar::Bool(v) => v.to_string(),
        JsonScalar::Null => "null".into(),
    }
}

/// Every field of `line` fails `decode` with an error naming it when
/// retyped, and when dropped unless `optional` says it may be absent.
fn assert_contract<T: Debug + PartialEq>(
    line: &str,
    optional: impl Fn(&str) -> bool,
    decode: impl Fn(&str) -> Result<T, String>,
) {
    let value = decode(line).unwrap();
    assert_eq!(decode(&with_field(line, "", None)).unwrap(), value, "re-emitted {line}");
    for (key, field) in parse_flat_json(line).unwrap().iter() {
        let named = format!("{key:?}");
        let other = match field {
            JsonScalar::Str(_) | JsonScalar::Bool(_) => "7",
            _ => "\"7\"",
        };
        let retyped = with_field(line, key, Some(other));
        let err = decode(&retyped).expect_err(&retyped);
        assert!(err.contains(&named), "retyped {key}: {err}");
        let dropped = with_field(line, key, None);
        if optional(key) {
            decode(&dropped).unwrap_or_else(|e| panic!("dropped optional {key}: {e}"));
        } else {
            let err = decode(&dropped).expect_err(&dropped);
            assert!(err.contains(&named), "dropped {key}: {err}");
        }
    }
}

fn perf_record() -> ScenarioRecord {
    let sc = Scenario {
        family: Family::RandomBlob,
        n: 96,
        seed: 7,
        controller: ControllerKind::Center,
        scheduler: SchedulerKind::Ssync { p: 50 },
    };
    let m = gather_bench::Measurement {
        n: 96,
        rounds: 412,
        merges: 95,
        gathered: true,
        connected: true,
        activations: 19_776,
    };
    let mut rec = ScenarioRecord::from_measurement(&sc, &m);
    rec.secs = 1.25;
    let mut phase_s = [0.0; PHASE_COUNT];
    for (i, slot) in phase_s.iter_mut().enumerate() {
        *slot = 0.125 * (i as f64 + 1.0);
    }
    rec.perf = Some(PerfSummary { wall_s: 1.5, rounds: 412, computed: 9_000, phase_s });
    rec
}

#[test]
fn scenario_records_name_every_bad_field() {
    let rec = perf_record();
    let line = rec.to_json_line();
    let legacy =
        |key: &str| matches!(key, "scheduler" | "activations" | "secs") || key.starts_with("perf_");
    assert_contract(&line, legacy, ScenarioRecord::from_json_line);

    // The legacy defaults: FSYNC, no activations, unmeasured, no perf.
    let read = |key| ScenarioRecord::from_json_line(&with_field(&line, key, None)).unwrap();
    assert_eq!(read("scheduler"), ScenarioRecord { scheduler: "fsync".into(), ..rec.clone() });
    assert_eq!(read("activations"), ScenarioRecord { activations: 0, ..rec.clone() });
    assert_eq!(read("secs"), ScenarioRecord { secs: 0.0, ..rec.clone() });
    assert_eq!(read("perf_wall_s"), ScenarioRecord { perf: None, ..rec });
}

#[test]
fn shard_manifests_name_every_bad_field() {
    let mut m =
        ShardManifest::for_shard(&CampaignSpec::standard(), ShardSpec { index: 1, count: 4 });
    m.complete = true;
    let line = m.to_json();
    assert_contract(&line, |_| false, ShardManifest::from_json);
    // Manifests written while a partition strategy was selectable name
    // it; the field is ignored.
    let legacy = line.replacen('{', r#"{"strategy":"hash","#, 1);
    assert_eq!(ShardManifest::from_json(&legacy).unwrap(), m);
}

#[test]
fn every_event_kind_names_every_bad_field() {
    let events = [
        Event::JobStarted { job: "weak-sync".into(), total: 144 },
        Event::ScenarioStarted { id: "line/n64/s3/paper".into() },
        Event::ScenarioFinished {
            id: "line/n64/s3/paper".into(),
            status: Status::Stalled,
            rounds: 123,
            secs: 0.75,
            robot_rounds_per_s: 10_496.5,
        },
        Event::Heartbeat { done: 2, total: 144, eta_secs: 53.25 },
        Event::JobFinished { done: 144, panicked: 1, secs: 54.5 },
    ];
    for event in events {
        assert_contract(&event.to_json_line(), |_| false, Event::from_json_line);
    }
}

#[test]
fn every_message_kind_names_every_bad_field() {
    let spec = BTreeMap::from([
        ("families".to_string(), "line,square".to_string()),
        ("seeds".to_string(), "0..2".to_string()),
    ]);
    let messages = [
        Message::SubmitJob {
            name: "weak-sync".into(),
            out: "/tmp/w.jsonl".into(),
            spec: spec.clone(),
        },
        Message::JobAccepted { job: 3, total: 200, cached: 24 },
        Message::LeaseRequest { worker: "w1".into(), capacity: 8 },
        Message::LeaseGranted {
            job: 3,
            lease: 17,
            indexes: vec![0, 4, 9],
            expires_in_ms: 60_000,
            drained: false,
            spec,
        },
        Message::ResultBatch {
            job: 3,
            lease: 17,
            index: 4,
            record: perf_record().to_json_line(),
            secs: 0.25,
        },
        Message::JobDone { job: 3, total: 200, cached: 24, executed: 176, panicked: 1, secs: 9.5 },
    ];
    // Spec axes are optional: an absent one keeps its default.
    let axis = |key: &str| key.starts_with("spec_");
    for message in messages {
        assert_contract(&message.to_json_line(), axis, Message::from_json_line);
    }
}
