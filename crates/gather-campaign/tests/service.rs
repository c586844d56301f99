//! End-to-end tests for the campaign service: a real Unix-socket
//! loopback (serve + workers + submit in one process), the lease-expiry
//! path a killed worker exercises, and property tests for the
//! content-addressed result cache's key soundness and byte fidelity.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::Duration;

use gather_campaign::cli::{ServeArgs, SubmitArgs, WorkArgs};
use gather_campaign::{
    manifest_path, serve, submit, work, work_on, CampaignSpec, ControllerKind, Family,
    SchedulerKind, ShardManifest,
};
use gather_obs::Message;
use gather_serve::{CacheKey, Conn, ResultCache};
use proptest::prelude::*;

/// A fresh scratch directory per test (unique across tests in this
/// process and across leaked dirs of previous runs).
fn scratch(name: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("gather-service-{}-{name}-{seq}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small sweep that exercises two families and two seeds but still
/// runs in well under a second.
fn small_spec(name: &str) -> CampaignSpec {
    let mut spec = CampaignSpec::named(name);
    spec.families = vec![Family::Line, Family::Square];
    spec.sizes = vec![16];
    spec.seeds = vec![0, 1];
    spec.controllers = vec![ControllerKind::Paper];
    spec.schedulers = vec![SchedulerKind::Fsync];
    spec
}

/// What an unsharded batch run would put on disk: every record line,
/// sorted by scenario ID, newline-terminated — the service's merged
/// output must be byte-identical to this.
fn batch_bytes(spec: &CampaignSpec) -> String {
    let mut lines: Vec<(String, String)> =
        spec.expand().iter().map(|sc| (sc.id(), sc.run().to_json_line())).collect();
    lines.sort();
    lines.into_iter().map(|(_, line)| line + "\n").collect()
}

fn connect_retry(socket: &Path) -> Conn {
    for _ in 0..200 {
        if let Ok(conn) = Conn::connect(socket) {
            return conn;
        }
        thread::sleep(Duration::from_millis(25));
    }
    panic!("service socket never came up at {}", socket.display());
}

#[test]
fn loopback_service_run_is_byte_identical_and_second_submit_is_all_cache() {
    let dir = scratch("loopback");
    let socket = dir.join("serve.sock");
    let spec = small_spec("svc-loop");
    let expected = batch_bytes(&spec);
    let total = spec.len();

    let server = {
        let args = ServeArgs {
            socket: socket.clone(),
            cache: dir.join("cache"),
            jobs: Some(2),
            lease_ttl_ms: 60_000,
            quiet: true,
        };
        thread::spawn(move || serve(&args))
    };
    // Both workers connect before the first submission: a worker still
    // retrying its connection could otherwise miss both jobs, and find
    // the socket gone once the service drains.
    let workers: Vec<_> = (0..2)
        .map(|i| {
            let conn = connect_retry(&socket);
            let args = WorkArgs {
                socket: socket.clone(),
                threads: 1,
                name: format!("w{i}"),
                lease: 1,
                poll_ms: 10,
            };
            thread::spawn(move || work_on(conn, &args))
        })
        .collect();

    let out1 = dir.join("first.jsonl");
    let first = submit(&SubmitArgs {
        socket: socket.clone(),
        spec: spec.clone(),
        out: out1.clone(),
        events: None,
        quiet: true,
    })
    .unwrap();
    assert_eq!(first.total, total);
    assert_eq!(first.cached, 0, "fresh cache directory");
    assert_eq!(first.executed, total);
    assert_eq!(first.panicked, 0);
    assert_eq!(std::fs::read_to_string(&out1).unwrap(), expected);
    let manifest =
        ShardManifest::read(&manifest_path(&out1)).unwrap().expect("service writes a manifest");
    assert!(manifest.complete);

    // Same spec again: served entirely from the cache, byte-identical,
    // and no scenario reaches a worker.
    let out2 = dir.join("second.jsonl");
    let second = submit(&SubmitArgs {
        socket: socket.clone(),
        spec: spec.clone(),
        out: out2.clone(),
        events: None,
        quiet: true,
    })
    .unwrap();
    assert_eq!(second.cached, total);
    assert_eq!(second.executed, 0);
    assert_eq!(std::fs::read_to_string(&out2).unwrap(), expected);

    let mut executed = 0;
    for worker in workers {
        let report = worker.join().unwrap().unwrap();
        executed += report.executed;
    }
    assert_eq!(executed, total, "every scenario ran exactly once, all on workers");
    server.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_killed_workers_lease_expires_and_the_job_still_converges() {
    let dir = scratch("expiry");
    let socket = dir.join("serve.sock");
    let mut spec = small_spec("svc-expiry");
    spec.families = vec![Family::Line];
    let expected = batch_bytes(&spec);
    let total = spec.len();

    let server = {
        let args = ServeArgs {
            socket: socket.clone(),
            cache: dir.join("cache"),
            jobs: Some(1),
            lease_ttl_ms: 250,
            quiet: true,
        };
        thread::spawn(move || serve(&args))
    };
    let out = dir.join("out.jsonl");
    let events = dir.join("events.ndjson");
    let submitter = {
        let args = SubmitArgs {
            socket: socket.clone(),
            spec: spec.clone(),
            out: out.clone(),
            events: Some(events.clone()),
            quiet: true,
        };
        thread::spawn(move || submit(&args))
    };

    // A "worker" that leases the whole job and then goes silent — the
    // stand-in for a worker killed mid-lease. It keeps its connection
    // open, so only TTL expiry can free the scenarios.
    let mut saboteur = connect_retry(&socket);
    loop {
        let request = Message::LeaseRequest { worker: "saboteur".into(), capacity: 99 };
        saboteur.send_line(&request.to_json_line()).unwrap();
        let line = saboteur.recv_line().unwrap().expect("service replied");
        let Message::LeaseGranted { indexes, drained, .. } =
            Message::from_json_line(&line).unwrap()
        else {
            panic!("expected a grant");
        };
        assert!(!drained);
        if indexes.len() == total {
            break;
        }
        assert!(indexes.is_empty(), "partial grants only happen under contention");
        thread::sleep(Duration::from_millis(10));
    }

    let worker = {
        let args = WorkArgs {
            socket: socket.clone(),
            threads: 1,
            name: "honest".into(),
            lease: 1,
            poll_ms: 25,
        };
        thread::spawn(move || work(&args))
    };

    let report = submitter.join().unwrap().unwrap();
    assert_eq!(report.total, total);
    assert_eq!(report.executed, total, "every scenario re-ran after the lease expired");
    assert_eq!(std::fs::read_to_string(&out).unwrap(), expected);

    // The mirrored event stream survives full validation: exactly one
    // started/finished pair per scenario even though every index was
    // granted twice.
    let stream = gather_obs::read_events(&events).unwrap();
    assert!(!stream.torn);
    let summary = gather_obs::validate(&stream.events).unwrap();
    assert!(summary.complete);
    assert_eq!(summary.finished, total);

    assert_eq!(worker.join().unwrap().unwrap().executed, total);
    drop(saboteur);
    server.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Key soundness: perturbing any single component of a cache key —
    /// scenario ID, config digest, or engine version — moves the entry
    /// to a different address.
    #[test]
    fn any_single_field_perturbation_changes_the_cache_key(
        seed in any::<u64>(),
        digest in any::<u64>(),
        delta in 1u64..u64::MAX,
        which in 0usize..3,
    ) {
        let base = CacheKey {
            scenario_id: format!("line/n16/s{seed}/paper"),
            config_digest: digest,
            engine_version: "grid-engine/0.1.0".into(),
        };
        let mut other = base.clone();
        match which {
            0 => other.scenario_id = format!("line/n16/s{seed}/center"),
            1 => other.config_digest = other.config_digest.wrapping_add(delta),
            _ => other.engine_version = format!("grid-engine/0.1.{delta}"),
        }
        prop_assert!(other != base);
        prop_assert!(other.digest_hex() != base.digest_hex());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Cache fidelity: a stored record comes back byte-identical, and
    /// those bytes equal what a fresh execution of the same scenario
    /// serializes to — the property that makes cache hits
    /// indistinguishable from fresh runs in the merged output.
    #[test]
    fn a_cache_hit_replays_the_exact_bytes_of_a_fresh_run(
        seed in 0u64..1_000,
        fam in 0usize..3,
        size in 8usize..=20,
    ) {
        let mut spec = small_spec("svc-cache-prop");
        spec.families = vec![[Family::Line, Family::Square, Family::RandomBlob][fam]];
        spec.sizes = vec![size];
        spec.seeds = vec![seed];
        let sc = spec.expand()[0];
        let line = sc.run().to_json_line();
        let key = CacheKey {
            scenario_id: sc.id(),
            config_digest: sc.config_digest(),
            engine_version: grid_engine::ENGINE_VERSION.to_string(),
        };

        let dir = scratch("cache-prop");
        let cache = ResultCache::open(&dir).unwrap();
        prop_assert!(cache.lookup(&key).is_none());
        cache.store(&key, &line).unwrap();
        let hit = cache.lookup(&key);
        prop_assert_eq!(hit.as_deref(), Some(line.as_str()));
        prop_assert_eq!(cache.lookup(&key).unwrap(), sc.run().to_json_line());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The spec round trip the wire protocol rests on: a spec flattened to
/// `spec_*` fields and rebuilt on the other side expands to the same
/// scenarios in the same order.
#[test]
fn wire_spec_fields_preserve_the_expansion() {
    let spec = small_spec("svc-wire");
    let fields: BTreeMap<String, String> = gather_campaign::cli::spec_to_fields(&spec);
    let rebuilt = gather_campaign::cli::spec_from_fields(&fields).unwrap();
    assert_eq!(rebuilt, spec);
    assert_eq!(
        rebuilt.expand().iter().map(|s| s.id()).collect::<Vec<_>>(),
        spec.expand().iter().map(|s| s.id()).collect::<Vec<_>>(),
    );
}
