//! End-to-end distributed-campaign tests: the acceptance property
//! (sharded run + verified merge ≡ unsharded run), the merge edge-case
//! matrix (missing / overlapping / mixed-spec / torn / incomplete /
//! resumed-duplicate shards), and the partition proptest.

use std::path::{Path, PathBuf};

use gather_bench::{ControllerKind, SchedulerKind};
use gather_campaign::{
    executor, load_records, merge_shards, merge_trace_dirs, read_manifest, read_trace_manifest,
    summarize, trace_ops, write_manifest, write_trace_manifest, CampaignSpec, JsonlSink,
    ReplayStatus, ShardManifest, ShardSpec,
};
use gather_workloads::Family;
use proptest::prelude::*;

/// Small but heterogeneous: multiple schedulers (so five-segment IDs are
/// hashed too), the greedy strawman (one expansion per cell), and cells
/// where the paper controller fails under weak synchrony — failure
/// records must shard and merge like successes.
fn small_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::named("shard-test");
    spec.families = vec![Family::Line, Family::Square, Family::RandomBlob];
    spec.sizes = vec![16, 32];
    spec.seeds = vec![1, 2];
    spec.controllers = vec![ControllerKind::Paper, ControllerKind::Greedy];
    spec.schedulers = vec![SchedulerKind::Fsync, SchedulerKind::Ssync { p: 50 }];
    spec
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("gather-shard-merge-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Execute one shard the way `campaign run --shard` does: partitioned
/// pending set, manifest without the marker first, records streamed,
/// marker flipped at the end.
fn run_shard(spec: &CampaignSpec, shard: ShardSpec, out: &Path) -> ShardManifest {
    let jobs = spec.expand();
    let pending = executor::select_pending(&jobs, shard, &Default::default());
    let manifest = ShardManifest::for_shard(spec, shard);
    let mut sink = JsonlSink::create(out).unwrap();
    write_manifest(out, &manifest).unwrap();
    executor::execute_scenarios(&pending, 4, |_d, _t, rec| sink.write(rec).unwrap());
    drop(sink);
    let manifest = ShardManifest { complete: true, ..manifest };
    write_manifest(out, &manifest).unwrap();
    manifest
}

fn run_all_shards(spec: &CampaignSpec, count: u32, dir: &Path) -> Vec<PathBuf> {
    (0..count)
        .map(|index| {
            let shard = ShardSpec { index, count };
            let out = dir.join(format!("c.shard{index}of{count}.jsonl"));
            run_shard(spec, shard, &out);
            out
        })
        .collect()
}

fn sorted_lines(path: &Path) -> Vec<String> {
    let mut lines: Vec<String> =
        std::fs::read_to_string(path).unwrap().lines().map(str::to_string).collect();
    lines.sort();
    lines
}

/// The acceptance property: four shard runs plus a verified merge give
/// a result file whose record set — and therefore whose `summarize`
/// tables — are identical to the unsharded run's.
#[test]
fn four_shards_plus_merge_equal_the_unsharded_run() {
    let spec = small_spec();
    let dir = tmp_dir("acceptance");

    // Unsharded reference (the degenerate 0/1 shard, same code path).
    let reference = dir.join("reference.jsonl");
    run_shard(&spec, ShardSpec::FULL, &reference);
    let expected = sorted_lines(&reference);
    assert_eq!(expected.len(), spec.len());

    let shards = run_all_shards(&spec, 4, &dir);
    let merged = dir.join("merged.jsonl");
    let report = merge_shards(&shards, &merged).unwrap();
    assert_eq!(report.total, spec.len());
    assert_eq!(report.duplicates, 0);
    assert_eq!(report.shards.len(), 4);

    // Same record set, line for line.
    assert_eq!(sorted_lines(&merged), expected);

    // And the rendered summaries agree exactly.
    let (merged_records, _) = load_records(&merged).unwrap();
    let (reference_records, _) = load_records(&reference).unwrap();
    let render = |records: &[gather_campaign::ScenarioRecord]| -> String {
        summarize(records).iter().map(gather_analysis::render_markdown).collect()
    };
    assert_eq!(render(&merged_records), render(&reference_records));

    // The merged file carries a complete full-cover manifest, so it
    // verifies exactly like an unsharded run's output would.
    let manifest = read_manifest(&merged).unwrap().unwrap();
    assert!(manifest.complete);
    assert_eq!(manifest.shard(), ShardSpec::FULL);
    assert_eq!(manifest.shard_len, spec.len());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn merge_rejects_a_missing_shard() {
    let spec = small_spec();
    let dir = tmp_dir("missing");
    let mut shards = run_all_shards(&spec, 4, &dir);
    shards.remove(2);
    let err = merge_shards(&shards, &dir.join("merged.jsonl")).unwrap_err();
    assert!(err.contains("missing shard"), "{err}");
    assert!(err.contains("2/4"), "the gap must be named: {err}");
    assert!(!dir.join("merged.jsonl").exists(), "nothing may be written on failure");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn merge_rejects_overlapping_shards() {
    let spec = small_spec();
    let dir = tmp_dir("overlap");
    let mut shards = run_all_shards(&spec, 4, &dir);
    // Shard 1 submitted twice under different file names.
    let copy = dir.join("c.shard1of4-copy.jsonl");
    std::fs::copy(&shards[1], &copy).unwrap();
    std::fs::copy(
        gather_campaign::manifest_path(&shards[1]),
        gather_campaign::manifest_path(&copy),
    )
    .unwrap();
    shards[3] = copy;
    let err = merge_shards(&shards, &dir.join("merged.jsonl")).unwrap_err();
    assert!(err.contains("overlapping"), "{err}");
    assert!(err.contains("1/4"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn merge_rejects_mixed_spec_shards() {
    let spec = small_spec();
    let dir = tmp_dir("mixed");
    let mut shards = run_all_shards(&spec, 2, &dir);
    // Shard 1 of a *different* spec (extra size axis point).
    let mut other = small_spec();
    other.sizes.push(24);
    let foreign = dir.join("foreign.shard1of2.jsonl");
    run_shard(&other, ShardSpec { index: 1, count: 2 }, &foreign);
    shards[1] = foreign;
    let err = merge_shards(&shards, &dir.join("merged.jsonl")).unwrap_err();
    assert!(err.contains("mixed-spec"), "{err}");
    assert!(err.contains("spec_digest"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn merge_rejects_a_torn_final_line() {
    let spec = small_spec();
    let dir = tmp_dir("torn");
    let shards = run_all_shards(&spec, 4, &dir);
    // Corrupt shard 2 after completion: chop the final line in half,
    // exactly what a partial copy or a dying disk leaves behind.
    let content = std::fs::read_to_string(&shards[2]).unwrap();
    let cut = content.trim_end().rfind('\n').map(|i| i + 1).unwrap_or(0);
    let tail_len = (content.len() - cut) / 2;
    std::fs::write(&shards[2], &content[..cut + tail_len]).unwrap();
    let err = merge_shards(&shards, &dir.join("merged.jsonl")).unwrap_err();
    assert!(err.contains("does not match its manifest"), "{err}");
    assert!(err.contains("2/4"), "{err}");
    assert!(err.contains("torn"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn merge_rejects_an_incomplete_shard() {
    let spec = small_spec();
    let dir = tmp_dir("incomplete");
    let shards = run_all_shards(&spec, 2, &dir);
    // Rewind shard 0's manifest to the not-yet-complete state a crashed
    // run leaves behind.
    let manifest = read_manifest(&shards[0]).unwrap().unwrap();
    write_manifest(&shards[0], &ShardManifest { complete: false, ..manifest }).unwrap();
    let err = merge_shards(&shards, &dir.join("merged.jsonl")).unwrap_err();
    assert!(err.contains("completion marker"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A resumed shard legitimately re-emits records (the JSONL sink
/// appends; resume skips completed IDs, but a record flushed right as
/// the previous run died can land twice). Merge must keep the *last*
/// occurrence and report the duplicate, not fail.
#[test]
fn merge_dedups_resumed_duplicates_keeping_the_last_record() {
    let spec = small_spec();
    let dir = tmp_dir("dupes");
    let shards = run_all_shards(&spec, 2, &dir);

    // Append a doctored duplicate of shard 0's first record: same ID,
    // different rounds value. Last occurrence must win.
    let (records, _) = load_records(&shards[0]).unwrap();
    let mut doctored = records[0].clone();
    doctored.rounds += 1000;
    let mut content = std::fs::read_to_string(&shards[0]).unwrap();
    content.push_str(&doctored.to_json_line());
    content.push('\n');
    std::fs::write(&shards[0], content).unwrap();

    let merged = dir.join("merged.jsonl");
    let report = merge_shards(&shards, &merged).unwrap();
    assert_eq!(report.duplicates, 1);
    assert_eq!(report.shards[0].duplicates, 1);
    assert_eq!(report.total, spec.len());
    let (merged_records, _) = load_records(&merged).unwrap();
    let kept = merged_records.iter().find(|r| r.id == doctored.id).unwrap();
    assert_eq!(kept.rounds, doctored.rounds, "last occurrence must win");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Sharded resume: kill shard 1 halfway (torn trailing line included),
/// resume it, and the merge completes with the full result set.
#[test]
fn killed_shard_resumes_and_merges_clean() {
    let spec = small_spec();
    let dir = tmp_dir("resume");
    let count = 2u32;
    let shard = ShardSpec { index: 1, count };
    let shard0 = dir.join("c.shard0of2.jsonl");
    run_shard(&spec, ShardSpec { index: 0, count }, &shard0);

    // Shard 1 "dies": half its records plus a torn line, manifest
    // still lacking the completion marker.
    let full = dir.join("c.shard1of2.full.jsonl");
    run_shard(&spec, shard, &full);
    let all = std::fs::read_to_string(&full).unwrap();
    let lines: Vec<&str> = all.lines().collect();
    let keep = lines.len() / 2;
    let mut content: String = lines[..keep].iter().map(|l| format!("{l}\n")).collect();
    content.push_str(&lines[keep][..lines[keep].len() / 2]);
    let shard1 = dir.join("c.shard1of2.jsonl");
    std::fs::write(&shard1, &content).unwrap();
    let manifest = ShardManifest::for_shard(&spec, shard);
    write_manifest(&shard1, &manifest).unwrap();

    // An un-resumed dead shard must be refused.
    let err = merge_shards(&[shard0.clone(), shard1.clone()], &dir.join("m.jsonl")).unwrap_err();
    assert!(err.contains("completion marker"), "{err}");

    // Resume exactly like `campaign resume --shard 1/2` would.
    let completed = gather_campaign::load_completed(&shard1).unwrap();
    assert_eq!(completed.len(), keep, "torn line must not count as completed");
    let pending = executor::select_pending(&spec.expand(), shard, &completed);
    let mut sink = JsonlSink::append(&shard1).unwrap();
    executor::execute_scenarios(&pending, 4, |_d, _t, rec| sink.write(rec).unwrap());
    drop(sink);
    write_manifest(&shard1, &ShardManifest { complete: true, ..manifest }).unwrap();

    let merged = dir.join("merged.jsonl");
    let report = merge_shards(&[shard0.clone(), shard1], &merged).unwrap();
    assert_eq!(report.total, spec.len());
    // Records are pure functions of the scenario, so the merged set is
    // exactly shard 0's lines plus uninterrupted shard 1's lines.
    let mut expected = sorted_lines(&full);
    expected.extend(sorted_lines(&shard0));
    expected.sort();
    assert_eq!(sorted_lines(&merged), expected, "resume diverged from the uninterrupted shard");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The shipped shard helper script stays wired to the shipped spec: it
/// invokes `campaign plan` on `examples/sweeps/weak_sync.json`, and the
/// invocation it performs parses through the real CLI.
#[test]
fn shipped_shard_script_invokes_a_parsable_plan() {
    let script_path =
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/sweeps/weak_sync_shard.sh");
    let script = std::fs::read_to_string(script_path).expect("weak_sync_shard.sh exists");
    assert!(script.starts_with("#!"), "script needs a shebang");
    assert!(script.contains("plan"), "script must use `campaign plan`");
    assert!(script.contains("--shards"), "script must pass --shards");
    assert!(script.contains("examples/sweeps/weak_sync.json"), "script must target the sweep");

    // Reconstruct the plan invocation the script performs (default
    // shard count) and push it through the real parser.
    let spec_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/sweeps/weak_sync.json");
    let args: Vec<String> =
        ["plan", "--shards", "4", "--spec", spec_path, "--out", "weak_sync.jsonl"]
            .iter()
            .map(|s| s.to_string())
            .collect();
    let cmd = gather_campaign::cli::parse(&args).expect("the script's plan invocation parses");
    let gather_campaign::cli::Command::Plan { run, shards } = cmd else { panic!("not plan") };
    assert_eq!(shards, 4);
    assert_eq!(run.spec.name, "weak-sync");
    assert_eq!(run.spec.len(), 2400, "the weak-sync sweep is the 2400-scenario question");
    // The plan's command lines re-parse and partition the 2400
    // scenarios exactly (proved in general by the proptest below; this
    // pins the shipped sweep specifically).
    let lines = gather_campaign::plan_lines(&run.spec, shards, &run.out, run.threads);
    assert_eq!(lines.len(), 5);
    let mut covered = 0usize;
    for line in &lines[..4] {
        let args: Vec<String> = line.split_whitespace().skip(1).map(str::to_string).collect();
        let gather_campaign::cli::Command::Run(parsed) =
            gather_campaign::cli::parse(&args).unwrap()
        else {
            panic!("plan line is not a run: {line}");
        };
        covered += parsed.spec.expand_shard(parsed.shard).len();
    }
    assert_eq!(covered, 2400, "the four planned shards must cover every scenario");
}

/// A tiny spec for the sharded-trace tests, including the ASYNC
/// scheduler so in-flight (v2 pending) trace content shards and merges
/// too; greedy rides along untraced, exercising the traced-only
/// manifest arithmetic.
fn trace_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::named("trace-shard-test");
    spec.families = vec![Family::Line, Family::Square];
    spec.sizes = vec![16];
    spec.seeds = vec![1, 2];
    spec.controllers = vec![ControllerKind::Paper, ControllerKind::Greedy];
    spec.schedulers = vec![SchedulerKind::Fsync, SchedulerKind::Async { s: 2 }];
    spec
}

/// Record one shard's traces the way `campaign record --shard` does:
/// traced-scenario manifest first (marker off), one `.gtrc` per engine
/// scenario, marker flipped at the end.
fn record_shard_traces(spec: &CampaignSpec, shard: ShardSpec, dir: &Path) -> ShardManifest {
    std::fs::create_dir_all(dir).unwrap();
    let pending = executor::select_pending(&spec.expand(), shard, &Default::default());
    let manifest = ShardManifest::for_traced_shard(spec, shard);
    write_trace_manifest(dir, &manifest).unwrap();
    for sc in &pending {
        let outcome = sc.execute(Some(dir), false);
        assert!(outcome.error.is_none(), "recording {}: {:?}", sc.id(), outcome.error);
    }
    let manifest = ShardManifest { complete: true, ..manifest };
    write_trace_manifest(dir, &manifest).unwrap();
    manifest
}

fn trace_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
    trace_ops::list_trace_files(dir)
        .unwrap()
        .into_iter()
        .map(|p| {
            (p.file_name().unwrap().to_string_lossy().into_owned(), std::fs::read(&p).unwrap())
        })
        .collect()
}

/// The trace-merge acceptance property: two shard recordings plus a
/// verified merge produce a trace directory *byte-identical* to an
/// unsharded recording — same file names, same bytes — with a complete
/// full-cover manifest, and every merged trace replays clean.
#[test]
fn sharded_trace_record_plus_merge_is_byte_identical_to_unsharded() {
    let spec = trace_spec();
    let dir = tmp_dir("traces");

    let reference = dir.join("reference");
    record_shard_traces(&spec, ShardSpec::FULL, &reference);
    let expected = trace_bytes(&reference);
    let traced: Vec<_> =
        spec.expand().into_iter().filter(|sc| sc.controller != ControllerKind::Greedy).collect();
    assert_eq!(expected.len(), traced.len(), "one trace per engine scenario");

    let shards: Vec<PathBuf> = (0..2)
        .map(|index| {
            let shard_dir = dir.join(format!("shard{index}of2"));
            record_shard_traces(&spec, ShardSpec { index, count: 2 }, &shard_dir);
            shard_dir
        })
        .collect();

    let merged = dir.join("merged");
    let report = merge_trace_dirs(&shards, &merged).unwrap();
    assert_eq!(report.total, traced.len());
    assert_eq!(report.shards.len(), 2);

    assert_eq!(trace_bytes(&merged), expected, "merged trace set must be byte-identical");

    let manifest = read_trace_manifest(&merged).unwrap().unwrap();
    assert!(manifest.complete);
    assert_eq!(manifest.shard(), ShardSpec::FULL);
    assert_eq!(manifest.shard_len, traced.len());

    for file in trace_ops::list_trace_files(&merged).unwrap() {
        let replay = trace_ops::replay_trace(&file);
        assert!(
            matches!(replay.status, ReplayStatus::Match { .. }),
            "{}: {:?}",
            replay.id,
            replay.status
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The trace merge refuses the same holes the result merge does:
/// missing shards, incomplete recordings, sets that lost a trace, and
/// directories without a manifest.
#[test]
fn trace_merge_rejects_broken_shard_sets() {
    let spec = trace_spec();
    let dir = tmp_dir("trace-reject");
    let shards: Vec<PathBuf> = (0..2)
        .map(|index| {
            let shard_dir = dir.join(format!("shard{index}of2"));
            record_shard_traces(&spec, ShardSpec { index, count: 2 }, &shard_dir);
            shard_dir
        })
        .collect();
    let out = dir.join("merged");

    // Missing shard.
    let err = merge_trace_dirs(&shards[..1], &out).unwrap_err();
    assert!(err.contains("missing shard"), "{err}");

    // Incomplete recording (crashed mid-run).
    let manifest = read_trace_manifest(&shards[0]).unwrap().unwrap();
    write_trace_manifest(&shards[0], &ShardManifest { complete: false, ..manifest.clone() })
        .unwrap();
    let err = merge_trace_dirs(&shards, &out).unwrap_err();
    assert!(err.contains("completion marker"), "{err}");
    write_trace_manifest(&shards[0], &manifest).unwrap();

    // A lost trace file.
    let victim = trace_ops::list_trace_files(&shards[1]).unwrap().remove(0);
    let bytes = std::fs::read(&victim).unwrap();
    std::fs::remove_file(&victim).unwrap();
    let err = merge_trace_dirs(&shards, &out).unwrap_err();
    assert!(err.contains("does not match its manifest"), "{err}");

    // A renamed trace file (count and header intact, name wrong).
    std::fs::write(shards[1].join("imposter.gtrc"), &bytes).unwrap();
    let err = merge_trace_dirs(&shards, &out).unwrap_err();
    assert!(err.contains("not named"), "{err}");
    std::fs::write(&victim, &bytes).unwrap();
    std::fs::remove_file(shards[1].join("imposter.gtrc")).unwrap();

    // A directory that was never a recorded shard.
    let foreign = dir.join("not-a-shard");
    std::fs::create_dir_all(&foreign).unwrap();
    let err = merge_trace_dirs(&[shards[0].clone(), foreign], &out).unwrap_err();
    assert!(err.contains("no trace manifest"), "{err}");

    // Nothing was ever written on failure.
    assert!(!out.exists(), "a refused merge must not leave a partial output");
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// `hash` partitioning of any spec is a disjoint exact cover for
    /// every shard count M in 1..=8 — scenario IDs land in exactly one
    /// shard, independent of expansion order and machine.
    #[test]
    fn hash_partition_is_a_disjoint_exact_cover(
        family_mask in 1u32..2048,
        size_mask in 1u32..16,
        nseeds in 1u64..4,
        controller_mask in 1u32..8,
        scheduler_mask in 1u32..16,
    ) {
        let families = gather_workloads::all_families();
        let mut spec = CampaignSpec::named("prop");
        spec.families = families
            .iter()
            .enumerate()
            .filter(|(i, _)| family_mask & (1 << i) != 0)
            .map(|(_, &f)| f)
            .collect();
        spec.sizes = [8usize, 16, 24, 32]
            .iter()
            .enumerate()
            .filter(|(i, _)| size_mask & (1 << i) != 0)
            .map(|(_, &n)| n)
            .collect();
        spec.seeds = (0..nseeds).collect();
        spec.controllers = ControllerKind::ALL
            .iter()
            .enumerate()
            .filter(|(i, _)| controller_mask & (1 << i) != 0)
            .map(|(_, &c)| c)
            .collect();
        let all_schedulers = [
            SchedulerKind::Fsync,
            SchedulerKind::Ssync { p: 50 },
            SchedulerKind::RoundRobin { k: 4 },
            SchedulerKind::Crash { f: 2 },
        ];
        spec.schedulers = all_schedulers
            .iter()
            .enumerate()
            .filter(|(i, _)| scheduler_mask & (1 << i) != 0)
            .map(|(_, &s)| s)
            .collect();
        prop_assert!(spec.validate().is_ok(), "masks always leave every axis non-empty");

        let all = spec.expand();
        for count in 1..=8u32 {
            let mut seen = std::collections::HashSet::new();
            let mut union = 0usize;
            let mut folded = 0u64;
            for index in 0..count {
                let shard = ShardSpec { index, count };
                let jobs = spec.expand_shard(shard);
                let manifest = ShardManifest::for_shard(&spec, shard);
                prop_assert_eq!(manifest.shard_len, jobs.len());
                folded ^= manifest.shard_coverage;
                union += jobs.len();
                for sc in &jobs {
                    prop_assert!(
                        seen.insert(sc.id()),
                        "M={}: scenario {} in two shards", count, sc.id()
                    );
                }
            }
            prop_assert_eq!(union, all.len(), "M={}: shards lost or invented jobs", count);
            prop_assert_eq!(
                folded, spec.coverage_digest(),
                "M={}: coverage digests must fold to the spec's", count
            );
        }
    }
}
