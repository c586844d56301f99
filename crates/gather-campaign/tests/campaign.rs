//! End-to-end campaign tests: determinism across worker-thread counts
//! and resume-after-kill semantics.

use std::collections::HashSet;
use std::path::PathBuf;

use gather_bench::{ControllerKind, SchedulerKind};
use gather_campaign::{executor, load_completed, load_records, CampaignSpec, JsonlSink, Scenario};
use gather_workloads::Family;
use grid_engine::{OrientationMode, Swarm};

/// A small but heterogeneous sweep: every scheduler, a worst-case
/// line, a dense block, and a seeded random family — including cells
/// where the paper's algorithm disconnects under weak synchrony, so
/// the determinism property covers failure records too. 48 scenarios
/// (greedy is its own sequential scheduler and expands once per cell).
fn small_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::named("test");
    spec.families = vec![Family::Line, Family::Square, Family::RandomBlob];
    spec.sizes = vec![16, 32];
    spec.seeds = vec![1, 2];
    spec.controllers = vec![ControllerKind::Paper, ControllerKind::Greedy];
    spec.schedulers = vec![
        SchedulerKind::Fsync,
        SchedulerKind::Ssync { p: 50 },
        SchedulerKind::RoundRobin { k: 4 },
    ];
    spec
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("gather-campaign-test-{name}-{}", std::process::id()));
    p
}

fn run_to_file(jobs: &[Scenario], threads: usize, path: &PathBuf) {
    let mut sink = JsonlSink::create(path).unwrap();
    executor::execute_scenarios(jobs, threads, |_done, _total, rec| {
        sink.write(rec).unwrap();
    });
}

fn sorted_lines(path: &PathBuf) -> Vec<String> {
    let mut lines: Vec<String> =
        std::fs::read_to_string(path).unwrap().lines().map(str::to_string).collect();
    lines.sort();
    lines
}

/// The acceptance property: the same spec run with 1 and with 8 worker
/// threads produces byte-identical sorted JSONL.
#[test]
fn results_are_identical_across_thread_counts() {
    let jobs = small_spec().expand();
    let single = tmp("threads1");
    let many = tmp("threads8");
    run_to_file(&jobs, 1, &single);
    run_to_file(&jobs, 8, &many);
    let a = sorted_lines(&single);
    let b = sorted_lines(&many);
    assert_eq!(a.len(), jobs.len());
    assert_eq!(a, b, "thread count changed campaign results");
    std::fs::remove_file(&single).unwrap();
    std::fs::remove_file(&many).unwrap();
}

/// Killing a campaign halfway (simulated by truncating the stream,
/// including a partial trailing line) and resuming yields exactly the
/// full result set, and re-runs only the missing scenarios.
#[test]
fn resume_after_kill_completes_the_result_set() {
    let jobs = small_spec().expand();
    let full = tmp("resume-full");
    run_to_file(&jobs, 4, &full);
    let expected = sorted_lines(&full);

    // "Kill" a run halfway: keep the first half of the stream plus a
    // torn trailing line, exactly what a killed process leaves behind.
    let half = tmp("resume-half");
    let all = std::fs::read_to_string(&full).unwrap();
    let lines: Vec<&str> = all.lines().collect();
    let keep = lines.len() / 2;
    let mut content: String = lines[..keep].iter().map(|l| format!("{l}\n")).collect();
    content.push_str(&lines[keep][..lines[keep].len() / 2]);
    std::fs::write(&half, &content).unwrap();

    // Resume: completed IDs are skipped (torn line does not count).
    let completed = load_completed(&half).unwrap();
    assert_eq!(completed.len(), keep);
    let pending: Vec<Scenario> =
        jobs.iter().copied().filter(|sc| !completed.contains(&sc.id())).collect();
    assert_eq!(pending.len(), jobs.len() - keep, "resume re-ran or lost scenarios");

    let mut sink = JsonlSink::append(&half).unwrap();
    executor::execute_scenarios(&pending, 4, |_d, _t, rec| sink.write(rec).unwrap());
    drop(sink);

    // The torn line is still in the file; parseable records must equal
    // the uninterrupted run exactly.
    let (records, skipped) = load_records(&half).unwrap();
    assert_eq!(skipped, 1, "torn trailing line should be skipped");
    let mut resumed: Vec<String> = records.iter().map(|r| r.to_json_line()).collect();
    resumed.sort();
    assert_eq!(resumed, expected, "resume diverged from the uninterrupted run");

    std::fs::remove_file(&full).unwrap();
    std::fs::remove_file(&half).unwrap();
}

/// Completed scenario IDs are skipped even under `run`-then-`resume`
/// with zero pending work: nothing is re-executed.
#[test]
fn resume_of_a_finished_campaign_runs_nothing() {
    let mut spec = small_spec();
    spec.sizes = vec![16];
    let jobs = spec.expand();
    let path = tmp("resume-noop");
    run_to_file(&jobs, 2, &path);
    let completed = load_completed(&path).unwrap();
    let pending: Vec<Scenario> =
        jobs.iter().copied().filter(|sc| !completed.contains(&sc.id())).collect();
    assert!(pending.is_empty());
    let ids: HashSet<String> = jobs.iter().map(Scenario::id).collect();
    assert_eq!(completed, ids);
    std::fs::remove_file(&path).unwrap();
}

/// Every shipped spec under `examples/sweeps/` stays loadable: it
/// parses, validates and expands to at least one scenario. The
/// weak-synchrony sweep also keeps its shape: larger sizes than the
/// standard sweep, ssync-p / rr-k / crash-f ratio axes, and the sparse
/// clusters family.
#[test]
fn shipped_specs_parse_validate_and_expand() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/sweeps");
    let mut specs = std::collections::BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("examples/sweeps exists") {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|ext| ext == "json") {
            let text = std::fs::read_to_string(&path).unwrap();
            let spec = gather_campaign::cli::spec_from_flat_json(&text)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert!(spec.validate().is_ok(), "{}", path.display());
            assert!(!spec.is_empty(), "{} expands to no scenarios", path.display());
            specs.insert(path.file_stem().unwrap().to_string_lossy().into_owned(), spec);
        }
    }
    for name in ["weak_sync", "theorem1", "theorem1_hollow", "baselines"] {
        assert!(specs.contains_key(name), "examples/sweeps/{name}.json missing");
    }

    let spec = &specs["weak_sync"];
    assert_eq!(spec.name, "weak-sync");
    assert!(spec.families.contains(&Family::Clusters));
    assert!(spec.sizes.iter().all(|&n| n >= 256), "larger n than the standard sweep");
    assert!(spec.sizes.contains(&2048));
    let ssync = spec.schedulers.iter().filter(|s| matches!(s, SchedulerKind::Ssync { .. })).count();
    let rr =
        spec.schedulers.iter().filter(|s| matches!(s, SchedulerKind::RoundRobin { .. })).count();
    let crash = spec.schedulers.iter().filter(|s| matches!(s, SchedulerKind::Crash { .. })).count();
    assert!(ssync >= 3 && rr >= 3 && crash >= 3, "each ratio axis needs >= 3 points");
    assert!(spec.len() > 1000, "a sweep worth a spec file: {} scenarios", spec.len());
}

/// The shipped paper-tables script names only shipped specs, and the
/// `campaign run` it performs for each — with the quick pass's
/// `--sizes 64,128` appended — parses through the real CLI.
#[test]
fn shipped_tables_script_runs_only_shipped_specs() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let script = std::fs::read_to_string(format!("{root}/examples/sweeps/tables.sh"))
        .expect("tables.sh exists");
    assert!(script.starts_with("#!"), "script needs a shebang");
    assert!(script.contains("summarize --in"), "script must render tables");
    let list = script.lines().find_map(|l| l.trim().strip_prefix("for spec in "));
    let names: Vec<&str> = list
        .and_then(|l| l.strip_suffix("; do"))
        .expect("script loops over its specs")
        .split_whitespace()
        .collect();
    assert_eq!(names, ["theorem1", "theorem1_hollow", "baselines"]);
    for name in names {
        let spec_path = format!("{root}/examples/sweeps/{name}.json");
        let text = std::fs::read_to_string(&spec_path).expect("tables.sh names a shipped spec");
        let shipped = gather_campaign::cli::spec_from_flat_json(&text).unwrap();
        let args: Vec<String> =
            ["run", "--spec", &spec_path, "--out", "t.jsonl", "--sizes", "64,128"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let gather_campaign::cli::Command::Run(run) = gather_campaign::cli::parse(&args).unwrap()
        else {
            panic!("{name}: not a run");
        };
        assert_eq!(run.spec.name, shipped.name);
        assert_eq!(run.spec.sizes, [64, 128], "{name}: --sizes must override the spec");
        assert_eq!(run.spec.schedulers, [SchedulerKind::Fsync], "{name}: the paper's model");
        assert_eq!(run.spec.seeds, [3], "{name}: the tables run seed 3");
    }
}

/// The n-scaling axis reaches 10⁶: a million-robot clusters scenario
/// expands, generates, and *instantiates* — the occupancy index backs a
/// ~10¹¹-cell bounding box with memory proportional to occupied tiles.
/// (Running such a scenario to completion is a compute budget, not a
/// memory one; the instantiation is what the dense grid could not do.)
#[test]
fn million_robot_scenario_instantiates_in_tile_memory() {
    let sc = Scenario {
        family: Family::Clusters,
        n: 1_000_000,
        seed: 1,
        controller: ControllerKind::Paper,
        scheduler: SchedulerKind::Fsync,
    };
    let points = sc.points();
    assert_eq!(points.len(), 1_000_000);
    let swarm: Swarm<()> = Swarm::new(&points, OrientationMode::Scrambled(sc.seed));
    let bounds = swarm.bounds();
    let box_cells = bounds.width() as u128 * bounds.height() as u128;
    assert!(box_cells >= 1_000_000_000, "bounding box only {box_cells} cells");
    let backed = swarm.index().capacity_cells() as u128;
    assert!(
        backed * 100 < box_cells,
        "index backs {backed} cells for a {box_cells}-cell box — not sparse"
    );
    assert!(!swarm.is_gathered(), "O(1) goal check on a million robots");
}
