//! The benchmark's own tests, on the tiny-size mode of every workload.
//! Run with `cargo test --release --manifest-path gatherbench/Cargo.toml`.

use gatherbench::report::{result_line, END_TO_END, PER_LAYER};
use gatherbench::{run, Args, Outcome, Workload};

fn tiny(workload: Workload, trace: bool, pins: Option<Vec<(u64, u64)>>) -> Outcome {
    let args = Args { workload, seed: 3, seconds: 0.01, trace, tiny: true, pins };
    run(&args).unwrap_or_else(|e| panic!("{} failed to run: {e}", workload.name()))
}

#[test]
fn every_named_metric_is_emitted_with_its_unit() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let out = tiny(workload, trace, None);
            let name = workload.name();
            assert_eq!(out.checks.failed, 0, "{name} trace={trace}: {:?}", out.checks.misses);
            assert!(out.checks.attempted > 0, "{name}: nothing was verified");
            let (registry, values) =
                if trace { (&PER_LAYER[..], &out.layers) } else { (&END_TO_END[..], &out.e2e) };
            let (line, failed) = result_line(out.checks.attempted, 0, registry, values);
            assert_eq!(failed, 0, "{name} trace={trace}: a metric is missing or not finite");
            for (metric, unit) in registry {
                let field = format!("\"{metric}\":{{\"value\":");
                let at = line.find(&field).unwrap_or_else(|| panic!("{name}: {metric} missing"));
                let rest = &line[at..];
                assert!(
                    rest[..rest.find('}').expect("closed")]
                        .ends_with(&format!("\"unit\":\"{unit}\"")),
                    "{name}: {metric} lacks its unit {unit}"
                );
            }
            assert_eq!(line.matches("\"unit\"").count(), registry.len(), "{name}: extra metrics");
            if !trace {
                for (metric, _) in END_TO_END {
                    assert!(values[metric] > 0.0, "{name}: end-to-end {metric} is not positive");
                }
            }
            assert!(out.stamp.threads <= out.stamp.cores, "{name}: more threads than cores");
        }
    }
}

#[test]
fn traced_runs_measure_the_layers_they_pass_through() {
    let fsync = tiny(Workload::FsyncGather, true, None);
    for metric in [
        "workloads.gen_ns_per_robot",
        "swarm.build_ns_per_robot",
        "view.new_ns",
        "engine.compute_ns_per_act",
        "core.decide_ns",
        "core.merge_check_ns",
        "connectivity.ns_per_robot",
        "spec.expand_ms",
    ] {
        assert!(fsync.layers[metric] > 0.0, "fsync-gather: {metric} was not measured");
    }
    assert!(fsync.layers["engine.activations"] >= fsync.layers["engine.merges"]);
    // fsync-gather runs neither GoToCenter, the sink, the cache nor more
    // than one engine thread: those layers report 0.
    for metric in [
        "center.decide_ns",
        "sink.write_us",
        "cache.store_us",
        "cache.lookup_us",
        "parallel.compute_speedup",
        "service.busy_frac",
    ] {
        assert_eq!(fsync.layers[metric], 0.0, "fsync-gather: {metric} should not be measured");
    }
    let sweep = tiny(Workload::WeakSweep, true, None);
    for metric in [
        "center.decide_ns",
        "sink.write_us",
        "cache.store_us",
        "cache.lookup_us",
        "executor.busy_frac",
        "service.busy_frac",
        "service.scenarios_per_lease",
        "service.resubmit_ms",
    ] {
        assert!(sweep.layers[metric] > 0.0, "weak-sweep: {metric} was not measured");
    }
    assert_eq!(sweep.layers["parallel.compute_speedup"], 0.0, "weak-sweep runs 1-thread engines");
}

#[test]
fn work_counts_repeat_exactly() {
    let a = tiny(Workload::WeakSweep, true, None);
    let b = tiny(Workload::WeakSweep, true, None);
    for metric in [
        "engine.activations",
        "engine.merges",
        "engine.moves",
        "work.rounds_to_gather",
        "work.gathered_frac",
    ] {
        assert_eq!(a.layers[metric], b.layers[metric], "{metric} differs between runs");
    }
}

#[test]
fn a_tampered_pin_raises_failed_frac() {
    // The true pins of the tiny fsync-gather scenarios pass...
    let honest = tiny(Workload::FsyncGather, false, None);
    assert_eq!(honest.checks.failed, 0, "{:?}", honest.checks.misses);
    let pins: Vec<(u64, u64)> = honest
        .summary
        .iter()
        .filter_map(|line| {
            let field = |key: &str| {
                let at = line.find(key)? + key.len();
                let value = line[at..].split_whitespace().next()?;
                match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16).ok(),
                    None => value.parse().ok(),
                }
            };
            Some((field(" rounds=")?, field(" digest=")?))
        })
        .collect();
    assert_eq!(pins.len(), 4, "one pin per scenario: {:?}", honest.summary);
    let pinned = tiny(Workload::FsyncGather, false, Some(pins.clone()));
    assert_eq!(pinned.checks.failed, 0, "{:?}", pinned.checks.misses);
    // ...and one flipped digest bit is a counted miss, not a crash.
    let mut tampered = pins;
    tampered[1].1 ^= 1;
    let out = tiny(Workload::FsyncGather, false, Some(tampered));
    assert!(out.checks.failed > 0, "a tampered digest went unnoticed");
    assert!(out.checks.misses.iter().any(|m| m.contains("pinned")), "{:?}", out.checks.misses);
    let (line, _) = result_line(out.checks.attempted, out.checks.failed, &END_TO_END, &out.e2e);
    assert!(line.starts_with("{\"correct\":false"), "{line}");
}

#[test]
fn arguments_parse_and_reject() {
    let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let args = Args::parse(argv("--workload scale-fsync --seed 7 --seconds 12 --trace 1")).unwrap();
    assert_eq!(
        (args.workload, args.seed, args.seconds, args.trace),
        (Workload::ScaleFsync, 7, 12.0, true)
    );
    assert!(Args::parse(argv("--workload nope")).is_err());
    assert!(Args::parse(argv("--seed 1")).is_err(), "the workload is required");
    assert!(Args::parse(argv("--workload weak-sweep --trace 2")).is_err());
    assert!(Args::parse(argv("--workload weak-sweep --seconds 0")).is_err());
}
