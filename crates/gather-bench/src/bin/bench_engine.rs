//! Engine-throughput measurement: robots·rounds per second of the FSYNC
//! round loop (look + compute + apply) at large n, emitted as
//! `BENCH_engine.json`.
//!
//! It drives the *whole* engine — tiled occupancy probes through view
//! windows, the parallel compute map, and the sparse round-apply — on
//! swarms up to 10⁶ robots, including the sparse `clusters` family whose
//! bounding box a dense O(area) occupancy index cannot allocate. With
//! `--family random-blob --n 16384 --rounds 100 --threads 1,2,4,0` it is
//! the thread-scaling table E10 (README, "Paper tables").
//!
//! Usage:
//!   bench_engine [--n N] [--rounds R] [--threads T1,T2,..] \
//!                [--family NAME] [--seed S] [--scheduler NAME] \
//!                [--out PATH] [--gate BASELINE.json] [--tolerance F] \
//!                [--profile]
//!
//! Defaults: --n 1000000 --rounds 3 --threads 0 --family clusters
//!           --seed 1 --scheduler fsync --out BENCH_engine.json
//!
//! `--scheduler` takes any registry name (`fsync`, `ssync-p50`, `rr4`,
//! `crash-f10`, …) so the weak-scheduler rounds — a k-robot activation
//! through the same sparse apply FSYNC rounds use — are benchable and
//! gateable like FSYNC. Throughput is robot-rounds/s counted as
//! activations (`RoundStats::activated` summed over rounds): the live
//! population under FSYNC, the activated subset under `rrK` and SSYNC,
//! so idle robots are not counted as work.
//!
//! `--profile` installs the engine's phase profiler for each measured
//! thread config: the per-phase breakdown is printed to stderr and
//! written as a `profile` array in the output JSON (before `results`,
//! whose chunk-parsing gate readers skip everything earlier). Timing
//! probes add a little overhead, so profiled throughputs run slightly
//! under unprofiled ones — the gate tolerance absorbs it.
//!
//! The post-run position digest is asserted identical across all
//! measured thread counts — every bench run doubles as a determinism
//! check of the parallel compute map.
//!
//! `--gate BASELINE.json` turns the run into a CI regression gate: each
//! measured thread count is compared against the same-thread-count
//! entry in the baseline (a previous `--out` file, e.g. the committed
//! `BENCH_engine.json`), and the process exits non-zero when measured
//! throughput falls below `baseline / tolerance`. The tolerance
//! (default 2.5×) is deliberately generous: robot-rounds/s is roughly
//! n-independent but CI runners are noisy and slower than the baseline
//! box, so only a real cliff — an accidental O(area) scan, a lost
//! parallel compute map — should trip it. When the baseline row ran the same
//! scheduler, population and round count, the gate also requires the
//! same post-run digest, so a faster run whose results drifted fails.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use gather_bench::SchedulerKind;
use gather_core::GatherController;
use gather_workloads::Family;
use grid_engine::{ConnectivityCheck, Engine, EngineConfig, OrientationMode, Phase, ProfileTotals};

struct Args {
    n: usize,
    rounds: u64,
    threads: Vec<usize>,
    family: Family,
    seed: u64,
    scheduler: SchedulerKind,
    out: String,
    gate: Option<String>,
    tolerance: f64,
    profile: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        n: 1_000_000,
        rounds: 3,
        threads: vec![0],
        family: Family::Clusters,
        seed: 1,
        scheduler: SchedulerKind::Fsync,
        out: "BENCH_engine.json".into(),
        gate: None,
        tolerance: 2.5,
        profile: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value =
            || it.next().map(String::as_str).ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--n" => args.n = value()?.parse().map_err(|e| format!("--n: {e}"))?,
            "--rounds" => args.rounds = value()?.parse().map_err(|e| format!("--rounds: {e}"))?,
            "--threads" => {
                args.threads = value()?
                    .split(',')
                    .map(|t| t.trim().parse().map_err(|e| format!("--threads {t:?}: {e}")))
                    .collect::<Result<_, _>>()?;
            }
            "--family" => {
                let name = value()?;
                args.family =
                    Family::parse(name).ok_or_else(|| format!("unknown family {name:?}"))?;
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--scheduler" => args.scheduler = value()?.parse()?,
            "--out" => args.out = value()?.to_string(),
            "--gate" => args.gate = Some(value()?.to_string()),
            "--tolerance" => {
                args.tolerance = value()?.parse().map_err(|e| format!("--tolerance: {e}"))?;
            }
            "--profile" => args.profile = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.threads.is_empty() || args.rounds == 0 || args.n == 0 {
        return Err("need at least one thread config, one round and one robot".into());
    }
    if !args.tolerance.is_finite() || args.tolerance < 1.0 {
        return Err("--tolerance must be >= 1.0 (a slowdown factor)".into());
    }
    Ok(args)
}

/// One baseline results row: the identity keys a gate run matches on
/// (scheduler, threads, population) plus the throughput it defends and
/// the digest its run ended on. Rows written before the `scheduler`/`n`
/// columns existed carry neither key and match as FSYNC at any
/// population.
#[derive(Clone, Debug, PartialEq)]
struct BaselineRow {
    threads: usize,
    scheduler: String,
    n: Option<u64>,
    rounds: Option<u64>,
    digest: Option<u64>,
    robot_rounds_per_s: f64,
}

/// One measured thread config, as the gate compares it.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Measured {
    threads: usize,
    robot_rounds_per_s: f64,
    digest: u64,
}

/// Extract the result rows from a baseline file previously written by
/// this binary's `--out`. The `results` array entries are flat objects,
/// so each `{…}` chunk after the `results` key parses with the
/// workspace's flat-JSON parser.
fn baseline_rows(json: &str) -> Result<Vec<BaselineRow>, String> {
    let (_, results) = json.split_once("\"results\"").ok_or("baseline has no \"results\" array")?;
    let mut out = Vec::new();
    let mut rest = results;
    while let Some(start) = rest.find('{') {
        let end = rest[start..]
            .find('}')
            .map(|i| start + i)
            .ok_or("unterminated object in baseline results")?;
        let map = gather_analysis::parse_flat_json(&rest[start..=end])
            .map_err(|e| format!("baseline results entry: {e}"))?;
        let threads = map
            .get("threads")
            .and_then(|v| v.as_u64())
            .ok_or("baseline entry is missing \"threads\"")?;
        let throughput = map
            .get("robot_rounds_per_s")
            .and_then(|v| v.as_f64())
            .ok_or("baseline entry is missing \"robot_rounds_per_s\"")?;
        let scheduler =
            map.get("scheduler").and_then(|v| v.as_str()).unwrap_or("fsync").to_string();
        let n = map.get("n").and_then(|v| v.as_u64());
        let rounds = map.get("rounds").and_then(|v| v.as_u64());
        let digest = match map.get("digest").and_then(|v| v.as_str()) {
            Some(hex) => Some(
                hex.strip_prefix("0x")
                    .and_then(|h| u64::from_str_radix(h, 16).ok())
                    .ok_or_else(|| format!("baseline digest {hex:?} is not 0x-prefixed hex"))?,
            ),
            None => None,
        };
        out.push(BaselineRow {
            threads: threads as usize,
            scheduler,
            n,
            rounds,
            digest,
            robot_rounds_per_s: throughput,
        });
        rest = &rest[end + 1..];
    }
    if out.is_empty() {
        return Err("baseline results array is empty".into());
    }
    Ok(out)
}

/// The baseline row a measured `(scheduler, threads, n)` config gates
/// against: same scheduler and thread count; when several populations
/// qualify, the closest `n` (ties to the smaller) — robot-rounds/s is
/// roughly n-independent, so the nearest row is the fairest reference.
/// Rows without an `n` column are wildcards, used only when no sized
/// row matches.
fn baseline_reference<'a>(
    baseline: &'a [BaselineRow],
    scheduler: &str,
    threads: usize,
    n: u64,
) -> Option<&'a BaselineRow> {
    let candidates =
        || baseline.iter().filter(|r| r.threads == threads && r.scheduler == scheduler);
    candidates()
        .filter(|r| r.n.is_some())
        .min_by_key(|r| {
            let rn = r.n.expect("filtered to sized rows");
            (rn.abs_diff(n), rn)
        })
        .or_else(|| candidates().next())
}

/// One thread config's accumulated phase breakdown as a flat JSON
/// object for the output's `profile` array.
fn profile_json(threads: usize, scheduler: &str, n: usize, totals: &ProfileTotals) -> String {
    let mut s = format!(
        "{{\"threads\": {threads}, \"scheduler\": \"{scheduler}\", \"n\": {n}, \
         \"rounds\": {}, \"wall_ns\": {}, \"coverage\": {:.4}, \"computed\": {}",
        totals.rounds,
        totals.wall_ns,
        totals.coverage(),
        totals.computed,
    );
    for phase in Phase::ALL {
        s.push_str(&format!(", \"{}_ns\": {}", phase.name(), totals.phase_ns[phase as usize]));
    }
    s.push('}');
    s
}

/// Compare measured throughputs against the baseline; `Err` lists every
/// thread config that fell below `baseline / tolerance`, and every one
/// whose digest differs from a baseline row of the same scheduler,
/// population and round count.
fn gate_against(
    baseline: &[BaselineRow],
    measured: &[Measured],
    scheduler: &str,
    n: u64,
    rounds: u64,
    tolerance: f64,
) -> Result<(), String> {
    let mut regressions = Vec::new();
    for m in measured {
        let (threads, throughput) = (m.threads, m.robot_rounds_per_s);
        let Some(row) = baseline_reference(baseline, scheduler, threads, n) else {
            return Err(format!(
                "baseline has no scheduler={scheduler} threads={threads} entry to gate against"
            ));
        };
        if let Some(expected) =
            row.digest.filter(|_| row.n == Some(n) && row.rounds == Some(rounds))
        {
            if m.digest != expected {
                regressions.push(format!(
                    "{scheduler} threads={threads}: digest {:#018x} != baseline {expected:#018x} \
                     (n={n}, {rounds} rounds): results drifted",
                    m.digest
                ));
            }
        }
        let reference = row.robot_rounds_per_s;
        let floor = reference / tolerance;
        if throughput < floor {
            regressions.push(format!(
                "{scheduler} threads={threads}: {throughput:.3e} robot-rounds/s < floor \
                 {floor:.3e} (baseline {reference:.3e} / {tolerance})"
            ));
        } else {
            eprintln!(
                "gate ok: {scheduler} threads={threads} at {throughput:.3e} robot-rounds/s \
                 (floor {floor:.3e}, baseline {reference:.3e})"
            );
        }
    }
    if regressions.is_empty() {
        Ok(())
    } else {
        Err(format!("PERFORMANCE REGRESSION:\n  {}", regressions.join("\n  ")))
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let points = gather_workloads::family(args.family, args.n, args.seed);
    let sched_name = args.scheduler.name();
    let mut results: Vec<String> = Vec::new();
    let mut profiles: Vec<String> = Vec::new();
    let mut measured: Vec<Measured> = Vec::new();
    let mut digests: Vec<u64> = Vec::new();
    let mut shape: Option<(u128, usize)> = None;
    for &threads in &args.threads {
        let mut engine = Engine::from_positions(
            &points,
            OrientationMode::Scrambled(args.seed),
            GatherController::paper(),
            EngineConfig {
                threads,
                // The bench isolates the round loop itself, so keep the
                // historical no-connectivity-probe configuration on
                // every scheduler (campaign runs probe; benches don't).
                connectivity: ConnectivityCheck::Never,
                scheduler: args.scheduler.to_policy(args.seed, points.len()),
                ..Default::default()
            },
        );
        let totals = Rc::new(RefCell::new(ProfileTotals::default()));
        if args.profile {
            let sink = Rc::clone(&totals);
            engine.set_profiler(Box::new(move |p| sink.borrow_mut().add(p)));
        }
        if shape.is_none() {
            // Shape diagnostics come from the first measurement engine
            // (before its timer starts) — building a separate probe
            // swarm would be a second million-robot index for nothing.
            let bounds = engine.swarm.bounds();
            let bounding_cells = bounds.width() as u128 * bounds.height() as u128;
            let tiles = engine.swarm.index().tile_count();
            eprintln!(
                "bench_engine: {} n={} (asked {}), bounding box {}x{} = {} cells, {} tiles \
                 ({} backed cells)",
                args.family.name(),
                points.len(),
                args.n,
                bounds.width(),
                bounds.height(),
                bounding_cells,
                tiles,
                tiles * grid_engine::tile::TILE_CELLS,
            );
            shape = Some((bounding_cells, tiles));
        }
        #[expect(clippy::disallowed_methods, reason = "the benchmark times its rounds")]
        let start = Instant::now();
        let mut robot_rounds = 0u64;
        for _ in 0..args.rounds {
            let stats = engine.step().expect("unchecked steps cannot fail");
            robot_rounds += stats.activated as u64;
        }
        let dt = start.elapsed().as_secs_f64();
        let throughput = robot_rounds as f64 / dt;
        let digest = engine.swarm.position_digest();
        measured.push(Measured { threads, robot_rounds_per_s: throughput, digest });
        digests.push(digest);
        eprintln!(
            "{sched_name} threads={threads}: {} rounds, {robot_rounds} robot-rounds in {dt:.2}s \
             -> {throughput:.3e} robot-rounds/s (digest {digest:#018x})",
            args.rounds,
        );
        results.push(format!(
            "{{\"threads\": {threads}, \"scheduler\": \"{sched_name}\", \"n\": {}, \
             \"rounds\": {}, \"robot_rounds\": {robot_rounds}, \
             \"elapsed_s\": {dt:.4}, \"robot_rounds_per_s\": {throughput:.1}, \
             \"digest\": \"{digest:#018x}\"}}",
            points.len(),
            args.rounds,
        ));
        if args.profile {
            let totals = totals.borrow();
            eprint!("{sched_name} threads={threads} phase breakdown:\n{}", totals.render());
            profiles.push(profile_json(threads, &sched_name, points.len(), &totals));
        }
    }
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "RESULTS DEPEND ON THREAD COUNT: digests differ across thread counts: {digests:#x?}"
    );
    eprintln!("digest identical across thread counts {:?}", args.threads);

    let (bounding_cells, tiles) = shape.expect("at least one thread config ran");
    // The `profile` array sits BEFORE `results`: gate readers chunk-parse
    // the objects after the `results` key and must not see profile rows.
    let profile_block = if profiles.is_empty() {
        String::new()
    } else {
        format!("\"profile\": [\n    {}\n  ],\n  ", profiles.join(",\n    "))
    };
    let json = format!(
        "{{\n  \"bench\": \"engine_throughput\",\n  \"family\": \"{}\",\n  \"n_requested\": {},\n  \
         \"n_actual\": {},\n  \"seed\": {},\n  \"rounds\": {},\n  \"bounding_cells\": {},\n  \
         \"occupied_tiles\": {},\n  {profile_block}\"results\": [\n    {}\n  ]\n}}\n",
        args.family.name(),
        args.n,
        points.len(),
        args.seed,
        args.rounds,
        bounding_cells,
        tiles,
        results.join(",\n    "),
    );
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("error writing {}: {e}", args.out);
        std::process::exit(1);
    }
    eprintln!("wrote {}", args.out);

    if let Some(gate) = &args.gate {
        let baseline = match std::fs::read_to_string(gate) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("error reading baseline {gate}: {e}");
                std::process::exit(2);
            }
        };
        let verdict =
            baseline_rows(&baseline).map_err(|e| format!("{gate}: {e}")).and_then(|baseline| {
                gate_against(
                    &baseline,
                    &measured,
                    &sched_name,
                    points.len() as u64,
                    args.rounds,
                    args.tolerance,
                )
            });
        if let Err(e) = verdict {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        eprintln!("gate passed against {gate} (tolerance {}x)", args.tolerance);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = r#"{
      "bench": "engine_throughput",
      "results": [
        {"threads": 1, "rounds": 3, "robot_rounds_per_s": 250000.0, "digest": "0x1"},
        {"threads": 8, "rounds": 3, "robot_rounds_per_s": 800000.0, "digest": "0x2"}
      ]
    }"#;

    #[test]
    fn baseline_parses_the_committed_format() {
        let rows = baseline_rows(BASELINE).unwrap();
        assert_eq!(rows.len(), 2);
        // Pre-scheduler rows match as FSYNC at any population.
        assert_eq!(rows[0].threads, 1);
        assert_eq!(rows[0].scheduler, "fsync");
        assert_eq!(rows[0].n, None);
        assert_eq!(rows[0].robot_rounds_per_s, 250_000.0);
        assert_eq!(rows[1].threads, 8);
        assert_eq!(rows[1].robot_rounds_per_s, 800_000.0);
        assert!(baseline_rows("{}").is_err(), "no results array");
        assert!(baseline_rows(r#"{"results": []}"#).is_err(), "empty results");
        assert!(
            baseline_rows(r#"{"results": [{"threads": 1}]}"#).is_err(),
            "entry without a throughput"
        );
    }

    #[test]
    fn baseline_parser_skips_a_profile_array_before_results() {
        // A `--profile` baseline carries phase rows before `results`;
        // the chunk parser must only see the results entries.
        let with_profile = r#"{
          "bench": "engine_throughput",
          "profile": [
            {"threads": 1, "rounds": 3, "wall_ns": 900, "coverage": 0.97, "compute_ns": 500}
          ],
          "results": [
            {"threads": 1, "rounds": 3, "robot_rounds_per_s": 250000.0, "digest": "0x1"}
          ]
        }"#;
        let rows = baseline_rows(with_profile).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].robot_rounds_per_s, 250_000.0);
    }

    #[test]
    fn baseline_matching_uses_scheduler_and_closest_population() {
        let multi = r#"{
          "results": [
            {"threads": 1, "scheduler": "fsync", "n": 1000000, "robot_rounds_per_s": 250000.0},
            {"threads": 1, "scheduler": "fsync", "n": 10000000, "robot_rounds_per_s": 300000.0},
            {"threads": 1, "scheduler": "rr4", "n": 1000000, "robot_rounds_per_s": 2000000.0},
            {"threads": 8, "scheduler": "fsync", "n": 1000000, "robot_rounds_per_s": 800000.0}
          ]
        }"#;
        let rows = baseline_rows(multi).unwrap();
        // Same scheduler, closest n wins.
        let r = baseline_reference(&rows, "fsync", 1, 200_000).unwrap();
        assert_eq!(r.robot_rounds_per_s, 250_000.0);
        let r = baseline_reference(&rows, "fsync", 1, 8_000_000).unwrap();
        assert_eq!(r.robot_rounds_per_s, 300_000.0);
        // Scheduler is part of the row identity: an rr4 run must gate
        // against the rr4 row, never the (much slower) FSYNC one.
        let r = baseline_reference(&rows, "rr4", 1, 1_000_000).unwrap();
        assert_eq!(r.robot_rounds_per_s, 2_000_000.0);
        assert!(baseline_reference(&rows, "rr4", 8, 1_000_000).is_none());
        assert!(baseline_reference(&rows, "ssync-p50", 1, 1_000_000).is_none());
        // Legacy rows (no scheduler/n columns) are FSYNC wildcards.
        let legacy = baseline_rows(BASELINE).unwrap();
        let r = baseline_reference(&legacy, "fsync", 8, 123).unwrap();
        assert_eq!(r.robot_rounds_per_s, 800_000.0);
        assert!(baseline_reference(&legacy, "rr4", 8, 123).is_none());
    }

    #[test]
    fn profile_rows_are_flat_json_with_every_phase() {
        let mut totals =
            ProfileTotals { rounds: 3, wall_ns: 1_000, computed: 42, ..Default::default() };
        totals.phase_ns[Phase::Compute as usize] = 600;
        let row = profile_json(8, "fsync", 1_000_000, &totals);
        let map = gather_analysis::parse_flat_json(&row).expect("profile row parses flat");
        assert_eq!(map.get("threads").and_then(|v| v.as_u64()), Some(8));
        assert_eq!(map.get("scheduler").and_then(|v| v.as_str()), Some("fsync"));
        assert_eq!(map.get("n").and_then(|v| v.as_u64()), Some(1_000_000));
        assert_eq!(map.get("compute_ns").and_then(|v| v.as_u64()), Some(600));
        assert_eq!(map.get("computed").and_then(|v| v.as_u64()), Some(42));
        for phase in Phase::ALL {
            assert!(map.contains_key(&format!("{}_ns", phase.name())), "{row}");
        }
    }

    /// A measured config with a digest no baseline row carries.
    fn at(threads: usize, robot_rounds_per_s: f64) -> Measured {
        Measured { threads, robot_rounds_per_s, digest: 0xdead }
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_on_cliffs() {
        let baseline = baseline_rows(BASELINE).unwrap();
        // 2x slower than baseline is inside the 2.5x floor.
        assert!(gate_against(&baseline, &[at(1, 125_000.0)], "fsync", 200_000, 3, 2.5).is_ok());
        // 5x slower is a cliff.
        let err =
            gate_against(&baseline, &[at(1, 50_000.0)], "fsync", 200_000, 3, 2.5).unwrap_err();
        assert!(err.contains("REGRESSION"), "{err}");
        assert!(err.contains("threads=1"), "{err}");
        // One good config does not excuse a regressed one.
        let m = [at(1, 240_000.0), at(8, 10_000.0)];
        assert!(gate_against(&baseline, &m, "fsync", 200_000, 3, 2.5).is_err());
        // A thread count absent from the baseline cannot be gated.
        let err =
            gate_against(&baseline, &[at(4, 500_000.0)], "fsync", 200_000, 3, 2.5).unwrap_err();
        assert!(err.contains("threads=4"), "{err}");
        // Neither can a scheduler absent from the baseline.
        let err = gate_against(&baseline, &[at(1, 500_000.0)], "rr4", 200_000, 3, 2.5).unwrap_err();
        assert!(err.contains("scheduler=rr4"), "{err}");
    }

    #[test]
    fn gate_requires_the_baseline_digest_for_the_same_run() {
        let rows = baseline_rows(
            r#"{"results": [
              {"threads": 1, "scheduler": "rr4", "n": 1000000, "rounds": 50,
               "robot_rounds_per_s": 2000000.0, "digest": "0x68db190e4e0cc8d6"}
            ]}"#,
        )
        .unwrap();
        assert_eq!(rows[0].rounds, Some(50));
        assert_eq!(rows[0].digest, Some(0x68db_190e_4e0c_c8d6));
        let run = |digest| Measured { threads: 1, robot_rounds_per_s: 9e9, digest };
        // Same scheduler, population and rounds: the digest must match,
        // however fast the run.
        assert!(
            gate_against(&rows, &[run(0x68db_190e_4e0c_c8d6)], "rr4", 1_000_000, 50, 25.0).is_ok()
        );
        let err = gate_against(&rows, &[run(0x1234)], "rr4", 1_000_000, 50, 25.0).unwrap_err();
        assert!(err.contains("drifted"), "{err}");
        assert!(err.contains("0x68db190e4e0cc8d6"), "{err}");
        // A different population or round count ran a different
        // simulation: throughput only.
        assert!(gate_against(&rows, &[run(0x1234)], "rr4", 200_000, 50, 25.0).is_ok());
        assert!(gate_against(&rows, &[run(0x1234)], "rr4", 1_000_000, 3, 25.0).is_ok());
        // A malformed digest in the baseline is an error, not a wildcard.
        assert!(baseline_rows(
            r#"{"results": [{"threads": 1, "robot_rounds_per_s": 1.0, "digest": "abc"}]}"#
        )
        .is_err());
    }
}
