//! The weak-synchrony sweep (`weak-sweep`): the 240-scenario cut of
//! `examples/sweeps/weak_sync.json` at n = 256 (5 families × {paper,
//! center} × 12 schedulers × 2 seeds), run in batch through
//! `CampaignSpec::expand` → the campaign executor → `JsonlSink`. The
//! traced half also runs the cut once through the campaign service
//! (in-process `serve`, one `work`er, `submit`, then a resubmission served
//! from the cache) for the service's per-layer figures.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::path::Path;
use std::rc::Rc;
use std::thread;
use std::time::{Duration, Instant};

use gather_baselines::GoToCenter;
use gather_bench::RunSpec;
use gather_campaign::cli::{spec_from_fields, ServeArgs, SubmitArgs, WorkArgs};
use gather_campaign::executor::{execute_jobs_observed, JobEvent};
use gather_campaign::{
    fnv1a_64, serve, submit, work, CampaignSpec, ControllerKind, JsonlSink, Scenario,
    ScenarioRecord, SchedulerKind,
};
use gather_core::{GatherController, GatherState};
use grid_engine::connectivity::is_connected;
use grid_engine::{Engine, OrientationMode, Swarm};

use crate::calib::{kernel, Calibration, Pass};
use crate::fsync::{sample_every, set_up, VIEWS};
use crate::probe::{cache_round_trip, engine_config, EngineAcc};
use crate::report::Metrics;
use crate::stats::{describe, median, per, tail};
use crate::trace::Tracer;
use crate::{measure, now, setup_reps, Checks, Ctx, Layers, Measured, SETUP_REPS};

/// The twelve schedulers of `examples/sweeps/weak_sync.json`.
pub const SCHEDULERS: &str = "fsync,ssync-p25,ssync-p50,ssync-p75,rr1,rr4,rr16,crash-f2,crash-f8,\
                              crash-f32,async-s2,async-s8";

/// Rounds each decision probe engine is stepped through.
const PROBE_ROUNDS: u64 = 128;

/// FNV-1a digest of the sweep's sorted result bytes at full size, and
/// how many of its 240 scenarios gather.
pub const SWEEP_PIN: (u64, usize) = (0x3ec1_bd05_ad83_671f, 141);

/// The sweep: the cut's seed axis is fixed at `0,1` whatever the
/// benchmark seed. Which scenarios exhaust their round budget depends
/// on the seeds, and one exhausted budget costs seconds, so offsetting
/// the axis by the benchmark seed moved a pass from 2.9 s to 6.4 s over
/// seeds 1–5; a fixed cut keeps the figure comparable across seeds.
pub fn weak_spec(tiny: bool) -> CampaignSpec {
    let (families, size, schedulers) = if tiny {
        ("line,square", "8", "fsync,ssync-p50,rr4,async-s2")
    } else {
        ("line,square,random-blob,hollow-square,clusters", "256", SCHEDULERS)
    };
    let fields: BTreeMap<String, String> = [
        ("name", "weak-sync-240".to_string()),
        ("families", families.to_string()),
        ("sizes", size.to_string()),
        ("seeds", "0,1".to_string()),
        ("controllers", "paper,center".to_string()),
        ("schedulers", schedulers.to_string()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    spec_from_fields(&fields).expect("the weak-sync cut is a valid spec")
}

/// Every record line sorted by scenario ID, newline-terminated: what a
/// merged or service output of the same scenarios must equal.
fn sorted_bytes(records: &[ScenarioRecord]) -> String {
    let mut lines: Vec<(String, String)> =
        records.iter().map(|r| (r.id.clone(), r.to_json_line())).collect();
    lines.sort();
    lines.into_iter().map(|(_, line)| line + "\n").collect()
}

/// Check a full-size sweep's sorted result bytes against [`SWEEP_PIN`].
fn check_pin(ctx: &Ctx, bytes: &str, records: &[ScenarioRecord], checks: &mut Checks) -> String {
    let digest = fnv1a_64(bytes.as_bytes());
    let gathered = records.iter().filter(|r| r.gathered).count();
    if !ctx.tiny {
        checks.check((digest, gathered) == SWEEP_PIN, || {
            format!(
                "weak-sweep: result digest {digest:#018x} with {gathered} gathered; pinned \
                 {:#018x} with {}",
                SWEEP_PIN.0, SWEEP_PIN.1
            )
        });
    }
    format!("result_digest={digest:#018x}")
}

/// A traced job's engine profile and wall interval.
#[derive(Default)]
struct JobTrace {
    acc: EngineAcc,
    span: Option<(Instant, Instant)>,
}

/// `Scenario::run` with the engine's profiler and an observer counting
/// committed moves attached (neither changes the record).
fn run_traced(sc: &Scenario) -> (ScenarioRecord, JobTrace) {
    let start = now();
    let points = sc.points();
    let acc = Rc::new(RefCell::new(EngineAcc::default()));
    let moves = Rc::new(Cell::new(0u64));
    let (profile, observed) = (Rc::clone(&acc), Rc::clone(&moves));
    let m = RunSpec::new(sc.controller, &points)
        .scheduler(sc.scheduler)
        .seed(sc.seed)
        .budget(sc.budget(points.len()))
        .profiler(Box::new(move |p| profile.borrow_mut().add_profile(p)))
        .observer(Box::new(move |rec| observed.set(observed.get() + rec.moves.len() as u64)))
        .run();
    let mut acc = acc.take();
    acc.activations = m.activations;
    acc.merges = m.merges as u64;
    acc.moves = moves.get();
    (ScenarioRecord::from_measurement(sc, &m), JobTrace { acc, span: Some((start, now())) })
}

/// A finished job: its record, its own seconds, the calibration point
/// its worker took right after it, and (traced) its engine profile.
type Done = (ScenarioRecord, f64, Option<f64>, JobTrace);

/// One batch execution of `jobs` on `threads` through the campaign
/// executor (`execute_jobs_observed`, which `execute_scenarios` wraps),
/// every record written to a `JsonlSink` at `path`. Each job runs
/// `Scenario::run` (traced: with the engine's profiler), timed on its
/// worker, and then a calibration point on the same worker. Returns
/// the makespan, the records, each job's seconds in job order, and the
/// pass's calibration.
fn batch_pass(
    jobs: &[Scenario],
    threads: usize,
    path: &Path,
    tracer: &mut Tracer,
    engine: &mut EngineAcc,
    checks: &mut Checks,
) -> (f64, Vec<ScenarioRecord>, Vec<f64>, Calibration) {
    let mut cal = Calibration::default();
    let mut sink = match JsonlSink::create(path) {
        Ok(sink) => sink,
        Err(e) => {
            checks.check(false, || format!("creating {}: {e}", path.display()));
            return (0.0, Vec::new(), Vec::new(), cal);
        }
    };
    let traced = tracer.on();
    let run = |sc: &Scenario| -> Done {
        let t = now();
        let (rec, job) = if traced { run_traced(sc) } else { (sc.run(), JobTrace::default()) };
        let secs = t.elapsed().as_secs_f64();
        (rec, secs, Some(kernel()), job)
    };
    let mut write_errors = 0usize;
    let mut job_secs = vec![0.0; jobs.len()];
    let mut records = Vec::with_capacity(jobs.len());
    let t0 = now();
    tracer.span("executor.run", |t| {
        execute_jobs_observed(
            jobs,
            threads,
            run,
            |sc, secs| (ScenarioRecord::for_panic(sc), secs, None, JobTrace::default()),
            |event| {
                if let JobEvent::Finished(i, (rec, secs, point, job), _) = event {
                    if let Some((start, end)) = job.span {
                        t.record("scenario.run", start, end);
                    }
                    if t.span("sink.write", |_| sink.write(&rec)).is_err() {
                        write_errors += 1;
                    }
                    engine.absorb(job.acc);
                    job_secs[i] = secs;
                    if let Some(point) = point {
                        cal.push(point);
                    }
                    records.push(rec);
                }
                ControlFlow::Continue(())
            },
        )
    });
    let secs = t0.elapsed().as_secs_f64();
    checks.check(write_errors == 0, || format!("{write_errors} record writes failed"));
    checks.check(records.len() == jobs.len(), || {
        format!("{} of {} scenarios reported", records.len(), jobs.len())
    });
    for rec in &records {
        checks.check(!rec.panicked, || format!("{}: panicked", rec.id));
    }
    (secs, records, job_secs, cal)
}

/// Time decisions on the views the FSYNC engines of the sweep's first
/// seed evaluate during their first [`PROBE_ROUNDS`] rounds.
fn decide_probes(jobs: &[Scenario], tracer: &mut Tracer, layers: &mut Layers) {
    let Some(seed) = jobs.first().map(|sc| sc.seed) else { return };
    for sc in jobs.iter().filter(|sc| sc.scheduler == SchedulerKind::Fsync && sc.seed == seed) {
        let points = sc.points();
        let orientation = OrientationMode::Scrambled(sc.seed);
        match sc.controller {
            ControllerKind::Paper => {
                let swarm = Swarm::new(&points, orientation);
                let mut e = Engine::new(swarm, GatherController::paper(), engine_config(1));
                for round in 0..PROBE_ROUNDS {
                    if e.swarm.is_gathered() {
                        break;
                    }
                    if round.is_multiple_of(sample_every()) {
                        tracer.span("core.decide_probe", |_| layers.decide.sample_paper(&e, VIEWS));
                    }
                    if e.step().is_err() {
                        break;
                    }
                }
            }
            ControllerKind::Center => {
                let swarm = Swarm::new(&points, orientation);
                let mut e = Engine::new(swarm, GoToCenter::paper_radius(), engine_config(1));
                for round in 0..PROBE_ROUNDS {
                    if e.swarm.is_gathered() {
                        break;
                    }
                    if round.is_multiple_of(sample_every()) {
                        tracer.span("center.decide_probe", |_| {
                            layers.decide.sample_center(&e, VIEWS)
                        });
                    }
                    if e.step().is_err() {
                        break;
                    }
                }
            }
            ControllerKind::Greedy => {}
        }
    }
}

/// Executor figures of a traced batch pass: busy fraction and the
/// scenario-time median and tail.
fn executor_layers(threads: usize, makespan: f64, job_secs: &[f64], layers: &mut Layers) {
    let x = &mut layers.extra;
    x.insert("executor.busy_frac", job_secs.iter().sum::<f64>() / (threads as f64 * makespan));
    let ms: Vec<f64> = job_secs.iter().map(|s| s * 1e3).collect();
    x.insert("scenario_ms.p50", median(&ms));
    x.insert("scenario_ms.p95", tail(&ms, 95.0).1);
}

pub fn batch(ctx: &Ctx, tracer: &mut Tracer, seconds: f64, checks: &mut Checks) -> Measured {
    let spec = weak_spec(ctx.tiny);
    let specs = std::slice::from_ref(&spec);
    let (mut setup, (jobs, swarms)) =
        setup_reps(SETUP_REPS, tracer, |t| set_up::<GatherState>(specs, t));
    let mut layers = Layers::default();
    let mut pin_note = String::new();
    let mut first: Option<(String, Vec<ScenarioRecord>)> = None;
    let mut job_secs = Vec::new();
    // Makespans of the passes, for the summary. The reported seconds are
    // not the makespan: where the long scenarios land, and so the
    // makespan, also depends on the host's noise, so a pass's work is its
    // scenarios' seconds spread evenly over the workers.
    let mut makespans = Vec::new();
    let passes = measure(seconds, ctx.min_passes, |pass| {
        setup.extend(setup_reps(SETUP_REPS, tracer, |t| set_up::<GatherState>(specs, t)).0);
        let path = ctx.dir.join(format!("weak-sweep-{pass}.jsonl"));
        let (secs, records, secs_each, cal) =
            batch_pass(&jobs, ctx.threads, &path, tracer, &mut layers.engine, checks);
        let _ = std::fs::remove_file(&path);
        makespans.push(secs);
        let work = secs_each.iter().sum::<f64>() / ctx.threads as f64;
        let bytes = sorted_bytes(&records);
        match &first {
            Some((f, _)) => checks.check(*f == bytes, || {
                format!("weak-sweep pass {pass}: result set differs from pass 0")
            }),
            None => {
                pin_note = check_pin(ctx, &bytes, &records, checks);
                first = Some((bytes, records));
            }
        }
        if job_secs.is_empty() {
            job_secs = secs_each;
            if tracer.on() {
                executor_layers(ctx.threads, secs, &job_secs, &mut layers);
            }
        }
        Pass { secs: work, slowness: cal.slowness() }
    });
    layers.engine_passes = passes.len() as u64;
    let (reference, records) = first.unwrap_or_default();
    let gather_s = Pass::calibrated_median(&passes);
    let activations: u64 = records.iter().map(|r| r.activations).sum();
    let gathered: Vec<&ScenarioRecord> = records.iter().filter(|r| r.gathered).collect();
    let mut summary = vec![
        format!(
            "weak-sweep scenarios={} gathered={} gathered_frac={:.4} passes={} ({}) \
             makespan_s={makespans:?} gather_s={gather_s:.4} scenarios_per_min={:.1} \
             setup_s=({})",
            records.len(),
            gathered.len(),
            per(gathered.len() as u64, records.len() as u64),
            passes.len(),
            Pass::describe(&passes),
            60.0 * records.len() as f64 / gather_s,
            describe(&setup),
        ),
        pin_note,
    ];
    if tracer.on() {
        decide_probes(&jobs, tracer, &mut layers);
        // The engines probe connectivity inside `step`; time the same
        // call from outside on every start swarm.
        for start in &swarms {
            tracer.span("connectivity.is_connected", |_| is_connected(start));
            tracer.count("robots.connectivity", start.len());
        }
        cache_round_trip(&ctx.dir.join("cache"), &records, tracer, checks);
        if let Some(p) = service_pass(ctx, &spec, &reference, tracer, checks) {
            layers.extra.insert("service.busy_frac", p.busy);
            layers.extra.insert("service.scenarios_per_lease", p.per_lease);
            summary.push(format!(
                "weak-sweep service cold_s={:.3} resubmit_s={:.4} busy_frac={:.4} \
                 scenarios_per_lease={:.2}",
                p.cold_secs, p.resubmit_secs, p.busy, p.per_lease
            ));
        }
    }
    let x = &mut layers.extra;
    x.insert("tile.count", swarms.iter().map(|s| s.index().tile_count()).sum::<usize>() as f64);
    x.insert("work.rounds_to_gather", gathered.iter().map(|r| r.rounds).sum::<u64>() as f64);
    x.insert("work.gathered_frac", per(gathered.len() as u64, jobs.len() as u64));
    let mut e2e = Metrics::new();
    e2e.insert("setup_s", median(&setup));
    e2e.insert("gather_s", gather_s);
    e2e.insert("activations_per_s", activations as f64 / gather_s);
    Measured { e2e, layers, summary }
}

/// Timings of the service pass.
struct ServicePass {
    cold_secs: f64,
    resubmit_secs: f64,
    busy: f64,
    per_lease: f64,
}

/// Bring a service up, run the sweep through it cold, resubmit it (all
/// cache hits), and let the service drain. `None` when the pass failed
/// (already counted in `checks`).
fn service_pass(
    ctx: &Ctx,
    spec: &CampaignSpec,
    reference: &str,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Option<ServicePass> {
    let dir = ctx.dir.join("svc");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        checks.check(false, || format!("creating {}: {e}", dir.display()));
        return None;
    }
    let socket = dir.join("s.sock");
    let t0 = now();
    let server = {
        let args = ServeArgs {
            socket: socket.clone(),
            cache: dir.join("cache"),
            jobs: Some(2),
            lease_ttl_ms: 600_000,
            quiet: true,
        };
        thread::spawn(move || serve(&args))
    };
    while !socket.exists() && !server.is_finished() && t0.elapsed() < Duration::from_secs(10) {
        thread::sleep(Duration::from_micros(200));
    }
    let worker = {
        let args = WorkArgs {
            socket: socket.clone(),
            threads: ctx.threads,
            name: "gatherbench".into(),
            lease: 4,
            poll_ms: 2,
        };
        thread::spawn(move || work(&args))
    };
    let submit_to = |out: &Path, events: Option<&Path>| SubmitArgs {
        socket: socket.clone(),
        spec: spec.clone(),
        out: out.to_path_buf(),
        events: events.map(Path::to_path_buf),
        quiet: true,
    };
    let (cold_out, events, warm_out) =
        (dir.join("cold.jsonl"), dir.join("cold.events"), dir.join("warm.jsonl"));
    let t = now();
    let cold = tracer.span("service.submit", |_| submit(&submit_to(&cold_out, Some(&events))));
    let cold_secs = t.elapsed().as_secs_f64();
    let t = now();
    let warm = tracer.span("service.resubmit", |_| submit(&submit_to(&warm_out, None)));
    let resubmit_secs = t.elapsed().as_secs_f64();
    let (cold, warm) = match (cold, warm) {
        (Ok(cold), Ok(warm)) => (cold, warm),
        (cold, warm) => {
            // A failed submission never drains the service: leave its
            // threads to the process exit rather than wait forever.
            checks.check(false, || {
                format!("service: submit failed: {:?} / {:?}", cold.err(), warm.err())
            });
            return None;
        }
    };
    let worked = worker.join().map_err(|_| "worker panicked".to_string()).and_then(|r| r);
    let served = server.join().map_err(|_| "server panicked".to_string()).and_then(|r| r);
    checks.check(served.is_ok(), || format!("service: serve failed: {served:?}"));
    let total = spec.len();
    checks.check(
        (cold.total, cold.cached, cold.executed, cold.panicked) == (total, 0, total, 0),
        || format!("service: cold submission reported {cold:?}"),
    );
    checks.check(warm.cached == total && warm.executed == 0, || {
        format!("service: resubmission reported cached={} executed={}", warm.cached, warm.executed)
    });
    let cold_bytes = std::fs::read_to_string(&cold_out).unwrap_or_default();
    let warm_bytes = std::fs::read_to_string(&warm_out).unwrap_or_default();
    checks.check(cold_bytes == reference, || {
        "service: merged output differs from the sorted batch output".to_string()
    });
    checks.check(warm_bytes == cold_bytes, || {
        "service: resubmission bytes differ from the cold output".to_string()
    });
    let job_secs: f64 = gather_obs::read_events(&events)
        .map(|s| {
            s.events
                .iter()
                .map(|e| match e {
                    gather_obs::Event::ScenarioFinished { secs, .. } => *secs,
                    _ => 0.0,
                })
                .sum()
        })
        .unwrap_or(0.0);
    let per_lease = match &worked {
        Ok(report) => per(report.executed as u64, report.leases as u64),
        Err(_) => 0.0,
    };
    checks.check(worked.is_ok(), || format!("service: worker failed: {worked:?}"));
    let _ = std::fs::remove_dir_all(&dir);
    Some(ServicePass {
        cold_secs,
        resubmit_secs,
        busy: job_secs / (ctx.threads as f64 * cold.secs.max(1e-3)),
        per_lease,
    })
}
