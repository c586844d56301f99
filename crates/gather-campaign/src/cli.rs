//! Hand-rolled argument parsing for the `campaign` binary (no external
//! dependencies, same policy as `gather-bench/src/bin/bench_engine.rs`).

use std::collections::BTreeMap;
use std::path::PathBuf;

use gather_bench::{ControllerKind, SchedulerKind};
use gather_workloads::Family;

use crate::shard::{shard_out_path, ShardSpec};
use crate::spec::CampaignSpec;

pub const USAGE: &str = "\
campaign — parallel scenario sweeps for the grid-gathering reproduction

USAGE:
    campaign run       [--threads N] [--out PATH] [--spec FILE] [--shard I/M]
                       [--events FILE] [--quiet] [--perf] [axis flags]
    campaign resume    [--threads N] [--out PATH] [--spec FILE] [--shard I/M]
                       [--events FILE] [--quiet] [--perf] [axis flags]
    campaign record    [run flags]   [--trace-dir DIR]
    campaign merge     [--out PATH] SHARD.jsonl [SHARD.jsonl ...]
    campaign merge     --out DIR SHARD_TRACE_DIR [SHARD_TRACE_DIR ...]
    campaign plan      --shards M [--out PATH] [--spec FILE] [axis flags]
    campaign replay    [--trace-dir DIR]
    campaign diff      --a DIR --b DIR
    campaign render    TRACE.gtrc [--every K] [--svg PATH] [--cell N]
    campaign smoke     [--n N] [--rounds R] [--family F] [--seed S]
                       [--threads-a A] [--threads-b B] [--dir DIR]
                       [--scheduler fsync|ssync-pP|rrK|crash-fF|async-sS]
    campaign summarize [--in PATH] [--perf]
    campaign events tail FILE [--follow]
    campaign serve     --socket PATH [--cache DIR] [--jobs N]
                       [--lease-ttl-ms T] [--quiet]
    campaign submit    --socket PATH [--out PATH] [--spec FILE]
                       [--events FILE] [--quiet] [axis flags]
    campaign work      --socket PATH [--threads N] [--name ID]
                       [--lease K] [--poll-ms T]

SUBCOMMANDS:
    run        Execute the sweep from scratch (truncates --out)
    resume     Re-run the sweep, skipping scenarios already in --out
    merge      Verify that the given shard outputs cover their spec
               exactly once (manifests present, complete, same spec,
               indexes 0..M with no overlap or gap, records matching the
               per-shard coverage digests) and write one merged JSONL,
               dropping resumed duplicates (last record wins). Exits
               non-zero — writing nothing — on a missing shard, an
               overlapping shard, mixed specs, or a torn/incomplete file.
               When the inputs are trace directories (from `record
               --shard --trace-dir`), merges the trace sets instead:
               the same manifest proof over the traced scenarios, then
               every .gtrc byte-copied into --out DIR (recording is
               deterministic, so the merged set is bit-identical to an
               unsharded recording); requires an explicit --out
    plan       Print the exact per-shard `campaign run` command lines
               (plus the final merge) that execute the spec as M shards
    record     `run` with per-round tracing on: the same results stream to
               --out (truncated, like run), plus one binary .gtrc trace
               per engine scenario in --trace-dir, which is cleared of
               earlier traces first so the set always matches --out (the
               greedy strawman has no engine rounds and is not traced).
               A recording cannot be resumed: re-run it
    replay     Re-execute every trace in --trace-dir and verify each round
               is bit-identical, reporting the first divergent round and
               robot; exits non-zero on any divergence, version mismatch,
               or config drift
    diff       Compare two trace sets file by file, summarizing drift per
               scenario; exits non-zero when the sets differ
    render     Replay a recorded .gtrc (digest-verified) and print it as
               an ASCII movie; --svg additionally writes a strip of the
               sampled frames as one SVG document. --every K samples a
               frame each K rounds (default: ~24 frames over the trace)
    smoke      Large-n determinism smoke: record --rounds engine rounds
               of the paper controller on a --n robot swarm at two
               thread counts, replay recording A through digest-verified
               playback, and require the two .gtrc files byte-identical;
               exits non-zero on any divergence (defaults: n=100000,
               rounds=12, family=clusters, threads 1 vs 8). A partial
               --scheduler (rr4, ssync-p50, ...) records through the
               engine's sparse round path while playback re-derives the
               rounds densely, cross-checking the two apply paths
    summarize  Fold a result file into per-family scaling tables,
               grouped per (controller, scheduler); --perf instead
               renders the engine phase-share table per (family, n,
               scheduler) from records written by `run --perf`
    events     `events tail FILE`: one-line status of an --events
               stream (done/total, panics, ETA or final wall time);
               exits non-zero when the stream is torn or has no
               terminating job_finished — the CI check that a streamed
               run really completed. With --follow, polls the file for
               appended events (the file may not exist yet) and exits
               cleanly once job_finished arrives
    serve      Run the resident campaign service on a Unix socket: FIFO
               job queue, worker pull-leases with expiry re-issue, and a
               content-addressed result cache keyed by (scenario ID,
               config digest, engine version) so repeated or overlapping
               sweeps never recompute a scenario. Workers and submitters
               speak flat NDJSON (the --events vocabulary plus a small
               request/response layer) over the same socket
    submit     Send a sweep spec to a running service and stream its
               progress until job_done. The server writes --out itself
               (ID-sorted merged JSONL plus a complete manifest) after
               folding the results through the shard coverage proof
    work       Pull-lease scenarios from a running service, execute them
               (panics isolated, like run), and stream record lines
               back; exits cleanly when the service drains or disappears

OPTIONS:
    --threads N        Worker threads; 0 = all cores (default 0)
    --events FILE      Also emit the run as a versioned NDJSON event stream
                       (job_started / scenario_started / scenario_finished /
                       heartbeat / job_finished; one flat JSON object per
                       line). run/record truncate FILE; resume appends a new
                       segment. The stderr progress lines are rendered from
                       these same events, so the two can never disagree
    --quiet            Suppress the per-scenario stderr progress lines
                       (the --events stream, when given, stays complete)
    --perf             Attach the engine phase profiler to every scenario:
                       records gain `secs` and a `perf_*` phase breakdown.
                       Trades result-file byte-reproducibility (timings
                       differ run to run) for observability; measured
                       result fields stay bit-identical
    --out PATH         Result JSONL file (default campaign.jsonl; run/resume/record;
                       when sharded, the default gains a .shardIofM suffix).
                       For merge/plan: the merged result path (default campaign.jsonl)
    --in PATH          Input for summarize (default campaign.jsonl)
    --shard I/M        Run only shard I of an M-way split of the spec (I in 0..M).
                       Every shard writes a <out>.manifest.json sidecar (spec digest,
                       shard coordinates, scenario coverage digest, completion marker)
                       that `merge` uses to verify exact coverage. Scenarios are
                       assigned by a stable FNV-1a hash of their ID, so any machine
                       partitions any spec identically. Resume works per shard:
                       completed scenario IDs in --out are skipped
    --shards M         (plan) Number of shards to plan for
    --spec FILE        Load the scenario matrix from a flat-JSON spec file;
                       fields absent from the file keep the standard-sweep
                       defaults, and axis flags override spec fields. Fields
                       (all string-valued, same syntax as the flags):
                       {\"name\":\"sweep\",\"families\":\"line,square\",
                        \"sizes\":\"16,32\",\"seeds\":\"0..4\",
                        \"controllers\":\"paper,center\",\"schedulers\":\"fsync\"}
    --trace-dir DIR    Trace directory (default traces; record/replay only)
    --a DIR, --b DIR   The two trace sets to diff
    --families A,B     Workload families (default line,square,hollow-square,random-blob)
    --sizes N1,N2      Target swarm sizes (default 16,32,64,128)
    --seeds S1,S2      Orientation seeds, or LO..HI for a range (default 1,2,3)
    --controllers A,B  paper,center,greedy (default all three)
    --schedulers A,B   Activation policies: fsync, ssync-pP (P = activation
                       probability in percent, e.g. ssync-p50), rrK (round-robin
                       window of K robots, e.g. rr4), crash-fF (crash-stop
                       faults: up to F seeded robots halt forever at seeded
                       rounds, e.g. crash-f3), async-sS (true ASYNC: each
                       look's move commits up to S rounds later, on a view
                       that stale; e.g. async-s4). Default fsync.
                       FSYNC scenario IDs keep the legacy 4-part shape, so old
                       result files resume unchanged; other schedulers append a
                       fifth ID segment (line/n64/s3/paper/ssync-p50). The
                       greedy baseline is its own sequential scheduler and runs
                       once per cell regardless of this axis
    --name NAME        run/submit: campaign name recorded in logs (default
                       standard). work: worker identity for lease
                       bookkeeping (default worker-<pid>)
    --socket PATH      serve/submit/work: Unix socket path of the service
    --cache DIR        serve: result cache directory (default campaign-cache)
    --jobs N           serve: exit after finalizing N jobs (default: serve
                       until killed)
    --lease-ttl-ms T   serve: lease expiry in milliseconds (default 60000).
                       An expired lease's scenarios are re-issued to the
                       next lease request, so a killed worker never
                       strands a job
    --lease K          work: scenarios claimed per lease request (default 8)
    --poll-ms T        work: sleep between empty lease grants (default 200)
    --follow           events tail: poll for appended events instead of
                       reading once; exits when job_finished arrives
    -h, --help         Show this help
";

/// A parsed invocation of the binary.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    Run(RunArgs),
    Resume(RunArgs),
    Merge { inputs: Vec<PathBuf>, out: PathBuf, out_explicit: bool },
    Plan { run: RunArgs, shards: u32 },
    Replay { trace_dir: PathBuf },
    Diff { a: PathBuf, b: PathBuf },
    Render(RenderArgs),
    Smoke(crate::smoke::SmokeArgs),
    Summarize { input: PathBuf, perf: bool },
    EventsTail { file: PathBuf, follow: bool },
    Serve(ServeArgs),
    Submit(SubmitArgs),
    Work(WorkArgs),
    Help,
}

/// `campaign serve` flags.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeArgs {
    pub socket: PathBuf,
    /// Result cache directory.
    pub cache: PathBuf,
    /// Exit after finalizing this many jobs (`None` = serve forever).
    pub jobs: Option<usize>,
    /// Lease expiry: an unfinished lease older than this is re-issued.
    pub lease_ttl_ms: u64,
    pub quiet: bool,
}

/// `campaign submit` flags.
#[derive(Clone, Debug, PartialEq)]
pub struct SubmitArgs {
    pub socket: PathBuf,
    pub spec: CampaignSpec,
    pub out: PathBuf,
    /// Mirror the streamed progress events to this file, verbatim.
    pub events: Option<PathBuf>,
    pub quiet: bool,
}

/// `campaign work` flags.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkArgs {
    pub socket: PathBuf,
    pub threads: usize,
    /// Worker identity, for lease bookkeeping on the server.
    pub name: String,
    /// Scenarios claimed per lease request.
    pub lease: usize,
    /// Sleep between empty grants while the queue is dry.
    pub poll_ms: u64,
}

#[derive(Clone, Debug, PartialEq)]
pub struct RenderArgs {
    pub trace: PathBuf,
    /// Sample a frame every K rounds; `None` = auto (~24 frames).
    pub every: Option<u64>,
    /// Also write the frames as an SVG strip to this path.
    pub svg: Option<PathBuf>,
    /// SVG cell size in pixels.
    pub cell: u32,
}

#[derive(Clone, Debug, PartialEq)]
pub struct RunArgs {
    pub spec: CampaignSpec,
    pub threads: usize,
    pub out: PathBuf,
    /// Which slice of the spec this invocation executes (`0/1` = all).
    pub shard: ShardSpec,
    /// Also emit the run as an NDJSON event stream to this file.
    pub events: Option<PathBuf>,
    /// Suppress the stderr progress lines.
    pub quiet: bool,
    /// Attach the engine phase profiler (records gain timing fields).
    pub perf: bool,
    /// Also write one `.gtrc` per engine scenario here: set only by
    /// `record`, which parses to [`Command::Run`] with it.
    pub trace_dir: Option<PathBuf>,
}

impl Default for RunArgs {
    fn default() -> Self {
        RunArgs {
            spec: CampaignSpec::standard(),
            threads: 0,
            out: PathBuf::from("campaign.jsonl"),
            shard: ShardSpec::FULL,
            events: None,
            quiet: false,
            perf: false,
            trace_dir: None,
        }
    }
}

/// Parse the process arguments (without the program name).
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter().map(String::as_str);
    let sub = match it.next() {
        None | Some("-h" | "--help" | "help") => return Ok(Command::Help),
        Some(s) => s,
    };
    let rest: Vec<&str> = it.collect();
    match sub {
        "run" => Ok(Command::Run(parse_run_args(&rest, None)?)),
        "resume" => Ok(Command::Resume(parse_run_args(&rest, None)?)),
        "record" => Ok(Command::Run(parse_run_args(&rest, Some(default_trace_dir()))?)),
        "merge" => {
            let mut inputs = Vec::new();
            let mut out = PathBuf::from("campaign.jsonl");
            let mut out_explicit = false;
            let mut it = rest.iter();
            while let Some(&arg) = it.next() {
                match arg {
                    "--out" => {
                        out = PathBuf::from(value_of(arg, it.next().copied())?);
                        out_explicit = true;
                    }
                    "-h" | "--help" => return Ok(Command::Help),
                    flag if flag.starts_with("--") => {
                        return Err(format!("unknown merge flag {flag:?}"));
                    }
                    path => inputs.push(PathBuf::from(path)),
                }
            }
            if inputs.is_empty() {
                return Err("merge needs at least one SHARD.jsonl or trace-directory input".into());
            }
            if inputs.contains(&out) {
                return Err(format!(
                    "merge output {out:?} is also an input — it would be truncated before reading"
                ));
            }
            Ok(Command::Merge { inputs, out, out_explicit })
        }
        "plan" => {
            // `--shards M` is plan's own flag; extract it, then reuse
            // the run-flag parser for everything else.
            let mut rest = rest.clone();
            let i = rest
                .iter()
                .position(|&a| a == "--shards")
                .ok_or("plan needs --shards M (how many ways to split the spec)")?;
            let v = *rest.get(i + 1).ok_or("--shards needs a value")?;
            let shards: u32 = v.parse().map_err(|e| format!("--shards {v:?}: {e}"))?;
            if shards == 0 {
                return Err("--shards must be >= 1".into());
            }
            rest.drain(i..=i + 1);
            let run = parse_run_args(&rest, None)?;
            if !run.shard.is_full() {
                return Err("plan computes --shard for every slice itself; don't pass one".into());
            }
            Ok(Command::Plan { run, shards })
        }
        "replay" => {
            let mut trace_dir = default_trace_dir();
            let mut it = rest.iter();
            while let Some(&flag) = it.next() {
                match flag {
                    "--trace-dir" => {
                        trace_dir = PathBuf::from(value_of(flag, it.next().copied())?);
                    }
                    "-h" | "--help" => return Ok(Command::Help),
                    other => return Err(format!("unknown replay flag {other:?}")),
                }
            }
            Ok(Command::Replay { trace_dir })
        }
        "diff" => {
            let mut a = None;
            let mut b = None;
            let mut it = rest.iter();
            while let Some(&flag) = it.next() {
                match flag {
                    "--a" => a = Some(PathBuf::from(value_of(flag, it.next().copied())?)),
                    "--b" => b = Some(PathBuf::from(value_of(flag, it.next().copied())?)),
                    "-h" | "--help" => return Ok(Command::Help),
                    other => return Err(format!("unknown diff flag {other:?}")),
                }
            }
            match (a, b) {
                (Some(a), Some(b)) => Ok(Command::Diff { a, b }),
                _ => Err("diff needs both --a and --b trace directories".into()),
            }
        }
        "render" => {
            let mut args = RenderArgs { trace: PathBuf::new(), every: None, svg: None, cell: 6 };
            let mut it = rest.iter();
            while let Some(&arg) = it.next() {
                match arg {
                    "--every" => {
                        let v = value_of(arg, it.next().copied())?;
                        let every =
                            v.parse().map_err(|e| format!("--every {v:?} is not a count: {e}"))?;
                        if every == 0 {
                            return Err("--every must be >= 1 (omit it for auto sampling)".into());
                        }
                        args.every = Some(every);
                    }
                    "--svg" => args.svg = Some(PathBuf::from(value_of(arg, it.next().copied())?)),
                    "--cell" => {
                        let v = value_of(arg, it.next().copied())?;
                        args.cell =
                            v.parse().map_err(|e| format!("--cell {v:?} is not a size: {e}"))?;
                    }
                    "-h" | "--help" => return Ok(Command::Help),
                    flag if flag.starts_with("--") => {
                        return Err(format!("unknown render flag {flag:?}"));
                    }
                    path if args.trace.as_os_str().is_empty() => args.trace = PathBuf::from(path),
                    extra => return Err(format!("render takes one trace file, got {extra:?} too")),
                }
            }
            if args.trace.as_os_str().is_empty() {
                return Err("render needs a TRACE.gtrc path".into());
            }
            Ok(Command::Render(args))
        }
        "smoke" => {
            let mut args = crate::smoke::SmokeArgs::default();
            let mut it = rest.iter();
            while let Some(&flag) = it.next() {
                match flag {
                    "--n" => {
                        let v = value_of(flag, it.next().copied())?;
                        args.n = v.parse().map_err(|e| format!("--n {v:?}: {e}"))?;
                    }
                    "--rounds" => {
                        let v = value_of(flag, it.next().copied())?;
                        args.rounds = v.parse().map_err(|e| format!("--rounds {v:?}: {e}"))?;
                    }
                    "--family" => {
                        let v = value_of(flag, it.next().copied())?;
                        args.family =
                            Family::parse(v).ok_or_else(|| format!("unknown family {v:?}"))?;
                    }
                    "--seed" => {
                        let v = value_of(flag, it.next().copied())?;
                        args.seed = v.parse().map_err(|e| format!("--seed {v:?}: {e}"))?;
                    }
                    "--threads-a" => {
                        let v = value_of(flag, it.next().copied())?;
                        args.threads_a =
                            v.parse().map_err(|e| format!("--threads-a {v:?}: {e}"))?;
                    }
                    "--threads-b" => {
                        let v = value_of(flag, it.next().copied())?;
                        args.threads_b =
                            v.parse().map_err(|e| format!("--threads-b {v:?}: {e}"))?;
                    }
                    "--scheduler" => {
                        let v = value_of(flag, it.next().copied())?;
                        args.scheduler =
                            v.parse().map_err(|e| format!("--scheduler {v:?}: {e}"))?;
                    }
                    "--dir" => args.dir = PathBuf::from(value_of(flag, it.next().copied())?),
                    "-h" | "--help" => return Ok(Command::Help),
                    other => return Err(format!("unknown smoke flag {other:?}")),
                }
            }
            if args.n == 0 || args.rounds == 0 {
                return Err("smoke needs --n >= 1 and --rounds >= 1".into());
            }
            Ok(Command::Smoke(args))
        }
        "summarize" => {
            let mut input = PathBuf::from("campaign.jsonl");
            let mut perf = false;
            let mut it = rest.iter();
            while let Some(&flag) = it.next() {
                match flag {
                    "--in" => {
                        input = PathBuf::from(value_of(flag, it.next().copied())?);
                    }
                    "--perf" => perf = true,
                    // `--out` used to be a silent, undocumented alias
                    // for `--in`; reject it so a run/summarize pipeline
                    // typo cannot silently read the wrong file.
                    "--out" => {
                        return Err("summarize reads its input from --in (--out is a run/resume \
                                    flag)"
                            .into());
                    }
                    "-h" | "--help" => return Ok(Command::Help),
                    other => return Err(format!("unknown summarize flag {other:?}")),
                }
            }
            Ok(Command::Summarize { input, perf })
        }
        "events" => {
            let mut it = rest.iter();
            match it.next().copied() {
                Some("tail") => {
                    let mut file = None;
                    let mut follow = false;
                    for &arg in it {
                        match arg {
                            "--follow" => follow = true,
                            "-h" | "--help" => return Ok(Command::Help),
                            flag if flag.starts_with("--") => {
                                return Err(format!("unknown events tail flag {flag:?}"));
                            }
                            path if file.is_none() => file = Some(PathBuf::from(path)),
                            extra => {
                                return Err(format!(
                                    "events tail takes one FILE, got {extra:?} too"
                                ));
                            }
                        }
                    }
                    let file = file.ok_or("events tail needs an event FILE")?;
                    Ok(Command::EventsTail { file, follow })
                }
                Some("-h" | "--help") | None => Ok(Command::Help),
                Some(other) => Err(format!("unknown events verb {other:?} (try tail)")),
            }
        }
        "serve" => {
            let mut socket = None;
            let mut args = ServeArgs {
                socket: PathBuf::new(),
                cache: PathBuf::from("campaign-cache"),
                jobs: None,
                lease_ttl_ms: 60_000,
                quiet: false,
            };
            let mut it = rest.iter();
            while let Some(&flag) = it.next() {
                match flag {
                    "--socket" => socket = Some(PathBuf::from(value_of(flag, it.next().copied())?)),
                    "--cache" => args.cache = PathBuf::from(value_of(flag, it.next().copied())?),
                    "--jobs" => {
                        let v = value_of(flag, it.next().copied())?;
                        let jobs: usize = v.parse().map_err(|e| format!("--jobs {v:?}: {e}"))?;
                        if jobs == 0 {
                            return Err("--jobs must be >= 1 (omit it to serve forever)".into());
                        }
                        args.jobs = Some(jobs);
                    }
                    "--lease-ttl-ms" => {
                        let v = value_of(flag, it.next().copied())?;
                        args.lease_ttl_ms =
                            v.parse().map_err(|e| format!("--lease-ttl-ms {v:?}: {e}"))?;
                        if args.lease_ttl_ms == 0 {
                            return Err("--lease-ttl-ms must be >= 1".into());
                        }
                    }
                    "--quiet" => args.quiet = true,
                    "-h" | "--help" => return Ok(Command::Help),
                    other => return Err(format!("unknown serve flag {other:?}")),
                }
            }
            args.socket = socket.ok_or("serve needs --socket PATH")?;
            Ok(Command::Serve(args))
        }
        "submit" => {
            let mut socket = None;
            let mut rest: Vec<&str> = rest.clone();
            let mut args = SubmitArgs {
                socket: PathBuf::new(),
                spec: take_spec_file(&mut rest)?,
                out: PathBuf::from("campaign.jsonl"),
                events: None,
                quiet: false,
            };
            let mut it = rest.iter();
            while let Some(&flag) = it.next() {
                match flag {
                    "--socket" => socket = Some(PathBuf::from(value_of(flag, it.next().copied())?)),
                    "--out" => args.out = PathBuf::from(value_of(flag, it.next().copied())?),
                    "--events" => {
                        args.events = Some(PathBuf::from(value_of(flag, it.next().copied())?));
                    }
                    "--quiet" => args.quiet = true,
                    axis if AXIS_FLAGS.contains(&axis) => {
                        apply_spec_field(
                            &mut args.spec,
                            &axis[2..],
                            value_of(axis, it.next().copied())?,
                        )?;
                    }
                    "-h" | "--help" => return Ok(Command::Help),
                    other => return Err(format!("unknown submit flag {other:?}")),
                }
            }
            args.spec.validate()?;
            args.socket = socket.ok_or("submit needs --socket PATH")?;
            Ok(Command::Submit(args))
        }
        "work" => {
            let mut socket = None;
            let mut args = WorkArgs {
                socket: PathBuf::new(),
                threads: 0,
                name: format!("worker-{}", std::process::id()),
                lease: 8,
                poll_ms: 200,
            };
            let mut it = rest.iter();
            while let Some(&flag) = it.next() {
                match flag {
                    "--socket" => socket = Some(PathBuf::from(value_of(flag, it.next().copied())?)),
                    "--threads" => {
                        let v = value_of(flag, it.next().copied())?;
                        args.threads = v
                            .parse()
                            .map_err(|e| format!("--threads {v:?} is not a count: {e}"))?;
                    }
                    "--name" => args.name = value_of(flag, it.next().copied())?.to_string(),
                    "--lease" => {
                        let v = value_of(flag, it.next().copied())?;
                        args.lease = v.parse().map_err(|e| format!("--lease {v:?}: {e}"))?;
                        if args.lease == 0 {
                            return Err("--lease must be >= 1".into());
                        }
                    }
                    "--poll-ms" => {
                        let v = value_of(flag, it.next().copied())?;
                        args.poll_ms = v.parse().map_err(|e| format!("--poll-ms {v:?}: {e}"))?;
                    }
                    "-h" | "--help" => return Ok(Command::Help),
                    other => return Err(format!("unknown work flag {other:?}")),
                }
            }
            args.socket = socket.ok_or("work needs --socket PATH")?;
            Ok(Command::Work(args))
        }
        other => Err(format!("unknown subcommand {other:?} (try --help)")),
    }
}

fn value_of<'a>(flag: &str, value: Option<&'a str>) -> Result<&'a str, String> {
    value.ok_or_else(|| format!("{flag} needs a value"))
}

fn default_trace_dir() -> PathBuf {
    PathBuf::from("traces")
}

/// Flags that set one spec axis: a spec-file field name behind `--`.
const AXIS_FLAGS: [&str; 6] =
    ["--name", "--families", "--sizes", "--seeds", "--controllers", "--schedulers"];

/// Remove `--spec FILE` from `args` and load the file; the standard
/// sweep without one. Taking it out before the flag loop lets axis
/// flags override spec-file fields wherever they appear.
fn take_spec_file(args: &mut Vec<&str>) -> Result<CampaignSpec, String> {
    let Some(i) = args.iter().position(|&a| a == "--spec") else {
        return Ok(CampaignSpec::standard());
    };
    let path = *args.get(i + 1).ok_or("--spec needs a value")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path:?}: {e}"))?;
    let spec = spec_from_flat_json(&text).map_err(|e| format!("spec {path:?}: {e}"))?;
    args.drain(i..=i + 1);
    if args.contains(&"--spec") {
        return Err("--spec given twice".into());
    }
    Ok(spec)
}

/// Parse run/resume/record/plan flags; `--spec` goes through
/// [`take_spec_file`]. `trace_dir` is `record`'s default trace
/// directory: only with one does `--trace-dir` parse, so run, resume
/// and plan reject it.
fn parse_run_args(args: &[&str], trace_dir: Option<PathBuf>) -> Result<RunArgs, String> {
    let mut args: Vec<&str> = args.to_vec();
    let mut out = RunArgs { spec: take_spec_file(&mut args)?, trace_dir, ..RunArgs::default() };
    let mut out_explicit = false;
    let mut it = args.iter();
    while let Some(&flag) = it.next() {
        match flag {
            "--threads" => {
                let v = value_of(flag, it.next().copied())?;
                out.threads =
                    v.parse().map_err(|e| format!("--threads {v:?} is not a count: {e}"))?;
            }
            "--out" => {
                out.out = PathBuf::from(value_of(flag, it.next().copied())?);
                out_explicit = true;
            }
            "--shard" => out.shard = ShardSpec::parse(value_of(flag, it.next().copied())?)?,
            "--events" => out.events = Some(PathBuf::from(value_of(flag, it.next().copied())?)),
            "--quiet" => out.quiet = true,
            "--perf" => out.perf = true,
            "--trace-dir" if out.trace_dir.is_some() => {
                out.trace_dir = Some(PathBuf::from(value_of(flag, it.next().copied())?));
            }
            axis if AXIS_FLAGS.contains(&axis) => {
                apply_spec_field(&mut out.spec, &axis[2..], value_of(axis, it.next().copied())?)?;
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    out.spec.validate()?;
    // Sharded runs of the same spec must not clobber each other's
    // default result file: when --out was not given, suffix the default
    // with the shard coordinates (c.jsonl -> c.shard2of4.jsonl).
    if !out.shard.is_full() && !out_explicit {
        out.out = shard_out_path(&out.out, out.shard);
    }
    Ok(out)
}

/// Build a [`CampaignSpec`] from a flat-JSON spec file. All fields are
/// string-valued and use the exact syntax of the corresponding CLI
/// flags; fields absent from the file keep the standard-sweep defaults.
/// The flat-JSON dialect is the same one the result records use
/// (`gather_analysis::parse_flat_json`), so one parser owns both wire
/// formats.
pub fn spec_from_flat_json(text: &str) -> Result<CampaignSpec, String> {
    let map = gather_analysis::parse_flat_json(text.trim())?;
    let mut spec = CampaignSpec::standard();
    for (key, value) in &map {
        let s = value
            .as_str()
            .ok_or_else(|| format!("spec field {key:?} must be a string (flag syntax)"))?;
        apply_spec_field(&mut spec, key, s)?;
    }
    Ok(spec)
}

/// Build a [`CampaignSpec`] from flat string axes — the `spec_*` fields
/// of the service protocol. Same field names and value syntax as the
/// spec file; absent fields keep the standard-sweep defaults. Unlike
/// the spec-file path (whose fields may still be overridden by flags),
/// this is the complete spec, so it is validated here.
pub fn spec_from_fields(fields: &BTreeMap<String, String>) -> Result<CampaignSpec, String> {
    let mut spec = CampaignSpec::standard();
    for (key, value) in fields {
        apply_spec_field(&mut spec, key, value)?;
    }
    spec.validate()?;
    Ok(spec)
}

/// Flatten a spec back to its string axes, the inverse of
/// [`spec_from_fields`]: `spec_from_fields(&spec_to_fields(&s)) == s`
/// for any valid spec. Seeds flatten to an explicit comma list (a
/// `LO..HI` range round-trips through its expansion).
pub fn spec_to_fields(spec: &CampaignSpec) -> BTreeMap<String, String> {
    let join = |parts: Vec<String>| parts.join(",");
    BTreeMap::from([
        ("name".to_string(), spec.name.clone()),
        (
            "families".to_string(),
            join(spec.families.iter().map(|f| f.name().to_string()).collect()),
        ),
        ("sizes".to_string(), join(spec.sizes.iter().map(usize::to_string).collect())),
        ("seeds".to_string(), join(spec.seeds.iter().map(u64::to_string).collect())),
        (
            "controllers".to_string(),
            join(spec.controllers.iter().map(|c| c.name().to_string()).collect()),
        ),
        ("schedulers".to_string(), join(spec.schedulers.iter().map(|s| s.name()).collect())),
    ])
}

fn apply_spec_field(spec: &mut CampaignSpec, key: &str, s: &str) -> Result<(), String> {
    match key {
        "name" => spec.name = s.to_string(),
        "families" => spec.families = parse_families(s)?,
        "sizes" => spec.sizes = parse_sizes(s)?,
        "seeds" => spec.seeds = parse_seeds(s)?,
        "controllers" => spec.controllers = parse_controllers(s)?,
        "schedulers" => spec.schedulers = parse_schedulers(s)?,
        other => return Err(format!("unknown spec field {other:?}")),
    }
    Ok(())
}

fn parse_families(s: &str) -> Result<Vec<Family>, String> {
    split_list(s).map(|t| Family::parse(t).ok_or_else(|| format!("unknown family {t:?}"))).collect()
}

fn parse_sizes(s: &str) -> Result<Vec<usize>, String> {
    split_list(s).map(|t| t.parse().map_err(|e| format!("bad size {t:?}: {e}"))).collect()
}

fn parse_controllers(s: &str) -> Result<Vec<ControllerKind>, String> {
    split_list(s)
        .map(|t| ControllerKind::parse(t).ok_or_else(|| format!("unknown controller {t:?}")))
        .collect()
}

fn parse_schedulers(s: &str) -> Result<Vec<SchedulerKind>, String> {
    split_list(s)
        .map(|t| {
            t.parse::<SchedulerKind>().map_err(|e| {
                format!("bad scheduler {t:?}: {e} (expected fsync, ssync-pP, rrK, crash-fF or async-sS)")
            })
        })
        .collect()
}

fn split_list(s: &str) -> impl Iterator<Item = &str> {
    s.split(',').map(str::trim).filter(|t| !t.is_empty())
}

/// Seeds: either a comma list (`1,5,9`) or an exclusive range (`0..8`).
fn parse_seeds(s: &str) -> Result<Vec<u64>, String> {
    if let Some((lo, hi)) = s.split_once("..") {
        let lo: u64 = lo.trim().parse().map_err(|e| format!("bad seed range start: {e}"))?;
        let hi: u64 = hi.trim().parse().map_err(|e| format!("bad seed range end: {e}"))?;
        if lo >= hi {
            return Err(format!("empty seed range {s:?}"));
        }
        Ok((lo..hi).collect())
    } else {
        split_list(s).map(|t| t.parse().map_err(|e| format!("bad seed {t:?}: {e}"))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn default_run_is_the_standard_sweep() {
        let cmd = parse(&strings(&["run"])).unwrap();
        let Command::Run(args) = cmd else { panic!("not run: {cmd:?}") };
        assert_eq!(args.spec, CampaignSpec::standard());
        assert_eq!(args.threads, 0);
        assert!(args.spec.len() >= 100);
    }

    #[test]
    fn axis_flags_override_the_matrix() {
        let cmd = parse(&strings(&[
            "run",
            "--threads",
            "4",
            "--out",
            "/tmp/x.jsonl",
            "--families",
            "line,table",
            "--sizes",
            "8,16",
            "--seeds",
            "0..4",
            "--controllers",
            "paper",
            "--name",
            "mini",
        ]))
        .unwrap();
        let Command::Run(args) = cmd else { panic!() };
        assert_eq!(args.threads, 4);
        assert_eq!(args.out, PathBuf::from("/tmp/x.jsonl"));
        assert_eq!(args.spec.families, vec![Family::Line, Family::Table]);
        assert_eq!(args.spec.sizes, vec![8, 16]);
        assert_eq!(args.spec.seeds, vec![0, 1, 2, 3]);
        assert_eq!(args.spec.controllers, vec![ControllerKind::Paper]);
        assert_eq!(args.spec.name, "mini");
        assert_eq!(args.spec.len(), 2 * 2 * 4);
    }

    #[test]
    fn seed_lists_and_bad_input() {
        assert_eq!(parse_seeds("1, 5,9").unwrap(), vec![1, 5, 9]);
        assert_eq!(parse_seeds("2..5").unwrap(), vec![2, 3, 4]);
        assert!(parse_seeds("5..5").is_err());
        assert!(parse_seeds("x").is_err());
    }

    #[test]
    fn scheduler_axis_parses() {
        let cmd = parse(&strings(&["run", "--schedulers", "fsync,ssync-p50,rr4"])).unwrap();
        let Command::Run(args) = cmd else { panic!() };
        assert_eq!(
            args.spec.schedulers,
            vec![
                SchedulerKind::Fsync,
                SchedulerKind::Ssync { p: 50 },
                SchedulerKind::RoundRobin { k: 4 },
            ]
        );
        // 48 cells × (paper + center under 3 schedulers each, greedy
        // once — it is its own sequential scheduler).
        assert_eq!(args.spec.len(), 4 * 4 * 3 * (2 * 3 + 1));
        for bad in ["mystery", "ssync-p0", "ssync-p200", "rr0", ""] {
            assert!(
                parse(&strings(&["run", "--schedulers", bad])).is_err(),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn default_scheduler_axis_is_fsync_only() {
        let Command::Run(args) = parse(&strings(&["run"])).unwrap() else { panic!() };
        assert_eq!(args.spec.schedulers, vec![SchedulerKind::Fsync]);
    }

    #[test]
    fn resume_and_summarize_parse() {
        assert!(matches!(parse(&strings(&["resume"])).unwrap(), Command::Resume(_)));
        let Command::Summarize { input, perf } =
            parse(&strings(&["summarize", "--in", "r.jsonl"])).unwrap()
        else {
            panic!()
        };
        assert_eq!(input, PathBuf::from("r.jsonl"));
        assert!(!perf);
        let Command::Summarize { perf, .. } = parse(&strings(&["summarize", "--perf"])).unwrap()
        else {
            panic!()
        };
        assert!(perf);
    }

    #[test]
    fn observability_flags_parse() {
        let Command::Run(args) =
            parse(&strings(&["run", "--events", "ev.ndjson", "--quiet", "--perf"])).unwrap()
        else {
            panic!()
        };
        assert_eq!(args.events, Some(PathBuf::from("ev.ndjson")));
        assert!(args.quiet && args.perf);

        // Defaults: no stream, not quiet, no profiling.
        let Command::Run(args) = parse(&strings(&["run"])).unwrap() else { panic!() };
        assert_eq!(args.events, None);
        assert!(!args.quiet && !args.perf);

        // resume and record accept the same flags.
        assert!(matches!(
            parse(&strings(&["resume", "--events", "e", "--quiet"])).unwrap(),
            Command::Resume(_)
        ));
        let Command::Run(run) = parse(&strings(&["record", "--perf", "--events", "e"])).unwrap()
        else {
            panic!()
        };
        assert!(run.perf && run.trace_dir.is_some());
        assert_eq!(run.events, Some(PathBuf::from("e")));

        assert!(parse(&strings(&["run", "--events"])).is_err(), "--events needs a value");
    }

    #[test]
    fn events_tail_parses() {
        let Command::EventsTail { file, follow } =
            parse(&strings(&["events", "tail", "ev.ndjson"])).unwrap()
        else {
            panic!()
        };
        assert_eq!(file, PathBuf::from("ev.ndjson"));
        assert!(!follow);

        let Command::EventsTail { follow, .. } =
            parse(&strings(&["events", "tail", "ev.ndjson", "--follow"])).unwrap()
        else {
            panic!()
        };
        assert!(follow);

        assert!(matches!(parse(&strings(&["events"])).unwrap(), Command::Help));
        assert!(parse(&strings(&["events", "tail"])).is_err(), "FILE is required");
        assert!(parse(&strings(&["events", "tail", "a", "b"])).is_err(), "one FILE only");
        assert!(parse(&strings(&["events", "watch", "x"])).is_err(), "unknown verb");
        assert!(parse(&strings(&["events", "tail", "--bogus"])).is_err());
    }

    #[test]
    fn summarize_rejects_the_out_flag() {
        // `--out` was once silently accepted as an alias for `--in`.
        let err = parse(&strings(&["summarize", "--out", "r.jsonl"])).unwrap_err();
        assert!(err.contains("--in"), "error should point at --in: {err}");
        // And plain `--in` still works (regression guard for the fix).
        assert!(parse(&strings(&["summarize", "--in", "r.jsonl"])).is_ok());
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse(&strings(&["frobnicate"])).is_err());
        assert!(parse(&strings(&["run", "--families", "mystery"])).is_err());
        assert!(parse(&strings(&["run", "--controllers", ""])).is_err());
        assert!(parse(&strings(&["run", "--threads"])).is_err());
        assert!(matches!(parse(&[]).unwrap(), Command::Help));
    }

    #[test]
    fn crash_scheduler_axis_parses() {
        let Command::Run(args) = parse(&strings(&["run", "--schedulers", "crash-f3"])).unwrap()
        else {
            panic!()
        };
        assert_eq!(args.spec.schedulers, vec![SchedulerKind::Crash { f: 3 }]);
        assert!(parse(&strings(&["run", "--schedulers", "crash-f0"])).is_err());
    }

    #[test]
    fn shard_flags_parse_and_suffix_the_default_out() {
        let Command::Run(args) = parse(&strings(&["run", "--shard", "2/4"])).unwrap() else {
            panic!()
        };
        assert_eq!(args.shard, ShardSpec { index: 2, count: 4 });
        assert_eq!(
            args.out,
            PathBuf::from("campaign.shard2of4.jsonl"),
            "the default out must gain the shard suffix so shards cannot clobber each other"
        );

        // An explicit --out is taken verbatim.
        let Command::Run(args) =
            parse(&strings(&["run", "--shard", "1/2", "--out", "x.jsonl"])).unwrap()
        else {
            panic!()
        };
        assert_eq!(args.out, PathBuf::from("x.jsonl"));

        let Command::Resume(args) = parse(&strings(&["resume", "--shard", "0/2"])).unwrap() else {
            panic!()
        };
        assert_eq!(args.out, PathBuf::from("campaign.shard0of2.jsonl"));

        // Unsharded runs keep the plain default path.
        let Command::Run(args) = parse(&strings(&["run"])).unwrap() else { panic!() };
        assert_eq!(args.out, PathBuf::from("campaign.jsonl"));
        assert_eq!(args.shard, ShardSpec::FULL);

        for bad in ["4/4", "x/4", "1/0", "3"] {
            assert!(parse(&strings(&["run", "--shard", bad])).is_err(), "{bad:?}");
        }
        // Hash is the only partition: the strategy flag is gone.
        let err = parse(&strings(&["run", "--shard-strategy", "hash"])).unwrap_err();
        assert!(err.contains("unknown flag"), "{err}");
    }

    #[test]
    fn merge_parses_inputs_and_guards_the_output() {
        let Command::Merge { inputs, out, out_explicit } =
            parse(&strings(&["merge", "--out", "m.jsonl", "a.jsonl", "b.jsonl"])).unwrap()
        else {
            panic!()
        };
        assert_eq!(inputs, vec![PathBuf::from("a.jsonl"), PathBuf::from("b.jsonl")]);
        assert_eq!(out, PathBuf::from("m.jsonl"));
        assert!(out_explicit);

        let Command::Merge { out, out_explicit, .. } =
            parse(&strings(&["merge", "a.jsonl"])).unwrap()
        else {
            panic!()
        };
        assert_eq!(out, PathBuf::from("campaign.jsonl"), "default merge output");
        assert!(!out_explicit, "the default output must be distinguishable from --out");

        assert!(parse(&strings(&["merge"])).is_err(), "at least one input required");
        assert!(parse(&strings(&["merge", "--bogus"])).is_err());
        assert!(
            parse(&strings(&["merge", "--out", "a.jsonl", "a.jsonl"])).is_err(),
            "an output that is also an input would truncate it before reading"
        );
    }

    #[test]
    fn plan_parses_and_its_lines_parse_back() {
        let Command::Plan { run, shards } = parse(&strings(&[
            "plan",
            "--shards",
            "4",
            "--sizes",
            "16,32",
            "--families",
            "line,square",
            "--out",
            "w.jsonl",
        ]))
        .unwrap() else {
            panic!()
        };
        assert_eq!(shards, 4);
        assert_eq!(run.spec.sizes, vec![16, 32]);

        // Every command line plan prints must parse back through this
        // very parser: the run lines as sharded runs covering all
        // slices, the final line as the merge.
        let lines = crate::shard::plan_lines(&run.spec, shards, &run.out, run.threads);
        assert_eq!(lines.len(), 5);
        for (i, line) in lines.iter().enumerate() {
            let args: Vec<String> = line.split_whitespace().skip(1).map(str::to_string).collect();
            match parse(&args).unwrap() {
                Command::Run(parsed) => {
                    assert_eq!(parsed.shard, ShardSpec { index: i as u32, count: 4 });
                    assert_eq!(parsed.spec.sizes, run.spec.sizes, "axes survive the round trip");
                    assert_eq!(parsed.spec.families, run.spec.families);
                }
                Command::Merge { inputs, out, .. } => {
                    assert_eq!(i, lines.len() - 1, "merge must be the final line");
                    assert_eq!(inputs.len(), 4);
                    assert_eq!(out, PathBuf::from("w.jsonl"));
                }
                other => panic!("unexpected plan line {line:?} -> {other:?}"),
            }
        }

        assert!(parse(&strings(&["plan"])).is_err(), "--shards is required");
        assert!(parse(&strings(&["plan", "--shards", "0"])).is_err());
        assert!(
            parse(&strings(&["plan", "--shards", "2", "--shard", "0/2"])).is_err(),
            "plan computes shards itself"
        );
    }

    #[test]
    fn record_replay_and_diff_parse() {
        // record is run with a trace directory.
        let Command::Run(run) =
            parse(&strings(&["record", "--sizes", "16", "--trace-dir", "/tmp/t"])).unwrap()
        else {
            panic!()
        };
        assert_eq!(run.spec.sizes, vec![16]);
        assert_eq!(run.trace_dir, Some(PathBuf::from("/tmp/t")));
        let Command::Run(run) = parse(&strings(&["record"])).unwrap() else { panic!() };
        assert_eq!(run.trace_dir, Some(PathBuf::from("traces")), "default trace dir");
        let Command::Run(run) = parse(&strings(&["run"])).unwrap() else { panic!() };
        assert_eq!(run.trace_dir, None, "run writes no traces");
        // run/resume reject --trace-dir: it only means something to record.
        assert!(parse(&strings(&["run", "--trace-dir", "x"])).is_err());
        assert!(parse(&strings(&["resume", "--trace-dir", "x"])).is_err());

        let Command::Replay { trace_dir } =
            parse(&strings(&["replay", "--trace-dir", "td"])).unwrap()
        else {
            panic!()
        };
        assert_eq!(trace_dir, PathBuf::from("td"));

        let Command::Diff { a, b } =
            parse(&strings(&["diff", "--a", "one", "--b", "two"])).unwrap()
        else {
            panic!()
        };
        assert_eq!((a, b), (PathBuf::from("one"), PathBuf::from("two")));
        assert!(parse(&strings(&["diff", "--a", "one"])).is_err(), "diff needs both sets");
    }

    #[test]
    fn render_parses() {
        let Command::Render(args) = parse(&strings(&["render", "t.gtrc"])).unwrap() else {
            panic!()
        };
        assert_eq!(args.trace, PathBuf::from("t.gtrc"));
        assert_eq!((args.every, args.svg, args.cell), (None, None, 6));

        let Command::Render(args) = parse(&strings(&[
            "render",
            "--every",
            "5",
            "t.gtrc",
            "--svg",
            "strip.svg",
            "--cell",
            "8",
        ]))
        .unwrap() else {
            panic!()
        };
        assert_eq!(args.every, Some(5));
        assert_eq!(args.svg, Some(PathBuf::from("strip.svg")));
        assert_eq!(args.cell, 8);

        assert!(parse(&strings(&["render"])).is_err(), "trace path required");
        assert!(parse(&strings(&["render", "a.gtrc", "b.gtrc"])).is_err(), "one trace only");
        assert!(parse(&strings(&["render", "t.gtrc", "--every", "0"])).is_err());
        assert!(parse(&strings(&["render", "t.gtrc", "--bogus"])).is_err());
    }

    #[test]
    fn smoke_parses_with_large_n_defaults() {
        let Command::Smoke(args) = parse(&strings(&["smoke"])).unwrap() else { panic!() };
        assert!(args.n >= 100_000, "the smoke's point is large n, got {}", args.n);
        assert_ne!(args.threads_a, args.threads_b);

        let Command::Smoke(args) = parse(&strings(&[
            "smoke",
            "--n",
            "1000000",
            "--rounds",
            "4",
            "--family",
            "clusters",
            "--seed",
            "9",
            "--threads-a",
            "2",
            "--threads-b",
            "16",
            "--dir",
            "/tmp/sm",
        ]))
        .unwrap() else {
            panic!()
        };
        assert_eq!((args.n, args.rounds, args.seed), (1_000_000, 4, 9));
        assert_eq!((args.threads_a, args.threads_b), (2, 16));
        assert_eq!(args.dir, PathBuf::from("/tmp/sm"));
        assert_eq!(args.family, Family::Clusters);

        assert!(parse(&strings(&["smoke", "--n", "0"])).is_err());
        assert!(parse(&strings(&["smoke", "--family", "mystery"])).is_err());
        assert!(parse(&strings(&["smoke", "--bogus"])).is_err());
    }

    #[test]
    fn spec_files_load_and_flags_override() {
        let spec = r#"{"name":"sweep","families":"line,table","sizes":"8,16",
                       "seeds":"0..3","controllers":"paper","schedulers":"fsync,crash-f2"}"#;
        let parsed = spec_from_flat_json(spec).unwrap();
        assert_eq!(parsed.name, "sweep");
        assert_eq!(parsed.families, vec![Family::Line, Family::Table]);
        assert_eq!(parsed.sizes, vec![8, 16]);
        assert_eq!(parsed.seeds, vec![0, 1, 2]);
        assert_eq!(parsed.controllers, vec![ControllerKind::Paper]);
        assert_eq!(parsed.schedulers, vec![SchedulerKind::Fsync, SchedulerKind::Crash { f: 2 }]);

        // Absent fields keep the standard defaults.
        let partial = spec_from_flat_json(r#"{"families":"line"}"#).unwrap();
        assert_eq!(partial.families, vec![Family::Line]);
        assert_eq!(partial.sizes, CampaignSpec::standard().sizes);

        // Errors: unknown fields, non-string values, bad axis syntax.
        assert!(spec_from_flat_json(r#"{"familes":"line"}"#).is_err(), "typo must be loud");
        assert!(spec_from_flat_json(r#"{"sizes":16}"#).is_err(), "values are flag strings");
        assert!(spec_from_flat_json(r#"{"schedulers":"ssync-p0"}"#).is_err());

        // End to end through --spec, with a flag override on top.
        let path =
            std::env::temp_dir().join(format!("gather-campaign-spec-{}.json", std::process::id()));
        std::fs::write(&path, spec).unwrap();
        let cmd =
            parse(&strings(&["run", "--sizes", "32", "--spec", path.to_str().unwrap()])).unwrap();
        let Command::Run(args) = cmd else { panic!() };
        assert_eq!(args.spec.name, "sweep");
        assert_eq!(args.spec.families, vec![Family::Line, Family::Table]);
        assert_eq!(args.spec.sizes, vec![32], "flags override spec fields regardless of order");
        let cmd = parse(&strings(&[
            "submit",
            "--sizes",
            "32",
            "--spec",
            path.to_str().unwrap(),
            "--socket",
            "s",
        ]))
        .unwrap();
        let Command::Submit(args) = cmd else { panic!() };
        assert_eq!(args.spec.name, "sweep");
        assert_eq!(args.spec.families, vec![Family::Line, Family::Table]);
        assert_eq!(args.spec.sizes, vec![32], "submit takes the same override rule");
        assert_eq!(args.socket, PathBuf::from("s"));
        let twice = ["submit", "--spec", path.to_str().unwrap(), "--spec", path.to_str().unwrap()];
        assert!(parse(&strings(&twice)).is_err(), "--spec given twice");
        std::fs::remove_file(&path).unwrap();

        assert!(parse(&strings(&["run", "--spec", "/nonexistent/x.json"])).is_err());
    }

    #[test]
    fn service_subcommands_parse() {
        let Command::Serve(serve) = parse(&strings(&[
            "serve",
            "--socket",
            "/tmp/s.sock",
            "--cache",
            "c",
            "--jobs",
            "2",
            "--lease-ttl-ms",
            "500",
            "--quiet",
        ]))
        .unwrap() else {
            panic!()
        };
        assert_eq!(serve.socket, PathBuf::from("/tmp/s.sock"));
        assert_eq!(serve.cache, PathBuf::from("c"));
        assert_eq!(serve.jobs, Some(2));
        assert_eq!(serve.lease_ttl_ms, 500);
        assert!(serve.quiet);

        assert!(parse(&strings(&["serve"])).is_err(), "--socket is required");
        assert!(parse(&strings(&["serve", "--socket", "s", "--jobs", "0"])).is_err());

        let Command::Submit(submit) = parse(&strings(&[
            "submit",
            "--socket",
            "/tmp/s.sock",
            "--families",
            "line",
            "--sizes",
            "16",
            "--seeds",
            "1",
            "--out",
            "out.jsonl",
        ]))
        .unwrap() else {
            panic!()
        };
        assert_eq!(submit.out, PathBuf::from("out.jsonl"));
        assert_eq!(submit.spec.sizes, vec![16]);
        assert!(parse(&strings(&["submit", "--families", "line"])).is_err(), "needs --socket");

        let Command::Work(work) = parse(&strings(&[
            "work",
            "--socket",
            "/tmp/s.sock",
            "--threads",
            "2",
            "--name",
            "w1",
            "--lease",
            "4",
            "--poll-ms",
            "50",
        ]))
        .unwrap() else {
            panic!()
        };
        assert_eq!(work.threads, 2);
        assert_eq!(work.name, "w1");
        assert_eq!(work.lease, 4);
        assert_eq!(work.poll_ms, 50);
        assert!(parse(&strings(&["work", "--socket", "s", "--lease", "0"])).is_err());
    }

    #[test]
    fn spec_fields_round_trip() {
        let mut spec = CampaignSpec::standard();
        spec.name = "round-trip".to_string();
        let fields = spec_to_fields(&spec);
        assert_eq!(spec_from_fields(&fields).unwrap(), spec);

        let mut fields = fields;
        fields.insert("sizes".to_string(), "not-a-number".to_string());
        assert!(spec_from_fields(&fields).is_err());
        fields.insert("sizes".to_string(), String::new());
        assert!(spec_from_fields(&fields).is_err(), "empty axis fails validation");
        fields.remove("sizes");
        let defaulted = spec_from_fields(&fields).unwrap();
        assert_eq!(defaulted.sizes, CampaignSpec::standard().sizes, "absent axes keep defaults");
    }
}
