//! Argument parsing for the `campaign` binary (no external
//! dependencies, same policy as `gather-bench/src/bin/bench_engine.rs`).
//!
//! Each subcommand has one row in a flag table: the flags that take a
//! value, the switches, and how many positional arguments it takes. One
//! scanner reads every command line against its row: `-h`/`--help`
//! anywhere asks for the usage, an unknown flag is an error, a repeated
//! flag keeps its last value (every value given must still parse), and
//! what is left is positional. Each subcommand then builds its args
//! struct from the scan's typed getters, and the run family and
//! `submit` read their sweep through one function: the `--spec` file,
//! then the axis flags on top. A test holds every row to the
//! subcommand's synopsis in [`USAGE`], so help and parser agree.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::num::{NonZeroU32, NonZeroU64, NonZeroUsize};
use std::path::{Path, PathBuf};
use std::str::FromStr;

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
    campaign plan      --shards M [--threads N] [--out PATH] [--spec FILE]
                       [--events FILE] [--quiet] [--perf] [axis flags]
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

/// One subcommand's row of [`FLAGS`].
struct Flags {
    /// The subcommand as typed (`events tail` for the events verb).
    sub: &'static str,
    /// Flags that take a value, space-separated. A row that lists
    /// `--spec` also takes the axis flags, which [`spec_args`] applies
    /// on top of the spec file.
    values: &'static str,
    /// Flags that take none, space-separated.
    switches: &'static str,
    /// How many positional arguments the subcommand takes.
    positional: usize,
}

const fn row(sub: &'static str, values: &'static str, switches: &'static str, n: usize) -> Flags {
    Flags { sub, values, switches, positional: n }
}

/// Every subcommand's flags: the same flags its [`USAGE`] synopsis lists.
const FLAGS: [Flags; 14] = [
    row("run", "--threads --out --spec --shard --events", "--quiet --perf", 0),
    row("resume", "--threads --out --spec --shard --events", "--quiet --perf", 0),
    row("record", "--threads --out --spec --shard --events --trace-dir", "--quiet --perf", 0),
    row("plan", "--shards --threads --out --spec --events", "--quiet --perf", 0),
    row("merge", "--out", "", usize::MAX),
    row("replay", "--trace-dir", "", 0),
    row("diff", "--a --b", "", 0),
    row("render", "--every --svg --cell", "", 1),
    row("smoke", "--n --rounds --family --seed --threads-a --threads-b --dir --scheduler", "", 0),
    row("summarize", "--in", "--perf", 0),
    row("events tail", "", "--follow", 1),
    row("serve", "--socket --cache --jobs --lease-ttl-ms", "--quiet", 0),
    row("submit", "--socket --out --spec --events", "--quiet", 0),
    row("work", "--socket --threads --name --lease --poll-ms", "", 0),
];

/// Whether the space-separated flag list `list` holds `flag`.
fn lists(list: &str, flag: &str) -> bool {
    list.split_whitespace().any(|f| f == flag)
}

/// Flags that set one spec axis: a spec-file field name behind `--`.
const AXIS_FLAGS: [&str; 6] =
    ["--name", "--families", "--sizes", "--seeds", "--controllers", "--schedulers"];

/// A command line scanned against its [`Flags`] row.
#[derive(Default)]
struct Scan<'a> {
    /// Value flags with their values, in command-line order.
    values: Vec<(&'a str, &'a str)>,
    switches: Vec<&'a str>,
    positional: Vec<&'a str>,
}

/// Scan `args` against `row`; `None` when they ask for help.
fn scan<'a>(row: &Flags, args: &[&'a str]) -> Result<Option<Scan<'a>>, String> {
    let takes_value = |arg: &str| {
        lists(row.values, arg) || (lists(row.values, "--spec") && AXIS_FLAGS.contains(&arg))
    };
    let mut scan = Scan::default();
    let mut it = args.iter().copied();
    while let Some(arg) = it.next() {
        if arg == "-h" || arg == "--help" {
            return Ok(None);
        } else if takes_value(arg) {
            scan.values.push((arg, it.next().ok_or_else(|| format!("{arg} needs a value"))?));
        } else if lists(row.switches, arg) {
            scan.switches.push(arg);
        } else if !arg.starts_with("--") && scan.positional.len() < row.positional {
            scan.positional.push(arg);
        } else {
            let what = if arg.starts_with("--") { "unknown flag" } else { "unexpected argument" };
            return Err(format!("{what} {arg:?}; usage:\n{}", synopsis(row.sub)));
        }
    }
    Ok(Some(scan))
}

/// `sub`'s synopsis lines in [`USAGE`]: each line that starts with
/// `campaign SUB`, with the indented lines that continue it.
fn synopsis(sub: &str) -> String {
    let mut ours = false;
    let lines: Vec<&str> = USAGE
        .lines()
        .skip_while(|line| *line != "USAGE:")
        .skip(1)
        .take_while(|line| !line.is_empty())
        .filter(|line| {
            if let Some(rest) = line.trim_start().strip_prefix("campaign ") {
                ours = rest.strip_prefix(sub).is_some_and(|rest| rest.starts_with(' '));
            }
            ours
        })
        .collect();
    lines.join("\n")
}

impl<'a> Scan<'a> {
    /// Every value given for `flag`, in order.
    fn all<'s>(&'s self, flag: &'s str) -> impl Iterator<Item = &'a str> + 's {
        self.values.iter().filter(move |(f, _)| *f == flag).map(|&(_, value)| value)
    }

    /// `flag`'s last value.
    fn get(&self, flag: &str) -> Option<&'a str> {
        self.all(flag).last()
    }

    fn path(&self, flag: &str) -> Option<PathBuf> {
        self.get(flag).map(PathBuf::from)
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.contains(&switch)
    }

    /// `flag`'s value, when it may be given once at most.
    fn once(&self, flag: &str) -> Result<Option<&'a str>, String> {
        let mut all = self.all(flag);
        let first = all.next();
        if all.next().is_some() {
            return Err(format!("{flag} given twice"));
        }
        Ok(first)
    }

    /// `flag`'s last value through `parse`; every value given must parse.
    fn parsed<T, E: Display>(
        &self,
        flag: &str,
        parse: impl Fn(&'a str) -> Result<T, E>,
    ) -> Result<Option<T>, String> {
        self.all(flag)
            .try_fold(None, |_, v| parse(v).map(Some).map_err(|e| format!("{flag} {v:?}: {e}")))
    }

    /// `flag`'s last value as a number (any [`FromStr`] type).
    fn num<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        self.parsed(flag, str::parse)
    }
}

/// Parse the process arguments (without the program name).
pub fn parse(args: &[String]) -> Result<Command, String> {
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let (sub, rest) = match args[..] {
        [] | ["-h" | "--help" | "help", ..] | ["events"] | ["events", "-h" | "--help", ..] => {
            return Ok(Command::Help)
        }
        ["events", "tail", ref rest @ ..] => ("events tail", rest),
        ["events", verb, ..] => return Err(format!("unknown events verb {verb:?} (try tail)")),
        [sub, ref rest @ ..] => (sub, rest),
    };
    let row = FLAGS
        .iter()
        .find(|row| row.sub == sub)
        .ok_or_else(|| format!("unknown subcommand {sub:?} (try --help)"))?;
    let Some(s) = scan(row, rest)? else { return Ok(Command::Help) };
    Ok(match sub {
        "run" => Command::Run(run_args(&s)?),
        "resume" => Command::Resume(run_args(&s)?),
        "record" => Command::Run(RunArgs {
            trace_dir: Some(s.path("--trace-dir").unwrap_or_else(|| "traces".into())),
            ..run_args(&s)?
        }),
        "plan" => {
            let m = s
                .once("--shards")?
                .ok_or("plan needs --shards M (how many ways to split the spec)")?;
            let shards: NonZeroU32 = m.parse().map_err(|e| format!("--shards {m:?}: {e}"))?;
            Command::Plan { run: run_args(&s)?, shards: shards.get() }
        }
        "merge" => {
            let inputs: Vec<PathBuf> = s.positional.iter().map(PathBuf::from).collect();
            if inputs.is_empty() {
                return Err("merge needs at least one SHARD.jsonl or trace-directory input".into());
            }
            let out = s.path("--out").unwrap_or_else(|| "campaign.jsonl".into());
            if inputs.contains(&out) {
                return Err(format!(
                    "merge output {out:?} is also an input — it would be truncated before reading"
                ));
            }
            Command::Merge { inputs, out, out_explicit: s.get("--out").is_some() }
        }
        "replay" => {
            Command::Replay { trace_dir: s.path("--trace-dir").unwrap_or_else(|| "traces".into()) }
        }
        "diff" => match (s.path("--a"), s.path("--b")) {
            (Some(a), Some(b)) => Command::Diff { a, b },
            _ => return Err("diff needs both --a and --b trace directories".into()),
        },
        "render" => Command::Render(RenderArgs {
            trace: s.positional.first().ok_or("render needs a TRACE.gtrc path")?.into(),
            every: s.num::<NonZeroU64>("--every")?.map(NonZeroU64::get),
            svg: s.path("--svg"),
            cell: s.num("--cell")?.unwrap_or(6),
        }),
        "smoke" => {
            let d = crate::smoke::SmokeArgs::default();
            let family = |v| Family::parse(v).ok_or("unknown family");
            let args = crate::smoke::SmokeArgs {
                n: s.num("--n")?.unwrap_or(d.n),
                rounds: s.num("--rounds")?.unwrap_or(d.rounds),
                family: s.parsed("--family", family)?.unwrap_or(d.family),
                seed: s.num("--seed")?.unwrap_or(d.seed),
                threads_a: s.num("--threads-a")?.unwrap_or(d.threads_a),
                threads_b: s.num("--threads-b")?.unwrap_or(d.threads_b),
                scheduler: s.num("--scheduler")?.unwrap_or(d.scheduler),
                dir: s.path("--dir").unwrap_or(d.dir),
            };
            if args.n == 0 || args.rounds == 0 {
                return Err("smoke needs --n >= 1 and --rounds >= 1".into());
            }
            Command::Smoke(args)
        }
        "summarize" => Command::Summarize {
            input: s.path("--in").unwrap_or_else(|| "campaign.jsonl".into()),
            perf: s.has("--perf"),
        },
        "events tail" => Command::EventsTail {
            file: s.positional.first().ok_or("events tail needs an event FILE")?.into(),
            follow: s.has("--follow"),
        },
        "serve" => Command::Serve(ServeArgs {
            socket: s.path("--socket").ok_or("serve needs --socket PATH")?,
            cache: s.path("--cache").unwrap_or_else(|| "campaign-cache".into()),
            jobs: s.num::<NonZeroUsize>("--jobs")?.map(NonZeroUsize::get),
            lease_ttl_ms: s.num::<NonZeroU64>("--lease-ttl-ms")?.map_or(60_000, NonZeroU64::get),
            quiet: s.has("--quiet"),
        }),
        "submit" => Command::Submit(SubmitArgs {
            socket: s.path("--socket").ok_or("submit needs --socket PATH")?,
            spec: spec_args(&s)?,
            out: s.path("--out").unwrap_or_else(|| "campaign.jsonl".into()),
            events: s.path("--events"),
            quiet: s.has("--quiet"),
        }),
        "work" => Command::Work(WorkArgs {
            socket: s.path("--socket").ok_or("work needs --socket PATH")?,
            threads: s.num("--threads")?.unwrap_or(0),
            name: s
                .get("--name")
                .map_or_else(|| format!("worker-{}", std::process::id()), Into::into),
            lease: s.num::<NonZeroUsize>("--lease")?.map_or(8, NonZeroUsize::get),
            poll_ms: s.num("--poll-ms")?.unwrap_or(200),
        }),
        _ => unreachable!("{sub:?} has a row in FLAGS but no arm in parse"),
    })
}

/// run/resume/record/plan's [`RunArgs`]; record adds its trace directory.
fn run_args(s: &Scan) -> Result<RunArgs, String> {
    let shard = s.parsed("--shard", ShardSpec::parse)?.unwrap_or(ShardSpec::FULL);
    // Sharded runs of the same spec must not clobber each other's
    // default result file: when --out was not given, suffix the default
    // with the shard coordinates (c.jsonl -> c.shard2of4.jsonl).
    let out = match s.path("--out") {
        Some(out) => out,
        None if !shard.is_full() => shard_out_path(Path::new("campaign.jsonl"), shard),
        None => PathBuf::from("campaign.jsonl"),
    };
    Ok(RunArgs {
        spec: spec_args(s)?,
        threads: s.num("--threads")?.unwrap_or(0),
        out,
        shard,
        events: s.path("--events"),
        quiet: s.has("--quiet"),
        perf: s.has("--perf"),
        trace_dir: None,
    })
}

/// The sweep a command line names: the `--spec` file (the standard
/// sweep without one), then every axis flag on top in command-line
/// order, so flags override spec-file fields wherever they appear.
fn spec_args(s: &Scan) -> Result<CampaignSpec, String> {
    let mut spec = match s.once("--spec")? {
        None => CampaignSpec::standard(),
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("reading {path:?}: {e}"))?;
            spec_from_flat_json(&text).map_err(|e| format!("spec {path:?}: {e}"))?
        }
    };
    for &(flag, value) in &s.values {
        if AXIS_FLAGS.contains(&flag) {
            apply_spec_field(&mut spec, &flag[2..], value)?;
        }
    }
    spec.validate()?;
    Ok(spec)
}

/// Build a [`CampaignSpec`] from a flat-JSON spec file. All fields are
/// string-valued and use the exact syntax of the corresponding CLI
/// flags; fields absent from the file keep the standard-sweep defaults.
/// The flat-JSON dialect is the same one the result records use
/// (`gather_analysis::parse_flat_json`), so one parser owns both wire
/// formats.
pub fn spec_from_flat_json(text: &str) -> Result<CampaignSpec, String> {
    let obj = gather_analysis::parse_flat_json(text.trim())?;
    let mut spec = CampaignSpec::standard();
    for key in obj.keys() {
        let value = obj.str(key).map_err(|e| format!("{e} (spec fields use flag syntax)"))?;
        apply_spec_field(&mut spec, key, value)?;
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

    /// A valid command line of every subcommand form, with a flag.
    const FORMS: [&[&str]; 14] = [
        &["run", "--threads", "2"],
        &["resume", "--quiet"],
        &["record", "--trace-dir", "t"],
        &["plan", "--shards", "2"],
        &["merge", "--out", "m.jsonl", "a.jsonl"],
        &["replay", "--trace-dir", "t"],
        &["diff", "--a", "x", "--b", "y"],
        &["render", "--cell", "4", "t.gtrc"],
        &["smoke", "--n", "10"],
        &["summarize", "--perf"],
        &["events", "tail", "--follow", "ev.ndjson"],
        &["serve", "--socket", "s"],
        &["submit", "--socket", "s"],
        &["work", "--socket", "s"],
    ];

    #[test]
    fn every_form_prints_help_alone_and_after_a_flag() {
        for form in FORMS {
            assert!(parse(&strings(form)).is_ok(), "{form:?} must parse");
            let words = if form[0] == "events" { 2 } else { 1 };
            for help in ["-h", "--help"] {
                for args in [[&form[..words], &[help]].concat(), [form, &[help]].concat()] {
                    assert_eq!(parse(&strings(&args)), Ok(Command::Help), "{args:?}");
                }
            }
        }
    }

    #[test]
    fn a_stray_argument_is_an_error_where_none_is_taken() {
        for form in FORMS.iter().filter(|f| !matches!(f[0], "merge" | "render" | "events")) {
            let args = [form, &["extra"][..]].concat();
            let err = parse(&strings(&args)).unwrap_err();
            assert!(err.contains("\"extra\""), "{args:?}: {err}");
        }
    }

    #[test]
    fn repeated_flags_keep_their_last_value_and_each_must_parse() {
        let args = ["run", "--threads", "2", "--sizes", "8", "--threads", "3", "--sizes", "16"];
        let Command::Run(run) = parse(&strings(&args)).unwrap() else { panic!() };
        assert_eq!((run.threads, run.spec.sizes), (3, vec![16]));
        assert!(parse(&strings(&["run", "--threads", "x", "--threads", "3"])).is_err());
        assert!(parse(&strings(&["run", "--sizes", "x", "--sizes", "16"])).is_err());
        assert!(parse(&strings(&["serve", "--socket", "s", "--jobs", "0", "--jobs", "2"])).is_err());
        assert!(parse(&strings(&["plan", "--shards", "2", "--shards", "3"])).is_err());
    }

    /// Every flag a synopsis in `USAGE` lists is in its subcommand's
    /// row, and every flag in the row is in the synopsis, so the help
    /// text and the parser cannot drift apart.
    #[test]
    fn usage_synopses_and_the_flag_table_agree() {
        let flags_in = |text: &str| -> std::collections::BTreeSet<String> {
            text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .filter(|word| word.starts_with("--"))
                .map(str::to_string)
                .collect()
        };
        for row in &FLAGS {
            let text = synopsis(row.sub)
                .replace("[run flags]", &synopsis("run"))
                .replace("[axis flags]", &AXIS_FLAGS.join(" "));
            assert!(!text.is_empty(), "{} has no synopsis", row.sub);
            let mut table = flags_in(&format!("{} {}", row.values, row.switches));
            if lists(row.values, "--spec") {
                table.extend(AXIS_FLAGS.map(String::from));
            }
            assert_eq!(flags_in(&text), table, "{}: synopsis {text:?}", row.sub);
        }
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
