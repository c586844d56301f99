//! # gather-campaign
//!
//! A parallel scenario-campaign engine for stress-testing the paper's
//! O(n) gathering claim at scale: declare a sweep once, fan it out over
//! every core, stream results to disk as they land, resume interrupted
//! runs, and fold the result set into the scaling tables the analysis
//! crate renders.
//!
//! The subsystem replaces the hand-written experiment loops that used to
//! live in `gather-bench` callers:
//!
//! * [`CampaignSpec`] — a declarative scenario matrix (workload families
//!   × swarm sizes × orientation seeds × controllers × activation
//!   schedulers) that expands to a deterministic list of [`Scenario`]
//!   jobs with stable string IDs.
//! * [`executor`] — a work-stealing multi-threaded executor (shared
//!   atomic job cursor + scoped threads, the same idiom as
//!   `grid_engine::parallel`) with per-job panic isolation and a
//!   streaming progress callback.
//! * [`JsonlSink`] — one JSON object per scenario, flushed per line, so
//!   a killed run loses at most the line being written; re-running the
//!   campaign skips every scenario already on disk ([`load_completed`]).
//! * [`aggregate`] — folds a result file into per-family rounds/n
//!   scaling tables via `gather-analysis`.
//! * [`shard`] / [`merge`] — distributed campaigns: `--shard I/M`
//!   splits any spec into M disjoint slices by a stable FNV-1a hash of
//!   the scenario ID (identical on every machine), each shard run
//!   writes a digest-bearing manifest next to its JSONL, and
//!   `campaign merge` proves a set of shard outputs covers the spec
//!   exactly once — rejecting missing, overlapping, mixed-spec, torn,
//!   or incomplete shards — before emitting one merged result file.
//!   `campaign plan --shards M` prints the per-shard command lines.
//! * [`trace_ops`] — per-round traces over the `gather-trace` binary
//!   format: `record` is `run` with a trace directory, where
//!   [`Scenario::execute`] streams one compact `.gtrc` file per engine
//!   scenario; `replay` re-executes a trace's scenario and verifies
//!   every round is bit-identical (reporting the first divergent round
//!   and robot), and `diff` compares two trace sets scenario by
//!   scenario.
//! * [`smoke`] — the large-n determinism smoke: record a bounded-round
//!   trace at two engine thread counts, replay it through
//!   digest-verified playback, and require byte-identical files — CI's
//!   guard on the sparse round-apply and the parallel compute map.
//! * The `campaign` binary — `run` / `resume` / `record` / `replay` /
//!   `diff` / `render` / `smoke` / `summarize` subcommands over all of
//!   the above, with `--spec FILE` loading a scenario matrix from a
//!   flat-JSON spec. `run`, `resume` and `record` share one campaign
//!   loop, and every scenario goes through [`Scenario::execute`].
//!
//! Results are pure functions of the scenario, so a campaign executed
//! with 1 thread and with 8 threads produces the same result *set*
//! (only the arrival order differs — compare sorted lines).
//!
//! ```
//! use gather_campaign::{CampaignSpec, executor};
//!
//! let mut spec = CampaignSpec::named("doc");
//! spec.families = vec![gather_workloads::Family::Line];
//! spec.sizes = vec![24];
//! spec.seeds = vec![1, 2];
//! spec.controllers = vec![gather_bench::ControllerKind::Paper];
//! let jobs = spec.expand();
//! assert_eq!(jobs.len(), 2);
//! let records = executor::execute_scenarios(&jobs, 1, |_done, _total, _rec| {});
//! assert!(records.iter().all(|r| r.gathered));
//! ```

pub mod aggregate;
pub mod cli;
pub mod executor;
pub mod merge;
pub mod progress;
pub mod record;
pub mod service;
pub mod shard;
pub mod sink;
pub mod smoke;
pub mod spec;
pub mod trace_ops;

pub use aggregate::{provenance_table, summarize, summarize_perf};
pub use merge::{merge_shards, merge_trace_dirs, MergeReport, ShardContribution};
pub use progress::{record_status, ProgressReporter};
pub use record::{PerfSummary, ScenarioRecord};
pub use service::{serve, submit, work, work_on, SubmitReport, WorkReport};
pub use shard::{fnv1a_64, plan_lines, shard_out_path, ShardManifest, ShardSpec};
pub use sink::{
    load_completed, load_records, manifest_path, read_manifest, write_manifest, JsonlSink,
};
pub use smoke::{run_smoke, SmokeArgs, SmokeReport};
pub use spec::{coverage_xor, CampaignSpec, JobOutcome, Scenario};
pub use trace_ops::{
    diff_trace_dirs, diff_trace_files, read_trace_manifest, replay_trace, write_trace_manifest,
    DiffReport, DiffStatus, ReplayReport, ReplayStatus,
};

// Axis types, re-exported so campaign callers need only this crate.
pub use gather_bench::{ControllerKind, SchedulerKind};
pub use gather_workloads::Family;
