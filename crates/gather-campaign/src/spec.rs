//! Declarative campaign specification and its expansion into jobs.

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Instant;

use gather_bench::{ControllerKind, SchedulerKind};
use gather_workloads::Family;
use grid_engine::{Point, ProfileTotals};

use crate::record::{PerfSummary, ScenarioRecord};
use crate::shard::ShardSpec;
use crate::trace_ops::TraceFile;

/// A declarative scenario matrix. Expansion order is the nested product
/// family → size → seed → controller → scheduler, so the job list (and
/// every job index) is a pure function of the spec.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name, recorded for humans only.
    pub name: String,
    /// Workload families to instantiate (see `gather_workloads::family`).
    pub families: Vec<Family>,
    /// Target swarm sizes, passed to the family generators.
    pub sizes: Vec<usize>,
    /// Orientation seeds; random families also derive their shape from
    /// the seed, and SSYNC activation draws from it too, so one seed
    /// pins the entire scenario.
    pub seeds: Vec<u64>,
    /// Strategies to run on every (family, size, seed) cell.
    pub controllers: Vec<ControllerKind>,
    /// Activation policies to run each cell under. Defaults to FSYNC
    /// only, which keeps legacy specs (and their scenario IDs)
    /// unchanged.
    pub schedulers: Vec<SchedulerKind>,
}

impl CampaignSpec {
    /// An empty spec with the given name; fill the axes before use
    /// (`schedulers` starts at the FSYNC default rather than empty, so
    /// pre-scheduler call sites keep working unchanged).
    pub fn named(name: impl Into<String>) -> Self {
        CampaignSpec {
            name: name.into(),
            families: Vec::new(),
            sizes: Vec::new(),
            seeds: Vec::new(),
            controllers: Vec::new(),
            schedulers: vec![SchedulerKind::Fsync],
        }
    }

    /// The standard acceptance sweep: lines, blocks, hollow shapes and
    /// random blobs × four sizes × three seeds × all three controllers,
    /// under FSYNC (144 scenarios).
    pub fn standard() -> Self {
        CampaignSpec {
            name: "standard".into(),
            families: vec![Family::Line, Family::Square, Family::HollowSquare, Family::RandomBlob],
            sizes: vec![16, 32, 64, 128],
            seeds: vec![1, 2, 3],
            controllers: ControllerKind::ALL.to_vec(),
            schedulers: vec![SchedulerKind::Fsync],
        }
    }

    /// Total number of scenarios the spec expands to. The greedy
    /// baseline is its own sequential scheduler, so the schedulers axis
    /// does not multiply it (see [`CampaignSpec::expand`]).
    pub fn len(&self) -> usize {
        let cells = self.families.len() * self.sizes.len() * self.seeds.len();
        let greedy = self.controllers.iter().filter(|&&c| c == ControllerKind::Greedy).count();
        let engine_controllers = self.controllers.len() - greedy;
        cells * (engine_controllers * self.schedulers.len() + greedy)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn validate(&self) -> Result<(), String> {
        fn has_duplicates<T: PartialEq>(items: &[T]) -> bool {
            items.iter().enumerate().any(|(i, item)| items[..i].contains(item))
        }
        for (axis, empty, repeated) in [
            ("families", self.families.is_empty(), has_duplicates(&self.families)),
            ("sizes", self.sizes.is_empty(), has_duplicates(&self.sizes)),
            ("seeds", self.seeds.is_empty(), has_duplicates(&self.seeds)),
            ("controllers", self.controllers.is_empty(), has_duplicates(&self.controllers)),
            ("schedulers", self.schedulers.is_empty(), has_duplicates(&self.schedulers)),
        ] {
            if empty {
                return Err(format!("campaign spec has no {axis}"));
            }
            // A repeated axis value expands to scenarios with identical
            // IDs: resume would treat the twin as already done, and the
            // shard coverage digests (XOR folds over IDs) would cancel
            // the pair — a sharded sweep would burn all its compute and
            // then unavoidably fail the merge. Reject it up front.
            if repeated {
                return Err(format!(
                    "campaign spec repeats a value in {axis}: duplicate scenario IDs would \
                     break resume and shard coverage"
                ));
            }
        }
        if self.sizes.contains(&0) {
            return Err("campaign spec has a zero size".into());
        }
        for &s in &self.schedulers {
            s.validate()?;
        }
        Ok(())
    }

    /// Expand the matrix into the deterministic, seeded job list.
    ///
    /// The greedy baseline runs its own sequential fair scheduler (that
    /// is the point of the strawman), so engine activation policies do
    /// not apply to it: each greedy cell expands exactly once, labeled
    /// `fsync`, instead of once per scheduler — otherwise a sweep would
    /// re-run identical greedy work and emit records claiming a
    /// scheduler that was never applied.
    pub fn expand(&self) -> Vec<Scenario> {
        let mut out = Vec::with_capacity(self.len());
        for &family in &self.families {
            for &n in &self.sizes {
                for &seed in &self.seeds {
                    for &controller in &self.controllers {
                        if controller == ControllerKind::Greedy {
                            let scheduler = SchedulerKind::Fsync;
                            out.push(Scenario { family, n, seed, controller, scheduler });
                            continue;
                        }
                        for &scheduler in &self.schedulers {
                            out.push(Scenario { family, n, seed, controller, scheduler });
                        }
                    }
                }
            }
        }
        out
    }

    /// Expand only the scenarios `shard` owns, in expansion order. The
    /// `count`-way partition is a disjoint exact cover of
    /// [`CampaignSpec::expand`]: every job lands in exactly one shard,
    /// placed identically on any machine (the ID hash is machine- and
    /// order-independent). This is the executor's own filter with an
    /// empty resume set, so the partition here cannot drift from the
    /// one runs actually execute.
    pub fn expand_shard(&self, shard: ShardSpec) -> Vec<Scenario> {
        crate::executor::select_pending(&self.expand(), shard, &Default::default())
    }

    /// Order-sensitive digest of the full expanded scenario-ID list:
    /// two specs share a digest iff they expand to the same jobs in the
    /// same order. This is what pins N shard outputs to one spec — a
    /// merge refuses shards whose spec digests differ.
    pub fn spec_digest(&self) -> u64 {
        let mut joined = String::new();
        for sc in self.expand() {
            joined.push_str(&sc.id());
            joined.push('\n');
        }
        gather_trace::digest_bytes(joined.as_bytes())
    }

    /// Order-free coverage digest of the full expansion — the XOR fold
    /// of per-ID digests ([`coverage_xor`]). Because XOR is commutative
    /// and self-inverse, the folds of N *disjoint* shards combine to
    /// exactly this value iff their union is the whole spec, which is
    /// how a merge proves coverage by digest arithmetic alone.
    pub fn coverage_digest(&self) -> u64 {
        let ids: Vec<String> = self.expand().iter().map(Scenario::id).collect();
        coverage_xor(ids.iter().map(String::as_str))
    }
}

/// XOR fold of [`gather_trace::digest_bytes`] over a set of scenario
/// IDs: an order-free set digest (the empty set folds to 0). Callers
/// must deduplicate first — XOR cancels pairs, so a duplicated ID would
/// vanish instead of being detected.
pub fn coverage_xor<'a>(ids: impl Iterator<Item = &'a str>) -> u64 {
    ids.fold(0u64, |acc, id| acc ^ gather_trace::digest_bytes(id.as_bytes()))
}

/// One fully-pinned experiment: everything needed to reproduce the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scenario {
    pub family: Family,
    /// Requested swarm size (generators hit it approximately).
    pub n: usize,
    pub seed: u64,
    pub controller: ControllerKind,
    pub scheduler: SchedulerKind,
}

impl Scenario {
    /// Stable string ID — the resume key and the JSONL primary key.
    /// FSYNC scenarios keep the legacy 4-part
    /// `family/n<size>/s<seed>/<controller>` shape so result files
    /// written before the scheduler axis existed still resume
    /// correctly; other schedulers append a fifth segment
    /// (`…/ssync-p50`, `…/rr4`).
    pub fn id(&self) -> String {
        let base =
            format!("{}/n{}/s{}/{}", self.family.name(), self.n, self.seed, self.controller.name());
        match self.scheduler {
            SchedulerKind::Fsync => base,
            other => format!("{base}/{}", other.name()),
        }
    }

    /// Parse a scenario back out of its [`Scenario::id`] string — the
    /// inverse the trace subsystem uses to re-execute a recorded run
    /// from its header alone. Rejects anything `id()` cannot produce
    /// (including an explicit fifth `fsync` segment, which `id()` never
    /// emits).
    pub fn parse_id(id: &str) -> Option<Scenario> {
        let mut parts = id.split('/');
        let family = Family::parse(parts.next()?)?;
        let n = parts.next()?.strip_prefix('n')?.parse().ok()?;
        let seed = parts.next()?.strip_prefix('s')?.parse().ok()?;
        let controller = ControllerKind::parse(parts.next()?)?;
        let scheduler = match parts.next() {
            None => SchedulerKind::Fsync,
            Some(s) => match s.parse::<SchedulerKind>().ok()? {
                SchedulerKind::Fsync => return None,
                other => other,
            },
        };
        if parts.next().is_some() {
            return None;
        }
        let sc = Scenario { family, n, seed, controller, scheduler };
        (sc.id() == id).then_some(sc)
    }

    /// Digest of everything that pins this scenario's execution: the ID
    /// (family, size, seed, controller, scheduler), the actual swarm
    /// size the generator produced, and the round budget. Recorded in
    /// every trace header; replay refuses a trace whose digest no
    /// longer matches, which is how generator or budget drift is caught
    /// instead of being misreported as an algorithmic divergence.
    pub fn config_digest(&self) -> u64 {
        self.config_digest_with(self.points().len())
    }

    /// [`Scenario::config_digest`] for callers that already generated
    /// the swarm — the generator is deterministic but not free, and the
    /// record/replay paths always have the points in hand.
    pub fn config_digest_with(&self, n_actual: usize) -> u64 {
        let budget = self.budget(n_actual);
        gather_trace::digest_bytes(
            format!("{}|seed={}|n={}|budget={}", self.id(), self.seed, n_actual, budget).as_bytes(),
        )
    }

    /// The scenario's swarm (deterministic in family, n, seed).
    pub fn points(&self) -> Vec<Point> {
        gather_workloads::family(self.family, self.n, self.seed)
    }

    /// Round budget: the generous multiple of the theoretical O(n)
    /// bound the scaling experiments use, on the *actual* swarm size.
    /// Partial-activation schedulers stretch rounds by the activation
    /// rate, so budgets scale with the expected slowdown.
    pub fn budget(&self, points_len: usize) -> u64 {
        let base = gather_bench::budget_for(points_len);
        match self.scheduler {
            SchedulerKind::Fsync => base,
            // ~100/p rounds per FSYNC round's worth of activations.
            SchedulerKind::Ssync { p } => base.saturating_mul(100 / u64::from(p.clamp(1, 100)) + 1),
            // k-of-n needs ~n/k rounds per full pass.
            SchedulerKind::RoundRobin { k } => {
                base.saturating_mul((points_len as u64 / u64::from(k.max(1))).max(1) + 1)
            }
            // Survivors run at FSYNC rate; crashed robots cost nothing,
            // but a crashed obstacle can make gathering impossible, so
            // the base budget is also the cap on wasted work.
            SchedulerKind::Crash { .. } => base,
            // A look commits after ~s/2 rounds on average; budget for
            // the worst case of every look waiting the full staleness.
            SchedulerKind::Async { s } => base.saturating_mul(u64::from(s) + 1),
        }
    }

    /// Execute the scenario on one engine thread (campaigns parallelise
    /// across scenarios, not within them) and record the outcome.
    pub fn run(&self) -> ScenarioRecord {
        self.execute(None, false).record
    }

    /// [`Scenario::run`] with the campaign's two opt-in observers.
    ///
    /// With `trace_dir`, an engine scenario streams every round into
    /// `trace_dir/<trace_file_name(id)>` (the greedy strawman drives
    /// itself and has no rounds to record). With `perf`, the engine
    /// phase profiler is attached and the record carries its wall time
    /// and a [`PerfSummary`]. Observers only read the run, so the
    /// record's measured fields, and the trace bytes, are the same
    /// either way. With neither, no clock is read and nothing is
    /// attached.
    pub fn execute(&self, trace_dir: Option<&Path>, perf: bool) -> JobOutcome {
        let points = self.points();
        let mut run_spec = gather_bench::RunSpec::new(self.controller, &points)
            .scheduler(self.scheduler)
            .seed(self.seed)
            .budget(self.budget(points.len()));
        let traced = trace_dir.filter(|_| self.controller != ControllerKind::Greedy);
        let trace = match traced.map(|dir| TraceFile::create(self, &points, dir)).transpose() {
            Ok(trace) => trace,
            // Fail fast: see [`JobOutcome::error`].
            Err(e) => {
                return JobOutcome { error: Some(e.to_string()), ..JobOutcome::for_panic(self) }
            }
        };
        if let Some(trace) = &trace {
            run_spec = run_spec.observer(trace.observer());
        }
        let totals = perf.then(Rc::<RefCell<ProfileTotals>>::default);
        if let Some(totals) = &totals {
            let sink = totals.clone();
            run_spec = run_spec.profiler(Box::new(move |profile| sink.borrow_mut().add(profile)));
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "scenario wall time fills the profiled record's opt-in perf fields; results and traces never depend on it"
        )]
        let start = perf.then(Instant::now);
        let m = run_spec.run();
        let mut record = ScenarioRecord::from_measurement(self, &m);
        if let (Some(start), Some(totals)) = (start, totals) {
            record.secs = start.elapsed().as_secs_f64();
            let totals = totals.borrow();
            if totals.rounds > 0 {
                record.perf = Some(PerfSummary::from_totals(&totals));
            }
        }
        let finished = trace.map(TraceFile::finish).transpose();
        let error = finished.as_ref().err().map(ToString::to_string);
        JobOutcome { record, trace_path: finished.ok().flatten(), error }
    }
}

/// What one campaign job produced: the record, and where its trace went.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// The scenario record, the same with or without a trace.
    pub record: ScenarioRecord,
    /// Where the trace landed; `None` when none was asked for, and for
    /// the greedy baseline, which has no engine rounds to record.
    pub trace_path: Option<PathBuf>,
    /// A trace-file failure, if any. When set, `record` may be a
    /// placeholder rather than a real measurement (an uncreatable
    /// trace file fails fast *before* the scenario runs — executing a
    /// whole round budget for a campaign the caller is about to abort
    /// helps nobody), so callers must not persist `record` when
    /// `error` is set. The CLI aborts the recording instead.
    pub error: Option<String>,
}

impl JobOutcome {
    /// Outcome for a job whose controller panicked (no trace survives).
    pub fn for_panic(sc: &Scenario) -> Self {
        JobOutcome { record: ScenarioRecord::for_panic(sc), trace_path: None, error: None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_deterministic_and_ids_unique() {
        let spec = CampaignSpec::standard();
        let a = spec.expand();
        let b = spec.expand();
        assert_eq!(a, b);
        assert_eq!(a.len(), spec.len());
        assert!(a.len() >= 100, "standard sweep must cover >= 100 scenarios");
        let ids: std::collections::HashSet<String> = a.iter().map(Scenario::id).collect();
        assert_eq!(ids.len(), a.len(), "duplicate scenario IDs");
    }

    #[test]
    fn scheduler_axis_multiplies_the_matrix_except_greedy() {
        let mut spec = CampaignSpec::standard();
        spec.schedulers = vec![
            SchedulerKind::Fsync,
            SchedulerKind::Ssync { p: 50 },
            SchedulerKind::RoundRobin { k: 4 },
        ];
        // 48 cells × (2 engine controllers × 3 schedulers + greedy × 1):
        // greedy is its own sequential scheduler, so the axis must not
        // multiply it into identical re-runs under fabricated labels.
        let cells = 4 * 4 * 3;
        assert_eq!(spec.len(), cells * (2 * 3 + 1));
        let jobs = spec.expand();
        assert_eq!(jobs.len(), spec.len());
        let ids: std::collections::HashSet<String> = jobs.iter().map(Scenario::id).collect();
        assert_eq!(ids.len(), jobs.len(), "scheduler axis produced duplicate IDs");
        // Scheduler is the innermost axis: consecutive jobs share the
        // rest of the cell.
        assert_eq!(jobs[0].scheduler, SchedulerKind::Fsync);
        assert_eq!(jobs[1].scheduler, SchedulerKind::Ssync { p: 50 });
        assert_eq!(jobs[0].family, jobs[2].family);
        assert_eq!(jobs[0].controller, jobs[2].controller);
        // Every greedy job is pinned to the fsync label.
        for job in jobs.iter().filter(|j| j.controller == ControllerKind::Greedy) {
            assert_eq!(job.scheduler, SchedulerKind::Fsync, "{}", job.id());
        }
        assert_eq!(jobs.iter().filter(|j| j.controller == ControllerKind::Greedy).count(), cells);
    }

    #[test]
    fn shard_expansion_is_a_disjoint_exact_cover() {
        let spec = CampaignSpec::standard();
        let all = spec.expand();
        for count in [1u32, 2, 3, 4, 7] {
            let mut seen = std::collections::HashSet::new();
            let mut union = 0usize;
            for index in 0..count {
                let shard = spec.expand_shard(ShardSpec { index, count });
                union += shard.len();
                for sc in &shard {
                    assert!(seen.insert(sc.id()), "{count}: {} twice", sc.id());
                }
            }
            assert_eq!(union, all.len(), "{count}-way cover lost jobs");
        }
    }

    #[test]
    fn spec_digest_pins_jobs_and_their_order() {
        let spec = CampaignSpec::standard();
        assert_eq!(spec.spec_digest(), CampaignSpec::standard().spec_digest());
        let mut resized = CampaignSpec::standard();
        resized.sizes.push(256);
        assert_ne!(spec.spec_digest(), resized.spec_digest());
        // The name is not part of the expansion, so it does not shift
        // the digest — renaming a spec file keeps its shards mergeable.
        let mut renamed = CampaignSpec::standard();
        renamed.name = "other".into();
        assert_eq!(spec.spec_digest(), renamed.spec_digest());
        // Reordering an axis reorders the expansion: order-sensitive.
        let mut reordered = CampaignSpec::standard();
        reordered.sizes.reverse();
        assert_ne!(spec.spec_digest(), reordered.spec_digest());
        // ...but the order-free coverage digest is reorder-invariant.
        assert_eq!(spec.coverage_digest(), reordered.coverage_digest());
    }

    #[test]
    fn shard_coverage_digests_fold_to_the_spec_coverage() {
        let spec = CampaignSpec::standard();
        let mut folded = 0u64;
        let mut total = 0usize;
        for index in 0..4u32 {
            let ids: Vec<String> =
                spec.expand_shard(ShardSpec { index, count: 4 }).iter().map(Scenario::id).collect();
            total += ids.len();
            folded ^= coverage_xor(ids.iter().map(String::as_str));
        }
        assert_eq!(folded, spec.coverage_digest());
        assert_eq!(total, spec.len());
        assert_eq!(coverage_xor(std::iter::empty()), 0, "empty shard folds to zero");
    }

    #[test]
    fn validate_rejects_empty_axes() {
        assert!(CampaignSpec::standard().validate().is_ok());
        let mut spec = CampaignSpec::standard();
        spec.seeds.clear();
        assert!(spec.validate().is_err());
        let mut spec = CampaignSpec::standard();
        spec.sizes = vec![16, 0];
        assert!(spec.validate().is_err());
        let mut spec = CampaignSpec::standard();
        spec.schedulers.clear();
        assert!(spec.validate().is_err());
        let mut spec = CampaignSpec::standard();
        spec.schedulers = vec![SchedulerKind::Ssync { p: 0 }];
        assert!(spec.validate().is_err(), "out-of-range ssync probability must be rejected");
    }

    #[test]
    fn validate_rejects_repeated_axis_values() {
        // A repeated value expands to duplicate scenario IDs, which
        // cancel in the XOR coverage digests: a sharded sweep would run
        // to completion and then always fail its merge. Loud and early.
        let mut spec = CampaignSpec::standard();
        spec.seeds = vec![1, 2, 1];
        let err = spec.validate().unwrap_err();
        assert!(err.contains("seeds"), "{err}");
        let mut spec = CampaignSpec::standard();
        spec.sizes = vec![16, 16];
        assert!(spec.validate().is_err());
        let mut spec = CampaignSpec::standard();
        spec.families.push(spec.families[0]);
        assert!(spec.validate().is_err());
        let mut spec = CampaignSpec::standard();
        spec.schedulers = vec![SchedulerKind::Fsync, SchedulerKind::Fsync];
        assert!(spec.validate().is_err());
    }

    #[test]
    fn id_shape() {
        let sc = Scenario {
            family: Family::Line,
            n: 64,
            seed: 3,
            controller: ControllerKind::Paper,
            scheduler: SchedulerKind::Fsync,
        };
        // FSYNC keeps the legacy 4-part ID: pre-scheduler JSONL files
        // must resume without re-running anything.
        assert_eq!(sc.id(), "line/n64/s3/paper");
        let ssync = Scenario { scheduler: SchedulerKind::Ssync { p: 50 }, ..sc };
        assert_eq!(ssync.id(), "line/n64/s3/paper/ssync-p50");
        let rr = Scenario { scheduler: SchedulerKind::RoundRobin { k: 4 }, ..sc };
        assert_eq!(rr.id(), "line/n64/s3/paper/rr4");
    }

    #[test]
    fn ids_parse_back_to_their_scenarios() {
        let mut spec = CampaignSpec::standard();
        spec.schedulers = vec![
            SchedulerKind::Fsync,
            SchedulerKind::Ssync { p: 50 },
            SchedulerKind::RoundRobin { k: 4 },
            SchedulerKind::Crash { f: 2 },
            SchedulerKind::Async { s: 4 },
        ];
        for sc in spec.expand() {
            assert_eq!(Scenario::parse_id(&sc.id()), Some(sc), "{}", sc.id());
        }
        for bad in [
            "",
            "line",
            "line/n64",
            "line/n64/s3",
            "line/n64/s3/nope",
            "line/nx/s3/paper",
            "line/n64/sx/paper",
            "mystery/n64/s3/paper",
            "line/n64/s3/paper/fsync", // id() never emits a 5th fsync segment
            "line/n64/s3/paper/ssync-p0",
            "line/n64/s3/paper/rr4/extra",
            "line/n64/s3/paper/async-s0", // zero staleness is spelled fsync
        ] {
            assert_eq!(Scenario::parse_id(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn async_budget_scales_with_staleness() {
        let sc = Scenario {
            family: Family::Line,
            n: 64,
            seed: 3,
            controller: ControllerKind::Paper,
            scheduler: SchedulerKind::Fsync,
        };
        let base = sc.budget(64);
        // Worst case: every look waits the full staleness before its
        // move commits, so the budget stretches by (s + 1).
        let async4 = Scenario { scheduler: SchedulerKind::Async { s: 4 }, ..sc };
        assert_eq!(async4.budget(64), base * 5);
        assert_eq!(async4.id(), "line/n64/s3/paper/async-s4");
    }

    #[test]
    fn config_digest_pins_the_scenario() {
        let sc = Scenario {
            family: Family::Line,
            n: 24,
            seed: 1,
            controller: ControllerKind::Paper,
            scheduler: SchedulerKind::Fsync,
        };
        assert_eq!(sc.config_digest(), sc.config_digest());
        let other = Scenario { seed: 2, ..sc };
        assert_ne!(sc.config_digest(), other.config_digest());
        let other = Scenario { scheduler: SchedulerKind::Ssync { p: 50 }, ..sc };
        assert_ne!(sc.config_digest(), other.config_digest());
    }

    #[test]
    fn scenario_runs_end_to_end() {
        let sc = Scenario {
            family: Family::Line,
            n: 24,
            seed: 1,
            controller: ControllerKind::Paper,
            scheduler: SchedulerKind::Fsync,
        };
        let rec = sc.run();
        assert!(rec.gathered && !rec.panicked);
        assert_eq!(rec.n, 24);
        assert!(rec.rounds <= 24);
        assert_eq!(rec.scheduler, "fsync");
    }

    #[test]
    fn ssync_scenario_runs_end_to_end() {
        let sc = Scenario {
            family: Family::Line,
            n: 16,
            seed: 1,
            controller: ControllerKind::Paper,
            scheduler: SchedulerKind::Ssync { p: 50 },
        };
        let rec = sc.run();
        assert!(!rec.panicked);
        assert_eq!(rec.scheduler, "ssync-p50");
        assert!(rec.activations > 0);
    }
}
