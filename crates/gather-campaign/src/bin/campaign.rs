//! The campaign CLI: `run`, `resume`, `record`, `replay`, `diff`,
//! `render`, `smoke`, `summarize` and `events` subcommands over the
//! gather-campaign library. See `--help` for flags.

use std::fs::File;
use std::io::BufReader;
use std::ops::ControlFlow;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use gather_campaign::cli::{self, Command, RenderArgs, RunArgs, USAGE};
use gather_campaign::executor::JobEvent;
use gather_campaign::{
    executor, load_completed, load_records, manifest_path, merge_shards, plan_lines,
    provenance_table, run_smoke, summarize, summarize_perf, trace_ops, DiffStatus, JobOutcome,
    JsonlSink, ProgressReporter, ReplayStatus, Scenario, ShardManifest, SmokeArgs,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match cli::parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command {
        Command::Help => {
            print!("{USAGE}");
            Ok(())
        }
        Command::Run(run) => execute(run, false),
        Command::Resume(run) => execute(run, true),
        Command::Merge { inputs, out, out_explicit } => merge_files(&inputs, &out, out_explicit),
        Command::Plan { run, shards } => plan(&run, shards),
        Command::Replay { trace_dir } => replay_dir(&trace_dir),
        Command::Diff { a, b } => diff_dirs(&a, &b),
        Command::Render(args) => render_trace(&args),
        Command::Smoke(args) => smoke(&args),
        Command::Summarize { input, perf } => summarize_file(&input, perf),
        Command::EventsTail { file, follow: false } => events_tail(&file),
        Command::EventsTail { file, follow: true } => events_follow(&file),
        Command::Serve(args) => gather_campaign::serve(&args),
        Command::Submit(args) => gather_campaign::submit(&args).map(|_| ()),
        Command::Work(args) => gather_campaign::work(&args).map(|report| {
            eprintln!(
                "worker done: {} lease(s), {} scenario(s) executed, {} panicked",
                report.leases, report.executed, report.panicked,
            );
        }),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `run`, `resume` and `record`: execute the spec's pending scenarios,
/// streaming records to `--out`. A recording (`trace_dir` set) also
/// leaves one `.gtrc` per engine scenario in a cleaned trace directory;
/// a trace-file write failure aborts it (a recording campaign whose
/// traces are silently incomplete is worse than a dead one).
fn execute(args: RunArgs, resume: bool) -> Result<(), String> {
    let RunArgs { spec, threads, out, shard, events, quiet, perf, trace_dir } = args;
    let completed = if resume {
        load_completed(&out).map_err(|e| format!("reading {}: {e}", out.display()))?
    } else {
        Default::default()
    };
    let manifest = ShardManifest::for_shard(&spec, shard);
    // A resume must be continuing the *same* slice of the *same* spec:
    // appending another slice's records to this file would poison the
    // manifest proof that merge relies on.
    if resume {
        if let Some(prev) = ShardManifest::read(&manifest_path(&out))? {
            if let Some(field) = prev.mismatch_against(&manifest) {
                return Err(format!(
                    "{} was written for a different campaign ({field} differs) — resume it with \
                     the spec and shard it was started with",
                    out.display(),
                ));
            }
            if prev.shard() != shard || prev.shard_coverage != manifest.shard_coverage {
                return Err(format!(
                    "{} holds shard {} but this invocation asks for shard {shard}",
                    out.display(),
                    prev.shard(),
                ));
            }
        }
    }
    // The trace set carries its own manifest (inside the directory,
    // over the traced — non-greedy — scenarios), so sharded trace
    // directories merge under the same coverage proof as result files.
    let traced_manifest = match &trace_dir {
        Some(dir) => {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
            let swept = trace_ops::clean_trace_dir(dir)
                .map_err(|e| format!("cleaning {}: {e}", dir.display()))?;
            if swept > 0 {
                eprintln!("removed {swept} trace file(s) left by an earlier recording");
            }
            Some(ShardManifest::for_traced_shard(&spec, shard))
        }
        None => None,
    };
    let pending = executor::select_pending(&spec.expand(), shard, &completed);
    // The manifest already counted this shard's scenarios from the same
    // ownership predicate — no second pass over the expansion.
    let skipped = manifest.shard_len - pending.len();

    // The result file's sidecar and, for a recording, the trace set's
    // manifest: written first with the completion markers off, so a
    // crash mid-run leaves sidecars that say so and merge refuses the
    // files, and again with them on once every scenario is on disk.
    let write_manifests = |complete: bool| -> Result<(), String> {
        ShardManifest { complete, ..manifest.clone() }.write(&manifest_path(&out))?;
        if let (Some(dir), Some(traced)) = (&trace_dir, &traced_manifest) {
            let traced = ShardManifest { complete, ..traced.clone() };
            traced.write(&trace_ops::trace_manifest_path(dir))?;
        }
        Ok(())
    };
    let mut sink = if resume { JsonlSink::append(&out) } else { JsonlSink::create(&out) }
        .map_err(|e| format!("opening {}: {e}", out.display()))?;
    write_manifests(false)?;

    let shard_label = if shard.is_full() { String::new() } else { format!(" shard {shard}") };
    eprintln!(
        "campaign `{}`{shard_label}: {} scenarios ({} already done), {} threads -> {}{}",
        spec.name,
        manifest.shard_len,
        skipped,
        if threads == 0 { "all".to_string() } else { threads.to_string() },
        out.display(),
        trace_dir.as_ref().map(|d| format!(" + {}/", d.display())).unwrap_or_default(),
    );

    #[expect(clippy::disallowed_methods, reason = "the closing summary line reports wall time")]
    let start = Instant::now();
    // The reporter owns both progress surfaces — stderr lines and the
    // optional `--events` NDJSON stream — so they can never disagree.
    // On resume the event file is appended as a new segment.
    let mut reporter =
        ProgressReporter::start(&spec.name, pending.len(), events.as_deref(), resume, quiet)
            .map_err(|e| format!("opening event stream: {e}"))?;
    let mut failure: Option<String> = None;
    let mut traced = 0usize;
    // A failed result, trace or event write aborts the whole campaign
    // (ControlFlow::Break): results that cannot be persisted are not
    // worth computing, and the result file on disk is a valid
    // checkpoint for `resume`. The aborted event stream correctly reads
    // as incomplete (no `job_finished`).
    executor::execute_jobs_observed(
        &pending,
        threads,
        |sc: &Scenario| sc.execute(trace_dir.as_deref(), perf),
        |sc, secs| {
            let mut outcome = JobOutcome::for_panic(sc);
            if perf {
                outcome.record.secs = secs;
            }
            outcome
        },
        |event| match event {
            JobEvent::Started(i) => {
                if let Err(e) = reporter.scenario_started(&pending[i].id()) {
                    failure = Some(format!("writing event stream: {e}"));
                    return ControlFlow::Break(());
                }
                ControlFlow::Continue(())
            }
            JobEvent::Finished(_i, outcome, secs) => {
                if let Some(e) = outcome.error {
                    failure = Some(format!("recording {}: {e}", outcome.record.id));
                    return ControlFlow::Break(());
                }
                if let Err(e) = sink.write(&outcome.record) {
                    failure = Some(format!("writing {}: {e}", out.display()));
                    return ControlFlow::Break(());
                }
                traced += usize::from(outcome.trace_path.is_some());
                if let Err(e) = reporter.scenario_finished(&outcome.record, secs) {
                    failure = Some(format!("writing event stream: {e}"));
                    return ControlFlow::Break(());
                }
                ControlFlow::Continue(())
            }
        },
    );
    if let Some(e) = failure {
        // `resume` rejects --trace-dir, so only a plain run can resume.
        return Err(if trace_dir.is_some() {
            format!("{e} (recording aborted)")
        } else {
            format!("{e} (campaign aborted; completed scenarios are resumable)")
        });
    }
    reporter.finish().map_err(|e| format!("writing event stream: {e}"))?;
    write_manifests(true)?;
    eprintln!(
        "campaign `{}`{shard_label} complete: {} run, {} skipped, {} panicked{} in {:.1?}",
        spec.name,
        reporter.done(),
        skipped,
        reporter.panicked(),
        if trace_dir.is_some() { format!(", {traced} traced") } else { String::new() },
        start.elapsed(),
    );
    Ok(())
}

/// `merge`: verify N shard outputs cover their spec exactly once, then
/// emit one merged JSONL (resumed duplicates dropped, last record wins)
/// and print the per-shard provenance table. When the inputs are trace
/// directories, the same proof runs over the traced scenarios and the
/// `.gtrc` files are byte-copied into the output directory instead.
fn merge_files(
    inputs: &[std::path::PathBuf],
    out: &Path,
    out_explicit: bool,
) -> Result<(), String> {
    let dirs = inputs.iter().filter(|p| p.is_dir()).count();
    if dirs > 0 && dirs < inputs.len() {
        return Err(
            "merge inputs mix result files and trace directories — merge them separately".into()
        );
    }
    if dirs == inputs.len() {
        if !out_explicit {
            return Err(
                "merging trace directories needs an explicit --out DIR for the merged trace set"
                    .into(),
            );
        }
        let report = gather_campaign::merge_trace_dirs(inputs, out)?;
        println!("{}", gather_analysis::render_markdown(&provenance_table(&report)));
        eprintln!(
            "merge ok: {} trace(s) from {} shard(s) -> {}/",
            report.total,
            report.shards.len(),
            out.display(),
        );
        return Ok(());
    }
    let report = merge_shards(inputs, out)?;
    println!("{}", gather_analysis::render_markdown(&provenance_table(&report)));
    eprintln!(
        "merge ok: {} scenarios from {} shard(s) -> {} ({} resumed duplicate(s) dropped)",
        report.total,
        report.shards.len(),
        out.display(),
        report.duplicates,
    );
    Ok(())
}

/// `plan`: print the per-shard command lines (and the final merge) that
/// execute the spec as `shards` slices.
fn plan(run: &RunArgs, shards: u32) -> Result<(), String> {
    eprintln!("campaign `{}`: {} scenarios as {shards} shard(s)", run.spec.name, run.spec.len());
    for line in plan_lines(&run.spec, shards, &run.out, run.threads) {
        println!("{line}");
    }
    Ok(())
}

/// `replay`: re-execute every trace in `dir` and verify bit-exactness.
fn replay_dir(dir: &Path) -> Result<(), String> {
    let files =
        trace_ops::list_trace_files(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    if files.is_empty() {
        return Err(format!("no .gtrc traces in {}", dir.display()));
    }
    let mut failures = 0usize;
    for file in &files {
        let report = trace_ops::replay_trace(file);
        let name = file.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
        match report.status {
            ReplayStatus::Match { rounds } => {
                eprintln!("{name}: ok ({rounds} rounds bit-identical)");
            }
            ReplayStatus::Diverged(d) => {
                failures += 1;
                let robot = d.robot.map(|r| format!(", robot {r}")).unwrap_or_default();
                eprintln!("{name}: DIVERGED at round {}{robot}: {}", d.round, d.detail);
            }
            ReplayStatus::Error(e) => {
                failures += 1;
                eprintln!("{name}: ERROR: {e}");
            }
        }
    }
    if failures > 0 {
        return Err(format!("{failures} of {} traces diverged or failed", files.len()));
    }
    eprintln!("replay ok: {} traces, zero divergent rounds", files.len());
    Ok(())
}

/// `diff`: compare two trace sets scenario by scenario.
fn diff_dirs(a: &Path, b: &Path) -> Result<(), String> {
    let reports = trace_ops::diff_trace_dirs(a, b).map_err(|e| format!("diffing: {e}"))?;
    if reports.is_empty() {
        return Err(format!("no .gtrc traces in {} or {}", a.display(), b.display()));
    }
    let mut drift = 0usize;
    for report in &reports {
        match &report.status {
            DiffStatus::Identical { rounds } => {
                eprintln!("{}: identical ({rounds} rounds)", report.name);
            }
            DiffStatus::Diverged(d) => {
                drift += 1;
                let robot = d.robot.map(|r| format!(", robot {r}")).unwrap_or_default();
                eprintln!("{}: DIVERGED at round {}{robot}: {}", report.name, d.round, d.detail);
            }
            DiffStatus::HeaderMismatch(why) => {
                drift += 1;
                eprintln!("{}: HEADER MISMATCH: {why}", report.name);
            }
            DiffStatus::OnlyInFirst => {
                drift += 1;
                eprintln!("{}: only in {}", report.name, a.display());
            }
            DiffStatus::OnlyInSecond => {
                drift += 1;
                eprintln!("{}: only in {}", report.name, b.display());
            }
            DiffStatus::Error(e) => {
                drift += 1;
                eprintln!("{}: ERROR: {e}", report.name);
            }
        }
    }
    if drift > 0 {
        return Err(format!("{drift} of {} scenarios drifted", reports.len()));
    }
    eprintln!("diff ok: {} scenarios, zero drift", reports.len());
    Ok(())
}

/// `render`: replay a `.gtrc` (digest-verified) into the ASCII movie,
/// optionally also an SVG frame strip.
fn render_trace(args: &RenderArgs) -> Result<(), String> {
    let file =
        File::open(&args.trace).map_err(|e| format!("opening {}: {e}", args.trace.display()))?;
    let mut reader = gather_trace::TraceReader::new(BufReader::new(file))
        .map_err(|e| format!("{}: {e}", args.trace.display()))?;
    let id = reader.header().scenario_id.clone();
    let initial = reader.header().initial.clone();
    let rounds = gather_trace::read_all_rounds(&mut reader)
        .map_err(|e| format!("{}: {e}", args.trace.display()))?;
    // Auto cadence: ~24 frames over the whole run.
    let every = args.every.unwrap_or_else(|| (rounds.len() as u64 / 24).max(1));
    let trace = gather_viz::Trace::from_rounds(&initial, &rounds, every)
        .map_err(|e| format!("replaying {}: {e}", args.trace.display()))?;
    eprintln!(
        "{}: {} robots, {} rounds, frame every {every} round(s)",
        id,
        initial.len(),
        rounds.len()
    );
    // The ASCII movie is O(bounding-box area) per frame; a sparse
    // clusters trace spans billions of cells, and printing it would be
    // a memory bomb — the exact failure mode the tiled index removed
    // from the engine. Refuse the movie (the SVG strip is O(robots)
    // per frame and still written) rather than allocating it.
    const ASCII_CELL_LIMIT: u128 = 1 << 24;
    let bounds =
        grid_engine::Bounds::of(trace.frames.iter().flat_map(|f| f.points.iter().copied()))
            .expect("traces hold at least the initial frame");
    let frame_cells = bounds.width() as u128 * bounds.height() as u128;
    if frame_cells <= ASCII_CELL_LIMIT {
        print!("{}", trace.render());
    } else if args.svg.is_none() {
        return Err(format!(
            "frames span {frame_cells} cells — too large for an ASCII movie (limit \
             {ASCII_CELL_LIMIT}); pass --svg PATH for the O(robots) frame strip instead"
        ));
    } else {
        eprintln!("frames span {frame_cells} cells: skipping the ASCII movie, writing SVG only");
    }
    if let Some(svg) = &args.svg {
        std::fs::write(svg, trace.render_svg_strip(args.cell))
            .map_err(|e| format!("writing {}: {e}", svg.display()))?;
        eprintln!("wrote {} ({} frames)", svg.display(), trace.frames.len());
    }
    Ok(())
}

/// `smoke`: the large-n record/replay/diff determinism check.
fn smoke(args: &SmokeArgs) -> Result<(), String> {
    eprintln!(
        "smoke: {} n={} rounds={} threads {} vs {} -> {}/",
        args.family.name(),
        args.n,
        args.rounds,
        args.threads_a,
        args.threads_b,
        args.dir.display(),
    );
    let report = run_smoke(args)?;
    eprintln!(
        "smoke ok: {} robots x {} rounds replayed digest-clean, traces byte-identical \
         across thread counts ({} occupied tiles over a {}-cell bounding box, \
         {:.3e} activations/s of round time, {} robots computed at both thread counts)",
        report.robots,
        report.rounds,
        report.occupied_tiles,
        report.bounding_cells,
        report.activations_per_s,
        report.computed,
    );
    Ok(())
}

fn summarize_file(input: &Path, perf: bool) -> Result<(), String> {
    let (records, skipped) =
        load_records(input).map_err(|e| format!("reading {}: {e}", input.display()))?;
    if records.is_empty() {
        return Err(format!("no records in {}", input.display()));
    }
    if skipped > 0 {
        eprintln!("warning: skipped {skipped} malformed line(s)");
    }
    let tables = if perf { summarize_perf(&records)? } else { summarize(&records) };
    for table in tables {
        println!("{}", gather_analysis::render_markdown(&table));
    }
    Ok(())
}

/// `events tail`: one-line status of an event stream, exit non-zero if
/// the file is torn mid-event or the job never finished — the check CI
/// runs against a `--events` campaign.
fn events_tail(file: &Path) -> Result<(), String> {
    // Every error `read_events` returns already names the file.
    let stream = gather_obs::read_events(file)?;
    if stream.skipped > 0 {
        eprintln!("warning: skipped {} unparseable line(s)", stream.skipped);
    }
    let summary = gather_obs::validate(&stream.events)?;
    let state = if summary.complete {
        match summary.secs {
            Some(secs) => format!("complete in {secs:.1}s"),
            None => "complete".to_string(),
        }
    } else {
        match summary.eta_secs {
            Some(eta) => format!("running, eta {eta:.0}s"),
            None => "running".to_string(),
        }
    };
    println!(
        "job '{}': {}/{} done, {} panicked, {state}",
        summary.job, summary.done, summary.total, summary.panicked,
    );
    if stream.torn {
        return Err(format!("{} ends in a torn line", file.display()));
    }
    if !summary.complete {
        return Err("stream has no job_finished — the campaign is still running or died".into());
    }
    Ok(())
}

/// `events tail --follow`: poll the file for appended lines, narrate
/// scenario completions, and exit 0 with a summary once `job_finished`
/// lands. Starting before the file exists is fine.
fn events_follow(file: &Path) -> Result<(), String> {
    let mut reader = gather_obs::FollowReader::new(file);
    let mut events: Vec<gather_obs::Event> = Vec::new();
    loop {
        let fresh = reader.poll()?;
        let mut finished = false;
        for event in &fresh {
            match event {
                gather_obs::Event::JobStarted { job, total } => {
                    eprintln!("following job '{job}': {total} scenario(s)");
                }
                gather_obs::Event::ScenarioFinished { id, status, rounds, .. } => {
                    eprintln!("  {id} {} rounds={rounds}", status.as_str().to_uppercase());
                }
                gather_obs::Event::JobFinished { .. } => finished = true,
                _ => {}
            }
        }
        events.extend(fresh);
        if finished {
            if reader.skipped() > 0 {
                eprintln!("warning: skipped {} unparseable line(s)", reader.skipped());
            }
            let summary = gather_obs::validate(&events)?;
            println!(
                "job '{}': {}/{} done, {} panicked, complete in {:.1}s",
                summary.job,
                summary.done,
                summary.total,
                summary.panicked,
                summary.secs.unwrap_or(0.0),
            );
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(200));
    }
}
