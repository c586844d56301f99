//! `campaign serve` / `submit` / `work`: the resident campaign service.
//!
//! The mechanism — job queue, lease table, content-addressed result
//! cache, line-framed socket — lives in `gather-serve`; this module is
//! the policy layer that ties it to spec expansion and scenario
//! execution:
//!
//! * [`serve`] — bind a Unix socket, accept submitters and workers,
//!   lease scenario ranges out by pull, fold results (first write
//!   wins), and finalize each job into a merged, ID-sorted JSONL file
//!   plus a complete shard manifest once the coverage-digest proof
//!   passes.
//! * [`work`] — connect to a service, pull leases, run the scenarios
//!   through the campaign executor, and stream records back. A worker
//!   can be killed at any point: its leases expire on the server and
//!   are re-issued, so no job is ever lost.
//! * [`submit`] — send a spec, mirror the progress event stream (the
//!   exact `gather-obs` v1 vocabulary a `--events` file carries), and
//!   validate the whole submission conversation before reporting.
//!
//! Everything on the wire is flat NDJSON ([`gather_obs::proto`]).
//! Record lines are re-serialized canonically on ingest, so the merged
//! output is byte-identical to an unsharded `campaign run` of the same
//! spec, and a cache hit replays the exact bytes a fresh execution
//! would produce.
//!
//! This module never reads a clock directly: the server's single time
//! source is [`gather_serve::ServiceClock`], whose one sanctioned clock
//! read carries an `#[expect]`. It passes into the pure lease/queue
//! logic as plain milliseconds, and worker-side durations come from the
//! executor.

use std::collections::{BTreeMap, VecDeque};
use std::fs::File;
use std::io::{ErrorKind, Write};
use std::ops::ControlFlow;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::Duration;

use gather_obs::{Event, Frame, Message};
use gather_serve::{CacheKey, Conn, JobQueue, LeaseTable, ResultCache, ServiceClock};

use crate::cli::{spec_from_fields, spec_to_fields, ServeArgs, SubmitArgs, WorkArgs};
use crate::executor::{execute_jobs_observed, JobEvent};
use crate::progress::finished_event;
use crate::record::ScenarioRecord;
use crate::shard::{ShardManifest, ShardSpec};
use crate::sink::write_merged;
use crate::spec::{coverage_xor, Scenario};

/// How long the accept loop sleeps between polls, and how long a
/// client waits between connection attempts while the socket is not
/// up yet.
const POLL_MS: u64 = 25;

/// How long a client keeps retrying a connection before giving up —
/// generous enough to start `serve` and its clients concurrently.
const CONNECT_WINDOW_MS: u64 = 10_000;

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// Progress lines buffered for one submitter connection. Events and
/// control messages are serialized at the point they happen (under the
/// state lock, so their order is the order things actually occurred
/// in) and drained to the socket by the submitter's own thread.
struct Feed {
    lines: VecDeque<String>,
    /// Set when `job_done` has been pushed; the feed drains and closes.
    done: bool,
}

struct ServerState {
    queue: JobQueue,
    leases: LeaseTable,
    /// Job id -> event feed of the submitter waiting on that job. A
    /// vanished submitter drops its feed; the job still runs to
    /// completion and its output is still written.
    feeds: BTreeMap<u64, Feed>,
    finalized: usize,
    /// Set once `--jobs N` jobs have been finalized: new submissions
    /// are refused, workers are told to exit, and the accept loop
    /// returns once the last feed drains.
    draining: bool,
}

struct Shared {
    state: Mutex<ServerState>,
    wake: Condvar,
    clock: ServiceClock,
    cache: ResultCache,
    lease_ttl_ms: u64,
    max_jobs: Option<usize>,
    quiet: bool,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, ServerState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Push a line onto a job's feed, if its submitter is still listening.
fn push_feed(state: &mut ServerState, job: u64, line: String) {
    if let Some(feed) = state.feeds.get_mut(&job) {
        feed.lines.push_back(line);
    }
}

/// Run the campaign service until it drains (`--jobs N`) or forever.
pub fn serve(args: &ServeArgs) -> Result<(), String> {
    if args.socket.exists() {
        std::fs::remove_file(&args.socket)
            .map_err(|e| format!("removing stale socket {}: {e}", args.socket.display()))?;
    }
    let listener = UnixListener::bind(&args.socket)
        .map_err(|e| format!("binding {}: {e}", args.socket.display()))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("configuring {}: {e}", args.socket.display()))?;
    let cache = ResultCache::open(&args.cache)
        .map_err(|e| format!("opening cache {}: {e}", args.cache.display()))?;
    if !args.quiet {
        eprintln!(
            "campaign service on {}: cache {} ({} entries), lease ttl {}ms{}",
            args.socket.display(),
            cache.dir().display(),
            cache.len(),
            args.lease_ttl_ms,
            match args.jobs {
                Some(n) => format!(", draining after {n} job(s)"),
                None => String::new(),
            },
        );
    }
    let shared = Arc::new(Shared {
        state: Mutex::new(ServerState {
            queue: JobQueue::new(),
            leases: LeaseTable::new(),
            feeds: BTreeMap::new(),
            finalized: 0,
            draining: false,
        }),
        wake: Condvar::new(),
        clock: ServiceClock::new(),
        cache,
        lease_ttl_ms: args.lease_ttl_ms,
        max_jobs: args.jobs,
        quiet: args.quiet,
    });
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(&shared);
                // Connection threads exit on peer EOF; workers see the
                // drained grant and hang up, so none of them outlives
                // the accept loop for long and joining is unnecessary.
                thread::spawn(move || handle_conn(&shared, stream));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                {
                    let state = shared.lock();
                    if state.draining && state.feeds.is_empty() {
                        break;
                    }
                }
                thread::sleep(Duration::from_millis(POLL_MS));
            }
            Err(e) => {
                let _ = std::fs::remove_file(&args.socket);
                return Err(format!("accept on {}: {e}", args.socket.display()));
            }
        }
    }
    let _ = std::fs::remove_file(&args.socket);
    if !args.quiet {
        let finalized = shared.lock().finalized;
        eprintln!("campaign service drained: {finalized} job(s) finalized");
    }
    Ok(())
}

/// A connection declares its role with its first message: `submit_job`
/// or `lease_request`. Anything else is dropped with a note.
fn handle_conn(shared: &Shared, stream: UnixStream) {
    let result = (|| -> Result<(), String> {
        let mut conn = Conn::from_stream(stream).map_err(|e| format!("accepting: {e}"))?;
        let Some(first) = conn.recv_line().map_err(|e| format!("reading greeting: {e}"))? else {
            return Ok(());
        };
        match Message::from_json_line(&first)? {
            Message::SubmitJob { out, spec, .. } => handle_submitter(shared, conn, &out, &spec),
            Message::LeaseRequest { worker, capacity } => {
                let result = worker_session(shared, &mut conn, &worker, capacity);
                // Whatever ended the session, the worker's outstanding
                // leases go back in the queue immediately — faster than
                // waiting out their TTL.
                let mut state = shared.lock();
                for lease in state.leases.release_worker(&worker) {
                    state.queue.requeue(lease.job, &lease.indexes);
                }
                shared.wake.notify_all();
                result
            }
            other => Err(format!("connection opened with unexpected {}", other.kind())),
        }
    })();
    if let Err(e) = result {
        eprintln!("serve: connection error: {e}");
    }
}

/// Accept a submission, settle cache hits, then stream the job's event
/// feed to the submitter until `job_done`.
fn handle_submitter(
    shared: &Shared,
    mut conn: Conn,
    out: &str,
    spec_fields: &BTreeMap<String, String>,
) -> Result<(), String> {
    // The protocol has no error-reply kind: a rejected submission just
    // closes the connection, and the submitter reports the EOF. The
    // reason lands on the service's stderr.
    let spec = spec_from_fields(spec_fields)?;
    let scenarios = spec.expand();
    let ids: Vec<String> = scenarios.iter().map(Scenario::id).collect();
    let keys: Vec<CacheKey> = scenarios
        .iter()
        .zip(&ids)
        .map(|(sc, id)| CacheKey {
            scenario_id: id.clone(),
            config_digest: sc.config_digest(),
            engine_version: grid_engine::ENGINE_VERSION.to_string(),
        })
        .collect();
    let total = ids.len();
    let job_id;
    {
        let mut state = shared.lock();
        if state.draining {
            return Err(format!("job `{}` refused: service is draining", spec.name));
        }
        let now = shared.clock.now_ms();
        job_id = state.queue.submit(
            spec.name.clone(),
            spec_fields.clone(),
            PathBuf::from(out),
            ids.clone(),
            keys.clone(),
            now,
        );
        // Settle the cache before anything is leasable: a hit replays
        // the exact canonical line a fresh run would produce, so it is
        // recorded as a result directly and never reaches a worker.
        let mut cached: Vec<(usize, ScenarioRecord)> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            let Some(line) = shared.cache.lookup(key) else { continue };
            match ScenarioRecord::from_json_line(&line) {
                Ok(rec) if rec.id == ids[i] => cached.push((i, rec)),
                // A corrupt or misfiled entry reads as a miss; the
                // fresh result will overwrite it on ingest.
                _ => eprintln!("serve: ignoring corrupt cache entry for {}", ids[i]),
            }
        }
        let mut feed = Feed { lines: VecDeque::new(), done: false };
        feed.lines.push_back(
            Message::JobAccepted { job: job_id, total, cached: cached.len() }.to_json_line(),
        );
        feed.lines.push_back(Event::JobStarted { job: spec.name.clone(), total }.to_json_line());
        let hits = cached.len();
        for (i, rec) in cached {
            let accepted = state.queue.record_result(job_id, i, rec.to_json_line());
            debug_assert!(accepted, "cache settlement races nothing");
            let job = state.queue.get_mut(job_id).expect("job just submitted");
            job.cached += 1;
            if rec.panicked {
                job.panicked += 1;
            }
            job.announced.insert(i);
            feed.lines.push_back(Event::ScenarioStarted { id: rec.id.clone() }.to_json_line());
            feed.lines.push_back(finished_event(&rec, 0.0).to_json_line());
        }
        if hits > 0 {
            feed.lines
                .push_back(Event::Heartbeat { done: hits, total, eta_secs: 0.0 }.to_json_line());
        }
        state.feeds.insert(job_id, feed);
        if !shared.quiet {
            eprintln!(
                "serve: job {job_id} `{}` accepted: {total} scenario(s), {hits} cached -> {out}",
                spec.name,
            );
        }
        if state.queue.get(job_id).is_some_and(gather_serve::Job::is_complete) {
            finalize_job(shared, &mut state, job_id);
        }
        shared.wake.notify_all();
    }
    // Drain the feed until job_done. A submitter that hangs up early
    // only loses its progress mirror — the job itself keeps running.
    let result = (|| -> Result<(), String> {
        loop {
            let (lines, done) = {
                let mut state = shared.lock();
                loop {
                    let Some(feed) = state.feeds.get(&job_id) else {
                        return Ok(()); // unreachable: only this thread removes it
                    };
                    if !feed.lines.is_empty() || feed.done {
                        break;
                    }
                    state = shared.wake.wait(state).unwrap_or_else(|e| e.into_inner());
                }
                let feed = state.feeds.get_mut(&job_id).expect("checked above");
                let lines: Vec<String> = feed.lines.drain(..).collect();
                (lines, feed.done)
            };
            for line in &lines {
                conn.send_line(line).map_err(|e| format!("streaming to submitter: {e}"))?;
            }
            if done {
                return Ok(());
            }
        }
    })();
    let mut state = shared.lock();
    state.feeds.remove(&job_id);
    result
}

/// Serve one worker connection: answer `lease_request`s with grants,
/// ingest `result_batch`es, until the peer hangs up.
fn worker_session(
    shared: &Shared,
    conn: &mut Conn,
    worker: &str,
    first_capacity: usize,
) -> Result<(), String> {
    let mut pending_request = Some(first_capacity);
    loop {
        if let Some(capacity) = pending_request.take() {
            let reply = grant_lease(shared, worker, capacity);
            conn.send_line(&reply.to_json_line())
                .map_err(|e| format!("sending grant to {worker}: {e}"))?;
        }
        let Some(line) = conn.recv_line().map_err(|e| format!("reading from {worker}: {e}"))?
        else {
            return Ok(()); // worker hung up (or was killed)
        };
        match Message::from_json_line(&line)? {
            Message::LeaseRequest { capacity, .. } => pending_request = Some(capacity),
            Message::ResultBatch { job, lease, index, record, secs } => {
                ingest_result(shared, job, lease, index, &record, secs);
            }
            other => return Err(format!("unexpected {} from worker {worker}", other.kind())),
        }
    }
}

/// Expire overdue leases, then grant the oldest pending work (or an
/// empty / drained marker).
fn grant_lease(shared: &Shared, worker: &str, capacity: usize) -> Message {
    let empty = |drained: bool| Message::LeaseGranted {
        job: 0,
        lease: 0,
        indexes: Vec::new(),
        expires_in_ms: 0,
        drained,
        spec: BTreeMap::new(),
    };
    let mut state = shared.lock();
    let now = shared.clock.now_ms();
    // Expiry is lazy: it runs on every lease request, which is exactly
    // when a re-issued range could actually go somewhere.
    for lease in state.leases.expire(now) {
        state.queue.requeue(lease.job, &lease.indexes);
        if !shared.quiet {
            eprintln!(
                "serve: lease {} ({}, {} scenario(s)) expired — re-queued",
                lease.id,
                lease.worker,
                lease.indexes.len(),
            );
        }
    }
    if state.draining {
        return empty(true);
    }
    let Some((job_id, indexes)) = state.queue.grant(capacity) else {
        return empty(false);
    };
    let lease = state.leases.issue(job_id, worker, indexes.clone(), now, shared.lease_ttl_ms);
    let job = state.queue.get_mut(job_id).expect("granted from a live job");
    let spec = job.spec.clone();
    // Announce each scenario the first time it is handed out. A
    // re-issued index was already announced — the stream contract is
    // at most one `scenario_started` per scenario.
    let mut started = Vec::new();
    for &i in &indexes {
        if job.announced.insert(i) {
            started.push(Event::ScenarioStarted { id: job.scenario_ids[i].clone() }.to_json_line());
        }
    }
    for line in started {
        push_feed(&mut state, job_id, line);
    }
    shared.wake.notify_all();
    Message::LeaseGranted {
        job: job_id,
        lease,
        indexes,
        expires_in_ms: shared.lease_ttl_ms,
        drained: false,
        spec,
    }
}

/// Fold one worker result into its job. Stale leases are fine (the
/// record is deterministic, first write wins); malformed or mismatched
/// records are dropped with a note rather than poisoning the job.
fn ingest_result(shared: &Shared, job_id: u64, lease: u64, index: usize, record: &str, secs: f64) {
    let mut state = shared.lock();
    let _ = state.leases.complete(lease, index);
    let Some(job) = state.queue.get(job_id) else {
        return; // job already finalized (result from a re-issued twin)
    };
    if index >= job.total() {
        eprintln!("serve: dropping result with out-of-range index {index} for job {job_id}");
        return;
    }
    let rec = match ScenarioRecord::from_json_line(record) {
        Ok(rec) => rec,
        Err(e) => {
            eprintln!("serve: dropping unparseable record for job {job_id}[{index}]: {e}");
            return;
        }
    };
    if rec.id != job.scenario_ids[index] {
        eprintln!(
            "serve: dropping record for job {job_id}[{index}]: id {} does not match {}",
            rec.id, job.scenario_ids[index],
        );
        return;
    }
    // Store and emit the *canonical* serialization, not the wire bytes:
    // output and cache stay byte-stable against any client-side field
    // ordering drift.
    let canonical = rec.to_json_line();
    if !state.queue.record_result(job_id, index, canonical.clone()) {
        return; // duplicate (lease re-issue overlap) — first write won
    }
    let job = state.queue.get_mut(job_id).expect("checked above");
    job.executed += 1;
    if rec.panicked {
        job.panicked += 1;
    }
    let key = job.cache_keys[index].clone();
    let done = job.results.len();
    let total = job.total();
    let submitted_ms = job.submitted_ms;
    push_feed(&mut state, job_id, finished_event(&rec, secs).to_json_line());
    let now = shared.clock.now_ms();
    let elapsed = now.saturating_sub(submitted_ms) as f64 / 1000.0;
    let eta_secs = if done > 0 { elapsed * (total - done) as f64 / done as f64 } else { 0.0 };
    push_feed(&mut state, job_id, Event::Heartbeat { done, total, eta_secs }.to_json_line());
    if let Err(e) = shared.cache.store(&key, &canonical) {
        // A write-through failure costs a future cache hit, nothing else.
        eprintln!("serve: cache store for {} failed: {e}", rec.id);
    }
    if state.queue.get(job_id).is_some_and(gather_serve::Job::is_complete) {
        finalize_job(shared, &mut state, job_id);
    }
    shared.wake.notify_all();
}

/// Prove coverage, write the merged output and its complete manifest,
/// and close out the job's feed. A finalization failure is reported on
/// stderr and the feed is closed *without* `job_done`, so the
/// submitter's validation fails loudly instead of trusting a bad file.
fn finalize_job(shared: &Shared, state: &mut ServerState, job_id: u64) {
    let job = state.queue.remove(job_id).expect("finalizing a live job");
    let total = job.total();
    let result = (|| -> Result<(), String> {
        // The PR 5 coverage proof, applied to the fold: exactly the
        // expansion's IDs, each exactly once (XOR of ID digests).
        let expected = coverage_xor(job.scenario_ids.iter().map(String::as_str));
        let got = coverage_xor(job.results.keys().map(|i| job.scenario_ids[*i].as_str()));
        if job.results.len() != total || got != expected {
            return Err("coverage digest mismatch in folded results".into());
        }
        // Every line was canonicalized on ingest; write them as a merge does.
        let lines =
            job.results.iter().map(|(i, line)| (job.scenario_ids[*i].as_str(), line.as_str()));
        let spec = spec_from_fields(&job.spec)?;
        write_merged(&job.out, lines, &ShardManifest::for_shard(&spec, ShardSpec::FULL))
    })();
    let now = shared.clock.now_ms();
    let secs = now.saturating_sub(job.submitted_ms) as f64 / 1000.0;
    match result {
        Ok(()) => {
            push_feed(
                state,
                job_id,
                Event::JobFinished { done: total, panicked: job.panicked, secs }.to_json_line(),
            );
            push_feed(
                state,
                job_id,
                Message::JobDone {
                    job: job_id,
                    total,
                    cached: job.cached,
                    executed: job.executed,
                    panicked: job.panicked,
                    secs,
                }
                .to_json_line(),
            );
            if !shared.quiet {
                eprintln!(
                    "serve: job {job_id} done: {total} scenario(s) ({} cached, {} executed, {} \
                     panicked) in {secs:.1}s -> {}",
                    job.cached,
                    job.executed,
                    job.panicked,
                    job.out.display(),
                );
            }
        }
        Err(e) => eprintln!("serve: finalizing job {job_id} -> {}: {e}", job.out.display()),
    }
    if let Some(feed) = state.feeds.get_mut(&job_id) {
        feed.done = true;
    }
    state.finalized += 1;
    if shared.max_jobs.is_some_and(|max| state.finalized >= max) {
        state.draining = true;
    }
}

// ---------------------------------------------------------------------------
// Worker client
// ---------------------------------------------------------------------------

/// What one worker process did before the service drained.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkReport {
    /// Non-empty leases executed.
    pub leases: usize,
    /// Scenario results streamed back (panics included).
    pub executed: usize,
    pub panicked: usize,
}

/// Run scenarios for a service until it drains or goes away.
pub fn work(args: &WorkArgs) -> Result<WorkReport, String> {
    work_on(connect_retry(&args.socket)?, args)
}

/// [`work`] over a connection the caller already holds (`args.socket`
/// is not used). Connecting first lets a caller that starts the
/// service, its workers and a submission together be sure every worker
/// is attached before the first job can finish and drain the service.
pub fn work_on(mut conn: Conn, args: &WorkArgs) -> Result<WorkReport, String> {
    // One expansion per job id, shared by every lease of that job.
    let mut expansions: BTreeMap<u64, Vec<Scenario>> = BTreeMap::new();
    let mut report = WorkReport::default();
    loop {
        let request = Message::LeaseRequest { worker: args.name.clone(), capacity: args.lease };
        if conn.send_line(&request.to_json_line()).is_err() {
            return Ok(report); // service gone — a worker exits cleanly
        }
        let line = match conn.recv_line() {
            Ok(Some(line)) => line,
            _ => return Ok(report),
        };
        let msg = Message::from_json_line(&line)?;
        let Message::LeaseGranted { job, lease, indexes, drained, spec, .. } = msg else {
            return Err(format!("expected lease_granted, got {}", msg.kind()));
        };
        if drained {
            return Ok(report);
        }
        if indexes.is_empty() {
            thread::sleep(Duration::from_millis(args.poll_ms));
            continue;
        }
        let scenarios = match expansions.get(&job) {
            Some(scenarios) => scenarios,
            None => {
                let expanded = spec_from_fields(&spec)?.expand();
                expansions.entry(job).or_insert(expanded)
            }
        };
        let jobs: Vec<(usize, Scenario)> =
            indexes.iter().filter(|&&i| i < scenarios.len()).map(|&i| (i, scenarios[i])).collect();
        report.leases += 1;
        let mut stream_err = false;
        execute_jobs_observed(
            &jobs,
            args.threads,
            |(_, sc)| sc.run(),
            |(_, sc), _| ScenarioRecord::for_panic(sc),
            |event| {
                let JobEvent::Finished(slot, rec, secs) = event else {
                    return ControlFlow::Continue(());
                };
                let index = jobs[slot].0;
                report.executed += 1;
                if rec.panicked {
                    report.panicked += 1;
                }
                let batch =
                    Message::ResultBatch { job, lease, index, record: rec.to_json_line(), secs };
                if conn.send_line(&batch.to_json_line()).is_err() {
                    stream_err = true;
                    return ControlFlow::Break(());
                }
                ControlFlow::Continue(())
            },
        );
        if stream_err {
            return Ok(report); // service gone mid-lease
        }
    }
}

// ---------------------------------------------------------------------------
// Submit client
// ---------------------------------------------------------------------------

/// The server's final accounting for one accepted job.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SubmitReport {
    pub job: u64,
    pub total: usize,
    pub cached: usize,
    pub executed: usize,
    pub panicked: usize,
    pub secs: f64,
}

/// Submit a spec to a running service, stream its progress, and
/// validate the whole conversation against the protocol contract.
pub fn submit(args: &SubmitArgs) -> Result<SubmitReport, String> {
    // The server writes the output from its own working directory —
    // hand it an absolute path so `-o results.jsonl` lands here.
    let out = if args.out.is_absolute() {
        args.out.clone()
    } else {
        std::env::current_dir().map_err(|e| format!("resolving output path: {e}"))?.join(&args.out)
    };
    let mut conn = connect_retry(&args.socket)?;
    let hello = Message::SubmitJob {
        name: args.spec.name.clone(),
        out: out.to_string_lossy().into_owned(),
        spec: spec_to_fields(&args.spec),
    };
    conn.send_line(&hello.to_json_line()).map_err(|e| format!("submitting: {e}"))?;
    let mut mirror = match &args.events {
        Some(path) => {
            Some(File::create(path).map_err(|e| format!("opening {}: {e}", path.display()))?)
        }
        None => None,
    };
    let mut frames: Vec<Frame> = Vec::new();
    let mut total = 0usize;
    let mut done = 0usize;
    loop {
        let Some(line) = conn.recv_line().map_err(|e| format!("reading from service: {e}"))? else {
            return Err("service closed the connection before job_done (submission refused or \
                 finalization failed — see the service's stderr)"
                .into());
        };
        let frame = Frame::from_json_line(&line)?;
        match &frame {
            Frame::Event(event) => {
                // The mirror file carries the service's bytes verbatim,
                // flushed per line — the same torn-line discipline as a
                // local `--events` stream.
                if let Some(file) = &mut mirror {
                    file.write_all(line.as_bytes())
                        .and_then(|()| file.write_all(b"\n"))
                        .and_then(|()| file.flush())
                        .map_err(|e| format!("mirroring events: {e}"))?;
                }
                if let Event::ScenarioFinished { id, status, rounds, .. } = event {
                    done += 1;
                    if !args.quiet {
                        eprintln!(
                            "[{done}/{total}] {id} {} rounds={rounds}",
                            status.as_str().to_uppercase(),
                        );
                    }
                }
            }
            Frame::Message(Message::JobAccepted { job, total: t, cached }) => {
                total = *t;
                if !args.quiet {
                    eprintln!(
                        "submitted as job {job}: {t} scenario(s), {cached} from cache -> {}",
                        out.display(),
                    );
                }
            }
            Frame::Message(Message::JobDone { .. }) => {
                frames.push(frame);
                break;
            }
            Frame::Message(other) => {
                return Err(format!("unexpected {} from service", other.kind()));
            }
        }
        frames.push(frame);
    }
    let summary = gather_obs::validate_submission(&frames)?;
    println!(
        "job {} done: total={} cached={} executed={} panicked={} secs={:.1} out={}",
        summary.job,
        summary.total,
        summary.cached,
        summary.executed,
        summary.panicked,
        summary.secs,
        out.display(),
    );
    Ok(SubmitReport {
        job: summary.job,
        total: summary.total,
        cached: summary.cached,
        executed: summary.executed,
        panicked: summary.panicked,
        secs: summary.secs,
    })
}

/// Connect to the service socket, retrying briefly so `serve` and its
/// clients can be launched in the same breath.
fn connect_retry(socket: &Path) -> Result<Conn, String> {
    let mut waited = 0u64;
    loop {
        match Conn::connect(socket) {
            Ok(conn) => return Ok(conn),
            Err(e) if waited < CONNECT_WINDOW_MS => {
                let _ = e;
                thread::sleep(Duration::from_millis(100));
                waited += 100;
            }
            Err(e) => return Err(format!("connecting to {}: {e}", socket.display())),
        }
    }
}
