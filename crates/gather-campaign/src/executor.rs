//! Work-stealing parallel job execution with per-job panic isolation.
//!
//! The scheduling idiom mirrors `grid_engine::parallel`: scoped threads
//! over an immutable job slice. Campaign jobs have wildly uneven costs
//! (a stalled GoToCenter run burns its whole budget while a paper run
//! finishes in O(n) rounds), so instead of pre-chunking, workers pull
//! the next job index from a shared atomic cursor — the classic
//! work-stealing counter — and runtimes balance automatically.
//!
//! Results stream back to the caller's callback on the submitting
//! thread, in completion order, while workers keep running.

use std::collections::HashSet;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

use grid_engine::parallel::resolve_threads;

use crate::record::ScenarioRecord;
use crate::shard::ShardSpec;
use crate::spec::Scenario;

/// One lifecycle notification from the executor, delivered to the
/// caller's callback on the submitting thread. The progress/event layer
/// maps these 1:1 onto `scenario_started`/`scenario_finished` stream
/// events, which is why the executor — the only place that knows when a
/// worker actually picks a job up — emits them itself.
pub enum JobEvent<R> {
    /// A worker picked up job `i`.
    Started(usize),
    /// Job `i` completed (panics included, converted via `on_panic`);
    /// the `f64` is the job's measured wall time in seconds. Failure
    /// paths carry their real elapsed time, not zero.
    Finished(usize, R, f64),
}

/// Run every job and hand lifecycle events to `consume` on the calling
/// thread as they happen. `run` executes on worker threads; a panic
/// inside it is caught and converted via `on_panic(job, elapsed_secs)`
/// instead of tearing the campaign down. Returns the number of panicked
/// jobs.
///
/// `consume` returning [`ControlFlow::Break`] aborts the campaign:
/// workers stop pulling new jobs and in-flight results are discarded
/// (a sink failure must not burn cores computing results nobody can
/// persist).
///
/// `threads == 0` means available parallelism; `threads == 1` runs
/// inline, in job order, with the same panic isolation.
pub fn execute_jobs_observed<J, R, F, P, C>(
    jobs: &[J],
    threads: usize,
    run: F,
    on_panic: P,
    mut consume: C,
) -> usize
where
    J: Sync,
    R: Send,
    F: Fn(&J) -> R + Sync,
    P: Fn(&J, f64) -> R + Sync,
    C: FnMut(JobEvent<R>) -> ControlFlow<()>,
{
    let threads = resolve_threads(threads).min(jobs.len().max(1));
    let panics = AtomicUsize::new(0);
    let guarded = |job: &J| -> (R, f64) {
        #[expect(
            clippy::disallowed_methods,
            reason = "a job's wall time goes to progress and the opt-in `secs` field, never into its result"
        )]
        let start = Instant::now();
        match catch_unwind(AssertUnwindSafe(|| run(job))) {
            Ok(result) => (result, start.elapsed().as_secs_f64()),
            Err(_) => {
                panics.fetch_add(1, Ordering::Relaxed);
                let secs = start.elapsed().as_secs_f64();
                (on_panic(job, secs), secs)
            }
        }
    };

    if threads <= 1 {
        for (i, job) in jobs.iter().enumerate() {
            if consume(JobEvent::Started(i)).is_break() {
                break;
            }
            let (result, secs) = guarded(job);
            if consume(JobEvent::Finished(i, result, secs)).is_break() {
                break;
            }
        }
        return panics.into_inner();
    }

    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<JobEvent<R>>();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let cursor = &cursor;
            let guarded = &guarded;
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                if tx.send(JobEvent::Started(i)).is_err() {
                    break;
                }
                let (result, secs) = guarded(job);
                if tx.send(JobEvent::Finished(i, result, secs)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for event in rx {
            if consume(event).is_break() {
                // Dropping the receiver makes every worker's next
                // send fail, so they stop pulling jobs.
                break;
            }
        }
    });
    panics.into_inner()
}

/// The jobs a worker should actually execute: those its shard owns
/// minus the `completed` resume set. This is the single filtering step
/// shared by `run`, `resume` and `record`, so a sharded resume cannot
/// accidentally pick up another shard's work.
pub fn select_pending(
    jobs: &[Scenario],
    shard: ShardSpec,
    completed: &HashSet<String>,
) -> Vec<Scenario> {
    jobs.iter()
        .filter(|sc| {
            let id = sc.id();
            shard.owns(&id) && !completed.contains(&id)
        })
        .copied()
        .collect()
}

/// Execute scenarios; `progress(done, total, record)` fires on the
/// calling thread after each completion.
pub fn execute_scenarios(
    jobs: &[Scenario],
    threads: usize,
    mut progress: impl FnMut(usize, usize, &ScenarioRecord),
) -> Vec<ScenarioRecord> {
    let mut records = Vec::with_capacity(jobs.len());
    execute_jobs_observed(
        jobs,
        threads,
        Scenario::run,
        |sc, _secs| ScenarioRecord::for_panic(sc),
        |event| {
            if let JobEvent::Finished(_i, rec, _secs) = event {
                progress(records.len() + 1, jobs.len(), &rec);
                records.push(rec);
            }
            ControlFlow::Continue(())
        },
    );
    records
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_jobs_run_exactly_once() {
        let jobs: Vec<usize> = (0..200).collect();
        for threads in [1usize, 2, 8] {
            let mut seen = vec![0u32; jobs.len()];
            let panics = execute_jobs_observed(
                &jobs,
                threads,
                |&j| j * 3,
                |_, _| usize::MAX,
                |event| {
                    if let JobEvent::Finished(i, r, _) = event {
                        assert_eq!(r, jobs[i] * 3);
                        seen[i] += 1;
                    }
                    ControlFlow::Continue(())
                },
            );
            assert_eq!(panics, 0);
            assert!(seen.iter().all(|&c| c == 1), "threads={threads}");
        }
    }

    #[test]
    fn break_from_consume_aborts_the_campaign() {
        let jobs: Vec<usize> = (0..10_000).collect();
        for threads in [1usize, 4] {
            let mut consumed = 0usize;
            execute_jobs_observed(
                &jobs,
                threads,
                |&j| j,
                |_, _| 0,
                |event| {
                    if let JobEvent::Finished(..) = event {
                        consumed += 1;
                        if consumed == 5 {
                            return ControlFlow::Break(());
                        }
                    }
                    ControlFlow::Continue(())
                },
            );
            assert_eq!(consumed, 5, "threads={threads}: consume ran after Break");
        }
    }

    #[test]
    fn panics_are_isolated_per_job() {
        let jobs: Vec<usize> = (0..50).collect();
        for threads in [1usize, 4] {
            let mut ok = 0usize;
            let mut poisoned = 0usize;
            let panics = execute_jobs_observed(
                &jobs,
                threads,
                |&j| {
                    if j % 10 == 3 {
                        panic!("job {j} exploded");
                    }
                    j
                },
                |_, _| usize::MAX,
                |event| {
                    match event {
                        JobEvent::Finished(_, usize::MAX, _) => poisoned += 1,
                        JobEvent::Finished(..) => ok += 1,
                        JobEvent::Started(_) => {}
                    }
                    ControlFlow::Continue(())
                },
            );
            assert_eq!(panics, 5, "threads={threads}");
            assert_eq!(poisoned, 5);
            assert_eq!(ok, 45);
        }
    }

    #[test]
    fn select_pending_filters_by_shard_and_resume_set() {
        use crate::spec::CampaignSpec;

        let jobs = CampaignSpec::standard().expand();
        let none = HashSet::new();
        // The union over a 4-way split, with nothing completed, is the
        // whole job list.
        let mut union = 0usize;
        for index in 0..4u32 {
            let shard = ShardSpec { index, count: 4 };
            union += select_pending(&jobs, shard, &none).len();
        }
        assert_eq!(union, jobs.len());
        // Completed IDs drop out of exactly their own shard.
        let shard = ShardSpec { index: 0, count: 4 };
        let owned = select_pending(&jobs, shard, &none);
        let completed: HashSet<String> = owned.iter().take(3).map(Scenario::id).collect();
        let pending = select_pending(&jobs, shard, &completed);
        assert_eq!(pending.len(), owned.len() - 3);
        assert!(pending.iter().all(|sc| !completed.contains(&sc.id())));
        // A completed ID from another shard changes nothing here.
        let foreign = select_pending(&jobs, ShardSpec { index: 1, count: 4 }, &none);
        let foreign_done: HashSet<String> = foreign.iter().take(1).map(Scenario::id).collect();
        assert_eq!(select_pending(&jobs, shard, &foreign_done).len(), owned.len());
    }

    #[test]
    fn observed_execution_pairs_started_and_finished_with_real_timings() {
        let jobs: Vec<u64> = (0..40).collect();
        for threads in [1usize, 4] {
            let mut started = vec![0u32; jobs.len()];
            let mut finished = vec![0u32; jobs.len()];
            let panics = execute_jobs_observed(
                &jobs,
                threads,
                |&j| {
                    if j == 7 {
                        std::thread::sleep(std::time::Duration::from_millis(5));
                    }
                    if j % 13 == 3 {
                        panic!("job {j} exploded");
                    }
                    j
                },
                |&j, secs| {
                    assert!(secs >= 0.0);
                    j + 1000
                },
                |event| {
                    match event {
                        JobEvent::Started(i) => started[i] += 1,
                        JobEvent::Finished(i, r, secs) => {
                            assert_eq!(
                                started[i], 1,
                                "finished before started (threads={threads})"
                            );
                            assert!(secs >= 0.0);
                            if jobs[i] == 7 {
                                assert!(secs >= 0.004, "slow job must report real elapsed time");
                            }
                            let expected = if jobs[i] % 13 == 3 { jobs[i] + 1000 } else { jobs[i] };
                            assert_eq!(r, expected);
                            finished[i] += 1;
                        }
                    }
                    ControlFlow::Continue(())
                },
            );
            assert_eq!(panics, 3, "threads={threads}");
            assert!(started.iter().all(|&c| c == 1), "threads={threads}");
            assert!(finished.iter().all(|&c| c == 1), "threads={threads}");
        }
    }

    #[test]
    fn panicked_jobs_report_their_real_elapsed_time() {
        // The failure-path timing contract: a panicking job's elapsed
        // time flows both to `on_panic` and to the Finished event.
        let jobs = [0u64];
        let mut event_secs = -1.0f64;
        execute_jobs_observed(
            &jobs,
            1,
            |_: &u64| -> f64 {
                std::thread::sleep(std::time::Duration::from_millis(5));
                panic!("boom");
            },
            |_, secs| secs,
            |event| {
                if let JobEvent::Finished(_, panic_secs, secs) = event {
                    assert!(panic_secs >= 0.004, "on_panic saw {panic_secs}");
                    event_secs = secs;
                }
                ControlFlow::Continue(())
            },
        );
        assert!(event_secs >= 0.004, "event carried {event_secs}");
    }

    #[test]
    fn empty_job_list_is_fine() {
        let jobs: Vec<usize> = Vec::new();
        let panics = execute_jobs_observed(&jobs, 8, |&j| j, |_, _| 0, |_| unreachable!());
        assert_eq!(panics, 0);
    }

    #[test]
    fn uneven_workloads_still_complete_with_many_threads() {
        // More threads than jobs, and costs spanning three orders of
        // magnitude — the cursor must not lose or duplicate work.
        let jobs: Vec<u64> = vec![1, 1000, 1, 500, 1, 1, 2000];
        let mut total = 0u64;
        execute_jobs_observed(
            &jobs,
            16,
            |&j| (0..j).sum::<u64>(),
            |_, _| 0,
            |event| {
                if let JobEvent::Finished(_, r, _) = event {
                    total += r;
                }
                ControlFlow::Continue(())
            },
        );
        let expected: u64 = jobs.iter().map(|&j| (0..j).sum::<u64>()).sum();
        assert_eq!(total, expected);
    }
}
