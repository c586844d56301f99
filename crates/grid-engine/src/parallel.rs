//! Data-parallel execution of the FSYNC compute step.
//!
//! One round of the simulation is a textbook parallel map: every robot's
//! decision is a pure function of the immutable snapshot, so the compute
//! step partitions the robot array into chunks and evaluates them on
//! scoped threads (the rayon pattern from the domain guide, hand-rolled
//! so the workspace keeps its minimal dependency footprint). Results are
//! written back in index order, so the outcome is bit-identical to the
//! sequential execution regardless of thread count — a property the
//! determinism tests rely on.

use std::num::NonZeroUsize;

/// Below this many items the spawn overhead dominates, so
/// [`parallel_map`] runs on the calling thread.
pub const PARALLEL_THRESHOLD: usize = 1024;

/// Resolve a thread-count request: `0` means "use available parallelism".
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
    }
}

/// Partition `0..n` into exactly `min(threads, n)` contiguous chunks
/// whose lengths differ by at most one, so every worker gets an equal
/// share even when `n` is barely above [`PARALLEL_THRESHOLD`].
pub fn chunk_bounds(n: usize, threads: usize) -> Vec<(usize, usize)> {
    let chunks = threads.max(1).min(n.max(1));
    (0..chunks).map(|c| (c * n / chunks, (c + 1) * n / chunks)).collect()
}

/// Evaluate `f(0..n)` and collect results in index order, splitting the
/// range over `threads` scoped threads when worthwhile.
pub fn parallel_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = resolve_threads(threads);
    if threads <= 1 || n < PARALLEL_THRESHOLD {
        return (0..n).map(f).collect();
    }
    let bounds = chunk_bounds(n, threads);
    let mut out: Vec<Vec<T>> = Vec::with_capacity(bounds.len());
    std::thread::scope(|scope| {
        // Spawn workers for every chunk but the first; the first chunk
        // runs on the calling thread, so a dispatch never creates more
        // threads than it has concurrent work for (and a single-chunk
        // dispatch spawns none at all).
        let mut handles = Vec::with_capacity(bounds.len().saturating_sub(1));
        for &(lo, hi) in &bounds[1..] {
            let f = &f;
            handles.push(scope.spawn(move || (lo..hi).map(f).collect::<Vec<T>>()));
        }
        let (lo, hi) = bounds[0];
        out.push((lo..hi).map(&f).collect::<Vec<T>>());
        for h in handles {
            out.push(h.join().expect("compute worker panicked"));
        }
    });
    let mut flat = Vec::with_capacity(n);
    for chunk in out {
        flat.extend(chunk);
    }
    flat
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sequential_small() {
        let seq: Vec<usize> = (0..100).map(|i| i * i).collect();
        assert_eq!(parallel_map(100, 4, |i| i * i), seq);
    }

    #[test]
    fn matches_sequential_large() {
        let n = 50_000;
        let seq: Vec<u64> = (0..n).map(|i| (i as u64).wrapping_mul(2654435761)).collect();
        for threads in [1, 2, 3, 8] {
            assert_eq!(
                parallel_map(n, threads, |i| (i as u64).wrapping_mul(2654435761)),
                seq,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn empty_input() {
        let out: Vec<u8> = parallel_map(0, 8, |_| 0u8);
        assert!(out.is_empty());
    }

    #[test]
    fn resolve_threads_defaults() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    /// Regression: chunk count must track the requested thread count
    /// exactly (it used to be capped near n / 256, idling most workers
    /// for n just above PARALLEL_THRESHOLD), with balanced chunks.
    #[test]
    fn chunking_uses_every_thread_exactly() {
        for threads in [1usize, 2, 3, 8, 16] {
            for n in [
                PARALLEL_THRESHOLD,
                PARALLEL_THRESHOLD + 1,
                PARALLEL_THRESHOLD + threads - 1,
                4 * PARALLEL_THRESHOLD + 3,
            ] {
                let bounds = chunk_bounds(n, threads);
                assert_eq!(bounds.len(), threads.min(n), "n={n} threads={threads}");
                assert_eq!(bounds[0].0, 0);
                assert_eq!(bounds.last().unwrap().1, n);
                let (min_len, max_len) = bounds.iter().fold((usize::MAX, 0), |acc, &(lo, hi)| {
                    assert!(lo <= hi);
                    (acc.0.min(hi - lo), acc.1.max(hi - lo))
                });
                assert!(max_len - min_len <= 1, "unbalanced: n={n} threads={threads}");
                for w in bounds.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "gap/overlap: n={n} threads={threads}");
                }
            }
        }
    }

    /// Regression for the degenerate dispatch: a sub-threshold map must
    /// never leave the calling thread, and a threaded one runs its first
    /// chunk on the caller, so it uses at most `threads` threads in all.
    #[test]
    fn small_dispatch_does_not_spawn_idle_workers() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        use std::thread::ThreadId;

        let caller = std::thread::current().id();
        let threads_used = |n: usize, threads: usize| {
            let ids = Mutex::<HashSet<ThreadId>>::default();
            parallel_map(n, threads, |i| {
                ids.lock().expect("tracker poisoned").insert(std::thread::current().id());
                i
            });
            ids.into_inner().expect("tracker poisoned")
        };
        assert_eq!(
            threads_used(3, 8).into_iter().collect::<Vec<_>>(),
            vec![caller],
            "a sub-threshold map must run inline"
        );
        let ids = threads_used(PARALLEL_THRESHOLD, 2);
        assert!(ids.len() <= 2, "{} distinct threads for a 2-thread map", ids.len());
        assert!(ids.contains(&caller), "caller thread must run the first chunk");
    }

    /// Determinism across thread counts, pinned at a size just above the
    /// parallel threshold where the old chunking under-used threads.
    #[test]
    fn determinism_across_thread_counts() {
        let n = PARALLEL_THRESHOLD + 7;
        let seq: Vec<u64> = (0..n).map(|i| (i as u64).wrapping_mul(0x9E3779B9)).collect();
        for threads in [1usize, 2, 3, 8] {
            assert_eq!(
                parallel_map(n, threads, |i| (i as u64).wrapping_mul(0x9E3779B9)),
                seq,
                "threads = {threads}"
            );
        }
    }
}
