//! Data-parallel execution of the compute step.
//!
//! One round of the simulation is a textbook parallel map: every robot's
//! decision is a pure function of the immutable snapshot, so the compute
//! step partitions its list of robots into contiguous chunks and
//! evaluates them on scoped threads (the rayon pattern from the domain
//! guide, hand-rolled so the workspace keeps its minimal dependency
//! footprint). [`for_each_chunk`] is the one primitive both compute
//! phases ([`crate::plan`]) run on. Chunk 0 runs on the calling thread;
//! each chunk writes into an output buffer ([`ChunkBuf`]) its caller
//! keeps across rounds, so a call allocates nothing once the buffers
//! have grown, and a map below [`PARALLEL_THRESHOLD`] items — every
//! round of a small swarm — runs inline into the first buffer alone.
//! Before a split map the calling thread gives every chunk's buffer room
//! for one output per item, so workers only write into memory the
//! calling thread allocated. Each phase keeps only what it needs of a
//! robot (a plan index entry, or a robot whose action changes it), not a
//! per-robot output vector, and the caller joins the buffers in chunk
//! order, so the outcome is bit-identical to the sequential execution
//! regardless of thread count — a property the determinism tests rely
//! on.

use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::OnceLock;

/// Below this many items the spawn overhead dominates, so
/// [`for_each_chunk`] runs on the calling thread.
pub const PARALLEL_THRESHOLD: usize = 1024;

/// Resolve a thread-count request: `0` means "use available parallelism".
/// The core count is read once per process and kept: the query reads
/// the cgroup files on Linux, which cost 13–15 µs a call on a 2-core
/// Xeon, and [`for_each_chunk`] resolves its request on every call, so
/// an engine with `threads: 0` paid that twice a round.
pub fn resolve_threads(requested: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    if requested > 0 {
        requested
    } else {
        *CORES.get_or_init(|| {
            std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
        })
    }
}

/// Partition `0..n` into exactly `min(threads, n)` contiguous chunks
/// whose lengths differ by at most one, so every worker gets an equal
/// share even when `n` is barely above [`PARALLEL_THRESHOLD`].
pub fn chunk_bounds(n: usize, threads: usize) -> Vec<(usize, usize)> {
    let chunks = threads.max(1).min(n.max(1));
    (0..chunks).map(|c| (c * n / chunks, (c + 1) * n / chunks)).collect()
}

/// A chunk's output buffer for [`for_each_chunk`].
pub trait ChunkBuf: Default + Send {
    /// Empty the buffer, keeping its allocation, and make room for
    /// `items` outputs.
    fn reset(&mut self, items: usize);
}

impl<T: Send> ChunkBuf for Vec<T> {
    fn reset(&mut self, items: usize) {
        self.clear();
        self.reserve(items);
    }
}

/// Run `f` over `0..n` split into contiguous chunks, in ascending order:
/// one chunk below [`PARALLEL_THRESHOLD`] items or on one thread, else
/// [`chunk_bounds`]`(n, threads)`. Chunk 0 runs on the calling thread
/// and writes into `first`; chunk `c ≥ 1` runs on a scoped thread and
/// writes into `rest[c - 1]`, which grows to the chunk count and keeps
/// its buffers (and their capacity) for the next call. The calling
/// thread resets every buffer the call uses before any chunk runs: the
/// inline chunk's with no room reserved, since it grows where the caller
/// runs anyway, and a split map's with room for one output per item of
/// its chunk, so a worker never grows a buffer. Returns the chunk count;
/// the caller joins `rest[..count - 1]` after `first`, in order. A
/// dispatch never uses more than `threads` threads in all.
pub fn for_each_chunk<B, F>(
    n: usize,
    threads: usize,
    first: &mut B,
    rest: &mut Vec<B>,
    f: F,
) -> usize
where
    B: ChunkBuf,
    F: Fn(Range<usize>, &mut B) + Sync,
{
    let threads = resolve_threads(threads);
    if threads <= 1 || n < PARALLEL_THRESHOLD {
        first.reset(0);
        f(0..n, first);
        return 1;
    }
    let bounds = chunk_bounds(n, threads);
    if rest.len() < bounds.len() - 1 {
        rest.resize_with(bounds.len() - 1, B::default);
    }
    let outs = std::iter::once(&mut *first).chain(rest.iter_mut());
    for (&(lo, hi), out) in bounds.iter().zip(outs) {
        out.reset(hi - lo);
    }
    std::thread::scope(|scope| {
        for (&(lo, hi), out) in bounds[1..].iter().zip(rest.iter_mut()) {
            let f = &f;
            scope.spawn(move || f(lo..hi, out));
        }
        let (lo, hi) = bounds[0];
        f(lo..hi, first);
    });
    bounds.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `f(0..n)` in index order through [`for_each_chunk`]: each chunk
    /// appends its outputs to its buffer, and the buffers join in chunk
    /// order.
    fn chunked_map<T: Send>(
        n: usize,
        threads: usize,
        f: impl Fn(usize) -> T + Sync,
        first: &mut Vec<T>,
        rest: &mut Vec<Vec<T>>,
    ) -> Vec<T> {
        let chunks = for_each_chunk(n, threads, first, rest, |range, out: &mut Vec<T>| {
            out.extend(range.map(&f));
        });
        let mut joined = std::mem::take(first);
        for chunk in &mut rest[..chunks - 1] {
            joined.append(chunk);
        }
        joined
    }

    fn map<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        chunked_map(n, threads, f, &mut Vec::new(), &mut Vec::new())
    }

    #[test]
    fn matches_sequential_small() {
        let seq: Vec<usize> = (0..100).map(|i| i * i).collect();
        assert_eq!(map(100, 4, |i| i * i), seq);
    }

    #[test]
    fn matches_sequential_large() {
        let n = 50_000;
        let seq: Vec<u64> = (0..n).map(|i| (i as u64).wrapping_mul(2654435761)).collect();
        for threads in [1, 2, 3, 8] {
            assert_eq!(
                map(n, threads, |i| (i as u64).wrapping_mul(2654435761)),
                seq,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn empty_input() {
        let (mut first, mut rest) = (vec![7u8], Vec::new());
        let chunks = for_each_chunk(0, 8, &mut first, &mut rest, |range, out: &mut Vec<u8>| {
            out.extend(range.map(|_| 0u8));
        });
        assert_eq!(chunks, 1, "an empty map is one inline chunk");
        assert!(first.is_empty() && rest.is_empty());
    }

    /// A split map's buffers arrive empty with room for their chunk, they
    /// outlive a call with their capacity, and a later call over fewer
    /// chunks leaves the surplus buffers as they were.
    #[test]
    fn buffers_persist_across_calls() {
        let (mut first, mut rest) = (Vec::new(), Vec::new());
        let n = 4 * PARALLEL_THRESHOLD;
        let seq: Vec<usize> = (0..n).collect();
        let fill = |range: Range<usize>, out: &mut Vec<usize>| {
            assert!(out.is_empty() && out.capacity() >= range.len(), "a worker grew its buffer");
            out.extend(range);
        };
        assert_eq!(for_each_chunk(n, 4, &mut first, &mut rest, fill), 4);
        assert_eq!(rest.len(), 3);
        let held: Vec<*const usize> = rest.iter().map(|b| b.as_ptr()).collect();
        let joined: Vec<usize> = first.iter().chain(rest.iter().flatten()).copied().collect();
        assert_eq!(joined, seq);
        assert_eq!(for_each_chunk(n / 2, 2, &mut first, &mut rest, fill), 2);
        assert_eq!(rest.len(), 3, "surplus buffers are kept");
        assert_eq!(rest[0].as_ptr(), held[0], "a buffer that fits is written in place");
        assert_eq!(rest[1..].iter().map(|b| b.as_ptr()).collect::<Vec<_>>(), held[1..]);
        assert_eq!(first.len() + rest[0].len(), n / 2);
    }

    /// `0` reads the core count once: every call answers the same, and
    /// that is the count the process was given at its first call.
    #[test]
    fn resolve_threads_defaults() {
        let cores = resolve_threads(0);
        assert!(cores >= 1);
        let queried = std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1);
        assert_eq!(cores, queried);
        assert!((0..1000).all(|_| resolve_threads(0) == cores), "repeated calls disagree");
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
            let (mut first, mut rest) = (Vec::new(), Vec::new());
            let chunks = for_each_chunk(n, threads, &mut first, &mut rest, |range, out| {
                let id = std::thread::current().id();
                ids.lock().expect("tracker poisoned").insert(id);
                if range.start == 0 {
                    out.push(id);
                }
            });
            assert_eq!(first, vec![caller], "chunk 0 must run on the caller");
            assert_eq!(chunks, if n < PARALLEL_THRESHOLD { 1 } else { threads });
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
    /// parallel threshold where the old chunking under-used threads. The
    /// buffers carry over from one thread count to the next, as the
    /// engine's do from round to round.
    #[test]
    fn determinism_across_thread_counts() {
        let n = PARALLEL_THRESHOLD + 7;
        let seq: Vec<u64> = (0..n).map(|i| (i as u64).wrapping_mul(0x9E3779B9)).collect();
        let (mut first, mut rest) = (Vec::new(), Vec::new());
        for threads in [1usize, 8, 2, 3] {
            let out = chunked_map(
                n,
                threads,
                |i| (i as u64).wrapping_mul(0x9E3779B9),
                &mut first,
                &mut rest,
            );
            assert_eq!(out, seq, "threads = {threads}");
            first = out;
        }
    }
}
