//! A lightweight scoped-thread executor.
//!
//! Each clustering run issues a handful of parallel regions over borrowed data,
//! so the executor spawns scoped worker threads per region instead of keeping a
//! long-lived pool: there is no `'static` requirement on closures, no channel
//! plumbing, and the single-threaded configuration runs completely inline.
//!
//! # Panic semantics
//!
//! Every primitive has the same contract: **a panic inside a task is resumed
//! exactly once on the calling thread with its original payload** (message and
//! location preserved), after all sibling workers of the region have been
//! joined — never a hang, never a silent abort, never a secondhand
//! `"worker thread panicked"` message that loses the payload. When several
//! workers panic in one region, the first observed (in spawn order) wins and
//! the other payloads are dropped. On a single-threaded executor the closure
//! runs inline, so its panic propagates natively — the two configurations are
//! indistinguishable to a caller. Callers that must not unwind (servers,
//! batch handlers) wrap the *call* in [`std::panic::catch_unwind`] and get
//! every worker panic funnelled to that one bracket.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Target number of chunks each worker claims (on average) under dynamic
/// scheduling; see [`dynamic_chunk`].
const DYNAMIC_CHUNKS_PER_WORKER: usize = 64;

/// How many items a worker claims per fetch in dynamic scheduling.
///
/// The paper uses OpenMP's `schedule(dynamic)` (chunk 1) for its load
/// balancing: dense-region points whose range queries are expensive do not
/// serialise behind a static split. A chunk of 1, however, pays one atomic
/// RMW on a contended cache line *per item*, which dominates when items are
/// cheap. `max(1, n / (threads × 64))` keeps the same load-balancing regime —
/// every worker still claims ~64 chunks, so the makespan overshoot is bounded
/// by one chunk (≈ 1.6% of a worker's share) even under adversarial skew —
/// while cutting the atomic traffic from `n` to `threads × 64` operations.
/// Small inputs degenerate to chunk 1, i.e. exactly the paper's behaviour.
fn dynamic_chunk(n: usize, workers: usize) -> usize {
    (n / (workers * DYNAMIC_CHUNKS_PER_WORKER)).max(1)
}

/// A parallel executor with a fixed number of worker threads.
#[derive(Clone, Copy, Debug)]
pub struct Executor {
    threads: usize,
}

impl Default for Executor {
    /// An executor using all available hardware parallelism.
    fn default() -> Self {
        Self::new(std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
    }
}

impl Executor {
    /// Creates an executor with `threads` worker threads (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        Self { threads: threads.max(1) }
    }

    /// A single-threaded executor; every primitive runs inline.
    pub fn single() -> Self {
        Self { threads: 1 }
    }

    /// The configured number of threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs two independent closures, potentially in parallel, and returns
    /// both results (a fork-join / scoped-task primitive).
    ///
    /// The second closure is forked onto a scoped worker thread while the
    /// first runs on the calling thread, so a divide-and-conquer caller that
    /// splits its work in half at every fork saturates `t` workers after
    /// `⌈log₂ t⌉` recursion levels. On a single-threaded executor both
    /// closures run inline, in order, with no spawn and no synchronisation.
    ///
    /// The executor does not track outstanding forks: callers bound the
    /// parallelism by bounding their fork depth (fan out the top
    /// `⌈log₂ threads⌉` levels of the recursion, run everything below them
    /// inline). The packed kd-tree build in `dpc-index` is the canonical
    /// user.
    ///
    /// # Panics
    /// A panic in either closure is resumed on the calling thread with its
    /// original payload after the forked side has been joined (see the module
    /// docs for the region-wide contract). If both closures panic, `a`'s
    /// payload unwinds and `b`'s is dropped.
    pub fn join<RA, RB, A, B>(&self, a: A, b: B) -> (RA, RB)
    where
        RA: Send,
        RB: Send,
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
    {
        if self.threads == 1 {
            let ra = a();
            let rb = b();
            (ra, rb)
        } else {
            std::thread::scope(|scope| {
                let right = scope.spawn(b);
                let left = a();
                (left, join_or_resume(right))
            })
        }
    }

    /// Computes `f(i)` for every `i in 0..n` with dynamic self-scheduling and
    /// returns the results in index order.
    ///
    /// # Panics
    /// The first panicking worker's payload is resumed on the calling thread
    /// once the region has been joined (module docs); no partial result vector
    /// is ever observable.
    pub fn map_dynamic<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        if self.threads == 1 || n == 1 {
            return (0..n).map(f).collect();
        }
        let counter = AtomicUsize::new(0);
        let workers = self.threads.min(n);
        let chunk = dynamic_chunk(n, workers);
        let mut partials: Vec<Vec<(usize, R)>> = Vec::with_capacity(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local: Vec<(usize, R)> = Vec::new();
                        loop {
                            let start = counter.fetch_add(chunk, Ordering::Relaxed);
                            if start >= n {
                                break;
                            }
                            let end = (start + chunk).min(n);
                            for i in start..end {
                                local.push((i, f(i)));
                            }
                        }
                        local
                    })
                })
                .collect();
            for handle in handles {
                partials.push(join_or_resume(handle));
            }
        });
        scatter(n, partials)
    }
}

/// Joins a scoped worker, resuming its panic payload on the calling thread —
/// the single point that implements the module-level panic contract.
fn join_or_resume<T>(handle: std::thread::ScopedJoinHandle<'_, T>) -> T {
    match handle.join() {
        Ok(value) => value,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// Reassembles per-worker `(index, value)` buffers into index order.
fn scatter<R>(n: usize, partials: Vec<Vec<(usize, R)>>) -> Vec<R> {
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for buf in partials {
        for (i, value) in buf {
            debug_assert!(slots[i].is_none(), "index {i} produced twice");
            slots[i] = Some(value);
        }
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, v)| v.unwrap_or_else(|| panic!("index {i} was never produced")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_chunk_is_adaptive_but_never_zero() {
        assert_eq!(dynamic_chunk(1, 1), 1);
        assert_eq!(dynamic_chunk(100, 4), 1); // small n degenerates to the paper's chunk 1
        assert_eq!(dynamic_chunk(1_000_000, 4), 1_000_000 / (4 * 64));
        // Every worker still sees ~DYNAMIC_CHUNKS_PER_WORKER claims.
        let n = 10_000_000;
        let workers = 8;
        let chunk = dynamic_chunk(n, workers);
        let claims = n.div_ceil(chunk);
        assert!(claims >= workers * (DYNAMIC_CHUNKS_PER_WORKER - 1));
    }

    #[test]
    fn threads_are_clamped() {
        assert_eq!(Executor::new(0).threads(), 1);
        assert_eq!(Executor::new(4).threads(), 4);
        assert_eq!(Executor::single().threads(), 1);
        assert!(Executor::default().threads() >= 1);
    }

    #[test]
    fn map_dynamic_preserves_index_order() {
        // Fewer items than workers (1, 2 and 3 at 2 and 8 threads) is the
        // shape of the grid build's shard and scatter passes.
        let cases = [(1, 257), (3, 257), (8, 257), (2, 1), (2, 2), (2, 3), (8, 1), (8, 2), (8, 3)];
        for (threads, n) in cases {
            let ex = Executor::new(threads);
            let out = ex.map_dynamic(n, |i| i * i);
            assert_eq!(out.len(), n, "threads {threads}");
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, i * i, "threads {threads}, n {n}");
            }
        }
    }

    #[test]
    fn map_dynamic_empty() {
        let out: Vec<u32> = Executor::new(4).map_dynamic(0, |_| 1);
        assert!(out.is_empty());
    }

    #[test]
    fn join_returns_both_results_in_order() {
        for threads in [1usize, 2, 8] {
            let ex = Executor::new(threads);
            let (a, b) = ex.join(|| 2 + 2, || "forked".to_string());
            assert_eq!(a, 4);
            assert_eq!(b, "forked");
        }
    }

    #[test]
    fn join_nests_like_a_fork_join_recursion() {
        // A depth-limited parallel sum: the shape the kd-tree build uses.
        fn sum(ex: &Executor, range: std::ops::Range<u64>, levels: usize) -> u64 {
            let span = range.end - range.start;
            if levels == 0 || span < 4 {
                return range.sum();
            }
            let mid = range.start + span / 2;
            let (a, b) = ex.join(
                || sum(ex, range.start..mid, levels - 1),
                || sum(ex, mid..range.end, levels - 1),
            );
            a + b
        }
        let want: u64 = (0..10_000).sum();
        for threads in [1usize, 2, 4, 8] {
            let ex = Executor::new(threads);
            for levels in [0usize, 1, 3] {
                assert_eq!(sum(&ex, 0..10_000, levels), want, "threads {threads}");
            }
        }
    }

    #[test]
    fn join_closures_can_borrow_mutably_and_disjointly() {
        let mut left = [0u32; 8];
        let mut right = [0u32; 8];
        let ex = Executor::new(4);
        ex.join(|| left.iter_mut().for_each(|v| *v = 1), || right.iter_mut().for_each(|v| *v = 2));
        assert!(left.iter().all(|&v| v == 1));
        assert!(right.iter().all(|&v| v == 2));
    }

    /// The module-level panic contract, exercised across both primitives at
    /// 1 and 4 threads: the caller catches the *original* payload (message
    /// preserved), sibling workers are joined first, and the executor stays
    /// usable afterwards.
    #[test]
    fn worker_panics_resume_on_the_caller_with_their_payload() {
        use std::panic::{catch_unwind, AssertUnwindSafe};

        fn payload_str(payload: &(dyn std::any::Any + Send)) -> &str {
            payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("<non-string payload>")
        }

        type Region<'a> = Box<dyn Fn() + 'a>;

        for threads in [1usize, 4] {
            let ex = Executor::new(threads);
            let regions: Vec<(&str, Region<'_>)> = vec![
                (
                    "join",
                    Box::new(|| {
                        let _ = ex.join(|| 1, || -> i32 { panic!("boom join") });
                    }),
                ),
                (
                    "map_dynamic",
                    Box::new(|| {
                        drop(ex.map_dynamic(64, |i| {
                            if i == 13 {
                                panic!("boom map_dynamic")
                            }
                            i
                        }))
                    }),
                ),
            ];
            for (name, region) in regions {
                let payload = catch_unwind(AssertUnwindSafe(region))
                    .expect_err(&format!("{name} at threads {threads} must propagate the panic"));
                assert_eq!(
                    payload_str(payload.as_ref()),
                    format!("boom {name}"),
                    "threads {threads}"
                );
            }
            // The executor is a plain value; a panicked region must not wedge it.
            assert_eq!(ex.map_dynamic(8, |i| i).len(), 8);
        }
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let work = |i: usize| -> f64 { (i as f64).sqrt() + (i % 17) as f64 };
        let sequential = Executor::single().map_dynamic(2048, work);
        for threads in [2usize, 4, 16] {
            assert_eq!(Executor::new(threads).map_dynamic(2048, work), sequential);
        }
    }
}
