//! Data-parallel helpers built on the persistent worker pool in
//! [`crate::pool`].
//!
//! The MD-GAN experiments run many small models; most kernels are too small
//! for threading to pay off, so parallelism is opt-in and chunk-based. The
//! helpers here split an index range over a bounded number of long-lived
//! pool workers (no OS thread is spawned in steady state) and are used by
//! the batched convolution kernels, the matmul family and the transpose for
//! large problem sizes. One level up, [`parallel_for_each_mut`] runs the
//! workers of a synchronous training iteration side by side on the same
//! pool; kernels called from inside it run inline.
//!
//! # Determinism
//!
//! Task index `i` is always executed by slot `i % threads`, slots execute
//! their indices in ascending order, and every task writes only data derived
//! from its own index, so results are **bitwise identical for any thread
//! count** — `TENSOR_THREADS=1` and `TENSOR_THREADS=8` produce the same
//! bytes. Nested parallel calls run sequentially (see [`crate::pool`]),
//! which preserves this guarantee.

use crate::pool;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Work-size threshold (in "inner loop elements") below which `parallel_for`
/// runs sequentially. With the persistent pool the per-dispatch cost is down
/// to a couple of microseconds (channel send + park/unpark), but splitting
/// tiny kernels still loses to cache locality, so the threshold stays in the
/// multi-MFLOP range (measured on 2-core CI boxes, where a low threshold
/// cost a 10x slowdown on GAN-sized matmuls).
pub const PAR_THRESHOLD: usize = 1 << 23;

/// Returns the number of worker slots to use for data-parallel kernels.
///
/// Resolution order:
/// 1. a nonzero [`set_max_threads`] override (or a live
///    [`scoped_max_threads`] guard),
/// 2. the `TENSOR_THREADS` environment variable (parsed once per process;
///    invalid or zero values are ignored),
/// 3. the number of available CPUs, capped at 8.
pub fn max_threads() -> usize {
    let configured = MAX_THREADS.load(Ordering::Relaxed);
    if configured != 0 {
        return configured;
    }
    env_default_threads()
}

static MAX_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Process-wide default from `TENSOR_THREADS` / hardware, cached after the
/// first read (0 = not yet resolved).
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

fn env_default_threads() -> usize {
    let cached = DEFAULT_THREADS.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let resolved = parse_thread_count(std::env::var("TENSOR_THREADS").ok().as_deref())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8)
        });
    DEFAULT_THREADS.store(resolved, Ordering::Relaxed);
    resolved
}

/// Parses a `TENSOR_THREADS`-style value: positive integers are honored,
/// anything else (unset, empty, zero, garbage) falls back to the automatic
/// default.
fn parse_thread_count(value: Option<&str>) -> Option<usize> {
    value?.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

/// Overrides the thread count used by [`parallel_for`]. `0` restores the
/// automatic default (`TENSOR_THREADS`, then hardware).
///
/// This is a process-wide knob; tests should prefer [`scoped_max_threads`],
/// which serializes concurrent overrides and restores the previous value.
pub fn set_max_threads(n: usize) {
    MAX_THREADS.store(n, Ordering::Relaxed);
}

/// Serializes [`scoped_max_threads`] regions so concurrently running tests
/// cannot observe each other's thread-count overrides.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// Exclusive thread-count override, restored on drop.
///
/// Holds a process-wide lock for its lifetime: two guards never overlap, so
/// tests (which cargo runs on concurrent threads) cannot race on the global
/// knob. Returned by [`scoped_max_threads`].
pub struct MaxThreadsGuard {
    prev: usize,
    _lock: MutexGuard<'static, ()>,
}

impl Drop for MaxThreadsGuard {
    fn drop(&mut self) {
        MAX_THREADS.store(self.prev, Ordering::Relaxed);
    }
}

/// Sets [`max_threads`] to `n` (0 = automatic default) until the returned
/// guard drops, at which point the previous value is restored. See
/// [`MaxThreadsGuard`] for the locking semantics.
pub fn scoped_max_threads(n: usize) -> MaxThreadsGuard {
    // A panic while a guard is held poisons the lock but the Drop impl has
    // already restored the previous value, so the state is still valid.
    let lock = OVERRIDE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let prev = MAX_THREADS.swap(n, Ordering::Relaxed);
    MaxThreadsGuard { prev, _lock: lock }
}

/// Runs `body(i)` for every `i in 0..n`, splitting the range over up to
/// [`max_threads`] pool slots when `n * work_hint` exceeds
/// [`PAR_THRESHOLD`].
///
/// `work_hint` is the caller's estimate of the per-index cost in elementary
/// operations; it only gates whether threading is worth it.
///
/// Index `i` runs on slot `i % threads` in ascending order (deterministic);
/// the closure receives disjoint indices, so it may freely mutate disjoint
/// state through e.g. raw chunk pointers — the typical pattern in this
/// workspace is [`parallel_for_chunks`], which hands out disjoint `&mut`
/// chunks safely. Calls nested inside another parallel region run inline.
pub fn parallel_for<F>(n: usize, work_hint: usize, body: F)
where
    F: Fn(usize) + Sync,
{
    let threads = max_threads();
    if threads <= 1
        || n <= 1
        || n.saturating_mul(work_hint) < PAR_THRESHOLD
        || pool::in_parallel_region()
    {
        pool::note_sequential();
        for i in 0..n {
            body(i);
        }
        return;
    }
    pool::run(threads.min(n), n, &body);
}

/// Runs `body(r, c)` for every cell of an `rows x cols` grid, flattened
/// row-major over [`parallel_for`]: task `t` maps to cell
/// `(t / cols, t % cols)`, so cell `(r, c)` always executes on slot
/// `(r * cols + c) % threads` — the same fixed task→slot mapping contract.
///
/// This is the dispatch shape of the shared-panel GEMM schedule (row-block ×
/// column-panel compute grid): one flat dispatch covers both parallel
/// dimensions, so wide shapes (large `n`, small `m`) still fan out even when
/// there are few row blocks. `work_hint` is the per-cell cost estimate.
pub fn parallel_for_grid<F>(rows: usize, cols: usize, work_hint: usize, body: F)
where
    F: Fn(usize, usize) + Sync,
{
    if rows == 0 || cols == 0 {
        return;
    }
    parallel_for(rows * cols, work_hint, |t| body(t / cols, t % cols));
}

/// Splits `out` into `n` equal chunks and runs `body(i, chunk_i)` in
/// parallel. This is the safe entry point for "one output slot per batch
/// sample" kernels (conv2d over a batch, per-sample feedback application).
///
/// Degenerate shapes are well-defined rather than panicking:
/// * `n == 0` with an empty `out` is a no-op (a zero-batch kernel);
/// * zero-length chunks (`out` empty, `n > 0`) invoke `body` sequentially
///   with empty slices, preserving any side effects.
///
/// # Panics
/// Panics if `out.len()` is not divisible by `n`, or if `n == 0` while
/// `out` is non-empty.
pub fn parallel_for_chunks<T, F>(out: &mut [T], n: usize, work_hint: usize, body: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if n == 0 {
        assert!(
            out.is_empty(),
            "parallel_for_chunks: n == 0 with {} output elements",
            out.len()
        );
        return;
    }
    assert_eq!(
        out.len() % n,
        0,
        "output length {} not divisible by {n}",
        out.len()
    );
    let chunk = out.len() / n;
    if chunk == 0 {
        for i in 0..n {
            body(i, &mut []);
        }
        return;
    }
    let threads = max_threads();
    if threads <= 1
        || n <= 1
        || n.saturating_mul(work_hint.max(chunk)) < PAR_THRESHOLD
        || pool::in_parallel_region()
    {
        pool::note_sequential();
        for (i, c) in out.chunks_mut(chunk).enumerate() {
            body(i, c);
        }
        return;
    }
    let threads = threads.min(n);
    let base = out.as_mut_ptr() as usize;
    pool::run(threads, n, &|i| {
        // SAFETY: chunk `i` covers elements `i * chunk..(i + 1) * chunk` of
        // `out`, so chunks of distinct task indices are disjoint; the pool
        // executes each index exactly once, so no two `&mut` to the same
        // element ever coexist; `out` is exclusively borrowed for this call
        // and outlives the blocking `pool::run`; and `T: Send` is what lets
        // another thread hold the `&mut [T]` (the pointer crosses threads
        // as an integer, so the compiler cannot check that bound for us).
        let c = unsafe { std::slice::from_raw_parts_mut((base as *mut T).add(i * chunk), chunk) };
        body(i, c);
    });
}

/// Runs `body(i, &mut items[i])` for every item, splitting the slice over
/// up to [`max_threads`] pool slots: the outer, coarse-grained level of
/// parallelism (one whole GAN worker per item), where [`parallel_for`] and
/// friends are the inner, kernel level.
///
/// It is [`parallel_for_chunks`] at chunk length 1, so item `i` runs on
/// slot `i % threads`, each slot visits its items in ascending order, and
/// any `parallel_*` call made from inside `body` runs inline on that slot.
/// With one thread, one item, or `items.len() * work_hint` below
/// [`PAR_THRESHOLD`] it is the plain `for` loop. A panic in `body`
/// re-raises on the caller once every slot has finished.
pub fn parallel_for_each_mut<T, F>(items: &mut [T], work_hint: usize, body: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let n = items.len();
    parallel_for_chunks(items, n, work_hint, |i, one| body(i, &mut one[0]));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn parallel_for_visits_every_index_once() {
        let hits: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
        parallel_for(100, PAR_THRESHOLD, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_sequential_small() {
        let count = AtomicUsize::new(0);
        parallel_for(4, 1, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn grid_visits_every_cell_once_in_row_major_order_per_slot() {
        let _guard = scoped_max_threads(4);
        let hits: Vec<AtomicU64> = (0..7 * 5).map(|_| AtomicU64::new(0)).collect();
        parallel_for_grid(7, 5, PAR_THRESHOLD, |r, c| {
            hits[r * 5 + c].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn grid_degenerate_dims_are_noops() {
        parallel_for_grid(0, 5, 1, |_, _| panic!("must not run"));
        parallel_for_grid(5, 0, 1, |_, _| panic!("must not run"));
    }

    #[test]
    fn chunks_write_disjoint_regions() {
        let mut out = vec![0.0f32; 64];
        parallel_for_chunks(&mut out, 8, PAR_THRESHOLD, |i, chunk| {
            for v in chunk.iter_mut() {
                *v = i as f32;
            }
        });
        for i in 0..8 {
            assert!(out[i * 8..(i + 1) * 8].iter().all(|&v| v == i as f32));
        }
    }

    #[test]
    fn chunks_pooled_matches_round_robin_mapping() {
        // Force the pooled path regardless of host CPU count and verify
        // every chunk is written exactly once with its own index.
        let _guard = scoped_max_threads(4);
        let mut out = vec![-1.0f32; 256];
        parallel_for_chunks(&mut out, 32, PAR_THRESHOLD, |i, chunk| {
            for v in chunk.iter_mut() {
                *v = i as f32;
            }
        });
        for i in 0..32 {
            assert!(out[i * 8..(i + 1) * 8].iter().all(|&v| v == i as f32));
        }
    }

    #[test]
    fn chunks_zero_batch_is_noop() {
        let mut out: Vec<f32> = Vec::new();
        parallel_for_chunks(&mut out, 0, 1, |_, _| panic!("must not run"));
    }

    #[test]
    fn chunks_zero_len_chunks_still_invoke_body() {
        let mut out: Vec<f32> = Vec::new();
        let count = AtomicUsize::new(0);
        parallel_for_chunks(&mut out, 5, 1, |_, c| {
            assert!(c.is_empty());
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 5);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn chunks_reject_uneven_split() {
        let mut out = vec![0.0f32; 10];
        parallel_for_chunks(&mut out, 3, 1, |_, _| {});
    }

    #[test]
    #[should_panic(expected = "n == 0")]
    fn chunks_reject_zero_n_with_output() {
        let mut out = vec![0.0f32; 10];
        parallel_for_chunks(&mut out, 0, 1, |_, _| {});
    }

    /// The override in force while no guard is held, read under the override
    /// lock (a guard's `prev` is swapped out as the lock is taken) — a bare
    /// `max_threads()` here could see another test's live override.
    fn unguarded_override() -> usize {
        scoped_max_threads(1).prev
    }

    #[test]
    fn scoped_max_threads_forces_sequential_and_restores() {
        let before = {
            let guard = scoped_max_threads(1);
            assert_eq!(max_threads(), 1);
            let count = AtomicUsize::new(0);
            parallel_for(1000, PAR_THRESHOLD, |_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(count.load(Ordering::Relaxed), 1000);
            guard.prev
        };
        assert_eq!(unguarded_override(), before);
    }

    #[test]
    fn scoped_overrides_nest_by_serializing() {
        let before = unguarded_override();
        {
            let _g1 = scoped_max_threads(3);
            assert_eq!(max_threads(), 3);
        }
        {
            let _g2 = scoped_max_threads(5);
            assert_eq!(max_threads(), 5);
        }
        assert_eq!(unguarded_override(), before);
    }

    #[test]
    fn nested_parallel_runs_inline_without_deadlock() {
        let _guard = scoped_max_threads(4);
        let outer = AtomicUsize::new(0);
        let inner = AtomicUsize::new(0);
        parallel_for(8, PAR_THRESHOLD, |_| {
            outer.fetch_add(1, Ordering::Relaxed);
            // A kernel-within-a-kernel (conv's per-sample matmul shape).
            parallel_for(4, PAR_THRESHOLD, |_| {
                inner.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(outer.load(Ordering::Relaxed), 8);
        assert_eq!(inner.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn each_mut_visits_every_item_once_with_its_own_index() {
        for threads in [1, 2, 3, 8] {
            let _guard = scoped_max_threads(threads);
            let mut items = vec![(usize::MAX, 0u32); 11];
            parallel_for_each_mut(&mut items, PAR_THRESHOLD, |i, item| {
                item.0 = i;
                item.1 += 1;
            });
            for (i, item) in items.iter().enumerate() {
                assert_eq!(*item, (i, 1), "threads={threads}");
            }
        }
    }

    #[test]
    fn each_mut_runs_item_i_on_slot_i_mod_threads() {
        let _guard = scoped_max_threads(3);
        let mut ran_on = vec![None; 8];
        parallel_for_each_mut(&mut ran_on, PAR_THRESHOLD, |_, slot| {
            *slot = Some(std::thread::current().id());
        });
        // Slot 0 is the caller; items of one residue class share a thread
        // and distinct classes never do.
        assert_eq!(ran_on[0], Some(std::thread::current().id()));
        for i in 0..8 {
            for j in 0..8 {
                assert_eq!(ran_on[i] == ran_on[j], i % 3 == j % 3, "items {i}, {j}");
            }
        }
    }

    #[test]
    fn each_mut_inlines_kernels_issued_from_the_body() {
        let _guard = scoped_max_threads(2);
        let mut inner_threads = vec![Vec::new(); 4];
        parallel_for_each_mut(&mut inner_threads, PAR_THRESHOLD, |_, seen| {
            let outer = std::thread::current().id();
            let inner = Mutex::new(Vec::new());
            parallel_for(6, PAR_THRESHOLD, |_| {
                inner
                    .lock()
                    .unwrap()
                    .push(std::thread::current().id() == outer);
            });
            *seen = inner.into_inner().unwrap();
        });
        for seen in &inner_threads {
            assert_eq!(seen, &vec![true; 6], "nested kernel left its slot");
        }
    }

    #[test]
    fn each_mut_handles_empty_single_and_zero_sized_items() {
        let _guard = scoped_max_threads(4);
        let mut none: Vec<u64> = Vec::new();
        parallel_for_each_mut(&mut none, PAR_THRESHOLD, |_, _| panic!("must not run"));
        let mut one = vec![0u64];
        parallel_for_each_mut(&mut one, PAR_THRESHOLD, |i, v| *v = i as u64 + 7);
        assert_eq!(one, vec![7]);
        let hits: Vec<AtomicU64> = (0..9).map(|_| AtomicU64::new(0)).collect();
        let mut units = [(); 9];
        parallel_for_each_mut(&mut units, PAR_THRESHOLD, |i, _unit| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn each_mut_reraises_a_panicking_item_and_the_pool_survives() {
        let _guard = scoped_max_threads(2);
        // Item 1 runs on a pool worker, item 2 on the caller: both routes
        // must surface on the caller without hanging it.
        for bad in [1usize, 2] {
            let mut items = vec![0u32; 6];
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                parallel_for_each_mut(&mut items, PAR_THRESHOLD, |i, v| {
                    assert!(i != bad, "boom");
                    *v = 1;
                });
            }));
            assert!(caught.is_err(), "panic in item {bad} was swallowed");
        }
        let mut items = vec![0u32; 6];
        parallel_for_each_mut(&mut items, PAR_THRESHOLD, |_, v| *v = 1);
        assert_eq!(items, vec![1; 6]);
    }

    #[test]
    fn thread_count_parsing() {
        assert_eq!(parse_thread_count(None), None);
        assert_eq!(parse_thread_count(Some("")), None);
        assert_eq!(parse_thread_count(Some("0")), None);
        assert_eq!(parse_thread_count(Some("garbage")), None);
        assert_eq!(parse_thread_count(Some("-2")), None);
        assert_eq!(parse_thread_count(Some("4")), Some(4));
        assert_eq!(parse_thread_count(Some(" 6 ")), Some(6));
    }
}
