//! Persistent worker pool backing [`crate::parallel`].
//!
//! The first implementation of the parallel helpers spawned fresh scoped OS
//! threads on *every* large kernel call — tens of microseconds of spawn/join
//! overhead on a path that GAN training hits thousands of times per run.
//! This module replaces that with a process-wide pool of long-lived workers:
//!
//! * workers are created **lazily** on the first job that needs them and
//!   then reused forever, so steady-state kernel calls spawn zero OS
//!   threads ([`stats`] lets callers verify `threads_spawned == pool_size`);
//! * the pool grows on demand up to the parallelism requested by
//!   [`crate::parallel::max_threads`] (which honors `set_max_threads` and
//!   the `TENSOR_THREADS` environment override);
//! * jobs are dispatched over the vendored crossbeam channels, one channel
//!   per worker, and completion is signalled with an atomic countdown plus
//!   `park`/`unpark` — no per-job heap allocation;
//! * task index `i` is always executed by slot `i % threads` in ascending
//!   order, so the work → worker mapping is deterministic and, because every
//!   task only touches data derived from its own index, results are bitwise
//!   identical for any thread count;
//! * the **calling thread participates** as slot 0, so a parallelism of `T`
//!   only ever needs `T - 1` pool workers;
//! * nested data-parallel calls (a kernel invoked from inside another
//!   kernel's parallel body, e.g. the per-sample matmul inside the batched
//!   conv) degrade to sequential execution on the spot — the pool can never
//!   deadlock on itself and nesting does not change results.
//!
//! Buffer recycling lives in [`crate::workspace`]: since the GEMM moved to
//! a shared-panel packing schedule (and the convolutions to implicit
//! im2col), kernels draw their packing panels from that process-wide shelf
//! instead of per-thread scratch, so this module is purely about threads.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};

/// One queued unit of work: a pointer to the dispatching call's shared
/// state plus the slot (strided offset) this worker should execute.
struct Job {
    shared: *const SharedJob,
    slot: usize,
}

// SAFETY: `shared` points at a `SharedJob` on the dispatching thread's
// stack. That thread blocks until every worker has decremented
// `SharedJob::remaining`, which is each worker's final access, so the
// pointee (and the closure it references) outlives all uses.
unsafe impl Send for Job {}

/// Per-dispatch state shared between the caller and its workers.
struct SharedJob {
    /// Type-erased `&(dyn Fn(usize) + Sync)` borrowed from the dispatching
    /// call frame; valid until `remaining` reaches zero.
    body: *const (dyn Fn(usize) + Sync),
    /// Number of task indices.
    n: usize,
    /// Total slots (caller + workers); slot `s` runs `s, s+stride, ...`.
    stride: usize,
    /// Workers that have not finished their slice yet.
    remaining: AtomicUsize,
    /// Set when a worker's slice panicked.
    panicked: AtomicBool,
    /// Handle used by the last finishing worker to wake the caller.
    caller: std::thread::Thread,
}

// SAFETY: all fields are either plain data, atomics, or pointers whose
// lifetime is managed as described on `Job`.
unsafe impl Sync for SharedJob {}

/// Send half of each worker's job queue, in slot order (index 0 is slot 1).
static POOL: Mutex<Vec<Sender<Job>>> = Mutex::new(Vec::new());

static THREADS_SPAWNED: AtomicU64 = AtomicU64::new(0);
static JOBS: AtomicU64 = AtomicU64::new(0);
static SEQ_JOBS: AtomicU64 = AtomicU64::new(0);
static TASKS: AtomicU64 = AtomicU64::new(0);
static BUSY_NS: AtomicU64 = AtomicU64::new(0);

/// Observer invoked with `(slot, busy)` after each pool-worker job slice.
///
/// Distributed-training harnesses install one to mirror pool activity onto
/// their tracing timeline (one track per pool thread). The `AtomicBool`
/// fast-gate keeps the cost of the common no-hook case to a single relaxed
/// load per slice — the `Mutex` is only touched while a hook is installed.
pub type PoolTraceHook = Arc<dyn Fn(usize, Duration) + Send + Sync>;

static TRACE_HOOK_SET: AtomicBool = AtomicBool::new(false);
static TRACE_HOOK: Mutex<Option<PoolTraceHook>> = Mutex::new(None);

/// Installs (or with `None`, removes) the process-wide pool trace hook.
///
/// The hook runs on pool-worker threads after every job slice; it must not
/// dispatch parallel work itself. Replacing an existing hook is allowed;
/// in-flight slices may still report to the hook they started under.
pub fn set_trace_hook(hook: Option<PoolTraceHook>) {
    let mut slot = TRACE_HOOK.lock().unwrap_or_else(PoisonError::into_inner);
    TRACE_HOOK_SET.store(hook.is_some(), Ordering::Release);
    *slot = hook;
}

/// Fires the trace hook for a finished slice; one branch when no hook is set.
fn note_pool_slice(slot: usize, busy: Duration) {
    if TRACE_HOOK_SET.load(Ordering::Relaxed) {
        let hook = TRACE_HOOK
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        if let Some(h) = hook {
            h(slot, busy);
        }
    }
}

thread_local! {
    /// True on pool workers (always) and on callers while they execute
    /// their own slot-0 share; gates nested parallelism to sequential.
    static IN_PARALLEL: Cell<bool> = const { Cell::new(false) };
}

/// Counters describing the pool's lifetime activity, for telemetry export.
///
/// In steady state `threads_spawned == pool_size`: workers are created once
/// and reused, never respawned per call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Workers currently alive.
    pub pool_size: u64,
    /// OS threads ever created by the pool (equals `pool_size` unless the
    /// requested parallelism grew over the process lifetime).
    pub threads_spawned: u64,
    /// Parallel jobs dispatched to the pool.
    pub jobs: u64,
    /// `parallel_*` calls that ran inline (below threshold, single thread,
    /// or nested inside another parallel region).
    pub seq_jobs: u64,
    /// Task indices executed by pool workers (the caller's slot-0 share is
    /// not counted).
    pub tasks: u64,
    /// Cumulative wall time pool workers spent executing job slices.
    pub busy_ns: u64,
}

/// Snapshot of the pool counters.
pub fn stats() -> PoolStats {
    PoolStats {
        pool_size: POOL.lock().unwrap_or_else(PoisonError::into_inner).len() as u64,
        threads_spawned: THREADS_SPAWNED.load(Ordering::Relaxed),
        jobs: JOBS.load(Ordering::Relaxed),
        seq_jobs: SEQ_JOBS.load(Ordering::Relaxed),
        tasks: TASKS.load(Ordering::Relaxed),
        busy_ns: BUSY_NS.load(Ordering::Relaxed),
    }
}

/// True while the current thread is inside a parallel region (a pool worker,
/// or a caller executing its slot-0 share). [`crate::parallel`] uses this to
/// run nested data-parallel calls sequentially.
pub(crate) fn in_parallel_region() -> bool {
    IN_PARALLEL.with(Cell::get)
}

/// Tallies a kernel call that ran inline rather than on the pool: a
/// `parallel_*` call below its gate, or a kernel that is serial by design
/// (the no-pack GEMMs).
pub(crate) fn note_sequential() {
    SEQ_JOBS.fetch_add(1, Ordering::Relaxed);
}

/// Restores the caller's `IN_PARALLEL` flag on drop.
struct RegionGuard {
    prev: bool,
}

impl RegionGuard {
    fn enter() -> Self {
        let prev = IN_PARALLEL.with(|f| f.replace(true));
        RegionGuard { prev }
    }
}

impl Drop for RegionGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        IN_PARALLEL.with(|f| f.set(prev));
    }
}

fn worker_loop(rx: Receiver<Job>) {
    // Workers are permanently inside a parallel region: any kernel invoked
    // from a job body must run inline.
    IN_PARALLEL.with(|f| f.set(true));
    while let Ok(job) = rx.recv() {
        let t0 = Instant::now();
        // SAFETY: see `Job` — the caller keeps `shared` (and the closure it
        // points to) alive until we decrement `remaining` below.
        let shared = unsafe { &*job.shared };
        let body = unsafe { &*shared.body };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut executed = 0u64;
            let mut i = job.slot;
            while i < shared.n {
                body(i);
                executed += 1;
                i += shared.stride;
            }
            executed
        }));
        match outcome {
            Ok(executed) => {
                TASKS.fetch_add(executed, Ordering::Relaxed);
            }
            Err(_) => shared.panicked.store(true, Ordering::Relaxed),
        }
        let busy = t0.elapsed();
        BUSY_NS.fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);
        note_pool_slice(job.slot, busy);
        // Clone the caller handle *before* the decrement: once `remaining`
        // hits zero the caller may invalidate `shared` at any moment.
        let caller = shared.caller.clone();
        if shared.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            caller.unpark();
        }
    }
}

/// Grows the pool to at least `helpers` workers and queues `shared` on the
/// first `helpers` of them (slots `1..=helpers`).
fn dispatch(shared: &SharedJob, helpers: usize) {
    let mut pool = POOL.lock().unwrap_or_else(PoisonError::into_inner);
    while pool.len() < helpers {
        let (tx, rx) = unbounded::<Job>();
        let idx = pool.len();
        std::thread::Builder::new()
            .name(format!("md-tensor-{idx}"))
            .spawn(move || worker_loop(rx))
            .expect("failed to spawn md-tensor pool worker");
        THREADS_SPAWNED.fetch_add(1, Ordering::Relaxed);
        pool.push(tx);
    }
    for slot in 1..=helpers {
        pool[slot - 1]
            .send(Job {
                shared: shared as *const SharedJob,
                slot,
            })
            .expect("md-tensor pool worker exited");
    }
}

/// Runs `body(i)` for every `i in 0..n` across `threads` slots: the calling
/// thread executes slot 0 and `threads - 1` pool workers execute the rest,
/// each slot taking indices `slot, slot + threads, ...` in ascending order.
///
/// Callers guarantee `threads >= 2` and that the current thread is not
/// already inside a parallel region.
///
/// # Panics
/// Re-raises a panic from the caller's own share, and panics with
/// "pool worker panicked" if any worker's share panicked (the workers
/// themselves survive and keep serving jobs).
pub(crate) fn run(threads: usize, n: usize, body: &(dyn Fn(usize) + Sync)) {
    debug_assert!(threads >= 2, "pool::run needs at least two slots");
    debug_assert!(!in_parallel_region(), "pool::run from inside a job");
    let helpers = threads - 1;
    let shared = SharedJob {
        // SAFETY: only the lifetime is erased; `shared` (and thus this
        // pointer) is dead before `body` is, because we block on
        // `remaining` below before returning.
        body: unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(
                body,
            )
        },
        n,
        stride: threads,
        remaining: AtomicUsize::new(helpers),
        panicked: AtomicBool::new(false),
        caller: std::thread::current(),
    };
    JOBS.fetch_add(1, Ordering::Relaxed);
    dispatch(&shared, helpers);

    // The caller takes slot 0. While it runs, nested parallel_* calls from
    // inside `body` degrade to sequential (same policy as on the workers),
    // so the pool can never deadlock on itself.
    let caller_outcome = {
        let _region = RegionGuard::enter();
        catch_unwind(AssertUnwindSafe(|| {
            let mut i = 0;
            while i < n {
                body(i);
                i += threads;
            }
        }))
    };

    // Wait for every worker even if our own share panicked: they borrow the
    // caller's stack through `shared` until the countdown reaches zero.
    while shared.remaining.load(Ordering::Acquire) != 0 {
        std::thread::park();
    }

    if let Err(payload) = caller_outcome {
        std::panic::resume_unwind(payload);
    }
    assert!(
        !shared.panicked.load(Ordering::Relaxed),
        "md-tensor pool worker panicked"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as TestCounter;

    #[test]
    fn run_covers_every_index_once() {
        let hits: Vec<TestCounter> = (0..101).map(|_| TestCounter::new(0)).collect();
        run(4, 101, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    // `steady_state_spawns_no_new_threads` compares the process-wide job
    // counter for equality, so it lives alone in `tests/pool_steady.rs`.

    #[test]
    fn worker_panic_is_reported_and_pool_survives() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run(2, 8, &|i| {
                // Index 1 lands on slot 1 (a pool worker).
                assert!(i != 1, "boom");
            });
        }));
        assert!(caught.is_err());
        // The worker survives the panic and keeps serving jobs.
        let hits = TestCounter::new(0);
        run(2, 8, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn trace_hook_sees_worker_slices_and_uninstalls() {
        let fired = Arc::new(TestCounter::new(0));
        let seen = Arc::clone(&fired);
        set_trace_hook(Some(Arc::new(move |slot, busy| {
            assert!(slot >= 1, "only pool workers report, caller is slot 0");
            assert!(busy <= Duration::from_secs(60));
            seen.fetch_add(1, Ordering::Relaxed);
        })));
        run(3, 32, &|_| {});
        set_trace_hook(None);
        let after = fired.load(Ordering::Relaxed);
        // Two helper slots each executed one slice.
        assert!(after >= 2, "hook fired {after} times");
        run(3, 32, &|_| {});
        assert_eq!(fired.load(Ordering::Relaxed), after, "hook not removed");
    }
}
