//! Steady-state check for the persistent thread pool: repeated jobs spawn
//! no threads and are counted one by one.
//!
//! This file deliberately holds a **single** test: the pool counters are
//! process-global, and any other test dispatching jobs in the same binary
//! (as the unit tests of `gemm.rs`, `conv.rs`, `parallel.rs` do) makes the
//! exact job count racy.

use md_tensor::parallel::{parallel_for, scoped_max_threads, PAR_THRESHOLD};
use md_tensor::pool::stats;

#[test]
fn steady_state_spawns_no_new_threads() {
    // Three slots, sixteen indices, a hint above the gate: each call is
    // one pooled job, as `pool::run(3, 16, ..)` is.
    let _width = scoped_max_threads(3);
    let job = || parallel_for(16, PAR_THRESHOLD, |_| {});
    // Warm the pool, then check repeated jobs leave the spawn counter
    // equal to the pool size (i.e. zero per-call thread creation).
    job();
    let before = stats();
    for _ in 0..32 {
        job();
    }
    let after = stats();
    assert_eq!(after.threads_spawned, before.threads_spawned);
    assert!(after.pool_size >= 2);
    assert_eq!(after.jobs, before.jobs + 32);
    assert!(after.tasks > before.tasks);
}
