//! Process-wide recycling pool for `f32` buffers — the allocation substrate
//! behind every tensor op.
//!
//! Training loops allocate the same handful of buffer sizes thousands of
//! times per run (layer outputs, gradients, im2col columns, RNG noise). The
//! global allocator handles this fine, but "fine" still means a malloc/free
//! pair per tensor on the hot path and no visibility into whether steady
//! state is allocation-free. This pool closes both gaps:
//!
//! * [`Tensor`](crate::Tensor) drops return their backing `Vec<f32>` here
//!   instead of freeing it, and tensor ops draw output buffers from here
//!   instead of `vec![...]` — so once a training loop has warmed up, every
//!   request is served by recycling ([`stats`] shows `misses` go flat);
//! * requests are matched **best-fit**: the smallest pooled buffer with
//!   `capacity >= len` is returned, and only if it wastes less than
//!   [`MAX_WASTE_FACTOR`]× the request — a 10-element request never burns a
//!   megabyte buffer, so distinct working-set sizes coexist;
//! * the pool is bounded ([`MAX_ENTRIES`] buffers / [`MAX_BYTES`] bytes);
//!   when full, the smallest buffers are evicted (freed) first;
//! * `ws_hits` / `ws_misses` / `ws_bytes_recycled` counters are exported
//!   through `md-telemetry` run records the same way the worker-pool
//!   counters are, so "zero allocation in steady state" is a measurable
//!   claim, not a hope.
//!
//! Buffers handed out by [`take_raw`] have **length zero** and arbitrary
//! prior capacity contents; the zeroing/filling variants are the safe entry
//! points for callers that read before writing, and [`take_uninit`] hands
//! out full-length buffers with arbitrary (but initialized) contents for
//! callers that overwrite every element they later read — the shared GEMM
//! packing workspace draws from it once per call, so the A/B panel buffers
//! cost one mutex round trip instead of a multi-megabyte memset. All entry
//! points are thread-safe behind one mutex — the lock is taken once per
//! tensor allocation (nanoseconds), never per element; per-thread scratch
//! stays on the thread-local paths in [`crate::pool`], so pool workers do
//! not contend on it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Buffers below this many elements are not worth pooling: the mutex round
/// trip costs about as much as a small malloc, and tiny buffers would
/// crowd the entry budget.
pub const MIN_POOL_LEN: usize = 16;

/// A pooled buffer only serves a request if it wastes less than this factor
/// of capacity (`capacity <= len * MAX_WASTE_FACTOR`).
pub const MAX_WASTE_FACTOR: usize = 4;

/// Maximum number of idle buffers retained.
pub const MAX_ENTRIES: usize = 512;

/// Maximum total bytes of idle capacity retained (256 MiB).
pub const MAX_BYTES: usize = 256 << 20;

/// Idle buffers sorted ascending by capacity, plus their total byte size.
struct Shelf {
    bufs: Vec<Vec<f32>>,
    bytes: usize,
}

static SHELF: Mutex<Shelf> = Mutex::new(Shelf {
    bufs: Vec::new(),
    bytes: 0,
});

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static BYTES_RECYCLED: AtomicU64 = AtomicU64::new(0);

/// Lifetime counters of the workspace pool, for telemetry export.
///
/// In a warmed-up training loop `misses` stays flat from one iteration to
/// the next: every tensor-buffer request is served by recycling.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Requests served from the pool (no heap allocation).
    pub hits: u64,
    /// Requests that fell through to the allocator.
    pub misses: u64,
    /// Total bytes of allocation traffic avoided by hits.
    pub bytes_recycled: u64,
    /// Idle buffers currently held.
    pub pooled_bufs: u64,
    /// Idle capacity currently held, in bytes.
    pub pooled_bytes: u64,
}

/// Snapshot of the workspace counters.
pub fn stats() -> WorkspaceStats {
    let shelf = SHELF.lock().unwrap_or_else(PoisonError::into_inner);
    WorkspaceStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        bytes_recycled: BYTES_RECYCLED.load(Ordering::Relaxed),
        pooled_bufs: shelf.bufs.len() as u64,
        pooled_bytes: shelf.bytes as u64,
    }
}

/// Returns an empty `Vec` with `capacity >= len`, recycled when possible.
///
/// The returned vector has **length zero**; its spare capacity holds
/// arbitrary stale bytes from previous uses (never exposed through safe
/// code). Requests below [`MIN_POOL_LEN`] bypass the pool and are not
/// counted.
pub fn take_raw(len: usize) -> Vec<f32> {
    if len < MIN_POOL_LEN {
        return Vec::with_capacity(len);
    }
    match pop_fit(len) {
        Some(mut buf) => {
            buf.clear();
            buf
        }
        None => Vec::with_capacity(len),
    }
}

/// A buffer of exactly `len` elements with **arbitrary** (but initialized —
/// never uninitialized-memory) contents: recycled buffers keep whatever
/// values their previous owner left behind.
///
/// This is the zero-cost entry point for callers that overwrite every
/// element they will later read (GEMM packing buffers, full-overwrite
/// outputs): a pool hit costs one mutex round trip and at most a truncate,
/// no memset. Only the cold paths write: a pool miss zero-fills a fresh
/// allocation, and a hit whose previous length was shorter than `len`
/// zero-extends the gap (Rust has no safe way to expose the spare capacity's
/// stale bytes).
pub fn take_uninit(len: usize) -> Vec<f32> {
    if len < MIN_POOL_LEN {
        return vec![0.0; len];
    }
    match pop_fit(len) {
        Some(mut buf) => {
            if buf.len() >= len {
                buf.truncate(len);
            } else {
                // Elements past the recycled length are spare capacity whose
                // bytes were never initialized through this Vec; zero only
                // that gap.
                buf.resize(len, 0.0);
            }
            buf
        }
        None => vec![0.0; len],
    }
}

/// Best-fit shelf pop shared by the `take_*` entry points; updates the
/// hit/miss counters. Returned buffers keep the length their previous owner
/// recycled them with (every element below that length is initialized).
fn pop_fit(len: usize) -> Option<Vec<f32>> {
    let recycled = {
        let mut shelf = SHELF.lock().unwrap_or_else(PoisonError::into_inner);
        let idx = shelf.bufs.partition_point(|b| b.capacity() < len);
        if idx < shelf.bufs.len() && shelf.bufs[idx].capacity() / MAX_WASTE_FACTOR <= len {
            let buf = shelf.bufs.remove(idx);
            shelf.bytes -= buf.capacity() * 4;
            Some(buf)
        } else {
            None
        }
    };
    match recycled {
        Some(buf) => {
            HITS.fetch_add(1, Ordering::Relaxed);
            BYTES_RECYCLED.fetch_add(4 * len as u64, Ordering::Relaxed);
            Some(buf)
        }
        None => {
            MISSES.fetch_add(1, Ordering::Relaxed);
            None
        }
    }
}

/// A buffer of exactly `len` elements, all set to `value`.
pub fn take_filled(len: usize, value: f32) -> Vec<f32> {
    let mut buf = take_raw(len);
    buf.resize(len, value);
    buf
}

/// A buffer of exactly `len` elements, zero-filled.
pub fn take_zeroed(len: usize) -> Vec<f32> {
    take_filled(len, 0.0)
}

/// A recycled copy of `src`.
pub fn take_copy(src: &[f32]) -> Vec<f32> {
    let mut buf = take_raw(src.len());
    buf.extend_from_slice(src);
    buf
}

/// Returns a no-longer-needed buffer to the pool (called by `Tensor::drop`).
///
/// Buffers below [`MIN_POOL_LEN`] capacity are simply freed. When the pool
/// is at its entry or byte budget, the smallest retained buffers are evicted
/// to make room — large buffers are the expensive ones to reallocate.
pub fn recycle(buf: Vec<f32>) {
    let cap = buf.capacity();
    if cap < MIN_POOL_LEN {
        return;
    }
    // The buffer is shelved with its length intact: [`take_uninit`] uses the
    // recycled length as the proof of how far the contents are initialized.
    // [`take_raw`] clears on the way out instead.
    let mut evicted: Vec<Vec<f32>> = Vec::new();
    {
        let mut shelf = SHELF.lock().unwrap_or_else(PoisonError::into_inner);
        let idx = shelf.bufs.partition_point(|b| b.capacity() < cap);
        shelf.bufs.insert(idx, buf);
        shelf.bytes += cap * 4;
        while shelf.bufs.len() > MAX_ENTRIES || shelf.bytes > MAX_BYTES {
            let victim = shelf.bufs.remove(0);
            shelf.bytes -= victim.capacity() * 4;
            evicted.push(victim);
        }
    }
    // Free evicted buffers outside the lock.
    drop(evicted);
}

/// Empties the pool, freeing all idle buffers. Counters are monotonic and
/// unaffected. Intended for tests and memory-pressure hooks.
pub fn clear() {
    let drained = {
        let mut shelf = SHELF.lock().unwrap_or_else(PoisonError::into_inner);
        shelf.bytes = 0;
        std::mem::take(&mut shelf.bufs)
    };
    drop(drained);
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: unit tests in this binary run concurrently and the pool is
    // process-global, so tests here avoid asserting on the global counters;
    // the dedicated `workspace_steady` integration binary (one test, one
    // process) owns the counter-flatness assertions.

    #[test]
    fn round_trip_reuses_capacity() {
        // An unusual size no kernel test uses, so no other thread steals it.
        let len = 12_347usize;
        let buf = take_zeroed(len);
        let ptr = buf.as_ptr() as usize;
        recycle(buf);
        let again = take_zeroed(len);
        assert_eq!(again.as_ptr() as usize, ptr, "buffer was not recycled");
        recycle(again);
    }

    #[test]
    fn tiny_requests_bypass_the_pool() {
        // Below MIN_POOL_LEN the allocation is exact-size and never pooled.
        let b = take_zeroed(MIN_POOL_LEN - 1);
        assert_eq!(b.capacity(), MIN_POOL_LEN - 1);
        recycle(b);
    }

    #[test]
    fn waste_guard_rejects_oversized_buffers() {
        // A giant recycled buffer must not be burned on a small request.
        recycle(Vec::with_capacity(1 << 20));
        let small = take_zeroed(MIN_POOL_LEN);
        assert!(
            small.capacity() < (1 << 20),
            "small request was served a {}-element buffer",
            small.capacity()
        );
        recycle(small);
    }

    #[test]
    fn filled_and_copy_have_exact_lengths() {
        let f = take_filled(100, 2.5);
        assert_eq!(f.len(), 100);
        assert!(f.iter().all(|&v| v == 2.5));
        let src = [1.0f32, 2.0, 3.0];
        let c = take_copy(&src);
        assert_eq!(c, &src);
        recycle(f);
    }

    #[test]
    fn recycled_buffer_is_rezeroed() {
        let mut b = take_filled(4096, 7.0);
        b.fill(9.0);
        recycle(b);
        let z = take_zeroed(4096);
        assert!(z.iter().all(|&v| v == 0.0), "stale contents leaked");
        recycle(z);
    }

    #[test]
    fn zero_len_request_is_free() {
        let b = take_raw(0);
        assert_eq!(b.capacity(), 0);
    }

    #[test]
    fn uninit_reuses_contents_and_zero_extends_the_gap() {
        // An unusual size no kernel test uses, so no other thread steals it.
        let len = 23_459usize;
        let mut b = take_filled(len, 3.0);
        b.truncate(len - 100); // recycle with a shorter initialized length
        let ptr = b.as_ptr() as usize;
        recycle(b);
        let u = take_uninit(len);
        assert_eq!(u.as_ptr() as usize, ptr, "buffer was not recycled");
        assert_eq!(u.len(), len);
        assert!(u[..len - 100].iter().all(|&v| v == 3.0));
        assert!(
            u[len - 100..].iter().all(|&v| v == 0.0),
            "capacity gap past the recycled length must be zero-extended"
        );
        recycle(u);
    }

    #[test]
    fn uninit_tiny_request_is_exact_and_zeroed() {
        let b = take_uninit(MIN_POOL_LEN - 1);
        assert_eq!(b.len(), MIN_POOL_LEN - 1);
        assert!(b.iter().all(|&v| v == 0.0));
    }
}
