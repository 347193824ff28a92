//! Lock-free log-bucketed duration histogram.
//!
//! Durations are recorded in nanoseconds into 64 power-of-two buckets
//! (bucket *i* holds values whose highest set bit is *i*), so recording is
//! one `leading_zeros` plus one relaxed `fetch_add`. Quantiles are read
//! back from the bucket counts with geometric-midpoint interpolation —
//! at most ~41% relative error per value, plenty for phase timing where
//! the interesting signal is orders of magnitude.

use std::sync::atomic::{AtomicU64, Ordering};

const BUCKETS: usize = 64;

/// Concurrent histogram of `u64` samples (nanoseconds by convention).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Point-in-time, plain-data view of a [`Histogram`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples (ns).
    pub sum: u64,
    /// Largest sample (ns), exact.
    pub max: u64,
    /// Estimated 50th percentile (ns).
    pub p50: u64,
    /// Estimated 90th percentile (ns).
    pub p90: u64,
    /// Estimated 99th percentile (ns).
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Mean sample (ns), zero when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

fn bucket_of(value: u64) -> usize {
    // Highest set bit; value 0 goes to bucket 0.
    (63 - value.max(1).leading_zeros()) as usize
}

/// Geometric midpoint of bucket `i`, i.e. `2^i * sqrt(2)`.
fn bucket_mid(i: usize) -> u64 {
    let lo = 1u64 << i;
    // sqrt(2) ≈ 181/128 in integer arithmetic, saturating at the top.
    lo.saturating_mul(181) / 128
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Takes a consistent-enough snapshot for end-of-run reporting.
    /// (Relaxed loads: concurrent recording may skew in-flight samples by
    /// one, which is irrelevant once workers have joined.)
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        let max = self.max.load(Ordering::Relaxed);
        let quantile = |q: f64| -> u64 {
            if total == 0 {
                return 0;
            }
            let rank = ((total as f64) * q).ceil() as u64;
            let mut seen = 0u64;
            for (i, &c) in counts.iter().enumerate() {
                seen += c;
                if seen >= rank.max(1) {
                    return bucket_mid(i).min(max);
                }
            }
            max
        };
        HistogramSnapshot {
            count: total,
            sum: self.sum.load(Ordering::Relaxed),
            max,
            p50: quantile(0.50),
            p90: quantile(0.90),
            p99: quantile(0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_snapshot_is_zero() {
        let h = Histogram::new();
        let s = h.snapshot();
        assert_eq!(s, HistogramSnapshot::default());
        assert_eq!(s.mean(), 0);
    }

    #[test]
    fn bucket_of_powers() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), 63);
    }

    #[test]
    fn quantiles_track_distribution_order() {
        let h = Histogram::new();
        // 89 fast samples (~1µs), 9 medium (~1ms), 2 slow (~1s) — ranks 50,
        // 90 and 99 land in distinct buckets.
        for _ in 0..89 {
            h.record(1_000);
        }
        for _ in 0..9 {
            h.record(1_000_000);
        }
        h.record(1_000_000_000);
        h.record(1_000_000_000);
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 89_000 + 9_000_000 + 2_000_000_000);
        assert_eq!(s.max, 1_000_000_000);
        assert!(s.p50 < s.p90, "{} < {}", s.p50, s.p90);
        assert!(s.p90 < s.p99, "{} < {}", s.p90, s.p99);
        // p50 is within a factor ~2 of the true median bucket.
        assert!((512..4096).contains(&s.p50), "{}", s.p50);
        // p99 lands on the slow tail's bucket.
        assert!(s.p99 > 100_000_000, "{}", s.p99);
    }

    #[test]
    fn single_sample_quantiles_clamp_to_max() {
        let h = Histogram::new();
        h.record(5_000);
        let s = h.snapshot();
        assert_eq!(s.max, 5_000);
        assert!(s.p50 <= 5_000 && s.p99 <= 5_000);
        assert!(s.p50 > 0);
    }

    #[test]
    fn concurrent_records_conserve_count_and_sum() {
        use std::sync::Arc;
        let h = Arc::new(Histogram::new());
        let threads = 8;
        let per = 10_000u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let h = Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..per {
                        h.record(t * per + i);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count, threads * per);
        let expect_sum: u64 = (0..threads * per).sum();
        assert_eq!(snap.sum, expect_sum);
        assert_eq!(snap.max, threads * per - 1);
    }
}
