//! Timeout-based failure detection.
//!
//! The MD-GAN server has no crash oracle in robust mode: the only liveness
//! signal is whether a worker's feedback reached the iteration's gather.
//! [`FailureDetector`] turns that signal into a suspicion list —
//! suspect after `threshold` *consecutive* misses, rejoin the moment the
//! worker is heard again. This is the classic unreliable failure detector:
//! suspicion is a routing hint (skip the worker's downlink, keep it out of
//! discriminator swaps), never a verdict, so a slow-but-alive worker only
//! loses iterations, not its shard.
//!
//! Two extensions for elastic membership:
//!
//! * storage is keyed by worker id in ordered maps rather than indexed
//!   vectors, so workers can be [`track`](FailureDetector::track)ed as
//!   they join and [`forget`](FailureDetector::forget)ten as they leave
//!   without re-sizing anything;
//! * an optional eviction timeout
//!   ([`with_eviction`](FailureDetector::with_eviction)): a suspected
//!   worker that stays silent for `evict_after` further misses is
//!   *permanently* evicted — unlike suspicion, eviction is a verdict and
//!   is never reversed by a late message.

use std::collections::{BTreeMap, BTreeSet};

/// Outcome of feeding one observation to the detector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Liveness {
    /// No state transition.
    Unchanged,
    /// The worker just crossed the miss threshold and is now suspected.
    Suspected,
    /// A previously suspected worker was heard from again.
    Rejoined,
    /// The worker exhausted the eviction timeout and is now permanently
    /// removed — no future message can bring it back.
    Evicted,
}

/// Per-worker consecutive-miss tracking, keyed by worker id.
#[derive(Clone, Debug)]
pub struct FailureDetector {
    misses: BTreeMap<usize, u32>,
    suspected: BTreeSet<usize>,
    evicted: BTreeSet<usize>,
    threshold: u32,
    evict_after: u32,
}

impl FailureDetector {
    /// A detector initially tracking worker ids `0..workers` that suspects
    /// after `threshold` consecutive missed deadlines. Errors when
    /// `threshold == 0` (every worker would be suspected before its first
    /// deadline).
    pub fn new(workers: usize, threshold: u32) -> Result<Self, String> {
        if threshold == 0 {
            return Err("suspect threshold must be at least 1".to_string());
        }
        Ok(FailureDetector {
            misses: (0..workers).map(|w| (w, 0)).collect(),
            suspected: BTreeSet::new(),
            evicted: BTreeSet::new(),
            threshold,
            evict_after: 0,
        })
    }

    /// Enables permanent eviction: a suspected worker accumulating
    /// `evict_after` further consecutive misses (i.e. `threshold +
    /// evict_after` in total) is evicted for good. `0` disables eviction
    /// (the default) — suspicion then stays indefinitely reversible.
    pub fn with_eviction(mut self, evict_after: u32) -> Self {
        self.evict_after = evict_after;
        self
    }

    /// Starts tracking a newly joined worker (fresh miss streak).
    /// Re-tracking a known worker is a no-op; evicted ids stay evicted.
    pub fn track(&mut self, worker: usize) {
        if !self.evicted.contains(&worker) {
            self.misses.entry(worker).or_insert(0);
        }
    }

    /// Stops tracking a gracefully departed worker. Unlike eviction this
    /// carries no verdict: the id could be tracked again later.
    pub fn forget(&mut self, worker: usize) {
        self.misses.remove(&worker);
        self.suspected.remove(&worker);
    }

    /// Number of workers tracked (evicted workers included — their ids
    /// remain occupied).
    pub fn workers(&self) -> usize {
        self.misses.len()
    }

    /// Feeds "worker answered before its deadline". Untracked and evicted
    /// workers are ignored.
    pub fn heard(&mut self, worker: usize) -> Liveness {
        if self.evicted.contains(&worker) {
            return Liveness::Unchanged;
        }
        match self.misses.get_mut(&worker) {
            Some(m) => *m = 0,
            None => return Liveness::Unchanged,
        }
        if self.suspected.remove(&worker) {
            Liveness::Rejoined
        } else {
            Liveness::Unchanged
        }
    }

    /// Feeds "worker missed its deadline". Untracked and evicted workers
    /// are ignored.
    pub fn missed(&mut self, worker: usize) -> Liveness {
        if self.evicted.contains(&worker) {
            return Liveness::Unchanged;
        }
        let m = match self.misses.get_mut(&worker) {
            Some(m) => m,
            None => return Liveness::Unchanged,
        };
        *m = m.saturating_add(1);
        let streak = *m;
        if !self.suspected.contains(&worker) && streak >= self.threshold {
            self.suspected.insert(worker);
            Liveness::Suspected
        } else if self.suspected.contains(&worker)
            && self.evict_after > 0
            && streak >= self.threshold.saturating_add(self.evict_after)
        {
            self.evicted.insert(worker);
            Liveness::Evicted
        } else {
            Liveness::Unchanged
        }
    }

    /// Whether `worker` is currently suspected (evicted workers count as
    /// suspected, so existing skip-suspects filters exclude them too).
    pub fn is_suspected(&self, worker: usize) -> bool {
        self.suspected.contains(&worker)
    }

    /// Whether `worker` has been permanently evicted.
    pub fn is_evicted(&self, worker: usize) -> bool {
        self.evicted.contains(&worker)
    }

    /// Currently suspected worker ids, ascending (evicted included).
    pub fn suspected(&self) -> Vec<usize> {
        self.suspected.iter().copied().collect()
    }

    /// Permanently evicted worker ids, ascending.
    pub fn evicted(&self) -> Vec<usize> {
        self.evicted.iter().copied().collect()
    }

    /// Tracked, unsuspected worker ids, ascending.
    pub fn unsuspected(&self) -> Vec<usize> {
        self.misses
            .keys()
            .copied()
            .filter(|w| !self.suspected.contains(w))
            .collect()
    }

    /// Number of currently suspected workers (evicted included).
    pub fn suspected_count(&self) -> usize {
        self.suspected.len()
    }

    /// Number of permanently evicted workers.
    pub fn evicted_count(&self) -> usize {
        self.evicted.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suspects_after_consecutive_misses_only() {
        let mut d = FailureDetector::new(3, 2).unwrap();
        assert_eq!(d.missed(1), Liveness::Unchanged);
        assert_eq!(d.heard(1), Liveness::Unchanged, "heard resets the streak");
        assert_eq!(d.missed(1), Liveness::Unchanged);
        assert_eq!(d.missed(1), Liveness::Suspected);
        assert!(d.is_suspected(1));
        assert_eq!(d.missed(1), Liveness::Unchanged, "no re-suspect");
        assert_eq!(d.suspected(), vec![1]);
        assert_eq!(d.unsuspected(), vec![0, 2]);
        assert_eq!(d.suspected_count(), 1);
    }

    #[test]
    fn rejoin_on_next_message() {
        let mut d = FailureDetector::new(2, 1).unwrap();
        assert_eq!(d.missed(0), Liveness::Suspected);
        assert_eq!(d.heard(0), Liveness::Rejoined);
        assert!(!d.is_suspected(0));
        // A fresh miss streak is needed to re-suspect.
        assert_eq!(d.missed(0), Liveness::Suspected);
    }

    #[test]
    fn zero_threshold_rejected() {
        let err = FailureDetector::new(2, 0).unwrap_err();
        assert!(err.contains("at least 1"), "got: {err}");
    }

    #[test]
    fn track_and_forget_follow_membership() {
        let mut d = FailureDetector::new(2, 1).unwrap();
        assert_eq!(d.workers(), 2);
        // A joiner appears with a fresh streak.
        d.track(5);
        assert_eq!(d.workers(), 3);
        assert_eq!(d.unsuspected(), vec![0, 1, 5]);
        assert_eq!(d.missed(5), Liveness::Suspected);
        // A graceful leaver disappears entirely.
        d.forget(5);
        assert_eq!(d.workers(), 2);
        assert!(!d.is_suspected(5));
        assert_eq!(d.missed(5), Liveness::Unchanged, "untracked ids ignored");
        // Untracked heard is a no-op too.
        assert_eq!(d.heard(9), Liveness::Unchanged);
    }

    #[test]
    fn eviction_is_permanent() {
        let mut d = FailureDetector::new(2, 2).unwrap().with_eviction(2);
        assert_eq!(d.missed(0), Liveness::Unchanged);
        assert_eq!(d.missed(0), Liveness::Suspected);
        assert_eq!(d.missed(0), Liveness::Unchanged, "one miss into timeout");
        assert_eq!(d.missed(0), Liveness::Evicted);
        assert!(d.is_evicted(0));
        assert!(d.is_suspected(0), "evicted stays in the suspect filter");
        assert_eq!(d.evicted(), vec![0]);
        assert_eq!(d.evicted_count(), 1);
        // No resurrection: late messages and further misses are ignored.
        assert_eq!(d.heard(0), Liveness::Unchanged);
        assert!(d.is_evicted(0));
        assert_eq!(d.missed(0), Liveness::Unchanged);
        // Tracking the id again does not clear the verdict.
        d.track(0);
        assert!(d.is_evicted(0));
        assert_eq!(d.unsuspected(), vec![1]);
    }

    #[test]
    fn eviction_disabled_by_default() {
        let mut d = FailureDetector::new(1, 1).unwrap();
        for _ in 0..100 {
            let l = d.missed(0);
            assert_ne!(l, Liveness::Evicted);
        }
        assert!(!d.is_evicted(0));
        assert_eq!(d.heard(0), Liveness::Rejoined, "still reversible");
    }

    #[test]
    fn suspicion_survives_membership_growth() {
        // The regression the map-keyed storage fixes: ids beyond the
        // construction-time count must not panic.
        let mut d = FailureDetector::new(2, 1).unwrap();
        assert_eq!(d.missed(7), Liveness::Unchanged, "unknown id, no panic");
        d.track(7);
        assert_eq!(d.missed(7), Liveness::Suspected);
        assert_eq!(d.suspected(), vec![7]);
    }
}
