//! Fault injection: fail-stop crashes (paper §V-B.3) and lossy-network
//! faults (drops, duplication, bounded delay, partitions).
//!
//! Two layers live here:
//!
//! * [`CrashSchedule`] — the paper's *oracle* crash model: a predetermined
//!   `(iteration, worker)` list every node can consult. A crashed worker
//!   leaves the computation *and its data shard disappears*.
//! * [`FaultPlan`] / [`FaultState`] — a seeded, deterministic model of an
//!   imperfect network. Every data-carrying send draws a [`Fate`] from a
//!   pure hash of `(seed, from, to, per-link sequence number)`, so the
//!   *same* faults hit the *same* logical messages no matter which runtime
//!   (sequential, threaded, async) replays the plan or how OS threads
//!   interleave. Nothing here consults a clock.

use crate::stats::TrafficStats;
use md_telemetry::{Counter, Recorder, SpanKind, TraceCtx, Track};
use md_tensor::rng::Rng64;
use std::sync::atomic::{AtomicU64, Ordering};

/// A predetermined schedule of worker crashes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CrashSchedule {
    /// `(iteration, worker_id)` pairs, sorted by iteration. The worker is
    /// considered dead *from* that global iteration (inclusive).
    events: Vec<(usize, usize)>,
    /// Per-worker crash iteration, indexed by worker id (a worker crashes
    /// at most once, so one `Option` per id suffices). Precomputed so the
    /// per-iteration liveness checks are O(1) instead of O(events).
    crash_at: Vec<Option<usize>>,
}

impl CrashSchedule {
    /// No crashes.
    pub fn none() -> Self {
        CrashSchedule::default()
    }

    /// Explicit schedule.
    ///
    /// # Panics
    /// Panics if a worker crashes twice.
    pub fn new(mut events: Vec<(usize, usize)>) -> Self {
        events.sort_unstable();
        let max_worker = events.iter().map(|&(_, w)| w).max().unwrap_or(0);
        let mut crash_at: Vec<Option<usize>> = vec![None; max_worker + 1];
        for &(at, w) in &events {
            assert!(crash_at[w].is_none(), "a worker crashes twice");
            crash_at[w] = Some(at);
        }
        CrashSchedule { events, crash_at }
    }

    /// The paper's Figure 5 pattern: one worker crashes every
    /// `total_iters / workers` iterations, in a random order, so that by
    /// `total_iters` every worker has crashed.
    pub fn every_quantile(total_iters: usize, workers: usize, rng: &mut Rng64) -> Self {
        assert!(workers > 0);
        let interval = (total_iters / workers).max(1);
        let order = rng.permutation(workers);
        let events = order
            .into_iter()
            .enumerate()
            .map(|(k, w)| ((k + 1) * interval, w + 1)) // worker ids are 1-based
            .collect();
        CrashSchedule::new(events)
    }

    /// All crash events, sorted by iteration.
    pub fn events(&self) -> &[(usize, usize)] {
        &self.events
    }

    /// The iteration `worker` crashes at, if it ever does.
    pub fn crash_iter(&self, worker: usize) -> Option<usize> {
        self.crash_at.get(worker).copied().flatten()
    }

    /// True iff `worker` is dead at global iteration `iter`.
    pub fn is_crashed(&self, worker: usize, iter: usize) -> bool {
        self.crash_iter(worker).is_some_and(|at| iter >= at)
    }

    /// Worker ids still alive at `iter` out of `1..=workers`.
    pub fn alive_at(&self, workers: usize, iter: usize) -> Vec<usize> {
        (1..=workers)
            .filter(|&w| !self.is_crashed(w, iter))
            .collect()
    }

    /// Number of crashes that have happened strictly before or at `iter`.
    pub fn crashed_count(&self, iter: usize) -> usize {
        self.events.iter().filter(|&&(at, _)| iter >= at).count()
    }
}

/// What the simulated network does with one send attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fate {
    /// Delivered intact.
    Deliver,
    /// Lost. The sender never learns why.
    Drop,
    /// Delivered, plus a spurious second copy (the transport layer dedups
    /// it at the receiver, but the bytes moved).
    Duplicate,
    /// Delivered after `ticks ≥ 1` virtual ticks of extra latency.
    ///
    /// One tick is one global iteration. The synchronous runtimes gather
    /// exactly the answers they are owed at a barrier and sort them by
    /// sender, so a delay reorders nothing observable; it is *counted* (the
    /// message was late on the wire) but delivered in place. A message too
    /// late to be useful is what the drop probability models.
    Delay {
        /// Extra latency in virtual ticks.
        ticks: u32,
    },
}

/// What a partition covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionScope {
    /// One direction of one link.
    Link {
        /// Sending node.
        from: usize,
        /// Receiving node.
        to: usize,
    },
    /// Every link touching this node (both directions).
    Node(usize),
}

/// A network partition over a half-open window of virtual ticks
/// (`[start, end)`, one tick = one global iteration). Every send crossing
/// the partition during the window is dropped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Partition {
    /// What is cut off.
    pub scope: PartitionScope,
    /// First tick the partition is active (inclusive).
    pub start: u64,
    /// First tick the partition is healed (exclusive).
    pub end: u64,
}

impl Partition {
    /// A one-directional link partition over `[start, end)`.
    pub fn link(from: usize, to: usize, start: u64, end: u64) -> Self {
        Partition {
            scope: PartitionScope::Link { from, to },
            start,
            end,
        }
    }

    /// A node partition (all links touching `node`) over `[start, end)`.
    pub fn node(node: usize, start: u64, end: u64) -> Self {
        Partition {
            scope: PartitionScope::Node(node),
            start,
            end,
        }
    }

    fn cuts(&self, from: usize, to: usize, tick: u64) -> bool {
        if tick < self.start || tick >= self.end {
            return false;
        }
        match self.scope {
            PartitionScope::Link { from: f, to: t } => f == from && t == to,
            PartitionScope::Node(n) => n == from || n == to,
        }
    }
}

/// A seeded, deterministic description of an imperfect network.
///
/// Fates are a pure function of `(seed, from, to, link sequence number)`
/// plus the partition windows (checked against the sender's virtual tick),
/// so a plan replays identically across runtimes and thread interleavings.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Fate-stream seed.
    pub seed: u64,
    /// Per-attempt drop probability in `[0, 1]`.
    pub drop: f32,
    /// Per-attempt duplication probability.
    pub duplicate: f32,
    /// Per-attempt delay probability.
    pub delay: f32,
    /// Upper bound on injected delay, in virtual ticks (≥ 1 when `delay`
    /// is non-zero).
    pub max_delay_ticks: u32,
    /// Link/node partitions over iteration windows.
    pub partitions: Vec<Partition>,
}

impl FaultPlan {
    /// A perfect network (the default).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plain lossy network: `drop` probability, no duplication, no
    /// delays, no partitions.
    pub fn lossy(seed: u64, drop: f32) -> Self {
        FaultPlan {
            seed,
            drop,
            ..FaultPlan::default()
        }
    }

    /// True iff the plan can never inject a fault.
    pub fn is_none(&self) -> bool {
        self.drop <= 0.0 && self.duplicate <= 0.0 && self.delay <= 0.0 && self.partitions.is_empty()
    }

    /// The fate of send attempt `seq` on link `from → to` at virtual tick
    /// `tick`. Pure: same inputs, same fate, on every runtime.
    pub fn fate(&self, from: usize, to: usize, seq: u64, tick: u64) -> Fate {
        if self.partitions.iter().any(|p| p.cuts(from, to, tick)) {
            return Fate::Drop;
        }
        if self.drop <= 0.0 && self.duplicate <= 0.0 && self.delay <= 0.0 {
            return Fate::Deliver;
        }
        let link = splitmix(self.seed ^ splitmix(((from as u64) << 32) ^ to as u64 ^ 0x11CC));
        let h = splitmix(link ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // 53 uniform bits → [0, 1).
        let r = (h >> 11) as f64 / (1u64 << 53) as f64;
        let p_drop = f64::from(self.drop.clamp(0.0, 1.0));
        let p_dup = f64::from(self.duplicate.clamp(0.0, 1.0));
        let p_delay = f64::from(self.delay.clamp(0.0, 1.0));
        if r < p_drop {
            Fate::Drop
        } else if r < p_drop + p_dup {
            Fate::Duplicate
        } else if r < p_drop + p_dup + p_delay {
            let span = self.max_delay_ticks.max(1) as u64;
            Fate::Delay {
                ticks: 1 + (splitmix(h) % span) as u32,
            }
        } else {
            Fate::Deliver
        }
    }
}

/// SplitMix64 finalizer — the fate hash (shared with the churn-plan
/// generator in [`crate::membership`]).
pub(crate) fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The outcome of one *logical* data send (after bounded retransmission).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// The payload reached the receiver.
    pub delivered: bool,
    /// A spurious duplicate copy also reached the receiver.
    pub duplicated: bool,
    /// The delivered copy was late on the wire.
    pub delayed: bool,
    /// Send attempts consumed (1 + retransmissions).
    pub attempts: u32,
}

/// A [`FaultPlan`] instantiated for a cluster: per-link sequence counters
/// that hand every attempt its own fate draw.
///
/// The counters are atomics so the threaded runtime can share one state
/// across node threads; each link has a single sender, so its sequence is
/// still consumed in a deterministic order.
#[derive(Debug)]
pub struct FaultState {
    plan: FaultPlan,
    nodes: usize,
    seqs: Vec<AtomicU64>,
}

impl FaultState {
    /// Instantiates `plan` for a cluster of `nodes` nodes (server
    /// included).
    pub fn new(plan: FaultPlan, nodes: usize) -> Self {
        FaultState {
            plan,
            nodes,
            seqs: (0..nodes * nodes).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// The underlying plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Draws the fate of the next attempt on link `from → to`.
    pub fn next_fate(&self, from: usize, to: usize, tick: u64) -> Fate {
        let seq = self.seqs[from * self.nodes + to].fetch_add(1, Ordering::Relaxed);
        self.plan.fate(from, to, seq, tick)
    }

    /// Resolves one logical data send with a simulated stop-and-wait
    /// ack/retry loop: up to `1 + retries` attempts, each drawing its own
    /// fate and charging its own wire bytes. All fault accounting — sent /
    /// dropped / duplicated / delayed / retry counters in `stats` and
    /// `telemetry` — happens here, so every runtime charges identically.
    ///
    /// `deliver` is invoked once per copy that reaches the receiver: the
    /// first argument marks spurious duplicates, the second is the trace
    /// span id of the delivering send attempt (`0` when untraced); callers
    /// enqueue or apply the payload there. Injected delays are counted but
    /// delivered in place — see [`Fate::Delay`] for why that is sound at
    /// the runtimes' barriers.
    ///
    /// When `ctx` carries a trace and `telemetry` has tracing enabled,
    /// every attempt records an instant span on the sender's track:
    /// dropped attempts as `drop`, retransmissions as `retry` chained to
    /// the drop they replace, the delivering attempt as `send`/`retry`
    /// whose span id rides to the receiver — so a dropped-then-retried
    /// message exports as a linked causal chain.
    #[allow(clippy::too_many_arguments)]
    pub fn transmit(
        &self,
        from: usize,
        to: usize,
        tick: u64,
        bytes: u64,
        retries: u32,
        stats: &TrafficStats,
        telemetry: Option<&Recorder>,
        ctx: TraceCtx,
        mut deliver: impl FnMut(bool, u64),
    ) -> Delivery {
        let track = Track::node(from);
        // The causal chain through the retry loop: attempt N hangs off
        // attempt N-1's span (the drop it answers); attempt 1 hangs off
        // the caller's context.
        let mut link = ctx;
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            stats.record_attempt(from, to, bytes);
            if let Some(t) = telemetry {
                t.incr(Counter::MsgsSent, 1);
                t.incr(Counter::BytesSent, bytes);
            }
            match self.next_fate(from, to, tick) {
                Fate::Drop => {
                    stats.record_dropped(bytes);
                    if let Some(t) = telemetry {
                        t.incr(Counter::MsgsDropped, 1);
                        let dropped = t.trace_instant(
                            SpanKind::Dropped {
                                to: to as u32,
                                attempt: attempts,
                            },
                            track,
                            link,
                            tick,
                        );
                        if dropped != 0 {
                            link = TraceCtx {
                                trace: link.trace,
                                span: dropped,
                            };
                        }
                    }
                    if attempts <= retries {
                        stats.record_retry();
                        if let Some(t) = telemetry {
                            t.incr(Counter::Retries, 1);
                        }
                        continue;
                    }
                    return Delivery {
                        delivered: false,
                        duplicated: false,
                        delayed: false,
                        attempts,
                    };
                }
                fate @ (Fate::Deliver | Fate::Duplicate | Fate::Delay { .. }) => {
                    stats.record_delivery(to, bytes);
                    let sent = telemetry.map_or(0, |t| {
                        t.trace_instant(
                            SpanKind::Send {
                                to: to as u32,
                                bytes,
                                attempt: attempts,
                            },
                            track,
                            link,
                            tick,
                        )
                    });
                    deliver(false, sent);
                    let duplicated = fate == Fate::Duplicate;
                    let delayed = matches!(fate, Fate::Delay { .. });
                    if duplicated {
                        stats.record_duplicated(bytes);
                        if let Some(t) = telemetry {
                            t.incr(Counter::MsgsDuplicated, 1);
                            t.trace_instant(
                                SpanKind::Dup { to: to as u32 },
                                track,
                                TraceCtx {
                                    trace: link.trace,
                                    span: sent,
                                },
                                tick,
                            );
                        }
                        // The spurious copy is transport-deduped at the
                        // receiver; it never becomes a recv span.
                        deliver(true, 0);
                    }
                    if delayed {
                        stats.record_delayed();
                        if let Some(t) = telemetry {
                            t.incr(Counter::MsgsDelayed, 1);
                        }
                    }
                    return Delivery {
                        delivered: true,
                        duplicated,
                        delayed,
                        attempts,
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_keeps_everyone_alive() {
        let s = CrashSchedule::none();
        assert_eq!(s.alive_at(5, 1_000_000), vec![1, 2, 3, 4, 5]);
        assert!(!s.is_crashed(3, 99));
        assert_eq!(s.crash_iter(3), None);
    }

    #[test]
    fn explicit_schedule_applies_from_iteration() {
        let s = CrashSchedule::new(vec![(10, 2), (5, 1)]);
        assert!(!s.is_crashed(1, 4));
        assert!(s.is_crashed(1, 5));
        assert!(s.is_crashed(1, 6));
        assert!(!s.is_crashed(2, 9));
        assert!(s.is_crashed(2, 10));
        assert_eq!(s.alive_at(3, 7), vec![2, 3]);
        assert_eq!(s.crashed_count(10), 2);
    }

    #[test]
    fn crash_iter_matches_events() {
        let s = CrashSchedule::new(vec![(10, 2), (5, 1), (99, 7)]);
        assert_eq!(s.crash_iter(1), Some(5));
        assert_eq!(s.crash_iter(2), Some(10));
        assert_eq!(s.crash_iter(7), Some(99));
        assert_eq!(s.crash_iter(3), None);
        // Ids past the precomputed table are simply never-crashing.
        assert_eq!(s.crash_iter(1000), None);
        assert!(!s.is_crashed(1000, usize::MAX));
    }

    #[test]
    fn every_quantile_kills_everyone_by_the_end() {
        let mut rng = Rng64::seed_from_u64(1);
        let s = CrashSchedule::every_quantile(100, 4, &mut rng);
        assert_eq!(s.events().len(), 4);
        // Crash iterations are 25, 50, 75, 100.
        let iters: Vec<usize> = s.events().iter().map(|&(i, _)| i).collect();
        assert_eq!(iters, vec![25, 50, 75, 100]);
        assert_eq!(s.alive_at(4, 100), Vec::<usize>::new());
        assert_eq!(s.alive_at(4, 24), vec![1, 2, 3, 4]);
        assert_eq!(s.alive_at(4, 60).len(), 2);
    }

    #[test]
    fn every_quantile_is_seed_deterministic() {
        let a = CrashSchedule::every_quantile(1000, 10, &mut Rng64::seed_from_u64(3));
        let b = CrashSchedule::every_quantile(1000, 10, &mut Rng64::seed_from_u64(3));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "crashes twice")]
    fn double_crash_rejected() {
        CrashSchedule::new(vec![(1, 1), (2, 1)]);
    }

    #[test]
    fn fate_is_a_pure_function() {
        let plan = FaultPlan {
            seed: 9,
            drop: 0.2,
            duplicate: 0.1,
            delay: 0.1,
            max_delay_ticks: 4,
            partitions: vec![],
        };
        for seq in 0..200 {
            assert_eq!(plan.fate(0, 3, seq, 0), plan.fate(0, 3, seq, 7));
        }
        // Different links get independent streams.
        let a: Vec<Fate> = (0..64).map(|s| plan.fate(0, 1, s, 0)).collect();
        let b: Vec<Fate> = (0..64).map(|s| plan.fate(1, 0, s, 0)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn fate_frequencies_track_probabilities() {
        let plan = FaultPlan {
            seed: 4,
            drop: 0.25,
            duplicate: 0.1,
            delay: 0.05,
            max_delay_ticks: 3,
            partitions: vec![],
        };
        let n = 20_000u64;
        let mut drops = 0;
        let mut dups = 0;
        let mut delays = 0;
        for seq in 0..n {
            match plan.fate(0, 1, seq, 0) {
                Fate::Drop => drops += 1,
                Fate::Duplicate => dups += 1,
                Fate::Delay { ticks } => {
                    assert!((1..=3).contains(&ticks));
                    delays += 1;
                }
                Fate::Deliver => {}
            }
        }
        let frac = |c: u64| c as f64 / n as f64;
        assert!((frac(drops) - 0.25).abs() < 0.02, "drops {drops}");
        assert!((frac(dups) - 0.10).abs() < 0.02, "dups {dups}");
        assert!((frac(delays) - 0.05).abs() < 0.02, "delays {delays}");
    }

    #[test]
    fn partitions_cut_links_and_nodes_in_window() {
        let plan = FaultPlan {
            partitions: vec![Partition::link(0, 2, 3, 6), Partition::node(1, 10, 12)],
            ..FaultPlan::none()
        };
        // Link partition: only 0→2 inside [3, 6).
        assert_eq!(plan.fate(0, 2, 0, 2), Fate::Deliver);
        assert_eq!(plan.fate(0, 2, 1, 3), Fate::Drop);
        assert_eq!(plan.fate(0, 2, 2, 5), Fate::Drop);
        assert_eq!(plan.fate(0, 2, 3, 6), Fate::Deliver);
        assert_eq!(plan.fate(2, 0, 0, 4), Fate::Deliver, "reverse direction");
        // Node partition: both directions of every link touching node 1.
        assert_eq!(plan.fate(0, 1, 9, 10), Fate::Drop);
        assert_eq!(plan.fate(1, 0, 0, 11), Fate::Drop);
        assert_eq!(plan.fate(1, 2, 0, 11), Fate::Drop);
        assert_eq!(plan.fate(0, 2, 9, 11), Fate::Deliver);
        assert_eq!(plan.fate(0, 1, 9, 12), Fate::Deliver);
    }

    #[test]
    fn transmit_retries_and_conserves_bytes() {
        // Always-drop plan: every attempt is burned, nothing delivered.
        let state = FaultState::new(FaultPlan::lossy(1, 1.0), 3);
        let stats = TrafficStats::new(3);
        let mut delivered = 0;
        let d = state.transmit(0, 1, 0, 100, 2, &stats, None, TraceCtx::NONE, |_, _| {
            delivered += 1
        });
        assert!(!d.delivered);
        assert_eq!(d.attempts, 3);
        assert_eq!(delivered, 0);
        let r = stats.report();
        assert_eq!(r.bytes_sent(), 300);
        assert_eq!(r.dropped_bytes, 300);
        assert_eq!(r.bytes_delivered(), 0);
        assert_eq!(r.retries, 2);
        assert_eq!(r.dropped_msgs, 3);
    }

    #[test]
    fn transmit_duplicates_are_accounted_separately() {
        // duplicate = 1.0: first attempt always delivers + duplicates.
        let plan = FaultPlan {
            seed: 2,
            duplicate: 1.0,
            ..FaultPlan::none()
        };
        let state = FaultState::new(plan, 2);
        let stats = TrafficStats::new(2);
        let mut copies = Vec::new();
        let d = state.transmit(0, 1, 0, 40, 2, &stats, None, TraceCtx::NONE, |dup, _| {
            copies.push(dup)
        });
        assert!(d.delivered && d.duplicated);
        assert_eq!(copies, vec![false, true]);
        let r = stats.report();
        assert_eq!(r.bytes_sent(), 40);
        assert_eq!(r.bytes_delivered(), 40, "dup copy not in ingress");
        assert_eq!(r.dup_bytes, 40);
        assert_eq!(r.dup_msgs, 1);
        assert_eq!(r.dropped_bytes, 0);
    }

    #[test]
    fn fault_state_streams_are_interleaving_independent() {
        // Consuming link (0,1) must not perturb link (0,2)'s fates.
        let plan = FaultPlan {
            seed: 11,
            drop: 0.5,
            ..FaultPlan::none()
        };
        let solo = FaultState::new(plan.clone(), 3);
        let fates_a: Vec<Fate> = (0..32).map(|_| solo.next_fate(0, 2, 0)).collect();
        let mixed = FaultState::new(plan, 3);
        let mut fates_b = Vec::new();
        for _ in 0..32 {
            let _ = mixed.next_fate(0, 1, 0);
            fates_b.push(mixed.next_fate(0, 2, 0));
            let _ = mixed.next_fate(1, 0, 0);
        }
        assert_eq!(fates_a, fates_b);
    }
}
