//! Causal tracing: span records, per-thread buffers, critical-path
//! extraction.
//!
//! A **trace** is one generator iteration: every span produced while the
//! iteration is in flight — phase timers on the server, discriminator
//! feedback on the workers, and each wire-level send attempt in between —
//! carries the iteration's trace id (`iteration + 1`, so `0` means
//! "untraced") plus its own span id and its parent's. Message envelopes
//! carry a [`TraceCtx`] across node boundaries, which is how a feedback
//! `recv` on the server links back to the `send` attempt on the worker,
//! and how a retransmission links back to the dropped attempt it replaces
//! (see `simnet`). Spans are stamped with both clocks: wall nanoseconds
//! since the recorder was created, and the *virtual tick* (global
//! iteration) the fault layer draws fates at.
//!
//! Recording is designed for the hot path: each OS thread writes to its
//! own buffer shard, so a push is one uncontended mutex acquire plus a
//! `Vec` push — there is no cross-thread contention by construction, and
//! nothing is serialized until [`Tracer::collect`]. When tracing is off,
//! every probe folds into the recorder's usual single-branch guard.

use crate::recorder::Phase;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// A span's coordinates, carried across threads inside message envelopes.
///
/// `trace` is the owning generator iteration plus one (`0` = untraced);
/// `span` is the parent span id for anything recorded under this context.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCtx {
    /// Trace id: generator iteration + 1; `0` means "no trace".
    pub trace: u64,
    /// Parent span id; `0` means "root".
    pub span: u64,
}

impl TraceCtx {
    /// The absent context: everything recorded under it is untraced.
    pub const NONE: TraceCtx = TraceCtx { trace: 0, span: 0 };

    /// True iff this context carries no trace.
    pub fn is_none(&self) -> bool {
        self.trace == 0
    }
}

/// The timeline a span is drawn on in the exported trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Track {
    /// The central server (node 0).
    Server,
    /// A worker node (1-based node id).
    Worker(u32),
    /// A tensor-pool helper thread (0-based slot).
    Pool(u32),
}

impl Track {
    /// The track of simulated node `id` (0 = server).
    pub fn node(id: usize) -> Track {
        if id == 0 {
            Track::Server
        } else {
            Track::Worker(id as u32)
        }
    }

    /// Stable numeric id used as the Chrome-trace `tid`. Server is 0,
    /// workers keep their node id, pool threads live at 1000+slot.
    pub fn tid(&self) -> u64 {
        match self {
            Track::Server => 0,
            Track::Worker(w) => u64::from(*w),
            Track::Pool(p) => 1000 + u64::from(*p),
        }
    }

    /// Human-readable track name for the trace viewer.
    pub fn name(&self) -> String {
        match self {
            Track::Server => "server".to_string(),
            Track::Worker(w) => format!("worker {w}"),
            Track::Pool(p) => format!("pool {p}"),
        }
    }
}

/// What a span measures. Wire-level kinds carry their message metadata so
/// the exporter and the critical-path extractor need no side tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// Root span of one generator iteration.
    Iter,
    /// A phase timer (same taxonomy as the histograms).
    Phase(Phase),
    /// A send attempt that reached the receiver's queue. `attempt` is
    /// 1-based; attempts past the first are retransmissions.
    Send {
        /// Destination node.
        to: u32,
        /// Wire bytes charged.
        bytes: u64,
        /// 1-based attempt number (>1 = retransmission).
        attempt: u32,
    },
    /// A message popped from the receiver's queue; `parent` links to the
    /// delivering [`SpanKind::Send`].
    Recv {
        /// Originating node.
        from: u32,
        /// Wire bytes charged.
        bytes: u64,
    },
    /// A send attempt lost to the fault layer.
    Dropped {
        /// Intended destination node.
        to: u32,
        /// 1-based attempt number.
        attempt: u32,
    },
    /// A spurious duplicate copy injected by the fault layer.
    Dup {
        /// Destination node.
        to: u32,
    },
    /// One tensor-pool job slice executed by a helper thread.
    PoolTask,
}

impl SpanKind {
    /// Stable snake_case name (used in the exported trace).
    pub fn name(&self) -> &'static str {
        match self {
            SpanKind::Iter => "iter",
            SpanKind::Phase(p) => p.as_str(),
            SpanKind::Send { attempt, .. } if *attempt > 1 => "retry",
            SpanKind::Send { .. } => "send",
            SpanKind::Recv { .. } => "recv",
            SpanKind::Dropped { .. } => "drop",
            SpanKind::Dup { .. } => "dup",
            SpanKind::PoolTask => "pool_task",
        }
    }
}

/// One recorded span. `t0_ns == t1_ns` marks an instant event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpanRecord {
    /// Owning trace (iteration + 1).
    pub trace: u64,
    /// This span's unique id (never 0).
    pub span: u64,
    /// Parent span id (0 = root of its trace).
    pub parent: u64,
    /// What was measured.
    pub kind: SpanKind,
    /// Timeline the span belongs to.
    pub track: Track,
    /// Start, in wall nanoseconds since recorder creation.
    pub t0_ns: u64,
    /// End, in wall nanoseconds since recorder creation.
    pub t1_ns: u64,
    /// Virtual tick (global iteration) the span executed at.
    pub tick: u64,
}

/// Shards are chosen per *thread*, so pushes never contend: the shard
/// count only bounds how many threads can write concurrently without
/// sharing (a 10-worker run uses ~12 threads).
const SHARDS: usize = 64;

/// Hard cap on retained spans (~64 B each → a few MB at worst); pushes
/// beyond it are counted, not stored.
const SPAN_CAP: u64 = 1 << 20;

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn shard_index() -> usize {
    MY_SHARD.with(|s| {
        let mut i = s.get();
        if i == usize::MAX {
            i = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
            s.set(i);
        }
        i
    })
}

/// Span sink: per-thread buffer shards plus the span-id allocator.
/// Owned by the `Recorder`; runtimes talk to it through recorder probes.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    next_id: AtomicU64,
    len: AtomicU64,
    dropped: AtomicU64,
    shards: Vec<Mutex<Vec<SpanRecord>>>,
}

impl Tracer {
    pub(crate) fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            next_id: AtomicU64::new(1),
            len: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            shards: (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Whether span capture is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Allocates a fresh span id (never 0).
    pub(crate) fn mint(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Stores one finished span into the calling thread's shard.
    pub(crate) fn push(&self, rec: SpanRecord) {
        if self.len.fetch_add(1, Ordering::Relaxed) >= SPAN_CAP {
            self.len.fetch_sub(1, Ordering::Relaxed);
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut shard = self.shards[shard_index()].lock().unwrap();
        shard.push(rec);
    }

    /// Spans discarded because the cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Number of retained spans.
    pub fn len(&self) -> u64 {
        self.len.load(Ordering::Relaxed)
    }

    /// True iff nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies out every retained span, ordered by start time (ties by
    /// span id, so the order is total and stable).
    pub fn collect(&self) -> Vec<SpanRecord> {
        let mut out = Vec::with_capacity(self.len() as usize);
        for shard in &self.shards {
            out.extend(shard.lock().unwrap().iter().copied());
        }
        out.sort_by_key(|s| (s.t0_ns, s.span));
        out
    }
}

// ---------------------------------------------------------------------------
// Critical-path extraction
// ---------------------------------------------------------------------------

/// Who gated one generator update, and by how much.
#[derive(Clone, Debug, PartialEq)]
pub struct IterCritical {
    /// Generator iteration.
    pub iter: u64,
    /// Worker whose feedback arrived last (the update could not start
    /// earlier than this arrival).
    pub gating_worker: u32,
    /// Arrival time of the gating feedback (ns since recorder start).
    pub gate_ns: u64,
    /// Per-worker slack: how much earlier than the gate each worker's
    /// feedback arrived, `(worker, ns)`, ascending by worker.
    pub slack_ns: Vec<(u32, u64)>,
    /// Retransmissions burned on the gating worker's uplink this
    /// iteration.
    pub retries: u32,
    /// Wall-clock delay attributable to those retransmissions: time from
    /// the first uplink attempt to the delivering one.
    pub retry_delay_ns: u64,
}

/// Per-worker aggregate over every analyzed iteration.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkerCritical {
    /// Worker node id.
    pub worker: u32,
    /// Iterations this worker was the gate of.
    pub gated: u64,
    /// Iterations this worker's feedback was observed in.
    pub observed: u64,
    /// Sum of this worker's slack over observed iterations (ns).
    pub slack_sum_ns: u64,
    /// Largest slack observed (ns).
    pub slack_max_ns: u64,
    /// Total uplink retransmissions attributed to this worker.
    pub retries: u64,
}

impl WorkerCritical {
    /// Mean slack over observed iterations (ns).
    pub fn slack_mean_ns(&self) -> u64 {
        self.slack_sum_ns.checked_div(self.observed).unwrap_or(0)
    }
}

/// The per-iteration gating analysis plus its per-worker rollup.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CriticalPathReport {
    /// One entry per iteration that had at least one traced feedback
    /// arrival, ascending by iteration.
    pub iters: Vec<IterCritical>,
    /// Per-worker rollup, ascending by worker id.
    pub per_worker: Vec<WorkerCritical>,
}

impl CriticalPathReport {
    /// Extracts the report from a span dump.
    ///
    /// Per trace (iteration): feedback arrivals are `recv` spans on the
    /// server track; the gate is the latest arrival (ties broken toward
    /// the smaller worker id); slack is each worker's distance to the
    /// gate. Uplink attempts are `send`/`drop` spans on a worker track
    /// destined for the server; the spread between the first and last
    /// attempt is the retry-attributed delay.
    pub fn from_spans(spans: &[SpanRecord]) -> Self {
        use std::collections::BTreeMap;
        // trace → worker → latest feedback arrival at the server.
        let mut arrivals: BTreeMap<u64, BTreeMap<u32, u64>> = BTreeMap::new();
        // (trace, worker) → uplink attempt times and retry count.
        #[derive(Default)]
        struct Uplink {
            first_ns: u64,
            last_ns: u64,
            attempts: u32,
        }
        let mut uplinks: BTreeMap<(u64, u32), Uplink> = BTreeMap::new();
        for s in spans {
            if s.trace == 0 {
                continue;
            }
            match (s.kind, s.track) {
                (SpanKind::Recv { from, .. }, Track::Server) if from > 0 => {
                    let w = arrivals
                        .entry(s.trace)
                        .or_default()
                        .entry(from)
                        .or_insert(0);
                    *w = (*w).max(s.t1_ns);
                }
                (SpanKind::Send { to: 0, .. }, Track::Worker(w))
                | (SpanKind::Dropped { to: 0, .. }, Track::Worker(w)) => {
                    let u = uplinks.entry((s.trace, w)).or_insert(Uplink {
                        first_ns: s.t0_ns,
                        last_ns: s.t0_ns,
                        attempts: 0,
                    });
                    u.first_ns = u.first_ns.min(s.t0_ns);
                    u.last_ns = u.last_ns.max(s.t0_ns);
                    u.attempts += 1;
                }
                _ => {}
            }
        }
        let mut iters = Vec::with_capacity(arrivals.len());
        let mut rollup: BTreeMap<u32, WorkerCritical> = BTreeMap::new();
        for (trace, by_worker) in &arrivals {
            let gate_ns = by_worker.values().copied().max().unwrap_or(0);
            let gating_worker = by_worker
                .iter()
                .filter(|(_, &t)| t == gate_ns)
                .map(|(&w, _)| w)
                .min()
                .unwrap_or(0);
            let slack_ns: Vec<(u32, u64)> =
                by_worker.iter().map(|(&w, &t)| (w, gate_ns - t)).collect();
            let up = uplinks.get(&(*trace, gating_worker));
            let retries = up.map_or(0, |u| u.attempts.saturating_sub(1));
            let retry_delay_ns = up.map_or(0, |u| u.last_ns - u.first_ns);
            for &(w, slack) in &slack_ns {
                let r = rollup.entry(w).or_insert(WorkerCritical {
                    worker: w,
                    ..WorkerCritical::default()
                });
                r.observed += 1;
                r.slack_sum_ns += slack;
                r.slack_max_ns = r.slack_max_ns.max(slack);
                if w == gating_worker {
                    r.gated += 1;
                }
                if let Some(u) = uplinks.get(&(*trace, w)) {
                    r.retries += u64::from(u.attempts.saturating_sub(1));
                }
            }
            iters.push(IterCritical {
                iter: trace - 1,
                gating_worker,
                gate_ns,
                slack_ns,
                retries,
                retry_delay_ns,
            });
        }
        CriticalPathReport {
            iters,
            per_worker: rollup.into_values().collect(),
        }
    }

    /// Renders a `fig_stragglers`-style per-worker table.
    pub fn render_table(&self) -> String {
        use crate::recorder::fmt_ns;
        let mut out = String::new();
        out.push_str("== critical path ==\n");
        let n = self.iters.len();
        if n == 0 {
            out.push_str("no traced feedback arrivals\n");
            return out;
        }
        out.push_str(&format!(
            "{:<8} {:>6} {:>7} {:>11} {:>11} {:>8}\n",
            "worker", "gated", "gated%", "slack_mean", "slack_max", "retries"
        ));
        for w in &self.per_worker {
            out.push_str(&format!(
                "{:<8} {:>6} {:>6.1}% {:>11} {:>11} {:>8}\n",
                w.worker,
                w.gated,
                100.0 * w.gated as f64 / n as f64,
                fmt_ns(w.slack_mean_ns()),
                fmt_ns(w.slack_max_ns),
                w.retries,
            ));
        }
        let retry_delay: u64 = self.iters.iter().map(|i| i.retry_delay_ns).sum();
        out.push_str(&format!(
            "iterations analyzed: {n}; retry delay on critical path: {}\n",
            fmt_ns(retry_delay)
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        trace: u64,
        span: u64,
        parent: u64,
        kind: SpanKind,
        track: Track,
        t0: u64,
        t1: u64,
    ) -> SpanRecord {
        SpanRecord {
            trace,
            span,
            parent,
            kind,
            track,
            t0_ns: t0,
            t1_ns: t1,
            tick: trace.saturating_sub(1),
        }
    }

    #[test]
    fn ctx_none_roundtrip() {
        assert!(TraceCtx::NONE.is_none());
        assert!(!TraceCtx { trace: 3, span: 0 }.is_none());
    }

    #[test]
    fn track_ids_are_disjoint() {
        assert_eq!(Track::Server.tid(), 0);
        assert_eq!(Track::Worker(3).tid(), 3);
        assert_eq!(Track::Pool(2).tid(), 1002);
        assert_eq!(Track::node(0), Track::Server);
        assert_eq!(Track::node(5), Track::Worker(5));
        assert_eq!(Track::Worker(1).name(), "worker 1");
    }

    #[test]
    fn kind_names_mark_retries() {
        let first = SpanKind::Send {
            to: 0,
            bytes: 8,
            attempt: 1,
        };
        let second = SpanKind::Send {
            to: 0,
            bytes: 8,
            attempt: 2,
        };
        assert_eq!(first.name(), "send");
        assert_eq!(second.name(), "retry");
        assert_eq!(SpanKind::Dropped { to: 0, attempt: 1 }.name(), "drop");
    }

    #[test]
    fn tracer_collects_sorted_and_counts() {
        let t = Tracer::new(true);
        for i in (0..10u64).rev() {
            let id = t.mint();
            t.push(span(
                1,
                id,
                0,
                SpanKind::Iter,
                Track::Server,
                i * 10,
                i * 10 + 5,
            ));
        }
        assert_eq!(t.len(), 10);
        let got = t.collect();
        assert_eq!(got.len(), 10);
        assert!(got.windows(2).all(|w| w[0].t0_ns <= w[1].t0_ns));
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn tracer_shards_survive_threads() {
        use std::sync::Arc;
        let t = Arc::new(Tracer::new(true));
        std::thread::scope(|s| {
            for w in 1..=4u32 {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    for i in 0..100u64 {
                        let id = t.mint();
                        t.push(span(
                            i + 1,
                            id,
                            0,
                            SpanKind::Phase(Phase::DFeedback),
                            Track::Worker(w),
                            i,
                            i + 1,
                        ));
                    }
                });
            }
        });
        assert_eq!(t.collect().len(), 400);
        // Ids are unique.
        let mut ids: Vec<u64> = t.collect().iter().map(|s| s.span).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 400);
    }

    #[test]
    fn critical_path_names_gating_worker_and_slack() {
        // Iteration 0 (trace 1): worker 2 arrives last at t=100, worker 1
        // at t=60 → gate = 2, slack(1) = 40.
        let spans = vec![
            span(
                1,
                10,
                1,
                SpanKind::Recv { from: 1, bytes: 8 },
                Track::Server,
                60,
                60,
            ),
            span(
                1,
                11,
                2,
                SpanKind::Recv { from: 2, bytes: 8 },
                Track::Server,
                100,
                100,
            ),
            // Worker 2's uplink: drop at 70, retry delivered at 95.
            span(
                1,
                12,
                2,
                SpanKind::Dropped { to: 0, attempt: 1 },
                Track::Worker(2),
                70,
                70,
            ),
            span(
                1,
                13,
                12,
                SpanKind::Send {
                    to: 0,
                    bytes: 8,
                    attempt: 2,
                },
                Track::Worker(2),
                95,
                95,
            ),
        ];
        let r = CriticalPathReport::from_spans(&spans);
        assert_eq!(r.iters.len(), 1);
        let it = &r.iters[0];
        assert_eq!(it.iter, 0);
        assert_eq!(it.gating_worker, 2);
        assert_eq!(it.gate_ns, 100);
        assert_eq!(it.slack_ns, vec![(1, 40), (2, 0)]);
        assert_eq!(it.retries, 1);
        assert_eq!(it.retry_delay_ns, 25);
        let w2 = r.per_worker.iter().find(|w| w.worker == 2).unwrap();
        assert_eq!(w2.gated, 1);
        assert_eq!(w2.retries, 1);
        let table = r.render_table();
        assert!(table.contains("critical path"));
        assert!(table.contains("worker"));
    }

    #[test]
    fn critical_path_ignores_untraced_and_non_feedback() {
        let spans = vec![
            // Untraced.
            span(
                0,
                1,
                0,
                SpanKind::Recv { from: 1, bytes: 8 },
                Track::Server,
                10,
                10,
            ),
            // Worker-to-worker (swap) recv: not a feedback arrival.
            span(
                1,
                2,
                0,
                SpanKind::Recv { from: 1, bytes: 8 },
                Track::Worker(2),
                10,
                10,
            ),
        ];
        let r = CriticalPathReport::from_spans(&spans);
        assert!(r.iters.is_empty());
        assert!(r.render_table().contains("no traced feedback"));
    }
}
