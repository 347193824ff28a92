//! The [`Recorder`]: shared, lock-cheap run instrumentation.

use crate::event::{Event, TimedEvent};
use crate::hist::{Histogram, HistogramSnapshot};
use crate::trace::{SpanKind, SpanRecord, TraceCtx, Tracer, Track};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Named training phases every runtime reports under.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Server-side generation of the k noise batches.
    GenForward,
    /// Worker-side discriminator steps + feedback (error) computation.
    DFeedback,
    /// Server-side generator update from aggregated feedback.
    GUpdate,
    /// Discriminator swap between workers.
    Swap,
    /// Score evaluation (IS/FID proxies).
    Eval,
    /// Simulated-network message transfer.
    Comm,
    /// Worker-local full GAN step (FL-GAN / gossip baselines).
    LocalTrain,
}

impl Phase {
    /// All phases, in reporting order.
    pub const ALL: [Phase; 7] = [
        Phase::GenForward,
        Phase::DFeedback,
        Phase::GUpdate,
        Phase::Swap,
        Phase::Eval,
        Phase::Comm,
        Phase::LocalTrain,
    ];

    pub(crate) const COUNT: usize = Self::ALL.len();

    /// Stable snake_case name (used in JSONL and tables).
    pub fn as_str(&self) -> &'static str {
        match self {
            Phase::GenForward => "gen_forward",
            Phase::DFeedback => "d_feedback",
            Phase::GUpdate => "g_update",
            Phase::Swap => "swap",
            Phase::Eval => "eval",
            Phase::Comm => "comm",
            Phase::LocalTrain => "local_train",
        }
    }

    fn index(&self) -> usize {
        *self as usize
    }
}

/// Monotonic run counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    /// Global iterations completed.
    Iterations,
    /// Swap rounds completed.
    Swaps,
    /// Worker faults observed.
    Faults,
    /// Evaluation passes completed.
    Evals,
    /// Stale async updates applied.
    StaleUpdates,
    /// Messages sent through the simulated network.
    MsgsSent,
    /// Bytes sent through the simulated network.
    BytesSent,
    /// Messages lost to injected network faults.
    MsgsDropped,
    /// Messages spuriously duplicated by the network.
    MsgsDuplicated,
    /// Messages delivered late: injected delays, counted when the fate is
    /// drawn and delivered in place.
    MsgsDelayed,
    /// Retransmission attempts after a dropped data message.
    Retries,
    /// Worker-suspected transitions raised by the failure detector.
    WorkersSuspected,
    /// Divergences (NaN/Inf/explosion) flagged by the health monitor.
    NanDetected,
    /// Rollbacks to the last good checkpoint.
    Rollbacks,
    /// Checkpoints durably written.
    CheckpointsWritten,
    /// Runs resumed from an on-disk checkpoint.
    ResumeCount,
    /// Workers that joined the cluster mid-run (elastic membership).
    WorkersJoined,
    /// Workers that departed gracefully (drain + final feedback).
    WorkersLeft,
    /// Workers permanently evicted by the failure detector.
    WorkersEvicted,
    /// Discriminator bootstraps completed for joining workers.
    Bootstraps,
    /// Workers flagged as suspected free-riders by the feedback forensics.
    WorkersFlagged,
    /// Flagged workers cleared after scoring as inliers again.
    WorkersCleared,
    /// Flagged free-riders permanently evicted via the membership path.
    FreeridersEvicted,
}

impl Counter {
    /// All counters, in reporting order.
    pub const ALL: [Counter; 23] = [
        Counter::Iterations,
        Counter::Swaps,
        Counter::Faults,
        Counter::Evals,
        Counter::StaleUpdates,
        Counter::MsgsSent,
        Counter::BytesSent,
        Counter::MsgsDropped,
        Counter::MsgsDuplicated,
        Counter::MsgsDelayed,
        Counter::Retries,
        Counter::WorkersSuspected,
        Counter::NanDetected,
        Counter::Rollbacks,
        Counter::CheckpointsWritten,
        Counter::ResumeCount,
        Counter::WorkersJoined,
        Counter::WorkersLeft,
        Counter::WorkersEvicted,
        Counter::Bootstraps,
        Counter::WorkersFlagged,
        Counter::WorkersCleared,
        Counter::FreeridersEvicted,
    ];

    const COUNT: usize = Self::ALL.len();

    /// Stable snake_case name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Counter::Iterations => "iterations",
            Counter::Swaps => "swaps",
            Counter::Faults => "faults",
            Counter::Evals => "evals",
            Counter::StaleUpdates => "stale_updates",
            Counter::MsgsSent => "msgs_sent",
            Counter::BytesSent => "bytes_sent",
            Counter::MsgsDropped => "msgs_dropped",
            Counter::MsgsDuplicated => "msgs_duplicated",
            Counter::MsgsDelayed => "msgs_delayed",
            Counter::Retries => "retries",
            Counter::WorkersSuspected => "workers_suspected",
            Counter::NanDetected => "nan_detected",
            Counter::Rollbacks => "rollbacks",
            Counter::CheckpointsWritten => "checkpoints_written",
            Counter::ResumeCount => "resume_count",
            Counter::WorkersJoined => "workers_joined",
            Counter::WorkersLeft => "workers_left",
            Counter::WorkersEvicted => "workers_evicted",
            Counter::Bootstraps => "bootstraps",
            Counter::WorkersFlagged => "workers_flagged",
            Counter::WorkersCleared => "workers_cleared",
            Counter::FreeridersEvicted => "freeriders_evicted",
        }
    }

    fn index(&self) -> usize {
        *self as usize
    }
}

/// Output verbosity, usually read from the `TELEMETRY` env var.
///
/// The tiers are cumulative — each includes everything below it. This is
/// the single source of truth for what each tier means (the README table
/// is generated from the [`Verbosity::from_env`] contract):
///
/// | `TELEMETRY`          | tier    | behavior |
/// |----------------------|---------|----------|
/// | unset, `0`, `off`    | `Off`   | recording disabled; every probe is one branch |
/// | `1`, `on`, `table`   | `Table` | record; print the end-of-run table |
/// | `2`, `jsonl`, `full` | `Jsonl` | as `Table`, plus dump retained events as JSONL |
/// | `3`, `trace`         | `Trace` | as `Jsonl`, plus capture causal spans for Chrome-trace export |
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verbosity {
    /// Recording disabled; every probe is a single branch.
    #[default]
    Off,
    /// Record, and print a human-readable table at [`Recorder::finish`].
    Table,
    /// As `Table`, plus dump retained events as JSONL to stdout.
    Jsonl,
    /// As `Jsonl`, plus capture causal spans (see [`crate::trace`]) for
    /// Chrome-trace export.
    Trace,
}

impl Verbosity {
    /// Parses the `TELEMETRY` environment variable:
    /// unset/`0`/`off` → `Off`, `1`/`on`/`table` → `Table`,
    /// `2`/`jsonl`/`full` → `Jsonl`, `3`/`trace` → `Trace`.
    /// Unknown values → `Off`.
    pub fn from_env() -> Self {
        match std::env::var("TELEMETRY")
            .unwrap_or_default()
            .to_lowercase()
            .as_str()
        {
            "1" | "on" | "table" => Verbosity::Table,
            "2" | "jsonl" | "full" => Verbosity::Jsonl,
            "3" | "trace" => Verbosity::Trace,
            _ => Verbosity::Off,
        }
    }
}

/// Per-worker event tallies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Feedback batches this worker produced.
    pub feedbacks: u64,
    /// Faults observed on this worker.
    pub faults: u64,
    /// Discriminators swapped **into** this worker.
    pub swaps_in: u64,
    /// Stale updates this worker produced (async runtime).
    pub stale_updates: u64,
    /// Worker-local full GAN steps (FL-GAN / gossip baselines).
    pub local_steps: u64,
}

struct Ring {
    buf: VecDeque<TimedEvent>,
    cap: usize,
    dropped: u64,
}

/// Default event-ring capacity: enough for full paper-scale runs while
/// bounding memory to a few MB.
const DEFAULT_EVENT_CAP: usize = 16 * 1024;

/// Thread-safe run recorder. Share it as `Arc<Recorder>`; all methods take
/// `&self`. When disabled every probe is one branch — instrumentation can
/// stay in release builds.
pub struct Recorder {
    enabled: bool,
    verbosity: Verbosity,
    start: Instant,
    phases: [Histogram; Phase::COUNT],
    counters: [AtomicU64; Counter::COUNT],
    workers: Mutex<Vec<WorkerStats>>,
    ring: Mutex<Ring>,
    tracer: Tracer,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::disabled()
    }
}

impl Recorder {
    fn with_enabled(enabled: bool, verbosity: Verbosity) -> Self {
        Recorder {
            enabled,
            verbosity,
            start: Instant::now(),
            phases: std::array::from_fn(|_| Histogram::new()),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            workers: Mutex::new(Vec::new()),
            ring: Mutex::new(Ring {
                buf: VecDeque::new(),
                cap: DEFAULT_EVENT_CAP,
                dropped: 0,
            }),
            tracer: Tracer::new(enabled && verbosity >= Verbosity::Trace),
        }
    }

    /// A recorder that records nothing (all probes are one branch).
    pub fn disabled() -> Self {
        Self::with_enabled(false, Verbosity::Off)
    }

    /// A recording recorder with no end-of-run printing.
    pub fn enabled() -> Self {
        Self::with_enabled(true, Verbosity::Off)
    }

    /// A recording recorder with span capture on and no end-of-run
    /// printing (programmatic alternative to `TELEMETRY=3`).
    pub fn traced() -> Self {
        let mut r = Self::with_enabled(true, Verbosity::Off);
        r.tracer = Tracer::new(true);
        r
    }

    /// A recorder honoring an explicit verbosity (recording iff not `Off`).
    pub fn with_verbosity(v: Verbosity) -> Self {
        Self::with_enabled(v != Verbosity::Off, v)
    }

    /// A recorder configured from the `TELEMETRY` environment variable.
    pub fn from_env() -> Self {
        Self::with_verbosity(Verbosity::from_env())
    }

    /// Whether probes record anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The configured output verbosity.
    pub fn verbosity(&self) -> Verbosity {
        self.verbosity
    }

    /// Nanoseconds since this recorder was created.
    pub fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Opens an RAII span; its wall time lands in `phase`'s histogram on
    /// drop. Returns an inert guard when disabled.
    #[must_use = "a span records on drop; binding it to _ drops immediately"]
    pub fn span(&self, phase: Phase) -> Span<'_> {
        Span {
            inner: self.enabled.then(|| (self, phase, Instant::now())),
            trace: None,
        }
    }

    /// Whether causal span capture is on (`TELEMETRY=3` or
    /// [`Recorder::traced`]).
    pub fn trace_enabled(&self) -> bool {
        self.tracer.is_enabled()
    }

    /// Opens the root span of generator iteration `iter` on the server
    /// track; children nest under the guard's [`TraceSpan::ctx`]. Inert
    /// (and `ctx()` is [`TraceCtx::NONE`]) when tracing is off.
    #[must_use = "a trace span records on drop; binding it to _ drops immediately"]
    pub fn trace_root(&self, iter: u64) -> TraceSpan<'_> {
        self.trace_span_inner(
            SpanKind::Iter,
            Track::Server,
            TraceCtx {
                trace: iter + 1,
                span: 0,
            },
            iter,
        )
    }

    /// Opens a child trace span under `parent` on `track` at virtual tick
    /// `tick`. Inert when tracing is off or `parent` is untraced.
    #[must_use = "a trace span records on drop; binding it to _ drops immediately"]
    pub fn trace_span(
        &self,
        kind: SpanKind,
        track: Track,
        parent: TraceCtx,
        tick: u64,
    ) -> TraceSpan<'_> {
        if parent.is_none() {
            return TraceSpan { inner: None };
        }
        self.trace_span_inner(kind, track, parent, tick)
    }

    fn trace_span_inner(
        &self,
        kind: SpanKind,
        track: Track,
        parent: TraceCtx,
        tick: u64,
    ) -> TraceSpan<'_> {
        TraceSpan {
            inner: self.tracer.is_enabled().then(|| TraceSlot {
                rec: self,
                kind,
                track,
                trace: parent.trace,
                span: self.tracer.mint(),
                parent: parent.span,
                tick,
                t0_ns: self.elapsed_ns(),
            }),
        }
    }

    /// Records an instant (zero-duration) span and returns its id, or 0
    /// when tracing is off or `parent` is untraced. The id is what message
    /// envelopes carry so receivers can link back to the send attempt.
    pub fn trace_instant(&self, kind: SpanKind, track: Track, parent: TraceCtx, tick: u64) -> u64 {
        if !self.tracer.is_enabled() || parent.is_none() {
            return 0;
        }
        let span = self.tracer.mint();
        let t = self.elapsed_ns();
        self.tracer.push(SpanRecord {
            trace: parent.trace,
            span,
            parent: parent.span,
            kind,
            track,
            t0_ns: t,
            t1_ns: t,
            tick,
        });
        span
    }

    /// Records a tensor-pool job slice of duration `busy` that just ended
    /// on helper thread `slot` (the pool's trace hook calls this).
    pub fn trace_pool_task(&self, slot: usize, busy: Duration) {
        if !self.tracer.is_enabled() {
            return;
        }
        let t1 = self.elapsed_ns();
        let d = busy.as_nanos() as u64;
        self.tracer.push(SpanRecord {
            trace: 0,
            span: self.tracer.mint(),
            parent: 0,
            kind: SpanKind::PoolTask,
            track: Track::Pool(slot as u32),
            t0_ns: t1.saturating_sub(d),
            t1_ns: t1,
            tick: 0,
        });
    }

    /// Like [`Recorder::span`], but the phase timing additionally lands in
    /// the causal trace as a span on `track` under `parent` (when tracing
    /// is on). Use [`Span::ctx`] to nest message sends under it.
    #[must_use = "a span records on drop; binding it to _ drops immediately"]
    pub fn span_at(&self, phase: Phase, track: Track, parent: TraceCtx, tick: u64) -> Span<'_> {
        Span {
            inner: self.enabled.then(|| (self, phase, Instant::now())),
            trace: (self.tracer.is_enabled() && !parent.is_none()).then(|| TraceSlot {
                rec: self,
                kind: SpanKind::Phase(phase),
                track,
                trace: parent.trace,
                span: self.tracer.mint(),
                parent: parent.span,
                tick,
                t0_ns: self.elapsed_ns(),
            }),
        }
    }

    /// Copies out every captured span, ordered by start time.
    pub fn trace_spans(&self) -> Vec<SpanRecord> {
        self.tracer.collect()
    }

    /// Number of captured spans, without copying them out.
    pub fn trace_span_count(&self) -> u64 {
        self.tracer.len()
    }

    /// Spans discarded because the capture cap was reached.
    pub fn trace_spans_dropped(&self) -> u64 {
        self.tracer.dropped()
    }

    /// Adds `n` to a counter.
    pub fn incr(&self, counter: Counter, n: u64) {
        if self.enabled {
            self.counters[counter.index()].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value of a counter.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter.index()].load(Ordering::Relaxed)
    }

    fn with_worker(&self, worker: usize, f: impl FnOnce(&mut WorkerStats)) {
        if !self.enabled {
            return;
        }
        let mut ws = self.workers.lock().unwrap();
        if ws.len() <= worker {
            ws.resize(worker + 1, WorkerStats::default());
        }
        f(&mut ws[worker]);
    }

    /// Tallies a feedback batch produced by `worker`.
    pub fn worker_feedback(&self, worker: usize) {
        self.with_worker(worker, |w| w.feedbacks += 1);
    }

    /// Tallies a discriminator swapped into `worker`.
    pub fn worker_swap_in(&self, worker: usize) {
        self.with_worker(worker, |w| w.swaps_in += 1);
    }

    /// Tallies a worker-local full GAN step on `worker`.
    pub fn worker_local_step(&self, worker: usize) {
        self.with_worker(worker, |w| w.local_steps += 1);
    }

    /// Records an event: stamps it, retains it in the ring buffer (dropping
    /// the oldest beyond capacity) and bumps the matching counters and
    /// per-worker tallies.
    pub fn event(&self, event: Event) {
        if !self.enabled {
            return;
        }
        match &event {
            Event::IterDone { .. } => self.incr(Counter::Iterations, 1),
            Event::SwapDone { .. } => self.incr(Counter::Swaps, 1),
            Event::WorkerFault { worker, .. } => {
                self.incr(Counter::Faults, 1);
                self.with_worker(*worker, |w| w.faults += 1);
            }
            Event::EvalDone { .. } => self.incr(Counter::Evals, 1),
            Event::StaleUpdate { worker, .. } => {
                self.incr(Counter::StaleUpdates, 1);
                self.with_worker(*worker, |w| w.stale_updates += 1);
            }
            Event::WorkerSuspected { .. } => self.incr(Counter::WorkersSuspected, 1),
            Event::NanDetected { .. } => self.incr(Counter::NanDetected, 1),
            Event::Rollback { .. } => self.incr(Counter::Rollbacks, 1),
            Event::CheckpointWritten { .. } => self.incr(Counter::CheckpointsWritten, 1),
            Event::Resumed { .. } => self.incr(Counter::ResumeCount, 1),
            Event::WorkerJoined { .. } => self.incr(Counter::WorkersJoined, 1),
            Event::WorkerLeft { .. } => self.incr(Counter::WorkersLeft, 1),
            Event::WorkerEvicted { .. } => self.incr(Counter::WorkersEvicted, 1),
            Event::WorkerFlagged { .. } => self.incr(Counter::WorkersFlagged, 1),
            Event::WorkerCleared { .. } => self.incr(Counter::WorkersCleared, 1),
            Event::FreeriderEvicted { .. } => self.incr(Counter::FreeridersEvicted, 1),
            Event::BootstrapDone { .. } => self.incr(Counter::Bootstraps, 1),
            Event::WorkerRejoined { .. } | Event::RoundDone { .. } | Event::Custom { .. } => {}
        }
        let timed = TimedEvent {
            t_ns: self.elapsed_ns(),
            event,
        };
        let mut ring = self.ring.lock().unwrap();
        if ring.buf.len() == ring.cap {
            ring.buf.pop_front();
            ring.dropped += 1;
        }
        ring.buf.push_back(timed);
    }

    /// Snapshot of one phase's duration histogram.
    pub fn phase_stats(&self, phase: Phase) -> HistogramSnapshot {
        self.phases[phase.index()].snapshot()
    }

    /// Copies out the retained events, oldest first.
    pub fn events(&self) -> Vec<TimedEvent> {
        self.ring.lock().unwrap().buf.iter().cloned().collect()
    }

    /// Events discarded because the ring was full.
    pub fn events_dropped(&self) -> u64 {
        self.ring.lock().unwrap().dropped
    }

    /// Copies out per-worker tallies (index = worker id).
    pub fn worker_stats(&self) -> Vec<WorkerStats> {
        self.workers.lock().unwrap().clone()
    }

    /// Renders the human-readable end-of-run table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str("== telemetry ==\n");
        out.push_str(&format!(
            "{:<12} {:>9} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
            "phase", "count", "p50", "p90", "p99", "max", "total"
        ));
        for p in Phase::ALL {
            let s = self.phase_stats(p);
            if s.count == 0 {
                continue;
            }
            out.push_str(&format!(
                "{:<12} {:>9} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
                p.as_str(),
                s.count,
                fmt_ns(s.p50),
                fmt_ns(s.p90),
                fmt_ns(s.p99),
                fmt_ns(s.max),
                fmt_ns(s.sum),
            ));
        }
        let counters: Vec<String> = Counter::ALL
            .iter()
            .filter(|c| self.counter(**c) > 0)
            .map(|c| format!("{}={}", c.as_str(), self.counter(*c)))
            .collect();
        if !counters.is_empty() {
            out.push_str(&format!("counters: {}\n", counters.join(" ")));
        }
        let workers = self.worker_stats();
        if workers.iter().any(|w| *w != WorkerStats::default()) {
            out.push_str(&format!(
                "{:<8} {:>10} {:>8} {:>9} {:>7} {:>12}\n",
                "worker", "feedbacks", "faults", "swaps_in", "stale", "local_steps"
            ));
            for (i, w) in workers.iter().enumerate() {
                out.push_str(&format!(
                    "{:<8} {:>10} {:>8} {:>9} {:>7} {:>12}\n",
                    i, w.feedbacks, w.faults, w.swaps_in, w.stale_updates, w.local_steps
                ));
            }
        }
        let dropped = self.events_dropped();
        if dropped > 0 {
            out.push_str(&format!("events dropped (ring full): {dropped}\n"));
        }
        out
    }

    /// End-of-run hook: prints the table (verbosity `Table`+) and the
    /// retained events as JSONL (verbosity `Jsonl`) to stdout.
    pub fn finish(&self) {
        if self.verbosity >= Verbosity::Table {
            print!("{}", self.render_table());
        }
        if self.verbosity >= Verbosity::Jsonl {
            for e in self.events() {
                println!("{}", e.to_json());
            }
        }
    }
}

/// Formats nanoseconds with an adaptive unit.
pub(crate) fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

/// The trace half of an open span: everything needed to emit its
/// [`SpanRecord`] on drop.
struct TraceSlot<'a> {
    rec: &'a Recorder,
    kind: SpanKind,
    track: Track,
    trace: u64,
    span: u64,
    parent: u64,
    tick: u64,
    t0_ns: u64,
}

impl TraceSlot<'_> {
    fn finish(self) {
        let t1_ns = self.rec.elapsed_ns();
        self.rec.tracer.push(SpanRecord {
            trace: self.trace,
            span: self.span,
            parent: self.parent,
            kind: self.kind,
            track: self.track,
            t0_ns: self.t0_ns,
            t1_ns,
            tick: self.tick,
        });
    }
}

/// RAII phase timer returned by [`Recorder::span`] / [`Recorder::span_at`].
pub struct Span<'a> {
    inner: Option<(&'a Recorder, Phase, Instant)>,
    trace: Option<TraceSlot<'a>>,
}

impl Span<'_> {
    /// The context to record children (e.g. message sends) under:
    /// this span's own coordinates, or [`TraceCtx::NONE`] when untraced.
    pub fn ctx(&self) -> TraceCtx {
        self.trace.as_ref().map_or(TraceCtx::NONE, |t| TraceCtx {
            trace: t.trace,
            span: t.span,
        })
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some((rec, phase, t0)) = self.inner.take() {
            rec.phases[phase.index()].record(t0.elapsed().as_nanos() as u64);
        }
        if let Some(trace) = self.trace.take() {
            trace.finish();
        }
    }
}

/// RAII causal span returned by [`Recorder::trace_root`] /
/// [`Recorder::trace_span`]. Purely a trace artifact: it feeds no
/// histogram.
pub struct TraceSpan<'a> {
    inner: Option<TraceSlot<'a>>,
}

impl TraceSpan<'_> {
    /// The context to record children under ([`TraceCtx::NONE`] when
    /// untraced).
    pub fn ctx(&self) -> TraceCtx {
        self.inner.as_ref().map_or(TraceCtx::NONE, |t| TraceCtx {
            trace: t.trace,
            span: t.span,
        })
    }
}

impl Drop for TraceSpan<'_> {
    fn drop(&mut self) {
        if let Some(slot) = self.inner.take() {
            slot.finish();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = Recorder::disabled();
        {
            let _s = r.span(Phase::GenForward);
        }
        r.incr(Counter::Iterations, 3);
        r.event(Event::IterDone { iter: 0, alive: 2 });
        r.worker_feedback(1);
        assert_eq!(r.phase_stats(Phase::GenForward).count, 0);
        assert_eq!(r.counter(Counter::Iterations), 0);
        assert!(r.events().is_empty());
        assert!(r.worker_stats().is_empty());
    }

    #[test]
    fn spans_feed_phase_histograms() {
        let r = Recorder::enabled();
        for _ in 0..5 {
            let _s = r.span(Phase::DFeedback);
        }
        let s = r.phase_stats(Phase::DFeedback);
        assert_eq!(s.count, 5);
        assert!(s.max > 0);
        assert_eq!(r.phase_stats(Phase::Swap).count, 0);
    }

    #[test]
    fn events_bump_counters_and_worker_tallies() {
        let r = Recorder::enabled();
        r.event(Event::IterDone { iter: 0, alive: 4 });
        r.event(Event::WorkerFault { iter: 1, worker: 2 });
        r.event(Event::StaleUpdate {
            iter: 2,
            worker: 2,
            staleness: 1,
        });
        r.event(Event::EvalDone {
            iter: 2,
            is_score: 1.0,
            fid: 2.0,
        });
        r.event(Event::SwapDone { iter: 2, moved: 4 });
        assert_eq!(r.counter(Counter::Iterations), 1);
        assert_eq!(r.counter(Counter::Faults), 1);
        assert_eq!(r.counter(Counter::StaleUpdates), 1);
        assert_eq!(r.counter(Counter::Evals), 1);
        assert_eq!(r.counter(Counter::Swaps), 1);
        let ws = r.worker_stats();
        assert_eq!(ws.len(), 3);
        assert_eq!(ws[2].faults, 1);
        assert_eq!(ws[2].stale_updates, 1);
        assert_eq!(r.events().len(), 5);
        // Timestamps are monotone.
        let ts: Vec<u64> = r.events().iter().map(|e| e.t_ns).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn recovery_events_bump_their_counters() {
        let r = Recorder::enabled();
        r.event(Event::NanDetected {
            iter: 3,
            verdict: "non_finite_loss",
        });
        r.event(Event::Rollback {
            iter: 3,
            to_iter: 2,
        });
        r.event(Event::CheckpointWritten {
            iter: 2,
            bytes: 128,
        });
        r.event(Event::Resumed { iter: 2 });
        assert_eq!(r.counter(Counter::NanDetected), 1);
        assert_eq!(r.counter(Counter::Rollbacks), 1);
        assert_eq!(r.counter(Counter::CheckpointsWritten), 1);
        assert_eq!(r.counter(Counter::ResumeCount), 1);
        let t = r.render_table();
        assert!(t.contains("nan_detected=1") && t.contains("rollbacks=1"));
    }

    #[test]
    fn ring_drops_oldest_beyond_capacity() {
        let r = Recorder::enabled();
        {
            let mut ring = r.ring.lock().unwrap();
            ring.cap = 4;
        }
        for i in 0..10 {
            r.event(Event::RoundDone { round: i });
        }
        let ev = r.events();
        assert_eq!(ev.len(), 4);
        assert_eq!(r.events_dropped(), 6);
        assert_eq!(ev[0].event, Event::RoundDone { round: 6 });
        assert_eq!(ev[3].event, Event::RoundDone { round: 9 });
    }

    #[test]
    fn table_renders_active_rows_only() {
        let r = Recorder::enabled();
        {
            let _s = r.span(Phase::Eval);
        }
        r.event(Event::IterDone { iter: 0, alive: 1 });
        let t = r.render_table();
        assert!(t.contains("eval"));
        assert!(!t.contains("g_update"));
        assert!(t.contains("iterations=1"));
    }

    #[test]
    fn tracing_off_yields_inert_guards() {
        // Enabled-but-untraced: histograms record, spans don't.
        let r = Recorder::enabled();
        assert!(!r.trace_enabled());
        let root = r.trace_root(0);
        assert_eq!(root.ctx(), TraceCtx::NONE);
        {
            let s = r.span_at(Phase::GUpdate, Track::Server, root.ctx(), 0);
            assert_eq!(s.ctx(), TraceCtx::NONE);
        }
        assert_eq!(
            r.trace_instant(
                SpanKind::Send {
                    to: 1,
                    bytes: 8,
                    attempt: 1
                },
                Track::Server,
                root.ctx(),
                0
            ),
            0
        );
        drop(root);
        assert_eq!(r.phase_stats(Phase::GUpdate).count, 1);
        assert!(r.trace_spans().is_empty());
    }

    #[test]
    fn traced_spans_nest_under_the_iteration_root() {
        let r = Recorder::traced();
        assert!(r.trace_enabled());
        let root_id;
        let phase_id;
        {
            let root = r.trace_root(4);
            root_id = root.ctx().span;
            assert_eq!(root.ctx().trace, 5);
            let s = r.span_at(Phase::DFeedback, Track::Worker(2), root.ctx(), 4);
            phase_id = s.ctx().span;
            let sent = r.trace_instant(
                SpanKind::Send {
                    to: 0,
                    bytes: 64,
                    attempt: 1,
                },
                Track::Worker(2),
                s.ctx(),
                4,
            );
            assert_ne!(sent, 0);
        }
        let spans = r.trace_spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.trace == 5 && s.tick == 4));
        let send = spans
            .iter()
            .find(|s| matches!(s.kind, SpanKind::Send { .. }))
            .unwrap();
        assert_eq!(send.parent, phase_id);
        assert_eq!(send.t0_ns, send.t1_ns, "instant span");
        let phase = spans.iter().find(|s| s.span == phase_id).unwrap();
        assert_eq!(phase.parent, root_id);
        assert!(phase.t1_ns >= phase.t0_ns);
        // The phase span also fed its histogram.
        assert_eq!(r.phase_stats(Phase::DFeedback).count, 1);
        assert_eq!(r.trace_spans_dropped(), 0);
    }

    #[test]
    fn verbosity_trace_enables_capture() {
        let r = Recorder::with_verbosity(Verbosity::Trace);
        assert!(r.is_enabled() && r.trace_enabled());
        let _ = r.trace_root(0);
        assert_eq!(r.trace_spans().len(), 1);
        assert!(Verbosity::Trace > Verbosity::Jsonl);
    }

    #[test]
    fn pool_task_spans_land_on_pool_tracks() {
        let r = Recorder::traced();
        r.trace_pool_task(3, Duration::from_nanos(500));
        let spans = r.trace_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].kind, SpanKind::PoolTask);
        assert_eq!(spans[0].track, Track::Pool(3));
        assert_eq!(spans[0].t1_ns - spans[0].t0_ns, 500);
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(500), "500ns");
        assert_eq!(fmt_ns(1_500), "1.5µs");
        assert_eq!(fmt_ns(2_500_000), "2.5ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }
}
