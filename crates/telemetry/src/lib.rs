//! # md-telemetry
//!
//! Zero-dependency observability for the MD-GAN runtimes: lock-cheap
//! recording on the hot path, structured export at the end of a run.
//!
//! Four layers:
//!
//! 1. **[`Recorder`]** — atomic counters, RAII [`Span`] timers feeding
//!    log-bucketed duration [`Histogram`]s (p50/p90/p99/max), safe to share
//!    across threads via `Arc`. When disabled, every operation is a single
//!    branch — cheap enough to leave instrumentation in permanently.
//! 2. **[`Event`]** — typed run events (`IterDone`, `SwapDone`,
//!    `WorkerFault`, `EvalDone`, `StaleUpdate`, …) retained in a bounded
//!    ring buffer and exportable as JSONL.
//! 3. **Causal tracing** ([`trace`]) — per-iteration trace/span ids
//!    propagated through message envelopes, per-thread span buffers, a
//!    Chrome-trace exporter ([`export`]) and a critical-path extractor
//!    ([`CriticalPathReport`]).
//! 4. **[`RunRecord`]** — the end-of-run artifact bundling config, score
//!    timeline, traffic report, per-phase histograms, per-worker stats,
//!    retained events and span-capture tallies, written as JSONL under
//!    `results/`. A run's counters, phases and detector decisions are
//!    read from this record after the run ends; nothing serves them live.
//!
//! Verbosity is controlled by the `TELEMETRY` environment variable
//! (see [`Verbosity::from_env`], the canonical tier table):
//! unset/`0`/`off` disables recording, `1`/`table` prints a
//! human-readable end-of-run table, `2`/`jsonl` additionally dumps
//! retained events as JSONL to stdout, and `3`/`trace` additionally
//! captures causal spans for trace export.
//!
//! ```
//! use md_telemetry::{Phase, Recorder};
//! use std::sync::Arc;
//!
//! let rec = Arc::new(Recorder::enabled());
//! {
//!     let _s = rec.span(Phase::GenForward);
//!     // ... work ...
//! } // span recorded on drop
//! rec.incr(md_telemetry::Counter::Iterations, 1);
//! assert_eq!(rec.phase_stats(Phase::GenForward).count, 1);
//! ```

mod event;
pub mod export;
mod hist;
pub mod json;
mod record;
mod recorder;
pub mod trace;

pub use event::{Event, TimedEvent};
pub use hist::{Histogram, HistogramSnapshot};
pub use record::{PoolCounters, RunRecord, ScorePoint, TrafficSummary, WorkspaceCounters};
pub use recorder::{Counter, Phase, Recorder, Span, TraceSpan, Verbosity, WorkerStats};
pub use trace::{
    CriticalPathReport, IterCritical, SpanKind, SpanRecord, TraceCtx, Track, WorkerCritical,
};
