//! # md-telemetry
//!
//! Zero-dependency observability for the MD-GAN runtimes: lock-cheap
//! recording on the hot path, structured export at the end of a run.
//!
//! Three layers:
//!
//! 1. **[`Recorder`]** — atomic counters, RAII [`Span`] timers feeding
//!    log-bucketed duration [`Histogram`]s (p50/p90/p99/max), safe to share
//!    across threads via `Arc`. When disabled, every operation is a single
//!    branch — cheap enough to leave instrumentation in permanently.
//! 2. **[`Event`]** — typed run events (`IterDone`, `SwapDone`,
//!    `WorkerFault`, `EvalDone`, `StaleUpdate`, …) retained in a bounded
//!    ring buffer and exportable as JSONL.
//! 3. **[`RunRecord`]** — an end-of-run artifact bundling config, score
//!    timeline, traffic report, per-phase histograms and per-worker stats,
//!    written as JSONL under `results/`.
//!
//! PR 6 adds a fourth layer, **causal tracing** ([`trace`]): per-iteration
//! trace/span ids propagated through message envelopes, per-thread span
//! buffers, a Chrome-trace exporter ([`export`]), a critical-path
//! extractor ([`CriticalPathReport`]) and a live Prometheus-style
//! introspection endpoint ([`expose`]).
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
pub mod expose;
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
