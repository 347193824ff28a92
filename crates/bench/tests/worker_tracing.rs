//! Tracing with the workers of a sequential iteration running side by
//! side: `DFeedback` spans of one iteration now overlap in wall time and
//! are recorded from pool threads, and the trace must stay well-formed —
//! the exported Chrome trace passes the `trace_check` gate, every
//! participant's compute span hangs off its own downlink `Recv`, the event
//! stream is the one a one-thread run emits, and the critical-path report
//! names a gating worker per iteration.

use md_bench::install_pool_trace_hook;
use md_data::synthetic::mnist_like;
use md_telemetry::{
    export::write_chrome_trace, CriticalPathReport, Event, Phase, Recorder, SpanKind, SpanRecord,
    Track,
};
use md_tensor::parallel::scoped_max_threads;
use md_tensor::rng::Rng64;
use mdgan_core::config::{GanHyper, KPolicy, MdGanConfig, SwapPolicy};
use mdgan_core::{ArchSpec, MdGan};
use std::collections::BTreeMap;
use std::process::Command;
use std::sync::Arc;

const WORKERS: usize = 5;
/// `m / b = 4`: nine iterations cross two swaps.
const ITERS: usize = 9;

fn traced_run(width: usize) -> Arc<Recorder> {
    let _guard = scoped_max_threads(width);
    let rec = Arc::new(Recorder::traced());
    install_pool_trace_hook(&rec);
    let shards =
        mnist_like(12, WORKERS * 16, 11, 0.08).shard_iid(WORKERS, &mut Rng64::seed_from_u64(11));
    let cfg = MdGanConfig {
        workers: WORKERS,
        k: KPolicy::LogN,
        epochs_per_swap: 1.0,
        swap: SwapPolicy::Derangement,
        hyper: GanHyper {
            batch: 4,
            ..GanHyper::default()
        },
        iterations: ITERS,
        seed: 21,
        ..MdGanConfig::default()
    };
    let jobs_before = md_tensor::pool::stats().jobs;
    let mut md =
        MdGan::new(&ArchSpec::mlp_mnist_scaled(12), shards, cfg).with_telemetry(Arc::clone(&rec));
    for _ in 0..ITERS {
        md.step();
    }
    md_tensor::pool::set_trace_hook(None);
    let jobs = md_tensor::pool::stats().jobs - jobs_before;
    assert_eq!(jobs > 0, width > 1, "width {width}: {jobs} pooled jobs");
    assert_eq!(rec.trace_spans_dropped(), 0, "span ring overflowed");
    rec
}

fn events_of(rec: &Recorder) -> Vec<Event> {
    rec.events().into_iter().map(|e| e.event).collect()
}

#[test]
fn overlapping_worker_spans_keep_the_trace_wellformed() {
    let rec = traced_run(2);
    let spans = rec.trace_spans();

    // The exporter's output passes the CI gate: per-track monotonic
    // timestamps, balanced flow edges.
    let dir = std::env::temp_dir().join(format!("mdgan-worker-trace-{}", std::process::id()));
    write_chrome_trace(&dir, "worker_tracing", &spans).expect("export trace");
    let check = Command::new(env!("CARGO_BIN_EXE_trace_check"))
        .arg("--dir")
        .arg(&dir)
        .output()
        .expect("run trace_check");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        check.status.success(),
        "trace_check rejected the trace:\n{}{}",
        String::from_utf8_lossy(&check.stdout),
        String::from_utf8_lossy(&check.stderr)
    );
    assert!(
        spans.iter().any(|s| s.kind == SpanKind::PoolTask),
        "no pool slice on the timeline: the workers did not run on the pool"
    );

    // One compute span per participant per iteration, each on its own
    // worker's track and parented on that worker's downlink receive.
    let by_id: BTreeMap<(u64, u64), &SpanRecord> =
        spans.iter().map(|s| ((s.trace, s.span), s)).collect();
    let mut per_iter: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    for s in &spans {
        if s.kind != SpanKind::Phase(Phase::DFeedback) {
            continue;
        }
        let Track::Worker(w) = s.track else {
            panic!("compute span {s:?} off the worker tracks");
        };
        let parent = by_id
            .get(&(s.trace, s.parent))
            .unwrap_or_else(|| panic!("compute span {s:?} has no parent in its trace"));
        assert!(
            matches!(parent.kind, SpanKind::Recv { from: 0, .. }) && parent.track == s.track,
            "worker {w}'s compute span hangs off {parent:?}, not its own downlink recv"
        );
        assert!(
            parent.t1_ns <= s.t0_ns,
            "compute began before its batches arrived"
        );
        per_iter.entry(s.trace).or_default().push(w);
    }
    assert_eq!(per_iter.len(), ITERS);
    for (trace, mut workers) in per_iter {
        workers.sort_unstable();
        assert_eq!(
            workers,
            (1..=WORKERS as u32).collect::<Vec<_>>(),
            "trace {trace}: one compute span per participant"
        );
    }

    // Who gated each update: the latest uplink arrival, stamped when that
    // worker's compute really finished.
    let report = CriticalPathReport::from_spans(&spans);
    assert_eq!(report.iters.len(), ITERS);
    for ic in &report.iters {
        assert!(
            (1..=WORKERS as u32).contains(&ic.gating_worker),
            "iter {}: gating worker {} out of range",
            ic.iter,
            ic.gating_worker
        );
        assert_eq!(ic.slack_ns.len(), WORKERS);
    }
    let gated: u64 = report.per_worker.iter().map(|w| w.gated).sum();
    assert_eq!(gated as usize, ITERS);
}

/// Events are emitted only in the serial dispatch and collect phases, so
/// the stream does not depend on the width.
#[test]
fn events_arrive_in_the_one_thread_order() {
    let serial = events_of(&traced_run(1));
    let wide = events_of(&traced_run(2));
    assert!(serial.iter().any(|e| matches!(e, Event::SwapDone { .. })));
    assert_eq!(
        serial
            .iter()
            .filter(|e| matches!(e, Event::IterDone { .. }))
            .count(),
        ITERS
    );
    assert_eq!(wide, serial);
}
