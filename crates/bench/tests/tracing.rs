//! End-to-end tracing acceptance: a traced lossy MD-GAN run must produce a
//! well-formed causal span set (linked drop→retry→recv chains), export to
//! valid Chrome trace JSON, yield a critical-path report naming the gating
//! worker per iteration — and must not perturb training or cost more than
//! noise when enabled, nothing at all when disabled.

use md_data::synthetic::Family;
use md_telemetry::json::{parse, Value};
use md_telemetry::{
    export::write_chrome_trace, CriticalPathReport, Recorder, SpanKind, Track, Verbosity,
};
use mdgan_core::arch::ArchKind;
use mdgan_core::experiments::{run_lossy_faults, ExperimentScale, LossyPoint};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

/// Tiny lossy panel: sub-second per run, enough iterations for drops,
/// retries and a mid-run crash to all occur.
fn smoke_scale() -> ExperimentScale {
    ExperimentScale {
        img: 12,
        train_n: 256,
        test_n: 64,
        iters: 8,
        eval_every: 4,
        eval_samples: 32,
        seed: 42,
    }
}

fn traced_run(workers: usize, drop: f32) -> (Vec<LossyPoint>, Arc<Recorder>) {
    let rec = Arc::new(Recorder::traced());
    let points = run_lossy_faults(
        Family::MnistLike,
        ArchKind::Mlp,
        smoke_scale(),
        workers,
        &[drop],
        7,
        &rec,
    )
    .unwrap();
    (points, rec)
}

#[test]
fn traced_lossy_run_produces_wellformed_causal_spans() {
    let (points, rec) = traced_run(4, 0.2);
    assert_eq!(points.len(), 1);
    assert_eq!(rec.trace_spans_dropped(), 0, "span ring overflowed");
    let spans = rec.trace_spans();
    assert!(!spans.is_empty(), "traced run captured no spans");

    // Every span belongs to a live trace, has a non-zero id, and its
    // parent (when set) exists within the same trace.
    let mut ids: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    for s in &spans {
        assert_ne!(s.trace, 0, "span {s:?} outside any trace");
        assert_ne!(s.span, 0, "span {s:?} has null id");
        assert!(s.t1_ns >= s.t0_ns, "span {s:?} ends before it starts");
        ids.entry(s.trace).or_default().insert(s.span);
    }
    for s in &spans {
        if s.parent != 0 {
            assert!(
                ids[&s.trace].contains(&s.parent),
                "span {s:?} parents on a span missing from trace {}",
                s.trace
            );
        }
    }

    // The causal chain survives lossiness: every delivered uplink Recv at
    // the server parents on a span recorded on the sending worker's track,
    // and drops are followed by a retry attempt in the same trace.
    let mut recvs = 0u64;
    for s in &spans {
        if let SpanKind::Recv { from, .. } = s.kind {
            if s.track == Track::Server && from > 0 {
                recvs += 1;
                let sender = spans.iter().find(|p| {
                    p.trace == s.trace && p.span == s.parent && p.track == Track::Worker(from)
                });
                assert!(
                    sender.is_some(),
                    "server Recv from worker {from} in trace {} has no sending span",
                    s.trace
                );
            }
        }
    }
    assert!(recvs > 0, "no feedback arrivals traced at the server");
    for s in &spans {
        if let SpanKind::Dropped { to, attempt } = s.kind {
            let retried = spans.iter().any(|p| {
                p.trace == s.trace
                    && p.parent == s.span
                    && matches!(p.kind,
                        SpanKind::Send { to: t, attempt: a, .. }
                        | SpanKind::Dropped { to: t, attempt: a }
                        if t == to && a == attempt + 1)
            });
            assert!(
                retried,
                "dropped send (trace {}, to {to}, attempt {attempt}) has no linked retry",
                s.trace
            );
        }
    }
}

#[test]
fn exported_trace_json_is_valid_and_monotonic() {
    let (_points, rec) = traced_run(3, 0.1);
    let spans = rec.trace_spans();
    let dir = std::env::temp_dir().join(format!("mdgan-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = write_chrome_trace(&dir, "tracing_test", &spans).expect("export trace");
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    let root = parse(&text).expect("exported trace must be valid JSON");
    let events = root
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    let mut last_ts: BTreeMap<(i64, i64), f64> = BTreeMap::new();
    let mut flow: BTreeMap<i64, (u64, u64)> = BTreeMap::new();
    for e in events {
        let ph = e.get("ph").and_then(Value::as_str).expect("ph");
        if ph == "M" {
            continue;
        }
        let pid = e.get("pid").and_then(Value::as_f64).unwrap() as i64;
        let tid = e.get("tid").and_then(Value::as_f64).unwrap() as i64;
        let ts = e.get("ts").and_then(Value::as_f64).expect("ts");
        match ph {
            "s" | "f" => {
                let id = e.get("id").and_then(Value::as_f64).unwrap() as i64;
                let ends = flow.entry(id).or_default();
                if ph == "s" {
                    ends.0 += 1
                } else {
                    ends.1 += 1
                }
            }
            "X" | "i" => {
                let prev = last_ts.entry((pid, tid)).or_insert(0.0);
                assert!(
                    ts >= *prev,
                    "track ({pid},{tid}) timestamps not monotonic: {ts} < {prev}"
                );
                *prev = ts;
            }
            other => panic!("unknown phase {other:?}"),
        }
    }
    assert!(!flow.is_empty(), "no causal flow edges exported");
    for (id, (s, f)) in &flow {
        assert_eq!((*s, *f), (1, 1), "flow {id} unbalanced");
    }
}

#[test]
fn critical_path_names_a_gating_worker_per_iteration() {
    let workers = 4usize;
    let (_points, rec) = traced_run(workers, 0.1);
    let report = CriticalPathReport::from_spans(&rec.trace_spans());
    assert!(!report.iters.is_empty(), "no iterations in the report");
    for ic in &report.iters {
        assert!(
            (1..=workers as u32).contains(&ic.gating_worker),
            "iter {}: gating worker {} out of range",
            ic.iter,
            ic.gating_worker
        );
    }
    let gated: u64 = report.per_worker.iter().map(|w| w.gated).sum();
    assert_eq!(gated as usize, report.iters.len());
    assert!(report.render_table().contains("critical path"));
}

#[test]
fn tracing_does_not_perturb_training() {
    let quiet = Arc::new(Recorder::with_verbosity(Verbosity::Off));
    let plain = run_lossy_faults(
        Family::MnistLike,
        ArchKind::Mlp,
        smoke_scale(),
        3,
        &[0.1],
        7,
        &quiet,
    )
    .unwrap();
    let (traced, rec) = traced_run(3, 0.1);
    assert!(!rec.trace_spans().is_empty());
    assert_eq!(
        plain[0].final_scores.fid, traced[0].final_scores.fid,
        "enabling tracing changed the training trajectory"
    );
    // Retries follow the seeded fault plan, so they are deterministic;
    // `suspected` is a wall-clock detector tally and is not compared.
    assert_eq!(plain[0].traffic.retries, traced[0].traffic.retries);
}

#[test]
fn disabled_recorder_captures_no_spans() {
    let rec = Arc::new(Recorder::with_verbosity(Verbosity::Jsonl));
    assert!(!rec.trace_enabled());
    let _ = run_lossy_faults(
        Family::MnistLike,
        ArchKind::Mlp,
        smoke_scale(),
        3,
        &[0.0],
        7,
        &rec,
    )
    .unwrap();
    assert!(
        rec.trace_spans().is_empty(),
        "sub-trace verbosity must not buffer spans"
    );
}

/// Enabled-tracing overhead on a 10-worker smoke. The real number is well
/// under 5% (see `results/BENCH_PR10.json`); the assertion bound is kept
/// deliberately loose (2x) so a noisy shared CI runner cannot flake it —
/// it exists to catch order-of-magnitude regressions such as a lock on
/// the span hot path.
#[test]
fn traced_wallclock_overhead_is_bounded() {
    let run = |rec: &Arc<Recorder>| {
        let t0 = Instant::now();
        let _ = run_lossy_faults(
            Family::MnistLike,
            ArchKind::Mlp,
            smoke_scale(),
            10,
            &[0.05],
            7,
            rec,
        )
        .unwrap();
        t0.elapsed().as_secs_f64()
    };
    let quiet = Arc::new(Recorder::with_verbosity(Verbosity::Off));
    run(&quiet); // warm caches and pools
    let base = run(&quiet);
    let rec = Arc::new(Recorder::traced());
    let traced = run(&rec);
    assert!(!rec.trace_spans().is_empty());
    assert!(
        traced < base * 2.0 + 0.05,
        "traced run took {traced:.3}s vs untraced {base:.3}s"
    );
}
