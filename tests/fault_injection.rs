//! Acceptance tests for the lossy-network fault model (ISSUE 3): a
//! 10-worker MD-GAN run at 5% message drop with a mid-run crash must finish
//! without deadlock or panic, the server's quorum gather must release within
//! its deadline, fault counters must land in the telemetry JSONL, and the
//! same seed must reproduce bitwise-identical results across the sequential
//! and threaded runtimes.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mdgan_repro::core::config::{GanHyper, KPolicy, MdGanConfig, SwapPolicy};
use mdgan_repro::core::mdgan::threaded::run_threaded_with;
use mdgan_repro::core::{ArchSpec, MdGan};
use mdgan_repro::data::synthetic::mnist_like;
use mdgan_repro::data::Dataset;
use mdgan_repro::simnet::{CrashSchedule, FaultPlan, Partition};
use mdgan_repro::telemetry::{Counter, Event, Recorder, RunRecord};

const IMG: usize = 12;

fn shards(workers: usize, seed: u64) -> Vec<Dataset> {
    let data = mnist_like(IMG, workers * 32, seed, 0.08);
    let mut rng = mdgan_repro::tensor::rng::Rng64::seed_from_u64(seed);
    data.shard_iid(workers, &mut rng)
}

fn lossy_cfg(workers: usize, iters: usize, drop: f32, seed: u64) -> MdGanConfig {
    let mut cfg = MdGanConfig {
        workers,
        k: KPolicy::LogN,
        epochs_per_swap: 1.0,
        swap: SwapPolicy::Derangement,
        hyper: GanHyper {
            batch: 4,
            ..GanHyper::default()
        },
        iterations: iters,
        seed,
        crash: CrashSchedule::none(),
        ..MdGanConfig::default()
    };
    cfg.fault = FaultPlan::lossy(seed ^ 0xFA17, drop);
    cfg
}

/// The headline acceptance run: 10 workers, 5% drop, one silent mid-run
/// crash. Completes, suspects the crashed worker, counts faults, and the
/// sequential and threaded runtimes agree bit for bit.
#[test]
fn ten_workers_five_pct_drop_and_crash_complete_identically() {
    let workers = 10;
    let iters = 10;
    let mut cfg = lossy_cfg(workers, iters, 0.05, 33);
    cfg.crash = CrashSchedule::new(vec![(5, 3)]);
    cfg.robust.suspect_after = 2;
    cfg.robust.probe_period = 0; // keep the crashed worker suspected

    let spec = ArchSpec::mlp_mnist_scaled(IMG);
    let sh = shards(workers, 17);

    let threaded_rec = Arc::new(Recorder::enabled());
    let threaded = run_threaded_with(
        &spec,
        sh.clone(),
        cfg.clone(),
        None,
        iters,
        1_000_000,
        Arc::clone(&threaded_rec),
    );

    let seq_rec = Arc::new(Recorder::enabled());
    let mut seq = MdGan::new(&spec, sh, cfg).with_telemetry(Arc::clone(&seq_rec));
    for _ in 0..iters {
        seq.step();
    }

    assert_eq!(
        threaded.gen_params,
        seq.gen_params(),
        "sequential and threaded diverged under faults"
    );
    assert_eq!(threaded.traffic.class_bytes, seq.traffic().class_bytes);
    assert_eq!(threaded.traffic.dropped_bytes, seq.traffic().dropped_bytes);
    assert_eq!(threaded.traffic.retries, seq.traffic().retries);

    for rec in [&threaded_rec, &seq_rec] {
        assert!(rec.counter(Counter::MsgsDropped) > 0, "no drops counted");
        assert!(rec.counter(Counter::Retries) > 0, "no retries counted");
        assert!(
            rec.counter(Counter::WorkersSuspected) >= 1,
            "crashed worker never suspected"
        );
    }

    // The counters and the suspicion event must surface in the exported
    // telemetry JSONL — that is how fig5-style runs report degradation.
    let jsonl = RunRecord::new("fault_acceptance").to_jsonl(&threaded_rec);
    for needle in [
        "\"msgs_dropped\":",
        "\"retries\":",
        "\"workers_suspected\":",
        "\"type\":\"worker_suspected\"",
    ] {
        assert!(jsonl.contains(needle), "telemetry JSONL missing {needle}");
    }
}

/// With every data message dropped and zero retries, the quorum gather must
/// release at its deadline each iteration instead of hanging — so the whole
/// run is bounded by roughly iters × (gather + swap deadline).
#[test]
fn quorum_gather_releases_within_deadline() {
    let iters = 4;
    let mut cfg = lossy_cfg(3, iters, 1.0, 5);
    cfg.robust.retries = 0;

    let spec = ArchSpec::mlp_mnist_scaled(IMG);
    let start = Instant::now();
    let out = run_threaded_with(
        &spec,
        shards(3, 9),
        cfg,
        None,
        iters,
        1_000_000,
        Arc::new(Recorder::disabled()),
    );
    let elapsed = start.elapsed();

    assert!(
        elapsed < Duration::from_secs(8),
        "gather blocked past its deadline: {elapsed:?}"
    );
    assert!(out.traffic.dropped_msgs > 0);
    assert_eq!(out.traffic.bytes_delivered(), 0);
}

/// A worker cut off by a temporary partition is suspected while unreachable
/// and rejoins via probing once the partition heals.
#[test]
fn partitioned_worker_is_suspected_then_rejoins() {
    let iters = 9;
    let mut cfg = lossy_cfg(3, iters, 0.0, 13);
    cfg.fault = FaultPlan {
        seed: 99,
        partitions: vec![Partition::node(2, 2, 6)],
        ..FaultPlan::default()
    };
    cfg.robust.suspect_after = 2;
    cfg.robust.probe_period = 1; // probe suspects every iteration

    let spec = ArchSpec::mlp_mnist_scaled(IMG);
    let rec = Arc::new(Recorder::enabled());
    let mut seq = MdGan::new(&spec, shards(3, 4), cfg).with_telemetry(Arc::clone(&rec));
    for _ in 0..iters {
        seq.step();
    }

    let events: Vec<Event> = rec.events().into_iter().map(|t| t.event).collect();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, Event::WorkerSuspected { worker: 2, .. })),
        "partitioned worker (node 2) never suspected: {events:?}"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, Event::WorkerRejoined { worker: 2, .. })),
        "healed worker (node 2) never rejoined: {events:?}"
    );
    // After rejoin the worker is a swap candidate again and feedback flows.
    assert_eq!(seq.alive_workers(), vec![1, 2, 3]);
}
