//! The threaded (one OS thread per node) and sequential runtimes must be
//! interchangeable: same seed, same shards, same config ⇒ bit-for-bit the
//! same generator and the same byte-level traffic.

use mdgan_repro::core::config::{GanHyper, KPolicy, MdGanConfig, SwapPolicy};
use mdgan_repro::core::mdgan::threaded::run_threaded;
use mdgan_repro::core::{ArchSpec, MdGan};
use mdgan_repro::data::synthetic::mnist_like;
use mdgan_repro::data::Dataset;
use mdgan_repro::simnet::{CrashSchedule, FaultPlan, Partition};
use mdgan_repro::tensor::rng::Rng64;

fn shards(workers: usize, seed: u64) -> Vec<Dataset> {
    let data = mnist_like(12, workers * 32, seed, 0.08);
    let mut rng = Rng64::seed_from_u64(seed);
    data.shard_iid(workers, &mut rng)
}

fn check_equivalence(cfg: MdGanConfig, iters: usize) {
    let spec = ArchSpec::mlp_mnist_scaled(12);
    let sh = shards(cfg.workers, 11);

    let threaded = run_threaded(&spec, sh.clone(), cfg.clone(), None, iters, 1_000_000);

    let mut seq = MdGan::new(&spec, sh, cfg);
    for _ in 0..iters {
        seq.step();
    }

    assert_eq!(
        threaded.gen_params,
        seq.gen_params(),
        "generator params diverged"
    );
    assert_eq!(
        threaded.traffic.class_bytes,
        seq.traffic().class_bytes,
        "traffic diverged"
    );
    assert_eq!(threaded.alive, seq.alive_workers(), "alive sets diverged");

    // Fault accounting must replay identically too (all zeros on a perfect
    // network, so this is free for the plain variants).
    let (t, s) = (&threaded.traffic, seq.traffic());
    assert_eq!(t.dropped_msgs, s.dropped_msgs, "dropped_msgs diverged");
    assert_eq!(t.dropped_bytes, s.dropped_bytes, "dropped_bytes diverged");
    assert_eq!(t.dup_msgs, s.dup_msgs, "dup_msgs diverged");
    assert_eq!(t.dup_bytes, s.dup_bytes, "dup_bytes diverged");
    assert_eq!(t.delayed_msgs, s.delayed_msgs, "delayed_msgs diverged");
    assert_eq!(t.retries, s.retries, "retries diverged");
}

/// Fault seed for the lossy variants; override with `FAULT_SEED=<n>` so CI
/// can sweep several fate streams without recompiling.
fn fault_seed() -> u64 {
    std::env::var("FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7)
}

fn base_cfg(workers: usize) -> MdGanConfig {
    MdGanConfig {
        workers,
        k: KPolicy::LogN,
        epochs_per_swap: 1.0,
        swap: SwapPolicy::Derangement,
        hyper: GanHyper {
            batch: 4,
            ..GanHyper::default()
        },
        iterations: 10,
        seed: 21,
        crash: CrashSchedule::none(),
        ..MdGanConfig::default()
    }
}

#[test]
fn equivalent_with_swaps() {
    // m = 32, b = 4 -> swap every 8 iterations; 17 iterations cross two swaps.
    check_equivalence(base_cfg(3), 17);
}

#[test]
fn equivalent_with_k_one() {
    let cfg = MdGanConfig {
        k: KPolicy::One,
        ..base_cfg(4)
    };
    check_equivalence(cfg, 9);
}

#[test]
fn equivalent_with_k_all() {
    let cfg = MdGanConfig {
        k: KPolicy::All,
        ..base_cfg(3)
    };
    check_equivalence(cfg, 9);
}

#[test]
fn equivalent_with_ring_swap() {
    let cfg = MdGanConfig {
        swap: SwapPolicy::Ring,
        ..base_cfg(4)
    };
    check_equivalence(cfg, 16);
}

#[test]
fn equivalent_under_crashes() {
    let cfg = MdGanConfig {
        crash: CrashSchedule::new(vec![(3, 2), (7, 1)]),
        ..base_cfg(4)
    };
    check_equivalence(cfg, 12);
}

#[test]
fn equivalent_single_worker() {
    let cfg = MdGanConfig {
        swap: SwapPolicy::Disabled,
        ..base_cfg(1)
    };
    check_equivalence(cfg, 6);
}

/// A non-trivial fault plan exercising every fate: drops, duplicates,
/// bounded delay, plus a node partition window.
fn faulty_cfg(workers: usize) -> MdGanConfig {
    let mut cfg = base_cfg(workers);
    cfg.fault = FaultPlan {
        seed: fault_seed(),
        drop: 0.15,
        duplicate: 0.1,
        delay: 0.1,
        max_delay_ticks: 2,
        partitions: vec![Partition::node(2, 4, 6)],
    };
    cfg
}

#[test]
fn equivalent_under_lossy_network() {
    let cfg = faulty_cfg(4);
    check_equivalence(cfg, 12);
}

#[test]
fn equivalent_under_faults_and_crash() {
    let mut cfg = faulty_cfg(4);
    cfg.crash = CrashSchedule::new(vec![(5, 2)]);
    check_equivalence(cfg, 12);
}

#[test]
fn equivalent_pure_drop_heavy() {
    let mut cfg = base_cfg(3);
    cfg.fault = FaultPlan::lossy(fault_seed() ^ 0xD0D0, 0.35);
    cfg.robust.retries = 1;
    check_equivalence(cfg, 10);
}
