//! Checkpoint bytes pinned **across commits**. The resume tests elsewhere
//! compare two runs of the same build, so a change that moved a section,
//! a counter or an RNG draw in both runtimes at once would pass them. These
//! hashes were recorded at the commit before `Coordinator::round` replaced
//! the four hand-written copies of Algorithm 1's server side, and
//! re-recorded once when the transcendentals moved from the host libm to
//! `md_tensor::math`; a refactor of the runtimes must leave them alone.

use mdgan_repro::core::byzantine::Attack;
use mdgan_repro::core::config::{GanHyper, KPolicy, MdGanConfig, SwapPolicy};
use mdgan_repro::core::mdgan::asynchronous::{AsyncConfig, AsyncMdGan};
use mdgan_repro::core::mdgan::threaded::{run_threaded_checkpointed, ThreadedCheckpointing};
use mdgan_repro::core::{ArchSpec, MdGan};
use mdgan_repro::data::synthetic::mnist_like;
use mdgan_repro::data::Dataset;
use mdgan_repro::simnet::{
    ChurnEvent, ChurnKind, ChurnPlan, CrashSchedule, FaultPlan, MemberStatus,
};
use mdgan_repro::telemetry::Recorder;
use mdgan_repro::tensor::rng::Rng64;
use std::sync::Arc;

const IMG: usize = 12;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `m / b = 2`: a swap every second iteration, so three iterations cross one.
fn shards(total: usize) -> Vec<Dataset> {
    mnist_like(IMG, total * 8, 5, 0.08).shard_iid(total, &mut Rng64::seed_from_u64(5))
}

fn cfg(workers: usize) -> MdGanConfig {
    MdGanConfig {
        workers,
        k: KPolicy::LogN,
        epochs_per_swap: 1.0,
        swap: SwapPolicy::Derangement,
        hyper: GanHyper {
            batch: 4,
            ..GanHyper::default()
        },
        iterations: 3,
        seed: 33,
        ..MdGanConfig::default()
    }
}

fn hash_after(md: &mut MdGan, iters: usize) -> u64 {
    assert_eq!(md.swap_interval(), 2);
    for _ in 0..iters {
        md.step();
    }
    assert!(md.swaps() >= 1, "the pinned run must cross a swap");
    fnv1a(&md.checkpoint().to_bytes())
}

#[test]
fn plain_run() {
    let mut md = MdGan::new(&ArchSpec::mlp_mnist_scaled(IMG), shards(4), cfg(4));
    assert_eq!(hash_after(&mut md, 3), 9135493049062759798);
}

#[test]
fn churned_run() {
    let events = vec![
        ChurnEvent {
            iter: 1,
            worker: 4,
            kind: ChurnKind::Join,
        },
        ChurnEvent {
            iter: 1,
            worker: 2,
            kind: ChurnKind::Leave,
        },
        ChurnEvent {
            iter: 2,
            worker: 1,
            kind: ChurnKind::Crash,
        },
    ];
    let mut c = cfg(3);
    c.churn = ChurnPlan::from_events(3, events).unwrap();
    let mut md = MdGan::new(&ArchSpec::mlp_mnist_scaled(IMG), shards(4), c);
    assert_eq!(hash_after(&mut md, 3), 11793905460841174717);
    assert_eq!(md.alive_workers(), vec![3, 4]);
}

/// Five relocations of two discriminators over four workers: the hosts move.
/// Re-recorded on purpose when relocation became one swap (every host ships
/// the `D` it holds before any is overwritten); the old one-at-a-time
/// transfers lost a `D` and duplicated the other.
#[test]
fn disc_count_run() {
    let mut md = MdGan::new(&ArchSpec::mlp_mnist_scaled(IMG), shards(4), cfg(4)).with_disc_count(2);
    assert_eq!(hash_after(&mut md, 10), 9154331586764174848);
    assert_eq!(md.swaps(), 5);
}

/// §VII.4 relocates the discriminators, it does not copy them: every step
/// leaves the two hosts holding two different `D`s.
#[test]
fn disc_count_hosts_hold_distinct_discriminators() {
    let mut md = MdGan::new(&ArchSpec::mlp_mnist_scaled(IMG), shards(4), cfg(4)).with_disc_count(2);
    for step in 0..10 {
        md.step();
        let ck = md.checkpoint();
        let hosts = ck.get_u64("disc_hosts").expect("hosts recorded");
        let disc = |h: u64| ck.get(&format!("disc_{}", h + 1)).expect("host alive");
        let same = disc(hosts[0]) == disc(hosts[1]);
        assert!(!same, "hosts {hosts:?} share one D after step {step}");
    }
    assert_eq!(md.swaps(), 5);
}

/// The lossy path with the free-rider defense on: fates, detector
/// transitions and quarantine decisions all feed the pinned state.
#[test]
fn robust_run() {
    let mut c = cfg(4);
    c.fault = FaultPlan {
        seed: 9,
        drop: 0.15,
        duplicate: 0.05,
        delay: 0.05,
        max_delay_ticks: 2,
        partitions: Vec::new(),
    };
    c.defense.enabled = true;
    c.attacks = vec![Attack::PureNoise { std: 5.0 }];
    c.robust.suspect_after = 1;
    c.robust.evict_after = 1;
    c.robust.probe_period = 1;
    let mut md = MdGan::new(&ArchSpec::mlp_mnist_scaled(IMG), shards(4), c);
    assert_eq!(hash_after(&mut md, 12), 8637178278801711034);
    let t = md.traffic();
    assert!(
        t.dropped_msgs > 0 && t.retries > 0,
        "the fault plan never fired"
    );
    assert_eq!(md.membership().status(0), MemberStatus::Evicted);
}

/// The asynchronous runtime shares the server and worker section helpers.
#[test]
fn async_run() {
    let mut c = cfg(3);
    c.churn = ChurnPlan::from_events(
        3,
        vec![ChurnEvent {
            iter: 4,
            worker: 4,
            kind: ChurnKind::Join,
        }],
    )
    .unwrap();
    let mut md = AsyncMdGan::new(
        &ArchSpec::mlp_mnist_scaled(IMG),
        shards(4),
        c,
        AsyncConfig::default(),
    );
    for _ in 0..14 {
        md.step_event();
    }
    assert_eq!(fnv1a(&md.checkpoint().to_bytes()), 13241893257486185582);
}

fn async_hash_after(c: MdGanConfig, total: usize, events: usize) -> (AsyncMdGan, u64) {
    let spec = ArchSpec::mlp_mnist_scaled(IMG);
    let mut md = AsyncMdGan::new(&spec, shards(total), c, AsyncConfig::default());
    for _ in 0..events {
        md.step_event();
    }
    let hash = fnv1a(&md.checkpoint().to_bytes());
    (md, hash)
}

/// Asynchronous dispatches, feedbacks and swap transfers over lossy links.
#[test]
fn async_lossy_run() {
    let mut c = cfg(4);
    c.fault = FaultPlan {
        seed: 9,
        drop: 0.3,
        duplicate: 0.05,
        delay: 0.05,
        max_delay_ticks: 2,
        partitions: Vec::new(),
    };
    c.robust.retries = 0;
    let (md, hash) = async_hash_after(c, 4, 40);
    assert_eq!(hash, 12722058206277921977);
    assert!(md.traffic().dropped_msgs > 0, "the fault plan never fired");
}

/// The asynchronous free-rider defense: flag, evict, release the slot.
#[test]
fn async_defended_run() {
    let mut c = cfg(4);
    c.defense.enabled = true;
    c.attacks = vec![Attack::PureNoise { std: 5.0 }];
    let (md, hash) = async_hash_after(c, 4, 40);
    assert_eq!(hash, 10529828308733956531);
    assert_eq!(md.membership().status(0), MemberStatus::Evicted);
}

/// An injected crash, a join and a leave, all in update time.
#[test]
fn async_crash_and_churn_run() {
    let mut c = cfg(3);
    c.crash = CrashSchedule::new(vec![(3, 2)]);
    let events = vec![
        ChurnEvent {
            iter: 2,
            worker: 4,
            kind: ChurnKind::Join,
        },
        ChurnEvent {
            iter: 6,
            worker: 3,
            kind: ChurnKind::Leave,
        },
    ];
    c.churn = ChurnPlan::from_events(3, events).unwrap();
    let (_, hash) = async_hash_after(c, 4, 24);
    assert_eq!(hash, 9504396736149023369);
}

#[test]
fn threaded_saved_file() {
    let dir = std::env::temp_dir().join(format!("mdgan-ckpt-pins-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let pol = ThreadedCheckpointing {
        path: dir.join("ck.bin"),
        every: 3,
    };
    let _ = std::fs::remove_file(&pol.path);
    run_threaded_checkpointed(
        &ArchSpec::mlp_mnist_scaled(IMG),
        shards(4),
        cfg(4),
        None,
        3,
        1000,
        Arc::new(Recorder::disabled()),
        &pol,
    )
    .unwrap();
    let bytes = std::fs::read(&pol.path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(fnv1a(&bytes), 9688449929869102972);
}
