//! Two places where the hand-written copies of Algorithm 1's server side
//! had drifted apart; `Coordinator::round` spells each once.

use mdgan_repro::core::config::{GanHyper, KPolicy, MdGanConfig, SwapPolicy};
use mdgan_repro::core::{ArchSpec, MdGan};
use mdgan_repro::data::synthetic::mnist_like;
use mdgan_repro::simnet::CrashSchedule;
use mdgan_repro::telemetry::{Counter, Recorder};
use mdgan_repro::tensor::rng::Rng64;
use std::sync::Arc;

fn build(workers: usize, swap: SwapPolicy, edit: impl FnOnce(&mut MdGanConfig)) -> MdGan {
    let shards =
        mnist_like(12, workers * 32, 1, 0.08).shard_iid(workers, &mut Rng64::seed_from_u64(4));
    let mut cfg = MdGanConfig {
        workers,
        k: KPolicy::One,
        epochs_per_swap: 1.0,
        swap,
        hyper: GanHyper {
            batch: 4,
            ..GanHyper::default()
        },
        iterations: 100,
        seed: 7,
        ..MdGanConfig::default()
    };
    edit(&mut cfg);
    MdGan::new(&ArchSpec::mlp_mnist_scaled(12), shards, cfg)
}

/// Every send is counted on the recorder whichever arm of the link carried
/// it, as `Endpoint::send_ctx`, FL-GAN and gossip already do.
#[test]
fn reliable_and_lossy_arms_count_the_same_sends() {
    let run = |robust: bool| {
        let rec = Arc::new(Recorder::enabled());
        let mut md = build(3, SwapPolicy::Ring, |c| c.robust.enabled = robust)
            .with_telemetry(Arc::clone(&rec));
        // m / b = 8: the eighth iteration swaps.
        for _ in 0..8 {
            md.step();
        }
        assert_eq!(md.swaps(), 1);
        let bytes = md.traffic().total_bytes();
        assert_eq!(rec.counter(Counter::BytesSent), bytes);
        (rec.counter(Counter::MsgsSent), bytes)
    };
    let (msgs, bytes) = run(false);
    // 8 × (3 downlinks + 3 uplinks) + 3 swap transfers.
    assert_eq!(msgs, 51);
    assert_eq!((msgs, bytes), run(true));
}

/// An iteration nobody can be addressed in still ends the one way.
#[test]
fn every_iteration_ends_with_iter_done_when_all_hosts_crashed() {
    let rec = Arc::new(Recorder::enabled());
    let mut md = build(4, SwapPolicy::Disabled, |c| {
        c.crash = CrashSchedule::new(vec![(1, 1), (1, 2)]);
    })
    .with_disc_count(2)
    .with_telemetry(Arc::clone(&rec));
    let before = md.gen_params();
    md.step();
    assert_ne!(md.gen_params(), before);
    let frozen = md.gen_params();
    for _ in 0..4 {
        md.step();
    }
    // Workers 3 and 4 live on but host nothing: the generator stands still.
    assert_eq!(md.alive_workers(), vec![3, 4]);
    assert_eq!(md.gen_params(), frozen);
    assert_eq!(md.iterations(), 5);
    assert_eq!(rec.counter(Counter::Iterations), 5);
}
