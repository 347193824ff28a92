//! Places where the hand-written copies of Algorithm 1 had drifted apart:
//! `Coordinator::round` spells the server side once, `mdgan::worker` the
//! worker's turn and swap-in.

use mdgan_repro::core::config::{GanHyper, KPolicy, MdGanConfig, SwapPolicy};
use mdgan_repro::core::mdgan::threaded::run_threaded_with;
use mdgan_repro::core::{ArchSpec, MdGan};
use mdgan_repro::data::synthetic::mnist_like;
use mdgan_repro::simnet::CrashSchedule;
use mdgan_repro::telemetry::{Counter, Event, Recorder, TimedEvent};
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

/// A robust swap whose source crashed before anyone suspects it: the
/// destination times out, whichever runtime carried the swap.
#[test]
fn swap_timeout_is_the_same_event_on_both_runtimes() {
    let spec = ArchSpec::mlp_mnist_scaled(12);
    // m / b = 2: iterations 1, 3 and 5 swap; worker 2 dies at 3, unsuspected.
    let shards = mnist_like(12, 3 * 8, 1, 0.08).shard_iid(3, &mut Rng64::seed_from_u64(4));
    let mut cfg = MdGanConfig {
        workers: 3,
        k: KPolicy::One,
        epochs_per_swap: 1.0,
        swap: SwapPolicy::Derangement,
        hyper: GanHyper {
            batch: 4,
            ..GanHyper::default()
        },
        iterations: 6,
        seed: 7,
        crash: CrashSchedule::new(vec![(3, 2)]),
        ..MdGanConfig::default()
    };
    cfg.robust.enabled = true;
    cfg.robust.suspect_after = 2;
    cfg.robust.probe_period = 0;
    let timeouts = |rec: &Recorder| -> Vec<usize> {
        let value = |e: &TimedEvent| match e.event {
            Event::Custom {
                name: "swap_timeout",
                value,
            } => Some(value as usize),
            _ => None,
        };
        rec.events().iter().filter_map(value).collect()
    };

    let seq_rec = Arc::new(Recorder::enabled());
    let mut seq =
        MdGan::new(&spec, shards.clone(), cfg.clone()).with_telemetry(Arc::clone(&seq_rec));
    for _ in 0..6 {
        seq.step();
    }
    let thr_rec = Arc::new(Recorder::enabled());
    let thr = run_threaded_with(&spec, shards, cfg, None, 6, 1000, Arc::clone(&thr_rec));

    assert_eq!(thr.gen_params, seq.gen_params());
    assert_eq!(timeouts(&thr_rec), vec![3]);
    assert_eq!(timeouts(&seq_rec), timeouts(&thr_rec));
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
