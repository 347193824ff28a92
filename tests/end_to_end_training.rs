//! End-to-end training behaviour: every competitor must actually *learn*
//! (FID drops substantially from the untrained starting point) on the
//! synthetic MNIST-like dataset, at test scale.

use mdgan_repro::core::config::{FlGanConfig, GanHyper, KPolicy, MdGanConfig, SwapPolicy};
use mdgan_repro::core::flgan::FlGan;
use mdgan_repro::core::standalone::StandaloneGan;
use mdgan_repro::core::{train_curve, ArchSpec, Evaluator, MdGan};
use mdgan_repro::data::synthetic::mnist_like;
use mdgan_repro::data::Dataset;
use mdgan_repro::telemetry::Recorder;
use mdgan_repro::tensor::rng::Rng64;
use std::sync::Arc;

fn off() -> Arc<Recorder> {
    Arc::new(Recorder::disabled())
}

const IMG: usize = 12;
const ITERS: usize = 300;

fn setup() -> (Dataset, Dataset, Evaluator, ArchSpec) {
    let data = mnist_like(IMG, 1024 + 256, 42, 0.08);
    let (train, test) = data.split_test(256);
    let evaluator = Evaluator::new(&train, &test, 128, 42);
    let spec = ArchSpec::mlp_mnist_scaled(IMG);
    (train, test, evaluator, spec)
}

/// FID at iteration 0 vs best over the run must improve by a healthy
/// margin; IS must rise above the mode-collapse floor of 1.
fn assert_learned(label: &str, timeline: &mdgan_repro::core::ScoreTimeline) {
    let first = timeline.points().first().expect("has points").1;
    let best_fid = timeline.best_fid().unwrap();
    let best_is = timeline.best_is().unwrap();
    assert!(
        best_fid < 0.7 * first.fid,
        "{label}: FID did not improve enough ({} -> best {})",
        first.fid,
        best_fid
    );
    assert!(best_is > 1.5, "{label}: IS stuck at {best_is}");
    assert!(timeline.points().iter().all(|(_, s)| s.fid.is_finite()));
}

#[test]
fn standalone_gan_learns() {
    let (train, _test, mut evaluator, spec) = setup();
    let mut rng = Rng64::seed_from_u64(1);
    let mut gan = StandaloneGan::new(
        &spec,
        train,
        GanHyper {
            batch: 16,
            ..GanHyper::default()
        },
        &mut rng,
    );
    let timeline = train_curve(&mut gan, ITERS, 50, &mut evaluator, &off()).unwrap();
    assert_learned("standalone", &timeline);
}

#[test]
fn mdgan_learns_across_workers() {
    let (train, _test, mut evaluator, spec) = setup();
    let mut rng = Rng64::seed_from_u64(2);
    let shards = train.shard_iid(4, &mut rng);
    let cfg = MdGanConfig {
        workers: 4,
        k: KPolicy::LogN,
        epochs_per_swap: 1.0,
        swap: SwapPolicy::Derangement,
        hyper: GanHyper {
            batch: 16,
            ..GanHyper::default()
        },
        iterations: ITERS,
        seed: 3,
        crash: Default::default(),
        ..MdGanConfig::default()
    };
    let mut md = MdGan::new(&spec, shards, cfg);
    let timeline = train_curve(&mut md, ITERS, 50, &mut evaluator, &off()).unwrap();
    assert_learned("MD-GAN", &timeline);
    // The distributed run also paid a communication bill.
    assert!(md.traffic().total_bytes() > 0);
}

#[test]
fn flgan_learns_across_workers() {
    let (train, _test, mut evaluator, spec) = setup();
    let mut rng = Rng64::seed_from_u64(4);
    let shards = train.shard_iid(4, &mut rng);
    let cfg = FlGanConfig {
        workers: 4,
        epochs_per_round: 1.0,
        hyper: GanHyper {
            batch: 16,
            ..GanHyper::default()
        },
        iterations: ITERS,
        seed: 5,
    };
    let mut fl = FlGan::new(&spec, shards, cfg);
    let timeline = train_curve(&mut fl, ITERS, 50, &mut evaluator, &off()).unwrap();
    assert_learned("FL-GAN", &timeline);
}

#[test]
fn mdgan_with_crashes_keeps_training() {
    let (train, _test, mut evaluator, spec) = setup();
    let mut rng = Rng64::seed_from_u64(6);
    let shards = train.shard_iid(4, &mut rng);
    let crash = mdgan_repro::simnet::CrashSchedule::new(vec![(ITERS / 3, 1), (2 * ITERS / 3, 3)]);
    let cfg = MdGanConfig {
        workers: 4,
        k: KPolicy::LogN,
        epochs_per_swap: 1.0,
        swap: SwapPolicy::Derangement,
        hyper: GanHyper {
            batch: 16,
            ..GanHyper::default()
        },
        iterations: ITERS,
        seed: 7,
        crash,
        ..MdGanConfig::default()
    };
    let mut md = MdGan::new(&spec, shards, cfg);
    let timeline = train_curve(&mut md, ITERS, 50, &mut evaluator, &off()).unwrap();
    assert_eq!(md.alive_workers(), vec![2, 4]);
    assert_learned("MD-GAN with crashes", &timeline);
}
