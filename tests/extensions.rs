//! Integration tests of the §VII extensions across crates.

use mdgan_repro::core::byzantine::{Aggregation, Attack};
use mdgan_repro::core::checkpoint::Checkpoint;
use mdgan_repro::core::compression::Codec;
use mdgan_repro::core::config::{FlGanConfig, GanHyper, KPolicy, MdGanConfig, SwapPolicy};
use mdgan_repro::core::gossip::GossipGan;
use mdgan_repro::core::mdgan::asynchronous::{AsyncConfig, AsyncMdGan};
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
const WORKERS: usize = 4;

fn shards(seed: u64) -> (Dataset, Vec<Dataset>) {
    let data = mnist_like(IMG, 1024 + 256, 42, 0.08);
    let (train, _) = data.split_test(256);
    let mut rng = Rng64::seed_from_u64(seed);
    let sh = train.shard_iid(WORKERS, &mut rng);
    (train, sh)
}

fn cfg(iters: usize) -> MdGanConfig {
    MdGanConfig {
        workers: WORKERS,
        k: KPolicy::LogN,
        epochs_per_swap: 1.0,
        swap: SwapPolicy::Derangement,
        hyper: GanHyper {
            batch: 16,
            ..GanHyper::default()
        },
        iterations: iters,
        seed: 3,
        crash: Default::default(),
        ..MdGanConfig::default()
    }
}

#[test]
fn async_mdgan_learns() {
    let data = mnist_like(IMG, 1024 + 256, 42, 0.08);
    let (train, test) = data.split_test(256);
    let mut evaluator = Evaluator::new(&train, &test, 128, 42);
    let mut rng = Rng64::seed_from_u64(2);
    let sh = train.shard_iid(WORKERS, &mut rng);
    let spec = ArchSpec::mlp_mnist_scaled(IMG);
    let mut amd = AsyncMdGan::new(&spec, sh, cfg(300), AsyncConfig::default());
    // 300 synchronous iterations' worth of feedback events.
    let timeline = amd.train(300 * WORKERS, 100 * WORKERS, Some(&mut evaluator));
    let first = timeline.points().first().unwrap().1;
    let best = timeline.best_fid().unwrap();
    assert!(
        best < 0.7 * first.fid,
        "async MD-GAN did not learn: {} -> {best}",
        first.fid
    );
    assert!(amd.async_stats().updates == 300 * WORKERS as u64);
}

#[test]
fn compressed_training_learns_with_a_fraction_of_the_traffic() {
    let data = mnist_like(IMG, 1024 + 256, 42, 0.08);
    let (train, test) = data.split_test(256);
    let mut evaluator = Evaluator::new(&train, &test, 128, 42);
    let mut rng = Rng64::seed_from_u64(4);
    let sh = train.shard_iid(WORKERS, &mut rng);
    let spec = ArchSpec::mlp_mnist_scaled(IMG);

    let mut plain = MdGan::new(&spec, sh.clone(), cfg(300));
    let plain_t = train_curve(&mut plain, 300, 100, &mut evaluator, &off()).unwrap();

    let mut coded = MdGan::new(&spec, sh, cfg(300))
        .with_codecs(Codec::Quantize8, Codec::TopKQuantize8 { frac: 0.25 });
    let coded_t = train_curve(&mut coded, 300, 100, &mut evaluator, &off()).unwrap();

    // Traffic shrinks by > 2.5x overall.
    // (swap messages stay uncompressed, so the overall ratio is below the
    // per-message ~4x)
    let ratio = plain.traffic().total_bytes() as f64 / coded.traffic().total_bytes() as f64;
    assert!(ratio > 2.0, "compression ratio only {ratio}");

    // Both learn (FID drops markedly from the untrained start).
    for (name, t) in [("plain", &plain_t), ("coded", &coded_t)] {
        let first = t.points().first().unwrap().1.fid;
        let best = t.best_fid().unwrap();
        assert!(
            best < 0.75 * first,
            "{name} run did not learn ({first} -> {best})"
        );
    }
}

#[test]
fn byzantine_minority_with_median_still_learns() {
    let data = mnist_like(IMG, 1024 + 256, 42, 0.08);
    let (train, test) = data.split_test(256);
    let mut evaluator = Evaluator::new(&train, &test, 128, 42);
    let mut rng = Rng64::seed_from_u64(5);
    let sh = train.shard_iid(WORKERS, &mut rng);
    let spec = ArchSpec::mlp_mnist_scaled(IMG);
    let mut attacks = vec![Attack::None; WORKERS];
    attacks[0] = Attack::SignFlip { scale: 10.0 };
    // k = 1 so all four feedbacks share one batch group — the coordinate
    // median then tolerates the single attacker (with k = log N the groups
    // have size 2, where a median cannot out-vote anyone).
    let mut byz_cfg = cfg(300);
    byz_cfg.k = KPolicy::One;
    (byz_cfg.attacks, byz_cfg.aggregation) = (attacks, Aggregation::CoordinateMedian);
    let mut md = MdGan::new(&spec, sh, byz_cfg);
    let t = train_curve(&mut md, 300, 100, &mut evaluator, &off()).unwrap();
    let first = t.points().first().unwrap().1.fid;
    let best = t.best_fid().unwrap();
    assert!(
        best < 0.8 * first,
        "defended run did not learn ({first} -> {best})"
    );
    assert!(md.gen_params().iter().all(|v| v.is_finite()));
}

#[test]
fn non_iid_shards_train_end_to_end() {
    let data = mnist_like(IMG, 1024 + 256, 42, 0.08);
    let (train, _) = data.split_test(256);
    let mut rng = Rng64::seed_from_u64(6);
    let sh = train.shard_label_skew(WORKERS, 1.0, &mut rng);
    let spec = ArchSpec::mlp_mnist_scaled(IMG);
    let mut md = MdGan::new(&spec, sh, cfg(50));
    for _ in 0..50 {
        md.step();
    }
    assert!(md.gen_params().iter().all(|v| v.is_finite()));
    // The swap is what lets discriminators see other label regions.
    assert!(md.swaps() > 0);
}

#[test]
fn gossip_gan_runs_and_mixes() {
    let (_, sh) = shards(7);
    let spec = ArchSpec::mlp_mnist_scaled(IMG);
    let fl_cfg = FlGanConfig {
        workers: WORKERS,
        epochs_per_round: 1.0,
        hyper: GanHyper {
            batch: 16,
            ..GanHyper::default()
        },
        iterations: 40,
        seed: 8,
    };
    let mut gg = GossipGan::new(&spec, sh, fl_cfg);
    let interval = gg.round_interval();
    for _ in 0..interval * 2 {
        gg.step();
    }
    assert_eq!(gg.exchanges(), 2 * WORKERS as u64);
    assert!(gg
        .observer_generator()
        .net
        .get_params_flat()
        .iter()
        .all(|v| v.is_finite()));
    // Decentralized: zero server traffic.
    let r = gg.traffic();
    assert_eq!(r.server_ingress(), 0);
    assert!(r.bytes(mdgan_repro::simnet::LinkClass::WorkerToWorker) > 0);
}

#[test]
fn checkpoint_survives_disk_roundtrip_mid_training() {
    let (_, sh) = shards(9);
    let spec = ArchSpec::mlp_mnist_scaled(IMG);
    let mut md = MdGan::new(&spec, sh, cfg(20));
    for _ in 0..10 {
        md.step();
    }
    let ck = md.checkpoint();
    let path = std::env::temp_dir().join("mdgan_integration.ckpt");
    ck.save(&path).unwrap();
    let loaded = Checkpoint::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded, ck);
    for _ in 0..5 {
        md.step();
    }
    md.restore(&loaded).unwrap();
    assert_eq!(md.iterations(), 10);
    assert_eq!(md.gen_params().as_slice(), ck.get("generator").unwrap());
}
