//! The paper's headline scenario: a dataset spread over 10 workers that
//! never share their data, trained with MD-GAN — a single generator on the
//! server, one discriminator per worker, gossip swaps every epoch.
//!
//! Prints score progress and the full traffic accounting (the quantities
//! of Table III).
//!
//! ```text
//! cargo run --release --example distributed_mdgan
//! ```

use mdgan_repro::core::config::{GanHyper, KPolicy, MdGanConfig, SwapPolicy};
use mdgan_repro::core::{train_curve, ArchSpec, Evaluator, MdGan};
use mdgan_repro::data::synthetic::mnist_like;
use mdgan_repro::simnet::LinkClass;
use mdgan_repro::telemetry::Recorder;
use mdgan_repro::tensor::rng::Rng64;
use std::sync::Arc;

fn main() {
    let silent = Arc::new(Recorder::disabled());
    let workers = 10usize;
    let img = 16usize;
    println!("generating data and sharding i.i.d. over {workers} workers...");
    let data = mnist_like(img, 2048 + 512, 42, 0.08);
    let (train, test) = data.split_test(512);
    let mut rng = Rng64::seed_from_u64(1);
    let shards = train.shard_iid(workers, &mut rng);
    println!(
        "each worker holds m = {} local images (they never leave the worker)",
        shards[0].len()
    );

    let mut evaluator = Evaluator::new(&train, &test, 256, 42);
    let spec = ArchSpec::mlp_mnist_scaled(img);
    let cfg = MdGanConfig {
        workers,
        k: KPolicy::LogN,
        epochs_per_swap: 1.0,
        swap: SwapPolicy::Derangement,
        hyper: GanHyper {
            batch: 10,
            ..GanHyper::default()
        },
        iterations: 400,
        seed: 7,
        crash: Default::default(),
        ..MdGanConfig::default()
    };
    let mut md = MdGan::new(&spec, shards, cfg);
    println!(
        "MD-GAN: k = {} generated batches/iteration, swap every {} iterations",
        md.k(),
        md.swap_interval()
    );

    let timeline =
        train_curve(&mut md, 400, 50, &mut evaluator, &silent).expect("training diverged");
    println!("\n   iter |    MS ↑ |   FID ↓");
    for (it, s) in timeline.points() {
        println!("  {it:5} | {:7.3} | {:7.2}", s.inception_score, s.fid);
    }

    let t = md.traffic();
    println!(
        "\ntraffic after {} iterations and {} swaps:",
        md.iterations(),
        md.swaps()
    );
    let mb = |b: u64| b as f64 / (1024.0 * 1024.0);
    println!(
        "  server→workers : {:8.2} MB in {} messages (2bd per worker per iteration)",
        mb(t.bytes(LinkClass::ServerToWorker)),
        t.msgs(LinkClass::ServerToWorker)
    );
    println!(
        "  workers→server : {:8.2} MB in {} messages (the bd feedbacks F_n)",
        mb(t.bytes(LinkClass::WorkerToServer)),
        t.msgs(LinkClass::WorkerToServer)
    );
    println!(
        "  worker↔worker  : {:8.2} MB in {} messages (θ per swap hop)",
        mb(t.bytes(LinkClass::WorkerToWorker)),
        t.msgs(LinkClass::WorkerToWorker)
    );
    println!(
        "  busiest worker ingress: {:.2} MB",
        mb(t.max_worker_ingress())
    );
    println!("  server ingress        : {:.2} MB", mb(t.server_ingress()));
}
