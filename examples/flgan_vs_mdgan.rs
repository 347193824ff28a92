//! Head-to-head: FL-GAN vs MD-GAN vs standalone on the same data, scorer
//! and iteration budget — a miniature of the paper's Figure 3 comparison,
//! including the communication bill.
//!
//! ```text
//! cargo run --release --example flgan_vs_mdgan
//! ```

use mdgan_repro::core::config::{FlGanConfig, GanHyper, KPolicy, MdGanConfig, SwapPolicy};
use mdgan_repro::core::flgan::FlGan;
use mdgan_repro::core::standalone::StandaloneGan;
use mdgan_repro::core::{train_curve, ArchSpec, Evaluator, MdGan};
use mdgan_repro::data::synthetic::mnist_like;
use mdgan_repro::telemetry::Recorder;
use mdgan_repro::tensor::rng::Rng64;
use std::sync::Arc;

fn main() {
    let silent = Arc::new(Recorder::disabled());
    let workers = 10usize;
    let iters = 400usize;
    let img = 16usize;
    let data = mnist_like(img, 2048 + 512, 42, 0.08);
    let (train, test) = data.split_test(512);
    let mut evaluator = Evaluator::new(&train, &test, 256, 42);
    let spec = ArchSpec::mlp_mnist_scaled(img);
    let hyper = GanHyper {
        batch: 10,
        ..GanHyper::default()
    };

    println!("competitor            |    MS ↑ |   FID ↓ | traffic");
    println!("----------------------+---------+---------+---------");

    // Standalone (sees the whole dataset).
    let mut rng = Rng64::seed_from_u64(1);
    let mut sa = StandaloneGan::new(&spec, train.clone(), hyper, &mut rng);
    let t =
        train_curve(&mut sa, iters, iters / 4, &mut evaluator, &silent).expect("training diverged");
    report("standalone b=10", &t, None);

    // FL-GAN.
    let mut rng = Rng64::seed_from_u64(2);
    let shards = train.shard_iid(workers, &mut rng);
    let mut fl = FlGan::new(
        &spec,
        shards,
        FlGanConfig {
            workers,
            epochs_per_round: 1.0,
            hyper,
            iterations: iters,
            seed: 3,
        },
    );
    let t =
        train_curve(&mut fl, iters, iters / 4, &mut evaluator, &silent).expect("training diverged");
    let fl_mb = fl.traffic().total_bytes() as f64 / (1024.0 * 1024.0);
    report("FL-GAN b=10", &t, Some(fl_mb));

    // MD-GAN.
    let mut rng = Rng64::seed_from_u64(2);
    let shards = train.shard_iid(workers, &mut rng);
    let mut md = MdGan::new(
        &spec,
        shards,
        MdGanConfig {
            workers,
            k: KPolicy::LogN,
            epochs_per_swap: 1.0,
            swap: SwapPolicy::Derangement,
            hyper,
            iterations: iters,
            seed: 3,
            crash: Default::default(),
            ..MdGanConfig::default()
        },
    );
    let t =
        train_curve(&mut md, iters, iters / 4, &mut evaluator, &silent).expect("training diverged");
    let md_mb = md.traffic().total_bytes() as f64 / (1024.0 * 1024.0);
    report("MD-GAN k=log(N) b=10", &t, Some(md_mb));

    println!(
        "\nworker-side compute: MD-GAN trains only D per worker (≈half of\n\
         FL-GAN's G+D), the paper's headline — see Table II and\n\
         `cargo run -p md-bench --bin mdgan -- table2`."
    );
}

fn report(label: &str, t: &mdgan_repro::core::ScoreTimeline, traffic_mb: Option<f64>) {
    let f = t.final_scores(2).expect("timeline not empty");
    let traffic = traffic_mb
        .map(|m| format!("{m:7.1} MB"))
        .unwrap_or_else(|| "      -".into());
    println!(
        "{label:21} | {:7.3} | {:7.2} | {traffic}",
        f.inception_score, f.fid
    );
}
