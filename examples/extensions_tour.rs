//! A tour of the §VII "perspectives" the paper sketches and this
//! repository implements: asynchronous updates, message compression,
//! byzantine workers with robust aggregation, partial discriminator
//! hosting, plus checkpoint/restore.
//!
//! ```text
//! cargo run --release --example extensions_tour
//! ```

use mdgan_repro::core::byzantine::{Aggregation, Attack};
use mdgan_repro::core::compression::Codec;
use mdgan_repro::core::config::{GanHyper, KPolicy, MdGanConfig, SwapPolicy};
use mdgan_repro::core::mdgan::asynchronous::{AsyncConfig, AsyncMdGan};
use mdgan_repro::core::{ArchSpec, MdGan};
use mdgan_repro::data::synthetic::mnist_like;
use mdgan_repro::tensor::rng::Rng64;

fn main() {
    let workers = 4usize;
    let img = 12usize;
    let data = mnist_like(img, workers * 64, 42, 0.08);
    let spec = ArchSpec::mlp_mnist_scaled(img);
    let cfg = MdGanConfig {
        workers,
        k: KPolicy::LogN,
        epochs_per_swap: 1.0,
        swap: SwapPolicy::Derangement,
        hyper: GanHyper {
            batch: 8,
            ..GanHyper::default()
        },
        iterations: 40,
        seed: 7,
        crash: Default::default(),
        ..MdGanConfig::default()
    };
    let shards = |salt: u64| {
        let mut rng = Rng64::seed_from_u64(salt);
        data.shard_iid(workers, &mut rng)
    };
    let mb = |b: u64| b as f64 / (1024.0 * 1024.0);

    // 1. Asynchronous MD-GAN (§VII.1).
    println!("== asynchronous MD-GAN (§VII.1) ==");
    let mut amd = AsyncMdGan::new(&spec, shards(1), cfg.clone(), AsyncConfig::default());
    for _ in 0..40 * workers {
        amd.step_event();
    }
    let s = amd.async_stats();
    println!(
        "applied {} per-feedback updates; mean staleness {:.2}, max {}",
        s.updates,
        s.mean_staleness(),
        s.staleness_max
    );

    // 2. Message compression (§VII.2).
    println!("\n== message compression (§VII.2) ==");
    let mut plain = MdGan::new(&spec, shards(2), cfg.clone());
    let mut small = MdGan::new(&spec, shards(2), cfg.clone())
        .with_codecs(Codec::Quantize8, Codec::TopKQuantize8 { frac: 0.25 });
    for _ in 0..40 {
        plain.step();
        small.step();
    }
    println!(
        "traffic: dense {:.2} MB  vs  q8 batches + top-25% q8 feedback {:.2} MB ({:.1}x smaller)",
        mb(plain.traffic().total_bytes()),
        mb(small.traffic().total_bytes()),
        plain.traffic().total_bytes() as f64 / small.traffic().total_bytes() as f64
    );

    // 3. Byzantine feedback + robust aggregation (§VII.3).
    println!("\n== byzantine workers (§VII.3) ==");
    let mut attacks = vec![Attack::None; workers];
    attacks[0] = Attack::SignFlip { scale: 100.0 };
    let byz_cfg = MdGanConfig {
        attacks,
        aggregation: Aggregation::CoordinateMedian,
        ..cfg.clone()
    };
    let mut defended = MdGan::new(&spec, shards(3), byz_cfg);
    for _ in 0..40 {
        defended.step();
    }
    println!(
        "1/{} workers sign-flips its feedback x100; coordinate-median aggregation keeps params finite: {}",
        workers,
        defended.gen_params().iter().all(|v| v.is_finite())
    );

    // 4. Fewer discriminators than workers (§VII.4).
    println!("\n== partial discriminator hosting (§VII.4) ==");
    let mut partial = MdGan::new(&spec, shards(4), cfg.clone()).with_disc_count(2);
    for _ in 0..40 {
        partial.step();
    }
    println!(
        "2 discriminators roam over {} workers; swaps performed: {}, traffic {:.2} MB",
        workers,
        partial.swaps(),
        mb(partial.traffic().total_bytes())
    );

    // 5. Checkpoint / restore.
    println!("\n== checkpoint / restore ==");
    let mut md = MdGan::new(&spec, shards(5), cfg);
    for _ in 0..10 {
        md.step();
    }
    let ck = md.checkpoint();
    let path = std::env::temp_dir().join("mdgan_tour.ckpt");
    ck.save(&path).expect("save checkpoint");
    println!(
        "saved {} sections ({} bytes) at iteration {}",
        ck.num_sections(),
        ck.byte_size(),
        ck.iteration
    );
    for _ in 0..5 {
        md.step();
    }
    let loaded = mdgan_repro::core::checkpoint::Checkpoint::load(&path).expect("load checkpoint");
    md.restore(&loaded).expect("restore checkpoint");
    println!(
        "restored to iteration {} — params match: {}",
        md.iterations(),
        md.gen_params() == ck.get("generator").unwrap()
    );
    std::fs::remove_file(&path).ok();
}
