//! Quickstart: train a small ACGAN on the synthetic MNIST-like dataset on
//! a single node, watch the scores improve, and render a generated digit.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use mdgan_repro::core::config::GanHyper;
use mdgan_repro::core::experiments::ExperimentScale;
use mdgan_repro::core::standalone::StandaloneGan;
use mdgan_repro::core::{train_curve, ArchSpec, Evaluator};
use mdgan_repro::data::synthetic::mnist_like;
use mdgan_repro::telemetry::Recorder;
use mdgan_repro::tensor::rng::Rng64;
use mdgan_repro::tensor::Tensor;
use std::sync::Arc;

fn main() {
    let silent = Arc::new(Recorder::disabled());
    let scale = ExperimentScale::quick();
    let img = 16usize;
    println!("generating a synthetic MNIST-like dataset (16x16, 10 classes)...");
    let data = mnist_like(img, 2048, 42, 0.08);
    let (train, test) = data.split_test(512);

    println!("training the scorer classifier (the FID/IS feature extractor)...");
    let mut evaluator = Evaluator::new(&train, &test, 256, scale.seed);
    println!(
        "scorer accuracy on held-out data: {:.1}%",
        100.0 * evaluator.scorer_accuracy(&test)
    );

    let spec = ArchSpec::mlp_mnist_scaled(img);
    let mut rng = Rng64::seed_from_u64(7);
    let mut gan = StandaloneGan::new(
        &spec,
        train,
        GanHyper {
            batch: 32,
            ..GanHyper::default()
        },
        &mut rng,
    );

    println!("\ntraining a standalone ACGAN for 600 iterations...");
    let timeline =
        train_curve(&mut gan, 600, 100, &mut evaluator, &silent).expect("training diverged");
    println!("\n   iter |    IS ↑ |   FID ↓");
    for (it, s) in timeline.points() {
        println!("  {it:5} | {:7.3} | {:7.2}", s.inception_score, s.fid);
    }

    // Render one generated sample per digit as ASCII art.
    println!("\ngenerated digits (one per class):");
    let z = gan.gen.sample_z(10, &mut rng);
    let labels: Vec<usize> = (0..10).collect();
    let imgs = gan.gen.generate(&z, &labels, true);
    for d in 0..10 {
        println!("--- digit {d} ---");
        print_ascii(&imgs.index_axis0(d), img);
    }

    // Also dump a contact sheet for proper viewing.
    std::fs::create_dir_all("results").ok();
    let sheet = mdgan_repro::data::image_io::tile_grid(&imgs, 5);
    match mdgan_repro::data::image_io::write_image("results/quickstart_digits.pgm", &sheet) {
        Ok(()) => println!("\nwrote results/quickstart_digits.pgm (open with any image viewer)"),
        Err(e) => eprintln!("could not write contact sheet: {e}"),
    }
}

fn print_ascii(img: &Tensor, side: usize) {
    let ramp = [' ', '.', ':', '+', '#'];
    for y in 0..side {
        let mut line = String::new();
        for x in 0..side {
            let v = (img.at(&[0, y, x]) + 1.0) / 2.0; // [-1,1] -> [0,1]
            let idx = ((v * (ramp.len() - 1) as f32).round() as usize).min(ramp.len() - 1);
            line.push(ramp[idx]);
        }
        println!("{line}");
    }
}
