//! `mdgan fig6` regenerates **Figure 6**: the CelebA validation —
//! standalone (b=200), FL-GAN (b=200) and MD-GAN (b=40) over N ∈ {1, 5},
//! with the paper's per-competitor Adam hyper-parameters (unconditional
//! GANs).
//!
//! ```text
//! cargo run --release -p md-bench --bin mdgan -- fig6 --iters 600 --b 50
//! ```
//!
//! Writes `results/fig6_celeba.csv`.

use crate::{emit_curves, final_scores, write_curves};
use md_bench::{print_table, recorder_from_env, Args, BinError};
use md_data::synthetic::Family;
use md_telemetry::json;
use mdgan_core::arch::ArchKind;
use mdgan_core::experiments::run_celeba;

pub fn run(args: &Args) -> Result<(), BinError> {
    let scale = args.scale((Family::CelebaLike, ArchKind::Cnn), 300, 30, 42)?;
    // The paper's 200-vs-40 ratio; scaled default 50-vs-10.
    let b_large = args.get("b", 50usize)?;

    eprintln!("running Figure 6 (CelebA-like) at {scale:?}, b_large={b_large}");
    let recorder = recorder_from_env(false);
    let curves = run_celeba(scale, b_large, &recorder)?;

    write_curves("fig6_celeba", &curves)?;
    let rows: Vec<[String; 3]> = curves.iter().map(final_scores).collect();
    print_table(
        "Figure 6 (CelebA-like) — final scores (IS ↑, FID ↓)",
        ["competitor", "IS", "FID"],
        &rows,
    );
    println!(
        "\nPaper observations: all IS curves comparable (MD-GAN slightly\n\
         above); standalone leads on FID, with MD-GAN and FL-GAN behind."
    );

    let config = json::Object::new()
        .field_str("figure", "fig6")
        .field_u64("b_large", b_large as u64)
        .field_u64("iterations", scale.iters as u64)
        .field_u64("seed", scale.seed)
        .build();
    Ok(emit_curves("fig6_celeba", config, &curves, &recorder)?)
}
