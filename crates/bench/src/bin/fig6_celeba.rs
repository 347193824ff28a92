//! Regenerates **Figure 6**: the CelebA validation — standalone (b=200),
//! FL-GAN (b=200) and MD-GAN (b=40) over N ∈ {1, 5}, with the paper's
//! per-competitor Adam hyper-parameters (unconditional GANs).
//!
//! ```text
//! cargo run --release -p md-bench --bin fig6_celeba -- --iters 600 --b 50
//! ```
//!
//! Writes `results/fig6_celeba.csv`.

use md_bench::{emit_run_record, print_table, recorder_from_env, with_curves, write_csv, Args};
use md_telemetry::{json, RunRecord};
use mdgan_core::experiments::{run_celeba, CurveResult};

fn main() -> Result<(), md_bench::BinError> {
    let args = Args::parse_figure(&["b"])?;
    let scale = args.scale(300, 30, 42)?;
    // The paper's 200-vs-40 ratio; scaled default 50-vs-10.
    let b_large = args.get("b", 50usize)?;

    eprintln!("running Figure 6 (CelebA-like) at {scale:?}, b_large={b_large}");
    let recorder = recorder_from_env();
    let curves = run_celeba(scale, b_large, &recorder)?;

    let csv: String = curves.iter().map(CurveResult::to_csv).collect();
    write_csv("fig6_celeba.csv", "label,iter,is,fid", &csv)?;

    let rows: Vec<[String; 3]> = curves
        .iter()
        .map(|c| {
            let f = c.timeline.final_scores(3).unwrap();
            [
                c.label.clone(),
                format!("{:.3}", f.inception_score),
                format!("{:.2}", f.fid),
            ]
        })
        .collect();
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
    let record = with_curves(
        RunRecord::new("fig6_celeba").with_config_json(config),
        &curves,
    );
    emit_run_record(record, &recorder)?;
    Ok(())
}
