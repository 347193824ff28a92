//! `mdgan fig3` regenerates **Figure 3**: MNIST-score / Inception-score
//! (higher better) and FID (lower better) vs iterations for the six
//! competitors — standalone (b=10/100), FL-GAN (b=10/100), MD-GAN (k=1 /
//! k=⌊log N⌋) — on one (family, architecture) panel per invocation.
//!
//! ```text
//! cargo run --release -p md-bench --bin mdgan -- fig3 \
//!     --family mnist --arch mlp --iters 2000 --img 16 --train 4096
//! ```
//!
//! With `--ckpt-dir <dir>` each curve checkpoints crash-consistently every
//! `--ckpt-every` iterations (`<dir>/curve_<i>.ckpt`, sealed as
//! `<dir>/curve_<i>.jsonl` when complete), and re-running with the same
//! `--ckpt-dir` picks an interrupted run back up **bit-identically**;
//! `--max-abs-loss`, `--max-abs-param`, `--max-rollbacks` and `--lr-drop`
//! tune the NaN/divergence guard that rolls a diverged curve back to its
//! last good checkpoint.
//!
//! Writes `results/fig3_<family>_<arch>.csv` and prints the final scores.

use crate::{emit_curves, final_scores, panel, write_curves};
use md_bench::{print_table, recorder_from_env, Args, BinError};
use md_nn::HealthConfig;
use md_telemetry::json;
use mdgan_core::experiments::{run_convergence, ConvergenceConfig};
use mdgan_core::SupervisorConfig;
use std::path::PathBuf;

pub fn run(args: &Args) -> Result<(), BinError> {
    let (fam, (family, arch)) = panel(args)?;
    let scale = args.scale((family, arch), 600, 50, 42)?;
    let cfg = ConvergenceConfig {
        workers: args.get("workers", 10usize)?,
        b_small: args.get("b-small", 10usize)?,
        b_large: args.get("b-large", 100usize)?,
        ..ConvergenceConfig::new(family, arch, scale)
    };

    // A checkpointed run always continues from whatever progress the
    // directory already holds.
    let ckpt_dir = args
        .has("ckpt-dir")
        .then(|| PathBuf::from(args.get_str("ckpt-dir", "")));
    let defaults = HealthConfig::default();
    let policy = SupervisorConfig {
        ckpt_path: None,
        ckpt_every: args.get("ckpt-every", 50u64)?,
        health: HealthConfig {
            max_abs_loss: args.get("max-abs-loss", defaults.max_abs_loss)?,
            max_abs_param: args.get("max-abs-param", defaults.max_abs_param)?,
            ..defaults
        },
        max_rollbacks: args.get("max-rollbacks", 3u32)?,
        lr_drop: args.get("lr-drop", 1.0f32)?,
    };

    eprintln!("running Figure 3 panel: {family:?} / {arch:?} at {scale:?}");
    let recorder = recorder_from_env(false);
    let recovery = ckpt_dir.as_deref().map(|dir| (dir, &policy));
    let curves = run_convergence(cfg, &recorder, recovery)?;

    let arc = args.get_str("arch", "mlp");
    let name = format!("fig3_{fam}_{arc}");
    write_curves(&name, &curves)?;
    let rows: Vec<[String; 4]> = curves
        .iter()
        .map(|c| {
            let [label, is, fid] = final_scores(c);
            let traffic = c.traffic.as_ref().map_or("-".into(), |t| {
                format!("{:.1} MB", t.total_bytes() as f64 / (1024.0 * 1024.0))
            });
            [label, is, fid, traffic]
        })
        .collect();
    print_table(
        &format!("Figure 3 ({fam}/{arc}) — final scores (IS ↑, FID ↓)"),
        ["competitor", "IS", "FID", "traffic"],
        &rows,
    );

    // Run record next to the CSV: full score timelines of all six curves,
    // the aggregated phase histograms and per-curve traffic totals.
    let config = json::Object::new()
        .field_str("figure", "fig3")
        .field_str("family", &fam)
        .field_str("arch", &arc)
        .field_u64("workers", cfg.workers as u64)
        .field_u64("iterations", scale.iters as u64)
        .field_u64("seed", scale.seed)
        .build();
    Ok(emit_curves(&name, config, &curves, &recorder)?)
}
