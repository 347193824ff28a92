//! Regenerates **Figure 3**: MNIST-score / Inception-score (higher better)
//! and FID (lower better) vs iterations for the six competitors —
//! standalone (b=10/100), FL-GAN (b=10/100), MD-GAN (k=1 / k=⌊log N⌋) —
//! on one (family, architecture) panel per invocation.
//!
//! ```text
//! cargo run --release -p md-bench --bin fig3_convergence -- \
//!     --family mnist --arch mlp --iters 2000 --img 16 --train 4096
//! ```
//!
//! With `--ckpt-dir <dir>` each curve checkpoints crash-consistently every
//! `--ckpt-every` iterations (`<dir>/curve_<i>.ckpt`, sealed as
//! `<dir>/curve_<i>.jsonl` when complete) and `--resume <dir>` (an alias)
//! picks an interrupted run back up **bit-identically**; `--max-abs-loss`,
//! `--max-abs-param`, `--max-rollbacks` and `--lr-drop` tune the
//! NaN/divergence guard that rolls a diverged curve back to its last good
//! checkpoint.
//!
//! Writes `results/fig3_<family>_<arch>.csv` and prints the final scores.

use md_bench::{
    emit_run_record, print_table, recorder_from_env, with_curves, write_csv, Args, ARCHS, FAMILIES,
};
use md_nn::HealthConfig;
use md_telemetry::{json, RunRecord};
use mdgan_core::experiments::{run_convergence, ConvergenceConfig, CurveResult};
use mdgan_core::SupervisorConfig;
use std::path::PathBuf;

fn main() -> Result<(), md_bench::BinError> {
    let args = Args::parse_figure(&[
        "family",
        "arch",
        "workers",
        "b-small",
        "b-large",
        "ckpt-dir",
        "resume",
        "ckpt-every",
        "max-abs-loss",
        "max-abs-param",
        "max-rollbacks",
        "lr-drop",
    ])?;
    let family = args.choice("family", "mnist", FAMILIES)?;
    let arch = args.choice("arch", "mlp", ARCHS)?;
    let scale = args.scale(600, 50, 42)?;
    let cfg = ConvergenceConfig {
        workers: args.get("workers", 10usize)?,
        b_small: args.get("b-small", 10usize)?,
        b_large: args.get("b-large", 100usize)?,
        ..ConvergenceConfig::new(family, arch, scale)
    };

    // `--resume` is an alias for `--ckpt-dir`: a checkpointed run always
    // continues from whatever progress the directory already holds.
    let ckpt_dir = ["ckpt-dir", "resume"]
        .iter()
        .find(|k| args.has(k))
        .map(|k| PathBuf::from(args.get_str(k, "")));
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
    let recorder = recorder_from_env();
    let recovery = ckpt_dir.as_deref().map(|dir| (dir, &policy));
    let curves = run_convergence(cfg, &recorder, recovery)?;

    let fam = args.get_str("family", "mnist");
    let arc = args.get_str("arch", "mlp");
    let csv: String = curves.iter().map(CurveResult::to_csv).collect();
    write_csv(&format!("fig3_{fam}_{arc}.csv"), "label,iter,is,fid", &csv)?;

    let rows: Vec<[String; 4]> = curves
        .iter()
        .map(|c| {
            let f = c.timeline.final_scores(3).unwrap();
            [
                c.label.clone(),
                format!("{:.3}", f.inception_score),
                format!("{:.2}", f.fid),
                c.traffic
                    .as_ref()
                    .map(|t| format!("{:.1} MB", t.total_bytes() as f64 / (1024.0 * 1024.0)))
                    .unwrap_or_else(|| "-".into()),
            ]
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
    let record = with_curves(
        RunRecord::new(format!("fig3_{fam}_{arc}")).with_config_json(config),
        &curves,
    );
    emit_run_record(record, &recorder)?;
    Ok(())
}
