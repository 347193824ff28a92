//! `mdgan fig4` regenerates **Figure 4**: final MD-GAN scores as a
//! function of the number of workers `N`, with/without discriminator
//! swapping, under constant-worker-workload and constant-server-workload
//! regimes (MLP architecture, MNIST-like data).
//!
//! ```text
//! cargo run --release -p md-bench --bin mdgan -- fig4 \
//!     --ns 1,4,10,25,50 --iters 800
//! ```
//!
//! Writes `results/fig4_scalability.csv`.

use md_bench::{emit_run_record, print_table, recorder_from_env, write_csv, Args, BinError};
use md_data::synthetic::Family;
use md_telemetry::{json, RunRecord, ScorePoint};
use mdgan_core::arch::ArchKind;
use mdgan_core::experiments::{run_scalability, WorkloadMode};

pub fn run(args: &Args) -> Result<(), BinError> {
    let ns: Vec<usize> = args.get_list("ns", "1,4,10,25")?;
    let scale = args.scale((Family::MnistLike, ArchKind::Mlp), 400, 50, 42)?;
    let base_b = args.get("b", 10usize)?;

    eprintln!("running Figure 4 over N = {ns:?} at {scale:?}");
    let recorder = recorder_from_env(false);
    let points = run_scalability(Family::MnistLike, scale, &ns, base_b, &recorder)?;

    let mut csv = String::new();
    let mut rows = Vec::new();
    let mut scores = Vec::new();
    for p in &points {
        let mode = match p.mode {
            WorkloadMode::ConstantWorker => "const-worker",
            WorkloadMode::ConstantServer => "const-server",
        };
        let (is, fid) = (p.final_scores.inception_score, p.final_scores.fid);
        csv.push_str(&format!(
            "{},{mode},{},{},{is:.4},{fid:.4}\n",
            p.n, p.swap, p.batch
        ));
        rows.push([
            p.n.to_string(),
            mode.to_string(),
            if p.swap { "swap" } else { "no swap" }.to_string(),
            p.batch.to_string(),
            format!("{is:.3}"),
            format!("{fid:.2}"),
        ]);
        // One final-score point per (N, mode, swap) cell.
        let swap = if p.swap { "swap" } else { "no-swap" };
        scores.push(ScorePoint {
            label: format!("n={} {mode} {swap}", p.n),
            iter: scale.iters,
            is_score: is,
            fid,
        });
    }
    write_csv("fig4_scalability.csv", "n,mode,swap,batch,is,fid", &csv)?;
    print_table(
        "Figure 4 — MD-GAN final scores vs number of workers",
        ["N", "workload", "swap", "b", "MS ↑", "FID ↓"],
        &rows,
    );
    println!(
        "\nPaper observations to compare against: constant-worker workload\n\
         beats constant-server (at the price of server load); swapping\n\
         improves MS, with a marginal FID gain in the constant-server case;\n\
         small N has enough local data for good scores."
    );

    // Run record: the final-score points plus the phase histograms
    // aggregated over every MD-GAN run of the sweep.
    let config = json::Object::new()
        .field_str("figure", "fig4")
        .field_u64("base_b", base_b as u64)
        .field_u64("iterations", scale.iters as u64)
        .field_u64("seed", scale.seed)
        .build();
    let record = RunRecord::new("fig4_scalability")
        .with_config_json(config)
        .with_scores(scores);
    Ok(emit_run_record(record, &recorder)?)
}
