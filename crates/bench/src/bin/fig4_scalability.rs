//! Regenerates **Figure 4**: final MD-GAN scores as a function of the
//! number of workers `N`, with/without discriminator swapping, under
//! constant-worker-workload and constant-server-workload regimes
//! (MLP architecture, MNIST-like data).
//!
//! ```text
//! cargo run --release -p md-bench --bin fig4_scalability -- \
//!     --ns 1,4,10,25,50 --iters 800
//! ```
//!
//! Writes `results/fig4_scalability.csv`.

use md_bench::{emit_run_record, print_table, recorder_from_env, write_csv, Args};
use md_data::synthetic::Family;
use md_telemetry::{json, RunRecord, ScorePoint};
use mdgan_core::experiments::{run_scalability, WorkloadMode};

fn main() -> Result<(), md_bench::BinError> {
    let args = Args::parse_figure(&["ns", "b"])?;
    let ns: Vec<usize> = args.get_list("ns", "1,4,10,25")?;
    let scale = args.scale(400, 50, 42)?;
    let base_b = args.get("b", 10usize)?;

    eprintln!("running Figure 4 over N = {ns:?} at {scale:?}");
    let recorder = recorder_from_env();
    let points = run_scalability(Family::MnistLike, scale, &ns, base_b, &recorder)?;

    let mut csv = String::new();
    let mut rows = Vec::new();
    for p in &points {
        let mode = match p.mode {
            WorkloadMode::ConstantWorker => "const-worker",
            WorkloadMode::ConstantServer => "const-server",
        };
        csv.push_str(&format!(
            "{},{},{},{},{:.4},{:.4}\n",
            p.n, mode, p.swap, p.batch, p.final_scores.inception_score, p.final_scores.fid
        ));
        rows.push([
            p.n.to_string(),
            mode.to_string(),
            if p.swap { "swap" } else { "no swap" }.to_string(),
            p.batch.to_string(),
            format!("{:.3}", p.final_scores.inception_score),
            format!("{:.2}", p.final_scores.fid),
        ]);
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

    // Run record: one final-score point per (N, mode, swap) cell plus the
    // phase histograms aggregated over every MD-GAN run of the sweep.
    let config = json::Object::new()
        .field_str("figure", "fig4")
        .field_u64("base_b", base_b as u64)
        .field_u64("iterations", scale.iters as u64)
        .field_u64("seed", scale.seed)
        .build();
    let scores: Vec<ScorePoint> = points
        .iter()
        .map(|p| {
            let mode = match p.mode {
                WorkloadMode::ConstantWorker => "const-worker",
                WorkloadMode::ConstantServer => "const-server",
            };
            ScorePoint {
                label: format!(
                    "n={} {} {}",
                    p.n,
                    mode,
                    if p.swap { "swap" } else { "no-swap" }
                ),
                iter: scale.iters,
                is_score: p.final_scores.inception_score,
                fid: p.final_scores.fid,
            }
        })
        .collect();
    let record = RunRecord::new("fig4_scalability")
        .with_config_json(config)
        .with_scores(scores);
    emit_run_record(record, &recorder)?;
    Ok(())
}
