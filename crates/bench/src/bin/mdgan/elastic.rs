//! `mdgan elastic`: the elastic-membership degradation sweep, MD-GAN under
//! seeded churn (joins, graceful leaves, crashes) across a grid of cluster
//! sizes and churn rates.
//!
//! ```text
//! cargo run --release -p md-bench --bin mdgan -- elastic \
//!     --family mnist --iters 400 --workers 4,8,16 --rates 0,0.02,0.05,0.1
//! ```
//!
//! Each grid cell draws its own `ChurnPlan` from `--churn-seed` (default 7;
//! equal per-iteration join/leave/crash probabilities), runs the sequential
//! MD-GAN runtime over it, and reports final scores, the realized event
//! counts and the surviving cluster size. Writes
//! `results/fig_elastic_<family>.csv`.

use crate::{panel, with_counters};
use md_bench::{emit_run_record, print_table, recorder_from_env, write_csv, Args, BinError};
use md_telemetry::{json, Counter, RunRecord};
use mdgan_core::experiments::{run_elastic, ElasticPoint};

pub fn run(args: &Args) -> Result<(), BinError> {
    let (fam, (family, arch)) = panel(args)?;
    let workers: Vec<usize> = args.get_list("workers", "4,8,16")?;
    let rates: Vec<f64> = args.get_list("rates", "0,0.02,0.05,0.1")?;
    let churn_seed = args.get("churn-seed", 7u64)?;
    let scale = args.scale((family, arch), 400, 40, 42)?;

    eprintln!(
        "running elastic sweep ({fam}) over workers {workers:?} × rates {rates:?} \
         (churn seed {churn_seed}) at {scale:?}"
    );
    let recorder = recorder_from_env(false);
    let points = run_elastic(family, arch, scale, &workers, &rates, churn_seed, &recorder)?;

    let csv: String = points.iter().map(ElasticPoint::to_csv_row).collect();
    write_csv(
        &format!("fig_elastic_{fam}.csv"),
        ElasticPoint::csv_header().trim_end(),
        &csv,
    )?;

    let rows: Vec<[String; 7]> = points
        .iter()
        .map(|p| {
            [
                format!("{}", p.workers),
                format!("{:.0}%", p.churn_rate * 100.0),
                format!("+{}", p.joins),
                format!("-{}", p.leaves),
                format!("×{}", p.crashes),
                format!("{}", p.final_alive),
                format!("{:.2}", p.final_scores.fid),
            ]
        })
        .collect();
    print_table(
        &format!("Elastic membership ({fam}) — degradation vs churn (FID ↓)"),
        ["N", "rate", "joins", "leaves", "crashes", "alive", "FID"],
        &rows,
    );
    println!(
        "\nReading: with churn disabled the sweep reproduces the fixed-\n\
         membership baseline bit-for-bit; under churn the SPLIT rebalances\n\
         over the surviving view each epoch, so degradation tracks the\n\
         *net* cluster shrinkage rather than the raw event count."
    );

    let config = json::Object::new()
        .field_str("figure", "fig_elastic")
        .field_str("family", &fam)
        .field_u64("iterations", scale.iters as u64)
        .field_u64("seed", scale.seed)
        .field_u64("churn_seed", churn_seed)
        .build();
    let mut record = RunRecord::new(format!("fig_elastic_{fam}")).with_config_json(config);
    for p in &points {
        record = record.with_metric(
            format!("fid[n={},rate={}]", p.workers, p.churn_rate),
            p.final_scores.fid,
        );
    }
    let counters = [
        ("workers_joined", Counter::WorkersJoined),
        ("workers_left", Counter::WorkersLeft),
        ("bootstraps", Counter::Bootstraps),
    ];
    let record = with_counters(record, &recorder, &counters);
    Ok(emit_run_record(record, &recorder)?)
}
