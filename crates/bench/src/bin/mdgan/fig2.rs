//! `mdgan fig2` regenerates **Figure 2**: maximal ingress traffic per
//! communication as a function of the batch size, for FL-GAN (flat lines)
//! and MD-GAN (linear in b), at workers (plain) and at the server (dotted
//! in the paper), for both the MNIST and CIFAR10 GAN architectures.
//!
//! Outputs `results/fig2_ingress.csv` and prints the crossover batch sizes
//! (the paper reports ≈550 for MNIST, ≈400 for CIFAR10).
//!
//! ```text
//! cargo run -p md-bench --bin mdgan -- fig2 [--n 10 --bmax 10000]
//! ```

use crate::{CNN_CIFAR, CNN_MNIST};
use md_bench::{emit_run_record, print_table, recorder_from_env, write_csv, Args, BinError};
use md_telemetry::{json, RunRecord};
use mdgan_core::complexity::SysParams;

pub fn run(args: &Args) -> Result<(), BinError> {
    let n = args.get("n", 10usize)?;
    let bmax = args.get("bmax", 10_000usize)?;

    let mut csv = String::new();
    let mut crossovers = Vec::new();
    let recorder = recorder_from_env(false);
    let mut record = RunRecord::new("fig2_ingress").with_config_json(
        json::Object::new()
            .field_str("figure", "fig2")
            .field_u64("n", n as u64)
            .field_u64("bmax", bmax as u64)
            .build(),
    );
    for (name, paper, note) in [("mnist", CNN_MNIST, "≈550"), ("cifar10", CNN_CIFAR, "≈400")] {
        // Log-spaced batch sizes from 1 to bmax.
        let mut b = 1usize;
        while b <= bmax {
            let p = SysParams::log_n(n, b, paper, 1.0, 50_000);
            csv.push_str(&format!(
                "{name},{b},{},{},{},{}\n",
                p.flgan_worker_ingress(),
                p.flgan_server_ingress(),
                p.mdgan_worker_ingress(true),
                p.mdgan_server_ingress(),
            ));
            b = ((b as f64) * 1.25).ceil() as usize;
        }
        // The crossovers depend on neither b nor k.
        let p = SysParams::log_n(n, 1, paper, 1.0, 50_000);
        let (no_swap, swap) = (
            p.worker_ingress_crossover(false),
            p.worker_ingress_crossover(true),
        );
        crossovers.push([
            name.to_string(),
            no_swap.to_string(),
            swap.to_string(),
            note.to_string(),
        ]);
        record = record
            .with_metric(format!("crossover_no_swap[{name}]"), no_swap as f64)
            .with_metric(format!("crossover_swap[{name}]"), swap as f64);
    }
    write_csv(
        "fig2_ingress.csv",
        "dataset,b,flgan_worker_bytes,flgan_server_bytes,mdgan_worker_bytes,mdgan_server_bytes",
        &csv,
    )?;
    print_table(
        "Figure 2 crossover batch sizes (MD-GAN worker ingress > FL-GAN)",
        [
            "dataset",
            "crossover (no swap)",
            "crossover (with swap)",
            "paper",
        ],
        &crossovers,
    );
    println!(
        "\nShape check: FL-GAN ingress is constant in b; MD-GAN grows linearly\n\
         and overtakes FL-GAN at a few hundred images — matching Figure 2."
    );
    Ok(emit_run_record(record, &recorder)?)
}
