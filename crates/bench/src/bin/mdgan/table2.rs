//! `mdgan table2` regenerates **Table II**: computation and memory
//! complexity at the server (C) and workers (W) for FL-GAN vs MD-GAN,
//! instantiated with the paper's architectures and experiment parameters.
//!
//! ```text
//! cargo run -p md-bench --bin mdgan -- table2 [--n 10 --b 10 --iters 50000]
//! ```

use crate::{CNN_CIFAR, CNN_MNIST, MLP_MNIST};
use md_bench::{emit_run_record, print_table, recorder_from_env, Args, BinError};
use md_telemetry::{json, RunRecord};
use mdgan_core::complexity::SysParams;

pub fn run(args: &Args) -> Result<(), BinError> {
    let n = args.get("n", 10usize)?;
    let b = args.get("b", 10usize)?;
    let iters = args.get("iters", 50_000usize)?;
    let e = args.get("e", 1.0f64)?;

    println!("Table II — computation & memory complexity (FL-GAN vs MD-GAN)");
    println!("parameters: N={n}, b={b}, I={iters}, E={e}, k=⌊log N⌋");
    println!(
        "(values are the O(·) expressions of Table II evaluated numerically, in FLOP/float units)"
    );

    let recorder = recorder_from_env(false);
    let mut record = RunRecord::new("table2_complexity").with_config_json(
        json::Object::new()
            .field_str("table", "table2")
            .field_u64("n", n as u64)
            .field_u64("b", b as u64)
            .field_u64("iters", iters as u64)
            .field_f64("e", e)
            .build(),
    );
    for (name, paper) in [
        ("MLP / MNIST", MLP_MNIST),
        ("CNN / MNIST", CNN_MNIST),
        ("CNN / CIFAR10", CNN_CIFAR),
    ] {
        let p = SysParams::log_n(n, b, paper, e, iters);
        let row = |quantity: &str, fl: f64, md: f64| {
            [
                quantity.to_string(),
                format!("{fl:.3e}"),
                format!("{md:.3e}"),
            ]
        };
        let rows = vec![
            row(
                "Computation C",
                p.flgan_server_compute(),
                p.mdgan_server_compute(),
            ),
            row("Memory C", p.flgan_server_memory(), p.mdgan_server_memory()),
            row(
                "Computation W",
                p.flgan_worker_compute(),
                p.mdgan_worker_compute(),
            ),
            row("Memory W", p.flgan_worker_memory(), p.mdgan_worker_memory()),
            [
                "Worker ratio FL/MD".to_string(),
                String::new(),
                format!("{:.2}x", p.worker_compute_ratio()),
            ],
        ];
        print_table(
            &format!("{name} (|w|={}, |θ|={})", p.model.gen, p.model.disc),
            ["quantity", "FL-GAN", "MD-GAN"],
            &rows,
        );
        record = record
            .with_metric(
                format!("worker_compute_ratio[{name}]"),
                p.worker_compute_ratio(),
            )
            .with_metric(
                format!("mdgan_server_compute[{name}]"),
                p.mdgan_server_compute(),
            )
            .with_metric(
                format!("flgan_server_compute[{name}]"),
                p.flgan_server_compute(),
            );
    }
    println!(
        "\nPaper claim: MD-GAN removes ~half the computation from workers\n\
         (grey rows of Table II) — the ratio column above shows (|w|+|θ|)/|θ|."
    );
    Ok(emit_run_record(record, &recorder)?)
}
