//! Regenerates **Table II**: computation and memory complexity at the
//! server (C) and workers (W) for FL-GAN vs MD-GAN, instantiated with the
//! paper's architectures and experiment parameters.
//!
//! ```text
//! cargo run -p md-bench --bin table2_complexity [-- --n 10 --b 10 --iters 50000]
//! ```

use md_bench::{emit_run_record, print_table, recorder_from_env, Args};
use md_telemetry::{json, RunRecord};
use mdgan_core::complexity::{
    SysParams, D_CIFAR, D_MNIST, PAPER_CNN_CIFAR, PAPER_CNN_MNIST, PAPER_MLP_MNIST,
};

fn main() -> Result<(), md_bench::BinError> {
    let args = Args::parse(&["n", "b", "iters", "e"])?;
    let n = args.get("n", 10usize)?;
    let b = args.get("b", 10usize)?;
    let iters = args.get("iters", 50_000usize)?;
    let e = args.get("e", 1.0f64)?;

    println!("Table II — computation & memory complexity (FL-GAN vs MD-GAN)");
    println!("parameters: N={n}, b={b}, I={iters}, E={e}, k=⌊log N⌋");
    println!(
        "(values are the O(·) expressions of Table II evaluated numerically, in FLOP/float units)"
    );

    let recorder = recorder_from_env();
    let mut record = RunRecord::new("table2_complexity").with_config_json(
        json::Object::new()
            .field_str("table", "table2")
            .field_u64("n", n as u64)
            .field_u64("b", b as u64)
            .field_u64("iters", iters as u64)
            .field_f64("e", e)
            .build(),
    );
    for (name, model, d, dataset) in [
        ("MLP / MNIST", PAPER_MLP_MNIST, D_MNIST, 60_000usize),
        ("CNN / MNIST", PAPER_CNN_MNIST, D_MNIST, 60_000),
        ("CNN / CIFAR10", PAPER_CNN_CIFAR, D_CIFAR, 50_000),
    ] {
        let p = SysParams {
            n,
            b,
            d,
            k: (n as f64).log2().floor().max(1.0) as usize,
            m: dataset / n,
            e,
            iters,
            model,
        };
        let rows = vec![
            [
                "Computation C".to_string(),
                format!("{:.3e}", p.flgan_server_compute()),
                format!("{:.3e}", p.mdgan_server_compute()),
            ],
            [
                "Memory C".to_string(),
                format!("{:.3e}", p.flgan_server_memory()),
                format!("{:.3e}", p.mdgan_server_memory()),
            ],
            [
                "Computation W".to_string(),
                format!("{:.3e}", p.flgan_worker_compute()),
                format!("{:.3e}", p.mdgan_worker_compute()),
            ],
            [
                "Memory W".to_string(),
                format!("{:.3e}", p.flgan_worker_memory()),
                format!("{:.3e}", p.mdgan_worker_memory()),
            ],
            [
                "Worker ratio FL/MD".to_string(),
                String::new(),
                format!("{:.2}x", p.worker_compute_ratio()),
            ],
        ];
        print_table(
            &format!("{name} (|w|={}, |θ|={})", model.gen, model.disc),
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
