//! `mdgan table3` regenerates **Table III**: per-communication sizes and
//! communication counts for every link type, FL-GAN vs MD-GAN
//! (symbolically evaluated with the paper's parameters).
//!
//! ```text
//! cargo run -p md-bench --bin mdgan -- table3 [--n 10 --b 10 --dataset cifar]
//! ```

use crate::{CNN_CIFAR, CNN_MNIST};
use md_bench::{emit_run_record, fmt_mb, print_table, recorder_from_env, Args, BinError};
use md_telemetry::{json, RunRecord};
use mdgan_core::complexity::SysParams;

pub fn run(args: &Args) -> Result<(), BinError> {
    let n = args.get("n", 10usize)?;
    let b = args.get("b", 10usize)?;
    let iters = args.get("iters", 50_000usize)?;
    let dataset = args.get_str("dataset", "cifar");
    let paper = args.choice(
        "dataset",
        "cifar",
        &[("mnist", CNN_MNIST), ("cifar", CNN_CIFAR)],
    )?;
    let p = SysParams::log_n(n, b, paper, 1.0, iters);

    println!("Table III — communication complexities ({dataset}, N={n}, b={b}, I={iters})");
    let row = |link: &str, fl: String, md: String| [link.to_string(), fl, md];
    let rows = vec![
        row(
            "C→W (C)",
            format!("N(θ+w) = {}", fmt_mb(p.flgan_c2w_server_bytes())),
            format!("2bdN = {}", fmt_mb(p.mdgan_c2w_server_bytes())),
        ),
        row(
            "C→W (W)",
            format!("θ+w = {}", fmt_mb(p.flgan_c2w_worker_bytes())),
            format!("2bd = {}", fmt_mb(p.mdgan_c2w_worker_bytes())),
        ),
        row(
            "W→C (W)",
            format!("θ+w = {}", fmt_mb(p.flgan_w2c_worker_bytes())),
            format!("bd = {}", fmt_mb(p.mdgan_w2c_worker_bytes())),
        ),
        row(
            "W→C (C)",
            format!("N(θ+w) = {}", fmt_mb(p.flgan_c2w_server_bytes())),
            format!("bdN = {}", fmt_mb(p.mdgan_w2c_server_bytes())),
        ),
        row(
            "Total # C↔W",
            format!("Ib/(mE) = {}", p.flgan_rounds()),
            format!("I = {}", p.mdgan_rounds()),
        ),
        row(
            "W→W (W)",
            "-".to_string(),
            format!("θ = {}", fmt_mb(p.mdgan_w2w_bytes())),
        ),
        row(
            "Total # W↔W",
            "-".to_string(),
            format!("Ib/(mE) = {}", p.mdgan_swaps()),
        ),
    ];
    print_table(
        "per-communication sizes and counts",
        ["link", "FL-GAN", "MD-GAN"],
        &rows,
    );
    println!(
        "\nNote: sizes use 4-byte floats, exactly matching the runtime's\n\
         traffic accounting in md-simnet (cross-checked by integration tests)."
    );

    let recorder = recorder_from_env(false);
    let record = RunRecord::new("table3_comms")
        .with_config_json(
            json::Object::new()
                .field_str("table", "table3")
                .field_str("dataset", &dataset)
                .field_u64("n", n as u64)
                .field_u64("b", b as u64)
                .field_u64("iters", iters as u64)
                .build(),
        )
        .with_metric("flgan_c2w_server_bytes", p.flgan_c2w_server_bytes() as f64)
        .with_metric("mdgan_c2w_server_bytes", p.mdgan_c2w_server_bytes() as f64)
        .with_metric("flgan_w2c_worker_bytes", p.flgan_w2c_worker_bytes() as f64)
        .with_metric("mdgan_w2c_worker_bytes", p.mdgan_w2c_worker_bytes() as f64)
        .with_metric("mdgan_w2w_bytes", p.mdgan_w2w_bytes() as f64)
        .with_metric("flgan_rounds", p.flgan_rounds() as f64)
        .with_metric("mdgan_swaps", p.mdgan_swaps() as f64);
    Ok(emit_run_record(record, &recorder)?)
}
