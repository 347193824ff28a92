//! Regenerates **Table III**: per-communication sizes and communication
//! counts for every link type, FL-GAN vs MD-GAN (symbolically evaluated
//! with the paper's parameters).
//!
//! ```text
//! cargo run -p md-bench --bin table3_comms [-- --n 10 --b 10 --dataset cifar]
//! ```

use md_bench::{emit_run_record, fmt_mb, print_table, recorder_from_env, Args};
use md_telemetry::{json, RunRecord};
use mdgan_core::complexity::{SysParams, D_CIFAR, D_MNIST, PAPER_CNN_CIFAR, PAPER_CNN_MNIST};

fn main() -> Result<(), md_bench::BinError> {
    let args = Args::parse(&["n", "b", "iters", "dataset"])?;
    let n = args.get("n", 10usize)?;
    let b = args.get("b", 10usize)?;
    let iters = args.get("iters", 50_000usize)?;
    let dataset = args.get_str("dataset", "cifar");

    let (d, model, total) = args.choice(
        "dataset",
        "cifar",
        &[
            ("mnist", (D_MNIST, PAPER_CNN_MNIST, 60_000usize)),
            ("cifar", (D_CIFAR, PAPER_CNN_CIFAR, 50_000)),
        ],
    )?;
    let p = SysParams {
        n,
        b,
        d,
        k: (n as f64).log2().floor().max(1.0) as usize,
        m: total / n,
        e: 1.0,
        iters,
        model,
    };

    println!("Table III — communication complexities ({dataset}, N={n}, b={b}, I={iters})");
    let rows = vec![
        [
            "C→W (C)".to_string(),
            format!("N(θ+w) = {}", fmt_mb(p.flgan_c2w_server_bytes())),
            format!("2bdN = {}", fmt_mb(p.mdgan_c2w_server_bytes())),
        ],
        [
            "C→W (W)".to_string(),
            format!("θ+w = {}", fmt_mb(p.flgan_c2w_worker_bytes())),
            format!("2bd = {}", fmt_mb(p.mdgan_c2w_worker_bytes())),
        ],
        [
            "W→C (W)".to_string(),
            format!("θ+w = {}", fmt_mb(p.flgan_w2c_worker_bytes())),
            format!("bd = {}", fmt_mb(p.mdgan_w2c_worker_bytes())),
        ],
        [
            "W→C (C)".to_string(),
            format!("N(θ+w) = {}", fmt_mb(p.flgan_c2w_server_bytes())),
            format!("bdN = {}", fmt_mb(p.mdgan_w2c_server_bytes())),
        ],
        [
            "Total # C↔W".to_string(),
            format!("Ib/(mE) = {}", p.flgan_rounds()),
            format!("I = {}", p.mdgan_rounds()),
        ],
        [
            "W→W (W)".to_string(),
            "-".to_string(),
            format!("θ = {}", fmt_mb(p.mdgan_w2w_bytes())),
        ],
        [
            "Total # W↔W".to_string(),
            "-".to_string(),
            format!("Ib/(mE) = {}", p.mdgan_swaps()),
        ],
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

    let recorder = recorder_from_env();
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
