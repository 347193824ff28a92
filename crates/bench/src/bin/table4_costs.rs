//! Regenerates **Table IV**: communication costs of the CIFAR10 experiment
//! with 10 workers, for b = 10 and b = 100 — from the closed-form model
//! *and* cross-checked against the byte-accurate simulator by actually
//! running a few MD-GAN and FL-GAN iterations and extrapolating.
//!
//! ```text
//! cargo run --release -p md-bench --bin table4_costs
//! ```

use md_bench::{emit_run_record, fmt_mb, print_table, recorder_from_env, Args};
use md_data::synthetic::DataSpec;
use md_simnet::LinkClass;
use md_telemetry::{json, RunRecord};
use md_tensor::rng::Rng64;
use mdgan_core::complexity::SysParams;
use mdgan_core::config::{FlGanConfig, GanHyper, KPolicy, MdGanConfig, SwapPolicy};
use mdgan_core::flgan::FlGan;
use mdgan_core::mdgan::trainer::MdGan;
use mdgan_core::ArchSpec;
use std::sync::Arc;

fn main() -> Result<(), md_bench::BinError> {
    let args = Args::parse(&["n", "sim-iters"])?;
    let n = args.get("n", 10usize)?;
    let sim_iters = args.get("sim-iters", 3usize)?;

    println!("Table IV — communication costs, CIFAR10 experiment, N={n}");
    println!("(closed-form values use the paper's CNN parameter counts; the");
    println!(" 'measured' columns run our simulator at a scaled image size and");
    println!(" verify the formulas byte-for-byte at that scale)");

    // Closed-form table at paper scale.
    let mut rows = Vec::new();
    for b in [10usize, 100] {
        let p = SysParams::table_iv_cifar(b);
        rows.push([
            format!("C→W (C), b={b}"),
            fmt_mb(p.flgan_c2w_server_bytes()),
            fmt_mb(p.mdgan_c2w_server_bytes()),
        ]);
        rows.push([
            format!("C→W (W), b={b}"),
            fmt_mb(p.flgan_c2w_worker_bytes()),
            fmt_mb(p.mdgan_c2w_worker_bytes()),
        ]);
        rows.push([
            format!("W→C (W), b={b}"),
            fmt_mb(p.flgan_w2c_worker_bytes()),
            fmt_mb(p.mdgan_w2c_worker_bytes()),
        ]);
        rows.push([
            format!("W→C (C), b={b}"),
            fmt_mb(p.flgan_c2w_server_bytes()),
            fmt_mb(p.mdgan_w2c_server_bytes()),
        ]);
        rows.push([
            format!("Total # C↔W, b={b}"),
            p.flgan_rounds().to_string(),
            p.mdgan_rounds().to_string(),
        ]);
        rows.push([
            format!("W→W (W), b={b}"),
            "-".to_string(),
            fmt_mb(p.mdgan_w2w_bytes()),
        ]);
        rows.push([
            format!("Total # W↔W, b={b}"),
            "-".to_string(),
            p.mdgan_swaps().to_string(),
        ]);
    }
    print_table(
        "closed-form (paper-scale CNN/CIFAR10)",
        ["quantity", "FL-GAN", "MD-GAN"],
        &rows,
    );

    // Simulator cross-check at a scaled image size.
    let img = 16usize;
    let b = 10usize;
    let data = DataSpec::cifar(img, n * 64, 1).generate();
    let spec = ArchSpec::cnn_cifar_scaled(img);
    let mut rng = Rng64::seed_from_u64(1);
    let shards = data.shard_iid(n, &mut rng);

    let md_cfg = MdGanConfig {
        workers: n,
        k: KPolicy::One,
        epochs_per_swap: 1.0,
        swap: SwapPolicy::Disabled,
        hyper: GanHyper {
            batch: b,
            ..GanHyper::default()
        },
        iterations: sim_iters,
        seed: 2,
        crash: Default::default(),
        ..MdGanConfig::default()
    };
    let recorder = recorder_from_env();
    let mut md = MdGan::new(&spec, shards.clone(), md_cfg).with_telemetry(Arc::clone(&recorder));
    for _ in 0..sim_iters {
        md.step();
    }
    let r = md.traffic();
    let d = (3 * img * img) as u64;
    let expect_c2w = 2 * (b as u64) * d * (n as u64) * 4 * sim_iters as u64;
    let expect_w2c = (b as u64) * d * (n as u64) * 4 * sim_iters as u64;
    println!("\nMD-GAN simulator check ({sim_iters} iterations, img={img}):");
    println!(
        "  C→W measured {} vs formula {}  [{}]",
        r.bytes(LinkClass::ServerToWorker),
        expect_c2w,
        if r.bytes(LinkClass::ServerToWorker) == expect_c2w {
            "OK"
        } else {
            "MISMATCH"
        }
    );
    println!(
        "  W→C measured {} vs formula {}  [{}]",
        r.bytes(LinkClass::WorkerToServer),
        expect_w2c,
        if r.bytes(LinkClass::WorkerToServer) == expect_w2c {
            "OK"
        } else {
            "MISMATCH"
        }
    );

    let fl_cfg = FlGanConfig {
        workers: n,
        epochs_per_round: 1.0,
        hyper: GanHyper {
            batch: b,
            ..GanHyper::default()
        },
        iterations: sim_iters,
        seed: 3,
    };
    let mut fl = FlGan::new(&spec, shards, fl_cfg).with_telemetry(Arc::clone(&recorder));
    let rounds_to_run = fl.round_interval();
    for _ in 0..rounds_to_run {
        fl.step();
    }
    let r = fl.traffic();
    let params = (fl.server_gen.num_params()
        + ArchSpec::cnn_cifar_scaled(img)
            .build_discriminator(&mut Rng64::seed_from_u64(0))
            .num_params()) as u64;
    let expect = (n as u64) * params * 4;
    println!("\nFL-GAN simulator check (1 round = {rounds_to_run} iterations, img={img}):");
    println!(
        "  C→W measured {} vs formula N(θ+w) = {}  [{}]",
        r.bytes(LinkClass::ServerToWorker),
        expect,
        if r.bytes(LinkClass::ServerToWorker) == expect {
            "OK"
        } else {
            "MISMATCH"
        }
    );

    // Run record: measured simulator bytes (the cross-check inputs) plus
    // the phase histograms of both short runs.
    let record = RunRecord::new("table4_costs")
        .with_config_json(
            json::Object::new()
                .field_str("table", "table4")
                .field_u64("n", n as u64)
                .field_u64("sim_iters", sim_iters as u64)
                .field_u64("img", img as u64)
                .build(),
        )
        .with_metric(
            "mdgan_c2w_bytes",
            md.traffic().bytes(LinkClass::ServerToWorker) as f64,
        )
        .with_metric(
            "mdgan_w2c_bytes",
            md.traffic().bytes(LinkClass::WorkerToServer) as f64,
        )
        .with_metric(
            "flgan_c2w_bytes",
            fl.traffic().bytes(LinkClass::ServerToWorker) as f64,
        );
    Ok(emit_run_record(record, &recorder)?)
}
