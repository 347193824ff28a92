//! `mdgan table4` regenerates **Table IV**: communication costs of the
//! CIFAR10 experiment with 10 workers, for b = 10 and b = 100 — from the
//! closed-form model *and* cross-checked against the byte-accurate
//! simulator by actually running a few MD-GAN and FL-GAN iterations. A
//! simulator byte count that differs from its formula fails the run.
//!
//! ```text
//! cargo run --release -p md-bench --bin mdgan -- table4
//! ```

use md_bench::{emit_run_record, fmt_mb, print_table, recorder_from_env, Args, BinError};
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

pub fn run(args: &Args) -> Result<(), BinError> {
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
        let mut row = |quantity: &str, fl: String, md: String| {
            rows.push([format!("{quantity}, b={b}"), fl, md]);
        };
        row(
            "C→W (C)",
            fmt_mb(p.flgan_c2w_server_bytes()),
            fmt_mb(p.mdgan_c2w_server_bytes()),
        );
        row(
            "C→W (W)",
            fmt_mb(p.flgan_c2w_worker_bytes()),
            fmt_mb(p.mdgan_c2w_worker_bytes()),
        );
        row(
            "W→C (W)",
            fmt_mb(p.flgan_w2c_worker_bytes()),
            fmt_mb(p.mdgan_w2c_worker_bytes()),
        );
        row(
            "W→C (C)",
            fmt_mb(p.flgan_c2w_server_bytes()),
            fmt_mb(p.mdgan_w2c_server_bytes()),
        );
        row(
            "Total # C↔W",
            p.flgan_rounds().to_string(),
            p.mdgan_rounds().to_string(),
        );
        row("W→W (W)", "-".to_string(), fmt_mb(p.mdgan_w2w_bytes()));
        row("Total # W↔W", "-".to_string(), p.mdgan_swaps().to_string());
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
        ..MdGanConfig::default()
    };
    let recorder = recorder_from_env(false);
    let mut md = MdGan::new(&spec, shards.clone(), md_cfg).with_telemetry(Arc::clone(&recorder));
    for _ in 0..sim_iters {
        md.step();
    }
    let r = md.traffic();
    let d = (3 * img * img) as u64;
    let expect_c2w = 2 * (b as u64) * d * (n as u64) * 4 * sim_iters as u64;
    let expect_w2c = (b as u64) * d * (n as u64) * 4 * sim_iters as u64;
    println!("\nMD-GAN simulator check ({sim_iters} iterations, img={img}):");
    let md_c2w = r.bytes(LinkClass::ServerToWorker);
    let md_w2c = r.bytes(LinkClass::WorkerToServer);
    cross_check("C→W", "", md_c2w, expect_c2w)?;
    cross_check("W→C", "", md_w2c, expect_w2c)?;

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
    let params = (fl.server_gen.num_params()
        + spec
            .build_discriminator(&mut Rng64::seed_from_u64(0))
            .num_params()) as u64;
    let fl_c2w = fl.traffic().bytes(LinkClass::ServerToWorker);
    println!("\nFL-GAN simulator check (1 round = {rounds_to_run} iterations, img={img}):");
    cross_check("C→W", "N(θ+w) = ", fl_c2w, (n as u64) * params * 4)?;

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
        .with_metric("mdgan_c2w_bytes", md_c2w as f64)
        .with_metric("mdgan_w2c_bytes", md_w2c as f64)
        .with_metric("flgan_c2w_bytes", fl_c2w as f64);
    Ok(emit_run_record(record, &recorder)?)
}

/// Prints the bytes the simulator moved over `link` beside what its
/// `formula` gives, and fails the run when they differ.
fn cross_check(link: &str, formula: &str, measured: u64, expected: u64) -> Result<(), BinError> {
    let verdict = if measured == expected {
        "OK"
    } else {
        "MISMATCH"
    };
    let line = format!("{link} measured {measured} vs formula {formula}{expected}");
    println!("  {line}  [{verdict}]");
    if measured != expected {
        return Err(BinError::Mismatch(format!("Table IV cross-check: {line}")));
    }
    Ok(())
}
