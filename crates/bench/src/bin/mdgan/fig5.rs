//! `mdgan fig5` regenerates **Figure 5**: MD-GAN under fail-stop worker
//! crashes (one worker — with its data shard — dies every `I/N`
//! iterations, so all are gone by the end), compared to the crash-free run
//! and the standalone baselines.
//!
//! ```text
//! cargo run --release -p md-bench --bin mdgan -- fig5 \
//!     --family mnist --iters 800 --workers 10
//! ```
//!
//! Writes `results/fig5_<family>.csv`, and — unless `--drops none` — also
//! sweeps the oracle-free robust runtime over a seeded lossy network
//! (`--drops 0,0.05,0.1,0.2` style, `--fault-seed N`), writing the
//! degradation curve (final scores vs. drop rate, plus dropped/retry/
//! suspected tallies) to `results/fig5_lossy_<family>.csv`.
//!
//! With `--trace` the lossy sweep additionally exports one Chrome
//! trace-event JSON per drop rate under `results/traces/` (open in
//! Perfetto / chrome://tracing) and prints the critical-path analysis:
//! which worker's feedback gated each generator update, per-worker slack,
//! and how much wall-clock the retries on the gating uplink cost. Both run
//! records then carry a `trace` line (spans captured and dropped). Each
//! record has its own recorder, so each counts its own runs only.

use crate::{emit_curves, final_scores, panel, write_curves};
use md_bench::{
    emit_run_record, emit_trace_spans, install_pool_trace_hook, print_table, recorder_from_env,
    write_csv, Args, BinError,
};
use md_telemetry::{json, RunRecord};
use mdgan_core::experiments::{run_faults, run_lossy_faults, LossyPoint};

pub fn run(args: &Args) -> Result<(), BinError> {
    let (fam, (family, arch)) = panel(args)?;
    let workers = args.get("workers", 10usize)?;
    let scale = args.scale((family, arch), 400, 40, 42)?;
    let drops: Vec<f32> = match args.get_str("drops", "").as_str() {
        "none" => Vec::new(),
        _ => args.get_list("drops", "0,0.05,0.1,0.2")?,
    };
    let fault_seed = args.get("fault-seed", 7u64)?;

    eprintln!("running Figure 5 ({fam}) with {workers} workers at {scale:?}");
    let traced = args.has("trace");
    let recorder = recorder_from_env(traced);
    install_pool_trace_hook(&recorder);
    let curves = run_faults(family, arch, scale, workers, &recorder)?;

    let name = format!("fig5_{fam}");
    write_curves(&name, &curves)?;
    let rows: Vec<[String; 3]> = curves.iter().map(final_scores).collect();
    print_table(
        &format!("Figure 5 ({fam}) — final scores with crash faults (IS ↑, FID ↓)"),
        ["competitor", "IS", "FID"],
        &rows,
    );
    println!(
        "\nPaper observations: on MNIST the crash pattern has no significant\n\
         impact; on CIFAR10 early crashes make the run diverge from the\n\
         crash-free curve while staying comparable up to ~8 crashed workers."
    );

    // Run record: all four timelines, the recorder's fault tallies (which
    // mirror the crash schedule) and per-curve traffic totals.
    let config = json::Object::new()
        .field_str("figure", "fig5")
        .field_str("family", &fam)
        .field_u64("workers", workers as u64)
        .field_u64("iterations", scale.iters as u64)
        .field_u64("seed", scale.seed)
        .build();
    emit_curves(&name, config, &curves, &recorder)?;

    // Lossy-network variant: the same figure on the robust runtime, one run
    // per drop rate (each with a mid-run crash the server must detect by
    // itself), producing a degradation curve instead of a score timeline.
    if drops.is_empty() {
        return Ok(());
    }

    eprintln!("running lossy-network sweep over drops {drops:?} (fault seed {fault_seed})");
    // The sweep records into its own recorder, so its run record counts the
    // sweep alone and not the crash curves above.
    let lossy_recorder = recorder_from_env(traced);
    install_pool_trace_hook(&lossy_recorder);
    let points = run_lossy_faults(
        family,
        arch,
        scale,
        workers,
        &drops,
        fault_seed,
        &lossy_recorder,
    )?;

    // Per-drop trace export: one recorder captured the whole sweep, so each
    // point's spans are isolated by its recorder-clock window (trace ids are
    // per-iteration and repeat between runs).
    let mut critical = None;
    if traced {
        let all_spans = lossy_recorder.trace_spans();
        let dropped_spans = lossy_recorder.trace_spans_dropped();
        if dropped_spans > 0 {
            eprintln!("trace: ring overflow dropped {dropped_spans} spans; traces are partial");
        }
        for p in &points {
            let (t0, t1) = p.trace_window;
            let spans: Vec<_> = all_spans
                .iter()
                .filter(|s| s.t0_ns >= t0 && s.t0_ns <= t1)
                .copied()
                .collect();
            let trace = format!("fig5_lossy_{fam}_drop{}", p.drop);
            if let Some(report) = emit_trace_spans(&trace, &spans)? {
                println!("\n-- drop {:.0}% --", p.drop * 100.0);
                print!("{}", report.render_table());
                critical = Some(report);
            }
        }
    }

    let csv: String = points.iter().map(LossyPoint::to_csv_row).collect();
    write_csv(
        &format!("fig5_lossy_{fam}.csv"),
        LossyPoint::csv_header().trim_end(),
        &csv,
    )?;

    let rows: Vec<[String; 5]> = points
        .iter()
        .map(|p| {
            [
                format!("{:.0}%", p.drop * 100.0),
                format!("{:.3}", p.final_scores.inception_score),
                format!("{:.2}", p.final_scores.fid),
                format!("{}", p.traffic.retries),
                format!("{}", p.suspected),
            ]
        })
        .collect();
    print_table(
        &format!("Figure 5 lossy ({fam}) — degradation vs drop rate (IS ↑, FID ↓)"),
        ["drop", "IS", "FID", "retries", "suspected"],
        &rows,
    );

    let lossy_config = json::Object::new()
        .field_str("figure", "fig5_lossy")
        .field_str("family", &fam)
        .field_u64("workers", workers as u64)
        .field_u64("iterations", scale.iters as u64)
        .field_u64("seed", scale.seed)
        .field_u64("fault_seed", fault_seed)
        .build();
    let mut lossy_record =
        RunRecord::new(format!("fig5_lossy_{fam}")).with_config_json(lossy_config);
    if let Some(report) = critical {
        // The critical-path analysis of the sweep's last (lossiest) point.
        lossy_record = lossy_record.with_critical_path(report);
    }
    for p in &points {
        lossy_record = lossy_record
            .with_metric(format!("fid[drop={}]", p.drop), p.final_scores.fid)
            .with_metric(
                format!("dropped_bytes[drop={}]", p.drop),
                p.traffic.dropped_bytes as f64,
            )
            .with_metric(format!("suspected[drop={}]", p.drop), p.suspected as f64);
    }
    Ok(emit_run_record(lossy_record, &lossy_recorder)?)
}
