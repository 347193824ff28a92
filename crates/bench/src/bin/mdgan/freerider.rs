//! `mdgan freerider`: the free-rider degradation/defense sweep, MD-GAN
//! under data-free workers that fabricate plausible feedbacks (pure noise,
//! delayed echo of their own previous feedback, or a
//! pre-trained-discriminator mimic), with the server-side
//! feedback-forensics defense toggled per cell.
//!
//! ```text
//! cargo run --release -p md-bench --bin mdgan -- freerider \
//!     --family mnist --iters 400 --workers 5 \
//!     --fracs 0.1,0.2,0.3 --strategies noise,echo,mimic
//! ```
//!
//! Each (strategy × fraction) cell runs twice — undefended, then with the
//! forensics enabled — and reports final scores, how many workers were
//! flagged/evicted and the surviving cluster size. `--seed` (default 42)
//! is the sweep's master seed. Writes `results/fig_freerider_<family>.csv`.

use crate::{panel, with_counters};
use md_bench::{emit_run_record, print_table, recorder_from_env, write_csv, Args, BinError};
use md_telemetry::{json, Counter, RunRecord};
use mdgan_core::experiments::{freerider_attack, run_freerider, FreeriderPoint};

pub fn run(args: &Args) -> Result<(), BinError> {
    let (fam, (family, arch)) = panel(args)?;
    let workers: usize = args.get("workers", 5usize)?;
    let fracs: Vec<f32> = args.get_list("fracs", "0.1,0.2,0.3")?;
    let strategies_str = args.get_str("strategies", "noise,echo,mimic");
    let strategies: Vec<&str> = strategies_str.split(',').map(str::trim).collect();
    for s in &strategies {
        freerider_attack(s)
            .map_err(|e| BinError::Usage(format!("bad value for --strategies: {e}")))?;
    }
    let scale = args.scale((family, arch), 400, 40, 42)?;

    eprintln!(
        "running free-rider sweep ({fam}) over strategies {strategies:?} × \
         fracs {fracs:?} (N={workers}, defended off/on) at {scale:?}"
    );
    let recorder = recorder_from_env(false);
    let points = run_freerider(family, arch, scale, workers, &fracs, &strategies, &recorder)?;

    let csv: String = points.iter().map(FreeriderPoint::to_csv_row).collect();
    write_csv(
        &format!("fig_freerider_{fam}.csv"),
        FreeriderPoint::csv_header().trim_end(),
        &csv,
    )?;

    let rows: Vec<[String; 7]> = points
        .iter()
        .map(|p| {
            [
                p.strategy.clone(),
                format!("{:.0}%", p.frac * 100.0),
                if p.defended { "on" } else { "off" }.to_string(),
                format!("{}", p.flagged),
                format!("{}", p.evicted),
                format!("{}", p.final_alive),
                format!("{:.2}", p.final_scores.fid),
            ]
        })
        .collect();
    print_table(
        &format!("Free-riders ({fam}, N={workers}) — degradation vs defense (FID ↓)"),
        [
            "attack", "frac", "defense", "flagged", "evicted", "alive", "FID",
        ],
        &rows,
    );
    println!(
        "\nReading: undefended rows average the fabricated feedbacks into\n\
         every generator update, so FID degrades with the free-rider\n\
         fraction; defended rows run the same attack mix through the\n\
         feedback forensics, which flags persistent outliers and graduates\n\
         them into permanent membership eviction — the SPLIT then\n\
         rebalances over the honest survivors."
    );

    let config = json::Object::new()
        .field_str("figure", "fig_freerider")
        .field_str("family", &fam)
        .field_str("strategies", &strategies_str)
        .field_u64("workers", workers as u64)
        .field_u64("iterations", scale.iters as u64)
        .field_u64("seed", scale.seed)
        .build();
    let mut record = RunRecord::new(format!("fig_freerider_{fam}")).with_config_json(config);
    for p in &points {
        record = record.with_metric(
            format!(
                "fid[{},frac={},defended={}]",
                p.strategy, p.frac, p.defended
            ),
            p.final_scores.fid,
        );
    }
    let counters = [
        ("workers_flagged", Counter::WorkersFlagged),
        ("workers_cleared", Counter::WorkersCleared),
        ("freeriders_evicted", Counter::FreeridersEvicted),
    ];
    let record = with_counters(record, &recorder, &counters);
    Ok(emit_run_record(record, &recorder)?)
}
