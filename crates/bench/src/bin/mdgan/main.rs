//! `mdgan <subcommand> [--flag value …]` regenerates one table or figure of
//! the paper per subcommand (DESIGN.md §4 is the index), plus the §VII
//! perspectives. Each subcommand's flags scale it between "seconds" and
//! "paper scale":
//!
//! ```text
//! cargo run --release -p md-bench --bin mdgan -- fig3 --family mnist --iters 2000
//! ```
//!
//! A missing or unknown subcommand, like an unknown flag or a malformed
//! value, exits non-zero with one `Error:` line before anything is written.

mod elastic;
mod fig2;
mod fig3;
mod fig4;
mod fig5;
mod fig6;
mod freerider;
mod perspectives;
mod table2;
mod table3;
mod table4;

use md_bench::{emit_run_record, write_csv, Args, BinError, ARCHS, FAMILIES, SCALE_FLAGS};
use md_data::synthetic::Family;
use md_telemetry::{Counter, Recorder, RunRecord};
use mdgan_core::arch::ArchKind;
use mdgan_core::complexity::{
    ModelSize, D_CIFAR, D_MNIST, PAPER_CNN_CIFAR, PAPER_CNN_MNIST, PAPER_MLP_MNIST,
};
use mdgan_core::experiments::CurveResult;
use mdgan_core::TrainError;

/// A subcommand: its name, the groups of flags it takes, and its body.
type Sub = (
    &'static str,
    &'static [&'static [&'static str]],
    fn(&Args) -> Result<(), BinError>,
);

/// The flags every panel subcommand takes: the two [`panel`] reads, and
/// `--workers`, whose type and default each subcommand sets.
const PANEL: &[&str] = &["family", "arch", "workers"];

/// Every subcommand, dispatched on its name.
const SUBS: [Sub; 11] = [
    ("fig2", &[&["n", "bmax"]], fig2::run),
    (
        "fig3",
        &[
            SCALE_FLAGS,
            PANEL,
            &[
                "b-small",
                "b-large",
                "ckpt-dir",
                "resume",
                "ckpt-every",
                "max-abs-loss",
                "max-abs-param",
                "max-rollbacks",
                "lr-drop",
            ],
        ],
        fig3::run,
    ),
    ("fig4", &[SCALE_FLAGS, &["ns", "b"]], fig4::run),
    (
        "fig5",
        &[SCALE_FLAGS, PANEL, &["trace", "drops", "fault-seed"]],
        fig5::run,
    ),
    ("fig6", &[SCALE_FLAGS, &["b"]], fig6::run),
    (
        "elastic",
        &[SCALE_FLAGS, PANEL, &["rates", "churn-seed"]],
        elastic::run,
    ),
    (
        "freerider",
        &[SCALE_FLAGS, PANEL, &["fracs", "strategies"]],
        freerider::run,
    ),
    ("table2", &[&["n", "b", "iters", "e"]], table2::run),
    ("table3", &[&["n", "b", "iters", "dataset"]], table3::run),
    ("table4", &[&["n", "sim-iters"]], table4::run),
    (
        "perspectives",
        &[&["iters", "eval-every", "img", "train", "workers", "seed"]],
        perspectives::run,
    ),
];

fn main() -> Result<(), BinError> {
    let mut argv = std::env::args().skip(1);
    let word = argv.next().unwrap_or_default();
    let (_, flags, run) = SUBS
        .iter()
        .find(|(name, ..)| *name == word)
        .ok_or_else(|| {
            let names: Vec<&str> = SUBS.iter().map(|(name, ..)| *name).collect();
            BinError::Usage(format!(
                "expected a subcommand, got {word:?} (use {})",
                names.join("|")
            ))
        })?;
    run(&Args::from_iter(argv, &flags.concat())?)
}

/// A figure panel's `--family` (mnist) and `--arch` (mlp), with the family's
/// name as given.
fn panel(args: &Args) -> Result<(String, (Family, ArchKind)), BinError> {
    Ok((
        args.get_str("family", "mnist"),
        (
            args.choice("family", "mnist", FAMILIES)?,
            args.choice("arch", "mlp", ARCHS)?,
        ),
    ))
}

/// The paper's data sets with the networks the closed-form models count:
/// object size `d`, parameter counts and training-set size.
type Paper = (usize, ModelSize, usize);
const MLP_MNIST: Paper = (D_MNIST, PAPER_MLP_MNIST, 60_000);
const CNN_MNIST: Paper = (D_MNIST, PAPER_CNN_MNIST, 60_000);
const CNN_CIFAR: Paper = (D_CIFAR, PAPER_CNN_CIFAR, 50_000);

/// Writes every curve's score timeline to `results/<name>.csv`.
fn write_curves(name: &str, curves: &[CurveResult]) -> Result<(), TrainError> {
    let csv: String = curves.iter().map(CurveResult::to_csv).collect();
    write_csv(&format!("{name}.csv"), "label,iter,is,fid", &csv)
}

/// A curve's label and final IS and FID (the mean of its last three
/// scores), as table cells.
fn final_scores(c: &CurveResult) -> [String; 3] {
    let f = c.timeline.final_scores(3).unwrap();
    [
        c.label.clone(),
        format!("{:.3}", f.inception_score),
        format!("{:.2}", f.fid),
    ]
}

/// Writes the run record `name`: `config`, every curve's score timeline and
/// each distributed curve's traffic total as `traffic_bytes[<label>]`.
fn emit_curves(
    name: &str,
    config: String,
    curves: &[CurveResult],
    recorder: &Recorder,
) -> Result<(), TrainError> {
    let mut record = RunRecord::new(name).with_config_json(config);
    for c in curves {
        record = record.with_scores_appended(c.timeline.score_points(&c.label));
        if let Some(t) = &c.traffic {
            record = record.with_metric(
                format!("traffic_bytes[{}]", c.label),
                t.total_bytes() as f64,
            );
        }
    }
    emit_run_record(record, recorder)
}

/// Adds each named counter's total to `record` as a metric.
fn with_counters(
    record: RunRecord,
    recorder: &Recorder,
    counters: &[(&str, Counter)],
) -> RunRecord {
    counters.iter().fold(record, |r, &(name, c)| {
        r.with_metric(name, recorder.counter(c) as f64)
    })
}
