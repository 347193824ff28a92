//! Shared helpers for the experiment harness: a dependency-free CLI flag
//! parser, table pretty-printing, CSV output and run records.
//!
//! Each subcommand of the `mdgan` binary regenerates one table or figure of
//! the paper (see DESIGN.md §4 for the full index) and accepts
//! `--key value` flags to scale between "seconds" and "paper scale".

use md_data::synthetic::Family;
use md_telemetry::{
    export, CriticalPathReport, PoolCounters, Recorder, RunRecord, Verbosity, WorkspaceCounters,
};
use mdgan_core::arch::ArchKind;
use mdgan_core::experiments::{self, ExperimentScale};
use mdgan_core::TrainError;
use std::collections::BTreeMap;
use std::fmt::{self, Display};
use std::fs;
use std::path::Path;
use std::sync::Arc;

/// A minimal `--key value` argument parser (no external crates by design).
///
/// Every input error is a [`BinError`] naming the flag, returned before a
/// binary sets anything up: an unknown flag, a bare word, a value that does
/// not parse, a choice outside its list. The message for an unknown flag
/// (`--help` among them) lists the flags the binary takes.
#[derive(Debug, Default)]
pub struct Args {
    flags: BTreeMap<String, String>,
}

impl Args {
    /// Parses `std::env::args()` against the flags the binary takes.
    pub fn parse(known: &[&str]) -> Result<Self, BinError> {
        Self::from_iter(std::env::args().skip(1), known)
    }

    /// Parses an explicit iterator (testable).
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter(
        args: impl IntoIterator<Item = String>,
        known: &[&str],
    ) -> Result<Self, BinError> {
        let mut flags = BTreeMap::new();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| BinError::Usage(format!("expected --flag, got {arg:?}")))?
                .to_string();
            if !known.contains(&key.as_str()) {
                let takes = match known {
                    [] => "it takes none".to_string(),
                    _ => format!("flags: --{}", known.join(" --")),
                };
                return Err(BinError::Usage(format!("unknown flag --{key} ({takes})")));
            }
            let value = match iter.peek() {
                Some(v) if !v.starts_with("--") => iter.next().unwrap(),
                _ => "true".to_string(), // boolean flag
            };
            flags.insert(key, value);
        }
        Ok(Args { flags })
    }

    /// Returns the flag value parsed as `T`, or `default`.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, BinError>
    where
        T::Err: Display,
    {
        match self.flags.get(key) {
            Some(v) => v.parse().map_err(|e| bad_value(key, v, e)),
            None => Ok(default),
        }
    }

    /// Returns the flag's comma-separated list (or `default`'s), each entry
    /// parsed as `T`.
    pub fn get_list<T: std::str::FromStr>(
        &self,
        key: &str,
        default: &str,
    ) -> Result<Vec<T>, BinError>
    where
        T::Err: Display,
    {
        self.get_str(key, default)
            .split(',')
            .map(|s| s.trim().parse().map_err(|e| bad_value(key, s, e)))
            .collect()
    }

    /// Returns the value paired with the flag's name in `choices`, or the
    /// one paired with `default` when the flag is absent.
    pub fn choice<T: Copy>(
        &self,
        key: &str,
        default: &str,
        choices: &[(&str, T)],
    ) -> Result<T, BinError> {
        let name = self.get_str(key, default);
        choices
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .ok_or_else(|| {
                let names: Vec<&str> = choices.iter().map(|(n, _)| *n).collect();
                BinError::Usage(format!(
                    "bad value for --{key}: {name:?} (use {})",
                    names.join("|")
                ))
            })
    }

    /// `--img` (16), checked against a `family` panel on `kind` networks.
    pub fn img(&self, family: Family, kind: ArchKind) -> Result<usize, BinError> {
        let img = self.get("img", 16)?;
        experiments::check_img(family, kind, img)
            .map_err(|e| bad_value("img", &img.to_string(), e))?;
        Ok(img)
    }

    /// The scale of a `family` panel on `kind` networks from `--img` (see
    /// [`img`](Self::img)), `--train` (2048), `--test` (512), `--iters`,
    /// `--eval-every`, `--eval-samples` (256) and `--seed`: the defaults in
    /// brackets or given.
    pub fn scale(
        &self,
        (family, kind): (Family, ArchKind),
        iters: usize,
        eval_every: usize,
        seed: u64,
    ) -> Result<ExperimentScale, BinError> {
        Ok(ExperimentScale {
            img: self.img(family, kind)?,
            train_n: self.get("train", 2048)?,
            test_n: self.get("test", 512)?,
            iters: self.get("iters", iters)?,
            eval_every: self.get("eval-every", eval_every)?,
            eval_samples: self.get("eval-samples", 256)?,
            seed: self.get("seed", seed)?,
        })
    }

    /// Returns the raw string flag, or `default`.
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.flags
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// True iff the flag was supplied.
    pub fn has(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }
}

/// The flags [`Args::scale`] reads.
pub const SCALE_FLAGS: &[&str] = &[
    "img",
    "train",
    "test",
    "iters",
    "eval-every",
    "eval-samples",
    "seed",
];

fn bad_value(key: &str, value: &str, e: impl Display) -> BinError {
    BinError::Usage(format!("bad value for --{key}: {value:?} ({e})"))
}

/// The dataset families a figure panel can use, for [`Args::choice`].
pub const FAMILIES: &[(&str, Family)] =
    &[("mnist", Family::MnistLike), ("cifar", Family::CifarLike)];

/// The architectures a figure panel can use, for [`Args::choice`].
pub const ARCHS: &[(&str, ArchKind)] = &[("mlp", ArchKind::Mlp), ("cnn", ArchKind::Cnn)];

/// Formats a byte count the way the paper's Table IV does (MiB, printed as
/// "MB").
pub fn fmt_mb(bytes: u64) -> String {
    format!("{:.2} MB", bytes as f64 / (1024.0 * 1024.0))
}

/// Pretty-prints a fixed-width table (header + rows) to stdout.
pub fn print_table<const W: usize>(title: &str, header: [&str; W], rows: &[[String; W]]) {
    println!("\n=== {title} ===");
    let mut widths = [0usize; W];
    for (i, h) in header.iter().enumerate() {
        widths[i] = h.len();
    }
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let print_row = |cells: &[String]| {
        let line: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:w$}", c, w = widths[i]))
            .collect();
        println!("| {} |", line.join(" | "));
    };
    print_row(&header.map(String::from));
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        print_row(row);
    }
}

/// The error a bench binary's `main` returns. Rust prints a returned
/// error's `Debug` form, so this one's is a one-line message: the wrapped
/// [`TrainError`]'s `Display` ("cannot write results/…: Not a directory …"),
/// the command-line mistake, naming the flag, or the disagreement.
pub enum BinError {
    /// The run failed.
    Train(TrainError),
    /// The command line asked for something the binary does not take.
    Usage(String),
    /// Two computations of one quantity disagree.
    Mismatch(String),
}

impl From<TrainError> for BinError {
    fn from(e: TrainError) -> Self {
        BinError::Train(e)
    }
}

impl fmt::Debug for BinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinError::Train(e) => fmt::Display::fmt(e, f),
            BinError::Usage(msg) | BinError::Mismatch(msg) => f.write_str(msg),
        }
    }
}

/// Writes a CSV file under `results/`, creating the directory as needed,
/// and echoes the path. A failure is a [`TrainError::Write`] naming the
/// file, so the binaries exit non-zero with a diagnostic instead of
/// panicking mid-run.
pub fn write_csv(name: &str, header: &str, body: &str) -> Result<(), TrainError> {
    let dir = Path::new("results");
    let path = dir.join(name);
    fs::create_dir_all(dir)
        .and_then(|()| fs::write(&path, format!("{header}\n{body}")))
        .map_err(TrainError::writing(&path))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Builds a run's telemetry recorder: it always records (so the run record
/// written next to the CSVs is complete) and the `TELEMETRY` environment
/// knob only controls end-of-run *printing* — see [`emit_run_record`].
/// `trace` (a `--trace` flag) raises the verbosity to [`Verbosity::Trace`]
/// whatever `TELEMETRY` says, so causal span capture is on.
pub fn recorder_from_env(trace: bool) -> Arc<Recorder> {
    let floor = if trace {
        Verbosity::Trace
    } else {
        Verbosity::Table
    };
    Arc::new(Recorder::with_verbosity(Verbosity::from_env().max(floor)))
}

/// Mirrors md-tensor pool-worker activity onto `rec`'s trace timeline
/// (one `pool-N` track per worker slot). No-op when tracing is off, so
/// binaries can call it unconditionally. The hook stays installed for the
/// process lifetime; call [`md_tensor::pool::set_trace_hook`]`(None)` to
/// remove it early.
pub fn install_pool_trace_hook(rec: &Arc<Recorder>) {
    if !rec.trace_enabled() {
        return;
    }
    let r = Arc::clone(rec);
    md_tensor::pool::set_trace_hook(Some(Arc::new(move |slot, busy| {
        r.trace_pool_task(slot, busy);
    })));
}

/// Exports `spans` as a Chrome trace-event JSON under
/// `results/traces/<name>.trace.json` (loadable in Perfetto or
/// chrome://tracing) and returns the critical-path analysis derived from
/// the same spans; `None` when there are no spans. The caller windows the
/// recorder's dump down to one run's spans when one recorder captured
/// several runs back to back. A trace that cannot be written fails the
/// run, as [`write_csv`] does.
pub fn emit_trace_spans(
    name: &str,
    spans: &[md_telemetry::SpanRecord],
) -> Result<Option<CriticalPathReport>, TrainError> {
    if spans.is_empty() {
        return Ok(None);
    }
    let dir = Path::new("results/traces");
    let path = export::write_chrome_trace(dir, name, spans)
        .map_err(TrainError::writing(export::chrome_trace_path(dir, name)))?;
    println!("wrote {}", path.display());
    Ok(Some(CriticalPathReport::from_spans(spans)))
}

/// Samples the md-tensor worker-pool counters into the telemetry-neutral
/// [`PoolCounters`] shape (md-telemetry itself stays zero-dependency).
pub fn pool_counters() -> PoolCounters {
    let s = md_tensor::pool::stats();
    PoolCounters {
        pool_size: s.pool_size,
        threads_spawned: s.threads_spawned,
        jobs: s.jobs,
        seq_jobs: s.seq_jobs,
        tasks: s.tasks,
        busy_ns: s.busy_ns,
    }
}

/// Samples the md-tensor workspace (recycling buffer pool) counters into
/// the telemetry-neutral [`WorkspaceCounters`] shape.
pub fn workspace_counters() -> WorkspaceCounters {
    let s = md_tensor::workspace::stats();
    WorkspaceCounters {
        ws_hits: s.hits,
        ws_misses: s.misses,
        ws_bytes_recycled: s.bytes_recycled,
    }
}

/// Prints the worker-pool counters as a one-line summary — used by the
/// Criterion benches so before/after runs show whether kernels hit the
/// pooled or the sequential path and that no threads were spawned beyond
/// the pool itself. A second line reports the workspace buffer pool:
/// `ws_misses` flat between runs means steady state allocated nothing.
pub fn print_pool_stats() {
    let p = pool_counters();
    println!(
        "tensor pool: size={} spawned={} jobs={} seq_jobs={} tasks={} busy={:.3}s (threads={})",
        p.pool_size,
        p.threads_spawned,
        p.jobs,
        p.seq_jobs,
        p.tasks,
        p.busy_ns as f64 / 1e9,
        md_tensor::parallel::max_threads(),
    );
    let w = workspace_counters();
    println!(
        "workspace: ws_hits={} ws_misses={} ws_bytes_recycled={}",
        w.ws_hits, w.ws_misses, w.ws_bytes_recycled,
    );
}

/// Writes `results/<name>.telemetry.jsonl` next to the binary's CSVs,
/// echoes the path, and prints the recorder's end-of-run table (or JSONL)
/// when the `TELEMETRY` environment knob asks for it. The md-tensor pool
/// and workspace counters are sampled here so every run record carries
/// `"pool"` and `"workspace"` lines. The record is a run's only
/// observable, so failing to write it fails the run, as [`write_csv`] does.
pub fn emit_run_record(record: RunRecord, rec: &Recorder) -> Result<(), TrainError> {
    let record = record
        .with_pool_counters(pool_counters())
        .with_workspace_counters(workspace_counters());
    let path = record
        .write_jsonl("results", rec)
        .map_err(TrainError::writing(record.jsonl_path("results")))?;
    println!("wrote {}", path.display());
    if Verbosity::from_env() != Verbosity::Off {
        rec.finish();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(argv: &[&str]) -> Result<Args, BinError> {
        let known = ["iters", "family", "full", "missing", "drops"];
        Args::from_iter(argv.iter().map(|s| s.to_string()), &known)
    }

    fn usage(r: Result<impl fmt::Debug, BinError>) -> String {
        match r {
            Err(BinError::Usage(msg)) => msg,
            other => panic!("expected a usage error, got {other:?}"),
        }
    }

    #[test]
    fn parses_key_value_flags() {
        let a = args(&["--iters", "100", "--family", "mnist"]).unwrap();
        assert_eq!(a.get("iters", 0usize).unwrap(), 100);
        assert_eq!(a.get_str("family", "cifar"), "mnist");
        assert_eq!(a.get("missing", 7usize).unwrap(), 7);
        assert_eq!(
            a.choice("family", "cifar", FAMILIES).unwrap(),
            Family::MnistLike
        );
    }

    #[test]
    fn boolean_flags() {
        let a = args(&["--full", "--iters", "5"]).unwrap();
        assert!(a.has("full"));
        assert!(a.get("full", false).unwrap());
        assert_eq!(a.get("iters", 0usize).unwrap(), 5);
    }

    #[test]
    fn input_errors_name_the_flag() {
        let a = args(&["--iters", "ten", "--family", "mnsit", "--drops", "0.1,x"]).unwrap();
        assert!(usage(a.get("iters", 0usize)).starts_with("bad value for --iters: \"ten\""));
        assert!(usage(a.choice("family", "mnist", FAMILIES)).contains("--family: \"mnsit\""));
        assert!(usage(a.get_list::<f32>("drops", "0")).contains("--drops: \"x\""));
        assert!(
            usage(args(&["--bogus-flag", "7", "--help"])).starts_with("unknown flag --bogus-flag")
        );
        assert!(usage(args(&["iters"])).contains("expected --flag"));
    }

    #[test]
    fn env_recorder_always_records() {
        let rec = recorder_from_env(false);
        {
            let _s = rec.span(md_telemetry::Phase::Comm);
        }
        assert_eq!(rec.phase_stats(md_telemetry::Phase::Comm).count, 1);
    }

    #[test]
    fn run_records_carry_pool_counters() {
        // A small sequential kernel bumps the seq_jobs counter...
        let a = md_tensor::Tensor::zeros(&[4, 4]);
        let _ = a.matmul(&a);
        let p = pool_counters();
        assert!(p.seq_jobs > 0);
        // ...and the counters render as a "pool" JSONL line.
        let rec = recorder_from_env(false);
        let text = md_telemetry::RunRecord::new("pooltest")
            .with_pool_counters(p)
            .to_jsonl(&rec);
        assert!(text.contains(r#""type":"pool""#));
    }

    #[test]
    fn run_records_carry_workspace_counters() {
        // Round-trip a pooled-size tensor so the counters are non-trivial...
        let t = md_tensor::Tensor::zeros(&[64, 64]);
        drop(t);
        let _t2 = md_tensor::Tensor::zeros(&[64, 64]);
        let w = workspace_counters();
        assert!(w.ws_hits + w.ws_misses > 0);
        // ...and check they render as a "workspace" JSONL line.
        let rec = recorder_from_env(false);
        let text = md_telemetry::RunRecord::new("wstest")
            .with_workspace_counters(w)
            .to_jsonl(&rec);
        assert!(text.contains(r#""type":"workspace""#));
        assert!(text.contains(r#""ws_hits""#));
    }

    #[test]
    fn mb_formatting_matches_paper_convention() {
        assert_eq!(fmt_mb(2 * 1024 * 1024), "2.00 MB");
        // The paper's 2.30 MB entry: 2·10·3072·10·4 bytes.
        assert_eq!(fmt_mb(2 * 10 * 3072 * 10 * 4), "2.34 MB");
    }
}
