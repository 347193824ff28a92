//! Validates exported Chrome trace-event JSON files — the CI `trace` job's
//! gate on the tracing exporter.
//!
//! ```text
//! cargo run --release -p md-bench --bin trace_check -- --dir results/traces
//! ```
//!
//! For every `*.trace.json` under `--dir` (default `results/traces`) the
//! checker asserts, exiting non-zero with a diagnostic on the first
//! violation:
//!
//! * the file parses as a JSON object with a `traceEvents` array;
//! * every event carries a known phase (`M`/`X`/`i`/`s`/`f`), integer
//!   `pid`/`tid`, and (except metadata) a non-negative `ts`;
//! * complete (`X`) events have a non-negative `dur`;
//! * per `(pid, tid)` track, timestamps are monotonically non-decreasing
//!   in file order (the exporter sorts by start time);
//! * flow events balance: every start (`s`) has exactly one finish (`f`)
//!   with the same flow `id`, and vice versa — the send→recv and
//!   drop→retry causal edges survive the export.

use md_bench::Args;
use md_telemetry::json::{parse, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn req_f64(e: &Value, key: &str, what: &str) -> Result<f64, String> {
    e.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("{what}: missing numeric {key:?}"))
}

fn check_file(path: &Path) -> Result<(usize, usize), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read failed: {e}"))?;
    let root = parse(&text).map_err(|e| format!("JSON parse failed: {e}"))?;
    let events = root
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or("no traceEvents array")?;
    if events.is_empty() {
        return Err("traceEvents is empty".into());
    }

    // (pid, tid) → last seen ts, for per-track monotonicity.
    let mut last_ts: BTreeMap<(i64, i64), f64> = BTreeMap::new();
    // flow id → (starts, finishes).
    let mut flows: BTreeMap<i64, (u64, u64)> = BTreeMap::new();
    let mut spans = 0usize;
    for (i, e) in events.iter().enumerate() {
        let what = format!("event {i}");
        let ph = e
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{what}: missing ph"))?;
        let pid = req_f64(e, "pid", &what)? as i64;
        let tid = req_f64(e, "tid", &what)? as i64;
        match ph {
            "M" => continue, // metadata has no timestamp
            "X" | "i" | "s" | "f" => {}
            other => return Err(format!("{what}: unknown phase {other:?}")),
        }
        let ts = req_f64(e, "ts", &what)?;
        if ts < 0.0 {
            return Err(format!("{what}: negative ts {ts}"));
        }
        if ph == "X" {
            let dur = req_f64(e, "dur", &what)?;
            if dur < 0.0 {
                return Err(format!("{what}: negative dur {dur}"));
            }
            spans += 1;
        }
        if ph == "i" {
            spans += 1;
        }
        if ph == "s" || ph == "f" {
            let id = req_f64(e, "id", &what)? as i64;
            let entry = flows.entry(id).or_insert((0, 0));
            if ph == "s" {
                entry.0 += 1;
            } else {
                entry.1 += 1;
            }
            continue; // flow halves ride on their span's track; skip the
                      // monotonicity check (the finish shares the recv ts)
        }
        let prev = last_ts.entry((pid, tid)).or_insert(0.0);
        if ts < *prev {
            return Err(format!(
                "{what}: track ({pid},{tid}) went backwards: {ts} after {prev}"
            ));
        }
        *prev = ts;
    }
    for (id, (s, f)) in &flows {
        if *s != 1 || *f != 1 {
            return Err(format!(
                "flow {id}: {s} start(s), {f} finish(es) — causal edge broken"
            ));
        }
    }
    Ok((spans, flows.len()))
}

fn main() {
    let args = Args::parse(&["dir"]).unwrap_or_else(|e| {
        eprintln!("trace_check: {e:?}");
        std::process::exit(2);
    });
    let dir = PathBuf::from(args.get_str("dir", "results/traces"));
    let mut files: Vec<PathBuf> = match std::fs::read_dir(&dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.ends_with(".trace.json"))
            })
            .collect(),
        Err(e) => {
            eprintln!("trace_check: cannot read {}: {e}", dir.display());
            std::process::exit(2);
        }
    };
    files.sort();
    if files.is_empty() {
        eprintln!("trace_check: no *.trace.json under {}", dir.display());
        std::process::exit(2);
    }
    let mut failed = false;
    for f in &files {
        match check_file(f) {
            Ok((spans, edges)) => {
                println!("ok {} ({spans} spans, {edges} causal edges)", f.display())
            }
            Err(e) => {
                eprintln!("FAIL {}: {e}", f.display());
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("{} trace file(s) valid", files.len());
}
