//! Every workload, each in a process of its own, and the comparison of
//! two such suites (`--aa`, `--diff`).

use crate::metrics::END_TO_END;
use crate::workload::WORKLOADS;
use crate::Opts;
use md_telemetry::json::{self, Object, Value};
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

/// The two JSON lines a workload process ends on.
struct ChildRun {
    workload: &'static str,
    fingerprint: String,
    result: String,
}

/// Runs one workload in a child process, echoing what it prints.
fn spawn(workload: &'static str, opts: &Opts) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut json_lines = Vec::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("read {workload}: {e}"))?;
        println!("{line}");
        if line.starts_with('{') {
            json_lines.push(line);
        }
    }
    let status = child.wait().map_err(|e| format!("wait {workload}: {e}"))?;
    if !status.success() {
        return Err(format!("{workload} exited with {status}"));
    }
    let result = json_lines.pop();
    let fingerprint = json_lines.pop();
    match (fingerprint, result) {
        (Some(fingerprint), Some(result)) => Ok(ChildRun {
            workload,
            fingerprint,
            result,
        }),
        _ => Err(format!("{workload} printed no result")),
    }
}

fn suite_json(opts: &Opts, runs: &[ChildRun]) -> String {
    Object::new()
        .field_u64("seed", opts.seed)
        .field_f64("seconds", opts.seconds)
        .field_bool("traced", opts.traced)
        .field_raw(
            "runs",
            &json::array(runs.iter().map(|r| {
                Object::new()
                    .field_str("workload", r.workload)
                    .field_raw(
                        "fingerprint",
                        // The child wraps it as {"fingerprint": {...}}.
                        r.fingerprint
                            .strip_prefix("{\"fingerprint\":")
                            .and_then(|s| s.strip_suffix('}'))
                            .unwrap_or("null"),
                    )
                    .field_raw("result", &r.result)
                    .build()
            })),
        )
        .build()
}

fn run_all(opts: &Opts) -> Result<Vec<ChildRun>, String> {
    WORKLOADS.iter().map(|w| spawn(w.name, opts)).collect()
}

fn all_correct(suite: &Value) -> bool {
    runs(suite).iter().all(|r| {
        matches!(
            r.get("result").and_then(|res| res.get("correct")),
            Some(Value::Bool(true))
        )
    })
}

/// `--suite`: runs the four workloads and saves the suite for `--diff`.
pub fn suite(opts: &Opts) -> bool {
    let runs = match run_all(opts) {
        Ok(runs) => runs,
        Err(e) => {
            eprintln!("mdgan-benchmark: {e}");
            return false;
        }
    };
    let text = suite_json(opts, &runs);
    if let Some(path) = &opts.out {
        if let Err(e) = std::fs::write(path, format!("{text}\n")) {
            eprintln!("mdgan-benchmark: cannot write {path}: {e}");
            return false;
        }
    }
    let parsed = json::parse(&text).expect("the suite record is valid JSON");
    all_correct(&parsed)
}

fn runs(suite: &Value) -> &[Value] {
    suite.get("runs").and_then(Value::as_arr).unwrap_or(&[])
}

fn metric(run: &Value, name: &str) -> Option<f64> {
    run.get("result")?
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_f64()
}

fn disturbed(run: &Value) -> bool {
    !matches!(
        run.get("fingerprint").and_then(|f| f.get("disturbed")),
        Some(Value::Bool(false))
    )
}

/// Which gated metrics are timings, the ones a disturbed run cannot
/// resolve.
fn is_timing(name: &str) -> bool {
    matches!(name, "iters_per_s" | "cpu_ms_per_iter")
}

/// Prints `| workload | metric | run A | run B | difference | bound |` and
/// returns whether every row stayed within its bound. `symmetric` compares
/// two runs of one build (any difference is noise); otherwise `b` is the
/// candidate and only a worsening counts.
fn compare(a: &Value, b: &Value, symmetric: bool) -> bool {
    let mut within = true;
    println!("| workload | metric | run A | run B | difference | bound | verdict |");
    println!("|---|---|---|---|---|---|---|");
    for ra in runs(a) {
        let name = ra.get("workload").and_then(Value::as_str).unwrap_or("?");
        let Some(rb) = runs(b)
            .iter()
            .find(|r| r.get("workload").and_then(Value::as_str) == Some(name))
        else {
            println!("| {name} | - | - | - | - | - | missing in run B |");
            within = false;
            continue;
        };
        let unresolved = disturbed(ra) || disturbed(rb);
        for e in &END_TO_END {
            let (Some(va), Some(vb)) = (metric(ra, e.name), metric(rb, e.name)) else {
                continue;
            };
            let worse = match e.better {
                "higher" => (va - vb) / va,
                _ => (vb - va) / va,
            };
            let difference = if symmetric { worse.abs() } else { worse };
            let verdict = if difference > e.bound {
                within = false;
                "BEYOND BOUND"
            } else if unresolved && is_timing(e.name) {
                "unresolved"
            } else {
                "ok"
            };
            println!(
                "| {name} | {} | {va:.4} | {vb:.4} | {:+.2} % | {:.1} % | {verdict} |",
                e.name,
                difference * 100.0,
                e.bound * 100.0
            );
        }
    }
    within
}

/// `--aa`: the suite twice on one build, workloads interleaved
/// (A₁B₁C₁D₁A₂B₂C₂D₂) so both runs of a workload sit minutes apart.
pub fn aa(opts: &Opts) -> bool {
    let mut suites = Vec::new();
    for _ in 0..2 {
        match run_all(opts) {
            Ok(runs) => suites.push(
                json::parse(&suite_json(opts, &runs)).expect("the suite record is valid JSON"),
            ),
            Err(e) => {
                eprintln!("mdgan-benchmark: {e}");
                return false;
            }
        }
    }
    let within = compare(&suites[0], &suites[1], true);
    within && suites.iter().all(all_correct)
}

/// `--diff a.json b.json`: the same table over two saved suites, `b` being
/// the candidate.
pub fn diff(a: &str, b: &str) -> bool {
    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    match (load(a), load(b)) {
        (Ok(a), Ok(b)) => compare(&a, &b, false),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("mdgan-benchmark: {e}");
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn suite_with(iters_per_s: f64, disturbed: bool) -> Value {
        let text = format!(
            r#"{{"seed":1,"runs":[{{"workload":"mlp_b10_seq","fingerprint":{{"disturbed":{disturbed}}},
            "result":{{"correct":true,"attempted":3,"failed":0,"metrics":{{
            "iters_per_s":{{"value":{iters_per_s},"unit":"1/s"}},
            "bytes_per_iter":{{"value":1611019.0,"unit":"bytes"}}}}}}}}]}}"#
        );
        json::parse(&text).unwrap()
    }

    #[test]
    fn a_worsening_beyond_the_bound_fails_in_either_mode() {
        let (base, slow) = (suite_with(10.0, false), suite_with(8.5, false));
        assert!(compare(&base, &base, true));
        assert!(!compare(&base, &slow, false));
        assert!(!compare(&base, &slow, true));
    }

    #[test]
    fn an_improvement_fails_only_as_noise() {
        let (base, fast) = (suite_with(10.0, false), suite_with(12.0, false));
        assert!(compare(&base, &fast, false));
        assert!(!compare(&base, &fast, true));
    }

    #[test]
    fn disturbed_runs_stay_within_bound_but_unresolved() {
        assert!(disturbed(&runs(&suite_with(10.0, true))[0]));
        assert!(compare(
            &suite_with(10.0, true),
            &suite_with(9.8, false),
            true
        ));
        assert!(all_correct(&suite_with(10.0, true)));
    }
}
