//! A bench subcommand that cannot write one of its outputs fails the run:
//! it exits non-zero and says, on one line, which file it could not write.
//! Each case runs `mdgan` in a fresh directory where an output directory is
//! a plain file.

use std::path::PathBuf;
use std::process::{Command, Output};

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mdgan-writes-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `bin` with `args` in a fresh directory where `blocked` (relative)
/// is an empty plain file, and returns what it printed and how it exited.
fn run_blocked(bin: &str, args: &[&str], blocked: &str) -> Output {
    let dir = workdir(blocked.replace('/', "_").as_str());
    let blocked = dir.join(blocked);
    std::fs::create_dir_all(blocked.parent().unwrap()).unwrap();
    std::fs::write(&blocked, b"").unwrap();
    let out = Command::new(bin)
        .args(args)
        .current_dir(&dir)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// The run failed, and the one `Error:` line among its progress lines on
/// stderr names `file`.
fn assert_failed_naming(out: &Output, file: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "exited 0; stderr:\n{stderr}");
    let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("Error:")).collect();
    let want = format!("Error: cannot write {file}: ");
    assert!(
        errors.len() == 1 && errors[0].starts_with(&want),
        "expected one line starting {want:?}; stderr:\n{stderr}"
    );
}

#[test]
fn table3_fails_when_results_is_a_file() {
    let out = run_blocked(env!("CARGO_BIN_EXE_mdgan"), &["table3"], "results");
    assert_failed_naming(&out, "results/table3_comms.telemetry.jsonl");
}

#[test]
fn traced_fig5_fails_when_its_trace_cannot_be_written() {
    let args = [
        "fig5",
        "--family",
        "mnist",
        "--img",
        "8",
        "--train",
        "64",
        "--test",
        "32",
        "--iters",
        "4",
        "--eval-every",
        "2",
        "--eval-samples",
        "16",
        "--workers",
        "3",
        "--drops",
        "0.1",
        "--trace",
    ];
    let out = run_blocked(env!("CARGO_BIN_EXE_mdgan"), &args, "results/traces");
    assert_failed_naming(&out, "results/traces/fig5_lossy_mnist_drop0.1.trace.json");
}
