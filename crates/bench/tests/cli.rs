//! The figure binaries at their command line.
//!
//! Pins: each binary runs a small panel in a fresh directory, and the bytes
//! of every CSV it writes, plus the final-score table it prints, hash to
//! recorded FNV-1a constants. Rewiring the runners behind these binaries
//! must leave every byte as it was. The outputs are the same for any
//! `TENSOR_THREADS`.
//!
//! Input errors: an unknown flag (`--help` too, whose message lists the
//! flags), a malformed value or an unknown choice exits non-zero, names the
//! flag on stderr, and writes nothing.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The shared small scale of the pinned runs.
const SMALL: &[&str] = &[
    "--img",
    "12",
    "--train",
    "128",
    "--test",
    "64",
    "--iters",
    "4",
    "--eval-every",
    "2",
    "--eval-samples",
    "32",
];

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mdgan-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(bin: &str, dir: &Path, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .current_dir(dir)
        .env_remove("TELEMETRY")
        .env_remove("CHURN_SEED")
        .env_remove("FREERIDER_SEED")
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"))
}

/// Runs `bin` with `args` and returns the hash of each CSV in `csvs`
/// (relative to `results/`), then the hash of the printed tables (the
/// `=== title ===` lines and the `|`-framed rows).
fn pinned(tag: &str, bin: &str, args: &[&str], csvs: &[&str]) -> Vec<u64> {
    let dir = workdir(tag);
    let out = run(bin, &dir, args);
    assert!(
        out.status.success(),
        "{tag} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut hashes: Vec<u64> = csvs
        .iter()
        .map(|name| {
            let path = dir.join("results").join(name);
            fnv1a(&std::fs::read(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}")))
        })
        .collect();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let table: String = stdout
        .lines()
        .filter(|l| l.starts_with("=== ") || l.starts_with('|'))
        .flat_map(|l| [l, "\n"])
        .collect();
    assert!(!table.is_empty(), "{tag} printed no table:\n{stdout}");
    hashes.push(fnv1a(table.as_bytes()));
    let _ = std::fs::remove_dir_all(&dir);
    hashes
}

fn small_with(extra: &[&'static str]) -> Vec<&'static str> {
    SMALL.iter().chain(extra).copied().collect()
}

const FIG3: &str = env!("CARGO_BIN_EXE_fig3_convergence");

#[test]
fn fig3_is_pinned() {
    let h = pinned("fig3", FIG3, SMALL, &["fig3_mnist_mlp.csv"]);
    assert_eq!(h, [7092432610877429215, 16460710071401908032]);
}

#[test]
fn fig3_checkpointed_is_pinned() {
    let args = small_with(&["--ckpt-dir", "ckpt", "--ckpt-every", "2"]);
    let h = pinned("fig3-ckpt", FIG3, &args, &["fig3_mnist_mlp.csv"]);
    assert_eq!(h, [7092432610877429215, 16460710071401908032]);
}

#[test]
fn fig4_is_pinned() {
    let bin = env!("CARGO_BIN_EXE_fig4_scalability");
    let h = pinned("fig4", bin, SMALL, &["fig4_scalability.csv"]);
    assert_eq!(h, [17213571168289256899, 3348062172362661493]);
}

#[test]
fn fig5_is_pinned() {
    let bin = env!("CARGO_BIN_EXE_fig5_faults");
    let h = pinned(
        "fig5",
        bin,
        SMALL,
        &["fig5_mnist.csv", "fig5_lossy_mnist.csv"],
    );
    assert_eq!(
        h,
        [
            5940311313069286381,
            17844137432107322958,
            4619397879134021585
        ]
    );
}

#[test]
fn fig6_is_pinned() {
    let bin = env!("CARGO_BIN_EXE_fig6_celeba");
    let mut args = small_with(&[]);
    args[1] = "16";
    let h = pinned("fig6", bin, &args, &["fig6_celeba.csv"]);
    assert_eq!(h, [14499361508431884727, 15065296816072875071]);
}

#[test]
fn fig_elastic_is_pinned() {
    let bin = env!("CARGO_BIN_EXE_fig_elastic");
    let h = pinned("elastic", bin, SMALL, &["fig_elastic_mnist.csv"]);
    assert_eq!(h, [7865819493701344488, 12401223022179034821]);
}

#[test]
fn fig_freerider_is_pinned() {
    let bin = env!("CARGO_BIN_EXE_fig_freerider");
    let h = pinned("freerider", bin, SMALL, &["fig_freerider_mnist.csv"]);
    assert_eq!(h, [2704519359283789639, 15463864514403933388]);
}

#[test]
fn ext_perspectives_is_pinned() {
    let bin = env!("CARGO_BIN_EXE_ext_perspectives");
    // Its test split and evaluation sample are fixed (512 and 256), so it
    // takes neither `--test` nor `--eval-samples`.
    let args = [
        "--img",
        "12",
        "--train",
        "128",
        "--iters",
        "4",
        "--eval-every",
        "2",
    ];
    let h = pinned("ext", bin, &args, &["ext_perspectives.csv"]);
    assert_eq!(h, [12916576742813580083, 2497088150269734598]);
}

/// Runs `bin` with `args` in a fresh directory and checks that it failed on
/// its command line: a non-zero exit without a panic, one `Error:` line
/// naming `flag`, and no `results/` written.
fn rejects(tag: &str, bin: &str, args: &[&str], flag: &str) {
    let dir = workdir(tag);
    let out = run(bin, &dir, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{tag} exited 0; stderr:\n{stderr}");
    assert!(!stderr.contains("panicked"), "{tag} panicked:\n{stderr}");
    let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("Error:")).collect();
    assert!(
        errors.len() == 1 && errors[0].contains(flag),
        "{tag}: expected one Error line naming {flag}; stderr:\n{stderr}"
    );
    assert!(!dir.join("results").exists(), "{tag} wrote results/");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_flags_are_rejected_even_beside_help() {
    rejects(
        "bogus",
        FIG3,
        &["--bogus-flag", "7", "--help"],
        "--bogus-flag",
    );
    rejects("help", FIG3, &["--help"], "--ckpt-every");
}

#[test]
fn malformed_values_are_rejected() {
    rejects("family", FIG3, &["--family", "mnsit"], "--family");
    rejects("iters", FIG3, &["--iters", "two"], "--iters");
    let fig5 = env!("CARGO_BIN_EXE_fig5_faults");
    rejects("drops", fig5, &["--drops", "0.1,lots"], "--drops");
}

#[test]
fn unknown_strategies_are_rejected_before_set_up() {
    let bin = env!("CARGO_BIN_EXE_fig_freerider");
    rejects(
        "strategies",
        bin,
        &["--strategies", "nosie"],
        "--strategies",
    );
}
