//! The `mdgan` figure and table subcommands at their command line.
//!
//! Pins: each subcommand runs a small panel in a fresh directory, and the
//! bytes of every CSV it writes, plus the tables it prints, hash to
//! recorded FNV-1a constants. Rewiring the runners behind these
//! subcommands must leave every byte as it was. The outputs are the same
//! for any `TENSOR_THREADS`.
//!
//! Input errors: a missing or unknown subcommand (the message lists them),
//! an unknown flag (`--help` too, whose message lists the flags), a
//! malformed value, an unknown choice or an image size the panel cannot
//! build exits non-zero, names the word or flag on stderr, and writes
//! nothing.

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

const MDGAN: &str = env!("CARGO_BIN_EXE_mdgan");

/// Runs `mdgan` with `argv` (the subcommand first) in `dir`.
fn run(dir: &Path, argv: &[&str]) -> Output {
    Command::new(MDGAN)
        .args(argv)
        .current_dir(dir)
        .env_remove("TELEMETRY")
        .env_remove("CHURN_SEED")
        .env_remove("FREERIDER_SEED")
        .output()
        .unwrap_or_else(|e| panic!("spawn {MDGAN}: {e}"))
}

/// Runs subcommand `sub` with `args` and returns the hash of each CSV in
/// `csvs` (relative to `results/`), then the hash of the printed tables
/// (the `=== title ===` lines and the `|`-framed rows).
fn pinned(tag: &str, sub: &str, args: &[&str], csvs: &[&str]) -> Vec<u64> {
    let dir = workdir(tag);
    let out = run(&dir, &[&[sub], args].concat());
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
    assert!(
        !stdout.contains("MISMATCH"),
        "{tag} cross-check failed:\n{stdout}"
    );
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

#[test]
fn fig3_is_pinned() {
    let h = pinned("fig3", "fig3", SMALL, &["fig3_mnist_mlp.csv"]);
    assert_eq!(h, [7092432610877429215, 16460710071401908032]);
}

#[test]
fn fig3_checkpointed_is_pinned() {
    let args = small_with(&["--ckpt-dir", "ckpt", "--ckpt-every", "2"]);
    let h = pinned("fig3-ckpt", "fig3", &args, &["fig3_mnist_mlp.csv"]);
    assert_eq!(h, [7092432610877429215, 16460710071401908032]);
}

#[test]
fn fig4_is_pinned() {
    let h = pinned("fig4", "fig4", SMALL, &["fig4_scalability.csv"]);
    assert_eq!(h, [17213571168289256899, 3348062172362661493]);
}

#[test]
fn fig5_is_pinned() {
    let h = pinned(
        "fig5",
        "fig5",
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
    let mut args = small_with(&[]);
    args[1] = "16";
    let h = pinned("fig6", "fig6", &args, &["fig6_celeba.csv"]);
    assert_eq!(h, [14499361508431884727, 15065296816072875071]);
}

#[test]
fn fig_elastic_is_pinned() {
    let h = pinned("elastic", "elastic", SMALL, &["fig_elastic_mnist.csv"]);
    assert_eq!(h, [7865819493701344488, 12401223022179034821]);
}

#[test]
fn fig_freerider_is_pinned() {
    let h = pinned(
        "freerider",
        "freerider",
        SMALL,
        &["fig_freerider_mnist.csv"],
    );
    assert_eq!(h, [2704519359283789639, 15463864514403933388]);
}

#[test]
fn ext_perspectives_is_pinned() {
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
    let h = pinned("ext", "perspectives", &args, &["ext_perspectives.csv"]);
    assert_eq!(h, [12916576742813580083, 2497088150269734598]);
}

#[test]
fn fig2_is_pinned() {
    let h = pinned("fig2", "fig2", &[], &["fig2_ingress.csv"]);
    assert_eq!(h, [9724286991285285969, 13402038164225555865]);
}

#[test]
fn table2_is_pinned() {
    let h = pinned("table2", "table2", &[], &[]);
    assert_eq!(h, [582774722267724130]);
}

#[test]
fn table3_is_pinned() {
    let h = pinned("table3", "table3", &[], &[]);
    assert_eq!(h, [18383759062292403328]);
}

#[test]
fn table4_is_pinned() {
    // The closed-form table is at paper scale whatever `--n`; the small
    // simulator cross-check must print no MISMATCH.
    let args = ["--n", "2", "--sim-iters", "1"];
    let h = pinned("table4", "table4", &args, &[]);
    assert_eq!(h, [7289511294374258168]);
}

/// Runs `mdgan` with `argv` in a fresh directory and checks that it failed
/// on its command line: a non-zero exit without a panic, one `Error:` line
/// naming `flag`, and no `results/` written.
fn rejects(tag: &str, argv: &[&str], flag: &str) {
    let dir = workdir(tag);
    let out = run(&dir, argv);
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
fn missing_and_unknown_subcommands_are_rejected() {
    let all = "fig2|fig3|fig4|fig5|fig6|elastic|freerider|table2|table3|table4|perspectives";
    rejects("no-sub", &[], all);
    rejects("fig7", &["fig7"], all);
    rejects("flag-first", &["--iters", "4", "fig3"], all);
}

#[test]
fn unknown_flags_are_rejected_even_beside_help() {
    rejects(
        "bogus",
        &["fig3", "--bogus-flag", "7", "--help"],
        "--bogus-flag",
    );
    rejects("help", &["fig3", "--help"], "--ckpt-every");
}

#[test]
fn malformed_values_are_rejected() {
    rejects("family", &["fig3", "--family", "mnsit"], "--family");
    rejects("iters", &["fig3", "--iters", "two"], "--iters");
    rejects("drops", &["fig5", "--drops", "0.1,lots"], "--drops");
}

#[test]
fn unknown_strategies_are_rejected_before_set_up() {
    rejects(
        "strategies",
        &["freerider", "--strategies", "nosie"],
        "--strategies",
    );
}

#[test]
fn image_sizes_the_panel_cannot_build_are_rejected_before_set_up() {
    rejects("celeba-img", &["fig6", "--img", "8"], "--img");
    rejects(
        "cnn-img",
        &["fig3", "--arch", "cnn", "--img", "20"],
        "--img",
    );
}
