//! Kill-and-resume acceptance for `mdgan fig3`: a run
//! SIGKILLed mid-flight and resumed from its recovery directory must
//! produce a final metrics CSV byte-identical to an uninterrupted run.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_mdgan");

/// Tiny panel: seconds per full run, several checkpoints along the way.
const ARGS: &[&str] = &[
    "fig3",
    "--family",
    "mnist",
    "--arch",
    "mlp",
    "--img",
    "12",
    "--train",
    "256",
    "--test",
    "64",
    "--iters",
    "6",
    "--eval-every",
    "3",
    "--eval-samples",
    "32",
    "--workers",
    "3",
    "--b-small",
    "4",
    "--b-large",
    "8",
];

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mdgan-fig3-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_to_completion(dir: &Path, extra: &[&str]) {
    let status = Command::new(BIN)
        .args(ARGS)
        .args(extra)
        .current_dir(dir)
        .status()
        .expect("spawn mdgan fig3");
    assert!(status.success(), "mdgan fig3 failed in {dir:?}");
}

fn read_csv(dir: &Path) -> String {
    let path = dir.join("results/fig3_mnist_mlp.csv");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"))
}

#[test]
fn sigkill_mid_run_then_resume_matches_uninterrupted_csv() {
    // Uninterrupted reference.
    let ref_dir = workdir("ref");
    run_to_completion(&ref_dir, &[]);
    let reference = read_csv(&ref_dir);
    assert!(reference.lines().count() > 6, "reference CSV looks empty");

    // Checkpointed run, SIGKILLed as soon as durable progress exists.
    let kill_dir = workdir("kill");
    let ckpt_dir = kill_dir.join("ckpt");
    let ckpt_flag = ckpt_dir.to_str().unwrap().to_string();
    let mut child = Command::new(BIN)
        .args(ARGS)
        .args(["--ckpt-dir", &ckpt_flag, "--ckpt-every", "2"])
        .current_dir(&kill_dir)
        .spawn()
        .expect("spawn checkpointed mdgan fig3");
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let progressed = std::fs::read_dir(&ckpt_dir)
            .map(|mut d| d.next().is_some())
            .unwrap_or(false);
        if progressed || child.try_wait().unwrap().is_some() || Instant::now() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill().ok(); // SIGKILL on unix
    let _ = child.wait();

    // Resume from the same recovery directory and run to completion.
    run_to_completion(&kill_dir, &["--ckpt-dir", &ckpt_flag]);
    let resumed = read_csv(&kill_dir);
    assert_eq!(
        reference, resumed,
        "resumed CSV differs from uninterrupted reference"
    );

    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&kill_dir);
}
