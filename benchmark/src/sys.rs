//! What the benchmark asks the operating system: process CPU time, peak
//! resident memory, and who the host is.

use md_telemetry::json::Object;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU seconds consumed so far by all threads of this process. Unlike
/// `/proc/self/stat` (10 ms ticks) this resolves single iterations.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` of the layout the
    // 64-bit Linux C library expects, and the clock id is a constant the
    // call accepts; the call writes `ts` and nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

fn status_kib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:").expect("VmHWM in /proc/self/status") / 1024.0
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out revision, read from `.git` without starting a process;
/// the driver's checkout is not a repository, and says so.
fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "not-a-repository".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or(head),
    }
}

/// Everything needed to tell two result lines from different hosts,
/// builds or seeds apart.
pub fn fingerprint(seed: u64, tensor_threads: usize) -> Object {
    Object::new()
        .field_u64("nproc", nproc() as u64)
        .field_str("cpu_model", &cpu_model())
        .field_u64("tensor_threads", tensor_threads as u64)
        .field_str("git_revision", &git_revision())
        .field_u64("seed", seed)
}
