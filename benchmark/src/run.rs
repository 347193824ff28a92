//! One process, one workload: the untraced run that yields the end-to-end
//! metrics, the traced run that yields the per-layer ones, and the two
//! self-checks (`--layers`, `--seed-test`).

use crate::estimator::{paired_ratio, summarize, EstimatorError, Paired, Summary};
use crate::layers;
use crate::metrics::{end_to_end_names, per_layer_names, Metrics};
use crate::reference::Reference;
use crate::spans::Spans;
use crate::sys;
use crate::workload::{disabled, Budget, Session, Window, Workload, WORKLOADS};
use crate::Opts;
use md_telemetry::json::Object;
use md_telemetry::{Phase, Recorder};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// From-scratch set-ups timed per run, each beside one of the baseline;
/// the last one is the one trained.
const SETUPS: usize = 5;

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// An estimate, or its reason for not being one on stderr.
fn estimate<T>(result: Result<T, EstimatorError>) -> Option<T> {
    result
        .map_err(|e| eprintln!("mdgan-benchmark: no estimate: {e}"))
        .ok()
}

/// What the fingerprint line says about the run's units.
struct Units {
    attempted: usize,
    failed: usize,
    /// Units within 3 % of the fastest, of the code under test.
    fast_tail_support: usize,
    /// Whether the host disturbed the run beyond what its estimator
    /// resolves.
    disturbed: bool,
    gen_checksum: u64,
}

/// The host-fingerprint line that precedes every result line.
fn print_fingerprint(w: &Workload, opts: &Opts, units: &Units) {
    let line = sys::fingerprint(opts.seed, w.tensor_threads)
        .field_str("workload", w.name)
        .field_bool("traced", opts.traced)
        .field_u64("units_attempted", units.attempted as u64)
        .field_u64("units_failed", units.failed as u64)
        .field_f64("failed_share", units.failed as f64 / units.attempted as f64)
        .field_u64("fast_tail_support", units.fast_tail_support as u64)
        .field_bool("disturbed", units.disturbed)
        .field_str("gen_checksum", &format!("{:016x}", units.gen_checksum))
        .build();
    println!("{}", Object::new().field_raw("fingerprint", &line).build());
}

/// The contract's result line: exactly these four keys, last on stdout.
fn print_result(correct: bool, units: &Units, metrics_json: &str) {
    println!(
        "{}",
        Object::new()
            .field_bool("correct", correct)
            .field_u64("attempted", units.attempted as u64)
            .field_u64("failed", units.failed as u64)
            .field_raw("metrics", metrics_json)
            .build()
    );
}

fn print_diagnostics(label: &str, iters_per_unit: usize, s: &Summary) {
    let per_s = |unit_s: f64| iters_per_unit as f64 / unit_s;
    println!(
        "# {label:<17} raw fast tail of {}: {:.4} it/s, mean {:.4}, median {:.4}, slow share {:.3}, support {}",
        s.tail_indices.len(),
        per_s(s.fast_tail),
        per_s(s.mean),
        per_s(s.median),
        s.slow_share,
        s.fast_tail_support,
    );
}

/// Runs one workload and prints its result line; `false` when no result
/// could be produced.
pub fn workload(w: &Workload, opts: &Opts) -> bool {
    md_tensor::parallel::set_max_threads(w.tensor_threads);
    if opts.traced {
        traced(w, opts)
    } else {
        untraced(w, opts)
    }
}

fn untraced(w: &Workload, opts: &Opts) -> bool {
    let mut spans = Spans::disabled();
    let form = w.traffic_form();
    let (mut setup_s, mut baseline_setup_s) = (Vec::new(), Vec::new());
    let mut session: Option<Session> = None;
    let mut reference: Option<Reference> = None;
    for pair in 0..SETUPS {
        // The previous set-ups are freed outside the timers, so each one
        // starts from scratch; the two sides take turns to go first.
        drop((session.take(), reference.take()));
        for side in [pair % 2, 1 - pair % 2] {
            let t0 = Instant::now();
            if side == 0 {
                session = Some(w.setup(opts.seed, form, &mut spans));
                setup_s.push(t0.elapsed().as_secs_f64());
            } else {
                reference = Some(Reference::setup(w, opts.seed));
                baseline_setup_s.push(t0.elapsed().as_secs_f64());
            }
        }
    }
    let (mut session, mut reference) = session.zip(reference).expect("SETUPS is positive");
    reference.unit();
    let win = session.run(
        Budget::Seconds {
            seconds: opts.seconds,
            min_units: w.rss_units,
        },
        &disabled(),
        &mut spans,
        Some(&mut reference),
    );
    let (Some(raw), Some(raw_baseline), Some(wall), Some(cpu), Some(setup)) = (
        estimate(summarize(&win.wall_s)),
        estimate(summarize(&win.ref_wall_s)),
        estimate(paired_ratio(&win.wall_s, &win.ref_wall_s)),
        estimate(paired_ratio(&win.cpu_s, &win.ref_cpu_s)),
        estimate(paired_ratio(&setup_s, &baseline_setup_s)),
    ) else {
        return false;
    };

    let mut m = Metrics::default();
    m.put("setup_s", w.baseline_setup_s * setup.ratio);
    m.put("iters_per_s", w.baseline_iters_per_s / wall.ratio);
    m.put("cpu_ms_per_iter", w.baseline_cpu_ms_per_iter * cpu.ratio);
    m.put("bytes_per_iter", win.bytes_per_iter());
    m.put(
        "peak_rss_mb",
        win.peak_rss_mb.expect("the window ran past rss_units"),
    );

    println!(
        "# {} seed {} untraced, {} s",
        w.name, opts.seed, opts.seconds
    );
    m.print(end_to_end_names());
    println!(
        "# set-ups: {setup_s:.4?} s beside the baseline's {baseline_setup_s:.4?} s, ratio {:.5}",
        setup.ratio
    );
    let describe = |p: &Paired| {
        format!(
            "{:.5} (quartiles {:.2} % apart, error {:.2} %)",
            p.ratio,
            p.spread * 100.0,
            p.error() * 100.0
        )
    };
    println!(
        "# {} pairs with the frozen baseline: time ratio {}, CPU ratio {}",
        wall.pairs,
        describe(&wall),
        describe(&cpu)
    );
    print_diagnostics("code under test", win.iters_per_unit, &raw);
    print_diagnostics("frozen baseline", win.iters_per_unit, &raw_baseline);
    let units = Units {
        attempted: win.wall_s.len(),
        failed: win.failed,
        fast_tail_support: raw.fast_tail_support,
        disturbed: wall.disturbed() || cpu.disturbed(),
        gen_checksum: win.gen_checksum,
    };
    print_fingerprint(w, opts, &units);
    print_result(
        win.failed == 0 && win.bytes_exact(),
        &units,
        &m.to_json(end_to_end_names()),
    );
    true
}

/// Per-iteration milliseconds a recorder attributed to `phase`.
fn phase_ms(rec: &Recorder, phase: Phase, iters: usize) -> f64 {
    rec.phase_stats(phase).sum as f64 / 1e6 / iters as f64
}

fn traced(w: &Workload, opts: &Opts) -> bool {
    let mut spans = Spans::enabled();
    let mut session = w.setup(opts.seed, w.traffic_form(), &mut spans);
    // A quarter untraced and a quarter traced on the same trainer, both
    // paired with the baseline so the two quarters compare whatever the
    // host did meanwhile; the rest of the time goes to the layers.
    let mut reference = Reference::setup(w, opts.seed);
    reference.unit();
    let quarter = Budget::Seconds {
        seconds: opts.seconds / 4.0,
        min_units: 0,
    };
    let plain = session.run(
        quarter,
        &disabled(),
        &mut Spans::disabled(),
        Some(&mut reference),
    );
    let rec = Arc::new(Recorder::traced());
    session.attach(&rec);
    let traced = session.run(quarter, &rec, &mut spans, Some(&mut reference));
    drop(reference);
    let (Some(ps), Some(ts), Some(without), Some(with)) = (
        estimate(summarize(&plain.wall_s)),
        estimate(summarize(&traced.wall_s)),
        estimate(paired_ratio(&plain.wall_s, &plain.ref_wall_s)),
        estimate(paired_ratio(&traced.wall_s, &traced.ref_wall_s)),
    ) else {
        return false;
    };

    let mut m = Metrics::default();
    // The recorder also saw the traced window's warm-up unit.
    let rec_iters = traced.iters() + traced.iters_per_unit;
    let gen_forward = phase_ms(&rec, Phase::GenForward, rec_iters);
    let d_feedback = phase_ms(&rec, Phase::DFeedback, rec_iters);
    let g_update = phase_ms(&rec, Phase::GUpdate, rec_iters);
    let swap = phase_ms(&rec, Phase::Swap, rec_iters);
    let comm = phase_ms(&rec, Phase::Comm, rec_iters);
    let swaps = rec.phase_stats(Phase::Swap);
    m.put("core.gen_forward_ms", gen_forward);
    m.put("core.d_feedback_ms", d_feedback);
    m.put("core.g_update_ms", g_update);
    m.put(
        "core.swap_ms",
        swaps.sum as f64 / 1e6 / swaps.count.max(1) as f64,
    );
    m.put("core.comm_ms", comm);
    // Worker phases of the threaded runtime run side by side, so their
    // time counts once per parallel track.
    let tracks = if w.threaded() { w.workers as f64 } else { 1.0 };
    let step_ms = ts.mean / traced.iters_per_unit as f64 * 1e3;
    let server_ms = gen_forward + g_update + swap;
    let attributed = server_ms + (d_feedback + comm) / tracks;
    m.put(
        "core.unattributed_share",
        (1.0 - attributed / step_ms).max(0.0),
    );
    m.put(
        "core.server_wait_share",
        (1.0 - server_ms / step_ms).max(0.0),
    );
    m.put(
        "core.bytes_vs_formula",
        traced.bytes as f64 / traced.bytes_expected as f64,
    );
    m.put(
        "telemetry.trace_overhead_pct",
        (with.ratio / without.ratio - 1.0) * 100.0,
    );
    let iters = plain.iters() as f64;
    m.put("tensor.ws_misses_per_iter", plain.ws_misses as f64 / iters);
    m.put("tensor.ws_hits_per_iter", plain.ws_hits as f64 / iters);
    m.put("tensor.pool_jobs_per_iter", plain.pool_jobs as f64 / iters);
    m.put("host.slow_share", ps.slow_share);
    m.put("host.fast_tail_support", ps.fast_tail_support as f64);
    m.put(
        "host.window_iters_per_s",
        plain.iters_per_unit as f64 / ps.mean,
    );
    m.put(
        "host.median_iters_per_s",
        plain.iters_per_unit as f64 / ps.median,
    );

    let checks = layers::run(&mut m, opts.seed);

    println!("# {} seed {} traced, {} s", w.name, opts.seed, opts.seconds);
    m.print(per_layer_names());
    print_diagnostics("untraced quarter", plain.iters_per_unit, &ps);
    print_diagnostics("traced quarter", traced.iters_per_unit, &ts);
    println!("# span                        calls     total ms      self ms");
    for (name, t) in spans.totals() {
        println!(
            "# {name:<24} {:>8} {:>12.3} {:>12.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    let path = out_dir().join(format!("{}.spans.jsonl", w.name));
    if let Err(e) = spans.write_jsonl(&path) {
        eprintln!("mdgan-benchmark: cannot write {}: {e}", path.display());
        return false;
    }
    if !checks.threaded_bit_identical {
        println!("# FAILED: run_threaded and MdGan::step generators differ");
    }
    if !checks.fid_improved {
        println!("# FAILED: training did not lower the FID");
    }
    // The layer metrics are raw fast tails, so the raw rule applies.
    let units = Units {
        attempted: plain.wall_s.len() + traced.wall_s.len(),
        failed: plain.failed + traced.failed,
        fast_tail_support: ps.fast_tail_support,
        disturbed: ps.disturbed(),
        gen_checksum: traced.gen_checksum,
    };
    print_fingerprint(w, opts, &units);
    print_result(
        units.failed == 0
            && plain.bytes_exact()
            && traced.bytes_exact()
            && checks.threaded_bit_identical
            && checks.fid_improved,
        &units,
        &m.to_json(per_layer_names()),
    );
    true
}

/// `--layers`: the crate probes without a workload around them.
pub fn layers_only(opts: &Opts) -> bool {
    let mut m = Metrics::default();
    let checks = layers::run(&mut m, opts.seed);
    m.print(per_layer_names());
    println!(
        "# run_threaded bit-identical to MdGan::step: {}; training lowered the FID: {}",
        checks.threaded_bit_identical, checks.fid_improved
    );
    checks.threaded_bit_identical && checks.fid_improved
}

/// `--seed-test`: at a tenth of each workload's full length, the same seed
/// must give the same generator and the same bytes, another seed another
/// generator and still the same bytes.
pub fn seed_test(opts: &Opts) -> bool {
    let run = |w: &Workload, seed: u64| -> Window {
        let mut spans = Spans::disabled();
        w.setup(seed, w.traffic_form(), &mut spans).run(
            Budget::Units(w.full_units / 10),
            &disabled(),
            &mut spans,
            None,
        )
    };
    let mut all_ok = true;
    println!(
        "| workload | units | seed {0} | seed {0} again | seed {1} | bytes/iter | verdict |",
        opts.seed,
        opts.seed + 1
    );
    println!("|---|---|---|---|---|---|---|");
    for w in &WORKLOADS {
        md_tensor::parallel::set_max_threads(w.tensor_threads);
        let (a, b, c) = (run(w, opts.seed), run(w, opts.seed), run(w, opts.seed + 1));
        let same = a.gen_checksum == b.gen_checksum && a.bytes == b.bytes;
        let other = c.gen_checksum != a.gen_checksum
            && c.bytes == a.bytes
            && c.bytes_iters == a.bytes_iters;
        let clean = [&a, &b, &c]
            .iter()
            .all(|r| r.failed == 0 && r.bytes_exact());
        let ok = same && other && clean;
        all_ok &= ok;
        println!(
            "| {} | {} | {:016x} | {:016x} | {:016x} | {} | {} |",
            w.name,
            a.wall_s.len(),
            a.gen_checksum,
            b.gen_checksum,
            c.gen_checksum,
            a.bytes_per_iter(),
            if ok { "ok" } else { "FAILED" }
        );
    }
    all_ok
}
