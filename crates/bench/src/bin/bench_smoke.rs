//! Fixed-size kernel and training smoke benchmark — the perf-trajectory
//! record uploaded by the `bench-smoke` CI job as `BENCH_PR10.json` (path
//! overridable with `--out` or the `BENCH_OUT` environment variable).
//!
//! Four measurements, all cheap enough for CI:
//!
//! 1. **GEMM thread scaling**: square matmul at 256/384/512 through the
//!    shared-panel packed kernel, swept over `TENSOR_THREADS` ∈ {1,2,4,8},
//!    reported as GFLOP/s per thread count. The pre-PR-5 scalar kernel
//!    (kept verbatim in this binary) anchors the 1-thread baseline ratio.
//! 2. **Implicit-GEMM convolution**: conv2d forward through the fused
//!    im2col-free path versus the materialized im2col + matmul pipeline
//!    (rebuilt here from the public building blocks), ns/iter at 1 and 4
//!    threads.
//! 3. **Zero-alloc steady state**: a standalone MNIST-class CNN GAN at
//!    batch 64 runs a few warmup iterations, then the workspace miss
//!    counter is sampled before and after a measured block — a flat
//!    `ws_misses` means the training loop's tensor buffers are all served
//!    by recycling.
//! 4. **Tracing overhead**: the same GEMM and training hot paths measured
//!    untraced versus with causal span capture on, reported as GFLOP/s
//!    and ns/iter deltas — the observability layer's price tag.
//!
//! Timing numbers are recorded, never asserted: CI fails only on
//! build/run errors (the 4-thread scaling floor is a CI-side `::warning::`,
//! not a failure), so noisy runners can't flake the job.

use md_bench::Args;
use md_telemetry::{Recorder, Verbosity};
use md_tensor::ops::conv::{conv2d_forward, conv_out_dim, im2col};
use md_tensor::ops::matmul::matmul_into;
use md_tensor::parallel::{self, scoped_max_threads};
use md_tensor::rng::Rng64;
use md_tensor::Tensor;
use mdgan_core::config::GanHyper;
use mdgan_core::standalone::StandaloneGan;
use mdgan_core::ArchSpec;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// The pre-PR-5 `matmul_into`, verbatim (blocked i-k-j scalar loop with the
/// `av == 0.0` skip, row-parallel): the baseline the packed kernel is
/// measured against on the same machine in the same process.
fn baseline_matmul_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    const BLOCK_K: usize = 64;
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    assert_eq!(out.len(), m * n);
    out.fill(0.0);
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    parallel::parallel_for_chunks(out, m, k * n, |i, row| {
        let a_row = &a[i * k..(i + 1) * k];
        let mut k0 = 0;
        while k0 < k {
            let k1 = (k0 + BLOCK_K).min(k);
            for p in k0..k1 {
                let av = a_row[p];
                if av == 0.0 {
                    continue;
                }
                let brow = &b[p * n..(p + 1) * n];
                for (o, &bv) in row.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
            k0 = k1;
        }
    });
}

/// The pre-PR-10 conv2d forward: materialize the full im2col column matrix
/// per sample, then one dense GEMM — the pipeline the implicit path fused
/// away. Kept verbatim so `conv.implicit_vs_materialized` is an in-process
/// apples-to-apples comparison.
#[allow(clippy::too_many_arguments)]
fn materialized_conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    stride: usize,
    pad: usize,
    cols: &mut Vec<f32>,
    out: &mut Vec<f32>,
) {
    let (b, c, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    let (o, kh, kw) = (weight.shape()[0], weight.shape()[2], weight.shape()[3]);
    let oh = conv_out_dim(h, kh, stride, pad);
    let ow = conv_out_dim(w, kw, stride, pad);
    let (ckk, ohw) = (c * kh * kw, oh * ow);
    cols.resize(ckk * ohw, 0.0);
    out.resize(b * o * ohw, 0.0);
    for bi in 0..b {
        let image = &input.data()[bi * c * h * w..(bi + 1) * c * h * w];
        im2col(image, c, h, w, kh, kw, stride, pad, oh, ow, cols);
        let out_sample = &mut out[bi * o * ohw..(bi + 1) * o * ohw];
        matmul_into(weight.data(), cols, out_sample, o, ckk, ohw);
        for (oc, chunk) in out_sample.chunks_mut(ohw).enumerate() {
            let bv = bias.data()[oc];
            for v in chunk {
                *v += bv;
            }
        }
    }
}

/// Best-of-`reps` wall time of `f`, in seconds.
fn time_best(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn main() -> Result<(), md_bench::BinError> {
    let args = Args::parse(&["train-warmup", "train-iters", "out"])?;
    let sizes: Vec<usize> = vec![256, 384, 512];
    let thread_counts: Vec<usize> = vec![1, 2, 4, 8];
    let train_warmup: usize = args.get("train-warmup", 3usize)?;
    let train_iters: usize = args.get("train-iters", 12usize)?;
    let out_path = if args.has("out") {
        args.get_str("out", "results/BENCH_PR10.json")
    } else {
        std::env::var("BENCH_OUT").unwrap_or_else(|_| "results/BENCH_PR10.json".to_string())
    };
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // 1. GEMM thread sweep. The scalar baseline runs once at 1 thread per
    // size; the packed kernel runs at every thread count. Best GFLOP/s
    // goes into the run record.
    let mut rng = Rng64::seed_from_u64(42);
    let mut matmul_rows = String::new();
    let mut best_gflops = 0.0f64;
    let mut sweep: Vec<(usize, Vec<(usize, f64)>)> = Vec::new(); // (n, [(threads, gflops)])
    println!("== GEMM thread scaling (packed shared-panel kernel, nproc={nproc}) ==");
    for (i, &n) in sizes.iter().enumerate() {
        let a = Tensor::randn(&[n, n], &mut rng);
        let b = Tensor::randn(&[n, n], &mut rng);
        let mut out = vec![0.0f32; n * n];
        let flops = 2.0 * (n as f64).powi(3);
        // Scale repetitions so each size costs roughly the same wall time.
        let reps = ((5e8 / flops) as usize).clamp(3, 20);
        let base_s = {
            let _g = scoped_max_threads(1);
            baseline_matmul_into(a.data(), b.data(), &mut out, n, n, n);
            time_best(reps, || {
                baseline_matmul_into(a.data(), b.data(), &mut out, n, n, n);
                std::hint::black_box(&out);
            })
        };
        let mut by_threads = Vec::new();
        for &t in &thread_counts {
            let _g = scoped_max_threads(t);
            matmul_into(a.data(), b.data(), &mut out, n, n, n); // warm pool + shelf
            let s = time_best(reps, || {
                matmul_into(a.data(), b.data(), &mut out, n, n, n);
                std::hint::black_box(&out);
            });
            let gflops = flops / s / 1e9;
            best_gflops = best_gflops.max(gflops);
            by_threads.push((t, gflops));
        }
        let packed_1t = by_threads[0].1;
        println!(
            "matmul {n:>3}^2: scalar-1t {:6.2} GFLOP/s  packed {}  (1t speedup {:.2}x)",
            flops / base_s / 1e9,
            by_threads
                .iter()
                .map(|(t, g)| format!("{t}t={g:.2}"))
                .collect::<Vec<_>>()
                .join(" "),
            packed_1t / (flops / base_s / 1e9),
        );
        if i > 0 {
            matmul_rows.push_str(",\n");
        }
        let threads_json = by_threads
            .iter()
            .map(|(t, g)| format!("{{\"threads\": {t}, \"gflops\": {g:.3}}}"))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = write!(
            matmul_rows,
            "    {{\"n\": {n}, \"baseline_ms\": {:.4}, \"baseline_gflops\": {:.3}, \"packed\": [{threads_json}], \"speedup_1t\": {:.3}}}",
            base_s * 1e3,
            flops / base_s / 1e9,
            packed_1t / (flops / base_s / 1e9),
        );
        sweep.push((n, by_threads));
    }
    // The CI soft floor: packed GFLOP/s at 4 threads vs 1 thread at n=512.
    let scaling_512 = sweep
        .iter()
        .find(|(n, _)| *n == 512)
        .map(|(_, bt)| {
            let g1 = bt.iter().find(|(t, _)| *t == 1).map(|(_, g)| *g).unwrap();
            let g4 = bt.iter().find(|(t, _)| *t == 4).map(|(_, g)| *g).unwrap();
            g4 / g1
        })
        .unwrap_or(0.0);
    println!("n=512 scaling: 4t/1t = {scaling_512:.2}x (soft floor 2.5x, CI warns below)");

    // 2. Implicit vs materialized convolution, 1 and 4 threads.
    println!("\n== conv2d forward: implicit GEMM vs materialized im2col ==");
    let (cb, cc, chw, co, ck) = (8usize, 16usize, 32usize, 32usize, 3usize);
    let cx = Tensor::randn(&[cb, cc, chw, chw], &mut rng);
    let cw = Tensor::randn(&[co, cc, ck, ck], &mut rng);
    let cbias = Tensor::randn(&[co], &mut rng);
    let mut cols_buf = Vec::new();
    let mut out_buf = Vec::new();
    let mut conv_rows = String::new();
    for (i, &t) in [1usize, 4].iter().enumerate() {
        let _g = scoped_max_threads(t);
        let _ = conv2d_forward(&cx, &cw, &cbias, 1, 1); // warm
        materialized_conv2d(&cx, &cw, &cbias, 1, 1, &mut cols_buf, &mut out_buf);
        let implicit_s = time_best(5, || {
            std::hint::black_box(conv2d_forward(&cx, &cw, &cbias, 1, 1));
        });
        let materialized_s = time_best(5, || {
            materialized_conv2d(&cx, &cw, &cbias, 1, 1, &mut cols_buf, &mut out_buf);
            std::hint::black_box(&out_buf);
        });
        println!(
            "conv {cb}x{cc}x{chw}x{chw} k{ck} @{t}t: implicit {:.0} ns/iter, materialized {:.0} ns/iter ({:.2}x)",
            implicit_s * 1e9,
            materialized_s * 1e9,
            materialized_s / implicit_s,
        );
        if i > 0 {
            conv_rows.push_str(",\n");
        }
        let _ = write!(
            conv_rows,
            "    {{\"threads\": {t}, \"implicit_ns_per_iter\": {:.0}, \"materialized_ns_per_iter\": {:.0}, \"ratio\": {:.3}}}",
            implicit_s * 1e9,
            materialized_s * 1e9,
            materialized_s / implicit_s,
        );
    }

    // 3. Steady-state allocation check.
    println!("\n== steady-state allocation check (CNN GAN, batch 64) ==");
    let spec = ArchSpec::cnn_mnist_scaled(16);
    let data = md_data::synthetic::mnist_like(spec.img, 512, 9, 0.08);
    let traced_data = data.clone();
    let hyper = GanHyper {
        batch: 64,
        ..GanHyper::default()
    };
    let mut grng = Rng64::seed_from_u64(7);
    let mut gan = StandaloneGan::new(&spec, data, hyper, &mut grng);
    for _ in 0..train_warmup {
        gan.step();
    }
    let warm = md_tensor::workspace::stats();
    let t0 = Instant::now();
    for _ in 0..train_iters {
        gan.step();
    }
    let train_s = t0.elapsed().as_secs_f64();
    let end = md_tensor::workspace::stats();
    let miss_delta = end.misses - warm.misses;
    let hit_delta = end.hits - warm.hits;
    println!(
        "{train_iters} iters in {:.2}s ({:.1} ms/iter): ws_misses {} -> {} (delta {miss_delta}), ws_hits +{hit_delta}",
        train_s,
        train_s * 1e3 / train_iters.max(1) as f64,
        warm.misses,
        end.misses,
    );

    // 4. Tracing overhead: the same hot paths with causal span capture on —
    // a Verbosity::Trace recorder attached to the trainer and the
    // md-tensor pool trace hook installed. The deltas quantify what the
    // observability layer costs when it is actually enabled (its disabled
    // cost is asserted to be a single branch by the telemetry bench).
    println!("\n== tracing overhead (span capture + pool hook enabled) ==");
    let traced_rec = Arc::new(Recorder::with_verbosity(Verbosity::Trace));
    let n = 384usize;
    let a = Tensor::randn(&[n, n], &mut rng);
    let b = Tensor::randn(&[n, n], &mut rng);
    let mut out = vec![0.0f32; n * n];
    let flops = 2.0 * (n as f64).powi(3);
    matmul_into(a.data(), b.data(), &mut out, n, n, n);
    let gemm_plain_s = time_best(8, || {
        matmul_into(a.data(), b.data(), &mut out, n, n, n);
        std::hint::black_box(&out);
    });
    md_bench::install_pool_trace_hook(&traced_rec);
    let gemm_traced_s = time_best(8, || {
        matmul_into(a.data(), b.data(), &mut out, n, n, n);
        std::hint::black_box(&out);
    });
    let mut grng2 = Rng64::seed_from_u64(7);
    let mut traced_gan = StandaloneGan::new(&spec, traced_data, hyper, &mut grng2)
        .with_telemetry(Arc::clone(&traced_rec));
    for _ in 0..train_warmup {
        traced_gan.step();
    }
    let t0 = Instant::now();
    for _ in 0..train_iters {
        traced_gan.step();
    }
    let traced_train_s = t0.elapsed().as_secs_f64();
    md_tensor::pool::set_trace_hook(None);
    let spans_captured = traced_rec.trace_spans().len();
    let untraced_ns_per_iter = train_s * 1e9 / train_iters.max(1) as f64;
    let traced_ns_per_iter = traced_train_s * 1e9 / train_iters.max(1) as f64;
    let iter_overhead_pct = 100.0 * (traced_ns_per_iter - untraced_ns_per_iter)
        / untraced_ns_per_iter.max(f64::MIN_POSITIVE);
    let gemm_plain_gflops = flops / gemm_plain_s / 1e9;
    let gemm_traced_gflops = flops / gemm_traced_s / 1e9;
    let gemm_delta_pct =
        100.0 * (gemm_plain_gflops - gemm_traced_gflops) / gemm_plain_gflops.max(f64::MIN_POSITIVE);
    println!(
        "matmul {n}^2: untraced {gemm_plain_gflops:.2} GFLOP/s, traced {gemm_traced_gflops:.2} GFLOP/s (delta {gemm_delta_pct:.2}%)"
    );
    println!(
        "train: untraced {:.0} ns/iter, traced {:.0} ns/iter (overhead {iter_overhead_pct:.2}%), {spans_captured} spans captured",
        untraced_ns_per_iter, traced_ns_per_iter,
    );

    let json = format!(
        "{{\n  \"pr\": 10,\n  \"tensor_threads_default\": {},\n  \"nproc\": {nproc},\n  \"thread_sweep\": [1, 2, 4, 8],\n  \"matmul\": [\n{matmul_rows}\n  ],\n  \"gemm_scaling\": {{\"n\": 512, \"gflops_4t_over_1t\": {scaling_512:.3}, \"soft_floor\": 2.5}},\n  \"conv\": [\n{conv_rows}\n  ],\n  \"training\": {{\"arch\": \"cnn\", \"img\": {}, \"batch\": 64, \"warmup_iters\": {train_warmup}, \"measured_iters\": {train_iters}, \"sec_per_iter\": {:.5}, \"ws_misses_after_warmup\": {}, \"ws_misses_end\": {}, \"ws_miss_delta\": {miss_delta}, \"ws_hit_delta\": {hit_delta}}},\n  \"tracing\": {{\"gemm_n\": {n}, \"gemm_untraced_gflops\": {gemm_plain_gflops:.3}, \"gemm_traced_gflops\": {gemm_traced_gflops:.3}, \"gemm_delta_pct\": {gemm_delta_pct:.3}, \"train_untraced_ns_per_iter\": {untraced_ns_per_iter:.0}, \"train_traced_ns_per_iter\": {traced_ns_per_iter:.0}, \"train_overhead_pct\": {iter_overhead_pct:.3}, \"spans_captured\": {spans_captured}}}\n}}\n",
        parallel::max_threads(),
        spec.img,
        train_s / train_iters.max(1) as f64,
        warm.misses,
        end.misses,
    );
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output dir");
        }
    }
    std::fs::write(&out_path, json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    println!("wrote {out_path}");

    // Telemetry run record with the pool + workspace counter lines.
    let rec = md_bench::recorder_from_env(false);
    md_bench::emit_run_record(
        md_telemetry::RunRecord::new("bench_smoke")
            .with_metric("ws_miss_delta", miss_delta as f64)
            .with_metric("gemm_best_gflops", best_gflops)
            .with_metric("gemm_scaling_4t_over_1t", scaling_512)
            .with_metric("train_sec_per_iter", train_s / train_iters.max(1) as f64),
        &rec,
    )?;
    md_bench::print_pool_stats();
    Ok(())
}
