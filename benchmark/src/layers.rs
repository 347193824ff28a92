//! The `--layers` pass: every crate probed through its public functions.
//!
//! Each timing is the fast tail of at least [`MIN_REPS`] repetitions after
//! warm-up. Shapes are the ones the four workloads issue: the paper MLP at
//! b=10 and b=100, and the CIFAR CNN at 32² and b=10.

use crate::estimator::{fast_tail, paired_ratio};
use crate::metrics::Metrics;
use crate::workload::{SHARD_SIZE, WORKLOADS};
use md_data::{BatchSampler, DataSpec, Dataset};
use md_nn::init::Init;
use md_nn::layers::{BatchNorm, Conv2d, ConvTranspose2d, Dense, MinibatchDiscrimination};
use md_nn::optim::Adam;
use md_nn::Layer;
use md_simnet::{FaultPlan, FaultState, Router, TrafficStats};
use md_telemetry::{Phase, Recorder, TraceCtx};
use md_tensor::ops::conv::{
    conv2d_backward, conv2d_forward, conv_transpose2d_backward, conv_transpose2d_forward,
};
use md_tensor::parallel::scoped_max_threads;
use md_tensor::rng::Rng64;
use md_tensor::Tensor;
use mdgan_core::checkpoint::Checkpoint;
use mdgan_core::compression::Codec;
use mdgan_core::config::{FlGanConfig, RobustnessConfig};
use mdgan_core::flgan::FlGan;
use mdgan_core::mdgan::asynchronous::{AsyncConfig, AsyncMdGan};
use mdgan_core::mdgan::threaded::run_threaded;
use mdgan_core::mdgan::worker::MdWorker;
use mdgan_core::standalone::StandaloneGan;
use mdgan_core::{ArchSpec, Evaluator, GanHyper, MdGan, MdGanConfig};
use std::hint::black_box;
use std::time::Instant;

/// Fewest repetitions a timing rests on.
pub const MIN_REPS: usize = 30;
/// Seconds a probe keeps repeating once it has [`MIN_REPS`].
const SLICE_S: f64 = 0.03;

/// Fast-tail seconds of one call of `f`.
fn time<T>(f: impl FnMut() -> T) -> f64 {
    time_reps(MIN_REPS, f)
}

fn time_reps<T>(min_reps: usize, mut f: impl FnMut() -> T) -> f64 {
    for _ in 0..2 {
        black_box(f());
    }
    let start = Instant::now();
    let mut reps = Vec::with_capacity(4 * min_reps);
    while reps.len() < min_reps || (start.elapsed().as_secs_f64() < SLICE_S && reps.len() < 4096) {
        let t0 = Instant::now();
        black_box(f());
        reps.push(t0.elapsed().as_secs_f64());
    }
    fast_tail(&reps).expect("probe repetitions take positive finite time")
}

/// Fast-tail seconds of one call of `f`, for calls too short to time
/// alone: each repetition times `inner` calls.
fn time_batched<T>(inner: usize, mut f: impl FnMut() -> T) -> f64 {
    time(|| {
        for _ in 0..inner {
            black_box(f());
        }
    }) / inner as f64
}

fn gflops(m: usize, k: usize, n: usize, seconds: f64) -> f64 {
    2.0 * (m * k * n) as f64 / seconds / 1e9
}

/// Peak fused-multiply-add rate of one core, from independent register
/// accumulators wide enough to cover the FMA latency.
fn fma_peak_gflops() -> f64 {
    const LANES: usize = if cfg!(target_feature = "avx512f") {
        16
    } else {
        8
    };
    const ACCS: usize = 10;
    const ROUNDS: usize = 200_000;
    let a = black_box([1.000_001f32; LANES]);
    let b = black_box([1e-9f32; LANES]);
    let secs = time(|| {
        let mut acc = [[1.0f32; LANES]; ACCS];
        for _ in 0..ROUNDS {
            for lanes in acc.iter_mut() {
                for (x, (&m, &c)) in lanes.iter_mut().zip(a.iter().zip(&b)) {
                    *x = x.mul_add(m, c);
                }
            }
        }
        acc
    });
    2.0 * (ROUNDS * ACCS * LANES) as f64 / secs / 1e9
}

/// Copy bandwidth over buffers four times the L2, read plus written.
fn stream_gbps() -> f64 {
    let n = 4 << 20;
    let src = vec![1.0f32; n];
    let mut dst = vec![0.0f32; n];
    let secs = time(|| {
        dst.copy_from_slice(black_box(&src));
        black_box(dst[n / 2])
    });
    2.0 * (n * 4) as f64 / secs / 1e9
}

fn tensor_gemm(m: &mut Metrics, rng: &mut Rng64) {
    // The MLP discriminator's first layer at b=10: 10×784 · 784×512, and
    // the two layouts its backward pass issues.
    let (b, k, n) = (10, 784, 512);
    let x = Tensor::randn(&[b, k], rng);
    let w = Tensor::randn(&[k, n], rng);
    let gy = Tensor::randn(&[b, n], rng);
    m.put(
        "tensor.gemm_nn_b10_gflops",
        gflops(b, k, n, time(|| x.matmul(&w))),
    );
    m.put(
        "tensor.gemm_nt_b10_gflops",
        gflops(b, n, k, time(|| gy.matmul_nt(&w))),
    );
    m.put(
        "tensor.gemm_tn_b10_gflops",
        gflops(k, b, n, time(|| x.matmul_tn(&gy))),
    );

    let x100 = Tensor::randn(&[100, k], rng);
    let one = {
        let _g = scoped_max_threads(1);
        time(|| x100.matmul(&w))
    };
    let two = {
        let _g = scoped_max_threads(2);
        time(|| x100.matmul(&w))
    };
    m.put("tensor.gemm_nn_b100_gflops", gflops(100, k, n, one));
    m.put("tensor.gemm_nn_b100_mt_speedup", one / two);

    let a = Tensor::randn(&[512, 512], rng);
    let c = Tensor::randn(&[512, 512], rng);
    let sq = {
        let _g = scoped_max_threads(1);
        gflops(512, 512, 512, time(|| a.matmul(&c)))
    };
    let peak = fma_peak_gflops();
    m.put("tensor.gemm_sq512_gflops", sq);
    m.put("tensor.gemm_sq512_pct_of_peak", 100.0 * sq / peak);
    m.put("host.fma_peak_gflops", peak);
    m.put("host.stream_gbps", stream_gbps());
}

/// The conv shapes of `arch.rs` for the CIFAR CNN: the discriminator halves
/// 32² to 4² through 3×3 stride-2 convs doubling `width`, the generator
/// doubles 4² to 32² through 4×4 stride-2 transposed convs halving from
/// `width << (stages-1)`.
struct ConvShapes {
    /// `(in_channels, out_channels, input side)` of the first and last D conv.
    d_first: (usize, usize, usize),
    d_last: (usize, usize, usize),
    g_first: (usize, usize, usize),
    g_last: (usize, usize, usize),
}

fn conv_shapes(spec: &ArchSpec) -> ConvShapes {
    let stages = (spec.img / 4).trailing_zeros() as usize;
    let w = spec.width;
    let f0 = w << (stages - 1);
    ConvShapes {
        d_first: (spec.channels, w, spec.img),
        d_last: (w << (stages - 2), w << (stages - 1), 8),
        g_first: (f0, f0 / 2, 4),
        g_last: (f0 >> (stages - 1), spec.channels, spec.img / 2),
    }
}

const B10: usize = 10;

fn tensor_conv(m: &mut Metrics, rng: &mut Rng64) {
    let shapes = conv_shapes(&ArchSpec::cnn_cifar_scaled(32));
    for (name, (cin, cout, side)) in [("d_first", shapes.d_first), ("d_last", shapes.d_last)] {
        let x = Tensor::randn(&[B10, cin, side, side], rng);
        let w = Tensor::randn(&[cout, cin, 3, 3], rng);
        let bias = Tensor::zeros(&[cout]);
        let y = conv2d_forward(&x, &w, &bias, 2, 1);
        let gy = Tensor::randn(y.shape(), rng);
        let fwd = time(|| conv2d_forward(&x, &w, &bias, 2, 1));
        let bwd = time(|| conv2d_backward(&x, &w, &gy, 2, 1));
        m.put(format!("tensor.conv_{name}_fwd_ms"), fwd * 1e3);
        m.put(format!("tensor.conv_{name}_bwd_ms"), bwd * 1e3);
    }
    for (name, (cin, cout, side)) in [("g_first", shapes.g_first), ("g_last", shapes.g_last)] {
        let x = Tensor::randn(&[B10, cin, side, side], rng);
        let w = Tensor::randn(&[cin, cout, 4, 4], rng);
        let bias = Tensor::zeros(&[cout]);
        let y = conv_transpose2d_forward(&x, &w, &bias, 2, 1);
        let gy = Tensor::randn(y.shape(), rng);
        let fwd = time(|| conv_transpose2d_forward(&x, &w, &bias, 2, 1));
        let bwd = time(|| conv_transpose2d_backward(&x, &w, &gy, 2, 1));
        m.put(format!("tensor.convt_{name}_fwd_ms"), fwd * 1e3);
        m.put(format!("tensor.convt_{name}_bwd_ms"), bwd * 1e3);
    }
}

/// Forward and backward fast tails of one layer on input `x`, as
/// `nn.<name>_fwd_ms` and `nn.<name>_bwd_ms`.
fn layer_fwd_bwd(m: &mut Metrics, name: &str, layer: &mut dyn Layer, x: &Tensor, rng: &mut Rng64) {
    let y = layer.forward(x, true);
    let gy = Tensor::randn(y.shape(), rng);
    m.put(
        format!("nn.{name}_fwd_ms"),
        time(|| layer.forward(x, true)) * 1e3,
    );
    m.put(
        format!("nn.{name}_bwd_ms"),
        time(|| layer.backward(&gy)) * 1e3,
    );
}

fn nn_layers(m: &mut Metrics, rng: &mut Rng64) {
    let mut dense = Dense::new(784, 512, Init::XavierUniform, rng);
    let x = Tensor::randn(&[B10, 784], rng);
    layer_fwd_bwd(m, "dense", &mut dense, &x, rng);

    // The middle stage of each CNN: 16→32 channels at 16², 32→16 at 8².
    let mut conv = Conv2d::new(16, 32, 3, 2, 1, Init::Dcgan, rng);
    let x = Tensor::randn(&[B10, 16, 16, 16], rng);
    layer_fwd_bwd(m, "conv", &mut conv, &x, rng);
    let mut convt = ConvTranspose2d::new(32, 16, 4, 2, 1, Init::Dcgan, rng);
    let x = Tensor::randn(&[B10, 32, 8, 8], rng);
    layer_fwd_bwd(m, "convt", &mut convt, &x, rng);
    layer_fwd_bwd(m, "batchnorm", &mut BatchNorm::new(32), &x, rng);
    let mut mb = MinibatchDiscrimination::new(64 * 16, 8, 4, rng);
    let x = Tensor::randn(&[B10, 64 * 16], rng);
    layer_fwd_bwd(m, "minibatch", &mut mb, &x, rng);

    for (name, spec) in [
        ("mlp", ArchSpec::paper_mnist_mlp()),
        ("cnn", ArchSpec::cnn_cifar_scaled(32)),
    ] {
        let mut d = spec.build_discriminator(rng);
        let mut g = spec.build_generator(rng);
        let z = g.sample_z(B10, rng);
        let labels = g.sample_labels(B10, rng);
        let imgs = g.generate(&z, &labels, true);
        let glogits = Tensor::randn(d.forward(&imgs, true).shape(), rng);
        let gimgs = Tensor::randn(imgs.shape(), rng);
        let d_ms = time(|| {
            d.forward(&imgs, true);
            d.backward(&glogits)
        });
        let g_ms = time(|| {
            g.generate(&z, &labels, true);
            g.backward(&gimgs)
        });
        m.put(format!("nn.{name}_d_fwd_bwd_ms"), d_ms * 1e3);
        m.put(format!("nn.{name}_g_fwd_bwd_ms"), g_ms * 1e3);
        if name == "mlp" {
            let mut adam = Adam::new(GanHyper::default().adam_d);
            let per_step = time(|| adam.step(&mut d.net));
            m.put(
                "nn.adam_ns_per_param",
                per_step * 1e9 / d.num_params() as f64,
            );
        }
    }
}

/// Two workers of the paper MLP at b=10: the smallest cluster every
/// runtime accepts, so a repetition costs tens of milliseconds.
fn small_mlp(seed: u64) -> (ArchSpec, Vec<Dataset>, MdGanConfig) {
    let spec = ArchSpec::paper_mnist_mlp();
    let data = DataSpec::mnist(28, 2 * SHARD_SIZE, seed).generate();
    let shards = data.shard_iid(2, &mut Rng64::seed_from_u64(seed));
    let cfg = MdGanConfig {
        workers: 2,
        seed,
        ..MdGanConfig::default()
    };
    (spec, shards, cfg)
}

fn data_and_setup(m: &mut Metrics, seed: u64) {
    let spec = DataSpec::mnist(28, 2 * SHARD_SIZE, seed);
    m.put("data.generate_ms", time(|| spec.generate()) * 1e3);
    let data = spec.generate();
    let mut rng = Rng64::seed_from_u64(seed);
    m.put(
        "data.shard_iid_ms",
        time(|| data.shard_iid(2, &mut rng)) * 1e3,
    );
    let mut sampler = BatchSampler::new(&mut rng);
    m.put(
        "data.sample_batch_us",
        time_batched(16, || sampler.sample(&data, B10)) * 1e6,
    );
    let (arch, shards, cfg) = small_mlp(seed);
    m.put(
        "core.mdgan_new_ms",
        time(|| MdGan::new(&arch, shards.clone(), cfg.clone())) * 1e3,
    );
}

fn simnet(m: &mut Metrics, rng: &mut Rng64) {
    let batch = Tensor::randn(&[B10, 1, 28, 28], rng);
    let bytes = (batch.len() * 4) as u64;
    let mut router: Router<Tensor> = Router::new(1);
    let (server, worker) = (router.endpoint(0), router.endpoint(1));
    m.put(
        "simnet.send_recv_us",
        time_batched(16, || {
            server
                .send(1, batch.clone(), bytes)
                .expect("the worker endpoint is alive");
            worker.recv().msg
        }) * 1e6,
    );
    let stats = TrafficStats::new(2);
    m.put(
        "simnet.stats_record_ns",
        time_batched(4096, || stats.record(0, 1, bytes)) * 1e9,
    );
    let faults = FaultState::new(FaultPlan::none(), 2);
    m.put(
        "simnet.transmit_ns",
        time_batched(4096, || {
            faults.transmit(0, 1, 0, bytes, 0, &stats, None, TraceCtx::NONE, |_, _| {})
        }) * 1e9,
    );
    let disabled = Recorder::disabled();
    m.put(
        "telemetry.disabled_probe_ns",
        time_batched(4096, || drop(disabled.span(Phase::DFeedback))) * 1e9,
    );
}

/// `run_threaded` against `MdGan::step` on the threaded workload's own
/// configuration, the two taking turns so that both see the same host;
/// `false` when the two generators differ in any bit.
fn threaded_speedup(m: &mut Metrics, seed: u64) -> bool {
    const ITERS: usize = 8;
    const PAIRS: usize = 5;
    let w = WORKLOADS
        .into_iter()
        .find(|w| w.threaded())
        .expect("one workload is threaded");
    let _g = scoped_max_threads(w.tensor_threads);
    let spec = w.spec();
    let cfg = w.config(seed);
    let data = w.data_spec(seed).generate();
    let shards = data.shard_iid(w.workers, &mut Rng64::seed_from_u64(seed));
    let (mut seq_s, mut thr_s) = (Vec::new(), Vec::new());
    let mut identical = true;
    // The first pair warms both paths and is not timed.
    for pair in 0..=PAIRS {
        let t0 = Instant::now();
        let mut md = MdGan::new(&spec, shards.clone(), cfg.clone());
        for _ in 0..ITERS {
            md.step();
        }
        let seq = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let threaded = run_threaded(&spec, shards.clone(), cfg.clone(), None, ITERS, 0);
        let thr = t0.elapsed().as_secs_f64();
        identical &= md
            .gen_params()
            .iter()
            .map(|p| p.to_bits())
            .eq(threaded.gen_params.iter().map(|p| p.to_bits()));
        if pair > 0 {
            seq_s.push(seq);
            thr_s.push(thr);
        }
    }
    m.put(
        "core.threaded_speedup",
        paired_ratio(&seq_s, &thr_s)
            .expect("runs take positive finite time")
            .ratio,
    );
    identical
}

fn core_runtimes(m: &mut Metrics, seed: u64, rng: &mut Rng64) {
    let (spec, shards, cfg) = small_mlp(seed);
    let hyper = cfg.hyper;

    let mut worker = MdWorker::new(1, &spec, shards[0].clone(), hyper, rng);
    let mut g = spec.build_generator(rng);
    let z = g.sample_z(B10, rng);
    let labels = g.sample_labels(B10, rng);
    let xg = g.generate(&z, &labels, true);
    let xd = g.generate(&g.sample_z(B10, rng), &labels, true);
    let process_ms = time(|| worker.process(&xd, &labels, &xg, &labels)) * 1e3;
    m.put("core.worker_process_ms", process_ms);
    m.put(
        "core.codec_roundtrip_us",
        time_batched(16, || Codec::None.compress(&xg).decompress()) * 1e6,
    );

    let mut fl = FlGan::new(
        &spec,
        shards.clone(),
        FlGanConfig {
            workers: 2,
            hyper,
            seed,
            ..FlGanConfig::default()
        },
    );
    let fl_ms = time(|| fl.step()) * 1e3;
    m.put("core.flgan_iter_ms", fl_ms);
    // The paper's Table II factor: an MD-GAN worker trains D only, an
    // FL-GAN worker trains D and G.
    m.put("core.worker_compute_ratio", process_ms / (fl_ms / 2.0));
    let mut alone = StandaloneGan::new(&spec, shards[0].clone(), hyper, rng);
    m.put("core.standalone_iter_ms", time(|| alone.step()) * 1e3);

    let mut asynchronous =
        AsyncMdGan::new(&spec, shards.clone(), cfg.clone(), AsyncConfig::default());
    m.put(
        "core.async_update_ms",
        time(|| asynchronous.step_event()) * 1e3,
    );
    let robust_cfg = MdGanConfig {
        robust: RobustnessConfig {
            enabled: true,
            ..RobustnessConfig::default()
        },
        ..cfg.clone()
    };
    let mut robust = MdGan::new(&spec, shards.clone(), robust_cfg);
    m.put("core.robust_step_ms", time(|| robust.step()) * 1e3);

    let mut md = MdGan::new(&spec, shards, cfg);
    md.step();
    let ck = md.checkpoint();
    // 24 MB of parameters and Adam moments: ten repetitions, not thirty.
    m.put(
        "core.checkpoint_encode_ms",
        time_reps(MIN_REPS / 3, || ck.to_bytes()) * 1e3,
    );
    let blob = ck.to_bytes();
    m.put(
        "core.checkpoint_decode_ms",
        time_reps(MIN_REPS / 3, || {
            Checkpoint::from_bytes(&blob).expect("a fresh checkpoint decodes")
        }) * 1e3,
    );
}

/// Scores the evaluation path and a short fixed training run; `false` when
/// 120 iterations did not lower the FID.
fn metrics_crate(m: &mut Metrics, seed: u64) -> bool {
    const TRAIN_ITERS: usize = 120;
    let (spec, shards, cfg) = small_mlp(seed);
    let test = DataSpec::mnist(28, 500, seed ^ 0x7E57).generate();
    let t0 = Instant::now();
    let mut eval = Evaluator::new(&shards[0], &test, 500, seed);
    m.put("metrics.evaluator_setup_s", t0.elapsed().as_secs_f64());
    let mut md = MdGan::new(&spec, shards, cfg);
    let fid_start = eval.evaluate(md.generator_mut()).fid;
    m.put(
        "metrics.evaluate_ms",
        time_reps(MIN_REPS / 3, || eval.evaluate(md.generator_mut())) * 1e3,
    );
    let mut rng = Rng64::seed_from_u64(seed);
    let real = Tensor::randn(&[500, 32], &mut rng);
    let fake = Tensor::randn(&[500, 32], &mut rng);
    m.put(
        "metrics.fid_ms",
        time(|| md_metrics::fid(&real, &fake)) * 1e3,
    );
    for _ in 0..TRAIN_ITERS {
        md.step();
    }
    let fid_end = eval.evaluate(md.generator_mut()).fid;
    m.put("metrics.fid_end", fid_end);
    fid_end < fid_start
}

/// What the layer pass checked besides timing.
pub struct LayerChecks {
    /// Sequential and threaded generators agree bit for bit.
    pub threaded_bit_identical: bool,
    /// Training lowered the FID.
    pub fid_improved: bool,
}

/// Runs every probe. All of them run on every call, whatever the workload
/// around them, so any two runs compare metric for metric.
pub fn run(m: &mut Metrics, seed: u64) -> LayerChecks {
    let mut rng = Rng64::seed_from_u64(seed ^ 0x1A7E5);
    // These two set their own thread caps; a cap is a process-wide lock,
    // so they run before the single-threaded rest takes it.
    tensor_gemm(m, &mut rng);
    let threaded_bit_identical = threaded_speedup(m, seed);
    let _one = scoped_max_threads(1);
    tensor_conv(m, &mut rng);
    nn_layers(m, &mut rng);
    data_and_setup(m, seed);
    simnet(m, &mut rng);
    core_runtimes(m, seed, &mut rng);
    let fid_improved = metrics_crate(m, seed);
    LayerChecks {
        threaded_bit_identical,
        fid_improved,
    }
}
