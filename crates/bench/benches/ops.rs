//! Micro-benchmarks of the tensor kernels every training step is built on:
//! matmul, conv2d forward/backward, conv-transpose2d, and the minibatch-
//! discrimination layer.

use criterion::{criterion_group, BenchmarkId, Criterion};
use md_nn::init::Init;
use md_nn::layer::Layer;
use md_nn::layers::{Conv2d, MinibatchDiscrimination};
use md_tensor::ops::conv::{
    conv2d_backward, conv2d_backward_into, conv2d_forward, conv_transpose2d_backward_into,
    conv_transpose2d_forward,
};
use md_tensor::ops::Need;
use md_tensor::rng::Rng64;
use md_tensor::Tensor;
use std::time::Duration;

fn bench_matmul(c: &mut Criterion) {
    let mut g = c.benchmark_group("matmul");
    g.sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    let mut rng = Rng64::seed_from_u64(1);
    for &n in &[32usize, 64, 128, 256, 384, 512] {
        let a = Tensor::randn(&[n, n], &mut rng);
        let b = Tensor::randn(&[n, n], &mut rng);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| std::hint::black_box(a.matmul(&b)));
        });
    }
    g.finish();
}

fn bench_matmul_variants(c: &mut Criterion) {
    // The transposed entry points the backward passes run on: NT (dx) and
    // TN (dW) must track the NN kernel, since all three share the packed
    // micro-kernel and differ only in packing.
    let mut g = c.benchmark_group("matmul_variants_256");
    g.sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    let mut rng = Rng64::seed_from_u64(7);
    let a = Tensor::randn(&[256, 256], &mut rng);
    let b = Tensor::randn(&[256, 256], &mut rng);
    g.bench_function("nn", |bench| {
        bench.iter(|| std::hint::black_box(a.matmul(&b)));
    });
    g.bench_function("nt", |bench| {
        bench.iter(|| std::hint::black_box(a.matmul_nt(&b)));
    });
    g.bench_function("tn", |bench| {
        bench.iter(|| std::hint::black_box(a.matmul_tn(&b)));
    });
    g.finish();

    // The crossover sweep behind `SKINNY_M` / `SKINNY_NT_M` / `SKINNY_K`:
    // the MLP discriminator's first layer (784 -> 512) and the two layouts
    // its backward pass issues, over the row count — one b = 10 batch up to
    // a few of them stacked. The no-pack kernels take the small counts, the
    // packed kernel the rest. EXPERIMENTS.md has this table run once as
    // shipped and once with the bounds at 0.
    let mut g = c.benchmark_group("matmul_paper_784x512");
    g.sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(200));
    let w = Tensor::randn(&[784, 512], &mut rng);
    for &m in &[1usize, 2, 4, 8, 10, 12, 16, 20, 24, 30, 32, 36, 40, 48] {
        let x = Tensor::randn(&[m, 784], &mut rng);
        let gy = Tensor::randn(&[m, 512], &mut rng);
        g.bench_with_input(BenchmarkId::new("nn", m), &m, |bench, _| {
            bench.iter(|| std::hint::black_box(x.matmul(&w)));
        });
        g.bench_with_input(BenchmarkId::new("nt", m), &m, |bench, _| {
            bench.iter(|| std::hint::black_box(gy.matmul_nt(&w)));
        });
        g.bench_with_input(BenchmarkId::new("tn", m), &m, |bench, _| {
            bench.iter(|| std::hint::black_box(x.matmul_tn(&gy)));
        });
    }
    g.finish();
}

fn bench_matmul_threads(c: &mut Criterion) {
    // The same above-threshold product under explicit thread counts: the
    // per-call delta is pure pool overhead (1 CPU) or speedup (many CPUs),
    // never thread-spawn cost — the workers are created once.
    let mut g = c.benchmark_group("matmul_256_threads");
    g.sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    let mut rng = Rng64::seed_from_u64(6);
    let a = Tensor::randn(&[256, 256], &mut rng);
    let b = Tensor::randn(&[256, 256], &mut rng);
    for &t in &[1usize, 2, 4] {
        let _guard = md_tensor::parallel::scoped_max_threads(t);
        g.bench_with_input(BenchmarkId::from_parameter(t), &t, |bench, _| {
            bench.iter(|| std::hint::black_box(a.matmul(&b)));
        });
    }
    g.finish();
}

/// `conv2d_backward_into` / `conv_transpose2d_backward_into`.
type BackwardInto = fn(
    &Tensor,
    &Tensor,
    &Tensor,
    usize,
    usize,
    Need,
    bool,
    &mut Tensor,
    &mut Tensor,
) -> Option<Tensor>;

fn bench_conv(c: &mut Criterion) {
    let mut g = c.benchmark_group("conv2d");
    g.sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    let mut rng = Rng64::seed_from_u64(2);
    // The discriminator's first layer at batch 10: (10, 3, 16, 16) * (16, 3, 3, 3).
    let x = Tensor::randn(&[10, 3, 16, 16], &mut rng);
    let w = Tensor::randn(&[16, 3, 3, 3], &mut rng);
    let bias = Tensor::randn(&[16], &mut rng);
    g.bench_function("forward_b10_16px", |bench| {
        bench.iter(|| std::hint::black_box(conv2d_forward(&x, &w, &bias, 2, 1)));
    });
    let out = conv2d_forward(&x, &w, &bias, 2, 1);
    let grad = Tensor::ones(out.shape());
    g.bench_function("backward_b10_16px", |bench| {
        bench.iter(|| std::hint::black_box(conv2d_backward(&x, &w, &grad, 2, 1)));
    });
    // The generator's upsampling layer: (10, 32, 4, 4) -> (10, 16, 8, 8).
    let xt = Tensor::randn(&[10, 32, 4, 4], &mut rng);
    let wt = Tensor::randn(&[32, 16, 4, 4], &mut rng);
    let bt = Tensor::randn(&[16], &mut rng);
    g.bench_function("transpose_forward_b10", |bench| {
        bench.iter(|| std::hint::black_box(conv_transpose2d_forward(&xt, &wt, &bt, 2, 1)));
    });

    // Every conv the paper's CIFAR10 pair issues (`ArchSpec::cnn_cifar_scaled(32)`):
    // the discriminator's three 3x3 stride-2 convs halving 32² to 4², the
    // generator's three 4x4 stride-2 transposed convs doubling 4² back to
    // 32² — forward and the three gradient demands a training iteration
    // makes, at b = 10 (`paper_*`) and at the paper's other batch size
    // (`b100_*`: forward, params, input — the rows the direct weight
    // gradient of `ops/conv/wgrad.rs` was held to before the packed
    // product it replaced was deleted). `(name, in channels, out channels,
    // input side, transposed)`.
    let need_modes = [
        ("all", Need::All),
        ("params", Need::Params),
        ("input", Need::Input),
    ];
    for (batch, prefix, modes) in [
        (10, "paper", &need_modes[..]),
        (100, "b100", &need_modes[1..]),
    ] {
        for (name, cin, cout, side, transposed) in [
            ("d1", 3, 16, 32, false),
            ("d2", 16, 32, 16, false),
            ("d3", 32, 64, 8, false),
            ("g1", 64, 32, 4, true),
            ("g2", 32, 16, 8, true),
            ("g3", 16, 3, 16, true),
        ] {
            let (forward, backward_need, w_shape) = if transposed {
                let fwd: fn(&Tensor, &Tensor, &Tensor, usize, usize) -> Tensor =
                    conv_transpose2d_forward;
                let bwd: BackwardInto = conv_transpose2d_backward_into;
                (fwd, bwd, [cin, cout, 4, 4])
            } else {
                let fwd: fn(&Tensor, &Tensor, &Tensor, usize, usize) -> Tensor = conv2d_forward;
                let bwd: BackwardInto = conv2d_backward_into;
                (fwd, bwd, [cout, cin, 3, 3])
            };
            let x = Tensor::randn(&[batch, cin, side, side], &mut rng);
            let w = Tensor::randn(&w_shape, &mut rng);
            let bias = Tensor::randn(&[cout], &mut rng);
            g.bench_function(format!("{prefix}_{name}_forward"), |bench| {
                bench.iter(|| std::hint::black_box(forward(&x, &w, &bias, 2, 1)));
            });
            let gy = Tensor::randn(forward(&x, &w, &bias, 2, 1).shape(), &mut rng);
            let (mut gw, mut gb) = (Tensor::zeros(w.shape()), Tensor::zeros(&[cout]));
            for &(mode, need) in modes {
                g.bench_function(format!("{prefix}_{name}_{mode}"), |bench| {
                    bench.iter(|| {
                        std::hint::black_box(backward_need(
                            &x, &w, &gy, 2, 1, need, true, &mut gw, &mut gb,
                        ))
                    });
                });
            }
        }
    }

    // The middle discriminator conv through the layer, on the learning
    // step's 2b = 20 rows: forward keeps the phase planes it built and
    // `backward_params` takes the weight gradient from them — the input is
    // laid out once per step, where the tensor-level rows above pay for it
    // in `forward` and again in `params`.
    let mut layer = Conv2d::new(16, 32, 3, 2, 1, Init::Dcgan, &mut rng);
    let x = Tensor::randn(&[20, 16, 16, 16], &mut rng);
    let gy = Tensor::randn(layer.forward(&x, true).shape(), &mut rng);
    g.bench_function("layer_d2_forward_backward_params", |bench| {
        bench.iter(|| {
            std::hint::black_box(layer.forward(&x, true));
            layer.backward_params(&gy);
        });
    });
    g.finish();
}

fn bench_minibatch_disc(c: &mut Criterion) {
    let mut g = c.benchmark_group("minibatch_discrimination");
    g.sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    let mut rng = Rng64::seed_from_u64(3);
    for &b in &[10usize, 50, 100] {
        let mut layer = MinibatchDiscrimination::new(256, 8, 4, &mut rng);
        let x = Tensor::randn(&[b, 256], &mut rng);
        g.bench_with_input(BenchmarkId::new("forward", b), &b, |bench, _| {
            bench.iter(|| std::hint::black_box(layer.forward(&x, true)));
        });
    }
    g.finish();
}

fn bench_softmax_and_reduce(c: &mut Criterion) {
    let mut g = c.benchmark_group("reduce");
    g.sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(200));
    let mut rng = Rng64::seed_from_u64(4);
    let logits = Tensor::randn(&[500, 11], &mut rng);
    g.bench_function("softmax_rows_500x11", |bench| {
        bench.iter(|| std::hint::black_box(logits.softmax_rows()));
    });
    let imgs = Tensor::randn(&[100, 3, 16, 16], &mut rng);
    g.bench_function("sum_axis0_batch100", |bench| {
        bench.iter(|| std::hint::black_box(imgs.sum_axis0()));
    });
    g.finish();
}

fn bench_init(c: &mut Criterion) {
    let mut g = c.benchmark_group("init");
    g.sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(200));
    g.bench_function("xavier_128x128", |bench| {
        let mut rng = Rng64::seed_from_u64(5);
        bench.iter(|| {
            std::hint::black_box(Init::XavierUniform.sample(&[128, 128], 128, 128, &mut rng))
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_matmul,
    bench_matmul_variants,
    bench_matmul_threads,
    bench_conv,
    bench_minibatch_disc,
    bench_softmax_and_reduce,
    bench_init
);

fn main() {
    benches();
    md_bench::print_pool_stats();
}
