//! The generator trajectory is pinned to constants, not just to the other
//! runtime: the equivalence suites prove that sequential, threaded and any
//! `TENSOR_THREADS` agree *with each other*, so a change that moved all of
//! them together would pass. A performance change must not move a single
//! bit of `gen_params()`; this test fails if it does.
//!
//! The constants were re-recorded, by running this file, when exp / ln /
//! tanh / sin_cos moved from the host libm to `md_tensor::math`: the one
//! change that moves these bits on purpose, since it redefines every noise
//! draw, dataset pixel and activation. They no longer depend on the libc.

use mdgan_repro::core::config::{GanHyper, KPolicy, MdGanConfig, SwapPolicy};
use mdgan_repro::core::mdgan::threaded::run_threaded;
use mdgan_repro::core::{ArchSpec, MdGan};
use mdgan_repro::data::synthetic::{cifar_like, mnist_like};
use mdgan_repro::data::Dataset;
use mdgan_repro::simnet::CrashSchedule;
use mdgan_repro::tensor::parallel::scoped_max_threads;
use mdgan_repro::tensor::rng::Rng64;

const WORKERS: usize = 3;
const ITERS: usize = 12;

const MLP_GOLDEN: u64 = 0xf9e7_607e_d9e2_83f1;
const CNN_GOLDEN: u64 = 0x4db5_862e_2215_7bf3;

/// FNV-1a over the little-endian bit patterns (so `0.0` and `-0.0` differ).
fn fnv1a(params: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in params {
        for byte in p.to_bits().to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn cfg() -> MdGanConfig {
    // m = 32, b = 4: a swap every 8 iterations, so 12 iterations cross one.
    MdGanConfig {
        workers: WORKERS,
        k: KPolicy::LogN,
        epochs_per_swap: 1.0,
        swap: SwapPolicy::Derangement,
        hyper: GanHyper {
            batch: 4,
            ..GanHyper::default()
        },
        iterations: ITERS,
        seed: 21,
        crash: CrashSchedule::none(),
        ..MdGanConfig::default()
    }
}

fn check(spec: &ArchSpec, data: Dataset, golden: u64) {
    let shards = data.shard_iid(WORKERS, &mut Rng64::seed_from_u64(11));
    for threads in [1, 2] {
        let _guard = scoped_max_threads(threads);

        let mut seq = MdGan::new(spec, shards.clone(), cfg());
        for _ in 0..ITERS {
            seq.step();
        }
        assert_eq!(
            fnv1a(&seq.gen_params()),
            golden,
            "MdGan::step trajectory moved ({threads} tensor threads): {:#018x}",
            fnv1a(&seq.gen_params())
        );

        let thr = run_threaded(spec, shards.clone(), cfg(), None, ITERS, 1_000_000);
        assert_eq!(
            fnv1a(&thr.gen_params),
            golden,
            "run_threaded trajectory moved ({threads} tensor threads): {:#018x}",
            fnv1a(&thr.gen_params)
        );
    }
}

#[test]
fn mlp_trajectory_is_pinned() {
    let spec = ArchSpec::mlp_mnist_scaled(12);
    check(&spec, mnist_like(12, WORKERS * 32, 11, 0.08), MLP_GOLDEN);
}

#[test]
fn cnn_trajectory_is_pinned() {
    let spec = ArchSpec::cnn_cifar_scaled(16);
    check(&spec, cifar_like(16, WORKERS * 32, 11, 0.08), CNN_GOLDEN);
}
