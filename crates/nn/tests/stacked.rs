//! `forward_stacked(x, g, train)` followed by one gradient call is, bit for
//! bit, `g` single-batch forwards each followed by its own accumulating
//! gradient call, in batch order: outputs, `dx`, parameter gradients,
//! BatchNorm's running statistics and Dropout's masks (seen through the
//! outputs and `dx` of a non-zero input).
//!
//! Checked for every layer type and a CNN generator and a CNN discriminator
//! `Sequential`, for g in {1, 2, 3, 5} under each [`Need`], at 1, 2 and 3
//! tensor threads —
//! the stacked shapes may cross the parallel gate or leave a no-pack GEMM
//! kernel's tile where the single batches do not. Parameter gradients start
//! from a non-zero sentinel, so "not written" and "accumulated into" are
//! both observable.

use md_nn::init::Init;
use md_nn::layers::{
    BatchNorm, Conv2d, ConvTranspose2d, Dense, Dropout, Flatten, LeakyRelu,
    MinibatchDiscrimination, Relu, Reshape, Sequential, Sigmoid, Tanh,
};
use md_nn::{Layer, Need};
use md_tensor::parallel::scoped_max_threads;
use md_tensor::rng::Rng64;
use md_tensor::Tensor;

fn bits<'a>(tensors: impl IntoIterator<Item = &'a Tensor>) -> Vec<Vec<u32>> {
    tensors
        .into_iter()
        .map(|t| t.data().iter().map(|v| v.to_bits()).collect())
        .collect()
}

fn fill_grads_with_sentinel(layer: &mut dyn Layer) {
    for (k, g) in layer.grads_mut().into_iter().enumerate() {
        for (i, v) in g.data_mut().iter_mut().enumerate() {
            *v = 0.375 + k as f32 - (i % 5) as f32 * 0.25;
        }
    }
}

/// Two identical layers: one runs `g` batches of `batch_shape` as a stack,
/// the other one after the other. `state` names what a layer keeps beside
/// its parameters (BatchNorm's running statistics).
fn check<L: Layer>(
    what: &str,
    make: impl Fn(&mut Rng64) -> L,
    batch_shape: &[usize],
    train: bool,
    state: impl Fn(&L) -> Vec<Vec<f32>>,
) {
    for g in [1usize, 2, 3, 5] {
        for need in [Need::All, Need::Input, Need::Params] {
            let what = format!("{what}, {g} batches, {need:?}");
            let mut rng = Rng64::seed_from_u64(0x57AC + g as u64);
            let xs: Vec<Tensor> = (0..g)
                .map(|_| Tensor::randn(batch_shape, &mut rng))
                .collect();
            let fresh = || {
                let mut l = make(&mut Rng64::seed_from_u64(7));
                fill_grads_with_sentinel(&mut l);
                l
            };
            let (mut stacked, mut separate) = (fresh(), fresh());

            let y = stacked.forward_stacked(&Tensor::concat0(&xs), g, train);
            let r = Tensor::randn(y.shape(), &mut rng);
            let dx = stacked.backprop(&r, need);

            let rs = r.into_split0(g);
            let (ys, dxs): (Vec<Tensor>, Vec<Option<Tensor>>) = xs
                .iter()
                .zip(&rs)
                .map(|(x, r)| (separate.forward(x, train), separate.backprop(r, need)))
                .unzip();

            let ys = Tensor::concat0(&ys);
            assert_eq!(y.shape(), ys.shape(), "{what}: output shape");
            assert_eq!(bits([&y]), bits([&ys]), "{what}: outputs");
            match dx {
                Some(dx) => {
                    let dxs: Vec<Tensor> = dxs.into_iter().map(Option::unwrap).collect();
                    let dxs = Tensor::concat0(&dxs);
                    assert_eq!(dx.shape(), dxs.shape(), "{what}: dx shape");
                    assert_eq!(bits([&dx]), bits([&dxs]), "{what}: dx");
                }
                None => assert!(dxs.iter().all(Option::is_none), "{what}: dx presence"),
            }
            assert_eq!(
                bits(stacked.grads()),
                bits(separate.grads()),
                "{what}: parameter gradients"
            );
            let as_bits = |s: Vec<Vec<f32>>| -> Vec<Vec<u32>> {
                s.iter()
                    .map(|v| v.iter().map(|x| x.to_bits()).collect())
                    .collect()
            };
            assert_eq!(
                as_bits(state(&stacked)),
                as_bits(state(&separate)),
                "{what}: layer state"
            );
        }
    }
}

fn no_state<L>(_: &L) -> Vec<Vec<f32>> {
    Vec::new()
}

fn running_stats(bn: &BatchNorm) -> Vec<Vec<f32>> {
    let (mean, var) = bn.running_stats();
    vec![mean.to_vec(), var.to_vec()]
}

fn cnn_generator(rng: &mut Rng64) -> Sequential {
    Sequential::new()
        .push(Dense::new(42, 16 * 16, Init::Dcgan, rng))
        .push(Reshape::new(&[16, 4, 4]))
        .push(BatchNorm::new(16))
        .push(Relu::new())
        .push(Dropout::new(0.25, rng))
        .push(ConvTranspose2d::new(16, 8, 4, 2, 1, Init::Dcgan, rng))
        .push(BatchNorm::new(8))
        .push(Relu::new())
        .push(ConvTranspose2d::new(8, 3, 4, 2, 1, Init::Dcgan, rng))
        .push(Tanh::new())
}

/// The CNN discriminator of `mdgan-core`'s `arch.rs` at 16² (two stages).
fn cnn_discriminator(rng: &mut Rng64) -> Sequential {
    let mb = MinibatchDiscrimination::new(16 * 4 * 4, 8, 4, rng);
    let mb_out = mb.out_features();
    Sequential::new()
        .push(Conv2d::new(3, 8, 3, 2, 1, Init::Dcgan, rng))
        .push(LeakyRelu::new(0.2))
        .push(Conv2d::new(8, 16, 3, 2, 1, Init::Dcgan, rng))
        .push(LeakyRelu::new(0.2))
        .push(Flatten::new())
        .push(mb)
        .push(Dense::new(mb_out, 11, Init::XavierUniform, rng))
}

#[test]
fn a_stack_is_bitwise_its_batches_one_after_the_other() {
    for threads in [1, 2, 3] {
        let _guard = scoped_max_threads(threads);
        let t = |name: &str| format!("{name} @ {threads} threads");

        check(
            &t("Dense"),
            |rng| Dense::new(4, 3, Init::XavierUniform, rng),
            &[2, 4],
            true,
            no_state,
        );
        // b = 10 at the paper's widths: 10, 20, 30 and 50 rows sit on both
        // sides of every no-pack GEMM bound.
        check(
            &t("Dense b10"),
            |rng| Dense::new(110, 257, Init::XavierUniform, rng),
            &[10, 110],
            true,
            no_state,
        );
        check(
            &t("Conv2d"),
            |rng| Conv2d::new(2, 3, 3, 1, 1, Init::XavierUniform, rng),
            &[2, 2, 4, 4],
            true,
            no_state,
        );
        check(
            &t("ConvTranspose2d"),
            |rng| ConvTranspose2d::new(3, 2, 4, 2, 1, Init::XavierUniform, rng),
            &[2, 3, 3, 3],
            true,
            no_state,
        );
        for train in [true, false] {
            check(
                &t(&format!("BatchNorm dense train={train}")),
                |_| BatchNorm::new(3),
                &[6, 3],
                train,
                running_stats,
            );
            check(
                &t(&format!("BatchNorm conv train={train}")),
                |_| BatchNorm::new(2),
                &[3, 2, 3, 3],
                train,
                running_stats,
            );
            check(
                &t(&format!("Dropout train={train}")),
                |rng| Dropout::new(0.4, rng),
                &[3, 17],
                train,
                no_state,
            );
        }
        // Similarities, `dx` and one `xᵀ·gm` product per batch: a row never
        // meets a row of another batch.
        check(
            &t("MinibatchDiscrimination"),
            |rng| MinibatchDiscrimination::new(3, 2, 2, rng),
            &[4, 3],
            true,
            no_state,
        );
        check(
            &t("MinibatchDiscrimination b10"),
            |rng| MinibatchDiscrimination::new(64, 8, 4, rng),
            &[10, 64],
            true,
            no_state,
        );
        check(&t("ReLU"), |_| Relu::new(), &[3, 7], true, no_state);
        check(
            &t("LeakyReLU"),
            |_| LeakyRelu::new(0.2),
            &[3, 7],
            true,
            no_state,
        );
        check(&t("Tanh"), |_| Tanh::new(), &[3, 7], true, no_state);
        check(&t("Sigmoid"), |_| Sigmoid::new(), &[3, 7], true, no_state);
        check(
            &t("Reshape"),
            |_| Reshape::new(&[2, 3, 2]),
            &[4, 12],
            true,
            no_state,
        );
        check(
            &t("Flatten"),
            |_| Flatten::new(),
            &[4, 2, 3, 2],
            true,
            no_state,
        );

        // Shapes whose stacks are split across the pool: the GEMMs of a
        // b = 100 layer and the generator's output activation.
        check(
            &t("Dense large"),
            |rng| Dense::new(300, 257, Init::XavierUniform, rng),
            &[100, 300],
            true,
            no_state,
        );
        check(
            &t("Tanh large"),
            |_| Tanh::new(),
            &[100, 784],
            true,
            no_state,
        );
        check(
            &t("Conv2d large, odd spatial"),
            |rng| Conv2d::new(5, 7, 3, 2, 1, Init::HeNormal, rng),
            &[3, 5, 13, 11],
            true,
            no_state,
        );
        check(
            &t("ConvTranspose2d large, odd spatial"),
            |rng| ConvTranspose2d::new(7, 5, 4, 2, 1, Init::HeNormal, rng),
            &[3, 7, 7, 5],
            true,
            no_state,
        );

        // A whole generator: Dense, BatchNorm over (B,C,H,W), Dropout and
        // both conv-transpose layouts behind one `groups` argument.
        check(&t("CNN generator"), cnn_generator, &[5, 42], true, no_state);
        // A whole discriminator, as the D learning step stacks it: conv,
        // minibatch discrimination and the dense head.
        check(
            &t("CNN discriminator"),
            cnn_discriminator,
            &[5, 3, 16, 16],
            true,
            no_state,
        );
    }
}

/// `MinibatchDiscrimination` sums similarities over the other rows of its
/// batch: a stack run as one batch would mix the batches, which is why the
/// layer reads `groups` (the stacked pass itself is checked above).
#[test]
fn minibatch_discrimination_never_mixes_stacked_batches() {
    let make = || MinibatchDiscrimination::new(3, 2, 2, &mut Rng64::seed_from_u64(7));
    let mut rng = Rng64::seed_from_u64(1);
    let xs = [
        Tensor::randn(&[4, 3], &mut rng),
        Tensor::randn(&[4, 3], &mut rng),
    ];

    let (mut one, mut plain) = (make(), make());
    assert_eq!(
        bits([&one.forward_stacked(&xs[0], 1, true)]),
        bits([&plain.forward(&xs[0], true)])
    );

    // What a silent row-independent default would return: the eight rows as
    // one batch, whose similarity features are not those of either batch.
    let stacked = Tensor::concat0(&xs);
    let mixed = make().forward(&stacked, true);
    let apart = Tensor::concat0(&[make().forward(&xs[0], true), make().forward(&xs[1], true)]);
    assert_ne!(bits([&mixed]), bits([&apart]));
    assert_eq!(
        bits([&make().forward_stacked(&stacked, 2, true)]),
        bits([&apart])
    );
}

/// Rows that do not split into the stated number of batches are refused by
/// the layer whose statistics depend on the split.
#[test]
#[should_panic(expected = "7 rows do not split into 2 equal batches")]
fn batchnorm_rejects_an_uneven_stack() {
    BatchNorm::new(3).forward_stacked(&Tensor::zeros(&[7, 3]), 2, true);
}
