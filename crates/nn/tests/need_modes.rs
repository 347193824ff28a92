//! `Need::Input` and `Need::Params` are **bitwise projections** of the full
//! backward pass: whatever a need computes is exactly what `Need::All`
//! computes for it, and whatever it does not name is left untouched.
//!
//! Checked for every parameterized layer (at the `gradcheck` shapes and at
//! one shape large enough to cross the parallel gate) and for an MLP and a
//! CNN discriminator and a CNN generator `Sequential`, under 1, 2 and 3
//! tensor threads. Parameter gradients start from a non-zero sentinel, so
//! "not written" and "accumulated into" are both observable.
//!
//! The same shapes check `backprop_first`: from the sentinel it is bit for
//! bit `zero_grad()` followed by `backprop`. And who owns a forward's cache:
//! a `Sequential` hands each child's back once its gradient call has used
//! it, a bare layer keeps it.

use md_nn::init::Init;
use md_nn::layers::{
    BatchNorm, Conv2d, ConvTranspose2d, Dense, Flatten, LeakyRelu, MinibatchDiscrimination, Relu,
    Reshape, Sequential, Tanh,
};
use md_nn::{Layer, Need};
use md_tensor::parallel::scoped_max_threads;
use md_tensor::rng::Rng64;
use md_tensor::Tensor;

fn bits(tensors: &[&Tensor]) -> Vec<Vec<u32>> {
    tensors
        .iter()
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

/// Builds three identical layers, runs one under each need, and compares.
fn check(
    what: &str,
    make: impl Fn(&mut Rng64) -> Box<dyn Layer>,
    input_shape: &[usize],
    train: bool,
) {
    let mut rng = Rng64::seed_from_u64(0xC0FFEE);
    let x = Tensor::randn(input_shape, &mut rng);
    let fresh = || {
        let mut l = make(&mut Rng64::seed_from_u64(7));
        fill_grads_with_sentinel(l.as_mut());
        l
    };
    let (mut full, mut input, mut params) = (fresh(), fresh(), fresh());
    let sentinel = bits(&full.grads());
    let r = Tensor::randn(full.forward(&x, train).shape(), &mut rng);

    let dx_full = full.backward(&r);

    input.forward(&x, train);
    let dx = input.backward_input(&r);
    assert_eq!(dx.shape(), dx_full.shape(), "{what}: input-only dx shape");
    assert_eq!(bits(&[&dx]), bits(&[&dx_full]), "{what}: input-only dx");
    assert_eq!(
        bits(&input.grads()),
        sentinel,
        "{what}: input-only touched the parameter gradients"
    );

    for round in 1..=2 {
        if round == 2 {
            full.forward(&x, train);
            full.backward(&r);
        }
        params.forward(&x, train);
        assert!(
            params.backprop(&r, Need::Params).is_none(),
            "{what}: params-only returned an input gradient"
        );
        assert_eq!(
            bits(&params.grads()),
            bits(&full.grads()),
            "{what}: params-only gradients, accumulated x{round}"
        );
    }

    // The first gradient call of a step writes what a sweep followed by the
    // accumulating call leaves, whatever the gradients held before.
    for need in [Need::All, Need::Params] {
        let (mut first, mut swept) = (fresh(), fresh());
        first.forward(&x, train);
        let dx_first = first.backprop_first(&r, need);
        swept.forward(&x, train);
        swept.zero_grad();
        let dx_swept = swept.backprop(&r, need);
        assert_eq!(
            dx_first.as_ref().map(|dx| bits(&[dx])),
            dx_swept.as_ref().map(|dx| bits(&[dx])),
            "{what}: first-call dx under {need:?}"
        );
        assert_eq!(
            bits(&first.grads()),
            bits(&swept.grads()),
            "{what}: first-call gradients under {need:?}"
        );
    }
    let mut first = fresh();
    first.forward(&x, train);
    let dx = first
        .backprop_first(&r, Need::Input)
        .expect("Need::Input produces an input gradient");
    assert_eq!(bits(&[&dx]), bits(&[&dx_full]), "{what}: first-call dx");
    assert_eq!(
        bits(&first.grads()),
        sentinel,
        "{what}: an input-only first call touched the parameter gradients"
    );
}

fn mlp_discriminator(rng: &mut Rng64) -> Sequential {
    Sequential::new()
        .push(Flatten::new())
        .push(Dense::new(144, 48, Init::XavierUniform, rng))
        .push(LeakyRelu::new(0.2))
        .push(Dense::new(48, 48, Init::XavierUniform, rng))
        .push(LeakyRelu::new(0.2))
        .push(Dense::new(48, 11, Init::XavierUniform, rng))
}

fn cnn_discriminator(rng: &mut Rng64) -> Sequential {
    let mb = MinibatchDiscrimination::new(16 * 16, 8, 4, rng);
    let head_in = mb.out_features();
    Sequential::new()
        .push(Conv2d::new(3, 8, 3, 2, 1, Init::Dcgan, rng))
        .push(LeakyRelu::new(0.2))
        .push(Conv2d::new(8, 16, 3, 2, 1, Init::Dcgan, rng))
        .push(LeakyRelu::new(0.2))
        .push(Flatten::new())
        .push(mb)
        .push(Dense::new(head_in, 11, Init::XavierUniform, rng))
}

fn cnn_generator(rng: &mut Rng64) -> Sequential {
    Sequential::new()
        .push(Dense::new(42, 16 * 16, Init::Dcgan, rng))
        .push(Reshape::new(&[16, 4, 4]))
        .push(BatchNorm::new(16))
        .push(Relu::new())
        .push(ConvTranspose2d::new(16, 8, 4, 2, 1, Init::Dcgan, rng))
        .push(BatchNorm::new(8))
        .push(Relu::new())
        .push(ConvTranspose2d::new(8, 3, 4, 2, 1, Init::Dcgan, rng))
        .push(Tanh::new())
}

#[test]
fn needs_are_bitwise_projections_of_the_full_pass() {
    for threads in [1, 2, 3] {
        let _guard = scoped_max_threads(threads);
        let t = |name: &str| format!("{name} @ {threads} threads");

        // The gradcheck shapes…
        check(
            &t("Dense"),
            |rng| Box::new(Dense::new(4, 3, Init::XavierUniform, rng)),
            &[2, 4],
            true,
        );
        check(
            &t("Conv2d"),
            |rng| Box::new(Conv2d::new(2, 3, 3, 1, 1, Init::XavierUniform, rng)),
            &[2, 2, 4, 4],
            true,
        );
        check(
            &t("ConvTranspose2d"),
            |rng| {
                Box::new(ConvTranspose2d::new(
                    3,
                    2,
                    4,
                    2,
                    1,
                    Init::XavierUniform,
                    rng,
                ))
            },
            &[2, 3, 3, 3],
            true,
        );
        for train in [true, false] {
            check(
                &t(&format!("BatchNorm dense train={train}")),
                |_| Box::new(BatchNorm::new(3)),
                &[6, 3],
                train,
            );
            check(
                &t(&format!("BatchNorm conv train={train}")),
                |_| Box::new(BatchNorm::new(2)),
                &[3, 2, 3, 3],
                train,
            );
        }
        check(
            &t("MinibatchDiscrimination"),
            |rng| Box::new(MinibatchDiscrimination::new(3, 2, 2, rng)),
            &[4, 3],
            true,
        );

        // …and shapes whose GEMMs are split across the pool.
        check(
            &t("Dense large"),
            |rng| Box::new(Dense::new(300, 257, Init::XavierUniform, rng)),
            &[33, 300],
            true,
        );
        check(
            &t("Conv2d large, odd spatial"),
            |rng| Box::new(Conv2d::new(5, 7, 3, 2, 1, Init::HeNormal, rng)),
            &[3, 5, 13, 11],
            true,
        );
        check(
            &t("ConvTranspose2d large, odd spatial"),
            |rng| Box::new(ConvTranspose2d::new(7, 5, 4, 2, 1, Init::HeNormal, rng)),
            &[3, 7, 7, 5],
            true,
        );

        // Whole networks: params-only must stop at the first parameterized
        // layer (Flatten → Dense, the first Conv2d, the first Dense) and
        // still deliver every layer's gradients.
        check(
            &t("MLP discriminator"),
            |rng| Box::new(mlp_discriminator(rng)),
            &[6, 1, 12, 12],
            true,
        );
        check(
            &t("CNN discriminator"),
            |rng| Box::new(cnn_discriminator(rng)),
            &[5, 3, 16, 16],
            true,
        );
        check(
            &t("CNN generator"),
            |rng| Box::new(cnn_generator(rng)),
            &[5, 42],
            true,
        );
    }
}

#[test]
fn parameter_free_stack_has_nothing_to_compute_under_params() {
    let mut net = Sequential::new()
        .push(Flatten::new())
        .push(LeakyRelu::new(0.2));
    let x = Tensor::ones(&[2, 3, 2]);
    let y = net.forward(&x, true);
    assert!(net.backprop(&y, Need::Params).is_none());
    assert_eq!(net.backward_input(&y).shape(), x.shape());

    // The empty stack is the identity in both directions.
    let mut empty = Sequential::new();
    assert_eq!(empty.forward(&x, true).data(), x.data());
    assert_eq!(empty.backward(&x).data(), x.data());
    assert!(empty.backprop(&x, Need::Params).is_none());
}

/// One forward, two gradient calls through a `Sequential`.
fn two_gradient_calls(layer: impl Layer + 'static, input_shape: &[usize]) {
    let mut net = Sequential::new().push(layer);
    let y = net.forward(&Tensor::ones(input_shape), true);
    net.backward(&y);
    net.backward(&y);
}

#[test]
#[should_panic(expected = "Dense::backward before forward")]
fn a_gradient_call_through_a_stack_consumes_the_dense_cache() {
    let mut rng = Rng64::seed_from_u64(1);
    two_gradient_calls(Dense::new(4, 3, Init::XavierUniform, &mut rng), &[2, 4]);
}

#[test]
#[should_panic(expected = "Conv2d::backward before forward")]
fn a_gradient_call_through_a_stack_consumes_the_conv_cache() {
    let mut rng = Rng64::seed_from_u64(1);
    let conv = Conv2d::new(2, 3, 3, 1, 1, Init::XavierUniform, &mut rng);
    two_gradient_calls(conv, &[2, 2, 4, 4]);
}

/// A layer outside a container keeps its cache: its gradient call can be
/// repeated (the repository benchmark times bare layers that way).
#[test]
fn a_bare_layer_keeps_its_cache_across_gradient_calls() {
    let mut rng = Rng64::seed_from_u64(1);
    let mut dense = Dense::new(4, 3, Init::XavierUniform, &mut rng);
    let y = dense.forward(&Tensor::ones(&[2, 4]), true);
    let dx = dense.backward(&y);
    assert_eq!(bits(&[&dense.backward(&y)]), bits(&[&dx]));
}
