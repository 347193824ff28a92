//! Shared finite-difference gradient checker for layer unit tests.
//!
//! Strategy: with a fixed random cotangent `r`, define the scalar loss
//! `L(x, params) = <layer.forward(x), r>` so that `∂L/∂output = r`. Then the
//! analytic `backward(r)` must match central finite differences both for the
//! input gradient and every parameter gradient.

use crate::layer::Layer;
use md_tensor::rng::Rng64;
use md_tensor::Tensor;

/// Builds a fresh layer via `make`, then checks input and parameter
/// gradients at a handful of probe indices.
///
/// * `eps` — finite-difference step.
/// * `tol` — relative tolerance.
pub fn check_layer(
    make: impl Fn(&mut Rng64) -> Box<dyn Layer>,
    input_shape: &[usize],
    eps: f32,
    tol: f32,
) {
    let mut rng = Rng64::seed_from_u64(0xC0FFEE);
    let x = Tensor::randn(input_shape, &mut rng);

    // Analytic pass.
    let mut layer = make(&mut Rng64::seed_from_u64(7));
    let out = layer.forward(&x, true);
    let r = Tensor::randn(out.shape(), &mut rng);
    layer.zero_grad();
    let gx = layer.backward(&r);

    let loss_at = |x_: &Tensor, param_override: Option<(usize, usize, f32)>| -> f32 {
        let mut l = make(&mut Rng64::seed_from_u64(7));
        if let Some((pi, idx, delta)) = param_override {
            l.params_mut()[pi].data_mut()[idx] += delta;
        }
        l.forward(x_, true).dot(&r)
    };

    // Input gradient probes.
    let probes: Vec<usize> = probe_indices(x.len());
    for &i in &probes {
        let mut xp = x.clone();
        let mut xm = x.clone();
        xp.data_mut()[i] += eps;
        xm.data_mut()[i] -= eps;
        let num = (loss_at(&xp, None) - loss_at(&xm, None)) / (2.0 * eps);
        let ana = gx.data()[i];
        assert!(
            (num - ana).abs() <= tol * num.abs().max(1.0),
            "input grad at {i}: numeric {num} vs analytic {ana}"
        );
    }

    // Parameter gradient probes.
    let grads: Vec<Tensor> = layer.grads().iter().map(|g| (*g).clone()).collect();
    for (pi, g) in grads.iter().enumerate() {
        for &i in &probe_indices(g.len()) {
            let num =
                (loss_at(&x, Some((pi, i, eps))) - loss_at(&x, Some((pi, i, -eps)))) / (2.0 * eps);
            let ana = g.data()[i];
            assert!(
                (num - ana).abs() <= tol * num.abs().max(1.0),
                "param {pi} grad at {i}: numeric {num} vs analytic {ana}"
            );
        }
    }
}

fn probe_indices(len: usize) -> Vec<usize> {
    if len == 0 {
        return vec![];
    }
    let mut idx = vec![0, len / 3, len / 2, (2 * len) / 3, len - 1];
    idx.dedup();
    idx.retain(|&i| i < len);
    idx.sort_unstable();
    idx.dedup();
    idx
}
