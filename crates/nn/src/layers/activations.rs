//! Parameter-free activation layers: ReLU, LeakyReLU, Tanh, Sigmoid.

use crate::layer::{Layer, Need};
use md_tensor::parallel::parallel_for_chunks;
use md_tensor::workspace;
use md_tensor::Tensor;

/// What one `tanhf` is worth in the multiply-adds
/// [`md_tensor::parallel::PAR_THRESHOLD`] counts.
const TANH_COST: usize = 64;

/// Rectified linear unit: `max(0, x)`.
#[derive(Default)]
pub struct Relu {
    cached_input: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn forward_stacked(&mut self, x: &Tensor, _groups: usize, _train: bool) -> Tensor {
        self.cached_input = Some(x.clone());
        x.map(|v| v.max(0.0))
    }

    fn backprop(&mut self, grad_out: &Tensor, need: Need) -> Option<Tensor> {
        if !need.input() {
            return None;
        }
        let x = self
            .cached_input
            .as_ref()
            .expect("Relu::backward before forward");
        assert_eq!(grad_out.shape(), x.shape());
        let mut g = grad_out.clone();
        for (gv, &xv) in g.data_mut().iter_mut().zip(x.data()) {
            if xv <= 0.0 {
                *gv = 0.0;
            }
        }
        Some(g)
    }

    fn release_cache(&mut self) {
        self.cached_input = None;
    }

    fn name(&self) -> String {
        "ReLU".into()
    }
}

/// Leaky ReLU: `x` if `x > 0`, else `alpha * x`. The paper's discriminators
/// (DCGAN-style) conventionally use `alpha = 0.2`.
pub struct LeakyRelu {
    alpha: f32,
    cache: Option<Mask>,
}

/// What the backward needs of the last forward's input: its shape, and per
/// element whether the gradient passes unscaled: `x > 0.0` or a NaN `x`,
/// i.e. `!(x <= 0.0)`, the rule the gradient has always followed.
struct Mask {
    shape: Vec<usize>,
    pass: Vec<bool>,
}

impl LeakyRelu {
    /// Creates a LeakyReLU with the given negative slope.
    pub fn new(alpha: f32) -> Self {
        LeakyRelu { alpha, cache: None }
    }
}

impl Layer for LeakyRelu {
    /// One pass over `x` writes the output and the mask.
    fn forward_stacked(&mut self, x: &Tensor, _groups: usize, _train: bool) -> Tensor {
        let a = self.alpha;
        let mut y = workspace::take_uninit(x.len());
        let mut pass = vec![false; x.len()];
        for ((y, p), &v) in y.iter_mut().zip(&mut pass).zip(x.data()) {
            *y = if v > 0.0 { v } else { a * v };
            *p = (v > 0.0) | v.is_nan();
        }
        let shape = x.shape().to_vec();
        self.cache = Some(Mask { shape, pass });
        Tensor::new(x.shape(), y)
    }

    /// One pass over the mask: `grad_out` where it passes, `alpha` times
    /// it elsewhere.
    fn backprop(&mut self, grad_out: &Tensor, need: Need) -> Option<Tensor> {
        if !need.input() {
            return None;
        }
        let mask = self
            .cache
            .as_ref()
            .expect("LeakyRelu::backward before forward");
        assert_eq!(grad_out.shape(), &mask.shape[..]);
        let a = self.alpha;
        let mut g = workspace::take_uninit(grad_out.len());
        for ((g, &p), &go) in g.iter_mut().zip(&mask.pass).zip(grad_out.data()) {
            *g = if p { go } else { go * a };
        }
        Some(Tensor::new(&mask.shape, g))
    }

    fn release_cache(&mut self) {
        self.cache = None;
    }

    fn name(&self) -> String {
        format!("LeakyReLU({})", self.alpha)
    }
}

/// Hyperbolic tangent — the canonical output activation of DCGAN generators
/// (images normalized to `[-1, 1]`).
#[derive(Default)]
pub struct Tanh {
    cached_output: Option<Tensor>,
}

impl Tanh {
    /// Creates a Tanh layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Tanh {
    fn forward_stacked(&mut self, x: &Tensor, _groups: usize, _train: bool) -> Tensor {
        // One task per row: a `tanhf` costs tens of multiply-adds, so the
        // generator's `(k·b, 784)` output at b = 100 is pool-sized work.
        let rows = x.shape().first().copied().unwrap_or(1);
        let row_len = x.len() / rows.max(1);
        let mut data = workspace::take_uninit(x.len());
        parallel_for_chunks(&mut data, rows, row_len * TANH_COST, |i, out| {
            for (o, &v) in out.iter_mut().zip(&x.data()[i * row_len..]) {
                *o = v.tanh();
            }
        });
        let y = Tensor::new(x.shape(), data);
        self.cached_output = Some(y.clone());
        y
    }

    fn backprop(&mut self, grad_out: &Tensor, need: Need) -> Option<Tensor> {
        if !need.input() {
            return None;
        }
        let y = self
            .cached_output
            .as_ref()
            .expect("Tanh::backward before forward");
        assert_eq!(grad_out.shape(), y.shape());
        let mut g = grad_out.clone();
        for (gv, &yv) in g.data_mut().iter_mut().zip(y.data()) {
            *gv *= 1.0 - yv * yv;
        }
        Some(g)
    }

    fn release_cache(&mut self) {
        self.cached_output = None;
    }

    fn name(&self) -> String {
        "Tanh".into()
    }
}

/// Logistic sigmoid. GAN losses in this workspace operate on logits, so this
/// layer appears mainly in tests and in the scorer classifier.
#[derive(Default)]
pub struct Sigmoid {
    cached_output: Option<Tensor>,
}

impl Sigmoid {
    /// Creates a Sigmoid layer.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Numerically stable scalar sigmoid.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        let e = (-x).exp();
        1.0 / (1.0 + e)
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

impl Layer for Sigmoid {
    fn forward_stacked(&mut self, x: &Tensor, _groups: usize, _train: bool) -> Tensor {
        let y = x.map(sigmoid);
        self.cached_output = Some(y.clone());
        y
    }

    fn backprop(&mut self, grad_out: &Tensor, need: Need) -> Option<Tensor> {
        if !need.input() {
            return None;
        }
        let y = self
            .cached_output
            .as_ref()
            .expect("Sigmoid::backward before forward");
        assert_eq!(grad_out.shape(), y.shape());
        let mut g = grad_out.clone();
        for (gv, &yv) in g.data_mut().iter_mut().zip(y.data()) {
            *gv *= yv * (1.0 - yv);
        }
        Some(g)
    }

    fn release_cache(&mut self) {
        self.cached_output = None;
    }

    fn name(&self) -> String {
        "Sigmoid".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_tensor::assert_close;

    #[test]
    fn relu_clips_negatives() {
        let mut l = Relu::new();
        let y = l.forward(&Tensor::new(&[4], vec![-1.0, 0.0, 0.5, 2.0]), true);
        assert_eq!(y.data(), &[0.0, 0.0, 0.5, 2.0]);
        let g = l.backward(&Tensor::ones(&[4]));
        assert_eq!(g.data(), &[0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn leaky_relu_scales_negatives() {
        let mut l = LeakyRelu::new(0.2);
        let y = l.forward(&Tensor::new(&[3], vec![-1.0, 0.0, 2.0]), true);
        assert_close(y.data(), &[-0.2, 0.0, 2.0], 1e-6);
        let g = l.backward(&Tensor::ones(&[3]));
        assert_close(g.data(), &[0.2, 0.2, 1.0], 1e-6);
    }

    /// The mask-based forward and backward against the clone-and-map rules
    /// they replaced, bit for bit, on every pairing of special inputs and
    /// gradients. `-1e-45` rounds to the smallest negative subnormal, and
    /// `alpha` times it underflows to `-0.0`.
    #[test]
    fn leaky_relu_mask_matches_the_old_rules_on_specials() {
        let specials = [
            f32::NAN,
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -1e-45,
            1e-45,
            -3.5,
            2.0,
        ];
        let n = specials.len();
        let x: Vec<f32> = specials.iter().flat_map(|&v| [v; 9]).collect();
        let go: Vec<f32> = (0..n).flat_map(|_| specials).collect();
        let a = 0.2f32;
        let mut l = LeakyRelu::new(a);
        let y = l.forward(&Tensor::new(&[n, n], x.clone()), true);
        let g = l.backward(&Tensor::new(&[n, n], go.clone()));
        for (i, (&xv, &gv)) in x.iter().zip(&go).enumerate() {
            let y_old = if xv > 0.0 { xv } else { a * xv };
            let g_old = if xv <= 0.0 { gv * a } else { gv };
            assert_eq!(y.data()[i].to_bits(), y_old.to_bits(), "y at x = {xv}");
            assert_eq!(
                g.data()[i].to_bits(),
                g_old.to_bits(),
                "g at x = {xv}, go = {gv}"
            );
        }
        assert_eq!(y.data()[5 * n].to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn tanh_saturates() {
        let mut l = Tanh::new();
        let y = l.forward(&Tensor::new(&[3], vec![-10.0, 0.0, 10.0]), true);
        assert!((y.data()[0] + 1.0).abs() < 1e-4);
        assert_eq!(y.data()[1], 0.0);
        assert!((y.data()[2] - 1.0).abs() < 1e-4);
    }

    #[test]
    fn sigmoid_stable_extremes() {
        assert!((sigmoid(100.0) - 1.0).abs() < 1e-6);
        assert!(sigmoid(-100.0) < 1e-6);
        assert!(sigmoid(-100.0).is_finite());
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
    }

    #[test]
    fn gradcheck_relu_like() {
        // LeakyReLU is differentiable almost everywhere; randn inputs avoid 0.
        crate::gradcheck::check_layer(|_| Box::new(LeakyRelu::new(0.2)), &[2, 5], 1e-3, 2e-2);
        crate::gradcheck::check_layer(|_| Box::new(Tanh::new()), &[2, 5], 1e-3, 2e-2);
        crate::gradcheck::check_layer(|_| Box::new(Sigmoid::new()), &[2, 5], 1e-3, 2e-2);
    }
}
