//! Parameter-free activation layers: ReLU, LeakyReLU, Tanh, and the scalar
//! sigmoid the GAN losses use.

use crate::layer::{Layer, Need};
use md_tensor::math;
use md_tensor::parallel::parallel_for_chunks;
use md_tensor::workspace;
use md_tensor::Tensor;

/// What one [`math::tanh`] is worth in the multiply-adds
/// [`md_tensor::parallel::PAR_THRESHOLD`] counts. Measured on one thread of
/// a 2-vCPU AVX-512 host: `math::tanh_slice` over a 100 × 784 row block
/// takes 1.6–2.2 ns per element, the packed GEMM at (100, 512, 784) takes
/// 0.017–0.030 ns per multiply-add, a ratio of 62–101 over six runs, median
/// 81.
const TANH_COST: usize = 80;

/// Rectified linear unit: `max(0, x)`.
#[derive(Default)]
pub struct Relu {
    mask: Option<Mask>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    /// One pass over `x` writes the output and the mask.
    fn forward_stacked(&mut self, x: &Tensor, _groups: usize, _train: bool) -> Tensor {
        let (y, mask) = Mask::forward(x, |v| v.max(0.0));
        self.mask = Some(mask);
        y
    }

    /// One pass over the mask: `grad_out` where it passes, zero elsewhere.
    fn backprop(&mut self, grad_out: &Tensor, need: Need) -> Option<Tensor> {
        if !need.input() {
            return None;
        }
        let mask = self.mask.as_ref().expect("Relu::backward before forward");
        Some(mask.select(grad_out, |_| 0.0))
    }

    fn release_cache(&mut self) {
        self.mask = None;
    }

    fn name(&self) -> String {
        "ReLU".into()
    }
}

/// Leaky ReLU: `x` if `x > 0`, else `alpha * x`. The paper's discriminators
/// (DCGAN-style) conventionally use `alpha = 0.2`.
pub struct LeakyRelu {
    alpha: f32,
    mask: Option<Mask>,
}

/// What the backward of [`Relu`] or [`LeakyRelu`] needs of the last
/// forward's input: its shape, and per element whether the gradient passes
/// unscaled — `x > 0.0` or a NaN `x`, i.e. `!(x <= 0.0)`, the rule the
/// gradient has always followed. Element `i` is bit `i % 32` of word
/// `i / 32`, a word kept as the bit pattern of a workspace `f32` that no
/// float operation touches, so a forward allocates nothing once the shelf
/// is warm and the mask is a thirty-second of the input.
struct Mask {
    shape: Vec<usize>,
    bits: Tensor,
}

impl Mask {
    /// One pass over `x` writes `f(x)` and the mask.
    fn forward(x: &Tensor, f: impl Fn(f32) -> f32) -> (Tensor, Mask) {
        let mut y = workspace::take_uninit(x.len());
        let mut bits = workspace::take_uninit(x.len().div_ceil(32));
        let rows = y.chunks_mut(32).zip(x.data().chunks(32));
        for ((ys, xs), word) in rows.zip(&mut bits) {
            let mut w = 0u32;
            for (j, (y, &v)) in ys.iter_mut().zip(xs).enumerate() {
                *y = f(v);
                w |= u32::from((v > 0.0) | v.is_nan()) << j;
            }
            *word = f32::from_bits(w);
        }
        let mask = Mask {
            shape: x.shape().to_vec(),
            bits: Tensor::new(&[bits.len()], bits),
        };
        (Tensor::new(x.shape(), y), mask)
    }

    /// One pass over the mask: `grad_out` where it passes, `other(grad_out)`
    /// elsewhere.
    fn select(&self, grad_out: &Tensor, other: impl Fn(f32) -> f32) -> Tensor {
        assert_eq!(grad_out.shape(), &self.shape[..]);
        let mut g = workspace::take_uninit(grad_out.len());
        let rows = g.chunks_mut(32).zip(grad_out.data().chunks(32));
        for ((gs, gos), word) in rows.zip(self.bits.data()) {
            let w = word.to_bits();
            for (j, (g, &go)) in gs.iter_mut().zip(gos).enumerate() {
                *g = if (w >> j) & 1 != 0 { go } else { other(go) };
            }
        }
        Tensor::new(&self.shape, g)
    }
}

impl LeakyRelu {
    /// Creates a LeakyReLU with the given negative slope.
    pub fn new(alpha: f32) -> Self {
        LeakyRelu { alpha, mask: None }
    }
}

impl Layer for LeakyRelu {
    /// One pass over `x` writes the output and the mask.
    fn forward_stacked(&mut self, x: &Tensor, _groups: usize, _train: bool) -> Tensor {
        let a = self.alpha;
        let (y, mask) = Mask::forward(x, |v| if v > 0.0 { v } else { a * v });
        self.mask = Some(mask);
        y
    }

    /// One pass over the mask: `grad_out` where it passes, `alpha` times
    /// it elsewhere.
    fn backprop(&mut self, grad_out: &Tensor, need: Need) -> Option<Tensor> {
        if !need.input() {
            return None;
        }
        let mask = self
            .mask
            .as_ref()
            .expect("LeakyRelu::backward before forward");
        let a = self.alpha;
        Some(mask.select(grad_out, |go| go * a))
    }

    fn release_cache(&mut self) {
        self.mask = None;
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
        // One task per row: a `tanh` costs tens of multiply-adds, so the
        // generator's `(k·b, 784)` output at b = 100 is pool-sized work.
        // Each row runs the vectorized slice body.
        let rows = x.shape().first().copied().unwrap_or(1);
        let row_len = x.len() / rows.max(1);
        let mut data = workspace::take_uninit(x.len());
        parallel_for_chunks(&mut data, rows, row_len * TANH_COST, |i, out| {
            out.copy_from_slice(&x.data()[i * row_len..(i + 1) * row_len]);
            math::tanh_slice(out);
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
        let mut g = workspace::take_uninit(y.len());
        for ((g, &go), &yv) in g.iter_mut().zip(grad_out.data()).zip(y.data()) {
            *g = go * (1.0 - yv * yv);
        }
        Some(Tensor::new(y.shape(), g))
    }

    fn release_cache(&mut self) {
        self.cached_output = None;
    }

    fn name(&self) -> String {
        "Tanh".into()
    }
}

/// Numerically stable scalar sigmoid: `e^{-|x|}` never overflows.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        let e = math::exp(-x);
        1.0 / (1.0 + e)
    } else {
        let e = math::exp(x);
        e / (1.0 + e)
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

    /// The mask-based forwards and backwards of `LeakyRelu` and `Relu`
    /// against the clone-and-map rules they replaced, bit for bit, on every
    /// pairing of special inputs and gradients. `-1e-45` rounds to the
    /// smallest negative subnormal, and `alpha` times it underflows to
    /// `-0.0`.
    #[test]
    fn relu_masks_match_the_old_rules_on_specials() {
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
        // Output, mask and gradient come from the workspace shelf: offer
        // it NaN-filled buffers, so an element a pass left unwritten shows.
        let dirty_shelf = || {
            for _ in 0..4 {
                workspace::recycle(vec![f32::NAN; n * n]);
            }
        };
        let a = 0.2f32;
        let mut l = LeakyRelu::new(a);
        dirty_shelf();
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

        let mut l = Relu::new();
        dirty_shelf();
        let y = l.forward(&Tensor::new(&[n, n], x.clone()), true);
        let g = l.backward(&Tensor::new(&[n, n], go.clone()));
        for (i, (&xv, &gv)) in x.iter().zip(&go).enumerate() {
            let g_old = if xv <= 0.0 { 0.0 } else { gv };
            assert_eq!(
                y.data()[i].to_bits(),
                xv.max(0.0).to_bits(),
                "relu y at x = {xv}"
            );
            assert_eq!(
                g.data()[i].to_bits(),
                g_old.to_bits(),
                "relu g at x = {xv}, go = {gv}"
            );
        }
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
    }
}
