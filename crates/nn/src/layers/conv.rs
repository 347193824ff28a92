//! Convolution layers wrapping the `md-tensor` kernels.

use crate::init::{conv_fans, Init};
use crate::layer::{GradSlot, Layer, Need};
use md_tensor::ops::conv::{
    conv2d_backward_input_planes, conv2d_backward_planes, conv2d_forward_planes, conv_out_dim,
    conv_transpose2d_backward_input, conv_transpose2d_backward_into, conv_transpose2d_forward,
    conv_transpose_out_dim, ConvPlanes,
};
use md_tensor::rng::Rng64;
use md_tensor::Tensor;

/// 2-D convolution: `(B, C_in, H, W) -> (B, C_out, OH, OW)`.
pub struct Conv2d {
    weight: Tensor, // (out_c, in_c, k, k)
    bias: Tensor,   // (out_c,)
    grad_weight: GradSlot,
    grad_bias: GradSlot,
    /// The input of the last forward pass as the kernels read it: the
    /// phase planes that pass built, kept for the weight gradient.
    planes: Option<ConvPlanes>,
    in_c: usize,
    out_c: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
}

impl Conv2d {
    /// Creates a square-kernel convolution.
    pub fn new(
        in_c: usize,
        out_c: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        init: Init,
        rng: &mut Rng64,
    ) -> Self {
        let (fan_in, fan_out) = conv_fans(out_c, in_c, kernel, kernel);
        Conv2d {
            weight: init.sample(&[out_c, in_c, kernel, kernel], fan_in, fan_out, rng),
            bias: Tensor::zeros(&[out_c]),
            grad_weight: GradSlot::default(),
            grad_bias: GradSlot::default(),
            planes: None,
            in_c,
            out_c,
            kernel,
            stride,
            pad,
        }
    }

    /// Output spatial size for a given input spatial size.
    pub fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (
            conv_out_dim(h, self.kernel, self.stride, self.pad),
            conv_out_dim(w, self.kernel, self.stride, self.pad),
        )
    }

    /// The one gradient body: `acc` adds the parameter gradients to what
    /// the slots hold (zeros when empty), `!acc` writes them.
    fn gradient(&mut self, grad_out: &Tensor, need: Need, acc: bool) -> Option<Tensor> {
        let planes = self
            .planes
            .as_ref()
            .expect("Conv2d::backward before forward");
        if !need.params() {
            return Some(conv2d_backward_input_planes(planes, &self.weight, grad_out));
        }
        // Straight into the slots' buffers — no extra add pass.
        conv2d_backward_planes(
            planes,
            &self.weight,
            grad_out,
            need,
            acc,
            self.grad_weight.draw(self.weight.shape(), acc),
            self.grad_bias.draw(self.bias.shape(), acc),
        )
    }
}

impl Layer for Conv2d {
    fn forward_stacked(&mut self, x: &Tensor, _groups: usize, _train: bool) -> Tensor {
        assert_eq!(x.ndim(), 4, "Conv2d expects (B,C,H,W)");
        assert_eq!(x.shape()[1], self.in_c, "Conv2d channel mismatch");
        // The planes live in a shelf buffer (a hit once warm), which goes
        // back to the shelf when the cache is released.
        let (y, planes) = conv2d_forward_planes(x, &self.weight, &self.bias, self.stride, self.pad);
        self.planes = Some(planes);
        y
    }

    fn backprop(&mut self, grad_out: &Tensor, need: Need) -> Option<Tensor> {
        self.gradient(grad_out, need, true)
    }

    fn backprop_first(&mut self, grad_out: &Tensor, need: Need) -> Option<Tensor> {
        self.gradient(grad_out, need, false)
    }

    fn release_cache(&mut self) {
        self.planes = None;
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn grad_slots(&self) -> Vec<&GradSlot> {
        vec![&self.grad_weight, &self.grad_bias]
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &mut GradSlot)> {
        vec![
            (&mut self.weight, &mut self.grad_weight),
            (&mut self.bias, &mut self.grad_bias),
        ]
    }

    fn name(&self) -> String {
        format!(
            "Conv2d({}→{}, k={}, s={}, p={})",
            self.in_c, self.out_c, self.kernel, self.stride, self.pad
        )
    }
}

/// 2-D transposed convolution (a.k.a. deconvolution):
/// `(B, C_in, H, W) -> (B, C_out, (H-1)*s - 2p + k, ...)`.
///
/// The paper's generators upscale feature maps with these (Keras
/// `Conv2DTranspose`).
pub struct ConvTranspose2d {
    weight: Tensor, // (in_c, out_c, k, k)
    bias: Tensor,   // (out_c,)
    grad_weight: GradSlot,
    grad_bias: GradSlot,
    cached_input: Option<Tensor>,
    in_c: usize,
    out_c: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
}

impl ConvTranspose2d {
    /// Creates a square-kernel transposed convolution.
    pub fn new(
        in_c: usize,
        out_c: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        init: Init,
        rng: &mut Rng64,
    ) -> Self {
        let (fan_in, fan_out) = conv_fans(in_c, out_c, kernel, kernel);
        ConvTranspose2d {
            weight: init.sample(&[in_c, out_c, kernel, kernel], fan_in, fan_out, rng),
            bias: Tensor::zeros(&[out_c]),
            grad_weight: GradSlot::default(),
            grad_bias: GradSlot::default(),
            cached_input: None,
            in_c,
            out_c,
            kernel,
            stride,
            pad,
        }
    }

    /// Output spatial size for a given input spatial size.
    pub fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (
            conv_transpose_out_dim(h, self.kernel, self.stride, self.pad),
            conv_transpose_out_dim(w, self.kernel, self.stride, self.pad),
        )
    }

    /// The one gradient body: `acc` adds the parameter gradients to what
    /// the slots hold (zeros when empty), `!acc` writes them.
    fn gradient(&mut self, grad_out: &Tensor, need: Need, acc: bool) -> Option<Tensor> {
        let x = self
            .cached_input
            .as_ref()
            .expect("ConvTranspose2d::backward before forward");
        let (w, s, p) = (&self.weight, self.stride, self.pad);
        if !need.params() {
            return Some(conv_transpose2d_backward_input(x, w, grad_out, s, p));
        }
        conv_transpose2d_backward_into(
            x,
            w,
            grad_out,
            s,
            p,
            need,
            acc,
            self.grad_weight.draw(w.shape(), acc),
            self.grad_bias.draw(self.bias.shape(), acc),
        )
    }
}

impl Layer for ConvTranspose2d {
    fn forward_stacked(&mut self, x: &Tensor, _groups: usize, _train: bool) -> Tensor {
        assert_eq!(x.ndim(), 4, "ConvTranspose2d expects (B,C,H,W)");
        assert_eq!(x.shape()[1], self.in_c, "ConvTranspose2d channel mismatch");
        // Cloned into a shelf buffer (a hit once warm), which goes back to
        // the shelf when the cache is released.
        self.cached_input = Some(x.clone());
        conv_transpose2d_forward(x, &self.weight, &self.bias, self.stride, self.pad)
    }

    fn backprop(&mut self, grad_out: &Tensor, need: Need) -> Option<Tensor> {
        self.gradient(grad_out, need, true)
    }

    fn backprop_first(&mut self, grad_out: &Tensor, need: Need) -> Option<Tensor> {
        self.gradient(grad_out, need, false)
    }

    fn release_cache(&mut self) {
        self.cached_input = None;
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn grad_slots(&self) -> Vec<&GradSlot> {
        vec![&self.grad_weight, &self.grad_bias]
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &mut GradSlot)> {
        vec![
            (&mut self.weight, &mut self.grad_weight),
            (&mut self.bias, &mut self.grad_bias),
        ]
    }

    fn name(&self) -> String {
        format!(
            "ConvT2d({}→{}, k={}, s={}, p={})",
            self.in_c, self.out_c, self.kernel, self.stride, self.pad
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv2d_shapes() {
        let mut rng = Rng64::seed_from_u64(1);
        let mut l = Conv2d::new(3, 8, 3, 2, 1, Init::HeNormal, &mut rng);
        let x = Tensor::randn(&[2, 3, 8, 8], &mut rng);
        let y = l.forward(&x, true);
        assert_eq!(y.shape(), &[2, 8, 4, 4]);
        assert_eq!(l.out_hw(8, 8), (4, 4));
        let gx = l.backward(&Tensor::ones(y.shape()));
        assert_eq!(gx.shape(), x.shape());
    }

    #[test]
    fn conv_t_shapes_upscale() {
        let mut rng = Rng64::seed_from_u64(2);
        let mut l = ConvTranspose2d::new(8, 4, 4, 2, 1, Init::HeNormal, &mut rng);
        let x = Tensor::randn(&[2, 8, 4, 4], &mut rng);
        let y = l.forward(&x, true);
        assert_eq!(y.shape(), &[2, 4, 8, 8]);
        let gx = l.backward(&Tensor::ones(y.shape()));
        assert_eq!(gx.shape(), x.shape());
    }

    #[test]
    fn gradcheck_conv2d() {
        crate::gradcheck::check_layer(
            |rng| Box::new(Conv2d::new(2, 3, 3, 1, 1, Init::XavierUniform, rng)),
            &[2, 2, 4, 4],
            1e-2,
            3e-2,
        );
    }

    #[test]
    fn gradcheck_conv_transpose2d() {
        crate::gradcheck::check_layer(
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
            1e-2,
            3e-2,
        );
    }

    #[test]
    fn param_counts() {
        let mut rng = Rng64::seed_from_u64(3);
        let c = Conv2d::new(16, 32, 3, 1, 1, Init::HeNormal, &mut rng);
        assert_eq!(c.num_params(), 32 * 16 * 9 + 32);
        let t = ConvTranspose2d::new(16, 8, 5, 2, 2, Init::HeNormal, &mut rng);
        assert_eq!(t.num_params(), 16 * 8 * 25 + 8);
    }
}
