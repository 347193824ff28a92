//! Fully-connected layer.

use crate::init::Init;
use crate::layer::{GradSlot, Layer, Need};
use md_tensor::ops::matmul::{matmul_tn_acc_into, matmul_tn_into};
use md_tensor::rng::Rng64;
use md_tensor::Tensor;

/// `y = x · W + b` with `x: (B, in)`, `W: (in, out)`, `b: (out,)`.
pub struct Dense {
    weight: Tensor,
    bias: Tensor,
    grad_weight: GradSlot,
    grad_bias: GradSlot,
    cached_input: Option<Tensor>,
    in_features: usize,
    out_features: usize,
}

impl Dense {
    /// Creates a dense layer with the given initializer for the weights
    /// (biases start at zero).
    pub fn new(in_features: usize, out_features: usize, init: Init, rng: &mut Rng64) -> Self {
        Dense {
            weight: init.sample(&[in_features, out_features], in_features, out_features, rng),
            bias: Tensor::zeros(&[out_features]),
            grad_weight: GradSlot::default(),
            grad_bias: GradSlot::default(),
            cached_input: None,
            in_features,
            out_features,
        }
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// The one gradient body: `acc` adds the parameter gradients to what
    /// the slots hold (zeros when empty), `!acc` writes them.
    fn gradient(&mut self, grad_out: &Tensor, need: Need, acc: bool) -> Option<Tensor> {
        let x = self
            .cached_input
            .as_ref()
            .expect("Dense::backward before forward");
        let batch = x.shape()[0];
        assert_eq!(
            grad_out.shape(),
            &[batch, self.out_features],
            "Dense grad shape mismatch"
        );
        if need.params() {
            // dW (+)= x^T · dy, straight into the gradient tensor (no
            // temporary): one in-order chain per element, seeded with the
            // old gradient or with 0.0. db (+)= sum_batch dy, accumulated
            // row by row for the same reason.
            let tn = if acc {
                matmul_tn_acc_into
            } else {
                matmul_tn_into
            };
            tn(
                x.data(),
                grad_out.data(),
                self.grad_weight.draw(self.weight.shape(), acc).data_mut(),
                self.in_features,
                batch,
                self.out_features,
            );
            let gb = self.grad_bias.draw(self.bias.shape(), acc).data_mut();
            if !acc {
                gb.fill(0.0);
            }
            for row in grad_out.data().chunks_exact(self.out_features) {
                for (b, &g) in gb.iter_mut().zip(row) {
                    *b += g;
                }
            }
        }
        // dx = dy · W^T.
        need.input().then(|| grad_out.matmul_nt(&self.weight))
    }
}

impl Layer for Dense {
    fn forward_stacked(&mut self, x: &Tensor, _groups: usize, _train: bool) -> Tensor {
        assert_eq!(x.ndim(), 2, "Dense expects (B, in), got {:?}", x.shape());
        assert_eq!(x.shape()[1], self.in_features, "Dense input width mismatch");
        let mut y = x.matmul(&self.weight);
        for row in y.data_mut().chunks_exact_mut(self.out_features) {
            for (v, &b) in row.iter_mut().zip(self.bias.data()) {
                *v += b;
            }
        }
        // Cloned into a shelf buffer (a hit once warm), which goes back to
        // the shelf when the cache is released.
        self.cached_input = Some(x.clone());
        y
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
        format!("Dense({}→{})", self.in_features, self.out_features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_tensor::assert_close;

    #[test]
    fn forward_is_affine() {
        let mut rng = Rng64::seed_from_u64(1);
        let mut layer = Dense::new(3, 2, Init::XavierUniform, &mut rng);
        // Overwrite with known weights.
        layer.params_mut()[0]
            .data_mut()
            .copy_from_slice(&[1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        layer.params_mut()[1]
            .data_mut()
            .copy_from_slice(&[0.5, -0.5]);
        let x = Tensor::new(&[1, 3], vec![1.0, 2.0, 3.0]);
        let y = layer.forward(&x, true);
        // y0 = 1*1 + 2*0 + 3*1 + 0.5 = 4.5 ; y1 = 0 + 2 + 3 - 0.5 = 4.5
        assert_close(y.data(), &[4.5, 4.5], 1e-6);
    }

    #[test]
    fn gradients_match_finite_differences() {
        crate::gradcheck::check_layer(
            |rng| Box::new(Dense::new(4, 3, Init::XavierUniform, rng)),
            &[2, 4],
            1e-2,
            2e-2,
        );
    }

    #[test]
    fn backward_accumulates() {
        let mut rng = Rng64::seed_from_u64(2);
        let mut layer = Dense::new(2, 2, Init::XavierUniform, &mut rng);
        let x = Tensor::ones(&[1, 2]);
        let g = Tensor::ones(&[1, 2]);
        layer.forward(&x, true);
        layer.backward(&g);
        let first = layer.grads()[0].clone();
        layer.forward(&x, true);
        layer.backward(&g);
        let second = layer.grads()[0].clone();
        assert_close(second.data(), first.scale(2.0).data(), 1e-5);
        // Zeroing hands the buffers back; the gradient then reads as zeros.
        layer.zero_grad();
        assert!(layer.grads().is_empty());
        assert!(layer.grads_mut()[0].data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn num_params_counts_weight_and_bias() {
        let mut rng = Rng64::seed_from_u64(3);
        let layer = Dense::new(10, 7, Init::XavierUniform, &mut rng);
        assert_eq!(layer.num_params(), 10 * 7 + 7);
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn rejects_wrong_width() {
        let mut rng = Rng64::seed_from_u64(4);
        let mut layer = Dense::new(3, 2, Init::XavierUniform, &mut rng);
        layer.forward(&Tensor::zeros(&[1, 5]), true);
    }
}
