//! Batch normalization for dense `(B, F)` and convolutional `(B, C, H, W)`
//! activations (per-feature / per-channel statistics).

use crate::layer::{GradSlot, Layer, Need};
use md_tensor::workspace;
use md_tensor::Tensor;

/// Batch normalization (Ioffe & Szegedy) with learnable scale/shift and
/// running statistics for inference.
///
/// DCGAN-style generators (the paper's CNN generators) interleave these with
/// transposed convolutions.
pub struct BatchNorm {
    gamma: Tensor,
    beta: Tensor,
    grad_gamma: GradSlot,
    grad_beta: GradSlot,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    eps: f32,
    features: usize,
    // Caches for backward.
    cache: Option<BnCache>,
}

struct BnCache {
    xhat: Tensor,
    /// `inv_std[g * features + c]` of batch `g`, channel `c`.
    inv_std: Vec<f32>,
    input_shape: Vec<usize>,
    groups: usize,
    train: bool,
}

impl BatchNorm {
    /// Creates a batch-norm layer over `features` channels.
    pub fn new(features: usize) -> Self {
        BatchNorm {
            gamma: Tensor::ones(&[features]),
            beta: Tensor::zeros(&[features]),
            grad_gamma: GradSlot::default(),
            grad_beta: GradSlot::default(),
            running_mean: vec![0.0; features],
            running_var: vec![1.0; features],
            momentum: 0.9,
            eps: 1e-5,
            features,
            cache: None,
        }
    }

    /// Number of normalized features/channels.
    pub fn features(&self) -> usize {
        self.features
    }

    /// Running mean and variance per channel: what inference mode
    /// normalizes with, moved one EMA step per training-mode batch.
    pub fn running_stats(&self) -> (&[f32], &[f32]) {
        (&self.running_mean, &self.running_var)
    }

    /// `(rows, elements per row and channel)` of a `(B,F)` or `(B,C,H,W)`
    /// input.
    fn check_shape(&self, x: &Tensor) -> (usize, usize) {
        match x.ndim() {
            2 => {
                assert_eq!(x.shape()[1], self.features, "BatchNorm feature mismatch");
                (x.shape()[0], 1)
            }
            4 => {
                assert_eq!(x.shape()[1], self.features, "BatchNorm channel mismatch");
                (x.shape()[0], x.shape()[2] * x.shape()[3])
            }
            _ => panic!("BatchNorm expects (B,F) or (B,C,H,W), got {:?}", x.shape()),
        }
    }

    /// Iterates channel `c`'s elements over `rows` of a `(B,F)` or
    /// `(B,C,H,W)` tensor.
    fn for_channel(
        rows: std::ops::Range<usize>,
        c_total: usize,
        hw: usize,
        c: usize,
        mut f: impl FnMut(usize),
    ) {
        for bi in rows {
            let base = (bi * c_total + c) * hw;
            for i in base..base + hw {
                f(i);
            }
        }
    }

    /// The one gradient body: `acc` adds the parameter gradients to what
    /// the slots hold (zeros when empty), `!acc` adds them to zero.
    fn gradient(&mut self, grad_out: &Tensor, need: Need, acc: bool) -> Option<Tensor> {
        let cache = self
            .cache
            .as_ref()
            .expect("BatchNorm::backward before forward");
        assert_eq!(
            grad_out.shape(),
            &cache.input_shape[..],
            "BatchNorm grad shape mismatch"
        );
        let hw = if cache.input_shape.len() == 4 {
            cache.input_shape[2] * cache.input_shape[3]
        } else {
            1
        };
        let b = cache.input_shape[0] / cache.groups;
        let c_total = self.features;
        let m = (b * hw) as f32;
        // Every element is written below.
        let mut gx = need.input().then(|| workspace::take_uninit(grad_out.len()));
        let dy = grad_out.data();
        let xh = cache.xhat.data();
        let mut grads = need.params().then(|| {
            let gg = self.grad_gamma.draw(self.gamma.shape(), acc).data_mut();
            let gb = self.grad_beta.draw(self.beta.shape(), acc).data_mut();
            if !acc {
                // `features` values each: filled, then accumulated group by
                // group below, so a sum of -0.0 lands as it does after a
                // sweep.
                gg.fill(0.0);
                gb.fill(0.0);
            }
            (gg, gb)
        });

        for g in 0..cache.groups {
            let batch = g * b..(g + 1) * b;
            for c in 0..c_total {
                let ga = self.gamma.data()[c];
                let inv_std = cache.inv_std[g * c_total + c];

                // The two sums are the parameter gradients and, in training
                // mode, also terms of dx; eval-mode dx alone needs neither.
                let mut sum_dy = 0.0f32;
                let mut sum_dy_xhat = 0.0f32;
                if need.params() || cache.train {
                    Self::for_channel(batch.clone(), c_total, hw, c, |i| {
                        sum_dy += dy[i];
                        sum_dy_xhat += dy[i] * xh[i];
                    });
                }
                if let Some((gg, gb)) = &mut grads {
                    gg[c] += sum_dy_xhat;
                    gb[c] += sum_dy;
                }

                let Some(gxd) = &mut gx else { continue };
                if cache.train {
                    // dx = (gamma * inv_std / m) * (m*dy - sum_dy - xhat * sum_dy_xhat)
                    Self::for_channel(batch.clone(), c_total, hw, c, |i| {
                        gxd[i] = (ga * inv_std / m) * (m * dy[i] - sum_dy - xh[i] * sum_dy_xhat);
                    });
                } else {
                    // Eval mode: running stats are constants.
                    Self::for_channel(batch.clone(), c_total, hw, c, |i| {
                        gxd[i] = ga * inv_std * dy[i];
                    });
                }
            }
        }
        gx.map(|gx| Tensor::new(grad_out.shape(), gx))
    }
}

impl Layer for BatchNorm {
    /// Each of the `groups` stacked batches is normalized with its own
    /// statistics, and the running statistics take one EMA step per batch,
    /// in batch order.
    fn forward_stacked(&mut self, x: &Tensor, groups: usize, train: bool) -> Tensor {
        let (rows, hw) = self.check_shape(x);
        assert!(
            groups >= 1 && rows.is_multiple_of(groups),
            "BatchNorm: {rows} rows do not split into {groups} equal batches"
        );
        let b = rows / groups;
        let c_total = self.features;
        let m = (b * hw) as f32;
        // Every element of both is written below.
        let mut y = workspace::take_uninit(x.len());
        let mut xhat = workspace::take_uninit(x.len());
        let mut inv_stds = vec![0.0f32; groups * c_total];
        let xd = x.data();

        for g in 0..groups {
            let batch = g * b..(g + 1) * b;
            for c in 0..c_total {
                let (mean, var) = if train {
                    let mut sum = 0.0f32;
                    Self::for_channel(batch.clone(), c_total, hw, c, |i| sum += xd[i]);
                    let mean = sum / m;
                    let mut sq = 0.0f32;
                    Self::for_channel(batch.clone(), c_total, hw, c, |i| {
                        let d = xd[i] - mean;
                        sq += d * d;
                    });
                    let var = sq / m;
                    self.running_mean[c] =
                        self.momentum * self.running_mean[c] + (1.0 - self.momentum) * mean;
                    self.running_var[c] =
                        self.momentum * self.running_var[c] + (1.0 - self.momentum) * var;
                    (mean, var)
                } else {
                    (self.running_mean[c], self.running_var[c])
                };
                let inv_std = 1.0 / (var + self.eps).sqrt();
                inv_stds[g * c_total + c] = inv_std;
                let ga = self.gamma.data()[c];
                let be = self.beta.data()[c];
                Self::for_channel(batch.clone(), c_total, hw, c, |i| {
                    xhat[i] = (xd[i] - mean) * inv_std;
                    y[i] = ga * xhat[i] + be;
                });
            }
        }
        self.cache = Some(BnCache {
            xhat: Tensor::new(x.shape(), xhat),
            inv_std: inv_stds,
            input_shape: x.shape().to_vec(),
            groups,
            train,
        });
        Tensor::new(x.shape(), y)
    }

    fn backprop(&mut self, grad_out: &Tensor, need: Need) -> Option<Tensor> {
        self.gradient(grad_out, need, true)
    }

    fn backprop_first(&mut self, grad_out: &Tensor, need: Need) -> Option<Tensor> {
        self.gradient(grad_out, need, false)
    }

    fn release_cache(&mut self) {
        self.cache = None;
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.gamma, &self.beta]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn grad_slots(&self) -> Vec<&GradSlot> {
        vec![&self.grad_gamma, &self.grad_beta]
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &mut GradSlot)> {
        vec![
            (&mut self.gamma, &mut self.grad_gamma),
            (&mut self.beta, &mut self.grad_beta),
        ]
    }

    fn name(&self) -> String {
        format!("BatchNorm({})", self.features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_tensor::rng::Rng64;

    #[test]
    fn normalizes_batch_statistics() {
        let mut rng = Rng64::seed_from_u64(1);
        let mut bn = BatchNorm::new(3);
        let x = Tensor::randn(&[64, 3], &mut rng).scale(5.0).add_scalar(2.0);
        let y = bn.forward(&x, true);
        // Each output column should be ~N(0,1) (gamma=1, beta=0 initially).
        for c in 0..3 {
            let col: Vec<f32> = (0..64).map(|i| y.at(&[i, c])).collect();
            let mean: f32 = col.iter().sum::<f32>() / 64.0;
            let var: f32 = col.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 64.0;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn conv_mode_normalizes_per_channel() {
        let mut rng = Rng64::seed_from_u64(2);
        let mut bn = BatchNorm::new(2);
        let x = Tensor::randn(&[8, 2, 4, 4], &mut rng).scale(3.0);
        let y = bn.forward(&x, true);
        assert_eq!(y.shape(), x.shape());
        // Channel 0 stats over batch+space:
        let mut vals = Vec::new();
        for bi in 0..8 {
            for i in 0..4 {
                for j in 0..4 {
                    vals.push(y.at(&[bi, 0, i, j]));
                }
            }
        }
        let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
        assert!(mean.abs() < 1e-4);
    }

    #[test]
    fn running_stats_track_batches() {
        let mut rng = Rng64::seed_from_u64(3);
        let mut bn = BatchNorm::new(1);
        // Feed constant-distribution batches; running mean should approach 4.
        for _ in 0..60 {
            let x = Tensor::randn(&[32, 1], &mut rng).add_scalar(4.0);
            bn.forward(&x, true);
        }
        assert!(
            (bn.running_mean[0] - 4.0).abs() < 0.3,
            "running mean {}",
            bn.running_mean[0]
        );
        // Eval mode should now roughly standardize using running stats.
        let x = Tensor::randn(&[32, 1], &mut rng).add_scalar(4.0);
        let y = bn.forward(&x, false);
        assert!(y.mean().abs() < 0.5);
    }

    #[test]
    fn gradcheck_train_mode() {
        crate::gradcheck::check_layer(|_| Box::new(BatchNorm::new(3)), &[6, 3], 1e-2, 3e-2);
    }

    #[test]
    fn gradcheck_conv_mode() {
        crate::gradcheck::check_layer(|_| Box::new(BatchNorm::new(2)), &[3, 2, 3, 3], 1e-2, 3e-2);
    }

    #[test]
    #[should_panic(expected = "feature mismatch")]
    fn rejects_wrong_features() {
        let mut bn = BatchNorm::new(3);
        bn.forward(&Tensor::zeros(&[2, 4]), true);
    }
}
