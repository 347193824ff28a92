//! The Adam optimizer.
//!
//! The paper trains every competitor with Adam \[16\]; its CelebA experiment
//! gives MD-GAN and the baselines *different* Adam hyper-parameters, which
//! is why [`AdamConfig`] is a first-class value.

use crate::layer::Layer;
use crate::layers::Sequential;
use md_tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::iter;

/// Hyper-parameters of the Adam optimizer.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct AdamConfig {
    /// Learning rate `α`.
    pub lr: f32,
    /// First-moment decay `β₁`.
    pub beta1: f32,
    /// Second-moment decay `β₂`.
    pub beta2: f32,
    /// Numerical fuzz `ε`.
    pub eps: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            lr: 2e-4,
            beta1: 0.5,
            beta2: 0.999,
            eps: 1e-8,
        }
    }
}

impl AdamConfig {
    /// The paper's CelebA generator setting for MD-GAN
    /// (α=0.001, β₁=0.0, β₂=0.9).
    pub fn mdgan_celeba_generator() -> Self {
        AdamConfig {
            lr: 1e-3,
            beta1: 0.0,
            beta2: 0.9,
            eps: 1e-8,
        }
    }

    /// The paper's CelebA discriminator setting for MD-GAN
    /// (α=0.004, β₁=0.0, β₂=0.9).
    pub fn mdgan_celeba_discriminator() -> Self {
        AdamConfig {
            lr: 4e-3,
            beta1: 0.0,
            beta2: 0.9,
            eps: 1e-8,
        }
    }

    /// The paper's CelebA generator setting for standalone / FL-GAN
    /// (α=0.003, β₁=0.5, β₂=0.999).
    pub fn baseline_celeba_generator() -> Self {
        AdamConfig {
            lr: 3e-3,
            beta1: 0.5,
            beta2: 0.999,
            eps: 1e-8,
        }
    }

    /// The paper's CelebA discriminator setting for standalone / FL-GAN
    /// (α=0.002, β₁=0.5, β₂=0.999).
    pub fn baseline_celeba_discriminator() -> Self {
        AdamConfig {
            lr: 2e-3,
            beta1: 0.5,
            beta2: 0.999,
            eps: 1e-8,
        }
    }
}

/// Serializable snapshot of an [`Adam`] optimizer: the step counter plus
/// the first/second moments flattened in network parameter order — exactly
/// what a checkpoint needs to resume training bit-identically.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AdamState {
    /// Steps taken (`t` in the bias-correction terms).
    pub t: u64,
    /// First moments, flattened (empty before the first step).
    pub m: Vec<f32>,
    /// Second moments, flattened (empty before the first step).
    pub v: Vec<f32>,
}

/// Adam optimizer state bound to one network's parameter layout.
pub struct Adam {
    cfg: AdamConfig,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates an optimizer; moment buffers are allocated lazily on the
    /// first step.
    pub fn new(cfg: AdamConfig) -> Self {
        Adam {
            cfg,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> AdamConfig {
        self.cfg
    }

    /// Number of steps taken.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.cfg.lr
    }

    /// Overrides the learning rate (recovery policies drop it after a
    /// divergence rollback).
    pub fn set_lr(&mut self, lr: f32) {
        self.cfg.lr = lr;
    }

    /// Snapshots the full optimizer state for checkpointing.
    pub fn export_state(&self) -> AdamState {
        AdamState {
            t: self.t,
            m: self
                .m
                .iter()
                .flat_map(|t| t.data().iter().copied())
                .collect(),
            v: self
                .v
                .iter()
                .flat_map(|t| t.data().iter().copied())
                .collect(),
        }
    }

    /// Restores a snapshot taken by [`Adam::export_state`]. The moment
    /// buffers are re-shaped against `net`, which must have the parameter
    /// layout of the network the snapshot was taken with.
    ///
    /// # Errors
    /// Returns a message when the flattened moment lengths do not match
    /// `net`'s parameter count (empty moments — a pre-first-step snapshot —
    /// are always valid and reset the lazy buffers).
    pub fn import_state(&mut self, state: &AdamState, net: &Sequential) -> Result<(), String> {
        if state.m.len() != state.v.len() {
            return Err(format!(
                "Adam moment lengths disagree: m={} v={}",
                state.m.len(),
                state.v.len()
            ));
        }
        if state.m.is_empty() {
            self.t = state.t;
            self.m.clear();
            self.v.clear();
            return Ok(());
        }
        let expect: usize = net.params().iter().map(|p| p.len()).sum();
        if state.m.len() != expect {
            return Err(format!(
                "Adam moment length {} != network parameter count {expect}",
                state.m.len()
            ));
        }
        let mut m = Vec::new();
        let mut v = Vec::new();
        let mut off = 0;
        for p in net.params() {
            let n = p.len();
            m.push(Tensor::new(p.shape(), state.m[off..off + n].to_vec()));
            v.push(Tensor::new(p.shape(), state.v[off..off + n].to_vec()));
            off += n;
        }
        self.t = state.t;
        self.m = m;
        self.v = v;
        Ok(())
    }

    /// Applies one Adam update using the gradients accumulated in `net`
    /// (a layer that got none steps on zeros), then releases them
    /// ([`Layer::release_grads`]): the step is where a gradient ends.
    pub fn step(&mut self, net: &mut Sequential) {
        self.t += 1;
        let t = self.t as i32;
        let cfg = self.cfg;
        let bc1 = 1.0 - cfg.beta1.powi(t);
        let bc2 = 1.0 - cfg.beta2.powi(t);
        let (m, v) = (&mut self.m, &mut self.v);
        net.visit_params_and_grads(|idx, p, g| {
            if m.len() <= idx {
                m.push(Tensor::zeros(p.shape()));
                v.push(Tensor::zeros(p.shape()));
            }
            assert_eq!(
                m[idx].shape(),
                p.shape(),
                "Adam state shape drift at param {idx}"
            );
            let update = |((pv, gv), (mv, vv)): ((&mut f32, f32), (&mut f32, &mut f32))| {
                *mv = cfg.beta1 * *mv + (1.0 - cfg.beta1) * gv;
                *vv = cfg.beta2 * *vv + (1.0 - cfg.beta2) * gv * gv;
                let mhat = *mv / bc1;
                let vhat = *vv / bc2;
                *pv -= cfg.lr * mhat / (vhat.sqrt() + cfg.eps);
            };
            let moments = m[idx].data_mut().iter_mut().zip(v[idx].data_mut());
            let p = p.data_mut().iter_mut();
            match g {
                Some(g) => p
                    .zip(g.data().iter().copied())
                    .zip(moments)
                    .for_each(update),
                None => p.zip(iter::repeat(0.0)).zip(moments).for_each(update),
            }
        });
        net.release_grads();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Init;
    use crate::layer::Layer;
    use crate::layers::Dense;
    use crate::loss::mse;
    use md_tensor::rng::Rng64;

    fn one_layer(rng: &mut Rng64) -> Sequential {
        Sequential::new().push(Dense::new(2, 1, Init::XavierUniform, rng))
    }

    /// Trains y = 2*x0 - 3*x1 + 1; loss must drop by >90%.
    fn fit(opt_step: &mut dyn FnMut(&mut Sequential), rng: &mut Rng64) -> (f32, f32) {
        let mut net = one_layer(rng);
        let xs = Tensor::randn(&[64, 2], rng);
        let ys = Tensor::new(
            &[64, 1],
            (0..64)
                .map(|i| 2.0 * xs.at(&[i, 0]) - 3.0 * xs.at(&[i, 1]) + 1.0)
                .collect(),
        );
        let mut first = 0.0;
        let mut last = 0.0;
        for it in 0..300 {
            let pred = net.forward(&xs, true);
            let (loss, grad) = mse(&pred, &ys);
            if it == 0 {
                first = loss;
            }
            last = loss;
            net.zero_grad();
            net.backward(&grad);
            opt_step(&mut net);
        }
        (first, last)
    }

    #[test]
    fn adam_fits_linear_regression() {
        let mut rng = Rng64::seed_from_u64(1);
        let mut adam = Adam::new(AdamConfig {
            lr: 0.05,
            ..AdamConfig::default()
        });
        let (first, last) = fit(&mut |n| adam.step(n), &mut rng);
        assert!(last < 0.05 * first, "loss {first} -> {last}");
    }

    #[test]
    fn adam_first_step_size_is_lr() {
        // With bias correction, |Δp| of the very first step ≈ lr for any
        // nonzero gradient (a well-known Adam property).
        let mut rng = Rng64::seed_from_u64(3);
        let mut net = one_layer(&mut rng);
        let before = net.get_params_flat();
        let x = Tensor::ones(&[1, 2]);
        let y = net.forward(&x, true);
        net.zero_grad();
        net.backward(&Tensor::ones(y.shape()));
        // The gradient as the step consumes it: the step releases it.
        let grads = net.get_grads_flat();
        assert!(
            grads.iter().any(|g| g.abs() > 1e-6),
            "no gradient to step on"
        );
        let mut adam = Adam::new(AdamConfig {
            lr: 0.01,
            eps: 0.0,
            ..AdamConfig::default()
        });
        adam.step(&mut net);
        let after = net.get_params_flat();
        for ((b, a), g) in before.iter().zip(&after).zip(&grads) {
            if g.abs() > 1e-6 {
                assert!(
                    ((b - a).abs() - 0.01).abs() < 1e-4,
                    "step size {}",
                    (b - a).abs()
                );
            }
        }
        assert_eq!(adam.steps(), 1);
    }

    #[test]
    fn adam_state_roundtrip_resumes_bit_identically() {
        // Train A for 10 steps, snapshot, train 10 more; B resumes from the
        // snapshot and must match A parameter-for-parameter (bitwise).
        let mut rng = Rng64::seed_from_u64(5);
        let mut net_a = one_layer(&mut rng);
        let xs = Tensor::randn(&[16, 2], &mut rng);
        let ys = Tensor::randn(&[16, 1], &mut rng);
        let mut adam_a = Adam::new(AdamConfig::default());
        let do_step = |net: &mut Sequential, adam: &mut Adam| {
            let pred = net.forward(&xs, true);
            let (_, grad) = mse(&pred, &ys);
            net.zero_grad();
            net.backward(&grad);
            adam.step(net);
        };
        for _ in 0..10 {
            do_step(&mut net_a, &mut adam_a);
        }
        let snap_params = net_a.get_params_flat();
        let snap_opt = adam_a.export_state();
        assert_eq!(snap_opt.t, 10);
        assert_eq!(snap_opt.m.len(), net_a.num_params());

        let mut rng_b = Rng64::seed_from_u64(999);
        let mut net_b = one_layer(&mut rng_b);
        net_b.set_params_flat(&snap_params);
        let mut adam_b = Adam::new(AdamConfig::default());
        adam_b.import_state(&snap_opt, &net_b).unwrap();
        for _ in 0..10 {
            do_step(&mut net_a, &mut adam_a);
            do_step(&mut net_b, &mut adam_b);
        }
        assert_eq!(net_a.get_params_flat(), net_b.get_params_flat());
        assert_eq!(adam_a.export_state(), adam_b.export_state());
    }

    #[test]
    fn adam_import_rejects_mismatched_layout() {
        let mut rng = Rng64::seed_from_u64(6);
        let net = one_layer(&mut rng);
        let mut adam = Adam::new(AdamConfig::default());
        let bad = AdamState {
            t: 3,
            m: vec![0.0; 5],
            v: vec![0.0; 5],
        };
        assert!(adam.import_state(&bad, &net).is_err());
        let lopsided = AdamState {
            t: 1,
            m: vec![0.0; 3],
            v: vec![0.0; 2],
        };
        assert!(adam.import_state(&lopsided, &net).is_err());
        // Pre-first-step snapshots are valid and reset the lazy buffers.
        let fresh = AdamState::default();
        adam.import_state(&fresh, &net).unwrap();
        assert_eq!(adam.steps(), 0);
    }

    #[test]
    fn zero_gradient_leaves_params_nearly_fixed() {
        let mut rng = Rng64::seed_from_u64(4);
        let mut net = one_layer(&mut rng);
        let before = net.get_params_flat();
        net.zero_grad();
        let mut adam = Adam::new(AdamConfig::default());
        adam.step(&mut net);
        let after = net.get_params_flat();
        for (b, a) in before.iter().zip(&after) {
            assert!((b - a).abs() < 1e-6);
        }
    }

    #[test]
    fn paper_celeba_configs_match_text() {
        let g = AdamConfig::mdgan_celeba_generator();
        assert_eq!((g.lr, g.beta1, g.beta2), (1e-3, 0.0, 0.9));
        let d = AdamConfig::baseline_celeba_discriminator();
        assert_eq!((d.lr, d.beta1, d.beta2), (2e-3, 0.5, 0.999));
    }
}
