//! GAN-specific wrappers and objectives.
//!
//! The paper trains ACGAN \[19\]: the generator is conditioned on a class
//! label, and the discriminator has `1 + C` outputs — one *source* logit
//! ("is this real?") plus `C` class logits. Setting `num_classes = 0`
//! recovers a plain unconditional GAN (the CelebA architecture in the
//! paper has a single output neuron).
//!
//! Loss conventions (everything is *minimized*):
//! * Discriminator: `-Ã - B̃` in the paper's notation, i.e. BCE of the
//!   source logit toward 1 on real and 0 on generated data, plus the ACGAN
//!   auxiliary class cross-entropy on both.
//! * Generator, [`GenLossMode::Minimax`]: exactly the paper's
//!   `J_gen = B̃ = mean log(1 − D(G(z)))` (natural log).
//! * Generator, [`GenLossMode::NonSaturating`]: `-mean log D(G(z))`, the
//!   standard fix for early-training gradient vanishing (Goodfellow et al.
//!   §3); this is what Keras ACGAN implementations — including the ones the
//!   paper builds on — use in practice, and it is our experimental default.
//!
//! The gradient that [`gen_loss`] returns (w.r.t. the discriminator
//! *logits*) is what a worker backpropagates through its discriminator to
//! produce the error feedback `F_n = ∂B̃/∂x` of Algorithm 1, line 9.

use crate::layer::{Layer, Need};
use crate::layers::sigmoid;
use crate::layers::Sequential;
use crate::loss::softmax_cross_entropy;
use md_tensor::math;
use md_tensor::rng::Rng64;
use md_tensor::workspace;
use md_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Which generator objective to descend.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum GenLossMode {
    /// The paper's literal `J_gen = mean log(1 − σ(s))` (minimized).
    Minimax,
    /// The non-saturating variant `−mean log σ(s)` (minimized).
    NonSaturating,
}

/// A (possibly class-conditional) generator: noise `z` (+ one-hot label)
/// in, data out.
pub struct Generator {
    /// The underlying network, mapping `(B, latent + C)` to data space.
    pub net: Sequential,
    /// Noise dimension `ℓ`.
    pub latent_dim: usize,
    /// Number of condition classes (0 = unconditional).
    pub num_classes: usize,
}

impl Generator {
    /// Wraps a network whose input width must be `latent_dim + num_classes`.
    pub fn new(net: Sequential, latent_dim: usize, num_classes: usize) -> Self {
        Generator {
            net,
            latent_dim,
            num_classes,
        }
    }

    /// Total scalar parameters `|w|`.
    pub fn num_params(&self) -> usize {
        self.net.num_params()
    }

    /// Samples a `(b, ℓ)` standard-normal noise batch — the paper's
    /// `z ∼ N^ℓ`.
    pub fn sample_z(&self, b: usize, rng: &mut Rng64) -> Tensor {
        Tensor::randn(&[b, self.latent_dim], rng)
    }

    /// Samples `b` uniform class labels (empty when unconditional).
    pub fn sample_labels(&self, b: usize, rng: &mut Rng64) -> Vec<usize> {
        if self.num_classes == 0 {
            Vec::new()
        } else {
            (0..b).map(|_| rng.below(self.num_classes)).collect()
        }
    }

    /// Concatenates noise and one-hot labels into the network input.
    fn make_input(&self, z: &Tensor, labels: &[usize]) -> Tensor {
        assert_eq!(z.ndim(), 2, "noise must be (B, latent)");
        assert_eq!(z.shape()[1], self.latent_dim, "noise width mismatch");
        if self.num_classes == 0 {
            assert!(
                labels.is_empty(),
                "labels supplied to an unconditional generator"
            );
            return z.clone();
        }
        let b = z.shape()[0];
        assert_eq!(labels.len(), b, "one label per noise vector required");
        let width = self.latent_dim + self.num_classes;
        let mut data = workspace::take_zeroed(b * width);
        for i in 0..b {
            data[i * width..i * width + self.latent_dim].copy_from_slice(z.row(i));
            assert!(labels[i] < self.num_classes, "label out of range");
            data[i * width + self.latent_dim + labels[i]] = 1.0;
        }
        Tensor::new(&[b, width], data)
    }

    /// Runs the generator forward, caching activations for
    /// [`Generator::backward`].
    pub fn generate(&mut self, z: &Tensor, labels: &[usize], train: bool) -> Tensor {
        self.generate_stacked(z, labels, 1, train)
    }

    /// [`Generator::generate`] for `groups` equal batches whose noise rows
    /// (and labels) are stacked in batch order: one pass whose output rows,
    /// and whose one [`Generator::backward`], are bit-for-bit those of one
    /// pass per batch (see [`Layer::forward_stacked`]).
    pub fn generate_stacked(
        &mut self,
        z: &Tensor,
        labels: &[usize],
        groups: usize,
        train: bool,
    ) -> Tensor {
        let input = self.make_input(z, labels);
        self.net.forward_stacked(&input, groups, train)
    }

    /// Backpropagates a gradient w.r.t. the generated data, accumulating
    /// parameter gradients. This is the server-side half of the MD-GAN
    /// update: the incoming `grad_data` is (an average of) worker feedbacks.
    /// Nobody reads `∂L/∂z`, so the first layer's input gradient is not
    /// computed.
    pub fn backward(&mut self, grad_data: &Tensor) {
        self.net.backward_params(grad_data);
    }

    /// [`Generator::backward`] as the first gradient call of a step: the
    /// parameter gradients are written, not added to
    /// ([`Layer::backprop_first`]).
    pub fn backward_first(&mut self, grad_data: &Tensor) {
        self.net.backprop_first(grad_data, Need::Params);
    }
}

/// A (possibly auxiliary-classifying) discriminator.
pub struct Discriminator {
    /// The underlying network, mapping data to `(B, 1 + C)` logits.
    pub net: Sequential,
    /// Number of auxiliary classes (0 = source logit only).
    pub num_classes: usize,
}

impl Discriminator {
    /// Wraps a network whose output width must be `1 + num_classes`.
    pub fn new(net: Sequential, num_classes: usize) -> Self {
        Discriminator { net, num_classes }
    }

    /// Total scalar parameters `|θ|`.
    pub fn num_params(&self) -> usize {
        self.net.num_params()
    }

    /// Forward pass to logits.
    pub fn forward(&mut self, data: &Tensor, train: bool) -> Tensor {
        let logits = self.net.forward(data, train);
        assert_eq!(
            logits.shape()[1],
            1 + self.num_classes,
            "discriminator must output 1 + num_classes logits"
        );
        logits
    }

    /// Backward pass from logit gradients to data gradients, accumulating
    /// parameter gradients.
    pub fn backward(&mut self, grad_logits: &Tensor) -> Tensor {
        self.net.backward(grad_logits)
    }

    /// Data gradients alone — the error feedback `F_n = ∂B̃/∂x` of
    /// Algorithm 1 line 9 (and the gradient a generator step pushes into
    /// `G`). No weight-gradient product runs and the accumulated parameter
    /// gradients are left as they are.
    pub fn backward_input(&mut self, grad_logits: &Tensor) -> Tensor {
        self.net.backward_input(grad_logits)
    }

    /// Parameter gradients alone — a learning step on a batch whose image
    /// gradient nobody reads (`X_r`, `X_d`).
    pub fn backward_params(&mut self, grad_logits: &Tensor) {
        self.net.backward_params(grad_logits);
    }

    /// The gradient of one discriminator learning step (Algorithm 1 lines
    /// 5–8, before clipping and the optimizer): leaves
    /// `∂(disc_loss_real(x_real) + disc_loss_fake(x_fake))/∂θ` in the
    /// parameter gradients, **overwriting** them, and returns the two
    /// losses `(real, fake)`.
    ///
    /// Batches of one shape run as a single pass over the stack
    /// `(x_real; x_fake)` — one forward, the two losses on the two halves
    /// of the logits, one gradient call. That is bit for bit the two passes
    /// one after the other (see [`Layer::forward_stacked`]), which is what
    /// runs when the shapes differ (a shard smaller than the batch size
    /// samples short).
    pub fn learn_step(
        &mut self,
        x_real: &Tensor,
        y_real: &[usize],
        x_fake: &Tensor,
        y_fake: &[usize],
        aux_weight: f32,
    ) -> (f32, f32) {
        let classes = self.num_classes;
        if x_real.shape() == x_fake.shape() {
            let stack = Tensor::concat0(&[x_real, x_fake]);
            let logits = self.net.forward_stacked(&stack, 2, true).into_split0(2);
            let (loss_r, grad_r) = disc_loss_real(&logits[0], y_real, classes, aux_weight);
            let (loss_f, grad_f) = disc_loss_fake(&logits[1], y_fake, classes, aux_weight);
            let grad = Tensor::concat0(&[grad_r, grad_f]);
            self.net.backprop_first(&grad, Need::Params);
            (loss_r, loss_f)
        } else {
            let logits = self.forward(x_real, true);
            let (loss_r, grad_r) = disc_loss_real(&logits, y_real, classes, aux_weight);
            self.net.backprop_first(&grad_r, Need::Params);
            let logits = self.forward(x_fake, true);
            let (loss_f, grad_f) = disc_loss_fake(&logits, y_fake, classes, aux_weight);
            self.net.backprop(&grad_f, Need::Params);
            (loss_r, loss_f)
        }
    }
}

/// Splits `(B, 1+C)` logits into the source column and the class block.
fn split_logits(logits: &Tensor, num_classes: usize) -> (Vec<f32>, Option<Tensor>) {
    assert_eq!(logits.ndim(), 2, "logits must be 2-D");
    let (b, w) = (logits.shape()[0], logits.shape()[1]);
    assert_eq!(w, 1 + num_classes, "logit width mismatch");
    let mut src = Vec::with_capacity(b);
    for i in 0..b {
        src.push(logits.row(i)[0]);
    }
    let cls = if num_classes > 0 {
        let mut data = workspace::take_raw(b * num_classes);
        for i in 0..b {
            data.extend_from_slice(&logits.row(i)[1..]);
        }
        Some(Tensor::new(&[b, num_classes], data))
    } else {
        None
    };
    (src, cls)
}

/// Reassembles source/class gradients into a `(B, 1+C)` gradient.
fn merge_grads(src: &[f32], cls: Option<&Tensor>, num_classes: usize) -> Tensor {
    let b = src.len();
    let w = 1 + num_classes;
    let mut data = workspace::take_zeroed(b * w);
    for i in 0..b {
        data[i * w] = src[i];
        if let Some(c) = cls {
            data[i * w + 1..(i + 1) * w].copy_from_slice(c.row(i));
        }
    }
    Tensor::new(&[b, w], data)
}

/// Discriminator objective on one batch of *real* data.
///
/// Loss = BCE(source → 1) + `aux_weight` · CE(class → label). Returns
/// `(loss, ∂loss/∂logits)`.
pub fn disc_loss_real(
    logits: &Tensor,
    labels: &[usize],
    num_classes: usize,
    aux_weight: f32,
) -> (f32, Tensor) {
    disc_loss_side(logits, labels, num_classes, aux_weight, 1.0)
}

/// Discriminator objective on one batch of *generated* data
/// (source target 0). In ACGAN the auxiliary head is also trained on the
/// sampled fake labels.
pub fn disc_loss_fake(
    logits: &Tensor,
    labels: &[usize],
    num_classes: usize,
    aux_weight: f32,
) -> (f32, Tensor) {
    disc_loss_side(logits, labels, num_classes, aux_weight, 0.0)
}

fn disc_loss_side(
    logits: &Tensor,
    labels: &[usize],
    num_classes: usize,
    aux_weight: f32,
    source_target: f32,
) -> (f32, Tensor) {
    let (src, cls) = split_logits(logits, num_classes);
    let b = src.len() as f32;
    let mut src_grad = vec![0.0f32; src.len()];
    let mut loss = 0.0f32;
    for (g, &s) in src_grad.iter_mut().zip(&src) {
        // Stable BCE-with-logits toward `source_target`.
        loss += s.max(0.0) - s * source_target + math::ln(1.0 + math::exp(-s.abs()));
        *g = (sigmoid(s) - source_target) / b;
    }
    loss /= b;
    let cls_grad = match (&cls, num_classes) {
        (Some(c), n) if n > 0 && aux_weight > 0.0 => {
            assert_eq!(
                labels.len(),
                src.len(),
                "one class label per sample required"
            );
            let (aux, mut g) = softmax_cross_entropy(c, labels);
            loss += aux_weight * aux;
            g.scale_inplace(aux_weight);
            Some(g)
        }
        _ => None,
    };
    (loss, merge_grads(&src_grad, cls_grad.as_ref(), num_classes))
}

/// Generator objective on the discriminator's logits for generated data.
///
/// * [`GenLossMode::Minimax`]: the paper's `B̃ = mean log(1 − σ(s))`.
/// * [`GenLossMode::NonSaturating`]: `−mean log σ(s)`.
///
/// plus `aux_weight · CE(class → conditioned label)` when conditional.
/// Returns `(loss, ∂loss/∂logits)` — backpropagate the gradient through the
/// discriminator to obtain the MD-GAN error feedback `∂B̃/∂x`.
pub fn gen_loss(
    logits: &Tensor,
    labels: &[usize],
    num_classes: usize,
    aux_weight: f32,
    mode: GenLossMode,
) -> (f32, Tensor) {
    let (src, cls) = split_logits(logits, num_classes);
    let b = src.len() as f32;
    let mut src_grad = vec![0.0f32; src.len()];
    let mut loss = 0.0f32;
    for (g, &s) in src_grad.iter_mut().zip(&src) {
        let p = sigmoid(s);
        match mode {
            GenLossMode::Minimax => {
                // log(1 - σ(s)) = -s - ln(1 + e^{-s}) computed stably:
                // = -(max(s,0) + ln(1 + e^{-|s|}))... derive via -softplus(s).
                let softplus = s.max(0.0) + math::ln(1.0 + math::exp(-s.abs()));
                loss += -softplus / b * 1.0;
                loss += 0.0; // (kept explicit: J = mean log(1-σ) = mean(-softplus(s)))
                *g = -p / b;
            }
            GenLossMode::NonSaturating => {
                // -log σ(s) = softplus(-s)
                let softplus_neg = (-s).max(0.0) + math::ln(1.0 + math::exp(-s.abs()));
                loss += softplus_neg / b;
                *g = (p - 1.0) / b;
            }
        }
    }
    let cls_grad = match (&cls, num_classes) {
        (Some(c), n) if n > 0 && aux_weight > 0.0 => {
            assert_eq!(
                labels.len(),
                src.len(),
                "one class label per sample required"
            );
            let (aux, mut g) = softmax_cross_entropy(c, labels);
            loss += aux_weight * aux;
            g.scale_inplace(aux_weight);
            Some(g)
        }
        _ => None,
    };
    (loss, merge_grads(&src_grad, cls_grad.as_ref(), num_classes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Init;
    use crate::layers::{Dense, LeakyRelu, Tanh};
    use md_tensor::assert_close;

    fn tiny_gen(rng: &mut Rng64, latent: usize, classes: usize) -> Generator {
        let net = Sequential::new()
            .push(Dense::new(latent + classes, 8, Init::XavierUniform, rng))
            .push(LeakyRelu::new(0.2))
            .push(Dense::new(8, 4, Init::XavierUniform, rng))
            .push(Tanh::new());
        Generator::new(net, latent, classes)
    }

    fn tiny_disc(rng: &mut Rng64, classes: usize) -> Discriminator {
        let net = Sequential::new()
            .push(Dense::new(4, 8, Init::XavierUniform, rng))
            .push(LeakyRelu::new(0.2))
            .push(Dense::new(8, 1 + classes, Init::XavierUniform, rng));
        Discriminator::new(net, classes)
    }

    #[test]
    fn conditional_input_is_noise_plus_onehot() {
        let mut rng = Rng64::seed_from_u64(1);
        let g = tiny_gen(&mut rng, 3, 2);
        let z = Tensor::ones(&[2, 3]);
        let input = g.make_input(&z, &[1, 0]);
        assert_eq!(input.shape(), &[2, 5]);
        assert_eq!(input.row(0), &[1.0, 1.0, 1.0, 0.0, 1.0]);
        assert_eq!(input.row(1), &[1.0, 1.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn unconditional_input_is_noise() {
        let mut rng = Rng64::seed_from_u64(2);
        let g = tiny_gen(&mut rng, 5, 0);
        let z = Tensor::randn(&[3, 5], &mut rng);
        let input = g.make_input(&z, &[]);
        assert_eq!(input.data(), z.data());
    }

    #[test]
    fn generate_and_discriminate_shapes() {
        let mut rng = Rng64::seed_from_u64(3);
        let mut g = tiny_gen(&mut rng, 3, 2);
        let mut d = tiny_disc(&mut rng, 2);
        let z = g.sample_z(4, &mut rng);
        let labels = g.sample_labels(4, &mut rng);
        let fake = g.generate(&z, &labels, true);
        assert_eq!(fake.shape(), &[4, 4]);
        let logits = d.forward(&fake, true);
        assert_eq!(logits.shape(), &[4, 3]);
    }

    #[test]
    fn disc_loss_drives_logits_apart() {
        // Real loss gradient must push the source logit up (negative grad);
        // fake loss gradient must push it down (positive grad).
        let logits = Tensor::new(&[2, 1], vec![0.0, 0.0]);
        let (_, g_real) = disc_loss_real(&logits, &[], 0, 0.0);
        let (_, g_fake) = disc_loss_fake(&logits, &[], 0, 0.0);
        assert!(g_real.data().iter().all(|&g| g < 0.0));
        assert!(g_fake.data().iter().all(|&g| g > 0.0));
    }

    /// The source-logit BCE of every D step: its analytic gradient matches a
    /// central difference, and loss and gradient stay finite at ±100, where
    /// one of the two logits is confidently wrong (loss 100 / 2 = 50).
    #[test]
    fn disc_loss_gradient_matches_numeric_and_is_stable() {
        let mut rng = Rng64::seed_from_u64(1);
        let logits = Tensor::randn(&[6, 1], &mut rng);
        let eps = 1e-3;
        for side in [disc_loss_real, disc_loss_fake] {
            let loss = |l: &Tensor| side(l, &[], 0, 0.0).0;
            let (_, grad) = side(&logits, &[], 0, 0.0);
            let numeric: Vec<f32> = (0..logits.len())
                .map(|i| {
                    let (mut xp, mut xm) = (logits.clone(), logits.clone());
                    xp.data_mut()[i] += eps;
                    xm.data_mut()[i] -= eps;
                    (loss(&xp) - loss(&xm)) / (2.0 * eps)
                })
                .collect();
            assert_close(grad.data(), &numeric, 1e-2);

            let extreme = Tensor::new(&[2, 1], vec![100.0, -100.0]);
            let (loss, grad) = side(&extreme, &[], 0, 0.0);
            assert!((loss - 50.0).abs() < 1e-3, "loss {loss}");
            assert!(grad.all_finite());
        }
    }

    #[test]
    fn minimax_gradient_matches_paper_derivative() {
        // dJ/ds for J = mean log(1-σ(s)) is -σ(s)/b.
        let logits = Tensor::new(&[2, 1], vec![0.7, -1.3]);
        let (_, g) = gen_loss(&logits, &[], 0, 0.0, GenLossMode::Minimax);
        let expect = [-sigmoid(0.7) / 2.0, -sigmoid(-1.3) / 2.0];
        assert_close(g.data(), &expect, 1e-6);
    }

    #[test]
    fn minimax_loss_value_is_mean_log_one_minus_sigma() {
        let logits = Tensor::new(&[2, 1], vec![0.5, -2.0]);
        let (loss, _) = gen_loss(&logits, &[], 0, 0.0, GenLossMode::Minimax);
        let expect = ((1.0f32 - sigmoid(0.5)).ln() + (1.0f32 - sigmoid(-2.0)).ln()) / 2.0;
        assert!((loss - expect).abs() < 1e-5, "{loss} vs {expect}");
    }

    #[test]
    fn non_saturating_gradient_is_stronger_when_fooled_less() {
        // When D confidently rejects a fake (s very negative), the
        // non-saturating grad magnitude stays ~1/b; minimax vanishes.
        let logits = Tensor::new(&[1, 1], vec![-8.0]);
        let (_, g_mm) = gen_loss(&logits, &[], 0, 0.0, GenLossMode::Minimax);
        let (_, g_ns) = gen_loss(&logits, &[], 0, 0.0, GenLossMode::NonSaturating);
        assert!(g_mm.data()[0].abs() < 1e-3);
        assert!(g_ns.data()[0].abs() > 0.9);
    }

    #[test]
    fn aux_loss_contributes_class_gradients() {
        let mut rng = Rng64::seed_from_u64(4);
        let logits = Tensor::randn(&[3, 4], &mut rng); // 1 source + 3 classes
        let (loss_noaux, g_noaux) =
            gen_loss(&logits, &[0, 1, 2], 3, 0.0, GenLossMode::NonSaturating);
        let (loss_aux, g_aux) = gen_loss(&logits, &[0, 1, 2], 3, 1.0, GenLossMode::NonSaturating);
        assert!(loss_aux > loss_noaux);
        // Class columns carry gradient only with aux enabled.
        for i in 0..3 {
            assert!(g_noaux.row(i)[1..].iter().all(|&v| v == 0.0));
            assert!(g_aux.row(i)[1..].iter().any(|&v| v != 0.0));
        }
        // Source column identical in both.
        for i in 0..3 {
            assert!((g_noaux.row(i)[0] - g_aux.row(i)[0]).abs() < 1e-7);
        }
    }

    #[test]
    fn end_to_end_feedback_gradient_flows_to_images() {
        // The MD-GAN worker computation: F_n = ∂(gen loss)/∂x through D.
        let mut rng = Rng64::seed_from_u64(5);
        let mut d = tiny_disc(&mut rng, 2);
        let fake = Tensor::randn(&[4, 4], &mut rng);
        let logits = d.forward(&fake, true);
        let (_, grad_logits) = gen_loss(&logits, &[0, 1, 1, 0], 2, 1.0, GenLossMode::NonSaturating);
        d.net.zero_grad();
        let feedback = d.backward(&grad_logits);
        assert_eq!(feedback.shape(), fake.shape());
        assert!(feedback.data().iter().any(|&v| v != 0.0));
    }

    #[test]
    #[should_panic(expected = "logit width mismatch")]
    fn split_checks_width() {
        split_logits(&Tensor::zeros(&[2, 3]), 5);
    }
}
