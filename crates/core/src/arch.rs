//! GAN architectures (§V-A.b of the paper), parameterized by image size.
//!
//! The paper trains three architectures: an MLP G/D pair for MNIST, a
//! CNN pair for MNIST and a CNN pair for CIFAR10 (plus a CelebA variant).
//! All discriminators in the CNN pairs include a minibatch-discrimination
//! layer \[20\]; the generators are DCGAN-style (dense → reshape →
//! transposed convolutions → tanh).
//!
//! Our builders reproduce those shapes at any power-of-two image size so
//! the scaled-down experiments (see DESIGN.md §3) use *architecturally
//! faithful* models; `width` scales the layer widths (the paper uses 512
//! for the MLP and 16..512 filter ramps for the CNNs).

use crate::error::TrainError;
use md_data::Dataset;
use md_nn::gan::{Discriminator, Generator};
use md_nn::init::Init;
use md_nn::layers::{
    BatchNorm, Conv2d, ConvTranspose2d, Dense, Flatten, LeakyRelu, MinibatchDiscrimination, Relu,
    Reshape, Sequential, Tanh,
};
use md_tensor::parallel::{parallel_for_each_mut, PAR_THRESHOLD};
use md_tensor::rng::Rng64;
use serde::{Deserialize, Serialize};

/// Builds one value per shard, slot `i` as `build(i, shard, fork)` with
/// `fork = master.fork(1 + i)`. Every fork is drawn first, in slot order,
/// and a constructor draws only from its own fork, so `master` is left where
/// a slot-by-slot build would leave it and the slots can be built across the
/// pool (at width 1, the plain loop) without moving a bit.
pub(crate) fn build_slots<T: Send>(
    shards: Vec<Dataset>,
    master: &mut Rng64,
    build: impl Fn(usize, Dataset, &mut Rng64) -> T + Sync,
) -> Vec<T> {
    let mut slots: Vec<_> = shards
        .into_iter()
        .enumerate()
        .map(|(i, shard)| (Some(shard), master.fork(1 + i as u64), None))
        .collect();
    parallel_for_each_mut(&mut slots, PAR_THRESHOLD, |i, (shard, rng, built)| {
        *built = shard.take().map(|shard| build(i, shard, rng));
    });
    slots
        .into_iter()
        .map(|(_, _, built)| built.expect("every slot is built"))
        .collect()
}

/// Which architecture family to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ArchKind {
    /// Three fully-connected layers each (the paper's MLP experiment).
    Mlp,
    /// DCGAN-style CNN with minibatch discrimination in D.
    Cnn,
}

/// Full architecture description.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArchSpec {
    /// MLP or CNN.
    pub kind: ArchKind,
    /// Square image side. CNNs require `img = 4 · 2^s` (8, 16, 32, 64...).
    pub img: usize,
    /// Image channels (1 grayscale, 3 RGB).
    pub channels: usize,
    /// Noise dimension `ℓ`.
    pub latent: usize,
    /// Conditioning classes (0 = unconditional GAN).
    pub classes: usize,
    /// Width scale: MLP hidden width / CNN base filter count.
    pub width: usize,
}

impl ArchSpec {
    /// Scaled-down MLP for the MNIST-like dataset (fast experiments).
    pub fn mlp_mnist_scaled(img: usize) -> Self {
        ArchSpec {
            kind: ArchKind::Mlp,
            img,
            channels: 1,
            latent: 32,
            classes: 10,
            width: 128,
        }
    }

    /// Scaled-down CNN for the MNIST-like dataset.
    pub fn cnn_mnist_scaled(img: usize) -> Self {
        ArchSpec {
            kind: ArchKind::Cnn,
            img,
            channels: 1,
            latent: 32,
            classes: 10,
            width: 16,
        }
    }

    /// Scaled-down CNN for the CIFAR-like dataset.
    pub fn cnn_cifar_scaled(img: usize) -> Self {
        ArchSpec {
            kind: ArchKind::Cnn,
            img,
            channels: 3,
            latent: 32,
            classes: 10,
            width: 16,
        }
    }

    /// Scaled-down unconditional CNN for the CelebA-like dataset (the
    /// paper's CelebA D has a single output neuron).
    pub fn cnn_celeba_scaled(img: usize) -> Self {
        ArchSpec {
            kind: ArchKind::Cnn,
            img,
            channels: 3,
            latent: 32,
            classes: 0,
            width: 16,
        }
    }

    /// Paper-scale MLP (MNIST, 512-wide, ℓ=100) — used for parameter
    /// counting and the communication tables, not for training here.
    pub fn paper_mnist_mlp() -> Self {
        ArchSpec {
            kind: ArchKind::Mlp,
            img: 28,
            channels: 1,
            latent: 100,
            classes: 10,
            width: 512,
        }
    }

    /// Object size `d` in floats.
    pub fn object_size(&self) -> usize {
        self.channels * self.img * self.img
    }

    /// Builds the generator.
    pub fn build_generator(&self, rng: &mut Rng64) -> Generator {
        let net = match self.kind {
            ArchKind::Mlp => self.mlp_generator(rng),
            ArchKind::Cnn => self.cnn_generator(rng),
        };
        Generator::new(net, self.latent, self.classes)
    }

    /// Builds the discriminator.
    pub fn build_discriminator(&self, rng: &mut Rng64) -> Discriminator {
        let net = match self.kind {
            ArchKind::Mlp => self.mlp_discriminator(rng),
            ArchKind::Cnn => self.cnn_discriminator(rng),
        };
        Discriminator::new(net, self.classes)
    }

    fn mlp_generator(&self, rng: &mut Rng64) -> Sequential {
        let d = self.object_size();
        let w = self.width;
        Sequential::new()
            .push(Dense::new(
                self.latent + self.classes,
                w,
                Init::XavierUniform,
                rng,
            ))
            .push(LeakyRelu::new(0.2))
            .push(Dense::new(w, w, Init::XavierUniform, rng))
            .push(LeakyRelu::new(0.2))
            .push(Dense::new(w, d, Init::XavierUniform, rng))
            .push(Tanh::new())
            .push(Reshape::new(&[self.channels, self.img, self.img]))
    }

    fn mlp_discriminator(&self, rng: &mut Rng64) -> Sequential {
        let d = self.object_size();
        let w = self.width;
        Sequential::new()
            .push(Flatten::new())
            .push(Dense::new(d, w, Init::XavierUniform, rng))
            .push(LeakyRelu::new(0.2))
            .push(Dense::new(w, w, Init::XavierUniform, rng))
            .push(LeakyRelu::new(0.2))
            .push(Dense::new(w, 1 + self.classes, Init::XavierUniform, rng))
    }

    /// Checks that the networks can be built at `img`: a CNN needs
    /// `img = 4 · 2^s` with `s ≥ 1`, an MLP takes any size.
    pub fn check_img(&self) -> Result<(), TrainError> {
        let img = self.img;
        if self.kind == ArchKind::Cnn
            && !(img >= 8 && img.is_multiple_of(4) && (img / 4).is_power_of_two())
        {
            return Err(TrainError::Config(format!(
                "CNN architectures need img = 4 * 2^s, got {img}"
            )));
        }
        Ok(())
    }

    /// Number of stride-2 stages between 4x4 and the target resolution.
    fn cnn_stages(&self) -> usize {
        if let Err(e) = self.check_img() {
            panic!("{e}");
        }
        (self.img / 4).trailing_zeros() as usize
    }

    fn cnn_generator(&self, rng: &mut Rng64) -> Sequential {
        let stages = self.cnn_stages();
        let f0 = self.width << (stages - 1); // widest at 4x4
        let mut net = Sequential::new()
            .push(Dense::new(
                self.latent + self.classes,
                f0 * 4 * 4,
                Init::Dcgan,
                rng,
            ))
            .push(Reshape::new(&[f0, 4, 4]))
            .push(BatchNorm::new(f0))
            .push(Relu::new());
        let mut fin = f0;
        for s in 0..stages {
            let last = s + 1 == stages;
            let fout = if last { self.channels } else { fin / 2 };
            net.push_boxed(Box::new(ConvTranspose2d::new(
                fin,
                fout,
                4,
                2,
                1,
                Init::Dcgan,
                rng,
            )));
            if last {
                net.push_boxed(Box::new(Tanh::new()));
            } else {
                net.push_boxed(Box::new(BatchNorm::new(fout)));
                net.push_boxed(Box::new(Relu::new()));
                fin = fout;
            }
        }
        net
    }

    fn cnn_discriminator(&self, rng: &mut Rng64) -> Sequential {
        let stages = self.cnn_stages();
        let mut net = Sequential::new();
        let mut fin = self.channels;
        let mut fout = self.width;
        for _ in 0..stages {
            net.push_boxed(Box::new(Conv2d::new(fin, fout, 3, 2, 1, Init::Dcgan, rng)));
            net.push_boxed(Box::new(LeakyRelu::new(0.2)));
            fin = fout;
            fout *= 2;
        }
        // Spatial size is now 4x4 with `fin` channels.
        let feat = fin * 16;
        net.push_boxed(Box::new(Flatten::new()));
        let mb = MinibatchDiscrimination::new(feat, 8, 4, rng);
        let head_in = mb.out_features();
        net.push_boxed(Box::new(mb));
        net.push_boxed(Box::new(Dense::new(
            head_in,
            1 + self.classes,
            Init::XavierUniform,
            rng,
        )));
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_tensor::Tensor;

    #[test]
    fn mlp_shapes_roundtrip() {
        let spec = ArchSpec::mlp_mnist_scaled(16);
        let mut rng = Rng64::seed_from_u64(1);
        let mut g = spec.build_generator(&mut rng);
        let mut d = spec.build_discriminator(&mut rng);
        let z = g.sample_z(4, &mut rng);
        let labels = g.sample_labels(4, &mut rng);
        let imgs = g.generate(&z, &labels, true);
        assert_eq!(imgs.shape(), &[4, 1, 16, 16]);
        let logits = d.forward(&imgs, true);
        assert_eq!(logits.shape(), &[4, 11]);
    }

    #[test]
    fn cnn_shapes_roundtrip_16() {
        let spec = ArchSpec::cnn_cifar_scaled(16);
        let mut rng = Rng64::seed_from_u64(2);
        let mut g = spec.build_generator(&mut rng);
        let mut d = spec.build_discriminator(&mut rng);
        let z = g.sample_z(3, &mut rng);
        let labels = g.sample_labels(3, &mut rng);
        let imgs = g.generate(&z, &labels, true);
        assert_eq!(imgs.shape(), &[3, 3, 16, 16]);
        let logits = d.forward(&imgs, true);
        assert_eq!(logits.shape(), &[3, 11]);
    }

    #[test]
    fn cnn_shapes_roundtrip_8_unconditional() {
        let spec = ArchSpec::cnn_celeba_scaled(8);
        let mut rng = Rng64::seed_from_u64(3);
        let mut g = spec.build_generator(&mut rng);
        let mut d = spec.build_discriminator(&mut rng);
        let z = g.sample_z(2, &mut rng);
        let imgs = g.generate(&z, &[], true);
        assert_eq!(imgs.shape(), &[2, 3, 8, 8]);
        let logits = d.forward(&imgs, true);
        assert_eq!(logits.shape(), &[2, 1]);
    }

    #[test]
    fn generator_output_is_tanh_bounded() {
        let spec = ArchSpec::cnn_mnist_scaled(16);
        let mut rng = Rng64::seed_from_u64(4);
        let mut g = spec.build_generator(&mut rng);
        let z = g.sample_z(2, &mut rng);
        let labels = g.sample_labels(2, &mut rng);
        let imgs = g.generate(&z, &labels, true);
        assert!(imgs.data().iter().all(|&v| (-1.0..=1.0).contains(&v)));
    }

    #[test]
    fn builders_are_seed_deterministic() {
        let spec = ArchSpec::mlp_mnist_scaled(12);
        let g1 = spec.build_generator(&mut Rng64::seed_from_u64(7));
        let g2 = spec.build_generator(&mut Rng64::seed_from_u64(7));
        assert_eq!(g1.net.get_params_flat(), g2.net.get_params_flat());
    }

    #[test]
    fn discriminator_grads_flow_to_input() {
        // The feedback path of Algorithm 1 must produce image-shaped grads.
        let spec = ArchSpec::cnn_mnist_scaled(16);
        let mut rng = Rng64::seed_from_u64(5);
        let mut d = spec.build_discriminator(&mut rng);
        let imgs = Tensor::randn(&[2, 1, 16, 16], &mut rng);
        let logits = d.forward(&imgs, true);
        let g = d.backward(&Tensor::ones(logits.shape()));
        assert_eq!(g.shape(), imgs.shape());
        assert!(g.data().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn paper_scale_mlp_param_counts_are_large() {
        // The paper reports |w| = 716,560 and |θ| = 670,219 for its MLP.
        // Our builder at paper scale lands in the same ballpark (exact
        // equality is impossible without Keras's exact layer bookkeeping).
        let spec = ArchSpec::paper_mnist_mlp();
        let mut rng = Rng64::seed_from_u64(6);
        let g = spec.build_generator(&mut rng);
        let d = spec.build_discriminator(&mut rng);
        let w = g.num_params() as f64;
        let t = d.num_params() as f64;
        assert!((w - 716_560.0).abs() / 716_560.0 < 0.15, "|w| = {w}");
        assert!((t - 670_219.0).abs() / 670_219.0 < 0.15, "|θ| = {t}");
    }

    #[test]
    #[should_panic(expected = "img = 4 * 2^s")]
    fn cnn_rejects_bad_image_size() {
        let spec = ArchSpec {
            kind: ArchKind::Cnn,
            img: 12,
            channels: 1,
            latent: 8,
            classes: 0,
            width: 8,
        };
        spec.build_generator(&mut Rng64::seed_from_u64(1));
    }
}
