//! The scorer classifier: a small network trained on the real training set,
//! then frozen and used as the feature extractor / class-posterior model
//! for the Inception-Score and FID analogues.
//!
//! This mirrors the paper's protocol: for MNIST they replace the Inception
//! network with "a classifier adapted to the MNIST data"; we do the same
//! for our synthetic datasets.

use md_data::{BatchSampler, Dataset};
use md_nn::init::Init;
use md_nn::layer::Layer;
use md_nn::layers::{Dense, Flatten, LeakyRelu, Sequential};
use md_nn::loss::{accuracy, softmax_cross_entropy};
use md_nn::optim::{Adam, AdamConfig};
use md_tensor::rng::Rng64;
use md_tensor::Tensor;

/// A trained scorer: `trunk` maps images to a feature vector (used by FID),
/// `head` maps features to class logits (used by IS/MS).
pub struct Scorer {
    trunk: Sequential,
    head: Sequential,
    feature_dim: usize,
    num_classes: usize,
}

/// Training hyper-parameters for the scorer.
#[derive(Clone, Copy, Debug)]
pub struct ScorerConfig {
    /// Width of the feature layer fed to FID.
    pub feature_dim: usize,
    /// Hidden width of the trunk MLP.
    pub hidden: usize,
    /// Number of optimization steps.
    pub steps: usize,
    /// Minibatch size.
    pub batch: usize,
    /// Adam learning rate.
    pub lr: f32,
}

impl Default for ScorerConfig {
    fn default() -> Self {
        ScorerConfig {
            feature_dim: 32,
            hidden: 128,
            steps: 600,
            batch: 64,
            lr: 2e-3,
        }
    }
}

impl Scorer {
    /// Trains a scorer on (a copy of) the given dataset.
    pub fn train(data: &Dataset, cfg: ScorerConfig, rng: &mut Rng64) -> Self {
        let d = data.object_size();
        let c = data.num_classes();
        let mut trunk = Sequential::new()
            .push(Flatten::new())
            .push(Dense::new(d, cfg.hidden, Init::HeNormal, rng))
            .push(LeakyRelu::new(0.1))
            .push(Dense::new(cfg.hidden, cfg.feature_dim, Init::HeNormal, rng))
            .push(LeakyRelu::new(0.1));
        let mut head =
            Sequential::new().push(Dense::new(cfg.feature_dim, c, Init::XavierUniform, rng));

        let mut opt_t = Adam::new(AdamConfig {
            lr: cfg.lr,
            beta1: 0.9,
            ..AdamConfig::default()
        });
        let mut opt_h = Adam::new(AdamConfig {
            lr: cfg.lr,
            beta1: 0.9,
            ..AdamConfig::default()
        });
        let mut sampler = BatchSampler::new(rng);
        for _ in 0..cfg.steps {
            let (images, labels) = sampler.sample(data, cfg.batch);
            let feats = trunk.forward(&images, true);
            let logits = head.forward(&feats, true);
            let (_, grad_logits) = softmax_cross_entropy(&logits, &labels);
            trunk.zero_grad();
            head.zero_grad();
            let grad_feats = head.backward(&grad_logits);
            trunk.backward_params(&grad_feats);
            opt_h.step(&mut head);
            opt_t.step(&mut trunk);
        }
        Scorer {
            trunk,
            head,
            feature_dim: cfg.feature_dim,
            num_classes: c,
        }
    }

    /// Feature width (FID dimensionality).
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// Class count.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Runs the scorer in inference mode, returning
    /// `(features (B, F), class probabilities (B, C))`.
    pub fn features_and_probs(&mut self, images: &Tensor) -> (Tensor, Tensor) {
        let feats = self.trunk.forward(images, false);
        let probs = self.head.forward(&feats, false).softmax_rows();
        (feats, probs)
    }

    /// Classification accuracy on a dataset (sanity metric for the scorer
    /// itself).
    pub fn accuracy_on(&mut self, data: &Dataset) -> f32 {
        let feats = self.trunk.forward(&data.images(), false);
        let logits = self.head.forward(&feats, false);
        accuracy(&logits, data.labels())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_data::synthetic::mnist_like;

    #[test]
    fn scorer_learns_synthetic_mnist() {
        let data = mnist_like(12, 1200, 42, 0.08);
        let (train, test) = data.split_test(200);
        let mut rng = Rng64::seed_from_u64(7);
        let mut scorer = Scorer::train(
            &train,
            ScorerConfig {
                steps: 400,
                ..ScorerConfig::default()
            },
            &mut rng,
        );
        let acc = scorer.accuracy_on(&test);
        assert!(acc > 0.8, "scorer accuracy only {acc}");
    }

    #[test]
    fn outputs_have_expected_shapes() {
        let data = mnist_like(12, 200, 1, 0.08);
        let mut rng = Rng64::seed_from_u64(2);
        let cfg = ScorerConfig {
            steps: 20,
            ..ScorerConfig::default()
        };
        let mut scorer = Scorer::train(&data, cfg, &mut rng);
        let (feats, probs) = scorer.features_and_probs(&data.images());
        assert_eq!(feats.shape(), &[200, 32]);
        assert_eq!(probs.shape(), &[200, 10]);
        for i in 0..200 {
            let s: f32 = probs.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn training_is_deterministic() {
        let data = mnist_like(12, 150, 3, 0.08);
        let cfg = ScorerConfig {
            steps: 15,
            ..ScorerConfig::default()
        };
        let mut s1 = Scorer::train(&data, cfg, &mut Rng64::seed_from_u64(5));
        let mut s2 = Scorer::train(&data, cfg, &mut Rng64::seed_from_u64(5));
        let (f1, _) = s1.features_and_probs(&data.images());
        let (f2, _) = s2.features_and_probs(&data.images());
        assert_eq!(f1.data(), f2.data());
    }
}
