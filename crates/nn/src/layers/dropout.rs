//! Inverted dropout.

use crate::layer::{Layer, Need};
use md_tensor::rng::Rng64;
use md_tensor::Tensor;

/// Inverted dropout: during training each element is zeroed with probability
/// `p` and survivors are scaled by `1/(1-p)`; inference is the identity.
///
/// The layer owns its RNG (seeded at construction) so whole-model training
/// remains deterministic.
pub struct Dropout {
    p: f32,
    rng: Rng64,
    mask: Option<Tensor>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p in [0, 1)`.
    pub fn new(p: f32, rng: &mut Rng64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability must be in [0,1), got {p}"
        );
        Dropout {
            p,
            rng: rng.fork(0xD120),
            mask: None,
        }
    }
}

impl Layer for Dropout {
    fn forward_stacked(&mut self, x: &Tensor, _groups: usize, train: bool) -> Tensor {
        if !train || self.p == 0.0 {
            self.mask = None;
            return x.clone();
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        // Drawn in element order, so stacked batches read the stream the
        // way one call per batch would.
        let mut mask = Tensor::zeros(x.shape());
        for m in mask.data_mut() {
            if self.rng.uniform() < keep {
                *m = scale;
            }
        }
        let y = x.mul(&mask);
        self.mask = Some(mask);
        y
    }

    fn backprop(&mut self, grad_out: &Tensor, need: Need) -> Option<Tensor> {
        if !need.input() {
            return None;
        }
        Some(match &self.mask {
            Some(mask) => grad_out.mul(mask),
            None => grad_out.clone(),
        })
    }

    fn name(&self) -> String {
        format!("Dropout({})", self.p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_mode_is_identity() {
        let mut rng = Rng64::seed_from_u64(1);
        let mut d = Dropout::new(0.5, &mut rng);
        let x = Tensor::ones(&[100]);
        let y = d.forward(&x, false);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn train_mode_preserves_expectation() {
        let mut rng = Rng64::seed_from_u64(2);
        let mut d = Dropout::new(0.3, &mut rng);
        let x = Tensor::ones(&[10_000]);
        let y = d.forward(&x, true);
        let mean = y.mean();
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
        // Some elements dropped, survivors scaled.
        assert!(y.data().contains(&0.0));
        assert!(y.data().iter().any(|&v| (v - 1.0 / 0.7).abs() < 1e-5));
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut rng = Rng64::seed_from_u64(3);
        let mut d = Dropout::new(0.5, &mut rng);
        let x = Tensor::ones(&[64]);
        let y = d.forward(&x, true);
        let g = d.backward(&Tensor::ones(&[64]));
        // Gradient flows exactly where activations flowed.
        for (gy, yy) in g.data().iter().zip(y.data()) {
            assert_eq!(*gy == 0.0, *yy == 0.0);
        }
    }

    #[test]
    fn zero_probability_is_identity_in_train() {
        let mut rng = Rng64::seed_from_u64(4);
        let mut d = Dropout::new(0.0, &mut rng);
        let x = Tensor::ones(&[8]);
        assert_eq!(d.forward(&x, true).data(), x.data());
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_p_one() {
        let mut rng = Rng64::seed_from_u64(5);
        Dropout::new(1.0, &mut rng);
    }
}
