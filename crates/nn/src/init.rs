//! Weight initialization schemes.
//!
//! The GANs in the paper are standard Keras models; we provide the usual
//! Glorot/Xavier (default for dense layers), He (for ReLU-heavy stacks) and
//! DCGAN-style scaled-normal initializers.

use md_tensor::rng::Rng64;
use md_tensor::Tensor;

/// Which distribution to draw initial weights from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Init {
    /// Glorot/Xavier uniform: `U(-a, a)` with `a = sqrt(6 / (fan_in + fan_out))`.
    XavierUniform,
    /// He normal: `N(0, sqrt(2 / fan_in))` — suited to ReLU activations.
    HeNormal,
    /// DCGAN-style: `N(0, 0.02)` regardless of fan.
    Dcgan,
    /// All zeros (used for biases).
    Zeros,
}

impl Init {
    /// Samples a tensor of `shape` with the given fan-in/fan-out.
    pub fn sample(self, shape: &[usize], fan_in: usize, fan_out: usize, rng: &mut Rng64) -> Tensor {
        match self {
            Init::XavierUniform => {
                let a = (6.0 / (fan_in + fan_out) as f32).sqrt();
                Tensor::rand_uniform(shape, -a, a, rng)
            }
            Init::HeNormal => normal(shape, (2.0 / fan_in as f32).sqrt(), rng),
            Init::Dcgan => normal(shape, 0.02, rng),
            Init::Zeros => Tensor::zeros(shape),
        }
    }
}

/// `N(0, std)` samples, scaled in place.
fn normal(shape: &[usize], std: f32, rng: &mut Rng64) -> Tensor {
    let mut t = Tensor::randn(shape, rng);
    t.scale_inplace(std);
    t
}

/// Fan-in/fan-out of a conv kernel `(out_c, in_c, kh, kw)`.
pub fn conv_fans(out_c: usize, in_c: usize, kh: usize, kw: usize) -> (usize, usize) {
    (in_c * kh * kw, out_c * kh * kw)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xavier_respects_bound() {
        let mut rng = Rng64::seed_from_u64(1);
        let t = Init::XavierUniform.sample(&[64, 64], 64, 64, &mut rng);
        let a = (6.0f32 / 128.0).sqrt();
        assert!(t.data().iter().all(|&x| x.abs() <= a));
        assert!(t.data().iter().any(|&x| x != 0.0));
    }

    #[test]
    fn he_normal_std_is_close() {
        let mut rng = Rng64::seed_from_u64(2);
        let t = Init::HeNormal.sample(&[128, 128], 128, 128, &mut rng);
        let std = t.variance().sqrt();
        let expect = (2.0f32 / 128.0).sqrt();
        assert!((std - expect).abs() < 0.2 * expect, "std {std} vs {expect}");
    }

    #[test]
    fn dcgan_std_point02() {
        let mut rng = Rng64::seed_from_u64(3);
        let t = Init::Dcgan.sample(&[4096], 1, 1, &mut rng);
        let std = t.variance().sqrt();
        assert!((std - 0.02).abs() < 0.005, "std {std}");
    }

    #[test]
    fn zeros_is_zero() {
        let mut rng = Rng64::seed_from_u64(4);
        assert!(Init::Zeros
            .sample(&[8], 8, 8, &mut rng)
            .data()
            .iter()
            .all(|&x| x == 0.0));
    }

    #[test]
    fn conv_fans_formula() {
        assert_eq!(conv_fans(32, 16, 3, 3), (16 * 9, 32 * 9));
    }

    #[test]
    fn deterministic_given_seed() {
        let mut r1 = Rng64::seed_from_u64(5);
        let mut r2 = Rng64::seed_from_u64(5);
        let a = Init::XavierUniform.sample(&[10, 10], 10, 10, &mut r1);
        let b = Init::XavierUniform.sample(&[10, 10], 10, 10, &mut r2);
        assert_eq!(a.data(), b.data());
    }
}
