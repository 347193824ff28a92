//! Inception Score (a.k.a. MNIST Score with a dataset-specific classifier)
//! and Fréchet Inception Distance.

use crate::linalg::{matmul, mean_and_cov, sqrtm_psd, trace};
use md_tensor::math;
use md_tensor::Tensor;

/// A pair of GAN quality scores, as reported in every figure of the paper.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GanScores {
    /// Inception / MNIST score — higher is better.
    pub inception_score: f64,
    /// Fréchet Inception Distance — lower is better.
    pub fid: f64,
}

/// Inception Score from classifier posteriors `probs (N, C)`:
/// `exp( E_x KL( p(y|x) ‖ p(y) ) )`, computed over `splits` equal chunks and
/// averaged (Salimans et al.; `splits = 1` uses the whole sample at once).
pub fn inception_score(probs: &Tensor, splits: usize) -> f64 {
    assert_eq!(probs.ndim(), 2, "probs must be (N, C)");
    let (n, c) = (probs.shape()[0], probs.shape()[1]);
    assert!(n > 0, "inception_score on empty sample");
    let splits = splits.max(1).min(n);
    let chunk = n / splits;
    let mut scores = Vec::with_capacity(splits);
    for s in 0..splits {
        let lo = s * chunk;
        let hi = if s + 1 == splits { n } else { lo + chunk };
        // Marginal p(y) over this split.
        let mut marginal = vec![0.0f64; c];
        for i in lo..hi {
            for (m, &p) in marginal.iter_mut().zip(probs.row(i)) {
                *m += p as f64;
            }
        }
        let count = (hi - lo) as f64;
        for m in &mut marginal {
            *m /= count;
        }
        // Mean KL divergence.
        let mut kl_sum = 0.0f64;
        for i in lo..hi {
            let mut kl = 0.0f64;
            for (&p, &m) in probs.row(i).iter().zip(&marginal) {
                let p = p as f64;
                if p > 1e-12 && m > 1e-12 {
                    kl += p * f64::from(math::ln((p / m) as f32));
                }
            }
            kl_sum += kl;
        }
        scores.push(f64::from(math::exp((kl_sum / count) as f32)));
    }
    scores.iter().sum::<f64>() / splits as f64
}

/// Fréchet distance between Gaussians fitted to real and generated feature
/// matrices (each `(rows, d)` flattened):
/// `‖μ_r − μ_g‖² + tr(C_r + C_g − 2 (C_r^{1/2} C_g C_r^{1/2})^{1/2})`.
///
/// The symmetric-product form avoids taking the square root of the
/// (generally non-symmetric) product `C_r·C_g`; the two are
/// trace-equivalent for PSD matrices.
pub fn fid(real_feats: &Tensor, fake_feats: &Tensor) -> f64 {
    assert_eq!(real_feats.ndim(), 2, "features must be (N, D)");
    assert_eq!(fake_feats.ndim(), 2, "features must be (N, D)");
    let d = real_feats.shape()[1];
    assert_eq!(fake_feats.shape()[1], d, "feature widths differ");
    let (mu_r, cov_r) = mean_and_cov(real_feats.data(), real_feats.shape()[0], d);
    let (mu_g, cov_g) = mean_and_cov(fake_feats.data(), fake_feats.shape()[0], d);

    let mean_term: f64 = mu_r.iter().zip(&mu_g).map(|(a, b)| (a - b) * (a - b)).sum();

    let sqrt_cr = sqrtm_psd(&cov_r, d);
    let inner = matmul(&matmul(&sqrt_cr, &cov_g, d), &sqrt_cr, d);
    // Symmetrize against round-off before the second square root.
    let mut inner_sym = inner.clone();
    for i in 0..d {
        for j in 0..d {
            inner_sym[i * d + j] = 0.5 * (inner[i * d + j] + inner[j * d + i]);
        }
    }
    let sqrt_inner = sqrtm_psd(&inner_sym, d);

    mean_term + trace(&cov_r, d) + trace(&cov_g, d) - 2.0 * trace(&sqrt_inner, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_tensor::rng::Rng64;

    #[test]
    fn is_of_uniform_posterior_is_one() {
        let probs = Tensor::full(&[50, 10], 0.1);
        let is = inception_score(&probs, 1);
        assert!((is - 1.0).abs() < 1e-9, "IS {is}");
    }

    #[test]
    fn is_of_confident_diverse_posterior_is_num_classes() {
        // Each sample confidently one class, classes uniform => IS = C.
        let c = 10;
        let n = 100;
        let mut probs = Tensor::zeros(&[n, c]);
        for i in 0..n {
            *probs.at_mut(&[i, i % c]) = 1.0;
        }
        let is = inception_score(&probs, 1);
        assert!((is - c as f64).abs() < 1e-6, "IS {is}");
    }

    #[test]
    fn is_of_mode_collapse_is_one() {
        // All samples confidently the same class => KL(p||p) = 0 => IS = 1.
        let mut probs = Tensor::zeros(&[60, 10]);
        for i in 0..60 {
            *probs.at_mut(&[i, 3]) = 1.0;
        }
        let is = inception_score(&probs, 1);
        assert!((is - 1.0).abs() < 1e-9, "IS {is}");
    }

    #[test]
    fn is_monotone_in_diversity() {
        // Half the classes covered scores lower than all classes covered.
        let n = 100;
        let mut half = Tensor::zeros(&[n, 10]);
        let mut full = Tensor::zeros(&[n, 10]);
        for i in 0..n {
            *half.at_mut(&[i, i % 5]) = 1.0;
            *full.at_mut(&[i, i % 10]) = 1.0;
        }
        assert!(inception_score(&full, 1) > inception_score(&half, 1));
    }

    #[test]
    fn splits_average_sanely() {
        let mut probs = Tensor::zeros(&[100, 10]);
        for i in 0..100 {
            *probs.at_mut(&[i, i % 10]) = 1.0;
        }
        let is1 = inception_score(&probs, 1);
        let is10 = inception_score(&probs, 10);
        assert!((is1 - is10).abs() < 1e-6);
    }

    #[test]
    fn fid_of_identical_samples_is_zero() {
        let mut rng = Rng64::seed_from_u64(1);
        let feats = Tensor::randn(&[200, 8], &mut rng);
        let f = fid(&feats, &feats.clone());
        assert!(f.abs() < 1e-6, "FID {f}");
    }

    #[test]
    fn fid_of_same_distribution_is_small() {
        let mut rng = Rng64::seed_from_u64(2);
        let a = Tensor::randn(&[2000, 6], &mut rng);
        let b = Tensor::randn(&[2000, 6], &mut rng);
        let f = fid(&a, &b);
        assert!(f < 0.1, "FID {f}");
    }

    #[test]
    fn fid_grows_with_mean_shift() {
        let mut rng = Rng64::seed_from_u64(3);
        let a = Tensor::randn(&[1000, 6], &mut rng);
        let b = Tensor::randn(&[1000, 6], &mut rng);
        let b_near = b.add_scalar(0.5);
        let b_far = b.add_scalar(3.0);
        let f0 = fid(&a, &b);
        let f1 = fid(&a, &b_near);
        let f2 = fid(&a, &b_far);
        assert!(f0 < f1 && f1 < f2, "FIDs {f0} {f1} {f2}");
        // Mean-shift contribution is ~ d * shift² = 6 * 9 = 54.
        assert!((f2 - 54.0).abs() < 8.0, "FID {f2}");
    }

    #[test]
    fn fid_detects_variance_mismatch() {
        let mut rng = Rng64::seed_from_u64(4);
        let a = Tensor::randn(&[1500, 5], &mut rng);
        let b = Tensor::randn(&[1500, 5], &mut rng).scale(3.0);
        let f = fid(&a, &b);
        // tr((σ_a - σ_b)²) per dim = (1-3)² = 4, times 5 dims = 20.
        assert!((f - 20.0).abs() < 4.0, "FID {f}");
    }

    #[test]
    fn fid_is_roughly_symmetric() {
        let mut rng = Rng64::seed_from_u64(5);
        let a = Tensor::randn(&[800, 4], &mut rng);
        let b = Tensor::randn(&[800, 4], &mut rng)
            .scale(1.5)
            .add_scalar(0.3);
        let f_ab = fid(&a, &b);
        let f_ba = fid(&b, &a);
        assert!(
            (f_ab - f_ba).abs() < 1e-6 * f_ab.max(1.0),
            "{f_ab} vs {f_ba}"
        );
    }
}
