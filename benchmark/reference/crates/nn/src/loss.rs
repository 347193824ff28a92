//! Scalar losses with analytic gradients w.r.t. logits.
//!
//! All losses use mean reduction over the batch and return
//! `(loss_value, ∂loss/∂logits)` so training code never re-derives
//! gradients.

use crate::layers::sigmoid;
use md_tensor::Tensor;

/// Binary cross-entropy on logits with mean reduction.
///
/// `logits` and `targets` must have identical shapes; targets in `[0, 1]`.
/// Uses the numerically stable formulation
/// `max(s,0) - s*t + ln(1 + e^{-|s|})`.
pub fn bce_with_logits(logits: &Tensor, targets: &Tensor) -> (f32, Tensor) {
    assert_eq!(logits.shape(), targets.shape(), "bce shape mismatch");
    let n = logits.len() as f32;
    assert!(n > 0.0, "bce on empty tensor");
    let mut loss = 0.0f32;
    let mut grad = logits.clone();
    for (g, (&s, &t)) in grad
        .data_mut()
        .iter_mut()
        .zip(logits.data().iter().zip(targets.data()))
    {
        loss += s.max(0.0) - s * t + (1.0 + (-s.abs()).exp()).ln();
        *g = (sigmoid(s) - t) / n;
    }
    (loss / n, grad)
}

/// Softmax cross-entropy on logits with integer class labels, mean reduction.
///
/// `logits: (B, C)`, `labels.len() == B`.
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    assert_eq!(logits.ndim(), 2, "softmax_cross_entropy expects (B, C)");
    let (b, c) = (logits.shape()[0], logits.shape()[1]);
    assert_eq!(labels.len(), b, "label count mismatch");
    let log_probs = logits.log_softmax_rows();
    let mut loss = 0.0f32;
    let mut grad = log_probs.exp(); // softmax
    for (i, &y) in labels.iter().enumerate() {
        assert!(y < c, "label {y} out of range for {c} classes");
        loss -= log_probs.at(&[i, y]);
        *grad.at_mut(&[i, y]) -= 1.0;
    }
    grad.scale_inplace(1.0 / b as f32);
    (loss / b as f32, grad)
}

/// Mean squared error with mean reduction, `(loss, ∂/∂pred)`.
pub fn mse(pred: &Tensor, target: &Tensor) -> (f32, Tensor) {
    assert_eq!(pred.shape(), target.shape(), "mse shape mismatch");
    let n = pred.len() as f32;
    let diff = pred.sub(target);
    let loss = diff.sq_norm() / n;
    let grad = diff.scale(2.0 / n);
    (loss, grad)
}

/// Classification accuracy of logits `(B, C)` against labels.
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> f32 {
    let preds = logits.argmax_rows();
    assert_eq!(preds.len(), labels.len());
    if labels.is_empty() {
        return 0.0;
    }
    let correct = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
    correct as f32 / labels.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_tensor::assert_close;
    use md_tensor::rng::Rng64;

    fn numeric_grad(f: impl Fn(&Tensor) -> f32, x: &Tensor, eps: f32) -> Tensor {
        let mut g = Tensor::zeros(x.shape());
        for i in 0..x.len() {
            let mut xp = x.clone();
            let mut xm = x.clone();
            xp.data_mut()[i] += eps;
            xm.data_mut()[i] -= eps;
            g.data_mut()[i] = (f(&xp) - f(&xm)) / (2.0 * eps);
        }
        g
    }

    #[test]
    fn bce_known_values() {
        // s = 0 => p = 0.5: loss = -ln(0.5) regardless of target.
        let logits = Tensor::zeros(&[2]);
        let targets = Tensor::new(&[2], vec![0.0, 1.0]);
        let (loss, _) = bce_with_logits(&logits, &targets);
        assert!((loss - 0.5f32.ln().abs()).abs() < 1e-6);
    }

    #[test]
    fn bce_gradient_matches_numeric() {
        let mut rng = Rng64::seed_from_u64(1);
        let logits = Tensor::randn(&[6], &mut rng);
        let targets = Tensor::new(&[6], vec![1.0, 0.0, 1.0, 0.0, 0.5, 1.0]);
        let (_, grad) = bce_with_logits(&logits, &targets);
        let num = numeric_grad(|l| bce_with_logits(l, &targets).0, &logits, 1e-3);
        assert_close(grad.data(), num.data(), 1e-2);
    }

    #[test]
    fn bce_stable_at_extreme_logits() {
        let logits = Tensor::new(&[2], vec![100.0, -100.0]);
        let targets = Tensor::new(&[2], vec![1.0, 0.0]);
        let (loss, grad) = bce_with_logits(&logits, &targets);
        assert!(loss.is_finite());
        assert!(loss < 1e-6);
        assert!(grad.all_finite());
    }

    #[test]
    fn ce_perfect_prediction_has_low_loss() {
        let logits = Tensor::new(&[2, 3], vec![10.0, -5.0, -5.0, -5.0, -5.0, 10.0]);
        let (loss, _) = softmax_cross_entropy(&logits, &[0, 2]);
        assert!(loss < 1e-4, "loss {loss}");
    }

    #[test]
    fn ce_uniform_prediction_is_log_c() {
        let logits = Tensor::zeros(&[4, 5]);
        let (loss, _) = softmax_cross_entropy(&logits, &[0, 1, 2, 3]);
        assert!((loss - (5.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn ce_gradient_matches_numeric() {
        let mut rng = Rng64::seed_from_u64(2);
        let logits = Tensor::randn(&[3, 4], &mut rng);
        let labels = [1usize, 3, 0];
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        let num = numeric_grad(|l| softmax_cross_entropy(l, &labels).0, &logits, 1e-3);
        assert_close(grad.data(), num.data(), 1e-2);
    }

    #[test]
    fn ce_grad_rows_sum_to_zero() {
        let mut rng = Rng64::seed_from_u64(3);
        let logits = Tensor::randn(&[4, 6], &mut rng);
        let (_, grad) = softmax_cross_entropy(&logits, &[0, 1, 2, 3]);
        for i in 0..4 {
            let s: f32 = grad.row(i).iter().sum();
            assert!(s.abs() < 1e-6, "row {i} sums to {s}");
        }
    }

    #[test]
    fn mse_basics() {
        let pred = Tensor::new(&[2], vec![1.0, 3.0]);
        let target = Tensor::new(&[2], vec![0.0, 1.0]);
        let (loss, grad) = mse(&pred, &target);
        assert!((loss - 2.5).abs() < 1e-6); // (1 + 4)/2
        assert_close(grad.data(), &[1.0, 2.0], 1e-6);
    }

    #[test]
    fn accuracy_counts_matches() {
        let logits = Tensor::new(&[3, 2], vec![1.0, 0.0, 0.0, 1.0, 1.0, 0.0]);
        assert!((accuracy(&logits, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "label 7 out of range")]
    fn ce_rejects_bad_label() {
        softmax_cross_entropy(&Tensor::zeros(&[1, 3]), &[7]);
    }
}
