//! Reductions: global and per-axis sums/means/maxima, argmax, softmax and
//! log-sum-exp (numerically stable), used by losses and metrics.

use crate::tensor::Tensor;
use crate::workspace;

impl Tensor {
    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data().iter().sum()
    }

    /// Mean of all elements.
    ///
    /// # Panics
    /// Panics on an empty tensor.
    pub fn mean(&self) -> f32 {
        assert!(!self.is_empty(), "mean of empty tensor");
        self.sum() / self.len() as f32
    }

    /// Maximum element.
    pub fn max(&self) -> f32 {
        assert!(!self.is_empty(), "max of empty tensor");
        self.data()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element.
    pub fn min(&self) -> f32 {
        assert!(!self.is_empty(), "min of empty tensor");
        self.data().iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Population variance of all elements.
    pub fn variance(&self) -> f32 {
        let m = self.mean();
        self.data().iter().map(|&x| (x - m) * (x - m)).sum::<f32>() / self.len() as f32
    }

    /// Fused health reduction: the maximum absolute element, or `None` if
    /// any element is NaN or ±Inf.
    ///
    /// One pass over the data (finiteness check fused into the max fold),
    /// so training-health monitors can probe losses/parameters/gradients
    /// without a second traversal. Empty tensors are vacuously healthy with
    /// a max of `0.0`.
    pub fn finite_max_abs(&self) -> Option<f32> {
        let mut mx = 0.0f32;
        for &v in self.data() {
            // `abs` of NaN is NaN; a single comparison-based fold would
            // silently skip it, so check finiteness explicitly.
            if !v.is_finite() {
                return None;
            }
            let a = v.abs();
            if a > mx {
                mx = a;
            }
        }
        Some(mx)
    }

    /// Sums over axis 0: `(n0, rest...) -> (rest...)`.
    pub fn sum_axis0(&self) -> Tensor {
        assert!(self.ndim() >= 1, "sum_axis0 on scalar");
        let n0 = self.shape()[0];
        let rest: usize = self.shape()[1..].iter().product();
        let mut out = workspace::take_zeroed(rest);
        for i in 0..n0 {
            let row = &self.data()[i * rest..(i + 1) * rest];
            for (o, &v) in out.iter_mut().zip(row) {
                *o += v;
            }
        }
        Tensor::new(&self.shape()[1..], out)
    }

    /// Means over axis 0.
    pub fn mean_axis0(&self) -> Tensor {
        let n0 = self.shape()[0].max(1);
        self.sum_axis0().scale(1.0 / n0 as f32)
    }

    /// Row sums of a 2-D tensor: `(m, n) -> (m,)`.
    pub fn sum_axis1(&self) -> Tensor {
        assert_eq!(self.ndim(), 2, "sum_axis1 requires 2-D");
        let (m, n) = (self.shape()[0], self.shape()[1]);
        let mut out = workspace::take_raw(m);
        for i in 0..m {
            out.push(self.data()[i * n..(i + 1) * n].iter().sum());
        }
        Tensor::new(&[m], out)
    }

    /// Per-row argmax of a 2-D tensor — used for classifier predictions.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.ndim(), 2, "argmax_rows requires 2-D");
        let (m, n) = (self.shape()[0], self.shape()[1]);
        let mut out = Vec::with_capacity(m);
        for i in 0..m {
            let row = &self.data()[i * n..(i + 1) * n];
            let mut best = 0usize;
            for j in 1..n {
                if row[j] > row[best] {
                    best = j;
                }
            }
            out.push(best);
        }
        out
    }

    /// Numerically stable row-wise softmax of a 2-D logits tensor.
    pub fn softmax_rows(&self) -> Tensor {
        assert_eq!(self.ndim(), 2, "softmax_rows requires 2-D");
        let (m, n) = (self.shape()[0], self.shape()[1]);
        let mut out = workspace::take_zeroed(m * n);
        for i in 0..m {
            let row = &self.data()[i * n..(i + 1) * n];
            let mx = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let orow = &mut out[i * n..(i + 1) * n];
            let mut z = 0.0f32;
            for (o, &v) in orow.iter_mut().zip(row) {
                *o = (v - mx).exp();
                z += *o;
            }
            for o in orow.iter_mut() {
                *o /= z;
            }
        }
        Tensor::new(&[m, n], out)
    }

    /// Numerically stable row-wise log-softmax.
    pub fn log_softmax_rows(&self) -> Tensor {
        assert_eq!(self.ndim(), 2, "log_softmax_rows requires 2-D");
        let (m, n) = (self.shape()[0], self.shape()[1]);
        let mut out = workspace::take_zeroed(m * n);
        for i in 0..m {
            let row = &self.data()[i * n..(i + 1) * n];
            let mx = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let lse = mx + row.iter().map(|&v| (v - mx).exp()).sum::<f32>().ln();
            for (o, &v) in out[i * n..(i + 1) * n].iter_mut().zip(row) {
                *o = v - lse;
            }
        }
        Tensor::new(&[m, n], out)
    }

    /// Per-(batch, channel) spatial sum: `(B, C, H, W) -> (C,)` summed over
    /// batch and space — the conv bias-gradient pattern.
    pub fn sum_spatial_per_channel(&self) -> Tensor {
        assert_eq!(self.ndim(), 4, "sum_spatial_per_channel requires 4-D");
        let (b, c, h, w) = (
            self.shape()[0],
            self.shape()[1],
            self.shape()[2],
            self.shape()[3],
        );
        let hw = h * w;
        let mut out = workspace::take_zeroed(c);
        for bi in 0..b {
            for (ci, acc) in out.iter_mut().enumerate() {
                let base = (bi * c + ci) * hw;
                *acc += self.data()[base..base + hw].iter().sum::<f32>();
            }
        }
        Tensor::new(&[c], out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;

    #[test]
    fn global_reductions() {
        let t = Tensor::new(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.sum(), 21.0);
        assert_eq!(t.mean(), 3.5);
        assert_eq!(t.max(), 6.0);
        assert_eq!(t.min(), 1.0);
    }

    #[test]
    fn finite_max_abs_fuses_check_and_max() {
        let t = Tensor::new(&[4], vec![1.0, -3.5, 2.0, 0.0]);
        assert_eq!(t.finite_max_abs(), Some(3.5));
        assert_eq!(Tensor::zeros(&[0]).finite_max_abs(), Some(0.0));
        for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let t = Tensor::new(&[3], vec![1.0, poison, 2.0]);
            assert_eq!(t.finite_max_abs(), None, "{poison} not caught");
        }
    }

    #[test]
    fn variance_of_constant_is_zero() {
        assert_eq!(Tensor::full(&[10], 3.0).variance(), 0.0);
    }

    #[test]
    fn variance_known_value() {
        let t = Tensor::new(&[4], vec![1.0, 2.0, 3.0, 4.0]);
        assert!((t.variance() - 1.25).abs() < 1e-6);
    }

    #[test]
    fn sum_axis0_collapses_batch() {
        let t = Tensor::new(&[2, 3], vec![1.0, 2.0, 3.0, 10.0, 20.0, 30.0]);
        assert_eq!(t.sum_axis0().data(), &[11.0, 22.0, 33.0]);
        assert_close(t.mean_axis0().data(), &[5.5, 11.0, 16.5], 1e-6);
    }

    #[test]
    fn sum_axis1_row_sums() {
        let t = Tensor::new(&[2, 3], vec![1.0, 2.0, 3.0, 10.0, 20.0, 30.0]);
        assert_eq!(t.sum_axis1().data(), &[6.0, 60.0]);
    }

    #[test]
    fn argmax_rows_picks_maximum() {
        let t = Tensor::new(&[2, 3], vec![0.1, 0.9, 0.0, 5.0, -1.0, 2.0]);
        assert_eq!(t.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::new(&[2, 4], vec![1.0, 2.0, 3.0, 4.0, -1.0, 0.0, 1.0, 100.0]);
        let s = t.softmax_rows();
        for i in 0..2 {
            let sum: f32 = s.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {i} sums to {sum}");
        }
        // Large-logit row must not produce NaN.
        assert!(s.all_finite());
        assert!(s.at(&[1, 3]) > 0.99);
    }

    #[test]
    fn log_softmax_is_log_of_softmax() {
        let t = Tensor::new(&[1, 3], vec![0.5, -0.5, 2.0]);
        let a = t.softmax_rows().ln();
        let b = t.log_softmax_rows();
        assert_close(a.data(), b.data(), 1e-5);
    }

    #[test]
    fn softmax_invariant_to_shift() {
        let t = Tensor::new(&[1, 3], vec![1.0, 2.0, 3.0]);
        let shifted = t.add_scalar(100.0);
        assert_close(t.softmax_rows().data(), shifted.softmax_rows().data(), 1e-5);
    }

    #[test]
    fn channel_sum_pattern() {
        // (B=2, C=2, H=1, W=2)
        let t = Tensor::new(&[2, 2, 1, 2], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        assert_eq!(
            t.sum_spatial_per_channel().data(),
            &[1.0 + 2.0 + 5.0 + 6.0, 3.0 + 4.0 + 7.0 + 8.0]
        );
    }
}
