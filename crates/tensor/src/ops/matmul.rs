//! 2-D matrix multiplication and transpose.
//!
//! All three multiply variants (`A·B`, `A·Bᵀ`, `Aᵀ·B`) lower to the shared
//! kernels in [`super::gemm`] (packed and cache-blocked, or no-pack for
//! skinny shapes — one accumulation chain either way); this module owns
//! only the shape checking, the [`Layout`] mapping, and the output buffers
//! (drawn from [`crate::workspace`]). The free `*_into` functions are the
//! allocation-free entry points used by `conv2d` and the `md-nn` layers.

use crate::ops::gemm::{self, Layout};
use crate::parallel;
use crate::tensor::Tensor;
use crate::workspace;

impl Tensor {
    /// Matrix product of two 2-D tensors: `(m, k) x (k, n) -> (m, n)`.
    ///
    /// # Panics
    /// Panics if either operand is not 2-D or the inner dimensions differ.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.ndim(),
            2,
            "matmul lhs must be 2-D, got {:?}",
            self.shape()
        );
        assert_eq!(
            other.ndim(),
            2,
            "matmul rhs must be 2-D, got {:?}",
            other.shape()
        );
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (other.shape()[0], other.shape()[1]);
        assert_eq!(
            k,
            k2,
            "matmul inner dims differ: {:?} x {:?}",
            self.shape(),
            other.shape()
        );
        let mut out = workspace::take_uninit(m * n);
        gemm::gemm_into(Layout::NN, self.data(), other.data(), &mut out, m, k, n);
        Tensor::new(&[m, n], out)
    }

    /// Transpose of a 2-D tensor.
    pub fn t(&self) -> Tensor {
        assert_eq!(self.ndim(), 2, "t() requires a 2-D tensor");
        let (m, n) = (self.shape()[0], self.shape()[1]);
        let src = self.data();
        let mut out = workspace::take_uninit(m * n);
        // One output row (length m) per source column, each written in
        // full; a pure copy, so the result is thread-count independent.
        parallel::parallel_for_chunks(&mut out, n, m, |j, orow| {
            for (i, o) in orow.iter_mut().enumerate() {
                *o = src[i * n + j];
            }
        });
        Tensor::new(&[n, m], out)
    }

    /// `self (m,k) x other^T` where `other` is `(n,k)` — avoids materializing
    /// the transpose in hot backward paths.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2);
        assert_eq!(other.ndim(), 2);
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (n, k2) = (other.shape()[0], other.shape()[1]);
        assert_eq!(
            k,
            k2,
            "matmul_nt inner dims differ: {:?} x {:?}^T",
            self.shape(),
            other.shape()
        );
        let mut out = workspace::take_uninit(m * n);
        gemm::gemm_into(Layout::NT, self.data(), other.data(), &mut out, m, k, n);
        Tensor::new(&[m, n], out)
    }

    /// `self^T x other` where `self` is `(k,m)` and `other` is `(k,n)` —
    /// the weight-gradient pattern `x^T · dy`.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2);
        assert_eq!(other.ndim(), 2);
        let (k, m) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (other.shape()[0], other.shape()[1]);
        assert_eq!(
            k,
            k2,
            "matmul_tn inner dims differ: {:?}^T x {:?}",
            self.shape(),
            other.shape()
        );
        let mut out = workspace::take_uninit(m * n);
        gemm::gemm_into(Layout::TN, self.data(), other.data(), &mut out, m, k, n);
        Tensor::new(&[m, n], out)
    }
}

/// Writes `a (m,k) x b (k,n)` into `out (m,n)`, overwriting it.
pub fn matmul_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    gemm::gemm_into(Layout::NN, a, b, out, m, k, n);
}

/// Writes `a (m,k) x b^T` (with `b` stored `(n,k)`) into `out (m,n)`.
pub fn matmul_nt_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    gemm::gemm_into(Layout::NT, a, b, out, m, k, n);
}

/// Writes `a^T x b` (with `a` stored `(k,m)`, `b` stored `(k,n)`) into
/// `out (m,n)`.
pub fn matmul_tn_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    gemm::gemm_into(Layout::TN, a, b, out, m, k, n);
}

/// `out += a (m,k) x b (k,n)` — gradient accumulation without a temporary.
pub fn matmul_acc_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    gemm::gemm_acc_into(Layout::NN, a, b, out, m, k, n);
}

/// `out += a (m,k) x b^T` with `b` stored `(n,k)`.
pub fn matmul_nt_acc_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    gemm::gemm_acc_into(Layout::NT, a, b, out, m, k, n);
}

/// `out += a^T x b` with `a` stored `(k,m)`, `b` stored `(k,n)` — the
/// weight-gradient pattern `grad_w += x^T · dy` directly into the gradient
/// buffer.
pub fn matmul_tn_acc_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    gemm::gemm_acc_into(Layout::TN, a, b, out, m, k, n);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;
    use crate::rng::Rng64;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a.at(&[i, p]) * b.at(&[p, j]);
                }
                *out.at_mut(&[i, j]) = acc;
            }
        }
        out
    }

    #[test]
    fn small_known_product() {
        let a = Tensor::new(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::new(&[3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = Rng64::seed_from_u64(1);
        let a = Tensor::randn(&[4, 4], &mut rng);
        let mut eye = Tensor::zeros(&[4, 4]);
        for i in 0..4 {
            *eye.at_mut(&[i, i]) = 1.0;
        }
        assert_close(a.matmul(&eye).data(), a.data(), 1e-6);
        assert_close(eye.matmul(&a).data(), a.data(), 1e-6);
    }

    #[test]
    fn matches_naive_on_random_sizes() {
        let mut rng = Rng64::seed_from_u64(5);
        for (m, k, n) in [(1, 1, 1), (3, 5, 2), (8, 8, 8), (17, 31, 13), (64, 96, 80)] {
            let a = Tensor::randn(&[m, k], &mut rng);
            let b = Tensor::randn(&[k, n], &mut rng);
            assert_close(a.matmul(&b).data(), naive(&a, &b).data(), 1e-3);
        }
    }

    #[test]
    fn transpose_involution() {
        let mut rng = Rng64::seed_from_u64(2);
        let a = Tensor::randn(&[3, 7], &mut rng);
        let tt = a.t().t();
        assert_eq!(tt.shape(), a.shape());
        assert_eq!(tt.data(), a.data());
    }

    #[test]
    fn transpose_swaps_indices() {
        let a = Tensor::arange(6).into_reshape(&[2, 3]);
        let at = a.t();
        assert_eq!(at.shape(), &[3, 2]);
        for i in 0..2 {
            for j in 0..3 {
                assert_eq!(a.at(&[i, j]), at.at(&[j, i]));
            }
        }
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let mut rng = Rng64::seed_from_u64(3);
        let a = Tensor::randn(&[5, 7], &mut rng);
        let b = Tensor::randn(&[4, 7], &mut rng);
        assert_close(a.matmul_nt(&b).data(), a.matmul(&b.t()).data(), 1e-4);
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let mut rng = Rng64::seed_from_u64(4);
        let a = Tensor::randn(&[7, 5], &mut rng);
        let b = Tensor::randn(&[7, 4], &mut rng);
        assert_close(a.matmul_tn(&b).data(), a.t().matmul(&b).data(), 1e-4);
    }

    #[test]
    #[should_panic(expected = "inner dims differ")]
    fn mismatched_inner_dims_panic() {
        Tensor::zeros(&[2, 3]).matmul(&Tensor::zeros(&[4, 2]));
    }

    #[test]
    fn zero_sized_matmul() {
        let a = Tensor::zeros(&[0, 3]);
        let b = Tensor::zeros(&[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[0, 2]);
    }

    #[test]
    fn zero_sized_matmul_nt() {
        // Regression: m == 0 used to trip parallel_for_chunks' `n > 0`
        // assert, and n == 0 used to panic in `chunks_mut(0)`.
        let c = Tensor::zeros(&[0, 3]).matmul_nt(&Tensor::zeros(&[2, 3]));
        assert_eq!(c.shape(), &[0, 2]);
        let c = Tensor::zeros(&[2, 3]).matmul_nt(&Tensor::zeros(&[0, 3]));
        assert_eq!(c.shape(), &[2, 0]);
        let c = Tensor::zeros(&[2, 0]).matmul_nt(&Tensor::zeros(&[3, 0]));
        assert_eq!(c.shape(), &[2, 3]);
        assert!(c.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn zero_sized_matmul_tn() {
        let c = Tensor::zeros(&[3, 0]).matmul_tn(&Tensor::zeros(&[3, 2]));
        assert_eq!(c.shape(), &[0, 2]);
        let c = Tensor::zeros(&[3, 2]).matmul_tn(&Tensor::zeros(&[3, 0]));
        assert_eq!(c.shape(), &[2, 0]);
        let c = Tensor::zeros(&[0, 2]).matmul_tn(&Tensor::zeros(&[0, 3]));
        assert_eq!(c.shape(), &[2, 3]);
        assert!(c.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn zero_sized_transpose() {
        let t = Tensor::zeros(&[0, 4]).t();
        assert_eq!(t.shape(), &[4, 0]);
        let t = Tensor::zeros(&[4, 0]).t();
        assert_eq!(t.shape(), &[0, 4]);
    }

    #[test]
    fn associativity_within_tolerance() {
        let mut rng = Rng64::seed_from_u64(6);
        let a = Tensor::randn(&[4, 5], &mut rng);
        let b = Tensor::randn(&[5, 6], &mut rng);
        let c = Tensor::randn(&[6, 3], &mut rng);
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        assert_close(left.data(), right.data(), 1e-3);
    }

    /// Regression for the removed `av == 0.0` skip branch: zeros and signed
    /// zeros multiply through like any other value, and `0 · NaN` now
    /// propagates NaN per IEEE 754 (the old kernel silently skipped it).
    #[test]
    fn zeros_signed_zeros_and_nan_propagation() {
        // Plenty of (signed) zeros in both operands: results must be
        // bitwise what the in-order naive loop computes.
        let a = Tensor::new(&[2, 4], vec![0.0, -0.0, 1.5, 0.0, -2.0, 0.0, -0.0, 3.0]);
        let b = Tensor::new(&[4, 2], vec![4.0, -0.0, 0.0, 5.0, -6.0, 0.0, 0.0, -7.0]);
        let got = a.matmul(&b);
        let want = naive(&a, &b);
        for (x, y) in got.data().iter().zip(want.data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }

        // A zero in `a` against a NaN in `b`: 0 * NaN = NaN must reach the
        // output (row 0 hits the NaN with av == 0.0).
        let a = Tensor::new(&[2, 2], vec![0.0, 1.0, 2.0, 3.0]);
        let b = Tensor::new(&[2, 2], vec![f32::NAN, 4.0, 5.0, 6.0]);
        let c = a.matmul(&b);
        assert!(c.at(&[0, 0]).is_nan(), "0 * NaN must propagate");
        assert!(c.at(&[1, 0]).is_nan());
        assert_eq!(c.at(&[0, 1]), 6.0);

        // Same contract for the transposed variants, which had the same
        // skip (matmul_tn) or a dot-product form (matmul_nt).
        let c = a.matmul_nt(&b.t());
        assert!(c.at(&[0, 0]).is_nan());
        let c = a.t().matmul_tn(&b);
        assert!(c.at(&[0, 0]).is_nan());

        // Signed-zero arithmetic is preserved exactly: (-0)·4 + 0·5 = 0
        // with the sign the in-order sum produces.
        let a = Tensor::new(&[1, 2], vec![-0.0, 0.0]);
        let b = Tensor::new(&[2, 1], vec![4.0, 5.0]);
        let want = (-0.0f32 * 4.0) + (0.0f32 * 5.0);
        assert_eq!(a.matmul(&b).data()[0].to_bits(), want.to_bits());
    }

    /// The `*_into` / `*_acc_into` free functions agree with the tensor-level
    /// wrappers bitwise.
    #[test]
    fn into_variants_match_wrappers() {
        let mut rng = Rng64::seed_from_u64(8);
        let (m, k, n) = (9, 11, 6);
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        let bt = b.t();
        let at = a.t();

        let mut out = vec![9.0f32; m * n];
        matmul_into(a.data(), b.data(), &mut out, m, k, n);
        assert_eq!(out, a.matmul(&b).data());

        matmul_nt_into(a.data(), bt.data(), &mut out, m, k, n);
        assert_eq!(out, a.matmul_nt(&bt).data());

        matmul_tn_into(at.data(), b.data(), &mut out, m, k, n);
        assert_eq!(out, at.matmul_tn(&b).data());

        // acc variant: seed with ones, expect ones + product, computed
        // by in-order accumulation starting from the seed.
        let mut acc = vec![1.0f32; m * n];
        matmul_acc_into(a.data(), b.data(), &mut acc, m, k, n);
        for i in 0..m {
            for j in 0..n {
                let mut s = 1.0f32;
                for p in 0..k {
                    s = a.data()[i * k + p].mul_add(b.data()[p * n + j], s);
                }
                assert_eq!(s.to_bits(), acc[i * n + j].to_bits());
            }
        }
    }
}
